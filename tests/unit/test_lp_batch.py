"""Tests for the batched LP entry point (feasibility blocks)."""

import numpy as np
import pytest

from repro.exceptions import LPError
from repro.lp.solver import (
    FeasibilityBlock,
    LPStatus,
    check_feasibility,
    minimize,
    solve_feasibility_blocks,
)


def _random_block(rng, num_variables):
    """A soft-constraint system A x ≤ -1 over x ≥ 0 with random signs."""
    rows = rng.integers(1, 4)
    A = rng.integers(-2, 3, size=(rows, num_variables)).astype(float)
    return FeasibilityBlock(
        num_variables=num_variables,
        A_soft=A,
        b_soft=-np.ones(rows),
    )


class TestSolveFeasibilityBlocks:
    def test_empty(self):
        assert solve_feasibility_blocks([]) == []

    def test_single_block_matches_check_feasibility(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            block = _random_block(rng, num_variables=3)
            feasible, _ = check_feasibility(
                num_variables=3, A_ub=block.A_soft, b_ub=block.b_soft
            )
            [result] = solve_feasibility_blocks([block])
            assert result.feasible == feasible, f"trial {trial}"
            if result.feasible:
                x = result.solution
                assert np.all(block.A_soft @ x <= np.asarray(block.b_soft) + 1e-6)

    def test_many_blocks_match_individual_solves(self):
        rng = np.random.default_rng(1)
        blocks = [_random_block(rng, num_variables=4) for _ in range(12)]
        expected = [
            check_feasibility(num_variables=4, A_ub=b.A_soft, b_ub=b.b_soft)[0]
            for b in blocks
        ]
        results = solve_feasibility_blocks(blocks)
        assert [r.feasible for r in results] == expected

    def test_hard_rows_are_enforced_exactly(self):
        # Soft row x0 ≤ -1 is satisfiable over x ≥ 0 only by violating the
        # hard row -x0 ≤ -2 (x0 ≥ 2); with the hard row present the block
        # must come back infeasible with slack ≈ 3.
        block = FeasibilityBlock(
            num_variables=1,
            A_soft=[[1.0]],
            b_soft=[-1.0],
            A_hard=[[-1.0]],
            b_hard=[-2.0],
        )
        [result] = solve_feasibility_blocks([block])
        assert not result.feasible
        assert result.slack == pytest.approx(3.0, abs=1e-6)

    def test_mixed_feasible_and_infeasible_blocks(self):
        feasible_block = FeasibilityBlock(
            num_variables=2, A_soft=[[-1.0, 0.0]], b_soft=[-1.0]
        )
        infeasible_block = FeasibilityBlock(
            num_variables=2, A_soft=[[1.0, 1.0]], b_soft=[-1.0]
        )
        results = solve_feasibility_blocks(
            [feasible_block, infeasible_block, feasible_block]
        )
        assert [r.feasible for r in results] == [True, False, True]
        assert results[0].solution is not None
        assert results[1].solution is None

    def test_block_without_soft_rows_rejected(self):
        with pytest.raises(LPError):
            solve_feasibility_blocks(
                [FeasibilityBlock(num_variables=1, A_soft=[], b_soft=[])]
            )
