"""The lazy (rowgen) solver entry points agree with the dense path.

These tests exercise the ``lazy_rows`` entry points of
:mod:`repro.lp.solver` directly, below the infotheory layer: the same cone
problems solved on the dense path and on row generation (each pinned with
``tests/lp_paths.py``) must return identical feasibility verdicts and
matching objectives, the row count must pick the path, and the reports
must show that row generation really solved with a fraction of the rows.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from lp_paths import pin_path

from repro.exceptions import LPError
from repro.infotheory.cones import cone_by_name
from repro.infotheory.expressions import LinearExpression, MaxInformationInequality
from repro.infotheory.maxiip import decide_max_ii_many
from repro.infotheory.shannon import shannon_prover
from repro.lp import rowgen
from repro.lp.rowgen import (
    AUTO_BLOCK_ROW_THRESHOLD,
    AUTO_ROW_THRESHOLD,
    choose_path,
    shannon_row_oracle,
)
from repro.lp.solver import (
    FeasibilityBlock,
    LPStatus,
    check_feasibility,
    minimize,
    record_solver_path,
    solve_feasibility_blocks,
    solver_path_counts,
)
from repro.utils.lattice import lattice_context

GROUND = tuple(f"X{i}" for i in range(1, 5))  # n = 4, 32 elemental rows


def _canonical_index(ground, subset):
    lattice = lattice_context(ground)
    return lattice.canon_pos[lattice.mask_of(subset)] - 1


def _objective(ground, coefficients):
    lattice = lattice_context(ground)
    vector = np.zeros(lattice.size - 1)
    for subset, coefficient in coefficients.items():
        vector[_canonical_index(ground, subset)] += coefficient
    return vector


def _normalization_row(ground):
    lattice = lattice_context(ground)
    row = np.zeros((1, lattice.size - 1))
    row[0, _canonical_index(ground, ground)] = 1.0
    return row


# A Shannon-valid objective (Han-type: Σ h(V\i) - (n-1)·h(V) ≥ 0 on Γn)
VALID = {frozenset(GROUND) - {v}: 1.0 for v in GROUND}
VALID[frozenset(GROUND)] = -(len(GROUND) - 1)

# An invalid objective (negative somewhere on Γn).
INVALID = {
    frozenset({"X1"}): 1.0,
    frozenset({"X2"}): 1.0,
    frozenset({"X1", "X2"}): -1.5,
}


@pytest.mark.parametrize("coefficients,expected_negative", [(VALID, False), (INVALID, True)])
def test_minimize_rowgen_matches_dense(coefficients, expected_negative):
    oracle = shannon_row_oracle(GROUND)
    objective = _objective(GROUND, coefficients)
    with pin_path("dense"):
        dense = minimize(
            objective,
            A_ub=_normalization_row(GROUND),
            b_ub=[1.0],
            lazy_rows=oracle,
        )
    with pin_path("rowgen"):
        lazy = minimize(
            objective,
            A_ub=_normalization_row(GROUND),
            b_ub=[1.0],
            bounds=(0, 1),
            lazy_rows=oracle,
        )
    assert dense.status == lazy.status == LPStatus.OPTIMAL
    assert lazy.objective == pytest.approx(dense.objective, abs=1e-7)
    assert (dense.objective < -1e-7) == expected_negative
    assert lazy.rowgen is not None
    assert lazy.rowgen.rows_used <= oracle.row_count
    assert lazy.rowgen.total_rows == oracle.row_count
    # The rowgen solution must satisfy every elemental inequality.
    cuts, _ = oracle.separate(oracle.dense_from_canonical(lazy.solution), 1e-7)
    assert cuts.size == 0


def test_check_feasibility_rowgen_matches_dense():
    oracle = shannon_row_oracle(GROUND)
    width = lattice_context(GROUND).size - 1
    branch_invalid = _objective(GROUND, INVALID).reshape(1, width)
    branch_valid = _objective(GROUND, VALID).reshape(1, width)
    for branch, expected in [(branch_invalid, True), (branch_valid, False)]:
        with pin_path("dense"):
            dense_feasible, _ = check_feasibility(
                width, A_ub=branch, b_ub=[-1.0], lazy_rows=oracle
            )
        with pin_path("rowgen"):
            lazy_feasible, solution = check_feasibility(
                width, A_ub=branch, b_ub=[-1.0], lazy_rows=oracle
            )
        assert dense_feasible == lazy_feasible == expected
        if expected:
            assert (branch @ solution)[0] <= -1.0 + 1e-7
            cuts, _ = oracle.separate(oracle.dense_from_canonical(solution), 1e-7)
            assert cuts.size == 0


def test_solve_feasibility_blocks_rowgen_matches_dense():
    oracle = shannon_row_oracle(GROUND)
    width = lattice_context(GROUND).size - 1
    blocks = [
        FeasibilityBlock(
            num_variables=width,
            A_soft=_objective(GROUND, coefficients).reshape(1, width),
            b_soft=[-1.0],
        )
        for coefficients in (INVALID, VALID, INVALID)
    ]
    # A hard row h(V) <= 0 leaves only h = 0 in the cone: no point below.
    full_row = np.zeros((1, width))
    full_row[0, _canonical_index(GROUND, GROUND)] = 1.0
    blocks.append(
        FeasibilityBlock(
            num_variables=width,
            A_soft=_objective(GROUND, INVALID).reshape(1, width),
            b_soft=[-1.0],
            A_hard=full_row,
            b_hard=[0.0],
        )
    )
    with pin_path("dense"):
        dense_results = solve_feasibility_blocks(blocks, lazy_rows=oracle)
    with pin_path("rowgen"):
        lazy_results = solve_feasibility_blocks(blocks, lazy_rows=oracle)
    assert [r.feasible for r in dense_results] == [r.feasible for r in lazy_results]
    assert [r.feasible for r in lazy_results] == [True, False, True, False]
    for result in lazy_results:
        assert result.rows_used is not None
        assert result.rows_used <= oracle.row_count
    # The *feasible* blocks terminate on a point of Γn found early; only the
    # infeasible block may have needed the full description.
    assert lazy_results[0].rows_used < oracle.row_count


def _path_deltas(decide):
    before = solver_path_counts()
    decide()
    after = solver_path_counts()
    return {path: after[path] - before.get(path, 0) for path in after}


def _paths_taken(decide):
    return {path for path, delta in _path_deltas(decide).items() if delta}


@pytest.mark.parametrize(
    "row_count, blocks, expected",
    [
        (AUTO_ROW_THRESHOLD, False, "dense"),
        (AUTO_ROW_THRESHOLD + 1, False, "rowgen"),
        (AUTO_BLOCK_ROW_THRESHOLD, True, "dense"),
        (AUTO_BLOCK_ROW_THRESHOLD + 1, True, "rowgen"),
    ],
)
def test_the_row_count_picks_the_path_and_tallies_it_once(row_count, blocks, expected):
    paths = []
    deltas = _path_deltas(lambda: paths.append(choose_path(row_count, blocks)))
    assert paths == [expected]
    assert deltas == {path: int(path == expected) for path in deltas}


def _mutual_information(ground):
    """``I(X1 ; X2) = h(X1) + h(X2) - h(X1X2)``, valid over every ``Γn``."""
    return LinearExpression(
        ground,
        {
            frozenset({ground[0]}): 1.0,
            frozenset({ground[1]}): 1.0,
            frozenset(ground[:2]): -1.0,
        },
    )


@pytest.mark.parametrize("n, expected", [(7, "dense"), (8, "rowgen"), (9, "rowgen")])
def test_block_lp_auto_switches_to_rowgen_from_n8(n, expected):
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    inequality = MaxInformationInequality.single(_mutual_information(ground))
    taken = _paths_taken(
        lambda: decide_max_ii_many([inequality, inequality], over="gamma", ground=ground)
    )
    assert taken == {expected}


def test_sequential_loops_stay_dense_at_n8():
    ground = tuple(f"X{i}" for i in range(1, 9))
    expression = _mutual_information(ground)
    cone = cone_by_name("gamma", ground)
    assert _paths_taken(lambda: cone.find_point_below([expression])) == {"dense"}
    assert _paths_taken(lambda: shannon_prover(ground).is_valid(expression)) == {"dense"}


@pytest.mark.parametrize("path, n", [("dense", 9), ("rowgen", 3)])
def test_pin_path_sends_a_block_down_the_pinned_path(path, n):
    # Unpinned, an n = 9 block runs row generation and an n = 3 block dense.
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    inequality = MaxInformationInequality.single(_mutual_information(ground))
    with pin_path(path):
        deltas = _path_deltas(
            lambda: decide_max_ii_many([inequality], over="gamma", ground=ground)
        )
    assert deltas == {taken: int(taken == path) for taken in deltas}


def test_rowgen_rejects_equality_constraints():
    oracle = shannon_row_oracle(GROUND)
    width = lattice_context(GROUND).size - 1
    with pin_path("rowgen"), pytest.raises(LPError):
        minimize(
            np.zeros(width),
            A_eq=np.ones((1, width)),
            b_eq=[1.0],
            lazy_rows=oracle,
        )


def test_unbounded_relaxation_raises_instead_of_guessing():
    # Minimizing -h(V) over the cone *without* the normalization row is
    # unbounded on the true problem too, but the loop cannot distinguish the
    # cases and must refuse rather than answer.
    oracle = shannon_row_oracle(GROUND)
    objective = _objective(GROUND, {frozenset(GROUND): -1.0})
    with pin_path("rowgen"), pytest.raises(LPError):
        minimize(objective, lazy_rows=oracle)


def test_tight_cut_budget_still_converges():
    oracle = shannon_row_oracle(GROUND)
    objective = _objective(GROUND, VALID)
    with pin_path("rowgen"), mock.patch.object(rowgen, "MAX_CUTS_PER_ROUND", 1):
        result = minimize(
            objective,
            A_ub=_normalization_row(GROUND),
            b_ub=[1.0],
            bounds=(0, 1),
            lazy_rows=oracle,
        )
    assert result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(0.0, abs=1e-7)
    assert result.rowgen.rounds >= result.rowgen.cuts_added


def test_solver_path_counters_tally_both_paths():
    # Delta-based so this test never erases the session-wide tally the
    # terminal-summary coverage line (and the CI grep) reports.
    before = solver_path_counts()
    record_solver_path("dense")
    record_solver_path("rowgen")
    record_solver_path("rowgen")
    after = solver_path_counts()
    assert after["dense"] - before["dense"] == 1
    assert after["rowgen"] - before["rowgen"] == 2
