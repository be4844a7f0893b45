"""scipy's ``linprog`` as a one-shot reference for the library's HiGHS models.

The library solves every LP on HiGHS models it drives directly
(:mod:`repro.lp.backends`): kept across cutting-plane rounds, grown by
keyed rows and, in the block and certificate loops, re-solved warm.  The
equivalence tests check those models against this oracle, which restates
each question as one fresh ``scipy.optimize.linprog(method="highs")`` solve
over fully stacked rows — a model's fixed rows and then its keyed rows, or
the full elemental description of ``Γn`` — so no solver state carries over
from one solve to the next.  The checks those tests share on an answer's
own evidence (a cone point below every branch, a batched verdict's ``λ``
and proof) live here too.

Importable from every test module: pytest puts ``tests/`` (the directory of
the root ``conftest.py``) on ``sys.path``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.infotheory.expressions import LinearExpression
from repro.infotheory.polymatroid import is_polymatroid
from repro.lp.solver import LPResult, LPStatus
from repro.utils.lattice import lattice_context

#: Minimum over the ``h(V) ≤ 1`` slice at or above which an expression is valid.
VALIDITY_TOLERANCE = 1e-7


def solve(objective, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)) -> LPResult:
    """One fresh ``linprog`` solve; ``row_duals`` list the ``A_ub`` rows, then ``A_eq``."""
    result = linprog(
        c=np.asarray(objective, dtype=float),
        A_ub=A_ub,
        b_ub=None if b_ub is None else np.asarray(b_ub, dtype=float),
        A_eq=A_eq,
        b_eq=None if b_eq is None else np.asarray(b_eq, dtype=float),
        bounds=bounds,
        method="highs",
    )
    if result.status == 0:
        return LPResult(
            status=LPStatus.OPTIMAL,
            objective=float(result.fun),
            solution=result.x,
            row_duals=np.concatenate([result.ineqlin.marginals, result.eqlin.marginals]),
        )
    if result.status == 2:
        return LPResult(status=LPStatus.INFEASIBLE, objective=None, solution=None)
    if result.status == 3:
        return LPResult(status=LPStatus.UNBOUNDED, objective=None, solution=None)
    raise AssertionError(f"linprog failed: {result.message}")


def solve_stacked(objective, bounds, parts: Sequence) -> LPResult:
    """A keyed-row model's LP in one solve.

    ``parts`` are ``(rows, rhs)`` pairs of ``rows x ≤ rhs`` in model order:
    the fixed rows first, then each batch of keyed rows as it was added.
    """
    A_ub = sp.vstack([sp.csr_matrix(rows) for rows, _ in parts], format="csr")
    b_ub = np.concatenate([np.asarray(rhs, dtype=float).reshape(-1) for _, rhs in parts])
    return solve(objective, A_ub=A_ub, b_ub=b_ub, bounds=bounds)


def expression_row(expression: LinearExpression) -> np.ndarray:
    """``expression`` in the LP layer's canonical non-empty-subset coordinates."""
    lattice = lattice_context(tuple(expression.ground))
    row = np.zeros(lattice.size - 1)
    for subset, coefficient in expression.coefficients.items():
        if subset:
            row[lattice.canon_index[frozenset(subset)] - 1] += coefficient
    return row


def _elemental_rows(ground) -> sp.csr_matrix:
    """``-M``, so that ``-M h ≤ 0`` is ``h ∈ Γn`` (``M`` the elemental matrix)."""
    return -lattice_context(tuple(ground)).elemental_matrix()


def minimum_over_gamma(expression: LinearExpression) -> float:
    """``min E(h)`` over ``{h ∈ Γn : h(V) ≤ 1}``, on the full elemental matrix."""
    cone = _elemental_rows(expression.ground)
    width = cone.shape[1]
    total = sp.csr_matrix(([1.0], ([0], [width - 1])), shape=(1, width))
    result = solve(
        expression_row(expression),
        A_ub=sp.vstack([cone, total], format="csr"),
        b_ub=np.append(np.zeros(cone.shape[0]), 1.0),
    )
    assert result.status == LPStatus.OPTIMAL
    return result.objective


def is_valid(expression: LinearExpression) -> bool:
    """Whether ``0 ≤ E(h)`` holds on all of ``Γn``."""
    return minimum_over_gamma(expression) >= -VALIDITY_TOLERANCE


def point_below(
    ground, expressions: Sequence[LinearExpression], margin: float = 1.0
) -> Optional[np.ndarray]:
    """A point of ``Γn`` with every ``E_ℓ(h) ≤ -margin``, or ``None``.

    Every expression must be over ``ground`` (see ``with_ground``).
    """
    cone = _elemental_rows(ground)
    branches = np.array([expression_row(e) for e in expressions])
    result = solve(
        np.zeros(cone.shape[1]),
        A_ub=sp.vstack([cone, sp.csr_matrix(branches)], format="csr"),
        b_ub=np.append(np.zeros(cone.shape[0]), -margin * np.ones(len(expressions))),
    )
    return result.solution if result.status == LPStatus.OPTIMAL else None


def assert_point_below(function, expressions: Sequence[LinearExpression]) -> None:
    """``function`` is a point of ``Γn`` with every ``E_ℓ(h) ≤ -1``."""
    assert is_polymatroid(function, tolerance=1e-6)
    assert all(e.evaluate(function) <= -1.0 + 1e-6 for e in expressions)


def assert_block_verdict(verdict, ground, expressions, point=None) -> None:
    """A batched verdict carries its point, or its dual certificate.

    An invalid verdict carries a cone point below every branch — ``point``
    when given (the block LP's own point) — and no certificate.  A valid
    verdict's ``λ`` is a convex combination and its proof, checked by
    :meth:`ShannonCertificate.verify`, sums to ``Σλ_ℓ E_ℓ``.
    """
    if not verdict.valid:
        function = verdict.violating_function
        assert verdict.certificate is None and verdict.lambdas is None
        if point is not None:
            assert np.allclose(function.to_vector(), point.to_vector())
        assert_point_below(function, expressions)
        return
    lambdas = verdict.lambdas
    assert lambdas is not None and verdict.certificate is not None
    assert len(lambdas) == len(expressions)
    assert min(lambdas) >= 0.0 and abs(sum(lambdas) - 1.0) <= 1e-9
    combined = LinearExpression.zero(ground)
    for weight, expression in zip(lambdas, expressions):
        combined = combined + weight * expression
    assert verdict.certificate.verify(combined)
