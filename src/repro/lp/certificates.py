"""Farkas-style certificate extraction.

A Shannon-provable information inequality ``0 ≤ E(h)`` is, by definition, a
non-negative combination of elemental inequalities.  The multipliers of that
combination form a *certificate* that can be re-verified exactly and shipped
alongside a "valid" verdict.  This module finds such multipliers by solving
the feasibility problem ``A^T λ = c, λ ≥ 0``.

Two entry points exist: :func:`nonnegative_combination` solves over the full
coordinate width, while :func:`nonnegative_combination_over_support` — the
row-generation certificate path, where the generator matrix is a small
*active* subset of the elemental rows — restricts the equality system to the
columns the generators actually touch.  The restricted solve *rejects*
(raises) a target with support outside those columns: silently dropping the
extra coordinates would manufacture a certificate for a different
expression.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import CertificateError
from repro.lp.solver import check_feasibility


def nonnegative_combination(
    generators, target: np.ndarray, tolerance: float = 1e-7
) -> Optional[np.ndarray]:
    """Express ``target`` as a non-negative combination of the rows of ``generators``.

    ``generators`` may be a dense array or a scipy sparse matrix.  Returns the
    multiplier vector ``λ ≥ 0`` with ``λ @ generators = target``, or ``None``
    when no such combination exists (up to ``tolerance`` checked after
    solving, to protect against numerically marginal solutions).
    """
    if not sp.issparse(generators):
        generators = np.asarray(generators, dtype=float)
        if generators.ndim != 2:
            raise ValueError("generator matrix must be two-dimensional")
    target = np.asarray(target, dtype=float)
    if generators.shape[1] != target.shape[0]:
        raise ValueError("generator matrix shape does not match the target vector")
    feasible, solution = check_feasibility(
        num_variables=generators.shape[0],
        A_eq=generators.T,
        b_eq=target,
        bounds=[(0, None)] * generators.shape[0],
    )
    if not feasible or solution is None:
        return None
    if sp.issparse(generators):
        residual = generators.T.dot(solution) - target
    else:
        residual = solution @ generators - target
    if np.max(np.abs(residual)) > tolerance:
        return None
    return solution


def nonnegative_combination_over_support(
    generators, target: np.ndarray, tolerance: float = 1e-7
) -> Optional[np.ndarray]:
    """Like :func:`nonnegative_combination`, restricted to the support columns.

    Only the columns where some generator row is non-zero enter the equality
    system, which keeps the solve proportional to the *active* row set
    instead of the full ``2^n - 1`` coordinate width.  A ``target`` with
    non-zero support outside those columns cannot be expressed by the
    generators at all; it raises :class:`CertificateError` — a truncated
    solve would silently return multipliers certifying a different target.

    Returns ``λ ≥ 0`` with ``λ @ generators = target`` over the full width
    (the guard makes the restricted and full-width systems equivalent), or
    ``None`` when no such combination exists.
    """
    target = np.asarray(target, dtype=float)
    if sp.issparse(generators):
        generators = generators.tocsc()
        column_support = np.diff(generators.indptr) > 0
    else:
        generators = np.asarray(generators, dtype=float)
        if generators.ndim != 2:
            raise ValueError("generator matrix must be two-dimensional")
        column_support = np.any(generators != 0.0, axis=0)
    if generators.shape[1] != target.shape[0]:
        raise ValueError("generator matrix shape does not match the target vector")
    unsupported = np.nonzero(~column_support & (np.abs(target) > tolerance))[0]
    if unsupported.size:
        raise CertificateError(
            "certificate target has support outside the active row set "
            f"(coordinates {unsupported[:8].tolist()}"
            f"{'…' if unsupported.size > 8 else ''}); "
            "enlarge the active rows instead of truncating the target"
        )
    if not column_support.any():
        # A (near-)zero target over rows with no support at all: λ = 0 works.
        return np.zeros(generators.shape[0])
    restricted = generators[:, column_support]
    if sp.issparse(restricted):
        restricted = restricted.tocsr()
    return nonnegative_combination(restricted, target[column_support], tolerance)
