"""The LP entry points shared by every decision procedure.

All decision procedures of the library reduce to two primitives:

* :func:`minimize` — minimize a linear objective over a polyhedron,
* :func:`check_feasibility` — decide whether a polyhedron is non-empty and,
  if so, return a point of it.

The wrappers normalize the inputs (lists, numpy arrays, ``None``), route the
solve to HiGHS through :mod:`repro.lp.backends`, and convert solver
statuses into a small, explicit enum so that callers never have to inspect a
solver's raw result object directly.

Batched entry point
-------------------
High-volume callers issue many structurally related LPs at once.
:func:`solve_feasibility_blocks` decides many *independent* feasibility
systems in one call.  Each block receives one slack variable that relaxes
only its "soft" rows, and minimizing the slack decides the block (slack 0 ⇔
the block is feasible).  With explicit rows (the dense path) the blocks are
stacked block-diagonally into a single HiGHS invocation that minimizes the
sum of slacks inside one shared presolve/factorization; with row generation
every block runs on its own warm-started model (see
:func:`repro.lp.rowgen.solve_feasibility_blocks_lazy`).  This is the
primitive under the :mod:`repro.service` batch engine's grouped cone
decisions.

Lazy (implicit) constraint rows
-------------------------------
Every public entry point accepts an optional ``lazy_rows`` object — an
implicit family of homogeneous rows ``A x ≥ 0`` (in practice the
:class:`repro.lp.rowgen.ShannonRowOracle` describing the elemental rows of
``Γn``).  The family's row count picks how its rows join the LP
(:func:`repro.lp.rowgen.choose_path`):

* ``"dense"`` materializes the full row family and appends it to the
  explicit constraints;
* ``"rowgen"`` runs the cutting-plane loops of :mod:`repro.lp.rowgen`,
  starting from a small seed row set and adding only the rows a separation
  oracle finds violated.

The block LP switches to row generation past
:data:`repro.lp.rowgen.AUTO_BLOCK_ROW_THRESHOLD` rows (``n ≥ 8``), every
other entry point past :data:`repro.lp.rowgen.AUTO_ROW_THRESHOLD`
(``n ≥ 9``).  Which path actually ran is tallied in a process-wide counter
(:func:`solver_path_counts`) so test runs can prove both paths were
exercised.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import LPError
from repro.obs.metrics import global_registry


class LPStatus(Enum):
    """Outcome of a linear program."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


# --------------------------------------------------------------------- #
# Solver-path accounting (dense vs rowgen coverage)
# --------------------------------------------------------------------- #
_PATH_LOCK = threading.Lock()
_SOLVER_PATH_COUNTS: Dict[str, int] = {"dense": 0, "rowgen": 0}

# The same tally, exported on the process-wide metrics registry so the
# daemon's Prometheus exposition covers LP decisions by method.
_LP_DECISIONS = global_registry().counter(
    "repro_lp_decisions_total",
    "Gamma_n LP decisions by solver path (dense vs row generation).",
    labelnames=("method",),
)


def record_solver_path(method: str) -> None:
    """Tally one ``Γn`` LP decision taken through ``method`` (dense/rowgen).

    Validity checks, feasibility searches and certificate extractions each
    count separately — a ``decide_max_ii(..., with_certificate=True)`` call
    therefore records twice, once per LP-layer decision it makes.
    """
    with _PATH_LOCK:
        _SOLVER_PATH_COUNTS[method] = _SOLVER_PATH_COUNTS.get(method, 0) + 1
    _LP_DECISIONS.inc(method=method)


def solver_path_counts() -> Dict[str, int]:
    """A snapshot of how many ``Γn`` LP decisions each solver path served."""
    with _PATH_LOCK:
        return dict(_SOLVER_PATH_COUNTS)


def reset_solver_path_counts() -> None:
    with _PATH_LOCK:
        for key in _SOLVER_PATH_COUNTS:
            _SOLVER_PATH_COUNTS[key] = 0


@dataclass(frozen=True)
class LPResult:
    """Result of :func:`minimize`.

    Attributes
    ----------
    status:
        Whether an optimum was found, the problem is infeasible, or the
        objective is unbounded below.
    objective:
        The optimal objective value (``None`` unless status is OPTIMAL).
    solution:
        The optimal point as a numpy array (``None`` unless OPTIMAL).
    rowgen:
        A :class:`repro.lp.rowgen.RowGenReport` when the result came from a
        cutting-plane loop (``None`` on the dense path).
    row_duals:
        The solver's row duals, in the model's row order (see
        :meth:`repro.lp.backends.IncrementalModel.solve`), when the solve
        was OPTIMAL and the solver reported valid duals.
    """

    status: LPStatus
    objective: Optional[float]
    solution: Optional[np.ndarray]
    rowgen: Optional[object] = None
    row_duals: Optional[np.ndarray] = None


def _as_array(matrix, width: Optional[int] = None):
    """Normalize a constraint matrix; sparse matrices are passed through as CSR."""
    if matrix is None:
        return None
    if sp.issparse(matrix):
        return None if matrix.shape[0] == 0 else matrix.tocsr()
    array = np.asarray(matrix, dtype=float)
    if array.size == 0:
        return None
    if array.ndim == 1 and width is not None:
        array = array.reshape(1, width)
    return array


def _lazy_path(lazy_rows, blocks: bool = False) -> Optional[str]:
    """The path of a lazy row family, or ``None`` without one (see ``choose_path``)."""
    if lazy_rows is None:
        return None
    from repro.lp.rowgen import choose_path

    return choose_path(lazy_rows.row_count, blocks)


def _backend():
    """The shared HiGHS backend (imported late: it imports this module)."""
    from repro.lp.backends import resolve_backend

    return resolve_backend()


def _prepend_homogeneous_rows(cone_rows, A, b, width: int):
    """Stack homogeneous rows ``cone_rows·x ≤ 0`` above explicit ``A x ≤ b``.

    The single place the "cone description first, caller rows after" layout
    is built for the dense lazy-row expansion.
    """
    cone_rhs = np.zeros(cone_rows.shape[0])
    extra = _as_array(A, width)
    if extra is None:
        return cone_rows, cone_rhs
    return (
        sp.vstack([cone_rows, sp.csr_matrix(extra)], format="csr"),
        np.concatenate([cone_rhs, np.asarray(b, dtype=float)]),
    )


def _append_lazy_dense(lazy_rows, A_ub, b_ub, width: int):
    """Materialize a lazy row family and stack ``-A x ≤ 0`` above ``A_ub``."""
    return _prepend_homogeneous_rows(-lazy_rows.full_matrix(), A_ub, b_ub, width)


def _block_with_hard_rows(block: "FeasibilityBlock", cone_rows) -> "FeasibilityBlock":
    """A copy of ``block`` with ``cone_rows·x ≤ 0`` prepended to its hard rows."""
    A_hard, b_hard = _prepend_homogeneous_rows(
        cone_rows, block.A_hard, block.b_hard, block.num_variables
    )
    return FeasibilityBlock(
        num_variables=block.num_variables,
        A_soft=block.A_soft,
        b_soft=block.b_soft,
        A_hard=A_hard,
        b_hard=b_hard,
    )


def minimize(
    objective: Sequence[float],
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds: Optional[Sequence[Tuple[Optional[float], Optional[float]]]] = None,
    lazy_rows=None,
    rowgen_options=None,
) -> LPResult:
    """Minimize ``objective · x`` subject to ``A_ub x ≤ b_ub`` and ``A_eq x = b_eq``.

    ``bounds`` follows the scipy convention; the default is ``x ≥ 0`` for all
    variables (pass explicit ``(None, None)`` pairs for free variables).

    When ``lazy_rows`` is given, its implicit homogeneous rows ``A x ≥ 0``
    join the constraints through the path its row count picks (see the
    module docstring); row generation requires ``A_eq`` to be empty and
    relies on ``bounds`` to keep every relaxation bounded.
    """
    path = _lazy_path(lazy_rows)
    if path == "rowgen":
        if A_eq is not None or b_eq is not None:
            raise LPError("row generation does not support equality constraints")
        from repro.lp.rowgen import minimize_lazy

        return minimize_lazy(
            objective,
            lazy_rows,
            A_ub=A_ub,
            b_ub=b_ub,
            bounds=bounds,
            options=rowgen_options,
        )
    objective = np.asarray(objective, dtype=float)
    if path == "dense":
        A_ub, b_ub = _append_lazy_dense(lazy_rows, A_ub, b_ub, objective.shape[0])
    width = objective.shape[0]
    # A single (min, max) pair applies to every variable — the backend
    # broadcasts it, which avoids materializing a 2^n-entry bounds list per
    # solve.
    return _backend().solve(
        objective,
        A_ub=_as_array(A_ub, width),
        b_ub=None if b_ub is None else np.asarray(b_ub, dtype=float),
        A_eq=_as_array(A_eq, width),
        b_eq=None if b_eq is None else np.asarray(b_eq, dtype=float),
        bounds=bounds if bounds is not None else (0, None),
    )


@dataclass(frozen=True)
class FeasibilityBlock:
    """One independent feasibility system of a :func:`solve_feasibility_blocks` call.

    The system is ``A_hard x ≤ b_hard`` (enforced exactly) together with
    ``A_soft x ≤ b_soft`` (relaxed by the block's slack variable), over
    ``x ≥ 0``.  In the cone-decision application the hard rows are the cone
    description and the soft rows are the branch rows ``E_ℓ(h) ≤ -margin``.
    """

    num_variables: int
    A_soft: object
    b_soft: Sequence[float]
    A_hard: object = None
    b_hard: Optional[Sequence[float]] = None


@dataclass(frozen=True)
class BlockFeasibilityResult:
    """Per-block outcome of :func:`solve_feasibility_blocks`.

    ``slack`` is the block's optimal slack value: 0 (up to solver tolerance)
    exactly when the block's system is feasible, in which case ``solution``
    is a feasible point of it.  ``rows_used`` is the block's final active
    row count when the block was decided by row generation (``None`` on the
    dense path).

    An infeasible block also carries the duals of the solve that decided
    it, as non-negative multipliers (``-row_dual``), when the solver
    reported them and the call had ``lazy_rows``: ``soft_duals`` for its
    soft rows, in order, and ``lazy_duals`` as ``(lazy row id, multiplier)``
    pairs for its lazy rows with a positive multiplier.  At the optimal
    slack the soft multipliers sum to 1 (the slack's reduced cost is 0), so
    for the cone-decision shape they are the Theorem 6.1 weights ``λ``, and
    the lazy multipliers are the proof ``µ`` of ``Σλ_ℓ E_ℓ`` except for
    what the duals of the bounds ``x ≥ 0`` carry (see
    :meth:`repro.infotheory.shannon.ShannonProver.proof_from_duals`).
    """

    feasible: bool
    solution: Optional[np.ndarray]
    slack: float
    rows_used: Optional[int] = None
    soft_duals: Optional[np.ndarray] = None
    lazy_duals: Optional[Tuple[Tuple[int, float], ...]] = None


def solve_feasibility_blocks(
    blocks: Sequence[FeasibilityBlock],
    slack_threshold: float = 0.5,
    lazy_rows=None,
    rowgen_options=None,
) -> List[BlockFeasibilityResult]:
    """Decide many independent feasibility systems in one call.

    Block ``i`` receives a slack variable ``s_i ≥ 0`` relaxing its soft rows
    to ``A_soft x ≤ b_soft + s_i`` while the hard rows stay exact, and
    ``s_i`` is minimized: ``s_i = 0`` iff block ``i`` is feasible.  Without
    ``lazy_rows``, or on the dense path, the blocks are stacked
    block-diagonally into one HiGHS invocation that minimizes ``Σ_i s_i``;
    they share no variables, so each ``s_i`` is minimized independently
    within the one solve.

    When ``lazy_rows`` is given, every block additionally carries the
    family's implicit homogeneous rows as hard constraints: the dense path
    materializes the full family once and prepends it to each block's
    ``A_hard``, while row generation, which the family takes past
    :data:`repro.lp.rowgen.AUTO_BLOCK_ROW_THRESHOLD` rows, grows a per-block
    active row set through
    :func:`repro.lp.rowgen.solve_feasibility_blocks_lazy`, one warm-started
    model per block.

    For the cone-decision shape (hard rows ``-M h ≤ 0`` describing a cone,
    soft rows ``E_ℓ(h) ≤ -margin``) the optimal slack is exactly 0 or
    ``margin`` — if some cone point makes every ``E_ℓ`` negative, scaling
    drives the values to ``-margin`` with zero slack, and otherwise ``h = 0``
    is optimal with slack ``margin`` — so a ``slack_threshold`` at the
    midpoint (``margin / 2``; the default 0.5 fits the standard margin of 1)
    separates the verdicts robustly.  With ``lazy_rows``, every infeasible
    block's result carries its duals from this solve (see
    :class:`BlockFeasibilityResult`).
    """
    if not blocks:
        return []
    path = _lazy_path(lazy_rows, blocks=True)
    if path == "rowgen":
        from repro.lp.rowgen import solve_feasibility_blocks_lazy

        return solve_feasibility_blocks_lazy(
            blocks,
            lazy_rows,
            slack_threshold,
            options=rowgen_options,
        )
    if path == "dense":
        cone_rows = -lazy_rows.full_matrix()
        blocks = [
            _block_with_hard_rows(block, cone_rows) for block in blocks
        ]
    column_offsets: List[int] = []
    offset = 0
    for block in blocks:
        column_offsets.append(offset)
        offset += block.num_variables
    total_columns = offset + len(blocks)

    data_parts: List[np.ndarray] = []
    row_parts: List[np.ndarray] = []
    column_parts: List[np.ndarray] = []
    rhs_parts: List[np.ndarray] = []
    # Per block: the stacked index of its first hard row and of its soft rows.
    row_starts: List[Tuple[int, int, int]] = []
    row_offset = 0
    for i, block in enumerate(blocks):
        hard_start = row_offset
        slack_column = offset + i
        A_soft = _as_array(block.A_soft, block.num_variables)
        if A_soft is None:
            raise LPError("a feasibility block needs at least one soft row")
        A_soft = sp.coo_matrix(A_soft)
        b_soft = np.asarray(block.b_soft, dtype=float)
        if A_soft.shape[0] != b_soft.shape[0]:
            raise LPError("soft row/rhs shape mismatch in feasibility block")
        A_hard = _as_array(block.A_hard, block.num_variables)
        if A_hard is not None:
            A_hard = sp.coo_matrix(A_hard)
            b_hard = np.asarray(block.b_hard, dtype=float)
            if A_hard.shape[0] != b_hard.shape[0]:
                raise LPError("hard row/rhs shape mismatch in feasibility block")
            data_parts.append(A_hard.data)
            row_parts.append(A_hard.row + row_offset)
            column_parts.append(A_hard.col + column_offsets[i])
            rhs_parts.append(b_hard)
            row_offset += A_hard.shape[0]
        soft_rows = A_soft.shape[0]
        row_starts.append((hard_start, row_offset, soft_rows))
        data_parts.append(A_soft.data)
        row_parts.append(A_soft.row + row_offset)
        column_parts.append(A_soft.col + column_offsets[i])
        # The slack column: one -1 entry per soft row of this block.
        data_parts.append(-np.ones(soft_rows))
        row_parts.append(np.arange(soft_rows) + row_offset)
        column_parts.append(np.full(soft_rows, slack_column))
        rhs_parts.append(b_soft)
        row_offset += soft_rows

    A = sp.csr_matrix(
        (
            np.concatenate(data_parts),
            (np.concatenate(row_parts), np.concatenate(column_parts)),
        ),
        shape=(row_offset, total_columns),
    )
    b = np.concatenate(rhs_parts)
    objective = np.zeros(total_columns)
    objective[offset:] = 1.0

    result = _backend().solve(objective, A_ub=A, b_ub=b, bounds=(0, None))
    if result.status != LPStatus.OPTIMAL:
        # The stacked LP is always feasible (x = 0 with large enough slacks
        # whenever every b_hard ≥ 0) and bounded below by 0.
        raise LPError(f"block feasibility program failed: {result.status}")

    read_duals = lazy_rows is not None and result.row_duals is not None
    outcomes: List[BlockFeasibilityResult] = []
    for i, block in enumerate(blocks):
        slack = float(result.solution[offset + i])
        if slack < slack_threshold:
            start = column_offsets[i]
            solution = np.asarray(
                result.solution[start : start + block.num_variables]
            )
            outcomes.append(
                BlockFeasibilityResult(feasible=True, solution=solution, slack=slack)
            )
            continue
        soft_duals = lazy_duals = None
        if read_duals:
            # The block's first row_count hard rows are the lazy family's
            # rows, in row-id order (see _block_with_hard_rows).
            hard_start, soft_start, soft_rows = row_starts[i]
            soft_duals = -result.row_duals[soft_start : soft_start + soft_rows]
            multipliers = -result.row_duals[hard_start : hard_start + lazy_rows.row_count]
            row_ids = np.flatnonzero(multipliers > 0.0)
            lazy_duals = tuple(zip(row_ids.tolist(), multipliers[row_ids].tolist()))
        outcomes.append(
            BlockFeasibilityResult(
                feasible=False,
                solution=None,
                slack=slack,
                soft_duals=soft_duals,
                lazy_duals=lazy_duals,
            )
        )
    return outcomes


def check_feasibility(
    num_variables: int,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds=None,
    lazy_rows=None,
    rowgen_options=None,
) -> Tuple[bool, Optional[np.ndarray]]:
    """Decide non-emptiness of a polyhedron; return a feasible point if any.

    The objective is identically zero, so any feasible point is optimal.
    ``lazy_rows`` behaves as in :func:`minimize`.
    """
    result = minimize(
        objective=np.zeros(num_variables),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        lazy_rows=lazy_rows,
        rowgen_options=rowgen_options,
    )
    if result.status == LPStatus.OPTIMAL:
        return True, result.solution
    if result.status == LPStatus.INFEASIBLE:
        return False, None
    raise LPError("feasibility problem reported an unbounded objective")
