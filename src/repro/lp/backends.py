"""The LP backend: HiGHS driven directly, with incremental models.

Every LP the library solves goes to HiGHS through its own bindings, driven
by :class:`HighsBackend`.  One :class:`IncrementalModel` stays alive across
cutting-plane rounds: violated cuts enter through ``addRows`` and a
re-solve can warm-start from the incumbent basis.  The bindings come from
the native ``highspy`` package when it is installed and otherwise from the
copy scipy (≥ 1.15) bundles as ``scipy.optimize._highspy._core`` — the
same classes under other names.  They are imported at the first solve, not
when this module loads, so a process that never solves never imports
``scipy.optimize``.

:func:`resolve_backend` returns the one process-wide :class:`HighsBackend`.
Solves return the row duals on :class:`LPResult`, which is how the
certificate loop and the block LP read their multipliers.

Row identity
------------
:class:`IncrementalModel` addresses the rows the loops add by stable,
hashable *keys* (the oracle row ids of the elemental rows);
:meth:`IncrementalModel.keys` lists them in model order, which is the order
of the keyed part of ``row_duals``.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import LPError
from repro.lp.solver import LPResult, LPStatus


def highs_available() -> bool:
    """Whether the native ``highspy`` package imports.

    The backend does not need it (see :func:`_highs_bindings`); this only
    reports which bindings it drives.
    """
    try:
        import highspy  # noqa: F401
    except ImportError:
        return False
    return True


def _highs_bindings():
    """``(Highs, HighsModelStatus, kHighsInf)`` from ``highspy`` or scipy's copy.

    Raises :class:`LPError` when neither imports.
    """
    try:
        import highspy

        return highspy.Highs, highspy.HighsModelStatus, highspy.kHighsInf
    except ImportError:
        pass
    try:
        from scipy.optimize._highspy import _core
    except ImportError as error:
        raise LPError(
            "solving an LP needs HiGHS bindings: scipy >= 1.15 bundles them, "
            "or pip install highspy"
        ) from error
    return _core._Highs, _core.HighsModelStatus, _core.kHighsInf


_SHARED: Optional["HighsBackend"] = None


def resolve_backend(name: str = "auto") -> "HighsBackend":
    """The process-wide :class:`HighsBackend`, built at the first call.

    ``"auto"`` and ``"highs"`` both name it.  Raises :class:`LPError` on any
    other name and when no HiGHS bindings import.
    """
    global _SHARED
    if name not in ("auto", "highs"):
        raise LPError(f"unknown LP backend {name!r}; the one backend is 'highs'")
    if _SHARED is None:
        _SHARED = HighsBackend()
    return _SHARED


def _broadcast_bounds(
    bounds, num_variables: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand the scipy ``bounds`` convention to per-variable lower/upper arrays."""
    if bounds is None:
        bounds = (0, None)
    pairs: Sequence
    if isinstance(bounds, tuple) and len(bounds) == 2 and not isinstance(bounds[0], tuple):
        pairs = [bounds] * num_variables
    else:
        pairs = list(bounds)
        if len(pairs) != num_variables:
            raise LPError("bounds list length does not match the variable count")
    lower = np.array([-np.inf if lo is None else float(lo) for lo, _ in pairs])
    upper = np.array([np.inf if hi is None else float(hi) for _, hi in pairs])
    return lower, upper


class HighsBackend:
    """HiGHS bindings driven directly, with incremental, warm-started models.

    Uses native ``highspy`` when it imports and scipy's bundled copy of the
    same bindings otherwise; raises :class:`LPError` on construction when
    neither is present.
    """

    name = "highs"

    def __init__(self):
        self.Highs, self.HighsModelStatus, self.inf = _highs_bindings()

    def solve(
        self,
        objective,
        A_ub=None,
        b_ub=None,
        A_eq=None,
        b_eq=None,
        bounds=None,
    ) -> LPResult:
        """One-shot minimize ``objective·x`` s.t. ``A_ub x ≤ b_ub``, ``A_eq x = b_eq``.

        ``row_duals`` list the ``A_ub`` rows first, then the ``A_eq`` rows.
        """
        objective = np.asarray(objective, dtype=float)
        model = self.incremental_model(
            objective.shape[0], objective, bounds, A_ub, b_ub
        )
        if A_eq is not None:
            A_eq = sp.csr_matrix(A_eq)
            b_eq = np.asarray(b_eq, dtype=float)
            model._add_rows_raw(A_eq, b_eq, b_eq)
        return model.solve()

    def incremental_model(
        self,
        num_variables: int,
        objective,
        bounds=None,
        A_fixed=None,
        b_fixed=None,
    ) -> "IncrementalModel":
        """A fresh :class:`IncrementalModel` over ``num_variables`` columns."""
        return IncrementalModel(
            self, num_variables, objective, bounds, A_fixed, b_fixed
        )


def _as_csr(matrix, width: int) -> sp.csr_matrix:
    if sp.issparse(matrix):
        return matrix.tocsr()
    array = np.asarray(matrix, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, width)
    return sp.csr_matrix(array)


class IncrementalModel:
    """One HiGHS model kept alive across cutting-plane rounds.

    The model owns ``num_variables`` columns with their bounds and
    objective, optional *fixed* rows (the caller's explicit constraints)
    and the *keyed* rows ``A x ≤ b`` added since, each under a stable,
    hashable key.  HiGHS keeps the incumbent basis across ``addRows`` and
    warm-starts the next ``run`` from it.
    """

    def __init__(self, backend, num_variables, objective, bounds, A_fixed, b_fixed):
        self.backend = backend
        self.num_variables = num_variables
        self.solve_count = 0
        self._keys: List[Hashable] = []
        self._key_set: set = set()
        self._inf = backend.inf
        model = backend.Highs()
        model.setOptionValue("output_flag", False)
        self._model = model
        lower, upper = _broadcast_bounds(bounds, num_variables)
        lower = np.where(np.isneginf(lower), -self._inf, lower)
        upper = np.where(np.isposinf(upper), self._inf, upper)
        objective = np.asarray(objective, dtype=float)
        if objective.shape[0] != num_variables:
            raise LPError("objective length does not match the variable count")
        # Zero-nonzero columns: a full-length (all-zero) starts array keeps
        # every HiGHS version happy, whether or not it dereferences starts
        # when num_new_nz == 0.
        model.addCols(
            num_variables,
            objective.astype(np.float64),
            lower.astype(np.float64),
            upper.astype(np.float64),
            0,
            np.zeros(num_variables, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
        )
        if A_fixed is not None:
            A_fixed = _as_csr(A_fixed, num_variables)
            b_fixed = np.asarray(b_fixed, dtype=float)
            self._add_rows_raw(A_fixed, None, b_fixed)

    # -- key bookkeeping ------------------------------------------------ #
    def keys(self) -> Tuple[Hashable, ...]:
        """The keyed rows in model order."""
        return tuple(self._keys)

    def _register(self, keys: Sequence[Hashable]) -> None:
        for key in keys:
            if key in self._key_set:
                raise LPError(f"row key {key!r} is already in the model")
            self._key_set.add(key)
            self._keys.append(key)

    # -- raw row plumbing ------------------------------------------------ #
    def _add_rows_raw(self, matrix: sp.csr_matrix, lower, upper) -> None:
        """Append rows with the given bounds (``None`` = unbounded on that side)."""
        rows = matrix.shape[0]
        if rows == 0:
            return
        if lower is None:
            lower = np.full(rows, -self._inf)
        if upper is None:
            upper = np.full(rows, self._inf)
        self._model.addRows(
            rows,
            np.asarray(lower, dtype=np.float64),
            np.asarray(upper, dtype=np.float64),
            int(matrix.nnz),
            matrix.indptr[:-1].astype(np.int32),
            matrix.indices.astype(np.int32),
            matrix.data.astype(np.float64),
        )

    # -- interface ------------------------------------------------------ #
    def add_rows(self, keys: Sequence[Hashable], matrix, rhs=None) -> None:
        """Add keyed rows ``matrix x ≤ rhs`` (``rhs=None`` means all zeros)."""
        matrix = _as_csr(matrix, self.num_variables)
        if matrix.shape[0] != len(keys):
            raise LPError("row-key/matrix shape mismatch")
        rhs = np.zeros(matrix.shape[0]) if rhs is None else np.asarray(rhs, dtype=float)
        self._register(keys)
        self._add_rows_raw(matrix, None, rhs)

    def solve(self, warm: bool = True) -> LPResult:
        """Re-solve the current model.

        With ``warm`` the solve starts from the incumbent basis; otherwise
        the solver state is cleared first, which is a cold solve of the same
        model.  An optimal result carries ``row_duals``: the fixed rows
        first, then the keyed rows in :meth:`keys` order.  Binding ``≤``
        rows of the minimization get non-positive duals, so ``-row_duals``
        are the non-negative multipliers of the rows.
        """
        if not warm:
            self._model.clearSolver()
        self._model.run()
        self.solve_count += 1
        status = self._model.getModelStatus()
        HighsModelStatus = self.backend.HighsModelStatus
        if status == HighsModelStatus.kUnboundedOrInfeasible:
            # Disambiguate the way scipy does: re-solve without presolve.
            self._model.setOptionValue("presolve", "off")
            self._model.clearSolver()
            self._model.run()
            status = self._model.getModelStatus()
            self._model.setOptionValue("presolve", "choose")
        if status == HighsModelStatus.kOptimal:
            solution = self._model.getSolution()
            return LPResult(
                status=LPStatus.OPTIMAL,
                objective=float(self._model.getObjectiveValue()),
                solution=np.array(solution.col_value),
                row_duals=np.array(solution.row_dual) if solution.dual_valid else None,
            )
        if status == HighsModelStatus.kInfeasible:
            return LPResult(status=LPStatus.INFEASIBLE, objective=None, solution=None)
        if status == HighsModelStatus.kUnbounded:
            return LPResult(status=LPStatus.UNBOUNDED, objective=None, solution=None)
        raise LPError(f"HiGHS solve failed with model status {status}")


__all__ = [
    "HighsBackend",
    "IncrementalModel",
    "highs_available",
    "resolve_backend",
]
