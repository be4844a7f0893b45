"""Solver backends: HiGHS driven incrementally, or through scipy's ``linprog``.

Every LP the library solves reaches HiGHS, in one of two ways:

* :class:`HighsBackend` — HiGHS's own bindings driven directly.  One
  :class:`IncrementalModel` stays alive across cutting-plane rounds:
  violated cuts enter through ``addRows`` and a re-solve can warm-start
  from the incumbent basis.  The bindings come from the native ``highspy``
  package when it is installed and otherwise from the copy scipy (≥ 1.15)
  bundles as ``scipy.optimize._highspy._core`` — the same classes under
  other names — so the backend runs on every install.
* :class:`ScipyBackend` — :func:`scipy.optimize.linprog` with
  ``method="highs"``.  Stateless: every solve builds a fresh HiGHS model,
  so its :class:`IncrementalModel` keeps the keyed rows in Python and
  re-solves them from scratch each round.  The tests use it as the
  reference the ``highs`` backend is checked against.

The ``backend`` knob accepted by every LP entry point takes ``"auto"`` (the
default everywhere: ``"highs"``, or ``"scipy"`` on an install with no HiGHS
bindings at all), ``"highs"`` or ``"scipy"``.  Both backends return the
solve's row duals on :class:`LPResult`, which is how the certificate loop
reads its multipliers off the last probe.

Row identity
------------
:class:`IncrementalModel` addresses the rows the loops add by stable,
hashable *keys* (the oracle row ids of the elemental rows);
:meth:`IncrementalModel.keys` lists them in model order, which is the order
of the keyed part of ``row_duals``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.exceptions import LPError
from repro.lp.solver import LPResult, LPStatus

#: Names accepted by every ``backend`` knob.
BACKEND_NAMES = ("auto", "scipy", "highs")


def highs_available() -> bool:
    """Whether the native ``highspy`` package imports.

    The ``highs`` backend does not need it (see :func:`_highs_bindings`);
    this only reports which bindings it drives.
    """
    try:
        import highspy  # noqa: F401
    except ImportError:
        return False
    return True


def _highs_bindings():
    """``(Highs, HighsModelStatus, kHighsInf)`` from ``highspy`` or scipy's copy.

    Raises :class:`LPError` when neither imports; the ``highs`` backend never
    switches to ``linprog`` itself (only ``"auto"`` resolves to it then).
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
            "the 'highs' LP backend needs HiGHS bindings: scipy >= 1.15 bundles "
            "them, or pip install highspy; backend='scipy' solves through linprog"
        ) from error
    return _core._Highs, _core.HighsModelStatus, _core.kHighsInf


def validate_backend_name(name: str) -> str:
    """Check a ``backend`` knob value; returns it unchanged."""
    if name not in BACKEND_NAMES:
        raise LPError(
            f"unknown LP backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def resolve_backend(backend) -> "LPBackend":
    """Resolve a ``backend`` knob (name, instance or ``None``) to an instance.

    ``None`` and ``"auto"`` pick :class:`HighsBackend`, or
    :class:`ScipyBackend` on an install with no HiGHS bindings at all
    (scipy < 1.15 without ``highspy``).  An explicit ``"highs"`` raises there
    instead.
    """
    if isinstance(backend, LPBackend):
        return backend
    if backend is None:
        backend = "auto"
    validate_backend_name(backend)
    return _backend_instance(backend)


_INSTANCES: Dict[str, "LPBackend"] = {}


def _backend_instance(name: str) -> "LPBackend":
    instance = _INSTANCES.get(name)
    if instance is None:
        if name == "scipy":
            instance = ScipyBackend()
        elif name == "highs":
            instance = HighsBackend()
        else:
            try:
                instance = _backend_instance("highs")
            except LPError:
                instance = _backend_instance("scipy")
        _INSTANCES[name] = instance
    return instance


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


class LPBackend:
    """Interface of one solver backend (see the module docstring)."""

    #: Knob name this backend answers to.
    name = "backend"

    def solve(
        self,
        objective,
        A_ub=None,
        b_ub=None,
        A_eq=None,
        b_eq=None,
        bounds=None,
    ) -> LPResult:
        """One-shot minimize ``objective·x`` s.t. ``A_ub x ≤ b_ub``, ``A_eq x = b_eq``."""
        raise NotImplementedError

    def incremental_model(
        self,
        num_variables: int,
        objective,
        bounds=None,
        A_fixed=None,
        b_fixed=None,
    ) -> "IncrementalModel":
        """A fresh :class:`IncrementalModel` over ``num_variables`` columns."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------- #
# scipy
# --------------------------------------------------------------------- #
class ScipyBackend(LPBackend):
    """:func:`scipy.optimize.linprog` with ``method="highs"``: a fresh model per solve."""

    name = "scipy"

    def solve(
        self,
        objective,
        A_ub=None,
        b_ub=None,
        A_eq=None,
        b_eq=None,
        bounds=None,
    ) -> LPResult:
        result = linprog(
            c=np.asarray(objective, dtype=float),
            A_ub=A_ub,
            b_ub=None if b_ub is None else np.asarray(b_ub, dtype=float),
            A_eq=A_eq,
            b_eq=None if b_eq is None else np.asarray(b_eq, dtype=float),
            bounds=bounds if bounds is not None else (0, None),
            method="highs",
        )
        if result.status == 0:
            return LPResult(
                status=LPStatus.OPTIMAL,
                objective=float(result.fun),
                solution=result.x,
                row_duals=np.concatenate(
                    [result.ineqlin.marginals, result.eqlin.marginals]
                ),
            )
        if result.status == 2:
            return LPResult(status=LPStatus.INFEASIBLE, objective=None, solution=None)
        if result.status == 3:
            return LPResult(status=LPStatus.UNBOUNDED, objective=None, solution=None)
        raise LPError(f"linear program failed: {result.message}")

    def incremental_model(
        self,
        num_variables: int,
        objective,
        bounds=None,
        A_fixed=None,
        b_fixed=None,
    ) -> "IncrementalModel":
        return _ScipyIncrementalModel(
            self, num_variables, objective, bounds, A_fixed, b_fixed
        )


# --------------------------------------------------------------------- #
# HiGHS
# --------------------------------------------------------------------- #
class HighsBackend(LPBackend):
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
        objective = np.asarray(objective, dtype=float)
        model = _HighsIncrementalModel(
            self, objective.shape[0], objective, bounds, A_ub, b_ub
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
        return _HighsIncrementalModel(
            self, num_variables, objective, bounds, A_fixed, b_fixed
        )


# --------------------------------------------------------------------- #
# Incremental models
# --------------------------------------------------------------------- #
class IncrementalModel:
    """One LP kept alive across cutting-plane rounds.

    The model owns ``num_variables`` columns with fixed bounds, a mutable
    objective, optional *fixed* rows (the caller's explicit constraints)
    and the *keyed* rows ``A x ≤ b`` added since, each under a stable,
    hashable key.
    """

    def __init__(self, backend: LPBackend, num_variables: int):
        self.backend = backend
        self.num_variables = num_variables
        self.solve_count = 0
        self._keys: List[Hashable] = []
        self._key_set: set = set()

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

    # -- interface ------------------------------------------------------ #
    def set_objective(self, objective) -> None:
        raise NotImplementedError

    def add_rows(self, keys: Sequence[Hashable], matrix, rhs=None) -> None:
        """Add keyed rows ``matrix x ≤ rhs`` (``rhs=None`` means all zeros)."""
        raise NotImplementedError

    def solve(self, warm: bool = True) -> LPResult:
        """Re-solve the current model.

        With ``warm`` the solve starts from the incumbent basis when the
        backend keeps one (``highs``); otherwise it starts from scratch.
        An optimal result carries ``row_duals``: the fixed rows first, then
        the keyed rows in :meth:`keys` order.  Binding ``≤`` rows of the
        minimization get non-positive duals, so ``-row_duals`` are the
        non-negative multipliers of the rows.
        """
        raise NotImplementedError


def _as_csr(matrix, width: int) -> sp.csr_matrix:
    if sp.issparse(matrix):
        return matrix.tocsr()
    array = np.asarray(matrix, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, width)
    return sp.csr_matrix(array)


class _ScipyIncrementalModel(IncrementalModel):
    """Keyed-row model re-solved from scratch through ``linprog`` each round."""

    def __init__(self, backend, num_variables, objective, bounds, A_fixed, b_fixed):
        super().__init__(backend, num_variables)
        self._objective = np.asarray(objective, dtype=float)
        self._bounds = bounds if bounds is not None else (0, None)
        if A_fixed is not None:
            self._A_fixed = _as_csr(A_fixed, num_variables)
            self._b_fixed = np.asarray(b_fixed, dtype=float)
        else:
            self._A_fixed = None
            self._b_fixed = None
        self._A_keyed: Optional[sp.csr_matrix] = None
        self._b_keyed = np.empty(0)

    def set_objective(self, objective) -> None:
        objective = np.asarray(objective, dtype=float)
        if objective.shape[0] != self.num_variables:
            raise LPError("objective length does not match the variable count")
        self._objective = objective

    def add_rows(self, keys, matrix, rhs=None) -> None:
        matrix = _as_csr(matrix, self.num_variables)
        if matrix.shape[0] != len(keys):
            raise LPError("row-key/matrix shape mismatch")
        rhs = np.zeros(matrix.shape[0]) if rhs is None else np.asarray(rhs, dtype=float)
        self._register(keys)
        if self._A_keyed is None:
            self._A_keyed = matrix
            self._b_keyed = rhs
        else:
            self._A_keyed = sp.vstack([self._A_keyed, matrix], format="csr")
            self._b_keyed = np.concatenate([self._b_keyed, rhs])

    def solve(self, warm: bool = True) -> LPResult:
        parts_A = []
        parts_b = []
        if self._A_fixed is not None:
            parts_A.append(self._A_fixed)
            parts_b.append(self._b_fixed)
        if self._A_keyed is not None and self._A_keyed.shape[0]:
            parts_A.append(self._A_keyed)
            parts_b.append(self._b_keyed)
        A_ub = sp.vstack(parts_A, format="csr") if parts_A else None
        b_ub = np.concatenate(parts_b) if parts_b else None
        self.solve_count += 1
        return self.backend.solve(
            self._objective, A_ub=A_ub, b_ub=b_ub, bounds=self._bounds
        )


class _HighsIncrementalModel(IncrementalModel):
    """A persistent HiGHS model modified in place between solves.

    HiGHS keeps the incumbent basis across ``addRows``/``changeColsCost``
    modifications and warm-starts the next ``run`` from it — the basis
    hand-off scipy's ``linprog`` does not expose.  ``solve(warm=False)``
    clears the solver state first, which is a cold solve of the same model.
    """

    def __init__(self, backend, num_variables, objective, bounds, A_fixed, b_fixed):
        super().__init__(backend, num_variables)
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

    def set_objective(self, objective) -> None:
        objective = np.asarray(objective, dtype=np.float64)
        if objective.shape[0] != self.num_variables:
            raise LPError("objective length does not match the variable count")
        self._model.changeColsCost(
            self.num_variables,
            np.arange(self.num_variables, dtype=np.int32),
            objective,
        )

    def add_rows(self, keys, matrix, rhs=None) -> None:
        matrix = _as_csr(matrix, self.num_variables)
        if matrix.shape[0] != len(keys):
            raise LPError("row-key/matrix shape mismatch")
        rhs = np.zeros(matrix.shape[0]) if rhs is None else np.asarray(rhs, dtype=float)
        self._register(keys)
        self._add_rows_raw(matrix, None, rhs)

    def solve(self, warm: bool = True) -> LPResult:
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
    "BACKEND_NAMES",
    "HighsBackend",
    "IncrementalModel",
    "LPBackend",
    "ScipyBackend",
    "highs_available",
    "resolve_backend",
    "validate_backend_name",
]
