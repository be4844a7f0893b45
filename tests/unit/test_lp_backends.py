"""The LP backend: the shared HiGHS instance, incremental models, seeds.

Three concerns are locked down here, all runnable without the native
``highspy`` package:

* the shared backend — it drives the HiGHS bindings scipy bundles when
  ``highspy`` is absent (a scipy release that moves or trims that private
  module fails here, not silently elsewhere), and the first solve raises
  where no HiGHS bindings import at all; names other than ``"auto"`` and
  ``"highs"`` are rejected;
* the incremental models the loops drive — keyed rows, row duals in
  fixed-then-keyed order (checked against the one-shot ``linprog`` oracle
  of ``tests/linprog_oracle.py``), warm and cold re-solves, and which loops
  re-solve cold;
* the Eq. (8)-aware ``seed="containment"`` row set — bit-exact against a
  brute-force ``|K| ≤ 1`` enumeration of the elemental inequalities at
  ``n ≤ 5``, and never needing more cutting-plane rounds than the generic
  seed on containment-shaped instances.
"""

from __future__ import annotations

import sys

import linprog_oracle
import numpy as np
import pytest
import scipy.sparse as sp
from lp_paths import pin_path

from repro.cq.parser import parse_query
from repro.cq.reductions import to_boolean_pair
from repro.core.containment import containment_pipeline
from repro.core.containment_inequality import build_containment_inequality
from repro.exceptions import LPError
from repro.infotheory.polymatroid import elemental_inequalities
from repro.infotheory.shannon import shannon_prover
from repro.lp import backends
from repro.lp.backends import HighsBackend, highs_available, resolve_backend
from repro.lp.rowgen import RowGenOptions, minimize_lazy, shannon_row_oracle
from repro.lp.solver import (
    FeasibilityBlock,
    LPStatus,
    check_feasibility,
    minimize,
    solve_feasibility_blocks,
)
from repro.utils.lattice import lattice_context

GROUNDS = {n: tuple(f"X{i}" for i in range(1, n + 1)) for n in range(2, 6)}


# --------------------------------------------------------------------- #
# Resolution and gating
# --------------------------------------------------------------------- #
#: Every method :class:`~repro.lp.backends.IncrementalModel` calls on its
#: HiGHS object.
HIGHS_MODEL_METHODS = (
    "setOptionValue",
    "addCols",
    "addRows",
    "clearSolver",
    "run",
    "getModelStatus",
    "getSolution",
    "getObjectiveValue",
)


@pytest.fixture
def without_highspy(monkeypatch):
    """Block the native ``highspy`` import, with no shared backend built yet."""
    monkeypatch.setitem(sys.modules, "highspy", None)
    monkeypatch.setattr(backends, "_SHARED", None)


def test_auto_resolves_to_highs_without_highspy(without_highspy):
    from scipy.optimize._highspy import _core

    assert not highs_available()
    backend = resolve_backend("auto")
    assert backend.name == "highs"
    assert backend.Highs is _core._Highs
    assert resolve_backend() is resolve_backend("highs") is backend


def test_bundled_core_has_every_method_the_model_calls():
    from scipy.optimize._highspy import _core

    missing = [name for name in HIGHS_MODEL_METHODS if not hasattr(_core._Highs, name)]
    assert not missing, f"scipy's bundled HiGHS lacks {missing}"
    for status in ("kOptimal", "kInfeasible", "kUnbounded", "kUnboundedOrInfeasible"):
        assert hasattr(_core.HighsModelStatus, status)
    assert _core.kHighsInf == np.inf


def test_bundled_core_runs_a_keyed_model_warm_with_row_duals(without_highspy):
    from scipy.optimize._highspy import _core

    backend = HighsBackend()
    assert backend.Highs is _core._Highs
    # min x0 + x1 over x >= 0 with keyed rows x0 >= 1, then x1 >= 2.
    model = backend.incremental_model(2, np.ones(2), bounds=(0, None))
    model.add_rows(["a"], _unit_row(2, 0, -1.0), rhs=[-1.0])
    first = model.solve()
    assert first.status == LPStatus.OPTIMAL
    assert first.objective == pytest.approx(1.0)
    model.add_rows(["b"], _unit_row(2, 1, -1.0), rhs=[-2.0])
    # HiGHS keeps the optimal basis across the row addition: the next run
    # starts from it.
    assert model._model.getBasis().valid
    second = model.solve()
    assert second.objective == pytest.approx(3.0)
    np.testing.assert_allclose(second.solution, [1.0, 2.0], atol=1e-9)
    # Both rows bind with multiplier 1: row duals are -1, in key order.
    np.testing.assert_allclose(second.row_duals, [-1.0, -1.0], atol=1e-9)
    assert model.keys() == ("a", "b")
    assert model.solve_count == 2


def test_bundled_core_reports_infeasible_and_unbounded(without_highspy):
    backend = HighsBackend()
    assert backend.solve([1.0], A_ub=[[1.0]], b_ub=[-1.0]).status == LPStatus.INFEASIBLE
    assert backend.solve([-1.0]).status == LPStatus.UNBOUNDED


@pytest.fixture
def without_any_bindings(without_highspy, monkeypatch):
    """An install like scipy < 1.15 without ``highspy``: no HiGHS bindings."""
    import scipy.optimize._highspy as bundled

    monkeypatch.delattr(bundled, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)


def test_highs_without_any_bindings_raises(without_any_bindings):
    with pytest.raises(LPError, match="HiGHS bindings"):
        HighsBackend()
    with pytest.raises(LPError, match="HiGHS bindings"):
        resolve_backend("highs")


def test_first_solve_without_any_bindings_raises(without_any_bindings):
    # The bindings are imported at the first solve, not with the package.
    with pytest.raises(LPError, match="HiGHS bindings"):
        minimize([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])


def test_unknown_backend_name_rejected():
    for name in ("glpk", "scipy"):
        with pytest.raises(LPError, match="unknown LP backend"):
            resolve_backend(name)


def test_backend_instances_are_shared():
    assert resolve_backend() is resolve_backend("auto") is resolve_backend("highs")


# --------------------------------------------------------------------- #
# One-shot solves, against the linprog oracle
# --------------------------------------------------------------------- #
def test_one_shot_solve_matches_linprog():
    # min x0 + x1  s.t.  -x0 - x1 <= -1, x >= 0
    problem = dict(objective=[1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    result = resolve_backend().solve(**problem)
    reference = linprog_oracle.solve(**problem)
    assert result.status == reference.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(reference.objective) == 1.0


def test_one_shot_row_duals_list_inequalities_first():
    # min x0 + 2·x1  s.t.  x0 + x1 >= 1 (as -x0 - x1 <= -1), x0 = 0.25.
    problem = dict(
        objective=[1.0, 2.0],
        A_ub=[[-1.0, -1.0]],
        b_ub=[-1.0],
        A_eq=[[1.0, 0.0]],
        b_eq=[0.25],
    )
    result = resolve_backend().solve(**problem)
    assert result.objective == pytest.approx(1.75)
    np.testing.assert_allclose(result.row_duals, [-2.0, -1.0], atol=1e-9)
    np.testing.assert_allclose(
        result.row_duals, linprog_oracle.solve(**problem).row_duals, atol=1e-9
    )


def test_one_shot_statuses_match_linprog():
    for problem, status in (
        (dict(objective=[1.0], A_ub=[[1.0]], b_ub=[-1.0]), LPStatus.INFEASIBLE),
        (dict(objective=[-1.0]), LPStatus.UNBOUNDED),
    ):
        assert resolve_backend().solve(**problem).status == status
        assert linprog_oracle.solve(**problem).status == status


# --------------------------------------------------------------------- #
# Incremental-model row identity mapping
# --------------------------------------------------------------------- #
def _unit_row(width, column, value=1.0):
    return sp.csr_matrix(([value], ([0], [column])), shape=(1, width))


def _model(width=4):
    return resolve_backend().incremental_model(width, np.ones(width), bounds=(0, None))


def test_keyed_rows_solve_in_key_order():
    """A warm model grown row by row agrees with one stacked linprog solve."""
    model = _model(width=3)
    added = []
    # Row "c<i>" is the distinctive constraint x_i >= i + 1.
    for i in (2, 0):
        row, rhs = _unit_row(3, i, -1.0), [-(i + 1.0)]
        model.add_rows([f"c{i}"], row, rhs=rhs)
        added.append((row, rhs))
        result = model.solve()
        reference = linprog_oracle.solve_stacked(np.ones(3), (0, None), added)
        assert result.status == reference.status == LPStatus.OPTIMAL
        assert result.objective == pytest.approx(reference.objective, abs=1e-9)
        np.testing.assert_allclose(result.row_duals, reference.row_duals, atol=1e-9)
    assert model.keys() == ("c2", "c0")
    np.testing.assert_allclose(result.solution, [1.0, 0.0, 3.0], atol=1e-9)
    np.testing.assert_allclose(result.row_duals, [-1.0, -1.0], atol=1e-9)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_keyed_row_model_matches_linprog_as_rows_arrive(warm):
    """Fixed rows, then keyed batches: every re-solve agrees with the oracle.

    ``min c·x`` over ``A x ≤ b, x ≥ 0`` with ``c ≥ 0`` is never unbounded,
    and random rows make some models infeasible.  Duals of degenerate
    optima are not unique, so an optimal solve is checked by its own dual
    certificate over the rows stacked fixed-then-keyed: ``y ≤ 0``,
    ``Aᵀy ≤ c`` and ``y·b`` equal to the objective.
    """
    rng = np.random.default_rng(11)
    width = 5
    statuses = set()
    for _ in range(8):
        objective = rng.integers(0, 4, size=width).astype(float)
        fixed = (rng.integers(-1, 3, size=(2, width)).astype(float), rng.uniform(-2, 3, size=2))
        model = resolve_backend().incremental_model(
            width, objective, bounds=(0, None), A_fixed=fixed[0], b_fixed=fixed[1]
        )
        parts = [fixed]
        for batch in range(3):
            rows = rng.integers(-1, 3, size=(2, width)).astype(float)
            rhs = rng.uniform(-2, 3, size=2)
            model.add_rows([(batch, 0), (batch, 1)], rows, rhs=rhs)
            parts.append((rows, rhs))
            result = model.solve(warm=warm)
            reference = linprog_oracle.solve_stacked(objective, (0, None), parts)
            assert result.status == reference.status
            statuses.add(result.status)
            if result.status != LPStatus.OPTIMAL:
                continue
            assert result.objective == pytest.approx(reference.objective, abs=1e-7)
            A = np.vstack([p[0] for p in parts])
            b = np.concatenate([p[1] for p in parts])
            y = result.row_duals
            assert y.shape == (A.shape[0],) and np.all(y <= 1e-9)
            assert np.all(A.T @ y <= objective + 1e-7)
            assert y @ b == pytest.approx(result.objective, abs=1e-7)
    assert statuses == {LPStatus.OPTIMAL, LPStatus.INFEASIBLE}


def test_duplicate_key_rejected():
    model = _model(width=2)
    model.add_rows(["a"], _unit_row(2, 0))
    with pytest.raises(LPError, match="already in the model"):
        model.add_rows(["a"], _unit_row(2, 1))


def test_row_key_matrix_shape_mismatch_rejected():
    model = _model(width=2)
    with pytest.raises(LPError, match="mismatch"):
        model.add_rows(["a", "b"], _unit_row(2, 0))


# --------------------------------------------------------------------- #
# The incremental loop end to end
# --------------------------------------------------------------------- #
def _invalid_pair_objective(ground):
    """``h(1) + h(2) - 1.5·h(12)``, whose Γn minimum over the slice is -0.5."""
    from repro.infotheory.expressions import LinearExpression

    prover = shannon_prover(ground)
    expression = LinearExpression(
        ground=ground,
        coefficients={
            frozenset({ground[0]}): 1.0,
            frozenset({ground[1]}): 1.0,
            frozenset({ground[0], ground[1]}): -1.5,
        },
    )
    return prover.expression_vector(expression)


def _gamma_minimum(objective, ground):
    """The linprog oracle's ``min objective·h`` over ``Γn`` in the box ``[0, 1]``."""
    cone = -lattice_context(ground).elemental_matrix()
    reference = linprog_oracle.solve(
        objective, A_ub=cone, b_ub=np.zeros(cone.shape[0]), bounds=(0, 1)
    )
    assert reference.status == LPStatus.OPTIMAL
    return reference.objective


@pytest.mark.parametrize("n", [3, 4, 5])
def test_incremental_loop_matches_dense_optimum(n):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    incremental = minimize_lazy(objective, oracle, bounds=(0, 1))
    assert incremental.status == LPStatus.OPTIMAL
    assert incremental.objective == pytest.approx(_gamma_minimum(objective, ground), abs=1e-8)


def _run_loop(loop, ground):
    """Drive one cutting-plane loop over the invalid-pair objective (pin ``rowgen``)."""
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    if loop == "minimize":
        minimize_lazy(objective, oracle, bounds=(0, 1))
    elif loop == "feasibility":
        check_feasibility(
            objective.shape[0],
            A_ub=objective[np.newaxis, :],
            b_ub=[-1.0],
            lazy_rows=oracle,
        )
    elif loop == "blocks":
        block = FeasibilityBlock(
            num_variables=objective.shape[0],
            A_soft=objective[np.newaxis, :],
            b_soft=np.array([-1.0]),
        )
        solve_feasibility_blocks([block], lazy_rows=oracle)
    else:
        # I(X1;X2|X3X4) ≥ 0 needs cuts beyond the seed, so the probe re-solves.
        from repro.infotheory.expressions import LinearExpression

        cmi = LinearExpression(
            ground=ground,
            coefficients={
                frozenset(ground[:1] + ground[2:]): 1.0,
                frozenset(ground[1:]): 1.0,
                frozenset(ground): -1.0,
                frozenset(ground[2:]): -1.0,
            },
        )
        prover = shannon_prover(ground)
        assert prover.certificate(cmi) is not None


@pytest.mark.parametrize(
    "loop,warm",
    [
        ("minimize", False),
        ("feasibility", False),
        ("blocks", True),
        ("certificate", True),
    ],
)
def test_loop_re_solve_policy(monkeypatch, loop, warm):
    """Which loops re-solve warm.

    The minimization loop (which feasibility runs through) re-solves cold:
    warm dual simplex stalled on its ``n = 12`` relaxations.  The block and
    certificate loops re-solve warm.
    """
    solve = backends.IncrementalModel.solve
    warm_flags = []

    def recording(self, warm=True):
        warm_flags.append(warm)
        return solve(self, warm)

    monkeypatch.setattr(backends.IncrementalModel, "solve", recording)
    with pin_path("rowgen"):
        _run_loop(loop, GROUNDS[4])
    assert len(warm_flags) > 1
    assert set(warm_flags) == {warm}


# --------------------------------------------------------------------- #
# The highspy adapter against a faithful fake of the bindings
# --------------------------------------------------------------------- #
class _FakeHighsModelStatus:
    kOptimal = "optimal"
    kInfeasible = "infeasible"
    kUnbounded = "unbounded"
    kUnboundedOrInfeasible = "unbounded-or-infeasible"


class _FakeHighs:
    """The slice of the ``highspy.Highs`` API the backend drives.

    Rows and columns accumulate exactly as HiGHS stores them; ``run`` delegates to ``linprog`` so solutions and
    row duals are real.  The instance counts runs so warm/cold behaviour is
    observable.
    """

    def __init__(self):
        self.cost = np.empty(0)
        self.col_lower = np.empty(0)
        self.col_upper = np.empty(0)
        self.rows = []  # (lower, upper, {col: value})
        self.options = {}
        self.runs = 0
        self.solver_cleared = 0
        self._solution = None
        self._row_dual = None
        self._objective = None
        self._status = None

    def setOptionValue(self, name, value):
        self.options[name] = value

    def addCols(self, num, cost, lower, upper, nnz, starts, indices, values):
        assert nnz == 0 and len(starts) >= 0
        self.cost = np.concatenate([self.cost, np.asarray(cost, dtype=float)])
        self.col_lower = np.concatenate([self.col_lower, np.asarray(lower, dtype=float)])
        self.col_upper = np.concatenate([self.col_upper, np.asarray(upper, dtype=float)])

    def addRows(self, num, lower, upper, nnz, starts, indices, values):
        starts = list(starts) + [nnz]
        for r in range(num):
            entries = {
                int(indices[k]): float(values[k])
                for k in range(starts[r], starts[r + 1])
            }
            self.rows.append((float(lower[r]), float(upper[r]), entries))

    def clearSolver(self):
        self.solver_cleared += 1

    def run(self):
        from scipy.optimize import linprog

        self.runs += 1
        width = self.cost.shape[0]
        A_ub, b_ub, sides = [], [], []
        for r, (lower, upper, entries) in enumerate(self.rows):
            dense = np.zeros(width)
            for column, value in entries.items():
                dense[column] = value
            if np.isfinite(upper):
                A_ub.append(dense)
                b_ub.append(upper)
                sides.append((r, 1.0))
            if np.isfinite(lower):
                A_ub.append(-dense)
                b_ub.append(-lower)
                sides.append((r, -1.0))
        bounds = list(zip(self.col_lower, self.col_upper))
        result = linprog(
            c=self.cost,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            bounds=bounds,
            method="highs",
        )
        status = _FakeHighsModelStatus
        if result.status == 0:
            self._status = status.kOptimal
            self._solution = result.x
            self._objective = float(result.fun)
            # A HiGHS row dual is the upper side's marginal minus the lower's.
            self._row_dual = np.zeros(len(self.rows))
            for (r, sign), marginal in zip(sides, result.ineqlin.marginals):
                self._row_dual[r] += sign * marginal
        elif result.status == 2:
            self._status = status.kInfeasible
        elif result.status == 3:
            self._status = status.kUnbounded
        else:  # pragma: no cover - defensive
            raise AssertionError(result.message)

    def getModelStatus(self):
        return self._status

    def getSolution(self):
        class _Solution:
            col_value = self._solution
            row_dual = self._row_dual
            dual_valid = True

        return _Solution()

    def getObjectiveValue(self):
        return self._objective


@pytest.fixture
def fake_highspy(monkeypatch):
    """The fake as ``highspy``, bound to a fresh shared backend at first use."""
    import types

    module = types.ModuleType("highspy")
    module.kHighsInf = np.inf
    module.HighsModelStatus = _FakeHighsModelStatus
    module.Highs = _FakeHighs
    monkeypatch.setitem(sys.modules, "highspy", module)
    monkeypatch.setattr(backends, "_SHARED", None)
    return module


def test_highs_backend_runs_the_incremental_loop_on_the_fake(fake_highspy):
    ground = GROUNDS[4]
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    result = minimize_lazy(objective, oracle, bounds=(0, 1))
    assert resolve_backend().Highs is _FakeHighs
    assert result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(_gamma_minimum(objective, ground), abs=1e-8)


def test_highs_model_row_duals_list_fixed_rows_first(fake_highspy):
    backend = HighsBackend()
    fixed = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
    model = backend.incremental_model(
        2, np.ones(2), bounds=(0, None), A_fixed=fixed, b_fixed=[5.0, 5.0]
    )
    highs = model._model
    model.add_rows(["a", "b"], sp.csr_matrix(np.array([[-1.0, 0.0], [0.0, -1.0]])), rhs=[-1.0, -2.0])
    assert len(highs.rows) == 4
    assert highs.rows[3][2] == {1: -1.0}
    result = model.solve()
    np.testing.assert_allclose(result.solution, [1.0, 2.0], atol=1e-9)
    # Fixed rows first, then keyed rows "a" and "b", which both bind.
    np.testing.assert_allclose(result.row_duals, [0.0, 0.0, -1.0, -1.0], atol=1e-9)


def test_highs_model_cold_solve_clears_state(fake_highspy):
    backend = HighsBackend()
    model = backend.incremental_model(2, np.ones(2), bounds=(0, None))
    model.solve()
    assert model._model.solver_cleared == 0
    model.solve(warm=False)
    assert model._model.solver_cleared == 1


def test_highs_one_shot_solve_with_equalities(fake_highspy):
    backend = HighsBackend()
    # min x0 s.t. x0 + x1 = 1, x >= 0  →  x0 = 0.
    result = backend.solve(
        [1.0, 0.0], A_eq=np.array([[1.0, 1.0]]), b_eq=[1.0]
    )
    assert result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(0.0)


# --------------------------------------------------------------------- #
# seed="containment" (Eq. (8)-aware seeding)
# --------------------------------------------------------------------- #
def _context_of(inequality):
    """The context ``K`` of a submodularity row ``I(i;j|K) ≥ 0``."""
    positive = [set(subset) for subset, coeff in inequality.coefficients if coeff > 0]
    assert len(positive) == 2
    return positive[0] & positive[1]


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_containment_seed_bit_exact_against_bruteforce(n):
    """The seed ids are exactly the brute-force ``|K| ≤ 1`` enumeration."""
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    expected = [
        row_id
        for row_id, inequality in enumerate(elemental_inequalities(ground))
        if inequality.kind == "monotonicity" or len(_context_of(inequality)) <= 1
    ]
    seed = oracle.containment_seed_ids()
    assert seed.tolist() == expected
    # And the materialized rows are bit-for-bit the dense matrix's rows.
    dense = lattice_context(ground).elemental_matrix()
    difference = oracle.rows_matrix(seed) - dense[np.asarray(expected)]
    assert difference.nnz == 0


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_containment_seed_size(n):
    oracle = shannon_row_oracle(GROUNDS[n])
    pairs = n * (n - 1) // 2
    assert oracle.containment_seed_ids().shape[0] == n + pairs * min(
        n - 1, 1 << max(n - 2, 0)
    )


def test_unknown_seed_name_rejected():
    oracle = shannon_row_oracle(GROUNDS[3])
    with pytest.raises(LPError, match="unknown rowgen seed"):
        oracle.seed_ids_for("exotic")


EQ8_PAIRS = [
    ("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)"),
    ("R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x1)", "R(a,b), R(b,c)"),
    ("R(x,y), R(y,z)", "R(a,b), R(b,c)"),
]


@pytest.mark.parametrize("q1_text,q2_text", EQ8_PAIRS)
def test_containment_seed_rounds_never_exceed_generic(q1_text, q2_text):
    """On Eq. (8) systems the workload-aware seed can only save rounds."""
    q1, q2 = to_boolean_pair(parse_query(q1_text), parse_query(q2_text))
    inequality = build_containment_inequality(q1, q2)
    assert not inequality.is_trivially_false
    prover = shannon_prover(inequality.ground)
    branches = [
        branch.with_ground(inequality.ground)
        for branch in inequality.as_max_ii().branches
    ]
    rows = sp.csr_matrix(np.array([prover.expression_vector(b) for b in branches]))
    oracle = shannon_row_oracle(inequality.ground)
    outcomes = {}
    for seed in ("generic", "containment"):
        result = minimize_lazy(
            np.zeros(rows.shape[1]),
            oracle,
            A_ub=rows,
            b_ub=-np.ones(rows.shape[0]),
            options=RowGenOptions(seed=seed),
        )
        outcomes[seed] = (result.status, result.rowgen)
    assert outcomes["generic"][0] == outcomes["containment"][0]
    assert outcomes["containment"][1].rounds <= outcomes["generic"][1].rounds


def test_pipeline_marks_eq8_requests_with_the_containment_seed():
    q1 = parse_query("R(x,y), R(y,z), R(z,x)")
    q2 = parse_query("R(a,b), R(a,c)")
    pipeline = containment_pipeline(q1, q2)
    request = next(pipeline)
    assert request.over == "gamma"
    assert request.seed == "containment"
    pipeline.close()


@pytest.mark.parametrize("seed", ["generic", "containment"])
def test_seeded_verdicts_match_through_decide_max_ii(seed):
    from repro.infotheory.maxiip import decide_max_ii

    q1, q2 = to_boolean_pair(
        parse_query("R(x,y), R(y,z), R(z,x)"), parse_query("R(a,b), R(a,c)")
    )
    inequality = build_containment_inequality(q1, q2)
    with pin_path("rowgen"):
        verdict = decide_max_ii(
            inequality.as_max_ii(), over="gamma", ground=inequality.ground, seed=seed
        )
    assert verdict.valid
