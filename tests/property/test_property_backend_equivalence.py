"""Cross-backend equivalence: scipy's ``linprog`` vs the warm-started HiGHS model.

The lockdown harness for the solver-backend layer: on hypothesis-generated
polymatroid expressions and containment instances at ``n ≤ 8``, every
``backend × lp_method`` combination must return

* identical validity / feasibility / containment verdicts,
* matching optimal objective values (within tolerance),
* independently verified certificates (checked by
  :meth:`ShannonCertificate.verify`, which re-sums the weighted elemental
  inequalities without any LP), and
* genuine cone points for every feasible answer.

Both backends run the same keyed cutting-plane loops; ``scipy`` re-solves
them through ``linprog`` and ``highs`` — which runs on every install, on
native ``highspy`` or on the bindings scipy bundles — keeps one HiGHS model
per loop and warm-starts the block and certificate loops.  On both, the
certificate loop reads its proof off the last probe's duals and batched
decisions read theirs off the block LP's duals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.cones import cone_by_name
from repro.infotheory.expressions import LinearExpression
from repro.infotheory.maxiip import decide_max_ii_many
from repro.infotheory.polymatroid import is_polymatroid
from repro.infotheory.shannon import ShannonProver, shannon_prover
from repro.service import decide_containment_many
from repro.workloads.generators import mixed_containment_pairs, random_max_ii

TOLERANCE = 1e-6

#: Every backend the equivalence matrix covers; "scipy" is the reference.
BACKENDS = ["scipy", "highs"]
ALTERNATE_BACKENDS = BACKENDS[1:]
LP_METHODS = ["dense", "rowgen"]


def grounds(min_n=2, max_n=6):
    return st.integers(min_value=min_n, max_value=max_n).map(
        lambda n: tuple(f"X{i}" for i in range(1, n + 1))
    )


@st.composite
def random_expressions(draw, min_n=2, max_n=6):
    """A random small-integer linear expression over a random ground set."""
    ground = draw(grounds(min_n, max_n))
    n = len(ground)
    num_terms = draw(st.integers(min_value=1, max_value=6))
    coefficients = {}
    for _ in range(num_terms):
        mask = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
        subset = frozenset(v for i, v in enumerate(ground) if mask & (1 << i))
        coefficient = draw(
            st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0)
        )
        coefficients[subset] = coefficients.get(subset, 0.0) + coefficient
    return LinearExpression(ground=ground, coefficients=coefficients)


@pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
@settings(max_examples=30, deadline=None)
@given(random_expressions())
def test_minimum_over_gamma_agrees_across_backends(backend, expression):
    prover = shannon_prover(expression.ground)
    reference, _ = prover.minimum_over_gamma(
        expression, method="rowgen", backend="scipy"
    )
    value, point = prover.minimum_over_gamma(
        expression, method="rowgen", backend=backend
    )
    assert value == pytest.approx(reference, abs=TOLERANCE)
    # A non-early-stopped minimizer must genuinely be a polymatroid; the
    # early-stop contract returns the zero polymatroid, which trivially is.
    assert is_polymatroid(point, tolerance=1e-6)
    assert expression.evaluate(point) <= value + TOLERANCE


@pytest.mark.parametrize("lp_method", LP_METHODS)
@pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
@settings(max_examples=20, deadline=None)
@given(random_expressions())
def test_validity_verdicts_agree_across_backend_and_method(
    backend, lp_method, expression
):
    prover = shannon_prover(expression.ground)
    reference = prover.is_valid(expression, method="dense", backend="scipy")
    assert (
        prover.is_valid(expression, method=lp_method, backend=backend) == reference
    )


@pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
@settings(max_examples=15, deadline=None)
@given(random_expressions())
def test_certificates_verify_independently_across_backends(backend, expression):
    prover = shannon_prover(expression.ground)
    valid = prover.is_valid(expression, method="dense", backend="scipy")
    certificate = prover.certificate(expression, method="rowgen", backend=backend)
    assert (certificate is not None) == valid
    if valid:
        assert certificate.verify(expression, tolerance=1e-5)


@pytest.mark.parametrize("lp_method", LP_METHODS)
@pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
)
def test_find_point_below_verdicts_agree(backend, lp_method, seed, n, branches):
    max_ii = random_max_ii(n, branches, seed=seed)
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    cone = cone_by_name("gamma", ground)
    expressions = [branch.with_ground(ground) for branch in max_ii.branches]
    reference = cone.find_point_below(expressions, method="dense", backend="scipy")
    point = cone.find_point_below(expressions, method=lp_method, backend=backend)
    assert (reference is None) == (point is None)
    if point is not None:
        function = point.function
        assert is_polymatroid(function, tolerance=1e-6)
        assert all(e.evaluate(function) <= -1.0 + TOLERANCE for e in expressions)


@pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=2,
        max_size=5,
    ),
)
def test_batched_cone_decisions_agree(backend, seed, n, specs):
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    cone = cone_by_name("gamma", ground)
    inequalities = [random_max_ii(n, branches, seed=seed + s) for s, branches in specs]
    expression_lists = [
        [branch.with_ground(ground) for branch in inequality.branches]
        for inequality in inequalities
    ]
    reference = cone.find_points_below_many(
        expression_lists, method="dense", backend="scipy"
    )
    points = cone.find_points_below_many(
        expression_lists, method="rowgen", backend=backend
    )
    assert [p is None for p in reference] == [p is None for p in points]
    for lp_method, lp_backend, block_points in (
        ("dense", "scipy", reference),
        ("rowgen", backend, points),
    ):
        verdicts = decide_max_ii_many(
            inequalities,
            over="gamma",
            ground=ground,
            lp_method=lp_method,
            lp_backend=lp_backend,
        )
        for verdict, point, expressions in zip(verdicts, block_points, expression_lists):
            assert_verdict_matches_block(verdict, point, expressions, ground)


def assert_verdict_matches_block(verdict, point, expressions, ground):
    """A batched verdict carries the block LP's point, or its dual certificate.

    A valid verdict's ``λ`` is a convex combination and its proof sums to
    ``Σλ_ℓ E_ℓ``; an invalid one carries the point
    :meth:`~repro.infotheory.cones.Cone.find_points_below_many` returns and
    no certificate.
    """
    if point is not None:
        assert not verdict.valid
        assert verdict.certificate is None and verdict.lambdas is None
        assert np.allclose(
            verdict.violating_function.to_vector(), point.function.to_vector()
        )
        return
    lambdas = verdict.lambdas
    assert verdict.valid and lambdas is not None and verdict.certificate is not None
    assert len(lambdas) == len(expressions)
    assert min(lambdas) >= 0.0 and abs(sum(lambdas) - 1.0) <= 1e-9
    combined = LinearExpression.zero(ground)
    for weight, expression in zip(lambdas, expressions):
        combined = combined + weight * expression
    assert verdict.certificate.verify(combined)


@pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=0, max_value=1_000),
    st.sampled_from([1, 32]),
)
def test_batch_service_statuses_identical_across_backends(backend, seed, chunk_size):
    pairs = mixed_containment_pairs(8, seed=seed)
    reference = decide_containment_many(
        pairs, chunk_size=chunk_size, lp_backend="scipy"
    )
    results = decide_containment_many(
        pairs, chunk_size=chunk_size, lp_backend=backend
    )
    assert [r.status for r in reference] == [r.status for r in results]


@pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
@pytest.mark.parametrize("n", [7, 8])
def test_larger_arity_spot_checks_agree(backend, n):
    """Deterministic n ∈ {7, 8} instances (too slow to run under hypothesis)."""
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    prover = ShannonProver(ground)
    full = frozenset(ground)
    # Han-type valid inequality: Σ_i h(V \ i) ≥ (n-1)·h(V).
    han = LinearExpression(
        ground=ground,
        coefficients={
            **{full - {v}: 1.0 for v in ground},
            full: -(n - 1),
        },
    )
    # Invalid: modular points break 1.5·h({1,2}) ≤ h({1}) + h({2}).
    bad = LinearExpression(
        ground=ground,
        coefficients={
            frozenset({"X1"}): 1.0,
            frozenset({"X2"}): 1.0,
            frozenset({"X1", "X2"}): -1.5,
        },
    )
    for expression, expected in ((han, True), (bad, False)):
        reference = prover.is_valid(expression, method="rowgen", backend="scipy")
        valid = prover.is_valid(expression, method="rowgen", backend=backend)
        assert reference == valid == expected
    certificate = prover.certificate(han, method="rowgen", backend=backend)
    assert certificate is not None and certificate.verify(han, tolerance=1e-5)
