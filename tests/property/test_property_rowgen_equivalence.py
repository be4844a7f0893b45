"""Cross-solver equivalence: row generation vs the dense elemental LP.

The lockdown harness for the lazy-separation solver: on randomly generated
entropic expressions and containment workloads at ``n ≤ 8``, the rowgen and
dense paths, each pinned with ``tests/lp_paths.py``, must return

* identical validity / feasibility verdicts,
* matching optimal objective values (within tolerance),
* independently verified certificates (checked by
  :meth:`ShannonCertificate.verify`, which re-sums the weighted elemental
  inequalities without any LP), among them the Theorem 6.1 certificates
  batched decisions read off the block LP's duals on either path, and
* identical batch-service statuses across ``chunk_size`` × path
  combinations.

A wrong-but-fast separation oracle would silently flip containment
verdicts; these properties are what make that class of bug loud.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_paths import PATHS, pin_path

from repro.infotheory.cones import cone_by_name
from repro.infotheory.expressions import LinearExpression
from repro.infotheory.maxiip import decide_max_ii_many
from repro.infotheory.polymatroid import is_polymatroid
from repro.infotheory.shannon import ShannonProver, shannon_prover
from repro.service import decide_containment_many
from repro.workloads.generators import mixed_containment_pairs, random_max_ii

TOLERANCE = 1e-6


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


@settings(max_examples=60, deadline=None)
@given(random_expressions())
def test_minimum_over_gamma_agrees(expression):
    prover = shannon_prover(expression.ground)
    with pin_path("dense"):
        dense_value, dense_point = prover.minimum_over_gamma(expression)
    with pin_path("rowgen"):
        lazy_value, lazy_point = prover.minimum_over_gamma(expression)
    assert lazy_value == pytest.approx(dense_value, abs=TOLERANCE)
    # Both minimizers must genuinely be polymatroids attaining their value.
    assert is_polymatroid(dense_point, tolerance=1e-6)
    assert is_polymatroid(lazy_point, tolerance=1e-6)
    assert expression.evaluate(lazy_point) == pytest.approx(lazy_value, abs=TOLERANCE)


@settings(max_examples=60, deadline=None)
@given(random_expressions())
def test_validity_verdicts_agree(expression):
    prover = shannon_prover(expression.ground)
    with pin_path("dense"):
        dense_valid = prover.is_valid(expression)
    with pin_path("rowgen"):
        lazy_valid = prover.is_valid(expression)
    assert dense_valid == lazy_valid


@settings(max_examples=40, deadline=None)
@given(random_expressions())
def test_certificates_exist_iff_valid_and_verify_independently(expression):
    prover = shannon_prover(expression.ground)
    with pin_path("dense"):
        valid = prover.is_valid(expression)
        dense_certificate = prover.certificate(expression)
    with pin_path("rowgen"):
        lazy_certificate = prover.certificate(expression)
    assert (dense_certificate is not None) == valid
    assert (lazy_certificate is not None) == valid
    if valid:
        assert dense_certificate.verify(expression, tolerance=1e-5)
        assert lazy_certificate.verify(expression, tolerance=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
)
def test_find_point_below_verdicts_agree(seed, n, branches):
    max_ii = random_max_ii(n, branches, seed=seed)
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    cone = cone_by_name("gamma", ground)
    expressions = [branch.with_ground(ground) for branch in max_ii.branches]
    with pin_path("dense"):
        dense_point = cone.find_point_below(expressions)
    with pin_path("rowgen"):
        lazy_point = cone.find_point_below(expressions)
    assert (dense_point is None) == (lazy_point is None)
    if lazy_point is not None:
        function = lazy_point.function
        assert is_polymatroid(function, tolerance=1e-6)
        assert all(e.evaluate(function) <= -1.0 + TOLERANCE for e in expressions)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=2,
        max_size=6,
    ),
)
def test_batched_cone_decisions_agree(seed, n, specs):
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    cone = cone_by_name("gamma", ground)
    inequalities = [random_max_ii(n, branches, seed=seed + s) for s, branches in specs]
    expression_lists = [
        [branch.with_ground(ground) for branch in inequality.branches]
        for inequality in inequalities
    ]
    points_by_path = {}
    for path in PATHS:
        with pin_path(path):
            points = cone.find_points_below_many(expression_lists)
            verdicts = decide_max_ii_many(inequalities, over="gamma", ground=ground)
        for verdict, point, expressions in zip(verdicts, points, expression_lists):
            assert_verdict_matches_block(verdict, point, expressions, ground)
        points_by_path[path] = [point is None for point in points]
    assert points_by_path["dense"] == points_by_path["rowgen"]


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


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=1_000),
    st.sampled_from([1, 4, 32]),
)
def test_batch_service_statuses_identical_across_lp_methods(seed, chunk_size):
    pairs = mixed_containment_pairs(10, seed=seed)
    with pin_path("dense"):
        dense_results = decide_containment_many(pairs, chunk_size=chunk_size)
    with pin_path("rowgen"):
        lazy_results = decide_containment_many(pairs, chunk_size=chunk_size)
    assert [r.status for r in dense_results] == [r.status for r in lazy_results]


@pytest.mark.parametrize("n", [7, 8])
def test_larger_arity_spot_checks_agree(n):
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
        with pin_path("dense"):
            dense_valid = prover.is_valid(expression)
        with pin_path("rowgen"):
            lazy_valid = prover.is_valid(expression)
        assert dense_valid == lazy_valid == expected
    with pin_path("rowgen"):
        certificate = prover.certificate(han)
    assert certificate is not None and certificate.verify(han, tolerance=1e-5)
