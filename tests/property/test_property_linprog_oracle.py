"""HiGHS models vs the one-shot ``linprog`` oracle.

The lockdown harness for the LP backend: on hypothesis-generated
polymatroid expressions and containment instances at ``n ≤ 8``, the
library's HiGHS models — kept across cutting-plane rounds, grown by keyed
rows and, in the block and certificate loops, re-solved warm — must agree
with ``scipy.optimize.linprog`` solving the same question once over the
full elemental description of ``Γn`` (``tests/linprog_oracle.py``):

* the same minimum over ``Γn`` (within tolerance),
* the same validity and feasibility verdicts, on both ``Γn`` LP paths
  (each pinned with ``tests/lp_paths.py``), for single systems and for
  blocks of the block LP,
* genuine cone points for every feasible answer, and the block LP's own
  point on every invalid batched verdict,
* certificates exactly for the valid expressions, each checked by
  :meth:`ShannonCertificate.verify`, which re-sums the weighted elemental
  inequalities without any LP.

The certificate loop reads its proof off the last probe's duals and
batched decisions read theirs off the block LP's duals.  On CI's
``highspy-backend`` job the models run on native ``highspy``; everywhere
else on the bindings scipy bundles.
"""

from __future__ import annotations

import linprog_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lp_paths import PATHS, pin_path

from repro.infotheory.cones import cone_by_name
from repro.infotheory.expressions import LinearExpression
from repro.infotheory.maxiip import decide_max_ii_many
from repro.infotheory.polymatroid import is_polymatroid
from repro.infotheory.shannon import ShannonProver, shannon_prover
from repro.workloads.generators import random_max_ii

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


def chain_rule(n):
    """``Σ_i h(X_i | X_1 … X_{i-1}) − h(V)``: zero once expanded, so valid."""
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    expression = LinearExpression.entropy_term(ground, ground, -1.0)
    for i, variable in enumerate(ground):
        expression = expression + LinearExpression.conditional_term(
            ground, {variable}, set(ground[:i])
        )
    return expression


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=30, deadline=None)
@given(random_expressions())
def test_minimum_over_gamma_matches_linprog(path, expression):
    prover = shannon_prover(expression.ground)
    with pin_path(path):
        value, point = prover.minimum_over_gamma(expression)
    assert value == pytest.approx(
        linprog_oracle.minimum_over_gamma(expression), abs=TOLERANCE
    )
    # A non-early-stopped minimizer must genuinely be a polymatroid; the
    # early-stop contract returns the zero polymatroid, which trivially is.
    assert is_polymatroid(point, tolerance=1e-6)
    assert expression.evaluate(point) <= value + TOLERANCE


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=20, deadline=None)
@given(random_expressions())
@example(expression=chain_rule(6))
def test_validity_verdicts_match_linprog(path, expression):
    prover = shannon_prover(expression.ground)
    with pin_path(path):
        valid = prover.is_valid(expression)
    assert valid == linprog_oracle.is_valid(expression)


@settings(max_examples=15, deadline=None)
@given(random_expressions())
@example(expression=chain_rule(5))
def test_certificates_exist_exactly_where_linprog_finds_validity(expression):
    prover = shannon_prover(expression.ground)
    valid = linprog_oracle.is_valid(expression)
    with pin_path("rowgen"):
        certificate = prover.certificate(expression)
    assert (certificate is not None) == valid
    if valid:
        assert certificate.verify(expression, tolerance=1e-5)


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
)
def test_find_point_below_verdicts_match_linprog(path, seed, n, branches):
    max_ii = random_max_ii(n, branches, seed=seed)
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    cone = cone_by_name("gamma", ground)
    expressions = [branch.with_ground(ground) for branch in max_ii.branches]
    reference = linprog_oracle.point_below(ground, expressions)
    with pin_path(path):
        point = cone.find_point_below(expressions)
    assert (reference is None) == (point is None)
    if point is not None:
        linprog_oracle.assert_point_below(point.function, expressions)


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
def test_batched_cone_decisions_match_linprog(seed, n, specs):
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    cone = cone_by_name("gamma", ground)
    inequalities = [random_max_ii(n, branches, seed=seed + s) for s, branches in specs]
    expression_lists = [
        [branch.with_ground(ground) for branch in inequality.branches]
        for inequality in inequalities
    ]
    reference = [
        linprog_oracle.point_below(ground, expressions) is None
        for expressions in expression_lists
    ]
    for path in PATHS:
        with pin_path(path):
            points = cone.find_points_below_many(expression_lists)
            verdicts = decide_max_ii_many(inequalities, over="gamma", ground=ground)
        assert [point is None for point in points] == reference
        for verdict, point, expressions in zip(verdicts, points, expression_lists):
            # An invalid verdict carries the point find_points_below_many
            # returns: the block LP's own point.
            assert verdict.valid == (point is None)
            linprog_oracle.assert_block_verdict(
                verdict, ground, expressions, None if point is None else point.function
            )


@pytest.mark.parametrize("n", [7, 8])
def test_larger_arity_spot_checks_match_linprog(n):
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
    with pin_path("rowgen"):
        verdicts = [prover.is_valid(expression) for expression in (han, bad)]
        certificate = prover.certificate(han)
    for expression, valid, expected in zip((han, bad), verdicts, (True, False)):
        assert linprog_oracle.is_valid(expression) == valid == expected
    assert certificate is not None and certificate.verify(han, tolerance=1e-5)
