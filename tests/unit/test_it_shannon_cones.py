"""Unit tests for the Shannon prover, the cones and the Max-II decision layer."""

import pytest
from lp_paths import PATHS, pin_path

from repro.infotheory.cones import GammaCone, ModularCone, NormalCone, cone_by_name
from repro.infotheory.expressions import (
    InformationInequality,
    LinearExpression,
    MaxInformationInequality,
)
from repro.infotheory.functions import modular_function, parity_function, step_function
from repro.infotheory.imeasure import is_normal_function
from repro.infotheory.maxiip import (
    decide_ii,
    decide_max_ii,
    decide_max_ii_many,
    essentially_shannon_agreement,
)
from repro.infotheory.polymatroid import is_polymatroid
from repro.infotheory.shannon import ShannonProver

GROUND = ("X1", "X2", "X3")


def submodularity_expression(ground=GROUND):
    return (
        LinearExpression.entropy_term(ground, {"X1"})
        + LinearExpression.entropy_term(ground, {"X2"})
        - LinearExpression.entropy_term(ground, {"X1", "X2"})
    )


def test_shannon_prover_accepts_submodularity():
    prover = ShannonProver(GROUND)
    assert prover.is_valid(submodularity_expression())


def test_shannon_prover_rejects_reverse_submodularity():
    prover = ShannonProver(GROUND)
    reverse = -1.0 * submodularity_expression()
    assert not prover.is_valid(reverse)
    violating = prover.find_violating_polymatroid(reverse)
    assert violating is not None
    assert is_polymatroid(violating)
    assert reverse.evaluate(violating) < 0


def test_shannon_prover_certificate_verifies():
    prover = ShannonProver(GROUND)
    # A non-elemental Shannon inequality: h(X1X2X3) <= h(X1X2) + h(X3).
    expression = (
        LinearExpression.entropy_term(GROUND, {"X1", "X2"})
        + LinearExpression.entropy_term(GROUND, {"X3"})
        - LinearExpression.entropy_term(GROUND, GROUND)
    )
    assert prover.is_valid(expression)
    certificate = prover.certificate(expression)
    assert certificate is not None
    assert certificate.verify(expression)
    assert len(certificate) >= 1
    # The certificate must not verify a different expression.
    assert not certificate.verify(submodularity_expression())


def test_shannon_prover_no_certificate_for_invalid():
    prover = ShannonProver(GROUND)
    assert prover.certificate(-1.0 * submodularity_expression()) is None


def test_shannon_prover_inequality_wrapper():
    prover = ShannonProver(GROUND)
    inequality = InformationInequality(submodularity_expression())
    assert prover.is_valid_inequality(inequality)


def test_gamma_cone_membership(parity):
    cone = GammaCone(GROUND)
    assert cone.contains(parity)
    bad = parity + step_function(GROUND, low_part=("X1",)) * -3.0
    assert not cone.contains(bad)


def test_normal_and_modular_cone_membership(parity):
    normal_cone = NormalCone(GROUND)
    modular_cone = ModularCone(GROUND)
    step = step_function(GROUND, low_part=("X1",))
    modular = modular_function({"X1": 1.0, "X2": 2.0, "X3": 0.0})
    assert normal_cone.contains(step)
    assert normal_cone.contains(modular)
    assert modular_cone.contains(modular)
    assert not modular_cone.contains(step)
    assert not normal_cone.contains(parity)


def test_find_point_below_returns_generator_coefficients():
    cone = NormalCone(GROUND)
    # A single branch that can be made very negative: -h(X1).
    branch = -1.0 * LinearExpression.entropy_term(GROUND, {"X1"})
    point = cone.find_point_below([branch])
    assert point is not None
    assert point.coefficients is not None
    assert branch.evaluate(point.function) <= -1.0 + 1e-7
    assert is_normal_function(point.function)


def test_find_point_below_infeasible_for_valid_inequality():
    cone = GammaCone(GROUND)
    # Submodularity is valid, so no polymatroid makes it <= -1.
    assert cone.find_point_below([submodularity_expression()]) is None


def test_cone_by_name():
    assert isinstance(cone_by_name("gamma", GROUND), GammaCone)
    assert isinstance(cone_by_name("normal", GROUND), NormalCone)
    assert isinstance(cone_by_name("modular", GROUND), ModularCone)
    with pytest.raises(ValueError):
        cone_by_name("entropic", GROUND)


def test_decide_ii_valid_with_certificate():
    verdict = decide_ii(
        InformationInequality(submodularity_expression()),
        over="gamma",
        with_certificate=True,
    )
    assert verdict.valid
    assert verdict.certificate is not None
    assert verdict.lambdas == (1.0,)
    assert verdict.certificate.verify(submodularity_expression())


@pytest.mark.parametrize("path", PATHS)
def test_batched_proof_pays_for_the_bound_duals(path):
    # Valid because entropies are non-negative: the block LP's duals sit on
    # its bounds h >= 0, not on elemental rows, and the certificate pays for
    # them with the elemental rows that sum to each h(X).
    expression = LinearExpression.entropy_term(GROUND, {"X2"}) + LinearExpression.entropy_term(
        GROUND, {"X1", "X2"}
    )
    with pin_path(path):
        [verdict] = decide_max_ii_many(
            [MaxInformationInequality.single(expression)], over="gamma"
        )
    assert verdict.valid and verdict.lambdas == (1.0,)
    assert verdict.certificate is not None and verdict.certificate.verify(expression)


def test_decide_ii_invalid_returns_violating_function():
    verdict = decide_ii(
        InformationInequality(-1.0 * submodularity_expression()), over="gamma"
    )
    assert not verdict.valid
    assert verdict.violating_function is not None
    assert is_polymatroid(verdict.violating_function)


def test_decide_max_ii_example_38(example_38_max_ii):
    for cone in ("gamma", "normal", "modular"):
        assert decide_max_ii(example_38_max_ii, over=cone).valid


def test_decide_max_ii_invalid_over_all_cones():
    # max(-h(X1), -h(X2)) >= 0 fails on any function with both entropies positive.
    branches = (
        -1.0 * LinearExpression.entropy_term(GROUND, {"X1"}),
        -1.0 * LinearExpression.entropy_term(GROUND, {"X2"}),
    )
    inequality = MaxInformationInequality(branches=branches)
    agreement = essentially_shannon_agreement(inequality)
    assert agreement == {"gamma": False, "normal": False, "modular": False}
    verdict = decide_max_ii(inequality, over="normal")
    assert verdict.violating_coefficients is not None


def test_decide_max_ii_respects_extra_ground():
    branch = -1.0 * LinearExpression.entropy_term(("X1",), {"X1"})
    inequality = MaxInformationInequality(branches=(branch,))
    verdict = decide_max_ii(inequality, over="gamma", ground=GROUND)
    assert not verdict.valid
    assert set(verdict.violating_function.ground) == set(GROUND)


def test_max_weaker_than_each_branch():
    # max(E1, E2) >= 0 can be valid even when neither branch alone is valid.
    e1 = LinearExpression.entropy_term(GROUND, {"X1"}) - LinearExpression.entropy_term(
        GROUND, {"X2"}
    )
    e2 = -1.0 * e1
    max_ii = MaxInformationInequality(branches=(e1, e2))
    assert decide_max_ii(max_ii, over="gamma").valid
    assert not decide_ii(InformationInequality(e1), over="gamma").valid
    assert not decide_ii(InformationInequality(e2), over="gamma").valid
