"""Unit tests for the DOM problem and Theorem 6.1 convex certificates."""

from dataclasses import replace
from fractions import Fraction

import pytest
from lp_paths import pin_path

from repro.core.containment import ContainmentStatus
from repro.core.convex_certificate import find_convex_certificate
from repro.core.domination import (
    dominates,
    exponent_domination_holds,
    structure_to_query,
)
from repro.cq.structures import Structure
from repro.exceptions import QueryError
from repro.infotheory.expressions import LinearExpression
from repro.infotheory.shannon import ShannonProver
from repro.workloads.paper_examples import example_3_8_inequality

GROUND = ("X1", "X2", "X3")


@pytest.fixture
def triangle_structure():
    return Structure.from_facts([("R", (0, 1)), ("R", (1, 2)), ("R", (2, 0))])


@pytest.fixture
def path_structure():
    return Structure.from_facts([("R", ("a", "b")), ("R", ("a", "c"))])


def test_structure_to_query(triangle_structure):
    query = structure_to_query(triangle_structure)
    assert len(query.atoms) == 3
    assert len(query.variables) == 3
    with pytest.raises(QueryError):
        structure_to_query(Structure(domain={0}, relations={}))


def test_dominates_vee(triangle_structure, path_structure):
    # The 2-path structure dominates the triangle (Example 4.3 in DOM form).
    result = dominates(triangle_structure, path_structure)
    assert result.status == ContainmentStatus.CONTAINED
    # The converse fails: the triangle does not dominate the 2-path.
    reverse = dominates(path_structure, triangle_structure)
    assert reverse.status == ContainmentStatus.NOT_CONTAINED


def test_exponent_domination_square(path_structure):
    # |hom(A, D)|^2 <= |hom(2A, D)| trivially: with exponent 2 the reduction
    # compares 2 disjoint copies of A against 2 disjoint copies of B = A,
    # i.e. equality, hence containment holds.
    result = exponent_domination_holds(
        path_structure, path_structure, Fraction(1, 1)
    )
    assert result.status == ContainmentStatus.CONTAINED


def test_exponent_domination_fractional(triangle_structure, path_structure):
    # |hom(triangle, D)|^(1/2) <= |hom(path2, D)| — weaker than exponent 1,
    # so it must also hold.
    result = exponent_domination_holds(
        triangle_structure, path_structure, Fraction(1, 2)
    )
    assert result.status == ContainmentStatus.CONTAINED


def test_exponent_domination_rejects_negative(triangle_structure, path_structure):
    with pytest.raises(QueryError):
        exponent_domination_holds(triangle_structure, path_structure, Fraction(-1, 2))


def test_convex_certificate_for_example_38():
    branches = list(example_3_8_inequality().branches)
    certificate = find_convex_certificate(branches, ground=GROUND, with_shannon_proof=True)
    assert certificate is not None
    # The paper's proof uses the uniform combination (1/3, 1/3, 1/3).
    assert sum(certificate.lambdas) == pytest.approx(1.0)
    assert all(value == pytest.approx(1 / 3, abs=1e-6) for value in certificate.lambdas)
    prover = ShannonProver(GROUND)
    assert certificate.verify(branches, prover)
    assert certificate.shannon_certificate is not None
    assert certificate.shannon_certificate.verify(certificate.combined)


def test_convex_certificate_single_valid_branch():
    branch = (
        LinearExpression.entropy_term(GROUND, {"X1"})
        + LinearExpression.entropy_term(GROUND, {"X2"})
        - LinearExpression.entropy_term(GROUND, {"X1", "X2"})
    )
    certificate = find_convex_certificate([branch], ground=GROUND)
    assert certificate is not None
    assert certificate.lambdas == (pytest.approx(1.0),)


def test_convex_certificate_absent_for_invalid_max_ii():
    branches = [
        -1.0 * LinearExpression.entropy_term(GROUND, {"X1"}),
        -1.0 * LinearExpression.entropy_term(GROUND, {"X2"}),
    ]
    assert find_convex_certificate(branches, ground=GROUND) is None


def test_convex_certificate_needs_expressions():
    with pytest.raises(ValueError):
        find_convex_certificate([])


def test_convex_certificate_verify_rejects_wrong_lambdas():
    branches = list(example_3_8_inequality().branches)
    certificate = find_convex_certificate(branches, ground=GROUND)
    prover = ShannonProver(GROUND)
    assert not certificate.verify(branches[:2], prover)


def test_convex_certificate_verify_checks_the_attached_proof():
    branches = list(example_3_8_inequality().branches)
    certificate = find_convex_certificate(branches, ground=GROUND, with_shannon_proof=True)
    prover = ShannonProver(GROUND)
    assert certificate.verify(branches, prover)
    proof = certificate.shannon_certificate
    (inequality, multiplier), *rest = proof.multipliers
    scaled = replace(proof, multipliers=((inequality, 2.0 * multiplier), *rest))
    assert not replace(certificate, shannon_certificate=scaled).verify(branches, prover)
    # The stored combination must also be the one the weights produce.
    assert not replace(certificate, combined=2.0 * certificate.combined).verify(
        branches, prover
    )


def test_certificate_loop_rejects_a_proof_that_does_not_sum(monkeypatch):
    """Every caller of the certificate loop gets a checked proof.

    Doubling the probe's duals doubles ``µ`` while ``λ = (1,)`` stays, so
    the proof sums to ``2·E``: the loop must raise rather than return it.
    """
    from repro.exceptions import CertificateError
    from repro.lp import backends

    solve = backends.IncrementalModel.solve

    def doubled_duals(self, warm=True):
        result = solve(self, warm)
        if result.row_duals is None:
            return result
        return replace(result, row_duals=2.0 * result.row_duals)

    expression = LinearExpression.entropy_term(GROUND, {"X1"})
    prover = ShannonProver(GROUND)
    with pin_path("rowgen"):
        assert prover.certificate(expression) is not None
        monkeypatch.setattr(backends.IncrementalModel, "solve", doubled_duals)
        with pytest.raises(CertificateError, match="does not sum"):
            prover.certificate(expression)
