"""Convex-combination certificates for valid Max-IIs (paper Theorem 6.1).

Theorem 6.1: a max-linear inequality ``0 ≤ max_ℓ E_ℓ(h)`` holds over a closed
convex cone exactly when some convex combination ``Σ_ℓ λ_ℓ E_ℓ`` (with
``λ ≥ 0`` and ``Σ λ = 1``) is itself a valid linear inequality over the cone.
Over the *Shannon* cone ``Γn`` both the max-inequality and the combination
are LP-checkable, so the certificate — the vector ``λ`` plus the Shannon
proof ``µ`` of the combined inequality — can be computed outright, which is
what :func:`find_convex_certificate` does.

Both halves come from one row-generation loop
(:meth:`ShannonProver._certificate_rowgen`): a probe LP over a growing
active set of elemental rows finds the rows the proof needs, and the duals
of its last solve are ``λ`` and ``µ`` — no second LP is solved.  The full
elemental description of ``Γn`` is never built.  The loop checks the proof
against ``Σ_ℓ λ_ℓ E_ℓ`` before it returns it
(:meth:`~repro.infotheory.shannon.ShannonProver.proof_from_duals`).

The batch engine does not need this loop: the block LP that decides a
Max-II over ``Γn`` (:func:`repro.infotheory.maxiip.decide_max_ii_many`)
is itself a Farkas system, and its duals give ``λ`` and ``µ`` through the
same checked conversion, so its verdicts arrive with their certificate.
The durable store calls :func:`find_convex_certificate` only for a
CONTAINED verdict that carries none: a sequential ``decide_containment``
result (its feasibility LP has no slack, so no weights to read) or a block
whose duals failed the check.

The paper leaves open whether the ``λ`` can always be chosen rational over
``Γ*n``.  Over ``Γn`` they can: the probe has rational data, so its dual
optimum has a rational vertex.  The weights returned here are the solver's
floating-point dual vertex, checked by a solver-free sum of the proof's
rows (to the tolerance of
:meth:`~repro.infotheory.shannon.ShannonCertificate.verify`), not in exact
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.infotheory.expressions import LinearExpression, MaxInformationInequality
from repro.infotheory.shannon import ShannonCertificate, ShannonProver, shannon_prover


def _combine(
    lambdas: Sequence[float],
    expressions: Sequence[LinearExpression],
    ground: Tuple[str, ...],
) -> LinearExpression:
    combined = LinearExpression.zero(ground)
    for value, expression in zip(lambdas, expressions):
        combined = combined + value * expression.with_ground(ground)
    return combined


@dataclass(frozen=True)
class ConvexCertificate:
    """A Theorem 6.1 certificate: ``Σ_ℓ λ_ℓ E_ℓ`` is a (Shannon-) valid inequality."""

    lambdas: Tuple[float, ...]
    combined: LinearExpression
    shannon_certificate: Optional[ShannonCertificate] = None

    def verify(
        self, expressions: Sequence[LinearExpression], prover: ShannonProver
    ) -> bool:
        """Re-check the certificate: λ is a convex combination and the sum is valid.

        The stored ``combined`` must equal ``Σ λ_ℓ E_ℓ``, and an attached
        Shannon proof must sum to it.
        """
        if len(self.lambdas) != len(expressions):
            return False
        if any(value < -1e-9 for value in self.lambdas):
            return False
        if abs(sum(self.lambdas) - 1.0) > 1e-6:
            return False
        combined = _combine(self.lambdas, expressions, prover.ground)
        gap = combined - self.combined
        if any(abs(value) > 1e-6 for value in gap.coefficients.values()):
            return False
        if self.shannon_certificate is not None and not self.shannon_certificate.verify(
            combined
        ):
            return False
        return prover.is_valid(combined)


def find_convex_certificate(
    expressions: Sequence[LinearExpression],
    ground: Sequence[str] = None,
    with_shannon_proof: bool = False,
) -> Optional[ConvexCertificate]:
    """Find ``λ`` such that ``Σ λ_ℓ E_ℓ`` is Shannon-provable, if one exists.

    One row-generation loop finds the convex weights ``λ`` and the
    elemental-inequality multipliers ``µ`` with
    ``Σ_ℓ λ_ℓ c_ℓ = Aᵀ µ``, ``Σ λ = 1``, ``λ, µ ≥ 0`` over the elemental
    rows it activates, reading both off the duals of its last probe (see
    the module docstring); ``with_shannon_proof`` attaches ``µ`` to the
    result.  Raises :class:`~repro.exceptions.CertificateError` when the
    proof fails its check against ``Σ λ_ℓ E_ℓ``.

    By Theorem 6.1 (applied to the polyhedral cone ``Γn``) a certificate
    exists exactly when the Max-II ``0 ≤ max_ℓ E_ℓ(h)`` is valid over ``Γn``.
    """
    expressions = list(expressions)
    if not expressions:
        raise ValueError("at least one expression is required")
    if ground is None:
        ground = MaxInformationInequality(branches=tuple(expressions)).ground
    prover = shannon_prover(tuple(ground))
    branch_vectors = np.array(
        [prover.expression_vector(e.with_ground(prover.ground)) for e in expressions]
    )
    found = prover._certificate_rowgen(branch_vectors, tolerance=1e-6)
    if found is None:
        return None
    weights, proof = found
    lambdas = tuple(float(v) for v in weights)
    return ConvexCertificate(
        lambdas=lambdas,
        combined=_combine(lambdas, expressions, prover.ground),
        shannon_certificate=proof if with_shannon_proof else None,
    )
