"""Independent re-verification of stored verdicts (``repro cache verify``).

Every record in the durable store carries self-contained evidence, so an
operator can audit the store without trusting the LP solver that produced
the verdicts:

* **CONTAINED with certificate** — the stored Theorem 6.1 evidence is
  re-checked from scratch: the convex multipliers ``λ`` must be a genuine
  convex combination (within ``1e-6``), the weighted elementals of the
  Shannon proof must sum to ``Σ_ℓ λ_ℓ (E_ℓ - h(V))`` rebuilt from the
  stored branches — a solver-free floating-point sum
  (:meth:`~repro.infotheory.shannon.ShannonCertificate.verify`), equal
  within ``1e-6`` per coordinate, not in exact arithmetic — and a
  Farkas recheck (:func:`repro.lp.certificates.nonnegative_combination_over_support`)
  independently re-derives nonnegative multipliers expressing the combined
  expression over the stored elementals.
* **NOT_CONTAINED with witness** — the canonical query pair is rebuilt from
  the record's key, booleanized, and the homomorphism counts into the stored
  database are recounted; they must match the stored counts and separate the
  queries (``|hom(Q1, D)| > |hom(Q2, D)|``).
* **Anything else** (UNKNOWN verdicts, and CONTAINED verdicts over more than
  ``CERTIFICATE_MAX_GROUND`` variables that carried no proof of their own)
  is reported ``unchecked`` — present but carrying no re-checkable evidence.

Operator usage (including the fleet's ``--verify-every`` periodic audit
that drains a replica on failure) is documented in ``docs/operations.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cq.homomorphism import count_query_homomorphisms
from repro.cq.reductions import to_boolean_pair
from repro.core.containment import ContainmentStatus
from repro.exceptions import CertificateError, ReproError
from repro.infotheory.expressions import (
    LinearExpression,
    MaxInformationInequality,
)
from repro.lp.certificates import nonnegative_combination_over_support
from repro.store.serialize import (
    decode_key,
    deserialize_expression,
    deserialize_shannon_certificate,
    deserialize_witness,
    queries_from_key,
)
from repro.store.sqlite_store import VerdictStore

#: Tolerances of the audit: convexity of λ, and how far the floating-point
#: elemental sum may differ from the combined inequality per coordinate.
LAMBDA_TOLERANCE = 1e-6
SUM_TOLERANCE = 1e-6


@dataclass
class AuditReport:
    """Outcome of :func:`verify_store` over one store."""

    checked: int = 0
    certificates: int = 0
    witnesses: int = 0
    unchecked: int = 0
    #: ``(hash, reason)`` for every record whose evidence failed re-verification.
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_store(store: VerdictStore) -> AuditReport:
    """Re-verify every record of ``store`` (see the module docstring)."""
    report = AuditReport()
    for hash_, record in store.records():
        report.checked += 1
        try:
            kind = _verify_record(record)
        except ReproError as error:
            report.failures.append((hash_, str(error)))
            continue
        except Exception as error:  # noqa: BLE001 - corrupt evidence must not abort the audit
            report.failures.append((hash_, f"audit crashed: {error!r}"))
            continue
        if kind == "certificate":
            report.certificates += 1
        elif kind == "witness":
            report.witnesses += 1
        else:
            report.unchecked += 1
    return report


def _verify_record(record: Dict[str, object]) -> str:
    evidence = record.get("evidence") or {}
    status = ContainmentStatus(record["status"])
    certificate = evidence.get("certificate")
    if certificate is not None:
        if status is not ContainmentStatus.CONTAINED:
            raise CertificateError(
                f"a {status.value} verdict must not carry a containment certificate"
            )
        _verify_certificate(certificate)
        return "certificate"
    witness = evidence.get("witness")
    if witness is not None:
        if status is not ContainmentStatus.NOT_CONTAINED:
            raise CertificateError(
                f"a {status.value} verdict must not carry a counterexample witness"
            )
        return _verify_witness_record(record, witness)
    return "unchecked"


def _verify_certificate(certificate: Dict[str, object]) -> None:
    shannon = deserialize_shannon_certificate(certificate["shannon"])
    ground = shannon.ground
    lambdas = [float(value) for value in certificate["lambdas"]]
    branches = [
        deserialize_expression(encoded, ground) for encoded in certificate["branches"]
    ]
    if len(lambdas) != len(branches):
        raise CertificateError("certificate has mismatched λ and branch counts")
    if any(value < -LAMBDA_TOLERANCE for value in lambdas):
        raise CertificateError("certificate multipliers are not all nonnegative")
    if abs(sum(lambdas) - 1.0) > LAMBDA_TOLERANCE:
        raise CertificateError("certificate multipliers do not sum to one")

    # The stored branches are the raw Eq. (8) branch expressions; the Shannon
    # proof certifies the *shifted* combination Σ λ_ℓ (E_ℓ - h(V)).
    shifted = MaxInformationInequality.containment_form(1.0, ground, branches).branches
    combined = LinearExpression.zero(ground)
    for value, branch in zip(lambdas, shifted):
        combined = combined + value * branch
    if not shannon.verify(combined, tolerance=SUM_TOLERANCE):
        raise CertificateError(
            "the stored Shannon multipliers do not sum to the combined inequality"
        )

    # Independent Farkas recheck: re-derive nonnegative multipliers expressing
    # the combined expression over the stored elementals from scratch.  Only
    # the subsets the proof or the target mention get a column: every other
    # coordinate reads 0 = 0.  They keep their order in the full lattice
    # (by size, then by ground position), so the system solved is the one
    # the full 2^n - 1 coordinates would give, at the proof's size.
    position = {variable: i for i, variable in enumerate(ground)}
    mentioned = {
        subset
        for elemental, _multiplier in shannon.multipliers
        for subset in elemental.as_dict()
    }
    mentioned.update(subset for subset in combined.coefficients if subset)
    subsets = sorted(
        mentioned, key=lambda subset: (len(subset), sorted(position[v] for v in subset))
    )
    index = {subset: i for i, subset in enumerate(subsets)}
    generators = np.zeros((len(shannon.multipliers), len(subsets)))
    for row, (elemental, _multiplier) in enumerate(shannon.multipliers):
        for subset, coefficient in elemental.as_dict().items():
            generators[row, index[subset]] += coefficient
    target = np.zeros(len(subsets))
    for subset, coefficient in combined.coefficients.items():
        if subset:
            target[index[subset]] += coefficient
    try:
        multipliers = nonnegative_combination_over_support(generators, target)
    except CertificateError as error:
        raise CertificateError(f"Farkas recheck rejected the certificate: {error}") from error
    if multipliers is None:
        raise CertificateError(
            "Farkas recheck found no nonnegative combination over the stored elementals"
        )


def _verify_witness_record(record: Dict[str, object], witness: Dict[str, object]) -> str:
    rebuilt = deserialize_witness(witness)
    if rebuilt.head_tuple is not None:
        # Per-head-tuple multiplicities are not recounted here.
        return "unchecked"
    q1, q2 = queries_from_key(decode_key(record["key"]))
    boolean_q1, boolean_q2 = to_boolean_pair(q1, q2)
    hom_q1 = count_query_homomorphisms(boolean_q1, rebuilt.database)
    hom_q2 = count_query_homomorphisms(boolean_q2, rebuilt.database)
    if (hom_q1, hom_q2) != (rebuilt.hom_q1, rebuilt.hom_q2):
        raise CertificateError(
            "witness recount disagrees with the stored counts "
            f"(stored {rebuilt.hom_q1}/{rebuilt.hom_q2}, recounted {hom_q1}/{hom_q2})"
        )
    if not hom_q1 > hom_q2:
        raise CertificateError(
            f"witness database does not separate the queries ({hom_q1} ≤ {hom_q2})"
        )
    return "witness"
