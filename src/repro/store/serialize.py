"""Canonical JSON serialization of store records.

A store record is one verdict for one canonical pair key: the status and
method, provenance (who solved it, with which LP method, how long it took) and
the *evidence* — a serialized Farkas certificate for CONTAINED verdicts
decided over ``Γn`` (the Theorem 6.1 convex multipliers plus the Shannon
proof of the combined inequality) and a serialized counterexample witness
for NOT_CONTAINED verdicts.  Everything is stored over the canonical
variable names ``c0, c1, ...`` of the key's labeling, so a record is
machine-independent and answers every isomorphic pair.

A batch-engine verdict arrives with its certificate already attached,
read off the duals of the block LP that decided it, and the record just
serializes it.  Only a verdict without one (a sequential
``decide_containment`` result, or a block whose duals failed the proof
check) runs the certificate loop at record time (see :func:`build_record`).

Records are rendered with :func:`canonical_json` (sorted keys, minimal
separators), which makes the on-disk payload — and therefore checksums,
exports and the export → import → export round trip — byte-deterministic.

Witness databases range over *domain values*, not variables, and a record
stores an isomorphic copy of the witness, not its values.  The database's
distinct values (the nested tuples of the normal-witness construction, say)
are renumbered ``0 .. m-1`` in a canonical order that depends only on the
values, never on hash salts; facts and the head tuple become id tuples, and
the witness relation's rows are renumbered the same way over their own
values.  The copy keeps the fact count, the domain size (isolated values
included), the relation's row count and both homomorphism counts, so an
audit recounts it unchanged and a store hit reports the same witness size.
Facts, rows and the terms of expressions and elementals are sorted as
tuples (a subset by its sorted variables, then its coefficient).

Records written before witnesses were renumbered kept the original values,
with tuples encoded as ``{"t": [...]}`` objects, and sorted every list by
its JSON text; the readers here accept both encodings, and a build that
only knows the older one reads the renumbered records too.

This format is also the ``repro cache export``/``import`` interchange
format (byte-identical round trips) — see ``docs/operations.md``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.containment import (
    ContainmentResult,
    ContainmentStatus,
)
from repro.core.convex_certificate import find_convex_certificate
from repro.core.witness import WitnessDatabase
from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.structures import Relation, Structure
from repro.exceptions import StoreError
from repro.infotheory.expressions import LinearExpression
from repro.infotheory.maxiip import MaxIIVerdict
from repro.infotheory.polymatroid import ElementalInequality, describe_elemental
from repro.infotheory.shannon import ShannonCertificate
from repro.service.canonical import PairKey

#: Bumped on incompatible record-layout changes.
RECORD_VERSION = 1

#: Largest ground-set size for which a record carries a Farkas certificate
#: (the Shannon proof ranges over ``2^n - 1`` coordinates, and a verdict
#: without one has it computed at record time).
CERTIFICATE_MAX_GROUND = 10


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: object) -> str:
    """The one true JSON rendering of a record (sorted keys, no whitespace)."""
    return _ENCODER.encode(payload)


def payload_checksum(payload: str) -> str:
    """The sha256 hex digest guarding one log row against torn writes."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Keys
# ---------------------------------------------------------------------- #
def encode_key(key: PairKey) -> List:
    """The canonical pair key as JSON-ready nested lists."""
    return _tuples_to_lists(key)


def decode_key(encoded) -> PairKey:
    """Inverse of :func:`encode_key` (lists back to hashable tuples)."""
    return _lists_to_tuples(encoded)


def structural_hash(key: PairKey) -> str:
    """The structural hash a record is keyed by: sha256 of the canonical key.

    ``key`` may be the tuple key or its encoded lists: JSON writes both alike.
    """
    return hashlib.sha256(canonical_json(key).encode("utf-8")).hexdigest()


def queries_from_key(key: PairKey) -> Tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """Rebuild the canonical query pair a key serializes.

    The key *is* the pair under the canonical labeling, so the store can
    re-derive the queries for certificate and witness audits without storing
    them separately.
    """
    queries = []
    for side, (atoms, head) in enumerate(key):
        queries.append(
            ConjunctiveQuery(
                atoms=tuple(
                    Atom(relation, tuple(f"c{index}" for index in indices))
                    for relation, indices in atoms
                ),
                head=tuple(f"c{index}" for index in head),
                name=f"canonical-q{side + 1}",
            )
        )
    return queries[0], queries[1]


def _tuples_to_lists(value):
    if isinstance(value, tuple):
        return [_tuples_to_lists(item) for item in value]
    return value


def _lists_to_tuples(value):
    if isinstance(value, list):
        return tuple(_lists_to_tuples(item) for item in value)
    return value


# ---------------------------------------------------------------------- #
# Domain values
# ---------------------------------------------------------------------- #
def _order_key(value):
    """The canonical sort key of one witness domain value.

    ``None`` sorts first, then numbers, strings and tuples (item by item),
    so values of different types never compare; any other type raises
    :class:`StoreError`.
    """
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, tuple):
        return (3, tuple(_order_key(item) for item in value))
    if isinstance(value, (int, float)):
        return (1, value)
    if value is None:
        return (0,)
    raise StoreError(
        f"cannot serialize witness domain value of type {type(value).__name__}"
    )


def _renumbering(values) -> Dict[object, int]:
    """Ids ``0 .. m-1`` for distinct ``values``, in canonical order."""
    return {value: index for index, value in enumerate(sorted(values, key=_order_key))}


def decode_value(value):
    """One stored domain value: an id, or an older record's ``{"t": [...]}``."""
    if isinstance(value, dict):
        return tuple(decode_value(item) for item in value.get("t", ()))
    return value


# ---------------------------------------------------------------------- #
# Witnesses
# ---------------------------------------------------------------------- #
def serialize_witness(witness: WitnessDatabase) -> Dict[str, object]:
    """The witness over renumbered domains (see the module docstring)."""
    database = witness.database
    head = witness.head_tuple
    ids = _renumbering(database.domain.union(head) if head is not None else database.domain)
    facts = sorted(
        (name, tuple(ids[value] for value in row))
        for name, rows in database.relations.items()
        for row in rows
    )
    relation = None
    if witness.relation is not None:
        rows = witness.relation.rows
        row_ids = _renumbering({value for row in rows for value in row})
        relation = {
            "attributes": list(witness.relation.attributes),
            "rows": sorted(tuple(row_ids[value] for value in row) for row in rows),
        }
    return {
        "facts": facts,
        "domain": sorted(ids[value] for value in database.domain),
        "hom_q1": witness.hom_q1,
        "hom_q2": witness.hom_q2,
        "head_tuple": None if head is None else [ids[value] for value in head],
        "description": witness.description,
        "relation": relation,
    }


def deserialize_witness(record: Dict[str, object]) -> WitnessDatabase:
    database = Structure.from_facts(
        [
            (name, tuple(decode_value(v) for v in row))
            for name, row in record["facts"]
        ],
        domain=[decode_value(v) for v in record["domain"]],
    )
    relation = None
    if record.get("relation") is not None:
        relation = Relation(
            attributes=tuple(record["relation"]["attributes"]),
            rows=frozenset(
                tuple(decode_value(v) for v in row)
                for row in record["relation"]["rows"]
            ),
        )
    head_tuple = record.get("head_tuple")
    return WitnessDatabase(
        database=database,
        hom_q1=int(record["hom_q1"]),
        hom_q2=int(record["hom_q2"]),
        relation=relation,
        head_tuple=None if head_tuple is None else tuple(decode_value(v) for v in head_tuple),
        description=str(record.get("description", "")),
    )


# ---------------------------------------------------------------------- #
# Expressions and certificates
# ---------------------------------------------------------------------- #
def _sorted_terms(terms) -> List:
    """``(subset, coefficient)`` terms as ``(sorted subset, coefficient)``,
    sorted by subset, then coefficient."""
    return sorted((sorted(subset), coefficient) for subset, coefficient in terms)


def serialize_expression(expression: LinearExpression) -> List:
    return _sorted_terms(expression.coefficients.items())


def deserialize_expression(encoded, ground: Tuple[str, ...]) -> LinearExpression:
    return LinearExpression(
        ground=ground,
        coefficients={
            frozenset(subset): float(coefficient) for subset, coefficient in encoded
        },
    )


def serialize_certificate(
    lambdas: Sequence[float],
    shannon: ShannonCertificate,
    branches: List[LinearExpression],
) -> Dict[str, object]:
    return {
        "lambdas": [float(value) for value in lambdas],
        "branches": [serialize_expression(branch) for branch in branches],
        "shannon": {
            "ground": list(shannon.ground),
            "multipliers": [
                {
                    "kind": elemental.kind,
                    "coefficients": _sorted_terms(elemental.coefficients),
                    "multiplier": float(multiplier),
                }
                for elemental, multiplier in shannon.multipliers
            ],
        },
    }


def deserialize_shannon_certificate(record: Dict[str, object]) -> ShannonCertificate:
    multipliers = []
    for entry in record["multipliers"]:
        coefficients = tuple(
            (frozenset(subset), float(coefficient))
            for subset, coefficient in entry["coefficients"]
        )
        multipliers.append(
            (
                ElementalInequality(
                    kind=str(entry["kind"]),
                    coefficients=coefficients,
                    description=describe_elemental(str(entry["kind"]), coefficients),
                ),
                float(entry["multiplier"]),
            )
        )
    return ShannonCertificate(
        ground=tuple(record["ground"]), multipliers=tuple(multipliers)
    )


# ---------------------------------------------------------------------- #
# Whole records
# ---------------------------------------------------------------------- #
def build_record(
    key: PairKey,
    result: ContainmentResult,
    provenance: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Serialize one *canonical* result into a store record.

    ``result`` must already be in canonical variables (the plan cache's
    stored form).  CONTAINED verdicts with an Eq. (8) inequality persist a
    Theorem 6.1 Farkas certificate, so the stored verdict is independently
    re-checkable forever after: the ``λ`` and Shannon proof the verdict
    carries (the batch engine's block LP reads them off its duals), or,
    for a verdict without them, one computed here by
    :func:`~repro.core.convex_certificate.find_convex_certificate` (the
    sequential ``decide_containment`` path, and any block whose duals
    failed the proof check).  NOT_CONTAINED verdicts persist their
    counterexample witness instead.
    """
    evidence: Dict[str, object] = {}
    if result.witness is not None:
        try:
            evidence["witness"] = serialize_witness(result.witness)
        except StoreError as error:
            evidence["note"] = f"witness not serialized: {error}"
    certificate_record, note = _certificate_evidence(result)
    if certificate_record is not None:
        evidence["certificate"] = certificate_record
    if note is not None:
        evidence["note"] = note
    record: Dict[str, object] = {
        "version": RECORD_VERSION,
        "hash": structural_hash(key),
        "key": encode_key(key),
        "status": result.status.value,
        "method": result.method,
        "provenance": dict(provenance or {}),
        "evidence": evidence,
    }
    return record


def _certificate_evidence(
    result: ContainmentResult,
) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
    if result.status is not ContainmentStatus.CONTAINED:
        return None, None
    inequality = result.inequality
    if inequality is None or inequality.is_trivially_false:
        return None, None
    if len(inequality.ground) > CERTIFICATE_MAX_GROUND:
        return None, (
            f"certificate skipped: ground set of {len(inequality.ground)} exceeds "
            f"the limit of {CERTIFICATE_MAX_GROUND}"
        )
    branches = inequality.branch_expressions()
    verdict = result.verdict
    if verdict is not None and verdict.certificate is not None and verdict.lambdas is not None:
        return serialize_certificate(verdict.lambdas, verdict.certificate, branches), None
    try:
        certificate = find_convex_certificate(
            inequality.as_max_ii().branches,
            ground=inequality.ground,
            with_shannon_proof=True,
        )
    except Exception as error:  # noqa: BLE001 - recording must never kill a solve
        return None, f"certificate computation failed: {error!r}"
    if certificate is None or certificate.shannon_certificate is None:
        return None, "certificate unavailable: the Theorem 6.1 LP found no proof"
    return (
        serialize_certificate(
            certificate.lambdas, certificate.shannon_certificate, branches
        ),
        None,
    )


def result_from_record(record: Dict[str, object]) -> ContainmentResult:
    """Rebuild a canonical-variable :class:`ContainmentResult` from a record.

    The rebuilt result carries the witness and (via a ``Γn`` verdict) the
    Shannon certificate; the full Eq. (8) inequality object is not persisted
    — ``details["store"]`` records the hash and method provenance instead.
    """
    evidence = record.get("evidence") or {}
    witness = None
    if evidence.get("witness") is not None:
        witness = deserialize_witness(evidence["witness"])
    verdict = None
    certificate = evidence.get("certificate")
    if certificate is not None:
        verdict = MaxIIVerdict(
            valid=True,
            cone="gamma",
            certificate=deserialize_shannon_certificate(certificate["shannon"]),
            lambdas=tuple(float(value) for value in certificate["lambdas"]),
        )
    return ContainmentResult(
        status=ContainmentStatus(record["status"]),
        method=str(record["method"]),
        witness=witness,
        verdict=verdict,
        details={
            "store": {
                "hash": record["hash"],
                "provenance": dict(record.get("provenance") or {}),
            }
        },
        provenance="store-hit",
    )


def validate_record(record: Dict[str, object]) -> None:
    """Cheap structural validation applied to appended and imported records."""
    if not isinstance(record, dict):
        raise StoreError("a store record must be a JSON object")
    for field in ("version", "hash", "key", "status", "method"):
        if field not in record:
            raise StoreError(f"store record is missing the {field!r} field")
    if record["version"] != RECORD_VERSION:
        raise StoreError(
            f"unsupported store record version {record['version']!r} "
            f"(this build writes version {RECORD_VERSION})"
        )
    try:
        ContainmentStatus(record["status"])
    except ValueError:
        raise StoreError(f"unknown verdict status {record['status']!r}") from None
    expected = structural_hash(record["key"])
    if record["hash"] != expected:
        raise StoreError(
            "store record hash does not match its key "
            f"({record['hash']!r} != {expected!r})"
        )
