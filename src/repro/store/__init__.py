"""Durable verdict & certificate store behind the plan cache.

An append-only SQLite log of containment verdicts keyed by the structural
hash of the canonical pair key.  Each record persists the verdict, the
deciding method, provenance (origin, LP method, timings) and self-contained
evidence — a Theorem 6.1 Farkas certificate for CONTAINED verdicts, a
counterexample witness database for NOT_CONTAINED ones — all expressed over
the canonical ``c0, c1, ...`` variables, so one record answers every
isomorphic pair and can be re-audited forever without re-running the LP.

* :class:`VerdictStore` — the store handle (WAL journaling, batched flush,
  checksum-guarded longest-valid-prefix recovery, export/import/compact).
* :func:`verify_store` — solver-independent re-verification of every stored
  certificate and witness (``repro cache verify``).
* :mod:`repro.store.serialize` — the canonical JSON record format.

Consistency invariant: records are **first-wins** — re-deciding a known
hash never rewrites history, which makes peer-store merges (``export`` |
``import``, used by fleet re-warming) idempotent and order-free.  The
operator runbook is ``docs/operations.md``.
"""

from repro.store.audit import AuditReport, verify_store
from repro.store.serialize import (
    RECORD_VERSION,
    build_record,
    queries_from_key,
    result_from_record,
    structural_hash,
)
from repro.store.sqlite_store import VerdictStore

__all__ = [
    "AuditReport",
    "RECORD_VERSION",
    "VerdictStore",
    "build_record",
    "queries_from_key",
    "result_from_record",
    "structural_hash",
    "verify_store",
]
