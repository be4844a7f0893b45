"""The durable verdict store: an append-only SQLite log of containment records.

Layout
------
One table::

    log(seq INTEGER PRIMARY KEY AUTOINCREMENT,
        hash TEXT NOT NULL,          -- structural hash of the canonical key
        checksum TEXT NOT NULL,      -- sha256 of payload (torn-write guard)
        payload TEXT NOT NULL)       -- canonical JSON of the record

The log is append-only: :meth:`VerdictStore.record` keeps the first record
per hash, appending a record whose hash is present adds a new row, and
replay takes the *latest* row per hash, so a crash between append and flush
can never corrupt an older verdict.  :meth:`VerdictStore.compact` rewrites
the log down to one row per hash.

Durability & recovery
---------------------
The database runs with ``journal_mode=WAL`` and ``synchronous=NORMAL`` —
writes survive process kills, and a torn final record (power loss mid-write,
a partially imported row) is detected via the per-row checksum: replay stops
incorporating rows at the first row whose checksum fails or whose payload is
not JSON, and the store continues from the longest valid prefix, reporting
the dropped tail in :attr:`VerdictStore.dropped` / :meth:`VerdictStore.info`.
A row that is intact but that this build cannot read (a record of another
version, say) is not torn: opening the store raises :class:`StoreError` and
leaves every row on disk.

Writes are batched: :meth:`record` buffers rows and :meth:`flush` commits
them in one transaction (the service flushes once per batch, not per pair).
The handle is thread-safe — daemon handler threads share one store under an
internal lock.

Recovery semantics, merge semantics, and the operator CLI are documented in
``docs/operations.md``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.containment import ContainmentResult
from repro.exceptions import StoreError
from repro.service.canonical import PairKey
from repro.store.serialize import (
    build_record,
    canonical_json,
    decode_key,
    payload_checksum,
    result_from_record,
    structural_hash,
    validate_record,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS log (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    hash TEXT NOT NULL,
    checksum TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS log_hash ON log (hash);
"""


class VerdictStore:
    """Append-only durable store of containment verdicts and certificates.

    Opening a store replays the log deterministically: rows are read in
    ``seq`` order, each is checksum- and structure-validated, and the latest
    valid record per structural hash becomes the in-memory index.  Rows from
    the first torn one (checksum mismatch, payload not JSON) onward are
    dropped (longest-valid-prefix recovery); the count is exposed as
    :attr:`dropped`.  An intact row that fails validation makes the open
    raise :class:`StoreError` and drops nothing.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        self._pending: List[Tuple[str, str, str]] = []
        self._closed = False
        #: Records recovered into the index on open.
        self.recovered = 0
        #: Rows dropped on open (torn/corrupt tail of the log).
        self.dropped = 0
        #: Lifetime appends through this handle.
        self.appended = 0
        try:
            self._connection = sqlite3.connect(
                self.path, check_same_thread=False, isolation_level=None
            )
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.executescript(_SCHEMA)
        except sqlite3.Error as error:
            raise StoreError(f"cannot open verdict store at {self.path!r}: {error}") from error
        #: hash -> (payload string, parsed record).  Payloads are kept
        #: verbatim so exports round-trip byte-identically.
        self._index: Dict[str, Tuple[str, Dict[str, object]]] = {}
        try:
            self._replay()
        except BaseException:
            # A half-constructed store must not leak its SQLite handle: the
            # caller never receives the object, so nothing else can close it.
            self._closed = True
            self._connection.close()
            raise

    # ------------------------------------------------------------------ #
    # Open-time replay
    # ------------------------------------------------------------------ #
    def _replay(self) -> None:
        try:
            rows = self._connection.execute(
                "SELECT seq, hash, checksum, payload FROM log ORDER BY seq"
            ).fetchall()
        except sqlite3.Error as error:
            raise StoreError(f"verdict store at {self.path!r} is unreadable: {error}") from error
        valid: List[Tuple[str, str, Dict[str, object]]] = []
        first_bad: Optional[int] = None
        for seq, hash_, checksum, payload in rows:
            record = self._validate_row(seq, hash_, checksum, payload)
            if record is None:
                first_bad = seq
                break
            valid.append((hash_, payload, record))
        if first_bad is not None:
            self.dropped = sum(1 for row in rows if row[0] >= first_bad)
            # Drop the torn tail from disk so the next open starts clean.
            self._connection.execute("DELETE FROM log WHERE seq >= ?", (first_bad,))
        for hash_, payload, record in valid:
            self._index[hash_] = (payload, record)
        self.recovered = len(valid)

    def _validate_row(
        self, seq: int, hash_: str, checksum: str, payload: str
    ) -> Optional[Dict[str, object]]:
        """The row's record; ``None`` when the row is torn.

        A torn row fails its checksum or does not parse.  An intact row that
        fails validation raises :class:`StoreError` instead: it was written
        whole, by a build that this one cannot follow, and dropping it would
        delete good records.
        """
        if not isinstance(payload, str) or payload_checksum(payload) != checksum:
            return None
        try:
            record = json.loads(payload)
        except ValueError:
            return None
        try:
            validate_record(record)
            if record["hash"] != hash_:
                raise StoreError(f"row hash {hash_!r} does not match its record")
        except StoreError as error:
            raise StoreError(
                f"verdict store at {self.path!r}: log row {seq} is intact but "
                f"unreadable: {error}"
            ) from None
        return record

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: PairKey) -> bool:
        with self._lock:
            return structural_hash(key) in self._index

    def get(self, key: PairKey) -> Optional[ContainmentResult]:
        """The stored canonical-variable result for ``key``, if any."""
        with self._lock:
            entry = self._index.get(structural_hash(key))
        if entry is None:
            return None
        return result_from_record(entry[1])

    def get_record(self, key: PairKey) -> Optional[Dict[str, object]]:
        with self._lock:
            entry = self._index.get(structural_hash(key))
        return None if entry is None else entry[1]

    def records(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """``(hash, record)`` pairs in insertion (replay) order."""
        with self._lock:
            return iter(
                [(hash_, record) for hash_, (_payload, record) in self._index.items()]
            )

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def record(
        self,
        key: PairKey,
        result: ContainmentResult,
        provenance: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Serialize and buffer one canonical result (see :meth:`flush`).

        Re-recording a hash already present is a no-op that returns the
        stored record: the first record wins and is never replaced, even by
        one that carries evidence it lacks.
        """
        hash_ = structural_hash(key)
        with self._lock:
            if hash_ in self._index:
                return self._index[hash_][1]
        record = build_record(key, result, provenance)
        self.append_record(record)
        return record

    def append_record(self, record: Dict[str, object]) -> None:
        """Buffer one already-built record (validated) for the next flush."""
        validate_record(record)
        payload = canonical_json(record)
        with self._lock:
            self._check_open()
            self._index[record["hash"]] = (payload, record)
            self._pending.append((record["hash"], payload_checksum(payload), payload))

    def flush(self) -> int:
        """Commit buffered records in one transaction; returns rows written."""
        with self._lock:
            self._check_open()
            if not self._pending:
                return 0
            pending, self._pending = self._pending, []
            try:
                self._connection.execute("BEGIN")
                self._connection.executemany(
                    "INSERT INTO log (hash, checksum, payload) VALUES (?, ?, ?)",
                    pending,
                )
                self._connection.execute("COMMIT")
            except sqlite3.Error as error:
                self._connection.execute("ROLLBACK")
                self._pending = pending + self._pending
                raise StoreError(f"verdict store flush failed: {error}") from error
            self.appended += len(pending)
            return len(pending)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                self.flush()
            finally:
                self._closed = True
                self._connection.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("verdict store is closed")

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Operator surface
    # ------------------------------------------------------------------ #
    def export_jsonl(self, stream) -> int:
        """Write every indexed record to ``stream`` as one JSON line each.

        Lines are the stored canonical payloads verbatim, so
        export → import → export is byte-identical.
        """
        count = 0
        for _, (payload, _record) in self._iter_entries():
            stream.write(payload)
            stream.write("\n")
            count += 1
        return count

    def import_jsonl(self, stream) -> Tuple[int, int]:
        """Merge records from a JSONL export; returns ``(imported, skipped)``.

        Records whose hash is already present are skipped (the store is
        append-only and first-wins); invalid lines raise :class:`StoreError`.
        """
        imported = skipped = 0
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise StoreError(f"import line {number} is not valid JSON: {error}") from error
            validate_record(record)
            with self._lock:
                if record["hash"] in self._index:
                    skipped += 1
                    continue
            self.append_record(record)
            imported += 1
        self.flush()
        return imported, skipped

    def compact(self) -> int:
        """Rewrite the log to one row per hash; returns rows removed."""
        with self._lock:
            self._check_open()
            self.flush()
            (total,) = self._connection.execute("SELECT COUNT(*) FROM log").fetchone()
            removed = total - len(self._index)
            try:
                self._connection.execute("BEGIN")
                self._connection.execute("DELETE FROM log")
                self._connection.executemany(
                    "INSERT INTO log (hash, checksum, payload) VALUES (?, ?, ?)",
                    [
                        (hash_, payload_checksum(payload), payload)
                        for hash_, (payload, _record) in self._index.items()
                    ],
                )
                self._connection.execute("COMMIT")
            except sqlite3.Error as error:
                self._connection.execute("ROLLBACK")
                raise StoreError(f"verdict store compaction failed: {error}") from error
            self._connection.execute("VACUUM")
            return removed

    def info(self) -> Dict[str, object]:
        with self._lock:
            self._check_open()
            (rows,) = self._connection.execute("SELECT COUNT(*) FROM log").fetchone()
            statuses: Dict[str, int] = {}
            certificates = witnesses = 0
            for _payload, record in self._index.values():
                statuses[record["status"]] = statuses.get(record["status"], 0) + 1
                evidence = record.get("evidence") or {}
                certificates += evidence.get("certificate") is not None
                witnesses += evidence.get("witness") is not None
            return {
                "path": self.path,
                "entries": len(self._index),
                "log_rows": rows,
                "pending": len(self._pending),
                "recovered": self.recovered,
                "dropped": self.dropped,
                "statuses": statuses,
                "certificates": certificates,
                "witnesses": witnesses,
            }

    def keys(self) -> Iterator[PairKey]:
        for _, (_payload, record) in self._iter_entries():
            yield decode_key(record["key"])

    def _iter_entries(self):
        with self._lock:
            return iter(list(self._index.items()))
