"""Tests for the durable SQLite verdict store (:mod:`repro.store`)."""

import json
import random
import sqlite3
from pathlib import Path

import pytest

from repro.core.containment import ContainmentStatus, decide_containment
from repro.cq.parser import parse_query
from repro.cq.query import Atom, ConjunctiveQuery
from repro.exceptions import CertificateError, StoreError
from repro.infotheory import cones
from repro.service import BatchOptions, ContainmentService
from repro.service.cache import PlanCache
from repro.service.canonical import pair_key_with_labelings
from repro.store import VerdictStore, build_record, structural_hash, verify_store
from repro.store import serialize
from repro.store.serialize import (
    canonical_json,
    decode_key,
    encode_key,
    queries_from_key,
    validate_record,
)
from repro.workloads.generators import random_chordal_simple_query

CORPUS = Path(__file__).resolve().parents[1] / "regression" / "containment_corpus.json"

TRIANGLE = parse_query("R(x,y), R(y,z), R(z,x)")
VEE = parse_query("R(a,b), R(a,c)")
PATH2 = parse_query("R(x,y), R(y,z)")
EDGE = parse_query("R(a,b)")


def canonical_result(q1, q2):
    """Solve a pair and return (key, canonical-variable result)."""
    key, labelings = pair_key_with_labelings(q1, q2)
    result = decide_containment(q1, q2)
    return key, PlanCache().put(key, result, labelings)


class TestSerialization:
    def test_key_roundtrip(self):
        key, _ = pair_key_with_labelings(TRIANGLE, VEE)
        assert decode_key(json.loads(canonical_json(encode_key(key)))) == key

    def test_queries_from_key_rebuild_the_canonical_pair(self):
        key, _ = pair_key_with_labelings(TRIANGLE, VEE)
        q1, q2 = queries_from_key(key)
        rebuilt, _ = pair_key_with_labelings(q1, q2)
        assert rebuilt == key

    def test_contained_record_carries_certificate(self):
        key, canonical = canonical_result(TRIANGLE, VEE)
        record = build_record(key, canonical)
        assert record["status"] == "contained"
        assert record["evidence"]["certificate"] is not None
        validate_record(json.loads(canonical_json(record)))

    def test_not_contained_record_carries_witness(self):
        key, canonical = canonical_result(PATH2, EDGE)
        record = build_record(key, canonical)
        assert record["status"] == "not_contained"
        witness = record["evidence"]["witness"]
        assert witness["hom_q1"] > witness["hom_q2"]

    def test_validate_record_rejects_wrong_hash(self):
        key, canonical = canonical_result(TRIANGLE, VEE)
        record = build_record(key, canonical)
        record["hash"] = "0" * 64
        with pytest.raises(StoreError):
            validate_record(record)


class TestVerdictStore:
    def test_roundtrip_through_reopen(self, tmp_path):
        key, canonical = canonical_result(TRIANGLE, VEE)
        path = str(tmp_path / "store.sqlite")
        with VerdictStore(path) as store:
            store.record(key, canonical, provenance={"origin": "test"})
        with VerdictStore(path) as store:
            assert store.recovered == 1 and store.dropped == 0
            hit = store.get(key)
            assert hit.status is ContainmentStatus.CONTAINED
            assert hit.method == canonical.method
            assert hit.provenance == "store-hit"
            assert hit.verdict is not None and hit.verdict.certificate is not None

    def test_record_is_first_wins(self, tmp_path):
        key, canonical = canonical_result(TRIANGLE, VEE)
        with VerdictStore(str(tmp_path / "s.sqlite")) as store:
            store.record(key, canonical)
            store.record(key, canonical)
            store.flush()
            assert len(store) == 1
            assert store.appended == 1

    def test_torn_final_record_recovers_longest_valid_prefix(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        keys = []
        with VerdictStore(path) as store:
            for q1, q2 in [(TRIANGLE, VEE), (PATH2, EDGE)]:
                key, canonical = canonical_result(q1, q2)
                keys.append(key)
                store.record(key, canonical)
        # Tear the final record: a crash mid-write leaves a payload whose
        # checksum no longer matches.
        connection = sqlite3.connect(path)
        (last_seq,) = connection.execute("SELECT MAX(seq) FROM log").fetchone()
        connection.execute(
            "UPDATE log SET payload = substr(payload, 1, length(payload) / 2) "
            "WHERE seq = ?",
            (last_seq,),
        )
        connection.commit()
        connection.close()

        with VerdictStore(path) as store:
            assert store.recovered == 1 and store.dropped == 1
            assert store.get(keys[0]) is not None
            assert store.get(keys[1]) is None
            # The recovered prefix is fully intact: the audit flags nothing.
            assert verify_store(store).ok
        # The torn tail was dropped from disk: the next open is clean.
        with VerdictStore(path) as store:
            assert store.recovered == 1 and store.dropped == 0

    def test_corrupt_middle_row_drops_everything_after_it(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        pairs = [(TRIANGLE, VEE), (PATH2, EDGE), (parse_query("R(u,u)"), EDGE)]
        with VerdictStore(path) as store:
            for q1, q2 in pairs:
                key, canonical = canonical_result(q1, q2)
                store.record(key, canonical)
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE log SET checksum = 'bogus' WHERE seq = "
            "(SELECT seq FROM log ORDER BY seq LIMIT 1 OFFSET 1)"
        )
        connection.commit()
        connection.close()
        with VerdictStore(path) as store:
            assert store.recovered == 1 and store.dropped == 2

    def test_intact_row_of_an_unknown_version_refuses_to_open(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        pairs = [(TRIANGLE, VEE), (PATH2, EDGE), (parse_query("R(u,u)"), EDGE)]
        with VerdictStore(path) as store:
            for q1, q2 in pairs:
                key, canonical = canonical_result(q1, q2)
                store.record(key, canonical)
        # A newer build's record: well formed, checksummed, version 2.
        connection = sqlite3.connect(path)
        seq, payload = connection.execute(
            "SELECT seq, payload FROM log ORDER BY seq LIMIT 1 OFFSET 1"
        ).fetchone()
        record = json.loads(payload)
        record["version"] = 2
        payload = canonical_json(record)
        connection.execute(
            "UPDATE log SET payload = ?, checksum = ? WHERE seq = ?",
            (payload, serialize.payload_checksum(payload), seq),
        )
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="version 2"):
            VerdictStore(path)
        connection = sqlite3.connect(path)
        (rows,) = connection.execute("SELECT COUNT(*) FROM log").fetchone()
        connection.close()
        assert rows == 3

    def test_compact_removes_superseded_rows(self, tmp_path):
        key, canonical = canonical_result(TRIANGLE, VEE)
        record = build_record(key, canonical)
        with VerdictStore(str(tmp_path / "s.sqlite")) as store:
            store.append_record(record)
            store.append_record(record)
            store.flush()
            assert store.info()["log_rows"] == 2
            assert store.compact() == 1
            assert store.info()["log_rows"] == 1
            assert len(store) == 1

    def test_import_skips_present_hashes(self, tmp_path):
        key, canonical = canonical_result(TRIANGLE, VEE)
        with VerdictStore(str(tmp_path / "a.sqlite")) as source:
            source.record(key, canonical)
            source.flush()
            import io

            dump = io.StringIO()
            source.export_jsonl(dump)
        with VerdictStore(str(tmp_path / "b.sqlite")) as target:
            dump.seek(0)
            assert target.import_jsonl(dump) == (1, 0)
            dump.seek(0)
            assert target.import_jsonl(dump) == (0, 1)

    def test_closed_store_refuses_writes(self, tmp_path):
        key, canonical = canonical_result(TRIANGLE, VEE)
        store = VerdictStore(str(tmp_path / "s.sqlite"))
        store.close()
        with pytest.raises(StoreError):
            store.record(key, canonical)


def _corpus_query(record):
    parsed = parse_query(record["body"], name=record["name"])
    if record["head"]:
        return ConjunctiveQuery(
            atoms=parsed.atoms, head=tuple(record["head"]), name=record["name"]
        )
    return parsed


def _corpus_pairs():
    corpus = json.loads(CORPUS.read_text())
    return (
        [(_corpus_query(e["q1"]), _corpus_query(e["q2"])) for e in corpus["pairs"]],
        [e["status"] for e in corpus["pairs"]],
    )


@pytest.fixture(scope="module")
def corpus_store(tmp_path_factory):
    """The frozen known-verdict corpus solved once into a store."""
    pairs, expected = _corpus_pairs()
    path = str(tmp_path_factory.mktemp("corpus") / "corpus.sqlite")
    service = ContainmentService(
        BatchOptions(on_error="capture", store_path=path)
    )
    statuses = [result.status.value for result in service.run(pairs).results]
    service.close()
    assert statuses == expected
    return path


class TestCorpusRoundTrip:
    def test_export_import_roundtrips_byte_identically_and_verifies(
        self, corpus_store, tmp_path
    ):
        import io

        with VerdictStore(corpus_store) as store:
            first = io.StringIO()
            store.export_jsonl(first)
            assert verify_store(store).ok
        with VerdictStore(str(tmp_path / "copy.sqlite")) as copy:
            source = io.StringIO(first.getvalue())
            imported, skipped = copy.import_jsonl(source)
            assert skipped == 0 and imported > 0
            second = io.StringIO()
            copy.export_jsonl(second)
            assert second.getvalue() == first.getvalue()
            report = verify_store(copy)
            assert report.ok
            assert report.checked == imported

    def test_restarted_service_replays_corpus_without_solving(self, corpus_store):
        pairs, expected = _corpus_pairs()
        service = ContainmentService(
            BatchOptions(on_error="capture", store_path=corpus_store)
        )
        try:
            report = service.run(pairs)
            assert [r.status.value for r in report.results] == expected
            # Store hits promote their key into the plan cache, so an
            # isomorphic duplicate later in the batch hits the memory tier.
            assert all(
                outcome.source in ("store", "plan-cache", "batch-dedup")
                for outcome in report.outcomes
            )
            assert service.stats.store_hits > 0
            assert service.stats.pipelines_run == 0
        finally:
            service.close()


def tree_pair(arity, seed):
    """A CONTAINED pair over ``arity`` variables.

    ``Q2`` is a random tree of binary atoms and ``Q1`` adds two atoms on its
    variables, so every homomorphism of ``Q1`` is one of ``Q2``.
    """
    rng = random.Random(seed)
    q2 = random_chordal_simple_query(num_cliques=arity - 1, clique_size=2, seed=seed)
    extra = tuple(Atom("R", tuple(rng.sample(q2.variables, 2))) for _ in range(2))
    return ConjunctiveQuery(atoms=q2.atoms + extra, head=(), name="Q1"), q2


class TestHighArityEvidence:
    def test_tree_pairs_record_certificates_that_pass_the_audit(self, tmp_path):
        path = str(tmp_path / "high-arity.sqlite")
        service = ContainmentService(BatchOptions(on_error="capture", store_path=path))
        try:
            results = service.run([tree_pair(8, 5), tree_pair(9, 9)]).results
        finally:
            service.close()
        assert [result.status for result in results] == [ContainmentStatus.CONTAINED] * 2
        with VerdictStore(path) as store:
            evidence = [record["evidence"] for _, record in store.records()]
            report = verify_store(store)
        assert all("note" not in entry for entry in evidence)
        grounds = sorted(len(entry["certificate"]["shannon"]["ground"]) for entry in evidence)
        assert grounds == [8, 9]
        # verify_store re-sums each proof and re-derives it by a Farkas LP.
        assert report.ok and report.certificates == 2


class TestCertificatesFromTheDecision:
    """Store certificates are the ones the block LP's duals hand back; the
    certificate loop only fills in for a verdict that carries none."""

    PAIRS = [(TRIANGLE, VEE), (PATH2, EDGE), tree_pair(8, 5), tree_pair(9, 9)]

    def run_batch(self, path):
        service = ContainmentService(BatchOptions(on_error="capture", store_path=path))
        try:
            statuses = [result.status for result in service.run(self.PAIRS).results]
        finally:
            service.close()
        with VerdictStore(path) as store:
            records = [record for _, record in store.records()]
            report = verify_store(store)
        contained = [r for r in records if r["status"] == "contained"]
        return statuses, contained, report

    def test_records_carry_the_decision_certificates(self, tmp_path, monkeypatch):
        def no_loop(*args, **kwargs):
            raise AssertionError("the store ran the certificate loop")

        monkeypatch.setattr(serialize, "find_convex_certificate", no_loop)
        statuses, contained, report = self.run_batch(str(tmp_path / "duals.sqlite"))
        assert statuses.count(ContainmentStatus.CONTAINED) == 3
        assert len(contained) == 3
        for record in contained:
            assert "note" not in record["evidence"]
            assert record["evidence"]["certificate"] is not None
        assert sorted(
            len(r["evidence"]["certificate"]["shannon"]["ground"]) for r in contained
        ) == [3, 8, 9]
        assert report.ok and report.certificates == 3

    def test_withheld_duals_fall_back_to_the_certificate_loop(
        self, tmp_path, monkeypatch
    ):
        baseline, _, _ = self.run_batch(str(tmp_path / "duals.sqlite"))

        class RejectingProver:
            def proof_from_duals(self, *args, **kwargs):
                raise CertificateError("block duals withheld")

        monkeypatch.setattr(cones, "shannon_prover", lambda ground: RejectingProver())
        loop_calls = []
        loop = serialize.find_convex_certificate

        def counted_loop(*args, **kwargs):
            loop_calls.append(kwargs.get("ground"))
            return loop(*args, **kwargs)

        monkeypatch.setattr(serialize, "find_convex_certificate", counted_loop)
        statuses, contained, report = self.run_batch(str(tmp_path / "loop.sqlite"))
        assert statuses == baseline
        assert len(loop_calls) == len(contained) == 3
        for record in contained:
            assert "note" not in record["evidence"]
            assert record["evidence"]["certificate"] is not None
        assert report.ok and report.certificates == 3


class TestProvenance:
    def test_records_name_the_origin_and_no_lp_knob(self, tmp_path):
        # One LP backend solves everything, and the row count picks each Γn
        # LP path, so provenance names neither.
        path = str(tmp_path / "provenance.sqlite")
        service = ContainmentService(BatchOptions(store_path=path))
        try:
            service.run([(TRIANGLE, VEE), (PATH2, EDGE)])
        finally:
            service.close()
        with VerdictStore(path) as store:
            provenance = [record["provenance"] for _, record in store.records()]
        assert [entry["origin"] for entry in provenance] == ["containment-service"] * 2
        assert not any("backend" in entry or "lp_method" in entry for entry in provenance)


class TestLifecycle:
    """Close/flush lifecycle: rows recorded since the last flush must
    survive a close-then-reopen, with or without the context manager."""

    def test_close_flushes_buffered_rows(self, tmp_path):
        path = str(tmp_path / "lifecycle.sqlite")
        key, canonical = canonical_result(TRIANGLE, VEE)
        store = VerdictStore(path)
        store.record(key, canonical)
        # Deliberately no flush(): close() must not discard the buffer.
        store.close()

        reopened = VerdictStore(path)
        try:
            assert reopened.recovered == 1
            assert key in reopened
            assert reopened.get(key).status == canonical.status
        finally:
            reopened.close()

    def test_context_manager_flushes_on_exit(self, tmp_path):
        path = str(tmp_path / "ctx.sqlite")
        key, canonical = canonical_result(PATH2, EDGE)
        with VerdictStore(path) as store:
            store.record(key, canonical)
        with VerdictStore(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get(key).status == canonical.status

    def test_context_manager_flushes_even_when_the_body_raises(self, tmp_path):
        path = str(tmp_path / "raise.sqlite")
        key, canonical = canonical_result(TRIANGLE, VEE)
        with pytest.raises(RuntimeError):
            with VerdictStore(path) as store:
                store.record(key, canonical)
                raise RuntimeError("caller bug")
        with VerdictStore(path) as reopened:
            assert len(reopened) == 1

    def test_close_is_idempotent_and_seals_the_handle(self, tmp_path):
        store = VerdictStore(str(tmp_path / "seal.sqlite"))
        store.close()
        store.close()  # second close is a no-op, not an error
        key, canonical = canonical_result(TRIANGLE, VEE)
        with pytest.raises(StoreError):
            store.record(key, canonical)

    def test_failed_open_does_not_leak_the_connection(self, tmp_path, monkeypatch):
        # If the open-time replay blows up, __init__ never returns a handle,
        # so the constructor itself must close the SQLite connection.
        path = str(tmp_path / "broken.sqlite")
        VerdictStore(path).close()  # create a valid store file first
        closed = {}

        def exploding_replay(self):
            closed["conn"] = self._connection
            raise StoreError("synthetic replay failure")

        monkeypatch.setattr(VerdictStore, "_replay", exploding_replay)
        with pytest.raises(StoreError, match="synthetic replay failure"):
            VerdictStore(path)
        # A closed sqlite3 connection refuses further use.
        with pytest.raises(sqlite3.ProgrammingError):
            closed["conn"].execute("SELECT 1")
