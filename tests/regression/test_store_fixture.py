"""Records written before witness renumbering still read and verify.

``store_records_nested_values.jsonl`` is a frozen ``repro cache export``
from the build before witness records were renumbered (see
``generate_store_fixture.py``): nested ``{"t": [...]}`` domain values and
lists sorted by their JSON text.  Importing it must keep every record as it
is, and the audit must accept its evidence.
"""

import io
import json
from pathlib import Path

from repro.core.containment import ContainmentStatus
from repro.store import VerdictStore, verify_store
from repro.store.serialize import decode_key

FIXTURE = Path(__file__).with_name("store_records_nested_values.jsonl")


def _nested_values(value) -> bool:
    if isinstance(value, dict):
        return "t" in value
    if isinstance(value, list):
        return any(_nested_values(item) for item in value)
    return False


def test_fixture_holds_each_kind_of_evidence_in_the_older_encoding():
    records = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    methods = {record["method"] for record in records}
    assert {"theorem-3.1", "witness-search", "no-homomorphism"} <= methods
    witnesses = [r["evidence"]["witness"] for r in records if "witness" in r["evidence"]]
    assert any(_nested_values(witness["facts"]) for witness in witnesses)
    assert any(witness["description"].startswith("product witness") for witness in witnesses)


def test_older_records_import_verify_and_export_byte_identically(tmp_path):
    text = FIXTURE.read_text()
    records = [json.loads(line) for line in text.splitlines()]
    with VerdictStore(str(tmp_path / "store.sqlite")) as store:
        assert store.import_jsonl(io.StringIO(text)) == (len(records), 0)
        report = verify_store(store)
        assert report.ok, report.failures
        assert (report.certificates, report.witnesses, report.unchecked) == (2, 4, 0)
        for record in records:
            result = store.get(decode_key(record["key"]))
            assert result.status is ContainmentStatus(record["status"])
            assert result.method == record["method"]
            if "witness" in record["evidence"]:
                witness = record["evidence"]["witness"]
                assert (result.witness.hom_q1, result.witness.hom_q2) == (
                    witness["hom_q1"],
                    witness["hom_q2"],
                )
            else:
                assert result.verdict.certificate is not None
        exported = io.StringIO()
        store.export_jsonl(exported)
    assert exported.getvalue() == text
