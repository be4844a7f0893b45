"""Replay the frozen containment corpus through every LP solver path.

Every entry of ``containment_corpus.json`` is a pair with a known verdict
(paper examples plus deterministic batch-workload seeds).  The replay runs
each pair through the sequential driver and the batch service across
``lp_method`` (dense / rowgen) *and* ``lp_backend`` (scipy's ``linprog`` /
the warm-started HiGHS model) — any future solver change that flips a
verdict fails loudly with the pair's name.

Regenerate (only for deliberate corpus extensions) with::

    PYTHONPATH=src python tests/regression/generate_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.containment import decide_containment
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.service import decide_containment_many

CORPUS_PATH = Path(__file__).with_name("containment_corpus.json")
CORPUS = json.loads(CORPUS_PATH.read_text())["pairs"]

BACKENDS = ["scipy", "highs"]


def deserialize_query(record) -> ConjunctiveQuery:
    parsed = parse_query(record["body"], name=record["name"])
    if record["head"]:
        return ConjunctiveQuery(
            atoms=parsed.atoms, head=tuple(record["head"]), name=record["name"]
        )
    return parsed


def load_pair(entry):
    return deserialize_query(entry["q1"]), deserialize_query(entry["q2"])


def test_corpus_is_intact():
    assert len(CORPUS) >= 20
    statuses = {entry["status"] for entry in CORPUS}
    # A corpus of *known* verdicts: both outcomes represented, no unknowns.
    assert statuses == {"contained", "not_contained"}


@pytest.mark.parametrize("lp_backend", BACKENDS)
@pytest.mark.parametrize("lp_method", ["dense", "rowgen"])
@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_sequential_replay_matches_frozen_verdict(entry, lp_method, lp_backend):
    q1, q2 = load_pair(entry)
    result = decide_containment(q1, q2, lp_method=lp_method, lp_backend=lp_backend)
    assert result.status.value == entry["status"], (
        f"{entry['name']}: frozen {entry['status']!r} but {lp_method}/{lp_backend} "
        f"path returned {result.status.value!r}"
    )


@pytest.mark.parametrize("lp_backend", BACKENDS)
@pytest.mark.parametrize("lp_method", ["dense", "rowgen"])
@pytest.mark.parametrize("chunk_size", [1, 32])
def test_batch_replay_matches_frozen_verdicts(lp_method, chunk_size, lp_backend):
    pairs = [load_pair(entry) for entry in CORPUS]
    results = decide_containment_many(
        pairs, lp_method=lp_method, chunk_size=chunk_size, lp_backend=lp_backend
    )
    got = [result.status.value for result in results]
    expected = [entry["status"] for entry in CORPUS]
    mismatches = [
        (entry["name"], want, have)
        for entry, want, have in zip(CORPUS, expected, got)
        if want != have
    ]
    assert not mismatches, f"verdict flips: {mismatches}"
