"""Replay the frozen containment corpus through every LP solver path.

Every entry of ``containment_corpus.json`` is a pair with a known verdict
(paper examples plus deterministic batch-workload seeds).  The replay runs
each pair through the sequential driver and the batch service on both
``Γn`` LP paths (the dense elemental matrix and row generation, each pinned
with ``tests/lp_paths.py``) — any future solver change that flips a verdict
fails loudly with the pair's name.  Each pair's ``Γn`` decision is also checked against the one-shot
``linprog`` oracle (``tests/linprog_oracle.py``), on the sequential path
and on the block LP the batch engine drives, whose valid verdicts carry
the Theorem 6.1 certificate read off its duals.

Regenerate (only for deliberate corpus extensions) with::

    PYTHONPATH=src python tests/regression/generate_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

import linprog_oracle
import pytest
from lp_paths import PATHS, pin_path

from repro.core.containment import containment_pipeline, decide_containment
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.infotheory.maxiip import decide_max_ii, decide_max_ii_many
from repro.service import decide_containment_many

CORPUS_PATH = Path(__file__).with_name("containment_corpus.json")
CORPUS = json.loads(CORPUS_PATH.read_text())["pairs"]


def deserialize_query(record) -> ConjunctiveQuery:
    parsed = parse_query(record["body"], name=record["name"])
    if record["head"]:
        return ConjunctiveQuery(
            atoms=parsed.atoms, head=tuple(record["head"]), name=record["name"]
        )
    return parsed


def load_pair(entry):
    return deserialize_query(entry["q1"]), deserialize_query(entry["q2"])


def gamma_request(entry):
    """The pair's first cone-decision request when it is over ``Γn``, else ``None``."""
    pipeline = containment_pipeline(*load_pair(entry))
    try:
        request = next(pipeline)
    except StopIteration:
        return None
    pipeline.close()
    return request if request.over == "gamma" else None


GAMMA_ENTRIES = [entry for entry in CORPUS if gamma_request(entry) is not None]


def gamma_case(entry):
    """``(request, ground, branches)`` of a ``GAMMA_ENTRIES`` pair, branches over ``ground``."""
    request = gamma_request(entry)
    ground = request.ground
    return request, ground, [branch.with_ground(ground) for branch in request.max_ii.branches]


def test_corpus_is_intact():
    assert len(CORPUS) >= 20
    statuses = {entry["status"] for entry in CORPUS}
    # A corpus of *known* verdicts: both outcomes represented, no unknowns.
    assert statuses == {"contained", "not_contained"}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_sequential_replay_matches_frozen_verdict(entry, path):
    q1, q2 = load_pair(entry)
    with pin_path(path):
        result = decide_containment(q1, q2)
    assert result.status.value == entry["status"], (
        f"{entry['name']}: frozen {entry['status']!r} but {path} "
        f"path returned {result.status.value!r}"
    )


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("chunk_size", [1, 32])
def test_batch_replay_matches_frozen_verdicts(path, chunk_size):
    pairs = [load_pair(entry) for entry in CORPUS]
    with pin_path(path):
        results = decide_containment_many(pairs, chunk_size=chunk_size)
    got = [result.status.value for result in results]
    expected = [entry["status"] for entry in CORPUS]
    mismatches = [
        (entry["name"], want, have)
        for entry, want, have in zip(CORPUS, expected, got)
        if want != have
    ]
    assert not mismatches, f"verdict flips: {mismatches}"


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("entry", GAMMA_ENTRIES, ids=[e["name"] for e in GAMMA_ENTRIES])
def test_gamma_decision_matches_linprog_oracle(entry, path):
    request, ground, branches = gamma_case(entry)
    with pin_path(path):
        verdict = decide_max_ii(request.max_ii, over="gamma", ground=ground, seed=request.seed)
    assert verdict.valid == (linprog_oracle.point_below(ground, branches) is None)
    if not verdict.valid:
        linprog_oracle.assert_point_below(verdict.violating_function, branches)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("entry", GAMMA_ENTRIES, ids=[e["name"] for e in GAMMA_ENTRIES])
def test_block_decision_matches_linprog_oracle(entry, path):
    """The batched path: the block LP's verdict, ``λ`` and proof, or its point."""
    request, ground, branches = gamma_case(entry)
    with pin_path(path):
        (verdict,) = decide_max_ii_many(
            [request.max_ii], over="gamma", ground=ground, seed=request.seed
        )
    assert verdict.valid == (linprog_oracle.point_below(ground, branches) is None)
    linprog_oracle.assert_block_verdict(verdict, ground, branches)
