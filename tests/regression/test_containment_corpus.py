"""Replay the frozen containment corpus through every LP solver path.

Every entry of ``containment_corpus.json`` is a pair with a known verdict
(paper examples plus deterministic batch-workload seeds).  The replay runs
each pair through the sequential driver and the batch service on both
``Γn`` LP paths (the dense elemental matrix and row generation, each pinned
with ``tests/lp_paths.py``) — any future solver change that flips a verdict
fails loudly with the pair's name.  Each pair's Eq. (8) Max-II is also
decided by the ``Γn`` LP, even when the pipeline proves it in closed form,
and checked against the one-shot ``linprog`` oracle
(``tests/linprog_oracle.py``), on the sequential path and on the block LP
the batch engine drives, whose valid verdicts carry the Theorem 6.1
certificate read off its duals.

Regenerate (only for deliberate corpus extensions) with::

    PYTHONPATH=src python tests/regression/generate_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import linprog_oracle
import pytest
from lp_paths import PATHS, pin_path

from repro.core import containment
from repro.core.containment import ContainmentStatus, decide_containment
from repro.core.containment_inequality import build_containment_inequality
from repro.core.witness import verify_witness
from repro.cq.decompositions import has_simple_junction_tree, junction_tree
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.reductions import to_boolean_pair
from repro.infotheory.maxiip import decide_max_ii, decide_max_ii_many
from repro.service import decide_containment_many, engine

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


def eq8_inequality(entry):
    """The pair's Eq. (8) inequality as its pipeline builds it, or ``None``
    when ``hom(Q2, Q1)`` is empty.

    Built here rather than read off the pipeline's first ``Γn`` request:
    a pair with an onto homomorphism is proved in closed form and yields no
    request, and these cases check the LP on every pair's Max-II.
    """
    q1, q2 = to_boolean_pair(*load_pair(entry))
    decompositions = [junction_tree(q2)] if has_simple_junction_tree(q2) else None
    inequality = build_containment_inequality(q1, q2, decompositions)
    return None if inequality.is_trivially_false else inequality


GAMMA_ENTRIES = [entry for entry in CORPUS if eq8_inequality(entry) is not None]


def gamma_case(entry):
    """``(max_ii, ground, branches)`` of a ``GAMMA_ENTRIES`` pair, branches over ``ground``."""
    inequality = eq8_inequality(entry)
    max_ii, ground = inequality.as_max_ii(), inequality.ground
    return max_ii, ground, [branch.with_ground(ground) for branch in max_ii.branches]


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


def test_theorem_3_1_refutations_carry_witnesses_built_from_their_lp_points(monkeypatch):
    """No Theorem 3.1 refutation of the corpus falls through to brute force.

    Each one carries the witness built from its violating ``Nn``/``Mn``
    point, and that witness separates the pair when recounted.
    """
    calls = []
    brute_force_refute = containment.brute_force_refute

    def recorded(q1, q2, *args, **kwargs):
        calls.append((q1, q2))
        return brute_force_refute(q1, q2, *args, **kwargs)

    monkeypatch.setattr(containment, "brute_force_refute", recorded)
    refuted = []
    for entry in CORPUS:
        calls.clear()
        q1, q2 = load_pair(entry)
        result = decide_containment(q1, q2)
        if result.method != "theorem-3.1":
            continue
        assert not calls, f"{entry['name']}: the Theorem 3.1 route called brute force"
        if result.status is ContainmentStatus.NOT_CONTAINED:
            refuted.append(entry["name"])
            recounted = verify_witness(*to_boolean_pair(q1, q2), result.witness.database)
            assert recounted is not None, entry["name"]
            assert (recounted.hom_q1, recounted.hom_q2) == (
                result.witness.hom_q1,
                result.witness.hom_q2,
            )
    assert len(refuted) >= 2


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("chunk_size", [1, 32])
def test_batch_replay_matches_frozen_verdicts(path, chunk_size):
    pairs = [load_pair(entry) for entry in CORPUS]
    with pin_path(path), mock.patch.object(engine, "CHUNK_SIZE", chunk_size):
        results = decide_containment_many(pairs)
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
    max_ii, ground, branches = gamma_case(entry)
    with pin_path(path):
        verdict = decide_max_ii(max_ii, over="gamma", ground=ground, seed="containment")
    assert verdict.valid == (linprog_oracle.point_below(ground, branches) is None)
    if not verdict.valid:
        linprog_oracle.assert_point_below(verdict.violating_function, branches)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("entry", GAMMA_ENTRIES, ids=[e["name"] for e in GAMMA_ENTRIES])
def test_block_decision_matches_linprog_oracle(entry, path):
    """The batched path: the block LP's verdict, ``λ`` and proof, or its point."""
    max_ii, ground, branches = gamma_case(entry)
    with pin_path(path):
        (verdict,) = decide_max_ii_many([max_ii], over="gamma", ground=ground, seed="containment")
    assert verdict.valid == (linprog_oracle.point_below(ground, branches) is None)
    linprog_oracle.assert_block_verdict(verdict, ground, branches)
