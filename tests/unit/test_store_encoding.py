"""Witness records over renumbered domains, and the one-pass ``to_linear``.

A stored witness is an isomorphic copy of the refuting database: its values
are renumbered, everything a re-check needs (fact count, domain size,
relation rows, homomorphism counts) is kept, and the bytes written depend on
the witness alone, never on the interpreter's hash salt.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.containment import ContainmentResult, ContainmentStatus
from repro.core.witness import WitnessDatabase
from repro.cq.homomorphism import count_query_homomorphisms
from repro.cq.parser import parse_query
from repro.cq.reductions import to_boolean_pair
from repro.cq.structures import Relation, Structure
from repro.infotheory.expressions import (
    ConditionalExpression,
    ConditionalTerm,
    LinearExpression,
)
from repro.service import BatchOptions, ContainmentService
from repro.service.canonical import pair_key_with_labelings
from repro.store.serialize import (
    build_record,
    canonical_json,
    deserialize_witness,
    serialize_witness,
)

ROOT = Path(__file__).resolve().parents[2]

#: The refutation pairs: the ``batch-cold`` benchmark's E13 family catalogue
#: (its LP pairs are all CONTAINED) and E13 itself.
_PAIRS = """
import importlib.util, sys
from repro.workloads.generators import mixed_containment_pairs

spec = importlib.util.spec_from_file_location("benchmark_workloads", {workloads!r})
workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
spec.loader.exec_module(workloads)
pairs = workloads.mixed_catalogue() + mixed_containment_pairs(128, seed=7)
""".format(workloads=str(ROOT / "perfbench" / "workloads.py"))

#: Prints a digest of every NOT_CONTAINED record a store holds after
#: deciding the pairs, provenance (timestamps, timings) left out.
_DUMP_RECORDS = _PAIRS + """
import hashlib, os, tempfile
from repro.service import BatchOptions, ContainmentService
from repro.store import VerdictStore
from repro.store.serialize import canonical_json

with tempfile.TemporaryDirectory() as directory:
    path = os.path.join(directory, "store.sqlite")
    with ContainmentService(BatchOptions(store_path=path)) as service:
        service.run(pairs)
    with VerdictStore(path) as store:
        payloads = sorted(
            canonical_json({k: v for k, v in record.items() if k != "provenance"})
            for _, record in store.records()
            if record["status"] == "not_contained"
        )
print(len(payloads), hashlib.sha256("\\n".join(payloads).encode()).hexdigest())
"""


def _refutation_pairs():
    namespace = {}
    exec(_PAIRS, namespace)
    return namespace["pairs"]


@pytest.fixture(scope="module")
def refutations():
    """``(pair, witness)`` for every NOT_CONTAINED pair of both catalogues."""
    pairs = _refutation_pairs()
    with ContainmentService(BatchOptions()) as service:
        results = service.run(pairs).results
    found = [
        (pair, result.witness)
        for pair, result in zip(pairs, results)
        if result.status is ContainmentStatus.NOT_CONTAINED
    ]
    assert found and all(witness is not None for _, witness in found)
    return found


def _roundtrip(witness: WitnessDatabase) -> WitnessDatabase:
    return deserialize_witness(json.loads(canonical_json(serialize_witness(witness))))


def _fact_count(database: Structure) -> int:
    return sum(len(rows) for rows in database.relations.values())


def test_roundtrip_keeps_counts_and_recounts_equal(refutations):
    for (q1, q2), witness in refutations:
        rebuilt = _roundtrip(witness)
        database = rebuilt.database
        assert _fact_count(database) == _fact_count(witness.database)
        assert database.domain == frozenset(range(len(witness.database.domain)))
        if witness.relation is None:
            assert rebuilt.relation is None
        else:
            assert rebuilt.relation.attributes == witness.relation.attributes
            assert len(rebuilt.relation.rows) == len(witness.relation.rows)
        assert (rebuilt.hom_q1, rebuilt.hom_q2) == (witness.hom_q1, witness.hom_q2)
        assert rebuilt.head_tuple == witness.head_tuple
        boolean_q1, boolean_q2 = to_boolean_pair(q1, q2)
        assert count_query_homomorphisms(boolean_q1, database) == witness.hom_q1
        assert count_query_homomorphisms(boolean_q2, database) == witness.hom_q2


def test_records_are_byte_identical_under_any_hash_salt():
    digests = {}
    for salt in ("0", "5"):
        completed = subprocess.run(
            [sys.executable, "-c", _DUMP_RECORDS],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=salt),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        digests[salt] = completed.stdout
    assert len(set(digests.values())) == 1, digests
    assert int(digests["0"].split()[0]) > 0


def test_witness_values_become_sorted_ids():
    nested = ((1, 2), (2, (1, 1)))
    database = Structure.from_facts(
        [("R", ("b", nested)), ("R", ("a", "b")), ("S", (3,))], domain=["isolated"]
    )
    relation = Relation(attributes=("x", "y"), rows={((1, 2), 2), ((1, 1), 1)})
    witness = WitnessDatabase(
        database=database, hom_q1=2, hom_q2=1, relation=relation, head_tuple=("a",)
    )
    encoded = serialize_witness(witness)
    # Numbers, then strings, then tuples: 3, "a", "b", "isolated", nested.
    assert json.loads(canonical_json(encoded))["facts"] == [
        ["R", [1, 2]],
        ["R", [2, 4]],
        ["S", [0]],
    ]
    assert encoded["domain"] == [0, 1, 2, 3, 4]
    assert encoded["head_tuple"] == [1]
    # The relation is renumbered over its own values: 1, 2, (1, 1), (1, 2).
    assert [list(row) for row in encoded["relation"]["rows"]] == [[2, 0], [3, 1]]


def test_unsupported_witness_value_leaves_a_note():
    database = Structure.from_facts([("R", (frozenset({1}),))])
    witness = WitnessDatabase(database=database, hom_q1=1, hom_q2=0)
    key, _ = pair_key_with_labelings(parse_query("R(x, y)"), parse_query("R(x, x)"))
    result = ContainmentResult(
        status=ContainmentStatus.NOT_CONTAINED, method="test", witness=witness
    )
    evidence = build_record(key, result)["evidence"]
    assert "witness" not in evidence
    assert evidence["note"] == (
        "witness not serialized: cannot serialize witness domain value of type frozenset"
    )


# ---------------------------------------------------------------------- #
# ConditionalExpression.to_linear
# ---------------------------------------------------------------------- #
def _to_linear_term_by_term(expression: ConditionalExpression) -> LinearExpression:
    """The reference: one validated LinearExpression per term, added up."""
    linear = LinearExpression.zero(expression.ground)
    for term in expression.terms:
        linear = linear + LinearExpression.conditional_term(
            expression.ground, term.targets, term.given, term.coefficient
        )
    return linear


_GROUND = ("a", "b", "c", "d")
_SUBSETS = st.frozensets(st.sampled_from(_GROUND), max_size=len(_GROUND))
_TERMS = st.builds(
    ConditionalTerm,
    targets=_SUBSETS,
    given=_SUBSETS,
    coefficient=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=4),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TERMS, max_size=12), st.lists(st.tuples(st.integers(0, 11), _SUBSETS), max_size=4))
def test_to_linear_equals_the_term_by_term_sum(terms, chained):
    # Chain-rule terms h(Z | Y ∪ X) cancel h(Y ∪ X) of an earlier h(Y | X),
    # so coefficients drop to zero and come back.
    terms = list(terms)
    for index, targets in chained:
        if index < len(terms):
            base = terms[index]
            terms.append(ConditionalTerm(targets, base.targets | base.given, base.coefficient))
    expression = ConditionalExpression(ground=_GROUND, terms=tuple(terms))
    fast = expression.to_linear()
    reference = _to_linear_term_by_term(expression)
    assert fast.ground == reference.ground
    assert list(fast.coefficients.items()) == list(reference.coefficients.items())
    assert all(type(value) is float for value in fast.coefficients.values())


def test_to_linear_of_no_terms_and_empty_contexts():
    assert ConditionalExpression(ground=_GROUND).to_linear().coefficients == {}
    expression = ConditionalExpression(
        ground=_GROUND,
        terms=(
            ConditionalTerm(frozenset("ab"), frozenset(), 1.0),
            ConditionalTerm(frozenset("b"), frozenset("a"), 2.0),
            ConditionalTerm(frozenset("a"), frozenset("ab"), 5.0),
            ConditionalTerm(frozenset("a"), frozenset(), 1.0),
        ),
    )
    assert expression.to_linear().coefficients == {
        frozenset("ab"): 3.0,
        frozenset("a"): -1.0,
    }
