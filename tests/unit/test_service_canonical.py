"""Tests for canonical query labeling and structural pair keys."""

import hashlib
import json
import random
import sys
import threading

import pytest
from pair_sets import PAIR_SETS

from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.parser import parse_query
from repro.service import canonical
from repro.service.canonical import (
    DEFAULT_SEARCH_BUDGET,
    LABELING_MEMO_SIZE,
    canonical_labeling,
    canonical_query,
    canonical_query_key,
    canonical_text,
    pair_key,
)
from repro.workloads.generators import (
    clique_query,
    cycle_query,
    mixed_containment_pairs,
    path_query,
    random_query,
    star_query,
)


def _shuffled_rename(query, seed):
    """An isomorphic copy: random variable names AND shuffled atom order."""
    rng = random.Random(seed)
    variables = list(query.variables)
    fresh = [f"z{seed}_{i}" for i in range(len(variables))]
    rng.shuffle(fresh)
    renamed = query.rename(dict(zip(variables, fresh)))
    atoms = list(renamed.atoms)
    rng.shuffle(atoms)
    return ConjunctiveQuery(atoms=tuple(atoms), head=renamed.head, name="shuffled")


class TestCanonicalQueryKey:
    def test_key_invariant_under_renaming_and_atom_order(self):
        queries = [
            path_query(3),
            cycle_query(4),
            star_query(3),
            clique_query(3),
            parse_query("R(x,y), S(y,z), R(z,x)"),
            random_query(4, 5, seed=11),
        ]
        for query in queries:
            key = canonical_query_key(query)
            for seed in range(5):
                copy = _shuffled_rename(query, seed)
                assert canonical_query_key(copy) == key, str(query)

    def test_distinct_structures_get_distinct_keys(self):
        keys = {
            canonical_query_key(q)
            for q in (
                path_query(2),
                path_query(3),
                cycle_query(3),
                cycle_query(4),
                star_query(2),
                clique_query(3),
                parse_query("R(x,x)"),
            )
        }
        assert len(keys) == 7

    def test_head_positions_distinguish_queries(self):
        body = (Atom("R", ("x", "y")),)
        q_xy = ConjunctiveQuery(atoms=body, head=("x", "y"))
        q_yx = ConjunctiveQuery(atoms=body, head=("y", "x"))
        q_bool = ConjunctiveQuery(atoms=body, head=())
        assert canonical_query_key(q_xy) != canonical_query_key(q_bool)
        assert canonical_query_key(q_xy) != canonical_query_key(q_yx)

    def test_repeated_variables_matter(self):
        assert canonical_query_key(parse_query("R(x,x)")) != canonical_query_key(
            parse_query("R(x,y)")
        )

    def test_relation_names_matter(self):
        assert canonical_query_key(parse_query("R(x,y)")) != canonical_query_key(
            parse_query("S(x,y)")
        )


class TestCanonicalQuery:
    def test_canonical_query_is_isomorphic_relabeling(self):
        query = parse_query("R(x,y), S(y,z), R(z,x)")
        canonical = canonical_query(query)
        assert len(canonical.atoms) == len(query.atoms)
        assert len(canonical.variables) == len(query.variables)
        assert canonical_query_key(canonical) == canonical_query_key(query)
        assert all(v.startswith("c") for v in canonical.variables)

    def test_canonical_form_identical_across_copies(self):
        query = cycle_query(5)
        forms = {
            str(canonical_query(_shuffled_rename(query, seed))) for seed in range(4)
        }
        assert len(forms) == 1


class TestPairKey:
    def test_pair_key_invariant_under_independent_renamings(self):
        q1, q2 = cycle_query(3), path_query(2)
        assert pair_key(q1, q2) == pair_key(
            _shuffled_rename(q1, 1), _shuffled_rename(q2, 2)
        )

    def test_pair_order_matters(self):
        q1, q2 = cycle_query(3), path_query(2)
        assert pair_key(q1, q2) != pair_key(q2, q1)


def _random_queries(count, seed=0):
    rng = random.Random(seed)
    return [
        random_query(
            rng.randint(1, 6),
            rng.randint(1, 7),
            relations=(("R", 2), ("S", 3), ("T", 1)),
            seed=rng.randrange(1 << 30),
        )
        for _ in range(count)
    ]


def _uncached(query):
    key, order = canonical._memoized_labeling.__wrapped__(
        query.atoms, query.head, DEFAULT_SEARCH_BUDGET
    )
    return key, {variable: index for index, variable in enumerate(order)}


def _reference_labeling(query, budget=DEFAULT_SEARCH_BUDGET):
    """The search as it was before incidences were indexed: every
    refinement round rescans every atom for every variable."""

    def rank(signatures):
        order = {sig: r for r, sig in enumerate(sorted(set(signatures.values())))}
        return {variable: order[sig] for variable, sig in signatures.items()}

    def refine(colors):
        while True:
            signatures = {}
            for variable in query.variables:
                incidences = sorted(
                    (atom.relation, position, tuple(colors[arg] for arg in atom.args))
                    for atom in query.atoms
                    for position, arg in enumerate(atom.args)
                    if arg == variable
                )
                signatures[variable] = (colors[variable], tuple(incidences))
            refined = rank(signatures)
            if len(set(refined.values())) == len(set(colors.values())):
                return refined
            colors = refined

    variables = query.variables
    best = {"key": None, "labeling": None, "budget": budget}

    def explore(colors):
        classes = {}
        for variable in variables:
            classes.setdefault(colors[variable], []).append(variable)
        target = next((classes[c] for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None or best["budget"] <= 0:
            best["budget"] -= 1
            ordered = sorted(variables, key=lambda v: (colors[v], variables.index(v)))
            labeling = {variable: index for index, variable in enumerate(ordered)}
            key = (
                tuple(
                    sorted(
                        (atom.relation, tuple(labeling[arg] for arg in atom.args))
                        for atom in query.atoms
                    )
                ),
                tuple(labeling[v] for v in query.head),
            )
            if best["key"] is None or key < best["key"]:
                best["key"], best["labeling"] = key, labeling
            return
        for variable in target:
            if best["budget"] <= 0 and best["key"] is not None:
                return
            explore(
                refine(
                    rank(
                        {
                            other: (colors[other], 1 if other == variable else 0)
                            for other in variables
                        }
                    )
                )
            )

    initial = {}
    for variable in variables:
        head_positions = tuple(i for i, v in enumerate(query.head) if v == variable)
        profile = sorted(
            (atom.relation, position, atom.arity)
            for atom in query.atoms
            for position, arg in enumerate(atom.args)
            if arg == variable
        )
        initial[variable] = (head_positions, tuple(profile))
    explore(refine(rank(initial)))
    return best["key"], best["labeling"]


def _assert_same_labeling(query):
    key, labeling = canonical_labeling(query)
    for expected_key, expected_labeling in (_uncached(query), _reference_labeling(query)):
        assert key == expected_key, str(query)
        assert list(labeling.items()) == list(expected_labeling.items()), str(query)


class TestLabelingMemo:
    # Keys and labelings, dict order included, must equal the uncached
    # search and the reference search, on a miss and on a hit.
    @pytest.mark.parametrize("name", sorted(PAIR_SETS))
    def test_memo_hits_equal_the_uncached_search(self, name):
        queries = [query for pair in PAIR_SETS[name]() for query in pair]
        for query in queries + queries:
            _assert_same_labeling(query)

    def test_memo_hits_equal_the_uncached_search_on_random_queries(self):
        queries = _random_queries(5000)
        queries += [cycle_query(k) for k in range(3, 8)] + [clique_query(4)]
        queries += [star_query(5), path_query(6)]
        queries.append(parse_query("(x, x, z) :- R(x, y), R(y, z), S(z, x, x)"))
        for query in queries + queries:
            _assert_same_labeling(query)

    def test_keys_and_labelings_are_pinned(self):
        # The durable store is keyed by these keys: a change to the search
        # must leave every key and labeling byte for byte as it was.  The
        # digest was taken before the search indexed incidences and before
        # the memo, and reads the same under every PYTHONHASHSEED.
        queries = [
            query
            for pair in mixed_containment_pairs(128, seed=7) + PAIR_SETS["corpus"]()
            for query in pair
        ]
        queries += [
            random_query(
                2 + seed % 5,
                1 + seed % 7,
                relations=(("R", 2), ("S", 3), ("T", 1)),
                seed=seed,
            )
            for seed in range(2000)
        ]
        labelings = [canonical_labeling(query) for query in queries]
        text = json.dumps([[key, list(labeling.items())] for key, labeling in labelings])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "738c808ebad51a50ac7348ac38ab38cf6590a44590b51b6888312ed4ef61a767"
        )

    def test_a_mutated_labeling_does_not_reach_the_next_caller(self):
        query = parse_query("R(x,y), R(y,z), S(z,x,x)")
        key, labeling = canonical_labeling(query)
        expected = dict(labeling)
        labeling["x"] = 99
        labeling.clear()
        assert canonical_labeling(query) == (key, expected)

    def test_memo_stays_at_its_size(self):
        for query in _random_queries(LABELING_MEMO_SIZE + 500, seed=1):
            canonical_labeling(query)
        info = canonical._memoized_labeling.cache_info()
        assert info.maxsize == LABELING_MEMO_SIZE
        assert info.currsize == LABELING_MEMO_SIZE

    def test_threads_over_more_keys_than_it_holds(self, monkeypatch):
        # The gateway canonicalizes from asyncio's executor threads.
        small = canonical.functools.lru_cache(maxsize=8)(
            canonical._memoized_labeling.__wrapped__
        )
        monkeypatch.setattr(canonical, "_memoized_labeling", small)
        queries = _random_queries(40, seed=2)
        expected = [_uncached(query) for query in queries]
        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    index = rng.randrange(len(queries))
                    key, labeling = canonical_labeling(queries[index])
                    assert (key, list(labeling.items())) == (
                        expected[index][0],
                        list(expected[index][1].items()),
                    )
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert small.cache_info().currsize == 8


class TestCanonicalText:
    def test_text_of_a_headed_query(self):
        key = canonical_query_key(parse_query("(x, x) :- R(x, y)"))
        assert canonical_text(key) == "(c1, c1) :- R(c1, c0)"

    @pytest.mark.parametrize("name", sorted(PAIR_SETS))
    def test_text_parses_back_to_its_key(self, name):
        for pair in PAIR_SETS[name]():
            for query in pair:
                key = canonical_query_key(query)
                text = canonical_text(key)
                assert canonical_query_key(parse_query(text)) == key
                assert text == canonical_text(canonical_query_key(_shuffled_rename(query, 3)))
