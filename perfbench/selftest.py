"""Self-tests of the benchmark's input generators.

Run from the repository root::

    python3 perfbench/selftest.py

They check that a seed fixes the generated pairs, that the LP pairs of
``batch-cold`` are CONTAINED with distinct canonical keys and a bounded
branch count, and that ``serve-warm`` requests carry only renamed copies of
primed pairs.
"""

from __future__ import annotations

import itertools
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.containment import decide_containment  # noqa: E402
from repro.cq.homomorphism import count_query_to_query_homomorphisms  # noqa: E402
from repro.service.canonical import pair_key  # noqa: E402
from workloads import (  # noqa: E402
    LP_ARITIES,
    LP_MAX_BRANCHES,
    REQUEST_PAIRS,
    cold_batches,
    lp_batches,
    mixed_batches,
    mixed_catalogue,
    query_text,
    serve_requests,
)


def texts(batches, count):
    return [
        [(query_text(item.q1), query_text(item.q2), item.origin, item.kind) for item in batch]
        for batch in itertools.islice(batches, count)
    ]


def key(pair):
    return pair_key(*pair)


class SeedDeterminism(unittest.TestCase):
    def test_batch_mixed(self):
        self.assertEqual(texts(mixed_batches(5)[1], 3), texts(mixed_batches(5)[1], 3))
        self.assertNotEqual(texts(mixed_batches(5)[1], 1), texts(mixed_batches(6)[1], 1))

    def test_batch_lp(self):
        self.assertEqual(texts(lp_batches(key)[1], 2), texts(lp_batches(key)[1], 2))

    def test_batch_cold(self):
        first, second = cold_batches(5, key)[2], cold_batches(5, key)[2]
        self.assertEqual(texts(first, 2), texts(second, 2))
        self.assertNotEqual(texts(first, 1), texts(cold_batches(6, key)[2], 1))

    def test_serve_warm(self):
        first = serve_requests(mixed_catalogue(), 5)
        second = serve_requests(mixed_catalogue(), 5)
        self.assertEqual(texts(first, 20), texts(second, 20))
        self.assertNotEqual(texts(first, 1), texts(serve_requests(mixed_catalogue(), 6), 1))


class BatchColdShape(unittest.TestCase):
    def test_batch_holds_the_mix_and_the_lp_set(self):
        catalogue, offset, batches = cold_batches(3, key)
        batch = next(batches)
        lp = sorted(item.origin - offset for item in batch if item.origin >= offset)
        self.assertEqual(lp, list(range(len(LP_ARITIES))))
        for item in batch:
            self.assertEqual(key(item.pair), key(catalogue[item.origin]))

    def test_repeat_and_renamed_shares(self):
        catalogue, batches = mixed_batches(3)
        batch = next(batches)
        kinds = [item.kind for item in batch]
        self.assertAlmostEqual(kinds.count("repeat") / len(batch), 0.2, delta=0.01)
        self.assertAlmostEqual(kinds.count("renamed") / len(batch), 0.2, delta=0.01)
        for item in batch:
            self.assertEqual(key(item.pair), key(catalogue[item.origin]))


class BatchLpPairs(unittest.TestCase):
    def test_contained_distinct_and_bounded(self):
        catalogue, batches = lp_batches(key)
        batch = next(batches)
        self.assertEqual(sorted(item.origin for item in batch), list(range(len(LP_ARITIES))))
        self.assertEqual(len({key(item.pair) for item in batch}), len(batch))
        for item in batch:
            q1, q2 = item.pair
            self.assertEqual(len(q1.variables), LP_ARITIES[item.origin])
            # Q1 is Q2 plus atoms over Q2's variables: contained by construction.
            self.assertTrue(set(q2.atoms) < set(q1.atoms))
            self.assertEqual(set(q1.variables), set(q2.variables))
            self.assertLessEqual(count_query_to_query_homomorphisms(q2, q1), LP_MAX_BRANCHES)
        # And the decision procedure agrees, one pair per arity.
        for arity in sorted(set(LP_ARITIES)):
            pair = catalogue[LP_ARITIES.index(arity)]
            self.assertEqual(decide_containment(*pair).status.value, "contained")


class ServeWarmRequests(unittest.TestCase):
    def test_only_renamed_copies_of_primed_pairs(self):
        catalogue = mixed_catalogue()
        primed_keys = [key(pair) for pair in catalogue]
        primed_texts = {(query_text(q1), query_text(q2)) for q1, q2 in catalogue}
        seen = set()
        for request in itertools.islice(serve_requests(catalogue, 2), 30):
            self.assertEqual(len(request), REQUEST_PAIRS)
            for item in request:
                self.assertEqual(item.kind, "renamed")
                self.assertEqual(key(item.pair), primed_keys[item.origin])
                text = (query_text(item.q1), query_text(item.q2))
                self.assertNotIn(text, primed_texts)
                self.assertNotIn(text, seen)
                seen.add(text)
                original = catalogue[item.origin]
                shared = set(item.q1.variables) & set(original[0].variables)
                self.assertEqual(shared, set())

    def test_open_and_closed_streams_share_no_text(self):
        catalogue = mixed_catalogue()
        closed = serve_requests(catalogue, 2, tag="c")
        opened = serve_requests(catalogue, 3, pairs=1, tag="o")
        closed_texts = {pair for request in texts(closed, 50) for pair in request}
        open_requests = texts(opened, 400)
        self.assertTrue(all(len(request) == 1 for request in open_requests))
        open_texts = {request[0][:2] for request in open_requests}
        self.assertEqual(len(open_texts), 400)
        self.assertFalse(open_texts & {pair[:2] for pair in closed_texts})


if __name__ == "__main__":
    unittest.main()
