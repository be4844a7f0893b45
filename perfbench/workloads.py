"""Seeded input generators for the repository benchmark.

Every generator here takes the run's seed as an argument and returns plain
query pairs; the program under test only ever receives the generated pairs.
Each generated pair is an :class:`Item` that remembers which catalogue
*origin* pair it copies, so the benchmark can check every verdict against
one reference per origin.

The query *structures* come from fixed catalogues, drawn once with
:data:`CATALOGUE_SEED`, so that every run does the same amount of work: the
run's seed picks the order of the E13 pairs, which of them are repeated or
renamed, their variable names, and where the LP pairs sit in a batch.  The
pieces:

* the E13 mix (:func:`mixed_batches`) — the family catalogue of
  :mod:`repro.workloads.generators` (Theorem 3.1 instances, general-route
  pairs with a non-chordal right side, no-homomorphism refutations, head
  variables): every catalogue pair once, plus 20% exact repeats and 20%
  renamed copies;
* the LP set (:func:`lp_batches`) — distinct CONTAINED pairs over 8 and 9
  variables: ``Q2`` is a random tree (chordal with a simple junction tree)
  and ``Q1`` is ``Q2`` plus extra atoms on ``Q2``'s variables (every
  homomorphism of ``Q1`` restricts to one of ``Q2`` on the same variables,
  so ``Q1 ⊑ Q2``).  Pairs with more than :data:`LP_MAX_BRANCHES`
  homomorphisms ``Q2 → Q1`` are rejected;
* ``batch-cold`` (:func:`cold_batches`) — both of the above in one batch;
* ``serve-warm`` (:func:`serve_requests`) — the E13 catalogue as the primed
  set, and requests in which every pair is a freshly renamed copy of a
  primed pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Tuple

from repro.cq.homomorphism import count_query_to_query_homomorphisms
from repro.cq.query import Atom, ConjunctiveQuery
from repro.workloads.generators import (
    clique_query,
    cycle_query,
    path_query,
    random_chordal_simple_query,
    random_query,
    star_query,
)

Pair = Tuple[ConjunctiveQuery, ConjunctiveQuery]

#: Seed of the fixed catalogues (not the run's seed; see the module docstring).
CATALOGUE_SEED = 0
#: Random general-route pairs of each random family in the E13 catalogue.
RANDOM_PAIRS_PER_FAMILY = 8
#: Share of an E13 batch that is exact repeats, and renamed copies.
REPEAT_SHARE = 0.2
RENAMED_SHARE = 0.2
#: Arities of the LP catalogue, one pair each: a cold batch holds all of
#: them, so it carries block LPs of a dense (n = 8) and two row-generation
#: (n = 9) pairs.  Three pairs keep a batch to a few seconds, so a run
#: holds enough batches for a steady median.  Arity 10 is left out: with
#: the store on, one such pair costs 6 to 12 s on a 2-core x86 VM.
LP_ARITIES = (8, 9, 9)
#: Upper bound on ``|hom(Q2, Q1)|`` (the Eq. (8) branch count) of an LP pair.
LP_MAX_BRANCHES = 300
#: Pairs per ``serve-warm`` request of the closed loop; the open loop sends
#: single pairs (see ``perfbench/run.py``).
REQUEST_PAIRS = 8


@dataclass(frozen=True)
class Item:
    """One generated pair and the catalogue pair it copies.

    ``kind`` is ``"original"``, ``"repeat"`` (the very same query objects
    again) or ``"renamed"`` (every variable freshly renamed).
    """

    q1: ConjunctiveQuery
    q2: ConjunctiveQuery
    origin: int
    kind: str = "original"

    @property
    def pair(self) -> Pair:
        return self.q1, self.q2


def query_text(query: ConjunctiveQuery) -> str:
    """A query in the parser syntax the wire protocol carries."""
    body = ", ".join(str(atom) for atom in query.atoms)
    if query.head:
        return f"({', '.join(query.head)}) :- {body}"
    return body


def rename_pair(pair: Pair, tag: str) -> Pair:
    """An isomorphic copy of ``pair`` in which every variable gets a new name."""
    q1, q2 = pair
    names = {v: f"{v}_{tag}" for v in q1.variables + q2.variables}
    return q1.rename(names), q2.rename(names)


# ---------------------------------------------------------------------- #
# The E13 family catalogue
# ---------------------------------------------------------------------- #
def fixed_catalogue() -> List[Pair]:
    """Every parameterization of the deterministic E13 families (32 pairs)."""
    pairs: List[Pair] = []
    for cycle in (3, 4, 5):
        for path in (2, 3):
            pairs.append((cycle_query(cycle), path_query(path)))
    for left in (2, 3, 4):
        for right in (2, 3, 4):
            pairs.append((path_query(left), path_query(right)))
    for right in (star_query(1), star_query(2), star_query(3), path_query(2)):
        pairs.append((clique_query(3), right))
    for length in (2, 3):
        pairs.append((path_query(length, relation="R"), path_query(2, relation="S")))
    for length in (2, 3):
        pairs.append(
            (
                ConjunctiveQuery(
                    atoms=path_query(length).atoms, head=("x0",), name=f"hpath{length}"
                ),
                ConjunctiveQuery(atoms=path_query(2).atoms, head=("x0",), name="hpath2"),
            )
        )
    for left in (1, 2, 3):
        for right in (1, 2, 3):
            pairs.append((star_query(left), star_query(right)))
    return pairs


def random_catalogue_pairs(rng: random.Random) -> List[Pair]:
    """Freshly drawn random pairs of the two random E13 families."""
    pairs: List[Pair] = []
    for _ in range(RANDOM_PAIRS_PER_FAMILY):
        # Random left side against a chordal-simple right side (Thm 3.1 route).
        pairs.append(
            (
                random_query(
                    num_variables=rng.randint(2, 4),
                    num_atoms=rng.randint(2, 4),
                    relations=(("R", 2),),
                    seed=rng.randrange(1 << 30),
                ),
                random_chordal_simple_query(
                    num_cliques=rng.randint(1, 2),
                    clique_size=2,
                    seed=rng.randrange(1 << 30),
                ),
            )
        )
    for _ in range(RANDOM_PAIRS_PER_FAMILY):
        # Non-chordal right side (a 4-cycle): the general, sufficient-check route.
        pairs.append(
            (
                random_query(
                    num_variables=rng.randint(3, 4),
                    num_atoms=rng.randint(3, 4),
                    relations=(("R", 2),),
                    seed=rng.randrange(1 << 30),
                ),
                cycle_query(4),
            )
        )
    return pairs


def mixed_catalogue() -> List[Pair]:
    """The E13 catalogue: 32 fixed pairs and 16 random ones (fixed seed)."""
    return fixed_catalogue() + random_catalogue_pairs(random.Random(CATALOGUE_SEED))


def mixed_batches(seed: int) -> Tuple[List[Pair], Iterator[List[Item]]]:
    """The E13 catalogue and an endless stream of cold batches.

    A batch holds every catalogue pair once (60% of the batch) plus exact
    repeats and renamed copies of seeded picks (20% each), shuffled; each
    batch renames its pairs afresh.
    """
    rng = random.Random(seed)
    catalogue = mixed_catalogue()
    origins = range(len(catalogue))
    share = 1.0 - REPEAT_SHARE - RENAMED_SHARE
    repeats = round(len(origins) * REPEAT_SHARE / share)
    renamed = round(len(origins) * RENAMED_SHARE / share)

    def batches() -> Iterator[List[Item]]:
        number = 0
        while True:
            items = [
                Item(*rename_pair(catalogue[o], f"b{number}"), origin=o)
                for o in origins
            ]
            items += [
                replace(items[origin], kind="repeat")
                for origin in rng.choices(origins, k=repeats)
            ]
            for index, origin in enumerate(rng.choices(origins, k=renamed)):
                copy = rename_pair(catalogue[origin], f"b{number}c{index}")
                items.append(Item(*copy, origin=origin, kind="renamed"))
            rng.shuffle(items)
            number += 1
            yield items

    return catalogue, batches()


# ---------------------------------------------------------------------- #
# High-arity CONTAINED pairs
# ---------------------------------------------------------------------- #
def lp_pair(rng: random.Random, arity: int) -> Tuple[Pair, int]:
    """One CONTAINED pair over ``arity`` variables and its branch count.

    ``Q2`` is a random tree of ``arity - 1`` edges (2-cliques glued at single
    variables, hence chordal with a simple junction tree); ``Q1`` adds 1 to
    3 atoms over ``Q2``'s variables.  Trees of triangles are left out: their
    pairs have one or two branches but certificates that take 5 to 13 s.
    """
    while True:
        q2 = random_chordal_simple_query(
            num_cliques=arity - 1, clique_size=2, seed=rng.randrange(1 << 30)
        )
        variables = q2.variables
        extra = []
        for _ in range(rng.randint(1, 3)):
            left, right = rng.sample(variables, 2)
            extra.append(Atom("R", (left, right)))
        q1 = ConjunctiveQuery(atoms=q2.atoms + tuple(extra), head=(), name="Q1")
        if len(q1.atoms) == len(q2.atoms):
            continue  # every extra atom was already in Q2
        branches = count_query_to_query_homomorphisms(q2, q1)
        if branches <= LP_MAX_BRANCHES:
            return (q1, q2), branches


def lp_catalogue(key: Callable[[Pair], object]) -> List[Pair]:
    """One pair per entry of :data:`LP_ARITIES`, pairwise non-isomorphic.

    ``key`` is a canonical pair key function; a pair whose key was already
    drawn is drawn again.
    """
    rng = random.Random(CATALOGUE_SEED)
    pairs: List[Pair] = []
    seen = set()
    for arity in LP_ARITIES:
        while True:
            pair, _ = lp_pair(rng, arity)
            canonical = key(pair)
            if canonical not in seen:
                seen.add(canonical)
                pairs.append(pair)
                break
    return pairs


def lp_batches(key: Callable[[Pair], object]) -> Tuple[List[Pair], Iterator[List[Item]]]:
    """The LP catalogue and an endless stream of cold batches.

    Each batch holds every catalogue pair once, in catalogue order and under
    the catalogue's names: the order in which the Eq. (8) branches are
    enumerated follows the variable names, and some orders send the store's
    certificate LP into runs of minutes, so the LP work is kept the same in
    every batch.
    """
    catalogue = lp_catalogue(key)

    def batches() -> Iterator[List[Item]]:
        while True:
            yield [Item(*pair, origin=origin) for origin, pair in enumerate(catalogue)]

    return catalogue, batches()


def cold_catalogue(key: Callable[[Pair], object]) -> Tuple[List[Pair], int]:
    """The ``batch-cold`` catalogue and the index of its first LP pair."""
    mixed = mixed_catalogue()
    return mixed + lp_catalogue(key), len(mixed)


def cold_batches(
    seed: int, key: Callable[[Pair], object]
) -> Tuple[List[Pair], int, Iterator[List[Item]]]:
    """The ``batch-cold`` catalogue, the index of its first LP pair, and an
    endless stream of batches each holding an E13 batch and the LP set.

    The LP pairs land at seeded positions but keep their relative order.
    """
    mixed_catalogue_, mixed = mixed_batches(seed)
    lp_catalogue_, lp = lp_batches(key)
    offset = len(mixed_catalogue_)
    rng = random.Random(seed + 1)

    def batches() -> Iterator[List[Item]]:
        while True:
            mixed_items = next(mixed)
            lp_items = [replace(item, origin=item.origin + offset) for item in next(lp)]
            total = len(mixed_items) + len(lp_items)
            slots = set(rng.sample(range(total), len(lp_items)))
            lp_iter, mixed_iter = iter(lp_items), iter(mixed_items)
            yield [next(lp_iter) if i in slots else next(mixed_iter) for i in range(total)]

    return mixed_catalogue_ + lp_catalogue_, offset, batches()


# ---------------------------------------------------------------------- #
# Warm serving
# ---------------------------------------------------------------------- #
def serve_requests(
    catalogue: List[Pair], seed: int, pairs: int = REQUEST_PAIRS, tag: str = "q"
) -> Iterator[List[Item]]:
    """An endless stream of ``pairs``-pair requests of freshly renamed
    catalogue pairs; ``tag`` starts every new variable name, so streams with
    different tags never share a query text."""
    rng = random.Random(seed)
    number = 0
    while True:
        items = []
        for index in range(pairs):
            origin = rng.randrange(len(catalogue))
            copy = rename_pair(catalogue[origin], f"{tag}{number}p{index}")
            items.append(Item(*copy, origin=origin, kind="renamed"))
        number += 1
        yield items
