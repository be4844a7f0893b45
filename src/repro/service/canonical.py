"""Canonical labeling of conjunctive queries for the plan cache.

Bag containment is invariant under renaming the variables of either query,
so a batch of pairs should pay for each *isomorphism class* once.  The plan
cache therefore keys pairs by a canonical form computed here.

The canonical form is obtained by a standard color-refinement / individualize
search (a small-scale cousin of practical graph-canonicalization tools):

1. variables receive initial colors from isomorphism-invariant data (their
   head positions and the relation/position profile of their occurrences);
2. colors are refined to a fixed point by repeatedly hashing each variable's
   colored atom incidences (1-WL on the query's incidence structure);
3. remaining ties are broken by individualizing each member of the first
   non-singleton color class in turn, recursing, and keeping the
   lexicographically smallest serialization.

Soundness does not depend on the search being complete: two queries receive
the same key *only if* a variable bijection maps one onto the other, because
the key is the serialization of the query under a concrete relabeling.  The
search budget (``budget`` leaves) only bounds how much symmetry is explored —
exceeding it can at worst miss a cache hit, never corrupt one.

Labelings are memoized per query (:func:`canonical_labeling`), keyed by the
query's exact atoms and head: the fleet's gateway forwards every pair as the
text of its canonical form (:func:`canonical_text`), so all isomorphs of a
pair reach their replica as one text, and the replica's labeling is a memo
hit.

The same keys drive the plan cache, the durable store, the gateway's
cross-shard dedup, and ring routing — see ``docs/architecture.md``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cq.query import Atom, ConjunctiveQuery
from repro.utils.ordering import stable_unique

# Serialized canonical form: (sorted relabeled atoms, relabeled head).
QueryKey = Tuple[Tuple[Tuple[str, Tuple[int, ...]], ...], Tuple[int, ...]]
PairKey = Tuple[QueryKey, QueryKey]

#: Leaves of the individualization search explored before falling back to a
#: greedy (still sound, possibly non-canonical) completion.
DEFAULT_SEARCH_BUDGET = 2048

#: Queries whose labeling :func:`canonical_labeling` remembers.  An entry
#: holds a reference to the query's atom tuple, its key and its labeling:
#: 4 096 entries of benchmark queries take about 3 MB, next to a
#: ``batch-cold`` peak RSS of about 120 MB.
LABELING_MEMO_SIZE = 4096


def _rank(signatures: Sequence[object]) -> List[int]:
    """Replace arbitrary (orderable) signatures by dense integer ranks."""
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


class _Search:
    """Individualization-refinement search for the minimal serialization.

    Variables are the integers ``0 .. n-1`` in first-occurrence order, and
    each one's incidences ``(atom, position)`` are indexed once, so a
    refinement round reads only the atoms a variable occurs in.
    """

    def __init__(self, atoms: Tuple[Atom, ...], head: Tuple[str, ...], budget: int):
        self.names = stable_unique(v for atom in atoms for v in atom.args)
        number = {name: index for index, name in enumerate(self.names)}
        self.relations = [atom.relation for atom in atoms]
        self.args = [tuple(number[v] for v in atom.args) for atom in atoms]
        self.head = tuple(number[v] for v in head)
        self.incidences: List[List[Tuple[int, int]]] = [[] for _ in self.names]
        for index, args in enumerate(self.args):
            for position, variable in enumerate(args):
                self.incidences[variable].append((index, position))
        self.budget = budget
        self.best_key: Optional[QueryKey] = None
        self.best_order: Optional[List[int]] = None

    def run(self) -> Tuple[QueryKey, Tuple[str, ...]]:
        """The minimal key, and the variables in the order of their labels."""
        self._explore(self._refine(self._initial_colors()))
        assert self.best_key is not None and self.best_order is not None
        return self.best_key, tuple(self.names[v] for v in self.best_order)

    def _initial_colors(self) -> List[int]:
        """Invariant starting colors: head positions + occurrence profile."""
        return _rank(
            [
                (
                    tuple(i for i, head_var in enumerate(self.head) if head_var == variable),
                    tuple(
                        sorted(
                            (self.relations[atom], position, len(self.args[atom]))
                            for atom, position in self.incidences[variable]
                        )
                    ),
                )
                for variable in range(len(self.names))
            ]
        )

    def _refine(self, colors: List[int]) -> List[int]:
        """Run 1-WL color refinement to a fixed point."""
        while True:
            atom_colors = [tuple(colors[v] for v in args) for args in self.args]
            refined = _rank(
                [
                    (
                        colors[variable],
                        tuple(
                            sorted(
                                (self.relations[atom], position, atom_colors[atom])
                                for atom, position in incidences
                            )
                        ),
                    )
                    for variable, incidences in enumerate(self.incidences)
                ]
            )
            if len(set(refined)) == len(set(colors)):
                return refined
            colors = refined

    def _close(self, colors: List[int]) -> None:
        """Serialize under a concrete labeling (ties broken by occurrence)."""
        order = sorted(range(len(colors)), key=lambda v: (colors[v], v))
        label = [0] * len(order)
        for index, variable in enumerate(order):
            label[variable] = index
        key = (
            tuple(
                sorted(
                    (relation, tuple(label[v] for v in args))
                    for relation, args in zip(self.relations, self.args)
                )
            ),
            tuple(label[v] for v in self.head),
        )
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_order = order

    def _explore(self, colors: List[int]) -> None:
        classes: Dict[int, List[int]] = {}
        for variable, color in enumerate(colors):
            classes.setdefault(color, []).append(variable)
        target_class = None
        for color in sorted(classes):
            if len(classes[color]) > 1:
                target_class = classes[color]
                break
        if target_class is None or self.budget <= 0:
            # Discrete coloring (or budget exhausted): close out greedily.
            self.budget -= 1
            self._close(colors)
            return
        for variable in target_class:
            if self.budget <= 0 and self.best_key is not None:
                return
            individualized = [
                (color, 1 if other == variable else 0)
                for other, color in enumerate(colors)
            ]
            self._explore(self._refine(_rank(individualized)))


@functools.lru_cache(maxsize=LABELING_MEMO_SIZE)
def _memoized_labeling(
    atoms: Tuple[Atom, ...], head: Tuple[str, ...], budget: int
) -> Tuple[QueryKey, Tuple[str, ...]]:
    return _Search(atoms, head, budget).run()


def canonical_labeling(
    query: ConjunctiveQuery, budget: int = DEFAULT_SEARCH_BUDGET
) -> Tuple[QueryKey, Dict[str, int]]:
    """The canonical key of ``query`` and the variable labeling producing it.

    Results are memoized (at most :data:`LABELING_MEMO_SIZE` queries, least
    recently used first out) by the query's exact structure: its atoms with
    their relation names and variable names, its head, and ``budget``.  The
    search reads nothing else of the query, so a hit equals a recomputation.
    Each call returns a fresh labeling dict.  The memo is safe to share
    between threads.
    """
    key, order = _memoized_labeling(query.atoms, query.head, budget)
    return key, {variable: index for index, variable in enumerate(order)}


def canonical_query_key(
    query: ConjunctiveQuery, budget: int = DEFAULT_SEARCH_BUDGET
) -> QueryKey:
    """A hashable structural key, identical across isomorphic queries.

    Equal keys guarantee isomorphism (the key is the query serialized under a
    concrete relabeling); distinct keys for isomorphic queries are possible
    only when the search budget is exhausted on highly symmetric queries.
    """
    key, _ = _memoized_labeling(query.atoms, query.head, budget)
    return key


def canonical_query(
    query: ConjunctiveQuery, budget: int = DEFAULT_SEARCH_BUDGET
) -> ConjunctiveQuery:
    """The canonical form of ``query``: variables renamed to ``c0, c1, ...``,
    atoms in sorted order, name fixed — identical for isomorphic queries
    (up to the search budget)."""
    key = canonical_query_key(query, budget)
    atoms = tuple(
        Atom(relation, tuple(f"c{index}" for index in indices))
        for relation, indices in key[0]
    )
    head = tuple(f"c{index}" for index in key[1])
    return ConjunctiveQuery(atoms=atoms, head=head, name="canonical")


def canonical_text(key: QueryKey) -> str:
    """The query ``key`` serializes, in the parser's syntax.

    Variables are ``c0, c1, ...``, atoms come in key order and the head is
    kept: the key of ``(x, x) :- R(x, y)`` reads ``(c1, c1) :- R(c1, c0)``.
    The text parses back to a query with this key (up to the search
    budget), so every isomorph of a query renders to the same text.
    """
    body = ", ".join(
        f"{relation}({', '.join(f'c{index}' for index in indices)})"
        for relation, indices in key[0]
    )
    if not key[1]:
        return body
    return f"({', '.join(f'c{index}' for index in key[1])}) :- {body}"


def pair_key(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> PairKey:
    """The plan-cache key of a containment pair ``(Q1, Q2)``.

    The queries are canonicalized independently — containment is invariant
    under independent variable renamings of either side (heads are aligned
    positionally, and the head positions are part of each query's key).
    """
    return (canonical_query_key(q1, budget), canonical_query_key(q2, budget))


# Per-side labelings (variable → canonical index) accompanying a PairKey.
PairLabelings = Tuple[Dict[str, int], Dict[str, int]]


def pair_key_with_labelings(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Tuple[PairKey, PairLabelings]:
    """:func:`pair_key` plus the per-side labelings that produced it.

    The labelings are the isomorphisms onto the canonical form: two pairs
    with equal keys are mapped onto *the same* canonical pair, so composing
    one pair's labeling with the inverse of the other's is always a sound
    variable bijection between them.  This is what lets the plan cache (and
    the durable store behind it) keep evidence in canonical variables and
    rename it onto each requester's variables on a hit.
    """
    key1, labeling1 = canonical_labeling(q1, budget)
    key2, labeling2 = canonical_labeling(q2, budget)
    return (key1, key2), (labeling1, labeling2)
