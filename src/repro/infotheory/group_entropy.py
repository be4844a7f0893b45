"""Group-characterizable entropic functions (Chan–Yeung; paper Lemma 4.8).

An entropic function is *group characterizable* when it is the entropy of the
uniform distribution on ``P = {(aG_1, ..., aG_n) : a ∈ G}`` for a finite
group ``G`` with subgroups ``G_1, ..., G_n``; then
``h(α) = log |G| - log |⋂_{i∈α} G_i|``.  Chan and Yeung proved these
functions are dense in ``Γ*n`` — the key ingredient of the proof of
Theorem 4.4 — and the relations ``P`` they induce are *totally uniform*.

This module implements the construction for elementary abelian 2-groups
``G = (F_2)^d`` whose subgroups are the GF(2) subspaces, which is enough to
realize the paper's examples (including the parity function).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.cq.structures import Relation
from repro.exceptions import EntropyError
from repro.infotheory.setfunction import SetFunction
from repro.utils.lattice import lattice_context

Vector = Tuple[int, ...]


def _check_dimension(vectors: Sequence[Vector], dimension: int) -> None:
    for vector in vectors:
        if len(vector) != dimension:
            raise EntropyError(
                f"vector {vector} does not have the expected dimension {dimension}"
            )
        if any(bit not in (0, 1) for bit in vector):
            raise EntropyError(f"vector {vector} is not over GF(2)")


def span(vectors: Sequence[Vector], dimension: int) -> FrozenSet[Vector]:
    """All GF(2) linear combinations of ``vectors`` (always contains 0)."""
    _check_dimension(vectors, dimension)
    elements = {tuple([0] * dimension)}
    for vector in vectors:
        new_elements = set()
        for element in elements:
            new_elements.add(tuple((a + b) % 2 for a, b in zip(element, vector)))
        elements |= new_elements
        # Re-close under addition (the set of sums of subsets of generators).
        closed = {tuple([0] * dimension)}
        frontier = list(elements)
        for first in frontier:
            for second in frontier:
                closed.add(tuple((a + b) % 2 for a, b in zip(first, second)))
        elements = closed
    return frozenset(elements)


def subspace_dimension(elements: FrozenSet[Vector]) -> int:
    """log2 of the size of a subspace given as an explicit element set."""
    size = len(elements)
    dimension = size.bit_length() - 1
    if 2**dimension != size:
        raise EntropyError("element set size is not a power of two")
    return dimension


def entropy_from_subspaces(
    ground: Sequence[str],
    dimension: int,
    subspace_generators: Dict[str, Sequence[Vector]],
) -> SetFunction:
    """The group-characterizable entropy of ``G = (F_2)^dimension`` with the given subgroups.

    ``subspace_generators[v]`` lists GF(2) generators of the subgroup ``G_v``
    associated with variable ``v``; ``h(α) = dimension - dim(⋂_{v∈α} G_v)``
    (in bits, since all logs are base 2).
    """
    ground = tuple(ground)
    if set(subspace_generators) != set(ground):
        raise EntropyError("subspace generators must be given for every variable")
    subspaces = {
        variable: span(generators, dimension)
        for variable, generators in subspace_generators.items()
    }
    # Walk the subset lattice by bitmask, reusing the intersection of each
    # mask-minus-lowest-bit so every subset costs a single set intersection.
    lattice = lattice_context(ground)
    intersections: List[FrozenSet[Vector]] = [frozenset()] * lattice.size
    vec = np.zeros(lattice.size)
    for mask in range(1, lattice.size):
        low_bit = mask & -mask
        rest = mask ^ low_bit
        subspace = subspaces[ground[low_bit.bit_length() - 1]]
        intersection = subspace if rest == 0 else intersections[rest] & subspace
        intersections[mask] = intersection
        vec[mask] = float(dimension - subspace_dimension(intersection))
    return SetFunction._from_dense(ground, vec, lattice)


def group_characterizable_relation(
    ground: Sequence[str],
    dimension: int,
    subspace_generators: Dict[str, Sequence[Vector]],
) -> Relation:
    """The relation ``P = {(a + G_1, ..., a + G_n) : a ∈ (F_2)^d}`` of cosets.

    Each attribute value is the coset ``a + G_i`` represented as a frozenset
    of vectors.  The relation is totally uniform (Lemma 4.8) and the entropy
    of its uniform distribution equals :func:`entropy_from_subspaces` on the
    same data — both facts are exercised by the tests.
    """
    ground = tuple(ground)
    subspaces = {
        variable: span(subspace_generators[variable], dimension) for variable in ground
    }
    rows = set()
    for element in product((0, 1), repeat=dimension):
        row = []
        for variable in ground:
            coset = frozenset(
                tuple((a + b) % 2 for a, b in zip(element, member))
                for member in subspaces[variable]
            )
            row.append(coset)
        rows.add(tuple(row))
    return Relation(attributes=ground, rows=rows)


def parity_subspaces(ground: Sequence[str] = ("X1", "X2", "X3")) -> Tuple[int, Dict[str, List[Vector]]]:
    """Subspace data realizing the parity function as a group-characterizable entropy.

    ``G = (F_2)^2`` with ``G_1 = span{(1,0)}``, ``G_2 = span{(0,1)}`` and
    ``G_3 = span{(1,1)}`` gives ``h(singleton) = 1`` and ``h(pair) = 2``,
    i.e. exactly the parity function of Example B.4.
    """
    ground = tuple(ground)
    if len(ground) != 3:
        raise EntropyError("the parity construction uses exactly three variables")
    generators = {
        ground[0]: [(1, 0)],
        ground[1]: [(0, 1)],
        ground[2]: [(1, 1)],
    }
    return 2, generators
