"""Tree decompositions, join trees and junction trees (paper Def. 2.6, Sec. 3.1).

The paper uses three flavours of decompositions:

* an *acyclic* query admits a tree decomposition whose bags are variable sets
  of atoms (a *join tree*);
* a *chordal* query (chordal Gaifman graph) admits a *junction tree*: a tree
  decomposition whose bags are the maximal cliques of the Gaifman graph;
* a junction tree is *simple* when adjacent bags share at most one variable,
  and *totally disconnected* when adjacent bags share no variable.

For chordal graphs the multiset of separators (intersections of adjacent
bags) is the same for every junction tree — it is the multiset of minimal
vertex separators.  Consequently a chordal query "admits a simple junction
tree" exactly when the junction tree produced by the standard
maximum-spanning-tree construction is simple, which is what
:func:`has_simple_junction_tree` checks.

Each query computes this structure once: :class:`QueryDecompositions`, held
by :attr:`ConjunctiveQuery.decompositions`, builds the flags and
decompositions on first use and validates every decomposition once per
query.  The functions below read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cq.gaifman import (
    adjacency_masks,
    chordal_cliques,
    components,
    min_fill_decomposition,
    vertices,
)
from repro.cq.query import Atom, ConjunctiveQuery
from repro.exceptions import DecompositionError


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree decomposition ``(T, χ)`` of a query.

    The nodes of the forest ``T`` are ``0 .. len(bags) - 1``: ``bags[t]`` is
    the bag ``χ(t)`` and ``edges`` lists the forest's edges as node pairs.
    Instances are immutable and shared between callers.  Building one checks
    nothing; :meth:`validate` does.
    """

    bags: Tuple[FrozenSet[str], ...]
    edges: Tuple[Tuple[int, int], ...] = ()

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(range(len(self.bags)), key=str))

    def bag(self, node: int) -> FrozenSet[str]:
        return self.bags[node]

    def all_variables(self) -> FrozenSet[str]:
        """Union of all bags."""
        return frozenset().union(*self.bags)

    def width(self) -> int:
        """Tree-width style width: max bag size minus one."""
        return max((len(bag) for bag in self.bags), default=0) - 1

    def separators(self) -> List[FrozenSet[str]]:
        """The intersections ``χ(t1) ∩ χ(t2)`` over all tree edges."""
        return [self.bags[t1] & self.bags[t2] for t1, t2 in self.edges]

    def is_simple(self) -> bool:
        """Every pair of adjacent bags shares at most one variable."""
        return all(len(sep) <= 1 for sep in self.separators())

    def is_totally_disconnected(self) -> bool:
        """Every pair of adjacent bags shares no variable.

        Equivalently (footnote 5 of the paper) the decomposition could drop
        all its edges.
        """
        return all(len(sep) == 0 for sep in self.separators())

    def signature(self) -> Tuple:
        """A canonical, hashable description used to deduplicate decompositions."""
        bag_list = tuple(sorted(tuple(sorted(bag)) for bag in self.bags))
        edge_list = tuple(
            sorted(
                tuple(
                    sorted(
                        (tuple(sorted(self.bags[a])), tuple(sorted(self.bags[b])))
                    )
                )
                for a, b in self.edges
            )
        )
        return bag_list, edge_list

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, query: Optional[ConjunctiveQuery] = None) -> None:
        """Check the forest, running-intersection and coverage properties.

        Raises :class:`DecompositionError` on the first violation.  When
        ``query`` is omitted only the forest and running-intersection
        properties are checked.
        """
        if any(not (0 <= t < len(self.bags)) for edge in self.edges for t in edge):
            raise DecompositionError("an edge names a node without a bag")
        if len(_spanning_edges(len(self.bags), self.edges)) != len(self.edges):
            raise DecompositionError("the decomposition graph is not a forest")
        # In a forest, the nodes holding a variable induce a connected
        # subgraph exactly when it has one edge fewer than nodes.
        for variable in self.all_variables():
            holding = sum(variable in bag for bag in self.bags)
            joined = sum(
                variable in self.bags[t1] and variable in self.bags[t2]
                for t1, t2 in self.edges
            )
            if joined != holding - 1:
                raise DecompositionError(
                    f"running intersection fails for variable {variable!r}"
                )
        if query is not None:
            for atom in query.atoms:
                if not any(atom.variable_set <= bag for bag in self.bags):
                    raise DecompositionError(
                        f"atom {atom} is not covered by any bag"
                    )

    def is_valid(self, query: Optional[ConjunctiveQuery] = None) -> bool:
        """Boolean version of :meth:`validate`."""
        try:
            self.validate(query)
        except DecompositionError:
            return False
        return True

    def is_decomposition_witnessing_acyclicity(self, query: ConjunctiveQuery) -> bool:
        """True when every bag equals ``vars(A)`` for some atom ``A`` (Def. 2.6)."""
        atom_var_sets = {atom.variable_set for atom in query.atoms}
        return all(bag in atom_var_sets for bag in self.bags)

    def is_junction_tree(self, query: ConjunctiveQuery) -> bool:
        """True when every bag is a maximal clique of the query's chordal Gaifman graph.

        Only chordal queries have junction trees, so this is false for the
        others.
        """
        cliques = query.decompositions.cliques
        return cliques is not None and all(bag in cliques for bag in self.bags)

    # ------------------------------------------------------------------ #
    # Rooting and atom assignment
    # ------------------------------------------------------------------ #
    @cached_property
    def _rooting(self) -> Tuple[Dict[int, Optional[int]], Tuple[int, ...]]:
        """The parent map and topological order, computed once."""
        neighbours: Dict[int, List[int]] = {node: [] for node in range(len(self.bags))}
        for t1, t2 in self.edges:
            neighbours[t1].append(t2)
            neighbours[t2].append(t1)
        parent: Dict[int, Optional[int]] = {}
        children: Dict[int, List[int]] = {node: [] for node in neighbours}
        roots: List[int] = []
        # Taking nodes in ``str`` order roots each component at its smallest.
        for root in sorted(neighbours, key=str):
            if root in parent:
                continue
            roots.append(root)
            parent[root] = None
            queue = [root]
            for node in queue:
                for child in neighbours[node]:
                    if child not in parent:
                        parent[child] = node
                        children[node].append(child)
                        queue.append(child)
        order: List[int] = []
        stack = roots[::-1]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(sorted(children[node], key=str, reverse=True))
        return parent, tuple(order)

    def rooted_parents(self) -> Mapping[int, Optional[int]]:
        """Parent map after rooting each connected component at its smallest node.

        Nodes compare by ``str``, as in :attr:`nodes`.
        """
        return MappingProxyType(self._rooting[0])

    def topological_order(self) -> Tuple[int, ...]:
        """Nodes ordered so that every parent precedes its children."""
        return self._rooting[1]

    def assign_atoms(self, query: ConjunctiveQuery) -> Dict[int, Tuple[Atom, ...]]:
        """Assign every atom to exactly one node whose bag covers it.

        Nodes whose bag equals the atom's variable set are preferred, so that
        join-tree bags (which are atom variable sets by construction) are
        always covered by their own atoms — this keeps the counting dynamic
        program free of unconstrained bag variables.
        """
        assignment: Dict[int, List[Atom]] = {node: [] for node in range(len(self.bags))}
        ordered_nodes = self.nodes
        for atom in query.atoms:
            exact = [
                node for node in ordered_nodes if self.bags[node] == atom.variable_set
            ]
            covering = exact or [
                node for node in ordered_nodes if atom.variable_set <= self.bags[node]
            ]
            if not covering:
                raise DecompositionError(f"atom {atom} is not covered by any bag")
            assignment[covering[0]].append(atom)
        return {node: tuple(atoms) for node, atoms in assignment.items()}


# ---------------------------------------------------------------------- #
# The structure of one query
# ---------------------------------------------------------------------- #
class QueryDecompositions:
    """A query's flags and tree decompositions, each built on first use.

    :attr:`ConjunctiveQuery.decompositions` keeps one per query instance, so
    every caller shares what is built here.  Each decomposition built here
    is validated once, when it is built; :meth:`check` validates any other
    decomposition once for this query.
    """

    def __init__(self, query: ConjunctiveQuery):
        self.query = query
        self._valid: set = set()

    def check(self, decomposition: TreeDecomposition) -> TreeDecomposition:
        """Validate ``decomposition`` against the query unless it passed before.

        Returns ``decomposition``.
        """
        if decomposition not in self._valid:
            decomposition.validate(self.query)
            self._valid.add(decomposition)
        return decomposition

    @cached_property
    def acyclic(self) -> bool:
        """α-acyclicity test via the GYO (Graham–Yu–Özsoyoğlu) reduction.

        Repeatedly (a) remove variables that occur in exactly one hyperedge
        and (b) remove hyperedges contained in another hyperedge; the query
        is acyclic iff the hypergraph reduces to at most one empty edge.
        """
        edges = [set(atom.variable_set) for atom in self.query.atoms]
        changed = True
        while changed:
            changed = False
            # Remove "ear" variables appearing in exactly one edge.
            variable_count: Dict[str, int] = {}
            for edge in edges:
                for variable in edge:
                    variable_count[variable] = variable_count.get(variable, 0) + 1
            for edge in edges:
                lonely = {v for v in edge if variable_count[v] == 1}
                if lonely:
                    edge -= lonely
                    changed = True
            # Remove edges contained in another edge.
            edges.sort(key=len)
            survivors: List[set] = []
            for i, edge in enumerate(edges):
                contained = any(
                    edge <= other for j, other in enumerate(edges) if j != i and (
                        len(other) > len(edge) or (len(other) == len(edge) and j > i)
                    )
                )
                if contained:
                    changed = True
                else:
                    survivors.append(edge)
            edges = survivors
        return all(not edge for edge in edges)

    @cached_property
    def _adjacency(self) -> Tuple[int, ...]:
        """The Gaifman graph as neighbour masks (see :mod:`repro.cq.gaifman`)."""
        return adjacency_masks(self.query)

    @cached_property
    def cliques(self) -> Optional[Tuple[FrozenSet[str], ...]]:
        """The maximal cliques of the Gaifman graph, ``None`` when it is not chordal.

        Sorted by size, then by their sorted variables.
        """
        masks = chordal_cliques(self._adjacency)
        if masks is None:
            return None
        return tuple(
            sorted(
                (self._variables_of(mask) for mask in masks),
                key=lambda clique: (len(clique), sorted(clique)),
            )
        )

    @cached_property
    def join_tree(self) -> Optional[TreeDecomposition]:
        """The join tree when the query is acyclic, else ``None``."""
        if not self.acyclic:
            return None
        var_sets: List[FrozenSet[str]] = []
        for atom in self.query.atoms:
            if atom.variable_set not in var_sets:
                var_sets.append(atom.variable_set)
        maximal = [vs for vs in var_sets if not any(vs < other for other in var_sets)]
        return self.check(_spanning_forest_decomposition(maximal))

    @cached_property
    def junction_tree(self) -> Optional[TreeDecomposition]:
        """The junction tree when the query is chordal, else ``None``."""
        if self.cliques is None:
            return None
        return self.check(_spanning_forest_decomposition(self.cliques))

    @cached_property
    def min_fill(self) -> TreeDecomposition:
        """The min-fill-in decomposition, one subtree per Gaifman component."""
        bags: List[FrozenSet[str]] = []
        edges: List[Tuple[int, int]] = []
        for component in components(self._adjacency):
            local_bags, local_edges = min_fill_decomposition(self._adjacency, component)
            offset = len(bags)
            bags.extend(self._variables_of(mask) for mask in local_bags)
            edges.extend((offset + t1, offset + t2) for t1, t2 in local_edges)
        return self.check(TreeDecomposition(bags=tuple(bags), edges=tuple(edges)))

    @cached_property
    def candidates(self) -> Tuple[TreeDecomposition, ...]:
        """The join tree and the junction tree that exist, else the min-fill one.

        Duplicates (same bags and edges) are removed.
        """
        found = [tree for tree in (self.join_tree, self.junction_tree) if tree is not None]
        unique: Dict[Tuple, TreeDecomposition] = {}
        for tree in found or [self.min_fill]:
            unique.setdefault(tree.signature(), tree)
        return tuple(unique.values())

    def _variables_of(self, mask: int) -> FrozenSet[str]:
        names = self.query.variables
        return frozenset(names[vertex] for vertex in vertices(mask))


# ---------------------------------------------------------------------- #
# Acyclicity and join trees
# ---------------------------------------------------------------------- #
def is_acyclic(query: ConjunctiveQuery) -> bool:
    """α-acyclicity of the query (GYO reduction, see :attr:`QueryDecompositions.acyclic`)."""
    return query.decompositions.acyclic


def join_tree(query: ConjunctiveQuery) -> TreeDecomposition:
    """A tree decomposition witnessing acyclicity (bags = atom variable sets).

    The bags are the *maximal* atom variable sets; the tree is a maximum
    weight spanning forest of their intersection graph, which satisfies the
    running-intersection property exactly when the query is acyclic.

    Raises :class:`DecompositionError` when the query is not acyclic.
    """
    tree = query.decompositions.join_tree
    if tree is None:
        raise DecompositionError(f"query {query.name} is not acyclic")
    return tree


# ---------------------------------------------------------------------- #
# Chordality and junction trees
# ---------------------------------------------------------------------- #
def is_chordal(query: ConjunctiveQuery) -> bool:
    """True when the Gaifman graph of the query is chordal."""
    return query.decompositions.cliques is not None


def junction_tree(query: ConjunctiveQuery) -> TreeDecomposition:
    """A junction tree of a chordal query (bags = maximal cliques).

    Built as a maximum weight spanning forest of the clique graph, the
    textbook construction (Def. 2.1 of Wainwright–Jordan, cited by the
    paper).  Raises :class:`DecompositionError` when the query is not
    chordal.
    """
    tree = query.decompositions.junction_tree
    if tree is None:
        raise DecompositionError(f"query {query.name} is not chordal")
    return tree


def has_simple_junction_tree(query: ConjunctiveQuery) -> bool:
    """True when the query is chordal and admits a *simple* junction tree.

    Because the separators of a junction tree of a chordal graph do not
    depend on the choice of junction tree, checking the one produced by
    :func:`junction_tree` is enough.
    """
    tree = query.decompositions.junction_tree
    return tree is not None and tree.is_simple()


def has_totally_disconnected_junction_tree(query: ConjunctiveQuery) -> bool:
    """True when the query is chordal and its junction tree has empty separators."""
    tree = query.decompositions.junction_tree
    return tree is not None and tree.is_totally_disconnected()


# ---------------------------------------------------------------------- #
# General-purpose (heuristic) decompositions
# ---------------------------------------------------------------------- #
def heuristic_tree_decomposition(query: ConjunctiveQuery) -> TreeDecomposition:
    """A (not necessarily optimal) tree decomposition via min-fill-in.

    Used for the *sufficient* containment condition on queries that are
    neither acyclic nor chordal: any tree decomposition of ``Q2`` yields a
    sound sufficient check (see Theorem 4.2 and the discussion in
    Section 4.1).  See :func:`repro.cq.gaifman.min_fill_decomposition`.
    """
    return query.decompositions.min_fill


def candidate_tree_decompositions(query: ConjunctiveQuery) -> List[TreeDecomposition]:
    """A small set of useful tree decompositions of ``query``.

    Includes the join tree when the query is acyclic, the junction tree when
    it is chordal, and the min-fill heuristic decomposition otherwise.
    Duplicates (same bags and edges) are removed.
    """
    return list(query.decompositions.candidates)


# ---------------------------------------------------------------------- #
# Shared construction
# ---------------------------------------------------------------------- #
def _spanning_forest_decomposition(bags: Sequence[FrozenSet[str]]) -> TreeDecomposition:
    """Maximum-weight spanning forest over bags, weighted by intersection size.

    Kruskal's algorithm over the edges ``(i, j)``, ``i < j``, of bags that
    meet, by decreasing weight and then by ``(i, j)``.
    """
    weighted = sorted(
        (-len(bags[i] & bags[j]), i, j)
        for i in range(len(bags))
        for j in range(i + 1, len(bags))
        if not bags[i].isdisjoint(bags[j])
    )
    edges = _spanning_edges(len(bags), ((i, j) for _, i, j in weighted))
    return TreeDecomposition(bags=tuple(bags), edges=tuple(sorted(edges)))


def _spanning_edges(size: int, edges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The edges, in the given order, that join two trees of the forest so far."""
    root = list(range(size))

    def find(node: int) -> int:
        while root[node] != node:
            root[node] = root[root[node]]
            node = root[node]
        return node

    kept: List[Tuple[int, int]] = []
    for t1, t2 in edges:
        r1, r2 = find(t1), find(t2)
        if r1 != r2:
            root[r1] = r2
            kept.append((t1, t2))
    return kept
