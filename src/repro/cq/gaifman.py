"""Gaifman graphs of conjunctive queries, and the graph algorithms run on them.

The Gaifman graph of a query has the query variables as vertices and an edge
between two variables whenever they co-occur in some atom.  Chordality of the
query (Section 3.1) is chordality of this graph.

Queries have few variables, so the algorithms below number the vertices by
their position in ``query.variables`` and hold every vertex set as an int
bitmask: ``adjacency[v]`` is the set of neighbours of vertex ``v``.  Every
choice among equals goes to the lowest vertex, so the results depend on the
query alone, never on the interpreter's hash salt.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.cq.query import ConjunctiveQuery


def vertices(mask: int) -> Iterator[int]:
    """The vertices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def adjacency_masks(query: ConjunctiveQuery) -> Tuple[int, ...]:
    """The Gaifman graph of ``query`` as one neighbour mask per variable."""
    index = {variable: position for position, variable in enumerate(query.variables)}
    adjacency = [0] * len(index)
    for atom in query.atoms:
        mask = 0
        for variable in atom.args:
            mask |= 1 << index[variable]
        for vertex in vertices(mask):
            adjacency[vertex] |= mask & ~(1 << vertex)
    return tuple(adjacency)


def gaifman_graph(query: ConjunctiveQuery) -> Dict[str, FrozenSet[str]]:
    """The Gaifman graph of ``query``: each variable mapped to its neighbours.

    Every variable is a key, in ``query.variables`` order, even one that
    co-occurs with no other variable (an atom with a single distinct
    variable gives an isolated vertex).
    """
    names = query.variables
    return {
        names[vertex]: frozenset(names[other] for other in vertices(mask))
        for vertex, mask in enumerate(adjacency_masks(query))
    }


def components(adjacency: Sequence[int]) -> List[int]:
    """The connected components, ordered by their lowest vertex."""
    found: List[int] = []
    unseen = (1 << len(adjacency)) - 1
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            reached = 0
            for vertex in vertices(frontier):
                reached |= adjacency[vertex]
            frontier = reached & ~component
            component |= frontier
        found.append(component)
        unseen &= ~component
    return found


def chordal_cliques(adjacency: Sequence[int]) -> Optional[List[int]]:
    """The maximal cliques of a chordal graph; ``None`` when it is not chordal.

    Maximum cardinality search visits next an unvisited vertex with the most
    visited neighbours.  The graph is chordal exactly when the reverse visit
    order is a perfect elimination order (Tarjan and Yannakakis), that is,
    when the neighbours each vertex had already visited form a clique.  Every
    maximal clique is then such a vertex together with those neighbours:
    take the clique's last visited vertex.
    """
    count = [0] * len(adjacency)
    visited = 0
    earlier = [0] * len(adjacency)
    unvisited = (1 << len(adjacency)) - 1
    while unvisited:
        vertex = max(vertices(unvisited), key=count.__getitem__)
        earlier[vertex] = adjacency[vertex] & visited
        visited |= 1 << vertex
        unvisited &= ~(1 << vertex)
        for other in vertices(adjacency[vertex] & unvisited):
            count[other] += 1
    for vertex, before in enumerate(earlier):
        for other in vertices(before):
            if before & ~adjacency[other] & ~(1 << other):
                return None
    candidates = {before | 1 << vertex for vertex, before in enumerate(earlier)}
    return [
        clique
        for clique in candidates
        if not any(clique != other and clique & other == clique for other in candidates)
    ]


def min_fill_decomposition(
    adjacency: Sequence[int], component: int
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """The min-fill-in tree decomposition of one connected component.

    Returns the bags (vertex masks) and the tree edges between bag indices.
    This is networkx's ``treewidth_min_fill_in`` with the component's
    vertices taken in increasing order: eliminate a vertex of least fill-in
    (the first such vertex among those of least degree) until the rest is a
    clique, which becomes the first bag; then, last elimination first, add
    each eliminated vertex with its neighbours as a bag, joined to the first
    bag that holds those neighbours (the first bag when none does).
    """
    graph = {vertex: adjacency[vertex] for vertex in vertices(component)}
    eliminated: List[Tuple[int, int]] = []
    vertex = _min_fill_vertex(graph)
    while vertex is not None:
        neighbours = graph.pop(vertex)
        for other in vertices(neighbours):
            graph[other] = (graph[other] | neighbours) & ~(1 << other) & ~(1 << vertex)
        eliminated.append((vertex, neighbours))
        vertex = _min_fill_vertex(graph)
    bags = [sum(1 << vertex for vertex in graph)]
    edges: List[Tuple[int, int]] = []
    for vertex, neighbours in reversed(eliminated):
        parent = next(
            (index for index, bag in enumerate(bags) if not neighbours & ~bag), 0
        )
        edges.append((parent, len(bags)))
        bags.append(neighbours | 1 << vertex)
    return bags, edges


def _min_fill_vertex(graph: Dict[int, int]) -> Optional[int]:
    """The next vertex to eliminate; ``None`` once the graph is a clique."""
    by_degree = sorted(graph, key=lambda vertex: graph[vertex].bit_count())
    if not by_degree or graph[by_degree[0]].bit_count() == len(graph) - 1:
        return None
    best, best_fill = None, None
    for vertex in by_degree:
        neighbours = graph[vertex]
        # Twice the number of missing edges among the neighbours.
        fill = sum(
            (neighbours & ~graph[other]).bit_count() - 1 for other in vertices(neighbours)
        )
        if fill == 0:
            return vertex
        if best_fill is None or fill < best_fill:
            best, best_fill = vertex, fill
    return best
