"""Property-based tests for the conjunctive-query substrate."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.decompositions import (
    candidate_tree_decompositions,
    has_simple_junction_tree,
    has_totally_disconnected_junction_tree,
    heuristic_tree_decomposition,
    is_acyclic,
    is_chordal,
    join_tree,
    junction_tree,
)
from repro.cq.evaluation import evaluate_bag, evaluate_set
from repro.cq.homomorphism import (
    _order_atoms,
    count_homomorphisms_via_decomposition,
    count_query_homomorphisms,
    query_homomorphisms,
)
from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.reductions import saturate_database, saturate_query
from repro.cq.structures import Structure
from repro.workloads.generators import path_query, random_database, star_query

VARIABLES = ("x", "y", "z", "w")


def atoms():
    relation = st.sampled_from(("R", "S"))
    args = st.tuples(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES))
    return st.builds(Atom, relation, args)


def queries():
    return st.lists(atoms(), min_size=1, max_size=5).map(
        lambda atom_list: ConjunctiveQuery(atoms=tuple(atom_list), head=())
    )


def databases():
    return st.integers(0, 10**6).map(
        lambda seed: random_database({"R": 2, "S": 2}, 3, 4, seed=seed)
    )


def book_queries():
    """Three or four pages ``p_i`` joined to a spine ``x, y``, random names and directions.

    Their heuristic decompositions have a bag with two or more children
    across two-variable separators (see the test below).
    """
    def edge(ends):
        return st.builds(
            Atom, st.sampled_from(("R", "S")), st.sampled_from((ends, ends[::-1]))
        )

    pages = st.integers(3, 4).flatmap(
        lambda count: st.tuples(
            *(edge((spine, f"p{page}")) for page in range(count) for spine in "xy")
        )
    )
    extras = st.lists(st.one_of(edge(("x", "y")), atoms()), max_size=1)
    return st.builds(
        lambda body, extra: ConjunctiveQuery(atoms=body + tuple(extra), head=()),
        pages,
        extras,
    )


def structures():
    """Small structures over ``R`` and ``S``, some elements in no fact."""
    rows = st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=7)
    return st.builds(
        lambda relations, size: Structure(domain=range(size), relations=relations),
        st.dictionaries(st.sampled_from(("R", "S")), rows),
        st.integers(3, 4),
    )


def full_scan_homomorphisms(query, structure, fixed=None):
    """Reference enumerator: every row of the relation at every step."""
    base = dict(fixed or {})
    if any(value not in structure.domain for value in base.values()):
        return
    atoms = _order_atoms(query)

    def backtrack(index, assignment):
        if index == len(atoms):
            yield assignment
            return
        atom = atoms[index]
        for row in structure.tuples(atom.relation):
            extended = dict(assignment)
            if len(row) == len(atom.args) and all(
                extended.setdefault(variable, value) == value
                for variable, value in zip(atom.args, row)
            ):
                yield from backtrack(index + 1, extended)

    yield from backtrack(0, base)


def grouped_join(decomposition):
    """True when a bag has 2+ children and joins one of them on 2+ variables."""
    children = {}
    for node, parent in decomposition.rooted_parents().items():
        if parent is not None:
            children.setdefault(parent, []).append(node)
    bags = decomposition.bags
    return any(
        len(kids) >= 2 and any(len(bags[node] & bags[kid]) >= 2 for kid in kids)
        for node, kids in children.items()
    )


@settings(max_examples=40, deadline=None)
@given(queries(), databases())
def test_bag_answer_refines_set_answer(query, database):
    bag = evaluate_bag(query, database)
    set_answer = evaluate_set(query, database)
    assert set(bag) == set(set_answer)
    assert all(count >= 1 for count in bag.values())


@settings(max_examples=40, deadline=None)
@given(queries(), databases())
def test_hom_count_multiplicative_under_disjoint_copies(query, database):
    single = count_query_homomorphisms(query, database)
    double = count_query_homomorphisms(query.disjoint_copies(2), database)
    assert double == single**2


@settings(max_examples=40, deadline=None)
@given(queries())
def test_candidate_decompositions_are_valid(query):
    for decomposition in candidate_tree_decompositions(query):
        decomposition.validate(query)
        assert decomposition.all_variables() == query.variable_set


@settings(max_examples=40, deadline=None)
@given(queries())
def test_join_tree_exists_iff_acyclic(query):
    if is_acyclic(query):
        tree = join_tree(query)
        tree.validate(query)
        assert tree.is_decomposition_witnessing_acyclicity(query)
    else:
        try:
            join_tree(query)
            raised = False
        except Exception:
            raised = True
        assert raised


@settings(max_examples=150, deadline=None)
@given(
    queries(),
    structures(),
    st.none() | st.dictionaries(st.sampled_from(VARIABLES + ("v",)), st.integers(0, 4)),
)
def test_indexed_enumeration_matches_full_scan_in_order(query, structure, fixed):
    # Fixed values 3 and 4 can fall outside the domain; "v" is in no query.
    expected = [
        tuple(assignment.items())
        for assignment in full_scan_homomorphisms(query, structure, fixed)
    ]
    assert [
        tuple(assignment.items())
        for assignment in query_homomorphisms(query, structure, fixed)
    ] == expected


@settings(max_examples=40, deadline=None)
@given(st.one_of(queries(), book_queries()), databases())
def test_decomposition_counting_matches_backtracking(query, database):
    expected = sum(1 for _ in full_scan_homomorphisms(query, database))
    decompositions = [heuristic_tree_decomposition(query)]
    if is_acyclic(query):
        decompositions.append(join_tree(query))
    for decomposition in decompositions:
        assert (
            count_homomorphisms_via_decomposition(query, database, decomposition)
            == expected
        )


@settings(max_examples=20, deadline=None)
@given(book_queries())
def test_book_queries_exercise_the_grouped_join(query):
    assert grouped_join(heuristic_tree_decomposition(query))


@settings(max_examples=25, deadline=None)
@given(queries(), databases())
def test_saturation_preserves_hom_counts(query, database):
    saturated_query = saturate_query(query)
    saturated_database = saturate_database(database)
    assert count_query_homomorphisms(query, database) == count_query_homomorphisms(
        saturated_query, saturated_database
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), databases())
def test_path_counts_monotone_in_length(length, database):
    # Appending an atom to a path can only reduce or keep... actually longer
    # paths can have more homomorphisms; instead check the sound direction:
    # the length-(k+1) path is bag-contained in the length-k path, so counts
    # are monotone non-increasing in the length on every database.
    longer = count_query_homomorphisms(path_query(length + 1), database)
    shorter = count_query_homomorphisms(path_query(length), database)
    domain = len(database.domain)
    assert longer <= shorter * domain  # trivial sanity bound
    # The real containment bound (Theorem 4.2 consequence):
    assert count_query_homomorphisms(
        path_query(length + 1), database
    ) * 1 <= count_query_homomorphisms(path_query(length), database) * domain


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), databases())
def test_star_counts_dominate_edge_count(leaves, database):
    # hom(star_k, D) = Σ_v outdeg(v)^k >= |R| for k >= 1.
    star = count_query_homomorphisms(star_query(leaves), database)
    edge = count_query_homomorphisms(star_query(1), database)
    assert star >= edge or leaves == 1


# ---------------------------------------------------------------------- #
# Decompositions against the definitions
# ---------------------------------------------------------------------- #
WIDE_VARIABLES = tuple(f"v{i}" for i in range(8))


def wide_atoms():
    """Atoms of arity 1-3 over eight variables (relation ``R<arity>``)."""
    return st.integers(1, 3).flatmap(
        lambda arity: st.builds(
            Atom,
            st.just(f"R{arity}"),
            st.tuples(*[st.sampled_from(WIDE_VARIABLES)] * arity),
        )
    )


def wide_queries():
    return st.lists(wide_atoms(), min_size=1, max_size=10).map(
        lambda atom_list: ConjunctiveQuery(atoms=tuple(atom_list), head=())
    )


def neighbours_of(query):
    """The Gaifman graph, built here from the atoms."""
    neighbours = {variable: set() for variable in query.variables}
    for atom in query.atoms:
        for u, v in itertools.permutations(atom.variable_set, 2):
            neighbours[u].add(v)
    return neighbours


def reach(start, nodes, edges):
    """The nodes of ``nodes`` connected to ``start`` through edges inside ``nodes``."""
    found = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for a, b in edges:
            for here, there in ((a, b), (b, a)):
                if here == node and there in nodes and there not in found:
                    found.add(there)
                    frontier.append(there)
    return found


def assert_tree_decomposition(decomposition, query):
    """Forest, running intersection and atom coverage, from the definitions."""
    bags = decomposition.bags
    nodes = set(range(len(bags)))
    edges = list(decomposition.edges)
    assert all(a != b and {a, b} <= nodes for a, b in edges)
    assert len({frozenset(edge) for edge in edges}) == len(edges)
    components = {frozenset(reach(node, nodes, edges)) for node in nodes}
    assert len(edges) == len(nodes) - len(components), "not a forest"
    assert decomposition.all_variables() == query.variable_set
    for variable in query.variables:
        holding = {node for node in nodes if variable in bags[node]}
        assert reach(min(holding), holding, edges) == holding, variable
    for atom in query.atoms:
        assert any(atom.variable_set <= bag for bag in bags), atom


def is_clique(neighbours, members):
    return all(v in neighbours[u] for u, v in itertools.combinations(members, 2))


def chordal_by_simplicial_elimination(neighbours):
    """Remove simplicial vertices while one exists; chordal iff none remain."""
    remaining = set(neighbours)
    while remaining:
        simplicial = next(
            (
                v
                for v in remaining
                if is_clique(neighbours, neighbours[v] & remaining)
            ),
            None,
        )
        if simplicial is None:
            return False
        remaining.discard(simplicial)
    return True


def brute_force_maximal_cliques(neighbours):
    variables = sorted(neighbours)
    cliques = [
        frozenset(members)
        for size in range(1, len(variables) + 1)
        for members in itertools.combinations(variables, size)
        if is_clique(neighbours, members)
    ]
    return {clique for clique in cliques if not any(clique < other for other in cliques)}


def brute_force_minimal_separators(neighbours):
    """Non-empty ``S`` leaving two components that every vertex of ``S`` touches."""
    variables = sorted(neighbours)
    edges = [(u, v) for u in variables for v in neighbours[u]]
    separators = set()
    for size in range(1, len(variables) - 1):
        for separator in map(frozenset, itertools.combinations(variables, size)):
            rest = set(variables) - separator
            full = {
                frozenset(component)
                for component in (reach(v, rest, edges) for v in rest)
                if all(neighbours[s] & component for s in separator)
            }
            if len(full) >= 2:
                separators.add(separator)
    return separators


@settings(max_examples=150, deadline=None)
@given(wide_queries())
def test_every_decomposition_satisfies_the_definitions(query):
    decompositions = [heuristic_tree_decomposition(query)]
    decompositions += candidate_tree_decompositions(query)
    if is_acyclic(query):
        decompositions.append(join_tree(query))
        assert all(bag in {a.variable_set for a in query.atoms} for bag in join_tree(query).bags)
    if is_chordal(query):
        decompositions.append(junction_tree(query))
    for decomposition in decompositions:
        assert_tree_decomposition(decomposition, query)


@settings(max_examples=150, deadline=None)
@given(wide_queries())
def test_chordality_and_junction_trees_match_brute_force(query):
    neighbours = neighbours_of(query)
    chordal = chordal_by_simplicial_elimination(neighbours)
    assert is_chordal(query) == chordal
    if not chordal:
        assert not has_simple_junction_tree(query)
        assert not has_totally_disconnected_junction_tree(query)
        return
    tree = junction_tree(query)
    assert len(set(tree.bags)) == len(tree.bags)
    assert set(tree.bags) == brute_force_maximal_cliques(neighbours)
    # A junction tree's separators are the minimal vertex separators.
    separators = set(tree.separators())
    assert separators == brute_force_minimal_separators(neighbours)
    assert has_simple_junction_tree(query) == all(len(s) <= 1 for s in separators)
    assert has_totally_disconnected_junction_tree(query) == (not separators)
