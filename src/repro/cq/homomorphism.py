"""Homomorphism enumeration and counting.

Homomorphism counts are the central quantity of the paper: the answer of a
Boolean conjunctive query ``Q`` on a database ``D`` under bag-set semantics
is ``|hom(Q, D)|``, and ``Q1 ⊑ Q2`` means ``|hom(Q1, D)| ≤ |hom(Q2, D)|`` for
every ``D``.

Two counting engines are provided:

* a generic backtracking engine (:func:`query_homomorphisms`) that works for
  every query and also powers structure-to-structure homomorphism counting.
  It walks a join plan that keys each atom's relation by the positions
  already bound when the atom is reached, so every step is one dict lookup;
* a tree-decomposition engine
  (:func:`count_homomorphisms_via_decomposition`), the Yannakakis-style
  dynamic program, which is exponentially faster on acyclic / bounded-width
  queries and serves as the "substrate" baseline for the A1 ablation
  benchmark.  Each bag joins its children through the same keyed grouping:
  a child's weights are summed once per value of the shared variables.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.structures import Structure, canonical_structure
from repro.exceptions import QueryError

Assignment = Dict[str, object]


# ---------------------------------------------------------------------- #
# Backtracking engine
# ---------------------------------------------------------------------- #
def _order_atoms(query: ConjunctiveQuery) -> List[Atom]:
    """Order atoms so that each one shares variables with earlier atoms.

    A greedy connectivity-first order keeps the partial assignment as
    constrained as possible, which prunes the backtracking search early.
    """
    remaining = list(query.atoms)
    ordered: List[Atom] = []
    bound: set = set()
    while remaining:
        best_index = 0
        best_score = (-1, 0)
        for index, atom in enumerate(remaining):
            shared = len(atom.variable_set & bound)
            # Prefer atoms with many already-bound variables, then small atoms.
            score = (shared, -len(atom.variable_set))
            if score > best_score:
                best_score = score
                best_index = index
        atom = remaining.pop(best_index)
        ordered.append(atom)
        bound.update(atom.variable_set)
    return ordered


#: One step of a join plan: the slots of the values an atom reads from the
#: partial assignment, and a dict from those values to the tuples of values
#: the matching rows give the atom's new variables.
JoinStep = Tuple[Tuple[int, ...], Dict[Tuple, List[Tuple]]]


def _join_plan(
    atoms: List[Atom], structure: Structure, bound: Iterable[str]
) -> Tuple[List[str], List[JoinStep]]:
    """Index each atom's relation on the positions bound when the atom is reached.

    ``bound`` lists the variables bound before the first atom.  Returns the
    slot names, ``bound`` followed by the variables each atom binds for the
    first time (slot ``i`` of an assignment holds the value of
    ``names[i]``), and one step per atom.  A row matches when it has the
    atom's arity and agrees wherever a variable repeats.  Each dict bucket
    keeps rows in the relation's iteration order, so enumerating through the
    plan visits assignments in the same order as scanning every row at
    every step.
    """
    names = list(bound)
    slot = {variable: index for index, variable in enumerate(names)}
    plan: List[JoinStep] = []
    for atom in atoms:
        key_positions = [i for i, variable in enumerate(atom.args) if variable in slot]
        first: Dict[str, int] = {}
        equalities = []
        for position, variable in enumerate(atom.args):
            if variable in slot:
                continue
            if variable in first:
                equalities.append((first[variable], position))
            else:
                first[variable] = position
        index: Dict[Tuple, List[Tuple]] = {}
        for row in structure.tuples(atom.relation):
            if len(row) == len(atom.args) and all(row[i] == row[j] for i, j in equalities):
                key = tuple(row[i] for i in key_positions)
                index.setdefault(key, []).append(tuple(row[i] for i in first.values()))
        plan.append((tuple(slot[atom.args[i]] for i in key_positions), index))
        for variable in first:
            slot[variable] = len(names)
            names.append(variable)
    return names, plan


def query_homomorphisms(
    query: ConjunctiveQuery,
    structure: Structure,
    fixed: Optional[Mapping[str, object]] = None,
) -> Iterator[Assignment]:
    """Enumerate the homomorphisms (satisfying assignments) of ``query`` in ``structure``.

    ``fixed`` optionally pre-binds some variables (used to evaluate queries
    with head variables and to restrict to ``hom_φ`` in Section 4.2).
    Each yielded assignment maps every variable of the query to a domain
    element of ``structure``.  The join plan is built once per call; the
    order of the assignments follows :func:`_order_atoms` and the
    iteration order of the structure's relations.
    """
    base: Assignment = dict(fixed) if fixed else {}
    if any(value not in structure.domain for value in base.values()):
        return
    names, plan = _join_plan(_order_atoms(query), structure, base)

    def backtrack(level: int, values: Tuple) -> Iterator[Assignment]:
        if level == len(plan):
            yield dict(zip(names, values))
            return
        key_slots, index = plan[level]
        for new in index.get(tuple(values[i] for i in key_slots), ()):
            yield from backtrack(level + 1, values + new)

    yield from backtrack(0, tuple(base.values()))


def count_query_homomorphisms(
    query: ConjunctiveQuery,
    structure: Structure,
    fixed: Optional[Mapping[str, object]] = None,
) -> int:
    """Count ``|hom(Q, D)|`` (restricted to assignments extending ``fixed``).

    Uses the tree-decomposition dynamic program over a join tree when the
    query is acyclic and no variables are fixed, and backtracking otherwise.
    """
    if not fixed:
        from repro.cq.decompositions import is_acyclic, join_tree

        try:
            if is_acyclic(query):
                return count_homomorphisms_via_decomposition(
                    query, structure, join_tree(query)
                )
        except QueryError:
            # A bag would materialize too many assignments; fall back to the
            # memory-frugal backtracking count.
            pass
    return sum(1 for _ in query_homomorphisms(query, structure, fixed=fixed))


def exists_query_homomorphism(
    query: ConjunctiveQuery,
    structure: Structure,
    fixed: Optional[Mapping[str, object]] = None,
) -> bool:
    """True when at least one homomorphism of ``query`` into ``structure`` exists."""
    for _ in query_homomorphisms(query, structure, fixed=fixed):
        return True
    return False


# ---------------------------------------------------------------------- #
# Structure-to-structure homomorphisms
# ---------------------------------------------------------------------- #
def _structure_as_query(structure: Structure) -> Tuple[Optional[ConjunctiveQuery], Tuple]:
    """View a structure as a Boolean query (facts become atoms).

    Returns the query together with the tuple of isolated domain elements
    (elements that appear in no fact); those are unconstrained and multiply
    the homomorphism count by ``|target domain|`` each.  A structure with no
    facts has no query (``None``): every map of its domain is a
    homomorphism.
    """
    atoms = []
    used = set()
    for name, row in structure.facts():
        atoms.append(Atom(name, tuple(f"__elem_{value!r}" for value in row)))
        used.update(row)
    isolated = tuple(sorted((structure.domain - used), key=str))
    query = ConjunctiveQuery(atoms=tuple(atoms), head=()) if atoms else None
    return query, isolated


def homomorphisms(source: Structure, target: Structure) -> Iterator[Dict]:
    """Enumerate homomorphisms ``source → target`` as domain-element maps."""
    query, isolated = _structure_as_query(source)
    reverse = {f"__elem_{value!r}": value for value in source.domain}
    target_domain = sorted(target.domain, key=str)
    cores = query_homomorphisms(query, target) if query is not None else [{}]
    for assignment in cores:
        core = {reverse[variable]: value for variable, value in assignment.items()}
        for values in itertools.product(target_domain, repeat=len(isolated)):
            mapping = dict(core)
            mapping.update(zip(isolated, values))
            yield mapping


def count_homomorphisms(source: Structure, target: Structure) -> int:
    """Count ``|hom(source, target)|`` between two structures."""
    query, isolated = _structure_as_query(source)
    base = count_query_homomorphisms(query, target) if query is not None else 1
    return base * (len(target.domain) ** len(isolated))


def exists_homomorphism(source: Structure, target: Structure) -> bool:
    """True when a homomorphism ``source → target`` exists."""
    return next(homomorphisms(source, target), None) is not None


def query_to_query_homomorphisms(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> List[Dict[str, str]]:
    """All homomorphisms ``source → target`` between queries.

    Queries are identified with their canonical structures (Section 2.2):
    a homomorphism maps variables of ``source`` to variables of ``target``
    such that every atom of ``source`` becomes an atom of ``target``.
    The result is the set ``hom(Q2, Q1)`` appearing in Eq. (8) when called as
    ``query_to_query_homomorphisms(q2, q1)``.
    """
    return list(query_homomorphisms(source, canonical_structure(target)))


def count_query_to_query_homomorphisms(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> int:
    """Count homomorphisms between two queries."""
    return count_query_homomorphisms(source, canonical_structure(target))


# ---------------------------------------------------------------------- #
# Tree-decomposition (Yannakakis-style) counting
# ---------------------------------------------------------------------- #
_MAX_BAG_ROWS = 500_000


def _bag_assignments(
    query: ConjunctiveQuery,
    structure: Structure,
    bag: frozenset,
    covered_atoms: Tuple[Atom, ...],
) -> List[Tuple]:
    """All assignments of the bag variables satisfying the bag's atoms.

    The bag's variables that are not constrained by any covered atom range
    over the whole domain of the structure.  To keep memory bounded the
    materialization refuses to build more than ``_MAX_BAG_ROWS`` rows (the
    caller falls back to backtracking in that case).
    """
    variables = tuple(sorted(bag))
    sub_query_atoms = covered_atoms
    constrained = set()
    for atom in sub_query_atoms:
        constrained.update(atom.variable_set)
    free = [v for v in variables if v not in constrained]

    assignments: List[Dict[str, object]] = []
    if sub_query_atoms:
        sub_query = ConjunctiveQuery(atoms=sub_query_atoms, head=())
        assignments = list(query_homomorphisms(sub_query, structure))
    else:
        assignments = [{}]

    domain = sorted(structure.domain, key=str)
    estimated = len(assignments) * (len(domain) ** len(free))
    if estimated > _MAX_BAG_ROWS:
        raise QueryError(
            f"bag over {variables} would materialize ~{estimated} assignments"
        )
    rows: List[Tuple] = []
    for assignment in assignments:
        if free:
            for values in itertools.product(domain, repeat=len(free)):
                full = dict(assignment)
                full.update(dict(zip(free, values)))
                rows.append(tuple(full[v] for v in variables))
        else:
            rows.append(tuple(assignment[v] for v in variables))
    return rows


def count_homomorphisms_via_decomposition(
    query: ConjunctiveQuery, structure: Structure, decomposition
) -> int:
    """Count ``|hom(Q, D)|`` using a tree decomposition of ``Q``.

    This is the classical dynamic program over a (rooted) tree decomposition:
    every atom is assigned to one bag that covers it, each bag materializes
    its satisfying assignments, and counts are aggregated bottom-up along the
    tree.  For decompositions of bounded width this runs in polynomial time.
    The decomposition is validated against ``query`` once per query.
    """
    query.decompositions.check(decomposition)
    assignment_of_atoms = decomposition.assign_atoms(query)
    parent = decomposition.rooted_parents()
    order = decomposition.topological_order()

    variables_of = {node: tuple(sorted(decomposition.bags[node])) for node in order}
    rows_of: Dict[object, List[Tuple]] = {}
    for node in order:
        rows_of[node] = _bag_assignments(
            query, structure, decomposition.bags[node], assignment_of_atoms[node]
        )

    # weight[node][row] = number of homomorphisms of the subtree rooted at node
    # whose restriction to the bag equals row.
    weight: Dict[object, Dict[Tuple, int]] = {}
    children: Dict[object, List[object]] = {node: [] for node in order}
    for node, par in parent.items():
        if par is not None:
            children[par].append(node)

    for node in reversed(order):
        bag_vars = variables_of[node]
        # Each child's weights summed once per value of the variables it
        # shares with this bag, keyed as the bag's rows will look them up.
        groups = []
        for child in children[node]:
            child_vars = variables_of[child]
            shared = [v for v in child_vars if v in decomposition.bags[node]]
            child_positions = [child_vars.index(v) for v in shared]
            sums: Dict[Tuple, int] = {}
            for child_row, child_weight in weight[child].items():
                key = tuple(child_row[i] for i in child_positions)
                sums[key] = sums.get(key, 0) + child_weight
            groups.append(([bag_vars.index(v) for v in shared], sums))
        node_weights: Dict[Tuple, int] = {}
        for row in rows_of[node]:
            total = 1
            for positions, sums in groups:
                total *= sums.get(tuple(row[i] for i in positions), 0)
                if total == 0:
                    break
            node_weights[row] = node_weights.get(row, 0) + total
        weight[node] = node_weights

    # Multiply the root counts of each connected component of the forest and
    # account for query variables not covered by any bag (there are none for
    # valid decompositions, by the coverage property).
    result = 1
    for node in order:
        if parent[node] is None:
            result *= sum(weight[node].values())
    return result
