"""Query and database reductions from Appendix A of the paper.

Three reductions live here:

* :func:`to_boolean_pair` — Lemma A.1: containment of queries with head
  variables reduces to containment of Boolean queries by adding a fresh unary
  atom ``U_i(x_i)`` per head variable.  The reduction preserves acyclicity,
  chordality and simplicity.
* :func:`bag_bag_to_bag_set` — the folklore reduction from bag-bag to bag-set
  containment: every relation gets one extra attribute holding a fresh
  existential "tuple identifier" variable per atom.
* :func:`saturate_query` / :func:`saturate_database` /
  :func:`desaturate_database` — Fact A.3: enrich the vocabulary with
  projection relations ``R_S`` so that the sub-query at every bag of a tree
  decomposition covers the bag.  The database transformations implement the
  two directions of the proof, which together transfer witnesses between the
  original and the saturated vocabularies.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Tuple

from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.structures import Structure
from repro.exceptions import ReductionError


# ---------------------------------------------------------------------- #
# Lemma A.1: reduction to Boolean queries
# ---------------------------------------------------------------------- #
def head_relation_name(index: int, prefix: str = "U") -> str:
    """The fresh unary relation name guarding the ``index``-th head variable."""
    return f"__{prefix}{index}"


def to_boolean_pair(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> Tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """Reduce containment with head variables to Boolean containment.

    Following Lemma A.1, the two queries must have the same number of head
    variables; the heads are aligned positionally and each position ``i``
    receives a fresh unary atom ``U_i`` on the corresponding head variable.
    ``Q1 ⊑ Q2`` holds iff the returned Boolean pair is contained.  Boolean
    inputs come back as fresh copies, so what a containment pipeline caches
    on its pair (:attr:`ConjunctiveQuery.decompositions`) lives as long as
    the pipeline's own objects, not as long as the caller's queries.
    """
    if len(q1.head) != len(q2.head):
        raise ReductionError(
            "queries must have the same number of head variables"
        )
    if q1.is_boolean:
        return q1.drop_head(), q2.drop_head()
    used = {atom.relation for atom in q1.atoms} | {atom.relation for atom in q2.atoms}

    def guard(query: ConjunctiveQuery) -> ConjunctiveQuery:
        atoms = list(query.atoms)
        for index, variable in enumerate(query.head):
            name = head_relation_name(index)
            if name in used:
                raise ReductionError(f"relation name {name!r} already in use")
            atoms.append(Atom(name, (variable,)))
        return ConjunctiveQuery(atoms=tuple(atoms), head=(), name=query.name + "_bool")

    return guard(q1), guard(q2)


def boolean_pair_database(
    database: Structure, head_values: Tuple, head_count: int
) -> Structure:
    """Extend ``database`` with singleton unary relations ``U_i = {d_i}``.

    This is the database transformation of the ⇐ direction of Lemma A.1: the
    multiplicity of the head tuple ``d`` in ``Q(D)`` equals the homomorphism
    count of the Boolean query on the extended database.
    """
    if len(head_values) != head_count:
        raise ReductionError("head tuple length mismatch")
    relations = {name: set(tuples) for name, tuples in database.relations.items()}
    for index in range(head_count):
        relations[head_relation_name(index)] = {(head_values[index],)}
    return Structure(
        domain=database.domain | frozenset(head_values), relations=relations
    )


# ---------------------------------------------------------------------- #
# Bag-bag to bag-set semantics
# ---------------------------------------------------------------------- #
def bag_bag_to_bag_set(query: ConjunctiveQuery, suffix: str = "_bb") -> ConjunctiveQuery:
    """The bag-bag → bag-set reduction (Section 2.2, citing [16]).

    Every relation ``R`` of arity ``a`` is replaced by a relation ``R + suffix``
    of arity ``a + 1``; every atom receives a distinct fresh existential
    variable in the new position, which ranges over the tuple identifiers of
    the bag database.  Repeated atoms of the original query become distinct
    atoms of the result, so bag-bag multiplicity is preserved.
    """
    atoms = []
    for index, atom in enumerate(query.atoms):
        fresh = f"__tid_{index}"
        if fresh in query.variables:
            raise ReductionError(f"variable {fresh!r} already used by the query")
        atoms.append(Atom(atom.relation + suffix, atom.args + (fresh,)))
    return ConjunctiveQuery(atoms=tuple(atoms), head=query.head, name=query.name + suffix)


def bag_database_to_set_database(
    relations_with_multiplicity: Dict[str, Dict[Tuple, int]], suffix: str = "_bb"
) -> Structure:
    """Encode a bag database as a set database with tuple identifiers.

    ``relations_with_multiplicity`` maps each relation name to a mapping from
    tuple to multiplicity; each copy of a tuple receives a distinct
    identifier value appended as the final attribute.
    """
    facts = []
    for name, tuples in relations_with_multiplicity.items():
        for row, multiplicity in tuples.items():
            if multiplicity < 0:
                raise ReductionError("multiplicities must be non-negative")
            for copy in range(multiplicity):
                facts.append((name + suffix, tuple(row) + ((name, row, copy),)))
    return Structure.from_facts(facts)


# ---------------------------------------------------------------------- #
# Fact A.3: projection saturation
# ---------------------------------------------------------------------- #
def projection_relation_name(relation: str, positions: Tuple[int, ...]) -> str:
    """Name of the projection relation ``R_S`` for ``S = positions``."""
    return f"{relation}__proj_{'_'.join(str(p) for p in positions)}"


def _proper_position_subsets(arity: int) -> Iterable[Tuple[int, ...]]:
    """Non-empty proper subsets of ``[0, arity)`` in a deterministic order."""
    for size in range(1, arity):
        yield from itertools.combinations(range(arity), size)


def saturate_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Add projection atoms ``R_S(x_S)`` for every atom and proper subset ``S``.

    After saturation, for every atom ``A`` and every subset of its positions
    there is an atom on exactly those variables, which guarantees the
    property of Fact A.3: the sub-query at any bag of a tree decomposition
    has the bag as its variable set.  The Gaifman graph (hence chordality,
    simplicity and acyclicity of the decompositions used in the paper) is
    unchanged because no new co-occurrences are introduced.
    """
    atoms = list(query.atoms)
    seen = set(query.atoms)
    for atom in query.atoms:
        for positions in _proper_position_subsets(atom.arity):
            new_atom = Atom(
                projection_relation_name(atom.relation, positions),
                tuple(atom.args[p] for p in positions),
            )
            if new_atom not in seen:
                seen.add(new_atom)
                atoms.append(new_atom)
    return ConjunctiveQuery(atoms=tuple(atoms), head=query.head, name=query.name + "_sat")


def saturate_database(database: Structure, vocabulary=None) -> Structure:
    """Extend ``database`` with the projections ``R_S^D = Π_S(R^D)``.

    This is the ⇐-direction construction of Fact A.3: homomorphism counts of
    the original queries on ``database`` coincide with those of the saturated
    queries on the saturated database.
    """
    relations: Dict[str, set] = {
        name: set(tuples) for name, tuples in database.relations.items()
    }
    for name in list(database.relations):
        tuples = database.tuples(name)
        if not tuples:
            continue
        arity = database.arity(name)
        for positions in _proper_position_subsets(arity):
            projected = {tuple(row[p] for p in positions) for row in tuples}
            relations[projection_relation_name(name, positions)] = projected
    return Structure(domain=database.domain, relations=relations)


def desaturate_database(database: Structure, base_vocabulary) -> Structure:
    """Convert a database over the saturated vocabulary back to the base one.

    This is the ⇒-direction construction of Fact A.3: every base relation
    ``R^D`` is replaced by its semijoin with the join of its projection
    relations, i.e. only tuples whose every projection is present in the
    corresponding ``R_S`` survive.  Homomorphism counts of the saturated
    queries on ``database`` equal those of the base queries on the result,
    which is how witnesses of non-containment are transported back.
    """
    relations: Dict[str, set] = {}
    for name in base_vocabulary.relations():
        arity = base_vocabulary.arity(name)
        surviving = set()
        for row in database.tuples(name):
            keep = True
            for positions in _proper_position_subsets(arity):
                projection_name = projection_relation_name(name, positions)
                projected = tuple(row[p] for p in positions)
                if projected not in database.tuples(projection_name):
                    keep = False
                    break
            if keep:
                surviving.add(row)
        relations[name] = surviving
    domain = set()
    for tuples in relations.values():
        for row in tuples:
            domain.update(row)
    if not domain:
        domain = set(database.domain) or {0}
    return Structure(domain=frozenset(domain), relations=relations)
