"""Atoms, conjunctive queries and vocabularies (paper Section 2.2).

A conjunctive query ``Q(x) = A_1 ∧ ... ∧ A_k`` is represented by its tuple of
head variables ``x`` and its tuple of atoms ``A_j``.  Each atom carries a
relation name and a tuple of variables; repeated variables inside an atom are
allowed (``R(x, x, y)``), exactly as in the paper.

Because the paper works under bag-set semantics, repeated *atoms* carry no
meaning and are eliminated when the query is constructed (Section 2.2,
"Bag-bag Semantics" discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

from repro.exceptions import QueryError, VocabularyError
from repro.utils.ordering import stable_unique

if TYPE_CHECKING:
    from repro.cq.decompositions import QueryDecompositions

Variable = str
RelationName = str


@dataclass(frozen=True, order=True)
class Atom:
    """A single relational atom ``R(x_1, ..., x_a)``.

    Attributes
    ----------
    relation:
        The relation name ``R``.
    args:
        The tuple of variables in attribute-position order.  Variables may
        repeat, e.g. ``Atom("R", ("x", "x", "y"))``.
    """

    relation: RelationName
    args: Tuple[Variable, ...]

    def __post_init__(self) -> None:
        if not self.relation:
            raise QueryError("atom relation name must be non-empty")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) == 0:
            raise QueryError(
                f"atom {self.relation!r} must have at least one argument"
            )
        for arg in self.args:
            if not isinstance(arg, str) or not arg:
                raise QueryError(
                    f"atom {self.relation!r} has a non-string or empty variable: {arg!r}"
                )

    @property
    def arity(self) -> int:
        """Number of attribute positions of the atom's relation."""
        return len(self.args)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """Distinct variables of the atom in first-occurrence order."""
        return stable_unique(self.args)

    @property
    def variable_set(self) -> FrozenSet[Variable]:
        """Distinct variables of the atom as a frozenset."""
        return frozenset(self.args)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "Atom":
        """Return a copy of the atom with variables renamed via ``mapping``.

        Variables absent from ``mapping`` are kept unchanged.
        """
        return Atom(self.relation, tuple(mapping.get(v, v) for v in self.args))

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.args)})"


@dataclass(frozen=True)
class Vocabulary:
    """A relational vocabulary: a mapping from relation names to arities."""

    arities: Mapping[RelationName, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arities", dict(self.arities))

    def arity(self, relation: RelationName) -> int:
        """Return the arity of ``relation``; raise if unknown."""
        try:
            return self.arities[relation]
        except KeyError as exc:
            raise VocabularyError(f"unknown relation name: {relation!r}") from exc

    def relations(self) -> Tuple[RelationName, ...]:
        """Relation names in sorted order."""
        return tuple(sorted(self.arities))

    def merged_with(self, other: "Vocabulary") -> "Vocabulary":
        """Merge two vocabularies, raising on arity conflicts."""
        merged: Dict[RelationName, int] = dict(self.arities)
        for name, arity in other.arities.items():
            if name in merged and merged[name] != arity:
                raise VocabularyError(
                    f"relation {name!r} used with arities {merged[name]} and {arity}"
                )
            merged[name] = arity
        return Vocabulary(merged)

    def __contains__(self, relation: RelationName) -> bool:
        return relation in self.arities

    def __len__(self) -> int:
        return len(self.arities)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query under bag-set semantics.

    Attributes
    ----------
    atoms:
        The atoms of the body.  Repeated atoms are removed on construction
        (they are meaningless under bag-set semantics).
    head:
        The tuple of head (free) variables.  A query with an empty head is a
        *Boolean* query in the paper's terminology: its bag-set answer is a
        single number, the count of homomorphisms into the database.
    name:
        Optional human-readable name used in reprs and reports.
    """

    atoms: Tuple[Atom, ...]
    head: Tuple[Variable, ...] = ()
    name: str = field(default="Q", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.head, tuple):
            object.__setattr__(self, "head", tuple(self.head))
        if len(self.atoms) == 0:
            raise QueryError("a conjunctive query must have at least one atom")
        # Eliminate repeated atoms (bag-set semantics, Section 2.2).
        object.__setattr__(self, "atoms", stable_unique(self.atoms))
        body_vars = set()
        for atom in self.atoms:
            body_vars.update(atom.args)
        for head_var in self.head:
            if head_var not in body_vars:
                raise QueryError(
                    f"head variable {head_var!r} does not occur in the body"
                )
        # Check arity consistency across atoms.
        arities: Dict[RelationName, int] = {}
        for atom in self.atoms:
            known = arities.get(atom.relation)
            if known is not None and known != atom.arity:
                raise VocabularyError(
                    f"relation {atom.relation!r} used with arities {known} and {atom.arity}"
                )
            arities[atom.relation] = atom.arity

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables of the query in first-occurrence order."""
        return stable_unique(v for atom in self.atoms for v in atom.args)

    @property
    def variable_set(self) -> FrozenSet[Variable]:
        """All variables of the query as a frozenset."""
        return frozenset(self.variables)

    @property
    def existential_variables(self) -> Tuple[Variable, ...]:
        """Variables that are existentially quantified (not in the head)."""
        head = set(self.head)
        return tuple(v for v in self.variables if v not in head)

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary (relation name → arity) used by the query."""
        arities: Dict[RelationName, int] = {}
        for atom in self.atoms:
            arities[atom.relation] = atom.arity
        return Vocabulary(arities)

    @property
    def is_boolean(self) -> bool:
        """True when the query has no head variables."""
        return len(self.head) == 0

    @property
    def is_projection_free(self) -> bool:
        """True when no variable is existentially quantified."""
        return set(self.head) == set(self.variables)

    @cached_property
    def decompositions(self) -> "QueryDecompositions":
        """The query's acyclicity, chordality and tree decompositions.

        Built on first use and kept on this instance (see
        :class:`repro.cq.decompositions.QueryDecompositions`).  Pickles leave
        it out: an unpickled query builds its own.
        """
        from repro.cq.decompositions import QueryDecompositions

        return QueryDecompositions(self)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("decompositions", None)
        return state

    def atoms_with_relation(self, relation: RelationName) -> Tuple[Atom, ...]:
        """All atoms whose relation name equals ``relation``."""
        return tuple(atom for atom in self.atoms if atom.relation == relation)

    def atoms_within(self, variables: Iterable[Variable]) -> Tuple[Atom, ...]:
        """Atoms whose variables are all contained in ``variables``.

        This is the sub-query ``Q_t`` at a bag ``χ(t)`` used throughout
        Section 4 of the paper.
        """
        allowed = frozenset(variables)
        return tuple(
            atom for atom in self.atoms if atom.variable_set <= allowed
        )

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def rename(self, mapping: Mapping[Variable, Variable]) -> "ConjunctiveQuery":
        """Rename variables according to ``mapping`` (missing keys unchanged)."""
        return ConjunctiveQuery(
            atoms=tuple(atom.rename(mapping) for atom in self.atoms),
            head=tuple(mapping.get(v, v) for v in self.head),
            name=self.name,
        )

    def with_fresh_variables(self, suffix: str) -> "ConjunctiveQuery":
        """Rename every variable ``v`` to ``v + suffix``."""
        return self.rename({v: v + suffix for v in self.variables})

    def drop_head(self) -> "ConjunctiveQuery":
        """Return the Boolean query with the same body."""
        return ConjunctiveQuery(atoms=self.atoms, head=(), name=self.name)

    def conjoin(self, other: "ConjunctiveQuery", name: str = None) -> "ConjunctiveQuery":
        """Conjoin two queries (their variable sets are taken as given).

        The head of the result is the concatenation of both heads with
        duplicates removed.
        """
        self.vocabulary.merged_with(other.vocabulary)
        return ConjunctiveQuery(
            atoms=self.atoms + other.atoms,
            head=stable_unique(self.head + other.head),
            name=name or f"{self.name}∧{other.name}",
        )

    def disjoint_copies(self, count: int) -> "ConjunctiveQuery":
        """Return the conjunction of ``count`` variable-disjoint copies.

        This realizes the structure ``n · A`` of Kopparty–Rossman used by the
        reduction from exponent domination to DOM
        (paper Section 2.1, Lemma 2.2 of [21]): the number of homomorphisms
        of the result into any database is ``|hom(Q, D)| ** count``.
        """
        if count < 1:
            raise QueryError("disjoint_copies requires count >= 1")
        copies = [self.with_fresh_variables(f"__copy{i}") for i in range(count)]
        result = copies[0]
        for copy in copies[1:]:
            result = result.conjoin(copy)
        return ConjunctiveQuery(
            atoms=result.atoms, head=result.head, name=f"{self.name}^{count}"
        )

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        head = ", ".join(self.head)
        body = " ∧ ".join(str(atom) for atom in self.atoms)
        return f"{self.name}({head}) :- {body}"

    def __len__(self) -> int:
        return len(self.atoms)


def make_query(
    atoms: Sequence[Tuple[RelationName, Sequence[Variable]]],
    head: Sequence[Variable] = (),
    name: str = "Q",
) -> ConjunctiveQuery:
    """Convenience constructor from ``(relation, variables)`` pairs.

    >>> q = make_query([("R", ("x", "y")), ("R", ("y", "z"))])
    >>> len(q.atoms)
    2
    """
    return ConjunctiveQuery(
        atoms=tuple(Atom(rel, tuple(args)) for rel, args in atoms),
        head=tuple(head),
        name=name,
    )
