"""Relational structures, database instances and named relations.

Two data structures live here:

* :class:`Structure` — a relational structure / database instance
  ``D = (D, R_1^D, ..., R_m^D)`` (paper Section 2.1).  Under bag-set
  semantics the instance itself is a *set* database.
* :class:`Relation` — a ``V``-relation ``P ⊆ D^V`` with named attributes
  (paper Section 3.1).  ``V``-relations are the witnesses of Fact 3.2; their
  uniform distributions supply the entropic functions used in Sections 3–5.

The module also provides :func:`canonical_structure`, the canonical database
of a conjunctive query (variables as domain elements, atoms as facts), which
identifies queries with structures as in Section 2.2 of the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Tuple,
)

from repro.cq.query import ConjunctiveQuery, Vocabulary
from repro.exceptions import StructureError

Fact = Tuple[str, Tuple]


@dataclass(frozen=True)
class Structure:
    """A finite relational structure (a set database instance).

    Attributes
    ----------
    domain:
        The finite set of domain elements.
    relations:
        Mapping from relation name to the set of tuples of that relation.
        Every tuple must only use elements of ``domain`` and all tuples of a
        relation must have the same arity.
    """

    domain: FrozenSet
    relations: Mapping[str, FrozenSet[Tuple]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", frozenset(self.domain))
        normalized: Dict[str, FrozenSet[Tuple]] = {}
        for name, tuples in self.relations.items():
            frozen = frozenset(tuple(t) for t in tuples)
            arities = {len(t) for t in frozen}
            if len(arities) > 1:
                raise StructureError(
                    f"relation {name!r} has tuples of mixed arities {sorted(arities)}"
                )
            for row in frozen:
                for value in row:
                    if value not in self.domain:
                        raise StructureError(
                            f"relation {name!r} uses value {value!r} outside the domain"
                        )
            normalized[name] = frozen
        object.__setattr__(self, "relations", normalized)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_facts(cls, facts: Iterable[Fact], domain: Iterable = None) -> "Structure":
        """Build a structure from ``(relation, tuple)`` facts.

        When ``domain`` is omitted it is the set of values mentioned in the
        facts (the *active domain*).
        """
        relations: Dict[str, set] = {}
        values = set(domain) if domain is not None else set()
        for name, row in facts:
            row = tuple(row)
            relations.setdefault(name, set()).add(row)
            values.update(row)
        return cls(domain=frozenset(values), relations=relations)

    @classmethod
    def empty(cls, vocabulary: Vocabulary, domain: Iterable = ()) -> "Structure":
        """A structure with empty relations for every vocabulary symbol."""
        return cls(
            domain=frozenset(domain),
            relations={name: frozenset() for name in vocabulary.relations()},
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def tuples(self, relation: str) -> FrozenSet[Tuple]:
        """All tuples of ``relation`` (empty if the relation is absent)."""
        return self.relations.get(relation, frozenset())

    def arity(self, relation: str) -> int:
        """Arity of ``relation``; 0 when the relation is empty or absent."""
        tuples = self.tuples(relation)
        for row in tuples:
            return len(row)
        return 0

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary of non-empty relations of the structure."""
        return Vocabulary(
            {name: self.arity(name) for name in self.relations if self.tuples(name)}
        )

    def total_tuples(self) -> int:
        """Total number of facts across all relations."""
        return sum(len(tuples) for tuples in self.relations.values())

    def facts(self) -> Iterator[Fact]:
        """Iterate over all ``(relation, tuple)`` facts in sorted order."""
        for name in sorted(self.relations):
            for row in sorted(self.tuples(name), key=str):
                yield name, row

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def rename_domain(self, mapping: Mapping) -> "Structure":
        """Apply an injective renaming to the domain elements."""
        image = [mapping.get(v, v) for v in self.domain]
        if len(set(image)) != len(image):
            raise StructureError("domain renaming must be injective")
        return Structure(
            domain=frozenset(image),
            relations={
                name: frozenset(
                    tuple(mapping.get(v, v) for v in row) for row in tuples
                )
                for name, tuples in self.relations.items()
            },
        )

    def disjoint_union(self, other: "Structure") -> "Structure":
        """Disjoint union of two structures (elements tagged 0 / 1).

        ``hom(Q, A ⊎ B)`` relates to homomorphism counts of connected queries
        additively; the operation is mainly used by the workload generators.
        """
        left = self.rename_domain({v: (0, v) for v in self.domain})
        right = other.rename_domain({v: (1, v) for v in other.domain})
        relations: Dict[str, set] = {}
        for name in set(left.relations) | set(right.relations):
            relations[name] = set(left.tuples(name)) | set(right.tuples(name))
        return Structure(
            domain=left.domain | right.domain, relations=relations
        )

    def product(self, other: "Structure") -> "Structure":
        """Categorical product of two structures.

        ``hom(Q, A × B) = hom(Q, A) × hom(Q, B)``, hence
        ``|hom(Q, A × B)| = |hom(Q, A)| · |hom(Q, B)|`` — the standard tool
        for amplifying counting gaps.
        """
        relations: Dict[str, set] = {}
        names = set(self.relations) & set(other.relations)
        for name in names:
            left, right = self.tuples(name), other.tuples(name)
            combined = set()
            for row_a in left:
                for row_b in right:
                    if len(row_a) == len(row_b):
                        combined.add(tuple(zip(row_a, row_b)))
            relations[name] = combined
        domain = frozenset(itertools.product(self.domain, other.domain))
        return Structure(domain=domain, relations=relations)

    def __str__(self) -> str:
        parts = [f"|domain|={len(self.domain)}"]
        for name in sorted(self.relations):
            parts.append(f"{name}:{len(self.tuples(name))}")
        return "Structure(" + ", ".join(parts) + ")"


def canonical_structure(query: ConjunctiveQuery) -> Structure:
    """The canonical structure of a query (variables as domain elements).

    Following Section 2.2 of the paper, a query ``Q`` is identified with the
    structure whose domain is ``vars(Q)`` and whose relation ``R_i`` contains
    the argument tuple of every atom with relation name ``R_i``.
    """
    relations: Dict[str, set] = {}
    for atom in query.atoms:
        relations.setdefault(atom.relation, set()).add(atom.args)
    return Structure(domain=frozenset(query.variables), relations=relations)


@dataclass(frozen=True)
class Relation:
    """A named-attribute relation ``P ⊆ D^V`` (a ``V``-relation).

    Attributes
    ----------
    attributes:
        The tuple of attribute (variable) names ``V`` in a fixed order.
    rows:
        The set of rows; each row is a tuple aligned with ``attributes``.
    """

    attributes: Tuple[str, ...]
    rows: FrozenSet[Tuple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if len(set(self.attributes)) != len(self.attributes):
            raise StructureError("relation attributes must be distinct")
        frozen = frozenset(tuple(r) for r in self.rows)
        for row in frozen:
            if len(row) != len(self.attributes):
                raise StructureError(
                    f"row {row!r} does not match attributes {self.attributes!r}"
                )
        object.__setattr__(self, "rows", frozen)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def product_relation(cls, columns: Mapping[str, Iterable]) -> "Relation":
        """The product relation ``∏_x S_x`` of Definition 3.3.

        ``columns`` maps each attribute to its unary relation ``S_x``; the
        result contains every combination of one value per attribute.
        """
        attributes = tuple(columns)
        value_lists = [sorted(set(columns[a]), key=str) for a in attributes]
        rows = set(itertools.product(*value_lists))
        return cls(attributes=attributes, rows=rows)

    @classmethod
    def step_relation(cls, attributes: Sequence[str], low_part: Iterable[str]) -> "Relation":
        """The two-tuple relation ``P_W`` whose entropy is the step function ``h_W``.

        Following Section 3.2 of the paper: the relation has the two tuples
        ``f1 = (1, ..., 1)`` and ``f2`` which equals 1 on the attributes in
        ``low_part`` (the set ``W``) and 2 elsewhere.
        """
        attributes = tuple(attributes)
        low = frozenset(low_part)
        unknown = low - set(attributes)
        if unknown:
            raise StructureError(f"low_part mentions unknown attributes {sorted(unknown)}")
        f1 = tuple(1 for _ in attributes)
        f2 = tuple(1 if a in low else 2 for a in attributes)
        return cls(attributes=attributes, rows={f1, f2})

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rows)

    @property
    def attribute_set(self) -> FrozenSet[str]:
        return frozenset(self.attributes)

    def column_index(self, attribute: str) -> int:
        """Position of ``attribute`` in the attribute tuple."""
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise StructureError(f"unknown attribute {attribute!r}") from exc

    def as_mappings(self) -> Iterator[Dict[str, object]]:
        """Iterate over rows as attribute → value dictionaries."""
        for row in self.rows:
            yield dict(zip(self.attributes, row))

    def active_domain(self) -> FrozenSet:
        """All values appearing anywhere in the relation."""
        return frozenset(value for row in self.rows for value in row)

    # ------------------------------------------------------------------ #
    # Relational algebra
    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[str]) -> "Relation":
        """Standard projection ``Π_X(P)`` onto the listed attributes."""
        attributes = tuple(attributes)
        indices = [self.column_index(a) for a in attributes]
        rows = {tuple(row[i] for i in indices) for row in self.rows}
        return Relation(attributes=attributes, rows=rows)

    def select_equal(self, attribute: str, value) -> "Relation":
        """Selection ``σ_{attribute = value}(P)``."""
        index = self.column_index(attribute)
        rows = {row for row in self.rows if row[index] == value}
        return Relation(attributes=self.attributes, rows=rows)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join on the shared attributes."""
        shared = [a for a in self.attributes if a in other.attribute_set]
        other_only = [a for a in other.attributes if a not in self.attribute_set]
        result_attrs = self.attributes + tuple(other_only)
        self_idx = [self.column_index(a) for a in shared]
        other_idx = [other.column_index(a) for a in shared]
        other_only_idx = [other.column_index(a) for a in other_only]

        buckets: Dict[Tuple, list] = {}
        for row in other.rows:
            key = tuple(row[i] for i in other_idx)
            buckets.setdefault(key, []).append(row)
        rows = set()
        for row in self.rows:
            key = tuple(row[i] for i in self_idx)
            for match in buckets.get(key, ()):
                rows.add(row + tuple(match[i] for i in other_only_idx))
        return Relation(attributes=result_attrs, rows=rows)

    def semijoin(self, other: "Relation") -> "Relation":
        """Semijoin ``P ⋉ other``: rows of ``P`` that join with ``other``."""
        shared = [a for a in self.attributes if a in other.attribute_set]
        if not shared:
            return self if other.rows else Relation(self.attributes, frozenset())
        self_idx = [self.column_index(a) for a in shared]
        other_keys = {tuple(row[other.column_index(a)] for a in shared) for row in other.rows}
        rows = {
            row for row in self.rows if tuple(row[i] for i in self_idx) in other_keys
        }
        return Relation(attributes=self.attributes, rows=rows)

    def domain_product(self, other: "Relation") -> "Relation":
        """The domain product ``P ⊗ P'`` of Definition B.1.

        Both relations must have the same attributes.  Each output row pairs
        the values of one row of ``self`` with one row of ``other``
        component-wise; the entropy of the result is the sum of the two
        entropies.
        """
        if set(self.attributes) != set(other.attribute_set):
            raise StructureError("domain_product requires identical attribute sets")
        other_perm = [other.column_index(a) for a in self.attributes]
        rows = set()
        for row_a in self.rows:
            for row_b in other.rows:
                rows.add(
                    tuple((row_a[i], row_b[other_perm[i]]) for i in range(len(row_a)))
                )
        return Relation(attributes=self.attributes, rows=rows)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes (missing keys unchanged)."""
        return Relation(
            attributes=tuple(mapping.get(a, a) for a in self.attributes),
            rows=self.rows,
        )

    def is_totally_uniform(self) -> bool:
        """Check Definition 4.5: every marginal of the uniform distribution is uniform.

        Equivalently: for every subset ``X`` of attributes, every tuple of
        ``Π_X(P)`` has the same number of extensions to a full row.
        """
        from repro.utils.subsets import nonempty_subsets

        for subset in nonempty_subsets(self.attributes):
            indices = [self.column_index(a) for a in subset]
            counts: Dict[Tuple, int] = {}
            for row in self.rows:
                key = tuple(row[i] for i in indices)
                counts[key] = counts.get(key, 0) + 1
            if len(set(counts.values())) > 1:
                return False
        return True

    def __str__(self) -> str:
        return f"Relation({', '.join(self.attributes)}; {len(self.rows)} rows)"
