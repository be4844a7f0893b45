"""Bag (multiset) relations and the bag relational-algebra operators.

A :class:`BagRelation` is a relation under bag semantics: each row carries a
positive integer multiplicity.  The operators follow the standard bag
semantics of SQL:

* projection keeps duplicates (multiplicities of collapsing rows add up);
* natural join multiplies multiplicities of matching rows;
* ``UNION ALL`` adds multiplicities, bag difference subtracts them (monus);
* ``DISTINCT`` resets every multiplicity to one;
* ``GROUP BY`` + ``COUNT(*)`` aggregates multiplicities per group.

Set relations (:class:`repro.cq.structures.Relation`) convert losslessly to
bag relations with multiplicity one and back via :meth:`BagRelation.distinct`
— this is the bridge the bag-set semantics of the paper uses: the *input*
database is a set, only the query answer is a bag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.cq.structures import Relation
from repro.exceptions import StructureError

Row = Tuple


@dataclass(frozen=True)
class BagRelation:
    """A relation under bag semantics: rows with positive multiplicities.

    Attributes
    ----------
    attributes:
        Attribute names in a fixed order.
    multiplicities:
        Mapping from a row (a tuple aligned with ``attributes``) to its
        multiplicity.  Rows with multiplicity zero are dropped at
        construction; negative multiplicities are rejected.
    """

    attributes: Tuple[str, ...]
    multiplicities: Mapping[Row, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        attributes = tuple(self.attributes)
        if len(set(attributes)) != len(attributes):
            raise StructureError("bag relation attributes must be distinct")
        cleaned: Dict[Row, int] = {}
        for row, count in dict(self.multiplicities).items():
            row = tuple(row)
            if len(row) != len(attributes):
                raise StructureError(
                    f"row {row!r} does not match attributes {attributes!r}"
                )
            if count < 0:
                raise StructureError(f"negative multiplicity {count} for row {row!r}")
            if count == 0:
                continue
            cleaned[row] = cleaned.get(row, 0) + int(count)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "multiplicities", cleaned)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "BagRelation":
        """The empty bag relation over the given attributes."""
        return cls(attributes=tuple(attributes), multiplicities={})

    @classmethod
    def from_rows(
        cls, attributes: Sequence[str], rows: Iterable[Row]
    ) -> "BagRelation":
        """Build from an iterable of rows; repeated rows accumulate multiplicity."""
        counts: Dict[Row, int] = {}
        for row in rows:
            row = tuple(row)
            counts[row] = counts.get(row, 0) + 1
        return cls(attributes=tuple(attributes), multiplicities=counts)

    @classmethod
    def from_relation(cls, relation: Relation) -> "BagRelation":
        """A set relation viewed as a bag (every multiplicity is one)."""
        return cls(
            attributes=relation.attributes,
            multiplicities={row: 1 for row in relation.rows},
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Total number of rows counted with multiplicity (``COUNT(*)``)."""
        return sum(self.multiplicities.values())

    def __bool__(self) -> bool:
        return bool(self.multiplicities)

    def __iter__(self) -> Iterator[Row]:
        """Iterate over rows, each repeated according to its multiplicity."""
        for row, count in self.multiplicities.items():
            for _ in range(count):
                yield row

    def distinct_count(self) -> int:
        """Number of distinct rows (``COUNT(DISTINCT *)``)."""
        return len(self.multiplicities)

    def multiplicity(self, row: Row) -> int:
        """Multiplicity of ``row`` (zero when absent)."""
        return self.multiplicities.get(tuple(row), 0)

    @property
    def attribute_set(self) -> FrozenSet[str]:
        return frozenset(self.attributes)

    def column_index(self, attribute: str) -> int:
        """Position of ``attribute`` in the attribute tuple."""
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise StructureError(f"unknown attribute {attribute!r}") from exc

    def support(self) -> FrozenSet[Row]:
        """The set of distinct rows."""
        return frozenset(self.multiplicities)

    def active_domain(self) -> FrozenSet:
        """All values appearing anywhere in the relation."""
        return frozenset(value for row in self.multiplicities for value in row)

    def as_mappings(self) -> Iterator[Dict[str, object]]:
        """Iterate over distinct rows as attribute → value dictionaries."""
        for row in self.multiplicities:
            yield dict(zip(self.attributes, row))

    def to_relation(self) -> Relation:
        """Forget multiplicities and return the underlying set relation."""
        return Relation(attributes=self.attributes, rows=self.support())

    # ------------------------------------------------------------------ #
    # Bag relational algebra
    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[str]) -> "BagRelation":
        """Bag projection ``Π_X``: multiplicities of collapsing rows add up."""
        attributes = tuple(attributes)
        indices = [self.column_index(a) for a in attributes]
        counts: Dict[Row, int] = {}
        for row, count in self.multiplicities.items():
            key = tuple(row[i] for i in indices)
            counts[key] = counts.get(key, 0) + count
        return BagRelation(attributes=attributes, multiplicities=counts)

    def select(self, predicate: Callable[[Dict[str, object]], bool]) -> "BagRelation":
        """Selection by an arbitrary predicate over attribute → value mappings."""
        counts = {
            row: count
            for row, count in self.multiplicities.items()
            if predicate(dict(zip(self.attributes, row)))
        }
        return BagRelation(attributes=self.attributes, multiplicities=counts)

    def select_equal(self, attribute: str, value) -> "BagRelation":
        """Selection ``σ_{attribute = value}``."""
        index = self.column_index(attribute)
        counts = {
            row: count for row, count in self.multiplicities.items() if row[index] == value
        }
        return BagRelation(attributes=self.attributes, multiplicities=counts)

    def select_equal_columns(self, left: str, right: str) -> "BagRelation":
        """Selection ``σ_{left = right}`` between two columns.

        This is how repeated variables inside an atom (``R(x, x, y)``) are
        handled by the compiler.
        """
        left_index = self.column_index(left)
        right_index = self.column_index(right)
        counts = {
            row: count
            for row, count in self.multiplicities.items()
            if row[left_index] == row[right_index]
        }
        return BagRelation(attributes=self.attributes, multiplicities=counts)

    def rename(self, mapping: Mapping[str, str]) -> "BagRelation":
        """Rename attributes (attributes missing from ``mapping`` are unchanged)."""
        return BagRelation(
            attributes=tuple(mapping.get(a, a) for a in self.attributes),
            multiplicities=dict(self.multiplicities),
        )

    def natural_join(self, other: "BagRelation") -> "BagRelation":
        """Bag natural join: multiplicities of matching rows multiply."""
        shared = [a for a in self.attributes if a in other.attribute_set]
        other_only = [a for a in other.attributes if a not in self.attribute_set]
        result_attrs = self.attributes + tuple(other_only)
        self_idx = [self.column_index(a) for a in shared]
        other_idx = [other.column_index(a) for a in shared]
        other_only_idx = [other.column_index(a) for a in other_only]

        buckets: Dict[Row, list] = {}
        for row, count in other.multiplicities.items():
            key = tuple(row[i] for i in other_idx)
            buckets.setdefault(key, []).append((row, count))
        counts: Dict[Row, int] = {}
        for row, count in self.multiplicities.items():
            key = tuple(row[i] for i in self_idx)
            for match, match_count in buckets.get(key, ()):
                joined = row + tuple(match[i] for i in other_only_idx)
                counts[joined] = counts.get(joined, 0) + count * match_count
        return BagRelation(attributes=result_attrs, multiplicities=counts)

    def semijoin(self, other: "BagRelation") -> "BagRelation":
        """Bag semijoin ``P ⋉ other``: rows of ``P`` with a join partner.

        Multiplicities of ``P`` are preserved (not multiplied) — the standard
        semijoin used by the Yannakakis full reducer.
        """
        shared = [a for a in self.attributes if a in other.attribute_set]
        if not shared:
            return self if other else BagRelation.empty(self.attributes)
        self_idx = [self.column_index(a) for a in shared]
        other_idx = [other.column_index(a) for a in shared]
        keys = {tuple(row[i] for i in other_idx) for row in other.multiplicities}
        counts = {
            row: count
            for row, count in self.multiplicities.items()
            if tuple(row[i] for i in self_idx) in keys
        }
        return BagRelation(attributes=self.attributes, multiplicities=counts)

    def union_all(self, other: "BagRelation") -> "BagRelation":
        """Bag union (``UNION ALL``): multiplicities add up."""
        self._check_union_compatible(other)
        counts = dict(self.multiplicities)
        permutation = [other.column_index(a) for a in self.attributes]
        for row, count in other.multiplicities.items():
            aligned = tuple(row[i] for i in permutation)
            counts[aligned] = counts.get(aligned, 0) + count
        return BagRelation(attributes=self.attributes, multiplicities=counts)

    def difference(self, other: "BagRelation") -> "BagRelation":
        """Bag difference (monus): multiplicities subtract, clipped at zero."""
        self._check_union_compatible(other)
        permutation = [other.column_index(a) for a in self.attributes]
        other_counts: Dict[Row, int] = {}
        for row, count in other.multiplicities.items():
            aligned = tuple(row[i] for i in permutation)
            other_counts[aligned] = other_counts.get(aligned, 0) + count
        counts = {
            row: count - other_counts.get(row, 0)
            for row, count in self.multiplicities.items()
            if count - other_counts.get(row, 0) > 0
        }
        return BagRelation(attributes=self.attributes, multiplicities=counts)

    def intersection(self, other: "BagRelation") -> "BagRelation":
        """Bag intersection: the minimum of the two multiplicities."""
        self._check_union_compatible(other)
        permutation = [other.column_index(a) for a in self.attributes]
        other_counts: Dict[Row, int] = {}
        for row, count in other.multiplicities.items():
            aligned = tuple(row[i] for i in permutation)
            other_counts[aligned] = other_counts.get(aligned, 0) + count
        counts = {
            row: min(count, other_counts.get(row, 0))
            for row, count in self.multiplicities.items()
            if min(count, other_counts.get(row, 0)) > 0
        }
        return BagRelation(attributes=self.attributes, multiplicities=counts)

    def distinct(self) -> "BagRelation":
        """``SELECT DISTINCT``: every multiplicity becomes one."""
        return BagRelation(
            attributes=self.attributes,
            multiplicities={row: 1 for row in self.multiplicities},
        )

    def group_count(self, group_attributes: Sequence[str]) -> Dict[Row, int]:
        """``SELECT group, COUNT(*) ... GROUP BY group`` as a dictionary.

        For the empty grouping list the result has the single key ``()`` with
        the total row count — exactly the bag-set answer of a Boolean query.
        """
        grouped = self.project(group_attributes)
        return dict(grouped.multiplicities)

    def scale(self, factor: int) -> "BagRelation":
        """Multiply every multiplicity by a non-negative integer factor."""
        if factor < 0:
            raise StructureError("scaling factor must be non-negative")
        return BagRelation(
            attributes=self.attributes,
            multiplicities={row: count * factor for row, count in self.multiplicities.items()},
        )

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def bag_contained_in(self, other: "BagRelation") -> bool:
        """Pointwise multiplicity comparison ``self ≤ other``."""
        self._check_union_compatible(other)
        permutation = [other.column_index(a) for a in self.attributes]
        other_counts: Dict[Row, int] = {}
        for row, count in other.multiplicities.items():
            aligned = tuple(row[i] for i in permutation)
            other_counts[aligned] = other_counts.get(aligned, 0) + count
        return all(
            count <= other_counts.get(row, 0) for row, count in self.multiplicities.items()
        )

    def same_bag(self, other: "BagRelation") -> bool:
        """Equality as bags (same rows with the same multiplicities)."""
        return self.bag_contained_in(other) and other.bag_contained_in(self)

    def _check_union_compatible(self, other: "BagRelation") -> None:
        if self.attribute_set != other.attribute_set:
            raise StructureError(
                "bag operations over two relations require identical attribute sets"
            )

    def __str__(self) -> str:
        return (
            f"BagRelation({', '.join(self.attributes)}; "
            f"{self.distinct_count()} distinct rows, {len(self)} total)"
        )
