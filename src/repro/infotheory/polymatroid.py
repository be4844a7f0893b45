"""Polymatroid axioms and elemental Shannon inequalities (paper Section 3.2).

A function ``h : 2^V → R+`` with ``h(∅) = 0`` is a *polymatroid* when it is
monotone and submodular — Shannon's basic inequalities, Eq. (5) of the paper.
The set of polymatroids is the polyhedral cone ``Γn``; its facets are the
*elemental* inequalities generated here and consumed by the LP layer.

Performance notes
-----------------
The elemental structure (row masks, coefficients and the assembled CSR
matrix) is built once per ground tuple from bitmask arithmetic by the shared
:func:`repro.utils.lattice.lattice_context` and cached process-wide; the
:class:`ElementalInequality` objects themselves are materialized once per
ground tuple through an ``lru_cache``.  The axiom checks
(:func:`is_polymatroid`, :func:`is_monotone`, :func:`is_submodular`,
:func:`is_modular`) evaluate all inequalities at once as vectorized numpy
expressions over the dense bitmask-indexed value vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.infotheory.setfunction import DEFAULT_TOLERANCE, SetFunction
from repro.utils.lattice import lattice_context

_COEFFICIENT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ElementalInequality:
    """One elemental Shannon inequality ``Σ coefficients[X] · h(X) ≥ 0``.

    Two kinds exist (Yeung, *Information Theory and Network Coding*, Ch. 14):

    * monotonicity  ``h(V) - h(V \\ {i}) ≥ 0``,
    * conditional mutual information
      ``I(i ; j | K) = h(iK) + h(jK) - h(ijK) - h(K) ≥ 0``.
    """

    kind: str
    coefficients: Tuple[Tuple[FrozenSet[str], float], ...]
    description: str

    def evaluate(self, function: SetFunction) -> float:
        """Evaluate the left-hand side on ``function``."""
        return function.evaluate_combination(self.coefficients)

    def as_dict(self) -> Dict[FrozenSet[str], float]:
        result: Dict[FrozenSet[str], float] = {}
        for subset, coeff in self.coefficients:
            result[subset] = result.get(subset, 0.0) + coeff
        return {
            subset: coeff
            for subset, coeff in result.items()
            if abs(coeff) > _COEFFICIENT_TOLERANCE
        }

    def rename(self, mapping) -> "ElementalInequality":
        """Rename the variables of every subset (missing keys unchanged).

        The description is regenerated from the renamed coefficients, so the
        human-readable form matches the new names.
        """
        coefficients = tuple(
            (frozenset(mapping.get(v, v) for v in subset), coeff)
            for subset, coeff in self.coefficients
        )
        return ElementalInequality(
            kind=self.kind,
            coefficients=coefficients,
            description=describe_elemental(self.kind, coefficients),
        )


def describe_elemental(
    kind: str, coefficients: Sequence[Tuple[FrozenSet[str], float]]
) -> str:
    """The human-readable form of an elemental row, from its coefficients.

    Used when an :class:`ElementalInequality` is rebuilt under different
    variable names (renaming, store deserialization) and the original
    description no longer matches.
    """
    positives = [subset for subset, coeff in coefficients if coeff > 0]
    negatives = [subset for subset, coeff in coefficients if coeff < 0]
    if kind == "monotonicity":
        full = max(positives, key=len) if positives else frozenset()
        rest = max(negatives, key=len) if negatives else frozenset()
        return f"h({','.join(sorted(full))}) - h({','.join(sorted(rest))}) >= 0"
    if len(positives) < 2:
        raise ValueError("a CMI elemental needs the two positive subsets iK and jK")
    iK, jK = sorted(positives[:2], key=lambda subset: tuple(sorted(subset)))
    pair = iK ^ jK
    context = iK & jK
    left, right = sorted(pair)
    return f"I({left};{right}|{','.join(sorted(context)) or '∅'}) >= 0"


def _materialize_elemental(
    subset_of, positions, row_masks, row_coeffs, kind: str
) -> ElementalInequality:
    """Build one :class:`ElementalInequality` from its mask/coefficient row.

    ``subset_of`` maps a bitmask to its subset and ``positions`` a variable
    to its bit position.
    """
    coefficients = tuple(
        (subset_of(mask), float(coeff))
        for mask, coeff in zip(row_masks, row_coeffs)
        if coeff != 0.0
    )
    if kind == "monotonicity":
        full = subset_of(row_masks[0])
        rest = subset_of(row_masks[1])
        description = (
            f"h({','.join(sorted(full))}) - h({','.join(sorted(rest))}) >= 0"
        )
    else:
        pair = subset_of(row_masks[2]) - subset_of(row_masks[3])
        context = subset_of(row_masks[3])
        left, right = sorted(pair, key=positions.__getitem__)
        description = (
            f"I({left};{right}|{','.join(sorted(context)) or '∅'}) >= 0"
        )
    return ElementalInequality(
        kind=kind, coefficients=coefficients, description=description
    )


def materialize_elementals(
    ground: Sequence[str], masks, coeffs, kinds
) -> List[ElementalInequality]:
    """Build :class:`ElementalInequality` objects from explicit row data.

    ``masks``/``coeffs`` are ``(m, 4)`` arrays in the layout of
    :meth:`SubsetLattice.elemental_structure` and
    :meth:`repro.lp.rowgen.ShannonRowOracle.row_data`, bit ``i`` standing
    for ``ground[i]``.  The certificate paths use this to materialize only
    the handful of rows a proof uses instead of every elemental inequality
    of ``Γn``.  The subsets are built from ``ground``'s names alone, so rows
    read from the oracle of any ground of the same size come out under
    ``ground``'s names, and no lattice of ``ground`` is built.
    """
    ground = tuple(ground)
    positions = {variable: i for i, variable in enumerate(ground)}
    subsets: Dict[int, FrozenSet[str]] = {}

    def subset_of(mask) -> FrozenSet[str]:
        mask = int(mask)
        subset = subsets.get(mask)
        if subset is None:
            subset = subsets[mask] = frozenset(
                variable for i, variable in enumerate(ground) if mask >> i & 1
            )
        return subset

    return [
        _materialize_elemental(subset_of, positions, row_masks, row_coeffs, kind)
        for row_masks, row_coeffs, kind in zip(masks, coeffs, kinds)
    ]


@lru_cache(maxsize=128)
def _elemental_inequalities(ground: Tuple[str, ...]) -> Tuple[ElementalInequality, ...]:
    """Materialize the :class:`ElementalInequality` objects, once per ground tuple."""
    lattice = lattice_context(ground)
    _, masks, coeffs, kinds = lattice.elemental_structure()
    subset_of = lattice.subsets_by_mask.__getitem__
    return tuple(
        _materialize_elemental(subset_of, lattice.positions, row_masks, row_coeffs, kind)
        for row_masks, row_coeffs, kind in zip(masks, coeffs, kinds)
    )


def elemental_inequalities(ground: Sequence[str]) -> List[ElementalInequality]:
    """All elemental inequalities of ``Γn`` for the given ground set.

    There are ``n`` monotonicity inequalities and ``C(n,2) · 2^(n-2)``
    conditional mutual-information inequalities; together they generate every
    Shannon inequality.
    """
    return list(_elemental_inequalities(tuple(ground)))


def _elemental_values(function: SetFunction) -> np.ndarray:
    """Evaluate every elemental inequality on ``function`` in one sweep."""
    _, masks, coeffs, _ = function.lattice.elemental_structure()
    return (function.dense_values()[masks] * coeffs).sum(axis=1)


def is_polymatroid(function: SetFunction, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when ``function`` belongs to ``Γn`` (satisfies Eq. (5))."""
    values = _elemental_values(function)
    return bool(values.size == 0 or values.min() >= -tolerance)


def is_monotone(function: SetFunction, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when ``h(X) ≤ h(Y)`` for every ``X ⊆ Y``.

    Checked through the equivalent single-element steps
    ``h(X) ≤ h(X ∪ {i})`` plus non-negativity — ``O(n · 2^n)`` instead of
    enumerating all ``4^n`` subset pairs.
    """
    lattice = function.lattice
    vec = function.dense_values()
    if vec[1:].min(initial=0.0) < -tolerance:
        return False
    masks = lattice.arange
    for i in range(lattice.n):
        bit = 1 << i
        if not np.all(vec[masks] <= vec[masks | bit] + tolerance):
            return False
    return True


def is_submodular(function: SetFunction, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when ``h(X ∪ Y) + h(X ∩ Y) ≤ h(X) + h(Y)`` for all ``X, Y``.

    Checked through the equivalent exchange form
    ``h(X ∪ {i}) + h(X ∪ {j}) ≥ h(X ∪ {i,j}) + h(X)`` for ``i ≠ j ∉ X`` —
    ``O(n² · 2^n)`` instead of enumerating all ``4^n`` subset pairs.
    """
    lattice = function.lattice
    vec = function.dense_values()
    masks = lattice.arange
    for i in range(lattice.n):
        bit_i = 1 << i
        for j in range(i + 1, lattice.n):
            bit_j = 1 << j
            contexts = masks[(masks & (bit_i | bit_j)) == 0]
            lhs = vec[contexts | bit_i | bit_j] + vec[contexts]
            rhs = vec[contexts | bit_i] + vec[contexts | bit_j]
            if not np.all(lhs <= rhs + tolerance):
                return False
    return True


def is_modular(function: SetFunction, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when ``h(X ∪ Y) + h(X ∩ Y) = h(X) + h(Y)`` for all ``X, Y``.

    Equivalently ``h(X) = Σ_{i∈X} h({i})`` — the cone ``Mn`` of the paper.
    """
    lattice = function.lattice
    vec = function.dense_values()
    expected = np.zeros(lattice.size)
    for i in range(lattice.n):
        bit = 1 << i
        singleton = vec[bit]
        if singleton < -tolerance:
            return False
        expected += ((lattice.arange >> i) & 1) * singleton
    return bool(np.all(np.abs(vec - expected) <= tolerance))


def conditional_independence_holds(
    function: SetFunction,
    left: Sequence[str],
    right: Sequence[str],
    given: Sequence[str] = (),
    tolerance: float = 1e-7,
) -> bool:
    """True when ``I(left ; right | given) = 0`` under ``function``."""
    return abs(function.mutual_information(left, right, given)) <= tolerance


def functional_dependency_holds(
    function: SetFunction,
    source: Sequence[str],
    target: Sequence[str],
    tolerance: float = 1e-7,
) -> bool:
    """True when ``h(target | source) = 0`` under ``function``.

    By Lee's theorem (reference [22] of the paper) this characterizes the
    functional dependency ``source → target`` on the underlying relation when
    ``function`` is the entropy of a relation.
    """
    return abs(function.conditional(target, source)) <= tolerance
