"""Set functions over a finite ground set of variables.

A :class:`SetFunction` represents a function ``h : 2^V → R`` with
``h(∅) = 0`` — the shape of every entropic function, polymatroid, step
function and I-measure manipulated by the paper.  It is the common currency
between the conjunctive-query side (entropies of witness relations) and the
LP side (points of the cones ``Mn ⊆ Nn ⊆ Γ*n ⊆ Γn``).

Performance notes
-----------------
Internally the value table is a **dense numpy vector indexed by subset
bitmask**: element ``ground[i]`` contributes bit ``2**i``, so ``h(X)`` lives
at coordinate ``Σ_{i ∈ X} 2**i`` (the convention of
:func:`repro.utils.subsets.powerset_indexed`).  The per-ground-set subset
enumeration, frozenset ↔ mask maps and elemental-inequality structure are
shared process-wide through :func:`repro.utils.lattice.lattice_context`, so
constructing many functions over the same ground set costs one vector
allocation each.  All algebra (``+``, ``-``, scalar ``*``), comparisons
(:meth:`dominates`, :meth:`is_close_to`), :meth:`restrict`,
:meth:`conditioned_on` and the vector round-trips are vectorized numpy
operations over that representation — no per-subset Python loops and no
frozenset hashing on the hot paths.  The public API remains keyed by
frozensets; the canonical coordinate order of :meth:`to_vector` (by size,
then lexicographically) is unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import EntropyError
from repro.utils.lattice import SubsetLattice, lattice_context

DEFAULT_TOLERANCE = 1e-9


def _as_frozenset(variables: Iterable[str]) -> FrozenSet[str]:
    if isinstance(variables, str):
        # A bare string is almost always a single-variable mistake upstream;
        # treat it as the singleton set rather than the set of its characters.
        return frozenset([variables])
    return frozenset(variables)


class SetFunction:
    """A function ``h : 2^V → R`` with ``h(∅) = 0``.

    Attributes
    ----------
    ground:
        The ordered tuple of ground-set variables ``V``.
    values:
        Mapping from non-empty subsets (frozensets of variables) to their
        non-zero values; subsets absent from the mapping have value 0.
        Derived lazily from the dense representation.
    """

    __slots__ = ("ground", "_lattice", "_vec", "_values")

    def __init__(
        self,
        ground: Sequence[str],
        values: Mapping[FrozenSet[str], float] = None,
    ) -> None:
        ground = tuple(ground)
        lattice = lattice_context(ground)
        vec = np.zeros(lattice.size)
        if values:
            bits = lattice.bits
            for subset, value in values.items():
                if isinstance(subset, str):
                    subset = (subset,)
                mask = 0
                try:
                    for variable in subset:
                        mask |= bits[variable]
                except (KeyError, TypeError):
                    raise EntropyError(
                        f"subset {sorted(subset)} is not contained in the ground set"
                    ) from None
                if mask:
                    vec[mask] = float(value)
        vec.setflags(write=False)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "_lattice", lattice)
        object.__setattr__(self, "_vec", vec)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):  # immutable, like the former frozen dataclass
        raise AttributeError(f"SetFunction is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SetFunction is immutable; cannot delete {name!r}")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_dense(
        cls, ground: Tuple[str, ...], vec: np.ndarray, lattice: SubsetLattice = None
    ) -> "SetFunction":
        """Internal fast path: wrap an already-valid dense vector (no checks)."""
        function = object.__new__(cls)
        if lattice is None:
            lattice = lattice_context(ground)
        vec.setflags(write=False)
        object.__setattr__(function, "ground", ground)
        object.__setattr__(function, "_lattice", lattice)
        object.__setattr__(function, "_vec", vec)
        object.__setattr__(function, "_values", None)
        return function

    @classmethod
    def zero(cls, ground: Sequence[str]) -> "SetFunction":
        """The identically-zero set function."""
        ground = tuple(ground)
        lattice = lattice_context(ground)
        return cls._from_dense(ground, np.zeros(lattice.size), lattice)

    @classmethod
    def from_vector(
        cls, ground: Sequence[str], vector: Sequence[float]
    ) -> "SetFunction":
        """Inverse of :meth:`to_vector` (coordinates over non-empty subsets)."""
        ground = tuple(ground)
        lattice = lattice_context(ground)
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (lattice.size - 1,):
            raise EntropyError(
                f"vector length {len(vector)} does not match 2^n - 1 = {lattice.size - 1}"
            )
        vec = np.zeros(lattice.size)
        vec[lattice.canon_masks[1:]] = vector
        return cls._from_dense(ground, vec, lattice)

    @classmethod
    def from_callable(cls, ground: Sequence[str], func) -> "SetFunction":
        """Tabulate ``func`` (mapping frozenset → value) over all subsets."""
        ground = tuple(ground)
        lattice = lattice_context(ground)
        vec = np.zeros(lattice.size)
        for subset, mask in zip(
            lattice.subsets_canonical[1:], lattice.canon_masks[1:]
        ):
            vec[mask] = func(subset)
        return cls._from_dense(ground, vec, lattice)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def __call__(self, variables: Iterable[str]) -> float:
        """Evaluate ``h(X)`` for a subset ``X`` of the ground set."""
        return float(self._vec[self._lattice.mask_of(variables)])

    def conditional(self, targets: Iterable[str], given: Iterable[str]) -> float:
        """The conditional value ``h(Y | X) = h(X ∪ Y) - h(X)``."""
        mask_of = self._lattice.mask_of
        targets_mask = mask_of(targets)
        given_mask = mask_of(given)
        return float(self._vec[targets_mask | given_mask] - self._vec[given_mask])

    def mutual_information(
        self, left: Iterable[str], right: Iterable[str], given: Iterable[str] = ()
    ) -> float:
        """The (conditional) mutual information ``I(left ; right | given)``."""
        mask_of = self._lattice.mask_of
        left_mask = mask_of(left)
        right_mask = mask_of(right)
        given_mask = mask_of(given)
        vec = self._vec
        return float(
            vec[left_mask | given_mask]
            + vec[right_mask | given_mask]
            - vec[left_mask | right_mask | given_mask]
            - vec[given_mask]
        )

    def evaluate_combination(self, coefficients) -> float:
        """Evaluate ``Σ c_X · h(X)`` for a mapping (or pair iterable) of coefficients.

        The fast path behind linear-expression and elemental-inequality
        evaluation: one dict lookup per term instead of re-hashing frozensets
        through :meth:`__call__`.
        """
        items = (
            coefficients.items() if hasattr(coefficients, "items") else coefficients
        )
        mask_index = self._lattice.mask_index
        mask_of = self._lattice.mask_of
        vec = self._vec
        total = 0.0
        for subset, coefficient in items:
            try:
                mask = mask_index.get(subset)
            except TypeError:
                mask = None  # unhashable subset key, e.g. a plain set
            if mask is None:
                # Non-frozenset keys (tuples, strings, sets) or unknown
                # variables: mask_of normalizes the former, raises on the latter.
                mask = mask_of(subset)
            total += coefficient * vec[mask]
        return total

    @property
    def lattice(self) -> SubsetLattice:
        """The shared :class:`SubsetLattice` context of this function's ground set."""
        return self._lattice

    def dense_values(self) -> np.ndarray:
        """The dense bitmask-indexed value vector (read-only, length ``2^n``)."""
        return self._vec

    @property
    def values(self) -> Dict[FrozenSet[str], float]:
        """Mapping from subsets to their non-zero values (lazily derived)."""
        if self._values is None:
            subsets_by_mask = self._lattice.subsets_by_mask
            materialized = {
                subsets_by_mask[mask]: float(self._vec[mask])
                for mask in np.nonzero(self._vec)[0]
            }
            object.__setattr__(self, "_values", materialized)
        return self._values

    @property
    def ground_set(self) -> FrozenSet[str]:
        return frozenset(self.ground)

    def total(self) -> float:
        """The value on the full ground set, ``h(V)``."""
        return float(self._vec[self._lattice.full_mask])

    def subsets(self) -> Tuple[FrozenSet[str], ...]:
        """All non-empty subsets of the ground set in canonical order."""
        return self._lattice.nonempty_subsets

    def to_vector(self) -> np.ndarray:
        """Flatten to a numpy vector with one coordinate per non-empty subset.

        Coordinates follow the canonical subset order (by size, then
        lexicographically in the ground order) — the order shared with the
        LP layer.
        """
        return self._vec[self._lattice.canon_masks[1:]]

    def as_dict(self) -> Dict[FrozenSet[str], float]:
        """All values (including implicit zeros) keyed by subset."""
        vec = self._vec
        return {
            subset: float(vec[mask])
            for subset, mask in zip(
                self._lattice.nonempty_subsets, self._lattice.canon_masks[1:]
            )
        }

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def _check_same_ground(self, other: "SetFunction") -> None:
        if self.ground != other.ground and frozenset(self.ground) != frozenset(
            other.ground
        ):
            raise EntropyError("set functions have different ground sets")

    def _aligned_vec(self, other: "SetFunction") -> np.ndarray:
        """``other``'s dense vector re-indexed into this function's bit order."""
        if self.ground == other.ground:
            return other._vec
        return other._vec[other._lattice.translate_masks(self.ground)]

    def __add__(self, other: "SetFunction") -> "SetFunction":
        self._check_same_ground(other)
        return SetFunction._from_dense(
            self.ground, self._vec + self._aligned_vec(other), self._lattice
        )

    def __sub__(self, other: "SetFunction") -> "SetFunction":
        self._check_same_ground(other)
        return SetFunction._from_dense(
            self.ground, self._vec - self._aligned_vec(other), self._lattice
        )

    def __mul__(self, scalar: float) -> "SetFunction":
        return SetFunction._from_dense(
            self.ground, scalar * self._vec, self._lattice
        )

    __rmul__ = __mul__

    def dominates(self, other: "SetFunction", tolerance: float = DEFAULT_TOLERANCE) -> bool:
        """True when ``self(X) ≥ other(X) - tolerance`` for every subset ``X``."""
        self._check_same_ground(other)
        return bool(np.all(self._vec >= self._aligned_vec(other) - tolerance))

    def is_close_to(self, other: "SetFunction", tolerance: float = 1e-7) -> bool:
        """True when the two functions agree on every subset up to ``tolerance``."""
        self._check_same_ground(other)
        return bool(np.all(np.abs(self._vec - self._aligned_vec(other)) <= tolerance))

    def restrict(self, variables: Sequence[str]) -> "SetFunction":
        """Restrict to a smaller ground set (values of subsets are unchanged)."""
        variables = tuple(variables)
        unknown = set(variables) - set(self.ground)
        if unknown:
            raise EntropyError(f"unknown variables {sorted(unknown)}")
        translated = self._lattice.translate_masks(variables)
        return SetFunction._from_dense(variables, self._vec[translated])

    def conditioned_on(self, given: Iterable[str]) -> "SetFunction":
        """The conditional function ``X ↦ h(X | given)`` over the remaining variables.

        As the paper notes (Appendix B), this is not entropic in general, but
        it is always a polymatroid when ``self`` is, and it is the object used
        by the uniformization argument of Lemma 5.3.
        """
        given_mask = self._lattice.mask_of(given)
        given_set = _as_frozenset(given)
        remaining = tuple(v for v in self.ground if v not in given_set)
        translated = self._lattice.translate_masks(remaining)
        vec = self._vec[translated | given_mask] - self._vec[given_mask]
        return SetFunction._from_dense(remaining, vec)

    def rename(self, mapping: Mapping[str, str]) -> "SetFunction":
        """Rename ground variables (must stay injective)."""
        new_ground = tuple(mapping.get(v, v) for v in self.ground)
        if len(set(new_ground)) != len(new_ground):
            raise EntropyError("variable renaming must be injective")
        # The bit layout is positional, so the dense vector carries over as is.
        return SetFunction._from_dense(new_ground, self._vec)

    # ------------------------------------------------------------------ #
    # Dunder plumbing (the class used to be a frozen dataclass)
    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.ground == other.ground and np.array_equal(self._vec, other._vec)

    __hash__ = None  # mutable-dict field made the old dataclass unhashable too

    def __reduce__(self):
        return (SetFunction, (self.ground, self.values))

    def __repr__(self) -> str:
        return f"SetFunction(ground={self.ground!r}, values={self.values!r})"

    def __str__(self) -> str:
        parts = [
            f"{{{','.join(sorted(subset))}}}: {self(subset):.4g}"
            for subset in self.subsets()
        ]
        return "SetFunction(" + ", ".join(parts) + ")"
