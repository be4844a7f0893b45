"""Bitmask-indexed subset-lattice contexts, cached per ground set.

Every decision procedure in the library quantifies over the ``2^n`` subsets
of a ground set of variables.  A :class:`SubsetLattice` pre-computes, once
per ground tuple (shared process-wide through :func:`lattice_context`), the
coordinate data every hot path needs:

* the **bitmask convention** — element ``ground[i]`` contributes bit
  ``2**i``, so a subset *is* an integer in ``[0, 2^n)`` and the value table
  of a set function is a dense numpy vector indexed by that integer (the
  convention of :func:`repro.utils.subsets.powerset_indexed`);
* the **canonical enumeration order** — by size, then lexicographically in
  the ground order (the order of :func:`repro.utils.subsets.all_subsets`),
  as a permutation ``canon_masks`` of the bitmask range, so dense vectors
  and the LP layer's canonical coordinate vectors convert by fancy indexing;
* frozenset ↔ mask maps for the public frozenset-based APIs;
* the **elemental inequality structure** of the Shannon cone ``Γn`` — the
  row/column/coefficient arrays and the assembled CSR matrix, built directly
  from bitmask arithmetic;
* vectorized superset zeta/Möbius transforms (the engines of the I-measure
  and normality checks).

The context is immutable after construction; callers must treat every array
it hands out as read-only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import EntropyError


class SubsetLattice:
    """Pre-computed subset-lattice data for one ordered ground tuple.

    Obtain instances through :func:`lattice_context`, never directly — the
    whole point is that there is exactly one per ground tuple per process.
    """

    __slots__ = (
        "ground",
        "n",
        "size",
        "full_mask",
        "positions",
        "bits",
        "arange",
        "popcount",
        "canon_masks",
        "canon_pos",
        "subsets_canonical",
        "nonempty_subsets",
        "subsets_by_mask",
        "mask_index",
        "canon_index",
        "_zeta_lo",
        "_elemental",
    )

    def __init__(self, ground: Tuple[str, ...]):
        if len(set(ground)) != len(ground):
            raise EntropyError("ground set contains repeated variables")
        n = len(ground)
        size = 1 << n
        self.ground = ground
        self.n = n
        self.size = size
        self.full_mask = size - 1
        self.positions = {variable: i for i, variable in enumerate(ground)}
        self.bits = {variable: 1 << i for i, variable in enumerate(ground)}
        self.arange = np.arange(size, dtype=np.int64)
        self.arange.setflags(write=False)

        popcount = np.zeros(size, dtype=np.int64)
        for i in range(n):
            popcount += (self.arange >> i) & 1
        popcount.setflags(write=False)
        self.popcount = popcount

        # Canonical (size-then-lex) enumeration, the order of all_subsets().
        masks: List[int] = []
        subsets: List[FrozenSet[str]] = []
        for k in range(n + 1):
            for combo in combinations(range(n), k):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                masks.append(mask)
                subsets.append(frozenset(ground[i] for i in combo))
        canon_masks = np.array(masks, dtype=np.int64)
        canon_masks.setflags(write=False)
        self.canon_masks = canon_masks
        canon_pos = np.empty(size, dtype=np.int64)
        canon_pos[canon_masks] = np.arange(size, dtype=np.int64)
        canon_pos.setflags(write=False)
        self.canon_pos = canon_pos
        self.subsets_canonical = tuple(subsets)
        self.nonempty_subsets = self.subsets_canonical[1:]
        by_mask: List[Optional[FrozenSet[str]]] = [None] * size
        for subset, mask in zip(subsets, masks):
            by_mask[mask] = subset
        self.subsets_by_mask = tuple(by_mask)
        self.mask_index: Dict[FrozenSet[str], int] = dict(zip(subsets, masks))
        self.canon_index: Dict[FrozenSet[str], int] = {
            subset: position for position, subset in enumerate(subsets)
        }
        self._zeta_lo: Optional[List[np.ndarray]] = None
        self._elemental = None

    # ------------------------------------------------------------------ #
    # Mask helpers
    # ------------------------------------------------------------------ #
    def mask_of(self, variables: Iterable[str]) -> int:
        """The bitmask of a subset given as an iterable of variables."""
        if isinstance(variables, str):
            variables = (variables,)
        elif not isinstance(variables, (tuple, list, set, frozenset)):
            variables = tuple(variables)
        bits = self.bits
        mask = 0
        try:
            for variable in variables:
                mask |= bits[variable]
        except (KeyError, TypeError):
            unknown = set(variables) - set(self.ground)
            raise EntropyError(f"unknown variables {sorted(unknown)}") from None
        return mask

    def translate_masks(self, sub_ground: Sequence[str]) -> np.ndarray:
        """Map masks over ``sub_ground``'s bit order into this lattice's masks.

        Returns an array ``t`` of length ``2^len(sub_ground)`` with
        ``t[m] = mask in self of the subset encoded by m over sub_ground``.
        Used to re-align vectors between ground orders, to restrict, and to
        condition.
        """
        k = len(sub_ground)
        sub_range = np.arange(1 << k, dtype=np.int64)
        translated = np.zeros(1 << k, dtype=np.int64)
        bits = self.bits
        for i, variable in enumerate(sub_ground):
            translated += ((sub_range >> i) & 1) * bits[variable]
        return translated

    # ------------------------------------------------------------------ #
    # Superset zeta / Möbius transforms
    # ------------------------------------------------------------------ #
    def _lo_indices(self) -> List[np.ndarray]:
        if self._zeta_lo is None:
            lo = []
            for i in range(self.n):
                indices = np.nonzero((self.arange & (1 << i)) == 0)[0]
                indices.setflags(write=False)
                lo.append(indices)
            self._zeta_lo = lo
        return self._zeta_lo

    def zeta_superset(self, dense: np.ndarray) -> np.ndarray:
        """The superset-sum transform ``(ζg)(X) = Σ_{Y ⊇ X} g(Y)``."""
        result = np.array(dense, dtype=float)
        for i, lo in enumerate(self._lo_indices()):
            result[lo] += result[lo + (1 << i)]
        return result

    def mobius_superset(self, dense: np.ndarray) -> np.ndarray:
        """The superset Möbius transform ``g(X) = Σ_{Y ⊇ X} (-1)^{|Y\\X|} h(Y)``.

        Inverse of :meth:`zeta_superset`; both run in ``O(n · 2^n)`` numpy
        operations instead of the naive ``O(4^n)`` double loop.
        """
        result = np.array(dense, dtype=float)
        for i, lo in enumerate(self._lo_indices()):
            result[lo] -= result[lo + (1 << i)]
        return result

    # ------------------------------------------------------------------ #
    # Elemental inequality structure of Γn
    # ------------------------------------------------------------------ #
    def elemental_structure(
        self,
    ) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray, Tuple[str, ...]]:
        """The elemental Shannon inequalities in bitmask coordinates.

        Returns ``(matrix, masks, coeffs, kinds)`` where

        * ``matrix`` is the CSR matrix with one row per elemental inequality
          and one column per non-empty subset in canonical order (the
          coordinate order of :meth:`SetFunction.to_vector` and the LP layer);
        * ``masks``/``coeffs`` are ``(rows, 4)`` arrays listing each row's
          (at most four) participating subset masks and coefficients (unused
          slots carry coefficient 0);
        * ``kinds`` names each row ``"monotonicity"`` or ``"submodularity"``.

        Row order matches :func:`repro.infotheory.polymatroid.elemental_inequalities`:
        the ``n`` monotonicity rows first, then the conditional mutual
        informations ``I(i ; j | K)`` for ground-ordered pairs ``i < j`` with
        contexts ``K`` in canonical subset order.
        """
        if self._elemental is None:
            n, full = self.n, self.full_mask
            mask_rows: List[Tuple[int, int, int, int]] = []
            coeff_rows: List[Tuple[float, float, float, float]] = []
            kinds: List[str] = []
            for i in range(n):
                rest = full ^ (1 << i)
                mask_rows.append((full, rest, 0, 0))
                coeff_rows.append((1.0, -1.0 if rest else 0.0, 0.0, 0.0))
                kinds.append("monotonicity")
            for a in range(n):
                bit_a = 1 << a
                for b in range(a + 1, n):
                    bit_b = 1 << b
                    others = [p for p in range(n) if p not in (a, b)]
                    for k in range(len(others) + 1):
                        for combo in combinations(others, k):
                            context = 0
                            for p in combo:
                                context |= 1 << p
                            mask_rows.append(
                                (context | bit_a, context | bit_b,
                                 context | bit_a | bit_b, context)
                            )
                            coeff_rows.append(
                                (1.0, 1.0, -1.0, -1.0 if context else 0.0)
                            )
                            kinds.append("submodularity")
            masks = np.array(mask_rows, dtype=np.int64)
            coeffs = np.array(coeff_rows, dtype=float)
            nonzero = coeffs != 0.0
            row_indices = np.repeat(np.arange(len(mask_rows)), 4)[nonzero.ravel()]
            columns = self.canon_pos[masks[nonzero]] - 1
            matrix = sp.csr_matrix(
                (coeffs[nonzero], (row_indices, columns)),
                shape=(len(mask_rows), self.size - 1),
            )
            masks.setflags(write=False)
            coeffs.setflags(write=False)
            self._elemental = (matrix, masks, coeffs, tuple(kinds))
        return self._elemental

    def elemental_matrix(self) -> sp.csr_matrix:
        """The CSR elemental-inequality matrix (canonical non-empty columns)."""
        return self.elemental_structure()[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubsetLattice(ground={self.ground!r})"


@lru_cache(maxsize=512)
def lattice_context(ground: Tuple[str, ...]) -> SubsetLattice:
    """The process-wide shared :class:`SubsetLattice` for a ground tuple.

    Bounded so long-running processes that see many distinct variable-name
    tuples don't retain a lattice per tuple forever; evicted contexts stay
    alive only as long as live :class:`SetFunction` instances reference
    them, and a rebuilt context is bit-for-bit identical (the layout is
    purely positional).
    """
    return SubsetLattice(tuple(ground))
