"""Special families of set functions (paper Section 3.2 and Appendix B).

* step functions ``h_W`` (the generators of the normal cone ``Nn``),
* modular functions (the cone ``Mn``),
* normal functions (non-negative combinations of step functions),
* the parity function (the canonical entropic-but-not-normal example),
* uniform/matroid-like helper functions used in tests and benchmarks.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import EntropyError
from repro.infotheory.setfunction import SetFunction
from repro.utils.lattice import lattice_context


def zero_function(ground: Sequence[str]) -> SetFunction:
    """The identically zero set function."""
    return SetFunction.zero(ground)


def step_function(ground: Sequence[str], low_part: Iterable[str]) -> SetFunction:
    """The step function ``h_W`` at ``W = low_part``.

    ``h_W(X) = 0`` when ``X ⊆ W`` and ``1`` otherwise.  ``W`` must be a
    proper subset of the ground set.  Every step function is entropic: it is
    the entropy of the two-tuple relation ``P_W`` (Section 3.2), available as
    :meth:`repro.cq.structures.Relation.step_relation`.
    """
    ground = tuple(ground)
    low = frozenset(low_part)
    if not low <= frozenset(ground):
        raise EntropyError("W must be a subset of the ground set")
    if low == frozenset(ground):
        raise EntropyError("the step function requires a proper subset W ⊊ V")
    lattice = lattice_context(ground)
    low_mask = lattice.mask_of(low)
    # h_W(X) = 0 iff X ⊆ W, i.e. iff X's mask has no bit outside W's.
    vec = ((lattice.arange & ~low_mask) != 0).astype(float)
    return SetFunction._from_dense(ground, vec, lattice)


def modular_function(weights: Mapping[str, float]) -> SetFunction:
    """The modular function ``h(X) = Σ_{i ∈ X} weights[i]`` with weights ≥ 0."""
    ground = tuple(weights)
    for variable, weight in weights.items():
        if weight < 0:
            raise EntropyError(f"modular weight of {variable!r} must be non-negative")
    lattice = lattice_context(ground)
    vec = np.zeros(lattice.size)
    for i, variable in enumerate(ground):
        vec += ((lattice.arange >> i) & 1) * float(weights[variable])
    return SetFunction._from_dense(ground, vec, lattice)


def normal_function(
    ground: Sequence[str], coefficients: Mapping[frozenset, float]
) -> SetFunction:
    """The normal function ``Σ_W c_W · h_W`` with all ``c_W ≥ 0``.

    ``coefficients`` maps proper subsets ``W ⊊ V`` (any iterable of
    variables) to non-negative reals.
    """
    ground = tuple(ground)
    ground_set = frozenset(ground)
    lattice = lattice_context(ground)
    vec = np.zeros(lattice.size)
    for low_part, coefficient in coefficients.items():
        low = frozenset(low_part)
        if coefficient < 0:
            raise EntropyError("normal-function coefficients must be non-negative")
        if coefficient == 0:
            continue
        if not low < ground_set:
            raise EntropyError(
                f"step index {sorted(low)} must be a proper subset of the ground set"
            )
        low_mask = lattice.mask_of(low)
        vec += coefficient * ((lattice.arange & ~low_mask) != 0)
    return SetFunction._from_dense(ground, vec, lattice)


def parity_function(ground: Sequence[str] = ("X1", "X2", "X3")) -> SetFunction:
    """The parity function on three variables (Example B.4).

    It is the entropy of ``{(x, y, z) ∈ {0,1}^3 : x ⊕ y ⊕ z = 0}``:
    ``h(X) = |X|`` for ``|X| ≤ 1``... more precisely ``h`` of a singleton is
    1 and of any larger set is 2.  It is entropic but *not* normal
    (Corollary B.8) and witnesses the non-convexity of ``Γ*3`` (Fact B.5).
    """
    ground = tuple(ground)
    if len(ground) != 3:
        raise EntropyError("the parity function is defined on exactly 3 variables")
    lattice = lattice_context(ground)
    vec = np.minimum(lattice.popcount, 2).astype(float)
    return SetFunction._from_dense(ground, vec, lattice)


def uniform_function(ground: Sequence[str], rank: int, scale: float = 1.0) -> SetFunction:
    """The (scaled) uniform-matroid rank function ``h(X) = scale · min(|X|, rank)``.

    A standard family of polymatroids used for tests: it is entropic exactly
    when ``scale = log2 q`` for a prime power ``q ≥`` (number of variables),
    via MDS codes; the library only uses it as a polymatroid.
    """
    if rank < 0:
        raise EntropyError("rank must be non-negative")
    ground = tuple(ground)
    lattice = lattice_context(ground)
    vec = scale * np.minimum(lattice.popcount, rank).astype(float)
    return SetFunction._from_dense(ground, vec, lattice)
