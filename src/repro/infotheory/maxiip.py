"""Decision procedures for Max-IIP over the polyhedral cones (Problem 2.5).

Over ``Γ*n`` (entropic functions), Max-IIP is not known to be decidable —
that is the open problem the paper ties to bag containment.  Over the
polyhedral cones ``Γn``, ``Nn`` and ``Mn``, however, validity reduces to a
linear-programming feasibility question:

    ``0 ≤ max_ℓ E_ℓ(h)`` is valid over a cone ``K``
    ⇔ there is no ``h ∈ K`` with ``E_ℓ(h) ≤ -1`` for all ``ℓ``

(the scaling uses only that ``K`` is a cone).  Theorem 3.6 of the paper shows
that for the "containment shaped" inequalities with simple (resp.
unconditioned) branches, validity over ``Γn``, ``Nn`` (resp. ``Mn``) and
``Γ*n`` all coincide — which is what makes the Theorem 3.1 containment
algorithm complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.infotheory.cones import cone_by_name
from repro.infotheory.expressions import (
    InformationInequality,
    MaxInformationInequality,
)
from repro.infotheory.setfunction import SetFunction
from repro.infotheory.shannon import ShannonCertificate, shannon_prover


@dataclass(frozen=True)
class MaxIIVerdict:
    """Outcome of deciding a Max-II over one of the polyhedral cones.

    Attributes
    ----------
    valid:
        Whether the inequality holds for every function of the cone.
    cone:
        Name of the cone the decision was made over
        (``"gamma"``, ``"normal"`` or ``"modular"``).
    violating_function:
        When invalid, a function of the cone on which every branch is
        negative.
    violating_coefficients:
        For the generated cones (``Nn``, ``Mn``), the generator coefficients
        of the violating function — step-function coefficients for ``Nn``,
        per-variable weights for ``Mn``.  These are the raw material of the
        witness constructions of Theorem 3.4.
    lambdas:
        For a valid inequality over ``Γn`` with a certificate, the convex
        weights ``λ`` of Theorem 6.1, one per branch (``λ ≥ 0``,
        ``Σλ = 1``).
    certificate:
        The Shannon proof of ``Σλ_ℓ E_ℓ`` (``None`` when none was
        computed).  :func:`decide_max_ii_many` reads ``λ`` and the proof
        off the duals of the block LP that decided every valid inequality
        over ``Γn``; a block whose duals failed the proof check has
        neither.  :func:`decide_max_ii` computes a proof only on request
        (``with_certificate=True``) for a single-branch inequality, with
        ``λ = (1,)``.
    """

    valid: bool
    cone: str
    violating_function: Optional[SetFunction] = None
    violating_coefficients: Optional[Dict[FrozenSet[str], float]] = None
    certificate: Optional[ShannonCertificate] = None
    lambdas: Optional[Tuple[float, ...]] = None


def decide_max_ii(
    inequality: MaxInformationInequality,
    over: str = "gamma",
    ground: Tuple[str, ...] = None,
    with_certificate: bool = False,
    seed: str = "generic",
) -> MaxIIVerdict:
    """Decide validity of a Max-II over the cone named by ``over``.

    ``ground`` may enlarge the variable set beyond the variables actually
    mentioned by the inequality (validity is not affected, but violating
    functions are returned over the larger ground set).  ``seed`` names the
    row-generation seed set (ignored by the generated cones).
    """
    ground = tuple(ground) if ground is not None else inequality.ground
    cone = cone_by_name(over, ground)
    branches = [branch.with_ground(ground) for branch in inequality.branches]
    point = cone.find_point_below(branches, seed=seed)
    if point is not None:
        return MaxIIVerdict(
            valid=False,
            cone=over,
            violating_function=point.function,
            violating_coefficients=point.coefficients,
        )
    certificate = None
    if with_certificate and over == "gamma" and len(branches) == 1:
        certificate = shannon_prover(ground).certificate(branches[0])
    return MaxIIVerdict(
        valid=True,
        cone=over,
        certificate=certificate,
        lambdas=None if certificate is None else (1.0,),
    )


def decide_max_ii_many(
    inequalities: Sequence[MaxInformationInequality],
    over: str = "gamma",
    ground: Tuple[str, ...] = None,
    seed: str = "generic",
) -> List[MaxIIVerdict]:
    """Decide many Max-IIs over one cone in one block-LP call.

    All inequalities are decided over the *same* ground set — pass ``ground``
    explicitly, or leave it ``None`` when every inequality already has the
    same ground tuple.  This is the batched cone-decision path used by the
    :mod:`repro.service` batch engine: each inequality's feasibility system
    is one block of :meth:`Cone.points_or_proofs_below_many`.  On the dense
    path (and for ``Nn``/``Mn``) the blocks are stacked into one
    block-diagonal LP, so ``k`` decisions pay one HiGHS invocation instead
    of ``k``.  On the row-generation path, which ``Γn`` takes from
    ``n = 8``, every block instead carries its own lazily generated
    elemental rows on its own warm-started model, so no block is re-solved
    for another's cuts, and its verdict, ``λ`` and proof do not depend on
    which inequalities share the call.  Over ``Γn`` a valid verdict carries
    the Theorem 6.1 certificate read off the duals of the solve that decided
    it whenever they pass the proof check (see :class:`MaxIIVerdict`).
    """
    if not inequalities:
        return []
    if ground is None:
        grounds = {inequality.ground for inequality in inequalities}
        if len(grounds) != 1:
            raise ValueError(
                "decide_max_ii_many needs an explicit common ground when the "
                "inequalities have different ground tuples"
            )
        ground = next(iter(grounds))
    ground = tuple(ground)
    cone = cone_by_name(over, ground)
    branch_lists = [
        [branch.with_ground(ground) for branch in inequality.branches]
        for inequality in inequalities
    ]
    outcomes = cone.points_or_proofs_below_many(branch_lists, seed=seed)
    verdicts: List[MaxIIVerdict] = []
    for point, proof in outcomes:
        if point is not None:
            verdicts.append(
                MaxIIVerdict(
                    valid=False,
                    cone=over,
                    violating_function=point.function,
                    violating_coefficients=point.coefficients,
                )
            )
        elif proof is not None:
            lambdas, certificate = proof
            verdicts.append(
                MaxIIVerdict(
                    valid=True,
                    cone=over,
                    certificate=certificate,
                    lambdas=tuple(lambdas.tolist()),
                )
            )
        else:
            verdicts.append(MaxIIVerdict(valid=True, cone=over))
    return verdicts


def decide_ii(
    inequality: InformationInequality,
    over: str = "gamma",
    ground: Tuple[str, ...] = None,
    with_certificate: bool = False,
) -> MaxIIVerdict:
    """Decide an ordinary II (the ``k = 1`` special case of Max-IIP)."""
    return decide_max_ii(
        MaxInformationInequality.single(inequality.expression),
        over=over,
        ground=ground,
        with_certificate=with_certificate,
    )


def essentially_shannon_agreement(
    inequality: MaxInformationInequality,
    ground: Tuple[str, ...] = None,
) -> Dict[str, bool]:
    """Validity of the same Max-II over all three cones.

    Used by tests of Theorem 3.6: for containment-shaped inequalities with
    simple branches, the ``"gamma"`` and ``"normal"`` answers must coincide,
    and with unconditioned branches the ``"modular"`` answer joins them.
    """
    return {
        name: decide_max_ii(inequality, over=name, ground=ground).valid
        for name in ("gamma", "normal", "modular")
    }
