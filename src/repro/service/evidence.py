"""Renaming containment evidence between isomorphic query pairs.

The plan cache (and the durable verdict store behind it) keys pairs by their
canonical form, so one stored result answers every isomorphic requester.
Statuses are renaming-invariant, but the *evidence* — the witness relation,
the Eq. (8) inequality with its homomorphisms and tree-decomposition bags,
the violating set function and the Shannon certificate — is expressed over
concrete variable names.  Handing a requester the representative's names
would be wrong for every pair but the first one solved.

This module renames a :class:`~repro.core.containment.ContainmentResult`
along a variable bijection per query side.  The bijections come from the
canonical labelings of :func:`repro.service.canonical.pair_key_with_labelings`:
``canonical_mappings`` maps a solved pair's variables *onto* the canonical
names (``c0, c1, ...``) for storage, and ``requester_mappings`` maps the
canonical names back onto a requesting pair's variables on a hit.  Equal
keys guarantee both sides are isomorphic to the same canonical pair, so the
composition is always a sound bijection — even when the canonicalization
search budget was exhausted (the key *is* the serialization under the
concrete labeling).

Witness *databases* are untouched: their facts range over domain values, not
variables, and separate any isomorphic pair equally (only the optional
witness relation carries attribute names).  The Boolean reduction of
Lemma A.1 adds guard atoms but never variables, so the pipeline's evidence
only ever mentions variables of the submitted queries — both mappings are
total on everything that needs renaming.

This renaming invariant — evidence is stored canonical, delivered in the
requester's variables — is what makes plan-cache hits, store hits, and the
gateway's cross-shard dedup indistinguishable from fresh solves; see
``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Optional, Tuple

from repro.core.containment import ContainmentResult
from repro.core.containment_inequality import (
    ContainmentBranch,
    ContainmentInequality,
)
from repro.core.witness import WitnessDatabase
from repro.cq.decompositions import TreeDecomposition
from repro.infotheory.maxiip import MaxIIVerdict
from repro.infotheory.shannon import ShannonCertificate
from repro.service.canonical import PairLabelings

VariableMap = Mapping[str, str]


def canonical_mappings(labelings: PairLabelings) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Per-side maps from a pair's variables onto the canonical ``c<i>`` names."""
    labeling1, labeling2 = labelings
    return (
        {variable: f"c{index}" for variable, index in labeling1.items()},
        {variable: f"c{index}" for variable, index in labeling2.items()},
    )


def requester_mappings(labelings: PairLabelings) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Per-side maps from the canonical ``c<i>`` names onto a requester's variables."""
    labeling1, labeling2 = labelings
    return (
        {f"c{index}": variable for variable, index in labeling1.items()},
        {f"c{index}": variable for variable, index in labeling2.items()},
    )


def rename_result(
    result: ContainmentResult, mapping1: VariableMap, mapping2: VariableMap
) -> ContainmentResult:
    """Rename every piece of evidence in ``result``.

    ``mapping1`` renames ``Q1``-side variables (the inequality's ground set,
    witness relation attributes, set functions, certificates), ``mapping2``
    the ``Q2`` side (tree-decomposition bags and the homomorphism domains).
    Status, method, details and provenance pass through unchanged.
    """
    return replace(
        result,
        inequality=_rename_inequality(result.inequality, mapping1, mapping2),
        witness=_rename_witness(result.witness, mapping1),
        verdict=_rename_verdict(result.verdict, mapping1),
    )


def _rename_witness(
    witness: Optional[WitnessDatabase], mapping1: VariableMap
) -> Optional[WitnessDatabase]:
    if witness is None or witness.relation is None:
        return witness
    return replace(witness, relation=witness.relation.rename(mapping1))


def _rename_inequality(
    inequality: Optional[ContainmentInequality],
    mapping1: VariableMap,
    mapping2: VariableMap,
) -> Optional[ContainmentInequality]:
    if inequality is None:
        return None
    ground = tuple(mapping1.get(v, v) for v in inequality.ground)
    branches = tuple(
        ContainmentBranch(
            decomposition=TreeDecomposition(
                bags=tuple(
                    frozenset(mapping2.get(v, v) for v in bag)
                    for bag in branch.decomposition.bags
                ),
                edges=branch.decomposition.edges,
            ),
            homomorphism={
                mapping2.get(source, source): mapping1.get(target, target)
                for source, target in branch.homomorphism.items()
            },
            conditional=branch.conditional.substitute(mapping1, ground),
        )
        for branch in inequality.branches
    )
    return ContainmentInequality(
        q1=inequality.q1.rename(mapping1),
        q2=inequality.q2.rename(mapping2),
        ground=ground,
        branches=branches,
    )


def _rename_verdict(
    verdict: Optional[MaxIIVerdict], mapping1: VariableMap
) -> Optional[MaxIIVerdict]:
    if verdict is None:
        return None
    function = verdict.violating_function
    coefficients = verdict.violating_coefficients
    return replace(
        verdict,
        violating_function=None if function is None else function.rename(mapping1),
        violating_coefficients=None
        if coefficients is None
        else {
            frozenset(mapping1.get(v, v) for v in subset): value
            for subset, value in coefficients.items()
        },
        certificate=rename_certificate(verdict.certificate, mapping1),
    )


def rename_certificate(
    certificate: Optional[ShannonCertificate], mapping1: VariableMap
) -> Optional[ShannonCertificate]:
    """A Shannon proof with its ground and elementals renamed (``None`` passes)."""
    if certificate is None:
        return None
    return ShannonCertificate(
        ground=tuple(mapping1.get(v, v) for v in certificate.ground),
        multipliers=tuple(
            (elemental.rename(mapping1), multiplier)
            for elemental, multiplier in certificate.multipliers
        ),
    )
