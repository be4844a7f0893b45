"""Witnesses of non-containment (Fact 3.2, Theorem 3.4, Lemma E.1).

A *witness* for ``Q1 ⋢ Q2`` is a ``vars(Q1)``-relation ``P`` with
``|P| > |hom(Q2, Π_Q1(P))|``; the induced database ``Π_Q1(P)`` then
separates the two queries because ``|hom(Q1, Π_Q1(P))| ≥ |P|``.

Theorem 3.4 shows that when ``Q2`` is chordal the witness can always be taken
of a special shape:

* a *product* relation when ``Q2`` has a totally disconnected junction tree,
* a *normal* relation (a domain product of two-row step relations) when
  ``Q2`` has a simple junction tree.

This module constructs such witnesses from the violating modular / normal
functions returned by the LP layer, following the proof of Lemma E.1: round
the step coefficients to integers, then climb the powers ``m = 1, 2, …`` of
that integer point.  Each rung materializes the domain product, annotates
values with their column, induces the database and *verifies the counts
directly*; the first database that separates is the witness, so a reported
witness is always unconditionally correct.  The last rung is Lemma E.1's
power (:func:`_required_scaling`, where ``m · gap > log2 |hom(Q2, Q1)|``),
at which separation is guaranteed; lower rungs usually separate already,
with a far smaller database.  Relations grow with ``m``, so a rung beyond
``max_rows`` ends the climb with a :class:`WitnessError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.cq.homomorphism import count_query_homomorphisms
from repro.cq.projection import annotate_relation, induced_database
from repro.cq.query import ConjunctiveQuery
from repro.cq.structures import Relation, Structure
from repro.core.containment_inequality import ContainmentInequality
from repro.exceptions import WitnessError
from repro.infotheory.functions import normal_function
from repro.utils.rational import as_fraction, scale_to_integers

DEFAULT_MAX_ROWS = 1024


@dataclass(frozen=True)
class WitnessDatabase:
    """A verified counterexample to ``Q1 ⊑ Q2``.

    Attributes
    ----------
    database:
        The database ``D`` on which the counts separate.
    relation:
        The witness relation ``P`` the database was induced from (``None``
        for witnesses found by direct database search).
    hom_q1 / hom_q2:
        ``|hom(Q1, D)|`` and ``|hom(Q2, D)|`` (or the per-head-tuple
        multiplicities when ``head_tuple`` is set).
    head_tuple:
        For non-Boolean query pairs, the head tuple on which the bag answers
        differ.
    description:
        How the witness was obtained (normal / product / brute force / ...).
    """

    database: Structure
    hom_q1: int
    hom_q2: int
    relation: Optional[Relation] = None
    head_tuple: Optional[Tuple] = None
    description: str = ""

    @property
    def gap(self) -> int:
        return self.hom_q1 - self.hom_q2


# ---------------------------------------------------------------------- #
# Witness relation constructors
# ---------------------------------------------------------------------- #
def normal_witness_relation(
    ground: Sequence[str],
    step_multiplicities: Mapping[FrozenSet[str], int],
    max_rows: int = DEFAULT_MAX_ROWS,
) -> Relation:
    """The normal relation ``⊗_W P_W^{⊗ k_W}`` (Definition 3.3 / Table 1).

    Its entropy is exactly ``Σ_W k_W · h_W`` and its size is
    ``2^{Σ_W k_W}``; a :class:`WitnessError` is raised when that size exceeds
    ``max_rows``.
    """
    ground = tuple(ground)
    total_copies = sum(int(k) for k in step_multiplicities.values())
    if total_copies <= 0:
        raise WitnessError("at least one positive step multiplicity is required")
    if 2**total_copies > max_rows:
        raise WitnessError(
            f"witness relation would have 2^{total_copies} rows, "
            f"exceeding the limit of {max_rows}"
        )
    relation: Optional[Relation] = None
    for low_part, multiplicity in sorted(
        step_multiplicities.items(), key=lambda item: sorted(item[0])
    ):
        for _ in range(int(multiplicity)):
            step = Relation.step_relation(ground, low_part)
            relation = step if relation is None else relation.domain_product(step)
    return relation


def product_witness_relation(
    ground: Sequence[str],
    column_sizes: Mapping[str, int],
    max_rows: int = DEFAULT_MAX_ROWS,
) -> Relation:
    """The product relation ``∏_x [column_sizes[x]]`` (Definition 3.3)."""
    ground = tuple(ground)
    sizes = {variable: max(1, int(column_sizes.get(variable, 1))) for variable in ground}
    total = 1
    for size in sizes.values():
        total *= size
    if total > max_rows:
        raise WitnessError(
            f"product witness would have {total} rows, exceeding the limit of {max_rows}"
        )
    return Relation.product_relation(
        {variable: range(sizes[variable]) for variable in ground}
    )


# ---------------------------------------------------------------------- #
# Verification
# ---------------------------------------------------------------------- #
def verify_witness(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    database: Structure,
    relation: Optional[Relation] = None,
    description: str = "",
) -> Optional[WitnessDatabase]:
    """Check whether ``database`` actually separates the two Boolean queries.

    Returns a :class:`WitnessDatabase` when ``|hom(Q1, D)| > |hom(Q2, D)|``
    and ``None`` otherwise.  This is the unconditional soundness check every
    refutation path goes through before reporting NOT_CONTAINED.
    """
    hom_q1 = count_query_homomorphisms(q1, database)
    hom_q2 = count_query_homomorphisms(q2, database)
    if hom_q1 > hom_q2:
        return WitnessDatabase(
            database=database,
            hom_q1=hom_q1,
            hom_q2=hom_q2,
            relation=relation,
            description=description,
        )
    return None


def witness_from_relation(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    relation: Relation,
    annotate: bool = True,
    description: str = "",
) -> Optional[WitnessDatabase]:
    """Induce ``Π_Q1(P)`` from a candidate relation and verify it (Fact 3.2)."""
    candidate = annotate_relation(relation) if annotate else relation
    database = induced_database(q1, candidate)
    return verify_witness(
        q1, q2, database, relation=relation, description=description
    )


def fact_32_margin(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    relation: Relation,
) -> Tuple[int, int]:
    """The pair ``(|P|, |hom(Q2, Π_Q1(P))|)`` of Fact 3.2, without annotation.

    ``P`` is a *witness in the sense of Fact 3.2* exactly when the first
    component exceeds the second; Theorem 3.4 characterizes when witnesses of
    the special product / normal shapes exist in this exact sense.
    """
    database = induced_database(q1, relation)
    return len(relation), count_query_homomorphisms(q2, database)


def is_fact_32_witness(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery, relation: Relation
) -> bool:
    """True when ``|P| > |hom(Q2, Π_Q1(P))|`` (the witness notion of Fact 3.2)."""
    size, hom_count = fact_32_margin(q1, q2, relation)
    return size > hom_count


# ---------------------------------------------------------------------- #
# From violating cone points to witnesses (Lemma E.1 constructions)
# ---------------------------------------------------------------------- #
def _integer_multiplicities(
    coefficients: Mapping[FrozenSet[str], float], max_denominator: int = 64
) -> Dict[FrozenSet[str], int]:
    """Round LP step coefficients to a common-denominator-free integer vector."""
    keys = [key for key, value in coefficients.items() if value > 1e-9]
    if not keys:
        raise WitnessError("the violating function has no positive step coefficients")
    fractions = [
        as_fraction(coefficients[key], max_denominator=max_denominator) for key in keys
    ]
    integers, _ = scale_to_integers(fractions)
    return {key: value for key, value in zip(keys, integers) if value > 0}


def _required_scaling(gap: float, hom_count: int) -> int:
    """Smallest integer ``m`` with ``m · gap > log2(hom_count)`` (Lemma 4.8 / E.1).

    The last rung of the witness climb: at this power separation is
    guaranteed, so no higher power is ever tried.
    """
    if gap <= 0:
        raise WitnessError("the candidate function does not violate the inequality")
    needed = math.log2(max(1, hom_count)) + 1e-9
    return max(1, math.floor(needed / gap) + 1)


def witness_from_normal_coefficients(
    inequality: ContainmentInequality,
    coefficients: Mapping[FrozenSet[str], float],
    hom_count: int,
    max_rows: int = DEFAULT_MAX_ROWS,
    max_denominator: int = 64,
) -> WitnessDatabase:
    """Build and verify a normal witness from violating step coefficients.

    ``coefficients`` are the step-function coefficients of a normal function
    on which every branch of the containment inequality is below ``h(V)``
    (as returned by the ``Nn`` feasibility LP); ``hom_count`` is
    ``|hom(Q2, Q1)|``.  The construction follows Lemma E.1: round the
    coefficients to integer step multiplicities ``k_W``, then for
    ``m = 1, 2, …`` build the domain product of ``m · k_W`` step relations,
    annotate, induce and verify, and return the first database that
    separates.  The last rung is :func:`_required_scaling`'s power, where the
    entropy gap exceeds ``log2(hom_count)`` and Lemma E.1 guarantees
    separation.

    Raises :class:`WitnessError` when a rung's relation exceeds ``max_rows``
    (higher rungs are larger still) or when no rung up to the bound verifies
    (which, by Theorem 3.4, indicates numerically degenerate input rather
    than a sound containment).
    """
    multiplicities = _integer_multiplicities(coefficients, max_denominator)
    ground = inequality.ground
    candidate = normal_function(
        ground, {key: float(value) for key, value in multiplicities.items()}
    )
    gap = candidate.total() - inequality.right_hand_side(candidate)
    for scale in range(1, _required_scaling(gap, hom_count) + 1):
        scaled = {key: value * scale for key, value in multiplicities.items()}
        relation = normal_witness_relation(ground, scaled, max_rows=max_rows)
        witness = witness_from_relation(
            inequality.q1,
            inequality.q2,
            relation,
            description=(
                f"normal witness from step multiplicities {_pretty(scaled)} "
                f"(gap {gap:.3f} per copy, scaled ×{scale})"
            ),
        )
        if witness is not None:
            return witness
    raise WitnessError(
        "no normal relation up to the Lemma E.1 power passed verification; "
        "the violating coefficients are likely numerically degenerate"
    )


def witness_from_modular_weights(
    inequality: ContainmentInequality,
    weights: Mapping[str, float],
    hom_count: int,
    max_rows: int = DEFAULT_MAX_ROWS,
    max_denominator: int = 64,
) -> WitnessDatabase:
    """Build and verify a *product* witness from violating modular weights.

    This is the Theorem 3.4(i) construction for totally disconnected junction
    trees: a modular function ``h(X) = Σ_{x∈X} a_x`` is the entropy of the
    product relation with ``2^{a_x}`` values in column ``x``.  The weights are
    rounded to integers and climbed like the normal witness's multiplicities:
    the first ``m = 1, 2, …`` whose product relation with ``2^{m·a_x}`` values
    per column separates is returned, up to :func:`_required_scaling`'s power.
    Raises :class:`WitnessError` as :func:`witness_from_normal_coefficients`
    does.
    """
    fractions = {
        variable: as_fraction(value, max_denominator)
        for variable, value in weights.items()
        if value > 1e-9
    }
    if not fractions:
        raise WitnessError("the violating modular function is identically zero")
    integers, _ = scale_to_integers(list(fractions.values()))
    integer_weights = dict(zip(fractions.keys(), integers))
    ground = inequality.ground
    candidate = normal_function(
        ground,
        {
            frozenset(ground) - {variable}: float(weight)
            for variable, weight in integer_weights.items()
        },
    )
    gap = candidate.total() - inequality.right_hand_side(candidate)
    for scale in range(1, _required_scaling(gap, hom_count) + 1):
        column_sizes = {
            variable: 2 ** (integer_weights.get(variable, 0) * scale) for variable in ground
        }
        relation = product_witness_relation(ground, column_sizes, max_rows=max_rows)
        witness = witness_from_relation(
            inequality.q1,
            inequality.q2,
            relation,
            description=(
                f"product witness with column sizes {column_sizes} "
                f"(gap {gap:.3f} per copy, scaled ×{scale})"
            ),
        )
        if witness is not None:
            return witness
    raise WitnessError(
        "no product relation up to the Lemma E.1 power passed verification; "
        "the violating weights are likely numerically degenerate"
    )


def _pretty(multiplicities: Mapping[FrozenSet[str], int]) -> str:
    parts = [
        f"{{{','.join(sorted(key))}}}×{value}"
        for key, value in sorted(multiplicities.items(), key=lambda item: sorted(item[0]))
    ]
    return "[" + ", ".join(parts) + "]"
