"""Containment decision procedures (Theorems 3.1, 4.2, 4.4 of the paper).

Three layers:

* :func:`sufficient_containment_check` — the Theorem 4.2 sufficient
  condition: if the Eq. (8) Max-II is valid over the Shannon cone ``Γn``
  (a superset of the entropic functions), then ``Q1 ⊑ Q2``.  Sound for every
  query pair.
* :func:`theorem_3_1_decision` — the complete, exponential-time decision
  procedure when ``Q2`` is chordal and admits a simple junction tree: by
  Theorem 3.6 the inequality is *essentially Shannon*, so the LP answer over
  ``Γn`` is exact; a "no" answer is converted into a concrete, verified
  witness database through the normal-witness construction of Lemma E.1 /
  Theorem 3.4.
* :func:`decide_containment` — the user-facing entry point: reduces head
  variables away (Lemma A.1), dispatches to the complete procedure when
  possible, and otherwise combines the sufficient check with witness
  searches, returning ``UNKNOWN`` when neither side can be established
  (which is unavoidable in general — the decidability of the full problem is
  open, as the paper shows).

Pipeline architecture
---------------------
The decision logic is written once, as the *generator*
:func:`containment_pipeline`: a coroutine that performs all query-side work
(Boolean reduction, inequality construction, witness building, brute-force
refutation) inline and ``yield``s a :class:`ConeDecisionRequest` every time
it needs an LP verdict, receiving the :class:`MaxIIVerdict` back through
``send``.  The single-pair entry points below drive the generator by
answering each request immediately with :func:`decide_max_ii`; the batch
engine of :mod:`repro.service` drives many generators side by side and
answers their requests from grouped block-LP solves.  Both drivers therefore
execute the *same* per-pair pipeline — the batch path cannot drift from the
sequential semantics.

The pipeline booleanizes the pair exactly once (Lemma A.1) and threads the
Boolean pair through every stage; the public ``sufficient_containment_check``
and ``theorem_3_1_decision`` wrappers still accept non-Boolean pairs and
reduce them on entry for direct callers.  The reduction hands back fresh
queries even for a Boolean pair, so what the stages cache on them
(decompositions) is not kept on the caller's objects.

Both routes decide the Eq. (8) Max-II over ``Γn`` through
:func:`_gamma_verdict`: when some ``φ ∈ hom(Q2, Q1)`` is onto ``vars(Q1)``,
:func:`closed_form_verdict` proves the pair with ``λ = e_ℓ`` and an exact
integer proof, and no ``Γn`` request is yielded; only the pairs whose
certificate needs several branches reach the LP.

Performance notes
-----------------
The LP machinery underneath (:func:`repro.infotheory.maxiip.decide_max_ii`)
resolves cones and Shannon provers through per-ground-tuple caches, and the
elemental constraint matrices come from the shared bitmask lattice context —
so repeated containment checks over the same arity rebuild nothing: only the
per-query expression vectors and the LP solves themselves are paid per call.
The closed form builds only the ``O(n²)`` rows its proof uses, from their
keys, so a pair it proves builds no lattice at all, at any arity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.cq.decompositions import (
    TreeDecomposition,
    candidate_tree_decompositions,
    has_simple_junction_tree,
    has_totally_disconnected_junction_tree,
    is_acyclic,
    is_chordal,
    junction_tree,
)
from repro.cq.homomorphism import count_query_to_query_homomorphisms
from repro.cq.query import ConjunctiveQuery
from repro.cq.reductions import to_boolean_pair
from repro.cq.structures import canonical_structure
from repro.core.brute_force import brute_force_refute
from repro.core.containment_inequality import (
    ContainmentInequality,
    build_containment_inequality,
)
from repro.core.witness import (
    WitnessDatabase,
    verify_witness,
    witness_from_modular_weights,
    witness_from_normal_coefficients,
)
from repro.exceptions import CertificateError, QueryError, WitnessError
from repro.infotheory.expressions import MaxInformationInequality
from repro.infotheory.maxiip import MaxIIVerdict, decide_max_ii
from repro.infotheory.polymatroid import materialize_elementals
from repro.infotheory.shannon import ShannonCertificate
from repro.lp.rowgen import conditional_entropy_rows, key_row_data, mutual_information_rows


class ContainmentStatus(Enum):
    """Verdict of a containment check."""

    CONTAINED = "contained"
    NOT_CONTAINED = "not_contained"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of a containment check, with its supporting evidence.

    Attributes
    ----------
    status:
        CONTAINED, NOT_CONTAINED or UNKNOWN.
    method:
        Which procedure produced the verdict (``"theorem-3.1"``,
        ``"sufficient-gamma"``, ``"witness-search"``, ...).
    inequality:
        The Eq. (8) Max-II that was analysed, when one was built.
    witness:
        A verified counterexample database for NOT_CONTAINED verdicts
        (may be ``None`` only when the verdict rests on the complete
        Theorem 3.1 procedure but the witness was too large to materialize).
    verdict:
        The raw cone verdict from the LP layer, when one was computed.
    details:
        Free-form diagnostic information.
    provenance:
        Where this result object came from: ``"solved"`` (a pipeline ran for
        it), ``"cache-hit"`` (replayed from the plan cache) or
        ``"store-hit"`` (replayed from the durable verdict store).  Replays
        carry the evidence renamed onto the requesting pair's variables.
    """

    status: ContainmentStatus
    method: str
    inequality: Optional[ContainmentInequality] = None
    witness: Optional[WitnessDatabase] = None
    verdict: Optional[MaxIIVerdict] = None
    details: Dict[str, object] = field(default_factory=dict)
    provenance: str = "solved"


@dataclass(frozen=True)
class ConeDecisionRequest:
    """One LP decision the containment pipeline needs answered.

    The pipeline generator yields these and expects a
    :class:`~repro.infotheory.maxiip.MaxIIVerdict` in return — exactly the
    contract of :func:`repro.infotheory.maxiip.decide_max_ii`.  ``over`` is
    the cone name (``"gamma"``, ``"normal"`` or ``"modular"``) and ``ground``
    the ground tuple the decision must be made over.
    """

    max_ii: MaxInformationInequality
    over: str
    ground: Tuple[str, ...]
    #: Row-generation seed hint for the ``Γn`` LP: the Eq. (8) requests of
    #: the Theorem 3.1 / Theorem 4.2 paths are built from simple (``|K| ≤ 1``)
    #: terms, so the pipelines mark them ``"containment"`` and the LP layer
    #: front-loads exactly those elemental rows.
    seed: str = "generic"


ContainmentPipeline = Generator[ConeDecisionRequest, MaxIIVerdict, ContainmentResult]


def run_containment_pipeline(pipeline: ContainmentPipeline) -> ContainmentResult:
    """Drive a containment pipeline, answering each request with :func:`decide_max_ii`.

    The batch engine (:mod:`repro.service.engine`) drives the same
    generators itself and answers their ``Γn`` requests from grouped
    block-LP solves.
    """
    try:
        request = next(pipeline)
        while True:
            verdict = decide_max_ii(
                request.max_ii,
                over=request.over,
                ground=request.ground,
                seed=request.seed,
            )
            request = pipeline.send(verdict)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _no_homomorphism_witness(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> Optional[WitnessDatabase]:
    """When ``hom(Q2, Q1) = ∅`` the canonical database of ``Q1`` separates the queries."""
    database = canonical_structure(q1)
    return verify_witness(
        q1, q2, database, description="canonical database of Q1 (hom(Q2,Q1) is empty)"
    )


def _refute_from_cone_pipeline(
    inequality: ContainmentInequality,
    hom_count: int,
    prefer_modular: bool,
) -> Generator[ConeDecisionRequest, MaxIIVerdict, Optional[WitnessDatabase]]:
    """Turn an LP violation over Nn (or Mn) into a verified witness, if possible.

    The witness constructions (:mod:`repro.core.witness`) climb the violating
    point's powers ``m = 1, 2, …`` up to Lemma E.1's bound and return the
    first database that separates; a climb ends early at a relation over
    ``DEFAULT_MAX_ROWS`` rows.  A cone whose climb fails yields to the next,
    and ``None`` means that neither gave a witness.
    """
    max_ii = inequality.as_max_ii()
    cones = ("modular", "normal") if prefer_modular else ("normal", "modular")
    for cone in cones:
        verdict = yield ConeDecisionRequest(max_ii, cone, inequality.ground)
        if verdict.valid or verdict.violating_coefficients is None:
            continue
        try:
            if cone == "normal":
                return witness_from_normal_coefficients(
                    inequality, verdict.violating_coefficients, hom_count
                )
            weights = {
                next(iter(key)): value
                for key, value in verdict.violating_coefficients.items()
            }
            return witness_from_modular_weights(inequality, weights, hom_count)
        except WitnessError:
            continue
    return None


# ---------------------------------------------------------------------- #
# The Γn verdict: a closed form for an onto branch, else the LP
# ---------------------------------------------------------------------- #
def closed_form_verdict(inequality: ContainmentInequality) -> Optional[MaxIIVerdict]:
    """A valid ``Γn`` verdict with an integer Shannon proof, when a branch's φ is onto.

    Let the branch ``ℓ`` of ``φ ∈ hom(Q2, Q1)`` be the first whose φ is onto
    ``V = vars(Q1)``.  Its terms ``h(A_t | C_t)`` list the decomposition's
    bags parents first (:func:`~repro.core.et_expression.et_expression`):
    ``A_t = φ(χ(t))`` and ``C_t`` is φ of the bag's separator, which lies in
    the parent's ``A``.  So with ``U_t = A_1 ∪ … ∪ A_t``, ``C_t ⊆ U_{t−1}``,
    ``U_last = V`` because φ is onto, and the branch telescopes:
    ``E_ℓ − h(V) = Σ_t I(A_t ; U_{t−1} | C_t)``.  With
    ``K_t = A_t ∩ U_{t−1}``, each term is
    ``h(K_t | C_t) + I(A_t∖K_t ; U_{t−1}∖K_t | K_t)``, and the chain rule
    expands both into elemental rows
    (:func:`~repro.lp.rowgen.conditional_entropy_rows`,
    :func:`~repro.lp.rowgen.mutual_information_rows`)
    whose integer multipliers count how often each row occurs.

    That is Theorem 6.1 with ``λ = e_ℓ``, for any tree decomposition.
    Conversely, a branch whose φ misses some ``x`` is ``−1`` at the step
    function ``h_{V∖x}``, so it is not valid alone: this returns ``None``
    exactly for the pairs whose certificate needs several branches, and
    those go to the LP.

    The rows are built from their keys (:func:`~repro.lp.rowgen.key_row_data`),
    with no lattice or oracle of the arity, and the proof is
    materialized under the pair's own names.  It is checked against
    ``E_ℓ − h(V)`` at tolerance 0; a proof that does not sum raises
    :class:`CertificateError`.
    """
    ground = inequality.ground
    onto = next(
        (
            index
            for index, branch in enumerate(inequality.branches)
            if len(set(branch.homomorphism.values())) == len(ground)
        ),
        None,
    )
    if onto is None:
        return None
    branch = inequality.branches[onto]
    n = len(ground)
    bits = {variable: 1 << i for i, variable in enumerate(ground)}
    counts: Counter = Counter()
    union = 0
    for term in branch.conditional.terms:
        bag = sum(bits[variable] for variable in term.targets | term.given)
        given = sum(bits[variable] for variable in term.given)
        shared = bag & union
        counts.update(conditional_entropy_rows(n, shared, given))
        counts.update(mutual_information_rows(n, bag & ~shared, union & ~shared, shared))
        union |= bag
    masks, coeffs, kinds = key_row_data(n, counts)
    certificate = ShannonCertificate(
        ground=ground,
        multipliers=tuple(
            zip(
                materialize_elementals(ground, masks, coeffs, kinds),
                map(float, counts.values()),
            )
        ),
    )
    target = MaxInformationInequality.containment_form(
        1.0, ground, [branch.conditional.to_linear().with_ground(ground)]
    ).branches[0]
    if not certificate.verify(target, tolerance=0.0):
        raise CertificateError(
            f"the closed-form proof of branch {onto} does not sum to E_ℓ − h(V)"
        )
    return MaxIIVerdict(
        valid=True,
        cone="gamma",
        certificate=certificate,
        lambdas=tuple(float(index == onto) for index in range(len(inequality.branches))),
    )


def _gamma_verdict(
    inequality: ContainmentInequality,
) -> Generator[ConeDecisionRequest, MaxIIVerdict, MaxIIVerdict]:
    """The Eq. (8) Max-II's ``Γn`` verdict: :func:`closed_form_verdict` when a
    branch is onto, else the answer to one ``Γn`` request."""
    verdict = closed_form_verdict(inequality)
    if verdict is None:
        verdict = yield ConeDecisionRequest(
            inequality.as_max_ii(), "gamma", inequality.ground, seed="containment"
        )
    return verdict


# ---------------------------------------------------------------------- #
# Sufficient condition (Theorem 4.2)
# ---------------------------------------------------------------------- #
def _sufficient_pipeline(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    decompositions: Optional[Sequence[TreeDecomposition]] = None,
) -> ContainmentPipeline:
    """Theorem 4.2 pipeline for an already-Boolean pair."""
    inequality = build_containment_inequality(q1, q2, decompositions)
    if inequality.is_trivially_false:
        witness = _no_homomorphism_witness(q1, q2)
        if witness is not None:
            return ContainmentResult(
                status=ContainmentStatus.NOT_CONTAINED,
                method="no-homomorphism",
                inequality=inequality,
                witness=witness,
            )
        return ContainmentResult(
            status=ContainmentStatus.UNKNOWN,
            method="no-homomorphism",
            inequality=inequality,
            details={"note": "hom(Q2,Q1) is empty but the canonical witness failed"},
        )
    verdict = yield from _gamma_verdict(inequality)
    if verdict.valid:
        return ContainmentResult(
            status=ContainmentStatus.CONTAINED,
            method="sufficient-gamma",
            inequality=inequality,
            verdict=verdict,
        )
    return ContainmentResult(
        status=ContainmentStatus.UNKNOWN,
        method="sufficient-gamma",
        inequality=inequality,
        verdict=verdict,
        details={"note": "Eq. (8) fails over Γn; this alone proves nothing"},
    )


def sufficient_containment_check(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    decompositions: Optional[Sequence[TreeDecomposition]] = None,
) -> ContainmentResult:
    """The Theorem 4.2 sufficient condition, decided over the Shannon cone.

    A CONTAINED verdict is always sound (``Γ*n ⊆ Γn``); any other outcome is
    reported as UNKNOWN by this function alone.
    """
    return run_containment_pipeline(
        _sufficient_pipeline(*to_boolean_pair(q1, q2), decompositions)
    )


# ---------------------------------------------------------------------- #
# Theorem 3.1: complete decision for chordal Q2 with a simple junction tree
# ---------------------------------------------------------------------- #
def _theorem_3_1_pipeline(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> ContainmentPipeline:
    """Theorem 3.1 pipeline for an already-Boolean pair."""
    if not has_simple_junction_tree(q2):
        raise QueryError(
            "Theorem 3.1 requires Q2 to be chordal with a simple junction tree"
        )
    tree = junction_tree(q2)
    inequality = build_containment_inequality(q1, q2, decompositions=[tree])
    if inequality.is_trivially_false:
        witness = _no_homomorphism_witness(q1, q2)
        return ContainmentResult(
            status=ContainmentStatus.NOT_CONTAINED,
            method="theorem-3.1",
            inequality=inequality,
            witness=witness,
            details={"reason": "hom(Q2, Q1) is empty"},
        )
    verdict = yield from _gamma_verdict(inequality)
    if verdict.valid:
        return ContainmentResult(
            status=ContainmentStatus.CONTAINED,
            method="theorem-3.1",
            inequality=inequality,
            verdict=verdict,
            details={"branches": len(inequality.branches), "simple": True},
        )
    hom_count = count_query_to_query_homomorphisms(q2, q1)
    witness = yield from _refute_from_cone_pipeline(
        inequality,
        hom_count,
        prefer_modular=has_totally_disconnected_junction_tree(q2),
    )
    if witness is None:
        witness = brute_force_refute(q1, q2)
    details: Dict[str, object] = {"branches": len(inequality.branches)}
    if witness is None:
        details["note"] = (
            "the inequality fails over Γn (hence over Nn, hence containment fails "
            "by Theorem 3.1), but no witness within the size budget was materialized"
        )
    return ContainmentResult(
        status=ContainmentStatus.NOT_CONTAINED,
        method="theorem-3.1",
        inequality=inequality,
        verdict=verdict,
        witness=witness,
        details=details,
    )


def theorem_3_1_decision(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> ContainmentResult:
    """The complete, exponential-time procedure of Theorem 3.1.

    Requires ``Q2`` to be chordal with a simple junction tree (raises
    :class:`QueryError` otherwise).  The verdict is always CONTAINED or
    NOT_CONTAINED.  A CONTAINED verdict with an onto homomorphism carries
    its closed-form ``λ`` and Shannon proof (:func:`closed_form_verdict`);
    one that needs several branches is decided by :func:`decide_max_ii`,
    which computes no proof.  A NOT_CONTAINED verdict carries a verified
    witness built from the violating ``Nn``/``Mn`` point at the smallest
    power that separates, up to Lemma E.1's bound
    (:mod:`repro.core.witness`), when that witness has at most
    ``DEFAULT_MAX_ROWS`` rows.  Otherwise
    :func:`~repro.core.brute_force.brute_force_refute` is the last resort;
    when it finds nothing too, the verdict carries no witness and
    ``details["note"]`` says so.
    """
    return run_containment_pipeline(_theorem_3_1_pipeline(*to_boolean_pair(q1, q2)))


# ---------------------------------------------------------------------- #
# The general entry point
# ---------------------------------------------------------------------- #
def containment_pipeline(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery, method: str = "auto"
) -> ContainmentPipeline:
    """The per-pair containment pipeline (see the module docstring).

    A generator that yields :class:`ConeDecisionRequest` objects, expects
    :class:`MaxIIVerdict` answers via ``send`` and returns the final
    :class:`ContainmentResult`.  ``method`` has the same meaning as in
    :func:`decide_containment`.  The Lemma A.1 Boolean reduction is applied
    exactly once, here; every downstream stage receives the Boolean pair.
    """
    if len(q1.head) != len(q2.head):
        raise QueryError("queries must have the same number of head variables")
    # Reject vocabulary mismatches (same relation name with different arities)
    # up front rather than silently treating the queries as unrelated.
    q1.vocabulary.merged_with(q2.vocabulary)
    boolean_q1, boolean_q2 = to_boolean_pair(q1, q2)

    if method == "theorem-3.1":
        return (yield from _theorem_3_1_pipeline(boolean_q1, boolean_q2))
    if method == "sufficient":
        return (yield from _sufficient_pipeline(boolean_q1, boolean_q2))
    if method == "brute-force":
        witness = brute_force_refute(boolean_q1, boolean_q2)
        if witness is not None:
            return ContainmentResult(
                status=ContainmentStatus.NOT_CONTAINED,
                method="brute-force",
                witness=witness,
            )
        return ContainmentResult(
            status=ContainmentStatus.UNKNOWN, method="brute-force"
        )
    if method != "auto":
        raise QueryError(f"unknown containment method {method!r}")

    if has_simple_junction_tree(boolean_q2):
        return (yield from _theorem_3_1_pipeline(boolean_q1, boolean_q2))

    # General case: sufficient check first, then refutation attempts.
    decompositions = candidate_tree_decompositions(boolean_q2)
    sufficient = yield from _sufficient_pipeline(boolean_q1, boolean_q2, decompositions)
    if sufficient.status != ContainmentStatus.UNKNOWN:
        return sufficient

    inequality = sufficient.inequality
    hom_count = count_query_to_query_homomorphisms(boolean_q2, boolean_q1)
    witness = None
    if inequality is not None and not inequality.is_trivially_false:
        witness = yield from _refute_from_cone_pipeline(
            inequality, hom_count, prefer_modular=False
        )
    if witness is None:
        witness = brute_force_refute(boolean_q1, boolean_q2)
    if witness is not None:
        return ContainmentResult(
            status=ContainmentStatus.NOT_CONTAINED,
            method="witness-search",
            inequality=inequality,
            witness=witness,
            verdict=sufficient.verdict,
            details={
                "acyclic_q2": is_acyclic(boolean_q2),
                "chordal_q2": is_chordal(boolean_q2),
            },
        )
    return ContainmentResult(
        status=ContainmentStatus.UNKNOWN,
        method="auto",
        inequality=inequality,
        verdict=sufficient.verdict,
        details={
            "note": (
                "neither the sufficient condition nor the refutation searches "
                "settled the question; this is expected outside the decidable "
                "fragments identified by the paper"
            ),
            "acyclic_q2": is_acyclic(boolean_q2),
            "chordal_q2": is_chordal(boolean_q2),
        },
    )


def decide_containment(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery, method: str = "auto"
) -> ContainmentResult:
    """Decide (or semi-decide) ``Q1 ⊑ Q2`` under bag-set semantics.

    ``method`` is one of:

    * ``"auto"`` — use Theorem 3.1 when ``Q2`` is chordal with a simple
      junction tree, otherwise combine the sufficient check with witness
      searches;
    * ``"theorem-3.1"`` — force the complete procedure (raises when ``Q2`` is
      outside the decidable fragment);
    * ``"sufficient"`` — only run the Theorem 4.2 sufficient check;
    * ``"brute-force"`` — only run the explicit witness searches, with
      :func:`~repro.core.brute_force.brute_force_refute`'s budgets.

    This is the sequential driver over :func:`containment_pipeline`; the
    batch engine (:func:`repro.service.decide_containment_many`) runs the
    same pipeline with grouped LP solving and a plan cache.
    """
    return run_containment_pipeline(containment_pipeline(q1, q2, method=method))
