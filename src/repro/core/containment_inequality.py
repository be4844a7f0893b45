"""The containment Max-II of Eq. (8) built from a query pair.

Theorem 4.2 (sufficiency): if

    ``h(vars(Q1)) ≤ max_{(T,χ)} max_{φ ∈ hom(Q2,Q1)} (E_T ∘ φ)(h)``

holds for every entropic ``h``, then ``Q1 ⊑ Q2``.  Theorem 4.4 (necessity for
acyclic ``Q2``) and Lemma E.1 (chordal ``Q2`` with a simple junction tree,
restricted to normal ``h``) provide the converses that make the inequality a
decision criterion.

The construction here takes a *finite* family of tree decompositions of
``Q2`` (by default the canonical candidates: join tree / junction tree /
min-fill).  Using a subset of ``TD(Q2)`` only shrinks the right-hand side, so
validity of the restricted inequality still implies containment; and the
necessity proofs only ever use a single junction tree, so nothing is lost for
the decidable cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cq.decompositions import TreeDecomposition, candidate_tree_decompositions
from repro.cq.homomorphism import query_to_query_homomorphisms
from repro.cq.query import ConjunctiveQuery
from repro.core.et_expression import et_expression
from repro.exceptions import QueryError
from repro.infotheory.expressions import (
    ConditionalExpression,
    LinearExpression,
    MaxInformationInequality,
)
from repro.infotheory.setfunction import SetFunction


@dataclass(frozen=True)
class ContainmentBranch:
    """One branch ``(E_T ∘ φ)`` of the containment inequality."""

    decomposition: TreeDecomposition
    homomorphism: Mapping[str, str]
    conditional: ConditionalExpression

    @property
    def is_simple(self) -> bool:
        return self.conditional.is_simple


@dataclass(frozen=True)
class ContainmentInequality:
    """The Max-II ``h(vars(Q1)) ≤ max_branches (E_T ∘ φ)(h)`` for a query pair.

    Attributes
    ----------
    q1, q2:
        The (Boolean) queries the inequality was built from.
    ground:
        ``vars(Q1)``, the ground set of the inequality.
    branches:
        One :class:`ContainmentBranch` per (tree decomposition, homomorphism)
        pair.  An empty branch list means ``hom(Q2, Q1) = ∅``; the inequality
        is then vacuously false for every non-trivial ``h`` and containment
        fails on the canonical database of ``Q1`` already.
    """

    q1: ConjunctiveQuery
    q2: ConjunctiveQuery
    ground: Tuple[str, ...]
    branches: Tuple[ContainmentBranch, ...] = field(default_factory=tuple)

    @property
    def is_trivially_false(self) -> bool:
        """True when there is no homomorphism ``Q2 → Q1`` at all."""
        return len(self.branches) == 0

    @property
    def all_branches_simple(self) -> bool:
        return all(branch.is_simple for branch in self.branches)

    def branch_expressions(self) -> List[LinearExpression]:
        """The branches flattened to plain linear expressions over ``ground``."""
        return [
            branch.conditional.to_linear().with_ground(self.ground)
            for branch in self.branches
        ]

    def as_max_ii(self) -> MaxInformationInequality:
        """The inequality in Max-II form: ``0 ≤ max_ℓ [(E_T∘φ)_ℓ(h) − h(V)]``."""
        if self.is_trivially_false:
            raise QueryError(
                "the containment inequality has no branches (hom(Q2, Q1) is empty)"
            )
        return MaxInformationInequality.containment_form(
            1.0, self.ground, self.branch_expressions()
        )

    def holds_for(self, function: SetFunction, tolerance: float = 1e-9) -> bool:
        """Evaluate the inequality on a single set function."""
        if self.is_trivially_false:
            return function.total() <= tolerance
        rhs = max(expr.evaluate(function) for expr in self.branch_expressions())
        return function.total() <= rhs + tolerance

    def right_hand_side(self, function: SetFunction) -> float:
        """``max_ℓ (E_T ∘ φ)_ℓ(h)`` (``-inf``-like 0 when there are no branches)."""
        if self.is_trivially_false:
            return float("-inf")
        return max(expr.evaluate(function) for expr in self.branch_expressions())


def build_containment_inequality(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    decompositions: Optional[Sequence[TreeDecomposition]] = None,
) -> ContainmentInequality:
    """Build the Eq. (8) inequality for a pair of Boolean queries.

    ``decompositions`` defaults to the canonical candidates of ``Q2``
    (:func:`repro.cq.decompositions.candidate_tree_decompositions`).  Every
    homomorphism ``φ ∈ hom(Q2, Q1)`` contributes one branch per
    decomposition.  Each decomposition is validated against ``Q2`` once per
    query.
    """
    if not q1.is_boolean or not q2.is_boolean:
        raise QueryError(
            "the containment inequality is defined for Boolean queries; "
            "apply repro.cq.reductions.to_boolean_pair first"
        )
    ground = q1.variables
    if decompositions is None:
        decompositions = candidate_tree_decompositions(q2)
    homomorphisms = query_to_query_homomorphisms(q2, q1)
    branches: List[ContainmentBranch] = []
    seen: Dict[Tuple, bool] = {}
    for decomposition in decompositions:
        q2.decompositions.check(decomposition)
        template = et_expression(decomposition, ground=q2.variables)
        for homomorphism in homomorphisms:
            conditional = template.substitute(homomorphism, ground)
            key = tuple(
                sorted(
                    (tuple(sorted(term.targets)), tuple(sorted(term.given)), term.coefficient)
                    for term in conditional.terms
                )
            )
            if key in seen:
                continue
            seen[key] = True
            branches.append(
                ContainmentBranch(
                    decomposition=decomposition,
                    homomorphism=dict(homomorphism),
                    conditional=conditional,
                )
            )
    return ContainmentInequality(
        q1=q1, q2=q2, ground=ground, branches=tuple(branches)
    )
