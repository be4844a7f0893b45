"""The tree-decomposition expression ``E_T`` (paper Eq. (7) and Eq. (32)).

Given a tree decomposition ``(T, χ)`` of a query, root every connected
component and define

    ``E_T(h) = Σ_t h(χ(t) | χ(t) ∩ χ(parent(t)))``

with an empty conditioning set at the roots.  The expression does not depend
on the choice of roots — it also equals
``Σ_t h(χ(t)) − Σ_{(t1,t2) ∈ edges} h(χ(t1) ∩ χ(t2))`` — and, by Lee's
theorem, ``E_T(h) = h(V)`` exactly when the relation underlying ``h`` admits
the acyclic join decomposition described by ``T``.

``E_T`` is produced in *conditional* form (a
:class:`~repro.infotheory.expressions.ConditionalExpression`) so that the
"simple" / "unconditioned" structure needed by Theorem 3.6 is preserved when
the expression is pushed along a homomorphism (``E_T ∘ φ``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cq.decompositions import TreeDecomposition
from repro.infotheory.expressions import (
    ConditionalExpression,
    ConditionalTerm,
    LinearExpression,
)


def et_expression(
    decomposition: TreeDecomposition, ground: Sequence[str] = None
) -> ConditionalExpression:
    """Build ``E_T`` in conditional form for a tree decomposition.

    ``ground`` defaults to the union of the bags.  Each node contributes the
    term ``h(χ(t) | χ(t) ∩ χ(parent(t)))``; roots contribute the
    unconditioned term ``h(χ(root))``.
    """
    if ground is None:
        ground = tuple(sorted(decomposition.all_variables()))
    parent = decomposition.rooted_parents()
    terms = []
    for node in decomposition.topological_order():
        bag = decomposition.bags[node]
        if parent[node] is None:
            separator: frozenset = frozenset()
        else:
            separator = bag & decomposition.bags[parent[node]]
        terms.append(ConditionalTerm(targets=bag, given=separator, coefficient=1.0))
    return ConditionalExpression(ground=tuple(ground), terms=tuple(terms))


def et_expression_inclusion_exclusion(
    decomposition: TreeDecomposition, ground: Sequence[str] = None
) -> LinearExpression:
    """The edge form ``Σ_t h(χ(t)) − Σ_{(t1,t2)} h(χ(t1) ∩ χ(t2))``.

    This equals :func:`et_expression` as a linear expression for every tree
    decomposition; the identity (a finite special case of the
    inclusion–exclusion formula Eq. (32)) is exercised by the tests.
    """
    if ground is None:
        ground = tuple(sorted(decomposition.all_variables()))
    expression = LinearExpression.zero(tuple(ground))
    for bag in decomposition.bags:
        expression = expression + LinearExpression.entropy_term(ground, bag)
    for t1, t2 in decomposition.edges:
        separator = decomposition.bags[t1] & decomposition.bags[t2]
        if separator:
            expression = expression - LinearExpression.entropy_term(ground, separator)
    return expression


def et_substituted(
    decomposition: TreeDecomposition,
    homomorphism: Mapping[str, str],
    ground: Sequence[str],
) -> ConditionalExpression:
    """The substituted expression ``E_T ∘ φ`` over the target ground set.

    ``homomorphism`` maps the variables of the decomposed query (``Q2``) to
    the variables of the containing side (``Q1``); ``ground`` is the variable
    set of ``Q1``.  Substitution maps every entropy term through the image
    sets, which may collapse repeated images — exactly the φ-pullback
    semantics of Section 4.
    """
    return et_expression(decomposition).substitute(homomorphism, ground)
