"""The domination problem DOM and exponent domination (paper Section 2.1).

``B`` dominates ``A`` (written ``A ⪯ B``) when
``|hom(A, D)| ≤ |hom(B, D)|`` for every structure ``D``.  Identifying a
structure with the Boolean conjunctive query whose atoms are its facts, DOM
is *the same problem* as Boolean bag containment, so the module simply
translates structures to queries and reuses the containment machinery.

The decision version of the Kopparty–Rossman homomorphism-domination-exponent
problem — is ``|hom(A, D)|^c ≤ |hom(B, D)|`` for all ``D``? — reduces to DOM
by the disjoint-copies trick ``|hom(n·A, D)| = |hom(A, D)|^n``
([21, Lemma 2.2], quoted in Section 2.1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.structures import Structure
from repro.core.containment import ContainmentResult, decide_containment
from repro.exceptions import QueryError
from repro.utils.rational import as_fraction


def structure_to_query(structure: Structure, name: str = "Q") -> ConjunctiveQuery:
    """The Boolean query whose atoms are the facts of ``structure``.

    Domain elements become variables (via ``str``), so
    ``hom(structure, D) = hom(query, D)`` for every ``D``.
    """
    atoms = []
    for relation, row in structure.facts():
        atoms.append(Atom(relation, tuple(f"v_{value}" for value in row)))
    if not atoms:
        raise QueryError("a structure with no facts cannot be converted to a query")
    return ConjunctiveQuery(atoms=tuple(atoms), head=(), name=name)


def dominates(
    dominated: Structure, dominating: Structure, method: str = "auto"
) -> ContainmentResult:
    """Decide whether ``dominating`` dominates ``dominated`` (``dominated ⪯ dominating``).

    Returns the underlying :class:`ContainmentResult` for
    ``Q_dominated ⊑ Q_dominating``.
    """
    q1 = structure_to_query(dominated, name="A")
    q2 = structure_to_query(dominating, name="B")
    return decide_containment(q1, q2, method=method)


def exponent_domination_holds(
    base: Structure,
    dominating: Structure,
    exponent: Fraction,
    method: str = "auto",
) -> ContainmentResult:
    """Decide ``|hom(base, D)|^exponent ≤ |hom(dominating, D)|`` for all ``D``.

    For a rational exponent ``c = a / b`` the question is equivalent to
    ``|hom(a · base, D)| ≤ |hom(b · dominating, D)|`` where ``n · A`` denotes
    ``n`` disjoint copies, so the reduction produces disjoint-copy queries and
    calls the containment decider.
    """
    exponent = as_fraction(exponent)
    if exponent < 0:
        raise QueryError("the domination exponent must be non-negative")
    numerator = max(1, exponent.numerator)
    denominator = exponent.denominator
    q1 = structure_to_query(base, name="A").disjoint_copies(numerator)
    q2 = structure_to_query(dominating, name="B").disjoint_copies(denominator)
    if exponent == 0:
        # |hom(A, D)|^0 = 1 ≤ |hom(B, D)| iff B always has a homomorphism,
        # which fails on the empty database unless B has no facts; keep the
        # containment formulation for uniformity.
        q1 = structure_to_query(dominating, name="B")
    return decide_containment(q1, q2, method=method)


def homomorphism_domination_exponent(
    base: Structure,
    dominating: Structure,
    denominator: int = 2,
    max_numerator: int = 6,
    method: str = "auto",
) -> Dict[str, object]:
    """Estimate the Kopparty–Rossman homomorphism domination exponent.

    The domination exponent of ``(A, B)`` is the supremum of the rationals
    ``c`` with ``|hom(A, D)|^c ≤ |hom(B, D)|`` for every ``D``.  Each rational
    ``c = k/denominator`` is decided through the disjoint-copies reduction of
    Section 2.1; the search walks ``k = 1, 2, ...`` until a value fails or the
    decision becomes UNKNOWN.

    Returns a dictionary with the largest exponent proven to hold
    (``"lower_bound"``), the smallest exponent proven to fail
    (``"upper_bound"``, ``None`` if none failed within the budget), and the
    per-exponent verdicts.
    """
    if denominator < 1 or max_numerator < 1:
        raise QueryError("denominator and max_numerator must be positive")
    verdicts: Dict[Fraction, str] = {}
    lower_bound = Fraction(0)
    upper_bound = None
    for numerator in range(1, max_numerator + 1):
        exponent = Fraction(numerator, denominator)
        result = exponent_domination_holds(base, dominating, exponent, method=method)
        verdicts[exponent] = result.status.value
        if result.status.value == "contained":
            lower_bound = exponent
        else:
            if result.status.value == "not_contained":
                upper_bound = exponent
            break
    return {
        "lower_bound": lower_bound,
        "upper_bound": upper_bound,
        "verdicts": verdicts,
    }
