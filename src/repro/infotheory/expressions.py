"""Linear and max-linear information expressions and inequalities.

These classes model the objects of Problems 2.4 and 2.5 of the paper:

* :class:`LinearExpression` — ``E(h) = Σ_X c_X · h(X)``;
* :class:`ConditionalExpression` — the special shape
  ``Σ d_{Y|X} · h(Y|X)`` with non-negative coefficients used by Theorem 3.6,
  together with its *simple* (``|X| ≤ 1``) and *unconditioned* (``X = ∅``)
  refinements;
* :class:`InformationInequality` — ``0 ≤ E(h)`` (an II);
* :class:`MaxInformationInequality` — ``0 ≤ max_ℓ E_ℓ(h)`` (a Max-II).

Expressions support the substitution ``E ∘ φ`` of Section 4 (applying a
variable map to every entropy term), which is how the tree-decomposition
expression ``E_T`` is transported along homomorphisms ``Q2 → Q1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

from repro.exceptions import ExpressionError
from repro.infotheory.setfunction import SetFunction
from repro.utils.ordering import stable_unique


def _clean_subset(variables: Iterable[str]) -> FrozenSet[str]:
    if isinstance(variables, str):
        return frozenset([variables])
    return frozenset(variables)


@dataclass(frozen=True)
class LinearExpression:
    """A linear expression ``E(h) = Σ_X c_X · h(X)`` over a ground set.

    The coefficient of the empty set is always dropped (``h(∅) = 0``).
    """

    ground: Tuple[str, ...]
    coefficients: Mapping[FrozenSet[str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ground = tuple(self.ground)
        object.__setattr__(self, "ground", ground)
        ground_set = frozenset(ground)
        cleaned: Dict[FrozenSet[str], float] = {}
        for subset, coefficient in self.coefficients.items():
            subset = _clean_subset(subset)
            if not subset <= ground_set:
                raise ExpressionError(
                    f"subset {sorted(subset)} not contained in the ground set"
                )
            if subset and coefficient != 0:
                cleaned[subset] = cleaned.get(subset, 0.0) + float(coefficient)
        cleaned = {s: c for s, c in cleaned.items() if c != 0}
        object.__setattr__(self, "coefficients", cleaned)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zero(cls, ground: Sequence[str]) -> "LinearExpression":
        return cls(ground=tuple(ground), coefficients={})

    @classmethod
    def entropy_term(
        cls, ground: Sequence[str], subset: Iterable[str], coefficient: float = 1.0
    ) -> "LinearExpression":
        """The single term ``coefficient · h(subset)``."""
        return cls(ground=tuple(ground), coefficients={_clean_subset(subset): coefficient})

    @classmethod
    def conditional_term(
        cls,
        ground: Sequence[str],
        targets: Iterable[str],
        given: Iterable[str] = (),
        coefficient: float = 1.0,
    ) -> "LinearExpression":
        """The term ``coefficient · h(targets | given) = c·h(targets ∪ given) − c·h(given)``."""
        targets = _clean_subset(targets)
        given = _clean_subset(given)
        coefficients: Dict[FrozenSet[str], float] = {}
        coefficients[targets | given] = coefficients.get(targets | given, 0.0) + coefficient
        coefficients[given] = coefficients.get(given, 0.0) - coefficient
        return cls(ground=tuple(ground), coefficients=coefficients)

    # ------------------------------------------------------------------ #
    # Algebra and evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, function: SetFunction) -> float:
        """Evaluate the expression on a set function.

        Delegates to the bitmask fast path of
        :meth:`SetFunction.evaluate_combination` (one mask lookup per term).
        """
        return function.evaluate_combination(self.coefficients)

    def __add__(self, other: "LinearExpression") -> "LinearExpression":
        ground = stable_unique(self.ground + tuple(other.ground))
        coefficients: Dict[FrozenSet[str], float] = dict(self.coefficients)
        for subset, coefficient in other.coefficients.items():
            coefficients[subset] = coefficients.get(subset, 0.0) + coefficient
        return LinearExpression(ground=ground, coefficients=coefficients)

    def __sub__(self, other: "LinearExpression") -> "LinearExpression":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "LinearExpression":
        return LinearExpression(
            ground=self.ground,
            coefficients={s: scalar * c for s, c in self.coefficients.items()},
        )

    __rmul__ = __mul__

    def with_ground(self, ground: Sequence[str]) -> "LinearExpression":
        """Re-declare the expression over a (larger) ground set."""
        return LinearExpression(ground=tuple(ground), coefficients=self.coefficients)

    def substitute(self, mapping: Mapping[str, str], ground: Sequence[str] = None) -> "LinearExpression":
        """The substituted expression ``E ∘ φ`` (Section 4).

        Every term ``c · h(Y)`` becomes ``c · h(φ(Y))`` where ``φ(Y)`` is the
        *image set* of ``Y`` (repeated images collapse, which is exactly the
        behaviour required by the φ-pullback of the paper).
        """
        if ground is None:
            ground = stable_unique(
                tuple(mapping.get(v, v) for v in self.ground)
            )
        coefficients: Dict[FrozenSet[str], float] = {}
        for subset, coefficient in self.coefficients.items():
            image = frozenset(mapping.get(v, v) for v in subset)
            coefficients[image] = coefficients.get(image, 0.0) + coefficient
        return LinearExpression(ground=tuple(ground), coefficients=coefficients)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for subset in sorted(self.coefficients, key=lambda s: (len(s), sorted(s))):
            coefficient = self.coefficients[subset]
            parts.append(f"{coefficient:+g}·h({','.join(sorted(subset))})")
        return " ".join(parts)


@dataclass(frozen=True)
class ConditionalTerm:
    """One term ``coefficient · h(targets | given)`` of a conditional expression."""

    targets: FrozenSet[str]
    given: FrozenSet[str] = frozenset()
    coefficient: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", _clean_subset(self.targets))
        object.__setattr__(self, "given", _clean_subset(self.given))
        if self.coefficient < 0:
            raise ExpressionError(
                "conditional expressions have non-negative coefficients"
            )

    @property
    def is_simple(self) -> bool:
        """``|given| ≤ 1`` — the shape required by Theorem 3.6(ii)."""
        return len(self.given) <= 1

    @property
    def is_unconditioned(self) -> bool:
        """``given = ∅`` — the shape required by Theorem 3.6(i)."""
        return len(self.given) == 0

    def substitute(self, mapping: Mapping[str, str]) -> "ConditionalTerm":
        """This term with ``mapping`` applied, skipping the constructor's checks.

        The coefficient was checked when this term was built, and the image
        sets are built as frozensets, so there is nothing left to check.
        """
        term = object.__new__(ConditionalTerm)
        object.__setattr__(term, "targets", frozenset(mapping.get(v, v) for v in self.targets))
        object.__setattr__(term, "given", frozenset(mapping.get(v, v) for v in self.given))
        object.__setattr__(term, "coefficient", self.coefficient)
        return term

    def __str__(self) -> str:
        given = ",".join(sorted(self.given))
        targets = ",".join(sorted(self.targets))
        if given:
            return f"{self.coefficient:g}·h({targets}|{given})"
        return f"{self.coefficient:g}·h({targets})"


@dataclass(frozen=True)
class ConditionalExpression:
    """A conditional linear expression ``Σ_i d_i · h(Y_i | X_i)`` with ``d_i ≥ 0``.

    This is the structured form used by Theorem 3.6; :meth:`to_linear`
    flattens it into a plain :class:`LinearExpression`.
    """

    ground: Tuple[str, ...]
    terms: Tuple[ConditionalTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", tuple(self.ground))
        object.__setattr__(self, "terms", tuple(self.terms))
        ground_set = frozenset(self.ground)
        for term in self.terms:
            if not (term.targets | term.given) <= ground_set:
                raise ExpressionError(
                    f"term {term} uses variables outside the ground set"
                )

    @property
    def is_simple(self) -> bool:
        return all(term.is_simple for term in self.terms)

    @property
    def is_unconditioned(self) -> bool:
        return all(term.is_unconditioned for term in self.terms)

    def to_linear(self) -> LinearExpression:
        """``Σ_i d_i · (h(Y_i ∪ X_i) − h(X_i))`` summed term by term into one dict.

        Sums run in term order and a coefficient that cancels to zero is
        dropped (and re-appended if a later term brings it back), so the
        result equals adding the terms one :class:`LinearExpression` at a
        time, down to the float values and the key order.
        """
        coefficients: Dict[FrozenSet[str], float] = {}
        for term in self.terms:
            joint = term.targets | term.given
            if not term.coefficient or joint == term.given:
                continue  # the term is identically zero
            for subset, delta in ((joint, term.coefficient), (term.given, -term.coefficient)):
                if not subset:
                    continue  # h(∅) = 0
                value = coefficients.get(subset, 0.0) + delta
                if value:
                    coefficients[subset] = value
                else:
                    del coefficients[subset]
        return LinearExpression(ground=self.ground, coefficients=coefficients)

    def evaluate(self, function: SetFunction) -> float:
        return self.to_linear().evaluate(function)

    def substitute(
        self, mapping: Mapping[str, str], ground: Sequence[str]
    ) -> "ConditionalExpression":
        """Apply a variable map to every term (``E ∘ φ``), keeping the structure.

        Each renamed term is checked against ``ground`` once, here; an image
        outside it raises :class:`ExpressionError`.
        """
        ground = tuple(ground)
        ground_set = frozenset(ground)
        terms = []
        for term in self.terms:
            renamed = term.substitute(mapping)
            if not (renamed.targets | renamed.given) <= ground_set:
                raise ExpressionError(f"term {renamed} uses variables outside the ground set")
            terms.append(renamed)
        expression = object.__new__(ConditionalExpression)
        object.__setattr__(expression, "ground", ground)
        object.__setattr__(expression, "terms", tuple(terms))
        return expression

    def __str__(self) -> str:
        return " + ".join(str(term) for term in self.terms) if self.terms else "0"


@dataclass(frozen=True)
class InformationInequality:
    """An information inequality ``0 ≤ E(h)`` (Problem 2.4)."""

    expression: LinearExpression

    @property
    def ground(self) -> Tuple[str, ...]:
        return self.expression.ground

    def holds_for(self, function: SetFunction, tolerance: float = 1e-9) -> bool:
        return self.expression.evaluate(function) >= -tolerance

    def violation(self, function: SetFunction) -> float:
        """How negative the expression is on ``function`` (0 when satisfied)."""
        return min(0.0, self.expression.evaluate(function))

    def __str__(self) -> str:
        return f"0 ≤ {self.expression}"


@dataclass(frozen=True)
class MaxInformationInequality:
    """A max-information inequality ``0 ≤ max_ℓ E_ℓ(h)`` (Problem 2.5)."""

    branches: Tuple[LinearExpression, ...]

    def __post_init__(self) -> None:
        branches = tuple(self.branches)
        if not branches:
            raise ExpressionError("a Max-II needs at least one branch")
        object.__setattr__(self, "branches", branches)

    @property
    def ground(self) -> Tuple[str, ...]:
        return stable_unique(
            tuple(v for branch in self.branches for v in branch.ground)
        )

    @classmethod
    def single(cls, expression: LinearExpression) -> "MaxInformationInequality":
        """View an ordinary II as a Max-II with one branch (k = 1)."""
        return cls(branches=(expression,))

    @classmethod
    def containment_form(
        cls,
        total_coefficient: float,
        ground: Sequence[str],
        branches: Sequence[LinearExpression],
    ) -> "MaxInformationInequality":
        """The inequality ``q · h(V) ≤ max_ℓ E_ℓ(h)`` re-written as a Max-II.

        Each branch becomes ``E_ℓ(h) - q · h(V)``; the Max-II is valid iff the
        original containment-form inequality is.  Each branch's coefficients
        are built in one pass and checked against ``ground`` once: ``h(V)``
        keeps its place when the branch has it (and drops out when it
        cancels), and is appended otherwise.
        """
        ground = stable_unique(tuple(ground))
        full = frozenset(ground)
        total = float(total_coefficient)
        shifted = []
        for branch in branches:
            coefficients = dict(branch.coefficients)
            if total and full:
                value = coefficients.get(full, 0.0) - total
                if value:
                    coefficients[full] = value
                else:
                    del coefficients[full]
            shifted.append(LinearExpression(ground=ground, coefficients=coefficients))
        return cls(branches=tuple(shifted))

    def holds_for(self, function: SetFunction, tolerance: float = 1e-9) -> bool:
        return self.max_value(function) >= -tolerance

    def max_value(self, function: SetFunction) -> float:
        return max(branch.evaluate(function) for branch in self.branches)

    def violation(self, function: SetFunction) -> float:
        return min(0.0, self.max_value(function))

    def __len__(self) -> int:
        return len(self.branches)

    def __str__(self) -> str:
        return "0 ≤ max(" + ", ".join(str(b) for b in self.branches) + ")"
