"""The polyhedral cones ``Mn ⊆ Nn ⊆ Γn`` (paper Section 3.2).

Each cone provides the same two services:

* :meth:`~Cone.contains` — membership of a given set function;
* :meth:`~Cone.find_point_below` — given a list of linear expressions
  ``E_1, ..., E_k``, find a point ``h`` of the cone with ``E_ℓ(h) ≤ -1`` for
  every ``ℓ`` (the scaled form of "all branches strictly negative"), or
  report that none exists.

The second service is exactly the feasibility problem whose *in*feasibility
means that the max-inequality ``0 ≤ max_ℓ E_ℓ(h)`` is valid over the cone —
the engine of the Theorem 3.1 decision procedure and of the witness
constructions of Theorem 3.4.

``Γ*n`` (the entropic functions) is deliberately *not* a subclass: it is not
polyhedral, not even topologically closed, and deciding validity over it is
the open problem the paper connects to query containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import CertificateError
from repro.infotheory.expressions import LinearExpression
from repro.infotheory.functions import modular_function, normal_function, step_function
from repro.infotheory.imeasure import is_normal_function
from repro.infotheory.polymatroid import is_modular, is_polymatroid
from repro.infotheory.setfunction import SetFunction
from repro.infotheory.shannon import ShannonCertificate, shannon_prover
from repro.lp.rowgen import RowGenOptions, shannon_row_oracle
from repro.lp.solver import FeasibilityBlock, check_feasibility, solve_feasibility_blocks
from repro.utils.lattice import lattice_context
from repro.utils.subsets import proper_subsets


@dataclass(frozen=True)
class ConePoint:
    """A point of a cone, together with its generator coefficients when known."""

    function: SetFunction
    coefficients: Optional[Dict[FrozenSet[str], float]] = None


#: A Theorem 6.1 certificate that no cone point lies below: the convex
#: weights ``λ`` of the expressions and the Shannon proof of ``Σλ_ℓ E_ℓ``.
ConeProof = Tuple[np.ndarray, ShannonCertificate]


class Cone:
    """Interface shared by the three polyhedral cones."""

    name = "cone"

    def __init__(self, ground: Sequence[str]):
        self.ground: Tuple[str, ...] = tuple(ground)
        if not self.ground:
            raise ValueError("the ground set must be non-empty")

    def contains(self, function: SetFunction, tolerance: float = 1e-9) -> bool:
        raise NotImplementedError

    def find_point_below(
        self,
        expressions: Sequence[LinearExpression],
        seed: str = "generic",
    ) -> Optional[ConePoint]:
        """A cone point with ``E_ℓ(h) ≤ -1`` for every expression, if any.

        ``seed`` names the row-generation seed set (``"containment"``
        front-loads the ``|K| ≤ 1`` rows the Eq. (8) inequalities are made
        of); only ``Γn`` has an implicit row family, so the generated cones
        accept and ignore it.
        """
        raise NotImplementedError

    def points_or_proofs_below_many(
        self,
        expression_lists: Sequence[Sequence[LinearExpression]],
        seed: str = "generic",
    ) -> List[Tuple[Optional[ConePoint], Optional[ConeProof]]]:
        """Batched :meth:`find_point_below`, with a proof where there is no point.

        Each cone's ``find_points_below_many`` decides all systems in one
        block LP call (:func:`repro.lp.solver.solve_feasibility_blocks`):
        one stacked HiGHS invocation for the generated cones and for ``Γn``
        on the dense path, one warm-started model per system for ``Γn`` on
        the row-generation path, which it takes from ``n = 8``.  One
        ``(point, proof)`` pair per expression list: ``proof`` is the
        Theorem 6.1 certificate ``(λ, µ)`` that no point exists, when the
        cone's LP yields one (only ``Γn``'s does), and ``None`` otherwise.
        """
        return [
            (point, None)
            for point in self.find_points_below_many(expression_lists, seed=seed)
        ]


class GammaCone(Cone):
    """The Shannon (polymatroid) cone ``Γn``.

    The elemental description is held implicitly through the shared
    :class:`~repro.lp.rowgen.ShannonRowOracle`.  The LP layer materializes
    it in full (the dense path) or grows it by row generation, by its row
    count — row generation from ``n = 9`` for :meth:`find_point_below`
    (:data:`~repro.lp.rowgen.AUTO_ROW_THRESHOLD`) and from ``n = 8`` for the
    block LP of :meth:`points_or_proofs_below_many`
    (:data:`~repro.lp.rowgen.AUTO_BLOCK_ROW_THRESHOLD`) — so large-arity
    cones never pay for the full matrix.
    """

    name = "gamma"

    def __init__(self, ground: Sequence[str]):
        super().__init__(ground)
        lattice = lattice_context(self.ground)
        self._lattice = lattice
        self._subsets = lattice.nonempty_subsets
        self._index = {subset: i for i, subset in enumerate(self._subsets)}
        # Implicit elemental row family (shared, cached); the full CSR is
        # materialized only on first dense use via the oracle.
        self._oracle = shannon_row_oracle(self.ground)

    def _expression_row(self, expression: LinearExpression) -> np.ndarray:
        row = np.zeros(len(self._subsets))
        for subset, coefficient in expression.coefficients.items():
            row[self._index[subset]] += coefficient
        return row

    def contains(self, function: SetFunction, tolerance: float = 1e-9) -> bool:
        return is_polymatroid(function, tolerance)

    def find_point_below(
        self,
        expressions: Sequence[LinearExpression],
        seed: str = "generic",
    ) -> Optional[ConePoint]:
        branch_rows = sp.csr_matrix(
            np.array([self._expression_row(e) for e in expressions])
        )
        feasible, solution = check_feasibility(
            num_variables=len(self._subsets),
            A_ub=branch_rows,
            b_ub=-np.ones(len(expressions)),
            lazy_rows=self._oracle,
            rowgen_options=RowGenOptions(seed=seed),
        )
        if not feasible or solution is None:
            return None
        function = SetFunction.from_vector(self.ground, solution)
        return ConePoint(function=function, coefficients=None)

    def find_points_below_many(
        self,
        expression_lists: Sequence[Sequence[LinearExpression]],
        seed: str = "generic",
    ) -> List[Optional[ConePoint]]:
        return [
            point
            for point, _ in self.points_or_proofs_below_many(expression_lists, seed=seed)
        ]

    def points_or_proofs_below_many(
        self,
        expression_lists: Sequence[Sequence[LinearExpression]],
        seed: str = "generic",
    ) -> List[Tuple[Optional[ConePoint], Optional[ConeProof]]]:
        """One block LP for every list; proofs are read off its duals.

        An infeasible block's soft-row multipliers are the weights ``λ`` and
        its elemental rows' multipliers the Shannon proof ``µ`` of
        ``Σλ_ℓ E_ℓ`` (see :class:`~repro.lp.solver.BlockFeasibilityResult`);
        :meth:`~repro.infotheory.shannon.ShannonProver.proof_from_duals`
        checks them.  A block whose duals are missing or fail that check
        gets no proof.
        """
        if not expression_lists:
            return []
        targets = [
            np.array([self._expression_row(e) for e in expressions])
            for expressions in expression_lists
        ]
        blocks = [
            FeasibilityBlock(
                num_variables=len(self._subsets),
                A_soft=sp.csr_matrix(rows),
                b_soft=-np.ones(rows.shape[0]),
            )
            for rows in targets
        ]
        # The elemental rows enter each block through the lazy family: dense
        # prepends the full matrix to every block of one stacked solve,
        # rowgen grows each block's active set on its own model.
        results = solve_feasibility_blocks(
            blocks, lazy_rows=self._oracle, rowgen_options=RowGenOptions(seed=seed)
        )
        prover = shannon_prover(self.ground)
        outcomes: List[Tuple[Optional[ConePoint], Optional[ConeProof]]] = []
        for rows, result in zip(targets, results):
            if result.feasible and result.solution is not None:
                point = ConePoint(
                    function=SetFunction.from_vector(self.ground, result.solution),
                    coefficients=None,
                )
                outcomes.append((point, None))
                continue
            proof = None
            if result.soft_duals is not None:
                row_ids = [row_id for row_id, _ in result.lazy_duals]
                multipliers = [multiplier for _, multiplier in result.lazy_duals]
                try:
                    proof = prover.proof_from_duals(
                        rows, result.soft_duals, row_ids, multipliers
                    )
                except CertificateError:
                    pass  # the verdict stands; it just carries no proof
            outcomes.append((None, proof))
        return outcomes


class _GeneratedCone(Cone):
    """A cone given by finitely many generator functions (``Nn`` and ``Mn``)."""

    def __init__(self, ground: Sequence[str]):
        super().__init__(ground)
        self._generator_data_cache: Optional[
            Tuple[List[Tuple[FrozenSet[str], SetFunction]], np.ndarray]
        ] = None

    def _generators(self) -> List[Tuple[FrozenSet[str], SetFunction]]:
        raise NotImplementedError

    def _combine(self, coefficients: Dict[FrozenSet[str], float]) -> SetFunction:
        raise NotImplementedError

    def _generator_data(self) -> Tuple[List[Tuple[FrozenSet[str], SetFunction]], np.ndarray]:
        """Generators plus their stacked canonical coordinate vectors (cached).

        Cone instances are shared process-wide through :func:`cone_by_name`,
        so a program that decides pairs on several threads of its own may hit
        one instance from all of them at once.  The lazy cache is therefore a
        *single* attribute assigned atomically: a racing thread either sees
        the complete (generators, matrix) pair or builds its own identical
        copy, never a half-initialized state.
        """
        data = self._generator_data_cache
        if data is None:
            generators = self._generators()
            matrix = np.array([gen.to_vector() for _, gen in generators])
            data = (generators, matrix)
            self._generator_data_cache = data
        return data

    def _lp_matrix(self, expressions: Sequence[LinearExpression]) -> np.ndarray:
        """The LP matrix with entry ``(ℓ, g) = E_ℓ`` evaluated on generator ``g``."""
        _, generator_matrix = self._generator_data()
        lattice = lattice_context(self.ground)
        canon_index = lattice.canon_index
        # Row ℓ: E_ℓ in canonical coordinates; entry (ℓ, g) of the LP matrix
        # is then E_ℓ evaluated on generator g — one matmul for all pairs.
        expression_rows = np.zeros((len(expressions), lattice.size - 1))
        for row, expression in enumerate(expressions):
            for subset, coefficient in expression.coefficients.items():
                expression_rows[row, canon_index[subset] - 1] += coefficient
        return expression_rows @ generator_matrix.T

    def _point_from_solution(self, solution: np.ndarray) -> ConePoint:
        generators, _ = self._generator_data()
        coefficients = {
            key: float(value)
            for (key, _), value in zip(generators, solution)
            if value > 1e-12
        }
        return ConePoint(function=self._combine(coefficients), coefficients=coefficients)

    def find_point_below(
        self,
        expressions: Sequence[LinearExpression],
        seed: str = "generic",
    ) -> Optional[ConePoint]:
        # ``seed`` is accepted for interface parity and ignored: the
        # generated cones are described by explicit generators, not an
        # implicit row family, so there is nothing to generate lazily.
        generators, _ = self._generator_data()
        matrix = self._lp_matrix(expressions)
        feasible, solution = check_feasibility(
            num_variables=len(generators),
            A_ub=matrix,
            b_ub=-np.ones(len(expressions)),
        )
        if not feasible or solution is None:
            return None
        return self._point_from_solution(solution)

    def find_points_below_many(
        self,
        expression_lists: Sequence[Sequence[LinearExpression]],
        seed: str = "generic",
    ) -> List[Optional[ConePoint]]:
        if not expression_lists:
            return []
        generators, _ = self._generator_data()
        blocks = [
            FeasibilityBlock(
                num_variables=len(generators),
                A_soft=self._lp_matrix(expressions),
                b_soft=-np.ones(len(expressions)),
            )
            for expressions in expression_lists
        ]
        results = solve_feasibility_blocks(blocks)
        return [
            self._point_from_solution(result.solution)
            if result.feasible and result.solution is not None
            else None
            for result in results
        ]


class NormalCone(_GeneratedCone):
    """The cone ``Nn`` of normal functions, generated by the step functions ``h_W``."""

    name = "normal"

    def contains(self, function: SetFunction, tolerance: float = 1e-9) -> bool:
        return is_normal_function(function, tolerance)

    def _generators(self) -> List[Tuple[FrozenSet[str], SetFunction]]:
        return [
            (frozenset(low), step_function(self.ground, low))
            for low in proper_subsets(self.ground)
        ]

    def _combine(self, coefficients: Dict[FrozenSet[str], float]) -> SetFunction:
        return normal_function(self.ground, coefficients)


class ModularCone(_GeneratedCone):
    """The cone ``Mn`` of modular functions, generated by the per-variable basis."""

    name = "modular"

    def contains(self, function: SetFunction, tolerance: float = 1e-9) -> bool:
        return is_modular(function, tolerance)

    def _generators(self) -> List[Tuple[FrozenSet[str], SetFunction]]:
        generators = []
        for variable in self.ground:
            weights = {v: (1.0 if v == variable else 0.0) for v in self.ground}
            generators.append((frozenset([variable]), modular_function(weights)))
        return generators

    def _combine(self, coefficients: Dict[FrozenSet[str], float]) -> SetFunction:
        weights = {v: 0.0 for v in self.ground}
        for key, value in coefficients.items():
            (variable,) = tuple(key)
            weights[variable] = value
        return modular_function(weights)


_CONES = {"gamma": GammaCone, "normal": NormalCone, "modular": ModularCone}


@lru_cache(maxsize=128)
def _cone_instance(name: str, ground: Tuple[str, ...]) -> Cone:
    return _CONES[name](ground)


def cone_by_name(name: str, ground: Sequence[str]) -> Cone:
    """Factory: ``"gamma"`` → :class:`GammaCone`, ``"normal"`` → :class:`NormalCone`, ``"modular"`` → :class:`ModularCone`.

    Instances are cached per ``(name, ground)`` — cones are stateless after
    construction, and sharing them lets repeated containment checks over the
    same ground set reuse the elemental matrix and generator tables.
    """
    if name not in _CONES:
        raise ValueError(f"unknown cone {name!r}; expected one of {sorted(_CONES)}")
    return _cone_instance(name, tuple(ground))
