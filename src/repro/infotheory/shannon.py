"""ITIP-style Shannon prover (validity of inequalities over ``Γn``).

An information inequality ``0 ≤ E(h)`` is a *Shannon inequality* when it is a
non-negative combination of elemental inequalities — equivalently, when it
holds for every polymatroid ``h ∈ Γn``.  Because ``Γn`` is polyhedral this is
decidable by linear programming; this module implements both directions:

* :meth:`ShannonProver.is_valid` — primal check by minimizing ``E`` over the
  slice ``{h ∈ Γn : h(V) ≤ 1}``;
* :meth:`ShannonProver.certificate` — dual check recovering the multipliers
  ``λ ≥ 0`` with ``E = Σ_k λ_k · elemental_k`` (a machine-checkable proof);
* :meth:`ShannonProver.find_violating_polymatroid` — a polymatroid on which
  the inequality fails, when it is not Shannon-provable.

This is the decision engine behind Theorem 3.6 and the Theorem 3.1
containment algorithm.

Solver paths
------------
Every decision runs through one of two LP paths, picked by the elemental
row count (:func:`repro.lp.rowgen.choose_path`; row generation from
``n = 9``, past :data:`repro.lp.rowgen.AUTO_ROW_THRESHOLD`):

* **dense** materializes the full elemental CSR matrix (comfortable to
  ``n ≈ 8–10``);
* **rowgen** never builds the full matrix: the cutting-plane loops of
  :mod:`repro.lp.rowgen` grow a small active row set through a vectorized
  separation oracle, which is what makes ``n = 12–16`` cone problems
  decidable in practice.  Row-generation certificates are the duals of
  the last Farkas probe over the final active row set (enlarged by
  separation until the target is expressible); only the rows with
  positive multipliers are materialized as
  :class:`~repro.infotheory.polymatroid.ElementalInequality` objects, and
  the proof is checked to sum to its target in floating point, within
  ``1e-6`` per coordinate (:meth:`ShannonProver.proof_from_duals`), not in
  exact arithmetic.

Performance notes
-----------------
Coordinates follow the canonical subset order (by size, then
lexicographically) shared with :meth:`SetFunction.to_vector`; internally the
subsets are bitmasks (element ``ground[i]`` ↦ bit ``2**i``).  The elemental
CSR matrix and the :class:`ElementalInequality` list are built lazily, on
first *dense* use — a prover whose decisions all run through row generation
never materializes either.  Use :func:`shannon_prover` to share whole prover
instances process-wide (repeated containment checks over the same arity then
skip all constraint-matrix work).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import CertificateError
from repro.infotheory.expressions import InformationInequality, LinearExpression
from repro.infotheory.polymatroid import (
    ElementalInequality,
    elemental_inequalities,
    materialize_elementals,
)
from repro.infotheory.setfunction import SetFunction
from repro.lp.certificates import nonnegative_combination
from repro.lp.backends import resolve_backend
from repro.lp.rowgen import RowGenOptions, choose_path, minimize_lazy, shannon_row_oracle
from repro.lp.solver import LPStatus, minimize
from repro.utils.lattice import lattice_context


@dataclass(frozen=True)
class ShannonCertificate:
    """A Shannon proof: ``E = Σ_k λ_k · elemental_k`` with ``λ_k ≥ 0``.

    The certificate stores only the strictly positive multipliers.  It can be
    re-verified independently of any LP solver via :meth:`verify`.
    """

    ground: Tuple[str, ...]
    multipliers: Tuple[Tuple[ElementalInequality, float], ...]

    def verify(self, expression: LinearExpression, tolerance: float = 1e-6) -> bool:
        """Check that the weighted elemental inequalities sum to ``expression``."""
        combined: dict = {}
        for inequality, multiplier in self.multipliers:
            if multiplier < -tolerance:
                return False
            for subset, coefficient in inequality.as_dict().items():
                combined[subset] = combined.get(subset, 0.0) + multiplier * coefficient
        subsets = set(combined) | set(expression.coefficients)
        return all(
            abs(combined.get(s, 0.0) - expression.coefficients.get(s, 0.0)) <= tolerance
            for s in subsets
        )

    def __len__(self) -> int:
        return len(self.multipliers)


class ShannonProver:
    """Decide Shannon validity of linear information expressions over a ground set."""

    def __init__(self, ground: Sequence[str]):
        self.ground: Tuple[str, ...] = tuple(ground)
        if not self.ground:
            raise ValueError("the ground set must be non-empty")
        lattice = lattice_context(self.ground)
        self._lattice = lattice
        self._subsets = lattice.nonempty_subsets
        # Canonical position of each non-empty subset (the LP coordinate order).
        self._subset_index = {
            subset: i for i, subset in enumerate(self._subsets)
        }
        self._oracle = shannon_row_oracle(self.ground)
        self._elementals_cache: Optional[List[ElementalInequality]] = None

    @property
    def num_elemental_rows(self) -> int:
        """``n + C(n,2)·2^(n-2)`` — the size of the full elemental description."""
        return self._oracle.row_count

    @property
    def elementals(self) -> List[ElementalInequality]:
        """The full elemental inequality list (materialized on first use)."""
        if self._elementals_cache is None:
            self._elementals_cache = elemental_inequalities(self.ground)
        return self._elementals_cache

    @property
    def _elemental_matrix(self) -> sp.csr_matrix:
        """The full elemental CSR matrix (built lazily, dense path only)."""
        return self._lattice.elemental_matrix()

    # ------------------------------------------------------------------ #
    # Vector encoding
    # ------------------------------------------------------------------ #
    def _expression_vector(self, coefficients) -> np.ndarray:
        vector = np.zeros(len(self._subsets))
        for subset, coefficient in coefficients.items():
            subset = frozenset(subset)
            if not subset:
                continue
            vector[self._subset_index[subset]] += coefficient
        return vector

    def expression_vector(self, expression: LinearExpression) -> np.ndarray:
        """Flatten an expression to the coordinate order used by the prover."""
        unknown = set().union(*expression.coefficients) if expression.coefficients else set()
        if not unknown <= set(self.ground):
            raise ValueError("expression uses variables outside the prover's ground set")
        return self._expression_vector(expression.coefficients)

    def function_from_vector(self, vector: np.ndarray) -> SetFunction:
        """Rebuild a :class:`SetFunction` from an LP solution vector."""
        return SetFunction.from_vector(self.ground, vector)

    # ------------------------------------------------------------------ #
    # Decision procedures
    # ------------------------------------------------------------------ #
    def minimum_over_gamma(self, expression: LinearExpression) -> Tuple[float, SetFunction]:
        """Minimize ``E(h)`` over the slice ``{h ∈ Γn : h(V) ≤ 1}``.

        Because ``Γn`` is a cone and every non-zero polymatroid has
        ``h(V) > 0``, the minimum is negative exactly when the inequality
        ``0 ≤ E(h)`` fails somewhere on ``Γn``.
        """
        objective = self.expression_vector(expression)
        total_row = sp.csr_matrix(
            ([1.0], ([0], [self._subset_index[frozenset(self.ground)]])),
            shape=(1, len(self._subsets)),
        )
        if choose_path(self.num_elemental_rows) == "rowgen":
            # The box 0 ≤ h(X) ≤ 1 is implied by monotonicity plus the
            # normalization over the full cone, so adding it cuts nothing
            # from the true feasible set while keeping every cutting-plane
            # relaxation bounded.  The early stop exploits that h = 0 is
            # always feasible with E(0) = 0: the true minimum is ≤ 0, so a
            # relaxation bound ≥ -ε pins it to [-ε, 0] and the zero
            # polymatroid is a minimizer up to ε — no need to grow the
            # active set until the relaxed point itself reaches Γn.
            result = minimize_lazy(
                objective,
                self._oracle,
                A_ub=total_row,
                b_ub=np.array([1.0]),
                bounds=(0, 1),
                options=RowGenOptions(early_stop_objective=-1e-9),
            )
            if result.status == LPStatus.OPTIMAL and result.rowgen.early_stopped:
                return result.objective, SetFunction.zero(self.ground)
        else:
            # Elemental inequalities A h >= 0  →  -A h <= 0, plus h(V) <= 1.
            result = minimize(
                objective,
                A_ub=sp.vstack([-self._elemental_matrix, total_row], format="csr"),
                b_ub=np.append(np.zeros(self.num_elemental_rows), 1.0),
            )
        if result.status != LPStatus.OPTIMAL:
            raise CertificateError(f"unexpected LP status {result.status} in Shannon prover")
        return result.objective, self.function_from_vector(result.solution)

    def is_valid(self, expression: LinearExpression, tolerance: float = 1e-7) -> bool:
        """True when ``0 ≤ E(h)`` holds for every polymatroid ``h ∈ Γn``."""
        value, _ = self.minimum_over_gamma(expression)
        return value >= -tolerance

    def is_valid_inequality(
        self, inequality: InformationInequality, tolerance: float = 1e-7
    ) -> bool:
        """Convenience wrapper taking an :class:`InformationInequality`."""
        return self.is_valid(inequality.expression, tolerance)

    def find_violating_polymatroid(
        self, expression: LinearExpression, tolerance: float = 1e-7
    ) -> Optional[SetFunction]:
        """A polymatroid with ``E(h) < 0``, or ``None`` when the inequality is valid."""
        value, function = self.minimum_over_gamma(expression)
        if value >= -tolerance:
            return None
        return function

    # ------------------------------------------------------------------ #
    # Certificates
    # ------------------------------------------------------------------ #
    def certificate(
        self, expression: LinearExpression, tolerance: float = 1e-6
    ) -> Optional[ShannonCertificate]:
        """A Shannon proof of ``0 ≤ E(h)``, or ``None`` when no proof exists.

        By LP duality / Farkas' lemma, the proof exists exactly when the
        inequality is valid over ``Γn``.  The row-generation path recovers
        the multipliers over its final active row set — see
        :meth:`_certificate_rowgen`.
        """
        target = self.expression_vector(expression)
        if choose_path(self.num_elemental_rows) == "rowgen":
            found = self._certificate_rowgen(target[np.newaxis, :], tolerance)
            return None if found is None else found[1]
        multipliers = nonnegative_combination(self._elemental_matrix, target, tolerance)
        if multipliers is None:
            return None
        pairs = tuple(
            (self.elementals[k], float(multiplier))
            for k, multiplier in enumerate(multipliers)
            if multiplier > tolerance
        )
        return ShannonCertificate(ground=self.ground, multipliers=pairs)

    def _certificate_rowgen(
        self, targets: np.ndarray, tolerance: float
    ) -> Optional[Tuple[np.ndarray, ShannonCertificate]]:
        """Convex weights and their Shannon proof by Farkas-driven row generation.

        ``targets`` holds one row ``c_ℓ`` per branch of ``0 ≤ max_ℓ E_ℓ(h)``.
        Returns ``(λ, proof)`` with ``λ ≥ 0``, ``Σλ = 1`` and the proof
        certifying ``Σ_ℓ λ_ℓ E_ℓ``, or ``None`` when no such ``λ`` exists
        (Theorem 6.1: exactly when the Max-II fails on ``Γn``).  With one
        target, ``λ = (1,)`` and the proof certifies that target — the
        :meth:`certificate` row-generation path;
        :func:`~repro.core.convex_certificate.find_convex_certificate` passes
        every branch.

        One incremental HiGHS model holds the *probe*
        ``min t`` over ``{c_ℓ·x ≤ t for every ℓ, A x ≥ 0, -1 ≤ x ≤ 1}``,
        written as ``min c_1·x + s`` with the fixed branch rows
        ``(c_ℓ - c_1)·x - s ≤ 0`` (``ℓ ≥ 2``), ``s ≥ 0``, and the active
        elemental rows ``A`` as keyed rows ``-a·x ≤ 0``, starting from the
        seed.  While the probe is negative its minimizer ``x`` satisfies
        every active row but makes every ``c_ℓ·x < 0``; the separation oracle
        either finds elemental rows ``x`` violates, which join the model for
        the next (warm) probe, or proves ``x ∈ Γn`` — a genuine violation, so
        no certificate exists.

        Once the probe reaches 0, LP duality hands the certificate back with
        it: with ``y = -row_duals ≥ 0``, stationarity in ``x`` reads
        ``c_1 + Σ_{ℓ≥2} y_ℓ (c_ℓ - c_1) = Aᵀ y_A`` and in ``s`` gives
        ``Σ_{ℓ≥2} y_ℓ ≤ 1``, so ``λ_ℓ = y_ℓ`` (``ℓ ≥ 2``),
        ``λ_1 = 1 - Σ_{ℓ≥2} λ_ℓ`` and ``µ = y_A`` solve
        ``Σλ_ℓ c_ℓ = Aᵀµ``.  No second LP is solved.  The box keeps the
        probe bounded and is harmless: cone membership and the signs of
        ``c_ℓ·x`` are scale-invariant, and at a zero optimum the box's
        reduced costs vanish.

        The duals become the certificate through :meth:`proof_from_duals`,
        which checks the proof against ``Σλ_ℓ c_ℓ`` (raising
        :class:`CertificateError` when it does not sum to it), so every
        caller gets a checked proof.
        """
        oracle = self._oracle
        options = RowGenOptions()
        count, width = targets.shape
        farkas_tolerance = 1e-9 * max(1.0, float(np.abs(targets).sum(axis=1).max()))
        branch_rows = None
        if count > 1:
            branch_rows = np.hstack([targets[1:] - targets[0], -np.ones((count - 1, 1))])
        model = resolve_backend().incremental_model(
            width + 1,
            np.append(targets[0], 1.0),
            bounds=[(-1.0, 1.0)] * width + [(0.0, None)],
            A_fixed=branch_rows,
            b_fixed=None if branch_rows is None else np.zeros(count - 1),
        )

        def add_active(row_ids):
            rows = oracle.rows_matrix(row_ids)
            model.add_rows(
                row_ids,
                sp.csr_matrix(
                    (-rows.data, rows.indices, rows.indptr),
                    shape=(rows.shape[0], width + 1),
                ),
            )

        seed = [int(i) for i in oracle.seed_ids()]
        known = set(seed)
        add_active(seed)
        for _ in range(options.max_rounds):
            probe = model.solve()
            if probe.status != LPStatus.OPTIMAL:
                raise CertificateError(
                    f"unexpected LP status {probe.status} in certificate probe"
                )
            if probe.objective >= -farkas_tolerance:
                if probe.row_duals is None:
                    raise CertificateError("the certificate probe returned no duals")
                y = np.maximum(-probe.row_duals, 0.0)
                return self.proof_from_duals(
                    targets,
                    np.concatenate([[1.0 - y[: count - 1].sum()], y[: count - 1]]),
                    model.keys(),
                    y[count - 1 :],
                    tolerance,
                )
            dense = oracle.dense_from_canonical(probe.solution[:width])
            cut_ids, _ = oracle.separate(dense, options.tolerance)
            new_ids = [int(i) for i in cut_ids if int(i) not in known]
            if not new_ids:
                # The probe point lies in Γn and makes every branch negative.
                return None
            known.update(new_ids)
            add_active(new_ids)
        raise CertificateError("certificate row generation did not converge")

    def proof_from_duals(
        self,
        targets: np.ndarray,
        weights,
        row_ids: Sequence[int],
        multipliers,
        tolerance: float = 1e-6,
    ) -> Tuple[np.ndarray, ShannonCertificate]:
        """A checked Theorem 6.1 certificate from an LP's dual multipliers.

        ``targets`` holds one row ``c_ℓ`` per branch, ``weights`` the dual
        weights ``λ`` of the branches and ``multipliers`` the duals ``µ`` of
        the elemental rows ``row_ids``.  Both the certificate loop
        (:meth:`_certificate_rowgen`) and the block LP that decides a Max-II
        (:meth:`repro.infotheory.cones.GammaCone.points_or_proofs_below_many`)
        read their certificates through here.

        ``λ`` is clipped at 0 and renormalized to sum to 1 (solver round-off
        can leave a dual a hair below 0), and only multipliers above
        ``tolerance`` enter the proof.  Where ``Σλ_ℓ c_ℓ`` exceeds the
        proof's sum on a coordinate ``h(X)`` — the dual of an LP bound
        ``h(X) ≥ 0`` rather than of an elemental row — the excess is paid
        with the elemental rows that sum to ``h(X)``
        (:meth:`~repro.lp.rowgen.ShannonRowOracle.nonnegativity_row_ids`).
        Returns ``(λ, proof)``; raises :class:`CertificateError` unless the
        proof's rows then sum to ``Σλ_ℓ c_ℓ`` within ``1e-6`` per
        coordinate (the tolerance of :meth:`ShannonCertificate.verify`).
        """
        oracle = self._oracle
        weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
        total = weights.sum()
        if total <= 0.0:
            raise CertificateError("the branch duals are all zero")
        weights = weights / total
        target = weights @ targets
        multipliers = np.asarray(multipliers, dtype=float)
        proof = {
            int(row_ids[k]): float(multipliers[k])
            for k in np.flatnonzero(multipliers > tolerance)
        }

        def residual():
            values = np.array(list(proof.values()))
            return oracle.rows_matrix(list(proof)).T @ values - target

        gap = residual()
        excess = np.flatnonzero(gap < -tolerance)
        for position in excess:
            mask = int(oracle.lattice.canon_masks[position + 1])
            for row_id in oracle.nonnegativity_row_ids(mask):
                proof[row_id] = proof.get(row_id, 0.0) - float(gap[position])
        if excess.size:
            gap = residual()
        if np.abs(gap).max(initial=0.0) > 1e-6:
            raise CertificateError(
                "the Shannon proof does not sum to the combined inequality Σ λ_ℓ E_ℓ"
            )
        masks, coeffs, kinds = oracle.row_data(list(proof))
        inequalities = materialize_elementals(self.ground, masks, coeffs, kinds)
        return weights, ShannonCertificate(
            ground=self.ground,
            multipliers=tuple(zip(inequalities, proof.values())),
        )


@lru_cache(maxsize=128)
def shannon_prover(ground: Tuple[str, ...]) -> ShannonProver:
    """A process-wide shared :class:`ShannonProver` for a ground tuple.

    Provers are stateless after construction, so sharing them is safe; the
    cache lets repeated containment checks over the same arity skip the LP
    constraint-matrix work entirely.  Bounded so processes that see many
    distinct variable-name tuples don't grow without limit.
    """
    return ShannonProver(tuple(ground))
