"""Lazy row generation (cutting planes) for the Shannon cone ``Γn`` LP.

The explicit elemental description of ``Γn`` has ``n + C(n,2)·2^(n-2)``
rows, which the dense LP path materializes as a CSR matrix and hands to
HiGHS in full.  That is comfortable up to ``n ≈ 8–10`` but becomes the
bottleneck of every cone decision beyond it (``n = 12`` is already ~67.6k
rows, and a dense block chunk stacks one copy *per pair*).

This module makes the elemental rows *implicit*:

* :class:`ShannonRowOracle` — a vectorized separation oracle over the cached
  :class:`~repro.utils.lattice.SubsetLattice`.  Row values are computed with
  bitmask fancy-indexing on the dense ``2^n`` value vector, so finding the
  most-violated elemental inequalities of a candidate point costs one numpy
  sweep per variable pair and never materializes the ``2^n``-wide CSR.
* The cutting-plane loops :func:`minimize_lazy` and
  :func:`solve_feasibility_blocks_lazy` — each starts from a small *seed*
  row set (the ``n`` monotonicity rows plus the ``C(n,2)`` rank-1,
  empty-context submodularity rows ``I(i;j) ≥ 0``), solves the relaxation,
  asks the oracle for the most-violated rows at the relaxed optimum, and
  iterates until no elemental inequality is violated beyond tolerance.
  Each loop drives HiGHS models (:class:`~repro.lp.backends.IncrementalModel`):
  the minimization loop one, the block loop one per block.  Cuts enter
  them as rows keyed by oracle row id.  Each block re-solves warm from its
  own previous basis, so a block costs nothing once it is decided, while
  the minimization loop re-solves cold: warm dual simplex stalled on
  ``n = 12`` minimizations (see :func:`minimize_lazy`).  The certificate loop of
  :meth:`repro.infotheory.shannon.ShannonProver._certificate_rowgen` drives
  the same kind of model over the same oracle, warm.
* :func:`choose_path` — whether an LP over ``Γn`` materializes the rows
  (the dense path) or runs these loops, decided from the row count alone
  against :data:`AUTO_ROW_THRESHOLD` (sequential loops) or
  :data:`AUTO_BLOCK_ROW_THRESHOLD` (the block LP).  No caller names a path.

Soundness of the loop shapes used by the library:

* *Feasibility* (``find_point_below``): every relaxation is a superset of
  the true feasible region, so an infeasible relaxation proves the full
  system infeasible; a relaxed point with no violated elemental row lies in
  ``Γn`` and is a genuine feasible point.
* *Minimization over the slice* ``{h ∈ Γn : h(V) ≤ 1}``: the loop adds the
  valid box bound ``h(X) ≤ 1`` (implied by monotonicity and the
  normalization over the full cone) to keep every relaxation bounded; at
  termination the relaxed optimum lies in ``Γn``, and since the relaxed
  feasible set contains the true one, it is optimal for the true problem.

Termination is guaranteed because the elemental row set is finite and every
round either finishes or adds at least one *new* row (cuts are violated by
the current relaxed point, which satisfies all active rows).

Row ids follow the canonical elemental enumeration shared with
:meth:`SubsetLattice.elemental_structure` and
:func:`repro.infotheory.polymatroid.elemental_inequalities`: ids
``0 .. n-1`` are the monotonicity rows, then each ground-ordered pair
``(a, b)`` owns a block of ``2^(n-2)`` conditional mutual informations
``I(a ; b | K)`` with contexts ``K`` in canonical (size-then-lex) subset
order — so active-set rows map straight back to
:class:`~repro.infotheory.polymatroid.ElementalInequality` objects for
certificate extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import time
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import LPError
from repro.lp.backends import resolve_backend
from repro.obs.metrics import global_registry
from repro.obs.tracer import record_span
from repro.lp.solver import (
    BlockFeasibilityResult,
    FeasibilityBlock,
    LPResult,
    LPStatus,
    record_solver_path,
)
from repro.utils.lattice import SubsetLattice, lattice_context

#: :func:`choose_path` sends the sequential loops (:func:`minimize_lazy`,
#: so ``ShannonProver.is_valid`` and ``GammaCone.find_point_below``) from
#: the dense elemental matrix to row generation when the full row count
#: exceeds this threshold: ``n ≤ 8`` (1 800 rows) stays dense and ``n ≥ 9``
#: (4 617+ rows) runs row generation.  These loops re-solve cold, and at
#: ``n = 8`` row generation lost on most inputs measured on a 2-core x86 VM
#: (HiGHS 1.12 from scipy 1.17, medians of 5): the Han inequality
#: (``is_valid`` 23 ms dense, 60 ms rowgen; ``find_point_below`` 28 and
#: 55 ms) and invalid inequalities (``find_point_below`` 17–24 and
#: 54–74 ms).  It won on the benchmark's CONTAINED single branch
#: (``is_valid`` 68 and 36 ms).
AUTO_ROW_THRESHOLD = 4096

#: The same switch for the block LP (:func:`solve_feasibility_blocks_lazy`),
#: whose blocks re-solve warm, each on its own model: ``n ≤ 7`` (679 rows)
#: stays dense and ``n ≥ 8`` (1 800 rows) runs row generation.  On the same
#: VM the benchmark's ``n = 8`` block took 57 ms dense and 43 ms rowgen,
#: while at ``n = 7`` a chunk of four CONTAINED pairs took 55 ms dense and
#: 76 ms rowgen.
AUTO_BLOCK_ROW_THRESHOLD = 1024

#: Names accepted by the :attr:`RowGenOptions.seed` knob (and the
#: ``seed`` parameter of the decision layers above the LP).
SEED_NAMES = ("generic", "containment")


# --------------------------------------------------------------------- #
# Round telemetry.  Every separation round tallies into the process-wide
# metrics registry (rounds and cuts); when a tracer is active the loops
# additionally file retrospective ``rowgen-round`` spans carrying the
# solve / separation-oracle time split.  The untraced cost per round is two
# clock reads and one counter increment.
# --------------------------------------------------------------------- #
_ROWGEN_ROUNDS = global_registry().counter(
    "repro_rowgen_rounds_total",
    "Cutting-plane separation rounds.",
)
_ROWGEN_CUTS = global_registry().counter(
    "repro_rowgen_cuts_total",
    "Violated elemental rows admitted by the separation oracle.",
)


def _record_round(
    loop: str,
    round_number: int,
    round_started: float,
    oracle_started: float,
    cuts: int,
    **attributes,
) -> None:
    """File one ``rowgen-round`` span: the round's solve, then its separation."""
    now = time.perf_counter()
    record_span(
        "rowgen-round",
        round_started,
        now - round_started,
        loop=loop,
        round=round_number,
        solve_seconds=oracle_started - round_started,
        oracle_seconds=now - oracle_started,
        cuts=cuts,
        **attributes,
    )


def _separate_timed(
    oracle: "ShannonRowOracle",
    solution,
    options: "RowGenOptions",
    loop: str,
    round_number: int,
    round_started: float,
    **attributes,
):
    """Run one separation step with round telemetry; returns the cut ids.

    ``round_started`` is the clock stamp taken before the round's
    solve — the filed span covers solve plus separation, with the split in
    its attributes (plus any extra ``attributes``).
    """
    oracle_started = time.perf_counter()
    dense = oracle.dense_from_canonical(solution)
    cut_ids, scores = oracle.separate(
        dense, options.tolerance, options.max_cuts_per_round
    )
    cuts = int(cut_ids.size)
    if cuts:
        _ROWGEN_CUTS.inc(cuts)
    _record_round(loop, round_number, round_started, oracle_started, cuts, **attributes)
    return cut_ids, scores


def choose_path(row_count: int, blocks: bool = False) -> str:
    """The ``Γn`` LP path for a row family of ``row_count`` rows, tallied once.

    ``"rowgen"`` when the count exceeds the threshold of the loop that will
    solve it — :data:`AUTO_BLOCK_ROW_THRESHOLD` for the block LP
    (``blocks=True``), :data:`AUTO_ROW_THRESHOLD` for the sequential loops —
    and ``"dense"`` otherwise.  Both thresholds are read at call time.
    Every call is one decision in :func:`~repro.lp.solver.solver_path_counts`.
    """
    threshold = AUTO_BLOCK_ROW_THRESHOLD if blocks else AUTO_ROW_THRESHOLD
    path = "rowgen" if row_count > threshold else "dense"
    record_solver_path(path)
    return path


@lru_cache(maxsize=64)
def _canon_masks_for_bits(k: int) -> np.ndarray:
    """Bitmasks over ``k`` bits in canonical (size-then-lex) order."""
    masks: List[int] = []
    for size in range(k + 1):
        for combo in combinations(range(k), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            masks.append(mask)
    array = np.array(masks, dtype=np.int64)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class RowGenOptions:
    """Tuning knobs of the cutting-plane loops.

    Attributes
    ----------
    tolerance:
        A row counts as violated when its value is below ``-tolerance``.
    max_cuts_per_round:
        Most-violated rows added per round (``None`` = the oracle heuristic
        ``max(64, 4·n²)``).
    max_rounds:
        Hard iteration cap; exceeded only by a bug, since every round adds a
        new row out of a finite set.
    early_stop_objective:
        Stop as soon as the *relaxation's* optimum reaches this value.  The
        relaxed feasible set contains the true one, so its minimum is a
        lower bound on the true minimum: once it clears the threshold the
        verdict "the true minimum is ≥ this value" is already proved, and
        driving the relaxed point all the way into ``Γn`` would only burn
        rounds.  The returned solution may then violate elemental rows
        (``report.early_stopped`` is set) — callers that need a genuine cone
        point must leave this ``None``.
    seed:
        Which seed row set the loop starts from: ``"generic"`` (the ``n``
        monotonicity rows plus the ``C(n,2)`` empty-context ``I(i;j) ≥ 0``
        rows) or ``"containment"`` (monotonicity plus *every* ``|K| ≤ 1``
        submodularity row — the Eq. (8) inequalities of Theorem 3.1 are
        built from exactly these simple rows, so seeding them up front cuts
        separation rounds on containment traffic).
    """

    tolerance: float = 1e-8
    max_cuts_per_round: Optional[int] = None
    max_rounds: int = 10_000
    early_stop_objective: Optional[float] = None
    seed: str = "generic"


@dataclass(frozen=True)
class RowGenReport:
    """What a cutting-plane loop did, for stats and benchmarks.

    ``rows_used`` is the peak active row count (the seed plus every cut
    added), ``total_rows`` the size of the full elemental description the
    dense path would have materialized.  ``early_stopped`` marks a
    lower-bound early exit (see
    :attr:`RowGenOptions.early_stop_objective`): the objective value is a
    proven bound but the solution is a relaxation point, not a cone point.
    """

    rounds: int
    rows_used: int
    total_rows: int
    cuts_added: int
    early_stopped: bool = False


class ShannonRowOracle:
    """Separation oracle over the implicit elemental rows of ``Γn``.

    Obtain shared instances through :func:`shannon_row_oracle`.  All methods
    operate on *dense* value vectors of length ``2^n`` indexed by subset
    bitmask (the layout of :meth:`SetFunction.dense_values`), with
    coordinate 0 equal to 0; :meth:`dense_from_canonical` converts from the
    LP layer's canonical non-empty-subset coordinates.
    """

    __slots__ = ("lattice", "n", "row_count", "_context_block", "_pair_bits", "_pair_contexts")

    def __init__(self, lattice: SubsetLattice):
        self.lattice = lattice
        n = lattice.n
        self.n = n
        # Contexts per pair block (1 when n == 2; no pairs at all when n < 2).
        self._context_block = 1 << max(n - 2, 0)
        sub_masks = _canon_masks_for_bits(max(n - 2, 0))
        # Per ground-ordered pair (a, b): its bits, and its contexts (the
        # subsets of the other variables, canonical order) in one row.
        bits: List[Tuple[int, int]] = []
        contexts = np.zeros((n * (n - 1) // 2, self._context_block), dtype=np.int64)
        for a in range(n):
            for b in range(a + 1, n):
                others = [p for p in range(n) if p not in (a, b)]
                for i, p in enumerate(others):
                    contexts[len(bits)] |= ((sub_masks >> i) & 1) << p
                bits.append((1 << a, 1 << b))
        contexts.setflags(write=False)
        self._pair_bits = np.array(bits, dtype=np.int64).reshape(len(bits), 2)
        self._pair_contexts = contexts
        self.row_count = n + len(bits) * self._context_block

    def _pairs(self):
        """``(bit_a, bit_b, contexts)`` per pair, in row-id order."""
        return zip(
            self._pair_bits[:, 0].tolist(), self._pair_bits[:, 1].tolist(), self._pair_contexts
        )

    # ------------------------------------------------------------------ #
    # Coordinate conversion and seeds
    # ------------------------------------------------------------------ #
    def dense_from_canonical(self, x: np.ndarray) -> np.ndarray:
        """Expand canonical non-empty-subset coordinates to the dense layout."""
        dense = np.zeros(self.lattice.size)
        dense[self.lattice.canon_masks[1:]] = x
        return dense

    def seed_ids(self) -> np.ndarray:
        """The generic seed row ids: monotonicity plus empty-context ``I(i;j) ≥ 0``.

        The empty context is first in canonical subset order, so it sits at
        the start of each pair's block.
        """
        ids = list(range(self.n))
        for pair_index in range(self._pair_bits.shape[0]):
            ids.append(self.n + pair_index * self._context_block)
        return np.array(ids, dtype=np.int64)

    def containment_seed_ids(self) -> np.ndarray:
        """Monotonicity plus every ``|K| ≤ 1`` submodularity row ``I(i;j|K) ≥ 0``.

        The Eq. (8) inequalities of the Theorem 3.1 containment procedure are
        *simple* — every conditional entropy they mention has a context of
        size at most 1 — so these ``n + C(n,2)·(n-1)`` rows are the natural
        workload-aware seed.  Contexts are enumerated in canonical
        (size-then-lex) order within each pair's block, so the ``|K| ≤ 1``
        contexts are exactly the first ``min(n-1, 2^(n-2))`` positions.
        """
        ids = list(range(self.n))
        small_contexts = min(self.n - 1, self._context_block) if self.n >= 2 else 0
        for pair_index in range(self._pair_bits.shape[0]):
            base = self.n + pair_index * self._context_block
            ids.extend(range(base, base + small_contexts))
        return np.array(ids, dtype=np.int64)

    def seed_ids_for(self, seed: str) -> np.ndarray:
        """Resolve a :attr:`RowGenOptions.seed` name to seed row ids."""
        if seed == "generic":
            return self.seed_ids()
        if seed == "containment":
            return self.containment_seed_ids()
        raise LPError(
            f"unknown rowgen seed {seed!r}; expected 'generic' or 'containment'"
        )

    # ------------------------------------------------------------------ #
    # Separation
    # ------------------------------------------------------------------ #
    def _monotonicity_values(self, dense: np.ndarray) -> np.ndarray:
        full = self.lattice.full_mask
        bits = np.left_shift(1, np.arange(self.n, dtype=np.int64))
        return dense[full] - dense[full ^ bits]

    def separate(
        self,
        dense: np.ndarray,
        tolerance: float = 1e-8,
        max_cuts: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The most-violated elemental rows at a point.

        Returns ``(row_ids, values)`` sorted most-violated first, restricted
        to rows with value below ``-tolerance`` (both arrays empty when the
        point satisfies every elemental inequality — i.e. lies in ``Γn``).
        At most ``max_cuts`` rows are returned (``None`` = ``max(64, 4·n²)``).
        """
        if max_cuts is None:
            max_cuts = max(64, 4 * self.n * self.n)
        ids: List[np.ndarray] = []
        values: List[np.ndarray] = []
        mono = self._monotonicity_values(dense)
        violated = np.nonzero(mono < -tolerance)[0]
        if violated.size:
            ids.append(violated)
            values.append(mono[violated])
        offset = self.n
        for bit_a, bit_b, contexts in self._pairs():
            row_values = (
                dense[contexts | bit_a]
                + dense[contexts | bit_b]
                - dense[contexts | bit_a | bit_b]
                - dense[contexts]
            )
            violated = np.nonzero(row_values < -tolerance)[0]
            if violated.size:
                ids.append(violated + offset)
                values.append(row_values[violated])
            offset += self._context_block
        if not ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0)
        all_ids = np.concatenate(ids)
        all_values = np.concatenate(values)
        if all_ids.shape[0] > max_cuts:
            keep = np.argpartition(all_values, max_cuts - 1)[:max_cuts]
            all_ids, all_values = all_ids[keep], all_values[keep]
        order = np.argsort(all_values)
        return all_ids[order], all_values[order]

    def row_values(self, dense: np.ndarray) -> np.ndarray:
        """Every elemental row's value at a point, ordered by row id.

        Materializes the full ``row_count`` vector — meant for tests and
        diagnostics at small ``n``, not for the solving hot path.
        """
        parts = [self._monotonicity_values(dense)]
        for bit_a, bit_b, contexts in self._pairs():
            parts.append(
                dense[contexts | bit_a]
                + dense[contexts | bit_b]
                - dense[contexts | bit_a | bit_b]
                - dense[contexts]
            )
        return np.concatenate(parts)

    def most_violated(self, dense: np.ndarray) -> Tuple[int, float]:
        """The row id with the minimum value at a point, and that value.

        The value may be non-negative — then no elemental inequality is
        violated and the point lies in ``Γn``.
        """
        best_id, best_value = 0, np.inf
        mono = self._monotonicity_values(dense)
        row = int(np.argmin(mono))
        if mono[row] < best_value:
            best_id, best_value = row, float(mono[row])
        offset = self.n
        for bit_a, bit_b, contexts in self._pairs():
            row_values = (
                dense[contexts | bit_a]
                + dense[contexts | bit_b]
                - dense[contexts | bit_a | bit_b]
                - dense[contexts]
            )
            row = int(np.argmin(row_values))
            if row_values[row] < best_value:
                best_id, best_value = offset + row, float(row_values[row])
            offset += self._context_block
        return best_id, best_value

    # ------------------------------------------------------------------ #
    # Materializing rows of the active set
    # ------------------------------------------------------------------ #
    def _row_arrays(self, row_ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(masks, coeffs, monotonicity)`` for the given rows, in one vectorized pass.

        ``monotonicity`` flags the rows that are monotonicity rows; every
        other row is a submodularity row.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        outside = (row_ids < 0) | (row_ids >= self.row_count)
        if outside.any():
            raise LPError(f"elemental row id {int(row_ids[outside][0])} out of range")
        masks = np.zeros((row_ids.shape[0], 4), dtype=np.int64)
        coeffs = np.zeros((row_ids.shape[0], 4))
        monotonicity = row_ids < self.n
        # h(V) - h(V - x): the second term vanishes when V - x is empty (n = 1).
        full = self.lattice.full_mask
        rest = full ^ np.left_shift(1, row_ids[monotonicity])
        masks[monotonicity, 0] = full
        masks[monotonicity, 1] = rest
        coeffs[monotonicity, 0] = 1.0
        coeffs[monotonicity, 1] = np.where(rest != 0, -1.0, 0.0)
        # I(a ; b | K) = h(Ka) + h(Kb) - h(Kab) - h(K); h(∅) drops out.
        submodularity = ~monotonicity
        pair_index, position = np.divmod(row_ids[submodularity] - self.n, self._context_block)
        bit_a = self._pair_bits[pair_index, 0]
        bit_b = self._pair_bits[pair_index, 1]
        context = self._pair_contexts[pair_index, position]
        masks[submodularity] = np.stack(
            [context | bit_a, context | bit_b, context | bit_a | bit_b, context], axis=1
        )
        coeffs[submodularity, :3] = (1.0, 1.0, -1.0)
        coeffs[submodularity, 3] = np.where(context != 0, -1.0, 0.0)
        return masks, coeffs, monotonicity

    def row_data(
        self, row_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[str, ...]]:
        """``(masks, coeffs, kinds)`` for the given rows.

        Same layout as :meth:`SubsetLattice.elemental_structure`: ``(m, 4)``
        arrays of participating subset masks and coefficients (unused slots
        carry coefficient 0) plus a kind name per row.  Raises
        :class:`LPError` on a row id outside ``0 .. row_count - 1``.
        """
        masks, coeffs, monotonicity = self._row_arrays(row_ids)
        kinds = tuple(
            "monotonicity" if flag else "submodularity" for flag in monotonicity.tolist()
        )
        return masks, coeffs, kinds

    def nonnegativity_row_ids(self, mask: int) -> List[int]:
        """Elemental rows that sum to ``h(X)``, ``X`` the subset bitmask ``mask``.

        By the chain rule ``h(X) = Σ_i h(x_i | x_1 … x_{i-1})``, and each
        ``h(x | Y) = h(x | V∖x) + Σ_j I(x ; z_j | Y z_1 … z_{j-1})`` over the
        elements ``z_j`` of ``V ∖ xY``: one monotonicity row and
        submodularity rows.  With multiplier 1 each, the returned rows (ids
        may repeat) are a Shannon proof of ``h(X) ≥ 0``.
        """
        n = self.n
        ids: List[int] = []
        before = 0
        for x in range(n):
            if not mask >> x & 1:
                continue
            ids.append(x)
            context = before
            for z in range(n):
                if z == x or before >> z & 1:
                    continue
                a, b = min(x, z), max(x, z)
                pair_index = a * (2 * n - a - 1) // 2 + (b - a - 1)
                contexts = self._pair_contexts[pair_index]
                position = int(np.flatnonzero(contexts == context)[0])
                ids.append(n + pair_index * self._context_block + position)
                context |= 1 << z
            before |= 1 << x
        return ids

    def rows_matrix(self, row_ids: Sequence[int]) -> sp.csr_matrix:
        """A CSR matrix of the given rows over canonical non-empty columns.

        Row ``k`` of the result is elemental row ``row_ids[k]``; the column
        order matches :meth:`SetFunction.to_vector` and the LP layer.
        """
        masks, coeffs, _ = self._row_arrays(row_ids)
        nonzero = coeffs != 0.0
        rows = np.repeat(np.arange(masks.shape[0]), 4)[nonzero.ravel()]
        columns = self.lattice.canon_pos[masks[nonzero]] - 1
        return sp.csr_matrix(
            (coeffs[nonzero], (rows, columns)),
            shape=(masks.shape[0], self.lattice.size - 1),
        )

    def full_matrix(self) -> sp.csr_matrix:
        """The fully materialized elemental CSR (the dense path's matrix)."""
        return self.lattice.elemental_matrix()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShannonRowOracle(n={self.n}, rows={self.row_count})"


@lru_cache(maxsize=128)
def shannon_row_oracle(ground: Tuple[str, ...]) -> ShannonRowOracle:
    """The process-wide shared :class:`ShannonRowOracle` for a ground tuple."""
    return ShannonRowOracle(lattice_context(tuple(ground)))


def _admit(known: set, cut_ids) -> List[int]:
    """The cut ids not yet in the model, recorded in ``known`` as they enter.

    A row already in the model can still come back from separation when the
    solver satisfies it only to its own feasibility tolerance; it is not
    added twice.
    """
    entered = [int(i) for i in cut_ids if int(i) not in known]
    known.update(entered)
    return entered


def _report(
    rounds: int,
    known: set,
    seed_size: int,
    oracle: ShannonRowOracle,
    early_stopped: bool = False,
) -> RowGenReport:
    return RowGenReport(
        rounds=rounds,
        rows_used=len(known),
        total_rows=oracle.row_count,
        cuts_added=len(known) - seed_size,
        early_stopped=early_stopped,
    )


def minimize_lazy(
    objective: Sequence[float],
    oracle: ShannonRowOracle,
    A_ub=None,
    b_ub=None,
    bounds=None,
    options: Optional[RowGenOptions] = None,
) -> LPResult:
    """Minimize over ``Γn`` (implicit) intersected with ``A_ub x ≤ b_ub``.

    ``bounds`` must keep every *relaxation* bounded whenever the objective
    could otherwise recede — for the Shannon prover's slice
    ``{h : h(V) ≤ 1}`` the valid box ``0 ≤ x ≤ 1`` does it.  An unbounded
    relaxation raises :class:`LPError` (it proves nothing about the full
    problem).  The returned :class:`LPResult` carries a
    :class:`RowGenReport` in ``result.rowgen``.

    One model, holding the caller's rows plus the seed cone rows, persists
    across rounds and cuts enter through row additions, but every round
    re-solves it cold: warm dual simplex re-solves of these relaxations can
    take several times the iterations of a cold solve (at ``n = 12``,
    76 079 and 139 324 against about 20 000), enough to stall the Han
    validity decision.
    """
    options = options if options is not None else RowGenOptions()
    objective = np.asarray(objective, dtype=float)
    model = resolve_backend().incremental_model(
        objective.shape[0], objective, bounds=bounds, A_fixed=A_ub, b_fixed=b_ub
    )
    seed = [int(i) for i in oracle.seed_ids_for(options.seed)]
    model.add_rows(seed, -oracle.rows_matrix(seed))
    known = set(seed)
    seed_size = len(known)
    for round_number in range(1, options.max_rounds + 1):
        round_started = time.perf_counter()
        result = model.solve(warm=False)
        _ROWGEN_ROUNDS.inc()
        if result.status == LPStatus.UNBOUNDED:
            raise LPError(
                "row-generation relaxation is unbounded; pass bounds that are "
                "valid over the full cone (e.g. 0 <= x <= 1 on the h(V) <= 1 slice)"
            )
        report = _report(round_number, known, seed_size, oracle)
        if result.status == LPStatus.INFEASIBLE:
            # The relaxation's feasible set contains the true one.
            return LPResult(
                status=result.status, objective=None, solution=None, rowgen=report
            )
        if (
            options.early_stop_objective is not None
            and result.objective >= options.early_stop_objective
        ):
            return LPResult(
                status=result.status,
                objective=result.objective,
                solution=result.solution,
                rowgen=_report(round_number, known, seed_size, oracle, early_stopped=True),
            )
        cut_ids, _ = _separate_timed(
            oracle, result.solution, options, "minimize", round_number, round_started
        )
        entered = _admit(known, cut_ids)
        if not entered:
            return LPResult(
                status=result.status,
                objective=result.objective,
                solution=result.solution,
                rowgen=report,
            )
        model.add_rows(entered, -oracle.rows_matrix(entered))
    raise LPError("row generation did not converge within max_rounds")


def _with_slack_column(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix`` with one all-zero column appended (a block model's slack)."""
    return sp.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr),
        shape=(matrix.shape[0], matrix.shape[1] + 1),
    )


def solve_feasibility_blocks_lazy(
    blocks: Sequence[FeasibilityBlock],
    oracle: ShannonRowOracle,
    slack_threshold: float = 0.5,
    options: Optional[RowGenOptions] = None,
) -> List[BlockFeasibilityResult]:
    """Feasibility blocks with implicit elemental rows, one model per block.

    Each block is the slack LP of
    :func:`repro.lp.solver.solve_feasibility_blocks` on its own: one HiGHS
    model holding the block's columns plus its slack column, its
    ``A_hard`` (if any) and its slack-relaxed soft rows as fixed rows, and
    its active elemental rows as rows keyed by oracle row id.  The active
    rows start at the seed (materialized once per call) and grow by
    separation on the block's relaxed solution, and every re-solve is warm
    from the block's previous basis.  A block is done the round its
    relaxation becomes infeasible (slack at margin) or its relaxed point
    enters ``Γn``, and it costs nothing after that.  The
    blocks share no model, so a block's verdict, solution and duals do not
    depend on which other blocks share the call.  An infeasible block's
    result carries the duals of the solve that decided it: its soft rows'
    multipliers and its keyed rows' ``(row id, multiplier)`` pairs (see
    :class:`~repro.lp.solver.BlockFeasibilityResult`).
    """
    options = options if options is not None else RowGenOptions()
    seed = [int(row_id) for row_id in oracle.seed_ids_for(options.seed)]
    seed_rows = _with_slack_column(-oracle.rows_matrix(seed))
    return [
        _solve_block_lazy(index, block, oracle, seed, seed_rows, slack_threshold, options)
        for index, block in enumerate(blocks)
    ]


def _solve_block_lazy(
    index: int,
    block: FeasibilityBlock,
    oracle: ShannonRowOracle,
    seed: List[int],
    seed_rows: sp.csr_matrix,
    slack_threshold: float,
    options: RowGenOptions,
) -> BlockFeasibilityResult:
    """One block of :func:`solve_feasibility_blocks_lazy`, on its own model."""
    width = block.num_variables
    objective = np.zeros(width + 1)
    objective[width] = 1.0
    A_soft = sp.csr_matrix(block.A_soft)
    # The soft rows, each relaxed by the slack column (one -1 entry per row).
    fixed_parts = [
        sp.hstack([A_soft, sp.csr_matrix(-np.ones((A_soft.shape[0], 1)))], format="csr")
    ]
    rhs_parts = [np.asarray(block.b_soft, dtype=float)]
    soft_start = 0
    if block.A_hard is not None:
        A_hard = sp.csr_matrix(block.A_hard)
        fixed_parts.insert(0, _with_slack_column(A_hard))
        rhs_parts.insert(0, np.asarray(block.b_hard, dtype=float))
        soft_start = A_hard.shape[0]
    fixed_rows = soft_start + A_soft.shape[0]
    model = resolve_backend().incremental_model(
        width + 1,
        objective,
        bounds=(0, None),
        A_fixed=sp.vstack(fixed_parts, format="csr"),
        b_fixed=np.concatenate(rhs_parts),
    )
    model.add_rows(seed, seed_rows)
    known = set(seed)
    for round_number in range(1, options.max_rounds + 1):
        round_started = time.perf_counter()
        result = model.solve()
        _ROWGEN_ROUNDS.inc()
        if result.status != LPStatus.OPTIMAL:
            # The slack LP is always feasible and bounded below by 0.
            raise LPError(f"block feasibility program failed: {result.status}")
        slack = float(result.solution[width])
        if slack >= slack_threshold:
            _record_round(
                "blocks", round_number, round_started, time.perf_counter(), 0, block=index
            )
            soft_duals = lazy_duals = None
            if result.row_duals is not None:
                soft_duals = -result.row_duals[soft_start:fixed_rows]
                keyed = result.row_duals[fixed_rows:]
                binding = np.flatnonzero(keyed < 0.0)
                lazy_duals = tuple(
                    zip(
                        np.asarray(model.keys())[binding].tolist(),
                        (-keyed[binding]).tolist(),
                    )
                )
            return BlockFeasibilityResult(
                feasible=False,
                solution=None,
                slack=slack,
                rows_used=len(known),
                soft_duals=soft_duals,
                lazy_duals=lazy_duals,
            )
        solution = np.asarray(result.solution[:width])
        cut_ids, _ = _separate_timed(
            oracle, solution, options, "blocks", round_number, round_started, block=index
        )
        entered = _admit(known, cut_ids)
        if not entered:
            return BlockFeasibilityResult(
                feasible=True, solution=solution, slack=slack, rows_used=len(known)
            )
        model.add_rows(entered, _with_slack_column(-oracle.rows_matrix(entered)))
    raise LPError("block row generation did not converge within max_rounds")


__all__ = [
    "AUTO_ROW_THRESHOLD",
    "AUTO_BLOCK_ROW_THRESHOLD",
    "RowGenOptions",
    "RowGenReport",
    "ShannonRowOracle",
    "shannon_row_oracle",
    "choose_path",
    "minimize_lazy",
    "solve_feasibility_blocks_lazy",
    "record_solver_path",
    "SEED_NAMES",
]
