"""The separation oracle agrees with the explicit dense elemental matrix.

The oracle's row ids and row values must match an exhaustive evaluation of
:meth:`SubsetLattice.elemental_matrix` row by row — including the argmax of
the violation, the no-cut answer on points already in ``Γn`` and tied
most-violated rows — on every ground size the dense matrix is cheap to
enumerate (``n ≤ 5``).  The chain-rule expansions that closed-form proofs use name their rows by key;
their keys must sum exactly and map to the oracle's rows.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.infotheory.functions import (
    parity_function,
    step_function,
    uniform_function,
)
from repro.exceptions import LPError
from repro.lp.rowgen import (
    conditional_entropy_rows,
    key_row_data,
    mutual_information_rows,
    shannon_row_oracle,
)
from repro.utils.lattice import lattice_context

GROUNDS = {n: tuple(f"X{i}" for i in range(1, n + 1)) for n in range(1, 6)}


def dense_row_values(ground, dense_point):
    """Every elemental row's value via the materialized CSR matrix."""
    lattice = lattice_context(ground)
    canonical = dense_point[lattice.canon_masks[1:]]
    return lattice.elemental_matrix() @ canonical


def random_dense_points(ground, count, seed):
    lattice = lattice_context(ground)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dense = rng.normal(size=lattice.size)
        dense[0] = 0.0
        yield dense


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_row_count_matches_dense_matrix(n):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    assert oracle.row_count == lattice_context(ground).elemental_matrix().shape[0]


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_row_data_values_match_dense_matrix_on_random_points(n):
    # Every row, built from its masks and coefficients, takes the dense
    # matrix's value (unused slots carry mask 0, where h(∅) = 0).
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    masks, coeffs, _ = oracle.row_data(range(oracle.row_count))
    for dense in random_dense_points(ground, count=20, seed=n):
        np.testing.assert_allclose(
            (coeffs * dense[masks]).sum(axis=1),
            dense_row_values(ground, dense),
            atol=1e-12,
        )


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_one_cut_is_the_explicit_argmax(n):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    for dense in random_dense_points(ground, count=20, seed=100 + n):
        expected_values = dense_row_values(ground, dense)
        ids, values = oracle.separate(dense, 1e-9, max_cuts=1)
        if expected_values.min() >= -1e-9:
            assert ids.size == 0 and values.size == 0
            continue
        assert ids.size == 1
        assert values[0] == pytest.approx(expected_values.min(), abs=1e-12)
        assert expected_values[ids[0]] == pytest.approx(values[0], abs=1e-12)


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_separate_returns_exactly_the_violated_rows(n):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    tolerance = 1e-9
    for dense in random_dense_points(ground, count=20, seed=200 + n):
        expected_values = dense_row_values(ground, dense)
        expected_ids = set(np.nonzero(expected_values < -tolerance)[0].tolist())
        ids, values = oracle.separate(dense, tolerance, max_cuts=oracle.row_count)
        assert set(ids.tolist()) == expected_ids
        np.testing.assert_allclose(values, expected_values[ids], atol=1e-12)
        # Most-violated first.
        assert np.all(np.diff(values) >= 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda g: step_function(g, g[:1]).dense_values(),
        lambda g: uniform_function(g, max(1, len(g) - 1)).dense_values(),
        lambda g: np.zeros(1 << len(g)),
    ],
    ids=["step", "uniform-matroid", "zero"],
)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_points_in_gamma_yield_no_cut(n, build):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    dense = np.asarray(build(ground), dtype=float)
    ids, values = oracle.separate(dense, 1e-9)
    assert ids.size == 0 and values.size == 0


def test_parity_function_yields_no_cut():
    # Entropic (hence polymatroid) but outside the normal cone: a good
    # non-trivial member of Γ3.
    parity = parity_function(("X1", "X2", "X3"))
    oracle = shannon_row_oracle(parity.ground)
    ids, _ = oracle.separate(parity.dense_values(), 1e-9)
    assert ids.size == 0


def test_tied_most_violated_rows_are_all_reported():
    # A point violating every pair's empty-context submodularity equally:
    # h ≡ 0 except h(full) = 1 on n = 3 violates I(i;j) for... construct
    # instead the symmetric point h(X) = -|X|, which violates all
    # monotonicity rows h(V) - h(V\i) = -1 equally (ties) while keeping
    # submodularity values at 0.
    ground = GROUNDS[3]
    lattice = lattice_context(ground)
    oracle = shannon_row_oracle(ground)
    dense = -lattice.popcount.astype(float)
    expected_values = dense_row_values(ground, dense)
    minimum = expected_values.min()
    tied = set(np.nonzero(expected_values <= minimum + 1e-12)[0].tolist())
    assert len(tied) >= 2  # the construction really does tie
    ids, values = oracle.separate(dense, 1e-9, max_cuts=oracle.row_count)
    reported = set(ids.tolist())
    # Every tied row is violated, so all of them must be reported.
    assert tied <= reported


def test_max_cuts_keeps_the_most_violated_rows():
    ground = GROUNDS[4]
    oracle = shannon_row_oracle(ground)
    rng = np.random.default_rng(7)
    dense = rng.normal(size=1 << 4)
    dense[0] = 0.0
    all_ids, all_values = oracle.separate(dense, 1e-9, max_cuts=oracle.row_count)
    assert all_ids.size > 3
    top_ids, top_values = oracle.separate(dense, 1e-9, max_cuts=3)
    assert top_ids.size == 3
    # The 3 returned rows are the 3 most violated overall.
    np.testing.assert_allclose(top_values, all_values[:3], atol=1e-12)
    assert set(top_ids.tolist()) <= set(all_ids.tolist())


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_rows_matrix_matches_dense_matrix_rows(n):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    full = lattice_context(ground).elemental_matrix().toarray()
    rng = np.random.default_rng(n)
    ids = rng.choice(oracle.row_count, size=min(10, oracle.row_count), replace=False)
    sub = oracle.rows_matrix(ids).toarray()
    np.testing.assert_allclose(sub, full[ids], atol=0)


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_nonnegativity_rows_sum_to_the_subset_entropy(n):
    # The rows are the Shannon proof of h(X) >= 0 that certificates use to
    # pay for an LP's bound duals: they must sum to exactly h(X).
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    lattice = lattice_context(ground)
    for position, mask in enumerate(lattice.canon_masks[1:]):
        ids = oracle.nonnegativity_row_ids(int(mask))
        total = np.asarray(oracle.rows_matrix(ids).sum(axis=0)).ravel()
        expected = np.zeros(lattice.size - 1)
        expected[position] = 1.0
        np.testing.assert_array_equal(total, expected)


def entropy_vector(lattice, terms):
    """``Σ coefficient · h(mask)`` over canonical non-empty columns."""
    vector = np.zeros(lattice.size - 1)
    for mask, coefficient in terms:
        if mask:
            vector[lattice.canon_pos[mask] - 1] += coefficient
    return vector


def summed_rows(lattice, keys):
    """The sum of the rows ``keys``, built from the keys alone."""
    masks, coeffs, _ = key_row_data(lattice.n, keys)
    terms = [term for row in zip(masks, coeffs) for term in zip(*row)]
    return entropy_vector(lattice, terms)


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_conditional_entropy_rows_sum_to_the_conditional_entropy(n):
    # h(X | Y) = h(XY) - h(Y) exactly, for every X and Y (X may meet Y).
    lattice = lattice_context(GROUNDS[n])
    for x in range(lattice.size):
        for y in range(lattice.size):
            keys = list(conditional_entropy_rows(n, x, y))
            expected = entropy_vector(lattice, [(x | y, 1.0), (y, -1.0)])
            np.testing.assert_array_equal(summed_rows(lattice, keys), expected)


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_mutual_information_rows_sum_to_the_conditional_mutual_information(n):
    # Every assignment of the variables to A, B, K or none of them.
    lattice = lattice_context(GROUNDS[n])
    for code in range(4**n):
        a = b = k = 0
        for i in range(n):
            part = code // 4**i % 4
            a |= (part == 1) << i
            b |= (part == 2) << i
            k |= (part == 3) << i
        keys = list(mutual_information_rows(n, a, b, k))
        assert len(keys) == bin(a).count("1") * bin(b).count("1")
        assert all(len(key) == 3 for key in keys)  # submodularity rows only
        expected = entropy_vector(
            lattice, [(a | k, 1.0), (b | k, 1.0), (a | b | k, -1.0), (k, -1.0)]
        )
        np.testing.assert_array_equal(summed_rows(lattice, keys), expected)


def test_mutual_information_rows_need_disjoint_sets():
    with pytest.raises(LPError):
        list(mutual_information_rows(3, 0b011, 0b010))
    with pytest.raises(LPError):
        list(mutual_information_rows(3, 0b001, 0b010, given=0b011))


@pytest.mark.parametrize("n", range(1, 8))
def test_each_key_names_the_oracle_row_with_its_id(n):
    # Every elemental row's key: monotonicity (x,), then I(a ; b | K) for
    # a < b and every K holding neither.
    keys = [(x,) for x in range(n)] + [
        (a, b, context)
        for a in range(n)
        for b in range(a + 1, n)
        for context in range(1 << n)
        if not context & (1 << a | 1 << b)
    ]
    oracle = shannon_row_oracle(tuple(f"X{i}" for i in range(1, n + 1)))
    ids = [oracle.row_id(key) for key in keys]
    assert sorted(ids) == list(range(oracle.row_count))
    masks, coeffs, kinds = oracle.row_data(ids)
    key_masks, key_coeffs, key_kinds = key_row_data(n, keys)
    np.testing.assert_array_equal(masks, np.array(key_masks).reshape(-1, 4))
    np.testing.assert_array_equal(coeffs, np.array(key_coeffs).reshape(-1, 4))
    assert kinds == tuple(key_kinds)


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_seed_ids_are_monotonicity_plus_rank1_submodularity(n):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    _, _, kinds = oracle.row_data(oracle.seed_ids())
    assert kinds.count("monotonicity") == n
    assert kinds.count("submodularity") == n * (n - 1) // 2
    # The submodular seeds are exactly the unconditioned I(i;j) >= 0 rows.
    masks, coeffs, row_kinds = oracle.row_data(oracle.seed_ids())
    for row_masks, row_coeffs, kind in zip(masks, coeffs, row_kinds):
        if kind == "submodularity":
            assert row_coeffs[3] == 0.0 and row_masks[3] == 0


def reference_row(oracle, row_id):
    """``(masks, coeffs, kind)`` of one elemental row, built row by row.

    Monotonicity row ``x`` is ``h(V) - h(V - x)``; a submodularity row is
    ``I(a ; b | K) = h(Ka) + h(Kb) - h(Kab) - h(K)``, the pairs in ground
    order with contexts in canonical (size-then-lex) order.  ``h(∅)`` keeps
    its mask slot with coefficient 0.
    """
    n = oracle.n
    full = (1 << n) - 1
    if row_id < n:
        rest = full ^ (1 << row_id)
        return (full, rest, 0, 0), (1.0, -1.0 if rest else 0.0, 0.0, 0.0), "monotonicity"
    block = 1 << max(n - 2, 0)
    pair_index, position = divmod(row_id - n, block)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    a, b = pairs[pair_index]
    others = [p for p in range(n) if p not in (a, b)]
    contexts = [
        sum(1 << p for p in combo)
        for size in range(len(others) + 1)
        for combo in combinations(others, size)
    ]
    context = contexts[position]
    bit_a, bit_b = 1 << a, 1 << b
    masks = (context | bit_a, context | bit_b, context | bit_a | bit_b, context)
    return masks, (1.0, 1.0, -1.0, -1.0 if context else 0.0), "submodularity"


@pytest.mark.parametrize("n", range(1, 8))
def test_row_data_and_rows_matrix_match_a_per_row_reference(n):
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    oracle = shannon_row_oracle(ground)
    lattice = lattice_context(ground)
    rng = np.random.default_rng(n)
    # Every row id, in id order and shuffled with repeats.
    for ids in (
        np.arange(oracle.row_count),
        rng.choice(oracle.row_count, size=2 * oracle.row_count),
    ):
        masks, coeffs, kinds = oracle.row_data(ids.tolist())
        expected = [reference_row(oracle, int(row_id)) for row_id in ids]
        np.testing.assert_array_equal(masks, np.array([row[0] for row in expected]))
        np.testing.assert_array_equal(coeffs, np.array([row[1] for row in expected]))
        assert kinds == tuple(row[2] for row in expected)
        dense = np.zeros((ids.shape[0], lattice.size - 1))
        for k, (row_masks, row_coeffs, _) in enumerate(expected):
            for mask, coefficient in zip(row_masks, row_coeffs):
                if coefficient:
                    dense[k, lattice.canon_pos[mask] - 1] += coefficient
        np.testing.assert_array_equal(oracle.rows_matrix(ids).toarray(), dense)
    empty_masks, empty_coeffs, empty_kinds = oracle.row_data([])
    assert empty_masks.shape == (0, 4) and empty_coeffs.shape == (0, 4)
    assert empty_kinds == ()
    assert oracle.rows_matrix([]).shape == (0, lattice.size - 1)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_row_materialization_rejects_out_of_range_ids(n):
    oracle = shannon_row_oracle(tuple(f"X{i}" for i in range(1, n + 1)))
    for bad in ([oracle.row_count], [0, -1], [oracle.row_count + 7, 0]):
        with pytest.raises(LPError):
            oracle.row_data(bad)
        with pytest.raises(LPError):
            oracle.rows_matrix(bad)
