"""A row-generation block's answer does not depend on its chunk-mates.

On the row-generation path every block of a ``decide_max_ii_many`` call is
solved on its own model, so deciding an inequality inside a chunk must give
the same verdict, the same violating point, the same ``λ`` and the same
Shannon proof (multiplier for multiplier) as deciding it alone.  Checked on
the two ``n = 9`` CONTAINED pairs of the benchmark's LP catalogue, decided
as the batch engine decides them, and on random chunks at ``n = 4–6`` that
mix valid and invalid inequalities.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_paths import pin_path

from repro.core.containment import containment_pipeline
from repro.cq.parser import parse_query
from repro.infotheory.expressions import LinearExpression, MaxInformationInequality
from repro.infotheory.maxiip import decide_max_ii_many
from repro.infotheory.polymatroid import elemental_inequalities
from repro.service.engine import _canonical_ground, _rename_max_ii
from repro.workloads.generators import random_max_ii

#: The ``n = 9`` pairs of the benchmark's LP catalogue: 18 and 74 Eq. (8)
#: branches, both CONTAINED.
LP_PAIRS_N9 = (
    (
        "R(y0, y1), R(y1, y2), R(y1, y3), R(y2, y4), R(y0, y5), R(y4, y6), "
        "R(y0, y7), R(y3, y8), R(y1, y4)",
        "R(y0, y1), R(y1, y2), R(y1, y3), R(y2, y4), R(y0, y5), R(y4, y6), "
        "R(y0, y7), R(y3, y8)",
    ),
    (
        "R(y0, y1), R(y1, y2), R(y1, y3), R(y2, y4), R(y4, y5), R(y1, y6), "
        "R(y1, y7), R(y2, y8), R(y1, y8), R(y5, y7)",
        "R(y0, y1), R(y1, y2), R(y1, y3), R(y2, y4), R(y4, y5), R(y1, y6), "
        "R(y1, y7), R(y2, y8)",
    ),
)


def assert_same_answer(alone, in_chunk):
    assert alone.valid == in_chunk.valid
    assert alone.lambdas == in_chunk.lambdas
    assert alone.certificate == in_chunk.certificate
    if alone.violating_function is None:
        assert in_chunk.violating_function is None
    else:
        np.testing.assert_array_equal(
            alone.violating_function.to_vector(), in_chunk.violating_function.to_vector()
        )


def assert_chunk_mate_independent(inequalities, ground, seed="generic"):
    chunk = decide_max_ii_many(inequalities, over="gamma", ground=ground, seed=seed)
    for inequality, in_chunk in zip(inequalities, chunk):
        (alone,) = decide_max_ii_many([inequality], over="gamma", ground=ground, seed=seed)
        assert_same_answer(alone, in_chunk)
    return chunk


def test_benchmark_n9_pairs_get_their_own_proofs_in_a_chunk():
    inequalities = []
    for q1_text, q2_text in LP_PAIRS_N9:
        request = next(containment_pipeline(parse_query(q1_text), parse_query(q2_text)))
        assert request.over == "gamma" and len(request.ground) == 9
        canonical = _canonical_ground(9)
        mapping = dict(zip(request.ground, canonical))
        inequalities.append(_rename_max_ii(request.max_ii, mapping, canonical))
    assert [len(inequality.branches) for inequality in inequalities] == [18, 74]
    # The block LP runs row generation at n = 9.
    chunk = assert_chunk_mate_independent(
        inequalities, _canonical_ground(9), seed="containment"
    )
    for inequality, verdict in zip(inequalities, chunk):
        assert verdict.valid and verdict.certificate is not None
        combined = sum(
            (weight * branch for weight, branch in zip(verdict.lambdas, inequality.branches)),
            LinearExpression.zero(_canonical_ground(9)),
        )
        assert verdict.certificate.verify(combined)


def valid_max_ii(ground, rng: random.Random) -> MaxInformationInequality:
    """A valid Max-II that needs its ``λ``: ``max(V + D, V - D)``, ``V`` Shannon.

    ``V`` is a non-negative integer combination of elemental inequalities
    and ``D`` a random expression, so ``(E_1 + E_2)/2 = V ≥ 0`` on ``Γn``.
    """
    rows = elemental_inequalities(ground)
    valid = LinearExpression.zero(ground)
    for row in rng.sample(rows, 3):
        valid = valid + rng.randint(1, 2) * LinearExpression(ground, row.as_dict())
    shift = random_max_ii(len(ground), 1, seed=rng.randrange(1 << 30)).branches[0]
    shift = shift.with_ground(ground)
    return MaxInformationInequality(branches=(valid + shift, valid - shift))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=4, max_value=6),
    st.integers(min_value=0, max_value=1 << 30),
    st.lists(st.booleans(), min_size=2, max_size=5),
)
def test_random_rowgen_chunks_answer_as_blocks_alone(n, seed, shapes):
    ground = tuple(f"X{i}" for i in range(1, n + 1))
    rng = random.Random(seed)
    inequalities = [
        valid_max_ii(ground, rng)
        if valid
        else random_max_ii(n, rng.randint(1, 3), seed=rng.randrange(1 << 30))
        for valid in shapes
    ]
    with pin_path("rowgen"):
        chunk = assert_chunk_mate_independent(inequalities, ground)
    for valid, verdict in zip(shapes, chunk):
        if valid:
            assert verdict.valid
