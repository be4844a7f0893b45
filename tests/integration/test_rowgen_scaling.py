"""Large-arity row-generation cases (the `slow` tier).

At ``n = 10`` the dense elemental matrix (11 530 rows) is still buildable,
so the two paths, each pinned with ``tests/lp_paths.py``, can be
cross-checked directly; at ``n = 12`` (67 596 rows) the dense path is
outside the tier-1 budget and row generation, which the row count picks
there, is checked against analytically known verdicts instead.  These cases run in the
separate non-blocking CI job (``pytest -m slow``).
"""

from __future__ import annotations

import pytest
from lp_paths import pin_path

from repro.infotheory.cones import cone_by_name
from repro.infotheory.expressions import LinearExpression
from repro.infotheory.polymatroid import is_polymatroid
from repro.infotheory.shannon import ShannonProver

pytestmark = pytest.mark.slow


def ground_of(n):
    return tuple(f"X{i}" for i in range(1, n + 1))


def han_inequality(ground):
    """Σ_i h(V \\ i) - (n-1)·h(V) ≥ 0 — Shannon-valid at every n."""
    full = frozenset(ground)
    return LinearExpression(
        ground=ground,
        coefficients={
            **{full - {v}: 1.0 for v in ground},
            full: -(len(ground) - 1),
        },
    )


def invalid_inequality(ground):
    """h(1) + h(2) - 1.5·h(12) ≥ 0 fails on modular points at every n."""
    return LinearExpression(
        ground=ground,
        coefficients={
            frozenset({ground[0]}): 1.0,
            frozenset({ground[1]}): 1.0,
            frozenset({ground[0], ground[1]}): -1.5,
        },
    )


@pytest.mark.parametrize("n", [10])
def test_n10_rowgen_matches_dense(n):
    ground = ground_of(n)
    prover = ShannonProver(ground)
    for expression in (han_inequality(ground), invalid_inequality(ground)):
        with pin_path("dense"):
            dense = prover.is_valid(expression)
        with pin_path("rowgen"):
            lazy = prover.is_valid(expression)
        assert dense == lazy


@pytest.mark.parametrize("n", [12])
def test_n12_rowgen_decides_known_valid_inequality(n):
    # The invalid direction at n = 12 is covered by the feasibility test
    # below (the violating point search), so only the valid verdict — the
    # one that needs the full lower-bound early stop — runs here.
    ground = ground_of(n)
    prover = ShannonProver(ground)
    assert prover.is_valid(han_inequality(ground))


@pytest.mark.parametrize("n", [12])
def test_n12_cone_feasibility_returns_verified_point(n):
    ground = ground_of(n)
    cone = cone_by_name("gamma", ground)
    bad = invalid_inequality(ground)
    point = cone.find_point_below([bad])
    assert point is not None
    assert is_polymatroid(point.function, tolerance=1e-6)
    assert bad.evaluate(point.function) <= -1.0 + 1e-6
    good = han_inequality(ground)
    assert cone.find_point_below([good]) is None


@pytest.mark.parametrize("n", [12])
def test_n12_certificate_from_active_rows_verifies(n):
    ground = ground_of(n)
    prover = ShannonProver(ground)
    certificate = prover.certificate(han_inequality(ground))
    assert certificate is not None
    assert certificate.verify(han_inequality(ground), tolerance=1e-5)
    # The proof touches a vanishing fraction of the 67 596 elemental rows.
    assert len(certificate) < 1000
