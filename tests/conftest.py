"""Shared fixtures: the paper's running examples and small helper queries.

The terminal-summary hook reports solver-path coverage: how many ``Γn``
cone decisions ran through the dense elemental matrix vs. lazy row
generation.  The tier-1 CI job greps this line to prove that both paths
ran on every leg.
"""

from __future__ import annotations

import pytest

from repro.lp.solver import solver_path_counts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    counts = solver_path_counts()
    if not any(counts.values()):
        return
    missing = [name for name in ("dense", "rowgen") if not counts.get(name)]
    terminalreporter.write_sep("-", "solver-path coverage")
    terminalreporter.write_line(
        "solver-path coverage: "
        + ", ".join(f"{name}={counts.get(name, 0)}" for name in ("dense", "rowgen"))
        + ("" if not missing else f"  (WARNING: {', '.join(missing)} never exercised)")
    )

from repro.cq.parser import parse_query
from repro.cq.structures import Relation, Structure
from repro.infotheory.functions import parity_function
from repro.workloads.paper_examples import (
    example_3_5,
    example_3_8_inequality,
    example_5_2_inequality,
    vee_example,
)


@pytest.fixture
def triangle_query():
    """The triangle query of Example 4.3 (Q1)."""
    return parse_query("R(X1,X2), R(X2,X3), R(X3,X1)", name="triangle")


@pytest.fixture
def path2_query():
    """The length-2 path query of Example 4.3 (Q2)."""
    return parse_query("R(Y1,Y2), R(Y1,Y3)", name="path2")


@pytest.fixture
def vee_pair():
    return vee_example()


@pytest.fixture
def example_35_pair():
    return example_3_5()


@pytest.fixture
def example_38_max_ii():
    return example_3_8_inequality()


@pytest.fixture
def example_52_expression():
    return example_5_2_inequality()


@pytest.fixture
def parity():
    """The parity function on three variables (entropic, not normal)."""
    return parity_function(("X1", "X2", "X3"))


@pytest.fixture
def small_database():
    """A small database with a full binary relation on {0, 1}."""
    return Structure.from_facts(
        [("R", (0, 0)), ("R", (0, 1)), ("R", (1, 0)), ("R", (1, 1))]
    )


@pytest.fixture
def triangle_database():
    """A directed 3-cycle database."""
    return Structure.from_facts([("R", (0, 1)), ("R", (1, 2)), ("R", (2, 0))])


@pytest.fixture
def diagonal_relation():
    """The witness relation {(u,u,v,v)} of Example 3.5 with n = 2."""
    return Relation(
        attributes=("x1", "x2", "xp1", "xp2"),
        rows={(u, u, v, v) for u in range(2) for v in range(2)},
    )
