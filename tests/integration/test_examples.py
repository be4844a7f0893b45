"""Every script in ``examples/`` runs to completion.

Each example is a scripted end-to-end tour of the library (containment,
certificates, the inequality prover, …), so a change that breaks one of the
APIs they call fails here rather than in a reader's terminal.  Each runs in
its own interpreter, from a scratch working directory, in about a second.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_all_collected():
    # An example deleted or added shows up here as an edit to this set.
    assert {path.name for path in EXAMPLES} == {
        "graph_domination.py",
        "inequality_prover.py",
        "non_shannon_frontier.py",
        "query_optimizer_check.py",
        "quickstart.py",
        "sql_plan_tour.py",
        "view_audit.py",
    }


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_exits_0(example, tmp_path):
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=source if not path else source + os.pathsep + path)
    completed = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
