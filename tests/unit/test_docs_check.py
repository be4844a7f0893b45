"""The docs checker rejects CLI flags, scripts and module names that do not exist."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "docs_check.py"


def load_docs_check():
    spec = importlib.util.spec_from_file_location("docs_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unknown_flag_after_a_command_is_reported():
    docs_check = load_docs_check()
    top, nested = docs_check.parser_commands()
    text = (
        "python -m repro daemon run|start --budget 4 --warmup\n"
        "python -m repro batch pairs.txt --budget 4 --jobs 4 --stats\n"
    )
    assert docs_check.cli_errors(text, top, nested) == [
        "2: docs give 'repro batch' the flag '--jobs', which it does not accept"
    ]


def test_a_command_running_a_missing_script_is_reported():
    docs_check = load_docs_check()
    text = (
        "PYTHONPATH=src python scripts/bench_rowgen.py --sizes 6\n"
        "BENCH_5 came from `retired/bench_obs.py`, now deleted.\n"
        "python -m pytest -q tests/unit/test_docs_check.py::test_x\n"
        "`python3 retired/run_all.py --fast` and `pytest retired/test_y.py`\n"
    )
    assert docs_check.script_errors(text) == [
        "4: docs run 'retired/run_all.py', which does not exist",
        "4: docs run 'retired/test_y.py', which does not exist",
    ]


def test_a_module_name_that_does_not_resolve_is_reported():
    docs_check = load_docs_check()
    text = (
        "`repro.lp.rowgen.choose_path(row_count)` picks a path; see `repro.service`.\n"
        "`repro.analysis` profiled relations; `repro.infotheory.CounterexampleSearcher`.\n"
        "`repro.obs.metrics.MetricsRegistry.counter` and `repro.lp.solver.SLACK_THRESHOLD`.\n"
        "`repro.lp.rowgen.ShannonRowOracle.most_violated(dense)`, in `repro` or repro.gone\n"
    )
    assert docs_check.name_errors(text) == [
        "2: docs name 'repro.analysis', which does not resolve",
        "2: docs name 'repro.infotheory.CounterexampleSearcher', which does not resolve",
        "4: docs name 'repro.lp.rowgen.ShannonRowOracle.most_violated', which does not resolve",
    ]


@pytest.mark.parametrize(
    "doc",
    [
        "README.md",
        "docs/architecture.md",
        "docs/operations.md",
        ".claude/skills/verify/SKILL.md",
    ],
)
def test_every_module_name_in_a_checked_doc_resolves(doc):
    docs_check = load_docs_check()
    assert doc in docs_check.NAME_CHECKED_DOCS
    text = (docs_check.REPO_ROOT / doc).read_text()
    assert docs_check.NAME_RE.search(text), "the doc names no repro module"
    assert docs_check.name_errors(text) == []
