"""The docs checker rejects CLI flags and scripts that do not exist."""

import importlib.util
from pathlib import Path

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
