"""The docs checker rejects ``--flags`` the named CLI command does not accept."""

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
        "python -m repro daemon run|start --chunk-size 4 --warmup\n"
        "python -m repro batch pairs.txt --chunk-size 4 --jobs 4 --stats\n"
    )
    assert docs_check.cli_errors(text, top, nested) == [
        "2: docs give 'repro batch' the flag '--jobs', which it does not accept"
    ]
