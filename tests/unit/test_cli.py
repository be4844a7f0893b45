"""Unit tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_structure, main
from repro.core.containment import decide_containment
from repro.cq.parser import parse_query
from repro.exceptions import ReproError


def run_cli(*argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


def test_contain_contained_pair():
    code, output = run_cli(
        "contain", "R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)"
    )
    assert code == 0
    assert "verdict : contained" in output
    assert "theorem-3.1" in output


def test_contain_refuted_pair_prints_witness():
    code, output = run_cli(
        "contain",
        "A(x1,x2), B(x1,x2), A(u1,u2), B(u1,u2)",
        "A(y1,y2), B(y1,y3)",
    )
    assert code == 0
    assert "verdict : not_contained" in output
    assert "witness" in output


def test_contain_with_method_flag():
    code, output = run_cli(
        "contain",
        "R(x1,x2), R(x2,x3), R(x3,x1)",
        "R(y1,y2), R(y1,y3)",
        "--method",
        "sufficient",
    )
    assert code == 0
    assert "sufficient-gamma" in output


def test_inspect_reports_structure():
    code, output = run_cli("inspect", "A(y1,y2), B(y1,y3), C(y4,y2)")
    assert code == 0
    assert "acyclic   : True" in output
    assert "simple junction tree : True" in output


def test_dominate_command():
    code, output = run_cli(
        "dominate", "--base", "R:0,1;1,2;2,0", "--dominating", "R:a,b;a,c"
    )
    assert code == 0
    assert "verdict : contained" in output


def test_structure_parser():
    structure = _parse_structure("R:0,1;1,2 S:a")
    assert len(structure.tuples("R")) == 2
    assert len(structure.tuples("S")) == 1
    with pytest.raises(ReproError):
        _parse_structure("no-colon-here")
    with pytest.raises(ReproError):
        _parse_structure("R:")


def test_cli_error_handling():
    code, output = run_cli("contain", "R(x,y)", "R(x)")
    assert code == 1
    assert "error:" in output


def test_batch_command_jsonl_verdicts(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(
        "# comment line\n"
        "R(x,y), R(y,z), R(z,x) | R(a,b), R(a,c)\n"
        '{"q1": "R(u,v), R(v,w), R(w,u)", "q2": "R(s,t), R(s,p)"}\n'
        "\n"
        "R(x,y), R(y,z) | S(a,b)\n"
    )
    code, output = run_cli("batch", str(pairs))
    assert code == 0
    records = [json.loads(line) for line in output.splitlines()]
    assert [r["status"] for r in records] == [
        "contained",
        "contained",
        "not_contained",
    ]
    # The JSON pair is isomorphic to the first and must fold into it.
    assert records[1]["source"] == "batch-dedup"
    assert records[2]["witness_rows"] >= 1


def test_batch_witness_rows_count_the_witness_facts(tmp_path):
    # A product witness (8 facts) and a normal witness (73 facts).
    texts = [
        ("R(x,y), R(y,z)", "R(x,y)"),
        ("R(x1,x1), R(x1,x2), R(x0,x1)", "R(y0,y1), R(y0,y2)"),
    ]
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(f"{q1} | {q2}\n" for q1, q2 in texts))
    code, output = run_cli("batch", str(pairs))
    assert code == 0
    records = [json.loads(line) for line in output.splitlines()]
    for record, (q1, q2), description in zip(records, texts, ("product", "normal")):
        witness = decide_containment(parse_query(q1), parse_query(q2)).witness
        assert witness.description.startswith(f"{description} witness")
        assert record["witness_rows"] == witness.database.total_tuples()
        assert record["witness_rows"] == len(list(witness.database.facts()))


def test_batch_command_with_knobs(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("R(x,y), R(y,z), R(z,x) | R(a,b), R(a,c)\n")
    code, output = run_cli(
        "batch", str(pairs), "--chunk-size", "4", "--method", "auto"
    )
    assert code == 0
    assert json.loads(output.splitlines()[0])["status"] == "contained"


def test_batch_command_bad_line(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("R(x,y) without separator\n")
    code, output = run_cli("batch", str(pairs))
    assert code == 1
    assert "error:" in output


def test_batch_command_empty_file(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("# nothing here\n")
    code, output = run_cli("batch", str(pairs))
    assert code == 1
    assert "error:" in output


def test_batch_command_non_string_json_values(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text('{"q1": 5, "q2": "R(x,y)"}\n')
    code, output = run_cli("batch", str(pairs))
    assert code == 1
    assert "error:" in output
    assert "query strings" in output


SRC = str(Path(__file__).resolve().parents[2] / "src")


def _cli_import_loads(module: str) -> bool:
    """Whether a fresh ``import repro.cli`` puts ``module`` in ``sys.modules``."""
    code = f"import sys, repro.cli; print({module!r} in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    out = completed.stdout.strip()
    assert out in ("True", "False"), out
    return out == "True"


def test_importing_the_cli_skips_scipy_optimize():
    # The HiGHS bindings, and with them scipy.optimize, load at the first
    # solve: daemon and fleet clients and store readers never pay for them.
    assert not _cli_import_loads("scipy.optimize")


def test_importing_the_cli_skips_the_process_executor_module():
    assert not _cli_import_loads("concurrent.futures.process")


def _run_with_closed_stdout(argv, unbuffered="", stdin_text=None):
    """Run ``repro argv`` with the read end of its stdout pipe already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered),
            input=stdin_text,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv,unbuffered,stdin_text",
    [
        (["inspect", "R(x,y), R(y,z)"], "1", None),
        (["contain", "R(x,y), R(y,z)", "R(x,y)"], "", None),
        (["batch", "-"], "", "R(x,y), R(y,z) | R(x,y)\nR(x,y) | R(x,y), R(y,z)\n"),
    ],
    ids=["inspect-unbuffered", "contain-buffered", "batch-buffered"],
)
def test_closed_stdout_ends_quietly(argv, unbuffered, stdin_text):
    # The reader is gone before the command writes (``repro ... | head``):
    # unbuffered, the first print fails; buffered, the final flush does.
    completed = _run_with_closed_stdout(argv, unbuffered, stdin_text)
    assert completed.stderr == ""
    assert completed.returncode == 141


def test_closed_stdout_ends_cache_info_quietly(tmp_path):
    # ``repro cache info --store FILE | head -5`` over a store that holds a
    # verdict: the report's lines hit a reader that has already gone.
    store = tmp_path / "verdicts.sqlite"
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("R(x,y), R(y,z) | R(x,y)\n")
    assert main(["batch", "--store", str(store), str(pairs)], out=io.StringIO()) == 0
    completed = _run_with_closed_stdout(["cache", "info", "--store", str(store)])
    assert completed.stderr == ""
    assert completed.returncode == 141
