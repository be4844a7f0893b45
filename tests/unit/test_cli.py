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
from repro.store import VerdictStore


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
    code, output = run_cli("batch", str(pairs), "--budget", "30", "--method", "auto")
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


@pytest.mark.parametrize(
    "argv,named",
    [
        (["batch", "{tmp}/missing.txt"], "missing.txt: No such file"),
        (["batch", "{tmp}/pairs.txt", "--stats-json", "{tmp}/no/s.json"], "no/s.json"),
        (
            ["batch", "{tmp}/pairs.txt", "--store", "{tmp}/s.sqlite"]
            + ["--trace", "{tmp}/no/t.jsonl"],
            "no/t.jsonl: No such file",
        ),
        (["trace", "summarize", "{tmp}/missing.jsonl"], "missing.jsonl: No such file"),
        (["trace", "summarize", "{tmp}/spans.jsonl"], "spans.jsonl: line 2 is not"),
        (
            ["cache", "import", "--store", "{tmp}/s.sqlite", "{tmp}/missing.jsonl"],
            "missing.jsonl: No such file",
        ),
    ],
    ids=[
        "batch-missing",
        "batch-stats-json",
        "batch-trace",
        "trace-missing",
        "trace-not-json",
        "import",
    ],
)
def test_file_errors_end_in_one_error_line(tmp_path, argv, named):
    (tmp_path / "pairs.txt").write_text("R(x,y), R(y,z) | R(x,y)\n")
    (tmp_path / "spans.jsonl").write_text(
        '{"span": 1, "parent": null, "name": "batch", "start": 0.0, "duration": 1.0}\n'
        "not json\n"
    )
    code, output = run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 1
    # One line and no verdicts: an unwritable --stats-json or --trace fails
    # before solving, so no store is created either.
    assert output.startswith("error: ") and output.count("\n") == 1
    assert named in output
    assert not (tmp_path / "s.sqlite").exists()


@pytest.mark.parametrize("command", ["info", "verify", "export", "compact"])
def test_cache_commands_refuse_a_missing_store(tmp_path, command):
    store = tmp_path / "typo" / "v.sqlite"
    code, output = run_cli("cache", command, "--store", str(store))
    assert (code, output) == (1, f"error: no verdict store at {store}\n")
    assert not store.parent.exists()


def test_soak_refuses_an_unwritable_report_before_it_runs(tmp_path, monkeypatch):
    def must_not_run(options):
        raise AssertionError("the soak ran before its report path was checked")

    monkeypatch.setattr("repro.obs.soak.run_soak", must_not_run)
    report = tmp_path / "no" / "r.json"
    code, output = run_cli("soak", "--report", str(report))
    assert (code, output) == (1, f"error: {report}: No such file or directory\n")


def _export_with_bad_line(tmp_path, bad_line):
    """A one-record export followed by a line that is not JSON or fails validation."""
    source = tmp_path / "a.sqlite"
    pairs, exported = tmp_path / "pairs.txt", tmp_path / "records.jsonl"
    pairs.write_text("R(x,y), R(y,z) | R(x,y)\n")
    assert run_cli("batch", "--store", str(source), str(pairs))[0] == 0
    assert run_cli("cache", "export", "--store", str(source), str(exported))[0] == 0
    [line] = exported.read_text().splitlines()
    if bad_line == "not-json":
        last = "not json"
    else:
        last = json.dumps(dict(json.loads(line), hash="0" * 16))
    exported.write_text(f"{line}\n{last}\n")
    return exported


@pytest.mark.parametrize("bad_line", ["not-json", "hash-mismatch"])
def test_cache_import_commits_nothing_from_a_bad_file(tmp_path, bad_line):
    exported = _export_with_bad_line(tmp_path, bad_line)
    target = tmp_path / "b.sqlite"
    VerdictStore(str(target)).close()
    code, output = run_cli("cache", "import", "--store", str(target), str(exported))
    assert code == 1
    assert output.startswith(f"error: {exported}: import line 2")
    assert output.count("\n") == 1
    code, output = run_cli("cache", "info", "--store", str(target))
    assert code == 0 and json.loads(output)["entries"] == 0


@pytest.mark.parametrize("bad_line", ["not-json", "hash-mismatch"])
def test_failed_cache_import_leaves_no_new_store(tmp_path, bad_line):
    exported = _export_with_bad_line(tmp_path, bad_line)
    target = tmp_path / "new" / "b.sqlite"
    code, output = run_cli("cache", "import", "--store", str(target), str(exported))
    assert code == 1 and output.startswith(f"error: {exported}: import line 2")
    assert not target.parent.exists()


def test_cache_import_creates_a_missing_store(tmp_path):
    source, target = tmp_path / "a.sqlite", tmp_path / "new" / "b.sqlite"
    pairs, exported = tmp_path / "pairs.txt", tmp_path / "records.jsonl"
    pairs.write_text("R(x,y), R(y,z) | R(x,y)\n")
    assert run_cli("batch", "--store", str(source), str(pairs))[0] == 0
    assert run_cli("cache", "export", "--store", str(source), str(exported))[0] == 0
    code, output = run_cli("cache", "import", "--store", str(target), str(exported))
    assert (code, output) == (0, "imported 1 records, skipped 0 already present\n")
    assert run_cli("cache", "verify", "--store", str(target))[0] == 0


SRC = str(Path(__file__).resolve().parents[2] / "src")


def _cli_import_loads(*modules: str) -> list:
    """Those of ``modules`` that a fresh ``import repro.cli`` puts in ``sys.modules``."""
    code = (
        "import json, sys, repro.cli; "
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_importing_the_cli_skips_scipy_optimize():
    # The HiGHS bindings, and with them scipy.optimize, load at the first
    # solve: daemon and fleet clients and store readers never pay for them.
    assert not _cli_import_loads("scipy.optimize")


def test_importing_the_cli_skips_the_process_executor_module():
    assert not _cli_import_loads("concurrent.futures.process")


def test_importing_the_cli_skips_the_tools_no_command_runs():
    # The non-Shannon tools and the group-entropy construction load only
    # where they are imported by name; the other two modules are gone.
    assert _cli_import_loads(
        "repro.analysis",
        "repro.infotheory.counterexample",
        "repro.infotheory.copy_lemma",
        "repro.infotheory.group_entropy",
    ) == []


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
