"""The smoke scripts remove their scratch directory after PASS and keep it on a failure.

``scripts/daemon_smoke.py`` and ``scripts/fleet_smoke.py`` run their checks
in a fresh ``tempfile.mkdtemp`` directory (stores, sockets and logs).  The
checks themselves are replaced here by a stub, so no daemon is started.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
NAMES = ("daemon_smoke", "fleet_smoke")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_the_scratch_directory_is_removed_after_pass(name, tmp_path, monkeypatch, capsys):
    script = load_script(name)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    used = []

    def smoke(scratch):
        (scratch / "store.sqlite").write_text("")
        used.append(scratch)

    monkeypatch.setattr(script, "smoke", smoke)
    assert script.main() == 0
    assert [path.parent for path in used] == [tmp_path]
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out.splitlines()[-1].endswith(": PASS")


@pytest.mark.parametrize("name", NAMES)
def test_a_failure_keeps_the_scratch_directory_and_prints_its_path(
    name, tmp_path, monkeypatch, capsys
):
    script = load_script(name)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    used = []

    def smoke(scratch):
        (scratch / "daemon.log").write_text("replica 0 up\n")
        used.append(scratch)
        script.fail("the replay disagreed")

    monkeypatch.setattr(script, "smoke", smoke)
    with pytest.raises(SystemExit) as raised:
        script.main()
    assert raised.value.code == 1
    (scratch,) = used
    assert (scratch / "daemon.log").read_text() == "replica 0 up\n"
    captured = capsys.readouterr()
    assert "FAIL: the replay disagreed" in captured.err
    assert f"scratch directory kept at {scratch}" in captured.err
    assert "PASS" not in captured.out
