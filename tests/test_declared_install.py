"""The core install (numpy only) builds, serves and answers without scipy.

scipy is the ``analysis`` extra: only ``claims``, ``figures``, ``table1``
and ``report`` need it, and without it they exit 2 with one install-hint
line instead of an ``ImportError`` traceback. Each check runs the CLI in
a fresh interpreter whose ``sys.meta_path`` hook makes ``import scipy``
raise ``ImportError``, which stands in for an environment where scipy
was never installed (no network or clean virtualenv needed).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_NO_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, _NoScipy())
"""

_RUN_CLI = _NO_SCIPY + """
import runpy
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

_IMPORT_CLI = _NO_SCIPY + """
before = {m for m in sys.modules if m.split(".")[0] == "scipy"}
import repro.cli
after = {m for m in sys.modules if m.split(".")[0] == "scipy"}
print(sorted(after - before))
"""

HINT = "pip install 'repro[analysis]'"


def _python(code: str, *args: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)


def _repro(*args: str, cwd) -> subprocess.CompletedProcess:
    return _python(_RUN_CLI, *args, cwd=cwd)


def test_import_cli_loads_no_scipy(tmp_path):
    proc = _python(_IMPORT_CLI, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_hook_blocks_scipy(tmp_path):
    """Negative control: the same hook does make scipy unimportable."""
    proc = _python(_NO_SCIPY + "import scipy.stats\n", cwd=tmp_path)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr


def test_serve_help(tmp_path):
    proc = _repro("serve", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--map-json" in proc.stdout


def test_build_then_serve_artefact(tmp_path):
    artefact = tmp_path / "map.json"
    build = _repro("--scale", "small", "--map-json", str(artefact),
                   "summary", cwd=tmp_path)
    assert build.returncode == 0, build.stderr
    assert artefact.is_file()
    serve = _repro("--map-json", str(artefact), "serve", "--port", "0",
                   "--max-requests", "0", cwd=tmp_path)
    assert serve.returncode == 0, serve.stderr
    assert "serving map" in serve.stderr


@pytest.mark.parametrize("command",
                         ["claims", "figures", "table1", "report"])
def test_analysis_commands_exit_2_with_hint(tmp_path, command):
    proc = _repro(command, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert lines == [f"repro {command} needs scipy: {HINT}"]
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "itm-report.md").exists()


def test_other_commands_need_no_scipy(tmp_path):
    """Every subcommand outside the analysis set runs on the core
    install: an instrumented outage build, then the manifest tooling."""
    manifest = tmp_path / "run.json"
    history = tmp_path / "history.jsonl"
    access_log = tmp_path / "access.jsonl"
    access_log.write_text("")
    runs = [
        ("--metrics", str(manifest), "--history", str(history),
         "outage", "--top", "2"),
        ("compare", str(manifest), str(manifest)),
        ("history", "list", "--history", str(history)),
        ("history", "show", "last", "--report", "--history", str(history)),
        ("obs", "tail", str(access_log)),
    ]
    for args in runs:
        proc = _repro(*args, cwd=tmp_path)
        assert proc.returncode == 0, (args, proc.stderr)
        assert "scipy" not in proc.stderr, args
