"""No subcommand imports scipy: numpy is the only runtime dependency.

Every launch is a fresh interpreter, so a module-level import of a heavy
dependency is paid by every command. These tests run the commands in a
fresh interpreter and list the scipy modules loaded by the end; scipy is
installed only as a test reference (`tests/oracles.py`). Nor does the
launch load `numpy.random`: only the commands that draw numbers need it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowrank
from flowrank.cli import main
from flowrank.ingest import FLOW_HEADER

SRC = Path(flowrank.__file__).resolve().parents[1]

# runs `flowrank.cli.main(argv)` and prints its exit code and the scipy and
# numpy.random modules loaded
CHILD = """
import json, sys
import flowrank
from flowrank.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
random = sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random."))
print(json.dumps({"code": code, "flowrank": flowrank.__file__, "scipy": scipy, "random": random}))
"""


def run_fresh(code, argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert Path(result["flowrank"]).resolve().is_relative_to(SRC)
    return result


@pytest.fixture
def tiny_flow_csv(tmp_path):
    lines = [FLOW_HEADER]
    for i in range(40):
        t = i * 0.5
        lines.append(f"{t},{t + 0.1},{50 + i % 5},{100 + i % 4},1234,80,TCP,3,1,1,1,0")
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


SMALL_SYNTH = ["--dim", "60", "--bins", "20", "--change-at", "10", "--target-rank", "5"]
FISHER = ["fisher", "--dims", "4", "--mc", "100", "--grid", "16384"]


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["detect", "--method", "toprank"],
    ["detect", "--method", "hashrank"],
    ["detect", "--method", "full"],
    ["simulate", *SMALL_SYNTH],
    ["roc", "--runs", "1", "--budget", "10", "--top", "5", *SMALL_SYNTH],
    FISHER,
], ids=["version", "detect-toprank", "detect-hashrank", "detect-full", "simulate", "roc", "fisher"])
def test_command_does_not_import_scipy(argv, tiny_flow_csv, tmp_path):
    if argv[0] == "detect":
        argv = [*argv, "--input", str(tiny_flow_csv), "--window", "20"]
    if argv[0] != "--version":
        argv = [*argv, "--output", str(tmp_path / "out.csv")]
    result = run_fresh(CHILD, argv, tmp_path)
    assert result["code"] == 0
    assert result["scipy"] == []


@pytest.mark.parametrize("argv", [
    ["--version"],
    None,
    ["detect", "--method", "toprank"],
    ["detect", "--method", "full"],
], ids=["version", "import", "detect-toprank", "detect-full"])
def test_launch_does_not_load_numpy_random(argv, tiny_flow_csv, tmp_path):
    # numpy.random adds about 6 MB to a launch's peak RSS and time to its setup;
    # `import flowrank.cli`, `--version` and the detectors that hash no key draw
    # no numbers, so they must not load it
    if argv and argv[0] == "detect":
        argv = [*argv, "--input", str(tiny_flow_csv), "--window", "20",
                "--output", str(tmp_path / "out.csv")]
    code = CHILD if argv else CHILD.replace("code = main(sys.argv[1:])", "code = 0")
    result = run_fresh(code, argv or [], tmp_path)
    assert result["code"] == 0
    assert result["random"] == []


def test_probe_sees_scipy_when_it_is_loaded(tmp_path):
    # canary: the empty lists above mean something only if the probe can see them
    code = CHILD.replace("from flowrank.cli import main",
                         "import scipy.special, numpy.random; main = lambda argv: 0")
    result = run_fresh(code, [], tmp_path)
    assert "scipy.special" in result["scipy"] and "numpy.random" in result["random"]


def test_fisher_runs_with_scipy_blocked(tmp_path):
    # `sys.modules["scipy"] = None` makes any scipy import fail, as in a numpy-only install
    code = CHILD.replace("from flowrank.cli import main",
                         'sys.modules["scipy"] = None\nfrom flowrank.cli import main')
    result = run_fresh(code, [*FISHER, "--output", "blocked.csv"], tmp_path)
    assert result["code"] == 0
    assert main([*FISHER, "--output", str(tmp_path / "in_process.csv")]) == 0
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()


def test_every_public_name_imports():
    namespace = {}
    exec("from flowrank import *", namespace)
    assert set(flowrank.__all__) <= namespace.keys()
