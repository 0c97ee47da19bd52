"""Self-tests of the benchmark; run with `python3 -m pytest perfbench/tests/selftest.py`.

They use tiny inputs (`run.py --tiny`), so they check the machinery, not
the measured numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = run.CORPUS_TINY


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("kind", ["syn", "scan"])
def test_corpus_is_deterministic_in_the_seed(tmp_path, kind):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    truth_a = corpus.write(str(a), 7, kind, TINY)
    truth_b = corpus.write(str(b), 7, kind, TINY)
    corpus.write(str(c), 8, kind, TINY)
    assert a.read_bytes() == b.read_bytes()
    assert Path(f"{a}.truth.json").read_bytes() == Path(f"{b}.truth.json").read_bytes()
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == corpus.HEADER
    assert len(lines) - 1 == truth_a["data_lines"]
    assert (truth_a["malformed"] > 0) == (kind == "scan")
    assert truth_a == truth_b


def test_corpus_malformed_lines_are_rejected_by_the_parser(tmp_path):
    from flowrank.ingest import iter_flow_csv

    path = tmp_path / "scan.csv"
    truth = corpus.write(str(path), 3, "scan", TINY)
    records = sum(1 for _ in iter_flow_csv(str(path), errors="skip"))
    assert records == truth["data_lines"] - truth["malformed"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tracer_leaves_outputs_unchanged(tmp_path, workload):
    jobs = run.WORKLOADS[workload](tmp_path, 5, True, None)
    tr = tracing.Tracer()
    for job in jobs:
        assert run.run_inprocess(job.traced_argv)[2] == 0
        untraced = job.output.read_bytes()
        tr.job_id += 1
        with tr.installed():
            assert run.run_inprocess(job.traced_argv)[2] == 0
        assert job.output.read_bytes() == untraced
        assert job.check(untraced.decode()) is None
        metrics = tr.job_metrics(tr.job_id, job.data_lines)
        assert metrics["ranktest.series_tested"] > 0
    assert not tr.missing
    # every wrapped attribute is back to the original function
    import importlib

    for module_name, attr, _ in tracing.SITES:
        fn = getattr(importlib.import_module(f"flowrank.{module_name}"), attr)
        assert not hasattr(fn, "__wrapped__"), f"{module_name}.{attr} still wrapped"


def test_checks_reject_a_missed_anomaly_and_a_changed_digest(tmp_path):
    jobs = run.WORKLOADS["flow-syn"](tmp_path, 5, True, None)
    assert run.run_inprocess(jobs[0].traced_argv)[2] == 0
    text = jobs[0].output.read_text()
    assert jobs[0].check(text) is None
    header_only = text.splitlines()[0] + "\n"
    assert "not alarmed" in jobs[0].check(header_only)
    strict = run._with_digest(jobs[0].check, {"toprank": "0" * 64}, "toprank")
    assert "digest" in strict(text)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_exactly_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3, proc.stderr
    declared = _spec()["end_to_end" if trace == "0" else "per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_runner_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {d["name"]: d["unit"] for d in spec["end_to_end"]} == run.E2E_UNITS
    expected = {f"{m}.{n}": tracing.LAYER_METRICS[n][0]
                for m in run.METHODS for n in tracing.metrics_for(m)}
    assert {d["name"]: d["unit"] for d in spec["per_layer"]} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "flow-syn", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
