"""flowrank benchmark: end-to-end and per-layer numbers for detect and ROC.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow-syn --seed 1 --seconds 10 --trace 0

The benchmark generates its input from the seed, runs the `flowrank` CLI
from the checkout's `src/` as a user would (one job per fresh subprocess,
one job at a time), checks every output and prints one JSON object as
the last line of stdout. `--trace 1` instead runs each job in-process,
once untraced and once under the outside-in tracer, and reports
per-layer metrics. See README.md for workloads, metrics and baselines.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402

METHODS = ("toprank", "hashrank", "full")
SETUP_REPS = 3
# the body of the `flowrank` console script
LAUNCH = "import sys; from flowrank.cli import main; sys.exit(main())"
DETECT_ALPHA = 1e-3  # detect's default --alpha
DETECT_HEADER = "window,key,method,p_value,statistic,change_bin"
ROC_HEADER = "method,threshold,fa_rate,det_rate"
THREADS = min(2, os.cpu_count() or 1)

# criterion-8 configuration of the acceptance suite
ROC_FULL = {"runs": 50, "dim": 1000, "bins": 60, "change-at": 35, "factor": 2,
            "target-rank": 100, "budget": 136, "top": 50, "rows": 8, "buckets": 17}
ROC_TINY = {"runs": 4, "dim": 200, "bins": 40, "change-at": 20, "factor": 6,
            "target-rank": 20, "budget": 40, "top": 12, "rows": 8, "buckets": 17}
CORPUS_TINY = corpus.Size(records=6000, dst_keys=1500, src_keys=600, windows=3)

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    **{f"{m}.peak_rss_mb": "MB" for m in METHODS},
}


class Job(NamedTuple):
    method: str
    argv: list  # CLI arguments of the measured run
    traced_argv: list  # same job at --threads 1, for in-process runs
    output: Path
    items: int  # input data lines (detect) or Monte Carlo runs (roc)
    data_lines: int
    check: Callable[[str], Optional[str]]  # returns a problem, or None


# ---------------------------------------------------------------- checks


def _check_detect(text: str, method: str, truth: dict, bins: int) -> Optional[str]:
    lines = text.splitlines()
    if not lines or lines[0] != DETECT_HEADER:
        return "bad alarm CSV header"
    last_window = -1
    hit = False
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 6 or f[2] != method:
            return f"bad alarm row {line!r}"
        window, key, p, stat, cb = int(f[0]), int(f[1]), float(f[3]), float(f[4]), int(f[5])
        if window < last_window or not 0 <= p < DETECT_ALPHA or stat <= 0 or not 1 <= cb <= bins:
            return f"alarm row out of range or order {line!r}"
        last_window = window
        hit |= window == truth["window"] and key == truth["key"]
    if not hit:
        return f"injected key {truth['key']} not alarmed in window {truth['window']}"
    return None


def _check_roc(text: str, method: str, cfg: dict) -> Optional[str]:
    lines = text.splitlines()
    if not lines or lines[0] != ROC_HEADER:
        return "bad ROC CSV header"
    rows = [line.split(",") for line in lines[1:]]
    mine = [tuple(map(float, r[1:])) for r in rows if r[0] == method]
    if not mine or len(mine) + sum(r[0] == "random" for r in rows) != len(rows):
        return "ROC CSV rows do not match the method"
    for (t0, fa0, det0), (t1, fa1, det1) in zip(mine, mine[1:]):
        if not (t0 < t1 and fa0 <= fa1 and det0 <= det1):
            return "ROC curve not monotone in the threshold"
    if any(not (0 <= fa <= 1 and 0 <= det <= 1) for _, fa, det in mine):
        return "ROC rate outside [0, 1]"
    cap = (cfg["budget"] - 1) / (cfg["dim"] - 1) * (1 + 1e-5)  # the CSV keeps 6 digits
    if method == "toprank" and any(fa > cap for _, fa, _ in mine):
        return "TopRank false-alarm rate above its budget cap"
    # the methods that detect the change at this config: power at a low false-alarm rate
    if method != "hashrank" and not any(det >= 0.9 and fa <= 0.06 for _, fa, det in mine):
        return "injected change not detected (det >= 0.9 at fa <= 0.06)"
    return None


def _with_digest(check, reference: Optional[dict], method: str, input_sha: Optional[str] = None):
    """Add the recorded-digest comparisons to a job check, when the seed has them."""
    if reference is None:
        return check

    def checked(text: str) -> Optional[str]:
        problem = check(text)
        if problem is None and input_sha != reference.get("input"):
            problem = "generated input differs from the recorded one"
        if problem is None and _sha(text.encode()) != reference.get(method):
            problem = "output differs from the recorded reference digest"
        return problem

    return checked


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reference(workload: str, seed: int, tiny: bool) -> Optional[dict]:
    if tiny or not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


# ------------------------------------------------------------- workloads


def _flow_jobs(kind: str, wdir: Path, seed: int, tiny: bool, reference) -> list[Job]:
    size = CORPUS_TINY if tiny else corpus.FULL
    path = wdir / f"{kind}.csv"
    truth = corpus.write(str(path), seed, kind, size)
    input_sha = _sha(path.read_bytes())
    extra = ["--metric", truth["metric"]] + (["--errors", "skip"] if kind == "scan" else [])
    jobs = []
    for m in METHODS:
        out = wdir / f"alarms_{m}.csv"
        argv = ["detect", "--input", str(path), "--method", m, "--seed", str(seed),
                "--output", str(out), *extra]
        check = _with_digest(
            lambda text, m=m: _check_detect(text, m, truth, size.bins), reference, m, input_sha)
        jobs.append(Job(m, argv, argv, out, truth["data_lines"], truth["data_lines"], check))
    return jobs


def _roc_jobs(wdir: Path, seed: int, tiny: bool, reference) -> list[Job]:
    cfg = ROC_TINY if tiny else ROC_FULL
    flags = [x for k, v in cfg.items() for x in (f"--{k}", str(v))]
    jobs = []
    for m in METHODS:
        out = wdir / f"roc_{m}.csv"
        base = ["roc", "--method", m, *flags, "--seed", str(seed), "--output", str(out)]
        check = _with_digest(lambda text, m=m: _check_roc(text, m, cfg), reference, m)
        jobs.append(Job(m, base + ["--threads", str(THREADS)], base + ["--threads", "1"],
                        out, cfg["runs"], 0, check))
    return jobs


WORKLOADS = {
    "flow-syn": lambda *a: _flow_jobs("syn", *a),
    "flow-scan": lambda *a: _flow_jobs("scan", *a),
    "roc-busy": _roc_jobs,
}


# ------------------------------------------------------------ job runners


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _tree_rss_kb(root: int) -> int:
    """Resident memory of a process and all its live descendants, in KiB."""
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat", "rb") as fh:
                    ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            kids.setdefault(ppid, []).append(int(name))
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * page_kb
        except (OSError, IndexError, ValueError):
            pass
    return total


class _TreeRssSampler(threading.Thread):
    """Samples the summed RSS of a job's process tree, so that memory of
    worker processes counts; at most ~5% of one core is spent scanning."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid, self.peak_kb, self.done = pid, 0, threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            t = time.perf_counter()
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))
            self.done.wait(max(0.1, 20 * (time.perf_counter() - t)))


def run_subprocess(argv: list, stderr_path: Path) -> tuple[float, float, float, int]:
    """Run one CLI job in a fresh interpreter: wall s, peak RSS MB, CPU s, exit code."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv], cwd=ROOT, env=_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        sampler = _TreeRssSampler(proc.pid)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            sampler.done.set()
            sampler.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_mb = max(usage.ru_maxrss, sampler.peak_kb) / 1024.0
    return wall, peak_mb, usage.ru_utime + usage.ru_stime, proc.returncode


def run_inprocess(argv: list) -> tuple[float, float, int]:
    """Run one CLI job in this interpreter: wall s, CPU s, exit code."""
    from flowrank.cli import main

    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    wall, r1 = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
    return wall, (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime), code


def _setup_probe() -> tuple[float, Optional[str]]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", LAUNCH, "--version"], cwd=ROOT, env=_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("flowrank "):
        return wall, f"--version failed: {proc.stderr.strip()[-500:]}"
    return wall, None


# ------------------------------------------------------------ measurement


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: Optional[str]) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"perfbench: FAILED {what}: {problem}", file=sys.stderr)
        return problem is None


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        return f"<unreadable: {exc}>"


def measure_untraced(jobs: list[Job], seconds: float, wdir: Path, tally: Tally) -> dict:
    setup = []
    for _ in range(SETUP_REPS):
        wall, problem = _setup_probe()
        if tally.record("flowrank --version", problem):
            setup.append(wall)
    rss: dict[str, list[float]] = {m: [] for m in METHODS}
    items = walls = 0.0
    t_start = time.perf_counter()
    while True:
        for job in jobs:
            err = wdir / f"{job.method}.stderr"
            wall, peak, cpu, code = run_subprocess(job.argv, err)
            problem = f"exit code {code}: {_read(err)[-500:]}" if code else job.check(_read(job.output))
            if tally.record(f"{job.method} job", problem):
                rss[job.method].append(peak)
                items, walls = items + job.items, walls + wall
            print(f"perfbench: {job.method:8s} wall {wall:7.3f} s  cpu {cpu:7.3f} s  "
                  f"rss {peak:7.1f} MB  {job.items / wall:10.1f} items/s", file=sys.stderr)
        if time.perf_counter() - t_start >= seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "items_per_s": items / walls if walls else 0.0,
    }
    for m in METHODS:
        metrics[f"{m}.peak_rss_mb"] = statistics.median(rss[m]) if rss[m] else 0.0
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}


def measure_traced(jobs: list[Job], seconds: float, tally: Tally) -> dict:
    sys.path.insert(0, str(SRC))
    tr = tracing.Tracer()
    per_job: dict[str, list[dict]] = {m: [] for m in METHODS}
    t_start = time.perf_counter()
    while True:
        for job in jobs:
            try:
                wall_u, cpu_u, code_u = run_inprocess(job.traced_argv)
                untraced = _read(job.output)
                tr.job_id += 1
                with tr.installed():
                    wall_t, _, code_t = run_inprocess(job.traced_argv)
                traced = _read(job.output)
            except Exception:  # a crashing job is a failed job, not a crashed benchmark
                tally.record(f"{job.method} traced job", traceback.format_exc())
                continue
            if code_u or code_t:
                problem = f"exit codes {code_u}/{code_t}"
            elif traced != untraced:
                problem = "traced output differs from the untraced output"
            else:
                problem = job.check(untraced)
            if tally.record(f"{job.method} traced job", problem):
                row = tr.job_metrics(tr.job_id, job.data_lines)
                row["job.wall_s"] = wall_u
                row["job.cpu_s"] = cpu_u
                row["trace.overhead_s"] = wall_t - wall_u
                per_job[job.method].append(row)
            print(f"perfbench: {job.method:8s} untraced {wall_u:7.3f} s  traced {wall_t:7.3f} s",
                  file=sys.stderr)
        if time.perf_counter() - t_start >= seconds:
            break
    tracing.warn_missing(tr)
    metrics = {}
    for m in METHODS:
        for name in tracing.metrics_for(m):
            values = [row[name] for row in per_job[m]]
            metrics[f"{m}.{name}"] = {
                "value": statistics.median(values) if values else 0.0,
                "unit": tracing.LAYER_METRICS[name][0],
            }
    return metrics


def record_reference(workload: str, seed: int, jobs: list[Job], wdir: Path, tally: Tally) -> None:
    """Run each job once and store its output digest for this seed."""
    entry = {}
    for job in jobs:
        if job.argv[0] == "detect":
            entry["input"] = _sha(Path(job.argv[job.argv.index("--input") + 1]).read_bytes())
        err = wdir / f"{job.method}.stderr"
        code = run_subprocess(job.argv, err)[3]
        text = _read(job.output)
        if tally.record(f"{job.method} job", f"exit code {code}" if code else job.check(text)):
            entry[job.method] = _sha(text.encode())
    if tally.failed:
        return
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    ref.setdefault(workload, {})[str(seed)] = entry
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    ap.add_argument("--record", action="store_true",
                    help="store output digests of this seed in reference.json instead of measuring")
    args = ap.parse_args(argv)
    if not (SRC / "flowrank" / "cli.py").is_file():
        print(f"perfbench: no flowrank sources under {SRC}", file=sys.stderr)
        return 2
    wdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    wdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        reference = None if args.record else _reference(args.workload, args.seed, args.tiny)
        jobs = WORKLOADS[args.workload](wdir, args.seed, args.tiny, reference)
        if args.record:
            record_reference(args.workload, args.seed, jobs, wdir, tally)
            return 1 if tally.failed else 0
        if args.trace:
            metrics = measure_traced(jobs, args.seconds, tally)
        else:
            metrics = measure_untraced(jobs, args.seconds, wdir, tally)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
