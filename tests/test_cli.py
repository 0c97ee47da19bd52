import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import generate as oracle_generate

import flowrank
from flowrank import cli, evaluate, ingest
from flowrank.cli import main
from flowrank.ingest import FLOW_HEADER
from flowrank.synth import SynthConfig


@pytest.fixture
def flow_csv(tmp_path):
    lines = [FLOW_HEADER]
    # background chatter to three addresses
    t = 0.0
    for i in range(120):
        t = i * 0.5
        dst = 100 + (i % 3)
        lines.append(f"{t},{t + 0.1},{50 + i % 7},{dst},1234,80,TCP,3,1,1,1,0")
    # a SYN surge to key 200 in the second half of the minute
    for i in range(200):
        t = 30.0 + (i % 30)
        lines.append(f"{t},{t + 0.1},{60 + i % 11},200,1234,80,TCP,20,18,1,1,0")
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_alarm_keys(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "window,key,method,p_value,statistic,change_bin"
    return [int(row.split(",")[1]) for row in lines[1:]]


def test_detect_toprank_finds_surge(flow_csv, tmp_path):
    out = tmp_path / "alarms.csv"
    rc = main([
        "detect", "--input", str(flow_csv), "--output", str(out),
        "--metric", "syn", "--method", "toprank",
        "--delta", "1", "--window", "60", "--top", "10", "--keep", "2",
        "--alpha", "1e-3",
    ])
    assert rc == 0
    assert 200 in read_alarm_keys(out)
    manifest = json.loads((tmp_path / "alarms.csv.manifest.json").read_text())
    assert manifest["command"] == "detect"
    assert manifest["parameters"]["alpha"] == 1e-3


def test_detect_methods_share_surge(flow_csv, tmp_path):
    for method in ("hashrank", "full"):
        out = tmp_path / f"{method}.csv"
        rc = main([
            "detect", "--input", str(flow_csv), "--output", str(out),
            "--method", method, "--alpha", "1e-3", "--seed", "5",
        ])
        assert rc == 0
        assert 200 in read_alarm_keys(out)


def test_detect_rejects_malformed_data(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(FLOW_HEADER + "\n1.5,1.0,1,2,3,4,TCP,1,0,0,0,0\n")
    out = tmp_path / "alarms.csv"
    rc = main(["detect", "--input", str(bad), "--output", str(out)])
    assert rc == 2


def test_detect_skip_policy_recovers(tmp_path):
    ok = tmp_path / "ok.csv"
    ok.write_text(
        FLOW_HEADER + "\njunk\n0.0,0.1,1,2,3,4,TCP,5,2,1,1,1\n"
    )
    out = tmp_path / "alarms.csv"
    rc = main(["detect", "--input", str(ok), "--output", str(out), "--errors", "skip"])
    assert rc == 0


def test_detect_skip_reports_counts_by_reason(flow_csv, tmp_path, capsys):
    text = flow_csv.read_text().splitlines()
    bad = [
        "1,2,3",
        "x,0.1,1,2,3,4,TCP,5,2,1,1,1",
        "0.0,0.1,1,2,3,4,ICMP,5,0,0,0,0",
        "0.0,0.1,1,2,3,4,TCP,5,100000000000000000000,0,0,0",
        "0.0,0.1,1,2,3,4,UDP,5,1,0,0,0",
    ]
    noisy = tmp_path / "noisy.csv"
    noisy.write_text("\n".join(text[:5] + bad + text[5:]) + "\n")
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        capsys.readouterr()
        rc = main(["detect", "--input", str(noisy), "--output", str(out), "--errors", "skip"])
        assert rc == 0
        err = capsys.readouterr().err
        assert err == ("flowrank: skipped 5 bad lines "
                       "(field count 1, flags 1, number 1, protocol 1, range 1)\n")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    clean = tmp_path / "clean.csv"
    assert main(["detect", "--input", str(flow_csv), "--output", str(clean)]) == 0
    assert clean.read_bytes() == outputs[0]
    assert "skipped" not in (tmp_path / "a.csv.manifest.json").read_text()
    assert main(["detect", "--input", str(flow_csv), "--output", str(clean),
                 "--errors", "skip"]) == 0
    assert capsys.readouterr().err == "flowrank: skipped 0 bad lines\n"


@pytest.mark.parametrize("syn", ["100000000000000000000", "9223372036854775807"])
def test_detect_counter_overflow_is_a_data_error(tmp_path, capsys, syn):
    # two records in one bin whose SYN sum would wrap int64
    rows = [f"0.0,0.1,1,2,3,4,TCP,{syn},{syn},0,0,0"] * 2 + ["1.0,1.1,1,2,3,4,TCP,5,2,0,0,0"]
    flows = tmp_path / "flows.csv"
    flows.write_text("\n".join([FLOW_HEADER] + rows) + "\n")
    out = tmp_path / "alarms.csv"
    assert main(["detect", "--input", str(flows), "--output", str(out)]) == 2
    assert "line 2: packets=" in capsys.readouterr().err
    assert main(["detect", "--input", str(flows), "--output", str(out), "--errors", "skip"]) == 0
    assert "skipped 2 bad lines (range 2)" in capsys.readouterr().err


def test_detect_dense_bad_count_is_a_data_error(tmp_path, capsys):
    dense = tmp_path / "dense.csv"
    # a bad truth line, too, is a data error and not a traceback
    for text, where in (("key,bin,count\n1,1,100000000000000000000\n", "line 2:"),
                        ("# truth:a=1\nkey,bin,count\n1,1,1\n", "line 1:")):
        dense.write_text(text)
        rc = main(["detect", "--input", str(dense), "--format", "dense",
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 2
        assert where in capsys.readouterr().err


def test_detect_missing_input_is_data_error(tmp_path):
    rc = main(["detect", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "o.csv")])
    assert rc == 2


def test_usage_error_exit_code(flow_csv, tmp_path, capsys, monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("a fisher option value must be checked before any estimate runs")

    def no_generate(*args, **kwargs):
        raise AssertionError("a synthetic option value must be checked before any data is drawn")

    monkeypatch.setattr(cli, "estimate_info_max", no_estimate)
    monkeypatch.setattr(cli, "estimate_info_sum", no_estimate)
    monkeypatch.setattr(cli, "generate", no_generate)
    monkeypatch.setattr(evaluate, "generate", no_generate)
    for argv in (
        ["detect", "--method", "bogus", "--input", "x"],
        ["detect", "--input", "x", "--threads", "2"],  # detect has no --threads
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
    # parameter values the configuration rejects are usage errors too
    out = str(tmp_path / "out.csv")
    for extra in (
        ["detect", "--alpha", "2"],
        ["detect", "--top", "0"],
        ["detect", "--keep", "11", "--top", "10"],
        ["detect", "--delta", "nan"],
        ["detect", "--delta", "inf"],
        ["simulate", "--bins", "1"],
        ["roc", "--factor", "0"],
        # non-finite synthetic parameters
        ["simulate", "--factor", "nan"],
        ["roc", "--factor", "inf"],
        ["simulate", "--pareto-shape", "nan"],
        ["roc", "--pareto-shape", "inf"],
        ["roc", "--pareto-scale", "nan"],
        ["simulate", "--pareto-scale", "inf"],
        # dense input is read whole: there is no skip policy
        ["detect", "--format", "dense", "--errors", "skip"],
        # count options are checked before any input is read
        ["detect", "--budget", "0"],
        ["detect", "--method", "hashrank", "--rows", "0"],
        ["detect", "--method", "hashrank", "--buckets", "1"],
        ["roc", "--runs", "0"],
        ["roc", "--threads", "0"],
        ["detect", "--seed", "-1"],
        ["roc", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
        ["fisher", "--seed", "-1"],
        ["roc", "--dim", "0"],
        # p-value grids: finite, in [0, 1], ascending; dimensions of at least 2
        ["roc", "--thresholds", "nan"],
        ["roc", "--thresholds", "2"],
        ["roc", "--thresholds", "-1"],
        ["roc", "--thresholds", "inf"],
        ["roc", "--thresholds", "0.5,0.1"],
        ["roc", "--thresholds", "abc"],
        ["roc", "--thresholds", ","],
        ["fisher", "--dims", "0"],
        ["fisher", "--dims", "1"],
        ["fisher", "--dims", "x"],
        ["fisher", "--dims", "16,2.5"],
        ["fisher", "--theta", "1.5"],
        ["fisher", "--theta", "0"],
        ["fisher", "--mc", "1"],
        ["fisher", "--grid", "1000"],
        ["fisher", "--dtheta-frac", "2"],
        ["fisher", "--dtheta-frac", "0"],
    ):
        io_args = ["--input", str(flow_csv)] if extra[0] == "detect" else []
        assert main([*extra, *io_args, "--output", out]) == 1, extra
        assert "flowrank: error:" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["simulate", "--dim", "0", "--output", out]) == 0  # an empty dataset
    # even when the input has no window to spend the budget on
    empty = tmp_path / "empty.csv"
    empty.write_text(FLOW_HEADER + "\n")
    for bad, message in ((["--budget", "0"], "--budget must be at least 1"),
                         (["--seed", "-1"], "--seed must be at least 0")):
        assert main(["detect", "--input", str(empty), "--output", out, *bad]) == 1
        assert message in capsys.readouterr().err
    # a bin length float64 cannot resolve at the data's timestamps is a data error:
    # 1e-300 s anywhere, a 2 ns window near t = 1.7e9 (one ulp there is 238 ns)
    late = tmp_path / "late.csv"
    late.write_text(FLOW_HEADER + "\n1700000000,1700000000.1,1,2,3,4,TCP,3,1,1,1,0"
                    "\n1700000001,1700000001.1,1,2,3,4,TCP,3,1,1,1,0\n")
    for source, delta in ((flow_csv, ["--delta", "1e-300"]), (late, ["--delta", "1e-9", "--window", "2"])):
        assert main(["detect", "--input", str(source), "--output", out, *delta]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
    # near t = 60 it resolves; records on a window edge are binned, not rejected
    assert main(["detect", "--input", str(flow_csv), "--output", out, "--delta", "1e-9", "--window", "2"]) == 0


# valid options whose values fail deep inside a draw or a quadrature
VALUE_FAULTS = {
    "simulate": ["--dim", "50", "--target-rank", "5", "--factor", "1e300"],
    "roc": ["--runs", "1", "--dim", "50", "--target-rank", "5", "--pareto-scale", "1e-300"],
    "fisher": ["--dims", "2", "--theta", "1e-9", "--grid", "16384", "--mc", "100"],
}


@pytest.mark.parametrize("command", sorted(VALUE_FAULTS))
def test_value_fault_without_input_is_a_usage_error(tmp_path, capsys, command):
    # only detect reads input, so whatever simulate, roc or fisher rejects is an option value
    argv = [command, *VALUE_FAULTS[command]]
    path = [str(Path(flowrank.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name in ("in_process", "warnings_as_errors"):
        out = tmp_path / name / "out.csv"
        out.parent.mkdir()
        if name == "in_process":
            code, err = main([*argv, "--output", str(out)]), capsys.readouterr().err
        else:
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "flowrank.cli", *argv, "--output", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            code, err = proc.returncode, proc.stderr
        assert code == 1, err
        assert len(err.splitlines()) == 1 and err.startswith("flowrank: error: "), err
        assert list(out.parent.iterdir()) == []


SMALL_RUNS = {
    "detect": ["--alpha", "0.5"],
    "roc": ["--runs", "1", "--dim", "30", "--bins", "12", "--change-at", "6",
            "--target-rank", "3", "--budget", "8", "--top", "4", "--method", "toprank"],
    "fisher": ["--dims", "4", "--mc", "100", "--grid", "16384"],
    "simulate": ["--dim", "20", "--bins", "10", "--change-at", "5", "--target-rank", "2"],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_rerun_overwrites_longer_outputs(flow_csv, tmp_path, command, capsys):
    argv = [command, *SMALL_RUNS[command]]
    if command == "detect":
        argv += ["--input", str(flow_csv)]
    out = tmp_path / "out.csv"
    manifest = tmp_path / "out.csv.manifest.json"
    assert main([*argv, "--output", str(out)]) == 0
    want = out.read_bytes(), manifest.read_bytes()
    inodes = out.stat().st_ino, manifest.stat().st_ino
    for path, text in zip((out, manifest), want):
        path.write_bytes(text + b"stale tail\n" * 1000)
    assert main([*argv, "--output", str(out)]) == 0
    assert (out.read_bytes(), manifest.read_bytes()) == want
    assert (out.stat().st_ino, manifest.stat().st_ino) == inodes
    # through a symlink the target is rewritten and the link stays
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    out.write_bytes(want[0] + b"stale tail\n")
    assert main([*argv, "--output", str(link)]) == 0
    assert link.is_symlink() and out.read_bytes() == want[0]
    assert out.stat().st_ino == inodes[0]
    # an output directory that does not exist is a data error
    capsys.readouterr()
    assert main([*argv, "--output", str(tmp_path / "missing" / "out.csv")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.fixture
def two_window_csv(tmp_path):
    """Two 60 s windows: a SYN surge to 200 in the first, a scanning source 77
    in the second, and one malformed line of each kind the skip policy counts."""
    rng = np.random.default_rng(3)
    lines = []
    for _ in range(400):
        t = round(float(rng.uniform(0, 120)), 3)
        src, dst = int(rng.integers(50, 60)), int(rng.integers(100, 108))
        lines.append(f"{t},{t + 0.1},{src},{dst},1234,80,TCP,4,{int(rng.integers(0, 3))},0,1,0")
    for i in range(90):
        t = 40 + i % 20 + 0.5
        lines.append(f"{t},{t + 0.1},{60 + i % 9},200,1234,80,TCP,20,15,1,1,0")
        t += 60
        lines.append(f"{t},{t + 0.1},77,{300 + i},1234,80,TCP,1,1,0,0,0")
    lines += [
        "5.0,5.1,51,101,1234,80,TCP,4,1,0,1",  # field count
        "6.0,6.1,51,101,1234,80,TCP,4x,1,0,1,0",  # number
        "7.0,7.1,51,101,1234,80,ICMP,4,1,0,1,0",  # protocol
        "8.0,8.1,51,101,1234,80,TCP,1,1,0,1,0",  # flags
    ]
    path = tmp_path / "two_windows.csv"
    path.write_text("\n".join([FLOW_HEADER] + lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("metric", ["syn", "netscan"])
@pytest.mark.parametrize("method", ["toprank", "hashrank", "full"])
def test_detect_ignores_line_order_and_chunk_size(two_window_csv, tmp_path, capsys, monkeypatch,
                                                  metric, method):
    def detect(source):
        out = tmp_path / "alarms.csv"
        argv = ["detect", "--input", str(source), "--output", str(out), "--metric", metric,
                "--method", method, "--alpha", "0.5", "--keep", "3", "--errors", "skip"]
        assert main(argv) == 0
        return out.read_bytes(), capsys.readouterr().err

    want = detect(two_window_csv)
    assert {row.split(b",")[0] for row in want[0].splitlines()[1:]} == {b"0", b"1"}
    assert want[1] == ("flowrank: skipped 4 bad lines "
                       "(field count 1, flags 1, number 1, protocol 1)\n")
    header, *data = two_window_csv.read_text().splitlines()
    random.Random(5).shuffle(data)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + data) + "\n")
    assert detect(shuffled) == want
    for chunk in (1, 3, 64):
        monkeypatch.setattr(ingest, "CHUNK_LINES", chunk)
        assert detect(two_window_csv) == want, chunk


@pytest.mark.parametrize("metric", ["syn", "netscan"])
@pytest.mark.parametrize("method", ["toprank", "full"])
def test_detect_commutes_with_order_preserving_key_relabelling(two_window_csv, tmp_path, capsys,
                                                               metric, method):
    # TopRank and Comprehensive use keys only through their order (tie-breaks),
    # so a strictly increasing map on addresses maps the alarm keys alone
    header, *data = two_window_csv.read_text().splitlines()
    rows = [line.split(",") for line in data]
    old = sorted({int(row[i]) for row in rows for i in (2, 3)})
    relabel = dict(zip(old, sorted(random.Random(7).sample(range(2**32), len(old)))))
    for row in rows:
        row[2], row[3] = (str(relabel[int(v)]) for v in row[2:4])
    relabelled = tmp_path / "relabelled.csv"
    relabelled.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")

    def detect(source):
        out = tmp_path / "alarms.csv"
        argv = ["detect", "--input", str(source), "--output", str(out), "--metric", metric,
                "--method", method, "--alpha", "0.5", "--keep", "3", "--errors", "skip"]
        assert main(argv) == 0
        return out.read_text().splitlines(), capsys.readouterr().err

    (head, *alarms), err = detect(two_window_csv)
    assert {row.split(",")[0] for row in alarms} == {"0", "1"}
    mapped = []
    for row in alarms:
        window, key, rest = row.split(",", 2)
        mapped.append(f"{window},{relabel[int(key)]},{rest}")
    assert detect(relabelled) == ([head, *mapped], err)


def test_more_bins_than_the_kernel_holds_is_a_usage_error(flow_csv, tmp_path, capsys, monkeypatch):
    # at P = 4M bins the int64 sum of squared scores wrapped, and roc "detected"
    # a change of factor 1; every entry now refuses P > 2^21 before any draw
    def no_generate(*args, **kwargs):
        raise AssertionError("the bin count must be checked before any data is drawn")

    monkeypatch.setattr(cli, "generate", no_generate)
    monkeypatch.setattr(evaluate, "generate", no_generate)
    out = tmp_path / "out.csv"
    for argv in (
        ["roc", "--method", "full", "--dim", "1", "--target-rank", "1", "--bins", "4000000",
         "--change-at", "2000000", "--factor", "1", "--runs", "1", "--seed", "3",
         "--thresholds", "0.01"],
        ["simulate", "--bins", "2097153"],
        ["detect", "--input", str(flow_csv), "--window", "2097153"],
        ["detect", "--input", str(flow_csv), "--format", "dense", "--window", "2097153"],
    ):
        assert main([*argv, "--output", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("flowrank: error: ") and "2^21" in err, err
        assert not out.exists()


def test_detect_window_without_metric_records_writes_header_only(tmp_path):
    # UDP traffic only: under the syn metric the window has no keys
    flows = tmp_path / "udp.csv"
    flows.write_text(FLOW_HEADER + "\n" + "".join(
        f"{t},{t + 0.1},1,2,53,53,UDP,5,0,0,0,0\n" for t in range(0, 60, 7)
    ))
    for method in ("toprank", "hashrank", "full"):
        out = tmp_path / f"{method}.csv"
        argv = ["detect", "--input", str(flows), "--output", str(out), "--metric", "syn"]
        assert main([*argv, "--method", method]) == 0
        assert out.read_text() == "window,key,method,p_value,statistic,change_bin\n"


def test_simulate_then_detect_dense(tmp_path):
    data = tmp_path / "synth.csv"
    rc = main([
        "simulate", "--output", str(data), "--dim", "300", "--bins", "60",
        "--factor", "7", "--target-rank", "30", "--change-at", "35", "--seed", "1",
    ])
    assert rc == 0
    first = data.read_text().splitlines()[0]
    assert first == "# truth:i0=30,j0=35,eta=7"
    out = tmp_path / "alarms.csv"
    rc = main([
        "detect", "--input", str(data), "--format", "dense", "--window", "60",
        "--method", "full", "--alpha", "1e-4", "--output", str(out),
    ])
    assert rc == 0
    assert 30 in read_alarm_keys(out)


def test_simulate_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--dim", "80", "--bins", "20", "--change-at", "10",
            "--target-rank", "8", "--seed", "4"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("dim, bins, rank, at, factor, seed", [
    (120, 16, 7, 9, 2.5, 8),
    (0, 5, 1, 2, 7.0, 3),
])
def test_simulate_writes_the_oracle_counts(tmp_path, dim, bins, rank, at, factor, seed):
    out = tmp_path / "synth.csv"
    assert main(["simulate", "--output", str(out), "--dim", str(dim), "--bins", str(bins),
                 "--target-rank", str(rank), "--change-at", str(at), "--factor", str(factor),
                 "--seed", str(seed)]) == 0
    cfg = SynthConfig(dim=dim, bins=bins, change_rank=rank, change_bin=at, factor=factor,
                      seed=seed)
    y = oracle_generate(cfg)[0]
    lines = [f"# truth:i0={rank},j0={at},eta={factor:g}", "key,bin,count"]
    for key in range(1, dim + 1):
        for t in range(1, bins + 1):
            if y[key - 1, t - 1]:
                lines.append(f"{key},{t},{y[key - 1, t - 1]}")
    assert len(lines) > 2 or dim == 0
    assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_roc_outputs_curves_and_reference(tmp_path):
    out = tmp_path / "roc.csv"
    args = [
        "roc", "--output", str(out), "--runs", "2", "--dim", "60", "--bins", "24",
        "--change-at", "12", "--factor", "6", "--target-rank", "6",
        "--budget", "20", "--top", "8", "--method", "all", "--seed", "3",
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,threshold,fa_rate,det_rate"
    methods = {row.split(",")[0] for row in lines[1:]}
    assert methods == {"toprank", "hashrank", "full", "random"}
    manifest = json.loads((tmp_path / "roc.csv.manifest.json").read_text())
    assert len(manifest["parameters"]["thresholds_used"]) == 31


def test_roc_reruns_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = [
        "roc", "--runs", "2", "--dim", "50", "--bins", "20", "--change-at", "10",
        "--factor", "5", "--target-rank", "5", "--budget", "15", "--top", "6",
        "--method", "toprank", "--seed", "9",
    ]
    assert main(base + ["--output", str(out_a)]) == 0
    assert main(base + ["--output", str(out_b), "--threads", "4"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fisher_emits_estimates_with_targets(tmp_path):
    out = tmp_path / "fisher.csv"
    rc = main([
        "fisher", "--output", str(out), "--theta", "0.5", "--dims", "16,32",
        "--mc", "4000", "--grid", str(1 << 14), "--seed", "2",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,D,theta,estimate,target"
    assert len(lines) == 1 + 4  # two methods per dimension
    methods = {row.split(",")[0] for row in lines[1:]}
    assert methods == {"max_analytic", "sum_fft"}


def test_fisher_rejects_unknown_density(tmp_path):
    rc = main([
        "fisher", "--output", str(tmp_path / "f.csv"), "--density", "cauchy",
    ])
    assert rc == 1
