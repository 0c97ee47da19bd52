import io
import json
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import detect_rows
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
    dense.write_text("key,bin,count\n1,1,100000000000000000000\n")
    rc = main(["detect", "--input", str(dense), "--format", "dense",
               "--output", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "line 2:" in capsys.readouterr().err


def test_detect_undecodable_byte_is_a_number_error(flow_csv, tmp_path, capsys):
    lines = flow_csv.read_bytes().split(b"\n")
    lines[8] = lines[8].replace(b",TCP,3,", b",TCP,3\xff,")  # line 9
    flows, out = tmp_path / "bytes.csv", str(tmp_path / "alarms.csv")
    flows.write_bytes(b"\n".join(lines))
    assert main(["detect", "--input", str(flows), "--output", out]) == 2
    assert capsys.readouterr().err == ("flowrank: data error: line 9: unparseable number: "
                                       "invalid literal for int() with base 10: '3\\udcff'\n")
    assert main(["detect", "--input", str(flows), "--output", out, "--errors", "skip"]) == 0
    assert capsys.readouterr().err == "flowrank: skipped 1 bad lines (number 1)\n"
    flows.write_bytes(b"\xff" + flow_csv.read_bytes())
    assert main(["detect", "--input", str(flows), "--output", out, "--errors", "skip"]) == 2
    assert capsys.readouterr().err.startswith("flowrank: data error: line 1: bad header")
    dense = tmp_path / "dense.csv"
    dense.write_bytes(b"key,bin,count\n1,1,5\n2,1,\xff5\n")
    assert main(["detect", "--input", str(dense), "--format", "dense", "--output", out]) == 2
    assert capsys.readouterr().err.startswith("flowrank: data error: line 3: unparseable number")


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
        # one line, without argparse's usage block
        err = capsys.readouterr().err
        assert err.startswith("flowrank") and err.count("\n") == 1, err
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
        ["detect", "--format", "dense", "--metric", "udp"],
        # count options are checked before any input is read
        ["detect", "--budget", "0"],
        ["detect", "--method", "hashrank", "--rows", "0"],
        ["detect", "--method", "hashrank", "--buckets", "1"],
        # sketch sizes no hash or array can hold are option faults, not data errors
        ["detect", "--method", "hashrank", "--buckets", "100000000000000000000"],
        ["detect", "--method", "hashrank", "--buckets", "9223372036854775807"],
        ["detect", "--method", "hashrank", "--rows", "100000000000000000000"],
        ["roc", "--method", "hashrank", "--buckets", "100000000000000000000"],
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
        ["roc", "--thresholds", ""],
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
        ["fisher", "--theta", "1e-10", "--dtheta-frac", "1e-320"],  # the product underflows
    ):
        io_args = ["--input", str(flow_csv)] if extra[0] == "detect" else []
        assert main([*extra, *io_args, "--output", out]) == 1, extra
        err = capsys.readouterr().err
        assert err.startswith("flowrank: error:") and err.count("\n") == 1, (extra, err)
    monkeypatch.undo()
    assert main(["simulate", "--dim", "0", "--output", out]) == 0  # an empty dataset
    # even when the input has no window to spend the budget on
    empty = tmp_path / "empty.csv"
    empty.write_text(FLOW_HEADER + "\n")
    for bad, message in ((["--budget", "0"], "budget must be at least 1"),
                         (["--seed", "-1"], "seed must be at least 0")):
        assert main(["detect", "--input", str(empty), "--output", out, *bad]) == 1
        assert capsys.readouterr().err == f"flowrank: error: {message}\n"
    # a bin length float64 cannot resolve at the data's timestamps is a data error:
    # 1e-300 s anywhere, a 2 ns window near t = 1.7e9 (one ulp there is 238 ns)
    late = tmp_path / "late.csv"
    late.write_text(FLOW_HEADER + "\n1700000000,1700000000.1,1,2,3,4,TCP,3,1,1,1,0"
                    "\n1700000001,1700000001.1,1,2,3,4,TCP,3,1,1,1,0\n")
    # under --errors skip a failure prints its own line alone, without the skip count:
    # that bin length, and an output that cannot be written (the later --output wins)
    missing = str(tmp_path / "missing" / "out.csv")
    for source, extra in ((flow_csv, ["--delta", "1e-300"]),
                          (late, ["--delta", "1e-9", "--window", "2"]),
                          (flow_csv, ["--delta", "1e-300", "--errors", "skip"]),
                          (flow_csv, ["--errors", "skip", "--output", missing])):
        assert main(["detect", "--input", str(source), "--output", out, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowrank: data error:") and err.count("\n") == 1, err
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


def refuse_allocation(*args, **kwargs):
    # what numpy raises for an array it cannot allocate; no test allocates one for real,
    # because an overcommitting kernel may grant it and then fill it
    raise MemoryError("Unable to allocate 89.4 GiB for an array with shape (3000000000, 4)")


@pytest.mark.parametrize("argv, where, code", [
    (["detect", "--method", "hashrank", "--rows", "3000000000"], "sample_coefficients", 1),
    (["roc", "--rows", "3000000000", "--runs", "1", "--dim", "20", "--target-rank", "2"],
     "sample_coefficients", 1),
    (["simulate", "--dim", "4000000000", "--target-rank", "2"], "generate", 1),
    (["fisher", "--mc", "1000000000000", "--dims", "4"], "estimate_info_max", 1),
    (["detect", "--window", "4"], "split_windows", 2),
], ids=["detect-options", "roc", "simulate", "fisher", "detect-input"])
def test_refused_allocation_is_one_error_line(argv, where, code, flow_csv, tmp_path, capsys,
                                              monkeypatch):
    # a usage error while the options are checked, a data error once detect reads input
    module = evaluate if where == "sample_coefficients" else cli
    monkeypatch.setattr(module, where, refuse_allocation)
    io_args = ["--input", str(flow_csv)] if argv[0] == "detect" else []
    out = tmp_path / "out" / "out.csv"
    out.parent.mkdir()
    assert main([*argv, *io_args, "--output", str(out)]) == code
    kind = "error" if code == 1 else "data error"
    assert capsys.readouterr().err == (
        f"flowrank: {kind}: Unable to allocate 89.4 GiB for an array with shape (3000000000, 4)\n")
    assert list(out.parent.iterdir()) == []


# every numeric option of each command, and the values drawn for it
OPTION_VALUES = ("0", "-1", "1", "2", str(2**31), str(2**63), str(10**20),
                 "nan", "inf", "-inf", "1e-320", "1e300", "", "x")
SYNTH_OPTIONS = ("--dim", "--bins", "--change-at", "--factor", "--target-rank",
                 "--pareto-shape", "--pareto-scale", "--seed")
NUMERIC_OPTIONS = {
    "detect": ("--delta", "--window", "--top", "--keep", "--alpha", "--budget",
               "--rows", "--buckets", "--seed"),
    "simulate": SYNTH_OPTIONS,
    "roc": ("--runs", *SYNTH_OPTIONS, "--budget", "--top", "--rows", "--buckets", "--threads"),
    "fisher": ("--theta", "--dims", "--mc", "--grid", "--dtheta-frac", "--seed"),
}
# a work-size value the program accepts is allocated for, so these options draw only
# small valid values, values <= 0, values >= 2^63 or non-numbers; `roc` keeps its
# memory bounded, but a huge --runs runs for ever, so --runs draws no huge value at all
WORK_SIZE = ("--rows", "--buckets", "--runs", "--dim", "--bins", "--window", "--mc", "--grid",
             "--dims")


def drawn_values(option):
    huge = {str(2**31)} | ({str(2**63), str(10**20)} if option == "--runs" else set())
    return [v for v in OPTION_VALUES if option not in WORK_SIZE or v not in huge]


@st.composite
def option_argv(draw):
    command = draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    option = draw(st.sampled_from(NUMERIC_OPTIONS[command]))
    method = ["--method", draw(st.sampled_from(sorted(cli._METHODS)))] if command == "detect" else []
    return [command, *method, option, draw(st.sampled_from(drawn_values(option)))]


@pytest.fixture(scope="module")
def tiny_flows(tmp_path_factory):
    path = tmp_path_factory.mktemp("options") / "flows.csv"
    lines = [f"{i}.0,{i}.1,5{i},100,1234,80,TCP,3,1,1,1,0" for i in range(8)]
    path.write_text("\n".join([FLOW_HEADER, *lines]) + "\n", encoding="utf-8")
    (path.parent / "out").mkdir()
    return path


@settings(max_examples=150, deadline=None)
@given(option_argv())
@example(["detect", "--method", "hashrank", "--buckets", str(10**20)])
@example(["roc", "--buckets", str(10**20)])
# a theta so small that float64 cannot carry the study
@example(["fisher", "--theta", "1e-320"])
@example(["fisher", "--theta", "1e-308"])
@example(["fisher", "--theta", "1e-200"])
@example(["fisher", "--theta", "1e-160"])
def test_any_option_value_exits_0_1_or_2_with_a_flowrank_line(tiny_flows, argv):
    out_dir = tiny_flows.parent / "out"
    for stale in out_dir.iterdir():
        stale.unlink()
    # the drawn option comes last, so it overrides a fixed one
    fixed = {
        "detect": ["--input", str(tiny_flows), "--window", "4"],
        "simulate": ["--dim", "20", "--target-rank", "2"],
        "roc": ["--runs", "1", "--dim", "20", "--target-rank", "2"],
        "fisher": ["--dims", "4", "--mc", "1000", "--grid", "16384"],
    }[argv[0]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main([argv[0], *fixed, *argv[1:], "--output", str(out_dir / "out.csv")])
        except SystemExit as stop:  # argparse rejects a value its type cannot convert
            code = stop.code
    err = stderr.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("flowrank"), (argv, err)
    if code == 1:
        assert list(out_dir.iterdir()) == [], argv


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


@pytest.mark.parametrize("method", ["toprank", "full"])
def test_detect_draws_no_hashes_for_a_method_that_does_not_hash(method, flow_csv, tmp_path, capsys):
    # the sketch options are checked, but a sketch no array could hold is never drawn
    out = tmp_path / "out.csv"
    assert main(["detect", "--method", method, "--rows", "0", "--input", str(flow_csv),
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == "flowrank: error: l_rows must be at least 1\n"
    outputs = []
    for rows in ("8", str(10**20)):
        assert main(["detect", "--method", method, "--rows", rows, "--input", str(flow_csv),
                     "--output", str(out)]) == 0
        outputs.append(out.read_text().splitlines())
    assert outputs[0] == outputs[1] and len(outputs[0]) > 1


@pytest.mark.parametrize("argv, message", [
    (["detect", "--window", "1"], "bins_per_window must be at least 2"),
    (["detect", "--top", "0", "--budget", "0"], "top_m must be at least 1"),
    (["detect", "--keep", "11"], "keep_mprime must be at most 10"),
    (["detect", "--rows", "0"], "l_rows must be at least 1"),
    (["detect", "--buckets", "1"], "k_buckets must be at least 2"),
    (["detect", "--buckets", str(2**61)], "k_buckets must be at most 2305843009213693951"),
    (["simulate", "--dim", "-1"], "dim must be at least 0"),
    (["simulate", "--dim", str(2**32)], "dim must be at most 4294967295"),
    (["simulate", "--seed", "-1"], "seed must be at least 0"),
    (["simulate", "--bins", "1"], "bins must be at least 2"),
    (["simulate", "--target-rank", "0"], "change_rank must be at least 1"),
    (["simulate", "--target-rank", "1001"], "change_rank must be at most 1000"),
    (["simulate", "--change-at", "60"], "change_bin must be at most 59"),
    (["roc", "--runs", "0"], "runs must be at least 1"),
    (["roc", "--dim", "0"], "dim must be at least 1"),
    (["roc", "--threads", "0"], "--threads must be at least 1"),
    (["fisher", "--seed", "-1"], "--seed must be at least 0"),
    (["fisher", "--mc", "1"], "--mc must be at least 2"),
    (["fisher", "--dims", "16,1"], "--dims must be at least 2"),
    (["fisher", "--grid", "1000"], "--grid must be at least 16384"),
    (["fisher", "--grid", "20000"], "--grid must be a power of two"),
    (["fisher", "--theta", "1e-10", "--dtheta-frac", "1e-320"],
     "--dtheta-frac * --theta must lie in (0, 1e-10)"),
])
def test_count_option_out_of_range_names_its_bound(argv, message, flow_csv, tmp_path, capsys):
    io_args = ["--input", str(flow_csv)] if argv[0] == "detect" else []
    out = tmp_path / "out.csv"
    assert main([*argv, *io_args, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"flowrank: error: {message}\n"
    assert not out.exists()


def test_more_bins_than_the_kernel_holds_is_a_usage_error(flow_csv, tmp_path, capsys, monkeypatch):
    # at P = 4M bins the int64 sum of squared scores wrapped, and roc "detected"
    # a change of factor 1; every entry now refuses P > 2^21 before any draw
    def no_generate(*args, **kwargs):
        raise AssertionError("the bin count must be checked before any data is drawn")

    monkeypatch.setattr(cli, "generate", no_generate)
    monkeypatch.setattr(evaluate, "generate", no_generate)
    out = tmp_path / "out.csv"
    for argv, field in (
        (["roc", "--method", "full", "--dim", "1", "--target-rank", "1", "--bins", "4000000",
          "--change-at", "2000000", "--factor", "1", "--runs", "1", "--seed", "3",
          "--thresholds", "0.01"], "bins"),
        (["simulate", "--bins", "2097153"], "bins"),
        (["detect", "--input", str(flow_csv), "--window", "2097153"], "bins_per_window"),
        (["detect", "--input", str(flow_csv), "--format", "dense", "--window", "2097153"],
         "bins_per_window"),
    ):
        assert main([*argv, "--output", str(out)]) == 1, argv
        assert capsys.readouterr().err == f"flowrank: error: {field} must be at most 2097152\n"
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


def test_simulated_counts_keep_the_dense_counter_bound(tmp_path, capsys):
    # counts up to 4.2e9 are written and read back as a dense window
    data, out = tmp_path / "synth.csv", tmp_path / "alarms.csv"
    small = ["--dim", "20", "--bins", "8", "--change-at", "4", "--target-rank", "5", "--factor", "1"]
    assert main(["simulate", *small, "--pareto-scale", "5.1e-10", "--output", str(data)]) == 0
    counts = [int(line.rsplit(",", 1)[1]) for line in data.read_text().splitlines()[2:]]
    assert 2**31 < max(counts) < 2**32
    assert main(["detect", "--format", "dense", "--input", str(data), "--window", "8",
                 "--output", str(out)]) == 0
    # counts of 2^32 and more, which dense detect would reject, are a bad option value
    rejected = tmp_path / "rejected.csv"
    for argv in (["simulate", "--dim", "50", "--target-rank", "5", "--pareto-scale", "1e-9"],
                 ["roc", "--method", "hashrank", "--runs", "1", "--dim", "200", "--target-rank",
                  "5", "--factor", "1", "--pareto-scale", "5e-18", "--buckets", "2"]):
        assert main([*argv, "--output", str(rejected)]) == 1
        assert "not below 2^32" in capsys.readouterr().err
        assert not rejected.exists()


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


def test_roc_all_is_the_single_method_rows_then_random(tmp_path):
    base = [
        "roc", "--runs", "3", "--dim", "60", "--bins", "24", "--change-at", "12",
        "--factor", "4", "--target-rank", "6", "--budget", "20", "--top", "8", "--seed", "5",
        "--thresholds", "0,1e-4,0.01,0.2,1",
    ]
    rows = {}
    for method in ("all", "toprank", "hashrank", "full"):
        out = tmp_path / f"{method}.csv"
        assert main(base + ["--method", method, "--output", str(out)]) == 0
        rows[method] = out.read_text().splitlines()
    # each single-method file is the header, five method rows, five random rows
    header, random = rows["toprank"][:1], rows["toprank"][6:]
    assert all(row.startswith("random,") for row in random)
    methods = [row for m in ("toprank", "hashrank", "full") for row in rows[m][1:6]]
    assert rows["all"] == header + methods + random


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


# `detect` on `two_window_csv`: TopRank with its top-M' rule at the default and a
# deeper M', and with a fixed budget, then HashRank and Comprehensive
DETECT_MODES = (
    ["--method", "toprank"],
    ["--method", "toprank", "--keep", "2"],
    ["--method", "toprank", "--budget", "3"],
    ["--method", "hashrank"],
    ["--method", "full"],
)
# their five CSVs, each with its header, one after the other
DETECT_PINNED = """\
window,key,method,p_value,statistic,change_bin
0,200,toprank,1.52437e-11,3.57771,40
0,103,toprank,0.265287,1.00442,22
1,104,toprank,0.124263,1.17861,25
window,key,method,p_value,statistic,change_bin
0,200,toprank,1.52437e-11,3.57771,40
0,103,toprank,0.265287,1.00442,22
1,104,toprank,0.124263,1.17861,25
1,319,toprank,0.279078,0.991632,59
1,318,toprank,0.29797,0.974824,58
window,key,method,p_value,statistic,change_bin
1,104,toprank,0.124263,1.17861,25
window,key,method,p_value,statistic,change_bin
0,200,hashrank,1.52437e-11,3.57771,40
1,312,hashrank,6.32623e-05,2.27611,45
1,325,hashrank,6.32623e-05,2.27611,45
1,318,hashrank,6.53296e-05,2.27258,42
1,336,hashrank,6.53296e-05,2.27258,42
1,345,hashrank,6.53296e-05,2.27258,42
1,362,hashrank,6.53296e-05,2.27258,42
1,373,hashrank,0.000152415,2.17739,43
1,334,hashrank,0.000546497,2.02548,40
1,365,hashrank,0.000546497,2.02548,40
1,351,hashrank,0.000583128,2.01746,43
1,386,hashrank,0.000799268,1.978,46
1,356,hashrank,0.00122174,1.92362,41
1,379,hashrank,0.00122174,1.92362,41
1,323,hashrank,0.00176852,1.87493,40
1,104,hashrank,0.00210101,1.85182,32
1,342,hashrank,0.0029083,1.80739,42
1,354,hashrank,0.00533867,1.72133,40
window,key,method,p_value,statistic,change_bin
0,200,full,1.52437e-11,3.57771,40
0,103,full,0.265287,1.00442,22
1,104,full,0.124263,1.17861,25
1,319,full,0.279078,0.991632,59
1,339,full,0.279078,0.991632,59
1,359,full,0.279078,0.991632,59
1,379,full,0.279078,0.991632,59
1,318,full,0.29797,0.974824,58
1,338,full,0.29797,0.974824,58
1,358,full,0.29797,0.974824,58
1,378,full,0.29797,0.974824,58
"""


def test_detect_writes_the_pinned_alarms(two_window_csv, tmp_path):
    out = tmp_path / "alarms.csv"
    written = []
    for mode in DETECT_MODES:
        argv = ["detect", "--input", str(two_window_csv), "--errors", "skip", "--alpha", "0.3"]
        assert main([*argv, *mode, "--output", str(out)]) == 0
        written.append(out.read_text())
    assert "".join(written) == DETECT_PINNED


# lines `detect --errors skip` drops: blank, and one of each record-rule defect
DROPPED_LINES = (
    "", "  ", "5.0,5.1,51,101,1234,80,TCP,4,1,0,1", "6.0,6.1,51,101,1234,80,TCP,4x,1,0,1,0",
    "7.0,7.1,51,101,1234,80,ICMP,4,1,0,1,0", "8.0,8.1,51,101,1234,80,TCP,1,1,0,1,0",
    "nan,9.1,51,101,1234,80,TCP,4,1,0,1,0", "9.0,9.1,51,101,1234,70000,TCP,4,1,0,1,0",
)


@st.composite
def detect_cases(draw):
    """A flow CSV of at most 3 windows and 40 keys, and `detect` option values by name."""
    bins, delta = draw(st.integers(2, 8)), draw(st.sampled_from([1.0, 0.5, 2.5]))
    ticks = draw(st.integers(1, 3)) * bins * 3  # three start times per bin
    base = draw(st.sampled_from([0.0, 1000.25, -37.5]))
    # the records come from one seeded generator: drawing each field costs more than
    # the detect run. Small addresses tie counts and tokens often; large ones reach
    # the hash's high bits
    rng = draw(st.randoms(use_true_random=True))
    pool = rng.sample([*range(31), *rng.sample(range(31, 2**32), 40)], rng.choice([3, 12, 40]))
    lines = []
    for _ in range(rng.randrange(151)):
        if rng.randrange(16) == 0:
            lines.append(rng.choice(DROPPED_LINES))
            continue
        ts = base + rng.randrange(ticks) * delta / 3
        proto = rng.choice(["TCP", "TCP", "UDP", "OTHER"])
        flags = [rng.randrange(4), *(rng.randrange(2) for _ in range(3))]
        if proto != "TCP":
            flags = [0] * 4
        lines.append(f"{ts!r},{ts + 0.25!r},{rng.choice(pool)},{rng.choice(pool)},1234,"
                     f"{rng.choice([22, 80, 443])},{proto},{sum(flags) + rng.randrange(4)},"
                     + ",".join(map(str, flags)))
    top = draw(st.integers(1, 5))
    params = {
        "metric": draw(st.sampled_from(sorted(cli._METRICS))),
        "method": draw(st.sampled_from(sorted(cli._METHODS))),
        "delta": delta, "window": bins, "top": top, "keep": draw(st.integers(1, top)),
        "budget": draw(st.none() | st.integers(1, 12)),
        "alpha": draw(st.sampled_from([0.3, 0.9, 0.99])),
        "rows": draw(st.integers(1, 3)), "buckets": draw(st.integers(2, 5)),
        "seed": draw(st.integers(0, 5)),
    }
    return "\n".join([FLOW_HEADER, *lines]) + "\n", params


def syn_case(syn_by_key, **options):
    """One TCP record with the given SYN count at each (key, start time), and
    TopRank `detect` option values."""
    lines = [f"{t},{t + 0.25},1,{key},1234,80,TCP,{syn},{syn},0,0,0"
             for (key, t), syn in syn_by_key.items()]
    params = {"metric": "syn", "method": "toprank", "delta": 1.0, "window": 4, "top": 3,
              "keep": 3, "budget": None, "alpha": 0.99, "rows": 1, "buckets": 2, "seed": 0}
    return "\n".join([FLOW_HEADER, *lines]) + "\n", {**params, **options}


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("detect_oracle")


@settings(max_examples=100, deadline=None)
@given(case=detect_cases())
# ten keys tie at the cut of the first bin's table: the smaller keys are kept
@example(case=syn_case({(10 + k, 0.0): 1 + k % 2 for k in range(10)}))
# a bin of two active keys has no censoring bound
@example(case=syn_case({(1, 0.0): 5, (2, 0.0): 1, (1, 1.0): 4, (2, 1.0): 6, (1, 2.0): 1}))
# the origin is the first start time's bin
@example(case=syn_case({(1, 0.5): 1, (1, 1.5): 1, (1, 2.5): 9, (1, 3.5): 9}, alpha=0.3))
def test_detect_writes_the_oracle_alarms(oracle_dir, case):
    # the end-to-end reference: the per-line parse, per-record binning and
    # tuple tables of tests/oracles.py, each series tested by the double loop
    text, params = case
    source, out = oracle_dir / "flows.csv", oracle_dir / "alarms.csv"
    source.write_text(text, encoding="utf-8")
    argv = ["detect", "--input", str(source), "--output", str(out), "--errors", "skip"]
    for name, value in params.items():
        if value is not None:
            argv += [f"--{name}", str(value)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    want = ["window,key,method,p_value,statistic,change_bin", *detect_rows(text, params)]
    assert out.read_bytes() == ("\n".join(want) + "\n").encode()


# `roc --method all` at a tiny config; a 2 x 4 sketch makes HashRank's rates depend on
# each run's hash coefficients
ROC_PINNED = """\
method,threshold,fa_rate,det_rate
toprank,0.001,0,0
toprank,0.01,0,0
toprank,0.1,0,1
toprank,0.5,0.045977,1
hashrank,0.001,0,0
hashrank,0.01,0,0
hashrank,0.1,0.091954,1
hashrank,0.5,0.298851,1
full,0.001,0,0
full,0.01,0,0
full,0.1,0.0574713,1
full,0.5,0.298851,1
random,0.001,0.001,0.001
random,0.01,0.01,0.01
random,0.1,0.1,0.1
random,0.5,0.5,0.5
"""


def test_roc_all_writes_the_pinned_curves(tmp_path):
    out = tmp_path / "roc.csv"
    argv = ["roc", "--runs", "3", "--dim", "30", "--bins", "12", "--change-at", "6",
            "--factor", "4", "--target-rank", "3", "--budget", "8", "--top", "4", "--rows", "2",
            "--buckets", "4", "--thresholds", "0.001,0.01,0.1,0.5", "--seed", "5"]
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_text() == ROC_PINNED


def test_roc_starts_no_thread(tmp_path, monkeypatch):
    def no_start(self):
        raise AssertionError("roc started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    out = tmp_path / "roc.csv"
    argv = ["roc", "--runs", "2", "--dim", "30", "--bins", "12", "--change-at", "6",
            "--target-rank", "3", "--budget", "8", "--top", "4", "--threads", "4"]
    assert main(argv + ["--output", str(out)]) == 0


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
