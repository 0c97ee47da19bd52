import json

import pytest

from flowrank.cli import main
from flowrank.ingest import FLOW_HEADER


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


def test_detect_missing_input_is_data_error(tmp_path):
    rc = main(["detect", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "o.csv")])
    assert rc == 2


def test_usage_error_exit_code():
    for argv in (
        ["detect", "--method", "bogus", "--input", "x"],
        ["detect", "--input", "x", "--threads", "2"],  # detect has no --threads
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


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
