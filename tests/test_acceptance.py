"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is
fixed here; the heavyweight criteria (ROC reproduction, information
study) pin their seeds so the whole gate is deterministic.
"""

import time

import numpy as np

from flowrank.cli import main as cli_main
from flowrank.evaluate import roc
from flowrank.fisher import (
    BUILTIN_DENSITIES,
    estimate_info_max,
    estimate_info_sum,
    limit_info_max,
)
from flowrank.hashrank import SketchTable, build_sketch, invert, sample_coefficients
from flowrank.model import DetectionMethod, WindowBatch
from flowrank.ranktest import CensoredSeries, pvalue, score_pair, statistic
from flowrank.synth import SynthConfig, sample_pareto

from oracles import brute_statistic


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def random_censored(rng, n):
    x = rng.integers(0, 6, n)
    observed = rng.random(n) < 0.65
    return CensoredSeries(key=1, x=x, observed=observed)


def test_criterion_01_statistic_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        series = random_censored(rng, n)
        out = statistic(series)
        ref = brute_statistic(list(series.x), list(series.observed))
        same = (
            out.degenerate == ref["degenerate"]
            and list(out.u_scores) == ref["u"]
            and list(out.s_path) == ref["s_path"]
            and (
                ref["degenerate"]
                or (out.w_stat == ref["w"] and out.change_bin == ref["change_bin"])
            )
        )
        if not same:
            mismatches += 1
    elapsed = time.time() - t0
    report(
        "criterion 1 (statistic == brute force, 1000 series)",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches} runtime={elapsed:.2f}s",
    )


def test_criterion_02_antisymmetry_and_terminal_zero():
    rng = np.random.default_rng(202)
    xs = rng.integers(0, 10, 100_000)
    xt = rng.integers(0, 10, 100_000)
    ds = rng.random(100_000) < 0.5
    dt = rng.random(100_000) < 0.5
    bad_pairs = sum(
        1
        for a, b, c, d in zip(xs.tolist(), ds.tolist(), xt.tolist(), dt.tolist())
        if score_pair(a, b, c, d) != -score_pair(c, d, a, b)
    )
    worst_tail = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        out = statistic(random_censored(rng, n))
        worst_tail = max(worst_tail, abs(float(out.s_path[-1])))
    report(
        "criterion 2 (score antisymmetry, terminal path zero)",
        bad_pairs == 0 and worst_tail <= 1e-12,
        f"bad_pairs={bad_pairs} worst_terminal={worst_tail:.2e}",
    )


def test_criterion_03_bridge_tail_quantiles_and_monotonicity():
    p5 = pvalue(1.3581)
    p1 = pvalue(1.6276)
    grid = np.linspace(0.0, 5.0, 1000)
    values = [pvalue(float(b)) for b in grid]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    ok = 0.0498 <= p5 <= 0.0502 and 0.0098 <= p1 <= 0.0102 and monotone
    report(
        "criterion 3 (tail quantiles and monotone p-value)",
        ok,
        f"p(1.3581)={p5:.6f} p(1.6276)={p1:.6f} monotone={monotone}",
    )


def test_criterion_04_null_calibration():
    rng = np.random.default_rng(404)
    t0 = time.time()
    continuous = 0
    for _ in range(5000):
        out = statistic(CensoredSeries(1, rng.random(60), np.ones(60, dtype=bool)))
        continuous += out.p_value < 0.05
    tied = 0
    for _ in range(5000):
        out = statistic(
            CensoredSeries(1, rng.poisson(0.4, 60), np.ones(60, dtype=bool))
        )
        tied += out.p_value < 0.05
    rate_c = continuous / 5000
    rate_t = tied / 5000
    elapsed = time.time() - t0
    report(
        "criterion 4 (null calibration at level 0.05)",
        0.02 <= rate_c <= 0.08 and rate_t <= 0.08 and elapsed < 60.0,
        f"continuous={rate_c:.4f} tied={rate_t:.4f} runtime={elapsed:.1f}s",
    )


def test_criterion_05_rank_invariance_bit_identical():
    rng = np.random.default_rng(505)
    identical = True
    for _ in range(500):
        n = int(rng.integers(2, 30))
        series = CensoredSeries(1, rng.integers(0, 25, n), rng.random(n) < 0.7)
        base = statistic(series)
        mapped = statistic(CensoredSeries(1, np.exp(series.x), series.observed))
        identical &= (
            mapped.w_stat == base.w_stat
            and mapped.p_value == base.p_value
            and mapped.change_bin == base.change_bin
            and mapped.degenerate == base.degenerate
            and np.array_equal(mapped.s_path, base.s_path)
        )
    report("criterion 5 (exp transform leaves outcomes bit-identical)", identical)


def test_criterion_06_sketch_conservation_and_inversion():
    rng = np.random.default_rng(606)
    conserved = True
    for _ in range(100):
        dim = int(rng.integers(2, 60))
        bins = int(rng.integers(2, 12))
        keys = rng.choice(5000, size=dim, replace=False)
        counts = np.array([rng.integers(0, 7, bins) for _ in range(dim)])
        order = np.argsort(keys)
        order = order[counts[order].any(axis=1)]  # ascending keys, all-zero rows dropped
        batch = WindowBatch(0, 0.0, keys[order], counts[order])
        coeffs = sample_coefficients(int(rng.integers(0, 10_000)), 4, 9)
        table = build_sketch(batch, coeffs)
        total = counts.sum(axis=0)
        for row in range(4):
            conserved &= bool(np.array_equal(table.series[row].sum(axis=0), total))
    inversion_ok = True
    for _ in range(100):
        l_rows = int(rng.integers(2, 5))
        k_buckets = int(rng.integers(2, 7))
        keys = list(range(1, int(rng.integers(1, 15)) + 1))
        assignment = rng.integers(1, k_buckets + 1, size=(l_rows, len(keys)))
        cell_keys = tuple(
            tuple(
                tuple(k for j, k in enumerate(keys) if assignment[row, j] == bucket)
                for bucket in range(1, k_buckets + 1)
            )
            for row in range(l_rows)
        )
        table = SketchTable(
            series=np.zeros((l_rows, k_buckets, 2), dtype=np.int64),
            keys=np.array(keys, dtype=np.int64),
            buckets=assignment - 1,
        )
        flagged = {
            (row, bucket)
            for row in range(1, l_rows + 1)
            for bucket in range(1, k_buckets + 1)
            if rng.random() < 0.4
        }
        expected = None
        for row in range(1, l_rows + 1):
            union = set()
            for bucket in range(1, k_buckets + 1):
                if (row, bucket) in flagged:
                    union |= set(cell_keys[row - 1][bucket - 1])
            expected = union if expected is None else expected & union
        inversion_ok &= invert(table, flagged) == (expected or set())
    report(
        "criterion 6 (sketch mass conservation, inversion set algebra)",
        conserved and inversion_ok,
        f"conserved={conserved} inversion={inversion_ok}",
    )


def test_criterion_07_roc_strong_change_median_key():
    t0 = time.time()
    cfg = SynthConfig(
        dim=1000, bins=60, change_rank=500, change_bin=35, factor=7.0, seed=0
    )
    points = roc(cfg, DetectionMethod.TOPRANK, runs=100, budget=136, top_m=50)
    max_det = points[-1].det_rate
    elapsed = time.time() - t0
    report(
        "criterion 7 (filtering ceiling, factor 7 at median rank)",
        0.78 <= max_det <= 0.95 and elapsed < 600.0,
        f"max_detection={max_det:.2f} runtime={elapsed:.1f}s",
    )


def test_criterion_08_roc_moderate_change_busy_key():
    t0 = time.time()
    cfg = SynthConfig(
        dim=1000, bins=60, change_rank=100, change_bin=35, factor=2.0, seed=0
    )
    top = roc(cfg, DetectionMethod.TOPRANK, runs=100, budget=136, top_m=50)
    full = roc(cfg, DetectionMethod.COMPREHENSIVE, runs=100)
    ok_a = any(p.det_rate >= 0.95 and p.fa_rate <= 0.06 for p in top)
    cap = 135.0 / 999.0
    ok_b = all(p.fa_rate <= cap + 1e-12 for p in top)
    fa_top = min((p.fa_rate for p in top if p.det_rate >= 0.95), default=None)
    fa_full = min((p.fa_rate for p in full if p.det_rate >= 0.95), default=None)
    ok_c = fa_top is not None and fa_full is not None and fa_top <= fa_full
    elapsed = time.time() - t0
    report(
        "criterion 8 (factor 2 at busy rank: power, cap, dominance)",
        ok_a and ok_b and ok_c and elapsed < 600.0,
        f"det>=0.95@fa<=0.06={ok_a} cap={ok_b} "
        f"fa_top={fa_top} fa_full={fa_full} runtime={elapsed:.1f}s",
    )


def test_criterion_09_pareto_quantile_cross_checks():
    median = sample_pareto(0.5, 2.5, 0.72)
    decile = sample_pareto(0.9, 2.5, 0.72)
    ok = abs(median - 0.4438) <= 1e-3 and abs(decile - 2.0999) <= 1e-3
    report(
        "criterion 9 (heavy-tail intensity quantiles)",
        ok,
        f"median={median:.4f} decile={decile:.4f}",
    )


def test_criterion_10_information_contrast():
    t0 = time.time()
    d = BUILTIN_DENSITIES["beta33"]
    limit = limit_info_max(d, 0.5)
    est_max_800 = estimate_info_max(d, 0.5, 800, n_mc=200_000, seed=7)
    est_max_50 = estimate_info_max(d, 0.5, 50, n_mc=200_000, seed=7)
    est_sum_64 = estimate_info_sum(d, 0.5, 64)
    est_sum_128 = estimate_info_sum(d, 0.5, 128)
    ok_a = abs(est_max_800.value - limit) <= 0.10 * limit
    scaled = 64 * est_sum_64.value
    ok_b = abs(scaled - 112.0) <= 0.25 * 112.0
    ratio_max = est_max_800.value / est_max_50.value
    ratio_sum = est_sum_128.value / est_sum_64.value
    ok_c = 0.5 <= ratio_max <= 2.0 and 0.375 <= ratio_sum <= 0.625
    elapsed = time.time() - t0
    report(
        "criterion 10 (information: max stays order one, sum decays)",
        ok_a and ok_b and ok_c and elapsed < 300.0,
        f"max800={est_max_800.value:.2f} limit={limit:.2f} "
        f"64*J64={scaled:.1f} ratio_max={ratio_max:.2f} "
        f"ratio_sum={ratio_sum:.3f} runtime={elapsed:.1f}s",
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    args = [
        "roc", "--runs", "4", "--dim", "200", "--bins", "40", "--change-at", "20",
        "--factor", "6", "--target-rank", "20", "--budget", "40", "--top", "12",
        "--method", "all", "--seed", "33",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert cli_main(args + ["--output", str(out_a), "--threads", "1"]) == 0
    assert cli_main(args + ["--output", str(out_b), "--threads", "1"]) == 0
    assert cli_main(args + ["--output", str(out_c), "--threads", "8"]) == 0
    identical = (
        out_a.read_bytes() == out_b.read_bytes()
        and out_a.read_bytes() == out_c.read_bytes()
    )
    report("criterion 11 (byte-identical reruns, thread invariance)", identical)
