"""Monte Carlo ROC evaluation of the detection pipelines on synthetic data.

Each run generates a fresh dataset with one injected change and scores
it with the per-key scorer that `detect` thresholds (`score_window` of
`toprank` or `hashrank`, or `score_comprehensive`). Sweeping a decision
threshold over the alarm p-values then yields false-alarm and detection
rates, averaged over runs.
Runs are seeded individually (data with base+run, hash coefficients
with base+offset+run), so results are reproducible and independent of
execution order or worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from . import hashrank, toprank
from .hashrank import sample_coefficients
from .model import Alarm, DetectionMethod, WindowBatch, WindowConfig
from .ranktest import Scores, statistic_batch, to_alarms
from .synth import SynthConfig, generate, to_window_batch

# 30 log-spaced thresholds spanning 1e-12..1 plus the zero endpoint
DEFAULT_THRESHOLDS: tuple[float, ...] = (0.0, *(float(t) for t in np.logspace(-12.0, 0.0, 30)))


class RocPoint(NamedTuple):
    threshold: float
    fa_rate: float
    det_rate: float


def score_comprehensive(batch: WindowBatch) -> Scores:
    """Per-key scores without any reduction: every key's raw series is tested."""
    keys, counts = batch.matrix()
    w_stat, p_value, change_bin, _ = statistic_batch(counts)
    return Scores(
        batch.window_index, DetectionMethod.COMPREHENSIVE, keys, p_value, p_value, w_stat, change_bin
    )


def comprehensive(batch: WindowBatch, level_alpha: float) -> list[Alarm]:
    """Baseline without any reduction: alarms of every key's raw series."""
    return to_alarms(score_comprehensive(batch), level_alpha)


def roc(
    cfg: SynthConfig,
    method: DetectionMethod,
    runs: int,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    *,
    budget: int = 136,
    top_m: int = 50,
    l_rows: int = 8,
    k_buckets: int = 17,
    hash_seed_offset: int = 1_000_000,
    threads: int = 1,
) -> list[RocPoint]:
    """ROC curve of one method over fresh Monte Carlo datasets.

    The record-filtering method runs budget-matched: it tests exactly
    `budget` candidate series per window (the sketch method's cell
    count), using `top_m` as the filtering depth.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if cfg.dim < 1:
        raise ValueError("the protocol needs at least one key")
    thr = [float(t) for t in thresholds]
    if thr != sorted(thr):
        raise ValueError("thresholds must be sorted ascending")
    thr_arr = np.asarray(thr)
    anomaly_key = cfg.change_rank

    def one_run(r: int) -> tuple[np.ndarray, np.ndarray]:
        batch = to_window_batch(generate(replace(cfg, seed=cfg.seed + r)))
        if method is DetectionMethod.TOPRANK:
            # metric and alpha are irrelevant: only the scores are swept
            wcfg = WindowConfig(bins_per_window=batch.bins, top_m=top_m, keep_mprime=1)
            scores = toprank.score_window(batch, wcfg, budget)
        elif method is DetectionMethod.HASHRANK:
            coeffs = sample_coefficients(cfg.seed + hash_seed_offset + r, l_rows, k_buckets)
            scores = hashrank.score_window(batch, coeffs)
        elif method is DetectionMethod.COMPREHENSIVE:
            scores = score_comprehensive(batch)
        else:
            raise ValueError(f"unknown method {method!r}")
        at = int(np.searchsorted(scores.keys, anomaly_key))
        det = (scores.p_alarm[at] < thr_arr).astype(np.float64)
        others = np.delete(scores.p_alarm, at)
        # a one-key window has no other keys and so no false alarms
        fa = (others[:, None] < thr_arr[None, :]).sum(axis=0) / max(others.size, 1)
        return fa, det

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_run, range(runs)))
    else:
        results = [one_run(r) for r in range(runs)]
    fa_mean = np.mean([fa for fa, _ in results], axis=0)
    det_mean = np.mean([det for _, det in results], axis=0)
    return [
        RocPoint(threshold=t, fa_rate=float(fa), det_rate=float(det))
        for t, fa, det in zip(thr, fa_mean, det_mean)
    ]
