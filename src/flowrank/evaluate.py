"""Monte Carlo ROC evaluation of the detection pipelines on synthetic data.

`scorer` is the one place that maps a `DetectionMethod` to its per-key
scorer (`score_window` of `toprank` or `hashrank`, or
`score_comprehensive`); `detect` thresholds that scorer's alarm p-values
and `roc` sweeps them. Each ROC run generates a fresh dataset with one
injected change and scores it; sweeping a decision threshold over the
alarm p-values then yields false-alarm and detection rates, averaged
over runs.
Runs are seeded individually (data with base+run, hash coefficients
with base+HASH_SEED_OFFSET+run) and run on a pool of `threads` threads
with results taken in run order, so results are reproducible and
independent of the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import hashrank, toprank
from .hashrank import HashCoefficients, sample_coefficients
from .model import DetectionMethod, WindowBatch, WindowConfig
from .ranktest import Scores, statistic_batch
from .synth import SynthConfig, generate

# 30 log-spaced thresholds spanning 1e-12..1 plus the zero endpoint
DEFAULT_THRESHOLDS: tuple[float, ...] = (0.0, *(float(t) for t in np.logspace(-12.0, 0.0, 30)))
# run r draws its hash coefficients from seed + HASH_SEED_OFFSET + r
HASH_SEED_OFFSET = 1_000_000


class RocPoint(NamedTuple):
    threshold: float
    fa_rate: float
    det_rate: float


def score_comprehensive(batch: WindowBatch) -> Scores:
    """Per-key scores without any reduction: every key's raw series is tested."""
    w_stat, p_value, change_bin, _ = statistic_batch(batch.counts)
    return Scores(batch.keys, p_value, p_value, w_stat, change_bin)


def scorer(
    method: DetectionMethod,
    cfg: WindowConfig,
    budget: Optional[int],
    coeffs: HashCoefficients,
) -> Callable[[WindowBatch], Scores]:
    """The per-key scorer of `method`: TopRank filters with `cfg` (and
    `budget`, if set), HashRank sketches with `coeffs`, Comprehensive
    tests every key."""
    if method is DetectionMethod.TOPRANK:
        return partial(toprank.score_window, cfg=cfg, budget=budget)
    if method is DetectionMethod.HASHRANK:
        return partial(hashrank.score_window, coeffs=coeffs)
    if method is DetectionMethod.COMPREHENSIVE:
        return score_comprehensive
    raise ValueError(f"unknown method {method!r}")


def check_thresholds(thresholds: Sequence[float]) -> list[float]:
    """`thresholds` as floats; anything but a nonempty list of ascending
    p-values in [0, 1] is a ValueError."""
    thr = [float(t) for t in thresholds]
    # the range test also rejects nan and inf
    if not thr or not all(0.0 <= t <= 1.0 for t in thr) or thr != sorted(thr):
        raise ValueError("thresholds must be a nonempty list of ascending p-values in [0, 1]")
    return thr


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
    threads: int = 1,
) -> list[RocPoint]:
    """ROC curve of one method over fresh Monte Carlo datasets.

    The record-filtering method runs budget-matched: it tests exactly
    `budget` candidate series per window (the sketch method's cell
    count), using `top_m` as the filtering depth. Every argument is
    checked before the first run.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if cfg.dim < 1:
        raise ValueError("the protocol needs at least one key")
    thr = check_thresholds(thresholds)
    thr_arr = np.asarray(thr)
    # metric, window length and alpha are irrelevant: only the scores are swept
    wcfg = WindowConfig(top_m=top_m)
    coeffs = [
        sample_coefficients(cfg.seed + HASH_SEED_OFFSET + r, l_rows, k_buckets) for r in range(runs)
    ]
    anomaly_key = cfg.change_rank

    def one_run(r: int) -> tuple[np.ndarray, np.ndarray]:
        scores = scorer(method, wcfg, budget, coeffs[r])(generate(replace(cfg, seed=cfg.seed + r)))
        at = int(np.searchsorted(scores.keys, anomaly_key))
        det = (scores.p_alarm[at] < thr_arr).astype(np.float64)
        others = np.delete(scores.p_alarm, at)
        # a one-key window has no other keys and so no false alarms
        fa = (others[:, None] < thr_arr[None, :]).sum(axis=0) / max(others.size, 1)
        return fa, det

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one_run, range(runs)))
    fa_mean = np.mean([fa for fa, _ in results], axis=0)
    det_mean = np.mean([det for _, det in results], axis=0)
    return [
        RocPoint(threshold=t, fa_rate=float(fa), det_rate=float(det))
        for t, fa, det in zip(thr, fa_mean, det_mean)
    ]
