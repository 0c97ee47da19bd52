"""Monte Carlo ROC evaluation of the detection pipelines on synthetic data.

`scorer` is the one place that maps a `DetectionMethod` to its per-key
scorer (`score_window` of `toprank` or `hashrank`, or
`score_comprehensive`), and the one place that draws HashRank's hashes;
`detect` thresholds that scorer's alarm p-values and `roc` sweeps them.
Each ROC run generates one fresh dataset with one injected change and
scores it with every method asked for; sweeping a decision threshold
over the alarm p-values then yields each method's false-alarm and
detection rates, averaged over runs.
Runs are seeded individually (data with base+run, HashRank's hash
coefficients with base+HASH_SEED_OFFSET+run) and run one after another
on the calling thread, in run order. Each run adds its rates into
running sums, so memory does not grow with the number of runs. The runs
hold the GIL, so threads would not overlap them.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import hashrank, toprank
from .hashrank import check_sketch, sample_coefficients
from .model import DetectionMethod, WindowBatch, WindowConfig, check_int
from .ranktest import Scores, statistic_batch
from .synth import SynthConfig, generate

# 30 log-spaced thresholds spanning 1e-12..1 plus the zero endpoint
DEFAULT_THRESHOLDS: tuple[float, ...] = (0.0, *(float(t) for t in np.logspace(-12.0, 0.0, 30)))
# run r draws its hash coefficients from seed + HASH_SEED_OFFSET + r
HASH_SEED_OFFSET = 1_000_000


class RocPoint(NamedTuple):
    method: DetectionMethod
    threshold: float
    fa_rate: float
    det_rate: float


def score_comprehensive(batch: WindowBatch) -> Scores:
    """Per-key scores without any reduction: every key's raw series is tested."""
    w_stat, p_value, change_bin, _ = statistic_batch(batch.counts)
    return Scores(batch.keys, p_value, p_value, w_stat, change_bin)


def scorer(
    method: DetectionMethod, cfg: WindowConfig, seed: int, l_rows: int, k_buckets: int
) -> Callable[[WindowBatch], Scores]:
    """The per-key scorer of `method`: TopRank filters with `cfg`, its
    candidate budget included, HashRank sketches with the `l_rows` x
    `k_buckets` hashes drawn from `seed`, Comprehensive tests every key.
    Every method checks the sketch arguments; only HashRank draws hashes."""
    check_sketch(seed, l_rows, k_buckets)
    if method is DetectionMethod.TOPRANK:
        return partial(toprank.score_window, cfg=cfg)
    if method is DetectionMethod.HASHRANK:
        return partial(hashrank.score_window, coeffs=sample_coefficients(seed, l_rows, k_buckets))
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
    *methods: DetectionMethod,
    runs: int,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    budget: int = 136,
    top_m: int = 50,
    l_rows: int = 8,
    k_buckets: int = 17,
) -> list[RocPoint]:
    """ROC curves of `methods` over fresh Monte Carlo datasets.

    Each run draws one dataset and scores it with every method, so the
    curves compare the methods on the same data. The points come method
    by method, in threshold order within each method. The
    record-filtering method runs budget-matched: it tests exactly
    `budget` candidate series per window (the sketch method's cell
    count), using `top_m` as the filtering depth. Every argument is
    checked before any data is drawn.
    """
    if not methods or not all(isinstance(m, DetectionMethod) for m in methods):
        raise ValueError("methods must be one or more DetectionMethod values")
    check_int("runs", runs, 1)
    # metric, window length and alpha are irrelevant: only the scores are swept
    wcfg = WindowConfig(top_m=top_m, budget=budget)
    # the protocol needs at least one key
    check_int("dim", cfg.dim, 1)
    thr = check_thresholds(thresholds)
    thr_arr = np.asarray(thr)
    # `generate` puts key i at row i - 1
    at = cfg.change_rank - 1
    fa_sum = np.zeros((len(methods), len(thr)))
    det_sum = np.zeros((len(methods), len(thr)))
    for r in range(runs):
        # built before the data, so run 0 rejects bad sketch sizes before any draw
        seed = cfg.seed + HASH_SEED_OFFSET + r
        scorers = [scorer(m, wcfg, seed, l_rows, k_buckets) for m in methods]
        batch = generate(replace(cfg, seed=cfg.seed + r))
        p_alarm = np.stack([score(batch).p_alarm for score in scorers])
        det_sum += p_alarm[:, at, None] < thr_arr
        others = np.delete(p_alarm, at, axis=1)
        # a one-key window has no other keys and so no false alarms
        fa_sum += (others[:, :, None] < thr_arr).sum(axis=1) / max(others.shape[1], 1)
    fa_mean = fa_sum / runs
    det_mean = det_sum / runs
    return [
        RocPoint(method, threshold=t, fa_rate=float(fa), det_rate=float(det))
        for method, fa_row, det_row in zip(methods, fa_mean, det_mean)
        for t, fa, det in zip(thr, fa_row, det_row)
    ]
