"""Rank-based change-point test for censored count series.

A window of P bins yields pairs (x(t), observed(t)) where a set flag
means the true count was retained and a cleared flag means x(t) is only
an upper bound. Every ordered bin pair is scored with a censoring-aware
sign comparison; the per-bin score sums are accumulated into a
normalized partial-sum path whose maximum absolute value is the test
statistic. When the bins are i.i.d. the statistic converges (as P grows)
in distribution to the supremum of the absolute value of a Brownian
bridge, whose tail provides the asymptotic p-value.

Because only pairwise order comparisons enter the statistic, any
strictly increasing transform of the values leaves every output
bit-identical, and no distributional assumptions on the counts are
needed.

One kernel, `statistic_batch`, tests every row of an N x P matrix. Each
method reduces a window to per-key `Scores`, which `to_alarms` thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import Alarm, DetectionMethod

# Truncation tolerance for the alternating tail series.
_TERM_TOL = 1e-12
# Below this statistic the tail probability is 1 within _TERM_TOL while
# the alternating series would need O(1/b) terms; short-circuit to 1.
_SMALL_STAT = 0.2
_MAX_TERMS = 100
# Rows per kernel block; bounds the B x P x P comparison scratch memory
_BLOCK_ROWS = 64
# p_alarm of a key a method never tests; above any decision threshold
NEVER_TESTED = 2.0


@dataclass(frozen=True)
class CensoredSeries:
    """Per-key series (x(t), observed(t)).

    A cleared `observed` flag marks a bin whose value is censored from
    above: x(t) is then an upper bound for the true count.
    """

    key: int
    x: np.ndarray
    observed: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        obs = np.asarray(self.observed, dtype=bool)
        if x.ndim != 1 or obs.shape != x.shape:
            raise ValueError("x and observed must be 1-d sequences of equal length")
        if not np.isfinite(x).all():
            raise ValueError("values must be finite")
        if x.size and x.min() < 0:
            raise ValueError("values must be nonnegative")
        x.setflags(write=False)
        obs.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "observed", obs)


@dataclass(frozen=True)
class TestOutcome:
    """Result of the change-point test on one series.

    `u_scores` holds the per-bin score sums (integers); `s_path` is
    their normalized partial-sum path, whose last entry is exactly
    zero. `change_bin` is the 1-based bin attaining the maximum
    absolute path value, smallest such bin under ties. A degenerate
    outcome means every pairwise score was zero (e.g. a constant
    series), in which case no alarm is possible.
    """

    w_stat: float
    p_value: float
    change_bin: int
    s_path: np.ndarray
    u_scores: np.ndarray
    degenerate: bool = False


class BatchOutcome(NamedTuple):
    """Per-row results of `statistic_batch`, fields as in `TestOutcome`."""

    w_stat: np.ndarray
    p_value: np.ndarray
    change_bin: np.ndarray
    degenerate: np.ndarray


class Scores(NamedTuple):
    """One window reduced by a detection method to per-key arrays.

    `keys` lists the window's keys ascending and the other arrays align
    with it. A key alarms at level alpha iff `p_alarm < alpha`; its
    alarm reports `p_report`, `stat` and `change_bin`.
    """

    window_index: int
    method: DetectionMethod
    keys: np.ndarray
    p_alarm: np.ndarray
    p_report: np.ndarray
    stat: np.ndarray
    change_bin: np.ndarray


def score_pair(x_s: float, s_observed: bool, x_t: float, t_observed: bool) -> int:
    """Censoring-aware sign comparison of two bins.

    +1 when the first value is strictly larger and actually observed,
    -1 when it is strictly smaller and the second value is observed,
    0 otherwise. A censored value is only an upper bound, so it can
    never witness being the larger one.
    """
    if s_observed and x_s > x_t:
        return 1
    if t_observed and x_s < x_t:
        return -1
    return 0


def pvalue(b: float) -> float:
    """Tail probability of the supremum of |Brownian bridge| beyond b.

    Evaluated by the alternating exponential series, truncated once a
    term drops below 1e-12; the result is clamped to [0, 1]. For b
    below 0.2 the tail is 1 within that tolerance and 1.0 is returned
    directly (this also covers the b = 0 convention). A negative or NaN
    statistic is a ValueError, so NaN can never pass for significance.
    """
    if not b >= 0:
        raise ValueError("statistic must be nonnegative and not NaN")
    if b < _SMALL_STAT:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, _MAX_TERMS + 1):
        term = math.exp(-2.0 * j * j * b * b)
        total += sign * term
        if term < _TERM_TOL:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _block(x: np.ndarray, observed: np.ndarray):
    """Score sums, paths, statistics, change bins and degeneracy of a row block."""
    if x.shape[1] < 2:
        raise ValueError("need at least two bins")
    if not np.isfinite(x).all():
        raise ValueError("values must be finite")
    xs = x[:, :, None]
    xt = x[:, None, :]
    above = (xs > xt) & observed[:, :, None]
    below = (xs < xt) & observed[:, None, :]
    u = above.sum(axis=2) - below.sum(axis=2)
    denom = (u * u).sum(axis=1)
    # a degenerate row has u == 0, so dividing by 1 keeps its path at zero
    path = np.cumsum(u, axis=1) / np.sqrt(np.maximum(denom, 1))[:, None]
    abs_path = np.abs(path)
    idx = abs_path.argmax(axis=1)  # argmax returns the first maximum
    w = abs_path[np.arange(x.shape[0]), idx]
    return u, path, w, idx + 1, denom == 0


def statistic_batch(x: np.ndarray, observed: Optional[np.ndarray] = None) -> BatchOutcome:
    """Run the rank test on every row of an N x P matrix.

    `observed` (same shape, default all set) flags the retained bins.
    Row i equals `statistic` on row i bit for bit. Rows go through in
    blocks of `_BLOCK_ROWS`, each reduced to per-row results before the
    next, so scratch memory does not grow with N.
    """
    x = np.asarray(x)
    observed = np.ones(x.shape, dtype=bool) if observed is None else np.asarray(observed, bool)
    if x.ndim != 2 or observed.shape != x.shape:
        raise ValueError("x and observed must be N x P matrices of equal shape")
    n = x.shape[0]
    w_stat, change_bin, degenerate = np.zeros(n), np.ones(n, np.int64), np.zeros(n, bool)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        block = _block(np.asarray(x[rows], dtype=np.float64), observed[rows])
        w_stat[rows], change_bin[rows], degenerate[rows] = block[2:]
    p_value = np.array([pvalue(b) for b in w_stat.tolist()], dtype=np.float64)
    return BatchOutcome(w_stat, p_value, change_bin, degenerate)


def statistic(series: CensoredSeries) -> TestOutcome:
    """Run the censored rank test on one series (one-row `statistic_batch`)."""
    u, path, w, change_bin, degenerate = _block(series.x[None], series.observed[None])
    u, path, w_stat = u[0], path[0], float(w[0])
    u.setflags(write=False)
    path.setflags(write=False)
    return TestOutcome(w_stat, pvalue(w_stat), int(change_bin[0]), path, u, bool(degenerate[0]))


def statistic_uncensored(values: Sequence[float] | np.ndarray) -> TestOutcome:
    """Run the rank test with every bin treated as observed.

    Identical to `statistic` on a series whose flags are all set; the
    pairwise score reduces to a plain sign comparison.
    """
    x = np.asarray(values, dtype=np.float64)
    return statistic(CensoredSeries(key=0, x=x, observed=np.ones(x.shape, dtype=bool)))


def to_alarms(scores: Scores, level_alpha: float) -> list[Alarm]:
    """Alarms of the keys with `p_alarm < level_alpha`, by reported p-value then key."""
    if not 0.0 < level_alpha < 1.0:
        raise ValueError("level_alpha must be in (0, 1)")
    alarms = [
        Alarm(
            key=int(scores.keys[i]),
            window_index=scores.window_index,
            change_bin=int(scores.change_bin[i]),
            p_value=float(scores.p_report[i]),
            statistic=float(scores.stat[i]),
            method=scores.method,
        )
        for i in np.flatnonzero(scores.p_alarm < level_alpha)
    ]
    alarms.sort(key=lambda a: (a.p_value, a.key))
    return alarms
