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

One kernel, `statistic_batch`, tests every row of an N x P matrix. It
tests each distinct (row, flags) pair once, found by a fingerprint and
checked value by value, and works through the rows in blocks, so its
scratch memory stays O(N) plus one block. Each method reduces a window
to per-key `Scores`, the only per-window result: `alarm_order` picks and
orders its alarms, and the ROC harness sweeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import MAX_BINS, check_float

# Truncation tolerance for the alternating tail series.
_TERM_TOL = 1e-12
# Below this statistic the tail probability is 1 within _TERM_TOL while
# the alternating series would need O(1/b) terms; short-circuit to 1.
_SMALL_STAT = 0.2
_MAX_TERMS = 100
# Rows per kernel block; bounds the kernel's B x P scratch arrays
_BLOCK_ROWS = 128
# 2^64 / golden ratio, odd: its powers weight a row's entries in its fingerprint
_GOLDEN = 0x9E3779B97F4A7C15
# p_alarm of a key a method never tests; above any decision threshold
NEVER_TESTED = 2.0


@dataclass(frozen=True, eq=False)
class CensoredSeries:
    """Per-key series (x(t), observed(t)).

    A cleared `observed` flag marks a bin whose value is censored from
    above: x(t) is then an upper bound for the true count. Integer
    values stay integers, so the test ranks them exactly.
    """

    key: int
    x: np.ndarray
    observed: np.ndarray

    def __post_init__(self) -> None:
        # copies: the caller's arrays are not frozen below
        x, obs = np.array(self.x), np.array(self.observed, dtype=bool)
        if x.ndim != 1 or obs.shape != x.shape:
            raise ValueError("x and observed must be 1-d sequences of equal length")
        _check_values(x)
        if x.size and x.min() < 0:
            raise ValueError("values must be nonnegative")
        x.setflags(write=False)
        obs.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "observed", obs)


@dataclass(frozen=True, eq=False)
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


def _check_bins(bins: int) -> None:
    if bins > MAX_BINS:
        raise ValueError(f"at most 2^21 = {MAX_BINS} bins: the int64 score sums would wrap")


def _check_values(x: np.ndarray) -> None:
    kind = x.dtype.kind
    # min and max propagate NaN and need no N x P temporary
    if kind not in "iuf" or (kind == "f" and x.size and not np.isfinite([x.min(), x.max()]).all()):
        raise ValueError("values must be finite integers or floats")


def _block(x: np.ndarray, observed: np.ndarray):
    """Score sums, their partial sums and norms, statistics, change bins and degeneracy.

    One sort per row gives every score sum in O(P log P). In sorted order,
    u_s = observed_s * #{t : x_t < x_s} - #{t : observed_t and x_t > x_s}
    is the position where x_s's tie group starts (when x_s is observed)
    minus the number of observed flags after the group's end. The block
    is handled as one flat array: a row start always starts a tie group,
    so the groups never span two rows.
    """
    if x.shape[1] < 2:
        raise ValueError("need at least two bins")
    rows, bins = x.shape
    size = rows * bins
    row_start = np.arange(0, size, bins)
    # flat[k]: flat index of the k-th smallest entry of its row, ties in bin order
    flat = (np.argsort(x, axis=1, kind="stable") + row_start[:, None]).ravel()
    xs, obs = x.ravel()[flat], observed.ravel()[flat]
    cut = np.empty(size, dtype=bool)
    np.not_equal(xs[1:], xs[:-1], out=cut[1:])
    cut[row_start] = True
    group = np.flatnonzero(cut)  # flat start of each tie group
    width = np.diff(group, append=size)
    row = group // bins
    # observed flags through each group's end, and after it within the row
    seen = np.cumsum(np.add.reduceat(obs, group, dtype=np.int64))
    after = np.cumsum(np.count_nonzero(observed, axis=1))[row] - seen
    u = np.empty(size, dtype=np.int64)
    u[flat] = np.where(obs, np.repeat(group - row * bins, width), 0) - np.repeat(after, width)
    u = u.reshape(rows, bins)
    # |u_s| <= P - 1: denom <= P(P-1)^2 < 2^63 and |cumsum| <= P(P-1) for P <= MAX_BINS
    denom = np.einsum("ij,ij->i", u, u)
    # a degenerate row has u == 0, so dividing by 1 keeps its path at zero
    norm = np.sqrt(np.maximum(denom, 1))
    partial = np.cumsum(u, axis=1)
    # |partial| < 2^53 is exact in float64 and dividing by norm > 0 keeps its
    # strict order, so the first maximum of |partial| is the path's
    idx = np.abs(partial).argmax(axis=1)
    w = np.abs(partial[np.arange(rows), idx]) / norm
    return u, partial, norm, w, idx + 1, denom == 0


def _fingerprints(x: np.ndarray, observed: Optional[np.ndarray]) -> np.ndarray:
    """A uint64 hash of each row's values and, when given, its flags.

    Each value's 64-bit pattern, its high half folded into its low half,
    and each flag are weighted by the powers of the odd 64-bit
    golden-ratio constant and summed mod 2^64. The fold keeps floats'
    high bits, which a product mod 2^64 would shift out. The constants
    are fixed, so importing this module draws no random numbers.
    """
    n, bins = x.shape
    weight = np.cumprod(np.full(2 * bins, _GOLDEN, dtype=np.uint64))
    wide = np.float64 if x.dtype.kind == "f" else np.int64
    fp = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        bits = x[rows].astype(wide, copy=False).view(np.uint64)
        fp[rows] = (bits ^ bits >> 32) @ weight[:bins]
        if observed is not None:
            fp[rows] += observed[rows] @ weight[bins:]
    return fp


def _representatives(
    x: np.ndarray, observed: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The rows to test, and for each row the index among them of the row it repeats.

    Rows are grouped by fingerprint and each is compared with its group's
    first row, its representative; a row that differs (a fingerprint
    collision) is its own representative, and so is tested.
    """
    _, first, inverse = np.unique(
        _fingerprints(x, observed), return_index=True, return_inverse=True
    )
    rep = first[inverse]
    repeats = np.flatnonzero(rep != np.arange(rep.size))
    for lo in range(0, repeats.size, _BLOCK_ROWS):
        rows = repeats[lo:lo + _BLOCK_ROWS]
        same = (x[rows] == x[rep[rows]]).all(axis=1)
        if observed is not None:
            same &= (observed[rows] == observed[rep[rows]]).all(axis=1)
        rep[rows[~same]] = rows[~same]
    tested = rep == np.arange(rep.size)
    return np.flatnonzero(tested), np.cumsum(tested)[rep] - 1


def statistic_batch(x: np.ndarray, observed: Optional[np.ndarray] = None) -> BatchOutcome:
    """Run the rank test on every row of an N x P matrix.

    `observed` (same shape, default all set) flags the retained bins.
    Row i equals `statistic` on row i bit for bit. Each distinct
    (row, flags) pair is tested once, and the rows that repeat it share
    its outcome. Rows are fingerprinted, checked against their
    representative and tested in blocks of `_BLOCK_ROWS`, in the dtype
    given, so scratch memory stays O(N) plus one block.
    """
    x = np.asarray(x)
    _check_bins(x.shape[-1] if x.ndim == 2 else 0)  # before anything is allocated
    observed = None if observed is None else np.asarray(observed, dtype=bool)
    if x.ndim != 2 or (observed is not None and observed.shape != x.shape):
        raise ValueError("x and observed must be N x P matrices of equal shape")
    _check_values(x)  # before any fingerprint: NaN or inf must not reach the arithmetic
    todo, k = _representatives(x, observed)
    w_stat, degenerate = np.zeros(todo.size), np.zeros(todo.size, bool)
    change_bin = np.ones(todo.size, np.int64)
    for lo in range(0, todo.size, _BLOCK_ROWS):
        rows, out = todo[lo:lo + _BLOCK_ROWS], slice(lo, lo + _BLOCK_ROWS)
        flags = np.ones((rows.size, x.shape[1]), bool) if observed is None else observed[rows]
        w_stat[out], change_bin[out], degenerate[out] = _block(x[rows], flags)[3:]
    # a window repeats few statistics, so each distinct one gets one `pvalue` call
    distinct, where = np.unique(w_stat, return_inverse=True)
    p_value = np.fromiter(map(pvalue, distinct.tolist()), np.float64, distinct.size)[where]
    return BatchOutcome(w_stat[k], p_value[k], change_bin[k], degenerate[k])


def statistic(series: CensoredSeries) -> TestOutcome:
    """Run the censored rank test on one series (one-row `statistic_batch`)."""
    _check_bins(series.x.size)
    u, partial, norm, w, change_bin, degenerate = _block(series.x[None], series.observed[None])
    u, path, w_stat = u[0], partial[0] / norm[0], float(w[0])
    u.setflags(write=False)
    path.setflags(write=False)
    return TestOutcome(w_stat, pvalue(w_stat), int(change_bin[0]), path, u, bool(degenerate[0]))


def alarm_order(scores: Scores, level_alpha: float) -> np.ndarray:
    """Indices of the keys with `p_alarm < level_alpha`, by reported p-value then key."""
    check_float("level_alpha", level_alpha, 0, 1)
    hit = np.flatnonzero(scores.p_alarm < level_alpha)
    return hit[np.lexsort((scores.keys[hit], scores.p_report[hit]))]
