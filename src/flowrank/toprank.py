"""Record-filtering pipeline: per-bin top-M tables, candidate selection
and censored-series construction feeding the rank test.

Keeping only the M largest counts of each bin bounds per-window memory
by an M x P table. A key outside a bin's top set has its value censored
from above by the smallest retained count of that bin, which is exactly
the information the filtering preserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Alarm, DetectionMethod, WindowBatch, WindowConfig
from .ranktest import NEVER_TESTED, Scores, statistic_batch, to_alarms


@dataclass(frozen=True)
class TopSet:
    """Heavy hitters of one bin: (key, count) pairs, largest count first.

    Ties are broken toward the smaller key. `censor_bound` is the
    smallest retained count when the table is full, and 0 when fewer
    than M keys were active (every unselected key then had no traffic).
    """

    bin: int
    entries: tuple[tuple[int, int], ...]
    censor_bound: int


def top_filter(batch: WindowBatch, cfg: WindowConfig) -> list[TopSet]:
    """Build the per-bin top-M tables of a window.

    Only keys with a nonzero count in a bin are eligible for that bin's
    table. Selection is by count descending, then key ascending, so the
    result is independent of input ordering.
    """
    tops = []
    for t, col in enumerate(batch.counts.T):
        # keys are presorted ascending, so a stable sort on -count keeps
        # the smaller key first among equal counts
        order = np.argsort(-col, kind="stable")[: cfg.top_m]
        order = order[col[order] > 0]
        entries = tuple(zip(batch.keys[order].tolist(), col[order].tolist()))
        bound = entries[-1][1] if len(entries) == cfg.top_m else 0
        tops.append(TopSet(bin=t + 1, entries=entries, censor_bound=bound))
    return tops


def candidates(tops: Sequence[TopSet], keep_mprime: int) -> list[int]:
    """Keys holding one of the top `keep_mprime` ranks in some bin.

    Ordered by first appearance, scanning bins in time order and ranks
    within each bin.
    """
    if keep_mprime < 1:
        raise ValueError("keep_mprime must be at least 1")
    out: list[int] = []
    seen: set[int] = set()
    for ts in tops:
        for key, _ in ts.entries[:keep_mprime]:
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def candidates_budget(tops: Sequence[TopSet], n: int) -> list[int]:
    """First `n` distinct keys in rank-major traversal of the top tables.

    The traversal visits every bin's rank-1 key, then every bin's rank-2
    key, and so on; it is the fixed-budget candidate rule used when the
    number of tested series must match another method's.
    """
    if n < 1:
        raise ValueError("budget must be at least 1")
    out: list[int] = []
    seen: set[int] = set()
    max_rank = max((len(ts.entries) for ts in tops), default=0)
    for rank in range(max_rank):
        for ts in tops:
            if rank < len(ts.entries):
                key = ts.entries[rank][0]
                if key not in seen:
                    seen.add(key)
                    out.append(key)
                    if len(out) == n:
                        return out
    return out


def censor(
    batch: WindowBatch, tops: Sequence[TopSet], keys: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Censored series of `keys` against the window's top tables.

    Returns x int64[C, P] and observed bool[C, P], row c for keys[c].
    Bins where a key was retained carry its true count and an observed
    flag; elsewhere the bin carries the table's censor bound as an
    upper bound.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    rows = np.searchsorted(batch.keys, keys)
    found = rows < batch.num_keys
    found[found] = batch.keys[rows[found]] == keys[found]
    if not found.all():
        raise KeyError(f"key {keys[~found][0]} did not appear in the window")
    row_of = {key: c for c, key in enumerate(keys.tolist())}
    observed = np.zeros((keys.size, batch.bins), dtype=bool)
    bound = np.zeros(batch.bins, dtype=np.int64)
    for ts in tops:
        bound[ts.bin - 1] = ts.censor_bound
        for key, _ in ts.entries:
            if key in row_of:
                observed[row_of[key], ts.bin - 1] = True
    return np.where(observed, batch.counts[rows], bound), observed


def score_window(
    batch: WindowBatch,
    cfg: WindowConfig,
    budget: Optional[int] = None,
) -> Scores:
    """Filter, censor and test one window; untested keys score `NEVER_TESTED`.

    With `budget` set, candidates come from the fixed-budget rank-major
    rule instead of the keep_mprime union.
    """
    tops = top_filter(batch, cfg)
    if budget is None:
        cands = candidates(tops, cfg.keep_mprime)
    else:
        cands = candidates_budget(tops, budget)
    out = statistic_batch(*censor(batch, tops, cands))
    at, n = np.searchsorted(batch.keys, cands), batch.num_keys
    p_value, stat, change_bin = np.full(n, NEVER_TESTED), np.zeros(n), np.zeros(n, np.int64)
    p_value[at], stat[at], change_bin[at] = out.p_value, out.w_stat, out.change_bin
    method = DetectionMethod.TOPRANK
    return Scores(batch.window_index, method, batch.keys, p_value, p_value, stat, change_bin)


def run_window(
    batch: WindowBatch,
    cfg: WindowConfig,
    budget: Optional[int] = None,
) -> list[Alarm]:
    """Alarms of one window (see `score_window`), sorted by p-value."""
    return to_alarms(score_window(batch, cfg, budget), cfg.level_alpha)
