"""Record-filtering pipeline: per-bin top-M tables, candidate selection
and censored-series construction feeding the rank test.

Keeping only the M largest counts of each bin bounds per-window memory
by an M x P table. A key outside a bin's top set has its value censored
from above by the smallest retained count of that bin, which is exactly
the information the filtering preserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import Alarm, DetectionMethod, WindowBatch, WindowConfig
from .ranktest import NEVER_TESTED, CensoredSeries, Scores, statistic_batch, to_alarms


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
    members: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(k for k, _ in self.entries))


def top_filter(batch: WindowBatch, cfg: WindowConfig) -> list[TopSet]:
    """Build the per-bin top-M tables of a window.

    Only keys with a nonzero count in a bin are eligible for that bin's
    table. Selection is by count descending, then key ascending, so the
    result is independent of input ordering.
    """
    m = cfg.top_m
    keys, values = batch.matrix()
    tops = []
    for t in range(batch.bins):
        col = values[:, t]
        # keys are presorted ascending, so a stable sort on -count keeps
        # the smaller key first among equal counts
        order = np.argsort(-col, kind="stable")[:m]
        order = order[col[order] > 0]
        entries = tuple((int(keys[i]), int(col[i])) for i in order)
        bound = entries[-1][1] if len(entries) == m else 0
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


def censor(batch: WindowBatch, tops: Sequence[TopSet], key: int) -> CensoredSeries:
    """Censored series of one key against the window's top tables.

    Bins where the key was retained carry its true count and an
    observed flag; elsewhere the bin carries the table's censor bound
    as an upper bound.
    """
    if key not in batch.series:
        raise KeyError(f"key {key} did not appear in the window")
    raw = batch.series[key].values
    x = np.empty(batch.bins, dtype=np.int64)
    observed = np.zeros(batch.bins, dtype=bool)
    for ts in tops:
        t = ts.bin - 1
        if key in ts.members:
            x[t] = raw[t]
            observed[t] = True
        else:
            x[t] = ts.censor_bound
    return CensoredSeries(key=key, x=x, observed=observed)


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
    series = [censor(batch, tops, key) for key in cands]
    out = statistic_batch(
        np.array([s.x for s in series]).reshape(len(cands), batch.bins),
        np.array([s.observed for s in series]).reshape(len(cands), batch.bins),
    )
    keys = np.array(sorted(batch.series), dtype=np.int64)
    at = np.searchsorted(keys, cands)
    p_value = np.full(keys.size, NEVER_TESTED)
    stat, change_bin = np.zeros(keys.size), np.zeros(keys.size, dtype=np.int64)
    p_value[at], stat[at], change_bin[at] = out.p_value, out.w_stat, out.change_bin
    return Scores(
        batch.window_index, DetectionMethod.TOPRANK, keys, p_value, p_value, stat, change_bin
    )


def run_window(
    batch: WindowBatch,
    cfg: WindowConfig,
    budget: Optional[int] = None,
) -> list[Alarm]:
    """Alarms of one window (see `score_window`), sorted by p-value."""
    return to_alarms(score_window(batch, cfg, budget), cfg.level_alpha)
