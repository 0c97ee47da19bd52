"""Record-filtering pipeline: per-bin top-M tables, candidate selection
and censored-series construction feeding the rank test.

Keeping only the M largest counts of each bin bounds per-window memory
by an M x P table. A key outside a bin's top set has its value censored
from above by the smallest retained count of that bin, which is exactly
the information the filtering preserves.

The tables (`TopTable`) and the candidates are batch row indices, as
HashRank's `SketchTable.buckets` are; keys appear only in the `Scores`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import WindowBatch, WindowConfig
from .ranktest import NEVER_TESTED, Scores, statistic_batch


@dataclass(frozen=True, eq=False)
class TopTable:
    """Heavy hitters of every bin of a window, as batch rows.

    `rows[t, r]` (intp[P, min(M, N)]) is the batch row holding rank r+1
    of bin t+1, ordered by count descending, then key ascending; entries
    after the bin's last nonzero count are -1. `censor_bound[t]`
    (int64[P]) is the smallest retained count when bin t+1's table is
    full (M entries), and 0 when fewer than M keys were active (every
    unselected key then had no traffic).
    """

    rows: np.ndarray
    censor_bound: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.rows, self.censor_bound):
            arr.setflags(write=False)


def top_filter(batch: WindowBatch, cfg: WindowConfig) -> TopTable:
    """Build the per-bin top-M tables of a window.

    Only keys with a nonzero count in a bin are eligible for that bin's
    table. Selection is by count descending, then key ascending, so the
    result is independent of input ordering. Each bin is sorted on its
    own, so the scratch memory is one column, not the N x P matrix.
    """
    rows = np.full((batch.bins, min(cfg.top_m, batch.num_keys)), -1, dtype=np.intp)
    bound = np.zeros(batch.bins, dtype=np.int64)
    for t, col in enumerate(batch.counts.T):
        # keys are presorted ascending, so a stable sort on -count keeps
        # the smaller key first among equal counts
        order = np.argsort(-col, kind="stable")[: cfg.top_m]
        order = order[col[order] > 0]
        rows[t, : order.size] = order
        if order.size == cfg.top_m:
            bound[t] = col[order[-1]]
    return TopTable(rows=rows, censor_bound=bound)


def _first_appearances(rows: np.ndarray) -> np.ndarray:
    """The distinct rows (-1 aside) of a table slice, in C order of first appearance."""
    flat = rows.ravel()
    distinct, first = np.unique(flat[flat >= 0], return_index=True)
    return distinct[np.argsort(first)]


def candidates(table: TopTable, keep_mprime: int) -> np.ndarray:
    """Rows holding one of the top `keep_mprime` ranks in some bin.

    Ordered by first appearance, scanning bins in time order and ranks
    within each bin.
    """
    if keep_mprime < 1:
        raise ValueError("keep_mprime must be at least 1")
    return _first_appearances(table.rows[:, :keep_mprime])


def candidates_budget(table: TopTable, n: int) -> np.ndarray:
    """First `n` distinct rows in rank-major traversal of the top tables.

    The traversal visits every bin's rank-1 row, then every bin's rank-2
    row, and so on; it is the fixed-budget candidate rule used when the
    number of tested series must match another method's.
    """
    if n < 1:
        raise ValueError("budget must be at least 1")
    return _first_appearances(table.rows.T)[:n]


def censor(
    batch: WindowBatch, table: TopTable, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Censored series of batch `rows` against the window's top tables.

    Returns x int64[C, P] and observed bool[C, P], line c for rows[c].
    Bins where a row was retained carry its true count and an observed
    flag; elsewhere the bin carries the table's censor bound as an
    upper bound.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    if rows.size and not 0 <= rows.min() <= rows.max() < batch.num_keys:
        raise ValueError(f"rows must lie in 0..{batch.num_keys - 1}")
    # slot of every batch row among `rows`, C for the rest; the extra
    # last entry is where a table's -1 (no entry) looks up
    slot = np.full(batch.num_keys + 1, rows.size, dtype=np.intp)
    slot[rows] = np.arange(rows.size)
    observed = np.zeros((rows.size + 1, batch.bins), dtype=bool)
    observed[slot[table.rows], np.arange(batch.bins)[:, None]] = True
    observed = observed[:-1]
    return np.where(observed, batch.counts[rows], table.censor_bound), observed


def score_window(
    batch: WindowBatch,
    cfg: WindowConfig,
    budget: Optional[int] = None,
) -> Scores:
    """Filter, censor and test one window; untested keys score `NEVER_TESTED`.

    With `budget` set, candidates come from the fixed-budget rank-major
    rule instead of the keep_mprime union.
    """
    table = top_filter(batch, cfg)
    if budget is None:
        rows = candidates(table, cfg.keep_mprime)
    else:
        rows = candidates_budget(table, budget)
    out = statistic_batch(*censor(batch, table, rows))
    n = batch.num_keys
    p_value, stat, change_bin = np.full(n, NEVER_TESTED), np.zeros(n), np.zeros(n, np.int64)
    p_value[rows], stat[rows], change_bin[rows] = out.p_value, out.w_stat, out.change_bin
    return Scores(batch.keys, p_value, p_value, stat, change_bin)
