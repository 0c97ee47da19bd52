"""Record-filtering pipeline: per-bin top-M tables, candidate selection
and censored-series construction feeding the rank test.

Filtering keeps the M largest counts of each bin, an M x P table, and
censors a key outside a bin's top set from above by that bin's smallest
retained count: exactly the information the table preserves. This
implementation still holds the whole N x P window it builds them from.

The tables (`TopTable`) and the candidates are batch row indices, as
HashRank's `SketchTable.buckets` are; keys appear only in the `Scores`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import WindowBatch, WindowConfig, as_int64, check_int
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


def candidates(table: TopTable, depth: int, budget: Optional[int] = None) -> np.ndarray:
    """The first `budget` distinct rows (all of them when None) of the
    tables' top `depth` ranks, in rank-major order: every bin's rank-1
    row in time order, then every bin's rank-2 row, and so on."""
    check_int("depth", depth, 1)
    if budget is not None:
        check_int("budget", budget, 1)
    flat = table.rows[:, :depth].T.ravel()
    distinct, first = np.unique(flat[flat >= 0], return_index=True)
    return distinct[np.argsort(first)][:budget]


def censor(
    batch: WindowBatch, table: TopTable, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Censored series of batch `rows` against the window's top tables.

    Returns x int64[C, P] and observed bool[C, P], line c for rows[c].
    Bins where a row was retained carry its true count and an observed
    flag; elsewhere the bin carries the table's censor bound as an
    upper bound. `rows` that are not integers in 0..N-1 are a ValueError.
    """
    rows = as_int64(rows, "rows").reshape(-1)
    if rows.size and not 0 <= rows.min() <= rows.max() < batch.num_keys:
        raise ValueError(f"rows must lie in 0..{batch.num_keys - 1}")
    # kept[r, t]: batch row r is retained in bin t+1; a table's -1 (no
    # entry) lands on the spare last row
    kept = np.zeros((batch.num_keys + 1, batch.bins), dtype=bool)
    kept[table.rows, np.arange(batch.bins)[:, None]] = True
    observed = kept[rows]
    return np.where(observed, batch.counts[rows], table.censor_bound), observed


def score_window(batch: WindowBatch, cfg: WindowConfig) -> Scores:
    """Filter, censor and test one window; untested keys score `NEVER_TESTED`.

    Candidates are every row of the top `keep_mprime` ranks or, with
    `cfg.budget` set, the first `budget` rows of all `top_m` ranks.
    """
    table = top_filter(batch, cfg)
    depth = cfg.keep_mprime if cfg.budget is None else cfg.top_m
    rows = candidates(table, depth, cfg.budget)
    out = statistic_batch(*censor(batch, table, rows))
    n = batch.num_keys
    p_value, stat, change_bin = np.full(n, NEVER_TESTED), np.zeros(n), np.zeros(n, np.int64)
    p_value[rows], stat[rows], change_bin[rows] = out.p_value, out.w_stat, out.change_bin
    return Scores(batch.keys, p_value, p_value, stat, change_bin)
