import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import top_candidates, top_candidates_budget, top_censor, top_tables

from flowrank.model import WindowBatch, WindowConfig
from flowrank.ranktest import (
    NEVER_TESTED,
    CensoredSeries,
    alarm_order,
    statistic,
    statistic_batch,
)
from flowrank.synth import SynthConfig, generate
from flowrank.toprank import (
    TopTable,
    candidates,
    censor,
    score_window,
    top_filter,
)


def batch_from_matrix(values_by_key, bins):
    keys = sorted(k for k, v in values_by_key.items() if np.asarray(v).any())
    counts = np.array([values_by_key[k] for k in keys]).reshape(len(keys), bins)
    return WindowBatch(window_index=0, start_time=0.0, keys=keys, counts=counts)


def test_top_filter_tie_at_boundary_prefers_smaller_key():
    batch = batch_from_matrix(
        {1: [9, 0], 2: [7, 0], 3: [7, 0], 4: [1, 0]}, bins=2
    )
    table = top_filter(batch, WindowConfig(bins_per_window=2, top_m=2))
    assert table.rows[0].tolist() == [0, 1]  # keys 1 and 2
    assert table.censor_bound[0] == 7


def test_top_filter_partial_table_has_zero_bound():
    batch = batch_from_matrix({1: [9, 0], 2: [7, 0]}, bins=2)
    table = top_filter(batch, WindowConfig(bins_per_window=2, top_m=5))
    # all active keys retained; an unselected key had no traffic, so the
    # censoring bound of a non-full table is zero
    assert table.rows[0].tolist() == [0, 1]
    assert table.censor_bound[0] == 0


def test_top_filter_exactly_full_table_bound_is_smallest_kept():
    batch = batch_from_matrix({1: [9, 0], 2: [7, 0]}, bins=2)
    table = top_filter(batch, WindowConfig(bins_per_window=2, top_m=2))
    assert table.censor_bound[0] == 7


def test_top_filter_empty_bin():
    batch = batch_from_matrix({1: [3, 0]}, bins=2)
    table = top_filter(batch, WindowConfig(bins_per_window=2, top_m=4))
    # a table is no wider than the window has keys
    assert table.rows.tolist() == [[0], [-1]]
    assert table.censor_bound.tolist() == [0, 0]


def test_top_filter_memory_is_bounded_by_table_size():
    rng = np.random.default_rng(0)
    batch = batch_from_matrix(
        {k: rng.integers(0, 50, 12) for k in range(1, 200)}, bins=12
    )
    cfg = WindowConfig(bins_per_window=12, top_m=7)
    table = top_filter(batch, cfg)
    assert table.rows.shape == (cfg.bins_per_window, cfg.top_m)
    assert table.rows.min() >= 0  # every bin is full


def leaders_tops():
    # per-bin leaders A,B,A; second rank C,C,D (keys 1..4, batch rows 0..3)
    batch = batch_from_matrix(
        {1: [9, 0, 7], 2: [0, 8, 0], 3: [5, 4, 0], 4: [0, 0, 3]}, bins=3
    )
    table = top_filter(batch, WindowConfig(bins_per_window=3, top_m=2))
    assert table.rows.tolist() == [[0, 2], [1, 2], [0, 3]]
    assert table.censor_bound.tolist() == [5, 4, 3]
    return table


def test_candidates_union_of_leaders():
    assert candidates(leaders_tops(), 1).tolist() == [0, 1]


def test_candidates_full_depth_covers_all_entries():
    # rank-major: the leaders A, B, then the second ranks C, D
    assert candidates(leaders_tops(), 2).tolist() == [0, 1, 2, 3]


def test_candidates_empty_tops():
    empty = TopTable(rows=np.full((1, 2), -1), censor_bound=np.zeros(1, dtype=np.int64))
    assert candidates(empty, 1).tolist() == []
    assert candidates(empty, 2, 5).tolist() == []


def test_candidates_budget_rank_major_traversal():
    assert candidates(leaders_tops(), 2, 3).tolist() == [0, 1, 2]


def test_candidates_budget_exhausts_distinct_keys():
    assert candidates(leaders_tops(), 2, 99).tolist() == [0, 1, 2, 3]


def test_candidates_budget_single():
    assert candidates(leaders_tops(), 2, 1).tolist() == [0]


def test_candidates_need_a_positive_depth_and_budget():
    with pytest.raises(ValueError, match="^depth must be at least 1$"):
        candidates(leaders_tops(), 0)
    with pytest.raises(ValueError, match="^budget must be at least 1$"):
        candidates(leaders_tops(), 2, 0)
    with pytest.raises(ValueError, match="^depth must be an integer$"):
        candidates(leaders_tops(), 1.5)
    with pytest.raises(ValueError, match="^budget must be an integer$"):
        candidates(leaders_tops(), 2, True)


def test_censor_fully_selected_key_is_uncensored():
    rng = np.random.default_rng(1)
    values = rng.integers(1, 30, 8)
    batch = batch_from_matrix({1: values, 2: np.ones(8, dtype=int)}, bins=8)
    table = top_filter(batch, WindowConfig(bins_per_window=8, top_m=2))
    x, observed = censor(batch, table, [0])
    assert observed.all()
    assert np.array_equal(x, [values])
    full = statistic(CensoredSeries(1, x[0], observed[0]))
    raw = statistic_batch(values[None])
    assert full.w_stat == raw.w_stat[0] and full.change_bin == raw.change_bin[0]


def test_censor_never_selected_key_is_all_bounds():
    batch = batch_from_matrix(
        {1: [9, 8, 7], 2: [5, 6, 4], 3: [1, 1, 1]}, bins=3
    )
    table = top_filter(batch, WindowConfig(bins_per_window=3, top_m=2))
    x, observed = censor(batch, table, [2])
    assert not observed.any()
    assert np.array_equal(x, [[5, 6, 4]])


def test_censor_tie_loser_gets_bound_even_at_equal_value():
    batch = batch_from_matrix(
        {1: [9, 0], 2: [7, 0], 3: [7, 0], 4: [1, 0]}, bins=2
    )
    table = top_filter(batch, WindowConfig(bins_per_window=2, top_m=2))
    x, observed = censor(batch, table, [2])
    assert x[0, 0] == 7 and not observed[0, 0]


def test_censor_rows_outside_the_window_are_an_error():
    batch = batch_from_matrix({1: [1, 2]}, bins=2)
    table = top_filter(batch, WindowConfig(bins_per_window=2, top_m=1))
    for rows in ([0, 1], [-1], [0, 42]):
        with pytest.raises(ValueError):
            censor(batch, table, rows)


@pytest.mark.parametrize("rows", [[1.7], [True], np.array([0.0])])
def test_censor_rows_that_are_not_integers_are_an_error(rows):
    batch = batch_from_matrix({1: [1, 2], 2: [3, 4]}, bins=2)
    table = top_filter(batch, WindowConfig(bins_per_window=2, top_m=1))
    with pytest.raises(ValueError, match="^rows must be integers that fit 64 bits$"):
        censor(batch, table, rows)


def test_censoring_soundness_on_random_batches():
    rng = np.random.default_rng(7)
    for _ in range(20):
        batch = batch_from_matrix(
            {k: rng.poisson(1.0, 10) for k in range(1, 40)}, bins=10
        )
        cfg = WindowConfig(bins_per_window=10, top_m=5)
        table = top_filter(batch, cfg)
        x, observed = censor(batch, table, np.arange(batch.num_keys))
        raw = batch.counts
        assert np.all(x >= raw)
        assert np.array_equal(x[observed], raw[observed])
        for row in range(0, batch.num_keys, 7):
            one = censor(batch, table, [row])
            assert np.array_equal(one[0][0], x[row]) and np.array_equal(one[1][0], observed[row])


def test_candidate_set_grows_with_filter_depth():
    rng = np.random.default_rng(19)
    batch = batch_from_matrix(
        {k: rng.poisson(1.5, 8) for k in range(1, 50)}, bins=8
    )
    previous: set[int] = set()
    for m in (1, 2, 4, 8, 16):
        table = top_filter(batch, WindowConfig(bins_per_window=8, top_m=m, keep_mprime=m))
        current = set(candidates(table, m).tolist())
        assert previous <= current
        previous = current


def test_strict_bin_maximum_is_always_a_candidate():
    rng = np.random.default_rng(13)
    for _ in range(20):
        batch = batch_from_matrix(
            {k: rng.poisson(2.0, 6) for k in range(1, 30)}, bins=6
        )
        table = top_filter(batch, WindowConfig(bins_per_window=6, top_m=3))
        cands = set(candidates(table, 1).tolist())
        for col in batch.counts.T:
            if not col.any():
                continue
            top = col.max()
            if (col == top).sum() == 1:
                assert int(col.argmax()) in cands


def test_run_window_detects_injected_jump():
    cfg = SynthConfig(dim=100, bins=60, change_rank=10, change_bin=35, factor=8.0, seed=4)
    batch = generate(cfg)
    wcfg = WindowConfig(bins_per_window=60, top_m=10, keep_mprime=1, level_alpha=1e-4)
    scores = score_window(batch, wcfg)
    at = alarm_order(scores, wcfg.level_alpha)
    keys = scores.keys[at].tolist()
    assert 10 in keys
    assert abs(scores.change_bin[at[keys.index(10)]] - 35) <= 3
    alarms = list(zip(scores.p_report[at].tolist(), keys))
    assert alarms == sorted(alarms)


def test_run_window_constant_traffic_never_alarms():
    batch = batch_from_matrix({k: [5] * 12 for k in range(1, 6)}, bins=12)
    wcfg = WindowConfig(bins_per_window=12, top_m=3, level_alpha=0.5)
    assert alarm_order(score_window(batch, wcfg), wcfg.level_alpha).size == 0


def test_run_window_budget_counts_tested_series():
    cfg = SynthConfig(dim=500, bins=60, change_rank=50, change_bin=35, factor=5.0, seed=2)
    batch = generate(cfg)
    wcfg = WindowConfig(bins_per_window=60, top_m=50, keep_mprime=1, level_alpha=1e-3, budget=136)
    table = top_filter(batch, wcfg)
    assert len(candidates(table, wcfg.top_m, wcfg.budget)) == 136
    scores = score_window(batch, wcfg)
    assert (scores.p_alarm != NEVER_TESTED).sum() == 136
    assert alarm_order(scores, wcfg.level_alpha).size <= 136


def random_window(rng, n):
    """A window of n keys with ties at every rank, empty bins and negative keys."""
    bins = int(rng.integers(2, 12))
    keys = np.sort(rng.choice(np.arange(-400, 400), n, replace=False))
    counts = rng.integers(0, 4, (n, bins)) * (rng.random((1, bins)) < 0.8)
    return WindowBatch(0, 0.0, keys, counts)


def test_tables_candidates_and_scores_match_the_tuple_oracle():
    rng = np.random.default_rng(61)
    for i in range(300):
        # every N in 0..59 meets M from 1 to 14, above and below it
        batch, top_m = random_window(rng, i % 60), 1 + i % 14
        tables = top_tables(batch.keys, batch.counts, top_m)
        table = top_filter(batch, WindowConfig(bins_per_window=batch.bins, top_m=top_m))
        kept = [[int(batch.keys[r]) for r in line if r >= 0] for line in table.rows]
        assert kept == [[k for k, _ in entries] for entries, _ in tables]
        assert table.censor_bound.tolist() == [bound for _, bound in tables]
        budgets = [*(int(b) for b in rng.integers(1, 80, 2)), batch.num_keys + 1]
        for keep, budget in [*((k, None) for k in range(1, top_m + 1)), *((1, b) for b in budgets)]:
            cfg = WindowConfig(bins_per_window=batch.bins, top_m=top_m, keep_mprime=keep, budget=budget)
            rows = candidates(table, keep if budget is None else top_m, budget)
            if budget is None:
                # rank-major over the top `keep` ranks; the same set as the bin-major rule
                want = top_candidates_budget([(e[:keep], b) for e, b in tables], batch.num_keys)
                assert set(want) == set(top_candidates(tables, keep))
            else:
                want = top_candidates_budget(tables, budget)
            assert batch.keys[rows].tolist() == want
            x, observed = censor(batch, table, rows)
            want_x, want_observed = top_censor(tables, want)
            assert x.dtype == want_x.dtype and np.array_equal(x, want_x)
            assert np.array_equal(observed, want_observed)
            scores = score_window(batch, cfg)
            out = statistic_batch(want_x, want_observed)
            tested = np.isin(batch.keys, want)
            at = np.searchsorted(batch.keys, want)
            assert np.array_equal(scores.p_alarm[at], out.p_value)
            assert np.array_equal(scores.stat[at], out.w_stat)
            assert np.array_equal(scores.change_bin[at], out.change_bin)
            assert (scores.p_alarm[~tested] == NEVER_TESTED).all()
            assert not scores.stat[~tested].any() and not scores.change_bin[~tested].any()


def test_score_window_of_empty_window():
    # a window whose records all miss the metric (say, only UDP under syn)
    batch = batch_from_matrix({}, bins=4)
    cfg = WindowConfig(bins_per_window=4, top_m=3, level_alpha=0.5)
    for budget in (None, 136):
        scores = score_window(batch, replace(cfg, budget=budget))
        assert scores.keys.size == scores.p_alarm.size == scores.stat.size == 0
        assert alarm_order(scores, cfg.level_alpha).size == 0


def test_score_window_memory_is_far_below_the_count_matrix():
    # per-bin selection needs one column of scratch; sorting the whole
    # N x P matrix at once would need about twice the matrix
    rng = np.random.default_rng(5)
    batch = WindowBatch(0, 0.0, np.arange(12_000), rng.poisson(1.0, (12_000, 60)))
    cfg = WindowConfig(bins_per_window=60, top_m=50)
    tracemalloc.start()
    try:
        for budget in (None, 136):
            tracemalloc.reset_peak()
            score_window(batch, replace(cfg, budget=budget))
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < batch.counts.nbytes / 4, (budget, peak)
    finally:
        tracemalloc.stop()
