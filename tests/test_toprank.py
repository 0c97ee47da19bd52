import numpy as np
import pytest

from flowrank.model import WindowBatch, WindowConfig
from flowrank.ranktest import CensoredSeries, statistic, statistic_uncensored
from flowrank.synth import SynthConfig, generate, to_window_batch
from flowrank.toprank import (
    TopSet,
    candidates,
    candidates_budget,
    censor,
    run_window,
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
    tops = top_filter(batch, WindowConfig(bins_per_window=2, top_m=2))
    assert tops[0].entries == ((1, 9), (2, 7))
    assert tops[0].censor_bound == 7


def test_top_filter_partial_table_has_zero_bound():
    batch = batch_from_matrix({1: [9, 0], 2: [7, 0]}, bins=2)
    tops = top_filter(batch, WindowConfig(bins_per_window=2, top_m=5))
    # all active keys retained; an unselected key had no traffic, so the
    # censoring bound of a non-full table is zero
    assert tops[0].entries == ((1, 9), (2, 7))
    assert tops[0].censor_bound == 0


def test_top_filter_exactly_full_table_bound_is_smallest_kept():
    batch = batch_from_matrix({1: [9, 0], 2: [7, 0]}, bins=2)
    tops = top_filter(batch, WindowConfig(bins_per_window=2, top_m=2))
    assert tops[0].censor_bound == 7


def test_top_filter_empty_bin():
    batch = batch_from_matrix({1: [3, 0]}, bins=2)
    tops = top_filter(batch, WindowConfig(bins_per_window=2, top_m=4))
    assert tops[1].entries == ()
    assert tops[1].censor_bound == 0


def test_top_filter_memory_is_bounded_by_table_size():
    rng = np.random.default_rng(0)
    batch = batch_from_matrix(
        {k: rng.integers(0, 50, 12) for k in range(1, 200)}, bins=12
    )
    cfg = WindowConfig(bins_per_window=12, top_m=7)
    tops = top_filter(batch, cfg)
    assert sum(len(ts.entries) for ts in tops) <= cfg.top_m * cfg.bins_per_window


def leaders_tops():
    # per-bin leaders A,B,A; second rank C,C,D (keys 1..4)
    return [
        TopSet(bin=1, entries=((1, 9), (3, 5)), censor_bound=5),
        TopSet(bin=2, entries=((2, 8), (3, 4)), censor_bound=4),
        TopSet(bin=3, entries=((1, 7), (4, 3)), censor_bound=3),
    ]


def test_candidates_union_of_leaders():
    assert candidates(leaders_tops(), 1) == [1, 2]


def test_candidates_full_depth_covers_all_entries():
    tops = leaders_tops()
    assert set(candidates(tops, 2)) == {1, 2, 3, 4}


def test_candidates_empty_tops():
    empty = [TopSet(bin=1, entries=(), censor_bound=0)]
    assert candidates(empty, 1) == []


def test_candidates_budget_rank_major_traversal():
    assert candidates_budget(leaders_tops(), 3) == [1, 2, 3]


def test_candidates_budget_exhausts_distinct_keys():
    assert candidates_budget(leaders_tops(), 99) == [1, 2, 3, 4]


def test_candidates_budget_single():
    assert candidates_budget(leaders_tops(), 1) == [1]


def test_censor_fully_selected_key_is_uncensored():
    rng = np.random.default_rng(1)
    values = rng.integers(1, 30, 8)
    batch = batch_from_matrix({1: values, 2: np.ones(8, dtype=int)}, bins=8)
    tops = top_filter(batch, WindowConfig(bins_per_window=8, top_m=2))
    x, observed = censor(batch, tops, [1])
    assert observed.all()
    assert np.array_equal(x, [values])
    full = statistic(CensoredSeries(1, x[0], observed[0]))
    raw = statistic_uncensored(values)
    assert full.w_stat == raw.w_stat and full.change_bin == raw.change_bin


def test_censor_never_selected_key_is_all_bounds():
    batch = batch_from_matrix(
        {1: [9, 8, 7], 2: [5, 6, 4], 3: [1, 1, 1]}, bins=3
    )
    tops = top_filter(batch, WindowConfig(bins_per_window=3, top_m=2))
    x, observed = censor(batch, tops, [3])
    assert not observed.any()
    assert np.array_equal(x, [[5, 6, 4]])


def test_censor_tie_loser_gets_bound_even_at_equal_value():
    batch = batch_from_matrix(
        {1: [9, 0], 2: [7, 0], 3: [7, 0], 4: [1, 0]}, bins=2
    )
    tops = top_filter(batch, WindowConfig(bins_per_window=2, top_m=2))
    x, observed = censor(batch, tops, [3])
    assert x[0, 0] == 7 and not observed[0, 0]


def test_censor_unknown_key_is_an_error():
    batch = batch_from_matrix({1: [1, 2]}, bins=2)
    tops = top_filter(batch, WindowConfig(bins_per_window=2, top_m=1))
    with pytest.raises(KeyError):
        censor(batch, tops, [1, 42])


def test_censoring_soundness_on_random_batches():
    rng = np.random.default_rng(7)
    for _ in range(20):
        batch = batch_from_matrix(
            {k: rng.poisson(1.0, 10) for k in range(1, 40)}, bins=10
        )
        cfg = WindowConfig(bins_per_window=10, top_m=5)
        tops = top_filter(batch, cfg)
        x, observed = censor(batch, tops, batch.keys)
        raw = batch.counts
        assert np.all(x >= raw)
        assert np.array_equal(x[observed], raw[observed])
        for key in batch.keys[::7]:
            one = censor(batch, tops, [key])
            row = batch.keys.tolist().index(key)
            assert np.array_equal(one[0][0], x[row]) and np.array_equal(one[1][0], observed[row])


def test_candidate_set_grows_with_filter_depth():
    rng = np.random.default_rng(19)
    batch = batch_from_matrix(
        {k: rng.poisson(1.5, 8) for k in range(1, 50)}, bins=8
    )
    previous: set[int] = set()
    for m in (1, 2, 4, 8, 16):
        tops = top_filter(batch, WindowConfig(bins_per_window=8, top_m=m, keep_mprime=m))
        current = set(candidates(tops, m))
        assert previous <= current
        previous = current


def test_strict_bin_maximum_is_always_a_candidate():
    rng = np.random.default_rng(13)
    for _ in range(20):
        batch = batch_from_matrix(
            {k: rng.poisson(2.0, 6) for k in range(1, 30)}, bins=6
        )
        tops = top_filter(batch, WindowConfig(bins_per_window=6, top_m=3))
        cands = set(candidates(tops, 1))
        values, keys = batch.counts, batch.keys
        for t in range(6):
            col = values[:, t]
            if not col.any():
                continue
            top = col.max()
            if (col == top).sum() == 1:
                assert int(keys[col.argmax()]) in cands


def test_run_window_detects_injected_jump():
    cfg = SynthConfig(dim=100, bins=60, change_rank=10, change_bin=35, factor=8.0, seed=4)
    batch = to_window_batch(generate(cfg))
    wcfg = WindowConfig(bins_per_window=60, top_m=10, keep_mprime=1, level_alpha=1e-4)
    alarms = run_window(batch, wcfg)
    keys = [a.key for a in alarms]
    assert 10 in keys
    alarm = next(a for a in alarms if a.key == 10)
    assert abs(alarm.change_bin - 35) <= 3
    assert alarms == sorted(alarms, key=lambda a: (a.p_value, a.key))


def test_run_window_constant_traffic_never_alarms():
    batch = batch_from_matrix({k: [5] * 12 for k in range(1, 6)}, bins=12)
    wcfg = WindowConfig(bins_per_window=12, top_m=3, level_alpha=0.5)
    assert run_window(batch, wcfg) == []


def test_run_window_budget_counts_tested_series():
    cfg = SynthConfig(dim=500, bins=60, change_rank=50, change_bin=35, factor=5.0, seed=2)
    batch = to_window_batch(generate(cfg))
    wcfg = WindowConfig(bins_per_window=60, top_m=50, keep_mprime=1, level_alpha=1e-3)
    tops = top_filter(batch, wcfg)
    assert len(candidates_budget(tops, 136)) == 136
    alarms = run_window(batch, wcfg, budget=136)
    assert len(alarms) <= 136
