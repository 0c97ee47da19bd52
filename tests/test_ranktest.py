import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowrank import ranktest
from flowrank.model import MAX_BINS
from flowrank.ranktest import (
    NEVER_TESTED,
    CensoredSeries,
    Scores,
    alarm_order,
    pvalue,
    score_pair,
    statistic,
    statistic_batch,
)

from oracles import alarm_order as tuple_alarm_order
from oracles import bridge_tail, brute_statistic, cube_statistic


def all_observed(x):
    """`statistic` on a series whose every bin is observed."""
    return statistic(CensoredSeries(0, x, np.ones(len(x), dtype=bool)))


def random_censored(rng, n):
    x = rng.integers(0, 8, n)
    observed = rng.random(n) < 0.7
    return CensoredSeries(key=1, x=x, observed=observed)


# --- score_pair ---------------------------------------------------------


@pytest.mark.parametrize(
    "xs,ds,xt,dt,expected",
    [
        (5, True, 3, True, 1),
        (3, False, 3, False, 0),
        (2, False, 5, True, -1),
        (5, False, 3, True, 0),  # censored larger value cannot witness
        (2, True, 5, False, 0),  # censored smaller side cannot witness
    ],
)
def test_score_pair_examples(xs, ds, xt, dt, expected):
    assert score_pair(xs, ds, xt, dt) == expected


@given(
    st.integers(0, 50), st.booleans(), st.integers(0, 50), st.booleans()
)
def test_score_pair_antisymmetric(xs, ds, xt, dt):
    assert score_pair(xs, ds, xt, dt) == -score_pair(xt, dt, xs, ds)


@given(st.integers(0, 50), st.booleans())
def test_score_pair_diagonal(v, d):
    assert score_pair(v, d, v, d) == 0


# --- statistic ----------------------------------------------------------


def test_statistic_step_series():
    out = statistic(CensoredSeries(1, [1, 1, 5, 5], [1, 1, 1, 1]))
    ref = brute_statistic([1, 1, 5, 5], [True] * 4)
    assert ref["u"] == [-2, -2, 2, 2]
    assert ref["s_path"] == [-0.5, -1.0, -0.5, 0.0]
    assert list(out.u_scores) == [-2, -2, 2, 2]
    assert out.w_stat == 1.0
    assert out.change_bin == 2
    assert np.array_equal(out.s_path, ref["s_path"])
    assert out.p_value == pytest.approx(0.2699996717, abs=1e-9)
    assert not out.degenerate


def test_statistic_constant_series_degenerate():
    out = statistic(CensoredSeries(1, [4, 4, 4, 4], [1, 1, 1, 1]))
    assert out.degenerate
    assert out.p_value == 1.0
    assert out.w_stat == 0.0
    assert out.change_bin == 1
    assert np.array_equal(out.s_path, np.zeros(4))


@pytest.mark.parametrize("n", [2, 5, 9, 60])
def test_statistic_strictly_increasing_matches_brute(n):
    x = list(range(1, n + 1))
    out = all_observed(x)
    ref = brute_statistic(x, [True] * n)
    # the per-bin score sums of a strictly increasing observed series
    assert ref["u"] == [2 * s - 1 - n for s in range(1, n + 1)]
    assert list(out.u_scores) == ref["u"]
    assert out.w_stat == ref["w"]
    assert out.change_bin == ref["change_bin"]
    assert np.array_equal(out.s_path, ref["s_path"])


def test_statistic_matches_bruteforce_on_random_series():
    rng = np.random.default_rng(5)
    # (bins, rows, transform): 330 short tie-heavy series, then batches
    # spanning several kernel blocks, raw and under exp
    cases = [(n, 30, None) for n in range(2, 13)] + [(40, 150, None), (40, 150, np.exp)]
    for n, rows, transform in cases:
        batch = [random_censored(rng, n) for _ in range(rows)]
        if transform is not None:
            batch = [CensoredSeries(s.key, transform(s.x), s.observed) for s in batch]
        x = np.stack([s.x for s in batch])
        observed = np.stack([s.observed for s in batch])
        many = statistic_batch(x, observed)
        # one `pvalue` call per distinct statistic gives every row's p-value bit for bit
        assert many.p_value.tolist() == [pvalue(b) for b in many.w_stat.tolist()]
        for i, series in enumerate(batch):
            out = statistic(series)
            ref = brute_statistic(list(series.x), list(series.observed))
            assert out.degenerate == ref["degenerate"] == many.degenerate[i]
            assert list(out.u_scores) == ref["u"]
            assert list(out.s_path) == ref["s_path"]
            assert out.w_stat == many.w_stat[i]
            assert out.p_value == many.p_value[i]
            assert out.change_bin == many.change_bin[i]
            if not ref["degenerate"]:
                assert out.w_stat == ref["w"]
                assert out.change_bin == ref["change_bin"]
        uncensored = statistic_batch(x)
        assert uncensored.p_value.tolist() == [pvalue(b) for b in uncensored.w_stat.tolist()]
        for i in range(rows):
            out = all_observed(x[i])
            assert out.w_stat == uncensored.w_stat[i]
            assert out.p_value == uncensored.p_value[i]
            assert out.change_bin == uncensored.change_bin[i]
            assert out.degenerate == uncensored.degenerate[i]


def kernel_cases(rng):
    """(name, x, observed) blocks on the edges of the sort kernel."""
    ties = rng.integers(0, 3, (300, 9))
    near = 2**32 - 1 - rng.integers(0, 4, (200, 10))
    cases = [
        ("two bins", rng.integers(0, 3, (200, 2)), rng.random((200, 2)) < 0.5),
        ("constant rows", np.full((20, 7), 4), rng.random((20, 7)) < 0.5),
        ("all censored", rng.integers(0, 5, (50, 8)), np.zeros((50, 8), dtype=bool)),
        ("one observed bin", rng.integers(0, 4, (60, 6)), np.eye(6, dtype=bool)[rng.integers(0, 6, 60)]),
        ("heavy ties", ties, rng.random((300, 9)) < 0.6),
        ("heavy ties, exp", np.exp(ties), rng.random((300, 9)) < 0.6),
        ("near 2^32", near, rng.random((200, 10)) < 0.7),
        ("near 2^32, exp", np.exp(near / 2**28), rng.random((200, 10)) < 0.7),
    ]
    rows = 2 * ranktest._BLOCK_ROWS + 37  # three kernel blocks, the last partial
    cases.append(("several blocks", rng.poisson(2.0, (rows, 12)), rng.random((rows, 12)) < 0.8))
    return cases


def test_statistic_batch_matches_cube_and_brute_oracles():
    rng = np.random.default_rng(17)
    for name, x, observed in kernel_cases(rng):
        many = statistic_batch(x, observed)
        cube = cube_statistic(x, observed)
        assert np.array_equal(many.w_stat, cube["w"]), name
        assert np.array_equal(many.change_bin, cube["change_bin"]), name
        assert np.array_equal(many.degenerate, cube["degenerate"]), name
        assert many.p_value.tolist() == [pvalue(b) for b in cube["w"].tolist()], name
        for i in range(x.shape[0]):
            one = statistic(CensoredSeries(1, x[i], observed[i]))
            ref = brute_statistic(x[i].tolist(), observed[i].tolist())
            assert one.u_scores.tolist() == cube["u"][i].tolist() == ref["u"], name
            assert one.s_path.tolist() == cube["s_path"][i].tolist() == ref["s_path"], name
            assert many.w_stat[i] == ref["w"] and many.change_bin[i] == ref["change_bin"], name
            assert many.degenerate[i] == ref["degenerate"], name


def test_statistic_batch_empty_and_shape_checks():
    out = statistic_batch(np.zeros((0, 5)))
    assert out.w_stat.shape == out.p_value.shape == out.change_bin.shape == (0,)
    with pytest.raises(ValueError):
        statistic_batch(np.zeros(5))
    with pytest.raises(ValueError):
        statistic_batch(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        statistic_batch(np.zeros((3, 4)), np.ones((3, 5), dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_values_rejected(bad):
    with pytest.raises(ValueError):
        CensoredSeries(1, [1.0, bad, 2.0], [1, 1, 1])
    x = np.ones((70, 4))
    x[68, 2] = bad  # in the second kernel block
    with pytest.raises(ValueError):
        statistic_batch(x)
    with pytest.raises(ValueError):
        statistic_batch([[1.0, bad, 2.0]])


def test_kernel_rejects_more_bins_than_its_int64_sums_hold():
    # sum(u^2) <= P(P-1)^2 wraps int64 near P = 3.03M; 2^21 is the bound
    assert MAX_BINS * (MAX_BINS - 1) ** 2 < 2**63
    wide = np.broadcast_to(np.float64(1.0), (3, MAX_BINS + 1))  # no memory behind it
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^21"):
            statistic_batch(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # raised before the default flags or any block existed
    with patch.object(ranktest, "MAX_BINS", 4):
        statistic_batch(np.ones((2, 4)))
        statistic(CensoredSeries(0, [1.0, 2.0, 3.0, 4.0], [True] * 4))
        with pytest.raises(ValueError):
            statistic_batch(np.ones((2, 5)))
        with pytest.raises(ValueError):
            statistic(CensoredSeries(0, [1.0, 2.0, 3.0, 4.0, 5.0], [True] * 5))


def test_statistic_rejects_single_bin():
    with pytest.raises(ValueError):
        statistic_batch([[3.0]])


def test_two_point_uncensored():
    out = all_observed([1, 2])
    assert list(out.s_path) == [-1 / math.sqrt(2), 0.0]
    assert out.w_stat == 1 / math.sqrt(2)
    assert out.change_bin == 1


def test_uncensored_equals_all_observed_flags():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.integers(0, 20, 15)
        a = statistic_batch(x[None])
        b = statistic(CensoredSeries(1, x, np.ones(15, dtype=bool)))
        assert a.w_stat[0] == b.w_stat and a.p_value[0] == b.p_value
        assert a.change_bin[0] == b.change_bin and a.degenerate[0] == b.degenerate


@settings(max_examples=60)
@given(arrays(np.int64, st.integers(2, 20), elements=st.integers(0, 30)))
def test_terminal_path_value_is_zero(x):
    out = all_observed(x)
    assert out.s_path[-1] == 0.0


def test_rank_invariance_under_monotone_transforms():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        series = random_censored(rng, n)
        base = statistic(series)
        for transform in (lambda v: 3 * v + 2, np.exp):
            mapped = statistic(
                CensoredSeries(series.key, transform(series.x), series.observed)
            )
            assert mapped.w_stat == base.w_stat
            assert mapped.p_value == base.p_value
            assert mapped.change_bin == base.change_bin
            assert mapped.degenerate == base.degenerate
            assert np.array_equal(mapped.s_path, base.s_path)


# --- pvalue -------------------------------------------------------------


def test_pvalue_at_zero_is_one():
    assert pvalue(0.0) == 1.0


def test_pvalue_classical_quantiles():
    assert 0.0498 <= pvalue(1.3581) <= 0.0502
    assert 0.0098 <= pvalue(1.6276) <= 0.0102


def test_pvalue_negative_rejected():
    with pytest.raises(ValueError):
        pvalue(-0.1)


def test_pvalue_nan_rejected():
    with pytest.raises(ValueError):
        pvalue(float("nan"))


def test_pvalue_far_tail():
    assert pvalue(4.0) < 1e-12


def test_pvalue_matches_independent_series():
    for b in np.linspace(0.05, 4.0, 80):
        assert pvalue(float(b)) == pytest.approx(bridge_tail(float(b)), abs=2e-12)
        assert pvalue(float(b)) == pytest.approx(
            scipy.special.kolmogorov(float(b)), abs=1e-10
        )


def test_pvalue_monotone_and_continuous():
    grid = np.linspace(0.0, 5.0, 1000)
    values = [pvalue(float(b)) for b in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    deltas = [abs(a - b) for a, b in zip(values, values[1:])]
    assert max(deltas) < 0.02  # no jumps on a 5e-3 grid


# --- alarm_order --------------------------------------------------------


def alarm_of(series, level_alpha):
    """(key, p_value, change_bin) of one censored series' alarm through the batch kernel, or None."""
    w_stat, p_value, change_bin, _ = statistic_batch(series.x[None], series.observed[None])
    scores = Scores(np.array([series.key]), p_value, p_value, w_stat, change_bin)
    at = alarm_order(scores, level_alpha)
    if not at.size:
        return None
    return int(scores.keys[at[0]]), float(scores.p_report[at[0]]), int(scores.change_bin[at[0]])


def test_detect_alarms_step_series():
    alarm = alarm_of(CensoredSeries(9, [1, 1, 5, 5], [1, 1, 1, 1]), 0.5)
    assert alarm is not None
    key, p_value, change_bin = alarm
    assert key == 9
    assert change_bin == 2
    assert p_value < 0.5


def test_detect_degenerate_never_alarms():
    assert alarm_of(CensoredSeries(1, [2, 2, 2], [1, 1, 1]), 0.5) is None
    assert alarm_of(CensoredSeries(1, [2, 2, 2], [1, 1, 1]), 1 - 1e-12) is None


def test_detect_threshold_monotone():
    series = CensoredSeries(1, list(range(60)), [1] * 60)
    assert alarm_of(series, 1e-12) is None or statistic(series).p_value < 1e-12
    assert alarm_of(series, 0.9) is not None


def test_detect_level_validation():
    series = CensoredSeries(1, [1, 2, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        alarm_of(series, 0.0)
    with pytest.raises(ValueError):
        alarm_of(series, 1.0)


def test_alarm_order_sorts_by_reported_pvalue_then_key():
    scores = Scores(
        keys=np.array([3, 5, 7, 9]),
        p_alarm=np.array([0.01, 0.2, 0.01, 2.0]),
        p_report=np.array([0.004, 0.001, 0.004, 0.0]),
        stat=np.array([1.5, 1.9, 1.5, 0.0]),
        change_bin=np.array([4, 2, 6, 0]),
    )
    at = alarm_order(scores, 0.05)
    assert at.tolist() == [0, 2]
    assert scores.change_bin[at].tolist() == [4, 6]


def test_alarm_order_matches_the_tuple_sort():
    rng = np.random.default_rng(8)
    # few distinct values, so reported and alarm p-values tie across keys
    grid = np.array([0.0, 1e-9, 1e-3, 0.01, 0.2, 0.5, 1.0])
    for i in range(400):
        n = i % 50  # includes the empty window
        keys = np.sort(rng.choice(np.arange(-500, 500), n, replace=False))
        p_report = rng.choice(grid, n)
        p_alarm = np.maximum(p_report, rng.choice(grid, n))
        if i % 4 == 0:
            p_alarm[rng.random(n) < 0.3] = NEVER_TESTED
        if i % 4 == 1:
            # every key tested and below 1: at 1 - 1e-12 the window alarms on all of them
            p_alarm = np.minimum(p_alarm, 0.5)
        scores = Scores(keys, p_alarm, p_report, np.zeros(n), np.ones(n, np.int64))
        for level_alpha in (1e-6, 0.01, 0.3, 1 - 1e-12):
            want = tuple_alarm_order(keys, p_alarm, p_report, level_alpha)
            assert alarm_order(scores, level_alpha).tolist() == want
        if i % 4 == 1:
            assert sorted(alarm_order(scores, 1 - 1e-12).tolist()) == list(range(n))
