import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowrank.model import DetectionMethod
from flowrank.ranktest import (
    CensoredSeries,
    Scores,
    pvalue,
    score_pair,
    statistic,
    statistic_batch,
    statistic_uncensored,
    to_alarms,
)

from oracles import bridge_tail, brute_statistic


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
    out = statistic_uncensored(x)
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
        for i in range(rows):
            out = statistic_uncensored(x[i])
            assert out.w_stat == uncensored.w_stat[i]
            assert out.p_value == uncensored.p_value[i]
            assert out.change_bin == uncensored.change_bin[i]
            assert out.degenerate == uncensored.degenerate[i]


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
        statistic_uncensored([1.0, bad, 2.0])


def test_statistic_rejects_single_bin():
    with pytest.raises(ValueError):
        statistic_uncensored([3.0])


def test_two_point_uncensored():
    out = statistic_uncensored([1, 2])
    assert list(out.s_path) == [-1 / math.sqrt(2), 0.0]
    assert out.w_stat == 1 / math.sqrt(2)
    assert out.change_bin == 1


def test_uncensored_equals_all_observed_flags():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.integers(0, 20, 15)
        a = statistic_uncensored(x)
        b = statistic(CensoredSeries(1, x, np.ones(15, dtype=bool)))
        assert a.w_stat == b.w_stat
        assert a.change_bin == b.change_bin
        assert np.array_equal(a.s_path, b.s_path)


@settings(max_examples=60)
@given(arrays(np.int64, st.integers(2, 20), elements=st.integers(0, 30)))
def test_terminal_path_value_is_zero(x):
    out = statistic_uncensored(x)
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


# --- to_alarms ----------------------------------------------------------


def alarm_of(series, level_alpha):
    """Alarm of one censored series through the batch kernel, or None."""
    w_stat, p_value, change_bin, _ = statistic_batch(series.x[None], series.observed[None])
    key = np.array([series.key])
    scores = Scores(0, DetectionMethod.TOPRANK, key, p_value, p_value, w_stat, change_bin)
    alarms = to_alarms(scores, level_alpha)
    return alarms[0] if alarms else None


def test_detect_alarms_step_series():
    alarm = alarm_of(CensoredSeries(9, [1, 1, 5, 5], [1, 1, 1, 1]), 0.5)
    assert alarm is not None
    assert alarm.key == 9
    assert alarm.change_bin == 2
    assert alarm.method is DetectionMethod.TOPRANK
    assert alarm.p_value < 0.5


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


def test_to_alarms_sorts_by_reported_pvalue_then_key():
    scores = Scores(
        window_index=7,
        method=DetectionMethod.HASHRANK,
        keys=np.array([3, 5, 7, 9]),
        p_alarm=np.array([0.01, 0.2, 0.01, 2.0]),
        p_report=np.array([0.004, 0.001, 0.004, 0.0]),
        stat=np.array([1.5, 1.9, 1.5, 0.0]),
        change_bin=np.array([4, 2, 6, 0]),
    )
    alarms = to_alarms(scores, 0.05)
    assert [(a.key, a.p_value, a.change_bin) for a in alarms] == [(3, 0.004, 4), (7, 0.004, 6)]
    assert all(a.window_index == 7 and a.method is DetectionMethod.HASHRANK for a in alarms)
