import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrank import evaluate, hashrank, toprank
from flowrank.evaluate import DEFAULT_THRESHOLDS, check_thresholds, roc, score_comprehensive, scorer
from flowrank.hashrank import HashCoefficients, sample_coefficients
from flowrank.model import DetectionMethod, WindowBatch, WindowConfig
from flowrank.ranktest import alarm_order, statistic_batch
from flowrank.synth import SynthConfig, generate
from flowrank.toprank import candidates, score_window, top_filter


def test_default_threshold_grid_shape():
    assert DEFAULT_THRESHOLDS[0] == 0.0
    assert DEFAULT_THRESHOLDS[-1] == 1.0
    assert len(DEFAULT_THRESHOLDS) == 31
    assert list(DEFAULT_THRESHOLDS) == sorted(DEFAULT_THRESHOLDS)


def test_comprehensive_tests_every_key():
    cfg = SynthConfig(dim=60, bins=40, change_rank=4, change_bin=20, factor=9.0, seed=5)
    batch = generate(cfg)
    scores = score_comprehensive(batch)
    assert np.array_equal(scores.keys, batch.keys)
    at = alarm_order(scores, 1e-4)
    assert 4 in scores.keys[at]
    for i in range(batch.num_keys):
        # one row at a time, not the window's whole block
        p_value = statistic_batch(batch.counts[i:i + 1]).p_value[0]
        assert scores.p_report[i] == scores.p_alarm[i] == p_value


def test_comprehensive_of_empty_window():
    # a window whose records all miss the metric (say, only UDP under syn)
    batch = WindowBatch(0, 0.0, np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64))
    scores = score_comprehensive(batch)
    assert scores.keys.size == scores.p_alarm.size == scores.stat.size == 0
    assert alarm_order(scores, 0.5).size == 0


def test_comprehensive_single_key_matches_detect():
    values = np.concatenate([np.ones(10, dtype=int), np.full(10, 30, dtype=int)])
    batch = WindowBatch(0, 0.0, [1], [values])
    scores = score_comprehensive(batch)
    assert alarm_order(scores, 1e-3).tolist() == [0]
    assert scores.p_report[0] == statistic_batch(values[None]).p_value[0]


def test_comprehensive_contains_uncensored_toprank_alarms():
    # every key active in every bin and a filter deep enough to keep all:
    # candidate series are then uncensored, so statistics coincide
    rng = np.random.default_rng(14)
    batch = WindowBatch(0, 0.0, range(1, 12), [rng.integers(1, 40, 30) for _ in range(11)])
    cfg = WindowConfig(bins_per_window=30, top_m=11, keep_mprime=11, level_alpha=0.3)
    top, full = score_window(batch, cfg), score_comprehensive(batch)
    top_alarms = alarm_order(top, 0.3)
    assert top_alarms.size  # at 0.3 some key alarms with moderate probability
    assert set(top_alarms.tolist()) <= set(alarm_order(full, 0.3).tolist())
    # both scores align with the batch keys, so one index reads both
    assert np.array_equal(full.p_report[top_alarms], top.p_report[top_alarms])
    assert np.array_equal(full.change_bin[top_alarms], top.change_bin[top_alarms])


@pytest.mark.parametrize("budget", [None, 7])
def test_scorer_matches_each_method_scorer(budget):
    rng = np.random.default_rng(19)
    cfg = WindowConfig(bins_per_window=12, top_m=5, keep_mprime=2, budget=budget)
    coeffs = sample_coefficients(3, 4, 7)  # what HashRank's scorer draws from seed 3
    own = {
        DetectionMethod.TOPRANK: lambda b: toprank.score_window(b, cfg),
        DetectionMethod.HASHRANK: lambda b: hashrank.score_window(b, coeffs),
        DetectionMethod.COMPREHENSIVE: score_comprehensive,
    }
    batches = [WindowBatch(0, 0.0, np.zeros(0, dtype=np.int64), np.zeros((0, 12), dtype=np.int64))]
    for n in (1, 9, 40):
        keys = np.sort(rng.choice(10_000, size=n, replace=False))
        counts = rng.poisson(rng.uniform(0.5, 9.0, (n, 1)), (n, 12))
        batches.append(WindowBatch(0, 0.0, keys, counts))
    for method in DetectionMethod:
        score = scorer(method, cfg, 3, 4, 7)
        for batch in batches:
            got, want = score(batch), own[method](batch)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_scorer_rejects_unknown_method():
    with pytest.raises(ValueError):
        scorer("toprank", WindowConfig(), 0, 1, 2)


def refuse_draw(*args, **kwargs):
    raise AssertionError("drew hash coefficients")


@pytest.mark.parametrize("method", list(DetectionMethod))
def test_scorer_checks_the_sketch_before_any_draw(method, monkeypatch):
    # every method checks the sketch arguments, though only HashRank reads them
    monkeypatch.setattr(evaluate, "sample_coefficients", refuse_draw)
    with pytest.raises(ValueError, match="^l_rows must be at least 1$"):
        scorer(method, WindowConfig(), 0, 0, 17)


@pytest.mark.parametrize("methods", [[DetectionMethod.TOPRANK], [DetectionMethod.COMPREHENSIVE],
                                     [DetectionMethod.TOPRANK, DetectionMethod.COMPREHENSIVE]])
def test_roc_without_hashrank_draws_no_hashes(methods, monkeypatch):
    monkeypatch.setattr(evaluate, "sample_coefficients", refuse_draw)
    points = roc(small_cfg(), *methods, runs=2, budget=24, top_m=10)
    assert [p.method for p in points] == [m for m in methods for _ in DEFAULT_THRESHOLDS]


def small_cfg(seed=0):
    return SynthConfig(dim=80, bins=30, change_rank=8, change_bin=15, factor=6.0, seed=seed)


@pytest.mark.parametrize(
    "method",
    [DetectionMethod.TOPRANK, DetectionMethod.HASHRANK, DetectionMethod.COMPREHENSIVE],
)
def test_roc_rates_monotone_in_threshold(method):
    points = roc(small_cfg(), method, runs=5, budget=24, top_m=10)
    fa = [p.fa_rate for p in points]
    det = [p.det_rate for p in points]
    assert fa == sorted(fa)
    assert det == sorted(det)
    assert all(0.0 <= v <= 1.0 for v in fa + det)


def test_roc_zero_threshold_alarms_nothing():
    points = roc(small_cfg(), DetectionMethod.COMPREHENSIVE, runs=2)
    assert points[0].threshold == 0.0
    assert points[0] == (DetectionMethod.COMPREHENSIVE, 0.0, 0.0, 0.0)


def test_roc_toprank_false_alarms_capped_by_budget():
    points = roc(small_cfg(), DetectionMethod.TOPRANK, runs=4, budget=24, top_m=10)
    cap = (24 - 1) / (80 - 1)
    assert all(p.fa_rate <= cap + 1e-12 for p in points)


def test_roc_deterministic():
    a = roc(small_cfg(3), DetectionMethod.TOPRANK, runs=4, budget=24, top_m=10)
    b = roc(small_cfg(3), DetectionMethod.TOPRANK, runs=4, budget=24, top_m=10)
    assert a == b


@pytest.mark.parametrize("runs", [1, 4])
def test_roc_draws_each_dataset_once_for_every_method(runs, monkeypatch):
    seeds = []

    def counting_generate(cfg):
        seeds.append(cfg.seed)
        return generate(cfg)

    monkeypatch.setattr(evaluate, "generate", counting_generate)
    kwargs = {"runs": runs, "budget": 24, "top_m": 10}
    together = roc(small_cfg(4), *DetectionMethod, **kwargs)
    assert seeds == list(range(4, 4 + runs))
    alone = [p for m in DetectionMethod for p in roc(small_cfg(4), m, **kwargs)]
    assert together == alone
    assert [p.method for p in together] == [m for m in DetectionMethod for _ in DEFAULT_THRESHOLDS]


def test_roc_detection_reads_the_changed_key():
    # a tenfold change at rank 8: every method detects it in every run, and no other key alarms
    cfg = SynthConfig(dim=40, bins=40, change_rank=8, change_bin=20, factor=10.0, seed=2)
    points = roc(cfg, *DetectionMethod, runs=3, thresholds=[1e-4], budget=12, top_m=5)
    assert [(p.fa_rate, p.det_rate) for p in points] == [(0.0, 1.0)] * 3


def test_roc_memory_does_not_grow_with_runs():
    # two keys, one method: a run costs about 1 ms, so only what a run leaves behind can show
    cfg = SynthConfig(dim=2, bins=8, change_rank=2, change_bin=4, factor=2.0, seed=1)
    roc(cfg, DetectionMethod.COMPREHENSIVE, runs=1)  # lazy imports and caches are not per run

    def peak(runs):
        tracemalloc.start()
        try:
            roc(cfg, DetectionMethod.COMPREHENSIVE, runs=runs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 360 more runs moved the peak by at most about 1 kB; keeping every run's results
    # and hash coefficients until the last run costs about 2.3 kB per run (830 kB here)
    assert peak(400) - peak(40) < 16_000


def test_roc_validates_arguments():
    with pytest.raises(ValueError):
        roc(small_cfg(), DetectionMethod.TOPRANK, runs=0)
    with pytest.raises(ValueError):
        roc(small_cfg(), DetectionMethod.TOPRANK, runs=1, thresholds=[0.5, 0.1])


@pytest.fixture
def no_runs(monkeypatch):
    def no_run(cfg):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(evaluate, "generate", no_run)


@pytest.mark.parametrize(
    "thresholds",
    [
        [float("nan")], [float("inf")], [-float("inf")], [-1.0], [2.0], [-1.0, 2.0], [0.5, 0.1],
        [0.1, float("nan")], [],
    ],
)
def test_roc_rejects_thresholds_that_are_not_ascending_pvalues(thresholds, no_runs):
    with pytest.raises(ValueError, match="ascending p-values"):
        check_thresholds(thresholds)
    for method in DetectionMethod:
        with pytest.raises(ValueError, match="ascending p-values"):
            roc(small_cfg(), method, runs=1, thresholds=thresholds)


@pytest.mark.parametrize(
    "name, value, match",
    [
        ("runs", 0, "runs"),
        ("runs", -3, "runs"),
        ("top_m", 0, "top_m"),
        ("l_rows", 0, "row"),
        ("k_buckets", 1, "buckets"),
        ("budget", 0, "budget"),
        ("methods", (), "method"),
        ("methods", (DetectionMethod.TOPRANK, "full"), "method"),
        ("runs", 1.5, "runs must be an integer"),
        ("l_rows", 1.5, "l_rows must be an integer"),
        ("k_buckets", 17.0, "k_buckets must be an integer"),
        ("top_m", True, "top_m must be an integer"),
    ],
)
def test_roc_rejects_bad_arguments_before_any_run(name, value, match, no_runs):
    options = {"runs": 1, name: value}
    # a bad option fails every method alone and all of them at once
    calls = [(m,) for m in DetectionMethod] + [tuple(DetectionMethod)]
    if name == "methods":
        calls = [options.pop("methods")]
    for methods in calls:
        with pytest.raises(ValueError, match=match):
            roc(small_cfg(), *methods, **options)


def test_check_thresholds_keeps_ascending_pvalues():
    assert check_thresholds([0, 1e-12, 0.5, 0.5, 1]) == [0.0, 1e-12, 0.5, 0.5, 1.0]
    assert check_thresholds(DEFAULT_THRESHOLDS) == list(DEFAULT_THRESHOLDS)


def test_roc_threshold_one_matches_direct_statistics():
    # at threshold 1 the comprehensive curve alarms exactly the keys
    # whose raw series carries any usable evidence (p-value below 1)
    cfg = small_cfg(21)
    points = roc(cfg, DetectionMethod.COMPREHENSIVE, runs=1, thresholds=[1.0])
    batch = generate(cfg)
    alive = [
        key
        for key, values in zip(batch.keys.tolist(), batch.counts)
        if key != cfg.change_rank and statistic_batch(values[None]).p_value[0] < 1.0
    ]
    assert points[0].fa_rate == pytest.approx(len(alive) / (cfg.dim - 1))
    assert points[0].det_rate == 1.0


def test_roc_comprehensive_null_rate_tracks_threshold():
    # eta=1: no change anywhere; at a moderate threshold the false-alarm
    # rate should be near the threshold itself (rank test is conservative)
    cfg = SynthConfig(dim=120, bins=40, change_rank=1, change_bin=20, factor=1.0, seed=17)
    points = roc(cfg, DetectionMethod.COMPREHENSIVE, runs=3, thresholds=[0.05, 0.2])
    for p in points:
        assert p.fa_rate <= p.threshold * 1.8 + 0.02


# what a caller may pass as a count: small integers of every kind, and what is not one
COUNT = st.one_of(
    st.integers(-2, 9),
    st.integers(-2, 9).map(np.int64),
    st.integers(0, 9).map(np.uint8),
    st.integers(-2, 9).map(float),
    st.floats(-2, 9) | st.sampled_from([float("nan"), float("inf")]),
    st.booleans(),
    st.none(),
    st.sampled_from(["3", ""]),
)


def _made(make, default):
    """`make()`, or `default` when it rejects its arguments with a ValueError."""
    try:
        return make()
    except ValueError:
        return default


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_count_argument_is_refused_at_the_call_or_scores_the_window(data):
    def count(label):
        return data.draw(COUNT, label=label)

    def budget(label):
        return data.draw(st.none() | COUNT, label=label)

    synth = _made(lambda: SynthConfig(
        dim=count("dim"), bins=count("bins"), change_rank=count("change_rank"),
        change_bin=count("change_bin"), seed=count("synth.seed")),
        SynthConfig(dim=6, bins=4, change_rank=2, change_bin=2))
    batch = generate(synth)
    cfg = _made(lambda: WindowConfig(
        bins_per_window=count("bins_per_window"), top_m=count("top_m"),
        keep_mprime=count("keep_mprime"), budget=budget("budget")), WindowConfig(top_m=3))
    sketch = (count("sketch.seed"), count("l_rows"), count("k_buckets"))
    coeffs = _made(lambda: HashCoefficients(
        sample_coefficients(0, 2, 3).a, count("HashCoefficients.k_buckets")), None)
    rows = _made(lambda: candidates(
        top_filter(batch, cfg), count("depth"), budget("candidates.budget")), None)
    assert rows is None or set(rows.tolist()) <= set(range(batch.num_keys))
    scorers = [_made(lambda: scorer(method, cfg, *sketch), scorer(method, cfg, 0, 2, 3))
               for method in DetectionMethod]
    if coeffs is not None:
        scorers.append(lambda b: hashrank.score_window(b, coeffs))
    for score in scorers:
        scores = score(batch)
        assert np.array_equal(scores.keys, batch.keys)
        for column in (scores.p_alarm, scores.p_report, scores.stat, scores.change_bin):
            assert column.shape == batch.keys.shape
    points = _made(lambda: roc(
        SynthConfig(dim=5, bins=4, change_rank=2, change_bin=2), *DetectionMethod,
        runs=count("runs"), top_m=count("roc.top_m"), budget=count("roc.budget"),
        l_rows=count("roc.l_rows"), k_buckets=count("roc.k_buckets"), thresholds=[0.5]), None)
    assert points is None or [p.method for p in points] == list(DetectionMethod)
