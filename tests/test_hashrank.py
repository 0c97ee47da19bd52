import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrank.hashrank import (
    MERSENNE_PRIME,
    HashCoefficients,
    SketchTable,
    build_sketch,
    cell_outcomes,
    hash_eval,
    invert,
    run_window,
    sample_coefficients,
    score_window,
)
from flowrank.model import BinSeries, DetectionMethod, WindowBatch
from flowrank.ranktest import statistic_uncensored
from flowrank.synth import SynthConfig, generate, to_window_batch


def make_batch(values_by_key, bins):
    series = {
        k: BinSeries(key=k, values=v)
        for k, v in values_by_key.items()
        if np.asarray(v).any()
    }
    return WindowBatch(window_index=0, start_time=0.0, bins=bins, series=series)


def identity_coeffs(k_buckets, rows=1):
    # h(x) = 1 + x mod K: distinct buckets for keys 0..K-1
    return [HashCoefficients((0, 1, 0, 0), k_buckets) for _ in range(rows)]


# --- hash_eval ----------------------------------------------------------


def test_hash_zero_polynomial_maps_to_first_bucket():
    c = HashCoefficients((0, 0, 0, 0), 17)
    assert all(hash_eval(c, x) == 1 for x in (0, 1, 999, 2**32 - 1))


def test_hash_constant_five():
    assert hash_eval(HashCoefficients((5, 0, 0, 0), 17), 123456) == 6


def test_hash_identity_polynomial():
    assert hash_eval(HashCoefficients((0, 1, 0, 0), 2), 3) == 2


def test_hash_output_range_and_determinism():
    coeffs = sample_coefficients(99, 5, 17)
    rng = np.random.default_rng(0)
    for key in rng.integers(0, 2**32, 200, dtype=np.uint64):
        for c in coeffs:
            b = hash_eval(c, int(key))
            assert 1 <= b <= 17
            assert b == hash_eval(c, int(key))


def test_hash_matches_direct_polynomial():
    c = HashCoefficients((3, 7, 11, 13), 17)
    for x in (0, 1, 5, 2**31, 2**32 - 1):
        direct = (3 + 7 * x + 11 * x**2 + 13 * x**3) % MERSENNE_PRIME
        assert hash_eval(c, x) == 1 + direct % 17


def test_coefficients_validated():
    with pytest.raises(ValueError):
        HashCoefficients((0, 0, 0), 17)
    with pytest.raises(ValueError):
        HashCoefficients((0, 0, 0, MERSENNE_PRIME), 17)
    with pytest.raises(ValueError):
        HashCoefficients((0, 0, 0, 0), 1)


# --- sample_coefficients -------------------------------------------------


def test_sample_coefficients_deterministic():
    a = sample_coefficients(7, 4, 17)
    b = sample_coefficients(7, 4, 17)
    assert a == b


def test_sample_coefficients_rows_differ():
    rows = sample_coefficients(1, 10, 17)
    assert len({r.a for r in rows}) > 1


def test_sample_coefficients_single_row():
    rows = sample_coefficients(5, 1, 8)
    assert len(rows) == 1
    assert all(0 <= c < MERSENNE_PRIME for c in rows[0].a)


# --- build_sketch --------------------------------------------------------


def test_sketch_single_key_occupies_one_cell_per_row():
    values = np.array([1, 2, 3, 0])
    batch = make_batch({42: values}, bins=4)
    coeffs = sample_coefficients(3, 5, 7)
    table = build_sketch(batch, coeffs)
    for row, c in enumerate(coeffs):
        bucket = hash_eval(c, 42) - 1
        assert np.array_equal(table.series[row, bucket], values)
        other = np.delete(table.series[row], bucket, axis=0)
        assert not other.any()
        assert table.cell_keys[row][bucket] == (42,)


def test_sketch_colliding_keys_sum():
    batch = make_batch({1: [1, 0, 2], 2: [3, 1, 0]}, bins=3)
    table = build_sketch(batch, identity_coeffs(2))  # 1 -> bucket 2, 2 -> bucket 1
    assert np.array_equal(table.series[0, 1], [1, 0, 2])
    assert np.array_equal(table.series[0, 0], [3, 1, 0])
    merged = build_sketch(batch, [HashCoefficients((0, 0, 0, 0), 2)])
    assert np.array_equal(merged.series[0, 0], [4, 1, 2])
    assert merged.cell_keys[0][0] == (1, 2)


def test_sketch_row_mass_conservation_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        batch = make_batch(
            {k: rng.integers(0, 9, 6) for k in range(1, 50)}, bins=6
        )
        coeffs = sample_coefficients(int(rng.integers(0, 1000)), 4, 9)
        table = build_sketch(batch, coeffs)
        total = np.sum([bs.values for bs in batch.series.values()], axis=0)
        for row in range(4):
            assert np.array_equal(table.series[row].sum(axis=0), total)


def test_sketch_linearity_over_disjoint_batches():
    rng = np.random.default_rng(23)
    a = {k: rng.integers(1, 9, 5) for k in range(1, 20)}
    b = {k: rng.integers(1, 9, 5) for k in range(20, 40)}
    coeffs = sample_coefficients(11, 3, 7)
    ta = build_sketch(make_batch(a, 5), coeffs)
    tb = build_sketch(make_batch(b, 5), coeffs)
    tu = build_sketch(make_batch({**a, **b}, 5), coeffs)
    assert np.array_equal(tu.series, ta.series + tb.series)


def test_sketch_mismatched_buckets_rejected():
    batch = make_batch({1: [1, 1]}, bins=2)
    coeffs = [HashCoefficients((0, 1, 0, 0), 4), HashCoefficients((0, 1, 0, 0), 5)]
    with pytest.raises(ValueError):
        build_sketch(batch, coeffs)


# --- cell_outcomes / invert ----------------------------------------------


def flagged_cells(table, level_alpha):
    """1-based cells whose series shows a change at the given level."""
    out = cell_outcomes(table)
    hit = np.flatnonzero(~out.degenerate & (out.p_value < level_alpha))
    return {(int(i) // table.k_buckets + 1, int(i) % table.k_buckets + 1) for i in hit}


def test_detect_cells_constant_sketch_is_quiet():
    batch = make_batch({k: [3] * 10 for k in range(1, 8)}, bins=10)
    coeffs = sample_coefficients(2, 3, 5)
    table = build_sketch(batch, coeffs)
    assert flagged_cells(table, 0.5) == set()
    assert run_window(batch, coeffs, 0.5) == []


def test_detect_cells_flags_injected_change():
    rng = np.random.default_rng(5)
    quiet = {k: rng.poisson(2.0, 40) for k in range(1, 30)}
    quiet[99] = np.concatenate([rng.poisson(2.0, 20), rng.poisson(40.0, 20)])
    batch = make_batch(quiet, bins=40)
    coeffs = sample_coefficients(8, 4, 11)
    table = build_sketch(batch, coeffs)
    flagged = flagged_cells(table, 0.01)
    for row, c in enumerate(coeffs, start=1):
        assert (row, hash_eval(c, 99)) in flagged
    assert 99 in [a.key for a in run_window(batch, coeffs, 0.01)]


def test_detect_cells_threshold_near_one_flags_everything_alive():
    rng = np.random.default_rng(9)
    batch = make_batch({k: rng.integers(0, 30, 20) for k in range(1, 40)}, bins=20)
    table = build_sketch(batch, sample_coefficients(4, 3, 7))
    outcomes = cell_outcomes(table)
    assert outcomes.p_value.shape == (3 * 7,)
    for row in range(3):
        for bucket in range(7):
            one = statistic_uncensored(table.series[row, bucket])
            i = row * 7 + bucket
            assert (outcomes.p_value[i], outcomes.degenerate[i]) == (one.p_value, one.degenerate)
    flagged = flagged_cells(table, 1 - 1e-12)
    alive = {
        (row + 1, bucket + 1)
        for row in range(3)
        for bucket in range(7)
        if not statistic_uncensored(table.series[row, bucket]).degenerate
    }
    assert flagged <= alive
    # a live cell escapes only when its statistic is below 0.2 (p == 1)
    assert all(
        outcomes.w_stat[(r - 1) * 7 + b - 1] < 0.2 for r, b in alive - flagged
    )


def test_invert_intersects_row_unions():
    series = np.zeros((2, 6, 2), dtype=np.int64)
    cell_keys = (
        ((), (), (10, 11), (), (), ()),
        ((), (), (), (), (11, 12), ()),
    )
    table = SketchTable(l_rows=2, k_buckets=6, series=series, cell_keys=cell_keys)
    assert invert(table, {(1, 3), (2, 5)}) == {11}
    assert invert(table, set()) == frozenset()


@settings(max_examples=50)
@given(st.data())
def test_invert_matches_set_algebra(data):
    l_rows = data.draw(st.integers(2, 4))
    k_buckets = data.draw(st.integers(2, 6))
    keys = list(range(1, data.draw(st.integers(1, 12)) + 1))
    assignment = [
        [data.draw(st.integers(1, k_buckets)) for _ in keys] for _ in range(l_rows)
    ]
    cell_keys = tuple(
        tuple(
            tuple(k for j, k in enumerate(keys) if assignment[row][j] == bucket)
            for bucket in range(1, k_buckets + 1)
        )
        for row in range(l_rows)
    )
    flagged = {
        (row, bucket)
        for row in range(1, l_rows + 1)
        for bucket in range(1, k_buckets + 1)
        if data.draw(st.booleans())
    }
    table = SketchTable(
        l_rows=l_rows,
        k_buckets=k_buckets,
        series=np.zeros((l_rows, k_buckets, 2), dtype=np.int64),
        cell_keys=cell_keys,
    )
    expected = None
    for row in range(1, l_rows + 1):
        union = set()
        for bucket in range(1, k_buckets + 1):
            if (row, bucket) in flagged:
                union |= set(cell_keys[row - 1][bucket - 1])
        expected = union if expected is None else expected & union
    assert invert(table, flagged) == (expected or set())


def test_invert_completeness_for_fully_flagged_key():
    batch = make_batch({k: [k, 0, k] for k in range(1, 9)}, bins=3)
    coeffs = sample_coefficients(31, 3, 4)
    table = build_sketch(batch, coeffs)
    target = 5
    flagged = {(row, hash_eval(c, target)) for row, c in enumerate(coeffs, start=1)}
    assert target in invert(table, flagged)


# --- score_window / run_window ---------------------------------------------


@pytest.mark.parametrize("level_alpha", [1e-3, 0.05, 0.5, 1 - 1e-12])
def test_alarm_set_matches_p_alarm_and_inversion(level_alpha):
    cfg = SynthConfig(dim=150, bins=30, change_rank=3, change_bin=15, factor=6.0, seed=12)
    batch = to_window_batch(generate(cfg))
    coeffs = sample_coefficients(41, 4, 7)
    scores = score_window(batch, coeffs)
    assert list(scores.keys) == sorted(batch.series)
    alarmed = {a.key for a in run_window(batch, coeffs, level_alpha)}
    assert alarmed == {int(k) for k in scores.keys[scores.p_alarm < level_alpha]}
    table = build_sketch(batch, coeffs)
    assert alarmed == invert(table, flagged_cells(table, level_alpha))


def test_run_window_alarms_injected_anomaly():
    cfg = SynthConfig(dim=200, bins=60, change_rank=5, change_bin=35, factor=10.0, seed=6)
    batch = to_window_batch(generate(cfg))
    coeffs = sample_coefficients(77, 8, 17)
    alarms = run_window(batch, coeffs, 1e-3)
    assert 5 in [a.key for a in alarms]
    assert all(a.method is DetectionMethod.HASHRANK for a in alarms)
    assert alarms == sorted(alarms, key=lambda a: (a.p_value, a.key))


def test_run_window_quiet_at_tiny_alpha():
    rng = np.random.default_rng(20)
    batch = make_batch({k: rng.poisson(1.0, 30) for k in range(1, 60)}, bins=30)
    alarms = run_window(batch, sample_coefficients(1, 8, 17), 1e-6)
    assert alarms == []


def test_run_window_singleton_cells_match_raw_series():
    # keys 1..3 land in distinct buckets of the identity hash, so each
    # cell is a single raw series and inversion is exact
    rng = np.random.default_rng(30)
    rows = {k: np.concatenate([rng.poisson(3.0, 15), rng.poisson(3.0 * (8 if k == 2 else 1), 15)]) for k in (1, 2, 3)}
    batch = make_batch(rows, bins=30)
    coeffs = identity_coeffs(5, rows=2)
    alarms = run_window(batch, coeffs, 1e-3)
    assert [a.key for a in alarms] == [2]
    raw = statistic_uncensored(rows[2])
    assert alarms[0].p_value == raw.p_value
    assert alarms[0].change_bin == raw.change_bin


def test_run_window_reports_most_confident_cell():
    cfg = SynthConfig(dim=150, bins=60, change_rank=3, change_bin=30, factor=9.0, seed=8)
    batch = to_window_batch(generate(cfg))
    coeffs = sample_coefficients(55, 4, 11)
    alarms = run_window(batch, coeffs, 1e-2)
    outcomes = cell_outcomes(build_sketch(batch, coeffs))
    for alarm in alarms:
        own = [
            row * 11 + hash_eval(c, alarm.key) - 1 for row, c in enumerate(coeffs)
        ]
        best = min(own, key=lambda i: outcomes.p_value[i])  # earliest row on ties
        assert alarm.p_value == outcomes.p_value[best]
        assert alarm.statistic == outcomes.w_stat[best]
        assert alarm.change_bin == outcomes.change_bin[best]
