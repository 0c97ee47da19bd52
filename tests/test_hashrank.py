import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hash_eval

from flowrank.hashrank import (
    MERSENNE_PRIME,
    HashCoefficients,
    SketchTable,
    build_sketch,
    hash_buckets,
    invert,
    sample_coefficients,
    score_window,
)
from flowrank.model import WindowBatch
from flowrank.ranktest import alarm_order, statistic_batch
from flowrank.synth import SynthConfig, generate


def make_batch(values_by_key, bins):
    keys = sorted(k for k, v in values_by_key.items() if np.asarray(v).any())
    counts = np.array([values_by_key[k] for k in keys]).reshape(len(keys), bins)
    return WindowBatch(window_index=0, start_time=0.0, keys=keys, counts=counts)


def alarmed_keys(batch, coeffs, level_alpha):
    """Keys of the window's alarms, in `alarm_order`."""
    scores = score_window(batch, coeffs)
    return scores.keys[alarm_order(scores, level_alpha)].tolist()


def identity_coeffs(k_buckets, rows=1):
    # h(x) = 1 + x mod K: distinct buckets for keys 0..K-1
    return HashCoefficients([[0, 1, 0, 0]] * rows, k_buckets)


def row_buckets(coeffs, key):
    """1-based bucket of `key` in every row, by the Python-int oracle."""
    return [hash_eval(a_row, coeffs.k_buckets, key) for a_row in coeffs.a]


# --- hash_eval ----------------------------------------------------------


def test_hash_zero_polynomial_maps_to_first_bucket():
    assert all(hash_eval((0, 0, 0, 0), 17, x) == 1 for x in (0, 1, 999, 2**32 - 1))


def test_hash_constant_five():
    assert hash_eval((5, 0, 0, 0), 17, 123456) == 6


def test_hash_identity_polynomial():
    assert hash_eval((0, 1, 0, 0), 2, 3) == 2


def test_hash_output_range_and_determinism():
    coeffs = sample_coefficients(99, 5, 17)
    rng = np.random.default_rng(0)
    for key in rng.integers(0, 2**32, 200, dtype=np.uint64):
        for a_row in coeffs.a:
            b = hash_eval(a_row, 17, int(key))
            assert 1 <= b <= 17
            assert b == hash_eval(a_row, 17, int(key))


def test_hash_matches_direct_polynomial():
    for x in (0, 1, 5, 2**31, 2**32 - 1):
        direct = (3 + 7 * x + 11 * x**2 + 13 * x**3) % MERSENNE_PRIME
        assert hash_eval((3, 7, 11, 13), 17, x) == 1 + direct % 17


def test_coefficients_validated():
    for a, k_buckets in (
        ([[0.0, 1.0, 0.0, 0.0]], 17),  # float dtype
        ([[0, 0, 0]], 17),  # not L x 4
        ([0, 0, 0, 0], 17),  # one-dimensional
        (np.zeros((0, 4), dtype=np.int64), 17),  # L = 0
        ([[0, 0, 0, MERSENNE_PRIME]], 17),  # an entry equal to p
        ([[0, -1, 0, 0]], 17),  # a negative entry
        ([[0, 0, 0, 0]], 1),  # K = 1
    ):
        with pytest.raises(ValueError):
            HashCoefficients(a, k_buckets)


def test_hash_coefficients_are_a_read_only_uint64_copy():
    draws = np.array([[1, 2, 3, 4], [5, 6, 7, MERSENNE_PRIME - 1]], dtype=np.int64)
    coeffs = HashCoefficients(draws, 2)
    assert coeffs.a.dtype == np.uint64 and coeffs.a.shape == (2, 4) and coeffs.l_rows == 2
    assert coeffs.a.tolist() == draws.tolist() and not coeffs.a.flags.writeable
    draws[0, 0] = 9
    assert coeffs.a[0, 0] == 1


def test_hash_buckets_match_hash_eval_bit_for_bit():
    p = MERSENNE_PRIME
    rng = np.random.default_rng(41)
    edge = [0, 1, -1, p - 1, p, p + 1, 2 * p, 2**32 - 1, 2**61, 2**63 - 1, -(2**63)]
    keys = np.concatenate([
        np.array(edge, dtype=np.int64),
        rng.integers(-(2**63), 2**63 - 1, 3000, dtype=np.int64, endpoint=True),
        rng.integers(0, 2**32, 1000, dtype=np.int64),
    ])
    draws = rng.integers(0, p, (12, 4), dtype=np.int64)
    draws[rng.random((12, 4)) < 0.25] = 0
    rows_by_k = [
        ([[0, 0, 0, 0]], 17),
        ([[p - 1] * 4], 2),
        ([[0, 0, 0, p - 1]], 1_000_003),
        *(([row], int(k)) for row, k in zip(draws, rng.integers(2, 5000, 12))),
        (draws, 7),  # all twelve rows under one K
    ]
    for a, k in rows_by_k:
        coeffs = HashCoefficients(a, k)
        got = hash_buckets(coeffs, keys)
        assert got.shape == (coeffs.l_rows, keys.size)
        for row, a_row in enumerate(coeffs.a):
            assert got[row].tolist() == [hash_eval(a_row, k, x) - 1 for x in keys.tolist()]


# --- sample_coefficients -------------------------------------------------


def test_sample_coefficients_deterministic():
    a = sample_coefficients(7, 4, 17)
    b = sample_coefficients(7, 4, 17)
    assert np.array_equal(a.a, b.a) and a.k_buckets == b.k_buckets == 17


def test_sample_coefficients_rows_differ():
    coeffs = sample_coefficients(1, 10, 17)
    assert len({tuple(row) for row in coeffs.a.tolist()}) > 1


def test_sample_coefficients_single_row():
    coeffs = sample_coefficients(5, 1, 8)
    assert coeffs.a.shape == (1, 4)
    assert all(0 <= c < MERSENNE_PRIME for c in coeffs.a[0].tolist())


# --- build_sketch --------------------------------------------------------


def test_sketch_single_key_occupies_one_cell_per_row():
    values = np.array([1, 2, 3, 0])
    batch = make_batch({42: values}, bins=4)
    coeffs = sample_coefficients(3, 5, 7)
    table = build_sketch(batch, coeffs)
    for row, bucket in enumerate(b - 1 for b in row_buckets(coeffs, 42)):
        assert np.array_equal(table.series[row, bucket], values)
        other = np.delete(table.series[row], bucket, axis=0)
        assert not other.any()
        assert table.buckets[row].tolist() == [bucket]


def test_sketch_colliding_keys_sum():
    batch = make_batch({1: [1, 0, 2], 2: [3, 1, 0]}, bins=3)
    table = build_sketch(batch, identity_coeffs(2))  # 1 -> bucket 2, 2 -> bucket 1
    assert np.array_equal(table.series[0, 1], [1, 0, 2])
    assert np.array_equal(table.series[0, 0], [3, 1, 0])
    merged = build_sketch(batch, HashCoefficients([[0, 0, 0, 0]], 2))
    assert np.array_equal(merged.series[0, 0], [4, 1, 2])
    assert merged.keys[merged.buckets[0] == 0].tolist() == [1, 2]


def test_sketch_row_mass_conservation_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        batch = make_batch(
            {k: rng.integers(0, 9, 6) for k in range(1, 50)}, bins=6
        )
        coeffs = sample_coefficients(int(rng.integers(0, 1000)), 4, 9)
        table = build_sketch(batch, coeffs)
        total = batch.counts.sum(axis=0)
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


def test_sketch_of_empty_window():
    # a window whose records all miss the metric (say, only UDP under syn)
    batch = make_batch({}, bins=4)
    coeffs = sample_coefficients(5, 3, 7)
    table = build_sketch(batch, coeffs)
    assert table.series.shape == (3, 7, 4) and not table.series.any()
    assert table.buckets.shape == (3, 0)
    assert invert(table, {(1, 1), (2, 1), (3, 1)}) == frozenset()
    scores = score_window(batch, coeffs)
    assert scores.keys.size == scores.p_alarm.size == scores.stat.size == 0
    assert alarm_order(scores, 0.5).size == 0


# --- cell tests / invert -------------------------------------------------


def cell_outcomes(table):
    """Rank tests of every cell; cell (row l, bucket k), 1-based, is at (l-1)*K + k-1."""
    return statistic_batch(table.series.reshape(-1, table.series.shape[2]))


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
    assert alarmed_keys(batch, coeffs, 0.5) == []


def test_detect_cells_flags_injected_change():
    rng = np.random.default_rng(5)
    quiet = {k: rng.poisson(2.0, 40) for k in range(1, 30)}
    quiet[99] = np.concatenate([rng.poisson(2.0, 20), rng.poisson(40.0, 20)])
    batch = make_batch(quiet, bins=40)
    coeffs = sample_coefficients(8, 4, 11)
    table = build_sketch(batch, coeffs)
    flagged = flagged_cells(table, 0.01)
    for row, bucket in enumerate(row_buckets(coeffs, 99), start=1):
        assert (row, bucket) in flagged
    assert 99 in alarmed_keys(batch, coeffs, 0.01)


def test_detect_cells_threshold_near_one_flags_everything_alive():
    rng = np.random.default_rng(9)
    batch = make_batch({k: rng.integers(0, 30, 20) for k in range(1, 40)}, bins=20)
    table = build_sketch(batch, sample_coefficients(4, 3, 7))
    outcomes = cell_outcomes(table)
    assert outcomes.p_value.shape == (3 * 7,)
    for row in range(3):
        for bucket in range(7):
            one = statistic_batch(table.series[row, bucket][None])
            i = row * 7 + bucket
            assert (outcomes.p_value[i], outcomes.degenerate[i]) == (one.p_value[0], one.degenerate[0])
    flagged = flagged_cells(table, 1 - 1e-12)
    alive = {
        (row + 1, bucket + 1)
        for row in range(3)
        for bucket in range(7)
        if not statistic_batch(table.series[row, bucket][None]).degenerate[0]
    }
    assert flagged <= alive
    # a live cell escapes only when its statistic is below 0.2 (p == 1)
    assert all(
        outcomes.w_stat[(r - 1) * 7 + b - 1] < 0.2 for r, b in alive - flagged
    )


def test_invert_intersects_row_unions():
    # cells (1, 3) = {10, 11}, (1, 1) = {12}, (2, 5) = {11, 12}, (2, 1) = {10}
    table = SketchTable(
        series=np.zeros((2, 6, 2), dtype=np.int64),
        keys=np.array([10, 11, 12]),
        buckets=np.array([[2, 2, 0], [0, 4, 4]]),
    )
    assert invert(table, {(1, 3), (2, 5)}) == {11}
    assert invert(table, set()) == frozenset()
    for cell in ((0, 1), (3, 1), (1, 7)):
        with pytest.raises(ValueError):
            invert(table, {cell})


def test_sketch_table_checks_geometry():
    series, keys = np.zeros((2, 6, 2), dtype=np.int64), np.array([10, 11, 12])
    for buckets in ([[0, 1, 6], [0, 0, 0]], [[0, -1, 2], [0, 0, 0]], [[0, 1, 2]], [[0, 1], [0, 1]]):
        with pytest.raises(ValueError):
            SketchTable(series=series, keys=keys, buckets=np.array(buckets))
    with pytest.raises(ValueError):
        SketchTable(series=np.zeros((0, 6, 2)), keys=keys[:0], buckets=np.zeros((0, 0), int))


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
        series=np.zeros((l_rows, k_buckets, 2), dtype=np.int64),
        keys=np.array(keys),
        buckets=np.array(assignment) - 1,
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
    flagged = set(enumerate(row_buckets(coeffs, target), start=1))
    assert target in invert(table, flagged)


# --- score_window + alarm_order -------------------------------------------


@pytest.mark.parametrize("level_alpha", [1e-3, 0.05, 0.5, 1 - 1e-12])
def test_alarm_set_matches_p_alarm_and_inversion(level_alpha):
    cfg = SynthConfig(dim=150, bins=30, change_rank=3, change_bin=15, factor=6.0, seed=12)
    batch = generate(cfg)
    coeffs = sample_coefficients(41, 4, 7)
    scores = score_window(batch, coeffs)
    assert np.array_equal(scores.keys, batch.keys)
    alarmed = set(alarmed_keys(batch, coeffs, level_alpha))
    assert alarmed == {int(k) for k in scores.keys[scores.p_alarm < level_alpha]}
    table = build_sketch(batch, coeffs)
    assert alarmed == invert(table, flagged_cells(table, level_alpha))


def test_run_window_alarms_injected_anomaly():
    cfg = SynthConfig(dim=200, bins=60, change_rank=5, change_bin=35, factor=10.0, seed=6)
    batch = generate(cfg)
    coeffs = sample_coefficients(77, 8, 17)
    scores = score_window(batch, coeffs)
    at = alarm_order(scores, 1e-3)
    assert 5 in scores.keys[at]
    alarms = list(zip(scores.p_report[at].tolist(), scores.keys[at].tolist()))
    assert alarms == sorted(alarms)


def test_run_window_quiet_at_tiny_alpha():
    rng = np.random.default_rng(20)
    batch = make_batch({k: rng.poisson(1.0, 30) for k in range(1, 60)}, bins=30)
    assert alarmed_keys(batch, sample_coefficients(1, 8, 17), 1e-6) == []


def test_run_window_singleton_cells_match_raw_series():
    # keys 1..3 land in distinct buckets of the identity hash, so each
    # cell is a single raw series and inversion is exact
    rng = np.random.default_rng(30)
    rows = {k: np.concatenate([rng.poisson(3.0, 15), rng.poisson(3.0 * (8 if k == 2 else 1), 15)]) for k in (1, 2, 3)}
    batch = make_batch(rows, bins=30)
    coeffs = identity_coeffs(5, rows=2)
    scores = score_window(batch, coeffs)
    at = alarm_order(scores, 1e-3)
    assert scores.keys[at].tolist() == [2]
    raw = statistic_batch(rows[2][None])
    assert scores.p_report[at[0]] == raw.p_value[0]
    assert scores.change_bin[at[0]] == raw.change_bin[0]


def test_run_window_reports_most_confident_cell():
    cfg = SynthConfig(dim=150, bins=60, change_rank=3, change_bin=30, factor=9.0, seed=8)
    batch = generate(cfg)
    coeffs = sample_coefficients(55, 4, 11)
    scores = score_window(batch, coeffs)
    at = alarm_order(scores, 1e-2)
    assert at.size
    outcomes = cell_outcomes(build_sketch(batch, coeffs))
    for i in at:
        own = [row * 11 + b - 1 for row, b in enumerate(row_buckets(coeffs, int(scores.keys[i])))]
        best = min(own, key=lambda j: outcomes.p_value[j])  # earliest row on ties
        assert scores.p_report[i] == outcomes.p_value[best]
        assert scores.stat[i] == outcomes.w_stat[best]
        assert scores.change_bin[i] == outcomes.change_bin[best]
