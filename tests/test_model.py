import re

import numpy as np
import pytest

from flowrank import cli
from flowrank.fisher import (
    BUILTIN_DENSITIES,
    MIN_GRID,
    estimate_info_max,
    estimate_info_sum,
    limit_info_max,
)
from flowrank.hashrank import build_sketch, sample_coefficients
from flowrank.ingest import split_windows
from flowrank.model import (
    MetricKind,
    Protocol,
    WindowBatch,
    WindowConfig,
    check_float,
    check_int,
)
from flowrank.ranktest import CensoredSeries, Scores, alarm_order, statistic
from flowrank.synth import SynthConfig
from flowrank.toprank import top_filter

from oracles import FlowRecord, from_records


def tcp_record(**overrides):
    base = dict(
        ts_start=0.0,
        ts_end=0.5,
        src_ip=10,
        dst_ip=20,
        src_port=1234,
        dst_port=80,
        proto=Protocol.TCP,
        packets=10,
        syn=3,
        synack=1,
        fin=1,
        rst=0,
    )
    base.update(overrides)
    return FlowRecord(**base)


def udp_record(src_ip=1, dst_ip=2):
    return FlowRecord(0.0, 0.1, src_ip, dst_ip, 53, 53, Protocol.UDP, 5)


def binned(metric, *records):
    """{key: series} of a window holding `records` under `metric`."""
    cfg = WindowConfig(bins_per_window=2, metric=metric)
    [batch] = split_windows(from_records(records), cfg)
    return dict(zip(batch.keys.tolist(), batch.counts.tolist()))


def test_metric_syn_flood_reads_syn_counter():
    assert binned(MetricKind.SYN_FLOOD, tcp_record(syn=3)) == {20: [3, 0]}


def test_metric_syn_flood_ignores_udp():
    assert binned(MetricKind.SYN_FLOOD, udp_record()) == {}


def test_metric_udp_flood_counts_packets():
    assert binned(MetricKind.UDP_FLOOD, udp_record()) == {2: [5, 0]}
    assert binned(MetricKind.UDP_FLOOD, tcp_record()) == {}


def test_metric_port_scan_emits_port_token():
    # distinct TCP destination ports per destination address
    assert binned(MetricKind.PORT_SCAN, tcp_record(dst_port=80)) == {20: [1, 0]}
    ports = [tcp_record(dst_port=80), tcp_record(dst_port=443), tcp_record(dst_port=80, src_port=9)]
    assert binned(MetricKind.PORT_SCAN, *ports) == {20: [2, 0]}
    assert binned(MetricKind.PORT_SCAN, udp_record()) == {}


def test_metric_net_scan_keys_on_source():
    # distinct destination addresses per source, whatever the protocol
    assert binned(MetricKind.NET_SCAN, tcp_record()) == {10: [1, 0]}
    assert binned(MetricKind.NET_SCAN, udp_record(src_ip=7, dst_ip=8)) == {7: [1, 0]}
    mixed = [tcp_record(), tcp_record(dst_port=443), udp_record(src_ip=10, dst_ip=30)]
    assert binned(MetricKind.NET_SCAN, *mixed) == {10: [2, 0]}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0.0},
        {"bins_per_window": 1},
        {"top_m": 0},
        {"keep_mprime": 0},
        {"keep_mprime": 11, "top_m": 10},
        {"level_alpha": 0.0},
        {"level_alpha": 1.0},
        {"delta": float("nan")},
        {"delta": float("inf")},
        {"delta": 1e308},  # finite, but the 60-bin window span overflows
        {"bins_per_window": 2**21 + 1},  # beyond the rank kernel's int64 sums
        {"budget": 0},
        # the integer fields take integers only
        {"bins_per_window": 3.5},
        {"top_m": 2.5},
        {"top_m": True},
        {"keep_mprime": 1.5},
        {"budget": 2.5},
        {"budget": False},
        {"top_m": None},
    ],
)
def test_window_config_validation(kwargs):
    with pytest.raises(ValueError):
        WindowConfig(**kwargs)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 2**70])
def test_check_int_accepts_integers_in_range(value):
    check_int("n", value, 3)
    check_int("n", value, -1, value)


@pytest.mark.parametrize("value, least, most, message", [
    (3.0, 1, None, "n must be an integer"),
    (float("nan"), 1, None, "n must be an integer"),
    (True, 0, None, "n must be an integer"),
    (np.bool_(True), 0, None, "n must be an integer"),
    (None, 0, None, "n must be an integer"),
    ("3", 0, None, "n must be an integer"),
    (0, 1, None, "n must be at least 1"),
    (np.int8(-1), 0, 5, "n must be at least 0"),
    (6, 0, 5, "n must be at most 5"),
    (2**64, 0, 2**61 - 1, "n must be at most 2305843009213693951"),
])
def test_check_int_rejects_with_one_text(value, least, most, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_int("n", value, least, most)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(1)])
def test_check_float_accepts_reals_in_range(value):
    check_float("x", value, 0, 2)


@pytest.mark.parametrize("value, message", [
    (True, "x must be a real number"),
    (np.bool_(True), "x must be a real number"),
    (None, "x must be a real number"),
    ("1", "x must be a real number"),
    (np.array([1.0]), "x must be a real number"),
    (float("nan"), r"x must lie in \(0, inf\)"),
    (0, r"x must lie in \(0, inf\)"),
    (float("inf"), r"x must lie in \(0, inf\)"),
])
def test_check_float_rejects_with_one_text(value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_float("x", value, 0, float("inf"))


def _fisher(tmp_path, **values):
    argv = ["fisher", "--dims", "4", "--mc", "100", "--grid", str(MIN_GRID)]
    args = cli.build_parser().parse_args([*argv, "--output", str(tmp_path / "fisher.csv")])
    vars(args).update(values)
    return args.func(args)


_D33 = BUILTIN_DENSITIES["beta33"]
_SCORES = Scores(*(np.zeros(1, dtype) for dtype in (np.int64, float, float, float, np.int64)))
# every real parameter that `check_float` guards: its name, an in-range value and a call
CHECK_FLOAT_SITES = {
    "delta": (2.0, lambda v, _: WindowConfig(delta=v)),
    "level_alpha": (0.5, lambda v, _: WindowConfig(level_alpha=v)),
    "alarm_order level_alpha": (0.5, lambda v, _: alarm_order(_SCORES, v)),
    "pareto_shape": (2.0, lambda v, _: SynthConfig(pareto_shape=v)),
    "pareto_scale": (2.0, lambda v, _: SynthConfig(pareto_scale=v)),
    "factor": (2.0, lambda v, _: SynthConfig(factor=v)),
    "limit_info_max theta": (0.5, lambda v, _: limit_info_max(_D33, v)),
    "estimate_info_max theta": (0.5, lambda v, _: estimate_info_max(_D33, v, 4, n_mc=100)),
    "estimate_info_sum theta": (0.5, lambda v, _: estimate_info_sum(_D33, v, 4, MIN_GRID)),
    "dtheta": (0.01, lambda v, _: estimate_info_sum(_D33, 0.5, 4, MIN_GRID, dtheta=v)),
    "--theta": (0.5, lambda v, tmp: _fisher(tmp, theta=v)),
    "--dtheta-frac": (0.5, lambda v, tmp: _fisher(tmp, dtheta_frac=v)),
}

NOT_REALS_IN_RANGE = {"True": True, "str": "1", "None": None, "array": np.array([1.0, 2.0]),
                      "nan": float("nan"), "inf": float("inf")}


# a dtheta of None asks for the default
@pytest.mark.parametrize("site, bad", [(site, bad) for site in sorted(CHECK_FLOAT_SITES)
                                       for bad in NOT_REALS_IN_RANGE if (site, bad) != ("dtheta", "None")])
def test_check_float_sites_reject_what_is_not_a_real_in_range(site, bad, tmp_path):
    name = site.split()[-1]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must (be a real number|lie in)"):
        CHECK_FLOAT_SITES[site][1](NOT_REALS_IN_RANGE[bad], tmp_path)


@pytest.mark.parametrize("site", sorted(CHECK_FLOAT_SITES))
def test_check_float_sites_pass_a_value_in_range(site, tmp_path):
    good, call = CHECK_FLOAT_SITES[site]
    call(good, tmp_path)


def test_window_config_defaults_and_span():
    cfg = WindowConfig()
    assert (cfg.delta, cfg.bins_per_window, cfg.top_m, cfg.keep_mprime) == (1.0, 60, 10, 1)
    assert cfg.window_seconds == 60.0
    assert WindowConfig(bins_per_window=2**21).bins_per_window == 2**21
    assert WindowConfig(top_m=np.int64(5), budget=np.uint8(3)).budget == 3  # numpy integers too


def test_window_batch_counts_are_frozen_and_validated():
    source = np.array([[1, 0, 2], [0, 3, 0]], dtype=np.int32)
    batch = WindowBatch(0, 0.0, [4, 9], source)
    source[0, 0] = 7  # any input but an owning int64 array is copied
    assert batch.counts.tolist() == [[1, 0, 2], [0, 3, 0]]
    assert batch.keys.dtype == batch.counts.dtype == np.int64
    with pytest.raises(ValueError):
        batch.counts[0, 0] = 9
    with pytest.raises(ValueError):
        batch.keys[0] = 5
    # an owning int64 array is adopted and frozen, a view of one is copied
    owned = np.array([[1, 0, 2], [0, 3, 0]], dtype=np.int64)
    assert WindowBatch(0, 0.0, [4, 9], owned).counts is owned
    assert not owned.flags.writeable
    base = np.array([[1, 0, 2], [0, 3, 0]], dtype=np.int64)
    view = WindowBatch(0, 0.0, [4, 9], base[:, :2])
    base[0, 0] = 7
    assert view.counts.tolist() == [[1, 0], [0, 3]] and base.flags.writeable
    # a rejected array is left writable
    bad = np.array([[1, -1]], dtype=np.int64)
    with pytest.raises(ValueError):
        WindowBatch(0, 0.0, [1], bad)
    assert bad.flags.writeable
    # integers of any width that fit int64 are accepted; floats, even integral
    # ones, bools, objects and unsigned values above 2^63 - 1 are not
    wide = np.array([2**63 - 2, 2**63 - 1], np.uint64)
    batch = WindowBatch(0, 0.0, wide, np.ones((2, 2), np.uint8))
    assert batch.keys.tolist() == wide.tolist() and batch.counts.dtype == np.int64
    empty = WindowBatch(0, 0.0, [], np.zeros((0, 3), dtype=np.int64))
    assert empty.keys.dtype == np.int64 and empty.num_keys == 0
    for bad in ([[1.0, 2.0]], [[1.5, 2.0]], [[np.nan, 1.0]], [[np.inf, 1.0]], [[2.0**63, 1.0]],
                [[True, False]], np.array([[1, 2**63]], np.uint64), [[2**64, 1]],
                np.array([[1, 2]], dtype=object)):
        with pytest.raises(ValueError, match="bin counts must be integers that fit 64 bits"):
            WindowBatch(0, 0.0, [1], bad)
    for keys in ([1.0, 2.0], np.array([2**63 + 1, 2**63 + 2], np.uint64), [2**64], [1, 2**64]):
        with pytest.raises(ValueError, match="keys must be integers that fit 64 bits"):
            WindowBatch(0, 0.0, keys, np.ones((len(keys), 2), dtype=np.int64))


def test_window_batch_checks_keys_and_shape():
    for keys in ([2, 1], [1, 1], [[1, 2]]):
        with pytest.raises(ValueError, match="keys must be"):
            WindowBatch(0, 0.0, keys, np.zeros((2, 3), dtype=np.int64))
    for shape in ((2, 3), (1, 0), (3,), (1, 3, 1)):
        with pytest.raises(ValueError, match="counts must be N x P"):
            WindowBatch(0, 0.0, [5], np.zeros(shape, dtype=np.int64))
    batch = WindowBatch(0, 0.0, [5], [[1, 0]])
    assert (batch.num_keys, batch.bins) == (1, 2)
    # a window has at least two bins: every scorer's rank test needs them
    for keys, counts in (([1, 2], [[3], [4]]), ([], np.zeros((0, 1), dtype=np.int64))):
        with pytest.raises(ValueError, match=r"^counts must be N x P with P >= 2, got \(\d, 1\)$"):
            WindowBatch(0, 0.0, keys, counts)
    empty = WindowBatch(0, 0.0, np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64))
    assert (empty.num_keys, empty.bins) == (0, 4)


def test_from_cells_checks_its_cells():
    keys, bins0, values = (np.array(a, dtype=np.int64) for a in ([1, 2], [4, 0], [3, 2**32 - 1]))
    batch = WindowBatch.from_cells(0, 0.0, keys, bins0, values, 5)
    assert batch.counts.tolist() == [[0, 0, 0, 0, 3], [2**32 - 1, 0, 0, 0, 0]]
    for cells, message in (
        ((keys, bins0[:1], values), "aligned"),
        ((keys[:, None], bins0[:, None], values[:, None]), "aligned"),
        # bin 5 of key 1 is not bin 0 of key 2
        ((keys, bins0 + 1, values), r"bins0 must lie in 0\.\.4"),
        ((keys, bins0 - 1, values), r"bins0 must lie in 0\.\.4"),
        ((keys, bins0, values + 1), r"values must lie in \[0, 2\^32\)"),
        ((keys, bins0, values - 4), r"values must lie in \[0, 2\^32\)"),  # not dropped
    ):
        with pytest.raises(ValueError, match=message):
            WindowBatch.from_cells(0, 0.0, *cells, 5)
    empty = np.zeros(0, dtype=np.int64)
    assert WindowBatch.from_cells(0, 0.0, empty, empty, empty, 5).num_keys == 0


@pytest.mark.parametrize("cells, name", [
    (([1], [0], [1.5]), "values"),
    (([1], [0], [True]), "values"),
    (([1], [0.0], [1]), "bins0"),
    (([1.5], [0], [1]), "keys"),
    (([2**63], [0], [1]), "keys"),
])
def test_from_cells_rejects_cells_that_are_not_int64(cells, name):
    with pytest.raises(ValueError, match=f"^{name} must be integers that fit 64 bits$"):
        WindowBatch.from_cells(0, 0.0, *map(np.array, cells), 5)


def test_from_cells_takes_lists():
    batch = WindowBatch.from_cells(3, 1.5, [2, 1, 2], [0, 1, 0], [3, 4, 5], 2)
    assert batch.keys.tolist() == [1, 2] and batch.counts.tolist() == [[0, 4], [8, 0]]


def _small_batch():
    return WindowBatch(0, 0.0, [1, 2], [[1, 2], [3, 4]])


def _small_series():
    return CensoredSeries(7, [1.0, 3.0, 2.0], [True, False, True])


@pytest.mark.parametrize("make", [
    _small_batch,
    lambda: sample_coefficients(0, 2, 3),
    lambda: build_sketch(_small_batch(), sample_coefficients(0, 2, 3)),
    lambda: top_filter(_small_batch(), WindowConfig(bins_per_window=2)),
    _small_series,
    lambda: statistic(_small_series()),
], ids=["WindowBatch", "HashCoefficients", "SketchTable", "TopTable",
        "CensoredSeries", "TestOutcome"])
def test_array_dataclasses_compare_by_identity(make):
    # an array field has no truth value, so a field-wise == or hash() would raise
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
