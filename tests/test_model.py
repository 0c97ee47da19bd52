import numpy as np
import pytest

from flowrank.hashrank import build_sketch, sample_coefficients
from flowrank.ingest import bin_window
from flowrank.model import (
    MetricKind,
    Protocol,
    WindowBatch,
    WindowConfig,
)
from flowrank.ranktest import CensoredSeries, statistic
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
    batch = bin_window(from_records(records), cfg)
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
    ],
)
def test_window_config_validation(kwargs):
    with pytest.raises(ValueError):
        WindowConfig(**kwargs)


def test_window_config_defaults_and_span():
    cfg = WindowConfig()
    assert (cfg.delta, cfg.bins_per_window, cfg.top_m, cfg.keep_mprime) == (1.0, 60, 10, 1)
    assert cfg.window_seconds == 60.0
    assert WindowConfig(bins_per_window=2**21).bins_per_window == 2**21


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
    # integral floats are accepted and stored as integers
    floats = WindowBatch(0, 0.0, [1.0, 2.0], [[1.0, 2.0], [0.0, 4.0]])
    assert floats.counts.dtype == floats.keys.dtype == np.int64
    assert floats.counts.tolist() == [[1, 2], [0, 4]]
    for bad in ([[1, -1]], [[1.5, 2.0]], [[np.nan, 1.0]], [[np.inf, 1.0]], [[2.0**63, 1.0]]):
        with pytest.raises(ValueError):
            WindowBatch(0, 0.0, [1], bad)


def test_window_batch_checks_keys_and_shape():
    for keys in ([2, 1], [1, 1], [[1, 2]], [1.5, 2.0]):
        with pytest.raises(ValueError):
            WindowBatch(0, 0.0, keys, np.zeros((2, 3)))
    for counts in (np.zeros((2, 3)), np.zeros((1, 0)), np.zeros(3), np.zeros((1, 3, 1))):
        with pytest.raises(ValueError):
            WindowBatch(0, 0.0, [5], counts)
    batch = WindowBatch(0, 0.0, [5], [[1, 0]])
    assert (batch.num_keys, batch.bins) == (1, 2)
    empty = WindowBatch(0, 0.0, np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64))
    assert (empty.num_keys, empty.bins) == (0, 4)


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
