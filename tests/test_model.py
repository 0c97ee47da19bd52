import numpy as np
import pytest

from flowrank.model import (
    FlowRecord,
    MetricKind,
    Protocol,
    WindowBatch,
    WindowConfig,
    metric_key_value,
)


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


def test_metric_syn_flood_reads_syn_counter():
    contrib = metric_key_value(tcp_record(syn=3), MetricKind.SYN_FLOOD)
    assert contrib is not None
    assert contrib.key == 20
    assert contrib.count == 3
    assert contrib.token is None


def test_metric_syn_flood_ignores_udp():
    rec = FlowRecord(0.0, 0.1, 1, 2, 53, 53, Protocol.UDP, 5)
    assert metric_key_value(rec, MetricKind.SYN_FLOOD) is None


def test_metric_udp_flood_counts_packets():
    rec = FlowRecord(0.0, 0.1, 1, 2, 53, 53, Protocol.UDP, 5)
    contrib = metric_key_value(rec, MetricKind.UDP_FLOOD)
    assert contrib == (2, 5, None)
    assert metric_key_value(tcp_record(), MetricKind.UDP_FLOOD) is None


def test_metric_port_scan_emits_port_token():
    contrib = metric_key_value(tcp_record(dst_port=80), MetricKind.PORT_SCAN)
    assert contrib is not None
    assert contrib.key == 20
    assert contrib.count is None
    assert contrib.token == 80


def test_metric_net_scan_keys_on_source():
    contrib = metric_key_value(tcp_record(), MetricKind.NET_SCAN)
    assert contrib is not None
    assert contrib.key == 10
    assert contrib.token == 20
    udp = FlowRecord(0.0, 0.1, 7, 8, 53, 53, Protocol.UDP, 5)
    assert metric_key_value(udp, MetricKind.NET_SCAN) == (7, None, 8)


def test_flow_record_rejects_reversed_times():
    with pytest.raises(ValueError):
        tcp_record(ts_start=1.5, ts_end=1.0)


def test_flow_record_rejects_flag_overflow():
    with pytest.raises(ValueError):
        tcp_record(packets=2, syn=2, synack=1, fin=0, rst=0)


def test_flow_record_rejects_flags_on_non_tcp():
    with pytest.raises(ValueError):
        FlowRecord(0.0, 0.1, 1, 2, 53, 53, Protocol.UDP, 5, syn=1)


def test_flow_record_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        tcp_record(src_ip=1 << 32)
    with pytest.raises(ValueError):
        tcp_record(dst_port=70000)
    with pytest.raises(ValueError):
        tcp_record(packets=-1)


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
    ],
)
def test_window_config_validation(kwargs):
    with pytest.raises(ValueError):
        WindowConfig(**kwargs)


def test_window_config_defaults_and_span():
    cfg = WindowConfig()
    assert (cfg.delta, cfg.bins_per_window, cfg.top_m, cfg.keep_mprime) == (1.0, 60, 10, 1)
    assert cfg.window_seconds == 60.0


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
