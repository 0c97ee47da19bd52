import io

import numpy as np
import pytest

from flowrank.ingest import (
    FLOW_HEADER,
    ParseError,
    bin_window,
    iter_flow_csv,
    parse_record,
    split_windows,
)
from flowrank.model import MetricKind, Protocol, WindowConfig


def flow_line(ts, dst_ip=20, syn=1, proto="TCP", packets=10, src_ip=10, dst_port=80):
    synack, fin, rst = (1, 1, 1) if proto == "TCP" else (0, 0, 0)
    syn = syn if proto == "TCP" else 0
    return (
        f"{ts},{ts + 0.2},{src_ip},{dst_ip},443,{dst_port},{proto},"
        f"{packets},{syn},{synack},{fin},{rst}"
    )


def csv_of(lines):
    return io.StringIO("\n".join([FLOW_HEADER] + lines) + "\n")


def test_parse_record_example():
    rec = parse_record("0.00,0.20,167772161,3232235521,443,5555,TCP,4,1,1,1,1", 2)
    assert rec.syn == 1
    assert rec.src_ip == 167772161
    assert rec.dst_ip == 3232235521
    assert rec.proto is Protocol.TCP


def test_parse_record_reversed_times():
    with pytest.raises(ParseError) as info:
        parse_record("1.5,1.0,1,2,3,4,TCP,1,0,0,0,0", 7)
    assert info.value.line_no == 7


def test_parse_record_unparseable_number():
    with pytest.raises(ParseError):
        parse_record("abc,1.0,1,2,3,4,TCP,1,0,0,0,0", 3)


def test_parse_record_field_count():
    with pytest.raises(ParseError):
        parse_record("1.0,2.0,1,2", 4)


def test_parse_record_unknown_protocol():
    with pytest.raises(ParseError):
        parse_record("0,1,1,2,3,4,ICMP,1,0,0,0,0", 2)


def test_iter_flow_csv_checks_header():
    with pytest.raises(ParseError):
        list(iter_flow_csv(io.StringIO("nope\n1,2,3\n")))


def test_iter_flow_csv_skip_policy():
    src = csv_of([flow_line(0.0), "garbage,line", flow_line(1.0)])
    records = list(iter_flow_csv(src, errors="skip"))
    assert len(records) == 2
    src = csv_of([flow_line(0.0), "garbage,line"])
    with pytest.raises(ParseError):
        list(iter_flow_csv(src, errors="raise"))


@pytest.mark.parametrize("bad_ts", ["nan", "inf", "-inf", "1e300"])
def test_bad_timestamps_rejected_under_both_policies(bad_ts):
    with pytest.raises(ParseError):
        parse_record(f"{bad_ts},1.0,1,2,3,4,TCP,1,0,0,0,0", 2)
    with pytest.raises(ParseError):
        parse_record(f"0.0,{bad_ts},1,2,3,4,TCP,1,0,0,0,0", 2)
    with pytest.raises(ParseError):
        list(iter_flow_csv(csv_of([flow_line(0.0), f"{bad_ts},{bad_ts},1,2,3,4,TCP,1,0,0,0,0"])))
    src = csv_of([flow_line(0.0), f"{bad_ts},{bad_ts},1,2,3,4,TCP,1,0,0,0,0", flow_line(1.0)])
    batches = list(split_windows(iter_flow_csv(src, errors="skip"), cfg3()))
    assert [b.window_index for b in batches] == [0]
    assert np.array_equal(batches[0].series[20].values, [1, 1, 0])


def test_negative_and_near_limit_timestamps_accepted():
    assert parse_record(flow_line(-5.0), 2).ts_start == -5.0
    assert parse_record(flow_line(4294967295.0), 2).ts_start == 4294967295.0
    with pytest.raises(ParseError):
        parse_record(flow_line(4294967296.0), 2)
    batches = list(split_windows([parse_record(flow_line(-5.0), 2)], cfg3()))
    assert batches[0].start_time == -5.0


def cfg3(metric=MetricKind.SYN_FLOOD):
    return WindowConfig(delta=1.0, bins_per_window=3, top_m=2, metric=metric)


def test_bin_window_adds_syn_counts():
    records = [
        parse_record(flow_line(0.1, syn=2, packets=5), 2),
        parse_record(flow_line(0.7, syn=3, packets=6), 3),
    ]
    batch = bin_window(records, cfg3())
    assert np.array_equal(batch.series[20].values, [5, 0, 0])


def test_bin_window_distinct_ports_deduplicate():
    records = [
        parse_record(flow_line(0.1, dst_port=80), 2),
        parse_record(flow_line(0.5, dst_port=80), 3),
    ]
    batch = bin_window(records, cfg3(MetricKind.PORT_SCAN))
    assert np.array_equal(batch.series[20].values, [1, 0, 0])


def test_bin_window_empty_stream():
    batch = bin_window([], cfg3())
    assert batch.num_keys == 0
    assert batch.bins == 3


def test_bin_window_rejects_out_of_range_record():
    rec = parse_record(flow_line(10.0), 2)
    with pytest.raises(ValueError):
        bin_window([rec], cfg3(), window_index=0)


def test_bin_window_is_order_independent():
    rng = np.random.default_rng(3)
    lines = [
        flow_line(float(rng.uniform(0, 3)), dst_ip=int(rng.integers(1, 5)), syn=int(rng.integers(0, 3)))
        for _ in range(40)
    ]
    records = [parse_record(l, i) for i, l in enumerate(lines, start=2)]
    a = bin_window(records, cfg3())
    b = bin_window(list(reversed(records)), cfg3())
    assert a.series.keys() == b.series.keys()
    for key in a.series:
        assert np.array_equal(a.series[key].values, b.series[key].values)


def test_bin_window_syn_mass_conservation():
    rng = np.random.default_rng(8)
    records = [
        parse_record(
            flow_line(
                float(rng.uniform(0, 3)),
                dst_ip=int(rng.integers(1, 6)),
                syn=int(rng.integers(0, 4)),
            ),
            i,
        )
        for i in range(50)
    ]
    batch = bin_window(records, cfg3())
    total = sum(bs.values.sum() for bs in batch.series.values())
    assert total == sum(r.syn for r in records)


def test_bin_window_drops_all_zero_keys():
    records = [parse_record(flow_line(0.1, syn=0), 2)]
    batch = bin_window(records, cfg3())
    assert batch.num_keys == 0


def test_split_windows_groups_and_aligns():
    cfg = WindowConfig(delta=1.0, bins_per_window=3, top_m=2)
    # first record at 10.4: windows align to floor(10.4) = 10
    records = [
        parse_record(flow_line(10.4), 2),
        parse_record(flow_line(12.9), 3),
        parse_record(flow_line(13.0), 4),  # next window
        parse_record(flow_line(19.5), 5),  # skips one empty window
    ]
    batches = list(split_windows(records, cfg))
    assert [b.window_index for b in batches] == [0, 1, 3]
    assert batches[0].start_time == 10.0
    assert np.array_equal(batches[0].series[20].values, [1, 0, 1])
    assert np.array_equal(batches[1].series[20].values, [1, 0, 0])
    # trailing partial window still spans all bins, zero padded
    assert batches[2].series[20].values.shape == (3,)


def test_split_windows_empty_stream():
    assert list(split_windows([], cfg3())) == []


def test_split_windows_unsorted_input():
    cfg = WindowConfig(delta=1.0, bins_per_window=3, top_m=2)
    records = [
        parse_record(flow_line(13.0), 2),
        parse_record(flow_line(10.4), 3),
    ]
    batches = list(split_windows(records, cfg))
    assert [b.window_index for b in batches] == [0, 1]
    assert batches[0].start_time == 10.0
