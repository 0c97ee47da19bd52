import dataclasses
import gc
import io
import math
import tracemalloc
import warnings
from collections import Counter
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowrank import ingest
from flowrank.ingest import (
    COUNTERS,
    FLOW_COLUMNS,
    FLOW_HEADER,
    FlowColumns,
    ParseError,
    iter_flow_csv,
    read_flow_csv,
    split_windows,
    window_fields,
)
from flowrank.model import MetricKind, Protocol, WindowConfig

from oracles import FlowRecord, RecordError, bin_records, from_records, parse_record, split_records


def flow_line(ts, dst_ip=20, syn=1, proto="TCP", packets=10, src_ip=10, dst_port=80):
    synack, fin, rst = (1, 1, 1) if proto == "TCP" else (0, 0, 0)
    syn = syn if proto == "TCP" else 0
    return (
        f"{ts},{ts + 0.2},{src_ip},{dst_ip},443,{dst_port},{proto},"
        f"{packets},{syn},{synack},{fin},{rst}"
    )


def csv_of(lines):
    return io.StringIO("\n".join([FLOW_HEADER] + lines) + "\n")


def test_flow_columns_follow_flow_record_field_order():
    # the reference records and iter_flow_csv's tuples rely on it
    assert FLOW_COLUMNS == tuple(f.name for f in dataclasses.fields(FlowRecord))


def test_parse_record_example():
    rec = parse_record("0.00,0.20,167772161,3232235521,443,5555,TCP,4,1,1,1,1", 2)
    assert rec.syn == 1
    assert rec.src_ip == 167772161
    assert rec.dst_ip == 3232235521
    assert rec.proto is Protocol.TCP


def test_parse_record_reversed_times():
    with pytest.raises(RecordError) as info:
        parse_record("1.5,1.0,1,2,3,4,TCP,1,0,0,0,0", 7)
    assert info.value.line_no == 7


def test_parse_record_unparseable_number():
    with pytest.raises(RecordError):
        parse_record("abc,1.0,1,2,3,4,TCP,1,0,0,0,0", 3)


def test_parse_record_field_count():
    with pytest.raises(RecordError):
        parse_record("1.0,2.0,1,2", 4)


def test_parse_record_unknown_protocol():
    with pytest.raises(RecordError):
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
        list(iter_flow_csv(src, errors="abort"))
    for policy in ("bogus", "raise"):
        with pytest.raises(ValueError, match='^errors must be "abort" or "skip"$'):
            read_flow_csv(csv_of([flow_line(0.0)]), errors=policy)


@pytest.mark.parametrize("bad_ts", ["nan", "inf", "-inf", "1e300"])
def test_bad_timestamps_rejected_under_both_policies(bad_ts):
    with pytest.raises(RecordError):
        parse_record(f"{bad_ts},1.0,1,2,3,4,TCP,1,0,0,0,0", 2)
    with pytest.raises(RecordError):
        parse_record(f"0.0,{bad_ts},1,2,3,4,TCP,1,0,0,0,0", 2)
    with pytest.raises(ParseError):
        list(iter_flow_csv(csv_of([flow_line(0.0), f"{bad_ts},{bad_ts},1,2,3,4,TCP,1,0,0,0,0"])))
    src = csv_of([flow_line(0.0), f"{bad_ts},{bad_ts},1,2,3,4,TCP,1,0,0,0,0", flow_line(1.0)])
    batches = list(split_windows(read_flow_csv(src, errors="skip"), cfg3()))
    assert [b.window_index for b in batches] == [0]
    assert series_of(batches[0])[20] == [1, 1, 0]


def test_negative_and_near_limit_timestamps_accepted():
    assert parse_record(flow_line(-5.0), 2).ts_start == -5.0
    assert parse_record(flow_line(4294967295.0), 2).ts_start == 4294967295.0
    with pytest.raises(RecordError):
        parse_record(flow_line(4294967296.0), 2)
    batches = list(split_windows(from_records([parse_record(flow_line(-5.0), 2)]), cfg3()))
    assert batches[0].start_time == -5.0


def series_of(batch):
    """{key: list of bin counts} of a window batch."""
    return {k: row.tolist() for k, row in zip(batch.keys.tolist(), batch.counts)}


def cfg3(metric=MetricKind.SYN_FLOOD):
    return WindowConfig(delta=1.0, bins_per_window=3, top_m=2, metric=metric)


def only_window(records, cfg):
    """The one window that `split_windows` makes of `records`."""
    [batch] = split_windows(from_records(records), cfg)
    return batch


def test_bin_window_adds_syn_counts():
    records = [
        parse_record(flow_line(0.1, syn=2, packets=5), 2),
        parse_record(flow_line(0.7, syn=3, packets=6), 3),
    ]
    batch = only_window(records, cfg3())
    assert series_of(batch)[20] == [5, 0, 0]


def test_bin_window_distinct_ports_deduplicate():
    records = [
        parse_record(flow_line(0.1, dst_port=80), 2),
        parse_record(flow_line(0.5, dst_port=80), 3),
    ]
    batch = only_window(records, cfg3(MetricKind.PORT_SCAN))
    assert series_of(batch)[20] == [1, 0, 0]


def test_bin_window_empty_stream():
    # no record of the window is one the metric reads
    batch = only_window([parse_record(flow_line(0.1, proto="UDP"), 2)], cfg3())
    assert batch.num_keys == 0
    assert batch.bins == 3


def test_window_edge_records_bin_where_split_windows_puts_them():
    # (t - origin) // window_seconds puts the second record in the window whose
    # span [lo, lo + window_seconds) it rounds onto the end of
    cfg = WindowConfig(delta=0.5552908027291993, bins_per_window=84, top_m=2)
    records = [parse_record(flow_line(t), i) for i, t in enumerate((1000005310.704, 1000006103.123), 2)]
    batches = list(split_windows(from_records(records), cfg))
    assert [b.counts.sum() for b in batches] == [1, 1]
    assert batches[1].start_time + cfg.window_seconds == 1000006103.123
    assert series_of(batches[1])[20] == [0] * 83 + [1]
    # here the rule's window starts one rounding after the record: bin 0, not bin -1
    cfg = WindowConfig(delta=0.9901501544118366, bins_per_window=4, top_m=2)
    t = 130317.62242275946
    records = [parse_record(flow_line(-805.3304974797362, dst_ip=7), 2), parse_record(flow_line(t), 3)]
    _, last = split_windows(from_records(records), cfg)
    assert last.start_time > t
    assert series_of(last) == {20: [1, 0, 0, 0]}


def test_bin_window_is_order_independent():
    rng = np.random.default_rng(3)
    lines = [
        flow_line(float(rng.uniform(0, 3)), dst_ip=int(rng.integers(1, 5)), syn=int(rng.integers(0, 3)))
        for _ in range(40)
    ]
    records = [parse_record(l, i) for i, l in enumerate(lines, start=2)]
    a = only_window(records, cfg3())
    b = only_window(list(reversed(records)), cfg3())
    assert series_of(a) == series_of(b)


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
    batch = only_window(records, cfg3())
    total = batch.counts.sum()
    assert total == sum(r.syn for r in records)


def test_bin_window_drops_all_zero_keys():
    records = [parse_record(flow_line(0.1, syn=0), 2)]
    batch = only_window(records, cfg3())
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
    batches = list(split_windows(from_records(records), cfg))
    assert [b.window_index for b in batches] == [0, 1, 3]
    assert batches[0].start_time == 10.0
    assert series_of(batches[0])[20] == [1, 0, 1]
    assert series_of(batches[1])[20] == [1, 0, 0]
    # trailing partial window still spans all bins, zero padded
    assert batches[2].counts.shape == (1, 3)


def test_split_windows_empty_stream():
    assert list(split_windows(from_records([]), cfg3())) == []


@pytest.mark.parametrize("metric", list(MetricKind))
def test_split_windows_rejects_columns_without_a_field_it_reads(metric):
    src = [FLOW_HEADER + "\n", flow_line(0.0) + "\n"]
    fields = window_fields(metric)
    assert list(split_windows(read_flow_csv(src, fields=fields), cfg3(metric)))
    for name in fields:
        cols = read_flow_csv(src, fields=[f for f in fields if f != name])
        with pytest.raises(ValueError, match=f"reads {name},"):
            list(split_windows(cols, cfg3(metric)))


@pytest.mark.parametrize("delta,bins,stamps,match", [
    (1e-300, 60, [0.0, 1.7e9], "too small"),  # ts / delta overflows
    (1e-300, 60, [-1.7e9, 0.0], "too small"),
    (1e-9, 2, [1.7e9, 1.7e9 + 1], "vanishes"),  # the 2 ns window is below one ulp
    (1e-7, 2, [0.0, 4.0e9], "vanishes"),  # resolvable at the origin, not at the last window
])
def test_split_windows_rejects_unresolvable_delta(delta, bins, stamps, match):
    cfg = WindowConfig(delta=delta, bins_per_window=bins, top_m=2)
    records = [parse_record(flow_line(t), i) for i, t in enumerate(stamps, start=2)]
    with pytest.raises(ValueError, match=match):
        list(split_windows(from_records(records), cfg))


def test_split_windows_unsorted_input():
    cfg = WindowConfig(delta=1.0, bins_per_window=3, top_m=2)
    records = [
        parse_record(flow_line(13.0), 2),
        parse_record(flow_line(10.4), 3),
    ]
    batches = list(split_windows(from_records(records), cfg))
    assert [b.window_index for b in batches] == [0, 1]
    assert batches[0].start_time == 10.0


# --- columnar reader against the per-line reference ----------------------

ODD_FIELDS = (
    "+5", " 5", "5 ", "1_000", "\u0663", "\uff15", "nan", "inf", "-inf", "1e300", "1e400",
    "-1", "-0", "", "0x10", "1.5", "007", "1e5", ".5", "5.", "-.5e-3", "1E+02",
    "4294967295", "4294967296", "65535", "65536", "12345678901", "99999999999999999999",
    "OTHERX", "OTHE", "tcp", "TCP ",
)
# odd fields made only of the characters the chunk screen admits, most of
# which np.loadtxt reads; parse_record or the range checks reject many
SCREENED_FIELDS = (
    "+5", "-0", "0005", "-5", "12345678901", "1234567890123456789", "9223372036854775807",
    "-9223372036854775808", "9223372036854775808", "99999999999999999999", "1e400", "-1.5",
    "+.5", "5.0", "1E5", "TCPUDPX", "UDPTCP", "",
)
VALID = "0.5,0.6,1,2,3,4,TCP,3,1,1,1,0\n"
FLAGS = "0.5,0.6,1,2,3,4,TCP,1,1,1,0,0\n"  # np.loadtxt reads it, the flag check rejects it


@st.composite
def flow_text_lines(draw, odd=ODD_FIELDS, blank=("\n", "  \n", "\t\r\n", "", "\u2003\n"),
                    endings=("\n", "\n", "\n", "\r\n", "")):
    """A flow CSV line: mostly well-formed, with odd fields, field counts and endings."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(blank))
    ts = draw(st.floats(-1e4, 1e4, allow_nan=False))
    fmt = draw(st.sampled_from(["{:.3f}", "{!r}", "{:.2e}", "{:.0f}"]))
    proto = draw(st.sampled_from(["TCP", "TCP", "UDP", "OTHER"]))
    flags = [draw(st.integers(0, 2) if proto == "TCP" else st.sampled_from([0] * 5 + [1]))
             for _ in range(4)]
    fields = [
        fmt.format(ts),
        fmt.format(ts + draw(st.floats(0, 5))),
        *(str(draw(st.integers(0, 2**32 - 1))) for _ in range(2)),
        *(str(draw(st.integers(0, 2**16 - 1))) for _ in range(2)),
        proto,
        str(draw(st.integers(0, 8))),
        *map(str, flags),
    ]
    for i in range(len(fields)):
        if draw(st.integers(0, 11)) == 0:
            fields[i] = draw(st.sampled_from(odd))
    cut = draw(st.sampled_from([12] * 12 + [11, 13, 1]))
    fields = (fields + ["0"])[:cut]
    return ",".join(fields) + draw(st.sampled_from(endings))


# elements a chunk screen must pass or send line by line: blank lines, '',
# no newline, an embedded newline
screened_text_lines = flow_text_lines(
    odd=SCREENED_FIELDS, blank=("\n", ""), endings=("\n",) * 12 + ("", "\n\n", "\n" + VALID))


def assert_same_columns(got, want):
    for name, a, b in zip(FlowColumns._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # floats bit for bit


# np.loadtxt's "input contained no data"; only this category, so that a warning
# raised while hypothesis reports a failure cannot turn it into an INTERNALERROR
@pytest.mark.filterwarnings("error::UserWarning")
@settings(max_examples=600, deadline=None)
@given(st.lists(flow_text_lines(), max_size=14) | st.lists(screened_text_lines, max_size=14))
@example(["\n"])
@example(["", "\n", "", "\n", VALID])
@example([VALID, ""])
@example([VALID, "", FLAGS])
@example([VALID.rstrip(), "\n", FLAGS])
@example(["", VALID + VALID])
@example([VALID.rstrip(), "\n", VALID + VALID])
@example([VALID.rstrip(), VALID, VALID.rstrip()])
@example([VALID.replace(",0\n", "\n"), VALID.replace("\n", ",0\n")])  # 10 and 12 commas
@example([VALID, VALID.replace(",TCP,3,", ",TCP,99999999999999999999,")])  # an int64 overflow
@example([VALID, VALID.replace(",TCP,3,1,", ",TCP,3,,")])  # an empty field
@example([VALID, VALID.replace(",TCP,3,", ",TCP,5.0,")])  # a "5.0" counter
def test_read_flow_csv_matches_per_line_reference(lines):
    records, errors = [], []
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            records.append(parse_record(line, line_no))
        except RecordError as exc:
            errors.append(exc)
    source = [FLOW_HEADER + "\n"] + lines
    with patch.object(ingest, "CHUNK_LINES", 4):  # several chunks per file
        skipped = Counter()
        got = read_flow_csv(source, errors="skip", skipped=skipped)
        assert_same_columns(got, from_records(records))
        assert skipped == Counter(exc.reason for exc in errors)
        assert list(iter_flow_csv(source, errors="skip")) == list(map(dataclasses.astuple, records))
        if errors:
            with pytest.raises(ParseError) as info:
                read_flow_csv(source)
            first = errors[0]
            assert (info.value.line_no, str(info.value), info.value.reason) == (
                first.line_no, str(first), first.reason)
        else:
            assert_same_columns(read_flow_csv(source), from_records(records))


def test_plain_corpus_skips_the_per_line_screen():
    lines = [flow_line(t / 7 - 30, dst_ip=t % 13, proto=("TCP", "UDP", "OTHER")[t % 3])
             for t in range(300)]
    lines[50] = FLAGS.rstrip()  # read, then rejected by the flag check
    convert, split = Mock(wraps=ingest._convert), Mock(wraps=ingest._split)
    with patch.object(ingest, "CHUNK_LINES", 64), patch.object(ingest, "_convert", convert), \
            patch.object(ingest, "_split", split):
        skipped = Counter()
        got = read_flow_csv(csv_of(lines), errors="skip", skipped=skipped)
    assert skipped == {"flags": 1}
    # np.loadtxt reads every line; only the row the flag check rejects is split
    assert [len(c.args[0]) for c in convert.call_args_list] == [64] * 4 + [44]
    assert [c.args for c in split.call_args_list] == [(FLAGS, 52)]
    del lines[50]
    assert_same_columns(got, from_records(parse_record(line) for line in lines))


def test_malformed_lines_alone_are_split():
    # each defect of the flow-scan benchmark corpus, two of them on either
    # side of the first chunk boundary
    lines = [flow_line(t / 7 - 30, dst_ip=t % 13, proto=("TCP", "UDP", "OTHER")[t % 3])
             for t in range(5000)]
    defects = {
        40: lines[40].rsplit(",", 1)[0],  # a field short
        4095: lines[4095].replace(",TCP,10,", ",TCP,10x,"),  # "2x" in packets
        4096: lines[4096].replace(",UDP,", ",ICMP,"),
        4990: FLAGS.rstrip(),  # read, then rejected by the flag check
    }
    assert all(defects[i] != lines[i] for i in defects)
    for i, line in defects.items():
        lines[i] = line
    convert, split = Mock(wraps=ingest._convert), Mock(wraps=ingest._split)
    with patch.object(ingest, "_convert", convert), patch.object(ingest, "CHUNK_LINES", 4096), \
            patch.object(ingest, "_split", split):
        skipped = Counter()
        got = read_flow_csv(csv_of(lines), errors="skip", skipped=skipped)
    assert skipped == {"field count": 1, "number": 1, "protocol": 1, "flags": 1}
    # every well-formed line, the first and the last among them, reaches np.loadtxt
    assert convert.call_count == 2
    assert sum((c.args[0] for c in convert.call_args_list), []) == [
        line + "\n" for i, line in enumerate(lines) if i not in (40, 4095, 4096)]
    # and the defects alone are split
    assert [c.args for c in split.call_args_list] == [
        (lines[i] + "\n", i + 2) for i in sorted(defects)]
    good = [line for i, line in enumerate(lines) if i not in defects]
    assert_same_columns(got, from_records(parse_record(line) for line in good))


@pytest.mark.parametrize("field", ["", "5.0", "99999999999999999999"],
                         ids=["empty", "fractional", "overflow"])
def test_line_that_loadtxt_rejects_splits_its_chunk_alone(field):
    lines = [flow_line(t / 3, dst_ip=t % 5, proto=("TCP", "UDP", "OTHER")[t % 3]) + "\n"
             for t in range(12)]
    lines[5] = record_line(packets=field) + "\n"  # passes the byte screen
    lines[6] = "\n"
    lines[7] = FLAGS
    split = Mock(wraps=ingest._split)
    with patch.object(ingest, "CHUNK_LINES", 4), patch.object(ingest, "_split", split):
        skipped = Counter()
        got = read_flow_csv([FLOW_HEADER + "\n"] + lines, errors="skip", skipped=skipped)
    # the chunk of lines 6-9 is split whole but for its blank line, the others not at all
    assert [c.args for c in split.call_args_list] == [(lines[i], i + 2) for i in (4, 5, 7)]
    records, reasons = [], Counter()
    for line_no, line in enumerate(lines, start=2):
        if line.strip():
            try:
                records.append(parse_record(line, line_no))
            except RecordError as exc:
                reasons[exc.reason] += 1
    assert skipped == reasons and sum(reasons.values()) == 2
    assert_same_columns(got, from_records(records))


# every kind of character a chunk's element may hold around the screen's choices:
# the field bytes, commas, line ends, DEL (the screen's separator), a space and
# a character that is not ASCII
SCREEN_CHARS = "0123456789.eE+-TCPUDOHR,\n\r\x7f \u0663"


@st.composite
def screen_elements(draw):
    """An element of a chunk: empty, any text of `SCREEN_CHARS`, or near-records
    of 11 to 13 fields of those characters with a drawn ending."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return ""
    if kind == 1:
        return draw(st.text(SCREEN_CHARS, max_size=40))
    words = st.sampled_from(["0", "1.5", "-2", "1e3", "TCP", "UDP", ""])
    fields = draw(st.lists(words | st.text(SCREEN_CHARS, max_size=3), min_size=11, max_size=13))
    return ",".join(fields) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n", "\n" + VALID]))


@settings(max_examples=150, deadline=None)
@given(st.lists(screen_elements(), max_size=8))
@example([])
@example([VALID, "", "\n", VALID.rstrip()])
@example([VALID.rstrip(), VALID + VALID, "\x7f" + VALID])
@example([VALID.replace(",TCP,", ",TCPUDP,"), VALID.replace(",3,", ",,")])
def test_screened_elements_convert_to_one_row_each(lines):
    # the byte screen picks only elements that are one nonblank line each, so
    # np.loadtxt either rejects them or returns one row for each
    at = ingest._screened(lines)
    picked = [lines[i] for i in at.tolist()]
    assert all(line.strip() and "\n" not in line[:-1] for line in picked), picked
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cols = ingest._convert(picked)
    except (ValueError, DeprecationWarning):
        return
    assert all(col.shape == at.shape for col in cols)


def test_abort_reads_no_chunk_past_the_first_bad_line():
    lines = [FLOW_HEADER + "\n"] + [VALID] * 8  # chunks of 4: lines 2-5 and 6-9
    lines[6] = "1,2,3\n"  # line 7, the first bad one
    lines[8] = FLAGS  # line 9, a later bad line in the same chunk

    def source():
        yield from lines
        pytest.fail("read a line past the chunk of the first bad line")

    with patch.object(ingest, "CHUNK_LINES", 4), pytest.raises(ParseError) as info:
        read_flow_csv(source())
    assert (info.value.line_no, info.value.reason) == (7, "field count")


@pytest.mark.parametrize("odd", [
    "0.5,0.6,1,2,3,4,TC_P,3,1,1,1,0\n",  # np.loadtxt reads any proto text
    "0.5,0.6,1,2,3,4,TCP ,3,1,1,1,0\n",
    " 0.5,0.6,1,2,3,4,TCP,3,1,1,1,0\n",
    "0.5,0.6,1,2,3,4,TCP,3,1,1,1,0\r\n",
    "0.5,0.6,1,2,3,4,tcp,3,1,1,1,0\n",
    "0.5,0.6,1,2,3,4,TCP,3,1,1,1,\u0660\n",  # not ASCII
    "0.5,0.6,1,2,3,4,TCP,3,1,1,1,0\x7f\n",  # the screen's own line separator
])
def test_chunk_screen_sends_other_characters_line_by_line(odd):
    convert, split = Mock(wraps=ingest._convert), Mock(wraps=ingest._split)
    with patch.object(ingest, "_convert", convert), patch.object(ingest, "_split", split):
        read_flow_csv([FLOW_HEADER + "\n", VALID, odd, VALID], errors="skip")
    assert [c.args[0] for c in convert.call_args_list] == [[VALID, VALID]]
    assert [c.args for c in split.call_args_list] == [(odd, 3)]


def loadtxt_that_truncates(real=np.loadtxt):
    """np.loadtxt as NumPy 1.23 to 1.26 read "3.9" as an integer: a warning, then 3."""
    def loadtxt(lines, **kwargs):
        if any(",3.9," in line for line in lines):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            lines = [line.replace(",3.9,", ",3,") for line in lines]
        return real(lines, **kwargs)
    return loadtxt


@pytest.mark.parametrize("loadtxt", [np.loadtxt, loadtxt_that_truncates()],
                         ids=["installed", "truncating"])
def test_fractional_counter_is_a_parse_error_under_default_filters(loadtxt):
    lines = [flow_line(t) for t in range(20)]
    lines[7] = "0.5,0.6,1,2,3,4,TCP,3.9,1,1,1,0"
    with warnings.catch_warnings(), patch.object(np, "loadtxt", loadtxt):
        warnings.simplefilter("default")
        with pytest.raises(ParseError) as info:
            read_flow_csv(csv_of(lines))
        assert (info.value.line_no, info.value.reason) == (9, "number")
        skipped = Counter()
        got = read_flow_csv(csv_of(lines), errors="skip", skipped=skipped)
    assert skipped == {"number": 1}
    del lines[7]
    assert_same_columns(got, from_records(parse_record(line) for line in lines))


def test_canonical_timestamps_match_float_bit_for_bit():
    rng = np.random.default_rng(12)
    values = rng.uniform(-2.0**32, 2.0**32, 20000) * 10.0 ** rng.integers(-12, 1, 20000)
    digits = rng.integers(0, 18, values.size)
    texts = [f"{v:.{d}f}" if d % 2 else f"{v:.{d}e}" for v, d in zip(values.tolist(), digits)]
    cols = read_flow_csv(csv_of([f"{t},{t},1,2,3,4,UDP,1,0,0,0,0" for t in texts]))
    assert cols.ts_start.tobytes() == np.array([float(t) for t in texts]).tobytes()


def test_read_flow_csv_reports_skips_by_reason():
    src = csv_of([
        flow_line(0.0),
        "1,2,3",
        "x,1,1,2,3,4,TCP,1,0,0,0,0",
        "0,1,1,2,3,4,ICMP,1,0,0,0,0",
        "0,1,1,2,3,4,TCP,4294967296,0,0,0,0",
        "0,1,1,2,3,4,TCP,1,1,1,0,0",
        "nan,1,1,2,3,4,TCP,1,0,0,0,0",
        "",
        flow_line(1.0),
    ])
    skipped = Counter()
    cols = read_flow_csv(src, errors="skip", skipped=skipped)
    assert cols.ts_start.tolist() == [0.0, 1.0]
    assert skipped == {
        "field count": 1, "number": 1, "protocol": 1, "range": 1, "flags": 1, "timestamp": 1}


def test_undecodable_bytes_fail_their_own_line(tmp_path):
    path = tmp_path / "flows.csv"
    odd = VALID.replace(",TCP,3,", ",TCP,3\udcff,")  # how the reader decodes byte 0xff
    path.write_bytes(f"{FLOW_HEADER}\n{VALID}{odd}{VALID}".encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as info:
        read_flow_csv(str(path))
    assert (info.value.line_no, info.value.reason) == (3, "number")
    skipped = Counter()
    got = read_flow_csv(str(path), errors="skip", skipped=skipped)
    assert skipped == {"number": 1}
    assert_same_columns(got, from_records([parse_record(VALID)] * 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 11),
       st.binary(max_size=6).filter(lambda raw: b"\n" not in raw and b"\r" not in raw))
@example(3, 7, b"\xff")  # not UTF-8
@example(0, 6, b"\x7f")  # DEL, the byte screen's line separator
@example(5, 11, b"\x00")
@example(2, 4, b"1,2")  # one field more
@example(1, 9, b"1")  # still a valid line
def test_arbitrary_bytes_in_one_field_fail_only_their_line(tmp_path_factory, at, field, raw):
    lines = [flow_line(10.0 + i, dst_ip=i % 3, proto=("TCP", "UDP")[i % 2]) for i in range(6)]
    fields = [f.encode() for f in lines[at].split(",")]
    fields[field] = raw
    odd = b",".join(fields).decode("utf-8", "surrogateescape")  # as the reader decodes it
    path = tmp_path_factory.mktemp("bytes") / "flows.csv"
    path.write_bytes(b"\n".join([FLOW_HEADER.encode(), *(
        b",".join(fields) if i == at else line.encode() for i, line in enumerate(lines))]) + b"\n")
    others = [parse_record(line) for i, line in enumerate(lines) if i != at]
    skipped = Counter()
    got = read_flow_csv(str(path), errors="skip", skipped=skipped)
    try:
        record = parse_record(odd, at + 2)
    except RecordError as exc:
        with pytest.raises(ParseError) as info:
            read_flow_csv(str(path))
        assert (info.value.line_no, str(info.value), info.value.reason) == (
            at + 2, str(exc), exc.reason)
        assert skipped == {exc.reason: 1}
        assert_same_columns(got, from_records(others))
    else:
        want = from_records(others[:at] + [record] + others[at:])
        assert not skipped
        assert_same_columns(got, want)
        assert_same_columns(read_flow_csv(str(path)), want)


def record_line(**fields):
    """VALID with some fields replaced, by name."""
    values = dict(zip(FLOW_COLUMNS, VALID.rstrip().split(",")), **fields)
    return ",".join(str(values[name]) for name in FLOW_COLUMNS)


# one line per entry of the rule table, in its order: the line breaks that
# rule alone, and read_flow_csv reports it with this message and reason
RULE_CASES = [
    (record_line(ts_start="nan"), "timestamp nan is not finite or beyond 2^32 s", "timestamp"),
    (record_line(ts_end="-1e300"), "timestamp -1e+300 is not finite or beyond 2^32 s", "timestamp"),
    (record_line(proto="ICMP"), "unknown protocol 'ICMP'", "protocol"),
    (record_line(ts_start="0.7"), "flow ends before it starts (0.6 < 0.7)", "timestamp"),
    (record_line(src_ip=2**32), "src_ip=4294967296 outside 32-bit range", "range"),
    (record_line(dst_ip=-1), "dst_ip=-1 outside 32-bit range", "range"),
    (record_line(src_port=2**16), "src_port=65536 outside 16-bit range", "range"),
    (record_line(dst_port=-1), "dst_port=-1 outside 16-bit range", "range"),
    *(case for name in COUNTERS for case in (
        (record_line(**{name: -1}), f"{name} must be nonnegative", "range"),
        (record_line(**{name: 2**32}), f"{name}={2**32} outside 32-bit counter range", "range"),
    )),
    (record_line(packets=2), "TCP flag counters sum to 3 > packets=2", "flags"),
    (record_line(proto="UDP"), "flag counters must be zero for non-TCP records", "flags"),
]


@pytest.mark.parametrize("line,message,reason", RULE_CASES,
                         ids=[f"{i}-{case[2]}" for i, case in enumerate(RULE_CASES, 1)])
def test_each_record_rule_rejects_its_line(line, message, reason):
    assert len(RULE_CASES) == len(ingest._RULES)
    with pytest.raises(ParseError) as info:
        read_flow_csv(csv_of([VALID.rstrip(), line]))
    assert (info.value.line_no, str(info.value), info.value.reason) == (
        3, f"line 3: {message}", reason)
    skipped = Counter()
    cols = read_flow_csv(csv_of([VALID.rstrip(), line, VALID.rstrip()]), errors="skip",
                         skipped=skipped)
    assert skipped == {reason: 1} and cols.ts_start.size == 2


@pytest.mark.parametrize("line,reason", [
    (record_line(ts_start="inf", proto="ICMP"), "timestamp"),
    (record_line(ts_end="nan", ts_start="0.7"), "timestamp"),
    (record_line(ts_start="0.7", proto="ICMP", src_ip=-1), "protocol"),
    (record_line(ts_start="0.7", src_ip=-1), "timestamp"),
    (record_line(dst_port=2**16, packets=-1), "range"),
    (record_line(proto="UDP", packets=2**32), "range"),
])
def test_record_rules_report_the_first_broken_rule(line, reason):
    with pytest.raises(RecordError) as oracle:
        parse_record(line, 2)
    with pytest.raises(ParseError) as info:
        read_flow_csv(csv_of([line]))
    assert info.value.reason == oracle.value.reason == reason
    assert str(info.value) == str(oracle.value)


def test_record_rules_accept_their_bounds():
    top = 2**32 - 1
    lines = [
        f"-4294967295.5,4294967295.5,{top},{top},65535,65535,TCP,{top},{top},0,0,0",
        f"0,0,0,0,0,0,UDP,{top},0,0,0,0",
        f"1,1,0,0,0,0,TCP,{top},1,{top - 3},1,1",
        "-0,0,0,0,0,0,OTHER,0,0,0,0,0",
    ]
    for source in (csv_of(lines), csv_of(lines + ["+5"])):  # chunk path, then line by line
        cols = read_flow_csv(source, errors="skip")
        assert_same_columns(cols, from_records(parse_record(line) for line in lines))


def test_skip_policy_leaves_no_reference_cycles():
    # a kept ParseError's traceback would pin each chunk's arrays until the next gc
    src = csv_of([flow_line(0.0), "1,2,3", "x,1,1,2,3,4,TCP,1,0,0,0,0", FLAGS.rstrip()] * 50)
    gc.collect()
    gc.disable()
    try:
        read_flow_csv(src, errors="skip", skipped=Counter())
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("bad", ["1,2,3", FLAGS.rstrip()])
def test_abort_policy_leaves_no_reference_cycles(bad):
    # a cycle through the raised ParseError would pin the columns read so far until the next gc
    src = csv_of([flow_line(0.0)] * 10 + [bad])
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ParseError):
            read_flow_csv(src)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_read_flow_csv_empty_and_header_only():
    with pytest.raises(ParseError) as info:
        read_flow_csv([])
    assert (str(info.value), info.value.reason) == ("line 1: missing header", "header")
    cols = read_flow_csv(csv_of([]))
    assert all(col.size == 0 for col in cols)
    assert list(split_windows(cols, cfg3())) == []


@pytest.mark.parametrize("field", COUNTERS)
def test_counters_beyond_32_bits_rejected_under_both_policies(field):
    def line(value):
        counters = dict.fromkeys(COUNTERS, 0)
        counters["packets"] = 2**32 - 1
        counters[field] = value
        return "0.5,0.6,1,2,3,4,TCP," + ",".join(str(counters[c]) for c in COUNTERS)

    assert getattr(parse_record(line(2**32 - 1), 2), field) == 2**32 - 1
    for big in (2**32, 10**20, 2**63 - 1):
        with pytest.raises(RecordError) as info:
            parse_record(line(big), 3)
        assert info.value.reason == "range" and f"{field}={big}" in str(info.value)
        with pytest.raises(ParseError) as info:
            read_flow_csv(csv_of([line(1), line(big)]))
        assert info.value.line_no == 3
        skipped = Counter()
        cols = read_flow_csv(csv_of([line(1), line(big), line(2)]), errors="skip", skipped=skipped)
        assert skipped == {"range": 1}
        assert getattr(cols, field).tolist() == [1, 2]


# --- only the named fields are kept ------------------------------------------


def assert_same_read(lines, fields):
    """A read that keeps `fields` keeps exactly them, as the all-fields read has
    them, and skips and aborts on the same lines with the same errors."""
    source = [FLOW_HEADER + "\n"] + lines
    with patch.object(ingest, "CHUNK_LINES", 8):  # several chunks, screened and split
        every_skip, kept_skip = Counter(), Counter()
        every = read_flow_csv(source, errors="skip", skipped=every_skip)
        kept = read_flow_csv(source, errors="skip", skipped=kept_skip, fields=fields)
        assert kept_skip == every_skip
        for name, got, want in zip(FLOW_COLUMNS, kept, every):
            if name in fields:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            else:
                assert got is None, name
        first = []
        for read_fields in (FLOW_COLUMNS, fields):
            try:
                read_flow_csv(source, fields=read_fields)
            except ParseError as exc:
                first.append((exc.line_no, str(exc), exc.reason))
            else:
                first.append(None)
        assert first[0] == first[1]
    return every, kept, every_skip


# bad lines, each with the fields its defect sits in; a space in a field sends its
# line to the per-line split instead of np.loadtxt
UNKEPT_DEFECTS = [
    ({"src_port"}, record_line(src_port=70000)),
    ({"src_port"}, record_line(src_port=" 70000")),
    ({"ts_end"}, record_line(ts_end="1e400")),
    ({"ts_end"}, record_line(ts_end=" nan")),
    ({"packets", *COUNTERS}, record_line(packets=2)),  # TCP flags over packets
    ({"packets", *COUNTERS}, record_line(packets=" 2")),
]


@pytest.mark.parametrize("metric", list(MetricKind))
def test_kept_fields_match_the_all_fields_read(metric):
    # the file's only defects sit in fields the metric does not keep;
    # netscan keys on any protocol, so it does not keep proto
    fields = window_fields(metric)
    assert ("proto" in fields) == (metric is not MetricKind.NET_SCAN)
    defects = [line for touched, line in UNKEPT_DEFECTS if not touched & set(fields)]
    assert len(defects) >= 4
    lines = [flow_line(t / 3, dst_ip=t % 5, src_ip=t % 7, dst_port=t % 4,
                       proto=("TCP", "UDP", "OTHER")[t % 3]) + "\n" for t in range(60)]
    for i, line in enumerate(defects):
        lines.insert(7 * i + 3, line + "\n")
    every, kept, skipped = assert_same_read(lines, fields)
    assert sum(skipped.values()) == len(defects) and every.ts_start.size == 60
    cfg = WindowConfig(delta=1.0, bins_per_window=4, top_m=2, metric=metric)
    for a, b in zip(split_windows(every, cfg), split_windows(kept, cfg), strict=True):
        assert a.window_index == b.window_index and a.start_time == b.start_time
        assert a.keys.tobytes() == b.keys.tobytes() and a.counts.tobytes() == b.counts.tobytes()


@pytest.mark.filterwarnings("error::UserWarning")
@settings(max_examples=200, deadline=None)
@given(st.lists(flow_text_lines(), max_size=14) | st.lists(screened_text_lines, max_size=14),
       st.sets(st.sampled_from(FLOW_COLUMNS)))
def test_any_kept_fields_match_the_all_fields_read(lines, fields):
    assert_same_read(lines, tuple(fields))


def test_syn_read_keeps_only_the_four_metric_arrays():
    fields = window_fields(MetricKind.SYN_FLOOD)
    src = csv_of([flow_line(t / 7, dst_ip=t % 13) for t in range(20_000)])
    tracemalloc.start()
    try:
        cols = read_flow_csv(src, fields=fields)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    named = ["ts_start", "dst_ip", "proto", "syn"]
    assert [name for name, col in zip(FLOW_COLUMNS, cols) if col is not None] == named
    kept = sum(col.nbytes for col in cols if col is not None)
    assert kept == 20_000 * (8 + 8 + 1 + 8)
    assert held - kept < 50_000  # all 12 fields would hold 1.78 MB
    # so does each chunk, read at once or line by line, until the chunks are joined
    for lines in ([VALID] * 3, [VALID, "1,2\n", " " + VALID]):
        chunk, _bad = ingest._read_chunk(lines, 2, fields)
        assert [name for name, col in zip(FLOW_COLUMNS, chunk) if col is not None] == named


@pytest.mark.parametrize("fields", [("ts_start", "port"), "syn"])
def test_read_flow_csv_rejects_unknown_fields(fields):
    with pytest.raises(ValueError, match="not flow fields"):
        read_flow_csv(csv_of([flow_line(0.0)]), fields=fields)


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_windows_matches_per_record_oracle(metric, seed):
    rng = np.random.default_rng(seed)
    delta, bins = 0.1, 7
    records = []
    for _ in range(500):
        proto = ingest.PROTOCOLS[int(rng.integers(0, 3))]
        flags = rng.integers(0, 3, 4) if proto is Protocol.TCP else np.zeros(4, dtype=int)
        ts = 1000.37 + float(rng.uniform(0, 3.5 * delta * bins))
        records.append(FlowRecord(
            ts, ts + 0.01, int(rng.integers(0, 6)), int(rng.integers(2**32 - 6, 2**32)),
            80, int(rng.integers(0, 5)), proto, int(flags.sum() + rng.integers(0, 3)),
            *map(int, flags),
        ))
    rng.shuffle(records)
    assert_windows_match_oracle(records, delta, bins, metric)


def assert_windows_match_oracle(records, delta, bins, metric):
    cfg = WindowConfig(delta=delta, bins_per_window=bins, top_m=2, metric=metric)
    origin, groups = split_records(records, delta, bins)
    batches = list(split_windows(from_records(records), cfg))
    assert [b.window_index for b in batches] == sorted(groups)
    for batch in batches:
        expected = bin_records(groups[batch.window_index], metric.value, delta, bins,
                               batch.window_index, origin)
        assert batch.start_time == origin + batch.window_index * cfg.window_seconds
        assert series_of(batch) == expected
        assert batch.keys.tolist() == sorted(expected)


@st.composite
def edge_records(draw, delta, bins):
    """Records within a few roundings of the start of a window or bin, with
    few keys and tokens, so cells and (key, bin, token) triples repeat.

    The first record fixes the origin; window starts far from it are where
    `(t - origin) // window_seconds` and the span [lo, lo + window_seconds)
    can disagree.
    """
    first = draw(st.floats(-1e3, 1e3) | st.floats(-3e9, 3e9))
    origin = math.floor(first / delta) * delta
    stamps = [first]
    for _ in range(draw(st.integers(0, 30))):
        window = draw(st.integers(0, 3) | st.integers(0, 10**6))
        edge = origin + window * (delta * bins) + draw(st.sampled_from([0, 0, 1, bins - 1])) * delta
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            edge = float(np.nextafter(edge, steps * np.inf))
        stamps.append(max(edge, first))  # nothing before the first record moves the origin
    records = []
    for t in stamps:
        if abs(t) >= 2**32:
            continue
        proto = draw(st.sampled_from(list(Protocol)))
        flags = [draw(st.integers(0, 2)) if proto is Protocol.TCP else 0 for _ in range(4)]
        records.append(FlowRecord(
            t, t, draw(st.integers(0, 3)), draw(st.integers(2**32 - 3, 2**32 - 1)),
            80, draw(st.integers(0, 2)), proto, sum(flags) + draw(st.integers(0, 2)), *flags,
        ))
    return records


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(list(MetricKind)),
       st.floats(1e-3, 100.0) | st.sampled_from([0.1, 0.5552908027291993, 0.9901501544118366]),
       st.integers(2, 9))
def test_split_windows_matches_per_record_oracle_near_window_edges(data, metric, delta, bins):
    assert_windows_match_oracle(data.draw(edge_records(delta, bins)), delta, bins, metric)
