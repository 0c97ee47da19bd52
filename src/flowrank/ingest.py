"""Flow CSV parsing and window binning.

Input is one record per line with a mandatory header, in this exact
column order:

    ts_start,ts_end,src_ip,dst_ip,src_port,dst_port,proto,packets,syn,synack,fin,rst

Addresses are decimal unsigned 32-bit integers, timestamps decimal
seconds, proto one of TCP/UDP/OTHER. Records need not be time-sorted
within a window. Each record is attributed wholly to the bin containing
its start time.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .model import (
    BinSeries,
    FlowRecord,
    Protocol,
    WindowBatch,
    WindowConfig,
    metric_key_value,
)

FLOW_COLUMNS = (
    "ts_start",
    "ts_end",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "proto",
    "packets",
    "syn",
    "synack",
    "fin",
    "rst",
)

FLOW_HEADER = ",".join(FLOW_COLUMNS)


class ParseError(ValueError):
    """A malformed input line, carrying its 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_record(line: str, line_no: int = 0) -> FlowRecord:
    """Parse one CSV line into a FlowRecord."""
    fields = line.strip().split(",")
    if len(fields) != len(FLOW_COLUMNS):
        raise ParseError(
            line_no, f"expected {len(FLOW_COLUMNS)} fields, got {len(fields)}"
        )
    try:
        ts_start = float(fields[0])
        ts_end = float(fields[1])
        ints = [int(f) for f in fields[2:6]] + [int(f) for f in fields[7:12]]
    except ValueError as exc:
        raise ParseError(line_no, f"unparseable number: {exc}") from None
    for ts in (ts_start, ts_end):
        # NetFlow stamps are 32-bit unix seconds; NaN fails the comparison
        if not abs(ts) < 2.0**32:
            raise ParseError(line_no, f"timestamp {ts} is not finite or beyond 2^32 s")
    proto_text = fields[6]
    try:
        proto = Protocol(proto_text)
    except ValueError:
        raise ParseError(line_no, f"unknown protocol {proto_text!r}") from None
    try:
        return FlowRecord(
            ts_start=ts_start,
            ts_end=ts_end,
            src_ip=ints[0],
            dst_ip=ints[1],
            src_port=ints[2],
            dst_port=ints[3],
            proto=proto,
            packets=ints[4],
            syn=ints[5],
            synack=ints[6],
            fin=ints[7],
            rst=ints[8],
        )
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def iter_flow_csv(
    source: Union[str, IO[str], Iterable[str]],
    errors: str = "raise",
) -> Iterator[FlowRecord]:
    """Yield records from a flow CSV (path, file object or line iterable).

    `errors` selects the stream policy for bad lines: "raise" aborts on
    the first one, "skip" drops them.
    """
    if errors not in ("raise", "skip"):
        raise ValueError('errors must be "raise" or "skip"')
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            yield from iter_flow_csv(fh, errors=errors)
        return
    lines = iter(source)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header") from None
    if header.strip() != FLOW_HEADER:
        raise ParseError(1, f"bad header, expected {FLOW_HEADER!r}")
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            yield parse_record(line, line_no)
        except ParseError:
            if errors == "raise":
                raise


def bin_window(
    records: Iterable[FlowRecord],
    cfg: WindowConfig,
    window_index: int = 0,
    origin: float = 0.0,
) -> WindowBatch:
    """Accumulate records of one window into per-key bin series.

    Every record must start inside the window's time span. Keys whose
    series is identically zero are omitted, so the batch's key count is
    the window's effective dimension. Binning is order-independent.
    """
    lo = origin + window_index * cfg.window_seconds
    hi = lo + cfg.window_seconds
    bins = cfg.bins_per_window
    added: dict[int, np.ndarray] = {}
    tokens: dict[int, list[set[int]]] = {}
    start_time = lo
    for rec in records:
        if not lo <= rec.ts_start < hi:
            raise ValueError(
                f"record at t={rec.ts_start} outside window [{lo}, {hi})"
            )
        contrib = metric_key_value(rec, cfg.metric)
        if contrib is None:
            continue
        t = min(int((rec.ts_start - lo) // cfg.delta), bins - 1)
        if contrib.count is not None:
            arr = added.get(contrib.key)
            if arr is None:
                arr = added[contrib.key] = np.zeros(bins, dtype=np.int64)
            arr[t] += contrib.count
        else:
            sets = tokens.get(contrib.key)
            if sets is None:
                sets = tokens[contrib.key] = [set() for _ in range(bins)]
            sets[t].add(contrib.token)
    series: dict[int, BinSeries] = {}
    for key in sorted(added.keys() | tokens.keys()):
        values = added.get(key)
        if values is None:
            values = np.zeros(bins, dtype=np.int64)
        if key in tokens:
            values = values + np.array([len(s) for s in tokens[key]], dtype=np.int64)
        if values.any():
            series[key] = BinSeries(key=key, values=values)
    return WindowBatch(
        window_index=window_index, start_time=start_time, bins=bins, series=series
    )


def split_windows(
    records: Iterable[FlowRecord],
    cfg: WindowConfig,
) -> Iterator[WindowBatch]:
    """Partition a record stream into observation windows.

    Windows are aligned to the earliest start time floored to the bin
    length. Only windows containing at least one record are emitted, in
    index order; a trailing partially-filled window is emitted with its
    empty bins at zero.
    """
    recs = list(records)
    if not recs:
        return
    origin = math.floor(min(r.ts_start for r in recs) / cfg.delta) * cfg.delta
    span = cfg.window_seconds
    groups: dict[int, list[FlowRecord]] = {}
    for rec in recs:
        groups.setdefault(int((rec.ts_start - origin) // span), []).append(rec)
    for index in sorted(groups):
        yield bin_window(groups[index], cfg, window_index=index, origin=origin)
