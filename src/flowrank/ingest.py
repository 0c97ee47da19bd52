"""Flow CSV parsing and window binning.

Input is one record per line with a mandatory header, in this exact
column order:

    ts_start,ts_end,src_ip,dst_ip,src_port,dst_port,proto,packets,syn,synack,fin,rst

Addresses are decimal unsigned 32-bit integers, timestamps decimal
seconds, proto one of TCP/UDP/OTHER, counters below 2^32. Records need
not be time-sorted within a window. Each record is attributed wholly to
the bin containing its start time.

`read_flow_csv` reads the file in chunks of lines into columns. Lines in
canonical form (ASCII digits, unsigned integers) are converted by one
`np.loadtxt` call per chunk and validated by vector checks. Every other
line, and every line a vector check rejects, goes through
`parse_record`, the per-line reference: it either accepts the line with
the same values or raises the `ParseError` that names it.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import islice
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .model import (
    COUNTERS,
    METRIC_FIELDS,
    U16_MAX,
    U32_MAX,
    FlowRecord,
    Protocol,
    RecordError,
    WindowBatch,
    WindowConfig,
)


class FlowColumns(NamedTuple):
    """Flow records as columns, one array per CSV field, in file order.

    Timestamps are float64, `proto` is an int8 index into `PROTOCOLS`,
    every other field is int64.
    """

    ts_start: np.ndarray
    ts_end: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    proto: np.ndarray
    packets: np.ndarray
    syn: np.ndarray
    synack: np.ndarray
    fin: np.ndarray
    rst: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> FlowColumns:
        """The columns of `records`, in order."""
        recs = list(records)
        cols = {name: [getattr(rec, name) for rec in recs] for name in FLOW_COLUMNS}
        cols["proto"] = [PROTOCOLS.index(p) for p in cols["proto"]]
        return cls(**{name: np.array(col, dtype=_dtype(name)) for name, col in cols.items()})

    def take(self, index: np.ndarray) -> FlowColumns:
        """The rows at `index` (an index array or boolean mask)."""
        return FlowColumns(*(col[index] for col in self))


# the CSV field order, which every reader and `FlowRecord` share
FLOW_COLUMNS = FlowColumns._fields
FLOW_HEADER = ",".join(FLOW_COLUMNS)

PROTOCOLS = tuple(Protocol)  # FlowColumns.proto holds indices into this
CHUNK_LINES = 1 << 16
TS_LIMIT = 2.0**32  # NetFlow stamps are 32-bit unix seconds

# Canonical lines are those np.loadtxt reads exactly as float()/int() do:
# ASCII digits only (no signs, spaces or underscores on integers), and at
# most 10 integer digits, so int64 holds every value the range checks see.
_FLOAT = r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]{1,3})?"
_UINT = r"[0-9]{1,10}"
_CANONICAL = re.compile(
    ",".join([_FLOAT] * 2 + [_UINT] * 4 + ["(?:TCP|UDP|OTHER)"] + [_UINT] * 5) + "\n?"
)


class ParseError(ValueError):
    """A malformed input line, carrying its 1-based line number.

    `reason` names the broken rule: "header", "field count", "number",
    "timestamp", "protocol", "range" or "flags".
    """

    def __init__(self, line_no: int, message: str, reason: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.reason = reason


def _dtype(name: str) -> type:
    if name.startswith("ts_"):
        return np.float64
    return np.int8 if name == "proto" else np.int64


# proto is read wider than any protocol name, so truncation cannot make one
_LOADTXT_DTYPE = np.dtype(
    [(name, "U6" if name == "proto" else _dtype(name)) for name in FLOW_COLUMNS]
)


def parse_record(line: str, line_no: int = 0) -> FlowRecord:
    """Parse one CSV line into a FlowRecord."""
    fields = line.strip().split(",")
    if len(fields) != len(FLOW_COLUMNS):
        raise ParseError(
            line_no, f"expected {len(FLOW_COLUMNS)} fields, got {len(fields)}", "field count"
        )
    try:
        ts_start = float(fields[0])
        ts_end = float(fields[1])
        ints = [int(f) for f in fields[2:6]] + [int(f) for f in fields[7:12]]
    except ValueError as exc:
        raise ParseError(line_no, f"unparseable number: {exc}", "number") from None
    for ts in (ts_start, ts_end):
        # NaN fails the comparison
        if not abs(ts) < TS_LIMIT:
            raise ParseError(
                line_no, f"timestamp {ts} is not finite or beyond 2^32 s", "timestamp"
            )
    proto_text = fields[6]
    try:
        proto = Protocol(proto_text)
    except ValueError:
        raise ParseError(line_no, f"unknown protocol {proto_text!r}", "protocol") from None
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
    except RecordError as exc:
        raise ParseError(line_no, str(exc), exc.reason) from None


def _valid(cols: FlowColumns) -> np.ndarray:
    """Rows that pass every check `parse_record` applies to parsed values."""
    counters = np.stack([getattr(cols, name) for name in COUNTERS])
    flags = counters[1:].sum(axis=0)
    tcp = cols.proto == PROTOCOLS.index(Protocol.TCP)
    return (
        (np.abs(cols.ts_start) < TS_LIMIT)
        & (np.abs(cols.ts_end) < TS_LIMIT)
        & (cols.ts_end >= cols.ts_start)
        & (cols.proto >= 0)
        & (np.minimum(cols.src_ip, cols.dst_ip) >= 0)
        & (np.maximum(cols.src_ip, cols.dst_ip) <= U32_MAX)
        & (np.minimum(cols.src_port, cols.dst_port) >= 0)
        & (np.maximum(cols.src_port, cols.dst_port) <= U16_MAX)
        & (counters.min(axis=0) >= 0)
        & (counters.max(axis=0) <= U32_MAX)
        & np.where(tcp, flags <= cols.packets, flags == 0)
    )


def _convert(lines: list[str]) -> FlowColumns:
    """Columns of canonical lines; proto -1 marks an unknown name."""
    if not lines:
        return FlowColumns.from_records([])
    raw = np.loadtxt(lines, delimiter=",", comments=None, dtype=_LOADTXT_DTYPE, ndmin=1)
    proto = np.full(len(lines), -1, dtype=np.int8)
    for code, p in enumerate(PROTOCOLS):
        proto[raw["proto"] == p.value] = code
    return FlowColumns(
        *(proto if name == "proto" else raw[name] for name in FLOW_COLUMNS)
    )


def _read_chunk(
    lines: list[str], first_line_no: int, errors: str, skipped: Optional[Counter]
) -> FlowColumns:
    canonical = np.fromiter(
        (_CANONICAL.fullmatch(line) is not None for line in lines), dtype=bool, count=len(lines)
    )
    at = np.flatnonzero(canonical)
    cols = _convert([lines[i] for i in at])
    ok = _valid(cols)
    if ok.all() and at.size == len(lines):
        return cols
    # every other line goes through the per-line reference, in line order
    redo = np.union1d(np.flatnonzero(~canonical), at[~ok])
    records, record_at = [], []
    for i in redo.tolist():
        line = lines[i]
        if not line.strip():
            continue
        try:
            records.append(parse_record(line, first_line_no + i))
        except ParseError as exc:
            if errors == "raise":
                raise
            if skipped is not None:
                skipped[exc.reason] += 1
            continue
        record_at.append(i)
    merged = FlowColumns(*(
        np.concatenate(pair) for pair in zip(cols.take(ok), FlowColumns.from_records(records))
    ))
    return merged.take(np.argsort(np.concatenate([at[ok], record_at]), kind="stable"))


def read_flow_csv(
    source: Union[str, IO[str], Iterable[str]],
    errors: str = "raise",
    skipped: Optional[Counter] = None,
) -> FlowColumns:
    """Read a flow CSV (path, file object or line iterable) into columns.

    `errors` selects the policy for bad lines: "raise" aborts on the
    first one, "skip" drops them and, when `skipped` is given, counts
    them there by `ParseError.reason`. Blank lines are ignored.
    """
    if errors not in ("raise", "skip"):
        raise ValueError('errors must be "raise" or "skip"')
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_flow_csv(fh, errors, skipped)
    lines = iter(source)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header", "header") from None
    if header.strip() != FLOW_HEADER:
        raise ParseError(1, f"bad header, expected {FLOW_HEADER!r}", "header")
    chunks = [FlowColumns.from_records([])]
    line_no = 2
    while chunk := list(islice(lines, CHUNK_LINES)):
        chunks.append(_read_chunk(chunk, line_no, errors, skipped))
        line_no += len(chunk)
    return FlowColumns(*(np.concatenate(cols) for cols in zip(*chunks)))


def iter_flow_csv(
    source: Union[str, IO[str], Iterable[str]],
    errors: str = "raise",
) -> Iterator[FlowRecord]:
    """Yield the records of `read_flow_csv(source, errors)` in file order."""
    for row in zip(*(col.tolist() for col in read_flow_csv(source, errors))):
        fields = dict(zip(FLOW_COLUMNS, row))
        fields["proto"] = PROTOCOLS[fields["proto"]]
        yield FlowRecord(**fields)


def bin_window(
    columns: FlowColumns,
    cfg: WindowConfig,
    window_index: int = 0,
    origin: float = 0.0,
) -> WindowBatch:
    """Accumulate the records of one window into its key and count arrays.

    Every record must belong to the window by the rule `split_windows`
    uses, `(t - origin) // window_seconds == window_index`; deciding it
    from the span [lo, lo + window_seconds) instead could disagree by one
    rounding at a window edge. A record that rounding puts just outside
    the span counts in the nearest edge bin. Keys whose series is
    identically zero are omitted, so the batch's key count is the
    window's effective dimension. Binning is order-independent.
    """
    lo = origin + window_index * cfg.window_seconds
    bins = cfg.bins_per_window
    ts = columns.ts_start
    outside = (ts - origin) // cfg.window_seconds != window_index
    if outside.any():
        raise ValueError(
            f"record at t={float(ts[outside.argmax()])} outside window "
            f"[{lo}, {lo + cfg.window_seconds})"
        )
    proto, key_field, value_field, distinct = METRIC_FIELDS[cfg.metric]
    value = getattr(columns, value_field)
    # every kept record adds to its key (a zero count would not): no all-zero keys
    rows = (value > 0) | distinct
    if proto is not None:
        rows &= columns.proto == PROTOCOLS.index(proto)
    keys, key_row = np.unique(getattr(columns, key_field)[rows], return_inverse=True)
    value = value[rows]
    t = np.clip((ts[rows] - lo) // cfg.delta, 0, bins - 1).astype(np.int64)
    cell = key_row * bins + t
    if distinct:
        # each distinct (key, bin, token) triple counts once
        order = np.lexsort((value, cell))
        cell, value = cell[order], value[order]
        first = np.ones(cell.size, dtype=bool)
        first[1:] = (cell[1:] != cell[:-1]) | (value[1:] != value[:-1])
        value = first.astype(np.int64)
    counts = np.zeros((keys.size, bins), dtype=np.int64)
    np.add.at(counts.reshape(-1), cell, value)
    return WindowBatch(window_index, lo, keys, counts)


def split_windows(columns: FlowColumns, cfg: WindowConfig) -> Iterator[WindowBatch]:
    """Partition flow records into observation windows.

    Windows are aligned to the earliest start time floored to the bin
    length. Only windows containing at least one record are emitted, in
    index order; a trailing partially-filled window is emitted with its
    empty bins at zero.
    """
    ts = columns.ts_start
    if not ts.size:
        return
    first, top = float(ts.min()), float(np.abs(ts).max())
    if not math.isfinite(top / cfg.delta):
        raise ValueError(f"delta={cfg.delta} is too small for timestamps of magnitude {top}")
    origin = math.floor(first / cfg.delta) * cfg.delta
    index = (ts - origin) // cfg.window_seconds
    for lo in (origin, origin + float(index.max()) * cfg.window_seconds):
        if lo + cfg.window_seconds == lo:
            raise ValueError(f"window of {cfg.window_seconds} s vanishes at t={lo}")
    order = np.argsort(index, kind="stable")  # keeps file order within a window
    windows, starts = np.unique(index[order], return_index=True)
    for window, rows in zip(windows.tolist(), np.split(order, starts[1:])):
        yield bin_window(columns.take(rows), cfg, int(window), origin)
