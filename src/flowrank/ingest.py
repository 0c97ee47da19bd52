"""Flow CSV parsing and window binning.

Input is one record per line with a mandatory header, in this exact
column order:

    ts_start,ts_end,src_ip,dst_ip,src_port,dst_port,proto,packets,syn,synack,fin,rst

Addresses are decimal unsigned 32-bit integers, timestamps decimal
seconds, proto one of TCP/UDP/OTHER, counters below 2^32. Records need
not be time-sorted within a window. Each record is attributed wholly to
the bin containing its start time, which `split_windows` alone decides.

`read_flow_csv` reads the file in chunks of lines into columns, by two
routes. One byte screen per chunk picks the lines that hold only the
characters a record can hold (ASCII digits, `.,eE+-` and the letters of
the protocol names) and exactly 11 commas, and one `np.loadtxt` call
converts them. Every other nonblank line, and every row that breaks one
of `_RULES` (the record rules, in the order a line is checked), is split
by Python `float()` and `int()` and checked against the same rules: it is
either accepted with the same values or reported with the `ParseError`
that names its line and the first rule it breaks. If the `np.loadtxt`
call fails or warns of a deprecated integer parse, every nonblank line
of the chunk is split so. The chunk reader returns these errors with
the chunk's records;
`read_flow_csv` alone raises the first or counts them.
Every field is read and checked, but only the fields the caller names are
copied out of a chunk and kept.
A file is decoded as UTF-8 with each undecodable byte kept as a lone
surrogate, so a line holding one fails on its own.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import islice
from typing import IO, Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .model import U32_MAX, MetricKind, Protocol, WindowBatch, WindowConfig


class FlowColumns(NamedTuple):
    """Flow records as columns, one array per CSV field, in file order.

    Timestamps are float64, `proto` is an int8 index into `PROTOCOLS`,
    every other field is int64. A field that was not kept is None.
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


# the CSV field order, which every reader shares
FLOW_COLUMNS = FlowColumns._fields
FLOW_HEADER = ",".join(FLOW_COLUMNS)
COUNTERS = ("packets", "syn", "synack", "fin", "rst")

PROTOCOLS = tuple(Protocol)  # FlowColumns.proto holds indices into this
_PROTOCOL_CODES = {p.value: code for code, p in enumerate(PROTOCOLS)}
_TCP = _PROTOCOL_CODES["TCP"]
_PROTO = FLOW_COLUMNS.index("proto")
CHUNK_LINES = 1 << 13
TS_LIMIT = 2.0**32  # NetFlow stamps are 32-bit unix seconds
U16_MAX = 0xFFFF

# The byte screen. A line goes to np.loadtxt when it holds exactly 11
# commas, no byte but those commas and `_FIELD_BYTES`, and no newline but
# one at its end; such a line is ASCII and nonblank. On it np.loadtxt reads
# floats as float() does and integers as int() does (signs, leading zeros
# and up to 19 digits); what it cannot read exactly (an int64 overflow,
# "5.0" or "1e5" as an integer, an empty field) raises ValueError, which
# sends every nonblank line of the chunk through `_split`. While NumPy (from 1.23)
# only deprecated reading "5.0" as an integer, it warned and read 5; that
# DeprecationWarning is raised as an error, so such a chunk is split line
# by line on every NumPy version.
#
# A chunk is screened at once: its lines are joined by DEL, which no record
# holds (a line holding one has it replaced first), the text is encoded as
# ASCII with "?" for every other character, and `bytes.translate` deletes
# the field bytes. What is left of a line is its commas and odd bytes.
_FIELD_BYTES = b"0123456789.eE+-TCPUDOHR"
_SEP = "\x7f"
_FIELD_COMMAS = len(FLOW_COLUMNS) - 1
_CLEAN = ("," * _FIELD_COMMAS + "\n" + _SEP).encode()  # what is left of a line that passes

class ParseError(ValueError):
    """A malformed input line, carrying its 1-based line number.

    `reason` names the broken rule: "header", "field count", "number",
    "timestamp", "protocol", "range" or "flags".
    """

    def __init__(self, line_no: int, message: str, reason: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.reason = reason


class _Rule(NamedTuple):
    reason: str
    broken: Callable[[FlowColumns], np.ndarray]  # the rows that break the rule
    message: str  # formatted with the line's values by field name, and `flags`


def _outside(name: str, hi: int) -> Callable[[FlowColumns], np.ndarray]:
    return lambda c: (getattr(c, name) < 0) | (getattr(c, name) > hi)


# The record rules, in the order a line is checked. The checks take typed
# columns or object columns of Python numbers alike; NaN fails a bound.
_RULES = (
    _Rule("timestamp", lambda c: ~(np.abs(c.ts_start) < TS_LIMIT),
          "timestamp {ts_start} is not finite or beyond 2^32 s"),
    _Rule("timestamp", lambda c: ~(np.abs(c.ts_end) < TS_LIMIT),
          "timestamp {ts_end} is not finite or beyond 2^32 s"),
    _Rule("protocol", lambda c: c.proto < 0, "unknown protocol {proto!r}"),
    _Rule("timestamp", lambda c: c.ts_end < c.ts_start,
          "flow ends before it starts ({ts_end} < {ts_start})"),
    _Rule("range", _outside("src_ip", U32_MAX), "src_ip={src_ip} outside 32-bit range"),
    _Rule("range", _outside("dst_ip", U32_MAX), "dst_ip={dst_ip} outside 32-bit range"),
    _Rule("range", _outside("src_port", U16_MAX), "src_port={src_port} outside 16-bit range"),
    _Rule("range", _outside("dst_port", U16_MAX), "dst_port={dst_port} outside 16-bit range"),
    # NetFlow v5 counters are 32-bit, which keeps bin sums in int64 (see WindowBatch.from_cells)
    *(rule for name in COUNTERS for rule in (
        _Rule("range", lambda c, n=name: getattr(c, n) < 0, f"{name} must be nonnegative"),
        _Rule("range", lambda c, n=name: getattr(c, n) > U32_MAX,
              f"{name}={{{name}}} outside 32-bit counter range"),
    )),
    # these decide only rows whose counters are below 2^32: the int64 flag sum cannot wrap
    _Rule("flags", lambda c: (c.proto == _TCP) & (c.syn + c.synack + c.fin + c.rst > c.packets),
          "TCP flag counters sum to {flags} > packets={packets}"),
    _Rule("flags", lambda c: (c.proto != _TCP) & (c.syn + c.synack + c.fin + c.rst != 0),
          "flag counters must be zero for non-TCP records"),
)


def _reasons(cols: FlowColumns) -> np.ndarray:
    """Per row, 0 if it keeps every rule, else 1 + the index of the first it breaks."""
    with np.errstate(invalid="ignore"):  # object columns warn on NaN compares
        broken = [rule.broken(cols) for rule in _RULES]
    return np.select(broken, np.arange(1, len(_RULES) + 1, dtype=np.int8), np.int8(0))


def _dtype(name: str) -> type:
    if name.startswith("ts_"):
        return np.float64
    return np.int8 if name == "proto" else np.int64


def _typed(columns: Iterable) -> FlowColumns:
    """Copies of one sequence per field, or None, as FlowColumns of the fields' dtypes."""
    return FlowColumns(*(None if c is None else np.array(c, dtype=_dtype(name))
                         for name, c in zip(FLOW_COLUMNS, columns)))


def _pick(columns: Iterable, fields: Collection[str]) -> list:
    """The columns, one per field, with None for each field not in `fields`."""
    return [c if name in fields else None for name, c in zip(FLOW_COLUMNS, columns)]


# proto is read wider than any protocol name, so truncation cannot make one
_LOADTXT_DTYPE = np.dtype(
    [(name, "U6" if name == "proto" else _dtype(name)) for name in FLOW_COLUMNS]
)


def _convert(lines: list[str]) -> FlowColumns:
    """Columns of screened lines, views of one record array but for `proto`,
    where -1 marks an unknown name."""
    if not lines:
        return _typed([()] * len(FLOW_COLUMNS))
    raw = np.loadtxt(lines, delimiter=",", comments=None, dtype=_LOADTXT_DTYPE, ndmin=1)
    proto = np.full(raw.size, -1, dtype=np.int8)
    for code, p in enumerate(PROTOCOLS):
        proto[raw["proto"] == p.value] = code
    return FlowColumns(*(proto if name == "proto" else raw[name] for name in FLOW_COLUMNS))


def _reduce(lines: list[str]) -> bytes:
    """What is left of each line, the lines separated by `_SEP`."""
    left = _SEP.join(lines).encode("ascii", "replace").translate(None, _FIELD_BYTES)
    if left.count(_SEP.encode()) >= len(lines):  # a line holds DEL itself, or there is no line
        lines = [line.replace(_SEP, "?") for line in lines]
        left = _SEP.join(lines).encode("ascii", "replace").translate(None, _FIELD_BYTES)
    return left


def _screened(lines: list[str]) -> np.ndarray:
    """The indices of the lines that pass the byte screen."""
    left = _reduce(lines)
    clean = _CLEAN * len(lines)
    if left == clean[:-1] or left == clean[:-2]:  # the last line may lack its newline
        return np.arange(len(lines))
    # per line, the bytes left and the odd ones, each counting the separator after it
    left = np.frombuffer(left + _SEP.encode(), np.uint8)
    ends = np.flatnonzero(left == ord(_SEP))
    size = np.diff(ends, prepend=-1)
    odd = np.diff(np.searchsorted(np.flatnonzero(left != ord(",")), ends, side="right"), prepend=0)
    newline = left[ends - 1] == ord("\n")  # an empty first line reads the last separator
    return np.flatnonzero((size - odd == _FIELD_COMMAS) & (odd == 1 + newline))


def _screen(lines: list[str]) -> tuple[np.ndarray, FlowColumns]:
    """The indices of the lines `np.loadtxt` read, and their columns: the
    lines that pass the byte screen, each one nonblank line, or none if
    `np.loadtxt` rejects them."""
    at = _screened(lines)
    screened = lines if at.size == len(lines) else list(map(lines.__getitem__, at.tolist()))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return at, _convert(screened)
    except (ValueError, DeprecationWarning):
        return at[:0], _convert([])


def _split(line: str, line_no: int) -> Union[list, ParseError]:
    """The values of a nonblank line by `float()` and `int()`, with `proto` as text,
    or the `ParseError` of a line they cannot read."""
    fields = line.strip().split(",")
    if len(fields) != len(FLOW_COLUMNS):
        message = f"expected {len(FLOW_COLUMNS)} fields, got {len(fields)}"
        return ParseError(line_no, message, "field count")
    try:
        return [float(fields[0]), float(fields[1]), *map(int, fields[2:6]), fields[6],
                *map(int, fields[7:])]
    except ValueError as exc:
        return ParseError(line_no, f"unparseable number: {exc}", "number")


def _read_chunk(
    lines: list[str], first_line_no: int, fields: Collection[str]
) -> tuple[FlowColumns, list[ParseError]]:
    """A chunk's records, only `fields` of them kept, and the `ParseError` of
    each bad nonblank line in line order."""
    at, cols = _screen(lines)
    ok = _reasons(cols) == 0
    if ok.all() and at.size == len(lines):
        return _typed(_pick(cols, fields)), []
    # every other nonblank line is split in Python and checked by the same rules
    redo = np.ones(len(lines), dtype=bool)
    redo[at[ok]] = False
    values, value_at, bad = [], [], []
    for i in np.flatnonzero(redo).tolist():
        if lines[i].strip():
            row = _split(lines[i], first_line_no + i)
            if isinstance(row, ParseError):
                bad.append(row)
            else:
                values.append(row)
                value_at.append(i)
    # object columns keep every value exact, 10**20 included
    table = np.array(values, dtype=object).reshape(-1, len(FLOW_COLUMNS))
    table[:, _PROTO] = [_PROTOCOL_CODES.get(text, -1) for text in table[:, _PROTO]]
    codes = _reasons(FlowColumns(*table.T))
    for k in np.flatnonzero(codes).tolist():
        rule, row = _RULES[codes[k] - 1], values[k]
        message = rule.message.format(**dict(zip(FLOW_COLUMNS, row)), flags=sum(row[8:]))
        bad.append(ParseError(first_line_no + value_at[k], message, rule.reason))
    bad.sort(key=lambda exc: exc.line_no)
    keep = codes == 0
    # each split row goes in before the first screened row of a later line
    where = np.searchsorted(at[ok], np.array(value_at, dtype=np.intp)[keep])
    split = _typed(_pick(table[keep].T, fields))
    return FlowColumns(*(None if rows is None else np.insert(col[ok], where, rows)
                         for col, rows in zip(cols, split))), bad


def read_flow_csv(
    source: Union[str, IO[str], Iterable[str]],
    errors: str = "abort",
    skipped: Optional[Counter] = None,
    fields: Collection[str] = FLOW_COLUMNS,
) -> FlowColumns:
    """Read a flow CSV (path, file object or line iterable) into columns.

    `errors` selects the policy for bad lines: "abort" raises the first
    one, "skip" drops them and, when `skipped` is given, counts
    them there by `ParseError.reason`. Blank lines are ignored. Every
    field of a line is read and checked, whatever `fields` names, but
    only the named fields are kept; the others are None.
    """
    if errors not in ("abort", "skip"):
        raise ValueError('errors must be "abort" or "skip"')
    unknown = set(fields) - set(FLOW_COLUMNS)
    if unknown:
        raise ValueError(f"not flow fields: {sorted(unknown)}")
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return read_flow_csv(fh, errors, skipped, fields)
    lines = iter(source)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header", "header") from None
    if header.strip() != FLOW_HEADER:
        raise ParseError(1, f"bad header, expected {FLOW_HEADER!r}", "header")
    chunks = [_typed(_pick([()] * len(FLOW_COLUMNS), fields))]
    line_no = 2
    while chunk := list(islice(lines, CHUNK_LINES)):
        records, bad = _read_chunk(chunk, line_no, fields)
        if bad and errors == "abort":  # before reading the next chunk
            raise bad.pop(0)  # popped: this frame, in its traceback, must not hold it
        if skipped is not None:
            skipped.update(exc.reason for exc in bad)
        chunks.append(records)
        line_no += len(chunk)
    return FlowColumns(*(None if cols[0] is None else np.concatenate(cols)
                         for cols in zip(*chunks)))


def iter_flow_csv(
    source: Union[str, IO[str], Iterable[str]],
    errors: str = "abort",
) -> Iterator[tuple]:
    """Yield the rows of `read_flow_csv(source, errors)` in file order.

    Each row is a tuple of Python values in `FLOW_COLUMNS` order, with
    `proto` as a `Protocol`.
    """
    cols = read_flow_csv(source, errors)
    proto = np.array(PROTOCOLS, dtype=object)[cols.proto]
    yield from zip(*(col.tolist() for col in cols._replace(proto=proto)))


# metric -> (protocol the record must have or None, key field, value field,
# whether the value is a token counted once per bin rather than a count)
METRIC_FIELDS = {
    MetricKind.SYN_FLOOD: (Protocol.TCP, "dst_ip", "syn", False),
    MetricKind.UDP_FLOOD: (Protocol.UDP, "dst_ip", "packets", False),
    MetricKind.PORT_SCAN: (Protocol.TCP, "dst_ip", "dst_port", True),
    MetricKind.NET_SCAN: (None, "src_ip", "dst_ip", True),
}


def window_fields(metric: MetricKind) -> tuple[str, ...]:
    """The fields `split_windows` reads for `metric`: `ts_start`, `proto`
    if the metric has a protocol, and the metric's key and value fields."""
    proto, key_field, value_field, _distinct = METRIC_FIELDS[metric]
    return ("ts_start", *(() if proto is None else ("proto",)), key_field, value_field)


def split_windows(columns: FlowColumns, cfg: WindowConfig) -> Iterator[WindowBatch]:
    """Partition flow records into observation windows and bin each one.

    This is the one place that decides a record's window and bin. Windows
    align to the earliest start time floored to the bin length. A record
    at t belongs to window `(t - origin) // window_seconds` and, within
    it, to bin `(t - lo) // delta`; one that rounding puts just outside
    the window's span [lo, lo + window_seconds) counts in the nearest
    edge bin. Every window holding a record is emitted, in index order,
    a trailing partial one with its empty bins at zero. Of `columns` it
    reads `window_fields(cfg.metric)`; one of them that is None is a
    ValueError.
    """
    for name in window_fields(cfg.metric):
        if getattr(columns, name) is None:
            raise ValueError(f"split_windows reads {name}, which the columns lack")
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
    proto, key_field, value_field, distinct = METRIC_FIELDS[cfg.metric]
    order = np.argsort(index, kind="stable")
    windows, starts = np.unique(index[order], return_index=True)
    bins = cfg.bins_per_window
    for window, rows in zip(windows.tolist(), np.split(order, starts[1:])):
        if proto is not None:
            rows = rows[columns.proto[rows] == PROTOCOLS.index(proto)]
        lo = origin + window * cfg.window_seconds
        t = np.clip((ts[rows] - lo) // cfg.delta, 0, bins - 1).astype(np.int64)
        k, v = getattr(columns, key_field)[rows], getattr(columns, value_field)[rows]
        if distinct:
            # each distinct (key, bin, token) triple counts once; a key is
            # below 2^32 and a bin below 2^21, so the cell fits int64. The
            # pairs pack the cell's index, below 2^31 as a window holds fewer
            # than 2^31 records, over the token, below 2^32 by the range rule
            cells, at = np.unique(k * bins + t, return_inverse=True)
            pairs = np.sort((at << 32) | v)
            first = np.ones(pairs.size, dtype=bool)
            first[1:] = pairs[1:] != pairs[:-1]
            v = np.bincount(pairs[first] >> 32, minlength=cells.size)
            k, t = cells // bins, cells % bins
        yield WindowBatch.from_cells(int(window), lo, k, t, v, bins)
