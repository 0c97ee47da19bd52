"""Flow CSV parsing and window binning.

Input is one record per line with a mandatory header, in this exact
column order:

    ts_start,ts_end,src_ip,dst_ip,src_port,dst_port,proto,packets,syn,synack,fin,rst

Addresses are decimal unsigned 32-bit integers, timestamps decimal
seconds, proto one of TCP/UDP/OTHER, counters below 2^32. Records need
not be time-sorted within a window. Each record is attributed wholly to
the bin containing its start time.

`read_flow_csv` reads the file in chunks of lines into columns, screening
each chunk at two levels. First the whole chunk: when its lines are
nonblank and use only the characters a record can hold (digits, `.,eE+-`
and the letters of the protocol names), one `np.loadtxt` call converts
it, and the chunk counts as canonical if that call neither fails nor
warns of a deprecated integer parse, and returns one row per line.
Otherwise each line is screened on its own, and the lines in canonical
form (ASCII digits, unsigned integers) are converted by one `np.loadtxt`
call. Either way the converted rows are checked against `_RULES`, the
record rules in the order a line is checked. Every other nonblank line,
and every row a rule rejects, is split by Python `float()` and `int()`
and checked against the same rules: it is either accepted with the same
values or rejected with the `ParseError` that names its line and the
first rule it breaks.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .model import COUNTERS, METRIC_FIELDS, U16_MAX, U32_MAX, Protocol, WindowBatch, WindowConfig


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

    def take(self, index: np.ndarray) -> FlowColumns:
        """The rows at `index` (an index array or boolean mask)."""
        return FlowColumns(*(col[index] for col in self))


# the CSV field order, which every reader shares
FLOW_COLUMNS = FlowColumns._fields
FLOW_HEADER = ",".join(FLOW_COLUMNS)

PROTOCOLS = tuple(Protocol)  # FlowColumns.proto holds indices into this
_PROTOCOL_CODES = {p.value: code for code, p in enumerate(PROTOCOLS)}
_TCP = _PROTOCOL_CODES["TCP"]
_PROTO = FLOW_COLUMNS.index("proto")
CHUNK_LINES = 1 << 16
TS_LIMIT = 2.0**32  # NetFlow stamps are 32-bit unix seconds

# The chunk screen: nonblank lines of these characters only, each ending
# in "\n" (the last may not). On them np.loadtxt reads floats as float()
# does and integers as int() does (signs, leading zeros and up to 19
# digits); what it cannot read exactly (an int64 overflow, "5.0" or "1e5"
# as an integer, a wrong field count, an element with an embedded newline)
# raises ValueError, and an element it skips as blank leaves the row count
# short. Both send the chunk to the per-line screen. While NumPy (from
# 1.23) only deprecated reading "5.0" as an integer, it warned and read 5;
# that DeprecationWarning is raised as an error, so such a chunk goes to
# the per-line screen on every NumPy version. Blank lines must fail the
# screen itself: on a chunk of nothing else np.loadtxt warns.
_RECORD_CHARS = r"[0-9.,eE+\-TCPUDOHR]"
_CHUNK = re.compile(rf"(?:{_RECORD_CHARS}+\n)*{_RECORD_CHARS}+\n?")

# The per-line screen. Canonical lines are those np.loadtxt reads exactly
# as float()/int() do: ASCII digits only (no signs, spaces or underscores
# on integers), and at most 10 integer digits, so int64 holds every value
# the range rules see.
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
    # NetFlow v5 counters are 32-bit, which keeps bin sums in int64 (see bin_window)
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
    """Copies of one sequence per field as FlowColumns of the fields' dtypes."""
    return FlowColumns(*(np.array(c, dtype=_dtype(name)) for name, c in zip(FLOW_COLUMNS, columns)))


# proto is read wider than any protocol name, so truncation cannot make one
_LOADTXT_DTYPE = np.dtype(
    [(name, "U6" if name == "proto" else _dtype(name)) for name in FLOW_COLUMNS]
)


def _convert(lines: list[str]) -> FlowColumns:
    """Columns of canonical lines; proto -1 marks an unknown name."""
    if not lines:
        return _typed([()] * len(FLOW_COLUMNS))
    raw = np.loadtxt(lines, delimiter=",", comments=None, dtype=_LOADTXT_DTYPE, ndmin=1)
    proto = np.full(raw.size, -1, dtype=np.int8)
    for code, p in enumerate(PROTOCOLS):
        proto[raw["proto"] == p.value] = code
    return _typed(proto if name == "proto" else raw[name] for name in FLOW_COLUMNS)


def _screen(lines: list[str]) -> tuple[np.ndarray, FlowColumns]:
    """The indices of the lines `np.loadtxt` read, and their columns.

    That is every line when the chunk passes the chunk screen, else the
    lines that pass the per-line screen.
    """
    if _CHUNK.fullmatch("".join(lines)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                cols = _convert(lines)
        except (ValueError, DeprecationWarning):
            pass
        else:
            if cols.ts_start.size == len(lines):
                return np.arange(len(lines)), cols
    at = [i for i, line in enumerate(lines) if _CANONICAL.fullmatch(line)]
    return np.array(at, dtype=np.intp), _convert([lines[i] for i in at])


def _split(line: str, line_no: int) -> list:
    """The values of a nonblank line by `float()` and `int()`, with `proto` as text."""
    fields = line.strip().split(",")
    if len(fields) != len(FLOW_COLUMNS):
        message = f"expected {len(FLOW_COLUMNS)} fields, got {len(fields)}"
        raise ParseError(line_no, message, "field count")
    try:
        return [float(fields[0]), float(fields[1]), *map(int, fields[2:6]), fields[6],
                *map(int, fields[7:])]
    except ValueError as exc:
        raise ParseError(line_no, f"unparseable number: {exc}", "number") from None


def _read_chunk(
    lines: list[str], first_line_no: int, errors: str, skipped: Optional[Counter]
) -> FlowColumns:
    at, cols = _screen(lines)
    ok = _reasons(cols) == 0
    if ok.all() and at.size == len(lines):
        return cols
    # every other nonblank line is split in Python and checked by the same rules
    redo = np.ones(len(lines), dtype=bool)
    redo[at[ok]] = False
    values, value_at, split_error = [], [], None
    for i in np.flatnonzero(redo).tolist():
        if not lines[i].strip():
            continue
        try:
            values.append(_split(lines[i], first_line_no + i))
            value_at.append(i)
        except ParseError as exc:
            if errors == "raise":
                split_error = exc  # no later line can be the first bad one
                break
            if skipped is not None:
                skipped[exc.reason] += 1
    # object columns keep every value exact, 10**20 included
    table = np.array(values, dtype=object).reshape(-1, len(FLOW_COLUMNS))
    table[:, _PROTO] = [_PROTOCOL_CODES.get(text, -1) for text in table[:, _PROTO]]
    split = FlowColumns(*table.T)
    codes = _reasons(split)
    broken = np.flatnonzero(codes).tolist()
    if errors == "raise" and broken:
        row, rule = values[broken[0]], _RULES[codes[broken[0]] - 1]
        message = rule.message.format(**dict(zip(FLOW_COLUMNS, row)), flags=sum(row[8:]))
        raise ParseError(first_line_no + value_at[broken[0]], message, rule.reason)
    if split_error is not None:
        raise split_error
    if skipped is not None:
        skipped.update(_RULES[code - 1].reason for code in codes[broken].tolist())
    keep = codes == 0
    merged = FlowColumns(*(
        np.concatenate(pair) for pair in zip(cols.take(ok), _typed(split.take(keep)))
    ))
    order = np.concatenate([at[ok], np.array(value_at, dtype=np.intp)[keep]])
    return merged.take(np.argsort(order, kind="stable"))


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
    chunks = [_typed([()] * len(FLOW_COLUMNS))]
    line_no = 2
    while chunk := list(islice(lines, CHUNK_LINES)):
        chunks.append(_read_chunk(chunk, line_no, errors, skipped))
        line_no += len(chunk)
    return FlowColumns(*(np.concatenate(cols) for cols in zip(*chunks)))


def iter_flow_csv(
    source: Union[str, IO[str], Iterable[str]],
    errors: str = "raise",
) -> Iterator[tuple]:
    """Yield the rows of `read_flow_csv(source, errors)` in file order.

    Each row is a tuple of Python values in `FLOW_COLUMNS` order, with
    `proto` as a `Protocol`.
    """
    cols = read_flow_csv(source, errors)
    proto = np.array(PROTOCOLS, dtype=object)[cols.proto]
    yield from zip(*(col.tolist() for col in cols._replace(proto=proto)))


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
    cell = key_row * bins + t  # < N * P, and P <= MAX_BINS = 2^21
    if distinct:
        # each distinct (key, bin, token) triple counts once
        order = np.lexsort((value, cell))
        cell, value = cell[order], value[order]
        first = np.ones(cell.size, dtype=bool)
        first[1:] = (cell[1:] != cell[:-1]) | (value[1:] != value[:-1])
        value = first.astype(np.int64)
    counts = np.zeros((keys.size, bins), dtype=np.int64)
    # each record adds below 2^32: int64 holds the sums of < 2^31 records
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
