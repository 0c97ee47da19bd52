"""Independent brute-force references the tests pin expected values against.

Everything here is written as directly as possible from the defining
formulas (explicit double loops or all-pairs comparisons, plain floats)
and shares no code with the package implementation but its types,
`ranktest.pvalue` and the draw of hash coefficients.
"""

import dataclasses
import math

import numpy as np
from scipy.integrate import quad

from flowrank.hashrank import sample_coefficients
from flowrank.ingest import FlowColumns
from flowrank.model import Protocol
from flowrank.ranktest import pvalue


def brute_statistic(x, observed):
    """Direct double-loop evaluation of the censored rank statistic.

    Returns a dict with u, s_path, w, change_bin and degenerate; the
    arithmetic mirrors the definitions term by term so float results
    are bit-comparable with any faithful implementation.
    """
    n = len(x)
    u = []
    for s in range(n):
        total = 0
        for t in range(n):
            if observed[s] and x[s] > x[t]:
                total += 1
            if observed[t] and x[s] < x[t]:
                total -= 1
        u.append(total)
    denom = sum(v * v for v in u)
    if denom == 0:
        return {
            "u": u,
            "s_path": [0.0] * n,
            "w": 0.0,
            "change_bin": 1,
            "degenerate": True,
        }
    root = math.sqrt(denom)
    s_path = []
    running = 0
    for v in u:
        running += v
        s_path.append(running / root)
    w = -1.0
    change_bin = 1
    for i, value in enumerate(s_path):
        if abs(value) > w:
            w = abs(value)
            change_bin = i + 1
    return {
        "u": u,
        "s_path": s_path,
        "w": w,
        "change_bin": change_bin,
        "degenerate": False,
    }


def cube_statistic(x, observed):
    """The censored rank statistic of every row by the B x P x P comparison cube.

    x and observed are B x P arrays. Compares every ordered bin pair of
    each row at once, then forms the paths as the kernel does. Returns
    u, s_path, w, change_bin (1-based) and degenerate as row arrays.
    """
    x = np.asarray(x)
    observed = np.asarray(observed, dtype=bool)
    above = (x[:, :, None] > x[:, None, :]) & observed[:, :, None]
    below = (x[:, :, None] < x[:, None, :]) & observed[:, None, :]
    u = above.sum(axis=2) - below.sum(axis=2)
    denom = (u * u).sum(axis=1)
    s_path = np.cumsum(u, axis=1) / np.sqrt(np.maximum(denom, 1))[:, None]
    idx = np.abs(s_path).argmax(axis=1)
    w = np.abs(s_path)[np.arange(x.shape[0]), idx]
    return {"u": u, "s_path": s_path, "w": w, "change_bin": idx + 1, "degenerate": denom == 0}


def hash_eval(a_row, k, x):
    """Bucket of key x, in 1..k, under one cubic hash row.

    Horner evaluation of the cubic with coefficients `a_row` (a_row[j]
    multiplies x^j), every intermediate reduced modulo the Mersenne
    prime 2^61 - 1; Python integers keep the products exact.
    """
    prime = (1 << 61) - 1
    acc = 0
    for c in reversed([int(c) for c in a_row]):
        acc = (acc * x + c) % prime
    return 1 + acc % k


def top_tables(keys, counts, top_m):
    """Per-bin top-M tables as tuples: [(entries, censor_bound)] per bin.

    `entries` are (key, count) pairs of the keys with a nonzero count in
    the bin, largest count first and the smaller key first among equal
    counts, at most `top_m` of them. The bound is the smallest kept
    count when the table is full, else 0.
    """
    keys = [int(k) for k in keys]
    tables = []
    for col in np.asarray(counts).T.tolist():
        ranked = sorted((-c, k) for k, c in zip(keys, col) if c > 0)[:top_m]
        entries = tuple((k, -c) for c, k in ranked)
        tables.append((entries, entries[-1][1] if len(entries) == top_m else 0))
    return tables


def top_candidates(tables, keep):
    """Keys holding one of the top `keep` ranks in some bin, by first
    appearance, scanning bins in time order and ranks within each bin."""
    out = []
    seen = set()
    for entries, _ in tables:
        for key, _ in entries[:keep]:
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def top_candidates_budget(tables, n):
    """First `n` distinct keys visiting every bin's rank-1 key, then every
    bin's rank-2 key, and so on."""
    out = []
    seen = set()
    for rank in range(max((len(entries) for entries, _ in tables), default=0)):
        for entries, _ in tables:
            if rank < len(entries):
                key = entries[rank][0]
                if key not in seen:
                    seen.add(key)
                    out.append(key)
                    if len(out) == n:
                        return out
    return out


def top_censor(tables, cand_keys):
    """Censored series of `cand_keys`: x int64[C, P] and observed bool[C, P].

    A bin where the key was kept carries its count, observed; any other
    bin carries the table's censor bound, unobserved.
    """
    x = np.zeros((len(cand_keys), len(tables)), dtype=np.int64)
    observed = np.zeros(x.shape, dtype=bool)
    for c, key in enumerate(cand_keys):
        for t, (entries, bound) in enumerate(tables):
            kept = dict(entries)
            observed[c, t] = key in kept
            x[c, t] = kept.get(key, bound)
    return x, observed


def alarm_order(keys, p_alarm, p_report, level_alpha):
    """Positions of the keys with p_alarm below the level, by reported p-value then key.

    A plain Python sort of (p_value, key) tuples.
    """
    alarms = [
        (float(p_report[i]), int(keys[i]), i)
        for i in range(len(keys))
        if p_alarm[i] < level_alpha
    ]
    alarms.sort()
    return [i for _, _, i in alarms]


def bridge_tail(b, tol=1e-16, max_terms=1_000_000):
    """Alternating series for the sup-|bridge| tail, run to convergence."""
    if b <= 0:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, max_terms + 1):
        term = math.exp(-2.0 * j * j * b * b)
        total += sign * term
        if term < tol:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


U32_MAX = 2**32 - 1
U16_MAX = 2**16 - 1
TS_LIMIT = 2.0**32


class RecordError(ValueError):
    """A record or CSV line the per-line reference rejects.

    `reason` names the broken rule: "field count", "number", "timestamp",
    "protocol", "range" or "flags". A rejected line has its 1-based
    `line_no`, and its text starts with "line <line_no>: ".
    """

    def __init__(self, reason, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.reason = reason
        self.line_no = line_no


@dataclasses.dataclass(frozen=True)
class FlowRecord:
    """One NetFlow-style record, checked field by field on construction.

    Addresses are 32-bit unsigned integers, ports 16-bit, counters below
    2^32. The SYN, SYN/ACK, FIN and RST counters are meaningful for TCP
    only and must be zero otherwise.
    """

    ts_start: float
    ts_end: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: Protocol
    packets: int
    syn: int = 0
    synack: int = 0
    fin: int = 0
    rst: int = 0

    def __post_init__(self):
        if self.ts_end < self.ts_start:
            raise RecordError(
                "timestamp", f"flow ends before it starts ({self.ts_end} < {self.ts_start})"
            )
        for name in ("src_ip", "dst_ip"):
            v = getattr(self, name)
            if not 0 <= v <= U32_MAX:
                raise RecordError("range", f"{name}={v} outside 32-bit range")
        for name in ("src_port", "dst_port"):
            v = getattr(self, name)
            if not 0 <= v <= U16_MAX:
                raise RecordError("range", f"{name}={v} outside 16-bit range")
        for name in ("packets", "syn", "synack", "fin", "rst"):
            v = getattr(self, name)
            if v < 0:
                raise RecordError("range", f"{name} must be nonnegative")
            if v > U32_MAX:
                raise RecordError("range", f"{name}={v} outside 32-bit counter range")
        flags = self.syn + self.synack + self.fin + self.rst
        if self.proto is Protocol.TCP:
            if flags > self.packets:
                raise RecordError(
                    "flags", f"TCP flag counters sum to {flags} > packets={self.packets}"
                )
        elif flags != 0:
            raise RecordError("flags", "flag counters must be zero for non-TCP records")


def parse_record(line, line_no=0):
    """One CSV line as a FlowRecord, by str.split, float() and int().

    Raises RecordError naming the line for a wrong field count, a number
    that does not parse, a timestamp that is not finite or not below 2^32
    in magnitude, an unknown protocol, or a record FlowRecord rejects;
    the checks run in that order.
    """
    fields = line.strip().split(",")
    if len(fields) != 12:
        raise RecordError("field count", f"expected 12 fields, got {len(fields)}", line_no)
    try:
        ts_start = float(fields[0])
        ts_end = float(fields[1])
        ints = [int(f) for f in fields[2:6]] + [int(f) for f in fields[7:12]]
    except ValueError as exc:
        raise RecordError("number", f"unparseable number: {exc}", line_no) from None
    for ts in (ts_start, ts_end):
        if not abs(ts) < TS_LIMIT:  # NaN fails the comparison
            raise RecordError(
                "timestamp", f"timestamp {ts} is not finite or beyond 2^32 s", line_no
            )
    try:
        proto = Protocol(fields[6])
    except ValueError:
        raise RecordError("protocol", f"unknown protocol {fields[6]!r}", line_no) from None
    try:
        return FlowRecord(ts_start, ts_end, *ints[:4], proto, *ints[4:])
    except RecordError as exc:
        raise RecordError(exc.reason, str(exc), line_no) from None


def from_records(records):
    """The FlowColumns of `records`, one row per record in order."""
    recs = list(records)
    columns = {}
    for field in dataclasses.fields(FlowRecord):
        values = [getattr(rec, field.name) for rec in recs]
        if field.name == "proto":
            columns["proto"] = np.array([list(Protocol).index(p) for p in values], dtype=np.int8)
        else:
            dtype = np.float64 if field.name.startswith("ts_") else np.int64
            columns[field.name] = np.array(values, dtype=dtype)
    return FlowColumns(**columns)


def split_records(records, delta, bins):
    """Group records into windows the direct way; {window index: records}.

    The origin is the earliest start time floored to the bin length.
    Returns the origin and the groups, each in record order.
    """
    origin = math.floor(min(r.ts_start for r in records) / delta) * delta
    span = delta * bins
    groups = {}
    for rec in records:
        groups.setdefault(int((rec.ts_start - origin) // span), []).append(rec)
    return origin, groups


def bin_records(records, metric, delta, bins, window_index, origin):
    """Per-record binning of one window: {key: [count per bin]}.

    `metric` is one of "syn", "udp", "portscan", "netscan". Flood metrics
    add a counter; scan metrics count distinct tokens per bin with one
    Python set per key and bin. Keys whose series is all zero are left
    out. A record belongs to the window `(t - origin) // (delta * bins)`,
    as in `split_records`, and a record that rounding puts just outside
    the window's span counts in its nearest edge bin. Raises ValueError
    for a record of another window.
    """
    span = delta * bins
    lo = origin + window_index * span
    added = {}
    tokens = {}
    for rec in records:
        if (rec.ts_start - origin) // span != window_index:
            raise ValueError(f"record at t={rec.ts_start} outside window {window_index}")
        proto = rec.proto.value
        if metric == "syn":
            if proto != "TCP":
                continue
            key, count, token = rec.dst_ip, rec.syn, None
        elif metric == "udp":
            if proto != "UDP":
                continue
            key, count, token = rec.dst_ip, rec.packets, None
        elif metric == "portscan":
            if proto != "TCP":
                continue
            key, count, token = rec.dst_ip, None, rec.dst_port
        else:
            key, count, token = rec.src_ip, None, rec.dst_ip
        t = min(max(int((rec.ts_start - lo) // delta), 0), bins - 1)
        if count is not None:
            added.setdefault(key, [0] * bins)[t] += count
        else:
            tokens.setdefault(key, [set() for _ in range(bins)])[t].add(token)
    out = {}
    for key in sorted(added.keys() | tokens.keys()):
        values = list(added.get(key, [0] * bins))
        for t, seen in enumerate(tokens.get(key, [])):
            values[t] += len(seen)
        if any(values):
            out[key] = values
    return out


def _tested(x, observed):
    """(p-value, statistic, change bin) of one series by `brute_statistic`."""
    out = brute_statistic(x, observed)
    return pvalue(out["w"]), out["w"], out["change_bin"]


def _own(outcome):
    """The scores of a key tested on its own series: it alarms on the p-value it reports."""
    return (outcome[0], *outcome)


def _top_scores(keys, series, params):
    """{key: (p_alarm, p_report, statistic, change bin)} of TopRank's candidates."""
    tables = top_tables(keys, np.array(series), params["top"])
    if params["budget"] is None:
        cand = top_candidates(tables, params["keep"])
    else:
        cand = top_candidates_budget(tables, params["budget"])
    x, observed = top_censor(tables, cand)
    return {key: _own(_tested(x[c].tolist(), observed[c].tolist())) for c, key in enumerate(cand)}


def _hash_scores(keys, series, params):
    """{key: (p_alarm, p_report, statistic, change bin)} of every key by its sketch cells.

    A key alarms on the largest p-value of its cells and reports its cell
    with the smallest one, the earliest row among equal ones.
    """
    coeffs = sample_coefficients(params["seed"], params["rows"], params["buckets"])
    k, bins = params["buckets"], len(series[0])
    cell_of = {key: [hash_eval(a_row, k, key) - 1 for a_row in coeffs.a] for key in keys}
    sums = [[[0] * bins for _ in range(k)] for _ in coeffs.a]
    for key, counts in zip(keys, series):
        for row, bucket in enumerate(cell_of[key]):
            sums[row][bucket] = [a + b for a, b in zip(sums[row][bucket], counts)]
    tests = [[_tested(cell, [True] * bins) for cell in row] for row in sums]
    scores = {}
    for key in keys:
        outcomes = [tests[row][bucket] for row, bucket in enumerate(cell_of[key])]
        best = min(range(len(outcomes)), key=lambda row: outcomes[row][0])
        scores[key] = (max(o[0] for o in outcomes), *outcomes[best])
    return scores


def _full_scores(keys, series, params):
    """{key: (p_alarm, p_report, statistic, change bin)} of every key's own series."""
    return {key: _own(_tested(counts, [True] * len(counts))) for key, counts in zip(keys, series)}


_SCORES = {"toprank": _top_scores, "hashrank": _hash_scores, "full": _full_scores}


def detect_rows(text, params):
    """The alarm rows `flowrank detect --errors skip` writes for the flow CSV `text`.

    `params` holds the option values by name: metric, method, delta,
    window, top, keep, budget (None to select by --keep), alpha, and the
    sketch's rows, buckets and seed. `text` starts with its header; each
    later line is parsed on its own by `parse_record`, and a blank or bad
    one is dropped. Windows come from `split_records` and `bin_records`,
    TopRank's series from the tuple tables, HashRank's cells from
    `hash_eval` under the coefficients `sample_coefficients` draws. Each
    series is tested by `brute_statistic` with a p-value from
    `ranktest.pvalue`, and each window's alarms come in `alarm_order`,
    formatted as `detect` does.
    """
    records = []
    for line_no, line in enumerate(text.split("\n")[1:], start=2):
        if line.strip():
            try:
                records.append(parse_record(line, line_no))
            except RecordError:
                pass
    if not records:
        return []
    delta, bins = params["delta"], params["window"]
    origin, groups = split_records(records, delta, bins)
    rows = []
    for window in sorted(groups):
        binned = bin_records(groups[window], params["metric"], delta, bins, window, origin)
        if not binned:
            continue
        scores = _SCORES[params["method"]](list(binned), list(binned.values()), params)
        keys = list(scores)
        p_alarm, p_report, stat, change_bin = zip(*scores.values())
        for i in alarm_order(keys, p_alarm, p_report, params["alpha"]):
            rows.append(f"{window},{keys[i]},{params['method']},"
                        f"{p_report[i]:.6g},{stat[i]:.6g},{change_bin[i]}")
    return rows


def generate(cfg):
    """`synth.generate` with one `default_rng` per `SeedSequence` spawn child.

    Returns the count matrix y and the descending intensities.
    """
    master = np.random.SeedSequence(cfg.seed)
    children = master.spawn(cfg.dim + 1)
    rng = np.random.default_rng(children[0])
    u = rng.random(cfg.dim)
    theta = np.sort(((1.0 - u) ** (-1.0 / cfg.pareto_shape) - 1.0) / cfg.pareto_scale)[::-1].copy()
    y = np.zeros((cfg.dim, cfg.bins), dtype=np.int64)
    for i in range(cfg.dim):
        row_rng = np.random.default_rng(children[i + 1])
        rate = theta[i]
        if i + 1 == cfg.change_rank:
            before = row_rng.poisson(rate, cfg.change_bin)
            after = row_rng.poisson(cfg.factor * rate, cfg.bins - cfg.change_bin)
            y[i] = np.concatenate([before, after])
        else:
            y[i] = row_rng.poisson(rate, cfg.bins)
    return y, theta


def limit_info_max_quad(d, theta):
    """`fisher.limit_info_max` by adaptive quadrature (scipy's `quad`)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    const = theta * float(d.score_ratio(theta))
    weight_below = float(d.cdf(theta))

    def first(x: float) -> float:
        return x * float(d.pdf_deriv(x))

    def second(x: float) -> float:
        p = float(d.pdf(x))
        if p <= 0.0:
            return 0.0
        dp = float(d.pdf_deriv(x))
        return x * x * dp * dp / p

    m1, _ = quad(first, theta, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    m2, _ = quad(second, theta, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    m1 += const * weight_below
    m2 += const * const * weight_below
    return (m2 - m1 * m1) / (theta * theta)
