"""Seeded flow-corpus generator for the benchmark.

Uses numpy only and never imports `flowrank`, so no change to the
program can change the benchmark's input. The same seed and size give a
byte-identical CSV on every run.

A corpus spans `windows` observation windows of `bins` one-second bins.
Background traffic draws destinations and sources from Pareto-weighted
address pools and mixes TCP, UDP and OTHER records; the records of each
window are shuffled. One anomaly is injected after bin `change_bin` of
window `window`:

- kind "syn": a SYN flood on a mid-rank destination (metric `syn`,
  key = destination address);
- kind "scan": a scanner source whose distinct destinations per bin jump
  (metric `netscan`, key = source address). This kind also carries a
  small share of malformed lines, one of each kind `parse_record`
  rejects: wrong field count, non-numeric field, unknown protocol and
  TCP flag counters summing above the packet count.

Non-finite timestamps are left out on purpose: they crash window
splitting today even under `--errors skip`, so they would fail every job.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

HEADER = "ts_start,ts_end,src_ip,dst_ip,src_port,dst_port,proto,packets,syn,synack,fin,rst"
ORIGIN_S = 1_262_304_000  # window 0 starts here; an integer, so windows align to bins
PARETO_SHAPE = 1.2
PROTOS = ("TCP", "UDP", "OTHER")
MALFORMED_SHARE = 0.005


class Size(NamedTuple):
    records: int = 200_000
    dst_keys: int = 50_000
    src_keys: int = 20_000
    windows: int = 5
    bins: int = 60
    anomaly_per_bin: int = 60


FULL = Size()


def _pareto_weights(n: int) -> np.ndarray:
    """Pareto quantiles, largest first: the same weights for every seed, so the
    busiest key's volume (and with it the anomaly's rank) does not swing."""
    return ((np.arange(n) + 0.5) / n) ** (-1.0 / PARETO_SHAPE)


def _addresses(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct nonzero 32-bit addresses in random order."""
    out = np.unique(rng.integers(1, 1 << 32, size=2 * n + 16, dtype=np.int64))
    return rng.permutation(out)[:n]


def _pick(rng: np.random.Generator, cum: np.ndarray, n: int) -> np.ndarray:
    return np.searchsorted(cum, rng.random(n) * cum[-1], side="right")


def _traffic(rng, n, win, size, dst_cum, src_cum, dst_addr, src_addr):
    """Background records of one window as a dict of integer columns."""
    ms = rng.integers(0, size.bins * 1000, size=n)
    ms[0] = 0  # one record at the window start pins the window origin
    start_ms = (ORIGIN_S + win * size.bins) * 1000 + ms
    dur_ms = np.floor(-np.log1p(-rng.random(n)) * 2000.0).astype(np.int64)
    u = rng.random(n)
    proto = np.where(u < 0.7, 0, np.where(u < 0.95, 1, 2))
    packets = 1 + np.floor(-np.log1p(-rng.random(n)) * 4.0).astype(np.int64)
    tcp = proto == 0
    u = rng.random(n)
    syn = np.where(u < 0.1, 0, np.where(u < 0.85, 1, 2))
    syn = np.minimum(syn, packets)
    synack = ((rng.random(n) < 0.5) & (packets > syn)).astype(np.int64)
    fin = ((rng.random(n) < 0.6) & (packets > syn + synack)).astype(np.int64)
    rst = ((rng.random(n) < 0.05) & (packets > syn + synack + fin)).astype(np.int64)
    return {
        "start_ms": start_ms,
        "end_ms": start_ms + dur_ms,
        "src": src_addr[_pick(rng, src_cum, n)],
        "dst": dst_addr[_pick(rng, dst_cum, n)],
        "sport": rng.integers(1024, 65536, size=n),
        "dport": rng.integers(1, 65536, size=n),
        "proto": proto,
        "packets": packets,
        "syn": np.where(tcp, syn, 0),
        "synack": np.where(tcp, synack, 0),
        "fin": np.where(tcp, fin, 0),
        "rst": np.where(tcp, rst, 0),
    }


def _anomaly(rng, kind, key, win, change_bin, size):
    """Records of the injected flood or scan, in bins after `change_bin`."""
    bins_after = size.bins - change_bin
    n = bins_after * size.anomaly_per_bin
    bin_of = change_bin + np.repeat(np.arange(bins_after), size.anomaly_per_bin)
    start_ms = (ORIGIN_S + win * size.bins + bin_of) * 1000 + rng.integers(0, 1000, size=n)
    spoofed = rng.integers(1, 1 << 32, size=n, dtype=np.int64)
    if kind == "syn":
        packets = rng.integers(1, 3, size=n)
        src, dst, dport, syn = spoofed, np.full(n, key), np.full(n, 80), packets
    else:
        packets = np.ones(n, dtype=np.int64)
        src, dst, dport, syn = np.full(n, key), spoofed, np.full(n, 445), packets
    zeros = np.zeros(n, dtype=np.int64)
    return {
        "start_ms": start_ms,
        "end_ms": start_ms + rng.integers(0, 50, size=n),
        "src": src,
        "dst": dst,
        "sport": rng.integers(1024, 65536, size=n),
        "dport": dport,
        "proto": zeros,
        "packets": packets,
        "syn": syn,
        "synack": zeros,
        "fin": zeros,
        "rst": zeros,
    }


def _format(cols: dict) -> list[str]:
    def ts(ms: int) -> str:
        return f"{ms // 1000}.{ms % 1000:03d}"

    rows = zip(*(cols[k].tolist() for k in (
        "start_ms", "end_ms", "src", "dst", "sport", "dport", "proto",
        "packets", "syn", "synack", "fin", "rst")))
    return [
        f"{ts(a)},{ts(b)},{s},{d},{sp},{dp},{PROTOS[p]},{pk},{sy},{sa},{fi},{rs}"
        for a, b, s, d, sp, dp, p, pk, sy, sa, fi, rs in rows
    ]


def _malform(lines: list[str]) -> list[str]:
    """Corrupt copies of the given lines, cycling through four defects."""
    out = []
    for i, line in enumerate(lines):
        f = line.split(",")
        defect = i % 4
        if defect == 0:
            f = f[:-1]  # wrong field count
        elif defect == 1:
            f[7] = f[7] + "x"  # non-numeric packets
        elif defect == 2:
            f[6] = "ICMP"  # unknown protocol
        else:
            f[6], f[7], f[8], f[9], f[10], f[11] = "TCP", "1", "1", "0", "1", "0"  # flags > packets
        out.append(",".join(f))
    return out


def generate(seed: int, kind: str, size: Size = FULL) -> tuple[list[str], dict]:
    """Data lines (header excluded) and ground truth of one corpus."""
    if kind not in ("syn", "scan"):
        raise ValueError(f"unknown corpus kind {kind!r}")
    rng = np.random.default_rng([seed, 0 if kind == "syn" else 1])
    dst_addr = _addresses(rng, size.dst_keys)
    src_addr = _addresses(rng, size.src_keys)
    dst_cum = np.cumsum(_pareto_weights(size.dst_keys))
    src_cum = np.cumsum(_pareto_weights(size.src_keys))
    # address pools are in weight order, so index i is the (i+1)-th busiest key
    pool = dst_addr if kind == "syn" else src_addr
    rank = int(rng.integers(len(pool) // 50, len(pool) // 10))
    key = int(pool[rank])
    win = int(rng.integers(1, size.windows - 1)) if size.windows > 2 else 0
    change_bin = int(rng.integers(size.bins // 3, 2 * size.bins // 3))
    per_window = size.records // size.windows
    lines: list[str] = []
    malformed = 0
    for w in range(size.windows):
        cols = _traffic(rng, per_window, w, size, dst_cum, src_cum, dst_addr, src_addr)
        block = _format(cols)
        if w == win:
            block += _format(_anomaly(rng, kind, key, win, change_bin, size))
        if kind == "scan":
            n_bad = max(4, int(per_window * MALFORMED_SHARE))
            picks = rng.integers(1, per_window, size=n_bad)  # never the origin record
            block += _malform([block[i] for i in picks.tolist()])
            malformed += n_bad
        lines.extend(block[i] for i in rng.permutation(len(block)).tolist())
    truth = {
        "seed": seed,
        "kind": kind,
        "metric": "syn" if kind == "syn" else "netscan",
        "key": key,
        "key_rank": rank + 1,
        "window": win,
        "change_bin": change_bin,
        "data_lines": len(lines),
        "malformed": malformed,
    }
    return lines, truth


def write(path: str, seed: int, kind: str, size: Size = FULL) -> dict:
    """Write the corpus CSV to `path` and its truth to `path`.truth.json."""
    lines, truth = generate(seed, kind, size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HEADER + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")
    with open(path + ".truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return truth
