"""Core domain types shared by the detection pipelines.

Protocols, metric definitions, window configuration and windows; flow
records exist only inside `ingest`, which holds their rules.
A window (`WindowBatch`) is ascending keys int64[N] plus their
counts int64[N, P], read directly by every detector. Everything here is
an immutable value object whose constructor validates its invariants, so
instances can be shared freely between threads and pipeline stages.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

U32_MAX = 0xFFFFFFFF
U16_MAX = 0xFFFF
# The most bins a window may span. The rank kernel's int64 sum of squared
# scores is at most P(P-1)^2, below 2^63 for P <= 2^21 (it wraps near 3.03M).
MAX_BINS = 1 << 21


class Protocol(enum.Enum):
    """Transport protocol of a flow record."""

    TCP = "TCP"
    UDP = "UDP"
    OTHER = "OTHER"


class MetricKind(enum.Enum):
    """Per-key traffic feature accumulated into each time bin.

    Flood metrics add packet counters; scan metrics count distinct
    elements (ports or addresses) per bin.
    """

    SYN_FLOOD = "syn"       # key = dst_ip, value = TCP SYN packets
    UDP_FLOOD = "udp"       # key = dst_ip, value = UDP packets
    PORT_SCAN = "portscan"  # key = dst_ip, value = distinct dst ports
    NET_SCAN = "netscan"    # key = src_ip, value = distinct dst addresses


class DetectionMethod(enum.Enum):
    """A detection pipeline."""

    TOPRANK = "toprank"
    HASHRANK = "hashrank"
    COMPREHENSIVE = "full"


COUNTERS = ("packets", "syn", "synack", "fin", "rst")


# metric -> (protocol the record must have or None, key field, value field,
# whether the value is a token counted once per bin rather than a count)
METRIC_FIELDS = {
    MetricKind.SYN_FLOOD: (Protocol.TCP, "dst_ip", "syn", False),
    MetricKind.UDP_FLOOD: (Protocol.UDP, "dst_ip", "packets", False),
    MetricKind.PORT_SCAN: (Protocol.TCP, "dst_ip", "dst_port", True),
    MetricKind.NET_SCAN: (None, "src_ip", "dst_ip", True),
}


@dataclass(frozen=True)
class WindowConfig:
    """Observation-window geometry and detection parameters.

    A window spans `bins_per_window` consecutive bins of `delta`
    seconds. `top_m` is the per-bin record-filtering depth, of which the
    top `keep_mprime` ranks select candidate keys; `level_alpha` is the
    p-value threshold below which an alarm is raised.
    """

    delta: float = 1.0
    bins_per_window: int = 60
    top_m: int = 10
    keep_mprime: int = 1
    level_alpha: float = 1e-3
    metric: MetricKind = MetricKind.SYN_FLOOD

    def __post_init__(self) -> None:
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.bins_per_window < 2:
            raise ValueError("bins_per_window must be at least 2")
        if self.bins_per_window > MAX_BINS:
            raise ValueError(f"bins_per_window must be at most 2^21 = {MAX_BINS}")
        if not math.isfinite(self.window_seconds):
            raise ValueError("delta * bins_per_window must be finite")
        if self.top_m < 1:
            raise ValueError("top_m must be at least 1")
        if not 1 <= self.keep_mprime <= self.top_m:
            raise ValueError("keep_mprime must be in 1..top_m")
        if not 0.0 < self.level_alpha < 1.0:
            raise ValueError("level_alpha must be in (0, 1)")

    @property
    def window_seconds(self) -> float:
        return self.delta * self.bins_per_window


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """One window as ascending keys int64[N] and their counts int64[N, P].

    Row i of `counts` is the series of `keys[i]` over the window's P
    bins; N is the dimension of the window. Constructors normally omit
    keys whose series is identically zero. Both arrays are validated,
    stored as int64 and made read-only, so a batch is an immutable
    snapshot: an int64 array that owns its memory is adopted without a
    copy and frozen in place, any other input is copied.
    """

    window_index: int
    start_time: float
    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        keys = _as_int64(self.keys, "keys")
        counts = _as_int64(self.counts, "bin counts")
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("keys must be strictly ascending")
        if counts.ndim != 2 or counts.shape[0] != keys.size or counts.shape[1] < 1:
            raise ValueError(f"counts must be N x P with P >= 1, got {counts.shape}")
        if counts.size and counts.min() < 0:
            raise ValueError("bin counts must be nonnegative")
        for name, arr in (("keys", keys), ("counts", counts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def bins(self) -> int:
        return self.counts.shape[1]

    @property
    def num_keys(self) -> int:
        return self.keys.size


def _as_int64(values, what: str) -> np.ndarray:
    """`values` as int64 (an owning int64 array as is, else a checked copy)."""
    arr = np.asarray(values)
    if arr.dtype == np.int64 and arr.flags.owndata:
        return arr
    with np.errstate(invalid="ignore"):  # NaN, inf and overflow fail the check below
        cast = arr.astype(np.int64)
    if arr.dtype.kind not in "iub" and not np.array_equal(cast, arr):
        raise ValueError(f"{what} must be integers that fit 64 bits")
    return cast

