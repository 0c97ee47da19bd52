"""Core domain types shared by the detection pipelines.

Flow records, metric definitions, window configuration, per-key count
series and alarms. Everything here is an immutable value object whose
constructor validates its invariants, so instances can be shared freely
between threads and pipeline stages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

U32_MAX = 0xFFFFFFFF
U16_MAX = 0xFFFF


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
    """Which pipeline produced an alarm."""

    TOPRANK = "toprank"
    HASHRANK = "hashrank"
    COMPREHENSIVE = "full"


COUNTERS = ("packets", "syn", "synack", "fin", "rst")


class RecordError(ValueError):
    """A violated FlowRecord invariant.

    `reason` names the rule: "timestamp", "range" or "flags".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class FlowRecord:
    """One NetFlow-style record.

    Addresses are 32-bit unsigned integers, ports 16-bit. The SYN,
    SYN/ACK, FIN and RST counters are meaningful for TCP only and must
    be zero otherwise.
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

    def __post_init__(self) -> None:
        if self.ts_end < self.ts_start:
            raise RecordError(
                "timestamp",
                f"flow ends before it starts ({self.ts_end} < {self.ts_start})",
            )
        for name in ("src_ip", "dst_ip"):
            v = getattr(self, name)
            if not 0 <= v <= U32_MAX:
                raise RecordError("range", f"{name}={v} outside 32-bit range")
        for name in ("src_port", "dst_port"):
            v = getattr(self, name)
            if not 0 <= v <= U16_MAX:
                raise RecordError("range", f"{name}={v} outside 16-bit range")
        for name in COUNTERS:
            v = getattr(self, name)
            if v < 0:
                raise RecordError("range", f"{name} must be nonnegative")
            # NetFlow v5 counters are 32-bit; the bound keeps every bin sum
            # of fewer than 2^31 records inside int64
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


class Contribution(NamedTuple):
    """One record's contribution to a (key, bin) cell.

    Exactly one of `count` (added to the bin value) and `token` (an
    element whose distinct occurrences are counted per bin) is set.
    """

    key: int
    count: Optional[int]
    token: Optional[int]


# metric -> (protocol the record must have or None, key field, value field,
# whether the value is a token counted once per bin rather than a count)
METRIC_FIELDS = {
    MetricKind.SYN_FLOOD: (Protocol.TCP, "dst_ip", "syn", False),
    MetricKind.UDP_FLOOD: (Protocol.UDP, "dst_ip", "packets", False),
    MetricKind.PORT_SCAN: (Protocol.TCP, "dst_ip", "dst_port", True),
    MetricKind.NET_SCAN: (None, "src_ip", "dst_ip", True),
}


def metric_key_value(rec: FlowRecord, metric: MetricKind) -> Optional[Contribution]:
    """Map a record to its dimension key and bin contribution.

    Returns None when the record is irrelevant to the metric, e.g. a
    UDP record under the SYN-flood metric. Scan metrics follow the
    attack definitions: port scans count TCP destination ports, network
    scans count contacted addresses regardless of protocol.
    """
    if metric not in METRIC_FIELDS:
        raise ValueError(f"unknown metric {metric!r}")
    proto, key, value, distinct = METRIC_FIELDS[metric]
    if proto is not None and rec.proto is not proto:
        return None
    if distinct:
        return Contribution(getattr(rec, key), count=None, token=getattr(rec, value))
    return Contribution(getattr(rec, key), count=getattr(rec, value), token=None)


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
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.bins_per_window < 2:
            raise ValueError("bins_per_window must be at least 2")
        if self.top_m < 1:
            raise ValueError("top_m must be at least 1")
        if not 1 <= self.keep_mprime <= self.top_m:
            raise ValueError("keep_mprime must be in 1..top_m")
        if not 0.0 < self.level_alpha < 1.0:
            raise ValueError("level_alpha must be in (0, 1)")

    @property
    def window_seconds(self) -> float:
        return self.delta * self.bins_per_window


@dataclass(frozen=True)
class BinSeries:
    """Counts for one key across the bins of a window."""

    key: int
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.issubdtype(arr.dtype, np.integer):
            cast = arr.astype(np.int64)
            if not np.array_equal(cast, arr):
                raise ValueError("bin counts must be integers")
            arr = cast
        else:
            arr = arr.astype(np.int64, copy=True)
        if arr.size and arr.min() < 0:
            raise ValueError("bin counts must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class WindowBatch:
    """All per-key series observed in one window; an immutable snapshot.

    The number of keys is the dimension of the window. Constructors
    normally omit keys whose series is identically zero.
    """

    window_index: int
    start_time: float
    bins: int
    series: Mapping[int, BinSeries]

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("bins must be positive")
        for key, bs in self.series.items():
            if bs.key != key:
                raise ValueError(f"series for key {key} carries key {bs.key}")
            if bs.values.shape[0] != self.bins:
                raise ValueError(
                    f"series for key {key} has {bs.values.shape[0]} bins, "
                    f"expected {self.bins}"
                )

    @property
    def num_keys(self) -> int:
        return len(self.series)

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The window as ascending keys int64[N] and their counts int64[N, P]."""
        keys = sorted(self.series)
        counts = np.array([self.series[k].values for k in keys], dtype=np.int64)
        return np.array(keys, dtype=np.int64), counts.reshape(len(keys), self.bins)


@dataclass(frozen=True)
class Alarm:
    """A window/key pair flagged by a detection pipeline."""

    key: int
    window_index: int
    change_bin: int
    p_value: float
    statistic: float
    method: DetectionMethod
