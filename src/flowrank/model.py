"""Core domain types shared by the detection pipelines.

Protocols, metric definitions, window configuration and windows; flow
records exist only inside `ingest`, which holds their fields and rules
and what each metric reads of them.
A window (`WindowBatch`) is ascending keys int64[N] plus their
counts int64[N, P], read directly by every detector. Everything here is
an immutable value object whose constructor validates its invariants, so
instances can be shared freely between threads and pipeline stages.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

U32_MAX = 0xFFFFFFFF
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


def check_int(name: str, value, least: int, most: Optional[int] = None) -> None:
    """Reject a count argument that is not an integer in least..most.

    Python and numpy integers pass; a bool, a float (even an integral
    one), None or a string is a ValueError, as is a value out of range.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}")


def check_float(name: str, value, low: float, high: float) -> None:
    """Reject a real argument that is not a number in the open interval (low, high).

    Python and numpy reals, integers among them, pass; a bool, None, a
    string or an array is a ValueError, as is NaN or a value out of range.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number")
    if not low < value < high:
        raise ValueError(f"{name} must lie in ({low}, {high})")


@dataclass(frozen=True)
class WindowConfig:
    """Observation-window geometry and detection parameters.

    A window spans `bins_per_window` consecutive bins of `delta`
    seconds. `top_m` is the per-bin record-filtering depth, of which the
    top `keep_mprime` ranks select candidate keys or, with `budget` set,
    all `top_m` ranks select the first `budget` distinct keys;
    `level_alpha` is the p-value threshold below which an alarm is raised.
    """

    delta: float = 1.0
    bins_per_window: int = 60
    top_m: int = 10
    keep_mprime: int = 1
    level_alpha: float = 1e-3
    metric: MetricKind = MetricKind.SYN_FLOOD
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        check_float("delta", self.delta, 0, math.inf)
        check_int("bins_per_window", self.bins_per_window, 2, MAX_BINS)
        check_float("delta * bins_per_window", self.window_seconds, 0, math.inf)
        check_int("top_m", self.top_m, 1)
        check_int("keep_mprime", self.keep_mprime, 1, self.top_m)
        if self.budget is not None:
            check_int("budget", self.budget, 1)
        check_float("level_alpha", self.level_alpha, 0, 1)

    @property
    def window_seconds(self) -> float:
        return self.delta * self.bins_per_window


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """One window as ascending keys int64[N] and their counts int64[N, P].

    Row i of `counts` is the series of `keys[i]` over the window's P
    bins; N is the dimension of the window. Constructors normally omit
    keys whose series is identically zero. Both arrays take integers of
    any width that fit int64, are stored as int64 and made read-only, so
    a batch is an immutable snapshot: an int64 array that owns its memory
    is adopted without a copy and frozen in place, any other input is
    copied.
    """

    window_index: int
    start_time: float
    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        keys = as_int64(self.keys, "keys")
        counts = as_int64(self.counts, "bin counts")
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("keys must be strictly ascending")
        if counts.ndim != 2 or counts.shape[0] != keys.size or counts.shape[1] < 2:
            raise ValueError(f"counts must be N x P with P >= 2, got {counts.shape}")
        if counts.size and counts.min() < 0:
            raise ValueError("bin counts must be nonnegative")
        for name, arr in (("keys", keys), ("counts", counts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_cells(
        cls, window_index: int, start_time: float, keys: np.ndarray, bins0: np.ndarray,
        values: np.ndarray, bins: int,
    ) -> WindowBatch:
        """The window of `bins` bins whose cell (key, bin) sums the values given to it.

        `keys`, `bins0` (0-based, below `bins`) and `values` (in [0, 2^32)) are
        aligned integer arrays in any order, else a ValueError; keys with no
        positive value are omitted.
        """
        keys, bins0, values = map(as_int64, (keys, bins0, values), ("keys", "bins0", "values"))
        if not keys.shape == bins0.shape == values.shape == (keys.size,):
            raise ValueError("keys, bins0 and values must be aligned 1-D arrays")
        if keys.size and not (0 <= bins0.min() and bins0.max() < bins):
            raise ValueError(f"bins0 must lie in 0..{bins - 1}")
        if keys.size and not (0 <= values.min() and values.max() <= U32_MAX):
            raise ValueError("values must lie in [0, 2^32)")
        positive = values > 0
        keys, row = np.unique(keys[positive], return_inverse=True)
        counts = np.zeros((keys.size, bins), dtype=np.int64)
        # each value is below 2^32: int64 holds the sums of < 2^31 of them
        np.add.at(counts.reshape(-1), row * bins + bins0[positive], values[positive])
        return cls(window_index, start_time, keys, counts)

    @property
    def bins(self) -> int:
        return self.counts.shape[1]

    @property
    def num_keys(self) -> int:
        return self.keys.size


def as_int64(values, what: str) -> np.ndarray:
    """Integer `values` of any width as int64: an owning int64 array as is, else a copy.

    Values that are not integers (floats, bools) or do not fit int64 are a ValueError.
    """
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if arr.size and (kind not in "iu" or kind == "u" and arr.max() > np.iinfo(np.int64).max):
        raise ValueError(f"{what} must be integers that fit 64 bits")
    return arr.astype(np.int64, copy=not (arr.dtype == np.int64 and arr.flags.owndata))
