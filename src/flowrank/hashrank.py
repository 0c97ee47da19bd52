"""Sketch-aggregation pipeline: random cubic-polynomial hashing of keys
into an L x K table of aggregated series, per-cell rank tests, and
inversion of the flagged cells back to suspect keys.

Each of the L rows hashes every key into one of K buckets with an
independently drawn 4-wise-independent hash (a random cubic polynomial
over the Mersenne prime 2^61 - 1), and the bucket's series is the sum
of the series of the keys landing there. A key is a suspect when the
cell containing it is flagged in every row. The L hashes are one
`HashCoefficients`: an L x 4 coefficient array plus the shared K.

The sketch (`SketchTable`) keeps the window's ascending keys and their
0-based buckets (L x N): key n sits in cell `l * K + buckets[l, n]` of
the row-major cell order. `score_window` tests all L x K cells in one
`statistic_batch` call and reads every key's L cells back from the
bucket array; `invert` is the same decision in set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import WindowBatch
from .ranktest import Scores, statistic_batch

MERSENNE_PRIME = (1 << 61) - 1


# eq=False: an array field has no truth value; compare `a` with np.array_equal
@dataclass(frozen=True, eq=False)
class HashCoefficients:
    """The L random cubic polynomial hashes of a sketch, each onto 1..k_buckets.

    `a` is a read-only uint64[L, 4]: `a[l, j]` multiplies x^j in row
    l+1's cubic, whose evaluation is exact modulo the Mersenne prime.
    Every row shares the one `k_buckets`. An all-zero row is legal (the
    uniform draw does not exclude it), merely useless.
    """

    a: np.ndarray
    k_buckets: int

    def __post_init__(self) -> None:
        a = np.asarray(self.a)
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("coefficients must be integers")
        if a.ndim != 2 or a.shape[1] != 4 or not a.shape[0]:
            raise ValueError("coefficients must be L x 4, with L >= 1")
        if a.min() < 0 or a.max() >= MERSENNE_PRIME:
            raise ValueError("coefficients must lie in [0, p-1]")
        if self.k_buckets < 2:
            raise ValueError("need at least two buckets")
        a = a.astype(np.uint64)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def l_rows(self) -> int:
        return self.a.shape[0]


_P = np.uint64(MERSENNE_PRIME)
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)


def _reduce(s: np.ndarray) -> np.ndarray:
    """s mod p for uint64 s below 2^63 (2^61 = 1 mod p)."""
    s = (s & _P) + (s >> np.uint64(61))
    return np.where(s >= _P, s - _P, s)


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b mod p for uint64 arrays below 2^61, exact via 32-bit limbs.

    With a = a1*2^32 + a0 and b likewise, the product is
    a1*b1*2^64 + (a1*b0 + a0*b1)*2^32 + a0*b0, and 2^64 = 8 mod p.
    The middle term m splits at bit 29, since m*2^32 = (m >> 29)*2^61 +
    (m mod 2^29)*2^32. Every partial term stays below 2^62 and their sum
    below 2^63.
    """
    a1, a0 = a >> np.uint64(32), a & _LOW32
    b1, b0 = b >> np.uint64(32), b & _LOW32
    low = a0 * b0
    mid = a1 * b0 + a0 * b1
    return _reduce(
        ((a1 * b1) << np.uint64(3))
        + (mid >> np.uint64(29))
        + ((mid & _LOW29) << np.uint64(32))
        + (low & _P)
        + (low >> np.uint64(61))
    )


def hash_buckets(coeffs: HashCoefficients, keys: np.ndarray) -> np.ndarray:
    """0-based buckets of int64 keys under every row, as intp[L, N].

    Entry [l, n] equals the Python-int Horner evaluation of row l's
    cubic at keys[n] (`tests/oracles.py::hash_eval`), minus one: the
    keys are reduced modulo p with Python's sign convention, then each
    row's cubic runs Horner's rule with exact multiply-mod.
    """
    x = np.mod(np.asarray(keys, dtype=np.int64), MERSENNE_PRIME).astype(np.uint64)
    a = coeffs.a
    acc = np.broadcast_to(a[:, 3:], (coeffs.l_rows, x.size))
    for j in (2, 1, 0):
        acc = _reduce(_mulmod(acc, x) + a[:, j:j + 1])
    return (acc % np.uint64(coeffs.k_buckets)).astype(np.intp)


def sample_coefficients(seed: int, l_rows: int, k_buckets: int) -> HashCoefficients:
    """Draw L independent coefficient rows, uniform over [0, p-1]^4."""
    if l_rows < 1:
        raise ValueError("need at least one row")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, MERSENNE_PRIME, size=(l_rows, 4), dtype=np.int64)
    return HashCoefficients(draws, k_buckets)


@dataclass(frozen=True, eq=False)
class SketchTable:
    """Aggregated series plus the bucket of every key in every row.

    `series[l, k, :]` is the bucket series of row l+1, bucket k+1;
    `buckets[l, n]` is the 0-based bucket of `keys[n]` in row l+1, so
    cell (l+1, k+1) holds the keys with `buckets[l] == k`. Every window
    key lands in exactly one cell per row, so each row's buckets sum to
    the window's total series.
    """

    series: np.ndarray
    keys: np.ndarray
    buckets: np.ndarray

    def __post_init__(self) -> None:
        shaped = self.series.ndim == 3 and self.buckets.shape == (self.l_rows, self.keys.size)
        if not (shaped and self.l_rows):
            raise ValueError("series must be L x K x P and buckets L x N, with L >= 1")
        if self.buckets.size and not 0 <= self.buckets.min() <= self.buckets.max() < self.k_buckets:
            raise ValueError("buckets must lie in 0..K-1")
        for arr in (self.series, self.keys, self.buckets):
            arr.setflags(write=False)

    @property
    def l_rows(self) -> int:
        return self.series.shape[0]

    @property
    def k_buckets(self) -> int:
        return self.series.shape[1]


def build_sketch(batch: WindowBatch, coeffs: HashCoefficients) -> SketchTable:
    """Hash every key of the window into the L x K table; each row sums
    its buckets' blocks of key-sorted count rows with one `np.add.reduceat`."""
    buckets = hash_buckets(coeffs, batch.keys)
    series = np.zeros((coeffs.l_rows, coeffs.k_buckets, batch.bins), dtype=np.int64)
    for row, bucket in enumerate(buckets):
        order = np.argsort(bucket, kind="stable")
        ordered = bucket[order]
        starts = np.flatnonzero(np.diff(ordered, prepend=-1))
        # part of a bin's column total: below 2^63 in a flow or dense window (see their readers)
        series[row, ordered[starts]] = np.add.reduceat(batch.counts[order], starts, axis=0)
    return SketchTable(series=series, keys=batch.keys, buckets=buckets)


def invert(table: SketchTable, cells: Iterable[tuple[int, int]]) -> frozenset[int]:
    """Keys whose cell is flagged in every row.

    The intersection over rows of the union of the flagged cells' keys
    in that row, read off the bucket array.
    """
    flagged = np.zeros((table.l_rows, table.k_buckets), dtype=bool)
    for row, bucket in cells:
        if not (1 <= row <= table.l_rows and 1 <= bucket <= table.k_buckets):
            raise ValueError(f"cell ({row}, {bucket}) outside the table")
        flagged[row - 1, bucket - 1] = True
    hit = np.take_along_axis(flagged, table.buckets, axis=1).all(axis=0)
    return frozenset(table.keys[hit].tolist())


def score_window(batch: WindowBatch, coeffs: HashCoefficients) -> Scores:
    """Sketch and test one window; per-key scores.

    A key's cells are flagged in every row iff the largest of their
    p-values is below the level, so that is its alarm p-value. It
    reports its cell with the smallest p-value (earliest row under
    ties), the most confident evidence for that key.
    """
    table = build_sketch(batch, coeffs)
    out = statistic_batch(table.series.reshape(-1, table.series.shape[2]))
    cells = table.buckets + table.k_buckets * np.arange(table.l_rows)[:, None]
    p_value = out.p_value[cells]
    best = cells[p_value.argmin(axis=0), np.arange(table.keys.size)]
    report = (p_value.max(axis=0), out.p_value[best], out.w_stat[best], out.change_bin[best])
    return Scores(table.keys, *report)
