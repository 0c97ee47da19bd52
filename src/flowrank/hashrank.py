"""Sketch-aggregation pipeline: random cubic-polynomial hashing of keys
into an L x K table of aggregated series, per-cell rank tests, and
inversion of the flagged cells back to suspect keys.

Each of the L rows hashes every key into one of K buckets with an
independently drawn 4-wise-independent hash (a random cubic polynomial
over the Mersenne prime 2^61 - 1), and the bucket's series is the sum
of the series of the keys landing there. A key is a suspect when the
cell containing it is flagged in every row.

`cell_outcomes` tests all L x K cells in one `statistic_batch` call, and
`score_window` maps them back to per-key scores; `invert` is the same
decision in set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Alarm, DetectionMethod, WindowBatch
from .ranktest import BatchOutcome, Scores, statistic_batch, to_alarms

MERSENNE_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class HashCoefficients:
    """Coefficients of one random cubic polynomial hash onto 1..k_buckets.

    `a[j]` multiplies x^j; evaluation is exact modulo the Mersenne prime.
    An all-zero tuple is legal (the uniform draw does not exclude it),
    merely useless.
    """

    a: tuple[int, int, int, int]
    k_buckets: int
    mersenne_p: int = MERSENNE_PRIME

    def __post_init__(self) -> None:
        if len(self.a) != 4:
            raise ValueError("exactly four coefficients required")
        if any(not 0 <= c < self.mersenne_p for c in self.a):
            raise ValueError("coefficients must lie in [0, p-1]")
        if self.k_buckets < 2:
            raise ValueError("need at least two buckets")


def hash_eval(coeffs: HashCoefficients, x: int) -> int:
    """Bucket of key x, in 1..k_buckets.

    Horner evaluation of the cubic with every intermediate reduced
    modulo the prime (Python integers keep the products exact).
    """
    p = coeffs.mersenne_p
    acc = 0
    for c in reversed(coeffs.a):
        acc = (acc * x + c) % p
    return 1 + acc % coeffs.k_buckets


def sample_coefficients(seed: int, l_rows: int, k_buckets: int) -> list[HashCoefficients]:
    """Draw L independent coefficient tuples, uniform over [0, p-1]^4."""
    if l_rows < 1:
        raise ValueError("need at least one row")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, MERSENNE_PRIME, size=(l_rows, 4), dtype=np.int64)
    return [
        HashCoefficients(a=tuple(int(c) for c in row), k_buckets=k_buckets)
        for row in draws
    ]


@dataclass(frozen=True)
class SketchTable:
    """Aggregated series plus the key lists of every cell.

    `series[l, k, :]` is the bucket series of row l+1, bucket k+1;
    `cell_keys[l][k]` lists (ascending) the keys hashed there. Every
    window key appears in exactly one cell per row, so each row's
    buckets sum to the window's total series.
    """

    l_rows: int
    k_buckets: int
    series: np.ndarray
    cell_keys: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if self.series.shape[:2] != (self.l_rows, self.k_buckets):
            raise ValueError("series shape does not match table geometry")
        self.series.setflags(write=False)


def build_sketch(batch: WindowBatch, coeffs: Sequence[HashCoefficients]) -> SketchTable:
    """Hash every key of the window into the L x K table."""
    if not coeffs:
        raise ValueError("need at least one hash row")
    k_buckets = coeffs[0].k_buckets
    if any(c.k_buckets != k_buckets for c in coeffs):
        raise ValueError("all rows must share the same bucket count")
    l_rows = len(coeffs)
    series = np.zeros((l_rows, k_buckets, batch.bins), dtype=np.int64)
    keys_by_cell: list[list[list[int]]] = [
        [[] for _ in range(k_buckets)] for _ in range(l_rows)
    ]
    for key in sorted(batch.series):
        values = batch.series[key].values
        for row, c in enumerate(coeffs):
            bucket = hash_eval(c, key) - 1
            series[row, bucket] += values
            keys_by_cell[row][bucket].append(key)
    cell_keys = tuple(
        tuple(tuple(cell) for cell in row_cells) for row_cells in keys_by_cell
    )
    return SketchTable(l_rows=l_rows, k_buckets=k_buckets, series=series, cell_keys=cell_keys)


def cell_outcomes(table: SketchTable) -> BatchOutcome:
    """Rank-test every cell series; cell (row l, bucket k), 1-based, is at (l-1)*K + k-1."""
    return statistic_batch(table.series.reshape(-1, table.series.shape[2]))


def invert(table: SketchTable, cells: Iterable[tuple[int, int]]) -> frozenset[int]:
    """Keys whose cell is flagged in every row.

    Computes the intersection over rows of the union of the flagged
    cells' key lists in that row.
    """
    flagged = set(cells)
    suspects: frozenset[int] | None = None
    for row in range(1, table.l_rows + 1):
        row_union: set[int] = set()
        for bucket in range(1, table.k_buckets + 1):
            if (row, bucket) in flagged:
                row_union.update(table.cell_keys[row - 1][bucket - 1])
        suspects = frozenset(row_union) if suspects is None else suspects & row_union
        if not suspects:
            return frozenset()
    return suspects if suspects is not None else frozenset()


def score_window(batch: WindowBatch, coeffs: Sequence[HashCoefficients]) -> Scores:
    """Sketch and test one window; per-key scores.

    A key's cells are flagged in every row iff the largest of their
    p-values is below the level, so that is its alarm p-value. It
    reports its cell with the smallest p-value (earliest row under
    ties), the most confident evidence for that key.
    """
    table = build_sketch(batch, coeffs)
    out = cell_outcomes(table)
    keys = np.array(sorted(batch.series), dtype=np.int64)
    cells = np.empty((table.l_rows, keys.size), dtype=np.intp)
    for row, row_cells in enumerate(table.cell_keys):
        for bucket, members in enumerate(row_cells):
            cells[row, np.searchsorted(keys, members)] = row * table.k_buckets + bucket
    p_value = out.p_value[cells]
    best = cells[p_value.argmin(axis=0), np.arange(keys.size)]
    report = (out.p_value[best], out.w_stat[best], out.change_bin[best])
    return Scores(batch.window_index, DetectionMethod.HASHRANK, keys, p_value.max(axis=0), *report)


def run_window(
    batch: WindowBatch,
    coeffs: Sequence[HashCoefficients],
    level_alpha: float,
) -> list[Alarm]:
    """Alarms of one window (see `score_window`), sorted by p-value."""
    return to_alarms(score_window(batch, coeffs), level_alpha)
