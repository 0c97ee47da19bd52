"""Synthetic traffic generator with one injected change-point.

Per-key intensities are drawn from a heavy-tailed Pareto law (most keys
see little traffic, a few see a lot), each key's bin counts are i.i.d.
Poisson at its intensity, and exactly one key switches to a multiple of
its intensity after a chosen bin. Keys are the 1-based ranks of the
intensities sorted in decreasing order, so the changed key's rank
directly controls detection difficulty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import IO, Callable, Optional, Union

import numpy as np

from .model import MAX_BINS, U32_MAX, WindowBatch

DENSE_HEADER = "key,bin,count"
_INT64 = np.iinfo(np.int64)

# SeedSequence's entropy pool, as in NumPy's _bit_generator.pyx: pool
# size, hashmix/mix constants and shift; all arithmetic is mod 2^32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill, PCG, HMC-CS-2014-0905)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic window.

    `change_rank` addresses the sorted intensity vector (rank 1 is the
    busiest key); the change multiplies that key's rate by `factor`
    after bin `change_bin`.
    """

    dim: int = 1000
    bins: int = 60
    pareto_shape: float = 2.5
    pareto_scale: float = 0.72
    change_rank: int = 500
    change_bin: int = 35
    factor: float = 7.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        # a row's spawn key must stay one uint32 word (see `_spawn_states`)
        if self.dim > _MASK32:
            raise ValueError("dim must be below 2^32")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.bins < 2:
            raise ValueError("bins must be at least 2")
        if self.bins > MAX_BINS:
            raise ValueError(f"bins must be at most 2^21 = {MAX_BINS}")
        # each range test also rejects nan
        if not 1 < self.pareto_shape < math.inf:
            raise ValueError("pareto_shape must be finite and exceed 1 (finite mean)")
        if not 0 < self.pareto_scale < math.inf:
            raise ValueError("pareto_scale must be positive and finite")
        if self.dim > 0 and not 1 <= self.change_rank <= self.dim:
            raise ValueError("change_rank must be in 1..dim")
        if not 1 <= self.change_bin < self.bins:
            raise ValueError("change_bin must be in 1..bins-1")
        if not 0 < self.factor < math.inf:
            raise ValueError("factor must be positive and finite")


def sample_pareto(
    u: Union[float, np.ndarray], shape: float, scale: float
) -> Union[float, np.ndarray]:
    """Inverse-CDF transform of uniform draws to Pareto intensities.

    The density is scale*shape / (1 + scale*x)^(1+shape) for x > 0;
    inverting its CDF gives ((1-u)^(-1/shape) - 1) / scale.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0) or np.any(u >= 1):
        raise ValueError("u must lie in [0, 1)")
    out = ((1.0 - u) ** (-1.0 / shape) - 1.0) / scale
    return float(out) if out.ndim == 0 else out


def _hashmixer(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's `hashmix`, carrying its running multiplier between calls."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _spawn_states(seed: int, n: int) -> np.ndarray:
    """`SeedSequence(seed).spawn(n + 1)[i].generate_state(4, np.uint64)` for i = 1..n.

    Returns uint64[n, 4], computed for all n children in one pass of
    uint32 arithmetic. A child's entropy is the seed's uint32 words (low
    word first, zero-padded to the pool size) followed by its spawn key
    word i. Only that last word differs between children, so the others
    enter as one-element arrays and broadcast once it mixes into the pool.
    """
    seed = int(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(1, n + 1, dtype=np.uint32))
    # mix_entropy: hash the first pool-size words in, mix every pool word
    # into every other, then mix each remaining word into the whole pool
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: 8 uint32 words cycling over the pool, paired low word first
    hashmix = _hashmixer(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return np.stack([out[2 * k] | out[2 * k + 1] << 32 for k in range(4)], axis=1)


def generate(cfg: SynthConfig) -> WindowBatch:
    """Draw one synthetic window, deterministic in the seed.

    The batch holds keys 1..dim, key i (row i-1) at the i-th largest
    intensity. Unlike ingested batches, all-zero rows are kept: the
    dataset's dimension is part of the experiment.

    Stream 0 of `SeedSequence(cfg.seed).spawn(cfg.dim + 1)` draws the
    intensities and stream i the counts of key i, so row generation
    order never matters. The row streams are seeded in one pass
    (`_spawn_states`, then PCG64's `srandom` rule) on one reused
    generator, and draw exactly what `default_rng` on each spawned
    child would.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    theta = np.sort(
        np.asarray(sample_pareto(rng.random(cfg.dim), cfg.pareto_shape, cfg.pareto_scale))
    )[::-1]
    y = np.zeros((cfg.dim, cfg.bins), dtype=np.int64)
    bit_generator = rng.bit_generator
    states = _spawn_states(cfg.seed, cfg.dim).tolist()
    for i, ((seed_hi, seed_lo, seq_hi, seq_lo), rate) in enumerate(zip(states, theta.tolist())):
        # srandom: inc = 2 seq + 1; state = ((inc + seed) * mult + inc) mod 2^128
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if i + 1 == cfg.change_rank:
            before = rng.poisson(rate, cfg.change_bin)
            after = rng.poisson(cfg.factor * rate, cfg.bins - cfg.change_bin)
            y[i] = np.concatenate([before, after])
        else:
            y[i] = rng.poisson(rate, cfg.bins)
    return WindowBatch(0, 0.0, np.arange(1, cfg.dim + 1), y)


def write_dense_csv(batch: WindowBatch, cfg: SynthConfig, target: Union[str, IO[str]]) -> None:
    """Write the batch's nonzero cells as key,bin,count rows after a
    comment line with the truth of `cfg`, the config that generated it."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            write_dense_csv(batch, cfg, fh)
        return
    target.write(f"# truth:i0={cfg.change_rank},j0={cfg.change_bin},eta={cfg.factor:g}\n")
    target.write(DENSE_HEADER + "\n")
    rows, cols = np.nonzero(batch.counts)
    for r, c in zip(rows, cols):
        target.write(f"{batch.keys[r]},{c + 1},{batch.counts[r, c]}\n")


def read_dense_csv(
    source: Union[str, IO[str]], bins: int
) -> tuple[WindowBatch, Optional[dict[str, float]]]:
    """Read a dense key,bin,count CSV back into a window batch of `bins` bins.

    Returns the batch and the truth annotation when present. Keys with
    only zero counts in the file are dropped (they should not appear in
    a dense file anyway).
    """
    if bins > MAX_BINS:
        raise ValueError(f"bins must be at most 2^21 = {MAX_BINS}")
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_dense_csv(fh, bins)
    truth: Optional[dict[str, float]] = None
    cells: list[tuple[int, int, int]] = []
    header_seen = False
    for line_no, line in enumerate(source, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if text.startswith("# truth:"):
                try:
                    parts = dict(kv.split("=") for kv in text[len("# truth:"):].split(","))
                    truth = {"i0": int(parts["i0"]), "j0": int(parts["j0"]),
                             "eta": float(parts["eta"])}
                except (KeyError, ValueError):
                    raise ValueError(f"line {line_no}: bad truth line {text!r}") from None
            continue
        if not header_seen:
            if text != DENSE_HEADER:
                raise ValueError(f"line {line_no}: bad header, expected {DENSE_HEADER!r}")
            header_seen = True
            continue
        fields = text.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {line_no}: expected key,bin,count")
        try:
            key, bin_index, count = (int(f) for f in fields)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: unparseable number: {exc}") from None
        if bin_index < 1 or count < 0:
            raise ValueError(f"line {line_no}: bin must be >= 1 and count >= 0")
        # the flow counter bound: sums of fewer than 2^31 cells fit int64
        if count > U32_MAX or not _INT64.min <= key <= _INT64.max or bin_index > _INT64.max:
            raise ValueError(f"line {line_no}: count must be below 2^32, key and bin fit 64 bits")
        cells.append((key, bin_index, count))
    if not header_seen:
        raise ValueError("missing header")
    key, bin_index, count = np.array(cells, dtype=np.int64).reshape(-1, 3).T
    if cells and bin_index.max() > bins:
        raise ValueError(f"bin index {bin_index.max()} exceeds configured {bins} bins")
    keys, row = np.unique(key, return_inverse=True)
    counts = np.zeros((keys.size, bins), dtype=np.int64)
    # each cell adds a count below 2^32: int64 holds the sums of < 2^31 cells
    np.add.at(counts, (row, bin_index - 1), count)
    alive = counts.any(axis=1)
    return WindowBatch(0, 0.0, keys[alive], counts[alive]), truth
