import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import generate as oracle_generate

from flowrank.synth import (
    SynthConfig,
    _spawn_states,
    generate,
    read_dense_csv,
    sample_pareto,
    write_dense_csv,
)


def test_pareto_left_endpoint():
    assert sample_pareto(0.0, 2.5, 0.72) == 0.0


def test_pareto_median_matches_inverse_cdf():
    assert sample_pareto(0.5, 2.5, 0.72) == pytest.approx(0.4438, abs=1e-3)


def test_pareto_upper_decile():
    assert sample_pareto(0.9, 2.5, 0.72) == pytest.approx(2.0999, abs=1e-3)


def test_pareto_vectorized_and_validated():
    u = np.array([0.0, 0.5, 0.9])
    out = sample_pareto(u, 2.5, 0.72)
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        sample_pareto(1.0, 2.5, 0.72)
    with pytest.raises(ValueError):
        sample_pareto(-0.1, 2.5, 0.72)
    # a subnormal scale overflows the division: an error, not a warning and inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            sample_pareto(u, 2.5, 1e-320)


def test_generate_deterministic_in_seed():
    cfg = SynthConfig(dim=50, bins=20, change_rank=5, change_bin=10, factor=3.0, seed=11)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.counts, b.counts)
    c = generate(SynthConfig(dim=50, bins=20, change_rank=5, change_bin=10, factor=3.0, seed=12))
    assert not np.array_equal(a.counts, c.counts)


# the intensity tests read the oracle's intensities next to the package's
# counts: `_assert_generate_matches_oracle` pins those counts to the oracle's
def test_generate_intensities_sorted_descending():
    _, theta = oracle_generate(SynthConfig(dim=200, bins=10, change_rank=1, change_bin=5, seed=0))
    assert np.all(theta[:-1] >= theta[1:])


def test_generate_null_factor_changes_nothing_before_or_after():
    base = SynthConfig(dim=30, bins=24, change_rank=4, change_bin=12, factor=1.0, seed=3)
    boosted = SynthConfig(dim=30, bins=24, change_rank=4, change_bin=12, factor=6.0, seed=3)
    a = generate(base).counts
    b = generate(boosted).counts
    # same per-row substreams: every untouched row and the pre-change
    # segment of the changed row coincide
    assert np.array_equal(np.delete(a, 3, axis=0), np.delete(b, 3, axis=0))
    assert np.array_equal(a[3, :12], b[3, :12])


def test_generate_row_means_track_intensities():
    cfg = SynthConfig(dim=300, bins=60, change_rank=300, change_bin=35, factor=1.0, seed=21)
    _, theta = oracle_generate(cfg)
    means = generate(cfg).counts.mean(axis=1)
    bound = 4.0 * np.sqrt(np.maximum(theta, 1e-9) / cfg.bins)
    ok = np.abs(means - theta) <= np.maximum(bound, 0.2)
    assert ok.mean() > 0.95


def test_generate_change_row_mean_scales():
    cfg = SynthConfig(dim=1000, bins=60, change_rank=500, change_bin=35, factor=7.0, seed=2)
    theta = oracle_generate(cfg)[1][499]
    post = generate(cfg).counts[499, 35:]
    assert post.mean() == pytest.approx(7.0 * theta, abs=4.0 * np.sqrt(7.0 * theta / post.size))


def test_generate_intensity_quantiles_track_inverse_cdf():
    cfg = SynthConfig(dim=4000, bins=2, change_rank=1, change_bin=1, factor=1.0, seed=6)
    _, theta = oracle_generate(cfg)
    # sorted descending: rank r sits near the (1 - r/dim) quantile
    for rank, q in ((400, 0.9), (2000, 0.5)):
        expected = sample_pareto(q, cfg.pareto_shape, cfg.pareto_scale)
        assert theta[rank - 1] == pytest.approx(expected, rel=0.15)


def test_generate_validates_config():
    with pytest.raises(ValueError):
        SynthConfig(dim=10, change_rank=11)
    with pytest.raises(ValueError, match="^dim must be at least 0$"):
        SynthConfig(dim=-1)
    # a spawn key is one uint32 word, and the seed's words need a nonnegative integer
    with pytest.raises(ValueError):
        SynthConfig(dim=2**32)
    SynthConfig(dim=2**32 - 1)
    for seed in (-1, -(2**40), 1.0, "1", None):
        with pytest.raises(ValueError):
            SynthConfig(seed=seed)
    # every count field takes integers only, and names its bound
    for name, bad, message in (
        ("dim", True, "dim must be an integer"), ("dim", 10.5, "dim must be an integer"),
        ("bins", 40.0, "bins must be an integer"),
        ("change_bin", 3.5, "change_bin must be an integer"),
        ("change_rank", None, "change_rank must be an integer"),
        ("change_rank", 0, "change_rank must be at least 1"),
        ("change_rank", 1001, "change_rank must be at most 1000"),
        ("change_bin", 60, "change_bin must be at most 59"),
        ("seed", -1, "seed must be at least 0"), ("seed", 1.0, "seed must be an integer"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SynthConfig(**{name: bad})
    # any rank is in range without keys; a rank is still at least 1
    assert SynthConfig(dim=0).change_rank == 500
    with pytest.raises(ValueError, match="^change_rank must be at least 1$"):
        SynthConfig(dim=0, change_rank=0)
    numpy_seed = SynthConfig(dim=40, change_rank=3, seed=np.uint64(2**63 + 1))
    assert np.array_equal(generate(numpy_seed).counts, oracle_generate(numpy_seed)[0])
    # numpy integers are kept as Python ints, so arithmetic on a field cannot wrap
    narrow = SynthConfig(dim=np.uint8(255), bins=np.int8(20), change_rank=np.uint8(255),
                         change_bin=np.int16(10), seed=np.uint8(255))
    assert all(type(v) is int for v in (narrow.dim, narrow.bins, narrow.change_rank,
                                        narrow.change_bin, narrow.seed))
    assert generate(narrow).counts.shape == (255, 20)
    with pytest.raises(ValueError):
        SynthConfig(bins=10, change_bin=10)
    with pytest.raises(ValueError):
        SynthConfig(factor=0.0)
    with pytest.raises(ValueError):
        SynthConfig(pareto_shape=1.0)
    for bad in (float("nan"), float("inf")):
        for name in ("factor", "pareto_shape", "pareto_scale"):
            with pytest.raises(ValueError, match=name):
                SynthConfig(**{name: bad})


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**128 + 9, 10**40]


@pytest.mark.parametrize("seed", SEEDS)
def test_spawn_states_match_seed_sequence(seed):
    # fails if a NumPy release changes SeedSequence's pool or mixing
    children = np.random.SeedSequence(seed).spawn(41)
    expected = np.array([c.generate_state(4, np.uint64) for c in children[1:]])
    assert np.array_equal(_spawn_states(seed, 40), expected)
    assert _spawn_states(seed, 0).shape == (0, 4)


def _assert_generate_matches_oracle(cfg):
    counts = generate(cfg).counts
    y, _ = oracle_generate(cfg)
    assert counts.dtype == y.dtype and np.array_equal(counts, y)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim,bins,change_rank,change_bin,factor", [
    (0, 2, 1, 1, 7.0),
    (1, 2, 1, 1, 7.0),
    (2, 60, 1, 35, 7.0),
    (2, 2, 2, 1, 1.0),
    (37, 60, 1, 59, 3.0),
    (37, 2, 37, 1, 1.0),
    (1000, 60, 1, 35, 2.0),
    (1000, 60, 1000, 35, 1.0),
])
def test_generate_matches_per_row_seed_sequence_oracle(
    seed, dim, bins, change_rank, change_bin, factor
):
    _assert_generate_matches_oracle(SynthConfig(
        dim=dim, bins=bins, change_rank=change_rank, change_bin=change_bin, factor=factor,
        seed=seed,
    ))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generate_matches_oracle_on_random_configs(data):
    dim = data.draw(st.integers(0, 80))
    bins = data.draw(st.integers(2, 30))
    _assert_generate_matches_oracle(SynthConfig(
        dim=dim,
        bins=bins,
        change_rank=data.draw(st.integers(1, max(dim, 1))),
        change_bin=data.draw(st.integers(1, bins - 1)),
        factor=data.draw(st.sampled_from([1.0, 0.5, 7.0])),
        pareto_shape=data.draw(st.sampled_from([1.5, 2.5])),
        seed=data.draw(st.integers(0, 2**160)),
    ))


def test_generate_rejects_counts_beyond_the_counter_bound():
    # flow and dense counts stay below 2^32, which keeps build_sketch's int64 bucket
    # sums from wrapping; with 2 buckets the second config gave cells near -7.8e18
    for cfg in (SynthConfig(dim=50, change_rank=5, pareto_scale=1e-9),
                SynthConfig(dim=200, change_rank=5, factor=1.0, pareto_scale=5e-18)):
        with pytest.raises(ValueError, match=r"not below 2\^32"):
            generate(cfg)


def test_generate_batch_keys_are_ranks():
    cfg = SynthConfig(dim=25, bins=12, change_rank=2, change_bin=6, seed=9)
    batch = generate(cfg)
    assert (batch.window_index, batch.start_time) == (0, 0.0)
    assert np.array_equal(batch.keys, np.arange(1, 26))
    assert batch.bins == 12
    # all-zero rows stay: the dimension is part of the experiment
    assert not batch.counts.any(axis=1).all()


def test_generate_empty_batch():
    batch = generate(SynthConfig(dim=0, bins=8, change_bin=4, seed=0))
    assert batch.num_keys == 0
    assert batch.bins == 8


def test_dense_csv_round_trip():
    cfg = SynthConfig(dim=20, bins=10, change_rank=3, change_bin=5, factor=4.0, seed=13)
    batch = generate(cfg)
    buf = io.StringIO()
    write_dense_csv(batch, cfg, buf)
    text = buf.getvalue()
    assert text.startswith("# truth:i0=3,j0=5,eta=4\n")
    assert text.splitlines()[1] == "key,bin,count"
    read = read_dense_csv(io.StringIO(text), bins=10)
    # keys absent from the file are the all-zero rows
    alive = batch.counts.any(axis=1)
    assert np.array_equal(read.keys, batch.keys[alive])
    assert np.array_equal(read.counts, batch.counts[alive])


def test_dense_csv_sums_duplicate_lines_and_drops_zero_keys():
    # blank lines are skipped
    text = "key,bin,count\n7,2,3\n\n-4,1,0\n7,2,5\n  \n2,3,1\n7,1,1\n9,1,0\n-4,3,0\n"
    batch = read_dense_csv(io.StringIO(text), bins=3)
    assert batch.bins == 3
    assert batch.keys.tolist() == [2, 7]
    assert batch.counts.tolist() == [[0, 0, 1], [1, 8, 0]]
    empty = read_dense_csv(io.StringIO("key,bin,count\n"), bins=4)
    assert (empty.num_keys, empty.bins) == (0, 4)


def test_dense_csv_validation():
    with pytest.raises(ValueError):
        read_dense_csv(io.StringIO("bad header\n"), bins=10)
    with pytest.raises(ValueError):
        read_dense_csv(io.StringIO("key,bin,count\n1,0,5\n"), bins=10)
    with pytest.raises(ValueError):
        read_dense_csv(io.StringIO("key,bin,count\n1,12,5\n"), bins=10)
    with pytest.raises(ValueError, match="missing header"):
        read_dense_csv(io.StringIO("# a comment\n\n# truth:i0=1,j0=2,eta=3\n"), bins=10)


@pytest.mark.parametrize("row", ["1,2,100000000000000000000", "1,2,4294967296", "1,x,5", "1,2",
                                 "1,2,1e3", "99999999999999999999,2,5"])
def test_dense_csv_bad_numbers_name_their_line(row):
    with pytest.raises(ValueError, match="^line 3: "):
        read_dense_csv(io.StringIO(f"key,bin,count\n1,1,1\n{row}\n"), bins=10)


@pytest.mark.parametrize("comment", ["# truth:i0=1,j0=2,eta=3", "# truth:a=1", "# truth:garbage",
                                     "# truth:i0=1,j0=x,eta=2", "#1,2,3", "# key,bin,count"])
def test_dense_csv_comment_lines_hold_anything(comment):
    # the truth line is a comment like any other: the reader skips it
    text = "key,bin,count\n1,1,1\n4,2,3\n"
    want = read_dense_csv(io.StringIO(text), bins=10)
    for at in (0, len("key,bin,count\n"), len(text)):
        got = read_dense_csv(io.StringIO(f"{text[:at]}{comment}\n{text[at:]}"), bins=10)
        assert got.keys.tobytes() == want.keys.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()


def test_bins_beyond_two_to_the_21_rejected():
    # the rank kernel's int64 sums hold up to 2^21 bins; nothing here allocates them
    assert SynthConfig(bins=2**21, change_bin=1).bins == 2**21
    with pytest.raises(ValueError, match="^bins must be at most 2097152$"):
        SynthConfig(bins=2**21 + 1, change_bin=1)
    empty = read_dense_csv(io.StringIO("key,bin,count\n"), bins=2**21)
    assert empty.counts.shape == (0, 2**21)
    with pytest.raises(ValueError, match="^bins must be at least 2$"):
        read_dense_csv(io.StringIO("key,bin,count\n1,1,1\n"), bins=1)
    with pytest.raises(ValueError, match="^bins must be at most 2097152$"):
        read_dense_csv(io.StringIO("key,bin,count\n1,1,1\n"), bins=2**21 + 1)
