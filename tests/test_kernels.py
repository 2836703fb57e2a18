"""Kernel checks against independent references: the scalar `xorshift_step`
chain, a per-flip loop over the chaotic-iterations rounds, GF(2) matrix
powers computed in pure Python, and cell-by-cell elimination for ranks."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cimark
from cimark import kernels
from cimark.generator import ZERO_SEED_FALLBACK, CiGenerator, XorShift32, kth_bit_oracle
from cimark.gf2 import gf2_rank_many
from cimark.kernels import (
    _xs_columns,
    ci_fill,
    xorshift_fill,
    xorshift_step,
)
from gf2_oracle import mat_pow_gf2, naive_rank

seeds = st.integers(min_value=1, max_value=2**32 - 1)
# lengths around the doubling boundaries of the fill's T^32 chain, around
# the 32-word edges of that chain, and around multiples of the 32 *
# _READ_BLOCK words of one block of its table read
_READ = 32 * kernels._READ_BLOCK
edge_lengths = sorted(
    {0, 1}
    | {(1 << k) + d for k in range(1, 19) for d in (-1, 0, 1)}
    | {32 * j + d for j in (1, 2, 3, 3001) for d in (-1, 0, 1)}
    | {_READ * j + d for j in (1, 2, 3) for d in (-1, 0, 1)})


def scalar_chain(state, n):
    out = []
    for _ in range(n):
        state = xorshift_step(state)
        out.append(state)
    return np.array(out, dtype=np.uint32)


def test_xorshift_fallback_matches_scalar():
    out, end = xorshift_fill(314159, 5000)
    x = 314159
    for i in range(5000):
        x = xorshift_step(x)
        assert out[i] == x
    assert end == x


def test_xorshift_paths_agree():
    """xorshift_fill equals the scalar chain at every doubling, 32-word and
    read-block edge."""
    ref = scalar_chain(0xCAFEBABE, edge_lengths[-1])
    for n in edge_lengths:
        words, end = xorshift_fill(0xCAFEBABE, n)
        assert np.array_equal(words, ref[:n]), n
        assert end == (int(ref[n - 1]) if n else 0xCAFEBABE)


@settings(max_examples=15, deadline=None)
@given(seed=seeds,
       sizes=st.lists(st.integers(min_value=0, max_value=300_000), min_size=1, max_size=3))
def test_xorshift_fill_resumes_like_scalar(seed, sizes):
    ref = scalar_chain(seed, sum(sizes))
    state, pos = seed, 0
    for n in sizes:
        words, state = xorshift_fill(state, n)
        assert np.array_equal(words, ref[pos:pos + n])
        pos += n
    assert state == (int(ref[-1]) if pos else seed)


@pytest.mark.parametrize("n", [-1, -3])
def test_xorshift_fill_rejects_negative_length(n):
    """A negative length used to fail inside numpy ("negative dimensions are
    not allowed"); it is refused by name, through XorShift32.fill too, which
    keeps its state."""
    with pytest.raises(ValueError, match=f"n must be at least 0, got {n}"):
        xorshift_fill(1, n)
    src = XorShift32(7)
    with pytest.raises(ValueError, match=f"n must be at least 0, got {n}"):
        src.fill(n)
    assert src.word == 7


def test_xorshift_fill_memory_bounded():
    """Beyond its 16 MB output, a 2^22-word fill needs its T^32 chain
    (512 KiB) and one read block's table lookups: 1.26 MiB traced."""
    tracemalloc.start()
    try:
        out, _ = xorshift_fill(0x9E3779B9, 1 << 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 4 * 2**20


def reference_rounds(x0, s1, s2, c, rounds):
    """Per-flip reference: each round draws m = (w & 1) + c from the scalar
    chain of s1, flips the m cells w mod N drawn from the chain of s2 and
    emits the state. Returns the (rounds, N) states, the final state and
    both chains' last words."""
    x, a, b = [int(v) for v in x0], s1, s2
    states = []
    for _ in range(rounds):
        a = xorshift_step(a)
        for _ in range((a & 1) + c):
            b = xorshift_step(b)
            x[b % len(x)] ^= 1
        states.append(list(x))
    return np.array(states, dtype=np.uint8).reshape(rounds, len(x)), x, a, b


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 5, 24, 31, 32, 33, 64, 65, 130]),
       c_scale=st.sampled_from([None, 1, 2]),
       rounds=st.integers(min_value=0, max_value=40),
       s1=seeds, s2=seeds,
       chunk=st.sampled_from([1 << 6, 1 << 7, 1 << 8, 1 << 9]),
       block=st.sampled_from([None, 1, 4, 8, 32]),
       data=st.data())
def test_ci_fill_paths_agree(n, c_scale, rounds, s1, s2, chunk, block, data):
    """ci_fill equals round-by-round iteration driven by scalar chains,
    across many chunk boundaries of the numpy kernel (rounds straddle them,
    and the lane starts are carried over them), and with blocks of length
    bits (a power of two rounds) that end inside a 32-round slice and
    inside a chunk."""
    c = 3 * n if c_scale is None else c_scale
    x0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                  dtype=np.uint8)
    expected, x_end, a_end, b_end = reference_rounds(x0, s1, s2, c, rounds)

    xbits = x0.copy()
    with mock.patch.multiple(kernels, _CHUNK_FLIPS=chunk,
                             _LENGTH_BLOCK=block or kernels._LENGTH_BLOCK):
        out, a, b = ci_fill(xbits, s1, s2, c, rounds)
    assert out.dtype == np.uint8 and out.shape == (rounds + 1, -(-n // 8))
    assert np.array_equal(out, np.packbits(np.vstack([x0, expected]), axis=1))
    assert np.array_equal(np.unpackbits(out[-1], count=n), x_end)
    assert np.array_equal(xbits, x0)
    assert (a, b) == (a_end, b_end)


def test_ci_fill_lane_path_matches_rounds():
    """With the module's own chunk, a call of two chunks, with a
    round that straddles their boundary, two blocks of length bits (8,192
    rounds each, the second partly used) and a final flip in a partly used
    lane of the second chunk, equals round-by-round iteration."""
    n, c, s1, s2 = 32, 96, 0x13579BDF, 0x2468ACE0
    chunk = kernels._CHUNK_FLIPS
    rounds = chunk // (c + 1) + 700
    ends = np.cumsum((scalar_chain(s1, rounds).astype(np.int64) & 1) + c)
    assert chunk < ends[-1] < 2 * chunk and ends[-1] % 32
    assert chunk not in ends  # no round ends on the boundary
    x0 = np.arange(n, dtype=np.uint8) % 3 % 2
    expected, x_end, a_end, b_end = reference_rounds(x0, s1, s2, c, rounds)
    xbits = x0.copy()
    with mock.patch.object(kernels, "_LENGTH_BLOCK", 1 << 13), \
            mock.patch.object(kernels, "_low_bit_rows", wraps=kernels._low_bit_rows) as draw:
        out, a, b = ci_fill(xbits, s1, s2, c, rounds)
    assert draw.call_count == 2 and rounds % (1 << 13)
    assert np.array_equal(out, np.packbits(np.vstack([x0, expected]), axis=1))
    assert np.array_equal(xbits, x0)
    assert (a, b) == (a_end, b_end)


def test_ci_fill_carries_the_length_chain():
    """A call of 3 whole blocks of length bits and part of a fourth, with the
    module's own block, equals round-by-round iteration; the chain of length
    words is filled by doubling once and jumped from block to block, and the
    chain of strategy words (the first chunk's lane starts) is filled once."""
    n, c, s1, s2 = 8, 1, 0x2545F491, 0x9E3779B9
    rounds = 3 * kernels._LENGTH_BLOCK + 1000
    x0 = np.arange(n, dtype=np.uint8) % 2
    expected, x_end, a_end, b_end = reference_rounds(x0, s1, s2, c, rounds)
    xbits = x0.copy()
    with mock.patch.object(kernels, "_length_chain", wraps=kernels._length_chain) as fill, \
            mock.patch.object(kernels, "_low_bit_rows", wraps=kernels._low_bit_rows) as draw:
        out, a, b = ci_fill(xbits, s1, s2, c, rounds)
    assert sorted(call.args[0] for call in fill.call_args_list) == sorted([s1, s2])
    assert draw.call_count == 4
    assert np.array_equal(out, np.packbits(np.vstack([x0, expected]), axis=1))
    assert (a, b) == (a_end, b_end)


def test_ci_fill_lane_starts_are_chain_words():
    """Lane q of chunk j starts at strategy word j * F + 32q, the lane's
    first word: the starts that _flip_prefix takes are every 32nd word of
    the stream of s2 from the chunk's first, in the first chunk (filled by
    doubling) and in the chunks it jumps to."""
    seen, prefix = [], kernels._flip_prefix

    def spy(starts, *rest):
        seen.append(starts.copy())  # starts is overwritten by the next jump
        return prefix(starts, *rest)

    s2, chunk = 0x2468ACE0, 1 << 10
    with mock.patch.object(kernels, "_CHUNK_FLIPS", chunk), \
            mock.patch.object(kernels, "_flip_prefix", spy):
        ci_fill(np.ones(32, dtype=np.uint8), 0x13579BDF, s2, 3, 1000)
    words, _ = xorshift_fill(s2, chunk * len(seen))
    assert len(seen) > 2 and seen[0].size == chunk // 32
    for j, starts in enumerate(seen):
        assert np.array_equal(starts, words[j * chunk::32][:starts.size]), j


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 33, 63, 65])
def test_ci_fill_cell_reductions(n):
    """ci_fill equals round-by-round iteration at every power of two N up to
    128, whose cells are masked rather than divided, and at N = 33, 63 and
    65, whose masks in state words w >= 1 shift by the cell less 32w. In
    chunks of 128 flips or fewer, the 300 rounds of 3 or 4 flips cross at
    least 8 chunk boundaries."""
    c, s1, s2, rounds = 3, 0x9E3779B9 ^ n, 0x7F4A7C15 + n, 300
    x0 = (np.arange(n) * 7 % 5 % 2).astype(np.uint8)
    expected, x_end, a_end, b_end = reference_rounds(x0, s1, s2, c, rounds)
    xbits = x0.copy()
    with mock.patch.object(kernels, "_CHUNK_FLIPS", 1 << 7):
        out, a, b = ci_fill(xbits, s1, s2, c, rounds)
    assert np.array_equal(out, np.packbits(np.vstack([x0, expected]), axis=1))
    assert np.array_equal(xbits, x0)
    assert (a, b) == (a_end, b_end)


@pytest.mark.parametrize("n", [24, 32, 33, 65])
def test_ci_fill_rounds_span_chunks(n):
    """With c = 150 and chunks of 2^6 flips (fewer at N = 33 and 65, whose
    states take 2 and 3 words), every round spans several chunks, and some
    chunks hold no round's last flip; ci_fill still equals round-by-round
    iteration, and returns both chains' last words."""
    c, s1, s2, rounds = 150, 0x0BADF00D + n, 0xFEEDFACE ^ n, 12
    x0 = (np.arange(n) * 5 % 3 % 2).astype(np.uint8)
    expected, x_end, a_end, b_end = reference_rounds(x0, s1, s2, c, rounds)
    xbits = x0.copy()
    with mock.patch.object(kernels, "_CHUNK_FLIPS", 1 << 6):
        out, a, b = ci_fill(xbits, s1, s2, c, rounds)
    assert np.array_equal(out, np.packbits(np.vstack([x0, expected]), axis=1))
    assert np.array_equal(xbits, x0)
    assert (a, b) == (a_end, b_end)


def test_kth_bit_oracle_at_n16():
    """At N = 16 the stream, drawn through the masked cell reduction, equals
    the oracle's own `%` reduction of the strategy words."""
    def fresh():
        return CiGenerator.from_seeds(0x2468ACE0, 0x13579BDF, n_cells=16)

    ks = np.arange(0, 20_000, 7)
    assert np.array_equal(kth_bit_oracle(fresh, ks), fresh().bits(20_000)[ks])


@pytest.mark.parametrize("c", [0, -1])
def test_ci_fill_rejects_c_below_one(c):
    """A round must flip at least one cell: each round's state is gathered
    at its last flip."""
    xbits = np.ones(8, dtype=np.uint8)
    with pytest.raises(ValueError, match="c must be at least 1"):
        ci_fill(xbits, 1, 2, c, 4)
    assert xbits.all()


@pytest.mark.parametrize("rounds", [-1, -5])
def test_ci_fill_rejects_negative_rounds(rounds):
    """A negative round count used to fail inside numpy (an IndexError at
    -1, "negative dimensions" at -5); it is refused by name."""
    with pytest.raises(ValueError, match=f"rounds must be at least 0, got {rounds}"):
        ci_fill(np.ones(8, dtype=np.uint8), 1, 2, 3, rounds)


@pytest.mark.parametrize("c, rounds", [(2**62, 2), (2**63 - 1, 1), (10**20, 1)])
def test_ci_fill_rejects_flip_count_past_int64(monkeypatch, c, rounds):
    """rounds * (c + 1) flips must be countable in int64; the check comes
    before any strategy word or length bit is drawn, by any of the draws."""
    def no_draw(*a, **kw):
        raise AssertionError("drew words before checking the flip count")

    for draw in ("xorshift_fill", "_length_chain", "_low_bit_rows"):
        monkeypatch.setattr(kernels, draw, no_draw)
    with pytest.raises(ValueError, match="overflow the int64 flip count"):
        ci_fill(np.ones(8, dtype=np.uint8), 1, 2, c, rounds)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 5, 24, 32, 65]),
       a=st.integers(min_value=0, max_value=3000),
       b=st.integers(min_value=0, max_value=3000),
       first=st.sampled_from(["bits", "words"]),
       s1=seeds, s2=seeds)
def test_bits_split_equals_whole(n, a, b, first, s1, s2):
    """A bits or words call followed by bits(b) equals the matching
    slice of one bits stream: at N = 24 and 32 the second call starts on
    and off a byte boundary of x, at N = 2, 5 and 65 states straddle bytes."""
    with mock.patch.object(kernels, "_CHUNK_FLIPS", 1 << 8):
        g1 = CiGenerator.from_seeds(s1, s2, n_cells=n)
        g2 = CiGenerator.from_seeds(s1, s2, n_cells=n)
        if first == "bits":
            lead = g1.bits(a)
        else:
            lead = np.unpackbits(g1.words(a // 32).astype(">u4").view(np.uint8))
        split = np.concatenate([lead, g1.bits(b)])
        assert np.array_equal(split, g2.bits(split.size))


def test_ci_fill_memory_bounded():
    """Working memory beyond the (rounds + 1) * N/8 output stays within one chunk's
    arrays for any stream length and any c: the 4 MiB prefix buffer of
    2^20 uint32 flip masks, three lane rows of 2^15 words (the lane starts,
    and the stepped strategy words or the lane totals), and one block of
    2^14 rounds' length bits and int64 last flips (128 KiB). Both cases run
    about 30M flips: 300k words, and three rounds that each span about ten
    chunks."""
    for c, rounds in ((96, 300_000), (10**7, 3)):
        tracemalloc.start()
        try:
            out, _, _ = ci_fill(np.ones(32, dtype=np.uint8), 123, 456, c, rounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == (rounds + 1) * 4
        assert peak - out.nbytes < 6 * 2**20, c


def test_xorshift_full_period():
    """T^(2^32-1) = I and T^((2^32-1)/p) != I for each prime p of 2^32-1,
    so every nonzero seed lies on one cycle of length 2^32-1."""
    order = 2**32 - 1
    cols = _xs_columns()
    identity = [1 << j for j in range(32)]
    assert mat_pow_gf2(cols, order) == identity
    for p in (3, 5, 17, 257, 65537):
        assert order % p == 0
        assert mat_pow_gf2(cols, order // p) != identity


def test_jump_tables_match_matrix_powers():
    """Level k of the jump cache is T^(2^k), including every level k + 5
    that doubles the T^32 chain of a fill of up to 2^22 words by
    (T^32)^(2^k)."""
    tabs = [kernels._jump_table(k) for k in range(25)]
    cols = _xs_columns()
    chain_levels = range(5, 5 + ((1 << 22) // 32 - 1).bit_length())
    chunk_level = kernels._CHUNK_FLIPS.bit_length() - 1  # carries ci_fill's lane starts
    for k in sorted({0, 1, 2, 6, 7, 12, 16, 18, 24, chunk_level} | set(chain_levels)):
        expected = mat_pow_gf2(cols, 1 << k)
        got = [int(tabs[k][j // 8, 1 << (j % 8)]) for j in range(32)]
        assert got == expected, k


def test_low_bit_table_reads_32_low_bits():
    """Column t of the image of each basis word 2^j under E_b is the low b
    bits of T^t(2^j), for t = 0..31, stepped with the scalar round; at b = 1,
    5, 12, 16, 17, 31 and 32, in uint8 tables up to b = 8, uint16 up to 16
    and uint32 past it."""
    for b in (1, 5, 12, 16, 17, 31, 32):
        tab = kernels._low_bit_tables(b)
        assert tab.shape == (4, 256, 32)
        assert tab.dtype == low_bits_dtype(b)
        for j in range(32):
            w, expected = 1 << j, []
            for t in range(32):
                expected.append(w & ((1 << b) - 1))
                w = xorshift_step(w)
            assert tab[j // 8, 1 << (j % 8)].tolist() == expected, (b, j)


def low_bits_dtype(b):
    return np.uint8 if b <= 8 else np.uint16 if b <= 16 else np.uint32


def test_low_bits_match_scalar_chain():
    """The low b bits, for every b from 0 to 32, are those of the scalar
    chain, for draws that end on, before and after a 32-word slice, past
    one block of the table read, and from the all-ones word and the
    zero-seed fallback."""
    sizes = (1, 2, 31, 32, 33, 63, 64, 65, 5_405, 1 << 14, (1 << 16) + 5, _READ + 33)
    for state in (1, 0xFFFFFFFF, ZERO_SEED_FALLBACK):
        ref = scalar_chain(state, sizes[-1])
        for n in sizes:
            z = kernels._length_chain(state, n)
            for b in range(33):
                rows = kernels._low_bit_rows(z, b)
                assert rows.shape == (len(z), 32)
                bits = rows.reshape(-1)[:n]
                assert bits.size == n and bits.dtype == low_bits_dtype(b)
                assert np.array_equal(bits, ref[:n] & ((1 << b) - 1)), (state, n, b)


def deficient_batch(rng, count, nrows, ncols, weights):
    """Random packed matrices whose rows are each, by `weights`, random,
    zero, a repeat of an earlier row or the XOR of two earlier rows."""
    mats = rng.integers(0, 1 << ncols, size=(count, nrows), dtype=np.uint64)
    kinds = rng.choice(4, size=(count, nrows), p=np.asarray(weights) / sum(weights))
    for k, i in zip(*np.nonzero(kinds)):
        if kinds[k, i] == 1 or i == 0:
            mats[k, i] = 0
        elif kinds[k, i] == 2:
            mats[k, i] = mats[k, rng.integers(i)]
        else:
            mats[k, i] = mats[k, rng.integers(i)] ^ mats[k, rng.integers(i)]
    return mats


@settings(max_examples=60, deadline=None)
@given(nrows=st.integers(1, 40),
       ncols=st.one_of(st.sampled_from([31, 32, 33, 64]), st.integers(1, 64)),
       count=st.sampled_from([1, 2, 9, 300]),
       weights=st.tuples(*[st.integers(0, 4)] * 3).map(lambda w: (1,) + w),
       narrow=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(nrows=32, ncols=32, count=300, weights=(1, 0, 0, 0), narrow=True, seed=1)
@example(nrows=31, ncols=31, count=300, weights=(3, 1, 1, 1), narrow=False, seed=2)
@example(nrows=40, ncols=33, count=300, weights=(1, 0, 0, 0), narrow=True, seed=3)
@example(nrows=40, ncols=33, count=300, weights=(2, 1, 1, 1), narrow=False, seed=6)
@example(nrows=6, ncols=8, count=1, weights=(1, 0, 0, 0), narrow=True, seed=4)
@example(nrows=40, ncols=64, count=1, weights=(1, 1, 1, 4), narrow=False, seed=5)
@example(nrows=20, ncols=16, count=300, weights=(1, 0, 0, 0), narrow=True, seed=7)
@example(nrows=20, ncols=17, count=300, weights=(2, 1, 1, 1), narrow=True, seed=8)
@example(nrows=12, ncols=9, count=300, weights=(2, 1, 1, 1), narrow=False, seed=9)
def test_rank_matches_oracle(nrows, ncols, count, weights, narrow, seed):
    """gf2_rank_many equals cell-by-cell elimination on either side of the
    dtype switches at 8, 16 and 32 columns, for uint32 and uint64 input,
    full-rank and rank-deficient batches, and leaves its input untouched."""
    mats = deficient_batch(np.random.default_rng(seed), count, nrows, ncols, weights)
    if narrow and ncols <= 32:
        mats = mats.astype(np.uint32)
    snapshot = mats.copy()
    cells = (mats[..., None] >> np.arange(ncols, dtype=mats.dtype)) & 1
    expected = [naive_rank(m) for m in cells]
    ranks = gf2_rank_many(mats, nrows, ncols)
    assert ranks.dtype == np.int64
    assert ranks.tolist() == expected
    assert np.array_equal(mats, snapshot) and mats.dtype == snapshot.dtype


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
@pytest.mark.parametrize("ncols", [8, 31, 33])
def test_rank_ignores_bits_above_ncols(dtype, ncols):
    """Bits at and above ncols are not columns: a batch with random bits
    there has the ranks of the same batch masked to ncols bits."""
    width = 8 * np.dtype(dtype).itemsize
    rng = np.random.default_rng(ncols * width)
    mats = rng.integers(0, 2**width, size=(500, ncols), dtype=dtype)
    masked = mats & dtype((1 << min(ncols, width)) - 1)
    if ncols < width:
        assert (mats != masked).any()
    expected = gf2_rank_many(masked, ncols, ncols)
    assert np.array_equal(gf2_rank_many(mats, ncols, ncols), expected)


def test_numba_flag_reported():
    """No compiled kernels exist; the exported flag says so."""
    assert cimark.NUMBA_ENABLED is False
