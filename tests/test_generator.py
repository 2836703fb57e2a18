import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from cimark.generator import (
    CiGenerator,
    XorShift32,
    ZERO_SEED_FALLBACK,
    chaotic_iterate,
    derive_initial_state,
    kth_bit_oracle,
    seed_from_time,
    seed_word,
    vector_negation,
)
from cimark.kernels import _apply_tables, _jump_table, xorshift_fill, xorshift_step

# Reference worked example: N=5, chunk lengths m = 4, 5, 4 and the flip
# targets below, initial state 10100; the output starts with the seed state.
EXAMPLE_X0 = (1, 0, 1, 0, 0)
EXAMPLE_S = (2, 4, 2, 2, 5, 1, 1, 5, 5, 3, 2, 3, 3)
EXAMPLE_READS = (0, 4, 9, 13)
EXAMPLE_OUTPUT = "10100111101111110011"
EXAMPLE_SEEDS = (0xABCD1234, 0x5678EF01)


def example_states():
    return chaotic_iterate(EXAMPLE_X0, vector_negation, EXAMPLE_S, len(EXAMPLE_S))


def seeded_example(emit_seed_first=True):
    """The worked example's x^0 with seeded length and strategy sources."""
    return CiGenerator(EXAMPLE_X0, *EXAMPLE_SEEDS, emit_seed_first=emit_seed_first)


def as_text(bits):
    return "".join(map(str, bits))


class TestXorShift:
    def test_hand_traced_round_from_one(self):
        # 1 -> 1^(1<<13)=0x2001; >>17 contributes 0; ^(0x2001<<5) -> 0x42021
        assert xorshift_step(1) == 270369
        assert xorshift_step(1) == 0x00042021

    def test_composition(self):
        assert xorshift_step(xorshift_step(1)) == xorshift_step(270369)

    def test_zero_is_fixed_point_and_rejected(self):
        assert xorshift_step(0) == 0
        assert seed_word(0) == ZERO_SEED_FALLBACK
        assert XorShift32(0).word == ZERO_SEED_FALLBACK

    def test_seed_passthrough(self):
        assert seed_word(7) == 7
        assert seed_word(0xFFFFFFFF) == 0xFFFFFFFF
        assert XorShift32(7).word == 7

    def test_fill_matches_scalar_steps(self):
        g = XorShift32(12345)
        words = g.fill(1000)
        x = 12345
        for i in range(1000):
            x = xorshift_step(x)
            assert words[i] == x
        assert g.word == x

    def test_fill_resumes(self):
        a = XorShift32(99)
        b = XorShift32(99)
        w = a.fill(100)
        u = np.concatenate([b.fill(37), b.fill(63)])
        assert np.array_equal(w, u)

    def test_injectivity_on_distinct_seeds(self):
        """cimark's shift-XOR round (the level-0 jump table) maps a million
        distinct seeds to a million distinct words."""
        rng = np.random.default_rng(0)
        seeds = np.unique(rng.integers(1, 2**32, size=1_200_000, dtype=np.uint64))
        seeds = seeds[:1_000_000].astype(np.uint32)
        x = np.empty_like(seeds)
        _apply_tables(_jump_table(0), seeds, x)
        assert np.unique(x).size == seeds.size


class TestVectorNegation:
    def test_complement(self):
        out = vector_negation((1, 0, 1, 0, 0))
        assert np.array_equal(out, [0, 1, 0, 1, 1])

    def test_involution(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=64, dtype=np.uint8)
        assert np.array_equal(vector_negation(vector_negation(x)), x)

    def test_all_zeros(self):
        assert np.array_equal(vector_negation(np.zeros(9, np.uint8)), np.ones(9))


class TestChaoticIterate:
    def test_worked_example_first_chunk(self):
        states = chaotic_iterate(EXAMPLE_X0, vector_negation, (2, 4, 2, 2), 4)
        assert np.array_equal(states[4], [1, 1, 1, 1, 0])

    def test_zero_steps(self):
        states = chaotic_iterate((1, 0, 1), vector_negation, (), 0)
        assert len(states) == 1
        assert np.array_equal(states[0], [1, 0, 1])

    def test_double_hit_restores(self):
        states = chaotic_iterate((0, 1, 1), vector_negation, (1, 1), 2)
        assert np.array_equal(states[2], states[0])

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            chaotic_iterate((1, 0, 1), vector_negation, (4,), 1)
        with pytest.raises(ValueError):
            chaotic_iterate((1, 0, 1), vector_negation, (0,), 1)

    def test_equals_production_round(self):
        # formal definition vs the seeded generator on random small systems:
        # the strategy is the generator's own draws, cell w mod N (1-based)
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            c = int(rng.integers(1, 40))
            s1, s2 = (int(v) for v in rng.integers(1, 2**32, size=2))
            x0 = rng.integers(0, 2, size=n, dtype=np.uint8)
            m = (xorshift_step(s1) & 1) + c
            strat = XorShift32(s2).fill(m) % n + 1
            ref = chaotic_iterate(x0, vector_negation, strat, m)[-1]
            assert np.array_equal(CiGenerator(x0, s1, s2, c=c).bits(n), ref)


class TestWorkedExample:
    def test_output_string(self):
        states = example_states()
        assert as_text(np.concatenate([states[t] for t in EXAMPLE_READS])) == EXAMPLE_OUTPUT

    def test_intermediate_states(self):
        states = example_states()
        assert np.array_equal(states[4], [1, 1, 1, 1, 0])
        assert np.array_equal(states[9], [1, 1, 1, 1, 1])
        assert np.array_equal(states[13], [1, 0, 0, 1, 1])

    # the bits API on the worked example's x^0, which emit_seed_first
    # hands out before the first round

    def test_prefix_property(self):
        a = seeded_example().bits(7)
        b = seeded_example().bits(20)[:7]
        assert np.array_equal(a, b)

    def test_zero_bits(self):
        g = seeded_example()
        assert g.bits(0).size == 0
        assert as_text(g.bits(5)) == EXAMPLE_OUTPUT[:5]

    def test_contiguous_calls(self):
        g = seeded_example()
        joined = np.concatenate([g.bits(3), g.bits(9), g.bits(8)])
        assert as_text(joined[:5]) == EXAMPLE_OUTPUT[:5]
        assert np.array_equal(joined, seeded_example().bits(20))

    def test_seed_not_emitted_by_default(self):
        # emit_seed_first: x^0 followed by the default stream
        for n, k in [(5, 0), (5, 37), (24, 100), (32, 64)]:
            x0 = derive_initial_state(9, 10, n)
            first = CiGenerator(x0, 9, 10, emit_seed_first=True).bits(n + k)
            assert np.array_equal(first, np.concatenate([x0, CiGenerator(x0, 9, 10).bits(k)]))


class TestSeedFromTime:
    def test_reference_timestamp(self):
        assert np.array_equal(seed_from_time(484084, 5), [1, 0, 1, 0, 0])

    def test_zero(self):
        assert np.array_equal(seed_from_time(0, 5), np.zeros(5))

    def test_wraparound(self):
        assert np.array_equal(seed_from_time(2**5, 5), np.zeros(5))
        assert np.array_equal(seed_from_time(2**5 + 3, 5), [0, 0, 0, 1, 1])

    @pytest.mark.parametrize("n", [-5, 0, 1])
    def test_too_few_cells(self, n):
        # refused before 1 << n, which raises on a negative n
        with pytest.raises(ValueError, match="state must be a 1-D vector of >= 2 cells"):
            seed_from_time(7, n)


class TestCiGenerator:
    def test_determinism(self):
        a = CiGenerator.from_seeds(7, 11).words(1024)
        b = CiGenerator.from_seeds(7, 11).words(1024)
        assert np.array_equal(a, b)

    def test_clone_evolves_identically(self):
        g = CiGenerator.from_seeds(5, 6)
        g.bits(333)
        h = g.clone()
        assert np.array_equal(g.bits(500), h.bits(500))

    def test_m_in_c_c_plus_one(self):
        # at c = 1 a round flips one cell or two, so consecutive states
        # differ in at most 2 cells, in exactly 1 when m = 1 is drawn
        g = CiGenerator.from_seeds(1, 2, n_cells=16, c=1)
        x0 = g.x.copy()
        m = (xorshift_fill(g.s1, 200)[0] & 1) + 1
        states = g.bits(200 * 16).reshape(200, 16)
        dist = (states ^ np.vstack([x0, states[:-1]])).sum(axis=1)
        assert set(dist[m == 1].tolist()) == {1}
        assert set(dist[m == 2].tolist()) == {0, 2}

    @pytest.mark.parametrize("x0", [[2, 0, 1, 1, 0], [0, 1, -1], [0.5, 1, 0],
                                    [1], [[0, 1], [1, 0]]])
    def test_refuses_states_not_of_bits(self, x0):
        """A cell other than 0 or 1 would be emitted as its low bit while
        kth_bit_oracle returns the cell itself: refused, like a state that
        is not a 1-D vector of at least two cells."""
        with pytest.raises(ValueError):
            CiGenerator(x0, 1, 2, emit_seed_first=True)

    @pytest.mark.parametrize("n_cells", [1, 0, -5, -40])
    def test_refuses_fewer_than_two_cells(self, n_cells):
        """Every count below 2, negative ones included, gets the state rule,
        not an error from inside np.unpackbits."""
        with pytest.raises(ValueError, match=">= 2 cells"):
            CiGenerator.from_seeds(1, 2, n_cells=n_cells)

    @pytest.mark.parametrize("seed", [2.5, math.nan, "7"])
    def test_refuses_seed_not_whole(self, monkeypatch, seed):
        """A fractional, NaN or string seed used to fail inside _rotl32 or
        numpy with a TypeError; seed_word, XorShift32 and CiGenerator refuse
        it by name before any draw."""
        import cimark.generator as gen

        def no_draw(*a, **kw):
            raise AssertionError("drew words before checking the seed")

        monkeypatch.setattr(gen, "xorshift_fill", no_draw)
        monkeypatch.setattr(gen, "ci_fill", no_draw)
        message = re.escape(f"seed must be a whole number, got {seed!r}")  # "7" quoted
        with pytest.raises(ValueError, match=message):
            seed_word(seed)
        with pytest.raises(ValueError, match=message):
            XorShift32(seed)
        for name, seeds in (("seed1", (seed, 2)), ("seed2", (1, seed))):
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                CiGenerator.from_seeds(*seeds)
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                CiGenerator(EXAMPLE_X0, *seeds)

    def test_whole_seeds_equal_their_ints(self):
        """np.float64(3.0), True and numpy integers seed as their ints."""
        assert seed_word(np.float64(3.0)) == seed_word(3) == 3
        assert seed_word(True) == 1 and seed_word(np.int64(-1)) == 0xFFFFFFFF
        assert type(seed_word(np.uint32(7))) is int
        assert np.array_equal(XorShift32(np.float64(3.0)).fill(8), XorShift32(3).fill(8))
        assert np.array_equal(CiGenerator.from_seeds(np.float64(3.0), True).words(4),
                              CiGenerator.from_seeds(3, 1).words(4))

    @pytest.mark.parametrize("c, message", [(0, "c must be positive"),
                                            (-1, "c must be positive"),
                                            (0.5, "c must be a whole number, got 0.5"),
                                            (2.7, "c must be a whole number, got 2.7")])
    def test_refuses_c_not_a_positive_whole_number(self, c, message):
        """A fractional c used to be truncated, so c = 2.7 ran as c = 2."""
        with pytest.raises(ValueError, match=re.escape(message)):
            CiGenerator.from_seeds(1, 2, c=c)

    @pytest.mark.parametrize("c", [2**63 - 1, 2**63, 10**20, 10**400])
    def test_refuses_c_past_int64_flip_count(self, c):
        """A c whose c + 1 flips cannot be counted in int64 used to fail
        with OverflowError: from float(c) at 10**400, on the first draw at
        2**63."""
        with pytest.raises(ValueError, match=re.escape(f"c = {c} is too large")):
            CiGenerator.from_seeds(1, 2, c=c)

    def test_accepts_largest_countable_c(self):
        assert CiGenerator.from_seeds(1, 2, c=2**63 - 2).c == 2**63 - 2

    @pytest.mark.parametrize("n_cells, c, digest", [
        (24, None, "bb41652045149e19b0ce7259a8e865a6025a0639b978f9a248c1430e41068bd9"),
        (32, 1, "769254929b9aeb5d950d2fc7416073da3da9d6c8c70363912bc9a009df39f7b8"),
    ])
    def test_stream_digest_pinned(self, n_cells, c, digest):
        """sha256 of 62,500 big-endian words: integer arithmetic only, so the
        digests hold on any host. At N = 24, c = 72, rounds do not align
        with words; at c = 1 every round's length bit decides between 1 and
        2 flips."""
        g = CiGenerator.from_seeds(0x2468ACE0, 0x13579BDF, n_cells=n_cells, c=c)
        words = g.words(62_500).astype(">u4")
        assert hashlib.sha256(words.tobytes()).hexdigest() == digest

    def test_default_c_follows_recommendation(self):
        g = CiGenerator.from_seeds(1, 2, n_cells=32)
        assert g.c == 96

    def test_seed_sensitivity(self):
        # one flipped seed bit decorrelates the streams to ~50% agreement
        a = CiGenerator.from_seeds(0x12345678, 0x9ABCDEF0).bits(10_000)
        b = CiGenerator.from_seeds(0x12345678, 0x9ABCDEF1).bits(10_000)
        agree = float((a == b).mean())
        assert 0.40 <= agree <= 0.60

    def test_state_delta_is_invariant(self):
        # flipping one bit of x^0 shifts every emitted chunk by exactly that
        # bit: the negation update preserves the XOR difference, so agreement
        # is exactly 1 - 1/N (not ~50%).
        x0 = derive_initial_state(77, 88, 32)
        x1 = x0.copy()
        x1[13] ^= 1
        a = CiGenerator(x0, 77, 88).bits(9984)
        b = CiGenerator(x1, 77, 88).bits(9984)
        agree = float((a == b).mean())
        assert agree == pytest.approx(1 - 1 / 32, abs=1e-12)

    def test_words_are_packed_bits(self):
        g = CiGenerator.from_seeds(3, 4)
        h = CiGenerator.from_seeds(3, 4)
        words = g.words(10)
        bits = h.bits(320)
        expected = np.frombuffer(np.packbits(bits).tobytes(), dtype=">u4")
        assert np.array_equal(words, expected.astype(np.uint32))

    @pytest.mark.parametrize("n_cells", [24, 32])
    def test_carried_tail_owns_little_memory(self, n_cells):
        # 6.4M bits; 24-cell rounds leave 16 unread bits at the end of x,
        # 32-cell rounds none
        g = CiGenerator.from_seeds(0xDEADBEEF, 0xC0FFEE11, n_cells=n_cells)
        g.words(200_000)
        assert g._unread == -6_400_000 % n_cells < n_cells
        ref = CiGenerator.from_seeds(0xDEADBEEF, 0xC0FFEE11, n_cells=n_cells)
        ref.bits(6_400_000)
        assert np.array_equal(g.bits(100), ref.bits(100))

    @pytest.mark.parametrize("n_cells, lead", [
        pytest.param(24, 0, id="24"), pytest.param(32, 0, id="32"),
        pytest.param(31, 0, id="31"), pytest.param(20, 0, id="20"),
        pytest.param(32, 3, id="32-after-bits3")])
    def test_words_peak_is_stream_plus_chunk(self, n_cells, lead):
        # words(500_000) emits 16M bits, packed 8 to a byte; beyond them only
        # ci_fill's working set (its 4 MiB prefix buffer, a few lane rows and
        # one block of length bits: about 5 MiB) is live. One byte per
        # bit would add 15 MB. At N = 31, N = 20 and after bits(3), the states
        # straddle bytes and are joined as bits, one bounded block at a time.
        g = CiGenerator.from_seeds(0xDEADBEEF, 0xC0FFEE11, n_cells=n_cells)
        g.bits(lead)
        tracemalloc.start()
        try:
            words = g.words(500_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words.size == 500_000 and g._unread == -(lead + 16_000_000) % n_cells
        assert peak - 4 * words.size < 9 * 2**20

    @pytest.mark.parametrize("lead", [0, 64, 70])
    def test_zero_bits_keeps_tail(self, lead):
        # lead 0 and 64 leave no tail at N = 32; lead 70 leaves 26 bits
        g = CiGenerator.from_seeds(0xABCD1234, 0x5678EF01, n_cells=32)
        g.bits(lead)
        none = g.bits(0)
        assert none.dtype == np.uint8 and none.size == 0
        assert g._unread == -lead % 32
        ref = CiGenerator.from_seeds(0xABCD1234, 0x5678EF01, n_cells=32)
        assert np.array_equal(g.bits(100), ref.bits(lead + 100)[lead:])


class TestKthBitOracle:
    def test_worked_example_k0(self):
        assert kth_bit_oracle(seeded_example, 0) == 1

    def test_first_two_chunks(self):
        # x^0 from the carried bits, then the first two chunk states
        stream = seeded_example().bits(15)
        for k in range(15):
            assert kth_bit_oracle(seeded_example, k) == stream[k]

    def test_emit_seed_first_at_n24(self):
        def fresh():
            return CiGenerator(None, 5, 9, n_cells=24, emit_seed_first=True)

        stream = fresh().bits(6_000)
        for k in [*range(30), *range(30, 6_000, 15)]:
            assert kth_bit_oracle(fresh, k) == stream[k]

    def test_clone_with_carried_tail(self):
        # words(1001) at N = 24 leaves an 8-bit tail in the clone
        g = CiGenerator.from_seeds(0x1234, 0x5678, n_cells=24)
        g.words(1001)
        snap = g.clone()
        assert snap._unread == 8
        stream = g.bits(3_000)
        for k in [*range(10), *range(10, 3_000, 17)]:
            assert kth_bit_oracle(lambda: snap, k) == stream[k]

    @pytest.mark.parametrize("emit_seed_first", [False, True])
    def test_batched_equals_scalar(self, emit_seed_first):
        """A sequence of positions, unsorted and repeated, gives the bits of
        one scalar call each, the unread x^0 bits of emit_seed_first too."""
        def fresh():
            return CiGenerator(None, 5, 9, n_cells=24, emit_seed_first=emit_seed_first)

        ks = [*range(30), 5_000, 29, 24, 2_347, 0, 23, 5_000]
        batched = kth_bit_oracle(fresh, ks)
        assert batched.dtype == np.uint8 and batched.shape == (len(ks),)
        assert batched.tolist() == [kth_bit_oracle(fresh, k) for k in ks]
        assert batched.tolist() == fresh().bits(5_001)[ks].tolist()
        assert kth_bit_oracle(fresh, []).shape == (0,)

    @pytest.mark.parametrize("k", [-1, [3, -1], [[1, 2]], 2.5, [1.0]])
    def test_refuses_bad_positions(self, k):
        with pytest.raises(ValueError):
            kth_bit_oracle(seeded_example, k)

    def test_agrees_with_stream(self):
        def fresh():
            return CiGenerator.from_seeds(0xABCD1234, 0x5678EF01, n_cells=32, c=96)

        stream = fresh().bits(10_000)
        for k in range(0, 10_000, 97):
            assert kth_bit_oracle(fresh, k) == stream[k]
