import itertools
import json
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cimark.battery import (
    BatteryConfig,
    _BATTERY,
    _CTO_BLOCK,
    _SMALLEST,
    _cto_statistic,
    _duplicate_spacings,
    _letters,
    battery_word_budget,
    binary_rank_test,
    birthday_spacings_test,
    count_the_ones_test,
    overlapping_sums_test,
    run_battery,
    runs_test,
)
from cimark.generator import CiGenerator, XorShift32
from cimark.source import BitStreamSource, InsufficientDataError


def reference_source(seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return BitStreamSource(
        "pcg64 reference",
        lambda n: rng.integers(0, 2**32, size=n, dtype=np.uint32),
    )


def untimed(csv: str) -> list:
    """CSV rows without their two timing columns."""
    return [row.rsplit(",", 2)[0] for row in csv.splitlines()]


def constant_source(word):
    return BitStreamSource(
        f"constant 0x{word:08X}",
        lambda n: np.full(n, word, dtype=np.uint32),
    )


def xorshift_bytes(nwords, extra=b""):
    return XorShift32(0x1234567).fill(nwords).astype(">u4").tobytes() + extra


class TestIndividualTests:
    def test_osum_reference_passes(self):
        assert overlapping_sums_test(reference_source(1), samples=100).passed

    def test_osum_constant_fails(self):
        r = overlapping_sums_test(constant_source(0x01020304), samples=50)
        assert not r.passed

    def test_runs_reference_passes(self):
        r = runs_test(reference_source(2), samples=10, length=10_000)
        assert r.passed
        assert r.labels == ["Up 1", "Down 1"]

    def test_runs_monotone_stream_fails(self):
        ramp = np.arange(100_000, dtype=np.uint32)
        state = {"pos": 0}

        def pull(n):
            s = state["pos"]
            state["pos"] += n
            return ramp[s:s + n]

        r = runs_test(BitStreamSource("ramp", pull), samples=10, length=10_000)
        assert not r.passed

    def test_birthday_lambda(self):
        # m^3 / 2^(nbits+2) = 2.0 for the canonical parameters
        assert 512**3 / 2.0 ** (24 + 2) == 2.0

    def test_birthday_reference_passes(self):
        assert birthday_spacings_test(reference_source(3), samples=200).passed

    @settings(max_examples=60, deadline=None)
    @given(nbits=st.integers(min_value=1, max_value=8),
           m=st.integers(min_value=2, max_value=40),
           samples=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_duplicate_spacings_match_unique(self, nbits, m, samples, seed):
        # few days and many birthdays, so that equal spacings are common
        rng = np.random.Generator(np.random.PCG64(seed))
        days = rng.integers(0, 2**nbits, size=(samples, m), dtype=np.uint32)
        expected = []
        for row in days:
            spacings = np.sort(np.diff(np.sort(row)))
            expected.append(spacings.size - np.unique(spacings).size)
        assert _duplicate_spacings(days).tolist() == expected

    def test_birthday_constant_fails(self):
        r = birthday_spacings_test(constant_source(0xAAAAAAAA), samples=100)
        assert not r.passed

    def test_cto_constant_fails(self):
        r = count_the_ones_test(constant_source(0), "stream", letters=100_000)
        assert not r.passed

    def test_cto_reference_passes_both_variants(self):
        assert count_the_ones_test(reference_source(4), "stream", letters=256_000).passed
        assert count_the_ones_test(reference_source(5), "bytes", letters=256_000).passed

    def test_letters_match_popcount_classes(self):
        b = np.arange(256, dtype=np.uint8)
        popcount = np.array([bin(v).count("1") for v in range(256)])
        assert np.array_equal(_letters(b), np.clip(popcount, 2, 6) - 2)

    @pytest.mark.parametrize("b", [
        pytest.param(np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8),
                     id=f"random-{n}") for n in (5, 6, 7, 2003)
    ] + [pytest.param(np.zeros(100, np.uint8), id="zeros"),
         pytest.param(np.full(100, 0xFF, np.uint8), id="ones")] + [
        # 2^16 + 4 bytes make exactly one block of 5-letter words
        pytest.param(np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8),
                     id=f"random-{n}")
        for n in (_CTO_BLOCK + 3, _CTO_BLOCK + 4, _CTO_BLOCK + 5, 2 * _CTO_BLOCK + 4)
    ])
    def test_cto_statistic_matches_counter_oracle(self, b):
        """Q5 - Q4 from plain-Python counts of the overlapping 4- and
        5-letter words; 5 bytes make a single 5-letter word, and the block
        lengths put the last word at either side of a block boundary."""
        letters = [min(max(bin(v).count("1"), 2), 6) - 2 for v in b.tolist()]
        probs = [37 / 256, 56 / 256, 70 / 256, 56 / 256, 37 / 256]

        def q(m):
            n = len(letters) - m + 1
            seen = Counter(tuple(letters[i:i + m]) for i in range(n))
            total = 0.0
            for word in itertools.product(range(5), repeat=m):
                expected = n * math.prod(probs[x] for x in word)
                total += (seen[word] - expected) ** 2 / expected
            return total

        stat, dof = _cto_statistic(b)
        assert dof == 5 ** 5 - 5 ** 4
        assert stat == pytest.approx(q(5) - q(4), rel=1e-12)

    def test_cto_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            count_the_ones_test(reference_source(6), "words", letters=256_000)

    def test_rank_constant_ones_fails(self):
        r = binary_rank_test(constant_source(0xFFFFFFFF), 32, 32, samples=2000)
        assert not r.passed
        assert r.p_values[0] < 1e-10

    def test_rank_reference_passes_all_shapes(self):
        src = reference_source(7)
        for rows, cols, samples in [(6, 8, 25_000), (31, 31, 10_000), (32, 32, 10_000)]:
            assert binary_rank_test(src, rows, cols, samples).passed

    def test_rank_rejects_unsupported_shape(self):
        with pytest.raises(ValueError):
            binary_rank_test(reference_source(8), 16, 16, 100)

    def test_insufficient_data(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(xorshift_bytes(1000))
        with pytest.raises(InsufficientDataError) as err:
            binary_rank_test(BitStreamSource.from_file(path), 32, 32, samples=10_000)
        assert str(err.value) == "Binary Rank 32x32: needs 320000 words, only 1000 available"

    def test_short_pull_reports_words_returned(self):
        """A pull that returns short reports the words it returned, not
        those plus the words consumed before it (10 here)."""
        supply = XorShift32(0x1234567).fill(10)
        state = {"pos": 0}

        def pull(n):
            s = state["pos"]
            state["pos"] += n
            return supply[s:s + n]

        src = BitStreamSource("ten words", pull)
        src.words(5)
        with pytest.raises(InsufficientDataError) as err:
            src.words(10, "probe")
        assert str(err.value) == "probe: needs 10 words, only 5 available"
        assert err.value.available == 5


# Reduced desk profile: every test runs, ranks on a few hundred matrices.
GOLDEN_CFG = dict(osum_samples=20, runs_samples=3, runs_length=2000,
                  birthday_samples=60, cto_letters=60_000, rank68_samples=400,
                  rank31_samples=300, rank32_samples=300)

# (name, p-values as float.hex, passed), recorded from the elimination-with-
# row-swaps rank kernel and the unpackbits letter mapping; ranks and letters
# are exact, so any rewrite of either must reproduce these bit for bit.
GOLDEN_XORSHIFT = [
    ("Overlapping Sum", ["0x1.15bf1a898e711p-1"], True),
    ("Runs", ["0x1.d437888b3c2fap-1", "0x1.f710035eea1c3p-1"], True),
    ("Birthday Spacing", ["0x1.f658bbd6f5329p-4"], True),
    ("Count the ones 1", ["0x1.127055ba07ddcp-2"], True),
    ("Binary Rank 6x8", ["0x1.52e9c276c03dep-2"], True),
    ("Binary Rank 31x31", ["0x1.47ec00b461df9p-49"], False),
    ("Binary Rank 32x32", ["0x1.68029e130b3f3p-529"], False),
    ("Count the ones 2", ["0x1.07dc33e9071a6p-3"], True),
]
GOLDEN_CI = [
    ("Overlapping Sum", ["0x1.426d312e8005fp-2"], True),
    ("Runs", ["0x1.b7bda761990d6p-4", "0x1.df3990b7b204cp-1"], True),
    ("Birthday Spacing", ["0x1.0ebae949f304ap-4"], True),
    ("Count the ones 1", ["0x1.6e43d53ceb70cp-3"], True),
    ("Binary Rank 6x8", ["0x1.0f8e986c1a8c2p-1"], True),
    ("Binary Rank 31x31", ["0x1.4cf5b0343ae1dp-3"], True),
    ("Binary Rank 32x32", ["0x1.82945bc5422bcp-2"], True),
    ("Count the ones 2", ["0x1.ff99b539ee3d8p-1"], True),
]


@pytest.mark.parametrize("gen, golden", [
    (lambda: XorShift32(0x13579BDF), GOLDEN_XORSHIFT),
    (lambda: CiGenerator.from_seeds(0x13579BDF, 0x2468ACE0), GOLDEN_CI),
], ids=["xorshift", "ci"])
def test_golden_pvalues(gen, golden):
    cfg = BatteryConfig.desk(**GOLDEN_CFG)
    report = run_battery(BitStreamSource.from_generator(gen()), cfg)
    got = [(r.name, [float(p).hex() for p in r.p_values], r.passed)
           for r in report.results]
    assert got == golden
    assert report.words_consumed == battery_word_budget(cfg) == 137_000


def traced_peak(test, words, **args) -> int:
    """Peak bytes tracemalloc sees while `test` runs on a source that hands
    out views of `words`: the pulled words themselves cost nothing, so the
    peak is the test's own working memory."""
    state = {"pos": 0}

    def pull(n):
        start = state["pos"]
        state["pos"] = start + n
        return words[start:start + n]

    src = BitStreamSource("views", pull)
    tracemalloc.start()
    try:
        test(src, **args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["stream", "bytes"])
@pytest.mark.parametrize("letters", [1_024_000, 4_096_000])
def test_cto_memory_bounded(variant, letters):
    """Count-the-ones works in blocks: beyond the words it pulls it needs
    one byte per letter and a bounded block buffer, whatever the length."""
    words = np.random.default_rng(letters).integers(0, 2**32, size=letters,
                                                    dtype=np.uint32)
    peak = traced_peak(count_the_ones_test, words, variant=variant, letters=letters)
    assert peak <= letters + 2 * 2**20


@pytest.mark.parametrize("samples, rows, cols", [
    pytest.param(s, r, c, id=str(s) if r == 32 else f"{s}-{r}x{c}")
    for s in (10_000, 40_000) for r, c in ((32, 32), (31, 31), (6, 8))])
def test_rank_memory_bounded(samples, rows, cols):
    """Every rank test hands its words over uncopied and eliminates in
    blocks: beyond the words it pulls it needs 8 bytes per matrix and a
    bounded block buffer."""
    words = np.random.default_rng(samples).integers(0, 2**32, size=rows * samples,
                                                    dtype=np.uint32)
    peak = traced_peak(binary_rank_test, words, rows=rows, cols=cols, samples=samples)
    assert peak <= 8 * samples + 2 * 2**20


class TestBattery:
    def test_xorshift_failure_pattern(self):
        src = BitStreamSource.from_generator(XorShift32(0x13579BDF), "raw xorshift")
        report = run_battery(src)
        verdicts = {r.name: r.passed for r in report.results}
        assert verdicts == {
            "Overlapping Sum": True,
            "Runs": True,
            "Birthday Spacing": True,
            "Count the ones 1": False,
            "Binary Rank 6x8": True,
            "Binary Rank 31x31": False,
            "Binary Rank 32x32": False,
            "Count the ones 2": True,
        }
        assert not report.all_passed

    def test_constant_stream_fails_everywhere(self):
        report = run_battery(constant_source(0x55AA55AA))
        assert all(not r.passed for r in report.results)

    def test_determinism_on_same_bytes(self, tmp_path):
        budget = battery_word_budget(BatteryConfig())
        rng = np.random.Generator(np.random.PCG64(77))
        path = tmp_path / "blob.bin"
        path.write_bytes(rng.integers(0, 2**32, size=budget, dtype=np.uint32)
                         .astype(">u4").tobytes())
        rep1 = run_battery(BitStreamSource.from_file(path))
        rep2 = run_battery(BitStreamSource.from_file(path))
        assert untimed(rep1.render_csv()) == untimed(rep2.render_csv())

    def test_report_counts_and_renderings(self):
        report = run_battery(reference_source(10))
        assert len(report.results) == 8
        assert all(0.0 <= p <= 1.0 for r in report.results for p in r.p_values)
        # every test spent time on its pull and on its own work
        assert all(r.generate_seconds > 0 and r.seconds > 0 for r in report.results)
        generate = sum(r.generate_seconds for r in report.results)
        test = sum(r.seconds for r in report.results)
        table = report.render_table()
        assert "Number of tests passed: 8 / 8" in table
        assert table.splitlines()[-2] == f"Peak RSS: {report.peak_rss_mb:.1f} MB"
        assert report.peak_rss_mb > 0
        assert table.splitlines()[-1] == \
            f"Time: generate {generate:.2f} s, test {test:.2f} s"
        first = report.results[0]
        assert table.splitlines()[4].endswith(
            f"{first.generate_seconds:>11.3f}{first.seconds:>9.3f}")
        csv = report.render_csv()
        assert csv.splitlines()[0] == \
            "test,name,p_value,verdict,samples,generate_seconds,seconds"
        assert len(csv.splitlines()) == 1 + 9  # runs contributes two rows
        assert csv.splitlines()[1].endswith(
            f",{first.generate_seconds:.6f},{first.seconds:.6f}")
        payload = json.loads(report.to_json())
        assert payload["results"][0]["name"] == "Overlapping Sum"
        assert [(r["generate_seconds"], r["seconds"]) for r in payload["results"]] \
            == [(r.generate_seconds, r.seconds) for r in report.results]
        assert payload["config"]["epsilon"] == 1e-4
        assert payload["peak_rss_mb"] == report.peak_rss_mb
        # a test that spent no time drawing reports 0.0 words per second
        for r in report.results:
            r.generate_seconds = 0.0
        payload = json.loads(report.to_json())
        assert payload["generate_words_per_s"] == 0.0
        assert {r["generate_words_per_s"] for r in payload["results"]} == {0.0}

    def test_word_budget_matches_consumption(self):
        cfg = BatteryConfig()
        src = reference_source(11)
        run_battery(src, cfg)
        assert src.consumed == battery_word_budget(cfg)

    @pytest.mark.parametrize("profile", ["desk", "canonical", "desk/40"])
    def test_words_per_test_sum_to_budget(self, profile):
        if profile == "desk/40":
            base = BatteryConfig()
            cfg = BatteryConfig.desk(**{
                f: max(1, round(getattr(base, f) / 40))
                for f in ("osum_samples", "runs_samples", "birthday_samples",
                          "cto_letters", "rank68_samples", "rank31_samples",
                          "rank32_samples")})
        else:
            cfg = getattr(BatteryConfig, profile)()
        gen = XorShift32(0x2468ACE0)
        pulled = []  # (array handed out, a copy of it)

        def pull(n):
            out = gen.fill(n)
            pulled.append((out, out.copy()))
            return out

        report = run_battery(BitStreamSource("recording", pull), cfg)
        words = [r.words for r in report.results]
        assert all(w > 0 for w in words)
        # each test drew exactly its own row's budget, not only the total,
        # in one pull
        assert words == [budget(cfg) for _, budget, _ in _BATTERY]
        assert [out.size for out, _ in pulled] == words
        # no test wrote to the words it was handed
        assert all(np.array_equal(out, copy) for out, copy in pulled)
        assert sum(words) == report.words_consumed == battery_word_budget(cfg)
        payload = json.loads(report.to_json())
        assert [r["words"] for r in payload["results"]] == words

    def test_canonical_profile_scales_up(self):
        desk = BatteryConfig()
        canon = BatteryConfig.canonical(epsilon=1e-3)
        assert canon.rank31_samples == 40_000
        assert canon.rank32_samples == 40_000
        assert canon.rank68_samples == 100_000
        assert canon.birthday_samples == 500
        assert canon.epsilon == 1e-3
        assert battery_word_budget(canon) > battery_word_budget(desk)
        # desk counts stay at >= 10% of canonical everywhere
        for attr in ("osum_samples", "runs_samples", "birthday_samples",
                     "cto_letters", "rank68_samples", "rank31_samples",
                     "rank32_samples"):
            assert getattr(desk, attr) >= 0.10 * getattr(canon, attr)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0, 0.5])
    def test_epsilon_outside_open_interval_rejected(self, eps):
        # the two-tailed rule would fail nothing (NaN, <= 0) or everything (>= 0.5)
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 0.5\)"):
            BatteryConfig(epsilon=eps)
        with pytest.raises(ValueError):
            BatteryConfig.canonical(epsilon=eps)

    @pytest.mark.parametrize("field", sorted(_SMALLEST))
    def test_counts_below_smallest_rejected(self, field):
        # zero samples used to fail after drawing words, or to give NaN "fail"s
        for value in (_SMALLEST[field] - 1, 0, -1):
            with pytest.raises(ValueError, match=f"{field} must be at least"):
                BatteryConfig(**{field: value})
            with pytest.raises(ValueError, match=f"{field} must be at least"):
                BatteryConfig.canonical(**{field: value})

    @pytest.mark.parametrize("test, kwargs, field", [
        (overlapping_sums_test, dict(samples=0), "osum_samples"),
        (runs_test, dict(samples=0, length=10), "runs_samples"),
        (runs_test, dict(samples=1, length=1), "runs_length"),
        (birthday_spacings_test, dict(samples=0), "birthday_samples"),
        (count_the_ones_test, dict(variant="stream", letters=4), "cto_letters"),
        (count_the_ones_test, dict(variant="bytes", letters=4), "cto_letters"),
        (binary_rank_test, dict(rows=6, cols=8, samples=0), "rank68_samples"),
        (binary_rank_test, dict(rows=31, cols=31, samples=0), "rank31_samples"),
        (binary_rank_test, dict(rows=32, cols=32, samples=0), "rank32_samples"),
    ], ids=["osum", "runs-samples", "runs-length", "birthday", "cto-stream",
            "cto-bytes", "rank6x8", "rank31", "rank32"])
    def test_functions_refuse_counts_below_smallest(self, test, kwargs, field):
        # unguarded, too few letters or no samples give a NaN p-value or an
        # IndexError; the refusal comes before any word is drawn
        src = reference_source(13)
        with pytest.raises(ValueError, match=f"{field} must be at least"):
            test(src, **kwargs)
        assert src.consumed == 0

    @pytest.mark.parametrize("field", sorted(_SMALLEST))
    def test_counts_not_whole_rejected(self, field):
        """A fractional count used to be accepted and then fail inside numpy;
        a whole float is stored as an int."""
        for build in (BatteryConfig, BatteryConfig.canonical):
            with pytest.raises(ValueError, match=f"{field} must be a whole number, got 2.5"):
                build(**{field: 2.5})
            value = build(**{field: 7.0}).__dict__[field]
            assert value == 7 and type(value) is int

    @pytest.mark.parametrize("test, kwargs, field", [
        (overlapping_sums_test, dict(samples=2.5), "osum_samples"),
        (runs_test, dict(samples=2.5, length=10), "runs_samples"),
        (runs_test, dict(samples=1, length=2.5), "runs_length"),
        (birthday_spacings_test, dict(samples=2.5), "birthday_samples"),
        (count_the_ones_test, dict(variant="stream", letters=5.5), "cto_letters"),
        (binary_rank_test, dict(rows=6, cols=8, samples=2.5), "rank68_samples"),
        (binary_rank_test, dict(rows=31, cols=31, samples=2.5), "rank31_samples"),
        (binary_rank_test, dict(rows=32, cols=32, samples=2.5), "rank32_samples"),
    ], ids=["osum", "runs-samples", "runs-length", "birthday", "cto", "rank6x8",
            "rank31", "rank32"])
    def test_functions_refuse_counts_not_whole(self, test, kwargs, field):
        src = reference_source(13)
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            test(src, **kwargs)
        assert src.consumed == 0

    def test_smallest_counts_run(self):
        report = run_battery(reference_source(12), BatteryConfig(**_SMALLEST))
        assert all(np.isfinite(p) for r in report.results for p in r.p_values)
        # the birthday test always draws 512 birthdays per sample
        assert report.words_consumed == 199 + 2 + 512 + 2 + 6 + 31 + 32 + 5 == 789


class TestFileSource:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            src = BitStreamSource.from_file(path)
        assert src.words(0).size == 0
        with pytest.raises(InsufficientDataError):
            src.words(1, "probe")

    @pytest.mark.parametrize("extra", [b"\x01", b"\x01\x02\x03"])
    def test_partial_word_warns_and_is_dropped(self, tmp_path, extra):
        data = xorshift_bytes(4099, extra)
        path = tmp_path / "tail.bin"
        path.write_bytes(data)
        with pytest.warns(UserWarning) as record:
            src = BitStreamSource.from_file(path)
        assert [str(w.message) for w in record] == [
            f"{path}: ignoring the last {len(extra)} byte(s), "
            f"which do not fill a 32-bit word"]
        # the words a whole-file read and one big-endian conversion give
        expected = np.frombuffer(data[:4 * 4099], dtype=">u4").astype(np.uint32)
        got = [src.words(n) for n in (1, 1000, 0, 3098)]
        assert all(w.dtype == np.uint32 for w in got)
        assert np.array_equal(np.concatenate(got), expected)
        with pytest.raises(InsufficientDataError):
            src.words(1)

    def test_whole_words_do_not_warn(self, tmp_path):
        path = tmp_path / "whole.bin"
        path.write_bytes(xorshift_bytes(10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert BitStreamSource.from_file(path).words(10).size == 10

    def test_ask_past_the_end_leaves_the_source_where_it_was(self, tmp_path):
        """A refused ask names the words left and draws none of them: the
        next ask within those words gets what a fresh source gives."""
        path = tmp_path / "ten.bin"
        path.write_bytes(xorshift_bytes(10))
        src = BitStreamSource.from_file(path)
        head = src.words(3)
        with pytest.raises(InsufficientDataError) as err:
            src.words(8, "probe")
        assert str(err.value) == "probe: needs 8 words, only 7 available"
        assert src.consumed == 3
        fresh = BitStreamSource.from_file(path)
        assert np.array_equal(np.concatenate([head, src.words(7)]), fresh.words(10))

    def test_battery_over_file_equals_bytes(self, tmp_path):
        """A battery over a file of XORshift words equals one over the live
        generator that wrote them."""
        cfg = BatteryConfig.desk(**GOLDEN_CFG)
        path = tmp_path / "stream.bin"
        path.write_bytes(xorshift_bytes(battery_word_budget(cfg)))
        from_file = run_battery(BitStreamSource.from_file(path), cfg)
        live = run_battery(BitStreamSource.from_generator(XorShift32(0x1234567)), cfg)
        assert from_file.source_description == str(path)
        assert from_file.rows() == live.rows()
        assert [r.words for r in from_file.results] == [r.words for r in live.results]
        assert from_file.words_consumed == live.words_consumed
