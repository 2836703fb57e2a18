import json
import warnings

import numpy as np
import pytest

from cimark.battery import (
    BatteryConfig,
    _BATTERY,
    _letters_from_bytes,
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


def reference_source(seed=0, limit=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    return BitStreamSource(
        "pcg64 reference",
        lambda n: rng.integers(0, 2**32, size=n, dtype=np.uint32),
        limit=limit,
    )


def constant_source(word, limit=None):
    return BitStreamSource(
        f"constant 0x{word:08X}",
        lambda n: np.full(n, word, dtype=np.uint32),
        limit=limit,
    )


class TestIndividualTests:
    def test_osum_reference_passes(self):
        assert overlapping_sums_test(reference_source(1), samples=100).passed

    def test_osum_constant_fails(self):
        r = overlapping_sums_test(constant_source(0x01020304), samples=50)
        assert not r.passed

    def test_runs_reference_passes(self):
        r = runs_test(reference_source(2))
        assert r.passed
        assert r.labels == ["Up 1", "Down 1"]

    def test_runs_monotone_stream_fails(self):
        ramp = np.arange(100_000, dtype=np.uint32)
        state = {"pos": 0}

        def pull(n):
            s = state["pos"]
            state["pos"] += n
            return ramp[s:s + n]

        r = runs_test(BitStreamSource("ramp", pull))
        assert not r.passed

    def test_birthday_lambda(self):
        # m^3 / 2^(nbits+2) = 2.0 for the canonical parameters
        assert 512**3 / 2.0 ** (24 + 2) == 2.0

    def test_birthday_reference_passes(self):
        assert birthday_spacings_test(reference_source(3), samples=200).passed

    def test_birthday_constant_fails(self):
        r = birthday_spacings_test(constant_source(0xAAAAAAAA), samples=100)
        assert not r.passed

    def test_cto_constant_fails(self):
        r = count_the_ones_test(constant_source(0), "stream", letters=100_000)
        assert not r.passed

    def test_cto_reference_passes_both_variants(self):
        assert count_the_ones_test(reference_source(4), "stream").passed
        assert count_the_ones_test(reference_source(5), "bytes").passed

    def test_letters_match_popcount_classes(self):
        b = np.arange(256, dtype=np.uint8)
        popcount = np.array([bin(v).count("1") for v in range(256)])
        assert np.array_equal(_letters_from_bytes(b), np.clip(popcount, 2, 6) - 2)

    def test_cto_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            count_the_ones_test(reference_source(6), "words")

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

    def test_insufficient_data(self):
        src = reference_source(9, limit=1000)
        with pytest.raises(InsufficientDataError) as err:
            binary_rank_test(src, 32, 32, samples=10_000)
        assert "Binary Rank 32x32" in str(err.value)


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

    def test_determinism_on_same_bytes(self):
        budget = battery_word_budget(BatteryConfig())
        rng = np.random.Generator(np.random.PCG64(77))
        data = rng.integers(0, 2**32, size=budget, dtype=np.uint32).astype(">u4").tobytes()
        rep1 = run_battery(BitStreamSource.from_bytes(data, "blob"))
        rep2 = run_battery(BitStreamSource.from_bytes(data, "blob"))
        assert rep1.render_csv() == rep2.render_csv()

    def test_report_counts_and_renderings(self):
        report = run_battery(reference_source(10))
        assert len(report.results) == 8
        assert all(0.0 <= p <= 1.0 for r in report.results for p in r.p_values)
        table = report.render_table()
        assert "Number of tests passed: 8 / 8" in table
        csv = report.render_csv()
        assert csv.splitlines()[0] == "test,name,p_value,verdict,samples"
        assert len(csv.splitlines()) == 1 + 9  # runs contributes two rows
        payload = json.loads(report.to_json())
        assert payload["results"][0]["name"] == "Overlapping Sum"
        assert payload["config"]["epsilon"] == 1e-4

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
        report = run_battery(BitStreamSource.from_generator(XorShift32(0x2468ACE0)), cfg)
        words = [r.words for r in report.results]
        assert all(w > 0 for w in words)
        # each test drew exactly its own row's budget, not only the total
        assert words == [budget(cfg) for _, budget, _ in _BATTERY]
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


class TestFileSource:
    @staticmethod
    def xorshift_bytes(nwords, extra=b""):
        return XorShift32(0x1234567).fill(nwords).astype(">u4").tobytes() + extra

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
        data = self.xorshift_bytes(4099, extra)
        path = tmp_path / "tail.bin"
        path.write_bytes(data)
        for make in (lambda: BitStreamSource.from_file(path),
                     lambda: BitStreamSource.from_bytes(data)):
            with pytest.warns(UserWarning, match=f"last {len(extra)} byte"):
                src = make()
            # the words a whole-file read and one big-endian conversion give
            expected = np.frombuffer(data[:4 * 4099], dtype=">u4").astype(np.uint32)
            got = [src.words(n) for n in (1, 1000, 0, 3098)]
            assert all(w.dtype == np.uint32 for w in got)
            assert np.array_equal(np.concatenate(got), expected)
            with pytest.raises(InsufficientDataError):
                src.words(1)

    def test_whole_words_do_not_warn(self, tmp_path):
        path = tmp_path / "whole.bin"
        path.write_bytes(self.xorshift_bytes(10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert BitStreamSource.from_file(path).words(10).size == 10

    def test_battery_over_file_equals_bytes(self, tmp_path):
        cfg = BatteryConfig.desk(**GOLDEN_CFG)
        data = self.xorshift_bytes(battery_word_budget(cfg))
        path = tmp_path / "stream.bin"
        path.write_bytes(data)
        from_file = run_battery(BitStreamSource.from_file(path), cfg)
        from_bytes = run_battery(BitStreamSource.from_bytes(data), cfg)
        assert from_file.source_description == str(path)
        assert from_file.rows() == from_bytes.rows()
        assert [r.words for r in from_file.results] == [r.words for r in from_bytes.results]
        assert from_file.words_consumed == from_bytes.words_consumed
