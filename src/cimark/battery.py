"""Statistical test battery for 32-bit word streams.

Implements the subset of DieHARD-style tests that separates a raw XORshift
stream (fails the two large binary-rank tests and count-the-ones on the
byte stream) from the chaotic-iterations generator (passes everything):
overlapping sums, runs up/down, birthday spacings, count-the-ones in both
variants, and binary rank 6x8 / 31x31 / 32x32.

Sample sizes come in two profiles: "desk" (default) and "canonical"
(full-size counts). Failure rule is two-tailed: a test fails when any of
its final p-values is within epsilon of 0 or 1.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass, asdict

import numpy as np

from .generator import _whole
from .gf2 import gf2_rank_many, rank_distribution_rect
from .pvalues import (
    DEFAULT_EPSILON,
    chi_square_pvalue,
    ks_uniformity,
    normal_cdf,
    verdict,
)
from .source import BitStreamSource

# popcount class probabilities of a random byte: <=2, 3, 4, 5, >=6 ones
_LETTER_PROBS = np.array([37, 56, 70, 56, 37], dtype=np.float64) / 256.0
# count-the-ones letters coded per block, so the codes and the intp copy
# bincount makes of them stay a few hundred KB for any stream length
_CTO_BLOCK = 1 << 16

# Knuth run-length quadratic form (runs of length 1..6+, n values)
_RUNS_A = np.array([
    [4529.4, 9044.9, 13568.0, 18091.0, 22615.0, 27892.0],
    [9044.9, 18097.0, 27139.0, 36187.0, 45234.0, 55789.0],
    [13568.0, 27139.0, 40721.0, 54281.0, 67852.0, 83685.0],
    [18091.0, 36187.0, 54281.0, 72414.0, 90470.0, 111580.0],
    [22615.0, 45234.0, 67852.0, 90470.0, 113262.0, 139476.0],
    [27892.0, 55789.0, 83685.0, 111580.0, 139476.0, 172860.0],
])
_RUNS_B = np.array([1 / 6, 5 / 24, 11 / 120, 19 / 720, 29 / 5040, 1 / 840])

# Overlapping sums of 100 consecutive uniforms; a sample reads 199 words.
_OSUM_WINDOW = 100
# DIEHARD's birthday spacings: 512 birthdays in a year of 2^24 days, lambda 2.
_BIRTHDAY_M = 512
_BIRTHDAY_BITS = 24


@dataclass
class TestResult:
    name: str
    p_values: list
    passed: bool
    samples: int
    labels: list = None
    # set by run_battery: words drawn from the source, seconds spent drawing
    # them, and seconds of the test's own work
    words: int = 0
    generate_seconds: float = 0.0
    seconds: float = 0.0


# Smallest count each test can run on: one sample or matrix, one 5-letter
# word, one comparison between two reals.
_SMALLEST = dict(osum_samples=1, runs_samples=1, runs_length=2,
                 birthday_samples=1, cto_letters=5, rank68_samples=1,
                 rank31_samples=1, rank32_samples=1)
# each binary rank shape: the _SMALLEST field of its sample count and the
# bit of a word where its rows start (gf2_rank_many's shift)
_RANK_SHAPES = {(6, 8): ("rank68_samples", 0), (31, 31): ("rank31_samples", 1),
                (32, 32): ("rank32_samples", 0)}


def _check_smallest(field: str, value) -> int:
    """value as an int, refused unless a whole count its test can run on."""
    whole = _whole(value, field)
    if whole < _SMALLEST[field]:
        raise ValueError(f"{field} must be at least {_SMALLEST[field]}, got {value}")
    return whole


@dataclass
class BatteryConfig:
    """Sample sizes and conventions for one battery run.

    Defaults are the desk profile; canonical() restores full-size counts.
    They are the only defaults of the test sizes: the test functions take
    no sizes of their own. The birthday test's shape is fixed, 512 birthdays
    on 2^24 days (the low 24 bits of a word), so only its sample count is
    set. The count-the-ones byte variant and the 6x8 rank rows read the
    least significant byte of each word and rank31 rows its 31 most
    significant bits. epsilon must lie in (0, 0.5): outside it the
    two-tailed rule fails nothing or everything. Every count must be whole
    and at least the smallest its test can run on (`_SMALLEST`), here and in
    the test function itself, before any word is drawn; it is kept as an int.
    """

    epsilon: float = DEFAULT_EPSILON
    osum_samples: int = 100
    runs_samples: int = 10
    runs_length: int = 10_000
    birthday_samples: int = 200
    cto_letters: int = 1_024_000
    rank68_samples: int = 25_000
    rank31_samples: int = 10_000
    rank32_samples: int = 10_000

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:  # also refuses NaN and infinities
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        for field in _SMALLEST:
            setattr(self, field, _check_smallest(field, getattr(self, field)))

    @classmethod
    def canonical(cls, **overrides) -> "BatteryConfig":
        base = dict(
            birthday_samples=500,
            rank68_samples=100_000,
            rank31_samples=40_000,
            rank32_samples=40_000,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def desk(cls, **overrides) -> "BatteryConfig":
        return cls(**overrides)


@dataclass
class TestReport:
    results: list
    source_description: str
    config: BatteryConfig
    timestamp: str = ""
    words_consumed: int = 0
    # the process's peak resident set in MB when run_battery ended
    peak_rss_mb: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def rows(self):
        """Flat (index, name, p_value, verdict, samples) rows."""
        out = []
        for i, r in enumerate(self.results, start=1):
            labels = r.labels or [""] * len(r.p_values)
            for lab, p in zip(labels, r.p_values):
                name = f"{r.name} {lab}".strip()
                out.append((i, name, p, "pass" if r.passed else "fail", r.samples))
        return out

    def render_table(self) -> str:
        lines = [
            f"Battery report for: {self.source_description}",
            f"epsilon={self.config.epsilon:g}  words={self.words_consumed}"
            + (f"  time={self.timestamp}" if self.timestamp else ""),
            "",
            f"{'No.':<5}{'Test name':<28}{'p-value':<14}{'Verdict':<8}"
            f"{'Generate s':>11}{'Test s':>9}",
        ]
        for i, name, p, res, _ in self.rows():
            r = self.results[i - 1]
            lines.append(f"{i:<5}{name:<28}{p:<14.6f}{res:<8}"
                         f"{r.generate_seconds:>11.3f}{r.seconds:>9.3f}")
        passed = sum(r.passed for r in self.results)
        generate = sum(r.generate_seconds for r in self.results)
        test = sum(r.seconds for r in self.results)
        lines.append("")
        lines.append(f"Number of tests passed: {passed} / {len(self.results)}")
        lines.append(f"Peak RSS: {self.peak_rss_mb:.1f} MB")
        lines.append(f"Time: generate {generate:.2f} s, test {test:.2f} s")
        return "\n".join(lines)

    def render_csv(self) -> str:
        lines = ["test,name,p_value,verdict,samples,generate_seconds,seconds"]
        for i, name, p, res, samples in self.rows():
            r = self.results[i - 1]
            lines.append(f"{i},{name},{p:.10g},{res},{samples},"
                         f"{r.generate_seconds:.6f},{r.seconds:.6f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        generate = sum(r.generate_seconds for r in self.results)
        payload = {
            "source": self.source_description,
            "timestamp": self.timestamp,
            "words_consumed": self.words_consumed,
            "generate_words_per_s": _per_s(self.words_consumed, generate),
            "peak_rss_mb": self.peak_rss_mb,
            "config": asdict(self.config),
            "results": [
                {
                    "test": i + 1,
                    "name": r.name,
                    "p_values": [float(p) for p in r.p_values],
                    "labels": r.labels,
                    "verdict": "pass" if r.passed else "fail",
                    "samples": r.samples,
                    "words": r.words,
                    "generate_seconds": r.generate_seconds,
                    "generate_words_per_s": _per_s(r.words, r.generate_seconds),
                    "seconds": r.seconds,
                }
                for i, r in enumerate(self.results)
            ],
        }
        return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# individual tests
# ---------------------------------------------------------------------------


def overlapping_sums_test(src: BitStreamSource, samples: int,
                          epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Sums of 100 consecutive uniforms, decorrelated by the Cholesky factor
    of their covariance, mapped to uniforms and KS-tested."""
    samples = _check_smallest("osum_samples", samples)
    window = _OSUM_WINDOW
    cov = (window - np.abs(np.subtract.outer(np.arange(window), np.arange(window)))) / 12.0
    chol = np.linalg.cholesky(cov)
    trial_ps = []
    reals = src.reals(samples * (2 * window - 1), "Overlapping Sum")
    for u in reals.reshape(samples, -1):
        sums = np.convolve(u, np.ones(window), mode="valid")  # 100 overlapping sums
        z = np.linalg.solve(chol, sums - window / 2.0)
        probs = normal_cdf(z)
        trial_ps.append(ks_uniformity(np.clip(probs, 0.0, 1.0)))
    p = ks_uniformity(trial_ps)
    return TestResult("Overlapping Sum", [p], verdict([p], epsilon), samples)


def _run_length_counts(u: np.ndarray, direction: str) -> np.ndarray:
    if direction == "up":
        asc = u[1:] > u[:-1]
    else:
        asc = u[1:] < u[:-1]
    ends = np.flatnonzero(~asc)
    ends_full = np.concatenate([ends, [u.size - 1]])
    starts = np.concatenate([[-1], ends_full[:-1]])
    lengths = np.minimum(ends_full - starts, 6)
    return np.bincount(lengths, minlength=7)[1:7].astype(np.float64)


def _runs_statistic(counts: np.ndarray, n: int) -> float:
    d = counts - n * _RUNS_B
    return float(d @ _RUNS_A @ d) / n


def runs_test(src: BitStreamSource, samples: int, length: int,
              epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Run-length counts of ascending and descending runs, Knuth quadratic
    form per sequence, KS over the per-sequence p-values."""
    samples = _check_smallest("runs_samples", samples)
    length = _check_smallest("runs_length", length)
    ups, downs = [], []
    for u in src.reals(samples * length, "Runs").reshape(samples, length):
        for direction, sink in (("up", ups), ("down", downs)):
            v = _runs_statistic(_run_length_counts(u, direction), length)
            sink.append(chi_square_pvalue(v, 6))
    p_up = ks_uniformity(ups)
    p_down = ks_uniformity(downs)
    return TestResult("Runs", [p_up, p_down], verdict([p_up, p_down], epsilon),
                      samples, labels=["Up 1", "Down 1"])


def _duplicate_spacings(days: np.ndarray) -> np.ndarray:
    """Per row of `days`, the spacings between its sorted birthdays that
    repeat an equal spacing: their count less the count of distinct ones."""
    spacings = np.sort(np.diff(np.sort(days, axis=1), axis=1), axis=1)
    return (spacings[:, 1:] == spacings[:, :-1]).sum(axis=1)


def birthday_spacings_test(src: BitStreamSource, samples: int,
                           epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Duplicate spacings among m = 512 birthdays on 2^nbits = 2^24 days are
    asymptotically Poisson with mean m^3 / 2^(nbits+2) = 2; chi-square over
    `samples` trials. A birthday is the low nbits bits of a word."""
    samples = _check_smallest("birthday_samples", samples)
    m, nbits = _BIRTHDAY_M, _BIRTHDAY_BITS
    lam = m ** 3 / 2.0 ** (nbits + 2)
    words = src.words(samples * m, "Birthday Spacing").reshape(samples, m)
    dups = _duplicate_spacings(words & np.uint32((1 << nbits) - 1))
    # bin against the Poisson pmf, merging the tail to keep expected >= 5
    kmax = int(dups.max()) + 1
    probs = [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in range(kmax)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(dups, kmax), minlength=kmax + 1).astype(float)
    expected = np.asarray(probs) * samples
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat = float(((observed - expected) ** 2 / expected).sum())
    p = chi_square_pvalue(stat, expected.size - 1)
    return TestResult("Birthday Spacing", [p], verdict([p], epsilon), samples)


def _letters(b: np.ndarray) -> np.ndarray:
    """Letter of each byte of b: its popcount class 0..4 (<= 2, 3, 4, 5,
    >= 6 ones), as uint8."""
    letters = np.bitwise_count(b)
    np.clip(letters, 2, 6, out=letters)
    letters -= 2
    return letters


def _cto_statistic(b: np.ndarray) -> tuple[float, int]:
    """Q5 - Q4 over the overlapping 5- and 4-letter words of the letters of
    the bytes b (at least 5), and its degrees of freedom.

    Only the 5-letter words are counted: the 4-letter word at position i is
    the prefix of the 5-letter word there, so summing the 5-letter counts
    over their last letter counts every 4-letter word but the final one,
    which is the last 4 letters of the final 5-letter word. The 5-letter
    codes (< 5^5, so uint16) are built and counted per block of
    `_CTO_BLOCK` 5-letter words, each block reading the 4 letters after it, and the
    counts are summed in int64.
    """
    n5 = b.size - 4
    counts = np.zeros(5 ** 5, dtype=np.int64)
    for start in range(0, n5, _CTO_BLOCK):
        letters = _letters(b[start:start + _CTO_BLOCK + 4])
        code5 = letters[:-4].astype(np.uint16)
        code5 *= 5
        for k in range(1, 4):
            code5 += letters[k:k - 4]
            code5 *= 5
        code5 += letters[4:]
        counts += np.bincount(code5, minlength=5 ** 5)
    obs5 = counts.astype(np.float64)
    obs4 = counts.reshape(5 ** 4, 5).sum(axis=1).astype(np.float64)
    obs4[code5[-1] % 5 ** 4] += 1
    n4 = n5 + 1
    p4 = _LETTER_PROBS
    for _ in range(3):
        p4 = np.kron(p4, _LETTER_PROBS)
    p5 = np.kron(p4, _LETTER_PROBS)
    q5 = float(((obs5 - n5 * p5) ** 2 / (n5 * p5)).sum())
    q4 = float(((obs4 - n4 * p4) ** 2 / (n4 * p4)).sum())
    return q5 - q4, 5 ** 5 - 5 ** 4


def count_the_ones_test(src: BitStreamSource, variant: str, letters: int,
                        epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Byte popcounts mapped to five letters; chi-square of overlapping
    5-letter minus 4-letter word counts.

    variant="stream": every byte of the word stream (big-endian order).
    variant="bytes": the least significant byte of each word.
    """
    letters = _check_smallest("cto_letters", letters)
    if variant == "stream":
        nwords = -(-letters // 4)
        w = src.words(nwords, "Count the ones 1")
        b = w.astype(">u4").view(np.uint8)[:letters]
        name = "Count the ones 1"
    elif variant == "bytes":
        w = src.words(letters, "Count the ones 2")
        b = w.astype(np.uint8)  # the cast keeps the low byte
        name = "Count the ones 2"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    stat, dof = _cto_statistic(b)
    # Q5-Q4 can come out slightly negative on clean data; clamp for the tail
    p = chi_square_pvalue(max(stat, 0.0), dof)
    return TestResult(name, [p], verdict([p], epsilon), letters)


def binary_rank_test(src: BitStreamSource, rows: int, cols: int,
                     samples: int,
                     epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """GF(2) ranks of matrices built from consecutive words, chi-squared
    against the exact rank distribution.

    (32,32): full words as rows. (31,31): the 31 most significant bits of
    each word. (6,8): the least significant byte of each of six words.
    The words go to `gf2_rank_many` as drawn, uncopied, with the shape's
    shift from `_RANK_SHAPES`: it picks the row bits out block by block.
    """
    if (rows, cols) not in _RANK_SHAPES:
        raise ValueError("supported shapes: (6,8), (31,31), (32,32)")
    field, shift = _RANK_SHAPES[rows, cols]
    samples = _check_smallest(field, samples)
    name = f"Binary Rank {rows}x{cols}"
    w = src.words(rows * samples, name).reshape(samples, rows)
    n = min(rows, cols)
    counts = np.bincount(gf2_rank_many(w, rows, cols, shift), minlength=n + 1)
    low = n - 3 if rows == cols else n - 2  # ranks <= low share the first bin
    probs = [sum(rank_distribution_rect(rows, cols, r) for r in range(low + 1)),
             *(rank_distribution_rect(rows, cols, r) for r in range(low + 1, n + 1))]
    observed = np.array([counts[:low + 1].sum(), *counts[low + 1:]], dtype=np.float64)
    expected = np.asarray(probs) * samples
    stat = float(((observed - expected) ** 2 / expected).sum())
    p = chi_square_pvalue(stat, len(probs) - 1)
    return TestResult(name, [p], verdict([p], epsilon), samples)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


# The battery in run order, one row per test: the test's module-level name,
# the words it draws from the source in one pull, and its arguments. Tests
# are looked up by name when the battery runs, so a wrapper installed on the
# module sees every call.
_BATTERY = (
    ("overlapping_sums_test", lambda c: c.osum_samples * (2 * _OSUM_WINDOW - 1),
     lambda c: dict(samples=c.osum_samples)),
    ("runs_test", lambda c: c.runs_samples * c.runs_length,
     lambda c: dict(samples=c.runs_samples, length=c.runs_length)),
    ("birthday_spacings_test", lambda c: c.birthday_samples * _BIRTHDAY_M,
     lambda c: dict(samples=c.birthday_samples)),
    ("count_the_ones_test", lambda c: -(-c.cto_letters // 4),
     lambda c: dict(variant="stream", letters=c.cto_letters)),
    ("binary_rank_test", lambda c: c.rank68_samples * 6,
     lambda c: dict(rows=6, cols=8, samples=c.rank68_samples)),
    ("binary_rank_test", lambda c: c.rank31_samples * 31,
     lambda c: dict(rows=31, cols=31, samples=c.rank31_samples)),
    ("binary_rank_test", lambda c: c.rank32_samples * 32,
     lambda c: dict(rows=32, cols=32, samples=c.rank32_samples)),
    ("count_the_ones_test", lambda c: c.cto_letters,
     lambda c: dict(variant="bytes", letters=c.cto_letters)),
)


def run_battery(src: BitStreamSource, config: BatteryConfig = None) -> TestReport:
    """Run every test of the battery in order on consecutive stream segments."""
    cfg = config or BatteryConfig()
    results = []
    for name, _, args in _BATTERY:
        consumed, pulled = src.consumed, src.pull_seconds
        start = time.perf_counter()
        result = globals()[name](src, epsilon=cfg.epsilon, **args(cfg))
        elapsed = time.perf_counter() - start
        result.words = src.consumed - consumed
        result.generate_seconds = src.pull_seconds - pulled
        result.seconds = elapsed - result.generate_seconds
        results.append(result)
    return TestReport(
        results=results,
        source_description=src.description,
        config=cfg,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
        words_consumed=src.consumed,
        peak_rss_mb=_peak_rss_mb(),
    )


def _per_s(count: int, seconds: float) -> float:
    """count / seconds, or 0.0 when no time was spent."""
    return count / seconds if seconds else 0.0


def _peak_rss_mb() -> float:
    """The process's peak resident set so far (ru_maxrss / 1024: Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def battery_word_budget(cfg: BatteryConfig) -> int:
    """Words one battery run consumes (for sizing file inputs)."""
    return sum(words(cfg) for _, words, _ in _BATTERY)
