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
import time
from dataclasses import dataclass, asdict

import numpy as np

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
# letter of each byte value: its popcount class 0..4
_BYTE_LETTER = (np.clip(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                      axis=1).sum(axis=1), 2, 6) - 2).astype(np.int64)

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
# word, one comparison between two reals, one spacing between two birthdays.
_SMALLEST = dict(osum_samples=1, runs_samples=1, runs_length=2,
                 birthday_samples=1, birthday_m=2, birthday_bits=1,
                 cto_letters=5, rank68_samples=1, rank31_samples=1,
                 rank32_samples=1)


@dataclass
class BatteryConfig:
    """Sample sizes and conventions for one battery run.

    Defaults are the desk profile; canonical() restores full-size counts.
    The count-the-ones byte variant and the 6x8 rank rows read the least
    significant byte of each word, rank31 rows its 31 most significant
    bits, and birthdays its low birthday_bits bits. epsilon must lie in
    (0, 0.5): outside it the two-tailed rule fails nothing or everything.
    Every count is refused below the smallest value its test can run on
    (`_SMALLEST`), before any word is drawn.
    """

    epsilon: float = DEFAULT_EPSILON
    osum_samples: int = 100
    runs_samples: int = 10
    runs_length: int = 10_000
    birthday_samples: int = 200
    birthday_m: int = 512
    birthday_bits: int = 24
    cto_letters: int = 1_024_000
    rank68_samples: int = 25_000
    rank31_samples: int = 10_000
    rank32_samples: int = 10_000

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:  # also refuses NaN and infinities
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        for field, smallest in _SMALLEST.items():
            if not getattr(self, field) >= smallest:
                raise ValueError(f"{field} must be at least {smallest}, "
                                 f"got {getattr(self, field)}")
        if not self.birthday_bits <= 32:  # birthdays are bits of a 32-bit word
            raise ValueError(f"birthday_bits must be at most 32, "
                             f"got {self.birthday_bits}")

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
        payload = {
            "source": self.source_description,
            "timestamp": self.timestamp,
            "words_consumed": self.words_consumed,
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
                    "seconds": r.seconds,
                }
                for i, r in enumerate(self.results)
            ],
        }
        return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# individual tests
# ---------------------------------------------------------------------------


def overlapping_sums_test(src: BitStreamSource, samples: int = 100,
                          epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Sums of 100 consecutive uniforms, decorrelated by the Cholesky factor
    of their covariance, mapped to uniforms and KS-tested."""
    window = 100
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


def runs_test(src: BitStreamSource, samples: int = 10, length: int = 10_000,
              epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Run-length counts of ascending and descending runs, Knuth quadratic
    form per sequence, KS over the per-sequence p-values."""
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


def birthday_spacings_test(src: BitStreamSource, m: int = 512, nbits: int = 24,
                           samples: int = 200,
                           epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Duplicate spacings among m birthdays on 2^nbits days are asymptotically
    Poisson with mean m^3 / 2^(nbits+2); chi-square over `samples` trials.
    A birthday is the low nbits bits of a word."""
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


def _cto_statistic(letters: np.ndarray) -> tuple[float, int]:
    l64 = letters.astype(np.int64, copy=False)
    code4 = ((l64[:-3] * 5 + l64[1:-2]) * 5 + l64[2:-1]) * 5 + l64[3:]
    code5 = code4[:-1] * 5 + l64[4:]
    p4 = _LETTER_PROBS
    for _ in range(3):
        p4 = np.kron(p4, _LETTER_PROBS)
    p5 = np.kron(p4, _LETTER_PROBS)
    obs5 = np.bincount(code5, minlength=5 ** 5).astype(np.float64)
    obs4 = np.bincount(code4, minlength=5 ** 4).astype(np.float64)
    q5 = float(((obs5 - code5.size * p5) ** 2 / (code5.size * p5)).sum())
    q4 = float(((obs4 - code4.size * p4) ** 2 / (code4.size * p4)).sum())
    return q5 - q4, 5 ** 5 - 5 ** 4


def count_the_ones_test(src: BitStreamSource, variant: str = "stream",
                        letters: int = 256_000,
                        epsilon: float = DEFAULT_EPSILON) -> TestResult:
    """Byte popcounts mapped to five letters; chi-square of overlapping
    5-letter minus 4-letter word counts.

    variant="stream": every byte of the word stream (big-endian order).
    variant="bytes": the least significant byte of each word.
    """
    if variant == "stream":
        nwords = -(-letters // 4)
        w = src.words(nwords, "Count the ones 1")
        b = w.astype(">u4").view(np.uint8)[:letters]
        name = "Count the ones 1"
    elif variant == "bytes":
        w = src.words(letters, "Count the ones 2")
        b = (w & np.uint32(0xFF)).astype(np.uint8)
        name = "Count the ones 2"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    stat, dof = _cto_statistic(_BYTE_LETTER[b])
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
    """
    if (rows, cols) not in ((6, 8), (31, 31), (32, 32)):
        raise ValueError("supported shapes: (6,8), (31,31), (32,32)")
    name = f"Binary Rank {rows}x{cols}"
    w = src.words(rows * samples, name).reshape(samples, rows)
    if (rows, cols) == (32, 32):
        mats = w
    elif (rows, cols) == (31, 31):
        mats = w >> np.uint32(1)
    else:
        mats = w & np.uint32(0xFF)
    ranks = gf2_rank_many(mats, rows, cols)
    n = min(rows, cols)
    low = n - 3 if rows == cols else n - 2  # ranks <= low share the first bin
    edges = list(range(low, n + 1))
    probs = [sum(rank_distribution_rect(rows, cols, r) for r in range(low + 1)),
             *(rank_distribution_rect(rows, cols, r) for r in edges[1:])]
    binned = np.searchsorted(edges, np.minimum(ranks, n))
    observed = np.bincount(binned, minlength=len(probs)).astype(np.float64)
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
    ("overlapping_sums_test", lambda c: c.osum_samples * 199,
     lambda c: dict(samples=c.osum_samples)),
    ("runs_test", lambda c: c.runs_samples * c.runs_length,
     lambda c: dict(samples=c.runs_samples, length=c.runs_length)),
    ("birthday_spacings_test", lambda c: c.birthday_samples * c.birthday_m,
     lambda c: dict(m=c.birthday_m, nbits=c.birthday_bits,
                    samples=c.birthday_samples)),
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
    )


def battery_word_budget(cfg: BatteryConfig) -> int:
    """Words one battery run consumes (for sizing file inputs)."""
    return sum(words(cfg) for _, words, _ in _BATTERY)
