"""The four workloads. Each mirrors one documented CLI use and is driven as
a closed loop of identical operations from one thread.

A workload is built from an imported package `cm` (see run.py) and a seed;
every generator, carrier and noise seed is derived from that seed. `op()`
is the timed call; `check()` and `digest()` run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random

import numpy as np

import gates

# Sample-count fields of BatteryConfig scaled by battery-ci; runs_length and
# birthday_m keep their desk values so each sample is the same test.
SAMPLE_FIELDS = ("osum_samples", "runs_samples", "birthday_samples",
                 "cto_letters", "rank68_samples", "rank31_samples",
                 "rank32_samples")

# The full desk profile needs 2.28M generator words: 66 s and 6.5 GB on the
# numpy path, too large to run many times on an 8 GB machine. 1/40 keeps
# every test and gives about a dozen operations in a 20 s run.
CI_SCALE = 1 / 40
WARMUP_SCALE = 1 / 1000

GEN_CELLS = 24          # rounds do not align with 32-bit words
GEN_BITS = 2_000_000    # not a multiple of GEN_CELLS either
GEN_ORACLE_WINDOW = 32_768  # oracle cost grows with the bit position


def desk_scaled(cm, scale: float):
    base = cm.battery.BatteryConfig()
    return cm.battery.BatteryConfig.desk(
        **{f: max(1, round(getattr(base, f) * scale)) for f in SAMPLE_FIELDS})


def seed_words(name: str, seed: int, count: int) -> list:
    """Nonzero 32-bit seeds for one workload, fixed by (name, seed)."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    return [rng.randrange(1, 1 << 32) for _ in range(count)]


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Battery:
    """`cimark test --gen ci|xorshift`: run_battery over a live generator."""

    unit = "words"

    def __init__(self, cm, seed: int, kind: str, tracer):
        self.cm, self.kind, self.tracer = cm, kind, tracer
        self.name = f"battery-{kind}"
        self.seed1, self.seed2 = seed_words(self.name, seed, 2)
        self.cfg = desk_scaled(cm, CI_SCALE) if kind == "ci" else cm.battery.BatteryConfig.desk()
        self.work = cm.battery.battery_word_budget(self.cfg)

    def _run(self, cfg):
        gen_mod = self.cm.generator
        if self.kind == "ci":
            gen = gen_mod.CiGenerator.from_seeds(self.seed1, self.seed2)
            desc = f"ci(seed1={self.seed1:#x}, seed2={self.seed2:#x})"
            draw, start = gen.words, None
        else:
            gen = gen_mod.XorShift32(self.seed1)
            desc = f"xorshift(seed={self.seed1:#x})"
            draw, start = gen.fill, gen.word
        pulls = []  # (generator clone before the pull, words), for the gates

        def pull(n):
            snap = gen.clone() if self.kind == "ci" else None
            out = draw(n)
            pulls.append((snap, out))
            return out

        src = self.cm.source.BitStreamSource(desc, self.tracer.source_pull(pull))
        report = self.cm.battery.run_battery(src, cfg)
        return report, src.consumed, start, pulls

    def warmup(self):
        self._run(desk_scaled(self.cm, WARMUP_SCALE))

    def op(self):
        return self._run(self.cfg)

    def check(self, out, rng) -> list:
        report, consumed, start, pulls = out
        problems = gates.word_budget(self.cm, self.cfg, consumed)
        if self.kind == "xorshift":
            words = [w for _, w in pulls]
            problems += gates.xorshift_chain(self.cm, start, np.concatenate(words))
            problems += gates.fail_set(report)
        else:
            for snap, words in rng.sample(pulls, 4):
                problems += gates.ci_word(self.cm, snap, words,
                                         rng.randrange(min(len(words), 64)))
        return problems

    def digest(self, out) -> str:
        report, consumed, _, _ = out
        return sha256_lines(
            [f"words {consumed}"]
            + [f"{r.name} {'pass' if r.passed else 'fail'} "
               + " ".join(float(p).hex() for p in r.p_values)
               for r in report.results])


class Sweep:
    """`cimark bench`: robustness_sweep over the 15-cell BENCH_GRID."""

    unit = "cells"
    name = "sweep"

    def __init__(self, cm, seed: int):
        self.cm = cm
        self.seed1, self.seed2, self.noise_seed, img_seed = seed_words(self.name, seed, 4)
        self.carrier = cm.imaging.synthetic_carrier(img_seed, 256)
        self.wm = cm.imaging.synthetic_watermark(img_seed, 64)
        self.grid = cm.cli.BENCH_GRID
        self.work = 2 * len(self.grid)  # cells: (attack, parameter, mode)

    def _run(self, grid):
        return self.cm.watermark.robustness_sweep(
            self.carrier, self.wm, self.seed1, self.seed2, grid,
            noise_seed=self.noise_seed)

    def warmup(self):
        self._run([("crop", 10), ("rotate", 2), ("jpeg", 2), ("noise", 1)])

    def op(self):
        return self._run(self.grid)

    def check(self, rows, rng) -> list:
        problems = [] if len(rows) == self.work else [f"{len(rows)} sweep rows"]
        wmk = self.cm.watermark
        for mode in ("unauth", "auth"):
            key = wmk.EmbeddingKey(self.seed1, self.seed2, mode=mode)
            problems += gates.roundtrip(self.cm, wmk.embed(self.carrier, self.wm, key),
                                        self.wm, key)
        return problems

    def digest(self, rows) -> str:
        return sha256_lines(f"{k} {p!r} {m} {float(s).hex()}" for k, p, m, s in rows)


class GenStream:
    """`cimark gen --n 24 --bits ...` in-process, written to a file."""

    unit = "words"
    name = "gen-stream"

    def __init__(self, cm, seed: int, tmpdir: str):
        self.cm = cm
        self.seed1, self.seed2 = seed_words(self.name, seed, 2)
        self.path = os.path.join(tmpdir, "gen-stream.bin")
        self.work = GEN_BITS / 32

    def _run(self, nbits):
        argv = ["gen", "--seed1", f"{self.seed1:08X}", "--seed2", f"{self.seed2:08X}",
                "--n", str(GEN_CELLS), "--bits", str(nbits), "--out", self.path]
        with contextlib.redirect_stderr(io.StringIO()):  # the config echo
            code = self.cm.cli.main(argv)
        with open(self.path, "rb") as fh:
            return code, fh.read()

    def warmup(self):
        self._run(4096)

    def op(self):
        return self._run(GEN_BITS)

    def check(self, out, rng) -> list:
        code, data = out
        problems = [] if code == 0 else [f"gen exited with {code}"]
        if len(data) != -(-GEN_BITS // 8):
            return problems + [f"gen wrote {len(data)} bytes"]

        def fresh():
            return self.cm.generator.CiGenerator.from_seeds(
                self.seed1, self.seed2, n_cells=GEN_CELLS)

        positions = rng.sample(range(GEN_ORACLE_WINDOW), 32)
        return problems + gates.stream_bits(self.cm, fresh, data, positions)

    def digest(self, out) -> str:
        return hashlib.sha256(out[1]).hexdigest()


WORKLOADS = ("battery-ci", "battery-xorshift", "sweep", "gen-stream")


def build(name: str, cm, seed: int, tracer, tmpdir: str):
    if name == "battery-ci":
        return Battery(cm, seed, "ci", tracer)
    if name == "battery-xorshift":
        return Battery(cm, seed, "xorshift", tracer)
    if name == "sweep":
        return Sweep(cm, seed)
    if name == "gen-stream":
        return GenStream(cm, seed, tmpdir)
    raise ValueError(f"unknown workload {name!r}")
