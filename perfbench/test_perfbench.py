"""Tests of the benchmark itself: every gate passes on true output and trips
on one corrupted word, bit or pixel; the output contract matches
BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cimark as cm  # noqa: E402
import cimark.cli  # noqa: E402,F401  (cm.cli, used by the workloads)
import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_xorshift_chain_trips_on_one_word():
    xs = cm.XorShift32(0x13579BDF)
    start = xs.word
    words = xs.fill(5000)
    assert gates.xorshift_chain(cm, start, words) == []
    for i in (0, 1234, 4999):
        bad = words.copy()
        bad[i] ^= np.uint32(1 << 7)
        assert gates.xorshift_chain(cm, start, bad)


def test_ci_word_trips_on_one_bit():
    gen = cm.CiGenerator.from_seeds(0xDEADBEEF, 0xC0FFEE11)
    gen.words(10)  # the gate works from any pull boundary
    snap = gen.clone()
    words = gen.words(64)
    assert gates.ci_word(cm, snap, words, 37) == []
    bad = words.copy()
    bad[37] ^= np.uint32(1 << 31)
    assert gates.ci_word(cm, snap, bad, 37)


def test_stream_bits_trips_on_one_bit():
    def fresh():
        return cm.CiGenerator.from_seeds(0x1234, 0x5678, n_cells=24)

    data = np.packbits(fresh().bits(4000)).tobytes()
    positions = list(range(0, 4000, 131))
    assert gates.stream_bits(cm, fresh, data, positions) == []
    bad = bytearray(data)
    bad[positions[5] // 8] ^= 0x80 >> (positions[5] % 8)
    assert gates.stream_bits(cm, fresh, bytes(bad), positions)


def test_fail_set_is_exact():
    names = ["Overlapping Sum", "Runs", "Birthday Spacing", "Count the ones 1",
             "Binary Rank 6x8", "Binary Rank 31x31", "Binary Rank 32x32",
             "Count the ones 2"]
    verdicts = {n: n not in gates.XORSHIFT_FAILS for n in names}

    def report(v):
        return SimpleNamespace(results=[SimpleNamespace(name=n, passed=p)
                                        for n, p in v.items()])

    assert gates.fail_set(report(verdicts)) == []
    for flipped in ("Runs", "Binary Rank 32x32"):
        assert gates.fail_set(report({**verdicts, flipped: not verdicts[flipped]}))


def test_word_budget_matches_a_real_run():
    cfg = workloads.desk_scaled(cm, workloads.WARMUP_SCALE)
    src = cm.BitStreamSource.from_generator(cm.XorShift32(7))
    cm.run_battery(src, cfg)
    assert gates.word_budget(cm, cfg, src.consumed) == []
    assert gates.word_budget(cm, cfg, src.consumed + 1)


@pytest.mark.parametrize("mode", ["unauth", "auth"])
def test_roundtrip_trips_on_one_pixel(mode):
    carrier = cm.imaging.synthetic_carrier(3, 128)
    wm = cm.imaging.synthetic_watermark(3, 32)
    key = cm.EmbeddingKey(0x1111AAAA, 0x2222BBBB, mode=mode)
    marked = cm.embed(carrier, wm, key)
    assert gates.roundtrip(cm, marked, wm, key) == []
    # a pixel that carries payload: it differs when the complement is embedded
    other = cm.embed(carrier, 1 - wm, key)
    i = int(np.flatnonzero(marked != other)[0])
    bad = marked.copy()
    bad.flat[i] = other.flat[i]
    assert gates.roundtrip(cm, bad, wm, key)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_output_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "sweep", "--seed", "3", "--seconds", "0.5",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[section]}
        if trace:
            assert result["metrics"]["watermark.embed.calls"]["value"] == 30


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
