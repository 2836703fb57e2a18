import importlib.util
from pathlib import Path

import numpy as np

import cimark
import cimark.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_star_import_binds_every_export():
    """Every name in `cimark.__all__` resolves, so `from cimark import *`
    cannot break when an export is deleted."""
    namespace = {}
    exec("from cimark import *", namespace)
    assert set(cimark.__all__) <= namespace.keys()
    assert len(set(cimark.__all__)) == len(cimark.__all__)


def test_benchmark_call_shapes(tmp_path):
    """Every cimark name the benchmark harness (perfbench/) calls, reached
    the way it reaches it and called with its argument shapes, on tiny
    inputs. Tier-1 does not run the harness, so a deletion or signature
    change that would break it fails here."""
    cm = cimark
    assert isinstance(cm.NUMBA_ENABLED, bool)
    assert len(cm.cli.BENCH_GRID) == 15

    xs = cm.generator.XorShift32(7)
    start = xs.word
    words = xs.fill(8)
    assert xs.word == int(words[-1]) == cm.kernels.xorshift_step(int(words[-2]))
    assert int(words[0]) == cm.kernels.xorshift_step(start)

    gen = cm.generator.CiGenerator.from_seeds(0x1234, 0x5678)
    snap = gen.clone()
    first = gen.words(2)
    bit = cm.generator.kth_bit_oracle(lambda: snap, 0)
    assert bit == int(first[0]) >> 31
    bits = cm.CiGenerator.from_seeds(0x1234, 0x5678, n_cells=24).bits(48)
    assert bits.size == 48

    cfg = cm.battery.BatteryConfig.desk(
        **{f: 1 for f in ("osum_samples", "runs_samples", "birthday_samples",
                          "rank68_samples", "rank31_samples", "rank32_samples")},
        cto_letters=5)
    src = cm.source.BitStreamSource("xorshift", cm.XorShift32(3).fill)
    report = cm.battery.run_battery(src, cfg)
    assert src.consumed == report.words_consumed == cm.battery.battery_word_budget(cfg)
    src = cm.BitStreamSource.from_generator(cm.XorShift32(3))
    cm.run_battery(src, cfg)
    assert src.consumed == cm.battery.battery_word_budget(cfg)

    carrier = cm.imaging.synthetic_carrier(1, 64)
    wm = cm.imaging.synthetic_watermark(1, 8)
    rows = cm.watermark.robustness_sweep(
        carrier, wm, 1, 2, [("crop", 10), ("rotate", 2), ("jpeg", 2), ("noise", 1)],
        noise_seed=3)
    assert len(rows) == 8
    key = cm.watermark.EmbeddingKey(1, 2, mode="auth")
    marked = cm.watermark.embed(carrier, wm, key)
    got = cm.watermark.extract(marked, key, wm_dims=wm.shape)
    assert cm.watermark.similarity(wm, got) == 100.0

    out = tmp_path / "gen.bin"
    assert cm.cli.main(["gen", "--seed1", "1234", "--seed2", "5678", "--n", "24",
                        "--bits", "48", "--out", str(out)]) == 0
    assert np.array_equal(np.unpackbits(np.frombuffer(out.read_bytes(), np.uint8)),
                          bits)


def test_perfbench_tracer_finds_every_name():
    """perfbench's Tracer skips a name it cannot find, by design, so a
    renamed layer would read as a per-layer metric of 0. Every name its
    install wraps exists, and an auth embed reaches the fold_digest span
    through the module attribute the tracer replaces."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    patch, tried = tracer.patch, []

    def recording(owner, attr, name, **kw):
        tried.append((name, hasattr(owner, attr)))
        return patch(owner, attr, name, **kw)

    tracer.patch = recording
    original = cimark.watermark.fold_digest
    try:
        tracer.install(cimark)
        tracer.enabled = True
        cimark.watermark.embed(cimark.imaging.synthetic_carrier(1, 64),
                               cimark.imaging.synthetic_watermark(1, 8),
                               cimark.watermark.EmbeddingKey(1, 2, mode="auth"))
    finally:
        tracer.unpatch()
    assert len(tried) > 10
    assert [name for name, found in tried if not found] == []
    assert tracer.calls["watermark.fold_digest"] == tracer.calls["watermark.embed"] == 1
    assert cimark.watermark.fold_digest is original
