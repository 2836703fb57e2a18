"""The per-layer metrics that perfbench's tracer reads as 0 on each
workload, pinned.

The tracer reports 0 for a name its workload stops calling, by design, so
a change that routes work around a span would pass unseen. Each workload's
own warm-up op runs here under the tracer, and the set of metrics reading
0 must equal the table below. A change that zeroes another span, or routes
work back through one, fails here and updates the table.
"""

import sys
from pathlib import Path

import pytest

import cimark
import cimark.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ELSEWHERE = "not this workload's layer"
BYPASS = "bypass, item 1"  # the work runs, but through names no span wraps
PHASE = "a plain-versus-traced phase delta, which one op does not measure"

BATTERY = {f"battery.{name}" for name in (
    "test.s", "generate_share",
    *(f"{t}.{k}" for t in ("osum", "runs", "birthday", "cto1", "rank6x8",
                           "rank31", "rank32", "cto2") for k in ("s", "words")))}
WATERMARK = {f"watermark.{f}.{k}" for f in ("embed", "extract", "fold_digest")
             for k in ("s", "calls")} | {"watermark.embed.useful_ratio"}
IMAGING = {f"imaging.{a}.s" for a in ("crop", "rotate", "jpeg", "noise")} | {"imaging.attack.calls"}
CI_FILL = {"kernels.ci_fill.s", "kernels.ci_fill.rounds", "kernels.ci_fill.peak_alloc_mb"}
TRACE = {"trace.words_per_s_delta": PHASE, "trace.cells_per_s_delta": PHASE}


def reasons(names, reason):
    return dict.fromkeys(names, reason)


ZERO_SPANS = {
    "battery-ci": {
        **reasons({"cli.gen.s", "cli.overhead.s", "generator.bits.s"}
                  | WATERMARK | IMAGING, ELSEWHERE),
        **TRACE,
    },
    "battery-xorshift": {
        **reasons({"cli.gen.s", "cli.overhead.s", "generator.bits.s", "generator.pack.s",
                   "generator.words.s"} | CI_FILL | WATERMARK | IMAGING, ELSEWHERE),
        **TRACE,
    },
    "sweep": {
        **reasons({"cli.gen.s", "cli.overhead.s", "generator.bits.s", "generator.pack.s",
                   "generator.words.s", "gf2.matrices", "gf2.rank_many.s", "source.pull.s",
                   "source.words"} | BATTERY | CI_FILL, ELSEWHERE),
        # the sweep calls the attack halves, draws its strategy cells through
        # the low-bits table map and reads its auth images without extract
        **reasons({"imaging.rotate.s", "imaging.jpeg.s", "imaging.noise.s",
                   "kernels.xorshift_fill.s", "kernels.xorshift_fill.words",
                   "watermark.extract.s", "watermark.extract.calls"}, BYPASS),
        **TRACE,
    },
    "gen-stream": {
        **reasons({"gf2.matrices", "gf2.rank_many.s", "source.pull.s", "source.words"}
                  | BATTERY | WATERMARK | IMAGING, ELSEWHERE),
        # gen draws words; cli.overhead.s subtracts the bits span
        "generator.bits.s": BYPASS,
        **TRACE,
    },
}


# Counts pinned on the sweep's 4-cell warm-up grid: one embed (the auth one;
# the unauth image is written from the shared schedule) and one digest for
# it and for each attacked auth image (16 on the 15-cell BENCH_GRID).
CALLS = {"sweep": {"watermark.embed.calls": 1, "watermark.fold_digest.calls": 5}}


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's spans and workloads modules, imported by the names its
    run.py imports them by."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans, workloads


@pytest.mark.parametrize("name", list(ZERO_SPANS))
def test_zero_spans_pinned(perfbench, tmp_path, name):
    """The tracer on the workload's own warm-up op, as run.py installs it."""
    spans, workloads = perfbench
    assert set(ZERO_SPANS) == set(workloads.WORKLOADS)
    tracer = spans.Tracer()
    workload = workloads.build(name, cimark, 3, tracer, str(tmp_path))
    embed = cimark.watermark.embed
    tracer.install(cimark)
    try:
        tracer.enabled = True
        workload.warmup()
    finally:
        tracer.enabled = False
        tracer.unpatch()
    tracer.end_op()
    assert cimark.watermark.embed is embed
    metrics = {k: m["value"] for k, m in spans.per_layer(tracer, 1, {}).items()}
    assert set(ZERO_SPANS[name]) <= metrics.keys()
    assert {k for k, value in metrics.items() if value == 0} == set(ZERO_SPANS[name])
    for metric, count in CALLS.get(name, {}).items():
        assert metrics[metric] == count
