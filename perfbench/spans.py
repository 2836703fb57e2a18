"""Per-layer spans, recorded from outside the package.

The tracer replaces public module attributes of an imported `cimark` with
timing wrappers, so the package itself carries no instrumentation. A name
that a later refactor removes or stops calling is not an error: its span
simply reports 0 calls and 0 seconds, which keeps the bypass visible.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

# Span names whose per-op metrics are reported; see PER_LAYER below.
BATTERY_TESTS = ("osum", "runs", "birthday", "cto1", "rank6x8", "rank31",
                 "rank32", "cto2")
ATTACKS = ("crop", "rotate", "jpeg", "noise")


class Tracer:
    """In-memory span aggregates. Spans are recorded only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self._undo = []
        self.reset()

    def reset(self):
        self._stack = []  # frames: [name, start, time covered by children]
        self.total = defaultdict(float)      # inclusive seconds per span name
        self.self_time = defaultdict(float)  # minus wrapped children
        self.calls = Counter()
        self.units = Counter()               # work counted at the span
        self.under_time = defaultdict(float)  # (ancestor, name) -> seconds
        self.under_units = Counter()          # (ancestor, name) -> units
        self._largest = {}                    # span -> (size, fn, args)
        self._outputs = defaultdict(set)      # distinct results in this op
        self.distinct = Counter()             # summed over ops

    def end_op(self):
        """Close one operation: fold its distinct-output counts."""
        for name, seen in self._outputs.items():
            self.distinct[name] += len(seen)
        self._outputs.clear()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, *, label=None, units=None, size=None,
             distinct=False):
        """Timing wrapper around `fn`.

        label(args) -> span name and units(args, result) -> work count, where
        args are the call's bound arguments by parameter name (read with
        .get, so a renamed parameter reads as 0 instead of failing the op). size(args)
        ranks calls so the largest can be replayed under tracemalloc
        (peak_alloc); distinct hashes each result to count distinct outputs
        per operation.
        """
        sig = inspect.signature(fn) if (label or units or size) else None

        @functools.wraps(fn)
        def traced(*a, **kw):
            if not self.enabled:
                return fn(*a, **kw)
            args = sig.bind(*a, **kw).arguments if sig else None
            span = label(args) if label else name
            if size and size(args) > self._largest.get(span, (0,))[0]:
                self._largest[span] = (size(args), fn, copy.deepcopy((a, kw)))
            self._stack.append([span, time.perf_counter(), 0.0])
            try:
                result = fn(*a, **kw)
            finally:
                frame = self._stack.pop()
            self._close(frame, units(args, result) if units else 0)
            if distinct:
                self._outputs[span].add(hashlib.sha256(result.tobytes()).digest())
            return result

        return traced

    def peak_alloc(self, span) -> int:
        """Peak bytes tracemalloc sees while the largest recorded call to
        `span` is replayed on copies of its arguments; 0 if never called.
        Replaying keeps tracemalloc's cost out of the timed spans."""
        if span not in self._largest:
            return 0
        _, fn, (a, kw) = self._largest[span]
        tracemalloc.start()
        try:
            fn(*a, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _close(self, frame, count):
        span, start, child = frame
        dt = time.perf_counter() - start
        self.total[span] += dt
        self.self_time[span] += dt - child
        self.calls[span] += 1
        self.units[span] += count
        if self._stack:
            self._stack[-1][2] += dt
        for ancestor in {f[0] for f in self._stack}:
            self.under_time[(ancestor, span)] += dt
            self.under_units[(ancestor, span)] += count

    def patch(self, owner, attr, name, **kw):
        """Replace owner.attr with its wrapper; a missing name is skipped."""
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, **kw))
        self._undo.append((owner, attr, original))

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def unpatch(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self, cm):
        """Wrap every layer boundary of the imported package `cm`."""
        gen, bat, wm = cm.generator, cm.battery, cm.watermark
        self.patch(gen, "ci_fill", "kernels.ci_fill",
                   units=lambda a, r: a.get("rounds", 0),
                   size=lambda a: a.get("rounds", 0) * len(a.get("xbits", ())))
        self.patch(gen, "xorshift_fill", "kernels.xorshift_fill",
                   units=lambda a, r: a.get("n", 0))
        self.patch(gen.CiGenerator, "words", "generator.words")
        self.patch(gen.CiGenerator, "bits", "generator.bits")
        self.patch(bat, "run_battery", "battery.run")
        self.patch(bat, "overlapping_sums_test", "battery.osum")
        self.patch(bat, "runs_test", "battery.runs")
        self.patch(bat, "birthday_spacings_test", "battery.birthday")
        self.patch(bat, "count_the_ones_test", "battery.cto",
                   label=lambda a: "battery.cto2" if a.get("variant") == "bytes"
                   else "battery.cto1")
        self.patch(bat, "binary_rank_test", "battery.rank",
                   label=lambda a: {6: "battery.rank6x8", 31: "battery.rank31"}
                   .get(a.get("rows"), "battery.rank32"))
        self.patch(bat, "gf2_rank_many", "gf2.rank_many",
                   units=lambda a, r: len(a.get("packed", ())))
        self.patch(wm, "embed", "watermark.embed", distinct=True)
        self.patch(wm, "extract", "watermark.extract")
        self.patch(wm, "fold_digest", "watermark.fold_digest")
        for attr, attack in (("crop_attack", "crop"), ("rotate_attack", "rotate"),
                             ("jpeg_attack", "jpeg"),
                             ("gaussian_noise_attack", "noise")):
            self.patch(wm, attr, f"imaging.{attack}")
        self.patch(cm.cli, "main", "cli",
                   label=lambda a: f"cli.{(a.get('argv') or ['?'])[0]}")

    def source_pull(self, pull):
        """Span around the benchmark's own word-source pull."""
        return self.wrap(pull, "source.pull", units=lambda a, r: len(r))


# name -> unit; every traced run reports all of them, 0 where unused.
PER_LAYER = {
    "kernels.ci_fill.s": "s",
    "kernels.ci_fill.rounds": "count",
    "kernels.ci_fill.peak_alloc_mb": "MB",
    "kernels.xorshift_fill.s": "s",
    "kernels.xorshift_fill.words": "count",
    "generator.words.s": "s",
    "generator.pack.s": "s",
    "generator.bits.s": "s",
    "source.pull.s": "s",
    "source.words": "count",
    "battery.test.s": "s",
    "battery.generate_share": "ratio",
    **{f"battery.{t}.{k}": u for t in BATTERY_TESTS
       for k, u in (("s", "s"), ("words", "count"))},
    "gf2.rank_many.s": "s",
    "gf2.matrices": "count",
    **{f"watermark.{f}.{k}": u for f in ("embed", "extract", "fold_digest")
       for k, u in (("s", "s"), ("calls", "count"))},
    "watermark.embed.useful_ratio": "ratio",
    **{f"imaging.{a}.s": "s" for a in ATTACKS},
    "imaging.attack.calls": "count",
    "cli.gen.s": "s",
    "cli.overhead.s": "s",
    "trace.words_per_s_delta": "1/s",
    "trace.cells_per_s_delta": "1/s",
}


def per_layer(tr: Tracer, ops: int, deltas: dict) -> dict:
    """Per-operation layer metrics from `ops` traced operations.

    Times are seconds per operation and counts are per operation, so they
    do not depend on how many operations fit in the run.
    """
    def per_op(x):
        return x / ops

    pulls_in_battery = tr.under_time[("battery.run", "source.pull")]
    values = {
        "kernels.ci_fill.s": per_op(tr.total["kernels.ci_fill"]),
        "kernels.ci_fill.rounds": per_op(tr.units["kernels.ci_fill"]),
        "kernels.ci_fill.peak_alloc_mb": tr.peak_alloc("kernels.ci_fill") / 2**20,
        "kernels.xorshift_fill.s": per_op(tr.total["kernels.xorshift_fill"]),
        "kernels.xorshift_fill.words": per_op(tr.units["kernels.xorshift_fill"]),
        "generator.words.s": per_op(tr.total["generator.words"]),
        "generator.pack.s": per_op(
            tr.total["generator.words"]
            - tr.under_time[("generator.words", "kernels.ci_fill")]),
        "generator.bits.s": per_op(tr.total["generator.bits"]),
        "source.pull.s": per_op(tr.total["source.pull"]),
        "source.words": per_op(tr.units["source.pull"]),
        "battery.test.s": per_op(tr.total["battery.run"] - pulls_in_battery),
        "battery.generate_share": (pulls_in_battery / tr.total["battery.run"]
                                   if tr.total["battery.run"] else 0.0),
        "gf2.rank_many.s": per_op(tr.total["gf2.rank_many"]),
        "gf2.matrices": per_op(tr.units["gf2.rank_many"]),
        "watermark.embed.useful_ratio": (
            tr.distinct["watermark.embed"] / tr.calls["watermark.embed"]
            if tr.calls["watermark.embed"] else 0.0),
        "imaging.attack.calls": per_op(sum(tr.calls[f"imaging.{a}"] for a in ATTACKS)),
        "cli.gen.s": per_op(tr.total["cli.gen"]),
        "cli.overhead.s": per_op(tr.total["cli.gen"]
                                 - tr.under_time[("cli.gen", "generator.bits")]),
        "trace.words_per_s_delta": deltas.get("words", 0.0),
        "trace.cells_per_s_delta": deltas.get("cells", 0.0),
    }
    for t in BATTERY_TESTS:
        span = f"battery.{t}"
        values[f"{span}.s"] = per_op(tr.self_time[span])
        values[f"{span}.words"] = per_op(tr.under_units[(span, "source.pull")])
    for f in ("embed", "extract", "fold_digest"):
        values[f"watermark.{f}.s"] = per_op(tr.total[f"watermark.{f}"])
        values[f"watermark.{f}.calls"] = per_op(tr.calls[f"watermark.{f}"])
    for a in ATTACKS:
        values[f"imaging.{a}.s"] = per_op(tr.total[f"imaging.{a}"])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}
