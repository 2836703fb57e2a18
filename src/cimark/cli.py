"""Command-line entry point: gen | test | embed | extract | attack | bench.

Exit codes: 0 success (all tests passed, for `test`); 1 any statistical test
failed; 2 bad flags / rejected input; 3 I/O failure; 4 insufficient data;
5 internal error (any other exception; the traceback goes to stderr).
Every run is deterministic given its flags; reports echo the parsed
configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import traceback
import warnings

import numpy as np

from . import battery as bat
from . import imaging, watermark
from .generator import (CiGenerator, XorShift32, chaotic_iterate, seed_from_time,
                        vector_negation)
from .pvalues import DEFAULT_EPSILON
from .source import BitStreamSource, InsufficientDataError

# The paper's worked example: x^0 and the strategy S, read at x^0 and after
# each chunk of m = 4, 5, 4 flips.
_EXAMPLE_X0 = (1, 0, 1, 0, 0)
_EXAMPLE_S = (2, 4, 2, 2, 5, 1, 1, 5, 5, 3, 2, 3, 3)
_EXAMPLE_READS = (0, 4, 9, 13)

# `gen` produces and writes its output in pieces of this many bits (a
# multiple of 32, so no word straddles two pieces), which bounds its memory
# for any --bits.
_GEN_CHUNK_BITS = 1 << 23

BENCH_GRID = (
    [("crop", s) for s in (10, 50, 100, 200)]
    + [("rotate", a) for a in (2, 5, 10, 25)]
    + [("jpeg", level) for level in (2, 5, 10, 20)]
    + [("noise", s) for s in (1, 2, 3)]
)


def _hex32(text: str) -> int:
    value = int(text, 16)
    if not 0 <= value <= 0xFFFFFFFF:
        raise argparse.ArgumentTypeError(f"{text!r} is not a 32-bit hex word")
    return value


def _echo(args, keys):
    pairs = [f"{k}={getattr(args, k)}" for k in keys if getattr(args, k, None) is not None]
    return "config: " + " ".join(pairs)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cimark", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    stream = argparse.ArgumentParser(add_help=False)  # gen and test
    stream.add_argument("--seed1", type=_hex32, help="hex seed of the length source")
    stream.add_argument("--seed2", type=_hex32, help="hex seed of the strategy source")
    stream.add_argument("--n", type=int, default=32, help="state cells per round")
    stream.add_argument("--c", type=int, default=None, help="round length base (default 3n)")

    key = argparse.ArgumentParser(add_help=False)  # embed and extract
    key.add_argument("--seed1", type=_hex32, required=True)
    key.add_argument("--seed2", type=_hex32, required=True)
    key.add_argument("--mode", choices=("unauth", "auth"), default="unauth")
    key.add_argument("--mix", choices=("ci", "xor"), default="ci")
    key.add_argument("--repetition", type=int, default=1)

    g = sub.add_parser("gen", parents=[stream], help="emit generator output as packed bytes")
    g.add_argument("--bits", type=int, default=None)
    g.add_argument("--bytes", dest="nbytes", type=int, default=None)
    g.add_argument("--out", default=None, help="output file (default stdout)")
    g.add_argument("--raw-xorshift", action="store_true",
                   help="emit the raw XORshift word stream instead")
    g.add_argument("--emit-seed-first", action="store_true",
                   help="emit the initial state before the first round")
    g.add_argument("--seed-from-time", type=int, default=None, metavar="T",
                   help="derive the initial state from an integer timestamp fragment")
    g.add_argument("--example-trace", action="store_true",
                   help="print the reference worked-example output bits and exit")
    g.set_defaults(handler=cmd_gen)

    t = sub.add_parser("test", parents=[stream], help="run the statistical battery")
    t.add_argument("--in", dest="infile", default=None, help="packed-byte stream file")
    t.add_argument("--gen", choices=("ci", "xorshift"), default=None,
                   help="test a live generator instead of a file")
    t.add_argument("--scale", choices=("desk", "canonical"), default="desk")
    t.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    t.add_argument("--format", choices=("table", "csv", "json"), default="table")
    t.set_defaults(handler=cmd_test)

    e = sub.add_parser("embed", parents=[key], help="embed a watermark")
    e.add_argument("--carrier", required=True)
    e.add_argument("--watermark", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(handler=cmd_embed)

    x = sub.add_parser("extract", parents=[key], help="extract a watermark")
    x.add_argument("--in", dest="infile", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--wm-width", type=int, default=64)
    x.add_argument("--wm-height", type=int, default=64)
    x.set_defaults(handler=cmd_extract)

    a = sub.add_parser("attack", help="apply one attack, write image + sidecar")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--attack", choices=tuple(watermark.ATTACKS), required=True)
    a.add_argument("--param", type=float, required=True)
    a.add_argument("--noise-seed", type=_hex32, default=None)
    a.set_defaults(handler=cmd_attack)

    b = sub.add_parser("bench", help="full attack-robustness table")
    b.add_argument("--carrier", required=True)
    b.add_argument("--watermark", required=True)
    b.add_argument("--seed1", type=_hex32, required=True)
    b.add_argument("--seed2", type=_hex32, required=True)
    b.add_argument("--noise-seed", type=_hex32, required=True,
                   help="explicit seed for the noise attacks (no wall-clock default)")
    b.add_argument("--format", choices=("table", "csv", "json"), default="table")
    b.set_defaults(handler=cmd_bench)
    return p


# ---------------------------------------------------------------------------


def _stream(args, raw: bool):
    """(description, draw) of the generator the flags name: raw XORshift on
    --seed1, or the CI generator. draw(n) returns its next n 32-bit words."""
    if args.seed1 is None or (not raw and args.seed2 is None):
        raise ValueError("--seed1/--seed2 are required")
    if raw:
        return f"xorshift(seed={args.seed1:#x})", XorShift32(args.seed1).fill
    x0 = None
    if getattr(args, "seed_from_time", None) is not None:
        x0 = seed_from_time(args.seed_from_time, args.n)
        print(f"seed-from-time: t={args.seed_from_time} -> x0="
              f"{''.join(map(str, x0))}", file=sys.stderr)
    gen = CiGenerator(x0, args.seed1, args.seed2,
                      n_cells=args.n if x0 is None else None, c=args.c,
                      emit_seed_first=getattr(args, "emit_seed_first", False))
    return f"ci(seed1={args.seed1:#x}, seed2={args.seed2:#x})", gen.words


def _gen_chunk(draw, nbits: int) -> bytes:
    """The next nbits of the stream: ceil(nbits/32) words from `draw`,
    big-endian, cut to ceil(nbits/8) bytes; the pad bits of a partial last
    byte are cleared."""
    out = draw(-(-nbits // 32)).astype(">u4").view(np.uint8)[:-(-nbits // 8)]
    if nbits % 8:
        out[-1] &= np.uint8(0xFF << (8 - nbits % 8) & 0xFF)
    return out.tobytes()


def cmd_gen(args) -> int:
    if args.example_trace:
        states = chaotic_iterate(_EXAMPLE_X0, vector_negation, _EXAMPLE_S, len(_EXAMPLE_S))
        print("".join(str(b) for t in _EXAMPLE_READS for b in states[t]))
        return 0
    if (args.bits is None) == (args.nbytes is None):
        raise ValueError("exactly one of --bits/--bytes is required")
    nbits = args.bits if args.bits is not None else 8 * args.nbytes
    if nbits < 0:
        raise ValueError("--bits/--bytes must be nonnegative")
    _, draw = _stream(args, args.raw_xorshift)
    sink = open(args.out, "wb") if args.out \
        else contextlib.nullcontext(sys.stdout.buffer)
    seconds = 0.0  # spent drawing, not writing
    with sink as fh:
        for start in range(0, nbits, _GEN_CHUNK_BITS):
            t0 = time.perf_counter()
            data = _gen_chunk(draw, min(_GEN_CHUNK_BITS, nbits - start))
            seconds += time.perf_counter() - t0
            fh.write(data)
    words = -(-nbits // 32)  # pieces are whole words but the last
    print(_echo(args, ("seed1", "seed2", "n", "c", "bits", "nbytes",
                       "raw_xorshift", "emit_seed_first"))
          + f" words_per_s={bat._per_s(words, seconds):.0f}"
          + f" peak_rss_mb={bat._peak_rss_mb():.1f}", file=sys.stderr)
    return 0


def cmd_test(args) -> int:
    if (args.infile is None) == (args.gen is None):
        raise ValueError("exactly one of --in/--gen is required")
    cfg_cls = bat.BatteryConfig.canonical if args.scale == "canonical" \
        else bat.BatteryConfig.desk
    cfg = cfg_cls(epsilon=args.epsilon)  # rejects a bad epsilon before any read
    if args.infile:
        src = BitStreamSource.from_file(args.infile)
    else:
        src = BitStreamSource(*_stream(args, args.gen == "xorshift"))
    report = bat.run_battery(src, cfg)
    if args.format == "table":
        print(report.render_table())
    elif args.format == "csv":
        print(report.render_csv())
    else:
        print(report.to_json())
    return 0 if report.all_passed else 1


def _key(args) -> watermark.EmbeddingKey:
    return watermark.EmbeddingKey(args.seed1, args.seed2, mode=args.mode,
                                  mix=args.mix, repetition=args.repetition)


def cmd_embed(args) -> int:
    carrier = imaging.load_pgm(args.carrier)
    wm = imaging.load_pbm(args.watermark)
    marked = watermark.embed(carrier, wm, _key(args))
    imaging.save_pgm(marked, args.out)
    print(_echo(args, ("carrier", "watermark", "out", "seed1", "seed2",
                       "mode", "mix", "repetition")), file=sys.stderr)
    return 0


def cmd_extract(args) -> int:
    img = imaging.load_pgm(args.infile)
    wm = watermark.extract(img, _key(args), wm_dims=(args.wm_height, args.wm_width))
    imaging.save_pbm(wm, args.out)
    print(_echo(args, ("infile", "out", "seed1", "seed2", "mode", "mix",
                       "repetition", "wm_width", "wm_height")), file=sys.stderr)
    return 0


def cmd_attack(args) -> int:
    img = imaging.load_pgm(args.infile)
    out = watermark.ATTACKS[args.attack](img, args.param, args.noise_seed)
    ratio = imaging.psnr(img, out)
    imaging.save_pgm(out, args.out)
    sidecar = {
        "kind": args.attack,
        "parameter": args.param,
        "noise_seed": args.noise_seed,
        "input": args.infile,
        "output": args.out,
        "psnr_db": "inf" if ratio == float("inf") else round(ratio, 4),
    }
    with open(args.out + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    return 0


_FAMILY_LABEL = {
    "crop": ("Cropping", "Size (pixels)"),
    "rotate": ("Rotation", "Angle (degree)"),
    "jpeg": ("JPEG compression", "Compression"),
    "noise": ("Gaussian noise", "Standard dev."),
}


def cmd_bench(args) -> int:
    carrier = imaging.load_pgm(args.carrier)
    wm = imaging.load_pbm(args.watermark)
    start = time.perf_counter()
    rows = watermark.robustness_sweep(carrier, wm, args.seed1, args.seed2,
                                      BENCH_GRID, noise_seed=args.noise_seed)
    seconds = time.perf_counter() - start
    cells = {}
    for kind, param, mode, sim in rows:
        cells.setdefault(kind, {}).setdefault(param, {})[mode] = sim
    if args.format == "table":
        print(f"Attacks (seed1={args.seed1:#x} seed2={args.seed2:#x} "
              f"noise_seed={args.noise_seed:#x})")
        print(f"{'':>16} {'UNAUTHENTICATION':>18} {'AUTHENTICATION':>16}")
        for kind, params in cells.items():
            family, col = _FAMILY_LABEL[kind]
            print(f"\n{family}\n{col:>16} {'Similarity':>18} {'Similarity':>16}")
            for param, modes in params.items():
                print(f"{param:>16g} {modes['unauth']:>17.2f}% {modes['auth']:>15.2f}%")
    elif args.format == "csv":
        print("attack,parameter,mode,similarity")
        for kind, param, mode, sim in rows:
            print(f"{kind},{param:g},{mode},{sim:.4f}")
    else:
        print(json.dumps({
            "config": {"seed1": args.seed1, "seed2": args.seed2,
                       "noise_seed": args.noise_seed,
                       "carrier": args.carrier, "watermark": args.watermark},
            "rows": [{"attack": k, "parameter": p, "mode": m, "similarity": s}
                     for k, p, m, s in rows],
            "seconds": seconds,  # the sweep alone, not the image loads
            "shared_work": watermark.shared_work(BENCH_GRID),
            "peak_rss_mb": bat._peak_rss_mb(),
        }, indent=2))
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # no source path or line
        try:
            return args.handler(args)
        except (ValueError, imaging.ImageFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except InsufficientDataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except Exception as exc:  # never let a crash read as "a test failed" (1)
            traceback.print_exc(file=sys.stderr)
            print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 5


if __name__ == "__main__":
    sys.exit(main())
