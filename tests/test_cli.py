import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cimark.cli import build_parser, main
from cimark.generator import CiGenerator, XorShift32
from cimark.imaging import (
    load_pbm,
    load_pgm,
    save_pbm,
    save_pgm,
    synthetic_carrier,
    synthetic_watermark,
)
from cimark.watermark import similarity


# `gen` flags after --seed1 13579BDF, and the reference bits of the same
# stream. The keys are the test ids: False and True say whether the stream
# is raw XORshift; "n5-seed-first" emits the initial state first, so the
# words straddle the N = 5 states and start inside the unread tail.
_GEN_CASES = {
    False: (["--seed2", "2468ACE0", "--n", "24"],
            lambda nbits: CiGenerator(None, 0x13579BDF, 0x2468ACE0, n_cells=24).bits(nbits)),
    True: (["--raw-xorshift"],
           lambda nbits: np.unpackbits(XorShift32(0x13579BDF).fill(-(-nbits // 32))
                                       .astype(">u4").view(np.uint8))[:nbits]),
    "n5-seed-first": (["--seed2", "2468ACE0", "--n", "5", "--emit-seed-first"],
                      lambda nbits: CiGenerator(None, 0x13579BDF, 0x2468ACE0, n_cells=5,
                                                emit_seed_first=True).bits(nbits)),
}


@pytest.fixture
def images(tmp_path):
    carrier = tmp_path / "carrier.pgm"
    wm = tmp_path / "wm.pbm"
    save_pgm(synthetic_carrier(3), carrier)
    save_pbm(synthetic_watermark(0), wm)
    return carrier, wm


class TestGen:
    def test_example_trace(self, capsys):
        assert main(["gen", "--example-trace"]) == 0
        assert capsys.readouterr().out.strip() == "10100111101111110011"

    def test_zero_bits(self, tmp_path):
        out = tmp_path / "empty.bin"
        assert main(["gen", "--seed1", "1", "--seed2", "2", "--bits", "0",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_determinism_hash(self, tmp_path):
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for p in paths:
            assert main(["gen", "--seed1", "DEADBEEF", "--seed2", "C0FFEE11",
                         "--bits", str(10**6), "--out", str(p)]) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
        assert digests[0] == digests[1]
        assert paths[0].stat().st_size == 10**6 // 8

    def test_raw_xorshift_stream(self, tmp_path):
        out = tmp_path / "xs.bin"
        assert main(["gen", "--seed1", "1", "--raw-xorshift", "--bits", "64",
                     "--out", str(out)]) == 0
        words = np.frombuffer(out.read_bytes(), dtype=">u4")
        assert words[0] == 270369  # first round from seed 1

    def test_stdout_equals_file_output(self, tmp_path, capsysbinary):
        out = tmp_path / "s.bin"
        assert main(["gen", "--seed1", "AB", "--seed2", "CD", "--bits", "4096",
                     "--out", str(out)]) == 0
        assert main(["gen", "--seed1", "AB", "--seed2", "CD",
                     "--bits", "4096"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("case", list(_GEN_CASES))
    @pytest.mark.parametrize("nbits", [0, 1, 63, 64, 65, 255, 256, 1001, 4099])
    def test_chunked_output_byte_identical(self, tmp_path, monkeypatch, case, nbits):
        from cimark import cli

        monkeypatch.setattr(cli, "_GEN_CHUNK_BITS", 64)
        out = tmp_path / "c.bin"
        flags, reference = _GEN_CASES[case]
        assert main(["gen", "--seed1", "13579BDF", *flags, "--bits", str(nbits),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == np.packbits(reference(nbits)).tobytes()

    def test_memory_bounded_by_chunk(self, tmp_path, monkeypatch):
        # 2^24 bits in 2^16-bit chunks; one piece in memory would need 16 MB
        from cimark import cli

        monkeypatch.setattr(cli, "_GEN_CHUNK_BITS", 1 << 16)
        out = tmp_path / "m.bin"
        tracemalloc.start()
        try:
            assert main(["gen", "--seed1", "1", "--seed2", "2", "--bits",
                         str(1 << 24), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == 1 << 21
        assert peak < 8 << 20

    def test_config_reports_cost(self, tmp_path, capsys):
        # the config echo ends with the generation rate and the peak RSS
        assert main(["gen", "--seed1", "1", "--seed2", "2", "--bits", "100000",
                     "--out", str(tmp_path / "r.bin")]) == 0
        peak_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        line = capsys.readouterr().err.strip()
        assert line.startswith("config: seed1=1 seed2=2 n=32 bits=100000 ")
        fields = dict(kv.split("=") for kv in line.split()[-2:])
        assert list(fields) == ["words_per_s", "peak_rss_mb"]
        assert float(fields["words_per_s"]) > 0
        assert 0 < float(fields["peak_rss_mb"]) <= peak_after + 0.1

    def test_seed_from_time(self, tmp_path, capsys):
        out = tmp_path / "t.bin"
        assert main(["gen", "--seed1", "1", "--seed2", "2", "--n", "5",
                     "--seed-from-time", "484084", "--emit-seed-first",
                     "--bits", "8", "--out", str(out)]) == 0
        assert "x0=10100" in capsys.readouterr().err
        bits = np.unpackbits(np.frombuffer(out.read_bytes(), dtype=np.uint8))
        assert "".join(map(str, bits[:5])) == "10100"
        assert np.array_equal(bits[5:], CiGenerator((1, 0, 1, 0, 0), 1, 2).bits(3))

    def test_bits_and_bytes_exclusive(self):
        assert main(["gen", "--seed1", "1", "--seed2", "2",
                     "--bits", "8", "--bytes", "1"]) == 2

    def test_missing_count(self):
        assert main(["gen", "--seed1", "1", "--seed2", "2"]) == 2

    @pytest.mark.parametrize("command", [["gen", "--bits", "8"], ["test", "--gen", "ci"],
                                         ["gen", "--bits", "8", "--seed-from-time", "7"]])
    def test_negative_cell_count(self, command, capsys):
        assert main(command + ["--seed1", "1", "--seed2", "2", "--n", "-5"]) == 2
        assert "error: state must be a 1-D vector of >= 2 cells" in capsys.readouterr().err

    def test_c_below_one(self, capsys):
        assert main(["gen", "--seed1", "1", "--seed2", "2", "--bits", "8", "--c", "0"]) == 2
        assert "error: c must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["gen", "--bits", "10"], ["test", "--gen", "ci"]])
    @pytest.mark.parametrize("c", [2**63, 10**20])
    def test_c_past_int64_flip_count(self, command, c, capsys):
        """Such a c used to exit 5 with an OverflowError from ci_fill."""
        assert main(command + ["--seed1", "1", "--seed2", "2", "--c", str(c)]) == 2
        assert f"error: c = {c} is too large" in capsys.readouterr().err


class TestTest:
    def test_xorshift_fails_named_rows(self, capsys):
        rc = main(["test", "--gen", "xorshift", "--seed1", "13579BDF",
                   "--format", "csv"])
        assert rc == 1
        rows = capsys.readouterr().out.splitlines()
        failing = {r.split(",")[1] for r in rows[1:] if r.split(",")[3] == "fail"}
        assert failing == {"Count the ones 1", "Binary Rank 31x31",
                           "Binary Rank 32x32"}

    def test_file_input_insufficient(self, tmp_path, capsys):
        blob = tmp_path / "short.bin"
        blob.write_bytes(b"\x12\x34" * 1000)
        assert main(["test", "--in", str(blob)]) == 4
        # the count is the test's whole draw (100 samples of 199 words)
        assert "Overlapping Sum: needs 19900 words, only 500 available" \
            in capsys.readouterr().err

    def test_partial_word_warning(self, tmp_path, monkeypatch, capsys):
        # a warning prints like an error, without the program's source
        monkeypatch.chdir(tmp_path)
        (tmp_path / "partial.bin").write_bytes(b"\x12" * 2001)
        assert main(["test", "--in", "partial.bin"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0] == ("warning: partial.bin: ignoring the last 1 byte(s), "
                          "which do not fill a 32-bit word")
        assert err[1].startswith("error: Overlapping Sum: needs 19900 words")
        assert len(err) == 2 and not any("cli.py" in line for line in err)

    def test_file_one_word_short(self, tmp_path, capsys):
        from cimark.battery import BatteryConfig, battery_word_budget

        blob = tmp_path / "short.bin"
        blob.write_bytes(b"\x00" * (4 * (battery_word_budget(BatteryConfig()) - 1)))
        assert main(["test", "--in", str(blob)]) == 4
        assert "Count the ones 2: needs 1024000 words, only 1023999 available" \
            in capsys.readouterr().err

    def test_constant_file_fails(self, tmp_path):
        from cimark.battery import BatteryConfig, battery_word_budget

        blob = tmp_path / "zeros.bin"
        blob.write_bytes(b"\x00" * (4 * battery_word_budget(BatteryConfig())))
        assert main(["test", "--in", str(blob)]) == 1

    @pytest.mark.parametrize("flags, code, source", [
        (["--gen", "ci", "--seed1", "1", "--seed2", "2"], 0, "ci(seed1=0x1, seed2=0x2)"),
        (["--gen", "xorshift", "--seed1", "13579BDF"], 1, "xorshift(seed=0x13579bdf)"),
    ], ids=["ci", "xorshift"])
    def test_json_format(self, capsys, flags, code, source):
        rc = main(["test", *flags, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == code
        assert len(payload["results"]) == 8
        assert payload["source"] == source
        # the process's peak so far, read when the battery ended
        peak_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 0 < payload["peak_rss_mb"] <= peak_after
        # words per second of drawing, per test and for the run
        for r in payload["results"]:
            assert r["generate_words_per_s"] == pytest.approx(r["words"] / r["generate_seconds"])
        generate = sum(r["generate_seconds"] for r in payload["results"])
        assert payload["generate_words_per_s"] == \
            pytest.approx(payload["words_consumed"] / generate)

    def test_generated_file_feeds_battery(self, tmp_path, capsys):
        # the packed-byte file interface matches the in-process word stream
        from cimark.battery import BatteryConfig, battery_word_budget

        nbits = 32 * battery_word_budget(BatteryConfig())
        blob = tmp_path / "ci.bin"
        assert main(["gen", "--seed1", "13579BDF", "--seed2", "2468ACE0",
                     "--bits", str(nbits), "--out", str(blob)]) == 0
        capsys.readouterr()
        rc = main(["test", "--in", str(blob), "--format", "csv"])
        file_csv = capsys.readouterr().out
        assert rc == 0
        rc = main(["test", "--gen", "ci", "--seed1", "13579BDF",
                   "--seed2", "2468ACE0", "--format", "csv"])
        live_csv = capsys.readouterr().out
        assert rc == 0
        # equal rows, apart from the two timing columns
        assert [row.rsplit(",", 2)[0] for row in file_csv.splitlines()] == \
            [row.rsplit(",", 2)[0] for row in live_csv.splitlines()]

    def test_requires_exactly_one_source(self):
        assert main(["test"]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1", "0.5"])
    def test_bad_epsilon_rejected_before_drawing(self, monkeypatch, capsys, eps):
        """An epsilon outside (0, 0.5) used to fail nothing (NaN, 0, -1) or
        everything; it now exits 2 before a single word is drawn."""
        def no_draw(*_):
            raise AssertionError("drew words")

        monkeypatch.setattr("cimark.source.BitStreamSource.words", no_draw)
        assert main(["test", "--gen", "xorshift", "--seed1", "13579BDF",
                     f"--epsilon={eps}"]) == 2
        assert "epsilon must be in (0, 0.5)" in capsys.readouterr().err


class TestWatermarkCommands:
    def test_embed_extract_roundtrip(self, tmp_path, images):
        carrier, wm = images
        marked = tmp_path / "marked.pgm"
        recovered = tmp_path / "rec.pbm"
        assert main(["embed", "--carrier", str(carrier), "--watermark", str(wm),
                     "--out", str(marked), "--seed1", "1111AAAA",
                     "--seed2", "2222BBBB"]) == 0
        assert main(["extract", "--in", str(marked), "--out", str(recovered),
                     "--seed1", "1111AAAA", "--seed2", "2222BBBB"]) == 0
        assert similarity(load_pbm(recovered), synthetic_watermark(0)) == 100.0

    def test_embed_capacity_error(self, tmp_path, images):
        _, wm = images
        small = tmp_path / "small.pgm"
        save_pgm(synthetic_carrier(0)[:16, :16], small)
        assert main(["embed", "--carrier", str(small), "--watermark", str(wm),
                     "--out", str(tmp_path / "x.pgm"), "--seed1", "1",
                     "--seed2", "2"]) == 2

    def test_empty_watermark_rejected(self, tmp_path, images, capsys):
        carrier, _ = images
        empty = tmp_path / "empty.pbm"
        empty.write_bytes(b"P4\n0 0\n")
        assert main(["embed", "--carrier", str(carrier), "--watermark", str(empty),
                     "--out", str(tmp_path / "x.pgm"), "--seed1", "1",
                     "--seed2", "2"]) == 2
        assert "error: the watermark must hold at least one bit" in capsys.readouterr().err

    @pytest.mark.parametrize("width, height", [("0", "64"), ("64", "0"), ("-3", "64")])
    def test_extract_rejects_non_positive_dims(self, tmp_path, images, capsys,
                                               width, height):
        carrier, _ = images
        assert main(["extract", "--in", str(carrier), "--out", str(tmp_path / "o.pbm"),
                     "--seed1", "1", "--seed2", "2", "--wm-width", width,
                     "--wm-height", height]) == 2
        assert (f"error: watermark dimensions must be positive, got {width}x{height}"
                in capsys.readouterr().err)

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["extract", "--in", str(tmp_path / "nope.pgm"),
                     "--out", str(tmp_path / "o.pbm"),
                     "--seed1", "1", "--seed2", "2"]) == 3

    def test_attack_writes_sidecar(self, tmp_path, images):
        carrier, _ = images
        out = tmp_path / "att.pgm"
        assert main(["attack", "--in", str(carrier), "--out", str(out),
                     "--attack", "crop", "--param", "50"]) == 0
        att = load_pgm(out)
        assert att.shape == (256, 256)
        sidecar = json.loads((tmp_path / "att.pgm.json").read_text())
        assert sidecar["kind"] == "crop"
        assert sidecar["parameter"] == 50

    def test_noise_attack_needs_seed(self, tmp_path, images):
        carrier, _ = images
        out = tmp_path / "n.pgm"
        assert main(["attack", "--in", str(carrier), "--out", str(out),
                     "--attack", "noise", "--param", "3"]) == 2
        assert not out.exists()
        assert not (tmp_path / "n.pgm.json").exists()

    def test_noise_attack_with_seed(self, tmp_path, images):
        carrier, _ = images
        out = tmp_path / "n.pgm"
        assert main(["attack", "--in", str(carrier), "--out", str(out),
                     "--attack", "noise", "--param", "3",
                     "--noise-seed", "5EED"]) == 0
        sidecar = json.loads((tmp_path / "n.pgm.json").read_text())
        assert sidecar["noise_seed"] == 0x5EED

    @pytest.mark.parametrize("kind, param", [
        ("jpeg", "nan"), ("jpeg", "inf"), ("jpeg", "-inf"),
        ("noise", "nan"), ("noise", "inf"),
        ("crop", "nan"), ("crop", "inf"), ("crop", "-inf"),
        ("rotate", "nan"), ("rotate", "inf"),
    ])
    def test_non_finite_param_rejected(self, tmp_path, images, capsys, kind, param):
        """NaN and infinite parameters exit 2 with a message and write no
        image (jpeg and noise used to write an all-zero one, crop to exit 5)."""
        carrier, _ = images
        out = tmp_path / "o.pgm"
        assert main(["attack", "--in", str(carrier), "--out", str(out),
                     "--attack", kind, f"--param={param}", "--noise-seed", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("dims", [b"-1 4", b"0 4"], ids=["negative", "empty"])
    def test_degenerate_image_rejected(self, tmp_path, capsys, dims):
        """A negative dimension fails to load and an empty image has no PSNR:
        both exit 2 and write neither the image nor its sidecar."""
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\x00" * 8)
        out = tmp_path / "o.pgm"
        assert main(["attack", "--in", str(bad), "--out", str(out),
                     "--attack", "crop", "--param", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert not (tmp_path / "o.pgm.json").exists()

    def test_malformed_image_rejected(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n8 8\n255\nxx")
        assert main(["attack", "--in", str(bad), "--out", str(tmp_path / "o.pgm"),
                     "--attack", "crop", "--param", "2"]) == 2


class TestBench:
    def test_bench_table_and_bands(self, images, capsys):
        carrier, wm = images
        rc = main(["bench", "--carrier", str(carrier), "--watermark", str(wm),
                   "--seed1", "1111AAAA", "--seed2", "2222BBBB",
                   "--noise-seed", "5EED", "--format", "csv"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 30  # 15 cells x 2 modes
        table = {}
        for row in rows:
            kind, param, mode, sim = row.split(",")
            table[(kind, float(param), mode)] = float(sim)
        crops = [table[("crop", s, "unauth")] for s in (10, 50, 100, 200)]
        assert all(a >= b for a, b in zip(crops, crops[1:]))
        auth = [v for (k, p, m), v in table.items() if m == "auth"]
        assert all(v <= 80.0 for v in auth)

    def test_bench_json_reports_cost(self, images, capsys):
        carrier, wm = images
        rc = main(["bench", "--carrier", str(carrier), "--watermark", str(wm),
                   "--seed1", "1111AAAA", "--seed2", "2222BBBB",
                   "--noise-seed", "5EED", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 30
        assert 0 < payload["seconds"] < 60
        assert payload["peak_rss_mb"] > 10
        # test_shared_work_counted checks these counts against the calls made
        assert payload["shared_work"] == {"forward_dcts": 2, "rotation_maps": 4,
                                          "noise_draws": 1, "key_schedules": 17}

    def test_bench_requires_noise_seed(self, images):
        carrier, wm = images
        with pytest.raises(SystemExit) as err:
            main(["bench", "--carrier", str(carrier), "--watermark", str(wm),
                  "--seed1", "1", "--seed2", "2"])
        assert err.value.code == 2


class TestExitCodes:
    @pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError(), KeyError("k")])
    def test_uncaught_error_exits_5(self, monkeypatch, capsys, exc):
        from cimark import cli

        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_gen", broken)
        assert main(["gen", "--seed1", "1", "--seed2", "2", "--bits", "8"]) == 5
        err = capsys.readouterr().err
        assert f"error: internal: {type(exc).__name__}" in err.splitlines()[-1]


# Every integer flag takes each of these values, on a command whose work is
# bounded; each must run or be refused (exit 0, 1 or 2), never crash (5).
_EDGE_VALUES = (0, -1, 2**31, 2**63, 10**20)
# Left out because the run they ask for is valid and its work unbounded or
# too long for Tier-1: --bits and --bytes from 2^31 up (that many output
# bits), and --c 2^31 (two rounds of over 2^31 flips, seconds each).
_UNBOUNDED = {"--bits": (2**31, 2**63, 10**20), "--bytes": (2**31, 2**63, 10**20),
              "--c": (2**31,)}
_GEN = ["gen", "--seed1", "1", "--seed2", "2", "--out", "o.bin"]
_EXTRACT = ["extract", "--in", "c.pgm", "--out", "o.pbm", "--seed1", "1", "--seed2", "2"]
_FLAG_RUNS = [
    ("--n", _GEN + ["--bits", "64"]),
    ("--n", ["test", "--gen", "ci", "--seed1", "1", "--seed2", "2"]),
    ("--c", _GEN + ["--bits", "64"]),
    ("--c", ["test", "--gen", "ci", "--seed1", "1", "--seed2", "2"]),
    ("--bits", _GEN),
    ("--bytes", _GEN),
    ("--repetition", ["embed", "--carrier", "c.pgm", "--watermark", "w.pbm", "--out",
                      "m.pgm", "--seed1", "1", "--seed2", "2"]),
    ("--repetition", _EXTRACT),
    ("--wm-width", _EXTRACT),
    ("--wm-height", _EXTRACT),
    ("--seed-from-time", _GEN + ["--bits", "64"]),
]
# Runs argv lists (JSON, argv[2]) through cli.main and writes the exit codes
# to argv[1]; stdout and stderr are the child's own.
_MAIN_SCRIPT = """
import json, sys
from cimark.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
with open(sys.argv[1], "w") as fh:
    json.dump(codes, fh)
"""


def _limit_address_space():
    # An over-allocation then raises MemoryError in the child (exit 5)
    # instead of waking the host's out-of-memory killer.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestEveryAcceptedValue:
    @pytest.mark.parametrize("flag, command", _FLAG_RUNS,
                             ids=[f"{f}-{c[0]}" for f, c in _FLAG_RUNS])
    def test_runs_or_exits_2(self, tmp_path, flag, command):
        """One child process per flag and command, its address space capped
        at 1 GiB, runs the command with each value of the flag."""
        save_pgm(synthetic_carrier(3), tmp_path / "c.pgm")
        save_pbm(synthetic_watermark(0), tmp_path / "w.pbm")
        values = [v for v in _EDGE_VALUES if v not in _UNBOUNDED.get(flag, ())]
        argvs = [command + [flag, str(v)] for v in values]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _MAIN_SCRIPT, "codes.json", json.dumps(argvs)],
                             cwd=tmp_path, env=env, preexec_fn=_limit_address_space,
                             capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode(errors="replace")
        got = dict(zip(values, json.loads((tmp_path / "codes.json").read_text())))
        assert set(got.values()) <= {0, 1, 2}, (got, run.stderr.decode(errors="replace"))

    def test_too_many_cells_refused(self, capsys):
        """Past 2**20 cells the generator's prefix buffer would grow as 4N
        bytes, so the count is refused before any state is drawn."""
        for kwargs in (dict(n_cells=2**20 + 1), dict(n_cells=2**31)):
            with pytest.raises(ValueError, match=r"N = \d+ cells is too many.*4 MiB"):
                CiGenerator(None, 1, 2, **kwargs)
        with pytest.raises(ValueError, match="too many"):
            CiGenerator(np.zeros(2**20 + 1, dtype=np.uint8), 1, 2)
        assert CiGenerator.from_seeds(1, 2, n_cells=2**20).n_cells == 2**20
        assert main(["gen", "--seed1", "1", "--seed2", "2", "--bits", "8",
                     "--seed-from-time", "3", "--n", str(2**31)]) == 2
        assert "N = 2147483648 cells is too many" in capsys.readouterr().err


# argv lists, two or more per command, and the namespace each parsed to when
# every command declared its own flags (the bound handler aside).
_PARSED = [
    (["gen", "--seed1", "1", "--seed2", "2", "--bits", "64"],
     dict(command="gen", seed1=1, seed2=2, n=32, c=None, bits=64, nbytes=None, out=None,
          raw_xorshift=False, emit_seed_first=False, seed_from_time=None,
          example_trace=False)),
    (["gen", "--example-trace"],
     dict(command="gen", seed1=None, seed2=None, n=32, c=None, bits=None, nbytes=None,
          out=None, raw_xorshift=False, emit_seed_first=False, seed_from_time=None,
          example_trace=True)),
    (["gen", "--seed1", "DEADBEEF", "--seed2", "0", "--n", "24", "--c", "5", "--bytes", "3",
      "--out", "o.bin", "--raw-xorshift", "--emit-seed-first", "--seed-from-time", "7"],
     dict(command="gen", seed1=0xDEADBEEF, seed2=0, n=24, c=5, bits=None, nbytes=3,
          out="o.bin", raw_xorshift=True, emit_seed_first=True, seed_from_time=7,
          example_trace=False)),
    (["test", "--gen", "ci", "--seed1", "1", "--seed2", "2"],
     dict(command="test", infile=None, gen="ci", seed1=1, seed2=2, n=32, c=None,
          scale="desk", epsilon=0.0001, format="table")),
    (["test", "--in", "s.bin", "--n", "31", "--c", "9", "--scale", "canonical",
      "--epsilon", "0.01", "--format", "json"],
     dict(command="test", infile="s.bin", gen=None, seed1=None, seed2=None, n=31, c=9,
          scale="canonical", epsilon=0.01, format="json")),
    (["embed", "--carrier", "c.pgm", "--watermark", "w.pbm", "--out", "m.pgm",
      "--seed1", "1", "--seed2", "2"],
     dict(command="embed", carrier="c.pgm", watermark="w.pbm", out="m.pgm", seed1=1,
          seed2=2, mode="unauth", mix="ci", repetition=1)),
    (["embed", "--carrier", "c.pgm", "--watermark", "w.pbm", "--out", "m.pgm",
      "--seed1", "a", "--seed2", "b", "--mode", "auth", "--mix", "xor", "--repetition", "3"],
     dict(command="embed", carrier="c.pgm", watermark="w.pbm", out="m.pgm", seed1=10,
          seed2=11, mode="auth", mix="xor", repetition=3)),
    (["extract", "--in", "m.pgm", "--out", "w.pbm", "--seed1", "1", "--seed2", "2"],
     dict(command="extract", infile="m.pgm", out="w.pbm", seed1=1, seed2=2, mode="unauth",
          mix="ci", repetition=1, wm_width=64, wm_height=64)),
    (["extract", "--in", "m.pgm", "--out", "w.pbm", "--seed1", "1", "--seed2", "2",
      "--mode", "auth", "--mix", "xor", "--repetition", "5", "--wm-width", "32",
      "--wm-height", "16"],
     dict(command="extract", infile="m.pgm", out="w.pbm", seed1=1, seed2=2, mode="auth",
          mix="xor", repetition=5, wm_width=32, wm_height=16)),
    (["attack", "--in", "a.pgm", "--out", "b.pgm", "--attack", "crop", "--param", "50"],
     dict(command="attack", infile="a.pgm", out="b.pgm", attack="crop", param=50.0,
          noise_seed=None)),
    (["attack", "--in", "a.pgm", "--out", "b.pgm", "--attack", "noise", "--param", "2",
      "--noise-seed", "ff"],
     dict(command="attack", infile="a.pgm", out="b.pgm", attack="noise", param=2.0,
          noise_seed=255)),
    (["bench", "--carrier", "c.pgm", "--watermark", "w.pbm", "--seed1", "1", "--seed2", "2",
      "--noise-seed", "3"],
     dict(command="bench", carrier="c.pgm", watermark="w.pbm", seed1=1, seed2=2,
          noise_seed=3, format="table")),
    (["bench", "--carrier", "c.pgm", "--watermark", "w.pbm", "--seed1", "1", "--seed2", "2",
      "--noise-seed", "3", "--format", "csv"],
     dict(command="bench", carrier="c.pgm", watermark="w.pbm", seed1=1, seed2=2,
          noise_seed=3, format="csv")),
]

# (dest, default, required) of every flag of each command.
_FLAGS = {
    "gen": [("bits", None, False), ("c", None, False), ("emit_seed_first", False, False),
            ("example_trace", False, False), ("n", 32, False), ("nbytes", None, False),
            ("out", None, False), ("raw_xorshift", False, False), ("seed1", None, False),
            ("seed2", None, False), ("seed_from_time", None, False)],
    "test": [("c", None, False), ("epsilon", 0.0001, False), ("format", "table", False),
             ("gen", None, False), ("infile", None, False), ("n", 32, False),
             ("scale", "desk", False), ("seed1", None, False), ("seed2", None, False)],
    "embed": [("carrier", None, True), ("mix", "ci", False), ("mode", "unauth", False),
              ("out", None, True), ("repetition", 1, False), ("seed1", None, True),
              ("seed2", None, True), ("watermark", None, True)],
    "extract": [("infile", None, True), ("mix", "ci", False), ("mode", "unauth", False),
                ("out", None, True), ("repetition", 1, False), ("seed1", None, True),
                ("seed2", None, True), ("wm_height", 64, False), ("wm_width", 64, False)],
    "attack": [("attack", None, True), ("infile", None, True), ("noise_seed", None, False),
               ("out", None, True), ("param", None, True)],
    "bench": [("carrier", None, True), ("format", "table", False), ("noise_seed", None, True),
              ("seed1", None, True), ("seed2", None, True), ("watermark", None, True)],
}


class TestParser:
    @pytest.mark.parametrize("argv, expected", _PARSED,
                             ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(_PARSED)])
    def test_namespace_unchanged(self, argv, expected):
        got = vars(build_parser().parse_args(argv))
        assert callable(got.pop("handler"))
        assert got == expected

    def test_flags_defaults_and_required(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted((a.dest, a.default, a.required) for a in parser._actions
                            if a.dest != "help")
               for name, parser in sub.choices.items()}
        assert got == _FLAGS
