"""Correctness gates. Each compares an output with a reference that does
not share the code path under test, and returns a list of problems (empty
when the output is correct)."""

from __future__ import annotations

import numpy as np

# The paper's fail set for the raw XORshift stream at the desk profile.
XORSHIFT_FAILS = frozenset({"Count the ones 1", "Binary Rank 31x31",
                            "Binary Rank 32x32"})


def xorshift_chain(cm, start: int, words) -> list:
    """Every word is one shift-XOR round of the one before it (the first,
    of `start`). The whole chain is checked with a vector transcription of
    the round; sampled links are checked with the scalar `xorshift_step`."""
    w = np.asarray(words, dtype=np.uint32)
    if w.size == 0:
        return []
    prev = np.concatenate([np.array([start], dtype=np.uint32), w[:-1]])
    x = prev ^ (prev << np.uint32(13))
    x ^= x >> np.uint32(17)
    x ^= x << np.uint32(5)
    bad = np.flatnonzero(x != w)
    problems = [f"xorshift word {i} breaks the chain" for i in bad[:3]]
    step = cm.kernels.xorshift_step
    for i in np.linspace(0, w.size - 1, num=min(w.size, 64)).astype(int):
        if step(int(prev[i])) != int(w[i]):
            problems.append(f"xorshift word {i} differs from xorshift_step")
    return problems


def ci_word(cm, snapshot, words, index: int) -> list:
    """Word `index` of a pull, bit by bit against `kth_bit_oracle`, from a
    clone of the generator taken before the pull (N=32, so a pull starts on
    a round boundary)."""
    got = int(words[index])
    want = 0
    for b in range(32):
        want = (want << 1) | cm.generator.kth_bit_oracle(lambda: snapshot, 32 * index + b)
    if got != want:
        return [f"generator word {index} is {got:#010x}, oracle gives {want:#010x}"]
    return []


def stream_bits(cm, make_generator, data: bytes, positions) -> list:
    """Sampled bits of a packed MSB-first stream against `kth_bit_oracle`."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bad = [k for k in positions
           if int(bits[k]) != cm.generator.kth_bit_oracle(make_generator, k)]
    return [f"stream bit {k} differs from kth_bit_oracle" for k in bad[:3]]


def fail_set(report) -> list:
    """The raw XORshift battery fails exactly the paper's three tests."""
    failed = {r.name for r in report.results if not r.passed}
    if failed != XORSHIFT_FAILS:
        return [f"xorshift fail set {sorted(failed)}, expected {sorted(XORSHIFT_FAILS)}"]
    return []


def word_budget(cm, cfg, consumed: int) -> list:
    """The battery drew exactly the words `battery_word_budget` promises."""
    budget = cm.battery.battery_word_budget(cfg)
    if consumed != budget:
        return [f"battery consumed {consumed} words, budget says {budget}"]
    return []


def roundtrip(cm, marked, wm, key) -> list:
    """Extracting from an unattacked marked image gives the watermark back."""
    got = cm.watermark.extract(marked, key, wm_dims=wm.shape)
    sim = cm.watermark.similarity(wm, got)
    if sim != 100.0:
        return [f"{key.mode} round trip gives {sim:.2f}% similarity"]
    return []
