"""Bit-plane watermarking driven by the chaotic-iterations machinery.

The carrier is split into most/least significant bit planes (MSCs, bits
7-4; LSCs, bits 2-0).
The watermark is mixed by chaotic iterations keyed by two XORshift seeds,
then written into LSC addresses produced by the doubling recurrence

    U_0 = S_0 (mod M),   U_{k+1} = S_{k+1} + 2 U_k + k (mod M)

over the mixture-stage strategy sequence S. One key schedule, `_key_stream`,
yields both the mixing mask and the addresses; embed and extract XOR the
watermark with the same mask. In authenticated mode the seeds
are first combined with a digest of the MSC planes, so any MSC change
re-keys both the mixture and the addresses and extraction collapses to
coin-flip similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import CiGenerator, XorShift32, _rotl32, seed_word
from .imaging import (_check_gray, crop_attack, gaussian_noise_attack, jpeg_attack,
                      rotate_attack)
from .kernels import xorshift_fill

FOLD_INIT = 0x811C9DC5  # nonzero so the all-zero MSC plane still digests

# Largest modulus whose address scan stays in int64: (M - 1) + (M - 1)^2 < 2^63.
_SCAN_INT64_MAX_M = 1 << 31

# Bit planes, 7 = most significant. The MSCs are the authenticated content,
# the LSCs carry the payload, and plane 3 passes through untouched.
MSC_BITS = (7, 6, 5, 4)
LSC_BITS = (2, 1, 0)


@dataclass(frozen=True)
class EmbeddingKey:
    """Two 32-bit seeds plus the watermarking mode.

    mode "unauth": extraction depends on the seeds only.
    mode "auth":   seeds are folded with the MSC digest of the image.
    mix  "ci":     flip-parity mixture from chaotic iterations (default).
    mix  "xor":    bitwise XOR with the generator's keystream.
    repetition:    how many times the watermark is embedded (majority vote
                   on extraction).
    """

    seed1: int
    seed2: int
    mode: str = "unauth"
    mix: str = "ci"
    repetition: int = 1

    def __post_init__(self):
        if self.mode not in ("unauth", "auth"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mix not in ("ci", "xor"):
            raise ValueError(f"unknown mix {self.mix!r}")
        if self.repetition < 1:
            raise ValueError("repetition must be >= 1")


def coefficient_planes(img, bits):
    """Linearize the bit planes `bits` (MSC_BITS or LSC_BITS): pixels in
    row-major order, selected bits most significant first within each pixel."""
    flat = _check_gray(img).reshape(-1)
    cols = [(flat >> np.uint8(b)) & np.uint8(1) for b in bits]
    return np.stack(cols, axis=1).reshape(-1)


def merge_coefficients(lsc, base):
    """Inverse of coefficient_planes(base, LSC_BITS): writes `lsc` into
    bits 2-0 of `base`, whose MSCs and plane 3 carry through unchanged."""
    a = np.asarray(base)
    bits = np.asarray(lsc, dtype=np.uint8).reshape(-1, 3)
    payload = bits[:, 0] << 2 | bits[:, 1] << 1 | bits[:, 2]
    return ((a.reshape(-1) & np.uint8(0xF8)) | payload).reshape(a.shape)


def fold_digest(bits) -> int:
    """32-bit rotate-XOR fold of a bit sequence (packed to bytes first);
    flipping any single input bit changes the digest.

    The fold d <- rotl(d, 5) ^ byte over L bytes has the closed form
    rotl(INIT, 5L) ^ XOR_i rotl(byte_i, 5 (L - 1 - i)). Rotation is linear
    over XOR and rotl by 5 has period 32, so the bytes, reversed and
    zero-padded to whole rows of 32, are XOR-reduced column by column and
    column t is rotated by 5t.
    """
    data = np.packbits(np.asarray(bits, dtype=np.uint8))
    rev = np.zeros(-(-data.size // 32) * 32, dtype=np.uint8)
    rev[:data.size] = data[::-1]
    digest = _rotl32(FOLD_INIT, 5 * data.size)
    for t, lane in enumerate(np.bitwise_xor.reduce(rev.reshape(-1, 32), axis=0).tolist()):
        digest ^= _rotl32(lane, 5 * t)
    return digest


def derive_strategy_seed(key: EmbeddingKey, msc) -> tuple:
    """Seeds actually driving mixture and addressing. Unauthenticated mode
    passes the key seeds through and never reads `msc`; authenticated mode
    folds in the MSC digest so both seeds move when any MSC bit does."""
    if key.mode == "unauth":
        return seed_word(key.seed1), seed_word(key.seed2)
    digest = fold_digest(msc)
    # rotations chosen apart from the one in _strategy_seed so the digest
    # cannot cancel out of the combined strategy seed
    return (seed_word(key.seed1 ^ digest),
            seed_word(key.seed2 ^ _rotl32(digest, 7)))


def embedding_sequence(s_values, m_total: int, count: int) -> np.ndarray:
    """U_0 .. U_{count-1} of the doubling recurrence over the strategy
    values: U_0 = S_0 mod M and U_{k+1} = (S_{k+1} + 2 U_k + k) mod M.

    Step k >= 1 is the affine map u -> 2u + (S_k + k - 1) (mod M) and U_0 is
    the constant S_0 mod M. A log-depth (Hillis-Steele) scan composes the
    maps: before the pass with offset d, entry i holds the composition of
    the steps (i - d, i]. Once that window reaches step 0 the entry is U_i;
    otherwise (i >= d) its multiplier is exactly 2^d, so the pass
    u[i] += 2^d u[i - d] is one vector multiply-add. Moduli past int64
    range run the same scan on Python integers, so the result is exact for
    any M.
    """
    if m_total < 1:
        raise ValueError("M must be >= 1")
    s = np.asarray(s_values, dtype=np.int64)
    if s.size < count:
        raise ValueError("not enough strategy values")
    dtype = np.int64 if m_total <= _SCAN_INT64_MAX_M else object
    u = s[:count].astype(dtype) % m_total
    u[1:] = (u[1:] + np.arange(u.size - 1).astype(dtype)) % m_total
    d = 1
    while d < u.size:
        u[d:] = (u[d:] + pow(2, d, m_total) * u[:-d]) % m_total
        d *= 2
    return u.astype(np.int64)


def _strategy_seed(s1p: int, s2p: int) -> int:
    """Seed of the strategy source. Both key seeds feed it so a single
    flipped seed bit re-keys the mask and the addresses, not just the
    chunk-length draws."""
    return seed_word(s2p ^ _rotl32(s1p, 16))


def _distinct_addresses(cells, draw, m_total: int, count: int) -> np.ndarray:
    """First `count` distinct values of the doubling recurrence over the
    strategy sequence `cells`, continued by `draw(k)` (the next k strategy
    values) when it is too short. Revisited addresses are skipped so every
    payload bit owns one LSC.

    The first count + count // 8 + 64 values almost always suffice;
    otherwise the sequence is scanned once more up to U_cap, cap =
    16 count + 4096. The recurrence is prefix-consistent, so a longer scan
    keeps every address a shorter one found.
    """
    for length in (count + count // 8 + 64, 16 * count + 4096 + 1):
        if cells.size < length:
            cells = np.concatenate([cells, draw(length - cells.size)])
        u = embedding_sequence(cells, m_total, length)
        _, first = np.unique(u, return_index=True)
        if first.size >= count:
            return u[np.sort(first)[:count]]
    raise RuntimeError("address generation did not converge")


def _key_stream(derived, mix: str, n: int, m_total: int, count: int):
    """The key schedule: (mask, addresses) for an n-bit watermark written to
    `count` of m_total LSCs, from the derived (sanitized) seeds (s1', s2').

    One strategy sequence, drawn from the strategy source, feeds both. Its
    first values are the chaotic mixture's flips over the n watermark cells:
    ceil(4n / 3n) = 2 chunks of 3n or 3n+1 flips (the +1 drawn from seed
    1), about 4 flips per cell. For mix "ci" the mask is the flip parity of
    each cell; for "xor" it is the generator keystream of the derived
    seeds. The addresses are the first `count` distinct terms of the
    doubling recurrence over the same sequence, from its first flip on.
    XORing with the mask mixes the watermark and unmixes it again.
    """
    if n < 1:
        raise ValueError("the watermark must hold at least one bit")
    if count > m_total:  # checked before any strategy value is drawn
        raise ValueError(f"watermark needs {count} LSCs, image has {m_total}")
    s1p, s2p = derived
    flips = 6 * n + int((xorshift_fill(s1p, 2)[0] & 1).sum())
    gen2 = XorShift32(_strategy_seed(s1p, s2p))

    def draw(k):
        return gen2.fill(k) % np.uint32(n)

    cells = draw(flips)
    addresses = _distinct_addresses(cells, draw, m_total, count)
    if mix == "xor":
        mask = CiGenerator.from_seeds(s1p, s2p).bits(n)
    else:
        mask = (np.bincount(cells, minlength=n) & 1).astype(np.uint8)
    return mask, addresses


def _schedule(img, key: EmbeddingKey, n: int) -> tuple:
    """The LSC planes of `img` and the (mask, addresses) of an n-bit watermark
    written key.repetition times. Only auth mode builds the MSC planes."""
    msc = coefficient_planes(img, MSC_BITS) if key.mode == "auth" else None
    lsc = coefficient_planes(img, LSC_BITS)
    mask, addresses = _key_stream(derive_strategy_seed(key, msc), key.mix, n,
                                  lsc.size, key.repetition * n)
    return lsc, mask, addresses


def embed(carrier, wm, key: EmbeddingKey) -> np.ndarray:
    """Write the mixed watermark into key-addressed LSCs. MSC planes are
    bit-identical to the carrier's afterwards."""
    wm_bits = np.asarray(wm, dtype=np.uint8).reshape(-1) & 1
    n = wm_bits.size
    lsc, mask, addresses = _schedule(carrier, key, n)
    lsc[addresses] = np.tile(wm_bits ^ mask, key.repetition)
    return merge_coefficients(lsc, carrier)


def extract(img, key: EmbeddingKey, wm_dims: tuple = (64, 64)) -> np.ndarray:
    """Recover the watermark: re-derive the strategy from the image's MSCs,
    re-generate the addresses, read, majority-vote repeats, unmix."""
    h, w = wm_dims
    if h < 1 or w < 1:
        raise ValueError(f"watermark dimensions must be positive, got {w}x{h}")
    n = h * w
    lsc, mask, addresses = _schedule(img, key, n)
    r = key.repetition
    votes = lsc[addresses].reshape(r, n).sum(axis=0)
    mixed = (2 * votes >= r).astype(np.uint8)
    return (mixed ^ mask).reshape(h, w)


def similarity(a, b) -> float:
    """Percentage of matching bits between two binary images."""
    x = np.asarray(a)
    y = np.asarray(b)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return 100.0 * float((x == y).mean())


# kind -> attack(image, parameter, noise_seed); only noise uses the seed.
ATTACKS = {
    "crop": lambda img, p, seed: crop_attack(img, p),
    "rotate": lambda img, p, seed: rotate_attack(img, p),
    "jpeg": lambda img, p, seed: jpeg_attack(img, p),
    "noise": lambda img, p, seed: gaussian_noise_attack(img, p, seed),
}


def robustness_sweep(carrier, wm, seed1: int, seed2: int, attacks,
                     noise_seed: int = 0x5EED) -> list:
    """Embed, attack, extract, and score every attack cell in both modes.

    `attacks` is an iterable of (kind, parameter); returns rows of
    (kind, parameter, mode, similarity). Deterministic given the seeds.
    Each mode embeds once; the attacks copy their input, so every cell
    attacks the same marked image.
    """
    wm = np.asarray(wm, dtype=np.uint8) & 1
    attacks = list(attacks)
    for kind, _ in attacks:
        if kind not in ATTACKS:
            raise ValueError(f"unknown attack {kind!r}")
    if not attacks:
        return []
    keys = [EmbeddingKey(seed1, seed2, mode=mode) for mode in ("unauth", "auth")]
    marked = [embed(carrier, wm, key) for key in keys]
    rows = []
    for kind, param in attacks:
        for key, image in zip(keys, marked):
            attacked = ATTACKS[kind](image, param, noise_seed)
            recovered = extract(attacked, key, wm.shape)
            rows.append((kind, param, key.mode, similarity(wm, recovered)))
    return rows
