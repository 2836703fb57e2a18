"""Bit-plane watermarking driven by the chaotic-iterations machinery.

A carrier pixel holds most significant coefficients (MSCs, bits 7-4), bit
3, which passes through, and least significant coefficients (LSCs, bits
2-0): LSC a is bit 2 - a % 3 of pixel a // 3, pixels in row-major order.
The watermark is mixed by chaotic iterations keyed by two XORshift seeds,
then written into LSC addresses produced by the doubling recurrence

    U_0 = S_0 (mod M),   U_{k+1} = S_{k+1} + 2 U_k + k (mod M)

over the mixture-stage strategy sequence S. One key schedule, `_key_streams`
(for any number of derived seed pairs at once), yields both the mixing mask
and the addresses; embed and extract XOR the watermark with the same mask.
`_schedules` is the one way from images and a key to that schedule.
In authenticated mode the seeds are first combined with a digest of the
MSCs, so any MSC change re-keys both the mixture and the addresses and
extraction collapses to coin-flip similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import CiGenerator, _rotl32, _whole, seed_word
from .imaging import (_check_angle, _check_gray, _check_level, _check_noise_seed,
                      _check_sigma, _crop_side, add_offsets, crop_attack,
                      gaussian_noise_attack, jpeg_attack, jpeg_forward, jpeg_inverse,
                      remap, rotate_attack, rotation_map, scaled_noise, standard_noise)
from .kernels import _length_chain, _low_bit_rows, xorshift_step

FOLD_INIT = 0x811C9DC5  # nonzero so the all-zero MSC plane still digests

# Largest modulus whose address scan stays in int64: (M - 1) + (M - 1)^2 < 2^63
# in its carry pass.
_SCAN_INT64_MAX_M = 1 << 31


@dataclass(frozen=True)
class EmbeddingKey:
    """Two 32-bit seeds plus the watermarking mode. The seeds are whole
    numbers (3, 3.0, a numpy integer), stored as ints.

    mode "unauth": extraction depends on the seeds only.
    mode "auth":   seeds are folded with the MSC digest of the image.
    mix  "ci":     flip-parity mixture from chaotic iterations (default).
    mix  "xor":    bitwise XOR with the generator's keystream.
    repetition:    how many times the watermark is embedded (majority vote
                   on extraction); a whole number, stored as an int.
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
        for name in ("seed1", "seed2", "repetition"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.repetition < 1:
            raise ValueError("repetition must be >= 1")


def fold_digest(data) -> int:
    """32-bit rotate-XOR fold of a byte sequence; flipping any single input
    bit changes the digest.

    The fold d <- rotl(d, 5) ^ byte over L bytes has the closed form
    rotl(INIT, 5L) ^ XOR_i rotl(byte_i, 5 (L - 1 - i)). Rotation is linear
    over XOR and rotl by 5 has period 32, so the bytes, reversed and
    zero-padded to whole rows of 32, are XOR-reduced column by column and
    column t is rotated by 5t.
    """
    data = np.asarray(data, dtype=np.uint8)
    rev = np.zeros(-(-data.size // 32) * 32, dtype=np.uint8)
    rev[:data.size] = data[::-1]
    digest = _rotl32(FOLD_INIT, 5 * data.size)
    for t, lane in enumerate(np.bitwise_xor.reduce(rev.reshape(-1, 32), axis=0).tolist()):
        digest ^= _rotl32(lane, 5 * t)
    return digest


def derive_strategy_seed(key: EmbeddingKey, msc) -> tuple:
    """Seeds actually driving mixture and addressing. Unauthenticated mode
    passes the key seeds through and never reads `msc`; authenticated mode
    folds in the digest of the MSC bytes `msc` (`_msc_bytes`) so both seeds
    move when any MSC bit does."""
    if key.mode == "unauth":
        return seed_word(key.seed1), seed_word(key.seed2)
    digest = fold_digest(msc)
    # rotations chosen apart from the one in _strategy_seed so the digest
    # cannot cancel out of the combined strategy seed
    return (seed_word(key.seed1 ^ digest),
            seed_word(key.seed2 ^ _rotl32(digest, 7)))


def _block_length(m_total: int) -> int:
    """B of the blocked address scan: the largest power of two with
    2^B M < 2^62, or 1 where none is (M >= 2^61)."""
    b = 1
    while m_total << 2 * b < 1 << 62:
        b *= 2
    return b


def embedding_sequence(s_values, m_total: int, count: int) -> np.ndarray:
    """U_0 .. U_{count-1} of the doubling recurrence over the strategy
    values: U_0 = S_0 mod M and U_{k+1} = (S_{k+1} + 2 U_k + k) mod M, for
    each row of `s_values` along its last axis (a 1-D input is one row).

    With t_0 = S_0 and t_k = S_k + k - 1 (mod M), U_k is the sum of
    2^(k - j) t_j over j <= k. The scan is two-level (Blelloch, "Prefix
    sums and their applications", 1990). The terms are cut into blocks of
    B = _block_length(M), and each block is summed in place by
    shift-doubling, v[i] += v[i - d] << d for d = 1, 2, .., B / 2. No sum
    inside a block reaches 2^B M < 2^62, so no pass reduces. The block
    ends, reduced once, are joined by the affine scan E_b = 2^B E_{b-1} +
    e_b (mod M), a log-depth multiply-add on the block ends only; then
    U = 2^(i+1) E_{b-1} + v[i] at offset i of block b, and one reduction
    finishes. Every pass runs on all rows at once. Only the first `count`
    values of a row are cast to int64. Moduli past int64 range (M > 2^31,
    where a carry product could pass 2^63) run the same scan on Python
    integers, so the result is exact for any M.
    """
    if m_total < 1:
        raise ValueError("M must be >= 1")
    s = np.asarray(s_values)
    if s.shape[-1] < count:
        raise ValueError("not enough strategy values")
    dtype = np.int64 if m_total <= _SCAN_INT64_MAX_M else object
    b = _block_length(m_total)
    rows = s.shape[:-1]
    s = s.reshape(math.prod(rows), s.shape[-1])
    nb = -(-count // b)

    # x mod M in place, through the scratch q; numpy's // by a scalar
    # (libdivide) beats its %
    def reduce(x, q=None):
        q = np.floor_divide(x, m_total, out=q)
        q *= m_total
        x -= q

    t = np.zeros((len(s), nb * b), dtype=dtype)  # whole blocks, zero past count
    # v[i, block, row]: each pass below runs on whole rows of every block
    v = np.empty((b, nb, len(s)), dtype=dtype)
    scratch = v.reshape(t.shape)  # t's scratch until v is filled, then t is v's
    t[:, :count] = s[:, :count].astype(np.int64, copy=False)
    reduce(t, scratch)
    t[:, 1:count] += np.arange(count - 1).astype(dtype)
    reduce(t[:, 1:count], scratch[:, 1:count])
    np.copyto(v, t.reshape(len(s), nb, b).T)
    scratch = t.reshape(v.shape)
    d = 1
    while d < b:
        v[d:] += np.left_shift(v[:-d], d, out=scratch[d:])
        d *= 2
    ends = v[-1].copy()
    reduce(ends)
    d = 1
    while d < nb:
        x = ends[:-d] * pow(2, b * d, m_total)
        x += ends[d:]
        reduce(x)
        ends[d:] = x
        d *= 2
    shifts = np.arange(1, b + 1).astype(dtype).reshape(b, 1, 1)
    v[:, 1:] += np.left_shift(ends[:-1], shifts, out=scratch[:, 1:])
    reduce(v, scratch)
    np.copyto(t.reshape(len(s), nb, b), v.T)
    return t[:, :count].reshape(rows + (count,)).astype(np.int64, copy=False)


def _strategy_seed(s1p: int, s2p: int) -> int:
    """Seed of the strategy source. Both key seeds feed it so a single
    flipped seed bit re-keys the mask and the addresses, not just the
    chunk-length draws."""
    return seed_word(s2p ^ _rotl32(s1p, 16))


def _first_occurrences(u, m_total: int) -> np.ndarray:
    """Mask of the positions in each row of `u` (values in [0, M), rows
    along the last axis) that hold the first occurrence of their value in
    the row. One sort of each row's keys u_i L + i, L = the row length,
    orders the values and, within one value, its positions, so the first
    key of each value names its first position. The keys are int64 while
    M L < 2^63 and Python integers past it."""
    n = u.shape[-1]
    dtype = np.int64 if m_total * n < 1 << 63 else object
    keys = u.astype(dtype)
    keys *= n
    keys += np.arange(n).astype(dtype)
    keys.sort(axis=-1)
    value = keys // n
    head = np.ones(u.shape, dtype=bool)
    np.not_equal(value[..., 1:], value[..., :-1], out=head[..., 1:])
    value *= n
    keys -= value  # the position of each sorted key in its row
    keys = keys.astype(np.intp, copy=False)
    keys += n * np.arange(math.prod(u.shape[:-1])).reshape(u.shape[:-1] + (1,))  # .. in u
    first = np.empty(u.size, dtype=bool)
    first[keys.reshape(-1)] = head.reshape(-1)
    return first.reshape(u.shape)


def _address_rows(cells, redraw, m_total: int, count: int) -> np.ndarray:
    """(R, count): the first `count` distinct values of the doubling
    recurrence over each row of the strategy cells `cells` (R, L). Revisited
    addresses are skipped so every payload bit owns one LSC.

    The first count + count // 8 + 64 values of a row almost always suffice.
    The rows they do not are scanned once more up to U_cap, cap = 16 count +
    4096, over redraw(rows, cap + 1), the first cap + 1 cells of those rows.
    The recurrence is prefix-consistent, so a longer scan keeps every
    address a shorter one found.
    """
    out = np.empty((len(cells), count), dtype=np.int64)
    rows = np.arange(len(cells))
    for length in (count + count // 8 + 64, 16 * count + 4096 + 1):
        if cells.shape[-1] < length:
            cells = redraw(rows, length)
        u = embedding_sequence(cells, m_total, length)
        first = _first_occurrences(u, m_total)
        short = np.count_nonzero(first, axis=-1) < count
        for i in np.flatnonzero(~short):
            out[rows[i]] = u[i][first[i]][:count]
        rows, cells = rows[short], cells[short]
        if not rows.size:
            return out
    raise RuntimeError("address generation did not converge")


def _flips(s1p: int, n: int) -> int:
    """The mixture's flips over n cells: 2 chunks of 3n flips, each one
    more when its word of the chain after seed 1 is odd."""
    first = xorshift_step(s1p)
    return 6 * n + (first & 1) + (xorshift_step(first) & 1)


def _strategy_cells(seeds, n: int, k: int) -> np.ndarray:
    """(R, k): the first k strategy cells, word mod n, of the strategy
    source of each seed in `seeds`.

    One doubling fills the T^32 chains of all rows and one low-bits table
    map reads them, 32 words per chain word, as `ci_fill` reads its length
    bits. At n = 2^b (the default 64x64 watermark included) a cell is its
    word's low b bits, a linear map of the generator state, so the map reads
    b bits. Word mod n is not linear for other n: the map reads whole words
    (b = 32), reduced mod n.
    """
    b = n.bit_length() - 1
    power = n == 1 << b
    z = _length_chain(seeds, k).T.copy()  # (R, q): each row's chain in order
    cells = _low_bit_rows(z, b if power else 32).reshape(z.shape[0], 32 * z.shape[1])[:, :k]
    if not power:
        cells %= np.uint32(n)
    return cells


def _key_streams(derived, mix: str, n: int, m_total: int, count: int) -> list:
    """The key schedules [(mask, addresses), ...] for an n-bit watermark
    written to `count` of m_total LSCs, one per derived (sanitized) seed
    pair (s1', s2') in `derived`; every stage handles all rows at once.

    One strategy sequence per row, drawn from the strategy source, feeds
    both. Its first values are the chaotic mixture's flips over the n
    watermark cells: ceil(4n / 3n) = 2 chunks of 3n or 3n+1 flips (the +1
    drawn from seed 1), about 4 flips per cell. For mix "ci" the mask is
    the flip parity of each cell; for "xor" it is the generator keystream
    of the derived seeds. The addresses are the first `count` distinct
    terms of the doubling recurrence over the same sequence, from its first
    flip on. XORing with the mask mixes the watermark and unmixes it again.
    """
    if n < 1:
        raise ValueError("the watermark must hold at least one bit")
    if count > m_total:  # checked before any strategy value is drawn
        raise ValueError(f"watermark needs {count} LSCs, image has {m_total}")
    flips = [_flips(s1p, n) for s1p, _ in derived]
    seeds = [_strategy_seed(s1p, s2p) for s1p, s2p in derived]
    cells = _strategy_cells(seeds, n, max(flips + [count + count // 8 + 64]))
    if mix == "xor":
        masks = [CiGenerator.from_seeds(s1p, s2p).bits(n) for s1p, s2p in derived]
    else:
        masks = [(np.bincount(row[:f], minlength=n) & 1).astype(np.uint8)
                 for row, f in zip(cells, flips)]

    def redraw(rows, length):  # the stream is prefix-consistent: draw again from the seed
        return _strategy_cells([seeds[r] for r in rows], n, length)

    return list(zip(masks, _address_rows(cells, redraw, m_total, count)))


def _schedules(images, key: EmbeddingKey, n: int) -> list:
    """The (mask, addresses) of an n-bit watermark written key.repetition
    times into the LSCs of each image in `images`, which share one size,
    in one _key_streams call. Only auth mode reads pixels: it packs each
    image's MSCs for the digest."""
    images = [_check_gray(img) for img in images]
    derived = [derive_strategy_seed(key, _msc_bytes(a) if key.mode == "auth" else None)
               for a in images]
    return _key_streams(derived, key.mix, n, 3 * images[0].size, key.repetition * n)


def _msc_bytes(a) -> np.ndarray:
    """The MSCs of image `a`, 8 to a byte: byte i is the high nibble of pixel
    2i, then that of pixel 2i + 1 (a zero nibble after an odd last pixel)."""
    high = a.reshape(-1) & np.uint8(0xF0)
    packed = high[0::2]
    packed[:high.size // 2] |= high[1::2] >> 4
    return packed


def _lsc_place(addresses) -> tuple:
    """(pixel, bit) of each LSC address, the rule reads and writes share."""
    pixel, plane = np.divmod(addresses, 3)
    return pixel, (2 - plane).astype(np.uint8)


def _lscs(img, place) -> np.ndarray:
    """The LSCs at the (pixel, bit) places of _lsc_place, read from the
    addressed pixels alone."""
    pixel, bit = place
    return (_check_gray(img).reshape(-1)[pixel] >> bit) & 1


def embed(carrier, wm, key: EmbeddingKey) -> np.ndarray:
    """Write the mixed watermark into key-addressed LSCs. MSCs and bit 3 are
    bit-identical to the carrier's afterwards."""
    wm_bits = np.asarray(wm, dtype=np.uint8).reshape(-1) & 1
    mask, addresses = _schedules([carrier], key, wm_bits.size)[0]
    return _write(carrier, wm_bits ^ mask, addresses, key.repetition)


def _write(carrier, mixed, addresses, repetition: int) -> np.ndarray:
    """The carrier with the mixed bits written `repetition` times into the LSCs
    at `addresses`, unbuffered: two addresses can name bits of one pixel."""
    pixel, bit = _lsc_place(addresses)
    flat = _check_gray(carrier).flatten()
    np.bitwise_and.at(flat, pixel, ~(np.uint8(1) << bit))
    np.bitwise_or.at(flat, pixel, np.tile(mixed, repetition) << bit)
    return flat.reshape(np.shape(carrier))


def extract(img, key: EmbeddingKey, wm_dims: tuple = (64, 64)) -> np.ndarray:
    """Recover the watermark: re-derive the strategy from the image's MSCs,
    re-generate the addresses, read, majority-vote repeats, unmix."""
    try:
        h, w = wm_dims
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ValueError(f"wm_dims must be a pair (height, width), got {wm_dims!r}") from None
    h, w = _whole(h, "wm_dims entry"), _whole(w, "wm_dims entry")
    if h < 1 or w < 1:
        raise ValueError(f"watermark dimensions must be positive, got {w}x{h}")
    mask, addresses = _schedules([img], key, h * w)[0]
    return _vote(_lscs(img, _lsc_place(addresses)), mask, key.repetition).reshape(h, w)


def _vote(bits, mask, repetition: int) -> np.ndarray:
    """The watermark from the LSC bits read at its addresses: the majority of
    the `repetition` copies of each mixed bit, unmixed by `mask`."""
    votes = bits.reshape(repetition, mask.size).sum(axis=0)
    return (2 * votes >= repetition).astype(np.uint8) ^ mask


def similarity(a, b) -> float:
    """Percentage of matching bits between two binary images."""
    x = np.asarray(a)
    y = np.asarray(b)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError(f"similarity of two empty {x.shape} images is undefined")
    return 100.0 * float((x == y).mean())


# kind -> attack(image, parameter, noise_seed); only noise uses the seed.
ATTACKS = {
    "crop": lambda img, p, seed: crop_attack(img, p),
    "rotate": lambda img, p, seed: rotate_attack(img, p),
    "jpeg": lambda img, p, seed: jpeg_attack(img, p),
    "noise": lambda img, p, seed: gaussian_noise_attack(img, p, seed),
}


# kind -> check(parameter, image shape): raises the ValueError that the
# attack itself raises on that parameter.
_PARAM_CHECKS = {
    "crop": _crop_side,
    "rotate": lambda p, shape: _check_angle(p),
    "jpeg": lambda p, shape: _check_level(p),
    "noise": lambda p, shape: _check_sigma(p),
}


def robustness_sweep(carrier, wm, seed1: int, seed2: int, attacks,
                     noise_seed: int = 0x5EED) -> list:
    """Embed, attack, extract, and score every attack cell in both modes.

    `attacks` is an iterable of (kind, parameter); returns rows of
    (kind, parameter, mode, similarity). Deterministic given the seeds.
    The watermark must be 2-D; its shape, every cell's parameter and, with a
    noise cell, noise_seed are checked before the first embed. Each mode
    embeds once and every cell attacks that marked image; work that no
    parameter or mode changes is done once, through the same halves the
    attack functions compose: the forward DCT per marked image, the
    rotation map per rotate cell, one standard normal draw, scaled per
    noise cell, and the unauth key schedule, which reads no pixel and
    serves the unauth embed and every unauth read. The auth attacked images
    are kept until every cell is attacked; their schedules, one per image
    as each image's MSCs re-key it, are then drawn in one _schedules call
    and each image is read as extract reads it.
    shared_work counts this work for a grid.
    """
    wm = np.asarray(wm, dtype=np.uint8) & 1
    if wm.ndim != 2:
        raise ValueError(f"the watermark must be a 2-D image, got shape {wm.shape}")
    attacks = list(attacks)
    shape = np.shape(carrier)
    for kind, param in attacks:
        if kind not in ATTACKS:
            raise ValueError(f"unknown attack {kind!r}")
        _PARAM_CHECKS[kind](param, shape)
        if kind == "noise":
            _check_noise_seed(noise_seed)
    if not attacks:
        return []
    unauth, auth = (EmbeddingKey(seed1, seed2, mode=mode) for mode in ("unauth", "auth"))
    mask, addresses = _schedules([carrier], unauth, wm.size)[0]
    place = _lsc_place(addresses)
    marked = [_write(carrier, wm.reshape(-1) ^ mask, addresses, unauth.repetition),
              embed(carrier, wm, auth)]
    last = {kind: i for i, (kind, _) in enumerate(attacks)}  # each kind's last cell
    pairs = z = None
    unauth_sims, attacked = [], []
    for i, (kind, param) in enumerate(attacks):
        # shared work is dropped once its kind's last cell is done, and each
        # cell's own map or offsets with the cell, so the auth images kept
        # for the batched schedules below add no more than they take
        if kind == "jpeg":
            pairs = pairs or [jpeg_forward(image) for image in marked]
            images = [jpeg_inverse(pair, param, shape) for pair in pairs]
            pairs = pairs if i < last[kind] else None
        elif kind == "rotate":
            rmap = rotation_map(shape, param)
            images = [remap(image, rmap) for image in marked]
            del rmap
        elif kind == "noise":
            z = standard_noise(shape, noise_seed) if z is None else z
            offsets = scaled_noise(z, param)
            images = [add_offsets(image, offsets) for image in marked]
            del offsets
            z = z if i < last[kind] else None
        else:
            images = [crop_attack(image, param) for image in marked]
        got = _vote(_lscs(images[0], place), mask, unauth.repetition).reshape(wm.shape)
        unauth_sims.append(similarity(wm, got))
        attacked.append(images[1])
        del images
    rows = []
    for (kind, param), sim, image, (auth_mask, auth_addresses) in zip(
            attacks, unauth_sims, attacked, _schedules(attacked, auth, wm.size)):
        got = _vote(_lscs(image, _lsc_place(auth_addresses)), auth_mask,
                    auth.repetition).reshape(wm.shape)
        rows += [(kind, param, "unauth", sim), (kind, param, "auth", similarity(wm, got))]
    return rows


def shared_work(attacks) -> dict:
    """The work robustness_sweep runs over the grid `attacks`, by kind:
    forward DCTs (one per marked image when a JPEG cell is present),
    rotation maps (one per rotate cell), noise draws (one when a noise cell
    is present) and key schedules (the shared unauth one, the auth embed's
    and one per auth read, all of these in one batch: schedule rows, not
    calls). An empty grid runs none."""
    kinds = [kind for kind, _ in attacks]
    return {"forward_dcts": 2 * ("jpeg" in kinds),
            "rotation_maps": kinds.count("rotate"),
            "noise_draws": int("noise" in kinds),
            "key_schedules": 2 + len(kinds) if kinds else 0}
