"""Severity-leveled image corruptions, generated deterministically per image.

Each image's randomness comes from the stream `default_rng((set seed, kind
id, severity, image index))` would give, so a corrupted set is
byte-identical no matter the generation order, process count, or thread
count. All kinds operate on float images in [0, 1], channel-wise for
grayscale and color alike, and clip their output back to [0, 1]. Each kind
is one row of `_KIND_TABLE`, its transform and its parameter at each
severity; `KINDS` lists the rows in order, and a kind's position there is
its id in the streams.

A (kind, severity) cell is rendered as one batch: `corrupt_images` checks the
batch once, runs the kind's transform over all of it and clips once. Only the
kinds that draw random numbers loop over images: the batch's starting states
are computed in one pass and loaded in turn into one generator, and the
kinds that draw nothing seed nothing. `corrupt` is the same pass on a
batch of one image, so its bytes equal that image's row of the batch.
`dstforge corrupt` and the study hold one rendered cell at a time.

The three blurs are numpy kernels with the bytes of `scipy.ndimage`'s
`gaussian_filter` and `convolve` in mode "reflect", so corrupting loads no
scipy. Motion blur discretises all the batch's random angles at once and
convolves all images whose angles give the same set of taps in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ImageSet

SEVERITIES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class CorruptionSpec:
    """One (kind, severity) cell of a grid and the seed of its streams. Each
    refusal opens with the name of the field it refuses."""

    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {', '.join(KINDS)}, got {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES[0]}..{SEVERITIES[-1]}, "
                             f"got {self.severity}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")

    @property
    def param(self):
        return _KIND_TABLE[self.kind][1][self.severity - 1]


# Image i's stream is the one `np.random.default_rng((seed, kind id, severity,
# index))` would give. The set-up of such a generator, numpy's SeedSequence
# hashing and PCG64's seeding step, is worth more than a cheap kind's own
# work, so it runs for a whole batch at once: the hashing on uint32 arrays
# with one column per image, then the 128-bit step on Python integers.

_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's hashmix while mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # ... and while generating state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence splits an integer into."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of `values`, row k hashed with
    consts k and k + 1 (rows of one word broadcast)."""
    v = values ^ consts[:-1]
    v *= consts[1:]
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of word x with word y, elementwise."""
    v = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    v ^= v >> 16
    return v


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(e).generate_state(8)` for each column e of an (L, n)
    uint32 entropy array, as an (8, n) array."""
    extra = max(0, len(entropy) - _POOL)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    # the first words, padded with zeros to the pool's size, hash into the pool
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, consts[: _POOL + 1])
    k = _POOL
    # each word mixes into the other three; the source word is unchanged
    # while it does, so its three hashes are one call
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src : src + 1], consts[k : k + _POOL]))
        k += _POOL - 1
    # each further word mixes into every pool word
    for src in range(_POOL, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[src : src + 1], consts[k : k + _POOL + 1]))
        k += _POOL
    # generate_state cycles through the pool, one hash per output word
    return _hashmix(pool[np.arange(8) % _POOL], _hash_consts(_INIT_B, _MULT_B, 8))


def _stream_states(spec: CorruptionSpec, start: int, n: int) -> list[dict]:
    """The PCG64 state `default_rng((seed, kind id, severity, index))`
    starts from, for each index in [start, start + n)."""
    head = _words(spec.seed) + [KINDS.index(spec.kind), spec.severity]
    states = []
    lo, end = start, start + n
    while lo < end:
        # the indices that split into as many words as lo hash as one array
        width = len(_words(lo))
        index = range(lo, min(end, 1 << 32 * width))
        entropy = np.array([[w] * len(index) for w in head]
                           + [[i >> s & _MASK32 for i in index] for s in range(0, 32 * width, 32)],
                           dtype=np.uint32)
        words = _seed_sequence_words(entropy).astype(np.uint64)
        seed_hi, seed_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
        for a, b, c, d in zip(seed_hi, seed_lo, seq_hi, seq_lo):
            # pcg64_set_seed: from state 0, step, add the seed, step again
            inc = ((c << 64 | d) << 1 | 1) & _MASK128
            state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
            states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0})
        lo = index.stop
    return states


def _streams(spec: CorruptionSpec, start: int, n: int):
    """Yield image start + i's generator for i in range(n): one Generator,
    its PCG64 set to each image's starting state in turn. The states are
    computed on the first request, so a kind that draws nothing seeds
    nothing."""
    bit_generator = np.random.PCG64(0)  # seed unused: each image's state replaces it
    rng = np.random.Generator(bit_generator)
    for state in _stream_states(spec, start, n):
        bit_generator.state = state
        yield rng


# Each transform maps a float32 (n, c, h, w) batch to a new array. `rngs`
# yields image i's generator on demand; kinds that draw nothing never ask,
# and each generator is done with before the next is asked for.


def _draw_noise(x, sigma, rngs):
    """One standard normal field per image, scaled by sigma, in float32."""
    noise = np.empty_like(x)
    for img_noise, rng in zip(noise, rngs):
        # the float64 product is rounded into float32 as astype would round it
        np.multiply(rng.standard_normal(img_noise.shape), sigma, out=img_noise)
    return noise


def _gaussian_noise(x, sigma, rngs):
    noise = _draw_noise(x, sigma, rngs)
    noise += x
    return noise


def _shot_noise(x, c, rngs):
    counts = np.empty_like(x)
    for img, img_counts, rng in zip(x, counts, rngs):
        img_counts[...] = rng.poisson(img.astype(np.float64) * c)
    # the counts are exact in float32, and float32 division gives the bytes
    # of dividing in float64 and casting: float64's 53 bits are at least
    # 2 * 24 + 2, so rounding twice cannot differ from rounding once
    counts /= c
    return counts


def _impulse_noise(x, p, rngs):
    out = x.copy()
    size = x[0].size
    n_flip = int(round(p * size))
    if n_flip:
        n_salt = (n_flip + 1) // 2
        for flat, rng in zip(out.reshape(len(x), size), rngs):
            pos = rng.choice(size, size=n_flip, replace=False)
            flat[pos[:n_salt]] = 1.0
            flat[pos[n_salt:]] = 0.0
    return out


def _speckle_noise(x, sigma, rngs):
    noise = _draw_noise(x, sigma, rngs)
    noise *= x
    noise += x
    return noise


# The blurs give the bytes of scipy.ndimage's filters in mode "reflect"
# (`gaussian_filter`, and `convolve` for defocus and motion) without loading
# scipy: ndimage sums in float64, in a fixed tap order, and casts each pass's
# output to the input's float32. Each pass runs a cache-sized chunk of images
# at a time, on the chunk's padded planes flattened into one row, so that
# every tap is one contiguous add; the sums outside the planes are dropped.

_BLUR_CHUNK = 1 << 15  # float64 elements of a chunk's padded planes


def _chunks(x: np.ndarray, pad: int):
    """Slices of the batch's images, each a chunk whose planes padded by
    `pad` a side hold about _BLUR_CHUNK elements, or one image."""
    c, h, w = x.shape[1:]
    step = max(1, _BLUR_CHUNK // (c * (h + 2 * pad) * (w + 2 * pad)))
    return (slice(s, s + step) for s in range(0, len(x), step))


def _reflect_index(size: int, pad: int) -> np.ndarray:
    """The source index of each position of an axis padded by `pad` a side as
    ndimage's "reflect" pads it (numpy's "symmetric"), with period 2 * size."""
    i = np.arange(-pad, size + pad) % (2 * size)
    return np.minimum(i, 2 * size - 1 - i)


def _reflect_pad(x: np.ndarray, pad: int, axes=(2, 3)) -> np.ndarray:
    """The batch in float64, padded by `pad` a side along each of `axes`."""
    for axis in axes:
        x = np.take(x, _reflect_index(x.shape[axis], pad), axis=axis)
    return x.astype(np.float64)


def _gaussian_weights(sigma: float) -> np.ndarray:
    """ndimage's `_gaussian_kernel1d(sigma, 0, radius)` at its truncate 4.0."""
    radius = int(4.0 * sigma + 0.5)
    t = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * t ** 2)
    return phi / phi.sum()


def _gaussian_pass(x: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """ndimage's `correlate1d` of a symmetric kernel along `axis` (2 or 3):
    the centre tap's product, plus each mirrored pair's sum times its
    weight, outermost pair first, cast to float32."""
    r = len(weights) // 2
    h, w = x.shape[2:]
    xp = _reflect_pad(x, r, (axis,))
    stride = w if axis == 2 else 1  # between neighbours along the axis
    flat = xp.reshape(-1)
    size = flat.size - 2 * r * stride

    def tap(j: int) -> np.ndarray:
        return flat[(r + j) * stride : (r + j) * stride + size]

    out = np.empty_like(flat)
    acc = np.multiply(tap(0), weights[r], out=out[:size])
    pair = np.empty(size)
    for j in range(r, 0, -1):
        np.add(tap(-j), tap(j), out=pair)
        pair *= weights[r - j]
        acc += pair
    return out.reshape(xp.shape)[:, :, :h, :w].astype(np.float32)


def _gaussian_blur(x, sigma, rngs):
    weights = _gaussian_weights(sigma)
    out = np.empty_like(x)
    for rows in _chunks(x, len(weights) // 2):
        out[rows] = _gaussian_pass(_gaussian_pass(x[rows], weights, 2), weights, 3)
    return out


def _convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """ndimage's `convolve` of each (h, w) plane with an odd square float32
    kernel whose nonzero taps share one weight: over the flipped kernel's
    nonzero taps in row-major order, 0.0 plus each tap's weight times its
    shifted pixel, cast to float32. Each pixel's product with the shared
    weight is formed once, with the bytes of the product ndimage forms at
    every tap."""
    taps = np.argwhere(kernel[::-1, ::-1])
    weight = float(kernel.max())
    k = len(kernel)
    h, w = x.shape[2:]
    out = np.empty_like(x)
    for rows in _chunks(x, k // 2):
        xp = _reflect_pad(x[rows], k // 2)
        xp *= weight
        flat = xp.reshape(-1)
        width = xp.shape[3]
        size = flat.size - (k - 1) * (width + 1)
        acc = np.zeros_like(flat)
        for i, j in taps:
            acc[:size] += flat[i * width + j : i * width + j + size]
        out[rows] = acc.reshape(xp.shape)[:, :, :h, :w]
    return out


def _disk_kernel(radius: int) -> np.ndarray:
    yy, xx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    k = (yy * yy + xx * xx <= radius * radius).astype(np.float32)
    return k / k.sum()


def _defocus_blur(x, radius, rngs):
    return _convolve(x, _disk_kernel(radius))


def _motion_blur(x, length, rngs):
    # one angle per image, all discretised at once; the images whose angles
    # give the same set of taps share one kernel and one convolve call
    angles = np.array([rng.uniform(0.0, np.pi) for rng in rngs])
    center = (length - 1) // 2
    t = np.arange(length) - (length - 1) / 2  # the values of linspace(-a, a, length), exactly
    # np.rint rounds half to even, as Python's round does
    iy = center + np.rint(t * np.sin(angles)[:, None]).astype(np.intp)
    ix = center + np.rint(t * np.cos(angles)[:, None]).astype(np.intp)
    taps = np.zeros((len(x), length, length), dtype=np.float32)
    taps[np.arange(len(x))[:, None], iy, ix] = 1.0
    groups = {}
    for i, tap_set in enumerate(taps):
        groups.setdefault(tap_set.tobytes(), (tap_set, []))[1].append(i)
    out = np.empty_like(x)
    for tap_set, rows in groups.values():
        out[rows] = _convolve(x[rows], tap_set / tap_set.sum())
    return out


def _contrast(x, factor, rngs):
    mean = x.mean(axis=(1, 2, 3), keepdims=True)
    out = x - mean
    out *= factor
    out += mean
    return out


def _brightness(x, offset, rngs):
    return x + offset


def _nearest_index(size: int, new_size: int) -> np.ndarray:
    """Source index of each of `new_size` nearest-neighbour samples."""
    return np.floor((np.arange(new_size) + 0.5) * size / new_size).astype(int)


def _pixelate(x, scale, rngs):
    h, w = x.shape[2:]
    nh = max(1, int(round(h * scale)))
    nw = max(1, int(round(w * scale)))
    # nearest down- then up-sampling, composed into one gather
    rows = _nearest_index(h, nh)[_nearest_index(nh, h)]
    cols = _nearest_index(w, nw)[_nearest_index(nw, w)]
    return x[:, :, rows[:, None], cols]


# kind -> (transform, its parameter at each severity); a kind's position here
# is its id in the random streams (see `_stream_states`)
_KIND_TABLE = {
    "gaussian_noise": (_gaussian_noise, (0.04, 0.08, 0.12, 0.18, 0.26)),  # additive sigma
    "shot_noise": (_shot_noise, (500, 250, 100, 75, 50)),  # photon count c
    "impulse_noise": (_impulse_noise, (0.01, 0.02, 0.05, 0.10, 0.17)),  # flip prob p
    "speckle_noise": (_speckle_noise, (0.06, 0.10, 0.15, 0.20, 0.30)),  # multiplicative sigma
    "gaussian_blur": (_gaussian_blur, (0.4, 0.6, 0.8, 1.0, 1.5)),  # filter sigma
    "defocus_blur": (_defocus_blur, (1, 2, 3, 4, 5)),  # disk radius
    "motion_blur": (_motion_blur, (3, 5, 7, 9, 11)),  # streak length
    "contrast": (_contrast, (0.75, 0.5, 0.4, 0.3, 0.15)),  # scale about the mean
    "brightness": (_brightness, (0.05, 0.10, 0.15, 0.20, 0.30)),  # additive offset
    "pixelate": (_pixelate, (0.9, 0.8, 0.7, 0.6, 0.5)),  # downsampling scale
}
KINDS = tuple(_KIND_TABLE)


def _render(images: np.ndarray, spec: CorruptionSpec, start: int) -> np.ndarray:
    """Corrupt a batch whose first image uses random stream `start`."""
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise ValueError(f"corrupt_images expects an (n, c, h, w) batch, got shape {images.shape}")
    if not images.size:
        return images.copy()
    if images.min() < 0.0 or images.max() > 1.0:
        raise ValueError("corrupt: input values outside [0, 1]")
    transform = _KIND_TABLE[spec.kind][0]
    out = transform(images, spec.param, _streams(spec, start, len(images)))
    # every transform returns a new float32 array, so clipping in place is safe
    return np.clip(out, 0.0, 1.0, out=out)


def corrupt(image: np.ndarray, spec: CorruptionSpec, index: int = 0) -> np.ndarray:
    """Corrupt a single (c, h, w) image in [0, 1]; `index` selects the
    per-image random stream. The bytes equal the image's row in a
    `corrupt_images` batch where it sits at row `index`."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3:
        raise ValueError(f"corrupt expects a (c, h, w) image, got shape {image.shape}")
    return _render(image[None], spec, index)[0]


def corrupt_images(images: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Corrupt an (n, c, h, w) batch in [0, 1] as one pass; image i draws from
    random stream i."""
    return _render(images, spec, 0)


def build_corrupted_set(clean: ImageSet, kinds, severities,
                        seed: int = 0) -> dict[tuple[str, int], ImageSet]:
    """One corrupted copy of the clean set per (kind, severity); labels pass
    through untouched. Every cell's spec is built before any cell renders."""
    severities = tuple(severities)
    specs = [CorruptionSpec(kind, sev, seed) for kind in kinds for sev in severities]
    if not specs:
        raise ValueError("build_corrupted_set needs non-empty kinds and severities")
    return {(spec.kind, spec.severity): ImageSet(images=corrupt_images(clean.images, spec),
                                                 labels=clean.labels.copy(), name=clean.name)
            for spec in specs}
