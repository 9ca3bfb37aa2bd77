"""Seeded synthetic corpus: texture images, patient records and file damage.

Everything here is a pure function of the seed and of a position, so two
runs with the same seed see the same bytes, whatever else they do. The
module imports nothing from lbpmarkdex or from its tests: the inputs of
the benchmark must not move when the program or its tests change.

Images keep every pixel inside [2, 253], so every horizontal pair stays
expandable and each one carries its full payload with room to spare.
"""

from __future__ import annotations

import numpy as np

CLASSES = ("ramp", "speckle", "stripes")

_FIRST = ("Ada", "Bruno", "Chloé", "Dmitri", "Elif", "Farah", "Goran", "Hana", "Iker", "Jun")
_LAST = ("Abara", "Berg", "Castillo", "Dubois", "Eze", "Fischer", "Grün", "Haddad", "Ito", "Jovanović")
_DIAGNOSES = (
    "no finding",
    "benign nodule, follow up in 6 months",
    "suspected fibrosis",
    "post-operative control",
    "calcification, left lobe",
)

# Streams keep generators for different purposes independent of each other.
_IMAGE, _PATIENT, _ASSIGN, _DAMAGE, _REQUEST = 1, 2, 3, 4, 5


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (seed, purpose, position) key."""
    return np.random.default_rng([seed, *key])


def texture(seed: int, index: int, cls: str, side: int) -> np.ndarray:
    """A side x side uint8 texture of one class; distinct for each index.

    ramp:    tilted linear gradient; LBP mass sits on a few codes.
    speckle: flat background with sparse impulses of moderate height.
    stripes: sinusoidal stripes of random period, angle and contrast.
    Each class adds low-amplitude noise so no two images are alike.
    """
    rng = rng_for(seed, _IMAGE, index)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64) * (256.0 / side)
    if cls == "ramp":
        theta = np.deg2rad(rng.uniform(-20, 20) + rng.choice([0, 90]))
        ramp = rng.uniform(0.3, 0.7) * (np.cos(theta) * xx + np.sin(theta) * yy)
        values = 50 + rng.uniform(0, 20) + ramp - ramp.min()
    elif cls == "speckle":
        values = np.full((side, side), rng.uniform(110, 145))
        count = int(rng.uniform(0.02, 0.05) * side * side)
        ys = rng.integers(0, side, count)
        xs = rng.integers(0, side, count)
        values[ys, xs] += rng.integers(40, 61, count) * rng.choice([-1, 1], count)
    elif cls == "stripes":
        theta = np.deg2rad(rng.uniform(0, 180))
        period = rng.uniform(8, 16)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * (np.cos(theta) * xx + np.sin(theta) * yy) / period + phase)
        values = rng.uniform(100, 155) + rng.uniform(20, 40) * wave
    else:
        raise ValueError(f"unknown texture class {cls!r}")
    values = values + rng.integers(-3, 4, size=(side, side))
    return np.clip(np.rint(values), 2, 253).astype(np.uint8)


def pgm_bytes(pixels: np.ndarray) -> bytes:
    """Canonical binary PGM, the same form the store writes back out."""
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def request_rng(seed: int, request: int) -> np.random.Generator:
    """Generator for the random choices of one request of a sequence."""
    return rng_for(seed, _REQUEST, request)


def patient(seed: int, number: int) -> dict:
    """Deterministic patient record; the id is unique per number."""
    rng = rng_for(seed, _PATIENT, number)
    return {
        "patient_id": f"P{number:05d}",
        "name": f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
        "birthday": f"{int(rng.integers(1930, 2020)):04d}-{int(rng.integers(1, 13)):02d}"
        f"-{int(rng.integers(1, 29)):02d}",
        "diagnostic": str(rng.choice(_DIAGNOSES)),
    }


def patient_of(seed: int, image_number: int, patients: int) -> int:
    """Patient number an image belongs to; patients own one to several images."""
    return int(rng_for(seed, _ASSIGN, image_number).integers(0, patients))


def damage_plan(seed: int, ids: list[str], flips: int, truncations: int) -> dict[str, str]:
    """Which stored files to damage and how: id -> "flip" or "truncate"."""
    rng = rng_for(seed, _DAMAGE)
    chosen = rng.choice(len(ids), size=flips + truncations, replace=False)
    return {
        ids[int(pos)]: ("flip" if n < flips else "truncate")
        for n, pos in enumerate(chosen)
    }


def _header_end(data: bytes) -> int:
    """Offset of the first pixel byte in a canonical PGM."""
    pos = 0
    for _ in range(3):  # magic, size and maxval lines
        pos = data.index(b"\n", pos) + 1
    return pos


def truncate(data: bytes, seed: int, image_number: int) -> bytes:
    """Cut a PGM somewhere inside its pixel rows."""
    start = _header_end(data)
    rng = rng_for(seed, _DAMAGE, image_number)
    return data[: int(rng.integers(start + 1, len(data)))]


def _stream_slots(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Difference values of all pairs and the flat indices of the pairs that
    carry a stream bit, in scan order (the watermark's writable slots)."""
    p = pixels.astype(np.int64)
    n = p.shape[1] // 2
    x, y = p[:, 0 : 2 * n : 2], p[:, 1 : 2 * n : 2]
    avg, diff = (x + y) // 2, x - y
    bound = np.minimum(2 * (255 - avg), 2 * avg + 1)
    base = 2 * (diff // 2)
    writable = (np.abs(base) <= bound) & (np.abs(base + 1) <= bound)
    return diff, np.flatnonzero(writable.ravel())


def _to_int(bits: np.ndarray) -> int:
    return int("".join(str(int(b)) for b in bits), 2)


def payload_body_pairs(pixels: np.ndarray) -> np.ndarray:
    """Flat indices of the pairs carrying the CRC-covered payload body.

    Parses the on-pixel stream independently of the program: flag bit,
    32-bit map length, location map, saved LSBs, then the payload whose
    16-byte header declares the body length.
    """
    diff, slots = _stream_slots(pixels)
    bits = (diff.ravel()[slots] % 2).astype(np.uint8)
    flag, map_len = int(bits[0]), _to_int(bits[1:33])
    body = bits[33 : 33 + map_len]
    if flag == 0:
        expanded = body.astype(bool)
    else:
        runs = [_to_int(body[i : i + 16]) for i in range(0, map_len, 16)]
        expanded = np.repeat(np.arange(len(runs)) % 2, runs).astype(bool)
    saved = int((~expanded[slots]).sum())
    header_start = 33 + map_len + saved
    header = np.packbits(bits[header_start : header_start + 128]).tobytes()
    body_len = int.from_bytes(header[6:10], "big")
    return slots[header_start + 128 : header_start + 128 + 8 * body_len]


def flip_payload_bit(data: bytes, seed: int, image_number: int) -> bytes:
    """Flip one stream bit inside the payload body of a watermarked PGM.

    The write is a legal LSB substitution, so the pair stays writable, the
    extractor still reads the slot, and the payload fails its checksum.
    """
    start = _header_end(data)
    width, height = (int(v) for v in data[3:start].split()[:2])
    pixels = np.frombuffer(data[start:], dtype=np.uint8).reshape(height, width).copy()
    pairs = payload_body_pairs(pixels)
    pair = int(pairs[int(rng_for(seed, _DAMAGE, image_number).integers(0, pairs.size))])
    row, col = divmod(pair, width // 2)
    x, y = int(pixels[row, 2 * col]), int(pixels[row, 2 * col + 1])
    avg, d = (x + y) // 2, x - y
    flipped = 2 * (d // 2) + (1 - d % 2)
    pixels[row, 2 * col] = avg + (flipped + 1) // 2
    pixels[row, 2 * col + 1] = avg - flipped // 2
    return data[:start] + pixels.tobytes()
