"""Shared test utilities: image generators, independent wire readers and
the reference precision/recall curve.

The generators keep pixel values away from 0/255 saturation so that every
horizontal pair stays expandable; that keeps location maps tiny and gives
the embedder room for full payloads. The wire-reading helpers reimplement
pair classification and stream parsing with plain Python loops so tests
can cross-check the package against a second, independent reading of the
format.
"""

from __future__ import annotations

import zlib

import numpy as np

from lbpmarkdex import (
    EvalSets,
    GrayImage,
    PatientRecord,
    Payload,
    compute_descriptor,
    embed,
    encode_payload,
    precision_recall,
    save_pgm,
)
from lbpmarkdex.errors import BadCutoff, PayloadTooLarge


# ---------------------------------------------------------------------------
# Image generators


def smooth_noise_image(rng: np.random.Generator, width: int, height: int) -> GrayImage:
    """Uniform noise around a random mid-range base; every pair expandable."""
    base = int(rng.integers(60, 196))
    half = int(rng.integers(2, 20))
    values = base + rng.integers(-half, half + 1, size=(height, width))
    return GrayImage(values)


def banded_noise_image(rng: np.random.Generator, width: int, height: int) -> GrayImage:
    """Smooth noise with one saturated white row band (unchangeable pairs).

    The band is horizontal so its pairs stay contiguous in the row-major
    pair scan; the location map then costs a handful of RLE runs instead
    of two runs per row, which would starve small images of capacity.
    """
    img = smooth_noise_image(rng, width, height).pixels.copy()
    band = max(2, height // 4)
    start = int(rng.integers(0, height - band + 1))
    img[start : start + band, :] = 255
    return GrayImage(img)


def gradient_image(rng: np.random.Generator, size: int = 192) -> GrayImage:
    """Near-axis linear ramp; LBP mass concentrates on a few codes."""
    theta = np.deg2rad(rng.uniform(-15, 15) + rng.choice([0, 90]))
    slope = rng.uniform(0.4, 0.9)
    yy, xx = np.mgrid[0:size, 0:size]
    ramp = slope * (np.cos(theta) * xx + np.sin(theta) * yy)
    values = 40 + rng.uniform(0, 20) + ramp - ramp.min()
    return GrayImage(np.rint(np.clip(values, 2, 253)).astype(np.int64))


def impulse_image(rng: np.random.Generator, size: int = 192) -> GrayImage:
    """Flat background with sparse moderate-amplitude impulse noise.

    Impulses stay within +/-60 of the background so the pairs they touch
    remain expandable (full-swing salt and pepper would kill capacity).
    """
    background = int(rng.integers(115, 141))
    values = np.full((size, size), background, dtype=np.int64)
    count = int(rng.uniform(0.02, 0.05) * size * size)
    ys = rng.integers(0, size, count)
    xs = rng.integers(0, size, count)
    amplitude = rng.integers(40, 61, count) * rng.choice([-1, 1], count)
    values[ys, xs] = background + amplitude
    return GrayImage(values)


def stripe_image(rng: np.random.Generator, size: int = 192) -> GrayImage:
    """Sinusoidal stripes of random period, angle and contrast."""
    period = rng.uniform(8, 16)
    theta = np.deg2rad(rng.uniform(0, 180))
    amplitude = rng.uniform(20, 40)
    base = rng.uniform(100, 155)
    phase = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:size, 0:size]
    wave = np.sin(2 * np.pi * (np.cos(theta) * xx + np.sin(theta) * yy) / period + phase)
    return GrayImage(np.rint(np.clip(base + amplitude * wave, 2, 253)).astype(np.int64))


TEXTURE_CLASSES = {
    "gradient": gradient_image,
    "impulse": impulse_image,
    "stripe": stripe_image,
}


def sample_patient(i: int) -> PatientRecord:
    """Deterministic distinct patient record for corpus position i."""
    return PatientRecord(
        patient_id=f"P{i:04d}",
        name=f"Patient #{i}",
        birth_year=1950 + (i % 60),
        birth_month=1 + (i % 12),
        birth_day=1 + (i % 28),
        diagnostic=f"synthetic case {i}",
    )


# ---------------------------------------------------------------------------
# Capacity oracle


def max_feasible_bytes(img: GrayImage) -> int | None:
    """Independent capacity oracle: bisect the embedder itself.

    Returns the largest byte count embed() accepts, or None when even an
    empty payload does not fit.
    """

    def fits(n: int) -> bool:
        try:
            embed(img, bytes(n))
        except PayloadTooLarge:
            return False
        return True

    if not fits(0):
        return None
    lo, hi = 0, (img.width // 2) * img.height // 8 + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


# ---------------------------------------------------------------------------
# Independent stream reading (plain loops, no package internals)


def reference_bound(l: int) -> int:
    return min(2 * (255 - l), 2 * l + 1)


def reference_zone(l: int, h: int) -> str:
    """Re-derive the zone of a pair straight from the inequalities."""
    bound = reference_bound(l)
    if abs(2 * h) <= bound and abs(2 * h + 1) <= bound:
        return "expandable"
    base = 2 * (h // 2)
    if abs(base) <= bound and abs(base + 1) <= bound:
        return "changeable_only"
    return "unchangeable"


def changeable_pair_scan(pixels: np.ndarray) -> tuple[list[tuple[int, int]], list[int]]:
    """Positions (row, pair) of changeable pairs in scan order, and the LSB
    of each pair's difference (the raw stream bits)."""
    height, width = pixels.shape
    positions: list[tuple[int, int]] = []
    bits: list[int] = []
    for row in range(height):
        for j in range(width // 2):
            a = int(pixels[row, 2 * j])
            b = int(pixels[row, 2 * j + 1])
            l = (a + b) // 2
            h = a - b
            if reference_zone(l, h) != "unchangeable":
                positions.append((row, j))
                bits.append(h % 2)
    return positions, bits


def _bits_to_int(bits: list[int]) -> int:
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


def parse_wire(pixels: np.ndarray) -> dict:
    """Parse the embedded stream of a watermarked image independently.

    Returns the changeable positions, the raw stream bits, the map flag,
    the decoded per-pair expansion map, and the bit offset where the data
    region starts (after flag, length, map body and saved LSBs).
    """
    height, width = pixels.shape
    n_pairs = (width // 2) * height
    positions, bits = changeable_pair_scan(pixels)
    flag = bits[0]
    map_len = _bits_to_int(bits[1:33])
    body = bits[33 : 33 + map_len]
    if flag == 0:
        map_bits = list(body)
    else:
        map_bits = []
        symbol = 0
        for start in range(0, map_len, 16):
            run = _bits_to_int(body[start : start + 16])
            map_bits.extend([symbol] * run)
            symbol ^= 1
        assert len(map_bits) == n_pairs, "independent RLE decode disagrees on length"
    expanded = set()
    for pair_index, bit in enumerate(map_bits):
        if bit:
            expanded.add((pair_index // (width // 2), pair_index % (width // 2)))
    saved_count = sum(1 for pos in positions if pos not in expanded)
    return {
        "positions": positions,
        "bits": bits,
        "flag": flag,
        "map_len": map_len,
        "expanded": expanded,
        "data_start": 33 + map_len + saved_count,
    }


def write_stream_bits(img: GrayImage, start: int, bits: list[int]) -> GrayImage:
    """Set the LSBs carried at stream positions start, start + 1, ... of a
    marked image to bits.

    Each write is a legal LSB substitution, which keeps the pair
    changeable, so extraction still reads the same slots, now carrying
    the new bits.
    """
    pixels = img.pixels.astype(np.int64)
    positions, _ = changeable_pair_scan(pixels)
    assert start + len(bits) <= len(positions), "stream has too few slots"
    for (row, j), bit in zip(positions[start:], bits):
        a = int(pixels[row, 2 * j])
        b = int(pixels[row, 2 * j + 1])
        l = (a + b) // 2
        written = 2 * ((a - b) // 2) + bit
        pixels[row, 2 * j] = l + (written + 1) // 2
        pixels[row, 2 * j + 1] = l - written // 2
    return GrayImage(pixels)


def flip_stream_bit(img: GrayImage, bit_index: int) -> GrayImage:
    """Complement the LSB carried at one stream position of a marked image."""
    _, bits = changeable_pair_scan(img.pixels)
    return write_stream_bits(img, bit_index, [1 - bits[bit_index]])


def int_bits(value: int, width: int) -> list[int]:
    """value as width bits, most significant first (the stream's bit order)."""
    return [(value >> shift) & 1 for shift in reversed(range(width))]


# ---------------------------------------------------------------------------
# Payloads that only the UTF-8 check rejects


def non_utf8_payload(locator: str = "store/x.pgm", descriptor=None) -> bytes:
    """Wire bytes whose name field starts with 0xFF, checksum recomputed.

    Framing, lengths and CRC are all valid, so only the text decoding can
    reject it.
    """
    record = PatientRecord(patient_id="P-BAD", name="~name")
    payload = Payload(
        descriptor=range(256) if descriptor is None else descriptor,
        locator=locator,
        record=record,
    )
    blob = bytearray(encode_payload(payload))
    blob[blob.index(b"~name", 16)] = 0xFF
    blob[10:14] = zlib.crc32(bytes(blob[16:])).to_bytes(4, "big")
    return bytes(blob)


def save_non_utf8_file(path, rng: np.random.Generator) -> None:
    """Store a watermarked image at path that carries non_utf8_payload()."""
    img = smooth_noise_image(rng, 160, 160)
    blob = non_utf8_payload(str(path), compute_descriptor(img))
    save_pgm(path, embed(img, blob))


def save_empty_descriptor_file(path, rng: np.random.Generator, patient_id: str) -> None:
    """Store a watermarked image at path whose CRC-valid payload carries an
    all-zero descriptor, which index_add never writes."""
    img = smooth_noise_image(rng, 160, 160)
    payload = Payload(
        descriptor=[0] * 256,
        locator=str(path),
        record=PatientRecord(patient_id=patient_id),
    )
    save_pgm(path, embed(img, encode_payload(payload)))


def save_locator_file(path, rng: np.random.Generator, locator: str) -> None:
    """Store a watermarked image at path whose payload names locator, which
    need not be path or any locator index_add would write."""
    img = smooth_noise_image(rng, 160, 160)
    payload = Payload(
        descriptor=compute_descriptor(img),
        locator=locator,
        record=PatientRecord(patient_id="P-LOC"),
    )
    save_pgm(path, embed(img, encode_payload(payload)))


# ---------------------------------------------------------------------------
# Reference precision/recall curve


def reference_check_cutoffs(cutoffs, n: int) -> None:
    if list(cutoffs) != sorted(set(cutoffs)) or (cutoffs and not 1 <= cutoffs[0] <= cutoffs[-1] <= n):
        raise BadCutoff(f"cutoffs {cutoffs} are not strictly ascending within [1, {n}]")


def reference_pr_curve(ranked, relevant, cutoffs) -> list[tuple[int, float, float]]:
    """(k, precision, recall) of each top-k prefix of a ranking, each from
    precision_recall: a repeated id counts once, in both the hits and the
    size of the answer set."""
    reference_check_cutoffs(cutoffs, len(ranked))
    return [(k, *precision_recall(EvalSets(relevant, ranked[:k]))) for k in cutoffs]
