"""Reversible difference-expansion watermarking of grayscale images.

Pixels are paired horizontally in row-major scan order (an odd trailing
column is never touched). Each pair (x, y) maps to its average and
difference

    l = floor((x + y) / 2),  h = x - y

with floor toward minus infinity throughout. The pair reconstructs inside
[0, 255] exactly when |h| <= min(2*(255 - l), 2*l + 1), which yields three
zones:

    Expandable      |2h + b|           within bound for b in {0, 1}
    ChangeableOnly  |2*floor(h/2) + b| within bound for b in {0, 1}, not expandable
    Unchangeable    everything else

Expandable pairs carry a bit by expansion (h' = 2h + b), changeable-only
pairs by plain LSB substitution (h' = 2*floor(h/2) + b, original LSB saved
in the stream). Both operations keep the pair changeable, and untouched
pairs keep their zone, so the extractor can recompute the writable slots
from the watermarked image alone.

In pixel terms, which is how the array code works: a pair (x, y) is a
writable slot unless y is odd and x is 0 or 255, and the bit it carries is
h & 1 = d = (x ^ y) & 1. Carrying bit b, an expanded pair is written
(l + h + b, l - h) and a changeable-only pair keeps y and becomes
x - d + b, which leaves [0, 255] only in those two blocked cases. The
extractor restores a changeable-only pair as x - d + s, s its saved LSB,
and an expanded one by halving its difference.

On-pixels bitstream (the interoperability surface between embed and
extract), written MSB-first into the LSBs of writable pairs in scan order:

    [1 bit]   location-map flag: embed always writes 1 (run-length coded)
              and the reader rejects 0 (a raw map, one bit per pair, which
              alone exceeds the writable slots); PayloadTooLarge counts the
              bits of this run-length stream
    [32 bits] big-endian length of the encoded map body, in bits
    [map]     alternating big-endian 16-bit run lengths of the map
              (1 = expanded pair), first run counts zeros; a run longer
              than 65535 is split by emitting 65535 followed by a
              zero-length run of the other symbol
    [C bits]  original LSBs of the changeable-only pairs, scan order
    [data]    payload bytes, MSB-first
    [pad]     zero bits to fill the remaining writable slots
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

import numpy as np

from .errors import ImageTooNarrow, MalformedStream, OutOfRange, PayloadTooLarge
from .image_io import GrayImage

_HEADER_BITS = 33  # flag bit + 32-bit map length


class DiffPair(NamedTuple):
    """Average/difference form of a horizontal pixel pair."""

    l: int
    h: int


class ZoneClass(enum.Enum):
    """What a pair can carry without leaving [0, 255]."""

    EXPANDABLE = "expandable"
    CHANGEABLE_ONLY = "changeable_only"
    UNCHANGEABLE = "unchangeable"


def forward_transform(x: int, y: int) -> DiffPair:
    """Map pixel values (x, y) to their average/difference pair."""
    if not (0 <= x <= 255 and 0 <= y <= 255):
        raise OutOfRange(f"pixel values ({x}, {y}) outside [0, 255]")
    return DiffPair(l=(x + y) // 2, h=x - y)


def reconstruction_bound(l: int) -> int:
    """Largest |h| that keeps both reconstructed pixels inside [0, 255]."""
    return min(2 * (255 - l), 2 * l + 1)


def inverse_transform(p: DiffPair) -> tuple[int, int]:
    """Recover the pixel values from an average/difference pair.

    Raises OutOfRange when |h| exceeds the reconstruction bound, i.e. when
    the pair does not correspond to two in-range pixels.
    """
    bound = reconstruction_bound(p.l)
    if abs(p.h) > bound:
        raise OutOfRange(f"|h|={abs(p.h)} exceeds bound {bound} at l={p.l}")
    return p.l + (p.h + 1) // 2, p.l - p.h // 2


def classify(p: DiffPair) -> ZoneClass:
    """Zone of a pair: can it be expanded, only LSB-written, or neither.

    Expansion writes the difference 2h + b and LSB substitution
    (h & -2) + b; a write fits when its difference stays within
    reconstruction_bound(l) for both bits b. The arithmetic is on Python
    ints, so a pair that no image holds, such as l = 40000, is
    unchangeable rather than an overflow.
    """
    l, h = int(p.l), int(p.h)
    bound = reconstruction_bound(l)
    for base, zone in ((2 * h, ZoneClass.EXPANDABLE), (h & -2, ZoneClass.CHANGEABLE_ONLY)):
        if abs(base) <= bound and abs(base + 1) <= bound:
            return zone
    return ZoneClass.UNCHANGEABLE


# ---------------------------------------------------------------------------
# Location map encoding


def rle_encode_map(bits: np.ndarray) -> bytes:
    """Run-length encode a location map (alternating u16 runs, zeros first).

    A run longer than 65535 is emitted as 65535, then a zero-length run of
    the opposite symbol, then the remainder, so the decoder never needs a
    continuation rule.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if not bits.size:
        return b""
    changes = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    lengths = np.diff(np.concatenate(([0], changes, [bits.size])))
    # Runs alternate by construction; a map opening with ones gets an empty zero run.
    words = [0] * int(bits[0])
    for length in lengths.tolist():
        splits = (length - 1) // 0xFFFF
        words += [0xFFFF, 0] * splits + [length - 0xFFFF * splits]
    return struct.pack(f">{len(words)}H", *words)


def _rle_runs(body: bytes, n_bits: int) -> np.ndarray:
    """Run lengths of an RLE map body that covers n_bits map bits; raises
    MalformedStream on bad input."""
    if len(body) % 2 != 0:
        raise MalformedStream(f"RLE map body of {len(body)} bytes is not word-aligned")
    runs = np.frombuffer(body, dtype=">u2")
    covered = int(runs.sum(dtype=np.int64))
    if covered != n_bits:
        raise MalformedStream(f"RLE runs cover {covered} of {n_bits} map bits")
    return runs


def rle_decode_map(body: bytes, n_bits: int) -> np.ndarray:
    """Inverse of rle_encode_map; raises MalformedStream on bad input."""
    runs = _rle_runs(body, n_bits)
    # Odd-numbered runs are ones; the parity comes from int64 indices, so
    # any number of runs alternates correctly.
    return np.repeat((np.arange(runs.size) & 1).astype(np.uint8), runs)


# ---------------------------------------------------------------------------
# Whole-image helpers


def _pair_words(img: GrayImage) -> np.ndarray:
    """Each pair (x, y) as one little-endian uint16 word x + 256*y, in an
    array of shape (height, floor(width/2))."""
    return np.ascontiguousarray(img.pixels[:, : img.width & -2]).view("<u2")


def _pixels(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pixels x and y of uint16 pair words, as int16 arrays."""
    return (pairs & 0xFF).view(np.int16), (pairs >> 8).view(np.int16)


def _slots(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(blocked, bits) of uint16 pair words: the pairs that hold no stream
    bit, and the bit each pair carries.

    A pair is blocked when y is odd and x is 0 or 255, that is, when the
    low nine bits of its word are 0x100 or 0x1FF. An LSB substitution keeps
    y and sets x to x - d + b, d = (x ^ y) & 1, so it leaves [0, 255]
    exactly there. bits is d = h & 1 as uint8, for every pair, blocked
    ones included.
    """
    low = pairs & 0x1FF
    blocked = (low == 0x100) | (low == 0x1FF)
    return blocked, _parity(pairs)


def _parity(pairs: np.ndarray) -> np.ndarray:
    """d = (x ^ y) & 1 of each uint16 pair word, as uint8: the bit it carries."""
    bits = pairs >> 8
    bits ^= pairs
    bits &= 1
    return bits.astype(np.uint8)


def _with_pixels(img: GrayImage, x, y, error: Exception) -> GrayImage:
    """The image with its pairs replaced by the int16 pixels (x, y).

    Raises error when a pixel leaves [0, 255], that is, when it has a bit
    set above the low eight; a negative int16 has them all.
    """
    if np.any((x | y) >> 8):
        raise error
    out = img.pixels.copy()
    out[:, : img.width & -2].view("<u2")[...] = (x | y << 8).view(np.uint16)
    out.flags.writeable = False
    return GrayImage._adopt(out)


def _layout(img: GrayImage):
    """(x0, y0, blocked, bits, head, slots) of an original image.

    (x0, y0) are the int16 pixels each pair takes carrying bit 0; bit 1
    adds one to x0. A changeable-only pair becomes (x - d, y), d its bit
    from _slots, so a blocked pair, which carries its own d, stays as it
    is. An expansion writes (l + h, l - h) = (x - d + c, y - c), with
    c = ceil(h/2). A pair is expandable when both bits fit,
    0 <= l + h <= 254 and 0 <= l - h <= 255: one unsigned compare each, as
    the values lie in [-128, 382] and a negative int16 viewed as uint16 is
    at least 32768.

    head is the bookkeeping that opens the stream: flag, map length, map
    body and the saved LSBs of changeable-only pairs; slots counts the
    pairs that are not blocked.
    """
    pairs = _pair_words(img)
    x, y = _pixels(pairs)
    blocked, bits = _slots(pairs)
    x0, c = x - bits, (x - y + 1) >> 1
    expandable = ((x0 + c).view(np.uint16) <= 254) & ((y - c).view(np.uint16) <= 255)
    body = np.unpackbits(np.frombuffer(rle_encode_map(expandable.ravel()), dtype=np.uint8))
    length_field = np.unpackbits(np.array([body.size], dtype=">u4").view(np.uint8))
    saved = bits[~(blocked | expandable)]
    head = np.concatenate([np.ones(1, dtype=np.uint8), length_field, body, saved])
    c *= expandable
    slots = blocked.size - int(np.count_nonzero(blocked))
    return x0 + c, y - c, blocked, bits, head, slots


def capacity(img: GrayImage) -> int:
    """Payload bits the image can carry: writable slots - (33 + map bits +
    saved LSBs), clamped at 0.

    Writable slots are the expandable plus changeable-only pairs; the
    flag, map length, encoded map and saved original LSBs are the overhead.
    """
    *_, head, slots = _layout(img)
    return max(0, slots - head.size)


def embed(img: GrayImage, data: bytes) -> GrayImage:
    """Hide data in the image losslessly; extract() undoes it exactly.

    Raises ImageTooNarrow when the image has no pairs (width < 2) and
    PayloadTooLarge when the stream (map, saved LSBs and data) does not fit
    in the writable slots.
    """
    if img.width < 2:
        raise ImageTooNarrow(f"width {img.width} offers no pixel pairs")
    return _write(img, _layout(img), data)


def _write(img: GrayImage, layout, data: bytes) -> GrayImage:
    """embed() of data into img, given _layout(img) of an image with pairs.

    Raises PayloadTooLarge when the stream does not fit; the layout's
    arrays are written in place, so each layout serves one write.
    """
    x0, y0, blocked, bits, head, slots = layout
    need = head.size + 8 * len(data)
    if need > slots:
        raise PayloadTooLarge(
            f"stream needs {need} bits but the image offers {slots} writable slots "
            f"({8 * len(data)} payload bits vs capacity {max(0, slots - head.size)})"
        )
    data_bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if slots == bits.size:
        # No pair is blocked: the stream, in scan order, is the carried bit
        # of every pair, and the zero padding adds nothing. x0 is a fresh
        # contiguous array, so flat is a view of it.
        flat = x0.reshape(-1)
        flat[: head.size] += head
        flat[head.size : need] += data_bits
    else:
        carried = bits.copy()  # a blocked pair carries its own d and stays as it is
        padding = np.zeros(slots - need, dtype=np.uint8)
        carried[~blocked] = np.concatenate([head, data_bits, padding])
        x0 += carried
    return _with_pixels(
        img, x0, y0, AssertionError("zone classification let a pixel leave [0, 255]")
    )


def _rewrite(marked: GrayImage, layout, old: bytes, new: bytes) -> tuple[int, np.ndarray]:
    """(first, rows): the rows of embed(img, new) from row first on that
    can differ from marked = _write(img, layout, old), where new is as long
    as old. Every other row of the two images is the same.

    A pair carrying bit b holds x0 + b as its x pixel, so only the stream
    bits where old and new differ change, as x - old bit + new bit. The
    stream reaches a pair through the slot order, which skips blocked
    pairs. rows is a fresh array, a copy of just the rows touched: marked
    stays as it is. It uses only the layout's blocked mask, its head and
    its slot count, which _write leaves as they were, so layout[2:], the
    layout without the pixels _write spent, will do as well.
    """
    *_, blocked, bits, head, slots = layout
    delta = np.unpackbits(np.frombuffer(new, np.uint8)).astype(np.int16)
    delta -= np.unpackbits(np.frombuffer(old, np.uint8))
    changed = np.flatnonzero(delta)
    pairs = head.size + changed
    if slots != bits.size:
        pairs = np.flatnonzero(~blocked)[pairs]
    row, column = np.divmod(pairs, bits.shape[1])
    first, end = (int(row[0]), int(row[-1]) + 1) if row.size else (0, 0)
    rows = marked.pixels[first:end].copy()
    at = (row - first, 2 * column)
    rows[at] = rows[at] + delta[changed]
    return first, rows


def _parse_stream(img: GrayImage, restore: bool = False):
    """(data, blocked, bits, saved_bits, expanded) of a marked image.

    Reads the stream in pixel form (_slots): the slots are the pairs that
    are not blocked, in scan order, so when no pair is blocked the stream
    is the parity array as it stands. A blocked pair has x = 0 or 255, so
    a data-only read of an image with no pixel at 0 or 255 takes that
    short cut without building the mask, and blocked is then None. Makes
    every check on the stream: header, map length, map flag, RLE map, map
    within the changeable pairs, and room for the saved LSBs; any failure
    raises MalformedStream. The count of expanded pairs is the sum of the
    map's runs of ones. The per-pair map, expanded, is built only to check
    it against blocked pairs or when restore asks for it; otherwise it is
    None, since the map cannot mark a blocked pair when there is none.
    """
    pairs = _pair_words(img)
    if restore or not (img.pixels.min() > 0 and img.pixels.max() < 255):
        blocked, bits = _slots(pairs)
        some_blocked = bool(blocked.any())
    else:
        blocked, bits, some_blocked = None, _parity(pairs), False
    stream = bits[~blocked] if some_blocked else bits.ravel()
    slots = stream.size
    if slots < _HEADER_BITS:
        raise MalformedStream(
            f"{slots} writable slots cannot hold a {_HEADER_BITS}-bit stream header"
        )
    # The 33 header bits, packed into 5 bytes, end in 7 zero bits.
    header = int.from_bytes(np.packbits(stream[:_HEADER_BITS]).tobytes(), "big") >> 7
    flag, map_len = header >> 32, header & 0xFFFFFFFF
    n_pairs = bits.size
    if _HEADER_BITS + map_len > slots:
        raise MalformedStream(
            f"declared map body of {map_len} bits exceeds the {slots}-slot stream"
        )
    # A raw map (flag 0) is n_pairs bits and slots <= n_pairs, so the check
    # above already rejects every raw map whose length would match.
    if flag == 0:
        raise MalformedStream(f"raw map is {map_len} bits for {n_pairs} pairs")
    if map_len % 16 != 0:
        raise MalformedStream(f"RLE map body of {map_len} bits is not word-aligned")
    body = np.packbits(stream[_HEADER_BITS : _HEADER_BITS + map_len]).tobytes()
    runs = _rle_runs(body, n_pairs)
    expanded = None
    if some_blocked or restore:
        expanded = rle_decode_map(body, n_pairs).view(bool).reshape(bits.shape)
        if np.any(expanded & blocked):
            raise MalformedStream("location map marks a pair that holds no stream bit")
    # expanded lies inside the slots: the rest of them are saved LSBs.
    n_saved = slots - int(runs[1::2].sum(dtype=np.int64))
    saved_start = _HEADER_BITS + map_len
    if saved_start + n_saved > slots:
        raise MalformedStream(
            f"stream too short for {n_saved} saved LSBs after the location map"
        )
    data_bits = stream[saved_start + n_saved :]
    data = np.packbits(data_bits[: 8 * (data_bits.size // 8)]).tobytes()
    return data, blocked, bits, stream[saved_start : saved_start + n_saved], expanded


def extract_data(img: GrayImage) -> bytes:
    """The data region extract() returns, without restoring the original.

    Raises what extract() raises, except the check on restored pixels,
    which cannot fail once the stream checks pass: a marked pair is in
    range, halving an expanded difference keeps it in range, and a
    changeable pair stays in range with either LSB.
    """
    return _parse_stream(img)[0]


def extract(img: GrayImage) -> tuple[bytes, GrayImage]:
    """Read back the data region and restore the original image.

    The image must come from embed(); anything else raises MalformedStream
    (or yields garbage data that downstream framing rejects). The returned
    bytes include the zero padding after the payload, so callers delimit
    the real content themselves.
    """
    data, blocked, bits, saved_bits, expanded = _parse_stream(img, restore=True)
    x, y = _pixels(_pair_words(img))
    # s of x - d + s: the saved LSB, a blocked pair's own d, 0 if expanded.
    saved = bits * blocked
    saved[~(blocked | expanded)] = saved_bits
    # An expanded pair (x - d + c + b, y - c), c = ceil(h/2), halves its
    # difference to h and is restored as (x - d - floor(h/2), y + c); h
    # and c are 0 on every other pair.
    h = expanded * ((x - y) >> 1)
    c = (h + 1) >> 1
    return data, _with_pixels(
        img,
        x - bits + saved - (h - c),
        y + c,
        MalformedStream("restored pixels leave [0, 255]; stream is corrupt"),
    )
