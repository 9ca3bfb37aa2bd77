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

In pixel terms, which is how the reader finds them: a pair (x, y) is a
writable slot unless y is odd and x is 0 or 255, and the bit it carries is
h & 1 = (x ^ y) & 1. An LSB substitution keeps y and moves x within
{x - d, x - d + 1}, d = (x ^ y) & 1, which leaves [0, 255] only in those
two cases; no (l, h) is needed to locate or read the stream.

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


def reconstruction_bound(l):
    """Largest |h| that keeps both reconstructed pixels inside [0, 255].

    Works elementwise on numpy arrays as well as on ints.
    """
    return np.minimum(2 * (255 - l), 2 * l + 1)


def _to_pixels(l, h):
    """Pixels (x, y) of the pair (l, h), for ints or arrays alike."""
    return l + (h + 1) // 2, l - h // 2


def _expand(h, bit):
    """Difference after expansion: the bit becomes the new LSB."""
    return 2 * h + bit


def _substitute(h, bit):
    """Difference after LSB substitution."""
    return (h & -2) + bit


def _fits(write, l, h):
    """Whether write (_expand or _substitute), with either bit, keeps both
    pixels of the pair inside [0, 255]; for int16 arrays or scalars.

    _fits(_expand, ...) is the expandable zone and _fits(_substitute, ...)
    the changeable one, which includes it; the array code takes the
    changeable zone in pixel form from _slots. Both writes give a difference
    w = 2k + b, with k = h for _expand and k = floor(h/2) for _substitute,
    and _to_pixels turns (l, w) into the pixels (l + k + b, l - k). Both
    bits fit exactly when 0 <= l + k <= 254 and 0 <= l - k <= 255, which
    is |w| <= reconstruction_bound(l) for b = 0 and 1. With l in [0, 255]
    and |h| <= 511, l +- k stays inside [-511, 766], so each test is one
    unsigned compare: a negative int16 viewed as uint16 is at least 32768.
    """
    k = write(h, 0) >> 1
    return ((l + k).view(np.uint16) <= 254) & ((l - k).view(np.uint16) <= 255)


def inverse_transform(p: DiffPair) -> tuple[int, int]:
    """Recover the pixel values from an average/difference pair.

    Raises OutOfRange when |h| exceeds the reconstruction bound, i.e. when
    the pair does not correspond to two in-range pixels.
    """
    bound = reconstruction_bound(p.l)
    if abs(p.h) > bound:
        raise OutOfRange(f"|h|={abs(p.h)} exceeds bound {bound} at l={p.l}")
    return _to_pixels(p.l, p.h)


def classify(p: DiffPair) -> ZoneClass:
    """Zone of a pair: can it be expanded, only LSB-written, or neither."""
    l, h = np.int16(p.l), np.int16(p.h)
    if _fits(_expand, l, h):
        return ZoneClass.EXPANDABLE
    if _fits(_substitute, l, h):
        return ZoneClass.CHANGEABLE_ONLY
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
    changes = np.flatnonzero(np.diff(bits)) + 1
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


def _pair_arrays(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """(l, h) int16 arrays of shape (height, floor(width/2))."""
    # Every value the pair arithmetic reaches (2h + b with |h| <= 255)
    # stays within +-511, so int16 holds it without overflow.
    pairs = _pair_words(img)
    x, y = (pairs & 0xFF).view(np.int16), (pairs >> 8).view(np.int16)
    return (x + y) >> 1, x - y


def _slots(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(blocked, bits) of uint16 pair words: the pixel form of the
    changeable test and of the stream bit, the only ones the array code
    uses.

    blocked is ~_fits(_substitute, l, h): y is odd and x is 0 or 255,
    that is, the low nine bits of the word are 0x100 or 0x1FF. The
    substitution keeps y and sets x to x - d + b, d = (x ^ y) & 1, so it
    leaves [0, 255] exactly there. bits is h & 1 = (x ^ y) & 1 as uint8,
    for every pair, blocked ones included.
    """
    low = pairs & 0x1FF
    blocked = (low == 0x100) | (low == 0x1FF)
    return blocked, ((pairs ^ (pairs >> 8)) & 1).astype(np.uint8)


def _with_pairs(img: GrayImage, l, h, error: Exception) -> GrayImage:
    """The image with its pairs replaced by (l, h).

    Raises error when a reconstructed pixel leaves [0, 255].
    """
    x, y = _to_pixels(l, h)
    if x.size and (x.min() < 0 or x.max() > 255 or y.min() < 0 or y.max() > 255):
        raise error
    out = img.pixels.copy()
    out[:, : img.width & -2].view("<u2")[...] = (x | y << 8).view(np.uint16)
    return GrayImage(out)


def _layout(img: GrayImage):
    """(l, h, expandable, changeable, head, capacity) of an original image.

    head is the bookkeeping that opens the stream: flag, map length, map
    body and the saved LSBs of changeable-only pairs. The writable slots
    left after it are the capacity, clamped at zero.
    """
    l, h = _pair_arrays(img)
    blocked, bits = _slots(_pair_words(img))
    expandable, changeable = _fits(_expand, l, h), ~blocked
    body = np.unpackbits(np.frombuffer(rle_encode_map(expandable.ravel()), dtype=np.uint8))
    length_field = np.unpackbits(np.array([body.size], dtype=">u4").view(np.uint8))
    saved = bits[changeable & ~expandable]
    head = np.concatenate([np.ones(1, dtype=np.uint8), length_field, body, saved])
    return l, h, expandable, changeable, head, max(0, int(np.count_nonzero(changeable)) - head.size)


def capacity(img: GrayImage) -> int:
    """Payload bits the image can carry, clamped at zero.

    Writable slots are the expandable plus changeable-only pairs; the map
    header, encoded map and saved original LSBs are overhead, leaving
    E - (33 + map bits) net payload bits.
    """
    return _layout(img)[-1]


def embed(img: GrayImage, data: bytes) -> GrayImage:
    """Hide data in the image losslessly; extract() undoes it exactly.

    Raises ImageTooNarrow when the image has no pairs (width < 2) and
    PayloadTooLarge when the stream (map, saved LSBs and data) does not fit
    in the writable slots.
    """
    if img.width < 2:
        raise ImageTooNarrow(f"width {img.width} offers no pixel pairs")
    l, h, expandable, changeable, head, room = _layout(img)
    slots = np.count_nonzero(changeable)
    need = head.size + 8 * len(data)
    if need > slots:
        raise PayloadTooLarge(
            f"stream needs {need} bits but the image offers {slots} writable slots "
            f"({8 * len(data)} payload bits vs capacity {room})"
        )
    data_bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    carried = np.zeros(l.shape, dtype=np.int16)
    padding = np.zeros(slots - need, dtype=np.uint8)
    carried[changeable] = np.concatenate([head, data_bits, padding])
    h_new = np.where(
        expandable, _expand(h, carried), np.where(changeable, _substitute(h, carried), h)
    )
    return _with_pairs(
        img, l, h_new, AssertionError("zone classification let a pixel leave [0, 255]")
    )


def _parse_stream(img: GrayImage, restore: bool = False):
    """(data, blocked, saved_bits, expanded) of a marked image.

    Reads the stream in pixel form (_slots): the slots are the pairs that
    are not blocked, in scan order, so when no pair is blocked the stream
    is the parity array as it stands. Makes every check on the stream:
    header, map length, map flag, RLE map, map within the changeable
    pairs, and room for the saved LSBs; any failure raises MalformedStream.
    The count of expanded pairs is the sum of the map's runs of ones. The
    per-pair map, expanded, is built only to check it against blocked
    pairs or when restore asks for it; otherwise it is None, since the map
    cannot mark a blocked pair when there is none.
    """
    blocked, bits = _slots(_pair_words(img))
    some_blocked = bool(blocked.any())
    stream = bits[~blocked] if some_blocked else bits.ravel()
    slots = stream.size
    if slots < _HEADER_BITS:
        raise MalformedStream(
            f"{slots} writable slots cannot hold a {_HEADER_BITS}-bit stream header"
        )
    flag = int(stream[0])
    (map_len,) = struct.unpack(">I", np.packbits(stream[1:33]).tobytes())
    n_pairs = blocked.size
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
        expanded = rle_decode_map(body, n_pairs).view(bool).reshape(blocked.shape)
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
    return data, blocked, stream[saved_start : saved_start + n_saved], expanded


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
    data, blocked, saved_bits, expanded = _parse_stream(img, restore=True)
    l, h_marked = _pair_arrays(img)
    changeable = ~blocked
    saved = np.zeros(l.shape, dtype=np.int16)
    saved[changeable & ~expanded] = saved_bits
    # The outer where takes the expanded pairs, so the inner one sees only
    # changeable-only pairs among the changeable ones.
    h = np.where(
        expanded,
        h_marked >> 1,
        np.where(changeable, _substitute(h_marked, saved), h_marked),
    )
    return data, _with_pairs(
        img, l, h, MalformedStream("restored pixels leave [0, 255]; stream is corrupt")
    )
