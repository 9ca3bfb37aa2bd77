"""Local binary pattern codes and histograms for 8-bit grayscale images.

Each interior pixel is compared against its eight immediate neighbors.
A neighbor at least as bright as the center contributes a 1 bit, a darker
neighbor a 0 bit. The eight bits are read clockwise starting at the
top-left neighbor, with the top-left occupying the least significant
position, giving a code in [0, 255]. Border pixels have no complete
neighborhood and are skipped.
"""

from __future__ import annotations

import numpy as np

from .errors import ImageTooSmall, OutOfBounds
from .image_io import GrayImage

# Clockwise from the top-left neighbor; index in this list is the bit weight.
NEIGHBOR_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
)


def lbp_code(img: GrayImage, x: int, y: int) -> int:
    """LBP code of the interior pixel at column x, row y.

    Raises OutOfBounds if (x, y) is on the border or outside the image.
    """
    if not (1 <= x <= img.width - 2 and 1 <= y <= img.height - 2):
        raise OutOfBounds(
            f"({x}, {y}) is not an interior pixel of a {img.width}x{img.height} image"
        )
    p = img.pixels
    center = int(p[y, x])
    code = 0
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        if int(p[y + dy, x + dx]) >= center:
            code |= 1 << bit
    return code


def lbp_map(img: GrayImage) -> np.ndarray:
    """LBP codes for all interior pixels, shape (height-2, width-2), uint8.

    Raises ImageTooSmall when the image has no interior (either side < 3).
    """
    if img.width < 3 or img.height < 3:
        raise ImageTooSmall(
            f"{img.width}x{img.height} image has no interior pixels for LBP"
        )
    p = img.pixels
    center = p[1:-1, 1:-1]
    codes = np.empty(center.shape, dtype=np.uint8)
    # Each comparison writes 0/1 bytes through a bool view of one scratch
    # buffer, which is scaled in place to its bit weight (at most 128, so
    # it stays uint8) and ORed in; bit 0 is written straight into codes.
    buf = np.empty_like(codes)
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        shifted = p[1 + dy : p.shape[0] - 1 + dy, 1 + dx : p.shape[1] - 1 + dx]
        if bit == 0:
            np.greater_equal(shifted, center, out=codes.view(bool))
            continue
        np.greater_equal(shifted, center, out=buf.view(bool))
        np.multiply(buf, 1 << bit, out=buf)
        codes |= buf
    return codes


def lbp_histogram(img: GrayImage) -> np.ndarray:
    """256-bin histogram of interior LBP codes, dtype int64.

    Bin i counts interior pixels whose code equals i; the total mass is
    (width-2) * (height-2). The codes are counted two at a time: each
    uint16 word of two adjacent codes is one of 65,536 bins, and folding
    that 256 x 256 table along both axes (row sums plus column sums)
    counts every code of every pair, whatever the byte order. An odd last
    code is added on its own.
    """
    codes = lbp_map(img).ravel()
    n = codes.size
    pairs = np.bincount(codes[: n & -2].view(np.uint16), minlength=65536).reshape(256, 256)
    hist = pairs.sum(axis=0) + pairs.sum(axis=1)
    if n & 1:
        hist[codes[-1]] += 1
    return hist.astype(np.int64)
