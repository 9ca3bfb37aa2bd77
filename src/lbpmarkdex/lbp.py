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
    p = img.pixels  # >= on uint8 is exact, so no widening
    center = p[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        shifted = p[1 + dy : p.shape[0] - 1 + dy, 1 + dx : p.shape[1] - 1 + dx]
        codes |= ((shifted >= center).astype(np.uint8)) << bit
    return codes


def lbp_histogram(img: GrayImage) -> np.ndarray:
    """256-bin histogram of interior LBP codes, dtype int64.

    Bin i counts interior pixels whose code equals i; the total mass is
    (width-2) * (height-2).
    """
    codes = lbp_map(img)
    return np.bincount(codes.ravel(), minlength=256).astype(np.int64)
