"""Three-level Gaussian pyramid for grayscale images.

Level 0 is the input. Each further level halves both dimensions (ceil
division) with the separable binomial kernel (1, 4, 6, 4, 1) / 16 and
keeps every second sample (Burt & Adelson's REDUCE). Rows and columns
beyond the image are handled by replicating the nearest edge pixel. A row
pass over the even rows of the padded image is followed by a column pass
over the even columns of its result, so only the kept samples are
computed. Both passes sum raw uint16 products (weight sum 256) and round
half up once at the end, so results carry no intermediate rounding bias.
uint16 cannot wrap: a row-pass sum is at most 16 * 255 = 4,080, and a
column-pass sum plus the rounding 128 is at most 16 * 4,080 + 128 = 65,408.
"""

from __future__ import annotations

import numpy as np

from .errors import ImageTooSmall
from .image_io import GrayImage

LEVELS = 3


def reduce_once(img: GrayImage) -> GrayImage:
    """Smooth with the binomial kernel and decimate by two along each axis.

    Output pixel (i, j) is centered on input pixel (2i, 2j); output shape
    is (ceil(h / 2), ceil(w / 2)).
    """
    if img.width < 2 or img.height < 2:
        raise ImageTooSmall(f"cannot halve a {img.width}x{img.height} image")
    h, w = img.pixels.shape
    padded = np.pad(img.pixels, 2, mode="edge").astype(np.uint16)
    # Taps (1, 4, 6, 4, 1) at offsets 0..4; the multipliers are plain ints,
    # so the products stay uint16.
    rows = padded[0:h:2] + padded[4 : h + 4 : 2]
    rows += 4 * (padded[1 : h + 1 : 2] + padded[3 : h + 3 : 2])
    rows += 6 * padded[2 : h + 2 : 2]
    acc = rows[:, 0:w:2] + rows[:, 4 : w + 4 : 2]
    acc += 4 * (rows[:, 1 : w + 1 : 2] + rows[:, 3 : w + 3 : 2])
    acc += 6 * rows[:, 2 : w + 2 : 2]
    acc += 128
    acc >>= 8
    out = acc.astype(np.uint8)
    out.flags.writeable = False
    return GrayImage._adopt(out)


def build_pyramid(img: GrayImage) -> list[GrayImage]:
    """Return the three pyramid levels [original, half, quarter].

    Raises ImageTooSmall when the coarsest level would lose its interior
    pixels (either input side shorter than 9, making a level-2 side < 3).
    """
    if (img.width + 3) // 4 < 3 or (img.height + 3) // 4 < 3:
        raise ImageTooSmall(
            f"{img.width}x{img.height} is too small for a {LEVELS}-level pyramid; "
            "both sides must be at least 9"
        )
    levels = [img]
    for _ in range(LEVELS - 1):
        levels.append(reduce_once(levels[-1]))
    return levels
