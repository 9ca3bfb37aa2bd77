"""Multiresolution texture descriptors built from pyramid LBP histograms.

The descriptor of an image is the bin-wise sum of the 256-bin LBP
histograms of its three Gaussian pyramid levels. Counts are kept raw
(integers); normalization happens only inside the distance, where each
vector is scaled to unit L1 mass before taking the Euclidean distance.
Keeping raw counts makes descriptors exact, mergeable and cheap to store.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyDescriptor
from .image_io import GrayImage
from .lbp import lbp_histogram
from .pyramid import build_pyramid

BINS = 256


def compute_descriptor(img: GrayImage) -> np.ndarray:
    """256-bin descriptor of an image: summed LBP histograms of all levels.

    Returns an int64 vector. Raises ImageTooSmall (from the pyramid) when
    the image cannot support three levels.
    """
    return sum(lbp_histogram(level) for level in build_pyramid(img))


def _normalize(vec: np.ndarray, which: str) -> np.ndarray:
    mass = vec.sum(axis=-1, keepdims=True)
    if (mass <= 0).any():
        raise EmptyDescriptor(f"{which} descriptor has zero total count")
    return vec / mass


def _row_distances(unit_a: np.ndarray, unit_rows: np.ndarray) -> np.ndarray:
    """Euclidean distances from one L1-normalized vector to each normalized
    row (or to one normalized vector): the one distance formula."""
    return np.sqrt(np.sum((unit_a - unit_rows) ** 2, axis=-1))


def descriptor_distance(a, b) -> float | np.ndarray:
    """Euclidean distance between descriptors after L1 normalization.

    a is one 256-long integer sequence. b is either one such sequence,
    giving a float, or an (N, 256) matrix, giving a float64 array of the
    N distances from a to its rows; both forms do the same arithmetic, so
    they agree bit for bit. Raises EmptyDescriptor when a or any row of b
    sums to zero. Identical vectors give exactly 0.0.
    """
    va = np.asarray(a, dtype=np.int64)
    vb = np.asarray(b, dtype=np.int64)
    if va.shape != (BINS,) or vb.ndim not in (1, 2) or vb.shape[-1] != BINS:
        raise ValueError(f"descriptors must have {BINS} bins, got {va.shape} and {vb.shape}")
    d = _row_distances(_normalize(va, "first"), _normalize(vb, "second"))
    return float(d) if vb.ndim == 1 else d
