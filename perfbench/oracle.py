"""Reference answers the benchmark checks the program's outputs against.

These are second, independent implementations of what the program
computes, written from the format and the paper rather than from the
package, and they import nothing from it:

- the descriptor: sum of the 256-bin LBP histograms of a three-level
  binomial pyramid (edge replication, one round-half-up per level);
- the distance: Euclidean distance between L1-normalised descriptors;
- rankings in (distance, id) order;
- leave-one-out per-class mean precision/recall, in exact fractions.

The pyramid here runs the 1-D kernel over rows, then columns, computing
only the samples that are kept. Its integer sums equal those of a fused
5x5 kernel exactly, so the result is bit-identical to any correct one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_KERNEL = (1, 4, 6, 4, 1)
# Clockwise from the top-left neighbour; position in the list is the bit.
_NEIGHBOURS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def _reduce(level: np.ndarray) -> np.ndarray:
    h, w = level.shape
    padded = np.pad(level, 2, mode="edge")
    rows = sum(k * padded[i : i + h : 2, :] for i, k in enumerate(_KERNEL))
    both = sum(k * rows[:, j : j + w : 2] for j, k in enumerate(_KERNEL))
    return (both + 128) // 256


def _lbp_histogram(level: np.ndarray) -> np.ndarray:
    h, w = level.shape
    centre = level[1:-1, 1:-1]
    codes = np.zeros(centre.shape, dtype=np.int64)
    for bit, (dy, dx) in enumerate(_NEIGHBOURS):
        codes += (level[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx] >= centre).astype(np.int64) << bit
    return np.bincount(codes.ravel(), minlength=256)


def descriptor(pixels: np.ndarray) -> np.ndarray:
    """256-bin int64 descriptor of a uint8 image."""
    level = pixels.astype(np.int64)
    total = _lbp_histogram(level)
    for _ in range(2):
        level = _reduce(level)
        total = total + _lbp_histogram(level)
    return total.astype(np.int64)


def _normalise(descriptors: np.ndarray) -> np.ndarray:
    return descriptors.astype(np.float64) / descriptors.sum(axis=-1, keepdims=True)


def distances(query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Distance from one descriptor to each row of a descriptor matrix."""
    diff = _normalise(query)[None, :] - _normalise(candidates)
    return np.sqrt(np.sum(diff**2, axis=1))


def ranking(query: np.ndarray, ids: list[str], matrix: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The k nearest (id, distance) pairs in (distance, id) order."""
    dist = distances(query, matrix)
    order = sorted(range(len(ids)), key=lambda n: (dist[n], ids[n]))
    return [(ids[n], float(dist[n])) for n in order[:k]]


def class_mean_pr_csv(
    ids: list[str], matrix: np.ndarray, labels: dict[str, str], cutoffs: list[int]
) -> str:
    """CSV the evaluate verb must print: leave-one-out over the labelled ids,
    relevant means same label, means per class at each cutoff."""
    curves: dict[str, list[list[tuple[Fraction, Fraction]]]] = {}
    for q, query_id in enumerate(ids):
        label = labels[query_id]
        relevant = {i for i in ids if i != query_id and labels[i] == label}
        if not relevant:
            continue
        others = [n for n in range(len(ids)) if n != q]
        ranked = [i for i, _ in ranking(matrix[q], [ids[n] for n in others], matrix[others], max(cutoffs))]
        curve = []
        for k in cutoffs:
            hits = sum(1 for i in ranked[:k] if i in relevant)
            curve.append((Fraction(hits, k), Fraction(hits, len(relevant))))
        curves.setdefault(label, []).append(curve)
    lines = ["class,k,mean_precision,mean_recall"]
    for label in sorted(curves):
        per_query = curves[label]
        for pos, k in enumerate(cutoffs):
            precision = sum(c[pos][0] for c in per_query) / len(per_query)
            recall = sum(c[pos][1] for c in per_query) / len(per_query)
            lines.append(f"{label},{k},{float(precision):.6f},{float(recall):.6f}")
    return "\n".join(lines) + "\n"
