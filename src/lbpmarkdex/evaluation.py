"""Precision/recall scoring of retrieval runs, with per-class mean curves.

Given a set R of images relevant to a query and an answer list A, the two
classic ratios are

    recall    = |A intersect R| / |R|
    precision = |A intersect R| / |A|

Both are kept as integer hit counts and divided once, at the edge.
Python's int/int division is correctly rounded, so every value is the
float nearest the exact ratio. Curves evaluate the top-k prefixes of a
ranking for a list of cutoffs, reading every count from one running sum
over the ranking; class means average per-query values at each fixed
cutoff.

Leave-one-out evaluation normalizes the labeled descriptors once, as one
matrix. Each query ranks all labeled images by descriptor_distance's
formula in (distance, id) order, and only the query's own position is
removed, so a duplicate of the query still ranks first at distance 0.
That ranking is never filled in as an N x N matrix. Query rows go in
blocks through one Gram product, which gives every pair's squared
distance to within a proven bound and so a candidate order; a row whose
order separates each cutoff by more than that bound has exactly the
top-k sets of the exact ranking. Any other row (duplicates or near ties
straddling a cutoff) is ranked exactly, through _row_distances, the one
distance formula. Beside the unit rows, peak memory is one block of
query rows by N.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .descriptor import _normalize, _row_distances
from .errors import BadCutoff, EmptyAnswerSet, EmptyRelevantSet


def _answer_id(item) -> str:
    # Accept plain ids or ranked-result objects carrying an image_id.
    return getattr(item, "image_id", item)


@dataclass(frozen=True)
class EvalSets:
    """Relevant set R and ordered answer list A for one query."""

    relevant: frozenset[str]
    answers: tuple[str, ...]

    def __init__(self, relevant, answers) -> None:
        object.__setattr__(self, "relevant", frozenset(relevant))
        object.__setattr__(
            self, "answers", tuple(_answer_id(item) for item in answers)
        )

    @property
    def relevant_answers(self) -> frozenset[str]:
        return self.relevant & frozenset(self.answers)


def precision_recall(sets: EvalSets) -> tuple[float, float]:
    """(precision, recall) of one answer list against one relevant set."""
    if not sets.relevant:
        raise EmptyRelevantSet("relevant set R is empty; recall is undefined")
    if not sets.answers:
        raise EmptyAnswerSet("answer list A is empty; precision is undefined")
    hits = len(sets.relevant_answers)
    return hits / len(set(sets.answers)), hits / len(sets.relevant)


def _check_cutoffs(cutoffs: Sequence[int], n: int) -> None:
    """Raise BadCutoff unless cutoffs are strictly ascending within [1, n]."""
    previous = 0
    for k in cutoffs:
        if k < 1 or k > n:
            raise BadCutoff(f"cutoff {k} outside [1, {n}]")
        if k <= previous:
            raise BadCutoff(f"cutoffs must be strictly ascending, got {k} after {previous}")
        previous = k


def _prefix_counts(mask: np.ndarray, cutoffs: Sequence[int]) -> np.ndarray:
    """How many entries of a ranking's boolean mask (or of each row of a
    stack of them) are true within each top-k prefix, k in cutoffs: the
    one way hits are counted."""
    return np.cumsum(mask, axis=-1, dtype=np.int64)[..., np.asarray(cutoffs, dtype=np.intp) - 1]


def pr_curve(
    ranked: Sequence, relevant: Iterable[str], cutoffs: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Evaluate (precision, recall) at each top-k prefix of a ranking.

    Cutoffs must be ascending and within [1, len(ranked)]; recall is
    non-decreasing along the returned list. Each value equals
    precision_recall of that prefix: a repeated id counts once, in both
    the hits and the size of the answer set.
    """
    ids = [_answer_id(item) for item in ranked]
    rel = frozenset(relevant)
    _check_cutoffs(cutoffs, len(ids))
    if cutoffs and not rel:
        raise EmptyRelevantSet("relevant set R is empty; recall is undefined")
    first: dict[str, int] = {}
    for position, image_id in enumerate(ids):
        first.setdefault(image_id, position)
    # Only an id's first position counts, as an answer and as a hit.
    new = np.zeros(len(ids), dtype=bool)
    new[list(first.values())] = True
    hit = new & np.array([i in rel for i in ids], dtype=bool)
    answered = _prefix_counts(new, cutoffs).tolist()
    hits = _prefix_counts(hit, cutoffs).tolist()
    return [(k, h / a, h / len(rel)) for k, h, a in zip(cutoffs, hits, answered)]


# A Gram block holds at most this many (query, candidate) cells: 2 MB of
# float64 sums and as much again of argpartition indices.
_BLOCK_CELLS = 1 << 18
# Bound on how far a Gram sum may lie from the sum _row_distances takes
# the square root of; _certified derives it.
_SUM_ERROR = 1e-12


def _gram_sums(unit: np.ndarray, sq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sq[i] + sq[j] - 2 unit[i] . unit[j] for each query i in rows and
    every candidate j: each squared distance to within _SUM_ERROR, with
    the query's own column set to +inf."""
    sums = unit[rows] @ unit.T
    sums *= -2.0
    sums += sq[rows, None]
    sums += sq
    sums[np.arange(len(rows)), rows] = np.inf
    return sums


def _certified(sorted_sums: np.ndarray, cutoffs: Sequence[int]) -> np.ndarray:
    """Which rows of ascending Gram sums have exact top-k sets at every
    cutoff k: those whose k-th and (k+1)-th sums differ by more than
    4 * _SUM_ERROR. Each row holds at least max(cutoffs) + 1 sums; a last
    +inf (the query's own column) certifies the cutoff that takes every
    candidate.

    The bound, for any summation order, BLAS with or without FMA
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1;
    u = 2**-53, gamma_n = n*u / (1 - n*u); O(u**2) terms dropped). Unit
    rows a, b are nonnegative and, the division being rounded, sum to 1
    within a few u, so sum(a*a), sum(b*b) and a.b are each at most 1.
    - sq[i], sq[j] and the Gram entry are 256-term sums of nonnegative
      products, each within gamma_256 of its exact value; doubling the
      dot product is exact, and the two additions forming the Gram sum
      round by at most 8u between them. So the Gram sum is within
      4 gamma_256 + 8u of the exact sum((a - b)**2).
    - _row_distances squares 256 rounded differences, each term within
      gamma_3 of (a_k - b_k)**2, and adds them: it is within
      gamma_258 * sum((a - b)**2) <= 2 gamma_258 of it.
    Together, 4 gamma_256 + 2 gamma_258 + 8u ~ 1.7e-13, so _SUM_ERROR =
    1e-12 leaves a margin of about 6.

    With every sum within E of the reference, a gap above 4E puts each
    reference sum of the top k below each one outside it by more than 2E.
    Sums are at most about 2, so the square roots differ by more than
    2E / (2 sqrt 2) ~ 7e-13, far above their rounding (~1.6e-16): the
    distances are strictly ordered, no id tie crosses the cutoff, and the
    top-k set by (distance, id) is the Gram one. Only that set reaches
    _prefix_counts, so the order inside it does not matter.
    """
    k = np.asarray(cutoffs, dtype=np.intp)
    return np.all(sorted_sums[:, k] - sorted_sums[:, k - 1] > 4 * _SUM_ERROR, axis=-1)


def _hit_counts(unit: np.ndarray, class_of: np.ndarray, queries: np.ndarray, cutoffs: Sequence[int]) -> np.ndarray:
    """Same-class hits within each top-k prefix of each query's
    leave-one-out ranking, one row per query: from the Gram order where
    _certified proves it exact, else from the exact ranking."""
    kmax = cutoffs[-1]
    sq = np.einsum("ij,ij->i", unit, unit)
    counts = np.empty((len(queries), len(cutoffs)), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // len(unit))
    for start in range(0, len(queries), step):
        rows = queries[start : start + step]
        sums = _gram_sums(unit, sq, rows)
        # The kmax + 1 smallest sums of each row, ascending (every sum when
        # kmax = n - 1, the query's own +inf last).
        top = np.argpartition(sums, kmax, axis=-1)[:, : kmax + 1]
        sums = np.take_along_axis(sums, top, axis=-1)
        within = np.argsort(sums, axis=-1)
        order = np.take_along_axis(top, within, axis=-1)
        block = _prefix_counts(class_of[order] == class_of[rows, None], cutoffs)
        for i in np.flatnonzero(~_certified(np.take_along_axis(sums, within, axis=-1), cutoffs)).tolist():
            row = rows[i]
            # ids are sorted, so a stable sort breaks distance ties by id.
            exact = np.argsort(_row_distances(unit[row], unit), kind="stable")
            block[i] = _prefix_counts(class_of[exact[exact != row]] == class_of[row], cutoffs)
        counts[start : start + step] = block
    return counts


def class_mean_pr(
    descriptors: Mapping[str, Sequence[int]],
    labels: Mapping[str, str],
    cutoffs: Sequence[int],
) -> list[tuple[str, int, float, float]]:
    """Leave-one-out retrieval over a labeled corpus, averaged per class.

    Every labeled image queries all the other labeled images (itself
    excluded from both candidates and relevant set); relevant means same
    class label. Returns (class, k, mean_precision, mean_recall) rows,
    classes and cutoffs in ascending order. Queries whose class has no
    other member are skipped; a class with no evaluable queries is omitted.
    Cutoffs need at least 2 ids that have both a label and a descriptor.
    """
    ids = sorted(set(descriptors) & set(labels))
    if cutoffs and len(ids) < 2:
        raise BadCutoff(f"cutoffs need at least 2 labeled images with a descriptor, found {len(ids)}")
    matrix = np.array([descriptors[i] for i in ids], dtype=np.int64)
    _check_cutoffs(cutoffs, len(ids) - 1)
    classes = sorted({labels[i] for i in ids})
    number = {label: c for c, label in enumerate(classes)}
    class_of = np.array([number[labels[i]] for i in ids], dtype=np.intp)
    sizes = np.bincount(class_of, minlength=len(classes))
    queries = np.flatnonzero(sizes[class_of] > 1)
    # class -> summed hit counts of its queries, one per cutoff
    totals = np.zeros((len(classes), len(cutoffs)), dtype=np.int64)
    if len(queries):
        # Normalizing raises EmptyDescriptor even when there is no cutoff.
        unit = _normalize(matrix, "labeled")
        del matrix  # only the unit rows are needed from here on
        if cutoffs:
            np.add.at(totals, class_of[queries], _hit_counts(unit, class_of, queries, cutoffs))
    rows: list[tuple[str, int, float, float]] = []
    for label, n, counts in zip(classes, sizes.tolist(), totals.tolist()):
        if n < 2:
            continue
        # Every query of a class has the same |R|: the rest of its class.
        for k, total in zip(cutoffs, counts):
            rows.append((label, k, total / (k * n), total / ((n - 1) * n)))
    return rows


def render_pr_csv(rows: Iterable[tuple[str, int, float, float]]) -> str:
    """CSV text of mean curve rows: class,k,mean_precision,mean_recall."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class", "k", "mean_precision", "mean_recall"])
    for label, k, precision, recall in rows:
        writer.writerow([label, k, f"{precision:.6f}", f"{recall:.6f}"])
    return buf.getvalue()


def write_pr_csv(path: str | os.PathLike, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_pr_csv(rows))
