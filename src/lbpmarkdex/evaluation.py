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
    """How many entries of a ranking's boolean mask are true within each
    top-k prefix, k in cutoffs: the one way hits are counted."""
    return np.cumsum(mask, dtype=np.int64)[np.asarray(cutoffs, dtype=np.intp) - 1]


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
        unit = _normalize(matrix, "labeled")
        # x - y is exactly -(y - x), so d(i, j) and d(j, i) are the same
        # float: each pair is computed once, into an N x N matrix.
        distances = np.zeros((len(ids), len(ids)))
        for row in range(len(ids) - 1):
            distances[row, row + 1 :] = distances[row + 1 :, row] = _row_distances(unit[row], unit[row + 1 :])
        for row in queries.tolist():
            # ids are sorted, so a stable sort breaks distance ties by id.
            order = np.argsort(distances[row], kind="stable")
            order = order[order != row]
            totals[class_of[row]] += _prefix_counts(class_of[order] == class_of[row], cutoffs)
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
