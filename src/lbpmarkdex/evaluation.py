"""Precision/recall scoring of retrieval runs, with per-class mean curves.

Given a set R of images relevant to a query and an answer list A, the two
classic ratios are

    recall    = |A intersect R| / |R|
    precision = |A intersect R| / |A|

Both are kept as integer hit counts and divided once, at the edge.
Python's int/int division is correctly rounded, so every value is the
float nearest the exact ratio. Curves evaluate the top-k prefixes of a
ranking for a list of cutoffs; class means average per-query values at
each fixed cutoff.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BadCutoff, EmptyAnswerSet, EmptyRelevantSet
from .retrieval import rank_by_distance


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


def _hits(relevant: set[str] | frozenset[str], answers: Iterable[str]) -> int:
    """|A intersect R|, the numerator of both precision and recall."""
    return len(relevant.intersection(answers))


def precision_recall(sets: EvalSets) -> tuple[float, float]:
    """(precision, recall) of one answer list against one relevant set."""
    if not sets.relevant:
        raise EmptyRelevantSet("relevant set R is empty; recall is undefined")
    if not sets.answers:
        raise EmptyAnswerSet("answer list A is empty; precision is undefined")
    hits = _hits(sets.relevant, sets.answers)
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


def pr_curve(
    ranked: Sequence, relevant: Iterable[str], cutoffs: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Evaluate (precision, recall) at each top-k prefix of a ranking.

    Cutoffs must be ascending and within [1, len(ranked)]; recall is
    non-decreasing along the returned list.
    """
    ids = [_answer_id(item) for item in ranked]
    rel = frozenset(relevant)
    _check_cutoffs(cutoffs, len(ids))
    return [
        (k, *precision_recall(EvalSets(rel, ids[:k])))
        for k in cutoffs
    ]


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
    """
    ids = sorted(set(descriptors) & set(labels))
    matrix = np.array([descriptors[i] for i in ids], dtype=np.int64)
    # class -> one list of hit counts per query, one count per cutoff
    per_class: dict[str, list[list[int]]] = {}
    _check_cutoffs(cutoffs, len(ids) - 1)
    for row, query_id in enumerate(ids):
        relevant = {i for i in ids if i != query_id and labels[i] == labels[query_id]}
        if not relevant:
            continue
        # Ranking every row and then dropping the query's own id leaves the
        # others in the order a ranking without it would give.
        ranked = [i for _, i in rank_by_distance(matrix[row], ids, matrix) if i != query_id]
        per_class.setdefault(labels[query_id], []).append(
            [_hits(relevant, ranked[:k]) for k in cutoffs]
        )
    rows: list[tuple[str, int, float, float]] = []
    for label in sorted(per_class):
        n = len(per_class[label])
        # Every query of a class has the same |R|: the rest of its class.
        n_relevant = sum(1 for i in ids if labels[i] == label) - 1
        for k, total in zip(cutoffs, map(sum, zip(*per_class[label]))):
            rows.append((label, k, total / (k * n), total / (n_relevant * n)))
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
