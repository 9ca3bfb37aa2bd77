"""Precision/recall arithmetic and the per-class summary table."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lbpmarkdex import (
    EvalSets,
    RankedResult,
    class_mean_pr,
    pr_curve,
    precision_recall,
    render_pr_csv,
    write_pr_csv,
)
from lbpmarkdex.descriptor import _normalize
from lbpmarkdex.errors import BadCutoff, EmptyAnswerSet, EmptyRelevantSet
from lbpmarkdex.evaluation import _SUM_ERROR, _certified, _gram_sums


class TestPrecisionRecall:
    def test_hand_worked_values(self):
        # 3 of the 5 answers are relevant, 6 relevant items exist overall
        relevant = {"r1", "r2", "r3", "r4", "r5", "r6"}
        answers = ["r1", "x1", "r2", "x2", "r3"]
        p, r = precision_recall(EvalSets(relevant, answers))
        assert p == 0.6
        assert r == 0.5

    def test_perfect_answer_set(self):
        p, r = precision_recall(EvalSets({"a", "b"}, ["b", "a"]))
        assert (p, r) == (1.0, 1.0)

    def test_disjoint_answer_set(self):
        p, r = precision_recall(EvalSets({"a"}, ["b", "c"]))
        assert (p, r) == (0.0, 0.0)

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(EmptyRelevantSet):
            precision_recall(EvalSets(set(), ["a"]))

    def test_empty_answer_set_rejected(self):
        with pytest.raises(EmptyAnswerSet):
            precision_recall(EvalSets({"a"}, []))

    def test_relevant_answers_property(self):
        sets = EvalSets({"a", "b", "c"}, ["c", "x", "a"])
        assert sets.relevant_answers == frozenset({"a", "c"})

    def test_ranked_results_accepted(self):
        answers = [RankedResult("a", 0.1), RankedResult("x", 0.2)]
        p, r = precision_recall(EvalSets({"a"}, answers))
        assert (p, r) == (0.5, 1.0)


class TestPrCurve:
    def test_hand_worked_curve(self):
        ranking = ["hit", "miss"]
        curve = pr_curve(ranking, {"hit"}, [1, 2])
        assert curve == [(1, 1.0, 1.0), (2, 0.5, 1.0)]

    def test_all_relevant_ranking(self):
        curve = pr_curve(["a", "b", "c"], {"a", "b", "c"}, [1, 3])
        assert curve == [(1, 1.0, pytest.approx(1 / 3)), (3, 1.0, 1.0)]

    def test_recall_monotone_on_random_rankings(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            ids = [f"d{i}" for i in range(n)]
            relevant = set(rng.choice(ids, size=int(rng.integers(1, n)), replace=False))
            ranking = list(rng.permutation(ids))
            cutoffs = sorted(rng.choice(range(1, n + 1), size=3, replace=False))
            curve = pr_curve(ranking, relevant, [int(c) for c in cutoffs])
            recalls = [r for _, _, r in curve]
            assert recalls == sorted(recalls)
            for k, p, r in curve:
                hits = len(relevant.intersection(ranking[:k]))
                assert p == pytest.approx(hits / k)
                assert r == pytest.approx(hits / len(relevant))

    def test_zero_cutoff_rejected(self):
        with pytest.raises(BadCutoff):
            pr_curve(["a", "b"], {"a"}, [0, 1])

    def test_cutoff_beyond_ranking_rejected(self):
        with pytest.raises(BadCutoff):
            pr_curve(["a", "b"], {"a"}, [3])

    def test_non_ascending_cutoffs_rejected(self):
        with pytest.raises(BadCutoff):
            pr_curve(["a", "b"], {"a"}, [2, 2])


def two_class_dataset():
    """Four descriptors in two tight classes.

    a1=[4,0,...], a2=[3,1,...] vs b1=[0,4,...], b2=[1,3,...] so that the
    leave-one-out neighbor at rank 1 is always the same-class partner.
    """
    base = np.zeros(256, dtype=np.int64)

    def vec(c0, c1):
        v = base.copy()
        v[0], v[1] = c0, c1
        return v

    descriptors = {
        "a1": vec(4, 0),
        "a2": vec(3, 1),
        "b1": vec(0, 4),
        "b2": vec(1, 3),
    }
    labels = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
    return descriptors, labels


class TestClassMeanPr:
    def test_hand_worked_two_classes(self):
        descriptors, labels = two_class_dataset()
        rows = class_mean_pr(descriptors, labels, [1, 3])
        # rank 1 is the same-class partner (precision 1, recall 1: only one
        # other relevant image exists); at k=3 the whole pool is returned.
        assert rows == [
            ("A", 1, 1.0, 1.0),
            ("A", 3, pytest.approx(1 / 3), 1.0),
            ("B", 1, 1.0, 1.0),
            ("B", 3, pytest.approx(1 / 3), 1.0),
        ]

    def test_singleton_class_skipped(self):
        descriptors, labels = two_class_dataset()
        descriptors["c1"] = np.full(256, 7, dtype=np.int64)
        labels["c1"] = "C"
        rows = class_mean_pr(descriptors, labels, [1])
        assert {row[0] for row in rows} == {"A", "B"}

    def test_cutoff_exceeding_pool_rejected(self):
        descriptors, labels = two_class_dataset()
        with pytest.raises(BadCutoff):
            class_mean_pr(descriptors, labels, [4])  # only 3 candidates per query

    @pytest.mark.parametrize("cutoffs", [[3, 1, 1], [2, 1], [1, 1]])
    def test_unsorted_or_repeated_cutoffs_rejected(self, cutoffs):
        descriptors, labels = two_class_dataset()
        with pytest.raises(BadCutoff, match="strictly ascending"):
            class_mean_pr(descriptors, labels, cutoffs)

    def test_tie_broken_by_smaller_id(self):
        """For query q, m (other class) and z (same class) are equidistant;
        k=1 must pick m, the smaller id, so q scores no hit."""
        base = np.zeros(256, dtype=np.int64)

        def vec(c0, c1):
            v = base.copy()
            v[0], v[1] = c0, c1
            return v

        descriptors = {"z": vec(1, 0), "q": vec(2, 2), "m": vec(0, 1)}
        labels = {"z": "A", "q": "A", "m": "B"}
        # q hits nothing (m wins the tie); z's nearest is q, a hit.
        assert class_mean_pr(descriptors, labels, [1]) == [("A", 1, 0.5, 0.5)]

    def test_exact_fraction_averaging(self):
        """Means over queries must come out as exact rationals.

        With three same-class images each query has 2 relevant partners;
        recall at k=1 is exactly 1/2 for every query, so the class mean is
        exactly float(Fraction(1, 2)).
        """
        base = np.zeros(256, dtype=np.int64)
        descriptors = {}
        for i, col in enumerate((0, 1, 2)):
            v = base.copy()
            v[col] = 5
            v[10] = 1
            descriptors[f"x{i}"] = v
        labels = {k: "X" for k in descriptors}
        rows = class_mean_pr(descriptors, labels, [1])
        assert rows[0][3] == float(Fraction(1, 2))


def _reference_sums(unit, row):
    """The sums _row_distances takes the square root of, for one row."""
    return np.sum((unit[row] - unit) ** 2, axis=-1)


def _adversarial_units(rng):
    """Unit rows of every shape the bound must cover: one-hot, uniform,
    heavy-tailed, sparse, and copies one count apart at large counts."""
    rows = [np.eye(256, dtype=np.int64)[b] * c for b, c in ((0, 1), (17, 5), (255, 2**32 - 1))]
    rows += [np.full(256, c, dtype=np.int64) for c in (1, 3, 2**32 - 1)]
    rows += [np.floor(rng.pareto(a, 256) * 1000).astype(np.int64) + 1 for a in (0.5, 1.0, 3.0)]
    rows += [rng.integers(0, 2, 256) * rng.integers(1, 10**6, 256) + (np.arange(256) == 0) for _ in range(3)]
    big = rng.integers(2**31, 2**32, 256)
    rows += [big, big + (np.arange(256) == 9), big - (np.arange(256) == 200), 2 * big, rng.integers(0, 4, 256) + 1]
    return _normalize(np.array(rows, dtype=np.int64), "test")


class TestGramCertificate:
    """class_mean_pr orders candidates by Gram sums and keeps that order
    only where _certified proves its top-k sets exact."""

    def test_gram_sums_stay_within_an_eighth_of_the_bound(self):
        unit = _adversarial_units(np.random.default_rng(19))
        # sq summed in another order than the kernel's: the bound holds for any.
        sums = _gram_sums(unit, (unit * unit).sum(axis=1), np.arange(len(unit)))
        for row in range(len(unit)):
            error = np.abs(np.delete(sums[row] - _reference_sums(unit, row), row))
            assert error.max() <= _SUM_ERROR / 8
            assert sums[row, row] == np.inf

    @pytest.mark.parametrize(
        "row, cutoffs, certified",
        [
            ([0.0, 4.01 * _SUM_ERROR, 1.0], [1], True),
            ([0.0, 3.99 * _SUM_ERROR, 1.0], [1], False),
            ([0.0, 3.99 * _SUM_ERROR, 1.0], [2], True),
            ([0.0, 3.99 * _SUM_ERROR, 1.0], [1, 2], False),
            ([0.0, 0.0, np.inf], [2], True),
            ([0.5, 0.5, 0.5], [], True),
        ],
    )
    def test_certified_needs_a_gap_above_four_bounds_at_each_cutoff(self, row, cutoffs, certified):
        assert _certified(np.array([row]), cutoffs).tolist() == [certified]

    def test_near_tie_at_a_cutoff_takes_the_exact_ranking(self):
        """y is nearer to q than x is, by far less than the Gram sums can
        resolve; at k=1 the exact ranking still picks y, of another class,
        so q scores no hit. x's nearest is y, and far's is x, a hit."""
        m = 2**20
        base = np.zeros(256, dtype=np.int64)
        q, x, y, far = base.copy(), base.copy(), base.copy(), base.copy()
        q[0], x[0], x[1], y[0], y[1], far[5] = 1, m, 1, m + 1, 1, 1
        descriptors = {"q": q, "x": x, "y": y, "far": far}
        labels = {"q": "A", "x": "A", "y": "B", "far": "A"}
        unit = _normalize(np.array([far, q, x, y]), "test")
        sums = _gram_sums(unit, np.einsum("ij,ij->i", unit, unit), np.array([1]))
        sums.sort(axis=-1)
        assert sums[0, 1] - sums[0, 0] < 4 * _SUM_ERROR
        assert _certified(sums, [1]).tolist() == [False]
        assert _reference_sums(unit, 1)[3] < _reference_sums(unit, 1)[2]
        # One hit over three queries; y's class B has no other member.
        assert class_mean_pr(descriptors, labels, [1]) == [("A", 1, 1 / 3, 1 / 6)]

    def test_peak_memory_stays_below_half_an_n_by_n_matrix(self):
        """Today's N x N float64 distance matrix alone would take N**2 * 8
        bytes; a few duplicates make some rows take the exact ranking."""
        n = 2000
        rng = np.random.default_rng(2000)
        vectors = rng.integers(0, 1000, (n, 256))
        vectors[1::101] = vectors[::101][: len(vectors[1::101])]
        descriptors = {f"r{j:04d}": vectors[j] for j in range(n)}
        labels = {image_id: "abc"[j % 3] for j, image_id in enumerate(descriptors)}
        tracemalloc.start()
        try:
            class_mean_pr(descriptors, labels, [1, 10, 100])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2


class TestCsvRendering:
    def test_render_layout(self):
        rows = [("A", 1, 1.0, 0.5), ("B", 10, 1 / 3, 2 / 3)]
        text = render_pr_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "class,k,mean_precision,mean_recall"
        assert lines[1] == "A,1,1.000000,0.500000"
        assert lines[2] == "B,10,0.333333,0.666667"

    def test_write_pr_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [("A", 1, 1.0, 1.0)]
        write_pr_csv(path, rows)
        assert path.read_text(encoding="utf-8") == render_pr_csv(rows)
