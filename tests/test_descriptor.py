"""Descriptor accumulation and normalized Euclidean distance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lbpmarkdex import (
    GrayImage,
    build_pyramid,
    compute_descriptor,
    descriptor_distance,
    lbp_histogram,
)
from lbpmarkdex.errors import EmptyDescriptor, ImageTooSmall


def oracle_distance(a, b):
    """Exact-rational normalization, then high-precision Euclidean norm."""
    fa = [Fraction(int(v), int(sum(a))) for v in a]
    fb = [Fraction(int(v), int(sum(b))) for v in b]
    return math.sqrt(math.fsum(float((x - y) ** 2) for x, y in zip(fa, fb)))


class TestComputeDescriptor:
    def test_constant_12x12(self):
        desc = compute_descriptor(GrayImage(np.full((12, 12), 200)))
        assert desc[255] == 117
        assert desc.sum() == 117

    def test_mass_is_total_interior_count(self):
        rng = np.random.default_rng(33)
        img = GrayImage(rng.integers(0, 256, size=(25, 40)))
        levels = build_pyramid(img)
        expected = sum((lv.width - 2) * (lv.height - 2) for lv in levels)
        assert compute_descriptor(img).sum() == expected

    def test_equals_sum_of_level_histograms(self):
        rng = np.random.default_rng(34)
        img = GrayImage(rng.integers(0, 256, size=(32, 32)))
        per_level = sum(lbp_histogram(lv) for lv in build_pyramid(img))
        assert np.array_equal(compute_descriptor(img), per_level)

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        img = GrayImage(rng.integers(0, 256, size=(16, 16)))
        assert np.array_equal(compute_descriptor(img), compute_descriptor(img))

    def test_too_small_propagates(self):
        with pytest.raises(ImageTooSmall):
            compute_descriptor(GrayImage(np.zeros((8, 8), dtype=np.uint8)))


class TestDistance:
    def test_self_distance_exactly_zero(self):
        rng = np.random.default_rng(36)
        img = GrayImage(rng.integers(0, 256, size=(20, 20)))
        desc = compute_descriptor(img)
        assert descriptor_distance(desc, desc) == 0.0

    def test_orthogonal_unit_masses(self):
        a = np.zeros(256, dtype=np.int64)
        b = np.zeros(256, dtype=np.int64)
        a[0] = 7
        b[1] = 3
        assert descriptor_distance(a, b) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(37)
        a = rng.integers(0, 40, size=256)
        b = rng.integers(0, 40, size=256)
        assert descriptor_distance(a, b) == descriptor_distance(b, a)

    def test_scale_invariance_via_normalization(self):
        rng = np.random.default_rng(38)
        a = rng.integers(0, 40, size=256)
        b = rng.integers(0, 40, size=256)
        assert descriptor_distance(a * 5, b) == pytest.approx(
            descriptor_distance(a, b), rel=1e-12
        )

    def test_empty_descriptor_rejected(self):
        zero = np.zeros(256, dtype=np.int64)
        live = np.ones(256, dtype=np.int64)
        with pytest.raises(EmptyDescriptor):
            descriptor_distance(zero, live)
        with pytest.raises(EmptyDescriptor):
            descriptor_distance(live, zero)
        with pytest.raises(EmptyDescriptor):
            descriptor_distance(zero, zero)

    @pytest.mark.parametrize(
        "shapes", [((255,), (256,)), ((256,), (3, 255)), ((1, 256), (256,)), ((256,), (2, 2, 256))]
    )
    def test_wrong_shapes_rejected(self, shapes):
        a, b = (np.ones(shape, dtype=np.int64) for shape in shapes)
        with pytest.raises(ValueError, match="descriptors must have 256 bins"):
            descriptor_distance(a, b)

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            a = rng.integers(0, 1000, size=256)
            b = rng.integers(0, 1000, size=256)
            expected = oracle_distance(a, b)
            assert descriptor_distance(a, b) == pytest.approx(expected, rel=1e-12)

    def test_triangle_inequality_spot_checks(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            a = rng.integers(1, 60, size=256)
            b = rng.integers(1, 60, size=256)
            c = rng.integers(1, 60, size=256)
            ab = descriptor_distance(a, b)
            bc = descriptor_distance(b, c)
            ac = descriptor_distance(a, c)
            assert ac <= ab + bc + 1e-12


def per_pair_distance(a, b):
    """The one-pair formula the package used before the matrix form: each
    vector scaled by its int total, then sqrt of the summed squares."""
    na = np.asarray(a, dtype=np.int64).astype(np.float64) / int(np.sum(a))
    nb = np.asarray(b, dtype=np.int64).astype(np.float64) / int(np.sum(b))
    return float(math.sqrt(np.sum((na - nb) ** 2)))


class TestMatrixDistance:
    """descriptor_distance(a, rows) gives one distance per row, equal (not
    approximately) to the one-pair formula."""

    @staticmethod
    def _rows(seed):
        rng = np.random.default_rng(seed)
        # Descriptor-sized masses, some sparse rows, and repeated rows so
        # that rankings over them contain exact ties.
        rows = rng.integers(0, 400, size=(60, 256))
        rows[::7, rng.integers(0, 256, size=200)] = 0
        rows[10] = rows[3]
        rows[20] = rows[3]
        rows[41] = rows[17]
        return rows

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_rows_equal_the_per_pair_formula(self, seed):
        rows = self._rows(seed)
        for q in (0, 3, 17, 59):
            got = descriptor_distance(rows[q], rows)
            assert got.dtype == np.float64 and got.shape == (len(rows),)
            assert got.tolist() == [per_pair_distance(rows[q], r) for r in rows]
            assert [descriptor_distance(rows[q], r) for r in rows] == got.tolist()

    def test_repeated_rows_tie_exactly(self):
        rows = self._rows(44)
        got = descriptor_distance(rows[0], rows)
        assert got[3] == got[10] == got[20]
        assert got[17] == got[41]
        assert descriptor_distance(rows[3], rows)[[3, 10, 20]].tolist() == [0.0, 0.0, 0.0]

    def test_zero_row_rejected(self):
        rows = self._rows(45)
        rows[5] = 0
        with pytest.raises(EmptyDescriptor):
            descriptor_distance(rows[0], rows)
        with pytest.raises(EmptyDescriptor):
            descriptor_distance(rows[5], rows[:5])

    def test_no_rows_no_distances(self):
        got = descriptor_distance(np.ones(256, dtype=np.int64), np.zeros((0, 256), dtype=np.int64))
        assert got.shape == (0,)
