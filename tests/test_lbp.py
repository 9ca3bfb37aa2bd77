"""LBP codes and histograms against a per-pixel brute-force oracle."""

import numpy as np
import pytest

from lbpmarkdex import GrayImage, lbp_code, lbp_histogram, lbp_map
from lbpmarkdex.errors import ImageTooSmall, OutOfBounds

# Same geometric convention the package documents: clockwise from top-left,
# bit p = 2**p, restated here independently for the oracle.
ORACLE_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]


def oracle_code(pixels, x, y):
    """Straight transcription of the thresholding definition."""
    center = int(pixels[y, x])
    code = 0
    for p, (dy, dx) in enumerate(ORACLE_OFFSETS):
        if int(pixels[y + dy, x + dx]) - center >= 0:
            code += 2 ** p
    return code


def oracle_histogram(pixels):
    bins = [0] * 256
    for y in range(1, pixels.shape[0] - 1):
        for x in range(1, pixels.shape[1] - 1):
            bins[oracle_code(pixels, x, y)] += 1
    return bins


class TestLbpCode:
    def test_constant_patch_codes_255(self):
        img = GrayImage(np.full((3, 3), 100))
        assert lbp_code(img, 1, 1) == 255

    def test_all_neighbors_darker_codes_0(self):
        patch = np.full((3, 3), 4)
        patch[1, 1] = 5
        assert lbp_code(GrayImage(patch), 1, 1) == 0

    def test_each_neighbor_maps_to_its_own_bit(self):
        """A single bright neighbor must set exactly bit p of the code.

        This pins the neighbor ordering (clockwise from top-left, LSB
        first); any permutation of the order fails here.
        """
        for p, (dy, dx) in enumerate(ORACLE_OFFSETS):
            patch = np.full((3, 3), 99)  # strictly darker than the center
            patch[1, 1] = 100
            patch[1 + dy, 1 + dx] = 200
            assert lbp_code(GrayImage(patch), 1, 1) == 1 << p

    def test_ties_count_as_one(self):
        patch = np.full((3, 3), 77)
        patch[0, 0] = 76  # darker: bit 0 clear, everything else ties
        assert lbp_code(GrayImage(patch), 1, 1) == 0b11111110

    def test_border_pixel_rejected(self):
        img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
        for x, y in [(0, 1), (1, 0), (3, 1), (1, 3), (-1, 1), (1, 4)]:
            with pytest.raises(OutOfBounds):
                lbp_code(img, x, y)

    def test_random_patches_match_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            patch = rng.integers(0, 256, size=(3, 3))
            assert lbp_code(GrayImage(patch), 1, 1) == oracle_code(patch, 1, 1)


class TestLbpMap:
    def test_shape_is_interior(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.integers(0, 256, size=(7, 11)))
        assert lbp_map(img).shape == (5, 9)

    def test_too_small_raises(self):
        with pytest.raises(ImageTooSmall):
            lbp_map(GrayImage(np.zeros((2, 8), dtype=np.uint8)))

    def test_map_matches_per_pixel_code(self):
        rng = np.random.default_rng(2)
        img = GrayImage(rng.integers(0, 256, size=(8, 8)))
        codes = lbp_map(img)
        for y in range(1, 7):
            for x in range(1, 7):
                assert codes[y - 1, x - 1] == lbp_code(img, x, y)


class TestLbpHistogram:
    def test_constant_3x3(self):
        hist = lbp_histogram(GrayImage(np.full((3, 3), 9)))
        assert hist[255] == 1 and hist.sum() == 1

    def test_constant_4x4(self):
        hist = lbp_histogram(GrayImage(np.full((4, 4), 9)))
        assert hist[255] == 4 and hist.sum() == 4

    def test_mass_equals_interior_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = int(rng.integers(3, 30))
            h = int(rng.integers(3, 30))
            img = GrayImage(rng.integers(0, 256, size=(h, w)))
            assert lbp_histogram(img).sum() == (w - 2) * (h - 2)

    def test_matches_bruteforce_on_random_images(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pixels = rng.integers(0, 256, size=(16, 16))
            assert list(lbp_histogram(GrayImage(pixels))) == oracle_histogram(pixels)

    @pytest.mark.parametrize("w, h", [(3, 3), (5, 4), (7, 7), (9, 12), (5, 5), (9, 11)])
    def test_odd_and_even_interior_counts_match_bruteforce(self, w, h):
        """The codes are counted in pairs; an odd interior count leaves one
        code to count alone."""
        rng = np.random.default_rng(6)
        board = np.indices((h, w)).sum(axis=0) % 2 * 255
        for pixels in [rng.integers(0, 256, size=(h, w)), np.full((h, w), 0), np.full((h, w), 255), board]:
            assert list(lbp_histogram(GrayImage(pixels))) == oracle_histogram(pixels)

    def test_invariant_under_global_shift(self):
        rng = np.random.default_rng(5)
        pixels = rng.integers(50, 150, size=(14, 14))
        base = lbp_histogram(GrayImage(pixels))
        shifted = lbp_histogram(GrayImage(pixels + 40))
        assert np.array_equal(base, shifted)
