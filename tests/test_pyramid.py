"""Pyramid reduction against a dense 5x5 convolution oracle."""

import numpy as np
import pytest

from lbpmarkdex import GrayImage, build_pyramid, reduce_once
from lbpmarkdex.errors import ImageTooSmall

KERNEL_1D = [1, 4, 6, 4, 1]


def oracle_reduce(pixels):
    """Direct 2-D convolution at even grid points with index clamping.

    Edge replication is expressed as clamping sample coordinates into the
    image; the 25-term weighted sum is divided by 256 with round-half-up.
    """
    h, w = pixels.shape
    out_h, out_w = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((out_h, out_w), dtype=np.int64)
    for oy in range(out_h):
        for ox in range(out_w):
            acc = 0
            for ky in range(-2, 3):
                for kx in range(-2, 3):
                    sy = min(max(2 * oy + ky, 0), h - 1)
                    sx = min(max(2 * ox + kx, 0), w - 1)
                    acc += KERNEL_1D[ky + 2] * KERNEL_1D[kx + 2] * int(pixels[sy, sx])
            out[oy, ox] = (acc + 128) // 256
    return out


class TestReduce:
    def test_halves_dimensions_with_ceil(self):
        rng = np.random.default_rng(19)
        for w, h in [(2, 2), (5, 4), (13, 13), (16, 9), (31, 2)]:
            img = GrayImage(rng.integers(0, 256, size=(h, w)))
            small = reduce_once(img)
            assert (small.width, small.height) == ((w + 1) // 2, (h + 1) // 2)

    def test_constant_stays_constant(self):
        small = reduce_once(GrayImage(np.full((10, 10), 77)))
        assert np.all(small.pixels == 77)

    def test_result_is_read_only_and_shares_no_memory_with_input(self):
        img = GrayImage(np.random.default_rng(20).integers(0, 256, size=(12, 9)))
        small = reduce_once(img)
        assert not small.pixels.flags.writeable
        assert not np.shares_memory(small.pixels, img.pixels)

    def test_single_row_or_column_rejected(self):
        with pytest.raises(ImageTooSmall):
            reduce_once(GrayImage(np.zeros((1, 8), dtype=np.uint8)))
        with pytest.raises(ImageTooSmall):
            reduce_once(GrayImage(np.zeros((8, 1), dtype=np.uint8)))

    def test_ramp_matches_dense_oracle(self):
        ramp = np.arange(25).reshape(5, 5) * 10
        assert np.array_equal(reduce_once(GrayImage(ramp)).pixels, oracle_reduce(ramp))

    def test_random_images_match_dense_oracle(self):
        rng = np.random.default_rng(20)
        shapes = [(int(rng.integers(2, 42)), int(rng.integers(2, 42))) for _ in range(40)]
        for w, h in shapes + [(40, 40), (40, 41), (41, 40), (41, 41)]:
            pixels = rng.integers(0, 256, size=(h, w))
            assert np.array_equal(
                reduce_once(GrayImage(pixels)).pixels, oracle_reduce(pixels)
            ), f"mismatch at {w}x{h}"

    @pytest.mark.parametrize("side", range(2, 42))
    def test_saturated_images_at_the_accumulator_bound(self, side):
        """All-255 puts every sum at the uint16 bound 16 * 4,080 + 128 =
        65,408; a 0/255 checkerboard swings between the extremes. Odd and
        even sides are paired in both orders."""
        for w, h in [(side, side), (side, 43 - side)]:
            white = reduce_once(GrayImage(np.full((h, w), 255, dtype=np.uint8))).pixels
            assert white.shape == ((h + 1) // 2, (w + 1) // 2) and np.all(white == 255)
            board = (np.indices((h, w)).sum(axis=0) % 2 * 255).astype(np.uint8)
            assert np.array_equal(reduce_once(GrayImage(board)).pixels, oracle_reduce(board))

    def test_all_white_1024_stays_white(self):
        white = reduce_once(GrayImage(np.full((1024, 1024), 255, dtype=np.uint8))).pixels
        assert white.shape == (512, 512) and np.all(white == 255)

    def test_rounding_is_half_up(self):
        # For a 2x2 input the replicated 5x5 window puts effective weights
        # (121, 55, 55, 25)/256 on the four pixels. The values below make
        # the weighted sum exactly 4736/256 = 18.5, which half-up rounding
        # must take to 19 (nearest-even would give 18).
        pixels = np.array([[1, 1], [2, 178]])
        assert reduce_once(GrayImage(pixels)).pixels[0, 0] == 19
        assert oracle_reduce(pixels)[0, 0] == 19


class TestBuildPyramid:
    def test_three_levels_512(self):
        rng = np.random.default_rng(21)
        img = GrayImage(rng.integers(0, 256, size=(512, 512)))
        levels = build_pyramid(img)
        assert [(lv.width, lv.height) for lv in levels] == [
            (512, 512),
            (256, 256),
            (128, 128),
        ]

    def test_level_zero_is_input_unmodified(self):
        rng = np.random.default_rng(22)
        img = GrayImage(rng.integers(0, 256, size=(16, 16)))
        assert build_pyramid(img)[0] == img

    def test_ceil_rule_on_odd_dims(self):
        img = GrayImage(np.zeros((13, 13), dtype=np.uint8))
        dims = [(lv.width, lv.height) for lv in build_pyramid(img)]
        assert dims == [(13, 13), (7, 7), (4, 4)]

    def test_levels_chain_reduce(self):
        rng = np.random.default_rng(23)
        img = GrayImage(rng.integers(0, 256, size=(20, 36)))
        levels = build_pyramid(img)
        assert levels[1] == reduce_once(img)
        assert levels[2] == reduce_once(levels[1])

    def test_minimum_size_boundary(self):
        # 9 -> 5 -> 3 is the smallest chain whose top level still has an
        # LBP interior; one pixel less breaks it.
        build_pyramid(GrayImage(np.full((9, 9), 5)))
        with pytest.raises(ImageTooSmall):
            build_pyramid(GrayImage(np.full((8, 9), 5)))
        with pytest.raises(ImageTooSmall):
            build_pyramid(GrayImage(np.full((9, 8), 5)))
