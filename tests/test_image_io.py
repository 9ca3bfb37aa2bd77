"""PGM reading/writing: canonical output, header parsing, error taxonomy."""

import numpy as np
import pytest

from lbpmarkdex import GrayImage, load_pgm, read_pgm, save_pgm, write_pgm
from lbpmarkdex.errors import BadHeader, BadMagic, TruncatedData


class TestGrayImage:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((3, 3, 3), dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0, 300]]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[-1, 0]]))

    def test_rejects_one_above_255(self):
        """A pixel of 256 would wrap to 0 in uint8."""
        with pytest.raises(ValueError):
            GrayImage([[256, 0]])
        assert GrayImage([[255, 0]]).pixels.tolist() == [[255, 0]]

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4), dtype=np.uint8))

    def test_pixels_are_read_only(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_caller_array_is_copied(self):
        source = np.arange(6, dtype=np.uint8).reshape(2, 3)
        img = GrayImage(source)
        source[0, 0] = 99
        assert img.pixels[0, 0] == 0

    def test_read_only_view_of_writable_array_is_copied(self):
        """A read-only view does not stop its writable base from changing."""
        source = np.arange(6, dtype=np.uint8).reshape(2, 3)
        view = source.view()
        view.flags.writeable = False
        img = GrayImage(view)
        source[0, 0] = 99
        assert img.pixels[0, 0] == 0

    def test_equality_is_by_value(self):
        a = GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3))
        b = GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3))
        c = GrayImage(np.arange(6, dtype=np.uint8).reshape(3, 2))
        assert a == b
        assert a != c


class TestWritePgm:
    def test_canonical_single_pixel(self):
        img = GrayImage(np.array([[42]], dtype=np.uint8))
        assert write_pgm(img) == b"P5\n1 1\n255\n\x2a"

    def test_canonical_header_for_known_image(self):
        img = GrayImage([[0, 255]])
        assert write_pgm(img) == b"P5\n2 1\n255\n\x00\xff"

    def test_output_is_deterministic(self):
        rng = np.random.default_rng(11)
        img = GrayImage(rng.integers(0, 256, size=(9, 7)))
        assert write_pgm(img) == write_pgm(img)

    @pytest.mark.parametrize(
        "order, shape", [("C", (5, 7)), ("C", (1, 1)), ("F", (6, 9))], ids=["odd-width", "1x1", "column-major"]
    )
    def test_save_pgm_writes_the_bytes_of_write_pgm(self, tmp_path, order, shape):
        pixels = np.random.default_rng(12).integers(0, 256, size=shape)
        img = GrayImage(np.asarray(pixels, order=order))
        save_pgm(tmp_path / "img.pgm", img)
        assert (tmp_path / "img.pgm").read_bytes() == write_pgm(img)


class TestReadPgm:
    def test_direct_decode(self):
        img = read_pgm(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
        assert img.width == 2 and img.height == 2
        assert list(img.pixels.ravel()) == [0, 128, 255, 7]

    def test_comments_in_header(self):
        img = read_pgm(b"P5\n# a comment\n3 1\n# another\n255\n" + bytes([9, 8, 7]))
        assert img.width == 3 and img.height == 1
        assert list(img.pixels.ravel()) == [9, 8, 7]

    def test_arbitrary_header_whitespace(self):
        img = read_pgm(b"P5  2\t1\r\n255 " + bytes([5, 6]))
        assert img.width == 2 and list(img.pixels.ravel()) == [5, 6]

    def test_wrong_magic(self):
        with pytest.raises(BadMagic):
            read_pgm(b"P6\n1 1\n255\n\x00")

    def test_empty_input(self):
        with pytest.raises(BadMagic):
            read_pgm(b"")

    def test_non_numeric_dimension(self):
        with pytest.raises(BadHeader):
            read_pgm(b"P5\nx 1\n255\n\x00")

    def test_maxval_too_large(self):
        with pytest.raises(BadHeader):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    @pytest.mark.parametrize("maxval", [1, 254, 255])
    def test_maxval_up_to_255_accepted(self, maxval):
        img = read_pgm(b"P5\n2 1\n%d\n" % maxval + bytes([0, maxval]))
        assert img.pixels.tolist() == [[0, maxval]]

    @pytest.mark.parametrize(
        "data",
        [
            b"P5\n2 1\n256\n\x01\x00",  # would read as 8-bit pixels [[1, 0]]
            b"P5\n2 1\n256\n\x00\x01\x00\x02",
            b"P5\n2 1\n65535\n\x00\x01\x00\x02",
        ],
    )
    def test_sixteen_bit_maxval_rejected(self, data):
        with pytest.raises(BadHeader, match=r"^maxval must be in \[1, 255\]"):
            read_pgm(data)

    def test_maxval_zero(self):
        with pytest.raises(BadHeader):
            read_pgm(b"P5\n1 1\n0\n\x00")

    def test_zero_dimension(self):
        with pytest.raises(BadHeader):
            read_pgm(b"P5\n0 4\n255\n")

    def test_header_ends_early(self):
        with pytest.raises(BadHeader):
            read_pgm(b"P5\n2 2\n")

    def test_missing_pixels(self):
        with pytest.raises(TruncatedData):
            read_pgm(b"P5\n2 2\n255\n\x00\x01")

    def test_trailing_bytes_ignored(self):
        img = read_pgm(b"P5\n1 1\n255\n\x07extra")
        assert img.pixels[0, 0] == 7

    def test_smaller_maxval_values_kept_verbatim(self):
        img = read_pgm(b"P5\n2 1\n99\n" + bytes([12, 34]))
        assert list(img.pixels.ravel()) == [12, 34]


class TestReadPgmBuffers:
    """read_pgm keeps a view of immutable bytes and copies any other buffer,
    so no later write to the source can change a GrayImage."""

    DATA = b"P5\n3 2\n255\n" + bytes([0, 1, 2, 3, 4, 255])

    def test_bytes_view_is_read_only(self):
        img = read_pgm(self.DATA)
        assert not img.pixels.flags.writeable
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_bytearray_source_is_copied(self):
        source = bytearray(self.DATA)
        img = read_pgm(source)
        source[-6:] = bytes(6)
        assert img == read_pgm(self.DATA)
        assert not img.pixels.flags.writeable

    @pytest.mark.parametrize("readonly", [False, True])
    def test_memoryview_of_a_bytearray_is_copied(self, readonly):
        source = bytearray(self.DATA)
        view = memoryview(source)
        img = read_pgm(view.toreadonly() if readonly else view)
        source[-6:] = bytes(6)
        assert img == read_pgm(self.DATA)


class TestRoundTrips:
    def test_read_write_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            w = int(rng.integers(1, 40))
            h = int(rng.integers(1, 40))
            img = GrayImage(rng.integers(0, 256, size=(h, w)))
            assert read_pgm(write_pgm(img)) == img

    def test_write_read_write_fixed_point(self):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, size=(17, 31)))
        blob = write_pgm(img)
        assert write_pgm(read_pgm(blob)) == blob

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = GrayImage(rng.integers(0, 256, size=(12, 13)))
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        assert load_pgm(path) == img
