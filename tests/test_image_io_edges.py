"""Edges of image_io that the main PGM tests leave out: the header
grammar's quirks, the separator byte after maxval, header numbers longer
than int() and str() convert, pixels above maxval, and the GrayImage
constructors' rejections."""

import numpy as np
import pytest

from lbpmarkdex import GrayImage, read_pgm
from lbpmarkdex.errors import BadHeader, TruncatedData


def test_no_whitespace_needed_after_magic():
    assert read_pgm(b"P51 1 255 \x07").pixels.tolist() == [[7]]


def test_hash_inside_a_token_belongs_to_it():
    with pytest.raises(BadHeader, match=r"^non-numeric height field b'1#2'$"):
        read_pgm(b"P5 1 1#2\n255 \x07")


@pytest.mark.parametrize("data", [b"P5 1 1 #255 \x07", b"P5#", b"P5 1 # 1 255\r"])
def test_comment_without_newline_runs_to_the_end(data):
    with pytest.raises(BadHeader, match="^PGM header ended before all fields were read$"):
        read_pgm(data)


@pytest.mark.parametrize("data", [b"P5\n2 2\n255", b"P5 1 1 1", b"P5#c\n1 1 7"])
def test_data_ending_at_maxval_has_no_separator(data):
    with pytest.raises(BadHeader, match="^missing whitespace between maxval and pixel data$"):
        read_pgm(data)


def test_a_field_past_the_int_digit_limit_is_bad_header():
    with pytest.raises(BadHeader, match="^a PGM header field has too many digits$"):
        read_pgm(b"P5 " + b"1" * 5000 + b" 1 255\n")


def test_a_long_zero_padded_field_decodes_as_its_value():
    assert read_pgm(b"P5 " + b"0" * 5000 + b"2 1 255\nab").pixels.tolist() == [[97, 98]]


def test_a_pixel_count_past_the_str_digit_limit_is_truncated_data():
    width, height = "7" * 3000, "9" * 3000
    with pytest.raises(TruncatedData) as exc:
        read_pgm(f"P5 {width} {height} 255\nxx".encode())
    assert str(exc.value) == f"expected {width}x{height} pixel bytes, found 2"


def test_float_pixels_rejected():
    with pytest.raises(ValueError, match="pixels must be integers"):
        GrayImage(np.zeros((2, 2), dtype=np.float64))


def test_a_pixel_above_maxval_is_bad_header():
    with pytest.raises(BadHeader, match="^pixel value 200 exceeds maxval 15$"):
        read_pgm(b"P5 2 2 15 " + bytes([200, 1, 2, 3]))


def test_a_pixel_equal_to_maxval_is_kept():
    assert read_pgm(b"P5 2 2 15 " + bytes([15, 1, 2, 0])).pixels.tolist() == [[15, 1], [2, 0]]
