"""Property tests: untrusted bytes raise only domain errors, any PGM header
gap of whitespace and comments reads the same, the data-only read agrees
with extract() and with an independent reading of the wire format, a
payload survives its wire bytes, embedding round-trips
whenever the payload fits, only a run-length coded location map can reach
a file, the matrix leave-one-out evaluation scores exactly like one
ranking per query and like the exact N x N distance matrix it no longer
fills, the ingest kernels (uint16 reduce, in-place LBP
codes, folded histogram, scatter-free embed) equal plain reference forms,
read_stored on damaged files agrees with a reference chain of copy, masked
stream read and sliced decode, and index rows are accepted exactly by the
row rule.

Runs are derandomized so every run of the suite checks the same examples,
unless HYPOTHESIS_PROFILE names a profile: ``deep`` (conftest.py) runs
4,000 random examples per property.
"""

import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lbpmarkdex import (
    GrayImage,
    Index,
    IndexEntry,
    PatientRecord,
    Payload,
    capacity,
    class_mean_pr,
    compute_descriptor,
    decode_payload,
    embed,
    encode_payload,
    extract,
    index_add,
    lbp_histogram,
    lbp_map,
    read_pgm,
    read_stored,
    reduce_once,
    save_pgm,
    write_pgm,
)
from lbpmarkdex.errors import (
    BadCutoff,
    BadMagic,
    ChecksumMismatch,
    ImageTooSmall,
    LbpmarkdexError,
    LengthMismatch,
    MalformedStream,
    PayloadTooLarge,
    TruncatedData,
    UnsupportedVersion,
)
from lbpmarkdex.descriptor import _normalize, _row_distances
from lbpmarkdex.lbp import NEIGHBOR_OFFSETS
from lbpmarkdex import retrieval
from lbpmarkdex.retrieval import rank_by_distance
from lbpmarkdex.watermark import _layout, _pair_words, _rewrite, _slots, _write, extract_data, rle_encode_map

from helpers import (
    TEXTURE_CLASSES,
    banded_noise_image,
    flip_stream_bit,
    parse_wire,
    reference_check_cutoffs,
    reference_pr_curve,
    reference_zone,
    smooth_noise_image,
)

# A profile named in HYPOTHESIS_PROFILE (conftest.py) sets the example count
# and seed; without one, every run checks the same 200 examples.
_EXAMPLES = {} if os.environ.get("HYPOTHESIS_PROFILE") else {"max_examples": 200, "derandomize": True}
PROPERTY = settings(deadline=None, database=None, **_EXAMPLES)

_TOKEN = st.one_of(
    st.integers(0, 70000).map(lambda v: str(v).encode()),
    st.binary(max_size=4),
)
_SEP = st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b"", b"\r\n"])

# PGM-shaped bytes: magic, three header tokens, separators, then pixels.
_PGM_LIKE = st.tuples(_SEP, _TOKEN, _SEP, _TOKEN, _SEP, _TOKEN, _SEP, st.binary(max_size=80)).map(
    lambda parts: b"P5" + b"".join(parts)
)


_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.binary(max_size=12).map(lambda raw: b"#" + raw.replace(b"\n", b"") + b"\n")
# A header gap: whitespace runs and comments in any order, possibly none.
_GAP = st.lists(
    st.one_of(st.lists(_WHITESPACE, min_size=1, max_size=3).map(b"".join), _COMMENT), max_size=4
).map(b"".join)


def _framed(body: bytes) -> bytes:
    """A payload header that matches body in magic, version, length and CRC."""
    return struct.pack(">4sBBIIH", b"LBPW", 1, 0, len(body), zlib.crc32(body), 0) + body


_TEXT = st.binary(max_size=8).map(lambda raw: struct.pack(">H", len(raw)) + raw)

# Bodies laid out like the real one (descriptor, three texts, birthday,
# text) with arbitrary contents, so every field parser sees bad input.
_BODY = st.tuples(
    st.binary(min_size=1024, max_size=1024), _TEXT, _TEXT, _TEXT, st.binary(min_size=4, max_size=4), _TEXT
).map(b"".join)

_PIXELS = hnp.arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 40)))


@st.composite
def _smooth_images(draw):
    """Mid-range or near-saturated images, mostly with room for a payload."""
    height = draw(st.integers(8, 32))
    width = draw(st.integers(24, 64))
    base = draw(st.integers(0, 255))
    spread = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    noise = np.random.default_rng(seed).integers(-spread, spread + 1, size=(height, width))
    return GrayImage(np.clip(base + noise, 0, 255))


@st.composite
def _generated_images(draw):
    """helpers' smooth (every pair expandable) or banded (a saturated row
    band of unchangeable pairs) noise images."""
    make = draw(st.sampled_from([smooth_noise_image, banded_noise_image]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make(rng, draw(st.integers(2, 40)), draw(st.integers(2, 24)))


# Pairs of each zone: expandable (mid-gray, small difference),
# changeable-only, and two unchangeable ones.
_PAIR_KINDS = np.array([[120, 121], [251, 255], [255, 255], [0, 255]])


@st.composite
def _scattered_images(draw):
    """Images whose expandable pairs are scattered among the others, so a
    raw location map is usually smaller than its run-length form."""
    height = draw(st.integers(1, 24))
    n_pairs = draw(st.integers(1, 24))
    odd_column = draw(st.integers(0, 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, len(_PAIR_KINDS), size=(height, n_pairs))
    pixels = _PAIR_KINDS[kinds].reshape(height, 2 * n_pairs)
    return GrayImage(np.hstack([pixels, np.full((height, odd_column), 7)]))


@st.composite
def _blocked_band_images(draw):
    """Smooth noise with a band of rows whose pairs are drawn from the
    non-expandable kinds above, so pairs without a slot sit among
    changeable-only ones. The band is one run of the location map, so the
    image still carries a payload."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = smooth_noise_image(rng, draw(st.integers(24, 64)), draw(st.integers(8, 24))).pixels.copy()
    start = draw(st.integers(0, pixels.shape[0] - 2))
    rows = draw(st.integers(1, pixels.shape[0] - start))
    n_pairs = pixels.shape[1] // 2
    kinds = _PAIR_KINDS[1:][rng.integers(0, len(_PAIR_KINDS) - 1, size=(rows, n_pairs))]
    pixels[start : start + rows, : 2 * n_pairs] = kinds.reshape(rows, 2 * n_pairs)
    return GrayImage(pixels)


def _only_domain_errors(call, *args):
    try:
        call(*args)
    except LbpmarkdexError:
        pass


@PROPERTY
@given(st.one_of(st.binary(max_size=64), _PGM_LIKE))
def test_read_pgm_raises_only_domain_errors(data):
    _only_domain_errors(read_pgm, data)


@PROPERTY
@given(_PIXELS, _GAP, st.lists(st.tuples(_WHITESPACE, _GAP), min_size=2, max_size=2), _WHITESPACE)
def test_any_header_gaps_decode_to_the_written_image(pixels, first, gaps, separator):
    # Between two tokens a gap must start with whitespace: a '#' right
    # after a token would belong to it.
    img = GrayImage(pixels)
    data = b"P5" + first + str(img.width).encode()
    data += gaps[0][0] + gaps[0][1] + str(img.height).encode()
    data += gaps[1][0] + gaps[1][1] + b"255" + separator + img.tobytes()
    assert read_pgm(data) == img


@PROPERTY
@given(st.one_of(st.binary(max_size=64), _BODY.map(_framed)))
def test_decode_payload_raises_only_domain_errors(data):
    _only_domain_errors(decode_payload, data)


# Full-range u32 bins, with the two extremes drawn often.
_BINS = hnp.arrays(np.uint32, 256, elements=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)))


@PROPERTY
@given(_BINS, st.text(max_size=8), st.text(max_size=8))
def test_payload_wire_round_trip(bins, locator, patient_id):
    payload = Payload(descriptor=bins, locator=locator, record=PatientRecord(patient_id))
    decoded = decode_payload(encode_payload(payload))
    assert decoded == payload
    assert hash(decoded) == hash(payload)
    assert decoded.descriptor.tolist() == bins.tolist()


@PROPERTY
@given(_PIXELS)
def test_extract_of_arbitrary_pixels_raises_only_domain_errors(pixels):
    _only_domain_errors(extract, GrayImage(pixels))


@PROPERTY
@given(_smooth_images(), st.data())
def test_extract_of_damaged_marked_image_raises_only_domain_errors(img, data):
    try:
        marked = embed(img, b"")
    except PayloadTooLarge:
        return
    pixels = marked.pixels.copy()
    for _ in range(data.draw(st.integers(1, 4))):
        row = data.draw(st.integers(0, img.height - 1))
        col = data.draw(st.integers(0, img.width - 1))
        pixels[row, col] = data.draw(st.integers(0, 255))
    _only_domain_errors(extract, GrayImage(pixels))


def _data_read(call, img):
    """What call(img) returns, or the class and message of the domain error it raised."""
    try:
        return call(img)
    except LbpmarkdexError as exc:
        return type(exc), str(exc)


def _assert_reads_agree(img):
    assert _data_read(extract_data, img) == _data_read(lambda i: extract(i)[0], img)


@PROPERTY
@given(_PIXELS)
def test_data_only_read_agrees_with_extract_on_arbitrary_pixels(pixels):
    _assert_reads_agree(GrayImage(pixels))


@PROPERTY
@given(_smooth_images(), st.data())
def test_data_only_read_agrees_with_extract_on_bit_flipped_images(img, data):
    try:
        marked = embed(img, data.draw(st.binary(max_size=capacity(img) // 8)))
    except PayloadTooLarge:
        return
    pixels = marked.pixels.copy()
    for _ in range(data.draw(st.integers(1, 4))):
        row = data.draw(st.integers(0, img.height - 1))
        col = data.draw(st.integers(0, img.width - 1))
        pixels[row, col] ^= data.draw(st.integers(1, 255))
    _assert_reads_agree(GrayImage(pixels))


@PROPERTY
@given(st.one_of(_smooth_images(), _generated_images(), _blocked_band_images()), st.data())
def test_data_only_read_matches_the_independent_wire_reader(img, data):
    """extract_data against helpers' loop-based reader, which shares no
    code with the package: the data region starts where the wire format
    puts it (after the map and one saved LSB per changeable-only pair) and
    runs to the last whole byte of the writable slots. Banded images hold
    pairs without a slot ([0, 255] and [255, 255]) among the slots."""
    payload = data.draw(st.binary(max_size=capacity(img) // 8))
    try:
        marked = embed(img, payload)
    except PayloadTooLarge:
        return
    read = extract_data(marked)
    assert read[: len(payload)] == payload
    wire = parse_wire(marked.pixels)
    region = wire["bits"][wire["data_start"] :]
    whole = np.array(region[: 8 * (len(region) // 8)], dtype=np.uint8)
    assert read == np.packbits(whole).tobytes()


@PROPERTY
@given(_smooth_images(), st.data())
def test_embed_extract_identity_when_payload_fits(img, data):
    bits = capacity(img)
    payload = data.draw(st.binary(max_size=bits // 8))
    try:
        marked = embed(img, payload)
    except PayloadTooLarge:
        # Only an image whose bookkeeping alone overflows may refuse.
        assert bits == 0
        return
    out, restored = extract(marked)
    assert out[: len(payload)] == payload
    assert restored == img


@PROPERTY
@given(_scattered_images())
def test_an_image_needing_a_raw_map_has_no_capacity(img):
    """An RLE map no shorter than a raw one (one bit per pair) overflows
    the stream by itself: there are never more writable slots than pairs."""
    n = img.width // 2
    xs = img.pixels[:, 0 : 2 * n : 2].ravel().tolist()
    ys = img.pixels[:, 1 : 2 * n : 2].ravel().tolist()
    expandable = [reference_zone((x + y) // 2, x - y) == "expandable" for x, y in zip(xs, ys)]
    assume(8 * len(rle_encode_map(np.array(expandable))) >= len(expandable))
    assert capacity(img) == 0
    with pytest.raises(PayloadTooLarge):
        embed(img, b"")


@PROPERTY
@given(_smooth_images(), st.data())
def test_a_cleared_map_flag_is_rejected_by_both_readers(img, data):
    try:
        marked = embed(img, data.draw(st.binary(max_size=capacity(img) // 8)))
    except PayloadTooLarge:
        return
    tampered = flip_stream_bit(marked, 0)  # stream bit 0 is the map flag
    for read in (extract_data, lambda i: extract(i)[0]):
        with pytest.raises(MalformedStream, match="^raw map is "):
            read(tampered)


def _reference_stream_data(img):
    """The data region read with _slots' masks on every image, as it was
    before the short cut for images without a 0 or 255 pixel: every stream
    check, in the same order."""
    pairs = np.ascontiguousarray(img.pixels[:, : img.width & -2]).view("<u2")
    low = pairs & 0x1FF
    blocked = (low == 0x100) | (low == 0x1FF)
    bits = ((pairs ^ (pairs >> 8)) & 1).astype(np.uint8)
    stream = bits[~blocked]
    if stream.size < 33:
        raise MalformedStream("no room for the stream header")
    flag = int(stream[0])
    (map_len,) = struct.unpack(">I", np.packbits(stream[1:33]).tobytes())
    if 33 + map_len > stream.size or flag == 0 or map_len % 16:
        raise MalformedStream("bad map header")
    runs = np.frombuffer(np.packbits(stream[33 : 33 + map_len]).tobytes(), ">u2")
    if int(runs.sum(dtype=np.int64)) != blocked.size:
        raise MalformedStream("runs do not cover the pairs")
    expanded = np.repeat((np.arange(runs.size) & 1).astype(bool), runs).reshape(blocked.shape)
    if np.any(expanded & blocked):
        raise MalformedStream("map marks a blocked pair")
    saved_start = 33 + map_len
    n_saved = stream.size - int(np.count_nonzero(expanded))
    if saved_start + n_saved > stream.size:
        raise MalformedStream("no room for the saved LSBs")
    data_bits = stream[saved_start + n_saved :]
    return np.packbits(data_bits[: 8 * (data_bits.size // 8)]).tobytes()


def _reference_decode(data):
    """The payload decode as a reader of sliced fields, as it was before
    the in-place parse: the descriptor reaches Payload as int64, so its
    range is checked."""
    if len(data) < 16:
        raise TruncatedData("short header")
    magic, version, flags, body_len, crc, reserved = struct.unpack(">4sBBIIH", data[:16])
    if magic != b"LBPW":
        raise BadMagic("bad magic")
    if version != 1 or flags or reserved:
        raise UnsupportedVersion("bad version, flags or reserved")
    if 16 + body_len > len(data):
        raise LengthMismatch("body longer than the data")
    body = data[16 : 16 + body_len]
    if zlib.crc32(body) != crc:
        raise ChecksumMismatch("bad checksum")
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > len(body):
            raise LengthMismatch("body ended inside a field")
        pos += count
        return body[pos - count : pos]

    def text():
        (length,) = struct.unpack(">H", take(2))
        try:
            return take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedStream("not UTF-8") from exc

    descriptor = np.frombuffer(take(4 * 256), ">u4").astype(np.int64)
    fields = [text() for _ in range(3)]  # locator, patient_id, name
    year, month, day = struct.unpack(">HBB", take(4))
    record = PatientRecord(fields[1], fields[2], year, month, day, text())
    return Payload(descriptor=descriptor, locator=fields[0], record=record)


def _assert_reads_like_the_reference(path, data):
    """read_stored of a file holding data, against the reference chain: a
    copied GrayImage, the masked stream read and the sliced decode. Both
    give equal payloads, down to the descriptor bytes, or the same error
    class."""
    path.write_bytes(data)
    got = _outcome(read_stored, path)
    want = _outcome(lambda d: _reference_decode(_reference_stream_data(read_pgm(bytearray(d)))), data)
    if isinstance(want, Payload):
        assert isinstance(got, Payload) and got == want
        assert got.descriptor.dtype == want.descriptor.dtype
        assert got.descriptor.tobytes() == want.descriptor.tobytes()
    else:
        assert got is want


_FIELD = st.text(st.characters(codec="utf-8"), max_size=4)


@st.composite
def _marked_payloads(draw):
    """(image, payload bytes) for a 128 x 208 host that carries a real
    payload: smooth noise has no pixel at 0 or 255, banded noise a row
    band of blocked (255, 255) pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([smooth_noise_image, banded_noise_image]))
    record = PatientRecord(
        draw(_FIELD), name=draw(_FIELD), birth_year=draw(st.integers(0, 0xFFFF)), diagnostic=draw(_FIELD)
    )
    payload = Payload(descriptor=rng.integers(0, 2**32, 256), locator=draw(_FIELD), record=record)
    return make(rng, 128, 208), encode_payload(payload)


@pytest.fixture(scope="module")
def stored_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reads") / "stored.pgm"


@PROPERTY
@given(_marked_payloads(), st.data())
def test_read_stored_matches_the_reference_on_damaged_pixels(stored_file, marked, data):
    """Bit flips and pixels forced to 0 or 255: the short cut (no pixel at
    0 or 255) and the masked read are both reached, and an image can move
    from one to the other."""
    img, blob = marked
    pixels = embed(img, blob).pixels.copy()
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.integers(0, img.height - 1))
        col = data.draw(st.integers(0, img.width - 1))
        if data.draw(st.booleans()):
            pixels[row, col] ^= 1 << data.draw(st.integers(0, 7))
        else:
            pixels[row, col] = data.draw(st.sampled_from([0, 255]))
    _assert_reads_like_the_reference(stored_file, write_pgm(GrayImage(pixels)))


@PROPERTY
@given(_marked_payloads(), st.data())
def test_read_stored_matches_the_reference_on_truncated_files(stored_file, marked, data):
    img, blob = marked
    data_bytes = write_pgm(embed(img, blob))
    cut = data.draw(st.integers(0, len(data_bytes) - 1))
    _assert_reads_like_the_reference(stored_file, data_bytes[:cut])


@PROPERTY
@given(_marked_payloads(), st.data())
def test_read_stored_matches_the_reference_on_checksum_repaired_bodies(stored_file, marked, data):
    """Body bytes changed and the CRC recomputed, so the field parser sees
    them: lengths that overrun the body, bytes that are not UTF-8, birth
    months out of range. Random pixel flips almost always stop at the
    checksum instead."""
    img, blob = marked
    body = bytearray(blob[16:])
    for _ in range(data.draw(st.integers(1, 3))):
        # Mostly the text fields and birthday, after the 1024 descriptor bytes.
        at = data.draw(st.one_of(st.integers(1024, len(body) - 1), st.integers(0, len(body) - 1)))
        body[at] = data.draw(st.one_of(st.integers(0, 255), st.sampled_from([0x80, 0xC3, 0xFF])))
    header = bytearray(blob[:16])
    header[10:14] = zlib.crc32(body).to_bytes(4, "big")
    _assert_reads_like_the_reference(stored_file, write_pgm(embed(img, bytes(header + body))))


_TAPS = (1, 4, 6, 4, 1)


def _reference_reduce(pixels):
    """REDUCE as int32 sums of the five taps per pass, rounded half up."""
    h, w = pixels.shape
    padded = np.pad(pixels.astype(np.int32), 2, mode="edge")
    rows = sum(k * padded[i : i + h : 2] for i, k in enumerate(_TAPS))
    acc = sum(k * rows[:, i : i + w : 2] for i, k in enumerate(_TAPS))
    return ((acc + 128) // 256).astype(np.uint8)


def _reference_lbp_map(pixels):
    """LBP codes as the OR of each neighbor comparison shifted to its bit."""
    center = pixels[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        shifted = pixels[1 + dy : pixels.shape[0] - 1 + dy, 1 + dx : pixels.shape[1] - 1 + dx]
        codes |= (shifted >= center).astype(np.uint8) << bit
    return codes


def _reference_embed(img, data):
    """embed's pixels with the stream scattered into the unblocked pairs of
    a copy of the parity array, whether or not any pair is blocked."""
    x0, y0, blocked, bits, head, slots = _layout(img)
    stream = np.concatenate([head, np.unpackbits(np.frombuffer(data, dtype=np.uint8))])
    carried = bits.copy()
    carried[~blocked] = np.concatenate([stream, np.zeros(slots - stream.size, dtype=np.uint8)])
    out = img.pixels.copy()
    out[:, : img.width & -2].view("<u2")[...] = ((x0 + carried) | y0 << 8).view(np.uint16)
    return out


_SIDES = st.tuples(st.integers(2, 40), st.integers(2, 40))
# Any pixels, or only the extremes, where comparisons tie and sums peak.
_KERNEL_PIXELS = hnp.arrays(np.uint8, _SIDES) | hnp.arrays(
    np.uint8, _SIDES, elements=st.sampled_from([0, 1, 254, 255])
)


@PROPERTY
@given(_KERNEL_PIXELS)
def test_descriptor_kernels_equal_their_reference_forms(pixels):
    img = GrayImage(pixels)
    assert np.array_equal(reduce_once(img).pixels, _reference_reduce(pixels))
    if min(pixels.shape) < 3:
        with pytest.raises(ImageTooSmall):
            lbp_histogram(img)
        return
    codes = _reference_lbp_map(pixels)
    assert np.array_equal(lbp_map(img), codes)
    hist = lbp_histogram(img)
    assert hist.dtype == np.int64
    assert hist.tolist() == np.bincount(codes.ravel(), minlength=256).tolist()


@PROPERTY
@given(st.one_of(_blocked_band_images(), _generated_images()), st.data())
def test_embed_writes_the_scattered_stream(img, data):
    """embed skips the scatter when no pair is blocked; with or without
    blocked pairs its bytes equal the scattered stream's."""
    payload = data.draw(st.binary(max_size=capacity(img) // 8))
    try:
        marked = embed(img, payload)
    except PayloadTooLarge:
        return
    assert marked.pixels.tobytes() == _reference_embed(img, payload).tobytes()


def test_embed_reference_covers_blocked_and_unblocked_images():
    """Both embed paths, one image each: no pair blocked, and two
    saturated rows of blocked pairs."""
    rng = np.random.default_rng(3)
    images = [
        smooth_noise_image(rng, 40, 16),
        GrayImage(np.vstack([smooth_noise_image(rng, 40, 16).pixels, np.full((2, 40), 255)])),
    ]
    assert [bool(_slots(_pair_words(img))[0].any()) for img in images] == [False, True]
    for img in images:
        payload = bytes(range(capacity(img) // 8))
        assert embed(img, payload).pixels.tobytes() == _reference_embed(img, payload).tobytes()


@PROPERTY
@given(st.one_of(_blocked_band_images(), _generated_images()), st.data())
def test_rewrite_gives_the_rows_of_embed_of_the_new_data(img, data):
    """The image marked with old data, with the rows _rewrite returns for
    new data of the same length put in, is embed() of the new data."""
    old = data.draw(st.binary(max_size=capacity(img) // 8))
    new = data.draw(st.binary(min_size=len(old), max_size=len(old)))
    layout = _layout(img)
    try:
        marked = _write(img, layout, old)
    except PayloadTooLarge:
        return
    first, rows = _rewrite(marked, layout, old, new)
    pixels = marked.pixels.copy()
    pixels[first : first + len(rows)] = rows
    assert pixels.tobytes() == embed(img, new).pixels.tobytes()


@st.composite
def _storable_images(draw):
    """Smooth noise that mostly has room for a whole payload, with or
    without a band of blocked pairs (y odd, x 0 or 255), which may fall
    among the pairs that carry the descriptor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width, height = draw(st.integers(150, 280)), draw(st.integers(120, 200))
    pixels = smooth_noise_image(rng, width, height).pixels.copy()
    if draw(st.booleans()):
        top = draw(st.integers(0, height - 1))
        bottom = top + draw(st.integers(1, min(24, height - top)))
        left = 2 * draw(st.integers(0, width // 2 - 1))
        right = left + 2 * draw(st.integers(1, (width - left) // 2))
        pixels[top:bottom, left:right:2] = draw(st.sampled_from([0, 255]))
        pixels[top:bottom, left + 1 : right : 2] = 77
    return GrayImage(pixels)


@pytest.mark.parametrize("rule", [0, 1 << 60])  # every image on the worker; none
@PROPERTY
@given(_storable_images())
def test_index_add_stores_embed_of_the_real_payload(rule, img):
    record = PatientRecord("P0001", name="Ada", diagnostic="dx")
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "THREAD_MIN_PIXELS", rule)
        store = os.path.join(root, "s")
        locator = retrieval.locator_for(store, "a")
        payload = Payload(descriptor=compute_descriptor(img), locator=locator, record=record)
        expected = _outcome(embed, img, encode_payload(payload))
        stored = _outcome(index_add, os.path.join(root, "i.tsv"), img, "a", record, store)
        if isinstance(expected, type):
            assert stored is expected
            return
        save_pgm(os.path.join(root, "expected.pgm"), expected)
        with open(locator, "rb") as got, open(os.path.join(root, "expected.pgm"), "rb") as want:
            assert got.read() == want.read()


def _outcome(call, *args):
    """What call(*args) returns, or the class of the domain error it raised."""
    try:
        return call(*args)
    except LbpmarkdexError as exc:
        return type(exc)


def _reference_class_mean_pr(descriptors, labels, cutoffs):
    """Leave-one-out as one rank_by_distance per query, scored by
    precision_recall of each prefix."""
    ids = sorted(set(descriptors) & set(labels))
    reference_check_cutoffs(cutoffs, len(ids) - 1)
    labeled = {i: descriptors[i] for i in ids}
    hits_per_class = {}
    for query in ids:
        relevant = {i for i in ids if i != query and labels[i] == labels[query]}
        if not relevant:
            continue
        ranked = [i for _, i in rank_by_distance(descriptors[query], labeled) if i != query]
        # precision = hits / k, correctly rounded, so rounding back is exact
        hits = [round(p * k) for k, p, _ in reference_pr_curve(ranked, relevant, cutoffs)]
        hits_per_class.setdefault(labels[query], []).append(hits)
    result = []
    for label in sorted(hits_per_class):
        n = len(hits_per_class[label])
        for k, total in zip(cutoffs, map(sum, zip(*hits_per_class[label]))):
            result.append((label, k, total / (k * n), total / ((n - 1) * n)))
    return result


def _sparse_descriptor(counts):
    vec = np.zeros(256, dtype=np.int64)
    for bin_, count in counts:
        vec[bin_] += count
    return vec


def _cutoffs(draw, n):
    """Mostly strictly ascending cutoffs within [1, n]; sometimes any list."""
    if n >= 1 and draw(st.integers(0, 3)):
        return sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
    return draw(st.lists(st.integers(0, n + 2), max_size=3))


@st.composite
def _labeled_corpora(draw):
    """(descriptors, labels, cutoffs) for leave-one-out evaluation.

    Each image takes one of a few shared vectors over four bins, so
    duplicates tie with their query at distance 0, scaled copies
    normalize to the same point, and distinct vectors tie often. Some
    corpora hold the zero vector. A few ids have only a descriptor or
    only a label, and labels come from a small alphabet, so singleton
    classes are common.
    """
    bin_counts = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=3)
    vectors = [_sparse_descriptor(counts) for counts in draw(st.lists(bin_counts, min_size=1, max_size=4))]
    if draw(st.integers(0, 7)) == 0:
        vectors.append(np.zeros(256, dtype=np.int64))
    descriptors, labels = {}, {}
    for j in range(draw(st.integers(2, 12))):
        image_id = f"i{j:02d}"
        kind = draw(st.sampled_from(["both", "both", "both", "both", "descriptor", "label"]))
        if kind != "label":
            descriptors[image_id] = vectors[draw(st.integers(0, len(vectors) - 1))]
        if kind != "descriptor":
            labels[image_id] = draw(st.sampled_from("aabc"))
    return descriptors, labels, _cutoffs(draw, len(set(descriptors) & set(labels)) - 1)


@PROPERTY
@given(_labeled_corpora())
def test_class_mean_pr_scores_like_one_ranking_per_query(corpus):
    descriptors, labels, cutoffs = corpus
    assert _outcome(class_mean_pr, descriptors, labels, cutoffs) == _outcome(
        _reference_class_mean_pr, descriptors, labels, cutoffs
    )


def _reference_matrix_class_mean_pr(descriptors, labels, cutoffs):
    """Leave-one-out as class_mean_pr ranked before its Gram blocks: the
    symmetric N x N fill of exact distances, then one stable argsort per
    query row with the query's own position dropped."""
    ids = sorted(set(descriptors) & set(labels))
    if cutoffs and len(ids) < 2:
        raise BadCutoff("cutoffs need at least 2 labeled images with a descriptor")
    matrix = np.array([descriptors[i] for i in ids], dtype=np.int64)
    reference_check_cutoffs(cutoffs, len(ids) - 1)
    classes = sorted({labels[i] for i in ids})
    class_of = np.array([classes.index(labels[i]) for i in ids], dtype=np.intp)
    sizes = np.bincount(class_of, minlength=len(classes))
    totals = np.zeros((len(classes), len(cutoffs)), dtype=np.int64)
    queries = np.flatnonzero(sizes[class_of] > 1)
    if len(queries):
        unit = _normalize(matrix, "labeled")
        distances = np.zeros((len(ids), len(ids)))
        for row in range(len(ids) - 1):
            distances[row, row + 1 :] = distances[row + 1 :, row] = _row_distances(unit[row], unit[row + 1 :])
        for row in queries.tolist():
            order = np.argsort(distances[row], kind="stable")
            order = order[order != row]
            hits = np.cumsum(class_of[order] == class_of[row])
            totals[class_of[row]] += hits[np.asarray(cutoffs, dtype=np.intp) - 1]
    return [
        (label, k, total / (k * n), total / ((n - 1) * n))
        for label, n, counts in zip(classes, sizes.tolist(), totals.tolist())
        if n > 1
        for k, total in zip(cutoffs, counts)
    ]


_NEAR_MAX = 2**32 - 1


@st.composite
def _realistic_corpora(draw):
    """(descriptors, labels, cutoffs) with 2-80 images over all 256 bins,
    so most cutoffs leave candidates out of the Gram order's top k.

    Fresh vectors are dense or sparse, with bins up to 3, 1,000 or near
    2**32 - 1 (nearly uniform rows, whose distances all crowd near 0).
    The rest are exact duplicates, 2x and 3x scaled copies (the same unit
    row) and copies one count apart of earlier vectors, so ties and near
    ties straddle cutoffs; a few corpora hold the zero vector.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([4, 1000, _NEAR_MAX]))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    vectors = []
    for j in range(draw(st.integers(2, 80))):
        kind = draw(st.sampled_from(["fresh", "fresh", "duplicate", "scaled", "one count"])) if j else "fresh"
        earlier = vectors[int(rng.integers(len(vectors)))] if j else None
        if kind == "fresh":
            vec = rng.integers(0, high, 256, dtype=np.int64, endpoint=True) * (rng.random(256) < density)
            if high == _NEAR_MAX:
                vec = np.where(vec > 0, _NEAR_MAX - rng.integers(0, 3, 256), 0)
            vec[int(rng.integers(256))] += 1  # never the zero vector by chance
        elif kind == "duplicate":
            vec = earlier
        elif kind == "scaled":
            vec = earlier * int(rng.integers(2, 4))
        else:
            vec = earlier.copy()
            bin_ = int(rng.integers(256))
            vec[bin_] += 1 if vec[bin_] == 0 or rng.random() < 0.5 else -1
        vectors.append(vec)
    if draw(st.integers(0, 15)) == 0:
        vectors[draw(st.integers(0, len(vectors) - 1))] = np.zeros(256, dtype=np.int64)
    descriptors, labels = {}, {}
    for j, vec in enumerate(vectors):
        image_id = f"i{j:02d}"
        kind = draw(st.sampled_from(["both"] * 8 + ["descriptor", "label"]))
        if kind != "label":
            descriptors[image_id] = vec
        if kind != "descriptor":
            labels[image_id] = draw(st.sampled_from("aabcd"))
    return descriptors, labels, _cutoffs(draw, len(set(descriptors) & set(labels)) - 1)


@PROPERTY
@given(_realistic_corpora())
def test_class_mean_pr_equals_the_exact_matrix_ranking(corpus):
    descriptors, labels, cutoffs = corpus
    assert _outcome(class_mean_pr, descriptors, labels, cutoffs) == _outcome(
        _reference_matrix_class_mean_pr, descriptors, labels, cutoffs
    )


def test_class_mean_pr_equals_the_exact_matrix_ranking_on_600_textures():
    """600 small generated textures in four classes, every 25th one a
    duplicate of the image before it, with cutoffs up to N - 1."""
    rng = np.random.default_rng(600)
    generators = dict(TEXTURE_CLASSES, smooth=lambda rng, size: smooth_noise_image(rng, size, size))
    descriptors, labels = {}, {}
    for j in range(600):
        label = list(generators)[j % len(generators)]
        image_id = f"t{j:03d}"
        if j % 25 == 24:
            descriptors[image_id] = descriptors[f"t{j - 1:03d}"]
        else:
            descriptors[image_id] = compute_descriptor(generators[label](rng, 24))
        labels[image_id] = label
    cutoffs = [1, 2, 10, 100, 599]
    assert class_mean_pr(descriptors, labels, cutoffs) == _reference_matrix_class_mean_pr(descriptors, labels, cutoffs)


def _reference_entry_ok(image_id, locator, class_label):
    """The IndexEntry rule, checked character by character on the rendered
    row: no tab, CR or LF in any field, a non-empty id, and a row that
    reads as neither blank nor a comment."""
    fields = (image_id, locator, class_label)
    if any(ch in value for value in fields for ch in ("\t", "\n", "\r")) or not image_id:
        return False
    stripped = f"{image_id}\t{locator}\t{class_label}\n".strip()
    return bool(stripped) and not stripped.startswith("#")


# Separators, comment marks and characters that str.strip() or
# str.splitlines() treat as whitespace or line breaks.
_ROW_FIELD = st.text(st.sampled_from(["\t", "\r", "\n", "#", " ", "\x85", "\u2028", "\x1c", "\f", "a", "é"]), max_size=4)


@PROPERTY
@given(_ROW_FIELD, _ROW_FIELD, _ROW_FIELD)
def test_index_entry_accepts_exactly_what_the_row_rule_accepts(image_id, locator, class_label):
    try:
        entry = IndexEntry(image_id, locator, class_label)
    except ValueError:
        assert not _reference_entry_ok(image_id, locator, class_label)
        return
    assert _reference_entry_ok(image_id, locator, class_label)
    assert Index.parse(Index([entry]).render()) == Index([entry])
