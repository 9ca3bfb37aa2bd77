"""Property tests: untrusted bytes raise only domain errors, any PGM header
gap of whitespace and comments reads the same, the data-only read agrees
with extract(), a payload survives its wire bytes, embedding round-trips
whenever the payload fits, only a run-length coded location map can reach
a file, and the matrix leave-one-out evaluation scores exactly like one
ranking per query.

Runs are derandomized so every run of the suite checks the same examples.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lbpmarkdex import (
    EvalSets,
    GrayImage,
    PatientRecord,
    Payload,
    capacity,
    class_mean_pr,
    decode_payload,
    embed,
    encode_payload,
    extract,
    pr_curve,
    precision_recall,
    read_pgm,
)
from lbpmarkdex.errors import BadCutoff, LbpmarkdexError, MalformedStream, PayloadTooLarge
from lbpmarkdex.retrieval import rank_by_distance
from lbpmarkdex.watermark import extract_data, rle_encode_map

from helpers import flip_stream_bit, reference_zone

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

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


def _outcome(call, *args):
    """What call(*args) returns, or the class of the domain error it raised."""
    try:
        return call(*args)
    except LbpmarkdexError as exc:
        return type(exc)


def _reference_check_cutoffs(cutoffs, n):
    if list(cutoffs) != sorted(set(cutoffs)) or (cutoffs and not 1 <= cutoffs[0] <= cutoffs[-1] <= n):
        raise BadCutoff(f"cutoffs {cutoffs} are not strictly ascending within [1, {n}]")


def _reference_class_mean_pr(descriptors, labels, cutoffs):
    """Leave-one-out as one rank_by_distance per query, scored by pr_curve."""
    ids = sorted(set(descriptors) & set(labels))
    _reference_check_cutoffs(cutoffs, len(ids) - 1)
    labeled = {i: descriptors[i] for i in ids}
    hits_per_class = {}
    for query in ids:
        relevant = {i for i in ids if i != query and labels[i] == labels[query]}
        if not relevant:
            continue
        ranked = [i for _, i in rank_by_distance(descriptors[query], labeled) if i != query]
        # precision = hits / k, correctly rounded, so rounding back is exact
        hits = [round(p * k) for k, p, _ in pr_curve(ranked, relevant, cutoffs)]
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


def _reference_pr_curve(ranked, relevant, cutoffs):
    _reference_check_cutoffs(cutoffs, len(ranked))
    return [(k, *precision_recall(EvalSets(relevant, ranked[:k]))) for k in cutoffs]


@st.composite
def _rankings(draw):
    """(ranked, relevant, cutoffs): rankings that repeat ids, relevant sets
    that may be empty or name ids never ranked."""
    ranked = draw(st.lists(st.sampled_from("abcde"), max_size=10))
    relevant = draw(st.sets(st.sampled_from("abcdef"), max_size=3))
    return ranked, relevant, _cutoffs(draw, len(ranked))


@PROPERTY
@given(_rankings())
def test_pr_curve_is_precision_recall_of_each_prefix(case):
    """A repeated id counts once, in both the hits and the size of the
    answer set."""
    assert _outcome(pr_curve, *case) == _outcome(_reference_pr_curve, *case)
