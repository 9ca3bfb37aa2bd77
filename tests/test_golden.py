"""Bit-identity of the watermark and of retrieval against recorded values.

Each watermark case is a seeded image and payload. The test pins the
sha256 of the stored PGM bytes of embed(), the sha256 of the data
extract() reads back, and capacity(). The constants were recorded from an
earlier build of the package, so any change to the on-pixel stream
layout, the zone rules or the bit budget shows up here as a changed
digest, even when embed and extract still agree with each other.

The descriptor cases pin the sha256 of compute_descriptor for a large
image with even sides and one with odd sides, so a change to the pyramid
arithmetic or its edge handling shows up as a changed digest.

The retrieval case pins the repr of every query distance and every
leave-one-out precision/recall row of a seeded labeled store, so a change
to the distance arithmetic or to the (distance, id) order shows up as a
changed constant.
"""

import hashlib

import numpy as np
import pytest

from lbpmarkdex import (
    GrayImage,
    Index,
    capacity,
    class_mean_pr,
    compute_descriptor,
    embed,
    extract,
    index_add,
    query_by_image,
    read_stored,
    write_pgm,
)
from lbpmarkdex.errors import PayloadTooLarge

from helpers import TEXTURE_CLASSES, sample_patient


def _payload(rng, img, share):
    """Seeded bytes filling `share` of the image's capacity."""
    return rng.bytes(int(share * (capacity(img) // 8)))


def smooth():
    # Mid-gray noise: every pair expandable, all-ones map sent as RLE.
    rng = np.random.default_rng(101)
    img = GrayImage(128 + rng.integers(-12, 13, size=(48, 64)))
    return img, _payload(rng, img, 1.0)


def odd_width():
    # 63 columns: the last column is never paired.
    rng = np.random.default_rng(102)
    img = GrayImage(90 + rng.integers(-15, 16, size=(40, 63)))
    return img, _payload(rng, img, 0.5)


def banded():
    # A saturated row band: unchangeable pairs in one RLE run.
    rng = np.random.default_rng(103)
    pixels = 140 + rng.integers(-10, 11, size=(64, 96))
    pixels[20:36, :] = 255
    img = GrayImage(pixels)
    return img, _payload(rng, img, 1.0)


def changeable_only():
    # Dark, contrasty rows under a smooth top: pairs that take an LSB but
    # cannot expand, so saved LSBs ride in the stream.
    rng = np.random.default_rng(104)
    pixels = 120 + rng.integers(-8, 9, size=(64, 64))
    pixels[48:, 0::2] = rng.integers(6, 13, size=(16, 32))
    pixels[48:, 1::2] = rng.integers(0, 3, size=(16, 32))
    img = GrayImage(pixels)
    return img, _payload(rng, img, 0.75)


def negative_differences():
    # Rising left to right inside each pair: every h is negative.
    rng = np.random.default_rng(105)
    left = rng.integers(60, 180, size=(50, 40))
    pixels = np.empty((50, 80), dtype=np.int64)
    pixels[:, 0::2] = left
    pixels[:, 1::2] = left + rng.integers(1, 9, size=(50, 40))
    img = GrayImage(pixels)
    return img, _payload(rng, img, 1.0)


def stripes_256():
    rng = np.random.default_rng(106)
    yy, xx = np.mgrid[0:256, 0:256]
    wave = np.sin(2 * np.pi * (0.8 * xx + 0.6 * yy) / 11.0)
    img = GrayImage(np.rint(128 + 35 * wave).astype(np.int64))
    return img, _payload(rng, img, 0.9)


def range_ends():
    # Bands of black, white and black-beside-white pairs (l = 0, l = 255,
    # |h| = 255) across mid-gray rows: every zone at the ends of the pair
    # arithmetic's range, where a narrow integer type would first overflow.
    rng = np.random.default_rng(108)
    pixels = 128 + rng.integers(-10, 11, size=(64, 96))
    extremes = [(0, 0), (1, 0), (0, 1), (255, 255), (254, 255), (255, 254), (255, 0), (0, 255)]
    for row, (x, y) in enumerate(extremes, start=24):
        start = 2 * int(rng.integers(0, 16))
        pixels[row, start : start + 64 : 2] = x
        pixels[row, start + 1 : start + 64 : 2] = y
    img = GrayImage(pixels)
    return img, _payload(rng, img, 1.0)


def too_large():
    # Full-swing noise leaves no net capacity: embed must refuse one byte.
    rng = np.random.default_rng(107)
    img = GrayImage(rng.integers(0, 256, size=(16, 16)))
    return img, b"\x5a"


CASES = {
    "smooth": smooth,
    "odd_width": odd_width,
    "banded": banded,
    "changeable_only": changeable_only,
    "negative_differences": negative_differences,
    "stripes_256": stripes_256,
    "range_ends": range_ends,
    "too_large": too_large,
}

# name -> (capacity, sha256(write_pgm(embed)), sha256(extracted data)), or
# (capacity, PayloadTooLarge message) for an image that cannot carry its data.
GOLDEN = {
    "smooth": (
        1471,
        "66b50c38e34d6ddd4c4ab62a65d5d27b65d86b3ebdbc18fe9bc5e80bb9134b8f",
        "bbd877d0611e08815c5bfb1b258bab5d2b4715315198efa913623be0d824bd6e",
    ),
    "odd_width": (
        1175,
        "a64e7c19c4a67d28ccc61a4a1910c89b44e9f5dacb44739f5438a938ff81a928",
        "bfc3e9d38c63e95f0a4bac0ff35a9d25ab58678b4c559ad029fc31ee9deb871a",
    ),
    "banded": (
        2207,
        "f435f4f87f672ca508d21aaf95e895f049174b0e613d1cc8dde5624975b4bbe8",
        "7167c7f9c6f1722ffc0f75e56b446d37b8f6a4159dc1c894a4e7b8fc90e942e1",
    ),
    "changeable_only": (
        837,
        "5c36d73abedeaf8af88e3c27050fbb066fcfe0bd45b9f48c4b8b7dc08880a5b6",
        "1d20c1549333283e22773471281d8c1b5ad4c5cb8b03567f754abe2e22e9822e",
    ),
    "negative_differences": (
        1935,
        "7556185a63f9b0019fd2332e45dc55a3eea2666463e2515e645de6f518b373a1",
        "4d33c9d5820eeeff0009518bf4fd37fc951bcca381559a4407ef6e999f9034e8",
    ),
    "stripes_256": (
        32703,
        "1a2f8e03de409183b7b00a29ced0248ed69ed19a2838f0c3690409a1676482b2",
        "083fa0fcf9fde6d7c1ef6a79266b0d6f2cde157dd3fccb2129e387c6ebde93e4",
    ),
    "range_ends": (
        2623,
        "c239734a4fc52589d46182334af45915b680e6571c86664557f0c36f90230fc0",
        "9e00148f602b11c916e08f131f6d66fd593ab91ecb196e094335e11ab5906eee",
    ),
    "too_large": (
        0,
        "stream needs 1218 bits but the image offers 127 writable slots "
        "(8 payload bits vs capacity 0)",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_watermark_matches_recorded_digests(name):
    img, data = CASES[name]()
    expected = GOLDEN[name]
    assert capacity(img) == expected[0]
    if len(expected) == 2:
        with pytest.raises(PayloadTooLarge) as exc:
            embed(img, data)
        assert str(exc.value) == expected[1]
        return
    marked = embed(img, data)
    assert _sha(write_pgm(marked)) == expected[1]
    out, restored = extract(marked)
    assert _sha(out) == expected[2]
    assert out[: len(data)] == data
    assert restored == img


def noise_1024():
    rng = np.random.default_rng(110)
    return GrayImage(rng.integers(0, 256, size=(1024, 1024)))


def wave_1023x517():
    # Smooth waves with a little noise: many equal LBP neighbours, so a
    # pyramid pixel off by one flips codes.
    rng = np.random.default_rng(111)
    yy, xx = np.mgrid[0:517, 0:1023]
    wave = np.sin(2 * np.pi * (0.7 * xx + 0.4 * yy) / 23.0)
    noise = rng.integers(-3, 4, size=(517, 1023))
    return GrayImage(np.rint(128 + 60 * wave).astype(np.int64) + noise)


# name -> sha256 of compute_descriptor(image) as little-endian int64 bytes.
GOLDEN_DESCRIPTOR = {
    "noise_1024": (noise_1024, "36e4500cb84271da7f6170ae4fdc8cfea316036b0287f25225401a5fa3f4612d"),
    "wave_1023x517": (wave_1023x517, "d4d716a6eb29ca28054acfc268d593e2a6b2db1f88b7b3be02ffdd5ca47c1231"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DESCRIPTOR))
def test_descriptor_matches_recorded_digest(name):
    make, expected = GOLDEN_DESCRIPTOR[name]
    desc = compute_descriptor(make())
    assert _sha(desc.astype("<i8").tobytes()) == expected


def labeled_store(root):
    """Three seeded 160x160 images per texture class, plus a copy of
    stripe1 under a second id so two distances tie; returns the index path
    and a fresh stripe query image."""
    rng = np.random.default_rng(109)
    index_path = str(root / "index.tsv")
    store_dir = str(root / "files")
    images = {}
    for label in sorted(TEXTURE_CLASSES):
        for j in range(3):
            img = TEXTURE_CLASSES[label](rng, 160)
            images[f"{label}{j}"] = img
            index_add(index_path, img, f"{label}{j}", sample_patient(len(images)), store_dir, label)
    index_add(index_path, images["stripe1"], "stripe1_copy", sample_patient(0), store_dir, "stripe")
    return index_path, TEXTURE_CLASSES["stripe"](rng, 160)


# (image_id, repr(distance)) of query_by_image(query, index, 10).
GOLDEN_QUERY = [
    ("stripe1", "0.6671539812290771"),
    ("stripe1_copy", "0.6671539812290771"),
    ("stripe2", "0.6763841227692873"),
    ("stripe0", "0.7246748800038174"),
    ("gradient1", "0.779966705438853"),
    ("impulse0", "0.8053018423382895"),
    ("impulse2", "0.8383206054425593"),
    ("impulse1", "0.8592412000622047"),
    ("gradient0", "0.9369947511176152"),
    ("gradient2", "1.041199786343562"),
]

# (class, k, repr(mean precision), repr(mean recall)) at cutoffs 1, 2, 5, 9.
GOLDEN_CLASS_MEAN_PR = [
    ("gradient", 1, "0.6666666666666666", "0.3333333333333333"),
    ("gradient", 2, "0.3333333333333333", "0.3333333333333333"),
    ("gradient", 5, "0.13333333333333333", "0.3333333333333333"),
    ("gradient", 9, "0.2222222222222222", "1.0"),
    ("impulse", 1, "1.0", "0.5"),
    ("impulse", 2, "1.0", "1.0"),
    ("impulse", 5, "0.4", "1.0"),
    ("impulse", 9, "0.2222222222222222", "1.0"),
    ("stripe", 1, "1.0", "0.3333333333333333"),
    ("stripe", 2, "1.0", "0.6666666666666666"),
    ("stripe", 5, "0.6", "1.0"),
    ("stripe", 9, "0.3333333333333333", "1.0"),
]


def test_retrieval_matches_recorded_values(tmp_path):
    index_path, query = labeled_store(tmp_path)
    results = query_by_image(query, index_path, 10)
    assert [(r.image_id, repr(r.distance)) for r in results] == GOLDEN_QUERY
    index = Index.load(index_path)
    descriptors = {e.image_id: read_stored(e.locator).descriptor for e in index.values()}
    labels = {e.image_id: e.class_label for e in index.values()}
    rows = class_mean_pr(descriptors, labels, [1, 2, 5, 9])
    assert [(c, k, repr(p), repr(r)) for c, k, p, r in rows] == GOLDEN_CLASS_MEAN_PR
