"""Difference-expansion watermarking: transforms, zones, map codec,
capacity accounting, and blind reversibility."""

import struct
import warnings

import numpy as np
import pytest

from lbpmarkdex import (
    DiffPair,
    GrayImage,
    ZoneClass,
    capacity,
    classify,
    embed,
    extract,
    forward_transform,
    inverse_transform,
)
from lbpmarkdex.errors import (
    ImageTooNarrow,
    MalformedStream,
    OutOfRange,
    PayloadTooLarge,
)
from lbpmarkdex.watermark import (
    _layout,
    _pair_words,
    _slots,
    extract_data,
    rle_decode_map,
    rle_encode_map,
)

from helpers import (
    banded_noise_image,
    changeable_pair_scan,
    flip_stream_bit,
    int_bits,
    max_feasible_bytes,
    parse_wire,
    reference_zone,
    smooth_noise_image,
    write_stream_bits,
)


class TestTransforms:
    def test_forward_examples(self):
        assert forward_transform(206, 201) == DiffPair(l=203, h=5)
        assert forward_transform(0, 0) == DiffPair(l=0, h=0)
        assert forward_transform(100, 103) == DiffPair(l=101, h=-3)

    def test_inverse_examples(self):
        assert inverse_transform(DiffPair(l=203, h=5)) == (206, 201)
        # negative difference: x = 101 + floor(-2/2), y = 101 - floor(-3/2)
        assert inverse_transform(DiffPair(l=101, h=-3)) == (100, 103)

    def test_forward_rejects_out_of_domain(self):
        for x, y in [(-1, 0), (0, -1), (256, 0), (0, 256)]:
            with pytest.raises(OutOfRange):
                forward_transform(x, y)

    def test_inverse_rejects_unrepresentable(self):
        with pytest.raises(OutOfRange):
            inverse_transform(DiffPair(l=255, h=1))
        with pytest.raises(OutOfRange):
            inverse_transform(DiffPair(l=0, h=-2))

    def test_exhaustive_round_trip(self):
        """inverse(forward(x, y)) == (x, y) for every 8-bit pair."""
        for x in range(256):
            for y in range(256):
                assert inverse_transform(forward_transform(x, y)) == (x, y)


class TestClassify:
    def test_expandable_example(self):
        assert classify(DiffPair(l=203, h=5)) is ZoneClass.EXPANDABLE

    def test_mid_gray_smooth_pair(self):
        assert classify(DiffPair(l=128, h=0)) is ZoneClass.EXPANDABLE

    def test_saturated_white_is_unchangeable(self):
        pair = forward_transform(255, 255)
        assert pair == DiffPair(l=255, h=0)
        assert classify(pair) is ZoneClass.UNCHANGEABLE

    def test_black_pair_is_expandable(self):
        # bound at l=0 is min(510, 1) = 1, and both |0| and |1| fit.
        assert classify(DiffPair(l=0, h=0)) is ZoneClass.EXPANDABLE

    def test_changeable_only_example(self):
        # (4, 0): l=2, h=4, bound=5. Expansion needs |8|,|9| <= 5 (no);
        # LSB writes need |4|,|5| <= 5 (yes).
        pair = forward_transform(4, 0)
        assert pair == DiffPair(l=2, h=4)
        assert classify(pair) is ZoneClass.CHANGEABLE_ONLY

    def test_matches_reference_over_all_pairs(self):
        for x in range(256):
            for y in range(256):
                pair = forward_transform(x, y)
                assert classify(pair).value == reference_zone(pair.l, pair.h)

    @pytest.mark.parametrize(
        "pair",
        [
            DiffPair(l=40000, h=0),
            DiffPair(l=100, h=20000),
            DiffPair(l=100, h=-20000),
            DiffPair(l=2**70, h=0),
            DiffPair(l=2**62, h=1),
        ],
        ids=["l=40000", "h=20000", "h=-20000", "l=2**70", "l=2**62"],
    )
    def test_pairs_no_image_holds_are_unchangeable(self, pair):
        """Values beyond any pixel pair, even beyond int64, neither
        overflow, warn, nor wrap."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify(pair) is ZoneClass.UNCHANGEABLE

    def test_inverse_of_a_pair_beyond_int64_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            inverse_transform(DiffPair(l=2**70, h=0))

    def test_expandable_implies_changeable(self):
        """The expansion test is strictly stronger than the LSB-write test."""
        for x in range(256):
            for y in range(256):
                pair = forward_transform(x, y)
                if classify(pair) is ZoneClass.EXPANDABLE:
                    bound = min(2 * (255 - pair.l), 2 * pair.l + 1)
                    base = 2 * (pair.h // 2)
                    assert abs(base) <= bound and abs(base + 1) <= bound


def _all_pairs_image() -> GrayImage:
    """256 x 512 image whose row x holds the pairs (x, 0), (x, 1), ..., (x, 255)."""
    x, y = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    return GrayImage(np.stack([x, y], axis=-1).reshape(256, 512))


def _reference_zones() -> np.ndarray:
    """reference_zone of the pair (x, y) at [x, y], for every pair."""
    return np.array(
        [[reference_zone((x + y) // 2, x - y) for y in range(256)] for x in range(256)]
    )


class TestPairKernel:
    """The pixel-form array code that embed, extract and capacity share,
    checked exhaustively against the scalar definitions. A pair (x, y)
    carrying bit b is written (l + h + b, l - h) when expanded and
    (x - d + b, y), d = (x ^ y) & 1, otherwise."""

    def test_layout_matches_the_reference_zones_on_all_pairs(self):
        """_layout's slots are the changeable pairs, its location map the
        expandable ones, and its saved LSBs the bits of the rest."""
        zones = _reference_zones()
        _, _, blocked, bits, head, slots = _layout(_all_pairs_image())
        assert np.array_equal(~blocked, zones != "unchangeable")
        assert slots == np.count_nonzero(zones != "unchangeable")
        assert head[0] == 1
        map_len = int(np.packbits(head[1:33]).view(">u4")[0])
        body = np.packbits(head[33 : 33 + map_len]).tobytes()
        expandable = rle_decode_map(body, 65536).reshape(256, 256)
        assert np.array_equal(expandable, zones == "expandable")
        assert np.array_equal(head[33 + map_len :], bits[zones == "changeable_only"])

    def test_embed_writes_every_pair_by_the_scalar_rule(self):
        """Each marked pair is inverse_transform of its zone's scalar write
        with the stream bit it carries; unchangeable pairs stay as they
        were, and extract restores the image."""
        img = _all_pairs_image()
        assert capacity(img) == 24431
        data = b"\x00\xffpixels"
        marked = embed(img, data)
        wire = parse_wire(marked.pixels)
        carried = dict(zip(wire["positions"], wire["bits"]))
        zones = _reference_zones()
        assert wire["flag"] == 1 and len(carried) == np.count_nonzero(zones != "unchangeable")
        assert wire["expanded"] == set(zip(*np.nonzero(zones == "expandable")))
        region = wire["bits"][wire["data_start"] :]
        assert region[: 8 * len(data)] == np.unpackbits(np.frombuffer(data, np.uint8)).tolist()
        assert not any(region[8 * len(data) :])
        for x in range(256):
            for y in range(256):
                l, h = forward_transform(x, y)
                zone = zones[x, y]
                if zone == "unchangeable":
                    expected = (x, y)
                else:
                    b = carried[(x, y)]
                    written = 2 * h + b if zone == "expandable" else (h & -2) + b
                    expected = inverse_transform(DiffPair(l, written))
                assert tuple(marked.pixels[x, 2 * y : 2 * y + 2]) == expected, (x, y)
        out, restored = extract(marked)
        assert out[: len(data)] == data and restored == img

    def test_pixel_form_slots_match_the_transform_on_all_pairs(self):
        """_slots reads a pair's slot and bit from its pixels; they are the
        changeable zone and h & 1 of the pair's (l, h), on every pair."""
        img = _all_pairs_image()
        blocked, bits = _slots(_pair_words(img))
        assert blocked.shape == bits.shape == (256, 256)
        assert blocked.dtype == bool and bits.dtype == np.uint8
        assert np.array_equal(~blocked, _reference_zones() != "unchangeable")
        x, y = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        assert np.array_equal(bits, (x - y) & 1)
        # the rule in pixel terms: y odd and x either 0 or 255
        assert np.array_equal(blocked, (y % 2 == 1) & ((x == 0) | (x == 255)))

    @pytest.mark.parametrize("width, height", [(2, 200), (3, 200), (255, 8)])
    def test_narrow_and_odd_widths_round_trip(self, width, height):
        rng = np.random.default_rng(width)
        img = smooth_noise_image(rng, width, height)
        assert _pair_words(img).shape == (height, width // 2)
        data = rng.integers(0, 256, size=capacity(img) // 8, dtype=np.uint8).tobytes()
        assert data
        marked = embed(img, data)
        out, restored = extract(marked)
        assert out[: len(data)] == data and extract_data(marked) == out
        assert restored == img
        if width % 2:
            assert np.array_equal(marked.pixels[:, -1], img.pixels[:, -1])
        # pixels held in column-major order read the same pairs
        column_major = GrayImage(np.asfortranarray(img.pixels.astype(np.int64)))
        assert not column_major.pixels.flags.c_contiguous
        assert embed(column_major, data) == marked

    def test_width_one_has_no_pairs(self):
        img = GrayImage(np.full((40, 1), 128))
        assert _pair_words(img).shape == (40, 0)
        assert capacity(img) == 0
        with pytest.raises(ImageTooNarrow):
            embed(img, b"")
        with pytest.raises(MalformedStream):
            extract_data(img)


class TestLocationMapRle:
    def test_empty_map(self):
        assert rle_encode_map(np.zeros(0, dtype=np.uint8)) == b""
        assert list(rle_decode_map(b"", 0)) == []

    def test_all_zeros_single_run(self):
        body = rle_encode_map(np.zeros(500, dtype=np.uint8))
        assert body == struct.pack(">H", 500)

    def test_all_ones_leading_empty_zero_run(self):
        body = rle_encode_map(np.ones(128, dtype=np.uint8))
        assert body == struct.pack(">HH", 0, 128)
        bits = np.array([1, 1, 0, 1], dtype=np.uint8)
        body = rle_encode_map(bits)
        assert body == struct.pack(">4H", 0, 2, 1, 1)
        assert np.array_equal(rle_decode_map(body, 4), bits)

    def test_alternating_runs(self):
        bits = np.array([0, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
        body = rle_encode_map(bits)
        assert body == struct.pack(">4H", 2, 3, 1, 1)
        assert np.array_equal(rle_decode_map(body, 7), bits)
        # Any word sequence, with empty and 65535 runs and more than 256
        # runs, decodes to alternating runs starting with zeros.
        rng = np.random.default_rng(68)
        for n_runs in (1, 255, 256, 257, 700):
            runs = rng.integers(0, 40, size=n_runs)
            runs[rng.random(n_runs) < 0.05] = 0
            runs[rng.integers(0, n_runs)] = 0xFFFF
            expected = []
            for i, run in enumerate(runs.tolist()):
                expected += [i % 2] * run
            body = struct.pack(f">{n_runs}H", *runs.tolist())
            assert rle_decode_map(body, len(expected)).tolist() == expected

    def test_round_trip_random(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            n = int(rng.integers(1, 4000))
            # biased toward long runs, the realistic map shape
            bits = (rng.random(n) < 0.03).astype(np.uint8)
            if rng.random() < 0.5:
                bits = 1 - bits
            assert np.array_equal(rle_decode_map(rle_encode_map(bits), n), bits)
        # more than 256 runs, none longer than 8
        lengths = rng.integers(1, 9, size=600)
        bits = np.repeat(np.arange(600) % 2, lengths).astype(np.uint8)
        body = rle_encode_map(bits)
        assert struct.unpack(f">{len(body) // 2}H", body) == tuple(lengths.tolist())
        assert np.array_equal(rle_decode_map(body, bits.size), bits)

    def test_long_run_split(self):
        """A run beyond 65535 is split with a zero-length opposite run so a
        plain alternating decoder still works."""
        n = 70000
        bits = np.zeros(n, dtype=np.uint8)
        bits[-1] = 1
        body = rle_encode_map(bits)
        words = struct.unpack(f">{len(body) // 2}H", body)
        assert words == (0xFFFF, 0, n - 1 - 0xFFFF, 1)
        assert np.array_equal(rle_decode_map(body, n), bits)
        # (zeros, ones) run lengths at and around the split points
        cases = {
            (0xFFFF, 1): (0xFFFF, 1),
            (0x10000, 1): (0xFFFF, 0, 1, 1),
            (131070, 1): (0xFFFF, 0, 0xFFFF, 1),
            (131071, 1): (0xFFFF, 0, 0xFFFF, 0, 1, 1),
            (0, 131070): (0, 0xFFFF, 0, 0xFFFF),
            (3, 0x10000): (3, 0xFFFF, 0, 1),
        }
        for (zeros, ones), expected in cases.items():
            bits = np.concatenate([np.zeros(zeros, np.uint8), np.ones(ones, np.uint8)])
            body = rle_encode_map(bits)
            assert struct.unpack(f">{len(body) // 2}H", body) == expected
            assert np.array_equal(rle_decode_map(body, bits.size), bits)

    def test_decode_rejects_odd_byte_count(self):
        with pytest.raises(MalformedStream):
            rle_decode_map(b"\x01", 1)

    def test_decode_rejects_overrun(self):
        with pytest.raises(MalformedStream):
            rle_decode_map(struct.pack(">H", 9), 8)

    def test_decode_rejects_short_coverage(self):
        with pytest.raises(MalformedStream):
            rle_decode_map(struct.pack(">H", 7), 8)


class TestCapacity:
    def test_all_white_has_no_capacity(self):
        assert capacity(GrayImage(np.full((16, 16), 255))) == 0

    def test_constant_midgray_formula(self):
        # All 128 pairs expandable; the all-ones map encodes as two RLE
        # words (32 bits), so net = 128 - (33 + 32) = 63 bits.
        assert capacity(GrayImage(np.full((16, 16), 128))) == 63

    def test_single_column_image(self):
        assert capacity(GrayImage(np.full((5, 1), 100))) == 0

    def test_matches_bisection_oracle_on_random_images(self):
        rng = np.random.default_rng(56)
        for i in range(8):
            if i % 2 == 0:
                img = smooth_noise_image(rng, int(rng.integers(12, 49)), int(rng.integers(12, 49)))
            else:
                img = banded_noise_image(rng, int(rng.integers(48, 80)), int(rng.integers(12, 40)))
            best = max_feasible_bytes(img)
            assert best is not None
            assert best == capacity(img) // 8

    def test_overhead_can_exceed_slots(self):
        """Scattered expandable pairs make the best map encoding bigger
        than the writable-slot count. capacity() clamps to 0, and embed
        refuses even an empty payload: clamping hides the deficit, the
        embedder does not."""
        rng = np.random.default_rng(57)
        choices = np.array([0, 255])
        pixels = np.repeat(choices[rng.integers(0, 2, size=(32, 16))], 2, axis=1)
        img = GrayImage(pixels)
        assert capacity(img) == 0
        assert max_feasible_bytes(img) is None
        with pytest.raises(PayloadTooLarge):
            embed(img, b"")


class TestEmbed:
    def test_expansion_arithmetic_example(self):
        # carrying bit 1 on (206, 201): h 5 -> 11, pixels (209, 198)
        pair = forward_transform(206, 201)
        expanded = DiffPair(pair.l, 2 * pair.h + 1)
        assert expanded.h == 11
        assert inverse_transform(expanded) == (209, 198)

    def test_width_one_rejected(self):
        with pytest.raises(ImageTooNarrow):
            embed(GrayImage(np.full((5, 1), 100)), b"")

    def test_payload_one_byte_over_capacity_rejected(self):
        rng = np.random.default_rng(58)
        img = smooth_noise_image(rng, 32, 32)
        cap = capacity(img)
        embed(img, bytes(cap // 8))
        with pytest.raises(PayloadTooLarge):
            embed(img, bytes(cap // 8 + 1))

    def test_empty_payload_round_trips(self):
        rng = np.random.default_rng(59)
        img = smooth_noise_image(rng, 20, 14)
        data, restored = extract(embed(img, b""))
        assert restored == img
        assert data == bytes(len(data))

    def test_odd_width_last_column_untouched(self):
        rng = np.random.default_rng(60)
        img = smooth_noise_image(rng, 33, 21)
        marked = embed(img, bytes(capacity(img) // 8))
        assert np.array_equal(marked.pixels[:, -1], img.pixels[:, -1])
        assert not np.array_equal(marked.pixels, img.pixels)

    def test_unchangeable_pairs_untouched(self):
        rng = np.random.default_rng(61)
        img = banded_noise_image(rng, 64, 32)
        marked = embed(img, bytes(capacity(img) // 8))
        white = img.pixels == 255
        # saturated pairs cannot move; every changed pixel sits outside them
        assert np.array_equal(marked.pixels[white], img.pixels[white])

    def test_output_stays_in_range_and_deterministic(self):
        rng = np.random.default_rng(62)
        img = smooth_noise_image(rng, 46, 30)
        data = rng.integers(0, 256, size=capacity(img) // 8, dtype=np.uint8).tobytes()
        a = embed(img, data)
        b = embed(img, data)
        assert a == b
        assert a.pixels.dtype == np.uint8

    def test_wire_layout_matches_independent_reader(self):
        """Cross-check the on-pixels stream with the loop-based reader in
        helpers: flag, map, and data bits land where the format says."""
        rng = np.random.default_rng(63)
        img = banded_noise_image(rng, 60, 40)
        data = rng.integers(0, 256, size=capacity(img) // 8, dtype=np.uint8).tobytes()
        marked = embed(img, data)
        wire = parse_wire(marked.pixels)
        assert wire["flag"] == 1  # embed writes only the RLE map
        # the decoded map must match zone classification of the original
        for row in range(img.height):
            for j in range(img.width // 2):
                x = int(img.pixels[row, 2 * j])
                y = int(img.pixels[row, 2 * j + 1])
                pair = forward_transform(x, y)
                expected = classify(pair) is ZoneClass.EXPANDABLE
                assert ((row, j) in wire["expanded"]) == expected
        data_bits = wire["bits"][wire["data_start"] : wire["data_start"] + 8 * len(data)]
        recovered = bytes(
            int("".join(map(str, data_bits[i : i + 8])), 2)
            for i in range(0, len(data_bits), 8)
        )
        assert recovered == data


class TestExtract:
    def test_round_trip_random_images(self):
        rng = np.random.default_rng(64)
        for _ in range(15):
            w = int(rng.integers(12, 70))
            h = int(rng.integers(12, 70))
            img = (banded_noise_image if rng.random() < 0.4 else smooth_noise_image)(
                rng, w, h
            )
            n = capacity(img) // 8
            data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            out, restored = extract(embed(img, data))
            assert out[:n] == data
            assert restored == img

    def test_marked_and_restored_images_are_read_only_copies(self):
        img = smooth_noise_image(np.random.default_rng(65), 21, 12)
        marked = embed(img, b"\x5a")
        _, restored = extract(marked)
        for out, source in ((marked, img), (restored, marked)):
            assert not out.pixels.flags.writeable
            assert not np.shares_memory(out.pixels, source.pixels)

    def test_negative_differences_round_trip(self):
        """Pairs with y > x exercise the floor-toward-minus-infinity path
        on both embed and restore."""
        pixels = np.tile(np.array([[100, 103]]), (16, 12))
        img = GrayImage(pixels)
        data = b"\xa5\x3c"
        out, restored = extract(embed(img, data))
        assert out[:2] == data
        assert restored == img

    def test_extraction_is_blind(self):
        """Only the watermarked image is needed: nothing from the original
        crosses over except through the pixels themselves."""
        rng = np.random.default_rng(65)
        img = smooth_noise_image(rng, 40, 40)
        data = b"blind extraction check"
        marked = embed(img, data)
        # round-trip through file bytes to prove no hidden state
        from lbpmarkdex import read_pgm, write_pgm

        out, restored = extract(read_pgm(write_pgm(marked)))
        assert out[: len(data)] == data
        assert restored == img

    def test_zero_border_scan_reads_past_blocked_pairs(self):
        """A scan with a black border, as medical images have: a pair of a
        border pixel x = 0 and an odd y holds no stream bit, so the reader
        must skip it. Both readers and the independent wire reader agree."""
        rng = np.random.default_rng(72)
        pixels = smooth_noise_image(rng, 161, 40).pixels.copy()
        pixels[:3, :] = 0
        pixels[-2:, :] = 0
        pixels[:, :1] = 0  # one column, so the pairs (0, y) have interior y
        img = GrayImage(pixels)
        data = rng.integers(0, 256, size=capacity(img) // 8, dtype=np.uint8).tobytes()
        marked = embed(img, data)
        first = marked.pixels[:, :2].astype(int)
        assert np.any((first[:, 0] == 0) & (first[:, 1] % 2 == 1))
        read = extract_data(marked)
        out, restored = extract(marked)
        assert read == out and read[: len(data)] == data
        assert restored == img
        wire = parse_wire(marked.pixels)
        region = wire["bits"][wire["data_start"] :]
        assert read == np.packbits(np.array(region[: 8 * (len(region) // 8)], dtype=np.uint8)).tobytes()

    def test_no_slots_rejected(self):
        with pytest.raises(MalformedStream):
            extract(GrayImage(np.full((4, 4), 255)))

    def test_corrupt_length_field_rejected(self):
        rng = np.random.default_rng(66)
        img = smooth_noise_image(rng, 24, 24)
        marked = embed(img, b"xyz")
        # stream bit 1 is the most significant bit of the 32-bit map length
        tampered = flip_stream_bit(marked, 1)
        with pytest.raises(MalformedStream):
            extract(tampered)

    def test_corrupt_flag_bit_rejected(self):
        # flag flips to raw, whose length cannot match the RLE body length
        rng = np.random.default_rng(67)
        img = smooth_noise_image(rng, 24, 24)
        marked = embed(img, b"xyz")
        tampered = flip_stream_bit(marked, 0)
        with pytest.raises(MalformedStream):
            extract(tampered)


class TestStreamRejections:
    """Stream heads that only a damaged or forged file carries, written into
    the changeable pairs of a real marked image. The data-only read and the
    restoring read refuse each one with the same message."""

    @staticmethod
    def _assert_rejected(img, message):
        for read in (extract, extract_data):
            with pytest.raises(MalformedStream) as info:
                read(img)
            assert str(info.value) == message

    @pytest.mark.parametrize("value, slots", [(100, 8), (255, 0)], ids=["8-slots", "all-blocked"])
    def test_too_few_slots_for_the_header(self, value, slots):
        # A 4 x 4 image has 8 pairs; a pair of 255s holds no stream bit.
        self._assert_rejected(
            GrayImage(np.full((4, 4), value)), f"{slots} writable slots cannot hold a 33-bit stream header"
        )

    def test_map_length_past_the_stream(self):
        marked = embed(smooth_noise_image(np.random.default_rng(72), 24, 24), b"xyz")
        tampered = write_stream_bits(marked, 1, int_bits(0xFFFFFFFF, 32))
        slots = len(changeable_pair_scan(tampered.pixels)[0])
        self._assert_rejected(tampered, f"declared map body of 4294967295 bits exceeds the {slots}-slot stream")

    def test_map_length_not_word_aligned(self):
        marked = embed(smooth_noise_image(np.random.default_rng(69), 24, 24), b"xyz")
        tampered = write_stream_bits(marked, 1, int_bits(17, 32))
        self._assert_rejected(tampered, "RLE map body of 17 bits is not word-aligned")

    def test_map_marks_a_pair_without_a_stream_bit(self):
        pixels = smooth_noise_image(np.random.default_rng(70), 24, 24).pixels.copy()
        pixels[0, :2] = 255  # one saturated, unchangeable pair
        marked = embed(GrayImage(pixels), b"xyz")
        n_pairs = 12 * 24
        all_expanded = [1] + int_bits(32, 32) + int_bits(0, 16) + int_bits(n_pairs, 16)
        tampered = write_stream_bits(marked, 0, all_expanded)
        self._assert_rejected(tampered, "location map marks a pair that holds no stream bit")

    def test_stream_too_short_for_saved_lsbs(self):
        marked = embed(smooth_noise_image(np.random.default_rng(71), 24, 24), b"xyz")
        n_pairs = 12 * 24
        # An all-zero map makes every writable pair changeable-only, so the
        # saved LSBs alone need as many bits as the stream has slots.
        none_expanded = [1] + int_bits(16, 32) + int_bits(n_pairs, 16)
        tampered = write_stream_bits(marked, 0, none_expanded)
        slots = len(changeable_pair_scan(tampered.pixels)[0])
        self._assert_rejected(
            tampered, f"stream too short for {slots} saved LSBs after the location map"
        )


class TestChangeabilityInvariance:
    def test_legal_writes_preserve_changeability(self):
        """For a sampled grid of pairs and both bit values, the pair stays
        changeable after its legal write, and the written bit plus the
        original value are recoverable (the blind-extraction contract)."""
        for x in range(0, 256, 5):
            for y in range(0, 256, 5):
                pair = forward_transform(x, y)
                zone = classify(pair)
                if zone is ZoneClass.UNCHANGEABLE:
                    continue
                for b in (0, 1):
                    if zone is ZoneClass.EXPANDABLE:
                        written = DiffPair(pair.l, 2 * pair.h + b)
                        assert written.h // 2 == pair.h
                    else:
                        written = DiffPair(pair.l, 2 * (pair.h // 2) + b)
                        assert 2 * (written.h // 2) + pair.h % 2 == pair.h
                    assert written.h % 2 == b
                    assert classify(written) is not ZoneClass.UNCHANGEABLE
                    inverse_transform(written)  # must stay representable
