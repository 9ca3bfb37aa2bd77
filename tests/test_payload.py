"""Payload wire format: framing, checksums, field validation."""

import struct
import zlib

import numpy as np
import pytest

from lbpmarkdex import PatientRecord, Payload, decode_payload, encode_payload
from lbpmarkdex.errors import (
    BadMagic,
    ChecksumMismatch,
    FieldTooLong,
    LengthMismatch,
    MalformedStream,
    OutOfRange,
    TruncatedData,
    UnsupportedVersion,
)

from helpers import non_utf8_payload


def sample_payload():
    record = PatientRecord(
        patient_id="P-0017",
        name="Doe, Jane",
        birth_year=1970,
        birth_month=2,
        birth_day=3,
        diagnostic="benign mass, follow-up in 12 months",
    )
    descriptor = list(range(256))
    return Payload(descriptor=descriptor, locator="store/img0017.pgm", record=record)


class TestPatientRecord:
    def test_year_range(self):
        PatientRecord(patient_id="x", birth_year=0)
        PatientRecord(patient_id="x", birth_year=65535)
        with pytest.raises(OutOfRange):
            PatientRecord(patient_id="x", birth_year=-1)
        with pytest.raises(OutOfRange):
            PatientRecord(patient_id="x", birth_year=65536)

    def test_month_and_day_ranges(self):
        with pytest.raises(OutOfRange):
            PatientRecord(patient_id="x", birth_month=0)
        with pytest.raises(OutOfRange):
            PatientRecord(patient_id="x", birth_month=13)
        with pytest.raises(OutOfRange):
            PatientRecord(patient_id="x", birth_day=0)
        with pytest.raises(OutOfRange):
            PatientRecord(patient_id="x", birth_day=32)

    def test_day_31_allowed_in_any_month(self):
        # Archival records keep whatever the source wrote; the format only
        # bounds the fields, it does not validate the calendar.
        PatientRecord(patient_id="x", birth_month=2, birth_day=31)

    def test_text_length_limits(self):
        PatientRecord(patient_id="a" * 65535)
        with pytest.raises(FieldTooLong):
            PatientRecord(patient_id="a" * 65536)
        with pytest.raises(FieldTooLong):
            PatientRecord(patient_id="x", diagnostic="b" * 65536)

    def test_utf8_length_is_byte_length(self):
        # 21846 three-byte characters exceed the 65535-byte cap.
        with pytest.raises(FieldTooLong):
            PatientRecord(patient_id="€" * 21846)


    def test_default_birthday_round_trips(self):
        record = PatientRecord("P1")
        assert (record.birth_year, record.birth_month, record.birth_day) == (0, 1, 1)
        payload = Payload(descriptor=[1] * 256, locator="s/a.pgm", record=record)
        assert decode_payload(encode_payload(payload)).record == record


class TestPayloadValidation:
    def test_descriptor_length_checked(self):
        with pytest.raises(ValueError):
            Payload(descriptor=[0] * 255, locator="", record=PatientRecord("p"))

    def test_descriptor_bin_range_checked(self):
        with pytest.raises(OutOfRange):
            Payload(descriptor=[-1] + [0] * 255, locator="", record=PatientRecord("p"))
        with pytest.raises(OutOfRange):
            Payload(
                descriptor=[2 ** 32] + [0] * 255, locator="", record=PatientRecord("p")
            )

    def test_accepts_numpy_descriptor(self):
        payload = Payload(
            descriptor=np.arange(256), locator="a", record=PatientRecord("p")
        )
        assert payload.descriptor[255] == 255


class TestDescriptorContract:
    """Payload.descriptor is the read-only int64 vector compute_descriptor
    returns: integer bins in [0, 2**32 - 1], and payloads that compare
    equal hash equal."""

    def test_descriptor_is_read_only_int64(self):
        payload = sample_payload()
        assert payload.descriptor.dtype == np.int64
        assert payload.descriptor.shape == (256,)
        with pytest.raises(ValueError):
            payload.descriptor[0] = 5

    def test_caller_array_is_copied(self):
        source = np.arange(256, dtype=np.int64)
        payload = Payload(descriptor=source, locator="a", record=PatientRecord("p"))
        source[0] = 99
        assert payload.descriptor[0] == 0

    def test_hash_agrees_with_equality(self):
        base = sample_payload()
        same = Payload(np.arange(256, dtype=np.uint32), base.locator, base.record)
        assert same == base and hash(same) == hash(base)
        bumped = np.arange(256)
        bumped[255] += 1
        other = Payload(bumped, base.locator, base.record)
        assert other != base
        assert len({base, same, other}) == 2

    def test_bool_bins_accepted(self):
        payload = Payload(descriptor=[True] * 256, locator="", record=PatientRecord("p"))
        assert payload.descriptor.tolist() == [1] * 256

    @pytest.mark.parametrize("value", [-1, 2**32, 2**63, 2**64, -(2**70)])
    def test_bin_outside_u32_is_out_of_range(self, value):
        with pytest.raises(OutOfRange):
            Payload(descriptor=[0] * 255 + [value], locator="", record=PatientRecord("p"))

    @pytest.mark.parametrize(
        "descriptor",
        [
            [0] * 255,
            np.zeros((1, 256), dtype=np.int64),
            [[0] * 256],
            [1.5] * 256,
            [0.0] * 256,
            [float("nan")] + [0] * 255,
            ["1"] * 256,
            ["1"] + [0] * 255,
        ],
        ids=["255-bins", "2-D-array", "2-D-list", "floats", "integral-floats", "nan", "strings", "one-string"],
    )
    def test_non_integer_or_misshapen_descriptor_is_value_error(self, descriptor):
        with pytest.raises(ValueError):
            Payload(descriptor=descriptor, locator="", record=PatientRecord("p"))


class TestEncoding:
    def test_minimal_payload_is_1052_bytes(self):
        # 16 header + 1024 descriptor + 4 empty texts at 2 length bytes
        # each + 4 birthday bytes = 1052.
        payload = Payload(
            descriptor=[0] * 256, locator="", record=PatientRecord(patient_id="")
        )
        blob = encode_payload(payload)
        assert len(blob) == 1052

    def test_header_layout(self):
        blob = encode_payload(sample_payload())
        assert blob[:4] == b"LBPW"
        assert blob[4] == 1  # version
        assert blob[5] == 0  # flags
        body_len = struct.unpack(">I", blob[6:10])[0]
        assert body_len == len(blob) - 16
        crc = struct.unpack(">I", blob[10:14])[0]
        assert crc == zlib.crc32(blob[16:])
        assert blob[14:16] == b"\x00\x00"

    def test_descriptor_is_big_endian_u32(self):
        blob = encode_payload(sample_payload())
        bins = struct.unpack(">256I", blob[16 : 16 + 1024])
        assert bins == tuple(range(256))

    def test_round_trip(self):
        payload = sample_payload()
        assert decode_payload(encode_payload(payload)) == payload

    def test_round_trip_unicode_fields(self):
        record = PatientRecord(
            patient_id="РЕГ-42",
            name="Ангélique Müller",
            birth_year=2004,
            birth_month=12,
            birth_day=31,
            diagnostic="наблюдение / surveillance",
        )
        payload = Payload(descriptor=[7] * 256, locator="магазин/x.pgm", record=record)
        assert decode_payload(encode_payload(payload)) == payload

    def test_round_trip_extreme_descriptor(self):
        payload = Payload(
            descriptor=[0xFFFFFFFF] * 256, locator="x", record=PatientRecord("p")
        )
        assert decode_payload(encode_payload(payload)).descriptor[0] == 0xFFFFFFFF


class TestDecoding:
    def test_trailing_bytes_tolerated(self):
        """The extractor returns the data region padding included, so the
        parser must stop at the declared body length."""
        payload = sample_payload()
        blob = encode_payload(payload) + b"\x00" * 131
        assert decode_payload(blob) == payload

    def test_short_header(self):
        with pytest.raises(TruncatedData):
            decode_payload(b"LBPW\x01")

    def test_bad_magic(self):
        blob = bytearray(encode_payload(sample_payload()))
        blob[0] ^= 0xFF
        with pytest.raises(BadMagic):
            decode_payload(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(encode_payload(sample_payload()))
        blob[4] = 2
        with pytest.raises(UnsupportedVersion):
            decode_payload(bytes(blob))

    def test_declared_body_longer_than_data(self):
        blob = bytearray(encode_payload(sample_payload()))
        blob[6:10] = struct.pack(">I", len(blob))  # longer than what follows
        with pytest.raises(LengthMismatch):
            decode_payload(bytes(blob))

    def test_single_byte_corruption_in_body_is_caught(self):
        base = encode_payload(sample_payload())
        rng = np.random.default_rng(71)
        for _ in range(40):
            blob = bytearray(base)
            pos = int(rng.integers(16, len(blob)))
            blob[pos] ^= int(rng.integers(1, 256))
            with pytest.raises(ChecksumMismatch):
                decode_payload(bytes(blob))

    def test_bare_header_is_length_mismatch(self):
        """A 16-byte header declaring an empty body (whose CRC is 0) passes
        the checksum and ends at the descriptor."""
        header = struct.pack(">4sBBIIH", b"LBPW", 1, 0, 0, 0, 0)
        with pytest.raises(LengthMismatch, match=r"while reading descriptor \(1024 > 0 bytes\)$"):
            decode_payload(header)

    def test_inner_field_overrun_is_caught(self):
        """A text length pointing past the body must fail even when the
        checksum is recomputed to match."""
        blob = bytearray(encode_payload(sample_payload()))
        # locator length field sits right after the 1024 descriptor bytes
        blob[16 + 1024 : 16 + 1026] = struct.pack(">H", 60000)
        body = bytes(blob[16:])
        blob[10:14] = struct.pack(">I", zlib.crc32(body))
        with pytest.raises(LengthMismatch):
            decode_payload(bytes(blob))

    def test_non_utf8_text_is_malformed(self):
        """A CRC-valid body whose text is not UTF-8 is a domain error."""
        with pytest.raises(MalformedStream) as exc:
            decode_payload(non_utf8_payload())
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)

    def test_nonzero_flags_or_reserved_rejected(self):
        # Flags (byte 5) and reserved (14, 15) lie outside the body
        # checksum; version 1 writes zeros and defines no other value.
        base = encode_payload(sample_payload())
        for offset in (5, 14, 15):
            assert base[offset] == 0
            blob = bytearray(base)
            blob[offset] = 0x80
            with pytest.raises(UnsupportedVersion, match="must be zero"):
                decode_payload(bytes(blob))
