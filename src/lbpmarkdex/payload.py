"""Payload records carried inside watermarked images, and their wire format.

A payload bundles the texture descriptor of the original image, a locator
string naming where the clean copy lives, and the patient record the image
belongs to. Serialized form, all integers big-endian:

    header, 16 bytes:
        magic   b"LBPW"          4 bytes
        version 0x01             1 byte
        flags   0x00             1 byte, must be zero
        body_len                 u32
        body_crc32 (zlib.crc32)  u32
        reserved 0x0000          2 bytes, must be zero
    body:
        descriptor               256 x u32
        locator                  u16 length + UTF-8 bytes
        patient_id               u16 length + UTF-8 bytes
        name                     u16 length + UTF-8 bytes
        birth_year               u16
        birth_month              u8
        birth_day                u8
        diagnostic               u16 length + UTF-8 bytes

Decoding tolerates trailing bytes after the declared body, because the
extraction side of the watermark hands back its whole data region padding
included; the header length and checksum delimit the real content.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .descriptor import BINS
from .errors import (
    BadMagic,
    ChecksumMismatch,
    FieldTooLong,
    LengthMismatch,
    MalformedStream,
    OutOfRange,
    TruncatedData,
    UnsupportedVersion,
)

MAGIC = b"LBPW"
VERSION = 1
HEADER_LEN = 16
_MAX_TEXT = 0xFFFF
_MAX_BIN = 0xFFFFFFFF

_HEADER_STRUCT = struct.Struct(">4sBBIIH")


def _check_text(value: str, name: str) -> bytes:
    encoded = value.encode("utf-8")
    if len(encoded) > _MAX_TEXT:
        raise FieldTooLong(f"{name} is {len(encoded)} UTF-8 bytes, limit is {_MAX_TEXT}")
    return encoded


@dataclass(frozen=True)
class PatientRecord:
    """Identity and clinical context attached to an image.

    Birthday fields are plain integers so that partially known or archival
    dates (day recorded as 31 in a 30-day month, year 0 for unknown) stay
    representable; ranges are validated, calendar plausibility is not.
    """

    patient_id: str
    name: str = ""
    birth_year: int = 0
    birth_month: int = 1
    birth_day: int = 1
    diagnostic: str = ""

    def __post_init__(self) -> None:
        _check_text(self.patient_id, "patient_id")
        _check_text(self.name, "name")
        _check_text(self.diagnostic, "diagnostic")
        if not 0 <= self.birth_year <= 0xFFFF:
            raise OutOfRange(f"birth_year {self.birth_year} outside [0, 65535]")
        if not 1 <= self.birth_month <= 12:
            raise OutOfRange(f"birth_month {self.birth_month} outside [1, 12]")
        if not 1 <= self.birth_day <= 31:
            raise OutOfRange(f"birth_day {self.birth_day} outside [1, 31]")


@dataclass(frozen=True)
class Payload:
    """Everything a watermarked image carries about its original; the
    descriptor is a read-only int64 array of 256 bins in [0, 2**32 - 1]."""

    # descriptor: the same vector compute_descriptor returns, held as a
    # read-only int64 array. Any integer or bool sequence of 256 bins is
    # accepted and copied; floats and strings are not.
    descriptor: np.ndarray = field(compare=False)
    locator: str
    record: PatientRecord
    # The descriptor's wire bytes: what == and hash() compare, since an
    # array can do neither, and what encode_payload writes.
    _wire: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        desc = np.asarray(self.descriptor)
        if desc.dtype.kind not in "iub":  # Python ints past 2**63 give float64 or object
            desc = np.asarray(self.descriptor, dtype=object)
            if not all(isinstance(v, int) for v in desc.flat):
                raise ValueError("descriptor bins must be integers")
        if desc.shape != (BINS,):
            raise ValueError(f"descriptor must have shape ({BINS},), got {desc.shape}")
        if desc.min() < 0 or desc.max() > _MAX_BIN:
            raise OutOfRange(f"descriptor bins run from {desc.min()} to {desc.max()}, outside [0, {_MAX_BIN}]")
        desc = desc.astype(np.int64)
        desc.flags.writeable = False
        object.__setattr__(self, "descriptor", desc)
        object.__setattr__(self, "_wire", desc.astype(">u4").tobytes())
        _check_text(self.locator, "locator")


def _pack_text(value: str, name: str) -> bytes:
    encoded = _check_text(value, name)
    return struct.pack(">H", len(encoded)) + encoded


def encode_payload(payload: Payload) -> bytes:
    """Serialize a payload to its wire bytes."""
    rec = payload.record
    parts = [
        payload._wire,
        _pack_text(payload.locator, "locator"),
        _pack_text(rec.patient_id, "patient_id"),
        _pack_text(rec.name, "name"),
        struct.pack(">HBB", rec.birth_year, rec.birth_month, rec.birth_day),
        _pack_text(rec.diagnostic, "diagnostic"),
    ]
    body = b"".join(parts)
    header = _HEADER_STRUCT.pack(MAGIC, VERSION, 0, len(body), zlib.crc32(body), 0)
    return header + body


class _BodyReader:
    def __init__(self, body: bytes) -> None:
        self.body = body
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.body):
            raise LengthMismatch(
                f"payload body ended while reading {what} "
                f"({self.pos + count} > {len(self.body)} bytes)"
            )
        chunk = self.body[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def take_text(self, name: str) -> str:
        (length,) = struct.unpack(">H", self.take(2, f"{name} length"))
        try:
            return self.take(length, name).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedStream(f"payload {name} is not valid UTF-8: {exc}") from exc


def decode_payload(data: bytes) -> Payload:
    """Parse wire bytes back into a Payload.

    Raises TruncatedData (short header), BadMagic, UnsupportedVersion (a
    version other than 1, or a nonzero flags or reserved byte),
    LengthMismatch (declared body longer than the data, or inner fields
    overrunning the declared body), ChecksumMismatch and MalformedStream (a
    text field that is not UTF-8). Bytes after the declared body are ignored.
    """
    if len(data) < HEADER_LEN:
        raise TruncatedData(f"payload header needs {HEADER_LEN} bytes, got {len(data)}")
    magic, version, flags, body_len, crc, reserved = _HEADER_STRUCT.unpack(
        data[:HEADER_LEN]
    )
    if magic != MAGIC:
        raise BadMagic(f"expected payload magic {MAGIC!r}, got {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"payload version {version} not supported")
    if flags or reserved:
        # Outside the checksum, so a flipped bit here must not go unseen.
        raise UnsupportedVersion(
            f"payload flags 0x{flags:02x} and reserved 0x{reserved:04x} must be zero"
        )
    if HEADER_LEN + body_len > len(data):
        raise LengthMismatch(
            f"header declares a {body_len}-byte body but only "
            f"{len(data) - HEADER_LEN} bytes follow"
        )
    body = data[HEADER_LEN : HEADER_LEN + body_len]
    actual_crc = zlib.crc32(body)
    if actual_crc != crc:
        raise ChecksumMismatch(
            f"payload body checksum 0x{actual_crc:08x} != declared 0x{crc:08x}"
        )
    reader = _BodyReader(body)
    descriptor = np.frombuffer(reader.take(4 * BINS, "descriptor"), ">u4")
    locator = reader.take_text("locator")
    patient_id = reader.take_text("patient_id")
    name = reader.take_text("name")
    year, month, day = struct.unpack(">HBB", reader.take(4, "birthday"))
    diagnostic = reader.take_text("diagnostic")
    record = PatientRecord(
        patient_id=patient_id,
        name=name,
        birth_year=year,
        birth_month=month,
        birth_day=day,
        diagnostic=diagnostic,
    )
    return Payload(descriptor=descriptor, locator=locator, record=record)
