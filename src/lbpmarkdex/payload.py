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
_LENGTH = struct.Struct(">H")
_BIRTHDAY = struct.Struct(">HBB")


def _check_text(value: str, name: str) -> bytes:
    try:
        encoded = value.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, as in a non-UTF-8 argv byte
        raise OutOfRange(f"{name} is not UTF-8 text: {exc}") from exc
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
        # Bools and unsigned bins of at most four bytes, such as the wire's
        # >u4, lie in range by their type.
        if not (desc.dtype.kind in "ub" and desc.dtype.itemsize <= 4):
            if desc.min() < 0 or desc.max() > _MAX_BIN:
                raise OutOfRange(f"descriptor bins run from {desc.min()} to {desc.max()}, outside [0, {_MAX_BIN}]")
        object.__setattr__(self, "_wire", desc.astype(">u4", copy=False).tobytes())
        desc = desc.astype(np.int64)
        desc.flags.writeable = False
        object.__setattr__(self, "descriptor", desc)
        _check_text(self.locator, "locator")


def _pack_text(value: str, name: str) -> bytes:
    encoded = _check_text(value, name)
    return _LENGTH.pack(len(encoded)) + encoded


def encode_payload(payload: Payload) -> bytes:
    """Serialize a payload to its wire bytes."""
    rec = payload.record
    parts = [
        payload._wire,
        _pack_text(payload.locator, "locator"),
        _pack_text(rec.patient_id, "patient_id"),
        _pack_text(rec.name, "name"),
        _BIRTHDAY.pack(rec.birth_year, rec.birth_month, rec.birth_day),
        _pack_text(rec.diagnostic, "diagnostic"),
    ]
    body = b"".join(parts)
    header = _HEADER_STRUCT.pack(MAGIC, VERSION, 0, len(body), zlib.crc32(body), 0)
    return header + body


def _field_end(pos: int, count: int, end: int, what: str) -> int:
    """pos + count, the end of a body field at data offset pos; raises
    LengthMismatch when it runs past end, the end of the declared body."""
    if pos + count > end:
        raise LengthMismatch(
            f"payload body ended while reading {what} "
            f"({pos + count - HEADER_LEN} > {end - HEADER_LEN} bytes)"
        )
    return pos + count


def _text_at(data: bytes, pos: int, end: int, name: str) -> tuple[str, int]:
    """The u16-prefixed UTF-8 field at data offset pos, and the offset after it."""
    start = _field_end(pos, 2, end, f"{name} length")
    stop = _field_end(start, _LENGTH.unpack_from(data, pos)[0], end, name)
    try:
        return data[start:stop].decode("utf-8"), stop
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
    magic, version, flags, body_len, crc, reserved = _HEADER_STRUCT.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"expected payload magic {MAGIC!r}, got {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"payload version {version} not supported")
    if flags or reserved:
        # Outside the checksum, so a flipped bit here must not go unseen.
        raise UnsupportedVersion(
            f"payload flags 0x{flags:02x} and reserved 0x{reserved:04x} must be zero"
        )
    end = HEADER_LEN + body_len
    if end > len(data):
        raise LengthMismatch(
            f"header declares a {body_len}-byte body but only "
            f"{len(data) - HEADER_LEN} bytes follow"
        )
    actual_crc = zlib.crc32(memoryview(data)[HEADER_LEN:end])
    if actual_crc != crc:
        raise ChecksumMismatch(
            f"payload body checksum 0x{actual_crc:08x} != declared 0x{crc:08x}"
        )
    # The body's fields, read in place: each offset is checked against end.
    pos = _field_end(HEADER_LEN, 4 * BINS, end, "descriptor")
    descriptor = np.frombuffer(data, ">u4", BINS, HEADER_LEN)
    locator, pos = _text_at(data, pos, end, "locator")
    patient_id, pos = _text_at(data, pos, end, "patient_id")
    name, pos = _text_at(data, pos, end, "name")
    after = _field_end(pos, _BIRTHDAY.size, end, "birthday")
    year, month, day = _BIRTHDAY.unpack_from(data, pos)
    diagnostic, _ = _text_at(data, after, end, "diagnostic")
    record = PatientRecord(
        patient_id=patient_id,
        name=name,
        birth_year=year,
        birth_month=month,
        birth_day=day,
        diagnostic=diagnostic,
    )
    return Payload(descriptor=descriptor, locator=locator, record=record)
