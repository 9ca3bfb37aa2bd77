"""Exception hierarchy shared by all lbpmarkdex modules."""


class LbpmarkdexError(Exception):
    """Base class for every domain error raised by this package."""


# --- image decoding / encoding -------------------------------------------

class BadMagic(LbpmarkdexError):
    """Input does not start with the expected magic bytes (PGM or payload)."""


class BadHeader(LbpmarkdexError):
    """PGM header is present but malformed (bad dims, maxval out of range)."""


class TruncatedData(LbpmarkdexError):
    """Fewer pixel bytes than the PGM header announces."""


# --- geometry -------------------------------------------------------------

class OutOfBounds(LbpmarkdexError):
    """Requested neighborhood leaves the image."""


class ImageTooSmall(LbpmarkdexError):
    """Image too small for the requested operation."""


# --- descriptors ----------------------------------------------------------

class EmptyDescriptor(LbpmarkdexError):
    """Descriptor has zero total mass; it cannot be normalized."""


# --- payload wire format --------------------------------------------------

class FieldTooLong(LbpmarkdexError):
    """A text field exceeds the 16-bit length prefix of the wire format."""


class UnsupportedVersion(LbpmarkdexError):
    """Payload version is not 1, or its flags byte or reserved bytes are not
    zero: version 1 defines no flags, and a nonzero byte outside the body
    checksum is taken as damage."""


class LengthMismatch(LbpmarkdexError):
    """Declared payload length disagrees with the bytes actually present."""


class ChecksumMismatch(LbpmarkdexError):
    """Payload body checksum failed; the carrier was modified (tamper signal)."""


# --- watermarking ---------------------------------------------------------

class OutOfRange(LbpmarkdexError):
    """A value outside the range its field allows: a difference pair that
    cannot be mapped back to pixels in [0, 255], a birthday field or
    descriptor bin out of range, or a text field holding a character
    UTF-8 cannot encode (a lone surrogate)."""


class PayloadTooLarge(LbpmarkdexError):
    """Data plus bookkeeping overhead exceeds the image's embedding capacity."""


class ImageTooNarrow(LbpmarkdexError):
    """Image narrower than one pixel pair; nothing can be embedded."""


class MalformedStream(LbpmarkdexError):
    """Embedded bitstream cannot be decoded (not watermarked, or damaged)."""


# --- index / retrieval ----------------------------------------------------

class DuplicateId(LbpmarkdexError):
    """Image id already present in the index."""


class IoFailure(LbpmarkdexError):
    """Filesystem operation failed on a file the package reads or writes:
    an image, a stored file, the index or its lock file."""


class EmptyIndex(LbpmarkdexError):
    """Query against an index with no entries."""


# --- evaluation -----------------------------------------------------------

class EmptyRelevantSet(LbpmarkdexError):
    """Precision/recall undefined: no relevant images."""


class EmptyAnswerSet(LbpmarkdexError):
    """Precision/recall undefined: no answers."""


class BadCutoff(LbpmarkdexError):
    """Cutoff list is not ascending or exceeds the ranking length."""
