"""Indexing and retrieval over a store of self-describing watermarked images.

The store is a directory of watermarked PGM files plus one small TSV index
mapping image ids to file locators. Each stored file carries its own
descriptor, patient record and locator inside the watermark, so the index
is a disposable accelerator: queries read descriptors from the payloads
(never recomputing texture on watermarked pixels) and relink() can rebuild
the whole index from the files alone.

Index file format: UTF-8 text, one entry per line,
``image_id <TAB> locator <TAB> class_label`` (class_label may be empty),
``#`` starts a comment line. Tabs and newlines are forbidden inside
fields. Writers serialize through an exclusive lock on ``<index>.lock``;
readers never lock.
"""

from __future__ import annotations

import contextlib
import fcntl
import logging
import os
from dataclasses import dataclass, field

from .descriptor import compute_descriptor, descriptor_distance
from .errors import (
    DuplicateId,
    EmptyDescriptor,
    EmptyIndex,
    IoFailure,
    LbpmarkdexError,
    OutOfRange,
)
from .image_io import GrayImage, load_pgm, save_pgm
from .payload import PatientRecord, Payload, decode_payload, encode_payload
from .watermark import embed, extract

logger = logging.getLogger(__name__)

_FORBIDDEN = ("\t", "\n", "\r")


@dataclass(frozen=True)
class IndexEntry:
    """One indexed image: its id, where the watermarked file lives, and an
    optional class label used only by evaluation."""

    image_id: str
    locator: str
    class_label: str = ""

    def __post_init__(self) -> None:
        for name in ("image_id", "locator", "class_label"):
            value = getattr(self, name)
            if any(ch in value for ch in _FORBIDDEN):
                raise ValueError(f"{name} may not contain tabs or newlines: {value!r}")
        if not self.image_id:
            raise ValueError("image_id may not be empty")


@dataclass(frozen=True)
class RankedResult:
    """A query hit: image id plus its descriptor distance to the query."""

    image_id: str
    distance: float


class Index:
    """In-memory view of the index file; entries are unique by image_id."""

    def __init__(self, entries=()) -> None:
        self._entries: list[IndexEntry] = []
        self._by_id: dict[str, IndexEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: IndexEntry) -> None:
        if entry.image_id in self._by_id:
            raise DuplicateId(f"image_id {entry.image_id!r} already indexed")
        self._entries.append(entry)
        self._by_id[entry.image_id] = entry

    def find(self, image_id: str) -> IndexEntry | None:
        return self._by_id.get(image_id)

    @property
    def entries(self) -> tuple[IndexEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._by_id

    def __eq__(self, other) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        return sorted(self._entries, key=lambda e: e.image_id) == sorted(
            other._entries, key=lambda e: e.image_id
        )

    @classmethod
    def parse(cls, text: str) -> "Index":
        return cls(_parse_tsv(text, "index", (2, 3), IndexEntry))

    def render(self) -> str:
        return "".join(_entry_line(e) for e in self._entries)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Index":
        """Read the index file; a missing file is an empty index."""
        try:
            return cls(_load_tsv(path, "index", (2, 3), IndexEntry))
        except FileNotFoundError:
            return cls()
        except OSError as exc:
            raise IoFailure(f"cannot read index {os.fspath(path)!r}: {exc}") from exc

    def save(self, path: str | os.PathLike) -> None:
        """Atomically rewrite the index file (write-temp-then-rename)."""
        path = os.fspath(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.render())
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise IoFailure(f"cannot write index {path!r}: {exc}") from exc


def _parse_tsv(text: str, source: str, widths: tuple[int, ...], make) -> list:
    """make(*fields) for every data line of a tab-separated text.

    Blank lines and lines starting with '#' are skipped. A line with a
    field count outside widths, or whose fields make() rejects with
    ValueError, raises IoFailure naming source and the line number.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        where = f"{source} line {lineno}"
        if len(fields) not in widths:
            expected = " or ".join(str(w) for w in widths)
            raise IoFailure(f"{where} has {len(fields)} fields, expected {expected}")
        try:
            rows.append(make(*fields))
        except ValueError as exc:
            raise IoFailure(f"{where}: {exc}") from exc
    return rows


def _load_tsv(path: str | os.PathLike, what: str, widths: tuple[int, ...], make) -> list:
    """_parse_tsv over a UTF-8 file; undecodable bytes raise IoFailure."""
    source = f"{what} {os.fspath(path)!r}"
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise IoFailure(f"{source} line {lineno} is not UTF-8: {exc}") from exc
    return _parse_tsv(text, source, widths, make)


def _entry_line(entry: IndexEntry) -> str:
    return f"{entry.image_id}\t{entry.locator}\t{entry.class_label}\n"


@contextlib.contextmanager
def _index_lock(index_path: str | os.PathLike):
    """Exclusive advisory lock serializing writers of one index file."""
    lock_path = f"{os.fspath(index_path)}.lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError as exc:
        raise IoFailure(f"cannot open lock file {lock_path!r}: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def _as_index(index) -> Index:
    if isinstance(index, Index):
        return index
    return Index.load(index)


def locator_for(store_dir: str | os.PathLike, image_id: str) -> str:
    """Where index_add stores (and embeds) the watermarked file for an id."""
    return os.path.join(os.fspath(store_dir), f"{image_id}.pgm")


def index_add(
    index_path: str | os.PathLike,
    original: GrayImage,
    image_id: str,
    patient: PatientRecord,
    store_dir: str | os.PathLike,
    class_label: str = "",
) -> IndexEntry:
    """Watermark an image with its own descriptor and record, store it, and
    append the entry to the index file.

    The original image is not kept anywhere; extract() recovers it from the
    stored file. Raises DuplicateId, PayloadTooLarge (image cannot carry
    its own payload) and IoFailure.
    """
    entry = IndexEntry(image_id, locator_for(store_dir, image_id), class_label)
    descriptor = compute_descriptor(original)
    payload = Payload(
        descriptor=descriptor, locator=entry.locator, record=patient
    )
    blob = encode_payload(payload)
    with _index_lock(index_path):
        index = Index.load(index_path)
        if image_id in index:
            raise DuplicateId(f"image_id {image_id!r} already indexed")
        marked = embed(original, blob)
        try:
            os.makedirs(os.fspath(store_dir), exist_ok=True)
            save_pgm(entry.locator, marked)
            with open(index_path, "a", encoding="utf-8") as fh:
                fh.write(_entry_line(entry))
        except OSError as exc:
            raise IoFailure(f"cannot store {entry.locator!r}: {exc}") from exc
    return entry


def read_stored(locator: str | os.PathLike) -> tuple[Payload, GrayImage]:
    """Load a watermarked file and return its payload and restored original."""
    marked = load_pgm(locator)
    data, original = extract(marked)
    return decode_payload(data), original


def _scan_payloads(index: Index):
    """Yield (entry, payload) pairs, skipping and logging broken entries."""
    for entry in index.entries:
        try:
            payload, _ = read_stored(entry.locator)
        except (LbpmarkdexError, OSError) as exc:
            logger.warning(
                "skipping %s (%s): %s: %s",
                entry.image_id,
                entry.locator,
                type(exc).__name__,
                exc,
            )
            continue
        yield entry, payload


def query_by_image(query: GrayImage, index, k: int) -> list[RankedResult]:
    """Rank stored images by descriptor distance to the query image.

    Returns the k nearest entries (fewer if the index is smaller), sorted
    by ascending distance with ties broken by ascending image_id. Entries
    whose files are missing or corrupt are skipped with a logged warning.
    """
    if k < 1:
        raise OutOfRange(f"k must be at least 1, got {k}")
    index = _as_index(index)
    if len(index) == 0:
        raise EmptyIndex("cannot query an empty index")
    query_desc = compute_descriptor(query)
    if int(query_desc.sum()) == 0:
        raise EmptyDescriptor("query image produced an empty descriptor")
    scored = []
    for entry, payload in _scan_payloads(index):
        try:
            dist = descriptor_distance(query_desc, payload.descriptor_array())
        except LbpmarkdexError as exc:
            logger.warning(
                "skipping %s: %s: %s", entry.image_id, type(exc).__name__, exc
            )
            continue
        scored.append(RankedResult(entry.image_id, dist))
    scored.sort(key=lambda r: (r.distance, r.image_id))
    return scored[:k]


def query_by_patient_id(pid: str, index) -> list[tuple[IndexEntry, PatientRecord]]:
    """All indexed images whose embedded patient_id matches pid exactly,
    in ascending image_id order. Broken entries are skipped and logged."""
    index = _as_index(index)
    hits = [
        (entry, payload.record)
        for entry, payload in _scan_payloads(index)
        if payload.record.patient_id == pid
    ]
    hits.sort(key=lambda pair: pair[0].image_id)
    return hits


@dataclass
class RelinkReport:
    """Outcome of a relink scan, in file paths."""

    repaired: list[str] = field(default_factory=list)
    unreadable: list[str] = field(default_factory=list)
    conflicting: list[str] = field(default_factory=list)


def relink(store_dir: str | os.PathLike, index_path: str | os.PathLike) -> tuple[Index, RelinkReport]:
    """Rebuild the index from the payloads embedded in the stored files.

    Every readable watermarked PGM in store_dir becomes an entry whose id
    is the stem of its embedded locator and whose locator is the file's
    actual path. Class labels of ids already present in the old index are
    preserved. The rebuilt index replaces the file at index_path. The
    report lists files that changed or created their row (repaired), files
    without a parseable payload (unreadable) and files whose id was already
    claimed by an earlier file (conflicting).
    """
    old = Index.load(index_path)
    report = RelinkReport()
    try:
        names = sorted(os.listdir(store_dir))
    except OSError as exc:
        raise IoFailure(f"cannot scan store {os.fspath(store_dir)!r}: {exc}") from exc
    rebuilt: dict[str, IndexEntry] = {}
    for name in names:
        if not name.endswith(".pgm"):
            continue
        path = os.path.join(os.fspath(store_dir), name)
        try:
            payload, _ = read_stored(path)
        except (LbpmarkdexError, OSError) as exc:
            logger.warning("unreadable %s: %s: %s", path, type(exc).__name__, exc)
            report.unreadable.append(path)
            continue
        image_id = os.path.splitext(os.path.basename(payload.locator))[0]
        if not image_id or image_id in rebuilt:
            report.conflicting.append(path)
            continue
        previous = old.find(image_id)
        label = previous.class_label if previous is not None else ""
        rebuilt[image_id] = IndexEntry(image_id, path, label)
        if previous is None or previous.locator != path:
            report.repaired.append(path)
    new_index = Index(rebuilt[i] for i in sorted(rebuilt))
    with _index_lock(index_path):
        new_index.save(index_path)
    return new_index, report
