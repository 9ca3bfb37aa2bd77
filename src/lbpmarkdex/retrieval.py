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
fields, and no entry may render as a blank or comment line. Writers
serialize through an exclusive lock on ``<index>.lock``; readers never
lock. index_add appends its row with one write, so comment lines and every
earlier byte stay; relink rewrites the whole file atomically, so its
rebuild keeps no comments.
"""

from __future__ import annotations

import contextlib
import fcntl
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .descriptor import BINS, compute_descriptor, descriptor_distance
from .errors import (
    DuplicateId,
    EmptyDescriptor,
    EmptyIndex,
    IoFailure,
    LbpmarkdexError,
    OutOfRange,
)
from .image_io import GrayImage, _pgm_header, load_pgm, save_pgm
from .payload import PatientRecord, Payload, decode_payload, encode_payload
from .watermark import _layout, _rewrite, _write, extract, extract_data

logger = logging.getLogger(__name__)


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
            if "\t" in value or "\n" in value or "\r" in value:
                raise ValueError(f"{name} may not contain tabs or newlines: {value!r}")
        if not self.image_id:
            raise ValueError("image_id may not be empty")
        # The row starts with the id: unless the id alone reads as blank or
        # a comment, its first non-whitespace character decides for the row.
        if _skipped_line(self.image_id) and _skipped_line(_entry_line(self)):
            raise ValueError(f"row of image_id {self.image_id!r} would read as a blank or comment line")


@dataclass(frozen=True)
class RankedResult:
    """A query hit: image id plus its descriptor distance to the query."""

    image_id: str
    distance: float


class Index:
    """In-memory view of the index file; entries are unique by image_id."""

    def __init__(self, entries=()) -> None:
        self._by_id: dict[str, IndexEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: IndexEntry) -> None:
        if entry.image_id in self._by_id:
            raise DuplicateId(f"image_id {entry.image_id!r} already indexed")
        self._by_id[entry.image_id] = entry

    def find(self, image_id: str) -> IndexEntry | None:
        return self._by_id.get(image_id)

    @property
    def entries(self) -> tuple[IndexEntry, ...]:
        return tuple(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._by_id

    def __eq__(self, other) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        return self._by_id == other._by_id

    @classmethod
    def parse(cls, text: str) -> "Index":
        return cls(_parse_tsv(text, "index", (2, 3), IndexEntry))

    def render(self) -> str:
        return "".join(_entry_line(e) for e in self._by_id.values())

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
        try:
            _publish(path, lambda tmp: Path(tmp).write_text(self.render(), encoding="utf-8"), replace=True)
        except OSError as exc:
            raise IoFailure(f"cannot write index {path!r}: {exc}") from exc


def _publish(path: str, write, replace: bool) -> None:
    """Create path whole: write(tmp) a sibling temporary, then move it into
    place. With replace=False an existing path stays and FileExistsError is
    raised."""
    with _temporary(path) as tmp:
        write(tmp)
        if replace:
            os.replace(tmp, path)
        else:
            os.link(tmp, path)


@contextlib.contextmanager
def _temporary(path: str):
    """The sibling temporary name of path, removed on exit. It does not end
    in '.pgm' and names no file on entry: a writer killed before its
    cleanup may have left the name behind as a link to the file it stored,
    so that name is removed first. The name is <path>.tmp.<pid>, plus
    .<thread ident> on any thread but the main one, so no two live threads
    share it: index_add writes its temporary before it takes the lock."""
    tmp = f"{path}.tmp.{os.getpid()}"
    if threading.current_thread() is not threading.main_thread():
        tmp += f".{threading.get_ident()}"
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp)
    try:
        yield tmp
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _skipped_line(line: str) -> bool:
    """True for a blank line or a comment: what _parse_tsv skips."""
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _parse_tsv(text: str, source: str, widths: tuple[int, ...], make) -> list:
    """make(*fields) for every data line of a tab-separated text.

    Blank lines and lines starting with '#' are skipped. A line with a
    field count outside widths, or whose fields make() rejects with
    ValueError, raises IoFailure naming source and the line number.
    """
    rows = []
    # Only the writer's "\n" (or "\r\n") ends a line: str.splitlines would
    # also split inside fields at characters such as U+0085 or "\f".
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if _skipped_line(line):
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


def _open_lock(index_path: str | os.PathLike) -> int:
    """A descriptor of the writers' lock file of an index, <index>.lock,
    opened but not locked. It creates the index's directory, as index_add
    creates the store."""
    lock_path = f"{os.fspath(index_path)}.lock"
    try:
        os.makedirs(os.path.dirname(lock_path) or ".", exist_ok=True)
        return os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError as exc:
        raise IoFailure(f"cannot open lock file {lock_path!r}: {exc}") from exc


@contextlib.contextmanager
def _index_lock(index_path: str | os.PathLike):
    """Exclusive advisory lock serializing writers of one index file."""
    fd = _open_lock(index_path)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def _append_row(index_path: str | os.PathLike, entry: IndexEntry) -> None:
    """Append entry's row to the index file with one write, after a "\n"
    if the file does not end in one; the caller holds the writers' lock."""
    try:
        fd = os.open(index_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            row = _entry_line(entry).encode("utf-8")
            end = os.fstat(fd).st_size
            if end and os.pread(fd, 1, end - 1) != b"\n":
                row = b"\n" + row
            if os.write(fd, row) != len(row):
                raise OSError("short write")
        finally:
            os.close(fd)
    except OSError as exc:
        raise IoFailure(f"cannot write index {os.fspath(index_path)!r}: {exc}") from exc


def _new_entry(image_id: str, locator: str, class_label: str) -> IndexEntry:
    """The IndexEntry a writer may add: its id must also be a single path
    component (not '.' or '..', no '/' or NUL), since it names a stored
    file. Raises ValueError otherwise. Loading an index does not apply
    this rule, so relink can still repair an old index with such a row."""
    if image_id in (".", "..") or "/" in image_id or "\0" in image_id:
        raise ValueError(f"image_id {image_id!r} is not a single path component")
    return IndexEntry(image_id, locator, class_label)


# index_add computes the descriptor on a second thread for an image of at
# least this many pixels, while the caller marks the image and writes the
# temporary. Median ms of whole index_add calls, serial vs threaded, over
# 120 alternating calls per size in one process on a 2-core VM: 256² 2.61
# vs 3.23; 384² 3.58 vs 4.28; 512² 5.30 vs 5.47 (threaded faster in 34 of
# 120); 640² 7.04 vs 6.34; 768² 9.45 vs 7.86; 1024² 16.66 vs 12.26. A
# second run of 80 read 512² as 5.09 vs 5.14. The crossover lies between
# 512² and 640², so the rule stays at 512²: there the thread costs at most
# 0.2 ms a call, and above it saves from 0.7 ms at 640².
THREAD_MIN_PIXELS = 1 << 18


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
    append the entry's row to the index file (earlier bytes, comment lines
    included, stay as they are).

    The original image is not kept anywhere; restore_stored() recovers it
    from the stored file, which is therefore never overwritten: an id that
    is indexed or already has a stored file raises DuplicateId. Also raises
    ImageTooSmall (no three-level pyramid), PayloadTooLarge (image cannot
    carry its own payload) and IoFailure, including for an id that is not a
    single path component or that the index format cannot hold. Of the
    first three, ImageTooSmall is raised first and PayloadTooLarge last.

    The stored file is written before the descriptor is known: the image
    is marked with a provisional payload whose descriptor is all zeros and
    written to a temporary, and once the descriptor is known only the rows
    whose pairs carry the bits that differ (the descriptor's and the CRC's,
    about 8.2k pairs) are rewritten in it. Then, under the writers' lock,
    the id is checked against the index, the file is linked into place and
    the row appended. The lock is not held while the descriptor is computed.

    An image of at least THREAD_MIN_PIXELS (2**18) pixels has its
    descriptor (pyramid and LBP histograms) computed on a second thread
    while this thread marks the image and writes the temporary; numpy's
    large kernels release the GIL, so the two run at once. Below the rule
    the thread costs more than it saves. The thread belongs to an executor
    made for the call and is joined before the call returns or raises, so
    no executor outlives the call; an exception it raised is raised here.
    The stored bytes and the index row are the same on either path, and
    the same as embed() of the real payload gives.
    """
    try:
        entry = _new_entry(image_id, locator_for(store_dir, image_id), class_label)
    except ValueError as exc:
        raise IoFailure(str(exc)) from exc
    with contextlib.ExitStack() as cleanup:
        staged = _StagedFile(cleanup, index_path, entry, patient)
        if original.pixels.size >= THREAD_MIN_PIXELS:
            # perfbench/tracing.py keeps one span stack for all threads, and
            # mark() calls save_pgm, which it wraps, while the worker runs:
            # in a traced run that span can take a worker span as parent.
            with ThreadPoolExecutor(max_workers=1, thread_name_prefix="lbpmarkdex-descriptor") as worker:
                pending = worker.submit(compute_descriptor, original)
                staged.mark(original, store_dir)
            descriptor = pending.result()
        else:
            descriptor = compute_descriptor(original)
            staged.mark(original, store_dir)
        staged.store(descriptor)
    return entry


class _StagedFile:
    """The stored file of one index_add, written around its descriptor.

    The constructor encodes the payload with an all-zero descriptor: as
    long as the real encoding, and different from it only in the CRC and
    the descriptor. mark() opens (does not take) the writers' lock file,
    marks the image with that provisional payload and writes it to a fresh
    temporary beside the locator. store() rewrites there the rows that
    _rewrite gives for the real payload, takes the lock, checks the id
    against the index, links the file into place and appends the row.

    The constructor and mark() keep their first error instead of raising
    it, and store() raises it where the order of the errors puts it: the
    encoding's and the lock file's before the index is read, PayloadTooLarge
    and the temporary's IoFailure after the duplicate check. cleanup closes
    the lock file and removes the temporary however the call ends.
    """

    def __init__(self, cleanup: contextlib.ExitStack, index_path, entry: IndexEntry, patient: PatientRecord):
        self._cleanup, self._index_path, self._entry, self._patient = cleanup, index_path, entry, patient
        self._lock = self._failure = None
        try:
            self._provisional = self._encode(np.zeros(BINS, np.uint8))
        except LbpmarkdexError as exc:
            self._failure = exc

    def _encode(self, descriptor) -> bytes:
        return encode_payload(Payload(descriptor=descriptor, locator=self._entry.locator, record=self._patient))

    def _store_failure(self, exc: OSError) -> IoFailure:
        failure = IoFailure(f"cannot store {self._entry.locator!r}: {exc}")
        failure.__cause__ = exc
        return failure

    def mark(self, original: GrayImage, store_dir: str | os.PathLike) -> None:
        if self._failure is not None:
            return
        try:
            self._lock = _open_lock(self._index_path)
            self._cleanup.callback(os.close, self._lock)
            self._layout = _layout(original)
            self._marked = _write(original, self._layout, self._provisional)
            os.makedirs(os.fspath(store_dir), exist_ok=True)
            self._tmp = self._cleanup.enter_context(_temporary(self._entry.locator))
            save_pgm(self._tmp, self._marked)
        except LbpmarkdexError as exc:
            self._failure = exc
        except OSError as exc:
            self._failure = self._store_failure(exc)

    def store(self, descriptor: np.ndarray) -> None:
        if self._lock is None:
            raise self._failure
        if self._failure is None:
            first, rows = _rewrite(self._marked, self._layout, self._provisional, self._encode(descriptor))
            offset = len(_pgm_header(self._marked)) + first * self._marked.width
            try:
                fd = os.open(self._tmp, os.O_WRONLY)
                try:
                    if os.pwrite(fd, rows, offset) != rows.nbytes:
                        raise OSError("short write")
                finally:
                    os.close(fd)
            except OSError as exc:
                self._failure = self._store_failure(exc)
        fcntl.flock(self._lock, fcntl.LOCK_EX)
        Index.load(self._index_path).add(self._entry)
        if self._failure is not None:
            raise self._failure
        try:
            os.link(self._tmp, self._entry.locator)
        except FileExistsError as exc:
            raise DuplicateId(f"image_id {self._entry.image_id!r} already has a stored file") from exc
        except OSError as exc:
            raise self._store_failure(exc)
        _append_row(self._index_path, self._entry)


def read_stored(locator: str | os.PathLike) -> Payload:
    """The payload a watermarked file carries; its original is not rebuilt."""
    return decode_payload(extract_data(load_pgm(locator)))


def restore_stored(locator: str | os.PathLike) -> GrayImage:
    """The original image of a watermarked file, returned only once the
    payload decodes: a file read_stored would reject is not restored."""
    data, original = extract(load_pgm(locator))
    decode_payload(data)
    return original


def _scan_payloads(items, skipped: list[str] | None = None):
    """Yield (name, locator, payload) for each (name, locator) item whose
    file decodes to a payload with a non-empty descriptor.

    Every other item (missing, damaged, not watermarked, or carrying a
    descriptor that sums to zero, which index_add never writes) is logged
    once as skipped and its locator appended to skipped, if given.
    """
    for name, locator in items:
        try:
            payload = read_stored(locator)
            if not payload.descriptor.any():
                raise EmptyDescriptor("stored descriptor has zero total count")
        except LbpmarkdexError as exc:
            logger.warning(
                "skipping %s (%s): %s: %s", name, locator, type(exc).__name__, exc
            )
            if skipped is not None:
                skipped.append(locator)
            continue
        yield name, locator, payload


def stored_descriptors(entries) -> dict[str, np.ndarray]:
    """image_id -> stored descriptor of each entry; the scan logs and drops the rest."""
    scan = _scan_payloads((e.image_id, e.locator) for e in entries)
    return {image_id: payload.descriptor for image_id, _, payload in scan}


def rank_by_distance(query_desc, descriptors) -> list[tuple[float, str]]:
    """(distance, image_id) for each image_id -> descriptor of the mapping,
    ascending: by distance to query_desc, ties broken by ascending id."""
    matrix = np.asarray(list(descriptors.values()), dtype=np.int64).reshape(len(descriptors), BINS)
    return sorted(zip(descriptor_distance(query_desc, matrix).tolist(), descriptors))


def query_by_image(query: GrayImage, index_path: str | os.PathLike, k: int) -> list[RankedResult]:
    """Rank stored images by descriptor distance to the query image.

    Returns the k nearest entries (fewer if the index is smaller), sorted
    by ascending distance with ties broken by ascending image_id. Entries
    whose files are missing or corrupt are skipped with a logged warning.
    """
    if k < 1:
        raise OutOfRange(f"k must be at least 1, got {k}")
    index = Index.load(index_path)
    if len(index) == 0:
        raise EmptyIndex("cannot query an empty index")
    query_desc = compute_descriptor(query)
    ranked = rank_by_distance(query_desc, stored_descriptors(index.entries))
    return [RankedResult(i, d) for d, i in ranked[:k]]


def query_by_patient_id(pid: str, index_path: str | os.PathLike) -> list[tuple[IndexEntry, PatientRecord]]:
    """All indexed images whose embedded patient_id matches pid exactly,
    in ascending image_id order. Broken entries are skipped and logged."""
    index = Index.load(index_path)
    scan = _scan_payloads((e.image_id, e.locator) for e in index.entries)
    hits = [
        (index.find(image_id), payload.record)
        for image_id, _, payload in scan
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
    the scan skips (unreadable: no parseable payload, or an empty
    descriptor) and files whose id was already claimed by an earlier file
    or whose id index_add would refuse or whose path the index cannot hold
    (conflicting).
    """
    store = os.fspath(store_dir)
    report = RelinkReport()
    rebuilt: dict[str, IndexEntry] = {}
    # The whole rebuild holds the writers' lock: a row that index_add
    # appended after the old index was read would be lost by the save.
    with _index_lock(index_path):
        old = Index.load(index_path)
        try:
            names = sorted(os.listdir(store))
        except OSError as exc:
            raise IoFailure(f"cannot scan store {store!r}: {exc}") from exc
        files = ((n, os.path.join(store, n)) for n in names if n.endswith(".pgm"))
        for _, path, payload in _scan_payloads(files, report.unreadable):
            image_id = os.path.splitext(os.path.basename(payload.locator))[0]
            previous = old.find(image_id)
            try:
                entry = _new_entry(image_id, path, previous.class_label if previous else "")
            except ValueError:
                entry = None
            if entry is None or image_id in rebuilt:
                report.conflicting.append(path)
                continue
            rebuilt[image_id] = entry
            if previous is None or previous.locator != path:
                report.repaired.append(path)
        new_index = Index(rebuilt[i] for i in sorted(rebuilt))
        new_index.save(index_path)
    return new_index, report
