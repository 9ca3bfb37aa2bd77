"""Indexing and retrieval over a store of self-describing watermarked images.

The store is a directory of watermarked PGM files plus one small TSV index
mapping image ids to file locators. Each stored file carries its own
descriptor, patient record and locator inside the watermark, so the index
is a disposable accelerator: queries read descriptors from the payloads
(never recomputing texture on watermarked pixels) and relink() can rebuild
the whole index from the files alone.

Index is that file's rows as a plain dict, image_id -> IndexEntry in row
order, with two methods: Index.load reads the file (a missing file is an
empty index) and save rewrites it atomically.

Index file format: UTF-8 text, one entry per line, ``image_id <TAB>
locator <TAB> class_label`` (class_label may be empty), ``#`` starts a
comment line. Tabs and newlines are forbidden inside fields and every
field is UTF-8 text. IndexEntry holds the one id rule, for readers and
writers alike: an id names one file (not empty, ``.`` or ``..``, no
``/`` or NUL), is not all whitespace and does not start with ``#`` after
leading whitespace, so its row reads as neither blank nor a comment. A
row whose id breaks it is a bad line. An id has one row: _parse_tsv, the
one row reader of index and --labels files, takes a repeat for a bad
line that names both lines (IoFailure, or a warning and neither row for
relink). A line is a row only once its "\n" is written: readers skip
what follows the last "\n", an append cut short or still in flight, with
a logged warning. _rows() is that rule, for every reader and writer.
Writers serialize through an exclusive lock on ``<index>.lock``; readers
never lock. index_add, under the lock, reads the index bytes once,
checks its id against them without parsing a row, cuts such an
unterminated tail and appends its row with one write, so comment lines
and every earlier line, a bad one included, stay; relink rewrites the
whole file atomically, so its rebuild keeps no comments.
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
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(f"{name} is not UTF-8 text: {exc}") from None
        if not self.image_id:
            raise ValueError("image_id may not be empty")
        # The id names a stored file, <id>.pgm.
        if self.image_id in (".", "..") or "/" in self.image_id or "\0" in self.image_id:
            raise ValueError(f"image_id {self.image_id!r} is not a single path component")
        # The row starts with the id, so its first non-whitespace character
        # decides whether the row reads as a comment. An all-whitespace id
        # would leave that to the next field (" \t# note" is a comment), and
        # index_add, which finds a row by its "<id>\t" start, relies on it.
        if not self.image_id.strip():
            raise ValueError(f"image_id {self.image_id!r} is all whitespace")
        if _skipped_line(self.image_id):
            raise ValueError(f"row of image_id {self.image_id!r} would read as a blank or comment line")


@dataclass(frozen=True)
class RankedResult:
    """A query hit: image id plus its descriptor distance to the query."""

    image_id: str
    distance: float


class Index(dict):
    """The index file's rows as a dict, image_id -> IndexEntry, in row order."""

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Index":
        """Read the index file; a missing file is an empty index."""
        return cls(_load_rows(path))

    def save(self, path: str | os.PathLike) -> None:
        """Atomically rewrite the index file (write-temp-then-rename)."""
        path, text = os.fspath(path), "".join(map(_entry_line, self.values()))
        with _io_failure(f"cannot write index {path!r}"):
            _publish(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"), replace=True)


@contextlib.contextmanager
def _io_failure(what: str):
    """Raise IoFailure("<what>: <os error>") for an OSError of the block."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"{what}: {exc}") from exc


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


def _rows(data: bytes, source: str) -> bytes:
    """The rows of index bytes: the lines up to the last "\n". What
    follows it, an append cut short or still being written, is no row and
    is skipped with a logged warning."""
    end = data.rfind(b"\n") + 1
    if end < len(data):
        logger.warning("skipping %s line %d, an unterminated last line", source, data.count(b"\n") + 1)
    return data[:end]


def _load_rows(path: str | os.PathLike, bad=None) -> dict[str, IndexEntry]:
    """_parse_tsv(..., IndexEntry, bad) of the rows (see _rows) of the
    index file at path; a missing file has none."""
    source = f"index {os.fspath(path)!r}"
    with _io_failure(f"cannot read {source}"):
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return {}
    return _parse_tsv(_rows(data, source), source, (2, 3), IndexEntry, bad)


def _skipped_line(line: str) -> bool:
    """True for a blank line or a comment: what _parse_tsv skips."""
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _parse_tsv(data: bytes, source: str, widths: tuple[int, ...], make, bad=None) -> dict:
    """{first field: make(*fields)} for every data line of tab-separated
    UTF-8 bytes.

    Blank lines and lines starting with '#' are skipped. A line that is
    not UTF-8, has a field count outside widths, has fields make()
    rejects with ValueError, or repeats the first field (the image_id)
    of an earlier row is bad: it raises IoFailure naming source and the
    line number, or, if bad is given, is skipped after bad(message). A
    skipped repeat drops the earlier row as well, so an id on more than
    one row keeps none.
    """
    rows, first = {}, {}
    # Only the writer's "\n" (or "\r\n") ends a line: str.splitlines would
    # also split inside fields at characters such as U+0085 or "\f".
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        try:
            line = line.decode("utf-8").removesuffix("\r")
            if _skipped_line(line):
                continue
            fields = line.split("\t")
            if len(fields) not in widths:
                raise ValueError(f"has {len(fields)} fields, expected {' or '.join(map(str, widths))}")
            row, key = make(*fields), fields[0]
            if first.setdefault(key, lineno) != lineno:
                rows.pop(key, None)
                raise ValueError(f"repeats image_id {key!r} of line {first[key]}")
            rows[key] = row
        except ValueError as exc:  # UnicodeDecodeError among them
            kind = " is not UTF-8" if isinstance(exc, UnicodeDecodeError) else ""
            message = f"{source} line {lineno}{kind}: {exc}"
            if bad is None:
                raise IoFailure(message) from exc
            bad(message)
    return rows


def _entry_line(entry: IndexEntry) -> str:
    return f"{entry.image_id}\t{entry.locator}\t{entry.class_label}\n"


@contextlib.contextmanager
def _writers_lock(index_path: str | os.PathLike):
    """Hold the writers' lock of an index: an exclusive flock on its lock
    file, <index>.lock, created with the index's directory (as index_add
    creates the store) if missing. Blocks while another writer holds it;
    released and closed on exit."""
    lock_path = f"{os.fspath(index_path)}.lock"
    with _io_failure(f"cannot open lock file {lock_path!r}"):
        os.makedirs(os.path.dirname(lock_path) or ".", exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        with _io_failure(f"cannot lock {lock_path!r}"):
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


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
    append the entry's row to the index file (earlier lines, comment lines
    included, stay as they are; an unterminated last line, which no reader
    takes for a row, is replaced).

    The original image is not kept anywhere; restore_stored() recovers it
    from the stored file, which is therefore never overwritten: an id that
    is indexed or already has a stored file raises DuplicateId. Also raises
    ImageTooSmall (no three-level pyramid), PayloadTooLarge (image cannot
    carry its own payload) and IoFailure, including for an id, label or
    store path that IndexEntry refuses.

    One sequence at every size. The stored file is written before the
    descriptor is known: the payload is encoded with an all-zero
    descriptor (as long as the real one, different only in the CRC and the
    descriptor), the image is marked with that payload and written to a
    fresh temporary beside the locator. Then the descriptor is taken, and
    only the rows whose pairs carry the bits that differ (the descriptor's
    and the CRC's, about 8.2k pairs) are rewritten in the temporary. Then
    the writers' lock file is opened and locked. Under the lock the index
    file is opened (created if missing) and read once; the id is indexed
    if a line of those bytes, up to the last "\n", starts with "<id>\t".
    No row is parsed, so a bad row elsewhere does not stop the add. Then
    the file is linked into place, the index is cut to its last "\n" and
    the row written with one write. The lock is not held while the
    descriptor is computed.

    A call raises the error of the first step that fails, in that order:
    the id and its row's encoding (IoFailure), the payload encoding
    (FieldTooLong), the marking (PayloadTooLarge), the store directory and
    the temporary (IoFailure), the descriptor (ImageTooSmall, or the
    worker's own exception), the row rewrite, the lock file and its lock,
    opening and reading the index (IoFailure), the duplicate check
    (DuplicateId), the link (DuplicateId for an existing file, else
    IoFailure) and the index write (IoFailure). A call that fails before
    the index write leaves no stored file, row or temporary; one that
    fails at the index write leaves the stored file without a row, which
    relink lists as repaired. One that fails at the store directory or
    later may have created the store directory; one that fails after the
    lock file is opened has created the index's directory and the lock
    file, and one that fails at the link or later has created the index
    file, empty if it was missing.

    For an image of at least THREAD_MIN_PIXELS (2**18) pixels the
    descriptor (pyramid and LBP histograms) is computed on a second thread
    while this thread runs the steps before it; numpy's large kernels
    release the GIL, so the two run at once. Below the rule the thread
    costs more than it saves, so the descriptor is computed here, after
    those steps, and no executor is made. The thread belongs to an
    executor made for the call and is joined before the call returns or
    raises, so no executor outlives the call; an exception it raised is
    raised here unless a step before the descriptor failed first. The
    stored bytes and the index row are the same on either side of the
    rule, and the same as embed() of the real payload gives.
    """
    try:
        entry = IndexEntry(image_id, locator_for(store_dir, image_id), class_label)
        row = _entry_line(entry).encode("utf-8")
    except ValueError as exc:
        raise IoFailure(str(exc)) from exc
    locator, index = entry.locator, os.fspath(index_path)
    with contextlib.ExitStack() as cleanup:
        pending = None
        if original.pixels.size >= THREAD_MIN_PIXELS:
            # perfbench/tracing.py keeps one span stack for all threads, and
            # this thread calls save_pgm, which it wraps, while the worker
            # runs: in a traced run that span can take a worker span as parent.
            worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lbpmarkdex-descriptor")
            pending = cleanup.enter_context(worker).submit(compute_descriptor, original)
        provisional = encode_payload(Payload(np.zeros(BINS, np.uint8), locator, patient))
        layout = _layout(original)
        marked = _write(original, layout, provisional)
        # Drop the pixels _write spent (x0, y0); _rewrite reads the rest.
        # Alive through a descriptor computed on this thread, they lifted
        # a 256² call's peak heap past glibc malloc's trim threshold:
        # 239 page faults a call instead of none, and 0.2-0.5 ms.
        layout = layout[2:]
        with _io_failure(f"cannot store {locator!r}"):
            os.makedirs(os.fspath(store_dir), exist_ok=True)
            tmp = cleanup.enter_context(_temporary(locator))
            save_pgm(tmp, marked)
        descriptor = compute_descriptor(original) if pending is None else pending.result()
        first, rows = _rewrite(marked, layout, provisional, encode_payload(Payload(descriptor, locator, patient)))
        with _io_failure(f"cannot store {locator!r}"):
            fd = os.open(tmp, os.O_WRONLY)
            try:
                if os.pwrite(fd, rows, len(_pgm_header(marked)) + first * marked.width) != rows.nbytes:
                    raise OSError("short write")
            finally:
                os.close(fd)
            cleanup.enter_context(_writers_lock(index_path))
        with _io_failure(f"cannot write index {index!r}"):
            fd = os.open(index_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            cleanup.callback(os.close, fd)
            kept = _rows(os.pread(fd, os.fstat(fd).st_size, 0), f"index {index!r}")
            if f"\n{image_id}\t".encode("utf-8") in b"\n" + kept:
                raise DuplicateId(f"image_id {image_id!r} already indexed")
            with _io_failure(f"cannot store {locator!r}"):
                try:
                    os.link(tmp, locator)
                except FileExistsError as exc:
                    raise DuplicateId(f"image_id {image_id!r} already has a stored file") from exc
            os.ftruncate(fd, len(kept))
            if os.write(fd, row) != len(row):
                raise OSError("short write")
    return entry


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
    if not index:
        raise EmptyIndex("cannot query an empty index")
    query_desc = compute_descriptor(query)
    ranked = rank_by_distance(query_desc, stored_descriptors(index.values()))
    return [RankedResult(i, d) for d, i in ranked[:k]]


def query_by_patient_id(pid: str, index_path: str | os.PathLike) -> list[tuple[IndexEntry, PatientRecord]]:
    """All indexed images whose embedded patient_id matches pid exactly,
    in ascending image_id order. Broken entries are skipped and logged."""
    index = Index.load(index_path)
    scan = _scan_payloads((e.image_id, e.locator) for e in index.values())
    hits = [
        (index[image_id], payload.record)
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
    preserved. The old index is read only for those labels, and leniently:
    a row that is bad, not UTF-8 or repeats an earlier id is skipped with
    one warning naming the file and the line, and an id on more than one
    row keeps no label. The rebuilt index replaces the file at index_path.
    The report lists files that changed or created their row (repaired),
    files the scan skips (unreadable: no parseable payload, or an empty
    descriptor) and files whose id was already claimed by an earlier file
    or whose id or path IndexEntry refuses (conflicting). A file whose id
    lost its old row counts as repaired.
    """
    store = os.fspath(store_dir)
    report = RelinkReport()
    rebuilt: dict[str, IndexEntry] = {}
    # The whole rebuild holds the writers' lock: a row that index_add
    # appended after the old index was read would be lost by the save.
    with _writers_lock(index_path):
        old = _load_rows(index_path, lambda message: logger.warning("relink skips %s", message))
        with _io_failure(f"cannot scan store {store!r}"):
            names = sorted(os.listdir(store))
        files = ((n, os.path.join(store, n)) for n in names if n.endswith(".pgm"))
        for _, path, payload in _scan_payloads(files, report.unreadable):
            image_id = os.path.splitext(os.path.basename(payload.locator))[0]
            previous = old.get(image_id)
            try:
                entry = IndexEntry(image_id, path, previous.class_label if previous else "")
            except ValueError:
                entry = None
            if entry is None or image_id in rebuilt:
                report.conflicting.append(path)
                continue
            rebuilt[image_id] = entry
            if previous is None or previous.locator != path:
                report.repaired.append(path)
        new_index = Index(sorted(rebuilt.items()))
        new_index.save(index_path)
    return new_index, report
