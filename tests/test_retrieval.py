"""Index file handling, the store pipeline, querying, and link repair."""

import errno
import fcntl
import io
import logging
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import lbpmarkdex
from lbpmarkdex import (
    GrayImage,
    Index,
    IndexEntry,
    Payload,
    compute_descriptor,
    embed,
    encode_payload,
    index_add,
    load_pgm,
    query_by_image,
    query_by_patient_id,
    read_stored,
    relink,
    restore_stored,
    save_pgm,
)
from lbpmarkdex import cli, descriptor, image_io, retrieval
from lbpmarkdex.errors import (
    DuplicateId,
    EmptyIndex,
    FieldTooLong,
    ImageTooSmall,
    IoFailure,
    OutOfRange,
    PayloadTooLarge,
    UnsupportedVersion,
)
from lbpmarkdex.watermark import _layout, _pair_words, _slots

from helpers import (
    CacheClock,
    ctime_past,
    flip_stream_bit,
    parse_wire,
    sample_patient,
    save_empty_descriptor_file,
    save_non_utf8_file,
    smooth_noise_image,
)


def _index_file(tmp_path, text: str) -> Path:
    """An index file at tmp_path / "i.tsv" holding text."""
    path = tmp_path / "i.tsv"
    path.write_bytes(text.encode("utf-8"))
    return path


class TestIndexFile:
    def test_parse_skips_comments_and_blanks(self, tmp_path):
        text = "# heading\n\na\tstore/a.pgm\t\n   \nb\tstore/b.pgm\tx\n"
        index = Index.load(_index_file(tmp_path, text))
        assert len(index) == 2
        assert index.get("b").class_label == "x"

    def test_two_field_lines_allowed(self, tmp_path):
        index = Index.load(_index_file(tmp_path, "a\tstore/a.pgm\n"))
        assert index.get("a").class_label == ""

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(IoFailure):
            Index.load(_index_file(tmp_path, "only_one_field\n"))

    def test_unterminated_last_line_that_does_not_parse_is_skipped(self, tmp_path, caplog):
        """A line is a row only once its "\n" is written: a last line
        without one is an append cut short or still in flight, skipped with
        one warning. So is one that parses, since a row cut after a tab
        ("a\tx\ttum" of "a\tx\ttumour") parses too."""
        source = f"index {str(tmp_path / 'i.tsv')!r}"
        for torn in ("bbbb", "\tx", "b\tx\ty\tz", "b\ty", "a\tx\ttum"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
                assert Index.load(_index_file(tmp_path, f"a\tx\n{torn}")) == {"a": IndexEntry("a", "x")}
            assert len(caplog.records) == 1
            assert f"{source} line 2, an unterminated last line" in caplog.records[0].getMessage()
        for bad in ("bbbb", "\tx", "b\tx\ty\tz"):
            with pytest.raises(IoFailure, match=re.escape(f"{source} line 2")):
                Index.load(_index_file(tmp_path, f"a\tx\n{bad}\n"))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            assert Index.load(_index_file(tmp_path, "a\tx\nb\ty\n")) == {"a": IndexEntry("a", "x"), "b": IndexEntry("b", "y")}
        assert caplog.records == []

    def test_duplicate_rejected(self, tmp_path):
        """A second row of an id is a bad line: IoFailure naming the file,
        the repeat and the id's first line."""
        path = _index_file(tmp_path, "a\tx\n# note\nb\ty\na\tx\tL\n")
        with pytest.raises(IoFailure) as raised:
            Index.load(path)
        assert str(raised.value) == f"index {str(path)!r} line 4: repeats image_id 'a' of line 1"

    def test_an_index_equals_the_dict_of_its_rows(self):
        rows = {"a": IndexEntry("a", "s/a.pgm"), "b": IndexEntry("b", "s/b.pgm", "L")}
        assert Index(rows) == rows
        assert Index(rows) != {"a": rows["a"]}
        assert (Index() == 0) is False
        assert (Index() != ()) is True

    def test_tabs_in_fields_rejected(self):
        with pytest.raises(ValueError):
            IndexEntry("a\tb", "x")
        with pytest.raises(ValueError):
            IndexEntry("a", "x", "lab\nel")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            IndexEntry("", "x")

    @pytest.mark.parametrize(
        "fields", [("#a", "x"), ("\x85#x", "x"), (" #a", "x"), (" ", "#x"), (" ", " ")]
    )
    def test_row_read_as_comment_or_blank_rejected(self, tmp_path, fields):
        # Such a row would be written but skipped by every later load.
        assert Index.load(_index_file(tmp_path, f"{fields[0]}\t{fields[1]}\t\n")) == Index()
        with pytest.raises(ValueError):
            IndexEntry(*fields)

    def test_crlf_lines_read(self, tmp_path):
        index = Index.load(_index_file(tmp_path, "a\tstore/a.pgm\tL\r\nb\tstore/b.pgm\r\n"))
        assert [e.image_id for e in index.values()] == ["a", "b"]
        assert index.get("a").class_label == "L"
        assert index.get("b").locator == "store/b.pgm"

    def test_only_newline_ends_a_row(self, tmp_path):
        # str.splitlines would also break at U+0085, U+2028, \x1c and \f
        text = "a\x85b\ts/1.pgm\nc\u2028d\ts/2.pgm\ne\x1cf\fg\ts/3.pgm\n"
        index = Index.load(_index_file(tmp_path, text))
        assert [e.image_id for e in index.values()] == ["a\x85b", "c\u2028d", "e\x1cf\fg"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert len(Index.load(tmp_path / "absent.tsv")) == 0

    def test_save_load_round_trip(self, tmp_path):
        index = Index({"a": IndexEntry("a", "s/a.pgm", "L"), "b": IndexEntry("b", "s/b.pgm", "")})
        path = tmp_path / "idx.tsv"
        index.save(path)
        assert Index.load(path) == index

    def test_parse_render_round_trip(self, tmp_path):
        # The written text form: one tab-separated line per entry, an empty
        # label kept as a trailing tab; read back, it is the same index.
        index = Index({"a": IndexEntry("a", "store/a.pgm", "classA"), "b": IndexEntry("b", "store/b.pgm", "")})
        path = tmp_path / "idx.tsv"
        index.save(path)
        text = path.read_text(encoding="utf-8")
        assert text == "a\tstore/a.pgm\tclassA\nb\tstore/b.pgm\t\n"
        assert Index.load(_index_file(tmp_path, text)) == index

    def test_load_of_a_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot read index"):
            Index.load(tmp_path)

    def test_save_into_a_missing_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot write index"):
            Index({"a": IndexEntry("a", "s/a.pgm")}).save(tmp_path / "absent" / "idx.tsv")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """Six indexed noise images; two share a patient id."""
    root = tmp_path_factory.mktemp("store_fixture")
    index_path = str(root / "index.tsv")
    store_dir = str(root / "files")
    rng = np.random.default_rng(101)
    originals = {}
    for i in range(6):
        image_id = f"img{i:03d}"
        img = smooth_noise_image(rng, 160, 160)
        patient = sample_patient(i if i != 3 else 2)  # img002/img003 share P0002
        index_add(index_path, img, image_id, patient, store_dir)
        originals[image_id] = img
    return {"index": index_path, "dir": store_dir, "originals": originals}


class TestIndexAdd:
    def test_locator_convention_and_file_exists(self, store):
        entry = Index.load(store["index"]).get("img000")
        assert entry.locator == os.path.join(store["dir"], "img000.pgm")
        assert os.path.exists(entry.locator)

    def test_payload_matches_original(self, store):
        """The stored file must carry the descriptor of the original image
        and restore that image byte for byte."""
        entry = Index.load(store["index"]).get("img004")
        payload = read_stored(entry.locator)
        restored = restore_stored(entry.locator)
        original = store["originals"]["img004"]
        assert np.array_equal(
            payload.descriptor, compute_descriptor(original)
        )
        assert restored == original
        assert payload.locator == entry.locator
        assert payload.record.patient_id == "P0004"

    def test_duplicate_id_rejected(self, store, tmp_path):
        rng = np.random.default_rng(5)
        with pytest.raises(DuplicateId):
            index_add(
                store["index"],
                smooth_noise_image(rng, 160, 160),
                "img000",
                sample_patient(9),
                store["dir"],
            )

    def test_saturated_image_rejected(self, tmp_path):
        img = GrayImage(np.full((16, 16), 255))
        with pytest.raises(PayloadTooLarge):
            index_add(
                str(tmp_path / "i.tsv"), img, "sat", sample_patient(0), str(tmp_path / "s")
            )

    def test_image_too_small_for_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        img = smooth_noise_image(rng, 64, 64)  # ~1.4k bits < ~8.6k needed
        with pytest.raises(PayloadTooLarge):
            index_add(
                str(tmp_path / "i.tsv"), img, "tiny", sample_patient(0), str(tmp_path / "s")
            )


    def test_reindex_after_index_loss_keeps_stored_file(self, tmp_path):
        rng = np.random.default_rng(14)
        index_path = str(tmp_path / "i.tsv")
        store_dir = str(tmp_path / "s")
        entry = index_add(
            index_path, smooth_noise_image(rng, 160, 160), "kept", sample_patient(1), store_dir
        )
        stored = Path(entry.locator).read_bytes()
        os.unlink(index_path)
        with pytest.raises(DuplicateId):
            index_add(
                index_path, smooth_noise_image(rng, 160, 160), "kept", sample_patient(2), store_dir
            )
        assert Path(entry.locator).read_bytes() == stored
        assert os.listdir(store_dir) == ["kept.pgm"]
        assert len(Index.load(index_path)) == 0

    def test_stale_temporary_linked_to_the_stored_file_leaves_it_alone(self, tmp_path):
        # A writer killed between linking the stored file and removing its
        # temporary leaves that name behind as a link to the stored file.
        rng = np.random.default_rng(19)
        index_path = str(tmp_path / "i.tsv")
        store_dir = tmp_path / "s"
        entry = index_add(
            index_path, smooth_noise_image(rng, 160, 160), "a", sample_patient(1), str(store_dir)
        )
        stored = Path(entry.locator).read_bytes()
        Index().save(index_path)
        os.link(entry.locator, f"{entry.locator}.tmp.{os.getpid()}")
        with pytest.raises(DuplicateId):
            index_add(
                index_path, smooth_noise_image(rng, 160, 160), "a", sample_patient(2), str(store_dir)
            )
        assert Path(entry.locator).read_bytes() == stored
        assert os.listdir(store_dir) == ["a.pgm"]

    def test_failed_store_write_leaves_no_file(self, tmp_path, monkeypatch):
        def disk_full(path, img):
            with open(path, "wb") as fh:
                fh.write(b"P5\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(retrieval, "save_pgm", disk_full)
        store_dir = tmp_path / "s"
        with pytest.raises(IoFailure):
            index_add(
                str(tmp_path / "i.tsv"),
                smooth_noise_image(np.random.default_rng(15), 160, 160),
                "full",
                sample_patient(0),
                str(store_dir),
            )
        assert os.listdir(store_dir) == []
        assert len(Index.load(tmp_path / "i.tsv")) == 0

    def test_store_path_that_is_a_file_is_io_failure(self, tmp_path):
        """makedirs' FileExistsError is the store's IoFailure, not DuplicateId."""
        index_path, store_dir = tmp_path / "i.tsv", tmp_path / "s"
        store_dir.write_bytes(b"")
        img = smooth_noise_image(np.random.default_rng(22), 160, 160)
        with pytest.raises(IoFailure, match="cannot store"):
            index_add(str(index_path), img, "a", sample_patient(0), str(store_dir))
        assert store_dir.read_bytes() == b""
        assert len(Index.load(index_path)) == 0

    def test_short_row_append_is_io_failure_and_relink_repairs_it(self, tmp_path, monkeypatch):
        """A short write of the appended row (here, none of it written)
        raises IoFailure once the file is linked into place: the stored file
        stays, and relink lists it as repaired."""
        index_path, store_dir = tmp_path / "i.tsv", str(tmp_path / "s")
        img = smooth_noise_image(np.random.default_rng(21), 160, 160)
        locator = retrieval.locator_for(store_dir, "a")
        row, write = f"a\t{locator}\t\n".encode("utf-8"), os.write
        monkeypatch.setattr(os, "write", lambda fd, data: 0 if type(data) is bytes and data == row else write(fd, data))
        with pytest.raises(IoFailure, match=re.escape(f"cannot write index {str(index_path)!r}: short write")):
            index_add(str(index_path), img, "a", sample_patient(0), store_dir)
        monkeypatch.undo()
        assert restore_stored(locator) == img
        assert len(Index.load(index_path)) == 0
        _, report = relink(store_dir, index_path)
        assert report.repaired == [locator]
        assert [p for p in tmp_path.rglob("*") if ".tmp." in p.name] == []

    def test_unopenable_lock_file_is_io_failure(self, tmp_path):
        """The lock file is opened where the lock is taken, after the
        temporary is written: the store directory is made but holds no file."""
        index_path = tmp_path / "i.tsv"
        (tmp_path / "i.tsv.lock").mkdir()  # a directory cannot be opened for writing
        img = smooth_noise_image(np.random.default_rng(16), 160, 160)
        with pytest.raises(IoFailure, match="cannot open lock file"):
            index_add(str(index_path), img, "a", sample_patient(0), str(tmp_path / "s"))
        assert os.listdir(tmp_path / "s") == []
        assert not index_path.exists()

    def test_new_index_and_lock_file_are_rw_r__r__(self, tmp_path):
        index_path = tmp_path / "i.tsv"
        img = smooth_noise_image(np.random.default_rng(16), 160, 160)
        umask = os.umask(0o022)
        try:
            index_add(str(index_path), img, "a", sample_patient(0), str(tmp_path / "s"))
        finally:
            os.umask(umask)
        assert stat.S_IMODE(index_path.stat().st_mode) == 0o644
        assert stat.S_IMODE((tmp_path / "i.tsv.lock").stat().st_mode) == 0o644

    def test_writers_create_a_missing_index_directory(self, tmp_path):
        index_path = tmp_path / "new" / "deeper" / "i.tsv"
        store_dir = str(tmp_path / "s")
        img = smooth_noise_image(np.random.default_rng(16), 160, 160)
        entry = index_add(str(index_path), img, "a", sample_patient(0), store_dir)
        assert Index.load(index_path).get("a") == entry
        rebuilt, report = relink(store_dir, str(tmp_path / "other" / "i.tsv"))
        assert rebuilt.get("a") == entry and report.repaired == [entry.locator]

    def test_id_with_unicode_line_separator_round_trips(self, tmp_path):
        index_path = str(tmp_path / "i.tsv")
        store_dir = str(tmp_path / "s")
        img = smooth_noise_image(np.random.default_rng(17), 160, 160)
        entry = index_add(index_path, img, "a\x85b", sample_patient(0), store_dir)
        assert Index.load(index_path).get("a\x85b") == entry
        os.unlink(index_path)
        rebuilt, report = relink(store_dir, index_path)
        assert rebuilt.get("a\x85b").locator == entry.locator
        assert report.repaired == [entry.locator]
        assert Index.load(index_path) == rebuilt

    def test_index_without_final_newline_takes_a_new_row(self, tmp_path):
        # A complete row without its "\n" cannot be told from one cut after
        # a tab, so it is no row: the next add replaces it with its own.
        index_path = tmp_path / "i.tsv"
        index_path.write_text("a\tstore/a.pgm", encoding="utf-8")
        assert len(Index.load(index_path)) == 0
        img = smooth_noise_image(np.random.default_rng(18), 160, 160)
        entry = index_add(str(index_path), img, "b", sample_patient(0), str(tmp_path / "s"))
        assert index_path.read_bytes() == f"b\t{entry.locator}\t\n".encode("utf-8")
        assert Index.load(index_path) == {"b": entry}

    @pytest.mark.parametrize(
        "image_id, class_label, store_name, field",
        [("b\udc80", "", "s", "image_id"), ("b", "\udc80", "s", "class_label"), ("b", "", "s\udcff", "locator")],
        ids=["id", "label", "store"],
    )
    def test_lone_surrogate_raises_before_any_file(self, tmp_path, image_id, class_label, store_name, field):
        """A lone surrogate (what a non-UTF-8 byte of a command-line
        argument decodes to) in the id, the label or the store path: the
        entry's field check names the field in the id step, so the call
        makes no file, row, temporary or lock file, and the id can still
        be added."""
        index_path = tmp_path / "i.tsv"
        index_path.write_bytes(b"a\ts/a.pgm\t\n")
        img = smooth_noise_image(np.random.default_rng(23), 160, 160)
        with pytest.raises(IoFailure, match=f"^{field} is not UTF-8 text: .* surrogates not allowed$"):
            index_add(str(index_path), img, image_id, sample_patient(0), str(tmp_path / store_name), class_label)
        assert [p.name for p in tmp_path.iterdir()] == ["i.tsv"]
        assert index_path.read_bytes() == b"a\ts/a.pgm\t\n"
        entry = index_add(str(index_path), img, "b", sample_patient(0), str(tmp_path / "s"))
        assert list(Index.load(index_path).values()) == [IndexEntry("a", "s/a.pgm"), entry]

    def test_all_whitespace_id_is_refused(self, tmp_path):
        """A line that starts with "  \t" may be a comment, as here, so the
        byte check for "<id>\t" could not tell it from a row: writers
        refuse such an id before any file is made."""
        index_path = tmp_path / "i.tsv"
        index_path.write_text("  \t# a comment\n", encoding="utf-8")
        img = smooth_noise_image(np.random.default_rng(24), 160, 160)
        for image_id in ("  ", "\x85"):
            with pytest.raises(IoFailure, match="all whitespace"):
                index_add(str(index_path), img, image_id, sample_patient(0), str(tmp_path / "s"))
        assert [p.name for p in tmp_path.iterdir()] == ["i.tsv"]

    def test_add_builds_no_index(self, tmp_path, monkeypatch):
        """The duplicate check reads the index bytes: it neither loads an
        Index nor parses a row."""

        def no_index(*args, **kwargs):
            raise AssertionError("index_add built an Index")

        monkeypatch.setattr(Index, "load", no_index)
        monkeypatch.setattr(retrieval, "_parse_tsv", no_index)
        index_path, store_dir = str(tmp_path / "i.tsv"), str(tmp_path / "s")
        rng = np.random.default_rng(25)
        entry = index_add(index_path, smooth_noise_image(rng, 160, 160), "a", sample_patient(0), store_dir)
        with pytest.raises(DuplicateId, match="already indexed"):
            index_add(index_path, smooth_noise_image(rng, 160, 160), "a", sample_patient(1), store_dir)
        monkeypatch.undo()
        assert Index.load(index_path) == {"a": entry}

    def test_add_appends_its_row_and_keeps_every_earlier_byte(self, tmp_path):
        index_path = tmp_path / "i.tsv"
        before = "# written by hand\n\na\tstore/a.pgm\r\nb\tstore/b.pgm\tcls\n"
        index_path.write_text(before, encoding="utf-8", newline="")
        inode = index_path.stat().st_ino
        img = smooth_noise_image(np.random.default_rng(20), 160, 160)
        entry = index_add(str(index_path), img, "c", sample_patient(0), str(tmp_path / "s"), "x")
        assert index_path.read_bytes() == f"{before}c\t{entry.locator}\tx\n".encode("utf-8")
        assert index_path.stat().st_ino == inode


_WRITER = """
import os, sys, time
import numpy as np
from lbpmarkdex import index_add
from helpers import sample_patient, smooth_noise_image
index_path, store_dir, go, worker = sys.argv[1:]
images = [smooth_noise_image(np.random.default_rng(300 + 3 * int(worker) + j), 160, 160) for j in range(3)]
while not os.path.exists(go):
    time.sleep(0.005)
for j, img in enumerate(images):
    index_add(index_path, img, f"w{worker}-{j}", sample_patient(j), store_dir)
"""


def test_concurrent_writers_keep_every_row(tmp_path):
    """Four processes each index three images into one index and store,
    starting together; the writers' lock must keep all twelve rows."""
    index_path, store_dir, go = tmp_path / "i.tsv", tmp_path / "s", tmp_path / "go"
    paths = [str(Path(lbpmarkdex.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    args = [sys.executable, "-c", _WRITER, str(index_path), str(store_dir), str(go)]
    procs = [subprocess.Popen([*args, str(w)], env=env) for w in range(4)]
    try:
        go.touch()
        assert [p.wait(timeout=120) for p in procs] == [0] * 4
    finally:
        for p in procs:
            p.kill()
    index = Index.load(index_path)
    ids = [f"w{w}-{j}" for w in range(4) for j in range(3)]
    assert sorted(e.image_id for e in index.values()) == ids
    for image_id in ids:
        locator = index.get(image_id).locator
        w, j = map(int, image_id[1:].split("-"))
        assert restore_stored(locator) == smooth_noise_image(np.random.default_rng(300 + 3 * w + j), 160, 160)
        assert read_stored(locator).locator == locator
    assert [p for p in tmp_path.rglob("*") if ".tmp." in p.name] == []


def _blocked_image(rng: np.random.Generator, width: int, height: int) -> GrayImage:
    """Smooth noise whose top rows hold pairs (0, odd) and (255, odd): pairs
    that carry no stream bit, so embed takes its scatter path."""
    pixels = smooth_noise_image(rng, width, height).pixels.copy()
    pixels[:8, 0::2] = np.where(np.arange(width // 2) % 2, 255, 0)
    pixels[:8, 1::2] = 77
    return GrayImage(pixels)


class TestIndexAddThreads:
    """index_add computes the descriptor (pyramid and LBP histograms) on a
    second thread for an image of at least THREAD_MIN_PIXELS pixels, and on
    the caller below that; the bytes it stores and the row it adds are the
    same either way."""

    @pytest.fixture
    def descriptor_threads(self, monkeypatch):
        """(function, thread name) of each build_pyramid and lbp_histogram
        call that compute_descriptor makes, in call order."""
        calls = []

        def record(name):
            original = getattr(descriptor, name)

            def recording(arg):
                calls.append((name, threading.current_thread().name))
                return original(arg)

            monkeypatch.setattr(descriptor, name, recording)

        record("build_pyramid")
        record("lbp_histogram")
        return calls

    @pytest.fixture(params=[256, 512], ids=["serial", "threaded"])
    def side(self, request):
        """The side of a square image indexed below the rule and of one
        indexed at it."""
        assert (request.param**2 >= retrieval.THREAD_MIN_PIXELS) == (request.param == 512)
        return request.param

    @pytest.fixture
    def thin_shapes(self, side):
        """Shapes of side**2 pixels each, so on the same side of the rule,
        with a level-2 side of 2, 1 and 1: compute_descriptor raises
        ImageTooSmall for each. The single column has no pair, so marking
        it raises PayloadTooLarge first; the other two carry the payload."""
        pixels = side * side
        return ((pixels // 8, 8), (1, pixels), (pixels, 1))

    @pytest.mark.parametrize(
        "width, height, blocked, threaded",
        [
            (256, 256, False, False),
            (511, 512, False, False),  # 261,632 pixels: just below the rule
            (512, 512, False, True),  # 2**18 pixels: at the rule
            (1024, 768, False, True),
            (1023, 300, False, True),  # odd width: the last column holds no pair
            (600, 512, True, True),
        ],
    )
    def test_stored_bytes_and_row_equal_embed_of_the_descriptor(
        self, tmp_path, descriptor_threads, width, height, blocked, threaded
    ):
        rng = np.random.default_rng(width * height)
        img = (_blocked_image if blocked else smooth_noise_image)(rng, width, height)
        assert bool(_slots(_pair_words(img))[0].any()) == blocked
        assert (img.pixels.size >= retrieval.THREAD_MIN_PIXELS) == threaded
        index_path, record = tmp_path / "i.tsv", sample_patient(7)
        entry = index_add(str(index_path), img, "d", record, str(tmp_path / "s"), "cls")
        main = threading.current_thread().name
        assert [name for name, _ in descriptor_threads] == ["build_pyramid"] + ["lbp_histogram"] * 3
        assert all((thread != main) == threaded for _, thread in descriptor_threads)
        expected = tmp_path / "expected.pgm"
        payload = Payload(descriptor=compute_descriptor(img), locator=entry.locator, record=record)
        save_pgm(expected, embed(img, encode_payload(payload)))
        assert Path(entry.locator).read_bytes() == expected.read_bytes()
        assert index_path.read_text(encoding="utf-8") == f"d\t{entry.locator}\tcls\n"

    def test_worker_exception_is_raised_and_nothing_is_stored(self, tmp_path, monkeypatch):
        failure = RuntimeError("histogram failed")
        threads = []

        def failing(level):
            threads.append(threading.current_thread())
            raise failure

        monkeypatch.setattr(descriptor, "lbp_histogram", failing)
        img = smooth_noise_image(np.random.default_rng(40), 512, 512)
        index_path, store_dir = tmp_path / "i.tsv", tmp_path / "s"
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            index_add(str(index_path), img, "a", sample_patient(0), str(store_dir))
        assert info.value is failure
        assert threads and threads[0] is not threading.current_thread()
        assert threading.active_count() == before
        assert not store_dir.exists() or os.listdir(store_dir) == []
        assert len(Index.load(index_path)) == 0

    def test_thread_is_joined_after_each_call(self, tmp_path):
        before = threading.active_count()
        img = smooth_noise_image(np.random.default_rng(41), 512, 512)
        index_add(str(tmp_path / "i.tsv"), img, "a", sample_patient(0), str(tmp_path / "s"))
        assert threading.active_count() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_stays_open(self, tmp_path, side):
        """The lock file, the temporary's rewrite and the append each close
        what they open, on success and on failure; so does relink."""
        index_path, store_dir = str(tmp_path / "i.tsv"), str(tmp_path / "s")
        rng = np.random.default_rng(48)
        index_add(index_path, smooth_noise_image(rng, side, side), "w", sample_patient(0), store_dir)
        before = len(os.listdir("/proc/self/fd"))
        index_add(index_path, smooth_noise_image(rng, side, side), "a", sample_patient(1), store_dir)
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(DuplicateId):  # after the rewrite and the lock
            index_add(index_path, smooth_noise_image(rng, side, side), "a", sample_patient(2), store_dir)
        assert len(os.listdir("/proc/self/fd")) == before
        relink(store_dir, index_path)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_error_order(self, tmp_path, side, thin_shapes):
        """A call with faults at two neighbouring steps raises the error of
        the earlier one: the id, the encoding, the marking, the store
        directory, the descriptor, the lock, the index, the link."""
        index_path, store_dir = str(tmp_path / "i.tsv"), str(tmp_path / "s")
        rng = np.random.default_rng(42)
        entry = index_add(index_path, smooth_noise_image(rng, side, side), "a", sample_patient(0), store_dir)
        # A stored file whose row the index has lost.
        kept = {"a.pgm": Path(entry.locator).read_bytes(), "c.pgm": b"kept"}
        Path(store_dir, "c.pgm").write_bytes(kept["c.pgm"])
        # An index that already holds "a", whose lock file is a directory,
        # which cannot be opened for writing.
        locked = str(tmp_path / "locked.tsv")
        Path(locked).write_text(f"a\t{entry.locator}\t\n", encoding="utf-8")
        os.mkdir(locked + ".lock")
        store_file = str(tmp_path / "file")
        Path(store_file).write_bytes(b"")
        # The locator, this directory plus "/a.pgm", passes the payload's
        # limit of 65,535 UTF-8 bytes; the directory is never made.
        long_store = str(tmp_path / ("x" * (1 << 16)))
        fits = smooth_noise_image(rng, side, side)
        saturated = GrayImage(np.full((side, side), 255))  # every pair blocked
        wide, column, row = (smooth_noise_image(rng, width, height) for width, height in thin_shapes)
        cases = [
            (index_path, saturated, "a/b", long_store, IoFailure, "not a single path component"),
            (locked, saturated, "a", long_store, FieldTooLong, "locator is"),
            (locked, saturated, "a", store_file, PayloadTooLarge, None),
            (index_path, column, "a", store_file, PayloadTooLarge, None),
            (index_path, wide, "a", store_file, IoFailure, "cannot store"),
            (locked, wide, "a", store_dir, ImageTooSmall, None),
            (locked, row, "a", store_dir, ImageTooSmall, None),
            (locked, fits, "a", store_dir, IoFailure, "cannot open lock file"),
            (index_path, fits, "a", store_dir, DuplicateId, "already indexed"),
            (index_path, fits, "c", store_dir, DuplicateId, "already has a stored file"),
        ]
        before = threading.active_count()
        for index, img, image_id, store, expected, match in cases:
            with pytest.raises(expected, match=match):
                index_add(index, img, image_id, sample_patient(1), store)
            assert threading.active_count() == before
        assert {p.name: p.read_bytes() for p in Path(store_dir).iterdir()} == kept
        assert [e.image_id for e in Index.load(index_path).values()] == ["a"]
        assert Path(store_file).read_bytes() == b""
        assert Path(locked).read_text(encoding="utf-8") == f"a\t{entry.locator}\t\n"
        assert not os.path.exists(long_store)
        assert [p for p in tmp_path.rglob("*") if ".tmp." in p.name] == []

    @pytest.mark.parametrize("failure", ["descriptor", "save_pgm", "short_rewrite", "stale_link", "lock", "flock"])
    def test_failure_leaves_no_file_row_or_temporary(self, tmp_path, monkeypatch, side, failure):
        """A call that fails while or after the descriptor is computed
        stores nothing, leaves the index as it was, and leaves no temporary
        name and no thread."""
        index_path, store_dir = tmp_path / "i.tsv", tmp_path / "s"
        rng = np.random.default_rng(44)
        img = smooth_noise_image(rng, side, side)
        kept = {}
        if failure == "descriptor":
            expected, match = ZeroDivisionError, None
            monkeypatch.setattr(descriptor, "lbp_histogram", lambda level: 1 / 0)
        elif failure == "save_pgm":

            def disk_full(path, image):
                Path(path).write_bytes(b"P5\n")
                raise OSError(28, "No space left on device")

            expected, match = IoFailure, "cannot store"
            monkeypatch.setattr(retrieval, "save_pgm", disk_full)
        elif failure == "short_rewrite":
            # The one pwrite is the rewrite of the rows that carry the
            # descriptor and the CRC.
            expected, match = IoFailure, "cannot store .*short write"
            monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
        elif failure == "stale_link":
            # A stale temporary of this pid, hard-linked to a stored file:
            # the provisional write and the row rewrite must not reach it.
            expected, match = DuplicateId, None
            entry = index_add(str(index_path), smooth_noise_image(rng, side, side), "a", sample_patient(1), str(store_dir))
            kept["a.pgm"] = Path(entry.locator).read_bytes()
            os.link(entry.locator, f"{entry.locator}.tmp.{os.getpid()}")
        elif failure == "lock":
            expected, match = IoFailure, "cannot open lock file"
            (tmp_path / "i.tsv.lock").mkdir()
        else:

            def no_locks(fd, operation):
                raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

            expected, match = IoFailure, re.escape(f"cannot lock {str(index_path) + '.lock'!r}")
            monkeypatch.setattr(fcntl, "flock", no_locks)
        rows = "# kept\nz\telsewhere/z.pgm\t\n"
        index_path.write_text(rows, encoding="utf-8")
        before = threading.active_count()
        with pytest.raises(expected, match=match):
            index_add(str(index_path), img, "a", sample_patient(0), str(store_dir))
        assert threading.active_count() == before
        # One step order on both sides of the rule: the caller's steps,
        # the store directory among them, run before the descriptor is
        # taken and the lock file opened.
        assert {p.name: p.read_bytes() for p in store_dir.iterdir()} == kept
        assert index_path.read_text(encoding="utf-8") == rows
        assert [p for p in tmp_path.rglob("*") if ".tmp." in p.name] == []

    def test_store_failures_are_raised_at_their_step(self, tmp_path, monkeypatch, side, thin_shapes):
        """Faults no input can make, each with a fault at a later step: the
        write of the temporary, the row rewrite, the flock, the link (a
        cross-device link, not an existing file) and the index write (a
        short os.write of the row). The earlier step's error is raised."""
        index_path, store_dir = str(tmp_path / "i.tsv"), str(tmp_path / "s")
        rng = np.random.default_rng(45)
        entry = index_add(index_path, smooth_noise_image(rng, side, side), "a", sample_patient(0), store_dir)
        kept = {"a.pgm": Path(entry.locator).read_bytes()}

        def failing(code):
            def fail(*args):
                raise OSError(code, os.strerror(code))

            return fail

        faults = {
            "save": (retrieval, "save_pgm", failing(errno.ENOSPC)),
            "rewrite": (os, "pwrite", lambda fd, data, offset: 0),
            "flock": (fcntl, "flock", failing(errno.ENOLCK)),
            "link": (os, "link", failing(errno.EXDEV)),
            "append": (os, "write", lambda fd, data: 0),
        }
        fits, thin = smooth_noise_image(rng, side, side), smooth_noise_image(rng, *thin_shapes[0])
        cases = [
            (("save",), thin, "b", IoFailure, "cannot store .*No space left"),
            (("save",), fits, "a", IoFailure, "cannot store .*No space left"),
            (("rewrite",), thin, "b", ImageTooSmall, None),
            (("rewrite", "flock"), fits, "b", IoFailure, "cannot store .*short write"),
            (("flock",), fits, "a", IoFailure, "cannot lock"),
            (("link",), fits, "a", DuplicateId, "already indexed"),
            (("link", "append"), fits, "b", IoFailure, "cannot store .*cross-device"),
        ]
        before = threading.active_count()
        for names, img, image_id, expected, match in cases:
            with monkeypatch.context() as patch:
                for name in names:
                    patch.setattr(*faults[name])
                with pytest.raises(expected, match=match):
                    index_add(index_path, img, image_id, sample_patient(1), store_dir)
            assert threading.active_count() == before
        assert {p.name: p.read_bytes() for p in Path(store_dir).iterdir()} == kept
        assert [e.image_id for e in Index.load(index_path).values()] == ["a"]
        assert [p for p in tmp_path.rglob("*") if ".tmp." in p.name] == []

    def test_blocked_pairs_among_the_descriptor_bits(self, tmp_path):
        """Blocked pairs in every row, so the slot order that maps the
        rewritten stream bits to pairs skips some inside their span."""
        rng = np.random.default_rng(46)
        pixels = smooth_noise_image(rng, 512, 512).pixels.copy()
        pixels[:, 0:64:2] = np.where(np.arange(512) % 2, 255, 0)[:, None]
        pixels[:, 1:64:2] = 77
        img = GrayImage(pixels)
        record, locator = sample_patient(3), retrieval.locator_for(tmp_path / "s", "d")
        real = encode_payload(Payload(descriptor=compute_descriptor(img), locator=locator, record=record))
        zero = encode_payload(Payload(descriptor=np.zeros(256, np.int64), locator=locator, record=record))
        differ = np.flatnonzero(np.unpackbits(np.frombuffer(real, np.uint8)) != np.unpackbits(np.frombuffer(zero, np.uint8)))
        blocked = _slots(_pair_words(img))[0].ravel()
        head = _layout(img)[4]
        pairs = np.flatnonzero(~blocked)[head.size + differ]
        assert blocked[pairs[0] : pairs[-1]].any()
        entry = index_add(str(tmp_path / "i.tsv"), img, "d", record, str(tmp_path / "s"))
        expected = tmp_path / "expected.pgm"
        save_pgm(expected, embed(img, real))
        assert Path(entry.locator).read_bytes() == expected.read_bytes()

    def test_threads_adding_one_id_store_one_whole_file(self, tmp_path):
        """Three threads of one process add the same id at once: one stores
        its own image and row, the others get DuplicateId. Each writes its
        temporary, before taking the lock, under a name of its own."""
        rng = np.random.default_rng(47)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(6):
                index_path, store_dir = str(tmp_path / f"i{trial}.tsv"), str(tmp_path / f"s{trial}")
                images = [smooth_noise_image(rng, 512, 512) for _ in range(3)]
                start, outcomes = threading.Barrier(3, timeout=60), [None] * 3

                def add(k):
                    start.wait()
                    try:
                        index_add(index_path, images[k], "same", sample_patient(k), store_dir)
                        outcomes[k] = "stored"
                    except DuplicateId:
                        outcomes[k] = "duplicate"

                threads = [threading.Thread(target=add, args=(k,)) for k in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(outcomes) == ["duplicate", "duplicate", "stored"]
                winner = outcomes.index("stored")
                locator = retrieval.locator_for(store_dir, "same")
                assert restore_stored(locator) == images[winner]
                assert read_stored(locator).record == sample_patient(winner)
                assert os.listdir(store_dir) == ["same.pgm"]
                assert [e.image_id for e in Index.load(index_path).values()] == ["same"]
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_indexes_after_a_threaded_call(self, tmp_path):
        """A worker pool made once per process would have no threads in a
        forked child, and its next index_add would wait for ever."""
        index_path, store_dir = str(tmp_path / "i.tsv"), str(tmp_path / "s")
        rng = np.random.default_rng(43)
        parent_img, child_img = (smooth_noise_image(rng, 512, 512) for _ in range(2))
        index_add(index_path, parent_img, "parent", sample_patient(0), store_dir)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                index_add(index_path, child_img, "child", sample_patient(1), store_dir)
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("index_add in the forked child did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(waited[1]) == 0
        index = Index.load(index_path)
        assert [e.image_id for e in index.values()] == ["parent", "child"]
        assert restore_stored(index.get("child").locator) == child_img


class TestReadStored:
    def test_header_bits_outside_checksum_rejected(self, store, tmp_path):
        """Every single-bit flip of the payload's flags byte (offset 5) or
        reserved bytes (14, 15) makes the file unreadable: the body
        checksum does not cover them."""
        locator = Index.load(store["index"]).get("img001").locator
        marked = load_pgm(locator)
        data_start = parse_wire(marked.pixels.astype(np.int64))["data_start"]
        tampered_path = tmp_path / "tampered.pgm"
        accepted = []
        for offset in (5, 14, 15):
            for bit in range(8):
                save_pgm(tampered_path, flip_stream_bit(marked, data_start + 8 * offset + bit))
                try:
                    read_stored(tampered_path)
                except UnsupportedVersion:
                    continue
                accepted.append((offset, bit))
        assert accepted == []
        assert read_stored(locator).locator == locator

    def test_unreadable_path_raises_io_failure(self, tmp_path):
        """A missing file and a directory are IoFailure naming the path,
        not a bare OSError."""
        missing = tmp_path / "absent.pgm"
        with pytest.raises(IoFailure, match=re.escape(f"cannot read {str(missing)!r}")):
            read_stored(missing)
        with pytest.raises(IoFailure, match=re.escape(f"cannot read {str(tmp_path)!r}")):
            restore_stored(tmp_path)


class TestQueryByImage:
    def test_self_query_ranks_first_with_zero_distance(self, store):
        for image_id, original in store["originals"].items():
            top = query_by_image(original, store["index"], 1)[0]
            assert top.image_id == image_id
            assert top.distance == 0.0

    def test_results_sorted_ascending(self, store):
        results = query_by_image(store["originals"]["img001"], store["index"], 6)
        distances = [r.distance for r in results]
        assert distances == sorted(distances)
        assert len(results) == 6

    def test_k_larger_than_index_clamps(self, store):
        results = query_by_image(store["originals"]["img001"], store["index"], 99)
        assert len(results) == 6

    def test_k_must_be_positive(self, store):
        with pytest.raises(OutOfRange):
            query_by_image(store["originals"]["img001"], store["index"], 0)

    def test_empty_index_rejected(self, store, tmp_path):
        with pytest.raises(EmptyIndex):
            query_by_image(store["originals"]["img001"], str(tmp_path / "none.tsv"), 1)

    def test_tie_broken_by_image_id(self, tmp_path):
        rng = np.random.default_rng(7)
        img = smooth_noise_image(rng, 160, 160)
        index_path = str(tmp_path / "idx.tsv")
        store_dir = str(tmp_path / "files")
        # same pixels under two ids: identical descriptors, exact tie
        index_add(index_path, img, "zz_second", sample_patient(1), store_dir)
        index_add(index_path, img, "aa_first", sample_patient(2), store_dir)
        results = query_by_image(img, index_path, 2)
        assert [r.image_id for r in results] == ["aa_first", "zz_second"]
        assert results[0].distance == results[1].distance == 0.0

    def test_corrupt_entry_skipped_with_warning(self, store, tmp_path, caplog):
        index_path = str(tmp_path / "idx.tsv")
        shutil.copy(store["index"], index_path)
        broken = IndexEntry("broken", str(tmp_path / "missing.pgm"))
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write(f"{broken.image_id}\t{broken.locator}\t\n")
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            results = query_by_image(
                store["originals"]["img000"], index_path, 10
            )
        assert len(results) == 6
        assert all(r.image_id != "broken" for r in results)
        assert any("broken" in rec.getMessage() for rec in caplog.records)

    def test_every_entry_skipped_gives_no_results(self, store, tmp_path, caplog):
        index_path = tmp_path / "idx.tsv"
        index_path.write_text(
            f"gone\t{tmp_path / 'missing.pgm'}\t\nalso\t{tmp_path / 'absent.pgm'}\t\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            assert query_by_image(store["originals"]["img000"], str(index_path), 3) == []
        assert len(caplog.records) == 2

    def test_non_watermarked_file_skipped(self, store, tmp_path):
        rng = np.random.default_rng(8)
        index_path = str(tmp_path / "idx.tsv")
        shutil.copy(store["index"], index_path)
        plain = tmp_path / "plain.pgm"
        save_pgm(plain, smooth_noise_image(rng, 32, 32))
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write(f"plain\t{plain}\t\n")
        results = query_by_image(store["originals"]["img000"], index_path, 10)
        assert all(r.image_id != "plain" for r in results)


class TestScanSkipRule:
    """query, find-patient and relink read the store through one scan that
    skips, with one warning each, any file it cannot trust."""

    @pytest.mark.parametrize("verb", ["query", "find-patient"])
    def test_skip_warning_names_id_then_locator(self, store, tmp_path, caplog, verb):
        index_path = str(tmp_path / "idx.tsv")
        shutil.copy(store["index"], index_path)
        missing = str(tmp_path / "missing.pgm")
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write(f"gone\t{missing}\t\n")
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            if verb == "query":
                query_by_image(store["originals"]["img000"], index_path, 3)
            else:
                query_by_patient_id("P0004", index_path)
        skips = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping ")]
        assert len(skips) == 1
        assert skips[0].startswith(f"skipping gone ({missing}): IoFailure: cannot read ")

    def test_empty_descriptor_skipped_by_queries(self, store, tmp_path, caplog):
        index_path = str(tmp_path / "idx.tsv")
        shutil.copy(store["index"], index_path)
        empty = tmp_path / "empty.pgm"
        save_empty_descriptor_file(empty, np.random.default_rng(18), "P0004")
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write(f"empty\t{empty}\t\n")
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            hits = query_by_patient_id("P0004", index_path)
            results = query_by_image(store["originals"]["img000"], index_path, 10)
        assert [entry.image_id for entry, _ in hits] == ["img004"]
        assert "empty" not in [r.image_id for r in results]
        skips = [r.getMessage() for r in caplog.records]
        assert len(skips) == 2
        assert all(m.startswith(f"skipping empty ({empty}): EmptyDescriptor") for m in skips)

    def test_empty_descriptor_listed_unreadable_by_relink(self, tmp_path):
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        empty = store_dir / "empty.pgm"
        save_empty_descriptor_file(empty, np.random.default_rng(19), "P0004")
        rebuilt, report = relink(store_dir, tmp_path / "i.tsv")
        assert report.unreadable == [str(empty)]
        assert len(rebuilt) == 0


@pytest.fixture
def clock(monkeypatch):
    """retrieval's clock, the real one until a test moves it."""
    clock = CacheClock()
    monkeypatch.setattr(retrieval, "time_ns", clock)
    return clock


class TestDescriptorCache:
    """stored_descriptors and relink keep each decoded file's descriptor,
    or the decode error of one that fails, under its (st_dev, st_ino), with
    its (size, mtime, ctime) stamp; a file is read again when its stamp
    changes, and only kept once the stamp is RACY_NS older than the clock."""

    @pytest.fixture
    def copy(self, store, tmp_path):
        """A copy of the store's files and an index naming the copies."""
        files = tmp_path / "files"
        shutil.copytree(store["dir"], files)
        index_path = tmp_path / "index.tsv"
        Index({e.image_id: IndexEntry(e.image_id, str(files / f"{e.image_id}.pgm"))
               for e in Index.load(store["index"]).values()}).save(index_path)
        return index_path, files

    @pytest.fixture
    def reads(self, monkeypatch):
        """The paths load_pgm reads, in order."""
        paths = []
        real = retrieval.load_pgm
        monkeypatch.setattr(retrieval, "load_pgm", lambda path: paths.append(str(path)) or real(path))
        return paths

    @staticmethod
    def _scan(index_path, caplog):
        """stored_descriptors of the index, and the skip warnings it logged."""
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            found = retrieval.stored_descriptors(Index.load(index_path).values())
        return found, [r.getMessage() for r in caplog.records]

    @staticmethod
    def _same_as_uncached(scan, index_path, caplog, monkeypatch) -> bool:
        """Whether a scan's result equals that of a scan with an empty
        cache, whose reads are not counted."""
        with monkeypatch.context() as m:
            m.setattr(retrieval, "_DESCRIPTORS", {})
            m.setattr(retrieval, "_PARSED", {})
            m.setattr(retrieval, "load_pgm", image_io.load_pgm)
            uncached = TestDescriptorCache._scan(index_path, caplog)
        cached, uncached = [({i: d.tolist() for i, d in found.items()}, warnings) for found, warnings in (scan, uncached)]
        return cached == uncached

    def test_a_second_scan_reads_no_file(self, copy, clock, reads, caplog):
        index_path, _ = copy
        clock.offset = retrieval.RACY_NS
        first, _ = self._scan(index_path, caplog)
        assert len(reads) == 6
        second, warnings = self._scan(index_path, caplog)
        assert len(reads) == 6 and warnings == []
        assert list(second) == list(first) == sorted(first)
        for image_id, desc in second.items():
            assert np.array_equal(desc, read_stored(Index.load(index_path)[image_id].locator).descriptor)
            assert desc.dtype == np.int64 and not desc.flags.writeable

    def test_a_scan_takes_one_stat_per_file_read_or_not(self, copy, clock, reads, caplog, monkeypatch):
        """A miss keeps the stamp of the stat its lookup took and reads the
        file by path: no second stat, fstat or os.open, read or not."""
        index_path, _ = copy
        clock.offset = retrieval.RACY_NS
        calls = []
        for name in ("stat", "fstat", "open"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda *args, _name=name, _real=real, **kwargs: calls.append(_name) or _real(*args, **kwargs))
        for read in (6, 0):
            del calls[:], reads[:]
            found, _ = self._scan(index_path, caplog)
            assert calls == ["stat"] * 6 and len(reads) == read and len(found) == 6

    def test_a_bit_flipped_in_place_with_its_mtime_put_back_is_read_again(self, copy, clock, reads, caplog, monkeypatch):
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        before, _ = self._scan(index_path, caplog)
        path = files / "img002.pgm"
        old = os.stat(path)
        marked = load_pgm(path)
        flipped = flip_stream_bit(marked, parse_wire(marked.pixels.astype(np.int64))["data_start"] + 8 * 100)
        with open(path, "r+b") as fh:
            fh.write(lbpmarkdex.write_pgm(flipped))
        os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
        ctime_past(path, old.st_ctime_ns)
        new = os.stat(path)
        assert (new.st_ino, new.st_size, new.st_mtime_ns) == (old.st_ino, old.st_size, old.st_mtime_ns)
        assert new.st_ctime_ns > old.st_ctime_ns
        del reads[:]
        clock.offset += retrieval.RACY_NS
        for _ in range(2):
            found, warnings = scan = self._scan(index_path, caplog)
            assert self._same_as_uncached(scan, index_path, caplog, monkeypatch)
            assert list(found) == [i for i in before if i != "img002"]
            assert len(warnings) == 1 and warnings[0].startswith(f"skipping img002 ({path}): ChecksumMismatch: ")
        assert reads == [str(path)]

    def test_a_file_replaced_by_os_replace_is_read_again(self, copy, clock, reads, caplog):
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        before, _ = self._scan(index_path, caplog)
        path = files / "img001.pgm"
        (files / "new.tmp").write_bytes((files / "img004.pgm").read_bytes())
        os.replace(files / "new.tmp", path)
        del reads[:]
        after, _ = self._scan(index_path, caplog)
        assert reads == [str(path)]
        assert np.array_equal(after["img001"], before["img004"])
        assert not np.array_equal(after["img001"], before["img001"])

    @pytest.mark.parametrize("change", ["replace", "flip"])
    def test_a_file_changed_between_the_stat_and_the_read_gives_what_was_read(self, copy, clock, reads, caplog, monkeypatch, change):
        """read_stored changes img001 after the scan's stat of it and just
        before its bytes are read: another stored file is moved onto the
        path with os.replace, while a second hard link to the old file is
        indexed as "link"; or a payload bit is flipped in place and the
        mtime put back. The scan returns what it read, and every later scan
        gives, for each path, the outcome of the file now at that path."""
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        path, link = files / "img001.pgm", files / "link.pgm"
        os.link(path, link)
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write(f"link\t{link}\t\n")
        old = os.stat(path)
        real, raced = retrieval.read_stored, []

        def read_stored(locator):
            if locator == str(path) and not raced:
                raced.append(locator)
                if change == "replace":
                    (files / "new.tmp").write_bytes((files / "img004.pgm").read_bytes())
                    os.replace(files / "new.tmp", path)
                    ctime_past(link, old.st_ctime_ns)
                else:
                    marked = load_pgm(path)
                    flipped = flip_stream_bit(marked, parse_wire(marked.pixels.astype(np.int64))["data_start"] + 8 * 100)
                    with open(path, "r+b") as fh:
                        fh.write(lbpmarkdex.write_pgm(flipped))
                    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
                    ctime_past(path, old.st_ctime_ns)
            return real(locator)

        monkeypatch.setattr(retrieval, "read_stored", read_stored)
        descriptors = {i: real(files / f"{i}.pgm").descriptor.tolist() for i in ("img001", "img004")}
        for _ in range(3):
            del reads[:]
            found, warnings = result = self._scan(index_path, caplog)
            assert raced == [str(path)]
            assert self._same_as_uncached(result, index_path, caplog, monkeypatch)
            if change == "replace":
                assert warnings == []
                assert found["img001"].tolist() == descriptors["img004"]
                assert found["link"].tolist() == descriptors["img001"]
            else:
                assert [w.split(": ")[1] for w in warnings] == ["ChecksumMismatch"] * 2
                assert "img001" not in found and "link" not in found
        assert reads == []

    def test_a_file_inside_the_racy_window_is_read_on_every_scan(self, copy, clock, reads, caplog):
        """A file whose mtime or ctime is within RACY_NS of the clock is
        read but not kept; one exactly RACY_NS old is kept."""
        index_path, files = copy
        newest = {str(p): max(os.stat(p).st_mtime_ns, os.stat(p).st_ctime_ns) for p in sorted(files.iterdir())}
        clock.at = max(newest.values()) + retrieval.RACY_NS - 1
        inside = [path for path, ns in newest.items() if ns > clock.at - retrieval.RACY_NS]
        assert inside
        for _ in range(3):
            del reads[:]
            self._scan(index_path, caplog)
        assert reads == inside
        clock.at += 1
        self._scan(index_path, caplog)
        del reads[:]
        self._scan(index_path, caplog)
        assert reads == []
        assert len(retrieval._DESCRIPTORS) == 6

    def test_a_failure_inside_the_racy_window_is_read_on_every_scan(self, copy, clock, reads, caplog):
        """The 2 s rule holds for a kept failure as for a kept descriptor."""
        index_path, files = copy
        path = files / "img005.pgm"
        os.truncate(path, 5000)
        window = max(os.stat(path).st_mtime_ns, os.stat(path).st_ctime_ns) + retrieval.RACY_NS - 1
        read = []
        for clock.at in (window, window, window + 1, window + 1):
            del reads[:]
            _, warnings = self._scan(index_path, caplog)
            assert len(warnings) == 1 and warnings[0].startswith(f"skipping img005 ({path}): TruncatedData: ")
            read.append(str(path) in reads)
        assert read == [True, True, True, False]
        assert len(retrieval._DESCRIPTORS) == 6

    def test_a_truncated_file_warns_on_every_scan(self, copy, clock, reads, caplog, monkeypatch):
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        self._scan(index_path, caplog)
        path = files / "img005.pgm"
        os.truncate(path, os.stat(path).st_size - 1000)
        del reads[:]
        for _ in range(3):
            clock.offset += retrieval.RACY_NS
            found, warnings = scan = self._scan(index_path, caplog)
            assert self._same_as_uncached(scan, index_path, caplog, monkeypatch)
            assert warnings == [f"skipping img005 ({path}): TruncatedData: expected 25600 pixel bytes, found 24600"]
            assert "img005" not in found and len(found) == 5
        assert reads == [str(path)]

    def test_an_unreadable_path_is_skipped_with_the_error_read_stored_raises(self, tmp_path, clock, caplog):
        """A missing file and a directory: the warning names the error
        read_stored raises, and no file descriptor is left open."""
        (tmp_path / "dir.pgm").mkdir()
        clock.offset = retrieval.RACY_NS
        open_fds = len(os.listdir("/proc/self/fd"))
        for name in ("missing.pgm", "dir.pgm"):
            path = str(tmp_path / name)
            with pytest.raises(IoFailure) as exc:
                read_stored(path)
            index_path = tmp_path / "index.tsv"
            index_path.write_text(f"x\t{path}\t\n", encoding="utf-8")
            for _ in range(2):
                assert self._scan(index_path, caplog) == ({}, [f"skipping x ({path}): IoFailure: {exc.value}"])
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert retrieval._DESCRIPTORS == {}

    @pytest.mark.parametrize("step", ["open", "read"])
    def test_an_os_error_on_a_read_is_not_kept(self, copy, clock, reads, caplog, monkeypatch, step):
        """An OSError while a file is opened or read skips it as IoFailure
        and keeps nothing: the next scan reads the file and finds it."""
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        path = str(files / "img003.pgm")
        failures = [OSError(errno.EIO, "injected")]
        if step == "open":

            def failing_open(name, *args, **kwargs):
                if name == path and failures:
                    raise failures.pop()
                return open(name, *args, **kwargs)

            monkeypatch.setattr(image_io, "open", failing_open, raising=False)
        else:

            class FailingRead(io.FileIO):
                def read(self, *args):
                    if self.name == path and failures:
                        raise failures.pop()
                    return super().read(*args)

            # load_pgm(path)'s open(path, "rb", buffering=0) call.
            monkeypatch.setattr(image_io, "open", lambda name, mode, buffering=0: FailingRead(name, mode), raising=False)
        found, warnings = self._scan(index_path, caplog)
        assert warnings == [f"skipping img003 ({path}): IoFailure: cannot read {path!r}: [Errno 5] injected"]
        assert "img003" not in found and len(retrieval._DESCRIPTORS) == 5
        del reads[:]
        found, warnings = self._scan(index_path, caplog)
        assert warnings == [] and reads == [path] and len(found) == 6

    def test_a_file_whose_stat_fails_is_read_and_not_kept(self, copy, clock, reads, caplog, monkeypatch):
        """A stat that fails (once, injected) means a plain read of the
        path: the scan finds the file and keeps nothing, and the next scan
        stats it, reads it and keeps it."""
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        path = str(files / "img003.pgm")
        failures, real_stat = [OSError(errno.EIO, "injected")], os.stat

        def failing_stat(name, *args, **kwargs):
            if name == path and failures:
                raise failures.pop()
            return real_stat(name, *args, **kwargs)

        monkeypatch.setattr(os, "stat", failing_stat)
        found, warnings = self._scan(index_path, caplog)
        assert warnings == [] and len(found) == 6 and len(retrieval._DESCRIPTORS) == 5
        assert found["img003"].tolist() == read_stored(path).descriptor.tolist()
        del reads[:]
        found, _ = self._scan(index_path, caplog)
        assert reads == [path] and len(found) == 6 and len(retrieval._DESCRIPTORS) == 6

    def test_a_changed_file_read_inside_the_racy_window_loses_its_entry(self, copy, clock, caplog):
        """An entry is dropped once a scan finds its file changed, also when
        the new read is too recent to be kept."""
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        self._scan(index_path, caplog)
        path = files / "img005.pgm"
        key = (os.stat(path).st_dev, os.stat(path).st_ino)
        assert key in retrieval._DESCRIPTORS
        os.truncate(path, 5000)
        clock.offset = 0
        _, warnings = self._scan(index_path, caplog)
        assert len(warnings) == 1 and warnings[0].startswith(f"skipping img005 ({path}): TruncatedData: ")
        assert key not in retrieval._DESCRIPTORS and len(retrieval._DESCRIPTORS) == 5

    @pytest.mark.parametrize("change", ["deleted", "directory"])
    def test_a_cached_file_deleted_or_made_a_directory_gives_the_error_read_stored_raises(self, copy, clock, caplog, change):
        index_path, files = copy
        clock.offset = retrieval.RACY_NS
        self._scan(index_path, caplog)
        path = files / "img004.pgm"
        path.unlink()
        if change == "directory":
            path.mkdir()
        with pytest.raises(IoFailure) as exc:
            read_stored(path)
        for _ in range(2):
            found, warnings = self._scan(index_path, caplog)
            assert warnings == [f"skipping img004 ({path}): IoFailure: {exc.value}"]
            assert "img004" not in found and len(found) == 5

    def test_find_patient_reads_every_file_and_keeps_nothing(self, copy, clock, reads):
        index_path, _ = copy
        clock.offset = retrieval.RACY_NS
        for scan in range(1, 3):
            assert [e.image_id for e, _ in query_by_patient_id("P0002", index_path)] == ["img002", "img003"]
            assert len(reads) == 6 * scan
        assert retrieval._DESCRIPTORS == {}

    def test_relink_then_evaluate_gives_the_rows_of_an_uncached_run(self, copy, clock, reads, tmp_path, capsys):
        """Cached or not, the cycle prints the same report, CSV and skip
        warnings; cached, evaluate reads no file that relink has read, and
        the next cycle reads none, the damaged file included."""
        index_path, files = copy
        truncated = files / "img001.pgm"
        os.truncate(truncated, 5000)
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"img00{i}\t{'ab'[i % 2]}\n" for i in range(6)), encoding="utf-8")

        def cycle():
            del reads[:]
            outputs = []
            for argv in (["relink", "--store", str(files)], ["evaluate", "--cutoffs", "1,2", "--labels", str(labels)]):
                assert cli.run([*argv, "--index", str(index_path)]) == 0
                outputs.append(capsys.readouterr())
            return outputs

        uncached = cycle()
        assert len(reads) == 6 + 5 and retrieval._DESCRIPTORS == {}
        assert "unreadable\t1\n" in uncached[0].out and "TruncatedData" in uncached[0].err
        clock.offset = retrieval.RACY_NS
        assert cycle() == uncached
        assert reads == sorted(str(p) for p in files.iterdir())
        assert cycle() == uncached
        assert reads == []


class TestQueryByPatientId:
    def test_single_hit_carries_full_record(self, store):
        hits = query_by_patient_id("P0004", store["index"])
        assert len(hits) == 1
        entry, record = hits[0]
        assert entry.image_id == "img004"
        assert record.name == "Patient #4"
        assert (record.birth_year, record.birth_month, record.birth_day) == (
            1954,
            5,
            5,
        )

    def test_absent_pid_returns_empty(self, store):
        assert query_by_patient_id("nobody", store["index"]) == []

    def test_shared_pid_returns_both_in_id_order(self, store):
        hits = query_by_patient_id("P0002", store["index"])
        assert [entry.image_id for entry, _ in hits] == ["img002", "img003"]

    def test_ids_out_of_index_order_come_back_ascending(self, store, tmp_path):
        index_path = tmp_path / "idx.tsv"
        Index(reversed(Index.load(store["index"]).items())).save(index_path)
        hits = query_by_patient_id("P0002", index_path)
        assert [entry.image_id for entry, _ in hits] == ["img002", "img003"]

    def test_non_utf8_payload_skipped_with_warning(self, store, tmp_path, caplog):
        index_path = str(tmp_path / "idx.tsv")
        shutil.copy(store["index"], index_path)
        bad = tmp_path / "badtext.pgm"
        save_non_utf8_file(bad, np.random.default_rng(12))
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write(f"badtext\t{bad}\t\n")
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            hits = query_by_patient_id("P0004", index_path)
        assert [entry.image_id for entry, _ in hits] == ["img004"]
        assert any(
            "badtext" in rec.getMessage() and "MalformedStream" in rec.getMessage()
            for rec in caplog.records
        )


class TestParseMemo:
    """A strict parse that succeeds is kept with the bytes it parsed, one
    per parser: the same bytes are not parsed again, wherever they are
    read from, and a parse that fails is never kept."""

    def test_equal_bytes_give_the_kept_rows_and_a_changed_byte_is_parsed_again(self, store, tmp_path):
        first = Index.load(store["index"])
        copy = tmp_path / "copy.tsv"
        data = Path(store["index"]).read_bytes()
        copy.write_bytes(data)
        second = Index.load(copy)
        assert second == first and second is not first
        assert all(a is b for a, b in zip(first.values(), second.values()))
        changed = data.replace(b"img000\t", b"img00x\t", 1)
        assert len(changed) == len(data) and changed != data
        copy.write_bytes(changed)
        third = Index.load(copy)
        assert list(third) == ["img00x", *list(first)[1:]]
        assert third["img001"] == first["img001"] and third["img001"] is not first["img001"]

    def test_a_bad_row_raises_on_every_load(self, tmp_path):
        index_path = tmp_path / "i.tsv"
        index_path.write_bytes(b"a\ts/a.pgm\t\n")
        assert list(Index.load(index_path)) == ["a"]
        kept = dict(retrieval._PARSED)
        with open(index_path, "ab") as fh:
            fh.write(b"b\n")
        for _ in range(2):
            with pytest.raises(IoFailure, match="line 2: has 1 fields"):
                Index.load(index_path)
        assert retrieval._PARSED == kept

    def test_a_torn_tail_warns_on_every_load(self, tmp_path, caplog):
        index_path = tmp_path / "i.tsv"
        index_path.write_bytes(b"a\ts/a.pgm\t\nbb")
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            loads = [Index.load(index_path) for _ in range(3)]
        assert [list(index) for index in loads] == [["a"]] * 3
        assert loads[2]["a"] is loads[0]["a"]
        warning = f"skipping index {str(index_path)!r} line 2, an unterminated last line"
        assert [r.getMessage() for r in caplog.records] == [warning] * 3

    def test_one_result_is_kept_per_parser_and_relink_keeps_none(self, store, tmp_path):
        labels = tmp_path / "labels.tsv"
        labels.write_text("img000\ta\nimg001\t\n", encoding="utf-8")
        assert cli._load_labels(str(labels)) == cli._load_labels(str(labels)) == {"img000": "a"}
        other = tmp_path / "other.tsv"
        other.write_bytes(b"x\ts/x.pgm\t\n")
        Index.load(store["index"])
        assert list(Index.load(other)) == ["x"]
        assert len(retrieval._PARSED) == 2
        assert retrieval._PARSED[IndexEntry, (2, 3)][0] == other.read_bytes()
        retrieval._PARSED.clear()
        index_path = tmp_path / "i.tsv"
        shutil.copy(store["index"], index_path)
        relink(store["dir"], index_path)
        assert retrieval._PARSED == {}


class TestTornIndexTail:
    @pytest.mark.parametrize("tail", [b"bbbb", b"b\xc3"], ids=["one-field", "cut-utf8"])
    def test_every_verb_reads_past_a_torn_tail(self, store, tmp_path, caplog, tail):
        """An append cut short leaves a last line without "\n": query,
        find-patient, index_add and relink each skip it with one warning
        naming the file and the line, and index_add cuts it before its
        own row."""
        index_path = tmp_path / "idx.tsv"
        torn = Path(store["index"]).read_bytes().split(b"\n")[0] + b"\n" + tail
        index_path.write_bytes(torn)
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            assert [r.image_id for r in query_by_image(store["originals"]["img000"], index_path, 1)] == ["img000"]
            assert [e.image_id for e, _ in query_by_patient_id("P0000", index_path)] == ["img000"]
            img = smooth_noise_image(np.random.default_rng(19), 160, 160)
            entry = index_add(str(index_path), img, "new", sample_patient(9), str(tmp_path / "s"))
            # The add replaced the torn tail with its row.
            assert index_path.read_bytes() == torn[: -len(tail)] + f"new\t{entry.locator}\t\n".encode("utf-8")
            index_path.write_bytes(torn)
            rebuilt, _ = relink(store["dir"], index_path)
        assert [e.image_id for e in rebuilt.values()] == sorted(store["originals"])
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 4
        assert all(repr(str(index_path)) in w and "line 2, an unterminated last line" in w for w in warnings)


class TestRelink:
    def _clone_store(self, store, tmp_path):
        store_dir = str(tmp_path / "files")
        shutil.copytree(store["dir"], store_dir)
        index_path = str(tmp_path / "index.tsv")
        original = Index.load(store["index"])
        Index(
            {e.image_id: IndexEntry(e.image_id, os.path.join(store_dir, f"{e.image_id}.pgm"), e.class_label)
             for e in original.values()}
        ).save(index_path)
        return index_path, store_dir

    def test_rebuild_after_index_loss(self, store, tmp_path):
        index_path, store_dir = self._clone_store(store, tmp_path)
        before = Index.load(index_path)
        os.unlink(index_path)
        rebuilt, report = relink(store_dir, index_path)
        assert rebuilt == before
        assert Index.load(index_path) == before
        assert len(report.repaired) == 6
        assert report.unreadable == [] and report.conflicting == []

    def test_healthy_store_is_noop(self, store, tmp_path):
        index_path, store_dir = self._clone_store(store, tmp_path)
        before = Index.load(index_path)
        rebuilt, report = relink(store_dir, index_path)
        assert rebuilt == before
        assert report.repaired == []

    def test_old_row_with_an_id_index_add_refuses_is_a_bad_line(self, store, tmp_path, caplog):
        """A row whose id IndexEntry refuses, one neither index_add nor
        relink can write: Index.load refuses the index naming the line,
        and relink skips the row with one warning and rebuilds the index
        it would rebuild without it."""
        index_path, store_dir = self._clone_store(store, tmp_path)
        before = Index.load(index_path)
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write(f"..\t{os.path.join(store_dir, 'x.pgm')}\t\n")
        message = f"index {index_path!r} line 7: image_id '..' is not a single path component"
        with pytest.raises(IoFailure, match=f"^{re.escape(message)}$"):
            Index.load(index_path)
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            rebuilt, report = relink(store_dir, index_path)
        assert [r.getMessage() for r in caplog.records] == [f"relink skips {message}"]
        assert rebuilt == before and Index.load(index_path) == before
        assert report == retrieval.RelinkReport()

    def test_bad_and_repeated_rows_block_neither_index_add_nor_relink(self, store, tmp_path, caplog):
        """A row with one field, a row that is not UTF-8 and a second row of
        one id: Index.load refuses the index, but index_add still appends
        (it parses no row) and relink rebuilds it. Each skipped row gets
        one warning naming the file and the line, and the repeated id
        keeps no label."""
        index_path, store_dir = self._clone_store(store, tmp_path)
        rows = Path(index_path).read_bytes().splitlines(keepends=True)
        labelled = [row.replace(b"\t\n", b"\tL\n") for row in rows[:3]]
        repeated = labelled[1].replace(b"\tL\n", b"\tM\n")
        before = b"".join([labelled[0], b"\xff\tx\n", labelled[1], repeated, labelled[2], *rows[3:], b"bbbb\n"])
        Path(index_path).write_bytes(before)
        with pytest.raises(IoFailure, match="line 2 is not UTF-8"):
            Index.load(index_path)
        img = smooth_noise_image(np.random.default_rng(26), 160, 160)
        entry = index_add(index_path, img, "new", sample_patient(9), store_dir, "N")
        assert Path(index_path).read_bytes() == before + f"new\t{entry.locator}\tN\n".encode("utf-8")
        with pytest.raises(DuplicateId, match="already indexed"):
            index_add(index_path, img, "img001", sample_patient(9), store_dir)
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            rebuilt, report = relink(store_dir, index_path)
        warnings = [r.getMessage() for r in caplog.records]
        source = f"index {index_path!r}"
        assert warnings == [
            f"relink skips {source} line 2 is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            f"relink skips {source} line 4: repeats image_id 'img001' of line 3",
            f"relink skips {source} line 9: has 1 fields, expected 2 or 3",
        ]
        labels = {e.image_id: e.class_label for e in rebuilt.values()}
        assert labels == {"img000": "L", "img001": "", "img002": "L", "img003": "", "img004": "", "img005": "", "new": "N"}
        assert report.repaired == [rebuilt.get("img001").locator]
        assert report.unreadable == report.conflicting == []
        assert Index.load(index_path) == rebuilt

    def test_non_watermarked_file_listed_unreadable(self, store, tmp_path):
        rng = np.random.default_rng(9)
        index_path, store_dir = self._clone_store(store, tmp_path)
        save_pgm(os.path.join(store_dir, "stray.pgm"), smooth_noise_image(rng, 24, 24))
        rebuilt, report = relink(store_dir, index_path)
        assert report.unreadable == [os.path.join(store_dir, "stray.pgm")]
        assert "stray" not in rebuilt

    def test_non_utf8_payload_listed_unreadable(self, store, tmp_path):
        index_path, store_dir = self._clone_store(store, tmp_path)
        bad = os.path.join(store_dir, "badtext.pgm")
        save_non_utf8_file(bad, np.random.default_rng(13))
        rebuilt, report = relink(store_dir, index_path)
        assert report.unreadable == [bad]
        assert len(rebuilt) == 6

    def test_renamed_file_is_repaired_under_its_embedded_id(self, store, tmp_path):
        index_path, store_dir = self._clone_store(store, tmp_path)
        os.rename(
            os.path.join(store_dir, "img005.pgm"),
            os.path.join(store_dir, "zz-moved.pgm"),
        )
        rebuilt, report = relink(store_dir, index_path)
        entry = rebuilt.get("img005")
        assert entry is not None
        assert entry.locator == os.path.join(store_dir, "zz-moved.pgm")
        assert report.repaired == [os.path.join(store_dir, "zz-moved.pgm")]

    def test_file_name_that_is_not_utf8_conflicts(self, store, tmp_path):
        """A stored file whose name is not UTF-8 (a lone surrogate in the
        str path) cannot have a row: relink lists it as conflicting and
        writes the other rows."""
        index_path, store_dir = self._clone_store(store, tmp_path)
        odd = os.path.join(store_dir, os.fsdecode(b"\xff.pgm"))
        os.rename(os.path.join(store_dir, "img005.pgm"), odd)
        rebuilt, report = relink(store_dir, index_path)
        assert report.conflicting == [odd]
        assert report.repaired == report.unreadable == []
        assert "img005" not in rebuilt and len(rebuilt) == 5
        assert Index.load(index_path) == rebuilt

    def test_duplicate_payload_id_conflicts(self, store, tmp_path):
        index_path, store_dir = self._clone_store(store, tmp_path)
        shutil.copy(
            os.path.join(store_dir, "img000.pgm"),
            os.path.join(store_dir, "img000_copy.pgm"),
        )
        rebuilt, report = relink(store_dir, index_path)
        # sorted scan meets img000.pgm first; the copy loses
        assert report.conflicting == [os.path.join(store_dir, "img000_copy.pgm")]
        assert rebuilt.get("img000").locator == os.path.join(store_dir, "img000.pgm")

    def test_labels_preserved_for_known_ids(self, store, tmp_path):
        index_path, store_dir = self._clone_store(store, tmp_path)
        entries = Index.load(index_path).values()
        relabeled = Index(
            {e.image_id: IndexEntry(e.image_id, e.locator, "kept") for e in entries}
        )
        relabeled.save(index_path)
        rebuilt, _ = relink(store_dir, index_path)
        assert all(e.class_label == "kept" for e in rebuilt.values())

    def test_scan_waits_for_the_index_lock(self, store, tmp_path):
        """A file stored while a writer holds the lock is in the rebuild."""
        index_path, store_dir = self._clone_store(store, tmp_path)
        parked = str(tmp_path / "parked.pgm")
        os.rename(os.path.join(store_dir, "img005.pgm"), parked)
        late = os.path.join(store_dir, "zz-late.pgm")
        result = {}
        fd = os.open(f"{index_path}.lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            worker = threading.Thread(
                target=lambda: result.update(out=relink(store_dir, index_path))
            )
            worker.start()
            time.sleep(0.2)  # long enough for relink to reach the lock
            os.rename(parked, late)
        finally:
            os.close(fd)
        worker.join(timeout=60)
        assert not worker.is_alive()
        rebuilt, report = result["out"]
        assert report.repaired == [late]
        assert rebuilt.get("img005").locator == late

    def test_lock_failure_is_io_failure_and_leaves_the_index(self, store, tmp_path, monkeypatch):
        """flock failing (here ENOLCK) is an IoFailure naming the lock file,
        raised before the index is rewritten: a rebuild would drop the
        comment line."""
        index_path, store_dir = self._clone_store(store, tmp_path)
        Path(index_path).write_text("# kept\n" + Path(index_path).read_text(encoding="utf-8"), encoding="utf-8")
        before = Path(index_path).read_bytes()
        files = sorted(os.listdir(store_dir))

        def no_locks(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", no_locks)
        with pytest.raises(IoFailure, match=re.escape(f"cannot lock {index_path + '.lock'!r}")):
            relink(store_dir, index_path)
        assert Path(index_path).read_bytes() == before
        assert sorted(os.listdir(store_dir)) == files
        assert [p for p in tmp_path.rglob("*") if ".tmp." in p.name] == []

    def test_empty_directory_empty_index(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        rebuilt, report = relink(tmp_path / "empty", tmp_path / "idx.tsv")
        assert len(rebuilt) == 0
        assert report.repaired == [] and report.unreadable == []

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(IoFailure):
            relink(tmp_path / "nope", tmp_path / "idx.tsv")
