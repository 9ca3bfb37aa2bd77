"""Command-line front end: one verb per pipeline stage.

Verbs: index, query, find-patient, extract, restore, relink, evaluate,
capacity. Exit status is 0 on success, 1 on a domain error (the error
class name goes to standard error), 2 on usage errors. The environment
variable LBPMARKDEX_INDEX supplies the default for --index. Every line,
argparse's usage, error and help text included, goes out through _write,
so text a stream cannot encode is escaped, not an error. A path argument
holding NUL, or a character the file system cannot encode, is a usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import re
import sys

from . import watermark
from .errors import IoFailure, LbpmarkdexError
from .evaluation import class_mean_pr, render_pr_csv, write_pr_csv
from .image_io import load_pgm, save_pgm
from .payload import PatientRecord
from .retrieval import (
    Index,
    _io_failure,
    _parse_tsv,
    _publish,
    index_add,
    query_by_image,
    query_by_patient_id,
    read_stored,
    relink,
    restore_stored,
    stored_descriptors,
)

INDEX_ENV = "LBPMARKDEX_INDEX"

_ISO_DATE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


def _birthday(text: str) -> tuple[int, int, int]:
    match = _ISO_DATE.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"birthday must be YYYY-MM-DD, got {text!r}")
    return int(match.group(1)), int(match.group(2)), int(match.group(3))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _cutoff_list(text: str) -> list[int]:
    try:
        cutoffs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cutoffs must be comma-separated integers, got {text!r}")
    if not cutoffs:
        raise argparse.ArgumentTypeError("at least one cutoff is required")
    return cutoffs


def _path(text: str) -> str:
    """A path the file system can be handed: no NUL, and encodable by
    os.fsencode (a lone surrogate outside U+DC80-U+DCFF is not)."""
    try:
        if b"\0" not in os.fsencode(text):
            return text
    except UnicodeEncodeError:
        pass
    raise argparse.ArgumentTypeError(f"not a path the file system can take, got {text!r}")


def _need_index(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    # The environment is read on each call: the parser is built once per process.
    index = os.environ.get(INDEX_ENV) if args.index is None else args.index
    if not index:
        parser.error(f"--index is required (or set ${INDEX_ENV})")
    return index


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every run() shares; building it costs about a millisecond.
    Each verb's handler is its `run` default and returns the verb's
    standard output text."""
    parser = _Parser(
        prog="lbpmarkdex",
        description=(
            "Index grayscale PGM images by embedding their own texture "
            "descriptor and patient record as a reversible watermark, then "
            "search by example or by patient id."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log more (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Parents: every verb but capacity takes --index; extract and restore
    # also name their target by --id or --image.
    indexed = argparse.ArgumentParser(add_help=False)
    indexed.add_argument("--index", type=_path, help=f"index file path (default: ${INDEX_ENV})")
    target = argparse.ArgumentParser(add_help=False, parents=[indexed])
    group = target.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="indexed image id")
    group.add_argument("--image", type=_path, help="watermarked PGM file")

    p = sub.add_parser("index", parents=[indexed], help="watermark an image and add it to the index")
    p.set_defaults(run=_cmd_index)
    p.add_argument("--id", required=True, help="unique image id")
    p.add_argument("--image", type=_path, required=True, help="original PGM file")
    p.add_argument("--store", type=_path, required=True, help="directory for watermarked files")
    p.add_argument("--patient-id", required=True)
    p.add_argument("--name", default="")
    p.add_argument(
        "--birthday",
        type=_birthday,
        default=(0, 1, 1),
        help="ISO date YYYY-MM-DD; month 1-12 and day 1-31 are checked, not the calendar",
    )
    p.add_argument("--diagnostic", default="")
    p.add_argument("--class-label", default="", help="optional label for evaluation")

    p = sub.add_parser("query", parents=[indexed], help="rank indexed images by distance to an example")
    p.set_defaults(run=_cmd_query)
    p.add_argument("--image", type=_path, required=True, help="query PGM file")
    p.add_argument("--k", type=_positive_int, default=10, help="results to return")

    p = sub.add_parser("find-patient", parents=[indexed], help="list indexed images of one patient")
    p.set_defaults(run=_cmd_find_patient)
    p.add_argument("--patient-id", required=True)

    p = sub.add_parser("extract", parents=[target], help="print the payload stored in an image")
    p.set_defaults(run=_cmd_extract)
    p.add_argument("--descriptor", action="store_true", help="also dump the 256 bins")

    p = sub.add_parser("restore", parents=[target], help="write the original's exact pixels back out, always with maxval 255")
    p.set_defaults(run=_cmd_restore)
    p.add_argument("--out", type=_path, required=True, help="output PGM path; must not exist")

    p = sub.add_parser("relink", parents=[indexed], help="rebuild the index from stored watermarks")
    p.set_defaults(run=_cmd_relink)
    p.add_argument("--store", type=_path, required=True, help="directory of watermarked files")

    p = sub.add_parser("evaluate", parents=[indexed], help="leave-one-out precision/recall per class")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument(
        "--labels",
        type=_path,
        help="TSV file image_id<TAB>class; defaults to index class labels",
    )
    p.add_argument(
        "--cutoffs",
        type=_cutoff_list,
        required=True,
        help="comma-separated ranking cutoffs, e.g. 1,5,10",
    )
    p.add_argument("--out", type=_path, help="CSV output path, must not exist (default: standard output)")

    p = sub.add_parser("capacity", help="print how many bits an image can carry")
    p.set_defaults(run=_cmd_capacity)
    p.add_argument("--image", type=_path, required=True, help="PGM file")

    return parser


def _entry_for(parser, args) -> str:
    """Locator of the target image for verbs taking --id or --image."""
    if args.image:
        return args.image
    entry = Index.load(_need_index(parser, args)).get(args.id)
    if entry is None:
        raise LbpmarkdexError(f"image id {args.id!r} not in index")
    return entry.locator


def _format_birthday(record: PatientRecord) -> str:
    return f"{record.birth_year:04d}-{record.birth_month:02d}-{record.birth_day:02d}"


def _write(stream, text: str) -> None:
    """Write text to stream as the stream's encoding can hold it, a strict
    one included: a file-name byte that is not UTF-8 (a surrogateescape
    character) shows as \\xNN, and a character the encoding lacks as
    \\xNN, \\uNNNN or \\UNNNNNNNN. Text the stream can encode is written
    unchanged; a stream without an encoding (io.StringIO) takes any text."""
    encoding = stream.encoding or "utf-8"
    text = text.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    stream.write(text.encode(encoding, "backslashreplace").decode(encoding))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help, usage and error text, its subparsers'
    included, go out through _write."""

    def _print_message(self, message, file=None) -> None:
        # argparse's own rule: a stream it cannot write is skipped.
        with contextlib.suppress(AttributeError, OSError):
            _write(file or sys.stderr, message)


class _LogHandler(logging.StreamHandler):
    """A StreamHandler whose records go out through _write."""

    def emit(self, record) -> None:
        _write(self.stream, self.format(record) + self.terminator)


def _cmd_index(parser, args) -> str:
    index_path = _need_index(parser, args)
    if os.path.abspath(index_path) == os.path.abspath(args.store):
        parser.error("--index and --store must be distinct paths")
    year, month, day = args.birthday
    patient = PatientRecord(
        patient_id=args.patient_id,
        name=args.name,
        birth_year=year,
        birth_month=month,
        birth_day=day,
        diagnostic=args.diagnostic,
    )
    entry = index_add(
        index_path,
        load_pgm(args.image),
        args.id,
        patient,
        args.store,
        class_label=args.class_label,
    )
    return entry.locator + "\n"


def _cmd_query(parser, args) -> str:
    results = query_by_image(load_pgm(args.image), _need_index(parser, args), args.k)
    return "".join(f"{rank}\t{r.image_id}\t{r.distance:.6f}\n" for rank, r in enumerate(results, start=1))


def _cmd_find_patient(parser, args) -> str:
    hits = query_by_patient_id(args.patient_id, _need_index(parser, args))
    return "".join(
        f"{entry.image_id}\t{record.patient_id}\t{record.name}"
        f"\t{_format_birthday(record)}\t{record.diagnostic}\n"
        for entry, record in hits
    )


def _cmd_extract(parser, args) -> str:
    payload = read_stored(_entry_for(parser, args))
    record = payload.record
    text = (
        f"locator\t{payload.locator}\n"
        f"patient_id\t{record.patient_id}\n"
        f"name\t{record.name}\n"
        f"birthday\t{_format_birthday(record)}\n"
        f"diagnostic\t{record.diagnostic}\n"
        f"descriptor_total\t{payload.descriptor.sum()}\n"
    )
    if args.descriptor:
        text += "descriptor\t" + " ".join(str(v) for v in payload.descriptor) + "\n"
    return text


def _create_out(path: str, write) -> None:
    """Create the --out file whole. An existing file is never replaced: it
    may be a stored original (the restore source itself, under any name)."""
    with _io_failure(f"cannot write --out {path!r}"):
        try:
            _publish(path, write, replace=False)
        except FileExistsError:
            raise IoFailure(f"--out {path!r} already exists; refusing to replace it") from None


def _cmd_restore(parser, args) -> str:
    original = restore_stored(_entry_for(parser, args))
    _create_out(args.out, lambda tmp: save_pgm(tmp, original))
    return args.out + "\n"


def _cmd_relink(parser, args) -> str:
    index_path = _need_index(parser, args)
    index, report = relink(args.store, index_path)
    kinds = ("repaired", "unreadable", "conflicting")
    lines = [f"indexed\t{len(index)}"] + [f"{kind}\t{len(getattr(report, kind))}" for kind in kinds]
    lines += [f"{kind}\t{path}" for kind in kinds for path in getattr(report, kind)]
    return "".join(line + "\n" for line in lines)


def _load_labels(path: str) -> dict[str, str]:
    """image_id -> class from a --labels file, parsed whole: nothing
    appends to it, so an unterminated last line is read like any other.
    A bad line or a repeated id raises IoFailure naming the file and line;
    an empty class, as in the index, leaves the image unlabeled."""
    with open(path, "rb") as fh:
        labels = _parse_tsv(fh.read(), f"labels {path!r}", (2,), lambda image_id, label: label)
    return {i: c for i, c in labels.items() if c}


def _cmd_evaluate(parser, args) -> str:
    index = Index.load(_need_index(parser, args))
    if args.labels:
        labels = _load_labels(args.labels)
    else:
        labels = {
            e.image_id: e.class_label for e in index.values() if e.class_label
        }
    labeled = [e for e in index.values() if e.image_id in labels]
    rows = class_mean_pr(stored_descriptors(labeled), labels, args.cutoffs)
    if not args.out:
        return render_pr_csv(rows)
    _create_out(args.out, lambda tmp: write_pr_csv(tmp, rows))
    return ""


def _cmd_capacity(parser, args) -> str:
    return f"{watermark.capacity(load_pgm(args.image))}\n"


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # This call's messages go to this call's stderr at this call's level.
    # The package logger still propagates, so handlers the host program put
    # on the root logger see them too; the root logger is left alone.
    log = logging.getLogger(__package__)
    handler = _LogHandler(sys.stderr)
    saved_level = log.level
    log.addHandler(handler)
    log.setLevel([logging.WARNING, logging.INFO, logging.DEBUG][min(args.verbose, 2)])
    try:
        _write(sys.stdout, args.run(parser, args))
        return 0
    except LbpmarkdexError as exc:
        _write(sys.stderr, f"{type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        _write(sys.stderr, f"IoFailure: {exc}\n")
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
