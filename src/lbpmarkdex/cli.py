"""Command-line front end: one verb per pipeline stage.

Verbs: index, query, find-patient, extract, restore, relink, evaluate,
capacity. Exit status is 0 on success, 1 on a domain error (the error
class name goes to standard error), 2 on usage errors. The environment
variable LBPMARKDEX_INDEX supplies the default for --index.
"""

from __future__ import annotations

import argparse
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
    _load_tsv,
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


def _add_index_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--index",
        default=os.environ.get(INDEX_ENV),
        help=f"index file path (default: ${INDEX_ENV})",
    )


def _need_index(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    if not args.index:
        parser.error(f"--index is required (or set ${INDEX_ENV})")
    return args.index


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("index", help="watermark an image and add it to the index")
    p.add_argument("--id", required=True, help="unique image id")
    p.add_argument("--image", required=True, help="original PGM file")
    p.add_argument("--store", required=True, help="directory for watermarked files")
    p.add_argument("--patient-id", required=True)
    p.add_argument("--name", default="")
    p.add_argument(
        "--birthday",
        type=_birthday,
        default=(0, 1, 1),
        help="ISO date YYYY-MM-DD",
    )
    p.add_argument("--diagnostic", default="")
    p.add_argument("--class-label", default="", help="optional label for evaluation")
    _add_index_flag(p)

    p = sub.add_parser("query", help="rank indexed images by distance to an example")
    p.add_argument("--image", required=True, help="query PGM file")
    p.add_argument("--k", type=_positive_int, default=10, help="results to return")
    _add_index_flag(p)

    p = sub.add_parser("find-patient", help="list indexed images of one patient")
    p.add_argument("--patient-id", required=True)
    _add_index_flag(p)

    p = sub.add_parser("extract", help="print the payload stored in an image")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="indexed image id")
    group.add_argument("--image", help="watermarked PGM file")
    p.add_argument("--descriptor", action="store_true", help="also dump the 256 bins")
    _add_index_flag(p)

    p = sub.add_parser("restore", help="write the original's exact pixels back out, always with maxval 255")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="indexed image id")
    group.add_argument("--image", help="watermarked PGM file")
    p.add_argument("--out", required=True, help="output PGM path; must not exist")
    _add_index_flag(p)

    p = sub.add_parser("relink", help="rebuild the index from stored watermarks")
    p.add_argument("--store", required=True, help="directory of watermarked files")
    _add_index_flag(p)

    p = sub.add_parser("evaluate", help="leave-one-out precision/recall per class")
    p.add_argument(
        "--labels",
        help="TSV file image_id<TAB>class; defaults to index class labels",
    )
    p.add_argument(
        "--cutoffs",
        type=_cutoff_list,
        required=True,
        help="comma-separated ranking cutoffs, e.g. 1,5,10",
    )
    p.add_argument("--out", help="CSV output path, must not exist (default: standard output)")
    _add_index_flag(p)

    p = sub.add_parser("capacity", help="print how many bits an image can carry")
    p.add_argument("--image", required=True, help="PGM file")

    return parser


def _entry_for(parser, args) -> str:
    """Locator of the target image for verbs taking --id or --image."""
    if args.image:
        return args.image
    index = Index.load(_need_index(parser, args))
    entry = index.find(args.id)
    if entry is None:
        raise LbpmarkdexError(f"image id {args.id!r} not in index")
    return entry.locator


def _format_birthday(record: PatientRecord) -> str:
    return f"{record.birth_year:04d}-{record.birth_month:02d}-{record.birth_day:02d}"


def _cmd_index(parser, args) -> int:
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
    print(entry.locator)
    return 0


def _cmd_query(parser, args) -> int:
    results = query_by_image(load_pgm(args.image), _need_index(parser, args), args.k)
    for rank, result in enumerate(results, start=1):
        print(f"{rank}\t{result.image_id}\t{result.distance:.6f}")
    return 0


def _cmd_find_patient(parser, args) -> int:
    hits = query_by_patient_id(args.patient_id, _need_index(parser, args))
    for entry, record in hits:
        print(
            f"{entry.image_id}\t{record.patient_id}\t{record.name}"
            f"\t{_format_birthday(record)}\t{record.diagnostic}"
        )
    return 0


def _cmd_extract(parser, args) -> int:
    payload = read_stored(_entry_for(parser, args))
    record = payload.record
    print(f"locator\t{payload.locator}")
    print(f"patient_id\t{record.patient_id}")
    print(f"name\t{record.name}")
    print(f"birthday\t{_format_birthday(record)}")
    print(f"diagnostic\t{record.diagnostic}")
    print(f"descriptor_total\t{payload.descriptor.sum()}")
    if args.descriptor:
        print("descriptor\t" + " ".join(str(v) for v in payload.descriptor))
    return 0


def _create_out(path: str, write) -> None:
    """Create the --out file whole. An existing file is never replaced: it
    may be a stored original (the restore source itself, under any name)."""
    try:
        _publish(path, write, replace=False)
    except FileExistsError:
        raise IoFailure(f"--out {path!r} already exists; refusing to replace it") from None
    except OSError as exc:
        raise IoFailure(f"cannot write --out {path!r}: {exc}") from exc


def _cmd_restore(parser, args) -> int:
    original = restore_stored(_entry_for(parser, args))
    _create_out(args.out, lambda tmp: save_pgm(tmp, original))
    print(args.out)
    return 0


def _cmd_relink(parser, args) -> int:
    index, report = relink(args.store, _need_index(parser, args))
    print(f"indexed\t{len(index)}")
    print(f"repaired\t{len(report.repaired)}")
    print(f"unreadable\t{len(report.unreadable)}")
    print(f"conflicting\t{len(report.conflicting)}")
    for kind in ("repaired", "unreadable", "conflicting"):
        for path in getattr(report, kind):
            print(f"{kind}\t{path}")
    return 0


def _load_labels(path: str) -> dict[str, str]:
    """image_id -> class from a --labels file. A repeated id raises
    IoFailure naming the file and line; an empty class, as in the index,
    leaves the image unlabeled."""
    labels: dict[str, str] = {}

    def label(image_id: str, class_label: str) -> None:
        if image_id in labels:
            raise ValueError(f"image_id {image_id!r} is already labeled on an earlier line")
        labels[image_id] = class_label

    _load_tsv(path, "labels", (2,), label)
    return {i: c for i, c in labels.items() if c}


def _cmd_evaluate(parser, args) -> int:
    index = Index.load(_need_index(parser, args))
    if args.labels:
        labels = _load_labels(args.labels)
    else:
        labels = {
            e.image_id: e.class_label for e in index.entries if e.class_label
        }
    labeled = [e for e in index.entries if e.image_id in labels]
    rows = class_mean_pr(stored_descriptors(labeled), labels, args.cutoffs)
    if args.out:
        _create_out(args.out, lambda tmp: write_pr_csv(tmp, rows))
    else:
        sys.stdout.write(render_pr_csv(rows))
    return 0


def _cmd_capacity(parser, args) -> int:
    print(watermark.capacity(load_pgm(args.image)))
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "query": _cmd_query,
    "find-patient": _cmd_find_patient,
    "extract": _cmd_extract,
    "restore": _cmd_restore,
    "relink": _cmd_relink,
    "evaluate": _cmd_evaluate,
    "capacity": _cmd_capacity,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # This call's messages go to this call's stderr at this call's level.
    # The package logger still propagates, so handlers the host program put
    # on the root logger see them too; the root logger is left alone.
    log = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    saved_level = log.level
    log.addHandler(handler)
    log.setLevel([logging.WARNING, logging.INFO, logging.DEBUG][min(args.verbose, 2)])
    try:
        return _COMMANDS[args.command](parser, args)
    except LbpmarkdexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IoFailure: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
