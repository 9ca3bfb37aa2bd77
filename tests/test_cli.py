"""Command-line verbs, exit codes, and output formats."""

import argparse
import contextlib
import io
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lbpmarkdex
from lbpmarkdex import (
    Index,
    IndexEntry,
    capacity,
    class_mean_pr,
    extract,
    load_pgm,
    read_stored,
    render_pr_csv,
    save_pgm,
)
from lbpmarkdex import retrieval
from lbpmarkdex.cli import INDEX_ENV, build_parser, run

from helpers import (
    CacheClock,
    flip_stream_bit,
    gradient_image,
    parse_wire,
    save_locator_file,
    smooth_noise_image,
    stripe_image,
)


def _tree(root) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    """A four-image store built entirely through the command line.

    Two gradient images labeled grad, two stripe images labeled stripe;
    the gradient pair shares one patient id. Tests must not mutate it.
    """
    root = tmp_path_factory.mktemp("cli_store")
    inputs = root / "inputs"
    inputs.mkdir()
    rng = np.random.default_rng(2024)
    images = {
        "ga0": (gradient_image(rng, 160), "grad", "PSHARED", "1961-02-03"),
        "ga1": (gradient_image(rng, 160), "grad", "PSHARED", "1961-02-03"),
        "sb0": (stripe_image(rng, 160), "stripe", "P0100", "1970-11-30"),
        "sb1": (stripe_image(rng, 160), "stripe", "P0101", "0000-01-01"),
    }
    index_path = str(root / "index.tsv")
    store_dir = str(root / "store")
    for image_id, (img, label, pid, birthday) in images.items():
        path = inputs / f"{image_id}.pgm"
        save_pgm(path, img)
        code = run(
            [
                "index",
                "--id", image_id,
                "--image", str(path),
                "--store", store_dir,
                "--patient-id", pid,
                "--name", f"Name of {image_id}",
                "--birthday", birthday,
                "--diagnostic", "routine scan",
                "--class-label", label,
                "--index", index_path,
            ]
        )
        assert code == 0
    return {
        "index": index_path,
        "store": store_dir,
        "inputs": inputs,
        "images": images,
        "root": root,
    }


class TestIndexVerb:
    def test_prints_locator_and_exits_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        path = tmp_path / "in.pgm"
        save_pgm(path, smooth_noise_image(rng, 160, 160))
        code = run(
            [
                "index",
                "--id", "solo",
                "--image", str(path),
                "--store", str(tmp_path / "store"),
                "--patient-id", "P1",
                "--index", str(tmp_path / "idx.tsv"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("solo.pgm")
        assert Index.load(tmp_path / "idx.tsv").get("solo") is not None

    def test_creates_a_missing_index_directory(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        path = tmp_path / "in.pgm"
        save_pgm(path, smooth_noise_image(rng, 160, 160))
        index_path = tmp_path / "db" / "index.tsv"
        code = run(
            [
                "index",
                "--id", "solo",
                "--image", str(path),
                "--store", str(tmp_path / "store"),
                "--patient-id", "P1",
                "--index", str(index_path),
            ]
        )
        assert (code, capsys.readouterr().err) == (0, "")
        assert Index.load(index_path).get("solo") is not None

    def test_duplicate_id_exits_one(self, cli_store, capsys):
        code = run(
            [
                "index",
                "--id", "ga0",
                "--image", str(cli_store["inputs"] / "ga0.pgm"),
                "--store", cli_store["store"],
                "--patient-id", "PX",
                "--index", cli_store["index"],
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("DuplicateId")

    @pytest.mark.parametrize(
        "image_id", ["../up", "a/b", ".", "..", "x\0y", "a\tb", "a\nb", "", "#a", "\x85#a", "  ", "b\udcff"]
    )
    def test_bad_id_exits_one_and_writes_nothing(self, cli_store, tmp_path, capsys, image_id):
        image = tmp_path / "in.pgm"
        shutil.copy(cli_store["inputs"] / "ga0.pgm", image)
        before = _tree(tmp_path)
        code = run(
            [
                "index",
                "--id", image_id,
                "--image", str(image),
                "--store", str(tmp_path / "store"),
                "--patient-id", "P1",
                "--index", str(tmp_path / "index.tsv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("IoFailure")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("option", ["--patient-id", "--name", "--diagnostic"])
    def test_non_utf8_record_field_exits_one_and_writes_nothing(self, cli_store, tmp_path, capsys, option):
        # A non-UTF-8 argv byte reaches the program as a lone surrogate.
        image = tmp_path / "in.pgm"
        shutil.copy(cli_store["inputs"] / "ga0.pgm", image)
        before = _tree(tmp_path)
        args = ["index", "--id", "a", "--image", str(image), "--store", str(tmp_path / "store")]
        code = run([*args, "--patient-id", "P1", option, "\udcff", "--index", str(tmp_path / "index.tsv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("OutOfRange")
        assert _tree(tmp_path) == before

    def test_index_equal_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "index",
                    "--id", "x",
                    "--image", "in.pgm",
                    "--store", str(tmp_path / "same"),
                    "--patient-id", "P",
                    "--index", str(tmp_path / "same"),
                ]
            )
        assert exc.value.code == 2

    def test_bad_birthday_format_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "index",
                    "--id", "x",
                    "--image", "in.pgm",
                    "--store", str(tmp_path / "s"),
                    "--patient-id", "P",
                    "--birthday", "19610203",
                    "--index", str(tmp_path / "i.tsv"),
                ]
            )
        assert exc.value.code == 2

    def test_impossible_birthday_is_domain_error(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        path = tmp_path / "in.pgm"
        save_pgm(path, smooth_noise_image(rng, 160, 160))
        code = run(
            [
                "index",
                "--id", "x",
                "--image", str(path),
                "--store", str(tmp_path / "s"),
                "--patient-id", "P",
                "--birthday", "1961-13-03",
                "--index", str(tmp_path / "i.tsv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("OutOfRange")

    def test_birthday_is_range_checked_not_calendar_checked(self, tmp_path, capsys):
        """Month 1-12 and day 1-31 are checked, as the v1 wire format
        allows, so 2020-02-30 is stored and printed back as given."""
        path = tmp_path / "in.pgm"
        save_pgm(path, smooth_noise_image(np.random.default_rng(32), 160, 160))
        index_path = str(tmp_path / "i.tsv")
        argv = ["--image", str(path), "--store", str(tmp_path / "s"), "--patient-id", "P", "--index", index_path]
        assert run(["index", "--id", "x", "--birthday", "2020-02-30", *argv]) == 0
        capsys.readouterr()
        assert run(["extract", "--id", "x", "--index", index_path]) == 0
        assert "birthday\t2020-02-30" in capsys.readouterr().out.splitlines()


class TestQueryVerb:
    def test_self_query_output_format(self, cli_store, capsys):
        code = run(
            [
                "query",
                "--image", str(cli_store["inputs"] / "ga0.pgm"),
                "--k", "3",
                "--index", cli_store["index"],
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0] == "1\tga0\t0.000000"
        for rank, line in enumerate(lines, start=1):
            fields = line.split("\t")
            assert fields[0] == str(rank)
            float(fields[2])

    def test_repeat_runs_identical(self, cli_store, capsys):
        argv = [
            "query",
            "--image", str(cli_store["inputs"] / "sb1.pgm"),
            "--index", cli_store["index"],
        ]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_k_zero_is_usage_error(self, cli_store):
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "query",
                    "--image", "q.pgm",
                    "--k", "0",
                    "--index", cli_store["index"],
                ]
            )
        assert exc.value.code == 2

    def test_non_integer_k_is_usage_error(self, cli_store, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["query", "--image", "q.pgm", "--k", "abc", "--index", cli_store["index"]])
        assert exc.value.code == 2
        assert "expected an integer, got 'abc'" in capsys.readouterr().err

    def test_missing_query_file_exits_one(self, cli_store, capsys):
        code = run(
            [
                "query",
                "--image", str(cli_store["root"] / "absent.pgm"),
                "--index", cli_store["index"],
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("IoFailure")

    def test_index_from_environment(self, cli_store, capsys, monkeypatch):
        monkeypatch.setenv(INDEX_ENV, cli_store["index"])
        code = run(["query", "--image", str(cli_store["inputs"] / "ga0.pgm")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "1\tga0\t0.000000"

    def test_index_from_environment_is_read_on_each_call(self, cli_store, tmp_path, capsys, monkeypatch):
        """run() builds its parser once per process; the environment fallback
        for --index must still be read by every call."""
        query = ["query", "--image", str(cli_store["inputs"] / "ga0.pgm")]
        rows = Path(cli_store["index"]).read_text(encoding="utf-8").splitlines(keepends=True)
        other = tmp_path / "stripes.tsv"
        other.write_text("".join(row for row in rows if row.startswith("sb")), encoding="utf-8")
        monkeypatch.setenv(INDEX_ENV, cli_store["index"])
        def hits():
            return sorted(line.split("\t")[1] for line in capsys.readouterr().out.splitlines())

        assert run(query) == 0
        assert hits() == ["ga0", "ga1", "sb0", "sb1"]
        monkeypatch.setenv(INDEX_ENV, str(other))
        assert run(query) == 0
        assert hits() == ["sb0", "sb1"]
        monkeypatch.delenv(INDEX_ENV)
        with pytest.raises(SystemExit) as exc:
            run(query)
        assert exc.value.code == 2

    def test_no_index_anywhere_is_usage_error(self, cli_store, monkeypatch):
        monkeypatch.delenv(INDEX_ENV, raising=False)
        with pytest.raises(SystemExit) as exc:
            run(["query", "--image", str(cli_store["inputs"] / "ga0.pgm")])
        assert exc.value.code == 2


class TestBadTsvFiles:
    """A bad index or labels line is an IoFailure naming the file and line."""

    @pytest.mark.parametrize(
        "content",
        [b"a\tstore/a.pgm\n\tfoo.pgm\n", b"a\tstore/a.pgm\n\xff\tfoo.pgm\n"],
        ids=["empty-id", "not-utf8"],
    )
    def test_bad_index_line(self, tmp_path, capsys, content):
        index_path = tmp_path / "index.tsv"
        index_path.write_bytes(content)
        code = run(["find-patient", "--patient-id", "P", "--index", str(index_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("IoFailure")
        assert str(index_path) in err and "line 2" in err

    @pytest.mark.parametrize("verb", ["find-patient", "query", "evaluate"])
    def test_repeated_index_id_names_both_lines(self, cli_store, tmp_path, capsys, verb):
        """A second row of an id stops every reader of the index with an
        IoFailure naming the file and both lines, not DuplicateId."""
        index_path = tmp_path / "index.tsv"
        index_path.write_bytes(b"a\ts/a.pgm\t\na\ts/a.pgm\tL\n")
        args = {
            "find-patient": ["--patient-id", "P"],
            "query": ["--image", str(cli_store["inputs"] / "ga0.pgm")],
            "evaluate": ["--cutoffs", "1"],
        }[verb]
        code = run([verb, *args, "--index", str(index_path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"IoFailure: index {str(index_path)!r} line 2: repeats image_id 'a' of line 1\n"

    @pytest.mark.parametrize("verb", ["find-patient", "query"])
    def test_row_whose_id_index_refuses(self, cli_store, tmp_path, capsys, verb):
        """An old row of an id that neither index nor relink writes is a
        bad line for every reader, named by file and line."""
        index_path = tmp_path / "index.tsv"
        rows = Path(cli_store["index"]).read_bytes()
        index_path.write_bytes(rows + b"..\ts/x.pgm\t\n")
        args = {"find-patient": ["--patient-id", "P"], "query": ["--image", str(cli_store["inputs"] / "ga0.pgm")]}[verb]
        code = run([verb, *args, "--index", str(index_path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        line = rows.count(b"\n") + 1
        assert captured.err == f"IoFailure: index {str(index_path)!r} line {line}: image_id '..' is not a single path component\n"

    @pytest.mark.parametrize(
        "content",
        [b"ga0\tg\nga1\t\xfe\n", b"ga0\tg\nga1\tg\textra\n", b"ga0\tg\nga1", b"ga0\tg\nga1\t\xfe"],
        ids=["not-utf8", "three-fields", "unterminated-one-field", "unterminated-not-utf8"],
    )
    def test_bad_labels_line(self, cli_store, tmp_path, capsys, content):
        # Nothing appends to a --labels file, so it is parsed whole: an
        # unterminated last line is no torn append, and a bad one raises.
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_bytes(content)
        code = run(
            [
                "evaluate",
                "--labels", str(labels_path),
                "--cutoffs", "1",
                "--index", cli_store["index"],
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("IoFailure")
        assert str(labels_path) in err and "line 2" in err

    @pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
    def test_unreadable_labels_file(self, cli_store, tmp_path, capsys, directory):
        labels_path = tmp_path / "labels.tsv"
        if directory:
            labels_path.mkdir()
        out_path = tmp_path / "curve.csv"
        code = run(
            [
                "evaluate",
                "--labels", str(labels_path),
                "--cutoffs", "1",
                "--out", str(out_path),
                "--index", cli_store["index"],
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        reason = "[Errno 21] Is a directory" if directory else "[Errno 2] No such file or directory"
        assert captured.err == f"IoFailure: cannot read labels {str(labels_path)!r}: {reason}: {str(labels_path)!r}\n"
        assert os.listdir(tmp_path) == (["labels.tsv"] if directory else [])


class TestFindPatientVerb:
    def test_shared_patient_lists_both_images(self, cli_store, capsys):
        code = run(
            [
                "find-patient",
                "--patient-id", "PSHARED",
                "--index", cli_store["index"],
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["ga0", "ga1"]
        assert lines[0].split("\t")[1:] == [
            "PSHARED",
            "Name of ga0",
            "1961-02-03",
            "routine scan",
        ]

    def test_unknown_patient_prints_nothing(self, cli_store, capsys):
        code = run(
            ["find-patient", "--patient-id", "P404", "--index", cli_store["index"]]
        )
        assert code == 0
        assert capsys.readouterr().out == ""


class TestExtractVerb:
    def test_fields_by_id(self, cli_store, capsys):
        code = run(["extract", "--id", "sb1", "--index", cli_store["index"]])
        out = capsys.readouterr().out
        assert code == 0
        fields = dict(line.split("\t", 1) for line in out.splitlines())
        assert fields["patient_id"] == "P0101"
        assert fields["name"] == "Name of sb1"
        assert fields["birthday"] == "0000-01-01"
        assert fields["locator"].endswith("sb1.pgm")
        assert int(fields["descriptor_total"]) > 0

    def test_prints_every_record_field(self, cli_store, capsys):
        code = run(["extract", "--id", "ga0", "--index", cli_store["index"]])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[1:5] == ["patient_id\tPSHARED", "name\tName of ga0", "birthday\t1961-02-03", "diagnostic\troutine scan"]

    def test_extract_by_file_path(self, cli_store, capsys):
        locator = Index.load(cli_store["index"]).get("ga1").locator
        code = run(["extract", "--image", locator])
        out = capsys.readouterr().out
        assert code == 0
        assert "patient_id\tPSHARED" in out.splitlines()

    def test_descriptor_dump_has_256_bins(self, cli_store, capsys):
        code = run(
            ["extract", "--id", "ga0", "--descriptor", "--index", cli_store["index"]]
        )
        out = capsys.readouterr().out
        assert code == 0
        row = [line for line in out.splitlines() if line.startswith("descriptor\t")]
        bins = row[0].split("\t")[1].split()
        assert len(bins) == 256
        assert all(b.isdigit() for b in bins)

    def test_id_and_image_together_is_usage_error(self, cli_store):
        with pytest.raises(SystemExit) as exc:
            run(["extract", "--id", "ga0", "--image", "x.pgm"])
        assert exc.value.code == 2

    def test_unknown_id_exits_one(self, cli_store, capsys):
        code = run(["extract", "--id", "ghost", "--index", cli_store["index"]])
        assert code == 1
        assert "ghost" in capsys.readouterr().err


class TestRestoreVerb:
    def test_restored_file_is_byte_identical(self, cli_store, tmp_path, capsys):
        out_path = tmp_path / "back.pgm"
        code = run(
            [
                "restore",
                "--id", "sb0",
                "--out", str(out_path),
                "--index", cli_store["index"],
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == str(out_path)
        original_bytes = (cli_store["inputs"] / "sb0.pgm").read_bytes()
        assert out_path.read_bytes() == original_bytes

    def test_out_name_that_is_not_utf8_prints_escaped(self, cli_store, tmp_path, capsys):
        # A command-line byte that is not UTF-8 reaches argv as a surrogate;
        # capsys encodes standard output strictly, as a UTF-8 terminal does.
        out_path = os.fsencode(tmp_path) + b"/o\xff.pgm"
        code = run(["restore", "--id", "sb0", "--out", os.fsdecode(out_path), "--index", cli_store["index"]])
        assert (code, capsys.readouterr().out) == (0, f"{tmp_path}/o\\xff.pgm\n")
        assert Path(os.fsdecode(out_path)).read_bytes() == (cli_store["inputs"] / "sb0.pgm").read_bytes()

    def test_restore_from_file_path(self, cli_store, tmp_path):
        locator = Index.load(cli_store["index"]).get("ga0").locator
        out_path = tmp_path / "back.pgm"
        assert run(["restore", "--image", locator, "--out", str(out_path)]) == 0
        assert load_pgm(out_path) == cli_store["images"]["ga0"][0]

    @pytest.mark.parametrize("flag", ["--id", "--image"])
    @pytest.mark.parametrize("spelling", ["same", "dotted", "hard-link"])
    def test_refuses_to_overwrite_its_own_source(self, cli_store, tmp_path, capsys, flag, spelling):
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        source = store_copy / "sb0.pgm"
        index_path = tmp_path / "index.tsv"
        Index({"sb0": IndexEntry("sb0", str(source))}).save(index_path)
        out_path = {
            "same": source,
            "dotted": store_copy / "." / ".." / "store" / "sb0.pgm",
            "hard-link": tmp_path / "alias.pgm",
        }[spelling]
        if spelling == "hard-link":
            os.link(source, out_path)
        target = ["--id", "sb0"] if flag == "--id" else ["--image", str(source)]
        stored = source.read_bytes()
        code = run(["restore", *target, "--out", str(out_path), "--index", str(index_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("IoFailure: ")
        assert source.read_bytes() == stored

    def test_refuses_to_replace_another_stored_file(self, cli_store, tmp_path, capsys):
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        target = store_copy / "sb1.pgm"
        stored = target.read_bytes()
        code = run(["restore", "--id", "sb0", "--out", str(target), "--index", cli_store["index"]])
        assert code == 1
        assert capsys.readouterr().err == f"IoFailure: --out {str(target)!r} already exists; refusing to replace it\n"
        assert target.read_bytes() == stored
        assert _tree(store_copy) == _tree(cli_store["store"])

    def test_stale_temporary_linked_to_a_stored_file_is_not_written_through(self, cli_store, tmp_path):
        # A writer killed between linking its output and removing its
        # temporary leaves that name behind as a link to the file.
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        victim = store_copy / "sb1.pgm"
        stored = victim.read_bytes()
        out_path = tmp_path / "out.pgm"
        os.link(victim, f"{out_path}.tmp.{os.getpid()}")
        code = run(["restore", "--id", "sb0", "--out", str(out_path), "--index", cli_store["index"]])
        assert code == 0
        assert victim.read_bytes() == stored
        assert out_path.read_bytes() == (cli_store["inputs"] / "sb0.pgm").read_bytes()

    def test_refuses_a_damaged_payload(self, cli_store, tmp_path, capsys):
        # One flipped bit in the payload body: extract() alone still rebuilds
        # the original pixels, but a file whose payload fails its checksum
        # is rejected, not restored.
        marked = load_pgm(Index.load(cli_store["index"]).get("sb0").locator)
        body_start = parse_wire(marked.pixels.astype(np.int64))["data_start"] + 8 * 16
        tampered = flip_stream_bit(marked, body_start + 3)
        assert extract(tampered)[1] == cli_store["images"]["sb0"][0]
        source = tmp_path / "tampered.pgm"
        save_pgm(source, tampered)
        out_path = tmp_path / "back.pgm"
        code = run(["restore", "--image", str(source), "--out", str(out_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ChecksumMismatch: ")
        assert _tree(tmp_path) == ["tampered.pgm"]

    def test_out_in_a_missing_directory_names_out(self, cli_store, tmp_path, capsys):
        out_path = tmp_path / "absent" / "back.pgm"
        code = run(["restore", "--id", "sb0", "--out", str(out_path), "--index", cli_store["index"]])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"IoFailure: cannot write --out {str(out_path)!r}: ")
        assert _tree(tmp_path) == []


class TestScansNeverRestore:
    def test_reads_succeed_without_extract(self, cli_store, tmp_path, capsys, monkeypatch):
        # Every verb that only reads payloads must give the same output when
        # the restoring extract() fails; restore itself still needs it.
        index = cli_store["index"]
        reads = [
            ["query", "--image", str(cli_store["inputs"] / "ga0.pgm"), "--k", "4", "--index", index],
            ["find-patient", "--patient-id", "PSHARED", "--index", index],
            ["extract", "--id", "sb1", "--descriptor", "--index", index],
            ["evaluate", "--cutoffs", "1,3", "--index", index],
        ]

        def outputs(relink_index):
            results = []
            for argv in reads + [["relink", "--store", cli_store["store"], "--index", str(relink_index)]]:
                code = run(argv)
                results.append((code, capsys.readouterr().out))
            return results

        expected = outputs(tmp_path / "relinked_a.tsv")
        assert all(code == 0 for code, _ in expected)

        def no_restore(img):
            raise AssertionError("a store read restored pixels")

        monkeypatch.setattr("lbpmarkdex.retrieval.extract", no_restore)
        assert outputs(tmp_path / "relinked_b.tsv") == expected
        out_path = tmp_path / "back.pgm"
        with pytest.raises(AssertionError):
            run(["restore", "--id", "sb0", "--out", str(out_path), "--index", index])
        monkeypatch.undo()
        assert run(["restore", "--id", "sb0", "--out", str(out_path), "--index", index]) == 0
        assert out_path.read_bytes() == (cli_store["inputs"] / "sb0.pgm").read_bytes()


class TestLoggingPerCall:
    def test_each_call_warns_on_its_own_stderr_at_its_own_level(self, cli_store, tmp_path, monkeypatch):
        # Two in-process calls, each with its own stderr, over an index with
        # one missing file; the second call asks for -v.
        gone = tmp_path / "gone.pgm"
        index_path = tmp_path / "index.tsv"
        Index({**Index.load(cli_store["index"]), "gone": IndexEntry("gone", str(gone))}).save(index_path)
        levels = []

        def spy(*args):
            levels.append(logging.getLogger("lbpmarkdex.retrieval").getEffectiveLevel())
            return lbpmarkdex.query_by_patient_id(*args)

        monkeypatch.setattr("lbpmarkdex.cli.query_by_patient_id", spy)
        root = logging.getLogger()
        root_before = (root.level, list(root.handlers))
        host = logging.Handler(logging.WARNING)
        host.emit = lambda record: host_messages.append(record.getMessage())
        host_messages = []
        root.addHandler(host)
        errs = []
        try:
            for verbose in ([], ["-v"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    assert run([*verbose, "find-patient", "--patient-id", "PSHARED", "--index", str(index_path)]) == 0
                errs.append(err.getvalue())
        finally:
            root.removeHandler(host)
        assert levels == [logging.WARNING, logging.INFO]
        assert errs[0].startswith(f"skipping gone ({gone}): ")
        assert errs == [errs[0], errs[0]] and errs[0].count("\n") == 1
        # The host program's root handler sees each warning; root is untouched.
        assert host_messages == [errs[0].rstrip("\n")] * 2
        assert (root.level, root.handlers) == root_before

    def test_query_v_counts_a_warm_scan(self, cli_store, tmp_path, monkeypatch, capsys):
        """At -v a query's scan logs one line counting its entries: served
        from the descriptor cache, read, and skipped by error class. A
        damaged file is skipped, and warned about, on every scan. The
        default level prints the warning alone."""
        store = tmp_path / "store"
        shutil.copytree(cli_store["store"], store)
        index_path = tmp_path / "index.tsv"
        Index({i: IndexEntry(i, str(store / f"{i}.pgm")) for i in Index.load(cli_store["index"])}).save(index_path)
        damaged = store / "sb1.pgm"
        os.truncate(damaged, 5000)
        clock = CacheClock()
        clock.offset = retrieval.RACY_NS
        monkeypatch.setattr(retrieval, "time_ns", clock)
        query = ["query", "--image", str(cli_store["inputs"] / "ga0.pgm"), "--k", "4", "--index", str(index_path)]
        warning = f"skipping sb1 ({damaged}): TruncatedData: "
        errs = []
        for verbose in (["-v"], ["-v"], []):
            assert run([*verbose, *query]) == 0
            errs.append(capsys.readouterr().err.splitlines())
        assert [len(err) for err in errs] == [2, 2, 1]
        assert all(err[0].startswith(warning) for err in errs)
        assert errs[0][1] == "scanned 4: 0 cached, 3 read, 1 skipped (TruncatedData 1)"
        assert errs[1][1] == "scanned 4: 3 cached, 0 read, 1 skipped (TruncatedData 1)"

    def test_package_logger_level_is_restored(self, cli_store, capsys):
        log = logging.getLogger("lbpmarkdex")
        before = log.level
        log.setLevel(logging.ERROR)
        try:
            for verbose in (["-v"], ["-vv"], []):
                assert run([*verbose, "capacity", "--image", str(cli_store["inputs"] / "ga0.pgm")]) == 0
                assert log.level == logging.ERROR
        finally:
            log.setLevel(before)


class TestRelinkVerb:
    def test_rebuild_after_index_loss(self, cli_store, tmp_path, capsys):
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        new_index = tmp_path / "rebuilt.tsv"
        code = run(
            ["relink", "--store", str(store_copy), "--index", str(new_index)]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "indexed\t4"
        assert lines[1] == "repaired\t4"
        assert lines[2] == "unreadable\t0"
        assert lines[3] == "conflicting\t0"
        rebuilt = Index.load(new_index)
        assert sorted(e.image_id for e in rebuilt.values()) == [
            "ga0",
            "ga1",
            "sb0",
            "sb1",
        ]

    def test_creates_a_missing_index_directory(self, cli_store, tmp_path, capsys):
        new_index = tmp_path / "db" / "rebuilt.tsv"
        code = run(["relink", "--store", cli_store["store"], "--index", str(new_index)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert [e.image_id for e in Index.load(new_index).values()] == ["ga0", "ga1", "sb0", "sb1"]

    @pytest.mark.parametrize(
        "name, locator",
        [
            ("odd.pgm", "store/a\tb.pgm"),
            ("odd.pgm", "store/#scan.pgm"),
            ("odd.pgm", "store/\x85#x.pgm"),
            ("a\tb.pgm", "store/fine.pgm"),
            ("odd.pgm", "store/.."),
            ("odd.pgm", "store/a\x00b.pgm"),
        ],
    )
    def test_row_the_index_cannot_hold_conflicts(self, cli_store, tmp_path, capsys, name, locator):
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        odd = store_copy / name
        save_locator_file(odd, np.random.default_rng(41), locator)
        new_index = tmp_path / "rebuilt.tsv"
        code = run(["relink", "--store", str(store_copy), "--index", str(new_index)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:4] == ["indexed\t4", "repaired\t4", "unreadable\t0", "conflicting\t1"]
        assert f"conflicting\t{odd}" in lines
        assert [e.image_id for e in Index.load(new_index).values()] == ["ga0", "ga1", "sb0", "sb1"]

    @staticmethod
    def _store_of_one_non_utf8_name(cli_store, tmp_path):
        """A store whose one file, a copy of ga0's, is named b"\\xff.pgm",
        and the text relink prints for it: the file is listed as
        conflicting (an index row is UTF-8 text), its name byte as \\xff."""
        store = tmp_path / "store"
        store.mkdir()
        shutil.copyfile(Index.load(cli_store["index"]).get("ga0").locator, os.fsencode(store) + b"/\xff.pgm")
        out = "indexed\t0\nrepaired\t0\nunreadable\t0\nconflicting\t1\n" + f"conflicting\t{store}/\\xff.pgm\n"
        return store, out

    def test_a_file_name_that_is_not_utf8_prints_escaped(self, cli_store, tmp_path, capsys):
        # capsys encodes standard output strictly, as a UTF-8 terminal does.
        store, out = self._store_of_one_non_utf8_name(cli_store, tmp_path)
        code = run(["relink", "--store", str(store), "--index", str(tmp_path / "i.tsv")])
        assert (code, capsys.readouterr().out) == (0, out)
        assert Index.load(tmp_path / "i.tsv") == Index()

    @pytest.mark.parametrize(
        "env", [{"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}], ids=["strict-utf8", "c-locale"]
    )
    def test_a_file_name_that_is_not_utf8_prints_escaped_in_a_child_process(self, cli_store, tmp_path, env):
        """Strict UTF-8 output and the C locale (whose output escapes
        surrogates) print the same text."""
        store, out = self._store_of_one_non_utf8_name(cli_store, tmp_path)
        inherited = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")}
        env = dict(inherited, PYTHONPATH=str(Path(lbpmarkdex.__file__).parents[1]), **env)
        argv = ["relink", "--store", str(store), "--index", str(tmp_path / "i.tsv")]
        proc = subprocess.run(
            [sys.executable, "-c", "from lbpmarkdex.cli import main; main()", *argv], capture_output=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode("utf-8"), b"")


def _run_on(encoding: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    """run(argv) with standard output and error strict text streams of
    encoding: (exit status, argparse's SystemExit code included, the bytes
    written to each)."""
    buffers = io.BytesIO(), io.BytesIO()
    out, err = (io.TextIOWrapper(b, encoding=encoding, errors="strict", newline="\n") for b in buffers)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    err.flush()
    return code, buffers[0].getvalue(), buffers[1].getvalue()


@pytest.fixture(scope="module")
def accented_store(tmp_path_factory):
    """Two images indexed on a strict ASCII standard output: ids "é0" and
    "é1", patient "José", label "clé", store directory "störe"."""
    root = tmp_path_factory.mktemp("accented")
    index_path, store = str(root / "index.tsv"), str(root / "db" / "störe")
    printed = []
    for i in range(2):
        path = root / f"in{i}.pgm"
        save_pgm(path, smooth_noise_image(np.random.default_rng(60 + i), 160, 160))
        argv = ["index", "--id", f"é{i}", "--image", str(path), "--store", store, "--patient-id", "P1"]
        printed.append(_run_on("ascii", [*argv, "--name", "José", "--class-label", "clé", "--index", index_path]))
    return {"root": root, "index": index_path, "store": store, "printed": printed}


class TestOutputEncoding:
    """Every verb writes text a strict stream cannot encode escaped
    (\\xNN, \\uNNNN), and exits as it would on a UTF-8 stream."""

    def test_index_prints_a_non_ascii_store_path_escaped(self, accented_store):
        store = accented_store["store"].encode("ascii", "backslashreplace")
        assert accented_store["printed"] == [(0, store + b"/\\xe9%d.pgm\n" % i, b"") for i in range(2)]
        assert list(Index.load(accented_store["index"])) == ["é0", "é1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["find-patient", "--patient-id", "P1"],
            ["extract", "--id", "é0"],
            ["query", "--image", "in0.pgm", "--k", "2"],
            ["evaluate", "--cutoffs", "1"],
            ["relink", "--store", "db/störe"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_verb_prints_escaped_on_a_strict_ascii_stream(self, accented_store, tmp_path, argv):
        root = accented_store["root"]
        argv = [str(root / a) if a in ("in0.pgm", "db/störe") else a for a in argv]
        results = []
        for encoding in ("utf-8", "ascii"):
            index_path = accented_store["index"]
            if argv[0] == "relink":  # a fresh index each time, so every file is listed as repaired
                index_path = str(tmp_path / f"{encoding}.tsv")
            results.append(_run_on(encoding, [*argv, "--index", index_path]))
        (code, utf8, err), ascii_result = results
        assert (code, err) == (0, b"")
        assert any(byte >= 0x80 for byte in utf8)
        assert ascii_result == (0, utf8.decode("utf-8").encode("ascii", "backslashreplace"), b"")

    def test_find_patient_prints_escaped_under_strict_ascii_in_a_child_process(self, accented_store):
        inherited = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")}
        env = dict(inherited, PYTHONPATH=str(Path(lbpmarkdex.__file__).parents[1]), PYTHONIOENCODING="ascii:strict")
        argv = ["find-patient", "--patient-id", "P1", "--index", accented_store["index"]]
        proc = subprocess.run(
            [sys.executable, "-c", "from lbpmarkdex.cli import main; main()", *argv], capture_output=True, env=env
        )
        lines = [b"\\xe9%d\tP1\tJos\\xe9\t0000-01-01\t\n" % i for i in range(2)]
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"".join(lines), b"")

    def test_an_error_and_a_warning_print_escaped(self, accented_store, tmp_path):
        code, out, err = _run_on("ascii", ["extract", "--id", "nö", "--index", accented_store["index"]])
        assert (code, out, err) == (1, b"", b"LbpmarkdexError: image id 'n\\xf6' not in index\n")
        index_path, gone = tmp_path / "i.tsv", str(tmp_path / "störe" / "é9.pgm")
        Index({"é9": IndexEntry("é9", gone)}).save(index_path)
        code, out, err = _run_on("ascii", ["find-patient", "--patient-id", "P1", "--index", str(index_path)])
        assert (code, out) == (0, b"")
        assert err.startswith(f"skipping é9 ({gone}): IoFailure: ".encode("ascii", "backslashreplace"))
        assert err.count(b"\n") == 1


class TestEvaluateVerb:
    def test_matches_library_result(self, cli_store, capsys):
        code = run(
            [
                "evaluate",
                "--cutoffs", "1,3",
                "--index", cli_store["index"],
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        index = Index.load(cli_store["index"])
        descriptors = {
            e.image_id: read_stored(e.locator).descriptor
            for e in index.values()
        }
        labels = {e.image_id: e.class_label for e in index.values()}
        assert out == render_pr_csv(class_mean_pr(descriptors, labels, [1, 3]))
        assert out.splitlines()[0] == "class,k,mean_precision,mean_recall"
        assert {line.split(",")[0] for line in out.splitlines()[1:]} == {
            "grad",
            "stripe",
        }

    def test_labels_file_and_out_path(self, cli_store, tmp_path, capsys):
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text(
            "ga0\tg\nga1\tg\nsb0\ts\nsb1\ts\n", encoding="utf-8"
        )
        out_path = tmp_path / "curve.csv"
        code = run(
            [
                "evaluate",
                "--labels", str(labels_path),
                "--cutoffs", "1",
                "--out", str(out_path),
                "--index", cli_store["index"],
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "class,k,mean_precision,mean_recall"
        assert {line.split(",")[0] for line in text.splitlines()[1:]} == {"g", "s"}

    def test_repeated_labels_id_is_io_failure(self, cli_store, tmp_path, capsys):
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("ga0\tg\nga1\tg\n# comment\nga0\ts\n", encoding="utf-8")
        code = run(["evaluate", "--labels", str(labels_path), "--cutoffs", "1", "--index", cli_store["index"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"IoFailure: labels {str(labels_path)!r} line 4: repeats image_id 'ga0' of line 1\n"
        )

    def test_unterminated_last_labels_line_is_read(self, cli_store, tmp_path, capsys):
        """Nothing appends to a --labels file, so it is parsed whole: a last
        line without "\n" labels its image (TestBadTsvFiles covers one that
        does not parse)."""
        outputs = []
        for end in ("\n", ""):
            labels_path = tmp_path / f"labels{len(end)}.tsv"
            labels_path.write_text(f"ga0\tg\nga1\tg\nsb0\ts\nsb1\ts{end}", encoding="utf-8")
            code = run(["evaluate", "--labels", str(labels_path), "--cutoffs", "1", "--index", cli_store["index"]])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert {line.split(",")[0] for line in outputs[1].splitlines()[1:]} == {"g", "s"}

    def test_empty_labels_class_is_unlabeled(self, cli_store, tmp_path, capsys):
        """As in the index, an empty class leaves the image out of the
        evaluation instead of scoring a class named ''."""
        with_empty = tmp_path / "with_empty.tsv"
        with_empty.write_text("ga0\tg\nga1\tg\nsb0\t\nsb1\t\n", encoding="utf-8")
        without = tmp_path / "without.tsv"
        without.write_text("ga0\tg\nga1\tg\n", encoding="utf-8")
        outputs = []
        for labels_path in (with_empty, without):
            code = run(["evaluate", "--labels", str(labels_path), "--cutoffs", "1", "--index", cli_store["index"]])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1:] == ["g,1,1.000000,1.000000"]

    def test_after_a_fresh_relink_no_image_is_labeled(self, cli_store, tmp_path, capsys):
        """Labels do not survive a relink, so evaluate has no labeled id to
        score unless --labels names them."""
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        index_path = str(tmp_path / "rebuilt.tsv")
        assert run(["relink", "--store", str(store_copy), "--index", index_path]) == 0
        capsys.readouterr()
        code = run(["evaluate", "--cutoffs", "1", "--index", index_path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "BadCutoff: cutoffs need at least 2 labeled images with a descriptor, found 0\n"
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("ga0\tg\nga1\tg\nsb0\ts\nsb1\ts\n", encoding="utf-8")
        code = run(["evaluate", "--labels", str(labels_path), "--cutoffs", "1", "--index", index_path])
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["g", "1"], ["s", "1"]]

    def test_damaged_entry_skipped_and_rest_scored(self, cli_store, tmp_path, capsys, caplog):
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        index = Index.load(cli_store["index"])
        index_path = tmp_path / "index.tsv"
        Index(
            {e.image_id: IndexEntry(e.image_id, str(store_copy / f"{e.image_id}.pgm"), e.class_label)
             for e in index.values()}
        ).save(index_path)
        damaged = store_copy / "sb1.pgm"
        damaged.write_bytes(damaged.read_bytes()[:-100])
        with caplog.at_level(logging.WARNING, logger="lbpmarkdex.retrieval"):
            code = run(["evaluate", "--cutoffs", "1,2", "--index", str(index_path)])
        assert code == 0
        intact = {
            e.image_id: read_stored(e.locator).descriptor
            for e in index.values()
            if e.image_id != "sb1"
        }
        labels = {e.image_id: e.class_label for e in index.values()}
        assert capsys.readouterr().out == render_pr_csv(class_mean_pr(intact, labels, [1, 2]))
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping sb1 ({damaged}): TruncatedData: expected 25600 pixel bytes, found 25500"
        ]

    def test_bad_cutoffs_are_usage_error(self, cli_store):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--cutoffs", "a,b", "--index", cli_store["index"]])
        assert exc.value.code == 2

    def test_no_cutoffs_is_usage_error(self, cli_store, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--cutoffs", ",", "--index", cli_store["index"]])
        assert exc.value.code == 2
        assert "at least one cutoff is required" in capsys.readouterr().err

    def test_refuses_to_replace_an_existing_file(self, cli_store, tmp_path, capsys):
        store_copy = tmp_path / "store"
        shutil.copytree(cli_store["store"], store_copy)
        target = store_copy / "ga1.pgm"
        stored = target.read_bytes()
        code = run(["evaluate", "--cutoffs", "1", "--out", str(target), "--index", cli_store["index"]])
        assert code == 1
        assert capsys.readouterr().err == f"IoFailure: --out {str(target)!r} already exists; refusing to replace it\n"
        assert target.read_bytes() == stored
        assert _tree(store_copy) == _tree(cli_store["store"])

    def test_oversized_cutoff_is_domain_error(self, cli_store, capsys):
        code = run(["evaluate", "--cutoffs", "99", "--index", cli_store["index"]])
        assert code == 1
        assert capsys.readouterr().err.startswith("BadCutoff")


class TestCapacityVerb:
    def test_prints_bit_count(self, cli_store, capsys):
        path = cli_store["inputs"] / "ga0.pgm"
        code = run(["capacity", "--image", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert int(out.strip()) == capacity(load_pgm(path))


def _options(names: str) -> list[str]:
    return sorted(["-h", "--help", *names.split()])


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_each_verb_takes_its_options(self):
        """--index is declared once and inherited by every verb but
        capacity; --id | --image, required and mutually exclusive, by
        extract and restore only."""
        verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        table = {
            verb: (
                sorted(o for a in p._actions for o in a.option_strings),
                [(g.required, [o for a in g._group_actions for o in a.option_strings]) for g in p._mutually_exclusive_groups],
            )
            for verb, p in verbs.items()
        }
        exclusive = [(True, ["--id", "--image"])]
        assert table == {
            "index": (_options("--id --image --store --patient-id --name --birthday --diagnostic --class-label --index"), []),
            "query": (_options("--image --k --index"), []),
            "find-patient": (_options("--patient-id --index"), []),
            "extract": (_options("--id --image --descriptor --index"), exclusive),
            "restore": (_options("--id --image --out --index"), exclusive),
            "relink": (_options("--store --index"), []),
            "evaluate": (_options("--labels --cutoffs --out --index"), []),
            "capacity": (_options("--image"), []),
        }

    @pytest.mark.parametrize(
        "verb",
        [[], ["index"], ["query"], ["find-patient"], ["extract"], ["restore"], ["relink"], ["evaluate"], ["capacity"]],
        ids=lambda verb: verb[0] if verb else "top",
    )
    def test_help_on_a_strict_ascii_stream_exits_zero(self, verb):
        code, out, err = _run_on("ascii", [*verb, "-h"])
        assert (code, err) == (0, b"")
        assert out.startswith(b"usage: lbpmarkdex " + " ".join(verb).encode("ascii"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--image", "absent.pgm"],
            ["query", "--image", "in.pgm"],
            ["find-patient", "--patient-id", "P"],
            ["index", "--id", "x", "--image", "in.pgm", "--store", "s", "--patient-id", "P"],
            ["extract", "--id", "x"],
            ["restore", "--id", "x", "--out", "out.pgm"],
            ["relink", "--store", "s"],
            ["evaluate", "--cutoffs", "1"],
        ],
        ids=["query-absent-image", "query", "find-patient", "index", "extract", "restore", "relink", "evaluate"],
    )
    def test_no_index_anywhere_is_a_usage_error_of_the_verb(self, tmp_path, capsys, monkeypatch, argv):
        """Without --index or its variable a verb that needs an index exits
        2 with its own usage line, before it reads any other input."""
        monkeypatch.delenv(INDEX_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        save_pgm(tmp_path / "in.pgm", smooth_noise_image(np.random.default_rng(3), 32, 32))
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        usage = verbs[argv[0]].format_usage()
        assert usage.startswith(f"usage: lbpmarkdex {argv[0]} ")
        assert capsys.readouterr().err == f"{usage}lbpmarkdex {argv[0]}: error: --index is required (or set ${INDEX_ENV})\n"
        assert _tree(tmp_path) == ["in.pgm"]

    def test_a_usage_error_prints_escaped_on_a_strict_ascii_stream(self, tmp_path):
        argv = ["index", "--id", "x", "--image", "in.pgm", "--store", "s", "--patient-id", "P", "--birthday", "é"]
        code, out, err = _run_on("ascii", [*argv, "--index", str(tmp_path / "i.tsv")])
        assert (code, out) == (2, b"")
        assert err.endswith(b"lbpmarkdex index: error: argument --birthday: birthday must be YYYY-MM-DD, got '\\xe9'\n")
        assert _tree(tmp_path) == []

    def test_a_usage_error_on_a_stream_that_cannot_be_written_still_exits_two(self):
        """argparse's own rule: text for a missing standard error is dropped."""
        with contextlib.redirect_stderr(None), pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad", ["\x00", "\ud800"], ids=["nul", "surrogate"])
    @pytest.mark.parametrize("option", ["--image", "--store", "--index", "--labels", "--out"])
    def test_a_path_the_file_system_cannot_take_is_a_usage_error(self, cli_store, tmp_path, capsys, option, bad):
        """The command line runs with a good path; with the bad one it exits
        2 naming the option, and touches no file."""
        labels = tmp_path / "labels.tsv"
        labels.write_text("ga0\tgrad\nsb0\tstripe\n")
        good = {
            "--image": str(cli_store["inputs"] / "ga0.pgm"),
            "--store": str(tmp_path / "store"),
            "--index": str(tmp_path / "i.tsv"),
            "--labels": str(labels),
            "--out": str(tmp_path / "out"),
        }
        index = ["index", "--id", "x", "--patient-id", "P"]
        argv = {
            "--image": [*index, "--store", good["--store"], "--index", good["--index"]],
            "--store": [*index, "--image", good["--image"], "--index", good["--index"]],
            "--index": [*index, "--image", good["--image"], "--store", good["--store"]],
            "--labels": ["evaluate", "--cutoffs", "1", "--out", good["--out"], "--index", cli_store["index"]],
            "--out": ["restore", "--id", "sb0", "--index", cli_store["index"]],
        }[option]
        before = _tree(tmp_path), _tree(cli_store["root"])
        value = good[option] + bad
        with pytest.raises(SystemExit) as exc:
            run([*argv, option, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(f": error: argument {option}: not a path the file system can take, got {value!r}\n")
        assert err.count("error:") == 1
        assert (_tree(tmp_path), _tree(cli_store["root"])) == before
        assert run([*argv, option, good[option]]) == 0
        assert _tree(tmp_path) != before[0]


class TestConsoleScript:
    def test_installed_entry_point(self, cli_store, tmp_path):
        """The declared `lbpmarkdex` command prints the capacity in a child process.

        The console script is built here from `[project.scripts]` in
        pyproject.toml, as pip's template writes it, and runs against the
        package this suite imported; an installed copy is not used.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["lbpmarkdex"]
        module, _, func = entry.partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "lbpmarkdex"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({func}())\n"
        )
        script.chmod(0o755)
        env = dict(
            os.environ,
            PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
            PYTHONPATH=str(Path(lbpmarkdex.__file__).parents[1]),
        )

        path = cli_store["inputs"] / "sb0.pgm"
        proc = subprocess.run(
            ["lbpmarkdex", "capacity", "--image", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert int(proc.stdout.strip()) == capacity(load_pgm(path))
