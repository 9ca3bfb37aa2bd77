"""The three workloads and the loop that drives them through the CLI.

A request is one in-process call of ``lbpmarkdex.cli.run(argv)`` (two on
maintain: relink, then evaluate) made by a single client in a closed loop:
the next request starts only after the previous one has returned and its
output has been checked. Timing covers the calls alone; making inputs and
checking outputs happen between calls. Python start-up is never timed.

Each workload works in its own directory under the checkout. A copy of
the store ("rep") is built by setup, which runs several times so that
set-up time is reported as a median. The untraced run measures on the
first copy. The traced run plays the same requests on two copies, one
traced and one not, alternating which goes first; the gap between them
is the tracing overhead. Both copies see identical requests, so their
outputs must be identical too.

Every call's output is checked against answers computed by the
benchmark itself (see oracle.py). A call with a wrong output or an
unexpected exit status is a failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import platform
import re
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import corpus
import oracle
import tracing

MIN_SAMPLES = 11  # fewest requests for which a tail (10 samples above it) exists
DIGEST_FILE = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Sizes:
    """Corpus and run sizes. The defaults are the benchmark; tests shrink them."""

    ingest_side: int = 1024
    store_side: int = 256
    store_n: int = 240
    patients: int = 80
    flips: int = 3
    truncations: int = 3
    setup_reps: int = 3
    warmups: int = 2
    restore_checks: int = 12


# ---------------------------------------------------------------------------
# Calling the CLI


@dataclass
class Call:
    rc: int | None
    out: str
    err: str
    logs: list[str]
    seconds: float


class _LogCapture(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class Client:
    """Calls ``cli.run`` in-process and captures stdout, stderr and warnings.

    The capture handler sits on the root logger before the first call, so
    the CLI's own ``logging.basicConfig`` leaves it in place.
    """

    def __init__(self, cli_module) -> None:
        self._cli = cli_module
        self._capture = _LogCapture()
        logging.getLogger().addHandler(self._capture)

    def close(self) -> None:
        logging.getLogger().removeHandler(self._capture)

    def call(self, argv: list[str]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        self._capture.messages = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self._cli.run(argv)  # looked up per call, so tracing sees it
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        return Call(rc, out.getvalue(), err.getvalue(), self._capture.messages, seconds)


# ---------------------------------------------------------------------------
# Requests and checks


@dataclass
class Step:
    """One CLI call and the check of its result (None when correct)."""

    verb: str
    argv: list[str]
    check: Callable[[Call], str | None]
    before: Callable[[], None] | None = None  # untimed action in the copy's directory


@dataclass
class Request:
    kind: str
    steps: list[Step]
    commit: Callable[[], None] = lambda: None  # runs once, after every copy ran it


def _expect_text(expected: str, what: str) -> Callable[[Call], str | None]:
    """Exit status 0 and exactly this standard output."""

    def check(call: Call) -> str | None:
        if call.rc != 0:
            return f"exit {call.rc}: {call.err.strip()[-300:]}"
        if call.out != expected:
            return f"{what}: got {call.out[:200]!r}, expected {expected[:200]!r}"
        return None

    return check


# The warning retrieval logs for each entry a scan skips.
_SKIP = re.compile(r"^skipping (\S+) ")


def _expect_skips(damaged: set[str], check: Callable[[Call], str | None]) -> Callable[[Call], str | None]:
    """The check, and a skip warning for exactly the damaged ids."""

    def checked(call: Call) -> str | None:
        failure = check(call)
        skipped = {m.group(1) for m in map(_SKIP.match, call.logs) if m}
        if failure is None and skipped != damaged:
            failure = f"skipped {sorted(skipped)}, damaged {sorted(damaged)}"
        return failure

    return checked


@dataclass
class Image:
    """An image the benchmark made and indexed, with what it expects back."""

    image_id: str
    number: int
    cls: str
    side: int
    record: dict
    descriptor: np.ndarray | None = None

    def pixels(self, seed: int) -> np.ndarray:
        return corpus.texture(seed, self.number, self.cls, self.side)

    def locator(self, db: str = "db") -> str:
        return f"{db}/store/{self.image_id}.pgm"

    def extract_text(self) -> str:
        r = self.record
        return (
            f"locator\t{self.locator()}\npatient_id\t{r['patient_id']}\nname\t{r['name']}\n"
            f"birthday\t{r['birthday']}\ndiagnostic\t{r['diagnostic']}\n"
            f"descriptor_total\t{int(self.descriptor.sum())}\n"
            "descriptor\t" + " ".join(str(int(v)) for v in self.descriptor) + "\n"
        )


def _index_step(image: Image, label: str, db: str = "db") -> Step:
    """Index the image from its input file into the store under db."""
    r = image.record
    argv = [
        "index", "--id", image.image_id, "--image", f"../inputs/{image.image_id}.pgm",
        "--store", f"{db}/store", "--patient-id", r["patient_id"], "--name", r["name"],
        "--birthday", r["birthday"], "--diagnostic", r["diagnostic"], "--class-label", label,
        "--index", f"{db}/index.tsv",
    ]  # fmt: skip
    return Step(
        "index",
        argv,
        _expect_text(image.locator(db) + "\n", "locator"),
        before=lambda: os.makedirs(db, exist_ok=True),  # the index's directory must exist
    )


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


class Workload:
    """A seeded request sequence over a store that setup builds."""

    name = ""
    why = ""
    traced_requests = 0  # fixed length of a traced run, so its counts repeat
    digest_requests = 0  # requests whose outputs enter the digest

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.indexed: list[Image] = []
        self.raw_bytes = 0

    def prepare(self) -> None:
        """Make the inputs setup needs; untimed, once per run."""

    def setup_steps(self) -> list[Step]:
        """CLI calls that build one copy of the starting state."""
        return []

    def after_setup(self) -> None:
        """Benchmark-side changes to a freshly built copy (cwd is the copy)."""

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def check_steps(self) -> list[Step]:
        """Calls made after the measurement to check stored state."""
        return self._restore_checks(self._check_sample(self.sizes.restore_checks))

    def _check_sample(self, count: int) -> list[Image]:
        """Up to count indexed images, spread evenly, first and last included."""
        images = self.indexed
        if len(images) <= count:
            return list(images)
        return [images[round(k * (len(images) - 1) / (count - 1))] for k in range(count)]

    def _restore_checks(self, images: list[Image]) -> list[Step]:
        steps = []
        for image in images:
            if image.descriptor is None:
                image.descriptor = oracle.descriptor(image.pixels(self.seed))
            steps.append(
                Step(
                    "extract",
                    ["extract", "--id", image.image_id, "--descriptor", "--index", "db/index.tsv"],
                    _expect_text(image.extract_text(), f"extract {image.image_id}"),
                )
            )
            steps.append(
                Step(
                    "restore",
                    ["restore", "--id", image.image_id, "--out", "restored.pgm", "--index", "db/index.tsv"],
                    self._restored_check(image),
                )
            )
        return steps

    def _restored_check(self, image: Image) -> Callable[[Call], str | None]:
        def check(call: Call) -> str | None:
            failure = _expect_text("restored.pgm\n", "restore")(call)
            if failure is None:
                restored = Path("restored.pgm").read_bytes()
                os.unlink("restored.pgm")
                if restored != corpus.pgm_bytes(image.pixels(self.seed)):
                    failure = f"restored {image.image_id} differs from its original"
            return failure

        return check


# ---------------------------------------------------------------------------
# The workloads


class Ingest(Workload):
    """Write path: every request indexes a fresh 1024x1024 image.

    The descriptor (pyramid and LBP) and embed do almost all the work; no
    payload is read back. Separable-pyramid and embed changes move it.
    """

    name = "ingest"
    why = (
        "write path: index 1024x1024 images into an empty store; pyramid, LBP and "
        "embed do the work and no payload is read back"
    )
    traced_requests = 10
    digest_requests = 3

    def _image(self, number: int) -> Image:
        return Image(
            f"ing{number:05d}", number, corpus.CLASSES[number % 3], self.sizes.ingest_side,
            corpus.patient(self.seed, number),
        )  # fmt: skip

    def prepare(self) -> None:
        # Warm-up images sit outside the numbers requests use.
        self._warmups = [self._image(10**6 + w) for w in range(self.sizes.warmups)]
        for image in self._warmups:
            _write(self.inputs / f"{image.image_id}.pgm", corpus.pgm_bytes(image.pixels(self.seed)))

    def setup_steps(self) -> list[Step]:
        # Warm the code paths the requests use; the measured store stays empty.
        return [_index_step(image, image.cls, db="warmup") for image in self._warmups]

    def after_setup(self) -> None:
        shutil.rmtree("warmup")
        os.makedirs("db/store")  # an empty store: its size enters the digest

    def request(self, i: int) -> Request:
        image = self._image(i)
        path = self.inputs / f"{image.image_id}.pgm"
        data = corpus.pgm_bytes(image.pixels(self.seed))
        _write(path, data)

        def commit() -> None:
            self.indexed.append(image)
            self.raw_bytes += len(data)
            path.unlink()  # 1 MB each; the checks make the bytes again from the seed

        return Request("index", [_index_step(image, image.cls)], commit)

    def check_steps(self) -> list[Step]:
        rows = "".join(f"{im.image_id}\t{im.locator()}\t{im.cls}\n" for im in self.indexed)

        def index_rows(call: Call) -> str | None:
            text = Path("db/index.tsv").read_text(encoding="utf-8") if self.indexed else ""
            return None if text == rows else "index rows differ from the images indexed"

        # 1024x1024 restores are slow, so fewer of them.
        return [Step("index-rows", [], index_rows)] + self._restore_checks(self._check_sample(4))


class _Store(Workload):
    """Base of the workloads that start from a store of store_n images."""

    def _image(self, number: int, cls: str) -> Image:
        owner = corpus.patient_of(self.seed, number, self.sizes.patients)
        return Image(f"img{number:05d}", number, cls, self.sizes.store_side, corpus.patient(self.seed, owner))

    def prepare(self) -> None:
        self.store_images = [self._image(n, corpus.CLASSES[n % 3]) for n in range(self.sizes.store_n)]
        for image in self.store_images:
            pixels = image.pixels(self.seed)
            image.descriptor = oracle.descriptor(pixels)
            data = corpus.pgm_bytes(pixels)
            _write(self.inputs / f"{image.image_id}.pgm", data)
            self.raw_bytes += len(data)
        labels = "".join(f"{im.image_id}\t{im.cls}\n" for im in self.store_images)
        _write(self.inputs / "labels.tsv", labels.encode("utf-8"))
        self.damage = corpus.damage_plan(
            self.seed, [im.image_id for im in self.store_images], self.sizes.flips, self.sizes.truncations
        )
        self.indexed = [im for im in self.store_images if im.image_id not in self.damage]
        self.damaged = set(self.damage)

    def setup_steps(self) -> list[Step]:
        return [_index_step(im, im.cls) for im in self.store_images]

    def after_setup(self) -> None:
        for image in self.store_images:
            how = self.damage.get(image.image_id)
            if how is None:
                continue
            path = Path(image.locator())
            damage = corpus.flip_payload_bit if how == "flip" else corpus.truncate
            path.write_bytes(damage(path.read_bytes(), self.seed, image.number))


class Search(_Store):
    """Read path: queries and patient look-ups over a 240-image store.

    Every read loads, extracts and decodes every entry while computing one
    small query descriptor, so payload-only reads and a descriptor cache
    move it. The interleaved writes show what a read-side cache or index
    costs them, and the damaged files keep the skip path in use.
    """

    name = "search"
    why = (
        "read path: query, find-patient and some index on a 240-image store with 6 "
        "damaged files; every read decodes every entry"
    )
    traced_requests = 20
    digest_requests = 8
    # One cycle of the request mix: 12 query, 5 find-patient, 3 index.
    MIX = (
        "query", "find-patient", "index", "query", "query", "find-patient", "query",
        "query", "index", "query", "find-patient", "query", "query", "query",
        "find-patient", "index", "query", "query", "find-patient", "query",
    )  # fmt: skip
    _QUERY_NUMBERS = 10**6  # query images are never stored

    def prepare(self) -> None:
        super().prepare()
        self._matrix = np.array([im.descriptor for im in self.indexed])
        self._next_number = self.sizes.store_n

    def request(self, i: int) -> Request:
        kind = self.MIX[i % len(self.MIX)]
        rng = corpus.request_rng(self.seed, i)
        if kind == "query":
            number = self._QUERY_NUMBERS + i
            pixels = corpus.texture(self.seed, number, str(rng.choice(corpus.CLASSES)), self.sizes.store_side)
            path = f"../inputs/query{i:05d}.pgm"
            _write(self.inputs / f"query{i:05d}.pgm", corpus.pgm_bytes(pixels))
            ids = [im.image_id for im in self.indexed]
            expected = oracle.ranking(oracle.descriptor(pixels), ids, self._matrix, 10)
            ranking = "".join(f"{rank}\t{i}\t{d:.6f}\n" for rank, (i, d) in enumerate(expected, start=1))
            check = _expect_skips(self.damaged, _expect_text(ranking, "ranking"))
            return Request(kind, [Step(kind, ["query", "--image", path, "--k", "10", "--index", "db/index.tsv"], check)])
        if kind == "find-patient":
            pid = corpus.patient(self.seed, int(rng.integers(0, self.sizes.patients)))["patient_id"]
            hits = sorted((im for im in self.indexed if im.record["patient_id"] == pid), key=lambda im: im.image_id)
            expected = "".join(
                f"{im.image_id}\t{pid}\t{im.record['name']}\t{im.record['birthday']}\t{im.record['diagnostic']}\n"
                for im in hits
            )
            check = _expect_skips(self.damaged, _expect_text(expected, "patient images"))
            return Request(kind, [Step(kind, ["find-patient", "--patient-id", pid, "--index", "db/index.tsv"], check)])
        image = self._image(self._next_number, str(rng.choice(corpus.CLASSES)))
        self._next_number += 1
        pixels = image.pixels(self.seed)
        image.descriptor = oracle.descriptor(pixels)
        data = corpus.pgm_bytes(pixels)
        _write(self.inputs / f"{image.image_id}.pgm", data)

        def commit() -> None:
            self.indexed.append(image)
            self.raw_bytes += len(data)
            self._matrix = np.vstack([self._matrix, image.descriptor])

        return Request(kind, [_index_step(image, image.cls)], commit)


class Maintain(_Store):
    """Rebuild path: the index is lost, relinked and evaluated, each cycle.

    Relink is a bulk scan plus a full index rewrite; evaluate adds the
    leave-one-out O(N^2) ranking that no other workload runs, so a
    vectorised class_mean_pr moves it and nothing else does.
    """

    name = "maintain"
    why = (
        "rebuild path: delete the index, relink it from the files, evaluate "
        "leave-one-out P/R; bulk scan plus the only O(N^2) ranking"
    )
    traced_requests = 3
    digest_requests = 1
    CUTOFFS = "1,5,10"

    def prepare(self) -> None:
        super().prepare()
        intact = sorted(self.indexed, key=lambda im: im.image_id)
        ids = [im.image_id for im in intact]
        labels = {im.image_id: im.cls for im in intact}
        matrix = np.array([im.descriptor for im in intact])
        cutoffs = [int(k) for k in self.CUTOFFS.split(",")]
        self._csv = oracle.class_mean_pr_csv(ids, matrix, labels, cutoffs)
        store_names = sorted(f"{im.image_id}.pgm" for im in self.store_images)
        repaired = [f"db/store/{n}" for n in store_names if n[:-4] not in self.damage]
        unreadable = [f"db/store/{n}" for n in store_names if n[:-4] in self.damage]
        self._relink_out = (
            f"indexed\t{len(repaired)}\nrepaired\t{len(repaired)}\n"
            f"unreadable\t{len(unreadable)}\nconflicting\t0\n"
            + "".join(f"repaired\t{p}\n" for p in repaired)
            + "".join(f"unreadable\t{p}\n" for p in unreadable)
        )
        # Labels do not survive a relink from scratch: the old index is gone.
        self._rows = "".join(f"{im.image_id}\t{im.locator()}\t\n" for im in intact)

    def _relinked(self, call: Call) -> str | None:
        failure = _expect_text(self._relink_out, "relink report")(call)
        if failure is None and Path("db/index.tsv").read_text(encoding="utf-8") != self._rows:
            failure = "relinked index rows differ from the intact stored files"
        return failure

    def request(self, i: int) -> Request:
        relink = Step(
            "relink",
            ["relink", "--store", "db/store", "--index", "db/index.tsv"],
            self._relinked,
            before=lambda: Path("db/index.tsv").unlink(missing_ok=True),
        )
        evaluate = Step(
            "evaluate",
            ["evaluate", "--cutoffs", self.CUTOFFS, "--labels", "../inputs/labels.tsv", "--index", "db/index.tsv"],
            _expect_text(self._csv, "evaluation CSV"),
        )
        return Request("cycle", [relink, evaluate])


WORKLOADS = {w.name: w for w in (Ingest, Search, Maintain)}


# ---------------------------------------------------------------------------
# Running


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples above it.

    That is the 11th-largest sample. With fewer than 11 samples it is the
    largest one, reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - MIN_SAMPLES], 100.0 * (n - 10) / n


def _latency_summary(seconds: list[float]) -> dict:
    tail_s, percentile = tail(seconds)
    return {
        "p50_ms": 1000.0 * statistics.median(seconds),
        "tail_ms": 1000.0 * tail_s,
        "tail_percentile": percentile,
        "samples": len(seconds),
    }


def _files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def tree_digest(root: Path, digest) -> None:
    """Feed every file under root, name and bytes, into a hash."""
    for path in _files(root):
        digest.update(f"{path.relative_to(root)}\0{path.stat().st_size}\0".encode())
        digest.update(path.read_bytes())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {failure}")


class Runner:
    """Plays a workload's requests on copies of its store and checks them.

    The digest covers the first copy's store after setup, the output of
    each step of its first ``digest_requests`` requests, and its store
    after them: all of it depends on the seed alone.
    """

    def __init__(self, workload: Workload, client: Client, digest_rep: Path) -> None:
        self.workload = workload
        self.client = client
        self.digest_rep = digest_rep
        self.tally = Tally()
        self.verb_seconds: dict[str, list[float]] = {}
        self.digest = hashlib.sha256()
        self.digest_complete = False

    def run_step(self, step: Step, rep: Path, tracing=contextlib.nullcontext) -> Call:
        with contextlib.chdir(rep):
            if step.before is not None:
                step.before()
            if step.argv:
                with tracing():
                    call = self.client.call(step.argv)
            else:  # a check of stored state, made without calling the program
                call = Call(0, "", "", [], 0.0)
            try:
                failure = step.check(call)
            except Exception:  # a check that cannot run counts as a failure
                failure = traceback.format_exc(limit=2)
        self.tally.record(" ".join(step.argv[:3]) or step.verb, failure)
        return call

    def build(self, rep: Path) -> float:
        """Build one copy of the starting state; returns its wall time."""
        rep.mkdir(parents=True)
        start = time.perf_counter()
        for step in self.workload.setup_steps():
            self.run_step(step, rep)
        failure = None
        with contextlib.chdir(rep):
            try:
                self.workload.after_setup()
            except OSError:  # the program did not store what setup asked for
                failure = traceback.format_exc(limit=2)
        self.tally.record("after setup", failure)
        return time.perf_counter() - start

    def play(self, i: int, copies: list[tuple[Path, Callable]]) -> list[float]:
        """Run request i on each (copy, tracing) in turn; latency per copy."""
        request = self.workload.request(i)
        digested = i < self.workload.digest_requests
        latencies = []
        for rep, tracing in copies:
            total = 0.0
            for step in request.steps:
                call = self.run_step(step, rep, tracing)
                total += call.seconds
                if tracing is contextlib.nullcontext:
                    self.verb_seconds.setdefault(step.verb, []).append(call.seconds)
                if digested and rep == self.digest_rep:
                    self.digest.update(call.out.encode("utf-8"))
            latencies.append(total)
        request.commit()
        if i + 1 == self.workload.digest_requests:
            tree_digest(self.digest_rep / "db", self.digest)
            self.digest_complete = True
        return latencies


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree (read without git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(root: Path) -> str:
    """Hash of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "lbpmarkdex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def recorded_digest(workload: str, seed: int, sizes: Sizes) -> str | None:
    if sizes != Sizes() or not DIGEST_FILE.exists():
        return None
    return json.loads(DIGEST_FILE.read_text()).get(workload, {}).get(str(seed))


def _stored(rep: Path) -> int:
    return len(list((rep / "db" / "store").glob("*.pgm")))


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, root: Path, sizes: Sizes = Sizes()
) -> dict:
    """Run one workload; returns {"result": ..., "detail": ...}."""
    from lbpmarkdex import cli

    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[name](seed, sizes, workdir)
    client = Client(cli)
    try:
        return _run(workload, client, seconds, traced, root)
    finally:
        client.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it


def _start(workload: Workload, client: Client, copies: int) -> tuple[Runner, list[Path], list[float]]:
    """Prepare inputs and build the copies; returns the runner, the copies
    and the set-up time of each. Copies must come out byte-identical."""
    reps = [workload.workdir / f"rep{r}" for r in range(copies)]
    runner = Runner(workload, client, digest_rep=reps[0])
    workload.prepare()
    setup_seconds = [runner.build(rep) for rep in reps]
    built = set()
    for rep in reps:
        digest = hashlib.sha256()
        tree_digest(rep / "db", digest)
        built.add(digest.hexdigest())
    runner.tally.record("setup copies", None if len(built) == 1 else "copies of one setup differ")
    tree_digest(reps[0] / "db", runner.digest)
    return runner, reps, setup_seconds


def digest_of(name: str, seed: int, root: Path) -> str:
    """The digest a run of the workload at this seed must reproduce."""
    from lbpmarkdex import cli

    workload = WORKLOADS[name](seed, Sizes(), root / ".bench_work" / f"{name}-{os.getpid()}")
    client = Client(cli)
    try:
        runner, reps, _ = _start(workload, client, copies=1)
        for i in range(workload.digest_requests):
            runner.play(i, [(reps[0], contextlib.nullcontext)])
        if runner.tally.failed:
            raise RuntimeError(f"{name} seed {seed}: {runner.tally.failures}")
        return runner.digest.hexdigest()
    finally:
        client.close()
        shutil.rmtree(workload.workdir, ignore_errors=True)


def _run(workload: Workload, client: Client, seconds: float, traced: bool, root: Path) -> dict:
    runner, reps, setup_seconds = _start(workload, client, workload.sizes.setup_reps)
    stored_at_start = _stored(reps[0])

    tracer = tracing.Tracer()
    request_seconds: list[float] = []
    overhead: list[float] = []
    gc.collect()
    loop_start = time.perf_counter()
    if traced:
        for i in range(workload.traced_requests):
            traced_copy = (reps[0], lambda i=i: tracer.installed(i))
            plain_copy = (reps[1], contextlib.nullcontext)
            if i % 2 == 0:
                traced_s, plain_s = runner.play(i, [traced_copy, plain_copy])
            else:
                plain_s, traced_s = runner.play(i, [plain_copy, traced_copy])
            overhead.append(traced_s / plain_s - 1.0)
            request_seconds.append(plain_s)
    else:
        # Closed loop for the given time, and on until a tail exists; the
        # cap keeps a pathologically slow program inside the time limit.
        while True:
            elapsed = time.perf_counter() - loop_start
            if elapsed >= 3 * seconds + 30:
                break
            if elapsed >= seconds and len(request_seconds) >= MIN_SAMPLES:
                break
            (latency,) = runner.play(len(request_seconds), [(reps[0], contextlib.nullcontext)])
            request_seconds.append(latency)
    loop_seconds = time.perf_counter() - loop_start

    db_bytes = sum(p.stat().st_size for p in _files(reps[0] / "db"))
    for step in workload.check_steps():
        runner.run_step(step, reps[0])
    expected_digest = recorded_digest(workload.name, workload.seed, workload.sizes)
    digest = runner.digest.hexdigest() if runner.digest_complete else None
    if expected_digest is not None:
        runner.tally.record(
            "digest", None if digest == expected_digest else f"digest {digest} != recorded {expected_digest}"
        )

    tally = runner.tally
    if traced:
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_pct"] = (100.0 * statistics.median(overhead), "%")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
            "request_ms_p50": {"value": 1000.0 * statistics.median(request_seconds), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "disk_bytes_per_raw_byte": {"value": db_bytes / workload.raw_bytes, "unit": "ratio"},
        }
    sizes = workload.sizes
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": workload.seed,
        "traced": traced,
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "image_side": sizes.ingest_side if workload.name == "ingest" else sizes.store_side,
        "store_n": {"start": stored_at_start, "end": _stored(reps[0])},
        "setup_s_each": setup_seconds,
        "loop_s": loop_seconds,
        "requests": len(request_seconds),
        "request": _latency_summary(request_seconds),
        "request_ms_each": [round(1000.0 * t, 3) for t in request_seconds],
        "verbs": {verb: _latency_summary(s) for verb, s in sorted(runner.verb_seconds.items())},
        "failed_ops_ratio": tally.failed / tally.attempted,
        "failures": tally.failures,
        "digest": digest,
        "digest_checked": expected_digest is not None,
    }
    if traced:
        spans_file = root / ".bench_work" / "spans" / f"{workload.name}-seed{workload.seed}.jsonl"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(root))
        detail["trace_overhead_pct_each"] = [100.0 * o for o in overhead]
        detail["trace_missing_layers"] = tracer.missing
        detail["skipped_by_error"] = tracing.skipped_by_error(tracer)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return {"result": result, "detail": detail}
