"""Spans around the program's layer boundaries, recorded from outside it.

The tracer replaces the module-level public functions through which the
layers of lbpmarkdex call each other with wrappers that record a span:
name, parent span, start, end, the request it belongs to, and the
exception class if the call raised. Every binding of a function in every
lbpmarkdex module is replaced, so a call is seen whichever module makes it
(``cli`` calls ``read_stored`` through its own import, ``retrieval``
through its global). Spans stay in memory; once the run is over they are
written out and the per-layer numbers are derived from them.

A function named in LAYERS that the program no longer has is reported as
missing rather than failing the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# (module, function) pairs; "Class.method" names a classmethod.
LAYERS = (
    ("pyramid", "build_pyramid"),
    ("lbp", "lbp_histogram"),
    ("descriptor", "compute_descriptor"),
    ("descriptor", "descriptor_distance"),
    ("watermark", "embed"),
    ("watermark", "extract"),
    ("payload", "encode_payload"),
    ("payload", "decode_payload"),
    ("image_io", "load_pgm"),
    ("image_io", "save_pgm"),
    ("evaluation", "class_mean_pr"),
    ("retrieval", "Index.load"),
    ("retrieval", "index_add"),
    ("retrieval", "read_stored"),
    ("retrieval", "query_by_image"),
    ("retrieval", "query_by_patient_id"),
    ("retrieval", "relink"),
    ("cli", "run"),
)

# Verbs that read stored payloads back to rank, list, rebuild or score.
SCAN_VERBS = ("query", "find-patient", "relink", "evaluate")
# Error classes the benchmark's damage produces; others still show in detail.
DAMAGE_ERRORS = ("ChecksumMismatch", "TruncatedData")


@dataclass
class Span:
    name: str
    parent: int | None
    request: int
    start_ns: int
    end_ns: int = 0
    error: str | None = None
    # Bytes of the file a load_pgm/save_pgm call read or wrote, the verb of
    # a cli.run call, or the number of hits a patient query returned.
    note: object = None


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _note_before(name: str, args) -> object:
    if name == "image_io.load_pgm":
        return _file_size(args[0])
    if name == "cli.run":
        return args[0][0] if args and args[0] else None
    return None


def _note_after(name: str, args, result, note) -> object:
    if name == "image_io.save_pgm":
        return _file_size(args[0])
    if name == "retrieval.query_by_patient_id":
        return len(result)
    return note


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    request: int = 0
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            note = _note_before(name, args)
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else None, self.request, 0, note=note)
            self.spans.append(span)
            self._stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end_ns = time.perf_counter_ns()
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span.end_ns = time.perf_counter_ns()
            span.note = _note_after(name, args, result, note)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """Write the spans out, one JSON array per line:
        [name, parent index, request, start ns, end ns, error class]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.parent, s.request, s.start_ns, s.end_ns, s.error]) + "\n")

    @contextlib.contextmanager
    def installed(self, request: int):
        """Trace every LAYERS call made inside the block as one request."""
        self.request = request
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if m and n.split(".")[0] == "lbpmarkdex"]
        try:
            for module_name, qualname in LAYERS:
                name = f"{module_name}.{qualname}"
                module = sys.modules.get(f"lbpmarkdex.{module_name}")
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                if isinstance(original, classmethod):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _ancestor_verb(spans: list[Span], span: Span) -> str | None:
    while span.parent is not None:
        span = spans[span.parent]
    return span.note if span.name == "cli.run" else None


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: calls and self time per LAYERS function, plus the
    counts the benchmark names, as {name: (value, unit)}."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for n, span in enumerate(spans):
        calls[span.name] += 1
        self_ns[span.name] += span.end_ns - span.start_ns - child_ns[n]
    metrics: dict[str, tuple[float, str]] = {}
    for module_name, qualname in LAYERS:
        name = f"{module_name}.{qualname}"
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")

    scans = _scan_reads(spans)
    skipped = Counter(s.error for s in scans if s.error)
    decoded_for_patient = sum(
        1 for s in scans if not s.error and _has_ancestor(spans, s, "retrieval.query_by_patient_id")
    )
    patient_hits = sum(s.note for s in spans if s.name == "retrieval.query_by_patient_id" and not s.error)
    metrics["image_io.bytes_read"] = (sum(s.note for s in spans if s.name == "image_io.load_pgm"), "bytes")
    metrics["image_io.bytes_written"] = (
        sum(s.note for s in spans if s.name == "image_io.save_pgm" and not s.error),
        "bytes",
    )
    metrics["retrieval.entries_scanned"] = (len(scans), "count")
    for error in DAMAGE_ERRORS:
        metrics[f"retrieval.entries_skipped.{error}"] = (skipped[error], "count")
    metrics["retrieval.find_patient.hit_ratio"] = (
        patient_hits / decoded_for_patient if decoded_for_patient else 0.0,
        "ratio",
    )
    metrics["watermark.restores_discarded"] = (
        sum(1 for s in spans if s.name == "watermark.extract" and _ancestor_verb(spans, s) in SCAN_VERBS),
        "count",
    )
    return metrics


def _scan_reads(spans: list[Span]) -> list[Span]:
    """read_stored calls made by the verbs that scan the store."""
    return [s for s in spans if s.name == "retrieval.read_stored" and _ancestor_verb(spans, s) in SCAN_VERBS]


def skipped_by_error(tracer: Tracer) -> dict[str, int]:
    """Failed payload reads under scanning verbs, by exception class."""
    return dict(Counter(s.error for s in _scan_reads(tracer.spans) if s.error))
