"""Tests of the benchmark itself: small runs of each workload, and checks
that its correctness gate rejects outputs it must reject.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import workloads  # noqa: E402
from workloads import Sizes, run_workload  # noqa: E402

SMALL = Sizes(
    ingest_side=192,
    store_side=192,
    store_n=24,
    patients=8,
    flips=1,
    truncations=1,
    setup_reps=2,
    warmups=1,
    restore_checks=3,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path: Path, workload: str, traced: bool = False) -> dict:
    return run_workload(workload, seed=5, seconds=0.1, traced=traced, root=tmp_path, sizes=SMALL)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_is_correct_and_reports_every_metric(tmp_path, workload, traced):
    out = _run(tmp_path, workload, traced)
    result = out["result"]
    assert result["correct"], out["detail"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list(tmp_path.glob(f".bench_work/{workload}-*")), "working copies left behind"
    assert (tmp_path / ".bench_work" / "spans" / f"{workload}-seed5.jsonl").exists() == traced


def test_traced_counts_repeat_exactly(tmp_path):
    counts = [
        {k: v["value"] for k, v in _run(tmp_path, "search", traced=True)["result"]["metrics"].items()
         if not k.endswith("_ms") and k != "trace.overhead_pct"}
        for _ in range(2)
    ]  # fmt: skip
    assert counts[0] == counts[1]
    assert counts[0]["retrieval.entries_skipped.ChecksumMismatch"] > 0
    assert counts[0]["retrieval.entries_skipped.TruncatedData"] > 0


def test_gate_rejects_a_wrong_ranking(tmp_path, monkeypatch):
    import lbpmarkdex.retrieval as retrieval

    distance = retrieval.descriptor_distance
    monkeypatch.setattr(retrieval, "descriptor_distance", lambda a, b: -distance(a, b))
    out = _run(tmp_path, "search")
    assert not out["result"]["correct"]
    assert any("ranking" in f for f in out["detail"]["failures"])


def test_gate_rejects_a_damaged_file_that_was_not_skipped(tmp_path, monkeypatch):
    # The benchmark still believes the files are damaged; the program reads them.
    monkeypatch.setattr(corpus, "flip_payload_bit", lambda data, seed, number: data)
    out = _run(tmp_path, "search")
    assert not out["result"]["correct"]
    assert any(f.startswith("query") and "skipped" in f for f in out["detail"]["failures"])


def test_gate_rejects_a_wrong_relink(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "truncate", lambda data, seed, number: data)
    out = _run(tmp_path, "maintain")
    assert not out["result"]["correct"]
    assert any("relink report" in f for f in out["detail"]["failures"])


def test_workload_reasons_match_the_spec():
    assert {w.name: w.why for w in workloads.WORKLOADS.values()} == {
        w["name"]: w["why"] for w in SPEC["workloads"]
    }


def test_tail_is_the_eleventh_largest_sample():
    assert workloads.tail([float(v) for v in range(1, 41)]) == (30.0, 75.0)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
