"""Benchmark of lbpmarkdex: three workloads driven through its CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ingest,search,maintain} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout and driven
in-process. Working files go to ``.bench_work/`` and are removed at the
end. Human-readable lines come first; the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
The line before it, ``detail: {...}``, stamps the run (seed, code
version, machine, sizes) and breaks latency down by verb.

Exit status 2, with no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_program() -> bool:
    """Put the checkout's own sources first on the path; False if absent."""
    src = ROOT / "src"
    if not (src / "lbpmarkdex" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(src), str(HERE)]
    import lbpmarkdex

    return Path(lbpmarkdex.__file__).resolve().is_relative_to(src)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "search", "maintain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _load_program():
        print(f"perfbench: no lbpmarkdex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import run_workload

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result, detail = out["result"], out["detail"]
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>16.4f} {metric['unit']}")
    print(f"{'operations failed / attempted':<48} {result['failed']:>9} / {result['attempted']}")
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
