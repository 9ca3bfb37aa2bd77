"""Record the digests that runs at the given seeds must reproduce.

    python3 perfbench/record_digests.py 0-31

A digest hashes a workload's store after setup, the outputs of its first
requests and its store after them; all depend on the seed alone. Record
again only when a change is meant to alter stored bytes or outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import DIGEST_FILE, WORKLOADS, digest_of  # noqa: E402


def main(argv: list[str]) -> int:
    first, _, last = argv[0].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    recorded = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    for name in WORKLOADS:
        for seed in seeds:
            recorded.setdefault(name, {})[str(seed)] = digest_of(name, seed, HERE.parent)
            print(name, seed, recorded[name][str(seed)], flush=True)
    DIGEST_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
