"""Write perfbench/reference.json: the pinned answers of every workload.

    python3 perfbench/make_reference.py

Runs one recording pass of each workload and stores the answers every item
returned.  Run it only on a commit whose answers are trusted; a workload on
which any invariant check fails is refused and nothing is written.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    python = run.find_python()
    if python is None:
        print("error: no python with numpy and scipy found", file=sys.stderr)
        return 1
    reference = {}
    for workload in WORKLOADS:
        out = run.run_pass(python, workload, 0, traced=False, timeout=600, extra=("--record",))
        bad = [(it["name"], p) for it in out["items"] for p in it["problems"]]
        if bad:
            print(f"error: {workload} fails its checks: {bad}", file=sys.stderr)
            return 1
        reference[workload] = {it["name"]: it["answers"] for it in out["items"]}
        print(f"{workload}: {len(out['items'])} items, {out['wall_s']:.2f} s", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
