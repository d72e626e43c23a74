"""One pass of one workload, in a fresh process.

    worker.py --workload W --seed N --reference REF --result OUT [--trace] [--spans PATH] [--record]

Run with the current directory set to an empty work directory and with
gmdlab importable.  Set-up imports gmdlab and writes the inputs; then the
item groups run in the order seed N gives them, and every item is checked
against the workload's reference answers.  The pass ends by writing OUT, a
JSON object with the timings, the answers and the problems found.  With
--record the answers are written without checks, to build a reference file.

Exit codes: 0 pass finished (items may still have failed), 3 set-up failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def compare(answers: dict, expected) -> list[str]:
    """One problem per pinned value that differs from the reference."""
    if expected is None:
        return ["no reference answers for this item"]
    problems = []
    for key in sorted(set(answers) | set(expected)):
        got, want = answers.get(key), expected.get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


PROBE_STEPS = 16_000  # about 10 ms on a 2-vCPU Intel Xeon host


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python kernel of the kind
    of work gmdlab does: integer and Fraction arithmetic, dicts of tuples."""
    start = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(PROBE_STEPS):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
        if i % 16 == 0:
            total += Fraction(i % 11 + 1, i % 13 + 2)
    return time.perf_counter() - start


def _versions() -> dict:
    from importlib import metadata

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    try:
        for name in workloads.REQUIRED_MODULES[args.workload]:
            importlib.import_module(name)
        for name in workloads.OPTIONAL_MODULES:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        recorder = None
        if args.trace:
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
        expected = {}
        if not args.record:
            with open(args.reference, "r", encoding="utf-8") as fh:
                expected = json.load(fh)[args.workload]
        groups = workloads.SETUP[args.workload]()
        random.Random(args.seed).shuffle(groups)
        items = [item for group in groups for item in group]
    except Exception:
        traceback.print_exc()
        return 3
    setup_done = time.monotonic()

    results = []
    probes = [speed_probe()]
    batch_start = time.perf_counter()
    for name, run in items:
        if recorder is not None:
            recorder.item = name
        start = time.perf_counter()
        try:
            answers, problems = run()
            if not args.record:
                problems = problems + compare(answers, expected.get(name))
        except Exception as exc:  # an escaped exception fails the item, not the pass
            answers, problems = {}, [f"{type(exc).__name__}: {exc}"]
        results.append({"name": name, "seconds": time.perf_counter() - start,
                        "answers": answers, "problems": problems})
        probes.append(speed_probe())
    wall = time.perf_counter() - batch_start - sum(probes[1:])

    out = {
        "setup_done": setup_done,
        "wall_s": wall,
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": results,
        "versions": _versions(),
        "traced": recorder is not None,
    }
    if recorder is not None:
        out["layers"] = recorder.summary(batch_start, wall)
        out["absent"] = recorder.absent
        if args.spans:
            recorder.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
