"""gmdlab benchmark: time a workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload oracle|sa-lp|gap-sasol --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  This script uses the standard
library only, so any python3 can start it; each pass of the workload runs
in a fresh process under an interpreter that has numpy and scipy, with
PYTHONPATH=src and BLAS/OpenMP threads pinned to 1.  At least MIN_PASSES
passes run, and more while that brings the run's length closer to S
seconds; every figure is a median over passes, or over the items of all
passes.

The end-to-end times are given at a fixed reference speed of the host.
The host's cores are shared, and identical work runs up to 40% slower for
seconds to minutes at a time.  Each pass therefore times a fixed speed
probe before its first item and after every item, and each time is scaled
by PROBE_REF_S over the probe times around it; on a host that runs the
probe in PROBE_REF_S the scaled times are the measured ones.  The raw
times are printed beside them and kept in the run's record.

Every pass runs the same inputs, whose answers the reference file pins,
so every answer is checked exactly; the seed sets the order in which the
items run.  The last line of stdout is one JSON object; with --trace 0 its
metrics are the end-to-end ones, with --trace 1 the per-layer ones from the
traced passes (untraced passes alternate with them to give the tracing
overhead).  Details of the run, and the spans of the last traced pass, go
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(BENCH, "reference.json")
sys.path.insert(0, BENCH)

from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 6
DEADLINE_S = 170     # a run must end within 180 s, whatever the machine
TAIL_BEYOND = 10     # the tail percentile has at least this many items above it
# the speed probe's median time on a 2-vCPU Intel Xeon host under Python
# 3.11.7, the host of the figures in README.md
PROBE_REF_S = 0.010

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def find_python():
    """An interpreter that can import numpy and scipy, resolved to its binary."""
    pyenv = os.environ.get("PYENV_ROOT") or os.path.join(os.path.expanduser("~"), ".pyenv")
    candidates = [sys.executable, shutil.which("python"), shutil.which("python3"),
                  os.path.join(pyenv, "shims", "python")]
    for cand in candidates:
        if not cand or not os.path.exists(cand):
            continue
        try:
            probe = subprocess.run(
                [cand, "-c", "import sys, numpy, scipy; print(sys.executable)"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip():
            return probe.stdout.strip()
    return None


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GMDLAB_CAPS", None)  # default caps only
    return env


def run_pass(python, workload, seed, traced, timeout, extra=()):
    """One worker process; returns its result dict with setup_s and process_s added."""
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(OUT, "work"))
    result = os.path.join(work, "result.json")
    cmd = [python, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--reference", REFERENCE, "--result", result, *extra]
    if traced:
        cmd += ["--trace", "--spans", os.path.join(OUT, f"spans-{workload}.jsonl")]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=work, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
        ended = time.monotonic()
        if proc.returncode != 0 or not os.path.exists(result):
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out["setup_s"] = out["setup_done"] - spawned
    out["process_s"] = ended - spawned
    return out


def at_reference_speed(p):
    """(item seconds, batch seconds, set-up seconds) of one pass, scaled to
    the reference speed: an item by the mean of the probes just before and
    after it, set-up by the mean of all probes of the pass."""
    probes = p["probe_s"]
    items = [it["seconds"] * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
             for i, it in enumerate(p["items"])]
    return items, sum(items), p["setup_s"] * PROBE_REF_S / statistics.fmean(probes)


def tail(values, items_per_pass):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND items above it in a run of MIN_PASSES passes, so the same
    percentile is reported however many passes fit in the run."""
    n_ref = min(len(values), items_per_pass * MIN_PASSES)
    pct = max(0, math.floor(100 * (n_ref - TAIL_BEYOND) / n_ref))
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return pct, ordered[rank - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running worker before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(ROOT, "src", "gmdlab")):
        print("error: no src/gmdlab in this checkout", file=sys.stderr)
        return 1
    python = find_python()
    if python is None:
        print("error: no python with numpy and scipy found", file=sys.stderr)
        return 1

    passes = []
    while True:
        elapsed = time.monotonic() - started
        # stop where the run ends closest to --seconds: one more pass would
        # overshoot by more than half a pass
        typical = statistics.median(p["process_s"] for p in passes) if passes else 0
        if len(passes) >= MIN_PASSES and elapsed + typical / 2 >= args.seconds:
            break
        left = DEADLINE_S - (time.monotonic() - started)
        if passes and left < 1.5 * max(p["process_s"] for p in passes):
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            passes.append(run_pass(python, args.workload, args.seed, traced, timeout=max(left, 1)))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: pass {len(passes)} of {args.workload} failed: {exc}", file=sys.stderr)
            return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace and not (plain and traced):
        print("error: no time left for both a traced and an untraced pass", file=sys.stderr)
        return 1
    items = [it for p in passes for it in p["items"]]
    failures = [(it["name"], prob) for it in items for prob in it["problems"]]
    failed = sum(1 for it in items if it["problems"])
    versions = passes[0]["versions"]
    machine = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), **versions}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "passes": passes}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} ({len(traced)} traced) items={len(items)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))

    if args.trace:
        metrics = {}
        absent = sorted(set(name for p in traced for name in p.get("absent", ())))
        unsteady = []
        for name, unit, _ in METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(p["wall_s"] for p in traced)
                         - statistics.median(p["wall_s"] for p in plain))
            else:
                values = [p["layers"].get(name, 0) for p in traced]
                if unit in ("count", "bytes"):
                    value = values[0]
                    if any(v != value for v in values):
                        unsteady.append(name)
                else:
                    value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:36s} {value:.6g} {unit}")
        if absent:
            print("absent (function not found, reported as 0): " + ", ".join(absent))
        if unsteady:
            print("counts that differed between traced passes: " + ", ".join(unsteady))
    else:
        per_items = len(plain[0]["items"])

        def figures(scaled):
            seconds = [s for items, _, _ in scaled for s in items]
            pct, tail_value = tail(seconds, per_items)
            return pct, {
                "wall_s": statistics.median(wall for _, wall, _ in scaled),
                "setup_s": statistics.median(setup for _, _, setup in scaled),
                "item_p50_s": statistics.median(seconds),
                "item_tail_s": tail_value,
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            }

        pct, values = figures([at_reference_speed(p) for p in plain])
        _, raw = figures([([it["seconds"] for it in p["items"]], p["wall_s"], p["setup_s"])
                          for p in plain])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        n_items = per_items * len(plain)
        notes = {"item_p50_s": f"median of {n_items} items",
                 "item_tail_s": f"p{pct} of {n_items} items"}
        probes = [t for p in plain for t in p["probe_s"]]
        print(f"host speed: probe median {statistics.median(probes) * 1e3:.3g} ms over "
              f"{len(probes)} probes, reference {PROBE_REF_S * 1e3:.3g} ms")
        for name, unit in END_TO_END:
            print(f"  {name:12s} {values[name]:.6g} {unit}  (raw {raw[name]:.6g})  "
                  f"{notes.get(name, f'median of {len(plain)} passes')}")
        record["tail_percentile"] = pct
        record["raw_metrics"] = raw
    print(f"  {'fail_frac':12s} {failed / len(items):.6g} ratio  ({failed} of {len(items)} items failed)")
    for name, prob in failures[:20]:
        print(f"FAIL {name}: {prob}")

    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(items), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
