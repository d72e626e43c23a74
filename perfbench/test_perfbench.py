"""Tests of the benchmark itself: answer checks, recorder, output contract.

    PYTHONPATH=src python -m pytest perfbench -q

The two pass-level tests each run one workload pass (a few seconds).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
from worker import compare  # noqa: E402


@pytest.fixture(scope="module")
def python():
    found = run.find_python()
    if found is None:
        pytest.skip("no python with numpy and scipy")
    return found


def test_compare_flags_every_differing_value():
    ref = {"opt": "1/2", "grid_opt": "3/5"}
    assert compare({"opt": "1/2", "grid_opt": "3/5"}, ref) == []
    assert len(compare({"opt": "1/3", "grid_opt": "3/5"}, ref)) == 1
    assert len(compare({"opt": "1/2"}, ref)) == 1
    assert compare({"opt": "1/2"}, None) == ["no reference answers for this item"]


def test_corrupted_reference_value_fails_its_item(python, tmp_path, monkeypatch):
    with open(run.REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["sa-lp"]["relax-0"]["lp_r3"] = "12345/7"
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", str(corrupted))
    out = run.run_pass(python, "sa-lp", 0, traced=False, timeout=170)
    failed = [it for it in out["items"] if it["problems"]]
    assert [it["name"] for it in failed] == ["relax-0"]
    assert "12345/7" in failed[0]["problems"][0]


def test_traced_pass_counts_and_coverage(python):
    out = run.run_pass(python, "sa-lp", 0, traced=True, timeout=170)
    layers = out["layers"]
    assert not any(it["problems"] for it in out["items"])
    assert out["absent"] == []
    # six instances at 2 and 3 rounds, nine at 2 rounds, the rounding
    # instance's LP solved by salp and by approx, and one pricing LP: one
    # simplex call each
    assert layers["simplex.simplex_max.calls"] == 24
    assert layers["salp.lp_variables"] > 0 and layers["salp.identities"] > 0
    assert layers["approx.trials"] == 600
    assert all(layers[f"{layer}.errors"] == 0 for layer in spans.LAYERS)
    assert layers["trace.coverage"] >= 0.9
    top = max(spans.LAYERS, key=lambda layer: layers[f"{layer}.self_s"])
    assert top == "simplex"


def test_missing_functions_are_reported_absent():
    rec = spans.Recorder()
    rec.install((
        ("simplex.simplex_max", "gmdlab.no_such_module", "simplex_max", None),
        ("exact.opt_gmd", "gmdlab.core", "no_such_function", None),
    ))
    assert rec.absent == ["simplex.simplex_max", "exact.opt_gmd"]
    summary = rec.summary(0.0, 1.0)
    assert summary["simplex.simplex_max.calls"] == 0
    assert summary["exact.opt_gmd.self_s"] == 0.0
    expected = {name for name, _, _ in spans.METRICS} - {"trace.overhead_s"}
    assert set(summary) == expected


def test_counts_are_read_defensively():
    rec = spans.Recorder()
    for count in (spans._count_build_sa_lp, spans._count_consistency, spans._count_sasol,
                  spans._count_attr("exact.opt_gmd.explored", "explored")):
        count(rec, (), {}, object())
    spans._count_csv_bytes(rec, (), {}, None)
    spans._count_csv_bytes(rec, ([], "no/such/file.csv"), {}, None)
    assert rec.counters == {}


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()
    inner = rec.wrap("core.val", lambda: sum(range(20000)))
    outer = rec.wrap("exact.opt_gmd", lambda: [inner() for _ in range(3)])
    outer()
    by_name = {s[3]: s for s in rec.spans}
    _, parent, _, _, start, end, own, failed = by_name["exact.opt_gmd"]
    children = [s for s in rec.spans if s[1] == by_name["exact.opt_gmd"][0]]
    assert parent is None and not failed and len(children) == 3
    assert abs(own - ((end - start) - sum(s[5] - s[4] for s in children))) < 1e-9


def test_errors_are_counted_per_layer():
    rec = spans.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("salp.build_sa_lp", boom)()
    assert rec.summary(0.0, 1.0)["salp.errors"] == 1


def test_tail_has_ten_items_beyond_for_any_pass_count():
    per_pass = 17
    for passes in range(run.MIN_PASSES, run.MIN_PASSES + 4):
        values = [float(i) for i in range(per_pass * passes)]
        pct, value = run.tail(values, per_pass)
        assert sum(1 for v in values if v > value) >= run.TAIL_BEYOND
        assert pct == run.tail(values[: per_pass * run.MIN_PASSES], per_pass)[0]


def test_times_are_scaled_by_the_probes_around_them():
    ref = run.PROBE_REF_S
    p = {"probe_s": [ref, ref, 2 * ref, 2 * ref], "setup_s": 0.3,
         "items": [{"seconds": 1.0}, {"seconds": 1.5}, {"seconds": 2.0}]}
    items, wall, setup = run.at_reference_speed(p)
    assert items == pytest.approx([1.0, 1.0, 1.0])
    assert wall == pytest.approx(3.0)
    assert setup == pytest.approx(0.2)


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
