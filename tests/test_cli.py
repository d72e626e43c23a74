import itertools
import os
import re
import subprocess
import sys
import time
import tracemalloc
from csv import DictReader
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmdlab.cli as cli
import gmdlab.core as core
from gmdlab.caps import Caps, caps_from_env
from gmdlab.cli import run_command
from gmdlab.exact import ELIM_MAX_BYTES

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
P3 = os.path.join(GOLDEN, "p3.gp")

TRIANGLE = "gmd 1\nv 3\ne 0 1 1 1/3\ne 1 2 1 1/3\ne 2 0 1 1/3\n"
SINGLE = "gmd 1\nv 2\ne 0 1 1 1\n"
GP_EDGE = "gp\nv 2\ne 0 1 1 1\n"
# 414 variables on the geom:1/10 grid (domains 7, 7, 9, 9); its duals do not
# rationalise, so the exact tableau solves it
GP_GEOM = "gp\nv 4\ne 2 3 2 1\ne 0 3 1 1\ne 0 2 13/8 1\ne 0 1 3/2 1\ne 1 3 17/10 2\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_triangle(tmp_path, capsys):
    path = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["solve", "--in", path]) == 0
    assert "opt = 1/3" in capsys.readouterr().out


def test_solve_gp_half_grid(tmp_path, capsys):
    path = write(tmp_path, "e.gp", GP_EDGE)
    assert run_command(["solve", "--in", path]) == 0
    assert "opt = 1" in capsys.readouterr().out


def test_solve_missing_file_exit_1(tmp_path, capsys):
    assert run_command(["solve", "--in", str(tmp_path / "nope.gmd")]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exit_1(tmp_path, capsys):
    path = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["solve", "--in", path, "--bogus"]) == 1


def test_cap_exceeded_exit_2(tmp_path, capsys, monkeypatch):
    # the triangle's 2-round tableau is 19 x 19, its 3-round one 32 x 27
    monkeypatch.setenv("GMDLAB_CAPS", "lp_entries=400")
    path = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["salp", "--in", path, "--rounds", "2"]) == 0
    assert run_command(["salp", "--in", path, "--rounds", "3"]) == 2
    assert "cap exceeded: at least 864 LP tableau entries exceed cap 400" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sa_n", "sa_rounds", "sa_domain", "lp_variables", "opt_gmd_n",
                                  "gp_grid_points", "brute_states"])
def test_removed_cap_names_exit_1(tmp_path, capsys, monkeypatch, name):
    # one cap on the LP's tableau, lp_entries, replaced the first four; the
    # exact oracles' byte and mask plan the next two; the last bounded the
    # full-enumeration reference, which moved into the tests
    monkeypatch.setenv("GMDLAB_CAPS", f"{name}=9")
    assert run_command(["solve", "--in", str(tmp_path / "absent.gmd")]) == 1
    err = capsys.readouterr().err
    assert f"unknown cap '{name}' in GMDLAB_CAPS" in err and "Traceback" not in err


def test_every_documented_caps_example_parses(monkeypatch):
    # a renamed or removed cap must not live on in an example
    root = Path(__file__).resolve().parent.parent
    texts = [(root / name).read_text() for name in ("README.md", "src/gmdlab/caps.py")]
    specs = [spec for text in texts for spec in re.findall(r'GMDLAB_CAPS="([^"]*)"', text)]
    assert len(specs) >= 2
    for spec in specs:
        monkeypatch.setenv("GMDLAB_CAPS", spec)
        assert caps_from_env() != Caps(), spec


@pytest.mark.parametrize("text, algo", [
    ("gmd 1\nv 99999999999\ne 0 1 1 1\n", "gmd4"),
    ("gp\nv 99999999999\ne 0 1 1 1\n", "gp4"),
])
def test_approx_trial_cap_exit_2(tmp_path, capsys, text, algo):
    # one trial's coin row on 10^11 vertices is past the entry budget
    path = write(tmp_path, "huge.txt", text)
    assert run_command(["approx", "--in", path, "--algo", algo]) == 2
    assert "cap exceeded: a trial on 99999999999 vertices and 1 " in capsys.readouterr().err


def test_salp_past_float64_takes_the_exact_pass(tmp_path, capsys):
    # an unnormalized weight of 10^400 has no float64 value, so the LP
    # skips the float pass
    path = write(tmp_path, "big.gmd", "gmd 2\nv 3\ne 0 1 1 1e400\n")
    assert run_command(["salp", "--in", path, "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert f"lp = {10**400} " in out and "consistent = True" in out
    assert out.rstrip().endswith("lp_path = exact")


MALFORMED_CAPS = ["{}=abc", "{}", "{}=", "{}=-1", "{}=2.5", "lp_entries=8,{}=-1"]


# a cap that exists (trial_entries) is refused for its value, a removed one
# (opt_gmd_n) for its name, whatever its value
@pytest.mark.parametrize("spec", [form.format(name) for name in ("trial_entries", "opt_gmd_n")
                                  for form in MALFORMED_CAPS])
def test_malformed_caps_exit_1_naming_the_cap(tmp_path, capsys, monkeypatch, spec):
    # checked before any work: the absent input is never read
    name = spec.rpartition(",")[2].partition("=")[0]
    monkeypatch.setenv("GMDLAB_CAPS", spec)
    assert run_command(["solve", "--in", str(tmp_path / "absent.gmd")]) == 1
    err = capsys.readouterr().err
    assert "GMDLAB_CAPS" in err and f"'{name}'" in err and "Traceback" not in err
    assert ("unknown cap" in err) == (name == "opt_gmd_n")


def test_reduce_writes_symbolic_budgets(tmp_path, capsys):
    src = write(tmp_path, "e1.gmd", SINGLE)
    out = str(tmp_path / "e1.gp")
    assert run_command(["reduce", "--in", src, "--M", "10", "--out", out]) == 0
    text = Path(out).read_text()
    assert "M 10" in text and "M^1" in text
    expanded = str(tmp_path / "e1x.gp")
    assert (
        run_command(["reduce", "--in", src, "--M", "10", "--out", expanded, "--expand"])
        == 0
    )
    assert "M^" not in Path(expanded).read_text()


def test_reduce_normalises_first(tmp_path, capsys):
    raw = "gmd 2\nv 3\ne 0 1 1 2\ne 1 2 2 3\ne 0 2 1 1\n"
    assert not core.parse_instance(raw).weights_normalized
    src = write(tmp_path, "raw.gmd", raw)
    normal = write(tmp_path, "normal.gmd",
                   core.serialize_instance(core.parse_instance(raw).normalized()))
    outs = [str(tmp_path / "raw.gp"), str(tmp_path / "normal.gp")]
    for path, out in zip((src, normal), outs):
        assert run_command(["reduce", "--in", path, "--M", "10", "--out", out]) == 0
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()


def test_gap_file_base_matches_pipeline_on_its_skeleton(tmp_path, capsys):
    from gmdlab.gapgen import PipelineConfig, generate_base_dag, sparsify_pipeline
    from test_gapgen import LABELLED_DAG

    dag = write(tmp_path, "dag.gmd", LABELLED_DAG)
    out = str(tmp_path / "gap.gmd")
    argv = ["gap", "--base", f"file:{dag}", "--T", "2", "--delta", "2", "--l", "9",
            "--p-keep", "3/4", "--seed", "5", "--out", out]
    assert run_command(argv) == 0
    base = generate_base_dag("custom-file", 0, params={"path": dag})
    cfg = PipelineConfig(n=5, T=2, Delta=2, p_keep=Fraction(3, 4), l=9, mu=Fraction(1, 2),
                         k_max=3, seed=5)
    inst, _ = sparsify_pipeline(base, cfg)
    assert Path(out).read_text() == core.serialize_instance(inst)


def test_salp_triangle_value(tmp_path, capsys):
    path = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["salp", "--in", path, "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert "lp = 1/2" in out and "consistent = True" in out


def test_salp_rounds_past_n_give_the_n_round_lp(tmp_path, capsys):
    # three vertices, T = 2: every set is listed by 3 rounds, 63 variables
    path = write(tmp_path, "t2.gmd", "gmd 2\nv 3\ne 0 1 1 1\ne 1 2 2 1\ne 2 0 1 1/2\n")
    outputs = []
    for rounds in ("3", "9", str(10**9)):
        csv = str(tmp_path / f"r{rounds}.csv")
        assert run_command(["salp", "--in", path, "--rounds", rounds, "--csv", csv]) == 0
        body = Path(csv).read_text().split("\n", 1)[1]
        outputs.append((capsys.readouterr().out, body))
    assert "variables = 63 " in outputs[0][0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_salp_reports_lp_path(tmp_path, capsys):
    tri = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["salp", "--in", tri, "--rounds", "2"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("lp_path = certified")
    geom = write(tmp_path, "geom.gp", GP_GEOM)
    csv = str(tmp_path / "geom.csv")
    argv = ["salp", "--in", geom, "--rounds", "2", "--grid", "geom:1/10", "--csv", csv]
    assert run_command(argv) == 0
    out = capsys.readouterr().out
    assert "lp = 775973/100000 variables = 414" in out
    assert "consistent = True" in out and out.rstrip().endswith("lp_path = exact")
    assert "lp_path" not in Path(csv).read_text()


@pytest.mark.parametrize(
    "text, message",
    [
        ("gp\nv\ne 0 1 1 1\n", "line 2: v line needs a vertex count"),
        ("gmd 1\nv x\n", "line 2: bad vertex count 'x'"),
        ("gp\nM 1.5\nv 2\n", "line 2: bad budget base '1.5'"),
        ("gp\nv -2\n", "line 2: negative vertex count -2"),
        ("gmd 1\nv -2\n", "line 2: negative vertex count -2"),
    ],
)
def test_malformed_count_lines_exit_1_with_line(tmp_path, capsys, text, message):
    path = write(tmp_path, "bad.txt", text)
    assert run_command(["solve", "--in", path]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_atomic_write_uses_private_temp_file(tmp_path):
    path = write(tmp_path, "e.gmd", SINGLE)
    out = tmp_path / "a.csv"
    stale = tmp_path / "a.csv.tmp"  # another run's temp file of the old fixed name
    stale.write_text("not ours")
    args = ["approx", "--in", path, "--algo", "gmd4", "--trials", "20", "--seed", "1"]
    assert run_command(args + ["--csv", str(out)]) == 0
    assert run_command(args + ["--csv", str(out)]) == 0
    assert stale.read_text() == "not ours"
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "a.csv.tmp", "e.gmd"]
    assert out.read_text().startswith("# gmdlab")
    assert out.stat().st_mode & 0o777 == stale.stat().st_mode & 0o777


def test_approx_csv_deterministic(tmp_path):
    path = write(tmp_path, "e.gmd", SINGLE)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    args = ["approx", "--in", path, "--algo", "gmd4", "--trials", "200", "--seed", "7"]
    assert run_command(args + ["--csv", a]) == 0
    assert run_command(args + ["--csv", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_approx_seed_changes_stream(tmp_path):
    path = write(tmp_path, "e.gmd", SINGLE)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    base = ["approx", "--in", path, "--algo", "gmd4", "--trials", "50"]
    assert run_command(base + ["--seed", "1", "--csv", a]) == 0
    assert run_command(base + ["--seed", "2", "--csv", b]) == 0
    assert Path(a).read_text().splitlines()[2:] != Path(b).read_text().splitlines()[2:]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_approx_bad_trials_exit_1(tmp_path, capsys, trials):
    # checked before any work: the input file is not even read
    csv = str(tmp_path / "a.csv")
    missing = str(tmp_path / "absent.gmd")
    args = ["approx", "--in", missing, "--algo", "gmd4", "--trials", trials, "--csv", csv]
    assert run_command(args) == 1
    err = capsys.readouterr().err
    assert f"--trials must be >= 1, got {trials}" in err and "Traceback" not in err
    assert not os.path.exists(csv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sasol", "--in", "absent.gmd", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["sasol", "--in", "absent.gmd", "--trials", "-3"], "--trials must be >= 1, got -3"),
        (["gauss", "--suite", "maxgap", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["dict", "--T", "2", "--R", "0", "--emit", "instance"], "--R must be >= 1, got 0"),
        (["dict", "--T", "2", "--R", "-1", "--emit", "soundness"], "--R must be >= 1, got -1"),
        (["gauss", "--suite", "cdf", "--points", "0"], "--points must be >= 1, got 0"),
        (["gauss", "--suite", "cdf", "--points", "-1"], "--points must be >= 1, got -1"),
    ],
)
def test_bad_counts_exit_1(tmp_path, capsys, argv, message):
    # checked before any work: no input is read and nothing is written
    argv = [str(tmp_path / a) if a == "absent.gmd" else a for a in argv]
    out = ["--out", str(tmp_path / "d.gmd")] if argv[0] == "dict" else ["--csv", str(tmp_path / "a.csv")]
    assert run_command(argv + out) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("trials", [0, -3])
def test_run_trials_rejects_bad_trial_counts(trials):
    from gmdlab.approx import approx_gmd_quarter, run_trials
    from gmdlab.core import GmdInstance

    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        run_trials(approx_gmd_quarter, GmdInstance.of(1, 2, [(0, 1, 1, 1)]), trials, seed=0)


@pytest.mark.parametrize(
    "weights",
    [
        # many denominators, so the float sum depends on its order
        pytest.param(["1/3", "1/7", "1/11", "1/5", "1/13", "1/17"], id="small-denominators"),
        # denominators whose lcm passes 2^63: the kernel runs on Python ints
        # and the totals pass 2^53, where rounding total and denominator to
        # floats before dividing changes the printed line
        pytest.param(["5/2147483647", "2/4294967291", "5/2305843009213693951", "1/7", "1/13",
                      "8/2147483647"], id="lcm-past-2-63"),
    ],
)
def test_approx_prints_mean_and_stderr_of_csv_values(tmp_path, capsys, weights):
    import math
    from fractions import Fraction

    arcs = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 0, 1), (0, 2, 2)]
    path = write(tmp_path, "t.gmd", "gmd 2\nv 5\n" + "".join(
        f"e {u} {v} {t} {w}\n" for (u, v, t), w in zip(arcs, weights)))
    csv = str(tmp_path / "a.csv")
    assert run_command(["approx", "--in", path, "--algo", "gmd4", "--trials", "300",
                        "--seed", "4", "--csv", csv]) == 0
    rows = [line.split(",") for line in Path(csv).read_text().splitlines()[2:]]
    values = [float(Fraction(v)) for k, v in rows if k != "mean"]
    mean = sum(values) / len(values)
    stderr = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1)) / math.sqrt(len(values))
    assert capsys.readouterr().out == f"mean = {mean!r} stderr = {stderr!r}\n"
    assert Fraction(rows[-1][1]) == sum(Fraction(v) for k, v in rows[:-1]) / 300


@pytest.mark.parametrize("algo", ["gmd4", "gmdlp"])
@pytest.mark.parametrize("weight", ["1e400", "1e200"])
def test_approx_values_past_the_float_range(tmp_path, capsys, algo, weight):
    # 10^400 is past the float64 range, so the trials that cut the arc read
    # as inf, the mean as inf and the spread as nan; at 10^200 the values
    # and mean are finite but their squared spread is not, so stderr is inf.
    # The CSV keeps every value and the mean exact
    from fractions import Fraction

    path = write(tmp_path, "big.gmd", f"gmd 2\nv 3\ne 0 1 1 {weight}\n")
    csv = str(tmp_path / "a.csv")
    assert run_command(["approx", "--in", path, "--algo", algo, "--trials", "40",
                        "--seed", "0", "--csv", csv]) == 0
    rows = [line.split(",") for line in Path(csv).read_text().splitlines()[2:]]
    values = [Fraction(v) for k, v in rows if k != "mean"]
    assert set(values) == {0, Fraction(weight)}
    assert Fraction(rows[-1][1]) == sum(values) / 40
    if weight == "1e400":
        line = "mean = inf stderr = nan\n"
    else:
        line = f"mean = {sum(map(float, values)) / 40!r} stderr = inf\n"
    assert capsys.readouterr().out.endswith(line)


def test_gap_pipeline_csv(tmp_path, capsys):
    csv = str(tmp_path / "gap.csv")
    out = str(tmp_path / "gap.gmd")
    code = run_command(
        [
            "gap",
            "--n", "16",
            "--T", "2",
            "--delta", "3",
            "--l", "9",
            "--seed", "5",
            "--out", out,
            "--csv", csv,
        ]
    )
    assert code == 0
    assert os.path.exists(out) and os.path.exists(csv)
    lines = Path(csv).read_text().splitlines()
    assert lines[0].startswith("# gmdlab")
    assert "acyclic" in lines[1]


def test_gap_takes_the_complete_base_degree_without_a_scan(monkeypatch, capsys):
    from gmdlab import graphs
    from gmdlab.gapgen import generate_base_dag

    for n in range(1, 61):
        assert graphs.max_degree(n, generate_base_dag("complete-dag", n).arcs) == max(n - 1, 0)
    scanned = []
    scan = graphs.max_degree
    monkeypatch.setattr(graphs, "max_degree", lambda n, edges: scanned.append(len(edges)) or scan(n, edges))
    assert run_command(["gap", "--n", "16", "--seed", "5"]) == 0
    # only the report scans, the instance's edges: fewer than the base's 120
    assert len(scanned) == 1 and scanned[0] < 16 * 15 // 2
    assert run_command(["gap", "--n", "16", "--seed", "5", "--base", "window"]) == 0
    assert len(scanned) == 3


def test_gap_missing_base_file_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "absent.gmd")
    assert run_command(["gap", "--base", f"file:{missing}"]) == 1
    assert f"cannot read {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "5", "--delta", "0"], "--delta must be >= 1, got 0"),
        (["--n", "5", "--delta", "-2", "--p-keep", "1/2"], "--delta must be >= 1, got -2"),
        (["--n", "5", "--base", "window", "--window", "0"], "window must be >= 1, got 0"),
        (["--n", "5", "--base", "window", "--window-p", "1.5"], "must be in [0, 1], got 1.5"),
        (["--n", "5", "--base", "window", "--window-p", "-0.1"], "must be in [0, 1], got -0.1"),
        (["--n", "5", "--p-keep", "3/2"], "p_keep must be in (0, 1], got 3/2"),
    ],
    ids=["delta-0", "delta-negative", "window-0", "window-p-high", "window-p-negative",
         "p-keep-high"],
)
def test_gap_bad_parameters_exit_1(tmp_path, capsys, args, message):
    csv = str(tmp_path / "gap.csv")
    assert run_command(["gap"] + args + ["--csv", csv]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(csv)


def test_sasol_command(tmp_path, capsys):
    path = write(tmp_path, "e.gmd", "gmd 2\nv 2\ne 0 1 2 1\n")
    csv = str(tmp_path / "tbl.csv")
    code = run_command(
        ["sasol", "--in", path, "--mu", "1/2", "--L", "1", "--k", "2",
         "--trials", "2000", "--seed", "3", "--csv", csv]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "objective" in out and "consistent = True" in out
    assert Path(csv).read_text().count("\n") > 5


@pytest.mark.parametrize(
    "text, argv, line",
    [
        ("gmd 1\nv 0\n", ["solve"], "opt = 0"),
        ("gmd 1\nv 0\n", ["approx", "--algo", "gmd4"], "mean = 0.0 stderr = 0.0"),
        ("gmd 1\nv 0\n", ["sasol"], "objective = 0 consistent = True"),
        ("gp\nv 0\n", ["solve"], "opt = 0"),
        ("gp\nv 0\n", ["approx", "--algo", "gp4"], "mean = 0.0 stderr = 0.0"),
    ],
)
def test_empty_instance_answers_zero(tmp_path, capsys, text, argv, line):
    path = write(tmp_path, "empty.txt", text)
    assert run_command(argv + ["--in", path, "--csv", str(tmp_path / "out.csv")]) == 0
    assert line in capsys.readouterr().out
    assert (tmp_path / "out.csv").exists()


def test_dict_eval_dictator(tmp_path, capsys):
    fn = write(tmp_path, "fns.txt", "0 1 2\n0 1 2\n")
    code = run_command(
        ["dict", "--T", "2", "--R", "1", "--delta", "1/2",
         "--emit", "eval", "--functions", fn]
    )
    assert code == 0
    assert "acceptance = 1/4" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1 2\n0 1 x\n", "line 2: bad label 'x'"),
        ("0 1 1/2\n0 1 2\n", "line 1: bad label '1/2'"),
        ("# T = 2\n0 1 2\n0 1 7\n", "line 3: label 7 outside 0..2"),
        ("0 1 2\n-1 1 2\n", "line 2: label -1 outside 0..2"),
        ("0 1 2\n\n0 1\n", "line 3: function table has 2 labels, want (T+1)^R = 3"),
    ],
)
def test_dict_eval_bad_function_table_exit_1_with_line(tmp_path, capsys, text, message):
    fn = write(tmp_path, "fns.txt", text)
    code = run_command(
        ["dict", "--T", "2", "--R", "1", "--delta", "1/2", "--emit", "eval", "--functions", fn]
    )
    captured = capsys.readouterr()
    assert code == 1 and "acceptance" not in captured.out
    assert message in captured.err and "Traceback" not in captured.err


def test_dict_eval_missing_function_file_exit_1(tmp_path, capsys):
    code = run_command(
        ["dict", "--T", "2", "--emit", "eval", "--functions", str(tmp_path / "nope.txt")]
    )
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_dict_emit_instance(tmp_path, capsys):
    out = str(tmp_path / "dt.gmd")
    code = run_command(
        ["dict", "--T", "1", "--R", "1", "--delta", "3/4", "--emit", "instance", "--out", out]
    )
    assert code == 0
    from gmdlab.core import parse_instance

    inst = parse_instance(Path(out).read_text())
    assert inst.total_weight == 1


def test_dict_inner_dag_is_its_arc_skeleton(tmp_path, capsys):
    # parallel arcs 0 -> 1 with two labels give the skeleton one arc 0 -> 1
    from fractions import Fraction

    from gmdlab.core import parse_instance
    from gmdlab.dicttest import build_correlated_space, build_test_instance
    from gmdlab.gapgen import DagSkeleton

    inner = write(tmp_path, "inner.gmd", "gmd 2\nv 3\ne 0 1 1 1\ne 0 1 2 1\ne 1 2 1 1\n")
    out = str(tmp_path / "dt.gmd")
    argv = ["dict", "--T", "2", "--R", "1", "--delta", "1/2", "--inner", inner]
    assert run_command(argv + ["--emit", "instance", "--out", out]) == 0
    skeleton = DagSkeleton(n=3, arcs=((0, 1), (1, 2)))
    want = build_test_instance(build_correlated_space(2, delta=Fraction(1, 2)), skeleton, R=1).instance
    assert parse_instance(Path(out).read_text()) == want
    fn = write(tmp_path, "fns.txt", "0 1 2\n0 1 2\n0 1 2\n")
    assert run_command(argv + ["--emit", "eval", "--functions", fn]) == 0
    assert "acceptance = 1/4" in capsys.readouterr().out
    cyclic = write(tmp_path, "cyclic.gmd", "gmd 1\nv 2\ne 0 1 1 1\ne 1 0 1 1\n")
    assert run_command(["dict", "--T", "2", "--inner", cyclic, "--emit", "instance", "--out", out]) == 1
    assert "cycle" in capsys.readouterr().err


def test_gauss_suites(tmp_path, capsys):
    csv = str(tmp_path / "g.csv")
    assert run_command(["gauss", "--suite", "cdf", "--csv", csv, "--points", "10"]) == 0
    assert "failures = 0" in capsys.readouterr().out
    assert run_command(
        ["gauss", "--suite", "maxgap", "--trials", "20000", "--seed", "2", "--csv", csv]
    ) == 0


def test_plot_script_references_only_csv(tmp_path):
    path = write(tmp_path, "e.gmd", SINGLE)
    csv = str(tmp_path / "r.csv")
    script = str(tmp_path / "plot.py")
    assert (
        run_command(
            ["approx", "--in", path, "--algo", "gmd4", "--trials", "20",
             "--seed", "1", "--csv", csv, "--plot-script", script]
        )
        == 0
    )
    body = Path(script).read_text()
    assert csv in body
    assert "matplotlib" in body


@pytest.mark.parametrize("suite", ["cdf", "gamma", "maxgap"])
def test_gauss_plot_columns_are_numbers(tmp_path, capsys, suite):
    # the script plots the rows whose x and y cells parse as numbers
    csv, script = str(tmp_path / "g.csv"), str(tmp_path / "plot.py")
    argv = ["gauss", "--suite", suite, "--points", "5", "--trials", "200",
            "--csv", csv, "--plot-script", script]
    assert run_command(argv) == 0
    x, y = re.findall(r"num\(row\['(\w+)'\]\)", Path(script).read_text())
    with open(csv, encoding="utf-8") as fh:
        rows = list(DictReader(line for line in fh if not line.startswith("#")))
    cells = [(row[x], row[y]) for row in rows]
    assert cells and all(xc and yc for xc, yc in cells)
    for cell in itertools.chain.from_iterable(cells):
        Fraction(cell)


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "--in", "absent.gmd", "--algo", "gmd4", "--trials", "10"],
        ["gauss", "--suite", "maxgap"],
    ],
)
def test_plot_script_without_csv_exit_1(tmp_path, capsys, argv):
    # checked before any work: no input is read and nothing is written
    argv = [str(tmp_path / a) if a == "absent.gmd" else a for a in argv]
    assert run_command(argv + ["--plot-script", str(tmp_path / "p.py")]) == 1
    err = capsys.readouterr().err
    assert "--plot-script needs --csv" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_solve_gp_geometric_grid(tmp_path, capsys):
    # fractional budget: half grid would not be exact, geometric is requested
    path = write(tmp_path, "f.gp", "gp\nv 2\ne 0 1 3/2 1\n")
    assert run_command(["solve", "--in", path, "--grid", "geom:1/2"]) == 0
    out = capsys.readouterr().out
    assert "opt = 3/2" in out  # prices (3/2, 0) on the geometric grid


def test_report_round_trip(tmp_path):
    csv = str(tmp_path / "in.csv")
    Path(csv).write_text("# gmdlab x config=y seed=1\na,b\n1,2\n")
    out = str(tmp_path / "out.csv")
    assert run_command(["report", "--in", csv, "--out", out]) == 0
    body = Path(out).read_text()
    assert "a,b\n1,2" in body


def test_report_keeps_every_column_of_a_repeated_name(tmp_path):
    csv = str(tmp_path / "in.csv")
    Path(csv).write_text("# gmdlab x config=y seed=1\na,a,b\n1,2,3\n")
    out = tmp_path / "out.csv"
    assert run_command(["report", "--in", csv, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["a,a,b", "1,2,3"]


@pytest.mark.parametrize("row, lineno", [("3,4,5", 4), ("6", 4), ("", 4), ("1,2\n7", 5)])
def test_report_refuses_rows_unlike_the_header(tmp_path, capsys, row, lineno):
    # too many cells, too few, a blank line: each was reshaped to the header
    csv = str(tmp_path / "in.csv")
    Path(csv).write_text(f"# gmdlab x config=y seed=1\na,b\n1,2\n{row}\n")
    out = tmp_path / "out.csv"
    assert run_command(["report", "--in", csv, "--out", str(out)]) == 1
    assert f"error: line {lineno}: row has " in capsys.readouterr().err
    assert not out.exists()


def test_emit_report_writes_float_cells_as_numbers(tmp_path):
    # np.float64 subclasses float; its repr would be np.float64(0.1)
    csv = str(tmp_path / "r.csv")
    cli.emit_report([{"a": np.float64(0.1), "b": 1 / 3, "c": 2}], csv, ["a", "b", "c"],
                    ["x"], seed=0)
    assert Path(csv).read_text().splitlines()[1:] == ["a,b,c", "0.1,0.3333333333333333,2"]


def outcome(argv, capsys):
    """Exit code, stdout and stderr of one command."""
    try:
        code = run_command(argv)
    except SystemExit as exc:  # --version exits through argparse
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_built_once_gives_first_run_outcomes(tmp_path, capsys):
    tri = write(tmp_path, "tri.gmd", TRIANGLE)
    commands = [
        ["solve", "--in", tri, "--bogus"],
        ["solve", "--in", tri],
        ["salp", "--in", P3, "--grid", "half"],
        ["--version"],
    ]
    first = []
    for argv in commands:
        cli._parser.cache_clear()
        first.append(outcome(argv, capsys))
    assert [code for code, _, _ in first] == [1, 0, 0, 0]
    cli._parser.cache_clear()
    assert [outcome(argv, capsys) for argv in commands] == first
    assert cli._parser.cache_info().misses == 1


def test_config_hash_pinned():
    # the goldens skip the provenance line, so its hash is pinned here
    argv = ["gap", "--n", "40", "--seed", "0"]
    assert cli._config_hash(argv) == "4915231a59ab"
    assert cli._config_hash(argv + ["--out", "x.gmd", "--csv", "y.csv"]) == "4915231a59ab"


def test_import_leaves_hashlib_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # nor does hashing a configuration: the builtin sha256 needs no libcrypto
    code = "import sys, gmdlab.cli; gmdlab.cli._config_hash(['salp']); sys.exit('hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_salp_within_the_pivot_budget_leaves_scipy_optimize_unloaded():
    # HiGHS, and with it scipy.optimize, is imported only past the float
    # pass's pivot budget: at a budget of 0 the same run loads it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = os.path.join(GOLDEN, "c4.gmd")
    code = (
        "import sys, gmdlab.cli, gmdlab.salp, gmdlab.simplex\n"
        f"argv = ['salp', '--in', {path!r}, '--rounds', '2']\n"
        "assert gmdlab.cli.run_command(argv) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "gmdlab.simplex.PIVOT_BUDGET = 0\n"
        "assert gmdlab.cli.run_command(argv) == 0\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert [line.split(" lp_path = ")[1] for line in done.stdout.splitlines()] == ["certified", "highs"]


def test_salp_past_the_pivot_budget_answers_through_highs(tmp_path, capsys):
    # the 3-round geom:1/2 LP of K5 (875 rows, 1,525 columns) is degenerate
    # enough that Bland's rule made over 34,000 float pivots without
    # finishing; at the budget of 2 (875 + 1,525) pivots HiGHS answers,
    # and its vertex passes the exact certificate
    text = "gp\nv 5\n" + "".join(f"e {u} {v} 4 1\n" for u, v in itertools.combinations(range(5), 2))
    path = write(tmp_path, "k5.gp", text)
    code, out, err = outcome(["salp", "--in", path, "--rounds", "3", "--grid", "geom:1/2"], capsys)
    assert (code, err) == (0, "")
    assert out == ("lp = 35 variables = 1525 constraints = 875 consistent = True"
                   " grid = geom:1/2 lp_path = highs\n")


# each spelling of an output destination that argparse takes, with its
# value when it takes one: a full name, a name=value token, a unique prefix
DESTINATIONS = {"--csv", "--out", "--plot-script", "--cs", "--c", "--o", "--ou", "--plot", "--pl"}


@pytest.mark.parametrize("argv", [
    [],
    ["gap", "--n", "40", "--seed", "0"],
    ["sasol", "--in", "g.gmd", "--k", "3", "--csv", "t.csv", "--trials", "10"],
    ["salp", "--in", "p\u00e9.gp", "--rounds", "2", "--out"],
    ["approx", "--in", "g.gmd", "--algo", "gmd4", "--csv=a.csv", "--plot-script", "p.py"],
    ["gauss", "--suite", "cdf", "--cs", "a.csv", "--pl", "p.py", "--po", "5"],
    ["gap", "--n", "16", "--c", "a.csv", "--o=x.gmd", "--ou", "y.gmd", "--p", "1/2"],
    ["approx", "--in", "g.gmd", "--algo", "gp4", "--plot=p.py", "--c", "a.csv", "--seed", "3"],
])
def test_config_hash_is_sha256_of_kept_arguments(argv):
    import hashlib

    def destination(tok):
        return tok.partition("=")[0] in DESTINATIONS

    # gap's --p is its --p-keep and gauss's --po its --points: both are kept
    kept = [tok for i, tok in enumerate(argv)
            if not destination(tok)
            and (i == 0 or not destination(argv[i - 1]) or "=" in argv[i - 1])]
    want = hashlib.sha256("\x1f".join(kept).encode()).hexdigest()[:12]
    assert cli._config_hash(argv) == want
    # every destination resolves as argparse resolves it
    if argv and argv[0] != "salp":
        args = cli._parser().parse_args(argv)
        assert vars(args).get("csv") in (None, "a.csv", "t.csv")
        assert vars(args).get("plot_script") in (None, "p.py")


def test_run_as_module(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = write(tmp_path, "tri.gmd", TRIANGLE)
    done = subprocess.run([sys.executable, "-m", "gmdlab", "solve", "--in", path],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("opt = ")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_sasol_peak_rss_does_not_grow_with_trials():
    # 50,000 trials on a 40-vertex T=2 instance: batches of 8,738 trials keep
    # the process near 60 MB; one batch of every trial peaked at 130 MB.  The
    # peak is VmHWM, the process's own resident high-water mark: Linux's
    # ru_maxrss keeps the forking process's mark across exec, here the test
    # runner's.  One BLAS thread, so that per-thread buffers do not vary by
    # machine.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    script = (
        "import sys\n"
        "from gmdlab.cli import run_command\n"
        "assert run_command(sys.argv[1:]) == 0\n"
        "print(next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))\n"
    )
    argv = ["sasol", "--in", os.path.join(GOLDEN, "gap-n40-s0.gmd"), "--k", "2",
            "--trials", "50000", "--seed", "0"]
    done = subprocess.run([sys.executable, "-c", script] + argv, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "kB"
    assert int(done.stdout.split()[-2]) < 100 * 1024


def test_sasol_table_cap_checked_before_any_work(capsys):
    # k=3 on 200 vertices, T=2: 35.6M table entries against the 4M cap
    start = time.perf_counter()
    code = run_command(["sasol", "--in", os.path.join(GOLDEN, "gap-n200-s0.gmd"), "--k", "3"])
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert "at least 35641500 table entries exceed cap 4000000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["salp", "solve"])
@pytest.mark.parametrize("eps", ["1/0", "abc", "", "0", "-1/2", "1e999999999"])
def test_bad_grid_eps_exit_1_naming_spec(capsys, command, eps):
    assert run_command([command, "--in", P3, "--grid", f"geom:{eps}"]) == 1
    err = capsys.readouterr().err
    assert f"'geom:{eps}'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["salp", "solve"])
@pytest.mark.parametrize("path", [P3, os.path.join(GOLDEN, "c4.gmd")], ids=["gp", "gmd"])
def test_unknown_grid_spec_exit_1_on_every_instance(capsys, command, path):
    # max-dicut has no price grid, but a spec that names none is refused
    assert run_command([command, "--in", path, "--grid", "foo"]) == 1
    err = capsys.readouterr().err
    assert "unknown grid spec 'foo' (want half or geom:<eps>)" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["gap", "--n", "16", "--p-keep"], "--p-keep"),
    (["gap", "--n", "16", "--mu"], "--mu"),
    (["sasol", "--in", os.path.join(GOLDEN, "c4.gmd"), "--mu"], "--mu"),
    (["dict", "--T", "2", "--R", "1", "--emit", "soundness", "--delta"], "--delta"),
])
@pytest.mark.parametrize("text", ["1/0", "abc", "1e200000"])
def test_bad_rational_option_exit_1_naming_it(capsys, argv, option, text):
    assert run_command(argv + [text]) == 1
    err = capsys.readouterr().err
    assert f"error: bad {option} '{text}'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # isqrt(2^23) = 2896: 2,896 prices or more make a tableau past 2^23 entries
        (["salp", "--grid", "geom:1/1000000"],
         "grid geom:1/1000000 has more than 2895 prices, cap 2895 = isqrt(lp_entries=8388608) - 1"),
        # 2^19 domain values of 64 bytes fill the 32 MiB of the exact oracles
        (["solve", "--grid", "geom:1e-400"], "grid geom:1e-400 has more than 524288 prices"),
        # 1,797 prices make a first bucket of 196.6M entries, seen from the sizes
        (["solve", "--grid", "geom:1/1000"], "opt_gp_grid: the domains and elimination tables take "),
    ],
)
def test_grid_size_checked_before_any_grid_is_built(capsys, monkeypatch, argv, message):
    def no_grid(*args):
        raise AssertionError("grid built before the cap check")

    monkeypatch.setattr(core, "geometric_grid", no_grid)
    assert run_command(argv[:1] + ["--in", P3] + argv[1:]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["salp", "solve"])
@pytest.mark.parametrize("head", ["gp", "gmd 1"])
def test_five_million_vertices_refused_at_once(tmp_path, capsys, command, head):
    # every grid holds 0 and every label domain two labels, so the count of
    # vertices alone passes each cap before any per-vertex work
    path = write(tmp_path, "big.txt", f"{head}\nv 5000000\n")
    start = time.perf_counter()
    assert run_command([command, "--in", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert "cap exceeded: " in capsys.readouterr().err


def test_solve_past_24_vertices_plans_by_arcs(tmp_path, capsys):
    path = write(tmp_path, "n25.gmd", "gmd 1\nv 25\ne 0 1 1 1\n")
    assert run_command(["solve", "--in", path]) == 0
    assert capsys.readouterr().out == "opt = 1\n"


def test_geometric_grid_denominators_take_no_lcm(tmp_path, capsys):
    # geom:1e-30 under a budget of 1 + 1.4e-27 gives each vertex 1,401
    # prices, whose denominators are powers of 10^30 of up to 42,000 digits;
    # the lcm of the 2,802 took 16.9 s before the plan refused the tables,
    # where each power divides the next
    path = write(tmp_path, "tight.gp", "gp\nv 2\ne 0 1 1.0000000000000000000000000014 1\n")
    start = time.perf_counter()
    assert run_command(["solve", "--in", path, "--grid", "geom:1e-30"]) == 2
    assert time.perf_counter() - start < 2.0
    assert "opt_gp_grid: the domains and elimination tables take" in capsys.readouterr().err


def test_solve_on_200000_vertices_and_one_arc_stays_within_the_plan(tmp_path, capsys):
    # 400,000 labels count 25.6 MB of domain values in the plan; a charge per
    # vertex of up to n bits, isolated vertices included, would take 2.7 GB
    path = write(tmp_path, "wide.gmd", "gmd 1\nv 200000\ne 0 199999 1 1\n")
    tracemalloc.start()
    try:
        assert run_command(["solve", "--in", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "opt = 1\n"
    assert peak < ELIM_MAX_BYTES


eps_texts = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"\A[-+]?\d{0,3}(/\d{0,8}|\.\d{0,4}([eE][-+]?\d{1,7})?)?\Z"),
    st.fractions(min_value=0, max_value=3, max_denominator=300).map(str),
)


@given(text=eps_texts)
@settings(max_examples=60, deadline=None)
def test_grid_spec_fuzz_exits_cleanly(text):
    for command in ("salp", "solve"):
        start = time.perf_counter()
        code = run_command([command, "--in", P3, "--grid", f"geom:{text}"])
        assert code in (0, 1, 2)
        assert time.perf_counter() - start < 5
