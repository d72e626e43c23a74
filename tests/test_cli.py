import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmdlab.cli as cli
import gmdlab.salp as salp
from gmdlab.cli import run_command

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
    monkeypatch.setenv("GMDLAB_CAPS", "sa_rounds=2")
    path = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["salp", "--in", path, "--rounds", "3"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["opt_gmd_n=abc", "opt_gmd_n", "opt_gmd_n=", "opt_gmd_n=-1",
                                  "opt_gmd_n=2.5", "sa_n=8,opt_gmd_n=-1"])
def test_malformed_caps_exit_1_naming_the_cap(tmp_path, capsys, monkeypatch, spec):
    # checked before any work: the absent input is never read
    monkeypatch.setenv("GMDLAB_CAPS", spec)
    assert run_command(["solve", "--in", str(tmp_path / "absent.gmd")]) == 1
    err = capsys.readouterr().err
    assert "GMDLAB_CAPS" in err and "'opt_gmd_n'" in err and "Traceback" not in err


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


def test_salp_triangle_value(tmp_path, capsys):
    path = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["salp", "--in", path, "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert "lp = 1/2" in out and "consistent = True" in out


def test_salp_reports_lp_path(tmp_path, capsys, monkeypatch):
    tri = write(tmp_path, "tri.gmd", TRIANGLE)
    assert run_command(["salp", "--in", tri, "--rounds", "2"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("lp_path = certified")
    monkeypatch.setenv("GMDLAB_CAPS", "sa_domain=9")
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


@pytest.mark.parametrize("argv", [
    [],
    ["gap", "--n", "40", "--seed", "0"],
    ["sasol", "--in", "g.gmd", "--k", "3", "--csv", "t.csv", "--trials", "10"],
    ["salp", "--in", "p\u00e9.gp", "--rounds", "2", "--out"],
])
def test_config_hash_is_sha256_of_kept_arguments(argv):
    import hashlib

    kept = [tok for i, tok in enumerate(argv)
            if tok not in ("--csv", "--out") and (i == 0 or argv[i - 1] not in ("--csv", "--out"))]
    want = hashlib.sha256("\x1f".join(kept).encode()).hexdigest()[:12]
    assert cli._config_hash(argv) == want


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
        (["salp", "--grid", "geom:1/1000000"], "gives vertex 0 more than 5 prices"),
        (["solve", "--grid", "geom:1/1000"], "grid has 196591175 points, cap 2000000"),
        (["solve", "--grid", "geom:1e-400"], "grid has more than 2000000 points"),
    ],
)
def test_grid_size_checked_before_any_grid_is_built(capsys, monkeypatch, argv, message):
    def no_grid(*args):
        raise AssertionError("grid built before the cap check")

    monkeypatch.setattr(salp, "geometric_grid", no_grid)
    assert run_command(argv[:1] + ["--in", P3] + argv[1:]) == 2
    assert message in capsys.readouterr().err


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
