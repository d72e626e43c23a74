"""Golden corpus: byte-exact outputs of fixed commands on checked-in fixtures.

Each case runs one subcommand on a fixture under tests/golden/ and compares
the CSV it writes, without its provenance line (which hashes the argument
paths), byte for byte with the recorded body.  A case that passes `--out`
also compares the file it writes there with the golden file of that name; a
case named after its `--out` file (`reduce`, `dict --emit instance`) writes
no CSV and compares that file alone.  A case with a `<case>.stdout` file
(stem of the case name) also compares what the command prints, byte for
byte: the `opt = ...` and `mean = ... stderr = ...` lines, which no CSV holds.
A change to any of these files is a deliberate change of output.  To
re-record the named cases, and only those:

    PYTHONPATH=src python tests/test_golden.py --write gap-n40-s0.csv ...

`--write` rewrites a case's `.stdout` file only when it already exists, or
with `--stdout`, which records one for every named case.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

import pytest

from gmdlab.cli import run_command

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (golden CSV, argv without --csv), run under the default caps; input files are
# fixtures under GOLDEN, the `--out` file is a golden output of that name
CASES = (
    ("sasol-k2.csv", ["sasol", "--in", "gap12.gmd", "--k", "2", "--trials", "500", "--seed", "0"]),
    ("sasol-k3.csv", ["sasol", "--in", "gap12.gmd", "--k", "3", "--L", "2", "--trials", "400",
                      "--seed", "1"]),
    # enough trials that the rounding runs in several batches
    ("sasol-k2-multibatch.csv", ["sasol", "--in", "gap12.gmd", "--k", "2", "--trials", "40000",
                                 "--seed", "2"]),
    # T = 3 (q = 4): 20,000 trials are two batches of the 64 x 64 factors
    ("sasol-t3-k2.csv", ["sasol", "--in", "gap16-t3.gmd", "--k", "2", "--trials", "20000",
                         "--seed", "3"]),
    ("salp-r2.csv", ["salp", "--in", "c4.gmd", "--rounds", "2"]),
    ("salp-r3.csv", ["salp", "--in", "c4.gmd", "--rounds", "3"]),
    ("salp-half.csv", ["salp", "--in", "p3.gp", "--rounds", "2", "--grid", "half"]),
    # its duals do not rationalise, so the exact tableau solves it
    ("salp-geom.csv", ["salp", "--in", "geom.gp", "--rounds", "2", "--grid", "geom:1/10"]),
    # the benchmark's two largest LP shapes: n=5, T=3 at 2 rounds (180
    # variables) and n=4, T=2 at 3 rounds (174 variables)
    ("salp-n5t3-r2.csv", ["salp", "--in", "n5t3.gmd", "--rounds", "2"]),
    ("salp-n4t2-r3.csv", ["salp", "--in", "n4t2.gmd", "--rounds", "3"]),
    ("gap-n40-s0.csv", ["gap", "--n", "40", "--seed", "0", "--out", "gap-n40-s0.gmd"]),
    ("gap-n40-s5.csv", ["gap", "--n", "40", "--seed", "5", "--out", "gap-n40-s5.gmd"]),
    # n > 24: the measured optimum comes from the local search
    ("gap-n25-s1.csv", ["gap", "--n", "25", "--seed", "1", "--out", "gap-n25-s1.gmd"]),
    ("gap-window.csv", ["gap", "--n", "60", "--base", "window", "--window", "4",
                        "--window-p", "0.8", "--out", "gap-window.gmd"]),
    ("gap-l11.csv", ["gap", "--n", "40", "--l", "11", "--out", "gap-l11.gmd"]),
    ("gap-n100-s1.csv", ["gap", "--n", "100", "--seed", "1", "--out", "gap-n100-s1.gmd"]),
    # pins several times the drops of gap-n100-s1 through the girth cleanup
    ("gap-n200-s0.csv", ["gap", "--n", "200", "--seed", "0", "--out", "gap-n200-s0.gmd"]),
    # the largest drop order pinned: 1,525 drops, several times those of gap-n200-s0
    ("gap-n1000-t3.csv", ["gap", "--n", "1000", "--T", "3", "--delta", "6", "--seed", "0",
                          "--out", "gap-n1000-t3.gmd"]),
    # g20.gmd: random n=20, T=2, 40 integer-weight arcs (as in the benchmark)
    ("solve-g20.csv", ["solve", "--in", "g20.gmd"]),
    ("solve-c4.csv", ["solve", "--in", "c4.gmd"]),
    ("solve-p3-half.csv", ["solve", "--in", "p3.gp", "--grid", "half"]),
    # fractional budgets (13/8, 3/2, 17/10) and prices with denominators 10^k
    ("solve-geom.csv", ["solve", "--in", "geom.gp", "--grid", "geom:1/10"]),
    ("approx-gmd4-g20.csv", ["approx", "--in", "g20.gmd", "--algo", "gmd4", "--trials", "1000",
                             "--seed", "0"]),
    ("approx-gp4-p3.csv", ["approx", "--in", "p3.gp", "--algo", "gp4", "--trials", "1000",
                           "--seed", "0"]),
    ("approx-gp4-geom.csv", ["approx", "--in", "geom.gp", "--algo", "gp4", "--trials", "1000",
                             "--seed", "0"]),
    ("approx-gmdlp-c4.csv", ["approx", "--in", "c4.gmd", "--algo", "gmdlp", "--rounds", "2",
                             "--trials", "1000", "--seed", "0"]),
    # a negative seed: the Philox key takes it modulo 2^64
    ("approx-gmd4-neg.csv", ["approx", "--in", "c4.gmd", "--algo", "gmd4", "--trials", "500",
                             "--seed", "-1"]),
    ("reduce-gap12.gp", ["reduce", "--in", "gap12.gmd", "--out", "reduce-gap12.gp"]),
    ("reduce-gap12-m3x.gp", ["reduce", "--in", "gap12.gmd", "--M", "3", "--expand",
                             "--out", "reduce-gap12-m3x.gp"]),
    ("dict-t2.gmd", ["dict", "--T", "2", "--R", "1", "--out", "dict-t2.gmd"]),
    ("dict-sound-t2r2.csv", ["dict", "--T", "2", "--R", "2", "--emit", "soundness"]),
    ("gauss-cdf.csv", ["gauss", "--suite", "cdf", "--points", "8"]),
    ("gauss-gamma.csv", ["gauss", "--suite", "gamma"]),
    ("gauss-maxgap.csv", ["gauss", "--suite", "maxgap", "--trials", "2000", "--seed", "3"]),
)


def _outputs(name, argv, directory) -> dict[str, bytes]:
    """Run one case; returns {golden name: bytes} for its CSV body, its
    `--out` file and what it prints (key "stdout")."""
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    csv = None if name == out else os.path.join(directory, "out.csv")
    argv = [
        os.path.join(directory, tok) if tok == out
        else os.path.join(GOLDEN, tok) if tok.endswith((".gmd", ".gp"))
        else tok
        for tok in argv
    ]
    old = os.environ.pop("GMDLAB_CAPS", None)
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            assert run_command(argv + (["--csv", csv] if csv else [])) == 0
    finally:
        if old is not None:
            os.environ["GMDLAB_CAPS"] = old
    outputs = {"stdout": printed.getvalue().encode()}
    if csv is not None:
        with open(csv, "rb") as fh:
            first, body = fh.read().split(b"\n", 1)
        assert first.startswith(b"# gmdlab ")
        outputs["csv"] = body
    if out is not None:
        with open(os.path.join(directory, out), "rb") as fh:
            outputs[out] = fh.read()
    return outputs


def _golden_name(name: str, key: str) -> str:
    return {"csv": name, "stdout": os.path.splitext(name)[0] + ".stdout"}.get(key, key)


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_csv_body_matches_golden(name, argv, tmp_path):
    for key, data in _outputs(name, argv, str(tmp_path)).items():
        target = os.path.join(GOLDEN, _golden_name(name, key))
        if key == "stdout" and not os.path.exists(target):
            continue
        with open(target, "rb") as fh:
            assert data == fh.read(), key


if __name__ == "__main__" and sys.argv[1:2] == ["--write"]:
    cases = {c[0]: c for c in CASES}
    stdout = "--stdout" in sys.argv[2:]
    names = [nm for nm in sys.argv[2:] if nm != "--stdout"]
    unknown = [nm for nm in names if nm not in cases]
    if not names or unknown:
        sys.exit(f"--write needs case names from: {' '.join(cases)}"
                 + (f" (unknown: {' '.join(unknown)})" if unknown else ""))
    with tempfile.TemporaryDirectory() as tmp:
        for nm in names:
            _, argv = cases[nm]
            for key, data in _outputs(nm, argv, tmp).items():
                target = _golden_name(nm, key)
                path = os.path.join(GOLDEN, target)
                if key == "stdout" and not (stdout or os.path.exists(path)):
                    continue
                with open(path, "wb") as fh:
                    fh.write(data)
                print(f"wrote {target}")
