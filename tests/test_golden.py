"""Golden corpus: byte-exact CSV bodies of fixed commands on checked-in fixtures.

Each case runs one subcommand on a fixture under tests/golden/ and compares
the CSV it writes, without its provenance line (which hashes the argument
paths), byte for byte with the recorded body.  A change to any of these
files is a deliberate change of output.  To re-record them:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import os
import sys
import tempfile

import pytest

from gmdlab.cli import run_command

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (golden CSV, argv without --csv, GMDLAB_CAPS or None)
CASES = (
    ("sasol-k2.csv", ["sasol", "--in", "gap12.gmd", "--k", "2", "--trials", "500", "--seed", "0"], None),
    ("sasol-k3.csv", ["sasol", "--in", "gap12.gmd", "--k", "3", "--L", "2", "--trials", "400",
                      "--seed", "1"], None),
    ("salp-r2.csv", ["salp", "--in", "c4.gmd", "--rounds", "2"], None),
    ("salp-r3.csv", ["salp", "--in", "c4.gmd", "--rounds", "3"], None),
    ("salp-half.csv", ["salp", "--in", "p3.gp", "--rounds", "2", "--grid", "half"], None),
    # its duals do not rationalise, so the exact tableau solves it
    ("salp-geom.csv", ["salp", "--in", "geom.gp", "--rounds", "2", "--grid", "geom:1/10"],
     "sa_domain=9"),
)


def _body(argv, caps, directory):
    argv = [os.path.join(GOLDEN, tok) if tok.endswith((".gmd", ".gp")) else tok for tok in argv]
    csv = os.path.join(directory, "out.csv")
    old = os.environ.pop("GMDLAB_CAPS", None)
    if caps is not None:
        os.environ["GMDLAB_CAPS"] = caps
    try:
        assert run_command(argv + ["--csv", csv]) == 0
    finally:
        os.environ.pop("GMDLAB_CAPS", None)
        if old is not None:
            os.environ["GMDLAB_CAPS"] = old
    with open(csv, "rb") as fh:
        first, body = fh.read().split(b"\n", 1)
    assert first.startswith(b"# gmdlab ")
    return body


@pytest.mark.parametrize("name, argv, caps", CASES, ids=[c[0] for c in CASES])
def test_csv_body_matches_golden(name, argv, caps, tmp_path, capsys):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert _body(argv, caps, str(tmp_path)) == fh.read()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, caps in CASES:
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(_body(argv, caps, tmp))
            print(f"wrote {name}")
