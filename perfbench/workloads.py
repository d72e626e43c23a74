"""Inputs, items and answer checks of the three benchmark workloads.

An item is one unit a user would run: one instance solved, one instance's
relaxations, one LP-rounding run with its LP table, one pipeline seed, or
one `sasol` build.  Each workload is a fixed batch of items, split into
groups: the items of a group run in order because a later one reads a file
an earlier one wrote (a `sasol` build reads the instance its `gap` run
wrote).  `SETUP[workload]()` writes the batch's input files into the
current directory and returns its groups; each item is called with no
arguments and returns `(answers, problems)`.  `answers` are exact values
pinned by the reference file; `problems` are broken invariants that need
no reference.

The inputs are the same in every pass, so every pass does the same work
and the reference file holds one answer set; the benchmark's seed only
orders the groups.  They come from `random.Random(...).random()`, whose
sequence Python keeps stable across versions.  Most items are small, so
that a few passes give about a hundred item times and the tail percentile
reaches about p90; the largest items of each workload come in groups of
similar size, so that the median and the tail each fall among items of one
kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import re
from fractions import Fraction

WORKLOADS = ("oracle", "sa-lp", "gap-sasol")

# Modules each workload calls directly; a missing one is a setup failure.
REQUIRED_MODULES = {
    "oracle": ("gmdlab.cli", "gmdlab.core", "gmdlab.exact", "gmdlab.reduction"),
    "sa-lp": ("gmdlab.cli",),
    "gap-sasol": ("gmdlab.cli",),
}
# Modules the commands reach; imported during set-up so that no item pays
# for a first import.  Any of them may be gone after a refactor.
OPTIONAL_MODULES = (
    "gmdlab.approx", "gmdlab.salp", "gmdlab.simplex", "gmdlab.gapgen",
    "gmdlab.graphs", "gmdlab.sasol",
)

M_BASE = 10          # budget base of the reduction in the oracle workload
GAP_DEGREE = 4       # `gap --delta` default; the degree cap is twice this
GAP_GIRTH = 9        # `gap --l` default; cleaned instances have girth > this


def _rng(workload: str) -> random.Random:
    return random.Random(WORKLOADS.index(workload) * 1_000_003)


def _below(rng: random.Random, n: int) -> int:
    return int(rng.random() * n)


def _sample(rng: random.Random, items: list, k: int) -> list:
    """k distinct items in their original order, drawn with random() only."""
    pool = list(items)
    for _ in range(len(pool) - k):
        pool.pop(_below(rng, len(pool)))
    return pool


def _random_arcs(rng, n, T, m, max_weight=7):
    """m distinct (tail, head, label) arcs with integer weights."""
    arcs = {}
    while len(arcs) < m:
        u, v = _below(rng, n), _below(rng, n)
        if u != v:
            arcs.setdefault((u, v, 1 + _below(rng, T)), 1 + _below(rng, max_weight))
    return [(u, v, t, w) for (u, v, t), w in arcs.items()]


def _random_edges(rng, n, m, max_budget, max_weight=4):
    """m pricing edges with integer budgets and weights."""
    edges = []
    while len(edges) < m:
        u, v = _below(rng, n), _below(rng, n)
        if u != v:
            edges.append((u, v, 1 + _below(rng, max_budget), 1 + _below(rng, max_weight)))
    return edges


def gmd_text(T, n, arcs, normalize=False) -> str:
    lines = [f"gmd {T}", f"v {n}"] + [f"e {u} {v} {t} {w}" for u, v, t, w in arcs]
    return "\n".join(lines + (["normalize"] if normalize else [])) + "\n"


def gp_text(n, edges) -> str:
    return "\n".join(["gp", f"v {n}"] + [f"e {u} {v} {b} {w}" for u, v, b, w in edges]) + "\n"


def _layered_dag(rng, tails, heads, keep):
    """Criterion-02 style DAG: tails -> heads, T=2, `keep` arcs of weight 1/keep.

    Each tail's largest out-weight is 1/keep, so ndeg = keep / tails.
    """
    every = [(u, tails + v, t) for u in range(tails) for v in range(heads) for t in (1, 2)]
    return [(u, v, t, f"1/{keep}") for u, v, t in _sample(rng, every, keep)]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# running and reading commands
# ---------------------------------------------------------------------------


def cli(argv) -> str:
    """Run one gmdlab command in this process; its stdout, or raise."""
    import gmdlab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gmdlab.cli.run_command(list(argv))
    if code != 0:
        raise RuntimeError(f"gmdlab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def fields(text: str) -> dict:
    """`key = value` and `key=value` pairs of a command's output."""
    return dict(re.findall(r"(\w+) ?= ?(\S+)", text))


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def csv_rows(path: str):
    """Column names and data rows of a gmdlab CSV (after its provenance line)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def csv_body_digest(path: str, seed) -> tuple[str, list]:
    """Digest of a CSV without its provenance line, which names the version.

    The provenance line is checked for its form and seed instead.
    """
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    problems = []
    if not re.fullmatch(rf"# gmdlab \S+ config=[0-9a-f]+ seed={seed}".encode(), head):
        problems.append(f"{path}: bad provenance line {head[:80]!r}")
    return hashlib.sha256(body).hexdigest(), problems


def brute_opt(T, n, arcs) -> Fraction:
    """Optimum of the normalized instance by full enumeration, independent
    of gmdlab; `arcs` carry integer weights."""
    best = 0
    for lab in itertools.product(range(T + 1), repeat=n):
        best = max(best, sum(w for u, v, t, w in arcs if lab[u] == 0 and lab[v] == t))
    return Fraction(best, sum(w for *_, w in arcs))


# ---------------------------------------------------------------------------
# oracle: exact pairwise maximisation and quarter-algorithm trials
# ---------------------------------------------------------------------------


def _oracle_dag_item(path):
    def item():
        import gmdlab.core
        import gmdlab.exact
        import gmdlab.reduction

        with open(path, "r", encoding="utf-8") as fh:
            inst = gmdlab.core.parse_instance(fh.read())
        art = gmdlab.reduction.reduce_gmd_to_gp(inst, M=M_BASE)
        opt = gmdlab.exact.opt_gmd(inst).value
        grid_opt = gmdlab.exact.opt_gp_grid(art.gp, gmdlab.reduction.canonical_grid(art)).value
        nd = gmdlab.core.ndeg(inst)
        problems = []
        if not opt <= grid_opt <= opt + Fraction(1, M_BASE) + 2 / nd:
            problems.append(f"sandwich fails: opt={opt} grid_opt={grid_opt} ndeg={nd}")
        return {"opt": str(opt), "grid_opt": str(grid_opt)}, problems
    return item


def _quarter_item(algo, path, csv, trials, seed):
    def item():
        cli(["approx", "--in", path, "--algo", algo, "--trials", str(trials),
             "--seed", str(seed), "--csv", csv])
        digest, problems = csv_body_digest(csv, seed)
        _, rows = csv_rows(csv)
        if len(rows) != trials + 1 or rows[-1][0] != "mean":
            problems.append(f"{csv}: expected {trials} trials and a mean row")
        return {"exact_mean": rows[-1][1] if rows else "", "csv_sha256": digest}, problems
    return item


def _solve_item(path):
    def item():
        return {"opt": fields(cli(["solve", "--in", path])).get("opt", "")}, []
    return item


def setup_oracle():
    rng = _rng("oracle")
    groups = []
    # n=8 layered DAGs (2 tails, 6 heads) keeping 20-24 of the 24 unit
    # arcs, so ndeg = keep/2 >= 10 as in criterion 02; the canonical grid has
    # 3^8 points.  With the n=20 solve they are the largest items.
    for i, keep in enumerate((20, 21, 22, 22, 23, 24)):
        path = f"dag8-{i}.gmd"
        _write(path, gmd_text(2, 8, _layered_dag(rng, 2, 6, keep)))
        groups.append([(f"dag8-{i}", _oracle_dag_item(path))])
    # n=20 > 12 takes opt_gmd's numpy zero-set path
    _write("g20.gmd", gmd_text(2, 20, _random_arcs(rng, 20, 2, 40)))
    groups.append([("solve-n20", _solve_item("g20.gmd"))])
    _write("p5.gp", gp_text(5, _random_edges(rng, 5, 7, max_budget=3)))
    for c in range(5):
        groups.append([(f"gmd4-{c}", _quarter_item("gmd4", "g20.gmd", f"gmd4-{c}.csv", 600, c))])
        groups.append([(f"gp4-{c}", _quarter_item("gp4", "p5.gp", f"gp4-{c}.csv", 800, c))])
    return groups


# ---------------------------------------------------------------------------
# sa-lp: Sherali-Adams LPs through the exact simplex, and LP rounding
# ---------------------------------------------------------------------------


def _salp(path, rounds, grid=None, csv=None):
    """One `salp` run: its LP value and size, and a failed audit as a problem."""
    argv = ["salp", "--in", path, "--rounds", str(rounds)]
    argv += ["--grid", grid] if grid else []
    argv += ["--csv", csv] if csv else []
    out = fields(cli(argv))
    problems = [] if out.get("consistent") == "True" else [
        f"rounds {rounds}: consistency audit failed ({out.get('consistent')})"]
    answers = {f"{key}_r{rounds}": out.get(key, "") for key in ("lp", "variables", "constraints")}
    return answers, problems


def _relaxation_item(path, opt, rounds):
    """The relaxations of one instance at each round count; each is at
    least opt, and more rounds never give a larger LP value."""
    def item():
        answers, problems, values = {}, [], []
        for r in rounds:
            more_answers, more_problems = _salp(path, r)
            answers.update(more_answers)
            problems += more_problems
            values.append(Fraction(more_answers[f"lp_r{r}"]))
        if not all(a >= b for a, b in zip(values, values[1:])) or values[-1] < opt:
            problems.append(f"want {' >= '.join(map(str, values))} >= opt = {opt}")
        return answers, problems
    return item


def _marginals(table_csv):
    """Per-vertex distributions read from a `salp --csv` table."""
    marg = {}
    for row in csv_rows(table_csv)[1]:
        if len(row) == 3 and " " not in row[0]:
            marg[(int(row[0]), int(row[1]))] = Fraction(row[2])
    return marg


def _rounding_item(path, arcs, trials, seed):
    """2-round LP table, then LP-rounding trials on the same instance.

    The table gives the rounding's exact expectation, which criterion 05
    bounds below by lp/4 + lp^2/4 on normalized weights; the trials' exact
    mean must lie within 5 standard errors of it.  Neither the mean nor the
    table is pinned, since another exact solver may return another optimal
    vertex.
    """
    def item():
        answers, problems = _salp(path, 2, csv="table.csv")
        out = fields(cli(["approx", "--in", path, "--algo", "gmdlp", "--rounds", "2",
                          "--trials", str(trials), "--seed", str(seed), "--csv", "trials.csv"]))
        lp = Fraction(out["lp"])
        if out["lp"] != answers["lp_r2"]:
            problems.append(f"approx solved lp {lp}, salp {answers['lp_r2']}")
        marg = _marginals("table.csv")
        total = sum(w for *_, w in arcs)
        expect = sum(
            (Fraction(w, total) * (1 + marg[(u, 0)]) * marg[(v, t)] / 4 for u, v, t, w in arcs),
            Fraction(0),
        )
        if expect < lp / 4 + lp * lp / 4:
            problems.append(f"rounding expectation {expect} < lp/4 + lp^2/4 at lp={lp}")
        _, rows = csv_rows("trials.csv")
        if len(rows) != trials + 1 or rows[-1][0] != "mean":
            problems.append(f"trials.csv: expected {trials} trials and a mean row")
        elif abs(Fraction(rows[-1][1]) - expect) > 5 * Fraction(out["stderr"]):
            problems.append(f"trial mean {rows[-1][1]} is more than 5 stderr "
                            f"({out['stderr']}) from the expectation {expect}")
        return answers, problems
    return item


def setup_sa_lp():
    rng = _rng("sa-lp")
    groups = []
    # (name, n, T, arcs, rounds): the n=4, T=2 3-round LPs (174 variables)
    # are the largest items; the n=5 2-round LPs have 105 (T=2) and 180
    # (T=3) variables.
    batch = [(f"relax-{i}", 4, 2, 6 + i % 2, (2, 3)) for i in range(6)]
    batch += [(f"r2-t3-{i}", 5, 3, 8, (2,)) for i in range(8)]
    batch += [("r2-t2-0", 5, 2, 8, (2,))]
    for name, n, T, m, rounds in batch:
        arcs = _random_arcs(rng, n, T, m)
        _write(f"{name}.gmd", gmd_text(T, n, arcs, normalize=True))
        groups.append([(name, _relaxation_item(f"{name}.gmd", brute_opt(T, n, arcs), rounds))])
    arcs = _random_arcs(rng, 5, 2, 8)
    _write("round.gmd", gmd_text(2, 5, arcs, normalize=True))
    groups.append([("gmdlp", _rounding_item("round.gmd", arcs, 600, 0))])
    # pricing with budgets 1..2: the half-integral grid has at most 5 prices
    _write("p4.gp", gp_text(4, _random_edges(rng, 4, 5, max_budget=2)))
    groups.append([("salp-p", lambda: _salp("p4.gp", 2, grid="half"))])
    return groups


# ---------------------------------------------------------------------------
# gap-sasol: gap-instance pipeline and rounding-built SA solutions
# ---------------------------------------------------------------------------


def _gap_item(n, seed, out, csv):
    def item():
        cli(["gap", "--n", str(n), "--seed", str(seed), "--out", out, "--csv", csv])
        digest, problems = csv_body_digest(csv, seed)
        names, rows = csv_rows(csv)
        row = dict(zip(names, rows[0])) if rows else {}
        if row.get("acyclic") != "True":
            problems.append(f"{out}: not acyclic")
        if int(row.get("max_degree", 10**9)) > 2 * GAP_DEGREE:
            problems.append(f"{out}: max degree {row.get('max_degree')} > {2 * GAP_DEGREE}")
        girth = row.get("girth", "0")
        if girth != "inf" and int(girth) <= GAP_GIRTH:
            problems.append(f"{out}: girth {girth} <= {GAP_GIRTH}")
        if int(row.get("edges", 0)) < 1:
            problems.append(f"{out}: no edges")
        return {"instance_sha256": file_digest(out), "csv_sha256": digest}, problems
    return item


def _sasol_item(path, k, trials, seed, csv):
    def item():
        out = fields(cli(["sasol", "--in", path, "--k", str(k), "--trials", str(trials),
                          "--seed", str(seed), "--csv", csv]))
        digest, problems = csv_body_digest(csv, seed)
        if out.get("consistent") != "True":
            problems.append(f"consistency audit failed: {out.get('consistent')}")
        return {"objective": out.get("objective", ""), "csv_sha256": digest}, problems
    return item


def setup_gap_sasol():
    # The n=40 and n=25 pipelines are above the opt_gmd cap of 24, so their
    # structural check runs the local search.  Two of the n=40 instances get
    # a k=2 `sasol` build.  One n=16 instance gets three k=3 builds with
    # different trial seeds: their audits have the same size and make the
    # largest items.  The median item is an n=40 pipeline.
    groups = []
    for seed in range(6):
        group = [(f"gap-n40-{seed}", _gap_item(40, seed, f"gap40-{seed}.gmd", f"gap40-{seed}.csv"))]
        if seed < 2:
            group.append((f"sasol-k2-{seed}",
                          _sasol_item(f"gap40-{seed}.gmd", 2, 1_000, seed, f"sasol-k2-{seed}.csv")))
        groups.append(group)
    groups.append([("gap-n16", _gap_item(16, 0, "gap16.gmd", "gap16.csv"))] + [
        (f"sasol-k3-{seed}", _sasol_item("gap16.gmd", 3, 1_000, seed, f"sasol-k3-{seed}.csv"))
        for seed in range(3)
    ])
    for seed in range(5):
        groups.append([(f"gap-n25-{seed}",
                        _gap_item(25, seed, f"gap25-{seed}.gmd", f"gap25-{seed}.csv"))])
    return groups


SETUP = {"oracle": setup_oracle, "sa-lp": setup_sa_lp, "gap-sasol": setup_gap_sasol}
