"""Unified command-line front end.

One binary, one master seed per invocation, deterministic outputs: every CSV
starts with a comment line recording the tool version, a hash of the exact
configuration, and the seed.  Every output is written to a temporary file of
its own beside the target, fsynced and renamed over it, so readers never
observe partial files and concurrent runs never share a temporary file.
Exit codes: 0 success, 1 validation error, 2 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
import tempfile
from fractions import Fraction

# the builtin sha256 module adds about 28 KB RSS; hashlib, the last resort,
# loads libcrypto (about 3.6 MB), which only runs that import numpy.random
# pay anyway
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .caps import Caps, caps_from_env
from .core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    InstanceError,
    ParseError,
    ValueTexts,
    grid_spec_eps,
    parse_instance,
    parse_rational,
    price_grid,
    price_grid_sizes,
    serialize_instance,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    subcommands: dict = {}  # name -> parser, set on the top-level parser

    # argparse exits 2 on bad usage; here 2 means "cap exceeded", so remap
    def error(self, message):
        raise _UsageError(message)


_DESTINATIONS = ("--csv", "--out", "--plot-script")  # the options naming an output file


def _config_hash(argv) -> str:
    """Hash of the semantic configuration: output destinations excluded in
    every spelling argparse takes, `--csv a.csv`, `--csv=a.csv` and a prefix
    no other option of the subcommand has, such as `--cs a.csv`; a
    destination's full name on any subcommand."""
    opts = _long_options(argv[0]) if argv else ()
    kept, skip = [], False
    for tok in argv:
        name, eq, _ = tok.partition("=")
        named = [name] if name in {*opts, *_DESTINATIONS} else [o for o in opts if o.startswith(name)]
        if skip:
            skip = False
        elif len(named) == 1 and named[0] in _DESTINATIONS:
            skip = not eq
        else:
            kept.append(tok)
    return sha256("\x1f".join(kept).encode()).hexdigest()[:12]


@functools.cache
def _long_options(command: str) -> tuple[str, ...]:
    """The long options of the subcommand `command`; none for an unknown one."""
    sub = _parser().subcommands.get(command)
    return tuple(o for o in sub._option_string_actions if o.startswith("--")) if sub else ()


def _atomic_write(path: str, text):
    """Write `text`, one string or an iterable of strings in order, to a
    private temporary file beside `path`, fsync it and rename it over
    `path`; on any error the temporary file is removed."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(fd, 0o666 & ~_umask())
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def emit_report(rows, path: str, header: list[str], argv, seed) -> None:
    """CSV with a provenance comment; stable column order; atomic replace.

    Rows are all dicts keyed by column, all tuples of formatted cells in
    header order, or all strings of whole lines (SaSolution.csv_chunks), the
    last written as they are.  The text is written in parts, never whole.
    """
    head = f"# gmdlab {__version__} config={_config_hash(argv)} seed={seed}\n{','.join(header)}\n"
    rows = iter(rows)
    first = next(rows, None)
    rows = itertools.chain([] if first is None else [first], rows)
    if isinstance(first, dict):
        rows = ([str(row.get(col, "")) for col in header] for row in rows)
    text = rows if isinstance(first, str) else _text_chunks(map(",".join, rows))
    _atomic_write(path, itertools.chain([head], text))


def _text_chunks(lines):
    """The lines of an iterator as newline-terminated strings of up to 4,096
    lines each."""
    while chunk := list(itertools.islice(lines, 4096)):
        yield "\n".join(chunk) + "\n"


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# companion plot for {csv}; reads only that CSV
import csv
from fractions import Fraction
import matplotlib.pyplot as plt

def num(tok):
    return float(Fraction(tok))

xs, ys = [], []
with open({csv!r}) as fh:
    rows = [r for r in fh if not r.startswith("#")]
for row in csv.DictReader(rows):
    try:
        xs.append(num(row[{x!r}]))
        ys.append(num(row[{y!r}]))
    except (KeyError, ValueError, ZeroDivisionError):
        continue
plt.plot(xs, ys, marker=".", linestyle="none")
plt.xlabel({x!r})
plt.ylabel({y!r})
plt.savefig({csv!r} + ".png", dpi=150)
"""


def emit_plot_script(csv_path: str, out_path: str, x: str, y: str) -> None:
    _atomic_write(out_path, _PLOT_TEMPLATE.format(csv=csv_path, x=x, y=y))


def _read_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc


def _rational(option: str, text: str) -> Fraction:
    """The rational value `text` of `option`, or InstanceError naming both."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"bad {option} {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args, caps, argv) -> int:
    from .exact import ELIM_MAX_BYTES, VALUE_BYTES, grid_plan, opt_gmd, opt_gp_grid

    grid_spec_eps(args.grid)  # refused on every instance, though max-dicut has no grid
    inst = _read_instance(args.infile)
    if isinstance(inst, GmdInstance):
        res = opt_gmd(inst)
    else:
        # the oracle's plan refuses from the sizes, before any grid is built
        fill = grid_plan(inst, price_grid_sizes(inst, args.grid, ELIM_MAX_BYTES // VALUE_BYTES))
        res = opt_gp_grid(inst, price_grid(inst, args.grid), fill)
    print(f"opt = {res.value}")
    if args.csv:
        emit_report(
            [{"value": res.value, "explored": res.explored}],
            args.csv,
            ["value", "explored"],
            argv,
            seed="-",
        )
    return 0


def _cmd_approx(args, caps, argv) -> int:
    from .approx import (
        approx_gmd_quarter,
        approx_gp_quarter,
        lp_round_gmd,
        run_trials,
    )

    if args.trials < 1:
        raise InstanceError(f"--trials must be >= 1, got {args.trials}")
    if args.plot_script and not args.csv:
        raise InstanceError("--plot-script needs --csv")
    inst = _read_instance(args.infile)
    if args.algo == "gp4":
        if not isinstance(inst, GpInstance):
            raise InstanceError("gp4 needs a pricing instance")
        run = run_trials(approx_gp_quarter, inst, args.trials, args.seed, caps=caps)
    elif args.algo == "gmd4":
        if not isinstance(inst, GmdInstance):
            raise InstanceError("gmd4 needs a labeled-dicut instance")
        run = run_trials(approx_gmd_quarter, inst, args.trials, args.seed, caps=caps)
    elif args.algo == "gmdlp":
        if not isinstance(inst, GmdInstance):
            raise InstanceError("gmdlp needs a labeled-dicut instance")
        from .salp import build_sa_lp, marginals_for_rounding, solve_lp_exact

        lp_value, sol = solve_lp_exact(build_sa_lp(inst, args.rounds, caps=caps))
        marg = marginals_for_rounding(sol, inst)
        run = run_trials(
            lp_round_gmd, inst, args.trials, args.seed, caps=caps, marginals=marg
        )
        print(f"lp = {lp_value}")
    else:
        raise InstanceError(f"unknown algorithm {args.algo!r}")
    print(f"mean = {run.mean!r} stderr = {run.stderr!r}")
    if args.csv:
        # the totals take few distinct values: each is formatted once
        texts = ValueTexts(run.denom)
        rows = zip(map(str, range(run.trials)), map(texts.__getitem__, run.totals))
        rows = itertools.chain(rows, [("mean", str(run.exact_mean))])
        emit_report(rows, args.csv, ["trial", "value"], argv, seed=args.seed)
        if args.plot_script:
            emit_plot_script(args.csv, args.plot_script, x="trial", y="value")
    return 0


def _cmd_reduce(args, caps, argv) -> int:
    from .reduction import reduce_gmd_to_gp, serialize_reduced

    inst = _read_instance(args.infile)
    if not isinstance(inst, GmdInstance):
        raise InstanceError("reduce needs a labeled-dicut instance")
    if not inst.weights_normalized:
        inst = inst.normalized()
    art = reduce_gmd_to_gp(inst, M=args.M)
    _atomic_write(args.out, serialize_reduced(art, expand=args.expand))
    print(f"wrote {args.out}")
    return 0


def _cmd_salp(args, caps, argv) -> int:
    from .salp import build_sa_lp, check_sa_consistency, solve_lp_exact

    grid_spec_eps(args.grid)  # refused on every instance, though max-dicut has no grid
    inst = _read_instance(args.infile)
    pricing = isinstance(inst, GpInstance)
    # grids of s prices in all give an LP of at least s rows and s variables
    limit = max(math.isqrt(caps.lp_entries) - 1, 0)
    if pricing:
        price_grid_sizes(inst, args.grid, limit, f"{limit} = isqrt(lp_entries={caps.lp_entries}) - 1")
    grid = price_grid(inst, args.grid) if pricing else None
    lp = build_sa_lp(inst, args.rounds, price_grid=grid, caps=caps)
    value, sol = solve_lp_exact(lp)
    report = check_sa_consistency(sol)
    print(
        f"lp = {value} variables = {lp.num_variables} "
        f"constraints = {lp.num_constraints} consistent = {report.ok}"
        + (f" grid = {args.grid}" if pricing else "")
        + f" lp_path = {sol.lp_path}"
    )
    if args.csv:
        emit_report(sol.csv_chunks(), args.csv, ["set", "assignment", "value"], argv, seed="-")
    return 0


def _cmd_gap(args, caps, argv) -> int:
    from .gapgen import PipelineConfig, generate_base_dag, sparsify_pipeline
    from .graphs import max_degree

    if args.delta < 1:  # p_keep is derived from it below
        raise InstanceError(f"--delta must be >= 1, got {args.delta}")
    mu = _rational("--mu", args.mu)
    p_keep = _rational("--p-keep", args.p_keep) if args.p_keep else None
    if args.base.startswith("file:"):
        base = generate_base_dag("custom-file", args.n, params={"path": args.base[5:]})
    elif args.base == "window":
        window = {"window": args.window, "p": args.window_p}
        base = generate_base_dag("window-random", args.n, params=window, seed=args.seed)
    elif args.base == "complete":
        base = generate_base_dag("complete-dag", args.n)
    else:
        raise InstanceError(f"unknown base {args.base!r}")
    if p_keep is None:
        # each vertex of the complete DAG meets the n - 1 others
        complete = args.base == "complete"
        delta_star = (max(base.n - 1, 0) if complete else max_degree(base.n, base.arcs)) or 1
        p_keep = min(Fraction(1), Fraction(args.delta, delta_star))
    cfg = PipelineConfig(n=base.n, T=args.T, Delta=args.delta, p_keep=p_keep, l=args.l, mu=mu,
                         k_max=args.kmax, seed=args.seed)
    inst, report = sparsify_pipeline(base, cfg)
    if args.out:
        _atomic_write(args.out, serialize_instance(inst))
    row = {
        "seed": args.seed,
        "edges": report.edge_count,
        "max_degree": report.max_degree,
        "girth": report.girth if report.girth is not None else "inf",
        "acyclic": report.is_acyclic,
        "noise_ok": report.noise_ok,
        "measured_opt": report.measured_opt,
        "opt_exact": report.measured_opt_exact,
        "dicut_bound_ok": report.dicut_bound_ok,
    }
    print(" ".join(f"{k}={v}" for k, v in row.items()))
    if args.csv:
        emit_report(rows=[row], path=args.csv, header=list(row), argv=argv, seed=args.seed)
    return 0


def _cmd_sasol(args, caps, argv) -> int:
    from .salp import check_sa_consistency
    from .sasol import build_sa_solution

    if args.trials < 1:
        raise InstanceError(f"--trials must be >= 1, got {args.trials}")
    mu = _rational("--mu", args.mu)
    inst = _read_instance(args.infile)
    if not isinstance(inst, GmdInstance):
        raise InstanceError("sasol needs a labeled-dicut instance")
    result = build_sa_solution(
        inst,
        mu=mu,
        L=args.L,
        k=args.k,
        trials=args.trials,
        seed=args.seed,
        caps=caps,
    )
    consistent = check_sa_consistency(result.solution).ok
    print(f"objective = {result.objective} consistent = {consistent}")
    if args.csv:
        rows = itertools.chain(result.solution.csv_chunks(), [f"objective,,{result.objective}\n"])
        emit_report(rows, args.csv, ["set", "assignment", "frequency"], argv, seed=args.seed)
    return 0


def _cmd_dict(args, caps, argv) -> int:
    from .dicttest import (
        acceptance_probability,
        build_correlated_space,
        build_test_instance,
        soundness_report,
    )
    from .gapgen import DagSkeleton

    if args.R < 1:
        raise InstanceError(f"--R must be >= 1, got {args.R}")
    delta = _rational("--delta", args.delta) if args.delta else None
    space = build_correlated_space(args.T, delta=delta)
    if args.inner:
        from .reduction import topo_number

        inner = _read_instance(args.inner)
        if not isinstance(inner, GmdInstance):
            raise InstanceError("inner graph must be a gmd instance")
        topo_number(inner)
    else:
        inner = DagSkeleton(n=2, arcs=((0, 1),))
    if args.emit == "instance":
        ti = build_test_instance(space, inner, args.R, caps=caps)
        out = args.out or "dicttest.gmd"
        _atomic_write(out, serialize_instance(ti.instance))
        print(f"wrote {out} ({len(ti.instance.arcs)} edges)")
        return 0
    if args.emit == "eval":
        if not args.functions:
            raise InstanceError("--emit eval needs --functions")
        tables = _read_function_tables(args.functions, space.q, args.R, inner.n)
        acc = acceptance_probability(space, inner, args.R, tables)
        print(f"acceptance = {acc}")
        return 0
    if args.emit == "soundness":
        rows = soundness_report(space, inner, args.R, seed=args.seed)
        out_rows = [
            {
                "function": r.name,
                "acceptance": r.acceptance,
                "soundness_ceiling": r.soundness_ceiling,
                "completeness": r.completeness,
            }
            for r in rows
        ]
        if args.csv:
            emit_report(
                out_rows,
                args.csv,
                ["function", "acceptance", "soundness_ceiling", "completeness"],
                argv,
                seed=args.seed,
            )
        for r in out_rows:
            print(" ".join(f"{k}={v}" for k, v in r.items()))
        return 0
    raise InstanceError(f"unknown emit mode {args.emit!r}")


def _read_function_tables(path: str, q: int, R: int, n_inner: int):
    """One table of q**R labels in 0..q-1 per non-blank line (# comments)."""
    tables = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        table = []
        for tok in line.split():
            try:
                label = int(tok)
            except ValueError:
                raise ParseError(lineno, f"bad label {tok!r}") from None
            if not 0 <= label < q:
                raise ParseError(lineno, f"label {label} outside 0..{q - 1}")
            table.append(label)
        if len(table) != q**R:
            raise ParseError(
                lineno, f"function table has {len(table)} labels, want (T+1)^R = {q**R}"
            )
        tables.append(table)
    if len(tables) != n_inner:
        raise InstanceError(
            f"function file has {len(tables)} tables, inner graph has {n_inner} vertices"
        )
    return tables


def _cmd_gauss(args, caps, argv) -> int:
    from .gaussmath import (
        gap_bound_threshold,
        max_bound_threshold,
        max_gap_stats,
        normal_sf,
        tail_bounds,
        verify_gamma_properties,
    )

    if args.trials < 1:
        raise InstanceError(f"--trials must be >= 1, got {args.trials}")
    if args.points < 1:
        raise InstanceError(f"--points must be >= 1, got {args.points}")
    if args.plot_script and not args.csv:
        raise InstanceError("--plot-script needs --csv")
    rows = []
    if args.suite == "cdf":
        import numpy as np

        for t in np.linspace(0.1, 10.0, args.points):
            lo, hi = tail_bounds(float(t))
            sf = normal_sf(float(t))
            rows.append(
                {"t": float(t), "lower": lo, "sf": sf, "upper": hi, "pass": lo < sf < hi}
            )
        header = ["t", "lower", "sf", "upper", "pass"]
    elif args.suite == "gamma":
        for r in verify_gamma_properties():
            rows.append(
                {
                    "kind": r.kind,
                    "T": r.T if r.T is not None else "",
                    "rho": r.rho,
                    "a": r.a,
                    "b": r.b,
                    "value": r.value,
                    "bound": r.bound,
                    "pass": r.ok,
                }
            )
        header = ["kind", "T", "rho", "a", "b", "value", "bound", "pass"]
    elif args.suite == "maxgap":
        for n in (2, 4, 16):
            stats = max_gap_stats(n, trials=args.trials, seed=args.seed)
            for eps in (0.2, 0.1):
                x1 = max_bound_threshold(n, eps)
                p1, se1 = stats.prob_max_le(x1)
                x2 = gap_bound_threshold(n, eps)
                p2, se2 = stats.prob_gap_ge(x2)
                rows.append(
                    {
                        "n": n,
                        "eps": eps,
                        "max_threshold": x1,
                        "p_max_le": p1,
                        "max_ok": p1 >= 1 - eps - 3 * se1,
                        "gap_threshold": x2,
                        "p_gap_ge": p2,
                        "gap_ok": p2 >= 1 - 2 * eps - 3 * se2,
                    }
                )
        header = [
            "n",
            "eps",
            "max_threshold",
            "p_max_le",
            "max_ok",
            "gap_threshold",
            "p_gap_ge",
            "gap_ok",
        ]
    else:
        raise InstanceError(f"unknown suite {args.suite!r}")
    if args.csv:
        emit_report(rows, args.csv, header, argv, seed=args.seed)
        if args.plot_script:
            x, y = {"cdf": ("t", "sf"), "gamma": ("rho", "value"), "maxgap": ("n", "p_gap_ge")}[args.suite]
            emit_plot_script(args.csv, args.plot_script, x=x, y=y)
    fails = [r for r in rows if r.get("pass") is False or r.get("max_ok") is False or r.get("gap_ok") is False]
    print(f"rows = {len(rows)} failures = {len(fails)}")
    return 0


def _cmd_report(args, caps, argv) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if not ln.startswith("#")]
    except OSError as exc:
        raise InstanceError(f"cannot read {args.infile}: {exc}") from exc
    if not lines:
        raise InstanceError("empty report")
    header = lines[0][1].split(",")
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",") if ln else []  # a blank line has no cells
        if len(cells) != len(header):
            raise ParseError(lineno, f"row has {len(cells)} cells, the header {len(header)}")
        rows.append(cells)
    emit_report(rows, args.out, header, argv, seed="-")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="gmdlab", description=__doc__)
    p.add_argument("--version", action="version", version=f"gmdlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="exact optimum of an instance file")
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--grid", default="half", help="pricing grid: half or geom:<eps>")
    solve.add_argument("--csv")

    approx = sub.add_parser("approx", help="randomized approximation batches")
    approx.add_argument("--in", dest="infile", required=True)
    approx.add_argument("--algo", required=True, choices=["gp4", "gmd4", "gmdlp"])
    approx.add_argument("--trials", type=int, default=1000)
    approx.add_argument("--seed", type=int, default=0)
    approx.add_argument("--rounds", type=int, default=2)
    approx.add_argument("--csv")
    approx.add_argument("--plot-script", dest="plot_script")

    red = sub.add_parser("reduce", help="labeled dicut DAG -> pricing instance")
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--M", type=int, default=10)
    red.add_argument("--out", required=True)
    red.add_argument("--expand", action="store_true", help="write budgets as integers")

    salp = sub.add_parser("salp", help="exact Sherali-Adams relaxation value")
    salp.add_argument("--in", dest="infile", required=True)
    salp.add_argument("--rounds", type=int, default=2)
    salp.add_argument("--grid", default="half")
    salp.add_argument("--csv")

    gap = sub.add_parser("gap", help="gap-instance pipeline with verified structure")
    gap.add_argument("--n", type=int, default=40)
    gap.add_argument("--T", type=int, default=2)
    gap.add_argument("--delta", type=int, default=4, help="target degree")
    gap.add_argument("--l", type=int, default=9)
    gap.add_argument("--mu", default="1/2")
    gap.add_argument("--kmax", type=int, default=3)
    gap.add_argument("--seed", type=int, default=0)
    gap.add_argument("--base", default="complete", help="complete, window, or file:<path>")
    gap.add_argument("--window", type=int, default=3)
    gap.add_argument("--window-p", type=float, default=0.5)
    gap.add_argument("--p-keep", dest="p_keep", default="")
    gap.add_argument("--out")
    gap.add_argument("--csv")

    sas = sub.add_parser("sasol", help="empirical pseudo-distribution by rounding")
    sas.add_argument("--in", dest="infile", required=True)
    sas.add_argument("--mu", default="1/2")
    sas.add_argument("--L", type=int, default=1)
    sas.add_argument("--k", type=int, default=2)
    sas.add_argument("--trials", type=int, default=10_000)
    sas.add_argument("--seed", type=int, default=0)
    sas.add_argument("--csv")

    dct = sub.add_parser("dict", help="dictatorship test instances and evaluation")
    dct.add_argument("--T", type=int, required=True)
    dct.add_argument("--R", type=int, default=1)
    dct.add_argument("--delta", default="", help="rational override like 1/2")
    dct.add_argument("--inner", default="", help="inner DAG instance file")
    dct.add_argument("--emit", default="instance", choices=["instance", "eval", "soundness"])
    dct.add_argument("--functions", default="")
    dct.add_argument("--out")
    dct.add_argument("--seed", type=int, default=0)
    dct.add_argument("--csv")

    gauss = sub.add_parser("gauss", help="Gaussian verification sweeps")
    gauss.add_argument("--suite", required=True, choices=["cdf", "gamma", "maxgap"])
    gauss.add_argument("--trials", type=int, default=100_000)
    gauss.add_argument("--seed", type=int, default=0)
    gauss.add_argument("--points", type=int, default=40)
    gauss.add_argument("--csv")
    gauss.add_argument("--plot-script", dest="plot_script")

    rep = sub.add_parser("report", help="re-emit a CSV through the standard writer")
    rep.add_argument("--in", dest="infile", required=True)
    rep.add_argument("--out", required=True)
    p.subcommands = sub.choices
    return p


_COMMANDS = {
    "solve": _cmd_solve,
    "approx": _cmd_approx,
    "reduce": _cmd_reduce,
    "salp": _cmd_salp,
    "gap": _cmd_gap,
    "sasol": _cmd_sasol,
    "dict": _cmd_dict,
    "gauss": _cmd_gauss,
    "report": _cmd_report,
}


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first command rather than at import."""
    return build_parser()


def run_command(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        caps = caps_from_env(Caps())
        return _COMMANDS[args.command](args, caps, list(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
