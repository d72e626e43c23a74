"""Span and counter recorder for the traced benchmark pass.

The recorder wraps public gmdlab functions from outside the package: each
target function is replaced at every module attribute that holds it, so
calls made through `from .x import f` bindings are timed as well as calls
through the defining module.  Nothing is wrapped unless `install` runs, so an
untraced pass executes the program unchanged.

A span's self time is its duration minus the time covered by the spans it
called.  Everything runs in one thread, so one stack of open spans is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


def _count_attr(metric, attr):
    def count(rec, args, kwargs, result):
        rec.add(metric, getattr(result, attr, None))
    return count


def _count_len(metric, *attrs):
    def count(rec, args, kwargs, result):
        obj = result
        for attr in attrs:
            obj = getattr(obj, attr, None)
        try:
            rec.add(metric, len(obj))
        except TypeError:
            pass
    return count


def _count_build_sa_lp(rec, args, kwargs, result):
    rec.add("salp.lp_variables", getattr(result, "num_variables", None))
    rec.add("salp.lp_constraints", getattr(result, "num_constraints", None))


def _count_consistency(rec, args, kwargs, result):
    rec.add("salp.identities", getattr(result, "identities_checked", None))
    _count_len("salp.violations", "violations")(rec, args, kwargs, result)


def _count_sasol(rec, args, kwargs, result):
    rec.add("sasol.trials", getattr(result, "trials", None))
    _count_len("sasol.table_entries", "solution", "values")(rec, args, kwargs, result)


def _count_csv_bytes(rec, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        rec.add("cli.csv_bytes", os.path.getsize(path))
    except (OSError, TypeError):
        pass


# (span name, defining module, function name, counter).  A span name may
# cover several functions, e.g. core.val times both value functions.
TARGETS = (
    ("core.val", "gmdlab.core", "val_gmd", None),
    ("core.val", "gmdlab.core", "val_gp", None),
    ("core.parse_instance", "gmdlab.core", "parse_instance", None),
    ("core.serialize_instance", "gmdlab.core", "serialize_instance", None),
    ("exact.opt_gmd", "gmdlab.exact", "opt_gmd", _count_attr("exact.opt_gmd.explored", "explored")),
    ("exact.opt_gp_grid", "gmdlab.exact", "opt_gp_grid",
     _count_attr("exact.opt_gp_grid.explored", "explored")),
    ("reduction.reduce_gmd_to_gp", "gmdlab.reduction", "reduce_gmd_to_gp", None),
    ("reduction.canonical_grid", "gmdlab.reduction", "canonical_grid", None),
    ("approx.run_trials", "gmdlab.approx", "run_trials", _count_attr("approx.trials", "trials")),
    ("simplex.simplex_max", "gmdlab.simplex", "simplex_max", None),
    ("salp.build_sa_lp", "gmdlab.salp", "build_sa_lp", _count_build_sa_lp),
    ("salp.solve_lp_exact", "gmdlab.salp", "solve_lp_exact", None),
    ("salp.check_sa_consistency", "gmdlab.salp", "check_sa_consistency", _count_consistency),
    ("graphs.shortest_cycle", "gmdlab.graphs", "shortest_cycle", None),
    ("gapgen.generate_base_dag", "gmdlab.gapgen", "generate_base_dag", None),
    ("gapgen.sparsify_pipeline", "gmdlab.gapgen", "sparsify_pipeline", None),
    ("gapgen.check_structural", "gmdlab.gapgen", "check_structural",
     _count_attr("gapgen.edges", "edge_count")),
    ("sasol.pairwise_rho", "gmdlab.sasol", "pairwise_rho", None),
    ("sasol.embed_vectors", "gmdlab.sasol", "embed_vectors", None),
    ("sasol.build_sa_solution", "gmdlab.sasol", "build_sa_solution", _count_sasol),
    ("cli.run_command", "gmdlab.cli", "run_command", None),
    ("cli.emit_report", "gmdlab.cli", "emit_report", _count_csv_bytes),
)

LAYERS = ("core", "exact", "reduction", "approx", "simplex", "salp", "graphs", "gapgen", "sasol", "cli")

# Per-layer metrics of one pass: (name, unit, better).  Counts come from
# result objects the program already returns and repeat exactly for one
# input set; times and rates do not.
METRICS = (
    ("exact.opt_gp_grid.self_s", "s", "lower"),
    ("exact.opt_gp_grid.explored", "count", "lower"),
    ("exact.grid_points_per_s", "1/s", "higher"),
    ("exact.opt_gmd.self_s", "s", "lower"),
    ("exact.opt_gmd.calls", "count", "lower"),
    ("exact.opt_gmd.explored", "count", "lower"),
    ("reduction.reduce_gmd_to_gp.self_s", "s", "lower"),
    ("reduction.canonical_grid.self_s", "s", "lower"),
    ("approx.run_trials.self_s", "s", "lower"),
    ("approx.trials", "count", "lower"),
    ("approx.trials_per_s", "1/s", "higher"),
    ("core.val.calls", "count", "lower"),
    ("core.val.self_s", "s", "lower"),
    ("core.parse_instance.self_s", "s", "lower"),
    ("core.serialize_instance.self_s", "s", "lower"),
    ("simplex.simplex_max.self_s", "s", "lower"),
    ("simplex.simplex_max.calls", "count", "lower"),
    ("salp.build_sa_lp.self_s", "s", "lower"),
    ("salp.lp_variables", "count", "lower"),
    ("salp.lp_constraints", "count", "lower"),
    ("salp.solve_lp_exact.self_s", "s", "lower"),
    ("salp.check_sa_consistency.self_s", "s", "lower"),
    ("salp.identities", "count", "lower"),
    ("salp.identities_per_s", "1/s", "higher"),
    ("salp.violations", "count", "lower"),
    ("graphs.shortest_cycle.calls", "count", "lower"),
    ("graphs.shortest_cycle.self_s", "s", "lower"),
    ("gapgen.generate_base_dag.self_s", "s", "lower"),
    ("gapgen.sparsify_pipeline.self_s", "s", "lower"),
    ("gapgen.check_structural.self_s", "s", "lower"),
    ("gapgen.edges", "count", "lower"),
    ("sasol.pairwise_rho.self_s", "s", "lower"),
    ("sasol.embed_vectors.self_s", "s", "lower"),
    ("sasol.build_sa_solution.self_s", "s", "lower"),
    ("sasol.trials_per_s", "1/s", "higher"),
    ("sasol.table_entries", "count", "lower"),
    ("cli.run_command.self_s", "s", "lower"),
    ("cli.emit_report.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + tuple(
    (f"{layer}.errors", "count", "lower") for layer in LAYERS
) + (
    ("trace.coverage", "frac", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# metric -> (count metric, span whose inclusive time divides it)
RATES = {
    "exact.grid_points_per_s": ("exact.opt_gp_grid.explored", "exact.opt_gp_grid"),
    "approx.trials_per_s": ("approx.trials", "approx.run_trials"),
    "salp.identities_per_s": ("salp.identities", "salp.check_sa_consistency"),
    "sasol.trials_per_s": ("sasol.trials", "sasol.build_sa_solution"),
}


class Recorder:
    """Spans and counters of one pass, kept in memory until `write_spans`."""

    def __init__(self):
        self.spans = []          # (id, parent, item, name, start, end, self, failed)
        self.counters = {}
        self.absent = []         # span names whose function was not found
        self.item = None         # name of the benchmark item now running
        self._stack = []         # [span id, time covered by child spans]

    def add(self, metric, value):
        if isinstance(value, int) and not isinstance(value, bool):
            self.counters[metric] = self.counters.get(metric, 0) + value

    def wrap(self, name, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(rec.spans) + len(rec._stack)
            frame = [span_id, 0.0]
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                rec._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                rec.spans.append(
                    (span_id, parent[0] if parent else None, rec.item, name,
                     start, end, end - start - frame[1], failed)
                )
            if count is not None:
                count(rec, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap each target at every gmdlab module attribute bound to it."""
        for name, module_name, attr, count in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gmdlab" or mod_name.startswith("gmdlab.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def summary(self, batch_start, batch_wall):
        """Per-layer metrics of this pass; absent functions read as 0."""
        calls, self_s, total_s = {}, {}, {}
        errors = dict.fromkeys(LAYERS, 0)
        covered = 0.0
        for _, _, _, name, start, end, own, failed in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            if failed:
                layer = name.split(".", 1)[0]
                errors[layer] = errors.get(layer, 0) + 1
            if start >= batch_start:
                covered += own
        out = {}
        for metric, _, _ in METRICS:
            if metric.endswith(".self_s"):
                span = metric[: -len(".self_s")]
                if span in LAYERS:
                    out[metric] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == span)
                else:
                    out[metric] = self_s.get(span, 0.0)
            elif metric.endswith(".calls"):
                out[metric] = calls.get(metric[: -len(".calls")], 0)
            elif metric.endswith(".errors"):
                out[metric] = errors.get(metric[: -len(".errors")], 0)
            elif metric in RATES:
                count, span = RATES[metric]
                elapsed = total_s.get(span, 0.0)
                out[metric] = self.counters.get(count, 0) / elapsed if elapsed > 0 else 0.0
            elif metric == "trace.coverage":
                out[metric] = covered / batch_wall if batch_wall > 0 else 0.0
            elif metric == "trace.overhead_s":
                continue  # needs an untraced pass; filled in by run.py
            else:
                out[metric] = self.counters.get(metric, 0)
        return out

    def write_spans(self, path):
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, item, name, start, end, own, failed in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "item": item, "name": name,
                    "start": start, "end": end, "self": own, "failed": failed,
                }) + "\n")
