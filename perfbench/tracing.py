"""Span recording around the package's public layer functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``monodual`` module namespace that binds it (``cli`` binds ``discretize``
and ``verify_duality``, ``simulate`` binds ``discretize`` and
``dual_qmatrix``, the package root re-exports everything), so calls made
inside the package show up as child spans of their caller.  Spans live in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children.  Work counts are read from arguments
and results after the span has closed.  Layers are the package modules;
``_expr`` runs inside ``generator`` calls and counts as ``generator``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

def _rm_counts(args, kwargs, result):
    rm = args[0] if args else kwargs.get("rm")
    return {"states": rm.n_states, "nnz": len(rm.rates)}


def _from_dict_counts(args, kwargs, result):
    return {"states": result.n_states, "nnz": len(result.rates)}


def _discretize_counts(args, kwargs, result):
    return {"rates_out": len(result.rates)}


def _tabulate_counts(args, kwargs, result):
    return {"cells": len(result["x"]) * max(1, len(result.get("y", ())))}


def _survival_counts(args, kwargs, result):
    return {"replicates": result.reps}


def _duality_counts(args, kwargs, result):
    xs = {row["x"] for row in result.pairs}
    ys = {row["y"] for row in result.pairs}
    return {"replicates": result.reps * (len(xs) + len(ys))}


def _growth_counts(args, kwargs, result):
    return {"replicates": result.reps, "growth_replicates": result.reps,
            "escaped": result.escape_fraction * result.reps}


def _argv_value(argv, flag):
    for i, a in enumerate(argv):
        if a == flag and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return None


def _size(path):
    try:
        return os.path.getsize(path) if path else 0
    except OSError:
        return 0


def _cli_counts(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    return {
        "bytes_in": _size(_argv_value(argv, "--in")),
        "bytes_out": _size(_argv_value(argv, "--out")),
        "exit_nonzero": int(result != 0),
    }


# (module, function, counter) for every traced public function
TRACED = (
    ("qmatrix", "check_monotone", _rm_counts),
    ("qmatrix", "dual_qmatrix", _rm_counts),
    ("qmatrix", "transition_matrix", _rm_counts),
    ("qmatrix", "verify_duality", _rm_counts),
    ("qmatrix", "ratematrix_from_dict", _from_dict_counts),
    ("qmatrix", "ratematrix_to_dict", _rm_counts),
    ("generator", "model_from_dict", None),
    ("generator", "discretize", _discretize_counts),
    ("dualgen", "dual_levy", None),
    ("dualgen", "tabulate_dual", _tabulate_counts),
    ("simulate", "mc_survival", _survival_counts),
    ("simulate", "mc_duality_check", _duality_counts),
    ("simulate", "mc_growth_bound", _growth_counts),
    ("cli", "main", _cli_counts),
)


class Tracer:
    """Records spans [name, layer, parent, job, start, end, error, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def _wrap(self, layer, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:  # outside a job: input building, oracles
                return fn(*args, **kwargs)
            span = [name, layer, stack[-1] if stack else -1, self.job,
                    time.perf_counter(), 0.0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = 1
                raise
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[7] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every monodual namespace that binds a traced function."""
        modules = [m for k, m in sys.modules.items()
                   if k == "monodual" or k.startswith("monodual.")]
        for mod_name, fn_name, counter in TRACED:
            home = sys.modules[f"monodual.{mod_name}"]
            orig = getattr(home, fn_name)
            wrapped = self._wrap(mod_name, f"{mod_name}.{fn_name}", orig, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, parent, job, t0, t1, err, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "parent": parent,
                    "job": job, "start": t0, "end": t1, "error": err,
                    "counts": counts or {},
                }) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[2] >= 0:
            child[s[2]] += s[5] - s[4]
    return [s[5] - s[4] - c for s, c in zip(spans, child)]


def layer_metrics(spans, long_jobs, overhead_frac):
    """Per-layer metrics of a traced run, by the names BENCHMARK.json declares.

    ``long_jobs`` holds the ids of jobs whose horizon has lambda*t >= 100.
    """
    selfs = self_times(spans)
    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for s, st in zip(spans, selfs):
        name, layer, _, job, _, _, err, counts = s
        counts = counts or {}
        add(f"{layer}.calls", 1)
        add(f"{layer}.errors", err)
        add(f"{layer}.self_s", st)
        add(f"{name}_self_s", st)
        for k, v in counts.items():
            add(f"{layer}.{k}", v)
        if layer == "simulate" and job in long_jobs:
            add("simulate.long_horizon_s", st)

    def get(key):
        return acc.get(key, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    s = "s"
    n = "count"
    return {
        "qmatrix.check_monotone_s": (get("qmatrix.check_monotone_self_s"), s),
        "qmatrix.dual_qmatrix_s": (get("qmatrix.dual_qmatrix_self_s"), s),
        "qmatrix.transition_matrix_s": (get("qmatrix.transition_matrix_self_s"), s),
        "qmatrix.verify_duality_self_s": (get("qmatrix.verify_duality_self_s"), s),
        "qmatrix.io_s": (get("qmatrix.ratematrix_from_dict_self_s")
                         + get("qmatrix.ratematrix_to_dict_self_s"), s),
        "qmatrix.calls": (get("qmatrix.calls"), n),
        "qmatrix.states": (get("qmatrix.states"), n),
        "qmatrix.nnz": (get("qmatrix.nnz"), n),
        "qmatrix.errors": (get("qmatrix.errors"), n),
        "generator.model_from_dict_s": (get("generator.model_from_dict_self_s"), s),
        "generator.discretize_s": (get("generator.discretize_self_s"), s),
        "generator.rates_out": (get("generator.rates_out"), n),
        "generator.rates_per_s": (ratio(get("generator.rates_out"),
                                        get("generator.discretize_self_s")), "1/s"),
        "generator.calls": (get("generator.calls"), n),
        "generator.errors": (get("generator.errors"), n),
        "dualgen.dual_levy_s": (get("dualgen.dual_levy_self_s"), s),
        "dualgen.tabulate_dual_s": (get("dualgen.tabulate_dual_self_s"), s),
        "dualgen.cells": (get("dualgen.cells"), n),
        "dualgen.calls": (get("dualgen.calls"), n),
        "dualgen.errors": (get("dualgen.errors"), n),
        "simulate.mc_survival_s": (get("simulate.mc_survival_self_s"), s),
        "simulate.mc_duality_check_s": (get("simulate.mc_duality_check_self_s"), s),
        "simulate.mc_growth_bound_self_s": (get("simulate.mc_growth_bound_self_s"), s),
        "simulate.long_horizon_s": (get("simulate.long_horizon_s"), s),
        "simulate.replicates": (get("simulate.replicates"), n),
        "simulate.reps_per_s": (ratio(get("simulate.replicates"),
                                      get("simulate.self_s")), "1/s"),
        "simulate.escape_fraction": (ratio(get("simulate.escaped"),
                                           get("simulate.growth_replicates")), "ratio"),
        "simulate.calls": (get("simulate.calls"), n),
        "simulate.errors": (get("simulate.errors"), n),
        "cli.self_s": (get("cli.self_s"), s),
        "cli.bytes_in": (get("cli.bytes_in"), "bytes"),
        "cli.bytes_out": (get("cli.bytes_out"), "bytes"),
        "cli.calls": (get("cli.calls"), n),
        "cli.exit_nonzero": (get("cli.exit_nonzero"), n),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def layer_shares(spans):
    """Share of all traced self time spent in each layer."""
    totals = {}
    for s, st in zip(spans, self_times(spans)):
        totals[s[1]] = totals.get(s[1], 0.0) + st
    whole = sum(totals.values())
    return {k: v / whole for k, v in sorted(totals.items())} if whole > 0 else {}
