"""One benchmark job: build its library inputs, run it, check its answer.

``prepare`` and ``check`` run outside the timed region; ``run`` is what a
job costs.  Library functions are always looked up on their module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracle
from monodual import cli, generator, qmatrix, simulate
from workloads import DUALGEN_H, DUALGEN_WINDOW


def _ratematrix(chain: dict):
    rates = {(int(n), int(m)): float(r) for n, m, r in chain["rates"]}
    return qmatrix.RateMatrix(chain["lo"], chain["hi"], chain["boundary"], rates)


def _plain(rm) -> dict:
    return {"lo": rm.lo, "hi": rm.hi, "boundary": rm.boundary,
            "rates": [[n, m, r] for (n, m), r in rm.rates.items()]}


def _plain_doc(doc: dict) -> dict:
    return {"lo": doc["lo"], "hi": doc["hi"], "boundary": doc["boundary"],
            "rates": [[e["n"], e["m"], e["rate"]] for e in doc["rates"]]}


class ChainDuality:
    """check_monotone("both") -> dual_qmatrix -> transition_matrix -> verify_duality."""

    def prepare(self, job):
        return {"rm": _ratematrix(job["chain"]), "t": job["t"]}

    def run(self, ctx):
        rm, t = ctx["rm"], ctx["t"]
        mono = qmatrix.check_monotone(rm, method="both")
        dual = qmatrix.dual_qmatrix(rm)
        tm = qmatrix.transition_matrix(rm, t)
        rep = qmatrix.verify_duality(rm, t, dual=dual)
        return {"mono": mono, "dual": dual, "tm": tm, "rep": rep}

    def check(self, job, ctx, out):
        if not (out["mono"].ok and out["mono"].agreement):
            return "monotonicity routes disagree or reject a monotone chain"
        if not out["rep"].ok:
            return f"verify_duality not ok: sup_margin={out['rep'].sup_margin!r}"
        rows = job["rows"]
        ref = oracle.expm_rows(job["chain"], job["t"], rows)
        err = float(np.abs(out["tm"].P[rows] - ref).max())
        if err > oracle.ROW_ATOL:
            return f"transition rows off by {err:.3g}"
        gap = oracle.siegmund_gap(job["chain"], _plain(out["dual"]))
        if gap > oracle.DUAL_RTOL:
            return f"dual breaks the Siegmund identity by {gap:.3g}"
        return ""


class ModelPipeline:
    """Model JSON -> discretize -> monotone -> dual (-> dualgen), through cli.main."""

    def __init__(self, workdir):
        self.paths = {k: os.path.join(workdir, f"{k}.json")
                      for k in ("model", "chain", "mono", "dual", "table")}

    def prepare(self, job):
        p = self.paths
        h = repr(job["h"])
        window = "--window={}:{}".format(*job["window"])
        steps = [
            ["discretize", "--in", p["model"], "--h", h, window, "--out", p["chain"]],
            ["monotone", "--in", p["chain"], "--out", p["mono"]],
            ["dual", "--in", p["chain"], "--out", p["dual"]],
        ]
        if job["dualgen"]:
            steps.append(["dualgen", "--in", p["model"], "--h", repr(DUALGEN_H),
                          "--window={}:{}".format(*DUALGEN_WINDOW), "--out", p["table"]])
        return {"doc": job["model"]["doc"], "steps": steps}

    def run(self, ctx):
        with open(self.paths["model"], "w", encoding="utf-8") as fh:
            json.dump(ctx["doc"], fh)
        codes = []
        for argv in ctx["steps"]:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        return {"codes": codes}

    def check(self, job, ctx, out):
        if out["codes"] != [0] * len(ctx["steps"]):
            return f"exit codes {out['codes']}"
        p = self.paths
        lo, hi = job["window"]
        with open(p["chain"], encoding="utf-8") as fh:
            chain = _plain_doc(json.load(fh))
        if (chain["lo"], chain["hi"], chain["boundary"]) != (lo, hi, "absorb"):
            return "emitted chain has the wrong window or boundary"
        want = oracle.discretize(job["model"], job["h"], lo, hi)
        bad = oracle.rate_mismatch(want, chain["rates"])
        if bad:
            return f"discretized {bad}"
        with open(p["mono"], encoding="utf-8") as fh:
            mono = json.load(fh)["report"]
        if not (mono["ok"] and mono.get("agreement") is True):
            return "monotone report not ok or routes disagree"
        with open(p["dual"], encoding="utf-8") as fh:
            dual = _plain_doc(json.load(fh))
        gap = oracle.siegmund_gap(chain, dual)
        if gap > oracle.DUAL_RTOL:
            return f"dual breaks the Siegmund identity by {gap:.3g}"
        if job["dualgen"]:
            with open(p["table"], encoding="utf-8") as fh:
                table = json.load(fh)
            bad = oracle.dualgen_mismatch(job["model"], table, DUALGEN_H, DUALGEN_WINDOW)
            if bad:
                return f"dualgen {bad}"
        return ""


class MCVerify:
    """mc_survival, mc_duality_check and mc_growth_bound, single-threaded."""

    def prepare(self, job):
        kind = job["spec"]["kind"]
        if kind == "growth":
            lat = job["lattice"]
            return {"job": job, "model": generator.model_from_dict(job["model"]["doc"]),
                    "lattice": generator.Lattice(lat["h"], lat["lo"], lat["hi"],
                                                 lat["boundary"])}
        return {"job": job, "rm": _ratematrix(job["chain"])}

    def run(self, ctx):
        job = ctx["job"]
        kind = job["spec"]["kind"]
        seed, reps, t = job["mc_seed"], job["reps"], job["t"]
        if kind == "survival":
            return simulate.mc_survival(ctx["rm"], job["x0"], job["y"], t, reps, seed,
                                        threads=1)
        if kind == "duality":
            return simulate.mc_duality_check(ctx["rm"], job["pairs"], t, reps, seed,
                                             threads=1)
        return simulate.mc_growth_bound(ctx["model"], ctx["lattice"], job["x0"], t,
                                        job["c"], reps, seed, threads=1)

    def check(self, job, ctx, out):
        kind = job["spec"]["kind"]
        t = job["t"]
        if kind == "survival":
            exact = oracle.survival_exact(job["chain"], job["x0"], job["y"], t)
            if not oracle.within(out.value, out.half_width, exact):
                return f"survival {out.value!r} +- {out.half_width!r}, exact {exact!r}"
            return ""
        if kind == "duality":
            for row in out.pairs:
                exact = oracle.survival_exact(job["chain"], row["x"], row["y"], t)
                for side in ("forward", "dual"):
                    est, hw = row[f"p_{side}"], row[f"half_width_{side}"]
                    if not oracle.within(est, hw, exact):
                        return f"{side} side {est!r} +- {hw!r}, exact {exact!r}"
            return ""
        lat = job["lattice"]
        chain = oracle.discretize(job["model"], lat["h"], lat["lo"], lat["hi"],
                                  lat["boundary"])
        x0_index = int(round(job["x0"] / lat["h"]))
        exact = oracle.abs_mean_exact(chain, lat["h"], x0_index, t)
        if not out.ok:
            return f"growth bound reported violated: {out.value!r} > {out.bound!r}"
        if not oracle.within(out.value, out.half_width, exact):
            return f"E|X_t| {out.value!r} +- {out.half_width!r}, exact {exact!r}"
        return ""


def runner(workload: str, workdir: str):
    if workload == "chain-duality":
        return ChainDuality()
    if workload == "model-pipeline":
        return ModelPipeline(workdir)
    return MCVerify()
