"""Seeded job streams for the three benchmark workloads.

Every job's inputs are plain data (numbers, lists, JSON-ready dicts) drawn
from ``numpy.random.default_rng([seed, workload id, job index])``, so a job
is a pure function of the workload seed and its index and nothing here
imports the package under test.  The *kind* of each job (chain size, band,
horizon, kernel case, mesh) follows a fixed cycle of rounds, each round
interleaving the cost classes; the seed draws the coefficients.

Workloads:

* ``chain-duality``: banded monotone chains from the product family of the
  test suite, N in {200, 400, 800}, band in {1, 2, 4}, t in {0.5, 1, 2}.
* ``model-pipeline``: model JSON documents for five kernel cases, pushed
  through the command line (discretize, monotone, dual, and dualgen for
  upward-only models) at h in {0.1, 0.05} and 0.025 for closed tails.
* ``mc-verify``: Monte Carlo survival, duality and growth jobs on
  birth-death and banded chains (N in {41, 201}) with horizons chosen so
  that the largest exit rate times t is about 5, 50 and 200.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from oracle import discretize, max_exit_rate

WORKLOADS = ("chain-duality", "model-pipeline", "mc-verify")

# dualgen tabulates on its own coarse grid (x in [-0.5, 0.5], y in (0, 4])
# so that it stays a minor share of a model-pipeline job.
DUALGEN_H = 0.25
DUALGEN_WINDOW = (-2, 2)

BOUNDARIES = ("absorb", "reflect", "kill")
MODEL_CASES = ("dec_tail", "dec_dens", "dens_tail", "dens_expr", "diff_mu")
CLOSED_TAIL_CASES = ("dec_tail", "dens_tail", "diff_mu")
UPWARD_CASES = ("dec_tail", "dec_dens", "dens_tail", "dens_expr")

# Per-size parameters.  "tiny" only serves the benchmark's self-test.  The
# model-pipeline window is --window=-n:n with n = model_half_width / h.
SIZES = {
    "full": {
        "chain_n": (200, 400, 800),
        "model_hs": (0.1, 0.05),
        "model_fine_h": 0.025,
        "model_half_width": 2.0,
        "mc_n": (41, 201),
        "mc_reps": {5: 50_000, 50: 20_000, 200: 1_000},
        "mc_dual_reps": 20_000,
        "mc_growth_reps": {"atom": 50_000, "diffusion": 10_000},
    },
    "tiny": {
        "chain_n": (12, 20, 30),
        "model_hs": (0.5, 0.25),
        "model_fine_h": 0.2,
        "model_half_width": 1.0,
        "mc_n": (9, 15),
        "mc_reps": {5: 2_000, 50: 500, 200: 100},
        "mc_dual_reps": 1_000,
        "mc_growth_reps": {"atom": 2_000, "diffusion": 500},
    },
}


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    # index -1 is the warm-up job; shift so every entropy word is >= 0
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), index + 1])


# ---------------------------------------------------------------------------
# Chains (plain rate lists; (n, m, rate) with m the signed jump offset)


def product_chain(rng, n_states: int, band: int, lo: int, boundary: str) -> dict:
    """A monotone chain from the test suite's product family, at a fixed size.

    Up rates A(n) c_m with A nondecreasing and c nonincreasing, down rates
    B(n) d_m with B nonincreasing and d nonincreasing, plus free
    nearest-neighbour extras.  Rates stay inside the window.
    """
    hi = lo + n_states - 1
    band = int(min(band, n_states - 1))
    a_f = np.sort(rng.uniform(0.0, 3.0, size=n_states))
    b_f = np.sort(rng.uniform(0.0, 3.0, size=n_states))[::-1]
    c_s = np.sort(rng.uniform(0.0, 1.5, size=band))[::-1]
    d_s = np.sort(rng.uniform(0.0, 1.5, size=band))[::-1]
    extra_up = rng.random(n_states) < 0.5
    extra_up_r = rng.uniform(0.0, 2.0, size=n_states)
    extra_dn = rng.random(n_states) < 0.5
    extra_dn_r = rng.uniform(0.0, 2.0, size=n_states)
    rates = {}
    for i, n in enumerate(range(lo, hi + 1)):
        for m in range(1, band + 1):
            if n + m > hi:
                break
            rates[(n, m)] = float(a_f[i] * c_s[m - 1])
        for m in range(1, band + 1):
            if n - m < lo:
                break
            rates[(n, -m)] = float(b_f[i] * d_s[m - 1])
        if n + 1 <= hi and extra_up[i]:
            rates[(n, 1)] = rates.get((n, 1), 0.0) + float(extra_up_r[i])
        if n - 1 >= lo and extra_dn[i]:
            rates[(n, -1)] = rates.get((n, -1), 0.0) + float(extra_dn_r[i])
    return {
        "lo": lo, "hi": hi, "boundary": boundary,
        "rates": [[n, m, r] for (n, m), r in sorted(rates.items()) if r > 0.0],
    }


def homogeneous_chain(rng, n_states: int, band: int, lo: int, boundary: str) -> dict:
    """A monotone chain whose rates do not depend on the state.

    Up rates c_m and down rates d_m, nonincreasing in the jump size m,
    truncated at the window edges (the product family with constant
    factors).  Away from the edges every state has the same exit rate, so
    the jumps a replicate makes by time t, and a Monte Carlo job's cost,
    depend on lambda*t alone.  ``band=1`` gives a birth-death chain.
    """
    hi = lo + n_states - 1
    c_s = np.sort(rng.uniform(0.3, 1.5, size=band))[::-1]
    d_s = np.sort(rng.uniform(0.3, 1.5, size=band))[::-1]
    rates = []
    for n in range(lo, hi + 1):
        rates += [[n, -m, float(d_s[m - 1])] for m in range(1, band + 1) if n - m >= lo]
        rates += [[n, m, float(c_s[m - 1])] for m in range(1, band + 1) if n + m <= hi]
    return {"lo": lo, "hi": hi, "boundary": boundary, "rates": rates}


# ---------------------------------------------------------------------------
# Models: each case carries its JSON document and the closed-form
# parameters the oracle reads; numbers are rounded before use so the two
# agree exactly.


def _num(x: float) -> float:
    return float(f"{x:.6f}")


def model_case(rng, case: str, beta_range=(0.8, 1.5)) -> dict:
    """A model document for one kernel case, with its closed-form parameters.

    Upward kernels are a(x) = 1 + alpha tanh(x) times c e^(-beta y) on y > 0;
    the diffusion case has G = g0, b = b1 tanh(x) and a two-sided jump
    measure kappa (beta/2) e^(-beta |y|) without compensation.
    """
    p = {
        "alpha": _num(rng.uniform(0.3, 0.7)),
        "beta": _num(rng.uniform(*beta_range)),
        "c": _num(rng.uniform(0.6, 1.4)),
        "drift": _num(rng.uniform(-0.5, 0.5)),
    }
    a, b, c, d = p["alpha"], p["beta"], p["c"], p["drift"]
    fac = f"(1+{a}*tanh(x))"
    if case in ("dec_tail", "dec_dens"):
        base = {"density": f"{c}*e^(-{b}*y)", "support_sign": "positive"}
        if case == "dec_tail":
            base["tail"] = f"{_num(c / b)}*e^(-{b}*a)"
            p["tail_c"] = _num(c / b)
        doc = {"b": f"{d}", "nu": {"case": "decomposable", "a": f"1+{a}*tanh(x)",
                                    "base": base}}
    elif case in ("dens_tail", "dens_expr"):
        nu = {"case": "density", "density": f"{fac}*{c}*e^(-{b}*y)",
              "support_sign": "positive"}
        if case == "dens_tail":
            nu["right_tail"] = f"{fac}*{_num(c / b)}*e^(-{b}*a)"
            p["tail_c"] = _num(c / b)
        doc = {"b": f"{d}", "nu": nu}
    elif case == "diff_mu":
        p["g0"] = _num(rng.uniform(0.6, 1.4))
        p["b1"] = _num(rng.uniform(0.5, 1.5))
        p["kappa"] = _num(rng.uniform(0.2, 0.5))
        half = _num(0.5 * p["kappa"])
        p["half"] = half
        doc = {
            "G": f"{p['g0']}",
            "b": f"{p['b1']}*tanh(x)",
            "mu": {"case": "decomposable", "a": "1", "base": {
                "density": f"{_num(0.5 * p['kappa'] * b)}*e^(-{b}*abs(y))",
                "tail": f"{half}*e^(-{b}*a)",
                "left_tail": f"{half}*e^(-{b}*a)",
            }},
        }
    else:
        raise ValueError(f"unknown model case {case!r}")
    doc["growth_c"] = 3.0
    return {"case": case, "params": p, "doc": doc}


def atom_growth_model(rng) -> dict:
    """Upward unit jumps at rate kappa: the test suite's growth model."""
    kappa = _num(rng.uniform(0.5, 1.0))
    doc = {"mu": {"case": "decomposable", "a": f"{kappa}",
                  "base": {"atoms": [{"y": 1.0, "mass": 1.0}]}},
           "growth_c": 1.0}
    return {"case": "atom", "params": {"kappa": kappa}, "doc": doc}


# ---------------------------------------------------------------------------
# Job specs and streams


def _interleave(classes):
    """Spread each class evenly over one round, so every prefix mixes them."""
    keyed = [
        ((j + 0.5) / len(cls), k, spec)
        for k, cls in enumerate(classes) for j, spec in enumerate(cls)
    ]
    return [spec for _, _, spec in sorted(keyed, key=lambda e: e[:2])]


def cycle(workload: str, size: str = "full") -> list:
    """The fixed sequence of job kinds, a whole number of rounds long.

    The stream repeats this sequence; runs stop at round boundaries
    (every ``round_length`` jobs), so every run measures whole rounds.
    """
    z = SIZES[size]
    if workload == "chain-duality":
        # A round runs the smallest size on the whole (band, t) grid, three
        # middle-size jobs and one largest-size job; rounds rotate through
        # the grid for the larger sizes, so nine rounds cover it.
        bands, horizons = (1, 2, 4), (0.5, 1.0, 2.0)
        grid = list(itertools.product(bands, horizons))
        small, mid, large = z["chain_n"]
        out = []
        for r in range(len(grid)):
            classes = [
                [(small, b, t) for b, t in grid],
                [(mid, bands[j], horizons[(j + r) % 3]) for j in range(3)],
                [(large, *grid[r])],
            ]
            out += [{"kind": "chain", "n": n, "band": b, "t": t}
                    for n, b, t in _interleave(classes)]
        return out
    if workload == "model-pipeline":
        coarse, mid = z["model_hs"]
        classes = [
            [{"kind": "model", "case": c, "h": coarse} for c in MODEL_CASES],
            [{"kind": "model", "case": c, "h": mid} for c in MODEL_CASES[1:] + MODEL_CASES[:1]],
            [{"kind": "model", "case": c, "h": z["model_fine_h"]} for c in CLOSED_TAIL_CASES],
        ]
        return _interleave(classes)
    if workload == "mc-verify":
        small, large = z["mc_n"]
        survival = [
            {"kind": "survival", "chain": ch, "n": n, "lam_t": lt}
            for lt in (5, 50, 200) for n in (small, large) for ch in ("bd", "band")
        ]
        short = [s for s in survival if s["lam_t"] < 100]
        long_ = [s for s in survival if s["lam_t"] >= 100]
        other = [
            {"kind": "duality", "chain": "bd", "n": small, "lam_t": 5, "pairs": 2},
            {"kind": "growth", "model": "diffusion", "lam_t": 100},
            {"kind": "duality", "chain": "band", "n": small, "lam_t": 5, "pairs": 3},
            {"kind": "growth", "model": "atom", "lam_t": 1},
        ]
        return _interleave([short, long_, other])
    raise ValueError(f"unknown workload {workload!r}")


def round_length(workload: str) -> int:
    return 13 if workload == "chain-duality" else len(cycle(workload))


# Job time of one round at full size with one BLAS thread on the machine
# the benchmark was built on (2-core x86-64, Python 3.11, numpy 2.4,
# scipy 1.17).  A run of ``seconds`` runs round(seconds / this) whole
# rounds, so every run of a given length runs the same jobs, and the
# parent and child of a comparison do the same work.
NOMINAL_ROUND_S = {"chain-duality": 5.3, "model-pipeline": 4.45, "mc-verify": 5.2}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


WARMUP = {
    "chain-duality": lambda z: {"kind": "chain", "n": z["chain_n"][0], "band": 2, "t": 1.0},
    "model-pipeline": lambda z: {"kind": "model", "case": "dec_tail", "h": z["model_hs"][0]},
    "mc-verify": lambda z: {"kind": "survival", "chain": "bd", "n": z["mc_n"][0], "lam_t": 5},
}


def make_job(workload: str, seed: int, index: int, size: str = "full") -> dict:
    """Inputs of job ``index`` (-1 is the warm-up job) as plain data."""
    z = SIZES[size]
    if index < 0:
        spec = WARMUP[workload](z)
    else:
        kinds = cycle(workload, size)
        spec = kinds[index % len(kinds)]
    rng = _rng(seed, workload, index)
    job = {"index": index, "spec": dict(spec)}
    kind = spec["kind"]
    if kind == "chain":
        lo = int(rng.integers(-6, 4))
        boundary = BOUNDARIES[int(rng.integers(0, 3))]
        chain = product_chain(rng, spec["n"], spec["band"], lo, boundary)
        # Scaling keeps the chain monotone and fixes lambda*t, the number of
        # uniformization terms, so a job's cost depends on its kind only.
        scale = 2.5 * (spec["band"] + 1) / max_exit_rate(chain)
        chain["rates"] = [[n, m, r * scale] for n, m, r in chain["rates"]]
        job["chain"] = chain
        job["t"] = spec["t"]
        n = spec["n"]
        job["rows"] = sorted({0, n - 1, *map(int, rng.integers(0, n, size=2))})
    elif kind == "model":
        h = spec["h"]
        half = int(round(z["model_half_width"] / h))
        job["model"] = model_case(rng, spec["case"])
        job["h"] = h
        job["window"] = [-half, half]
        job["dualgen"] = spec["case"] in UPWARD_CASES
    elif kind in ("survival", "duality"):
        # reflecting walls keep every path jumping until the horizon, so
        # lambda*t is the work a replicate does
        n = spec["n"]
        lo = int(rng.integers(-5, 6))
        chain = homogeneous_chain(rng, n, 1 if spec["chain"] == "bd" else 3, lo, "reflect")
        job["chain"] = chain
        lam = max_exit_rate(chain)
        job["t"] = float(spec["lam_t"] / lam)
        mid = lo + n // 2
        if kind == "survival":
            spread = max(1, int(round(0.3 * math.sqrt(spec["lam_t"]))))
            job["x0"] = mid
            job["y"] = min(lo + n - 1, mid + int(rng.integers(0, spread + 1)))
            job["reps"] = z["mc_reps"][spec["lam_t"]]
        else:
            offs = rng.integers(-2, 3, size=(spec["pairs"], 2))
            job["pairs"] = [[mid + int(a), mid + int(b)] for a, b in offs]
            job["reps"] = z["mc_dual_reps"]
    elif kind == "growth":
        if spec["model"] == "atom":
            job["model"] = atom_growth_model(rng)
            job["lattice"] = {"h": 1.0, "lo": 0, "hi": 60, "boundary": "absorb"}
            job["x0"] = 5.0
            job["t"] = 1.0
            job["c"] = 1.0
        else:
            # short jumps keep escapes from the +-8 window far below the
            # 0.1% that mc_growth_bound refuses
            model = model_case(rng, "diff_mu", beta_range=(2.0, 3.0))
            model["doc"]["growth_c"] = 1.0
            job["model"] = model
            job["lattice"] = {"h": 0.1, "lo": -80, "hi": 80, "boundary": "absorb"}
            job["x0"] = 0.0
            job["c"] = 1.0
            lat = job["lattice"]
            chain = discretize(model, lat["h"], lat["lo"], lat["hi"], lat["boundary"])
            job["t"] = float(spec["lam_t"] / max_exit_rate(chain))
        job["reps"] = z["mc_growth_reps"][spec["model"]]
    if kind in ("survival", "duality", "growth"):
        job["mc_seed"] = int(rng.integers(0, 2**31))
    return job


def input_digest(workload: str, seed: int, size: str = "full") -> str:
    """SHA-256 of the warm-up job and one full cycle of job inputs.

    Jobs are pure functions of (workload, seed, index), and later cycles
    use the same kinds with fresh draws, so this prefix identifies the
    stream a run measured.
    """
    h = hashlib.sha256()
    for i in range(-1, len(cycle(workload, size))):
        job = make_job(workload, seed, i, size)
        h.update(json.dumps(job, sort_keys=True).encode())
    return h.hexdigest()
