"""Reference answers for benchmark jobs, computed without the package.

Everything here is numpy and scipy on plain data: the benchmark's own
effective generator of a rate table, matrix exponentials of it through
``scipy.sparse.linalg.expm_multiply``, the lattice discretization of the
benchmark's model families from their closed-form tails, and the closed
form of their dual generator coefficients.  None of it imports the package
under test, so a job's answer is never checked by the layer that made it.

``REFERENCE_SHIFT`` (environment variable ``PERFBENCH_REFERENCE_SHIFT``,
default 0) is added to every reference value.  The benchmark's self-test
sets it to show that a corrupted oracle makes jobs fail.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

REFERENCE_SHIFT = float(os.environ.get("PERFBENCH_REFERENCE_SHIFT", "0"))

# Transition rows against the uniformized exponential.
ROW_ATOL = 1e-9
# Siegmund identity, relative to the largest exit rate.
DUAL_RTOL = 1e-9
# Discretized rates: adaptive quadrature in the package is held to
# epsrel 1e-10 / epsabs 1e-12 per bin.
RATE_RTOL = 1e-8
RATE_ATOL = 1e-10
# Dual generator tables: finite differences (step 1e-5) of quadrature-based
# tails; observed errors stay below 1e-10.
DUALGEN_ATOL = 1e-8
# Monte Carlo estimates must sit within this many 95% half-widths.
MC_HALF_WIDTHS = 4.0

_BALL_EPS = 1e-9


def effective_generator(chain: dict):
    """Dense generator and kill vector of a plain chain, per boundary policy.

    In-window jumps land where they point; out-of-window jumps are killed
    under "kill" and clamped to the nearest edge otherwise, a clamp onto
    the source itself being dropped; "absorb" then freezes both edges.
    """
    lo, hi = int(chain["lo"]), int(chain["hi"])
    n_states = hi - lo + 1
    arr = np.asarray(chain["rates"], dtype=float).reshape(-1, 3)
    src = arr[:, 0].astype(np.int64) - lo
    tgt = src + arr[:, 1].astype(np.int64)
    rate = arr[:, 2]
    inside = (tgt >= 0) & (tgt < n_states)
    q = np.zeros((n_states, n_states))
    kill = np.zeros(n_states)
    if chain["boundary"] == "kill":
        np.add.at(kill, src[~inside], rate[~inside])
        keep = inside
        tgt_c = tgt
    else:
        tgt_c = np.clip(tgt, 0, n_states - 1)
        keep = tgt_c != src
    np.add.at(q, (src[keep], tgt_c[keep]), rate[keep])
    diag = np.arange(n_states)
    q[diag, diag] = -(q.sum(axis=1) + kill)
    if chain["boundary"] == "absorb":
        q[0, :] = 0.0
        q[-1, :] = 0.0
    return q, kill


def max_exit_rate(chain: dict) -> float:
    q, _ = effective_generator(chain)
    return float(np.max(-np.diag(q), initial=0.0))


def expm_rows(chain: dict, t: float, rows) -> np.ndarray:
    """Rows ``rows`` (0-based) of exp(t Q), substochastic under killing."""
    q, _ = effective_generator(chain)
    n_states = q.shape[0]
    units = np.zeros((n_states, len(rows)))
    units[list(rows), np.arange(len(rows))] = 1.0
    cols = expm_multiply(sparse.csr_matrix(q.T) * float(t), units)
    return np.atleast_2d(cols.T) + REFERENCE_SHIFT


def siegmund_gap(chain: dict, dual: dict) -> float:
    """Largest violation of P(X_t >= y | x) = P(Y_t <= x | y) at the generator.

    With F[x, y] = 1{x >= y} the identity holds for all t exactly when
    Q F = F D^T, i.e. the tail sums of the forward rows equal the running
    sums of the dual rows.  Returned relative to the largest exit rate.
    """
    q, _ = effective_generator(chain)
    d, _ = effective_generator(dual)
    tails = np.flip(np.cumsum(np.flip(q, axis=1), axis=1), axis=1)  # [x, y]
    dual_cum = np.cumsum(d, axis=1)  # [y, x]
    gap = np.abs(tails - dual_cum.T + REFERENCE_SHIFT).max()
    scale = max(1.0, float(np.max(-np.diag(q))))
    return float(gap / scale)


# ---------------------------------------------------------------------------
# Model families in closed form


def _factor(p: dict, x):
    return 1.0 + p["alpha"] * np.tanh(x)


def _dfactor(p: dict, x):
    return p["alpha"] * (1.0 - np.tanh(x) ** 2)


def _upward_tail_coeff(p: dict) -> float:
    # mass of {y >= a} is coeff * e^(-beta a) per unit of state factor; a
    # closed tail in the document carries its own rounded coefficient
    return p.get("tail_c", p["c"] / p["beta"])


def discretize(model: dict, h: float, lo: int, hi: int, boundary: str = "absorb") -> dict:
    """The lattice chain of a benchmark model, from closed-form tails.

    Same scheme as the package documents: G/(2h^2) to both neighbours,
    |b|/h upwind, right bins [mh, mh+h) and left magnitude bins
    (mh-h, mh] of each kernel, compensated bins of nu (mh <= 1) pushing
    m times their mass onto the opposite neighbour, and the mass beyond
    the binned range lumped one offset further out.
    """
    case, p = model["case"], model["params"]
    ball = int(math.floor(1.0 / h + _BALL_EPS))
    rates: dict = {}

    def add(n, off, r):
        if r != 0.0:
            rates[(n, off)] = rates.get((n, off), 0.0) + float(r)

    for n in range(lo, hi + 1):
        x = n * h
        if case == "atom":
            add(n, 1, p["kappa"])
            continue
        if case == "diff_mu":
            g = p["g0"]
            add(n, 1, g / (2.0 * h * h))
            add(n, -1, g / (2.0 * h * h))
            bb = p["b1"] * math.tanh(x)
        else:
            bb = p["drift"]
        if bb != 0.0:
            add(n, 1 if bb > 0.0 else -1, abs(bb) / h)
        if case == "diff_mu":
            # uncompensated two-sided exponential, tails half * e^(-beta a)
            tail = lambda a: p["half"] * np.exp(-p["beta"] * a)
            k_right = hi - n
            m = np.arange(1, k_right + 1)
            for mm, c in zip(m, tail(m * h) - tail(m * h + h)):
                add(n, int(mm), c)
            add(n, k_right + 1, float(tail((k_right + 1) * h)))
            k_left = n - lo
            m = np.arange(1, k_left + 1)
            for mm, d in zip(m, tail(m * h - h) - tail(m * h)):
                add(n, -int(mm), d)
            add(n, -(k_left + 1), float(tail(k_left * h)))
            continue
        # compensated upward kernel A(x) * coeff * e^(-beta y) on y > 0
        coeff = float(_factor(p, x)) * _upward_tail_coeff(p)
        tail = lambda a: coeff * np.exp(-p["beta"] * a)
        k_right = max(hi - n, ball)
        m = np.arange(1, k_right + 1)
        for mm, c in zip(m, tail(m * h) - tail(m * h + h)):
            add(n, int(mm), c)
            if mm * h <= 1.0 + _BALL_EPS:
                add(n, -1, mm * c)
        add(n, k_right + 1, float(tail((k_right + 1) * h)))
    return {
        "lo": lo, "hi": hi, "boundary": boundary,
        "rates": [[n, m, r] for (n, m), r in sorted(rates.items())],
    }


def rate_mismatch(expected: dict, got_rates) -> str:
    """Empty when two rate lists agree entry by entry, else a description."""
    want = {(int(n), int(m)): float(r) + REFERENCE_SHIFT for n, m, r in expected["rates"]}
    have = {}
    for n, m, r in got_rates:
        key = (int(n), int(m))
        if key in have:
            return f"duplicate rate entry {key}"
        have[key] = float(r)
    for key in want.keys() | have.keys():
        a, b = want.get(key, 0.0), have.get(key, 0.0)
        if abs(a - b) > RATE_ATOL + RATE_RTOL * abs(a):
            return f"rate {key}: expected {a!r}, got {b!r}"
    return ""


def dualgen_mismatch(model: dict, table: dict, h: float, window) -> str:
    """Check a dual generator table of an upward model against closed forms.

    For a(x) times the exponential kernel the dual density is
    a(x-y) g(y) + a'(x-y) R(y), with g the kernel density and R its tail;
    the drift is -b; the correction is the integral over (0, 1] of
    y (nu - nu~)(x, y), here by 64-point Gauss-Legendre.
    """
    p = model["params"]
    xs = h * np.arange(window[0], window[1] + 1)
    ys = h * np.arange(1, int(math.ceil(4.0 / h)) + 1)
    if not np.allclose(table["x"], xs, rtol=0, atol=1e-12):
        return "x grid differs"
    if not np.allclose(table["y"], ys, rtol=0, atol=1e-12):
        return "y grid differs"
    beta, c = p["beta"], p["c"]
    coeff = _upward_tail_coeff(p)

    def nu(x, y):
        return _factor(p, x) * c * np.exp(-beta * y)

    def nu_tilde(x, y):
        u = x - y
        return _factor(p, u) * c * np.exp(-beta * y) + _dfactor(p, u) * coeff * np.exp(-beta * y)

    want = {
        "G": np.zeros_like(xs),
        "drift": np.full_like(xs, -p["drift"]),
        "nu_tilde": nu_tilde(xs[:, None], ys[None, :]),
    }
    nodes, weights = np.polynomial.legendre.leggauss(64)
    yq = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights
    want["correction"] = (
        (yq[None, :] * (nu(xs[:, None], yq[None, :]) - nu_tilde(xs[:, None], yq[None, :])))
        @ wq
    )
    for key, ref in want.items():
        got = np.asarray(table[key], dtype=float)
        err = np.abs(got - (ref + REFERENCE_SHIFT))
        if got.shape != ref.shape:
            return f"{key} has shape {got.shape}, expected {ref.shape}"
        if err.max() > DUALGEN_ATOL * (1.0 + np.abs(ref).max()):
            return f"{key} off by {err.max():.3g}"
    return ""


# ---------------------------------------------------------------------------
# Monte Carlo references


def survival_exact(chain: dict, x0: int, y: int, t: float) -> float:
    """P(X_t >= y and not killed | X_0 = x0)."""
    lo = int(chain["lo"])
    row = expm_rows(chain, t, [x0 - lo])[0] - REFERENCE_SHIFT
    return float(row[y - lo:].sum()) + REFERENCE_SHIFT


def abs_mean_exact(chain: dict, h: float, x0_index: int, t: float) -> float:
    """E|X_t| in real units for the chain started at lattice state x0_index."""
    lo = int(chain["lo"])
    row = expm_rows(chain, t, [x0_index - lo])[0] - REFERENCE_SHIFT
    states = np.arange(lo, int(chain["hi"]) + 1)
    return float(row @ np.abs(states * h)) + REFERENCE_SHIFT


def within(estimate: float, half_width: float, exact: float) -> bool:
    return abs(estimate - exact) <= MC_HALF_WIDTHS * half_width + 1e-12
