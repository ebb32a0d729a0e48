"""Monte Carlo verification of duality identities and growth bounds.

All randomness comes from counter-based Philox streams keyed by
(seed, purpose salt), so every estimate is a pure function of its seed.
A run draws one block of uniforms per start state up front; replicate r
owns row r of the block, and each lockstep iteration of the jump loop
consumes two fixed columns (waiting time and target).  A replicate's
trajectory therefore depends only on its own row, which makes results
bit-identical however the replicates are chunked across threads.  The
rare replicate that exhausts its row continues on a private stream keyed
by (seed, salt + r << 32); salts occupy the low 16 bits and per-start
offsets the next 16, so the three key ranges never collide.

Estimates carry 95% confidence half-widths: normal intervals for means,
with a Wilson fallback for proportions too close to 0 or 1 for the
normal approximation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputFormatError, WindowEscape
from .generator import Lattice, LevyModel, discretize
from .qmatrix import RateMatrix, dual_qmatrix, effective_generator

SALT_SURVIVAL = 1
SALT_DUAL_X = 2
SALT_DUAL_Y = 3
SALT_GROWTH = 4
SALT_PATH = 5

Z_95 = 1.959963984540054
DUALITY_Z_LIMIT = 3.0
ESCAPE_LIMIT = 1e-3

_BLOCK_COL_CAP = 256
_SUBCHUNK_ROWS = 25000


@dataclass(frozen=True)
class PathSample:
    """One trajectory: jump times and the states held from each time.

    stopped means the path halted before t_end, either absorbed in a
    zero-rate state or killed; killed distinguishes the second case.
    """

    times: np.ndarray
    states: np.ndarray
    stopped: bool
    killed: bool
    seed: int

    def to_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "states": [int(s) for s in self.states],
            "stopped": self.stopped,
            "killed": self.killed,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MCEstimate:
    value: float
    half_width: float
    reps: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DualityMCReport:
    ok: bool
    t: float
    reps: int
    seed: int
    z_limit: float
    max_abs_z: float
    pairs: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class GrowthMCReport:
    ok: bool
    value: float
    half_width: float
    bound: float
    c: float
    t: float
    x0: float
    reps: int
    seed: int
    escape_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


class _Dynamics:
    """Exit rates and cumulative jump distributions of a rate matrix."""

    def __init__(self, rm: RateMatrix):
        q, kill = effective_generator(rm)
        n = q.shape[0]
        self.lo = rm.lo
        self.n_states = n
        self.rates = -np.diag(q).copy()
        prob = q.copy()
        prob[np.arange(n), np.arange(n)] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            prob = np.where(self.rates[:, None] > 0.0, prob / self.rates[:, None], 0.0)
            kill_p = np.where(self.rates > 0.0, kill / self.rates, 0.0)
        cum = np.cumsum(np.hstack([prob, kill_p[:, None]]), axis=1)
        cum[:, -1] = 1.0
        self.cum = cum
        self.max_rate = float(self.rates.max()) if n else 0.0

    def index_of(self, state: int) -> int:
        idx = int(state) - self.lo
        if idx < 0 or idx >= self.n_states:
            raise InputFormatError(
                f"state {state} outside window [{self.lo}, {self.lo + self.n_states - 1}]"
            )
        return idx


def _block_columns(dyn: _Dynamics, t_end: float) -> int:
    lam_t = dyn.max_rate * t_end
    cols = 2 * int(math.ceil(lam_t + 6.0 * math.sqrt(lam_t + 1.0) + 20.0))
    return min(cols, _BLOCK_COL_CAP)


def _finish_scalar(
    dyn: _Dynamics,
    state: int,
    tnow: float,
    t_end: float,
    gen: np.random.Generator,
    path: Optional[List[Tuple[float, int]]] = None,
) -> Tuple[int, bool, bool]:
    """Run one replicate to t_end on its private stream.

    Returns the final state index and whether the run was killed or hit a
    window edge.  ``path``, when given, gets (time, state) after each jump;
    a kill keeps the state it left.
    """
    killed = False
    hit = False
    n = dyn.n_states
    r = dyn.rates[state]
    while r > 0.0:
        u1 = gen.random()
        u2 = gen.random()
        dt = np.inf if u1 <= 0.0 else -math.log(u1) / r
        if tnow + dt > t_end:
            break
        tnow += dt
        idx = int(np.searchsorted(dyn.cum[state], u2, side="right"))
        if idx >= n:
            killed = True
            hit = True
        else:
            state = idx
            hit = hit or idx == 0 or idx == n - 1
        if path is not None:
            path.append((tnow, state))
        if killed:
            break
        r = dyn.rates[state]
    return state, killed, hit


def _run_rows(
    dyn: _Dynamics,
    start_index: int,
    t_end: float,
    block: np.ndarray,
    rows: np.ndarray,
    seed: int,
    salt: int,
    out_state: np.ndarray,
    out_killed: np.ndarray,
    out_hit: np.ndarray,
) -> None:
    """Evolve the given block rows in lockstep, writing results in place."""
    n = dyn.n_states
    cols = block.shape[1]
    for s0 in range(0, rows.size, _SUBCHUNK_ROWS):
        sub = rows[s0:s0 + _SUBCHUNK_ROWS]
        m = sub.size
        states = np.full(m, start_index, dtype=np.int64)
        tnow = np.zeros(m)
        killed = np.zeros(m, dtype=bool)
        hit = np.zeros(m, dtype=bool)
        active = dyn.rates[states] > 0.0
        if start_index == 0 or start_index == n - 1:
            hit[:] = True
        col = 0
        while active.any():
            if col + 1 >= cols:
                # the block is exhausted; finish stragglers on private streams
                for i in np.flatnonzero(active):
                    key = [seed, salt + (int(sub[i]) << 32)]
                    gen = np.random.Generator(np.random.Philox(key=key))
                    st, kl, ht = _finish_scalar(
                        dyn, int(states[i]), float(tnow[i]), t_end, gen
                    )
                    states[i] = st
                    killed[i] = kl
                    hit[i] = hit[i] or ht
                break
            u1 = block[sub, col]
            u2 = block[sub, col + 1]
            col += 2
            r = dyn.rates[states]
            with np.errstate(divide="ignore"):
                dt = np.where(u1 > 0.0, -np.log(u1), np.inf)
            dt = np.where(r > 0.0, dt / np.where(r > 0.0, r, 1.0), np.inf)
            tnew = tnow + dt
            jump = active & (tnew <= t_end)
            if jump.any():
                js = states[jump]
                idx = (u2[jump, None] > dyn.cum[js]).sum(axis=1)
                kflag = idx >= n
                tnow[jump] = tnew[jump]
                states[jump] = np.where(kflag, js, idx)
                killed[jump] |= kflag
                hit[jump] |= kflag | (idx == 0) | (idx == n - 1)
            active &= jump
            active &= ~killed
            active &= dyn.rates[states] > 0.0
        out_state[sub] = states
        out_killed[sub] = killed
        out_hit[sub] = hit


def _simulate(
    rm_or_dyn,
    start_state: int,
    t_end: float,
    reps: int,
    seed: int,
    salt: int,
    threads: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final states, kill flags, and edge-visit flags for all replicates."""
    dyn = rm_or_dyn if isinstance(rm_or_dyn, _Dynamics) else _Dynamics(rm_or_dyn)
    if reps <= 0:
        raise InputFormatError(f"need a positive replicate count, got {reps}")
    if t_end < 0.0 or not math.isfinite(t_end):
        raise InputFormatError(f"bad horizon {t_end!r}")
    if threads < 1:
        raise InputFormatError(f"bad thread count {threads}")
    start_index = dyn.index_of(start_state)
    cols = _block_columns(dyn, t_end)
    gen = np.random.Generator(np.random.Philox(key=[seed, salt]))
    block = gen.random((reps, cols))
    out_state = np.empty(reps, dtype=np.int64)
    out_killed = np.empty(reps, dtype=bool)
    out_hit = np.empty(reps, dtype=bool)
    chunks = [c for c in np.array_split(np.arange(reps), threads) if c.size]
    if threads == 1 or len(chunks) == 1:
        for chunk in chunks:
            _run_rows(dyn, start_index, t_end, block, chunk, seed, salt,
                      out_state, out_killed, out_hit)
    else:
        # the chunk split follows `threads`, so results do not depend on how
        # many of the chunks run at once
        workers = min(len(chunks), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_rows, dyn, start_index, t_end, block, chunk,
                            seed, salt, out_state, out_killed, out_hit)
                for chunk in chunks
            ]
            for fut in futures:
                fut.result()
    return out_state + dyn.lo, out_killed, out_hit


def _proportion_ci(hits: np.ndarray, reps: int) -> Tuple[float, float]:
    p = float(np.mean(hits))
    if p * (1.0 - p) * reps >= 10.0:
        half = Z_95 * math.sqrt(p * (1.0 - p) / reps)
    else:
        # Wilson interval half-width; the point estimate stays at p
        z2 = Z_95 * Z_95
        denom = 1.0 + z2 / reps
        half = (Z_95 / denom) * math.sqrt(
            p * (1.0 - p) / reps + z2 / (4.0 * reps * reps)
        )
    return p, half


def sample_path(rm: RateMatrix, x0: int, t_end: float, seed: int) -> PathSample:
    """Draw one trajectory of the chain from state x0 up to time t_end."""
    dyn = _Dynamics(rm)
    idx = dyn.index_of(x0)
    if t_end < 0.0 or not math.isfinite(t_end):
        raise InputFormatError(f"bad horizon {t_end!r}")
    gen = np.random.Generator(np.random.Philox(key=[seed, SALT_PATH]))
    path = [(0.0, idx)]
    _, killed, _ = _finish_scalar(dyn, idx, 0.0, t_end, gen, path)
    times, states = zip(*path)
    stopped = killed or dyn.rates[states[-1]] <= 0.0
    return PathSample(
        times=np.asarray(times),
        states=np.asarray(states, dtype=np.int64) + dyn.lo,
        stopped=bool(stopped),
        killed=bool(killed),
        seed=seed,
    )


def mc_survival(
    rm: RateMatrix,
    x0: int,
    y: int,
    t: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Estimate P(X_t >= y, alive) for the chain started at x0."""
    dyn = _Dynamics(rm)
    dyn.index_of(y)
    states, killed, _ = _simulate(dyn, x0, t, reps, seed, SALT_SURVIVAL, threads)
    hits = (states >= y) & ~killed
    p, half = _proportion_ci(hits, reps)
    return MCEstimate(value=p, half_width=half, reps=reps, seed=seed)


def mc_duality_check(
    rm: RateMatrix,
    pairs: Sequence[Tuple[int, int]],
    t: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> DualityMCReport:
    """Compare P(X_t >= y | x) with P(Y_t <= x | y) on the dual chain.

    Raises NotMonotone through the dual construction when the chain has
    no dual.  Each distinct start state gets its own stream, keyed by its
    rank, so adding pairs never perturbs existing ones.
    """
    pairs = [(int(x), int(y)) for x, y in pairs]
    if not pairs:
        raise InputFormatError("need at least one (x, y) pair")
    rd = dual_qmatrix(rm)
    dyn_fwd = _Dynamics(rm)
    dyn_dual = _Dynamics(rd)
    for x, y in pairs:
        dyn_fwd.index_of(x)
        dyn_dual.index_of(y)

    xs = sorted({x for x, _ in pairs})
    ys = sorted({y for _, y in pairs})
    fwd_runs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for k, x in enumerate(xs):
        st, kl, _ = _simulate(
            dyn_fwd, x, t, reps, seed, SALT_DUAL_X + (k << 16), threads
        )
        fwd_runs[x] = (st, kl)
    dual_runs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for k, y in enumerate(ys):
        st, kl, _ = _simulate(
            dyn_dual, y, t, reps, seed, SALT_DUAL_Y + (k << 16), threads
        )
        dual_runs[y] = (st, kl)

    rows = []
    max_z = 0.0
    se_floor = 1.0 / reps
    for x, y in pairs:
        st_f, kl_f = fwd_runs[x]
        p_f, hw_f = _proportion_ci((st_f >= y) & ~kl_f, reps)
        st_d, kl_d = dual_runs[y]
        p_d, hw_d = _proportion_ci((st_d <= x) & ~kl_d, reps)
        se = math.sqrt(
            p_f * (1.0 - p_f) / reps + p_d * (1.0 - p_d) / reps
        )
        z = (p_f - p_d) / max(se, se_floor)
        max_z = max(max_z, abs(z))
        rows.append({
            "x": x, "y": y,
            "p_forward": p_f, "half_width_forward": hw_f,
            "p_dual": p_d, "half_width_dual": hw_d,
            "z": z,
        })
    return DualityMCReport(
        ok=max_z <= DUALITY_Z_LIMIT,
        t=t,
        reps=reps,
        seed=seed,
        z_limit=DUALITY_Z_LIMIT,
        max_abs_z=max_z,
        pairs=rows,
    )


def mc_growth_bound(
    m: LevyModel,
    lat: Lattice,
    x0: float,
    t: float,
    c: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> GrowthMCReport:
    """Estimate E|X_t| on the discretized model against e^{ct}(|x0| + c).

    x0 is in real units and must sit on the lattice.  The window must be
    wide enough that escapes (edge visits or kills) stay below 0.1% of
    replicates; more escapes raise WindowEscape since the truncated mean
    would not be trustworthy.  Killed replicates contribute their last
    state, which the escape gate keeps negligible.
    """
    n0_real = x0 / lat.h
    n0 = int(round(n0_real))
    if abs(n0_real - n0) > 1e-9 * max(1.0, abs(n0_real)):
        raise InputFormatError(
            f"x0={x0} is not a lattice point at mesh {lat.h}"
        )
    rm = discretize(m, lat)
    states, killed, hit = _simulate(rm, n0, t, reps, seed, SALT_GROWTH, threads)
    escape = float(np.mean(hit | killed))
    if escape > ESCAPE_LIMIT:
        raise WindowEscape(escape, ESCAPE_LIMIT)
    values = np.abs(states.astype(float) * lat.h)
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if reps > 1 else 0.0
    half = Z_95 * sd / math.sqrt(reps)
    bound = math.exp(c * t) * (abs(x0) + c)
    return GrowthMCReport(
        ok=(mean - 3.0 * half) <= bound,
        value=mean,
        half_width=half,
        bound=bound,
        c=c,
        t=t,
        x0=x0,
        reps=reps,
        seed=seed,
        escape_fraction=escape,
    )
