"""Monte Carlo verification of duality identities and growth bounds.

All randomness comes from counter-based Philox streams keyed by
(seed, purpose salt), so every estimate is a pure function of its seed.
Replicate r owns row r of a block of uniforms, the stream read row by row
with ``cols`` columns per row, and each lockstep iteration of the jump
loop consumes two fixed columns (waiting time and target).  A
replicate's trajectory therefore depends only on its own row, which makes
results bit-identical however the replicates are chunked across threads.

The block is never held whole.  Each thread's chunk of rows starts from
the Philox counter of its first row and is streamed through one buffer
of at most ``_BLOCK_BUDGET`` doubles (4 MB), and the stragglers of a
sub-chunk read their private rows into the first rows of that same
buffer, so a worker thread holds one such buffer plus the O(reps)
outputs and the jump table.  The table is padded: row i holds the
cumulative probabilities of the states that state i can reach, then the
kill entry at 1, so it is N by one plus the most targets of any state,
and it is built from the rate table without an N x N array.  That is
about nnz + N entries when the rows are about equally wide, and up to N
times the widest row when they are not.  Each step
works on compacted arrays of the rows still jumping, and finds their
targets by a vectorized binary search over the table rows.  Rows hold
six standard deviations of the jump count, up to ``_BLOCK_COL_CAP``
uniforms, and every row is drawn whole, since the replay contract fixes
its width: a replicate that stops early still draws its full row, so at
lambda*t near 5 a row of 80 uniforms serves about 12.  A
replicate that exhausts its row (a straggler) reads on from a private
stream keyed by (seed, salt + r << 32), in rows of the same width, still
in lockstep with the other stragglers; its draws are those of a scalar
loop on that stream, which ``sample_path`` runs on its own stream.
Salts occupy the low 16 bits and per-start offsets the next 16, so the
three key ranges never collide.

Estimates carry 95% confidence half-widths: normal intervals for means,
with a Wilson fallback for proportions too close to 0 or 1 for the
normal approximation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InputFormatError, WindowEscape
from .generator import Lattice, LevyModel, discretize
from .qmatrix import RateMatrix, _check_size, _jump_scale, dual_qmatrix

SALT_SURVIVAL = 1
SALT_DUAL_X = 2
SALT_DUAL_Y = 3
SALT_GROWTH = 4
SALT_PATH = 5

Z_95 = 1.959963984540054
DUALITY_Z_LIMIT = 3.0
ESCAPE_LIMIT = 1e-3

# Uniforms per replicate row of the block; a replicate that jumps past its
# row (a straggler) reads on from a private stream in rows of the same width.
_BLOCK_COL_CAP = 256
# Uniforms held per streamed sub-chunk of the block (4 MB of doubles).
_BLOCK_BUDGET = 1 << 19

# A horizon with more than this many jumps expected (lambda * t) is
# malformed input: a replicate would not end, and sample_path keeps every
# jump, about 100 bytes each.
_JUMP_CAP = 1e6

# Cost fields of the Monte Carlo reports, left out of to_dict.
_COST_FIELDS = ("block_columns", "stragglers")


def _report_dict(report) -> dict:
    return {k: v for k, v in asdict(report).items() if k not in _COST_FIELDS}


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


# The Monte Carlo reports say how they were computed: ``block_columns`` is
# the number of uniforms in each replicate's row (the widest, when a
# report runs several start states), and ``stragglers`` counts the
# replicates that exhausted their row and finished on a private stream.


@dataclass(frozen=True)
class MCEstimate:
    value: float
    half_width: float
    reps: int
    seed: int
    block_columns: int = 0
    stragglers: int = 0

    def to_dict(self) -> dict:
        return _report_dict(self)


@dataclass
class DualityMCReport:
    ok: bool
    t: float
    reps: int
    seed: int
    z_limit: float
    max_abs_z: float
    pairs: List[dict] = field(default_factory=list)
    block_columns: int = 0
    stragglers: int = 0

    def to_dict(self) -> dict:
        return _report_dict(self)


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
    block_columns: int = 0
    stragglers: int = 0

    def to_dict(self) -> dict:
        return _report_dict(self)


class _Dynamics:
    """Exit rates and cumulative jump distributions of a rate matrix.

    Row i of ``cum`` holds the cumulative probabilities of jumping to the
    states state i can reach, in state order, then of being killed, at
    exactly 1, then +inf padding up to the widest row; ``target`` holds
    the state index of each entry (n_states for the kill entry).  The kept
    entries are those of the cumulative sum over all n_states targets, as
    adding a zero probability changes no bit, and the first entry above
    any u in [0, 1) is a reachable state or the kill entry.  ``moving[j]``
    and ``edge[j]`` say whether state j keeps jumping and whether it is a
    window edge, with j = n_states for a killed replicate.
    """

    def __init__(self, rm: RateMatrix):
        src, tgt, rate, self.rates, _, counts, start, _ = rm._rows
        n = rm.n_states
        self.lo = rm.lo
        self.n_states = n
        width = 1 + int(counts.max(initial=0))
        _check_size(n * width, "jump table entries")
        # the flat table position of each entry: its row times the width,
        # plus its rank within its row
        pos = np.arange(src.size)
        pos += (np.arange(n) * width - start)[src]
        rate = rate / self.rates[src]
        del src
        # the smallest integer type that holds n: 4 bytes or fewer an entry
        self.target = np.full((n, width), n, dtype=np.min_scalar_type(n))
        self.target.ravel()[pos] = tgt
        del tgt
        cum = np.zeros((n, width))
        cum.ravel()[pos] = rate
        np.cumsum(cum, axis=1, out=cum)
        cum[np.arange(width) > counts[:, None]] = np.inf
        cum[np.arange(n), counts] = 1.0
        self.cum = cum
        self.max_rate = float(self.rates.max()) if n else 0.0
        self.moving = np.append(self.rates > 0.0, False)
        self.edge = np.zeros(n + 1, dtype=bool)
        self.edge[[0, n - 1, n]] = True

    def index_of(self, state: int) -> int:
        idx = int(state) - self.lo
        if idx < 0 or idx >= self.n_states:
            raise InputFormatError(
                f"state {state} outside window [{self.lo}, {self.lo + self.n_states - 1}]"
            )
        return idx


def _jump_targets(dyn: _Dynamics, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The state index each replicate jumps to from states[i] on u[i] in [0, 1).

    The entry of ``dyn.target`` at ``searchsorted(cum[states[i]], u[i],
    side="right")``, the jump rule of the scalar loop, found by a
    branchless binary search over the flattened rows: about log2 of the
    row width passes of O(len(u)) work.  The last column, at 1 or +inf,
    is never <= u, so the search leaves it out.
    """
    width = dyn.cum.shape[1]
    flat = dyn.cum.ravel()
    pos = states * width
    width = max(width - 1, 1)
    while width > 1:
        half = width // 2
        # flat[pos + half], without an array of indices
        pos += (flat[half:][pos] <= u) * half
        width -= half
    pos += flat[pos] <= u
    # indexing with intp indices is the fast path
    return dyn.target.ravel()[pos].astype(np.intp)


def _expected_jumps(dyn: _Dynamics, t_end: float) -> float:
    """lambda * t.  A horizon that is negative or not finite, or whose
    lambda * t passes _JUMP_CAP, is malformed input."""
    if t_end < 0.0 or not math.isfinite(t_end):
        raise InputFormatError(f"bad horizon {t_end!r}")
    lam_t = _jump_scale(dyn.max_rate, t_end)
    if lam_t > _JUMP_CAP:
        raise InputFormatError(
            f"a path expects more than {_JUMP_CAP:g} jumps: lambda={dyn.max_rate!r}, t={t_end!r}")
    return lam_t


def _block_columns(dyn: _Dynamics, t_end: float) -> int:
    lam_t = _expected_jumps(dyn, t_end)
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
    r = float(dyn.rates[state])  # a Python float: a wait past the float range is inf
    while r > 0.0:
        u1 = gen.random()
        u2 = gen.random()
        dt = np.inf if u1 <= 0.0 else -math.log(u1) / r
        if tnow + dt > t_end:
            break
        tnow += dt
        idx = int(dyn.target[state, np.searchsorted(dyn.cum[state], u2, side="right")])
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
        r = float(dyn.rates[state])
    return state, killed, hit


def _lockstep(
    dyn: _Dynamics,
    t_end: float,
    block: np.ndarray,
    states: np.ndarray,
    tnow: np.ndarray,
    killed: np.ndarray,
    hit: np.ndarray,
) -> np.ndarray:
    """Advance replicate i by the uniforms of block row i, two per jump.

    Updates ``states``, ``killed`` and ``hit`` in place, and ``tnow`` of
    the replicates still jumping when their rows ran out, which it returns.
    The loop keeps the state, time, edge flag and row offset of the live
    replicates only, compacted, and writes back the rows that stop.
    """
    n = dyn.n_states
    cols = block.shape[1]
    flat = block.ravel()
    # the offset into ``flat`` of each live replicate's row
    base = np.flatnonzero(dyn.moving[states])
    cur, now, edge = states[base], tnow[base], hit[base]
    base *= cols
    for col in range(0, cols - 1, 2):
        if not base.size:
            break
        with np.errstate(divide="ignore", over="ignore"):  # a wait past the float range
            now -= np.log(flat.take(base + col)) / dyn.rates[cur]
        jump = now <= t_end
        idx = _jump_targets(dyn, cur, flat.take(base + (col + 1)))
        go = dyn.moving[idx]
        go &= jump
        if not go.all():
            # write back the rows that stop: at the horizon they keep their
            # state, killed they keep the state they left
            stop = np.flatnonzero(~go)
            moved, end, rows = jump[stop], idx[stop], base[stop] // cols
            dead = moved & (end == n)
            states[rows] = np.where(moved & ~dead, end, cur[stop])
            killed[rows] = dead
            hit[rows] = edge[stop] | (dyn.edge[end] & moved)
            # one array at a time, so the old and new copies of all four
            # are never held at once
            keep = np.flatnonzero(go)
            idx = idx[keep]
            base = base[keep]
            now = now[keep]
            edge = edge[keep]
        cur = idx
        edge |= dyn.edge[cur]
    live = base // cols
    states[live], tnow[live], hit[live] = cur, now, edge
    return live


def _run_block(
    dyn: _Dynamics,
    start_index: int,
    t_end: float,
    block: np.ndarray,
    row0: int,
    seed: int,
    salt: int,
    states: np.ndarray,
    killed: np.ndarray,
    hit: np.ndarray,
) -> int:
    """Evolve block rows in lockstep; row i is replicate row0 + i.

    Writes final state indices and kill and edge flags into ``states``,
    ``killed`` and ``hit`` and returns the number of stragglers.  Each
    round of the stragglers' private rows overwrites the first rows of
    ``block``, whose uniforms are spent by then.
    """
    n = dyn.n_states
    m, cols = block.shape
    states[:] = start_index
    killed[:] = False
    hit[:] = start_index == 0 or start_index == n - 1
    tnow = np.zeros(m)
    live = _lockstep(dyn, t_end, block, states, tnow, killed, hit)
    stragglers = int(live.size)
    if not stragglers:
        return 0
    # stragglers read on from private streams, in rows of the same width:
    # row k of replicate r's stream starts at double k * cols of the
    # Philox stream keyed by (seed, salt + r << 32).  One generator is
    # moved there by setting its key and counter, as _row_stream advances.
    bitgen = np.random.Philox(key=[seed, salt])
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key, counter = state["state"]["key"], state["state"]["counter"]
    k = 0
    while live.size:
        counter[0], skip = divmod(k * cols, 4)
        more = block[: live.size]
        for row, r in zip(more, (row0 + live).tolist()):
            key[1] = salt + (r << 32)
            bitgen.state = state
            if skip:
                gen.random(skip)
            gen.random(out=row)
        sub = states[live], tnow[live], killed[live], hit[live]
        left = _lockstep(dyn, t_end, more, *sub)
        states[live], tnow[live], killed[live], hit[live] = sub
        live = live[left]
        k += 1
    return stragglers


def _row_stream(seed: int, salt: int, row: int, cols: int) -> np.random.Generator:
    """The block stream positioned at the start of row ``row``.

    Philox yields four doubles per counter step, so the stream skips
    whole steps and then discards the remainder.
    """
    bitgen = np.random.Philox(key=[seed, salt])
    bitgen.advance((row * cols) // 4)
    gen = np.random.Generator(bitgen)
    gen.random((row * cols) % 4)
    return gen


def _run_rows(
    dyn: _Dynamics,
    start_index: int,
    t_end: float,
    cols: int,
    r0: int,
    r1: int,
    seed: int,
    salt: int,
    out_state: np.ndarray,
    out_killed: np.ndarray,
    out_hit: np.ndarray,
) -> int:
    """Stream block rows r0..r1-1 through the lockstep loop in sub-chunks.

    Writes results in place and returns the number of stragglers.
    """
    gen = _row_stream(seed, salt, r0, cols)
    step = max(1, _BLOCK_BUDGET // cols)
    # one buffer holds each sub-chunk in turn
    block = np.empty((min(step, r1 - r0), cols))
    stragglers = 0
    for s0 in range(r0, r1, step):
        s1 = min(s0 + step, r1)
        rows = gen.random(out=block[: s1 - s0])
        stragglers += _run_block(
            dyn, start_index, t_end, rows, s0, seed, salt,
            out_state[s0:s1], out_killed[s0:s1], out_hit[s0:s1],
        )
    return stragglers


class _Run(NamedTuple):
    states: np.ndarray
    killed: np.ndarray
    hit: np.ndarray
    block_columns: int
    stragglers: int


def _simulate(
    rm_or_dyn,
    start_state: int,
    t_end: float,
    reps: int,
    seed: int,
    salt: int,
    threads: int = 1,
) -> _Run:
    """Final states, kill flags, and edge-visit flags for all replicates."""
    dyn = rm_or_dyn if isinstance(rm_or_dyn, _Dynamics) else _Dynamics(rm_or_dyn)
    if reps <= 0:
        raise InputFormatError(f"need a positive replicate count, got {reps}")
    _check_size(reps, "replicates")
    if threads < 1:
        raise InputFormatError(f"bad thread count {threads}")
    start_index = dyn.index_of(start_state)
    cols = _block_columns(dyn, t_end)
    out_state = np.empty(reps, dtype=np.int64)
    out_killed = np.empty(reps, dtype=bool)
    out_hit = np.empty(reps, dtype=bool)
    # contiguous row ranges, split as np.array_split splits; past one row
    # per thread the extra ranges would be empty
    parts = min(threads, reps)
    size, extra = divmod(reps, parts)
    edges = [k * size + min(k, extra) for k in range(parts + 1)]
    chunks = list(zip(edges, edges[1:]))
    args = (dyn, start_index, t_end, cols)
    outs = (seed, salt, out_state, out_killed, out_hit)
    if threads == 1 or len(chunks) == 1:
        stragglers = sum(_run_rows(*args, r0, r1, *outs) for r0, r1 in chunks)
    else:
        # the chunk split follows `threads`, so results do not depend on how
        # many of the chunks run at once
        workers = min(len(chunks), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_rows, *args, r0, r1, *outs)
                       for r0, r1 in chunks]
            stragglers = sum(fut.result() for fut in futures)
    out_state += dyn.lo
    return _Run(out_state, out_killed, out_hit, cols, stragglers)


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
    _expected_jumps(dyn, t_end)
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
    run = _simulate(dyn, x0, t, reps, seed, SALT_SURVIVAL, threads)
    p, half = _proportion_ci((run.states >= y) & ~run.killed, reps)
    return MCEstimate(value=p, half_width=half, reps=reps, seed=seed,
                      block_columns=run.block_columns, stragglers=run.stragglers)


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
    fwd_runs: Dict[int, _Run] = {
        x: _simulate(dyn_fwd, x, t, reps, seed, SALT_DUAL_X + (k << 16), threads)
        for k, x in enumerate(xs)
    }
    dual_runs: Dict[int, _Run] = {
        y: _simulate(dyn_dual, y, t, reps, seed, SALT_DUAL_Y + (k << 16), threads)
        for k, y in enumerate(ys)
    }
    runs = [*fwd_runs.values(), *dual_runs.values()]

    rows = []
    max_z = 0.0
    se_floor = 1.0 / reps
    for x, y in pairs:
        fwd, dual = fwd_runs[x], dual_runs[y]
        p_f, hw_f = _proportion_ci((fwd.states >= y) & ~fwd.killed, reps)
        p_d, hw_d = _proportion_ci((dual.states <= x) & ~dual.killed, reps)
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
        block_columns=max(run.block_columns for run in runs),
        stragglers=sum(run.stragglers for run in runs),
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
    state, which the escape gate keeps negligible.  A bound that is not
    finite (a c, x0 or t that is not, or an e^{ct} that overflows) raises
    InputFormatError before anything is drawn.
    """
    try:
        bound = math.exp(c * t) * (abs(x0) + c)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise InputFormatError(
            f"the growth bound e^(ct) (|x0| + c) is not finite at c={c}, t={t}, x0={x0}"
        )
    n0_real = x0 / lat.h
    n0 = int(round(n0_real))
    if abs(n0_real - n0) > 1e-9 * max(1.0, abs(n0_real)):
        raise InputFormatError(
            f"x0={x0} is not a lattice point at mesh {lat.h}"
        )
    rm = discretize(m, lat)
    run = _simulate(rm, n0, t, reps, seed, SALT_GROWTH, threads)
    escape = float(np.mean(run.hit | run.killed))
    if escape > ESCAPE_LIMIT:
        raise WindowEscape(escape, ESCAPE_LIMIT)
    values = np.abs(run.states.astype(float) * lat.h)
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if reps > 1 else 0.0
    half = Z_95 * sd / math.sqrt(reps)
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
        block_columns=run.block_columns,
        stragglers=run.stragglers,
    )
