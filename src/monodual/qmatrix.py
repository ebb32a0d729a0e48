"""Rate matrices on integer windows: monotonicity checks and Siegmund-type duals.

A continuous-time chain on the window ``[lo, hi]`` is described by its
off-diagonal jump rates.  Raw rates may target states outside the window;
a boundary policy decides what the effective generator does with that mass.
Everything else in the module (monotonicity criteria, dual construction,
transition matrices, duality verification) operates on that effective
generator, so the policy is applied in exactly one place.

Killed mass is accounted as a jump to an absorbing cemetery sitting below
every state.  That convention makes the two monotonicity criteria (tail
sums over a dense generator, and per-offset jump-rate conditions) agree
verdict-for-verdict on substochastic matrices, and it matches how the
Monte Carlo routines score killed paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse
import scipy.special

from .errors import (
    DualRateNegative,
    InputFormatError,
    NegativeRate,
    NotMonotone,
)
from ._expr import _number

BOUNDARY_POLICIES = ("absorb", "reflect", "kill")

# Monotonicity comparisons are made relative to the local exit-rate scale.
MONO_RTOL = 1e-12

# Default ceiling for the sup-norm duality discrepancy on the margin box.
DUALITY_TOL = 1e-8

# Poisson series in the uniformized exponential is cut once this much of
# the step's time scale is covered; see transition_matrix.
EXPM_TOL = 1e-12

# Uniformization multiplies by B a block of this many rows at a time, each
# block against only the rows and columns its band can reach.
BLOCK_ROWS = 32

# ... unless at most this share of the entries in those blocks is nonzero;
# B is then multiplied as a sparse (CSR) matrix.  Far entries widen every
# block: the dual of a killing chain has kill-rate steps in far columns.
SPARSE_DENSITY = 0.05


class _Columns(NamedTuple):
    """A rate table on its way into RateMatrix; ``entry(i)`` names entry i."""

    n: Sequence
    m: Sequence
    rate: Sequence
    entry: Callable[[int], str] = str


def _column(values: Sequence, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """``values`` as a column, and the mask of entries that are not ``dtype`` numbers.

    A column that numpy reads as a dtype casting safely to ``dtype`` takes
    one step.  Any other goes entry by entry into an object column, where
    an integer past int64 keeps its value and a rejected entry reads as 0.
    """
    try:
        col = np.asarray(values) if len(values) else np.zeros(0, dtype)
    except ValueError:  # ragged: some entry is a sequence
        col = np.empty(0, dtype=object)
    if col.shape == (len(values),) and np.can_cast(col.dtype, dtype):
        return col.astype(dtype, copy=False), np.zeros(col.size, dtype=bool)
    kind = int if dtype == np.int64 else float
    col = np.array([_number(v, kind) for v in values], dtype=object)
    bad = np.equal(col, None)
    col[bad] = 0
    return col, bad


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Off-diagonal jump rates of a chain on a finite integer window.

    ``table`` (read back as ``rates``) maps ``(n, m)`` to the rate of jumping
    from state ``n`` by the signed offset ``m`` (``m != 0``).  Targets outside
    ``[lo, hi]`` are legal in the raw table; ``boundary`` decides their fate:

    * ``"absorb"``: out-of-window jumps are clamped to the nearest edge and
      the edge states themselves are frozen (their generator rows are zero).
    * ``"reflect"``: out-of-window jumps are clamped to the nearest edge and
      the chain keeps moving; a jump clamped onto its own source is dropped.
    * ``"kill"``: out-of-window mass is removed from the window.

    States, offsets and edges are integers (``int(v) == v``); no (n, m) repeats.
    The table is kept as read-only columns in table order: ``src = n - lo``
    (int64), ``m`` (int64, object past int64) and ``rate``.
    """

    lo: int
    hi: int
    boundary: str
    table: InitVar[Mapping[Tuple[int, int], float]]
    src: np.ndarray = field(init=False)
    m: np.ndarray = field(init=False)
    rate: np.ndarray = field(init=False)

    def __post_init__(self, table):
        lo, hi = _number(self.lo, int), _number(self.hi, int)
        if lo is None or hi is None:
            raise InputFormatError("window edges must be integers")
        if lo > hi:
            raise InputFormatError(f"empty window [{lo}, {hi}]")
        if self.boundary not in BOUNDARY_POLICIES:
            raise InputFormatError(
                f"unknown boundary policy {self.boundary!r}; "
                f"expected one of {BOUNDARY_POLICIES}"
            )
        if not isinstance(table, _Columns):
            keys, values = list(table), list(table.values())
            pairs = [k if isinstance(k, tuple) and len(k) == 2 else (None,) * 2 for k in keys]
            n, m = zip(*pairs) if pairs else ((), ())
            table = _Columns(n, m, values, lambda i: f"{keys[i]!r}: {values[i]!r}")
        (n, bad_n), (m, bad_m), (rate, bad_r) = (
            _column(table.n, np.int64), _column(table.m, np.int64), _column(table.rate, float))
        bad, jump0, outside = bad_n | bad_m | bad_r, m == 0, (n < lo) | (n > hi)
        order = np.lexsort((m, n))  # stable: a repeat follows the first (n, m)
        a, b = order[:-1], order[1:]
        repeat = np.zeros(n.size, dtype=bool)
        repeat[b[(n[a] == n[b]) & (m[a] == m[b])]] = True
        failed = bad | jump0 | outside | repeat
        if failed.any():
            i = int(np.argmax(failed))
            raise InputFormatError(
                f"bad rate entry {table.entry(i)}" if bad[i]
                else f"offset 0 at state {n[i]} is not a jump" if jump0[i]
                else f"source state {n[i]} outside window [{lo}, {hi}]" if outside[i]
                else f"duplicate rate entry for ({n[i]}, {m[i]})"
            )
        src, rate = (n - lo).astype(np.int64), rate.astype(float, copy=False)
        for name, value in zip(("lo", "hi", "src", "m", "rate"), (lo, hi, src, m, rate)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @cached_property
    def rates(self) -> Mapping[Tuple[int, int], float]:
        """Read-only ``(n, m) -> rate`` mapping in table order, assembled on first read."""
        keys = zip((self.src + self.lo).tolist(), self.m.tolist())
        return MappingProxyType(dict(zip(keys, self.rate.tolist())))

    def __reduce__(self):  # a copy or unpickled table is validated again
        columns = _Columns(self.lo + self.src, self.m, self.rate)
        return RateMatrix, (self.lo, self.hi, self.boundary, columns)

    def __eq__(self, other) -> bool:
        fields = (self.lo, self.hi, self.boundary, self.rates)
        return isinstance(other, RateMatrix) and fields == (
            other.lo, other.hi, other.boundary, other.rates)

    @property
    def n_states(self) -> int:
        return self.hi - self.lo + 1

    def states(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


@dataclass
class Violation:
    """One failed monotonicity condition for the adjacent pair (n, n+1).

    ``kind`` is ``"tail"`` (dense tail sums; ``index`` is the threshold
    state, condition lhs <= rhs), ``"up"`` (per-offset upward condition at
    jump width ``index``, lhs <= rhs) or ``"down"`` (per-offset downward
    condition at width ``index``, where lhs is the available down-mass from
    n and the condition is lhs >= rhs).  ``deficit`` is always the positive
    violation magnitude.
    """

    n: int
    kind: str
    index: int
    lhs: float
    rhs: float
    deficit: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MonotonicityReport:
    ok: bool
    method: str
    tol: float
    checked: int
    max_deficit: float
    violations: List[Violation] = field(default_factory=list)
    # Set only for method="both": whether the two routes reached the same
    # verdict.  They are algebraically equivalent, so False flags a bug.
    agreement: Optional[bool] = None

    def to_dict(self, limit: int = 100) -> dict:
        out = {
            "ok": self.ok,
            "monotone": self.ok,
            "method": self.method,
            "tol": self.tol,
            "checked_pairs": self.checked,
            "max_deficit": self.max_deficit,
            "n_violations": len(self.violations),
            "violations": [v.to_dict() for v in self.violations[:limit]],
        }
        if self.agreement is not None:
            out["agreement"] = self.agreement
        return out


@dataclass
class DualityReport:
    ok: bool
    t: float
    margin: int
    tol: float
    sup_margin: float
    sup_full: float
    at: Tuple[int, int]

    def to_dict(self) -> dict:
        return {**asdict(self), "at": list(self.at)}


@dataclass(frozen=True)
class TransitionMatrix:
    """Time-t transition probabilities of the effective generator.

    ``P[i, j]`` is the probability of sitting at state ``lo + j`` at time t
    having started at ``lo + i`` and never been killed; ``defect[i]`` is the
    killed mass, so each row of P sums to ``1 - defect[i]``.

    ``terms`` and ``halvings`` say how the exponential was computed (Poisson
    series terms per step, and squarings of the step); ``error_bound`` is
    the truncation bound actually achieved, 2**halvings times the Poisson
    mass the series left out.  It exceeds the requested tolerance when the
    series floor or its term cap stopped short, and ``tol_met`` is then
    False.  Rounding is not included, and the observed error can exceed
    the bound.
    """

    lo: int
    hi: int
    t: float
    P: np.ndarray
    defect: np.ndarray
    terms: int = 0
    halvings: int = 0
    error_bound: float = 0.0
    tol_met: bool = True

    @property
    def n_states(self) -> int:
        return self.hi - self.lo + 1

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "t": self.t,
            "P": self.P.tolist(),
            "defect": self.defect.tolist(),
        }


@dataclass
class DominanceReport:
    ok: bool
    t: float
    tol: float
    checked: int
    max_violation: float
    at: Tuple[int, int]

    def to_dict(self) -> dict:
        return {**asdict(self), "at": list(self.at)}


def validate_qmatrix(rm: RateMatrix) -> dict:
    """Check rate values and return a small summary of the table.

    Raises NegativeRate for a negative entry and InputFormatError for a
    non-finite one.  Structural problems (bad window, offset zero, unknown
    policy) are already rejected by the RateMatrix constructor.
    """
    q, kill = effective_generator(rm)
    return {
        "n_states": rm.n_states,
        "n_rates": rm.rate.size,
        "max_exit_rate": _max_exit_rate(q),
        "conservative": bool(np.all(kill == 0.0)),
        "total_kill_rate": float(kill.sum()),
    }


def _max_exit_rate(q: np.ndarray) -> float:
    return float(np.max(-np.diag(q), initial=0.0))


def _jumps(rm: RateMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Source, target and rate of each nonzero jump, and which of them move.

    Sources and targets are window indices.  Under "kill" a jump moves when
    its target lies in the window and is killed mass otherwise; the other
    policies clamp targets to the edges, and a jump clamped onto its own
    source does not move.  Raises NegativeRate for a negative rate and
    InputFormatError for a non-finite one.
    """
    n_states = rm.n_states
    r = rm.rate
    bad = np.flatnonzero(~np.isfinite(r) | (r < 0.0))
    if bad.size:
        i = bad[0]
        n, m, value = rm.lo + int(rm.src[i]), int(rm.m[i]), float(r[i])
        if not math.isfinite(value):
            raise InputFormatError(f"rate at ({n}, {m}) is not finite: {value!r}")
        raise NegativeRate(n, m, value)
    nonzero = r != 0.0
    src, r = rm.src[nonzero], r[nonzero]
    # cutting offsets to the window width moves no target into or out of the
    # window, keeps src + offset far from int64 overflow and makes them int64
    tgt = src + np.clip(rm.m[nonzero], -n_states, n_states).astype(np.int64, copy=False)
    if rm.boundary == "kill":
        moves = (tgt >= 0) & (tgt < n_states)
    else:
        tgt = np.clip(tgt, 0, n_states - 1)
        moves = tgt != src
    return src, tgt, r, moves


def _generator_entries(
    rm: RateMatrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The effective generator as entries: O(nnz) memory, no N x N array.

    Returns ``(src, tgt, rate, exit, kill)``: the off-diagonal entries
    ``q[src, tgt] = rate`` sorted by (src, tgt), each a sum of the rates
    that land on it in rate-table order, then the exit rate ``-q[i, i]``
    and the kill rate of every state, summed in the same order.  Raises
    NegativeRate for a negative rate and InputFormatError for a non-finite
    one.
    """
    n_states = rm.n_states
    src, tgt, r, moves = _jumps(rm)
    if rm.boundary == "absorb":
        # the edge states are frozen: their rows of q are zero
        moves &= (src != 0) & (src != n_states - 1)
    # bincount adds its weights in order, so every sum runs in table order
    if rm.boundary == "kill":
        kill = np.bincount(src[~moves], weights=r[~moves], minlength=n_states)
        exits = slice(None)
    else:
        # a jump clamped onto its own source has no net motion: dropped
        kill = np.zeros(n_states)
        exits = moves
    exit_rate = np.bincount(src[exits], weights=r[exits], minlength=n_states)
    # a stable sort keeps the rates that land on one entry in table order;
    # arrays are dropped as soon as they are used, so that few O(nnz)
    # arrays are alive at once
    key = src[moves]
    key *= n_states
    key += tgt[moves]
    r = r[moves]
    del src, tgt, moves, exits
    order = np.argsort(key, kind="stable")
    key, r = key[order], r[order]
    del order
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    slot = np.cumsum(first)
    slot -= 1
    # astype: the bincount of no entries is an integer array
    rate = np.bincount(slot, weights=r).astype(float, copy=False)
    del slot, r
    src, tgt = np.divmod(key[first], n_states)
    return src, tgt, rate, exit_rate, kill


def effective_generator(rm: RateMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Dense generator and kill-rate vector induced by the boundary policy.

    Returns ``(q, kill)`` where ``q`` is (N, N) with row sums ``-kill``.
    The kill vector is nonzero only under the "kill" policy.  Rates that
    land on one entry are summed in rate-table order.  Raises NegativeRate
    for a negative rate and InputFormatError for a non-finite one.
    """
    src, tgt, rate, exit_rate, kill = _generator_entries(rm)
    n_states = rm.n_states
    q = np.zeros((n_states, n_states))
    flat = q.ravel()
    flat[src * n_states + tgt] = rate
    # 0 - exit, not -exit: a state without exits keeps +0.0
    flat[:: n_states + 1] -= exit_rate
    return q, kill


def from_dense(
    lo: int, hi: int, q: np.ndarray, boundary: str = "kill", kill: Optional[np.ndarray] = None
) -> RateMatrix:
    """Rate table from a dense array's off-diagonal part (diagonal ignored).

    A kill vector, if given, is encoded as jumps past the top edge, which
    only the "kill" policy maps back to killing.
    """
    q = np.asarray(q, dtype=float)
    n_states = hi - lo + 1
    if q.shape != (n_states, n_states):
        raise InputFormatError(
            f"dense array shape {q.shape} does not match window [{lo}, {hi}]"
        )
    rows, cols = np.nonzero(q)  # row-major order
    off = rows != cols
    rows, cols = rows[off], cols[off]
    rate = q[rows, cols]
    if kill is not None:
        kill = np.asarray(kill, dtype=float)
        if np.any(kill != 0.0) and boundary != "kill":
            raise InputFormatError(
                "a kill vector is only representable under the 'kill' policy"
            )
        # state lo + i jumps to hi + 1, one column past the last
        i = np.flatnonzero(kill)
        rows, cols = np.append(rows, i), np.append(cols, np.full(i.size, n_states))
        rate = np.append(rate, kill[i])
    return RateMatrix(lo, hi, boundary, _Columns(lo + rows, cols - rows, rate))


def _tail_sums(q: np.ndarray) -> np.ndarray:
    """T[i, l] = sum_{j >= l} q[i, j]."""
    return np.flip(np.cumsum(np.flip(q, axis=1), axis=1), axis=1)


def check_monotone(
    rm: RateMatrix, tol: float = MONO_RTOL, method: str = "both"
) -> MonotonicityReport:
    """Decide stochastic monotonicity of the effective generator.

    Two independent routes are implemented.  "tails" compares, for every
    adjacent pair of states and every threshold other than the one that
    separates the pair, the dense tail sums of the two generator rows.
    "offsets" checks the per-jump-width conditions on the rate table (one
    family for upward widths, one for downward widths, with killed mass
    counted as a downward jump past every threshold).  The two are
    rearrangements of each other; "both" runs them both and records whether
    the verdicts agree.

    ``tol`` is relative: each pair's conditions are slack by
    ``tol * max(local exit rates)``.
    """
    q, kill = effective_generator(rm)
    if method == "tails":
        return _check_tails(rm, q, tol)
    if method == "offsets":
        return _check_offsets(rm, q, kill, tol)
    if method != "both":
        raise InputFormatError(f"unknown method {method!r}")
    rep_t = _check_tails(rm, q, tol)
    rep_o = _check_offsets(rm, q, kill, tol)
    report = _report("both", tol, rep_t.checked + rep_o.checked,
                     rep_t.violations + rep_o.violations)
    report.agreement = rep_t.ok == rep_o.ok
    return report


def _report(method: str, tol: float, checked: int, violations: list) -> MonotonicityReport:
    max_def = max((v.deficit for v in violations), default=0.0)
    return MonotonicityReport(not violations, method, tol, checked, max_def, violations)


def _check_tails(rm: RateMatrix, q: np.ndarray, tol: float) -> MonotonicityReport:
    n_states = q.shape[0]
    if n_states < 2:
        return MonotonicityReport(True, "tails", tol, 0, 0.0)
    tails = _tail_sums(q)
    exit_scale = np.abs(np.diag(q))
    thr = tol * np.maximum(exit_scale[:-1], exit_scale[1:])
    # deficit[i, l] > 0 means the pair (lo+i, lo+i+1) fails at threshold lo+l
    deficit = tails[:-1, :] - tails[1:, :]
    mask = deficit > thr[:, None]
    pairs = np.arange(n_states - 1)
    mask[pairs, pairs + 1] = False  # threshold separating the pair is exempt
    violations = [
        Violation(rm.lo + int(i), "tail", rm.lo + int(l), float(tails[i, l]),
                  float(tails[i + 1, l]), float(deficit[i, l]))
        for i, l in zip(*np.nonzero(mask))
    ]
    return _report("tails", tol, (n_states - 1) * (n_states - 1), violations)


def _check_offsets(
    rm: RateMatrix, q: np.ndarray, kill: np.ndarray, tol: float
) -> MonotonicityReport:
    n_states = q.shape[0]
    exit_scale = np.abs(np.diag(q))
    thr = tol * np.maximum(exit_scale[:-1], exit_scale[1:])[:, None]
    tails, _ = _offdiag_tails(q, kill)
    upper, lower = tails[:-1], tails[1:]  # rows n and n+1 of pair i
    i = np.arange(n_states - 1)[:, None]
    l = np.arange(n_states)[None, :]
    # upward width k = l - i at thresholds l > i+1: mass from n jumping at
    # least k up must be covered by mass from n+1 jumping at least k-1 up
    up = (l > i + 1) & (upper > lower + thr)
    # downward width k = i - l + 2 at thresholds l <= i: mass from n+1
    # jumping at least k down, killing included, must be covered by mass
    # from n jumping at least k-1 down; -tails holds those masses
    down = (l <= i) & (upper - thr > lower)
    violations = [
        Violation(rm.lo + int(r), "up", int(c - r), float(upper[r, c]),
                  float(lower[r, c]), float(upper[r, c] - lower[r, c]))
        for r, c in zip(*np.nonzero(up))
    ] + [
        Violation(rm.lo + int(r), "down", int(r - c + 2), float(-upper[r, c]),
                  float(-lower[r, c]), float(upper[r, c] - lower[r, c]))
        for r, c in zip(*np.nonzero(down))
    ]
    # per pair: upward widths, then downward widths, each ascending
    violations.sort(key=lambda v: (v.n, v.kind == "down", v.index))
    return _report("offsets", tol, (n_states - 1) * (n_states - 1), violations)


def _offdiag_tails(q: np.ndarray, kill: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tail sums of the off-diagonal rates, and their partial sums from the left.

    ``before[k, y] = sum_{j<y, j!=k} q[k, j]``; ``tails[k, y]`` is
    ``-kill_k - before[k, y]`` for y <= k and ``sum_{j>=y, j!=k} q[k, j]``
    for y > k.  Nothing cancels against the diagonal.
    """
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    before = np.zeros_like(off)
    np.cumsum(off[:, :-1], axis=1, out=before[:, 1:])
    tails = np.where(
        np.tri(q.shape[0], dtype=bool), -kill[:, None] - before, _tail_sums(off)
    )
    return tails, before


def dual_qmatrix(
    rm: RateMatrix, require_monotone: bool = True, tol: float = MONO_RTOL
) -> RateMatrix:
    """Siegmund-type dual of the effective generator, on the same window.

    Row y of the dual is built from the tail sums T[k, y] = sum_{j>=y} q[k, j]
    as differences T[k, y] - T[k-1, y] (with the row below the window read as
    zero).  With the indicator kernel F[x, y] = 1{x >= y} this gives
    q @ F == F @ dual.T exactly, so the semigroup duality identity holds to
    numerical precision on the whole window; no truncation margin is needed.

    The tails are summed from off-diagonal rates only: for y <= k as
    -kill_k - sum_{j<y} q[k, j], for y > k as sum_{j>=y} q[k, j].  Nothing
    cancels against the diagonal, so every difference the jump range of
    the input makes zero is exactly zero, and the dual of a band-w chain
    without killing is again a band-w chain.

    Off-diagonal dual entries are nonnegative exactly when the input is
    stochastically monotone.  The dual is substochastic in general: row y
    leaks at rate kill_hi + sum_{j < y} q[hi, j] (mass the top state sends
    below y), encoded as a jump past the top edge under the "kill" policy.
    For a conservative input the bottom dual row vanishes; when the input
    kills, row lo carries the kill-rate differences kill_{k-1} - kill_k,
    which the identity above requires.

    With ``require_monotone`` the input is checked first and NotMonotone is
    raised on failure; otherwise a genuinely negative dual rate (beyond
    ``tol`` times the exit-rate scale) raises DualRateNegative.  Either way,
    roundoff-scale negatives are clamped to zero.
    """
    q, kill = effective_generator(rm)
    if require_monotone:
        report = _check_tails(rm, q, tol)
        if not report.ok:
            raise NotMonotone(report)
    n_states = q.shape[0]
    tails, before = _offdiag_tails(q, kill)
    below = np.vstack([np.zeros((1, n_states)), tails[:-1, :]])
    dual = (tails - below).T  # dual[y, k] = T[k, y] - T[k-1, y]

    np.fill_diagonal(dual, 0.0)
    thr = tol * _max_exit_rate(q)
    neg = np.nonzero(dual < -thr)
    if neg[0].size:
        y, k = int(neg[0][0]), int(neg[1][0])
        raise DualRateNegative(rm.lo + y, rm.lo + k, float(dual[y, k]))
    np.clip(dual, 0.0, None, out=dual)

    # leak rate of dual row y: mass the top forward row sends below y,
    # accumulated from nonnegative terms so it can never go negative
    leak = kill[n_states - 1] + before[n_states - 1]
    return from_dense(rm.lo, rm.hi, dual, boundary="kill", kill=leak)


def transition_matrix(rm: RateMatrix, t: float, tol: float = EXPM_TOL) -> TransitionMatrix:
    """Substochastic transition matrix exp(t q) of the effective generator.

    Computed by uniformization: with lam the largest exit rate and
    B = I + q/lam, the series sum_k Poisson(lam t)(k) B^k is cut once the
    accumulated Poisson weight reaches 1 - tol; since the powers of B have
    sup-norm at most one, the cut mass bounds the error.  Time steps with
    lam * t above 64 are halved recursively and the result squared, with a
    correspondingly tightened series tolerance (floored at 1e-15, below
    which the accumulated weight cannot resolve the cut).  The series is
    summed backwards (Horner's rule), multiplying by B in blocks of
    BLOCK_ROWS rows over only the band that the widest jump inside the
    window allows, so a chain with jumps of width w costs O(N^2 w) per
    term until the band fills.  When at most SPARSE_DENSITY of the entries
    in those blocks is nonzero (a few far entries make the band wide), B
    is multiplied as a sparse matrix instead, at O(N nnz) per term.  The
    result reports the terms, halvings and the truncation bound achieved.
    """
    q, _ = effective_generator(rm)
    t = float(t)
    if t < 0.0:
        raise InputFormatError(f"negative time {t!r}")
    # jumps that leave the window under "kill" are on the diagonal of q
    src, tgt, _, moves = _jumps(rm)
    reach = np.abs(tgt[moves] - src[moves])
    width = int(np.max(reach, initial=0))
    nnz = rm.n_states + reach.size
    p, terms, halvings, bound = _expm_uniformized(q, t, tol, width, nnz)
    defect = 1.0 - p.sum(axis=1)
    np.clip(defect, 0.0, 1.0, out=defect)
    return TransitionMatrix(
        rm.lo, rm.hi, t, p, defect, terms, halvings, bound, bool(bound <= tol)
    )


def _expm_uniformized(
    q: np.ndarray, t: float, tol: float, width: int, nnz: int
) -> Tuple[np.ndarray, int, int, float]:
    """exp(t q) with the series terms, halvings and truncation bound used.

    ``width`` bounds the jump width: q[i, j] == 0 whenever |i - j| > width.
    ``nnz`` bounds the number of nonzero entries of B = I + q/lam.
    """
    n_states = q.shape[0]
    lam = _max_exit_rate(q)
    if t == 0.0 or lam == 0.0:
        return np.eye(n_states), 0, 0, 0.0
    halvings = 0
    while lam * t / (2.0 ** halvings) > 64.0:
        halvings += 1
    step_tol = max(tol / (2.0 ** halvings), 1e-15)
    a = lam * t / (2.0 ** halvings)
    weight = math.exp(-a)
    weights = [weight]
    covered = weight
    k = 0
    k_max = int(a + 40.0 * math.sqrt(a + 1.0)) + 100
    while covered < 1.0 - step_tol and k < k_max:
        k += 1
        weight *= a / k
        weights.append(weight)
        covered += weight
    b = q / lam
    b.reshape(-1)[:: n_states + 1] += 1.0  # B = I + q/lam
    # x <- B x + w_j I from x = w_k I down to j = 0
    x, spare = np.zeros((n_states, n_states)), np.zeros((n_states, n_states))
    x.reshape(-1)[:: n_states + 1] = weights[k]
    if nnz <= SPARSE_DENSITY * n_states * min(n_states, 2 * width + BLOCK_ROWS):
        b = scipy.sparse.csr_array(b)
        for w_j in reversed(weights[:k]):
            x = b @ x
            x.reshape(-1)[:: n_states + 1] += w_j
    else:
        # After i steps x has band i*width; the spare buffer holds x from
        # two steps back, whose narrower band lies inside every block's
        # window, so writing the window clears it.  When a block reads
        # every row, one block is used.
        rows = n_states if 2 * width + BLOCK_ROWS >= n_states else BLOCK_ROWS
        band = 0
        for w_j in reversed(weights[:k]):
            band = min(band + width, n_states)
            for r0 in range(0, n_states, rows):
                r1 = min(r0 + rows, n_states)
                c0, c1 = max(r0 - width, 0), min(r1 + width, n_states)
                d0, d1 = max(r0 - band, 0), min(r1 + band, n_states)
                np.matmul(b[r0:r1, c0:c1], x[c0:c1, d0:d1], out=spare[r0:r1, d0:d1])
            spare.reshape(-1)[:: n_states + 1] += w_j
            x, spare = spare, x
    for _ in range(halvings):
        np.matmul(x, x, out=spare)
        x, spare = spare, x
    # the Poisson mass beyond term k, free of the rounding in `covered`
    bound = 2.0 ** halvings * float(scipy.special.pdtrc(k, a))
    return x, k, halvings, bound


def check_stochastic_dominance(
    tm: TransitionMatrix, tol: float = DUALITY_TOL
) -> DominanceReport:
    """Verify that the transition rows are stochastically ordered.

    For every adjacent pair of start states and every threshold, the
    probability of sitting at or above the threshold must be nondecreasing
    in the start state (killed mass counts below every threshold).
    """
    p = tm.P
    n_states = p.shape[0]
    if n_states < 2:
        return DominanceReport(True, tm.t, tol, 0, 0.0, (tm.lo, tm.lo))
    tails = _tail_sums(p)
    deficit = tails[:-1, :] - tails[1:, :]
    i, l = np.unravel_index(np.argmax(deficit), deficit.shape)
    worst = float(deficit[i, l])
    return DominanceReport(
        ok=worst <= tol,
        t=tm.t,
        tol=tol,
        checked=deficit.size,
        max_violation=max(worst, 0.0),
        at=(tm.lo + int(i), tm.lo + int(l)),
    )


def verify_duality(
    rm: RateMatrix,
    t: float,
    margin: Optional[int] = None,
    tol: float = DUALITY_TOL,
    dual: Optional[RateMatrix] = None,
) -> DualityReport:
    """Compare both sides of the duality identity at time t.

    The forward side is P(X_t >= y | X_0 = x); the dual side is
    P(Y_t <= x | Y_0 = y), with killed paths scoring zero on both sides.
    The report carries the sup discrepancy over the margin-trimmed box of
    start pairs (margin defaults to a quarter of the window, the
    conventional guard for duals obtained by truncation) and over the full
    window.  The dual built here is exact on the window, so the two sups
    agree to numerical precision.
    """
    n_states = rm.n_states
    if margin is None:
        margin = math.ceil(n_states / 4)
    margin = max(0, min(int(margin), (n_states - 1) // 2))
    if dual is None:
        dual = dual_qmatrix(rm)
    p_fwd = transition_matrix(rm, t).P
    p_dual = transition_matrix(dual, t).P
    fwd_tails = _tail_sums(p_fwd)  # [x, y] = P(X_t >= y)
    dual_cum = np.cumsum(p_dual, axis=1)  # [y, x] = P(Y_t <= x)
    disc = np.abs(fwd_tails - dual_cum.T)
    sup_full = float(disc.max())
    box = disc[margin : n_states - margin, margin : n_states - margin]
    bx, by = np.unravel_index(np.argmax(box), box.shape)
    sup_margin = float(box[bx, by])
    return DualityReport(
        ok=sup_margin <= tol,
        t=float(t),
        margin=margin,
        tol=tol,
        sup_margin=sup_margin,
        sup_full=sup_full,
        at=(rm.lo + margin + int(bx), rm.lo + margin + int(by)),
    )


def _sorted_columns(rm: RateMatrix) -> Tuple[list, list, list]:
    """States, offsets and rates as lists, ordered by (n, m)."""
    order = np.lexsort((rm.m, rm.src))
    return (rm.src[order] + rm.lo).tolist(), rm.m[order].tolist(), rm.rate[order].tolist()


def ratematrix_to_dict(rm: RateMatrix) -> dict:
    rates = [{"n": n, "m": m, "rate": r} for n, m, r in zip(*_sorted_columns(rm))]
    return {"lo": rm.lo, "hi": rm.hi, "boundary": rm.boundary, "rates": rates}


_RATE_ENTRY = '    {\n      "n": %d,\n      "m": %d,\n      "rate": %r\n    }'


def ratematrix_to_json(rm: RateMatrix) -> str:
    """``json.dumps(ratematrix_to_dict(rm), indent=2)``, byte for byte.

    One %-format per rate: keys are ints and rates are floats, whose
    ``repr`` is what json writes.  A table holding a non-finite rate (json
    writes NaN, Infinity) goes through json itself.
    """
    if not np.isfinite(rm.rate).all():
        return json.dumps(ratematrix_to_dict(rm), indent=2)
    body = ",\n".join([_RATE_ENTRY % e for e in zip(*_sorted_columns(rm))])
    return '{\n  "lo": %d,\n  "hi": %d,\n  "boundary": %s,\n  "rates": %s\n}' % (
        rm.lo, rm.hi, json.dumps(rm.boundary), "[\n" + body + "\n  ]" if body else "[]")


def ratematrix_from_dict(obj: dict) -> RateMatrix:
    if not isinstance(obj, dict):
        raise InputFormatError(f"expected a mapping, got {type(obj).__name__}")
    missing = {"lo", "hi", "boundary", "rates"} - set(obj)
    if missing:
        raise InputFormatError(f"missing keys: {sorted(missing)}")
    entries = obj["rates"]
    if not isinstance(entries, list):
        raise InputFormatError("'rates' must be a list of {n, m, rate} entries")
    n, m, rate = ([e.get(k) if isinstance(e, dict) else None for e in entries]
                  for k in ("n", "m", "rate"))
    table = _Columns(n, m, rate, lambda i: repr(entries[i]))
    return RateMatrix(obj["lo"], obj["hi"], obj["boundary"], table)
