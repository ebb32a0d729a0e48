"""Rate matrices on integer windows: monotonicity checks and Siegmund-type duals.

A continuous-time chain on the window ``[lo, hi]`` is described by its
off-diagonal jump rates.  Raw rates may target states outside the window;
a boundary policy decides what the effective generator does with that mass.
Everything else in the module (monotonicity criteria, dual construction,
transition matrices, duality verification) operates on that effective
generator, held as its sorted nonzero entries (``_generator_entries``,
kept on the chain as its row table ``_rows``), so the policy is applied in
exactly one place.  Only transition matrices and the public
``effective_generator`` are N x N arrays.

Killed mass is accounted as a jump to an absorbing cemetery sitting below
every state.  That convention makes the two monotonicity criteria (tail
sums of the generator rows, and per-offset jump-rate conditions) agree
verdict-for-verdict on substochastic matrices, and it matches how the
Monte Carlo routines score killed paths.
"""

from __future__ import annotations

import json
import math
import weakref
from collections.abc import Sequence
from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Tuple

import numpy as np

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

# Poisson series in the uniformized exponential is cut once the Poisson
# mass past the last term is at most this; see transition_matrix.
EXPM_TOL = 1e-12

# Uniformization holds B as tiles of this many rows, each against only the
# rows and columns of the iterate its band can reach, and multiplies all
# tiles of a series term in one stacked product.
TILE_ROWS = 8

# ... unless at most this share of the entries in those tiles is nonzero;
# B is then multiplied as a sparse (CSR) matrix.  Far entries widen every
# tile: the dual of a killing chain has kill-rate steps in far columns.
SPARSE_DENSITY = 0.05

RATE_HEADROOM = 2.0 ** 1020  # a table's rates sum below it: no sum or difference overflows
SIZE_BUDGET = 2 ** 30  # bytes of one array that a window, count or mesh sizes


def _check_size(count, what: str) -> None:
    """Refuse ``count`` 8-byte items past SIZE_BUDGET (InputFormatError), before allocating."""
    if not count * 8 <= SIZE_BUDGET:
        raise InputFormatError(f"{count} {what} exceed the size bound {SIZE_BUDGET // 8}")


class _Columns(NamedTuple):
    """A rate table on its way into RateMatrix; ``entry(i)`` names entry i."""

    n: Sequence
    m: Sequence
    rate: Sequence
    entry: Callable[[int], str] = str


def _column(values: Sequence, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """``values`` as a column, and the mask of entries that are not ``dtype`` numbers.

    A column without bools that numpy reads as a dtype casting safely to
    ``dtype`` takes one step.  Any other goes entry by entry into an object
    column, where an integer past int64 keeps its value and a rejected
    entry, a bool among them, reads as 0.
    """
    try:
        col = np.asarray(values) if len(values) else np.zeros(0, dtype)
    except ValueError:  # ragged: some entry is a sequence
        col = np.empty(0, dtype=object)
    bools = (values.dtype == bool if isinstance(values, np.ndarray)
             else bool in set(map(type, values)))
    if col.shape == (len(values),) and np.can_cast(col.dtype, dtype) and not bools:
        return col.astype(dtype, copy=False), np.zeros(col.size, dtype=bool)
    kind = int if dtype == np.int64 else float
    col = np.array([_number(v, kind) for v in values], dtype=object)
    bad = np.equal(col, None)
    col[bad] = 0
    return col, bad


def _read_only(value: tuple) -> tuple:
    """``value`` with its arrays made read-only: every later reader gets the same ones."""
    for item in value:
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
    return value


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

    The constructor is the one place that judges a table, and raises for
    the first bad entry in table order.  Edges and states are integers
    (``int(v) == v``) within int64, and the edges bound a nonempty window
    (else InputFormatError).  Offsets are integers other than 0, of any
    size, and no (n, m) repeats (else InputFormatError).  Rates are finite
    (else InputFormatError) and nonnegative (else NegativeRate); -0.0 is
    0.  The rates sum below RATE_HEADROOM, 2**1020 (else InputFormatError),
    so no exit or kill rate, nor any sum or difference of them, overflows.
    The window's size is judged only where an array spans it (see
    SIZE_BUDGET).  The table is kept as read-only columns in table order:
    ``src = n - lo`` (int64), ``m`` (int64, object past int64) and ``rate``.

    A chain never changes, so what the functions of this module derive from
    it is built on first use and kept on it, read-only.  Two values are
    ``cached_property``s, as ``rates`` is: the effective generator's row
    table (``_rows``) and the tail sums of adjacent rows that
    ``check_monotone`` and ``dual_qmatrix`` read (``_breaks``).  They take
    at most (28 N + 19 nnz) x 8 bytes for N states and nnz generator
    entries (2.6 MB for a 6400-state birth-death chain).  One slot keeps
    the last uniformized exponential and its (t, tol): a band result
    (O(N K)) itself, a dense N x N one only by weak reference, so it is
    freed once no caller holds it.  Another (t, tol) replaces the slot.
    A copy or a pickle keeps none of it.
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
        if not -2 ** 63 <= lo <= hi < 2 ** 63:
            raise InputFormatError(f"window [{lo}, {hi}] is empty or reaches past int64")
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
        rate = rate.astype(float, copy=False)
        bad, jump0, outside = bad_n | bad_m | bad_r, m == 0, (n < lo) | (n > hi)
        order = np.lexsort((m, n))  # stable: a repeat follows the first (n, m)
        a, b = order[:-1], order[1:]
        repeat = np.zeros(n.size, dtype=bool)
        repeat[b[(n[a] == n[b]) & (m[a] == m[b])]] = True
        malformed = bad | jump0 | outside | repeat | ~np.isfinite(rate)
        failed = malformed | (rate < 0.0)
        if failed.any():
            i = int(np.argmax(failed))
            if not malformed[i]:
                raise NegativeRate(int(n[i]), int(m[i]), float(rate[i]))
            raise InputFormatError(
                f"bad rate entry {table.entry(i)}" if bad[i]
                else f"offset 0 at state {n[i]} is not a jump" if jump0[i]
                else f"source state {n[i]} outside window [{lo}, {hi}]" if outside[i]
                else f"duplicate rate entry for ({n[i]}, {m[i]})" if repeat[i]
                else f"rate at ({n[i]}, {m[i]}) is not finite: {float(rate[i])!r}"
            )
        with np.errstate(over="ignore"):
            total = rate.sum()
        if not total < RATE_HEADROOM:
            raise InputFormatError(f"the rates sum to {float(total)!r}, past the headroom 2**1020")
        columns = _read_only(((n - lo).astype(np.int64), m, rate))
        for name, value in zip(("lo", "hi", "src", "m", "rate"), (lo, hi, *columns)):
            object.__setattr__(self, name, value)

    @cached_property
    def rates(self) -> Mapping[Tuple[int, int], float]:
        """Read-only ``(n, m) -> rate`` mapping in table order, assembled on first read."""
        keys = zip((self.src + self.lo).tolist(), self.m.tolist())
        return MappingProxyType(dict(zip(keys, self.rate.tolist())))

    @cached_property
    def _rows(self) -> _Rows:
        """The effective generator's row table, built on first read; see _generator_entries."""
        return _read_only(_generator_entries(self))

    @cached_property
    def _breaks(self) -> _Breaks:
        """The tail sums of adjacent generator rows, built on first read; see _tail_breaks."""
        return _read_only(_tail_breaks(self))

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

    ``kind`` is ``"tail"`` (tail sums of the two generator rows; ``index``
    is the threshold state, condition lhs <= rhs), ``"up"`` (per-offset
    upward condition at jump width ``index``, lhs <= rhs) or ``"down"``
    (per-offset downward condition at width ``index``, where lhs is the
    available down-mass from n and the condition is lhs >= rhs).
    ``deficit`` is always the positive violation magnitude.
    """

    n: int
    kind: str
    index: int
    lhs: float
    rhs: float
    deficit: float

    def to_dict(self) -> dict:
        return asdict(self)


_KINDS = ("tail", "up", "down")


class _Violations(Sequence):
    """Violations kept as columns; Violation objects are made when read.

    Row j is the pair ``lo + pair[j]``, of kind ``_KINDS[kind[j]]``, with
    ``index[j]`` its threshold state less ``lo`` ("tail") or its jump width.
    A slice makes the Violations of that slice only.
    """

    def __init__(self, lo: int, pair, kind, index, lhs, rhs, deficit):
        self.lo = lo
        self.columns = (pair, kind, index, lhs, rhs, deficit)

    def __len__(self) -> int:
        return self.columns[0].size

    def __getitem__(self, i):
        if isinstance(i, slice):
            pair, kind, index, lhs, rhs, deficit = (col[i].tolist() for col in self.columns)
            lo = self.lo
            return [Violation(lo + p, _KINDS[k], lo + x if k == 0 else x, a, b, d)
                    for p, k, x, a, b, d in zip(pair, kind, index, lhs, rhs, deficit)]
        j = range(len(self))[i]
        return self[j : j + 1][0]

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self[:] == list(other)

    def __repr__(self) -> str:
        return repr(self[:])

    @property
    def max_deficit(self) -> float:
        """The largest deficit, the first of equals, as ``max`` reads it; 0.0 if none."""
        deficit = self.columns[5]
        return float(deficit[np.argmax(deficit)]) if deficit.size else 0.0

    @staticmethod
    def concat(lo: int, parts: Sequence["_Violations"]) -> "_Violations":
        return _Violations(lo, *map(np.concatenate, zip(*(v.columns for v in parts))))


@dataclass
class MonotonicityReport:
    ok: bool
    method: str
    tol: float
    checked: int
    max_deficit: float
    violations: Sequence[Violation] = field(default_factory=list)
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
    killed mass, so each row of P sums to ``1 - defect[i]``.  P is
    read-only: it may be the exponential that the chain keeps while P is
    alive (see RateMatrix), which ``verify_duality`` then reuses.

    ``terms`` and ``halvings`` say how the exponential was computed (Poisson
    series terms per step, and squarings of the step); ``error_bound`` is
    the truncation bound actually achieved, 2**halvings times the Poisson
    mass the series left out.  On a chain that kills nothing, whose true
    rows sum to 1, it is at least the largest defect: the mass lost to
    rounding in the squarings is an error the truncation bound leaves out.
    ``tol_met`` says whether ``error_bound`` is within the requested
    tolerance.  Rounding is not included otherwise, and the observed error
    can exceed the bound.
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
            "error_bound": self.error_bound,
            "tol_met": self.tol_met,
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
    """A small summary of the table's effective generator.

    A table that is not valid (a bad window, an offset 0, a negative or
    non-finite rate) was rejected by the RateMatrix constructor; a window
    past the size bound raises InputFormatError here (see SIZE_BUDGET).
    """
    rows = rm._rows
    return {
        "n_states": rm.n_states,
        "n_rates": rm.rate.size,
        "max_exit_rate": float(np.max(rows.exit, initial=0.0)),
        "conservative": bool(np.all(rows.kill == 0.0)),
        "total_kill_rate": float(rows.kill.sum()),
    }


class _Rows(NamedTuple):
    """The effective generator row by row; see _generator_entries.

    Row i's entries are the ``counts[i]`` from ``start[i]`` on, and no
    entry is more than ``width`` columns off the diagonal.
    """

    src: np.ndarray
    tgt: np.ndarray
    rate: np.ndarray
    exit: np.ndarray
    kill: np.ndarray
    counts: np.ndarray
    start: np.ndarray
    width: int


def _generator_entries(rm: RateMatrix) -> _Rows:
    """The effective generator as a row table: O(nnz) memory, no N x N array.

    The off-diagonal entries ``q[src, tgt] = rate``, in window indices,
    sorted by (src, tgt), each a sum of the rates that land on it in
    rate-table order; then the exit rate ``-q[i, i]`` and the kill rate of
    every state, summed in the same order.  Under "kill" a jump whose
    target leaves the window is killed mass; the other policies clamp
    targets to the edges and drop a jump clamped onto its own source.
    """
    n_states = rm.n_states
    _check_size(n_states, "window states")
    r = rm.rate
    nonzero = r != 0.0
    src, r = rm.src[nonzero], r[nonzero]
    # cutting offsets to the window width moves no target into or out of the
    # window, keeps src + offset far from int64 overflow and makes them int64
    tgt = src + np.clip(rm.m[nonzero], -n_states, n_states).astype(np.int64, copy=False)
    # bincount adds its weights in order, so every sum runs in table order
    if rm.boundary == "kill":
        moves = (tgt >= 0) & (tgt < n_states)
        kill = np.bincount(src[~moves], weights=r[~moves], minlength=n_states)
        exits = slice(None)
    else:
        tgt = np.clip(tgt, 0, n_states - 1)
        moves = tgt != src
        if rm.boundary == "absorb":
            # the edge states are frozen: their rows of q are zero
            moves &= (src != 0) & (src != n_states - 1)
        kill = np.zeros(n_states)
        exits = moves
    exit_rate = np.bincount(src[exits], weights=r[exits], minlength=n_states)
    # astype, here and for `rate`: the bincount of no entries is an integer array
    kill, exit_rate = kill.astype(float, copy=False), exit_rate.astype(float, copy=False)
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
    rate = np.bincount(slot, weights=r).astype(float, copy=False)
    del slot, r
    src, tgt = np.divmod(key[first], n_states)
    counts = np.bincount(src, minlength=n_states)
    width = int(np.max(np.abs(tgt - src), initial=0))
    return _Rows(src, tgt, rate, exit_rate, kill, counts, np.cumsum(counts) - counts, width)


def effective_generator(rm: RateMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Dense generator and kill-rate vector induced by the boundary policy.

    Returns ``(q, kill)`` where ``q`` is (N, N) with row sums ``-kill``: a
    dense view of the chain's row table (see _generator_entries).  The
    kill vector is nonzero only under the "kill" policy.  Rates that land
    on one entry are summed in rate-table order.  Only an N x N array past
    the size bound raises (see SIZE_BUDGET).
    """
    n_states = rm.n_states
    _check_size(n_states * n_states, "generator entries")
    src, tgt, rate, exit_rate, kill = rm._rows[:5]
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


class _Breaks(NamedTuple):
    """Tail sums of each generator row k and of row k - 1, where both are constant.

    Row k's thresholds split into intervals ``[s, c]`` of ``[0, N - 1]`` at
    the targets of rows k - 1 and k and at k - 1, k and N - 1, so ``[k, k]``
    is an interval of its own.  Two sums of a row are kept at each interval:
    ``tail`` is ``T[r, l] = sum_{j >= l} q[r, j]``, diagonal included, and
    ``off`` sums off-diagonal rates only, as ``-kill_r - sum_{j < l} q[r, j]``
    for l <= r and ``sum_{j >= l} q[r, j]`` for l > r.  ``_up`` is row k - 1
    (read as zero for k = 0) and ``_lo`` row k; ``before_lo`` is the sum of
    row k to the left of l.  The intervals are in (k, c) order, and
    ``first`` is where k = 1 begins.

    Every sum runs over a row's nonzero entries in the direction the
    cumulative sum of the dense row takes, right to left for tails and left
    to right before l; a dense sum adds only +0.0 besides, which changes no
    bit, so each value equals the dense one.
    """

    k: np.ndarray
    s: np.ndarray
    c: np.ndarray
    tail_up: np.ndarray
    tail_lo: np.ndarray
    off_up: np.ndarray
    off_lo: np.ndarray
    before_lo: np.ndarray
    first: int


def _tail_breaks(rm: RateMatrix) -> _Breaks:
    """The tail sums of adjacent generator rows; see _Breaks.  The per-row
    tables hold N x (widest row + 2) values, refused past the size bound."""
    src, tgt, rate, exit_rate, kill, counts, start, _ = rm._rows
    n = rm.n_states
    key = src * n + tgt
    rank = np.arange(src.size) - start[src]
    below = tgt < src
    width = int(counts.max(initial=0)) + 2
    _check_size(n * width, "tail-sum table entries")
    # Padded per-row tables with a leading 0.0, flat: position
    # row[r] + p of prefix sums the first p entries of row r from the
    # left, and of suffix the last p from the right, the diagonal
    # 0.0 - exit_r counted among them.
    row = np.arange(n) * width
    prefix, suffix = np.zeros((n, width)), np.zeros((n, width))
    prefix.ravel()[row[src] + rank + 1] = rate
    suffix.ravel()[row[src] + counts[src] - rank + below] = rate
    upper = counts - np.bincount(src[below], minlength=n)
    suffix.ravel()[row + upper + 1] = 0.0 - exit_rate
    np.cumsum(prefix, axis=1, out=prefix)
    np.cumsum(suffix, axis=1, out=suffix)
    prefix, suffix = prefix.ravel(), suffix.ravel()
    del src, tgt, rate, rank, below, upper

    # interval ends of row k as keys k * n + c: three sorted runs, which
    # a stable sort merges
    k = np.arange(n)
    ends = np.stack([np.maximum(k - 1, 0), k, np.full(n, n - 1)], axis=1)
    ends += k[:, None] * n
    keys = np.concatenate([ends.ravel(), key, key[key < (n - 1) * n] + n])
    del ends
    keys.sort(kind="stable")
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    del new
    k, c = np.divmod(keys, n)
    s = np.zeros_like(c)
    s[1:] = c[:-1] + 1
    s[s == n] = 0
    first = int(np.searchsorted(k, 1))

    def sums(r, cols, query):
        # p: the entries of row r left of the threshold
        p = np.searchsorted(key, query)
        p -= start[r]
        left = cols <= r
        before = prefix[row[r] + p]
        tail = suffix[row[r] + counts[r] - p + left]
        return before, tail, np.where(left, -kill[r] - before, tail)

    before_lo, tail_lo, off_lo = sums(k, c, keys)
    tail_up, off_up = np.zeros(keys.size), np.zeros(keys.size)
    _, tail_up[first:], off_up[first:] = sums(k[first:] - 1, c[first:], keys[first:] - n)
    return _Breaks(k, s, c, tail_up, tail_lo, off_up, off_lo, before_lo, first)


def _runs(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For runs of these lengths laid end to end: each element's run, and its place in it."""
    run = np.repeat(np.arange(lengths.size), lengths)
    at = np.arange(run.size)
    at -= (np.cumsum(lengths) - lengths)[run]
    return run, at


def check_monotone(
    rm: RateMatrix, tol: float = MONO_RTOL, method: str = "both"
) -> MonotonicityReport:
    """Decide stochastic monotonicity of the effective generator.

    Two independent routes are implemented.  "tails" compares, for every
    adjacent pair of states and every threshold other than the one that
    separates the pair, the tail sums of the two generator rows.
    "offsets" checks the per-jump-width conditions on the rate table (one
    family for upward widths, one for downward widths, with killed mass
    counted as a downward jump past every threshold).  The two are
    rearrangements of each other; "both" runs them both and records whether
    the verdicts agree.

    ``tol`` is relative: each pair's conditions are slack by
    ``tol * max(local exit rates)``.

    A row's tail sums change only at its targets, so each pair is compared
    once per interval of thresholds on which both rows' sums are constant:
    O(nnz) work and memory, plus the violations found.  A non-finite or
    negative ``tol`` raises InputFormatError.
    """
    _nonnegative(tol, "tolerance")
    if method == "tails":
        return _check_tails(rm, tol)
    if method == "offsets":
        return _check_offsets(rm, tol)
    if method != "both":
        raise InputFormatError(f"unknown method {method!r}")
    rep_t = _check_tails(rm, tol)
    rep_o = _check_offsets(rm, tol)
    report = _report("both", tol, rep_t.checked + rep_o.checked,
                     _Violations.concat(rm.lo, (rep_t.violations, rep_o.violations)))
    report.agreement = rep_t.ok == rep_o.ok
    return report


def _report(method: str, tol: float, checked: int, violations: _Violations) -> MonotonicityReport:
    return MonotonicityReport(
        not violations, method, tol, checked, violations.max_deficit, violations)


def _pairs(rm: RateMatrix, tol: float):
    """The chain's tail sums, the intervals of rows k >= 1, and the slack of each one's pair."""
    b, exit_rate = rm._breaks, rm._rows.exit
    at = slice(b.first, None)
    with np.errstate(over="ignore"):  # an infinite slack admits every pair
        thr = tol * np.maximum(exit_rate[:-1], exit_rate[1:])
    return b, b.k[at], b.s[at], b.c[at], thr[b.k[at] - 1], at


def _check_tails(rm: RateMatrix, tol: float) -> MonotonicityReport:
    n_states, lo = rm.n_states, rm.lo
    b, k, s, c, thr, at = _pairs(rm, tol)
    upper, lower = b.tail_up[at], b.tail_lo[at]
    deficit = upper - lower
    # c == k: the threshold separating the pair is exempt
    bad = np.flatnonzero((deficit > thr) & (c != k))
    run, step = _runs(c[bad] - s[bad] + 1)
    bad = bad[run]
    violations = _Violations(lo, k[bad] - 1, np.zeros(bad.size, dtype=np.int64),
                             s[bad] + step, upper[bad], lower[bad], deficit[bad])
    return _report("tails", tol, (n_states - 1) * (n_states - 1), violations)


def _check_offsets(rm: RateMatrix, tol: float) -> MonotonicityReport:
    n_states, lo = rm.n_states, rm.lo
    b, k, s, c, thr, at = _pairs(rm, tol)
    upper, lower = b.off_up[at], b.off_lo[at]
    # upward width l - i at thresholds l > i+1: mass from n jumping at
    # least that far up must be covered by mass from n+1 jumping one less
    up = (c > k) & (upper > lower + thr)
    # downward width i - l + 2 at thresholds l <= i: mass from n+1
    # jumping at least that far down, killing included, must be covered by
    # mass from n jumping one less; -off holds those masses
    down = (c < k) & (upper - thr > lower)
    bad = np.flatnonzero(up | down)
    # per pair: upward widths, then downward widths, each ascending
    bad = bad[np.lexsort((np.where(down[bad], -c[bad], c[bad]), down[bad], k[bad]))]
    run, step = _runs(c[bad] - s[bad] + 1)
    bad = bad[run]
    down = down[bad]
    i = k[bad] - 1
    l = np.where(down, c[bad] - step, s[bad] + step)
    upper, lower = upper[bad], lower[bad]
    violations = _Violations(
        lo, i, np.where(down, 2, 1), np.where(down, i - l + 2, l - i),
        np.where(down, -upper, upper), np.where(down, -lower, lower), upper - lower)
    return _report("offsets", tol, (n_states - 1) * (n_states - 1), violations)


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
    without killing is again a band-w chain.  Only those nonzero
    differences are formed: the work is O(nnz) plus the size of the dual.

    Off-diagonal dual entries are nonnegative exactly when the input is
    stochastically monotone.  The dual is substochastic in general: row y
    leaks at rate kill_hi + sum_{j < y} q[hi, j] (mass the top state sends
    below y), encoded as a jump past the top edge under the "kill" policy.
    For a conservative input the bottom dual row vanishes; when the input
    kills, row lo carries the kill-rate differences kill_{k-1} - kill_k,
    which the identity above requires, and so does every row y below the
    targets of forward rows k - 1 and k: where the kill rate steps, the
    dual has far entries.

    With ``require_monotone`` the input is checked first and NotMonotone is
    raised on failure; otherwise a genuinely negative dual rate (beyond
    ``tol`` times the exit-rate scale) raises DualRateNegative.  Either way,
    roundoff-scale negatives are clamped to zero.  The table lists the
    entries row by row, then the leaks.  A non-finite or negative ``tol``
    raises InputFormatError.
    """
    _nonnegative(tol, "tolerance")
    if require_monotone:
        report = _check_tails(rm, tol)
        if not report.ok:
            raise NotMonotone(report)
    n_states, b, exit_rate, kill = rm.n_states, rm._breaks, rm._rows.exit, rm._rows.kill
    # dual[y, k] = T[k, y] - T[k-1, y] for y in [s, c]; the diagonal is 0
    dual = b.off_lo - b.off_up
    dual[b.c == b.k] = 0.0
    thr = tol * float(np.max(exit_rate, initial=0.0))
    neg = np.flatnonzero(dual < -thr)
    if neg.size:
        # the first in row-major order
        at = neg[np.argmin(b.s[neg] * n_states + b.k[neg])]
        raise DualRateNegative(rm.lo + int(b.s[at]), rm.lo + int(b.k[at]), float(dual[at]))
    keep = np.flatnonzero(~(dual <= 0.0))
    run, step = _runs(b.c[keep] - b.s[keep] + 1)
    keep = keep[run]
    rows = b.s[keep] + step
    # the runs are in (k, y) order; sorting by y makes the table row-major
    order = np.argsort(rows, kind="stable")
    rows, cols, rate = rows[order], b.k[keep][order], dual[keep][order]
    del dual, keep, run, step, order

    # leak rate of dual row y: mass the top forward row sends below y,
    # accumulated from nonnegative terms so it can never go negative
    top = slice(int(np.searchsorted(b.k, n_states - 1)), None)
    leak = kill[n_states - 1] + b.before_lo[top]
    keep = np.flatnonzero(leak != 0.0)
    s, c = b.s[top][keep], b.c[top][keep]
    run, step = _runs(c - s + 1)
    leak_rows = s[run] + step
    rows = np.concatenate([rows, leak_rows])
    cols = np.concatenate([cols, np.full(leak_rows.size, n_states)])
    rate = np.concatenate([rate, leak[keep][run]])
    return RateMatrix(rm.lo, rm.hi, "kill", _Columns(rm.lo + rows, cols - rows, rate))


def _nonnegative(value: float, name: str) -> float:
    """``value`` as a float; one that is not finite or is negative is malformed input."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise InputFormatError(f"{name} must be finite and at least 0, got {value!r}")
    return value


def _jump_scale(lam: float, t: float) -> float:
    """lam * t, the mean number of uniformized jumps by the horizon t; one
    that overflows is malformed input."""
    lam_t = lam * t
    if not math.isfinite(lam_t):
        raise InputFormatError(f"lambda * t overflows: lambda={lam!r}, t={t!r}")
    return lam_t


def transition_matrix(rm: RateMatrix, t: float, tol: float = EXPM_TOL) -> TransitionMatrix:
    """Substochastic transition matrix exp(t q) of the effective generator.

    Computed by uniformization: with lam the largest exit rate and
    B = I + q/lam, the series sum_k Poisson(lam t)(k) B^k is cut at the
    first term past which the Poisson mass (scipy's ``pdtrc``) is at most
    tol; since the powers of B have sup-norm at most one, that mass bounds
    the error.  Time steps with lam * t above 64 are halved recursively and
    the result squared, with a correspondingly tightened series tolerance;
    every squaring clips its entries at 1, which none of exp(t q) exceeds.
    The series is summed backwards (Horner's rule), one stacked product per
    term: B is held as tiles of TILE_ROWS rows, each with only the columns
    that the widest jump inside the window reaches, and each tile reads
    only the rows and columns of the iterate that its band reaches.  So a
    chain with jumps of width w costs O(N^2 w) per term until the band
    fills, and no dense B is built.  While the final half-band K (terms
    times w) leaves TILE_ROWS + 2K < N, the iterate is held in band storage,
    O(N K) memory, and densified once at the end.  When at most
    SPARSE_DENSITY of the entries in those tiles is nonzero (a few far
    entries make the band wide), B is multiplied as a sparse matrix
    instead, at O(N nnz) per term.  The result reports the terms, halvings
    and the error bound achieved (see TransitionMatrix).  The exponential
    is kept on the chain (see RateMatrix), so a second call with the same
    ``t`` and ``tol``, or ``verify_duality`` at the default ``tol``, reuses
    it; a dense result is returned as ``P`` itself, read-only.  A
    non-finite ``t`` or ``tol``, or a negative one, raises InputFormatError.
    """
    t, tol = _nonnegative(t, "time"), _nonnegative(tol, "tolerance")
    p, half_band, terms, halvings, bound = _exponential(rm, t, tol)
    if half_band is not None:
        p = _densify(p)
        p.flags.writeable = False
    defect = 1.0 - p.sum(axis=1)
    np.clip(defect, 0.0, 1.0, out=defect)
    if not rm._rows.kill.any():  # rows that should sum to 1: their loss is error too
        bound = max(bound, float(defect.max()))
    return TransitionMatrix(
        rm.lo, rm.hi, t, p, defect, terms, halvings, bound, bool(bound <= tol)
    )


def _exponential(
    rm: RateMatrix, t: float, tol: float
) -> Tuple[np.ndarray, Optional[int], int, int, float]:
    """``_expm_uniformized(rm, t, tol)`` through the chain's one exponential slot.

    The slot holds a band result itself and a dense one by weak reference,
    so a dense matrix lives only while a caller holds it.  Another ``t`` or
    ``tol`` replaces the slot.  The matrix returned is read-only.
    """
    slot = rm.__dict__.get("_exponential")
    if slot is not None and slot[0] == (t, tol):
        held = slot[1]
        x = held() if isinstance(held, weakref.ref) else held
        if x is not None:
            return (x, *slot[2:])
    x, half_band, *rest = _expm_uniformized(rm, t, tol)
    x.flags.writeable = False
    held = weakref.ref(x) if half_band is None else x
    rm.__dict__["_exponential"] = ((t, tol), held, half_band, *rest)
    return (x, half_band, *rest)


def _expm_uniformized(
    rm: RateMatrix, t: float, tol: float
) -> Tuple[np.ndarray, Optional[int], int, int, float]:
    """exp(t q) with its half-band, and the series terms, halvings and truncation bound used.

    The result is the N x N matrix with half-band None, or, without
    halvings, its band with half-band K as _horner_tiled gives it; the
    identity (t = 0, or a chain that never moves) is a band of half-band 0.
    """
    # local: only transition matrices need pdtrc, so other commands skip its import
    import scipy.special

    src, tgt, rate, exit_rate, *_, width = rm._rows
    n_states = exit_rate.size
    nnz = n_states + src.size  # bounds the nonzero entries of B = I + q/lam
    lam = float(np.max(exit_rate, initial=0.0))
    if t == 0.0 or lam == 0.0:
        return np.ones((n_states, 1)), 0, 0, 0, 0.0
    lam_t = _jump_scale(lam, t)
    halvings = 0
    while lam_t / (2.0 ** halvings) > 64.0:
        halvings += 1
    step_tol = tol / (2.0 ** halvings)
    a = lam_t / (2.0 ** halvings)
    weight = math.exp(-a)
    weights = [weight]
    k = 0
    k_max = int(a + 40.0 * math.sqrt(a + 1.0)) + 100
    # the mass past term k is at least the next weight, so pdtrc is read
    # only once that weight is at most step_tol
    while k < k_max and (
        weight * a / (k + 1) > step_tol or scipy.special.pdtrc(k, a) > step_tol
    ):
        k += 1
        weight *= a / k
        weights.append(weight)
    # B = I + q/lam: the entries as q / lam, the diagonal as q / lam + 1
    b_rate, b_diag = rate / lam, (0.0 - exit_rate) / lam + 1.0
    if nnz <= SPARSE_DENSITY * n_states * min(n_states, 2 * width + TILE_ROWS):
        # local: only this branch needs scipy.sparse, so other commands skip its import
        import scipy.sparse

        _check_size(n_states * n_states, "transition matrix entries")
        # duplicate-free coordinates: the CSR array comes out in sorted order
        diagonal = np.arange(n_states)
        b = scipy.sparse.csr_array(
            (np.concatenate([b_rate, b_diag]),
             (np.concatenate([src, diagonal]), np.concatenate([tgt, diagonal]))),
            shape=(n_states, n_states),
        )
        x, half_band = np.zeros((n_states, n_states)), None
        x.reshape(-1)[:: n_states + 1] = weights[k]
        for w_j in reversed(weights[:k]):
            x = b @ x
            x.reshape(-1)[:: n_states + 1] += w_j
    else:
        x, half_band = _horner_tiled(src, tgt, b_rate, b_diag, width, weights)
    del b_rate, b_diag  # the chain keeps its entries; B's copy goes before the squarings
    if halvings:
        if half_band is not None:
            x, half_band = _densify(x), None
        spare = np.empty_like(x)
        for _ in range(halvings):
            np.matmul(x, x, out=spare)
            # clipped at 1: rounding past it would compound until it overflows
            x, spare = np.minimum(spare, 1.0, out=spare), x
        del spare
    # the Poisson mass beyond term k
    bound = 2.0 ** halvings * float(scipy.special.pdtrc(k, a))
    return x, half_band, k, halvings, bound


def _horner_tiled(
    src: np.ndarray, tgt: np.ndarray, b_rate: np.ndarray, b_diag: np.ndarray,
    width: int, weights: list,
) -> Tuple[np.ndarray, Optional[int]]:
    """sum_j weights[j] B^j by Horner's rule, one stacked product per term.

    B has the off-diagonal entries ``b_rate`` at (src, tgt), the diagonal
    ``b_diag`` and half-band ``width``.  It is held as tiles of TILE_ROWS
    rows: tile I is rows [I R, I R + R) and columns [I R - width,
    I R + R + width) of B, or every column when that window spans them.
    After j terms the iterate x has half-band b = j * width, so tile I
    needs only rows [I R - width, I R + R + width) and columns
    [I R - b, I R + R + b) of x, and writes its R rows over those columns.
    The windows of one term are a strided stack, so a term is one matmul.

    x and its spare live in buffers of row length ld: entry (i, j) sits
    at flat offset i ld + j past guard rows above the window, whose zeros
    keep every read inside the buffer.  When the tiles slide and the final
    half-band K leaves R + 2K < N, ld is R + 2K (band storage): row i's
    band runs along stride ld + 1, the write windows of two rows cannot
    overlap, and a read window meets only zeros outside a row's band; a
    few rows past the window hold the columns right of the last rows.
    Otherwise ld is N plus pad columns, which take the columns of a window
    that fall left of 0 (in the row above) or right of N - 1.  The pad is
    at most about N / 2, so once 2b + R outgrows it, every tile reads and
    writes every column.

    Returns ``(x, None)`` with x a contiguous N x N array, or in band
    storage ``(band, K)``: band is the (N, 2K + 1) view whose entry [i, d]
    is x[i, i + d - K], zero where that column is outside the window.
    """
    n = b_diag.size
    r = TILE_ROWS
    tiles_n = -(-n // r)
    rows = tiles_n * r  # tile rows, the last few past the window
    k = len(weights) - 1
    slide_rows = 2 * width + r < n
    lead = width if slide_rows else 0  # columns of a tile left of its first row
    cols = r + 2 * width if slide_rows else n
    half_band = min(k * width, n)
    banded = slide_rows and r + 2 * half_band < n
    if banded:
        # the windows slide at every band; the reads of the last tile reach
        # rows + K columns into its last row, which ld spans only past it
        b_slide = half_band
        ld = r + 2 * half_band
        tail_rows = (rows + half_band - 1) // ld
    else:
        _check_size(n * n, "transition matrix entries")
        # windows slide at bands up to b_slide: narrower than a row, and at
        # most n // 2 of pad per row
        b_slide = min(half_band, (n // 2 - (rows - n)) // 2, (n - r - 1) // 2)
        pad = 2 * b_slide + rows - n if b_slide >= width else 0
        ld, tail_rows = n + pad, 0
    top = lead + 1  # guard rows above the window
    i = np.concatenate([src, np.arange(n)])
    j = np.concatenate([tgt, np.arange(n)])
    tile = i // r
    tiles = np.zeros((tiles_n, r, cols))
    tiles[tile, i - tile * r, j - (tile * r - lead if slide_rows else 0)] = np.concatenate(
        [b_rate, b_diag])
    shape = (top + rows + lead + tail_rows, ld)
    x, spare = np.zeros(shape), np.zeros(shape)
    row_step = r * ld if slide_rows else 0
    diagonal = slice(top * ld, top * ld + n * (ld + 1), ld + 1)
    x.reshape(-1)[diagonal] = weights[k]
    band = 0
    for w_j in reversed(weights[:k]):
        band = min(band + width, n)
        if band <= b_slide:
            c0, c_len, c_step = -band, r + 2 * band, r
        else:
            c0, c_len, c_step = 0, n, 0
        np.matmul(
            tiles,
            _stack(x, (top - lead) * ld + c0, (tiles_n, cols, c_len), row_step + c_step),
            out=_stack(spare, top * ld + c0, (tiles_n, r, c_len), r * ld + c_step),
        )
        spare.reshape(-1)[diagonal] += w_j
        x, spare = spare, x
    del spare
    if banded:
        item = x.itemsize
        return np.ndarray((n, 2 * half_band + 1), x.dtype, x, (top * ld - half_band) * item,
                          ((ld + 1) * item, item)), half_band
    return x[top : top + n, :n].copy(), None


def _densify(band: np.ndarray) -> np.ndarray:
    """The N x N matrix whose entry (i, i + d - K) is band[i, d], zero off the band.

    One copy through a sheared view of a buffer K longer at each end: a
    column of the band outside the window lands beyond another row's band,
    as 2K < N, and carries the zero the band holds there.
    """
    n, w = band.shape
    k = w // 2
    _check_size(n * n, "transition matrix entries")
    buf = np.zeros(n * n + 2 * k)
    item = buf.itemsize
    np.ndarray(band.shape, buf.dtype, buf, 0, ((n + 1) * item, item))[...] = band
    return buf[k : k + n * n].reshape(n, n)


def _stack(buf: np.ndarray, start: int, shape: Tuple[int, int, int], step: int) -> np.ndarray:
    """Windows of the row-major 2-D ``buf`` as one 3-D array.

    Window I starts ``start + I * step`` elements into the buffer, and its
    rows are rows of the buffer.
    """
    item = buf.itemsize
    return np.ndarray(shape, buf.dtype, buf, start * item, (step * item, buf.strides[0], item))


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
    window, and ``at``, the first pair of the box in row order where the
    box sup is reached.  The dual built here is exact on the window, so the
    two sups agree to numerical precision.

    When both transition matrices come back in band storage (see
    transition_matrix), the sums are taken on the bands, in O(N K) time
    and memory for the wider half-band K; otherwise on the dense matrices.
    Both routes give the same report, bit for bit.  The two exponentials go
    through the chains' slots (see RateMatrix), so a forward one that
    ``transition_matrix`` made at the same ``t`` and the default tolerance,
    and that its caller still holds, is not computed again.  A non-finite
    ``t`` or ``tol``, or a negative one, raises InputFormatError.
    """
    t, tol = _nonnegative(t, "time"), _nonnegative(tol, "tolerance")
    n_states = rm.n_states
    if margin is None:
        margin = math.ceil(n_states / 4)
    margin = max(0, min(int(margin), (n_states - 1) // 2))
    if dual is None:
        dual = dual_qmatrix(rm)
    fwd, k_fwd = _exponential(rm, t, EXPM_TOL)[:2]
    bwd, k_bwd = _exponential(dual, t, EXPM_TOL)[:2]
    if k_fwd is not None and k_bwd is not None:
        sup_full, sup_margin, bx, by = _band_discrepancy(fwd, bwd, margin)
    else:
        # a densified band is private and summed in place; a dense matrix is
        # the slot's, which callers may hold, so its sums go to a new array.
        # Each source is dropped once summed: at most three N x N arrays are
        # alive, as while the dual is squared.
        p_dual = bwd if k_bwd is None else _densify(bwd)
        cum = np.cumsum(p_dual, axis=1, out=None if k_bwd is None else p_dual)
        del bwd, p_dual
        p_fwd = fwd if k_fwd is None else _densify(fwd)
        disc = np.empty_like(p_fwd) if k_fwd is None else p_fwd
        np.cumsum(p_fwd[:, ::-1], axis=1, out=disc[:, ::-1])  # [x, y] = P(X_t >= y)
        del fwd, p_fwd
        np.subtract(disc, cum.T, out=disc)  # cum[y, x] = P(Y_t <= x)
        np.abs(disc, out=disc)
        sup_full = float(disc.max())
        box = disc[margin : n_states - margin, margin : n_states - margin]
        bx, by = np.unravel_index(np.argmax(box), box.shape)
        sup_margin = float(box[bx, by])
    return DualityReport(
        ok=sup_margin <= tol,
        t=t,
        margin=margin,
        tol=tol,
        sup_margin=sup_margin,
        sup_full=sup_full,
        at=(rm.lo + margin + int(bx), rm.lo + margin + int(by)),
    )


def _band_discrepancy(
    fwd: np.ndarray, bwd: np.ndarray, margin: int
) -> Tuple[float, float, int, int]:
    """|P(X_t >= y | x) - P(Y_t <= x | y)| from the forward and dual bands.

    Returns the sup over all pairs, the sup over the box [margin, N -
    margin) of pairs and the first pair of the box (less margin) where it
    is reached.  With K the wider half-band, pairs |x - y| <= K are
    compared on the bands; for y < x - K both sides are row totals, the
    forward one of row x and the dual one of row y; for y > x + K both are
    0.  Every sum runs in the order the dense cumulative sums take, which
    add only +0.0 outside the bands, so every value is the dense one.
    """
    n = fwd.shape[0]
    k = max(fwd.shape[1], bwd.shape[1]) // 2
    w = 2 * k + 1
    # tails[x, d] = P(X_t >= x + d - k), summed right to left
    kf = fwd.shape[1] // 2
    tails = np.zeros((n, w))
    tails[:, k - kf : k + kf + 1] = fwd
    np.cumsum(tails[:, ::-1], axis=1, out=tails[:, ::-1])
    # cum[k + y, e] = P(Y_t <= y + e - k), summed left to right, between
    # k zero rows above and below
    kd = bwd.shape[1] // 2
    cum = np.zeros((n + 2 * k, w))
    cum[k : k + n, k - kd : k + kd + 1] = bwd
    np.cumsum(cum, axis=1, out=cum)
    total_fwd, total_bwd = tails[:, 0].copy(), cum[k : k + n, w - 1].copy()
    # the dual side of pair (x, x + d - k) is cum[x + d, 2k - d]: a sheared view
    item = cum.itemsize
    dual_side = np.ndarray((n, w), cum.dtype, cum, 2 * k * item, (w * item, (w - 1) * item))
    near = np.abs(np.subtract(tails, dual_side, out=tails), out=tails)
    del cum, dual_side
    d = np.arange(w)

    def restrict(lo: int, hi: int) -> None:
        # near pairs with y outside [lo, hi) read as 0.0, below every sup
        x = np.arange(min(n, lo + k))
        np.copyto(near[: x.size], 0.0, where=d < (lo + k - x)[:, None])
        x = np.arange(max(0, hi - k), n)
        np.copyto(near[n - x.size :], 0.0, where=d >= (hi + k - x)[:, None])

    def far(lo: int, hi: int) -> np.ndarray:
        # row maxima over lo <= y < x - k of rows x in [lo + k + 1, hi), from
        # the running min and max of the dual totals
        prefix = total_bwd[lo : max(lo, hi - k - 1)]
        fwd_x = total_fwd[lo + k + 1 : hi]
        return np.maximum(fwd_x - np.minimum.accumulate(prefix),
                          np.maximum.accumulate(prefix) - fwd_x)

    restrict(0, n)
    sup_full = float(max(near.max(), far(0, n).max(initial=0.0)))
    lo, hi = margin, n - margin
    restrict(lo, hi)
    row_max = near[lo:hi].max(axis=1)
    np.maximum(row_max[k + 1 :], far(lo, hi), out=row_max[k + 1 :])
    bx = int(np.argmax(row_max))
    sup_margin = float(row_max[bx])
    # the first y of row x: far pairs come before near ones
    x = lo + bx
    hit = np.flatnonzero(np.abs(total_fwd[x] - total_bwd[lo : max(lo, x - k)]) == sup_margin)
    if hit.size:
        return sup_full, sup_margin, bx, int(hit[0])
    d0 = max(0, lo + k - x)
    y = x + d0 - k + int(np.argmax(near[x, d0:] == sup_margin))
    return sup_full, sup_margin, bx, y - lo


def ratematrix_to_dict(rm: RateMatrix) -> dict:
    order = np.lexsort((rm.m, rm.src))
    columns = (rm.src[order] + rm.lo).tolist(), rm.m[order].tolist(), rm.rate[order].tolist()
    rates = [{"n": n, "m": m, "rate": r} for n, m, r in zip(*columns)]
    return {"lo": rm.lo, "hi": rm.hi, "boundary": rm.boundary, "rates": rates}


def ratematrix_to_json(rm: RateMatrix) -> str:
    """``json.dumps(ratematrix_to_dict(rm), indent=2)``, byte for byte.

    Built from the columns, sorted once by (n, m), in O(nnz) strings
    whatever the window: one entry head per state that has entries (it
    closes the entry before), one string per distinct offset and one
    ``repr`` (what json writes for a float) per distinct rate bit pattern,
    so -0.0 stays apart from 0.0.  They are gathered into one list with the
    document's head and tail and joined once.  The rates of a RateMatrix
    are finite, so the text is always strict JSON.
    """
    head = '{\n  "lo": %d,\n  "hi": %d,\n  "boundary": %s,\n  "rates": ' % (
        rm.lo, rm.hi, json.dumps(rm.boundary))
    nnz = rm.rate.size
    if not nnz:
        return head + "[]\n}"
    order = np.lexsort((rm.m, rm.src))
    src, m, rate = rm.src[order], rm.m[order], rm.rate[order]
    first = np.diff(src, prepend=-1) != 0  # src >= 0: entry 0 starts a state
    entry = '{\n      "n": %d,\n      "m": '
    states = ['\n    },\n    ' + entry % (s + rm.lo) for s in src[first].tolist()]
    offsets, at_m = np.unique(m, return_inverse=True)
    rates, at_r = np.unique(rate.view(np.int64), return_inverse=True)
    parts = np.empty(3 * nnz + 1, dtype=object)
    parts[0:-1:3] = np.array(states, dtype=object)[np.cumsum(first) - 1]
    parts[1::3] = np.array(['%d,\n      "rate": ' % v for v in offsets.tolist()],
                           dtype=object)[at_m]
    parts[2::3] = np.array(list(map(repr, rates.view(float).tolist())), dtype=object)[at_r]
    parts[0] = head + "[\n    " + entry % (int(src[0]) + rm.lo)
    parts[-1] = "\n    }\n  ]\n}"
    return "".join(parts.tolist())


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
