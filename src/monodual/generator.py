"""Jump-diffusion models on the line and their lattice discretizations.

A model is an operator

    L f(x) = G(x)/2 f''(x) + b(x) f'(x)
             + integral of [f(x+y) - f(x) - f'(x) y 1{|y| <= 1}] nu(x, dy)
             + integral of [f(x+y) - f(x)] mu(x, dy)

with diffusion coefficient G >= 0, drift b, a compensated jump kernel nu,
and an uncompensated kernel mu with finite first moment.  This module
validates such models (moment bounds, the linear-growth inequality),
checks the tail-monotonicity conditions that make the process
stochastically monotone, discretizes the operator onto an integer lattice
as a RateMatrix, truncates small jumps, and classifies the boundary point
of half-line models from declared asymptotic orders.

Every base measure and every kernel (a density in x and y, a state factor
times a fixed base measure, plain tail callbacks, or one of these with
small jumps cut off) is a ``_Measure``: a continuous part, given by
``_continuous_tails`` and ``_continuous_bins``, plus atoms at fixed sizes
with masses ``atom_masses``, on the arguments () of a base measure or the
states (x,) of a kernel.  It builds ``tails`` on (state, threshold)
arrays, the lumped ``far_tails`` and ``bin_masses`` on (state, bin) arrays
once, each adding the atoms first, then the continuous part.
``moments(weight, x)`` integrates a moment weight (``SMALL_WEIGHT``,
``ABS_WEIGHT``, ``BOUNDED_WEIGHT``, or ``overshoot_weight`` with one level
per state) over the kernel at every state of an array: atoms summed
exactly, the continuous part by one routine, ``_weight_integrals``, on the
Gauss-Legendre panels and qagi map of ``density_tails``, cut at the
weight's kinks.  A density is integrated against the weight, closed tails
against its derivative.  Tail callables follow one convention throughout:
the right tail at a is the mass of {y >= a} and the left tail the mass of
{y <= -a}, both for a >= 0, with closed-form tail callbacks covering the
continuous part only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    GrowthViolated,
    InputFormatError,
    MomentUnbounded,
    QuadratureFailure,
    TailMassUnresolved,
)
from ._expr import Expression, number, parse_expression
from .qmatrix import RateMatrix, _check_size, _Columns, _nonnegative

SUPPORT_SIGNS = ("both", "positive", "negative")

# Relative steps of central differences, h = scale * (1 + |x|): FD_SCALE
# for first derivatives of smooth coefficient functions, and the wider
# FD_SCALE_D2 for second derivatives, to keep roundoff out of f''.
FD_SCALE = 1e-5
FD_SCALE_D2 = 6e-4

# Slack for the floating-point comparison m*h <= 1 deciding whether a bin
# sits inside the unit ball (m*h can land a few ulp past an exact 1).
_BALL_EPS = 1e-9

# Density bins, tails and moments are integrated by Gauss-Legendre with 8
# and 16 nodes; a panel whose two values differ by more than this fraction
# of the whole integral is bisected.
_GL_NODES = (8, 16)
_GL_RTOL = 1e-13

# discretize builds its arrays for one block of states at a time: at most
# this many doubles per Gauss-Legendre node array (4 MB).
_BLOCK_BUDGET = 1 << 19

# More halves than this in one bisection level raise QuadratureFailure: a
# level's node arrays stay within the budget of a block's.
_MAX_PIECES = _BLOCK_BUDGET // _GL_NODES[-1]

# A piece narrower than this is not split: the nodes of its halves near 0
# would be subnormal floats, short of full precision.
_MIN_WIDTH = 2.0 ** 10 * np.finfo(float).tiny

# Bisection extrapolates a total from its steps over 1, 2, 4, ... and at
# most this many levels, when their ratio is at most _MAX_RATIO.  Near a
# singularity y^(-0.99) the rest shrinks by 0.993 per level, and only steps
# over 32 levels rise above the rounding of the totals at 1e-13; a ratio
# nearer 1 is not told apart from the ratio 1 of a divergent y^(-1), which
# gave 7e13 without the cap.
_MAX_STRIDE = 32
_MAX_RATIO = 0.999

# A total that cannot be bisected further is taken from its best
# extrapolation if that agreed to this many bounds: 1e-9 of the integral
# of |f| at the first pass's 1e-13.  Near a singularity away from 0, f
# carries the rounding of y, which grows like 1/width, and the limits of
# _geometric_rest agree no better than 50 bounds for (1-y)^(-0.9) and 6,100
# for (1-y)^(-0.99).  (1-y)^(-0.9) e^(-y), whose steps are two geometric
# series, needs 70,000 and is 7e-8 off there, so it fails.
_REST_SLACK = 1e4

# Panel edges in s of _side_integral: 2^(-k/2) for k = 16..0, and 0.  On
# tails c e^(-beta z) with beta in [0.8, 3] and a in [0, 4], every panel
# passes the 8/16 check and the error is below 2e-15 relative; dyadic
# edges 2^-k fail a fifth of the checks there.
_TAIL_BREAKS = np.concatenate(([0.0], 2.0 ** (-np.arange(16, -1, -1) / 2.0)))


def _evaluate(fn: Callable, *args) -> np.ndarray:
    """``fn`` on the broadcast of its array arguments, as float64; scalar
    arguments give a 0-d value.

    A compiled ``Expression`` runs once on the whole arrays, and a constant
    one broadcasts.  It runs under np.errstate(all="ignore"): a division by
    zero gives inf or NaN without a warning, and callers check for finite
    values.  Any other callable is called element by element on Python
    floats.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    if isinstance(fn, Expression):
        with np.errstate(all="ignore"):
            return np.broadcast_to(np.asarray(fn(*args), dtype=float), shape)
    flat = [np.ravel(a).tolist() for a in np.broadcast_arrays(*args)]
    return np.array([float(fn(*v)) for v in zip(*flat)], dtype=float).reshape(shape)


def _bad_coefficient(name: str, x: np.ndarray, v: np.ndarray, nonnegative: bool):
    """(row, InputFormatError) for the first x where the coefficient values v
    are not finite, or negative when they must not be; None if there is none."""
    bad = ~np.isfinite(v)
    if nonnegative:
        bad |= v < 0.0
    if not bad.any():
        return None
    r = int(np.argmax(bad))
    what = "negative" if math.isfinite(v[r]) else "not finite"
    return r, InputFormatError(f"{name} is {what} at x={float(x[r])}")


def _coefficient_values(name: str, x: np.ndarray, v: np.ndarray,
                        nonnegative: bool = False) -> np.ndarray:
    """v, after raising the InputFormatError of _bad_coefficient if any."""
    bad = _bad_coefficient(name, x, v, nonnegative)
    if bad is not None:
        raise bad[1]
    return v


@functools.cache
def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the Legendre recurrence from the cosine guesses.
    numpy's leggauss runs an eigensolver instead, which pages in 0.8 MB of
    LAPACK that nothing else in a model pipeline uses.
    """
    x = np.cos(np.pi * (np.arange(nodes, 0, -1) - 0.25) / (nodes + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(nodes), x
        for k in range(2, nodes + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = nodes * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def gauss_rules(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Legendre with 8 and 16 nodes of ``f`` over panels [lo, hi].

    ``f`` takes an array of points with one more axis than the broadcast of
    lo and hi: it runs once, on the nodes of both rules.  Returns, per
    panel, the 16-node integral of f, its distance to the 8-node one, the
    16-node integral of |f|, and f at the 16 nodes.
    """
    (x8, w8), (x16, w16) = (_gauss_legendre(nodes) for nodes in _GL_NODES)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    v = f(mid[..., None] + half[..., None] * np.concatenate((x8, x16)))
    if not (half > 0.0).all():  # an empty panel adds 0, even where f is not finite
        v = np.where((half > 0.0)[..., None], v, 0.0)
    with np.errstate(all="ignore"):  # f not finite: callers check the sums
        low, v = half * (v[..., :x8.size] * w8).sum(axis=-1), v[..., x8.size:]
        high = half * (v * w16).sum(axis=-1)
        size = half * (np.abs(v) * w16).sum(axis=-1)
        return high, np.abs(high - low), size, v


@functools.cache
def _end_weights() -> np.ndarray:
    """The 16 x 2 matrix that takes f at the 16 Gauss-Legendre nodes to the
    values at -1 and +1 of the polynomial through them."""
    x = _gauss_legendre(_GL_NODES[-1])[0]
    diff = x[:, None] - x
    np.fill_diagonal(diff, 1.0)
    # Lagrange's basis at 1: the product over j != i of (1 - x_j) / (x_i - x_j)
    right = np.prod(np.where(np.eye(x.size, dtype=bool), 1.0, (1.0 - x) / diff), axis=1)
    return np.column_stack((right[::-1], right))


def _geometric_rest(totals: list):
    """The rest of each column's series of ``totals`` (one row per level)
    where its last steps fall geometrically, and how well that is known.

    For m = 1, 2, 4, ... up to _MAX_STRIDE, the steps d0, d1, d2 between
    the totals m levels apart give two limits: the last total plus the rest
    d2 q / (1 - q), q = d2 / d1, and the one before plus its rest by the
    ratio d1 / d0.  Where both ratios lie in (0, _MAX_RATIO], their
    distance is a miss.  Returns the rest and the miss of the m with the
    least miss, or NaN and inf where no m has one.
    """
    rest, miss = np.full(totals[-1].shape, np.nan), np.full(totals[-1].shape, np.inf)
    m = 1
    while 3 * m < len(totals) and m <= _MAX_STRIDE:
        d0, d1, d2 = np.diff(totals[-1 - 3 * m::m], axis=0)
        q1, q2 = d1 / d0, d2 / d1
        rest1, rest2 = d1 * q1 / (1.0 - q1), d2 * q2 / (1.0 - q2)
        ok = (q1 > 0.0) & (q1 <= _MAX_RATIO) & (q2 > 0.0) & (q2 <= _MAX_RATIO)
        gap = np.where(ok, np.abs(d2 + rest2 - rest1), np.inf)
        rest, miss = np.where(gap < miss, rest2, rest), np.fmin(gap, miss)
        m *= 2
    return rest, miss


def _bisect(f: Callable, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Integrals of ``f(k, y)`` over the pieces [lo[k], hi[k]], k = 0..K-1,
    that failed their 8/16 check at ``bound``.

    Each level evaluates f at the midpoint of every open piece, splits it
    there and runs gauss_rules once over all the halves.  A half is kept
    when its 8/16 distance is at most the bound of its k, and so is its
    width times the distance, at each end that is a midpoint, of the
    polynomial through its 16 nodes to f: both rules miss a kink near a
    piece's end, and a kink near the middle of a piece lies near the end of
    a half.  Any other half is open.  k is done when it has no open half.

    k's total, its kept halves and the 16-node values of its open ones, is
    recorded at each level.  Where its steps fall geometrically, as they do
    at an integrable singularity, _geometric_rest extrapolates it, and k
    keeps its best limit: k is done with that limit once its miss is
    within the bound.  When k cannot go on (an open piece whose midpoint
    rounds to an end or that is narrower than _MIN_WIDTH, a half where f
    is not finite, or a level of more than _MAX_PIECES halves), it is done
    with its best limit if that missed by at most _REST_SLACK bounds, as
    the rounding of y near a singularity away from 0 allows; else
    QuadratureFailure is raised, naming k's piece.
    """
    n = lo.size
    piece = np.column_stack((lo, hi))
    out = np.zeros(n)  # the kept halves of each k, then its limit
    totals = []  # out + the 16-node values of the open halves, at the last levels
    best, best_miss = np.full(n, np.nan), np.full(n, np.inf)
    stuck = np.zeros(n, dtype=bool)  # the k that cannot go on
    k = np.arange(n)
    ends = np.full((n, 2), np.nan)  # f at the ends that are midpoints
    with np.errstate(all="ignore"):  # overflow and inf - inf, on halves that then stop k
        while True:
            if totals:
                rest, miss = _geometric_rest(totals)
                best = np.where(miss < best_miss, totals[-1] + rest, best)
                best_miss = np.fmin(miss, best_miss)
            live = np.bincount(k, minlength=n) > 0
            if 2 * k.size > _MAX_PIECES:
                stuck |= live
            lost = stuck & live & ~(best_miss <= _REST_SLACK * bound)
            if lost.any():
                a, b = piece[np.argmax(lost)]
                raise QuadratureFailure(f"integral over ({a}, {b}) did not converge")
            stop = live & ((best_miss <= bound) | stuck)
            out[stop] = best[stop]
            go = ~stop[k]
            k, lo, hi, ends = k[go], lo[go], hi[go], ends[go]
            if not k.size:
                return out
            mid = 0.5 * (lo + hi)
            stuck[k[(mid <= lo) | (mid >= hi) | (hi - lo < _MIN_WIDTH)]] = True
            centre = f(k[:, None], mid[:, None])[:, 0]
            ends = np.column_stack((ends[:, 0], centre, centre, ends[:, 1])).reshape(-1, 2)
            k = np.repeat(k, 2)
            lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
            value, err, _, nodes = gauss_rules(lambda y: f(k[:, None], y), lo, hi)
            stuck[k[~np.isfinite(value)]] = True
            gap = np.abs(nodes @ _end_weights() - ends)
            gap = np.where(np.isfinite(ends), gap, 0.0).max(axis=1) * (hi - lo)
            done = (err <= bound[k]) & (gap <= bound[k])
            out += np.bincount(k[done], value[done], minlength=n)
            k, lo, hi, ends = k[~done], lo[~done], hi[~done], ends[~done]
            total = out + np.bincount(k, value[~done], minlength=n)
            totals = (totals + [total])[-3 * _MAX_STRIDE - 1:]


def gauss_panels(f: Callable, lo: np.ndarray, hi: np.ndarray, rtol: float = _GL_RTOL,
                 pieces: Optional[Callable] = None) -> np.ndarray:
    """Integrals of f over the panels [lo, hi], rows by panels.

    ``f(rows, v)`` takes an array of row indices broadcast with the nodes
    v.  The 16-node value of gauss_rules is kept where it is within
    ``rtol`` of the integral of |f| over all panels of its row from the
    8-node one.  The panels that fail, (row[k], col[k]), are integrated by
    _bisect at that bound: over themselves, or over the pieces (g, a, b) =
    ``pieces(row, col)`` give, g(k, y) over [a[k], b[k]].  A column of
    panels empty on every row adds 0.0, and f is not evaluated on it.
    """
    lo, hi = np.broadcast_arrays(lo, hi)
    rows = np.arange(lo.shape[0])[:, None, None]
    live = (hi > lo).any(axis=0)
    high, err, size = np.zeros((3, *lo.shape))
    high[:, live], err[:, live], size[:, live], _ = gauss_rules(
        lambda v: f(rows, v), lo[:, live], hi[:, live])
    if np.isnan(size).any():  # NaN at a node of a panel of nonzero width
        raise InputFormatError("the model's integrand is not a number")
    if np.isinf(size).any():
        raise InputFormatError("the model's integrand is not finite")
    bound = np.broadcast_to(rtol * size.sum(axis=-1, keepdims=True), high.shape)
    fail = ~(err <= bound) & (hi > lo)  # an empty panel is exact, whatever its row
    if fail.any():
        row, col = np.nonzero(fail)
        if pieces is None:
            g, a, b = (lambda k, v: f(row[k], v)), lo[row, col], hi[row, col]
        else:
            g, a, b = pieces(row, col)
        high[row, col] = _bisect(g, a, b, bound[row, col])
    return high


def _density_masses(density, args, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrals of ``density(*args, y)`` over [lo, hi], elementwise.

    Each interval with hi > lo is one gauss_panels panel, bisected where it
    fails its check.  Empty intervals, or no density, give 0.
    """
    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    out = np.zeros(lo.shape)
    live = hi > lo
    if density is None or not live.any():
        return out
    args = [a[live] for a in args]
    out[live] = gauss_panels(lambda r, y: _evaluate(density, *(a[r] for a in args), y),
                             lo[live, None], hi[live, None])[:, 0]
    return out


def _side_integral(f: Callable, args, side: float, lo, hi: float) -> np.ndarray:
    """Integral of ``f(*args, y)`` over the magnitudes t = side * y in
    [lo, hi], elementwise.

    ``f`` takes broadcast arrays; ``lo`` broadcasts with the arrays
    ``args``, and ``hi`` is one number, possibly infinite.  The map
    t = lo + (1-s)/s of QUADPACK's qagi turns [lo, hi] into s in
    [1/(1 + hi - lo), 1]: the whole of (0, 1] when hi is infinite.  The
    s-interval is cut at the fixed _TAIL_BREAKS, and every piece is a
    gauss_panels panel.  A panel that fails its check is bisected over the
    y-range it maps to, where floats stay dense at a singular tail start;
    only a panel that reaches t = inf is bisected in s.  Elements are
    handled in chunks of at most _BLOCK_BUDGET doubles per node array.
    """
    lo, *args = np.broadcast_arrays(np.asarray(lo, dtype=float), *args)
    out = np.zeros(lo.shape)
    live = hi > lo
    if not live.any():
        return out
    lo = lo[live]
    args = [x[live] for x in args]
    s_end = 1.0 / (1.0 + (hi - lo))  # 0 when hi is infinite
    vals = np.empty(lo.size)
    step = max(1, _BLOCK_BUDGET // (_TAIL_BREAKS.size * _GL_NODES[-1]))
    for c in range(0, lo.size, step):
        part = slice(c, c + step)
        t0, point = lo[part], [x[part] for x in args]
        edges = np.maximum(_TAIL_BREAKS, s_end[part, None])

        def pieces(row, col):
            # the panel [s0, s1] holds the magnitudes from t(s1) to t(s0)
            s0, s1, t = edges[row, col], edges[row, col + 1], t0[row]
            near = t + (1.0 - s1) / s1
            with np.errstate(divide="ignore"):
                far = np.where(s0 <= s_end[part][row], hi, t + (1.0 - s0) / s0)
            in_s = np.isinf(far)
            a, b = (near, far) if side > 0.0 else (-far, -near)

            def g(k, v):  # v is y, or s on the pieces in_s
                s = np.where(in_s[k], v, 1.0)
                y = np.where(in_s[k], side * (t[k] + (1.0 - s) / s), v)
                return f(*(x[row[k]] for x in point), y) / (s * s)

            return g, np.where(in_s, 0.0, a), np.where(in_s, s1, b)

        vals[part] = gauss_panels(
            lambda r, s: f(*(x[r] for x in point), side * (t0[r] + (1.0 - s) / s)) / (s * s),
            edges[:, :-1], edges[:, 1:], pieces=pieces,
        ).sum(axis=-1)
    out[live] = vals
    return out


def density_tails(density, args, a, side: float, y_min: float, y_max: float) -> np.ndarray:
    """Mass of ``density(*args, y) dy`` over {side * y >= a}, elementwise.

    The density lives on (y_min, y_max); ``a`` (>= 0) broadcasts with the
    arrays ``args``.  One _side_integral runs over the magnitudes from a,
    clipped to the support, to its far end.
    """
    lo = np.maximum(a, y_min if side > 0.0 else -y_max)
    if density is None:
        return np.zeros(np.broadcast_shapes(lo.shape, *(np.shape(x) for x in args)))
    return _side_integral(functools.partial(_evaluate, density), args, side, lo,
                          y_max if side > 0.0 else -y_min)


def _bin_edges(side: float, m: np.ndarray, h: float):
    """(a, b) with right bin m = [a, b) or left magnitude bin m = (a, b]."""
    a = m * h
    return (a, a + h) if side > 0.0 else (a - h, a)


def central_difference(fn: Callable, x, order: int = 1) -> np.ndarray:
    """The first (order 1) or second (order 2) central difference of the
    array function ``fn`` at the array x, with the step FD_SCALE or
    FD_SCALE_D2 times 1 + |x|."""
    x = np.asarray(x, dtype=float)
    if order == 1:
        h = FD_SCALE * (1.0 + np.abs(x))
        return (fn(x + h) - fn(x - h)) / (2.0 * h)
    h = FD_SCALE_D2 * (1.0 + np.abs(x))
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def _atom_bin_right(y: float, h: float) -> int:
    # bin m covers [m h, m h + h)
    return int(math.floor(y / h + _BALL_EPS))


def _atom_bin_left(s: float, h: float) -> int:
    # magnitude bin m covers (m h - h, m h]
    return int(math.ceil(s / h - _BALL_EPS))


class Weight(NamedTuple):
    """A moment weight: w(y) = c0 + c1 t + c2 t^2 of the magnitude t = |y|
    on each piece [lo, hi) of t, and 0 off the pieces, for y on the sides
    sign(y) in ``sides``.

    The pieces ascend and w is continuous across them: their edges are its
    kinks.  An overshoot weight's lo and c0 are arrays, one level per state.
    """

    pieces: tuple
    sides: Tuple[float, ...] = (1.0, -1.0)

    def at(self, t):
        """w at the magnitudes t (arrays broadcast with the levels)."""
        return sum(np.where((lo <= t) & (t < hi), c0 + c1 * t + c2 * t * t, 0.0)
                   for lo, hi, (c0, c1, c2) in self.pieces)


SMALL_WEIGHT = Weight(((0.0, 1.0, (0.0, 0.0, 1.0)), (1.0, math.inf, (0.0, 1.0, 0.0))))
ABS_WEIGHT = Weight(((0.0, math.inf, (0.0, 1.0, 0.0)),))
BOUNDED_WEIGHT = Weight(((0.0, 1.0, (0.0, 0.0, 1.0)), (1.0, math.inf, (1.0, 0.0, 0.0))))


def overshoot_weight(level, side: float) -> Weight:
    """The weight (|y| - level)+ on the side where sign(y) == side (+-1);
    ``level`` is a number or an array of levels."""
    level = np.asarray(level, dtype=float)
    return Weight(((np.maximum(level, 0.0), math.inf, (-level, 1.0, 0.0)),), (side,))


def _weight_integrals(weight: Weight, args, cut: float, density: Optional[Callable] = None,
                      tail: Optional[Callable] = None, y_min: float = -math.inf,
                      y_max: float = math.inf):
    """Integral of a weight against a continuous part over the magnitudes
    above ``cut`` (>= 0), elementwise over the broadcast of the arrays
    ``args`` and the weight's levels.

    A density, ``density(*args, y)`` on arrays, lives on (y_min, y_max) and
    is integrated against w.  Failing one, ``tail(side, args, t)`` is the
    mass of the magnitudes >= t on a side, and by parts the integral is
    w(t0) tail(t0), t0 the first magnitude above the cut where w may be
    nonzero, plus that of w'(t) tail(t) from t0.  Each piece of each side
    is one _side_integral, so no panel holds a kink of the weight.
    """
    total = 0.0
    for side in weight.sides:
        t_min, t_max = cut, math.inf
        if density is not None:
            t_min = max(cut, y_min if side > 0.0 else -y_max)
            t_max = y_max if side > 0.0 else -y_min
        else:
            t0 = np.maximum(cut, weight.pieces[0][0])
            w0, t0, *point = np.broadcast_arrays(weight.at(t0), t0, *args)
            hit = w0 != 0.0
            if hit.any():
                term = np.zeros(w0.shape)
                term[hit] = w0[hit] * tail(side, [v[hit] for v in point], t0[hit])
                total = total + term
        for lo, hi, (c0, c1, c2) in weight.pieces:
            lo, hi = np.maximum(lo, t_min), min(hi, t_max)
            if density is not None:
                def f(*v):  # v is (*args, c0, y)
                    t = side * v[-1]
                    return (v[-2] + c1 * t + c2 * t * t) * density(*v[:-2], v[-1])

                total = total + _side_integral(f, (*args, c0), side, lo, hi)
            elif c1 or c2:
                def f(*v):  # v is (*args, y)
                    t = side * v[-1]
                    return (c1 + 2.0 * c2 * t) * tail(side, v[:-1], t)

                total = total + _side_integral(f, args, side, lo, hi)
    return total


class _Measure:
    """A jump measure: a continuous part plus atoms, on an argument tuple
    ``args``, () for a base measure and (x,) for a kernel at the states x.

    The continuous part lives on (y_min, y_max): a density ``density(*args,
    y)``, closed tails ``right_tail_fn(*args, a)`` for {y >= a} and
    ``left_tail_fn(*args, a)`` for {y <= -a}, or both, when the tails give
    the masses and the density the moments.  The atoms sit at the sizes
    ``atom_sizes`` with masses ``atom_masses(*args)``, one column per size.
    Every tail, bin and moment adds the atoms first, in order, then the
    continuous part.
    """

    density = right_tail_fn = left_tail_fn = None
    y_min, y_max = -math.inf, math.inf
    atom_sizes: Sequence[float] = ()

    def atom_masses(self, *args) -> np.ndarray:
        return np.zeros(np.broadcast_shapes(*map(np.shape, args)) + (0,))

    def _atom_sum(self, side: float, args, hit: Callable):
        """The mass of every atom y with side * y > 0 whose magnitude s = side
        * y has ``hit(s)``, at ``args``."""
        total = 0.0
        for y, mass in zip(self.atom_sizes, np.moveaxis(self.atom_masses(*args), -1, 0)):
            if side * y > 0.0:
                total = total + np.where(hit(side * y), mass, 0.0)
        return total

    def _continuous_tails(self, side: float, args, a) -> np.ndarray:
        """Continuous masses of the magnitudes side * y >= a (a >= 0), over
        the broadcast of the arrays ``args`` and a."""
        tail = self.right_tail_fn if side > 0.0 else self.left_tail_fn
        if tail is not None:
            return _evaluate(tail, *args, a)
        return density_tails(self.density, args, a, side, self.y_min, self.y_max)

    def _continuous_bins(self, side: float, args, a, b) -> np.ndarray:
        """Continuous masses of the magnitudes side * y in [a, b), on arrays."""
        tail = self.right_tail_fn if side > 0.0 else self.left_tail_fn
        if tail is not None:
            return _evaluate(tail, *args, a) - _evaluate(tail, *args, b)
        lo, hi = (a, b) if side > 0.0 else (-b, -a)
        return _density_masses(
            self.density, args, np.maximum(lo, self.y_min), np.minimum(hi, self.y_max)
        )

    def density_values(self, args, y) -> np.ndarray:
        """``density(*args, y)`` inside (y_min, y_max) and off 0, else 0, over
        the broadcast of the arrays ``args`` and y."""
        y, *args = np.broadcast_arrays(np.asarray(y, dtype=float), *args)
        out = np.zeros(y.shape)
        live = (y > self.y_min) & (y < self.y_max) & (y != 0.0)
        if self.density is not None and live.any():
            out[live] = _evaluate(self.density, *(v[live] for v in args), y[live])
        return out

    def _tails(self, side: float, args, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return (self._atom_sum(side, args, lambda s: s >= a)
                + self._continuous_tails(side, args, np.maximum(a, 0.0)))

    def _bins(self, side: float, args, m: np.ndarray, h: float) -> np.ndarray:
        atom_bin = _atom_bin_right if side > 0.0 else _atom_bin_left
        return (self._atom_sum(side, args, lambda s: m == atom_bin(s, h))
                + self._continuous_bins(side, args, *_bin_edges(side, m, h)))

    def _moments(self, weight: Weight, args, cut: float) -> np.ndarray:
        """Integrals of the weight over the magnitudes above ``cut``: the
        atoms summed exactly, then the density, failing one the closed tails."""
        total = 0.0
        for y, mass in zip(self.atom_sizes, np.moveaxis(self.atom_masses(*args), -1, 0)):
            if abs(y) > cut and math.copysign(1.0, y) in weight.sides:
                total = total + mass * weight.at(abs(y))
        if self.density is None:
            return total + _weight_integrals(weight, args, cut, tail=self._continuous_tails)
        density = functools.partial(_evaluate, self.density)
        return total + _weight_integrals(weight, args, cut, density, y_min=self.y_min,
                                         y_max=self.y_max)


class BaseMeasure(_Measure):
    """A state-independent measure: continuous density plus atoms.

    The continuous part is either a density on (y_min, y_max) or a pair of
    closed-form tail callables (or both, in which case the tails are used
    for mass queries and the density for moments and pointwise values).
    """

    def __init__(
        self,
        density: Optional[Callable[[float], float]] = None,
        y_min: float = -math.inf,
        y_max: float = math.inf,
        atoms: Sequence[Tuple[float, float]] = (),
        right_tail_fn: Optional[Callable[[float], float]] = None,
        left_tail_fn: Optional[Callable[[float], float]] = None,
    ):
        self.density = density
        self.y_min = float(y_min)
        self.y_max = float(y_max)
        self.atoms = [(float(y), float(mass)) for y, mass in atoms]
        for y, mass in self.atoms:
            if y == 0.0 or not math.isfinite(y):
                raise InputFormatError(f"atom at y={y!r} is not a finite nonzero jump")
            if mass < 0.0 or not math.isfinite(mass):
                raise InputFormatError(f"bad atom mass {mass!r} at y={y!r}")
        self.atom_sizes = [y for y, _ in self.atoms]
        self.right_tail_fn = right_tail_fn
        self.left_tail_fn = left_tail_fn

    def atom_masses(self) -> np.ndarray:
        return np.array([mass for _, mass in self.atoms])

    def tails(self, side: float, a) -> np.ndarray:
        """Masses of {y >= a} (side +1) or {y <= -a} (side -1) over an array
        a; a = 0 gives the whole side."""
        shape = np.shape(a)
        a, back = np.unique(np.asarray(a, dtype=float), return_inverse=True)
        return self._tails(side, (), a)[back].reshape(shape)

    def bin_masses(self, side: float, m: np.ndarray, h: float) -> np.ndarray:
        """Right bins [mh, mh+h) (side +1) or left magnitude bins (mh-h, mh]
        (side -1) for an integer array m, atoms included."""
        return self._bins(side, (), m, h)

    def moments(self, weight: Weight, cut: float = 0.0) -> np.ndarray:
        """Integral of the weight against the measure over |y| > cut, one
        value per level of the weight."""
        return self._moments(weight, (), cut)


class LevyKernel(_Measure):
    """Shared interface of all jump-kernel representations: a ``_Measure``
    at arrays of states x.

    ``tails`` and ``far_tails`` take (state, threshold) arrays,
    ``bin_masses`` (state, bin) arrays, and ``moments(weight, x)``
    integrates a moment weight over the kernel at every state of x.
    """

    case = "abstract"

    def tails(self, side: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Masses of {y >= a} (side +1) or {y <= -a} (side -1) at states x,
        over broadcast arrays x and a; a = 0 gives the whole side."""
        return self._tails(side, (x,), a)

    def far_tails(self, side: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The lumped far tails over broadcast arrays x and a: the mass of
        {y >= a} for side +1 and of the strict {y < -a} for side -1."""
        tails = self.tails(side, x, a)
        return tails if side > 0.0 else tails - self._atom_sum(side, (x,), lambda s: s == a)

    def bin_masses(self, side: float, x: np.ndarray, m: np.ndarray, h: float) -> np.ndarray:
        """Masses of right bins [mh, mh+h) (side +1) or left magnitude bins
        (mh-h, mh] (side -1) at states x, over broadcast arrays x and m."""
        return self._bins(side, (x,), m, h)

    def moments(self, weight: Weight, x, cut: float = 0.0) -> np.ndarray:
        """Integral of the weight over the jumps with |y| > cut at states x,
        over the broadcast of x and the weight's levels."""
        return self._moments(weight, (x,), cut)

    def dx_small_moments(self, x, order: int) -> Optional[np.ndarray]:
        """The small-jump moment of the order-th x-derivative of the kernel at
        states x; None when the kernel supplies no such derivative."""
        return None


class DensityKernel(LevyKernel):
    """Kernel nu(x, dy) = nu(x, y) dy with the density given explicitly.

    Optional closed-form tail callables short-circuit the per-bin
    quadratures.  Optional x-derivative densities enable the derivative
    moment checks of validate_model; without them those checks are
    recorded as unchecked.  The ``support_sign`` argument "positive"
    ("negative") is shorthand for y_min = 0 (y_max = 0); the attribute of
    that name is read back from the clipped (y_min, y_max).
    """

    case = "density"

    def __init__(
        self,
        density: Callable[[float, float], float],
        support_sign: str = "both",
        y_min: Optional[float] = None,
        y_max: Optional[float] = None,
        dx_density: Optional[Callable[[float, float], float]] = None,
        dx2_density: Optional[Callable[[float, float], float]] = None,
        right_tail_fn: Optional[Callable[[float, float], float]] = None,
        left_tail_fn: Optional[Callable[[float, float], float]] = None,
    ):
        if support_sign not in SUPPORT_SIGNS:
            raise InputFormatError(f"unknown support_sign {support_sign!r}")
        self.density = density
        lo = 0.0 if support_sign == "positive" else -math.inf
        hi = 0.0 if support_sign == "negative" else math.inf
        self.y_min = lo if y_min is None else max(float(y_min), lo)
        self.y_max = hi if y_max is None else min(float(y_max), hi)
        self.dx_density = dx_density
        self.dx2_density = dx2_density
        self.right_tail_fn = right_tail_fn
        self.left_tail_fn = left_tail_fn

    @property
    def support_sign(self) -> str:
        """The sides of the clipped support (y_min, y_max): "positive",
        "negative" or "both"."""
        return "positive" if self.y_min >= 0.0 else "negative" if self.y_max <= 0.0 else "both"

    def dx_tails(self, side: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The x-derivative of ``tails`` over broadcast arrays x and a: the
        tail of dx_density when given, else a central difference of the tails."""
        if self.dx_density is not None:
            return density_tails(self.dx_density, (x,), a, side, self.y_min, self.y_max)
        return central_difference(lambda v: self.tails(side, v, a), x)

    def dx_small_moments(self, x, order: int) -> Optional[np.ndarray]:
        dens = self.dx_density if order == 1 else self.dx2_density
        if dens is None:
            return None
        return _weight_integrals(SMALL_WEIGHT, (x,), 0.0,
                                 lambda x, y: np.abs(_evaluate(dens, x, y)),
                                 y_min=self.y_min, y_max=self.y_max)


class DecomposableKernel(LevyKernel):
    """Kernel nu(x, dy) = a(x) * base(dy) with a fixed base measure.

    The state factor a must be nonnegative wherever the model is used.
    Its derivative is taken from the supplied callable or by central
    finite differences.  Tails, bins and moments are a(x) times the base's,
    whose integrals are x-free: each is computed once for all states.
    ``support_sign`` names the sides on which the base has mass.
    """

    case = "decomposable"

    def __init__(
        self,
        a: Callable[[float], float],
        base: BaseMeasure,
        da: Optional[Callable[[float], float]] = None,
        da2: Optional[Callable[[float], float]] = None,
    ):
        self.a = a
        self.base = base
        self.da = da
        self.da2 = da2
        has_right, has_left = (base.tails(side, 0.0) > 0.0 for side in (1.0, -1.0))
        self.support_sign = (
            "both" if has_right and has_left else "negative" if has_left else "positive")
        self.atom_sizes = base.atom_sizes

    def factors(self, x: np.ndarray) -> np.ndarray:
        return _evaluate(self.a, x)

    @staticmethod
    def _scaled(x, factors, values) -> np.ndarray:
        """``factors`` (a or a derivative at the states x) times x-free base
        values; a product of finite numbers that overflows is malformed input."""
        with np.errstate(over="ignore"):
            out = factors * values
        over = np.isinf(out) & np.isfinite(factors) & np.isfinite(values)
        if over.any():
            at = float(np.broadcast_to(x, out.shape)[over][0])
            raise InputFormatError(f"a(x) times the base measure overflows at x={at}")
        return out

    def dfactors(self, x: np.ndarray) -> np.ndarray:
        """The derivative of a over an array: da, else a central difference."""
        if self.da is not None:
            return _evaluate(self.da, x)
        return central_difference(self.factors, x)

    def atom_masses(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)[..., None]
        return self._scaled(x, self.factors(x), self.base.atom_masses())

    def density_values(self, args, y) -> np.ndarray:
        """a(x) times the base density at y, over broadcast arrays (x,) = args and y."""
        return self._scaled(args[0], self.factors(*args), self.base.density_values((), y))

    def dx_tails(self, side: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The x-derivative of ``tails``: a'(x) times the base tails."""
        return self._scaled(x, self.dfactors(x), self.base.tails(side, a))

    def _continuous_tails(self, side: float, args, a) -> np.ndarray:
        return self._scaled(args[0], self.factors(*args), self.base._continuous_tails(side, (), a))

    def _continuous_bins(self, side: float, args, a, b) -> np.ndarray:
        return self._scaled(args[0], self.factors(*args),
                            self.base._continuous_bins(side, (), a, b))

    def tails(self, side: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self._scaled(x, self.factors(x), self.base.tails(side, a))

    def bin_masses(self, side: float, x: np.ndarray, m: np.ndarray, h: float) -> np.ndarray:
        # the factor once per distinct state, the base bins once per distinct m
        xs, xi = np.unique(x, return_inverse=True)
        ms, mi = np.unique(m, return_inverse=True)
        return self._scaled(x, _evaluate(self.a, xs)[xi], self.base.bin_masses(side, ms, h)[mi])

    def moments(self, weight: Weight, x, cut: float = 0.0) -> np.ndarray:
        return self._scaled(x, self.factors(x), self.base.moments(weight, cut))

    def dx_small_moments(self, x, order: int) -> Optional[np.ndarray]:
        deriv = self.da if order == 1 else self.da2
        if deriv is None:
            return None
        return self._scaled(x, np.abs(_evaluate(deriv, x)), self.base.moments(SMALL_WEIGHT))


class TabulatedKernel(LevyKernel):
    """Kernel given only through tail callbacks; assumed atomless."""

    case = "tabulated"

    def __init__(
        self,
        right_tail_fn: Optional[Callable[[float, float], float]] = None,
        left_tail_fn: Optional[Callable[[float, float], float]] = None,
        small_moment_fn: Optional[Callable[[float], float]] = None,
    ):
        if right_tail_fn is None and left_tail_fn is None:
            raise InputFormatError("tabulated kernel needs at least one tail")
        self.right_tail_fn = right_tail_fn
        self.left_tail_fn = left_tail_fn
        self.small_moment_fn = small_moment_fn

    def moments(self, weight: Weight, x, cut: float = 0.0) -> np.ndarray:
        if weight is SMALL_WEIGHT and cut == 0.0 and self.small_moment_fn is not None:
            return _evaluate(self.small_moment_fn, x)
        return super().moments(weight, x, cut)


class CutoffKernel(LevyKernel):
    """A kernel restricted to jumps with |y| strictly above a cut."""

    def __init__(self, inner: LevyKernel, cut: float):
        if cut <= 0.0:
            raise InputFormatError(f"cutoff must be positive, got {cut!r}")
        self.inner = inner
        self.cut = float(cut)
        self.case = inner.case
        self._kept = [j for j, y in enumerate(inner.atom_sizes) if abs(y) > self.cut]
        self.atom_sizes = [inner.atom_sizes[j] for j in self._kept]

    def atom_masses(self, x: np.ndarray) -> np.ndarray:
        return self.inner.atom_masses(x)[..., self._kept]

    def _continuous_tails(self, side: float, args, a) -> np.ndarray:
        return self.inner._continuous_tails(side, args, np.maximum(a, self.cut))

    def _continuous_bins(self, side: float, args, a, b) -> np.ndarray:
        return self.inner._continuous_bins(
            side, args, np.maximum(a, self.cut), np.maximum(b, self.cut))

    def moments(self, weight: Weight, x, cut: float = 0.0) -> np.ndarray:
        # the inner kernel's own route above the cut: a density is
        # integrated directly, not through its tails
        return self.inner.moments(weight, x, max(cut, self.cut))


@dataclass(frozen=True)
class Lattice:
    """A mesh width and an integer window; state n sits at x = n*h."""

    h: float
    lo: int
    hi: int
    boundary: str = "absorb"

    def __post_init__(self):
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise InputFormatError(f"mesh must be positive, got {self.h!r}")
        object.__setattr__(self, "lo", number(self.lo, "lo", int))
        object.__setattr__(self, "hi", number(self.hi, "hi", int))
        if self.hi <= self.lo:
            raise InputFormatError(f"empty lattice window [{self.lo}, {self.hi}]")
        # while |n| < 2**52 and the points are finite, n is exact in float
        # and h exceeds the float spacing at every point, so the points
        # ascend strictly; past 2**52 they can collapse anywhere in the
        # window, not only at its ends, so all of them are looked at
        top = max(abs(self.lo), abs(self.hi))
        try:
            finite = math.isfinite(self.h * top)
        except OverflowError:  # top itself is past the float range
            finite = False
        if not finite:
            raise InputFormatError(
                f"lattice point {top} * {self.h!r} is past the float range")
        _check_size(self.hi - self.lo + 1, "lattice points")
        if top >= 2 ** 52 and not np.all(np.diff(self.points()) > 0.0):
            raise InputFormatError(
                f"lattice window [{self.lo}, {self.hi}] at mesh {self.h!r} has "
                f"points that are equal in float")

    def points(self) -> np.ndarray:
        return self.h * np.arange(self.lo, self.hi + 1)


@dataclass
class LevyModel:
    """Coefficients of the operator; absent pieces mean zero."""

    G: Optional[Callable[[float], float]] = None
    b: Optional[Callable[[float], float]] = None
    nu: Optional[LevyKernel] = None
    mu: Optional[LevyKernel] = None
    growth_c: Optional[float] = None
    support: str = "line"
    bounded_coefficients: bool = False
    asymptotics: Optional[dict] = None

    def __post_init__(self):
        if self.support not in ("line", "halfline"):
            raise InputFormatError(f"unknown support {self.support!r}")

    def kernels(self) -> List[Tuple[str, LevyKernel]]:
        out = []
        if self.nu is not None:
            out.append(("nu", self.nu))
        if self.mu is not None:
            out.append(("mu", self.mu))
        return out


@dataclass
class ValidationReport:
    ok: bool
    records: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _finite_moments(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values, after raising MomentUnbounded at the first x where one is not
    finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise MomentUnbounded(float(x[i]), float(values[i]))
    return values


def validate_model(
    m: LevyModel, grid: Sequence[float], tol: float = 1e-9
) -> ValidationReport:
    """Check coefficient sanity and moment/growth bounds on a sample grid.

    Every check is one array pass over the grid.  Raises InputFormatError
    naming the first x where G, b or a decomposable factor is not finite (G
    and the factor also where negative), MomentUnbounded when a kernel
    moment comes out non-finite, and GrowthViolated when the declared
    linear-growth constant fails the drift inequality at a grid point with
    |x| > 1 (left and right variants carry the overshoot of jumps past the
    origin).  Derivative-kernel moment bounds are checked when the kernel
    representation supplies x-derivatives and recorded as unchecked
    otherwise.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise InputFormatError("validation grid is empty")
    records: List[dict] = []

    g_vals = _coefficient_values(
        "G", grid, np.zeros(grid.size) if m.G is None else _evaluate(m.G, grid), True)
    b_vals = _coefficient_values(
        "b", grid, np.zeros(grid.size) if m.b is None else _evaluate(m.b, grid))
    records.append({"check": "coefficients", "status": "ok",
                    "sup_G": float(g_vals.max()),
                    "sup_abs_b": float(np.abs(b_vals).max())})

    for name, kern in m.kernels():
        moments = _finite_moments(grid, kern.moments(
            SMALL_WEIGHT if name == "nu" else ABS_WEIGHT, grid))
        records.append({
            "check": f"{name}_moment", "status": "ok",
            "sup": float(moments.max()),
            "kind": "min(|y|, y^2)" if name == "nu" else "|y|",
        })
        for order in (1, 2):
            vals = kern.dx_small_moments(grid, order)
            if vals is None:
                records.append({"check": f"{name}_dx{order}_moment",
                                "status": "unchecked",
                                "reason": "kernel supplies no x-derivative"})
            else:
                records.append({"check": f"{name}_dx{order}_moment", "status": "ok",
                                "sup": float(_finite_moments(grid, vals).max())})

    for name, kern in m.kernels():
        if isinstance(kern, DecomposableKernel):
            _coefficient_values(f"decomposable factor of {name}", grid, kern.factors(grid), True)

    if m.bounded_coefficients:
        total = g_vals + np.abs(b_vals)
        if m.nu is not None:
            total = total + m.nu.moments(BOUNDED_WEIGHT, grid)
        records.append({"check": "bounded_coefficients", "status": "ok",
                        "sup": max(0.0, float(_finite_moments(grid, total).max()))})

    if m.growth_c is not None:
        # lhs = +-b + the mu moment + the nu overshoot past the origin: of
        # the left jumps beyond x at x > 1, of the right ones beyond -x at x < -1
        c = float(m.growth_c)
        far = np.abs(grid) > 1.0
        x, right = grid[far], grid[far] > 1.0
        lhs = np.where(right, b_vals[far], -b_vals[far])
        if m.mu is not None:
            lhs = lhs + m.mu.moments(ABS_WEIGHT, x)
        if m.nu is not None:
            over = np.empty(x.size)
            for side, at in ((-1.0, right), (1.0, ~right)):
                over[at] = m.nu.moments(overshoot_weight(np.abs(x[at]), side), x[at])
            lhs = lhs + over
        rhs = c * (1.0 + np.abs(x))
        bad = lhs > rhs + tol
        if bad.any():
            i = int(np.argmax(bad))
            raise GrowthViolated(float(x[i]), float(lhs[i]), float(rhs[i]))
        margin = rhs - lhs
        seen = np.flatnonzero(~np.isnan(margin))
        worst = None if not seen.size else int(seen[np.argmin(margin[seen])])
        records.append({
            "check": "growth_condition", "status": "ok", "c": c,
            "worst_margin": None if worst is None else float(margin[worst]),
            "at": None if worst is None else float(x[worst]),
        })

    return ValidationReport(ok=True, records=records)


@dataclass
class TailMonotonicityReport:
    ok: bool
    tol: float
    checked: int
    max_deficit: float
    violations: List[dict] = field(default_factory=list)

    def to_dict(self, limit: int = 100) -> dict:
        return {
            "ok": self.ok,
            "monotone": self.ok,
            "tol": self.tol,
            "checked": self.checked,
            "max_deficit": self.max_deficit,
            "n_violations": len(self.violations),
            "violations": self.violations[:limit],
        }


def check_levy_monotone(
    m: LevyModel,
    grid: Sequence[float],
    thresholds: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    tol: float = 1e-10,
) -> TailMonotonicityReport:
    """Tail-monotonicity of the jump kernels along an ascending grid.

    For every threshold a > 0 and adjacent grid pair x < x', the mass of
    {y >= a} must not decrease and the mass of {y <= -a} must not increase
    from x to x'.  The same conditions apply to the uncompensated kernel
    when present.  Diffusion and drift impose nothing.  A tail mass that is
    not finite raises InputFormatError naming its kernel, side, a and x; a
    non-finite or negative ``tol`` raises it too.
    """
    tol = _nonnegative(tol, "tolerance")
    grid = np.asarray(list(grid), dtype=float)
    if grid.size < 2:
        raise InputFormatError("need at least two grid points")
    if np.any(np.diff(grid) <= 0.0):
        raise InputFormatError("grid must be strictly ascending")
    thresholds = [float(a) for a in thresholds]
    if any(a <= 0.0 for a in thresholds):
        raise InputFormatError("thresholds must be positive")

    violations: List[dict] = []
    checked = 0
    xs = grid.tolist()
    column = np.array(thresholds)[:, None]
    for name, kern in m.kernels():
        # one row of tails per threshold
        right = kern.tails(1.0, grid, column)
        left = kern.tails(-1.0, grid, column)
        for label, tails in (("right", right), ("left", left)):
            bad = np.argwhere(~np.isfinite(tails))
            if bad.size:
                j, i = bad[0]
                raise InputFormatError(
                    f"{name} {label} tail at a={thresholds[j]} is not finite at x={xs[i]}")
        with np.errstate(over="ignore"):  # an infinite slack admits every pair
            drop = right[:, :-1] > right[:, 1:] + tol
            rise = left[:, 1:] > left[:, :-1] + tol
        checked += 2 * drop.size
        right, left = right.tolist(), left.tolist()
        for j, i in np.argwhere(drop | rise).tolist():
            for side, bad, lhs, rhs in (("right", drop, right[j][i], right[j][i + 1]),
                                        ("left", rise, left[j][i + 1], left[j][i])):
                if bad[j, i]:
                    violations.append({
                        "kernel": name, "side": side, "a": thresholds[j],
                        "x": xs[i], "x_next": xs[i + 1],
                        "lhs": lhs, "rhs": rhs, "deficit": lhs - rhs,
                    })
    max_def = max((v["deficit"] for v in violations), default=0.0)
    return TailMonotonicityReport(
        ok=not violations, tol=tol, checked=checked,
        max_deficit=max_def, violations=violations,
    )


def _checked(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(values with roundoff negatives set to 0, mask of unresolved masses).

    A mass is unresolved when it is not finite or is negative beyond
    roundoff, -1e-10 * (1 + |mass|).
    """
    bad = ~np.isfinite(values) | (values < -1e-10 * (1.0 + np.abs(values)))
    return np.where(values < 0.0, 0.0, values), bad


def _unresolved(what: str, value: float) -> TailMassUnresolved:
    if not math.isfinite(value):
        return TailMassUnresolved(f"{what} is not finite")
    return TailMassUnresolved(f"{what} is negative: {value!r}")


def _kernel_side(name, kern, side, x, reach, ball, h, phase):
    """Event columns of one kernel side for a block of states at x.

    Returns (offsets, values, errors).  Each row holds, for its state, the
    bins m = 1..k in order, each followed by its compensation (m * mass
    onto the opposite neighbour, for nu inside the unit ball), then the
    lump of the mass beyond bin k at offset k+1.  k is the reach, or the
    unit ball for nu when that is wider; bins past a row's k have mass 0.
    ``errors`` holds (row, phase, bin, exception) for the first unresolved
    bin and the first unresolved lump (phase + 1).
    """
    compensated = name == "nu"
    label = "right" if side > 0.0 else "left"
    k = np.maximum(reach, ball if compensated else 0)
    mm = np.arange(1, int(k.max()) + 1)
    rows, cols = np.nonzero(mm <= k[:, None])
    mass = np.zeros((x.size, mm.size))
    errors = []
    if rows.size:
        raw = kern.bin_masses(side, x[rows], cols + 1, h)
        mass[rows, cols], bad = _checked(raw)
        if bad.any():
            i = int(np.argmax(bad))
            r, j = int(rows[i]), int(cols[i]) + 1
            errors.append((r, phase, j, _unresolved(
                f"{name} {label} bin {j} at x={float(x[r])}", float(raw[i]))))
    in_ball = compensated & (mm * h <= 1.0 + _BALL_EPS)
    off = np.empty((x.size, 2 * mm.size + 1), dtype=np.int64)
    val = np.empty((x.size, 2 * mm.size + 1))
    off[:, 0:-1:2] = side * mm
    off[:, 1:-1:2] = -side
    off[:, -1] = side * (k + 1)
    val[:, 0:-1:2] = mass
    val[:, 1:-1:2] = np.where(in_ball, mm * mass, 0.0)

    # the far tail: {y >= (k+1)h} on the right, {y < -kh} on the left
    raw = kern.far_tails(side, x, (k + 1) * h if side > 0.0 else k * h)
    val[:, -1], bad = _checked(raw)
    if bad.any():
        r = int(np.argmax(bad))
        errors.append((r, phase + 1, 0, _unresolved(
            f"{name} {label} tail at x={float(x[r])}", float(raw[r]))))
    return off, val, errors


def _discretize_block(m: LevyModel, lat: Lattice, n: np.ndarray, ball: int):
    """Rate columns (n, m, rate) of the states n (ascending), in table order.

    Every rate the scheme adds for a state is an event (offset, value),
    laid out in the order of a per-state loop: the diffusion pair, the
    drift, then per kernel the right bins with their compensations, the
    right lump, the left bins with theirs and the left lump.  Summing each
    key's events in that order (np.add.at is sequential) and ordering keys
    by their first event gives the loop's table, sums and key order
    included.  The first error in that order is raised; a negative or
    non-finite G, then a non-finite b, come first at their state.  A summed
    rate that overflowed is left to the RateMatrix constructor, which names
    the first such (n, m) in table order.
    """
    h = lat.h
    x = n * h
    g = _evaluate(m.G, x) if m.G is not None else np.zeros(n.size)
    b = _evaluate(m.b, x) if m.b is not None else np.zeros(n.size)
    errors = []
    for j, (name, v) in enumerate((("G", g), ("b", b))):
        bad = _bad_coefficient(name, x, v, name == "G")
        if bad is not None:
            errors.append((bad[0], 0, j, bad[1]))
    diff = np.where(g > 0.0, g / (2.0 * h * h), 0.0)
    offs = [np.ones(n.size, dtype=np.int64), -np.ones(n.size, dtype=np.int64),
            np.where(b > 0.0, 1, -1)]
    vals = [diff, diff, np.where(b != 0.0, np.abs(b) / h, 0.0)]
    for ki, (name, kern) in enumerate(m.kernels()):
        for side, reach, phase in ((1.0, lat.hi - n, 1 + 4 * ki),
                                   (-1.0, n - lat.lo, 3 + 4 * ki)):
            off, val, errs = _kernel_side(name, kern, side, x, reach, ball, h, phase)
            offs.append(off)
            vals.append(val)
            errors += errs
    if errors:
        raise min(errors, key=lambda e: e[:3])[3]

    off = np.column_stack(offs).ravel()
    val = np.column_stack(vals).ravel()
    row = np.repeat(np.arange(n.size), val.size // n.size)
    keep = val != 0.0
    off, val, row = off[keep], val[keep], row[keep]
    if not off.size:
        return n[:0], off, val
    width = 2 * int(np.abs(off).max()) + 1
    code = row * width + off + width // 2
    total = np.zeros(n.size * width)
    np.add.at(total, code, val)
    _, first = np.unique(code, return_index=True)
    code = code[np.sort(first)]
    return n[code // width], code % width - width // 2, total[code]


def discretize(m: LevyModel, lat: Lattice) -> RateMatrix:
    """Project the operator onto the lattice as jump rates.

    Follows the standard second-difference scheme: the diffusion term
    G(x)/(2 h^2) feeds both nearest neighbors, the drift |b(x)|/h feeds the
    neighbor in the drift direction, and each jump-kernel bin [mh, mh+h)
    on the right (magnitude bins (mh-h, mh] on the left) feeds the offset
    +-m.  Compensated bins inside the unit ball push the rate m * mass
    onto the opposite nearest neighbor, which realizes the -f'(x) y
    correction as a downwind difference and keeps all rates nonnegative.
    The uncompensated kernel uses the same binning with no correction.

    Mass beyond the individually binned range is lumped into one
    out-of-window rate per direction, which the window's boundary policy
    then absorbs, reflects, or kills.  Sub-mesh right jumps (0 < y < h)
    are below resolution and dropped; the left magnitude bins start at 0
    by construction, so nothing is dropped there.

    Bin masses come from one ``bin_masses`` call per kernel side for a
    block of states: tail differences for closed tails and atoms,
    Gauss-Legendre for densities.  The lumps take one ``far_tails`` call per
    kernel side and block; a density-only far tail goes through
    ``density_tails``.
    """
    if lat.h > 1.0:
        raise InputFormatError(f"mesh {lat.h} too coarse; need h <= 1")
    _check_size(1.0 / lat.h, "unit-ball bins")
    lo, hi, h = lat.lo, lat.hi, lat.h
    ball = int(math.floor(1.0 / h + _BALL_EPS))  # bins with m*h <= 1
    step = max(1, _BLOCK_BUDGET // (_GL_NODES[-1] * (hi - lo + ball + 1)))
    with np.errstate(over="ignore"):  # a rate that overflows is raised by RateMatrix
        blocks = [_discretize_block(m, lat, np.arange(n0, min(n0 + step, hi + 1)), ball)
                  for n0 in range(lo, hi + 1, step)]
    return RateMatrix(lo, hi, lat.boundary, _Columns(*map(np.concatenate, zip(*blocks))))


def cutoff_model(m: LevyModel, h: float) -> LevyModel:
    """The model with both jump kernels restricted to |y| > h.

    The compensation convention of the remaining jumps is untouched: sizes
    in (h, 1] stay compensated.  Total jump intensity is nonincreasing in
    h by construction.
    """
    return LevyModel(
        G=m.G,
        b=m.b,
        nu=None if m.nu is None else CutoffKernel(m.nu, h),
        mu=None if m.mu is None else CutoffKernel(m.mu, h),
        growth_c=m.growth_c,
        support=m.support,
        bounded_coefficients=m.bounded_coefficients,
        asymptotics=m.asymptotics,
    )


def jump_intensity(m: LevyModel, x: float) -> float:
    """Total jump-rate mass of both kernels at state x (may be inf)."""
    x = np.asarray(x, dtype=float)
    return float(sum(kern.tails(1.0, x, 0.0) + kern.tails(-1.0, x, 0.0)
                     for _, kern in m.kernels()))


@dataclass(frozen=True)
class BoundaryClass:
    label: str  # "inaccessible" | "t_regular" | "unknown"
    rule: str

    def to_dict(self) -> dict:
        return asdict(self)


def classify_boundary(
    m: LevyModel, asymptotics: Optional[dict] = None
) -> BoundaryClass:
    """Classify the origin of a half-line model from declared orders.

    The orders are user declarations, not numerical estimates (estimating
    O(x^2) behavior at 0 from samples is ill-posed).  Clause one applies
    when G(x) = O(x^2), the truncated second moment of nu is O(x^2), and
    the negative drift part is O(x): the origin is then inaccessible.
    Clause two applies when G(x) = alpha x (1 + o(1)) and b(0) exists:
    alpha < b(0) gives inaccessible, alpha > b(0) gives t-regular, and a
    tie stays unknown.  Components absent from the model pass clause one
    automatically.
    """
    if m.support != "halfline":
        raise InputFormatError(
            "boundary classification applies to half-line models only"
        )
    asym = dict(asymptotics if asymptotics is not None else (m.asymptotics or {}))

    def order_ok(key: str, need: float, absent_ok: bool) -> bool:
        if key not in asym or asym[key] is None:
            return absent_ok
        return number(asym[key], key) >= need

    g_ok = order_ok("G_order", 2.0, m.G is None)
    nu_ok = order_ok("nu_order", 2.0, m.nu is None)
    b_ok = order_ok("b_neg_order", 1.0, m.b is None)
    if g_ok and nu_ok and b_ok:
        return BoundaryClass(
            "inaccessible",
            "clause (i): G = O(x^2), truncated nu moment = O(x^2), "
            "negative drift part = O(x)",
        )

    alpha = asym.get("alpha")
    b0 = asym.get("b0")
    if alpha is not None and b0 is not None:
        alpha = number(alpha, "alpha")
        b0 = number(b0, "b0")
        if alpha < b0:
            return BoundaryClass(
                "inaccessible", "clause (ii): alpha < b(0)"
            )
        if alpha > b0:
            return BoundaryClass("t_regular", "clause (ii): alpha > b(0)")
        return BoundaryClass("unknown", "clause (ii) tie: alpha = b(0)")

    return BoundaryClass("unknown", "no clause applicable")


def _maybe_expr(obj: dict, key: str, variables) -> Optional[Callable]:
    if key not in obj or obj[key] is None:
        return None
    return parse_expression(obj[key], variables)


def base_measure_from_dict(obj: dict) -> BaseMeasure:
    if not isinstance(obj, dict):
        raise InputFormatError("base measure must be a mapping")
    density = _maybe_expr(obj, "density", ("y",))
    entries = obj.get("atoms", [])
    if not isinstance(entries, list):
        raise InputFormatError(f"'atoms' must be a list, got {entries!r}")
    atoms = []
    for entry in entries:
        try:
            atoms.append((number(entry["y"], "atom y"), number(entry["mass"], "atom mass")))
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"bad atom entry {entry!r}") from exc
    sign = obj.get("support_sign", "both")
    if sign not in SUPPORT_SIGNS:
        raise InputFormatError(f"unknown support_sign {sign!r}")
    y_min = number(obj.get("y_min", 0.0 if sign == "positive" else -math.inf), "y_min")
    y_max = number(obj.get("y_max", 0.0 if sign == "negative" else math.inf), "y_max")
    return BaseMeasure(
        density=density,
        y_min=y_min,
        y_max=y_max,
        atoms=atoms,
        right_tail_fn=_maybe_expr(obj, "tail", ("a",)),
        left_tail_fn=_maybe_expr(obj, "left_tail", ("a",)),
    )


def kernel_from_dict(obj: dict) -> LevyKernel:
    if not isinstance(obj, dict) or "case" not in obj:
        raise InputFormatError("kernel needs a 'case' field")
    case = obj["case"]
    if case == "density":
        if "density" not in obj:
            raise InputFormatError("density kernel needs a 'density' expression")
        return DensityKernel(
            density=parse_expression(obj["density"], ("x", "y")),
            support_sign=obj.get("support_sign", "both"),
            y_min=None if obj.get("y_min") is None else number(obj["y_min"], "y_min"),
            y_max=None if obj.get("y_max") is None else number(obj["y_max"], "y_max"),
            dx_density=_maybe_expr(obj, "dx_density", ("x", "y")),
            dx2_density=_maybe_expr(obj, "dx2_density", ("x", "y")),
            right_tail_fn=_maybe_expr(obj, "right_tail", ("x", "a")),
            left_tail_fn=_maybe_expr(obj, "left_tail", ("x", "a")),
        )
    if case == "decomposable":
        if "a" not in obj or "base" not in obj:
            raise InputFormatError("decomposable kernel needs 'a' and 'base'")
        return DecomposableKernel(
            a=parse_expression(obj["a"], ("x",)),
            base=base_measure_from_dict(obj["base"]),
            da=_maybe_expr(obj, "da", ("x",)),
            da2=_maybe_expr(obj, "da2", ("x",)),
        )
    if case == "tabulated":
        return TabulatedKernel(
            right_tail_fn=_maybe_expr(obj, "right_tail", ("x", "a")),
            left_tail_fn=_maybe_expr(obj, "left_tail", ("x", "a")),
            small_moment_fn=_maybe_expr(obj, "small_moment", ("x",)),
        )
    raise InputFormatError(
        f"unknown kernel case {case!r}; expected density, decomposable, tabulated"
    )


# The fields of a model description: those of LevyModel, and `boundary`,
# the lattice boundary that `discretize` reads from the same document.
MODEL_FIELDS = (*(f.name for f in fields(LevyModel)), "boundary")


def model_from_dict(obj: dict) -> LevyModel:
    if not isinstance(obj, dict):
        raise InputFormatError("model description must be a mapping")
    unknown = sorted(set(obj) - set(MODEL_FIELDS), key=str)
    if unknown:
        raise InputFormatError(
            f"unknown model fields {unknown}; expected {', '.join(MODEL_FIELDS)}"
        )
    nu = kernel_from_dict(obj["nu"]) if obj.get("nu") is not None else None
    mu = kernel_from_dict(obj["mu"]) if obj.get("mu") is not None else None
    growth_c = obj.get("growth_c")
    asymptotics = obj.get("asymptotics")
    if asymptotics is not None and not isinstance(asymptotics, dict):
        raise InputFormatError(f"'asymptotics' must be a mapping, got {asymptotics!r}")
    return LevyModel(
        G=_maybe_expr(obj, "G", ("x",)),
        b=_maybe_expr(obj, "b", ("x",)),
        nu=nu,
        mu=mu,
        growth_c=None if growth_c is None else number(growth_c, "growth_c"),
        support=obj.get("support", "line"),
        bounded_coefficients=bool(obj.get("bounded_coefficients", False)),
        asymptotics=asymptotics,
    )
