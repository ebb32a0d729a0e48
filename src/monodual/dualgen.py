"""Explicit dual generators for monotone jump-diffusions.

A stochastically monotone process X with upward jumps only has a Siegmund
dual Y characterized by P(X_t >= y | X_0 = x) = P(Y_t <= x | Y_0 = y).
When X has generator

    L f(x) = G(x)/2 f''(x) + b(x) f'(x)
             + integral over y > 0 of
               [f(x+y) - f(x) - f'(x) y 1{y <= 1}] nu(x, dy)

the dual generator takes the form

    L~ f(x) = G(x)/2 f''(x) - [G'(x)/2 + b(x)] f'(x)
              + integral over y > 0 of
                [f(x-y) - f(x) + f'(x) comp(y)] nu~(x, dy)
              + f'(x) * integral over 0 < y <= 1 of y (nu - nu~)(x, dy)

with the dual jump measure nu~ given in closed form for two kernel
shapes: an explicit density in both arguments, where

    nu~(x, y) = nu(x - y, y) + d/du [ integral_y^inf nu(u, z) dz ]
                               evaluated at u = x - y,

and a decomposable kernel nu(x, dy) = a(x) g(y) dy, where

    nu~(x, y) = a(x - y) g(y) + a'(x - y) * integral_y^inf g(z) dz.

Both are the first formula, built once from the kernel's own density,
tail-derivative and atom methods.

The small-jump compensator comp of the dual integral admits two readings
and the package carries both: "y-factor" uses comp(y) = y 1{y <= 1}
(dimensionally matching the correction integral, and the one the lattice
dual converges to), "indicator" uses comp(y) = 1{y <= 1}.  Callers pick
the convention per evaluation; the default is "y-factor".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InputFormatError,
    NegativeDualDensity,
    QuadratureFailure,
    UnsupportedKernelCase,
)
from .generator import (
    DecomposableKernel,
    DensityKernel,
    LevyModel,
    _checked,
    _coefficient_values,
    _evaluate,
    _settle,
    _side_integral,
    _unresolved,
    central_difference,
    gauss_rules,
)

COMPENSATOR_CONVENTIONS = ("y-factor", "indicator")

# Dual densities below this are a construction error, not noise.
DUAL_DENSITY_TOL = 1e-9

_Y_SETTLE_TOL = 1e-13
_Y_HARD_CAP = 2.0 ** 20

# dual_generator_apply integrates each segment of y on this many equal
# Gauss-Legendre 8/16 panels.
_APPLY_PANELS = 4

# The integrands of the correction and of dual_generator_apply hold
# central differences (step FD_SCALE): nu_tilde does unless the model gives
# da or dx_density.  Their rounding of about 2e-11 relative shows in the
# 8/16 difference and in bisection's end check, so both integrals pass
# generator._settle at 1e-10 of the integral of |integrand| rather than at
# 1e-13.
_DIFFERENCE_RTOL = 1e-10


@dataclass
class DualGeneratorCoeffs:
    """Coefficient functions of the dual generator, on float64 arrays.

    G is shared with the forward process; drift is the full dual drift
    -(G'/2 + b); nu_tilde(x, y) is the magnitude density of the downward
    dual jumps at y > 0; correction(x) is the residual drift integral of
    y (nu - nu~) over 0 < y <= 1.  Discrete dual jumps sit at the fixed
    magnitudes ``atom_sizes``, with masses ``atom_masses(x)``, one column
    per size.  Every function takes broadcast arrays, a scalar as a 0-d
    array, and returns float64 arrays.
    """

    G: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray], np.ndarray]
    nu_tilde: Callable[[np.ndarray, np.ndarray], np.ndarray]
    correction: Callable[[np.ndarray], np.ndarray]
    case: str
    atom_sizes: Sequence[float]
    atom_masses: Callable[[np.ndarray], np.ndarray]


def _coefficient(fn: Optional[Callable]) -> Callable[[np.ndarray], np.ndarray]:
    """``fn`` on arrays; 0 everywhere when it is absent."""
    if fn is None:
        return lambda x: np.zeros(np.shape(x))
    return functools.partial(_evaluate, fn)


def _checked_density(x: np.ndarray, y: np.ndarray, forward: np.ndarray,
                     val: np.ndarray) -> np.ndarray:
    """val, the dual density at (x, y) built on the forward density
    ``forward`` at (x - y, y), with roundoff negatives set to 0.

    At the first (x - y, y) where ``forward`` breaks the mass rule of
    generator._checked, TailMassUnresolved is raised: the kernel is not a
    measure.  Then, at the first (x, y) where val is not finite or below
    -DUAL_DENSITY_TOL, InputFormatError or NegativeDualDensity is raised.
    """
    def first(bad, *args):
        i = np.unravel_index(np.argmax(bad), bad.shape)
        return i, *(float(np.broadcast_to(v, bad.shape)[i]) for v in args)

    bad = _checked(forward)[1]
    if bad.any():
        i, u, y = first(bad, x - y, y)
        raise _unresolved(f"nu density at x={u}, y={y}", float(forward[i]))
    bad = ~np.isfinite(val) | (val < -DUAL_DENSITY_TOL)
    if bad.any():
        i, x, y = first(bad, x, y)
        if not np.isfinite(val[i]):
            raise InputFormatError(f"nu_tilde is not finite at x={x}, y={y}")
        raise NegativeDualDensity(x, y, float(val[i]))
    return np.maximum(val, 0.0)


def _dual_drift(m: LevyModel, dG: Optional[Callable]):
    """-(G'/2 + b) on arrays: G' from dG, else a central difference of G."""
    if m.G is None:
        dG = _coefficient(None)
    elif dG is None:
        dG = functools.partial(central_difference, _coefficient(m.G))
    else:
        dG = _coefficient(dG)
    b = _coefficient(m.b)
    return lambda x: -(0.5 * dG(x) + b(x))


def _dual_coefficients(m: LevyModel, kern, dG: Optional[Callable]) -> DualGeneratorCoeffs:
    """Dual coefficients of m, whose kernel ``kern`` has upward jumps only,
    from the kernel interface alone.

    The dual density is nu~(x, y) = density_values((x - y,), y) +
    dx_tails(1, x - y, y).  Each positive atom size s is a dual atom of
    mass atom_masses(x - s) in its column.  The correction integrates
    y (nu - nu~) over the magnitudes [0, 1] with generator._side_integral
    and adds s times the change of mass of each atom in (0, 1].
    """
    sizes = np.array(kern.atom_sizes, dtype=float)
    up = sizes > 0.0
    small = sizes[up] <= 1.0

    def nu_tilde(x, y) -> np.ndarray:
        u = x - y
        with np.errstate(all="ignore"):  # _checked_density rejects inf and NaN
            forward = kern.density_values((u,), y)
            val = forward + kern.dx_tails(1.0, u, y)
        return _checked_density(x, y, forward, val)

    def atom_masses(x) -> np.ndarray:
        # atom i's column of the masses at x - sizes[i]
        shifted = kern.atom_masses(np.asarray(x, dtype=float)[..., None] - sizes)
        return np.diagonal(shifted, axis1=-2, axis2=-1)[..., up]

    def correction(x) -> np.ndarray:
        total = _side_integral(
            lambda x, y: y * (kern.density_values((x,), y) - nu_tilde(x, y)),
            (x,), 1.0, 0.0, 1.0, _DIFFERENCE_RTOL,
        )
        if small.any():
            jumps = sizes[up] * (kern.atom_masses(x)[..., up] - atom_masses(x))
            total = total + jumps[..., small].sum(axis=-1)
        return total

    return DualGeneratorCoeffs(
        G=_coefficient(m.G),
        drift=_dual_drift(m, dG),
        nu_tilde=nu_tilde,
        correction=correction,
        case=kern.case,
        atom_sizes=sizes[up].tolist(),
        atom_masses=atom_masses,
    )


def dual_levy(m: LevyModel, dG: Optional[Callable] = None) -> DualGeneratorCoeffs:
    """Dual coefficients of a model whose jump kernel nu is a DensityKernel
    or a DecomposableKernel with upward jumps only and which has no
    uncompensated kernel mu; any other model raises UnsupportedKernelCase.

    The state derivative of a density kernel's tail is the tail of its
    dx_density when supplied, else a central difference of the tail.  Atoms
    of a decomposable kernel's base reappear in the dual as discrete
    downward jumps of mass a(x - y) * m at magnitude y.
    """
    kern = m.nu
    if kern is None:
        raise UnsupportedKernelCase("model has no compensated jump kernel")
    if not isinstance(kern, (DensityKernel, DecomposableKernel)):
        raise UnsupportedKernelCase(f"no dual construction for a {type(kern).__name__}")
    if kern.support_sign != "positive":
        raise UnsupportedKernelCase("dual construction needs a kernel with upward jumps only")
    if m.mu is not None:
        raise UnsupportedKernelCase("dual construction takes no uncompensated kernel mu")
    return _dual_coefficients(m, kern, dG)


def dual_generator_apply(
    coeffs: DualGeneratorCoeffs,
    f: Callable[[float], float],
    x: float,
    df: Optional[Callable[[float], float]] = None,
    d2f: Optional[Callable[[float], float]] = None,
    convention: str = "y-factor",
    y_max: Optional[float] = None,
) -> float:
    """Evaluate the dual generator on a smooth test function at x.

    Derivatives of f are taken from df and d2f when given, else by
    central differences.  The jump integral runs over (0, 1] and then
    doubling segments until a segment contributes below the settle
    tolerance; a hard cap guards kernels whose tail never settles.
    y_max (> 0) truncates the integral explicitly instead.  Each segment is
    _APPLY_PANELS Gauss-Legendre 8/16 panels, one nu_tilde call on the
    nodes of both rules.  The panels of all segments then pass the one
    check-and-bisect rule of the package, generator._settle, at
    _DIFFERENCE_RTOL of the integral of the |integrand| over all of them,
    as the correction does: a NaN or infinite integrand raises
    InputFormatError, and a failing panel is bisected.
    """
    if convention not in COMPENSATOR_CONVENTIONS:
        raise InputFormatError(
            f"unknown compensator convention {convention!r}; "
            f"expected one of {COMPENSATOR_CONVENTIONS}"
        )
    if y_max is not None and not y_max > 0.0:
        raise InputFormatError(f"y_max must be positive, got {y_max!r}")
    fn = functools.partial(_evaluate, f)
    fx = fn(x)
    fp = central_difference(fn, x) if df is None else _evaluate(df, x)
    fpp = central_difference(fn, x, 2) if d2f is None else _evaluate(d2f, x)

    def comp(y):
        return np.where(y <= 1.0, y if convention == "y-factor" else 1.0, 0.0)

    def integrand(y):
        return (fn(x - y) - fx + fp * comp(y)) * coeffs.nu_tilde(x, y)

    panels = []  # (lo, hi, 16-node values, their 8/16 distance, |f| integrals)

    def segment(lo: float, hi: float) -> float:
        e = np.linspace(lo, hi, _APPLY_PANELS + 1)
        panels.append((e[:-1], e[1:], *gauss_rules(integrand, e[:-1], e[1:])[:3]))
        return float(panels[-1][2].sum())

    cap = _Y_HARD_CAP if y_max is None else float(y_max)
    total = segment(0.0, min(1.0, cap))
    lo = 1.0
    while lo < cap:
        hi = min(2.0 * lo, cap)
        seg = segment(lo, hi)
        total += seg
        lo = hi
        if abs(seg) < _Y_SETTLE_TOL * (1.0 + abs(total)):
            break
    else:
        if y_max is None:
            raise QuadratureFailure(
                "dual jump integral did not settle below the hard cap"
            )

    a, b, high, err, size = (np.concatenate(p)[None] for p in zip(*panels))
    total = _settle(lambda r, y: integrand(y), a, b, high, err, size, _DIFFERENCE_RTOL).sum()
    for y, mass in zip(coeffs.atom_sizes, coeffs.atom_masses(x)):
        total += (fn(x - y) - fx + fp * comp(y)) * mass

    return float(
        0.5 * coeffs.G(x) * fpp
        + coeffs.drift(x) * fp
        + total
        + fp * coeffs.correction(x)
    )


def tabulate_dual(
    coeffs: DualGeneratorCoeffs,
    xs,
    ys=None,
) -> dict:
    """Sample the dual coefficients on a grid, for export.

    Returns a mapping with per-x rows of G, drift, and correction, plus a
    nu_tilde matrix and the atoms when magnitudes ys are given.  Each
    coefficient is one array call: G, drift, correction and the atom masses
    over xs, nu_tilde over the (x, y) grid.  A value that is not finite
    raises InputFormatError naming the first x (and y, for nu_tilde).  The
    correction integral over [0, 1] and the tails of a density-only kernel
    run through generator._side_integral: Gauss-Legendre 8/16 on panels,
    and the panels that fail the 8/16 check are bisected in one array pass
    per level.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    finite = lambda name, v: _coefficient_values(name, xs, v).tolist()
    out = {"x": xs.tolist(), "G": finite("G", coeffs.G(xs)),
           "drift": finite("drift", coeffs.drift(xs))}
    if ys is not None:
        ys = np.asarray(ys, dtype=float).ravel()
        table = coeffs.nu_tilde(xs[:, None], ys[None, :]).tolist()
        masses = [finite(f"atom mass at y={y}", col)
                  for y, col in zip(coeffs.atom_sizes, coeffs.atom_masses(xs).T)]
    out["correction"] = finite("correction", coeffs.correction(xs))
    out["case"] = coeffs.case
    if ys is not None:
        out["y"] = ys.tolist()
        out["nu_tilde"] = table
        if masses:
            out["atoms"] = [
                {"x": x, "terms": [{"y": y, "mass": col[i]}
                                   for y, col in zip(coeffs.atom_sizes, masses)]}
                for i, x in enumerate(out["x"])
            ]
    return out
