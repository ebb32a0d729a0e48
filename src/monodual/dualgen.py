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

The small-jump compensator comp of the dual integral admits two readings
and the package carries both: "y-factor" uses comp(y) = y 1{y <= 1}
(dimensionally matching the correction integral, and the one the lattice
dual converges to), "indicator" uses comp(y) = 1{y <= 1}.  Callers pick
the convention per evaluation; the default is "y-factor".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (
    InputFormatError,
    NegativeDualDensity,
    QuadratureFailure,
    UnsupportedKernelCase,
)
from .generator import (
    FD_SCALE,
    DecomposableKernel,
    DensityKernel,
    LevyModel,
    _quad,
    density_tails,
    fd_derivative,
    gauss_panels,
)

COMPENSATOR_CONVENTIONS = ("y-factor", "indicator")

# Dual densities below this are a construction error, not noise.
DUAL_DENSITY_TOL = 1e-9

# Step scale for second-derivative finite differences (wider than the
# first-derivative step to keep roundoff out of f'').
FD_SCALE_D2 = 6e-4

_Y_SETTLE_TOL = 1e-13
_Y_HARD_CAP = 2.0 ** 20

# The correction integral over [0, 1] runs Gauss-Legendre 8/16 on two
# panels.  Its integrand holds central differences (step FD_SCALE), whose
# rounding of about 2e-11 relative shows in the 8/16 difference, so a panel
# passes at _quad's relative tolerance, 1e-10, rather than at 1e-13.
_UNIT_PANELS = np.linspace(0.0, 1.0, 3)
_CORRECTION_RTOL = 1e-10


@dataclass
class DualGeneratorCoeffs:
    """Coefficient functions of the dual generator.

    G is shared with the forward process; drift is the full dual drift
    -(G'/2 + b); nu_tilde(x, y) is the magnitude density of the downward
    dual jumps at y > 0; atom_terms(x) lists discrete dual jumps as
    (magnitude, mass) pairs; correction(x) is the residual drift integral
    of y (nu - nu~) over 0 < y <= 1.  nu_tilde and correction take
    broadcast arrays, and floats when every argument is a scalar.
    """

    G: Callable[[float], float]
    drift: Callable[[float], float]
    nu_tilde: Callable[[float, float], float]
    correction: Callable[[float], float]
    case: str
    atom_terms: Optional[Callable[[float], List[Tuple[float, float]]]] = None

    def atoms_at(self, x: float) -> List[Tuple[float, float]]:
        return [] if self.atom_terms is None else self.atom_terms(x)


def _pointwise(fn):
    """``fn`` on the flattened broadcast of its float arguments, reshaped
    back; a float when every argument is a scalar."""

    @functools.wraps(fn)
    def wrapped(*args):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        flat = [np.broadcast_to(np.asarray(a, dtype=float), shape).ravel() for a in args]
        out = fn(*flat).reshape(shape)
        return float(out) if not shape else out

    return wrapped


def _checked_density(x: np.ndarray, y: np.ndarray, val: np.ndarray) -> np.ndarray:
    """val with roundoff negatives set to 0; the first value below
    -DUAL_DENSITY_TOL raises NegativeDualDensity."""
    bad = val < -DUAL_DENSITY_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise NegativeDualDensity(float(x[i]), float(y[i]), float(val[i]))
    return np.maximum(val, 0.0)


def _unit_integrals(integrand, x: np.ndarray) -> np.ndarray:
    """Integral over [0, 1] of integrand(x, y) dy for each x of a 1-D array.

    gauss_panels on the _UNIT_PANELS; a failing panel goes to _quad.
    """
    lo, hi = _UNIT_PANELS[:-1], _UNIT_PANELS[1:]
    high, fail = gauss_panels(
        lambda y: integrand(x[:, None, None], y), lo, hi, rtol=_CORRECTION_RTOL
    )
    for i, j in np.argwhere(fail).tolist():
        point = x[i:i + 1]
        high[i, j] = _quad(lambda y: float(integrand(point, y)[0]), lo[j], hi[j])
    return high.sum(axis=-1)


def _dual_drift(m: LevyModel, dG: Optional[Callable[[float], float]]):
    def drift(x: float) -> float:
        if m.G is None:
            gp = 0.0
        elif dG is not None:
            gp = float(dG(x))
        else:
            gp = fd_derivative(m.G, x)
        return -(0.5 * gp + m.b_at(x))

    return drift


def dual_levy_case_i(
    m: LevyModel, dG: Optional[Callable[[float], float]] = None
) -> DualGeneratorCoeffs:
    """Dual coefficients from an explicit density kernel.

    Needs nu given as a density in both arguments with upward jumps only.
    The state derivative of the tail uses the kernel's dx_density when
    supplied and a central finite difference on the tail otherwise.
    """
    kern = m.nu
    if not isinstance(kern, DensityKernel):
        raise UnsupportedKernelCase(
            "explicit-density dual construction needs a density kernel"
        )
    if kern.support_sign != "positive":
        raise UnsupportedKernelCase(
            "dual construction needs a kernel with upward jumps only"
        )

    def tail_du(u: np.ndarray, y: np.ndarray) -> np.ndarray:
        if kern.dx_density is not None:
            # the tail only holds mass inside (y_min, y_max)
            return density_tails(kern.dx_density, (u,), y, 1.0, kern.y_min, kern.y_max)
        d = FD_SCALE * (1.0 + np.abs(u))
        return (kern.tails(1.0, u + d, y) - kern.tails(1.0, u - d, y)) / (2.0 * d)

    @_pointwise
    def nu_tilde(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x - y
        return _checked_density(x, y, kern.density_values((u,), y) + tail_du(u, y))

    @_pointwise
    def correction(x: np.ndarray) -> np.ndarray:
        return _unit_integrals(
            lambda x, y: y * (kern.density_values((x,), y) - nu_tilde(x, y)), x
        )

    return DualGeneratorCoeffs(
        G=m.G_at,
        drift=_dual_drift(m, dG),
        nu_tilde=nu_tilde,
        correction=correction,
        case="density",
    )


def dual_levy_case_ii(
    m: LevyModel, dG: Optional[Callable[[float], float]] = None
) -> DualGeneratorCoeffs:
    """Dual coefficients from a decomposable kernel a(x) * base(dy).

    Needs upward jumps only.  Atoms of the base measure reappear in the
    dual as discrete downward jumps of mass a(x - y) * m at magnitude y;
    the derivative term stays a density against the base tail.
    """
    kern = m.nu
    if not isinstance(kern, DecomposableKernel):
        raise UnsupportedKernelCase(
            "factored dual construction needs a decomposable kernel"
        )
    if kern.support_sign != "positive":
        raise UnsupportedKernelCase(
            "dual construction needs a kernel with upward jumps only"
        )
    base = kern.base

    @_pointwise
    def nu_tilde(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x - y
        val = (kern.factors(u) * base.density_values((), y)
               + kern.dfactors(u) * base.tails(1.0, y))
        return _checked_density(x, y, val)

    def atom_terms(x: float) -> List[Tuple[float, float]]:
        out = []
        for y, mass in base.atoms:
            if y > 0.0:
                out.append((y, float(kern.factors(x - y)) * mass))
        return out

    @_pointwise
    def correction(x: np.ndarray) -> np.ndarray:
        fac = kern.factors(x)
        total = _unit_integrals(
            lambda x, y: y * (kern.factors(x) * base.density_values((), y) - nu_tilde(x, y)), x
        )
        for y, mass in base.atoms:
            if 0.0 < y <= 1.0:
                total = total + y * (fac - kern.factors(x - y)) * mass
        return total

    return DualGeneratorCoeffs(
        G=m.G_at,
        drift=_dual_drift(m, dG),
        nu_tilde=nu_tilde,
        correction=correction,
        case="decomposable",
        atom_terms=atom_terms,
    )


def dual_levy(
    m: LevyModel, dG: Optional[Callable[[float], float]] = None
) -> DualGeneratorCoeffs:
    """Dispatch on the kernel representation of the model."""
    if m.nu is None:
        raise UnsupportedKernelCase("model has no compensated jump kernel")
    if isinstance(m.nu, DensityKernel):
        return dual_levy_case_i(m, dG)
    if isinstance(m.nu, DecomposableKernel):
        return dual_levy_case_ii(m, dG)
    raise UnsupportedKernelCase(
        f"no dual construction for kernel case {m.nu.case!r}"
    )


def _fd2(f: Callable[[float], float], x: float) -> float:
    h = FD_SCALE_D2 * (1.0 + abs(x))
    return (float(f(x + h)) - 2.0 * float(f(x)) + float(f(x - h))) / (h * h)


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
    y_max truncates the integral explicitly instead.
    """
    if convention not in COMPENSATOR_CONVENTIONS:
        raise InputFormatError(
            f"unknown compensator convention {convention!r}; "
            f"expected one of {COMPENSATOR_CONVENTIONS}"
        )
    fx = float(f(x))
    fp = float(df(x)) if df is not None else fd_derivative(f, x)
    fpp = float(d2f(x)) if d2f is not None else _fd2(f, x)

    if convention == "y-factor":
        comp = lambda y: y if y <= 1.0 else 0.0
    else:
        comp = lambda y: 1.0 if y <= 1.0 else 0.0

    def integrand(y: float) -> float:
        return (float(f(x - y)) - fx + fp * comp(y)) * coeffs.nu_tilde(x, y)

    cap = _Y_HARD_CAP if y_max is None else float(y_max)
    total = _quad(integrand, 0.0, min(1.0, cap))
    lo = 1.0
    while lo < cap:
        hi = min(2.0 * lo, cap)
        seg = _quad(integrand, lo, hi)
        total += seg
        lo = hi
        if abs(seg) < _Y_SETTLE_TOL * (1.0 + abs(total)):
            break
    else:
        if y_max is None:
            raise QuadratureFailure(
                "dual jump integral did not settle below the hard cap"
            )

    for y, mass in coeffs.atoms_at(x):
        total += (float(f(x - y)) - fx + fp * comp(y)) * mass

    return (
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
    nu_tilde matrix when magnitudes ys are given.  A G or drift that is not
    finite at some x raises InputFormatError naming the first such x.  The
    correction is one array call over xs and the nu_tilde matrix one call
    over the (x, y) grid: Gauss-Legendre 8/16 on panels, with a _quad
    fallback per failing panel, for the correction integral over [0, 1] and
    for the tails of a density-only kernel (see generator.density_tails).
    """
    xs = np.asarray(xs, dtype=float).ravel()
    out = {"x": xs.tolist()}
    for name, fn in (("G", coeffs.G), ("drift", coeffs.drift)):
        out[name] = [fn(x) for x in out["x"]]
        bad = [x for x, v in zip(out["x"], out[name]) if not math.isfinite(v)]
        if bad:
            raise InputFormatError(f"{name} is not finite at x={bad[0]}")
    out["correction"] = coeffs.correction(xs).tolist()
    out["case"] = coeffs.case
    if ys is not None:
        ys = np.asarray(ys, dtype=float).ravel()
        out["y"] = ys.tolist()
        out["nu_tilde"] = coeffs.nu_tilde(xs[:, None], ys[None, :]).tolist()
        atoms = {x: coeffs.atoms_at(x) for x in out["x"]}
        if any(atoms.values()):
            out["atoms"] = [
                {"x": x, "terms": [{"y": y, "mass": mss} for y, mss in atoms[x]]}
                for x in out["x"]
            ]
    return out
