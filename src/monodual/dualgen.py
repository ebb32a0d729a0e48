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

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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
    fd_derivative,
)

COMPENSATOR_CONVENTIONS = ("y-factor", "indicator")

# Dual densities below this are a construction error, not noise.
DUAL_DENSITY_TOL = 1e-9

# Step scale for second-derivative finite differences (wider than the
# first-derivative step to keep roundoff out of f'').
FD_SCALE_D2 = 6e-4

_Y_SETTLE_TOL = 1e-13
_Y_HARD_CAP = 2.0 ** 20


@dataclass
class DualGeneratorCoeffs:
    """Coefficient functions of the dual generator.

    G is shared with the forward process; drift is the full dual drift
    -(G'/2 + b); nu_tilde(x, y) is the magnitude density of the downward
    dual jumps at y > 0; atom_terms(x) lists discrete dual jumps as
    (magnitude, mass) pairs; correction(x) is the residual drift integral
    of y (nu - nu~) over 0 < y <= 1.
    """

    G: Callable[[float], float]
    drift: Callable[[float], float]
    nu_tilde: Callable[[float, float], float]
    correction: Callable[[float], float]
    case: str
    atom_terms: Optional[Callable[[float], List[Tuple[float, float]]]] = None

    def atoms_at(self, x: float) -> List[Tuple[float, float]]:
        return [] if self.atom_terms is None else self.atom_terms(x)


def _checked_density(x: float, y: float, val: float) -> float:
    if val < -DUAL_DENSITY_TOL:
        raise NegativeDualDensity(x, y, val)
    return max(val, 0.0)


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

    def tail_du(u: float, y: float) -> float:
        if kern.dx_density is not None:
            # the tail only holds mass inside (y_min, y_max)
            lo = max(y, kern.y_min)
            return _quad(lambda z: float(kern.dx_density(u, z)), lo, kern.y_max)
        d = FD_SCALE * (1.0 + abs(u))
        return (kern.right_tail(u + d, y) - kern.right_tail(u - d, y)) / (2.0 * d)

    def nu_tilde(x: float, y: float) -> float:
        u = x - y
        return _checked_density(x, y, kern.density_at(u, y) + tail_du(u, y))

    def correction(x: float) -> float:
        return _quad(
            lambda y: y * (kern.density_at(x, y) - nu_tilde(x, y)), 0.0, 1.0
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

    def g_density(y: float) -> float:
        if base.density is None or y <= base.y_min or y >= base.y_max:
            return 0.0
        return float(base.density(y))

    def nu_tilde(x: float, y: float) -> float:
        val = kern.factor(x - y) * g_density(y) + kern.dfactor(x - y) * base.right_tail(y)
        return _checked_density(x, y, val)

    def atom_terms(x: float) -> List[Tuple[float, float]]:
        out = []
        for y, mass in base.atoms:
            if y > 0.0:
                out.append((y, kern.factor(x - y) * mass))
        return out

    def correction(x: float) -> float:
        fac = kern.factor(x)
        total = _quad(
            lambda y: y * (fac * g_density(y) - nu_tilde(x, y)), 0.0, 1.0
        )
        for y, mass in base.atoms:
            if 0.0 < y <= 1.0:
                total += y * (fac - kern.factor(x - y)) * mass
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
    nu_tilde matrix when magnitudes ys are given.
    """
    xs = [float(x) for x in xs]
    out = {
        "x": xs,
        "G": [coeffs.G(x) for x in xs],
        "drift": [coeffs.drift(x) for x in xs],
        "correction": [coeffs.correction(x) for x in xs],
        "case": coeffs.case,
    }
    if ys is not None:
        ys = [float(y) for y in ys]
        out["y"] = ys
        out["nu_tilde"] = [[coeffs.nu_tilde(x, y) for y in ys] for x in xs]
        atoms = {x: coeffs.atoms_at(x) for x in xs}
        if any(atoms.values()):
            out["atoms"] = [
                {"x": x, "terms": [{"y": y, "mass": mss} for y, mss in atoms[x]]}
                for x in xs
            ]
    return out
