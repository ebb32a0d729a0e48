"""Shared chain generators for the test suite.

Random monotone chains come from a product family: up rates
A(n) * c_m with A nondecreasing and c nonincreasing in the jump size,
down rates B(n) * d_m with B nonincreasing and d nonincreasing, plus
free nearest-neighbor extras.  Every member satisfies the tail
comparisons, including after window truncation, because c and d are
nonincreasing.  Rates stay inside the window, so no boundary policy has
anything to clamp or kill and the chains are conservative (absorb still
zeroes the edge rows, which preserves monotonicity).
"""

import numpy as np

from monodual.qmatrix import BOUNDARY_POLICIES, RateMatrix


def random_monotone_ratematrix(rng, max_states=12, band=4, boundary=None,
                               n_states=None):
    if n_states is None:
        n_states = int(rng.integers(3, max_states + 1))
    lo = int(rng.integers(-6, 4))
    hi = lo + n_states - 1
    band = int(min(band, n_states - 1))
    if boundary is None:
        boundary = BOUNDARY_POLICIES[rng.integers(0, len(BOUNDARY_POLICIES))]

    a_factors = np.sort(rng.uniform(0.0, 3.0, size=n_states))
    b_factors = np.sort(rng.uniform(0.0, 3.0, size=n_states))[::-1]
    c_sizes = np.sort(rng.uniform(0.0, 1.5, size=band))[::-1]
    d_sizes = np.sort(rng.uniform(0.0, 1.5, size=band))[::-1]

    rates = {}
    for i, n in enumerate(range(lo, hi + 1)):
        for m in range(1, band + 1):
            if n + m > hi:
                break
            r = a_factors[i] * c_sizes[m - 1]
            if r > 0.0:
                rates[(n, m)] = r
        for m in range(1, band + 1):
            if n - m < lo:
                break
            r = b_factors[i] * d_sizes[m - 1]
            if r > 0.0:
                rates[(n, -m)] = r
        # nearest-neighbor extras are unconstrained
        if n + 1 <= hi and rng.random() < 0.5:
            rates[(n, 1)] = rates.get((n, 1), 0.0) + float(rng.uniform(0.0, 2.0))
        if n - 1 >= lo and rng.random() < 0.5:
            rates[(n, -1)] = rates.get((n, -1), 0.0) + float(rng.uniform(0.0, 2.0))
    return RateMatrix(lo, hi, boundary, rates)


def random_ratematrix(rng, max_states=12, band=4):
    """An arbitrary chain: monotone, perturbed monotone, or fully random."""
    kind = rng.random()
    if kind < 0.4:
        return random_monotone_ratematrix(rng, max_states, band)
    if kind < 0.7:
        rm = random_monotone_ratematrix(rng, max_states, band)
        rates = dict(rm.rates)
        if rates:
            keys = sorted(rates)
            key = keys[rng.integers(0, len(keys))]
            rates[key] = rates[key] * float(rng.uniform(0.0, 6.0))
        n = int(rng.integers(rm.lo, rm.hi + 1))
        m = int(rng.integers(1, band + 1)) * (1 if rng.random() < 0.5 else -1)
        if rm.lo <= n + m <= rm.hi:
            rates[(n, m)] = rates.get((n, m), 0.0) + float(rng.uniform(0.0, 4.0))
        return RateMatrix(rm.lo, rm.hi, rm.boundary, rates)
    n_states = int(rng.integers(2, max_states + 1))
    lo = int(rng.integers(-6, 4))
    hi = lo + n_states - 1
    boundary = BOUNDARY_POLICIES[rng.integers(0, len(BOUNDARY_POLICIES))]
    rates = {}
    for n in range(lo, hi + 1):
        for m in range(-band, band + 1):
            if m == 0 or rng.random() < 0.55:
                continue
            r = float(rng.uniform(0.0, 4.0))
            if r > 0.0:
                rates[(n, m)] = r
    return RateMatrix(lo, hi, boundary, rates)


def birth_death(lo, hi, up, down, boundary="absorb"):
    """Construct a birth-death chain; up/down are scalars or callables."""
    rates = {}
    for n in range(lo, hi + 1):
        if n < hi:
            r = up(n) if callable(up) else up
            if r > 0.0:
                rates[(n, 1)] = float(r)
        if n > lo:
            r = down(n) if callable(down) else down
            if r > 0.0:
                rates[(n, -1)] = float(r)
    return RateMatrix(lo, hi, boundary, rates)
