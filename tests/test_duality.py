"""Term-by-term oracles for the dual rate formulas.

The dual construction in `dual_qmatrix` works on dense tail differences.
These tests recompute every dual rate from the offset-form summation
formulas (the jump-width rearrangement of the same transform, diagonal
terms included, off-window rows treated as zero) and demand exact float
equality.  All rates are dyadic so the sums involved are exact.
"""

import numpy as np
import pytest

from monodual.qmatrix import (
    RateMatrix,
    check_monotone,
    dual_qmatrix,
    effective_generator,
    transition_matrix,
    verify_duality,
)

from conftest import random_monotone_ratematrix


def two_sided_dyadic():
    # up: constant nearest-neighbor 2 plus product 0.25*n at width 2,
    # down: constant 1 plus product (2 - 0.25*n)/2 at width 2.
    # Monotone, conservative, every rate dyadic.
    rates = {}
    for n in range(7):
        if n + 1 <= 6:
            rates[(n, 1)] = 2.0
        if n + 2 <= 6 and n > 0:
            rates[(n, 2)] = 0.25 * n
        if n - 1 >= 0:
            rates[(n, -1)] = 1.0
        if n - 2 >= 0:
            rates[(n, -2)] = (2.0 - 0.25 * n) * 0.5
    return RateMatrix(0, 6, "kill", rates)


def pure_up_two_scale():
    rates = {}
    for n in range(7):
        if n + 1 <= 6:
            rates[(n, 1)] = 2.0
        if n + 2 <= 6 and n > 0:
            rates[(n, 2)] = 0.25 * n
    return RateMatrix(0, 6, "kill", rates)


def offset_oracle(rm):
    """Dual rates from the offset-form sums, plus the top-row leak."""
    q, kill = effective_generator(rm)
    lo, hi = rm.lo, rm.hi
    n_states = hi - lo + 1

    def omega(k, l):
        if k < lo or k > hi:
            return 0.0
        j = k + l
        if j < lo or j > hi:
            return 0.0
        return q[k - lo, (k + l) - lo]

    width = n_states + 1
    out = {}
    for n in range(lo, hi + 1):
        # upward widths that stay inside the window; at n = lo these sums
        # telescope to the kill differences kill_{n+i-1} - kill_{n+i}
        for i in range(1, hi - n + 1):
            v = sum(omega(n + i, l) - omega(n + i - 1, l + 1)
                    for l in range(-i, width))
            if v != 0.0:
                out[(n, i)] = v
        # downward widths
        for i in range(1, n - lo + 1):
            v = omega(n - i, i) + sum(
                omega(n - i, l) - omega(n - i - 1, l)
                for l in range(i + 1, width)
            )
            if v != 0.0:
                out[(n, -i)] = v
        # mass the dual cannot keep inside the window leaks out past the
        # top, recorded at the first out-of-window offset
        delta = kill[hi - lo] + sum(q[hi - lo, j] for j in range(n - lo))
        if delta != 0.0:
            out[(n, hi + 1 - n)] = delta
    return out


def dense_rates(rm, rates, width):
    """``rates`` on rm's window as an array indexed by (state, offset + width)."""
    arr = np.zeros((rm.n_states, 2 * width + 1))
    for (n, m), r in rates.items():
        arr[n - rm.lo, m + width] = r
    return arr


class TestOffsetOracle:
    @pytest.mark.parametrize("chain", [two_sided_dyadic, pure_up_two_scale])
    def test_dual_matches_oracle_exactly(self, chain):
        rm = chain()
        rep = check_monotone(rm)
        assert rep.ok and rep.agreement is True
        dual = dual_qmatrix(rm)
        assert dual.rates == offset_oracle(rm)

    def test_pure_up_chain_has_pure_down_dual(self):
        dual = dual_qmatrix(pure_up_two_scale())
        interior = {(n, m) for (n, m) in dual.rates if n + m <= 6}
        assert all(m < 0 for (_n, m) in interior)

    def test_oracle_leak_values(self):
        dual = dual_qmatrix(two_sided_dyadic())
        # forward top row sends mass down at rates 1 (width 1) and
        # 0.5 (width 2); thresholds at or below those targets leak
        assert dual.rates[(5, 2)] == 0.25
        assert dual.rates[(6, 1)] == 1.25

    def test_dual_bottom_row_absorbing(self):
        dual = dual_qmatrix(two_sided_dyadic())
        assert not any(n == 0 for (n, _m) in dual.rates)

    def test_oracle_on_random_monotone_chains(self):
        # roundoff dust differs between the two routes (the dense route
        # clamps tiny negatives, which the oracle keeps and RateMatrix would
        # reject), so compare densely with a tolerance
        rng = np.random.default_rng(20260819)
        for _ in range(25):
            rm = random_monotone_ratematrix(rng, max_states=10, band=4)
            dual = dual_qmatrix(rm)
            oracle = offset_oracle(rm)
            width = rm.n_states + 1
            got = dense_rates(rm, dual.rates, width)
            want = dense_rates(rm, oracle, width)
            assert np.allclose(got, want, atol=1e-12)

    def test_row_lo_carries_kill_differences(self):
        # a chain killed from the bottom states produces genuine dual rates
        # out of the bottom row; they telescope the kill vector
        rates = {(n, 1): 1.0 for n in range(4)}
        rates.update({(n, -1): 0.5 for n in range(1, 5)})
        rates[(0, -2)] = 0.5  # out of window: kill at rate 0.5 from state 0
        rm = RateMatrix(0, 4, "kill", rates)
        assert check_monotone(rm).ok
        dual = dual_qmatrix(rm)
        assert dual.rates[(0, 1)] == 0.5  # kill_0 - kill_1


class TestNearestNeighborSwap:
    def test_swap_identities(self):
        births = {0: 0.5, 1: 1.0, 2: 2.0}
        deaths = {1: 0.25, 2: 0.5, 3: 1.0}
        rates = {(n, 1): r for n, r in births.items()}
        rates.update({(n, -1): r for n, r in deaths.items()})
        rm = RateMatrix(0, 4, "kill", rates)
        dual = dual_qmatrix(rm)
        for n in range(1, 5):
            assert dual.rates.get((n, 1), 0.0) == deaths.get(n, 0.0)
            assert dual.rates.get((n, -1), 0.0) == births.get(n - 1, 0.0)

    def test_double_dual_is_unit_shift(self):
        # with absorbing top rows on both passes, applying the one-sided
        # tail transform twice shifts the chain up one state, exactly
        births = {0: 0.5, 1: 1.0, 2: 2.0}
        deaths = {1: 0.25, 2: 0.5, 3: 1.0}
        rates = {(n, 1): r for n, r in births.items()}
        rates.update({(n, -1): r for n, r in deaths.items()})
        rm = RateMatrix(0, 4, "kill", rates)
        dd = dual_qmatrix(dual_qmatrix(rm))
        assert dd.rates == {(n + 1, m): r for (n, m), r in rm.rates.items()}


class TestDualityIdentity:
    def test_algebraic_identity_dense(self):
        # Q F = F dual(Q)^T entrywise, F the one-sided comparison kernel
        rng = np.random.default_rng(5)
        for _ in range(10):
            rm = random_monotone_ratematrix(rng, max_states=11, band=4)
            dual = dual_qmatrix(rm)
            q, _ = effective_generator(rm)
            qd, _ = effective_generator(dual)
            n = rm.n_states
            F = (np.arange(n)[:, None] >= np.arange(n)[None, :]).astype(float)
            assert np.allclose(q @ F, F @ qd.T, atol=1e-12)

    def test_transition_level_identity(self):
        rm = two_sided_dyadic()
        for t in (0.25, 1.0, 4.0):
            rep = verify_duality(rm, t)
            assert rep.ok
            assert rep.sup_margin <= rep.sup_full
            assert rep.sup_full < 1e-12

    def test_reported_location_is_valid_pair(self):
        rm = two_sided_dyadic()
        rep = verify_duality(rm, 0.5)
        x, y = rep.at
        assert 0 <= x <= 6 and 0 <= y <= 6

    def test_interior_identity_with_killing_boundary(self):
        # a chain that genuinely kills at the bottom still satisfies the
        # identity away from the edges
        rates = {(n, 1): 1.0 for n in range(8)}
        rates.update({(n, -1): 0.5 for n in range(1, 9)})
        rates[(0, -1)] = 0.75  # kill at the bottom state, nonincreasing
        rm = RateMatrix(0, 8, "kill", rates)
        assert check_monotone(rm).ok
        rep = verify_duality(rm, 0.5, margin=2)
        assert rep.ok
