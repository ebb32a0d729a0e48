import math

import numpy as np
import pytest
import scipy.linalg

from monodual import qmatrix
from monodual.errors import (
    DualRateNegative,
    InputFormatError,
    NegativeRate,
    NotMonotone,
)
from monodual.qmatrix import (
    RateMatrix,
    check_monotone,
    check_stochastic_dominance,
    dual_qmatrix,
    effective_generator,
    from_dense,
    ratematrix_from_dict,
    ratematrix_to_dict,
    transition_matrix,
    validate_qmatrix,
    verify_duality,
)

from conftest import birth_death, random_monotone_ratematrix


def reference_generator(rm):
    """The scalar loop the vectorized effective_generator must reproduce."""
    n_states = rm.n_states
    q = np.zeros((n_states, n_states))
    kill = np.zeros(n_states)
    for (n, m), r in rm.rates.items():
        if r == 0.0:
            continue
        i = n - rm.lo
        tgt = n + m
        if rm.lo <= tgt <= rm.hi:
            j = tgt - rm.lo
            q[i, j] += r
            q[i, i] -= r
        elif rm.boundary == "kill":
            kill[i] += r
            q[i, i] -= r
        else:
            j = 0 if tgt < rm.lo else n_states - 1
            if j != i:
                q[i, j] += r
                q[i, i] -= r
    if rm.boundary == "absorb":
        q[0, :] = 0.0
        q[n_states - 1, :] = 0.0
    return q, kill


def reference_offsets(rm, tol):
    """The per-pair loop the vectorized offsets check must reproduce.

    Returns ``checked`` and the violations as (n, kind, index, lhs, rhs).
    """
    q, kill = effective_generator(rm)
    n_states = q.shape[0]
    exit_scale = np.abs(np.diag(q))
    found, checked = [], 0

    def rtail(v, pad):
        tau = np.zeros(len(v) + pad)
        if len(v):
            tau[: len(v)] = np.cumsum(v[::-1])[::-1]
        return tau

    for i in range(n_states - 1):
        n = rm.lo + i
        thr = tol * max(exit_scale[i], exit_scale[i + 1])
        up_n, up_n1 = q[i, i + 1:], q[i + 1, i + 2:]
        if len(up_n) >= 2:
            lhs = rtail(up_n, 0)[1:]
            rhs = up_n1[: len(up_n) - 1] + rtail(up_n1, 1)[1: len(up_n)]
            checked += len(lhs)
            for p in np.nonzero(lhs > rhs + thr)[0]:
                found.append((n, "up", int(p) + 2, lhs[p], rhs[p]))
        dn_n, dn_n1 = q[i, :i][::-1], q[i + 1, : i + 1][::-1]
        lhs = np.concatenate([dn_n, [0.0]]) + (rtail(dn_n, 2) + kill[i])[1:]
        rhs = (rtail(dn_n1, 1) + kill[i + 1])[1:]
        checked += len(lhs)
        for p in np.nonzero(rhs > lhs + thr)[0]:
            found.append((n, "down", int(p) + 2, lhs[p], rhs[p]))
    return checked, found


class TestRateMatrixStructure:
    def test_offset_zero_rejected(self):
        with pytest.raises(InputFormatError):
            RateMatrix(0, 3, "kill", {(1, 0): 1.0})

    def test_source_outside_window_rejected(self):
        with pytest.raises(InputFormatError):
            RateMatrix(0, 3, "kill", {(4, 1): 1.0})

    def test_empty_window_rejected(self):
        with pytest.raises(InputFormatError):
            RateMatrix(3, 2, "kill", {})

    def test_unknown_policy_rejected(self):
        with pytest.raises(InputFormatError):
            RateMatrix(0, 3, "bounce", {})

    def test_states_and_counts(self):
        rm = RateMatrix(-2, 2, "absorb", {(0, 1): 1.0})
        assert rm.n_states == 5
        assert list(rm.states()) == [-2, -1, 0, 1, 2]


class TestValidate:
    def test_negative_rate(self):
        rm = RateMatrix(0, 2, "kill", {(0, 1): -0.5})
        with pytest.raises(NegativeRate):
            validate_qmatrix(rm)

    def test_non_finite_rate(self):
        rm = RateMatrix(0, 2, "kill", {(0, 1): math.nan})
        with pytest.raises(InputFormatError):
            validate_qmatrix(rm)

    def test_summary_fields(self):
        rm = birth_death(0, 4, up=2.0, down=1.0, boundary="kill")
        rep = validate_qmatrix(rm)
        assert rep["n_states"] == 5
        assert rep["conservative"] is True
        assert rep["max_exit_rate"] == 3.0
        rm2 = RateMatrix(0, 2, "kill", {(2, 1): 1.5})
        rep2 = validate_qmatrix(rm2)
        assert rep2["conservative"] is False
        assert rep2["total_kill_rate"] == 1.5


class TestEffectiveGenerator:
    def test_kill_policy_removes_mass(self):
        rm = RateMatrix(0, 2, "kill", {(2, 2): 1.0, (1, 1): 0.5})
        q, kill = effective_generator(rm)
        assert kill[2] == 1.0 and q[2, 2] == -1.0
        assert q[1, 2] == 0.5 and q[1, 1] == -0.5
        assert np.allclose(q.sum(axis=1), -kill)

    def test_absorb_clamps_and_freezes_edges(self):
        rm = RateMatrix(0, 3, "absorb", {(2, 5): 1.0, (1, -4): 2.0, (0, 1): 9.0})
        q, kill = effective_generator(rm)
        assert np.all(kill == 0.0)
        assert q[2, 3] == 1.0  # clamped to the top edge
        assert q[1, 0] == 2.0  # clamped to the bottom edge
        assert np.all(q[0] == 0.0) and np.all(q[3] == 0.0)

    def test_reflect_clamps_and_drops_self_jumps(self):
        rm = RateMatrix(0, 3, "reflect", {(3, 2): 1.0, (2, 3): 0.7, (3, -1): 0.4})
        q, kill = effective_generator(rm)
        assert np.all(kill == 0.0)
        # jump from 3 past the edge clamps onto 3 itself and is dropped
        assert q[3, 3] == -0.4 and q[3, 2] == 0.4
        assert q[2, 3] == 0.7

    def test_matches_scalar_reference(self):
        # offsets reach well past the window, so several rates of one source
        # clamp onto the same edge entry and their sum order matters
        rng = np.random.default_rng(2024)
        for trial in range(60):
            n_states = int(rng.integers(1, 9))
            lo = int(rng.integers(-5, 5))
            rates = {}
            for n in range(lo, lo + n_states):
                for m in rng.choice(np.arange(-12, 13), size=8, replace=False):
                    if m != 0:
                        r = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0)
                        rates[(n, int(m))] = float(r)
            if trial % 2:
                rates[(lo, 10 ** 30)] = 0.3  # beyond int64
            for boundary in ("absorb", "reflect", "kill"):
                rm = RateMatrix(lo, lo + n_states - 1, boundary, rates)
                q, kill = effective_generator(rm)
                q_ref, kill_ref = reference_generator(rm)
                assert np.array_equal(q, q_ref), (trial, boundary)
                assert np.array_equal(kill, kill_ref), (trial, boundary)

    def test_from_dense_round_trip(self):
        rm = birth_death(0, 3, up=1.25, down=0.5, boundary="kill")
        q, kill = effective_generator(rm)
        rm2 = from_dense(0, 3, q, boundary="kill", kill=kill)
        q2, kill2 = effective_generator(rm2)
        assert np.array_equal(q, q2)
        assert np.array_equal(kill, kill2)


class TestMonotonicity:
    def test_offsets_match_per_pair_reference(self):
        # the down-family sums run in another order than the loop's, so
        # lhs/rhs may differ in the last bits; verdicts and order may not
        rng = np.random.default_rng(77)
        seen = 0
        for trial in range(120):
            n_states = int(rng.integers(2, 40))
            rates = {}
            for n in range(n_states):
                for m in rng.choice(np.arange(-6, 7), size=5, replace=False):
                    if m != 0:
                        rates[(n, int(m))] = float(rng.uniform(0.0, 2.0))
            for boundary in ("absorb", "reflect", "kill"):
                rm = RateMatrix(0, n_states - 1, boundary, rates)
                rep = check_monotone(rm, method="offsets")
                checked, want = reference_offsets(rm, qmatrix.MONO_RTOL)
                assert rep.checked == checked
                assert rep.ok == (not want)
                got = [(v.n, v.kind, v.index) for v in rep.violations]
                assert got == [w[:3] for w in want], (trial, boundary)
                for v, w in zip(rep.violations, want):
                    scale = 1e-14 * (1.0 + abs(w[3]) + abs(w[4]))
                    assert abs(v.lhs - w[3]) <= scale
                    assert abs(v.rhs - w[4]) <= scale
                seen += len(want)
        assert seen > 1000

    def test_birth_death_is_monotone(self):
        rm = birth_death(0, 6, up=1.0, down=2.0, boundary="kill")
        rep = check_monotone(rm)
        assert rep.ok and rep.agreement is True
        assert rep.max_deficit == 0.0

    def test_hand_violation_detected_by_both_routes(self):
        # state 0 rushes 2 steps up while state 1 barely moves: the tail
        # comparison at threshold 2 fails by 4.9
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        rep = check_monotone(rm, method="both")
        assert not rep.ok and rep.agreement is True
        kinds = {(v.kind, v.n, v.index) for v in rep.violations}
        assert ("tail", 0, 2) in kinds
        assert ("up", 0, 2) in kinds
        worst = max(v.deficit for v in rep.violations)
        assert worst == pytest.approx(4.9, abs=1e-12)

    def test_methods_run_separately(self):
        rm = birth_death(0, 5, up=0.7, down=0.3, boundary="kill")
        assert check_monotone(rm, method="tails").ok
        assert check_monotone(rm, method="offsets").ok
        with pytest.raises(InputFormatError):
            check_monotone(rm, method="sideways")

    def test_kill_must_not_increase_upward(self):
        # under the cemetery convention the kill rate acts like a jump to
        # the bottom, so it must be nonincreasing in the state
        rm_bad = RateMatrix(0, 2, "kill", {(2, 1): 1.0})  # only top state leaks
        rep = check_monotone(rm_bad)
        assert not rep.ok and rep.agreement is True
        rm_ok = RateMatrix(0, 2, "kill", {(0, -1): 1.0})  # bottom state leaks
        assert check_monotone(rm_ok).ok

    def test_down_jump_truncation_pair(self):
        # down factors must be nonincreasing: state 2 sends more mass two
        # steps down than state 1 can send at all
        rm = RateMatrix(0, 2, "kill", {(2, -2): 3.0, (1, -1): 0.1})
        rep = check_monotone(rm)
        assert not rep.ok
        assert any(v.kind in ("tail", "down") for v in rep.violations)

    def test_report_to_dict(self):
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        d = check_monotone(rm).to_dict()
        assert d["ok"] is False and d["monotone"] is False
        assert d["n_violations"] == len(d["violations"])
        assert d["agreement"] is True


class TestDual:
    def test_nearest_neighbor_swap_exact(self):
        # dyadic rates make the tail-difference arithmetic exact: the dual
        # of a birth-death chain swaps birth and death with a one-step shift
        births = {0: 0.5, 1: 1.0, 2: 2.0}
        deaths = {1: 0.25, 2: 0.5, 3: 1.0}
        rates = {}
        for n, r in births.items():
            rates[(n, 1)] = r
        for n, r in deaths.items():
            rates[(n, -1)] = r
        rm = RateMatrix(0, 3, "kill", rates)
        dual = dual_qmatrix(rm)
        assert dual.boundary == "kill"
        # dual up rate at n equals the forward death rate at n
        for n, r in deaths.items():
            assert dual.rates.get((n, 1), 0.0) == r
        # dual down rate at n equals the forward birth rate at n-1
        for n, r in births.items():
            assert dual.rates.get((n + 1, -1), 0.0) == r
        # bottom dual state is absorbing
        assert not any(n == 0 for (n, _m) in dual.rates)

    def test_top_leak_encodes_forward_top_down_mass(self):
        rm = birth_death(0, 3, up=1.0, down=1.0, boundary="kill")
        dual = dual_qmatrix(rm)
        q, kill = effective_generator(dual)
        # forward state 3 jumps down to 2 at rate 1, which the dual can
        # only express as killing at the top threshold
        assert kill[3] == 1.0
        assert np.all(kill[:3] == 0.0)

    def test_not_monotone_raises(self):
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        with pytest.raises(NotMonotone) as exc:
            dual_qmatrix(rm)
        assert exc.value.report.ok is False

    def test_unchecked_dual_of_bad_chain_raises_negative(self):
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        with pytest.raises(DualRateNegative):
            dual_qmatrix(rm, require_monotone=False)

    def test_band_kept_without_residue(self):
        # non-dyadic band-2 product-family chain: the dual uses no offset
        # beyond the forward band, so nothing is left of rounding residue
        rng = np.random.default_rng(31)
        rm = random_monotone_ratematrix(
            rng, band=2, boundary="reflect", n_states=60
        )
        assert all(abs(m) <= 2 for (_n, m) in rm.rates)
        dual = dual_qmatrix(rm)
        assert dual.rates and all(abs(m) <= 2 for (_n, m) in dual.rates)
        q, kill = effective_generator(rm)
        qd, _ = effective_generator(dual)
        assert np.all(kill == 0.0)
        n = rm.n_states
        F = (np.arange(n)[:, None] >= np.arange(n)[None, :]).astype(float)
        scale = np.max(-np.diag(q))
        assert np.max(np.abs(q @ F - F @ qd.T)) <= 1e-12 * scale

    def test_dual_identity_is_algebraic(self, rng=np.random.default_rng(7)):
        # Q F = F Q~^T holds entrywise for the tail-difference dual
        rm = random_monotone_ratematrix(rng, max_states=9, band=3)
        dual = dual_qmatrix(rm)
        q, kill = effective_generator(rm)
        qd, killd = effective_generator(dual)
        n = rm.n_states
        F = (np.arange(n)[:, None] >= np.arange(n)[None, :]).astype(float)
        lhs = q @ F
        rhs = F @ qd.T
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestTransitionMatrix:
    def test_matches_scipy_expm(self, monkeypatch):
        # density limits 0 and 1 force the dense and the CSR branch
        rm = birth_death(0, 10, up=1.3, down=0.7, boundary="kill")
        q, _ = effective_generator(rm)
        for density in (0.0, 1.0):
            monkeypatch.setattr(qmatrix, "SPARSE_DENSITY", density)
            for t in (0.1, 0.7, 3.0):
                tm = transition_matrix(rm, t)
                ref = scipy.linalg.expm(q * t)
                assert np.max(np.abs(tm.P - ref)) < 1e-11
                assert tm.terms > 0 and tm.halvings == 0
                assert 0.0 < tm.error_bound <= qmatrix.EXPM_TOL

    def test_reports_missed_tolerance(self):
        # 19 halvings push the per-step tolerance under the 1e-15 floor of
        # the series cut, so tol=1e-12 cannot be met; the report says so
        rm = birth_death(0, 6, up=1e7, down=8e6, boundary="kill")
        q, _ = effective_generator(rm)
        tm = transition_matrix(rm, 1.0)
        assert tm.halvings == 19
        assert tm.error_bound > qmatrix.EXPM_TOL
        err = np.max(np.abs(tm.P - scipy.linalg.expm(q)))
        assert err > qmatrix.EXPM_TOL
        assert set(tm.to_dict()) == {"lo", "hi", "t", "P", "defect"}

    def test_large_rate_uses_halving(self):
        rm = birth_death(0, 6, up=100.0, down=80.0, boundary="kill")
        q, _ = effective_generator(rm)
        tm = transition_matrix(rm, 3.0)  # max exit 180 * 3 >> 64
        ref = scipy.linalg.expm(q * 3.0)
        assert np.max(np.abs(tm.P - ref)) < 1e-10

    def test_defect_tracks_kill(self):
        rm = RateMatrix(0, 2, "kill", {(0, 1): 1.0, (2, 1): 2.0})
        tm = transition_matrix(rm, 0.5)
        assert tm.defect[2] > 0.0
        assert np.all(tm.P >= 0.0)
        assert np.allclose(tm.P.sum(axis=1), 1.0 - tm.defect)

    def test_zero_time_is_identity(self):
        rm = birth_death(0, 4, up=1.0, down=1.0, boundary="kill")
        tm = transition_matrix(rm, 0.0)
        assert np.array_equal(tm.P, np.eye(5))

    def test_bad_time_rejected(self):
        rm = birth_death(0, 4, up=1.0, down=1.0, boundary="kill")
        with pytest.raises(InputFormatError):
            transition_matrix(rm, -1.0)


class TestDominance:
    def test_monotone_chain_dominates(self):
        rm = birth_death(0, 8, up=1.0, down=0.5, boundary="absorb")
        for t in (0.1, 1.0, 5.0):
            rep = check_stochastic_dominance(transition_matrix(rm, t))
            assert rep.ok
            assert rep.max_violation <= 1e-10

    def test_non_monotone_chain_fails(self):
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        rep = check_stochastic_dominance(transition_matrix(rm, 0.3))
        assert not rep.ok
        assert rep.max_violation > 0.1
        assert rep.at is not None


class TestVerifyDuality:
    def test_exact_identity_on_monotone_chain(self):
        rm = birth_death(0, 12, up=1.0, down=1.0, boundary="absorb")
        for t in (0.25, 1.0):
            rep = verify_duality(rm, t)
            assert rep.ok
            assert rep.sup_full < 1e-12

    def test_margin_defaults_to_quarter_window(self):
        rm = birth_death(0, 12, up=1.0, down=1.0, boundary="absorb")
        rep = verify_duality(rm, 0.5)
        assert rep.margin == 4  # ceil(13 / 4)

    def test_raises_for_non_monotone(self):
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        with pytest.raises(NotMonotone):
            verify_duality(rm, 0.5)


class TestSerialization:
    def test_round_trip(self):
        rm = RateMatrix(-2, 3, "reflect", {(0, 2): 1.5, (1, -1): 0.25, (3, 4): 2.0})
        doc = ratematrix_to_dict(rm)
        rm2 = ratematrix_from_dict(doc)
        assert rm2.lo == rm.lo and rm2.hi == rm.hi
        assert rm2.boundary == rm.boundary
        assert rm2.rates == rm.rates

    def test_rates_sorted_in_output(self):
        rm = RateMatrix(0, 3, "kill", {(2, 1): 1.0, (0, 1): 1.0, (1, -1): 1.0})
        doc = ratematrix_to_dict(rm)
        keys = [(e["n"], e["m"]) for e in doc["rates"]]
        assert keys == sorted(keys)

    def test_schema_errors(self):
        with pytest.raises(InputFormatError):
            ratematrix_from_dict({"lo": 0, "hi": 2})
        with pytest.raises(InputFormatError):
            ratematrix_from_dict(
                {"lo": 0, "hi": 2, "boundary": "kill",
                 "rates": [{"n": 0, "m": 1}]}
            )
        with pytest.raises(InputFormatError):
            ratematrix_from_dict(
                {"lo": 0, "hi": 2, "boundary": "kill",
                 "rates": [{"n": 0, "m": 1, "rate": 1.0},
                           {"n": 0, "m": 1, "rate": 2.0}]}
            )
