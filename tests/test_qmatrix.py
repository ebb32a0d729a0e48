import copy
import json
import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

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
    ratematrix_to_json,
    transition_matrix,
    validate_qmatrix,
    verify_duality,
)

from conftest import birth_death, random_monotone_ratematrix, random_ratematrix


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

    def test_non_integral_state_or_offset_rejected(self):
        with pytest.raises(InputFormatError):
            RateMatrix(0, 3, "kill", {(0, 1.5): 1.0})
        for key in [(0, 1.9), (0, "3"), (1.5, 1), ("1", 1), (0, None), (0, 1, 2), 5]:
            with pytest.raises(InputFormatError, match="bad rate entry"):
                RateMatrix(0, 3, "kill", {(1, 1): 1.0, key: 1.0})
        with pytest.raises(InputFormatError, match="window edges"):
            RateMatrix(0.5, 3, "kill", {})

    def test_integral_floats_accepted(self):
        rm = RateMatrix(0.0, 3.0, "kill", {(1.0, -1.0): 2.0, (2, 1): 1})
        assert (rm.lo, rm.hi) == (0, 3)
        assert rm.rates == {(1, -1): 2.0, (2, 1): 1.0}

    def test_first_bad_entry_in_table_order(self):
        with pytest.raises(InputFormatError, match="offset 0 at state 2"):
            RateMatrix(0, 3, "kill", {(1, 1): 1.0, (2, 0): 1.0, (0, 0.5): 1.0})
        with pytest.raises(InputFormatError, match=r"bad rate entry \(0, 0.5\)"):
            RateMatrix(0, 3, "kill", {(0, 0.5): 1.0, (2, 0): 1.0, (7, 1): 1.0})
        with pytest.raises(InputFormatError, match="source state 7"):
            RateMatrix(0, 3, "kill", {(7, 1): 1.0, (2, 0): 1.0})
        # rate values are judged in the same pass
        with pytest.raises(NegativeRate, match="at state 2, offset -1"):
            RateMatrix(0, 3, "kill", {(1, 1): 1.0, (2, -1): -0.5, (2, 0): 1.0})
        with pytest.raises(InputFormatError, match="offset 0 at state 2"):
            RateMatrix(0, 3, "kill", {(2, 0): 1.0, (1, 1): -0.5})
        with pytest.raises(InputFormatError, match=r"rate at \(1, 1\) is not finite: -inf"):
            RateMatrix(0, 3, "kill", {(1, 1): -math.inf, (2, -1): -0.5})

    @pytest.mark.parametrize("lo, hi", [(2 ** 63, 2 ** 63 + 2), (-2 ** 63 - 1, 0),
                                        (0, 2 ** 63), (-2 ** 64, 2 ** 64)])
    def test_window_past_int64_rejected(self, lo, hi):
        with pytest.raises(InputFormatError, match="reaches past int64"):
            RateMatrix(lo, hi, "reflect", {})

    def test_window_at_the_int64_edges(self):
        top = RateMatrix(2 ** 63 - 3, 2 ** 63 - 1, "reflect", {(2 ** 63 - 1, -1): 0.5})
        bottom = RateMatrix(-2 ** 63, -2 ** 63 + 2, "kill",
                            {(-2 ** 63, -2 ** 64): 0.5, (-2 ** 63, 1): 1.0})
        for rm in (top, bottom):
            dual = dual_qmatrix(rm)
            assert (dual.lo, dual.hi) == (rm.lo, rm.hi)
            assert ratematrix_from_dict(json.loads(ratematrix_to_json(rm))) == rm

    def test_row_sum_past_the_float_range_rejected(self):
        # a table is refused when its rates sum to 2**1020 or more: rows
        # that overflow, and rows that do not, alike
        big = {(2, -1): 1e308, (2, -2): 1e308, (0, 1): 1e308, (0, 2): 1e308, (1, 1): 1e308}
        with pytest.raises(InputFormatError, match=r"sum to inf, past the headroom 2\*\*1020"):
            RateMatrix(0, 2, "reflect", big)
        quarter = {(0, 1): 2.0 ** 1018, (1, 1): 2.0 ** 1018, (2, -1): 2.0 ** 1018}
        rm = RateMatrix(0, 2, "reflect", quarter)
        assert validate_qmatrix(rm)["max_exit_rate"] == 2.0 ** 1018
        with pytest.raises(InputFormatError, match=r"sum to 1\.1235\d*e\+307, past the headroom"):
            RateMatrix(0, 2, "reflect", {**quarter, (1, -1): 2.0 ** 1018})
        # the whole int64 window: the total, not the window, is judged
        lo, hi, below = -2 ** 63, 2 ** 63 - 1, math.nextafter(2.0 ** 1020, 0.0)
        assert RateMatrix(lo, hi, "kill", {(lo, 1): below, (hi, 1): 0.0}).rate.sum() == below
        with pytest.raises(InputFormatError, match="past the headroom"):
            RateMatrix(lo, hi, "kill", {(lo, 1): below, (hi, -1): 2.0 ** 970})

    def test_window_at_the_size_bound_builds_its_row_table(self, monkeypatch):
        # the bound lowered to 2**17 states: at the bound the row table is
        # built (1 MB an array); one state more is refused before any of it
        monkeypatch.setattr(qmatrix, "SIZE_BUDGET", 2 ** 20)
        bound = 2 ** 17
        rm = RateMatrix(0, bound - 1, "reflect", {(0, 1): 1.0, (bound - 1, -1): 2.0})
        assert validate_qmatrix(rm)["n_states"] == bound
        past = RateMatrix(0, bound, "reflect", {(0, 1): 1.0, (bound, -1): 2.0})
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError,
                               match=f"^{bound + 1} window states exceed the size bound {bound}$"):
                validate_qmatrix(past)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert ratematrix_to_json(past) == json.dumps(ratematrix_to_dict(past), indent=2)

    @pytest.mark.parametrize("build", [check_monotone, dual_qmatrix])
    def test_tail_tables_past_the_size_bound_are_refused(self, monkeypatch, build):
        # the prefix and suffix tables are N x (widest row + 2): one state
        # with 3,000 jumps on a 2**20-state window asked for 23.5 GiB
        # (MemoryError, exit 3); here the bound is lowered to 2**17 values
        monkeypatch.setattr(qmatrix, "SIZE_BUDGET", 2 ** 20)
        n = 2 ** 12
        rm = RateMatrix(0, n - 1, "reflect", {(0, m): 1.0 for m in range(1, 3001)})
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError,
                               match=f"^{n * 3002} tail-sum table entries exceed the size bound"):
                build(rm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rates_is_a_read_only_view_in_table_order(self):
        rm = RateMatrix(0, 3, "kill", {(3, 1): 1.0, (0, 1): 0.5, (1, -1): 0.25})
        with pytest.raises(TypeError):
            rm.rates[(9, 1)] = 2.0
        with pytest.raises(TypeError):
            del rm.rates[(3, 1)]
        assert len(rm.rates) == 3
        assert list(rm.rates.items()) == [((3, 1), 1.0), ((0, 1), 0.5), ((1, -1), 0.25)]
        assert rm.rates == {(0, 1): 0.5, (1, -1): 0.25, (3, 1): 1.0}
        assert rm.rates.get((9, 1)) is None and (0, 1) in rm.rates
        q, kill = effective_generator(rm)
        assert kill[3] == 1.0 and q[0, 1] == 0.5

    def test_copies_and_pickles_after_rates_are_read(self):
        rm = RateMatrix(0, 3, "kill", {(3, 1): 1.0, (0, 10 ** 30): 0.5})
        assert rm.rates[(3, 1)] == 1.0
        for other in (copy.deepcopy(rm), pickle.loads(pickle.dumps(rm))):
            assert other == rm and list(other.rates.items()) == list(rm.rates.items())
        assert rm != RateMatrix(0, 3, "absorb", {(3, 1): 1.0, (0, 10 ** 30): 0.5})

    def test_columns_are_read_only(self):
        rm = RateMatrix(0, 3, "kill", {(2, 1): 1.0, (0, 1): 0.5})
        assert list(rm.src) == [2, 0] and list(rm.m) == [1, 1]
        for col in (rm.src, rm.m, rm.rate):
            with pytest.raises(ValueError):
                col[0] = 0


def _dense_tail_sums(a):
    return np.flip(np.cumsum(np.flip(a, axis=1), axis=1), axis=1)


def reference_tails(rm):
    """Dense tail sums of reference_generator, each a cumulative sum of a whole row.

    Returns ``(q, kill, tails, off, before)``: ``tails[k, l]`` sums q[k, j]
    over j >= l, diagonal included; ``before[k, l]`` sums the off-diagonal
    q[k, j] over j < l; ``off[k, l]`` is ``-kill_k - before[k, l]`` for
    l <= k and the off-diagonal sum over j >= l for l > k.
    """
    q, kill = reference_generator(rm)
    n_states = rm.n_states
    offq = q.copy()
    np.fill_diagonal(offq, 0.0)
    before = np.zeros_like(offq)
    np.cumsum(offq[:, :-1], axis=1, out=before[:, 1:])
    off = np.where(np.tri(n_states, dtype=bool), -kill[:, None] - before,
                   _dense_tail_sums(offq))
    return q, kill, _dense_tail_sums(q), off, before


def reference_monotone(rm, tol):
    """``to_dict(limit=10**9)`` of check_monotone by method, from dense tail sums."""
    q, _, tails, off, _ = reference_tails(rm)
    n_states = rm.n_states
    exit_scale = np.abs(np.diag(q))
    thr = tol * np.maximum(exit_scale[:-1], exit_scale[1:])
    found = {"tails": [], "offsets": []}

    def violation(i, kind, index, lhs, rhs, deficit):
        return {"n": rm.lo + i, "kind": kind, "index": index, "lhs": float(lhs),
                "rhs": float(rhs), "deficit": float(deficit)}

    for i in range(n_states - 1):
        up, down = [], []
        for l in range(n_states):
            a, b = tails[i, l], tails[i + 1, l]
            if l != i + 1 and a - b > thr[i]:
                found["tails"].append(violation(i, "tail", rm.lo + l, a, b, a - b))
            a, b = off[i, l], off[i + 1, l]
            if l > i + 1 and a > b + thr[i]:
                up.append(violation(i, "up", l - i, a, b, a - b))
            if l <= i and a - thr[i] > b:
                down.append(violation(i, "down", i - l + 2, -a, -b, a - b))
        found["offsets"] += up + down[::-1]
    found["both"] = found["tails"] + found["offsets"]
    checked = (n_states - 1) ** 2
    reports = {}
    for method, violations in found.items():
        reports[method] = {
            "ok": not violations, "monotone": not violations, "method": method,
            "tol": tol, "checked_pairs": checked * (2 if method == "both" else 1),
            "max_deficit": max((v["deficit"] for v in violations), default=0.0),
            "n_violations": len(violations), "violations": violations,
        }
    reports["both"]["agreement"] = reports["tails"]["ok"] == reports["offsets"]["ok"]
    return reports


def reference_dual(rm, tol):
    """The dense Siegmund dual's ``(src, m, rate)`` columns in table order, or
    ``(y, k, rate)`` of its first negative rate beyond ``tol`` times the
    largest exit rate."""
    q, kill, _, off, before = reference_tails(rm)
    n_states = rm.n_states
    below = np.vstack([np.zeros((1, n_states)), off[:-1]])
    dual = (off - below).T
    np.fill_diagonal(dual, 0.0)
    thr = tol * float(np.max(-np.diag(q), initial=0.0))
    neg = np.argwhere(dual < -thr)
    if neg.size:
        y, k = neg[0]
        return rm.lo + int(y), rm.lo + int(k), float(dual[y, k])
    np.clip(dual, 0.0, None, out=dual)
    rows, cols = np.nonzero(dual)
    leak = kill[n_states - 1] + before[n_states - 1]
    i = np.flatnonzero(leak)
    return (np.append(rows, i), np.append(cols - rows, n_states - i),
            np.append(dual[rows, cols], leak[i]))


def _random_chains(seed, count):
    """random_ratematrix chains under all three boundaries, some with an
    offset past int64 or below -2**63, with far jumps, or with a kill rate
    that steps down (which keeps a monotone chain monotone)."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        rm = random_ratematrix(rng, max_states=14, band=4)
        rates = dict(rm.rates)
        if trial % 4 == 1:
            rates[(rm.lo, 2 ** 70)] = 0.5
        if trial % 4 == 2:
            rates[(rm.hi, -2 ** 63)] = 0.25
        if trial % 3 == 0:
            steps = np.sort(rng.integers(rm.lo, rm.hi + 1, size=2))
            for n in range(rm.lo, int(steps[1]) + 1):
                rates[(n, -20)] = 0.75 if n <= steps[0] else 0.5
        if trial % 3 == 1:
            for _ in range(3):
                n = int(rng.integers(rm.lo, rm.hi + 1))
                rates[(n, int(rng.choice([-20, -9, 7, 15])))] = float(rng.uniform(0.0, 2.0))
        for boundary in qmatrix.BOUNDARY_POLICIES:
            yield trial, RateMatrix(rm.lo, rm.hi, boundary, rates)


class TestValidate:
    # the constructor judges the rates, so a bad table never reaches validate_qmatrix
    def test_negative_rate(self):
        with pytest.raises(NegativeRate):
            validate_qmatrix(RateMatrix(0, 2, "kill", {(0, 1): -0.5}))

    def test_non_finite_rate(self):
        with pytest.raises(InputFormatError):
            validate_qmatrix(RateMatrix(0, 2, "kill", {(0, 1): math.nan}))

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


    def test_summary_matches_the_dense_reference(self):
        rng = np.random.default_rng(77)
        for trial in range(200):
            n_states = int(rng.integers(1, 7))
            rates = {(n, int(m)): float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
                     for n in range(n_states) for m in rng.choice([-7, -1, 1, 2, 9], 2)}
            for boundary in ("absorb", "reflect", "kill"):
                rm = RateMatrix(0, n_states - 1, boundary, rates)
                q, kill = reference_generator(rm)
                # + 0.0: a state without exits has the diagonal +0.0, not -0.0
                want = float(np.max(-np.diag(q), initial=0.0)) + 0.0
                rep = validate_qmatrix(rm)
                assert rep["max_exit_rate"] == want, (trial, boundary)
                assert math.copysign(1.0, rep["max_exit_rate"]) == 1.0
                assert rep["conservative"] == bool(np.all(kill == 0.0))
                assert rep["total_kill_rate"] == float(kill.sum())

    def test_memory_is_linear_in_the_window(self):
        # one dense N x N float array at N = 6400 would take 328 MB
        import tracemalloc

        n = 6400
        rm = birth_death(0, n - 1, up=1.0, down=1.0, boundary="kill")
        tracemalloc.start()
        try:
            rep = validate_qmatrix(rm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, peak
        assert rep["max_exit_rate"] == 2.0 and rep["conservative"] is True


class TestEffectiveGenerator:
    @pytest.mark.parametrize("boundary", ["absorb", "reflect", "kill"])
    @pytest.mark.parametrize("rates", [{}, {(1, 1): 1.5}])
    def test_rates_are_float(self, boundary, rates):
        # no jump is killed, or there is no jump at all: the bincounts of
        # no entries must still be float
        rm = RateMatrix(0, 3, boundary, rates)
        for column in qmatrix._generator_entries(rm)[2:5]:
            assert column.dtype == np.float64
        assert effective_generator(rm)[1].dtype == np.float64

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


# not monotone: the pair (0, 1) fails the tail comparison at threshold 2
NOT_MONOTONE = RateMatrix(0, 3, "reflect", {(0, 2): 5.0, (1, -1): 1.0, (2, -1): 1.0,
                                             (3, -1): 1.0})


class TestMonotonicity:
    def test_huge_relative_tolerance_warns_nothing(self):
        # tol * exit rate overflowed in numpy (a RuntimeWarning, exit 3 under
        # -W error); an infinite slack admits every pair
        rm = RateMatrix(0, 2, "reflect", {(0, 1): 1e300, (1, 1): 1e300})
        assert check_monotone(rm, tol=1e300).ok

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("method", ["both", "tails", "offsets"])
    def test_non_finite_tolerance_rejected(self, tol, method):
        # with tol = nan every comparison was false, and this chain read as monotone
        assert check_monotone(NOT_MONOTONE, method=method).ok is False
        with pytest.raises(InputFormatError, match="finite"):
            check_monotone(NOT_MONOTONE, tol=tol, method=method)

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

    def test_reports_equal_the_dense_reference(self):
        seen = {"not monotone": 0, "killing": 0}
        for trial, rm in _random_chains(101, 150):
            for tol in (qmatrix.MONO_RTOL, 0.0, 0.3):
                want = reference_monotone(rm, tol)
                for method in ("both", "tails", "offsets"):
                    got = check_monotone(rm, tol=tol, method=method).to_dict(limit=10 ** 9)
                    # repr: a signed zero must match too
                    assert repr(got) == repr(want[method]), (trial, rm.boundary, tol, method)
            seen["not monotone"] += not want["both"]["ok"]
            seen["killing"] += bool(np.any(reference_generator(rm)[1]))
        assert min(seen.values()) > 100, seen

    def test_violations_are_made_when_read(self):
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        rep = check_monotone(rm)
        assert len(rep.violations) == rep.to_dict()["n_violations"]
        assert rep.violations[:] == list(rep.violations) == rep.violations
        assert rep.violations[-1] == list(rep.violations)[-1]
        assert rep.violations[1:2] == list(rep.violations)[1:2]
        assert repr(rep.violations) == repr(list(rep.violations))

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("require_monotone", [True, False])
    def test_non_finite_tolerance_rejected(self, tol, require_monotone):
        # with tol = nan this chain's negative dual rate was dropped silently
        with pytest.raises(DualRateNegative):
            dual_qmatrix(NOT_MONOTONE, require_monotone=False)
        with pytest.raises(InputFormatError, match="finite"):
            dual_qmatrix(NOT_MONOTONE, require_monotone=require_monotone, tol=tol)

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

    def test_dual_equals_the_dense_reference(self):
        seen = {"dual": 0, "negative": 0, "killing dual": 0}
        for trial, rm in _random_chains(202, 250):
            tol = qmatrix.MONO_RTOL
            want = reference_dual(rm, tol)
            if isinstance(want[0], int):
                with pytest.raises(DualRateNegative) as exc:
                    dual_qmatrix(rm, require_monotone=False, tol=tol)
                assert (exc.value.n, exc.value.j, exc.value.rate) == want, trial
                seen["negative"] += 1
                continue
            dual = dual_qmatrix(rm, require_monotone=False, tol=tol)
            assert dual.src.tobytes() == want[0].astype(np.int64).tobytes(), trial
            assert dual.m.tobytes() == want[1].astype(np.int64).tobytes(), trial
            assert dual.rate.tobytes() == want[2].tobytes(), trial
            seen["dual"] += 1
            seen["killing dual"] += bool(np.any(reference_generator(rm)[1]))
            if reference_monotone(rm, tol)["tails"]["ok"]:
                assert dual_qmatrix(rm, tol=tol) == dual
            else:
                with pytest.raises(NotMonotone):
                    dual_qmatrix(rm, tol=tol)
        assert min(seen.values()) > 50, seen

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


class TestSparseCost:
    """check_monotone and dual_qmatrix never form an N x N array."""

    @pytest.mark.parametrize("call", [check_monotone, dual_qmatrix])
    def test_memory_is_linear_in_the_window(self, call):
        # one dense N x N float array at N = 6400 would take 328 MB
        import tracemalloc

        rm = birth_death(0, 6399, up=1.0, down=0.5, boundary="reflect")
        tracemalloc.start()
        try:
            call(rm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, peak

    @pytest.mark.parametrize("call", [check_monotone, dual_qmatrix])
    def test_time_is_linear_in_the_window(self, call):
        import time

        rm = birth_death(0, 1599, up=1.0, down=0.5, boundary="reflect")
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            call(rm)
            best = min(best, time.perf_counter() - start)
        # about 1-2 ms on a 2-core x86-64 VM; the dense route took 0.17 s
        assert best < 0.05, best


class TestTransitionMatrix:
    @pytest.mark.parametrize("boundary", qmatrix.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n_states, band", [
        (12, 1), (12, 3), (12, 11),  # two tiles, the second past the window
        (120, 1), (120, 3),  # banded: the tiles slide
        (120, 40),  # band wider than a tile, the tiles still slide
        (120, 119),  # dense: every tile holds every column
    ])
    def test_matches_scipy_expm(self, n_states, band, boundary):
        rng = np.random.default_rng(1000 * n_states + band)
        rm = random_monotone_ratematrix(rng, n_states=n_states, band=band, boundary=boundary)
        q, _ = effective_generator(rm)
        # a largest exit rate of 5 keeps every t below a halving
        scale = 5.0 / np.max(-np.diag(q))
        rm = RateMatrix(rm.lo, rm.hi, boundary, {k: v * scale for k, v in rm.rates.items()})
        q, _ = effective_generator(rm)
        for t in (0.1, 0.7, 3.0):
            tm = transition_matrix(rm, t)
            ref = scipy.linalg.expm(q * t)
            assert np.max(np.abs(tm.P - ref)) < 1e-11
            assert tm.terms > 0 and tm.halvings == 0
            assert 0.0 < tm.error_bound <= qmatrix.EXPM_TOL
            assert tm.tol_met is True

    @pytest.mark.parametrize("boundary", qmatrix.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("rates", [
        {(0, 1): 1.0, (5, 2**70): 0.5, (99, -1): 2.0},  # past int64
        {(70, -2**63): 0.5},  # abs() wraps back to -2**63 in int64
        {(0, 1): 1.0, (70, -2**63): 0.5, (99, -1): 2.0},
    ])
    def test_offsets_past_int64_bound_the_band(self, rates, boundary):
        # offsets are clipped to the window before the band is measured; a
        # jump clamped onto an edge crosses tiles of rows
        rm = RateMatrix(0, 99, boundary, rates)
        q, _ = reference_generator(rm)
        tm = transition_matrix(rm, 1.5)
        assert tm.P.shape == (100, 100) and tm.P.flags.c_contiguous
        assert np.max(np.abs(tm.P - scipy.linalg.expm(q * 1.5))) < 1e-12

    @pytest.mark.parametrize("boundary", qmatrix.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n_states, band, lam_t", [
        (2, 1, 3.0), (5, 2, 3.0), (7, 1, 3.0),  # fewer states than a tile
        (13, 1, 3.0), (37, 3, 3.0),  # the last tile reaches past the window
        (20, 6, 3.0),  # 2 * band + 8 >= N: every tile reads every column
        # the windows slide until the band passes a quarter of the window,
        # then every tile reads every column
        (120, 1, 40.0), (123, 2, 20.0),
        (37, 3, 300.0), (123, 2, 900.0),  # halvings
    ])
    def test_tiled_product_matches_scipy_expm(self, n_states, band, lam_t, boundary):
        rng = np.random.default_rng(1000 * n_states + band)
        rm = random_monotone_ratematrix(rng, n_states=n_states, band=band, boundary=boundary)
        q, _ = reference_generator(rm)
        t = lam_t / (np.max(-np.diag(q)) or 1.0)  # "absorb" freezes both states of N = 2
        tm = transition_matrix(rm, t)
        assert tm.P.shape == (n_states, n_states) and tm.P.flags.c_contiguous
        assert (tm.halvings > 0) == (lam_t > 64.0)
        assert np.max(np.abs(tm.P - scipy.linalg.expm(q * t))) < 1e-10

    @pytest.mark.parametrize("boundary", qmatrix.BOUNDARY_POLICIES)
    def test_single_state(self, boundary):
        # only "kill" keeps a rate: the others clamp both jumps onto the state
        rm = RateMatrix(3, 3, boundary, {(3, 1): 2.0, (3, -2): 0.5})
        q, _ = reference_generator(rm)
        tm = transition_matrix(rm, 1.5)
        assert tm.P.shape == (1, 1) and tm.P.flags.c_contiguous
        assert tm.P[0, 0] == pytest.approx(math.exp(1.5 * q[0, 0]), rel=1e-12)

    def test_memory_is_about_two_results(self):
        # the result and little else: the iterate and its spare sit in band
        # storage, no dense B is built, and no squaring spare is made
        # without squarings; one dense N x N float array at N = 6400 takes
        # 328 MB
        import tracemalloc

        rm = birth_death(0, 6399, up=1.0, down=0.5, boundary="reflect")
        transition_matrix(birth_death(0, 3, up=1.0, down=0.5), 1.0)  # imports outside the trace
        tracemalloc.start()
        try:
            tm = transition_matrix(rm, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * tm.P.nbytes, peak / tm.P.nbytes

    @pytest.mark.parametrize("kill", ["uniform", "step", "linear"])
    def test_duals_of_killing_chains(self, kill):
        # every dual row leaks past the top edge, which adds nothing to the
        # band; kill-rate steps put dual entries in far columns, a few
        # (step: the sparse product) or half the matrix (linear: dense)
        n = 120
        q = np.zeros((n, n))
        i = np.arange(n - 1)
        q[i, i + 1], q[i + 1, i] = 1.3, 0.7
        kills = {
            "uniform": np.full(n, 0.2),
            "step": np.where(np.arange(n) < n // 2, 0.3, 0.0),
            "linear": 0.4 * (1.0 - np.arange(n) / n),
        }
        rm = from_dense(0, n - 1, q, boundary="kill", kill=kills[kill])
        dual = dual_qmatrix(rm)
        q_dual, _ = effective_generator(dual)
        tm = transition_matrix(dual, 1.0)
        assert np.max(np.abs(tm.P - scipy.linalg.expm(q_dual))) < 1e-12
        assert verify_duality(rm, 1.0, dual=dual).sup_full < 1e-12

    def test_same_bits_under_any_blas_thread_count(self):
        # a band-2 chain and one whose band is wider than a block of rows,
        # the second with halvings, so the squarings are covered too
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from monodual.qmatrix import RateMatrix, transition_matrix
            rng = np.random.default_rng(7)
            for band, t in ((2, 1.0), (40, 30.0)):
                rates = {(n, m): float(rng.uniform(0.1, 2.0))
                         for n in range(200) for m in range(-band, band + 1)
                         if m and 0 <= n + m < 200}
                tm = transition_matrix(RateMatrix(0, 199, "reflect", rates), t)
                print(tm.halvings, hashlib.sha256(tm.P.tobytes()).hexdigest())
        """)
        src = str(Path(qmatrix.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout)
        assert digests[0] == digests[1]
        halvings = [int(line.split()[0]) for line in digests[0].splitlines()]
        assert halvings[0] == 0 and halvings[1] > 0

    def test_reports_missed_tolerance(self):
        # 19 halvings divide the tolerance by 2**19 per step, and the term
        # cap stops the series with about 1e-241 of Poisson mass left, so
        # tol=1e-300 cannot be met; the report says so
        rm = birth_death(0, 6, up=1e7, down=8e6, boundary="kill")
        q, _ = effective_generator(rm)
        tm = transition_matrix(rm, 1.0, tol=1e-300)
        assert tm.halvings == 19
        assert tm.error_bound > 1e-300
        assert tm.tol_met is False
        err = np.max(np.abs(tm.P - scipy.linalg.expm(q)))
        assert err > 1e-300
        assert set(tm.to_dict()) == {"lo", "hi", "t", "P", "defect", "error_bound", "tol_met"}
        assert tm.to_dict()["tol_met"] is False

    @pytest.mark.parametrize("t, halvings, defect", [
        (1e4, 11, 2.3987478670051132e-12),
        (1e10, 31, 3.0344137005311467e-06),
        (1e30, 97, 1.0),
    ])
    def test_lost_mass_counts_against_the_tolerance(self, t, halvings, defect):
        # the squarings lose mass to rounding; a conservative chain's rows
        # should sum to 1, so the loss bounds the error from below
        rm = RateMatrix(0, 2, "reflect", {(0, 1): 10.0, (1, 1): 5.0, (2, -1): 3.0})
        tm = transition_matrix(rm, t)
        assert tm.halvings == halvings
        assert tm.defect.max() == pytest.approx(defect, rel=0.05)
        assert tm.error_bound == tm.defect.max() and tm.tol_met is False
        # a killing chain loses mass by design: its bound stays the truncation one
        rm = RateMatrix(0, 2, "kill", {(0, 1): 10.0, (1, 1): 5.0, (2, -1): 3.0, (2, 1): 0.5})
        tm = transition_matrix(rm, t)
        assert tm.defect.min() > 0.5 and tm.error_bound <= qmatrix.EXPM_TOL and tm.tol_met is True

    @pytest.mark.parametrize("lam_t, halvings", [
        (35.778245614035086 * 2**7, 7), (55.98245614035088 * 2**6, 6),
    ])
    def test_series_is_cut_on_the_poisson_tail(self, lam_t, halvings):
        # a cut where the rounded running sum of the weights reached
        # 1 - tol / 2**halvings stopped one term early here and left an
        # error_bound of 1.07e-12 and 1.05e-12 at tol=1e-12
        import scipy.special

        rm = RateMatrix(0, 1, "reflect", {(0, 1): 2.0, (1, -1): 2.0})
        tm = transition_matrix(rm, lam_t / 2.0)
        assert tm.halvings == halvings
        assert tm.error_bound <= qmatrix.EXPM_TOL and tm.tol_met is True
        # the first term past which the mass is at most the tolerance
        a = lam_t / 2.0**halvings
        assert 2.0**halvings * scipy.special.pdtrc(tm.terms - 1, a) > qmatrix.EXPM_TOL
        # P = (1 + exp(-4t)) / 2 on the diagonal: both rows are 1/2, 1/2
        assert np.max(np.abs(tm.P - 0.5)) < 1e-10

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

    @pytest.mark.parametrize("t, tol", [
        (math.nan, 1e-12), (math.inf, 1e-12), (-math.inf, 1e-12),
        (1.0, math.nan), (1.0, math.inf), (1.0, -1.0),
    ])
    def test_non_finite_time_or_tolerance_rejected(self, t, tol):
        # a NaN tolerance used to stop the series at its first term
        rm = birth_death(0, 4, up=1.0, down=1.0, boundary="reflect")
        with pytest.raises(InputFormatError, match="finite"):
            transition_matrix(rm, t, tol=tol)
        with pytest.raises(InputFormatError, match="finite"):
            verify_duality(rm, t, tol=tol)

    def test_negative_tolerance_rejected(self):
        # it used to run the series to its term cap and report tol_met False
        rm = RateMatrix(0, 2, "reflect", {(0, 1): 1.0, (1, -1): 1.0, (2, -1): 1.0})
        with pytest.raises(InputFormatError, match="tolerance must be finite and at least 0"):
            transition_matrix(rm, 1.0, tol=-1.0)
        assert transition_matrix(rm, 1.0, tol=0.0).terms > 0


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

    @pytest.mark.parametrize("boundary", qmatrix.BOUNDARY_POLICIES)
    def test_report_equals_the_out_of_place_sums(self, boundary):
        # verify_duality sums in place on its own two matrices; the report
        # is the one that fresh arrays give on the same matrices, bit for bit
        rm = random_monotone_ratematrix(np.random.default_rng(11), n_states=45, band=3,
                                        boundary=boundary)
        dual = dual_qmatrix(rm)
        for t, margin in ((0.3, None), (2.0, 0), (2.0, 5)):
            p_fwd, p_dual = transition_matrix(rm, t).P, transition_matrix(dual, t).P
            disc = np.abs(qmatrix._tail_sums(p_fwd) - np.cumsum(p_dual, axis=1).T)
            rep = verify_duality(rm, t, margin=margin, dual=dual)
            m = rep.margin
            box = disc[m: 45 - m, m: 45 - m]
            bx, by = np.unravel_index(np.argmax(box), box.shape)
            assert (rep.sup_full, rep.sup_margin) == (disc.max(), box[bx, by])
            assert rep.at == (rm.lo + m + bx, rm.lo + m + by)


def dense_report(rm, t, margin=None, dual=None):
    """The report that the dense sums give on the two transition matrices."""
    n = rm.n_states
    dual = dual_qmatrix(rm) if dual is None else dual
    p_fwd, p_dual = transition_matrix(rm, t).P, transition_matrix(dual, t).P
    disc = np.abs(qmatrix._tail_sums(p_fwd) - np.cumsum(p_dual, axis=1).T)
    m = math.ceil(n / 4) if margin is None else max(0, min(margin, (n - 1) // 2))
    box = disc[m: n - m, m: n - m]
    bx, by = np.unravel_index(np.argmax(box), box.shape)
    return qmatrix.DualityReport(bool(box[bx, by] <= qmatrix.DUALITY_TOL), float(t), m,
                                 qmatrix.DUALITY_TOL, float(box[bx, by]), float(disc.max()),
                                 (rm.lo + m + int(bx), rm.lo + m + int(by)))


def half_bands(rm, t, dual=None):
    """The half-bands of the forward and dual transition matrices, None when dense."""
    dual = dual_qmatrix(rm) if dual is None else dual
    return tuple(qmatrix._expm_uniformized(r, t, qmatrix.EXPM_TOL)[1] for r in (rm, dual))


def kill_step_chain(n):
    """Birth-death under kill, killed at a rate that steps down halfway: its dual has far entries."""
    q = np.zeros((n, n))
    i = np.arange(n - 1)
    q[i, i + 1], q[i + 1, i] = 1.3, 0.7
    return from_dense(0, n - 1, q, boundary="kill",
                      kill=np.where(np.arange(n) < n // 2, 0.3, 0.0))


class TestBandDuality:
    """verify_duality on band storage gives the report of the dense sums, bit for bit."""

    @pytest.mark.parametrize("boundary", qmatrix.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("margin", [None, 0, "half"])
    @pytest.mark.parametrize("n_states, band, t", [
        (150, 2, 0.3),  # N a multiple of 2 but not of 8
        (203, 1, 1.0), (200, 3, 0.1),
        (150, 2, 0.0),  # the identity: a band of half-band 0
    ])
    def test_report_equals_the_dense_sums(self, n_states, band, t, margin, boundary):
        rng = np.random.default_rng(100 * n_states + band)
        rm = random_monotone_ratematrix(rng, n_states=n_states, band=band, boundary=boundary)
        margin = (n_states - 1) // 2 if margin == "half" else margin
        k_fwd, k_bwd = half_bands(rm, t)
        assert k_fwd is not None and k_bwd is not None
        assert repr(verify_duality(rm, t, margin=margin)) == repr(dense_report(rm, t, margin))

    @pytest.mark.parametrize("boundary", qmatrix.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n_states, banded", [
        (5, False),  # fewer states than a tile
        (41, True),  # 8 + 2K = N - 1
        (40, False),  # 8 + 2K = N: every column
    ])
    def test_band_edge(self, n_states, banded, boundary):
        # K = 16 on both sides at t = 1 for these rates
        rm = birth_death(0, n_states - 1, up=1.0, down=0.5, boundary=boundary)
        k_fwd, k_bwd = half_bands(rm, 1.0)
        assert (k_fwd is not None and k_bwd is not None) == banded
        for margin in (None, 0, (n_states - 1) // 2):
            rep = verify_duality(rm, 1.0, margin=margin)
            assert repr(rep) == repr(dense_report(rm, 1.0, margin))

    def test_bands_of_different_widths(self):
        rm = random_monotone_ratematrix(np.random.default_rng(1), n_states=150, band=2,
                                        boundary="reflect")
        k_fwd, k_bwd = half_bands(rm, 0.3)
        assert None not in (k_fwd, k_bwd) and k_fwd != k_bwd
        for margin in (None, 0, 74):
            rep = verify_duality(rm, 0.3, margin=margin)
            assert repr(rep) == repr(dense_report(rm, 0.3, margin))

    @pytest.mark.parametrize("kf, kd, n, margin", [
        (2, 5, 30, 0), (5, 2, 30, 3), (3, 3, 17, 8), (0, 4, 12, 0), (6, 1, 40, 10),
    ])
    def test_ties_take_the_first_pair_in_row_order(self, kf, kd, n, margin):
        # small integer entries make row totals tie across many far pairs
        # (y < x - K), and near pairs tie with them
        rng = np.random.default_rng(kf + 10 * kd + n)

        def band(k):
            b = rng.integers(0, 3, size=(n, 2 * k + 1)).astype(float)
            cols = np.arange(n)[:, None] + np.arange(-k, k + 1)
            b[(cols < 0) | (cols >= n)] = 0.0
            return b

        for _ in range(20):
            fwd, bwd = band(kf), band(kd)
            disc = np.abs(qmatrix._tail_sums(qmatrix._densify(fwd))
                          - np.cumsum(qmatrix._densify(bwd), axis=1).T)
            box = disc[margin: n - margin, margin: n - margin]
            bx, by = np.unravel_index(np.argmax(box), box.shape)
            got = qmatrix._band_discrepancy(fwd, bwd, margin)
            assert got == (disc.max(), box[bx, by], bx, by)

    def test_halvings_and_the_sparse_branch_fall_back_to_dense_sums(self):
        # a chain with halvings
        rm = birth_death(0, 99, up=40.0, down=30.0, boundary="reflect")
        assert transition_matrix(rm, 1.0).halvings > 0
        assert half_bands(rm, 1.0) == (None, None)
        assert repr(verify_duality(rm, 1.0)) == repr(dense_report(rm, 1.0))
        # the dual of a kill-rate step has far entries: the CSR branch
        rm = kill_step_chain(120)
        dual = dual_qmatrix(rm)
        k_fwd, k_bwd = half_bands(rm, 1.0, dual)
        assert k_fwd is not None and k_bwd is None
        for margin in (None, 0):
            rep = verify_duality(rm, 1.0, margin=margin, dual=dual)
            assert repr(rep) == repr(dense_report(rm, 1.0, margin, dual))

    @pytest.mark.parametrize("t", [1.0, 0.0])
    def test_memory_is_linear_in_the_window(self, t):
        # the dense route peaked at 989 MB here, and at 986 MB at t = 0
        import tracemalloc

        rm = birth_death(0, 6399, up=1.0, down=0.5, boundary="reflect")
        verify_duality(birth_death(0, 3, up=1.0, down=0.5), 1.0)  # imports outside the trace
        tracemalloc.start()
        try:
            rep = verify_duality(rm, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak < 50e6, peak


def count_builds(monkeypatch):
    """Count the calls of the builders of what a chain keeps, by builder name."""
    counts = {}
    for name in ("_generator_entries", "_tail_breaks", "_expm_uniformized"):
        def counted(*args, build=getattr(qmatrix, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return build(*args)
        monkeypatch.setattr(qmatrix, name, counted)
    return counts


class TestKeptDerivations:
    """A chain builds its row table, its tail sums and an exponential once, and keeps them."""

    # one exponential kept as a band, one dense (halvings)
    BAND = (birth_death(0, 199, up=1.0, down=0.5, boundary="reflect"), 1.0)
    DENSE = (birth_death(0, 99, up=40.0, down=30.0, boundary="reflect"), 1.0)

    @pytest.mark.parametrize("case", ["band", "dense"])
    def test_a_duality_job_builds_each_value_once(self, case, monkeypatch):
        # the calls of one chain-duality benchmark job: two chains (the
        # forward one and its dual) have their entries built, the forward
        # one its tail sums, and each one exponential
        rm, t = copy.copy(self.BAND[0] if case == "band" else self.DENSE[0]), 1.0
        counts = count_builds(monkeypatch)
        mono = check_monotone(rm, method="both")
        dual = dual_qmatrix(rm)
        tm = transition_matrix(rm, t)
        rep = verify_duality(rm, t, dual=dual)
        assert mono.ok and rep.ok and (tm.halvings > 0) == (case == "dense")
        assert counts == {"_generator_entries": 2, "_tail_breaks": 1, "_expm_uniformized": 2}

    def test_kept_arrays_are_read_only(self):
        kept = []
        for rm, t in (self.BAND, self.DENSE):
            rm = copy.copy(rm)
            dual_qmatrix(rm)
            tm = transition_matrix(rm, t)
            kept += [*rm._rows[:-1], *rm._breaks[:-1], tm.P,
                     qmatrix._exponential(rm, t, qmatrix.EXPM_TOL)[0]]
        assert all(isinstance(a, np.ndarray) for a in kept)
        for a in kept:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_a_second_call_returns_the_same_objects(self):
        for rm, t in (self.BAND, self.DENSE):
            rm = copy.copy(rm)
            assert rm._rows is rm._rows
            check_monotone(rm)
            breaks = rm._breaks
            dual_qmatrix(rm)
            assert rm._breaks is breaks
            first = qmatrix._exponential(rm, t, qmatrix.EXPM_TOL)
            again = qmatrix._exponential(rm, t, qmatrix.EXPM_TOL)
            assert all(a is b for a, b in zip(first, again))
            tm = transition_matrix(rm, t)
            if tm.halvings:  # a dense result is P itself
                assert tm.P is first[0] and transition_matrix(rm, t).P is tm.P

    def test_another_time_or_tolerance_misses(self, monkeypatch):
        rm = copy.copy(self.BAND[0])
        counts = count_builds(monkeypatch)
        for t, tol, builds in ((1.0, 1e-12, 1), (1.0, 1e-12, 1), (2.0, 1e-12, 2),
                               (2.0, 1e-10, 3), (2.0, 1e-10, 3), (1.0, 1e-12, 4)):
            transition_matrix(rm, t, tol)
            assert counts["_expm_uniformized"] == builds, (t, tol)
        # a dense exponential is built again once no caller holds it
        rm = copy.copy(self.DENSE[0])
        tm = transition_matrix(rm, 1.0)
        transition_matrix(rm, 1.0)
        assert counts["_expm_uniformized"] == 5
        del tm
        transition_matrix(rm, 1.0)
        assert counts["_expm_uniformized"] == 6

    def test_copies_and_pickles_keep_nothing(self):
        rm = copy.copy(self.BAND[0])
        dual_qmatrix(rm)
        tm = transition_matrix(rm, 1.0)
        kept = {"_rows", "_breaks", "_exponential"}
        assert kept <= set(vars(rm))
        for other in (copy.copy(rm), copy.deepcopy(rm), pickle.loads(pickle.dumps(rm))):
            assert other == rm and not kept & set(vars(other))
            assert np.array_equal(transition_matrix(other, 1.0).P, tm.P)

    def test_threads_racing_on_first_use_agree(self):
        # the row table and tail sums are cached_property values, built
        # under the property's lock before Python 3.12 and by every racing
        # thread from 3.12 on; threads that find the exponential slot empty
        # all build it.  Every one of them gets the serial job's results,
        # bit for bit
        import sys
        import threading

        def job(rm):
            mono = check_monotone(rm, method="both")
            dual = dual_qmatrix(rm)
            tm = transition_matrix(rm, 1.0)
            rep = verify_duality(rm, 1.0, dual=dual)
            return repr(mono), ratematrix_to_json(dual), tm.P.tobytes(), repr(rep)

        for rm, _ in (self.BAND, self.DENSE):
            want = job(copy.copy(rm))
            rm = copy.copy(rm)
            got = []
            threads = [threading.Thread(target=lambda: got.append(job(rm))) for _ in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in threads)
            assert got == [want] * 6

    def test_duality_report_does_not_depend_on_a_prior_transition_matrix(self):
        # verify_duality on a fresh chain, and after transition_matrix at the
        # same t has kept the forward exponential (a band, or a dense one
        # that tm holds): 300 chains, with halvings and CSR kill-step duals
        rng = np.random.default_rng(17)
        seen = {"halvings": 0, "kill step": 0}
        for trial in range(300):
            if trial % 30 == 0:
                rm = kill_step_chain(int(rng.integers(100, 140)))
                seen["kill step"] += 1
            else:
                rm = random_monotone_ratematrix(rng, max_states=60, band=4)
            t = float(10.0 ** rng.uniform(-1.3, 1.3))
            alone = verify_duality(copy.copy(rm), t)
            rm = copy.copy(rm)
            tm = transition_matrix(rm, t)
            seen["halvings"] += tm.halvings > 0
            assert repr(verify_duality(rm, t)) == repr(alone), trial
        assert seen["halvings"] >= 30 and seen["kill step"] == 10, seen

    def test_a_dense_exponential_is_freed_with_its_last_holder(self):
        import gc
        import tracemalloc

        rm, t = copy.copy(self.DENSE[0]), 1.0
        validate_qmatrix(rm)  # the row table, kept before the trace
        transition_matrix(birth_death(0, 3, up=1.0, down=0.5), 1.0)  # imports
        tracemalloc.start()
        try:
            tm = transition_matrix(rm, t)
            nbytes = tm.P.nbytes
            assert tm.halvings > 0 and isinstance(rm._exponential[1], weakref.ref)
            del tm
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.01 * nbytes, held / nbytes

    @pytest.mark.parametrize("after_tm, bound", [(False, 3.0121), (True, 2.3)])
    def test_dense_duality_peak(self, after_tm, bound):
        # N = 1000 with one halving: both exponentials are dense, so the
        # sums go to new arrays.  Alone, the peak is set while the dual is
        # squared (forward, iterate and spare) and stays at or below the
        # 3.0121 P measured before the exponentials were kept.  After
        # transition_matrix, the forward matrix is tm's, made before the
        # trace, and the dual's sums are taken before the forward ones:
        # at most the dual's iterate and spare, or its sums and the
        # forward ones, are traced (the parent made the forward matrix
        # again and peaked at 3.0121 P here too)
        import gc
        import tracemalloc

        rm = birth_death(0, 999, up=40.0, down=30.0, boundary="reflect")
        dual = dual_qmatrix(rm)
        verify_duality(birth_death(0, 3, up=1.0, down=0.5), 1.0)  # imports
        holder = transition_matrix(rm, 1.0) if after_tm else None  # holds P during the check
        gc.collect()
        tracemalloc.start()
        try:
            rep = verify_duality(rm, 1.0, dual=dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok and transition_matrix(rm, 1.0).halvings == 1
        assert peak <= bound * 1000 * 1000 * 8, peak / 8e6
        assert holder is None or holder.P.flags.writeable is False


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

    @pytest.mark.parametrize("rates", [
        {(2, 1): 1.0, (-1, 1): 0.1, (1, -1): 1e-300, (-1, 2): 2.5},
        {(-1, 1): 0.1, (-1, 2): 2.5, (1, -1): 1e-300, (2, 1): 1.0},
        {},
        {(1, 10 ** 30): 0.5, (2, -1): 1.0, (0, 1): 1 / 3},
    ], ids=["unsorted", "sorted", "empty", "offset past int64"])
    def test_writer_is_json_dumps(self, rates):
        rm = RateMatrix(-1, 3, "kill", rates)
        assert ratematrix_to_json(rm) == json.dumps(ratematrix_to_dict(rm), indent=2)

    def test_non_finite_table_is_never_written(self):
        # json wrote NaN and Infinity for these, which is not JSON
        with pytest.raises(InputFormatError, match=r"rate at \(0, 1\) is not finite: inf"):
            RateMatrix(-1, 3, "kill", {(0, 1): math.inf, (1, -1): math.nan, (2, 1): -math.inf})

    def test_wide_window_writes_in_the_entries_only(self):
        # one entry head per state that has entries, none per window state
        rm = RateMatrix(0, 10 ** 12, "reflect", {(0, 1): 1.0, (10 ** 12, -1): 1.0})
        tracemalloc.start()
        try:
            text = ratematrix_to_json(rm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert text == json.dumps(ratematrix_to_dict(rm), indent=2)

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
        for rate in (None, [1.0], {"value": 1.0}):
            with pytest.raises(InputFormatError):
                ratematrix_from_dict(
                    {"lo": 0, "hi": 2, "boundary": "kill",
                     "rates": [{"n": 0, "m": 1, "rate": rate}]}
                )
        for rates in ({"n": 0, "m": 1, "rate": 1.0}, "0 1 1.0", None):
            with pytest.raises(InputFormatError):
                ratematrix_from_dict(
                    {"lo": 0, "hi": 2, "boundary": "kill", "rates": rates}
                )
        with pytest.raises(InputFormatError):
            ratematrix_from_dict(
                {"lo": 0, "hi": 2, "boundary": "kill",
                 "rates": [{"n": 1, "m": -1, "rate": 1.0},
                           {"n": 0, "m": 1, "rate": 1.0},
                           {"n": 0.0, "m": 1.0, "rate": 2.0}]}
            )
        with pytest.raises(InputFormatError, match=re.escape("bad rate entry [0, 1, 1.0]")):
            ratematrix_from_dict(
                {"lo": 0, "hi": 2, "boundary": "kill",
                 "rates": [{"n": 0, "m": 1, "rate": 1.0}, [0, 1, 1.0]]}
            )

    def test_non_integral_entries_and_edges_rejected(self):
        def doc(lo=0, hi=3, n=0, m=1):
            return {"lo": lo, "hi": hi, "boundary": "kill",
                    "rates": [{"n": 1, "m": 1, "rate": 1.0},
                              {"n": n, "m": m, "rate": 1.0}]}
        for bad in (doc(m=1.5), doc(m=1.9), doc(m="3"), doc(n=0.5), doc(n="0")):
            with pytest.raises(InputFormatError, match="bad rate entry"):
                ratematrix_from_dict(bad)
        for bad in (doc(lo=0.5), doc(lo="0"), doc(hi=3.5), doc(hi=None)):
            with pytest.raises(InputFormatError, match="window edges"):
                ratematrix_from_dict(bad)
        rm = ratematrix_from_dict(doc(lo=0.0, n=2.0, m=-1.0))
        assert rm.lo == 0 and rm.rates == {(1, 1): 1.0, (2, -1): 1.0}

    def test_offset_past_int64_round_trips(self):
        rm = RateMatrix(0, 3, "absorb", {(1, 10 ** 30): 0.5, (2, -1): 1.0})
        back = ratematrix_from_dict(json.loads(ratematrix_to_json(rm)))
        assert back.rates == rm.rates
        q, _ = effective_generator(back)
        assert q[1, 3] == 0.5 and q[2, 1] == 1.0


class TestLibraryExample:
    def test_readme_python_block_runs(self, capsys):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        assert float(capsys.readouterr().out) <= qmatrix.DUALITY_TOL
