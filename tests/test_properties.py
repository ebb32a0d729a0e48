"""Property tests: invariants that must hold on randomly drawn inputs."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from monodual._expr import parse_expression
from monodual.errors import InputFormatError, NegativeRate
from monodual.generator import (
    BaseMeasure,
    DecomposableKernel,
    LevyModel,
    cutoff_model,
    jump_intensity,
)
from monodual.qmatrix import (
    BOUNDARY_POLICIES,
    RateMatrix,
    check_monotone,
    check_stochastic_dominance,
    dual_qmatrix,
    effective_generator,
    ratematrix_from_dict,
    ratematrix_to_dict,
    ratematrix_to_json,
    transition_matrix,
    validate_qmatrix,
    verify_duality,
)
from monodual.simulate import mc_survival

from conftest import random_monotone_ratematrix, random_ratematrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# the rates RateMatrix admits: finite and nonnegative, -0.0 among them
rate_values = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e16, 1e22, 0.1, 1.0 / 3.0, 1e300]),
)


def _row_sums(table):
    """The rates out of each state, added in table order."""
    sums = {}
    for (n, _), rate in table.items():
        sums[n] = sums.get(n, 0.0) + rate
    return sums


def rate_tables(keys, **size):
    """The tables RateMatrix admits: the rates out of each state sum finite."""
    return st.dictionaries(keys, rate_values, **size).filter(
        lambda table: all(map(math.isfinite, _row_sums(table).values())))


bad_rates = st.sampled_from([math.nan, math.inf, -math.inf, -5e-324, -1e-300, -1.0, -1e300])


def _reject(token):
    raise ValueError(f"not JSON: {token}")


@settings(deadline=None, max_examples=300)
@given(lo=st.integers(-60, 60), width=st.integers(0, 6),
       boundary=st.sampled_from(BOUNDARY_POLICIES), data=st.data())
def test_rate_table_writer_is_json_dumps(lo, width, boundary, data):
    # empty tables, negative states, subnormal and huge rates, -0.0
    hi = lo + width
    keys = st.tuples(st.integers(lo, hi), st.integers(-9, 9).filter(bool))
    rates = data.draw(rate_tables(keys, max_size=25))
    rm = RateMatrix(lo, hi, boundary, rates)
    assert ratematrix_to_json(rm) == json.dumps(ratematrix_to_dict(rm), indent=2)


@settings(deadline=None, max_examples=300)
@given(lo=st.integers(-60, 60), width=st.integers(0, 6),
       boundary=st.sampled_from(BOUNDARY_POLICIES), data=st.data())
def test_bad_rate_raises_at_construction(lo, width, boundary, data):
    # a valid table is written as strict JSON; NaN, inf or negative rates
    # put anywhere in it are raised when it is built, from a mapping or a
    # document, for the first in table order
    hi = lo + width
    keys = st.tuples(st.integers(lo, hi), st.integers(-9, 9).filter(bool))
    table = data.draw(rate_tables(keys, min_size=1, max_size=25))
    rm = RateMatrix(lo, hi, boundary, table)
    assert ratematrix_from_dict(json.loads(ratematrix_to_json(rm), parse_constant=_reject)) == rm
    entries = list(table.items())
    spots = data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=1, unique=True))
    for i in spots:
        entries[i] = (entries[i][0], data.draw(bad_rates))
    (n, m), rate = entries[min(spots)]
    if math.isnan(rate) or math.isinf(rate):
        error, message = InputFormatError, f"rate at ({n}, {m}) is not finite: {rate!r}"
    else:
        error, message = NegativeRate, f"negative rate {rate!r} at state {n}, offset {m}"
    doc = {"lo": lo, "hi": hi, "boundary": boundary,
           "rates": [{"n": n, "m": m, "rate": r} for (n, m), r in entries]}
    for build in (lambda: RateMatrix(lo, hi, boundary, dict(entries)),
                  lambda: ratematrix_from_dict(doc)):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message
        if error is NegativeRate:
            assert (exc.value.n, exc.value.m, exc.value.rate) == (n, m, rate)


@settings(deadline=None, max_examples=300)
@given(lo=st.integers(-60, 60), width=st.integers(0, 6),
       boundary=st.sampled_from(BOUNDARY_POLICIES), data=st.data())
def test_row_sum_past_the_float_range_raises(lo, width, boundary, data):
    # rates near the float maximum, so that rows overflow often: the table
    # is refused exactly when the rates out of some state, added in table
    # order, are not finite, and the lowest such state is named
    hi = lo + width
    keys = st.tuples(st.integers(lo, hi), st.integers(-9, 9).filter(bool))
    big = st.sampled_from([0.0, 1.0, 1e307, 8.98846567431158e307, 1.7976931348623157e308])
    table = data.draw(st.dictionaries(keys, big, min_size=1, max_size=25))
    over = sorted(n for n, total in _row_sums(table).items() if not math.isfinite(total))
    if over:
        with pytest.raises(InputFormatError, match=f"state {over[0]} sum past"):
            RateMatrix(lo, hi, boundary, table)
    else:
        rows = RateMatrix(lo, hi, boundary, table)._rows
        assert np.all(np.isfinite(rows.exit)) and np.all(np.isfinite(rows.kill))


@settings(deadline=None, max_examples=300)
@given(lo=st.integers(-60, 60), width=st.integers(0, 6), data=st.data())
def test_rate_table_writer_repeats_rates_and_offsets(lo, width, data):
    # rates from a small pool so values repeat, offsets past int64 among
    # small ones, entries in any order, the empty table
    hi = lo + width
    offsets = st.one_of(st.integers(-3, 3).filter(bool),
                        st.sampled_from([2 ** 63, -2 ** 63, -2 ** 63 - 1, 10 ** 30]))
    pool = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 0.5, 1.0 / 3.0])
    keys = data.draw(st.lists(st.tuples(st.integers(lo, hi), offsets), unique=True, max_size=30))
    entries = data.draw(st.permutations([(k, data.draw(pool)) for k in keys]))
    rm = RateMatrix(lo, hi, "kill", dict(entries))
    assert ratematrix_to_json(rm) == json.dumps(ratematrix_to_dict(rm), indent=2)


@settings(deadline=None, max_examples=80)
@given(seed=seeds)
def test_monotonicity_routes_always_agree(seed):
    # tail sums and per-width conditions are rearrangements of each other,
    # so their verdicts must match on every chain, monotone or not
    rm = random_ratematrix(np.random.default_rng(seed))
    rep = check_monotone(rm, method="both")
    assert rep.agreement is True


@settings(deadline=None, max_examples=60)
@given(seed=seeds)
def test_dual_of_monotone_chain_is_valid(seed):
    rm = random_monotone_ratematrix(np.random.default_rng(seed))
    dual = dual_qmatrix(rm)
    summary = validate_qmatrix(dual)  # raises on any negative rate
    assert summary["n_states"] == rm.n_states
    assert dual.boundary == "kill"


@settings(deadline=None, max_examples=40)
@given(seed=seeds, t=st.floats(min_value=0.05, max_value=3.0))
def test_duality_identity_sup(seed, t):
    rm = random_monotone_ratematrix(np.random.default_rng(seed), max_states=9)
    rep = verify_duality(rm, t)
    assert rep.ok
    assert rep.sup_full < 1e-10


@settings(deadline=None, max_examples=40)
@given(seed=seeds, t=st.floats(min_value=0.05, max_value=5.0))
def test_monotone_semigroup_dominance(seed, t):
    rm = random_monotone_ratematrix(np.random.default_rng(seed), max_states=9)
    rep = check_stochastic_dominance(transition_matrix(rm, t))
    assert rep.ok


@settings(deadline=None, max_examples=40)
@given(seed=seeds, t=st.floats(min_value=0.0, max_value=4.0))
def test_transition_matrix_matches_scipy(seed, t):
    rm = random_ratematrix(np.random.default_rng(seed))
    q, _ = effective_generator(rm)
    tm = transition_matrix(rm, t)
    ref = scipy.linalg.expm(q * t)
    assert np.max(np.abs(tm.P - ref)) < 1e-10


@settings(deadline=None, max_examples=60)
@given(seed=seeds, log_lam_t=st.floats(min_value=-1.0, max_value=4.0))
def test_transition_matrix_matches_scipy_up_to_lam_t_1e4(seed, log_lam_t):
    # lam*t up to 1e4 takes up to 8 halvings; windows up to 80 states take
    # the tiled product.  The observed error is not compared with
    # error_bound: the bound leaves out most rounding, and the observed
    # error exceeds it on about a quarter of such chains.  The series
    # always meets 1e-12; on about 1.5% of them the squarings lose more
    # mass than that, and error_bound reports the loss.
    rng = np.random.default_rng(seed)
    rm = random_ratematrix(rng, max_states=int(rng.integers(3, 81)), band=int(rng.integers(1, 7)))
    q, kill = effective_generator(rm)
    lam = float(np.max(-np.diag(q), initial=0.0))
    t = 10.0 ** log_lam_t / lam if lam > 0.0 else 1.0
    tm = transition_matrix(rm, t)
    assert tm.halvings <= 8
    lost = 0.0 if kill.any() else float(tm.defect.max())
    assert tm.error_bound <= max(1e-12, lost) and tm.tol_met is (lost <= 1e-12)
    assert np.max(np.abs(tm.P - scipy.linalg.expm(q * t))) <= 1e-10


@settings(deadline=None, max_examples=40)
@given(seed=seeds)
def test_transition_rows_are_distributions(seed):
    rm = random_ratematrix(np.random.default_rng(seed))
    tm = transition_matrix(rm, 0.8)
    assert np.all(tm.P >= -1e-15)
    assert np.all(tm.defect >= -1e-15)
    assert np.allclose(tm.P.sum(axis=1) + tm.defect, 1.0, atol=1e-10)


@settings(deadline=None, max_examples=60)
@given(seed=seeds)
def test_ratematrix_json_round_trip(seed):
    rm = random_ratematrix(np.random.default_rng(seed))
    back = ratematrix_from_dict(ratematrix_to_dict(rm))
    assert back.lo == rm.lo and back.hi == rm.hi
    assert back.boundary == rm.boundary
    assert back.rates == rm.rates


@settings(deadline=None, max_examples=15)
@given(seed=seeds, mc_seed=st.integers(0, 2**31))
def test_mc_replay_is_exact(seed, mc_seed):
    rm = random_monotone_ratematrix(np.random.default_rng(seed), max_states=8)
    mid = (rm.lo + rm.hi) // 2
    a = mc_survival(rm, mid, mid, t=0.5, reps=400, seed=mc_seed)
    b = mc_survival(rm, mid, mid, t=0.5, reps=400, seed=mc_seed)
    c = mc_survival(rm, mid, mid, t=0.5, reps=400, seed=mc_seed, threads=4)
    assert a.value == b.value == c.value
    assert a.half_width == b.half_width == c.half_width


@settings(deadline=None, max_examples=30)
@given(
    scale=st.floats(min_value=0.1, max_value=5.0),
    c1=st.floats(min_value=0.05, max_value=0.9),
    c2=st.floats(min_value=0.05, max_value=0.9),
)
def test_cutoff_intensity_nonincreasing(scale, c1, c2):
    base = BaseMeasure(
        density=lambda y: math.exp(-y),
        y_min=0.0,
        right_tail_fn=lambda a: math.exp(-a),
    )
    m = LevyModel(nu=DecomposableKernel(a=lambda x: scale, base=base))
    lo_cut, hi_cut = sorted((c1, c2))
    i_lo = jump_intensity(cutoff_model(m, lo_cut), 0.0)
    i_hi = jump_intensity(cutoff_model(m, hi_cut), 0.0)
    assert i_lo >= i_hi - 1e-12
    assert i_lo == pytest.approx(scale * math.exp(-lo_cut), rel=1e-9)


@settings(deadline=None, max_examples=100)
@given(
    a=st.integers(-9, 9), b=st.integers(-9, 9), c=st.integers(-9, 9),
    x=st.floats(min_value=-3.0, max_value=3.0),
)
def test_expression_parser_evaluates_polynomials(a, b, c, x):
    expr = parse_expression(f"{a} + {b}*x + {c}*x^2", ("x",))
    assert expr(x) == pytest.approx(a + b * x + c * x * x, rel=1e-12, abs=1e-12)
