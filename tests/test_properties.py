"""Property tests: invariants that must hold on randomly drawn inputs."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from monodual._expr import parse_expression
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

rate_values = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e16, 1e22, 0.1, 1.0 / 3.0, 1e300]),
)


@settings(deadline=None, max_examples=300)
@given(lo=st.integers(-60, 60), width=st.integers(0, 6),
       boundary=st.sampled_from(BOUNDARY_POLICIES), data=st.data())
def test_rate_table_writer_is_json_dumps(lo, width, boundary, data):
    # empty tables, negative states, subnormal and huge rates, NaN and inf
    hi = lo + width
    keys = st.tuples(st.integers(lo, hi), st.integers(-9, 9).filter(bool))
    rates = data.draw(st.dictionaries(keys, rate_values, max_size=25))
    rm = RateMatrix(lo, hi, boundary, rates)
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
