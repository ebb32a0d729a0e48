"""Property tests: invariants that must hold on randomly drawn inputs."""

import contextlib
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from monodual import qmatrix
from monodual._expr import parse_expression
from monodual.cli import main
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

# the largest rate below the headroom 2**1020 that a table's total stays under
BELOW_HEADROOM = math.nextafter(2.0 ** 1020, 0.0)

# the rates RateMatrix admits: finite and nonnegative, -0.0 among them
rate_values = st.one_of(
    st.floats(min_value=0.0, max_value=BELOW_HEADROOM),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e16, 1e22, 0.1, 1.0 / 3.0, 1e300,
                     BELOW_HEADROOM]),
)


def _total(table):
    """The rates of the table added as RateMatrix adds them, in one numpy sum."""
    with np.errstate(over="ignore"):
        return np.array(list(table.values()), dtype=float).sum()


def rate_tables(keys, **size):
    """The tables RateMatrix admits: the rates sum below the headroom 2**1020."""
    return st.dictionaries(keys, rate_values, **size).filter(
        lambda table: _total(table) < 2.0 ** 1020)


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
    # one rate at or past the headroom refuses the table as a whole
    over = {**table, data.draw(st.sampled_from(sorted(table))):
            data.draw(st.sampled_from([2.0 ** 1020, 1.7976931348623157e308]))}
    with pytest.raises(InputFormatError, match=r"past the headroom 2\*\*1020$"):
        RateMatrix(lo, hi, boundary, over)
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
    # rates near the headroom, so that totals pass it often: the table is
    # refused exactly when its rates, in one numpy sum, total 2**1020 or
    # more, whether or not some row overflows; below that no exit rate,
    # kill rate or tail difference does
    hi = lo + width
    keys = st.tuples(st.integers(lo, hi), st.integers(-9, 9).filter(bool))
    big = st.sampled_from([0.0, 1.0, 1e307, 2.0 ** 1018, BELOW_HEADROOM, 2.0 ** 1020,
                           8.98846567431158e307, 1.7976931348623157e308])
    table = data.draw(st.dictionaries(keys, big, min_size=1, max_size=25))
    if not _total(table) < 2.0 ** 1020:
        with pytest.raises(InputFormatError, match=r"past the headroom 2\*\*1020$"):
            RateMatrix(lo, hi, boundary, table)
    else:
        rm = RateMatrix(lo, hi, boundary, table)
        rows = rm._rows
        assert np.all(np.isfinite(rows.exit)) and np.all(np.isfinite(rows.kill))
        assert check_monotone(rm).agreement is True


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


# The admission contract's edges.  SIZE_BUDGET is lowered to 1 KiB, a bound
# of 128 states, replicates or cells (11 states for an N x N array), so
# that an example at the bound or past it allocates little; windows of
# 2**40 and 10**17 states stand for windows far past any bound.
BOUND = 2 ** 7
FLOAT_MAX = 1.7976931348623157e308


def _edge(ordinary, edges):
    """Half the time an ordinary value, else one at an edge of the contract."""
    return st.one_of(st.sampled_from(ordinary), st.sampled_from(edges))


EDGE_RATES = _edge([1.0, 0.5], [0.0, -0.0, 5e-324, BELOW_HEADROOM, 2.0 ** 1020, FLOAT_MAX])
EDGE_OFFSETS = _edge([1, -1], [2, 2 ** 63, -2 ** 63 - 1, 10 ** 30])
EDGE_SIZES = _edge([2, 3, 5], [1, 11, 12, BOUND, BOUND + 1, 2 ** 40, 10 ** 17])
EDGE_LO = _edge([0, -3], [2 ** 53, 2 ** 63 - 3, 2 ** 63, -2 ** 63])
EDGE_MESHES = _edge([0.5, 0.25], [1.0, 1.5, 1e-300, 5e-324])
EDGE_REPS = _edge([1, 50], [0, BOUND, BOUND + 1, 10 ** 12])
EDGE_TIMES = _edge([0.5], [0.0, 5e-324, 1.0])
# models whose rates stay bounded on every window, so Monte Carlo ends
TAME_MODELS = [
    {"b": "0", "growth_c": 3.0,
     "nu": {"case": "decomposable", "a": "1+tanh(x)", "da": "4/(e^(x)+e^(-x))^2",
            "base": {"density": "e^(-y)", "support_sign": "positive", "tail": "e^(-a)"}}},
    {"mu": {"case": "decomposable", "a": "1", "base": {"atoms": [{"y": 1.0, "mass": 1.0}]}},
     "growth_c": 1.0},
]
MODELS = TAME_MODELS + [
    {"G": "1", "b": "x"},
    {"G": "1e308"},
    {"nu": {"case": "decomposable", "a": "1e308", "base": {"atoms": [{"y": 1.0, "mass": 2.0}]}}},
    {"mu": {"case": "decomposable", "a": "1",
            "base": {"atoms": [{"y": 5e-324, "mass": FLOAT_MAX}]}}},
    {"support": "halfline", "G": "x", "b": "1",
     "asymptotics": {"alpha": FLOAT_MAX, "b0": 5e-324, "G_order": 1.0}},
]


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edges") / "doc.json"


def _edge_chain(data):
    lo, size = data.draw(EDGE_LO), data.draw(EDGE_SIZES)
    at = st.sampled_from([0, 1, size - 1])
    entries = data.draw(st.lists(st.tuples(at, EDGE_OFFSETS, EDGE_RATES), max_size=4,
                                 unique_by=lambda e: e[:2]))
    boundary = data.draw(st.sampled_from(BOUNDARY_POLICIES))
    return {"lo": lo, "hi": lo + size - 1, "boundary": boundary,
            "rates": [{"n": lo + k, "m": m, "rate": r} for k, m, r in entries]}


def _edge_lattice(data):
    lo = data.draw(_edge([-2, 0], [2 ** 53, 2 ** 63]))
    size = data.draw(_edge([2, 9], [BOUND, BOUND + 1, 10 ** 17]))
    return data.draw(EDGE_MESHES), lo, lo + size - 1


@settings(deadline=None, max_examples=300)
@given(command=st.sampled_from(["validate", "monotone", "dual", "discretize", "evolve",
                                "duality", "simulate", "boundary", "dualgen"]),
       data=st.data())
def test_no_command_exits_3_at_the_contract_edges(doc_path, command, data):
    # every command, in process, on tables, models and windows at the edges
    # of the admission contract: exit 0, 1 or 2, nothing on stderr on 0 or
    # 2, and no traceback, with numpy warnings raised as errors
    argv = [command, "--in", str(doc_path)]
    t, reps = data.draw(EDGE_TIMES), data.draw(EDGE_REPS)
    on_chain = command in ("dual", "evolve", "duality") or (
        command in ("validate", "monotone", "simulate") and data.draw(st.booleans()))
    if on_chain:
        doc = _edge_chain(data)
        argv += ["--t", str(t)] if command in ("evolve", "duality") else []
        if command == "simulate":
            op = data.draw(st.sampled_from(["survival", "path", "duality"]))
            x0 = doc["lo"]
            doc = {"op": op, "t": t, "reps": reps, "x0": x0, "y": x0 + 1,
                   "pairs": [[x0, x0]], "chain": doc}
    elif command == "simulate":
        h, lo, hi = _edge_lattice(data)
        doc = {"op": "growth", "model": data.draw(st.sampled_from(TAME_MODELS)),
               "lattice": {"h": h, "lo": lo, "hi": hi}, "x0": (lo + 1) * h, "t": t,
               "reps": reps}
    else:
        doc = data.draw(st.sampled_from(MODELS))
        if command in ("discretize", "dualgen") or (
                command in ("validate", "monotone") and data.draw(st.booleans())):
            h, lo, hi = _edge_lattice(data)
            argv += ["--h", repr(h), f"--window={lo}:{hi}"]
    doc_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(qmatrix, "SIZE_BUDGET", 8 * BOUND), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    report = f"{argv} on {doc}: exit {code}\n{out[:2000]}\n{err}"
    assert code in (0, 1, 2), report
    assert code == 1 or err == "", report
    assert "Traceback" not in out + err, report
