import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from monodual import generator
from monodual.dualgen import dual_levy, tabulate_dual
from monodual.errors import (
    GrowthViolated,
    InputFormatError,
    MomentUnbounded,
    QuadratureFailure,
    TailMassUnresolved,
)
from monodual.generator import (
    ABS_WEIGHT,
    BOUNDED_WEIGHT,
    SMALL_WEIGHT,
    BaseMeasure,
    CutoffKernel,
    DecomposableKernel,
    DensityKernel,
    Lattice,
    LevyModel,
    TabulatedKernel,
    central_difference,
    check_levy_monotone,
    classify_boundary,
    cutoff_model,
    density_tails,
    discretize,
    jump_intensity,
    kernel_from_dict,
    model_from_dict,
    overshoot_weight,
    validate_model,
)
from monodual.qmatrix import RateMatrix, check_monotone


def _reference_checked(value, what):
    if not math.isfinite(value):
        raise TailMassUnresolved(f"{what} is not finite")
    if value < 0.0:
        if value < -1e-10 * (1.0 + abs(value)):
            raise TailMassUnresolved(f"{what} is negative: {value!r}")
        return 0.0
    return value


def one(method, side, x, v, *rest):
    """An array method of a kernel at one state x and one value v."""
    return float(method(side, np.array([float(x)]), np.array([v]), *rest)[0])


def kernel_bin(kern, side, x, mm, h):
    return one(kern.bin_masses, side, x, mm, h)


def coefficient(fn, x):
    """A model coefficient at one state x; 0 when the model has none."""
    return 0.0 if fn is None else float(fn(x))


def density_at(kern, x, y):
    """The continuous density of a density or decomposable kernel at (x, y),
    from the kernel's own callables; 0 off its support and at y = 0."""
    dens = kern.base if isinstance(kern, DecomposableKernel) else kern
    if dens.density is None or not dens.y_min < y < dens.y_max or y == 0.0:
        return 0.0
    if isinstance(kern, DecomposableKernel):
        return float(kern.a(x)) * float(dens.density(y))
    return float(kern.density(x, y))


def reference_discretize(m, lat, bin_mass=kernel_bin):
    """The per-state, per-bin loop that discretize replaced by array passes.

    ``bin_mass(kern, side, x, mm, h)`` gives one bin; by default the
    kernel's bin_masses at that one state and bin.
    """
    lo, hi, h = lat.lo, lat.hi, lat.h
    ball = int(math.floor(1.0 / h + 1e-9))
    rates = {}

    def add(n, off, r):
        if r != 0.0:
            rates[(n, off)] = rates.get((n, off), 0.0) + r

    for n in range(lo, hi + 1):
        x = n * h
        g = coefficient(m.G, x)
        if g < 0.0:
            raise InputFormatError(f"G is negative at x={x}")
        if g > 0.0:
            add(n, 1, g / (2.0 * h * h))
            add(n, -1, g / (2.0 * h * h))
        bb = coefficient(m.b, x)
        if bb != 0.0:
            add(n, 1 if bb > 0.0 else -1, abs(bb) / h)
        for name, kern in m.kernels():
            compensated = name == "nu"
            k_right = max(hi - n, ball if compensated else 0)
            for mm in range(1, k_right + 1):
                c = _reference_checked(
                    bin_mass(kern, 1, x, mm, h), f"{name} right bin {mm} at x={x}")
                if c == 0.0:
                    continue
                add(n, mm, c)
                if compensated and mm * h <= 1.0 + 1e-9:
                    add(n, -1, mm * c)
            add(n, k_right + 1, _reference_checked(
                one(kern.tails, 1, x, (k_right + 1) * h), f"{name} right tail at x={x}"))
            k_left = max(n - lo, ball if compensated else 0)
            for mm in range(1, k_left + 1):
                d = _reference_checked(
                    bin_mass(kern, -1, x, mm, h), f"{name} left bin {mm} at x={x}")
                if d == 0.0:
                    continue
                add(n, -mm, d)
                if compensated and mm * h <= 1.0 + 1e-9:
                    add(n, 1, mm * d)
            add(n, -(k_left + 1), _reference_checked(
                one(kern.far_tails, -1, x, k_left * h), f"{name} left tail at x={x}"))
    return RateMatrix(lo, hi, lat.boundary, rates)


def quad_bin(kern, side, x, mm, h):
    """A bin of the kernel's density by adaptive quadrature."""
    a, b = (mm * h, mm * h + h) if side > 0 else (-mm * h, -mm * h + h)
    return quad(lambda y: density_at(kern, x, y), a, b, epsabs=0.0, epsrel=1e-13,
                limit=200)[0]


def exp_right_kernel():
    # unit-rate exponential jumps upward, closed-form tails
    return DensityKernel(
        density=lambda x, y: math.exp(-y),
        support_sign="positive",
        right_tail_fn=lambda x, a: math.exp(-a),
    )


def exp_left_kernel():
    return DensityKernel(
        density=lambda x, y: math.exp(y),
        support_sign="negative",
        left_tail_fn=lambda x, a: math.exp(-a),
    )


class TestBaseMeasure:
    def test_atom_validation(self):
        with pytest.raises(InputFormatError):
            BaseMeasure(atoms=[(0.0, 1.0)])
        with pytest.raises(InputFormatError):
            BaseMeasure(atoms=[(1.0, -0.5)])

    def test_atom_tails_and_bins(self):
        bm = BaseMeasure(atoms=[(1.0, 2.0), (-0.5, 0.25)])
        # the closed tail includes the atom
        assert bm.tails(1.0, [0.0, 1.0, 1.5]).tolist() == [2.0, 2.0, 0.0]
        assert bm.tails(-1.0, [0.25, 0.75]).tolist() == [0.25, 0.0]
        # half-open bin conventions: [mh, mh+h) right, (mh-h, mh] left; the
        # atom at 1.0 sits on the edge 2*0.5, and magnitude 0.5 closes bin 1
        assert bm.bin_masses(1.0, np.array([2, 1]), 0.5).tolist() == [2.0, 0.0]
        assert bm.bin_masses(-1.0, np.array([1, 2]), 0.5).tolist() == [0.25, 0.0]

    def test_atom_moments_and_overshoot(self):
        bm = BaseMeasure(atoms=[(1.0, 2.0)])
        assert bm.moments(ABS_WEIGHT) == 2.0
        assert bm.moments(SMALL_WEIGHT) == 2.0
        assert bm.moments(overshoot_weight([0.5, 1.5], 1.0)).tolist() == [pytest.approx(1.0), 0.0]
        assert bm.tails(1.0, 0.0) + bm.tails(-1.0, 0.0) == 2.0

    def test_density_with_closed_tail(self):
        bm = BaseMeasure(
            density=lambda y: math.exp(-y),
            y_min=0.0,
            right_tail_fn=lambda a: math.exp(-a),
        )
        assert bm.tails(1.0, 0.7) == math.exp(-0.7)
        got = bm.bin_masses(1.0, np.array([2]), 0.5)[0]
        assert got == pytest.approx(math.exp(-1.0) - math.exp(-1.5), abs=1e-14)


EXP_BASES = {
    "density": BaseMeasure(density=lambda y: math.exp(-y), y_min=0.0),
    "tail": BaseMeasure(right_tail_fn=lambda a: math.exp(-a)),
    "both": BaseMeasure(
        density=lambda y: math.exp(-y), y_min=0.0,
        right_tail_fn=lambda a: math.exp(-a),
    ),
}

EXP_KERNELS = {
    "decomposable": DecomposableKernel(a=lambda x: 1.0, base=EXP_BASES["both"]),
    "density": DensityKernel(
        density=lambda x, y: math.exp(-y), support_sign="positive"
    ),
    "density_tail": exp_right_kernel(),
    "tabulated": TabulatedKernel(right_tail_fn=lambda x, a: math.exp(-a)),
}


class TestMomentsAcrossRepresentations:
    """e^{-y} dy on y > 0 gives the same five moments in every representation."""

    LEVEL = 0.5
    WANT = {
        "small": 2.0 - 3.0 / math.e,
        "abs": 1.0,
        "bounded": 2.0 - 4.0 / math.e,
        "overshoot_right": math.exp(-LEVEL),
        "overshoot_left": 0.0,
    }

    def check(self, got):
        for name, want in self.WANT.items():
            assert abs(got[name] - want) <= 1e-13, (name, got[name], want)

    def weights(self):
        return {"small": SMALL_WEIGHT, "abs": ABS_WEIGHT, "bounded": BOUNDED_WEIGHT,
                "overshoot_right": overshoot_weight(self.LEVEL, 1.0),
                "overshoot_left": overshoot_weight(self.LEVEL, -1.0)}

    @pytest.mark.parametrize("rep", sorted(EXP_BASES))
    def test_base_measure(self, rep):
        bm = EXP_BASES[rep]
        self.check({name: float(bm.moments(w)) for name, w in self.weights().items()})

    @pytest.mark.parametrize("rep", sorted(EXP_KERNELS))
    def test_kernel(self, rep):
        # no kernel here depends on x: the same moments at every state
        kern = EXP_KERNELS[rep]
        x = np.array([0.3, -1.2, 2.5])
        for name, w in self.weights().items():
            for got in np.broadcast_to(kern.moments(w, x), x.shape).tolist():
                assert abs(got - self.WANT[name]) <= 1e-13, (name, got)


    def test_negative_level_overshoot_through_closed_tails(self):
        # (y + 1/2) against e^{-y} dy on y > 0 is 1 + 1/2; the tails route
        # needs the w(0+) R(0) term, since the weight is 1/2 at y = 0+
        right = lambda a: math.exp(-a)
        over = lambda side: overshoot_weight(-0.5, side)
        assert EXP_BASES["tail"].moments(over(1.0)) == pytest.approx(1.5, abs=1e-13)
        left_only = BaseMeasure(left_tail_fn=right)
        assert left_only.moments(over(-1.0)) == pytest.approx(1.5, abs=1e-13)
        assert left_only.moments(over(1.0)) == 0.0
        tab = EXP_KERNELS["tabulated"]
        assert tab.moments(over(1.0), 0.3) == pytest.approx(1.5, abs=1e-13)
        for rep in ("density", "both"):
            assert EXP_BASES[rep].moments(over(1.0)) == pytest.approx(1.5, abs=1e-13)
        # a cut c leaves (c + 3/2) e^{-c}, which tends to 3/2
        for cut in (1e-12, 0.5, 2.0):
            got = CutoffKernel(tab, cut).moments(over(1.0), 0.3)
            assert got == pytest.approx((cut + 1.5) * math.exp(-cut), abs=1e-13)
        assert CutoffKernel(tab, 1e-12).moments(over(1.0), 0.3) == pytest.approx(
            1.5, abs=1e-11
        )


class TestKernels:
    def test_quad_bins_match_closed_form(self):
        with_tail = exp_right_kernel()
        quad_only = DensityKernel(
            density=lambda x, y: math.exp(-y), support_sign="positive"
        )
        m = np.array([1, 2, 5])
        a = with_tail.bin_masses(1.0, 0.0, m, 0.3)
        b = quad_only.bin_masses(1.0, 0.0, m, 0.3)
        assert a == pytest.approx(b, abs=1e-10)
        assert quad_only.tails(1.0, 0.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-10
        )

    def test_left_tail_open_vs_closed(self):
        base = BaseMeasure(atoms=[(-1.0, 0.5)])
        kern = DecomposableKernel(a=lambda x: 2.0, base=base)
        assert kern.tails(-1.0, 0.0, 1.0) == 1.0  # atom included
        assert kern.far_tails(-1.0, 0.0, 1.0) == 0.0  # strict inequality

    def test_decomposable_scales_everything(self):
        base = BaseMeasure(
            density=lambda y: math.exp(-y),
            y_min=0.0,
            right_tail_fn=lambda a: math.exp(-a),
        )
        kern = DecomposableKernel(a=lambda x: 1.0 + math.tanh(x), base=base)
        x = 0.7
        f = 1.0 + math.tanh(x)
        assert kern.tails(1.0, x, 0.5) == pytest.approx(f * math.exp(-0.5))
        assert kern.moments(ABS_WEIGHT, x) == pytest.approx(f * 1.0, abs=1e-9)
        assert kern.dfactors(x) == pytest.approx(1.0 / math.cosh(x) ** 2, abs=1e-7)

    def test_decomposable_explicit_derivative_used(self):
        base = BaseMeasure(atoms=[(1.0, 1.0)])
        kern = DecomposableKernel(
            a=lambda x: x * x, base=base, da=lambda x: 2.0 * x
        )
        assert kern.dfactors(3.0) == 6.0

    def test_tabulated_kernel(self):
        kern = TabulatedKernel(
            right_tail_fn=lambda x, a: (1.0 + math.tanh(x)) * math.exp(-a),
            small_moment_fn=lambda x: 1.0 + math.tanh(x),
        )
        assert kern.atom_sizes == () and kern.atom_masses(np.zeros(2)).shape == (2, 0)
        assert kern.tails(1.0, 0.0, 1.0) == math.exp(-1.0)
        assert kern.tails(-1.0, 0.0, 1.0) == 0.0
        assert kern.moments(SMALL_WEIGHT, 0.0) == 1.0
        got = kern.bin_masses(1.0, 0.0, 2, 0.5)
        assert got == pytest.approx(math.exp(-1.0) - math.exp(-1.5), abs=1e-14)

    def test_cutoff_strict_with_atom_at_cut(self):
        base = BaseMeasure(atoms=[(0.5, 0.4), (2.0, 0.3)])
        inner = DecomposableKernel(a=lambda x: 1.0, base=base)
        cut = CutoffKernel(inner, 0.5)
        assert cut.atom_sizes == [2.0] and cut.atom_masses(0.0).tolist() == [0.3]
        assert cut.tails(1.0, 0.0, 0.1) == pytest.approx(0.3)
        assert cut.tails(1.0, 0.0, 3.0) == 0.0
        assert jump_intensity(LevyModel(nu=cut), 0.0) == pytest.approx(0.3)

    def test_central_difference(self):
        assert central_difference(np.tanh, 0.0) == pytest.approx(1.0, abs=1e-9)
        x = np.array([-1.0, 0.5])
        assert central_difference(np.tanh, x) == pytest.approx(1.0 - np.tanh(x) ** 2, abs=1e-9)
        assert central_difference(np.tanh, x, 2) == pytest.approx(
            -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2), abs=1e-6)


class TestStructures:
    def test_lattice_validation(self):
        with pytest.raises(InputFormatError):
            Lattice(h=0.0, lo=0, hi=5)
        with pytest.raises(InputFormatError):
            Lattice(h=0.5, lo=5, hi=5)
        lat = Lattice(h=0.5, lo=-2, hi=2)
        assert np.allclose(lat.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize("lo, hi", [(-0.5, 2), (0, 2.5), ("0", 2), (None, 2)])
    def test_lattice_rejects_non_integral_edges(self, lo, hi):
        with pytest.raises(InputFormatError):
            Lattice(h=0.5, lo=lo, hi=hi)

    @pytest.mark.parametrize("h, lo, hi", [
        (0.5, 2 ** 63, 2 ** 63 + 2),  # every point is 2**62
        # here two inner pairs meet while the pairs at both ends ascend
        (0.5, 2 ** 53 + 1, 2 ** 53 + 6),
        (1.0, -2 ** 53 - 6, -2 ** 53 - 1),
    ])
    def test_lattice_rejects_points_equal_in_float(self, h, lo, hi):
        # validate and dualgen read such a grid as repeated points (exit 0)
        with pytest.raises(InputFormatError, match="points that are equal in float"):
            Lattice(h=h, lo=lo, hi=hi)

    def test_lattice_points_far_out_that_ascend(self):
        lat = Lattice(h=0.5, lo=2 ** 53 + 1, hi=2 ** 53 + 3)
        assert np.all(np.diff(lat.points()) > 0.0)
        # below 2**52 nothing is looked at, so no window is built: not at
        # the size bound of 2**27 points, nor one point past it
        tracemalloc.start()
        try:
            assert Lattice(h=1.0, lo=2 ** 52 - 2 ** 27, hi=2 ** 52 - 1).hi == 2 ** 52 - 1
            with pytest.raises(InputFormatError,
                               match=f"^{2 ** 27 + 1} lattice points exceed the size bound"):
                Lattice(h=1.0, lo=2 ** 52 - 2 ** 27 - 1, hi=2 ** 52 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("h, lo, hi", [(1e300, -10 ** 10, 0), (0.5, 10 ** 400, 10 ** 400 + 2)],
                             ids=["product", "edge"])
    def test_lattice_rejects_points_past_the_float_range(self, h, lo, hi):
        with pytest.raises(InputFormatError, match="past the float range"):
            Lattice(h=h, lo=lo, hi=hi)

    def test_lattice_integral_float_edges_become_ints(self):
        lat = Lattice(h=0.5, lo=-2.0, hi=2.0)
        assert (lat.lo, lat.hi) == (-2, 2) and type(lat.lo) is int and type(lat.hi) is int

    def test_model_support_validation(self):
        with pytest.raises(InputFormatError):
            LevyModel(G=lambda x: 1.0, support="circle")

    def test_kernels_listing(self):
        m = LevyModel(nu=exp_right_kernel())
        assert [name for name, _ in m.kernels()] == ["nu"]
        assert LevyModel(G=lambda x: 1.0).kernels() == []


class TestDiscretize:
    def test_diffusion_term(self):
        m = LevyModel(G=lambda x: 1.0)
        rm = discretize(m, Lattice(h=0.1, lo=-2, hi=2))
        want = 1.0 / (2.0 * 0.1 * 0.1)
        assert rm.rates[(0, 1)] == want
        assert rm.rates[(0, -1)] == want

    def test_drift_term_direction(self):
        up = discretize(LevyModel(b=lambda x: 1.0), Lattice(h=0.5, lo=-2, hi=2))
        assert up.rates[(0, 1)] == 2.0
        assert (0, -1) not in up.rates
        down = discretize(LevyModel(b=lambda x: -1.0), Lattice(h=0.5, lo=-2, hi=2))
        assert down.rates[(0, -1)] == 2.0

    def test_uncompensated_atom(self):
        base = BaseMeasure(atoms=[(1.5, 0.7)])
        m = LevyModel(mu=DecomposableKernel(a=lambda x: 1.0, base=base))
        rm = discretize(m, Lattice(h=0.5, lo=0, hi=6))
        assert rm.rates[(0, 3)] == 0.7
        assert (0, -1) not in rm.rates

    def test_compensated_exponential_bins(self):
        m = LevyModel(nu=exp_right_kernel())
        rm = discretize(m, Lattice(h=0.5, lo=0, hi=6))
        c1 = math.exp(-0.5) - math.exp(-1.0)
        c2 = math.exp(-1.0) - math.exp(-1.5)
        c3 = math.exp(-1.5) - math.exp(-2.0)
        assert rm.rates[(3, 1)] == pytest.approx(c1, abs=1e-15)
        assert rm.rates[(3, 2)] == pytest.approx(c2, abs=1e-15)
        assert rm.rates[(3, 3)] == pytest.approx(c3, abs=1e-15)
        # the ball bins push m * mass onto the downwind neighbor; the bin
        # at m*h = 1.0 exactly is still inside the ball
        assert rm.rates[(3, -1)] == pytest.approx(
            1.0 * c1 + 2.0 * c2, abs=1e-15
        )
        assert rm.rates[(3, -1)] == pytest.approx(0.5281497805872162, abs=1e-15)
        # far tail lumped at the first out-of-window offset
        assert rm.rates[(3, 4)] == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_right_mass_preserved_beyond_mesh(self):
        m = LevyModel(nu=exp_right_kernel())
        rm = discretize(m, Lattice(h=0.5, lo=0, hi=6))
        got = sum(r for (n, off), r in rm.rates.items() if n == 3 and off >= 1)
        assert got == pytest.approx(math.exp(-0.5), abs=1e-14)

    def test_left_side_drops_nothing(self):
        m = LevyModel(nu=exp_left_kernel())
        rm = discretize(m, Lattice(h=0.5, lo=0, hi=6))
        got = sum(r for (n, off), r in rm.rates.items() if n == 3 and off <= -1)
        assert got == pytest.approx(1.0, abs=1e-14)
        # compensation of the left ball bins goes upwind
        assert rm.rates[(3, 1)] > 0.0

    def test_ball_edge_robust_to_roundoff(self):
        # 20 * 0.05 lands a hair above 1.0 in floats; the bin must still
        # count as compensated
        base = BaseMeasure(atoms=[(1.0, 0.3)])
        m = LevyModel(nu=DecomposableKernel(a=lambda x: 1.0, base=base))
        rm = discretize(m, Lattice(h=0.05, lo=0, hi=30))
        assert rm.rates[(0, 20)] == 0.3
        assert rm.rates[(0, -1)] == pytest.approx(20 * 0.3, abs=1e-12)

    def test_coarse_mesh_rejected(self):
        with pytest.raises(InputFormatError):
            discretize(LevyModel(G=lambda x: 1.0), Lattice(h=1.5, lo=0, hi=4))

    def test_negative_G_rejected(self):
        m = LevyModel(G=lambda x: -1.0)
        with pytest.raises(InputFormatError):
            discretize(m, Lattice(h=0.5, lo=0, hi=4))

    def test_two_sided_monotone_model_discretizes_monotone(self):
        def dens(x, y):
            if y > 0:
                return (1.0 + math.tanh(x)) * math.exp(-y)
            return (2.0 - math.tanh(x)) * math.exp(y)

        nu = DensityKernel(
            density=dens,
            right_tail_fn=lambda x, a: (1.0 + math.tanh(x)) * math.exp(-a),
            left_tail_fn=lambda x, a: (2.0 - math.tanh(x)) * math.exp(-a),
        )
        m = LevyModel(G=lambda x: 0.5, nu=nu)
        grid = np.linspace(-2.0, 2.0, 9)
        assert check_levy_monotone(m, grid).ok
        rm = discretize(m, Lattice(h=0.5, lo=-4, hi=4))
        rep = check_monotone(rm)
        assert rep.ok and rep.agreement is True


def _two_sided_tails():
    return DensityKernel(
        density=lambda x, y: math.exp(-abs(y)),
        right_tail_fn=lambda x, a: (1.0 + math.tanh(x)) * math.exp(-a),
        left_tail_fn=lambda x, a: (2.0 - math.tanh(x)) * math.exp(-a),
    )


def _atoms():
    # atoms on bin edges of h = 0.1 and 0.25, on both sides
    return BaseMeasure(atoms=[(1.0, 0.7), (-0.35, 0.2), (0.5, 0.1), (-0.5, 0.3),
                              (2.25, 0.05), (0.05, 0.4)])


# Five kernel cases of the model-pipeline benchmark: decomposable with a
# closed tail, decomposable with a density only, explicit density with a
# closed tail, explicit density only, and diffusion plus two-sided
# uncompensated jumps.
PIPELINE_DOCS = {
    "dec_tail": {"b": "0.2", "nu": {"case": "decomposable", "a": "1+0.5*tanh(x)", "base": {
        "density": "0.8*e^(-1.2*y)", "support_sign": "positive",
        "tail": "0.666667*e^(-1.2*a)"}}},
    "dec_dens": {"b": "-0.1", "nu": {"case": "decomposable", "a": "1+0.4*tanh(x)", "base": {
        "density": "1.1*e^(-0.9*y)", "support_sign": "positive"}}},
    "dens_tail": {"b": "0.3", "nu": {
        "case": "density", "density": "(1+0.6*tanh(x))*0.7*e^(-1.4*y)",
        "right_tail": "(1+0.6*tanh(x))*0.5*e^(-1.4*a)", "support_sign": "positive"}},
    "dens_expr": {"b": "-0.25", "nu": {
        "case": "density", "density": "(1+0.35*tanh(x))*1.3*e^(-1.1*y)",
        "support_sign": "positive"}},
    "diff_mu": {"G": "0.9", "b": "1.2*tanh(x)", "mu": {"case": "decomposable", "a": "1", "base": {
        "density": "0.2*e^(-1.3*abs(y))", "tail": "0.15*e^(-1.3*a)",
        "left_tail": "0.15*e^(-1.3*a)"}}},
}

EXACT_MODELS = {
    "density tails": lambda: LevyModel(G=lambda x: 0.5, b=math.tanh, nu=_two_sided_tails()),
    "atoms": lambda: LevyModel(
        nu=DecomposableKernel(a=lambda x: 1.0 + 0.2 * math.tanh(x), base=_atoms()),
        mu=DecomposableKernel(a=lambda x: 0.5, base=_atoms()), b=lambda x: -0.4),
    "decomposable tails": lambda: model_from_dict({"G": "0.2", "b": "0.1*tanh(x)", "nu": {
        "case": "decomposable", "a": "1+0.5*tanh(x)", "base": {
            "tail": "0.7*e^(-1.2*a)", "left_tail": "0.3*e^(-2*a)",
            "atoms": [{"y": 0.5, "mass": 0.1}, {"y": -0.3, "mass": 0.2}]}}}),
    "tabulated": lambda: model_from_dict({
        "nu": {"case": "tabulated", "right_tail": "(1+0.3*tanh(x))*e^(-2*a)",
               "left_tail": "0.5*e^(-a)"},
        "mu": {"case": "tabulated", "left_tail": "0.2*e^(-3*a)"}}),
    "tabulated callbacks": lambda: LevyModel(nu=TabulatedKernel(
        right_tail_fn=lambda x, a: (1.0 + 0.3 * math.tanh(x)) * math.exp(-2.0 * a))),
    "cutoff": lambda: cutoff_model(LevyModel(
        nu=_two_sided_tails(),
        mu=DecomposableKernel(a=lambda x: 1.0, base=_atoms())), 0.2),
}
EXACT_MODELS.update({
    f"pipeline {case}": functools.partial(model_from_dict, PIPELINE_DOCS[case])
    for case in ("dec_tail", "dens_tail", "diff_mu")
})

DENSITY_MODELS = {
    "callback density": lambda: LevyModel(nu=DensityKernel(
        density=lambda x, y: (1.0 + 0.5 * math.tanh(x)) * math.exp(-1.1 * y),
        support_sign="positive")),
    "two-sided densities": lambda: model_from_dict({
        "G": "1", "nu": {"case": "density",
                         "density": "(1+0.3*tanh(x))*exp(-abs(y))*(1+0.1*y^2)"},
        "mu": {"case": "decomposable", "a": "1",
               "base": {"density": "0.2*exp(-2*abs(y))"}}}),
    # support edges inside bins; every lump starts past y_max
    "bounded support": lambda: model_from_dict({"nu": {
        "case": "density", "density": "y^(-1.5)", "support_sign": "positive",
        "y_min": 0.12, "y_max": 1.05}}),
}
DENSITY_MODELS.update({
    f"pipeline {case}": functools.partial(model_from_dict, PIPELINE_DOCS[case])
    for case in ("dec_dens", "dens_expr")
})
ALL_MODELS = {**EXACT_MODELS, **DENSITY_MODELS}


def _bisected_panels(monkeypatch):
    """The (lo, hi) of every panel that fails its 8/16 check and is bisected:
    its y-range, or for a qagi panel that reaches t = inf its s-range."""
    calls = []

    def counting(f, lo, hi, bound, inner=generator._bisect):
        calls.extend(zip(lo.tolist(), hi.tolist()))
        return inner(f, lo, hi, bound)

    monkeypatch.setattr(generator, "_bisect", counting)
    return calls


def _exact_tail(a, kink, y_max):
    # the mass of e^(-t) (1 + |t - kink|) over magnitudes a <= t < y_max
    def beyond(t):
        if t == math.inf:
            return 0.0
        if t >= kink:
            return math.exp(-t) * (2.0 + t - kink)
        return math.exp(-t) * (kink - t) + 2.0 * math.exp(-kink)
    return beyond(min(a, y_max)) - beyond(y_max)


class TestDensityTails:
    KINK = 2.37

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("y_max", [math.inf, 3.3])
    def test_kinked_tail_is_bisected_on_the_kinked_panel(self, side, y_max, monkeypatch):
        kink = self.KINK
        density = lambda x, y: math.exp(-abs(y)) * (1.0 + abs(y - side * kink))
        a = np.linspace(0.0, 4.0, 161)
        lo, hi = (0.0, y_max) if side > 0 else (-y_max, 0.0)
        calls = _bisected_panels(monkeypatch)
        got = density_tails(density, (np.zeros(a.size),), a, side, lo, hi)
        # one panel per tail that holds the kink, and that panel only
        assert len(calls) == np.count_nonzero(a < kink)
        assert all(c < side * kink < d for c, d in calls)
        for ai, g in zip(a, got):  # to 1e-10 relative, 1e-12 absolute
            assert g == pytest.approx(_exact_tail(ai, kink, y_max), rel=1e-10, abs=1e-12)

    def test_exponential_tails_without_fallback(self, monkeypatch):
        calls = _bisected_panels(monkeypatch)
        beta = np.linspace(0.8, 3.0, 12)[:, None]
        a = np.linspace(0.0, 4.0, 17)[None, :]
        density = generator.parse_expression("1.3*e^(-b*y)", ("b", "y"))
        got = density_tails(density, (beta,), a, 1.0, 0.0, math.inf)
        assert calls == []
        assert np.max(np.abs(got / (1.3 / beta * np.exp(-beta * a)) - 1.0)) < 1e-14

    def test_one_state_tails_match_the_block(self):
        x = np.repeat(np.linspace(-1.0, 1.0, 5), 4)
        a = np.tile([0.0, 0.3, 1.0, 2.5], 5)
        for name in ("pipeline dens_expr", "two-sided densities", "bounded support"):
            for _, kern in ALL_MODELS[name]().kernels():
                for side in (1.0, -1.0):
                    single = [one(kern.tails, side, xi, ai) for xi, ai in zip(x, a)]
                    assert kern.tails(side, x, a).tolist() == single, (name, side)


class TestNoFallbackOnPipelineDensities:
    @pytest.mark.parametrize("case", ["dec_dens", "dens_expr"])
    def test_discretize_and_tabulate_dual(self, case, monkeypatch):
        m = model_from_dict(PIPELINE_DOCS[case])
        calls = _bisected_panels(monkeypatch)
        discretize(m, Lattice(h=0.05, lo=-40, hi=40, boundary="reflect"))
        tabulate_dual(dual_levy(m), 0.25 * np.arange(-2, 3), 0.25 * np.arange(1, 17))
        assert calls == []


class TestArrayDiscretize:
    @pytest.mark.parametrize("boundary", ["absorb", "reflect", "kill"])
    @pytest.mark.parametrize("name", sorted(EXACT_MODELS))
    def test_closed_tails_and_atoms_match_the_loop_exactly(self, name, boundary):
        m = EXACT_MODELS[name]()
        for lat in (Lattice(h=0.1, lo=-12, hi=12, boundary=boundary),
                    Lattice(h=0.25, lo=-3, hi=5, boundary=boundary)):
            got = discretize(m, lat)
            assert list(got.rates.items()) == list(reference_discretize(m, lat).rates.items())

    @pytest.mark.parametrize("name", sorted(DENSITY_MODELS))
    def test_densities_match_quadrature(self, name, monkeypatch):
        m = DENSITY_MODELS[name]()
        lat = Lattice(h=0.1, lo=-15, hi=15, boundary="reflect")
        want = reference_discretize(m, lat, bin_mass=quad_bin).rates
        calls = _bisected_panels(monkeypatch)
        got = discretize(m, lat).rates
        assert calls == []  # smooth on every bin: Gauss-Legendre throughout
        assert list(got) == list(want)
        for key, r in got.items():
            assert r == pytest.approx(want[key], rel=1e-12, abs=0.0), key

    def test_kinked_bin_is_bisected(self, monkeypatch):
        kink = 0.37
        m = LevyModel(nu=DensityKernel(
            density=lambda x, y: math.exp(-abs(y - kink)), support_sign="positive"))
        lat = Lattice(h=0.1, lo=0, hi=10)
        want = reference_discretize(m, lat, bin_mass=quad_bin).rates
        calls = _bisected_panels(monkeypatch)
        got = discretize(m, lat).rates
        # the bin [0.3, 0.4) of every state, and no other
        assert len(calls) == 11
        assert all(a < kink < b and b - a < 0.1 + 1e-12 for a, b in calls)
        assert list(got) == list(want)
        for key, r in got.items():
            assert r == pytest.approx(want[key], rel=1e-12, abs=0.0), key

    @pytest.mark.parametrize("name", ["atoms", "cutoff", "pipeline dens_expr",
                                      "two-sided densities"])
    def test_blocks_change_nothing(self, name, monkeypatch):
        m = ALL_MODELS[name]()
        lat = Lattice(h=0.1, lo=-20, hi=20, boundary="kill")
        whole = list(discretize(m, lat).rates.items())
        monkeypatch.setattr(generator, "_BLOCK_BUDGET", 1)  # one state per block
        assert list(discretize(m, lat).rates.items()) == whole

    def test_one_state_bins_match_the_block(self):
        h = 0.1
        x = np.repeat(np.linspace(-1.0, 1.0, 5), 12)
        mm = np.tile(np.arange(1, 13), 5)
        for name in ("atoms", "cutoff", "tabulated", "pipeline dens_expr",
                     "two-sided densities"):
            for _, kern in ALL_MODELS[name]().kernels():
                for side in (1.0, -1.0):
                    batch = kern.bin_masses(side, x, mm, h)
                    single = [kernel_bin(kern, side, xi, int(mi), h) for xi, mi in zip(x, mm)]
                    assert batch.tolist() == single, (name, side)

    def test_errors_in_loop_order(self):
        lat = Lattice(h=0.1, lo=-10, hi=10)
        growing = lambda cut: lambda x, a: math.exp(a) if x > cut else math.exp(-a)
        models = [
            LevyModel(G=lambda x: -1.0 if x > 0.45 else 1.0,
                      mu=TabulatedKernel(right_tail_fn=growing(0.4))),
            LevyModel(nu=TabulatedKernel(left_tail_fn=growing(0.0)),
                      mu=TabulatedKernel(right_tail_fn=growing(-0.2))),
            LevyModel(mu=TabulatedKernel(
                right_tail_fn=lambda x, a: -1.0 if a > 1.5 else math.exp(-a))),
            LevyModel(nu=TabulatedKernel(
                left_tail_fn=lambda x, a: math.nan if x > 0.5 else math.exp(-a))),
        ]
        for m in models:
            with pytest.raises(Exception) as want:
                reference_discretize(m, lat)
            with pytest.raises(type(want.value)) as got:
                discretize(m, lat)
            assert str(got.value) == str(want.value)

    def test_block_budget_bounds_memory(self, monkeypatch):
        # a zero density keeps the rate table empty, so the peak is the
        # arrays of one block; it stays flat as the lattice doubles
        m = LevyModel(nu=kernel_from_dict(
            {"case": "density", "density": "0*y", "support_sign": "positive"}))
        budget = 1 << 15
        bound = 6 * 8 * budget

        def peak(n):
            tracemalloc.start()
            try:
                discretize(m, Lattice(h=0.01, lo=-n, hi=n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(generator, "_BLOCK_BUDGET", budget)
        assert peak(100) < bound
        assert peak(200) < bound
        monkeypatch.setattr(generator, "_BLOCK_BUDGET", 1 << 19)
        assert peak(200) > 4 * bound


def reference_levy_monotone(m, grid, thresholds=(0.25, 0.5, 1.0, 2.0, 4.0), tol=1e-10):
    """The scalar loop that check_levy_monotone replaced by (grid x
    thresholds) arrays, as its report dict."""
    violations = []
    checked = 0
    for name, kern in m.kernels():
        for a in thresholds:
            right = [one(kern.tails, 1.0, x, a) for x in grid]
            left = [one(kern.tails, -1.0, x, a) for x in grid]
            for i in range(len(grid) - 1):
                checked += 2
                if right[i] > right[i + 1] + tol:
                    violations.append({
                        "kernel": name, "side": "right", "a": a,
                        "x": float(grid[i]), "x_next": float(grid[i + 1]),
                        "lhs": right[i], "rhs": right[i + 1],
                        "deficit": right[i] - right[i + 1],
                    })
                if left[i + 1] > left[i] + tol:
                    violations.append({
                        "kernel": name, "side": "left", "a": a,
                        "x": float(grid[i]), "x_next": float(grid[i + 1]),
                        "lhs": left[i + 1], "rhs": left[i],
                        "deficit": left[i + 1] - left[i],
                    })
    return {
        "ok": not violations, "monotone": not violations, "tol": tol,
        "checked": checked,
        "max_deficit": max((v["deficit"] for v in violations), default=0.0),
        "n_violations": len(violations), "violations": violations[:100],
    }


# Kernels whose tails move the wrong way in x, on both sides.
ANTI_MONOTONE = {
    "closed tails": lambda: LevyModel(nu=DensityKernel(
        density=lambda x, y: math.exp(-abs(y)),
        right_tail_fn=lambda x, a: (2.0 - math.tanh(x)) * math.exp(-a),
        left_tail_fn=lambda x, a: (1.0 + 0.5 * math.tanh(x)) * math.exp(-2.0 * a))),
    "decomposable atoms": lambda: model_from_dict({
        "nu": {"case": "decomposable", "a": "1-0.5*tanh(x)", "base": {
            "tail": "0.7*e^(-1.2*a)", "atoms": [{"y": 0.5, "mass": 0.1}, {"y": 2.0, "mass": 0.2}]}},
        "mu": {"case": "decomposable", "a": "1+0.5*tanh(x)", "base": {
            "left_tail": "0.3*e^(-2*a)", "atoms": [{"y": -1.0, "mass": 0.4}]}}}),
    "tabulated": lambda: model_from_dict({"nu": {
        "case": "tabulated", "right_tail": "(1-0.3*tanh(x))*e^(-2*a)",
        "left_tail": "(1+0.3*tanh(x))*e^(-a)"}}),
}
ANTI_MONOTONE_DENSITIES = {
    "two-sided density": lambda: model_from_dict({"nu": {
        "case": "density", "density": "(1-0.3*tanh(x)*tanh(5*y))*exp(-abs(y))"}}),
    "decomposable density": lambda: model_from_dict({
        "nu": {"case": "decomposable", "a": "1-0.4*tanh(x)", "base": {
            "density": "1.1*e^(-0.9*y)", "support_sign": "positive"}},
        "mu": {"case": "decomposable", "a": "1+0.4*tanh(x)", "base": {
            "density": "0.5*e^(1.5*y)", "support_sign": "negative"}}}),
}


class TestLevyMonotone:
    GRID = np.linspace(-2.0, 2.0, 17)

    @pytest.mark.parametrize("name", sorted({**EXACT_MODELS, **ANTI_MONOTONE}))
    def test_closed_tails_match_the_loop_exactly(self, name):
        m = {**EXACT_MODELS, **ANTI_MONOTONE}[name]()
        assert check_levy_monotone(m, self.GRID).to_dict() == reference_levy_monotone(m, self.GRID)

    @pytest.mark.parametrize("name", sorted({**DENSITY_MODELS, **ANTI_MONOTONE_DENSITIES}))
    def test_densities_match_the_loop(self, name):
        m = {**DENSITY_MODELS, **ANTI_MONOTONE_DENSITIES}[name]()
        got = check_levy_monotone(m, self.GRID).to_dict()
        want = reference_levy_monotone(m, self.GRID)
        assert got["checked"] == want["checked"]
        order = ("kernel", "side", "a", "x", "x_next")
        assert ([[v[k] for k in order] for v in got["violations"]]
                == [[v[k] for k in order] for v in want["violations"]])
        for g, w in zip(got["violations"], want["violations"]):
            assert g["lhs"] == pytest.approx(w["lhs"], rel=1e-12, abs=0.0)
            assert g["rhs"] == pytest.approx(w["rhs"], rel=1e-12, abs=0.0)

    def test_anti_monotone_models_have_violations(self):
        for name, make in {**ANTI_MONOTONE, **ANTI_MONOTONE_DENSITIES}.items():
            rep = check_levy_monotone(make(), self.GRID)
            assert {v["side"] for v in rep.violations} == {"right", "left"}, name

    def test_anti_monotone_flagged(self):
        nu = DensityKernel(
            density=lambda x, y: (2.0 - math.tanh(x)) * math.exp(-y),
            support_sign="positive",
            right_tail_fn=lambda x, a: (2.0 - math.tanh(x)) * math.exp(-a),
        )
        m = LevyModel(nu=nu)
        rep = check_levy_monotone(m, np.linspace(-1.0, 1.0, 3))
        assert not rep.ok
        # every threshold fails on both grid pairs
        assert len(rep.violations) == 10
        assert all(v["side"] == "right" and v["kernel"] == "nu"
                   for v in rep.violations)
        assert rep.max_deficit > 0.0
        d = rep.to_dict()
        assert d["monotone"] is False and d["n_violations"] == 10

    def test_grid_validation(self):
        m = LevyModel(nu=exp_right_kernel())
        with pytest.raises(InputFormatError):
            check_levy_monotone(m, [0.0])
        with pytest.raises(InputFormatError):
            check_levy_monotone(m, [1.0, 0.0])
        with pytest.raises(InputFormatError):
            check_levy_monotone(m, [0.0, 1.0], thresholds=(0.0,))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_tolerance_rejected(self, tol):
        # with tol = -1 every pair was a violation
        m = LevyModel(nu=exp_right_kernel())
        with pytest.raises(InputFormatError, match="tolerance must be finite and at least 0"):
            check_levy_monotone(m, [0.0, 1.0], tol=tol)

    def test_huge_tolerance_warns_nothing(self):
        # the absolute slack admits every pair; tails + tol overflows harmlessly
        m = LevyModel(nu=DecomposableKernel(a=lambda x: 1e308 * (1.0 - x),
                                            base=BaseMeasure(atoms=[(1.0, 1.0)])))
        assert check_levy_monotone(m, [0.0, 0.5], tol=1e308).ok


class TestValidateModel:
    def test_negative_G_rejected(self):
        m = LevyModel(G=lambda x: x)
        with pytest.raises(InputFormatError):
            validate_model(m, np.linspace(-1.0, 1.0, 5))

    def test_growth_condition_margin(self):
        base = BaseMeasure(atoms=[(1.0, 1.0)])
        m = LevyModel(
            mu=DecomposableKernel(a=lambda x: 1.0, base=base), growth_c=1.0
        )
        rep = validate_model(m, np.linspace(-5.0, 5.0, 21))
        assert rep.ok
        rec = next(r for r in rep.records if r["check"] == "growth_condition")
        assert rec["worst_margin"] == pytest.approx(1.5)
        assert rec["at"] == pytest.approx(-1.5)

    def test_growth_violation_located(self):
        base = BaseMeasure(atoms=[(1.0, 1.0)])
        m = LevyModel(
            mu=DecomposableKernel(a=lambda x: x * x, base=base), growth_c=1.0
        )
        with pytest.raises(GrowthViolated) as exc:
            validate_model(m, np.linspace(-5.0, 5.0, 11))
        assert exc.value.x == -5.0
        assert exc.value.lhs == pytest.approx(25.0)
        assert exc.value.rhs == pytest.approx(6.0)

    def test_unbounded_moment(self):
        kern = TabulatedKernel(
            right_tail_fn=lambda x, a: math.exp(-a),
            small_moment_fn=lambda x: math.inf,
        )
        with pytest.raises(MomentUnbounded):
            validate_model(LevyModel(nu=kern), [0.0, 1.0])

    def test_negative_factor_rejected(self):
        base = BaseMeasure(atoms=[(1.0, 1.0)])
        m = LevyModel(nu=DecomposableKernel(a=math.tanh, base=base))
        with pytest.raises(InputFormatError):
            validate_model(m, np.linspace(-2.0, 2.0, 5))

    def test_negative_moment_is_not_a_measure(self):
        # validate passed a density that is negative (exit 0); a moment
        # that is not finite stays MomentUnbounded
        m = LevyModel(nu=DensityKernel(density=lambda x, y: -math.exp(-y),
                                       support_sign="positive"))
        with pytest.raises(TailMassUnresolved, match=r"nu moment at x=0.0 is negative"):
            validate_model(m, [0.0, 1.0])

    def test_dx_moment_records(self):
        plain = LevyModel(nu=exp_right_kernel())
        rep = validate_model(plain, [0.0, 1.0])
        rec = next(r for r in rep.records if r["check"] == "nu_dx1_moment")
        assert rec["status"] == "unchecked"

        withdx = LevyModel(nu=DensityKernel(
            density=lambda x, y: (1.0 + math.tanh(x)) * math.exp(-y),
            support_sign="positive",
            dx_density=lambda x, y: math.exp(-y) / math.cosh(x) ** 2,
            dx2_density=lambda x, y: (
                -2.0 * math.tanh(x) / math.cosh(x) ** 2 * math.exp(-y)
            ),
        ))
        rep2 = validate_model(withdx, [0.0, 1.0])
        rec2 = next(r for r in rep2.records if r["check"] == "nu_dx1_moment")
        assert rec2["status"] == "ok" and math.isfinite(rec2["sup"])

    def test_bounded_coefficients_record(self):
        base = BaseMeasure(
            density=lambda y: math.exp(-y),
            y_min=0.0,
            right_tail_fn=lambda a: math.exp(-a),
        )
        m = LevyModel(
            G=lambda x: 1.0,
            b=math.tanh,
            nu=DecomposableKernel(a=lambda x: 0.3, base=base),
            bounded_coefficients=True,
        )
        rep = validate_model(m, np.linspace(-3.0, 3.0, 7))
        rec = next(r for r in rep.records if r["check"] == "bounded_coefficients")
        assert rec["status"] == "ok" and math.isfinite(rec["sup"])

    def test_empty_grid_rejected(self):
        with pytest.raises(InputFormatError):
            validate_model(LevyModel(G=lambda x: 1.0), [])

    def test_base_moment_computed_once(self, monkeypatch):
        # a decomposable kernel's base moment is x-free, and the overshoot
        # levels (one per |x| > 1) are one array: the number of integrals
        # does not grow with the grid, and no panel is bisected
        def model():
            base = BaseMeasure(density=lambda y: 0.8 * math.exp(-1.2 * y), y_min=0.0)
            return LevyModel(
                b=lambda x: 0.1,
                nu=DecomposableKernel(
                    a=lambda x: 1.0 + 0.5 * math.tanh(x), base=base,
                    da=lambda x: 0.5 / math.cosh(x) ** 2,
                    da2=lambda x: -math.tanh(x) / math.cosh(x) ** 2,
                ),
                growth_c=3.0,
            )

        integrals = []
        inner = generator._side_integral

        def counting(f, args, side, lo, hi):
            integrals.append(np.size(lo))
            return inner(f, args, side, lo, hi)

        monkeypatch.setattr(generator, "_side_integral", counting)
        quads = _bisected_panels(monkeypatch)
        counts, reports = {}, {}
        for points in (41, 161):
            integrals.clear()
            reports[points] = validate_model(model(), np.linspace(-5.0, 5.0, points)).to_dict()
            counts[points] = len(integrals)
        assert counts[41] == counts[161]
        assert quads == []
        # the records are those of the grid's points one at a time
        singles = [validate_model(model(), [x]).to_dict()["records"]
                   for x in np.linspace(-5.0, 5.0, 41)]
        for i, rec in enumerate(reports[41]["records"][:4]):
            if "sup" in rec:
                assert rec["sup"] == max(r[i]["sup"] for r in singles), rec["check"]
        assert reports[41]["records"][4]["worst_margin"] == min(
            r[4]["worst_margin"] for r in singles if r[4]["at"] is not None)


class TestCutoffIntensity:
    def test_power_law_intensity_closed_form(self):
        nu = DensityKernel(
            density=lambda x, y: y ** -1.5,
            support_sign="positive",
            y_max=1.0,
        )
        m = LevyModel(nu=nu)
        vals = []
        for h in (0.05, 0.1, 0.2, 0.4):
            got = jump_intensity(cutoff_model(m, h), 0.0)
            want = 2.0 * (h ** -0.5 - 1.0)
            assert got == pytest.approx(want, rel=1e-8)
            vals.append(got)
        assert vals == sorted(vals, reverse=True)
        assert vals[1] == pytest.approx(4.324555320336758, rel=1e-10)


def _upward_density(density: str, **support) -> LevyModel:
    return model_from_dict({"nu": {"case": "density", "density": density,
                                   "support_sign": "positive", **support}})


class TestSingularDensities:
    # the moment of min(|y|, y^2) under y^(-1-alpha) on (0, 5]:
    # 1/(2 - alpha) + (1 - 5^(1-alpha))/(alpha - 1); at alpha = 1.99 the rest
    # of y^(-0.99) shrinks by 0.993 a level, and at y = 1e-103, where the
    # density overflows, it is still 9.3
    @pytest.mark.parametrize("alpha, want", [
        (0.5, 2.0 / 3.0 + 2.0 * (math.sqrt(5.0) - 1.0)),
        (1.5, 2.0 + 2.0 * (1.0 - 5.0 ** -0.5)),
        (1.9, 10.0 + (1.0 - 5.0 ** -0.9) / 0.9),
        (1.99, 100.0 + (1.0 - 5.0 ** -0.99) / 0.99),
    ])
    def test_stable_like_moment(self, alpha, want):
        m = _upward_density(f"y^(-1-{alpha})", y_max=5.0)
        records = validate_model(m, [-1.0, 0.0, 1.0]).records
        rec = next(r for r in records if r["check"] == "nu_moment")
        assert rec["sup"] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("density, support, want", [
        ("y^(-0.5)*e^(-y)", {}, math.sqrt(math.pi)),
        # pieces would reach the subnormal floats before y^(-0.99) is resolved
        ("y^(-0.99)", {"y_max": 1.0}, 100.0),
        # at the far end of the support, where floats are 1e-16 apart
        ("(1-y)^(-0.5)", {"y_max": 1.0}, 2.0),
        # there the rounding of 1 - y keeps the pieces from settling at the
        # bound, and bisection takes the limit that missed by 50 bounds, or
        # by 6,100 at a ratio of 0.993 a level
        ("(1-y)^(-0.9)", {"y_max": 1.0}, 10.0),
        ("(1-y)^(-0.99)", {"y_max": 1.0}, 100.0),
    ])
    def test_integrable_singularity_intensity(self, density, support, want):
        m = _upward_density(density, **support)
        assert jump_intensity(m, 0.0) == pytest.approx(want, rel=1e-10)

    def test_density_undefined_at_the_support_end(self):
        # NaN at y = 1 alone, where the empty tail panels sit
        m = _upward_density("(1-y)^0.5/(1-y)^0.5*e^(-y)", y_max=1.0)
        assert jump_intensity(m, 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_singularity_settles_far_above_the_float_spacing(self, monkeypatch):
        # floats near y = 1 are 1.1e-16 apart; the steps of (1 - y)^(-1/2)
        # fall by 2^(-1/2) a level, and their limit ends the bisection
        widths = []

        def spy(f, lo, hi, inner=generator.gauss_rules):
            widths.append(np.min(hi - lo, where=hi > lo, initial=np.inf))  # not the empty panels
            return inner(f, lo, hi)

        monkeypatch.setattr(generator, "gauss_rules", spy)
        got = jump_intensity(_upward_density("(1-y)^(-0.5)", y_max=1.0), 0.0)
        assert got == pytest.approx(2.0, rel=1e-12)
        assert min(widths) > 1e-9

    @pytest.mark.parametrize("density, y_max", [
        ("y^(-2)", 5.0),  # adaptive quadrature's extrapolation gave -0.2
        ("y^(-1)", 1.0),  # steps of ln 2 a level, a ratio of 1
        ("(1-y)^(-1)", 1.0),  # adaptive quadrature gave inf
    ])
    def test_divergent_intensity_fails(self, density, y_max):
        with pytest.raises(QuadratureFailure):
            jump_intensity(_upward_density(density, y_max=y_max), 0.0)


class TestCutoffDiscretize:
    @pytest.mark.parametrize("h", [0.25, 0.1])
    @pytest.mark.parametrize("name", sorted(set(ALL_MODELS) - {"cutoff"}))
    def test_cut_at_the_mesh_leaves_far_offsets_alone(self, name, h):
        # the cut only removes jumps of size <= h, so every rate at |offset| >= 2,
        # atoms on bin edges included, is the uncut kernel's
        m = ALL_MODELS[name]()
        lat = Lattice(h=h, lo=-round(1.2 / h), hi=round(1.2 / h), boundary="kill")

        def far(rm):
            return {k: r for k, r in rm.rates.items() if abs(k[1]) >= 2}

        got, want = far(discretize(cutoff_model(m, h), lat)), far(discretize(m, lat))
        assert list(got) == list(want)
        for key, r in got.items():
            assert r == pytest.approx(want[key], rel=1e-12, abs=0.0), key

    def test_density_tails_once_per_kernel_side(self, monkeypatch):
        calls = []
        inner = generator.density_tails

        def counting(density, args, a, *rest):
            calls.append(np.size(a))
            return inner(density, args, a, *rest)

        monkeypatch.setattr(generator, "density_tails", counting)
        m = cutoff_model(model_from_dict(PIPELINE_DOCS["dens_expr"]), 0.05)
        discretize(m, Lattice(h=0.05, lo=-40, hi=40, boundary="reflect"))
        # one block: the right and the left lump, each over all 81 states
        assert calls == [81, 81]

    @pytest.mark.parametrize("case", ["dens_expr", "two-sided densities"])
    def test_density_moments_skip_the_tails(self, monkeypatch, case):
        # the inner density is integrated over |y| > cut directly; through
        # the cut kernel's tails, every node of every panel is a tail
        model = ALL_MODELS[f"pipeline {case}" if case in PIPELINE_DOCS else case]()
        kern = cutoff_model(model, 0.3).nu
        x = 0.4
        weights = [SMALL_WEIGHT, ABS_WEIGHT, BOUNDED_WEIGHT,
                   overshoot_weight(0.5, 1.0), overshoot_weight(-0.5, -1.0)]
        want = [generator.LevyKernel.moments(kern, w, x) for w in weights]
        calls = []
        inner = generator.density_tails

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(generator, "density_tails", counting)
        got = [kern.moments(w, x) for w in weights]
        assert calls == []
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-8, abs=0.0)

    def test_atoms_summed_exactly_in_moments(self):
        cut = CutoffKernel(DecomposableKernel(a=lambda x: 1.0, base=_atoms()), 0.2)
        assert list(zip(cut.atom_sizes, cut.atom_masses(0.3).tolist())) == [
            (1.0, 0.7), (-0.35, 0.2), (0.5, 0.1), (-0.5, 0.3), (2.25, 0.05)]
        assert cut.moments(ABS_WEIGHT, 0.3) == pytest.approx(1.0825, rel=1e-15, abs=0.0)

    def test_cut_adds_atoms_as_the_uncut_kernel(self):
        # one atom rule for kernels and base measures: the atoms first, in
        # order, then the continuous part; with a = 1, every tail and bin
        # above the cut is the uncut kernel's to the bit
        base = BaseMeasure(density=lambda y: 0.9 * math.exp(-1.3 * abs(y)),
                           atoms=[(0.3, 0.25), (0.75, 0.4), (1.5, 0.15),
                                  (-0.45, 0.35), (-0.9, 0.2), (-1.65, 0.1)])
        uncut = DecomposableKernel(a=lambda x: 1.0, base=base)
        cut = CutoffKernel(uncut, 0.01)
        x = np.linspace(-1.0, 1.0, 5)[:, None]
        a = np.array([0.05, 0.3, 0.45, 0.6, 0.75, 0.9, 1.2, 1.5, 1.65, 2.0])
        h, m = 0.15, np.arange(1, 13)
        for side in (1.0, -1.0):
            for method in ("tails", "far_tails"):
                got, want = getattr(cut, method)(side, x, a), getattr(uncut, method)(side, x, a)
                assert got.tolist() == want.tolist(), (method, side)
            bins = m if side > 0.0 else m[1:]  # left bin 1, (0, h], holds the cut
            assert (cut.bin_masses(side, x, bins, h).tolist()
                    == uncut.bin_masses(side, x, bins, h).tolist()), side


class TestBoundaryClass:
    def test_linear_G_small_slope_inaccessible(self):
        m = LevyModel(
            G=lambda x: x, b=lambda x: 2.0, support="halfline",
            asymptotics={"G_order": 1, "alpha": 1.0, "b0": 2.0},
        )
        bc = classify_boundary(m)
        assert bc.label == "inaccessible"
        assert bc.rule == "clause (ii): alpha < b(0)"

    def test_linear_G_large_slope_regular(self):
        m = LevyModel(
            G=lambda x: x, b=lambda x: 0.5, support="halfline",
            asymptotics={"G_order": 1, "alpha": 1.0, "b0": 0.5},
        )
        assert classify_boundary(m).label == "t_regular"

    def test_quadratic_G_inaccessible(self):
        m = LevyModel(
            G=lambda x: x * x, support="halfline",
            asymptotics={"G_order": 2},
        )
        bc = classify_boundary(m)
        assert bc.label == "inaccessible"
        assert bc.rule.startswith("clause (i)")

    def test_tie_is_unknown(self):
        m = LevyModel(
            G=lambda x: x, b=lambda x: 1.0, support="halfline",
            asymptotics={"G_order": 1, "alpha": 1.0, "b0": 1.0},
        )
        assert classify_boundary(m).label == "unknown"

    def test_no_declared_orders_unknown(self):
        m = LevyModel(G=lambda x: x, support="halfline")
        bc = classify_boundary(m)
        assert bc.label == "unknown"
        assert bc.rule == "no clause applicable"

    def test_override_asymptotics_argument(self):
        m = LevyModel(G=lambda x: x * x, support="halfline")
        bc = classify_boundary(m, asymptotics={"G_order": 2})
        assert bc.label == "inaccessible"

    def test_line_support_rejected(self):
        m = LevyModel(G=lambda x: 1.0)
        with pytest.raises(InputFormatError):
            classify_boundary(m)


class TestModelJSON:
    DOC = {
        "b": "0",
        "nu": {
            "case": "decomposable",
            "a": "1+tanh(x)",
            "da": "4/(e^(x)+e^(-x))^2",
            "base": {
                "density": "e^(-y)",
                "support_sign": "positive",
                "tail": "e^(-a)",
            },
        },
        "growth_c": 3.0,
    }

    def test_round_trip_validates_and_discretizes(self):
        m = model_from_dict(self.DOC)
        grid = np.linspace(-3.0, 3.0, 13)
        assert validate_model(m, grid).ok
        assert check_levy_monotone(m, grid).ok
        rm = discretize(m, Lattice(h=0.5, lo=-4, hi=4))
        assert check_monotone(rm).ok

    def test_unknown_case_rejected(self):
        with pytest.raises(InputFormatError):
            kernel_from_dict({"case": "mystery"})

    def test_density_case_needs_density(self):
        with pytest.raises(InputFormatError):
            kernel_from_dict({"case": "density"})

    def test_bad_atom_entry_rejected(self):
        doc = {
            "case": "decomposable", "a": "1",
            "base": {"atoms": [{"y": 1.0}]},
        }
        with pytest.raises(InputFormatError):
            kernel_from_dict(doc)

    @pytest.mark.parametrize("sign", generator.SUPPORT_SIGNS)
    @pytest.mark.parametrize("ends", [{}, {"y_min": -1.0}, {"y_max": 2.0},
                                      {"y_min": -1.0, "y_max": 2.0}, {"y_min": None}])
    def test_one_support_rule(self, sign, ends):
        # a base kept a y_min below 0 under "positive" (and a y_max above 0
        # under "negative"), which a density kernel clips
        doc = {"density": "e^(-abs(y))", "support_sign": sign, **ends}
        kern = kernel_from_dict({**doc, "case": "density"})
        base = kernel_from_dict({"case": "decomposable", "a": "1", "base": doc}).base
        assert (base.y_min, base.y_max) == (kern.y_min, kern.y_max)
        assert kern.y_min >= (0.0 if sign == "positive" else -math.inf)
        assert kern.y_max <= (0.0 if sign == "negative" else math.inf)

    def test_bad_support_sign_rejected(self):
        doc = {
            "case": "decomposable", "a": "1",
            "base": {"support_sign": "upward"},
        }
        with pytest.raises(InputFormatError):
            kernel_from_dict(doc)

    def test_non_mapping_rejected(self):
        with pytest.raises(InputFormatError):
            model_from_dict([1, 2, 3])

    def test_every_model_field_accepted(self):
        doc = dict(self.DOC, G="0.5", mu=None, support="line", bounded_coefficients=False,
                   asymptotics=None, boundary="kill")
        assert set(doc) == set(generator.MODEL_FIELDS)
        assert model_from_dict(doc).G(1.0) == 0.5

    def test_unknown_fields_named(self):
        # a chain document without rates is no model
        for doc, named in ((dict(self.DOC, grwoth_c=3.0), "['grwoth_c']"),
                           ({"lo": 0, "hi": 2, "boundary": "kill"}, "['hi', 'lo']")):
            with pytest.raises(InputFormatError, match=re.escape(f"unknown model fields {named}")):
                model_from_dict(doc)
