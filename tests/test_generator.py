import math

import numpy as np
import pytest

from monodual.errors import (
    GrowthViolated,
    InputFormatError,
    MomentUnbounded,
)
from monodual.generator import (
    BaseMeasure,
    CutoffKernel,
    DecomposableKernel,
    DensityKernel,
    Lattice,
    LevyModel,
    TabulatedKernel,
    check_levy_monotone,
    classify_boundary,
    cutoff_model,
    discretize,
    fd_derivative,
    jump_intensity,
    kernel_from_dict,
    model_from_dict,
    validate_model,
)
from monodual.qmatrix import check_monotone


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
        assert bm.right_tail(0.0) == 2.0
        assert bm.right_tail(1.0) == 2.0  # closed tail includes the atom
        assert bm.right_tail(1.5) == 0.0
        assert bm.left_tail(0.25) == 0.25
        assert bm.left_tail(0.75) == 0.0
        # half-open bin conventions: [mh, mh+h) right, (mh-h, mh] left
        assert bm.bin_mass_right(2, 0.5) == 2.0  # atom at edge 1.0 = 2*0.5
        assert bm.bin_mass_right(1, 0.5) == 0.0
        assert bm.bin_mass_left(1, 0.5) == 0.25  # magnitude 0.5 closes bin 1
        assert bm.bin_mass_left(2, 0.5) == 0.0

    def test_atom_moments_and_overshoot(self):
        bm = BaseMeasure(atoms=[(1.0, 2.0)])
        assert bm.abs_moment() == 2.0
        assert bm.small_moment() == 2.0
        assert bm.overshoot_right(0.5) == pytest.approx(1.0)
        assert bm.overshoot_right(1.5) == 0.0
        assert bm.total_mass() == 2.0

    def test_density_with_closed_tail(self):
        bm = BaseMeasure(
            density=lambda y: math.exp(-y),
            y_min=0.0,
            right_tail_fn=lambda a: math.exp(-a),
        )
        assert bm.right_tail(0.7) == math.exp(-0.7)
        got = bm.bin_mass_right(2, 0.5)
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

    @pytest.mark.parametrize("rep", sorted(EXP_BASES))
    def test_base_measure(self, rep):
        bm = EXP_BASES[rep]
        self.check({
            "small": bm.small_moment(),
            "abs": bm.abs_moment(),
            "bounded": bm.bounded_moment(),
            "overshoot_right": bm.overshoot_right(self.LEVEL),
            "overshoot_left": bm.overshoot_left(self.LEVEL),
        })

    @pytest.mark.parametrize("rep", sorted(EXP_KERNELS))
    def test_kernel(self, rep):
        kern = EXP_KERNELS[rep]
        x = 0.3
        self.check({
            "small": kern.small_moment(x),
            "abs": kern.abs_moment(x),
            "bounded": kern.bounded_moment(x),
            "overshoot_right": kern.overshoot_right(x, self.LEVEL),
            "overshoot_left": kern.overshoot_left(x, self.LEVEL),
        })


    def test_negative_level_overshoot_through_closed_tails(self):
        # (y + 1/2) against e^{-y} dy on y > 0 is 1 + 1/2; the tails route
        # needs the w(0+) R(0) term, since the weight is 1/2 at y = 0+
        right = lambda a: math.exp(-a)
        assert EXP_BASES["tail"].overshoot_right(-0.5) == pytest.approx(1.5, abs=1e-13)
        left_only = BaseMeasure(left_tail_fn=right)
        assert left_only.overshoot_left(-0.5) == pytest.approx(1.5, abs=1e-13)
        assert left_only.overshoot_right(-0.5) == 0.0
        tab = EXP_KERNELS["tabulated"]
        assert tab.overshoot_right(0.3, -0.5) == pytest.approx(1.5, abs=1e-13)
        for rep in ("density", "both"):
            assert EXP_BASES[rep].overshoot_right(-0.5) == pytest.approx(1.5, abs=1e-13)
        # a cut c leaves (c + 3/2) e^{-c}, which tends to 3/2
        for cut in (1e-12, 0.5, 2.0):
            got = CutoffKernel(tab, cut).overshoot_right(0.3, -0.5)
            assert got == pytest.approx((cut + 1.5) * math.exp(-cut), abs=1e-13)
        assert CutoffKernel(tab, 1e-12).overshoot_right(0.3, -0.5) == pytest.approx(
            1.5, abs=1e-11
        )


class TestKernels:
    def test_quad_bins_match_closed_form(self):
        with_tail = exp_right_kernel()
        quad_only = DensityKernel(
            density=lambda x, y: math.exp(-y), support_sign="positive"
        )
        for m in (1, 2, 5):
            a = with_tail.bin_mass_right(0.0, m, 0.3)
            b = quad_only.bin_mass_right(0.0, m, 0.3)
            assert a == pytest.approx(b, abs=1e-10)
        assert quad_only.right_tail(0.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-10
        )

    def test_left_tail_open_vs_closed(self):
        base = BaseMeasure(atoms=[(-1.0, 0.5)])
        kern = DecomposableKernel(a=lambda x: 2.0, base=base)
        assert kern.left_tail(0.0, 1.0) == 1.0  # atom included
        assert kern.left_tail_open(0.0, 1.0) == 0.0  # strict inequality

    def test_decomposable_scales_everything(self):
        base = BaseMeasure(
            density=lambda y: math.exp(-y),
            y_min=0.0,
            right_tail_fn=lambda a: math.exp(-a),
        )
        kern = DecomposableKernel(a=lambda x: 1.0 + math.tanh(x), base=base)
        x = 0.7
        f = 1.0 + math.tanh(x)
        assert kern.right_tail(x, 0.5) == pytest.approx(f * math.exp(-0.5))
        assert kern.abs_moment(x) == pytest.approx(f * 1.0, abs=1e-9)
        assert kern.dfactor(x) == pytest.approx(1.0 / math.cosh(x) ** 2, abs=1e-7)

    def test_decomposable_explicit_derivative_used(self):
        base = BaseMeasure(atoms=[(1.0, 1.0)])
        kern = DecomposableKernel(
            a=lambda x: x * x, base=base, da=lambda x: 2.0 * x
        )
        assert kern.dfactor(3.0) == 6.0

    def test_tabulated_kernel(self):
        kern = TabulatedKernel(
            right_tail_fn=lambda x, a: (1.0 + math.tanh(x)) * math.exp(-a),
            small_moment_fn=lambda x: 1.0 + math.tanh(x),
        )
        assert kern.atoms(0.0) == []
        assert kern.right_tail(0.0, 1.0) == math.exp(-1.0)
        assert kern.left_tail(0.0, 1.0) == 0.0
        assert kern.small_moment(0.0) == 1.0
        got = kern.bin_mass_right(0.0, 2, 0.5)
        assert got == pytest.approx(math.exp(-1.0) - math.exp(-1.5), abs=1e-14)

    def test_cutoff_strict_with_atom_at_cut(self):
        base = BaseMeasure(atoms=[(0.5, 0.4), (2.0, 0.3)])
        inner = DecomposableKernel(a=lambda x: 1.0, base=base)
        cut = CutoffKernel(inner, 0.5)
        assert cut.atoms(0.0) == [(2.0, 0.3)]
        assert cut.right_tail(0.0, 0.1) == pytest.approx(0.3)
        assert cut.right_tail(0.0, 3.0) == 0.0
        assert cut.total_mass(0.0) == pytest.approx(0.3)

    def test_fd_derivative(self):
        assert fd_derivative(math.tanh, 0.0) == pytest.approx(1.0, abs=1e-9)


class TestStructures:
    def test_lattice_validation(self):
        with pytest.raises(InputFormatError):
            Lattice(h=0.0, lo=0, hi=5)
        with pytest.raises(InputFormatError):
            Lattice(h=0.5, lo=5, hi=5)
        lat = Lattice(h=0.5, lo=-2, hi=2)
        assert np.allclose(lat.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])

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


class TestLevyMonotone:
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
        # a decomposable kernel's base moment is x-free: one quadrature for
        # the whole grid; only the overshoot checks (one level per |x| > 1)
        # add one each
        from monodual import generator

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

        calls = []
        quad = generator._quad

        def counting(f, a, b):
            calls.append((a, b))
            return quad(f, a, b)

        monkeypatch.setattr(generator, "_quad", counting)
        reports = {}
        for points in (41, 161):
            grid = np.linspace(-5.0, 5.0, points)
            m = model()
            calls.clear()
            reports[points] = validate_model(m, grid).to_dict()
            levels = int(np.sum(np.abs(grid) > 1.0))
            assert len(calls) == 1 + levels
        # the same report as computing the base moment at every point
        monkeypatch.setattr(generator, "_FIXED_WEIGHTS", ())
        m = model()
        calls.clear()
        fresh = validate_model(m, np.linspace(-5.0, 5.0, 41)).to_dict()
        assert len(calls) == 3 * 41 + 32
        assert fresh == reports[41]


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
