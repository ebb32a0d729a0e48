import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from monodual.dualgen import (
    dual_generator_apply,
    dual_levy,
    tabulate_dual,
)
from monodual.errors import (
    InputFormatError,
    NegativeDualDensity,
    TailMassUnresolved,
    UnsupportedKernelCase,
)
from monodual.generator import (
    FD_SCALE,
    BaseMeasure,
    CutoffKernel,
    DecomposableKernel,
    DensityKernel,
    LevyModel,
    TabulatedKernel,
    model_from_dict,
)

from test_generator import PIPELINE_DOCS, _bisected_panels, density_at


def a_fn(x):
    return 1.0 + math.tanh(x)


def da_fn(x):
    return 1.0 / math.cosh(x) ** 2


def tanh_exp_model():
    # multiplicative state factor against a unit-rate exponential base
    base = BaseMeasure(
        density=lambda y: math.exp(-y),
        y_min=0.0,
        right_tail_fn=lambda a: math.exp(-a),
    )
    return LevyModel(nu=DecomposableKernel(a=a_fn, base=base, da=da_fn))


def tanh_exp_density_model():
    # same measure written as an explicit density in both arguments
    return LevyModel(nu=DensityKernel(
        density=lambda x, y: a_fn(x) * math.exp(-y),
        support_sign="positive",
        dx_density=lambda x, y: da_fn(x) * math.exp(-y),
        right_tail_fn=lambda x, a: a_fn(x) * math.exp(-a),
    ))


def nu_tilde_closed(x, y):
    # a(x-y) g(y) + a'(x-y) g-bar(y) with g = g-bar = exp(-y)
    return math.exp(-y) * (a_fn(x - y) + da_fn(x - y))


def bump(x):
    return math.exp(-x * x)


def dbump(x):
    return -2.0 * x * math.exp(-x * x)


def d2bump(x):
    return (4.0 * x * x - 2.0) * math.exp(-x * x)


FROZEN_YFACTOR_AT_04 = -0.22176870495150985


def _tight(f, a, b):
    return quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def reference_nu_tilde(kern, x, y):
    """The per-point dual density that tabulate_dual replaced by arrays,
    with every quadrature by adaptive quad to 1e-13."""
    u = x - y
    if isinstance(kern, DensityKernel):
        if kern.dx_density is not None:
            du = _tight(lambda z: kern.dx_density(u, z), max(y, kern.y_min), kern.y_max)
        else:
            def tail(v):
                if kern.right_tail_fn is not None:
                    return float(kern.right_tail_fn(v, y))
                return _tight(lambda z: float(kern.density(v, z)), max(y, kern.y_min), kern.y_max)
            d = FD_SCALE * (1.0 + abs(u))
            du = (tail(u + d) - tail(u - d)) / (2.0 * d)
        return density_at(kern, u, y) + du
    base = kern.base
    inside = base.density is not None and base.y_min < y < base.y_max
    g = float(base.density(y)) if inside else 0.0
    tail = sum(mass for z, mass in base.atoms if z > 0.0 and z >= y)
    if base.right_tail_fn is not None:
        tail += float(base.right_tail_fn(y))
    elif base.density is not None:
        tail += _tight(lambda z: float(base.density(z)), max(y, base.y_min), base.y_max)
    if kern.da is not None:
        da = float(kern.da(u))
    else:
        d = FD_SCALE * (1.0 + abs(u))
        da = (float(kern.a(u + d)) - float(kern.a(u - d))) / (2.0 * d)
    return float(kern.a(u)) * g + da * tail


def reference_correction(kern, x):
    # central differences leave rounding of about 1e-11 in the integrand
    total = quad(
        lambda y: y * (density_at(kern, x, y) - reference_nu_tilde(kern, x, y)), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-11, limit=200,
    )[0]
    if isinstance(kern, DecomposableKernel):
        for y, mass in kern.base.atoms:
            if 0.0 < y <= 1.0:
                total += y * (float(kern.a(x)) - float(kern.a(x - y))) * mass
    return total


class TestDispatch:
    def test_decomposable_routes_to_factored_case(self):
        assert dual_levy(tanh_exp_model()).case == "decomposable"

    def test_density_routes_to_density_case(self):
        assert dual_levy(tanh_exp_density_model()).case == "density"

    def test_no_kernel_rejected(self):
        with pytest.raises(UnsupportedKernelCase):
            dual_levy(LevyModel(G=lambda x: 1.0))

    def test_tabulated_rejected(self):
        kern = TabulatedKernel(right_tail_fn=lambda x, a: math.exp(-a))
        with pytest.raises(UnsupportedKernelCase):
            dual_levy(LevyModel(nu=kern))

    def test_cutoff_rejection_names_the_kernel_class(self):
        # a CutoffKernel takes its case from the inner kernel: the message
        # named the supported case 'density'
        kern = CutoffKernel(tanh_exp_density_model().nu, 0.1)
        with pytest.raises(UnsupportedKernelCase, match="CutoffKernel"):
            dual_levy(LevyModel(nu=kern))

    def test_two_sided_rejected(self):
        kern = DensityKernel(density=lambda x, y: math.exp(-abs(y)))
        with pytest.raises(UnsupportedKernelCase):
            dual_levy(LevyModel(nu=kern))
        base = BaseMeasure(density=lambda y: math.exp(-abs(y)))
        dk = DecomposableKernel(a=lambda x: 1.0, base=base)
        with pytest.raises(UnsupportedKernelCase):
            dual_levy(LevyModel(nu=dk))

    @pytest.mark.parametrize("label", [None, "positive", "negative", "both"])
    def test_two_sided_base_rejected_whatever_its_label(self, label):
        # a decomposable kernel takes its sides from its base: a document's
        # kernel-level support_sign is not read
        nu = {"case": "decomposable", "a": "1", "base": {"density": "e^(-abs(y))"}}
        if label is not None:
            nu["support_sign"] = label
        m = model_from_dict({"nu": nu})
        assert m.nu.support_sign == "both"
        with pytest.raises(UnsupportedKernelCase, match="upward jumps only"):
            dual_levy(m)

    def test_model_with_mu_rejected(self):
        # the construction ignores mu, so a dual of nu alone would drop its jumps
        m = tanh_exp_model()
        m.mu = DecomposableKernel(a=lambda x: 5.0, base=BaseMeasure(atoms=[(-1.0, 1.0)]))
        with pytest.raises(UnsupportedKernelCase, match="mu"):
            dual_levy(m)

    def test_density_clipped_at_zero_has_a_dual(self):
        # y_min = 0 with the default support_sign is upward only
        kern = DensityKernel(density=lambda x, y: math.exp(-y), y_min=0.0)
        assert kern.support_sign == "positive"
        ref = dual_levy(LevyModel(nu=DensityKernel(
            density=lambda x, y: math.exp(-y), support_sign="positive")))
        coeffs = dual_levy(LevyModel(nu=kern))
        x, y = np.array([-0.5, 0.3]), np.array([0.25, 2.0])
        assert np.array_equal(coeffs.nu_tilde(x, y), ref.nu_tilde(x, y))


class TestDualDensity:
    def test_factored_matches_closed_form(self):
        coeffs = dual_levy(tanh_exp_model())
        for x, y in [(0.4, 0.3), (1.0, 0.2), (-0.5, 1.7), (2.0, 0.9)]:
            assert coeffs.nu_tilde(x, y) == pytest.approx(
                nu_tilde_closed(x, y), rel=1e-12
            )

    def test_density_route_agrees_with_factored(self):
        ci = dual_levy(tanh_exp_density_model())
        cii = dual_levy(tanh_exp_model())
        for x, y in [(0.4, 0.3), (1.0, 0.2), (-0.5, 1.7)]:
            assert ci.nu_tilde(x, y) == pytest.approx(
                cii.nu_tilde(x, y), rel=1e-9
            )

    def test_density_route_fd_tail_fallback(self):
        # drop dx_density so the tail derivative falls back to central
        # differences on the tail function
        m = LevyModel(nu=DensityKernel(
            density=lambda x, y: a_fn(x) * math.exp(-y),
            support_sign="positive",
            right_tail_fn=lambda x, a: a_fn(x) * math.exp(-a),
        ))
        coeffs = dual_levy(m)
        assert coeffs.nu_tilde(0.4, 0.3) == pytest.approx(
            nu_tilde_closed(0.4, 0.3), rel=1e-7
        )

    def test_dx_density_tail_starts_at_y_min(self):
        # below y_min the forward density vanishes and the tail derivative
        # is that of the mass above y_min: e^{-y_min} a'(x - y)
        m = LevyModel(nu=DensityKernel(
            density=lambda x, y: a_fn(x) * math.exp(-y),
            support_sign="positive",
            y_min=0.5,
            dx_density=lambda x, y: da_fn(x) * math.exp(-y),
        ))
        coeffs = dual_levy(m)
        assert coeffs.nu_tilde(1.0, 0.25) == pytest.approx(
            math.exp(-0.5) * da_fn(0.75), rel=1e-12
        )

    def test_negative_dual_density_raised(self):
        # a + a' dips below zero where the factor falls fast
        base = BaseMeasure(
            density=lambda y: math.exp(-y),
            y_min=0.0,
            right_tail_fn=lambda a: math.exp(-a),
        )
        steep = LevyModel(nu=DecomposableKernel(
            a=lambda x: 1.0 + math.tanh(-3.0 * x),
            base=base,
            da=lambda x: -3.0 / math.cosh(3.0 * x) ** 2,
        ))
        coeffs = dual_levy(steep)
        with pytest.raises(NegativeDualDensity):
            coeffs.nu_tilde(0.5, 0.5)

    def test_negative_forward_density_is_not_a_measure(self):
        # the dual density came out negative (NegativeDualDensity, exit 1):
        # the forward kernel is refused as in discretize, at (x - y, y)
        m = LevyModel(nu=DensityKernel(density=lambda x, y: -math.exp(-y),
                                       support_sign="positive"))
        with pytest.raises(TailMassUnresolved, match=r"nu density at x=-0.25, y=0.5 is neg"):
            dual_levy(m).nu_tilde(np.array([0.25, 0.5]), 0.5)

    def test_atom_base_dual_terms(self):
        base = BaseMeasure(atoms=[(1.0, 2.0)])
        m = LevyModel(nu=DecomposableKernel(a=a_fn, base=base, da=da_fn))
        coeffs = dual_levy(m)
        x = 0.7
        assert coeffs.atom_sizes == [1.0]
        assert coeffs.atom_masses(x).tolist() == [pytest.approx(2.0 * a_fn(x - 1.0))]
        # the derivative part stays a density against the step tail
        assert coeffs.nu_tilde(x, 0.4) == pytest.approx(
            da_fn(x - 0.4) * 2.0, rel=1e-12
        )
        assert coeffs.nu_tilde(x, 1.6) == 0.0


class TestDriftAndCorrection:
    def test_drift_formula(self):
        m = LevyModel(
            G=lambda x: x * x,
            b=math.tanh,
            nu=tanh_exp_model().nu,
        )
        coeffs = dual_levy(m, dG=lambda x: 2.0 * x)
        x = 1.3
        assert coeffs.drift(x) == pytest.approx(-(x + math.tanh(x)), rel=1e-12)
        fd = dual_levy(m)
        assert fd.drift(x) == pytest.approx(coeffs.drift(x), abs=1e-8)

    def test_correction_integral(self):
        coeffs = dual_levy(tanh_exp_model())
        x = 0.4
        forward = a_fn(x) * (1.0 - 2.0 * math.exp(-1.0))  # int_0^1 y e^-y
        dual_part, _ = quad(lambda y: y * nu_tilde_closed(x, y), 0.0, 1.0)
        assert coeffs.correction(x) == pytest.approx(
            forward - dual_part, abs=1e-10
        )


class TestApply:
    def test_frozen_value_y_factor(self):
        coeffs = dual_levy(tanh_exp_model())
        got = dual_generator_apply(coeffs, bump, 0.4, df=dbump, d2f=d2bump)
        assert got == pytest.approx(FROZEN_YFACTOR_AT_04, abs=1e-12)

    def test_collapsed_form_oracle(self):
        # with the y-factor compensator the integral and the correction
        # collapse to plain differences plus the forward small-jump mean
        coeffs = dual_levy(tanh_exp_model())
        x = 0.4
        jump, _ = quad(
            lambda y: (bump(x - y) - bump(x)) * nu_tilde_closed(x, y),
            0.0, 60.0, limit=200,
        )
        forward_mean = a_fn(x) * (1.0 - 2.0 * math.exp(-1.0))
        want = jump + dbump(x) * forward_mean
        got = dual_generator_apply(coeffs, bump, x, df=dbump, d2f=d2bump)
        assert got == pytest.approx(want, abs=1e-10)

    def test_conventions_differ(self):
        coeffs = dual_levy(tanh_exp_model())
        yf = dual_generator_apply(coeffs, bump, 0.4, df=dbump, d2f=d2bump)
        ind = dual_generator_apply(
            coeffs, bump, 0.4, df=dbump, d2f=d2bump, convention="indicator"
        )
        assert abs(yf - ind) > 0.1

    def test_unknown_convention_rejected(self):
        coeffs = dual_levy(tanh_exp_model())
        with pytest.raises(InputFormatError):
            dual_generator_apply(coeffs, bump, 0.4, convention="sideways")

    @pytest.mark.parametrize("y_max", [0.0, -1.0, math.nan])
    def test_truncation_must_be_positive(self, y_max):
        coeffs = dual_levy(tanh_exp_model())
        with pytest.raises(InputFormatError):
            dual_generator_apply(coeffs, bump, 0.4, y_max=y_max)

    @pytest.mark.parametrize("convention", ["y-factor", "indicator"])
    def test_gauss_panels_need_no_bisection(self, convention, monkeypatch):
        coeffs = dual_levy(tanh_exp_model())
        calls = _bisected_panels(monkeypatch)
        dual_generator_apply(coeffs, bump, 0.4, df=dbump, d2f=d2bump, convention=convention)
        assert calls == []

    def test_fd_fallback_close_to_analytic(self):
        coeffs = dual_levy(tanh_exp_model())
        got = dual_generator_apply(coeffs, bump, 0.4)
        assert got == pytest.approx(FROZEN_YFACTOR_AT_04, abs=1e-8)

    def test_explicit_truncation_matches(self):
        coeffs = dual_levy(tanh_exp_model())
        got = dual_generator_apply(
            coeffs, bump, 0.4, df=dbump, d2f=d2bump, y_max=40.0
        )
        assert got == pytest.approx(FROZEN_YFACTOR_AT_04, abs=1e-10)

    def test_atoms_enter_the_sum(self):
        base = BaseMeasure(atoms=[(1.0, 2.0)])
        m = LevyModel(nu=DecomposableKernel(a=a_fn, base=base, da=da_fn))
        coeffs = dual_levy(m)
        x = 0.7
        got = dual_generator_apply(coeffs, bump, x, df=dbump, d2f=d2bump)
        jump, _ = quad(
            lambda y: (bump(x - y) - bump(x)) * da_fn(x - y) * 2.0, 0.0, 1.0
        )
        atom = (bump(x - 1.0) - bump(x)) * 2.0 * a_fn(x - 1.0)
        # forward small-jump mean: the only forward mass is the atom at 1
        forward_mean = 2.0 * a_fn(x)
        want = jump + atom + dbump(x) * forward_mean
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("x", [-0.5, 0.3])
    def test_kinked_jump_panel_is_bisected(self, x, monkeypatch):
        # nu~(x, y) has a kink at y = 0.37, inside the jump-integral panel
        # (0.25, 0.5) of the segment (0, 1]
        m = model_from_dict({"nu": {"case": "density", "support_sign": "positive",
                                    "density": "(1+0.5*tanh(x))*e^(-abs(y-0.37))"}})
        coeffs = dual_levy(m)
        calls = _bisected_panels(monkeypatch)
        got = dual_generator_apply(coeffs, bump, x, df=dbump, d2f=d2bump)
        assert (0.25, 0.5) in calls

        def integrand(y):
            comp = y if y <= 1.0 else 0.0
            return (bump(x - y) - bump(x) + dbump(x) * comp) * float(coeffs.nu_tilde(x, y))

        jump = sum(quad(integrand, a, b, limit=200)[0]
                   for a, b in ((0.0, 0.37), (0.37, 1.0), (1.0, 60.0)))
        want = jump + dbump(x) * float(coeffs.correction(x))
        assert got == pytest.approx(want, abs=1e-9)


def fd_tail_model():
    return LevyModel(nu=DensityKernel(
        density=lambda x, y: a_fn(x) * math.exp(-y),
        support_sign="positive",
        right_tail_fn=lambda x, a: a_fn(x) * math.exp(-a),
    ))


def y_min_model():
    return LevyModel(nu=DensityKernel(
        density=lambda x, y: a_fn(x) * math.exp(-y),
        support_sign="positive",
        y_min=0.5,
        dx_density=lambda x, y: da_fn(x) * math.exp(-y),
    ))


def atom_model():
    return LevyModel(nu=DecomposableKernel(a=a_fn, base=BaseMeasure(atoms=[(1.0, 2.0)]), da=da_fn))


# name -> (model, what nu~ takes a central difference of: "tail", the
# factor a ("factor"), or nothing)
REFERENCE_MODELS = {
    "tanh exp": (tanh_exp_model, None),
    "tanh exp density": (tanh_exp_density_model, None),
    "fd tail": (fd_tail_model, "tail"),
    "y_min": (y_min_model, None),
    "atoms": (atom_model, None),
    **{f"pipeline {case}": (functools.partial(model_from_dict, PIPELINE_DOCS[case]),
                            "tail" if case.startswith("dens") else "factor")
       for case in ("dec_tail", "dec_dens", "dens_tail", "dens_expr")},
}


class TestArrayTables:
    XS = 0.25 * np.arange(-8, 9)
    YS = 0.25 * np.arange(1, 17)

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_table_matches_the_scalar_reference(self, name):
        make, difference = REFERENCE_MODELS[name]
        kern = make().nu
        tab = tabulate_dual(dual_levy(make()), self.XS, self.YS)
        for x, row in zip(self.XS, tab["nu_tilde"]):
            for y, got in zip(self.YS, row):
                want = reference_nu_tilde(kern, x, y)
                if difference == "tail":  # the step scales quadrature rounding by 1/(2 FD_SCALE)
                    assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (x, y)
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (x, y)
        # the rounding of a central difference in nu~ stays in the integral
        tol = 1e-12 if difference is None else 1e-9
        for x, got in zip(self.XS[::4], tab["correction"][::4]):
            want = reference_correction(kern, x)
            assert abs(got - want) <= tol * (1.0 + abs(want)), x

    @pytest.mark.parametrize("name", ["tanh exp", "pipeline dens_expr", "atoms"])
    def test_scalars_give_0d_arrays_equal_to_the_array_entries(self, name):
        coeffs = dual_levy(REFERENCE_MODELS[name][0]())
        grid = coeffs.nu_tilde(self.XS[:, None], self.YS[None, :])
        corr = coeffs.correction(self.XS)
        masses = coeffs.atom_masses(self.XS)
        for i in (0, 7, 16):
            x = float(self.XS[i])
            for what, got, want in (("G", coeffs.G(x), coeffs.G(self.XS)[i]),
                                    ("drift", coeffs.drift(x), coeffs.drift(self.XS)[i]),
                                    ("correction", coeffs.correction(x), corr[i])):
                assert got.shape == () and got == want, what
            assert coeffs.atom_masses(x).tolist() == masses[i].tolist()
            for j in (0, 5):
                got = coeffs.nu_tilde(x, float(self.YS[j]))
                assert got.shape == () and got == grid[i, j]


class TestTabulate:
    def test_structure(self):
        coeffs = dual_levy(tanh_exp_model())
        out = tabulate_dual(coeffs, xs=[0.0, 0.5], ys=[0.25, 0.5])
        assert out["case"] == "decomposable"
        assert len(out["x"]) == 2 and len(out["drift"]) == 2
        assert len(out["nu_tilde"]) == 2
        assert len(out["nu_tilde"][0]) == 2
        assert out["nu_tilde"][1][0] == pytest.approx(
            nu_tilde_closed(0.5, 0.25), rel=1e-12
        )
        assert "atoms" not in out

    def test_non_finite_dual_density_is_malformed(self):
        base = BaseMeasure(density=lambda y: 1.0, y_min=0.0, y_max=1.0)
        m = LevyModel(nu=DecomposableKernel(a=a_fn, base=base, da=lambda x: math.inf))
        with pytest.raises(InputFormatError, match=r"nu_tilde is not finite at x=0.5, y=0.25"):
            tabulate_dual(dual_levy(m), xs=[0.5, 0.7], ys=[0.25, 0.5])

    def test_atoms_exported(self):
        base = BaseMeasure(atoms=[(1.0, 2.0)])
        m = LevyModel(nu=DecomposableKernel(a=a_fn, base=base, da=da_fn))
        out = tabulate_dual(dual_levy(m), xs=[0.7], ys=[0.5])
        assert out["atoms"][0]["terms"][0]["y"] == 1.0
