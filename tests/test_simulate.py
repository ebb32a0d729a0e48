import numpy as np
import pytest

from monodual.errors import InputFormatError, NotMonotone, WindowEscape
from monodual.generator import (
    BaseMeasure,
    DecomposableKernel,
    Lattice,
    LevyModel,
)
from monodual.qmatrix import RateMatrix, transition_matrix
from monodual.simulate import (
    mc_duality_check,
    mc_growth_bound,
    mc_survival,
    sample_path,
)

from conftest import birth_death


def drift_chain():
    return birth_death(0, 20, up=1.2, down=0.8, boundary="absorb")


def atom_drift_model():
    base = BaseMeasure(atoms=[(1.0, 1.0)])
    return LevyModel(
        mu=DecomposableKernel(a=lambda x: 1.0, base=base), growth_c=1.0
    )


class TestSurvival:
    def test_frozen_estimate(self):
        est = mc_survival(drift_chain(), x0=10, y=12, t=1.0,
                          reps=100_000, seed=42)
        assert est.value == 0.19996
        assert est.half_width == pytest.approx(0.002478994171338507, rel=1e-12)
        assert est.reps == 100_000 and est.seed == 42

    def test_matches_transition_matrix(self):
        rm = drift_chain()
        est = mc_survival(rm, x0=10, y=12, t=1.0, reps=100_000, seed=42)
        truth = float(transition_matrix(rm, 1.0).P[10, 12:].sum())
        assert abs(est.value - truth) <= 3.0 * est.half_width

    def test_bit_identical_rerun_and_threads(self):
        rm = drift_chain()
        kw = dict(x0=10, y=12, t=1.0, reps=50_000, seed=42)
        a = mc_survival(rm, **kw)
        b = mc_survival(rm, **kw)
        c = mc_survival(rm, threads=8, **kw)
        assert a.to_dict() == b.to_dict() == c.to_dict()

    def test_worker_threads_capped_at_cpu_count(self, monkeypatch):
        # a recording stand-in for the executor runs chunks inline, so no
        # thread is started; the chunk split still follows `threads`
        from concurrent.futures import Future

        from monodual import simulate

        seen = {}

        class InlineExecutor:
            def __init__(self, max_workers):
                seen["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                seen["chunks"] = seen.get("chunks", 0) + 1
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", InlineExecutor)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        kw = dict(x0=10, y=12, t=1.0, reps=5_000, seed=42)
        capped = mc_survival(drift_chain(), threads=64, **kw)
        assert seen == {"max_workers": 2, "chunks": 64}
        assert capped.to_dict() == mc_survival(drift_chain(), **kw).to_dict()

    def test_seed_changes_value(self):
        rm = drift_chain()
        a = mc_survival(rm, x0=10, y=12, t=1.0, reps=50_000, seed=42)
        b = mc_survival(rm, x0=10, y=12, t=1.0, reps=50_000, seed=43)
        assert a.value != b.value

    def test_degenerate_proportion_gets_positive_width(self):
        # y below the whole window: every replicate counts, p-hat = 1,
        # the normal interval collapses and the fallback keeps width > 0
        rm = drift_chain()
        est = mc_survival(rm, x0=10, y=0, t=0.5, reps=2_000, seed=1)
        assert est.value == 1.0
        assert est.half_width > 0.0

    def test_killed_mass_never_counts(self):
        # pure-kill chain: by t large every replicate is dead
        rm = RateMatrix(0, 3, "kill", {(n, -1): 5.0 for n in range(4)})
        est = mc_survival(rm, x0=2, y=0, t=10.0, reps=2_000, seed=9)
        assert est.value < 0.05

    def test_start_outside_window_rejected(self):
        with pytest.raises(InputFormatError):
            mc_survival(drift_chain(), x0=99, y=5, t=1.0, reps=100, seed=0)


class TestDualityMC:
    PAIRS = [(10, 8), (10, 12), (5, 5), (14, 15)]

    def test_frozen_report(self):
        rep = mc_duality_check(drift_chain(), pairs=self.PAIRS, t=1.0,
                               reps=40_000, seed=7)
        assert rep.ok
        assert rep.max_abs_z == pytest.approx(1.5308054354179292, rel=1e-12)
        assert rep.z_limit == 3.0
        assert len(rep.pairs) == 4
        first = rep.pairs[0]
        assert first["x"] == 10 and first["y"] == 8
        assert first["p_forward"] == 0.982775
        assert first["p_dual"] == 0.982625

    def test_thread_determinism(self):
        a = mc_duality_check(drift_chain(), pairs=self.PAIRS, t=1.0,
                             reps=20_000, seed=7)
        b = mc_duality_check(drift_chain(), pairs=self.PAIRS, t=1.0,
                             reps=20_000, seed=7, threads=8)
        assert a.to_dict() == b.to_dict()

    def test_non_monotone_rejected(self):
        rm = RateMatrix(0, 2, "kill", {(0, 2): 5.0, (1, 1): 0.1})
        with pytest.raises(NotMonotone):
            mc_duality_check(rm, pairs=[(0, 1)], t=0.5, reps=100, seed=0)


class TestGrowthBound:
    def test_frozen_report(self):
        rep = mc_growth_bound(atom_drift_model(), Lattice(h=1.0, lo=0, hi=60),
                              x0=5.0, t=1.0, c=1.0, reps=100_000, seed=11)
        assert rep.ok
        assert rep.value == pytest.approx(6.00275, rel=1e-12)
        assert rep.half_width == pytest.approx(0.006207340751858002, rel=1e-12)
        assert rep.bound == pytest.approx(np.e * 6.0, rel=1e-12)
        assert rep.escape_fraction == 0.0
        # the bound is loose for this model but the inequality is the point
        assert rep.value - 3.0 * rep.half_width <= rep.bound

    def test_thread_determinism(self):
        kw = dict(x0=5.0, t=1.0, c=1.0, reps=30_000, seed=11)
        a = mc_growth_bound(atom_drift_model(), Lattice(h=1.0, lo=0, hi=60), **kw)
        b = mc_growth_bound(atom_drift_model(), Lattice(h=1.0, lo=0, hi=60),
                            threads=8, **kw)
        assert a.to_dict() == b.to_dict()

    def test_window_escape_raised(self):
        with pytest.raises(WindowEscape):
            mc_growth_bound(atom_drift_model(), Lattice(h=1.0, lo=0, hi=9),
                            x0=5.0, t=1.0, c=1.0, reps=5_000, seed=11)

    def test_off_lattice_start_rejected(self):
        with pytest.raises(InputFormatError):
            mc_growth_bound(atom_drift_model(), Lattice(h=1.0, lo=0, hi=60),
                            x0=0.3, t=1.0, c=1.0, reps=100, seed=0)


class TestPaths:
    def test_structure_and_determinism(self):
        rm = drift_chain()
        p = sample_path(rm, x0=10, t_end=5.0, seed=3)
        q = sample_path(rm, x0=10, t_end=5.0, seed=3)
        assert np.array_equal(p.states, q.states)
        assert np.array_equal(p.times, q.times)
        assert p.states[0] == 10
        assert p.times[0] == 0.0
        assert np.all(np.diff(p.times) > 0.0)
        assert np.all(p.times <= 5.0)
        steps = np.diff(p.states)
        assert np.all(np.isin(steps, [-1, 1]))
        assert not p.killed

    def test_to_dict(self):
        p = sample_path(drift_chain(), x0=10, t_end=1.0, seed=3)
        d = p.to_dict()
        assert d["states"][0] == 10 and d["seed"] == 3
        assert len(d["times"]) == len(d["states"])

    def test_killed_path_flagged(self):
        rm = RateMatrix(0, 3, "kill", {(n, -1): 10.0 for n in range(4)})
        p = sample_path(rm, x0=3, t_end=50.0, seed=0)
        assert p.killed
        # final state repeats at the kill time so plots stay step-shaped
        assert p.states[-1] == p.states[-2]
