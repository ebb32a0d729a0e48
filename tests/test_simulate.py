import tracemalloc
import warnings

import numpy as np
import pytest

from monodual.errors import InputFormatError, NotMonotone, WindowEscape
from monodual.generator import (
    BaseMeasure,
    DecomposableKernel,
    Lattice,
    LevyModel,
)
from monodual import qmatrix, simulate
from monodual.qmatrix import RateMatrix, effective_generator, transition_matrix
from monodual.simulate import (
    SALT_SURVIVAL,
    _Dynamics,
    _Stream,
    _finish_scalar,
    _jump_targets,
    _lockstep,
    _run_rows,
    _simulate,
    mc_duality_check,
    mc_growth_bound,
    mc_survival,
    sample_path,
)

from conftest import birth_death, random_ratematrix


def drift_chain():
    return birth_death(0, 20, up=1.2, down=0.8, boundary="absorb")


def reference_lookup(cum, states, u):
    # the jump lookup of the first lockstep engine: the count of cum
    # entries strictly below u, O(N) per replicate
    return (u[:, None] > cum[states]).sum(axis=1)


def reference_dynamics(rm):
    """Exit rates and the dense N x (N + 1) cumulative jump table.

    The table the first lockstep engines kept: row i holds the cumulative
    probabilities of jumping to states 0..N-1 and, last, of being killed,
    forced to exactly 1.  Column j of a row is state j (N: killed), so
    ``searchsorted(cum[i], u, side="right")`` is the state jumped to.
    """
    q, kill = effective_generator(rm)
    n = q.shape[0]
    rates = -np.diag(q)
    prob = q.copy()
    prob[np.arange(n), np.arange(n)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        prob = np.where(rates[:, None] > 0.0, prob / rates[:, None], 0.0)
        kill_p = np.where(rates > 0.0, kill / rates, 0.0)
    cum = np.cumsum(np.hstack([prob, kill_p[:, None]]), axis=1)
    cum[:, -1] = 1.0
    return rates, cum


def random_row_chain(rng, n_states):
    # every state jumps to a random set of states and, under "kill", out
    # of the window, so the dense rows have runs of equal entries; a few
    # entries have rate 0
    rates = {}
    for n in range(n_states):
        for m in range(-n, n_states - n + 2):
            if m and rng.random() < 0.6:
                rates[(n, m)] = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.0, 3.0))
    return RateMatrix(0, n_states - 1, "kill", rates)


class _ScriptedUniforms:
    # a stand-in generator that hands out fixed uniforms in order, then
    # those of the generator ``then``
    def __init__(self, values, then=None):
        self.values = list(values)
        self.then = then

    def random(self):
        return self.values.pop(0) if self.values else self.then.random()


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


# one replicate of each Monte Carlo entry point, from state 0 to t = 1
ONE_REPLICATE = [lambda rm: mc_survival(rm, 0, 1, t=1.0, reps=1, seed=0),
                 lambda rm: sample_path(rm, 0, 1.0, seed=0)]


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

    @pytest.mark.parametrize("run", ONE_REPLICATE, ids=["survival", "path"])
    def test_horizon_past_the_jump_cap_is_refused(self, run):
        # a survival replicate jumped until it was stopped: every Monte
        # Carlo routine shares the cap of sample_path
        rm = RateMatrix(0, 2, "reflect", {(0, 1): 1e300, (1, -1): 1e300})
        with pytest.raises(InputFormatError, match="expects more than 1e[+]06 jumps"):
            run(rm)

    @pytest.mark.parametrize("run", ONE_REPLICATE, ids=["survival", "path"])
    def test_jump_table_past_the_size_bound_is_refused(self, monkeypatch, run):
        # the jump table is N x (widest row + 1): one state with 3,000 jumps
        # on a 2**20-state window asked for 23.5 GiB (MemoryError, exit 3);
        # here the bound is lowered to 2**17 values
        monkeypatch.setattr(qmatrix, "SIZE_BUDGET", 2 ** 20)
        n = 2 ** 12
        rm = RateMatrix(0, n - 1, "reflect", {(0, m): 1.0 for m in range(1, 3001)})
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError,
                               match=f"^{n * 3001} jump table entries exceed the size bound"):
                run(rm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_killed_path_flagged(self):
        rm = RateMatrix(0, 3, "kill", {(n, -1): 10.0 for n in range(4)})
        p = sample_path(rm, x0=3, t_end=50.0, seed=0)
        assert p.killed
        # final state repeats at the kill time so plots stay step-shaped
        assert p.states[-1] == p.states[-2]


class TestLockstepEngine:
    def test_jump_targets_match_searchsorted(self):
        rng = np.random.default_rng(2024)
        for n_states in list(range(1, 12)) + [31, 64, 127, 128, 129, 300]:
            rm = random_row_chain(rng, n_states)
            dyn = _Dynamics(rm)
            rates, cum = reference_dynamics(rm)
            live = np.flatnonzero(rates > 0.0)
            states = live[rng.integers(0, live.size, size=400)]
            u = rng.random(400)
            # u exactly on cum entries, inside runs of equal entries too
            on = rng.integers(0, n_states + 1, size=100)
            u[:100] = cum[states[:100], on]
            u[100:110] = 0.0
            u = np.minimum(u, np.nextafter(1.0, 0.0))
            got = _jump_targets(dyn, states, u)
            want = [np.searchsorted(cum[s], x, side="right")
                    for s, x in zip(states, u)]
            assert np.array_equal(got, want), n_states
            # the scalar loop takes the same jump: one at once, then none
            first = np.nextafter(1.0, 0.0)
            scalar = [_finish_scalar(dyn, s, 0.0, 1.0, _ScriptedUniforms([first, x, 0.0, 0.0]))[:2]
                      for s, x in zip(states, u)]
            assert scalar == [(w, False) if w < n_states else (s, True)
                              for s, w in zip(states, want)], n_states
            # the old rule agrees wherever u sits on no cum entry
            off = ~np.any(cum[states] == u[:, None], axis=1)
            assert off.sum() >= 250
            assert np.array_equal(got[off], reference_lookup(cum, states, u)[off])

    @pytest.mark.parametrize("boundary", ["absorb", "reflect", "kill"])
    def test_dynamics_match_the_dense_reference(self, boundary):
        rng = np.random.default_rng(77)
        chains = [random_ratematrix(rng, max_states=30, band=6) for _ in range(150)]
        chains += [
            # offsets past int64, and -2**63, whose abs wraps in int64
            RateMatrix(0, 99, "kill", {(0, 1): 1.0, (70, -2**63): 0.5, (5, 2**70): 0.3,
                                       (99, -1): 2.0, (40, 1): 0.7}),
            # jumps clamped onto one edge entry, onto their own source, and
            # from the edges; states 3 and 4 have no rate or rate 0 only
            RateMatrix(-3, 5, "kill", {(-3, 1): 1.0, (-3, -4): 0.25, (0, 9): 0.5,
                                       (0, 12): 1e-17, (0, 7): 2.0, (2, 3): 1.5,
                                       (2, 4): 0.5, (4, 1): 0.0, (5, 1): 3.0,
                                       (5, -1): 0.2, (-2, -9): 0.4, (-2, 1): 0.1}),
            RateMatrix(7, 7, "kill", {(7, 1): 1.0, (7, -2): 2.0}),
        ]
        for k, chain in enumerate(chains):
            rm = RateMatrix(chain.lo, chain.hi, boundary, chain.rates)
            dyn = _Dynamics(rm)
            rates, cum = reference_dynamics(rm)
            q, _ = effective_generator(rm)
            n = rm.n_states
            assert np.array_equal(dyn.rates, rates), k
            assert dyn.cum.shape == dyn.target.shape and dyn.target.itemsize <= 4
            live = np.flatnonzero(rates > 0.0)
            for i in live:
                # the states with a rate, in order, at their dense entries,
                # then the kill entry, then padding
                width = int(np.sum(dyn.target[i] < n))
                assert np.array_equal(dyn.target[i, :width], np.flatnonzero(q[i] > 0.0)), (k, i)
                assert np.array_equal(dyn.cum[i, :width], cum[i, dyn.target[i, :width]]), (k, i)
                assert dyn.cum[i, width] == 1.0 and dyn.target[i, width] == n, (k, i)
                assert np.all(dyn.cum[i, width + 1:] == np.inf), (k, i)
            # every jump is the dense one, u on every dense entry too
            states = np.repeat(live, n + 4)
            u = np.hstack([cum[live], np.zeros((live.size, 1)), rng.random((live.size, 2))]).ravel()
            u = np.minimum(u, np.nextafter(1.0, 0.0))
            want = [np.searchsorted(cum[i], x, side="right") for i, x in zip(states, u)]
            assert np.array_equal(_jump_targets(dyn, states, u), want), k

    def test_zero_uniform_picks_a_possible_target(self):
        # u2 = 0 must not send a replicate to state 0, which state 10 of a
        # birth-death chain cannot reach; both loops take state 9
        rm = birth_death(0, 20, up=1.2, down=0.8, boundary="reflect")
        dyn = _Dynamics(rm)
        _, cum = reference_dynamics(rm)
        assert reference_lookup(cum, np.array([10]), np.array([0.0]))[0] == 0
        block = np.array([[0.5, 0.0, 0.0, 0.5]])
        states = np.array([10])
        killed = np.zeros(1, dtype=bool)
        hit = np.zeros(1, dtype=bool)
        left = _lockstep(dyn, 100.0, block, states, np.zeros(1), killed, hit)
        assert (left.size, int(states[0]), bool(killed[0]), bool(hit[0])) == (0, 9, False, False)
        scalar = _finish_scalar(dyn, 10, 0.0, 100.0, _ScriptedUniforms([0.5, 0.0, 0.0, 0.5]))
        assert scalar == (9, False, False)

    @pytest.mark.parametrize("cols", [6, 7, 66])
    def test_streamed_rows_match_the_whole_block(self, cols):
        reps = 41
        whole = np.random.Generator(np.random.Philox(key=[5, 3])).random((reps, cols))
        starts = (1, 2, 3, 5, 17, 40)
        # rows that start inside a Philox counter step are covered
        assert {(r0 * cols) % 4 for r0 in starts} - {0}
        for r0 in starts:
            gen = _Stream(5).at(3, r0 * cols)
            first = gen.random((min(9, reps - r0), cols))
            rest = gen.random((reps - r0 - first.shape[0], cols))
            assert np.array_equal(np.vstack([first, rest]), whole[r0:])

    @pytest.mark.parametrize("seed", [2**63 + 1, 2**63 + 2, 2**64 - 1])
    def test_seeds_past_int64_are_exact_keys(self, seed):
        # a key list past int64 was read as float64: 2**64 - 1 replayed
        # seed 0, with a RuntimeWarning, and 2**63 + 1 and 2**63 + 2 met
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen = _Stream(seed).at(SALT_SURVIVAL, 0)
            assert gen.bit_generator.state["state"]["key"].tolist() == [seed, SALT_SURVIVAL]
            row = gen.random(66)
            rows = {seed: row.tobytes()}
            for other in (0, 2**63 + 1, 2**63 + 2, 2**64 - 1):
                rows[other] = _Stream(other).at(SALT_SURVIVAL, 0).random(66).tobytes()
        assert len(set(rows.values())) == 4
        # seeds below 2**63 keep the streams of the key [seed, salt]
        want = np.random.Generator(np.random.Philox(key=[2**63 - 1, 3])).random(66)
        assert np.array_equal(_Stream(2**63 - 1).at(3, 0).random(66), want)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, "1"])
    def test_seed_outside_64_bits_is_refused(self, seed):
        rm = drift_chain()
        message = r"a seed is an integer in \[0, 2\*\*64\)"
        for call in (lambda: mc_survival(rm, x0=10, y=12, t=1.0, reps=10, seed=seed),
                     lambda: sample_path(rm, x0=10, t_end=1.0, seed=seed)):
            with pytest.raises(InputFormatError, match=message):
                call()

    def test_stragglers_in_every_sub_chunk(self, monkeypatch):
        # lambda*t = 200: every replicate straggles.  With sub-chunks of 5
        # rows each sub-chunk's stragglers move the stream before the next
        # sub-chunk reads its block rows, which must not shift them
        dyn = _Dynamics(birth_death(0, 40, up=1.0, down=1.0, boundary="reflect"))
        seed, salt, reps, t = 5, 1, 60, 100.0
        whole = _simulate(dyn, 20, t, reps, seed, salt)
        monkeypatch.setattr(simulate, "_BLOCK_BUDGET", 5 * 256)
        for threads in (1, 3):
            run = _simulate(dyn, 20, t, reps, seed, salt, threads)
            assert (run.block_columns, run.stragglers) == (256, reps)
            for a, b in zip(whole[:3], run[:3]):
                assert np.array_equal(a, b), threads
        block = np.random.Generator(np.random.Philox(key=[seed, salt])).random((reps, 256))
        for r in (0, 4, 5, 27, 59):
            private = np.random.Generator(np.random.Philox(key=[seed, salt + (r << 32)]))
            want = _finish_scalar(dyn, 20, 0.0, t, _ScriptedUniforms(block[r], private))
            got = (int(run.states[r]) - dyn.lo, bool(run.killed[r]), bool(run.hit[r]))
            assert got == want, r

    def test_chunk_and_subchunk_split_do_not_change_rows(self, monkeypatch):
        dyn = _Dynamics(drift_chain())
        reps, cols = 3_001, 66

        def run(ranges):
            outs = (np.empty(reps, dtype=np.int64), np.empty(reps, dtype=bool),
                    np.empty(reps, dtype=bool))
            for r0, r1 in ranges:
                _run_rows(dyn, 10, 1.0, cols, r0, r1, _Stream(42), 1, *outs)
            return outs

        whole = run([(0, reps)])
        # sub-chunks of 7 rows, and chunks starting mid-counter
        monkeypatch.setattr(simulate, "_BLOCK_BUDGET", 7 * cols)
        split = run([(0, 1), (1, 1_000), (1_000, 2_999), (2_999, reps)])
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)

    def test_memory_does_not_grow_with_reps(self):
        # lambda*t = 40: rows of 198 uniforms, so the old up-front block
        # cost 1584 bytes per replicate; now only the outputs grow
        import tracemalloc

        rm = birth_death(0, 20, up=1.0, down=1.0, boundary="reflect")
        dyn = _Dynamics(rm)
        peaks = {}
        for reps in (20_000, 200_000):
            tracemalloc.start()
            run = _simulate(dyn, 10, 20.0, reps, 3, 1, threads=1)
            peaks[reps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert run.block_columns == 198 and run.stragglers == 0
            del run
        per_rep = (peaks[200_000] - peaks[20_000]) / 180_000
        assert per_rep < 40.0, per_rep
        assert peaks[200_000] < 8 * simulate._BLOCK_BUDGET + 40 * 200_000

    def test_stragglers_share_the_block_buffer(self):
        # lambda*t = 200: rows are capped at 256 uniforms and every replicate
        # is a straggler, so each sub-chunk's straggler rounds are as large
        # as the sub-chunk; they go into its buffer, not a second one
        import tracemalloc

        rm = birth_death(0, 40, up=1.0, down=1.0, boundary="reflect")
        reps = 20_000
        tracemalloc.start()
        try:
            est = mc_survival(rm, x0=20, y=21, t=100.0, reps=reps, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.block_columns == 256 and est.stragglers == reps
        assert peak < 1.5 * 8 * simulate._BLOCK_BUDGET + 40 * reps, peak

    def test_killed_and_absorbed_rows_match_the_scalar_loop(self):
        # state 0 has no rate (absorbing) and state 9 is killed on its way
        # up; every row ends as the scalar loop on its uniforms ends
        rates = {(n, m): 1.0 if m > 0 else 0.8 for n in range(1, 10) for m in (-1, 1)}
        dyn = _Dynamics(RateMatrix(0, 9, "kill", rates))
        seed, salt, reps, t = 8, 1, 400, 6.0
        run = _simulate(dyn, 5, t, reps, seed, salt)
        block = np.random.Generator(np.random.Philox(key=[seed, salt])).random(
            (reps, run.block_columns))
        for r in range(reps):
            private = np.random.Generator(np.random.Philox(key=[seed, salt + (r << 32)]))
            want = _finish_scalar(dyn, 5, 0.0, t, _ScriptedUniforms(block[r], private))
            got = (int(run.states[r]) - dyn.lo, bool(run.killed[r]), bool(run.hit[r]))
            assert got == want, r
        absorbed = (run.states == 0) & ~run.killed
        assert run.killed.sum() > 25 and absorbed.sum() > 25
        assert np.all(run.hit[run.killed | absorbed])

    def test_memory_is_linear_in_the_window(self):
        # a band-1 chain on 6400 states: one dense N x N float array would
        # take 328 MB, the jump table and the block take a few
        import tracemalloc

        n = 6400
        rm = birth_death(0, n - 1, up=1.0, down=1.0, boundary="reflect")
        tracemalloc.start()
        try:
            est = mc_survival(rm, x0=n // 2, y=n // 2, t=2.0, reps=2_000, seed=3)
            path = sample_path(rm, x0=n // 2, t_end=50.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * simulate._BLOCK_BUDGET + 64 * n, peak
        assert 0.5 < est.value < 0.75
        assert path.times.size > 50 and np.all(np.abs(np.diff(path.states)) == 1)

    def test_stragglers_read_on_from_private_streams(self, monkeypatch):
        # rows of 8 uniforms hold 4 jumps; at lambda*t = 20 most replicates
        # read on from their private streams for several rows, and draw
        # what a scalar loop reading their block row, then their private
        # stream, would draw
        monkeypatch.setattr(simulate, "_block_columns", lambda dyn, t: 8)
        dyn = _Dynamics(drift_chain())
        seed, salt, reps, t = 42, 1, 400, 10.0
        run = _simulate(dyn, 10, t, reps, seed, salt)
        assert run.block_columns == 8 and run.stragglers > reps // 2
        block = np.random.Generator(np.random.Philox(key=[seed, salt])).random((reps, 8))
        for r in range(reps):
            private = np.random.Generator(np.random.Philox(key=[seed, salt + (r << 32)]))
            want = _finish_scalar(dyn, 10, 0.0, t, _ScriptedUniforms(block[r], private))
            got = (int(run.states[r]) - dyn.lo, bool(run.killed[r]), bool(run.hit[r]))
            assert got == want, r
        # the private streams do not depend on the chunking either
        kw = dict(x0=10, y=12, t=1.0, reps=3_000, seed=42)
        a = mc_survival(drift_chain(), **kw)
        b = mc_survival(drift_chain(), threads=3, **kw)
        assert a.stragglers > 100
        assert (a.value, a.stragglers) == (b.value, b.stragglers)

    def test_straggler_rows_start_inside_a_counter_step(self, monkeypatch):
        # rows of 6 uniforms: the second private row of a straggler starts
        # at double 6, halfway through a Philox counter step of 4 doubles
        monkeypatch.setattr(simulate, "_block_columns", lambda dyn, t: 6)
        dyn = _Dynamics(drift_chain())
        seed, salt, reps, t = 3, 1, 200, 10.0
        run = _simulate(dyn, 10, t, reps, seed, salt)
        assert run.stragglers > reps // 2
        block = np.random.Generator(np.random.Philox(key=[seed, salt])).random((reps, 6))
        for r in range(reps):
            private = np.random.Generator(np.random.Philox(key=[seed, salt + (r << 32)]))
            want = _finish_scalar(dyn, 10, 0.0, t, _ScriptedUniforms(block[r], private))
            got = (int(run.states[r]) - dyn.lo, bool(run.killed[r]), bool(run.hit[r]))
            assert got == want, r

    def test_long_horizon_stragglers_stay_in_lockstep(self):
        # lambda*t = 200: rows are capped at 256 uniforms, 128 jumps, so
        # almost every replicate reads on from its private stream
        rm = birth_death(0, 40, up=1.0, down=1.0, boundary="reflect")
        est = mc_survival(rm, x0=20, y=21, t=100.0, reps=2_000, seed=5)
        assert est.block_columns == 256
        assert est.stragglers > 1_990
        assert set(est.to_dict()) == {"value", "half_width", "reps", "seed"}
        truth = float(transition_matrix(rm, 100.0).P[20, 21:].sum())
        assert abs(est.value - truth) <= 4.0 * est.half_width
        # an absorbed replicate stops early and draws no more than its row:
        # at lambda*t = 1000 the drift chain is absorbed after about 50 jumps
        est = mc_survival(drift_chain(), x0=10, y=12, t=500.0, reps=2_000, seed=5)
        assert est.block_columns == 256
        assert est.stragglers < 200

    def test_reports_carry_cost_fields(self):
        rep = mc_duality_check(drift_chain(), pairs=[(10, 8)], t=1.0,
                               reps=2_000, seed=7)
        assert rep.block_columns > 0 and rep.stragglers == 0
        assert "block_columns" not in rep.to_dict()
        growth = mc_growth_bound(atom_drift_model(), Lattice(h=1.0, lo=0, hi=60),
                                 x0=5.0, t=1.0, c=1.0, reps=2_000, seed=11)
        assert growth.block_columns > 0 and growth.stragglers == 0
        assert "stragglers" not in growth.to_dict()
