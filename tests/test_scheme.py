import numpy as np
import pytest

import oracle_dense as od
from conftest import make_config, make_problem
from stochfsi.cli import build_problem
from stochfsi.discretization import HsForm, assemble_advection, assemble_all, build_spaces
from stochfsi.errors import InitialDataError, PicardDivergence
from stochfsi.geometry import ReferenceDomain
from stochfsi.noise import NoiseSpec
from stochfsi.scheme import (
    CutoffState,
    SchemeParams,
    fluid_step,
    run_path,
    structure_step,
    trace_dissipation_constant,
    update_cutoff,
)


def tiny_spaces(nz=2, nr=2, L=1.0, R=1.0):
    return build_spaces(ReferenceDomain(L=L, R=R, nz=nz, nr=nr), nz)


class TestStructureStep:
    def test_zero_is_fixed_point(self):
        fl, st, lay = tiny_spaces(4, 2)
        eh, vh = structure_step(np.zeros(st.n_free), np.zeros(st.n_free), 0.1, st)
        assert np.all(eh == 0.0) and np.all(vh == 0.0)

    def test_dense_oracle_two_element_beam(self):
        # beam with one interior node: 2 free DOFs, solved densely
        fl, st, lay = tiny_spaces(2, 2)
        eta = np.array([1.0, 0.0])  # interior value DOF raised
        v = np.zeros(st.n_free)
        dt = 0.1
        eh, vh = structure_step(eta, v, dt, st)
        eh_o, vh_o = od.mirror_structure_step(1.0, 2, eta, v, dt)
        assert np.allclose(eh, eh_o, rtol=1e-12, atol=1e-14)
        assert np.allclose(vh, vh_o, rtol=1e-12, atol=1e-14)

    def test_energy_identity_100_random_states(self, rng):
        # E^{n+1/2} + C1 = E^n exactly, for arbitrary (eta, v)
        fl, st, lay = tiny_spaces(8, 2)
        prof = st.profile(np.zeros(st.n_free))
        forms = assemble_all(fl, lay, prof, prof)
        S = st.S1 + st.S2
        dt = 0.05
        for _ in range(100):
            eta = rng.normal(size=st.n_free)
            v = rng.normal(size=st.n_free)
            eh, vh = structure_step(eta, v, dt, st)
            E_n = 0.5 * (v @ st.M @ v + eta @ S @ eta)
            E_half = 0.5 * (vh @ st.M @ vh + eh @ S @ eh)
            C1 = 0.5 * ((vh - v) @ st.M @ (vh - v)) \
                + 0.5 * ((eh - eta) @ S @ (eh - eta))
            assert abs(E_half + C1 - E_n) <= 1e-11 * max(E_n, 1.0)


class TestCutoff:
    def _setup(self, delta=0.1, s=1.75, nz=8):
        fl, st, lay = tiny_spaces(nz, 2)
        hs_form = HsForm(st, s)
        return st, hs_form, delta, s

    def test_admissible_candidate_accepted(self):
        st, hs_form, delta, s = self._setup()
        state = CutoffState(1, np.zeros(st.n_free), None, delta)
        new, gap, hs = update_cutoff(state, np.zeros(st.n_free), st, 1.0, hs_form)
        assert new.theta == 1
        assert gap == pytest.approx(1.0)
        assert hs == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(new.eta_star, np.zeros(st.n_free))

    def test_gap_violation_freezes(self):
        st, hs_form, delta, s = self._setup()
        good = np.zeros(st.n_free)
        state = CutoffState(1, good, None, delta)
        bad = np.zeros(st.n_free)
        bad[st.free.tolist().index(2 * (st.n_el // 2))] = -0.95  # min gap 0.05
        new, gap, _ = update_cutoff(state, bad, st, 1.0, hs_form, step=5)
        assert gap == pytest.approx(0.05, abs=1e-12)
        assert new.theta == 0
        assert new.frozen_at == 5
        assert np.array_equal(new.eta_star, good)

    def test_flag_monotone_after_drop(self):
        st, hs_form, delta, s = self._setup()
        frozen = np.zeros(st.n_free)
        state = CutoffState(0, frozen, 3, delta)
        new, _, _ = update_cutoff(state, np.zeros(st.n_free), st, 1.0, hs_form, step=7)
        assert new.theta == 0
        assert new.frozen_at == 3
        assert new.eta_star is frozen


class TestFluidStep:
    def _params(self, dt=0.01, eps=1e-3, nu=1.0):
        return SchemeParams(nu=nu, delta=0.1, epsilon=eps, s=1.75, dt=dt)

    def test_zero_data_one_iteration(self):
        fl, st, lay = tiny_spaces(2, 2)
        prof = st.profile(np.zeros(st.n_free))
        forms = assemble_all(fl, lay, prof, prof)
        u, v, stats = fluid_step(fl, lay, forms, self._params(),
                                 np.zeros(fl.n_free), np.zeros(st.n_free),
                                 np.zeros(st.n_free), 0.0, 0.0, 0.0)
        assert np.all(u == 0.0) and np.all(v == 0.0)
        assert stats.iterations == 1

    @pytest.mark.parametrize("nz,nr", [(1, 1), (2, 2), (4, 2), (3, 3)])
    def test_dense_mirror_equivalence(self, nz, nr, rng):
        L = R = 1.0
        fl, st, lay = tiny_spaces(nz, nr)
        eta_n = 0.05 * rng.uniform(-1, 1, st.n_free) if st.n_free else np.zeros(0)
        eta_np1 = eta_n + 0.02 * rng.uniform(-1, 1, st.n_free) if st.n_free else eta_n
        forms = assemble_all(fl, lay, st.profile(eta_n), st.profile(eta_np1))
        params = self._params()
        u_n = 0.5 * rng.normal(size=fl.n_free)
        v_n = 0.3 * rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2] if st.n_free else u_n[lay.shared_free]
        v_half = 0.2 * rng.normal(size=st.n_free) if st.n_free else np.zeros(0)
        spec = NoiseSpec(K=2, q=np.array([1.0, 0.5]),
                         amplitude=np.array([0.3, 0.1]), seed=4)
        dW = np.array([0.05, -0.02])
        xi = float(spec.amplitude @ dW)
        u1, v1, stats = fluid_step(fl, lay, forms, params, u_n, v_n, v_half,
                                   xi, 1.0, 0.0)
        u1_o, v1_o = od.mirror_fluid_step(
            L, R, nz, nr, eta_n, eta_np1, u_n, v_n, v_half, xi,
            P_in=1.0, P_out=0.0, nu=params.nu, eps=params.epsilon, dt=params.dt)
        scale = max(np.abs(u1_o).max(), 1e-30)
        assert np.abs(u1 - u1_o).max() <= 1e-10 * scale
        if v1.size:
            assert np.abs(v1 - v1_o).max() <= 1e-10 * scale

    def test_advection_map_built_once_per_step(self, rng, monkeypatch):
        import stochfsi.scheme as scheme

        fl, st, lay = tiny_spaces(4, 2)
        prof = st.profile(0.05 * rng.uniform(-1, 1, st.n_free))
        forms = assemble_all(fl, lay, prof, prof)
        calls = []

        def counting(*args):
            calls.append(1)
            return assemble_advection(*args)

        monkeypatch.setattr(scheme, "assemble_advection", counting)
        u_n = rng.normal(size=fl.n_free)
        v_n = rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2]
        _, _, stats = fluid_step(fl, lay, forms, self._params(), u_n, v_n, v_n,
                                 0.0, 1.0, 0.0)
        assert stats.iterations > 1
        assert len(calls) == 1

    def test_picard_divergence_raises(self, rng):
        fl, st, lay = tiny_spaces(4, 2)
        prof = st.profile(np.zeros(st.n_free))
        forms = assemble_all(fl, lay, prof, prof)
        params = SchemeParams(nu=1e-4, delta=0.1, epsilon=1.0, s=1.75,
                              dt=0.5, max_picard=1)
        u_n = 50.0 * rng.normal(size=fl.n_free)
        with pytest.raises(PicardDivergence):
            fluid_step(fl, lay, forms, params, u_n, np.zeros(st.n_free),
                       np.zeros(st.n_free), 0.0, 0.0, 0.0)

    def test_trace_constant_positive(self):
        fl, st, lay = tiny_spaces(4, 2)
        prof = st.profile(np.zeros(st.n_free))
        forms = assemble_all(fl, lay, prof, prof)
        c = trace_dissipation_constant(fl, forms, self._params())
        assert np.isfinite(c) and c > 0


class TestRunPath:
    def test_zero_data_identically_zero(self):
        prob = make_problem(
            pressure={"kind": "constant", "P_in": 0.0, "P_out": 0.0},
            initial={"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                     "u0": {"kind": "zero"}},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1},
        )
        traj = run_path(prob, 0)
        assert np.abs(traj.u).max() == 0.0
        assert np.abs(traj.v).max() == 0.0
        assert np.abs(traj.eta).max() == 0.0
        led = traj.ledger
        for arr in (led.E, led.E_half, led.D, led.C1, led.C2,
                    led.div_residual, led.stoch_work):
            assert np.abs(arr).max() == 0.0
        assert traj.tau_idx == prob.N

    def test_kinematic_constraint_shared_dof(self):
        prob = make_problem()
        traj = run_path(prob, 0)
        for n in range(1, traj.n_steps + 1):
            shared = traj.u[n][prob.layout.shared_free]
            assert np.array_equal(shared, traj.v[n][0::2])

    def test_zero_amplitude_seed_independent(self):
        base = dict(noise={"K": 3, "q": [1.0, 0.5, 0.25],
                           "amplitude": [0.0, 0.0, 0.0], "seed": 1})
        t1 = run_path(make_problem(**base), 0)
        base["noise"]["seed"] = 999
        t2 = run_path(make_problem(**base), 0)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.eta, t2.eta)
        assert np.array_equal(t1.ledger.E, t2.ledger.E)

    def test_inadmissible_initial_data_rejected(self):
        with pytest.raises(InitialDataError):
            cfg = make_config()
            prob = build_problem(cfg)
            prob.eta0[prob.structure.free.tolist().index(
                2 * (prob.structure.n_el // 2))] = -0.95
            run_path(prob, 0)

    def test_interpolant_time_derivatives(self):
        # the slope of the linear interpolant of eta on step n is v_half[n]
        traj = run_path(make_problem(), 0)
        for n in range(traj.n_steps):
            slope = (traj.eta[n + 1] - traj.eta[n]) / traj.dt
            scale = max(np.abs(traj.eta[n]).max() / traj.dt, 1.0)
            assert np.abs(slope - traj.v_half[n]).max() <= 1e-10 * scale


class TestCollapse:
    def _suction_problem(self, **kw):
        """Long gentle channel drained from both ends: the wall gap crosses
        delta while the (weak-exponent) Sobolev norm stays in band."""
        return make_problem(
            domain={"L": 4.0, "R": 1.0, "nz": 8, "nr": 4},
            physics={"delta": 0.25, "s": 1.55},
            time={"T": 4.0, "N": 64},
            pressure={"kind": "constant", "P_in": -8.0, "P_out": -8.0},
            initial={"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                     "u0": {"kind": "zero"}},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1},
            **kw,
        )

    def test_gap_branch_collapse_freezes_eta_star(self):
        prob = self._suction_problem()
        traj = run_path(prob, 0)
        assert 0 < traj.tau_idx < prob.N
        led = traj.ledger
        row = traj.tau_idx - 1
        assert led.min_gap[row] <= 0.25          # the gap branch fired
        assert led.hs_norm[row] < 1.0 / 0.25     # while the Sobolev test held
        assert np.all(np.diff(traj.ledger.theta) <= 0)
        for n in range(traj.tau_idx, traj.n_steps + 1):
            assert np.array_equal(traj.eta_star[n], traj.eta_star[traj.tau_idx])

    def test_drop_at_first_violation_independent_recheck(self):
        prob = self._suction_problem()
        traj = run_path(prob, 0)
        delta = prob.params.delta
        # recompute admissibility of every displacement by dense sampling
        zs = np.linspace(0, 4.0, 8001)
        first_bad = None
        for k in range(traj.n_steps + 1):
            profile = prob.structure.profile(traj.eta[k])
            gap = 1.0 + profile.value(zs).min()
            hs = prob.hs_form.norm(traj.eta[k], 1.0)
            if not (gap > delta and hs < 1.0 / delta) and first_bad is None:
                first_bad = k
        assert first_bad == traj.tau_idx

    def test_halt_at_stop_truncates(self):
        prob = self._suction_problem()
        prob.halt_at_stop = True
        traj = run_path(prob, 0)
        assert traj.n_steps == traj.tau_idx
        assert traj.u.shape[0] == traj.n_steps + 1

    def test_continues_past_stop_by_default(self):
        prob = self._suction_problem()
        traj = run_path(prob, 0)
        assert traj.n_steps == prob.N

    def test_hs_branch_collapse(self):
        # generous gap, tight Sobolev band: violent wall motion trips the
        # H^s test long before the gap test
        prob = make_problem(
            physics={"delta": 0.42},
            time={"T": 0.5, "N": 40},
            pressure={"kind": "constant", "P_in": 0.0, "P_out": 0.0},
            initial={"eta0": {"kind": "zero"},
                     "v0": {"kind": "sine2", "amplitude": -10.0},
                     "u0": {"kind": "zero"}},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1},
        )
        traj = run_path(prob, 0)
        assert traj.tau_idx < prob.N
        led = traj.ledger
        row = traj.tau_idx - 1  # ledger row of the dropping step
        assert led.hs_norm[row] >= 1.0 / 0.42  # the Sobolev branch fired
        assert led.min_gap[row] > 0.42

    def test_noise_driven_collapse_found_by_seed_search(self):
        found = None
        for seed in range(25):
            prob = make_problem(
                physics={"delta": 0.35},
                time={"T": 1.0, "N": 32},
                pressure={"kind": "constant", "P_in": 0.0, "P_out": 0.0},
                initial={"eta0": {"kind": "sine2", "amplitude": -0.05},
                         "v0": {"kind": "sine2", "amplitude": -1.0},
                         "u0": {"kind": "parabolic", "amplitude": 1.0}},
                noise={"K": 3, "q": [1.0, 0.25, 1 / 9], "amplitude": [6.0, 3.0, 2.0],
                       "seed": seed},
            )
            traj = run_path(prob, 0)
            if traj.stopped:
                found = (seed, traj)
                break
        assert found is not None, "no collapsing seed among the searched range"
        _, traj = found
        assert traj.tau_idx < traj.n_steps or traj.ledger.theta[-1] == 0
        for n in range(traj.tau_idx, traj.n_steps + 1):
            assert np.array_equal(traj.eta_star[n], traj.eta_star[traj.tau_idx])


class TestEtaStarInterpolant:
    def test_v_star_is_slope_of_eta_star_linear(self):
        # through the collapse: while theta=1 the slope matches v_half to
        # roundoff; after the freeze it is exactly zero, bitwise
        prob = make_problem(
            domain={"L": 4.0, "R": 1.0, "nz": 8, "nr": 4},
            physics={"delta": 0.25, "s": 1.55},
            time={"T": 4.0, "N": 64},
            pressure={"kind": "constant", "P_in": -8.0, "P_out": -8.0},
            initial={"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                     "u0": {"kind": "zero"}},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1},
        )
        traj = run_path(prob, 0)
        assert traj.tau_idx < traj.n_steps
        for n in range(traj.n_steps):
            slope = (traj.eta_star[n + 1] - traj.eta_star[n]) / traj.dt
            star = traj.ledger.theta[n] * traj.v_half[n]
            if traj.ledger.theta[n] == 0:
                assert np.all(slope == 0.0)
                assert np.all(star == 0.0)
            else:
                scale = max(np.abs(traj.eta_star[n]).max() / traj.dt, 1.0)
                assert np.abs(slope - star).max() <= 1e-10 * scale
