import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracle_dense as od
from conftest import DIVERGING, make_config, make_problem, sweep_table
from stochfsi import diagnostics, scheme
from stochfsi.cli import build_problem, parse_config
from stochfsi.diagnostics import (
    TOL_LEDGER,
    combined_step_violations,
    ensemble_run,
    ledger_positivity_min,
    ledger_violations,
    stochastic_error,
    structure_identity_residuals,
    summed_inequality_violations,
    tightness_diagnostic,
    time_shift_norm,
)
from stochfsi.discretization import assemble_all, build_spaces, element_mass
from stochfsi.errors import (
    ConfigError,
    DegenerateJacobian,
    InitialDataError,
    PicardDivergence,
    SolverFailure,
)
from stochfsi.geometry import ReferenceDomain, WallProfile
from stochfsi.noise import NoiseSpec, sample_path
from stochfsi.scheme import EnergyLedger, Trajectory, energy, run_path


class TestEnergy:
    def _forms(self, nz, nr):
        fl, st, lay = build_spaces(ReferenceDomain(L=1.0, R=1.0, nz=nz, nr=nr))
        prof = st.profile(np.zeros(st.n_free))
        return fl, st, lay, assemble_all(fl, lay, prof)

    def test_zero_state(self):
        fl, st, lay, forms = self._forms(2, 2)
        assert energy(lay, forms.M_eta, np.zeros(fl.n_free), np.zeros(st.n_free),
                      np.zeros(st.n_free)) == 0.0

    def test_uniform_axial_field_half_c_squared_L(self):
        # u == (c, 0) on every node, masks ignored: E = 1/2 c^2 L; evaluated
        # through the element blocks of the weighted mass, summed over cells
        fl, st, lay, forms = self._forms(4, 3)
        blocks = element_mass(fl, fl.wall_samples(st.profile(np.zeros(st.n_free)), 1.0)[0])
        c = 0.7
        E = 0.5 * c * c * float(blocks.sum())
        assert E == pytest.approx(0.5 * c * c * 1.0, rel=1e-13)

    def test_random_state_matches_dense_oracle(self, rng):
        fl, st, lay, forms = self._forms(2, 2)
        u = rng.normal(size=fl.n_free)
        v = rng.normal(size=st.n_free)
        eta = rng.normal(size=st.n_free)
        ours = energy(lay, forms.M_eta, u, v, eta)

        df = od.DenseFluid(1.0, 1.0, 2, 2)
        M_o = od.dense_weighted_mass(df, lambda z: 1.0)[np.ix_(df.free, df.free)]
        M_so, S1_o, S2_o, free_o = od.dense_structure(1.0, 2)
        Ms_o = M_so[np.ix_(free_o, free_o)]
        S_o = (S1_o + S2_o)[np.ix_(free_o, free_o)]
        mirror = 0.5 * (u @ M_o @ u + v @ Ms_o @ v + eta @ S_o @ eta)
        assert ours == pytest.approx(mirror, rel=1e-12)


def time_shift_norm_oracle(dt, values, gram, h):
    """time_shift_norm as it was before its closed form: the integrand is
    piecewise constant between the merged breakpoints {k dt} u {k dt + h},
    clipped to [h, T], T = n dt, and each piece adds its length times the
    squared difference at its midpoint."""
    n = values.shape[0]
    T = n * dt
    breaks = np.concatenate([np.arange(n + 1) * dt, np.arange(n + 1) * dt + h])
    breaks = np.unique(np.clip(breaks, h, T))
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a <= 0:
            continue
        tm = 0.5 * (a + b)
        i1 = min(int(tm / dt), n - 1)
        i0 = min(int((tm - h) / dt), n - 1)
        if i0 == i1:
            continue
        d = values[i1] - values[i0]
        total += (b - a) * float(d @ (gram @ d))
    return total


class TestTimeShiftNorm:
    def test_closed_form_matches_breakpoint_oracle(self):
        # random n, dt and h, a quarter each with h uniform in (0, T), h an
        # integer multiple of dt, h in the last step (the sum S_n is empty)
        # and n of 1 or 2; the Gram matrix is dense or scipy sparse.  h stays
        # at least dt/20 below T: the oracle clips at the rounded T = n dt,
        # which moves its integral by O(eps T), not small against T - h < dt.
        rng = np.random.default_rng(29)
        kinds = np.zeros(4, dtype=int)
        for k in range(2000):
            kind = k % 4
            n = int(rng.integers(1, 3)) if kind == 3 else int(rng.integers(2, 17))
            dt = float(rng.uniform(1e-3, 2.0))
            dim = int(rng.integers(1, 5))
            values = rng.normal(size=(n, dim))
            A = rng.normal(size=(dim, dim))
            gram = A @ A.T + np.eye(dim)
            T = n * dt
            if kind == 1:
                h = int(rng.integers(1, n)) * dt
            elif kind == 2:
                h = T - rng.uniform(0.05, 0.5) * dt
            else:
                h = rng.uniform(0.0, T)
            if not 0 < h < T:
                continue
            kinds[kind] += 1
            got = time_shift_norm(dt, values, sp.csr_matrix(gram) if k % 2 else gram, h)
            want = time_shift_norm_oracle(dt, values, gram, h)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (k, n, dt, h)
        assert kinds.min() >= 490

    def test_constant_trajectory_is_zero(self):
        vals = np.tile(np.array([1.0, 2.0]), (10, 1))
        G = np.eye(2)
        for h in (0.05, 0.13, 0.4):
            assert time_shift_norm(0.1, vals, G, h) == 0.0

    def test_single_jump_gives_h_d_squared(self):
        # jump of L2 size d at t* = 0.5: shifted/unshifted differ exactly on
        # a window of length h
        dt, n = 0.1, 10
        vals = np.zeros((n, 1))
        vals[5:] = 3.0
        G = np.eye(1)
        for h in (0.04, 0.1, 0.23):
            assert time_shift_norm(dt, vals, G, h) == pytest.approx(h * 9.0, abs=1e-14)

    def test_matches_fine_grid_quadrature(self, rng):
        dt, n = 0.125, 8
        dim = 3
        vals = rng.normal(size=(n, dim))
        G = np.eye(dim)
        h = 1.5 * dt
        T = n * dt
        exact = time_shift_norm(dt, vals, G, h)
        # brute-force midpoint rule on a grid of dt/100
        m = int(round(T / (dt / 100)))
        ts = (np.arange(m) + 0.5) * (dt / 100)
        acc = 0.0
        for t in ts:
            if t < h:
                continue
            i1 = min(int(t / dt), n - 1)
            i0 = min(int((t - h) / dt), n - 1)
            d = vals[i1] - vals[i0]
            acc += (dt / 100) * float(d @ d)
        assert exact == pytest.approx(acc, rel=1e-10)

    def test_h_out_of_range(self):
        with pytest.raises(ConfigError):
            time_shift_norm(0.1, np.zeros((4, 1)), np.eye(1), 0.5)


class TestTightness:
    def test_zero_trajectory_zero_diagnostic(self):
        prob = make_problem(
            pressure={"kind": "constant", "P_in": 0.0, "P_out": 0.0},
            initial={"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                     "u0": {"kind": "zero"}},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1})
        traj = run_path(prob, 0)
        fl, lay = prob.fluid, prob.layout
        prof = prob.structure.profile(np.zeros(prob.structure.n_free))
        G_u = lay.csr(lay.scalar_data(element_mass(fl, fl.wall_samples(prof, 1.0)[0] * 0 + 1.0)))
        out = tightness_diagnostic(traj, G_u, prob.structure.M, k_max=4)
        assert out["sup_scaled"] == 0.0

    def test_noisy_trajectory_finite(self):
        prob = make_problem()
        traj = run_path(prob, 0)
        fl, lay = prob.fluid, prob.layout
        prof = prob.structure.profile(np.zeros(prob.structure.n_free))
        ones = fl.wall_samples(prof, 1.0)[0] * 0 + 1.0
        G_u = lay.csr(lay.scalar_data(element_mass(fl, ones)))
        out = tightness_diagnostic(traj, G_u, prob.structure.M, k_max=4)
        assert np.isfinite(out["sup_scaled"]) and out["sup_scaled"] > 0


def synthetic_one_step_trajectory(spec, dt, state_sq, path_index):
    """Trajectory shell carrying only what stochastic_error consumes."""
    path = sample_path(spec, 1, dt, path_index)
    row = {f.name: 0.0 for f in fields(EnergyLedger) if f.name != "E"}
    row.update(theta=1, picard_iters=0, E_next=0.0, g_state_sq=state_sq,
               xi=float(spec.amplitude @ path.increments[0]))
    led = EnergyLedger.from_rows(0.0, [row])
    z = np.zeros((2, 1))
    return Trajectory(dt=dt, n_steps=1, u=z, v=z, eta=z, eta_star=z, ledger=led, noise=path)


class TestStochasticError:
    def test_zero_amplitude_zero_error(self):
        prob = make_problem(noise={"K": 2, "q": [1.0, 0.5],
                                   "amplitude": [0.0, 0.0], "seed": 3})
        traj = run_path(prob, 0)
        assert stochastic_error(traj, 4) == 0.0

    def test_refinement_validation(self):
        prob = make_problem()
        traj = run_path(prob, 0)
        with pytest.raises(ConfigError):
            stochastic_error(traj, 1)

    def test_single_step_closed_form_pieces(self):
        """Per step, E_N splits into the ramp part (t/dt) G dW, whose time
        integral is exactly xi^2 dt/3, and the running integral part with
        Ito mean dt^2/2 per unit ||Phi||^2; their correlated sum has mean
        sigma^2 dt^2 / 6.  The ramp piece is checked exactly per path, the
        total in expectation."""
        dt = 0.2
        S = 1.7  # frozen squared state norm
        spec = NoiseSpec(K=2, q=np.array([1.0, 0.25]),
                         amplitude=np.array([1.0, 0.8]), seed=77)
        sigma_sq = spec.phi_hs_sq
        r = 64
        jfrac = np.arange(r + 1) / r

        ramp_exact_ok = True
        totals = []
        for p in range(600):
            traj = synthetic_one_step_trajectory(spec, dt, S, p)
            xi = traj.ledger.xi[0]
            ramp = np.trapezoid((jfrac * xi) ** 2, dx=dt / r)
            if abs(ramp - xi * xi * dt / 3) > 1e-3 * max(xi * xi * dt / 3, 1e-30):
                ramp_exact_ok = False
            totals.append(stochastic_error(traj, r))
        assert ramp_exact_ok
        totals = np.asarray(totals)
        target = S * sigma_sq * dt * dt / 6
        sem = totals.std(ddof=1) / np.sqrt(totals.size)
        assert abs(totals.mean() - target) <= 4 * sem + 0.01 * target

    def test_mean_halves_when_steps_double(self):
        # ensemble mean of the defect integral scales like dt
        spec_kw = {"K": 2, "q": [1.0, 0.25], "amplitude": [1.0, 0.5], "seed": 5}
        means = []
        for N in (8, 16):
            vals = []
            for p in range(48):
                prob = make_problem(time={"T": 0.5, "N": N},
                                    noise=dict(spec_kw),
                                    domain={"nz": 4, "nr": 2})
                traj = run_path(prob, p)
                vals.append(stochastic_error(traj, 8))
            means.append(np.mean(vals))
        ratio = means[0] / means[1]
        assert 1.4 <= ratio <= 2.9


class TestEnsemble:
    def test_single_zero_path_reports_zero(self):
        prob = make_problem(
            pressure={"kind": "constant", "P_in": 0.0, "P_out": 0.0},
            initial={"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                     "u0": {"kind": "zero"}},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1})
        rep = ensemble_run(prob, 1)
        assert rep.stats["max_E"]["mean"] == 0.0
        assert rep.stats["sum_D"]["mean"] == 0.0
        assert rep.frac_stopped == 0.0
        assert rep.failures == []

    def test_same_master_seed_bit_identical_report(self):
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 8})
        r1 = ensemble_run(prob, 6)
        r2 = ensemble_run(prob, 6)
        assert r1.to_dict() == r2.to_dict()

    def test_statistical_reproducibility_across_master_seeds(self):
        # mean total dissipation from one master seed lies inside the other
        # run's 95 percent band (seeds fixed; checked to pass, not tuned)
        base = dict(domain={"nz": 4, "nr": 2}, time={"T": 0.5, "N": 8})
        r1 = ensemble_run(make_problem(**base, noise={"K": 2, "q": [1.0, 0.25],
                                                      "amplitude": [1.0, 0.5],
                                                      "seed": 11}), 64)
        r2 = ensemble_run(make_problem(**base, noise={"K": 2, "q": [1.0, 0.25],
                                                      "amplitude": [1.0, 0.5],
                                                      "seed": 2222}), 64)
        m1, m2 = r1.stats["sum_D"]["mean"], r2.stats["sum_D"]["mean"]
        band = r1.stats["sum_D"]["ci95"] + r2.stats["sum_D"]["ci95"]
        assert abs(m1 - m2) <= band

    def test_rejects_bad_path_count(self):
        with pytest.raises(ConfigError):
            ensemble_run(make_problem(), 0)


class TestSweep:
    def test_single_value_sweep_equals_ensemble(self):
        cfg = make_config(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 8},
                          run={"M": 4, "sweep_axis": "epsilon", "sweep_values": [1e-3]})
        prob = build_problem(cfg)
        rows, slope = sweep_table(cfg, prob)
        assert len(rows) == 1
        assert rows[0]["failed"] == 0
        assert slope is None
        rep = ensemble_run(prob, 4)
        assert rows[0]["max_E_mean"] == pytest.approx(rep.stats["max_E"]["mean"])
        assert rows[0]["div_l2t"] == pytest.approx(
            np.sqrt(rep.stats["div_sq_int"]["mean"]))

    def test_axis_validation(self):
        # the sweep's axis and values are checked when the config is parsed
        for run, field in (({"sweep_axis": "nu", "sweep_values": [1.0]}, "run.sweep_axis"),
                           ({"sweep_axis": "N", "sweep_values": [32, 16, 64]},
                            "run.sweep_values")):
            with pytest.raises(ConfigError, match=f"^{field}: "):
                make_config(run=run)


class TestLedgerChecks:
    def test_positivity_on_noisy_paths(self):
        prob = make_problem()
        for i in range(4):
            traj = run_path(prob, i)
            assert ledger_positivity_min(traj) >= -1e-14

    def test_structure_identity_small(self):
        traj = run_path(make_problem(), 0)
        assert structure_identity_residuals(traj).max() <= 1e-11

    def test_ledger_violations_are_the_worst_of_each_check(self):
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 8})
        traj, delta = run_path(prob, 0), prob.params.delta
        checks = {"structure_identity": structure_identity_residuals(traj)}
        for name, check in (("step", combined_step_violations),
                            ("summed", summed_inequality_violations)):
            checks[f"{name}_sharp"] = check(traj, delta, sharp=True)
            checks[f"{name}_classical"] = check(traj, delta, sharp=False)
        worst = ledger_violations(traj, delta)
        assert worst == {name: float(a.max()) for name, a in checks.items()}
        assert all(v <= TOL_LEDGER for v in worst.values())
        traj.ledger.C1[3] += 1e-6 * max(1.0, traj.ledger.E[3])
        assert ledger_violations(traj, delta)["structure_identity"] > TOL_LEDGER


class TestMoreCoverage:
    def test_deterministic_summed_inequality(self):
        # positive constant inlet pressure, no noise: the summed estimate
        # holds with the stochastic terms identically zero
        prob = make_problem(
            pressure={"kind": "constant", "P_in": 1.0, "P_out": 0.0},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1})
        traj = run_path(prob, 0)
        led = traj.ledger
        assert np.all(led.stoch_work == 0.0) and np.all(led.S_bound == 0.0)
        from stochfsi.diagnostics import summed_inequality_violations
        assert summed_inequality_violations(traj, 0.1).max() <= 1e-9
        assert summed_inequality_violations(traj, 0.1, sharp=False).max() <= 1e-9

    def test_sweep_over_N_axis(self):
        cfg = make_config(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 8},
                          run={"M": 2, "sweep_axis": "N", "sweep_values": [8, 16]})
        rows, _ = sweep_table(cfg, build_problem(cfg))
        assert len(rows) == 2
        assert all(np.isfinite(row["max_E_mean"]) for row in rows)

    def test_thread_count_does_not_change_results(self, monkeypatch, tmp_path):
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 8})
        reports = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("STOCHFSI_THREADS", threads)
            (tmp_path / threads).mkdir()
            reports[threads] = ensemble_run(prob, 4, ledger_dir=str(tmp_path / threads))
        assert reports["1"].to_dict() == reports["2"].to_dict()
        for i in range(4):
            name = f"ledger_{i:04d}.csv"
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_ensemble_records_failures_without_aborting(self):
        rep = ensemble_run(build_problem(parse_config(DIVERGING)), 3)
        assert len(rep.failures) == 3
        assert all("PicardDivergence" in f["error"] for f in rep.failures)
        # with no surviving path no statistic is defined
        assert rep.frac_stopped is None and rep.mean_tau is None
        for summary in rep.stats.values():
            assert summary == {"mean": None, "var": None, "ci95": None, "n": 0}

    def test_statistics_over_surviving_paths(self):
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 8})
        one = ensemble_run(prob, 1)
        assert one.stats["sum_D"]["n"] == 1 and one.stats["sum_D"]["mean"] is not None
        assert one.stats["sum_D"]["var"] is None and one.stats["sum_D"]["ci95"] is None
        xs = np.array([run_path(prob, i).ledger.D.sum() for i in range(3)])
        s = ensemble_run(prob, 3).stats["sum_D"]
        assert s["n"] == 3 and s["mean"] == xs.mean() and s["var"] == xs.var(ddof=1)
        assert s["ci95"] == 1.96 * np.sqrt(xs.var(ddof=1) / 3)

    @pytest.mark.parametrize("M,want", [(3, [3]), (1, [])])
    def test_workers_never_outnumber_paths(self, monkeypatch, M, want):
        # a pool starts all its workers at once, so 64 threads for M paths
        # ask for M workers, and one path starts no pool; the fake pool
        # records the count and maps in this process
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", FakePool)
        monkeypatch.setenv("STOCHFSI_THREADS", "64")
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 4})
        assert len(ensemble_run(prob, M).failures) == 0
        assert pools == want

    def test_non_integer_thread_count_is_config_error(self, monkeypatch):
        monkeypatch.setenv("STOCHFSI_THREADS", "abc")
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 4})
        with pytest.raises(ConfigError,
                           match="STOCHFSI_THREADS: must be an integer, got 'abc'"):
            ensemble_run(prob, 1)

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_thread_count_below_one_is_config_error(self, monkeypatch, raw):
        # a count that starts no worker is refused, not run serially
        monkeypatch.setenv("STOCHFSI_THREADS", raw)
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 4})
        with pytest.raises(ConfigError,
                           match=f"STOCHFSI_THREADS: must be an integer >= 1, got '{raw}'"):
            ensemble_run(prob, 1)

    def test_degenerate_jacobian_recorded_per_path(self, monkeypatch, tmp_path):
        # assembly sees the wall sunk below the axis, so the pull-back
        # raises DegenerateJacobian; each path records it and writes no ledger
        real = scheme.assemble_all

        def sunk(fl, lay, prof):
            return real(fl, lay, WallProfile(prof.L, prof.vals - 2.0, prof.slopes))

        monkeypatch.setattr(scheme, "assemble_all", sunk)
        monkeypatch.delenv("STOCHFSI_THREADS", raising=False)
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 4})
        rep = ensemble_run(prob, 2, ledger_dir=str(tmp_path))
        assert [f["path"] for f in rep.failures] == [0, 1]
        assert all(f["error"].startswith("DegenerateJacobian") for f in rep.failures)
        assert list(tmp_path.iterdir()) == []


def _uniform(draw, lo, hi):
    return draw(hst.floats(lo, hi))


def _wall_spec(draw, scale):
    kind = draw(hst.sampled_from(["zero", "bump", "sine2"]))
    return {"kind": kind} if kind == "zero" else {"kind": kind,
                                                  "amplitude": _uniform(draw, -scale, scale)}


@hst.composite
def probe_configs(draw):
    """A small config over the robustness probe's ranges: every initial
    kind, constant or half-sine pressure, 0 to 3 noise modes."""
    if draw(hst.booleans()):
        pressure = {"kind": "constant", "P_in": _uniform(draw, -20, 20),
                    "P_out": _uniform(draw, -20, 20)}
    else:
        pressure = {"kind": "half-sine", "amplitude": _uniform(draw, -20, 20),
                    "side": draw(hst.sampled_from(["in", "out"]))}
    u0 = draw(hst.sampled_from([{"kind": "zero"}, {"kind": "parabolic"}]))
    if u0["kind"] == "parabolic":
        u0["amplitude"] = _uniform(draw, -2, 2)
    K = draw(hst.integers(0, 3))
    return {
        "domain": {"L": draw(hst.sampled_from([0.5, 1.0, 4.0])),
                   "R": draw(hst.sampled_from([0.5, 1.0, 2.0])),
                   "nz": draw(hst.integers(1, 4)), "nr": draw(hst.integers(1, 3))},
        "physics": {"nu": 10 ** _uniform(draw, -3, 1), "epsilon": 10 ** _uniform(draw, -6, -1),
                    "delta": 10 ** _uniform(draw, -2, -0.3)},
        "time": {"T": 10 ** _uniform(draw, -2, 0.5), "N": draw(hst.sampled_from([1, 2, 4, 8]))},
        "pressure": pressure,
        "initial": {"eta0": _wall_spec(draw, 0.5), "v0": _wall_spec(draw, 1.0), "u0": u0},
        "noise": {"K": K, "q": [_uniform(draw, 0.01, 1) for _ in range(K)],
                  "amplitude": [_uniform(draw, -1, 1) for _ in range(K)],
                  "seed": draw(hst.integers(0, 2**32 - 1))},
    }


class TestProbeRanges:
    NAMED = (ConfigError, InitialDataError, PicardDivergence, SolverFailure, DegenerateJacobian)

    @settings(max_examples=300, deadline=None)
    @given(cfg=probe_configs())
    def test_path_passes_every_check_or_names_its_failure(self, cfg):
        # numpy's warnings are errors too: a path may only end in a named one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                problem = build_problem(parse_config(cfg))
                traj = run_path(problem, 0)
            except self.NAMED:
                return
            worst = ledger_violations(traj, problem.params.delta)
        assert all(v <= TOL_LEDGER for v in worst.values()), worst
