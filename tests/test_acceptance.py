"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Criterion 4 is implemented exactly as stated
and is expected to fail red: the measured divergence-vs-epsilon slope is
~1 (the penalty solve resolves the constraint to O(eps) whenever the
discrete multiplier is bounded), which satisfies the underlying
uniform-boundedness lemma with margin but sits outside the stated
[0.35, 0.65] window.  The companion test directly verifies the lemma's
boundedness statement, which holds.
"""

import numpy as np
import pytest

import oracle_dense as od
from conftest import make_config, make_problem, sweep_table
from stochfsi import scheme
from stochfsi.cli import build_problem
from stochfsi.diagnostics import (
    combined_step_violations,
    ensemble_run,
    fluid_inequality_violations,
    ledger_positivity_min,
    stochastic_error,
    structure_identity_residuals,
    summed_inequality_violations,
)
from stochfsi.discretization import assemble_all, build_spaces, element_mass
from stochfsi.geometry import ReferenceDomain
from stochfsi.noise import NoiseSpec, sample_path
from stochfsi.scheme import SchemeParams, fluid_step, run_path, structure_step

TOL_ROUNDOFF = 1e-9  # normalized roundoff floor for inequality slack


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}  {detail}")
    return ok


# shared noisy ensemble for criteria 1-3, 9b and the invariants ----------------

_NOISY_KW = dict(
    domain={"nz": 4, "nr": 2},
    time={"T": 0.5, "N": 16},
    pressure={"kind": "constant", "P_in": 1.0, "P_out": 0.5},
    initial={"eta0": {"kind": "sine2", "amplitude": 0.1},
             "v0": {"kind": "sine2", "amplitude": 0.2},
             "u0": {"kind": "parabolic", "amplitude": 0.5}},
    noise={"K": 3, "q": [1.0, 0.25, 1.0 / 9.0], "amplitude": [1.0, 0.5, 0.3],
           "seed": 321},
)

_cache = {}


def noisy_trajectories(M=64):
    """Paths 0..M-1 of the noisy scenario; its first 256 paths, the most any
    test reads, run once per session."""
    if "noisy" not in _cache:
        prob = make_problem(**_NOISY_KW)
        _cache["noisy"] = [run_path(prob, i) for i in range(256)]
    return _cache["noisy"][:M]


def test_criterion_01_structure_energy_identity():
    """E^{n+1/2} + C1 = E^n to 1e-11 relative, every step of 100 paths."""
    worst = 0.0
    for traj in noisy_trajectories(100):
        worst = max(worst, float(structure_identity_residuals(traj).max()))
    ok = worst <= 1e-11
    assert _report(1, "structure energy identity", ok, f"max rel residual {worst:.3e}")


def test_criterion_02_fluid_energy_inequality():
    """Per-step fluid estimate holds with explicit constants on 64 noisy
    paths, in the sharp pre-absorption form and the classical form."""
    worst_sharp = -np.inf
    worst_classical = -np.inf
    for traj in noisy_trajectories():
        worst_sharp = max(worst_sharp, float(fluid_inequality_violations(traj, 0.1).max()))
        worst_classical = max(worst_classical, float(
            fluid_inequality_violations(traj, 0.1, sharp=False).max()))
    ok = worst_sharp <= TOL_ROUNDOFF and worst_classical <= TOL_ROUNDOFF
    assert _report(2, "fluid energy inequality", ok,
                   f"max violation sharp {worst_sharp:.3e}, classical {worst_classical:.3e}")


def test_criterion_03_summed_pathwise_inequality():
    """Summed estimate holds for every horizon m <= N on the same ensemble."""
    worst = -np.inf
    for traj in noisy_trajectories():
        worst = max(worst, float(summed_inequality_violations(traj, 0.1).max()))
        worst = max(worst, float(
            summed_inequality_violations(traj, 0.1, sharp=False).max()))
        worst = max(worst, float(combined_step_violations(traj, 0.1).max()))
    ok = worst <= TOL_ROUNDOFF
    assert _report(3, "summed pathwise inequality", ok, f"max violation {worst:.3e}")


def _epsilon_sweep():
    if "eps_sweep" not in _cache:
        cfg = make_config(
            domain={"nz": 8, "nr": 4}, time={"T": 0.5, "N": 32},
            pressure={"kind": "constant", "P_in": 1.0, "P_out": 0.0},
            initial={"eta0": {"kind": "sine2", "amplitude": 0.15},
                     "v0": {"kind": "zero"},
                     "u0": {"kind": "parabolic", "amplitude": 1.0}},
            noise={"K": 0, "q": [], "amplitude": [], "seed": 1},
            run={"M": 1, "mode": "sweep", "sweep_axis": "epsilon",
                 "sweep_values": [1e-2, 1e-3, 1e-4]},
        )
        _cache["eps_sweep"] = sweep_table(cfg, build_problem(cfg))
    return _cache["eps_sweep"]


def test_criterion_04_companion_divergence_uniformly_bounded():
    """The substance behind criterion 4: (1/sqrt(eps)) ||div u|| stays
    bounded (here: decreasing) as eps drops, uniformly over the sweep."""
    rows, _ = _epsilon_sweep()
    scaled = [row["div_l2t"] / np.sqrt(row["value"]) for row in rows]
    ok = bool(all(np.isfinite(scaled))
              and all(b <= a * (1 + 1e-6) for a, b in zip(scaled[:-1], scaled[1:])))
    assert _report(4, "penalty residual uniformly bounded (lemma substance)", ok,
                   "(1/sqrt(eps))||div||: " + ", ".join(f"{s:.3e}" for s in scaled))


def test_criterion_04_penalty_scaling_slope():
    """Literal criterion: log-log slope of ||div|| vs eps in [0.35, 0.65].

    Expected to FAIL red: the measured slope is ~1 because the discrete
    penalty solve drives div to O(eps) whenever the limiting problem has a
    bounded discrete multiplier, which every desk-scale scenario here
    does.  The sqrt(eps) rate would require the multiplier to blow up
    like 1/sqrt(eps); the energy bound (the lemma actually proved) is an
    upper bound and is verified with margin by the companion test.  See
    the decisions ledger for the full analysis.
    """
    _, slope = _epsilon_sweep()
    ok = slope is not None and 0.35 <= slope <= 0.65
    _report(4, "penalty scaling slope in [0.35, 0.65] (literal)", ok,
            f"measured slope {slope:.3f}")
    assert ok, (
        f"measured div-vs-eps slope {slope:.3f} lies outside [0.35, 0.65]: "
        "the scheme satisfies the divergence bound at a better-than-required "
        "rate (div ~ eps); see notes/decisions.md"
    )


def test_criterion_05_uniform_in_N_energy_bound():
    """E[max_n E^n] varies by at most 1.2x across N in {32,64,128,256}
    under common random numbers (dyadic noise coupling)."""
    base = dict(
        domain={"nz": 4, "nr": 2}, physics={"epsilon": 1e-3},
        pressure={"kind": "constant", "P_in": 1.0, "P_out": 0.0},
        initial={"eta0": {"kind": "sine2", "amplitude": 0.1},
                 "v0": {"kind": "zero"},
                 "u0": {"kind": "parabolic", "amplitude": 0.5}},
        noise={"K": 3, "q": [1.0, 0.25, 1.0 / 9.0], "amplitude": [1.0, 0.5, 0.3],
               "seed": 99},
    )
    means = []
    for N in (32, 64, 128, 256):
        cfg = make_config(time={"T": 0.5, "N": N}, **base)
        rep = ensemble_run(build_problem(cfg), 16)
        means.append(rep.stats["max_E"]["mean"])
    ratios = [means[i + 1] / means[i] for i in range(len(means) - 1)]
    ok = all(1 / 1.2 <= r <= 1.2 for r in ratios)
    assert _report(5, "uniform-in-N energy bound", ok,
                   "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_06_stochastic_error_first_order():
    """Ensemble-mean int ||E_N||^2 decays ~ dt: fitted slope vs N within
    [-1.3, -0.7] over N in {16,32,64,128}, same Wiener path per index."""
    base = dict(
        domain={"nz": 4, "nr": 2},
        pressure={"kind": "constant", "P_in": 1.0, "P_out": 0.0},
        initial={"eta0": {"kind": "sine2", "amplitude": 0.1},
                 "v0": {"kind": "zero"},
                 "u0": {"kind": "parabolic", "amplitude": 0.5}},
        noise={"K": 3, "q": [1.0, 0.25, 1.0 / 9.0], "amplitude": [1.0, 0.5, 0.3],
               "seed": 7},
    )
    Ns = (16, 32, 64, 128)
    means = []
    for N in Ns:
        prob = build_problem(make_config(time={"T": 0.125, "N": N}, **base))
        vals = [stochastic_error(run_path(prob, p), 8) for p in range(16)]
        means.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(Ns), np.log(means), 1)[0])
    ok = -1.3 <= slope <= -0.7
    assert _report(6, "stochastic discretization error ~ dt", ok,
                   f"fitted slope {slope:.3f}")


def test_criterion_07_noise_statistics():
    """Per-mode variance of 10^4 increments inside 3-sigma chi^2 bands of
    dt*q_k; sample means within 3 sigma of zero."""
    q = np.array([1.0, 1 / 4, 1 / 9, 1 / 16])
    spec = NoiseSpec(K=4, q=q, amplitude=np.zeros(4), seed=2024)
    N, dt = 10_000, 0.01
    path = sample_path(spec, N, dt)
    var = path.increments.var(axis=0, ddof=1)
    mean = path.increments.mean(axis=0)
    target = dt * q
    var_ok = np.all(np.abs(var - target) <= 3 * np.sqrt(2.0 / N) * target)
    mean_ok = np.all(np.abs(mean) <= 3 * np.sqrt(target / N))
    ok = bool(var_ok and mean_ok)
    assert _report(7, "noise increment statistics", ok,
                   f"max var dev {np.abs(var/target - 1).max():.3f} of 3s band "
                   f"{3*np.sqrt(2/N):.3f}")


def test_criterion_08_deterministic_reduction_and_temporal_order():
    """(a) zero noise amplitude: runs are bit-identical across seeds;
    (b) first-order convergence to an N=1024 reference on a smooth
    deterministic scenario, fitted order within [0.7, 1.3]."""
    base = dict(
        domain={"L": 2.0, "nz": 4, "nr": 2},
        pressure={"kind": "half-sine", "amplitude": 1.0, "duration": 0.25,
                  "side": "in"},
        initial={"eta0": {"kind": "sine2", "amplitude": 0.1},
                 "v0": {"kind": "zero"},
                 "u0": {"kind": "parabolic", "amplitude": 0.5}},
    )
    kw1 = dict(base, noise={"K": 2, "q": [1.0, 0.5], "amplitude": [0.0, 0.0],
                            "seed": 1}, time={"T": 0.5, "N": 64})
    kw2 = dict(base, noise={"K": 2, "q": [1.0, 0.5], "amplitude": [0.0, 0.0],
                            "seed": 424242}, time={"T": 0.5, "N": 64})
    t1 = run_path(make_problem(**kw1), 0)
    t2 = run_path(make_problem(**kw2), 0)
    bit_ok = (np.array_equal(t1.u, t2.u) and np.array_equal(t1.eta, t2.eta)
              and np.array_equal(t1.ledger.E, t2.ledger.E))

    det = dict(base, noise={"K": 0, "q": [], "amplitude": [], "seed": 1})
    prob_ref = build_problem(make_config(time={"T": 0.5, "N": 1024}, **det))
    ref = run_path(prob_ref, 0)
    fl, st = prob_ref.fluid, prob_ref.structure
    lay = prob_ref.layout
    G_u = lay.csr(lay.scalar_data(element_mass(fl, np.ones_like(fl.q_full.z))))
    S = st.S

    def err(traj):
        du = traj.u[-1] - ref.u[-1]
        dv = traj.v[-1] - ref.v[-1]
        de = traj.eta[-1] - ref.eta[-1]
        return float(np.sqrt(du @ (G_u @ du) + dv @ (st.M @ dv) + de @ (S @ de)))

    Ns = (32, 64, 128, 256)
    errs = [err(run_path(build_problem(make_config(time={"T": 0.5, "N": N}, **det)), 0))
            for N in Ns]
    order = float(-np.polyfit(np.log(Ns), np.log(errs), 1)[0])
    ok = bool(bit_ok and 0.7 <= order <= 1.3)
    assert _report(8, "deterministic reduction + temporal order", ok,
                   f"bit-identical {bit_ok}, fitted order {order:.3f}")


def test_criterion_09_cutoff_and_stopping_semantics():
    """theta drops exactly at the first admissibility violation, eta*
    freezes, tau is reported; admissible scenarios never stop."""
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
    stopped_inside = 0 < traj.tau_idx < prob.N
    # independent recheck of the first violating displacement
    zs = np.linspace(0.0, 4.0, 8001)
    first_bad = None
    for k in range(traj.n_steps + 1):
        profile = prob.structure.profile(traj.eta[k])
        gap = 1.0 + float(profile.value(zs).min())
        hs = prob.hs_form.norm(traj.eta[k], 1.0)
        if first_bad is None and not (gap > 0.25 and hs < 1.0 / 0.25):
            first_bad = k
    drop_exact = first_bad == traj.tau_idx
    frozen = all(np.array_equal(traj.eta_star[n], traj.eta_star[traj.tau_idx])
                 for n in range(traj.tau_idx, traj.n_steps + 1))
    monotone = bool(np.all(np.diff(traj.ledger.theta) <= 0))

    all_positive = all(t.tau_idx > 0 for t in noisy_trajectories())
    ok = bool(stopped_inside and drop_exact and frozen and monotone and all_positive)
    assert _report(9, "cutoff / stopping-time semantics", ok,
                   f"tau_idx {traj.tau_idx}, first violation {first_bad}, "
                   f"admissible paths all tau>0: {all_positive}")


def test_criterion_10_dense_oracle_equivalence(rng, monkeypatch):
    """Every assembled operator and both substeps match the independent
    dense mirror to 1e-10 relative on the 1x1 and 2x2 meshes."""
    monkeypatch.setattr(scheme, "TOL_PICARD", 1e-12)  # the mirror's Picard tolerance
    worst = 0.0
    for nz, nr in ((1, 1), (2, 2)):
        L = R = 1.0
        fl, st, lay = build_spaces(ReferenceDomain(L=L, R=R, nz=nz, nr=nr))
        eta = 0.1 * rng.uniform(-1, 1, st.n_free) if st.n_free else np.zeros(0)
        eta2 = eta + (0.03 * rng.uniform(-1, 1, st.n_free) if st.n_free else 0.0)
        forms = assemble_all(fl, lay, st.profile(eta))
        df = od.DenseFluid(L, R, nz, nr)
        prof = st.profile(eta)

        def rel(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if a.size == 0:
                return 0.0
            scale = max(np.abs(b).max(), 1e-30)
            return float(np.abs(a - b).max() / scale)

        worst = max(worst, rel(
            lay.csr(forms.M_eta).toarray(),
            od.dense_weighted_mass(df, lambda z: R + float(prof.value(z)))[
                np.ix_(df.free, df.free)]))
        worst = max(worst, rel(
            lay.csr(forms.K).toarray(),
            od.dense_viscous(df, lambda z: float(prof.value(z)),
                             lambda z: float(prof.slope(z)))[np.ix_(df.free, df.free)]))
        worst = max(worst, rel(
            lay.csr(forms.P).toarray(),
            od.dense_penalty(df, lambda z: float(prof.value(z)),
                             lambda z: float(prof.slope(z)))[np.ix_(df.free, df.free)]))
        M_o, S1_o, S2_o, free_o = od.dense_structure(L, nz)
        worst = max(worst, rel(st.M, M_o[np.ix_(free_o, free_o)]))
        worst = max(worst, rel(st.S, (S1_o + S2_o)[np.ix_(free_o, free_o)]))

        # substeps
        if st.n_free:
            eta_s = 0.3 * rng.normal(size=st.n_free)
            v_s = 0.3 * rng.normal(size=st.n_free)
            eh, vh = structure_step(eta_s, v_s, 0.05, st)
            eh_o, vh_o = od.mirror_structure_step(L, nz, eta_s, v_s, 0.05)
            worst = max(worst, rel(eh, eh_o), rel(vh, vh_o))

        params = SchemeParams(nu=1.0, delta=0.1, epsilon=1e-3, dt=0.01)
        spec = NoiseSpec(K=2, q=np.array([1.0, 0.5]),
                         amplitude=np.array([0.3, 0.1]), seed=4)
        dW = np.array([0.05, -0.02])
        u_n = 0.5 * rng.normal(size=fl.n_free)
        v_n = 0.3 * rng.normal(size=st.n_free)
        if st.n_free:
            u_n[lay.shared_free] = v_n[0::2]
        v_half = 0.2 * rng.normal(size=st.n_free)
        xi = float(spec.amplitude @ dW)
        M_next = assemble_all(fl, lay, st.profile(eta2)).M_eta
        u1, v1, _, _, _ = fluid_step(fl, lay, forms, M_next, params, u_n, v_n, v_half,
                                     xi, 1.0, 0.0)
        u1_o, v1_o = od.mirror_fluid_step(
            L, R, nz, nr, eta, eta2, u_n, v_n, v_half,
            xi, 1.0, 0.0, params.nu, params.epsilon,
            params.dt)
        worst = max(worst, rel(u1, u1_o))
        if v1.size:
            worst = max(worst, rel(v1, v1_o))
    ok = worst <= 1e-10
    assert _report(10, "dense-oracle equivalence", ok, f"max rel dev {worst:.3e}")


def test_criterion_11_zero_fixed_point():
    """Zero data produce the identically zero trajectory."""
    prob = make_problem(
        pressure={"kind": "constant", "P_in": 0.0, "P_out": 0.0},
        initial={"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                 "u0": {"kind": "zero"}},
        noise={"K": 0, "q": [], "amplitude": [], "seed": 1},
    )
    traj = run_path(prob, 0)
    led = traj.ledger
    worst = max(np.abs(traj.u).max(), np.abs(traj.v).max(), np.abs(traj.eta).max(),
                np.abs(led.E).max(), np.abs(led.D).max(), np.abs(led.C1).max(),
                np.abs(led.C2).max(), np.abs(led.div_residual).max(),
                np.abs(led.stoch_work).max())
    ok = worst <= 1e-12
    assert _report(11, "zero fixed point", ok, f"max |state| {worst:.3e}")


def test_extra_ledger_positivity():
    """Every ledger energy/dissipation entry >= -1e-14 over the ensemble."""
    worst = min(ledger_positivity_min(t) for t in noisy_trajectories())
    assert _report(0, "ledger positivity (invariant)", worst >= -1e-14,
                   f"min entry {worst:.3e}")


def test_extra_martingale_increment_surrogate():
    """Across M=256 paths, per-step sample means of the stochastic work
    stay within 3 standard errors of zero (with a tiny absolute floor for
    the early steps where the work is nearly deterministic-zero)."""
    W = np.vstack([traj.ledger.stoch_work for traj in noisy_trajectories(256)])
    M = W.shape[0]
    means = W.mean(axis=0)
    sems = W.std(axis=0, ddof=1) / np.sqrt(M)
    ok = bool(np.all(np.abs(means) <= 3 * sems + 1e-12))
    assert _report(0, "martingale increment surrogate (invariant)", ok,
                   f"max |mean|/sem {np.max(np.abs(means) / np.maximum(sems, 1e-300)):.2f}")
