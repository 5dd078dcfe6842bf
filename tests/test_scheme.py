import contextlib
import dataclasses
import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import cho_solve, cho_solve_banded, cholesky_banded, lapack
from scipy.sparse._base import _spbase

import oracle_dense as od
from conftest import make_config, make_problem
from stochfsi import scheme
from stochfsi.cli import build_problem
from stochfsi.diagnostics import (
    combined_step_violations,
    structure_identity_residuals,
    summed_inequality_violations,
    write_ledger_csv,
)
from stochfsi.discretization import (
    StructureSpace,
    assemble_advection,
    assemble_all,
    build_spaces,
)
from stochfsi.errors import InitialDataError, PicardDivergence, SolverFailure
from stochfsi.geometry import ReferenceDomain
from stochfsi.noise import NoiseSpec, sample_path
from stochfsi.scheme import (
    EnergyLedger,
    SchemeParams,
    State,
    fluid_step,
    run_path,
    step,
    structure_step,
    trace_dissipation_constant,
    update_cutoff,
)


def tiny_spaces(nz=2, nr=2, L=1.0, R=1.0):
    return build_spaces(ReferenceDomain(L=L, R=R, nz=nz, nr=nr))


def factored_matrices(monkeypatch):
    """The list of every matrix scheme hands to spla.splu from now on."""
    seen, splu = [], scheme.spla.splu

    def recording(A, *args, **kwargs):
        seen.append(A.copy())
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scheme.spla, "splu", recording)
    return seen


def solved_matrices(monkeypatch):
    """The list of every matrix data array scheme hands to _refine or to a
    factorization (``CoupledLayout.factor_matrix``) from now on, as passed
    (not copied)."""
    seen, refine = [], scheme._refine
    factor_matrix = scheme.CoupledLayout.factor_matrix

    def recording(layout, A, *args, **kwargs):
        seen.append(A)
        return refine(layout, A, *args, **kwargs)

    def recording_factor(layout, A):
        seen.append(A)
        return factor_matrix(layout, A)

    monkeypatch.setattr(scheme, "_refine", recording)
    monkeypatch.setattr(scheme.CoupledLayout, "factor_matrix", recording_factor)
    return seen


def sparse_constructions(monkeypatch):
    """The list that gains the class name of every scipy sparse matrix or
    array constructed from now on: each format's constructor runs
    ``_spbase.__init__``."""
    made, init = [], _spbase.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", counting)
    return made


def trace_form_data(params, forms):
    """The trace constant's dissipation form nu*K + P/eps on the fluid pattern."""
    return params.nu * forms.K + (1.0 / params.epsilon) * forms.P


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
        forms = assemble_all(fl, lay, prof)
        S = st.S
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

    @pytest.mark.parametrize("nz", [2, 4, 8, 32])
    def test_solve_is_cho_solve(self, nz, rng):
        # LAPACK's dpotrs, called directly, is the routine cho_solve runs
        fl, st, lay = tiny_spaces(nz, 2)
        dt = 0.05
        for _ in range(5):
            eta, v = rng.normal(size=(2, st.n_free))
            _, vh = structure_step(eta, v, dt, st)
            want = cho_solve(st.step_factor(dt), st.M @ v - dt * (st.S @ eta))
            assert np.array_equal(vh, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_raises(self, bad):
        # a named error, not the bare ValueError of scipy's finiteness check
        # nor numpy's warning on an inf times a zero of the beam matrices;
        # 1e308 is finite, but the right-hand side overflows
        fl, st, lay = tiny_spaces(4, 2)
        eta = np.zeros(st.n_free)
        eta[0] = bad
        with pytest.raises(SolverFailure, match="^structure solve produced non-finite values"):
            structure_step(eta, np.zeros(st.n_free), 0.1, st)

    def test_one_element_beam_has_nothing_to_solve(self):
        fl, st, lay = tiny_spaces(1, 1)
        eh, vh = structure_step(np.zeros(0), np.zeros(0), 0.1, st)
        assert eh.shape == vh.shape == (0,)


class TestCutoff:
    def _setup(self):
        # 8 wall elements, R = 1, delta = 0.1, s = 1.75
        prob = make_problem(initial={"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                                     "u0": {"kind": "zero"}})
        return prob, np.zeros(prob.structure.n_free)

    def test_admissible_candidate_accepted(self):
        prob, zero = self._setup()
        candidate = 0.01 * np.ones_like(zero)
        theta, eta_star, gap, hs = update_cutoff(1, zero, candidate,
                                                 prob.structure.profile(candidate), prob)
        assert theta == 1
        assert gap > prob.params.delta and hs < 1.0 / prob.params.delta
        assert np.array_equal(eta_star, candidate)
        _, _, gap, hs = update_cutoff(1, zero, zero, prob.structure.profile(zero), prob)
        assert gap == pytest.approx(1.0)
        assert hs == pytest.approx(1.0, abs=1e-12)

    def test_gap_violation_freezes(self):
        prob, good = self._setup()
        st = prob.structure
        bad = np.zeros(st.n_free)
        bad[st.free.tolist().index(2 * (st.n_el // 2))] = -0.95  # min gap 0.05
        theta, eta_star, gap, _ = update_cutoff(1, good, bad, st.profile(bad), prob)
        assert gap == pytest.approx(0.05, abs=1e-12)
        assert theta == 0
        assert eta_star is good

    def test_flag_monotone_after_drop(self):
        prob, frozen = self._setup()
        candidate = 0.01 * np.ones_like(frozen)
        theta, eta_star, _, _ = update_cutoff(0, frozen, candidate,
                                              prob.structure.profile(candidate), prob)
        assert theta == 0
        assert eta_star is frozen


class TestFluidStep:
    def _params(self, dt=0.01, eps=1e-3, nu=1.0):
        return SchemeParams(nu=nu, delta=0.1, epsilon=eps, dt=dt)

    def test_zero_data_one_iteration(self):
        fl, st, lay = tiny_spaces(2, 2)
        prof = st.profile(np.zeros(st.n_free))
        forms = assemble_all(fl, lay, prof)
        u, v, stats, _, _ = fluid_step(fl, lay, forms, forms.M_eta, self._params(),
                                       np.zeros(fl.n_free), np.zeros(st.n_free),
                                       np.zeros(st.n_free), 0.0, 0.0, 0.0)
        assert np.all(u == 0.0) and np.all(v == 0.0)
        assert stats["picard_iters"] == 1

    @pytest.mark.parametrize("nz,nr", [(1, 1), (2, 2), (4, 2), (3, 3)])
    def test_dense_mirror_equivalence(self, nz, nr, rng):
        L = R = 1.0
        fl, st, lay = tiny_spaces(nz, nr)
        eta_n = 0.05 * rng.uniform(-1, 1, st.n_free) if st.n_free else np.zeros(0)
        eta_np1 = eta_n + 0.02 * rng.uniform(-1, 1, st.n_free) if st.n_free else eta_n
        forms = assemble_all(fl, lay, st.profile(eta_n))
        M_next = assemble_all(fl, lay, st.profile(eta_np1)).M_eta
        params = self._params()
        u_n = 0.5 * rng.normal(size=fl.n_free)
        v_n = 0.3 * rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2] if st.n_free else u_n[lay.shared_free]
        v_half = 0.2 * rng.normal(size=st.n_free) if st.n_free else np.zeros(0)
        spec = NoiseSpec(K=2, q=np.array([1.0, 0.5]),
                         amplitude=np.array([0.3, 0.1]), seed=4)
        dW = np.array([0.05, -0.02])
        xi = float(spec.amplitude @ dW)
        u1, v1, stats, _, _ = fluid_step(fl, lay, forms, M_next, params, u_n, v_n, v_half,
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
        forms = assemble_all(fl, lay, prof)
        calls = []

        def counting(*args):
            calls.append(1)
            return assemble_advection(*args)

        monkeypatch.setattr(scheme, "assemble_advection", counting)
        u_n = rng.normal(size=fl.n_free)
        v_n = rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2]
        stats = fluid_step(fl, lay, forms, forms.M_eta, self._params(), u_n, v_n, v_n,
                           0.0, 1.0, 0.0)[2]
        assert stats["picard_iters"] > 1
        assert len(calls) == 1

    def _random_4x2_step(self, rng, params):
        """Stats of one fluid step from a random compatible state on a
        random 4x2 wall."""
        fl, st, lay = tiny_spaces(4, 2)
        forms = assemble_all(fl, lay, st.profile(0.05 * rng.uniform(-1, 1, st.n_free)))
        u_n = rng.normal(size=fl.n_free)
        v_n = rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2]
        return fluid_step(fl, lay, forms, forms.M_eta, params, u_n, v_n, v_n, 0.0, 1.0, 0.0)[2]

    def test_one_factorization_per_step(self, rng, monkeypatch):
        factored = factored_matrices(monkeypatch)
        stats = self._random_4x2_step(rng, self._params())
        assert stats["picard_iters"] > 1
        assert len(factored) == 1 and stats["lu_factors"] == 1
        assert stats["solve_berr"] <= 1e-15

    def test_stale_factor_refactors(self, rng, monkeypatch):
        # strong advection (the probe's dt 0.5, nu 1e-3) moves the later
        # iterates' matrices far enough from the first that a refinement
        # sweep stops halving the backward error; each such iterate is
        # refactored and still solved to SOLVE_BERR
        factored = factored_matrices(monkeypatch)
        stats = self._random_4x2_step(rng, self._solve_case("stale", monkeypatch))
        assert 1 < stats["lu_factors"] == len(factored) < stats["picard_iters"]
        assert stats["solve_berr"] <= 1e-15

    # the suite's 4x2 step, and the stale-factor case above, with their
    # Picard budgets
    _SOLVE_CASES = {"suite": (SchemeParams(nu=1.0, delta=0.1, epsilon=1e-3, dt=0.01),
                              scheme.MAX_PICARD),
                    "stale": (SchemeParams(nu=1e-3, delta=0.1, epsilon=1e-3, dt=0.5), 200)}

    def _solve_case(self, case, monkeypatch):
        """The parameters of a _SOLVE_CASES case, with its budget set."""
        params, budget = self._SOLVE_CASES[case]
        monkeypatch.setattr(scheme, "MAX_PICARD", budget)
        return params

    @pytest.mark.parametrize("case", sorted(_SOLVE_CASES))
    def test_one_coupled_matrix_per_step(self, case, rng, monkeypatch):
        # every solve of the step, a refinement or a factorization, uses one
        # matrix array, which each iterate writes in place
        matrices = solved_matrices(monkeypatch)
        stats = self._random_4x2_step(rng, self._solve_case(case, monkeypatch))
        assert stats["picard_iters"] > 2
        assert len(matrices) >= stats["picard_iters"]
        assert all(A is matrices[0] for A in matrices)

    @pytest.mark.parametrize("case", sorted(_SOLVE_CASES))
    def test_one_sweep_per_intermediate_iterate(self, case, rng, monkeypatch):
        # one solve per iterate (a direct solve or a sweep), one more per
        # refactor, and the returned iterate's refinement to SOLVE_BERR
        solves, splu = [], scheme.spla.splu

        class Counting:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                solves.append(1)
                return self.lu.solve(b)

        monkeypatch.setattr(scheme.spla, "splu", lambda *a, **k: Counting(splu(*a, **k)))
        stats = self._random_4x2_step(rng, self._solve_case(case, monkeypatch))
        assert stats["picard_iters"] > 2
        assert len(solves) <= stats["picard_iters"] + 2
        assert stats["solve_berr"] <= 1e-15

    @pytest.mark.parametrize("case", sorted(_SOLVE_CASES))
    def test_scipy_matrices_only_for_the_factors(self, case, rng, monkeypatch):
        # assembly builds no scipy sparse object, and neither does a fluid
        # step: its factorizations reuse the layout's one matrix
        made = sparse_constructions(monkeypatch)
        fl, st, lay = tiny_spaces(4, 2)
        made.clear()
        forms = assemble_all(fl, lay, st.profile(0.05 * rng.uniform(-1, 1, st.n_free)))
        assert made == []
        u_n = rng.normal(size=fl.n_free)
        v_n = rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2]
        stats = fluid_step(fl, lay, forms, forms.M_eta, self._solve_case(case, monkeypatch),
                           u_n, v_n, v_n, 0.0, 1.0, 0.0)[2]
        assert stats["picard_iters"] > 2 and stats["lu_factors"] >= 1
        assert made == []

    @pytest.mark.parametrize("tol", [1e-10, 1e-4])
    def test_returned_iterate_solves_its_own_system(self, tol, rng, monkeypatch):
        # each iterate rewrites the step's matrix in place, so after the step
        # it holds the returned iterate's frozen-transport system; at a loose
        # Picard tolerance the last sweep alone leaves a larger backward error
        matrices = solved_matrices(monkeypatch)
        fl, st, lay = tiny_spaces(4, 2)
        forms = assemble_all(fl, lay, st.profile(0.05 * rng.uniform(-1, 1, st.n_free)))
        u_n = rng.normal(size=fl.n_free)
        v_n = rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2]
        monkeypatch.setattr(scheme, "TOL_PICARD", tol)
        params = SchemeParams(nu=1.0, delta=0.1, epsilon=1e-3, dt=0.01)
        u, v, stats, _, _ = fluid_step(fl, lay, forms, forms.M_eta, params, u_n, v_n, v_n,
                                       0.0, 1.0, 0.0)
        assert stats["picard_iters"] > 1
        assert all(A is matrices[0] for A in matrices)
        berr = self._own_system_berr(lay, forms, params, u_n, v_n, matrices[-1], u, v)
        assert berr <= 1e-15 and stats["solve_berr"] <= 1e-15

    @staticmethod
    def _own_system_berr(lay, forms, params, u_n, v_n, A_data, u, v):
        """Normwise backward error of the returned (u, v) in the system of
        a step from (u_n, v_n) with v_half = v_n, xi 0, P_in 1 and P_out 0,
        whose matrix has the data ``A_data``."""
        fl, st = lay.fluid, lay.structure
        rhs = np.zeros(lay.n_x)
        rhs[:fl.n_free] = lay.csr(forms.M_eta) @ u_n + params.dt * fl.flux_in
        rhs[lay.beam_to_x] += st.M @ v_n
        x = np.zeros(lay.n_x)
        x[:fl.n_free] = u
        x[lay.beam_to_x] = v
        A = lay.csc(A_data)
        return np.abs(rhs - A @ x).max() / (
            abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())

    @staticmethod
    def _compatible_state(rng, fl, st, lay):
        """A random fluid state and wall velocity that agree at the shared DOFs."""
        u_n = rng.normal(size=fl.n_free)
        v_n = rng.normal(size=st.n_free)
        u_n[lay.shared_free] = v_n[0::2]
        return u_n, v_n

    def test_same_geometry_reuses_the_factor_and_map(self, rng, monkeypatch):
        # a step on the geometry the handed-in factor and advection map were
        # made on (a frozen eta*): the step's own matrix differs from the
        # factored one only in its transport field, so refinement sweeps
        # solve every iterate and nothing is rebuilt
        fl, st, lay = tiny_spaces(4, 2)
        forms = assemble_all(fl, lay, st.profile(0.05 * rng.uniform(-1, 1, st.n_free)))
        params = self._params()
        u_n, v_n = self._compatible_state(rng, fl, st, lay)
        u, v, _, adv, lu = fluid_step(fl, lay, forms, forms.M_eta, params, u_n, v_n, v_n,
                                      0.0, 1.0, 0.0)
        factored, built = factored_matrices(monkeypatch), []
        monkeypatch.setattr(scheme, "assemble_advection", lambda *a: built.append(a))
        _, _, stats, adv1, lu1 = fluid_step(fl, lay, forms, forms.M_eta, params, u, v, v,
                                            0.0, 1.0, 0.0, adv, lu)
        assert stats["picard_iters"] > 1 and stats["lu_factors"] == 0 and factored == []
        assert built == [] and adv1 is adv and lu1 is lu
        assert stats["solve_berr"] <= 1e-15

    def test_stale_handed_in_factor_refactors(self, rng, monkeypatch):
        # a factor of another wall's matrix: its sweeps stall, so the step
        # refactors on its own matrix, returns that factor and refines the
        # returned iterate to SOLVE_BERR in its own system
        fl, st, lay = tiny_spaces(4, 2)
        params = self._params()
        u_n, v_n = self._compatible_state(rng, fl, st, lay)
        flat = assemble_all(fl, lay, st.profile(np.zeros(st.n_free)))
        *_, stale = fluid_step(fl, lay, flat, flat.M_eta, params, u_n, v_n, v_n, 0.0, 1.0, 0.0)
        forms = assemble_all(fl, lay, st.profile(0.3 * rng.uniform(-1, 1, st.n_free)))
        factored, matrices = factored_matrices(monkeypatch), solved_matrices(monkeypatch)
        u, v, stats, _, lu = fluid_step(fl, lay, forms, forms.M_eta, params, u_n, v_n, v_n,
                                        0.0, 1.0, 0.0, None, stale)
        assert stats["lu_factors"] == len(factored) >= 1 and lu is not stale
        berr = self._own_system_berr(lay, forms, params, u_n, v_n, matrices[-1], u, v)
        assert berr <= 1e-15 and stats["solve_berr"] <= 1e-15

    @pytest.mark.parametrize("regime", ["suite", "probe"])
    @pytest.mark.parametrize("nz,nr", [(1, 1), (2, 2), (4, 2), (3, 3)])
    def test_coupled_symmetric_part_spd(self, nz, nr, regime, rng, monkeypatch):
        # the premise of factoring without pivoting (notes/decisions.md): the
        # symmetric part of the coupled matrix is SPD, for a random transport
        # field, at the suite's dt/eps/nu and at the probe's dt 0.5, nu 1e-3
        prm = make_problem().params
        dt, nu = (prm.dt, prm.nu) if regime == "suite" else (0.5, 1e-3)
        params = SchemeParams(nu=nu, delta=prm.delta, epsilon=prm.epsilon, dt=dt)
        monkeypatch.setattr(scheme, "MAX_PICARD", 1)
        fl, st, lay = tiny_spaces(nz, nr)
        forms = assemble_all(fl, lay, st.profile(0.05 * rng.uniform(-1, 1, st.n_free)))
        factored = factored_matrices(monkeypatch)
        v_half = rng.normal(size=st.n_free)
        with contextlib.suppress(PicardDivergence):
            fluid_step(fl, lay, forms, forms.M_eta, params, rng.normal(size=fl.n_free),
                       v_half, v_half, 0.0, 1.0, 0.0)
        A = factored[0].toarray()
        assert np.linalg.eigvalsh(0.5 * (A + A.T)).min() > 0

    def _trace_case(self, mesh, rng):
        """Spaces, parameters and level forms of a trace-constant test: the
        default problem's, or a random wall on an nz x nr mesh."""
        if mesh == "default":
            prob = make_problem()
            fl, st, lay, params = prob.fluid, prob.structure, prob.layout, prob.params
            eta = prob.eta0
        else:
            fl, st, lay = tiny_spaces(*map(int, mesh.split("x")))
            params, eta = self._params(), 0.05 * rng.uniform(-1, 1, st.n_free)
        return lay, params, assemble_all(fl, lay, st.profile(eta))

    @pytest.mark.parametrize("mesh", ["4x2", "3x3", "default"])
    def test_trace_form_bitwise_symmetric(self, mesh, rng):
        # the banded Cholesky reads only the lower triangle of nu*K + P/eps,
        # which is the whole matrix only because it is bitwise symmetric
        lay, params, forms = self._trace_case(mesh, rng)
        A = lay.csr(trace_form_data(params, forms))
        assert (A != A.T).nnz == 0

    @pytest.mark.parametrize("mesh", ["4x2", "3x3", "default", "2x5"])
    def test_trace_constant_dense_oracle(self, mesh, rng):
        # the top eigenvalue of the flux Gram F^T A^{-1} F, solved densely
        lay, params, forms = self._trace_case(mesh, rng)
        A = lay.csr(trace_form_data(params, forms))
        F = np.stack([lay.fluid.flux_in, lay.fluid.flux_out], axis=1)
        top = np.linalg.eigvalsh(F.T @ np.linalg.solve(A.toarray(), F)).max()
        assert trace_dissipation_constant(lay, forms, params) == pytest.approx(top, rel=1e-10)

    @pytest.mark.parametrize("mesh", ["4x2", "3x3", "default", "2x5"])
    def test_trace_band_follows_short_direction(self, mesh, rng):
        lay, params, forms = self._trace_case(mesh, rng)
        fl = lay.fluid
        assert lay.band_width <= 2 * (min(fl.nz, fl.nr) + 2)
        # the band holds the whole lower triangle of the permuted form
        data = trace_form_data(params, forms)
        band = lay.lower_band(data)
        A = lay.csr(data).toarray()[np.ix_(lay.band_perm, lay.band_perm)]
        for k in range(lay.band_width + 1):
            assert np.array_equal(band[k, :fl.n_free - k], np.diag(A, -k))
        assert np.all(np.tril(A, -lay.band_width - 1) == 0.0)

    @pytest.mark.parametrize("mesh", ["4x2", "3x3", "default", "2x5", "32x16"])
    def test_trace_cholesky_is_scipy_banded_cholesky(self, mesh, rng):
        # LAPACK's dpbtrf and dpbtrs, called directly, are the routines
        # cholesky_banded and cho_solve_banded run
        lay, params, forms = self._trace_case(mesh, rng)
        band = lay.lower_band(trace_form_data(params, forms))
        factor = cholesky_banded(band, lower=True)
        assert np.array_equal(lapack.dpbtrf(band, lower=1)[0], factor)
        F = np.stack([lay.fluid.flux_in, lay.fluid.flux_out], axis=1)[lay.band_perm]
        G = cho_solve_banded((factor, True), F)
        assert np.array_equal(lapack.dpbtrs(factor, F, lower=1)[0], G)
        (a, b), (_, c) = F.T @ G
        assert trace_dissipation_constant(lay, forms, params) == \
            (a + c) / 2 + np.hypot((a - c) / 2, b)

    @pytest.mark.parametrize("mesh", ["4x2", "3x3", "default", "2x5", "32x16"])
    def test_band_flux_is_the_stacked_flux_pair(self, mesh, rng):
        # the layout keeps the stack the trace constant once built per call
        # (the test above checks the constant against it bit for bit),
        # read-only since every call shares it
        lay, params, forms = self._trace_case(mesh, rng)
        F = np.stack([lay.fluid.flux_in, lay.fluid.flux_out], axis=1)[lay.band_perm]
        assert np.array_equal(lay.band_flux, F) and not lay.band_flux.flags.writeable

    def test_trace_constant_indefinite_names_the_routine(self, rng):
        lay, params, forms = self._trace_case("4x2", rng)
        with pytest.raises(SolverFailure, match=r"dpbtrf info [1-9][0-9]*$"):
            trace_dissipation_constant(lay, dataclasses.replace(forms, P=-forms.P), params)

    @pytest.mark.parametrize("flaw", ["indefinite", "non-finite"])
    def test_trace_constant_bad_form_raises(self, flaw, rng):
        lay, params, forms = self._trace_case("4x2", rng)
        if flaw == "indefinite":
            forms = dataclasses.replace(forms, P=-forms.P)
        else:
            K = forms.K.copy()
            K[0] = np.nan
            forms = dataclasses.replace(forms, K=K)
        with pytest.raises(SolverFailure, match="^trace-constant solve failed: "):
            trace_dissipation_constant(lay, forms, params)

    def test_picard_divergence_raises(self, rng, monkeypatch):
        fl, st, lay = tiny_spaces(4, 2)
        prof = st.profile(np.zeros(st.n_free))
        forms = assemble_all(fl, lay, prof)
        params = SchemeParams(nu=1e-4, delta=0.1, epsilon=1.0, dt=0.5)
        monkeypatch.setattr(scheme, "MAX_PICARD", 1)
        u_n = 50.0 * rng.normal(size=fl.n_free)
        with pytest.raises(PicardDivergence):
            fluid_step(fl, lay, forms, forms.M_eta, params, u_n, np.zeros(st.n_free),
                       np.zeros(st.n_free), 0.0, 0.0, 0.0)

    def test_trace_constant_positive(self):
        fl, st, lay = tiny_spaces(4, 2)
        prof = st.profile(np.zeros(st.n_free))
        forms = assemble_all(fl, lay, prof)
        c = trace_dissipation_constant(lay, forms, self._params())
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
        assert np.all(traj.ledger.picard_rel <= scheme.TOL_PICARD)

    def test_every_fluid_solve_to_backward_error(self):
        led = run_path(make_problem(), 0).ledger
        assert np.all(led.solve_berr <= 1e-15)
        assert np.all(led.lu_factors >= 1)

    def test_scipy_matrices_only_for_the_factors(self, monkeypatch):
        # forms, trace constants, the ledger and the factorizations of the
        # fluid solves build no scipy sparse object
        prob = make_problem()
        made = sparse_constructions(monkeypatch)
        led = run_path(prob, 0).ledger
        assert led.lu_factors.sum() > 0 and made == []

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

    def test_xi_is_the_amplitude_against_the_step_increment(self):
        # step n's forcing coefficient, re-derived from a fresh draw of the
        # path's increments and never through NoisePath.xi: a scheme that
        # read another step's increment would force with the wrong law
        prob = make_problem(domain={"nz": 4, "nr": 2}, time={"T": 0.25, "N": 8},
                            noise={"K": 3, "q": [1.0, 0.5, 0.25],
                                   "amplitude": [0.6, -0.4, 0.3], "seed": 7})
        spec = prob.noise
        for i in range(4):
            traj = run_path(prob, i)
            increments = sample_path(spec, prob.N, prob.params.dt, i).increments
            want = np.array([float(spec.amplitude @ increments[n]) for n in range(prob.N)])
            assert traj.n_steps == prob.N
            assert traj.ledger.xi.tobytes() == want.tobytes()


class TestStepKernel:
    def _rows(self, traj):
        led = traj.ledger
        names = [f.name for f in fields(EnergyLedger) if f.name != "E"]
        return [{**{name: getattr(led, name)[n] for name in names}, "E_next": led.E[n + 1]}
                for n in range(traj.n_steps)]

    def test_rows_rebuild_the_ledger(self):
        traj = run_path(make_problem(time={"T": 0.125, "N": 4}), 0)
        rebuilt = EnergyLedger.from_rows(traj.ledger.E[0], self._rows(traj))
        for f in fields(EnergyLedger):
            want, got = getattr(traj.ledger, f.name), getattr(rebuilt, f.name)
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name

    def test_row_with_missing_or_extra_key_raises(self):
        traj = run_path(make_problem(time={"T": 0.125, "N": 4}), 0)
        missing = self._rows(traj)
        del missing[2]["xi"]
        with pytest.raises(ValueError, match=r"ledger row 2: keys \['xi'\]"):
            EnergyLedger.from_rows(0.0, missing)
        extra = self._rows(traj)
        extra[0]["E"] = 1.0
        with pytest.raises(ValueError, match=r"ledger row 0: keys \['E'\]"):
            EnergyLedger.from_rows(0.0, extra)

    def test_csv_columns_are_the_step_row(self, tmp_path):
        # the header is step, t, the ledger fields in field order, E_next;
        # past step and t it names exactly a step row's keys and E
        prob = make_problem(time={"T": 0.125, "N": 4})
        start = State(prob.u0, prob.v0, prob.eta0, prob.eta0, 1,
                      *scheme.level_forms(prob, prob.structure.profile(prob.eta0)))
        noise = sample_path(prob.noise, prob.N, prob.params.dt, 0)
        _, row = step(prob, start, 0, noise)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(str(path), run_path(prob, 0))
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["step", "t", *(f.name for f in fields(EnergyLedger)), "E_next"]
        assert set(header[2:]) == {*row, "E"} and len(header) == len(row) + 3

    def test_one_wall_profile_per_step(self, monkeypatch):
        # the candidate's profile serves both the band check and, as theta
        # stays 1, the assembly of the next level's forms
        prob = make_problem(time={"T": 0.125, "N": 4})
        start = State(prob.u0, prob.v0, prob.eta0, prob.eta0, 1,
                      *scheme.level_forms(prob, prob.structure.profile(prob.eta0)))
        noise = sample_path(prob.noise, prob.N, prob.params.dt, 0)
        built, assembled, profile = [], [], StructureSpace.profile

        def counting(structure, vec):
            built.append(profile(structure, vec))
            return built[-1]

        def recording(fluid, layout, wall):
            assembled.append(wall)
            return assemble_all(fluid, layout, wall)

        monkeypatch.setattr(StructureSpace, "profile", counting)
        monkeypatch.setattr(scheme, "assemble_all", recording)
        state, _ = step(prob, start, 0, noise)
        assert state.theta == 1
        assert len(built) == 1 and assembled == built
        assert np.array_equal(built[0].vals[1:-1], state.eta[0::2])

    def test_energy_is_its_levels_energy(self):
        # E[n] is the energy of level n measured with the M_eta of that
        # level's own assembly, bit for bit: the energies telescope exactly
        prob = make_problem()
        traj = run_path(prob, 0)
        fl, st = prob.fluid, prob.structure
        for n in range(traj.n_steps + 1):
            M_eta = assemble_all(fl, prob.layout, st.profile(traj.eta_star[n])).M_eta
            want = scheme.energy(prob.layout, M_eta, traj.u[n], traj.v[n], traj.eta[n])
            assert traj.ledger.E[n] == want, n

    def test_one_earlier_forms_alive_per_assembly(self, monkeypatch):
        # the path history keeps arrays, never a state: at each assembly
        # only the forms of the current level may still be alive
        refs, alive = [], []

        def counting(*args):
            count = sum(r() is not None for r in refs)
            if count > 1:  # reference cycles only go at collection
                gc.collect()
                count = sum(r() is not None for r in refs)
            alive.append(count)
            forms = assemble_all(*args)
            refs.append(weakref.ref(forms))
            return forms

        monkeypatch.setattr(scheme, "assemble_all", counting)
        prob = make_problem()
        traj = run_path(prob, 0)
        assert not traj.stopped and len(alive) == prob.N + 1
        assert alive[0] == 0 and max(alive) == 1


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

    def test_continues_past_stop_by_default(self):
        prob = self._suction_problem()
        traj = run_path(prob, 0)
        assert traj.n_steps == prob.N

    def test_forms_assembled_until_the_drop(self, monkeypatch):
        # level 0 and every level eta* moves to: tau_idx assemblies on a
        # stopped path (the frozen level's forms serve the rest), N + 1 on a
        # path that never stops
        import stochfsi.scheme as scheme

        calls = []

        def counting(*args):
            calls.append(1)
            return assemble_all(*args)

        monkeypatch.setattr(scheme, "assemble_all", counting)
        for prob, stops in ((self._suction_problem(), True), (make_problem(), False)):
            calls.clear()
            traj = run_path(prob, 0)
            assert traj.stopped == stops and traj.n_steps == prob.N
            assert len(calls) == (traj.tau_idx if stops else prob.N + 1)

    def _states(self, prob, monkeypatch):
        """The path's ledger and the state each of its steps returned."""
        states, step_ = [], scheme.step

        def recording(*args):
            out = step_(*args)
            states.append(out[0])
            return out

        monkeypatch.setattr(scheme, "step", recording)
        return run_path(prob, 0).ledger, states

    def test_frozen_steps_reuse_the_factor(self):
        # once theta drops the fluid matrix's geometry is the last step's:
        # the frozen steps refine with the carried factor instead of
        # factoring each step, and every ledger check still holds
        prob = self._suction_problem()
        traj = run_path(prob, 0)
        led, delta = traj.ledger, prob.params.delta
        assert traj.stopped and np.all(led.solve_berr <= 1e-15)
        assert structure_identity_residuals(traj).max() <= 1e-9
        for sharp in (True, False):
            assert combined_step_violations(traj, delta, sharp=sharp).max() <= 1e-9
            assert summed_inequality_violations(traj, delta, sharp=sharp).max() <= 1e-9
        frozen = led.lu_factors[traj.tau_idx:]  # the rows after the dropping one
        assert frozen.size > 0 and frozen.sum() < frozen.size

    def test_operator_kept_only_while_frozen(self, monkeypatch):
        # a state carries the advection map and factor exactly when its
        # theta is 0; a path that never stops holds neither and factors on
        # every step
        _, states = self._states(self._suction_problem(), monkeypatch)
        assert [s.factor is not None for s in states] == [s.theta == 0 for s in states]
        assert [s.advection is not None for s in states] == [s.theta == 0 for s in states]
        monkeypatch.undo()
        led, states = self._states(make_problem(), monkeypatch)
        assert all(s.theta == 1 and s.factor is None and s.advection is None for s in states)
        assert np.all(led.lu_factors >= 1)

    def test_frozen_steps_build_no_advection_map(self, monkeypatch):
        # the advection map is built by the steps up to the dropping one
        # and carried by every later step
        calls = []

        def counting(*args):
            calls.append(1)
            return assemble_advection(*args)

        monkeypatch.setattr(scheme, "assemble_advection", counting)
        traj = run_path(self._suction_problem(), 0)
        assert traj.tau_idx < traj.n_steps and len(calls) == traj.tau_idx

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
        # through the collapse: while theta=1 eta* is the wall, so the slope
        # of its interpolant is the wall's, bitwise (the half-step wall
        # velocity to roundoff, see TestStructureStep); after the freeze it
        # is exactly zero, bitwise
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
            if traj.ledger.theta[n] == 0:
                assert np.all(slope == 0.0)
            else:
                assert np.array_equal(slope, (traj.eta[n + 1] - traj.eta[n]) / traj.dt)
