"""Lie splitting time loop for the penalized, stochastically forced model.

Per step, first the wall is advanced implicitly holding the fluid fixed
(structure substep), then the fluid and the wall velocity are advanced
together on the frozen artificial geometry (fluid substep).  The wall
velocity lives in the clamped Hermite space at every level; its interior
nodal values *are* the fluid's top-row vertical DOFs (kinematic coupling,
exact at the top-boundary nodes) and its nodal slopes are carried as
extra unknowns of the coupled solve.  Keeping one velocity space on both
sides of the splitting is what makes the scheme a consistent first-order
discretization: no step-wise projection between non-nested spaces.

The artificial displacement eta* follows the cutoff rule: a 0/1 flag
theta tracks whether every displacement so far stayed inside the
admissible band  inf(R+eta) > delta,  ||R+eta||_{H^s} < 1/delta;  once
any candidate leaves the band the flag drops for good and eta* freezes
at the last admissible displacement, so every fluid solve sees a
Jacobian bounded below by delta.

The fluid substep's nonlinearity (transport field u - v r e_r) is
resolved by Picard iteration on the frozen transport only.  Because the
assembled advection operator is skew for *any* frozen field, testing the
solved system with its own solution yields the discrete energy balance
exactly at every iterate, converged or not; the ledger records every
quantity appearing in that balance so the inequalities can be re-checked
offline, term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from .discretization import (
    AssembledForms,
    CoupledLayout,
    FluidSpace,
    HsForm,
    StructureSpace,
    assemble_advection,
    assemble_all,
)
from .errors import InitialDataError, PicardDivergence, SolverFailure
from .noise import NoisePath, NoiseSpec, sample_path, state_l2_sq


@dataclass
class SchemeParams:
    nu: float
    delta: float
    epsilon: float
    s: float
    dt: float
    tol_picard: float = 1e-10
    max_picard: int = 50


@dataclass
class PicardStats:
    iterations: int
    rel_update: float


@dataclass
class CutoffState:
    """Running cutoff flag and the frozen artificial displacement.

    theta is non-increasing along a trajectory; once it drops, eta_star
    never changes again and frozen_at records the index of the first
    inadmissible displacement.
    """

    theta: int
    eta_star: np.ndarray
    frozen_at: int | None
    delta: float


def update_cutoff(
    state: CutoffState,
    eta_candidate: np.ndarray,
    structure: StructureSpace,
    R: float,
    hs_form: HsForm,
    step: int | None = None,
):
    """Fold one candidate displacement into the cutoff history.

    Returns (new_state, min_gap, hs_value) where min_gap = inf_z (R+eta)
    computed exactly from the piecewise cubic and hs_value is the
    fractional Sobolev norm entering the admissibility band.
    """
    profile = structure.profile(eta_candidate)
    min_gap = R + profile.min_value()
    hs_value = hs_form.norm(eta_candidate, R)
    admissible = 1 if (min_gap > state.delta and hs_value < 1.0 / state.delta) else 0
    theta_new = min(state.theta, admissible)
    if theta_new == 1:
        return (
            CutoffState(1, np.array(eta_candidate, dtype=float, copy=True), None, state.delta),
            min_gap,
            hs_value,
        )
    frozen_at = state.frozen_at if state.frozen_at is not None else step
    return (
        CutoffState(0, state.eta_star, frozen_at, state.delta),
        min_gap,
        hs_value,
    )


def structure_step(eta: np.ndarray, v: np.ndarray, dt: float,
                   structure: StructureSpace):
    """Implicit wall update holding the fluid fixed.

    Substituting the displacement update eta_half = eta + dt*v_half into
    the velocity equation gives the SPD system

        (M_s + dt^2 (S1+S2)) v_half = M_s v - dt (S1+S2) eta.
    """
    S = structure.S1 + structure.S2
    A = structure.M + dt * dt * S
    b = structure.M @ v - dt * (S @ eta)
    try:
        v_half = cho_solve(cho_factor(A), b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - assembly corruption
        raise SolverFailure(f"structure solve failed: {exc}") from exc
    if not np.all(np.isfinite(v_half)):
        raise SolverFailure("structure solve produced non-finite values")
    eta_half = eta + dt * v_half
    return eta_half, v_half


def fluid_step(
    fluid: FluidSpace,
    layout: CoupledLayout,
    forms: AssembledForms,
    params: SchemeParams,
    u_n: np.ndarray,
    v_n: np.ndarray,
    v_half: np.ndarray,
    xi: float,
    P_in: float,
    P_out: float,
):
    """Coupled implicit fluid/wall-velocity solve on the frozen geometry.

    Unknown vector x = [fluid free DOFs | interior wall slopes]; the wall
    velocity block is tested with the Hermite functions, so the mass
    coupling is the beam mass embedded at the shared/slope positions.
    All fluid forms share one sparsity pattern, so each system matrix is
    arithmetic on their data arrays, placed on the layout's coupled one.
    Picard freezes the transport field a = u - v r e_r at the previous
    iterate; every other term is implicit.  The advection form is linear
    in a on the frozen geometry, so its map is built once per step and
    each iterate only applies it.  Initial iterate: u_n with the
    wall-velocity block overwritten by the half-step wall velocity.  The
    noise enters through the step's coefficient xi (``NoisePath.xi``).
    """
    dt = params.dt
    n_free, n_x = fluid.n_free, layout.n_x

    A_fluid = (forms.M_eta.data + 0.5 * forms.M_delta.data
               + params.nu * dt * forms.K.data
               + (dt / params.epsilon) * forms.P.data)
    M_norm = layout.coupled_csc(forms.M_eta.data)

    rhs = np.zeros(n_x)
    rhs[:n_free] = (1.0 + xi) * (forms.M_eta @ u_n) \
        + dt * (P_in * fluid.flux_in - P_out * fluid.flux_out)
    M_s = layout.structure.M
    rhs += layout.embed_beam_vector(M_s @ v_half)
    rhs += xi * layout.embed_beam_vector(M_s @ v_n)

    x = np.zeros(n_x)
    x[:n_free] = u_n
    x[layout.beam_to_x] = v_half

    adv = assemble_advection(fluid, forms)
    rel = np.inf
    for it in range(1, params.max_picard + 1):
        A = layout.coupled_csc(A_fluid + dt * layout.advection_data(adv, x))
        try:
            x_new = spla.splu(A).solve(rhs)
        except RuntimeError as exc:
            raise SolverFailure(f"fluid solve failed: {exc}") from exc
        if not np.all(np.isfinite(x_new)):
            raise SolverFailure("fluid solve produced non-finite values")
        d = x_new - x
        num = float(np.sqrt(max(d @ (M_norm @ d), 0.0)))
        den = float(np.sqrt(max(x_new @ (M_norm @ x_new), 0.0)))
        rel = num / max(den, 1e-30)
        x = x_new
        if rel <= params.tol_picard:
            return x[:n_free].copy(), layout.extract_v(x), PicardStats(it, rel)
    raise PicardDivergence(
        f"fluid Picard iteration did not converge: rel update {rel:.3e} "
        f"after {params.max_picard} iterations"
    )


def trace_dissipation_constant(fluid: FluidSpace, forms: AssembledForms,
                               params: SchemeParams) -> float:
    """Largest ratio of (inlet flux)^2 + (outlet flux)^2 to the dissipation
    rate form nu*K + (1/eps)*P over the free fluid space.

    The numerator is rank two, so the maximum is the top eigenvalue of the
    2x2 Gram matrix of the two flux functionals in the dissipation inner
    product - two sparse solves, computed once per assembly because the
    form moves with eta*.  Used to absorb the pressure work into half the
    dissipation with an explicit constant.
    """
    A = (params.nu * forms.K + (1.0 / params.epsilon) * forms.P).tocsc()
    try:
        lu = spla.splu(A)
        x_in = lu.solve(fluid.flux_in)
        x_out = lu.solve(fluid.flux_out)
    except RuntimeError as exc:
        raise SolverFailure(f"trace-constant solve failed: {exc}") from exc
    a = float(fluid.flux_in @ x_in)
    b = float(fluid.flux_in @ x_out)
    c = float(fluid.flux_out @ x_out)
    return (a + c) / 2 + np.hypot((a - c) / 2, b)


# ----------------------------------------------------------------------
# trajectory containers


@dataclass
class EnergyLedger:
    """Per-step records of every quantity in the discrete energy balance."""

    E: np.ndarray            # (n+1,) energy at integer levels
    E_half: np.ndarray       # (n,)
    D: np.ndarray            # viscous + penalty dissipation
    C1: np.ndarray           # structure-substep numerical dissipation
    C2: np.ndarray           # fluid-substep numerical dissipation
    div_residual: np.ndarray
    theta: np.ndarray        # flag after folding this step's candidate
    min_gap: np.ndarray      # inf_z (R + eta^{n+1})
    hs_norm: np.ndarray      # ||R + eta^{n+1}||_{H^s}
    stoch_work: np.ndarray   # (G dW, U^n)
    incr_norm: np.ndarray    # Cameron-Martin norm of dW
    xi: np.ndarray
    S_bound: np.ndarray      # explicit Young bound on (G dW, U^{n+1}-U^n)
    g_hs_sq: np.ndarray      # ||G(U^n, eta*^n)||_HS^2
    g_state_sq: np.ndarray   # ||(R+eta*) u||^2 + ||v||^2 at level n
    pressure_work: np.ndarray
    P_in: np.ndarray
    P_out: np.ndarray
    vhalf_gap_sq: np.ndarray  # ||v^{n+1/2} - v^n||^2
    trace_const: np.ndarray
    picard_iters: np.ndarray

    @classmethod
    def allocate(cls, N: int) -> "EnergyLedger":
        f = lambda: np.zeros(N)
        return cls(E=np.zeros(N + 1), E_half=f(), D=f(), C1=f(), C2=f(),
                   div_residual=f(), theta=np.ones(N, dtype=int), min_gap=f(),
                   hs_norm=f(), stoch_work=f(), incr_norm=f(), xi=f(),
                   S_bound=f(), g_hs_sq=f(), g_state_sq=f(), pressure_work=f(),
                   P_in=f(), P_out=f(), vhalf_gap_sq=f(), trace_const=f(),
                   picard_iters=np.zeros(N, dtype=int))

    def truncate(self, n: int) -> "EnergyLedger":
        kw = {}
        for name, arr in self.__dict__.items():
            kw[name] = arr[: n + 1] if name == "E" else arr[:n]
        return EnergyLedger(**kw)


@dataclass
class Trajectory:
    """One path of the splitting scheme plus its energy ledger.

    Arrays hold n_steps+1 integer levels (index 0 = initial data), and
    v_half the n_steps half-level wall velocities; wall displacement and
    both velocities are beam vectors.  The fluid substep leaves the wall
    where it is, so the half-level displacement of step n is eta[n+1].
    tau_idx is the index of the first inadmissible displacement
    (n_steps if the cutoff never engaged).  The shared-DOF layout makes
    u[n][shared] and the nodal values of v[n] the same numbers by
    construction.
    """

    dt: float
    n_steps: int
    tau_idx: int
    u: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    v_half: np.ndarray
    eta_star: np.ndarray
    ledger: EnergyLedger
    noise: NoisePath

    @property
    def stopped(self) -> bool:
        """Whether the cutoff engaged; theta never increases, so its last
        value tells."""
        return bool(self.ledger.theta[-1] == 0)

    @property
    def tau_time(self) -> float:
        return self.tau_idx * self.dt


@dataclass
class PathProblem:
    """Everything run_path needs, independent of where the config came from."""

    fluid: FluidSpace
    structure: StructureSpace
    layout: CoupledLayout
    params: SchemeParams
    noise: NoiseSpec
    hs_form: HsForm
    N: int
    P_in: np.ndarray   # (N,) step-averaged inlet pressure
    P_out: np.ndarray
    u0: np.ndarray
    v0: np.ndarray     # beam vector
    eta0: np.ndarray   # beam vector
    halt_at_stop: bool = False

    @property
    def R(self) -> float:
        return self.fluid.domain.R


def check_initial_admissibility(problem: PathProblem) -> None:
    """Enforce the admissibility of the initial configuration: the wall
    gap clears delta and both the H^2 and H^s norms sit inside the band."""
    st, R, delta = problem.structure, problem.R, problem.params.delta
    gap0 = R + st.profile(problem.eta0).min_value()
    if not gap0 > delta:
        raise InitialDataError(f"initial.eta0: wall gap min(R+eta0) = {gap0:.6g} "
                               f"must exceed delta = {delta:.6g}")
    for name, norm in (("H2", st.h2_norm_of_gap(problem.eta0, R)),
                       ("Hs", problem.hs_form.norm(problem.eta0, R))):
        if not norm < 1.0 / delta:
            raise InitialDataError(f"initial.eta0: ||R+eta0||_{name} = {norm:.6g} "
                                   f"must be below 1/delta = {1/delta:.6g}")


def energy(u, v, eta, M_u, M_s, S) -> float:
    """Kinetic + elastic energy 1/2 (u.M_u.u + v.M_s.v + eta.S.eta) of one
    state; M_u is the fluid mass weighted by the level's R + eta*."""
    return 0.5 * float(u @ (M_u @ u)) \
        + 0.5 * float(v @ (M_s @ v)) \
        + 0.5 * float(eta @ (S @ eta))


def run_path(problem: PathProblem, path_index: int = 0) -> Trajectory:
    """Integrate one seeded path of the splitting scheme.

    The loop keeps marching on the frozen artificial geometry after the
    cutoff engages (halt_at_stop truncates instead).  Ledger entries are
    arranged so that the per-step energy balance telescopes exactly: the
    end-of-step energy is evaluated with the same weighted mass matrices
    that entered the fluid solve.
    """
    check_initial_admissibility(problem)
    fl, st, lay = problem.fluid, problem.structure, problem.layout
    prm, R, N = problem.params, problem.R, problem.N
    dt = prm.dt
    M_s, S = st.M, st.S1 + st.S2

    noise_path = sample_path(problem.noise, N, dt, path_index)

    u = np.zeros((N + 1, fl.n_free))
    v = np.zeros((N + 1, st.n_free))
    eta = np.zeros((N + 1, st.n_free))
    v_half_arr = np.zeros((N, st.n_free))
    eta_star = np.zeros((N + 1, st.n_free))
    u[0], v[0], eta[0] = problem.u0, problem.v0, problem.eta0
    u[0][lay.shared_free] = v[0][0::2]  # kinematic compatibility at the nodes
    eta_star[0] = problem.eta0
    led = EnergyLedger.allocate(N)

    cut = CutoffState(1, problem.eta0.copy(), None, prm.delta)
    forms: AssembledForms | None = None
    cache_key = None
    n_done = 0

    for n in range(N):
        eh, vh = structure_step(eta[n], v[n], dt, st)
        eta[n + 1], v_half_arr[n] = eh, vh

        cut, min_gap, hs_value = update_cutoff(cut, eh, st, R, problem.hs_form, step=n + 1)
        eta_star[n + 1] = cut.eta_star

        key = (eta_star[n].tobytes(), eta_star[n + 1].tobytes())
        if key != cache_key:
            forms = assemble_all(fl, lay, st.profile(eta_star[n]), st.profile(eta_star[n + 1]))
            cache_key = key
            trace_const = trace_dissipation_constant(fl, forms, prm)

        if n == 0:
            led.E[0] = energy(u[0], v[0], eta[0], forms.M_eta, M_s, S)

        # structure-substep balance pieces (exact polarization identities)
        dv = vh - v[n]
        vhalf_gap = float(dv @ (M_s @ dv))
        C1 = 0.5 * vhalf_gap + 0.5 * float((eh - eta[n]) @ (S @ (eh - eta[n])))
        E_half = energy(u[n], vh, eh, forms.M_eta, M_s, S)

        xi = noise_path.xi(n)
        Pin, Pout = float(problem.P_in[n]), float(problem.P_out[n])
        u_new, v_new, stats = fluid_step(fl, lay, forms, prm, u[n], v[n], vh, xi, Pin, Pout)
        u[n + 1], v[n + 1] = u_new, v_new

        du = u_new - u[n]
        dvf = v_new - vh
        led.E_half[n] = E_half
        led.C1[n] = C1
        led.vhalf_gap_sq[n] = vhalf_gap
        div_sq = u_new @ (forms.P @ u_new)
        led.D[n] = dt * (prm.nu * float(u_new @ (forms.K @ u_new))
                         + (1.0 / prm.epsilon) * float(div_sq))
        led.C2[n] = 0.25 * float(du @ (forms.M_eta @ du)) \
            + 0.25 * float(dvf @ (M_s @ dvf))
        led.div_residual[n] = float(np.sqrt(max(div_sq, 0.0)))
        led.theta[n] = cut.theta
        led.min_gap[n] = min_gap
        led.hs_norm[n] = hs_value
        g_state = state_l2_sq(u[n], v[n], forms.M_sq, M_s)
        led.xi[n] = xi
        led.g_state_sq[n] = g_state
        led.g_hs_sq[n] = problem.noise.phi_hs_sq * g_state
        u_sq, v_sq = u[n] @ (forms.M_eta @ u[n]), v[n] @ (M_s @ v[n])
        led.stoch_work[n] = xi * float(u_sq + v_sq)
        led.S_bound[n] = xi * xi * float(u_sq + 2.0 * v_sq)
        led.incr_norm[n] = float(np.sqrt(noise_path.u0_norm_sq(n)))
        led.pressure_work[n] = Pin * float(fl.flux_in @ u_new) \
            - Pout * float(fl.flux_out @ u_new)
        led.P_in[n], led.P_out[n] = Pin, Pout
        led.picard_iters[n] = stats.iterations
        led.trace_const[n] = trace_const

        led.E[n + 1] = energy(u_new, v_new, eh, forms.M_eta + forms.M_delta, M_s, S)

        n_done = n + 1
        if problem.halt_at_stop and cut.theta == 0:
            break

    tau_idx = cut.frozen_at if cut.frozen_at is not None else n_done
    return Trajectory(
        dt=dt,
        n_steps=n_done,
        tau_idx=tau_idx,
        u=u[: n_done + 1],
        v=v[: n_done + 1],
        eta=eta[: n_done + 1],
        v_half=v_half_arr[:n_done],
        eta_star=eta_star[: n_done + 1],
        ledger=led.truncate(n_done),
        noise=noise_path,
    )
