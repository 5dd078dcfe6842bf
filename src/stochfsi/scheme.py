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
resolved by Picard iteration on the frozen transport only, to the fixed
tolerance TOL_PICARD within MAX_PICARD iterates.  Because the
assembled advection operator is skew for *any* frozen field, testing the
solved system with its own solution yields the discrete energy balance
at every iterate, converged or not, up to the accuracy of the linear
solve.  Only the returned iterate enters the balance, so a step factors
once, at its first iterate; each later one is one refinement sweep with
that factor, and a sweep that neither halves the normwise backward error
nor brings it to SOLVE_BERR (1e-15, what a direct sparse solve reaches
here) refactors.  The returned iterate is refined toward SOLVE_BERR in
its own frozen-transport system (``fluid_step`` says when it stops
short).  Once theta has dropped, the
geometry is frozen and a step's matrix differs from the last step's only
in its transport field, so the step carries the last step's advection
map and factor and factors only if a sweep stalls.  Every matrix of the
substep is a data array on the ``CoupledLayout``'s one sparsity pattern:
the step's matrix is the beam mass plus arithmetic on the level's forms,
and each iterate writes its advection into that one array.  A
factorization hands that array to ``splu`` through the layout's one
scipy matrix (``CoupledLayout.factor_matrix``), so a step builds none.
The ledger records every quantity appearing in the balance, with the
step's factorizations and the backward error of its returned solve, so
the inequalities can be re-checked offline, term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

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
from .geometry import WallProfile
from .noise import NoisePath, NoiseSpec, sample_path


@dataclass
class SchemeParams:
    nu: float
    delta: float
    epsilon: float
    dt: float


# normwise backward error fluid_step refines the returned Picard iterate toward
SOLVE_BERR = 1e-15
TOL_PICARD = 1e-10  # fluid_step's Picard tolerance on the relative update
MAX_PICARD = 50     # and its budget of iterates


def band(problem: PathProblem, eta: np.ndarray, profile: WallProfile) -> tuple[float, float]:
    """The two quantities the admissible band bounds: inf_z (R + eta),
    exact from the piecewise cubic ``profile`` of the beam vector eta
    (``StructureSpace.profile``, which the caller builds once and may reuse
    for the level's forms) and required to exceed delta, and
    ||R + eta||_{H^s}, required to stay below 1/delta."""
    R = problem.R
    return R + profile.min_value(), problem.hs_form.norm(eta, R)


def update_cutoff(theta: int, eta_star: np.ndarray, candidate: np.ndarray,
                  profile: WallProfile, problem: PathProblem):
    """Fold one candidate displacement, with its wall ``profile``, into the
    cutoff history.

    Returns (theta, eta_star, min_gap, hs_value).  theta never increases:
    it drops to 0 at the first candidate outside the band, and from then
    on eta_star stays frozen at the last admissible displacement.
    """
    min_gap, hs_value = band(problem, candidate, profile)
    delta = problem.params.delta
    theta = min(theta, int(min_gap > delta and hs_value < 1.0 / delta))
    return theta, (candidate if theta else eta_star), min_gap, hs_value


def _lapack(what: str, routine: str, *args, **kwargs) -> np.ndarray:
    """The result of the LAPACK ``routine`` on the arguments, called
    directly (scipy's wrappers add nothing these solves need); a nonzero
    info raises SolverFailure naming ``what``, the routine and info."""
    out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise SolverFailure(f"{what} failed: {routine} info {info}")
    return out


def structure_step(eta: np.ndarray, v: np.ndarray, dt: float,
                   structure: StructureSpace):
    """Implicit wall update holding the fluid fixed.

    Substituting the displacement update eta_half = eta + dt*v_half into
    the velocity equation gives the SPD system

        (M_s + dt^2 S) v_half = M_s v - dt S eta,

    whose Cholesky factor the structure space keeps per dt; LAPACK's
    dpotrs solves with it (a beam of one element has no free DOF).  A
    nonzero info or a non-finite solution raises SolverFailure.
    """
    S = structure.S
    with np.errstate(over="ignore", invalid="ignore"):  # named below if not finite
        b = structure.M @ v - dt * (S @ eta)
    c, lower = structure.step_factor(dt)
    v_half = _lapack("structure solve", "dpotrs", c, b, lower=lower) if b.size else b
    if not np.isfinite(v_half).all():
        raise SolverFailure("structure solve produced non-finite values")
    eta_half = eta + dt * v_half
    return eta_half, v_half


def _splu(A: sp.csc_matrix):
    """Sparse LU without pivoting, in a symmetric ordering of A + A^T.

    Every matrix factored here has an SPD symmetric part, so its LU exists
    with positive pivots and no row exchange is needed for stability
    (Golub & Van Loan, LAA 28, 1979); see notes/decisions.md."""
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _refine(layout: CoupledLayout, A: np.ndarray, lu, g: np.ndarray, rhs: np.ndarray,
            b_norm: float, sweeps=np.inf):
    """Iterative refinement of g toward the solution of A x = rhs, A the
    matrix with data ``A`` on the layout's pattern, with the factor
    ``lu`` of a nearby matrix: each sweep adds lu.solve(rhs - A g).

    Returns (x, backward error) once the normwise backward error
    ||r|| / (||A|| ||x|| + ||rhs||) in the max norm, r = rhs - A x, is at
    most SOLVE_BERR or after ``sweeps`` sweeps, or None as soon as a sweep
    fails to halve it (a stale factor).  Halving bounds the sweeps, since
    the error starts at most 1.  A zero residual is exact (and guards 0/0).
    """
    A_norm = float(np.bincount(layout.indices, np.abs(A), layout.n_x).max())  # ||A||_inf
    g, last = g.copy(), np.inf
    while True:
        r = rhs - layout.matvec(A, g)
        r_norm = float(np.abs(r).max())
        berr = 0.0 if r_norm == 0.0 else r_norm / (A_norm * float(np.abs(g).max()) + b_norm)
        if not (berr <= SOLVE_BERR or berr <= 0.5 * last):
            return None
        if berr <= SOLVE_BERR or sweeps == 0:
            return g, berr
        g += lu.solve(r)
        last, sweeps = berr, sweeps - 1


def fluid_step(
    fluid: FluidSpace,
    layout: CoupledLayout,
    forms: AssembledForms,
    M_next: np.ndarray,
    params: SchemeParams,
    u_n: np.ndarray,
    v_n: np.ndarray,
    v_half: np.ndarray,
    xi: float,
    P_in: float,
    P_out: float,
    advection: np.ndarray | None = None,
    factor=None,
):
    """Coupled implicit fluid/wall-velocity solve on the frozen geometry.

    ``forms`` are level n's, the frozen geometry; level n+1 enters only
    through its weighted mass ``M_next``.  The mass term is the average
    ½ (M_eta + M_next), the discrete geometric-conservation term: tested
    with the solution it leaves ½ u.M_next.u, level n+1's kinetic energy.

    Unknown vector x = [fluid free DOFs | interior wall slopes]; the wall
    velocity block is tested with the Hermite functions, so the mass
    coupling is the beam mass embedded at the shared/slope positions.
    The beam mass and every fluid form are data arrays on the layout's one
    sparsity pattern, so the step's one matrix is arithmetic on them.
    Every product is ``CoupledLayout.matvec``, and a factorization hands
    the array to ``splu`` in the layout's one scipy matrix
    (``CoupledLayout.factor_matrix``): the step builds no scipy matrix.
    Picard freezes the transport field a = u - v r e_r at the previous
    iterate; every other term is implicit.  The advection form is linear
    in a on the frozen geometry, so its map is built once per step and
    each iterate only applies it, writing the matrix's data array in
    place.  Initial iterate: u_n with the wall-velocity block overwritten
    by the half-step wall velocity.  The noise enters through the step's
    coefficient xi (``NoisePath.xi``).

    Without a ``factor``, the step builds its advection map (unless
    ``advection`` is given) and factors once, at its first iterate, and
    solves it directly.  Each later iterate's matrix differs only in its
    advection, so it is one ``_refine`` sweep from the previous iterate
    with that factor; a sweep that stalls above SOLVE_BERR refactors on
    this iterate's matrix.  A handed-in ``factor`` and ``advection`` map
    are those a step on the same geometry ended with (``step`` hands them
    over once the cutoff has frozen eta*): the first iterate is then a
    sweep too, and a stale factor refactors by the same rule.  Once the
    update is below TOL_PICARD, the returned iterate is refined toward a
    backward error of at most SOLVE_BERR.  A sweep that stalls there
    refactors, and the step returns that factor's direct solve with the
    backward error it has, which may exceed SOLVE_BERR (seen on data near
    underflow, see notes/decisions.md).

    Returns (u, v, stats, advection, factor): the free fluid DOFs and the
    wall velocity at level n+1, the step's solver numbers keyed by their
    ``EnergyLedger`` fields (``picard_iters``, ``picard_rel``, the step's
    factorizations ``lu_factors``, which are 0 on a step that reused its
    factor throughout, and the returned solve's ``solve_berr``), its
    advection map and the factor it ended with.
    """
    dt = params.dt
    n_free, n_x = fluid.n_free, layout.n_x

    # the fluid sum first, then the beam mass: the ledgers depend on the rounding
    fixed = layout.beam_mass + (0.5 * (forms.M_eta + M_next)
                                + params.nu * dt * forms.K
                                + (dt / params.epsilon) * forms.P)
    M_norm = layout.beam_mass + forms.M_eta

    rhs = np.zeros(n_x)
    rhs[:n_free] = (1.0 + xi) * layout.matvec(forms.M_eta, u_n) \
        + dt * (P_in * fluid.flux_in - P_out * fluid.flux_out)
    M_s = layout.structure.M
    rhs[layout.beam_to_x] += M_s @ v_half
    rhs[layout.beam_to_x] += xi * (M_s @ v_n)

    x = np.zeros(n_x)
    x[:n_free] = u_n
    x[layout.beam_to_x] = v_half

    adv = assemble_advection(fluid, forms) if advection is None else advection
    b_norm = float(np.abs(rhs).max())
    A = np.empty_like(fixed)  # each iterate writes its matrix here
    lu, factors, rel = factor, 0, np.inf

    def solve(g, sweeps):
        """(x, backward error) from g by ``_refine``, else by a fresh
        factor's direct solve.  Only the returned iterate's backward error
        is read, so an intermediate iterate's direct solve (finite
        ``sweeps``) leaves it None; the returned iterate's refinement
        (unbounded ``sweeps``) measures it, with the same factor."""
        nonlocal lu, factors
        try:
            solved = None if lu is None else _refine(layout, A, lu, g, rhs, b_norm, sweeps)
            if solved is None:
                lu, factors = _splu(layout.factor_matrix(A)), factors + 1
                direct = lu.solve(rhs)
                solved = (direct, None) if sweeps < np.inf else \
                    _refine(layout, A, lu, direct, rhs, b_norm, 0)
        except RuntimeError as exc:
            raise SolverFailure(f"fluid solve failed: {exc}") from exc
        if solved is None or not np.isfinite(solved[0]).all():
            raise SolverFailure("fluid solve produced non-finite values")
        return solved

    for it in range(1, MAX_PICARD + 1):
        np.add(fixed, dt * layout.advection_data(adv, x), out=A)
        x_new, berr = solve(x, 1)
        d = x_new - x
        num = math.sqrt(max(float(d @ layout.matvec(M_norm, d)), 0.0))
        den = math.sqrt(max(float(x_new @ layout.matvec(M_norm, x_new)), 0.0))
        rel = num / max(den, 1e-30)
        x = x_new
        if rel <= TOL_PICARD:
            if berr is None or berr > SOLVE_BERR:
                x, berr = solve(x, np.inf)
            stats = dict(picard_iters=it, picard_rel=rel, lu_factors=factors, solve_berr=berr)
            return x[:n_free].copy(), x[layout.beam_to_x], stats, adv, lu
    raise PicardDivergence(
        f"fluid Picard iteration did not converge: rel update {rel:.3e} "
        f"after {MAX_PICARD} iterations"
    )


def trace_dissipation_constant(layout: CoupledLayout, forms: AssembledForms,
                               params: SchemeParams) -> float:
    """Largest ratio of (inlet flux)^2 + (outlet flux)^2 to the dissipation
    rate form nu*K + (1/eps)*P over the free fluid space.

    The numerator is rank two, so the maximum is the top eigenvalue of the
    2x2 Gram matrix of the two flux functionals in the dissipation inner
    product, computed once per assembly because the form moves with eta*.
    Used to absorb the pressure work into half the dissipation with an
    explicit constant.  K and P are data arrays on the layout's pattern,
    so the form is arithmetic on them.  Its fluid block is bitwise
    symmetric and SPD on the free DOFs, so its lower band
    (``CoupledLayout.lower_band``) is the whole matrix: one banded
    Cholesky factor (LAPACK's dpbtrf) and one solve (dpbtrs) for both
    flux vectors, kept per mesh in the band's ordering
    (``CoupledLayout.band_flux``), and the Gram matrix is formed in it,
    which it does not depend on.  A form that is not finite, or a nonzero
    info (a form that is not SPD), raises SolverFailure.
    """
    data = params.nu * forms.K + (1.0 / params.epsilon) * forms.P
    if not np.isfinite(data).all():
        raise SolverFailure("trace-constant solve failed: non-finite dissipation form")
    F = layout.band_flux
    factor = _lapack("trace-constant solve", "dpbtrf", layout.lower_band(data), lower=1)
    (a, b), (_, c) = F.T @ _lapack("trace-constant solve", "dpbtrs", factor, F, lower=1)
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
    picard_rel: np.ndarray   # relative update of the last Picard iterate
    lu_factors: np.ndarray   # LU factorizations in the fluid solve
    solve_berr: np.ndarray   # normwise backward error of the returned solve

    @classmethod
    def from_rows(cls, E0: float, rows: list) -> "EnergyLedger":
        """The ledger of E[0] and one row per step (see ``step``): E is E0
        followed by the rows' E_next, every other field is its column, and
        theta, picard_iters and lu_factors are integers.  A row whose keys
        are not every field but E, plus E_next, raises ValueError."""
        names = [f.name for f in fields(cls) if f.name != "E"]
        ints = ("theta", "picard_iters", "lu_factors")
        keys = {*names, "E_next"}
        for n, row in enumerate(rows):
            if row.keys() != keys:
                raise ValueError(f"ledger row {n}: keys {sorted(row.keys() ^ keys)} "
                                 f"differ from the EnergyLedger fields")
        return cls(E=np.array([E0, *(row["E_next"] for row in rows)], dtype=float),
                   **{name: np.array([row[name] for row in rows],
                                     dtype=int if name in ints else float)
                      for name in names})


@dataclass
class Trajectory:
    """One path of the splitting scheme plus its energy ledger.

    Arrays hold n_steps+1 integer levels (index 0 = initial data); wall
    displacement and velocity are beam vectors.  The fluid substep leaves
    the wall where it is, so the half-level displacement of step n is
    eta[n+1], and the half-level wall velocity is (eta[n+1] - eta[n]) / dt
    up to roundoff.
    The cutoff is recorded once, in ledger.theta; stopped and tau_idx are
    read from it.  The shared-DOF layout makes u[n][shared] and the nodal
    values of v[n] the same numbers by construction.
    """

    dt: float
    n_steps: int
    u: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    eta_star: np.ndarray
    ledger: EnergyLedger
    noise: NoisePath

    @property
    def stopped(self) -> bool:
        """Whether the cutoff engaged; theta never increases, so its last
        value tells."""
        return bool(self.ledger.theta[-1] == 0)

    @property
    def tau_idx(self) -> int:
        """Index of the first inadmissible displacement: one past the
        ledger row whose fold dropped theta, or n_steps if it never did."""
        dropped = np.flatnonzero(self.ledger.theta == 0)
        return int(dropped[0]) + 1 if dropped.size else self.n_steps


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

    @property
    def R(self) -> float:
        return self.fluid.domain.R


def check_initial_admissibility(problem: PathProblem) -> None:
    """Enforce the admissibility of the initial configuration: the wall
    gap clears delta and both the H^2 and H^s norms sit inside the band."""
    delta = problem.params.delta
    gap0, hs0 = band(problem, problem.eta0, problem.structure.profile(problem.eta0))
    if not gap0 > delta:
        raise InitialDataError(f"initial.eta0: wall gap min(R+eta0) = {gap0:.6g} "
                               f"must exceed delta = {delta:.6g}")
    for name, norm in (("H2", problem.structure.h2_norm_of_gap(problem.eta0, problem.R)),
                       ("Hs", hs0)):
        if not norm < 1.0 / delta:
            raise InitialDataError(f"initial.eta0: ||R+eta0||_{name} = {norm:.6g} "
                                   f"must be below 1/delta = {1/delta:.6g}")


def energy(layout: CoupledLayout, M_u: np.ndarray, u, v, eta) -> float:
    """Kinetic + elastic energy 1/2 (u.M_u.u + v.M_s.v + eta.S.eta) of one
    state; M_u is the data, on the layout's pattern, of the fluid
    mass weighted by the level's R + eta*, and M_s and S are the beam's."""
    M_s, S = layout.structure.M, layout.structure.S
    return 0.5 * float(u @ layout.matvec(M_u, u)) \
        + 0.5 * float(v @ (M_s @ v)) \
        + 0.5 * float(eta @ (S @ eta))


class State(NamedTuple):
    """A path at one integer level: the level's arrays (the first four
    fields), the cutoff flag after the last fold, and the level's forms
    with their trace constant, which the step from this level uses.

    Once theta is 0 the geometry is frozen, so the state also keeps the
    advection map and the fluid factor the step to this level ended with,
    and the next step reuses them; while theta is 1 both are None, so a
    path that never stops holds no factor between steps."""

    u: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    eta_star: np.ndarray
    theta: int
    forms: AssembledForms
    trace_const: float
    advection: np.ndarray | None = None
    factor: object = None


def level_forms(problem: PathProblem, profile: WallProfile):
    """The forms of the level whose artificial displacement has the wall
    ``profile`` (``StructureSpace.profile`` of eta*), and their trace
    constant."""
    forms = assemble_all(problem.fluid, problem.layout, profile)
    return forms, trace_dissipation_constant(problem.layout, forms, problem.params)


def step(problem: PathProblem, state: State, n: int, noise_path: NoisePath):
    """One Lie step from level n: the structure substep, the cutoff fold,
    then the fluid substep on the frozen geometry eta*_n.

    Returns (state at level n+1, row), where row holds the
    step's entry of every EnergyLedger field but E, plus E_next.  Level
    n's forms measure the row but E_next, which takes level n+1's M_eta,
    the matrix the next step measures with: the energies telescope
    exactly by construction.  Level n+1's forms are assembled only when
    the fold moved eta* to the candidate (theta is 1); else n's carry over.
    The candidate's wall profile is built once, for the band check and,
    when theta stays 1, for the forms.  The fluid substep gets the
    state's advection map and factor, which are None unless theta was
    already 0, and the returned state keeps the substep's only when its
    theta is 0 (see ``State``).
    """
    fl, st, lay, prm = problem.fluid, problem.structure, problem.layout, problem.params
    dt, M_s, S = prm.dt, st.M, st.S
    u, v, eta, forms = state.u, state.v, state.eta, state.forms
    eh, vh = structure_step(eta, v, dt, st)

    profile = st.profile(eh)
    theta, eta_star, min_gap, hs_value = update_cutoff(state.theta, state.eta_star, eh,
                                                       profile, problem)
    forms_next, trace_next = level_forms(problem, profile) if theta else (forms, state.trace_const)

    xi = noise_path.xi(n)
    P_in, P_out = float(problem.P_in[n]), float(problem.P_out[n])
    u_new, v_new, stats, advection, factor = fluid_step(
        fl, lay, forms, forms_next.M_eta, prm, u, v, vh, xi, P_in, P_out,
        state.advection, state.factor)

    # structure-substep pieces are exact polarization identities
    dv, deta, du, dvf = vh - v, eh - eta, u_new - u, v_new - vh
    vhalf_gap = float(dv @ (M_s @ dv))
    div_sq = u_new @ lay.matvec(forms.P, u_new)
    u_sq, v_sq = u @ lay.matvec(forms.M_eta, u), v @ (M_s @ v)
    g_state = float(u @ lay.matvec(forms.M_sq, u) + v_sq)  # ||(R+eta*) u||^2 + ||v||^2
    row = dict(
        E_half=energy(lay, forms.M_eta, u, vh, eh),
        D=dt * (prm.nu * float(u_new @ lay.matvec(forms.K, u_new))
                + (1.0 / prm.epsilon) * float(div_sq)),
        C1=0.5 * vhalf_gap + 0.5 * float(deta @ (S @ deta)),
        C2=0.25 * float(du @ lay.matvec(forms.M_eta, du)) + 0.25 * float(dvf @ (M_s @ dvf)),
        div_residual=math.sqrt(max(float(div_sq), 0.0)),
        theta=theta, min_gap=min_gap, hs_norm=hs_value,
        stoch_work=xi * float(u_sq + v_sq), incr_norm=math.sqrt(noise_path.u0_norm_sq(n)),
        xi=xi, S_bound=xi * xi * float(u_sq + 2.0 * v_sq),
        g_hs_sq=problem.noise.phi_hs_sq * g_state, g_state_sq=g_state,
        pressure_work=P_in * float(fl.flux_in @ u_new) - P_out * float(fl.flux_out @ u_new),
        P_in=P_in, P_out=P_out, vhalf_gap_sq=vhalf_gap, trace_const=state.trace_const,
        **stats,
        E_next=energy(lay, forms_next.M_eta, u_new, v_new, eh),
    )
    frozen = (advection, factor) if theta == 0 else ()
    return State(u_new, v_new, eh, eta_star, theta, forms_next, trace_next, *frozen), row


def run_path(problem: PathProblem, path_index: int = 0) -> Trajectory:
    """Integrate one seeded path of the splitting scheme, all N steps.

    E[0] is measured with level 0's forms, assembled before the loop, and
    every later E[n+1] is step n's E_next, so the energies telescope
    exactly (see ``step``).  The cutoff ends no path: once it engages, the
    loop keeps marching on the frozen artificial geometry to T.  Each
    level's arrays are written into (N+1)-row arrays, never kept as a
    state, so only the current level's forms stay alive.
    """
    check_initial_admissibility(problem)
    noise_path = sample_path(problem.noise, problem.N, problem.params.dt, path_index)
    u0 = problem.u0.copy()
    u0[problem.layout.shared_free] = problem.v0[0::2]  # kinematic compatibility at the nodes
    state = State(u0, problem.v0, problem.eta0, problem.eta0, 1,
                  *level_forms(problem, problem.structure.profile(problem.eta0)))
    E0 = energy(problem.layout, state.forms.M_eta, u0, problem.v0, problem.eta0)
    levels = [np.empty((problem.N + 1, a.size)) for a in state[:4]]  # u, v, eta, eta_star
    rows = []
    for level, a in zip(levels, state[:4]):
        level[0] = a
    for n in range(problem.N):
        state, row = step(problem, state, n, noise_path)
        for level, a in zip(levels, state[:4]):
            level[n + 1] = a
        rows.append(row)

    return Trajectory(problem.params.dt, problem.N, *levels,
                      ledger=EnergyLedger.from_rows(E0, rows), noise=noise_path)
