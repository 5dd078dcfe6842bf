"""Finite-element spaces and assembly on the fixed reference channel.

Fluid velocity: bilinear Q1 per component on a structured nz x nr quad
mesh of O = (0,L) x (0,1), with essential masks

    u_z = 0 on the top boundary (the moving-wall trace direction is
    vertical), u_r = 0 on inlet, outlet and bottom.

Masked degrees of freedom are eliminated (rows/columns removed), never
penalized.  Natural conditions are left to the weak form.

Structure displacement: cubic Hermite beam elements on a uniform
partition of (0,L), clamped at both ends by removing the end value and
slope DOFs.  Structure velocity at integer steps lives in the piecewise
linear trace space of the fluid mesh's top row (that is the kinematic
identification); the half-step velocity produced by the structure solve
lives in the Hermite space.

All fluid integrals use tensor 2x2 Gauss except the divergence penalty,
which is integrated with the 1-point (reduced) rule to avoid Q1 penalty
locking.  All 1D structure/trace integrals use 4-point Gauss per element,
which is exact for every polynomial integrand appearing here (up to the
degree-6 products of two cubics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateJacobian
from .geometry import ReferenceDomain, WallProfile

_GAUSS = {n: np.polynomial.legendre.leggauss(n) for n in (1, 2, 3, 4, 5, 6, 8)}


# ----------------------------------------------------------------------
# fluid space


def _q1_tables(rule: int):
    """Q1 shape values/derivatives at a tensor Gauss rule on [-1,1]^2."""
    x1, w1 = _GAUSS[rule]
    xi, ze = np.meshgrid(x1, x1, indexing="ij")
    xi, ze = xi.ravel(), ze.ravel()
    wq = np.outer(w1, w1).ravel()
    # local node order: (-,-), (+,-), (+,+), (-,+)
    sx = np.array([-1.0, 1.0, 1.0, -1.0])
    sz = np.array([-1.0, -1.0, 1.0, 1.0])
    N = 0.25 * (1 + sx[:, None] * xi) * (1 + sz[:, None] * ze)
    dNdxi = 0.25 * sx[:, None] * (1 + sz[:, None] * ze)
    dNdze = 0.25 * sz[:, None] * (1 + sx[:, None] * xi)
    return xi, ze, wq, N, dNdxi, dNdze


@dataclass
class _QuadCache:
    wq: np.ndarray      # (nq,) quadrature weight including cell Jacobian
    N: np.ndarray       # (4, nq)
    dNdz: np.ndarray    # (4, nq)
    dNdr: np.ndarray    # (4, nq)
    z: np.ndarray       # (ncell, nq) physical z of quadrature points
    r: np.ndarray       # (ncell, nq)


class FluidSpace:
    """Q1 velocity space with boundary masks on the reference channel."""

    def __init__(self, domain: ReferenceDomain):
        self.domain = domain
        nz, nr = domain.nz, domain.nr
        self.nz, self.nr = nz, nr
        self.hz = domain.L / nz
        self.hr = 1.0 / nr
        self.n_nodes = (nz + 1) * (nr + 1)
        self.ndof = 2 * self.n_nodes

        iz = np.arange(nz + 1)
        ir = np.arange(nr + 1)
        IZ, IR = np.meshgrid(iz, ir, indexing="xy")  # node id = ir*(nz+1)+iz
        self.node_z = (IZ * self.hz).ravel()
        self.node_r = (IR * self.hr).ravel()

        masked = np.zeros(self.ndof, dtype=bool)
        for node in range(self.n_nodes):
            niz = node % (nz + 1)
            nir = node // (nz + 1)
            if nir == nr:
                masked[2 * node + 0] = True          # u_z = 0 on top
            if niz == 0 or niz == nz or nir == 0:
                masked[2 * node + 1] = True          # u_r = 0 on sides/bottom
        self.masked = masked
        self.free = np.flatnonzero(~masked)
        self.n_free = self.free.size
        self.full_to_free = -np.ones(self.ndof, dtype=int)
        self.full_to_free[self.free] = np.arange(self.n_free)

        cz, cr = np.meshgrid(np.arange(nz), np.arange(nr), indexing="xy")
        cz, cr = cz.ravel(), cr.ravel()
        n00 = cr * (nz + 1) + cz
        self.cells = np.stack([n00, n00 + 1, n00 + nz + 2, n00 + nz + 1], axis=1)
        self._cell_z0 = cz * self.hz
        self._cell_r0 = cr * self.hr

        self.q_full = self._make_quad(2)
        self.q_reduced = self._make_quad(1)

    def _make_quad(self, rule: int) -> _QuadCache:
        xi, ze, wq, N, dNdxi, dNdze = _q1_tables(rule)
        jac = self.hz * self.hr / 4.0
        zq = self._cell_z0[:, None] + (xi[None, :] + 1) * (self.hz / 2)
        rq = self._cell_r0[:, None] + (ze[None, :] + 1) * (self.hr / 2)
        return _QuadCache(
            wq=wq * jac,
            N=N,
            dNdz=dNdxi * (2.0 / self.hz),
            dNdr=dNdze * (2.0 / self.hr),
            z=zq,
            r=rq,
        )

    def top_interior_vr_free(self) -> np.ndarray:
        """Free-DOF indices of vertical velocity at interior top-row nodes,
        ordered by increasing z.  These are the kinematically shared DOFs."""
        nz, nr = self.nz, self.nr
        out = []
        for iz in range(1, nz):
            node = nr * (nz + 1) + iz
            out.append(self.full_to_free[2 * node + 1])
        return np.asarray(out, dtype=int)

    def scatter(self, u_free: np.ndarray) -> np.ndarray:
        full = np.zeros(self.ndof)
        full[self.free] = u_free
        return full

    def interpolate(self, f_z, f_r) -> np.ndarray:
        """Nodal interpolation of a velocity field, masked DOFs zeroed;
        returns the free-DOF vector."""
        full = np.empty(self.ndof)
        full[0::2] = f_z(self.node_z, self.node_r)
        full[1::2] = f_r(self.node_z, self.node_r)
        full[self.masked] = 0.0
        return full[self.free]

    # -- geometry samples -------------------------------------------------
    def wall_samples(self, profile: WallProfile, R: float, reduced: bool = False):
        """(R+eta, eta') at the quadrature points of the chosen rule."""
        q = self.q_reduced if reduced else self.q_full
        return R + profile.value(q.z), profile.slope(q.z)


def _transformed_basis(fs: FluidSpace, w_q, s_q, reduced: bool):
    """Pulled-back basis derivatives Gz, Gr, shape (ncell, 4, nq)."""
    if np.any(w_q <= 0.0):
        raise DegenerateJacobian(
            f"R + eta <= 0 at a quadrature point (min {w_q.min():.6g}); "
            "the cutoff should have prevented this geometry"
        )
    q = fs.q_reduced if reduced else fs.q_full
    ratio = s_q / w_q                               # (ncell, nq)
    Gz = q.dNdz[None, :, :] - q.r[:, None, :] * ratio[:, None, :] * q.dNdr[None, :, :]
    Gr = q.dNdr[None, :, :] / w_q[:, None, :]
    return q, Gz, Gr


def _both_components(local: np.ndarray) -> np.ndarray:
    """A scalar block acting alike on each velocity component, as the
    (2, 2, ncell, 4, 4) element blocks of the vector form."""
    zero = np.zeros_like(local)
    return np.array([[local, zero], [zero, local]])


def element_mass(fs: FluidSpace, w_q: np.ndarray) -> np.ndarray:
    """Element blocks of the mass with scalar weight w(z) sampled at the
    full-rule points; the same block acts on each velocity component."""
    q = fs.q_full
    local = np.einsum("q,cq,aq,bq->cab", q.wq, w_q, q.N, q.N, optimize=True)
    return _both_components(local)


def element_viscous(fs: FluidSpace, w_q, s_q) -> np.ndarray:
    """Element blocks of the pulled-back viscous form
    2*Int (R+eta) D^eta(phi_j) : D^eta(phi_i).

    The kinematic viscosity is applied by the caller, so the assembled
    operator is exactly twice the weighted symmetric-gradient Gram matrix.
    """
    q, Gz, Gr = _transformed_basis(fs, w_q, s_q, reduced=False)
    ww = q.wq[None, :] * w_q                        # (ncell, nq)

    def g(Ai, Bj):
        return np.einsum("cq,ciq,cjq->cij", ww, Ai, Bj, optimize=True)

    kzz = 2 * g(Gz, Gz) + g(Gr, Gr)
    kzr = g(Gr, Gz)
    krz = g(Gz, Gr)
    krr = 2 * g(Gr, Gr) + g(Gz, Gz)
    return np.array([[kzz, kzr], [krz, krr]])


def element_penalty(fs: FluidSpace, w1_q, s1_q) -> np.ndarray:
    """Element blocks of the div^eta . div^eta Gram matrix with the
    reduced (1-point) rule."""
    q, Gz, Gr = _transformed_basis(fs, w1_q, s1_q, reduced=True)
    div = (Gz, Gr)
    return np.array([[np.einsum("q,ciq,cjq->cij", q.wq, div[cr_], div[cc_], optimize=True)
                      for cc_ in (0, 1)] for cr_ in (0, 1)])


def element_advection(fs: FluidSpace, w_q, s_q, a_z_q, a_r_q) -> np.ndarray:
    """Element blocks of the skew advection
    ½ Int (R+eta) [(a . grad^eta) u . q - (a . grad^eta) q . u]
    for a frozen transport field a sampled at the full-rule points.

    Skew-symmetry holds by construction: each block is ½(Ns - Ns^T)
    replicated over the two components.
    """
    q, Gz, Gr = _transformed_basis(fs, w_q, s_q, reduced=False)
    ww = q.wq[None, :] * w_q
    adv = a_z_q[:, None, :] * Gz + a_r_q[:, None, :] * Gr      # (ncell, 4, nq)
    Ns = np.einsum("cq,ciq,cjq->cij", ww, np.broadcast_to(fs.q_full.N[None], adv.shape), adv, optimize=True)
    return _both_components(0.5 * (Ns - np.swapaxes(Ns, 1, 2)))


def assemble_flux_vectors_full(fs: FluidSpace):
    """Load vectors of Int_0^1 q_z|_{z=0} dr and Int_0^1 q_z|_{z=L} dr."""
    f_in = np.zeros(fs.ndof)
    f_out = np.zeros(fs.ndof)
    nz, nr, hr = fs.nz, fs.nr, fs.hr
    for ir in range(nr + 1):
        w = hr if 0 < ir < nr else hr / 2
        f_in[2 * (ir * (nz + 1) + 0)] += w
        f_out[2 * (ir * (nz + 1) + nz)] += w
    return f_in, f_out


# ----------------------------------------------------------------------
# structure (Hermite beam) and trace (piecewise linear) spaces


def _hermite_tables(h: float, rule: int = 4):
    """Value/derivative tables of the four local Hermite shapes at Gauss
    points of [0,1], scaled to an element of width h."""
    x1, w1 = _GAUSS[rule]
    xi = (x1 + 1) / 2
    wq = w1 * h / 2
    H = np.stack([
        1 + xi * xi * (2 * xi - 3),
        h * xi * (1 + xi * (xi - 2)),
        xi * xi * (3 - 2 * xi),
        h * xi * xi * (xi - 1),
    ])
    dH = np.stack([
        6 * xi * (xi - 1) / h,
        1 + xi * (3 * xi - 4),
        6 * xi * (1 - xi) / h,
        xi * (3 * xi - 2),
    ])
    ddH = np.stack([
        (12 * xi - 6) / (h * h),
        (6 * xi - 4) / h,
        (6 - 12 * xi) / (h * h),
        (6 * xi - 2) / h,
    ])
    return xi, wq, H, dH, ddH


class StructureSpace:
    """Clamped Hermite beam on n_el uniform elements of (0, L).

    DOF layout (full): [val_0, slope_0, val_1, slope_1, ...]; the free
    vector drops both DOFs of the two end nodes.
    """

    def __init__(self, L: float, n_el: int):
        if n_el < 1:
            raise ConfigError(f"structure: n_el must be >= 1, got {n_el}")
        self.L = float(L)
        self.n_el = n_el
        self.h = L / n_el
        self.ndof_full = 2 * (n_el + 1)
        free = np.ones(self.ndof_full, dtype=bool)
        free[[0, 1, -2, -1]] = False
        self.free = np.flatnonzero(free)
        self.n_free = self.free.size

        _, wq, H, dH, ddH = _hermite_tables(self.h)
        M = np.zeros((self.ndof_full, self.ndof_full))
        S1 = np.zeros_like(M)
        S2 = np.zeros_like(M)
        m_loc = np.einsum("q,aq,bq->ab", wq, H, H)
        s1_loc = np.einsum("q,aq,bq->ab", wq, dH, dH)
        s2_loc = np.einsum("q,aq,bq->ab", wq, ddH, ddH)
        for e in range(n_el):
            sl = slice(2 * e, 2 * e + 4)
            M[sl, sl] += m_loc
            S1[sl, sl] += s1_loc
            S2[sl, sl] += s2_loc
        self.M = M[np.ix_(self.free, self.free)]
        self.S1 = S1[np.ix_(self.free, self.free)]
        self.S2 = S2[np.ix_(self.free, self.free)]
        # Int phi_a dz, for || R + eta ||_{L^2}^2 = R^2 L + 2 R l.eta + eta.M.eta
        l_full = np.zeros(self.ndof_full)
        for e in range(n_el):
            l_full[2 * e:2 * e + 4] += np.einsum("q,aq->a", wq, H)
        self.lin = l_full[self.free]

    def to_full(self, vec_free: np.ndarray) -> np.ndarray:
        full = np.zeros(self.ndof_full)
        full[self.free] = vec_free
        return full

    def profile(self, vec_free: np.ndarray) -> WallProfile:
        full = self.to_full(np.asarray(vec_free, dtype=float))
        return WallProfile(self.L, full[0::2], full[1::2])

    def from_profile(self, profile: WallProfile) -> np.ndarray:
        if profile.n_el != self.n_el:
            raise ConfigError("structure: profile partition does not match the space")
        full = np.empty(self.ndof_full)
        full[0::2] = profile.vals
        full[1::2] = profile.slopes
        return full[self.free]

    def h2_norm_of_gap(self, vec_free: np.ndarray, R: float) -> float:
        """|| R + eta ||_{H^2(0,L)} with the full L2 + H1 + H2 seminorms."""
        e = np.asarray(vec_free, dtype=float)
        l2sq = R * R * self.L + 2 * R * (self.lin @ e) + e @ self.M @ e
        return float(np.sqrt(l2sq + e @ self.S1 @ e + e @ self.S2 @ e))


def _indptr(major: np.ndarray, n: int) -> np.ndarray:
    """Compressed-row (or -column) pointers of sorted major indices."""
    return np.concatenate([[0], np.cumsum(np.bincount(major, minlength=n))]).astype(np.int32)


class CoupledLayout:
    """Index maps realizing the kinematic coupling, and the sparsity
    patterns of every matrix the fluid substep uses.

    The wall velocity lives in the clamped Hermite space.  Its interior
    nodal *values* are identified with the fluid's interior top-row
    vertical DOFs (the constraint u(z,1) = v(z) e_r holds exactly at the
    top-boundary fluid nodes); its interior nodal *slopes* ride along as
    extra unknowns of the coupled fluid solve.  The coupled vector is

        x = [fluid free DOFs | interior wall slopes],

    and ``beam_to_x`` maps beam-free indices into x, value DOFs landing on
    the shared fluid entries.

    Every fluid form lives on the reference mesh, so the wall moves its
    coefficients but never its sparsity.  Both patterns are built once
    here: the CSR pattern (``indptr``, ``indices``) of the free-DOF fluid
    forms, filled from element blocks by ``fluid_csr``, and the CSC
    pattern of the coupled matrices on x, filled by ``coupled_csc``.
    """

    def __init__(self, fluid: FluidSpace, structure: StructureSpace):
        if structure.n_el != fluid.nz:
            raise ConfigError(
                f"layout: n_struct ({structure.n_el}) must equal nz ({fluid.nz})"
            )
        self.fluid = fluid
        self.structure = structure
        self.shared_free = fluid.top_interior_vr_free()
        n_int = structure.n_el - 1          # interior beam nodes
        n_free = fluid.n_free
        self.n_x = n_free + n_int
        # beam free ordering is (value, slope) per interior node
        beam_to_x = np.empty(structure.n_free, dtype=int)
        beam_to_x[0::2] = self.shared_free
        beam_to_x[1::2] = n_free + np.arange(n_int)
        self.beam_to_x = beam_to_x

        # fluid pattern: entry [p, q, c, a, b] of the (2, 2, ncell, 4, 4)
        # element blocks couples component p of node cells[c, a] with
        # component q of node cells[c, b]; entries on masked DOFs drop out
        dof = fluid.full_to_free[2 * fluid.cells + np.arange(2)[:, None, None]]
        rows, cols = (a.ravel() for a in np.broadcast_arrays(
            dof[:, None, :, :, None], dof[None, :, :, None, :]))
        self._keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        keys, self._slot = np.unique(rows[self._keep] * n_free + cols[self._keep],
                                     return_inverse=True)
        f_rows, f_cols = np.divmod(keys, n_free)
        self.indices = f_cols.astype(np.int32)
        self.indptr = _indptr(f_rows, n_free)

        # coupled pattern on x, column-major for the sparse LU: the fluid
        # entries plus the beam mass at the wall-velocity positions
        b_rows, b_cols = np.nonzero(structure.M)
        x_keys, inv = np.unique(
            np.concatenate([f_cols, beam_to_x[b_cols]]) * self.n_x
            + np.concatenate([f_rows, beam_to_x[b_rows]]),
            return_inverse=True,
        )
        x_cols, x_rows = np.divmod(x_keys, self.n_x)
        self._x_indices = x_rows.astype(np.int32)
        self._x_indptr = _indptr(x_cols, self.n_x)
        self._fluid_to_x = inv[:keys.size]
        self._beam_data = np.zeros(x_keys.size)
        self._beam_data[inv[keys.size:]] = structure.M[b_rows, b_cols]
        for pattern in (self.indices, self.indptr, self._x_indices, self._x_indptr):
            pattern.setflags(write=False)  # shared by every matrix built on it

    def fluid_csr(self, blocks: np.ndarray) -> sp.csr_matrix:
        """Sum (2, 2, ncell, 4, 4) element blocks, indexed [row component,
        column component, cell, row node, column node], into the free-DOF
        matrix on the fixed fluid pattern."""
        data = np.bincount(self._slot, weights=blocks.ravel()[self._keep],
                           minlength=self.indices.size)
        n = self.fluid.n_free
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def coupled_csc(self, fluid_data: np.ndarray) -> sp.csc_matrix:
        """Matrix on x: a fluid-pattern data array plus the beam mass."""
        data = self._beam_data.copy()
        data[self._fluid_to_x] += fluid_data
        return sp.csc_matrix((data, self._x_indices, self._x_indptr),
                             shape=(self.n_x, self.n_x))

    def extract_v(self, x: np.ndarray) -> np.ndarray:
        """Wall-velocity beam vector from a coupled solution vector."""
        return x[self.beam_to_x].copy()

    def embed_beam_vector(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_x)
        np.add.at(out, self.beam_to_x, b)
        return out


def build_spaces(domain: ReferenceDomain, n_struct: int):
    """Construct the fluid, structure and coupling layout for one domain.

    The structure nodes must be collocated with the top-boundary fluid
    nodes, so n_struct must equal nz.
    """
    if n_struct != domain.nz:
        raise ConfigError(f"build_spaces: n_struct ({n_struct}) must equal nz ({domain.nz})")
    fluid = FluidSpace(domain)
    structure = StructureSpace(domain.L, n_struct)
    layout = CoupledLayout(fluid, structure)
    return fluid, structure, layout


# ----------------------------------------------------------------------
# assembled forms for one time level


@dataclass
class AssembledForms:
    """Every matrix/vector the splitting scheme needs at one time level.

    All fluid matrices live on the free DOFs.  ``M_eta`` carries weight
    R + eta*_n, ``M_delta`` weight (eta*_{n+1} - eta*_n) (evaluated as an
    exact pointwise difference so that M_eta + M_delta telescopes to the
    next level's weighted mass), ``M_sq`` weight (R + eta*_n)^2 for the
    Hilbert-Schmidt norm of the noise operator.  ``K`` is the viscous
    form including its factor 2 (apply nu externally), ``P`` the reduced
    integration divergence penalty (apply 1/eps externally).
    """

    M_eta: sp.csr_matrix
    M_delta: sp.csr_matrix
    M_sq: sp.csr_matrix
    K: sp.csr_matrix
    P: sp.csr_matrix
    flux_in: np.ndarray
    flux_out: np.ndarray
    M_s: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    w_q: np.ndarray
    s_q: np.ndarray


def assemble_all(
    fluid: FluidSpace,
    structure: StructureSpace,
    layout: CoupledLayout,
    profile_star_n: WallProfile,
    profile_star_np1: WallProfile,
) -> AssembledForms:
    """Assemble every eta*-dependent operator of the fluid substep.

    Entries depend on the wall only through values/slopes at quadrature
    points, so equal profiles produce bit-identical matrices.
    """
    free = fluid.free
    R = fluid.domain.R
    w_q, s_q = fluid.wall_samples(profile_star_n, R=R, reduced=False)
    w1_q, s1_q = fluid.wall_samples(profile_star_n, R=R, reduced=True)
    w_next = R + profile_star_np1.value(fluid.q_full.z)
    delta_q = w_next - w_q

    csr = layout.fluid_csr
    M_eta = csr(element_mass(fluid, w_q))
    M_delta = csr(element_mass(fluid, delta_q))
    M_sq = csr(element_mass(fluid, w_q * w_q))
    K = csr(element_viscous(fluid, w_q, s_q))
    P = csr(element_penalty(fluid, w1_q, s1_q))
    f_in_full, f_out_full = assemble_flux_vectors_full(fluid)

    return AssembledForms(
        M_eta=M_eta,
        M_delta=M_delta,
        M_sq=M_sq,
        K=K,
        P=P,
        flux_in=f_in_full[free],
        flux_out=f_out_full[free],
        M_s=structure.M,
        S1=structure.S1,
        S2=structure.S2,
        w_q=w_q,
        s_q=s_q,
    )


def assemble_advection(
    fluid: FluidSpace,
    layout: CoupledLayout,
    forms: AssembledForms,
    u_free: np.ndarray,
    v_beam: np.ndarray,
) -> sp.csr_matrix:
    """Skew transport operator for the frozen field a = u - v r e_r, with
    the wall velocity evaluated from its Hermite representation at the
    quadrature abscissae."""
    q = fluid.q_full
    u_full = fluid.scatter(u_free)
    nodal = u_full.reshape(-1, 2)[fluid.cells]            # (ncell, 4, 2)
    a_z = np.einsum("aq,ca->cq", q.N, nodal[:, :, 0])
    a_r = np.einsum("aq,ca->cq", q.N, nodal[:, :, 1])
    v_profile = layout.structure.profile(v_beam)
    a_r = a_r - v_profile.value(q.z.ravel()).reshape(q.z.shape) * q.r
    return layout.fluid_csr(element_advection(fluid, forms.w_q, forms.s_q, a_z, a_r))


# ----------------------------------------------------------------------
# fractional Sobolev norm of the wall gap


class HsForm:
    """Quadratic form computing || R + eta ||_{H^s(0,L)}^2 on one beam mesh.

    The norm is  || R+eta ||_{L^2}^2  +  [ d_z(R+eta) ]_{H^{s-1}}^2  with
    the Gagliardo double integral for the seminorm.  The double integral
    is evaluated once per (mesh, s) as a matrix in the Hermite DOFs:
    composite Gauss over (0,L)^2 away from a diagonal band |z - zeta| <
    h_band, plus the analytic band correction

        Int g'(z)^2 * [min(h,z)^(2-2sig) + min(h,L-z)^(2-2sig)]/(2-2sig) dz,

    which assumes local C^1 behavior of g = eta' inside the band.  After
    construction, evaluating the norm is a single small mat-vec.
    """

    def __init__(self, structure: StructureSpace, s: float, h_band: float | None = None,
                 n_outer: int = 6, n_inner: int = 8, n_graded: int = 16):
        if not (1.5 < s < 2.0):
            raise ConfigError(f"physics.s: must lie in (3/2, 2), got {s}")
        self.s = s
        sigma = s - 1.0
        self.sigma = sigma
        st = structure
        L, n_el, h_el = st.L, st.n_el, st.h
        if h_band is None:
            h_band = h_el / 32.0
        self.h_band = h_band

        def dbasis(z):
            """phi'_a(z) for all full DOFs; (len(z), ndof_full)."""
            z = np.atleast_1d(np.asarray(z, dtype=float))
            idx = np.clip(np.floor(z / h_el).astype(int), 0, n_el - 1)
            xi = z / h_el - idx
            out = np.zeros((z.size, st.ndof_full))
            d = np.stack([
                6 * xi * (xi - 1) / h_el,
                1 + xi * (3 * xi - 4),
                6 * xi * (1 - xi) / h_el,
                xi * (3 * xi - 2),
            ], axis=1)
            for a in range(4):
                out[np.arange(z.size), 2 * idx + a] = d[:, a]
            return out

        def ddbasis(z):
            z = np.atleast_1d(np.asarray(z, dtype=float))
            idx = np.clip(np.floor(z / h_el).astype(int), 0, n_el - 1)
            xi = z / h_el - idx
            out = np.zeros((z.size, st.ndof_full))
            d = np.stack([
                (12 * xi - 6) / (h_el * h_el),
                (6 * xi - 4) / h_el,
                (6 - 12 * xi) / (h_el * h_el),
                (6 * xi - 2) / h_el,
            ], axis=1)
            for a in range(4):
                out[np.arange(z.size), 2 * idx + a] = d[:, a]
            return out

        gx, gw = _GAUSS[n_outer]
        zo = ((gx + 1) / 2)[None, :] * h_el + np.arange(n_el)[:, None] * h_el
        wo = np.tile(gw * h_el / 2, n_el)
        zo = zo.ravel()
        Bo = dbasis(zo)

        gxi, gwi = _GAUSS[n_inner]
        Q = np.zeros((st.ndof_full, st.ndof_full))
        breaks = np.linspace(0.0, L, n_el + 1)
        for i in range(zo.size):
            zi = zo[i]
            pieces = []
            for lo, hi in ((0.0, zi - h_band), (zi + h_band, L)):
                if hi <= lo:
                    continue
                pts = [lo] + [b for b in breaks if lo < b < hi] + [hi]
                # geometric grading toward the band edge inside the
                # adjacent piece (integrand ~ |t|^(1-2*sigma) there)
                edge = zi - h_band if hi <= zi else zi + h_band
                for a, b in zip(pts[:-1], pts[1:]):
                    if (hi <= zi and b == edge) or (lo >= zi and a == edge):
                        width = b - a
                        fracs = width * 0.5 ** np.arange(n_graded, 0, -1)
                        sub = [a] + list(a + fracs) + [b] if lo >= zi else \
                              [a] + list(b - fracs[::-1]) + [b]
                        sub = sorted(set(sub))
                        pieces.extend(zip(sub[:-1], sub[1:]))
                    else:
                        pieces.append((a, b))
            if not pieces:
                continue
            a_arr = np.array([p[0] for p in pieces])
            b_arr = np.array([p[1] for p in pieces])
            zeta = (a_arr[:, None] + b_arr[:, None]) / 2 + (b_arr - a_arr)[:, None] / 2 * gxi[None, :]
            wz = (b_arr - a_arr)[:, None] / 2 * gwi[None, :]
            zeta = zeta.ravel()
            wz = wz.ravel()
            D = Bo[i][None, :] - dbasis(zeta)
            kern = wz / np.abs(zi - zeta) ** (1 + 2 * sigma)
            Q += wo[i] * np.einsum("j,ja,jb->ab", kern, D, D, optimize=True)

        # band correction: quadrature with breakpoints at element nodes
        # and at h_band, L - h_band where the weight has kinks
        cb = sorted(set(list(breaks) + [h_band, L - h_band]))
        gxc, gwc = _GAUSS[8]
        zc, wc = [], []
        for a, b in zip(cb[:-1], cb[1:]):
            zc.append((a + b) / 2 + (b - a) / 2 * gxc)
            wc.append((b - a) / 2 * gwc)
        zc = np.concatenate(zc)
        wc = np.concatenate(wc)
        corr_w = (np.minimum(h_band, zc) ** (2 - 2 * sigma)
                  + np.minimum(h_band, L - zc) ** (2 - 2 * sigma)) / (2 - 2 * sigma)
        Bc = ddbasis(zc)
        Q += np.einsum("j,ja,jb->ab", wc * corr_w, Bc, Bc, optimize=True)

        fr = st.free
        self.Q = Q[np.ix_(fr, fr)]
        self.M = st.M
        self.lin = st.lin
        self.L = L

    def norm(self, eta_free: np.ndarray, R: float) -> float:
        e = np.asarray(eta_free, dtype=float)
        l2sq = R * R * self.L + 2 * R * (self.lin @ e) + e @ self.M @ e
        return float(np.sqrt(l2sq + e @ self.Q @ e))


@lru_cache(maxsize=32)
def _hs_form_cached(L: float, n_el: int, s: float, h_band) -> HsForm:
    return HsForm(StructureSpace(L, n_el), s, h_band)


def hs_norm(profile: WallProfile, R: float, s: float, h_band: float | None = None) -> float:
    """|| R + eta ||_{H^s(0,L)} for s in (3/2, 2); see HsForm."""
    if not (1.5 < s < 2.0):
        raise ConfigError(f"physics.s: must lie in (3/2, 2), got {s}")
    form = _hs_form_cached(profile.L, profile.n_el, float(s), h_band)
    st = StructureSpace(profile.L, profile.n_el)
    return form.norm(st.from_profile(profile), R)
