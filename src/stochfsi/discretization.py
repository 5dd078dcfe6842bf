"""Finite-element spaces and assembly on the fixed reference channel.

Fluid velocity: bilinear Q1 per component on a structured nz x nr quad
mesh of O = (0,L) x (0,1), with essential masks

    u_z = 0 on the top boundary (the moving-wall trace direction is
    vertical), u_r = 0 on inlet, outlet and bottom.

Masked degrees of freedom are eliminated (rows/columns removed), never
penalized.  Natural conditions are left to the weak form.

Structure displacement and velocity: cubic Hermite beam elements on a
uniform partition of (0,L), one per cell column, clamped at both ends by
removing the end value and slope DOFs.  The wall velocity lives in this
space at every level; ``CoupledLayout`` identifies its interior nodal
values with the fluid's top-row vertical DOFs.

All fluid integrals use tensor 2x2 Gauss except the divergence penalty,
which is integrated with the 1-point (reduced) rule to avoid Q1 penalty
locking.  The beam matrices use 4-point Gauss per element, which is
exact for every polynomial integrand appearing there (up to the degree-6
products of two cubics).  The H^s form's Gagliardo double integral is
not polynomial: it uses 6-point Gauss for the outer variable, 8-point
Gauss for the inner one on pieces graded toward the excluded diagonal
band, and 8-point Gauss for the band correction (see ``HsForm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor
from scipy.sparse import _sparsetools

from .errors import ConfigError, DegenerateJacobian
from .geometry import ReferenceDomain, WallProfile, hermite_shapes, locate

_GAUSS = {n: np.polynomial.legendre.leggauss(n) for n in (1, 2, 4, 6, 8)}


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


def _products(q: _QuadCache, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Weighted products wq A_i B_j of two (4, nq) shape tables, (nq, 16)."""
    return q.wq[:, None] * (A.T[:, :, None] * B.T[:, None, :]).reshape(-1, 16)


# The pulled-back gradients Gz = dz - t dr and Gr = dr / w, with
# t = r eta'/(R + eta), make every product G_i G_j of a Gram form linear in
# six per-point coefficients b * (1, t, t^2, 1/w^2, 1/w, t/w), b the form's
# weight.  A form's component blocks are sums of the four gradient Grams
# (Gz Gz, Gz Gr, Gr Gz, Gr Gr), indexed [row component, column component,
# Gram]: 2 D(u):D(q) for the viscous form, div u div q for the penalty.
_VISCOUS = np.array([[[2, 0, 0, 1], [0, 0, 1, 0]],
                     [[0, 1, 0, 0], [1, 0, 0, 2]]])
_PENALTY = np.array([[[1, 0, 0, 0], [0, 1, 0, 0]],
                     [[0, 0, 1, 0], [0, 0, 0, 1]]])


def _gram_table(q: _QuadCache, combine: np.ndarray) -> np.ndarray:
    """(6 nq, 64) table taking the six pull-back coefficients at each point
    to the (2, 2, 4, 4) element blocks of a gradient Gram form."""
    zz, zr, rz, rr = (_products(q, A, B) for A, B in (
        (q.dNdz, q.dNdz), (q.dNdz, q.dNdr), (q.dNdr, q.dNdz), (q.dNdr, q.dNdr)))
    o = np.zeros_like(zz)
    grams = np.array([
        [zz, -(zr + rz), rr, o, o, o],   # Gz_i Gz_j
        [o, o, o, o, zr, -rr],           # Gz_i Gr_j
        [o, o, o, o, rz, -rr],           # Gr_i Gz_j
        [o, o, o, rr, o, o],             # Gr_i Gr_j
    ])                                   # (4, 6, nq, 16)
    table = np.einsum("pqg,gkxe->kxpqe", combine, grams)
    return table.reshape(-1, 64)


def _advection_table(q: _QuadCache, hz: float) -> np.ndarray:
    """(4 nq, 192) table taking per-point coefficients (w, w t, 1, r) to
    the map from a cell's 12 transport inputs to its 16 entries of
    Int w N_i (a . grad^eta) N_j, before the skew part is taken.

    The inputs are u_z and u_r at the four nodes, then the four Hermite
    DOFs of the wall element above the cell, whose velocity v enters the
    transport as a_r = u_r - v r.  The wall element spans the cell column
    and the 2x2 rule's axial abscissae are the Hermite 2-point ones, so the
    Hermite shapes at the points are the same on every element.
    """
    _, _, H, _, _ = _hermite_tables(hz, 2)
    Hq = np.repeat(H, 2, axis=1)                 # point k has axial index k // 2
    nq = q.wq.size
    a_z, a_r, a_wall = np.zeros((3, nq, 12))
    a_z[:, :4] = q.N.T
    a_r[:, 4:8] = q.N.T
    a_wall[:, 8:] = -Hq.T
    n_dz, n_dr = _products(q, q.N, q.dNdz), _products(q, q.N, q.dNdr)
    table = np.array([                           # (4, nq, 16, 12)
        n_dz[:, :, None] * a_z[:, None, :],      # w   : a_z dz
        -n_dr[:, :, None] * a_z[:, None, :],     # w t : -a_z t dr
        n_dr[:, :, None] * a_r[:, None, :],      # 1   : u_r dr (w cancels)
        n_dr[:, :, None] * a_wall[:, None, :],   # r   : -v r dr
    ])
    return table.reshape(4 * nq, 16 * 12)


class FluidSpace:
    """Q1 velocity space with boundary masks on the reference channel.

    The mesh is uniform, so the products of shape functions and their
    derivatives at the quadrature points are the same in every cell; each
    form's table of them is built here once, and an element kernel is one
    matmul of per-point coefficients against it.  The inlet and outlet
    flux vectors do not move with the wall and are built here too.
    """

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

        # per node (u_z, u_r): u_z = 0 on top, u_r = 0 on the sides and bottom
        self.masked = np.stack([IR == nr, (IZ == 0) | (IZ == nz) | (IR == 0)], axis=-1).ravel()
        self.free = np.flatnonzero(~self.masked)
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
        # every cell row has the first row's quadrature z, and point k of the
        # full rule has axial index k // 2: the wall is sampled once at the
        # full rule's 2 nz abscissae then the reduced rule's nz, and
        # ``_full_at``/``_reduced_at`` give each cell's points among them
        self.wall_z = np.concatenate([self.q_full.z[:nz, ::2].ravel(), self.q_reduced.z[:nz, 0]])
        self._full_at = 2 * cz[:, None] + np.arange(4) // 2
        self._reduced_at = 2 * nz + cz[:, None]
        self.mass_table = _products(self.q_full, self.q_full.N, self.q_full.N)
        self.viscous_table = _gram_table(self.q_full, _VISCOUS)
        self.penalty_table = _gram_table(self.q_reduced, _PENALTY)
        self.advection_table = _advection_table(self.q_full, self.hz)
        self.flux_in, self.flux_out = (f[self.free] for f in assemble_flux_vectors_full(self))

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

    def interpolate(self, f_z, f_r) -> np.ndarray:
        """Nodal interpolation of a velocity field, masked DOFs zeroed;
        returns the free-DOF vector."""
        full = np.empty(self.ndof)
        full[0::2] = f_z(self.node_z, self.node_r)
        full[1::2] = f_r(self.node_z, self.node_r)
        full[self.masked] = 0.0
        return full[self.free]

    # -- geometry samples -------------------------------------------------
    def wall_samples(self, profile: WallProfile, R: float):
        """(w_q, s_q, w1_q, s1_q): R+eta and eta' at the full-rule points,
        (ncell, 4), then at the reduced-rule points, (ncell, 1).  One
        ``value`` and one ``slope`` call sample the wall at ``wall_z``, the
        distinct axial abscissae, and each cell reads its points from
        them, bit for bit the samples at ``q.z``."""
        w = R + profile.value(self.wall_z)
        s = profile.slope(self.wall_z)
        return w[self._full_at], s[self._full_at], w[self._reduced_at], s[self._reduced_at]


def _pullback_coefficients(w_q, s_q, r_q, weight) -> np.ndarray:
    """The six per-point coefficients of a gradient Gram form (see
    ``_gram_table``), (ncell, 6 nq); ``weight`` is the form's own weight,
    an array shaped like ``w_q`` or a scalar (the penalty's 1, whose
    products are exact)."""
    if (w_q <= 0.0).any():
        raise DegenerateJacobian(
            f"R + eta <= 0 at a quadrature point (min {w_q.min():.6g}); "
            "the cutoff should have prevented this geometry"
        )
    inv = 1.0 / w_q
    t = r_q * s_q * inv
    return np.concatenate([np.full_like(w_q, weight), weight * t, weight * t * t,
                           weight * inv * inv, weight * inv, weight * t * inv], axis=1)


def element_mass(fs: FluidSpace, w_q: np.ndarray) -> np.ndarray:
    """Scalar (ncell, 16) element blocks of the mass with weight w(z)
    sampled at the full-rule points; the same block acts on each velocity
    component."""
    return w_q @ fs.mass_table


def element_viscous(fs: FluidSpace, w_q, s_q) -> np.ndarray:
    """(ncell, 64) element blocks of the pulled-back viscous form
    2*Int (R+eta) D^eta(phi_j) : D^eta(phi_i), indexed [cell, row
    component, column component, row node, column node].

    The kinematic viscosity is applied by the caller, so the assembled
    operator is exactly twice the weighted symmetric-gradient Gram matrix.
    """
    return _pullback_coefficients(w_q, s_q, fs.q_full.r, w_q) @ fs.viscous_table


def element_penalty(fs: FluidSpace, w1_q, s1_q) -> np.ndarray:
    """(ncell, 64) element blocks, laid out as ``element_viscous``'s, of
    the div^eta . div^eta Gram matrix with the reduced (1-point) rule."""
    return _pullback_coefficients(w1_q, s1_q, fs.q_reduced.r, 1.0) @ fs.penalty_table


def assemble_flux_vectors_full(fs: FluidSpace):
    """Load vectors of Int_0^1 q_z|_{z=0} dr and Int_0^1 q_z|_{z=L} dr."""
    inlet = np.arange(fs.nr + 1) * (fs.nz + 1)  # the nodes at z = 0, bottom to top
    w = np.full(fs.nr + 1, fs.hr)
    w[[0, -1]] = fs.hr / 2
    f_in, f_out = np.zeros((2, fs.ndof))
    f_in[2 * inlet] = w
    f_out[2 * (inlet + fs.nz)] = w
    return f_in, f_out


# ----------------------------------------------------------------------
# structure space (clamped Hermite beam)


def _hermite_tables(h: float, rule: int = 4):
    """Value/derivative tables of the four local Hermite shapes at Gauss
    points of [0,1], scaled to an element of width h."""
    x1, w1 = _GAUSS[rule]
    xi = (x1 + 1) / 2
    H, dH, ddH = (np.stack(hermite_shapes(xi, h, deriv)) for deriv in range(3))
    return xi, w1 * h / 2, H, dH, ddH


def _add_blocks(Q: np.ndarray, dofs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Add (k, m, m) element blocks, in order, onto the full beam matrix Q
    at each block's (k, m) DOFs; returns Q."""
    np.add.at(Q, (dofs[:, :, None], dofs[:, None, :]), blocks)
    return Q


class StructureSpace:
    """Clamped Hermite beam on n_el uniform elements of (0, L).

    DOF layout (full): [val_0, slope_0, val_1, slope_1, ...]; the free
    vector drops both DOFs of the two end nodes.  ``element_dofs[e]`` are
    the four full DOFs of element e.
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

        self.element_dofs = 2 * np.arange(n_el)[:, None] + np.arange(4)

        _, wq, H, dH, ddH = _hermite_tables(self.h)
        M, S1, S2 = (_add_blocks(np.zeros((self.ndof_full,) * 2), self.element_dofs,
                                 np.einsum("q,aq,bq->ab", wq, D, D)) for D in (H, dH, ddH))
        self.M = M[np.ix_(self.free, self.free)]
        # the stiffness of the beam energy, H^1 plus H^2 seminorm
        self.S = (S1 + S2)[np.ix_(self.free, self.free)]
        # Int phi_a dz, for || R + eta ||_{L^2}^2 = R^2 L + 2 R l.eta + eta.M.eta
        # the values are broadcast by hand: numpy 2.4's add.at reads past a
        # 1-D value array that it should broadcast against a 2-D index
        l_full = np.zeros(self.ndof_full)
        np.add.at(l_full, self.element_dofs,
                  np.broadcast_to(np.einsum("q,aq->a", wq, H), self.element_dofs.shape))
        self.lin = l_full[self.free]
        self._step_factors = {}

    def step_factor(self, dt: float):
        """``cho_factor`` of M + dt^2 S, the structure substep's matrix,
        made on the first call for each dt: problems derived for another
        N share this space and step with their own dt."""
        if dt not in self._step_factors:
            self._step_factors[dt] = cho_factor(self.M + dt * dt * self.S)
        return self._step_factors[dt]

    def profile(self, vec_free: np.ndarray) -> WallProfile:
        full = np.zeros(self.ndof_full)
        full[self.free] = vec_free
        return WallProfile(self.L, full[0::2], full[1::2])

    def gap_l2_sq(self, vec_free: np.ndarray, R: float) -> float:
        """|| R + eta ||_{L^2(0,L)}^2, shared by the H^2 and the H^s norm."""
        e = np.asarray(vec_free, dtype=float)
        return R * R * self.L + 2 * R * (self.lin @ e) + e @ self.M @ e

    def h2_norm_of_gap(self, vec_free: np.ndarray, R: float) -> float:
        """|| R + eta ||_{H^2(0,L)} with the full L2 + H1 + H2 seminorms."""
        e = np.asarray(vec_free, dtype=float)
        return float(np.sqrt(self.gap_l2_sq(e, R) + e @ self.S @ e))


class CoupledLayout:
    """Index maps realizing the kinematic coupling, and the one sparsity
    pattern of every matrix the fluid substep uses.

    The wall velocity lives in the clamped Hermite space.  Its interior
    nodal *values* are identified with the fluid's interior top-row
    vertical DOFs (the constraint u(z,1) = v(z) e_r holds exactly at the
    top-boundary fluid nodes); its interior nodal *slopes* ride along as
    extra unknowns of the coupled fluid solve.  The coupled vector is

        x = [fluid free DOFs | interior wall slopes],

    and ``beam_to_x`` maps beam-free indices into x, value DOFs landing on
    the shared fluid entries.

    Every fluid form lives on the reference mesh, so the wall moves its
    coefficients but never its sparsity.  One pattern is built here: the
    column-major pattern (``indptr``, ``indices``) of the coupled matrix
    on x, the fluid entries plus the beam mass at the wall-velocity
    positions.  A matrix is its data array on it; a fluid form holds zeros
    in the slots only the beam mass uses, and ``beam_mass`` is the beam
    mass's own (read-only) data.  ``matvec`` multiplies by a data array
    with the compiled kernel that scipy's ``A @ x`` runs, so its products
    are bit-identical to scipy's.  ``factor_matrix`` hands a data array
    to a factorization in the layout's one scipy matrix, built here, so
    scipy checks the pattern once per mesh; ``csc`` and ``csr`` (its
    fluid block) build independent scipy matrices for tests and oracles.
    Element blocks reach the pattern by one scatter per block shape:
    ``scalar_data`` for (ncell, 16) blocks acting alike on each velocity
    component, ``vector_data`` for (ncell, 64) ones.  A symmetric fluid
    form goes to a banded Cholesky through ``lower_band``, in the
    short-direction-first order ``band_perm``, which ``band_flux`` (the
    inlet and outlet flux vectors as two columns) is kept in too.
    """

    def __init__(self, fluid: FluidSpace, structure: StructureSpace):
        if structure.n_el != fluid.nz:
            raise ConfigError(
                f"layout: the beam's n_el ({structure.n_el}) must equal nz ({fluid.nz})"
            )
        self.fluid = fluid
        self.structure = structure
        # vertical velocity at the interior top-row nodes, by increasing z
        nz, nr = fluid.nz, fluid.nr
        self.shared_free = fluid.full_to_free[2 * (nr * (nz + 1) + np.arange(1, nz)) + 1]
        n_int = structure.n_el - 1          # interior beam nodes
        n_free = fluid.n_free
        self.n_x = n_x = n_free + n_int
        # beam free ordering is (value, slope) per interior node
        beam_to_x = np.empty(structure.n_free, dtype=int)
        beam_to_x[0::2] = self.shared_free
        beam_to_x[1::2] = n_free + np.arange(n_int)
        self.beam_to_x = beam_to_x

        # entry [c, p, q, a, b] of the (ncell, 64) element blocks couples
        # component p of node cells[c, a] with component q of node
        # cells[c, b]; entries on masked DOFs drop out.  The pattern's
        # slots, column-major, are those entries and the beam mass's.
        dof = fluid.full_to_free[2 * fluid.cells[:, None, :] + np.arange(2)[:, None]]
        rows, cols = (a.ravel() for a in np.broadcast_arrays(
            dof[:, :, None, :, None], dof[:, None, :, None, :]))
        self._keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        b_rows, b_cols = np.nonzero(structure.M)
        keys, slot = np.unique(
            np.concatenate([cols[self._keep], beam_to_x[b_cols]]) * n_x
            + np.concatenate([rows[self._keep], beam_to_x[b_rows]]),
            return_inverse=True,
        )
        self._slot = slot[:self._keep.size]
        x_cols, x_rows = np.divmod(keys, n_x)
        self.indices = x_rows.astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(x_cols, minlength=n_x))]).astype(np.int32)
        self.beam_mass = np.zeros(keys.size)
        self.beam_mass[slot[self._keep.size:]] = structure.M[b_rows, b_cols]
        # the slots of a scalar (ncell, 16) block put on both components
        c, p, q, ab = np.unravel_index(self._keep, (len(fluid.cells), 2, 2, 16))
        self._diag_slot = self._slot[p == q]
        self._diag_src = (16 * c + ab)[p == q]

        # band of a symmetric form on the fluid slots: the free DOFs in
        # the order (iz, ir, component) when nz >= nr, else (ir, iz,
        # component), so the band spans one line across the shorter
        # direction; each lower-triangle slot's flat position in the
        # (band_width + 1, n_free) lower band of scipy's cholesky_banded
        node, comp = np.divmod(fluid.free, 2)
        ir, iz = np.divmod(node, nz + 1)
        self.band_perm = np.lexsort((comp, ir, iz) if nz >= nr else (comp, iz, ir))
        pos = np.empty(n_free, dtype=int)
        pos[self.band_perm] = np.arange(n_free)
        fluid_slot = np.flatnonzero(np.maximum(x_rows, x_cols) < n_free)
        col_pos = pos[x_cols[fluid_slot]]
        diag = pos[x_rows[fluid_slot]] - col_pos
        self.band_width = int(diag.max())
        self._band_slot = fluid_slot[diag >= 0]
        self._band_flat = (diag * n_free + col_pos)[diag >= 0]
        self.band_flux = np.stack([fluid.flux_in, fluid.flux_out], axis=1)[self.band_perm]

        # inputs of a cell's advection map in x padded by one zero: u_z and
        # u_r at its nodes, then the Hermite DOFs of the wall element above
        # it; masked fluid and clamped wall DOFs read the padded zero
        x_pad = np.where(fluid.masked, n_x, fluid.full_to_free)
        beam_pad = np.full(structure.ndof_full, n_x)
        beam_pad[structure.free] = beam_to_x
        column = np.arange(len(fluid.cells)) % nz
        self._adv_inputs = np.concatenate([
            x_pad[2 * fluid.cells], x_pad[2 * fluid.cells + 1],
            beam_pad[structure.element_dofs[column]]], axis=1)
        self._x_pad = np.zeros(n_x + 1)  # advection_data's copy of x
        self._vector_shapes = frozenset({(n_free,), (n_x,)})  # what matvec accepts
        for pattern in (self.indices, self.indptr, self.beam_mass, self.band_perm,
                        self._band_slot, self._band_flat, self.band_flux):
            pattern.setflags(write=False)  # shared by every matrix built on it
        self._factor_shell = self.csc(np.zeros(self.indices.size))

    def csc(self, data: np.ndarray) -> sp.csc_matrix:
        """The matrix on x with a data array on the pattern, a new scipy
        matrix on each call."""
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n_x, self.n_x))

    def factor_matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The matrix on x with a data array on the pattern, for a
        factorization: the layout's one scipy matrix, its ``data`` rebound
        to ``data`` itself, so scipy checks the pattern's format once per
        mesh, not once per factor.  It holds the caller's array until the
        next call rebinds it; ``splu`` copies what it factors, so a factor
        outlives both.  Data not sized to the pattern raises ValueError."""
        if data.shape != self.indices.shape:
            raise ValueError(f"matrix on a pattern of {self.indices.size} slots: "
                             f"got data {data.shape}")
        self._factor_shell.data = data
        return self._factor_shell

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The free-DOF fluid block of ``csc(data)``, row-major."""
        n = self.fluid.n_free
        return self.csc(data)[:n, :n].tocsr()

    def matvec(self, data: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``csc(data)[:k, :k] @ x`` for x of length k, the free fluid DOFs
        or all of x, bit for bit: scipy's compiled kernel on the leading k
        columns, which adds A[i, j] x[j] into y[i] in ascending j.  It
        indexes data and x without bounds checks, so their lengths are
        checked here (ValueError)."""
        if data.shape != self.indices.shape or x.shape not in self._vector_shapes:
            raise ValueError(f"mat-vec on a pattern of {self.indices.size} slots: "
                             f"got data {data.shape} and x {x.shape}")
        y = np.zeros(self.n_x)
        _sparsetools.csc_matvec(self.n_x, x.size, self.indptr, self.indices, data, x, y)
        return y[:x.size]

    def lower_band(self, data: np.ndarray) -> np.ndarray:
        """The (band_width + 1, n_free) lower band, in ``band_perm`` order,
        of the fluid block of the symmetric matrix with a data array on the
        pattern: entry [i - j, j] is A[i, j] for i >= j, the layout read by
        ``scipy.linalg.cholesky_banded(..., lower=True)``."""
        n = self.fluid.n_free
        band = np.zeros((self.band_width + 1) * n)
        band[self._band_flat] = data[self._band_slot]
        return band.reshape(self.band_width + 1, n)

    def scalar_data(self, blocks: np.ndarray) -> np.ndarray:
        """Pattern data summing scalar (ncell, 16) element blocks, each put
        on both velocity components."""
        return np.bincount(self._diag_slot, weights=blocks.ravel()[self._diag_src],
                           minlength=self.indices.size)

    def vector_data(self, blocks: np.ndarray) -> np.ndarray:
        """Pattern data summing (ncell, 64) element blocks, indexed [cell,
        row component, column component, row node, column node]."""
        return np.bincount(self._slot, weights=blocks.ravel()[self._keep],
                           minlength=self.indices.size)

    def advection_data(self, adv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Pattern data of the skew advection operator for the transport
        field of the coupled vector x, from the per-step map ``adv`` built
        by ``assemble_advection``.  x is written into the layout's one
        padded buffer, whose last entry stays zero for the masked and
        clamped inputs to read; the next call overwrites it, so, like
        ``factor_matrix``'s shell, it serves one path at a time.  The
        gather from the buffer copies, so no result shares its memory."""
        self._x_pad[:-1] = x
        return self.scalar_data(adv @ self._x_pad[self._adv_inputs][:, :, None])


def build_spaces(domain: ReferenceDomain):
    """Construct the fluid, structure and coupling layout for one domain;
    the beam nodes are collocated with the top-boundary fluid nodes."""
    fluid = FluidSpace(domain)
    structure = StructureSpace(domain.L, domain.nz)
    layout = CoupledLayout(fluid, structure)
    return fluid, structure, layout


# ----------------------------------------------------------------------
# assembled forms for one time level


@dataclass
class AssembledForms:
    """Every operator of the fluid substep that moves with eta*, at one
    level of eta*.

    All fluid matrices act on the free DOFs, each as its data array on
    the layout's one pattern, zero in the slots only the beam mass uses
    (``CoupledLayout.matvec`` multiplies by one).  ``M_eta`` carries
    weight R + eta*, ``M_sq`` weight (R + eta*)^2 for the Hilbert-Schmidt
    norm of the noise operator.  ``K`` is the viscous form including its
    factor 2 (apply nu externally), ``P`` the reduced integration
    divergence penalty (apply 1/eps externally).  ``w_q`` and ``s_q`` are
    R + eta* and its slope at the full-rule points.  The beam matrices and
    the flux vectors do not move; they live on ``StructureSpace`` and
    ``FluidSpace``.
    """

    M_eta: np.ndarray
    M_sq: np.ndarray
    K: np.ndarray
    P: np.ndarray
    w_q: np.ndarray
    s_q: np.ndarray


def assemble_all(fluid: FluidSpace, layout: CoupledLayout,
                 profile: WallProfile) -> AssembledForms:
    """Assemble every eta*-dependent operator of the fluid substep at the
    level whose wall is ``profile``.

    Entries depend on the wall only through values/slopes at quadrature
    points, so equal profiles produce bit-identical matrices.
    """
    w_q, s_q, w1_q, s1_q = fluid.wall_samples(profile, R=fluid.domain.R)

    scalar, vector = layout.scalar_data, layout.vector_data
    return AssembledForms(
        M_eta=scalar(element_mass(fluid, w_q)),
        M_sq=scalar(element_mass(fluid, w_q * w_q)),
        K=vector(element_viscous(fluid, w_q, s_q)),
        P=vector(element_penalty(fluid, w1_q, s1_q)),
        w_q=w_q,
        s_q=s_q,
    )


def assemble_advection(fluid: FluidSpace, forms: AssembledForms) -> np.ndarray:
    """The skew transport operator of one fluid substep as a linear map of
    the transport field, (ncell, 16, 12).

    The form  ½ Int (R+eta) [(a . grad^eta) u . q - (a . grad^eta) q . u]
    is linear in a = u - v r e_r, and the pull-back is frozen for the
    whole step, so the map from a cell's 12 transport inputs (see
    ``CoupledLayout.advection_data``) to its scalar element block is built
    once per step; each Picard iterate then only applies it.  Taking the
    skew part here makes every applied block skew by construction; the
    same block acts on each velocity component.
    """
    q = fluid.q_full
    t = q.r * forms.s_q / forms.w_q
    coef = np.concatenate([forms.w_q, forms.w_q * t, np.ones_like(t), q.r], axis=1)
    ns = (coef @ fluid.advection_table).reshape(-1, 4, 4, 12)
    return (0.5 * (ns - ns.transpose(0, 2, 1, 3))).reshape(-1, 16, 12)


# ----------------------------------------------------------------------
# fractional Sobolev norm of the wall gap


# Gauss orders of the outer and inner rules of the Gagliardo double
# integral, the number of halvings grading the inner rule toward the
# excluded diagonal band, and the element width over the band half-width
_HS_OUTER, _HS_INNER, _HS_GRADED, _HS_BAND = 6, 8, 16, 32


def _gauss_on(ends, rule):
    """Gauss points and weights on the intervals between consecutive
    ``ends`` (along the last axis), flattened along it."""
    x, w = _GAUSS[rule]
    a, b = ends[..., :-1, None], ends[..., 1:, None]
    shape = ends.shape[:-1] + (-1,)
    return ((a + b) / 2 + (b - a) / 2 * x).reshape(shape), ((b - a) / 2 * w).reshape(shape)


def _graded(a, b):
    """Ends of the split of [a, b] into pieces halving toward a."""
    g = np.append(0.0, 0.5 ** np.arange(_HS_GRADED, -1, -1))
    return a[..., None] + (b - a)[..., None] * g


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

    def __init__(self, structure: StructureSpace, s: float):
        if not (1.5 < s < 2.0):
            raise ConfigError(f"physics.s: must lie in (3/2, 2), got {s}")
        sigma = s - 1.0
        st = structure
        L, n_el, h = st.L, st.n_el, st.h
        h_band = h / _HS_BAND
        el = st.element_dofs

        def dH(x):
            return np.stack(hermite_shapes(x, h, 1), axis=-1)

        # Local rules on [0, 1]: the outer one, the inner one on another
        # element, and the inner one on the outer point's own element, whose
        # two pieces beside the band are graded toward it (the integrand
        # ~ |t|^(1-2*sigma) there).  The Gauss-6 points lie at least 0.0338 h
        # from their element's ends and the band half-width is h/32, so the
        # band never leaves its element, and on the uniform mesh the kernel
        # between elements e and e+d depends only on the offset d.
        unit = np.array([0.0, 1.0])
        xo, wo = _gauss_on(unit, _HS_OUTER)
        xi, wi = _gauss_on(unit, _HS_INNER)
        beta = 1.0 / _HS_BAND
        ends = np.stack([_graded(xo - beta, 0.0)[:, ::-1], _graded(xo + beta, 1.0)], axis=1)
        x_own, w_own = (a.reshape(xo.size, -1) for a in _gauss_on(ends, _HS_INNER))

        def gram(d, x, w, D):
            """Sum of kernel * D D^T over the outer points and the inner
            points x (weights w) of the element d further on, one per d."""
            kern = wo[:, None] * w / np.abs(d[:, None, None] + x - xo[:, None]) ** (1 + 2 * sigma)
            return h ** (1 - 2 * sigma) * np.einsum("dkm,kma,kmb->dab", kern, D, D)

        # one 8x8 block per offset f - e != 0 on the [outer, inner] DOFs of
        # elements e and f; the own element's 4x4 block of H'(x) - H'(xi),
        # padded, lands on [e, e] in the same scatter
        dHo = dH(xo)[:, None, :]
        D_far = np.concatenate(np.broadcast_arrays(dHo, -dH(xi)), axis=-1)
        own = np.pad(gram(np.zeros(1), x_own, w_own, dHo - dH(x_own)), ((0, 0), (0, 4), (0, 4)))
        far = np.arange(1, n_el)
        table = np.concatenate([gram(-far[::-1], xi, wi, D_far), own, gram(far, xi, wi, D_far)])
        e, f = np.divmod(np.arange(n_el * n_el), n_el)
        Q = _add_blocks(np.zeros((st.ndof_full,) * 2),
                        np.concatenate([el[e], el[f]], axis=1), table[f - e + n_el - 1])

        # band correction: quadrature with breakpoints at element nodes
        # and at h_band, L - h_band where the weight has kinks
        zc, wc = _gauss_on(np.unique(np.r_[np.linspace(0.0, L, n_el + 1), h_band, L - h_band]), 8)
        wc = wc * (np.minimum(h_band, zc) ** (2 - 2 * sigma)
                   + np.minimum(h_band, L - zc) ** (2 - 2 * sigma)) / (2 - 2 * sigma)
        idx, xc = locate(zc, h, n_el)
        ddH = np.stack(hermite_shapes(xc, h, 2), axis=-1)
        _add_blocks(Q, el[idx], wc[:, None, None] * ddH[:, :, None] * ddH[:, None, :])

        self.Q = Q[np.ix_(st.free, st.free)]
        self.structure = st

    def norm(self, eta_free: np.ndarray, R: float) -> float:
        e = np.asarray(eta_free, dtype=float)
        return float(np.sqrt(self.structure.gap_l2_sq(e, R) + e @ self.Q @ e))
