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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateJacobian
from .geometry import ReferenceDomain, WallProfile, hermite_shapes, locate

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

    def top_interior_vr_free(self) -> np.ndarray:
        """Free-DOF indices of vertical velocity at interior top-row nodes,
        ordered by increasing z.  These are the kinematically shared DOFs."""
        nz, nr = self.nz, self.nr
        out = []
        for iz in range(1, nz):
            node = nr * (nz + 1) + iz
            out.append(self.full_to_free[2 * node + 1])
        return np.asarray(out, dtype=int)

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


def _pullback_coefficients(w_q, s_q, r_q, weight) -> np.ndarray:
    """The six per-point coefficients of a gradient Gram form (see
    ``_gram_table``), (ncell, 6 nq); ``weight`` is the form's own weight."""
    if np.any(w_q <= 0.0):
        raise DegenerateJacobian(
            f"R + eta <= 0 at a quadrature point (min {w_q.min():.6g}); "
            "the cutoff should have prevented this geometry"
        )
    inv = 1.0 / w_q
    t = r_q * s_q * inv
    b = np.broadcast_to(weight, w_q.shape)
    return np.concatenate([b, b * t, b * t * t, b * inv * inv, b * inv, b * t * inv], axis=1)


def _blocks(cell_major: np.ndarray) -> np.ndarray:
    """(ncell, 64) element entries as (2, 2, ncell, 4, 4) blocks, indexed
    [row component, column component, cell, row node, column node]; a view,
    so the cell-major memory order ``fluid_csr`` reads is kept."""
    return cell_major.reshape(-1, 2, 2, 4, 4).transpose(1, 2, 0, 3, 4)


def _both_components(local: np.ndarray) -> np.ndarray:
    """A scalar (ncell, 16) block acting alike on each velocity component,
    as the element blocks of the vector form."""
    out = np.zeros((local.shape[0], 2, 2, 16))
    out[:, 0, 0] = out[:, 1, 1] = local
    return _blocks(out)


def element_mass(fs: FluidSpace, w_q: np.ndarray) -> np.ndarray:
    """Element blocks of the mass with scalar weight w(z) sampled at the
    full-rule points; the same block acts on each velocity component."""
    return _both_components(w_q @ fs.mass_table)


def element_viscous(fs: FluidSpace, w_q, s_q) -> np.ndarray:
    """Element blocks of the pulled-back viscous form
    2*Int (R+eta) D^eta(phi_j) : D^eta(phi_i).

    The kinematic viscosity is applied by the caller, so the assembled
    operator is exactly twice the weighted symmetric-gradient Gram matrix.
    """
    coef = _pullback_coefficients(w_q, s_q, fs.q_full.r, w_q)
    return _blocks(coef @ fs.viscous_table)


def element_penalty(fs: FluidSpace, w1_q, s1_q) -> np.ndarray:
    """Element blocks of the div^eta . div^eta Gram matrix with the
    reduced (1-point) rule."""
    coef = _pullback_coefficients(w1_q, s1_q, fs.q_reduced.r, 1.0)
    return _blocks(coef @ fs.penalty_table)


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
    H, dH, ddH = (np.stack(hermite_shapes(xi, h, deriv)) for deriv in range(3))
    return xi, w1 * h / 2, H, dH, ddH


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

    def gap_l2_sq(self, vec_free: np.ndarray, R: float) -> float:
        """|| R + eta ||_{L^2(0,L)}^2, shared by the H^2 and the H^s norm."""
        e = np.asarray(vec_free, dtype=float)
        return R * R * self.L + 2 * R * (self.lin @ e) + e @ self.M @ e

    def h2_norm_of_gap(self, vec_free: np.ndarray, R: float) -> float:
        """|| R + eta ||_{H^2(0,L)} with the full L2 + H1 + H2 seminorms."""
        e = np.asarray(vec_free, dtype=float)
        return float(np.sqrt(self.gap_l2_sq(e, R) + e @ self.S1 @ e + e @ self.S2 @ e))


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

        # fluid pattern: entry [c, p, q, a, b] of the cell-major element
        # blocks couples component p of node cells[c, a] with component q
        # of node cells[c, b]; entries on masked DOFs drop out
        dof = fluid.full_to_free[2 * fluid.cells[:, None, :] + np.arange(2)[:, None]]
        rows, cols = (a.ravel() for a in np.broadcast_arrays(
            dof[:, :, None, :, None], dof[:, None, :, None, :]))
        self._keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        keys, self._slot = np.unique(rows[self._keep] * n_free + cols[self._keep],
                                     return_inverse=True)
        f_rows, f_cols = np.divmod(keys, n_free)
        self.indices = f_cols.astype(np.int32)
        self.indptr = _indptr(f_rows, n_free)
        # the slots of a scalar (ncell, 16) block put on both components
        c, p, q, ab = np.unravel_index(self._keep, (len(fluid.cells), 2, 2, 16))
        self._diag_slot = self._slot[p == q]
        self._diag_src = (16 * c + ab)[p == q]

        # inputs of a cell's advection map in x padded by one zero: u_z and
        # u_r at its nodes, then the Hermite DOFs of the wall element above
        # it; masked fluid and clamped wall DOFs read the padded zero
        x_pad = np.where(fluid.masked, self.n_x, fluid.full_to_free)
        beam_pad = np.full(structure.ndof_full, self.n_x)
        beam_pad[structure.free] = beam_to_x
        column = np.arange(len(fluid.cells)) % fluid.nz
        self._adv_inputs = np.concatenate([
            x_pad[2 * fluid.cells], x_pad[2 * fluid.cells + 1],
            beam_pad[2 * column[:, None] + np.arange(4)]], axis=1)

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

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The free-DOF fluid matrix with a data array on the fluid pattern."""
        n = self.fluid.n_free
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def fluid_csr(self, blocks: np.ndarray) -> sp.csr_matrix:
        """Sum (2, 2, ncell, 4, 4) element blocks, indexed [row component,
        column component, cell, row node, column node], into the free-DOF
        matrix on the fixed fluid pattern."""
        entries = blocks.transpose(2, 0, 1, 3, 4).reshape(-1)
        return self.csr(np.bincount(self._slot, weights=entries[self._keep],
                                    minlength=self.indices.size))

    def advection_data(self, adv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Fluid-pattern data of the skew advection operator for the
        transport field of the coupled vector x, from the per-step map
        ``adv`` built by ``assemble_advection``."""
        inputs = np.append(x, 0.0)[self._adv_inputs]
        local = adv @ inputs[:, :, None]
        return np.bincount(self._diag_slot, weights=local.ravel()[self._diag_src],
                           minlength=self.indices.size)

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
    """Every operator of the fluid substep that moves with eta*.

    All fluid matrices live on the free DOFs.  ``M_eta`` carries weight
    R + eta*_n, ``M_delta`` weight (eta*_{n+1} - eta*_n) (evaluated as an
    exact pointwise difference so that M_eta + M_delta telescopes to the
    next level's weighted mass), ``M_sq`` weight (R + eta*_n)^2 for the
    Hilbert-Schmidt norm of the noise operator.  ``K`` is the viscous
    form including its factor 2 (apply nu externally), ``P`` the reduced
    integration divergence penalty (apply 1/eps externally).  The beam
    matrices and the flux vectors do not move; they live on
    ``StructureSpace`` and ``FluidSpace``.
    """

    M_eta: sp.csr_matrix
    M_delta: sp.csr_matrix
    M_sq: sp.csr_matrix
    K: sp.csr_matrix
    P: sp.csr_matrix
    w_q: np.ndarray
    s_q: np.ndarray


def assemble_all(
    fluid: FluidSpace,
    layout: CoupledLayout,
    profile_star_n: WallProfile,
    profile_star_np1: WallProfile,
) -> AssembledForms:
    """Assemble every eta*-dependent operator of the fluid substep.

    Entries depend on the wall only through values/slopes at quadrature
    points, so equal profiles produce bit-identical matrices.
    """
    R = fluid.domain.R
    w_q, s_q = fluid.wall_samples(profile_star_n, R=R, reduced=False)
    w1_q, s1_q = fluid.wall_samples(profile_star_n, R=R, reduced=True)
    w_next = R + profile_star_np1.value(fluid.q_full.z)
    delta_q = w_next - w_q

    csr = layout.fluid_csr
    return AssembledForms(
        M_eta=csr(element_mass(fluid, w_q)),
        M_delta=csr(element_mass(fluid, delta_q)),
        M_sq=csr(element_mass(fluid, w_q * w_q)),
        K=csr(element_viscous(fluid, w_q, s_q)),
        P=csr(element_penalty(fluid, w1_q, s1_q)),
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
        L, n_el, h_el = st.L, st.n_el, st.h
        h_band = h_el / _HS_BAND

        def basis(z, deriv):
            """Derivative ``deriv`` of every full-DOF shape at z; (len(z), ndof_full)."""
            idx, xi = locate(z, h_el, n_el)
            out = np.zeros((z.size, st.ndof_full))
            out[np.arange(z.size)[:, None], 2 * idx[:, None] + np.arange(4)] = \
                np.stack(hermite_shapes(xi, h_el, deriv), axis=1)
            return out

        gx, gw = _GAUSS[_HS_OUTER]
        zo = ((gx + 1) / 2)[None, :] * h_el + np.arange(n_el)[:, None] * h_el
        wo = np.tile(gw * h_el / 2, n_el)
        zo = zo.ravel()
        Bo = basis(zo, 1)

        gxi, gwi = _GAUSS[_HS_INNER]
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
                        fracs = width * 0.5 ** np.arange(_HS_GRADED, 0, -1)
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
            D = Bo[i][None, :] - basis(zeta, 1)
            kern = wz / np.abs(zi - zeta) ** (1 + 2 * sigma)
            Q += wo[i] * ((D.T * kern) @ D)

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
        Bc = basis(zc, 2)
        Q += (Bc.T * (wc * corr_w)) @ Bc

        fr = st.free
        self.Q = Q[np.ix_(fr, fr)]
        self.structure = st

    def norm(self, eta_free: np.ndarray, R: float) -> float:
        e = np.asarray(eta_free, dtype=float)
        return float(np.sqrt(self.structure.gap_l2_sq(e, R) + e @ self.Q @ e))
