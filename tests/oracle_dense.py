"""Independent dense-algebra mirror of the assembly and both substeps.

Everything here is written with plain Python loops, dense numpy arrays
and its own shape-function formulas; it shares only the DOF numbering
convention (dof = 2*(ir*(nz+1)+iz) + comp, comp 0 = axial) and the same
quadrature orders with the package, never its assembly code.  Used by
the oracle-equivalence tests on tiny meshes.  The H^s matrix reads the
package's quadrature constants, so that a constant breaking the
condition the package's per-offset construction relies on (the band
stays inside its element) shows up as a mismatch.
"""

import numpy as np

from stochfsi.discretization import _HS_BAND, _HS_GRADED, _HS_INNER, _HS_OUTER

G1 = np.polynomial.legendre.leggauss(1)
G2 = np.polynomial.legendre.leggauss(2)
G4 = np.polynomial.legendre.leggauss(4)


def q1_shape(xi, ze):
    """Q1 shapes and [-1,1]^2 derivatives at one point, node order
    (-,-), (+,-), (+,+), (-,+)."""
    hx = {-1: 0.5 * (1 - xi), 1: 0.5 * (1 + xi)}
    hz = {-1: 0.5 * (1 - ze), 1: 0.5 * (1 + ze)}
    dhx = {-1: -0.5, 1: 0.5}
    dhz = {-1: -0.5, 1: 0.5}
    order = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    N = np.array([hx[a] * hz[b] for a, b in order])
    dN = np.array([[dhx[a] * hz[b], hx[a] * dhz[b]] for a, b in order])
    return N, dN


class DenseFluid:
    """Mesh bookkeeping for the mirror; independent mask computation."""

    def __init__(self, L, R, nz, nr):
        self.L, self.R, self.nz, self.nr = L, R, nz, nr
        self.hz, self.hr = L / nz, 1.0 / nr
        self.nnode = (nz + 1) * (nr + 1)
        self.ndof = 2 * self.nnode
        masked = set()
        for ir in range(nr + 1):
            for iz in range(nz + 1):
                node = ir * (nz + 1) + iz
                if ir == nr:
                    masked.add(2 * node)
                if iz == 0 or iz == nz or ir == 0:
                    masked.add(2 * node + 1)
        self.free = np.array([d for d in range(self.ndof) if d not in masked])
        self.cells = []
        for cr in range(nr):
            for cz in range(nz):
                n0 = cr * (nz + 1) + cz
                self.cells.append((n0, n0 + 1, n0 + nz + 2, n0 + nz + 1))

    def cell_corner(self, c):
        cz, cr = c % self.nz, c // self.nz
        return cz * self.hz, cr * self.hr

    def quad_points(self, c, rule):
        x1, w1 = rule
        z0, r0 = self.cell_corner(c)
        pts = []
        for i, xi in enumerate(x1):
            for j, ze in enumerate(x1):
                z = z0 + (xi + 1) / 2 * self.hz
                r = r0 + (ze + 1) / 2 * self.hr
                w = w1[i] * w1[j] * self.hz * self.hr / 4
                pts.append((xi, ze, z, r, w))
        return pts


def dense_weighted_mass(df: DenseFluid, wfun):
    A = np.zeros((df.ndof, df.ndof))
    for c, nodes in enumerate(df.cells):
        for xi, ze, z, r, w in df.quad_points(c, G2):
            N, _ = q1_shape(xi, ze)
            for a in range(4):
                for b in range(4):
                    for comp in (0, 1):
                        A[2 * nodes[a] + comp, 2 * nodes[b] + comp] += \
                            w * wfun(z) * N[a] * N[b]
    return A


def _pullback(dN, df, z, r, eta, etap):
    """Physical then pulled-back derivative pairs (Gz, Gr) for 4 shapes."""
    w = df.R + eta(z)
    s = etap(z)
    out = []
    for a in range(4):
        dz = dN[a, 0] * 2 / df.hz
        dr = dN[a, 1] * 2 / df.hr
        out.append((dz - r * s / w * dr, dr / w))
    return out


def dense_viscous(df: DenseFluid, eta, etap):
    A = np.zeros((df.ndof, df.ndof))
    for c, nodes in enumerate(df.cells):
        for xi, ze, z, r, w in df.quad_points(c, G2):
            _, dN = q1_shape(xi, ze)
            G = _pullback(dN, df, z, r, eta, etap)
            wt = w * (df.R + eta(z))
            for a in range(4):
                gza, gra = G[a]
                Da = {0: np.array([[gza, gra / 2], [gra / 2, 0.0]]),
                      1: np.array([[0.0, gza / 2], [gza / 2, gra]])}
                for b in range(4):
                    gzb, grb = G[b]
                    Db = {0: np.array([[gzb, grb / 2], [grb / 2, 0.0]]),
                          1: np.array([[0.0, gzb / 2], [gzb / 2, grb]])}
                    for ca in (0, 1):
                        for cb in (0, 1):
                            A[2 * nodes[a] + ca, 2 * nodes[b] + cb] += \
                                2 * wt * np.tensordot(Da[ca], Db[cb])
    return A


def dense_penalty(df: DenseFluid, eta, etap):
    A = np.zeros((df.ndof, df.ndof))
    for c, nodes in enumerate(df.cells):
        for xi, ze, z, r, w in df.quad_points(c, G1):
            _, dN = q1_shape(xi, ze)
            G = _pullback(dN, df, z, r, eta, etap)
            for a in range(4):
                diva = {0: G[a][0], 1: G[a][1]}
                for b in range(4):
                    divb = {0: G[b][0], 1: G[b][1]}
                    for ca in (0, 1):
                        for cb in (0, 1):
                            A[2 * nodes[a] + ca, 2 * nodes[b] + cb] += \
                                w * diva[ca] * divb[cb]
    return A


def dense_advection(df: DenseFluid, eta, etap, a_fun):
    """1/2 Int (R+eta)[(a.grad^eta)phi_j phi_i - (a.grad^eta)phi_i phi_j]
    for transport a_fun(z, r) -> (a_z, a_r)."""
    A = np.zeros((df.ndof, df.ndof))
    for c, nodes in enumerate(df.cells):
        for xi, ze, z, r, w in df.quad_points(c, G2):
            N, dN = q1_shape(xi, ze)
            G = _pullback(dN, df, z, r, eta, etap)
            az, ar = a_fun(z, r)
            wt = w * (df.R + eta(z))
            for a in range(4):
                for b in range(4):
                    conv_b = az * G[b][0] + ar * G[b][1]
                    conv_a = az * G[a][0] + ar * G[a][1]
                    val = 0.5 * wt * (conv_b * N[a] - conv_a * N[b])
                    for comp in (0, 1):
                        A[2 * nodes[a] + comp, 2 * nodes[b] + comp] += val
    return A


def dense_flux(df: DenseFluid):
    f_in = np.zeros(df.ndof)
    f_out = np.zeros(df.ndof)
    x1, w1 = G2
    for ir in range(df.nr):
        r0 = ir * df.hr
        for x, w in zip(x1, w1):
            r = r0 + (x + 1) / 2 * df.hr
            wq = w * df.hr / 2
            lam = (r - r0) / df.hr
            lo = ir * (df.nz + 1)
            hi = (ir + 1) * (df.nz + 1)
            f_in[2 * lo] += wq * (1 - lam)
            f_in[2 * hi] += wq * lam
            lo_out = ir * (df.nz + 1) + df.nz
            hi_out = (ir + 1) * (df.nz + 1) + df.nz
            f_out[2 * lo_out] += wq * (1 - lam)
            f_out[2 * hi_out] += wq * lam
    return f_in, f_out


# ----------------------------------------------------------------------
# 1D structure/trace matrices


def hermite_local(h):
    """Local 4x4 mass/stiffness blocks by 4-point Gauss on one element."""
    x1, w1 = G4
    xs = (x1 + 1) / 2
    ws = w1 * h / 2
    m = np.zeros((4, 4))
    s1 = np.zeros((4, 4))
    s2 = np.zeros((4, 4))
    for xi, w in zip(xs, ws):
        H = np.array([
            1 - 3 * xi**2 + 2 * xi**3,
            h * (xi - 2 * xi**2 + xi**3),
            3 * xi**2 - 2 * xi**3,
            h * (xi**3 - xi**2),
        ])
        dH = np.array([
            (-6 * xi + 6 * xi**2) / h,
            1 - 4 * xi + 3 * xi**2,
            (6 * xi - 6 * xi**2) / h,
            3 * xi**2 - 2 * xi,
        ])
        ddH = np.array([
            (-6 + 12 * xi) / h**2,
            (-4 + 6 * xi) / h,
            (6 - 12 * xi) / h**2,
            (6 * xi - 2) / h,
        ])
        m += w * np.outer(H, H)
        s1 += w * np.outer(dH, dH)
        s2 += w * np.outer(ddH, ddH)
    return m, s1, s2


def dense_structure(L, n_el):
    h = L / n_el
    nd = 2 * (n_el + 1)
    M = np.zeros((nd, nd))
    S1 = np.zeros((nd, nd))
    S2 = np.zeros((nd, nd))
    m, s1, s2 = hermite_local(h)
    for e in range(n_el):
        sl = slice(2 * e, 2 * e + 4)
        M[sl, sl] += m
        S1[sl, sl] += s1
        S2[sl, sl] += s2
    free = np.arange(2, nd - 2)
    return M, S1, S2, free


# ----------------------------------------------------------------------
# fractional Sobolev matrix


def _hermite_derivative(xi, h, deriv):
    """First or second z-derivative of the four local Hermite shapes at
    local abscissae xi, (len(xi), 4)."""
    if deriv == 1:
        cols = [(-6 * xi + 6 * xi**2) / h, 1 - 4 * xi + 3 * xi**2,
                (6 * xi - 6 * xi**2) / h, 3 * xi**2 - 2 * xi]
    else:
        cols = [(-6 + 12 * xi) / h**2, (-4 + 6 * xi) / h,
                (6 - 12 * xi) / h**2, (6 * xi - 2) / h]
    return np.stack(cols, axis=1)


def dense_hs_matrix(L, n_el, s):
    """Gagliardo matrix of the H^s norm on the free beam DOFs, built one
    outer quadrature point at a time from explicit piece lists of the
    inner integral, with dense basis rows; the quadrature constants are the
    package's, so the comparison checks the construction, not the rule."""
    sigma = s - 1.0
    h_el = L / n_el
    h_band = h_el / _HS_BAND
    nd = 2 * (n_el + 1)

    def basis(z, deriv):
        e = np.minimum((z / h_el).astype(int), n_el - 1)
        out = np.zeros((z.size, nd))
        out[np.arange(z.size)[:, None], 2 * e[:, None] + np.arange(4)] = \
            _hermite_derivative(z / h_el - e, h_el, deriv)
        return out

    gx, gw = np.polynomial.legendre.leggauss(_HS_OUTER)
    zo = (((gx + 1) / 2)[None, :] * h_el + np.arange(n_el)[:, None] * h_el).ravel()
    wo = np.tile(gw * h_el / 2, n_el)
    Bo = basis(zo, 1)

    gxi, gwi = np.polynomial.legendre.leggauss(_HS_INNER)
    Q = np.zeros((nd, nd))
    breaks = np.linspace(0.0, L, n_el + 1)
    for i in range(zo.size):
        zi = zo[i]
        pieces = []
        for lo, hi in ((0.0, zi - h_band), (zi + h_band, L)):
            if hi <= lo:
                continue
            pts = [lo] + [b for b in breaks if lo < b < hi] + [hi]
            # geometric grading toward the band edge inside the adjacent piece
            edge = zi - h_band if hi <= zi else zi + h_band
            for a, b in zip(pts[:-1], pts[1:]):
                if (hi <= zi and b == edge) or (lo >= zi and a == edge):
                    fracs = (b - a) * 0.5 ** np.arange(_HS_GRADED, 0, -1)
                    sub = [a] + list(a + fracs) + [b] if lo >= zi else \
                        [a] + list(b - fracs[::-1]) + [b]
                    sub = sorted(set(sub))
                    pieces.extend(zip(sub[:-1], sub[1:]))
                else:
                    pieces.append((a, b))
        a_arr = np.array([p[0] for p in pieces])[:, None]
        b_arr = np.array([p[1] for p in pieces])[:, None]
        zeta = ((a_arr + b_arr) / 2 + (b_arr - a_arr) / 2 * gxi).ravel()
        wz = ((b_arr - a_arr) / 2 * gwi).ravel()
        D = Bo[i][None, :] - basis(zeta, 1)
        kern = wz / np.abs(zi - zeta) ** (1 + 2 * sigma)
        Q += wo[i] * ((D.T * kern) @ D)

    # band correction, breakpoints at the element nodes and at the kinks
    cb = sorted(set(list(breaks) + [h_band, L - h_band]))
    gxc, gwc = np.polynomial.legendre.leggauss(8)
    zc = np.concatenate([(a + b) / 2 + (b - a) / 2 * gxc for a, b in zip(cb[:-1], cb[1:])])
    wc = np.concatenate([(b - a) / 2 * gwc for a, b in zip(cb[:-1], cb[1:])])
    corr_w = (np.minimum(h_band, zc) ** (2 - 2 * sigma)
              + np.minimum(h_band, L - zc) ** (2 - 2 * sigma)) / (2 - 2 * sigma)
    Bc = basis(zc, 2)
    Q += (Bc.T * (wc * corr_w)) @ Bc
    free = np.arange(2, nd - 2)
    return Q[np.ix_(free, free)]


# ----------------------------------------------------------------------
# substep mirrors


def mirror_structure_step(L, n_el, eta_free, v_free, dt):
    M, S1, S2, free = dense_structure(L, n_el)
    S = (S1 + S2)[np.ix_(free, free)]
    Mf = M[np.ix_(free, free)]
    A = Mf + dt * dt * S
    b = Mf @ v_free - dt * S @ eta_free
    v_half = np.linalg.solve(A, b)
    return eta_free + dt * v_half, v_half


def _hermite_val_slope(L, n_el, free_vec, z):
    full = np.zeros(2 * (n_el + 1))
    full[2:-2] = free_vec
    h = L / n_el
    e = min(int(z / h), n_el - 1)
    xi = z / h - e
    v0, s0, v1, s1 = full[2 * e:2 * e + 4]
    val = (1 - 3 * xi**2 + 2 * xi**3) * v0 + h * (xi - 2 * xi**2 + xi**3) * s0 \
        + (3 * xi**2 - 2 * xi**3) * v1 + h * (xi**3 - xi**2) * s1
    slope = (-6 * xi + 6 * xi**2) / h * v0 + (1 - 4 * xi + 3 * xi**2) * s0 \
        + (6 * xi - 6 * xi**2) / h * v1 + (3 * xi**2 - 2 * xi) * s1
    return val, slope


def mirror_fluid_step(L, R, nz, nr, eta_star_n, eta_star_np1, u_n, v_n, v_half,
                      xi_noise, P_in, P_out, nu, eps, dt,
                      tol=1e-12, max_iter=80):
    """Dense mirror of the coupled fluid solve; Picard on the transport.

    Wall velocities are free Hermite vectors; the coupled unknown is
    [fluid free DOFs | interior wall slopes] with the wall values living
    on the top-row vertical fluid DOFs.
    """
    df = DenseFluid(L, R, nz, nr)

    def eta_n(z):
        return _hermite_val_slope(L, nz, eta_star_n, z)[0]

    def etap_n(z):
        return _hermite_val_slope(L, nz, eta_star_n, z)[1]

    def eta_np1(z):
        return _hermite_val_slope(L, nz, eta_star_np1, z)[0]

    M_eta = dense_weighted_mass(df, lambda z: R + eta_n(z))
    M_delta = dense_weighted_mass(df, lambda z: (R + eta_np1(z)) - (R + eta_n(z)))
    K = dense_viscous(df, eta_n, etap_n)
    P = dense_penalty(df, eta_n, etap_n)
    f_in, f_out = dense_flux(df)
    free = df.free
    M_s, S1_s, S2_s, free_s = dense_structure(L, nz)
    Ms = M_s[np.ix_(free_s, free_s)]

    # shared DOFs: top-row interior u_r, in free numbering
    shared = []
    for iz in range(1, nz):
        d = 2 * (nr * (nz + 1) + iz) + 1
        shared.append(int(np.where(free == d)[0][0]))
    shared = np.array(shared, dtype=int)
    n_free = free.size
    n_int = nz - 1
    n_x = n_free + n_int
    beam_to_x = np.empty(2 * n_int, dtype=int)
    beam_to_x[0::2] = shared
    beam_to_x[1::2] = n_free + np.arange(n_int)

    def emb_mat(M1d):
        out = np.zeros((n_x, n_x))
        for a in range(M1d.shape[0]):
            for b in range(M1d.shape[1]):
                out[beam_to_x[a], beam_to_x[b]] += M1d[a, b]
        return out

    def emb_vec(b1d):
        out = np.zeros(n_x)
        for a in range(b1d.size):
            out[beam_to_x[a]] += b1d[a]
        return out

    A0 = np.zeros((n_x, n_x))
    A0[:n_free, :n_free] = (M_eta + 0.5 * M_delta)[np.ix_(free, free)] \
        + nu * dt * K[np.ix_(free, free)] + dt / eps * P[np.ix_(free, free)]
    A0 += emb_mat(Ms)
    rhs = np.zeros(n_x)
    rhs[:n_free] = (M_eta[np.ix_(free, free)] @ u_n) * (1 + xi_noise) \
        + dt * (P_in * f_in[free] - P_out * f_out[free])
    rhs += emb_vec(Ms @ v_half) + xi_noise * emb_vec(Ms @ v_n)

    x = np.zeros(n_x)
    x[:n_free] = u_n
    x[beam_to_x] = v_half

    def transport(xvec, z, r):
        ufull = np.zeros(df.ndof)
        ufull[free] = xvec[:n_free]
        cz = min(int(z / df.hz), nz - 1)
        cr = min(int(r / df.hr), nr - 1)
        xi = 2 * (z - cz * df.hz) / df.hz - 1
        zeta = 2 * (r - cr * df.hr) / df.hr - 1
        N, _ = q1_shape(xi, zeta)
        nodes = df.cells[cr * nz + cz]
        az = sum(N[a] * ufull[2 * nodes[a]] for a in range(4))
        ar = sum(N[a] * ufull[2 * nodes[a] + 1] for a in range(4))
        v_here = _hermite_val_slope(L, nz, xvec[beam_to_x], z)[0]
        return az, ar - v_here * r

    for _ in range(max_iter):
        B = dense_advection(df, eta_n, etap_n, lambda z, r: transport(x, z, r))
        A = A0.copy()
        A[:n_free, :n_free] += dt * B[np.ix_(free, free)]
        x_new = np.linalg.solve(A, rhs)
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x_new), 1e-30)
        x = x_new
        if rel <= tol:
            break
    return x[:n_free].copy(), x[beam_to_x].copy()
