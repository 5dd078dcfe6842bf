import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse import _sparsetools

import oracle_dense as od
from stochfsi import scheme
from stochfsi.discretization import (
    CoupledLayout,
    FluidSpace,
    HsForm,
    StructureSpace,
    assemble_advection,
    assemble_all,
    assemble_flux_vectors_full,
    build_spaces,
    element_mass,
    element_penalty,
    element_viscous,
    _pullback_coefficients,
)
from stochfsi.errors import ConfigError
from stochfsi.geometry import ReferenceDomain, WallProfile


def spaces(nz, nr, L=1.0, R=1.0):
    return build_spaces(ReferenceDomain(L=L, R=R, nz=nz, nr=nr))


def random_wall(rng, n_el, scale=0.15, L=1.0):
    vals = scale * rng.uniform(-1, 1, n_el + 1)
    slopes = scale * rng.uniform(-1, 1, n_el + 1)
    return WallProfile(L, vals, slopes)


def advection_matrix(fl, lay, forms, x):
    """The advection operator fluid_step applies at the coupled iterate x:
    the step's map from assemble_advection, applied by the layout."""
    return lay.csr(lay.advection_data(assemble_advection(fl, forms), x))


class TestBuildSpaces:
    def test_smallest_mesh_hand_count(self):
        # 1x1 mesh: 4 nodes, 8 DOFs; masked: u_z on both top nodes, u_r on
        # all four (sides/bottom), u_r at top corners via the side columns.
        # Survivors: u_z at the two bottom nodes.
        fl, st, lay = spaces(1, 1)
        assert fl.ndof == 8
        assert fl.n_free == 2
        free_nodes = [(d // 2 % 2, d // 2 // 2, d % 2) for d in fl.free]
        assert free_nodes == [(0, 0, 0), (1, 0, 0)]
        assert st.n_free == 0
        assert lay.n_x == fl.n_free

    def test_top_row_dofs_all_in_layout(self):
        fl, st, lay = spaces(8, 4)
        assert lay.shared_free.size == 7
        for i, idx in enumerate(lay.shared_free):
            full_dof = fl.free[idx]
            node = full_dof // 2
            assert full_dof % 2 == 1
            assert node // (fl.nz + 1) == fl.nr
            assert node % (fl.nz + 1) == i + 1

    def test_one_pattern_per_mesh(self, rng):
        # every fluid form on any wall lives on the layout's one pattern,
        # with a zero in each slot that only the beam mass uses
        fl, st, lay = spaces(4, 2)
        walls = [random_wall(rng, 4), random_wall(rng, 4, scale=0.05)]
        cols = np.repeat(np.arange(lay.n_x), np.diff(lay.indptr))
        beam_only = np.maximum(lay.indices, cols) >= fl.n_free
        assert beam_only.any() and np.all(lay.beam_mass[beam_only] != 0)
        for prof in walls:
            forms = assemble_all(fl, lay, prof)
            adv = lay.advection_data(assemble_advection(fl, forms), rng.normal(size=lay.n_x))
            for data in (forms.M_eta, forms.M_sq, forms.K, forms.P, adv):
                assert data.shape == lay.indices.shape
                assert np.all(data[beam_only] == 0.0)

    @pytest.mark.parametrize("nz,nr", [(4, 2), (3, 3)])
    def test_scalar_scatter_is_vector_scatter_on_both_components(self, rng, nz, nr):
        # a scalar block put on each velocity component, as the vector
        # scatter sees it, sums to the same data bit for bit
        fl, st, lay = spaces(nz, nr)
        local = rng.normal(size=(len(fl.cells), 16))
        both = np.zeros((len(fl.cells), 2, 2, 16))
        both[:, 0, 0] = both[:, 1, 1] = local
        assert np.array_equal(lay.scalar_data(local), lay.vector_data(both.reshape(-1, 64)))

    @pytest.mark.parametrize("nz,nr", [(4, 2), (3, 3), (8, 4), (2, 5), (32, 16)])
    def test_products_bit_identical_to_scipy(self, rng, nz, nr):
        # matvec runs scipy's private compiled kernel of A @ x
        # (scipy.sparse._sparsetools.csc_matvec); a scipy that moves or
        # changes it fails here, naming its version
        kernel = f"scipy {scipy.__version__}: scipy.sparse._sparsetools.csc_matvec"
        assert callable(getattr(_sparsetools, "csc_matvec", None)), f"{kernel} is gone"
        fl, st, lay = spaces(nz, nr)
        n, m = fl.n_free, lay.n_x
        for _ in range(3):
            data = rng.normal(size=lay.indices.size)
            A = sp.csc_matrix((data, lay.indices, lay.indptr), shape=(m, m))
            for B in (A, A[:n, :n]):  # all of x, and the fluid block
                x = rng.normal(size=B.shape[1])
                assert np.array_equal(lay.matvec(data, x), B @ x), \
                    f"{kernel} no longer gives A @ x bit for bit (length {x.size})"

    def test_product_lengths_checked(self):
        # the compiled kernels read out of bounds on a short array
        fl, st, lay = spaces(4, 2)
        data = np.ones(lay.indices.size)
        for x in (np.ones(fl.n_free), np.ones(lay.n_x)):
            for bad in ((data[:-1], x), (data, x[:-1]), (data, x[:, None])):
                with pytest.raises(ValueError, match="^mat-vec on a pattern"):
                    lay.matvec(*bad)
        with pytest.raises(ValueError, match="^mat-vec on a pattern"):
            lay.matvec(data, np.ones(lay.n_x + 1))

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ConfigError):
            CoupledLayout(FluidSpace(ReferenceDomain(L=1.0, R=1.0, nz=2, nr=2)),
                          StructureSpace(1.0, 3))

    def test_factor_matrix_is_one_shell_on_the_callers_data(self, rng):
        # one scipy matrix per layout, its data the caller's array itself
        fl, st, lay = spaces(4, 2)
        A, B = (rng.normal(size=lay.indices.size) for _ in range(2))
        shell = lay.factor_matrix(A)
        assert shell.data is A and lay.factor_matrix(B) is shell and shell.data is B
        assert shell.shape == (lay.n_x, lay.n_x)
        assert np.array_equal(shell.indices, lay.indices)
        assert np.array_equal(shell.indptr, lay.indptr)
        for bad in (A[:-1], A[:, None]):
            with pytest.raises(ValueError, match="^matrix on a pattern"):
                lay.factor_matrix(bad)

    def test_factor_outlives_the_shell(self, rng):
        # splu copies what it factors: a factor made before the shell is
        # rebound, or its array rewritten, still solves its own system
        fl, st, lay = spaces(4, 2)
        forms = assemble_all(fl, lay, random_wall(rng, 4))
        A1 = lay.beam_mass + forms.M_eta + 0.1 * forms.K
        A2 = lay.beam_mass + 2.0 * forms.M_sq + 0.3 * forms.P
        kept = A1.copy()
        lu1 = scheme._splu(lay.factor_matrix(A1))
        lu2 = scheme._splu(lay.factor_matrix(A2))
        A1[:] = A2
        b = rng.normal(size=lay.n_x)
        for lu, data in ((lu1, kept), (lu2, A2)):
            x = lu.solve(b)
            assert np.abs(lay.csc(data) @ x - b).max() <= 1e-12 * np.abs(b).max()


class TestWallSamples:
    MESHES = [(4, 2, 1.0), (2, 5, 1.0), (8, 4, 4.0), (32, 16, 1.0)]

    @pytest.mark.parametrize("nz,nr,L", MESHES)
    def test_samples_bit_identical_to_pointwise(self, rng, nz, nr, L):
        # sampling once per abscissa gives each rule's samples at q.z exactly
        R = 1.3
        fl, st, lay = spaces(nz, nr, L=L)
        prof = random_wall(rng, nz, L=L)
        w, s, w1, s1 = fl.wall_samples(prof, R)
        for q, (wq, sq) in ((fl.q_full, (w, s)), (fl.q_reduced, (w1, s1))):
            assert np.array_equal(wq, R + prof.value(q.z))
            assert np.array_equal(sq, prof.slope(q.z))
        assert fl.wall_z.shape == (3 * nz,)

    @pytest.mark.parametrize("nz,nr,L", MESHES)
    def test_cell_rows_share_the_first_rows_abscissae(self, nz, nr, L):
        # the premise of sampling the first cell row only
        fl, st, lay = spaces(nz, nr, L=L)
        for q in (fl.q_full, fl.q_reduced):
            rows = q.z.reshape(nr, nz, -1)
            assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))

    def test_one_value_and_one_slope_per_assembly(self, rng, monkeypatch):
        fl, st, lay = spaces(4, 2)
        calls = []

        def counting(name):
            method = getattr(WallProfile, name)

            def counted(self, z):
                calls.append(name)
                return method(self, z)
            return counted

        for name in ("value", "slope"):
            monkeypatch.setattr(WallProfile, name, counting(name))
        assemble_all(fl, lay, random_wall(rng, 4))
        assert sorted(calls) == ["slope", "value"]


class TestWeightedMass:
    def test_q1_pattern_on_unit_cell(self):
        # flat wall, R=1, 1x1 mesh: per-component mass is the classic
        # bilinear pattern with diagonal 1/9
        fl, st, lay = spaces(1, 1)
        prof = WallProfile(1.0, np.zeros(2), np.zeros(2))
        blocks = element_mass(fl, fl.wall_samples(prof, 1.0)[0])
        M = np.zeros((fl.ndof, fl.ndof))
        for p in (0, 1):
            M[np.ix_(2 * fl.cells[0] + p, 2 * fl.cells[0] + p)] += blocks[0].reshape(4, 4)
        Mz = M[0::2, 0::2]
        # global node order (0,0), (1,0), (0,1), (1,1): tensor product of
        # the 1D mass h/6 [[2,1],[1,2]] with itself
        m1 = np.array([[2, 1], [1, 2]]) / 6.0
        expected = np.kron(m1, m1)
        assert np.allclose(Mz, expected, atol=1e-14)
        assert np.allclose(M[1::2, 1::2], expected, atol=1e-14)
        assert np.allclose(M[0::2, 1::2], 0.0)

    def test_constant_field_mass_identity(self, rng):
        # 1^T M(R+eta) 1 over one component == Int_O (R+eta) dO, which the
        # 2x2 rule integrates exactly for a cubic wall
        fl, st, lay = spaces(6, 3)
        eta = 0.3 * rng.uniform(-1, 1, st.n_free)
        prof = st.profile(eta)
        blocks = element_mass(fl, fl.wall_samples(prof, 1.2)[0])
        # 1^T M 1 of the axial component, summed cell by cell
        total = blocks.sum()
        exact = 1.2 * 1.0 + st.lin @ eta  # height-1 channel
        assert total == pytest.approx(exact, rel=1e-13)

    def test_positive_definite_for_positive_weight(self, rng):
        fl, st, lay = spaces(3, 2)
        prof = random_wall(rng, 3, scale=0.2)
        M = lay.csr(lay.scalar_data(element_mass(fl, fl.wall_samples(prof, 1.0)[0])))
        w = np.linalg.eigvalsh(M.toarray())
        assert w.min() > 0

    def test_assembly_bit_identical(self, rng):
        fl, st, lay = spaces(5, 3)
        prof = random_wall(rng, 5)
        prof2 = WallProfile(1.0, prof.vals.copy(), prof.slopes.copy())
        f1 = assemble_all(fl, lay, prof)
        f2 = assemble_all(fl, lay, prof2)
        for name in ("M_eta", "K", "P", "M_sq"):
            assert np.array_equal(getattr(f1, name), getattr(f2, name))


class TestViscousAndPenalty:
    def test_viscous_kills_rigid_fields(self, rng):
        fl, st, lay = spaces(4, 3)
        prof = random_wall(rng, 4)
        blocks = element_viscous(fl, *fl.wall_samples(prof, 1.0)[:2])
        # a rigid translation has zero strain in every cell
        const = np.array([0.7, -1.3])
        per_cell = np.einsum("cpqab,q->cpa", blocks.reshape(-1, 2, 2, 4, 4), const)
        assert np.abs(per_cell).max() <= 1e-12

    def test_viscous_spsd(self, rng):
        fl, st, lay = spaces(3, 2)
        prof = random_wall(rng, 3)
        K = lay.csr(lay.vector_data(element_viscous(fl, *fl.wall_samples(prof, 1.0)[:2])))
        w = np.linalg.eigvalsh(K.toarray())
        assert w.min() >= -1e-12

    @pytest.mark.parametrize("nz,nr", [(1, 1), (2, 2)])
    def test_penalty_nullspace_divergence_free(self, nz, nr):
        # discretely divergence-free fields from a dense eigensolve must
        # produce zero penalty residual
        fl, st, lay = spaces(nz, nr)
        prof = WallProfile(1.0, np.zeros(nz + 1), np.zeros(nz + 1))
        P = lay.csr(lay.vector_data(
            element_penalty(fl, *fl.wall_samples(prof, 1.0)[2:]))).toarray()
        w, V = np.linalg.eigh(P)
        null = V[:, w < 1e-12]
        if null.size:
            assert np.abs(P @ null).max() <= 1e-10

    def test_advection_skew_100_random_vectors(self, rng):
        fl, st, lay = spaces(4, 2)
        prof = random_wall(rng, 4)
        forms = assemble_all(fl, lay, prof)
        adv = assemble_advection(fl, forms)
        for _ in range(100):
            # a fresh transport field (u, v) for each test vector
            B = lay.csr(lay.advection_data(adv, rng.normal(size=lay.n_x)))
            x = rng.normal(size=fl.n_free)
            assert abs(x @ (B @ x)) <= 1e-12 * (x @ x)

    @pytest.mark.parametrize("nz,nr", [(4, 2), (8, 4)])
    def test_pullback_weights_match_the_broadcast_form(self, nz, nr, rng):
        # the coefficients as formed with the weight broadcast to the
        # samples' shape, bit for bit, for the penalty's scalar 1 and the
        # viscous form's weight R + eta
        fl, st, lay = spaces(nz, nr)
        w_q, s_q, w1_q, s1_q = fl.wall_samples(random_wall(rng, nz), 1.0)
        for w, s, r, weight in ((w1_q, s1_q, fl.q_reduced.r, 1.0),
                                (w_q, s_q, fl.q_full.r, w_q)):
            inv = 1.0 / w
            t = r * s * inv
            b = np.broadcast_to(weight, w.shape)
            want = np.concatenate([b, b * t, b * t * t, b * inv * inv, b * inv, b * t * inv],
                                  axis=1)
            assert np.array_equal(_pullback_coefficients(w, s, r, weight), want)

    def test_advection_data_reuses_no_result(self, rng):
        # consecutive calls share the layout's padded buffer; each result
        # equals a gather from a freshly padded copy of its own x, and a
        # later call leaves an earlier result as it was
        fl, st, lay = spaces(4, 2)
        adv = assemble_advection(fl, assemble_all(fl, lay, random_wall(rng, 4)))

        def fresh(x):
            return lay.scalar_data(adv @ np.append(x, 0.0)[lay._adv_inputs][:, :, None])

        x1, x2 = rng.normal(size=(2, lay.n_x))
        first = lay.advection_data(adv, x1)
        kept = first.copy()
        assert np.array_equal(first, fresh(x1))
        second = lay.advection_data(adv, x2)
        assert np.array_equal(second, fresh(x2))
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)


class TestStructureStiffness:
    @staticmethod
    def _analytic_lowest_eigenvalue():
        """Lowest eigenvalue of -u'' + u'''' on (0,1), clamped ends, via the
        characteristic determinant of the quartic ODE."""

        def det(lam):
            a = np.sqrt((1 + np.sqrt(1 + 4 * lam)) / 2)
            b = np.sqrt((np.sqrt(1 + 4 * lam) - 1) / 2)
            f1 = np.cosh(a) - np.cos(b)
            f2 = np.sinh(a) / a - np.sin(b) / b
            f1p = a * np.sinh(a) + b * np.sin(b)
            f2p = np.cosh(a) - np.cos(b)
            return f1 * f2p - f2 * f1p

        return brentq(det, 200.0, 900.0, xtol=1e-12)

    def test_rayleigh_quotient_convergence(self):
        from scipy.linalg import eigh

        lam_exact = self._analytic_lowest_eigenvalue()
        errs = []
        for n_el in (4, 8, 16, 32):
            st = StructureSpace(1.0, n_el)
            w = eigh(st.S, st.M, eigvals_only=True)
            errs.append(abs(w.min() - lam_exact) / lam_exact)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert errs[-1] < 1e-5
        assert np.all(orders >= 2.0)

    def test_stiffness_spd(self):
        st = StructureSpace(1.0, 6)
        w = np.linalg.eigvalsh(st.S)
        assert w.min() > 0


class TestFluxVectors:
    def test_unit_inflow_integral(self):
        fl, _, _ = spaces(3, 4)
        f_in, f_out = assemble_flux_vectors_full(fl)
        # constant q_z = 1 integrates to the boundary length 1
        ones = np.zeros(fl.ndof)
        ones[0::2] = 1.0
        assert f_in @ ones == pytest.approx(1.0, abs=1e-14)
        assert f_out @ ones == pytest.approx(1.0, abs=1e-14)


# ----------------------------------------------------------------------
# dense mirror equivalence (also exercised at acceptance scale)


@pytest.mark.parametrize("nz,nr", [(1, 1), (2, 2)])
def test_operator_oracle_equivalence(nz, nr, rng):
    L, R = 1.0, 1.0
    fl, st, lay = spaces(nz, nr, L, R)
    eta = 0.1 * rng.uniform(-1, 1, st.n_free) if st.n_free else np.zeros(0)
    prof = st.profile(eta)
    forms = assemble_all(fl, lay, prof)
    df = od.DenseFluid(L, R, nz, nr)

    def eta_f(z):
        return float(prof.value(z))

    def etap_f(z):
        return float(prof.slope(z))

    pairs = [
        (lay.csr(forms.M_eta).toarray(),
         od.dense_weighted_mass(df, lambda z: R + eta_f(z))[np.ix_(df.free, df.free)]),
        (lay.csr(forms.M_sq).toarray(),
         od.dense_weighted_mass(df, lambda z: (R + eta_f(z)) ** 2)[np.ix_(df.free, df.free)]),
        (lay.csr(forms.K).toarray(),
         od.dense_viscous(df, eta_f, etap_f)[np.ix_(df.free, df.free)]),
        (lay.csr(forms.P).toarray(),
         od.dense_penalty(df, eta_f, etap_f)[np.ix_(df.free, df.free)]),
    ]
    for ours, mirror in pairs:
        scale = max(np.abs(mirror).max(), 1e-30)
        assert np.abs(ours - mirror).max() <= 1e-10 * scale

    fin_o, fout_o = od.dense_flux(df)
    assert np.allclose(fl.flux_in, fin_o[df.free], atol=1e-14)
    assert np.allclose(fl.flux_out, fout_o[df.free], atol=1e-14)

    M_o, S1_o, S2_o, free_o = od.dense_structure(L, nz)
    assert np.allclose(st.M, M_o[np.ix_(free_o, free_o)], atol=1e-13)
    assert np.allclose(st.S, (S1_o + S2_o)[np.ix_(free_o, free_o)], atol=1e-12)


@pytest.mark.parametrize("nz,nr", [(2, 2), (4, 2), (3, 3)])
def test_advection_oracle_equivalence(nz, nr, rng):
    # (4, 2) and (3, 3) add wall elements with both ends interior, beside
    # the end elements whose clamped DOFs drop out of the transport
    fl, st, lay = spaces(nz, nr)
    eta = 0.1 * rng.uniform(-1, 1, st.n_free)
    prof = st.profile(eta)
    forms = assemble_all(fl, lay, prof)
    x = rng.normal(size=lay.n_x)
    u, v = x[:fl.n_free], x[lay.beam_to_x]
    B = advection_matrix(fl, lay, forms, x).toarray()

    df = od.DenseFluid(1.0, 1.0, nz, nr)

    def a_fun(z, r):
        ufull = np.zeros(fl.ndof)
        ufull[fl.free] = u
        cz = min(int(z / fl.hz), nz - 1)
        cr = min(int(r / fl.hr), nr - 1)
        xi = 2 * (z - cz * fl.hz) / fl.hz - 1
        ze = 2 * (r - cr * fl.hr) / fl.hr - 1
        N, _ = od.q1_shape(xi, ze)
        nodes = df.cells[cr * nz + cz]
        az = sum(N[a] * ufull[2 * nodes[a]] for a in range(4))
        ar = sum(N[a] * ufull[2 * nodes[a] + 1] for a in range(4))
        vprof = st.profile(v)
        return az, ar - float(vprof.value(z)) * r

    B_o = od.dense_advection(df, lambda z: float(prof.value(z)),
                             lambda z: float(prof.slope(z)), a_fun)
    B_o = B_o[np.ix_(df.free, df.free)]
    assert np.abs(B - B_o).max() <= 1e-10 * max(np.abs(B_o).max(), 1e-30)


# ----------------------------------------------------------------------
# fractional Sobolev norm


def gagliardo_oracle(slope_fn, L, sigma, n_t=80, n_z=800, t_min_frac=1e-10):
    """Independent evaluation of the Gagliardo seminorm of g = slope_fn:

        2 * Int_0^L t^(-1-2*sigma) D(t) dt,
        D(t) = Int_0^{L-t} (g(z+t) - g(z))^2 dz,

    with a geometric t-grid absorbing the integrable edge singularity and
    composite Gauss in z.  No band-correction modeling is involved.
    """
    gx, gw = np.polynomial.legendre.leggauss(6)
    edges = L * np.geomspace(t_min_frac, 1.0, n_t + 1)
    zedges = np.linspace(0.0, 1.0, n_z + 1)

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        tq = (a + b) / 2 + (b - a) / 2 * gx
        twq = (b - a) / 2 * gw
        for t, wt in zip(tq, twq):
            span = L - t
            if span <= 0:
                continue
            za = zedges[:-1] * span
            zb = zedges[1:] * span
            zq = ((za + zb) / 2)[:, None] + ((zb - za) / 2)[:, None] * gx[None, :]
            zwq = ((zb - za) / 2)[:, None] * np.ones_like(gx)[None, :] * gw[None, :]
            diff = slope_fn(zq + t) - slope_fn(zq)
            D = float(np.sum(zwq * diff * diff))
            total += wt * t ** (-1 - 2 * sigma) * D
    return 2 * total


def free_dofs(st, prof):
    """The free beam DOFs of ``prof``: nodal values and slopes, interleaved."""
    return np.column_stack([prof.vals, prof.slopes]).ravel()[st.free]


def hs_norm(prof, R, s):
    """|| R + eta ||_{H^s} through the package's HsForm, as the cutoff evaluates it."""
    st = StructureSpace(prof.L, prof.n_el)
    return HsForm(st, s).norm(free_dofs(st, prof), R)


class TestHsNorm:
    def test_constant_profiles(self):
        prof = WallProfile(1.0, np.zeros(9), np.zeros(9))
        assert hs_norm(prof, 1.0, 1.75) == pytest.approx(1.0, abs=1e-12)
        assert hs_norm(prof, 2.0, 1.75) == pytest.approx(2.0, abs=1e-12)

    def test_s_out_of_range(self):
        prof = WallProfile(1.0, np.zeros(5), np.zeros(5))
        with pytest.raises(ConfigError):
            hs_norm(prof, 1.0, 1.4)
        with pytest.raises(ConfigError):
            hs_norm(prof, 1.0, 2.0)

    def test_sine_squared_against_refined_oracle(self):
        s = 1.75
        sigma = s - 1
        L = 1.0
        z = np.linspace(0.0, L, 9)
        prof = WallProfile(L, 0.1 * np.sin(np.pi * z / L) ** 2,
                           0.1 * np.pi / L * np.sin(2 * np.pi * z / L))
        st = StructureSpace(L, 8)
        eta = free_dofs(st, prof)

        semis = [gagliardo_oracle(prof.slope, L, sigma, n_t=nt, n_z=nzq)
                 for nt, nzq in ((60, 600), (120, 1200))]
        assert abs(semis[1] - semis[0]) <= 1e-4 * semis[1]  # oracle stability
        l2sq = 1.0 + 2 * (st.lin @ eta) + eta @ st.M @ eta
        oracle = np.sqrt(l2sq + semis[1])

        ours = hs_norm(prof, 1.0, s)
        assert abs(ours - oracle) <= 5e-3 * oracle

    def test_random_walls_against_oracle(self, rng):
        s = 1.8
        for _ in range(3):
            prof = random_wall(rng, 6, scale=0.1)
            st = StructureSpace(1.0, 6)
            eta = free_dofs(st, prof)
            semi = gagliardo_oracle(prof.slope, 1.0, s - 1, n_t=100, n_z=900)
            l2sq = 1.0 + 2 * (st.lin @ eta) + eta @ st.M @ eta
            oracle = np.sqrt(l2sq + semi)
            assert abs(hs_norm(prof, 1.0, s) - oracle) <= 5e-3 * oracle

    def test_scaling_with_R(self, rng):
        # the seminorm ignores R; the L2 part grows accordingly
        prof = random_wall(rng, 8, scale=0.05)
        n1 = hs_norm(prof, 1.0, 1.75)
        n3 = hs_norm(prof, 3.0, 1.75)
        assert n3 > n1


@pytest.mark.parametrize("s", [1.55, 1.75, 1.9])
@pytest.mark.parametrize("L", [1.0, 1.5, 4.0])
@pytest.mark.parametrize("n_el", [1, 2, 3, 4, 7, 8, 32])
def test_hs_matrix_matches_per_point_reference(n_el, L, s):
    # the per-offset blocks against the per-outer-point construction
    Q = HsForm(StructureSpace(L, n_el), s).Q
    ref = od.dense_hs_matrix(L, n_el, s)
    assert Q.shape == ref.shape
    if ref.size:  # one element has no free DOF
        assert np.abs(Q - ref).max() <= 1e-13 * np.abs(ref).max()


def test_degenerate_jacobian_raised_in_assembly():
    from stochfsi.errors import DegenerateJacobian

    fl, st, lay = spaces(4, 2)
    vals = np.zeros(5)
    vals[2] = -1.5  # wall through the floor
    prof = WallProfile(1.0, vals, np.zeros(5))
    with pytest.raises(DegenerateJacobian):
        assemble_all(fl, lay, prof)
