from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_dense as od
from stochfsi.discretization import FluidSpace, element_penalty, element_viscous
from stochfsi.errors import DegenerateJacobian
from stochfsi.geometry import ReferenceDomain, WallProfile, hermite_shapes


def ale_map(profile, R, point):
    """A(z, r) = (z, (R + eta(z)) r): the push-forward the finite-difference
    oracle below differentiates through."""
    z, r = point
    return (z, (R + float(profile.value(z))) * r)


def transformed_gradient(du_dz, du_dr, profile, R, point):
    """Pulled-back gradient of a 2-vector field at one reference point,
    through the dense oracle's pull-back; row i is (d_z^eta u_i, d_r^eta u_i).

    The oracle maps derivatives on [-1, 1]^2 to a cell of size hz x hr, so
    on a 2 x 2 cell they are the reference partials themselves."""
    cell = SimpleNamespace(R=R, hz=2.0, hr=2.0)
    dN = np.zeros((4, 2))
    dN[:2, 0], dN[:2, 1] = du_dz, du_dr
    z, r = point
    return np.array(od._pullback(dN, cell, z, r, profile.value, profile.slope)[:2])


def transformed_divergence(du_dz, du_dr, profile, R, point) -> float:
    return float(np.trace(transformed_gradient(du_dz, du_dr, profile, R, point)))


def transformed_sym_gradient(du_dz, du_dr, profile, R, point):
    g = transformed_gradient(du_dz, du_dr, profile, R, point)
    return 0.5 * (g + g.T)


def bump_profile(n_el=8, amplitude=0.1, L=1.0):
    """Single interior Hermite value DOF raised at the middle node."""
    vals = np.zeros(n_el + 1)
    vals[n_el // 2] = amplitude
    return WallProfile(L, vals, np.zeros(n_el + 1))


def random_profile(rng, n_el=8, L=1.0, scale=0.2):
    vals = scale * rng.uniform(-1, 1, n_el + 1)
    slopes = scale * rng.uniform(-1, 1, n_el + 1)
    return WallProfile(L, vals, slopes)


class TestAleMap:
    def test_identity_height_channel(self):
        prof = WallProfile(1.0, np.zeros(5), np.zeros(5))
        assert ale_map(prof, 1.0, (0.5, 0.5)) == (0.5, 0.5)

    def test_top_boundary_maps_to_R(self):
        prof = WallProfile(1.0, np.zeros(5), np.zeros(5))
        assert ale_map(prof, 2.0, (0.3, 1.0)) == (0.3, 2.0)

    def test_hermite_bump_midpoint(self):
        # interpolant with eta(0.5) = 0.1: image height 1.1 * 0.5
        prof = bump_profile()
        z, r = ale_map(prof, 1.0, (0.5, 0.5))
        assert z == 0.5
        assert r == pytest.approx(0.55, abs=1e-15)

    def test_top_boundary_traces_wall_curve(self, rng):
        prof = random_profile(rng)
        for z in np.linspace(0.0, 1.0, 23):
            zz, rr = ale_map(prof, 1.3, (z, 1.0))
            assert zz == z
            assert rr == pytest.approx(1.3 + prof.value(z), abs=1e-15)


class TestAleJacobian:
    """The Jacobian R + eta(z), as ``FluidSpace.wall_samples`` evaluates it."""

    def test_flat(self):
        prof = WallProfile(1.0, np.zeros(5), np.zeros(5))
        for z in (0.0, 0.37, 1.0):
            assert 1.0 + prof.value(z) == 1.0

    def test_negative_bump(self):
        vals = np.zeros(9)
        vals[4] = -0.4
        prof = WallProfile(1.0, vals, np.zeros(9))
        assert 1.0 + prof.value(0.5) == pytest.approx(0.6, abs=1e-15)

    def test_clamped_end(self):
        prof = bump_profile()
        assert 1.0 + prof.value(0.0) == 1.0
        assert 1.0 + prof.value(1.0) == 1.0


class TestTransformedOperators:
    def test_constant_field_zero_gradient(self, rng):
        prof = random_profile(rng)
        g = transformed_gradient(np.zeros(2), np.zeros(2), prof, 1.0, (0.4, 0.7))
        assert np.all(g == 0.0)

    def test_flat_channel_r_shear(self):
        # u = (r, 0), R = 2: only d_r^eta u_z = 1/2 survives
        prof = WallProfile(1.0, np.zeros(5), np.zeros(5))
        g = transformed_gradient([0.0, 0.0], [1.0, 0.0], prof, 2.0, (0.3, 0.5))
        assert np.allclose(g, [[0.0, 0.5], [0.0, 0.0]], atol=1e-15)
        d = transformed_sym_gradient([0.0, 0.0], [1.0, 0.0], prof, 2.0, (0.3, 0.5))
        assert np.allclose(d, [[0.0, 0.25], [0.25, 0.0]], atol=1e-15)

    def test_solenoidal_in_identity_geometry(self):
        prof = WallProfile(1.0, np.zeros(5), np.zeros(5))
        div = transformed_divergence([1.0, 0.0], [0.0, -1.0], prof, 1.0, (0.2, 0.9))
        assert div == 0.0

    def test_divergence_is_trace(self, rng):
        # the package's penalty blocks are w div(phi_a e_p) div(phi_b e_q),
        # with the divergence the trace of the pulled-back gradient
        R = 1.5
        fs = FluidSpace(ReferenceDomain(L=1.0, R=R, nz=8, nr=3))
        prof = random_profile(rng)
        blocks = element_penalty(fs, *fs.wall_samples(prof, R)[2:])
        _, dN = od.q1_shape(0.0, 0.0)   # the reduced rule's one point
        for c in range(len(fs.cells)):
            z, r = fs.q_reduced.z[c, 0], fs.q_reduced.r[c, 0]
            div = np.zeros((2, 4))
            for a in range(4):
                du_dz, du_dr = dN[a] * (2 / fs.hz, 2 / fs.hr)
                for p in range(2):
                    e_p = np.eye(2)[p]
                    div[p, a] = transformed_divergence(du_dz * e_p, du_dr * e_p, prof, R, (z, r))
            expected = fs.q_reduced.wq[0] * div[:, None, :, None] * div[None, :, None, :]
            assert np.allclose(blocks[c].reshape(2, 2, 4, 4), expected, rtol=1e-12, atol=1e-12)

    def test_degenerate_jacobian_raises(self):
        vals = np.zeros(9)
        vals[4] = -1.5
        prof = WallProfile(1.0, vals, np.zeros(9))
        fs = FluidSpace(ReferenceDomain(L=1.0, R=1.0, nz=8, nr=2))
        with pytest.raises(DegenerateJacobian):
            element_viscous(fs, *fs.wall_samples(prof, 1.0)[:2])

    def _fd_oracle(self, u_ref, prof, R, point, step=1e-6):
        """Central finite differences of u o A^{-1} on the physical domain."""
        zt, rt = ale_map(prof, R, point)

        def u_phys(zt_, rt_):
            return np.asarray(u_ref(zt_, rt_ / (R + prof.value(zt_))))

        g = np.zeros((2, 2))
        g[:, 0] = (u_phys(zt + step, rt) - u_phys(zt - step, rt)) / (2 * step)
        g[:, 1] = (u_phys(zt, rt + step) - u_phys(zt, rt - step)) / (2 * step)
        return g

    def test_bump_gradient_matches_physical_fd(self):
        # u = (z*r, 0) on the reference domain, bump geometry
        prof = bump_profile()
        point = (0.5, 0.5)
        du_dz = np.array([point[1], 0.0])
        du_dr = np.array([point[0], 0.0])
        g = transformed_gradient(du_dz, du_dr, prof, 1.0, point)
        g_fd = self._fd_oracle(lambda z, r: (z * r, 0.0), prof, 1.0, point)
        assert np.allclose(g, g_fd, atol=5e-9)

    def test_bump_divergence_matches_physical_fd(self):
        prof = bump_profile()
        point = (0.25, 0.75)
        # u = (z, 0)
        g_fd = self._fd_oracle(lambda z, r: (z, 0.0), prof, 1.0, point)
        div = transformed_divergence([1.0, 0.0], [0.0, 0.0], prof, 1.0, point)
        assert div == pytest.approx(g_fd[0, 0] + g_fd[1, 1], abs=5e-9)

    def test_bump_sym_gradient_matches_physical_fd(self):
        prof = bump_profile()
        point = (0.6, 0.4)
        u_ref = lambda z, r: (np.sin(z) * r, z + r * r)
        z, r = point
        du_dz = np.array([np.cos(z) * r, 1.0])
        du_dr = np.array([np.sin(z), 2 * r])
        d = transformed_sym_gradient(du_dz, du_dr, prof, 1.0, point)
        g_fd = self._fd_oracle(u_ref, prof, 1.0, point)
        assert np.allclose(d, 0.5 * (g_fd + g_fd.T), atol=5e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        R=st.floats(0.5, 3.0),
        z=st.floats(0.05, 0.95),
        r=st.floats(0.05, 0.95),
    )
    def test_chain_rule_consistency(self, seed, R, z, r):
        """grad^eta on the reference domain == physical-domain FD gradient
        of the pushed-forward field, to O(step^2), for admissible walls.
        The FD stencil must stay inside one element: the interpolant is
        only C^1 across nodes, where central differencing loses an order."""
        node_gap = (z * 8) % 1.0
        if min(node_gap, 1 - node_gap) < 8 * 1e-5:
            z += 1e-3
        prof = random_profile(np.random.default_rng(seed), scale=0.15)
        u_ref = lambda zz, rr: (zz * rr + np.cos(rr), np.sin(zz) + rr**2)
        du_dz = np.array([r, np.cos(z)])
        du_dr = np.array([z - np.sin(r), 2 * r])
        g = transformed_gradient(du_dz, du_dr, prof, R, (z, r))
        g_fd = self._fd_oracle(u_ref, prof, R, (z, r))
        assert np.allclose(g, g_fd, atol=2e-8 * max(1.0, R))


class TestFlatIsUntransformed:
    def test_all_operators_reduce(self, rng):
        prof = WallProfile(1.0, np.zeros(9), np.zeros(9))
        for _ in range(30):
            du_dz = rng.normal(size=2)
            du_dr = rng.normal(size=2)
            pt = (rng.uniform(0, 1), rng.uniform(0, 1))
            g = transformed_gradient(du_dz, du_dr, prof, 1.0, pt)
            plain = np.column_stack([du_dz, du_dr])
            assert np.allclose(g, plain, rtol=1e-12, atol=1e-15)


def min_value_oracle(prof):
    """WallProfile.min_value as it was before its per-element evaluation
    was restricted to the elements with an interior root: the cubic at
    every element, masked by nested np.where."""
    h = prof.h
    v0, v1 = prof.vals[:-1], prof.vals[1:]
    s0, s1 = prof.slopes[:-1], prof.slopes[1:]
    a = 6 * (v0 - v1) + 3 * h * (s0 + s1)
    b = 6 * (v1 - v0) - 2 * h * (2 * s0 + s1)
    c = h * s0
    disc = b * b - 4 * a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        xi = np.where(
            np.abs(a) > 0,
            (-b + np.sqrt(np.maximum(disc, 0.0))) / (2 * a),
            np.where(np.abs(b) > 0, -c / b, np.nan),
        )
    ok = np.isfinite(xi) & (disc >= 0) & (xi > 0) & (xi < 1)
    h0, h1, h2, h3 = hermite_shapes(np.where(ok, xi, 0.0), h, 0)
    val = h0 * v0 + h1 * s0 + h2 * v1 + h3 * s1
    return float(min(np.minimum(v0, v1).min(), np.where(ok, val, np.inf).min()))


def element_coefficients(prof):
    """Per element, (a, b, c, disc) of eta'(xi) h = a xi^2 + b xi + c."""
    h, v, s = prof.h, prof.vals, prof.slopes
    a = 6 * (v[:-1] - v[1:]) + 3 * h * (s[:-1] + s[1:])
    b = 6 * (v[1:] - v[:-1]) - 2 * h * (2 * s[:-1] + s[1:])
    c = h * s[:-1]
    return np.stack([a, b, c, b * b - 4 * a * c], axis=1)


class TestMinValue:
    def test_matches_oracle_bit_for_bit(self):
        # random profiles, half on a coarse lattice with h = 1, where a == 0,
        # a == b == 0, disc == 0 and roots on the element ends happen exactly
        rng = np.random.default_rng(2024)
        interior, coef = 0, []
        for k in range(10_000):
            n_el = int(rng.integers(1, 33))
            if k % 2:
                prof = WallProfile(float(n_el), 0.25 * rng.integers(-4, 5, n_el + 1),
                                   0.25 * rng.integers(-4, 5, n_el + 1))
            else:
                prof = WallProfile(rng.uniform(0.5, 4.0), rng.uniform(-1, 1, n_el + 1),
                                   rng.uniform(0, 10) * rng.uniform(-1, 1, n_el + 1))
            got, want = prof.min_value(), min_value_oracle(prof)
            assert got.hex() == want.hex(), (k, got, want)
            interior += got < prof.vals.min()
            coef.append(element_coefficients(prof))
        a, b, c, disc = np.concatenate(coef).T
        with np.errstate(invalid="ignore", divide="ignore"):
            root = np.where(a != 0, (-b + np.sqrt(disc)) / (2 * a), -c / b)
        # every branch is exercised many times
        assert 100 < interior < 9_900
        for case in (a == 0, (a == 0) & (b == 0), (a != 0) & (disc == 0), disc < 0,
                     (root == 0) | (root == 1)):
            assert case.sum() >= 100

    def test_flat_element(self):
        # element 0 is flat (a == b == c == 0), element 1 dips below its nodes
        prof = WallProfile(3.0, [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(element_coefficients(prof)[0, :3], [0.0, 0.0, 0.0])
        m = prof.min_value()
        assert m.hex() == min_value_oracle(prof).hex()
        assert m < 0.0

    def test_linear_slope(self):
        # on element 1 (h = 1) eta' is linear: a == 0, b == 2, c == -0.5, so
        # the minimum sits at its root xi = 1/4, below both nodal values
        prof = WallProfile(3.0, [0.0, 0.0, 0.5, 0.0], [0.0, -0.5, 1.5, 0.0])
        assert np.array_equal(element_coefficients(prof)[1, :3], [0.0, 2.0, -0.5])
        m = prof.min_value()
        assert m.hex() == min_value_oracle(prof).hex()
        assert m == pytest.approx(float(prof.value(1.25)), abs=1e-15)
        assert m < 0.0

    def test_negative_discriminant(self):
        # eta' > 0 on element 1 (no critical point); the minimum lies on
        # element 0, which leaves its right node with slope 2
        prof = WallProfile(3.0, [0.0, 0.0, 1.0, 0.0], [0.0, 2.0, 2.0, 0.0])
        assert element_coefficients(prof)[1, 3] < 0.0
        m = prof.min_value()
        assert m.hex() == min_value_oracle(prof).hex()
        assert m == pytest.approx(prof.value(np.linspace(0.0, 1.0, 10_001)).min(), abs=1e-8)

    def test_root_on_an_element_end(self):
        # the + root is exactly 0 on element 0 and exactly 1 on element 1
        # (the nodes carry zero slope), so neither is interior
        prof = WallProfile(2.0, [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        a, b, c, disc = element_coefficients(prof).T
        assert np.array_equal((-b + np.sqrt(disc)) / (2 * a), [0.0, 1.0])
        assert prof.min_value() == min_value_oracle(prof) == 0.0
        # with a linear eta' (a == 0) on element 0, its root -c/b is 0 there
        lin = WallProfile(2.0, [0.0, 1.0, 0.0], [0.0, 2.0, 0.0])
        assert np.array_equal(element_coefficients(lin)[0, :3], [0.0, 2.0, 0.0])
        assert lin.min_value() == min_value_oracle(lin) == 0.0

    def test_interior_cubic_minimum(self, rng):
        for seed in range(40):
            prof = random_profile(np.random.default_rng(seed), n_el=5, scale=0.5)
            zs = np.linspace(0, 1, 20_001)
            dense_min = prof.value(zs).min()
            assert prof.min_value() <= dense_min + 1e-12
            assert prof.min_value() >= dense_min - 1e-6

    def test_zero_profile(self):
        assert WallProfile(2.0, np.zeros(4), np.zeros(4)).min_value() == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        n_el=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
        slope_scale=st.floats(0.0, 10.0),
        L=st.floats(0.5, 4.0),
    )
    def test_within_sampling_error_of_sampled_minimum(self, n_el, seed, slope_scale, L):
        # at most the nodal and the sampled minimum, and below the sampled
        # one by at most max|eta''| dz^2 / 8, the error of sampling at
        # spacing dz next to a critical point; the cubic's roundoff is
        # allowed for on the sampled side
        rng = np.random.default_rng(seed)
        prof = WallProfile(L, rng.uniform(-1, 1, n_el + 1),
                           slope_scale * rng.uniform(-1, 1, n_el + 1))
        zs, dz = np.linspace(0.0, L, 10_001, retstep=True)
        sampled = prof.value(zs).min()
        ends = np.array([[0.0], [1.0]])
        d0, d1, d2, d3 = hermite_shapes(ends, prof.h, 2)
        curv = np.abs(d0 * prof.vals[:-1] + d1 * prof.slopes[:-1]
                      + d2 * prof.vals[1:] + d3 * prof.slopes[1:]).max()
        roundoff = 32 * np.finfo(float).eps * (np.abs(prof.vals).max()
                                                + prof.h * np.abs(prof.slopes).max())
        m = prof.min_value()
        assert m <= prof.vals.min()
        assert m <= sampled + roundoff
        assert sampled - m <= curv * dz * dz / 8 + roundoff
