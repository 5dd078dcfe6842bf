import numpy as np
import pytest

from stochfsi.discretization import assemble_all, build_spaces
from stochfsi.errors import ConfigError
from stochfsi.geometry import ReferenceDomain, WallProfile
from stochfsi.noise import (_PURPOSE_BRIDGE, _PURPOSE_DYADIC, NoisePath, NoiseSpec, _gen,
                            sample_path, state_l2_sq)
from stochfsi.scheme import SchemeParams, fluid_step


def spec4(seed=42, sampling="auto", amp=None):
    q = np.array([1.0, 0.25, 1.0 / 9.0, 0.0625])
    amp = np.array([1.0, 0.5, 0.3, 0.2]) if amp is None else np.asarray(amp)
    return NoiseSpec(K=4, q=q, amplitude=amp, seed=seed, sampling=sampling)


def reference_refine(path, n, refinement):
    """NoisePath.refine written as one loop over levels and cells, with the
    keys spelled out: the dyadic tree's cell (depth + level, idx >> 1), or
    the bridge counter of (level, step, cell).  Refining the one-step
    dyadic path of [0, T] N-fold gives the dyadic path with N steps."""
    spec = path.spec
    arr, length, level = path.increments[n][None, :], path.dt, 0
    while arr.shape[0] < refinement:
        level += 1
        new = np.empty((2 * arr.shape[0], spec.K))
        for i in range(arr.shape[0]):
            if path.mode == "dyadic":
                idx = n * (1 << level) + 2 * i
                g = _gen(spec.seed, _PURPOSE_DYADIC, path.path_index,
                         ((path.depth + level) << 48) | (idx >> 1))
            else:
                g = _gen(spec.seed, _PURPOSE_BRIDGE, path.path_index,
                         (level << 56) | (n << 28) | i)
            zeta = g.standard_normal(spec.K) * np.sqrt(spec.q * length / 4)
            new[2 * i], new[2 * i + 1] = arr[i] / 2 + zeta, arr[i] / 2 - zeta
        arr, length = new, length / 2
    return arr


class TestSpecValidation:
    def test_zero_modes_with_amplitudes_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(K=0, q=np.zeros(0), amplitude=np.array([1.0]), seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        # Philox keys are 64-bit: a wider seed would alias one inside
        with pytest.raises(ConfigError, match="noise.seed"):
            NoiseSpec(K=0, q=np.zeros(0), amplitude=np.zeros(0), seed=seed)

    def test_nonpositive_covariance_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(K=2, q=np.array([1.0, 0.0]), amplitude=np.zeros(2), seed=1)

    def test_dyadic_requires_power_of_two(self):
        sp = spec4(sampling="dyadic")
        with pytest.raises(ConfigError):
            sample_path(sp, 12, 0.1)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = sample_path(spec4(seed=7), 32, 0.01, path_index=3)
        b = sample_path(spec4(seed=7), 32, 0.01, path_index=3)
        assert np.array_equal(a.increments, b.increments)

    def test_distinct_paths_differ(self):
        a = sample_path(spec4(), 16, 0.01, path_index=0)
        b = sample_path(spec4(), 16, 0.01, path_index=1)
        assert not np.array_equal(a.increments, b.increments)

    def test_both_sampling_modes_reproducible(self):
        for mode in ("per-step", "dyadic"):
            for seed, index in ((42, 0), (7, 3), (2**40 + 1, 17)):
                a = sample_path(spec4(seed=seed, sampling=mode), 16, 0.01, index)
                b = sample_path(spec4(seed=seed, sampling=mode), 16, 0.01, index)
                assert np.array_equal(a.increments, b.increments)
                if mode == "dyadic":
                    tree = sample_path(spec4(seed=seed, sampling=mode), 1, 16 * 0.01, index)
                    assert np.array_equal(a.increments, reference_refine(tree, 0, 16))
                for n in (0, 9, 15):
                    for r in (2, 8):
                        assert np.array_equal(a.refine(n, r), reference_refine(a, n, r))


class TestDyadicCoupling:
    def test_halved_steps_refine_the_same_path(self):
        # the N and 2N dyadic paths are couplings of one Wiener path:
        # adjacent fine increments sum to the coarse ones, bitwise through
        # the shared bridge samples
        sp = spec4(sampling="dyadic")
        coarse = sample_path(sp, 8, 0.125)
        fine = sample_path(sp, 16, 0.0625)
        paired = fine.increments[0::2] + fine.increments[1::2]
        assert np.allclose(paired, coarse.increments, rtol=0, atol=1e-15)

    def test_refine_matches_deeper_path_exactly(self):
        sp = spec4(sampling="dyadic")
        coarse = sample_path(sp, 8, 0.125)
        fine = sample_path(sp, 16, 0.0625)
        for n in range(8):
            sub = coarse.refine(n, 2)
            assert np.array_equal(sub, fine.increments[2 * n:2 * n + 2])

    def test_refinement_sums_to_increment(self):
        for mode in ("per-step", "dyadic"):
            path = sample_path(spec4(sampling=mode), 8, 0.125)
            for n in (0, 3, 7):
                sub = path.refine(n, 8)
                assert np.allclose(sub.sum(axis=0), path.increments[n],
                                   rtol=0, atol=1e-15)

    def test_refinement_validation(self):
        path = sample_path(spec4(), 8, 0.125)
        with pytest.raises(ConfigError):
            path.refine(0, 1)
        with pytest.raises(ConfigError):
            path.refine(0, 3)


class TestMoments:
    def test_per_mode_variance_within_chi2_bands(self):
        # N = 10^4 increments, dt = 0.01: per-mode sample variance within
        # 3 sigma of dt*q_k under the chi^2 law, sample mean within 3 sigma
        sp = NoiseSpec(K=4, q=np.array([1.0, 1 / 4, 1 / 9, 1 / 16]),
                       amplitude=np.zeros(4), seed=2024)
        N, dt = 10_000, 0.01
        path = sample_path(sp, N, dt)
        assert path.mode == "per-step"
        var = path.increments.var(axis=0, ddof=1)
        mean = path.increments.mean(axis=0)
        target = dt * sp.q
        assert np.all(np.abs(var - target) <= 3 * np.sqrt(2.0 / N) * target)
        assert np.all(np.abs(mean) <= 3 * np.sqrt(target / N))

    def test_dyadic_variance_matches_too(self):
        sp = NoiseSpec(K=2, q=np.array([1.0, 0.5]), amplitude=np.zeros(2),
                       seed=99, sampling="dyadic")
        N, dt = 8192, 1.0 / 8192
        path = sample_path(sp, N, dt)
        var = path.increments.var(axis=0, ddof=1)
        target = dt * sp.q
        assert np.all(np.abs(var - target) <= 4 * np.sqrt(2.0 / N) * target)


class TestApplyG:
    """The multiplicative forcing as the fluid substep applies it: the
    coefficient xi of the step's increment times the state."""

    def test_zero_state_zero_forcing(self, rng):
        dom = ReferenceDomain(L=1.0, R=1.0, nz=2, nr=2)
        fl, st, lay = build_spaces(dom)
        prof = WallProfile.zero(1.0, 2)
        forms = assemble_all(fl, lay, prof)
        params = SchemeParams(nu=1.0, delta=0.1, epsilon=1e-3, dt=0.01)
        v_half = rng.normal(size=st.n_free)
        zero_u, zero_v = np.zeros(fl.n_free), np.zeros(st.n_free)
        quiet = fluid_step(fl, lay, forms, forms.M_eta, params, zero_u, zero_v, v_half,
                           0.0, 1.0, 0.0)
        xi = float(spec4().amplitude @ np.array([0.3, -0.1, 0.2, 0.05]))
        forced = fluid_step(fl, lay, forms, forms.M_eta, params, zero_u, zero_v, v_half,
                            xi, 1.0, 0.0)
        assert np.array_equal(quiet[0], forced[0]) and np.array_equal(quiet[1], forced[1])

    def test_zero_increment_zero_forcing(self):
        path = NoisePath(np.zeros((3, 4)), 0.1, spec4(), 0, "per-step", 0)
        assert all(path.xi(n) == 0.0 for n in range(3))


class TestLipschitzAndGrowth:
    def _setup(self):
        dom = ReferenceDomain(L=1.0, R=1.0, nz=6, nr=3)
        fl, st, lay = build_spaces(dom)
        prof = st.profile(0.08 * np.sin(np.arange(st.n_free)))
        forms = assemble_all(fl, lay, prof)
        return fl, lay, forms

    def test_lipschitz_ratio_constant_across_scales(self, rng):
        # the coefficient is linear in (u, v): at a fixed direction the
        # ratio ||G(du,dv)||_HS / (||du|| + ||dv||) cannot move with scale
        fl, lay, forms = self._setup()
        sp = spec4()
        du = rng.normal(size=fl.n_free)
        dv = rng.normal(size=lay.structure.n_free)
        M1 = lay.csr(forms.M_eta)  # for the plain state norms use unit weight below
        M_s = lay.structure.M
        ratios = []
        for t in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            hs = np.sqrt(sp.phi_hs_sq * state_l2_sq(lay, forms.M_sq, t * du, t * dv))
            denom = np.sqrt(float((t * du) @ (M1 @ (t * du)))) \
                + np.sqrt(float((t * dv) @ (M_s @ (t * dv))))
            ratios.append(hs / denom)
        ratios = np.asarray(ratios)
        assert ratios.var() / ratios.mean() ** 2 <= 1e-10

    def test_growth_constant_finite_and_reported(self, rng):
        fl, lay, forms = self._setup()
        sp = spec4()
        M_s = lay.structure.M
        worst = 0.0
        for _ in range(50):
            u = rng.normal(size=fl.n_free)
            v = rng.normal(size=lay.structure.n_free)
            hs = np.sqrt(sp.phi_hs_sq * state_l2_sq(lay, forms.M_sq, u, v))
            denom = np.sqrt(float(u @ (lay.csr(forms.M_eta) @ u))) \
                + np.sqrt(float(v @ (M_s @ v)))
            worst = max(worst, hs / denom)
        assert np.isfinite(worst) and worst > 0
        print(f"measured growth constant ||G||_HS <= C (||u||+||v||): C = {worst:.4f}")

    def test_cauchy_schwarz_pairing_is_sharp(self, rng):
        # xi = Phi(dW) <= ||Phi||_{L2(U0;R)} ||dW||_{U0} with equality when
        # the increment aligns with q * amplitude
        sp = spec4()
        path = sample_path(sp, 64, 0.02)
        phi = np.sqrt(sp.phi_hs_sq)
        for n in range(64):
            xi = float(sp.amplitude @ path.increments[n])
            assert abs(xi) <= phi * np.sqrt(path.u0_norm_sq(n)) * (1 + 1e-12)
        aligned = sp.q * sp.amplitude
        xi = float(sp.amplitude @ aligned)
        norm = np.sqrt(float(np.sum(aligned**2 / sp.q)))
        assert xi == pytest.approx(phi * norm, rel=1e-12)
