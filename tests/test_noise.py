import numpy as np
import pytest

from stochfsi.discretization import assemble_all, build_spaces
from stochfsi.errors import ConfigError
from stochfsi.geometry import ReferenceDomain, WallProfile
from numpy.random import Generator, Philox

from stochfsi.noise import _KEY_STREAM, NoisePath, NoiseSpec, sample_path, state_l2_sq
from stochfsi.scheme import SchemeParams, fluid_step


def spec4(seed=42, amp=None):
    q = np.array([1.0, 0.25, 1.0 / 9.0, 0.0625])
    amp = np.array([1.0, 0.5, 0.3, 0.2]) if amp is None else np.asarray(amp)
    return NoiseSpec(K=4, q=q, amplitude=amp, seed=seed)


def fresh_generator(seed, a, b):
    """A new Generator at counter block (0, b, a, 2) under the key
    (seed, _KEY_STREAM): the per-cell construction."""
    key = np.array([seed, _KEY_STREAM], dtype=np.uint64)
    return Generator(Philox(counter=[0, b, a, 2], key=key))


def reference_path(spec, N, dt, index):
    """sample_path with a fresh generator per cell: the root increment over
    [0, 2^d dt], d = ceil(log2 N), refined 2^d-fold, first N leaves."""
    leaves = 2 ** int(np.ceil(np.log2(N)))
    T = leaves * dt
    root = fresh_generator(spec.seed, index, 0).standard_normal(spec.K)
    tree = NoisePath(root[None, :] * np.sqrt(T * spec.q), T, spec, index)
    return tree.increments if N == 1 else reference_refine(tree, 0, leaves)[:N]


def reference_refine(path, n, refinement):
    """NoisePath.refine written as one loop over levels and every cell,
    with the keys spelled out: the tree's cell (depth + level, idx >> 1),
    depth = ceil(log2 N).  Refining the one-step path of [0, T] 2^d-fold
    gives the whole tree's leaves."""
    spec, depth = path.spec, int(np.ceil(np.log2(path.N)))
    arr, length, level = path.increments[n][None, :], path.dt, 0
    while arr.shape[0] < refinement:
        level += 1
        new = np.empty((2 * arr.shape[0], spec.K))
        for i in range(arr.shape[0]):
            idx = n * (1 << level) + 2 * i
            g = fresh_generator(spec.seed, path.path_index, ((depth + level) << 48) | (idx >> 1))
            zeta = g.standard_normal(spec.K) * np.sqrt(spec.q * length / 4)
            new[2 * i], new[2 * i + 1] = arr[i] / 2 + zeta, arr[i] / 2 - zeta
        arr, length = new, length / 2
    return arr


# the step counts each test samples: a whole tree (N a power of two) and a
# truncated one (its first N leaves)
TREES = {"dyadic": (1, 8, 16), "truncated": (3, 6, 12)}


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
        # the two ways a path samples its tree: whole (N = 16) or its first
        # N leaves (N = 12)
        for N in (16, 12):
            for seed, index in ((42, 0), (7, 3), (2**40 + 1, 17)):
                a = sample_path(spec4(seed=seed), N, 0.01, index)
                b = sample_path(spec4(seed=seed), N, 0.01, index)
                assert np.array_equal(a.increments, b.increments)
                tree = sample_path(spec4(seed=seed), 1, 16 * 0.01, index)
                assert np.array_equal(a.increments, reference_refine(tree, 0, 16)[:N])
                for n in (0, 9, N - 1):
                    for r in (2, 8):
                        assert np.array_equal(a.refine(n, r), reference_refine(a, n, r))


class TestOneGeneratorPerPath:
    """sample_path moves one Philox bit generator per path from counter
    block to counter block; it must draw what a fresh generator per cell
    draws."""

    @pytest.mark.parametrize("tree", TREES)
    def test_same_as_a_generator_per_cell(self, tree):
        for seed, index in ((0, 0), (42, 3), (2**40 + 1, 17), (2**63 + 5, 1)):
            spec = spec4(seed=seed)
            for N in TREES[tree]:
                path = sample_path(spec, N, 0.01, index)
                assert np.array_equal(path.increments, reference_path(spec, N, 0.01, index))
                for n in {0, N // 2, N - 1}:
                    assert np.array_equal(path.refine(n, 4), reference_refine(path, n, 4))

    def test_pinned_seed_zero_draw(self):
        # the first increment of path 0 at seed 0, as every earlier version drew it
        path = sample_path(spec4(seed=0), 4, 0.01, 0)
        assert path.increments[0].tolist() == [-0.08270624472515019, 0.020538058702966523,
                                               0.010923945675041423, -0.00807517566408219]

    @pytest.mark.parametrize("tree", TREES)
    def test_seeds_above_2_53_keep_their_low_bits(self, tree):
        # the key holds the seed as a 64-bit word, so seeds that differ
        # below float64's precision draw different noise
        N = TREES[tree][1]
        a = sample_path(spec4(seed=2**60), N, 0.01, 0)
        b = sample_path(spec4(seed=2**60 + 1), N, 0.01, 0)
        assert not np.array_equal(a.increments, b.increments)


class TestDyadicCoupling:
    def test_halved_steps_refine_the_same_path(self):
        # the N and 2N paths are couplings of one Wiener path: adjacent
        # fine increments sum to the coarse ones, bitwise through the
        # shared bridge samples
        sp = spec4()
        coarse = sample_path(sp, 8, 0.125)
        fine = sample_path(sp, 16, 0.0625)
        paired = fine.increments[0::2] + fine.increments[1::2]
        assert np.allclose(paired, coarse.increments, rtol=0, atol=1e-15)

    def test_refine_matches_deeper_path_exactly(self):
        sp = spec4()
        coarse = sample_path(sp, 8, 0.125)
        fine = sample_path(sp, 16, 0.0625)
        for n in range(8):
            sub = coarse.refine(n, 2)
            assert np.array_equal(sub, fine.increments[2 * n:2 * n + 2])

    @pytest.mark.parametrize("N", [3, 6, 12, 100])
    def test_every_N_couples_with_2N(self, N):
        # a step count that is not a power of two keeps the first N leaves
        # of the tree of depth ceil(log2 N), so N and 2N over one horizon
        # share the Wiener path too
        sp, T = spec4(), 1.0
        coarse = sample_path(sp, N, T / N)
        fine = sample_path(sp, 2 * N, T / (2 * N))
        paired = fine.increments[0::2] + fine.increments[1::2]
        assert np.allclose(paired, coarse.increments, rtol=0, atol=1e-15)
        for n in range(N):
            assert np.array_equal(coarse.refine(n, 2), fine.increments[2 * n:2 * n + 2])

    def test_truncated_tree_is_a_prefix(self):
        # at one dt, N = 6 and N = 8 draw one tree of depth 3
        sp = spec4()
        assert np.array_equal(sample_path(sp, 6, 0.01).increments,
                              sample_path(sp, 8, 0.01).increments[:6])

    def test_refinement_sums_to_increment(self):
        for N in (8, 6):
            path = sample_path(spec4(), N, 0.125)
            for n in (0, 3, N - 1):
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
        path = sample_path(sp, N, dt)  # the first 10^4 leaves of a depth-14 tree
        var = path.increments.var(axis=0, ddof=1)
        mean = path.increments.mean(axis=0)
        target = dt * sp.q
        assert np.all(np.abs(var - target) <= 3 * np.sqrt(2.0 / N) * target)
        assert np.all(np.abs(mean) <= 3 * np.sqrt(target / N))

    def test_dyadic_variance_matches_too(self):
        sp = NoiseSpec(K=2, q=np.array([1.0, 0.5]), amplitude=np.zeros(2),
                       seed=99)
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
        prof = WallProfile(1.0, np.zeros(3), np.zeros(3))
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
        path = NoisePath(np.zeros((3, 4)), 0.1, spec4(), 0)
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
