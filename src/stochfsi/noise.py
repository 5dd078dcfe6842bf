"""Seeded Q-Wiener increments and the multiplicative forcing coefficient.

The driving noise is truncated to K modes with diagonal covariance
Q = diag(q_1..q_K); increments are stored in the covariance eigenbasis,
so column k of a path is N(0, dt*q_k) i.i.d. across steps.  The scalar
coefficient applied to the state is

    xi = sum_k amplitude_k * dW_k    (``NoisePath.xi``),

and the fluid substep's forcing pair is (xi * (R+eta*) u, xi * v) tested
against the coupled velocity space.  With this convention the functional has
Hilbert-Schmidt norm  ||Phi||^2 = sum_k q_k amplitude_k^2  against the
Cameron-Martin space, the increment norm there is
||dW||^2 = sum_k dW_k^2 / q_k, and xi <= ||Phi|| * ||dW|| is sharp
Cauchy-Schwarz -- the pairing used by the per-step energy checks.

Sampling is counter-based (Philox) and keyed by (seed, path, step) or by
(seed, path, dyadic cell); a path moves one bit generator from counter
block to counter block (``_Stream``).  So ensembles are reproducible
under any parallel schedule and a path's increments never depend on how
many other paths exist.  The dyadic mode builds the whole Wiener path as
a Brownian tree over [0, T]; runs with N and 2N steps then see couplings
of the same realization, which is what the time-refinement studies
compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

# fixed second key word; the seed is the first.  It is 0x9E3779B97F4A7C15
# rounded to float64, the word a key list of Python ints used to store, so
# every seed below 2^53 draws the noise it drew then
_KEY_STREAM = 0x9E3779B97F4A8000
_MASK64 = 2**64 - 1

_PURPOSE_STEP = 1
_PURPOSE_DYADIC = 2
_PURPOSE_BRIDGE = 3


class _Stream:
    """One Philox bit generator under the key (seed, _KEY_STREAM), moved to
    a counter block for each draw.  ``normal`` sets the counter to
    (0, b, a, purpose) with an empty buffer, so it draws what a fresh
    ``Generator(Philox(counter=..., key=...))`` at that block draws, without
    building one per step or cell."""

    def __init__(self, seed: int):
        self._bitgen = Philox(key=np.array([seed, _KEY_STREAM], dtype=np.uint64))
        self._gen = Generator(self._bitgen)
        self._state = self._bitgen.state  # counter 0, empty buffer

    def normal(self, purpose: int, a: int, b: int, size: int) -> np.ndarray:
        """``size`` standard normals from counter block (0, b, a, purpose)."""
        self._state["state"]["counter"] = np.array(
            [0, int(b) & _MASK64, int(a) & _MASK64, purpose], dtype=np.uint64)
        self._bitgen.state = self._state
        return self._gen.standard_normal(size)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated covariance, coefficient functional, and sampling contract."""

    K: int
    q: np.ndarray
    amplitude: np.ndarray
    seed: int
    sampling: str = "auto"  # auto | per-step | dyadic

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        amp = np.asarray(self.amplitude, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "amplitude", amp)
        if self.K < 0:
            raise ConfigError(f"noise.K: must be >= 0, got {self.K}")
        if q.shape != (self.K,) or amp.shape != (self.K,):
            raise ConfigError("noise.q / noise.amplitude: length must equal K")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"noise.seed: must be an integer in [0, 2^64), got {self.seed!r}")
        if np.any(q <= 0):
            raise ConfigError("noise.q: covariance eigenvalues must be > 0")
        if self.sampling not in ("auto", "per-step", "dyadic"):
            raise ConfigError(f"noise.sampling: unknown mode {self.sampling!r}")

    @property
    def phi_hs_sq(self) -> float:
        """||Phi||^2 in the Hilbert-Schmidt sense (against the q-weighted basis)."""
        return float((self.q * self.amplitude**2).sum())

    def resolve_sampling(self, N: int) -> str:
        if self.sampling == "auto":
            return "dyadic" if _is_pow2(N) else "per-step"
        if self.sampling == "dyadic" and not _is_pow2(N):
            raise ConfigError(f"noise.sampling: dyadic sampling requires N to be a power of two, got {N}")
        return self.sampling


@dataclass
class NoisePath:
    """One realization's increments, (N, K), plus enough keying context to
    refine any step consistently with Brownian bridges."""

    increments: np.ndarray
    dt: float
    spec: NoiseSpec
    path_index: int
    mode: str
    depth: int  # dyadic tree depth for mode == "dyadic" (N = 2**depth)

    @property
    def N(self) -> int:
        return self.increments.shape[0]

    def xi(self, n: int) -> float:
        return float(self.spec.amplitude @ self.increments[n])

    def u0_norm_sq(self, n: int) -> float:
        """Squared Cameron-Martin norm of the n-th increment."""
        if self.spec.K == 0:
            return 0.0
        return float((self.increments[n] ** 2 / self.spec.q).sum())

    def refine(self, n: int, refinement: int) -> np.ndarray:
        """Split step n's increment into `refinement` sub-increments.

        The sub-increments sum exactly to the stored increment and are a
        conditional (Brownian-bridge) sample keyed by the same seed, so
        coarse and fine views are couplings of one Wiener path.
        """
        if refinement < 2:
            raise ConfigError(f"refinement: must be >= 2, got {refinement}")
        if not _is_pow2(refinement):
            raise ConfigError(f"refinement: must be a power of two, got {refinement}")
        stream, p, K = _Stream(self.spec.seed), self.path_index, self.spec.K
        arr = self.increments[n][None, :]
        length = self.dt
        for level in range(1, int(refinement).bit_length()):
            if self.mode == "dyadic":
                # the cells of the tree below step n, keyed as sample_path keys them
                lev, first = self.depth + level, n << (level - 1)
                normals = lambda i: stream.normal(_PURPOSE_DYADIC, p, (lev << 48) | (first + i), K)
            else:
                normals = lambda i: stream.normal(_PURPOSE_BRIDGE, p,
                                                  (level << 56) | (n << 28) | i, K)
            arr = _halve(arr, length, self.spec.q, normals)
            length /= 2
        return arr


def _halve(arr: np.ndarray, length: float, q: np.ndarray, normals) -> np.ndarray:
    """Split each row of ``arr``, an increment over an interval of ``length``,
    into the increments over its two halves by a Brownian bridge: half of it
    plus and minus zeta ~ N(0, q*length/4), with zeta of row i scaled from
    the standard normals ``normals(i)``.  The two halves sum to the row up
    to roundoff."""
    half = arr / 2
    scale = np.sqrt(q * length / 4)
    new = np.empty((2 * arr.shape[0], arr.shape[1]))
    for i in range(arr.shape[0]):
        zeta = normals(i) * scale
        new[2 * i] = half[i] + zeta
        new[2 * i + 1] = half[i] - zeta
    return new


def sample_path(spec: NoiseSpec, N: int, dt: float, path_index: int = 0) -> NoisePath:
    """Draw the increment array for one path; bit-reproducible from the spec."""
    if N < 1:
        raise ConfigError(f"time.N: must be >= 1, got {N}")
    if not dt > 0:
        raise ConfigError(f"time step: must be > 0, got {dt}")
    mode = spec.resolve_sampling(N)
    K = spec.K
    if K == 0:
        return NoisePath(np.zeros((N, 0)), dt, spec, path_index, mode, 0)

    stream = _Stream(spec.seed)
    if mode == "per-step":
        out = np.empty((N, K))
        scale = np.sqrt(dt * spec.q)
        for n in range(N):
            out[n] = stream.normal(_PURPOSE_STEP, path_index, n, K) * scale
        return NoisePath(out, dt, spec, path_index, mode, 0)

    depth = int(N).bit_length() - 1
    T = N * dt
    root = stream.normal(_PURPOSE_DYADIC, path_index, 0, K) * np.sqrt(T * spec.q)
    arr = root[None, :]
    length = T
    for lev in range(1, depth + 1):
        arr = _halve(arr, length, spec.q,
                     lambda i: stream.normal(_PURPOSE_DYADIC, path_index, (lev << 48) | i, K))
        length /= 2
    return NoisePath(arr, dt, spec, path_index, mode, depth)


def state_l2_sq(layout, M_sq: np.ndarray, u_free: np.ndarray, v_beam: np.ndarray) -> float:
    """||(R+eta*) u||_{L2}^2 + ||v||_{L2}^2 (the G-norm without the Phi factor);
    M_sq is the data, on the ``CoupledLayout``'s pattern, of the fluid
    mass weighted by (R+eta*)^2, and the beam mass is the layout's."""
    M_s = layout.structure.M
    return float(u_free @ layout.matvec(M_sq, u_free) + v_beam @ (M_s @ v_beam))
