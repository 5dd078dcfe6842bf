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

Every path is a Brownian tree: with d = ceil(log2 N), the increment over
[0, 2^d dt] is drawn first and each cell is split in two by a Brownian
bridge, d levels down; the path keeps the first N leaves (Levy's midpoint
construction, so its increments are i.i.d. N(0, dt*q) for every N).  Runs
with N and 2N steps over the same T then see couplings of one Wiener path,
which is what the time-refinement studies compare, and ``NoisePath.refine``
descends the same tree below a step.  Sampling is counter-based (Philox)
and keyed by (seed, path, tree cell); a path moves one bit generator from
counter block to counter block (``_Stream``).  So ensembles are
reproducible under any parallel schedule and a path's increments never
depend on how many other paths exist.
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


class _Stream:
    """One Philox bit generator under the key (seed, _KEY_STREAM), moved to
    a counter block for each draw.  ``normal`` sets the counter to
    (0, b, a, 2) with an empty buffer, so it draws what a fresh
    ``Generator(Philox(counter=..., key=...))`` at that block draws, without
    building one per cell.  The last word stays 2 so that a tree draws the
    same bits in every version."""

    def __init__(self, seed: int):
        self._bitgen = Philox(key=np.array([seed, _KEY_STREAM], dtype=np.uint64))
        self._gen = Generator(self._bitgen)
        self._state = self._bitgen.state  # counter 0, empty buffer

    def normal(self, a: int, b: int, size: int) -> np.ndarray:
        """``size`` standard normals from counter block (0, b, a, 2)."""
        self._state["state"]["counter"] = np.array(
            [0, int(b) & _MASK64, int(a) & _MASK64, 2], dtype=np.uint64)
        self._bitgen.state = self._state
        return self._gen.standard_normal(size)


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated covariance, coefficient functional and seed."""

    K: int
    q: np.ndarray
    amplitude: np.ndarray
    seed: int

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

    @property
    def phi_hs_sq(self) -> float:
        """||Phi||^2 in the Hilbert-Schmidt sense (against the q-weighted basis)."""
        return float((self.q * self.amplitude**2).sum())


@dataclass
class NoisePath:
    """One realization's increments, (N, K): the first N leaves of its
    Brownian tree, whose depth is ceil(log2 N)."""

    increments: np.ndarray
    dt: float
    spec: NoiseSpec
    path_index: int

    @property
    def N(self) -> int:
        return self.increments.shape[0]

    def xi(self, n: int) -> float:
        return float(self.spec.amplitude @ self.increments[n])

    def u0_norm_sq(self, n: int) -> float:
        """Squared Cameron-Martin norm of the n-th increment."""
        return float((self.increments[n] ** 2 / self.spec.q).sum())

    def refine(self, n: int, refinement: int) -> np.ndarray:
        """Split step n's increment into `refinement` sub-increments.

        They are the cells of the path's tree below step n, so they sum to
        the stored increment up to roundoff and equal the increments of the
        path with `refinement` times as many steps over the same horizon.
        """
        if refinement < 2 or refinement & (refinement - 1):
            raise ConfigError(f"refinement: must be a power of two >= 2, got {refinement}")
        depth = (self.N - 1).bit_length()
        return _descend(_Stream(self.spec.seed), self.path_index, self.spec.q,
                        self.increments[n], depth, n, self.dt, refinement)


def _descend(stream: _Stream, path: int, q: np.ndarray, row: np.ndarray,
             level: int, cell: int, length: float, leaves: int) -> np.ndarray:
    """The first ``leaves`` cells of the tree of ``path`` below cell
    ``cell`` of ``level``, an interval of ``length`` whose increment is
    ``row``.  Each level splits its cells by a Brownian bridge: half the
    increment plus and minus zeta ~ N(0, q*length/4), with zeta from the
    normals at counter (child level << 48) | parent cell.  A level keeps
    only the cells the leaves below need, and the two halves of a cell sum
    to it up to roundoff."""
    arr = row[None, :]
    for below in range((leaves - 1).bit_length() - 1, -1, -1):
        level += 1
        zeta = np.stack([stream.normal(path, (level << 48) | (cell + i), q.size)
                         for i in range(arr.shape[0])]) * np.sqrt(q * length / 4)
        half, new = arr / 2, np.empty((2 * arr.shape[0], q.size))
        new[0::2] = half + zeta
        new[1::2] = half - zeta
        arr = new[:((leaves - 1) >> below) + 1]
        cell, length = 2 * cell, length / 2
    return arr


def sample_path(spec: NoiseSpec, N: int, dt: float, path_index: int = 0) -> NoisePath:
    """Draw the increment array for one path; bit-reproducible from the spec."""
    if N < 1:
        raise ConfigError(f"time.N: must be >= 1, got {N}")
    if not dt > 0:
        raise ConfigError(f"time step: must be > 0, got {dt}")
    if spec.K == 0:
        return NoisePath(np.zeros((N, 0)), dt, spec, path_index)
    stream = _Stream(spec.seed)
    T = (1 << (N - 1).bit_length()) * dt  # the tree's horizon, 2^depth steps
    root = stream.normal(path_index, 0, spec.K) * np.sqrt(T * spec.q)
    return NoisePath(_descend(stream, path_index, spec.q, root, 0, 0, T, N),
                     dt, spec, path_index)

