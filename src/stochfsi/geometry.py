"""Vertical-stretch maps from the fixed channel onto the moving domain.

The reference domain is the unit-height channel O = (0, L) x (0, 1).  The
moving domain at wall displacement eta is obtained by the map

    A(z, r) = (z, (R + eta(z)) * r),

whose Jacobian determinant is R + eta(z).  The assembly pulls every
differential operator of the flow problem back onto O, where the
pulled-back gradient acts as

    d_z^eta = d_z - r * eta'(z)/(R + eta(z)) * d_r,
    d_r^eta = 1/(R + eta(z)) * d_r.

Wall displacements are C^1 piecewise cubics (Hermite interpolants) on a
uniform partition of (0, L) with clamped ends, so eta(0) = eta(L) =
eta'(0) = eta'(L) = 0 holds exactly by construction.  ``hermite_shapes``
is the one evaluator of the cubic Hermite shapes; the wall profile and
the beam and H^s forms all use it.

Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ReferenceDomain:
    """Fixed computational channel O = (0, L) x (0, 1).

    The physical wall sits at height R in the rest configuration; R enters
    the equations only through the Jacobian weight R + eta.
    """

    L: float
    R: float
    nz: int
    nr: int

    def __post_init__(self):
        if not self.L > 0:
            raise ConfigError(f"domain.L: must be > 0, got {self.L}")
        if not self.R > 0:
            raise ConfigError(f"domain.R: must be > 0, got {self.R}")
        if self.nz < 1:
            raise ConfigError(f"domain.nz: must be >= 1, got {self.nz}")
        if self.nr < 1:
            raise ConfigError(f"domain.nr: must be >= 1, got {self.nr}")


def locate(z, h: float, n_el: int):
    """Element index and local abscissa in [0, 1] of points z on a uniform
    partition of n_el elements of width h; the right end belongs to the
    last element."""
    z = np.asarray(z, dtype=float)
    # np.clip's wrapper costs more than the clamp on these short arrays
    idx = np.minimum(np.maximum(np.floor(z / h), 0), n_el - 1).astype(int)
    return idx, z / h - idx


def hermite_shapes(xi, h: float, deriv: int) -> tuple:
    """The four cubic Hermite shapes of an element of width h, or their
    first or second derivative in z, at local abscissae xi in [0, 1]; four
    arrays shaped like xi, for the value and slope at the left node, then
    the value and slope at the right node."""
    if deriv == 0:
        return (1 + xi * xi * (2 * xi - 3),
                h * xi * (1 + xi * (xi - 2)),
                xi * xi * (3 - 2 * xi),
                h * xi * xi * (xi - 1))
    if deriv == 1:
        return (6 * xi * (xi - 1) / h,
                1 + xi * (3 * xi - 4),
                6 * xi * (1 - xi) / h,
                xi * (3 * xi - 2))
    return ((12 * xi - 6) / (h * h),
            (6 * xi - 4) / h,
            (6 - 12 * xi) / (h * h),
            (6 * xi - 2) / h)


class WallProfile:
    """Clamped C^1 wall displacement on a uniform partition of (0, L).

    Stored as nodal values and nodal slopes of a cubic Hermite interpolant.
    The first and last node carry zero value and zero slope; constructors
    overwrite whatever was passed there, which is what makes the clamped
    boundary conditions exact rather than approximate.
    """

    __slots__ = ("L", "n_el", "h", "vals", "slopes")

    def __init__(self, L: float, vals, slopes):
        vals = np.asarray(vals, dtype=float).copy()
        slopes = np.asarray(slopes, dtype=float).copy()
        if vals.shape != slopes.shape or vals.ndim != 1 or vals.size < 2:
            raise ConfigError("wall profile: vals/slopes must be equal-length 1D arrays, >= 2 nodes")
        vals[0] = vals[-1] = 0.0
        slopes[0] = slopes[-1] = 0.0
        self.L = float(L)
        self.n_el = vals.size - 1
        self.h = self.L / self.n_el
        self.vals = vals
        self.slopes = slopes

    def _combine(self, z, deriv: int):
        idx, xi = locate(z, self.h, self.n_el)
        h0, h1, h2, h3 = hermite_shapes(xi, self.h, deriv)
        return (h0 * self.vals[idx] + h1 * self.slopes[idx]
                + h2 * self.vals[idx + 1] + h3 * self.slopes[idx + 1])

    def value(self, z):
        """eta(z); vectorized over z in [0, L]."""
        return self._combine(z, 0)

    def slope(self, z):
        """eta'(z) from the interpolant itself, never a difference quotient."""
        return self._combine(z, 1)

    def min_value(self) -> float:
        """Exact minimum of eta over [0, L]: the smallest nodal value, or
        the cubic at a per-element critical point inside the element.  Only
        the + root of eta', where eta'' = +sqrt(disc)/h^2 >= 0, can be an
        interior minimum (the - root is a local maximum); where eta' is
        linear (a == 0) its root is -c/b.  A root that is not a number
        (disc < 0, or a == b == 0) or not strictly inside (0, 1) fails the
        range test, so the cubic is evaluated on the remaining elements
        only."""
        h = self.h
        v0, v1 = self.vals[:-1], self.vals[1:]
        s0, s1 = self.slopes[:-1], self.slopes[1:]
        # eta'(xi)*h is quadratic in xi: a*xi^2 + b*xi + c
        a = 6 * (v0 - v1) + 3 * h * (s0 + s1)
        b = 6 * (v1 - v0) - 2 * h * (2 * s0 + s1)
        c = h * s0
        disc = b * b - 4 * a * c
        with np.errstate(invalid="ignore", divide="ignore"):
            xi = (-b + np.sqrt(disc)) / (2 * a)
            linear = a == 0
            xi[linear] = -c[linear] / b[linear]
        inside = (xi > 0) & (xi < 1)
        low = self.vals.min()
        if not inside.any():
            return float(low)
        h0, h1, h2, h3 = hermite_shapes(xi[inside], h, 0)
        val = h0 * v0[inside] + h1 * s0[inside] + h2 * v1[inside] + h3 * s1[inside]
        return float(min(low, val.min()))
