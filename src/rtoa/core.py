"""Shared physical ingredients: constants, relativistic dispersion, and
two-component momentum-space fields.

Conventions
-----------
- Natural units by default: hbar = c = m0 = 1, overridable through
  :class:`PhysConstants`.
- Unit charge e = 1; charge densities are reported in units of e.
- Two-component fields are sampled in momentum space in the
  Feshbach-Villars form (components phi_plus, phi_minus), in which the
  free Hamiltonian is diagonal, E_p * sigma3, and the indefinite inner
  product is <a|b> = Integral a^dagger sigma3 b dp.  Each field carries
  that representation and basis as tags, the only members of their enums.
- Integrals over stored grids use composite trapezoidal quadrature;
  structural identities are meant to be checked under grid refinement,
  not at a single resolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class PhysConstants:
    """Positive action, speed and mass scales fixing the unit system; m0 c,
    m0 c^2, c^2, m0^2 and hbar^2, which the formulas form and divide by,
    must be finite normal floats too (none overflows or underflows)."""

    hbar: float = 1.0
    c: float = 1.0
    m0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "m0"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        try:
            scales = (self.momentum_scale, self.rest_energy, self.c * self.c, self.m0 * self.m0, self.hbar * self.hbar)
        except OverflowError:  # c**2
            scales = (np.inf,)
        if not all(np.finfo(float).tiny <= scale <= np.finfo(float).max for scale in scales):
            raise ValueError(f"m0 c and m0 c^2 must be finite normal floats, as must c^2, m0^2 and hbar^2; got {self!r}")

    @property
    def momentum_scale(self) -> float:
        """Compton momentum m0*c."""
        return self.m0 * self.c

    @property
    def rest_energy(self) -> float:
        """Rest energy m0*c^2."""
        return self.m0 * self.c**2

    def exact(self) -> tuple[Fraction, Fraction, Fraction]:
        """(hbar, c, m0) as exact rationals, for the symbolic layer.

        Binary floats convert exactly; integer-valued defaults stay 1.
        """
        return Fraction(self.hbar), Fraction(self.c), Fraction(self.m0)


class ChargeSign(enum.IntEnum):
    """Charge label of a one-particle state (not an energy sign)."""

    POSITIVE = 1
    NEGATIVE = -1


class Representation(enum.Enum):
    FESHBACH_VILLARS_PHI = "phi"


class Basis(enum.Enum):
    MOMENTUM = "momentum"


def energy(p, k: PhysConstants = PhysConstants()):
    """Relativistic dispersion sqrt(p^2 c^2 + m0^2 c^4).

    Accepts scalars or arrays; even in p and bounded below by the rest
    energy.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("momentum must be finite")
    e = np.hypot(p * k.c, k.rest_energy)
    return e if e.ndim else float(e)


def kinetic_energy(p, e, k: PhysConstants = PhysConstants()):
    """T_p = E_p - m0 c^2, formed as p^2 c^2 / (E_p + m0 c^2) from the
    energies ``e`` of ``p``: no cancellation, so T_p keeps its digits at
    any c, where E_p rounds to the ulp of m0 c^2.  The factor
    pc / (E_p + m0 c^2) < 1 is taken first, so no square overflows."""
    pc = p * k.c
    return pc * (pc / (e + k.rest_energy))


@dataclass(frozen=True)
class SpinorField:
    """Two-component complex field sampled on a strictly increasing grid."""

    representation: Representation
    basis: Basis
    grid: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        upper = np.asarray(self.upper, dtype=complex)
        lower = np.asarray(self.lower, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-D with at least two samples")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if upper.shape != grid.shape or lower.shape != grid.shape:
            raise ValueError("component arrays must match the grid length")
        for arr, name in ((grid, "grid"), (upper, "upper"), (lower, "lower")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def with_components(self, upper, lower) -> "SpinorField":
        """Same grid and tags, new component samples."""
        return SpinorField(self.representation, self.basis, self.grid, upper, lower)


def _require_same_grid(a: SpinorField, b: SpinorField) -> None:
    if a.grid.shape != b.grid.shape or not np.array_equal(a.grid, b.grid):
        raise ValueError("fields are sampled on different grids")


def inner_product_phi(a: SpinorField, b: SpinorField) -> complex:
    """Indefinite inner product Integral (a_up* b_up - a_lo* b_lo) dp.

    Both fields must share the same momentum grid; the sigma3 weight
    makes negatively charged states carry norm -1.
    """
    _require_same_grid(a, b)
    integrand = np.conj(a.upper) * b.upper - np.conj(a.lower) * b.lower
    return complex(np.sum(trapezoid_weights(a.grid) * integrand))


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for an arbitrary increasing grid."""
    grid = np.asarray(grid, dtype=float)
    w = np.zeros_like(grid)
    d = np.diff(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def uniform_axis(lo: float, hi: float, n: int, what: str) -> np.ndarray:
    """np.linspace(lo, hi, n), refused unless n >= 2, lo < hi, the width
    hi - lo is finite (taken in Python floats, so numpy never warns) and
    no two samples round onto each other."""
    if n >= 2 and lo < hi and np.isfinite(float(hi) - float(lo)):
        axis = np.linspace(lo, hi, n)
        if np.all(np.diff(axis) > 0.0):
            return axis
    raise ValueError(f"{what} [{lo:g}, {hi:g}] of {n} samples: need n >= 2, lo < hi, a finite width, increasing samples")


def momentum_grid(p_min: float, p_max: float, n: int) -> np.ndarray:
    """Uniform grid on [p_min, p_max], shifted by half a step whenever a
    node would land exactly on p = 0, so the sqrt(|p|) cusp is always
    straddled by a symmetric pair.
    """
    grid = uniform_axis(p_min, p_max, n, "momentum grid")
    if p_min < 0.0 < p_max:
        h = grid[1] - grid[0]
        if np.min(np.abs(grid)) < 1e-12 * h:
            grid = grid + 0.5 * h
    return grid
