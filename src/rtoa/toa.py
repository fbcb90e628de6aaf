"""Arrival-time statistics of one-particle states: Gaussian wavepacket
construction, eigenfunction overlaps, the arrival-time distribution
Pi(tau), and classical reference times.

The distribution is reported exactly as defined, as the unnormalized
density

    Pi(tau) = |<state, nonnodal eigenfunction(tau)>|^2
            + |<state, nodal eigenfunction(tau)>|^2,

split per parity branch; no renormalization over tau is applied.
Overlaps across charge blocks vanish identically, so a charged particle
never collapses onto the opposite charge sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Basis,
    ChargeSign,
    PhysConstants,
    Representation,
    SpinorField,
    energy,
    kinetic_energy,
    momentum_grid,
    trapezoid_weights,
)
from .spectral import Parity, amplitude_sums, eigen_amplitude_modulus

EDGE_DECAY_TOL = 1e-12
DEFAULT_GRID_POINTS = 4097
DEFAULT_HALF_WIDTH_SIGMAS = 8.0
DEFAULT_N_TAU = 2001


@dataclass(frozen=True)
class GaussianState:
    """Minimum-uncertainty wavepacket on the positive-charge block.

    The amplitude exp(-(p-p0)^2 / (m0 c)^2 - i x0 p / hbar) carries
    momentum spread m0 c / 2 and position spread hbar / (m0 c).
    """

    p0: float
    x0: float
    k: PhysConstants = PhysConstants()

    def amplitude(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        mc = self.k.momentum_scale
        norm = 1.0 / math.sqrt(mc * math.sqrt(math.pi / 2.0))
        return norm * np.exp(
            -((p - self.p0) ** 2) / mc**2 - 1j * self.x0 * p / self.k.hbar
        )

    def amplitude_derivative(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        mc = self.k.momentum_scale
        return self.amplitude(p) * (
            -2.0 * (p - self.p0) / mc**2 - 1j * self.x0 / self.k.hbar
        )

    def default_grid(self) -> np.ndarray:
        """Uniform grid centered on p0, wide enough that the packet has
        decayed below 1e-12 in probability at the edges; shifted half a
        step if p = 0 would land exactly on a node.  For p0 < 0 it is the
        mirror image of the p0 > 0 partner's grid, so a packet and its
        mirror (p0, x0) -> (-p0, -x0) sample the sqrt(|p|) cusp alike."""
        half = DEFAULT_HALF_WIDTH_SIGMAS * 0.5 * self.k.momentum_scale
        if self.p0 < 0.0:
            return -momentum_grid(-self.p0 - half, -self.p0 + half, DEFAULT_GRID_POINTS)[::-1]
        return momentum_grid(self.p0 - half, self.p0 + half, DEFAULT_GRID_POINTS)

    def field(self, grid=None) -> SpinorField:
        grid = self.default_grid() if grid is None else np.asarray(grid, dtype=float)
        amp = self.amplitude(grid)
        return SpinorField(
            Representation.FESHBACH_VILLARS_PHI, Basis.MOMENTUM, grid, amp, np.zeros_like(amp)
        )

    def moments(self, grid=None) -> dict[str, float]:
        """Quadrature moments on the sampled grid: mean momentum and
        position with their spreads.  Position moments use the analytic
        derivative of the sampled amplitude (x acts as i hbar d/dp)."""
        grid = self.default_grid() if grid is None else np.asarray(grid, dtype=float)
        w = trapezoid_weights(grid)
        amp = self.amplitude(grid)
        damp = self.amplitude_derivative(grid)
        prob = np.abs(amp) ** 2
        norm = float(np.sum(w * prob))
        mean_p = float(np.sum(w * grid * prob)) / norm
        mean_p2 = float(np.sum(w * grid**2 * prob)) / norm
        xamp = 1j * self.k.hbar * damp
        mean_x = float(np.real(np.sum(w * np.conj(amp) * xamp))) / norm
        mean_x2 = float(np.sum(w * np.abs(xamp) ** 2)) / norm
        return {
            "norm": norm,
            "mean_p": mean_p,
            "mean_x": mean_x,
            "spread_p": math.sqrt(max(mean_p2 - mean_p**2, 0.0)),
            "spread_x": math.sqrt(max(mean_x2 - mean_x**2, 0.0)),
        }


def gaussian_state(
    p0: float, x0: float, k: PhysConstants = PhysConstants()
) -> GaussianState:
    return GaussianState(p0=p0, x0=x0, k=k)


def _check_edge_decay(grid: np.ndarray, amp: np.ndarray) -> None:
    prob = np.abs(amp) ** 2
    peak = float(prob.max())
    if peak == 0.0:
        raise ValueError("state is identically zero")
    if prob[0] > EDGE_DECAY_TOL * peak or prob[-1] > EDGE_DECAY_TOL * peak:
        raise ValueError(
            "state has not decayed below 1e-12 of its peak probability at the "
            "grid edges; widen the momentum grid"
        )


def _branch_amplitudes(
    field: SpinorField, lam: ChargeSign, tau0: float, step: float, n: int, k: PhysConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps <state, eigenfunction(lam, branch, tau)> on the uniform
    grid tau_j = tau0 + j step, j < n, as (nonnodal, nodal) arrays, each
    without its rest phase exp(-i lam tau_j m0 c^2 / hbar): the
    trapezoid sums over the momentum grid of the block ``lam``, which must
    hold the state's amplitude.  They are the half sums of
    :func:`spectral.amplitude_sums` (about log2 n ``exp`` rows, n n_p
    complex multiply-adds), added for the non-nodal branch and subtracted
    for the nodal one; their conjugates are the projections of
    ``completeness_check``."""
    grid = field.grid
    amp = field.upper if lam is ChargeSign.POSITIVE else field.lower
    _check_edge_decay(grid, amp)
    e = energy(grid, k)
    # the phase tables form T_p tau0 / hbar and T_p t / hbar for offsets t
    # up to the window width (n - 1) step; T_p peaks at an end of the grid
    width = (n - 1) * abs(step)
    fastest = float(kinetic_energy(grid[[0, -1]], e[[0, -1]], k).max())
    if not math.isfinite(max(abs(tau0), width) * fastest / k.hbar):
        raise ValueError(
            f"tau window [{tau0:g}, {tau0 + width:g}] is so wide that the phases "
            "tau T_p / hbar are not finite"
        )
    base = trapezoid_weights(grid) * np.conj(amp) * eigen_amplitude_modulus(grid, e, k)
    neg, pos = (sums.ravel()[:n] for *_, sums in amplitude_sums(base, grid, e, int(lam), k, tau0, step, n))
    return pos + neg, pos - neg


@dataclass(frozen=True)
class ToaDistribution:
    """Arrival-time density sampled on a tau grid, split per parity
    branch; pi_values is their pointwise sum."""

    tau_samples: np.ndarray
    pi_values: np.ndarray
    pi_nonnodal: np.ndarray
    pi_nodal: np.ndarray

    def __post_init__(self):
        for name in ("tau_samples", "pi_values", "pi_nonnodal", "pi_nodal"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.pi_values)):
            raise ValueError("arrival-time density must be finite")
        if np.any(self.pi_values < 0.0):
            raise ValueError("arrival-time density must be nonnegative")

    def integral(self) -> float:
        """Total mass over the sampled window; reported, not asserted."""
        return float(np.sum(trapezoid_weights(self.tau_samples) * self.pi_values))


def toa_distribution(
    state: GaussianState | SpinorField,
    tau_range: tuple[float, float] | None = None,
    n_tau: int = DEFAULT_N_TAU,
    k: PhysConstants | None = None,
) -> ToaDistribution:
    """Evaluate both branch overlaps on a tau grid.

    With ``tau_range`` None and a Gaussian state, the window spans
    [t_ph - 5, t_class + 5 (t_class - t_ph) + 10] for p0 > 0 (mirrored
    for p0 < 0) and a symmetric window for p0 ~ 0, which covers the
    peak, the photon wall and the slow tail.  A Gaussian state carries
    its own constants, so a different ``k`` is refused; a sampled state
    needs ``k`` and must occupy one charge block.
    """
    if n_tau < 2:
        raise ValueError("need n_tau >= 2")
    if isinstance(state, GaussianState):
        if k is not None and k != state.k:
            raise ValueError("constants k differ from the Gaussian state's own")
        kk = state.k
        field = state.field()
        if tau_range is None:
            tau_range = default_tau_range(state.p0, state.x0, kk)
    else:
        if k is None:
            raise ValueError("sampled states need explicit constants")
        if np.any(state.upper) and np.any(state.lower):
            raise ValueError("sampled state occupies both charge blocks; pass one block at a time")
        if tau_range is None:
            raise ValueError("tau_range is required for sampled states")
        kk = k
        field = state
    lam = ChargeSign.POSITIVE if np.any(field.upper) else ChargeSign.NEGATIVE
    lo, hi = tau_range
    if not lo < hi:
        raise ValueError(f"tau window must increase: got tau_range ({lo:g}, {hi:g})")
    if not math.isfinite(hi - lo):
        raise ValueError("tau window width must be finite")
    taus = np.linspace(lo, hi, n_tau)  # lo + j (hi - lo) / (n_tau - 1), as summed below

    amplitudes = _branch_amplitudes(field, lam, lo, (hi - lo) / (n_tau - 1), n_tau, kk)
    nonnodal, nodal = (np.abs(a) ** 2 for a in amplitudes)
    return ToaDistribution(taus, nonnodal + nodal, nonnodal, nodal)


def default_tau_range(
    p0: float, x0: float, k: PhysConstants = PhysConstants()
) -> tuple[float, float]:
    t_ph = photon_time(p0, x0, k)
    if abs(p0) < 0.25 * k.momentum_scale:
        span = 10.0 * max(abs(t_ph), 1.0) + 10.0
        return (-span, span)
    t_cl = classical_time(p0, x0, k)
    lo = t_ph - 5.0
    hi = t_cl + 5.0 * abs(t_cl - t_ph) + 10.0
    return (min(lo, hi), max(lo, hi))


def photon_time(p0: float, x0: float, k: PhysConstants = PhysConstants()) -> float:
    """Arrival time at the origin for a photon launched from x0 in the
    direction of p0: -x0 sgn(p0) / c, the |p0| -> infinity limit of
    :func:`classical_time`.  At p0 = 0 either direction reaches the
    origin, at |x0| / c."""
    if p0 == 0.0:
        return abs(x0) / k.c
    return -x0 * math.copysign(1.0, p0) / k.c


def classical_time(p0: float, x0: float, k: PhysConstants = PhysConstants()) -> float | None:
    """Free classical relativistic arrival time at the origin; None at
    p0 = 0, where it is undefined.  A time that is not finite (a p0 so
    small that x0 / v overflows) is refused."""
    if p0 == 0.0:
        return None
    t = -x0 * math.sqrt(p0**2 + (k.momentum_scale) ** 2) / (p0 * k.c)
    if not math.isfinite(t):
        raise ValueError(f"classical arrival time for p0 = {p0:g}, x0 = {x0:g} is not finite")
    return t


def classical_references(
    p0: float, x0: float, k: PhysConstants = PhysConstants()
) -> tuple[float | None, float]:
    """(t_class, t_ph) reference arrival times for mean momentum p0 and
    mean position x0; t_class is None at p0 = 0."""
    return classical_time(p0, x0, k), photon_time(p0, x0, k)


def most_probable_tau(d: ToaDistribution) -> float | None:
    """Location of the distribution maximum, refined by a three-point
    parabolic fit around the maximal sample; None when the maximum sits
    on an end of the tau window, which then does not bracket it."""
    if d.tau_samples.size == 1:
        return float(d.tau_samples[0])
    j = int(np.argmax(d.pi_values))
    if j == 0 or j == d.tau_samples.size - 1:
        return None
    y0, y1, y2 = d.pi_values[j - 1 : j + 2]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(d.tau_samples[j])
    h = d.tau_samples[j + 1] - d.tau_samples[j]
    return float(d.tau_samples[j] + 0.5 * h * (y0 - y2) / denom)
