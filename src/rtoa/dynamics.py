"""Position-space eigenfunction dynamics: regularized oscillatory
integrals, probability-density grids, and localization diagnostics.

In terms of the dimensionless momentum q = p / (m0 c), the two parity
branches reduce to a pair of real one-dimensional integrals

    f1 = Int_0^inf sqrt(q) (1+q^2)^(-1/4) K(a q) cos(b sqrt(1+q^2)) e^(-eps q) dq
    f2 = same with sin(b sqrt(1+q^2)),

with K = cos for the non-nodal branch and K = sin for the nodal one,
a = m0 c x / hbar and b = m0 c^2 (t - tau) / hbar.  The undamped
integrals diverge; they are defined here only through the exp(-eps q)
regulator (reported in all outputs), optionally extrapolated down an
epsilon ladder.  The probability density

    P(x, t) = m0^2 c^3 / (2 pi^2 hbar^2) * (f1^2 + f2^2)

is independent of the charge sign, even in x and in t - tau, and for
the nodal branch vanishes identically on the line x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChargeSign, PhysConstants
from .errors import RangeBoundaryError
from .quadrature import (
    QuadratureConfig,
    extrapolate_to_zero,
    integrate_sqrt_endpoint,
)
from .spectral import EigenSpec, Parity


def thread_count() -> int:
    """Density cells run on the calling thread, so always 1."""
    return 1


def _kernel_scales(tau: float, x: float, t: float, k: PhysConstants):
    a = k.momentum_scale * x / k.hbar
    b = k.rest_energy * (t - tau) / k.hbar
    return a, b


def _panel_width(a: float, b: float) -> float:
    """Half period of the fastest oscillating factor, capped at 4."""
    fastest = max(abs(a), abs(b), 1e-30)
    return min(math.pi / fastest, 4.0)


def _f_integrals_result(
    branch: Parity,
    tau: float,
    x: float,
    t: float,
    k: PhysConstants,
    q: QuadratureConfig,
    eps: float,
    strict: bool = True,
    powers: tuple[float, ...] = (-0.5,),
):
    """Damped branch integrals at one point: a (cos, sin) time-factor
    column pair per entry of ``powers``, the exponent of sqrt(1+q^2) in
    the weight.  None where the nodal kernel vanishes identically."""
    if eps <= 0.0:
        raise ValueError("epsilon must be > 0")
    a, b = _kernel_scales(tau, x, t, k)
    nodal = branch.is_nodal
    if nodal and x == 0.0:
        return None  # sin(0) kernel: exact zero before any quadrature

    def integrand(qq):
        root = np.sqrt(1.0 + qq * qq)
        sqrt_q, damping = np.sqrt(qq), np.exp(-eps * qq)
        kernel = np.sin(a * qq) if nodal else np.cos(a * qq)
        cos_b, sin_b = np.cos(b * root), np.sin(b * root)
        columns = []
        for power in powers:
            base = sqrt_q * root**power * damping * kernel
            columns += [base * cos_b, base * sin_b]
        return np.stack(columns, axis=1)

    return integrate_sqrt_endpoint(
        integrand,
        q.cutoff(eps),
        max_width=_panel_width(a, b),
        abs_tol=q.abs_tol,
        rel_tol=q.rel_tol,
        max_subdivisions=q.max_subdivisions,
        n_out=2 * len(powers),
        raise_on_failure=strict,
    )


def f_integrals(
    branch: Parity,
    tau: float,
    x: float,
    t: float,
    k: PhysConstants = PhysConstants(),
    q: QuadratureConfig = QuadratureConfig(),
    epsilon: float | None = None,
) -> tuple[float, float]:
    """The damped branch integrals (f1, f2) at one spacetime point.

    f1 carries the cos time factor and f2 the sin one; both share the
    branch kernel (cos(a q) non-nodal, sin(a q) nodal).  Charge sign
    never enters.
    """
    eps = q.epsilon if epsilon is None else epsilon
    res = _f_integrals_result(branch, tau, x, t, k, q, eps)
    if res is None:
        return 0.0, 0.0
    return float(res.value[0]), float(res.value[1])


def _density_cell(
    branch: Parity,
    tau: float,
    x: float,
    t: float,
    k: PhysConstants,
    q: QuadratureConfig,
    epsilons: tuple[float, ...],
    strict: bool,
) -> tuple[float, bool]:
    """(density, converged) at one point for each regulator in
    ``epsilons``; a ladder of several is extrapolated to zero regulator
    and clamped at zero (extrapolating a vanishing positive sequence may
    undershoot by roundoff)."""
    pref = k.m0**2 * k.c**3 / (2.0 * math.pi**2 * k.hbar**2)
    values, converged = [], True
    for eps in epsilons:
        res = _f_integrals_result(branch, tau, x, t, k, q, eps, strict=strict)
        if res is None:
            values.append(0.0)
        else:
            values.append(pref * float(res.value[0] ** 2 + res.value[1] ** 2))
            converged = converged and res.converged
    if len(epsilons) > 1:
        return max(0.0, float(extrapolate_to_zero(epsilons, values))), converged
    return values[0], converged


def density(
    branch: Parity,
    tau: float,
    x: float,
    t: float,
    k: PhysConstants = PhysConstants(),
    q: QuadratureConfig = QuadratureConfig(),
    epsilon: float | None = None,
) -> float:
    """Probability density of the time-evolved eigenfunction at (x, t),
    identical for both charge signs."""
    eps = q.epsilon if epsilon is None else epsilon
    return _density_cell(branch, tau, x, t, k, q, (eps,), strict=True)[0]


def density_extrapolated(
    branch: Parity,
    tau: float,
    x: float,
    t: float,
    k: PhysConstants = PhysConstants(),
    q: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Density with the epsilon ladder extrapolated to zero regulator,
    clamped at zero."""
    return _density_cell(branch, tau, x, t, k, q, q.epsilon_ladder, strict=True)[0]


@dataclass(frozen=True)
class DensityGrid:
    """Dense density evaluation: values[i, j] = P(t_samples[i], x_samples[j]).

    Cells whose quadrature error estimate exceeded the configured
    tolerance are listed in ``flagged`` as (i, j) index pairs.
    """

    x_samples: np.ndarray
    t_samples: np.ndarray
    values: np.ndarray
    spec: EigenSpec
    config: QuadratureConfig
    extrapolated: bool = False
    flagged: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for name in ("x_samples", "t_samples", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != (self.t_samples.size, self.x_samples.size):
            raise ValueError("values must be shaped (n_t, n_x)")
        if np.any(self.values < 0.0):
            raise ValueError("densities must be nonnegative")


def density_grid(
    branch: Parity,
    tau: float,
    x_range: tuple[float, float],
    t_range: tuple[float, float],
    nx: int,
    nt: int,
    k: PhysConstants = PhysConstants(),
    q: QuadratureConfig = QuadratureConfig(),
    extrapolate: bool = False,
) -> DensityGrid:
    """Evaluate the density on a regular mesh.

    Cells are evaluated on the calling thread in ascending row-major
    (t, x) order, so output is deterministic for a fixed configuration.
    Cells whose quadrature did not converge are kept and flagged.
    """
    if nx < 2 or nt < 2:
        raise ValueError("need nx, nt >= 2")
    xs = np.linspace(x_range[0], x_range[1], nx)
    ts = np.linspace(t_range[0], t_range[1], nt)
    epsilons = q.epsilon_ladder if extrapolate else (q.epsilon,)
    cells = [
        _density_cell(branch, tau, float(x), float(t), k, q, epsilons, strict=False)
        for t in ts
        for x in xs
    ]
    values = np.asarray([v for v, _ in cells], dtype=float).reshape(nt, nx)
    flagged = tuple(divmod(i, nx) for i, (_, ok) in enumerate(cells) if not ok)
    spec = EigenSpec(ChargeSign.POSITIVE, branch, tau)
    return DensityGrid(xs, ts, values, spec, q, extrapolated=extrapolate, flagged=flagged)


def psi_representation_eigenfunction(
    spec: EigenSpec,
    x: float,
    t: float,
    k: PhysConstants = PhysConstants(),
    q: QuadratureConfig = QuadratureConfig(),
    epsilon: float | None = None,
) -> tuple[complex, complex]:
    """Both components of the eigenfunction mapped back to the coupled
    (Schrodinger) representation at position x and time t.

    The component weights are (1+q^2)^(-1/2) +/- lambda; the nodal
    branch uses the sin kernel and an extra factor i.
    """
    eps = q.epsilon if epsilon is None else epsilon
    res = _f_integrals_result(spec.parity, spec.tau, x, t, k, q, eps, powers=(-1.0, 0.0))
    if res is None:
        return 0.0 + 0.0j, 0.0 + 0.0j
    lam = int(spec.lam)
    # the time phase is exp(-i lam b sqrt(1+q^2)), and cos(lam y) = cos(y),
    # sin(lam y) = lam sin(y) for lam = +-1
    weighted = res.value[0] - 1j * lam * res.value[1]
    bare = res.value[2] - 1j * lam * res.value[3]
    pref = k.m0 * k.c**1.5 / (2.0**1.5 * math.pi * k.hbar)
    if spec.parity.is_nodal:
        pref = pref * 1j
    return pref * (weighted + lam * bare), pref * (weighted - lam * bare)


@dataclass(frozen=True)
class SliceDiagnostics:
    t: float
    argmax_x: float
    peak_value: float
    nodal_peaks: tuple[float, float] | None


@dataclass(frozen=True)
class LocalizationReport:
    slices: tuple[SliceDiagnostics, ...]
    best_t: float
    tau: float


def localization_report(branch: Parity, tau: float, grid: DensityGrid) -> LocalizationReport:
    """Per-time-slice peak diagnostics of a density grid.

    For the nodal branch the two symmetric peaks are tracked and the
    time slice where they come closest to the origin is reported; for
    the non-nodal branch the slice holding the global peak.  The grid
    must cover t = tau.
    """
    ts, xs, vals = grid.t_samples, grid.x_samples, grid.values
    if not (ts[0] <= tau <= ts[-1]):
        raise RangeBoundaryError("grid time range does not cover the eigenvalue tau")
    slices = []
    score = []
    for i, t in enumerate(ts):
        row = vals[i]
        j = int(np.argmax(row))
        nodal_peaks = None
        if branch.is_nodal:
            pos = xs > 0.0
            neg = xs < 0.0
            jp = int(np.argmax(np.where(pos, row, -np.inf)))
            jn = int(np.argmax(np.where(neg, row, -np.inf)))
            nodal_peaks = (float(xs[jn]), float(xs[jp]))
            score.append(min(abs(xs[jn]), abs(xs[jp])))
        else:
            score.append(-row[j])
        slices.append(SliceDiagnostics(float(t), float(xs[j]), float(row[j]), nodal_peaks))
    score = np.asarray(score)
    # grid quantization can tie a symmetric plateau of slices around the
    # optimum; report the plateau midpoint
    tol = 1e-9 * (np.abs(score.min()) + 1e-300)
    ties = np.flatnonzero(score <= score.min() + tol)
    best = int(ties[ties.size // 2])
    return LocalizationReport(tuple(slices), float(ts[best]), tau)
