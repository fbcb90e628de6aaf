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

from .core import PhysConstants
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


def _panel_width(a: float, b: float) -> float:
    """Half period of the fastest oscillating factor, capped at 4."""
    fastest = max(abs(a), abs(b), 1e-30)
    return min(math.pi / fastest, 4.0)


def _f_integrals_result(
    branch: Parity,
    tau: float,
    xs,
    ts,
    k: PhysConstants,
    q: QuadratureConfig,
    eps: float,
    strict: bool = True,
    powers: tuple[float, ...] = (-0.5,),
):
    """Damped branch integrals on the mesh ``ts`` x ``xs``, one member
    per cell in row-major (t, x) order: a (cos, sin) time-factor column
    pair per entry of ``powers``, the exponent of sqrt(1+q^2) in the
    weight.

    The integrand factors as g(q) T(b sqrt(1+q^2)) K(a q), so each node
    costs len(xs) + len(ts) trigonometric evaluations, not their product.
    It writes every block into one buffer per call, grown when a block
    needs more room, and returns a view of it: the engine consumes each
    block before asking for the next, and fresh block-sized arrays would
    make the cost of every block depend on the allocator's heap state.
    """
    if eps <= 0.0:
        raise ValueError("epsilon must be > 0")
    a = k.momentum_scale * np.asarray(xs, dtype=float) / k.hbar
    b = k.rest_energy * (np.asarray(ts, dtype=float) - tau) / k.hbar
    kernel = np.sin if branch.is_nodal else np.cos  # sin(0) = 0: nodal x = 0 cells are exact zeros

    buffer = np.empty(0)

    def integrand(qq):
        nonlocal buffer
        root = np.sqrt(1.0 + qq * qq)
        sqrt_q, damping = np.sqrt(qq), np.exp(-eps * qq)
        space = kernel(np.multiply.outer(qq, a))
        phase = np.multiply.outer(root, b)
        time = (np.cos(phase)[:, :, None], np.sin(phase)[:, :, None])
        shape = (qq.size, b.size, a.size, len(powers), 2)
        size = math.prod(shape)
        if buffer.size < size:
            buffer = np.empty(size)
        cells = buffer[:size].reshape(shape)
        for i, power in enumerate(powers):
            weighted = (sqrt_q * root**power * damping)[:, None, None] * space[:, None, :]
            for j, factor in enumerate(time):
                np.multiply(weighted, factor, out=cells[..., i, j])
        return cells.reshape(qq.size, b.size * a.size, 2 * len(powers))

    return integrate_sqrt_endpoint(
        integrand,
        q.cutoff(eps),
        max_width=_panel_width(np.abs(a).max(), np.abs(b).max()),
        abs_tol=q.abs_tol,
        rel_tol=q.rel_tol,
        max_subdivisions=q.max_subdivisions,
        n_out=2 * len(powers),
        members=a.size * b.size,
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
    res = _f_integrals_result(branch, tau, [x], [t], k, q, eps)
    return float(res.value[0, 0]), float(res.value[0, 1])


# Mesh cells integrated together in one call: enough that the per-node
# trigonometric work is small against the cell products, few enough that
# one GK15 panel of (cos, sin) values (15 * 2 * 1024) fits the engine's
# block of 2**15 values.  A row wider than this is still one call.
_MESH_CELLS = 1024


def _density_mesh(
    branch: Parity,
    tau: float,
    xs: np.ndarray,
    ts: np.ndarray,
    k: PhysConstants,
    q: QuadratureConfig,
    epsilons: tuple[float, ...],
    strict: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(densities, converged) on the mesh ``ts`` x ``xs``, both shaped
    (len(ts), len(xs)), for each regulator in ``epsilons``.  Rows are
    integrated in blocks of about _MESH_CELLS cells; a ladder of several
    regulators is extrapolated to zero and clamped at zero
    (extrapolating a vanishing positive sequence may undershoot by
    roundoff)."""
    pref = k.m0**2 * k.c**3 / (2.0 * math.pi**2 * k.hbar**2)
    shape = (ts.size, xs.size)
    rows = max(1, _MESH_CELLS // xs.size)
    rungs, converged = [], np.ones(shape, dtype=bool)
    for eps in epsilons:
        rung = np.empty(shape)
        for i in range(0, ts.size, rows):
            res = _f_integrals_result(branch, tau, xs, ts[i : i + rows], k, q, eps, strict=strict)
            f1, f2 = res.value[:, 0], res.value[:, 1]
            rung[i : i + rows] = (pref * (f1**2 + f2**2)).reshape(-1, xs.size)
            converged[i : i + rows] &= res.member_converged.reshape(-1, xs.size)
        rungs.append(rung)
    if len(epsilons) > 1:
        extrapolated = extrapolate_to_zero(epsilons, rungs)
        return np.where(extrapolated > 0.0, extrapolated, 0.0), converged
    return rungs[0], converged


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
    values, _ = _density_mesh(branch, tau, np.array([x]), np.array([t]), k, q, (eps,), strict=True)
    return float(values[0, 0])


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
    values, _ = _density_mesh(
        branch, tau, np.array([x]), np.array([t]), k, q, q.epsilon_ladder, strict=True
    )
    return float(values[0, 0])


@dataclass(frozen=True)
class DensityGrid:
    """Dense density evaluation: values[i, j] = P(t_samples[i], x_samples[j]).

    Cells whose quadrature error estimate exceeded the configured
    tolerance are listed in ``flagged`` as (i, j) index pairs.
    """

    x_samples: np.ndarray
    t_samples: np.ndarray
    values: np.ndarray
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

    Rows are integrated in blocks of about _MESH_CELLS cells: one
    batched engine call per block and regulator, one member per cell
    on a shared panel tree, with the integrand evaluated in blocks
    within the engine's value budget; a ladder is extrapolated in one
    array call.  Each cell keeps its own tolerance and converged flag;
    cells whose quadrature did not converge are kept and listed in
    ``flagged``.  Everything runs on the calling thread in a fixed
    order, so output is deterministic for a fixed configuration.
    """
    if nx < 2 or nt < 2:
        raise ValueError("need nx, nt >= 2")
    xs = np.linspace(x_range[0], x_range[1], nx)
    ts = np.linspace(t_range[0], t_range[1], nt)
    epsilons = q.epsilon_ladder if extrapolate else (q.epsilon,)
    values, converged = _density_mesh(branch, tau, xs, ts, k, q, epsilons, strict=False)
    flagged = tuple((int(i), int(j)) for i, j in np.argwhere(~converged))
    return DensityGrid(xs, ts, values, extrapolated=extrapolate, flagged=flagged)


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
    res = _f_integrals_result(spec.parity, spec.tau, [x], [t], k, q, eps, powers=(-1.0, 0.0))
    value = res.value[0]
    lam = int(spec.lam)
    # the time phase is exp(-i lam b sqrt(1+q^2)), and cos(lam y) = cos(y),
    # sin(lam y) = lam sin(y) for lam = +-1
    weighted = value[0] - 1j * lam * value[1]
    bare = value[2] - 1j * lam * value[3]
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
