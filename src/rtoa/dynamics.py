"""Position-space eigenfunction dynamics: regularized oscillatory
integrals and probability-density grids.

In terms of the dimensionless momentum q = p / (m0 c), the two parity
branches reduce to a pair of real one-dimensional integrals

    f1 = Int_0^inf sqrt(q) (1+q^2)^(-1/4) K(a q) cos(b sqrt(1+q^2)) e^(-eps q) dq
    f2 = same with sin(b sqrt(1+q^2)),

with K = cos for the non-nodal branch and K = sin for the nodal one,
a = m0 c x / hbar and b = m0 c^2 (t - tau) / hbar.  The undamped
integrals diverge; they are defined here only through the exp(-eps q)
regulator (reported in all outputs), optionally extrapolated to zero
over the ladder (eps, eps/2, eps/4) that QuadratureConfig.epsilon_ladder
derives from eps.  The probability density

    P(x, t) = m0^2 c^3 / (2 pi^2 hbar^2) * (f1^2 + f2^2)

is independent of the charge sign, even in x and in t - tau, and for
the nodal branch vanishes identically on the line x = 0.

A density mesh is integrated on its mirror-symmetric part only.  An
axis whose samples d (x, or t - tau) mirror themselves to roundoff,
|d_j + d_(n-1-j)| <= 4 * machine epsilon * max|d|, is cut to its half
with d >= 0, the centre sample included; an axis that does not keeps
every sample.  The kept block is integrated (and a
ladder extrapolated) as a mesh of its own, and each mirrored cell then
takes the value and converged flag of its kept image, so a symmetric
grid is bitwise symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysConstants
from .quadrature import (
    QuadratureConfig,
    extrapolate_to_zero,
    integrate_sqrt_endpoint,
)
from .spectral import Parity


def thread_count() -> int:
    """Density cells run on the calling thread, so always 1."""
    return 1


def _panel_width(a: float, b: float) -> float:
    """7/8 of a period of the integrand's fastest frequency, capped at 4.

    The product K(a q) T(b sqrt(1+q^2)) oscillates at a local frequency of
    at most |a| + |b|, so a panel of 7 pi / (4 (|a| + |b|)) spans 7/8 of a
    period whatever the ratio a / b.  Every benchmarked mesh converges on
    its first pass.  Measured, a tail first refines at m pi / (|a| + |b|)
    with m = 1.95 on the 21 x 21 ladder mesh, 2.1 on the 41 x 41 figure
    mesh, 2.2 when t - tau dominates, 2.35 at |a| = |b|, 1.88 for t near
    tau and 1.82 for |x| up to 10.  A width that refines saves little or
    nothing: the members still over tolerance re-sweep every panel.
    """
    fastest = max(abs(float(a)) + abs(float(b)), 1e-30)  # inf when the sum overflows: width 0, refused
    return min(1.75 * math.pi / fastest, 4.0)


def _f_integrals_result(
    branch: Parity,
    tau: float,
    xs,
    ts,
    k: PhysConstants,
    q: QuadratureConfig,
    eps: float,
):
    """Damped branch integrals on the mesh ``ts`` x ``xs``, one member
    per cell in row-major (t, x) order, each the complex f1 + i f2 of the
    (cos, sin) time-factor pair.

    The integrand factors as g(q) T(b sqrt(1+q^2)) K(a q), so each node
    costs len(xs) + len(ts) trigonometric evaluations, not their product.
    Each cell is one complex product (cos + i sin)(b sqrt(1+q^2)) times
    the real g(q) K(a q), written into one complex buffer per call, grown
    when a block needs more room; the integrand returns that buffer.  The
    engine consumes each block before asking for the next, and fresh
    block-sized arrays would make the cost of every block depend on the
    allocator's heap state.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"epsilon must be finite and > 0, got {eps!r}")
    with np.errstate(over="ignore"):
        a = k.momentum_scale * np.asarray(xs, dtype=float) / k.hbar
        b = k.rest_energy * (np.asarray(ts, dtype=float) - tau) / k.hbar
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("scaled mesh coordinates m0 c x / hbar and m0 c^2 (t - tau) / hbar must be finite")
    kernel = np.sin if branch.is_nodal else np.cos  # sin(0) = 0: nodal x = 0 cells are exact zeros

    buffer = np.empty(0, dtype=complex)

    def integrand(qq):
        nonlocal buffer
        root = np.sqrt(1.0 + qq * qq)
        sqrt_q, damping = np.sqrt(qq), np.exp(-eps * qq)
        space = kernel(np.multiply.outer(qq, a))
        phase = np.multiply.outer(root, b)
        shape = (qq.size, b.size, a.size)
        size = math.prod(shape)
        if buffer.size < size:
            buffer = np.empty(size, dtype=complex)
        cells = buffer[:size].reshape(shape)
        turn = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=turn.real)
        np.sin(phase, out=turn.imag)
        weighted = (sqrt_q * root**-0.5 * damping)[:, None] * space
        np.matmul(turn[:, :, None], weighted[:, None, :].astype(complex), out=cells)
        return cells

    return integrate_sqrt_endpoint(
        integrand,
        q.cutoff(eps),
        max_width=_panel_width(np.abs(a).max(), np.abs(b).max()),
        abs_tol=q.abs_tol,
        rel_tol=q.rel_tol,
        max_subdivisions=q.max_subdivisions,
        members=a.size * b.size,
    )


# Mesh cells integrated together in one call: enough that the per-node
# trigonometric work is small against the cell products, few enough that
# one GK15 panel of complex values (15 * 1024, two floats each) fits the
# engine's block of 2**15 floats.  A row wider than this is still one call.
_MESH_CELLS = 1024


def _fold(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kept, expand) for one mesh axis with offsets ``d`` from its
    mirror point: d[kept] are the samples to integrate and kept[expand]
    gives each sample's source, its mirror image on the d >= 0 half when
    the axis mirrors itself and the sample itself otherwise."""
    j = np.arange(d.size)
    if np.all(np.abs(d + d[::-1]) <= 4.0 * np.finfo(float).eps * np.abs(d).max()):
        j = np.where(d >= d[::-1], j, j[::-1])
    return np.unique(j, return_inverse=True)


@dataclass(frozen=True)
class DensityGrid:
    """Dense density evaluation: values[i, j] = P(t_samples[i], x_samples[j]).

    Cells whose quadrature error estimate exceeded the configured
    tolerance are listed in ``flagged`` as (i, j) index pairs.
    """

    x_samples: np.ndarray
    t_samples: np.ndarray
    values: np.ndarray
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
    """The density on a regular nx x nt mesh at the regulator
    ``q.epsilon``, or with ``extrapolate`` extrapolated to zero over
    ``q.epsilon_ladder`` and clamped at zero (a vanishing positive
    sequence may undershoot by roundoff).

    Only the block that :func:`_fold` keeps is integrated (see the module
    docstring): a mesh symmetric about x = 0 and t = tau on one quarter,
    other meshes in full.  Its rows go in blocks of about _MESH_CELLS
    cells, one batched engine call per block and regulator with one
    member per cell; a ladder is extrapolated in one array call before
    the fold is undone.  Each cell keeps its own tolerance and converged
    flag, and a mirrored cell copies both from its kept image.  A cell
    that did not converge never raises: it is kept and listed in
    ``flagged`` with its mirrors.  Everything runs on the calling thread
    in a fixed order, so output is deterministic.
    """
    if nx < 2 or nt < 2:
        raise ValueError("need nx, nt >= 2")
    if not all(math.isfinite(float(hi) - float(lo)) for lo, hi in (x_range, t_range)):
        raise ValueError("x and t range widths must be finite")
    xs = np.linspace(x_range[0], x_range[1], nx)
    ts = np.linspace(t_range[0], t_range[1], nt)
    epsilons = q.epsilon_ladder if extrapolate else (q.epsilon,)
    pref = k.m0**2 * k.c**3 / (2.0 * math.pi**2 * k.hbar**2)
    x_kept, x_expand = _fold(xs)
    t_kept, t_expand = _fold(ts - tau)
    xs_kept, ts_kept = xs[x_kept], ts[t_kept]
    shape = (ts_kept.size, xs_kept.size)
    rows = max(1, _MESH_CELLS // xs_kept.size)
    rungs, converged = [], np.ones(shape, dtype=bool)
    for eps in epsilons:
        rung = np.empty(shape)
        for i in range(0, ts_kept.size, rows):
            res = _f_integrals_result(branch, tau, xs_kept, ts_kept[i : i + rows], k, q, eps)
            rung[i : i + rows] = (pref * (res.value.real**2 + res.value.imag**2)).reshape(-1, xs_kept.size)
            converged[i : i + rows] &= res.member_converged.reshape(-1, xs_kept.size)
        rungs.append(rung)
    values = rungs[0]
    if extrapolate:
        extrapolated = extrapolate_to_zero(epsilons, rungs)
        values = np.where(extrapolated > 0.0, extrapolated, 0.0)
    mirror = np.ix_(t_expand, x_expand)
    flagged = tuple((int(i), int(j)) for i, j in np.argwhere(~converged[mirror]))
    return DensityGrid(xs, ts, values[mirror], flagged=flagged)
