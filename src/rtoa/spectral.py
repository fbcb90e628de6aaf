"""Arrival-time eigenfunctions in the diagonal (Feshbach-Villars)
momentum representation and the structural identities built on them.

The one-particle arrival-time operator acts on each charge block as

    (T phi)(p) = -(i hbar / 2) * [ (2 p phi' + phi) / (2 E_p)
                  + w(p) * (2 phi' / p - phi / p^2) ],
    w(p) = m0^2 c^2 / (2 E_p) + E_p / (2 c^2),

with a sigma3 sign flip on the lower component.  Its eigenfunctions,

    phi(p) = sqrt(c / 4 pi hbar) * sqrt(|p| c / E_p)
             * exp(-i lambda (t - tau) E_p / hbar) * [sgn(p) for the nodal branch],

come in two parity branches per charge sign, form a complete set, and
are mutually non-orthogonal with a known closed-form overlap.  This
module evaluates all of those statements numerically: the operator via
finite differences, completeness as resolution of the identity on test
states, and the overlap closed form against a damped, extrapolated
quadrature.
"""

from __future__ import annotations

import enum
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
    trapezoid_weights,
)
from .quadrature import QuadratureConfig, QuadratureConvergenceError, adaptive_quadrature, extrapolate_to_zero


class Parity(enum.Enum):
    """Momentum parity of an eigenfunction branch."""

    NONNODAL = "nonnodal"  # even in p; density peaks at the origin
    NODAL = "nodal"  # odd in p; density vanishes exactly at the origin

    @property
    def is_nodal(self) -> bool:
        return self is Parity.NODAL


@dataclass(frozen=True)
class EigenSpec:
    """(charge sign, parity branch, arrival time) labelling one
    eigenfunction.  A complex tau = z gives, from the same formulas, the
    solution of T phi = z phi off the real axis (the deficiency states)."""

    lam: ChargeSign
    parity: Parity
    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ValueError("tau must be finite")


@dataclass(frozen=True)
class OverlapResult:
    """Inner product of two eigenfunctions: a Dirac-delta coefficient
    plus a smooth remainder."""

    distributional_part: float
    regular_part: complex


def eigen_amplitude_modulus(p, e, k: PhysConstants):
    """|phi(p)| = sqrt(c / 4 pi hbar) * sqrt(|p| c / E_p), shared by every
    eigenfunction; ``e`` is E_p on the same momenta."""
    return math.sqrt(k.c / (4.0 * math.pi * k.hbar)) * np.sqrt(np.abs(p) * k.c / e)


# The sign convention sgn(0) = 0 (numpy's) keeps the nodal branch odd.
def eigenfunction_scalar(
    spec: EigenSpec, t: float, p, k: PhysConstants = PhysConstants()
) -> np.ndarray:
    """Scalar amplitude of the eigenfunction on the occupied charge
    block, time-evolved to ``t``; a phase that is not finite is refused."""
    p = np.asarray(p, dtype=float)
    e = energy(p, k)
    lam = int(spec.lam)
    amp = eigen_amplitude_modulus(p, e, k)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-1j * lam * (t - spec.tau) * e / k.hbar)
    if not np.all(np.isfinite(phase)):
        raise ValueError(f"phase lambda (t - tau) E_p / hbar at t - tau = {t - spec.tau:g} is not finite")
    out = amp * phase
    if spec.parity.is_nodal:
        out = out * np.sign(p)
    return out


def eigenfunction_field(
    spec: EigenSpec, t: float, grid, k: PhysConstants = PhysConstants()
) -> SpinorField:
    """The eigenfunction sampled on ``grid``: the block of the opposite
    charge sign is exactly zero."""
    amp = eigenfunction_scalar(spec, t, grid, k)
    zeros = np.zeros_like(amp)
    upper, lower = (amp, zeros) if spec.lam is ChargeSign.POSITIVE else (zeros, amp)
    return SpinorField(Representation.FESHBACH_VILLARS_PHI, Basis.MOMENTUM, grid, upper, lower)


def fornberg_weights(x0: float | np.ndarray, xs: np.ndarray, order: int) -> np.ndarray:
    """Weights for d^order/dx^order at x0 on the stencil xs (Fornberg,
    Math. Comp. 51 (1988) 699), batched elementwise so that x0 (m,) and
    xs (m, n) give (m, n) weights, each row bitwise its stencil's alone."""
    xs = np.asarray(xs, dtype=float)
    w = np.zeros((order + 1,) + xs.shape)
    w[0, ..., 0] = 1.0
    c2 = 1.0
    for i in range(1, xs.shape[-1]):
        c3 = xs[..., i, None] - xs[..., :i]
        c1, c2 = c2, np.prod(c3, axis=-1)  # in index order, checked bitwise by the tests
        c4, c5 = xs[..., i] - x0, xs[..., i - 1] - x0
        for s in range(min(i, order), 0, -1):
            w[s, ..., i] = c1 * (s * w[s - 1, ..., i - 1] - c5 * w[s, ..., i - 1]) / c2
            w[s, ..., :i] = (c4[..., None] * w[s, ..., :i] - s * w[s - 1, ..., :i]) / c3
        w[0, ..., i] = -c1 * c5 * w[0, ..., i - 1] / c2
        w[0, ..., :i] = c4[..., None] * w[0, ..., :i] / c3
    return w[order]


class _GridTable:
    """What the operator layer derives from one grid alone, each part
    built on its first use and kept while calls come on an equal grid.

    The derivative part is the spacing decision h (None off a grid
    uniform to rtol 1e-12), the weighted nodes (the four end nodes of a
    uniform grid, every node otherwise), their 5-point stencils, and
    their Fornberg weights, real and complex, shaped (m, 1, 5) for
    matmul.  The physics part belongs to the last constants used on the
    grid: the zero-node mask (None when no node is exactly 0), first and
    second, 2p, 2/p, 1/p^2 and E_p, all real.  Each part is one tuple,
    replaced whole."""

    __slots__ = ("grid", "_derivative", "_physics")

    def __init__(self, grid: np.ndarray):
        self.grid = grid.copy()
        self._derivative = None
        self._physics = None

    def derivative(self):
        """(h, nodes, stencils, real weights, complex weights)."""
        part = self._derivative
        if part is None:
            grid, n = self.grid, self.grid.size
            if np.allclose(np.diff(grid), grid[1] - grid[0], rtol=1e-12, atol=0.0):
                h, nodes = grid[1] - grid[0], np.array([0, 1, n - 2, n - 1])
            else:
                h, nodes = None, np.arange(n)
            stencils = np.clip(nodes - 2, 0, n - 5)[:, None] + np.arange(5)
            w = fornberg_weights(grid[nodes], grid[stencils], 1)[:, None, :]
            part = self._derivative = (h, nodes, stencils, w, w.astype(complex))
        return part

    def physics(self, k: PhysConstants):
        """(zero-node mask or None, first, second, 2p, 2/p, 1/p^2, E_p)
        at the constants ``k``, each computed as the operator's formulas
        would on the grid, so results are bitwise those of a fresh build."""
        # equal values of one type give equal bits; 1 == 1.0 alone would not
        key = tuple((type(v), v) for v in (k.hbar, k.c, k.m0))
        part = self._physics
        if part is None or part[0] != key:
            p = self.grid
            zero = p == 0.0
            e = energy(p, k)
            first, second = _toa_coefficients(e, k)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv_p = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, p))
            mask = zero if zero.any() else None
            part = self._physics = (key, mask, first, second, 2.0 * p, 2.0 * inv_p, inv_p**2, e)
        return part[1:]


# The table of the last grid the operator layer worked on.  Its key is
# the grid's content, bit for bit, not its identity: an equal grid in a
# new array reuses the table, and a grid changed in place since the last
# call gets a fresh one, so a result never depends on what was called
# before.
_table = None


def _grid_table(grid: np.ndarray) -> _GridTable:
    global _table
    table = _table
    # bits, not values: -0.0 == 0.0, yet the weights may differ in a zero's sign
    if table is None or not np.array_equal(table.grid.view(np.uint64), grid.view(np.uint64)):
        table = _table = _GridTable(grid)
    return table


def differentiate(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """First derivative of sampled values on an arbitrary increasing
    grid, via local 5-point (fourth-order) stencils.  Node i uses the
    samples from clip(i - 2, 0, n - 5); one batched ``fornberg_weights``
    call weights all nodes, or the 4 end nodes of a grid uniform to rtol
    1e-12, whose interior keeps the closed-form centered stencil: the
    benchmark reference pins the conjugacy order that stencil gives.

    The spacing decision, the weighted nodes, their stencils and weights
    come from the grid's table (see _GridTable), keyed on the grid's bits
    and kept while calls come on an equal grid, as operator checks do
    (one call per component and field).  The centered stencil runs in
    place on the output; then one matmul of the weights with the
    gathered stencil samples gives every weighted node, each a 1x5 @ 5x1
    product.  Values are taken as float64, or complex128 if complex, and
    must have the grid's shape."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    if grid.size < 5:
        raise ValueError("need at least 5 samples")
    if values.shape != grid.shape:
        raise ValueError(f"values of shape {values.shape} do not match the grid's {grid.shape}")
    h, nodes, stencils, w_real, w_complex = _grid_table(grid).derivative()
    out = np.empty_like(values)
    if h is not None:
        inner = out[2:-2]
        np.multiply(8.0, values[1:-3], out=inner)
        np.subtract(values[:-4], inner, out=inner)
        inner += 8.0 * values[3:-1]
        inner -= values[4:]
        inner /= 12.0 * h
    w = w_complex if values.dtype == complex else w_real
    out[nodes] = np.matmul(w, values[stencils][:, :, None])[:, 0, 0]
    return out


# (first, second) from the energies ``e``: see even_toa_coefficients
def _toa_coefficients(e, k: PhysConstants):
    first = -1.0 / (2.0 * e)
    second = -(k.m0**2 * k.c**2 / (2.0 * e) + e / (2.0 * k.c**2))
    return first, second


def even_toa_coefficients(p, k: PhysConstants = PhysConstants()):
    """The two radial coefficient functions of the one-particle
    operator: (first, second) multiply the p*d/dp-type and 1/p-type
    symmetrized derivative terms.  In the c -> infinity limit the first
    scales as 1/c^2 and the second tends to -m0."""
    return _toa_coefficients(energy(np.asarray(p, dtype=float), k), k)


# Largest |field| at p = 0, relative to the field's peak, that the 1/p
# and 1/p^2 terms accept as vanishing.
VANISH_TOL = 1e-12


def apply_even_toa(f: SpinorField, k: PhysConstants = PhysConstants()) -> SpinorField:
    """Apply the one-particle arrival-time operator to a sampled field.

    The operator involves 1/p and 1/p^2; a node exactly at p = 0 is only
    allowed if the field there is negligible (VANISH_TOL of its peak),
    in which case the output is forced to zero on that node.

    The grid's arrays (first, second, 2p, 2/p, 1/p^2 and the zero-node
    mask) come from its table (see _GridTable), keyed on the grid's bits
    and then on the constants.  Each component takes
    first (2p phi' + phi) + second ((2/p) phi' - (1/p^2) phi), times
    i hbar / 2, with the same operations in the same order as the
    formula evaluated afresh, written in place: the output is bitwise
    that of building every array on each call.
    """
    p = f.grid
    near_zero, first, second, two_p, two_inv_p, inv_p2, _ = _grid_table(p).physics(k)
    if near_zero is not None:
        scale = max(np.max(np.abs(f.upper)), np.max(np.abs(f.lower)), 1e-300)
        if (
            np.max(np.abs(f.upper[near_zero])) > VANISH_TOL * scale
            or np.max(np.abs(f.lower[near_zero])) > VANISH_TOL * scale
        ):
            raise ValueError(
                "grid reaches p = 0 where the field does not vanish"
            )
    half_i_hbar = 0.5j * k.hbar

    def block(phi):
        dphi = differentiate(p, phi)
        val = two_p * dphi
        val += phi
        np.multiply(first, val, out=val)
        np.multiply(two_inv_p, dphi, out=dphi)
        dphi -= inv_p2 * phi
        np.multiply(second, dphi, out=dphi)
        val += dphi
        np.multiply(half_i_hbar, val, out=val)
        if near_zero is not None:
            val[near_zero] = 0.0
        return val

    upper, lower = block(f.upper), block(f.lower)
    return f.with_components(upper, np.negative(lower, out=lower))


def apply_hamiltonian(f: SpinorField, k: PhysConstants = PhysConstants()) -> SpinorField:
    """Diagonal free Hamiltonian E_p sigma3 in momentum space, with E_p
    from the grid's table (see _GridTable)."""
    e = _grid_table(f.grid).physics(k)[-1]
    return f.with_components(e * f.upper, -e * f.lower)


# One rung below 0.05 is required for the extrapolated overlap to track
# the closed form to 1e-3 at |tau - tau'| = 0.5.
OVERLAP_EPSILON_LADDER = (0.2, 0.1, 0.05, 0.025)


def overlap(
    s1: EigenSpec, s2: EigenSpec, k: PhysConstants = PhysConstants()
) -> OverlapResult:
    """Closed-form inner product <s2 | s1> (sigma3-weighted).

    Zero across charge blocks and across parity branches; otherwise a
    half-weight delta in tau - tau' plus the smooth remainder
    lambda * [lambda i exp(lambda i (tau-tau') m0 c^2 / hbar)] / (2 pi (tau-tau')),
    the same for both parities and, at lambda = -1, -conj of its
    lambda = +1 value.
    """
    if s1.lam is not s2.lam or s1.parity is not s2.parity:
        return OverlapResult(0.0, 0.0 + 0.0j)
    lam = int(s1.lam)
    dt = s1.tau - s2.tau
    if dt == 0.0:
        return OverlapResult(lam * 0.5, 0.0 + 0.0j)
    phase = np.exp(1j * lam * dt * k.rest_energy / k.hbar)
    regular = lam * (1j * lam * phase) / (2.0 * math.pi * dt)
    return OverlapResult(lam * 0.5, complex(regular))


def overlap_numeric(
    s1: EigenSpec,
    s2: EigenSpec,
    k: PhysConstants = PhysConstants(),
) -> complex:
    """Validation route for the smooth part of :func:`overlap`.

    Evaluates the defining momentum integral under exp(-eps E_p / m0c^2)
    damping for each rung of OVERLAP_EPSILON_LADDER, a fixed ladder of
    its own rather than the one derived from a regulator, as the members
    of one quadrature with the default QuadratureConfig tolerances up to
    its smallest rung's cutoff, and extrapolates the ladder to zero.  The
    coinciding-times case has no smooth part to estimate and is refused,
    and a quadrature that did not converge raises
    QuadratureConvergenceError with the rungs' integrals as its estimate.

    For a same-sector pair the value does not depend on parity, since
    the integrand holds sgn(p)^2 = 1, and lambda = -1 gives -conj of the
    lambda = +1 value, since the charge only flips the sign of omega.
    Both hold bitwise; criterion 5 relies on them.
    """
    if s1.lam is not s2.lam or s1.parity is not s2.parity:
        return 0.0 + 0.0j
    if s1.tau == s2.tau:
        raise ValueError(
            "equal eigenvalues: only the distributional part survives"
        )
    q = QuadratureConfig()
    lam = int(s1.lam)
    omega = lam * (s1.tau - s2.tau) / k.hbar
    damping = -np.array(OVERLAP_EPSILON_LADDER)

    def integrand(p):
        e = energy(p, k)
        base = (p * k.c / e)[:, None] * np.exp(np.multiply.outer(e, damping) / k.rest_energy)
        out = np.empty((p.size, damping.size), dtype=complex)
        np.multiply(base, np.cos(omega * e)[:, None], out=out.real)
        np.multiply(base, np.sin(omega * e)[:, None], out=out.imag)
        return out

    res = adaptive_quadrature(
        integrand,
        0.0,
        k.momentum_scale * q.cutoff(min(OVERLAP_EPSILON_LADDER)),
        abs_tol=q.abs_tol,
        rel_tol=q.rel_tol,
        max_subdivisions=q.max_subdivisions,
        max_width=math.pi / (abs(omega) * k.c) if omega != 0.0 else None,
        members=damping.size,
    )
    if not res.converged:
        error = float(res.error[~res.member_converged].max())
        raise QuadratureConvergenceError(
            f"overlap quadrature stalled at error {error:.3e} after {res.n_panels} panels",
            estimate=res.value,
            error=error,
        )
    values = res.value * k.c / (2.0 * math.pi * k.hbar)
    smooth = extrapolate_to_zero(OVERLAP_EPSILON_LADDER, values)
    return complex(lam * smooth)


# Most complex values in one temporary of the phase-table products (512
# KiB), so that no temporary grows with the grid.  A grid-wide one (2.4
# MB for completeness at 8001 taus) raised the process's peak memory by
# 0 or 2 MB, as the allocator's history placed it.
_SUM_VALUES = 2**15


def _column_blocks(n_rows: int, n_cols: int):
    """Column slices covering ``n_cols`` columns, each at most
    _SUM_VALUES values across ``n_rows`` table rows."""
    step = max(1, _SUM_VALUES // n_rows)
    return (slice(j, j + step) for j in range(0, n_cols, step))


def amplitude_sums(base, p, e, lam: int, k: PhysConstants, tau0: float, step: float, n: int):
    """Sums S_j = sum of base(p) exp(i lam tau_j T_p / hbar) over each sign
    half, p < 0 and p >= 0, of the increasing grid ``p`` (energies ``e``),
    for tau_j = tau0 + j step, j < n.  The phase runs on the kinetic energy
    T_p = p^2 c^2 / (E_p + m0 c^2), which keeps its digits at large c where
    E_p does not; the rest phase exp(i lam tau_j m0 c^2 / hbar) it leaves
    out is common to all p, so |S_j| and a synthesis on the same tables
    are those of the E_p phase.  ``base`` vanishes at p = 0, so the
    non-nodal branch sum is S(p >= 0) + S(p < 0), the nodal one their
    difference.  With j = s B + i and B = isqrt(n), the phase factors into
    rows[i] = exp(i lam i step T / hbar), i < B, times
    starts[s] = exp(i lam (tau0 + s B step) T / hbar), s < ceil(n / B).
    Both tables are built by doubling, about log2 n ``exp`` rows in all,
    and a half's sums are the product (starts * base) @ rows.T, summed over
    the column blocks of :func:`_column_blocks`: over both halves, n n_p
    complex multiply-adds plus fewer than B n_p of padding.  Returns
    (half, rows, starts, sums) per half: the slice of ``p``, the tables on
    it, and sums shaped (ceil(n / B), B) with ravel()[:n] = S."""
    b = math.isqrt(n)
    rate = (1j * lam / k.hbar) * kinetic_energy(p, e, k)  # phase per unit tau
    tables = np.empty((b + -(-n // b), p.size), dtype=complex)
    rows, starts = tables[:b], tables[b:]
    for table, first, delta in ((rows, 1.0, step), (starts, np.exp(rate * tau0), b * step)):
        table[0] = first
        m = 1
        while m < len(table):  # doubling: rows [m, 2m) are rows [0, m) times the row at m
            size = min(m, len(table) - m)
            np.multiply(table[:size], np.exp(rate * (m * delta)), out=table[m : m + size])
            m += size
    cut = int(np.searchsorted(p, 0.0))
    out = []
    for h in (slice(0, cut), slice(cut, p.size)):
        r, s, w = rows[:, h], starts[:, h], base[h]
        sums = np.zeros((len(s), b), dtype=complex)
        for cols in _column_blocks(len(s), w.size):
            sums += (s[:, cols] * w[cols]) @ r[:, cols].T
        out.append((h, r, s, sums))
    return out


def completeness_check(
    test_fn: SpinorField,
    tau_window: float,
    tau_step: float,
    k: PhysConstants = PhysConstants(),
    t: float = 0.0,
) -> float:
    """Resolution-of-identity error of the truncated eigenfunction
    family.

    Projects ``test_fn`` onto every branch over tau in
    [-tau_window, tau_window] (step ``tau_step``), resums with the
    trapezoid tau weights, and returns the relative L2 reconstruction
    error.  The error decreases as the window grows and the step shrinks.

    Both halves run on :func:`amplitude_sums`, per sign half of the grid.
    Analysis: the projections <phi_tau, f> are the conjugated sums of
    conj(f) times the time-``t`` phase exp(-i lam E_p t / hbar).
    Synthesis: sum_j w_j phi_tau_j(p) <phi_tau_j, f> on a half is
    2 sum_s starts[s] (C @ rows)[s], C[s, i] = w_j conj(S_j) at
    j = s B + i: the transposed product, as many multiply-adds again on
    the same tables, with no further ``exp``, taken over the same column
    blocks as the sums.  The rest phase the sums leave out cancels
    between the two.
    """
    if not (0.0 < tau_window < math.inf and 0.0 < tau_step < math.inf):
        raise ValueError("tau window and step must be finite and positive")
    steps = 2.0 * tau_window / tau_step
    if not math.isfinite(steps) or round(steps) < 1:
        raise ValueError(
            f"tau step {tau_step:g} must leave at least two, and finitely many, "
            f"samples in [-{tau_window:g}, {tau_window:g}]"
        )
    grid = test_fn.grid
    wp = trapezoid_weights(grid)
    n_tau = int(round(steps)) + 1
    h = 2.0 * tau_window / (n_tau - 1)
    wt = h * trapezoid_weights(np.arange(n_tau, dtype=float))
    e = energy(grid, k)
    mod = eigen_amplitude_modulus(grid, e, k)

    recon = []
    for lam, component in ((1, test_fn.upper), (-1, test_fn.lower)):
        if not np.any(component):
            recon.append(np.zeros_like(component))
            continue
        phase = np.exp((-1j * lam * t / k.hbar) * e)
        base = wp * np.conj(component) * mod * phase
        out = np.empty(grid.size, dtype=complex)
        for half, rows, starts, sums in amplitude_sums(base, grid, e, lam, k, -tau_window, h, n_tau):
            coef = np.zeros(sums.size, dtype=complex)  # the padded tail has no tau weight
            coef[:n_tau] = wt * np.conj(sums.ravel()[:n_tau])
            coef = coef.reshape(sums.shape)
            part = out[half]
            for cols in _column_blocks(len(starts), part.size):
                part[cols] = np.einsum("sp,sp->p", starts[:, cols], coef @ rows[:, cols])
        recon.append(2.0 * phase * mod * out)

    num = np.sqrt(
        np.sum(wp * np.abs(recon[0] - test_fn.upper) ** 2)
        + np.sum(wp * np.abs(recon[1] - test_fn.lower) ** 2)
    )
    den = np.sqrt(
        np.sum(wp * np.abs(test_fn.upper) ** 2) + np.sum(wp * np.abs(test_fn.lower) ** 2)
    )
    if den == 0.0:
        raise ValueError("test function is identically zero")
    return float(num / den)


def nonrel_limit_check(
    s: EigenSpec,
    p,
    c_ladder,
    k: PhysConstants = PhysConstants(),
) -> np.ndarray:
    """Deviation of the phase-stripped eigenfunction from its
    non-relativistic form, per entry of ``c_ladder``.

    For each speed c the global rest phase exp(lambda i tau m0 c^2/hbar)
    is removed and the result compared with
    sqrt(|p| / (4 pi hbar m0)) * exp(lambda i tau p^2 / (2 m0 hbar))
    (times sgn(p) on the nodal branch).  Deviations fall off as 1/c^2.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any(p == 0.0):
        raise ValueError("nonrelativistic comparison needs p != 0")
    lam = int(s.lam)
    target = np.sqrt(np.abs(p) / (4.0 * math.pi * k.hbar * k.m0)) * np.exp(
        1j * lam * s.tau * p**2 / (2.0 * k.m0 * k.hbar)
    )
    if s.parity.is_nodal:
        target = target * np.sign(p)
    devs = []
    for c in c_ladder:
        kc = PhysConstants(hbar=k.hbar, c=float(c), m0=k.m0)
        val = eigenfunction_scalar(s, 0.0, p, kc)
        stripped = val * np.exp(-1j * lam * s.tau * kc.rest_energy / kc.hbar)
        devs.append(np.max(np.abs(stripped - target)))
    return np.asarray(devs)
