"""Adaptive Gauss-Kronrod quadrature with oscillation-aware panel
splitting, plus polynomial extrapolation of regulator ladders.

The engine batches panel evaluations through numpy and supports
vector-valued integrands, so one pass can produce e.g. the cosine and
sine components of an oscillatory transform.  Integrable sqrt endpoint
behaviour is handled by a dedicated first panel under the substitution
q = u^2 rather than by brute subdivision.

One call integrates ``members`` integrands (default 1) on one shared
panel tree, ``f`` returning (npoints, members, n_out).  Each member keeps
the single-integrand rule: its own tolerance
max(abs_tol, rel_tol * max|total|), its own error estimate and its own
converged flag (``QuadratureResult.member_converged``; ``converged``
is one bool, true when every member converged).  Panels are
evaluated in blocks of at most _BLOCK_VALUES integrand values.  When
the per-panel table of all members would exceed that budget, the
engine sweeps the initial panels once keeping only per-member totals,
then keeps a table, and refines, only for the members still over
tolerance.

Each panel's error estimate is an upper bound on QUADPACK's estimate,
from the one weighted sum of the block that gives its value (:func:`_gk15`).
Both engines keep one contract with ``f``: each array it returns is read
once, before ``f`` is called again, and never written, so an integrand
may hand out views of one reused buffer rather than a fresh block-sized
array per call.  :func:`adaptive_quadrature` raises on an exhausted
budget unless told not to; :func:`integrate_sqrt_endpoint` always flags
the members that did not converge and never raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod extension of 7-point Gauss-Legendre (positive half).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Most integrand values (abscissae x members x outputs) one call of ``f``
# returns, and the largest per-panel table kept for refinement.
_BLOCK_VALUES = 2**15

# Width of the leading panel that integrate_sqrt_endpoint maps by q = u^2.
_FIRST_PANEL = 0.5

# full symmetric 15-node rule on [-1, 1]
GK_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])
GK_WEIGHTS = np.concatenate([_WGK[:7], _WGK[::-1]])
# embedded Gauss-7 weights on the same nodes (zero on Kronrod-only nodes)
G_WEIGHTS = np.zeros(15)
G_WEIGHTS[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])
# the four rows of the one weighted sum _gk15 takes of a block (see there)
_S = np.sign(GK_NODES**2 - 1.0 / 3.0)
_ROWS = np.stack([GK_WEIGHTS, GK_WEIGHTS - G_WEIGHTS, GK_WEIGHTS * np.sign(GK_NODES), GK_WEIGHTS * (_S - GK_WEIGHTS @ _S / 2)])


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    ``estimate`` holds the best value reached and ``error`` the
    achieved error estimate, an upper bound on QUADPACK's estimate.
    """

    def __init__(self, message: str, estimate, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the regularized oscillatory integrals.

    ``epsilon`` is the exponential damping of the divergent integrands;
    the regulator is extrapolated away over :attr:`epsilon_ladder`,
    which is worked out from it.  A regulator eps cuts the momentum
    integral at max(50, 30/eps), where the damping exp(-eps q) is below
    1e-12.  ``epsilon`` must be finite, and so must the cutoff of its
    smallest rung epsilon/4; ``abs_tol`` and ``rel_tol`` must be finite,
    >= 0 and not both 0, a target only an exact error estimate of 0 could
    meet.
    """

    epsilon: float = 0.3
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_subdivisions: int = 10_000

    @property
    def epsilon_ladder(self) -> tuple[float, float, float]:
        """The regulators (epsilon, epsilon/2, epsilon/4) extrapolated to zero."""
        return (self.epsilon, self.epsilon / 2, self.epsilon / 4)

    def __post_init__(self):
        if not (self.epsilon_ladder[-1] > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and > 0, and so must its last ladder rung epsilon/4")
        self.cutoff(self.epsilon_ladder[-1])  # the rung whose cutoff overflows first
        if not (0.0 <= self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf):
            raise ValueError("abs_tol and rel_tol must be finite and >= 0")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("abs_tol and rel_tol cannot both be 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def cutoff(self, epsilon: float | None = None) -> float:
        """The momentum cutoff max(50, 30/epsilon) for regulator
        ``epsilon``; a cutoff that is not finite is refused."""
        eps = self.epsilon if epsilon is None else epsilon
        cut = max(50.0, 30.0 / eps)
        if not math.isfinite(cut):
            raise ValueError(f"momentum cutoff {cut:g} for epsilon {eps:g} is not finite")
        return cut


@dataclass
class QuadratureResult:
    """``value`` is shaped (members, n_out); ``error`` and
    ``member_converged`` hold one error estimate, an upper bound on
    QUADPACK's estimate, and one flag per member, and ``converged`` holds
    when every member converged."""

    value: np.ndarray
    error: np.ndarray
    n_panels: int
    member_converged: np.ndarray

    @property
    def converged(self) -> bool:
        return bool(self.member_converged.all())


def _gk15(f, panels: np.ndarray, members: int, n_out: int):
    """GK15 on a batch of panels, summed for every member.  Returns
    Kronrod values (n_panels, members, n_out) and error estimates
    (n_panels, members), each an upper bound on QUADPACK's estimate.

    The block is read once, by one product with the rows of _ROWS: K,
    K - G, K sgn(x) and K (s - m), with s = sgn(x^2 - 1/3) and
    m = sum(K s) / 2.  With h the half-width, the value is h K.f and the
    estimate is R min(1, sqrt(R / L)), or R where L = 0, for
    R = 200 h |(K - G).f| and L = h max(|K sgn(x).f|, |K (s - m).f|).

    It bounds QUADPACK's q = A min(1, (R / A)^1.5), A = resasc =
    h sum K |f - K.f / 2|.  The two rows give sum K s' (f - K.f / 2) for
    s' = sgn(x) and s, as sum K sgn(x) = 0 and sum K s = 2 m; K > 0 and
    |s'| <= 1, so L <= A.  As A grows, q rises as A up to R at A = R, then
    falls as R^1.5 / sqrt(A), so for every A >= L it is at most
    R min(1, sqrt(R / L)); where A or R is 0, q is R / 200.  QUADPACK's
    roundoff floor 50 eps resabs is not applied.
    """
    h = 0.5 * (panels[:, 1:] - panels[:, :1])
    x = (panels[:, :1] + h) + h * GK_NODES
    fx = np.asarray(f(x.ravel()), dtype=float)
    sums = np.matmul(_ROWS, fx.reshape(panels.shape[0], GK_NODES.size, members * n_out))
    values = sums[:, 0] * h  # a compact copy, not a view that holds all four sums
    raw = 200.0 * h * np.abs(sums[:, 1])
    low = h * np.maximum(np.abs(sums[:, 2]), np.abs(sums[:, 3]))
    # fmin: where L = 0 the ratio is inf or nan and the estimate is R
    with np.errstate(divide="ignore", invalid="ignore"):
        err = raw * np.fmin(1.0, np.sqrt(raw / low))
    shape = (panels.shape[0], -1, n_out)
    err = err.reshape(shape)
    worst = err[:, :, 0]
    for col in range(1, n_out):  # np.maximum: a reduce over the short axis is slow
        worst = np.maximum(worst, err[:, :, col])
    return values.reshape(shape), worst


def _blocks(panels: np.ndarray, members: int, n_out: int):
    """Panels in runs of at most _BLOCK_VALUES integrand values (at
    least one panel per run)."""
    step = max(1, _BLOCK_VALUES // (GK_NODES.size * members * n_out))
    return (panels[i : i + step] for i in range(0, panels.shape[0], step))


def _evaluate_panels(f, panels: np.ndarray, members: int, n_out: int, act: np.ndarray):
    """The per-panel table of :func:`_gk15` for the members ``act``,
    evaluated block by block into one preallocated table, so the peak is
    the table plus one block.  Each block is summed for every member and
    the table keeps the columns of ``act``."""
    values = np.empty((panels.shape[0], act.size, n_out))
    errors = np.empty((panels.shape[0], act.size))
    start = 0
    for block in _blocks(panels, members, n_out):
        stop = start + block.shape[0]
        block_values, block_errors = _gk15(f, block, members, n_out)
        # take, not [:, act]: 4 against 22 us for a density-ladder block (2-vCPU Xeon)
        values[start:stop], errors[start:stop] = block_values.take(act, axis=1), block_errors.take(act, axis=1)
        start = stop
    return values, errors


def _sweep(f, panels: np.ndarray, members: int, n_out: int):
    """Per-member totals and error sums over ``panels``, keeping no
    per-panel table."""
    total, total_err = np.zeros((members, n_out)), np.zeros(members)
    for block in _blocks(panels, members, n_out):
        values, errors = _gk15(f, block, members, n_out)
        total += values.sum(axis=0)
        total_err += errors.sum(axis=0)
    return total, total_err


def _tolerance(total: np.ndarray, abs_tol: float, rel_tol: float) -> np.ndarray:
    return np.maximum(abs_tol, rel_tol * np.abs(total).max(axis=1))


def adaptive_quadrature(
    f,
    a: float,
    b: float,
    *,
    abs_tol: float = QuadratureConfig.abs_tol,
    rel_tol: float = QuadratureConfig.rel_tol,
    max_subdivisions: int = QuadratureConfig.max_subdivisions,
    max_width: float | None = None,
    n_out: int = 1,
    members: int = 1,
    raise_on_failure: bool = True,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] with adaptive GK15 bisection.

    ``f`` maps a flat array of abscissae to (npoints, members, n_out)
    values (any shape of that size); each array is read once, before
    ``f`` is called again, and never written.  ``max_width`` caps the
    initial panel width (use a half period of the fastest oscillating
    factor).

    Members share one panel tree: a panel is bisected when any member
    still over its tolerance asks for it, and a member's total is fixed
    once that member converges.
    """
    if not b > a:
        raise ValueError("need b > a")
    # a width that underflows next to b - a, or is zero, gives an infinite count
    with np.errstate(over="ignore", divide="ignore"):
        count = 1.0 if max_width is None or b - a <= max_width else np.float64(b - a) / max_width
    if not math.isfinite(count):
        raise ValueError(f"panels of width {max_width:g} over [{a:g}, {b:g}] are too many to count")
    cuts = np.linspace(a, b, int(np.ceil(count)) + 1)
    panels = np.stack([cuts[:-1], cuts[1:]], axis=1)

    value, error = np.zeros((members, n_out)), np.zeros(members)
    converged = np.ones(members, dtype=bool)
    act = np.arange(members)  # members still over tolerance
    if panels.shape[0] * members * n_out > _BLOCK_VALUES:
        # the per-panel table would not fit: one sweep for the totals,
        # then a table for the members still over tolerance only
        total, total_err = _sweep(f, panels, members, n_out)
        done = total_err <= _tolerance(total, abs_tol, rel_tol)
        value[done], error[done] = total[done], total_err[done]
        act = act[~done]
    if act.size:
        values, errors = _evaluate_panels(f, panels, members, n_out, act)
    span = b - a
    while act.size:
        total = values.sum(axis=0)
        total_err = errors.sum(axis=0)
        tol = _tolerance(total, abs_tol, rel_tol)
        done = total_err <= tol
        value[act], error[act] = total, total_err
        if done.all():
            break
        if done.any():
            act, tol = act[~done], tol[~done]
            values, errors = values[:, ~done], errors[:, ~done]
        widths = panels[:, 1] - panels[:, 0]
        over = errors > 0.5 * tol * widths[:, None] / span
        refine = over.any(axis=1)
        stuck = ~over.any(axis=0)
        refine[np.argmax(errors[:, stuck], axis=0)] = True
        n_new = panels.shape[0] + int(refine.sum())
        if n_new > max_subdivisions:
            converged[act] = False
            if raise_on_failure:
                worst = int(np.argmax(error[act] / tol))
                raise QuadratureConvergenceError(
                    f"quadrature stalled at error {error[act[worst]]:.3e} (tol {tol[worst]:.3e}) "
                    f"after {panels.shape[0]} panels",
                    estimate=value,
                    error=float(error[act[worst]]),
                )
            break
        bad = panels[refine]
        mid = 0.5 * (bad[:, 0] + bad[:, 1])
        children = np.concatenate(
            [np.stack([bad[:, 0], mid], axis=1), np.stack([mid, bad[:, 1]], axis=1)]
        )
        child_vals, child_errs = _evaluate_panels(f, children, members, n_out, act)
        panels = np.concatenate([panels[~refine], children])
        values = np.concatenate([values[~refine], child_vals])
        errors = np.concatenate([errors[~refine], child_errs])
    return QuadratureResult(value, error, panels.shape[0], converged)


def integrate_sqrt_endpoint(
    f,
    b: float,
    *,
    max_width: float | None = None,
    abs_tol: float = QuadratureConfig.abs_tol,
    rel_tol: float = QuadratureConfig.rel_tol,
    max_subdivisions: int = QuadratureConfig.max_subdivisions,
    n_out: int = 1,
    members: int = 1,
) -> QuadratureResult:
    """Integrate f over (0, b] where f(q) ~ sqrt(q) * smooth near 0.

    The leading panel [0, _FIRST_PANEL] is computed under q = u^2, which
    maps the sqrt behaviour onto a smooth integrand; the remainder uses
    the plain adaptive rule.  ``f`` and ``members`` are as for
    :func:`adaptive_quadrature`: each array ``f`` returns is read once and
    never written.  A member that exhausts the subdivision budget is
    flagged in ``member_converged``; this never raises.
    """
    q1 = min(_FIRST_PANEL, b)
    common = dict(
        abs_tol=0.5 * abs_tol,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        n_out=n_out,
        members=members,
        raise_on_failure=False,
    )

    def head_f(u):
        return np.asarray(f(u * u), dtype=float).reshape(u.size, members, n_out) * (2.0 * u[:, None, None])

    head = adaptive_quadrature(
        head_f,
        0.0,
        math.sqrt(q1),
        **common,
    )
    if q1 >= b:
        return head
    tail = adaptive_quadrature(f, q1, b, max_width=max_width, **common)
    return QuadratureResult(
        head.value + tail.value,
        head.error + tail.error,
        head.n_panels + tail.n_panels,
        head.member_converged & tail.member_converged,
    )


def extrapolate_to_zero(xs, ys):
    """Neville polynomial extrapolation of samples (x_i, y_i) to x = 0.

    Accepts real or complex y values (or arrays along the first axis).
    Used to remove a smooth regulator dependence from a ladder of
    damped evaluations.
    """
    xs = [float(x) for x in xs]
    if len(xs) != len(set(xs)):
        raise ValueError("ladder abscissae must be distinct")
    table = [np.asarray(y) for y in ys]
    if len(table) != len(xs):
        raise ValueError("xs and ys must have matching lengths")
    n = len(xs)
    for level in range(1, n):
        table = [
            (xs[i] * table[i + 1] - xs[i + level] * table[i]) / (xs[i] - xs[i + level])
            for i in range(n - level)
        ]
    out = table[0]
    return out.item() if out.ndim == 0 else out
