"""Adaptive Gauss-Kronrod quadrature with oscillation-aware panel
splitting, plus polynomial extrapolation of regulator ladders.

The engine batches panel evaluations through numpy and supports
vector-valued integrands, so one pass can produce e.g. the cosine and
sine components of an oscillatory transform.  Integrable sqrt endpoint
behaviour is handled by a dedicated first panel under the substitution
q = u^2 rather than by brute subdivision.

With ``members=m`` one call integrates m integrands over one shared
panel tree; ``f`` then returns (npoints, m, n_out).  Each member keeps
the single-integrand rule: its own tolerance
max(abs_tol, rel_tol * max|total|), its own error estimate and its own
converged flag (``QuadratureResult.member_converged``; ``converged``
stays one bool, true when every member converged).  Panels are
evaluated in blocks of at most _BLOCK_VALUES integrand values.  When
the per-panel table of all members would exceed that budget, the
engine sweeps the initial panels once keeping only per-member totals,
then keeps a table, and refines, only for the members still over
tolerance.

The engine consumes each array ``f`` returns before calling ``f``
again, and may overwrite it in the process (the GK15 error estimate
forms |f - mean| in place; a read-only result is copied first).  So an
integrand may hand out views of one reused buffer rather than a fresh
block-sized array per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureConvergenceError

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the regularized oscillatory integrals.

    ``epsilon`` is the exponential damping of the divergent integrands;
    the regulator is extrapolated away over :attr:`epsilon_ladder`,
    which is worked out from it.  ``q_max`` may be left None, in which
    case it resolves to max(50, 30/epsilon) so the damping factor is
    below 1e-12 at the cutoff.  An explicit ``q_max`` is checked against
    every regulator it is used with, so a ladder rung it would cut while
    the damping is still >= 1e-12 is refused.  ``epsilon`` must be
    finite; ``abs_tol`` and ``rel_tol`` must be finite, >= 0 and not
    both 0, a target only an exact error estimate of 0 could meet.
    """

    epsilon: float = 0.3
    q_max: float | None = None
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
        # refuses a q_max that does not damp epsilon; without q_max, a rung
        # whose cutoff 30/rung overflows (epsilon/4 overflows first)
        for rung in self.epsilon_ladder if self.q_max is None else (self.epsilon,):
            self.cutoff(rung)
        if not (0.0 <= self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf):
            raise ValueError("abs_tol and rel_tol must be finite and >= 0")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("abs_tol and rel_tol cannot both be 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def cutoff(self, epsilon: float | None = None) -> float:
        """The momentum cutoff for regulator ``epsilon``; an explicit
        ``q_max`` that leaves damping >= 1e-12 there is refused, and so is
        a cutoff that is not finite."""
        eps = self.epsilon if epsilon is None else epsilon
        if self.q_max is None:
            cut = max(50.0, 30.0 / eps)
        elif math.exp(-eps * self.q_max) >= 1e-12:
            raise ValueError(
                f"q_max {self.q_max:g} too small for epsilon {eps:g}: "
                "damping exceeds 1e-12 at the cutoff"
            )
        else:
            cut = self.q_max
        if not math.isfinite(cut):
            raise ValueError(f"momentum cutoff {cut:g} for epsilon {eps:g} is not finite")
        return cut


@dataclass
class QuadratureResult:
    """``value`` is shaped (n_out,), or (members, n_out) with ``members``;
    ``error`` is then one estimate per member.  ``converged`` holds when
    every member converged; ``member_converged`` gives the per-member
    flags (None without ``members``)."""

    value: np.ndarray
    error: float | np.ndarray
    n_panels: int
    converged: bool = True
    member_converged: np.ndarray | None = None


def _gk15(f, panels: np.ndarray, members: int, n_out: int, cols):
    """GK15 on a batch of panels.  Returns Kronrod values
    (n_panels, n_cols, n_out) and QUADPACK-style error estimates
    (n_panels, n_cols) for the member columns ``cols`` (all when None)."""
    a = panels[:, 0]
    half = 0.5 * (panels[:, 1] - panels[:, 0])
    center = a + half
    x = center[:, None] + half[:, None] * GK_NODES[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float)
    fx = fx.reshape(panels.shape[0], GK_NODES.size, members, n_out)
    if cols is not None:
        fx = fx[:, :, cols]
    fx = fx.reshape(panels.shape[0], GK_NODES.size, -1)
    resk = np.einsum("j,pjo->po", GK_WEIGHTS, fx)
    resg = np.einsum("j,pjo->po", G_WEIGHTS, fx)
    if not fx.flags.writeable:
        fx = fx.copy()
    # |f - resk/2| in place: fx is not read again
    np.subtract(fx, 0.5 * resk[:, None, :], out=fx)
    resasc = np.einsum("j,pjo->po", GK_WEIGHTS, np.abs(fx, out=fx))
    values = resk * half[:, None]
    raw = np.abs((resk - resg) * half[:, None])
    resasc = resasc * half[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (raw > 0.0), scaled, raw)
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


def _evaluate_panels(f, panels: np.ndarray, members: int, n_out: int, cols=None):
    """The per-panel table of :func:`_gk15`, evaluated block by block
    into one preallocated table, so the peak is the table plus one block."""
    n_cols = members if cols is None else len(cols)
    values = np.empty((panels.shape[0], n_cols, n_out))
    errors = np.empty((panels.shape[0], n_cols))
    start = 0
    for block in _blocks(panels, members, n_out):
        stop = start + block.shape[0]
        values[start:stop], errors[start:stop] = _gk15(f, block, members, n_out, cols)
        start = stop
    return values, errors


def _sweep(f, panels: np.ndarray, members: int, n_out: int):
    """Per-member totals and error sums over ``panels``, keeping no
    per-panel table."""
    total, total_err = np.zeros((members, n_out)), np.zeros(members)
    for block in _blocks(panels, members, n_out):
        values, errors = _gk15(f, block, members, n_out, None)
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
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-7,
    max_subdivisions: int = 10_000,
    max_width: float | None = None,
    n_out: int = 1,
    members: int | None = None,
    raise_on_failure: bool = True,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] with adaptive GK15 bisection.

    ``f`` maps a flat array of abscissae to an array of shape
    (npoints,) or (npoints, n_out), or (npoints, members, n_out) when
    ``members`` is given; that array may be overwritten, so ``f`` must
    not return one it reads again (a read-only array is copied).
    ``max_width`` caps the initial panel width (use a half period of the
    fastest oscillating factor).

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

    n_members = 1 if members is None else members
    value, error = np.zeros((n_members, n_out)), np.zeros(n_members)
    converged = np.ones(n_members, dtype=bool)
    act = np.arange(n_members)  # members still over tolerance
    if panels.shape[0] * n_members * n_out > _BLOCK_VALUES:
        # the per-panel table would not fit: one sweep for the totals,
        # then a table for the members still over tolerance only
        total, total_err = _sweep(f, panels, n_members, n_out)
        done = total_err <= _tolerance(total, abs_tol, rel_tol)
        value[done], error[done] = total[done], total_err[done]
        act = act[~done]
    if act.size:
        cols = None if act.size == n_members else act
        values, errors = _evaluate_panels(f, panels, n_members, n_out, cols)
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
                    estimate=value[0] if members is None else value,
                    error=float(error[act[worst]]),
                )
            break
        bad = panels[refine]
        mid = 0.5 * (bad[:, 0] + bad[:, 1])
        children = np.concatenate(
            [np.stack([bad[:, 0], mid], axis=1), np.stack([mid, bad[:, 1]], axis=1)]
        )
        cols = None if act.size == n_members else act
        child_vals, child_errs = _evaluate_panels(f, children, n_members, n_out, cols)
        panels = np.concatenate([panels[~refine], children])
        values = np.concatenate([values[~refine], child_vals])
        errors = np.concatenate([errors[~refine], child_errs])
    if members is None:
        return QuadratureResult(value[0], float(error[0]), panels.shape[0], bool(converged[0]))
    return QuadratureResult(value, error, panels.shape[0], bool(converged.all()), converged)


def integrate_sqrt_endpoint(
    f,
    b: float,
    *,
    max_width: float | None = None,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-7,
    max_subdivisions: int = 10_000,
    n_out: int = 1,
    members: int | None = None,
    raise_on_failure: bool = True,
) -> QuadratureResult:
    """Integrate f over (0, b] where f(q) ~ sqrt(q) * smooth near 0.

    The leading panel [0, _FIRST_PANEL] is computed under q = u^2, which
    maps the sqrt behaviour onto a smooth integrand; the remainder uses
    the plain adaptive rule.  ``f`` and ``members`` are as for
    :func:`adaptive_quadrature`.
    """
    q1 = min(_FIRST_PANEL, b)
    shape = (n_out,) if members is None else (members, n_out)
    scale = (-1,) + (1,) * len(shape)  # 2u broadcast over members and outputs
    common = dict(
        abs_tol=0.5 * abs_tol,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        n_out=n_out,
        members=members,
        raise_on_failure=raise_on_failure,
    )

    def head_f(u):
        # scaled in place: the engine contract lets f's array be overwritten
        fu = np.asarray(f(u * u), dtype=float).reshape(u.size, *shape)
        if not fu.flags.writeable:
            fu = fu.copy()
        return np.multiply(fu, 2.0 * u.reshape(scale), out=fu)

    head = adaptive_quadrature(
        head_f,
        0.0,
        math.sqrt(q1),
        **common,
    )
    if q1 >= b:
        return head
    tail = adaptive_quadrature(f, q1, b, max_width=max_width, **common)
    flags = None if members is None else head.member_converged & tail.member_converged
    return QuadratureResult(
        head.value + tail.value,
        head.error + tail.error,
        head.n_panels + tail.n_panels,
        converged=head.converged and tail.converged,
        member_converged=flags,
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
