"""Outside-in tracing of rtoa's layers, from the benchmark's own files.

The traced run replaces public functions at the name each caller looks them
up by (``rtoa.cli.density_grid``, ``rtoa.spectral.energy``, ...) with
wrappers that record a span: name, start, end, parent.  The ``f`` handed to
the quadrature engine is wrapped too, which gives integrand time and node
counts.  Spans stay in memory; per-layer metrics are computed from them when
a pass ends.  No file under ``src/`` changes.

The tracer refuses to run if a function it wraps is missing, and a pass fails
if a layer the workload must exercise recorded no span, so a renamed or
re-routed call can never read as a zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from typing import Callable, NamedTuple

import numpy as np

# name, unit, better, the end-to-end metric(s) it should move, the workloads
# it should move on, the workloads it should stay flat on.
PER_LAYER = [
    ("dynamics.busy_ms", "ms", "lower", "wall_s, op_max_ms", "density-figure", "arrival-times, operator-checks"),
    ("dynamics.self_ms", "ms", "lower", "wall_s, op_max_ms", "density-figure", "arrival-times, operator-checks"),
    ("dynamics.cells", "count", "higher", "wall_s, op_max_ms", "density-figure", "arrival-times, operator-checks"),
    ("dynamics.cells_per_s", "1/s", "higher", "wall_s, op_max_ms", "density-figure", "arrival-times, operator-checks"),
    ("dynamics.workers", "count", "lower", "wall_s, op_max_ms", "density-figure", "arrival-times, operator-checks"),
    ("dynamics.span_overlap", "ratio", "lower", "wall_s, op_max_ms", "density-figure", "arrival-times, operator-checks"),
    ("dynamics.integrand_ms", "ms", "lower", "wall_s; error_rate", "density-ladder, density-figure", "arrival-times"),
    ("dynamics.flagged_cells", "count", "lower", "wall_s; error_rate", "density-ladder, density-figure", "arrival-times"),
    ("quadrature.busy_ms", "ms", "lower", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.self_ms", "ms", "lower", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.calls", "count", "lower", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.f_calls", "count", "lower", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.nodes", "count", "lower", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.nodes_per_call", "count", "lower", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.nodes_per_s", "1/s", "higher", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.panels", "count", "lower", "wall_s", "density-ladder, density-figure", "arrival-times; ~operator-checks"),
    ("quadrature.kept_node_frac", "fraction", "higher", "wall_s, error_rate", "density-ladder", "arrival-times"),
    ("quadrature.unconverged", "count", "lower", "wall_s, error_rate", "density-ladder", "arrival-times"),
    ("quadrature.extrapolations", "count", "lower", "wall_s, error_rate", "density-ladder", "arrival-times"),
    ("spectral.apply_toa_ms", "ms", "lower", "wall_s, op_max_ms", "operator-checks", "density-*, arrival-times"),
    ("spectral.apply_toa_points", "count", "higher", "wall_s, op_max_ms", "operator-checks", "density-*, arrival-times"),
    ("spectral.differentiate_ms", "ms", "lower", "wall_s, op_max_ms", "operator-checks", "density-*, arrival-times"),
    ("spectral.differentiate_ns_per_point", "ns", "lower", "wall_s, op_max_ms", "operator-checks", "density-*, arrival-times"),
    ("spectral.nonuniform_grid_calls", "count", "lower", "wall_s, op_max_ms", "operator-checks", "density-*, arrival-times"),
    ("spectral.completeness_ms", "ms", "lower", "wall_s, peak_rss_mb", "operator-checks", "arrival-times"),
    ("spectral.completeness_phase_evals", "count", "lower", "wall_s, peak_rss_mb", "operator-checks", "arrival-times"),
    ("spectral.completeness_phase_evals_per_s", "1/s", "higher", "wall_s, peak_rss_mb", "operator-checks", "arrival-times"),
    ("spectral.overlap_numeric_ms", "ms", "lower", "wall_s, peak_rss_mb", "operator-checks", "arrival-times"),
    ("spectral.integrand_ms", "ms", "lower", "wall_s, peak_rss_mb", "operator-checks", "arrival-times"),
    ("toa.distribution_ms", "ms", "lower", "wall_s, op_p50_ms", "arrival-times", "operator-checks, density-*"),
    ("toa.phase_evals", "count", "lower", "wall_s, op_p50_ms", "arrival-times", "operator-checks, density-*"),
    ("toa.phase_evals_per_s", "1/s", "higher", "wall_s, op_p50_ms", "arrival-times", "operator-checks, density-*"),
    ("cli.self_ms", "ms", "lower", "op_p50_ms", "arrival-times, density-figure", "-"),
    ("cli.out_bytes", "bytes", "lower", "op_p50_ms", "arrival-times, density-figure", "-"),
    ("cli.ops", "count", "higher", "op_p50_ms", "arrival-times, density-figure", "-"),
    ("algebra.busy_ms", "ms", "lower", "op_p50_ms", "operator-checks", "density-*, arrival-times"),
    ("core.energy_ms", "ms", "lower", "wall_s", "arrival-times, operator-checks", "-"),
    ("core.energy_points", "count", "lower", "wall_s", "arrival-times, operator-checks", "-"),
    ("trace.overhead_frac", "fraction", "lower", "-", "every workload", "-"),
    ("trace.unattributed_ms", "ms", "lower", "-", "every workload", "-"),
]

# Spans each workload must record in every traced pass.
EXPECTED_SPANS = {
    "density-figure": ("cli.dispatch", "dynamics.density_grid", "quadrature.adaptive", "dynamics.integrand"),
    "density-ladder": (
        "cli.dispatch",
        "dynamics.density_grid",
        "quadrature.adaptive",
        "dynamics.integrand",
        "quadrature.extrapolate",
    ),
    "arrival-times": ("cli.dispatch", "toa.distribution", "core.energy"),
    "operator-checks": (
        "cli.dispatch",
        "spectral.apply_toa",
        "spectral.differentiate",
        "spectral.completeness",
        "spectral.overlap_numeric",
        "spectral.integrand",
        "algebra.minimal_toa_operator",
        "core.energy",
    ),
}


class TraceTargetMissing(RuntimeError):
    """A function the tracer wraps no longer exists under its name."""


class Span:
    __slots__ = ("name", "parent", "start", "end", "thread", "attrs")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.attrs = None
        self.start = time.perf_counter()
        self.end = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg_getter(fn, names):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return [bound.arguments[n] for n in names]

    return get


def _density_attrs(fn):
    get = _arg_getter(fn, ("nx", "nt"))
    return lambda args, kwargs, result: {
        "cells": int(np.prod(get(args, kwargs))),
        "flagged": len(result.flagged),
    }


def _toa_attrs(fn):
    get = _arg_getter(fn, ("state", "n_tau"))

    def attrs(args, kwargs, result):
        state, n_tau = get(args, kwargs)
        grid = state.default_grid() if hasattr(state, "default_grid") else state.grid
        return {"phase_evals": int(n_tau) * int(np.size(grid))}

    return attrs


def _completeness_attrs(fn):
    get = _arg_getter(fn, ("test_fn", "tau_window", "tau_step"))

    def attrs(args, kwargs, result):
        f, window, step = get(args, kwargs)
        n_tau = int(round(2.0 * window / step)) + 1
        blocks = 2 * (int(np.any(f.upper)) + int(np.any(f.lower)))  # two parities per charge block
        return {"phase_evals": blocks * n_tau * f.grid.size}

    return attrs


def _points_attrs(fn):
    return lambda args, kwargs, result: {"points": int(np.size(args[0].grid))}


def _energy_attrs(fn):
    return lambda args, kwargs, result: {"points": int(np.size(args[0]))}


def _differentiate_attrs(fn):
    def attrs(args, kwargs, result):
        grid = np.asarray(args[0], dtype=float)
        # the same uniform-spacing test rtoa.spectral.differentiate applies
        uniform = grid.size > 1 and np.allclose(np.diff(grid), grid[1] - grid[0], rtol=1e-12, atol=0.0)
        return {"points": int(grid.size), "nonuniform": int(not uniform)}

    return attrs


def _panels_attrs(fn):
    return lambda args, kwargs, result: {"panels": result.n_panels, "unconverged": int(not result.converged)}


class Target(NamedTuple):
    """A function wrapped at the name its callers look up.

    ``fanout`` marks a span whose pool threads' spans attach to it;
    ``integrand`` names the span recorded around each call of the ``f``
    handed to a quadrature engine."""

    module: str
    attr: str
    span: str
    attrs: Callable | None = None
    fanout: bool = False
    integrand: str | None = None


TARGETS = [
    Target("rtoa.cli", "dispatch", "cli.dispatch"),
    Target("rtoa.cli", "density_grid", "dynamics.density_grid", _density_attrs, fanout=True),
    Target("rtoa.cli", "toa_distribution", "toa.distribution", _toa_attrs),
    Target("rtoa.cli", "completeness_check", "spectral.completeness", _completeness_attrs),
    Target("rtoa.cli", "overlap_numeric", "spectral.overlap_numeric"),
    Target("rtoa.cli", "apply_even_toa", "spectral.apply_toa", _points_attrs),
    Target("rtoa.cli", "apply_hamiltonian", "spectral.apply_hamiltonian"),
    Target("rtoa.cli", "eigenfunction_field", "spectral.eigenfunction_field"),
    Target("rtoa.cli", "even_toa_coefficients", "spectral.even_toa_coefficients"),
    Target("rtoa.cli", "nonrel_limit_check", "spectral.nonrel_limit_check"),
    Target("rtoa.cli", "overlap", "spectral.overlap"),
    Target("rtoa.cli", "inner_product_phi", "core.inner_product_phi"),
    Target("rtoa.cli", "gaussian_state", "toa.gaussian_state"),
    Target("rtoa.cli", "classical_references", "toa.classical_references"),
    Target("rtoa.cli", "most_probable_tau", "toa.most_probable_tau"),
    Target("rtoa.cli", "photon_time", "toa.photon_time"),
    Target("rtoa.algebra", "solve_conjugate_ansatz", "algebra.solve_conjugate_ansatz"),
    Target("rtoa.algebra", "minimal_toa_operator", "algebra.minimal_toa_operator"),
    Target("rtoa.algebra", "commutator_with_H", "algebra.commutator_with_H"),
    Target("rtoa.algebra", "identity_times_ihbar", "algebra.identity_times_ihbar"),
    Target("rtoa.algebra", "format_operator", "algebra.format_operator"),
    Target("rtoa.spectral", "apply_even_toa", "spectral.apply_toa", _points_attrs),
    Target("rtoa.spectral", "apply_hamiltonian", "spectral.apply_hamiltonian"),
    Target("rtoa.spectral", "differentiate", "spectral.differentiate", _differentiate_attrs),
    Target("rtoa.spectral", "energy", "core.energy", _energy_attrs),
    Target("rtoa.toa", "energy", "core.energy", _energy_attrs),
    Target("rtoa.dynamics", "integrate_sqrt_endpoint", "quadrature.integrate_sqrt_endpoint"),
    Target("rtoa.dynamics", "extrapolate_to_zero", "quadrature.extrapolate"),
    Target("rtoa.spectral", "extrapolate_to_zero", "quadrature.extrapolate"),
    Target("rtoa.quadrature", "adaptive_quadrature", "quadrature.adaptive", _panels_attrs,
           integrand="dynamics.integrand"),
    Target("rtoa.spectral", "adaptive_quadrature", "quadrature.adaptive", _panels_attrs,
           integrand="spectral.integrand"),
]


def resolve_targets():
    """Import every wrapped function; refuse loudly if one is gone."""
    resolved = []
    for target in TARGETS:
        module = importlib.import_module(target.module)
        fn = getattr(module, target.attr, None)
        if not callable(fn):
            raise TraceTargetMissing(
                f"{target.module}.{target.attr} is missing or not callable; the traced run "
                f"cannot attribute {target.span} and refuses to report it as zero"
            )
        resolved.append((module, fn, target))
    return resolved


class Tracer:
    """Collects spans from the calling thread and from the pool threads of
    a fan-out span (``density_grid``), which attach to that span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._fanout = None
        self._installed = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._fanout
        span = Span(name, parent, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def op(self, name: str):
        """The benchmark's own span around one op."""
        span = self._open("bench." + name)
        try:
            yield span
        finally:
            self._close(span)

    def install(self, resolved) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, fn, target in resolved:
            setattr(module, target.attr, self._wrap(fn, target))
        self._installed = True

    def _wrap(self, fn, target: Target):
        tracer = self
        attrs = target.attrs(fn) if target.attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.integrand:
                args, kwargs = tracer._wrap_integrand(target.integrand, args, kwargs)
            span = tracer._open(target.span)
            if target.fanout:
                outer, tracer._fanout = tracer._fanout, span
            try:
                result = fn(*args, **kwargs)
            finally:
                if target.fanout:
                    tracer._fanout = outer
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def _wrap_integrand(self, span_name, args, kwargs):
        """Wrap the ``f`` handed to the quadrature engine."""
        tracer = self
        args = list(args)
        f = args[0] if args else kwargs["f"]

        def traced_f(x):
            span = tracer._open(span_name)
            try:
                return f(x)
            finally:
                tracer._close(span)
                span.attrs = {"nodes": int(np.size(x))}

        if args:
            args[0] = traced_f
        else:
            kwargs = dict(kwargs, f=traced_f)
        return tuple(args), kwargs

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _merged_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def check_expected(workload: str, spans: list[Span]) -> None:
    seen = {s.name for s in spans}
    missing = [name for name in EXPECTED_SPANS[workload] if name not in seen]
    if missing:
        raise TraceTargetMissing(
            f"{workload}: no span recorded for {', '.join(missing)}; a wrapped name is no "
            "longer on the call path, so the layer would read as zero"
        )


def layer_metrics(spans: list[Span], out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def self_time(s: Span) -> float:
        kids = children.get(id(s), ())
        return s.duration - _merged_length([(k.start, k.end) for k in kids], s.start, s.end)

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name) if s.attrs)

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_busy(layer):
        return sum(
            s.duration
            for s in spans
            if s.layer == layer and (s.parent is None or s.parent.layer != layer)
        )

    grids = named("dynamics.density_grid")
    dyn_busy = total("dynamics.density_grid")
    dyn_children = sum(k.duration for g in grids for k in children.get(id(g), ()))
    workers = max((len({k.thread for k in children.get(id(g), ())}) for g in grids), default=0)
    cells = attr_sum("dynamics.density_grid", "cells")

    quad = [s for s in spans if s.layer == "quadrature"]
    quad_busy = layer_busy("quadrature")
    calls = len(named("quadrature.adaptive"))
    integrands = named("dynamics.integrand") + named("spectral.integrand")
    nodes = sum(s.attrs["nodes"] for s in integrands)
    panels = attr_sum("quadrature.adaptive", "panels")

    diff_ms = total("spectral.differentiate") * 1e3
    diff_points = attr_sum("spectral.differentiate", "points")
    comp_s = total("spectral.completeness")
    comp_evals = attr_sum("spectral.completeness", "phase_evals")
    toa_s = total("toa.distribution")
    toa_evals = attr_sum("toa.distribution", "phase_evals")
    ops = [s for s in spans if s.layer == "bench"]

    return {
        "dynamics.busy_ms": dyn_busy * 1e3,
        "dynamics.self_ms": sum(self_time(g) for g in grids) * 1e3,
        "dynamics.cells": cells,
        "dynamics.cells_per_s": ratio(cells, dyn_busy),
        "dynamics.workers": workers,
        "dynamics.span_overlap": ratio(dyn_children, dyn_busy),
        "dynamics.integrand_ms": total("dynamics.integrand") * 1e3,
        "dynamics.flagged_cells": attr_sum("dynamics.density_grid", "flagged"),
        "quadrature.busy_ms": quad_busy * 1e3,
        "quadrature.self_ms": sum(self_time(s) for s in quad) * 1e3,
        "quadrature.calls": calls,
        "quadrature.f_calls": len(integrands),
        "quadrature.nodes": nodes,
        "quadrature.nodes_per_call": ratio(nodes, calls),
        "quadrature.nodes_per_s": ratio(nodes, quad_busy),
        "quadrature.panels": panels,
        "quadrature.kept_node_frac": ratio(panels * 15, nodes),
        "quadrature.unconverged": attr_sum("quadrature.adaptive", "unconverged"),
        "quadrature.extrapolations": len(named("quadrature.extrapolate")),
        "spectral.apply_toa_ms": total("spectral.apply_toa") * 1e3,
        "spectral.apply_toa_points": attr_sum("spectral.apply_toa", "points"),
        "spectral.differentiate_ms": diff_ms,
        "spectral.differentiate_ns_per_point": ratio(diff_ms * 1e6, diff_points),
        "spectral.nonuniform_grid_calls": attr_sum("spectral.differentiate", "nonuniform"),
        "spectral.completeness_ms": comp_s * 1e3,
        "spectral.completeness_phase_evals": comp_evals,
        "spectral.completeness_phase_evals_per_s": ratio(comp_evals, comp_s),
        "spectral.overlap_numeric_ms": total("spectral.overlap_numeric") * 1e3,
        "spectral.integrand_ms": total("spectral.integrand") * 1e3,
        "toa.distribution_ms": toa_s * 1e3,
        "toa.phase_evals": toa_evals,
        "toa.phase_evals_per_s": ratio(toa_evals, toa_s),
        "cli.self_ms": sum(self_time(s) for s in named("cli.dispatch")) * 1e3,
        "cli.out_bytes": out_bytes,
        "cli.ops": len(named("cli.dispatch")),
        "algebra.busy_ms": layer_busy("algebra") * 1e3,
        "core.energy_ms": total("core.energy") * 1e3,
        "core.energy_points": attr_sum("core.energy", "points"),
        "trace.unattributed_ms": sum(self_time(s) for s in ops) * 1e3,
    }


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as plain records (ids are positions in the list)."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "id": i,
            "name": s.name,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "start": s.start,
            "end": s.end,
            "thread": s.thread,
            "attrs": s.attrs,
        }
        for i, s in enumerate(spans)
    ]

