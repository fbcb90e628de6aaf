"""Command-line entry point.

One subcommand per computation surface, each writing one format:

    verify-algebra   exact conjugate operator and its commutator residual (text)
    verify-spectral  report of the numerical operator identities (JSON)
    eigenfunction    sampled eigenfunction (CSV)
    density-grid     space-time probability density (CSV)
    toa-dist         arrival-time distribution (CSV, or JSON with --format json)
    limits           non-relativistic limit report (JSON)

With --emit-plot-script and --out, density-grid and toa-dist also write
a gnuplot script to ``<out>.gp``.

A subcommand reads only the settings whose ``--help`` line names it; a
setting it does not read is refused, from a flag and from a config file.
Precedence is CLI flags > config file (--config, a flat JSON document) >
built-in defaults; the settings read, and only those, are echoed to
stderr and embedded in every emitted file.  Runs are fully
deterministic: identical invocations produce byte-identical files.
Exit codes: 0 success; 1 for a ValueError, how every routine refuses an
input (non-finite numbers included), an OSError on a file, or a
MemoryError (a sample count too large to allocate); 2 for a
failed check or a QuadratureConvergenceError, which only the overlap
check of verify-spectral raises (a density cell that did not converge is
flagged in its file instead).  A time that does not exist (t_class and
tau_mp at p0 = 0, tau_mp when the window does not bracket the maximum)
is null in JSON and left out of the CSV header.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import algebra
from .core import ChargeSign, PhysConstants, Representation, Basis, SpinorField, inner_product_phi
from .dynamics import density_grid
from .quadrature import QuadratureConfig, QuadratureConvergenceError
from .spectral import (
    EigenSpec,
    Parity,
    apply_even_toa,
    apply_hamiltonian,
    completeness_check,
    eigenfunction_field,
    even_toa_coefficients,
    nonrel_limit_check,
    overlap,
    overlap_numeric,
)
from .toa import (
    DEFAULT_N_TAU,
    classical_references,
    default_tau_range,
    gaussian_state,
    most_probable_tau,
    photon_time,  # not called here; perfbench/tracing.py wraps this name
    toa_distribution,
)

@dataclass
class RunConfig:
    settings: dict  # exactly the settings the subcommand reads, as echoed and embedded
    constants: PhysConstants
    quadrature: QuadratureConfig


# the speeds c of the non-relativistic limit check, ascending
_C_LADDER = (10.0, 100.0, 1000.0)

# the writers of toa-dist, the choices of --format
_FORMATS = ("csv", "json")

CONFIG_DEFAULTS = {
    **asdict(PhysConstants()),
    **asdict(QuadratureConfig()),
    "out": None,
    "format": "csv",
    "emit_plot_script": False,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is 1 for any
    # validation failure, with usage on stderr.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.13's rule: before it, -1e-3 read as an option, not a value
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite(text: str) -> float:
    """argparse type for a float option; inf and nan are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _read_by(setting: str) -> str:
    """The subcommands whose table row holds ``setting``, for its --help."""
    return "read by " + ", ".join(name for name, row in _SUBCOMMANDS.items() if setting in row.settings)


@functools.cache  # one parser per process: argparse's object graph is cyclic garbage once dropped
def _build_parser() -> _Parser:
    parser = _Parser(prog="rtoa", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat JSON config file of settings")
    parser.add_argument("--hbar", type=_finite, help=_read_by("hbar"))
    parser.add_argument("--c", type=_finite, help=_read_by("c"))
    parser.add_argument("--m0", type=_finite, help=_read_by("m0"))
    parser.add_argument("--abs-tol", type=_finite, dest="abs_tol", help=_read_by("abs_tol"))
    parser.add_argument("--rel-tol", type=_finite, dest="rel_tol", help=_read_by("rel_tol"))
    parser.add_argument(
        "--max-subdivisions", type=int, dest="max_subdivisions", help=_read_by("max_subdivisions")
    )
    parser.add_argument("--out", help="output path (default: stdout); " + _read_by("out"))
    parser.add_argument("--format", choices=_FORMATS, help=_read_by("format"))
    parser.add_argument(
        "--emit-plot-script",
        action="store_const",
        const=True,
        default=None,
        help="with --out and CSV, also write a gnuplot script to <out>.gp; " + _read_by("emit_plot_script"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-algebra", help="print the solved operator and commutator residual")

    vs = sub.add_parser("verify-spectral", help="JSON report of operator identity checks")
    vs.add_argument("--full", action="store_true", help="run the slow completeness ladder too")

    eig = sub.add_parser("eigenfunction", help="sample an eigenfunction to CSV")
    eig.add_argument("--lambda", dest="lam", type=int, choices=[1, -1], default=1)
    eig.add_argument("--branch", choices=["nonnodal", "nodal"], default="nonnodal")
    eig.add_argument("--tau", type=_finite, required=True)
    eig.add_argument("--time", type=_finite, default=0.0)
    eig.add_argument("--pmin", type=_finite, default=-8.0)
    eig.add_argument("--pmax", type=_finite, default=8.0)
    eig.add_argument("--n", type=int, default=1001)

    dg = sub.add_parser("density-grid", help="space-time density grid to CSV")
    dg.add_argument("--branch", choices=["nonnodal", "nodal"], required=True)
    dg.add_argument("--tau", type=_finite, required=True)
    dg.add_argument("--xmin", type=_finite, required=True)
    dg.add_argument("--xmax", type=_finite, required=True)
    dg.add_argument("--nx", type=int, required=True)
    dg.add_argument("--tmin", type=_finite, required=True)
    dg.add_argument("--tmax", type=_finite, required=True)
    dg.add_argument("--nt", type=int, required=True)
    dg.add_argument("--epsilon", type=_finite)
    dg.add_argument("--extrapolate", action="store_true")

    td = sub.add_parser("toa-dist", help="arrival-time distribution for a Gaussian state")
    td.add_argument("--p0", type=_finite, required=True)
    td.add_argument("--x0", type=_finite, required=True)
    td.add_argument("--tau-min", type=_finite, dest="tau_min")
    td.add_argument("--tau-max", type=_finite, dest="tau_max")
    td.add_argument("--n-tau", type=int, dest="n_tau", default=DEFAULT_N_TAU)

    lm = sub.add_parser("limits", help="non-relativistic limit report as JSON")
    lm.add_argument("--c-ladder", type=_finite, nargs="+", default=_C_LADDER)

    return parser


def _finite_number(value) -> bool:
    """A JSON number that a _finite flag accepts: no bool, nan, inf or int beyond the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# what a config-file value must be, as its flag accepts it; any other key is
# a float flag, and its value is taken as a float from a flag and a file alike
_CONFIG_TYPES = {
    "max_subdivisions": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "emit_plot_script": ("true or false", lambda v: isinstance(v, bool)),
    "out": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "format": (" or ".join(map(repr, _FORMATS)), lambda v: v in _FORMATS),
}


def _load_config(args) -> RunConfig:
    row = _SUBCOMMANDS[args.command]
    given = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(given) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in given.items():
            what, accepts = _CONFIG_TYPES.get(key, ("a finite number", _finite_number))
            if not accepts(value):
                raise ValueError(f"config value {key!r} must be {what}, got {value!r}")
    flags = {key: getattr(args, key, None) for key in CONFIG_DEFAULTS}
    given.update((key, value) for key, value in flags.items() if value is not None)
    unread = sorted(set(given) - set(row.settings))
    if unread:
        raise ValueError(f"{args.command} does not read {', '.join(unread)}; it reads {', '.join(row.settings)}")
    settings = {key: given.get(key, CONFIG_DEFAULTS[key]) for key in row.settings}
    for key in settings.keys() - _CONFIG_TYPES.keys():
        settings[key] = float(settings[key])
    if settings.get("emit_plot_script") and (not settings["out"] or settings.get("format") == "json"):
        raise ValueError("--emit-plot-script needs --out and CSV")
    constants = PhysConstants(**{key: settings[key] for key in _CONSTANTS if key in settings})
    quadrature = QuadratureConfig(**{key: settings[key] for key in _QUADRATURE if key in settings})
    return RunConfig(settings, constants, quadrature)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rtoa-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.settings["out"]:
        _write_atomic(cfg.settings["out"], text)
    else:
        sys.stdout.write(text)


def _plain(value):
    """``value`` as both writers print it: every float with negative zero
    folded to 0.0 (x + 0.0), an array as nested lists, and a dict, list
    or tuple item by item."""
    if isinstance(value, np.ndarray):
        return (value + 0.0).tolist()
    if isinstance(value, float):
        return value + 0.0
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _fmt(x: float) -> str:
    return repr(_plain(float(x)))


def _emit_csv(cfg: RunConfig, meta_lines, columns: dict, plot=None, **plot_fields) -> None:
    """The one CSV layout: the config and meta comment lines, a header of
    the column names, then one row per sample, each cell as ``_fmt``
    writes it.  With --emit-plot-script, ``plot`` formatted with the CSV's
    file name and ``plot_fields`` goes to ``<out>.gp``."""
    config = f"# config: {json.dumps(cfg.settings, sort_keys=True)}"
    cells = []
    for column in columns.values():  # each distinct value of a column formatted once
        distinct, index = np.unique(np.asarray(column, dtype=float) + 0.0, return_inverse=True)
        cells.append(np.array(list(map(repr, distinct.tolist())), dtype=object)[index])
    lines = [config, *meta_lines, ",".join(columns), *map(",".join, zip(*cells))]
    _emit(cfg, "\n".join(lines) + "\n")
    out = cfg.settings["out"]
    if cfg.settings.get("emit_plot_script"):
        _write_atomic(out + ".gp", plot.format(csv=os.path.basename(out), **plot_fields))


def _emit_json(cfg: RunConfig, doc: dict) -> None:
    """The one JSON report layout: ``doc`` plus the settings read; a
    float that is not finite has no JSON spelling and is refused."""
    _emit(cfg, json.dumps(_plain({**doc, "config": cfg.settings}), indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_verify_algebra(cfg: RunConfig, args) -> int:
    k = cfg.constants
    solved = algebra.solve_conjugate_ansatz(2, 2, k)
    minimal = algebra.minimal_toa_operator(k)
    residual = algebra.commutator_with_H(minimal, k) - algebra.identity_times_ihbar(k)
    lines = [
        "conjugate operator (minimal solution):",
        algebra.format_operator(minimal),
        "ansatz solver over m in [-2,2], n in [0,2]:",
        algebra.format_operator(solved),
        "commutator residual [H, T] - i*hbar:",
        algebra.format_operator(residual),
    ]
    ok = residual.is_zero() and solved == minimal
    lines.append("status: " + ("ok (exact)" if ok else "MISMATCH"))
    _emit(cfg, "\n".join(lines) + "\n")
    return 0 if ok else 2


def _bump_states(n: int, count: int) -> list[SpinorField]:
    """Fixed family of smooth compactly-supported two-component states on
    linspace(0.4, 5.1, n) (deterministic, no RNG)."""
    grid = np.linspace(0.4, 5.1, n)
    lo, hi = grid[0] + 0.05, grid[-1] - 0.05
    u = (2.0 * grid - (lo + hi)) / (hi - lo)
    bump = np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.clip(1.0 - u * u, 1e-300, None)), 0.0)
    states = []
    for j in range(count):
        up = bump * (1.0 + 0.3 * j * grid) * np.exp(1j * (j + 1) * grid)
        lo_ = bump * (0.5 + 0.1 * j) * np.exp(-1j * (2 * j + 1) * grid / 2.0)
        states.append(
            SpinorField(Representation.FESHBACH_VILLARS_PHI, Basis.MOMENTUM, grid, up, lo_)
        )
    return states


def _residual_norm(f: SpinorField, g: SpinorField, inner=slice(2, -2)) -> float:
    num = math.sqrt(
        np.linalg.norm(f.upper[inner] - g.upper[inner]) ** 2
        + np.linalg.norm(f.lower[inner] - g.lower[inner]) ** 2
    )
    den = math.sqrt(
        np.linalg.norm(g.upper[inner]) ** 2 + np.linalg.norm(g.lower[inner]) ** 2
    )
    if den == 0.0:
        raise ValueError("reference field is identically zero: no relative residual")
    return num / den


def _order(coarse: float, fine: float) -> float:
    return math.log2(coarse / fine) if fine > 0 else float("inf")


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


# One check per operator identity of the acceptance contract (criteria 2-6
# and 10 of tests/test_acceptance.py).  Each returns the dict that
# `verify-spectral` or `limits` prints, and its "pass" is the contract's
# rule.  They call rtoa routines through this module's names, which
# perfbench/tracing.py wraps.


def check_eigenrelation(k: PhysConstants) -> dict:
    """Criterion 3: T f = tau f for the positive-charge eigenfunctions of
    both parities at tau = 0.5, 1, 2 on linspace(0.5, 5, n), as the worst
    interior residual relative to tau f.  At 4097 points the residual sits
    at the roundoff floor, so the refinement order is taken from 513 to
    1025 points, where truncation still dominates."""

    def worst(n: int) -> float:
        grid = np.linspace(0.5, 5.0, n)
        residuals = []
        for parity in (Parity.NONNODAL, Parity.NODAL):
            for tau in (0.5, 1.0, 2.0):
                f = eigenfunction_field(EigenSpec(ChargeSign.POSITIVE, parity, tau), 0.0, grid, k)
                target = f.with_components(tau * f.upper, tau * f.lower)
                residuals.append(_residual_norm(apply_even_toa(f, k), target))
        return max(residuals)

    r = {f"residual_{n}": worst(n) for n in (513, 1025, 4097)}
    r["order"] = _order(r["residual_513"], r["residual_1025"])
    r["pass"] = r["residual_4097"] < 1e-4 and r["order"] >= 3.0
    return r


def check_conjugacy(k: PhysConstants, states) -> dict:
    """Criterion 2: [H, T] f = i hbar f for each state of ``states(n)`` at
    n = 4097 and 8193, as the worst interior residual relative to
    i hbar f, and the refinement order between the two grids."""

    def worst(n: int) -> float:
        residuals = []
        for f in states(n):
            HT = apply_hamiltonian(apply_even_toa(f, k), k)
            TH = apply_even_toa(apply_hamiltonian(f, k), k)
            comm = f.with_components(HT.upper - TH.upper, HT.lower - TH.lower)
            target = f.with_components(1j * k.hbar * f.upper, 1j * k.hbar * f.lower)
            residuals.append(_residual_norm(comm, target))
        return max(residuals)

    r = {f"residual_{n}": worst(n) for n in (4097, 8193)}
    r["order"] = _order(r["residual_4097"], r["residual_8193"])
    r["pass"] = r["residual_4097"] < 1e-4 and r["order"] >= 3.0
    return r


def check_symmetry(k: PhysConstants, states) -> dict:
    """Criterion 4: <f, T f> is real for each state of ``states(n)``, as
    the worst |Im| / |.| at n = 2049 and, refined, at n = 4097 (called in
    that order)."""

    def worst(n: int) -> float:
        fractions = []
        for f in states(n):
            v = inner_product_phi(f, apply_even_toa(f, k))
            fractions.append(abs(v.imag) / abs(v))
        return max(fractions)

    r = {f"imag_fraction_{n}": worst(n) for n in (2049, 4097)}
    r["pass"] = r["imag_fraction_4097"] < 1e-6
    return r


def check_overlap(k: PhysConstants) -> dict:
    """Criterion 5: the closed-form smooth part of <tau|0> against the
    damped momentum integral, for both charges and both parities at
    tau = 0.5, 1, 2, 5 hbar / (m0 c^2), and the exact zeros between charge
    sectors and between parities.

    The numeric route is one quadrature per separation, on the (lambda =
    +1, non-nodal) pair; its exact images cover the other fixtures.  The
    nodal value is the non-nodal one (the integrand holds sgn(p)^2 = 1)
    and lambda = -1 gives -conj of the lambda = +1 value (the charge only
    flips the sign of the frequency).  tests/test_spectral.py pins both
    images bitwise, and every fixture is still scored against its own
    closed form."""
    errors, unit_time = [], k.hbar / k.rest_energy
    for dt in (0.5, 1.0, 2.0, 5.0):
        s1 = EigenSpec(ChargeSign.POSITIVE, Parity.NONNODAL, dt * unit_time)
        num = overlap_numeric(s1, EigenSpec(ChargeSign.POSITIVE, Parity.NONNODAL, 0.0), k)
        for lam, value in ((ChargeSign.POSITIVE, num), (ChargeSign.NEGATIVE, -num.conjugate())):
            for parity in (Parity.NONNODAL, Parity.NODAL):
                ana = overlap(EigenSpec(lam, parity, dt * unit_time), EigenSpec(lam, parity, 0.0), k)
                errors.append(abs(value - ana.regular_part) / abs(ana.regular_part))
    worst = max(errors)
    one = EigenSpec(ChargeSign.POSITIVE, Parity.NONNODAL, 1.0)
    other_charge = EigenSpec(ChargeSign.NEGATIVE, Parity.NONNODAL, 0.0)
    cross = overlap(one, other_charge, k)
    parity_cross = overlap(one, EigenSpec(ChargeSign.POSITIVE, Parity.NODAL, 0.0), k)
    cross_charge_zero = (
        cross.distributional_part == 0.0 == cross.regular_part
        and overlap_numeric(one, other_charge, k) == 0.0
    )
    cross_parity_zero = parity_cross.distributional_part == 0.0 == parity_cross.regular_part
    return {
        "worst_rel_error": worst,
        "cross_charge_zero": cross_charge_zero,
        "cross_parity_zero": cross_parity_zero,
        "pass": worst < 1e-3 and cross_charge_zero and cross_parity_zero,
    }


def check_completeness(k: PhysConstants, ladder) -> dict:
    """Criterion 6: the tau family resolves the identity on the Gaussian
    packet p0 = 3 m0 c, x0 = 0, sampled on 2049 points over p0 +- 5 m0 c.
    The error for each (T, dtau) of ``ladder``, in units of hbar / (m0 c^2),
    must fall, and the last must be below 1e-2."""
    mc, unit_time = k.momentum_scale, k.hbar / k.rest_energy
    f = gaussian_state(3.0 * mc, 0.0, k).field(np.linspace(-2.0 * mc, 8.0 * mc, 2049))
    errs = [completeness_check(f, T * unit_time, dt * unit_time, k) for T, dt in ladder]
    return {
        "settings": ladder,
        "errors": errs,
        "pass": errs[-1] < 1e-2 and _decreasing(errs),
    }


def check_nonrel_limit(k: PhysConstants, c_ladder) -> dict:
    """Criterion 10, eigenfunction half: the phase-stripped positive-charge
    non-nodal eigenfunction at tau = 1 and p = 0.5, 1, 2 approaches its
    non-relativistic form, its deviation falling along the ascending
    ``c_ladder``."""
    spec = EigenSpec(ChargeSign.POSITIVE, Parity.NONNODAL, 1.0)
    devs = list(map(float, nonrel_limit_check(spec, [0.5, 1.0, 2.0], c_ladder, k)))
    return {"c_ladder": list(c_ladder), "deviations": devs, "pass": _decreasing(devs)}


def check_nonrel_operator(k: PhysConstants, c_ladder) -> dict:
    """Criterion 10: at each speed of the ascending ``c_ladder`` the exact
    operator's sigma3 coefficient of T[1,1] times c^2 is one constant and
    that of T[-1,1] is -m0; the even operator's coefficients at p = 1; and
    the eigenfunction deviations of :func:`check_nonrel_limit` with their
    successive ratios (about 100 per decade in c)."""
    operator = []
    scaled_values = set()
    tm11_exact = True
    for c in c_ladder:
        kc = PhysConstants(hbar=k.hbar, c=c, m0=k.m0)
        _, c_e, m0_e = kc.exact()
        op = algebra.minimal_toa_operator(kc)
        t11 = op.coeff(1, 1)
        tm11 = op.coeff(-1, 1)
        scaled = t11.c[3] * algebra.RC(c_e * c_e)
        scaled_values.add(scaled)
        tm11_exact = tm11_exact and tm11.c[3] == algebra.RC(-m0_e)
        first, second = even_toa_coefficients(np.array([1.0]), kc)
        operator.append(
            {
                "c": c,
                "t11_sigma3": str(t11.c[3]),
                "t11_sigma3_times_c2": str(scaled),
                "tm11_sigma3": str(tm11.c[3]),
                "even_first_coeff_at_p1": float(first[0]),
                "even_second_coeff_at_p1": float(second[0]),
            }
        )
    limit = check_nonrel_limit(k, c_ladder)
    devs = limit["deviations"]
    return {
        "c_ladder": limit["c_ladder"],
        "operator_coefficients": operator,
        "t11_scales_as_inverse_c2": len(scaled_values) == 1,
        "tm11_equals_minus_m0": tm11_exact,
        "eigenfunction_deviation": devs,
        "deviation_ratios": [a / b for a, b in zip(devs, devs[1:])],
        "decreasing": limit["pass"],
    }


def spectral_report(cfg: RunConfig, full: bool = False) -> dict:
    k = cfg.constants
    ladder = [(25.0, 0.1)] + ([(50.0, 0.05), (100.0, 0.025)] if full else [])
    checks = {
        "eigenrelation": check_eigenrelation(k),
        "conjugacy": check_conjugacy(k, lambda n: _bump_states(n, 3)),
        "symmetry": check_symmetry(k, lambda n: _bump_states(n, 5)),
        "overlap": check_overlap(k),
        "completeness": check_completeness(k, ladder),
        "nonrel_limit": check_nonrel_limit(k, _C_LADDER),
    }
    return {"checks": checks, "pass": all(chk["pass"] for chk in checks.values())}


def cmd_verify_spectral(cfg: RunConfig, args) -> int:
    report = spectral_report(cfg, full=args.full)
    _emit_json(cfg, report)
    return 0 if report["pass"] else 2


def cmd_eigenfunction(cfg: RunConfig, args) -> int:
    k = cfg.constants
    spec = EigenSpec(ChargeSign(args.lam), Parity(args.branch), args.tau)
    if not args.pmin < args.pmax:
        raise ValueError("need pmin < pmax")
    if args.n < 2:
        raise ValueError("need n >= 2")
    if not math.isfinite(args.pmax - args.pmin):
        raise ValueError("momentum range width pmax - pmin must be finite")
    f = eigenfunction_field(spec, args.time, np.linspace(args.pmin, args.pmax, args.n), k)
    columns = {
        "p": f.grid,
        "re_upper": f.upper.real,
        "im_upper": f.upper.imag,
        "re_lower": f.lower.real,
        "im_lower": f.lower.imag,
    }
    _emit_csv(cfg, [], columns)
    return 0


_DENSITY_PLOT = """\
set datafile separator ','
set view map
set xlabel 'x'
set ylabel 't'
set dgrid3d {nt},{nx}
splot '{csv}' using 1:2:3 with pm3d notitle
"""


def cmd_density_grid(cfg: RunConfig, args) -> int:
    k = cfg.constants
    if not args.xmin < args.xmax or not args.tmin < args.tmax:
        raise ValueError("need xmin < xmax and tmin < tmax")
    grid = density_grid(
        Parity(args.branch),
        args.tau,
        (args.xmin, args.xmax),
        (args.tmin, args.tmax),
        args.nx,
        args.nt,
        k,
        cfg.quadrature,
        extrapolate=args.extrapolate,
    )
    meta = [f"# branch: {args.branch}  tau: {_fmt(args.tau)}  extrapolated: {args.extrapolate}"]
    if grid.flagged:
        meta.append("# flagged_cells: " + ";".join(f"{i},{j}" for i, j in grid.flagged))
    columns = {  # row-major in (t, x): x cycles fastest
        "x": np.tile(grid.x_samples, args.nt),
        "t": np.repeat(grid.t_samples, args.nx),
        "P": grid.values.ravel(),
    }
    _emit_csv(cfg, meta, columns, _DENSITY_PLOT, nt=args.nt, nx=args.nx)
    return 0


_DIST_PLOT = """\
set datafile separator ','
set xlabel 'tau'
set ylabel 'Pi(tau)'
set arrow from {t_ph}, graph 0 to {t_ph}, graph 1 nohead dashtype 3
plot '{csv}' using 1:2 with lines title 'total', \\
     '{csv}' using 1:3 with lines title 'nonnodal', \\
     '{csv}' using 1:4 with lines title 'nodal'
"""


def cmd_toa_dist(cfg: RunConfig, args) -> int:
    k = cfg.constants
    state = gaussian_state(args.p0, args.x0, k)
    if (args.tau_min is None) != (args.tau_max is None):
        raise ValueError("give both --tau-min and --tau-max or neither")
    tau_range = default_tau_range(args.p0, args.x0, k) if args.tau_min is None else (args.tau_min, args.tau_max)
    dist = toa_distribution(state.field(), tau_range, args.n_tau, k)
    t_class, t_ph = classical_references(args.p0, args.x0, k)
    meta = {"t_ph": t_ph, "t_class": t_class, "tau_mp": most_probable_tau(dist, args.p0), "window_integral": dist.integral()}
    columns = {
        "tau": dist.tau_samples,
        "pi_total": dist.pi_values,
        "pi_nonnodal": dist.pi_nonnodal,
        "pi_nodal": dist.pi_nodal,
    }
    if cfg.settings["format"] == "json":
        taus = dist.tau_samples
        grid = {"tau_min": float(taus[0]), "tau_max": float(taus[-1]), "n_tau": int(taus.size)}
        _emit_json(cfg, {"state": {"p0": args.p0, "x0": args.x0}, **meta, "grid": grid, **columns})
    else:
        header = {"p0": args.p0, "x0": args.x0, **meta}
        line = "# " + "  ".join(f"{n}: {_fmt(v)}" for n, v in header.items() if v is not None)
        _emit_csv(cfg, [line], columns, _DIST_PLOT, t_ph=_fmt(t_ph))
    return 0


def cmd_limits(cfg: RunConfig, args) -> int:
    ladder = sorted(set(args.c_ladder))
    if len(ladder) < 2:
        raise ValueError("need at least two distinct ladder speeds")
    result = check_nonrel_operator(cfg.constants, ladder)
    _emit_json(cfg, result)
    ok = result["decreasing"] and result["t11_scales_as_inverse_c2"] and result["tm11_equals_minus_m0"]
    return 0 if ok else 2


class _Subcommand(NamedTuple):
    run: Callable[[RunConfig, argparse.Namespace], int]
    settings: tuple[str, ...]  # every setting it reads; any other is refused


_CONSTANTS = tuple(f.name for f in fields(PhysConstants))
_QUADRATURE = tuple(f.name for f in fields(QuadratureConfig))
_SUBCOMMANDS = {
    "verify-algebra": _Subcommand(cmd_verify_algebra, (*_CONSTANTS, "out")),
    "verify-spectral": _Subcommand(cmd_verify_spectral, (*_CONSTANTS, "out")),
    "eigenfunction": _Subcommand(cmd_eigenfunction, (*_CONSTANTS, "out")),
    "density-grid": _Subcommand(cmd_density_grid, (*_CONSTANTS, *_QUADRATURE, "emit_plot_script", "out")),
    "toa-dist": _Subcommand(cmd_toa_dist, (*_CONSTANTS, "emit_plot_script", "format", "out")),
    # check_nonrel_operator takes each speed from --c-ladder
    "limits": _Subcommand(cmd_limits, ("hbar", "m0", "out")),
}


def dispatch(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        print("# effective config: " + json.dumps(cfg.settings, sort_keys=True), file=sys.stderr)
        return _SUBCOMMANDS[args.command].run(cfg, args)
    except QuadratureConvergenceError as exc:
        print(f"rtoa: numerical convergence failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"rtoa: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
