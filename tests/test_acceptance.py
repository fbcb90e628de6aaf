"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criteria marked by runtime budgets are timed with time.monotonic; the
tolerances are asserted exactly as stated, nothing is tuned at import
time.
"""

import time

import numpy as np
import pytest

from rtoa import algebra, cli
from rtoa.core import PhysConstants
from rtoa.dynamics import density_grid
from rtoa.quadrature import QuadratureConfig
from rtoa.spectral import Parity
from rtoa.toa import (
    DEFAULT_N_TAU,
    classical_references,
    default_tau_range,
    gaussian_state,
    most_probable_tau,
    toa_distribution,
)

from conftest import bump, phi_field

K = PhysConstants()


def report(n, label, ok, detail):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_exact_conjugacy():
    start = time.monotonic()
    minimal = algebra.minimal_toa_operator(K)
    residual = algebra.commutator_with_H(minimal, K) - algebra.identity_times_ihbar(K)
    solved = algebra.solve_conjugate_ansatz(2, 2, K)
    elapsed = time.monotonic() - start
    ok = residual.is_zero() and solved == minimal and elapsed < 1.0
    report(
        1,
        "exact conjugacy",
        ok,
        f"residual exactly zero: {residual.is_zero()}, ansatz == minimal: "
        f"{solved == minimal}, elapsed {elapsed:.3f}s < 1s",
    )


def test_criterion_2_numerical_conjugacy():
    start = time.monotonic()

    def states(n):
        grid = np.linspace(0.45, 5.05, n)
        b = bump(grid, 0.5, 5.0)
        return [
            phi_field(grid, b),
            phi_field(grid, b * np.exp(3j * grid), 0.5 * b * np.exp(1j * grid)),
            phi_field(grid, b * grid * np.exp(-2j * grid), 0.2 * b),
        ]

    r = cli.check_conjugacy(K, states)
    elapsed = time.monotonic() - start
    ok = r["pass"] and r["residual_4097"] < 1e-4 and r["order"] >= 3.0 and elapsed < 10.0
    report(
        2,
        "numerical conjugacy",
        ok,
        f"residual(4097)={r['residual_4097']:.3e} < 1e-4, refinement order {r['order']:.2f} >= 3, "
        f"elapsed {elapsed:.1f}s < 10s",
    )


def test_criterion_3_eigenrelation():
    r = cli.check_eigenrelation(K)
    ok = r["pass"] and r["residual_4097"] < 1e-4 and r["order"] >= 3.0
    report(
        3,
        "eigenrelation",
        ok,
        f"interior residual(4097)={r['residual_4097']:.3e} < 1e-4, "
        f"order(513->1025)={r['order']:.2f} >= 3",
    )


def test_criterion_4_symmetry(rng):
    def states(n):
        grid = np.linspace(0.45, 5.05, n)
        b = bump(grid, 0.5, 5.0)
        fields = []
        for _ in range(5):
            cu = rng.normal(size=3) + 1j * rng.normal(size=3)
            cl = rng.normal(size=3) + 1j * rng.normal(size=3)
            up = b * (cu[0] + cu[1] * grid + cu[2] * np.exp(2j * grid))
            lo = b * (cl[0] + cl[1] * grid + cl[2] * np.exp(-1j * grid))
            fields.append(phi_field(grid, up, lo))
        return fields

    r = cli.check_symmetry(K, states)
    ok = r["pass"] and r["imag_fraction_4097"] < 1e-6
    report(
        4,
        "symmetry",
        ok,
        f"Im/|.| worst {r['imag_fraction_4097']:.3e} < 1e-6 after refinement "
        f"(coarse {r['imag_fraction_2049']:.3e})",
    )


def test_criterion_5_nonorthogonality():
    # All 16 (charge, parity, separation) fixtures are scored against their
    # closed forms.  The numeric route runs once per separation, on the
    # lambda = +1 non-nodal pair; its charge and parity images cover the
    # other fixtures, pinned bitwise by tests/test_spectral.py::TestOverlap.
    r = cli.check_overlap(K)
    zeros = r["cross_charge_zero"] and r["cross_parity_zero"]
    ok = r["pass"] and r["worst_rel_error"] < 1e-3 and zeros
    report(
        5,
        "non-orthogonality closed form",
        ok,
        f"worst relative error {r['worst_rel_error']:.3e} < 1e-3, structural zeros exact: {zeros}",
    )


def test_criterion_6_completeness():
    start = time.monotonic()
    r = cli.check_completeness(K, [(25.0, 0.1), (50.0, 0.05), (100.0, 0.025)])
    elapsed = time.monotonic() - start
    errs = r["errors"]
    ok = r["pass"] and errs[-1] < 1e-2 and elapsed < 300.0
    report(
        6,
        "completeness",
        ok,
        f"errors {['%.3e' % e for e in errs]} falling with the final one < 1e-2: "
        f"{r['pass']}, elapsed {elapsed:.0f}s < 300s",
    )


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_criterion_7_figure_behaviour(tau):
    start = time.monotonic()
    q = QuadratureConfig(epsilon=0.3)
    nx = nt = 101
    non = density_grid(Parity.NONNODAL, tau, (-4.0, 4.0), (0.0, 2.0 * tau), nx, nt, K, q)
    nod = density_grid(Parity.NODAL, tau, (-4.0, 4.0), (0.0, 2.0 * tau), nx, nt, K, q)
    dx = non.x_samples[1] - non.x_samples[0]
    dt = non.t_samples[1] - non.t_samples[0]

    i, j = np.unravel_index(np.argmax(non.values), non.values.shape)
    argmax_ok = abs(non.t_samples[i] - tau) <= dt + 1e-12 and abs(non.x_samples[j]) <= dx + 1e-12

    zero_col = int(np.argmin(np.abs(nod.x_samples)))
    nodal_zero_ok = nod.x_samples[zero_col] == 0.0 and np.all(nod.values[:, zero_col] == 0.0)

    xs = nod.x_samples
    separations = []
    for row in nod.values:
        jp = int(np.argmax(np.where(xs > 0, row, -np.inf)))
        jn = int(np.argmax(np.where(xs < 0, row, -np.inf)))
        separations.append(xs[jp] - xs[jn])
    separations = np.asarray(separations)
    at_tau = int(np.argmin(np.abs(nod.t_samples - tau)))
    min_sep_ok = separations[at_tau] <= separations.min() + 1e-12

    sym_ok = bool(
        np.allclose(nod.values, nod.values[:, ::-1], rtol=1e-7, atol=1e-12)
        and np.allclose(non.values, non.values[:, ::-1], rtol=1e-7, atol=1e-12)
    )
    elapsed = time.monotonic() - start
    ok = argmax_ok and nodal_zero_ok and min_sep_ok and sym_ok and elapsed < 1200.0
    report(
        7,
        f"figure behaviour tau={tau}",
        ok,
        f"nonnodal argmax at (x={non.x_samples[j]:+.2f}, t={non.t_samples[i]:.2f}) "
        f"within one cell of (0, {tau}); nodal x=0 column exactly zero: {nodal_zero_ok}; "
        f"min separation {separations[at_tau]:.2f} attained at t=tau: {min_sep_ok}; "
        f"mirror symmetry: {sym_ok}; elapsed {elapsed:.0f}s < 2x600s",
    )


def _iqr(dist):
    mass = np.cumsum(dist.pi_values)
    mass = mass / mass[-1]
    q1 = float(np.interp(0.25, mass, dist.tau_samples))
    q3 = float(np.interp(0.75, mass, dist.tau_samples))
    return q3 - q1


def test_criterion_8_distributions():
    start = time.monotonic()
    results = {}
    for p0 in (2.0, 3.0, 4.0, 5.0):
        dist = toa_distribution(gaussian_state(p0, -7.0, K).field(), default_tau_range(p0, -7.0, K), DEFAULT_N_TAU, K)
        t_class, t_ph = classical_references(p0, -7.0, K)
        results[p0] = {
            "tau_mp": most_probable_tau(dist),
            "t_class": t_class,
            "t_ph": t_ph,
            "peak": float(dist.pi_values.max()),
            "iqr": _iqr(dist),
        }
    above_photon = all(r["tau_mp"] > r["t_ph"] for r in results.values())
    devs = {
        p0: abs(r["tau_mp"] - r["t_class"]) / r["t_class"] for p0, r in results.items()
    }
    classical_ok = all(devs[p0] < 0.05 for p0 in (3.0, 4.0, 5.0))
    peaks = [results[p0]["peak"] for p0 in (2.0, 3.0, 4.0, 5.0)]
    peaks_increasing = all(a < b for a, b in zip(peaks, peaks[1:]))
    taus_decreasing = all(
        results[a]["tau_mp"] > results[b]["tau_mp"]
        for a, b in zip((2.0, 3.0, 4.0), (3.0, 4.0, 5.0))
    )
    slow = toa_distribution(gaussian_state(0.1, -7.0, K).field(), default_tau_range(0.1, -7.0, K), DEFAULT_N_TAU, K)
    broad_ok = _iqr(slow) >= 3.0 * results[3.0]["iqr"]
    elapsed = time.monotonic() - start
    ok = (
        above_photon
        and classical_ok
        and peaks_increasing
        and taus_decreasing
        and broad_ok
        and elapsed < 300.0
    )
    report(
        8,
        "arrival-time distributions",
        ok,
        f"tau_mp > t_ph for all p0: {above_photon}; deviations "
        f"{ {p0: f'{100 * d:.2f}%' for p0, d in devs.items()} }"
        f" (<5% for p0>=3: {classical_ok}); peaks {['%.3f' % p for p in peaks]} "
        f"increasing: {peaks_increasing}; tau_mp decreasing: {taus_decreasing}; "
        f"IQR(p0=0.1)={_iqr(slow):.2f} >= 3*IQR(p0=3)={3*results[3.0]['iqr']:.2f}: {broad_ok}; "
        f"elapsed {elapsed:.0f}s < 300s",
    )


def test_criterion_9_gaussian_moments():
    worst = {"mean_p": 0.0, "mean_x": 0.0, "spread_p": 0.0, "spread_x": 0.0}
    for p0, x0 in ((3.0, -7.0), (0.0, 0.0), (-1.5, 2.0)):
        m = gaussian_state(p0, x0, K).moments()
        worst["mean_p"] = max(worst["mean_p"], abs(m["mean_p"] - p0))
        worst["mean_x"] = max(worst["mean_x"], abs(m["mean_x"] - x0))
        worst["spread_p"] = max(worst["spread_p"], abs(m["spread_p"] - 0.5))
        worst["spread_x"] = max(worst["spread_x"], abs(m["spread_x"] - 1.0))
    ok = (
        worst["mean_p"] < 1e-8
        and worst["mean_x"] < 1e-8
        and worst["spread_p"] < 1e-6
        and worst["spread_x"] < 1e-6
    )
    report(
        9,
        "Gaussian moments",
        ok,
        f"|<p>-p0|={worst['mean_p']:.1e} < 1e-8, |<x>-x0|={worst['mean_x']:.1e} < 1e-8, "
        f"|Dp-0.5|={worst['spread_p']:.1e} < 1e-6, |Dx-1|={worst['spread_x']:.1e} < 1e-6",
    )


def test_criterion_10_nonrelativistic_limit():
    r = cli.check_nonrel_operator(K, [10.0, 100.0, 1000.0])
    operator_ok = r["t11_scales_as_inverse_c2"] and r["tm11_equals_minus_m0"]
    ratios = r["deviation_ratios"]
    # each decade in c must buy about two orders of magnitude
    rate_ok = all(30.0 < q < 300.0 for q in ratios)
    ok = operator_ok and r["decreasing"] and rate_ok
    report(
        10,
        "non-relativistic limit",
        ok,
        f"T[1,1] coeff * c^2 constant and T[-1,1] coeff = -m0 exactly: {operator_ok}; "
        f"deviations {['%.2e' % d for d in r['eigenfunction_deviation']]} decreasing with ratios "
        f"{['%.0f' % q for q in ratios]} ~ 100 per decade: {r['decreasing'] and rate_ok}",
    )
