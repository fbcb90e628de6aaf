import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtoa import spectral, toa
from rtoa.core import ChargeSign, PhysConstants, energy, inner_product_phi, momentum_grid, trapezoid_weights
from rtoa.spectral import Parity, apply_even_toa, eigen_amplitude_modulus
from rtoa.toa import (
    GaussianState,
    ToaDistribution,
    classical_references,
    classical_time,
    default_tau_range,
    gaussian_state,
    most_probable_tau,
    photon_time,
    toa_distribution,
)

from conftest import bump, constants, phi_field

K = PhysConstants()


class TestGaussianState:
    def test_normalized_on_default_grid(self):
        m = gaussian_state(3.0, -7.0, K).moments()
        assert m["norm"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("p0,x0", [(0.0, 0.0), (3.0, -7.0), (-2.0, 4.0)])
    def test_moments(self, p0, x0):
        m = gaussian_state(p0, x0, K).moments()
        assert m["mean_p"] == pytest.approx(p0, abs=1e-8)
        assert m["mean_x"] == pytest.approx(x0, abs=1e-8)
        assert m["spread_p"] == pytest.approx(0.5, abs=1e-6)
        assert m["spread_x"] == pytest.approx(1.0, abs=1e-6)

    def test_spreads_scale_with_constants(self):
        k = PhysConstants(hbar=2.0, c=1.0, m0=4.0)
        m = gaussian_state(1.0, 0.5, k).moments()
        assert m["spread_p"] == pytest.approx(k.momentum_scale / 2.0, abs=1e-6)
        assert m["spread_x"] == pytest.approx(k.hbar / k.momentum_scale, abs=1e-6)

    def test_default_grid_straddles_zero(self):
        g = gaussian_state(2.0, 0.0, K).default_grid()
        assert np.min(np.abs(g)) > 1e-10
        assert g.size == 4097

    @pytest.mark.parametrize("p0", [1e200, -1e17, 1e14])
    def test_default_grid_refuses_a_p0_it_cannot_resolve(self, p0):
        # the p0 +- 4 m0 c samples round onto each other
        with pytest.raises(ValueError, match=re.escape(f"p0 = {p0:g} ") + ".* half-width 4"):
            gaussian_state(p0, -7.0, K).default_grid()


def point_overlap(state, branch, tau, lam=ChargeSign.POSITIVE):
    """Overlap of a sampled state with the eigenfunction (lam, branch, tau),
    without its rest phase exp(-i lam tau m0 c^2 / hbar)."""
    nonnodal, nodal = toa._branch_amplitudes(state, lam, float(tau), 0.0, 1, K)
    return complex((nodal if branch.is_nodal else nonnodal)[0])


class TestOverlap:
    def test_even_state_odd_branch_parity_zero(self):
        grid = np.linspace(-8.0, 8.0, 4096)  # symmetric, no zero node
        state = GaussianState(0.0, 0.0, K)
        f = state.field(grid)
        v = point_overlap(f, Parity.NODAL, 0.0)
        assert abs(v) < 1e-13

    def test_truncation_flagged(self):
        state = gaussian_state(3.0, -7.0, K)
        narrow = state.field(np.linspace(2.0, 4.0, 501))
        with pytest.raises(ValueError, match="has not decayed below 1e-12"):
            point_overlap(narrow, Parity.NONNODAL, 1.0)

    def test_overlap_peaks_near_classical_time(self):
        state = gaussian_state(3.0, -7.0, K)
        f = state.field()
        t_cl = classical_time(3.0, -7.0, K)
        taus = np.linspace(t_cl - 3.0, t_cl + 3.0, 121)
        mags = [
            abs(point_overlap(f, Parity.NONNODAL, float(t))) ** 2
            + abs(point_overlap(f, Parity.NODAL, float(t))) ** 2
            for t in taus
        ]
        peak_tau = taus[int(np.argmax(mags))]
        assert abs(peak_tau - t_cl) < 0.15


class TestReferences:
    def test_frozen_example(self):
        t_cl, t_ph = classical_references(3.0, -7.0, K)
        assert t_cl == pytest.approx(7.3786478737262184413, abs=1e-12)
        assert t_ph == 7.0

    def test_origin_start(self):
        assert classical_references(2.0, 0.0, K) == (0.0, 0.0)

    def test_ultrarelativistic_ratio(self):
        t_cl, t_ph = classical_references(1e6, -7.0, K)
        assert t_cl / t_ph == pytest.approx(1.0, abs=1e-9)

    def test_zero_momentum_carries_photon_time(self):
        assert classical_references(0.0, -7.0, K) == (None, 7.0)

    def test_photon_follows_direction_of_motion(self):
        t_cl, t_ph = classical_references(-3.0, 7.0, K)
        assert t_cl == pytest.approx(7.3786478737262184413, abs=1e-12)
        assert t_ph == 7.0

    @pytest.mark.parametrize("p0", [1e8, -1e8])
    @pytest.mark.parametrize("x0", [-7.0, 7.0])
    def test_photon_time_is_ultrarelativistic_limit(self, p0, x0):
        assert classical_time(p0, x0, K) == pytest.approx(photon_time(p0, x0, K), rel=1e-12)

    @pytest.mark.parametrize("p0", [1e-320, -1e-320])
    def test_overflowing_classical_time_refused(self, p0):
        # -x0 sqrt(p0^2 + m0^2 c^2) / (p0 c) overflows to inf
        for call in (classical_time, classical_references):
            with pytest.raises(ValueError, match="classical arrival time .* is not finite"):
                call(p0, -7.0, K)

    @pytest.mark.parametrize("p0", [1e200, -1e200])
    def test_huge_momentum_gives_the_photon_time(self, p0):
        # p0^2 overflows, |p0| sqrt(1 + (m0 c / p0)^2) does not
        x0 = -7.0 if p0 > 0.0 else 7.0
        assert classical_time(p0, x0, K) == photon_time(p0, x0, K) == 7.0
        lo, hi = default_tau_range(p0, x0, K)
        assert math.isfinite(lo) and math.isfinite(hi) and lo < 7.0 < hi

    def test_photon_time_at_rest_is_the_distance(self):
        assert photon_time(0.0, 7.0, K) == photon_time(0.0, -7.0, K) == 7.0

    def test_constants_enter(self):
        k = PhysConstants(hbar=1.0, c=2.0, m0=0.5)
        t_cl, t_ph = classical_references(1.0, -6.0, k)
        assert t_ph == 3.0
        assert t_cl == pytest.approx(6.0 * math.sqrt(1.0 + 1.0) / 2.0)


class TestDistribution:
    def test_nonnegative_and_split(self):
        d = toa_distribution(gaussian_state(3.0, -7.0, K).field(), default_tau_range(3.0, -7.0, K), 301, K)
        assert np.all(d.pi_values >= 0.0)
        assert d.pi_values == pytest.approx(d.pi_nonnodal + d.pi_nodal)

    def test_split_validates(self):
        with pytest.raises(ValueError):
            ToaDistribution(
                np.array([0.0, 1.0]),
                np.array([1.0, -0.5]),
                np.array([1.0, 0.0]),
                np.array([0.0, -0.5]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ToaDistribution(np.array([0.0, 1.0]), np.array([1.0, bad]), np.array([1.0, bad]), np.zeros(2))

    @pytest.mark.parametrize("window", [(-1e308, 1e308), (-5e307, 5e307)])
    def test_window_too_wide_for_finite_phases_refused(self, window):
        # the first width overflows; the second is finite, but its phases are not
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
            toa_distribution(gaussian_state(3.0, -7.0, K).field(), window, 11, K)

    @pytest.mark.parametrize("window", [(10.0, 5.0), (5.0, 5.0), (math.nan, 5.0)])
    def test_window_that_does_not_increase_refused(self, window):
        with pytest.raises(ValueError, match="tau window must increase"):
            toa_distribution(gaussian_state(3.0, -7.0, K).field(), window, 11, K)

    def test_most_probable_above_photon_time(self):
        d = toa_distribution(gaussian_state(3.0, -7.0, K).field(), default_tau_range(3.0, -7.0, K), 801, K)
        assert most_probable_tau(d) > photon_time(3.0, -7.0, K)

    def test_symmetric_state_symmetric_distribution(self):
        d = toa_distribution(gaussian_state(0.0, 0.0, K).field(), (-8.0, 8.0), 321, K)
        assert np.allclose(d.pi_values, d.pi_values[::-1], rtol=1e-6, atol=1e-10)

    def test_boundary_maximum_flagged(self):
        d = toa_distribution(gaussian_state(3.0, -7.0, K).field(), (0.0, 5.0), 101, K)
        assert most_probable_tau(d) is None  # peak sits near 7.4, outside the window

    def test_single_sample(self):
        d = ToaDistribution(np.array([2.5]), np.array([1.0]), np.array([0.6]), np.array([0.4]))
        assert most_probable_tau(d) == 2.5

    def test_sampled_state_entry_point(self):
        state = gaussian_state(3.0, -7.0, K)
        d = toa_distribution(state.field(), (5.0, 10.0), 201, K)
        assert d.pi_values.max() > 0.0

    def test_sampled_state_with_both_charge_blocks_refused(self):
        field = gaussian_state(3.0, -7.0, K).field()
        mixed = phi_field(field.grid, field.upper, field.upper)
        with pytest.raises(ValueError, match="both charge blocks"):
            toa_distribution(mixed, (5.0, 10.0), 201, K)

    def test_default_range_covers_peak(self):
        lo, hi = default_tau_range(3.0, -7.0, K)
        assert lo < 7.0 < 7.44 < hi


def _on_block(field, lam):
    """The field's upper-block amplitude, placed on block ``lam``."""
    zeros = np.zeros_like(field.upper)
    up, lo = (field.upper, zeros) if lam is ChargeSign.POSITIVE else (zeros, field.upper)
    return phi_field(field.grid, up, lo)


def _close(a, b, rel):
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


momenta = st.floats(0.3, 4.0) | st.floats(-4.0, -0.3)
positions = st.floats(-8.0, 8.0)


class TestDistributionSymmetries:
    @settings(max_examples=10, deadline=None)
    @given(p0=momenta, x0=positions, t=st.floats(-3.0, 3.0), lam=st.sampled_from(ChargeSign))
    def test_time_translation_shifts_pi(self, p0, x0, t, lam):
        # evolving by t (exp(-i lam E_p t / hbar) on block lam) moves every
        # arrival t earlier: Pi_t(tau - t) = Pi_0(tau)
        f = _on_block(GaussianState(p0, x0, K).field(), lam)
        phase = np.exp(-1j * int(lam) * energy(f.grid, K) * t / K.hbar)
        evolved = f.with_components(f.upper * phase, f.lower * phase)
        lo, hi = default_tau_range(p0, x0, K)
        d0 = toa_distribution(f, (lo, hi), 201, K)
        dt = toa_distribution(evolved, (lo - t, hi - t), 201, K)
        assert _close(dt.pi_values, d0.pi_values, 1e-10)

    @settings(max_examples=10, deadline=None)
    @given(p0=momenta | st.just(0.0), x0=positions)
    @example(p0=3.0, x0=-7.0)  # p = 0 falls on a node of the unshifted grid
    def test_mirror_state_has_the_same_distribution(self, p0, x0):
        a, b = GaussianState(p0, x0, K), GaussianState(-p0, -x0, K)
        assert photon_time(p0, x0, K) == photon_time(-p0, -x0, K)
        if p0 != 0.0:
            assert classical_time(p0, x0, K) == classical_time(-p0, -x0, K)
        window = default_tau_range(p0, x0, K)
        assert window == default_tau_range(-p0, -x0, K)
        # on mirrored momentum grids the two amplitudes are the same samples
        grid = a.default_grid()
        da = toa_distribution(a.field(grid), window, 201, K)
        db = toa_distribution(b.field(-grid[::-1]), window, 201, K)
        assert _close(db.pi_values, da.pi_values, 1e-12)
        # each on its own default grid: mirror images for p0 != 0; at
        # p0 = 0 an odd point count cannot be mirror-symmetric, so the
        # sqrt(|p|) cusp is sampled differently
        da, db = toa_distribution(a.field(), window, 201, K), toa_distribution(b.field(), window, 201, K)
        assert np.array_equal(da.tau_samples, db.tau_samples)
        assert _close(db.pi_values, da.pi_values, 1e-12 if p0 != 0.0 else 1e-8)

    @settings(max_examples=10, deadline=None)
    @given(p0=momenta, x0=positions)
    def test_charge_independence(self, p0, x0):
        # the lower block evolves with the opposite phase, so the same
        # packet has the complex-conjugate amplitude there
        f = GaussianState(p0, x0, K).field()
        conjugate = phi_field(f.grid, np.zeros_like(f.upper), f.upper.conj())
        window = (-30.0, 30.0)
        upper = toa_distribution(f, window, 201, K)
        lower = toa_distribution(conjugate, window, 201, K)
        assert _close(lower.pi_values, upper.pi_values, 1e-12)
        # the unconjugated amplitude arrives time-reversed
        same = toa_distribution(_on_block(f, ChargeSign.NEGATIVE), window, 201, K)
        assert _close(same.pi_values, upper.pi_values[::-1], 1e-12)


def _direct_amplitudes(field, lam, taus):
    """(nonnodal, nodal, sum |base|): the overlap sums with one exp of
    tau E_p per (tau, p) pair, 256 taus at a time, then the rest phase
    taken out per tau as _branch_amplitudes leaves it out."""
    grid = field.grid
    amp = field.upper if lam is ChargeSign.POSITIVE else field.lower
    e = energy(grid, K)
    base = trapezoid_weights(grid) * np.conj(amp) * eigen_amplitude_modulus(grid, e, K)
    columns = np.stack([base, base * np.sign(grid)], axis=1)
    out = np.concatenate([
        np.exp((1j * int(lam) / K.hbar) * np.outer(chunk, e)) @ columns
        for chunk in np.array_split(taus, max(1, taus.size // 256))
    ])
    out *= np.exp((-1j * int(lam) * K.rest_energy / K.hbar) * taus)[:, None]
    return out[:, 0], out[:, 1], float(np.sum(np.abs(base)))


class TestPhaseRecurrence:
    # edges of the square-root split j = s isqrt(n) + i: n below 4 (one-row
    # blocks), around and at a square, and the CLI's default n_tau
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 2001, 2025])
    @settings(max_examples=4, deadline=None)
    @given(p0=momenta, x0=positions, lo=st.floats(-80.0, 80.0), width=st.floats(0.01, 80.0),
           lam=st.sampled_from(ChargeSign))
    @example(p0=-3.0, x0=7.0, lo=-80.0, width=80.0, lam=ChargeSign.NEGATIVE)  # window below 0
    @example(p0=0.3, x0=-7.0, lo=-40.0, width=80.0, lam=ChargeSign.POSITIVE)  # window across 0
    def test_recurrence_equals_direct_sum(self, n, p0, x0, lo, width, lam):
        # a coarser momentum grid than the default keeps the direct sum cheap
        grid = momentum_grid(p0 - 4.0, p0 + 4.0, 1025)
        f = _on_block(GaussianState(p0, x0, K).field(grid), lam)
        step = width / max(n - 1, 1)
        nonnodal, nodal = toa._branch_amplitudes(f, lam, lo, step, n, K)
        want_nonnodal, want_nodal, scale = _direct_amplitudes(f, lam, lo + step * np.arange(n))
        assert np.max(np.abs(nonnodal - want_nonnodal)) <= 1e-12 * scale
        assert np.max(np.abs(nodal - want_nodal)) <= 1e-12 * scale

    @settings(max_examples=10, deadline=None)
    @given(p0=momenta, x0=positions, tau=st.floats(-80.0, 80.0), lam=st.sampled_from(ChargeSign))
    def test_one_tau_overlap_equals_direct_sum(self, p0, x0, tau, lam):
        f = _on_block(GaussianState(p0, x0, K).field(), lam)
        want_nonnodal, want_nodal, scale = _direct_amplitudes(f, lam, np.array([tau]))
        got_nonnodal = point_overlap(f, Parity.NONNODAL, tau, lam)
        got_nodal = point_overlap(f, Parity.NODAL, tau, lam)
        assert abs(got_nonnodal - want_nonnodal[0]) <= 1e-12 * scale
        assert abs(got_nodal - want_nodal[0]) <= 1e-12 * scale

    def test_completeness_projects_with_the_same_sums(self, monkeypatch):
        # completeness_check's projections are the conjugated sums of the
        # one routine Pi(tau) uses, so at t = 0 they equal the overlaps
        f = GaussianState(3.0, 0.0, K).field(np.linspace(-2.0, 8.0, 1025))
        seen, amplitude_sums = [], spectral.amplitude_sums

        def recording(*args):
            halves = amplitude_sums(*args)
            seen.append([sums.ravel()[:501].copy() for *_, sums in halves])
            return halves

        monkeypatch.setattr(spectral, "amplitude_sums", recording)
        spectral.completeness_check(f, 25.0, 0.1, K)
        [(neg, pos)] = seen  # the lower block is empty, so one call
        nonnodal, nodal = toa._branch_amplitudes(f, ChargeSign.POSITIVE, -25.0, 0.1, 501, K)
        assert (pos + neg).tobytes() == nonnodal.tobytes()
        assert (pos - neg).tobytes() == nodal.tobytes()


class TestCovariance:
    # p0 in units of m0 c and x0 in units of hbar / (m0 c): Pi is a density
    # in tau, so it scales with the time unit hbar / (m0 c^2)
    @settings(max_examples=6, deadline=None)
    @given(k=constants, p0=momenta, x0=positions)
    @example(k=PhysConstants(hbar=2.0, c=1.0, m0=1.0), p0=3.0, x0=-7.0)
    @example(k=PhysConstants(hbar=1.0, c=3.0, m0=1.0), p0=3.0, x0=-7.0)
    @example(k=PhysConstants(hbar=0.7, c=1.3, m0=0.5), p0=-0.3, x0=8.0)
    def test_pi_scales_with_the_natural_time_unit(self, k, p0, x0):
        unit = k.hbar / k.rest_energy
        lo, hi = default_tau_range(p0, x0, K)
        d1 = toa_distribution(GaussianState(p0, x0, K).field(), (lo, hi), 401, K)
        state = GaussianState(p0 * k.momentum_scale, x0 * k.hbar / k.momentum_scale, k)
        dk = toa_distribution(state.field(), (lo * unit, hi * unit), 401, k)
        assert _close(dk.pi_values * unit, d1.pi_values, 1e-13)


class TestParabolicRefinement:
    def test_recovers_offgrid_vertex(self):
        taus = np.linspace(0.0, 4.0, 41)
        vals = -((taus - 1.717) ** 2) + 3.0
        d = ToaDistribution(taus, vals - vals.min(), vals - vals.min(), np.zeros_like(vals))
        assert most_probable_tau(d) == pytest.approx(1.717, abs=1e-12)


# The benchmark's operator-checks jitter ranges for the criterion-2 bump
# states: wave numbers 3, 1, -2 and weights 0.5, 0.2, each +- 10%.
bump_coefficients = st.fixed_dictionaries({
    "k1": st.floats(2.7, 3.3),
    "a1": st.floats(0.45, 0.55),
    "k2": st.floats(0.9, 1.1),
    "k3": st.floats(-2.2, -1.8),
    "a3": st.floats(0.18, 0.22),
})


def _bump_blocks(k, c):
    """The nonzero charge blocks of the criterion-2 states, each alone:
    u = p / (m0 c) on linspace(0.4, 5.1, 4097), support (0.45, 5.05)."""
    m = k.momentum_scale
    u = np.linspace(0.4, 5.1, 4097)
    b = bump(u, 0.45, 5.05)
    upper = (b, b * np.exp(1j * c["k1"] * u), b * u * np.exp(1j * c["k3"] * u))
    lower = (c["a1"] * b * np.exp(1j * c["k2"] * u), c["a3"] * b)
    return [phi_field(m * u, f) for f in upper] + [phi_field(m * u, 0.0 * f, f) for f in lower]


class TestMoments:
    """Pi(tau) is the probability measure of T: its mass, mean and second
    moment are <psi, psi>, <psi, T psi> and <T psi, T psi> (sigma3-weighted,
    signed by the charge block).  The mean is set against the
    Cauchy-Schwarz scale sqrt(|<psi, psi>| <T psi, T psi>), since the real
    bump has <psi, T psi> = 0.  Over 40 drawn examples the largest
    deviations were 6.5e-15, 1.1e-11 and 1.0e-10; the bounds are about 10x
    those."""

    @settings(max_examples=8, deadline=None)
    @given(k=constants, c=bump_coefficients)
    @example(k=K, c={"k1": 3.0, "a1": 0.5, "k2": 1.0, "k3": -2.0, "a3": 0.2})
    def test_moments_of_pi_are_those_of_the_operator(self, k, c):
        unit = k.hbar / k.rest_energy
        for f in _bump_blocks(k, c):
            d = toa_distribution(f, (-200.0 * unit, 200.0 * unit), 20001, k)
            w = trapezoid_weights(d.tau_samples) * d.pi_values
            tau = d.tau_samples
            tf = apply_even_toa(f, k)
            norm = inner_product_phi(f, f).real
            mean = math.copysign(1.0, norm) * inner_product_phi(f, tf).real
            square = abs(inner_product_phi(tf, tf))
            assert abs(np.sum(w) - abs(norm)) <= 1e-13 * abs(norm)
            assert abs(np.sum(w * tau) - mean) <= 1e-10 * math.sqrt(abs(norm) * square)
            assert abs(np.sum(w * tau * tau) - square) <= 1e-9 * square
