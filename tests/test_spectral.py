"""Eigenfunctions, the one-particle operator, overlaps, completeness,
and the non-relativistic limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtoa.core import ChargeSign, PhysConstants, energy, inner_product_phi, trapezoid_weights
from rtoa.errors import DivergentOverlapError, SingularPointError
from rtoa.quadrature import QuadratureConfig
from rtoa.spectral import (
    EigenSpec,
    Parity,
    apply_even_toa,
    apply_hamiltonian,
    completeness_check,
    differentiate,
    eigen_amplitude_modulus,
    eigenfunction_field,
    eigenfunction_momentum,
    eigenfunction_scalar,
    even_toa_coefficients,
    nonrel_limit_check,
    overlap,
    overlap_numeric,
)
from rtoa.toa import gaussian_state

from conftest import bump, phi_field

K = PhysConstants()
POS = ChargeSign.POSITIVE
NEG = ChargeSign.NEGATIVE


class TestEigenfunctions:
    def test_vanishes_at_zero_momentum(self):
        for parity in Parity:
            up, lo = eigenfunction_momentum(EigenSpec(POS, parity, 1.3), 0.7, 0.0, K)
            assert up == 0.0 and lo == 0.0

    def test_frozen_value_at_unit_momentum(self):
        # 30-digit evaluation of sqrt(1/4pi) * 2^(-1/4)
        expect = 0.23721249916439717268
        up, lo = eigenfunction_momentum(
            EigenSpec(POS, Parity.NONNODAL, 0.8), 0.8, 1.0, K
        )
        assert up == pytest.approx(expect, abs=1e-15)
        assert up.imag == 0.0
        assert lo == 0.0

    def test_charge_block_is_exactly_zero(self):
        grid = np.linspace(-3, 3, 101)
        up, lo = eigenfunction_momentum(EigenSpec(NEG, Parity.NONNODAL, 0.5), 0.0, grid, K)
        assert np.all(up == 0.0)
        assert np.any(lo != 0.0)

    def test_nodal_branch_is_odd(self):
        grid = np.linspace(0.1, 4.0, 50)
        s = EigenSpec(POS, Parity.NODAL, 0.9)
        plus = eigenfunction_scalar(s, 0.3, grid, K)
        minus = eigenfunction_scalar(s, 0.3, -grid[::-1], K)[::-1]
        assert np.allclose(plus, -minus, rtol=0, atol=1e-15)

    def test_nonnodal_branch_is_even(self):
        grid = np.linspace(0.1, 4.0, 50)
        s = EigenSpec(POS, Parity.NONNODAL, 0.9)
        plus = eigenfunction_scalar(s, 0.3, grid, K)
        minus = eigenfunction_scalar(s, 0.3, -grid[::-1], K)[::-1]
        assert np.allclose(plus, minus, rtol=0, atol=1e-15)

    def test_time_evolution_is_a_phase(self):
        grid = np.linspace(0.2, 3.0, 40)
        s = EigenSpec(POS, Parity.NONNODAL, 0.4)
        f0 = eigenfunction_scalar(s, 0.0, grid, K)
        ft = eigenfunction_scalar(s, 1.1, grid, K)
        assert np.allclose(np.abs(f0), np.abs(ft), rtol=1e-14)


class TestDifferentiate:
    def test_fourth_order_on_uniform_grid(self):
        errs = []
        for n in (101, 201):
            grid = np.linspace(0.0, 2.0, n)
            d = differentiate(grid, np.sin(3.0 * grid))
            errs.append(np.max(np.abs(d - 3.0 * np.cos(3.0 * grid))))
        assert errs[0] / errs[1] > 12.0  # ~2^4

    def test_nonuniform_grid(self):
        grid = np.sort(np.concatenate([np.linspace(0, 1, 40), np.linspace(1.01, 2, 37)]))
        d = differentiate(grid, grid**4)
        assert np.allclose(d, 4.0 * grid**3, atol=1e-9)


class TestEvenOperator:
    def test_zero_in_zero_out(self):
        grid = np.linspace(0.5, 5.0, 64)
        f = phi_field(grid, np.zeros(64))
        out = apply_even_toa(f, K)
        assert np.all(out.upper == 0.0) and np.all(out.lower == 0.0)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_eigenrelation_positive_window(self, parity, tau):
        grid = np.linspace(0.5, 5.0, 4097)
        f = eigenfunction_field(EigenSpec(POS, parity, tau), 0.0, grid, K)
        Tf = apply_even_toa(f, K)
        inner = slice(2, -2)
        rel = np.linalg.norm(Tf.upper[inner] - tau * f.upper[inner]) / np.linalg.norm(
            f.upper[inner]
        )
        assert rel < 1e-4

    def test_eigenrelation_negative_window_and_lower_block(self):
        grid = np.linspace(-5.0, -0.5, 2049)
        tau = 1.5
        f = eigenfunction_field(EigenSpec(NEG, Parity.NODAL, tau), 0.0, grid, K)
        Tf = apply_even_toa(f, K)
        inner = slice(2, -2)
        rel = np.linalg.norm(Tf.lower[inner] - tau * f.lower[inner]) / np.linalg.norm(
            f.lower[inner]
        )
        assert rel < 1e-6

    def test_refinement_order_at_least_cubic(self):
        def resid(n):
            grid = np.linspace(0.5, 5.0, n)
            f = eigenfunction_field(EigenSpec(POS, Parity.NONNODAL, 2.0), 0.0, grid, K)
            Tf = apply_even_toa(f, K)
            inner = slice(2, -2)
            return np.linalg.norm(Tf.upper[inner] - 2.0 * f.upper[inner]) / np.linalg.norm(
                f.upper[inner]
            )

        r1, r2 = resid(513), resid(1025)
        assert math.log2(r1 / r2) >= 3.0

    def test_singular_point_rejected(self):
        grid = np.linspace(-1.0, 1.0, 101)  # contains p = 0 exactly
        f = phi_field(grid, np.exp(-(grid**2)))
        with pytest.raises(SingularPointError):
            apply_even_toa(f, K)

    def test_vanishing_field_near_zero_is_allowed(self):
        grid = np.linspace(-1.0, 1.0, 101)
        amp = bump(grid, 0.3, 0.9)
        f = phi_field(grid, amp)
        out = apply_even_toa(f, K)  # p = 0 is a node, where the field vanishes
        assert np.all(np.isfinite(out.upper))
        assert np.all(out.upper[np.abs(grid) <= 0.05] == 0.0)

    def test_commutator_with_hamiltonian(self):
        grid = np.linspace(0.4, 5.1, 4097)
        amp = bump(grid, 0.5, 5.0) * np.exp(2j * grid)
        f = phi_field(grid, amp, 0.5 * amp)
        HT = apply_hamiltonian(apply_even_toa(f, K), K)
        TH = apply_even_toa(apply_hamiltonian(f, K), K)
        inner = slice(2, -2)
        for comm, base in ((HT.upper - TH.upper, f.upper), (HT.lower - TH.lower, f.lower)):
            rel = np.linalg.norm(comm[inner] - 1j * K.hbar * base[inner]) / np.linalg.norm(
                base[inner]
            )
            assert rel < 1e-4

    def test_symmetry_expectation_nearly_real(self):
        grid = np.linspace(0.4, 5.1, 4097)
        b = bump(grid, 0.5, 5.0)
        f = phi_field(grid, b * np.exp(2j * grid), b * (grid - 2.0) * np.exp(-1j * grid))
        v = inner_product_phi(f, apply_even_toa(f, K))
        assert abs(v.imag) / abs(v) < 1e-6

    def test_symmetry_two_state_form(self):
        grid = np.linspace(0.4, 5.1, 4097)
        b = bump(grid, 0.5, 5.0)
        fa = phi_field(grid, b * np.exp(1j * grid), 0.3 * b)
        fb = phi_field(grid, b * grid, b * np.exp(-2j * grid))
        lhs = inner_product_phi(fa, apply_even_toa(fb, K))
        rhs = inner_product_phi(apply_even_toa(fa, K), fb)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_coefficient_limits(self):
        p = np.array([1.0])
        firsts, seconds = [], []
        for c in (10.0, 100.0, 1000.0):
            kc = PhysConstants(c=c)
            f, s = even_toa_coefficients(p, kc)
            firsts.append(f[0])
            seconds.append(s[0])
        # first coefficient falls off as 1/c^2, second tends to -m0
        assert firsts[0] / firsts[1] == pytest.approx(100.0, rel=1e-2)
        assert seconds[-1] == pytest.approx(-1.0, abs=1e-5)


class TestOverlap:
    def test_cross_charge_exact_zero(self):
        r = overlap(EigenSpec(POS, Parity.NONNODAL, 1.0), EigenSpec(NEG, Parity.NONNODAL, 0.0), K)
        assert r.distributional_part == 0.0 and r.regular_part == 0.0
        assert (
            overlap_numeric(
                EigenSpec(POS, Parity.NONNODAL, 1.0), EigenSpec(NEG, Parity.NONNODAL, 0.0), K
            )
            == 0.0
        )

    def test_cross_parity_exact_zero(self):
        r = overlap(EigenSpec(POS, Parity.NONNODAL, 1.0), EigenSpec(POS, Parity.NODAL, 0.0), K)
        assert r.distributional_part == 0.0 and r.regular_part == 0.0

    def test_delta_coefficient_sign(self):
        assert overlap(EigenSpec(POS, Parity.NODAL, 1.0), EigenSpec(POS, Parity.NODAL, 1.0), K).distributional_part == 0.5
        assert overlap(EigenSpec(NEG, Parity.NODAL, 1.0), EigenSpec(NEG, Parity.NODAL, 1.0), K).distributional_part == -0.5

    def test_closed_form_magnitude(self):
        # |regular| = 1 / (2 pi |dt|), frozen example at dt = 1
        r = overlap(EigenSpec(POS, Parity.NONNODAL, 1.0), EigenSpec(POS, Parity.NONNODAL, 0.0), K)
        assert abs(r.regular_part) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
        assert r.regular_part == pytest.approx(1j * np.exp(1j) / (2.0 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("lam", [POS, NEG])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0, 5.0])
    def test_numeric_matches_closed_form(self, lam, dt):
        s1 = EigenSpec(lam, Parity.NODAL, dt)
        s2 = EigenSpec(lam, Parity.NODAL, 0.0)
        ana = overlap(s1, s2, K).regular_part
        num = overlap_numeric(s1, s2, K)
        assert abs(num - ana) / abs(ana) < 1e-3

    def test_numeric_rejects_equal_times(self):
        s = EigenSpec(POS, Parity.NONNODAL, 1.0)
        with pytest.raises(DivergentOverlapError):
            overlap_numeric(s, s, K)

    def test_nonunit_constants(self):
        k = PhysConstants(hbar=0.7, c=1.3, m0=0.9)
        s1 = EigenSpec(POS, Parity.NONNODAL, 1.0)
        s2 = EigenSpec(POS, Parity.NONNODAL, 0.0)
        ana = overlap(s1, s2, k).regular_part
        num = overlap_numeric(s1, s2, k)
        assert abs(num - ana) / abs(ana) < 1e-3


def completeness_by_tau_sum(f, tau_window, tau_step, k, t=0.0):
    """Reference for completeness_check: project onto every eigenfunction
    on the trapezoid tau grid and resum, term by term."""
    grid = f.grid
    wp = trapezoid_weights(grid)
    taus = np.linspace(-tau_window, tau_window, int(round(2.0 * tau_window / tau_step)) + 1)
    wt = trapezoid_weights(taus)
    e = energy(grid, k)
    mod = eigen_amplitude_modulus(grid, e, k)
    num = den = 0.0
    for lam, component in ((1, f.upper), (-1, f.lower)):
        rec = np.zeros(grid.size, dtype=complex)
        for parity_factor in (1.0, np.sign(grid)):
            basis = (mod * parity_factor)[:, None] * np.exp(
                (-1j * lam / k.hbar) * np.outer(e, t - taus)
            )
            rec += basis @ (wt * (basis.conj().T @ (wp * component)))
        num += np.sum(wp * np.abs(rec - component) ** 2)
        den += np.sum(wp * np.abs(component) ** 2)
    return math.sqrt(num / den)


class TestCompleteness:
    @settings(max_examples=20, deadline=None)
    @given(
        tau_window=st.floats(2.0, 12.0),
        tau_step=st.floats(0.04, 0.4),
        t=st.floats(-2.0, 2.0),
        p0=st.floats(-2.0, 3.0),
        blocks=st.sampled_from(["upper", "lower", "both"]),
        symmetric=st.booleans(),
        k=st.sampled_from([K, PhysConstants(hbar=0.7, c=1.3, m0=0.9)]),
    )
    def test_closed_form_matches_tau_sum(self, tau_window, tau_step, t, p0, blocks, symmetric, k):
        if symmetric:
            # p and -p on the grid: off-diagonal E_p = E_p' pairs
            half = np.linspace(0.01, 6.0, 128)
            grid = np.concatenate([-half[::-1], half])
            e = energy(grid, k)
            assert np.count_nonzero(np.equal.outer(e, e)) == 2 * grid.size
        else:
            grid = np.linspace(p0 - 4.0, p0 + 4.0, 257)
        amp = np.exp(-((grid - p0) ** 2) + 1.5j * grid)
        upper = amp if blocks != "lower" else 0.0 * amp
        lower = 0.5 * amp.conj() * grid if blocks != "upper" else 0.0 * amp
        f = phi_field(grid, upper, lower)
        got = completeness_check(f, tau_window, tau_step, k, t=t)
        want = completeness_by_tau_sum(f, tau_window, tau_step, k, t)
        assert got == pytest.approx(want, rel=1e-11)

    def test_error_small_and_decreasing(self):
        f = gaussian_state(3.0, 0.0, K).field(np.linspace(-2.0, 8.0, 2049))
        e1 = completeness_check(f, 25.0, 0.1, K)
        e2 = completeness_check(f, 50.0, 0.05, K)
        assert e2 < e1
        assert e2 < 1e-2

    def test_lower_block_state(self):
        grid = np.linspace(-2.0, 8.0, 1025)
        amp = gaussian_state(3.0, 0.0, K).amplitude(grid)
        f = phi_field(grid, np.zeros_like(amp), amp)
        assert completeness_check(f, 25.0, 0.1, K) < 1e-2

    def test_even_state_has_zero_nodal_projections(self):
        # the odd-branch integrand is odd in p for an even test function
        grid = np.linspace(-6.0, 6.0, 1024)  # symmetric, no node at zero
        even = np.exp(-((grid**2 - 4.0) ** 2) / 8.0)
        w = np.gradient(grid)
        for tau in (0.0, 1.0, -2.5):
            eig = eigenfunction_scalar(EigenSpec(POS, Parity.NODAL, tau), 0.0, grid, K)
            proj = np.sum(w * np.conj(eig) * even)
            assert abs(proj) < 1e-12

    def test_at_later_time(self):
        f = gaussian_state(3.0, -1.0, K).field(np.linspace(-2.0, 8.0, 1025))
        assert completeness_check(f, 25.0, 0.1, K, t=0.7) < 1e-2


class TestNonrelLimit:
    def test_deviations_decrease_like_inverse_c_squared(self):
        s = EigenSpec(POS, Parity.NONNODAL, 1.0)
        devs = nonrel_limit_check(s, [0.5, 1.0, 2.0], [10.0, 100.0, 1000.0], K)
        assert devs[0] > devs[1] > devs[2]
        ratios = devs[:-1] / devs[1:]
        assert np.all(ratios > 50.0) and np.all(ratios < 200.0)

    def test_zero_tau_still_converges(self):
        s = EigenSpec(POS, Parity.NONNODAL, 0.0)
        devs = nonrel_limit_check(s, [1.0], [10.0, 100.0, 1000.0], K)
        assert devs[0] > devs[1] > devs[2]

    def test_branches_have_same_deviation(self):
        a = nonrel_limit_check(EigenSpec(POS, Parity.NONNODAL, 1.0), [1.3], [10.0, 100.0], K)
        b = nonrel_limit_check(EigenSpec(POS, Parity.NODAL, 1.0), [1.3], [10.0, 100.0], K)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_zero_momentum(self):
        with pytest.raises(ValueError):
            nonrel_limit_check(EigenSpec(POS, Parity.NONNODAL, 1.0), [0.0], [10.0], K)
