"""Position-space densities: oracle values, symmetries, localization,
and the coupled-representation eigenfunctions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtoa import dynamics, quadrature
from rtoa.core import ChargeSign, PhysConstants
from rtoa.errors import RangeBoundaryError
from rtoa.dynamics import (
    DensityGrid,
    density,
    density_extrapolated,
    density_grid,
    f_integrals,
    localization_report,
    psi_representation_eigenfunction,
)
from rtoa.quadrature import QuadratureConfig
from rtoa.spectral import EigenSpec, Parity

from conftest import constants

K = PhysConstants()
Q = QuadratureConfig()
POS = ChargeSign.POSITIVE
NEG = ChargeSign.NEGATIVE


class TestFIntegrals:
    def test_nodal_zero_at_origin(self):
        assert f_integrals(Parity.NODAL, 0.5, 0.0, 0.9, K, Q) == (0.0, 0.0)

    def test_f2_vanishes_at_t_equals_tau(self):
        f1, f2 = f_integrals(Parity.NONNODAL, 0.5, 0.0, 0.5, K, Q)
        assert f2 == 0.0
        assert f1 > 0.0

    def test_frozen_peak_value(self):
        # 30-digit quadrature of the x = 0, t = tau damped integral
        f1, _ = f_integrals(Parity.NONNODAL, 0.5, 0.0, 0.5, K, Q)
        assert f1 == pytest.approx(2.8922166947883909296, abs=1e-9)

    def test_frozen_generic_point(self):
        # mpmath, 18 digits, eps = 0.3
        f1, f2 = f_integrals(Parity.NONNODAL, 0.5, 1.3, 0.9, K, Q)
        assert f1 == pytest.approx(-0.0486317891765847345, abs=1e-9)
        assert f2 == pytest.approx(-0.172910696277956551, abs=1e-9)
        f1, f2 = f_integrals(Parity.NODAL, 0.5, 2.0, 0.2, K, Q)
        assert f1 == pytest.approx(0.294031875526587527, abs=1e-9)
        assert f2 == pytest.approx(-0.0615616775014061741, abs=1e-9)

    def test_even_in_x_and_time_offset(self):
        for branch in Parity:
            a = f_integrals(branch, 0.5, 1.7, 1.2, K, Q)
            b = f_integrals(branch, 0.5, -1.7, 1.2, K, Q)
            c = f_integrals(branch, 0.5, 1.7, -0.2, K, Q)
            sign = -1.0 if branch.is_nodal else 1.0
            assert b[0] == pytest.approx(sign * a[0], abs=1e-10)
            assert b[1] == pytest.approx(sign * a[1], abs=1e-10)
            # t -> 2 tau - t flips the sin factor only
            assert c[0] == pytest.approx(a[0], abs=1e-10)
            assert c[1] == pytest.approx(-a[1], abs=1e-10)

    @pytest.mark.parametrize("branch", list(Parity))
    @pytest.mark.parametrize("x, t", [(1.3, 0.9), (0.4, 1.6), (2.5, 0.2), (-0.8, 0.5)])
    def test_matches_quadpack_off_the_light_cone(self, branch, x, t):
        # independent oracle: QUADPACK on the same damped integrands over
        # [0, cutoff], at points with |x| != c |t - tau|
        from scipy.integrate import quad

        tau = 0.5
        a, b = K.momentum_scale * x / K.hbar, K.rest_energy * (t - tau) / K.hbar
        kernel = math.sin if branch.is_nodal else math.cos
        eps = Q.epsilon

        def integrand(qq, time):
            root = math.sqrt(1.0 + qq * qq)
            weight = math.sqrt(qq) / math.sqrt(root) * math.exp(-eps * qq)
            return weight * kernel(a * qq) * time(b * root)

        expect = [
            quad(integrand, 0.0, Q.cutoff(eps), args=(time,), limit=2000, epsabs=1e-13, epsrel=1e-13)[0]
            for time in (math.cos, math.sin)
        ]
        assert f_integrals(branch, tau, x, t, K, Q) == pytest.approx(expect, rel=0, abs=1e-10)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            f_integrals(Parity.NONNODAL, 0.5, 0.0, 0.5, K, Q, epsilon=-0.1)


class TestDensity:
    def test_positive_and_lambda_free(self):
        d = density(Parity.NONNODAL, 0.5, 1.1, 0.8, K, Q)
        assert d >= 0.0
        # charge sign never enters the computation: same call serves both

    def test_nodal_line_exactly_zero(self):
        for t in (0.0, 0.5, 1.0):
            assert density(Parity.NODAL, 0.5, 0.0, t, K, Q) == 0.0

    def test_mirror_symmetry(self):
        a = density(Parity.NODAL, 1.0, 2.3, 0.4, K, Q)
        b = density(Parity.NODAL, 1.0, -2.3, 0.4, K, Q)
        assert a == pytest.approx(b, rel=1e-9)

    def test_time_mirror_about_tau(self):
        a = density(Parity.NONNODAL, 1.0, 0.8, 1.0 + 0.3, K, Q)
        b = density(Parity.NONNODAL, 1.0, 0.8, 1.0 - 0.3, K, Q)
        assert a == pytest.approx(b, rel=1e-9)

    def test_prefactor(self):
        f1, f2 = f_integrals(Parity.NONNODAL, 0.5, 0.7, 0.2, K, Q)
        d = density(Parity.NONNODAL, 0.5, 0.7, 0.2, K, Q)
        assert d == pytest.approx((f1 * f1 + f2 * f2) / (2.0 * math.pi**2), rel=1e-12)

    # x in units of hbar / (m0 c) and t, tau in units of hbar / (m0 c^2): the
    # branch integrals are dimensionless, so only the prefactor scales
    @settings(max_examples=6, deadline=None)
    @given(k=constants, branch=st.sampled_from(Parity))
    @example(k=PhysConstants(hbar=2.0, c=1.0, m0=1.0), branch=Parity.NONNODAL)
    @example(k=PhysConstants(hbar=1.0, c=3.0, m0=1.0), branch=Parity.NODAL)
    @example(k=PhysConstants(hbar=0.7, c=1.3, m0=0.5), branch=Parity.NONNODAL)
    def test_density_scales_with_the_natural_units(self, k, branch):
        length, time = k.hbar / k.momentum_scale, k.hbar / k.rest_energy
        for tau, x, t in ((1.0, 0.3, 1.2), (0.5, -2.0, 0.2), (1.0, 0.7, 3.0)):
            want = k.m0**2 * k.c**3 / k.hbar**2 * density(branch, tau, x, t, K, Q)
            got = density(branch, tau * time, x * length, t * time, k, Q)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_epsilon_ladder_stabilizes_off_the_light_cone(self):
        # The regulated density has no eps -> 0 limit on the light cone
        # |x| = c |t - tau| emanating from the localization point (the
        # peak sharpens without bound), so stabilization is checked away
        # from it: successive ladder differences shrink and the
        # extrapolated value stays within a moderate envelope of the
        # finest rung.
        pts = [(0.0, 1.3), (1.5, 0.8), (2.5, 1.3), (-3.0, 0.6)]
        for x, t in pts:
            ladder = [
                density(Parity.NONNODAL, 0.5, x, t, K, Q, epsilon=e)
                for e in Q.epsilon_ladder
            ]
            d1 = abs(ladder[1] - ladder[0])
            d2 = abs(ladder[2] - ladder[1])
            assert d2 < d1, (x, t, ladder)
            ext = density_extrapolated(Parity.NONNODAL, 0.5, x, t, K, Q)
            scale = max(ladder[2], 1e-3)
            assert abs(ext - ladder[2]) / scale < 0.5

    def test_peak_sharpens_as_regulator_shrinks(self):
        vals = [
            density(Parity.NONNODAL, 0.5, 0.0, 0.5, K, Q, epsilon=e)
            for e in (0.3, 0.15, 0.075)
        ]
        assert vals[0] < vals[1] < vals[2]


class TestDensityGrid:
    def test_shape_order_and_flags(self):
        g = density_grid(Parity.NONNODAL, 0.5, (-2, 2), (0, 1), 9, 5, K, Q)
        assert g.values.shape == (5, 9)
        assert g.x_samples[0] == -2.0 and g.t_samples[-1] == 1.0
        assert g.flagged == ()

    def test_nodal_zero_column(self):
        g = density_grid(Parity.NODAL, 0.5, (-2, 2), (0, 1), 9, 3, K, Q)
        j = int(np.argmin(np.abs(g.x_samples)))
        assert g.x_samples[j] == 0.0
        assert np.all(g.values[:, j] == 0.0)

    def test_mirror_symmetry_across_grid(self):
        g = density_grid(Parity.NONNODAL, 0.5, (-2, 2), (0.2, 0.8), 11, 3, K, Q)
        assert np.allclose(g.values, g.values[:, ::-1], rtol=1e-8, atol=1e-12)

    def test_nonnodal_argmax_at_origin_tau(self):
        g = density_grid(Parity.NONNODAL, 0.5, (-3, 3), (0, 1), 31, 21, K, Q)
        i, j = np.unravel_index(np.argmax(g.values), g.values.shape)
        assert abs(g.t_samples[i] - 0.5) <= (g.t_samples[1] - g.t_samples[0])
        assert abs(g.x_samples[j]) <= (g.x_samples[1] - g.x_samples[0])

    def test_deterministic_repeat_run(self):
        a = density_grid(Parity.NODAL, 0.5, (-1, 1), (0, 1), 7, 3, K, Q)
        b = density_grid(Parity.NODAL, 0.5, (-1, 1), (0, 1), 7, 3, K, Q)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.flagged == b.flagged

    @pytest.mark.parametrize("branch", list(Parity))
    def test_point_densities_equal_grid_cells(self, branch):
        # one code path: the point routines are the 1 x 1 mesh; grid cells
        # share a finer panel tree, so they agree to roundoff, not bitwise
        for extrapolate, point in ((False, density), (True, density_extrapolated)):
            g = density_grid(branch, 0.5, (-1.5, 1.5), (0.1, 0.9), 5, 3, K, Q, extrapolate=extrapolate)
            for i, t in enumerate(g.t_samples):
                for j, x in enumerate(g.x_samples):
                    value = point(branch, 0.5, float(x), float(t), K, Q)
                    assert value == pytest.approx(g.values[i, j], rel=1e-12, abs=0.0)

    @settings(max_examples=12, deadline=None)
    @given(
        branch=st.sampled_from(list(Parity)),
        tau=st.floats(0.2, 1.5),
        x_half=st.floats(0.5, 4.0),
        t_half=st.floats(0.1, 1.5),
        nx=st.integers(2, 7),
        nt=st.integers(2, 5),
    )
    def test_even_in_x_and_time_offset(self, branch, tau, x_half, t_half, nx, nt):
        # on a mesh symmetric about (0, tau), P(x, t) = P(-x, t) = P(x, 2 tau - t)
        g = density_grid(branch, tau, (-x_half, x_half), (tau - t_half, tau + t_half), nx, nt, K, Q)
        np.testing.assert_allclose(g.values, g.values[:, ::-1], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(g.values, g.values[::-1, :], rtol=1e-9, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        branch=st.sampled_from(list(Parity)),
        tau=st.floats(0.2, 1.5),
        x_half=st.floats(0.5, 4.0),
        nx=st.integers(2, 6),
        nt=st.integers(2, 6),
        extrapolate=st.booleans(),
    )
    @example(branch=Parity.NODAL, tau=1.0, x_half=4.0, nx=5, nt=4, extrapolate=True)
    def test_folded_mesh_matches_its_cells(self, branch, tau, x_half, nx, nt, extrapolate):
        # this mesh mirrors about (0, tau), so one quarter is integrated and
        # copied: bitwise symmetric, and each cell is the point density there
        g = density_grid(branch, tau, (-x_half, x_half), (0.0, 2.0 * tau), nx, nt, K, Q, extrapolate=extrapolate)
        assert np.array_equal(g.values, g.values[:, ::-1])
        assert np.array_equal(g.values, g.values[::-1])
        if branch.is_nodal and nx % 2:
            assert np.all(g.values[:, nx // 2] == 0.0)
        point = density_extrapolated if extrapolate else density
        cells = [[point(branch, tau, float(x), float(t), K, Q) for x in g.x_samples] for t in g.t_samples]
        np.testing.assert_allclose(g.values, cells, rtol=0.0, atol=1e-12 * g.values.max())

    @pytest.mark.parametrize(
        "x_range, t_range, cells",
        [((-4.0, 4.0), (0.0, 2.0), 21 * 21), ((-4.0, 3.0), (0.0, 1.7), 41 * 41)],
    )
    def test_only_the_mirrored_quarter_is_integrated(self, monkeypatch, x_range, t_range, cells):
        members = []

        def recording(f, *args, **kwargs):
            members.append(kwargs["members"])
            return quadrature.integrate_sqrt_endpoint(f, *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_sqrt_endpoint", recording)
        density_grid(Parity.NONNODAL, 1.0, x_range, t_range, 41, 41, K, Q)
        assert sum(members) == cells

    def test_flagging_on_starved_budget(self):
        q = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
        g = density_grid(Parity.NONNODAL, 0.5, (2.0, 4.0), (0.0, 1.0), 3, 2, K, q)
        assert len(g.flagged) > 0

    def test_flagged_cells_come_with_their_mirrors(self):
        q = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
        g = density_grid(Parity.NONNODAL, 0.5, (-4.0, 4.0), (0.0, 1.0), 5, 3, K, q)
        flagged = set(g.flagged)
        assert flagged and flagged == {(2 - i, 4 - j) for i, j in flagged} == {(i, 4 - j) for i, j in flagged}

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DensityGrid(
                np.array([0.0, 1.0]),
                np.array([0.0, 1.0]),
                np.array([[0.0, -1.0], [0.0, 0.0]]),
            )


# the density-ladder mesh: 21 x 21 cells integrated as one block at the
# finest rung, two GK15 panels per integrand call
LADDER_MESH = (np.linspace(-4.0, 4.0, 21), np.linspace(0.0, 2.0, 21), 0.075)


class TestDensityBuffers:
    def test_blocks_reuse_one_buffer(self, monkeypatch):
        outputs = []

        def recording(f, *args, **kwargs):
            def f_recorded(q):
                out = f(q)
                outputs.append(out)
                return out

            return quadrature.integrate_sqrt_endpoint(f_recorded, *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_sqrt_endpoint", recording)
        xs, ts, eps = LADDER_MESH
        dynamics._f_integrals_result(Parity.NONNODAL, 1.0, xs, ts, K, Q, eps, strict=False)
        assert len(outputs) > 100
        # the first call holds the head panel's single GK15 panel, so the
        # buffer grows once, to the two-panel blocks; every later block
        # writes into that same buffer
        assert outputs[0].size < outputs[1].size
        assert all(np.shares_memory(out, outputs[1]) for out in outputs[1:])

    @pytest.mark.parametrize("branch", list(Parity))
    def test_peak_memory_stays_within_two_blocks(self, branch):
        xs, ts, eps = LADDER_MESH
        tracemalloc.start()
        try:
            dynamics._f_integrals_result(branch, 1.0, xs, ts, K, Q, eps, strict=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * quadrature._BLOCK_VALUES * 8


class TestLocalization:
    def test_nonnodal_peak_at_tau(self):
        g = density_grid(Parity.NONNODAL, 0.5, (-3, 3), (0, 1), 41, 21, K, Q)
        rep = localization_report(Parity.NONNODAL, 0.5, g)
        assert rep.best_t == pytest.approx(0.5, abs=0.05)
        best = [s for s in rep.slices if s.t == rep.best_t][0]
        assert abs(best.argmax_x) <= g.x_samples[1] - g.x_samples[0]

    def test_nodal_peaks_close_in_at_tau(self):
        g = density_grid(Parity.NODAL, 0.5, (-3, 3), (0, 1), 61, 21, K, Q)
        rep = localization_report(Parity.NODAL, 0.5, g)
        assert rep.best_t == pytest.approx(0.5, abs=0.05)
        for s in rep.slices:
            left, right = s.nodal_peaks
            assert left < 0.0 < right
            assert abs(left + right) <= 2.0 * (g.x_samples[1] - g.x_samples[0])

    def test_grid_must_cover_tau(self):
        g = density_grid(Parity.NONNODAL, 2.0, (-1, 1), (0, 1), 5, 3, K, Q)
        with pytest.raises(RangeBoundaryError):
            localization_report(Parity.NONNODAL, 2.0, g)


class TestPsiRepresentation:
    def test_nodal_zero_at_origin(self):
        up, lo = psi_representation_eigenfunction(
            EigenSpec(POS, Parity.NODAL, 0.5), 0.0, 0.2, K, Q
        )
        assert up == 0.0 and lo == 0.0

    def test_charge_swap_relation(self):
        # flipping lambda conjugates the time phase and swaps the roles
        # of the component weights
        spec_p = EigenSpec(POS, Parity.NONNODAL, 0.5)
        spec_m = EigenSpec(NEG, Parity.NONNODAL, 0.5)
        up_p, lo_p = psi_representation_eigenfunction(spec_p, 0.9, 0.4, K, Q)
        up_m, lo_m = psi_representation_eigenfunction(spec_m, 0.9, 0.4, K, Q)
        assert up_m == pytest.approx(np.conj(lo_p), rel=1e-10)
        assert lo_m == pytest.approx(np.conj(up_p), rel=1e-10)

    def test_nodal_charge_swap_relation(self):
        spec_p = EigenSpec(POS, Parity.NODAL, 0.5)
        spec_m = EigenSpec(NEG, Parity.NODAL, 0.5)
        up_p, lo_p = psi_representation_eigenfunction(spec_p, 0.9, 0.4, K, Q)
        up_m, lo_m = psi_representation_eigenfunction(spec_m, 0.9, 0.4, K, Q)
        assert up_m == pytest.approx(-np.conj(lo_p), rel=1e-10)
        assert lo_m == pytest.approx(-np.conj(up_p), rel=1e-10)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_consistent_with_diagonal_representation_pipeline(self, parity):
        """Oracle: map the diagonal-representation eigenfunction through
        the inverse momentum-dependent transform and Fourier transform
        it with the same damping, via scipy quadrature."""
        from scipy.integrate import quad

        lam, tau, x, t, eps = 1, 0.5, 0.8, 0.9, 0.3
        norm = math.sqrt(K.c / (4.0 * math.pi * K.hbar))

        def component(sign, q):
            # rows of U^{-1} applied to (phi, 0): (1 +/- sqrt(1+q^2)) / (2 (1+q^2)^(1/4))
            root = math.sqrt(1.0 + q * q)
            phi = norm * math.sqrt(abs(q) / root) * np.exp(-1j * lam * (t - tau) * root)
            if parity.is_nodal:
                phi = phi * np.sign(q)
            weight = (1.0 + sign * root) / (2.0 * root**0.5)
            return weight * phi

        def ft(sign):
            def re_im(part):
                def f(q):
                    val = (
                        np.exp(1j * x * q)
                        * component(sign, q)
                        * math.exp(-eps * abs(q))
                        / math.sqrt(2.0 * math.pi)
                    )
                    return val.real if part == "re" else val.imag

                out = 0.0
                for a, b in ((-60.0, 0.0), (0.0, 60.0)):
                    out += quad(f, a, b, limit=2000, epsabs=1e-11, epsrel=1e-11)[0]
                return out

            return re_im("re") + 1j * re_im("im")

        up_ref, lo_ref = ft(+1), ft(-1)
        up, lo = psi_representation_eigenfunction(
            EigenSpec(POS, parity, tau), x, t, K, Q, epsilon=eps
        )
        assert up == pytest.approx(up_ref, rel=2e-6)
        assert lo == pytest.approx(lo_ref, rel=2e-6)
