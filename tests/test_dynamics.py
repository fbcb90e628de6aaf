"""Position-space densities: oracle values and symmetries."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtoa import dynamics, quadrature
from rtoa.core import PhysConstants
from rtoa.dynamics import DensityGrid, density_grid
from rtoa.quadrature import QuadratureConfig, extrapolate_to_zero
from rtoa.spectral import Parity

from conftest import constants

K = PhysConstants()
Q = QuadratureConfig()


def branch_integrals(branch, tau, x, t, epsilon=Q.epsilon):
    """The damped branch integrals (f1, f2) at one spacetime point."""
    value = dynamics._f_integrals_result(branch, tau, [x], [t], K, Q, epsilon).value[0]
    return float(value.real), float(value.imag)


def point_density(branch, tau, x, t, k=K, q=Q, epsilon=None):
    """The point density P = m0^2 c^3 / (2 pi^2 hbar^2) (f1^2 + f2^2) at
    one spacetime point, from one converged single-cell integral that does
    not fold."""
    eps = q.epsilon if epsilon is None else epsilon
    res = dynamics._f_integrals_result(branch, tau, [x], [t], k, q, eps)
    assert res.converged
    f1, f2 = res.value[0].real, res.value[0].imag
    return float(k.m0**2 * k.c**3 / (2.0 * math.pi**2 * k.hbar**2) * (f1**2 + f2**2))


def extrapolated_density(branch, tau, x, t, k=K, q=Q):
    """The point density with the epsilon ladder extrapolated to zero and
    clamped at zero, the Neville step of every extrapolated mesh."""
    rungs = [point_density(branch, tau, x, t, k, q, epsilon=e) for e in q.epsilon_ladder]
    return max(extrapolate_to_zero(q.epsilon_ladder, rungs), 0.0)


class TestFIntegrals:
    def test_nodal_zero_at_origin(self):
        assert branch_integrals(Parity.NODAL, 0.5, 0.0, 0.9) == (0.0, 0.0)

    def test_f2_vanishes_at_t_equals_tau(self):
        f1, f2 = branch_integrals(Parity.NONNODAL, 0.5, 0.0, 0.5)
        assert f2 == 0.0
        assert f1 > 0.0

    def test_frozen_peak_value(self):
        # 30-digit quadrature of the x = 0, t = tau damped integral
        f1, _ = branch_integrals(Parity.NONNODAL, 0.5, 0.0, 0.5)
        assert f1 == pytest.approx(2.8922166947883909296, abs=1e-9)

    def test_frozen_generic_point(self):
        # mpmath, 18 digits, eps = 0.3
        f1, f2 = branch_integrals(Parity.NONNODAL, 0.5, 1.3, 0.9)
        assert f1 == pytest.approx(-0.0486317891765847345, abs=1e-9)
        assert f2 == pytest.approx(-0.172910696277956551, abs=1e-9)
        f1, f2 = branch_integrals(Parity.NODAL, 0.5, 2.0, 0.2)
        assert f1 == pytest.approx(0.294031875526587527, abs=1e-9)
        assert f2 == pytest.approx(-0.0615616775014061741, abs=1e-9)

    def test_even_in_x_and_time_offset(self):
        for branch in Parity:
            a = branch_integrals(branch, 0.5, 1.7, 1.2)
            b = branch_integrals(branch, 0.5, -1.7, 1.2)
            c = branch_integrals(branch, 0.5, 1.7, -0.2)
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
        assert branch_integrals(branch, tau, x, t) == pytest.approx(expect, rel=0, abs=1e-10)

    def test_epsilon_validation(self):
        for epsilon in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
                branch_integrals(Parity.NONNODAL, 0.5, 0.0, 0.5, epsilon=epsilon)
            with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
                point_density(Parity.NONNODAL, 0.5, 0.0, 0.5, K, Q, epsilon=epsilon)


class TestDensity:
    def test_positive_and_lambda_free(self):
        d = point_density(Parity.NONNODAL, 0.5, 1.1, 0.8, K, Q)
        assert d >= 0.0
        # charge sign never enters the computation: same call serves both

    def test_nodal_line_exactly_zero(self):
        for t in (0.0, 0.5, 1.0):
            assert point_density(Parity.NODAL, 0.5, 0.0, t, K, Q) == 0.0

    def test_mirror_symmetry(self):
        a = point_density(Parity.NODAL, 1.0, 2.3, 0.4, K, Q)
        b = point_density(Parity.NODAL, 1.0, -2.3, 0.4, K, Q)
        assert a == pytest.approx(b, rel=1e-9)

    def test_time_mirror_about_tau(self):
        a = point_density(Parity.NONNODAL, 1.0, 0.8, 1.0 + 0.3, K, Q)
        b = point_density(Parity.NONNODAL, 1.0, 0.8, 1.0 - 0.3, K, Q)
        assert a == pytest.approx(b, rel=1e-9)

    def test_prefactor(self):
        # a cell of an unfolded grid (x and t - tau mirror nowhere) against
        # the formula on the point integrals; cells share a panel tree
        f1, f2 = branch_integrals(Parity.NONNODAL, 0.5, 0.7, 0.2)
        g = density_grid(Parity.NONNODAL, 0.5, (0.7, 1.1), (0.2, 0.6), 2, 2, K, Q)
        assert g.values[0, 0] == pytest.approx((f1 * f1 + f2 * f2) / (2.0 * math.pi**2), rel=1e-12)

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
            want = k.m0**2 * k.c**3 / k.hbar**2 * point_density(branch, tau, x, t, K, Q)
            got = point_density(branch, tau * time, x * length, t * time, k, Q)
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
                point_density(Parity.NONNODAL, 0.5, x, t, K, Q, epsilon=e)
                for e in Q.epsilon_ladder
            ]
            d1 = abs(ladder[1] - ladder[0])
            d2 = abs(ladder[2] - ladder[1])
            assert d2 < d1, (x, t, ladder)
            ext = extrapolated_density(Parity.NONNODAL, 0.5, x, t, K, Q)
            scale = max(ladder[2], 1e-3)
            assert abs(ext - ladder[2]) / scale < 0.5

    def test_peak_sharpens_as_regulator_shrinks(self):
        vals = [
            point_density(Parity.NONNODAL, 0.5, 0.0, 0.5, K, Q, epsilon=e)
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
        # grid cells against single-cell integrals that do not fold; grid
        # cells share a finer panel tree, so they agree to roundoff, not bitwise
        for extrapolate, point in ((False, point_density), (True, extrapolated_density)):
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
        point = extrapolated_density if extrapolate else point_density
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

    @pytest.mark.parametrize(
        "x_range, t_range",
        [((-1e308, 1e308), (0.0, 1.0)), ((-1.0, 1.0), (-1e308, 1e308)), ((0.0, math.inf), (0.0, 1.0))],
    )
    def test_non_finite_range_width_refused(self, x_range, t_range):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy overflows
            with pytest.raises(ValueError, match="range widths must be finite"):
                density_grid(Parity.NONNODAL, 0.5, x_range, t_range, 3, 2, K, Q)

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
        dynamics._f_integrals_result(Parity.NONNODAL, 1.0, xs, ts, K, Q, eps)
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
            dynamics._f_integrals_result(branch, 1.0, xs, ts, K, Q, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * quadrature._BLOCK_VALUES * 8

    @pytest.mark.parametrize("branch", list(Parity))
    def test_cells_are_the_two_real_products(self, monkeypatch, branch):
        # one complex product per cell gives exactly the values of the real
        # products g K(a q) cos(b root) and g K(a q) sin(b root)
        seen = []

        def recording(f, *args, **kwargs):
            def f_recorded(q):
                out = f(q)
                seen.append((q.copy(), out.copy()))
                return out

            return quadrature.integrate_sqrt_endpoint(f_recorded, *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_sqrt_endpoint", recording)
        xs, ts, eps = LADDER_MESH
        tau = 1.0
        dynamics._f_integrals_result(branch, tau, xs, ts, K, Q, eps)
        a = K.momentum_scale * xs / K.hbar
        b = K.rest_energy * (ts - tau) / K.hbar
        kernel = np.sin if branch.is_nodal else np.cos
        for q, out in seen:
            root = np.sqrt(1.0 + q * q)
            space = kernel(np.multiply.outer(q, a))
            weighted = (np.sqrt(q) * root**-0.5 * np.exp(-eps * q))[:, None, None] * space[:, None, :]
            phase = np.multiply.outer(root, b)[:, :, None]
            expected = np.stack([weighted * np.cos(phase), weighted * np.sin(phase)], axis=-1)
            assert np.array_equal(out, expected.view(complex).reshape(out.shape))


def _half_period_width(a, b):
    """The panel rule before the sum-frequency width: half a period of the
    faster of the two factors, capped at 4."""
    return min(math.pi / max(abs(a), abs(b), 1e-30), 4.0)


class TestSumFrequencyPanels:
    @settings(max_examples=16, deadline=None)
    @given(
        branch=st.sampled_from(list(Parity)),
        tau=st.floats(0.5, 1.5),
        x_half=st.floats(0.5, 10.0),
        t_half=st.floats(0.01, 4.0),
        epsilon=st.sampled_from([0.3, 0.075]),
    )
    def test_densities_match_the_half_period_rule(self, branch, tau, x_half, t_half, epsilon):
        q = QuadratureConfig(epsilon=epsilon)
        args = (branch, tau, (-x_half, x_half), (1.0 - t_half, 1.0 + t_half), 7, 5, K, q)
        g = density_grid(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_panel_width", _half_period_width)
            reference = density_grid(*args)
        assert g.flagged == reference.flagged == ()
        np.testing.assert_allclose(g.values, reference.values, rtol=0.0, atol=1e-12 * reference.values.max())
