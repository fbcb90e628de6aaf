"""Engine checks against closed forms, scipy's QUADPACK and the qk15
error estimate, and the panels each benchmarked engine call takes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtoa import quadrature, spectral
from rtoa.cli import check_overlap
from rtoa.core import PhysConstants
from rtoa.dynamics import density_grid
from rtoa.quadrature import (
    QuadratureConfig,
    QuadratureConvergenceError,
    adaptive_quadrature,
    extrapolate_to_zero,
    integrate_sqrt_endpoint,
)
from rtoa.spectral import Parity


class TestAdaptive:
    def test_polynomial_is_exact(self):
        res = adaptive_quadrature(lambda x: x**3 - 2 * x + 1, -1.0, 2.0)
        assert res.value[0, 0] == pytest.approx(3.75, abs=1e-13)

    def test_oscillatory_damped_closed_form(self):
        # Int_0^inf e^{-s q} cos(a q) dq = s / (s^2 + a^2)
        s, a = 0.4, 6.0
        res = adaptive_quadrature(
            lambda q: np.exp(-s * q) * np.cos(a * q),
            0.0,
            120.0,
            max_width=math.pi / a,
            abs_tol=1e-12,
        )
        assert res.value[0, 0] == pytest.approx(s / (s * s + a * a), abs=1e-11)

    def test_vector_valued(self):
        res = adaptive_quadrature(
            lambda x: np.stack([np.sin(x), np.cos(x)], axis=1),
            0.0,
            math.pi,
            n_out=2,
        )
        assert res.value.shape == (1, 2) and res.error.shape == (1,)
        assert res.value[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert res.value[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracles_on_hard_integrand(self):
        from scipy.integrate import quad

        f = lambda x: np.exp(-0.3 * x) * np.cos(7.3 * x) / (1.0 + x * x) ** 0.25
        mine = adaptive_quadrature(f, 0.0, 80.0, max_width=math.pi / 7.3, abs_tol=1e-11)
        # frozen 25-digit value of this integral
        assert mine.value[0, 0] == pytest.approx(0.005932538244761401, abs=1e-12)
        ref = quad(lambda x: float(f(np.array([x]))[0]), 0.0, 80.0, limit=500)[0]
        assert mine.value[0, 0] == pytest.approx(ref, abs=2e-8)  # scipy's own tolerance

    def test_convergence_error_carries_estimate(self):
        with pytest.raises(QuadratureConvergenceError) as exc:
            adaptive_quadrature(
                lambda x: np.cos(200.0 * x),
                0.0,
                50.0,
                abs_tol=1e-13,
                rel_tol=1e-13,
                max_subdivisions=4,
            )
        assert exc.value.error > 0.0
        assert np.isfinite(exc.value.estimate).all()

    def test_non_raising_mode_flags(self):
        res = adaptive_quadrature(
            lambda x: np.cos(200.0 * x),
            0.0,
            50.0,
            abs_tol=1e-13,
            rel_tol=1e-13,
            max_subdivisions=4,
            raise_on_failure=False,
        )
        assert not res.converged

    @pytest.mark.parametrize("max_width", [3e-308, 0.0])
    def test_infinite_first_pass_panel_count_refused(self, max_width):
        # a finite interval whose ratio to the panel width overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a numpy warning
            with pytest.raises(ValueError, match="too many to count"):
                adaptive_quadrature(np.cos, 0.0, 100.0, max_width=max_width)

    def test_read_only_output(self):
        # the engine only reads what f returns, so a read-only array is fine
        res = adaptive_quadrature(lambda x: np.broadcast_to(3.0, x.shape), 0.0, 2.0)
        assert res.value[0, 0] == 6.0


def qk15(fx, half):
    """Classic QUADPACK qk15 on values fx (panels, 15, columns) of panels
    with half-widths ``half``: (raw, resasc, estimate) per panel and column."""
    resk = np.einsum("j,pjc->pc", quadrature.GK_WEIGHTS, fx)
    resg = np.einsum("j,pjc->pc", quadrature.G_WEIGHTS, fx)
    resasc = np.einsum("j,pjc->pc", quadrature.GK_WEIGHTS, np.abs(fx - 0.5 * resk[:, None, :])) * half[:, None]
    raw = np.abs(resk - resg) * half[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    return raw, resasc, np.where((resasc > 0.0) & (raw > 0.0), scaled, raw)


def panel_values(g, panels):
    """(g at the GK15 nodes shaped (panels, 15, columns), half-widths)."""
    half = 0.5 * (panels[:, 1] - panels[:, 0])
    x = (panels[:, 0] + half)[:, None] + half[:, None] * quadrature.GK_NODES
    return g(x.ravel()).reshape(panels.shape[0], 15, -1), half


_centre = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
INTEGRANDS = st.one_of(
    st.builds(lambda c, w: lambda x: np.exp(-(((x - c) / w) ** 2)), _centre, st.floats(0.05, 3.0)),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20).map(
        lambda cs: lambda x: np.polynomial.polynomial.polyval(x, cs)
    ),
    st.builds(lambda k, phi: lambda x: np.cos(k * x + phi), st.floats(0.0, 30.0), st.floats(0.0, 2 * math.pi)),
    st.builds(lambda c: lambda x: np.abs(x - c), _centre),
    st.builds(lambda c: lambda x: np.where(x > c, 1.0, 0.0), _centre),
)


class TestErrorEstimate:
    """The engine's per-panel estimate bounds QUADPACK's qk15 estimate,
    since its L never exceeds resasc."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(INTEGRANDS, min_size=2, max_size=2), min_size=1, max_size=3),
        st.lists(st.tuples(_centre, st.floats(1e-3, 2.0)), min_size=1, max_size=4),
    )
    def test_bounds_quadpack(self, members, spans):
        panels = np.array([[0.0, 1.0]] + [[c - h, c + h] for c, h in spans])

        def f(x):
            return np.stack([np.stack([g(x) for g in pair], axis=-1) for pair in members], axis=1)

        _, err = quadrature._gk15(f, panels, len(members), 2)
        fx, half = panel_values(f, panels)
        raw, resasc, expect = qk15(fx, half)
        scale = half[:, None] * np.abs(fx).max(axis=1)  # h max|f| per panel and column
        sums = np.einsum("kj,pjc->pkc", quadrature._ROWS, fx)
        low = half[:, None] * np.maximum(np.abs(sums[:, 2]), np.abs(sums[:, 3]))
        eps = np.finfo(float).eps
        # a constant's resasc can be exactly 0 while its L is a roundoff of eps h max|f|
        assert np.all(low <= resasc * (1.0 + 1e-12) + 16 * eps * scale)
        # err is max'd over each member's two outputs; where raw is not
        # roundoff, its two routes (K.f - G.f against (K - G).f) differ by
        # a few eps h max|f|, and the estimate grows at most as raw^1.5
        ours = np.repeat(err, 2, axis=1)
        kept = raw > 1e-10 * scale
        slack = 48 * eps * scale[kept] / raw[kept]
        assert np.all(ours[kept] >= expect[kept] * (1.0 - slack))

    @pytest.mark.parametrize("half", [1.0, 1.5, 2.0, 2.5])
    def test_centred_gaussian_stays_near_quadpack(self, half):
        # a resolved peak at the panel centre (200 raw < resasc): with the
        # K sgn(x) row alone, an even integrand would have L = 0 and read
        # 5x to 280x QUADPACK's estimate on these panels
        panels = np.array([[-half, half], [3.0 - half, 3.0 + half]])
        centre = np.repeat([0.0, 3.0], 15)
        peak = lambda x: np.exp(-((x - centre) ** 2))[:, None, None]
        _, err = quadrature._gk15(peak, panels, 1, 1)
        fx, h = panel_values(peak, panels)
        _, _, expect = qk15(fx, h)
        assert np.all(err >= expect * (1.0 - 1e-6)) and np.all(err <= 2.0 * expect)


class TestSqrtEndpoint:
    def test_plain_sqrt(self):
        res = integrate_sqrt_endpoint(lambda q: np.sqrt(q), 1.0, abs_tol=1e-13)
        assert res.value[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_sqrt_times_oscillation(self):
        # Int_0^inf sqrt(q) e^{-eps q} e^{i a q} dq = Gamma(3/2) / (eps - i a)^{3/2}
        # frozen with 30-digit arithmetic at eps = 0.2, a = 1.7
        expect_re = -0.226612413560418272
        expect_im = 0.324415815908564264
        eps, a = 0.2, 1.7
        res = integrate_sqrt_endpoint(
            lambda q: np.stack(
                [
                    np.sqrt(q) * np.exp(-eps * q) * np.cos(a * q),
                    np.sqrt(q) * np.exp(-eps * q) * np.sin(a * q),
                ],
                axis=1,
            ),
            200.0,
            max_width=math.pi / a,
            abs_tol=1e-12,
            n_out=2,
        )
        assert res.value.shape == (1, 2) and res.error.shape == (1,)
        assert res.value[0, 0] == pytest.approx(expect_re, abs=2e-10)
        assert res.value[0, 1] == pytest.approx(expect_im, abs=2e-10)

    def test_arrays_f_returns_are_never_written(self):
        # one integrand contract for head and tail: read once, never written
        handed = []

        def f(q):
            out = np.sqrt(q)[:, None] * np.cos(np.multiply.outer(q, [1.0, 9.0]))
            handed.append((out, out.copy()))
            return out

        integrate_sqrt_endpoint(f, 20.0, max_width=1.0, abs_tol=1e-12, members=2)
        assert len(handed) > 2
        assert all(np.array_equal(out, copy) for out, copy in handed)

    def test_starved_budget_flags_and_never_raises(self):
        starved = dict(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=4)
        res = integrate_sqrt_endpoint(lambda q: np.sqrt(q) * np.cos(200.0 * q), 50.0, **starved)
        assert res.member_converged.tolist() == [False]
        assert res.converged is False and np.isfinite(res.value).all()


# damped oscillations with a different frequency and decay per member,
# each with a (cos, sin) output pair
RATES = np.array([0.2, 0.3, 0.5, 0.8, 1.1])
FREQS = np.array([0.5, 2.0, 3.5, 6.0, 9.0])


def member_pair(x, rate, freq):
    damp = np.exp(-np.multiply.outer(x, rate))
    phase = np.multiply.outer(x, freq)
    return np.stack([damp * np.cos(phase), damp * np.sin(phase)], axis=-1)


def members_f(x):
    return member_pair(x, RATES, FREQS)


class TestMembers:
    KW = dict(max_width=math.pi / FREQS.max(), abs_tol=1e-12, rel_tol=1e-10, n_out=2)

    def singles(self, **kw):
        return np.array([
            adaptive_quadrature(lambda x, r=r, w=w: member_pair(x, r, w), 0.0, 60.0, **kw).value[0]
            for r, w in zip(RATES, FREQS)
        ])

    def test_members_equal_single_calls(self):
        batched = adaptive_quadrature(members_f, 0.0, 60.0, members=RATES.size, **self.KW)
        assert batched.value.shape == (RATES.size, 2)
        assert batched.error.shape == (RATES.size,)
        np.testing.assert_allclose(batched.value, self.singles(**self.KW), rtol=0, atol=1e-12)

    def test_swept_members_equal_single_calls(self, monkeypatch):
        # a budget smaller than the per-panel table forces the sweep path;
        # on unit-width panels the two fastest members are refined after it
        monkeypatch.setattr(quadrature, "_BLOCK_VALUES", 15 * RATES.size * 2 * 4)
        kw = dict(self.KW, max_width=1.0)
        batched = adaptive_quadrature(members_f, 0.0, 60.0, members=RATES.size, **kw)
        assert batched.converged
        np.testing.assert_allclose(batched.value, self.singles(**kw), rtol=0, atol=1e-12)

    def test_sqrt_endpoint_members_equal_single_calls(self):
        def sqrt_members(q):
            return np.sqrt(q)[:, None, None] * members_f(q)

        batched = integrate_sqrt_endpoint(sqrt_members, 60.0, members=RATES.size, **self.KW)
        singles = np.array([
            integrate_sqrt_endpoint(
                lambda q, r=r, w=w: np.sqrt(q)[:, None] * member_pair(q, r, w), 60.0, **self.KW
            ).value[0]
            for r, w in zip(RATES, FREQS)
        ])
        np.testing.assert_allclose(batched.value, singles, rtol=0, atol=1e-12)
        assert batched.member_converged.tolist() == [True] * RATES.size

    def test_starved_budget_flags_only_hard_members(self):
        def f(x):
            # a polynomial the initial panels integrate exactly, and an oscillation they cannot
            return np.stack([x**3 - 2.0 * x, np.cos(200.0 * x)], axis=1)[:, :, None]

        starved = dict(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=4, members=2)
        res = adaptive_quadrature(f, 0.0, 50.0, raise_on_failure=False, **starved)
        assert res.member_converged.tolist() == [True, False]
        assert res.converged is False
        assert res.value[0, 0] == pytest.approx(50.0**4 / 4 - 50.0**2, rel=1e-13)
        with pytest.raises(QuadratureConvergenceError):
            adaptive_quadrature(f, 0.0, 50.0, **starved)

    def test_converged_is_a_plain_bool(self):
        single = adaptive_quadrature(np.cos, 0.0, 1.0)
        batched = adaptive_quadrature(members_f, 0.0, 60.0, members=RATES.size, **self.KW)
        assert type(single.converged) is bool and single.member_converged.tolist() == [True]
        assert type(batched.converged) is bool and batched.converged

    def test_f_never_exceeds_the_value_budget(self):
        handed = []

        def f(x):
            handed.append(x.size * RATES.size * 2)
            return members_f(x)

        # enough initial panels that the per-panel table is swept, not kept
        assert math.ceil(1200.0 / self.KW["max_width"]) * RATES.size * 2 > quadrature._BLOCK_VALUES
        adaptive_quadrature(f, 0.0, 1200.0, members=RATES.size, **self.KW)
        assert len(handed) > 1
        assert max(handed) <= quadrature._BLOCK_VALUES


@pytest.fixture
def engine_calls(monkeypatch):
    """(n_panels, every member converged) of each adaptive_quadrature call."""
    calls, engine = [], quadrature.adaptive_quadrature

    def recording(*args, **kwargs):
        res = engine(*args, **kwargs)
        calls.append((res.n_panels, res.converged))
        return res

    monkeypatch.setattr(quadrature, "adaptive_quadrature", recording)
    monkeypatch.setattr(spectral, "adaptive_quadrature", recording)
    return calls


class TestWorkPerCall:
    """The panels each engine call of the benchmarked geometries takes, so
    that an estimator that refines more fails here and not only in the
    benchmark.  integrate_sqrt_endpoint makes a head call, then a tail."""

    @pytest.mark.parametrize("branch", list(Parity))
    def test_figure_mesh(self, engine_calls, branch):
        density_grid(branch, 1.0, (-4.0, 4.0), (0.0, 2.0), 41, 41)
        assert engine_calls == [(1, True), (127, True)]

    @pytest.mark.parametrize("branch", list(Parity))
    def test_ladder_rungs(self, engine_calls, branch):
        density_grid(branch, 1.0, (-4.0, 4.0), (0.0, 2.0), 21, 21, extrapolate=True)
        assert engine_calls == [(1, True), (127, True), (1, True), (255, True), (1, True), (509, True)]

    def test_overlap_ladder(self, engine_calls):
        assert check_overlap(PhysConstants())["pass"]
        assert engine_calls == [(193, True), (383, True), (764, True), (1910, True)]


class TestExtrapolation:
    def test_polynomial_recovery(self):
        xs = [0.4, 0.2, 0.1, 0.05]
        ys = [3.0 - 2.0 * x + 5.0 * x**2 - x**3 for x in xs]
        assert extrapolate_to_zero(xs, ys) == pytest.approx(3.0, abs=1e-12)

    def test_complex_values(self):
        xs = [0.2, 0.1, 0.05]
        ys = [(1.0 + 2.0j) + (3.0 - 1.0j) * x + 0.5j * x * x for x in xs]
        assert extrapolate_to_zero(xs, ys) == pytest.approx(1.0 + 2.0j, abs=1e-12)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            extrapolate_to_zero([0.1, 0.1], [1.0, 2.0])


class TestConfig:
    def test_defaults_resolve_cutoff(self):
        q = QuadratureConfig()
        assert q.cutoff() == pytest.approx(100.0)
        assert math.exp(-q.epsilon * q.cutoff()) < 1e-12
        assert q.cutoff(0.075) == pytest.approx(400.0)
        assert QuadratureConfig(epsilon=0.7).cutoff() == pytest.approx(50.0)

    @given(st.floats(1e-3, 10.0))
    def test_ladder_starts_at_epsilon_and_decreases(self, epsilon):
        ladder = QuadratureConfig(epsilon=epsilon).epsilon_ladder
        assert ladder[0] == epsilon
        assert all(b < a for a, b in zip(ladder, ladder[1:]))

    @pytest.mark.parametrize("epsilon", [0.0, -0.3, math.nan, 1e-323, math.inf])
    def test_epsilon_must_be_positive(self, epsilon):
        # 1e-323 / 4 underflows to a zero regulator
        with pytest.raises(ValueError):
            QuadratureConfig(epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [1e-310, 3e-307])
    def test_cutoff_must_be_finite(self, epsilon):
        # 30 / 3e-307 is finite, but 30 / (3e-307 / 4) is not
        with pytest.raises(ValueError, match="not finite"):
            QuadratureConfig(epsilon=epsilon)
        with pytest.raises(ValueError, match="not finite"):
            QuadratureConfig().cutoff(epsilon / 4)

    @pytest.mark.parametrize(
        "abs_tol, rel_tol",
        [(-1.0, 1e-7), (1e-9, -1.0), (-1.0, -1.0), (0.0, 0.0), (math.nan, 1e-7), (math.inf, 1e-7), (1e-9, math.inf)],
    )
    def test_tolerances_must_mean_something(self, abs_tol, rel_tol):
        with pytest.raises(ValueError, match="abs_tol and rel_tol"):
            QuadratureConfig(abs_tol=abs_tol, rel_tol=rel_tol)
        QuadratureConfig(abs_tol=0.0)  # one of them may be 0
        QuadratureConfig(rel_tol=0.0)
