"""Eigenfunctions, the one-particle operator, overlaps, completeness,
and the non-relativistic limit."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtoa import cli, spectral
from rtoa.core import ChargeSign, PhysConstants, energy, inner_product_phi, trapezoid_weights
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
    fornberg_weights,
    nonrel_limit_check,
    overlap,
    overlap_numeric,
)
from rtoa.toa import gaussian_state

from conftest import bump, constants, load_perfbench, phi_field

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

    @pytest.mark.parametrize("lam", [POS, NEG])
    def test_non_finite_phase_refused(self, lam):
        # (t - tau) E_p / hbar overflows at |p| = 8 but not at p = 0, where E_p = m0 c^2
        s = EigenSpec(lam, Parity.NONNODAL, 1e308)
        with pytest.raises(ValueError, match="phase .* is not finite"):
            eigenfunction_scalar(s, 0.0, [-8.0, 0.0, 8.0], K)
        with pytest.raises(ValueError, match="phase .* is not finite"):
            eigenfunction_scalar(EigenSpec(lam, Parity.NODAL, 1.0), -1e308, [1.0, 8.0], K)
        assert eigenfunction_scalar(s, 0.0, [0.0], K) == 0.0


def fornberg_weights_scalar(x0, xs, order):
    """Reference: Fornberg's recursion on one stencil, scalar by scalar."""
    n = len(xs)
    w = np.zeros((order + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    w[s, i] = c1 * (s * w[s - 1, i - 1] - c5 * w[s, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for s in range(mn, 0, -1):
                w[s, j] = ((xs[i] - x0) * w[s, j] - s * w[s - 1, j]) / c3
            w[0, j] = (xs[i] - x0) * w[0, j] / c3
        c1 = c2
    return w[order]


def differentiate_per_node(grid, values):
    """Reference: one 5-point Fornberg stencil per node, node by node."""
    n = grid.size
    out = np.empty_like(values, dtype=complex)
    for i in range(n):
        lo = min(max(i - 2, 0), n - 5)
        out[i] = fornberg_weights_scalar(grid[i], grid[lo : lo + 5], 1) @ values[lo : lo + 5]
    return out


@st.composite
def stencil_batches(draw):
    """1-6 strictly increasing stencils of one size, 3-7 points, each with
    a point x0 on one of its nodes or between two of them."""
    n = draw(st.integers(3, 7))
    x0s, rows = [], []
    for _ in range(draw(st.integers(1, 6))):
        gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1, max_size=n - 1))
        xs = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
        i = draw(st.integers(0, n - 2))
        frac = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
        x0s.append(xs[i] + frac * (xs[i + 1] - xs[i]))
        rows.append(xs)
    return np.array(x0s), np.array(rows)


def quartic(x):
    return 2.0 - x + 0.5 * x**2 - x**3 + 0.25 * x**4


def quartic_slope(x):
    return -1.0 + x - 3.0 * x**2 + x**3


def evict_table():
    """Make the next operator call on any other grid build its table:
    another grid takes the one-grid table slot."""
    differentiate(np.arange(5.0), np.zeros(5))


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

    @settings(max_examples=60, deadline=None)
    @given(batch=stencil_batches(), order=st.integers(1, 2))
    def test_batched_weights_equal_scalar_recursion(self, batch, order):
        x0, xs = batch
        w = fornberg_weights(x0, xs, order)
        assert w.shape == xs.shape
        for row, a, b in zip(w, x0, xs):
            assert np.array_equal(row, fornberg_weights_scalar(a, b, order))

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.4, 5.1, 8193), np.linspace(0.45, 5.05, 8193)], ids=["uniform", "nonuniform"]
    )
    def test_one_weights_call_per_derivative(self, grid, monkeypatch):
        evict_table()
        calls = []
        batched = spectral.fornberg_weights

        def counted(*args):
            calls.append(args)
            return batched(*args)

        monkeypatch.setattr(spectral, "fornberg_weights", counted)
        spectral.differentiate(grid, np.sin(grid))
        assert len(calls) == 1
        spectral.differentiate(grid.copy(), np.cos(grid))  # an equal grid reuses the weights
        assert len(calls) == 1

    def test_warm_weights_give_bitwise_the_cold_result(self):
        grid = np.linspace(0.45, 5.05, 8193)
        real = bump(grid, 0.5, 5.0)
        cplx = real * np.exp(-3.0j * grid**2)
        cold = {}
        for f in (real, cplx):
            evict_table()
            cold[f.dtype] = differentiate(grid, f)
        for f in (real, cplx, real, cplx):
            assert np.array_equal(differentiate(grid.copy(), f), cold[f.dtype])

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 9) ** 2])
    def test_grid_changed_in_place_gets_fresh_weights(self, grid):
        # both stencils are exact on quartics, so stale weights show
        grid = grid.copy()
        differentiate(grid, quartic(grid))
        grid[4] += 0.05
        assert np.allclose(differentiate(grid, quartic(grid)), quartic_slope(grid), rtol=0.0, atol=1e-12)

    def test_alternating_grids_each_get_their_own_weights(self):
        grids = (np.linspace(0.0, 1.0, 9) ** 2, np.linspace(0.0, 1.0, 9) ** 3)
        cold = []
        for grid in grids:
            evict_table()
            cold.append(differentiate(grid, quartic(grid)))
        for _ in range(2):
            for grid, want in zip(grids, cold):
                got = differentiate(grid, quartic(grid))
                assert np.array_equal(got, want)
                assert np.allclose(got, quartic_slope(grid), rtol=0.0, atol=1e-12)

    def test_five_points_share_one_stencil_and_are_exact_on_quartics(self):
        grid = np.array([0.0, 0.3, 1.1, 1.5, 2.6])
        assert np.allclose(differentiate(grid, quartic(grid)), quartic_slope(grid), rtol=0.0, atol=1e-12)

    def test_fewer_than_five_samples_refused(self):
        with pytest.raises(ValueError):
            differentiate(np.arange(4.0), np.arange(4.0))

    @pytest.mark.parametrize("n_values", [12, 8])
    def test_values_of_another_shape_refused(self, n_values):
        # longer values would leave tail entries unwritten, shorter ones would be read past their end
        with pytest.raises(ValueError, match="do not match the grid"):
            differentiate(np.linspace(0.0, 1.0, 10), np.arange(float(n_values)))

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9) ** 2])
    def test_real_in_real_out_complex_in_complex_out(self, grid):
        assert differentiate(grid, np.cos(grid)).dtype == np.float64
        assert differentiate(grid, np.exp(1j * grid)).dtype == np.complex128

    def test_complex_nonuniform_field_matches_per_node_loop(self):
        grid = np.linspace(0.45, 5.05, 8193)
        assert not np.allclose(np.diff(grid), grid[1] - grid[0], rtol=1e-12, atol=0.0)
        f = bump(grid, 0.5, 5.0) * np.exp(-3.0j * grid**2)
        # every node is one gathered 1x5 @ 5x1 product, bitwise the scalar loop
        assert np.array_equal(differentiate(grid, f), differentiate_per_node(grid, f))


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
        with pytest.raises(ValueError, match="grid reaches p = 0"):
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


def differentiate_fresh(grid, values):
    """The 5-point derivative with its weights built and its stencils
    gathered on every call: the arithmetic the grid table must keep."""
    n = grid.size
    out = np.empty_like(values, dtype=complex if np.iscomplexobj(values) else float)
    if np.allclose(np.diff(grid), grid[1] - grid[0], rtol=1e-12, atol=0.0):
        h = grid[1] - grid[0]
        out[2:-2] = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)
        nodes = np.array([0, 1, n - 2, n - 1])
    else:
        nodes = np.arange(n)
    stencil = np.clip(nodes - 2, 0, n - 5)[:, None] + np.arange(5)
    w = fornberg_weights(grid[nodes], grid[stencil], 1)
    out[nodes] = np.matmul(w.astype(out.dtype)[:, None, :], values[stencil][:, :, None])[:, 0, 0]
    return out


def apply_even_toa_fresh(f, k):
    """The operator with every grid array built afresh, as one expression."""
    p = f.grid
    near_zero = p == 0.0
    e = energy(p, k)
    first = -1.0 / (2.0 * e)
    second = -(k.m0**2 * k.c**2 / (2.0 * e) + e / (2.0 * k.c**2))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_p = np.where(near_zero, 0.0, 1.0 / np.where(near_zero, 1.0, p))

    def block(phi):
        dphi = differentiate_fresh(p, phi)
        val = first * (2.0 * p * dphi + phi) + second * (2.0 * inv_p * dphi - inv_p**2 * phi)
        return np.where(near_zero, 0.0, 0.5j * k.hbar * val)

    return f.with_components(block(f.upper), -block(f.lower))


def apply_hamiltonian_fresh(f, k):
    e = energy(f.grid, k)
    return f.with_components(e * f.upper, -e * f.lower)


def assert_same_bits(got, want):
    for a, b in ((got.upper, want.upper), (got.lower, want.lower)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def operator_images(f, k, apply_toa, apply_h):
    """T f, H f, H T f and T H f."""
    t, h = apply_toa(f, k), apply_h(f, k)
    return t, h, apply_h(t, k), apply_toa(h, k)


K2 = PhysConstants(hbar=0.7, c=1.3, m0=0.9)

# The grids the benchmark and the acceptance checks apply the operator on;
# the 0.4-5.1 ones are uniform to rtol 1e-12, the 0.45-5.05 ones are not.
BENCHMARK_GRIDS = [
    *((0.5, 5.0, n) for n in (513, 1025, 4097)),
    *((0.4, 5.1, n) for n in (2049, 4097, 8193)),
    *((0.45, 5.05, n) for n in (4097, 8193)),
]


class TestOperatorTable:
    """The per-grid table leaves every output bit as the operator formulas
    evaluated afresh give it: the benchmark reference pins the conjugacy
    order, which a roundoff change would move by about 1e-3."""

    @pytest.mark.parametrize("lo, hi, n", BENCHMARK_GRIDS)
    def test_bitwise_the_fresh_arithmetic(self, lo, hi, n):
        grid = np.linspace(lo, hi, n)
        b = bump(grid, lo + 0.05, hi - 0.05)
        fields = [
            phi_field(grid, b, 0.0 * b),
            phi_field(grid, b * np.exp(3j * grid), 0.5 * b * np.exp(1j * grid)),
            phi_field(grid, b * grid * np.exp(-2j * grid), 0.2 * b),
            eigenfunction_field(EigenSpec(POS, Parity.NODAL, 1.0), 0.0, grid, K),
        ]
        for k in (K, K2):
            for f in fields:
                got = operator_images(f, k, apply_even_toa, apply_hamiltonian)
                want = operator_images(f, k, apply_even_toa_fresh, apply_hamiltonian_fresh)
                for g, w in zip(got, want):
                    assert_same_bits(g, w)
        f = fields[1]
        for values in (f.upper, np.ascontiguousarray(f.upper.real), f.upper.real, f.lower.imag):
            assert differentiate(grid, values).tobytes() == differentiate_fresh(grid, values).tobytes()

    def test_node_at_zero(self):
        grid = np.linspace(-1.0, 1.0, 101)
        b = bump(grid, 0.3, 0.9)
        f = phi_field(grid, b * np.exp(1j * grid), 0.5 * b)
        for _ in range(2):  # cold table, then warm
            got = operator_images(f, K, apply_even_toa, apply_hamiltonian)
            for g, w in zip(got, operator_images(f, K, apply_even_toa_fresh, apply_hamiltonian_fresh)):
                assert_same_bits(g, w)
            assert got[0].upper[50] == 0.0 and got[0].lower[50] == 0.0
        with pytest.raises(ValueError, match="grid reaches p = 0"):  # the warm table's zero-node mask still refuses
            apply_even_toa(phi_field(grid, np.exp(-(grid**2))), K)

    def test_alternating_constants_give_their_cold_results(self):
        grid = np.linspace(0.45, 5.05, 4097)
        b = bump(grid, 0.5, 5.0)
        f = phi_field(grid, b * np.exp(2j * grid), 0.3 * b)
        cold = {}
        for k in (K, K2):
            evict_table()
            cold[k] = operator_images(f, k, apply_even_toa, apply_hamiltonian)
        for k in (K, K2, K):
            for g, w in zip(operator_images(f, k, apply_even_toa, apply_hamiltonian), cold[k]):
                assert_same_bits(g, w)

    def test_constants_equal_in_value_but_not_type_get_their_own_arrays(self, monkeypatch):
        calls, energy_ = [], spectral.energy
        monkeypatch.setattr(spectral, "energy", lambda *args: calls.append(args) or energy_(*args))
        grid = np.linspace(0.4, 5.1, 65)
        f = phi_field(grid, bump(grid, 0.5, 5.0) + 0j)
        apply_even_toa(f, PhysConstants())
        apply_even_toa(f, PhysConstants(hbar=1.0, c=1.0, m0=1.0))  # equal values, equal types
        apply_even_toa(f, PhysConstants(hbar=1, c=1, m0=1))  # equal values, integer types
        assert len(calls) == 2

    def test_grid_changed_in_place_gets_fresh_arrays(self):
        grid = np.linspace(0.4, 5.1, 2049)
        amp = bump(grid, 0.5, 5.0) * np.exp(2j * grid)
        # the field freezes the array it is given, so hand it views of ``grid``
        before = operator_images(phi_field(grid[:], amp), K, apply_even_toa, apply_hamiltonian)
        grid *= 1.01  # the same array object, other bits
        f = phi_field(grid[:], amp)
        got = operator_images(f, K, apply_even_toa, apply_hamiltonian)
        evict_table()
        cold = operator_images(phi_field(grid.copy(), amp), K, apply_even_toa, apply_hamiltonian)
        for g, w, old in zip(got, cold, before):
            assert_same_bits(g, w)
            assert g.upper.tobytes() != old.upper.tobytes()

    def test_check_leaves_keep_their_bits(self):
        # the values of the operator before it kept grid tables, to the last bit
        assert cli.check_eigenrelation(K)["order"] == float.fromhex("0x1.f4379e12d92edp+1")
        conj = cli.check_conjugacy(K, lambda n: cli._bump_states(n, 3))
        assert conj["order"] == float.fromhex("0x1.ffcb7a3f02947p+1")
        sym = cli.check_symmetry(K, lambda n: cli._bump_states(n, 5))
        assert sym["imag_fraction_4097"] == float.fromhex("0x1.33787cf457659p-40")
        gate = load_perfbench("gate")
        bump_coeffs = {"k1": 3.0, "a1": 0.5, "k2": 1.0, "k3": -2.0, "a3": 0.2}
        order = gate.conjugacy_residuals(bump_coeffs, (4097, 8193))["order"]
        assert order == float.fromhex("0x1.ff58550c17799p+1")


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
        with pytest.raises(ValueError, match="equal eigenvalues"):
            overlap_numeric(s, s, K)

    def test_nonunit_constants(self):
        k = PhysConstants(hbar=0.7, c=1.3, m0=0.9)
        s1 = EigenSpec(POS, Parity.NONNODAL, 1.0)
        s2 = EigenSpec(POS, Parity.NONNODAL, 0.0)
        ana = overlap(s1, s2, k).regular_part
        num = overlap_numeric(s1, s2, k)
        assert abs(num - ana) / abs(ana) < 1e-3

    # criterion 5 scores its 16 fixtures from one quadrature per separation
    # through these images, so they must hold bitwise
    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0, 5.0])
    def test_charge_and_parity_images_at_the_check_separations(self, dt):
        _assert_overlap_images(dt, K)

    @settings(max_examples=20, deadline=None)
    @given(k=constants, dt=st.floats(0.3, 6.0), sign=st.sampled_from([1.0, -1.0]))
    def test_charge_and_parity_images(self, k, dt, sign):
        _assert_overlap_images(sign * dt * k.hbar / k.rest_energy, k)

    @settings(max_examples=3, deadline=None)
    @given(k=constants)
    def test_each_rung_matches_its_complex_separation(self, k):
        # damping exp(-eps E_p / m0c^2) is the closed form's phase at the
        # separation dt + i lam eps hbar / (m0 c^2), rung by rung
        unit_time = k.hbar / k.rest_energy
        for lam in ChargeSign:
            origin = EigenSpec(lam, Parity.NONNODAL, 0.0)
            for dt in (-3.0, -0.5, 0.5, 1.0, 5.0):
                rungs = []
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(spectral, "extrapolate_to_zero", lambda xs, ys: rungs.append(ys) or 0.0)
                    overlap_numeric(EigenSpec(lam, Parity.NONNODAL, dt * unit_time), origin, k)
                (values,) = rungs
                for eps, value in zip(spectral.OVERLAP_EPSILON_LADDER, values):
                    z = (dt + 1j * int(lam) * eps) * unit_time
                    ana = overlap(EigenSpec(lam, Parity.NONNODAL, z), origin, k).regular_part
                    assert abs(int(lam) * value - ana) < 1e-11 * abs(ana)

    def test_check_integrates_each_separation_once(self, monkeypatch):
        calls, numeric = [], cli.overlap_numeric
        monkeypatch.setattr(cli, "overlap_numeric", lambda *args: calls.append(args) or numeric(*args))
        quadratures, quad = [], spectral.adaptive_quadrature
        monkeypatch.setattr(
            spectral, "adaptive_quadrature", lambda *args, **kw: quadratures.append(kw) or quad(*args, **kw)
        )
        assert cli.check_overlap(K)["pass"]
        assert len(calls) == 5  # four separations and the cross-charge zero
        # one quadrature per separation, its members the regulator ladder
        assert [kw["members"] for kw in quadratures] == [len(spectral.OVERLAP_EPSILON_LADDER)] * 4


class TestDeficiencyIndices:
    """phi_z for z = tau + i gamma, gamma = +-g hbar / (m0 c^2), is the
    eigenfunction formula at a complex tau.  It solves T phi_z = z phi_z on
    the occupied block, and it is normalizable exactly when lambda gamma > 0:
    (n+, n-) = (2, 0) on lambda = +1 and (0, 2) on lambda = -1, one solution
    per parity, so T is maximally symmetric but not self-adjoint."""

    G = 0.5
    KS = [K, PhysConstants(hbar=0.7, c=1.3, m0=0.9)]

    @staticmethod
    def occupied(lam, f):
        return f.upper if lam is POS else f.lower

    def phi(self, k, lam, parity, sign, grid):
        z = (1.0 + 1j * sign * self.G) * k.hbar / k.rest_energy
        return z, eigenfunction_field(EigenSpec(lam, parity, z), 0.0, grid, k)

    def norm2(self, k, lam, parity, sign, cutoff, n):
        grid = np.linspace(-cutoff, cutoff, n) * k.momentum_scale
        _, f = self.phi(k, lam, parity, sign, grid)
        return np.sum(trapezoid_weights(grid) * np.abs(self.occupied(lam, f)) ** 2)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("lam", [POS, NEG])
    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_eigenrelation_off_the_real_axis(self, k, lam, parity, sign):
        grid = np.linspace(0.45, 5.05, 4097) * k.momentum_scale
        z, f = self.phi(k, lam, parity, sign, grid)
        got, phi = self.occupied(lam, apply_even_toa(f, k))[2:-2], self.occupied(lam, f)[2:-2]
        assert np.linalg.norm(got - z * phi) < 1e-9 * np.linalg.norm(z * phi)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("lam", [POS, NEG])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_normalizable_when_lambda_gamma_is_positive(self, k, lam, parity):
        # |phi_z|^2 integrates to (1 / 2 pi hbar) int e^{-2 g E / m0c^2} dE
        expect = k.rest_energy * math.exp(-2.0 * self.G) / (4.0 * math.pi * self.G * k.hbar)
        got = self.norm2(k, lam, parity, float(lam), 40.0, 200_001)
        assert got == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("lam", [POS, NEG])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_not_normalizable_when_lambda_gamma_is_negative(self, k, lam, parity):
        near, far = (self.norm2(k, lam, parity, -float(lam), cut, 20_001) for cut in (10.0, 20.0))
        assert far > 100.0 * near


def _assert_overlap_images(dt, k):
    """At separation ``dt``, the nodal value of both overlap routes is the
    non-nodal one, and the lambda = -1 value is -conj of the lambda = +1
    non-nodal one."""
    for route in (overlap_numeric, lambda s1, s2, k: overlap(s1, s2, k).regular_part):
        value = {
            (lam, parity): route(EigenSpec(lam, parity, dt), EigenSpec(lam, parity, 0.0), k)
            for lam in ChargeSign
            for parity in Parity
        }
        positive = value[POS, Parity.NONNODAL]
        for parity in Parity:
            assert value[NEG, parity] == -positive.conjugate()
            assert value[POS, parity] == positive


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


class TestAmplitudeSums:
    def test_kinetic_phase_keeps_its_digits_at_large_c(self):
        # at c = 1e6, E_p rounds to the ulp of m0 c^2 = 1e12 and loses most
        # of p^2 / 2 m0; |S_j| has no rest phase, so an E_p oracle checks it
        k = PhysConstants(hbar=1.0, c=1e6, m0=1.0)
        p = np.linspace(-3.1, 3.3, 257)
        base = np.exp(-((p - 1.0) ** 2) / 0.5) * np.sqrt(np.abs(p)) * (1.0 + 0.1j * p)
        halves = spectral.amplitude_sums(base, p, energy(p, k), 1, k, -5.0, 0.5, 91)
        with mpmath.workdps(40):
            c = mpmath.mpf(k.c)
            for half, _, _, sums in halves:
                energies = [mpmath.sqrt((mpmath.mpf(q) * c) ** 2 + c**4) for q in p[half]]
                terms = [mpmath.mpc(b.real, b.imag) for b in base[half]]
                for j in (0, 30, 60, 90):
                    tau = mpmath.mpf(-5.0 + 0.5 * j)
                    want = abs(mpmath.fsum(b * mpmath.expj(tau * e) for b, e in zip(terms, energies)))
                    assert abs(abs(sums.ravel()[j]) - float(want)) <= 1e-12 * float(want)


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

    def test_temporaries_do_not_grow_with_the_grid(self):
        # the phase tables hold (B + ceil(n / B)) grid rows; every product
        # on them runs over column blocks of at most _SUM_VALUES values
        f = gaussian_state(3.0, 0.0, K).field(np.linspace(-2.0, 8.0, 4097))
        tracemalloc.start()
        try:
            completeness_check(f, 100.0, 0.025, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = (89 + 90) * 4097 * 16  # n_tau = 8001, B = 89
        assert peak - tables < 4 * spectral._SUM_VALUES * 16

    @pytest.mark.parametrize(
        "tau_window, tau_step",
        [(1.0, 4.0), (1.0, 5.0), (math.inf, 0.1), (1.0, math.inf), (math.nan, 0.1), (1.0, 0.0), (1e308, 1e-10)],
    )
    def test_window_and_step_without_two_finite_samples_refused(self, tau_window, tau_step):
        f = gaussian_state(3.0, 0.0, K).field(np.linspace(-2.0, 8.0, 65))
        with pytest.raises(ValueError, match="tau"):
            completeness_check(f, tau_window, tau_step, K)

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
