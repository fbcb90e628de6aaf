import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtoa.core import (
    ChargeSign,
    PhysConstants,
    SpinorField,
    Basis,
    Representation,
    energy,
    inner_product_phi,
    momentum_grid,
    trapezoid_weights,
)

from conftest import phi_field

K = PhysConstants()


class TestConstants:
    def test_defaults(self):
        assert (K.hbar, K.c, K.m0) == (1.0, 1.0, 1.0)
        assert K.rest_energy == 1.0
        assert K.momentum_scale == 1.0

    @pytest.mark.parametrize("bad", [{"hbar": 0.0}, {"c": -1.0}, {"m0": float("nan")}])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            PhysConstants(**bad)

    # c**2 overflows, m0 c overflows, m0 c^2 overflows
    @pytest.mark.parametrize("big", [{"c": 1e200}, {"c": 1e10, "m0": 1e300}, {"c": 1e150, "m0": 1e10}])
    def test_rejects_overflowing_scales(self, big):
        with pytest.raises(ValueError, match="m0 c and m0 c\\^2 must be finite"):
            PhysConstants(**big)

    def test_exact_conversion_is_exact(self):
        h, c, m = PhysConstants(hbar=0.5, c=2.0, m0=1.0).exact()
        assert (h, c, m) == (0.5, 2, 1)


class TestEnergy:
    def test_rest_energy(self):
        assert energy(0.0, K) == 1.0

    def test_unit_momentum(self):
        assert energy(1.0, K) == pytest.approx(math.sqrt(2.0), rel=0, abs=1e-15)

    def test_evenness_example(self):
        assert energy(-3.0, K) == pytest.approx(math.sqrt(10.0), rel=0, abs=1e-14)
        assert energy(-3.0, K) == energy(3.0, K)

    def test_scaling_with_constants(self):
        k = PhysConstants(hbar=1.0, c=3.0, m0=2.0)
        assert energy(0.0, k) == pytest.approx(2.0 * 9.0)
        assert energy(4.0, k) == pytest.approx(math.sqrt(16 * 9 + 4 * 81))

    @given(st.floats(-1e8, 1e8))
    def test_even_and_bounded_below(self, p):
        e = energy(p, K)
        assert e == energy(-p, K)
        assert e >= K.rest_energy
        if abs(p) > 1e-7:  # below this the excess is not representable
            assert e > K.rest_energy

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            energy(float("inf"), K)


class TestSpinorField:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            phi_field([0.0, 0.0, 1.0], np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            phi_field([0.0, 1.0], np.zeros(3))

    def test_immutable_arrays(self):
        f = phi_field([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            f.upper[0] = 5.0


class TestInnerProduct:
    def normalized_gaussian(self, sign=+1):
        grid = np.linspace(-10, 10, 4001)
        g = np.exp(-(grid**2))
        g = g / math.sqrt(np.trapezoid(np.abs(g) ** 2, grid))
        if sign > 0:
            return phi_field(grid, g)
        return phi_field(grid, np.zeros_like(g), g)

    def test_positive_state_norm(self):
        a = self.normalized_gaussian(+1)
        assert inner_product_phi(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_negative_state_norm(self):
        a = self.normalized_gaussian(-1)
        assert inner_product_phi(a, a) == pytest.approx(-1.0, abs=1e-12)

    def test_cross_charge_vanishes(self):
        a = self.normalized_gaussian(+1)
        b = self.normalized_gaussian(-1)
        assert inner_product_phi(a, b) == 0.0

    def test_conjugate_symmetry(self, rng):
        grid = np.linspace(-4, 4, 801)
        f1 = phi_field(
            grid,
            rng.normal(size=801) + 1j * rng.normal(size=801),
            rng.normal(size=801) + 1j * rng.normal(size=801),
        )
        f2 = phi_field(
            grid,
            rng.normal(size=801) + 1j * rng.normal(size=801),
            rng.normal(size=801) + 1j * rng.normal(size=801),
        )
        lhs = inner_product_phi(f1, f2)
        rhs = inner_product_phi(f2, f1)
        assert lhs == pytest.approx(rhs.conjugate(), rel=1e-12)

    def test_grid_mismatch(self):
        a = phi_field(np.linspace(0, 1, 5), np.ones(5))
        b = phi_field(np.linspace(0, 2, 5), np.ones(5))
        with pytest.raises(ValueError, match="fields are sampled on different grids"):
            inner_product_phi(a, b)


class TestGrids:
    def test_trapezoid_weights_match_numpy(self, rng):
        grid = np.sort(rng.uniform(-3, 3, size=57))
        vals = rng.normal(size=57)
        assert np.sum(trapezoid_weights(grid) * vals) == pytest.approx(
            np.trapezoid(vals, grid)
        )

    def test_momentum_grid_straddles_zero(self):
        g = momentum_grid(-4.0, 4.0, 4097)
        assert np.min(np.abs(g)) > 1e-6
        g2 = momentum_grid(-4.0, 4.0, 4096)  # zero not on a node already
        assert np.min(np.abs(g2)) > 1e-6

    def test_momentum_grid_validation(self):
        with pytest.raises(ValueError):
            momentum_grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            momentum_grid(0.0, 1.0, 1)
