"""One arrival-time operator in two representations.

``algebra.minimal_toa_operator`` solves [H, T] = i hbar in the
Feshbach-Villars form, H_FV = (sigma3 + i sigma2) p^2 / (2 m0) +
sigma3 m0 c^2, over the Weyl-ordered terms T[m, 1] = (p^m q + q p^m) / 2
with q = i hbar d/dp.  ``spectral.apply_even_toa`` applies
sigma3 (first T[1, 1] + second T[-1, 1]) in the diagonal representation,
with (first, second) from ``_toa_coefficients``.  The Feshbach-Villars
transform

    U = [(m0 c^2 + E) sigma0 - (m0 c^2 - E) sigma1] / (2 sqrt(m0 c^2 E))

takes H_FV to E sigma3 and the first operator to the second, exactly.
Each side is a first-order operator A d/dp + B with 2x2 matrix
coefficients, rational in p and E = sqrt(p^2 c^2 + m0^2 c^4); a
difference vanishes when the numerator of every entry, as a polynomial
in E, is divisible by E^2 - p^2 c^2 - m0^2 c^4.
"""

from types import SimpleNamespace

import pytest
import sympy as sp

from rtoa import algebra, spectral
from rtoa.core import PhysConstants

SIGMA = (
    sp.eye(2),
    sp.Matrix([[0, 1], [1, 0]]),
    sp.Matrix([[0, -sp.I], [sp.I, 0]]),
    sp.Matrix([[1, 0], [0, -1]]),
)


def _pauli(coeff: algebra.PauliCoeff) -> sp.Matrix:
    return sum(
        ((sp.Rational(a.re) + sp.I * sp.Rational(a.im)) * s for a, s in zip(coeff.c, SIGMA)),
        sp.zeros(2),
    )


# binary-exact constants away from 1, so a wrong power or factor shows
@pytest.mark.parametrize("k", [PhysConstants(), PhysConstants(hbar=0.75, c=1.5, m0=0.5)])
def test_transform_takes_the_algebra_operator_to_the_spectral_one(k):
    hbar, c, m0 = (sp.Rational(x) for x in k.exact())
    p, e = sp.symbols("p E", positive=True)
    rest = m0 * c**2
    shell = e**2 - p**2 * c**2 - rest**2
    de = p * c**2 / e  # dE/dp

    def vanishes(matrix):
        for entry in matrix:
            numerator, _ = sp.fraction(sp.together(entry))
            if sp.rem(sp.expand(numerator), shell, e) != 0:
                return False
        return True

    # U = V / (2 sqrt(m0 c^2 E)) and U^-1 = W / (2 sqrt(m0 c^2 E))
    v = (rest + e) * SIGMA[0] - (rest - e) * SIGMA[1]
    w = (rest + e) * SIGMA[0] + (rest - e) * SIGMA[1]
    # d(U^-1)/dp = (W' - W E' / (2 E)) / (2 sqrt(m0 c^2 E))
    dw = de * (SIGMA[0] - SIGMA[1]) - w * de / (2 * e)

    h_fv = (SIGMA[3] + sp.I * SIGMA[2]) * p**2 / (2 * m0) + SIGMA[3] * rest
    assert vanishes(v * h_fv * w / (4 * rest * e) - e * SIGMA[3])

    op = algebra.minimal_toa_operator(k)
    assert {n for _, n in op.terms} == {1}
    a, b = sp.zeros(2), sp.zeros(2)
    for (m, _), coeff in op.terms.items():
        # T[m, 1] = i hbar (p^m d/dp + m p^(m - 1) / 2)
        a += _pauli(coeff) * sp.I * hbar * p**m
        b += _pauli(coeff) * sp.I * hbar * m * p ** (m - 1) / 2
    # U (A d/dp + B) U^-1 = U A U^-1 d/dp + U A (U^-1)' + U B U^-1
    a_diag = v * a * w / (4 * rest * e)
    b_diag = (v * b * w + v * a * dw) / (4 * rest * e)

    first, second = (
        sp.nsimplify(x, rational=True) for x in spectral._toa_coefficients(e, SimpleNamespace(m0=m0, c=c))
    )
    # first T[1, 1] + second T[-1, 1] on the upper block, its negative on the lower
    a_spectral = SIGMA[3] * sp.I * hbar * (first * p + second / p)
    b_spectral = SIGMA[3] * sp.I * hbar * (first - second / p**2) / 2
    assert vanishes(a_diag - a_spectral)
    assert vanishes(b_diag - b_spectral)
