"""Exact-arithmetic checks of the Pauli / Weyl-ordered operator
algebra.

The p^2 multiplication rules are cross-checked against an independent
normal-ordering engine that knows nothing but [p, q] = -i hbar applied
one swap at a time.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rtoa.algebra import (
    BDOperator,
    PauliCoeff,
    RC,
    SIGMA_0,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    commutator_with_H,
    format_operator,
    identity_times_ihbar,
    minimal_toa_operator,
    p2_expand,
    pauli_commutator,
    pauli_mul,
    solve_conjugate_ansatz,
)
from rtoa.core import PhysConstants
from rtoa.errors import WindowInfeasibleError

SIGMAS = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)
K = PhysConstants()


class TestRationalComplex:
    def test_arithmetic(self):
        a = RC(Fraction(1, 2), Fraction(-3, 4))
        b = RC(2, 1)
        assert a + b == RC(Fraction(5, 2), Fraction(1, 4))
        assert a * b == RC(Fraction(7, 4), -1)
        assert (a / b) * b == a
        assert -a + a == RC(0)
        assert a.conj().conj() == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RC(1) / RC(0)

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
    )
    def test_mul_matches_builtin_complex(self, ar, ai, br, bi):
        a, b = RC(ar, ai), RC(br, bi)
        assert complex(a * b) == complex(a) * complex(b)


class TestPauliAlgebra:
    def test_cyclic_products(self):
        assert pauli_mul(SIGMA_1, SIGMA_2) == SIGMA_3.scale(RC(0, 1))
        assert pauli_mul(SIGMA_2, SIGMA_3) == SIGMA_1.scale(RC(0, 1))
        assert pauli_mul(SIGMA_3, SIGMA_1) == SIGMA_2.scale(RC(0, 1))
        assert pauli_mul(SIGMA_2, SIGMA_1) == SIGMA_3.scale(RC(0, -1))

    def test_squares_are_identity(self):
        for s in SIGMAS:
            assert pauli_mul(s, s) == SIGMA_0

    def test_identity_is_two_sided(self):
        x = PauliCoeff(RC(1, 2), RC(0, -1), RC(3), RC(Fraction(2, 7)))
        assert pauli_mul(SIGMA_0, x) == x
        assert pauli_mul(x, SIGMA_0) == x

    def test_associativity_on_basis(self):
        for a in SIGMAS:
            for b in SIGMAS:
                for c in SIGMAS:
                    assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))

    def test_commutators_of_h_blocks(self):
        # the relations the Hamiltonian commutator leans on
        s32 = PauliCoeff(0, 0, RC(0, 1), 1)

        def pauli_anticommutator(a, b):
            return pauli_mul(a, b) + pauli_mul(b, a)

        assert pauli_commutator(s32, SIGMA_1) == s32.scale(RC(2)) - SIGMA_2.scale(
            RC(0, 0)
        ) - SIGMA_1.scale(RC(0, 0))
        assert pauli_commutator(s32, SIGMA_2) == SIGMA_1.scale(RC(0, -2))
        assert pauli_commutator(s32, SIGMA_3) == SIGMA_1.scale(RC(-2))
        assert pauli_anticommutator(s32, SIGMA_0) == s32.scale(RC(2))
        assert pauli_anticommutator(s32, SIGMA_2) == SIGMA_0.scale(RC(0, 2))
        assert pauli_anticommutator(s32, SIGMA_3) == SIGMA_0.scale(RC(2))


class WordAlgebra:
    """Normal-ordered polynomials in q and p over exact scalars,
    reduced with nothing but p q = q p - i hbar (hbar = 1 here).

    Terms map (q_power, p_power) -> RC; used as an independent oracle
    for the T-basis multiplication rules (nonnegative powers only).
    """

    def __init__(self, terms=None):
        self.terms = {}
        for key, c in (terms or {}).items():
            if c:
                self.terms[key] = self.terms.get(key, RC(0)) + c

    @classmethod
    def word(cls, q_pow, p_pow, coeff=RC(1)):
        return cls({(q_pow, p_pow): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, RC(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return WordAlgebra(out)

    def scale(self, s):
        return WordAlgebra({k: c * s for k, c in self.terms.items()})

    def mul_p_right(self):
        return WordAlgebra({(a, b + 1): c for (a, b), c in self.terms.items()})

    def mul_q_left(self):
        return WordAlgebra({(a + 1, b): c for (a, b), c in self.terms.items()})

    def mul_q_right(self):
        # p^b q = q p^b - i hbar b p^{b-1}, so q^a p^b q = q^{a+1} p^b - i hbar b q^a p^{b-1}
        out = WordAlgebra()
        for (a, b), c in self.terms.items():
            out = out + WordAlgebra({(a + 1, b): c})
            if b >= 1:
                out = out + WordAlgebra({(a, b - 1): c * RC(0, -b)})
        return out

    def mul_p_left(self):
        # p q^a p^b = q^a p^{b+1} - i hbar a q^{a-1} p^b
        out = WordAlgebra()
        for (a, b), c in self.terms.items():
            out = out + WordAlgebra({(a, b + 1): c})
            if a >= 1:
                out = out + WordAlgebra({(a - 1, b): c * RC(0, -a)})
        return out

    def __eq__(self, other):
        return self.terms == other.terms


def binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def weyl_monomial(m, n):
    """T[m,n] = 2^-n sum_k C(n,k) q^k p^m q^{n-k}, for m, n >= 0."""
    total = WordAlgebra()
    for k in range(n + 1):
        w = WordAlgebra.word(0, 0)
        for _ in range(k):
            w = w.mul_q_left()  # q^k on the left: order irrelevant among q's
        for _ in range(m):
            w = w.mul_p_right()
        for _ in range(n - k):
            w = w.mul_q_right()
        total = total + w.scale(RC(binomial(n, k)))
    return total.scale(RC(Fraction(1, 2**n)))


class TestP2Rules:
    def test_trivial_n0(self):
        assert p2_expand(0, 0) == {(2, 0): RC(1)}

    def test_negative_m_examples(self):
        assert p2_expand(-1, 1) == {(1, 1): RC(1), (0, 0): RC(0, -1)}
        assert p2_expand(-1, 1, right=True) == {(1, 1): RC(1), (0, 0): RC(0, 1)}

    def test_left_right_difference(self):
        for m in range(-3, 4):
            for n in range(0, 5):
                left, right = p2_expand(m, n), p2_expand(m, n, right=True)
                assert set(left) == set(right)
                diff = {key: left[key] - right[key] for key in left if left[key] != right[key]}
                assert diff == ({(m + 1, n - 1): RC(0, -2 * n)} if n >= 1 else {})

    @pytest.mark.parametrize("m", range(0, 4))
    @pytest.mark.parametrize("n", range(0, 4))
    def test_against_word_algebra(self, m, n):
        # independent derivation: apply p twice on the left / right of
        # the Weyl monomial, reducing with [p, q] = -i only
        base = weyl_monomial(m, n)
        left = base.mul_p_left().mul_p_left()
        right = base.mul_p_right().mul_p_right()

        def expand(coeffs):
            total = WordAlgebra()
            for (mm, nn), coeff in coeffs.items():
                total = total + weyl_monomial(mm, nn).scale(coeff)
            return total

        assert left == expand(p2_expand(m, n))
        assert right == expand(p2_expand(m, n, right=True))


class TestConjugateOperator:
    def test_minimal_solution_coefficients(self):
        op = minimal_toa_operator(K)
        assert set(op.terms) == {(1, 1), (-1, 1)}
        a11 = op.coeff(1, 1)
        assert a11.c[2] == RC(0, Fraction(-1, 2))  # 1/(2 i m0 c^2)
        assert a11.c[3] == RC(Fraction(-1, 2))
        assert op.coeff(-1, 1) == SIGMA_3.scale(RC(-1))
        # no sigma1 content anywhere
        assert all(coeff.c[1] == RC(0) for coeff in op.terms.values())

    def test_commutator_is_exactly_ihbar(self):
        comm = commutator_with_H(minimal_toa_operator(K), K)
        assert comm == identity_times_ihbar(K)
        assert (comm - identity_times_ihbar(K)).is_zero()

    def test_commutator_linearity(self):
        a = minimal_toa_operator(K)
        b = BDOperator({(0, 2): PauliCoeff(1, 0, RC(0, 2), 3), (2, 1): SIGMA_2})
        s = RC(Fraction(3, 7), Fraction(-2, 5))
        lhs = commutator_with_H(a.scale(s) + b, K)
        rhs = commutator_with_H(a, K).scale(s) + commutator_with_H(b, K)
        assert lhs == rhs
        # a's terms cancel exactly and leave no stored zeros behind
        assert a + b - a == b

    def test_identity_commutes(self):
        assert commutator_with_H(BDOperator({(0, 0): SIGMA_0}), K).is_zero()
        assert commutator_with_H(BDOperator(), K).is_zero()

    def test_nontrivial_constants(self):
        k = PhysConstants(hbar=0.5, c=2.0, m0=3.0)
        op = minimal_toa_operator(k)
        assert commutator_with_H(op, k) == identity_times_ihbar(k)
        # T[1,1] coefficient scales as 1/(m0 c^2) = 1/12
        assert op.coeff(1, 1).c[3] == RC(Fraction(-1, 24))
        assert op.coeff(-1, 1).c[3] == RC(-3)


class TestAnsatzSolver:
    def test_reference_window(self):
        assert solve_conjugate_ansatz(2, 2, K) == minimal_toa_operator(K)

    @pytest.mark.parametrize("window", [(1, 1), (3, 2), (4, 5), (6, 3)])
    def test_window_independence(self, window):
        assert solve_conjugate_ansatz(*window, K) == minimal_toa_operator(K)

    def test_window_independence_other_constants(self):
        k = PhysConstants(hbar=2.0, c=1.5, m0=0.5)
        assert solve_conjugate_ansatz(3, 4, k) == minimal_toa_operator(k)

    def test_infeasible_window(self):
        with pytest.raises(WindowInfeasibleError):
            solve_conjugate_ansatz(0, 2, K)
        with pytest.raises(WindowInfeasibleError):
            solve_conjugate_ansatz(2, 0, K)

    def test_solution_satisfies_sigma0_recurrence(self):
        # n (alpha3 + i alpha2) must vanish except at (m,n) = (-1,1)
        op = solve_conjugate_ansatz(4, 4, K)
        for (m, n), coeff in op.terms.items():
            s = coeff.c[3] + RC(0, 1) * coeff.c[2]
            if (m, n) == (-1, 1):
                assert s == RC(-1)
            else:
                assert s.re * n == 0 and s.im * n == 0

    def test_no_sigma0_or_sigma1_content(self):
        op = solve_conjugate_ansatz(3, 3, K)
        for coeff in op.terms.values():
            assert coeff.c[0] == RC(0)
            assert coeff.c[1] == RC(0)


def test_format_operator_canonical():
    text = format_operator(minimal_toa_operator(K))
    lines = text.splitlines()
    assert lines[0].startswith("T[-1,1]")
    assert lines[1].startswith("T[+1,1]")
    assert format_operator(BDOperator()) == "0"
