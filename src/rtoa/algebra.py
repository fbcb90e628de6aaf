"""Exact operator algebra over the Pauli basis and the Weyl-ordered
monomial basis T[m,n].

Everything here is computed in rational-complex arithmetic: a statement
like "the commutator equals i*hbar times the identity" is an exact
equality of coefficients, not a floating-point residual.

The operator basis T[m,n] is the Weyl-ordered quantization of the
classical monomial p^m q^n; only two facts about it are needed, the
left and right multiplication rules by p^2:

    p^2 T[m,n] = T[m+2,n] - i hbar n T[m+1,n-1] - hbar^2 n(n-1)/4 T[m,n-2]
    T[m,n] p^2 = T[m+2,n] + i hbar n T[m+1,n-1] - hbar^2 n(n-1)/4 T[m,n-2]

together with linear independence of the T[m,n].
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .core import PhysConstants
from .errors import WindowInfeasibleError

RationalLike = int | Fraction


class RC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # a Fraction is immutable and already in lowest terms: keep it
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _as_rc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_rc(other)
        if other is NotImplemented:
            return NotImplemented
        return RC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RC(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_rc(other)
        if other is NotImplemented:
            return NotImplemented
        return RC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_rc(other) - self

    def __mul__(self, other):
        other = _as_rc(other)
        if other is NotImplemented:
            return NotImplemented
        return RC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rc(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return RC(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self) -> "RC":
        return RC(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"RC({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _as_rc(x) -> RC:
    if isinstance(x, RC):
        return x
    if isinstance(x, (int, Fraction)):
        return RC(x)
    return NotImplemented


RC_ZERO = RC(0)
RC_ONE = RC(1)
RC_I = RC(0, 1)


class PauliCoeff:
    """A 2x2 matrix written over the basis (sigma0, sigma1, sigma2, sigma3)
    with exact rational-complex coefficients.

    The representation is unique, so a coefficient is zero iff all four
    scalars are zero.
    """

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (_coerce(c0), _coerce(c1), _coerce(c2), _coerce(c3))

    def __bool__(self) -> bool:
        return any(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliCoeff):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __add__(self, other: "PauliCoeff") -> "PauliCoeff":
        return PauliCoeff(*(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "PauliCoeff") -> "PauliCoeff":
        return PauliCoeff(*(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "PauliCoeff":
        return PauliCoeff(*(-a for a in self.c))

    def scale(self, s) -> "PauliCoeff":
        s = _coerce(s)
        return PauliCoeff(*(s * a if a else RC_ZERO for a in self.c))

    def __repr__(self) -> str:
        return f"PauliCoeff{self.c!r}"

    def __str__(self) -> str:
        parts = [f"({c})s{j}" for j, c in enumerate(self.c) if c]
        return " + ".join(parts) if parts else "0"


def _coerce(x) -> RC:
    r = _as_rc(x)
    if r is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")
    return r


SIGMA_0 = PauliCoeff(1, 0, 0, 0)
SIGMA_1 = PauliCoeff(0, 1, 0, 0)
SIGMA_2 = PauliCoeff(0, 0, 1, 0)
SIGMA_3 = PauliCoeff(0, 0, 0, 1)

# sigma_a sigma_b = table[a][b] = (index, phase): phase * sigma_index.
# Encodes sigma_j^2 = sigma_0 and the cyclic rule sigma_x sigma_y = i sigma_z.
_MUL_TABLE = (
    ((0, RC_ONE), (1, RC_ONE), (2, RC_ONE), (3, RC_ONE)),
    ((1, RC_ONE), (0, RC_ONE), (3, RC_I), (2, -RC_I)),
    ((2, RC_ONE), (3, -RC_I), (0, RC_ONE), (1, RC_I)),
    ((3, RC_ONE), (2, RC_I), (1, -RC_I), (0, RC_ONE)),
)


def pauli_mul(a: PauliCoeff, b: PauliCoeff) -> PauliCoeff:
    """Exact matrix product in the sigma basis."""
    out = [RC_ZERO, RC_ZERO, RC_ZERO, RC_ZERO]
    for i, ai in enumerate(a.c):
        if not ai:
            continue
        for j, bj in enumerate(b.c):
            if not bj:
                continue
            k, phase = _MUL_TABLE[i][j]
            out[k] = out[k] + ai * bj * phase
    return PauliCoeff(*out)


def pauli_commutator(a: PauliCoeff, b: PauliCoeff) -> PauliCoeff:
    return pauli_mul(a, b) - pauli_mul(b, a)


class BDOperator:
    """Finite sum of matrix-valued T[m,n] terms, kept in canonical form:
    no stored zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], PauliCoeff] | None = None):
        clean: dict[tuple[int, int], PauliCoeff] = {}
        if terms:
            for (m, n), coeff in terms.items():
                if n < 0:
                    raise ValueError("basis terms with n < 0 are not supported")
                if coeff:
                    clean[(int(m), int(n))] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, m: int, n: int) -> PauliCoeff:
        return self.terms.get((m, n), PauliCoeff())

    def __add__(self, other: "BDOperator") -> "BDOperator":
        return _summed([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "BDOperator") -> "BDOperator":
        return self + other.scale(-1)

    def scale(self, s) -> "BDOperator":
        s = _coerce(s)
        if not s:
            return BDOperator()
        return BDOperator({key: coeff.scale(s) for key, coeff in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, BDOperator):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({m},{n}): {coeff}" for (m, n), coeff in sorted(self.terms.items())
        )
        return f"BDOperator({{{inner}}})"


def _summed(pairs: Iterable[tuple[tuple[int, int], PauliCoeff]]) -> BDOperator:
    """The operator sum of ``((m, n), coeff)`` pairs, zero totals dropped."""
    terms: dict[tuple[int, int], PauliCoeff] = {}
    for key, coeff in pairs:
        terms[key] = terms[key] + coeff if key in terms else coeff
    return BDOperator(terms)


def p2_expand(
    m: int, n: int, hbar: RationalLike = 1, right: bool = False
) -> dict[tuple[int, int], RC]:
    """Scalar coefficients of p^2 T[m,n] in the T basis, or of T[m,n] p^2
    with ``right`` (the middle sign flips)."""
    hbar = Fraction(hbar)
    out = {(m + 2, n): RC_ONE}
    if n >= 1:
        out[(m + 1, n - 1)] = RC(0, (1 if right else -1) * hbar * n)
    if n >= 2:
        out[(m, n - 2)] = RC(-Fraction(hbar**2 * n * (n - 1), 4))
    return out


def commutator_with_H(t: BDOperator, k: PhysConstants = PhysConstants()) -> BDOperator:
    """Exact commutator of the two-component free Hamiltonian
    H = (sigma3 + i sigma2) p^2 / (2 m0) + sigma3 m0 c^2 with ``t``."""
    hbar, c, m0 = k.exact()
    s32 = PauliCoeff(0, 0, RC_I, 1)  # sigma3 + i sigma2
    inv_2m0 = RC(Fraction(1, 2) / m0)
    mass = RC(m0 * c**2)
    pairs = []
    for (m, n), a in t.terms.items():
        sa = pauli_mul(s32, a).scale(inv_2m0)
        as_ = pauli_mul(a, s32).scale(-inv_2m0)
        pairs += [(key, sa.scale(x)) for key, x in p2_expand(m, n, hbar).items()]
        pairs += [(key, as_.scale(x)) for key, x in p2_expand(m, n, hbar, right=True).items()]
        pairs.append(((m, n), pauli_commutator(SIGMA_3, a).scale(mass)))
    return _summed(pairs)


def identity_times_ihbar(k: PhysConstants = PhysConstants()) -> BDOperator:
    """i hbar sigma0 T[0,0]: the right-hand side of the conjugacy relation."""
    hbar, _, _ = k.exact()
    return BDOperator({(0, 0): SIGMA_0.scale(RC(0, hbar))})


def minimal_toa_operator(k: PhysConstants = PhysConstants()) -> BDOperator:
    """The minimal conjugate of the free two-component Hamiltonian:

        -(sigma3 + i sigma2) T[1,1] / (2 m0 c^2)  -  m0 sigma3 T[-1,1]
    """
    _, c, m0 = k.exact()
    inv = Fraction(1, 2) / (m0 * c**2)
    a11 = PauliCoeff(0, 0, RC(0, -inv), RC(-inv))
    am11 = SIGMA_3.scale(RC(-m0))
    return BDOperator({(1, 1): a11, (-1, 1): am11})


def solve_conjugate_ansatz(
    max_m: int, max_n: int, k: PhysConstants = PhysConstants()
) -> BDOperator:
    """Solve the conjugacy relation [H, T] = i hbar over the window
    m in [-max_m, max_m], n in [0, max_n], taking the minimal solution
    (every free constant set to zero).

    Matching coefficients of the linearly independent T[m,n] (and of the
    sigma basis inside each) reduces the commutator to four recurrences
    for the scalars alpha_j[m,n].  Their consequences:

    - alpha_1[m,n] = 0 everywhere, which forces alpha_0[m,n] = 0 for
      n != 0;
    - the sigma0 row fixes the combination
      s[m,n] := alpha_3[m,n] + i alpha_2[m,n] to -m0/n * delta[m,-1]delta[n,1];
    - the sigma1 row then yields alpha_2[m,n] for n >= 1 from s at
      shifted indices;
    - every alpha_j[m,0] is unconstrained and vanishes by minimality.

    The result is window-independent once the window contains (1,1) and
    (-1,1); the solved operator is re-verified against the commutator
    before being returned.
    """
    if max_m < 1 or max_n < 1:
        raise WindowInfeasibleError(
            f"window m in [-{max_m},{max_m}], n in [0,{max_n}] cannot hold the "
            "solution support {(1,1), (-1,1)}"
        )
    hbar, c, m0 = k.exact()

    def s(m: int, n: int) -> RC:
        return RC(-m0) if (m, n) == (-1, 1) else RC_ZERO

    terms = {}
    denom = RC(0, m0 * c**2)  # i m0 c^2
    for m in range(-max_m, max_m + 1):
        for n in range(1, max_n + 1):
            lhs = s(m - 2, n) * RC(Fraction(1, 2) / m0) - s(m, n + 2) * RC(
                Fraction(hbar**2 * (n + 2) * (n + 1), 8) / m0
            )
            alpha2 = -lhs / denom
            terms[(m, n)] = PauliCoeff(0, 0, alpha2, s(m, n) - RC_I * alpha2)
    op = BDOperator(terms)

    if commutator_with_H(op, k) != identity_times_ihbar(k):
        raise WindowInfeasibleError(
            "windowed recurrences did not reproduce the conjugacy relation; "
            "the window is too small"
        )
    return op


def format_operator(op: BDOperator) -> str:
    """Canonical text form: one line per (m,n) term, exact rational
    complex coefficients over the sigma basis."""
    if op.is_zero():
        return "0"
    lines = []
    for (m, n), coeff in sorted(op.terms.items()):
        comps = "  ".join(f"s{j}: {c}" for j, c in enumerate(coeff.c) if c)
        lines.append(f"T[{m:+d},{n:d}]  {comps}")
    return "\n".join(lines)
