"""Exact univariate arithmetic over Q(q).

A :class:`Polynomial` is a dense ascending coefficient tuple over exact
rationals (``int`` or :class:`fractions.Fraction`; never floats).  A
:class:`RationalFunction` is a fully reduced quotient of two polynomials with
a monic denominator, so equality of values is structural equality of the
representation.

The module also provides the Chebyshev-like family ``Delta_k``: the
determinant of the k-by-k tridiagonal matrix with ``q`` on the diagonal and
``1`` on the off-diagonals.  It satisfies

    Delta_k = q*Delta_{k-1} - Delta_{k-2},   Delta_0 = 1,  Delta_{-1} = 0,

and, writing ``q = 2*cos(t)``, the closed form ``Delta_k = sin((k+1)t)/sin(t)``
(a rescaled Chebyshev polynomial of the second kind).  Its largest root is
``2*cos(pi/(k+1))``, the classical degeneracy parameter of the Markov form.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = [
    "Polynomial",
    "RationalFunction",
    "PoleError",
    "poly_divrem",
    "poly_gcd",
    "chebyshev",
    "chebyshev_root",
    "eval_at",
    "ZERO",
    "ONE",
    "Q",
    "RF_ZERO",
    "RF_ONE",
]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at (or numerically near) a pole.

    ``magnitude`` carries ``|den(q0)|``: exactly zero on the exact path,
    the offending small absolute value on the float path.
    """

    def __init__(self, message: str, magnitude: float) -> None:
        super().__init__(message)
        self.magnitude = magnitude


def _exactify(c) -> Scalar:
    """Coerce a coefficient to canonical exact form (int preferred)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and int subclasses
        return int(c)
    raise TypeError(f"exact rational coefficient expected, got {type(c).__name__}")


def _int_primitive(coeffs: Sequence[int]) -> list[int]:
    g = math.gcd(*coeffs)
    if g in (0, 1):
        return list(coeffs)
    return [c // g for c in coeffs]


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of two integer coefficient lists (primitive PRS)."""
    a, b = _int_primitive(a), _int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:  # a nonzero constant
            return [1]
        lead = b[-1]
        r = list(a)
        while r and len(r) >= len(b):
            top = r[-1]
            r = [lead * c for c in r]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= top * c
            del r[-1]
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _int_primitive(r)
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _clear_denominators(coeffs: Sequence[Scalar]) -> tuple[list[int], int]:
    """Return (integer coefficients, common denominator)."""
    denom = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
    if denom == 1:
        return [int(c) for c in coeffs], 1
    return [int(c * denom) for c in coeffs], denom


def _mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    """Schoolbook product of two ascending coefficient sequences."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c == 0:
            continue
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _horner(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    """The value at x of ascending coefficients."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _divrem(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    """Long division of ascending coefficient sequences, b without trailing
    zeros; a monic integer b keeps integer quotient and remainder."""
    rem = list(a)
    lead = b[-1]
    quot = [0] * max(0, len(rem) - len(b) + 1)
    while rem and len(rem) >= len(b):
        t = rem[-1] if lead == 1 else Fraction(rem[-1]) / lead
        shift = len(rem) - len(b)
        quot[shift] = t
        for i, c in enumerate(b):
            rem[shift + i] -= t * c
        del rem[-1]
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial in q over exact rationals.

    ``coeffs[i]`` is the coefficient of ``q**i``; the tuple carries no
    trailing zeros and the zero polynomial is the empty tuple.

    >>> str(Polynomial((0, -2, 0, 1)))
    'q^3 - 2*q'
    >>> Polynomial((1, 1)) * Polynomial((-1, 1))
    Polynomial(coeffs=(-1, 0, 1))
    """

    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        cs = tuple(_exactify(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * degree + (coeff,))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(tuple(_mul(self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def scaled(self, scalar: Scalar) -> "Polynomial":
        scalar = _exactify(scalar)
        if scalar == 0:
            return ZERO
        return Polynomial(tuple(c * scalar for c in self.coeffs))

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers live in RationalFunction")
        result, base, e = ONE, self, exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- division ------------------------------------------------------------

    def divrem(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder with deg(remainder) < deg(divisor)."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quot, rem = _divrem(self.coeffs, divisor.coeffs)
        return Polynomial(tuple(quot)), Polynomial(tuple(rem))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0):
        """Horner evaluation: exact rational in, Fraction out; float in, float out."""
        if isinstance(q0, float):
            return float(_horner(self.coeffs, q0))
        if isinstance(q0, (int, Fraction)):
            return self._evaluate_exact(Fraction(q0))
        raise TypeError("evaluation point must be an exact rational or a float")

    def _evaluate_exact(self, q0: Fraction) -> Fraction:
        # integer Horner on p/r: value = sum c_i p^i r^(d-i) / (L * r^d),
        # after clearing coefficient denominators by L
        if not self.coeffs:
            return Fraction(0)
        ints, scale = _clear_denominators(self.coeffs)
        p, r = q0.numerator, q0.denominator
        acc = 0
        rpow = 1
        for c in reversed(ints):
            acc = acc * p + c * rpow
            rpow *= r
        # rpow is now r^(d+1); the value denominator uses r^d
        return Fraction(acc * r, scale * rpow)

    # -- rendering / serialization --------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if i == 0:
                body = f"{mag}"
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def to_json(self) -> dict:
        return {"coeffs": [str(Fraction(c)) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        return cls(tuple(Fraction(s) for s in obj["coeffs"]))


ZERO = Polynomial(())
ONE = Polynomial((1,))
Q = Polynomial((0, 1))


def _coerce_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    return NotImplemented


def poly_divrem(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact division with remainder: a = b*quotient + remainder."""
    return a.divrem(b)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor via a primitive remainder sequence."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    ia, _ = _clear_denominators(a.coeffs)
    ib, _ = _clear_denominators(b.coeffs)
    return _monic(Polynomial(tuple(_int_gcd(ia, ib))))


def _monic(p: Polynomial) -> Polynomial:
    lead = p.leading_coefficient
    if lead == 1:
        return p
    inv = Fraction(1, 1) / lead
    return p.scaled(inv)


@dataclass(frozen=True)
class RationalFunction:
    """Element of Q(q) in reduced normal form.

    Invariants (restored on construction): the denominator is monic and
    nonzero, gcd(num, den) is constant, and zero is represented as 0/1.
    Structural equality therefore decides equality of values.
    """

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, ONE)

    @classmethod
    def _from_normal(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """A quotient the caller knows is in normal form; no gcd is taken."""
        value = object.__new__(cls)
        object.__setattr__(value, "num", num)
        object.__setattr__(value, "den", den)
        return value

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    # -- field operations ----------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- evaluation / rendering ------------------------------------------------

    def evaluate(self, q0, *, pole_tolerance: float = 1e-12):
        """Evaluate at q0; raises PoleError at (or numerically near) a pole."""
        d = self.den.evaluate(q0)
        if isinstance(q0, float):
            if abs(d) < pole_tolerance:
                raise PoleError(f"pole near q = {q0!r}", abs(d))
            return self.num.evaluate(q0) / d
        if d == 0:
            raise PoleError(f"pole at q = {q0!r}", 0.0)
        return self.num.evaluate(q0) / d

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"{_wrap(self.num)}/{_wrap(self.den)}"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "RationalFunction":
        return cls(Polynomial.from_json(obj["num"]), Polynomial.from_json(obj["den"]))


def _wrap(p: Polynomial) -> str:
    """Parenthesize operands that would read ambiguously inside a quotient."""
    text = str(p)
    return f"({text})" if (" " in text or "/" in text) else text


def _reduce(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    ni, nscale = _clear_denominators(num.coeffs)
    di, dscale = _clear_denominators(den.coeffs)
    g = _int_gcd(ni, di)
    if len(g) > 1:
        # g is primitive, so by Gauss's lemma both quotients are integral
        divisor = Polynomial(tuple(g))
        nq, nr = Polynomial(tuple(ni)).divrem(divisor)
        dq, dr = Polynomial(tuple(di)).divrem(divisor)
        assert nr.is_zero and dr.is_zero
        ni, di = nq.coeffs, dq.coeffs
    # scalar part: (dscale/nscale) carried onto the numerator, then the
    # denominator made monic
    scalar = Fraction(dscale, nscale) / Fraction(di[-1])
    num = Polynomial(tuple(ni)).scaled(scalar)
    den = Polynomial(tuple(di)).scaled(Fraction(1, 1) / di[-1])
    return num, den


def _coerce_ratfun(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value, ONE)
    if isinstance(value, (int, Fraction)):
        return RationalFunction(Polynomial((value,)), ONE)
    return NotImplemented


RF_ZERO = RationalFunction(ZERO, ONE)
RF_ONE = RationalFunction(ONE, ONE)


# ---------------------------------------------------------------------------
# The Delta_k family.
# ---------------------------------------------------------------------------

_CHEB_LOCK = threading.Lock()
_CHEB: list[Polynomial] = [ZERO, ONE]  # index k+1 holds Delta_k, from k = -1


def chebyshev(k: int) -> Polynomial:
    """Delta_k by the three-term recursion, cached so repeat calls are O(1).

    >>> str(chebyshev(3))
    'q^3 - 2*q'
    """
    if k < -1:
        raise ValueError(f"Delta_k is defined for k >= -1, got {k}")
    if k + 1 < len(_CHEB):
        return _CHEB[k + 1]
    with _CHEB_LOCK:
        # single writer extends the table; readers only ever see filled slots
        while len(_CHEB) <= k + 1:
            _CHEB.append(Q * _CHEB[-1] - _CHEB[-2])
    return _CHEB[k + 1]


def chebyshev_root(m: int, bits: int = 256) -> Fraction:
    """Rational approximation of 2*cos(pi/(m+1)), the largest root of Delta_m.

    The result is within 2**-bits of the algebraic value, certified by exact
    sign-change bisection.  Exact for m = 1, 2 (the roots 0 and 1).  Supported
    for 1 <= m <= 64 (the float seed isolates the top root in that range).
    """
    if not 1 <= m <= 64:
        raise ValueError("m must be between 1 and 64")
    if m == 1:
        return Fraction(0)
    if m == 2:
        return Fraction(1)
    p = chebyshev(m)
    seed = 2.0 * math.cos(math.pi / (m + 1))
    # the gap to the next root 2cos(2*pi/(m+1)) exceeds 2e-3 for m <= 64,
    # so a +/-1e-3 window isolates the top root; certify by exact signs
    lo = Fraction(seed) - Fraction(1, 1000)
    hi = min(Fraction(2), Fraction(seed) + Fraction(1, 1000))
    flo, fhi = p.evaluate(lo), p.evaluate(hi)
    if not (flo < 0 < fhi):
        raise ArithmeticError("failed to isolate the principal root")
    for _ in range(bits + 2):
        mid = (lo + hi) / 2
        if p.evaluate(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Coefficients over the Chebyshev factor base.
# ---------------------------------------------------------------------------
#
# Delta_k has the roots 2cos(j pi/(k+1)), j = 1..k, so it is the product of
# the minimal polynomials Psi_d of 2cos(2 pi/d) over d | 2k+2, d >= 3; each
# Psi_d is monic with integer coefficients and irreducible.  The orthogonal
# vectors and the half-pairings have every denominator dividing a product of
# Delta_j (Ko-Smolinsky), so the engine keeps them as _Factored values and
# reduces by trial division by the Psi_d present, never by a gcd.

_FACTOR_LOCK = threading.Lock()
_PSI: list[tuple[int, ...]] = []  # Psi_d by position, in the order d is first needed
_PSI_POSITION: dict[int, int] = {}  # d -> position in _PSI
_DELTA_EXPONENTS: list[tuple[int, ...]] = [()]  # index k holds Delta_k over _PSI
# Psi_i at an integer point; never 0, since every root lies in [-2, 2)
_POINT = 1000
_PSI_AT: list[int] = []


def _delta_exponents(k: int) -> tuple[int, ...]:
    """Delta_k over the factor base, which grows through Delta_k.

    The base grows with k, so a position once given to Psi_d never changes
    and exponent vectors stay comparable across sizes in one process.
    """
    if k < len(_DELTA_EXPONENTS):
        return _DELTA_EXPONENTS[k]
    with _FACTOR_LOCK:
        # single writer extends the tables; readers only ever see filled slots
        while len(_DELTA_EXPONENTS) <= k:
            j = len(_DELTA_EXPONENTS)
            # the d | 2j + 2 that divide no 2i + 2 with i < j
            for d in (j + 1, 2 * j + 2):
                if d >= 3 and d not in _PSI_POSITION:
                    psi = _psi(d)
                    # first, so every position a reader finds in _PSI has its value
                    _PSI_AT.append(_horner(psi, _POINT))
                    _PSI.append(psi)
                    _PSI_POSITION[d] = len(_PSI) - 1
            exponents = [0] * len(_PSI)
            for d in range(3, 2 * j + 3):
                if (2 * j + 2) % d == 0:
                    exponents[_PSI_POSITION[d]] = 1
            _DELTA_EXPONENTS.append(tuple(exponents))
    return _DELTA_EXPONENTS[k]


def _psi(d: int) -> tuple[int, ...]:
    """Psi_d, from the Psi_e with e | d, 3 <= e < d, already in the base."""
    # W has the roots 2cos(2 pi i/d), 0 < i < d/2: it is the product of the
    # Psi_e over e | d, e >= 3 (sin(d t/2)/sin(t/2) for odd d)
    if d % 2:
        w = chebyshev((d - 1) // 2) + chebyshev((d - 3) // 2)
    else:
        w = chebyshev(d // 2 - 1)
    coeffs = w.coeffs
    for e in range(3, d):
        if d % e == 0:
            coeffs, rem = _divrem(coeffs, _PSI[_PSI_POSITION[e]])
            if rem:
                raise ArithmeticError(f"Psi_{e} does not divide W_{d}")
    return tuple(coeffs)


class _Factored(NamedTuple):
    """The value num / prod_i Psi_i^exps[i] over the factor base, num an
    integer polynomial; a negative exps[i] is a power of Psi_i in the
    numerator.

    Normal form: no Psi_i of the base divides num, exps has no trailing
    zeros, and zero is ((), ()).  No scalar denominator is needed: every
    denominator the engine makes divides a product of Delta_j
    (Ko-Smolinsky), a product of monic integer Psi_d, and an exact division
    of an integer polynomial by a monic integer one leaves integer
    coefficients (Gauss's lemma).  Equal values made under one base are
    equal tuples, since the Psi-adic valuations fix exps and then num; the
    values the engine makes at size k carry no Psi_d outside the base of
    Delta_1..Delta_k (a test pins this), so the base growing later changes
    none of them.  :func:`_normal` puts a difference or a converted value in
    this form; a product of values in it is in it once its exponents are
    added (:func:`_reduced`), since each Psi_i is monic and irreducible.
    A value is made from its net Psi exponents
    (:func:`_from_exponents`), by ``times`` and ``minus``, or from a
    RationalFunction (:func:`_to_factored`), and is read as polynomials only
    through :func:`_expanded`.
    """

    num: tuple[int, ...]
    exps: tuple[int, ...]

    def __str__(self) -> str:
        return str(_from_factored(self))

    def times(self, other: "_Factored") -> "_Factored":
        if not self.num or not other.num:
            return _F_ZERO
        a, b = _padded(self.exps, other.exps)
        return _reduced(_mul(self.num, other.num), [x + y for x, y in zip(a, b)])

    def minus(self, other: "_Factored") -> "_Factored":
        if not other.num:
            return self
        if not self.num:
            return _Factored(tuple(-c for c in other.num), other.exps)
        a, b = _padded(self.exps, other.exps)
        exps = [max(x, y) for x, y in zip(a, b)]
        left, right = self._over(exps), other._over(exps)
        if len(left) < len(right):
            left += [0] * (len(right) - len(left))
        for i, c in enumerate(right):
            left[i] -= c
        return _normal(left, exps)

    def _over(self, exps: list[int]) -> list[int]:
        """The numerator of this value over prod_i Psi_i^exps[i], with each
        exps[i] at least this value's own."""
        num = list(self.num)
        for i, e in enumerate(exps):
            for _ in range(e - (self.exps[i] if i < len(self.exps) else 0)):
                num = _mul(num, _PSI[i])
        return num


_F_ZERO = _Factored((), ())
_F_ONE = _Factored((1,), ())


def _padded(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Two exponent vectors brought to one length."""
    return a + (0,) * (len(b) - len(a)), b + (0,) * (len(a) - len(b))


def _normal(num: list[int], exps: list[int]) -> _Factored:
    """num / prod_i Psi_i^exps[i] in normal form: each Psi_i of the base is
    divided out exactly while it divides num, lowering exps[i] below zero
    where it must, before :func:`_reduced`."""
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return _F_ZERO
    # Psi_i is monic, so Psi_i | num gives Psi_i(x) | num(x) at an integer x:
    # a division is tried only where that cheap necessary test passes
    value = _horner(num, _POINT) if len(num) > 1 else 1
    for i, psi in enumerate(_PSI):
        at = _PSI_AT[i]
        divided = 0
        while len(num) >= len(psi) and not value % at:
            quot, rem = _divrem(num, psi)
            if rem:
                break
            num, divided, value = quot, divided + 1, value // at
        if divided:
            exps += [0] * (i + 1 - len(exps))
            exps[i] -= divided
    return _reduced(num, exps)


def _reduced(num: list[int], exps: list[int]) -> _Factored:
    """num / prod_i Psi_i^exps[i] in normal form, for a nonzero num that no
    Psi_i of the base divides: the trailing zero exponents dropped.  Every
    _Factored but 0 and 1 is made here, through :func:`_normal` or not, or
    negated from one made here."""
    while exps and not exps[-1]:
        exps.pop()
    return _Factored(tuple(num), tuple(exps))


def _psi_product(exps: Sequence[int]) -> Polynomial:
    """prod_i Psi_i^exps[i]."""
    result = ONE
    for psi, e in zip(_PSI, exps):
        if e:
            result = result * Polynomial(psi) ** e
    return result


# the products made at the RationalFunction edge, the Psi powers of the
# numerators and the denominators of converted values: at size 7 the 980
# distinct coefficients of the vectors share 153 denominators, and the 761
# with a Psi power in the numerator share 150 such powers
@functools.cache
def _psi_power(exps: tuple[int, ...]) -> Polynomial:
    """prod_i Psi_i^exps[i], expanded once per exponent vector."""
    return _psi_product(exps)


def _from_exponents(exps: Sequence[int]) -> _Factored:
    """prod_i Psi_i^exps[i] for signed exps over the base, in normal form."""
    return _reduced([1], [-e for e in exps])


def _to_factored(value: RationalFunction) -> _Factored | None:
    """value over the factor base as grown so far, through :func:`_normal`;
    None unless its numerator and its monic denominator have integer
    coefficients and the denominator factors over the base.  A rational
    scalar is a denominator outside the base."""
    num, den = list(value.num.coeffs), list(value.den.coeffs)
    if any(type(c) is not int for c in num + den):
        return None
    # what the Psi_d of the base leave of the monic denominator: 1 if it factors
    rest = _normal(den, [])
    if rest.num != (1,):
        return None
    return _normal(num, [-e for e in rest.exps])


def _expanded(value: _Factored) -> tuple[Polynomial, Polynomial]:
    """The integer numerator and the monic denominator of value as one
    reduced quotient: the negative powers multiplied into the numerator."""
    num = value.num
    if any(e < 0 for e in value.exps):
        num = _mul(num, _psi_power(tuple(max(-e, 0) for e in value.exps)).coeffs)
    return Polynomial(tuple(num)), _psi_power(tuple(max(e, 0) for e in value.exps))


# each distinct value is converted once (twice, to equal values, when two
# threads race on its first conversion)
@functools.cache
def _from_factored(value: _Factored) -> RationalFunction:
    """The RationalFunction of a value in normal form."""
    return RationalFunction._from_normal(*_expanded(value))


def eval_at(x, q0, *, pole_tolerance: float = 1e-12):
    """Evaluate a Polynomial or RationalFunction at q0.

    Exact rational q0 gives an exact Fraction; float q0 gives a float.  A
    rational function evaluated where the denominator (numerically) vanishes
    raises :class:`PoleError` carrying ``|den(q0)|``.
    """
    if isinstance(x, Polynomial):
        return x.evaluate(q0)
    if isinstance(x, RationalFunction):
        return x.evaluate(q0, pole_tolerance=pole_tolerance)
    raise TypeError("eval_at expects a Polynomial or RationalFunction")
