"""Exact polynomial and rational-function arithmetic, and the Delta family."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_normal_form,
    base_values,
    factored_value,
    nonzero_polynomials,
    nonzero_rational_functions,
    polynomials,
    rational_functions,
)
from tlmarkov import qpoly
from tlmarkov.qpoly import (
    _F_ZERO,
    _PSI,
    _PSI_POSITION,
    ONE,
    Q,
    RF_ONE,
    RF_ZERO,
    ZERO,
    PoleError,
    Polynomial,
    RationalFunction,
    _delta_exponents,
    _Factored,
    _from_exponents,
    _from_factored,
    _psi_product,
    _to_factored,
    chebyshev,
    chebyshev_root,
    eval_at,
    poly_divrem,
    poly_gcd,
)


def poly(*coeffs):
    return Polynomial(tuple(coeffs))


def rf(num, den=(1,)):
    return RationalFunction(poly(*num), poly(*den))


# ---------------------------------------------------------------------------
# Polynomial ring operations
# ---------------------------------------------------------------------------


def test_add_inverse_is_zero():
    assert Q + (-Q) == ZERO


def test_monomial_product():
    assert Q * Q == poly(0, 0, 1)


def schoolbook_product(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, c in enumerate(a.coeffs):
        for j, d in enumerate(b.coeffs):
            out[i + j] += c * d
    return Polynomial(tuple(out))


def test_square_against_convolution_oracle():
    a = poly(-1, 0, 1)  # q^2 - 1
    assert a * a == schoolbook_product(a, a) == poly(1, 0, -2, 0, 1)


def test_scale():
    assert Q.scaled(Fraction(1, 2)) == poly(0, Fraction(1, 2))
    assert -poly(1, -2) == poly(-1, 2)


def test_invariants_of_representation():
    assert poly(0, 1, 0).coeffs == (0, 1)
    assert poly().coeffs == ()
    assert poly(Fraction(2, 1)).coeffs == (2,)
    with pytest.raises(TypeError):
        poly(0.5)


@given(polynomials(), polynomials())
def test_mul_matches_schoolbook(a, b):
    assert a * b == schoolbook_product(a, b)


def test_large_product_matches_schoolbook():
    a = Polynomial(tuple((-1) ** i * (i + 1) for i in range(40)))
    b = Polynomial(tuple((i % 7) - 3 for i in range(41)))
    assert a * b == schoolbook_product(a, b)


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=30),
    st.lists(st.integers(-50, 50), min_size=1, max_size=30),
)
def test_exact_division_inverts_multiplication(a_coeffs, b_coeffs):
    a, b = Polynomial(tuple(a_coeffs)), Polynomial(tuple(b_coeffs))
    if a.is_zero or b.is_zero:
        return
    product = a * b
    assert poly_divrem(product, b) == (a, ZERO)
    assert poly_divrem(product, a) == (b, ZERO)


def test_exact_division_detects_inexactness():
    assert not poly_divrem(poly(1, 1), poly(3, 1))[1].is_zero
    assert poly_divrem(poly(-1, 0, 1), poly(-1, 1)) == (poly(1, 1), ZERO)


@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# Division and gcd
# ---------------------------------------------------------------------------


def test_divrem_examples():
    assert poly_divrem(poly(0, -2, 0, 1), Q) == (poly(-2, 0, 1), ZERO)
    assert poly_divrem(Q, poly(0, 0, 1)) == (ZERO, Q)
    assert poly_divrem(poly(-1, 0, 1), poly(-1, 1)) == (poly(1, 1), ZERO)


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divrem(Q, ZERO)


@given(polynomials(), nonzero_polynomials())
def test_divrem_reconstructs(a, b):
    quot, rem = poly_divrem(a, b)
    assert b * quot + rem == a
    assert rem.degree < b.degree


def test_gcd_examples():
    assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)
    assert poly_gcd(Q, poly(-1, 0, 1)) == ONE
    assert poly_gcd(poly(0, -2, 0, 1), poly(-1, 0, 1)) == ONE


def test_gcd_of_zeros_rejected():
    with pytest.raises(ValueError):
        poly_gcd(ZERO, ZERO)


@given(nonzero_polynomials(max_degree=4), nonzero_polynomials(max_degree=4))
def test_gcd_divides_both_and_is_monic(a, b):
    g = poly_gcd(a, b)
    assert g.is_monic
    assert poly_divrem(a, g)[1].is_zero
    assert poly_divrem(b, g)[1].is_zero


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


def test_inverse_pair():
    assert rf((1,), (0, 1)) * rf((0, 1)) == RF_ONE


def test_common_denominator_subtraction():
    assert rf((0, 1)) - rf((1,), (0, 1)) == rf((-1, 0, 1), (0, 1))


def test_nested_denominator_addition():
    a = rf((-1,), (0, 1))  # -1/q
    b = rf((-1,), (0, -1, 0, 1))  # -1/(q(q^2-1))
    assert a + b == rf((0, -1), (-1, 0, 1))  # -q/(q^2-1)


@pytest.mark.parametrize(
    "common", [poly(1, 2), poly(Fraction(1, 2), 1)], ids=["2q+1", "q+1/2"]
)
def test_reduction_by_a_non_monic_gcd(common):
    # the cleared operands share the primitive gcd 2q + 1, which is not monic
    x = RationalFunction(common * poly(-3, 1), common * poly(5, 1))
    assert (x.num, x.den) == (poly(-3, 1), poly(5, 1))
    assert all(type(c) is int for c in x.num.coeffs + x.den.coeffs)
    assert x.den.is_monic


def test_division_by_zero_rational_function():
    with pytest.raises(ZeroDivisionError):
        RF_ONE / RF_ZERO
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, ZERO)


@given(rational_functions())
def test_outputs_are_reduced(x):
    assert x.den.is_monic
    if x.is_zero:
        assert x.num == ZERO and x.den == ONE
    else:
        assert poly_gcd(x.num, x.den) == ONE


@given(rational_functions(), rational_functions(), rational_functions())
@settings(max_examples=60)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RF_ZERO


@given(nonzero_rational_functions())
def test_multiplicative_inverse(a):
    assert a * (RF_ONE / a) == RF_ONE


# ---------------------------------------------------------------------------
# Chebyshev family
# ---------------------------------------------------------------------------


def test_delta_base_cases():
    assert chebyshev(-1) == ZERO
    assert chebyshev(0) == ONE
    assert chebyshev(1) == Q
    assert chebyshev(3) == poly(0, -2, 0, 1)


def test_delta_rejects_below_minus_one():
    with pytest.raises(ValueError):
        chebyshev(-2)


@pytest.mark.parametrize("k", range(1, 21))
def test_delta_recursion(k):
    assert chebyshev(k) == Q * chebyshev(k - 1) - chebyshev(k - 2)


def cofactor_determinant(rows):
    """Independent determinant oracle: first-row cofactor expansion."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = ZERO
    for j, head in enumerate(rows[0]):
        if head.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = head * cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("k", range(1, 9))
def test_delta_equals_tridiagonal_determinant(k):
    rows = [
        [
            Q if i == j else (ONE if abs(i - j) == 1 else ZERO)
            for j in range(k)
        ]
        for i in range(k)
    ]
    assert chebyshev(k) == cofactor_determinant(rows)


@pytest.mark.parametrize("k", range(0, 12))
def test_delta_monic_of_degree_k(k):
    assert chebyshev(k).degree == k
    assert chebyshev(k).is_monic


@pytest.mark.parametrize("m", range(1, 9))
def test_delta_vanishes_at_its_principal_root(m):
    assert abs(eval_at(chebyshev(m), 2.0 * math.cos(math.pi / (m + 1)))) < 1e-9


@pytest.mark.parametrize("m", list(range(1, 9)) + [20, 64])
def test_certified_root_isolation(m):
    root = chebyshev_root(m, bits=128)
    assert abs(eval_at(chebyshev(m), root)) < Fraction(1, 2**90)
    assert abs(root - Fraction(2.0 * math.cos(math.pi / (m + 1)))) < Fraction(1, 2**40)


def test_root_isolation_bounds():
    with pytest.raises(ValueError):
        chebyshev_root(0)
    with pytest.raises(ValueError):
        chebyshev_root(65)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_exact_evaluation():
    assert eval_at(chebyshev(2), 1) == 0
    assert eval_at(chebyshev(3), Fraction(1, 2)) == Fraction(1, 8) - 1
    assert eval_at(rf((1,), (0, 1)), Fraction(1, 3)) == 3


def test_float_evaluation():
    assert eval_at(chebyshev(1), 2.0 * math.cos(math.pi / 2)) == pytest.approx(0.0)
    assert abs(eval_at(chebyshev(3), 1.41421356)) < 1e-7
    assert abs(eval_at(chebyshev(3), math.sqrt(2.0))) < 1e-12


def test_pole_detection():
    with pytest.raises(PoleError) as info:
        eval_at(rf((1,), (0, 1)), 0)
    assert info.value.magnitude == 0.0
    with pytest.raises(PoleError) as info:
        eval_at(rf((1,), (0, 1)), 1e-13)
    assert info.value.magnitude == pytest.approx(1e-13)
    # configurable tolerance
    assert eval_at(rf((1,), (0, 1)), 1e-13, pole_tolerance=1e-14) == pytest.approx(1e13)


@given(polynomials(), st.fractions(min_value=-4, max_value=4, max_denominator=8))
def test_exact_eval_matches_direct_sum(p, x):
    expected = sum(
        (Fraction(c) * Fraction(x) ** i for i, c in enumerate(p.coeffs)),
        Fraction(0),
    )
    assert p.evaluate(Fraction(x)) == expected


# ---------------------------------------------------------------------------
# Rendering and serialization
# ---------------------------------------------------------------------------


def test_rendering():
    assert str(chebyshev(3)) == "q^3 - 2*q"
    assert str(ZERO) == "0"
    assert str(poly(1, 0, -1)) == "-q^2 + 1"
    assert str(rf((0, -1), (-1, 0, 1))) == "-q/(q^2 - 1)"
    assert str(rf((-1, 0, 1), (0, 1))) == "(q^2 - 1)/q"
    assert str(rf((1,), (0, 0, 1))) == "1/q^2"


@given(polynomials())
def test_polynomial_json_round_trip(p):
    assert Polynomial.from_json(p.to_json()) == p


@given(rational_functions())
def test_rational_function_json_round_trip(x):
    assert RationalFunction.from_json(x.to_json()) == x


def test_json_uses_decimal_free_strings():
    obj = rf((Fraction(-1, 2), 1), (0, 1)).to_json()
    assert obj["num"]["coeffs"] == ["-1/2", "1"]
    assert obj["den"]["coeffs"] == ["0", "1"]


# ---------------------------------------------------------------------------
# Coefficients over the Chebyshev factor base
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(0, 21))
def test_delta_is_the_product_of_its_psi_factors(k):
    exponents = _delta_exponents(k)
    assert _psi_product(exponents) == chebyshev(k)
    divisors = {d for d in range(3, 2 * k + 3) if (2 * k + 2) % d == 0}
    assert {d for d, i in _PSI_POSITION.items() if i < len(exponents) and exponents[i]} == divisors
    assert set(exponents) <= {0, 1}


def test_psi_is_the_minimal_polynomial_of_2cos():
    _delta_exponents(20)
    for d, i in _PSI_POSITION.items():
        psi = Polynomial(_PSI[i])
        totient = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
        assert psi.is_monic and psi.degree == totient // 2, d
        for j in range(1, d // 2 + 1):
            value = psi.evaluate(2 * math.cos(2 * math.pi * j / d))
            assert (abs(value) < 1e-6) == (math.gcd(j, d) == 1), (d, j)


def fresh_from_factored(value):
    """_from_factored of value, converted afresh rather than read from the memo."""
    return _from_factored.__wrapped__(value)


@given(base_values())
@settings(max_examples=150)
def test_factored_round_trip(x):
    f = _to_factored(x)
    assert f is not None
    assert_normal_form(f)
    assert factored_value(f) == x
    assert fresh_from_factored(f) == x


@given(base_values(), base_values(), base_values())
@settings(max_examples=100)
def test_equal_factored_values_are_equal_tuples(x, y, z):
    a, b, c = (_to_factored(v) for v in (x, y, z))
    for got, want in (
        (a.times(b), x * y),
        (a.minus(b), x - y),
        (a.times(c).minus(b.times(c)), (x - y) * z),
        (a.minus(b).times(c), (x - y) * z),
        (a.minus(b).minus(a.minus(b)), RF_ZERO),
        (b.times(a), x * y),
    ):
        assert_normal_form(got)
        assert factored_value(got) == want
        assert got == _to_factored(want)
    assert a.times(c).minus(b.times(c)) == a.minus(b).times(c)
    assert a.minus(a) == _F_ZERO


def full_normal(num, den, exps):
    """Reference normal form: trial division by every Psi_i of the base while
    it divides, the exponent going below zero where it must, whether or not
    irreducibility allows Psi_i to divide, and with no pruning test."""
    num, exps = list(num), list(exps)
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return _F_ZERO
    exps += [0] * (len(_PSI) - len(exps))
    for i, psi in enumerate(_PSI):
        while len(num) > 1:
            quot, rem = qpoly._divrem(num, psi)
            if rem:
                break
            num, exps[i] = quot, exps[i] - 1
    while exps and not exps[-1]:
        exps.pop()
    g = math.gcd(den, *num)
    return _Factored(tuple(c // g for c in num), den // g, tuple(exps))


def factor_values(max_degree=3):
    """Base values whose numerators carry Psi_d factors too, so that products
    and differences cancel some of them."""
    _delta_exponents(8)
    exponents = st.lists(st.integers(0, 2), max_size=len(_PSI))
    return st.tuples(polynomials(max_degree, 6), exponents, exponents, st.integers(1, 6)).map(
        lambda t: RationalFunction(t[0] * _psi_product(t[1]), _psi_product(t[2]).scaled(t[3]))
    )


@given(factor_values(), factor_values())
@settings(max_examples=200)
def test_pruned_trial_division_matches_the_full_one(x, y):
    """times and minus give the tuple of the full trial division, on values
    whose products and differences cancel some Psi_d."""
    a, b = _to_factored(x), _to_factored(y)
    for left, right in ((a, b), (b, a), (a, a)):
        if not left.num or not right.num:
            continue
        p, r = qpoly._padded(left.exps, right.exps)
        product = full_normal(
            qpoly._mul(left.num, right.num),
            left.den * right.den,
            [u + v for u, v in zip(p, r)],
        )
        assert left.times(right) == product
        exps = [max(u, v) for u, v in zip(p, r)]
        den = math.lcm(left.den, right.den)
        minuend, subtrahend = left._over(exps, den), right._over(exps, den)
        minuend += [0] * (len(subtrahend) - len(minuend))
        difference = full_normal(
            [c - (subtrahend[i] if i < len(subtrahend) else 0) for i, c in enumerate(minuend)],
            den,
            exps,
        )
        assert left.minus(right) == difference
    assert factored_value(a.times(b)) == x * y
    assert factored_value(a.minus(b)) == x - y


def normal_arguments(max_degree=3):
    """Arguments of _normal: an integer numerator that carries Psi_d factors,
    a scalar and an exponent vector, each possibly with trailing zeros."""
    _delta_exponents(8)
    carried = st.lists(st.integers(0, 2), max_size=len(_PSI))
    exponents = st.lists(st.integers(0, 3), max_size=len(_PSI))
    coeffs = st.lists(st.integers(-6, 6), max_size=max_degree + 1)
    numerators = st.tuples(coeffs, carried, st.integers(0, 2)).map(
        lambda t: list((Polynomial(tuple(t[0])) * _psi_product(t[1])).coeffs) + [0] * t[2]
    )
    return st.tuples(numerators, st.integers(1, 12), exponents)


@given(normal_arguments())
@settings(max_examples=200)
def test_normal_divides_out_every_psi_that_divides(arguments):
    """_normal is told nothing about which Psi_i can divide the numerator,
    and gives the tuple of the full trial division in normal form."""
    num, den, exps = arguments
    got = qpoly._normal(list(num), den, list(exps))
    assert_normal_form(got)
    assert got == full_normal(num, den, exps)


def signed_exponents():
    """Signed exponent vectors over the base of Delta_1..Delta_8, possibly
    with trailing zeros."""
    width = len(_delta_exponents(8))
    return st.lists(st.integers(-3, 3), max_size=width)


def assert_reduced_quotient(exps):
    """_from_exponents(exps) is in normal form and is the factor-base form of
    the gcd-reduced quotient of the positive Psi powers by the negative ones,
    expanded without the memo."""
    got = _from_exponents(exps)
    assert_normal_form(got)
    num = _psi_product([max(e, 0) for e in exps])
    den = _psi_product([max(-e, 0) for e in exps])
    assert got == _to_factored(RationalFunction(num, den))
    return got


@given(signed_exponents())
@settings(max_examples=200)
def test_from_exponents_is_the_reduced_quotient(exps):
    assert_reduced_quotient(exps)


@pytest.mark.parametrize("h", range(2, 11))
def test_from_exponents_of_the_recursion_ratio(h):
    """Delta_{h-2}/Delta_{h-1}, the ratio of the orthogonal vectors' recursion."""
    lower, upper = qpoly._padded(_delta_exponents(h - 2), _delta_exponents(h - 1))
    got = assert_reduced_quotient([x - y for x, y in zip(lower, upper)])
    assert fresh_from_factored(got) == RationalFunction(chebyshev(h - 2), chebyshev(h - 1))


@pytest.mark.parametrize("c", range(9))
def test_from_exponents_of_the_powers_of_q(c):
    """q^c = Delta_1^c, the Gram entries and the half-pairings' loop factor."""
    got = assert_reduced_quotient([c * e for e in _delta_exponents(1)])
    assert got == _Factored((1,), 1, (-c,) if c else ())


def signed_values(max_degree=3):
    """num * prod_i Psi_i^-e[i] / den over random signed exponent vectors e
    on the base of Delta_1..Delta_6, as RationalFunctions."""
    exponents = st.lists(st.integers(-2, 2), max_size=len(_delta_exponents(6)))
    return st.tuples(nonzero_polynomials(max_degree, 6), exponents, st.integers(1, 6)).map(
        lambda t: RationalFunction(
            t[0] * _psi_product([max(-e, 0) for e in t[1]]),
            _psi_product([max(e, 0) for e in t[1]]).scaled(t[2]),
        )
    )


@given(signed_values(), signed_values(), polynomials(2, 4), st.lists(st.integers(0, 2), max_size=8))
@settings(max_examples=150)
def test_times_and_minus_over_signed_exponents(x, y, w, carried):
    """times and minus agree with RationalFunction arithmetic in normal form,
    on values whose exponent vectors are signed; z differs from x by a
    multiple of Psi powers, so x - z carries in its numerator Psi factors
    that neither operand's exponents show."""
    z = x - RationalFunction(w * _psi_product(carried), ONE)
    values = [(_to_factored(v), v) for v in (x, y, z)]
    for f, _ in values:
        assert_normal_form(f)
    for left, left_value in values:
        for right, right_value in values:
            for got, want in (
                (left.times(right), left_value * right_value),
                (left.minus(right), left_value - right_value),
            ):
                assert_normal_form(got)
                assert factored_value(got) == want
                assert got == _to_factored(want)


def test_denominators_outside_the_base_do_not_translate():
    _delta_exponents(8)
    assert _to_factored(rf((1,), (1, 0, 1))) is None  # q^2 + 1
    assert _to_factored(rf((1,), (Fraction(1, 2), 1))) is None  # q + 1/2
    assert _to_factored(rf((1,), (-1, 0, 0, 1))) is None  # (q - 1)(q^2 + q + 1)
    assert _to_factored(rf((1,), (-1, 0, 0, 0, 1))) is None  # Delta_2 (q^2 + 1)
    assert _to_factored(rf((1,), (-1, 1, 1))) is not None  # Psi_5
