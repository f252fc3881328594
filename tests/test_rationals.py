from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

from mplparity.oracle import ber_value
from mplparity.rationals import (
    RatPolynomial,
    ber_at_phase,
    bernoulli_number,
    bernoulli_polynomial,
    binom,
    signed_binomial,
)


def test_bernoulli_numbers_small():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence_independent():
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 checked directly for n >= 1
    for n in range(1, 30):
        acc = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
        assert acc == 0


def test_odd_bernoulli_vanish():
    for n in range(1, 21):
        assert bernoulli_number(2 * n + 1) == 0


def test_bernoulli_polynomial_small():
    assert bernoulli_polynomial(0) == RatPolynomial([1])
    assert bernoulli_polynomial(1) == RatPolynomial([Fraction(-1, 2), 1])
    assert bernoulli_polynomial(2) == RatPolynomial([Fraction(1, 6), -1, 1])


def test_bernoulli_polynomial_is_built_once_per_degree():
    p = bernoulli_polynomial(6)
    assert bernoulli_polynomial(6) is p
    assert p(Fraction(1, 2)) == Fraction(-31, 1344)
    assert bernoulli_polynomial(6).coeffs == (Fraction(1, 42), 0, Fraction(-1, 2), 0, Fraction(5, 2), -3, 1)


def test_bernoulli_polynomial_via_series_oracle():
    # expand t e^{xt}/(e^t - 1) to order t^n with exact rational series
    # arithmetic and compare coefficients of B_2(x)
    order = 6
    # series of t/(e^t - 1) = sum B_n t^n / n!
    # independent route: invert the series (e^t - 1)/t term by term
    denom = [Fraction(1, comb(1, 1))]  # placeholder, rebuilt below
    fact = [1]
    for i in range(1, order + 2):
        fact.append(fact[-1] * i)
    denom = [Fraction(1, fact[k + 1]) for k in range(order + 1)]  # (e^t-1)/t
    inv = [Fraction(0)] * (order + 1)
    inv[0] = Fraction(1)
    for k in range(1, order + 1):
        inv[k] = -sum(denom[j] * inv[k - j] for j in range(1, k + 1))
    # multiply by e^{xt}: coefficient of t^n is sum_k inv[k] x^{n-k}/(n-k)!
    for n in range(order + 1):
        coeffs = [inv[n - a] / fact[a] for a in range(n + 1)]
        expected = RatPolynomial([c * fact[n] for c in coeffs])
        assert bernoulli_polynomial(n) == expected


def test_half_argument_identity():
    for s in range(1, 21):
        lhs = bernoulli_polynomial(2 * s)(Fraction(1, 2))
        rhs = (Fraction(2) ** (1 - 2 * s) - 1) * bernoulli_number(2 * s)
        assert lhs == rhs


def test_reflection_identity():
    # B_n(1 - x) = (-1)^n B_n(x): both sides have degree n, so agreement at
    # n + 1 distinct points decides the identity
    for n in range(21):
        p = bernoulli_polynomial(n)
        for i in range(n + 1):
            x = Fraction(i, n + 1)
            assert p(1 - x) == (-1) ** n * p(x)


def test_ber_at_phase_matches_numeric_ber():
    with mp.workdps(50):
        ipi = mp.pi * mp.mpc(0, 1)
        for k in range(13):
            for j in range(1, 12):
                t = Fraction(j, 12)
                r = ber_at_phase(k, t)
                z = mp.expjpi(2 * mp.mpf(j) / 12)
                exact = mp.mpf(r.numerator) / r.denominator * ipi ** k
                assert abs(exact - ber_value(k, z)) < mp.mpf("1e-35")
    for k in range(13):
        assert ber_at_phase(k, Fraction(0)) == Fraction(2 ** k, factorial(k)) * bernoulli_number(k)


def test_signed_binomial_values():
    assert signed_binomial(5, 2) == 10
    assert signed_binomial(-1, 3) == -1
    assert signed_binomial(-3, 2) == 6


def test_signed_binomial_falling_factorial_oracle():
    for a in range(-6, 7):
        for k in range(7):
            prod = Fraction(1)
            for j in range(k):
                prod *= Fraction(a - j, j + 1)
            assert signed_binomial(a, k) == prod


def test_signed_binomial_delta_identity():
    # sum_mu C(-r, mu) C(r, s-mu) = delta_{s,0}
    for r in range(7):
        for s in range(7):
            acc = sum(signed_binomial(-r, mu) * binom(r, s - mu) for mu in range(s + 1))
            assert acc == (1 if s == 0 else 0)


def test_polynomial_guards():
    with pytest.raises(ValueError):
        bernoulli_number(-1)
    with pytest.raises(ValueError):
        signed_binomial(3, -1)
