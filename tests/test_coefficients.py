from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcert.coefficients import (
    LocalizedRational,
    Modulus,
    is_prime,
    rational,
    vp,
)
from nilcert.polynomials import RATIONALS, Polynomial
from nilcert.theta import ThetaContext

PRIMES = [2, 3, 5]


def _valuation_oracle(n: int, p: int) -> int:
    # largest k with p^k | n, found by direct divisibility probes
    n = abs(n)
    k = 0
    while n % p**(k + 1) == 0:
        k += 1
    return k


def test_is_prime_small():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(1, 5) == 0
    assert vp(250, 5) == 3
    assert vp(250, 5) == _valuation_oracle(250, 5)
    assert vp(-8, 2) == 3


def test_vp_zero_rejected():
    with pytest.raises(ValueError, match="zero"):
        vp(0, 2)
    with pytest.raises(ValueError, match="zero"):
        vp(LocalizedRational(0), 3)


def test_vp_rational():
    assert vp(LocalizedRational(4, 3), 2) == 2
    assert vp(LocalizedRational(1, 3), 3) == -1
    assert vp(LocalizedRational(9, 5), 3) == 2


@given(
    st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0),
    st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0),
    st.sampled_from(PRIMES),
)
def test_vp_multiplicative(a, b, p):
    assert vp(a * b, p) == vp(a, p) + vp(b, p)
    assert vp(a, p) == _valuation_oracle(a, p)


def test_rational_normalization():
    q = LocalizedRational(4, -6)
    assert q.numerator == -2
    assert q.denominator == 3
    assert LocalizedRational(0, 7).denominator == 1
    assert LocalizedRational(10, 5) == 2
    with pytest.raises(ZeroDivisionError):
        LocalizedRational(1, 0)


def _constant(q) -> Polynomial:
    return Polynomial.constant(RATIONALS, q)


def _value(f: Polynomial) -> Fraction:
    """The constant term of f as a Fraction, the oracle's type."""
    c = f.coefficient(0, 0)
    return Fraction(c.numerator, c.denominator)


# LocalizedRational defines no sum or power of its own: every identity
# below is stated on constant polynomials, which add and multiply on
# cleared integers, and checked against fractions.Fraction.


def test_rational_arithmetic():
    a = _constant(LocalizedRational(1, 2))
    b = _constant(LocalizedRational(1, 3))
    assert a + b == LocalizedRational(5, 6)
    assert a - b == LocalizedRational(1, 6)
    assert a * b == LocalizedRational(1, 6)
    assert a**3 == LocalizedRational(1, 8)
    assert 1 + a == LocalizedRational(3, 2)
    assert 1 - a == a
    assert 2 * a == 1
    assert LocalizedRational(1, 2) * LocalizedRational(1, 3) == LocalizedRational(1, 6)
    with pytest.raises(TypeError):
        LocalizedRational(1, 2) + LocalizedRational(1, 3)
    assert _value(a + b) == Fraction(1, 2) + Fraction(1, 3)
    assert str(a) == "1/2"
    assert str(LocalizedRational(1, 2)) == "1/2"
    assert str(LocalizedRational(-7)) == "-7"
    assert not LocalizedRational(0)
    assert bool(LocalizedRational(1, 2))


def test_integer_valued_rational_hashes_like_int():
    for n in (2, -7, 0, 3**40):
        q = LocalizedRational(n)
        assert q == n and hash(q) == hash(n)
    assert hash(LocalizedRational(4, 2)) == hash(2)
    assert len({LocalizedRational(2), 2}) == 1
    assert {LocalizedRational(10, 5): "two"}[2] == "two"


def test_rational_values_are_integer_native():
    assert type(rational(4, 2)) is int and rational(4, 2) == 2
    assert type(rational(-3)) is int
    assert rational(2, -6) == LocalizedRational(-1, 3)
    half = _constant(LocalizedRational(1, 2))
    third = _constant(LocalizedRational(1, 3))

    def constant_type(f):
        return type(f.terms[(0, 0)])

    assert constant_type(half + half) is int and half + half == 1
    assert constant_type(half * 4) is int and 4 * half == 2
    assert type(LocalizedRational(2, 3) * 3) is int
    assert constant_type(_constant(LocalizedRational(2, 3)) * 3) is int
    assert (half - half).is_zero() and half - half == 0
    assert constant_type(-_constant(LocalizedRational(5))) is int
    assert constant_type(third**0) is int
    assert constant_type(half + third) is LocalizedRational
    # theta's one division by p (times d^p) is canonical too
    assert type(_theta_of_constant(2, 3)) is int
    assert type(_theta_of_constant(LocalizedRational(2, 1), 3)) is int
    assert type(_theta_of_constant(LocalizedRational(6, 5), 3)) is LocalizedRational


@given(
    st.integers(min_value=-99, max_value=99),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-99, max_value=99),
    st.integers(min_value=1, max_value=30),
)
def test_rational_field_laws(an, ad, bn, bd):
    a = _constant(LocalizedRational(an, ad))
    b = _constant(LocalizedRational(bn, bd))
    fa, fb = Fraction(an, ad), Fraction(bn, bd)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * b == a * b + b * b
    assert a + (-a) == 0
    assert _value(a + b) == fa + fb
    assert _value(a - b) == fa - fb
    assert _value((a + b) * b) == (fa + fb) * fb
    # normalization invariants survive arithmetic
    c = (a * b + a).coefficient(0, 0)
    assert _value(a * b + a) == fa * fb + fa
    assert c.denominator > 0
    assert gcd(c.numerator, c.denominator) == 1 or c.numerator == 0


def _theta_of_constant(q, p: int):
    """theta(q) = (q^p - q) / p for a constant q, as a coefficient."""
    return ThetaContext(p).theta(Polynomial.constant(RATIONALS, q)).coefficient(0, 0)


# Exact division by p happens once per term on theta's cleared integer
# numerator; these tests check it through theta on constants.


def test_divide_exact_examples():
    assert _theta_of_constant(2, 3) == 2  # (8 - 2) / 3
    assert _theta_of_constant(0, 5) == 0
    assert _theta_of_constant(1, 5) == 0
    assert _theta_of_constant(LocalizedRational(4, 3), 2) == LocalizedRational(2, 9)


def test_divide_exact_failure():
    class NoLift(ThetaContext):
        def psi(self, f):
            return f

    x = Polynomial.monomial(RATIONALS, 1, 0)
    with pytest.raises(ValueError, match="Frobenius congruence violated"):
        NoLift(2).theta(x.scale(7))
    with pytest.raises(ValueError, match="Frobenius congruence violated"):
        NoLift(2).theta(x.scale(LocalizedRational(3, 5)))
    with pytest.raises(ValueError, match="coprime"):
        ThetaContext(2).theta(x.scale(LocalizedRational(2, 4)))


@given(
    st.integers(min_value=-999, max_value=999),
    st.integers(min_value=1, max_value=99),
    st.sampled_from(PRIMES),
)
def test_divide_exact_multiplies_back(num, den, p):
    while den % p == 0:
        den += 1
    q = LocalizedRational(num, den)
    theta = _constant(_theta_of_constant(q, p))
    assert theta * p == _constant(q) ** p - _constant(q)
    assert _value(theta) * p == Fraction(num, den) ** p - Fraction(num, den)


def test_reduce_mod_examples():
    assert Modulus(2, 2).residue(5) == 1
    assert Modulus(3, 2).residue(0) == 0
    r = Modulus(2, 3).residue(LocalizedRational(1, 3))
    assert r == 3 and type(r) is int
    assert (3 * 3) % 8 == 1  # inverse check for the frozen value above
    assert Modulus(5, 1).residue(-1) == 4
    assert Modulus(2, 3).residue(-3) == 5
    with pytest.raises(TypeError):
        Modulus(2, 3).residue(0.5)


def test_reduce_mod_rejects_bad_denominator():
    with pytest.raises(ValueError, match="invertible"):
        Modulus(2, 3).residue(LocalizedRational(1, 2))


@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
    st.sampled_from(PRIMES),
    st.integers(min_value=1, max_value=4),
)
def test_reduce_mod_is_ring_hom(a, b, p, m):
    modulus = Modulus(p, m)
    n = modulus.value
    ra, rb = modulus.residue(a), modulus.residue(b)
    assert 0 <= ra < n and 0 <= rb < n
    assert modulus.residue(a + b) == (ra + rb) % n
    assert modulus.residue(a * b) == (ra * rb) % n
    assert modulus.residue(-a) == -ra % n


@given(
    st.integers(min_value=-99, max_value=99),
    st.integers(min_value=1, max_value=99),
    st.sampled_from(PRIMES),
    st.integers(min_value=1, max_value=4),
)
def test_reduce_mod_respects_fractions(num, den, p, m):
    while den % p == 0:
        den += 1
    q = LocalizedRational(num, den)
    modulus = Modulus(p, m)
    r = modulus.residue(q)
    # multiplying back by the denominator recovers the numerator's class
    assert r * den % p**m == modulus.residue(num)


def test_residue_arithmetic():
    # Z/p^m residues are plain ints in [0, p^m); arithmetic on them goes
    # through constant polynomials over the Modulus ring.
    mod = Modulus(2, 3)
    a = Polynomial.constant(mod, 5)
    b = Polynomial.constant(mod, 6)
    assert (a + b).coefficient(0, 0) == 3
    assert (a * b).coefficient(0, 0) == 6
    assert (a - b).coefficient(0, 0) == 7
    assert (-a).coefficient(0, 0) == 3
    assert (a**2).coefficient(0, 0) == 1
    assert a + 3 == Polynomial.zero(mod)
    assert str(b) == "6"
    assert mod.residue(-3) == 5
    assert mod.residue(rational(1, 3)) == 3
    assert all(type(c) is int for c in (a * b + a).terms.values())
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        a + Polynomial.constant(Modulus(2, 2), 1)


def test_modulus_validation():
    with pytest.raises(ValueError, match="not prime"):
        Modulus(4, 1)
    with pytest.raises(ValueError, match="at least 1"):
        Modulus(2, 0)
    assert Modulus(3, 2).value == 9
    assert Modulus(3, 2) == Modulus(3, 2)
    assert Modulus(3, 2) != Modulus(3, 3)
