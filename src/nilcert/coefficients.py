"""Exact coefficient arithmetic for the base rings used by the package.

Three coefficient domains appear throughout: the integers, the integers
localized at a prime p (fractions whose denominator is coprime to p), and
the finite rings Z/p^m.  Everything here is exact big-integer arithmetic;
no floats are involved anywhere.

LocalizedRational is the only coefficient class, and a stored value: it
holds a fraction in lowest terms, compares, hashes and prints, and
multiplies by a scalar, but it does not add.  Polynomial arithmetic runs
on cleared integers (see the polynomials module) and divides back once
per term through rational(), the one constructor of rational values.
Rational values are integer-native: rational() returns a plain int when
the reduced denominator is 1 and a LocalizedRational only otherwise, so
integer-valued work (the iterate family, psi and theta on integer input)
stays in the interpreter's built-in int arithmetic.

An element of Z/p^m is a plain int, its representative in [0, p^m).
Modulus describes the ring, and Modulus.residue is the one map from an
int or a LocalizedRational to that representative.
"""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def vp(n, p: int) -> int:
    """p-adic valuation: the exponent of p in n.

    Accepts integers and LocalizedRational values.  The valuation of zero
    is undefined and raises ValueError.
    """
    if isinstance(n, LocalizedRational):
        if n.numerator == 0:
            raise ValueError("valuation of zero is undefined")
        return vp(n.numerator, p) - vp(n.denominator, p)
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(int(n))
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def rational(numerator: int, denominator: int = 1):
    """The value numerator/denominator in canonical form: an int when the
    reduced denominator is 1, otherwise a LocalizedRational."""
    if numerator % denominator == 0:
        return int(numerator // denominator)
    return LocalizedRational(numerator, denominator)


class LocalizedRational:
    """A fraction a/b kept in lowest terms with b > 0.

    A coefficient in the localization of Z at a prime p.  The value itself
    does not know p; operations that need p-locality (exact division by p,
    reduction mod p^m) check the denominator at the point of use.  Zero is
    always stored as 0/1.

    Sums and powers are not defined here: polynomials add and multiply
    their coefficients as cleared integers.  The one arithmetic operation
    is the product with an int or another fraction, which Polynomial.scale
    and Polynomial.parse use; it returns through rational(), so an
    integer-valued result is a plain int.  The constructor always builds
    an instance, and an integer-valued instance equals, and hashes like,
    the same int.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        numerator = int(numerator)
        denominator = int(denominator)
        if denominator == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        if numerator == 0:
            denominator = 1
        else:
            g = math.gcd(numerator, denominator)
            numerator //= g
            denominator //= g
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("LocalizedRational is immutable")

    def __mul__(self, other):
        # an int carries numerator and denominator (n/1) itself
        if not isinstance(other, (LocalizedRational, int)):
            return NotImplemented
        return rational(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (LocalizedRational, int)):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        if self.denominator == 1:
            return hash(self.numerator)
        return hash((self.numerator, self.denominator))

    def __bool__(self):
        return self.numerator != 0

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"LocalizedRational({self.numerator}, {self.denominator})"


class Modulus:
    """Descriptor of the ring Z/p^m for a prime p and precision m >= 1."""

    __slots__ = ("p", "m", "value")

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("precision must be at least 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "value", p**m)

    def __setattr__(self, name, value):
        raise AttributeError("Modulus is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Modulus) and self.p == other.p and self.m == other.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"Modulus({self.p}, {self.m})"

    def residue(self, q) -> int:
        """The representative in [0, p^m) of an int or a LocalizedRational.

        A fraction maps to its numerator times the inverse of its
        denominator mod p^m; this needs the denominator coprime to p and
        raises ValueError otherwise.
        """
        if isinstance(q, int):
            return q % self.value
        if isinstance(q, LocalizedRational):
            if q.denominator % self.p == 0:
                raise ValueError("denominator is not invertible mod p")
            return q.numerator * pow(q.denominator, -1, self.value) % self.value
        raise TypeError(f"cannot reduce {type(q).__name__} mod p^m")

