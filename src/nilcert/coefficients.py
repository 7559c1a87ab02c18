"""Exact coefficient arithmetic for the base rings used by the package.

Three coefficient domains appear throughout: the integers, the integers
localized at a prime p (fractions whose denominator is coprime to p), and
the finite rings Z/p^m.  Everything here is exact big-integer arithmetic;
no float arithmetic is involved anywhere.

LocalizedRational is the only coefficient class: a fractions.Fraction
that refuses + and - and multiplies through rational().  A polynomial
computes on integer numerators over one denominator (see the polynomials
module), so fractions appear only where coefficients come in (the
terms given to the Polynomial constructor, the scalar of Polynomial.scale
or Polynomial.constant) or are read out (the terms view);
Polynomial.parse reads integer numerators and denominators.  rational(),
the one constructor of rational values, returns a plain int when the
reduced denominator is 1 and a LocalizedRational otherwise.

An element of Z/p^m is a plain int, its representative in [0, p^m).
Modulus, a frozen dataclass, only describes the ring;
polynomials.residues is the one map of a value into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


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


def rational(numerator: int, denominator: int = 1):
    """The value numerator/denominator in canonical form: an int when the
    reduced denominator is 1, otherwise a LocalizedRational."""
    if numerator % denominator == 0:
        return int(numerator // denominator)
    return LocalizedRational(numerator, denominator)


class LocalizedRational(Fraction):
    """A fraction a/b in lowest terms with b > 0: a fractions.Fraction
    that multiplies but does not add.

    A coefficient in the localization of Z at a prime p.  The value itself
    does not know p; a polynomial entering Z/p^m checks its denominator
    there, in polynomials.residues.  Fraction builds the value, compares
    and hashes it (an integer-valued instance equals, and hashes like, the
    same int), prints it, copies and pickles it.

    Sums and differences raise TypeError: polynomials add and multiply
    their integer numerators.  The product with an int or another
    LocalizedRational returns through rational(), so an integer-valued
    result is a plain int.  Fraction's other arithmetic returns a plain
    Fraction, which Polynomial refuses as a coefficient.
    """

    __slots__ = ()

    def __init__(self, numerator=0, denominator=None):
        # Fraction.__new__ builds the value.  A wrapper of __init__, such
        # as perfbench's counting tracer, calls the original with the
        # constructor's arguments, which object.__init__ would refuse.
        pass

    def __mul__(self, other):
        # an int carries numerator and denominator (n/1) itself
        if not isinstance(other, (LocalizedRational, int)):
            return NotImplemented
        return rational(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    __rmul__ = __mul__
    __add__ = __radd__ = __sub__ = __rsub__ = None


@dataclass(frozen=True)
class Modulus:
    """Descriptor of the ring Z/p^m for a prime p and precision m >= 1."""

    p: int
    m: int
    value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.m < 1:
            raise ValueError("precision must be at least 1")
        object.__setattr__(self, "value", self.p**self.m)
