"""The theta operator, the Adams operation psi, and the iterate family.

Everything is relative to one prime p, carried by a ThetaContext.  On the
polynomial ring in x, y (coefficients p-integral) the Adams operation is
the ring map psi(x) = x^p - p*y, psi(y) = y^p.  It lifts the Frobenius:
psi(f) is congruent to f^p mod p, so theta(f) = (f^p - psi(f)) / p is an
exact polynomial.  theta runs on cleared integers: for f = F/d it forms
the integer numerator F^p - d^(p-1)*psi(F), whose power goes through the
big-int product kernel of the polynomials module, and divides it by
p*d^p once per term.  theta and psi satisfy the usual divided-power-style
identities, which check_theta_axioms verifies on concrete inputs.

psi is graded: for wt(x) = 1, wt(y) = p it carries the weight-w part of
a polynomial to weight p*w.  So psi is evaluated one weighted-homogeneous
part at a time, as a univariate polynomial in x^p - p*y expanded by
Horner's rule on a dense coefficient list, rather than by the generic
Polynomial.substitute.

The context also builds the iterate family: integer polynomials, written
in variables s, t, expressing the n-fold Adams iterate of the first
generator.  The family is defined by the recursion

    iterate_polynomial(0) = s
    iterate_polynomial(n) = previous(s, t)^p - p * previous(t, 0)

and satisfies psi_iterate(x, n) = iterate_polynomial(n) evaluated at
(x, y).  Each member is monic of degree p^n in s and weighted homogeneous
for the grading wt(s) = 1, wt(t) = p, which is asserted whenever a new
member is cached.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .coefficients import is_prime, rational, vp
from .polynomials import RATIONALS, Polynomial, clear_denominators, from_cleared


@dataclass
class AxiomReport:
    """Outcome of check_theta_axioms: one verdict per identity.

    Failing identities are recorded with both sides rendered, so a report
    can be printed without recomputing anything.
    """

    identities: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def record(self, name: str, lhs: Polynomial, rhs: Polynomial) -> None:
        ok = lhs == rhs
        self.identities[name] = ok
        if not ok:
            self.failures.append((name, lhs.to_text(), rhs.to_text()))

    @property
    def all_hold(self) -> bool:
        return all(self.identities.values())

    def __bool__(self):
        return self.all_hold


class ThetaContext:
    """Operator context for one prime p, with a cache for the iterates."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self._iterates: dict[int, Polynomial] = {0: Polynomial.monomial(RATIONALS, 1, 0)}

    # ---- operators ----

    def psi(self, f: Polynomial) -> Polynomial:
        """Adams operation: substitute x -> x^p - p*y, y -> y^p.

        Evaluated one weighted-homogeneous part at a time.  The weight-w
        part sum_j a_j x^(w-pj) y^j maps to sum_j a_j X^(w-pj) y^(pj) with
        X = x^p - p*y, a polynomial of weight p*w.  With j0 the smallest
        y-degree and top = w - p*j0, that is y^(p*j0) times a polynomial
        in X of degree top, evaluated by Horner's rule on a dense list
        indexed by the power of y: multiplying by X keeps index L on
        x^p and moves -p times it to index L+1, and a_j enters at index
        p*(j - j0).  Index L stands for x^(p*(top-L)) y^(p*j0+L).  The
        coefficients are cleared to integers by clear_denominators first,
        so the expansion runs on plain ints.
        """
        p = self.p
        terms, common = clear_denominators(f.terms)
        parts: dict[int, dict[int, int]] = {}
        for (i, j), c in terms.items():
            parts.setdefault(i + p * j, {})[j] = c
        out = {}
        for w, part in parts.items():
            j0 = min(part)
            top = w - p * j0
            acc = [part[j0]]
            for step in range(1, top + 1):
                acc = [a - p * b for a, b in zip(acc + [0], [0] + acc)]
                if step % p == 0 and j0 + step // p in part:
                    acc[step] += part[j0 + step // p]
            for index, c in enumerate(acc):
                y_power = p * j0 + index
                out[(p * (w - y_power), y_power)] = c
        if common != 1:
            out = {k: rational(c, common) for k, c in out.items()}
        return Polynomial(f.ring, out)

    def psi_iterate(self, f: Polynomial, k: int) -> Polynomial:
        """k-fold application of psi; k = 0 returns f unchanged."""
        if k < 0:
            raise ValueError("iterate count must be nonnegative")
        for _ in range(k):
            f = self.psi(f)
        return f

    def theta(self, f: Polynomial) -> Polynomial:
        """The exact quotient (f^p - psi(f)) / p.

        Defined for p-integral coefficients.  It runs on cleared integers:
        with f = F/d, the integer numerator N = F^p - d^(p-1)*psi(F) of
        f^p - psi(f) = N/d^p is formed, p must divide each coefficient of
        N because psi lifts the Frobenius, and N is divided by p*d^p once
        per term.
        """
        if f.ring is not RATIONALS:
            raise ValueError("theta expects rational or integer coefficients")
        p = self.p
        numerator, d = self._cleared_difference(f)
        if d % p == 0:
            raise ValueError("denominator is not coprime to p")
        if any(c % p for c in numerator.terms.values()):
            raise ValueError("Frobenius congruence violated")
        return from_cleared({k: c // p for k, c in numerator.terms.items()}, d**p)

    def check_frobenius_congruence(self, f: Polynomial) -> bool:
        """True iff f^p - psi(f) has every coefficient divisible by p.

        Never true for a denominator divisible by p: with v < 0 the least
        valuation of a coefficient of f, f^p has a coefficient of valuation
        p*v, and psi(f) has none below v.
        """
        numerator, d = self._cleared_difference(f)
        return d % self.p != 0 and all(c % self.p == 0 for c in numerator.terms.values())

    def _cleared_difference(self, f: Polynomial):
        """(N, d) with f^p - psi(f) = N / d^p, where d is the common
        denominator of f and N = F^p - d^(p-1)*psi(F) for the integer
        polynomial F = d*f."""
        terms, d = clear_denominators(f.terms)
        cleared = Polynomial(f.ring, terms)
        p = self.p
        image = self.psi(cleared)
        if d != 1:
            image = image.scale(d ** (p - 1))
        return cleared**p - image, d

    # ---- axiom checks ----

    def scaled_binomial(self, j: int) -> int:
        """The integer binom(p, j) / p for 0 < j < p, exactness asserted."""
        if not 0 < j < self.p:
            raise ValueError("index out of range")
        value = math.comb(self.p, j)
        quotient, remainder = divmod(value, self.p)
        if remainder:
            raise AssertionError("binomial not divisible by p")
        if quotient * j != math.comb(self.p - 1, j - 1):
            raise AssertionError("binomial quotient mismatch")
        return quotient

    def check_theta_axioms(self, f: Polynomial, g: Polynomial) -> AxiomReport:
        """Verify the six defining identities on the concrete pair (f, g)."""
        p = self.p
        report = AxiomReport()
        one = Polynomial.one(RATIONALS)
        zero = Polynomial.zero(RATIONALS)
        report.record("theta_one", self.theta(one), zero)
        cross = zero
        for j in range(1, p):
            cross = cross + (f**j * g ** (p - j)).scale(self.scaled_binomial(j))
        report.record("theta_sum", self.theta(f + g), self.theta(f) + self.theta(g) + cross)
        report.record(
            "theta_product",
            self.theta(f * g),
            self.theta(f) * self.psi(g) + f**p * self.theta(g),
        )
        report.record("theta_psi_commute", self.theta(self.psi(f)), self.psi(self.theta(f)))
        report.record("psi_additive", self.psi(f + g), self.psi(f) + self.psi(g))
        report.record("psi_multiplicative", self.psi(f * g), self.psi(f) * self.psi(g))
        return report

    def check_theta_of_p_multiple(self, b: Polynomial) -> bool:
        """theta(p*b) = p^(p-1) * b^p - psi(b), a consequence of the axioms."""
        p = self.p
        lhs = self.theta(b.scale(p))
        rhs = (b**p).scale(p ** (p - 1)) - self.psi(b)
        return lhs == rhs

    # ---- the iterate family ----

    def iterate_polynomial(self, n: int) -> Polynomial:
        """Integer polynomial in (s, t) for the n-th Adams iterate.

        Cached; each freshly computed member is spot-checked against the
        structural invariants (monic of degree p^n in s, weighted
        homogeneous of weight p^n under wt(s) = 1, wt(t) = p).
        """
        if n < 0:
            raise ValueError("iterate index must be nonnegative")
        p = self.p
        top = max(self._iterates)
        while top < n:
            previous = self._iterates[top]
            current = previous**p - _at_second_and_zero(previous).scale(p)
            top += 1
            self._spot_check(current, top)
            self._iterates[top] = current
        return self._iterates[n]

    def _spot_check(self, candidate: Polynomial, n: int) -> None:
        weight = self.p**n
        if candidate.coefficient(weight, 0) != 1:
            raise AssertionError("iterate polynomial lost its monic leading term")
        for i, j in candidate.terms:
            if i + self.p * j != weight:
                raise AssertionError("iterate polynomial lost weighted homogeneity")

    def check_iterate_substitution(self, n: int) -> bool:
        """Recursion transport: member n equals psi of member n-1, that is
        member n-1 at (s^p - p*t, t^p)."""
        if n < 1:
            raise ValueError("needs n >= 1")
        return self.iterate_polynomial(n) == self.psi(self.iterate_polynomial(n - 1))

    def check_iterate_power_congruence(self, n: int) -> bool:
        """Member n agrees with member n-1 at (s^p, t^p) modulo p^n."""
        if n < 1:
            raise ValueError("needs n >= 1")
        p = self.p
        previous = self.iterate_polynomial(n - 1)
        stretched = Polynomial(
            RATIONALS, {(p * i, p * j): c for (i, j), c in previous.terms.items()}
        )
        difference = self.iterate_polynomial(n) - stretched
        return all(vp(c, p) >= n for c in difference.terms.values())

    def check_iterate_diagonal(self, e: int) -> bool:
        """Two facts used by theta-stability of the quotient construction:
        member e at (t, 0) collapses to t^(p^e), and theta of member e read
        in (x, y) is exactly y^(p^e).
        """
        if e < 0:
            raise ValueError("needs e >= 0")
        fe = self.iterate_polynomial(e)
        if _at_second_and_zero(fe) != Polynomial.monomial(RATIONALS, 0, self.p**e):
            return False
        return self.theta(fe) == Polynomial.monomial(RATIONALS, 0, self.p**e)


def _at_second_and_zero(f: Polynomial) -> Polynomial:
    """f(t, 0): the terms free of the second variable, moved onto it."""
    return Polynomial(f.ring, {(0, i): c for (i, j), c in f.terms.items() if j == 0})


def nilpotence_bound(n: int) -> int:
    """Smallest verified exponent bound for n-torsion: any element a with
    n * a = 0 in a ring carrying these operators satisfies a^E = 0 for
    E = max over maximal prime powers p^e dividing n of p^e + p^(e-1).

    For n = 1 or -1 the only torsion element is 0, so the bound is 1.
    n = 0 imposes no torsion at all and is rejected.
    """
    if n == 0:
        raise ValueError("0-torsion imposes no bound")
    n = abs(n)
    if n == 1:
        return 1
    best = 0
    remaining = n
    d = 2
    while d * d <= remaining:
        if remaining % d == 0:
            e = 0
            while remaining % d == 0:
                remaining //= d
                e += 1
            best = max(best, d**e + d ** (e - 1))
        d += 1 if d == 2 else 2
    if remaining > 1:
        best = max(best, remaining + 1)
    return best


# Total degree bound of the default random_polynomial samples.  theta of
# psi of such a sample reaches degree SAMPLE_DEGREE * p^2.
SAMPLE_DEGREE = 4


def random_polynomial(
    rng: random.Random,
    p: int,
    max_degree: int = SAMPLE_DEGREE,
    max_terms: int = 6,
) -> Polynomial:
    """Seeded sampler for the randomized checks.

    Numerators are drawn from [-9, 9]; denominators are 1 or one small
    prime q coprime to p, so every sample is p-integral.  The draws are
    summed as numerators over q and divided by q once per term.
    """
    q = next(c for c in (3, 5, 7) if c != p)
    numerators = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        # a draw n / 1 or n / q, as a numerator over q
        numerator = rng.randint(-9, 9) * q // rng.choice([1, q])
        numerators[(i, j)] = numerators.get((i, j), 0) + numerator
    return Polynomial(RATIONALS, {k: rational(c, q) for k, c in numerators.items()})
