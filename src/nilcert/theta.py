"""The theta operator, the Adams operation psi, and the iterate family.

Everything is relative to one prime p, carried by a ThetaContext.  On the
polynomial ring in x, y (coefficients p-integral) the Adams operation is
the ring map psi(x) = x^p - p*y, psi(y) = y^p.  It lifts the Frobenius:
psi(f) is congruent to f^p mod p, so theta(f) = (f^p - psi(f)) / p is an
exact polynomial.  theta_from is the one place that divides by p, taking
f^p and psi(f) as its caller formed them: f's numerators lie over one
denominator d prime to p, so p divides every numerator of f^p - psi(f).
theta forms both operands itself.  check_theta_axioms verifies the usual
divided-power-style identities of theta and psi on concrete inputs.

psi is graded: for wt(x) = 1, wt(y) = p it carries the weight-w part of
a polynomial to weight p*w.  So psi is evaluated one weighted-homogeneous
part at a time, as a univariate polynomial in x^p - p*y expanded by
Horner's rule on a dense coefficient list, rather than by the generic
Polynomial.substitute.  The list is scaled so that each Horner step is
one subtraction per entry, with no multiply by p.

The context also builds the iterate family: integer polynomials, written
in variables s, t, expressing the n-fold Adams iterate of the first
generator.  The family is defined by the recursion

    iterate_polynomial(0) = s
    iterate_polynomial(n) = previous(s, t)^p - p * previous(t, 0)

and satisfies psi_iterate(x, n) = iterate_polynomial(n) evaluated at
(x, y).  Each member is monic of degree p^n in s and weighted homogeneous
for the grading wt(s) = 1, wt(t) = p, which is asserted whenever a new
member is cached.  A context forms each member's p-th power and psi image
once and keeps them beside the member: the recursion builds member n+1
from the power of member n, the substitution check of member n+1 reads
the image of member n, and the diagonal check of member n reads both.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from itertools import accumulate, chain

from .coefficients import is_prime
from .polynomials import RATIONALS, Polynomial, from_numerators


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

    def __bool__(self):
        return all(self.identities.values())


class ThetaContext:
    """Operator context for one prime p, with a cache for the iterates."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self._iterates: dict[int, Polynomial] = {0: Polynomial.monomial(RATIONALS, 1, 0)}
        # f_n^p and psi(f_n), each formed once for the recursion and the checks
        self._powers: dict[int, Polynomial] = {}
        self._images: dict[int, Polynomial] = {}
        # p^0, p^1, ...: the scales of psi's Horner lists, extended on demand
        self._p_powers = [1]

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
        list holds entry L times p^(top-L), so a step is t[L] - t[L-1]
        and a_j enters times p^(top-step); each entry is divided exactly
        by p^(top-L) at the end.  The powers of p stay on the context,
        extended when a longer part needs them, and each step reads the
        shifted list through chain, not a copy.  psi is linear, so the
        expansion runs on the plain-int numerators of f and the result
        keeps f's denominator.
        """
        p = self.p
        parts: dict[int, dict[int, int]] = {}
        for (i, j), c in f.numerators.items():
            parts.setdefault(i + p * j, {})[j] = c
        scale, out = self._p_powers, {}
        for w, part in parts.items():
            j0 = min(part)
            top = w - p * j0
            while len(scale) <= top:
                scale.append(scale[-1] * p)
            acc = [part[j0] * scale[top]]
            for step in range(1, top + 1):
                acc.append(0)
                acc = list(map(operator.sub, acc, chain((0,), acc)))
                if step % p == 0 and j0 + step // p in part:
                    acc[step] += part[j0 + step // p] * scale[top - step]
            for index, t in enumerate(acc):
                if t:
                    y_power = p * j0 + index
                    out[(p * (w - y_power), y_power)] = t // scale[top - index]
        return from_numerators(f.ring, out, f.denominator)

    def psi_iterate(self, f: Polynomial, k: int) -> Polynomial:
        """k-fold application of psi; k = 0 returns f unchanged."""
        if k < 0:
            raise ValueError("iterate count must be nonnegative")
        for _ in range(k):
            f = self.psi(f)
        return f

    def theta(self, f: Polynomial) -> Polynomial:
        """The exact quotient (f^p - psi(f)) / p; see theta_from."""
        return self.theta_from(f, f**self.p, self.psi(f))

    def theta_from(self, f: Polynomial, power: Polynomial, image: Polynomial) -> Polynomial:
        """theta(f) from power = f^p and image = psi(f).

        f must be p-integral: else, with v < 0 the least valuation of a
        coefficient, f^p has one of valuation p*v < v and psi(f) none
        below v.  For p-integral f over d, f^p - psi(f) is over a divisor
        of d^p, and psi lifts the Frobenius, so p divides every numerator.
        """
        if f.ring is not RATIONALS:
            raise ValueError("theta expects rational or integer coefficients")
        p = self.p
        if f.denominator % p == 0:
            raise ValueError("denominator is not coprime to p")
        difference = power - image
        if any(c % p for c in difference.numerators.values()):
            raise ValueError("Frobenius congruence violated")
        quotient = {k: c // p for k, c in difference.numerators.items()}
        return from_numerators(RATIONALS, quotient, difference.denominator)

    def check_frobenius_congruence(self, f: Polynomial) -> bool:
        """True iff theta(f) is defined: p divides every numerator of f^p - psi(f)."""
        try:
            self.theta(f)
        except ValueError:
            return False
        return True

    # ---- axiom checks ----

    def scaled_binomial(self, j: int) -> int:
        """The integer binom(p, j) / p for 0 < j < p, exact since p is prime."""
        if not 0 < j < self.p:
            raise ValueError("index out of range")
        return math.comb(self.p, j) // self.p

    def check_theta_axioms(self, f: Polynomial, g: Polynomial) -> AxiomReport:
        """Verify the six defining identities on the concrete pair (f, g).

        psi of f, g, f + g and f*g, and f^p, are formed once, passed to
        theta_from and read by every identity that names them.  One ladder
        of products gives f^1..f^p and g^1..g^p, so the cross term and
        theta of f and g share their powers.
        """
        p = self.p
        report = AxiomReport()
        zero = Polynomial.zero(RATIONALS)
        report.record("theta_one", self.theta(Polynomial.one(RATIONALS)), zero)
        powers_f, powers_g = (list(accumulate([h] * p, operator.mul)) for h in (f, g))
        total, product, power_f, power_g = f + g, f * g, powers_f[-1], powers_g[-1]
        psi_f, psi_g, psi_total, psi_product = map(self.psi, (f, g, total, product))
        theta_f, theta_g = self.theta_from(f, power_f, psi_f), self.theta_from(g, power_g, psi_g)
        cross = zero
        for j in range(1, p):
            cross = cross + (powers_f[j - 1] * powers_g[p - j - 1]).scale(self.scaled_binomial(j))
        theta_total = self.theta_from(total, total**p, psi_total)
        report.record("theta_sum", theta_total, theta_f + theta_g + cross)
        theta_product = self.theta_from(product, product**p, psi_product)
        report.record("theta_product", theta_product, theta_f * psi_g + power_f * theta_g)
        report.record("theta_psi_commute", self.theta(psi_f), self.psi(theta_f))
        report.record("psi_additive", psi_total, psi_f + psi_g)
        report.record("psi_multiplicative", psi_product, psi_f * psi_g)
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
            current = self._power(top) - _at_second_and_zero(previous).scale(p)
            top += 1
            self._spot_check(current, top)
            self._iterates[top] = current
        return self._iterates[n]

    def _power(self, n: int) -> Polynomial:
        """f_n^p: the recursion's step to member n+1 and theta's first term."""
        if n not in self._powers:
            self._powers[n] = self.iterate_polynomial(n) ** self.p
        return self._powers[n]

    def _image(self, n: int) -> Polynomial:
        """psi(f_n): the substitution check of member n+1 and theta's second term."""
        if n not in self._images:
            self._images[n] = self.psi(self.iterate_polynomial(n))
        return self._images[n]

    def _spot_check(self, candidate: Polynomial, n: int) -> None:
        weight = self.p**n
        if candidate.coefficient(weight, 0) != 1:
            raise AssertionError("iterate polynomial lost its monic leading term")
        for i, j in candidate.numerators:
            if i + self.p * j != weight:
                raise AssertionError("iterate polynomial lost weighted homogeneity")

    def check_iterate_substitution(self, n: int) -> bool:
        """Recursion transport: member n equals psi of member n-1, that is
        member n-1 at (s^p - p*t, t^p)."""
        if n < 1:
            raise ValueError("needs n >= 1")
        return self.iterate_polynomial(n) == self._image(n - 1)

    def check_iterate_power_congruence(self, n: int) -> bool:
        """Member n agrees with member n-1 at (s^p, t^p) modulo p^n."""
        if n < 1:
            raise ValueError("needs n >= 1")
        p = self.p
        previous = self.iterate_polynomial(n - 1)
        stretched = from_numerators(
            RATIONALS,
            {(p * i, p * j): c for (i, j), c in previous.numerators.items()},
            previous.denominator,
        )
        difference = self.iterate_polynomial(n) - stretched
        return all(c % p**n == 0 for c in difference.numerators.values())

    def check_iterate_diagonal(self, e: int) -> bool:
        """Two facts used by theta-stability of the quotient construction:
        member e at (t, 0) collapses to t^(p^e), and theta of member e read
        in (x, y) is exactly y^(p^e).
        """
        if e < 0:
            raise ValueError("needs e >= 0")
        target = Polynomial.monomial(RATIONALS, 0, self.p**e)
        member = self.iterate_polynomial(e)
        if _at_second_and_zero(member) != target:
            return False
        return self.theta_from(member, self._power(e), self._image(e)) == target


def _at_second_and_zero(f: Polynomial) -> Polynomial:
    """f(t, 0): the terms free of the second variable, moved onto it."""
    return from_numerators(
        f.ring, {(0, i): c for (i, j), c in f.numerators.items() if j == 0}, f.denominator
    )


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
    summed as numerators over q.
    """
    q = next(c for c in (3, 5, 7) if c != p)
    numerators = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        # a draw n / 1 or n / q, as a numerator over q
        numerator = rng.randint(-9, 9) * q // rng.choice([1, q])
        numerators[(i, j)] = numerators.get((i, j), 0) + numerator
    return from_numerators(RATIONALS, {k: c for k, c in numerators.items() if c}, q)
