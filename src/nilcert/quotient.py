"""Ideal membership mod p^m for the torsion quotient family.

For a prime p and depth e >= 1 the ideal of interest is generated by

    g_n = p^(e-n) * (n-th iterate polynomial, read in x, y),  0 <= n <= e,
    g_(e+1) = y^(p^e).

The quotient by g_e and g_(e+1) alone is a free module over Z/p^m with
basis the monomials x^i y^j, 0 <= i, j < p^e: g_e is monic in x of degree
p^e, its other terms stay inside the block (weighted homogeneity keeps
their y-degree at most p^(e-1)), so the two leading monomials x^(p^e) and
y^(p^e) are monic and coprime and the rewriting

    x^(p^e) -> x^(p^e) - g_e        (terms of smaller x-degree)
    y^(p^e) * anything -> 0

is confluent: RewriteSystem.reduce is a well defined linear map onto the
span.  Membership in the full ideal then becomes a linear question: f lies
in the ideal mod p^m iff its reduction lies in the row module T spanned
by the reductions of all multiples x^a y^b g_n.  Finitely many multiples
suffice: a reduction with a >= p^e rewrites into reductions of strictly
smaller a (x^(p^e) acts as the rewrite tail modulo the monic generator),
y^b g_n reduces to zero once b reaches p^e, and every multiple of g_e or
of y^(p^e) lies in the rewrite ideal itself and reduces to zero, so the
grid 0 <= a, b < p^e over g_0 .. g_(e-1) spans T.

Everything here is weighted homogeneous for wt(x) = 1, wt(y) = p: the
iterate generators, the rewrite tail, y^(p^e), so every grid multiple
x^a y^b g_n (weight a + p*b + p^n) and every target x^N.  Reduction keeps
the weight, so T is the direct sum of its weight classes, the spans of
the monomials x^i y^j with i + p*j = w, each at most p^(e-1) wide.  Each
class is Howellized on its own (Macaulay-style elimination degree by
degree, as for homogeneous ideals), and those class bases are the
module's basis: a query splits its reduction by weight and reduces each
part against its own class, and the canonical remainder is the class
remainders side by side.  A class needs only its own atoms, the grid
multiples of its weight, so it is built the first time a query touches
it; x^N, say, reads the weight-N class alone.

Certificates are derived from atom keys: each class keeps its Howell
transform by origin, one column over the basis rows per origin atom, and
a query's basis coefficients times an origin's column give that atom's
weight; an atom (n, a, b) of weight w is the cofactor w * x^a y^b on g_n,
and the span part less those multiples rewrites to credits on g_e and
y^(p^e) alone.
Those credits are unique mod p^m (the one on g_e has y-degree below
p^e), so the certificate, checked by independent expansion
(certificates.py), does not depend on how a rewrite is split: one
reduction of a power x^N gives what reducing step by step would.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass

from .certificates import Certificate, _checker_generators, check_cell, standard_generators
from .certificates import verify_certificate
from .coefficients import Modulus
from .howell import HowellBasis, howell_complete, pivot_walk

# never called by the build, which takes its origins from howell_complete;
# importable here because perfbench/tracing.py wraps it by this name
from .howell import howell_spanning_subset  # noqa: F401
from .polynomials import RATIONALS, Polynomial, from_numerators, residues
from .theta import ThetaContext, nilpotence_bound

# x, the query variable of every verify operation (a Polynomial is immutable)
_X = Polynomial.monomial(RATIONALS, 1, 0)


class RewriteSystem:
    """The linear normal-form map onto the monomial span, mod p^m.

    Rewriting order is fixed for determinism: terms killed by the y-rule
    first, then among terms with x-degree >= p^e the highest x-degree
    (leftmost in the term order on ties).  Each x-step strictly lowers
    the x-degree, so the loop terminates; confluence makes the order
    irrelevant to the result, which the tests exercise separately.

    generators is the family g_0 .. g_(e+1) of (p, e), generator_terms
    the same mod p^m as {(i, j): int} dicts, and tail is x^(p^e) - g_e
    mod p^m, read off generator_terms[e] by dropping its leading term and
    negating the rest.  The constructor admits the cell by
    certificates.check_cell, then checks that g_e is monic of degree p^e
    in x, that the last generator is y^(p^e) and that the tail stays
    inside the span block.
    """

    def __init__(self, p: int, e: int, m: int):
        check_cell(p, e, m)
        self.modulus = Modulus(p, m)
        self.p, self.e, self.m = p, e, m
        self.block = p**e
        self.generators = standard_generators(p, e)
        top = self.generators[e]
        if top.coefficient(self.block, 0) != 1 or max(i for i, _ in top.numerators) != self.block:
            raise AssertionError("top generator must be monic of degree p^e in x")
        if self.generators[e + 1] != Polynomial.monomial(RATIONALS, 0, self.block):
            raise AssertionError("last generator must be y^(p^e)")
        n = self.modulus.value
        self.generator_terms = tuple(
            residues(g.numerators, g.denominator, n) for g in self.generators
        )
        self.tail = {k: -c % n for k, c in self.generator_terms[e].items() if k != (self.block, 0)}
        if any(i >= self.block or j >= self.block for i, j in self.tail):
            raise AssertionError("rewrite tail escapes the span block")

    def _reduce_terms(self, work: dict):
        """Core loop on a zero-free {(i, j): residue} dict, mutated into the
        span part; returns (span terms, fragments), fragments[g] a cofactor
        term dict.  One pass moves keys of y-degree p^e or more to the
        y^(p^e) fragment and collects the heavy keys; one sweep down these,
        sorted once, does the same to a tail term, inserts a new heavy key
        in order and skips a cancelled one."""
        n, block = self.modulus.value, self.block
        killed, heavy = {}, []
        for (i, j), value in work.items():
            if j >= block:
                killed[(i, j - block)] = value
            elif i >= block:
                heavy.append((i, j))
        for i, j in killed:
            del work[(i, j + block)]
        if not heavy:
            return work, {self.e + 1: killed} if killed else {}
        heavy.sort()
        credits: dict = {}
        while heavy:
            i, j = key = heavy.pop()
            value = work.pop(key, 0)
            if not value:
                continue
            # popped keys strictly decrease, so no credit here meets another
            credits[(i - block, j)] = value
            for (ti, tj), t in self.tail.items():
                a, b = ti + i - block, tj + j
                bucket, target = (killed, (a, b - block)) if b >= block else (work, (a, b))
                old = bucket.get(target)
                total = ((old or 0) + value * t) % n
                if total:
                    bucket[target] = total
                    if old is None and a >= block and b < block:
                        bisect.insort(heavy, target)
                elif old is not None:
                    del bucket[target]
        fragments = {self.e: credits, self.e + 1: killed}
        return work, {g: d for g, d in fragments.items() if d}

    def reduce(self, f: Polynomial):
        """Normal form of a polynomial: (span terms, cofactor fragments).

        The span terms are a {(i, j): int} dict with 0 <= i, j < p^e; the
        fragments account exactly for what was removed:
        f = sum over g of fragment_g * generator_g + span part, mod p^m.
        f, rational or over the system's modulus, enters as a fresh residue dict.
        """
        if f.ring is not RATIONALS and f.ring != self.modulus:
            raise ValueError("polynomial modulus does not match the rewrite system")
        return self._reduce_terms(residues(f.numerators, f.denominator, self.modulus.value))

    def weight_class(self, weight: int) -> tuple:
        """(low, width): the span monomials x^i y^j with i + p*j = weight
        are those with low <= j < low + width, and a class-local vector
        holds x^i y^j at position j - low."""
        low = max(0, -(-(weight - self.block + 1) // self.p))
        return low, min(self.block - 1, weight // self.p) - low + 1


def _add_into(bucket: dict, terms: dict, scale: int, n: int, di: int = 0, dj: int = 0) -> None:
    """bucket += scale * x^di * y^dj * terms mod n on {(i, j): int} dicts
    without zeros, dropping terms that cancel: the one accumulate loop."""
    for (i, j), value in terms.items():
        key = (i + di, j + dj)
        total = (bucket.get(key, 0) + scale * value) % n
        if total:
            bucket[key] = total
        else:
            bucket.pop(key, None)


@dataclass(frozen=True, eq=False)
class ResidueWitness:
    """The canonical nonzero remainder proving a non-membership."""

    polynomial: Polynomial

    def to_text(self) -> str:
        return self.polynomial.to_text()


@dataclass(frozen=True, eq=False)
class MembershipResult:
    member: bool
    certificate: Certificate | None = None
    witness: ResidueWitness | None = None


@dataclass(frozen=True, eq=False)
class _WeightClass:
    """The part of T in one weight class.

    low is the smallest y-degree in the class, so column k holds the
    monomial of y-degree low + k.  keys are the atoms (n, a, b), each the
    reduction of x^a y^b * g_n; basis is the Howell form of their vectors
    over those columns, which are not kept.  origins are the ascending
    indices into keys of the atoms the basis is built from, and columns
    holds howell_complete's transform by origin, one int tuple per origin
    over the basis rows: basis.matrix[i] = sum over k of columns[k][i]
    times the class vector of keys[origins[k]], mod p^m; every other atom
    has weight zero.
    rows are basis.pivot_rows(low), the pivot rows howell.pivot_walk reads
    with both column fields read as y-degrees: (pivot column + low, pivot
    value, ((j + low, x), ...)) per row, so a query walks its weight part,
    keyed by y-degree, in place.  A weight without atoms has no keys, an
    empty basis and no rows.
    """

    low: int
    keys: tuple
    basis: HowellBasis
    origins: tuple
    columns: tuple
    rows: tuple


class GradedBasis(dict):
    """The basis of T, one weight class at a time: weight -> _WeightClass.

    The classes share no monomials, so T is their direct sum and its rank
    is the sum of the class ranks.  It lists the classes with atoms alone.
    """

    @property
    def rank(self) -> int:
        return sum(weight_class.basis.rank for weight_class in self.values())


class _Rows(list):
    """A class's atom vectors, never empty.  ndim and shape exist only for
    perfbench/tracing.py's howell_size hook on howell_complete's argument;
    the benchmark change of ROADMAP item 1 deletes them."""

    ndim = 2
    shape = property(lambda self: (len(self), len(self[0])))


def _build_class(rewrite: RewriteSystem, weight: int):
    """The _WeightClass of one weight; it has no keys and an empty basis
    when all its atoms vanish.

    Its atoms are the grid multiples x^a y^b g_n with a + p*b + p^n equal
    to weight and 0 <= a, b < p^e, taken in order of n, then b, as in a
    sweep of the whole grid.  Multiples of g_e and of y^(p^e) lie in the
    rewrite ideal and reduce to zero, so n runs over 0 .. e-1.
    """
    p = rewrite.p
    low, width = rewrite.weight_class(weight)
    keys, vectors = [], []
    for gen_index in range(rewrite.e):
        generator = rewrite.generator_terms[gen_index]
        # a = rest - p*b lies in [0, p^e) for exactly the b of the class
        # of weight rest (an empty range when rest < 0)
        rest = weight - p**gen_index
        first, count = rewrite.weight_class(rest)
        for b in range(first, first + count):
            a = rest - p * b
            shifted = {(i + a, j + b): value for (i, j), value in generator.items()}
            terms, _ = rewrite._reduce_terms(shifted)
            if not terms:
                continue
            if any(i + p * j != weight for i, j in terms):
                raise AssertionError(f"atom {(gen_index, a, b)} is not weighted homogeneous")
            keys.append((gen_index, a, b))
            vectors.append([terms.get((weight - p * j, j), 0) for j in range(low, low + width)])
    if keys:
        basis, origins, transform = howell_complete(_Rows(vectors), rewrite.modulus)
    else:
        basis, origins, transform = HowellBasis(rewrite.modulus, (), (), (), width), (), ()
    columns = tuple(zip(*transform))
    return _WeightClass(low, tuple(keys), basis, origins, columns, basis.pivot_rows(low))


class MembershipModule:
    """Queryable description of T = reductions of the ideal, mod p^m.

    Weight classes are built on first touch, every weight its own class.
    basis is the GradedBasis of T, the classes with atoms, and atoms lists
    the key (n, a, b) of every nonzero closure atom, class by class;
    reading either builds every class not yet built.
    Queries reduce each weight part of a target against its own class.
    generators, p, e, m and modulus are the rewrite system's.
    """

    def __init__(self, rewrite):
        self.rewrite = rewrite
        self.generators = rewrite.generators
        self.p, self.e, self.m = rewrite.p, rewrite.e, rewrite.m
        self.modulus = rewrite.modulus
        self.theta_context = ThetaContext(rewrite.p)
        # weight -> _WeightClass, with or without atoms
        self._classes: dict = {}

    def _weight_class(self, weight: int):
        if weight not in self._classes:
            self._classes[weight] = _build_class(self.rewrite, weight)
        return self._classes[weight]

    @property
    def basis(self) -> GradedBasis:
        # the span monomials x^i y^j, 0 <= i, j < p^e, have weights
        # 0 .. (p^e - 1) * (p + 1)
        basis = GradedBasis()
        for weight in range((self.rewrite.block - 1) * (self.p + 1) + 1):
            weight_class = self._weight_class(weight)
            if weight_class.keys:
                basis[weight] = weight_class
        return basis

    @property
    def atoms(self) -> list:
        return [key for weight_class in self.basis.values() for key in weight_class.keys]

    # ---- queries ----

    def is_member(self, f: Polynomial) -> MembershipResult:
        """Decide f in ideal mod p^m; attach a certificate (its target f,
        lifted to integers) or a witness.

        Each weight part of the rewrite, a {y-degree: value} dict, is
        reduced in place by howell.pivot_walk on its class's rows, which
        are keyed by y-degree too; the witness is the nonzero entries the
        parts keep, and a class whose walk returns coefficients weights
        each origin atom by their product with its column, the class's
        transform kept by origin."""
        terms, combined = self.rewrite.reduce(f)
        p, n = self.p, self.modulus.value
        parts: dict = {}  # weight -> {y-degree: value}; the two fix a term
        for (i, j), value in terms.items():
            parts.setdefault(i + p * j, {})[j] = value
        remainder = {}
        solved = []
        for weight, part in sorted(parts.items()):
            weight_class = self._weight_class(weight)
            coefficients = pivot_walk(weight_class.rows, part, n)
            for j, value in part.items():
                if value:
                    remainder[(weight - p * j, j)] = value
            if coefficients is not None:
                solved.append((weight_class, coefficients))
        if remainder:
            witness = ResidueWitness(polynomial=from_numerators(self.modulus, remainder))
            return MembershipResult(member=False, witness=witness)
        # an atom (index, a, b) of weight w is the cofactor w * x^a y^b on
        # g_index; the rest of the span part must rewrite to credits only.
        # Only the origins carry weight, and they are taken in key order
        for weight_class, coefficients in solved:
            for origin, column in zip(weight_class.origins, weight_class.columns):
                weight = sum(map(operator.mul, coefficients, column)) % n
                if weight:
                    index, a, b = weight_class.keys[origin]
                    combined.setdefault(index, {})[(a, b)] = weight
                    _add_into(terms, self.rewrite.generator_terms[index], -weight, n, a, b)
        left, credits = self.rewrite._reduce_terms(terms)
        if left:
            raise AssertionError("atom multiples do not account for the span part")
        for g, cofactor in credits.items():
            _add_into(combined.setdefault(g, {}), cofactor, 1, n)
        cofactors = tuple(
            (g, from_numerators(RATIONALS, cofactor))
            for g, cofactor in sorted(combined.items())
            if cofactor
        )
        target = f if f.ring is RATIONALS else f.lift()
        certificate = Certificate(
            p=self.p, e=self.e, m=self.m, target=target, cofactors=cofactors
        )
        return MembershipResult(member=True, certificate=certificate)

    def power_membership(self, base: Polynomial, exponent: int) -> MembershipResult:
        """Membership of base**exponent, queried as its expansion (see the
        module docstring); the target is the integer lift of base, raised
        to exponent."""
        if exponent < 1:
            raise ValueError("exponent must be positive")
        lifted = base if base.ring is RATIONALS else base.lift()
        return self.is_member(lifted**exponent)

    # ---- verification operations ----

    def _proved(self, f: Polynomial) -> bool:
        """f is a member and its certificate passes the independent check."""
        result = self.is_member(f)
        return result.member and verify_certificate(result.certificate)

    def check_theta_stability(self) -> bool:
        """The ideal is carried into itself by theta and psi, mod p^m.

        Checks membership of theta(g) and psi(g) for every generator, and
        pins the exact identities behind them, stated in the generators
        alone: g_0 = p^e * x; for n < e, psi(g_n) = p * g_(n+1) and
        p * theta(g_n) = g_n^p - p * g_(n+1); psi(g_e) = g_e^p - p * g_(e+1)
        and theta(g_e) = g_(e+1); theta(y^(p^e)) = 0.
        """
        ctx = self.theta_context
        p, e, generators = self.p, self.e, self.generators
        ok = generators[0] == Polynomial.monomial(RATIONALS, 1, 0, p**e)
        for index, g in enumerate(generators):
            power, psi_g = g**p, ctx.psi(g)
            theta_g = ctx.theta_from(g, power, psi_g)
            ok = ok and self._proved(theta_g) and self._proved(psi_g)
            if index < e:
                following = generators[index + 1].scale(p)
                ok = ok and psi_g == following and theta_g.scale(p) == power - following
            elif index == e:
                ok = ok and psi_g == power - generators[e + 1].scale(p)
                ok = ok and theta_g == generators[e + 1]
            else:
                ok = ok and not theta_g
        return ok

    def verify_iterate_torsion(self, k: int) -> bool:
        """p^(e-k) times the k-th Adams iterate of x lies in the ideal."""
        if not 0 <= k <= self.e:
            raise ValueError("k out of range")
        target = self.theta_context.psi_iterate(_X, k).scale(self.p ** (self.e - k))
        return self._proved(target)

    def verify_iterate_power_identity(self, k: int) -> bool:
        """x^(p^e + p^(e-1)) agrees mod the ideal with the k-th Adams
        iterate of the matching smaller power of x."""
        if not 0 <= k <= self.e - 1:
            raise ValueError("k out of range")
        p, e = self.p, self.e
        small = nilpotence_bound(p ** (e - k))
        difference = _X ** nilpotence_bound(p**e) - self.theta_context.psi_iterate(_X, k) ** small
        return self._proved(difference)

    def verify_nilpotence(self) -> MembershipResult:
        """x^N lies in the ideal mod p^m, with certificate, for
        N = nilpotence_bound(p^e) = p^e + p^(e-1), as `nilcert bound` prints."""
        return self.power_membership(_X, nilpotence_bound(self.p**self.e))

    def verify_sharpness(self) -> MembershipResult:
        """One exponent below the bound stays outside, at precision e+1.

        Only meaningful at m = e+1 (the precision where the quotient
        attains the bound); rejects other precisions loudly.
        """
        if self.m != self.e + 1:
            raise ValueError("sharpness is stated at precision m = e + 1")
        return self.power_membership(_X, nilpotence_bound(self.p**self.e) - 1)

    def verify_torsion_powers(self) -> bool:
        """Each p^(e-k) * x, 1 <= k <= e, is p^k-torsion mod the ideal, so
        its (p^k + p^(k-1))-th power must be a member, at every precision."""
        ok = True
        for k in range(1, self.e + 1):
            exponent = nilpotence_bound(self.p**k)
            scalar = (self.p ** (self.e - k)) ** exponent
            target = (_X**exponent).scale(scalar)
            ok = ok and self._proved(target)
        return ok


def build_membership_module(
    p: int, e: int, m: int, span_limit: int | None = None
) -> MembershipModule:
    """The membership module of (p, e) at precision m, its classes unbuilt.

    span_limit bounds the monomial span p^(2e); exceeding it raises
    ValueError before any other work, so callers can turn resource
    overruns into skip verdicts.  The rewrite system then admits the cell
    by certificates.check_cell, which raises ValueError the same way, so
    no certificate the module writes fails the grammar's bounds.  Past
    these checks and the rewrite system's structural ones, no atom is
    built here.

    One elimination per weight class, on the class's first touch: the
    atoms of weight w are reduced over that class's at most p^(e-1)
    columns by howell_complete, whose transform, kept by origin, later
    weights the atoms of a certificate.  Both run on Python ints, exact at
    any precision.
    """
    if span_limit is not None:
        # p^(2e) >= 2^e > span_limit once e reaches its bit length, so an
        # absurd depth is refused without forming p^(2e)
        if e >= span_limit.bit_length():
            raise ValueError(f"span size {p}^{2 * e} exceeds the limit {span_limit}")
        if p ** (2 * e) > span_limit:
            raise ValueError(f"span size {p ** (2 * e)} exceeds the limit {span_limit}")
    return MembershipModule(RewriteSystem(p, e, m))


# the most elements the oracle's closure may hold; the admitted cells
# other than (2, 2, 3) and (2, 2, 4) stay at or below 729
ORACLE_CLOSURE_LIMIT = 4096


def brute_force_membership_oracle(p: int, e: int, m: int, f: Polynomial) -> bool:
    """Decide membership by enumerating T outright.  It admits the cell by
    certificates.check_cell first, so no absurd power is formed, then
    refuses unless p^(2e) <= 16 and p^m <= 16, and raises ValueError as
    soon as the closure holds more than ORACLE_CLOSURE_LIMIT elements
    (|T| is 2^22 at (2, 2, 3) and 2^37 at (2, 2, 4)).

    A deliberately independent second route on plain ints: seeds and tail
    come from the checker's integer family certificates._checker_generators,
    f (rational or over Z/p^m) enters by polynomials.residues, and the
    reduction and the closure (of the seeds under addition, scalars and
    the two monomial shifts) are written here against the definition.  It
    shares no operator, polynomial arithmetic or Howell code with the engine.
    """
    check_cell(p, e, m)
    if p ** (2 * e) > 16 or p**m > 16:
        raise ValueError("oracle guard: instance too large to enumerate")
    if f.ring is not RATIONALS and f.ring != Modulus(p, m):
        raise ValueError("polynomial modulus does not match the oracle's cell")
    n = p**m
    block = p**e
    # the cached family is only read; family[e] is g_e, monic of degree p^e in x
    family = _checker_generators(p, e)
    tail = {k: -c for k, c in family[e].items() if k != (block, 0)}

    def oracle_reduce(terms: dict) -> tuple:
        terms = {key: value % n for key, value in terms.items() if value % n}
        while True:
            terms = {key: value for key, value in terms.items() if key[1] < block}
            heavy = sorted(key for key in terms if key[0] >= block)
            if not heavy:
                break
            i, j = heavy[-1]
            value = terms.pop((i, j))
            for (ti, tj), tc in tail.items():
                key = (i - block + ti, j + tj)
                total = (terms.get(key, 0) + value * tc) % n
                if total:
                    terms[key] = total
                else:
                    terms.pop(key, None)
        vector = [0] * block**2
        for (i, j), value in terms.items():
            vector[j * block + i] = value
        return tuple(vector)

    def shift(vector: tuple, di: int, dj: int) -> tuple:
        terms = {}
        for index, value in enumerate(vector):
            if value:
                terms[(index % block + di, index // block + dj)] = value
        return oracle_reduce(terms)

    zero = tuple([0] * block**2)
    elements = {zero}
    # a seed that reduces to zero is already an element and is skipped
    worklist = [oracle_reduce(g) for g in family]
    while worklist:
        candidate = worklist.pop()
        if candidate in elements:
            continue
        additions = set()
        for existing in elements:
            for scalar in range(1, n):
                additions.add(
                    tuple((a + scalar * b) % n for a, b in zip(existing, candidate))
                )
        elements |= additions
        if len(elements) > ORACLE_CLOSURE_LIMIT:
            raise ValueError(
                f"oracle guard: the closure passed {ORACLE_CLOSURE_LIMIT} elements"
            )
        worklist.append(shift(candidate, 1, 0))
        worklist.append(shift(candidate, 0, 1))

    return oracle_reduce(residues(f.numerators, f.denominator, n)) in elements
