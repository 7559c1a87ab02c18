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

is confluent: reduce_to_span is a well defined linear map onto the span.
Membership in the full ideal then becomes a linear question: f lies in
the ideal mod p^m iff reduce_to_span(f) lies in the row module T spanned
by the reductions of all multiples x^a y^b g_n.  Finitely many multiples
suffice: a reduction with a >= p^e rewrites into reductions of strictly
smaller a (x^(p^e) acts as the rewrite tail modulo the monic generator),
and y^b g_n reduces to zero once b reaches p^e, so the grid
0 <= a, b < p^e spans T.

Everything here is weighted homogeneous for wt(x) = 1, wt(y) = p: the
iterate generators, the rewrite tail, y^(p^e), so every grid multiple
x^a y^b g_n (weight a + p*b + p^n) and every target x^N.  Reduction keeps
the weight, so T is the direct sum of its weight classes, the spans of
the monomials x^i y^j with i + p*j = w, each at most p^(e-1) wide.  The
build Howellizes each class on its own (Macaulay-style elimination degree
by degree, as for homogeneous ideals) and scatters the class bases into
one canonical Howell basis over the span, which queries reduce against.

Certificates ride along: the rewrite records cofactor fragments, each
closure atom carries a small cofactor bundle, and a positive membership
answer combines them through the Howell transforms of the classes its
remainder touched into one cofactor per generator, verifiable by
independent expansion (see certificates.py).

Span vectors index the monomial x^i y^j at position j * p^e + i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, standard_generators
from .coefficients import Modulus
from .howell import HowellBasis, howell_complete

# not called here any more; kept importable by this name, which
# perfbench/tracing.py wraps
from .howell import howell_spanning_subset  # noqa: F401
from .polynomials import RATIONALS, Polynomial
from .theta import ThetaContext


@dataclass(frozen=True)
class IdealSpec:
    """The generator family for one (p, e)."""

    p: int
    e: int
    generators: tuple

    @classmethod
    def build(cls, p: int, e: int) -> "IdealSpec":
        members = standard_generators(p, e)
        top = members[e]
        if top.coefficient(p**e, 0) != 1 or top.degree_first() != p**e:
            raise AssertionError("top generator must be monic of degree p^e in x")
        if members[e + 1] != Polynomial.monomial(RATIONALS, 0, p**e):
            raise AssertionError("last generator must be y^(p^e)")
        return cls(p=p, e=e, generators=members)


class RewriteSystem:
    """The linear normal-form map onto the monomial span, mod p^m.

    Rewriting order is fixed for determinism: terms killed by the y-rule
    first, then among terms with x-degree >= p^e the highest x-degree
    (leftmost in the term order on ties).  Each x-step strictly lowers
    the x-degree, so the loop terminates; confluence makes the order
    irrelevant to the result, which the tests exercise separately.
    """

    def __init__(self, p: int, e: int, m: int):
        if e < 1:
            raise ValueError("depth e must be at least 1")
        self.modulus = Modulus(p, m)
        self.p, self.e, self.m = p, e, m
        self.block = p**e
        self.span_size = p ** (2 * e)
        top = ThetaContext(p).iterate_polynomial(e)
        tail = (Polynomial.monomial(RATIONALS, self.block, 0) - top).reduce_mod(p, m)
        self.tail = {key: c.value for key, c in tail.terms.items()}
        if any(i >= self.block or j >= self.block for i, j in self.tail):
            raise AssertionError("rewrite tail escapes the span block")

    def _reduce_terms(self, work: dict):
        """Core loop on a plain {(i, j): int} dict; mutates it into the span
        part and returns (span terms, fragments) with fragments[g] a
        cofactor term dict."""
        n = self.modulus.value
        block = self.block
        fragments: dict = {}

        def credit(generator: int, key, value):
            bucket = fragments.setdefault(generator, {})
            total = (bucket.get(key, 0) + value) % n
            if total:
                bucket[key] = total
            else:
                bucket.pop(key, None)

        while True:
            for key in [key for key in work if key[1] >= block]:
                value = work.pop(key)
                credit(self.e + 1, (key[0], key[1] - block), value)
            heavy = [key for key in work if key[0] >= block]
            if not heavy:
                break
            i, j = max(heavy)
            value = work.pop((i, j))
            credit(self.e, (i - block, j), value)
            for (ti, tj), tc in self.tail.items():
                key = (i - block + ti, j + tj)
                total = (work.get(key, 0) + value * tc) % n
                if total:
                    work[key] = total
                else:
                    work.pop(key, None)
        return work, {g: dict(d) for g, d in fragments.items() if d}

    def reduce(self, f: Polynomial):
        """Normal form of a polynomial: (span vector, cofactor fragments).

        The fragments account exactly for what was removed:
        f = sum over g of fragment_g * generator_g + span part, mod p^m.
        """
        if f.ring is RATIONALS:
            f = f.reduce_mod(self.p, self.m)
        elif f.ring != self.modulus:
            raise ValueError("polynomial modulus does not match the rewrite system")
        terms, fragments = self._reduce_terms({key: c.value for key, c in f.terms.items()})
        vector = np.zeros(self.span_size, dtype=np.int64)
        for (i, j), value in terms.items():
            vector[j * self.block + i] = value
        return vector, fragments

    def weight_columns(self, weight: int) -> np.ndarray:
        """Span indices of the monomials x^i y^j with i + p*j = weight.

        Ascending, which is ascending j: x^i y^j sits at position
        j - (smallest j of the class) in the class.
        """
        block, p = self.block, self.p
        low = max(0, -(-(weight - block + 1) // p))
        js = np.arange(low, min(block - 1, weight // p) + 1, dtype=np.int64)
        return js * block + weight - p * js

    def monomial_index(self, i: int, j: int) -> int:
        if not (0 <= i < self.block and 0 <= j < self.block):
            raise ValueError("monomial outside the span block")
        return j * self.block + i

    def vector_to_polynomial(self, vector: np.ndarray) -> Polynomial:
        block = self.block
        terms = {
            (index % block, index // block): int(value)
            for index, value in enumerate(vector)
            if value
        }
        return Polynomial(self.modulus, terms)


@dataclass(frozen=True, eq=False)
class ResidueWitness:
    """The canonical nonzero remainder proving a non-membership."""

    vector: np.ndarray
    polynomial: Polynomial

    def to_text(self) -> str:
        return self.polynomial.to_text()


@dataclass(frozen=True, eq=False)
class MembershipResult:
    member: bool
    certificate: Certificate | None = None
    witness: ResidueWitness | None = None


@dataclass(eq=False)
class _Atom:
    """One closure element: the reduction of x^a y^b * g_n.

    key is (n, a, b) and weight is a + p*b + p^n, the weight class the
    reduction lies in; vector holds it over that class's columns
    (RewriteSystem.weight_columns(weight)).  bundle maps generator index
    to a cofactor term dict whose expansion equals the reduction mod p^m
    (the monomial cofactor on g_n minus whatever the reduction credited
    to other generators).
    """

    key: tuple
    weight: int
    vector: np.ndarray
    bundle: dict


@dataclass(frozen=True, eq=False)
class _WeightClass:
    """The part of T in one weight class.

    columns are the class's span indices, ascending; basis is the Howell
    form of the class's atoms over those columns, with
    basis.matrix = transform @ (atom vectors) mod p^m; rows[k] is the row
    of the module's basis that local row k was scattered to.
    """

    columns: np.ndarray
    atoms: list
    basis: HowellBasis
    transform: np.ndarray
    rows: np.ndarray


class MembershipModule:
    """Queryable description of T = reductions of the ideal, mod p^m.

    basis is the canonical Howell basis of T over the whole span;
    weight_classes holds the per-class eliminations it was assembled
    from, and atoms every nonzero closure atom.
    """

    def __init__(self, ideal, rewrite, basis, weight_classes, atoms):
        self.ideal = ideal
        self.rewrite = rewrite
        self.modulus = rewrite.modulus
        self.basis = basis
        self.weight_classes = weight_classes
        self.atoms = atoms
        self._row_class = np.zeros(basis.rank, dtype=np.int64)
        for index, weight_class in enumerate(weight_classes):
            self._row_class[weight_class.rows] = index
        self.theta_context = ThetaContext(ideal.p)

    @property
    def p(self) -> int:
        return self.ideal.p

    @property
    def e(self) -> int:
        return self.ideal.e

    @property
    def m(self) -> int:
        return self.modulus.m

    # ---- queries ----

    def reduce_to_span(self, f: Polynomial):
        return self.rewrite.reduce(f)

    def is_member(self, f: Polynomial) -> MembershipResult:
        """Decide f in ideal mod p^m; attach a certificate or a witness."""
        vector, fragments = self.rewrite.reduce(f)
        return self._finish(vector, fragments, self._as_target(f))

    def power_membership(self, base: Polynomial, exponent: int) -> MembershipResult:
        """Membership of base**exponent, by repeated multiply-then-reduce.

        The unreduced power is never materialized: after each
        multiplication the product is reduced back onto the span, and the
        cofactor fragments are transported alongside.
        """
        if exponent < 1:
            raise ValueError("exponent must be positive")
        base_mod = base.reduce_mod(self.p, self.m) if base.ring is RATIONALS else base
        n = self.modulus.value
        vector, fragments = self.rewrite.reduce(base_mod)
        for _ in range(exponent - 1):
            carried = {}
            for g, terms in fragments.items():
                product = base_mod * Polynomial(self.modulus, terms)
                carried[g] = {key: c.value for key, c in product.terms.items()}
            partial = base_mod * self.rewrite.vector_to_polynomial(vector)
            vector, fresh = self.rewrite.reduce(partial)
            for g, terms in fresh.items():
                bucket = carried.setdefault(g, {})
                for key, value in terms.items():
                    total = (bucket.get(key, 0) + value) % n
                    if total:
                        bucket[key] = total
                    else:
                        bucket.pop(key, None)
            fragments = {g: d for g, d in carried.items() if d}
        target = self._as_target(base) ** exponent
        return self._finish(vector, fragments, target)

    def _as_target(self, f: Polynomial) -> Polynomial:
        return f if f.ring is RATIONALS else f.lift()

    def _finish(self, vector, fragments, target) -> MembershipResult:
        residue, coefficients = self.basis.reduce(vector)
        if residue.any():
            witness = ResidueWitness(
                vector=residue, polynomial=self.rewrite.vector_to_polynomial(residue)
            )
            return MembershipResult(member=False, witness=witness)
        n = self.modulus.value
        combined = {g: dict(terms) for g, terms in fragments.items()}
        touched = np.unique(self._row_class[np.flatnonzero(coefficients)])
        for index in touched:
            weight_class = self.weight_classes[index]
            atom_weights = (coefficients[weight_class.rows] @ weight_class.transform) % n
            for atom, weight in zip(weight_class.atoms, atom_weights):
                if not weight:
                    continue
                weight = int(weight)
                for g, terms in atom.bundle.items():
                    bucket = combined.setdefault(g, {})
                    for key, value in terms.items():
                        total = (bucket.get(key, 0) + weight * value) % n
                        if total:
                            bucket[key] = total
                        else:
                            bucket.pop(key, None)
        cofactors = tuple(
            (g, Polynomial(RATIONALS, terms))
            for g, terms in sorted(combined.items())
            if terms
        )
        certificate = Certificate(
            p=self.p, e=self.e, m=self.m, target=target, cofactors=cofactors
        )
        return MembershipResult(member=True, certificate=certificate)

    # ---- verification operations ----

    def check_theta_stability(self) -> bool:
        """The ideal is carried into itself by theta and psi, mod p^m.

        Checks membership of theta(g) and psi(g) for every generator, and
        pins the exact identities behind them: psi(g_n) is p^(e-n) times
        the next iterate for n <= e, theta(g_e) = y^(p^e), theta of the
        last generator vanishes, and theta(g_n) for n < e expands as
        p^((e-n)p-1) * (iterate_n)^p - p^(e-n-1) * iterate_(n+1).
        """
        ctx = self.theta_context
        p, e = self.p, self.e
        iterates = [ctx.iterate_polynomial(k) for k in range(e + 2)]
        ok = True
        for index, g in enumerate(self.ideal.generators):
            theta_g = ctx.theta(g)
            psi_g = ctx.psi(g)
            ok = ok and self.is_member(theta_g).member
            ok = ok and self.is_member(psi_g).member
            if index < e:
                expected = (iterates[index] ** p).scale(p ** ((e - index) * p - 1))
                expected = expected - iterates[index + 1].scale(p ** (e - index - 1))
                ok = ok and theta_g == expected
                ok = ok and psi_g == iterates[index + 1].scale(p ** (e - index))
            elif index == e:
                ok = ok and theta_g == Polynomial.monomial(RATIONALS, 0, p**e)
                ok = ok and psi_g == iterates[e + 1]
            else:
                ok = ok and theta_g.is_zero()
        return ok

    def verify_iterate_torsion(self, k: int) -> bool:
        """p^(e-k) times the k-th Adams iterate of x lies in the ideal."""
        if not 0 <= k <= self.e:
            raise ValueError("k out of range")
        x, _ = Polynomial.generators(RATIONALS)
        target = self.theta_context.psi_iterate(x, k).scale(self.p ** (self.e - k))
        return self.is_member(target).member

    def verify_iterate_power_identity(self, k: int) -> bool:
        """x^(p^e + p^(e-1)) agrees mod the ideal with the k-th Adams
        iterate of the matching smaller power of x."""
        if not 0 <= k <= self.e - 1:
            raise ValueError("k out of range")
        p, e = self.p, self.e
        x, _ = Polynomial.generators(RATIONALS)
        small = p ** (e - k) + p ** (e - k - 1)
        difference = x ** (p**e + p ** (e - 1)) - self.theta_context.psi_iterate(x, k) ** small
        return self.is_member(difference).member

    def verify_nilpotence(self) -> MembershipResult:
        """x^(p^e + p^(e-1)) lies in the ideal mod p^m, with certificate."""
        x, _ = Polynomial.generators(RATIONALS)
        return self.power_membership(x, self.p**self.e + self.p ** (self.e - 1))

    def verify_sharpness(self) -> MembershipResult:
        """One exponent below the bound stays outside, at precision e+1.

        Only meaningful at m = e+1 (the precision where the quotient
        attains the bound); rejects other precisions loudly.
        """
        if self.m != self.e + 1:
            raise ValueError("sharpness is stated at precision m = e + 1")
        x, _ = Polynomial.generators(RATIONALS)
        return self.power_membership(x, self.p**self.e + self.p ** (self.e - 1) - 1)

    def verify_torsion_powers(self, ks=None) -> bool:
        """Each p^(e-k) * x is p^k-torsion mod the ideal, so its
        (p^k + p^(k-1))-th power must be a member, at every precision."""
        if ks is None:
            ks = range(1, self.e + 1)
        x, _ = Polynomial.generators(RATIONALS)
        ok = True
        for k in ks:
            exponent = self.p**k + self.p ** (k - 1)
            scalar = (self.p ** (self.e - k)) ** exponent
            target = (x**exponent).scale(scalar)
            ok = ok and self.is_member(target).member
        return ok


def build_membership_module(
    p: int, e: int, m: int, span_limit: int | None = None
) -> MembershipModule:
    """Compute T and its Howell basis for (p, e) at precision m.

    span_limit bounds the monomial span p^(2e); exceeding it raises
    ValueError so callers can turn resource overruns into skip verdicts.

    One elimination per weight class: the atoms of weight w are reduced
    over that class's at most p^(e-1) columns by howell_complete, whose
    transform certificates later combine cofactors through.  The class
    bases are scattered into one basis over the span, rows sorted by
    pivot column, which is the Howell form of all atoms together because
    the classes share no columns.  Combining a certificate sums, per
    class, one product of two residues below p^m per class basis row, so
    the largest class rank times (p^m)^2 must stay below 2^63; above it
    the build raises ValueError.
    """
    rewrite = RewriteSystem(p, e, m)
    if span_limit is not None and rewrite.span_size > span_limit:
        raise ValueError(f"span size {rewrite.span_size} exceeds the limit {span_limit}")
    modulus = rewrite.modulus
    n = modulus.value
    ideal = IdealSpec.build(p, e)
    generators_mod = [
        {key: c.value for key, c in g.reduce_mod(p, m).terms.items()}
        for g in ideal.generators
    ]
    block = rewrite.block
    columns_of: dict = {}

    def make_atom(key):
        gen_index, a, b = key
        shifted = {
            (i + a, j + b): value for (i, j), value in generators_mod[gen_index].items()
        }
        terms, fragments = rewrite._reduce_terms(shifted)
        if not terms:
            return None
        weight = a + p * b + p**gen_index
        if any(i + p * j != weight for i, j in terms):
            raise AssertionError(f"atom {key} is not weighted homogeneous")
        if weight not in columns_of:
            columns_of[weight] = rewrite.weight_columns(weight)
        columns = columns_of[weight]
        first = int(columns[0]) // block
        vector = np.zeros(len(columns), dtype=np.int64)
        for (i, j), value in terms.items():
            vector[j - first] = value
        bundle = {gen_index: {(a, b): 1}}
        for g, cofactor in fragments.items():
            bucket = bundle.setdefault(g, {})
            for term_key, value in cofactor.items():
                total = (bucket.get(term_key, 0) - value) % n
                if total:
                    bucket[term_key] = total
                else:
                    bucket.pop(term_key, None)
        return _Atom(
            key=key, weight=weight, vector=vector,
            bundle={g: d for g, d in bundle.items() if d},
        )

    # multiples of the last generator reduce to zero outright (every term
    # has y-degree >= p^e), so the grid runs over the iterate generators
    atoms = []
    by_weight: dict = {}
    for gen_index in range(e + 1):
        for b in range(block):
            for a in range(block):
                atom = make_atom((gen_index, a, b))
                if atom is not None:
                    atoms.append(atom)
                    by_weight.setdefault(atom.weight, []).append(atom)

    weight_classes = []
    for weight in sorted(by_weight):
        members = by_weight[weight]
        class_basis, transform = howell_complete(
            np.vstack([atom.vector for atom in members]), modulus
        )
        if class_basis.rank * n * n >= 2**63:
            raise ValueError("precision too large for int64 transform arithmetic")
        weight_classes.append(
            _WeightClass(
                columns=columns_of[weight], atoms=members, basis=class_basis,
                transform=transform, rows=np.zeros(class_basis.rank, dtype=np.int64),
            )
        )

    order = sorted(
        (int(weight_class.columns[column]), index, local)
        for index, weight_class in enumerate(weight_classes)
        for local, column in enumerate(weight_class.basis.pivot_columns)
    )
    matrix = np.zeros((len(order), rewrite.span_size), dtype=np.int64)
    for row, (_, index, local) in enumerate(order):
        weight_class = weight_classes[index]
        matrix[row, weight_class.columns] = weight_class.basis.matrix[local]
        weight_class.rows[local] = row
    basis = HowellBasis(
        modulus=modulus,
        matrix=matrix,
        pivot_columns=tuple(column for column, _, _ in order),
        pivot_values=tuple(
            weight_classes[index].basis.pivot_values[local] for _, index, local in order
        ),
    )
    return MembershipModule(ideal, rewrite, basis, weight_classes, atoms)


def brute_force_membership_oracle(p: int, e: int, m: int, f: Polynomial) -> bool:
    """Decide membership by enumerating T outright.  Desk-scale guard:
    refuses unless p^(2e) <= 16 and p^m <= 16.

    This is a deliberately independent second route: the reduction loop
    and the closure are rewritten here against the definition (breadth
    first closure of the seed reductions under addition, scalars, and the
    two monomial shifts), sharing none of the Howell machinery.
    """
    if p ** (2 * e) > 16 or p**m > 16:
        raise ValueError("oracle guard: instance too large to enumerate")
    n = p**m
    block = p**e
    top = ThetaContext(p).iterate_polynomial(e)
    tail = {
        key: c.value
        for key, c in (Polynomial.monomial(RATIONALS, block, 0) - top)
        .reduce_mod(p, m)
        .terms.items()
    }

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

    seeds = []
    for g in standard_generators(p, e):
        reduced = oracle_reduce(
            {key: c.value for key, c in g.reduce_mod(p, m).terms.items()}
        )
        if any(reduced):
            seeds.append(reduced)

    zero = tuple([0] * block**2)
    elements = {zero}
    worklist = list(seeds)
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
        worklist.append(shift(candidate, 1, 0))
        worklist.append(shift(candidate, 0, 1))

    query = f.reduce_mod(p, m) if f.ring is RATIONALS else f
    reduced = oracle_reduce({key: c.value for key, c in query.terms.items()})
    return reduced in elements
