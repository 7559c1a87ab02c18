"""Sparse bivariate polynomials over the package's exact coefficient rings.

A polynomial is a dict from exponent pairs (i, j) to nonzero coefficients,
tagged with the ring the coefficients live in: either RATIONALS (integers
and p-integral fractions) or a Modulus(p, m) (residues in Z/p^m).  RATIONALS
coefficients are integer-native: an integer value is always stored as a
plain int and a LocalizedRational only when its reduced denominator is
greater than 1, so equal polynomials have equal terms and equal hashes.
A Modulus(p, m) coefficient is a plain int, its representative in
[0, p^m).

Every sum, difference, negation, product and power runs on cleared
integers, over either ring: each operand is scaled by the lcm of its
denominators (clear_denominators; over a Modulus, or for integer
coefficients, the lcm is 1 and the terms are used as they are), the
integer polynomials are added or multiplied, and the result leaves
through one exit, Polynomial._from_sums: over RATIONALS each output term
is divided back once through coefficients.rational (from_cleared), over
a Modulus the constructor reduces every term.  A sum adds only the
monomials both operands carry; every other term keeps its coefficient,
so it is not divided back.  A large integer product
goes through one kernel, _int_product, which packs both operands into
big integers by Kronecker substitution and multiplies them with one
big-int multiply; small or sparse products keep the schoolbook loop.

Variables are positional; they are only named at the text boundary,
rendered as x, y by default or s, t for the iterate family.

The text format is bit-exact and round-trips through parse():
terms in graded-lexicographic order (first variable dominant, descending),
each monomial once, printed as c*x^i*y^j with unit coefficients and zero
exponents omitted, e.g. "x^4 - 4*x^2*y + 2*y^2".
"""

from __future__ import annotations

import math
import re

from .coefficients import LocalizedRational, Modulus, rational


class _RationalRing:
    """Sentinel ring tag for coefficients in Z or Z localized at a prime."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "RATIONALS"


RATIONALS = _RationalRing()


def coerce_coefficient(ring, value):
    """Map an int / LocalizedRational into the given ring.

    Into RATIONALS the value comes back in canonical form: a plain int for
    an integer value, a LocalizedRational only for a proper fraction.
    Into a Modulus it comes back as its int representative in [0, p^m).
    """
    if ring is RATIONALS:
        if type(value) is int:
            return value
        if isinstance(value, LocalizedRational):
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, int):
            return int(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into RATIONALS")
    if isinstance(ring, Modulus):
        return ring.residue(value)
    raise TypeError(f"unknown coefficient ring {ring!r}")


def clear_denominators(terms: dict):
    """(cleared, d): d is the lcm of the denominators of the coefficients
    in terms, and cleared maps each key to the integer d * coefficient.

    With d = 1 (every coefficient an int) terms itself comes back, so the
    caller must not mutate it.
    """
    if LocalizedRational not in set(map(type, terms.values())):
        return terms, 1
    d = math.lcm(*[c.denominator for c in terms.values()])
    return {k: c.numerator * (d // c.denominator) for k, c in terms.items()}, d


def _schoolbook(a: dict, b: dict) -> dict:
    """Product of two coefficient dicts by the term-by-term loop, zeros dropped."""
    out = {}
    get = out.get
    right = [(i2, j2, c2) for (i2, j2), c2 in b.items()]
    for (i1, j1), c1 in a.items():
        for i2, j2, c2 in right:
            key = (i1 + i2, j1 + j2)
            s = get(key)
            out[key] = c1 * c2 if s is None else s + c1 * c2
    return {k: c for k, c in out.items() if c}


def _slope(keys) -> int:
    """An integer c that makes i + c*j nearly constant over keys: the one
    joining a term of least y-degree to a term of greatest y-degree (p for
    a weighted-homogeneous polynomial with wt(x) = 1, wt(y) = p)."""
    low = min(j for _, j in keys)
    high = max(j for _, j in keys)
    if low == high:
        return 0
    i_low = max(i for i, j in keys if j == low)
    i_high = min(i for i, j in keys if j == high)
    return (i_low - i_high) // (high - low)


def _layout(a: dict, b: dict):
    """Kronecker layout (slots, c, width, base_a, base_b) for the product a*b.

    x^i*y^j of an operand goes to slot width*(i + c*j - s0) + (j - j0),
    where base = (s0, j0) holds the operand's least i + c*j and least j.
    width exceeds the y-degree spread of the product, so the map is
    one-to-one on the product for any integer c; c is 0 or one of the
    operands' slopes, whichever gives the product fewer slots.
    """
    keys_a, keys_b = list(a), list(b)
    ja = [j for _, j in keys_a]
    jb = [j for _, j in keys_b]
    ja0, jb0 = min(ja), min(jb)
    width = max(ja) - ja0 + max(jb) - jb0 + 1
    best = None
    for c in {0, _slope(keys_a), _slope(keys_b)}:
        sa = [i + c * j for i, j in keys_a]
        sb = [i + c * j for i, j in keys_b]
        sa0, sb0 = min(sa), min(sb)
        slots = width * (max(sa) - sa0 + max(sb) - sb0 + 1)
        if best is None or slots < best[0]:
            best = (slots, c, width, (sa0, ja0), (sb0, jb0))
    return best


def _pack(terms: dict, c: int, width: int, base, w: int) -> int:
    """The integer sum of coefficient * 2^(8*w*slot) over terms."""
    s0, j0 = base
    offsets = [(width * (i + c * j - s0) + j - j0) * w for i, j in terms]
    positive = bytearray(max(offsets) + w)
    negative = bytearray(len(positive))
    for offset, v in zip(offsets, terms.values()):
        if v > 0:
            positive[offset:offset + w] = v.to_bytes(w, "little")
        else:
            negative[offset:offset + w] = (-v).to_bytes(w, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _int_product(a: dict, b: dict, layout=None) -> dict:
    """Product of two zero-free integer polynomials {(i, j): int}, zeros dropped, by
    Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, 8.4): each operand is evaluated at z = 2^(8w) under the
    layout of _layout, the two integers are multiplied once, and the
    product is read back slot by slot.

    A slot of the product holds a sum of at most min(len a, len b) terms,
    each at most max|a| * max|b| in absolute value; w bytes per slot keep
    that sum below 2^(8w-1), so adding 2^(8w-1) to every slot makes each
    one a nonnegative w-byte field and the signed values come back exactly.
    """
    if not a or not b:
        return {}
    if layout is None:
        layout = _layout(a, b)
    slots, c, width, base_a, base_b = layout
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    w = (bound.bit_length() + 8) // 8
    packed = _pack(a, c, width, base_a, w)
    # one packed object for a square, so CPython's multiply takes its squaring path
    product = packed * (packed if b is a else _pack(b, c, width, base_b, w))
    half = 1 << (8 * w - 1)
    zero = half.to_bytes(w, "little")
    data = (product + int.from_bytes(zero * slots, "little")).to_bytes(slots * w, "little")
    s0 = base_a[0] + base_b[0]
    j0 = base_a[1] + base_b[1]
    out = {}
    for slot, offset in enumerate(range(0, slots * w, w)):
        field = data[offset:offset + w]
        if field != zero:
            s, j = divmod(slot, width)
            j += j0
            out[(s + s0 - c * j, j)] = int.from_bytes(field, "little") - half
    return out


def _product(a: dict, b: dict) -> dict:
    """Product of two integer coefficient dicts, zeros dropped: through
    _int_product when the product has fewer than an eighth as many slots
    as term products, by the schoolbook loop otherwise."""
    if not a or not b:
        return {}
    products = len(a) * len(b)
    # a product has at least len(a) + len(b) - 1 slots
    if 8 * (len(a) + len(b) - 1) >= products:
        return _schoolbook(a, b)
    layout = _layout(a, b)
    if 8 * layout[0] >= products:
        return _schoolbook(a, b)
    return _int_product(a, b, layout)


def from_cleared(terms: dict, d: int) -> "Polynomial":
    """The RATIONALS polynomial terms / d, from zero-free integer terms:
    each term divided once through coefficients.rational."""
    if d != 1:
        terms = {k: rational(c, d) for k, c in terms.items()}
    result = Polynomial.__new__(Polynomial)
    object.__setattr__(result, "ring", RATIONALS)
    object.__setattr__(result, "terms", terms)
    return result


def _term_sort_key(exponents):
    i, j = exponents
    return (i + j, i)


class Polynomial:
    """Immutable sparse polynomial in two variables."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        """Build from a mapping {(i, j): coefficient}; zeros are dropped."""
        clean = {}
        for key, value in (terms or {}).items():
            i, j = key
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            c = coerce_coefficient(ring, value)
            if c:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def one(cls, ring):
        return cls(ring, {(0, 0): 1})

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {(0, 0): c})

    @classmethod
    def monomial(cls, ring, i, j, c=1):
        return cls(ring, {(i, j): c})

    @classmethod
    def generators(cls, ring):
        """The pair of variable polynomials (first, second)."""
        return cls.monomial(ring, 1, 0), cls.monomial(ring, 0, 1)

    # ---- structure ----

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree_first(self) -> int:
        """Degree in the first variable; -1 for zero."""
        if not self.terms:
            return -1
        return max(i for i, _ in self.terms)

    def coefficient(self, i, j):
        """Coefficient of the (i, j) monomial, 0 if absent.

        Over RATIONALS an int or a LocalizedRational; over a Modulus(p, m)
        an int in [0, p^m).
        """
        return self.terms.get((i, j), 0)

    def sorted_terms(self):
        """Terms in descending graded-lex order, first variable dominant."""
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]), reverse=True)

    def _check_ring(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    # ---- arithmetic ----

    def _from_sums(self, terms: dict, d: int = 1) -> "Polynomial":
        """The polynomial terms / d over self.ring, from zero-free terms.
        Over RATIONALS each term, a cleared integer, is divided back once
        through from_cleared (with d = 1 the terms are kept as they are);
        over a Modulus, whose coefficients are ints and so always have
        d = 1, the constructor reduces every term."""
        if self.ring is RATIONALS:
            return from_cleared(terms, d)
        return Polynomial(self.ring, terms)

    def _combine(self, other, sign: int) -> "Polynomial":
        """self + sign*other.  Only the monomials both operands carry are
        added: as cleared integers over the lcm of their denominators,
        divided back once.  Every other term keeps its coefficient (other's
        times sign, by the scalar multiply), so it is never divided back."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        out = dict(self.terms)
        mine, theirs = {}, {}
        for key, c in other.terms.items():
            if key in out:
                mine[key] = out.pop(key)
                theirs[key] = c
            else:
                out[key] = c if sign == 1 else c * sign
        if mine:
            a, da = clear_denominators(mine)
            b, db = clear_denominators(theirs)
            d = math.lcm(da, db)
            ua, ub = d // da, sign * (d // db)
            sums = {}
            for key, c in b.items():
                s = a[key] * ua + c * ub
                if s:
                    sums[key] = s
            out.update(self._from_sums(sums, d).terms)
        return self._from_sums(out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return Polynomial.constant(self.ring, other)._combine(self, -1)

    def __neg__(self):
        terms, d = clear_denominators(self.terms)
        return self._from_sums({k: -c for k, c in terms.items()}, d)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        a, da = clear_denominators(self.terms)
        b, db = clear_denominators(other.terms)
        return self._from_sums(_product(a, b), da * db)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        c = coerce_coefficient(self.ring, c)
        return Polynomial(self.ring, {k: v * c for k, v in self.terms.items()})

    def __pow__(self, exponent: int):
        """Square-and-multiply on the cleared integer polynomial, divided
        by d^exponent once at the end.  Each step leaves through
        _from_sums with d = 1, which keeps the integers over RATIONALS and
        reduces them mod p^m over a Modulus, so they stay small there."""
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        base, d = clear_denominators(self.terms)
        result = {(0, 0): 1}
        e = exponent
        while e:
            if e & 1:
                result = self._from_sums(_product(result, base)).terms
            if e > 1:
                base = self._from_sums(_product(base, base)).terms
            e >>= 1
        return self._from_sums(result, d**exponent)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, LocalizedRational)):
                try:
                    other = Polynomial.constant(self.ring, other)
                except (TypeError, ValueError):
                    return NotImplemented
            else:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # ---- ring maps ----

    def substitute(self, first: "Polynomial", second: "Polynomial") -> "Polynomial":
        """Evaluate self at (first, second); both must share self's ring."""
        self._check_ring(first)
        self._check_ring(second)
        total = Polynomial.zero(self.ring)
        for (i, j), c in sorted(self.terms.items()):
            total = total + c * first**i * second**j
        return total

    def reduce_mod(self, p: int, m: int) -> "Polynomial":
        """Reduce every coefficient into Z/p^m, dropping vanishing terms."""
        if self.ring is not RATIONALS:
            raise ValueError("reduce_mod expects rational or integer coefficients")
        return Polynomial(Modulus(p, m), self.terms)

    def lift(self) -> "Polynomial":
        """Lift Z/p^m coefficients to integers via representatives in [0, p^m)."""
        if not isinstance(self.ring, Modulus):
            raise ValueError("lift expects residue coefficients")
        return Polynomial(RATIONALS, self.terms)

    # ---- text format ----

    def to_text(self, names=("x", "y")) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (i, j), c in self.sorted_terms():
            text = str(c)
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            factors = []
            if text != "1" or (i == 0 and j == 0):
                factors.append(text)
            if i > 0:
                factors.append(names[0] if i == 1 else f"{names[0]}^{i}")
            if j > 0:
                factors.append(names[1] if j == 1 else f"{names[1]}^{j}")
            term = "*".join(factors)
            if not chunks:
                chunks.append(f"-{term}" if negative else term)
            else:
                chunks.append(f"- {term}" if negative else f"+ {term}")
        return " ".join(chunks)

    @classmethod
    def parse(cls, text: str, ring, names=("x", "y")) -> "Polynomial":
        """Inverse of to_text; accepts any term order and spacing.

        Malformed text, such as a stray sign, a zero denominator or a
        monomial written twice, raises ValueError.
        """
        compact = text.replace(" ", "")
        if not compact:
            raise ValueError("empty polynomial text")
        if compact == "0":
            return cls.zero(ring)
        if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", compact):
            raise ValueError(f"cannot parse polynomial text {text!r}")
        terms = {}
        for chunk in re.findall(r"[+-]?[^+-]+", compact):
            sign = 1
            if chunk[0] in "+-":
                sign = -1 if chunk[0] == "-" else 1
                chunk = chunk[1:]
            i = j = 0
            coefficient = None
            for factor in chunk.split("*"):
                match = re.fullmatch(r"(\d+)(?:/(\d+))?", factor)
                if match:
                    num = int(match.group(1))
                    den = int(match.group(2)) if match.group(2) else 1
                    if den == 0:
                        raise ValueError(f"zero denominator in {text!r}")
                    value = LocalizedRational(num, den) if den != 1 else num
                    coefficient = value if coefficient is None else coefficient * value
                    continue
                match = re.fullmatch(r"([A-Za-z]+)(?:\^(\d+))?", factor)
                if match and match.group(1) in names:
                    k = int(match.group(2)) if match.group(2) else 1
                    if match.group(1) == names[0]:
                        i += k
                    else:
                        j += k
                    continue
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            if (i, j) in terms:
                raise ValueError(f"repeated monomial in {text!r}")
            terms[(i, j)] = sign if coefficient is None else sign * coefficient
        return cls(ring, terms)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial({self.ring!r}, {self.to_text()!r})"
