"""Sparse bivariate polynomials over the package's exact coefficient rings.

A polynomial is tagged with the ring its coefficients live in: RATIONALS
(integers and p-integral fractions) or a Modulus(p, m) (Z/p^m).  It
stores numerators, a zero-free dict {(i, j): int}, over one denominator,
the least positive d that makes every coefficient times d an integer, so
equal polynomials have equal numerators, denominators and hashes.  Over
a Modulus, d is 1 and the numerators are residues in [0, p^m).  The
terms view reads the coefficients back as ints and LocalizedRationals.

Every polynomial is built by from_numerators from integer numerators
over a denominator; over a Modulus it hands them to residues, the one
map of a value into Z/p^m, which multiplies them by the inverse of the
denominator mod p^m.  parse reads each term as an integer numerator
over a denominator in lowest terms, and builds once over their lcm.

The operators +, -, * and == take polynomials only, both over one ring:
a scalar enters through f.scale(c) or Polynomial.constant(ring, c), and
mixing in an int or a LocalizedRational raises TypeError (== is False),
so equal values always hash equal.  not f tests for zero.

Arithmetic runs on the numerators: a sum over the lcm of the two
denominators, a product over da*db and a power over d^k, each leaving
through from_numerators.  A large integer product goes through one
kernel, _int_product: Kronecker substitution packs both operands into
Decimals in base 10^w, libmpdec's number-theoretic transform multiplies
them once in a private exact context, and the w-digit slots are read
back.  A power over RATIONALS from the cube to the 17th whose base that
kernel would square is _int_power: the base is packed once at the slot
width of the whole power, raised by libmpdec's exact power, and read
back once.  Any other power is a right-to-left square-and-multiply
ladder that starts from the base at its lowest set bit, not from 1.
Small or sparse products keep the schoolbook loop, which from 64 term
products on keys its sums by the one int i*K + j, K past the product's
y-degree, and by (i, j) tuples below that.

Variables are positional; they are only named at the text boundary,
rendered as x, y by default or s, t for the iterate family.

The text format is bit-exact and round-trips through parse():
terms in graded-lexicographic order (first variable dominant, descending),
each monomial once, printed as c*x^i*y^j with unit coefficients and zero
exponents omitted, e.g. "x^4 - 4*x^2*y + 2*y^2".
"""

from __future__ import annotations

import decimal
import math
import operator
import re
import sys

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

# Exact for any integer; the kernel computes here, not in a thread's context
_CONTEXT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _int_text(v: int) -> str:
    """The decimal text of v at any size: str under the interpreter's
    integer string limit, and a Decimal in _CONTEXT past it, where str refuses."""
    try:
        return str(v)
    except ValueError:
        return _CONTEXT.to_sci_string(_CONTEXT.create_decimal(v))


# Term products from which _schoolbook keys its accumulator by one int:
# below this the encoding costs more than the tuple keys it saves (on a
# cached default verify round, whose products are all but two smaller,
# int keys alone took half again as long).
_INT_KEYS = 64


def _schoolbook(a: dict, b: dict) -> dict:
    """Product of two coefficient dicts by the term-by-term loop, zeros dropped.

    From _INT_KEYS term products on, x^i*y^j is keyed by the one int
    i*K + j, K past the product's y-degree, so a term product adds two
    ints and hashes one, and the keys are split back once at the end.
    """
    out = {}
    get = out.get
    if len(a) * len(b) < _INT_KEYS:
        right = [(i2, j2, c2) for (i2, j2), c2 in b.items()]
        for (i1, j1), c1 in a.items():
            for i2, j2, c2 in right:
                key = (i1 + i2, j1 + j2)
                s = get(key)
                out[key] = c1 * c2 if s is None else s + c1 * c2
        return {k: c for k, c in out.items() if c}
    K = max(j for _, j in a) + max(j for _, j in b) + 1
    right = [(i * K + j, c) for (i, j), c in b.items()]
    for (i, j), c1 in a.items():
        k1 = i * K + j
        for k2, c2 in right:
            key = k1 + k2
            s = get(key)
            out[key] = c1 * c2 if s is None else s + c1 * c2
    return {divmod(k, K): c for k, c in out.items() if c}


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


def _pack(terms: dict, c: int, width: int, base, w: int) -> decimal.Decimal:
    """The sum of coefficient * 10^(w*slot) over terms, as an exact Decimal."""
    s0, j0 = base
    slots = [width * (i + c * j - s0) + j - j0 for i, j in terms]
    top = max(slots)
    positive, negative = ["0" * w] * (top + 1), ["0" * w] * (top + 1)
    for slot, v in zip(slots, terms.values()):
        if v > 0:
            positive[top - slot] = _int_text(v).zfill(w)
        else:
            negative[top - slot] = _int_text(-v).zfill(w)
    create = _CONTEXT.create_decimal
    return _CONTEXT.subtract(create("".join(positive)), create("".join(negative)))


def _int_product(a: dict, b: dict, layout) -> dict:
    """Product of two nonempty zero-free integer polynomials {(i, j): int},
    zeros dropped, by Kronecker substitution (von zur Gathen and Gerhard,
    Modern Computer Algebra, 8.4): each operand is evaluated at z = 10^w
    under layout, the _layout(a, b) that _product already computed, the
    two values are multiplied once, and the product is read back slot by
    slot by _unpack.

    The values are Decimals in _CONTEXT, whose precision holds any
    integer exactly, so the one multiply is libmpdec's number-theoretic
    transform, and packing and unpacking are decimal string joins and
    slices.  A slot of the product holds a sum of at most
    min(len a, len b) terms, each at most max|a| * max|b| in absolute
    value, and _width sizes the slots from that bound.
    """
    slots, c, width, base_a, base_b = layout
    w = _width(max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b)))
    packed = _pack(a, c, width, base_a, w)
    # one packed value for a square, so libmpdec takes its squaring path
    product = _CONTEXT.multiply(packed, packed if b is a else _pack(b, c, width, base_b, w))
    base = (base_a[0] + base_b[0], base_a[1] + base_b[1])
    return _unpack(product, slots, c, width, base, w)


# Largest exponent Polynomial.__pow__ forms by _int_power: libmpdec's
# power squares and multiplies at the full slot width of a^k, and past the
# 17th power that was slower than the ladder's narrower steps on some of
# the shapes measured (f_2^19, and dense 40-term lines from the 23rd).
_PACKED_POWERS = 17


def _int_power(a: dict, k: int, layout) -> dict:
    """a^k for a zero-free integer polynomial a, by one Kronecker packing:
    a is packed once at the slot width of a^k, raised to the k-th power
    by libmpdec's exact power in _CONTEXT, and read back once.

    layout is _layout(a, a).  a^k spans k times a's spread in i + c*j and
    in j, so the slope c that gives a^2 the fewest slots gives a^k the
    fewest too.  Every coefficient of a^k is at most ||a||_1^k in
    absolute value, the bound _width sizes the slots from.
    """
    _, c, _, (s0, j0), _ = layout
    width = k * (max(j for _, j in a) - j0) + 1
    slots = width * (k * (max(i + c * j for i, j in a) - s0) + 1)
    w = _width(sum(map(abs, a.values())) ** k)
    power = _CONTEXT.power(_pack(a, c, width, (s0, j0), w), k)
    return _unpack(power, slots, c, width, (k * s0, k * j0), w)


def _width(bound: int) -> int:
    """The slot width w for signed slot values at most bound in absolute
    value: one digit more than bound has, so adding 5*10^(w-1) to every
    slot makes each one a w-digit field and _unpack reads them back exactly."""
    return _CONTEXT.create_decimal(bound).adjusted() + 2


def _unpack(packed: decimal.Decimal, slots: int, c: int, width: int, base, w: int) -> dict:
    """The zero-free dict held by the slots of packed, w digits each, for
    the layout (slots, c, width) and the product's base (s0, j0), as in
    _layout.  int reads a field back only when w is under the
    interpreter's integer string limit, read at call time; past it a
    field goes through a Decimal, as _int_text packs a coefficient."""
    create = _CONTEXT.create_decimal
    # 0, or no such function (before 3.10.7), means no limit
    limit = getattr(sys, "get_int_max_str_digits", int)() or w + 1
    value = int if w < limit else (lambda s: int(create(s)))
    zero = "5" + "0" * (w - 1)
    half = value(zero)
    data = _CONTEXT.to_sci_string(_CONTEXT.add(packed, create(zero * slots)))
    s0, j0 = base
    out = {}
    for slot, end in enumerate(range(slots * w, 0, -w)):
        field = data[end - w:end]
        if field != zero:
            s, j = divmod(slot, width)
            j += j0
            out[(s + s0 - c * j, j)] = value(field) - half
    return out


def _kronecker_layout(a: dict, b: dict):
    """_layout(a, b) when the product a*b has fewer than an eighth as many
    slots as term products, so _int_product forms it; None when the
    schoolbook loop does."""
    products = len(a) * len(b)
    # a product has at least len(a) + len(b) - 1 slots
    if 8 * (len(a) + len(b) - 1) >= products:
        return None
    layout = _layout(a, b)
    return layout if 8 * layout[0] < products else None


def _product(a: dict, b: dict) -> dict:
    """Product of two integer coefficient dicts, zeros dropped: through
    _int_product when _kronecker_layout gives a layout, by the schoolbook
    loop otherwise."""
    if not a or not b:
        return {}
    layout = _kronecker_layout(a, b)
    return _schoolbook(a, b) if layout is None else _int_product(a, b, layout)


def residues(numerators: dict, denominator: int, n: int) -> dict:
    """numerators / denominator mod n = p^m as a zero-free dict of residues
    in [0, n); ValueError when p divides the denominator."""
    if denominator == 1:
        return {k: r for k, c in numerators.items() if (r := c % n)}
    try:
        inverse = pow(denominator, -1, n)
    except ValueError:
        raise ValueError("denominator is not invertible mod p") from None
    return {k: r for k, c in numerators.items() if (r := c * inverse % n)}


def from_numerators(ring, numerators: dict, denominator: int = 1) -> "Polynomial":
    """The polynomial numerators / denominator over ring; every Polynomial
    is built here.  Over RATIONALS the numerators are zero-free and both
    are divided by their gcd, so the stored denominator is the least one.
    Over a Modulus the numerators are residues(numerators, denominator,
    p^m) over the denominator 1."""
    if ring is not RATIONALS:
        numerators, denominator = residues(numerators, denominator, ring.value), 1
    elif denominator != 1:
        g = math.gcd(denominator, *numerators.values())
        if g != 1:
            denominator //= g
            numerators = {k: c // g for k, c in numerators.items()}
    result = _new(Polynomial)
    _set_ring(result, ring)
    _set_numerators(result, numerators)
    _set_denominator(result, denominator)
    return result


class Polynomial:
    """Immutable sparse polynomial in two variables."""

    __slots__ = ("ring", "numerators", "denominator")

    def __new__(cls, ring, terms=None):
        """Build from a mapping {(i, j): coefficient}, each exponent an
        integer (read through operator.index, so a float raises TypeError)
        and each coefficient an int or a LocalizedRational (TypeError
        otherwise); zeros are dropped."""
        clean, d = {}, 1
        for (i, j), value in (terms or {}).items():
            i, j = operator.index(i), operator.index(j)
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if type(value) is not int:
                if isinstance(value, LocalizedRational):
                    if value.denominator == 1:
                        value = value.numerator
                    else:
                        # the lcm of reduced denominators is the least d
                        d = math.lcm(d, value.denominator)
                elif isinstance(value, int):
                    value = int(value)
                else:
                    raise TypeError(f"cannot take a {type(value).__name__} coefficient")
            if value:
                clean[(i, j)] = value
        if d != 1:
            # an int carries numerator and denominator (n/1) itself
            clean = {k: c.numerator * (d // c.denominator) for k, c in clean.items()}
        return from_numerators(ring, clean, d)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict:
        """{(i, j): coefficient}, read only: the stored numerators when d is
        1, otherwise each numerator over d as an int or a LocalizedRational."""
        d = self.denominator
        if d == 1:
            return self.numerators
        return {k: rational(c, d) for k, c in self.numerators.items()}

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

    def __bool__(self):
        return bool(self.numerators)

    def coefficient(self, i, j):
        """Coefficient of the (i, j) monomial, 0 if absent.

        Over RATIONALS an int or a LocalizedRational; over a Modulus(p, m)
        an int in [0, p^m).
        """
        return rational(self.numerators.get((i, j), 0), self.denominator)

    def _check_ring(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    # ---- arithmetic ----

    def _combine(self, other, sign: int) -> "Polynomial":
        """self + sign*other, in one pass over the numerators scaled to
        the lcm of the two denominators."""
        self._check_ring(other)
        da, db = self.denominator, other.denominator
        d = math.lcm(da, db)
        ua, ub = d // da, sign * (d // db)
        mine = self.numerators
        out = dict(mine) if ua == 1 else {k: c * ua for k, c in mine.items()}
        for key, c in other.numerators.items():
            s = out.get(key)
            if s is None:
                out[key] = c * ub
            else:
                s += c * ub
                if s:
                    out[key] = s
                else:
                    del out[key]
        return from_numerators(self.ring, out, d)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return from_numerators(
            self.ring,
            _product(self.numerators, other.numerators),
            self.denominator * other.denominator,
        )

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        if not isinstance(c, (int, LocalizedRational)):
            raise TypeError(f"cannot take a {type(c).__name__} coefficient")
        if not c:
            return Polynomial.zero(self.ring)
        return from_numerators(
            self.ring,
            {k: v * c.numerator for k, v in self.numerators.items()},
            self.denominator * c.denominator,
        )

    def __pow__(self, exponent: int):
        """The power of the numerators, over d^exponent.  Over RATIONALS,
        the cube up to the _PACKED_POWERS-th power of a base whose square
        _product would form by _int_product is _int_power, one packing for
        the whole power; a square keeps _int_product, whose slot bound is
        the tighter.  Otherwise right-to-left square-and-multiply, which
        starts from the base squared up to the exponent's lowest set bit,
        so no step multiplies by 1; each step leaves through
        from_numerators with d = 1, which reduces mod p^m over a Modulus,
        so the integers, and so the slots, stay small there."""
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        ring, base, d = self.ring, self.numerators, self.denominator**exponent
        layout = None
        if 2 < exponent <= _PACKED_POWERS and ring is RATIONALS and base:
            layout = _kronecker_layout(base, base)
        if layout is not None:
            return from_numerators(ring, _int_power(base, exponent, layout), d)
        result = None
        e = exponent
        while e:
            if e & 1 and result is None:
                result = base
            elif e & 1:
                result = from_numerators(ring, _product(result, base)).numerators
            if e > 1:
                base = from_numerators(ring, _product(base, base)).numerators
            e >>= 1
        return from_numerators(ring, {(0, 0): 1} if result is None else result, d)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.ring, self.denominator, frozenset(self.numerators.items())))

    # ---- ring maps ----

    def substitute(self, first: "Polynomial", second: "Polynomial") -> "Polynomial":
        """Evaluate self at (first, second); both must share self's ring."""
        self._check_ring(first)
        self._check_ring(second)
        total = Polynomial.zero(self.ring)
        for (i, j), c in sorted(self.terms.items()):
            total = total + (first**i * second**j).scale(c)
        return total

    def reduce_mod(self, p: int, m: int) -> "Polynomial":
        """Reduce every coefficient into Z/p^m, dropping vanishing terms;
        the denominator must be coprime to p (ValueError otherwise)."""
        if self.ring is not RATIONALS:
            raise ValueError("reduce_mod expects rational or integer coefficients")
        return from_numerators(Modulus(p, m), self.numerators, self.denominator)

    def lift(self) -> "Polynomial":
        """Lift Z/p^m coefficients to integers via representatives in [0, p^m)."""
        if not isinstance(self.ring, Modulus):
            raise ValueError("lift expects residue coefficients")
        return from_numerators(RATIONALS, self.numerators)

    # ---- text format ----

    def to_text(self, names=("x", "y")) -> str:
        if not self.numerators:
            return "0"
        d, chunks = self.denominator, []
        # graded-lex order: total degree, then first-variable degree
        for i, j in sorted(self.numerators, key=lambda k: (k[0] + k[1], k[0]), reverse=True):
            # the numerator over d, reduced by one gcd, at any size
            c = self.numerators[i, j]
            g = math.gcd(c, d)
            text = _int_text(abs(c) // g) + ("" if g == d else f"/{_int_text(d // g)}")
            factors = [text] if text != "1" or i == j == 0 else []
            if i > 0:
                factors.append(names[0] if i == 1 else f"{names[0]}^{i}")
            if j > 0:
                factors.append(names[1] if j == 1 else f"{names[1]}^{j}")
            sign = ("- " if c < 0 else "+ ") if chunks else ("-" if c < 0 else "")
            chunks.append(sign + "*".join(factors))
        return " ".join(chunks)

    @classmethod
    def parse(cls, text: str, ring, names=("x", "y")) -> "Polynomial":
        """Inverse of to_text; accepts any term order and spacing.

        Each term is read as an integer numerator over a denominator,
        the product of its numeric factors, in lowest terms; the terms
        are built once over the lcm of their denominators, so over a
        Modulus the text is refused only when a term's value is not
        p-integral.  Malformed text, such as a stray sign, a zero
        denominator or a monomial written twice, raises ValueError.
        """
        compact = text.replace(" ", "")
        if not compact:
            raise ValueError("empty polynomial text")
        if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", compact):
            raise ValueError(f"cannot parse polynomial text {text!r}")
        terms = {}
        for chunk in re.findall(r"[+-]?[^+-]+", compact):
            num, den = (-1 if chunk[0] == "-" else 1), 1
            if chunk[0] in "+-":
                chunk = chunk[1:]
            i = j = 0
            for factor in chunk.split("*"):
                match = re.fullmatch(r"([0-9]+)(?:/([0-9]+))?", factor)
                if match:
                    num *= int(match.group(1))
                    if match.group(2):
                        den *= int(match.group(2))
                        if den == 0:
                            raise ValueError(f"zero denominator in {text!r}")
                    continue
                match = re.fullmatch(r"([A-Za-z]+)(?:\^([0-9]+))?", factor)
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
            g = math.gcd(num, den)
            terms[(i, j)] = (num // g, den // g)
        # the lcm of reduced denominators is the least d
        d = math.lcm(*(den for _, den in terms.values()))
        numerators = {k: num * (d // den) for k, (num, den) in terms.items() if num}
        return from_numerators(ring, numerators, d)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial({self.ring!r}, {self.to_text()!r})"


# from_numerators fills the slots directly, past the immutability guard
_new = object.__new__
_set_ring = Polynomial.ring.__set__
_set_numerators = Polynomial.numerators.__set__
_set_denominator = Polynomial.denominator.__set__
