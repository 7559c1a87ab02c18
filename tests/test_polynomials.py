from __future__ import annotations

import contextlib
import decimal
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert.coefficients import LocalizedRational, Modulus
from nilcert.polynomials import RATIONALS, Polynomial

X, Y = Polynomial.generators(RATIONALS)


def _random_poly(rng: random.Random, ring=RATIONALS, max_degree=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        terms[(i, j)] = rng.randint(-9, 9)
    return Polynomial(ring, terms)


def _schoolbook_product(f: Polynomial, g: Polynomial) -> Polynomial:
    # independent route: accumulate monomial by monomial through addition only
    total = Polynomial.zero(f.ring)
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            total = total + Polynomial(f.ring, {(i1 + i2, j1 + j2): c1 * c2})
    return total


def test_constructor_drops_zeros():
    f = Polynomial(RATIONALS, {(1, 0): 2, (0, 1): 0})
    assert list(f.terms) == [(1, 0)]
    assert not Polynomial.zero(RATIONALS)
    assert Polynomial.one(RATIONALS)
    with pytest.raises(ValueError, match="nonnegative"):
        Polynomial(RATIONALS, {(-1, 0): 1})


def test_basic_identities():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert (X**2 - Y.scale(2)) ** 2 == Polynomial.parse("x^4 - 4*x^2*y + 4*y^2", RATIONALS)
    assert X**0 == Polynomial.one(RATIONALS)
    assert not X - X
    assert X.scale(3) - X == X.scale(2)


def total_degree(f: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((i + j for i, j in f.terms), default=-1)


def test_degrees():
    f = Polynomial.parse("x^3*y + y^2", RATIONALS)
    assert total_degree(f) == 4
    assert max(j for _, j in f.terms) == 2
    assert total_degree(Polynomial.zero(RATIONALS)) == -1


def test_power_matches_repeated_multiplication():
    f = X**2 - Y.scale(2)
    by_mult = Polynomial.one(RATIONALS)
    for _ in range(5):
        by_mult = by_mult * f
    assert f**5 == by_mult
    # over Z/p^m every squaring is reduced; the integer power, reduced
    # once at the end, is the reference
    g = Polynomial.parse("1 + 3*x + 5*y + 7*x^2*y", Modulus(2, 8))
    by_mult = Polynomial.one(g.ring)
    for _ in range(40):
        by_mult = by_mult * g
    assert g**40 == by_mult == (g.lift() ** 40).reduce_mod(2, 8)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ring_laws_random(seed):
    rng = random.Random(seed)
    f, g, h = (_random_poly(rng) for _ in range(3))
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f * g == _schoolbook_product(f, g)


def test_mixed_ring_rejected():
    f = Polynomial.one(RATIONALS)
    g = Polynomial.one(Modulus(2, 2))
    with pytest.raises(ValueError, match="mixed"):
        f + g
    with pytest.raises(ValueError, match="mixed"):
        f * g


_SCALAR_OPERATIONS = {
    "add": lambda f, c: f + c,
    "radd": lambda f, c: c + f,
    "sub": lambda f, c: f - c,
    "rsub": lambda f, c: c - f,
    "mul": lambda f, c: f * c,
    "rmul": lambda f, c: c * f,
    "neg": lambda f, c: -f,
}


@pytest.mark.parametrize("ring", [RATIONALS, Modulus(5, 1)], ids=["rationals", "modulus"])
@pytest.mark.parametrize("scalar", [3, LocalizedRational(1, 3)], ids=["int", "rational"])
@pytest.mark.parametrize("operation", list(_SCALAR_OPERATIONS), ids=list(_SCALAR_OPERATIONS))
def test_operators_take_polynomials_only(operation, scalar, ring):
    # a scalar enters only through scale or constant
    f = Polynomial.monomial(ring, 1, 0)
    with pytest.raises(TypeError):
        _SCALAR_OPERATIONS[operation](f, scalar)


def test_a_constant_never_equals_a_scalar():
    three = Polynomial.constant(RATIONALS, 3)
    assert three != 3 and 3 != three
    assert three != LocalizedRational(3)
    eight = Polynomial.constant(Modulus(5, 1), 8)
    assert eight != 3 and eight != 8
    assert eight == Polynomial.constant(Modulus(5, 1), 3)
    assert len({3, three}) == 2 and len({three, Polynomial.constant(RATIONALS, 3)}) == 1


@st.composite
def _values_to_compare(draw):
    """A pair of scalars and polynomials over one ring, constants included,
    drawn from a small pool so that equal pairs are common; the second is
    sometimes the first rebuilt from its text."""
    ring = draw(st.sampled_from([RATIONALS, Modulus(2, 3), Modulus(3, 1), Modulus(5, 1)]))
    scalars = st.one_of(
        st.integers(-9, 9),
        st.builds(LocalizedRational, st.integers(-9, 9), st.sampled_from([1, 7, 11])),
    )
    values = st.one_of(
        scalars,
        scalars.map(lambda c: Polynomial.constant(ring, c)),
        st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), scalars, max_size=3).map(
            lambda terms: Polynomial(ring, terms)
        ),
    )
    f = draw(values)
    if isinstance(f, Polynomial) and draw(st.booleans()):
        return f, Polynomial.parse(f.to_text(), ring)
    return f, draw(values)


@settings(max_examples=300)
@given(_values_to_compare())
@example((Polynomial.constant(RATIONALS, 3), 3))
@example((Polynomial.constant(RATIONALS, LocalizedRational(1, 7)), LocalizedRational(1, 7)))
@example((Polynomial.constant(Modulus(5, 1), 8), 3))
@example((Polynomial.constant(Modulus(5, 1), 8), Polynomial.constant(Modulus(5, 1), 3)))
def test_equal_values_hash_equal(pair):
    f, g = pair
    if f == g:
        assert hash(f) == hash(g)
        assert len({f, g}) == 1


def test_substitute_examples():
    f = X**2 + Y
    assert f.substitute(Y, X) == Y**2 + X
    assert f.substitute(X, Y) == f
    one = Polynomial.one(RATIONALS)
    g = (X + Y).substitute(X**2, Y - one)
    assert g == X**2 + Y - one
    # constants pass through unchanged
    c = Polynomial.constant(RATIONALS, 7)
    assert c.substitute(X + one, Y**3) == c


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_substitute_is_ring_hom(seed):
    rng = random.Random(seed)
    f = _random_poly(rng, max_degree=3)
    g = _random_poly(rng, max_degree=3)
    sx = _random_poly(rng, max_degree=2, max_terms=3)
    sy = _random_poly(rng, max_degree=2, max_terms=3)
    assert (f + g).substitute(sx, sy) == f.substitute(sx, sy) + g.substitute(sx, sy)
    assert (f * g).substitute(sx, sy) == f.substitute(sx, sy) * g.substitute(sx, sy)


def test_reduce_mod_examples():
    f = X**2 - Y.scale(2)
    assert f.reduce_mod(2, 1) == Polynomial.parse("x^2", Modulus(2, 1))
    assert not X.scale(4).reduce_mod(2, 2)
    third = Polynomial.constant(RATIONALS, LocalizedRational(1, 3)) * X
    assert third.reduce_mod(2, 3) == Polynomial.parse("3*x", Modulus(2, 3))


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(2, 2), (3, 2), (5, 1)]),
)
def test_reduce_mod_commutes_with_arithmetic(seed, pm):
    p, m = pm
    rng = random.Random(seed)
    f, g = _random_poly(rng), _random_poly(rng)
    assert (f + g).reduce_mod(p, m) == f.reduce_mod(p, m) + g.reduce_mod(p, m)
    assert (f * g).reduce_mod(p, m) == f.reduce_mod(p, m) * g.reduce_mod(p, m)


def test_lift_round_trip():
    mod = Modulus(2, 3)
    f = Polynomial.parse("5*x + 7*y^2", mod)
    lifted = f.lift()
    assert lifted.ring is RATIONALS
    assert lifted == Polynomial.parse("5*x + 7*y^2", RATIONALS)
    assert lifted.reduce_mod(2, 3) == f
    with pytest.raises(ValueError, match="residue"):
        lifted.lift()


def test_text_rendering_frozen():
    f = Polynomial(RATIONALS, {(4, 0): 1, (2, 1): -4, (0, 2): 2})
    assert f.to_text() == "x^4 - 4*x^2*y + 2*y^2"
    assert f.to_text(names=("s", "t")) == "s^4 - 4*s^2*t + 2*t^2"
    assert str(Polynomial.zero(RATIONALS)) == "0"
    assert str(Polynomial.one(RATIONALS)) == "1"
    assert str(X.scale(-1)) == "-x"
    assert str(X - Polynomial.one(RATIONALS)) == "x - 1"
    third = Polynomial.constant(RATIONALS, LocalizedRational(1, 3))
    assert str(third * X) == "1/3*x"
    assert str(Polynomial.parse("y^3 + x^3", RATIONALS)) == "x^3 + y^3"


def test_text_rendering_residues_never_signed():
    mod = Modulus(2, 2)
    f = Polynomial.parse("x^2", mod) - Polynomial.parse("2*y", mod)
    assert f.to_text() == "x^2 + 2*y"


def test_term_order_graded_lex():
    # to_text prints the terms in descending (i + j, i) order
    f = Polynomial.parse("x + y^2 + x*y + 1", RATIONALS)
    keys = sorted(f.numerators, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
    assert keys == [(1, 1), (0, 2), (1, 0), (0, 0)]
    assert f.to_text() == "x*y + y^2 + x + 1"


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_text_round_trip(seed):
    rng = random.Random(seed)
    f = _random_poly(rng, max_degree=5, max_terms=7)
    if rng.random() < 0.3:
        f = f * Polynomial.constant(RATIONALS, LocalizedRational(1, rng.choice([3, 5, 7])))
    assert Polynomial.parse(f.to_text(), RATIONALS) == f


@st.composite
def _p_integral_polynomials(draw):
    """A prime p and a random p-integral polynomial, with proper fractions
    and with fractions that reduce to integers, such as 6/3."""
    p = draw(st.sampled_from([2, 3, 5]))
    denominators = st.sampled_from([d for d in (1, 2, 3, 5, 7, 9) if d % p])
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.builds(LocalizedRational, st.integers(-50, 50), denominators),
            max_size=8,
        )
    )
    return p, Polynomial(RATIONALS, terms)


@given(_p_integral_polynomials(), st.integers(1, 4))
def test_parse_round_trip_p_integral(pf, m):
    p, f = pf
    back = Polynomial.parse(f.to_text(), RATIONALS)
    assert back == f and hash(back) == hash(f)
    assert all(type(c) is int or c.denominator > 1 for c in back.terms.values())
    residues = f.reduce_mod(p, m)
    assert all(type(c) is int and 0 < c < p**m for c in residues.terms.values())
    assert Polynomial.parse(residues.to_text(), residues.ring) == residues


def test_integer_coefficients_are_plain_ints():
    f = Polynomial(RATIONALS, {(1, 0): LocalizedRational(4, 2)})
    assert type(f.terms[(1, 0)]) is int and f.terms[(1, 0)] == 2
    from_ints = Polynomial(RATIONALS, {(2, 0): 3, (0, 1): -1})
    from_rationals = Polynomial(
        RATIONALS, {(2, 0): LocalizedRational(9, 3), (0, 1): LocalizedRational(-1)}
    )
    assert from_ints == from_rationals
    assert hash(from_ints) == hash(from_rationals)
    assert len({from_ints, from_rationals}) == 1
    half = Polynomial.constant(RATIONALS, LocalizedRational(1, 2)) * X
    for g in (half + half, half.scale(2), half * Polynomial.constant(RATIONALS, 4)):
        assert all(type(c) is int for c in g.terms.values())


def test_stored_denominator_is_the_least_one():
    half = LocalizedRational(1, 2)
    total = (X.scale(half) + Y.scale(half)) + (X.scale(half) - Y.scale(half))
    assert total == X
    assert (total.numerators, total.denominator) == ({(1, 0): 1}, 1)
    assert hash(total) == hash(X)
    sixth = Polynomial.constant(RATIONALS, LocalizedRational(1, 6))
    assert (sixth.scale(3) + sixth).denominator == 3
    assert sixth.scale(6).denominator == 1


def test_every_route_stores_the_same_numerators():
    # 1/6*x + 2/3*y^2 - 5 is (x + 4*y^2 - 30) / 6
    sixth, two_thirds = LocalizedRational(1, 6), LocalizedRational(2, 3)
    routes = [
        Polynomial.parse("1/6*x + 2/3*y^2 - 5", RATIONALS),
        Polynomial(RATIONALS, {(1, 0): sixth, (0, 2): two_thirds, (0, 0): -5}),
        Polynomial.monomial(RATIONALS, 1, 0, sixth)
        + Polynomial.monomial(RATIONALS, 0, 2, two_thirds)
        - Polynomial.constant(RATIONALS, 5),
        Polynomial(RATIONALS, {(1, 0): 1, (0, 2): 4, (0, 0): -30}).scale(sixth),
    ]
    for f in routes:
        assert f.numerators == {(1, 0): 1, (0, 2): 4, (0, 0): -30}
        assert f.denominator == 6
        assert f == routes[0] and hash(f) == hash(routes[0])


def test_terms_view():
    f = Polynomial.parse("1/6*x + 2/3*y^2 - 5", RATIONALS)
    assert f.terms == {(1, 0): LocalizedRational(1, 6), (0, 2): LocalizedRational(2, 3), (0, 0): -5}
    assert type(f.terms[(0, 0)]) is int
    assert f.coefficient(0, 2) == LocalizedRational(2, 3) and f.coefficient(3, 3) == 0
    g = X**2 - Y.scale(2)
    assert g.terms is g.numerators
    residues = g.reduce_mod(3, 2)
    assert residues.terms is residues.numerators
    assert residues.terms == {(2, 0): 1, (0, 1): 7}


@given(_p_integral_polynomials(), st.integers(1, 4))
def test_reduce_mod_matches_termwise_residues(pf, m):
    p, f = pf
    n = p**m
    # plain-int oracle: numerator times the inverse of the denominator mod p^m
    expected = {k: c.numerator * pow(c.denominator, -1, n) % n for k, c in f.terms.items()}
    assert f.reduce_mod(p, m).terms == {k: r for k, r in expected.items() if r}


def test_reduce_mod_refuses_a_denominator_divisible_by_p():
    half_x = X.scale(LocalizedRational(1, 2))
    with pytest.raises(ValueError, match="denominator is not invertible mod p"):
        half_x.reduce_mod(2, 3)
    with pytest.raises(ValueError, match="denominator is not invertible mod p"):
        (half_x + Y).reduce_mod(2, 1)
    assert (half_x + half_x).reduce_mod(2, 3) == X.reduce_mod(2, 3)
    assert half_x.reduce_mod(3, 2).terms == {(1, 0): 5}


@st.composite
def _p_integral_mixed_terms(draw):
    """A prime p, a precision m and a p-integral coefficient dict that mixes
    plain ints with LocalizedRationals, some of them integer-valued."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 4))
    denominators = st.sampled_from([d for d in (1, 2, 3, 5, 7, 9, 49) if d % p])
    coefficients = st.one_of(
        st.integers(-10**6, 10**6),
        st.builds(LocalizedRational, st.integers(-500, 500), denominators),
    )
    keys = st.tuples(st.integers(0, 6), st.integers(0, 6))
    return p, m, draw(st.dictionaries(keys, coefficients, max_size=8))


@settings(max_examples=150)
@given(_p_integral_mixed_terms(), st.integers(-50, 50), st.integers(1, 60))
def test_every_value_enters_a_ring_the_same_way(pmt, num, den):
    p, m, terms = pmt
    f = Polynomial(RATIONALS, terms)
    residues = Polynomial(Modulus(p, m), terms)
    assert residues == f.reduce_mod(p, m)
    while den % p == 0:
        den += 1
    q = LocalizedRational(num, den)
    assert f.scale(q).reduce_mod(p, m) == residues.scale(q)
    bad = dict(terms)
    bad[(7, 0)] = LocalizedRational(1 + p * num**2, p * den)
    with pytest.raises(ValueError, match="denominator is not invertible mod p"):
        Polynomial(Modulus(p, m), bad)
    with pytest.raises(ValueError, match="denominator is not invertible mod p"):
        residues.scale(LocalizedRational(1, p * den))
    with pytest.raises(ValueError, match="denominator is not invertible mod p"):
        Polynomial(RATIONALS, bad).reduce_mod(p, m)


@pytest.mark.parametrize("ring", [RATIONALS, Modulus(3, 2)], ids=["rationals", "modulus"])
@pytest.mark.parametrize(
    "value",
    [0.5, 2.0, Fraction(1, 3), Fraction(4, 1), np.int64(3), "1"],
    ids=["float", "integral-float", "fraction", "integral-fraction", "numpy-int64", "str"],
)
def test_other_coefficient_types_are_refused(ring, value):
    with pytest.raises(TypeError):
        Polynomial(ring, {(1, 0): value})
    with pytest.raises(TypeError):
        Polynomial.one(ring).scale(value)


@pytest.mark.parametrize("ring", [RATIONALS, Modulus(3, 2)], ids=["rationals", "modulus"])
@pytest.mark.parametrize("key", [(1.5, 0), (0, 2.0), (1.0, 1.0)], ids=["float", "integral-float", "both"])
def test_non_integer_exponents_are_refused(ring, key):
    # an exponent is read as an integer, never truncated: (1.5, 0) is not x
    with pytest.raises(TypeError):
        Polynomial(ring, {key: 1})


def test_integer_scalar_exponents_are_read_exactly():
    # anything operator.index takes is an exponent: numpy integer scalars
    # and bool, stored as plain int keys
    f = Polynomial(RATIONALS, {(np.int64(2), np.uint8(1)): 3, (True, False): -1})
    assert f == X.scale(-1) + (X * X * Y).scale(3)
    assert all(type(i) is int and type(j) is int for i, j in f.numerators)
    with pytest.raises(ValueError, match="nonnegative"):
        Polynomial(RATIONALS, {(np.int64(-1), 0): 1})


def test_parse_errors():
    with pytest.raises(ValueError):
        Polynomial.parse("", RATIONALS)
    with pytest.raises(ValueError):
        Polynomial.parse("x + z", RATIONALS)
    with pytest.raises(ValueError):
        Polynomial.parse("x^", RATIONALS)


@pytest.mark.parametrize("text", ["1/0*x", "0/0", "x*3*1/0", "--x", "x+", "x - -y", "x +"])
def test_parse_rejects_zero_denominators_and_stray_signs(text):
    with pytest.raises(ValueError):
        Polynomial.parse(text, RATIONALS)


@pytest.mark.parametrize("text", ["x + x", "x*y + y*x", "1/3*x + 2/3*x"])
def test_parse_rejects_repeated_monomials(text):
    # to_text writes each monomial once, so a repeat is malformed input,
    # never two coefficients to add
    for ring in (RATIONALS, Modulus(3, 2)):
        with pytest.raises(ValueError, match="repeated monomial"):
            Polynomial.parse(text, ring)


@settings(max_examples=300)
@given(st.text(alphabet="0123456789xy^*/+- ", max_size=24))
def test_parse_raises_only_value_error(text):
    for ring in (RATIONALS, Modulus(3, 2)):
        try:
            f = Polynomial.parse(text, ring)
        except ValueError:
            continue
        assert f.ring == ring


@pytest.mark.parametrize(
    "text, ring, expected, denominator",
    [
        ("2/3*3/4*x", RATIONALS, "1/2*x", 2),
        ("2/4*x + 1/6*y", RATIONALS, "1/2*x + 1/6*y", 6),
        ("2/4*x + 1/6*y", Modulus(5, 2), "13*x + 21*y", 1),
        ("-3/9*x^2*6", RATIONALS, "-2*x^2", 1),
        # a term is p-integral once in lowest terms, and a zero term has
        # no denominator to refuse
        ("1/2*x*2", Modulus(2, 3), "x", 1),
        ("0/2*x + y", Modulus(2, 3), "y", 1),
        ("0*x + y", RATIONALS, "y", 1),
        ("0*x + y", Modulus(2, 3), "y", 1),
    ],
)
def test_parse_reads_each_term_in_lowest_terms(text, ring, expected, denominator):
    f = Polynomial.parse(text, ring)
    assert f.to_text() == expected
    assert f.denominator == denominator
    assert f == Polynomial.parse(expected, ring)


def test_parse_tolerates_order_and_spacing():
    a = Polynomial.parse("2*y^2+x^4-4*x^2*y", RATIONALS)
    b = Polynomial.parse("x^4 - 4*x^2*y + 2*y^2", RATIONALS)
    assert a == b


# ---- the Kronecker kernel ----


def _dict_product(a: dict, b: dict) -> dict:
    # reference: the plain double loop on {(i, j): int} dicts, zeros dropped
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _kernel(a: dict, b: dict) -> dict:
    # the Kronecker kernel under the layout _product hands it
    from nilcert.polynomials import _int_product, _layout

    return _int_product(a, b, _layout(a, b))


# polynomial terms are zero-free, so the kernel's operands are too
_coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63, -(2**63), 2**64 - 1, -(2**64), 2**64 + 1, 2**127 - 1]),
).filter(bool)


@st.composite
def _int_dicts(draw, max_degree=12, max_terms=24):
    """Integer dicts, either free-form or on a line i + slope*j = const."""
    slope = draw(st.sampled_from([None, 1, 2, 3, 5]))
    if slope is None:
        keys = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    else:
        weight = draw(st.integers(0, 3 * max_degree))
        keys = st.integers(0, weight // slope).map(lambda j: (weight - slope * j, j))
    return draw(st.dictionaries(keys, _coefficients, max_size=max_terms))


@settings(max_examples=200)
@given(_int_dicts(), _int_dicts())
def test_int_product_matches_schoolbook(a, b):
    from nilcert.polynomials import _product, _schoolbook

    expected = _dict_product(a, b)
    if a and b:
        assert _kernel(a, b) == expected
    assert _product(a, b) == expected
    assert _schoolbook(a, b) == expected


def test_int_product_edge_cases():
    from nilcert.polynomials import _product

    # empty operands stop at _product; single-term operands reach the kernel
    assert _product({}, {(1, 2): 3}) == {}
    assert _product({(1, 2): 3}, {}) == {}
    assert _kernel({(0, 0): -1}, {(4, 1): 5}) == {(4, 1): -5}
    assert _kernel({(3, 0): 2**100}, {(0, 7): -(2**90)}) == {(3, 7): -(2**190)}
    # cancellation to zero: (x + y)(x - y) = x^2 - y^2, and f * g with f*g = 0 terms
    assert _kernel({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}) == {
        (2, 0): 1,
        (0, 2): -1,
    }
    a = {(i, 0): (-1) ** i for i in range(9)}  # 1 - x + x^2 - ... + x^8
    assert _kernel(a, {(0, 0): 1, (1, 0): 1}) == {(0, 0): 1, (9, 0): 1}
    # operands of different slopes: weighted for wt(y) = 2 against wt(y) = 3
    a = {(6 - 2 * j, j): j + 1 for j in range(4)}
    b = {(9 - 3 * j, j): -(j + 2) for j in range(4)}
    assert _kernel(a, b) == _dict_product(a, b)


@pytest.mark.parametrize("magnitude", [2**31, 2**32 - 1, 2**63 - 1, 2**63, 2**64, 2**64 + 1])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 17])
def test_int_product_at_slot_width_boundary(magnitude, sign, length):
    # equal coefficients of one sign: the middle slot sums to exactly
    # length * magnitude^2, the bound the slot width is sized from
    a = {(i, 0): sign * magnitude for i in range(length)}
    b = {(0, j): magnitude for j in range(length)}
    c = {(i, 0): sign * magnitude for i in range(length)}
    assert _kernel(a, b) == _dict_product(a, b)
    assert _kernel(a, c) == _dict_product(a, c)
    assert _kernel(a, c)[(length - 1, 0)] == length * magnitude**2


@pytest.mark.parametrize("p, top", [(2, 7), (3, 4), (5, 3), (7, 3)])
def test_iterate_products_match_schoolbook(p, top):
    from nilcert.theta import ThetaContext

    ctx = ThetaContext(p)
    for n in range(top + 1):
        f = ctx.iterate_polynomial(n).terms
        square = _dict_product(f, f)
        assert (ctx.iterate_polynomial(n) * ctx.iterate_polynomial(n)).terms == square
        assert _kernel(f, f) == square
        power = f
        for _ in range(p - 1):
            power = _dict_product(power, f)
        assert (ctx.iterate_polynomial(n) ** p).terms == power


def _scattered(rng, size, magnitude):
    """size terms at random (i, j) far apart, so a product has about as
    many slots as term products and _product keeps the schoolbook loop."""
    keys = rng.sample([(i, j) for i in range(0, 400, 7) for j in range(0, 300, 11)], size)
    return {k: rng.choice([1, -1]) * rng.randint(1, magnitude) for k in keys}


def test_schoolbook_integer_keys_on_both_sides_of_the_crossover():
    from nilcert.polynomials import _INT_KEYS, _kronecker_layout, _schoolbook

    rng = random.Random(3)
    # term-product counts just under, at and past the crossover, and
    # operands whose y-degrees reach far past their x-degrees
    for rows, cols in [(7, 9), (1, _INT_KEYS - 1), (8, 8), (1, _INT_KEYS), (_INT_KEYS, 1), (9, 30)]:
        a = _scattered(rng, rows, 2**127 - 1)
        b = _scattered(rng, cols, 2**64)
        b[(0, 5000)] = -1
        expected = _dict_product(a, b)
        assert _schoolbook(a, b) == expected
        assert _schoolbook(b, a) == expected
        if rows * (cols + 1) > _INT_KEYS:
            assert _kronecker_layout(a, b) is None
        assert all(type(i) is int and type(j) is int for i, j in _schoolbook(a, b))


def _dict_power(a: dict, k: int) -> dict:
    # reference: k - 1 products of the test-local double loop
    power = {(0, 0): 1}
    for _ in range(k):
        power = _dict_product(power, a)
    return power


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_int_power_matches_repeated_products(k):
    from nilcert.polynomials import _int_power, _kronecker_layout, _layout
    from nilcert.theta import ThetaContext

    rng = random.Random(k)
    line = {(40 - j, j): rng.choice([1, -1]) * rng.randint(1, 2**64) for j in range(40)}
    cases = [ThetaContext(p).iterate_polynomial(n).numerators for p, n in [(2, 5), (3, 3), (5, 2)]]
    # and the line times x^2*y^3, whose least x- and y-degrees are not 0
    shifted = {(i + 2, j + 3): c for (i, j), c in line.items()}
    cases += [line, shifted, {(0, 0): -3}, {(2, 7): 5, (0, 0): -1}]
    for a in cases:
        assert _int_power(a, k, _layout(a, a)) == _dict_power(a, k)
    # the route: a dense base is squared by _int_product, so its cube up
    # to its 17th power is one packing, and the rest the ladder
    assert _kronecker_layout(line, line) is not None


@pytest.mark.parametrize("k", [2, 3, 5, 7, 17, 18])
def test_polynomial_powers_take_one_packing(monkeypatch, k):
    from nilcert import polynomials

    calls = []
    kernel = polynomials._int_power

    def counted(a, exponent, layout):
        calls.append(exponent)
        return kernel(a, exponent, layout)

    monkeypatch.setattr(polynomials, "_int_power", counted)
    rng = random.Random(k)
    line = {(30 - j, j): rng.randint(-99, 99) or 1 for j in range(30)}
    f = polynomials.from_numerators(RATIONALS, line, 7)
    power = f**k
    assert power.numerators == _dict_power(line, k)
    assert power.denominator == 7**k
    # a square, a power past the 17th and a power over Z/p^m keep the ladder
    assert calls == ([k] if 3 <= k <= 17 else [])
    g = f.reduce_mod(2, 8)
    assert g**k == power.reduce_mod(2, 8)
    assert calls == ([k] if 3 <= k <= 17 else [])


@pytest.mark.parametrize("ring", [RATIONALS, Modulus(3, 4)], ids=["rationals", "modulus"])
def test_power_ladder_never_multiplies_by_one(monkeypatch, ring):
    from nilcert import polynomials

    operands = []
    product = polynomials._product

    def recorded(a, b):
        operands.extend((a, b))
        return product(a, b)

    monkeypatch.setattr(polynomials, "_product", recorded)
    rng = random.Random(20)
    # a sparse base the schoolbook loop multiplies, and a dense line of
    # 40-digit coefficients that _int_product multiplies, where the slots
    # of the 16th power and the products after it pass 640 digits
    sparse = {(3, 0): 2, (0, 1): -1, (1, 2): 5}
    line = {(30 - j, j): rng.choice([1, -1]) * rng.randrange(10**39, 10**40) for j in range(30)}
    for base in (sparse, line):
        f = polynomials.from_numerators(ring, base)
        assert f**0 == Polynomial.one(ring)
        expected = {(0, 0): 1}
        for k in range(1, 21):
            expected = _dict_product(expected, base)
            assert f**k == polynomials.from_numerators(ring, expected)
    assert operands
    assert {(0, 0): 1} not in operands


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_int_power_past_the_digit_limit(p):
    from nilcert.polynomials import _int_power, _layout

    # coefficients of about 700 digits: a cube's slots pass 2100 digits,
    # past the 640 of -X int_max_str_digits=640, and a 7th power's pass the
    # default 4300-digit limit; the kernel computes in its own context
    rng = random.Random(p)
    a = {(12 - 3 * j, j): rng.choice([1, -1]) * rng.randrange(10**699, 10**700) for j in range(5)}
    tiny = decimal.Context(prec=3, traps=[decimal.Inexact, decimal.Rounded])
    for k in sorted({1, p, 3, 7}):
        with decimal.localcontext(tiny) as context:
            power = _int_power(a, k, _layout(a, a))
            assert not any(context.flags.values())
        assert power == _dict_power(a, k)


@pytest.mark.parametrize("digits", [700, 2200])
def test_int_product_past_the_digit_limit(digits):
    # coefficients of about `digits` digits: product slots of about
    # 2*digits digits, so 2200 passes the default 4300-digit limit on int
    # and str, and 700 passes the 640 set by -X int_max_str_digits=640
    rng = random.Random(digits)

    def big():
        return rng.choice([1, -1]) * rng.randrange(10 ** (digits - 1), 10**digits)

    a = {(i, j): big() for i in range(6) for j in range(3) if (i + j) % 2 == 0}
    b = {(i, j): big() for i in range(5) for j in range(4) if (i * j) % 3 != 1}
    # (A x + B y)(A x - B y) = A^2 x^2 - B^2 y^2: the cross slot cancels
    A, B = big(), big()
    plus, minus = {(1, 0): A, (0, 1): B}, {(1, 0): A, (0, 1): -B}
    # the kernel calls its own context, so a thread context that could
    # hold none of these values exactly changes nothing, and is left as it was
    tiny = decimal.Context(prec=3, traps=[decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(tiny) as context:
        assert _kernel(a, b) == _dict_product(a, b)
        assert _kernel(b, a) == _dict_product(b, a)
        assert _kernel(a, a) == _dict_product(a, a)
        assert _kernel(plus, minus) == {(2, 0): A * A, (0, 2): -B * B}
        square = _kernel(b, b)
        assert not any(context.flags.values())
    assert square == _dict_product(b, b)
    assert max(abs(c) for c in square.values()).bit_length() > 2 * 3.32 * (digits - 1)


@contextlib.contextmanager
def _no_digit_limit():
    # expected text comes from str and int with the limit lifted, not from
    # the code under test
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_text_past_the_digit_limit():
    # 5001 digits pass the default 4300-digit limit on str, and the 640 of
    # -X int_max_str_digits=640; to_text stays exact at any size
    big = 10**5000
    assert Polynomial.constant(RATIONALS, big).to_text() == "1" + "0" * 5000
    third = LocalizedRational(-big, 3)
    assert Polynomial.constant(RATIONALS, third).to_text() == "-1" + "0" * 5000 + "/3"
    mixed = (X * Y).scale(third) + X.scale(LocalizedRational(1, 6))
    assert mixed.to_text() == "-1" + "0" * 5000 + "/3*x*y + 1/6*x"
    # 2^16610 - 1 has 5001 digits
    ring = Modulus(2, 16610)
    residue = Polynomial.monomial(ring, 1, 1, -1) + Polynomial.one(ring)
    with _no_digit_limit():
        expected = f"{ring.value - 1}*x*y + 1"
    assert residue.to_text() == expected
    with _no_digit_limit():
        assert Polynomial.parse(mixed.to_text(), RATIONALS) == mixed
        assert Polynomial.parse(expected, ring) == residue


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer string limit"
)
def test_parse_refuses_past_the_digit_limit():
    # certificate text is outside input, so a number past the limit is
    # refused with ValueError and no other exception, in a polynomial and
    # in a certificate
    from nilcert.certificates import certificate_from_text

    digits = "1" + "0" * sys.get_int_max_str_digits()
    for text in [digits, f"{digits}*x - y", f"x + 1/{digits}*y", f"x^{digits}"]:
        with pytest.raises(ValueError):
            Polynomial.parse(text, RATIONALS)
    lines = {"p": "2", "e": "1", "m": "2", "target": "x^3", "cofactor 0": "y"}
    certificate_from_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    for key, value in [("target", f"{digits}*x^3"), ("cofactor 0", f"{digits}*y"), ("m", digits)]:
        text = "".join(f"{k} = {v}\n" for k, v in {**lines, key: value}.items())
        with pytest.raises(ValueError):
            certificate_from_text(text)


def test_rational_products_divide_back_once():
    # products and powers over RATIONALS multiply the integer numerators
    # over the product of the denominators: same values, canonical
    # coefficients
    rng = random.Random(11)

    def sample(denominators):
        terms = {}
        for _ in range(rng.randint(0, 20)):
            key = (rng.randint(0, 5), rng.randint(0, 5))
            terms[key] = LocalizedRational(rng.randint(-9, 9), rng.choice(denominators))
        return Polynomial(RATIONALS, terms)

    for _ in range(40):
        f, g = sample([1, 3, 7, 9]), sample([1, 5, 25])
        product, cube = f * g, f**3
        assert product == _schoolbook_product(f, g)
        assert cube == _schoolbook_product(_schoolbook_product(f, f), f)
        for c in list(product.terms.values()) + list(cube.terms.values()):
            assert c and (type(c) is int or c.denominator > 1)


def test_rational_sums_match_fractions():
    # sums and differences add the numerators scaled to a common
    # denominator; fractions.Fraction is the oracle, and the result's
    # coefficients stay canonical, cancelled terms dropped
    rng = random.Random(12)

    def sample():
        return {
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 9]))
            for _ in range(rng.randint(0, 12))
        }

    def polynomial(fractions):
        return Polynomial(
            RATIONALS, {k: LocalizedRational(q.numerator, q.denominator) for k, q in fractions.items()}
        )

    for _ in range(60):
        f, g = sample(), sample()
        for sign in (1, -1):
            total = polynomial(f) + polynomial(g) if sign == 1 else polynomial(f) - polynomial(g)
            expected = dict(f)
            for key, q in g.items():
                expected[key] = expected.get(key, 0) + sign * q
            assert total == polynomial({k: q for k, q in expected.items() if q})
            assert all(type(c) is int or c.denominator > 1 for c in total.terms.values())
        assert polynomial(f) - polynomial(f) == Polynomial.zero(RATIONALS)
        assert polynomial(f).scale(-1) == polynomial({k: -q for k, q in f.items()})
