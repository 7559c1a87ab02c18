from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    assert Polynomial.zero(RATIONALS).is_zero()
    assert not Polynomial.zero(RATIONALS)
    with pytest.raises(ValueError, match="nonnegative"):
        Polynomial(RATIONALS, {(-1, 0): 1})


def test_basic_identities():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert (X**2 - 2 * Y) ** 2 == Polynomial.parse("x^4 - 4*x^2*y + 4*y^2", RATIONALS)
    assert X**0 == Polynomial.one(RATIONALS)
    assert (X - X).is_zero()
    assert 3 * X - X == 2 * X


def total_degree(f: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((i + j for i, j in f.terms), default=-1)


def test_degrees():
    f = Polynomial.parse("x^3*y + y^2", RATIONALS)
    assert total_degree(f) == 4
    assert f.degree_first() == 3
    assert max(j for _, j in f.terms) == 2
    assert total_degree(Polynomial.zero(RATIONALS)) == -1
    assert Polynomial.zero(RATIONALS).degree_first() == -1


def test_power_matches_repeated_multiplication():
    f = X**2 - 2 * Y
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


def test_substitute_examples():
    f = X**2 + Y
    assert f.substitute(Y, X) == Y**2 + X
    assert f.substitute(X, Y) == f
    g = (X + Y).substitute(X**2, Y - 1)
    assert g == X**2 + Y - 1
    # constants pass through unchanged
    c = Polynomial.constant(RATIONALS, 7)
    assert c.substitute(X + 1, Y**3) == c


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
    f = X**2 - 2 * Y
    assert f.reduce_mod(2, 1) == Polynomial.parse("x^2", Modulus(2, 1))
    assert (4 * X).reduce_mod(2, 2).is_zero()
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
    assert str(-X) == "-x"
    assert str(X - 1) == "x - 1"
    third = Polynomial.constant(RATIONALS, LocalizedRational(1, 3))
    assert str(third * X) == "1/3*x"
    assert str(Polynomial.parse("y^3 + x^3", RATIONALS)) == "x^3 + y^3"


def test_text_rendering_residues_never_signed():
    mod = Modulus(2, 2)
    f = Polynomial.parse("x^2", mod) - Polynomial.parse("2*y", mod)
    assert f.to_text() == "x^2 + 2*y"


def test_term_order_graded_lex():
    f = Polynomial.parse("x + y^2 + x*y + 1", RATIONALS)
    keys = [key for key, _ in f.sorted_terms()]
    assert keys == [(1, 1), (0, 2), (1, 0), (0, 0)]


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


def test_parse_errors():
    with pytest.raises(ValueError):
        Polynomial.parse("", RATIONALS)
    with pytest.raises(ValueError):
        Polynomial.parse("x + z", RATIONALS)
    with pytest.raises(ValueError):
        Polynomial.parse("x^", RATIONALS)


@pytest.mark.parametrize("text", ["1/0*x", "0/0", "--x", "x+", "x - -y", "x +"])
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
    from nilcert.polynomials import _int_product, _product, _schoolbook

    expected = _dict_product(a, b)
    assert _int_product(a, b) == expected
    assert _product(a, b) == expected
    assert _schoolbook(a, b) == expected


def test_int_product_edge_cases():
    from nilcert.polynomials import _int_product

    # empty and single-term operands
    assert _int_product({}, {(1, 2): 3}) == {}
    assert _int_product({(1, 2): 3}, {}) == {}
    assert _int_product({(0, 0): -1}, {(4, 1): 5}) == {(4, 1): -5}
    assert _int_product({(3, 0): 2**100}, {(0, 7): -(2**90)}) == {(3, 7): -(2**190)}
    # cancellation to zero: (x + y)(x - y) = x^2 - y^2, and f * g with f*g = 0 terms
    assert _int_product({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}) == {
        (2, 0): 1,
        (0, 2): -1,
    }
    a = {(i, 0): (-1) ** i for i in range(9)}  # 1 - x + x^2 - ... + x^8
    assert _int_product(a, {(0, 0): 1, (1, 0): 1}) == {(0, 0): 1, (9, 0): 1}
    # operands of different slopes: weighted for wt(y) = 2 against wt(y) = 3
    a = {(6 - 2 * j, j): j + 1 for j in range(4)}
    b = {(9 - 3 * j, j): -(j + 2) for j in range(4)}
    assert _int_product(a, b) == _dict_product(a, b)


@pytest.mark.parametrize("magnitude", [2**31, 2**32 - 1, 2**63 - 1, 2**63, 2**64, 2**64 + 1])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 17])
def test_int_product_at_slot_width_boundary(magnitude, sign, length):
    from nilcert.polynomials import _int_product

    # equal coefficients of one sign: the middle slot sums to exactly
    # length * magnitude^2, the bound the slot width is sized from
    a = {(i, 0): sign * magnitude for i in range(length)}
    b = {(0, j): magnitude for j in range(length)}
    c = {(i, 0): sign * magnitude for i in range(length)}
    assert _int_product(a, b) == _dict_product(a, b)
    assert _int_product(a, c) == _dict_product(a, c)
    assert _int_product(a, c)[(length - 1, 0)] == length * magnitude**2


@pytest.mark.parametrize("p, top", [(2, 7), (3, 4), (5, 3), (7, 3)])
def test_iterate_products_match_schoolbook(p, top):
    from nilcert.polynomials import _int_product
    from nilcert.theta import ThetaContext

    ctx = ThetaContext(p)
    for n in range(top + 1):
        f = ctx.iterate_polynomial(n).terms
        square = _dict_product(f, f)
        assert (ctx.iterate_polynomial(n) * ctx.iterate_polynomial(n)).terms == square
        assert _int_product(f, f) == square
        power = f
        for _ in range(p - 1):
            power = _dict_product(power, f)
        assert (ctx.iterate_polynomial(n) ** p).terms == power


def test_rational_products_divide_back_once():
    # products and powers over RATIONALS clear denominators, multiply
    # integers, and divide back: same values, canonical coefficients
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
    # sums and differences add only the monomials both operands carry, as
    # cleared integers; fractions.Fraction is the oracle, and the result's
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
        assert polynomial(f) - polynomial(f) == 0
        assert -polynomial(f) == polynomial({k: -q for k, q in f.items()})
