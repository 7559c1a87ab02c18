from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert.coefficients import LocalizedRational, vp
from nilcert.polynomials import RATIONALS, Polynomial
from nilcert.theta import ThetaContext, nilpotence_bound, random_polynomial

X, Y = Polynomial.generators(RATIONALS)


def test_context_requires_prime():
    with pytest.raises(ValueError, match="not prime"):
        ThetaContext(6)


def test_psi_on_generators():
    ctx = ThetaContext(2)
    assert ctx.psi(X) == X**2 - 2 * Y
    assert ctx.psi(Y) == Y**2
    assert ctx.psi(Polynomial.constant(RATIONALS, 5)) == 5
    ctx3 = ThetaContext(3)
    assert ctx3.psi(X) == X**3 - 3 * Y


def test_psi_iterate():
    ctx = ThetaContext(2)
    assert ctx.psi_iterate(X, 0) == X
    assert ctx.psi_iterate(X, 1) == ctx.psi(X)
    assert ctx.psi_iterate(X, 2) == ctx.psi(ctx.psi(X))
    with pytest.raises(ValueError, match="nonnegative"):
        ctx.psi_iterate(X, -1)


def _psi_by_substitution(p, f):
    first = Polynomial(f.ring, {(p, 0): 1, (0, 1): -p})
    second = Polynomial.monomial(f.ring, 0, p)
    return f.substitute(first, second)


@st.composite
def _psi_inputs(draw):
    """(p, f) with f p-integral, including fractions that reduce to
    integers such as 6/3, and sometimes reduced mod p^m."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    denominators = st.sampled_from([d for d in (1, 2, 3, 5, 7, 9) if d % p])
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.builds(LocalizedRational, st.integers(-50, 50), denominators),
            max_size=8,
        )
    )
    f = Polynomial(RATIONALS, terms)
    m = draw(st.integers(0, 3))
    return p, f.reduce_mod(p, m) if m else f


@given(_psi_inputs())
@example((2, Polynomial.zero(RATIONALS)))
@example((3, Polynomial.constant(RATIONALS, 5)))
@example((5, Polynomial.constant(RATIONALS, LocalizedRational(2, 3))))
@example((7, Polynomial.constant(RATIONALS, 4).reduce_mod(7, 2)))
@example((2, Polynomial.zero(RATIONALS).reduce_mod(2, 3)))
def test_graded_psi_matches_substitution(case):
    p, f = case
    assert ThetaContext(p).psi(f) == _psi_by_substitution(p, f)


def test_psi_multiplies_weight_by_p():
    rng = random.Random(7)
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        for w in range(12):
            # a random weighted-homogeneous f of weight w
            terms = {(w - p * j, j): rng.randint(-9, 9) for j in range(w // p + 1)}
            image = ctx.psi(Polynomial(RATIONALS, terms))
            assert all(i + p * j == p * w for i, j in image.terms)


def test_psi_steps_the_iterate_family():
    for p, top in ((2, 10), (3, 6), (5, 4)):
        ctx = ThetaContext(p)
        for n in range(top + 1):
            assert ctx.psi(ctx.iterate_polynomial(n)) == ctx.iterate_polynomial(n + 1)


def test_theta_on_generators():
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        assert ctx.theta(X) == Y
        assert ctx.theta(Y).is_zero()


def test_theta_of_prime_constant():
    # theta(p) = p^(p-1) - 1, computed independently from the definition
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        expected = (p**p - p) // p  # (p^p - psi(p)) / p with psi(p) = p
        assert expected == p ** (p - 1) - 1
        assert ctx.theta(Polynomial.constant(RATIONALS, p)) == expected


def test_theta_frozen_example():
    ctx = ThetaContext(2)
    assert ctx.theta(X**2 - 2 * Y) == Y**2


def test_theta_division_multiplies_back():
    # p * theta(f) must reproduce f^p - psi(f) exactly
    rng = random.Random(11)
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        for _ in range(10):
            f = random_polynomial(rng, p)
            assert ctx.theta(f).scale(p) == f**p - ctx.psi(f)


def test_theta_rejects_non_p_integral_input():
    ctx = ThetaContext(2)
    bad = Polynomial.constant(RATIONALS, LocalizedRational(1, 2)) * X
    with pytest.raises(ValueError):
        ctx.theta(bad)



def test_theta_reports_a_broken_frobenius_congruence():
    class NoLift(ThetaContext):
        def psi(self, f):
            return f

    # x^2 - x has the coefficient -1, which 2 does not divide
    with pytest.raises(ValueError, match="Frobenius congruence violated"):
        NoLift(2).theta(X)
    # a denominator divisible by p is reported as such, not as the congruence
    with pytest.raises(ValueError, match="coprime"):
        ThetaContext(2).theta(Polynomial.constant(RATIONALS, LocalizedRational(1, 2)) * X)


def test_operator_layer_is_integer_native():
    rng = random.Random(3)
    for p, top in ((2, 6), (3, 3), (5, 2)):
        ctx = ThetaContext(p)
        # every sample denominator divides 3 * 5 * 7
        samples = [X, Y] + [random_polynomial(rng, p).scale(105) for _ in range(4)]
        samples += [ctx.iterate_polynomial(n) for n in range(top + 1)]
        for f in samples:
            for g in (f, ctx.psi(f), ctx.theta(f)):
                assert all(type(c) is int for c in g.terms.values()), (p, g)


def test_frobenius_congruence_holds_on_samples():
    rng = random.Random(7)
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        assert ctx.check_frobenius_congruence(X)
        assert ctx.check_frobenius_congruence(Y)
        for _ in range(10):
            assert ctx.check_frobenius_congruence(random_polynomial(rng, p))


def test_scaled_binomial():
    ctx = ThetaContext(5)
    assert [ctx.scaled_binomial(j) for j in range(1, 5)] == [1, 2, 2, 1]
    assert ThetaContext(2).scaled_binomial(1) == 1
    with pytest.raises(ValueError):
        ctx.scaled_binomial(5)


def test_axioms_on_generators():
    for p in (2, 3):
        report = ThetaContext(p).check_theta_axioms(X, Y)
        assert report.all_hold, report.failures
        assert set(report.identities) == {
            "theta_one",
            "theta_sum",
            "theta_product",
            "theta_psi_commute",
            "psi_additive",
            "psi_multiplicative",
        }


def test_axioms_on_random_pairs():
    rng = random.Random(2024)
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        for _ in range(8):
            f = random_polynomial(rng, p)
            g = random_polynomial(rng, p)
            report = ctx.check_theta_axioms(f, g)
            assert report.all_hold, (p, report.failures)


def test_axiom_report_records_failures():
    report = ThetaContext(2).check_theta_axioms(X, Y)
    report.record("broken", X, Y)
    assert not report.all_hold
    assert report.failures == [("broken", "x", "y")]
    assert not bool(report)


def test_theta_of_p_multiple():
    ctx = ThetaContext(2)
    # frozen instance: both sides equal x^2 + 2*y for b = x at p = 2
    assert ctx.theta((2 * X)) == Polynomial.parse("x^2 + 2*y", RATIONALS)
    assert ctx.check_theta_of_p_multiple(X)
    assert ctx.check_theta_of_p_multiple(Polynomial.zero(RATIONALS))
    rng = random.Random(5)
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        for _ in range(6):
            assert ctx.check_theta_of_p_multiple(random_polynomial(rng, p))


def test_iterate_polynomial_first_members():
    ctx = ThetaContext(2)
    s = Polynomial.monomial(RATIONALS, 1, 0)
    t = Polynomial.monomial(RATIONALS, 0, 1)
    assert ctx.iterate_polynomial(0) == s
    assert ctx.iterate_polynomial(1) == s**2 - 2 * t
    f2 = ctx.iterate_polynomial(2)
    assert f2.to_text(names=("s", "t")) == "s^4 - 4*s^2*t + 2*t^2"
    ctx3 = ThetaContext(3)
    assert ctx3.iterate_polynomial(1) == s**3 - 3 * t
    # (s^3 - 3t)^3 - 3t^3, expanded by hand
    assert ctx3.iterate_polynomial(2) == Polynomial.parse(
        "s^9 - 9*s^6*t + 27*s^3*t^2 - 30*t^3", RATIONALS, names=("s", "t")
    )


def test_iterate_polynomial_structure():
    for p, top in ((2, 6), (3, 4), (5, 2)):
        ctx = ThetaContext(p)
        for n in range(top + 1):
            fn = ctx.iterate_polynomial(n)
            assert fn.coefficient(p**n, 0) == 1
            assert all(i + p * j == p**n for i, j in fn.terms)
            assert all(c.denominator == 1 for c in fn.terms.values())


def test_iterate_polynomial_memo():
    ctx = ThetaContext(2)
    a = ctx.iterate_polynomial(3)
    assert ctx.iterate_polynomial(3) is a
    assert set(ctx._iterates) == {0, 1, 2, 3}


def test_iterate_matches_psi_iterate():
    for p in (2, 3):
        ctx = ThetaContext(p)
        for n in range(4):
            image = ctx.iterate_polynomial(n).substitute(X, Y)
            assert ctx.psi_iterate(X, n) == image


def test_check_iterate_substitution():
    for p, top in ((2, 5), (3, 3), (5, 2)):
        ctx = ThetaContext(p)
        for n in range(1, top + 1):
            assert ctx.check_iterate_substitution(n)
    with pytest.raises(ValueError):
        ThetaContext(2).check_iterate_substitution(0)


def test_check_iterate_power_congruence():
    for p, top in ((2, 5), (3, 3), (5, 2)):
        ctx = ThetaContext(p)
        for n in range(1, top + 1):
            assert ctx.check_iterate_power_congruence(n)


def test_iterate_power_congruence_frozen_difference():
    # p = 2, n = 2: (s^4 - 4s^2t + 2t^2) - (s^4 - 2t^2) = -4s^2t + 4t^2
    ctx = ThetaContext(2)
    stretched = ctx.iterate_polynomial(1).substitute(
        Polynomial.monomial(RATIONALS, 2, 0), Polynomial.monomial(RATIONALS, 0, 2)
    )
    difference = ctx.iterate_polynomial(2) - stretched
    assert difference == Polynomial.parse("-4*s^2*t + 4*t^2", RATIONALS, names=("s", "t"))
    assert all(vp(c, 2) >= 2 for c in difference.terms.values())


def test_check_iterate_diagonal():
    assert ThetaContext(2).check_iterate_diagonal(0)
    assert ThetaContext(2).check_iterate_diagonal(1)
    assert ThetaContext(2).check_iterate_diagonal(2)
    assert ThetaContext(3).check_iterate_diagonal(1)
    assert ThetaContext(3).check_iterate_diagonal(2)
    assert ThetaContext(5).check_iterate_diagonal(1)


def test_nilpotence_bound_values():
    assert nilpotence_bound(12) == 6
    assert nilpotence_bound(2) == 3
    assert nilpotence_bound(4) == 6
    assert nilpotence_bound(8) == 12
    assert nilpotence_bound(9) == 12
    assert nilpotence_bound(700) == 30
    assert nilpotence_bound(-12) == 6
    assert nilpotence_bound(1) == 1
    assert nilpotence_bound(-1) == 1


def test_nilpotence_bound_prime_powers():
    for p in (2, 3, 5):
        for e in range(1, 5):
            assert nilpotence_bound(p**e) == p**e + p ** (e - 1)


def test_nilpotence_bound_zero_rejected():
    with pytest.raises(ValueError):
        nilpotence_bound(0)


def test_sampler_is_seeded_and_p_integral():
    a = random_polynomial(random.Random(42), 2)
    b = random_polynomial(random.Random(42), 2)
    assert a == b
    for p in (2, 3, 5):
        rng = random.Random(1)
        for _ in range(20):
            f = random_polynomial(rng, p)
            assert max((i + j for i, j in f.terms), default=-1) <= 4
            assert len(f.terms) <= 6
            assert all(c.denominator % p != 0 for c in f.terms.values())


# ---- theta on cleared integers against a termwise Fraction computation ----


def _fraction_product(a: dict, b: dict) -> dict:
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _fraction_power(a: dict, k: int) -> dict:
    result = {(0, 0): Fraction(1)}
    for _ in range(k):
        result = _fraction_product(result, a)
    return result


def _fraction_theta(terms: dict, p: int) -> dict:
    """(f^p - psi(f)) / p with psi(x) = x^p - p*y, psi(y) = y^p, every
    coefficient a Fraction, psi expanded monomial by monomial."""
    image_x = {(p, 0): Fraction(1), (0, 1): Fraction(-p)}
    difference = _fraction_power(terms, p)
    for (i, j), c in terms.items():
        for key, value in _fraction_power(image_x, i).items():
            shifted = (key[0], key[1] + p * j)
            difference[shifted] = difference.get(shifted, 0) - c * value
    return {k: c / p for k, c in difference.items() if c}


@st.composite
def _p_integral_fractions(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    denominators = [d for d in (1, 3, 5, 7, 9, 11, 25, 49) if d % p]
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 3)),
            st.tuples(st.integers(-30, 30), st.sampled_from(denominators)),
            max_size=6,
        )
    )
    return p, {k: Fraction(n, d) for k, (n, d) in terms.items() if n}


@settings(max_examples=60)
@given(_p_integral_fractions())
def test_theta_matches_fraction_computation(case):
    p, terms = case
    f = Polynomial(
        RATIONALS, {k: LocalizedRational(c.numerator, c.denominator) for k, c in terms.items()}
    )
    theta = ThetaContext(p).theta(f)
    got = {k: Fraction(c.numerator, c.denominator) for k, c in theta.terms.items()}
    assert got == _fraction_theta(terms, p)


def test_theta_checks_the_denominator_before_the_congruence():
    class NoLift(ThetaContext):
        def psi(self, f):
            return f

    half_x = Polynomial.constant(RATIONALS, LocalizedRational(1, 2)) * X
    # both faults at once: the denominator is reported
    with pytest.raises(ValueError, match="coprime"):
        NoLift(2).theta(half_x)
    with pytest.raises(ValueError, match="coprime"):
        ThetaContext(2).theta(half_x + X**3)
    assert not ThetaContext(2).check_frobenius_congruence(half_x)
    assert not NoLift(2).check_frobenius_congruence(X)
    third_x = Polynomial.constant(RATIONALS, LocalizedRational(1, 3)) * X
    assert ThetaContext(2).check_frobenius_congruence(third_x)
    assert ThetaContext(2).theta(third_x) == (third_x**2 - ThetaContext(2).psi(third_x)).scale(
        LocalizedRational(1, 2)
    )
