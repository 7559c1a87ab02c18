from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert.coefficients import LocalizedRational
from nilcert.polynomials import RATIONALS, Polynomial, from_numerators
from nilcert.theta import AxiomReport, ThetaContext, nilpotence_bound, random_polynomial

X, Y = Polynomial.generators(RATIONALS)


def test_context_requires_prime():
    with pytest.raises(ValueError, match="not prime"):
        ThetaContext(6)


def test_psi_on_generators():
    ctx = ThetaContext(2)
    five = Polynomial.constant(RATIONALS, 5)
    assert ctx.psi(X) == X**2 - Y.scale(2)
    assert ctx.psi(Y) == Y**2
    assert ctx.psi(five) == five
    ctx3 = ThetaContext(3)
    assert ctx3.psi(X) == X**3 - Y.scale(3)


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


def _psi_by_horner(p, f):
    """Reference: psi by Horner's rule on the unscaled dense list, one
    multiply by p and one subtraction per entry and step."""
    parts = {}
    for (i, j), c in f.numerators.items():
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
            if c:
                y_power = p * j0 + index
                out[(p * (w - y_power), y_power)] = c
    return from_numerators(f.ring, out, f.denominator)


@st.composite
def _weighted_parts(draw):
    """(p, f): f a sum of weighted-homogeneous parts for wt(y) = p, each
    with its own least y-degree j0, often above 0, with negative and
    rational coefficients, and sometimes reduced mod p^m."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    denominators = st.sampled_from([d for d in (1, 2, 3, 7, 9, 11) if d % p])
    coefficients = st.builds(LocalizedRational, st.integers(-10**6, 10**6), denominators)
    terms = {}
    for w in draw(st.sets(st.integers(0, 4 * p), min_size=1, max_size=4)):
        j0 = draw(st.integers(0, w // p))
        for j in draw(st.sets(st.integers(j0, w // p), max_size=4)) | {j0}:
            terms[(w - p * j, j)] = draw(coefficients)
    f = Polynomial(RATIONALS, terms)
    m = draw(st.integers(0, 4))
    return p, f.reduce_mod(p, m) if m else f


@settings(max_examples=150)
@given(_weighted_parts())
def test_scaled_psi_matches_horner(case):
    p, f = case
    assert ThetaContext(p).psi(f) == _psi_by_horner(p, f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_psi_on_a_served_context_matches_a_fresh_one(p):
    # a context keeps the powers of p its Horner lists are scaled by: a
    # part longer than any served before extends them, a shorter one reads
    # a prefix, and a polynomial may hold parts of both kinds
    rng = random.Random(p)
    served = ThetaContext(p)
    for tops in [(40,), (3,), (0,), (41, 2), (17,), (80, 5, 0), (1,)]:
        terms = {}
        for top in tops:
            j0 = rng.randint(0, 3)
            w = top + p * j0
            terms[(w - p * j0, j0)] = rng.choice([1, -1]) * rng.randint(1, 10**30)
            for j in range(j0 + 1, w // p + 1):
                if rng.random() < 0.5:
                    terms[(w - p * j, j)] = rng.randint(-9, 9)
        f = from_numerators(RATIONALS, {k: c for k, c in terms.items() if c}, 1 if p == 2 else 2)
        image = served.psi(f)
        assert image == ThetaContext(p).psi(f) == _psi_by_horner(p, f)


@pytest.mark.parametrize(
    "p, n, image_sha, power_sha",
    [
        (
            2,
            10,
            "49d12a4fbd5d64a8b57b26afb897217bc2a9a8b01c7614b792ec93433de34cf3",
            "d09e398c32fc10fa7a656386f9fd3a2b54ded12f2d5ab2387762325b86959f77",
        ),
        (
            3,
            6,
            "f09aa6784fac94aa2eca16de5f880264096b286be4f573149c4761b9a774837b",
            "54f3b5577ddbe1bede9ec2f9a3ee7084131c7c4caff424dbd224f2dd4a18dc1e",
        ),
        (
            5,
            4,
            "075bb5b838d68b56e19ed442e09457cbc07be1dcb6c8e225e166229843665956",
            "2b274dab352c52b14c7269457f3845db087da6c4c6fae4601bc511fa6f0d535d",
        ),
    ],
    ids=["2-10", "3-6", "5-4"],
)
def test_top_iterate_image_and_power_pinned(p, n, image_sha, power_sha):
    # psi(f_n) and f_n^p at the deepest default depths, as text
    ctx = ThetaContext(p)
    f = ctx.iterate_polynomial(n)
    assert hashlib.sha256(ctx.psi(f).to_text().encode()).hexdigest() == image_sha
    assert hashlib.sha256((f**p).to_text().encode()).hexdigest() == power_sha


def test_psi_steps_the_iterate_family():
    for p, top in ((2, 10), (3, 6), (5, 4)):
        ctx = ThetaContext(p)
        for n in range(top + 1):
            assert ctx.psi(ctx.iterate_polynomial(n)) == ctx.iterate_polynomial(n + 1)


def test_theta_on_generators():
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        assert ctx.theta(X) == Y
        assert not ctx.theta(Y)


def test_theta_of_prime_constant():
    # theta(p) = p^(p-1) - 1, computed independently from the definition
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        expected = (p**p - p) // p  # (p^p - psi(p)) / p with psi(p) = p
        assert expected == p ** (p - 1) - 1
        assert ctx.theta(Polynomial.constant(RATIONALS, p)) == Polynomial.constant(
            RATIONALS, expected
        )


def test_theta_frozen_example():
    ctx = ThetaContext(2)
    assert ctx.theta(X**2 - Y.scale(2)) == Y**2


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
        assert report, report.failures
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
            assert report, (p, report.failures)


def test_axiom_report_records_failures():
    report = ThetaContext(2).check_theta_axioms(X, Y)
    report.record("broken", X, Y)
    assert not report
    assert report.failures == [("broken", "x", "y")]


def test_theta_of_p_multiple():
    ctx = ThetaContext(2)
    # frozen instance: both sides equal x^2 + 2*y for b = x at p = 2
    assert ctx.theta(X.scale(2)) == Polynomial.parse("x^2 + 2*y", RATIONALS)
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
    assert ctx.iterate_polynomial(1) == s**2 - t.scale(2)
    f2 = ctx.iterate_polynomial(2)
    assert f2.to_text(names=("s", "t")) == "s^4 - 4*s^2*t + 2*t^2"
    ctx3 = ThetaContext(3)
    assert ctx3.iterate_polynomial(1) == s**3 - t.scale(3)
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
    assert all(c % 4 == 0 for c in difference.terms.values())


def test_check_iterate_diagonal():
    assert ThetaContext(2).check_iterate_diagonal(0)
    assert ThetaContext(2).check_iterate_diagonal(1)
    assert ThetaContext(2).check_iterate_diagonal(2)
    assert ThetaContext(3).check_iterate_diagonal(1)
    assert ThetaContext(3).check_iterate_diagonal(2)
    assert ThetaContext(5).check_iterate_diagonal(1)


class _PerturbedImage(ThetaContext):
    """psi off by p*y^(p^(n+1)) on iterate n only: a term of the right
    weight, so only a comparison with an independently formed side sees it."""

    def __init__(self, p, n):
        super().__init__(p)
        self.n = n

    def psi(self, f):
        image = super().psi(f)
        if f == self.iterate_polynomial(self.n):
            image = image + Polynomial.monomial(RATIONALS, 0, self.p ** (self.n + 1)).scale(self.p)
        return image


def test_a_perturbed_iterate_image_fails_substitution_and_diagonal():
    for p, n in ((2, 3), (3, 2)):
        assert not _PerturbedImage(p, n).check_iterate_substitution(n + 1)
        assert not _PerturbedImage(p, n).check_iterate_diagonal(n)
        # one context in the order iterates runs them, sharing the image
        ctx = _PerturbedImage(p, n)
        assert ctx.check_iterate_substitution(n)
        assert ctx.check_iterate_diagonal(n - 1)
        assert not ctx.check_iterate_diagonal(n)
        assert not ctx.check_iterate_substitution(n + 1)
        assert ctx.check_iterate_diagonal(n + 1)


def test_a_skewed_theta_fails_the_identities_that_read_it():
    rng = random.Random(19)
    error = Polynomial.constant(RATIONALS, LocalizedRational(1, 7))
    for p in (2, 3):
        f, g = random_polynomial(rng, p), random_polynomial(rng, p)

        class Skewed(ThetaContext):
            def theta_from(self, h, power, image):
                # a p-integral error on theta(f) alone
                theta_h = super().theta_from(h, power, image)
                return theta_h + error if h == f else theta_h

        report = Skewed(p).check_theta_axioms(f, g)
        assert [name for name, _, _ in report.failures] == [
            "theta_sum",
            "theta_product",
            "theta_psi_commute",
        ]


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its (self, *arguments) tuple."""
    calls = []
    original = getattr(owner, name)

    def counted(self, *arguments):
        calls.append((self, *arguments))
        return original(self, *arguments)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_iterate_checks_form_each_power_and_image_once(monkeypatch):
    images = _count_calls(monkeypatch, ThetaContext, "psi")
    powers = _count_calls(monkeypatch, Polynomial, "__pow__")
    ctx = ThetaContext(2)
    for n in range(1, 7):
        assert ctx.check_iterate_substitution(n)
        assert ctx.check_iterate_power_congruence(n)
        assert ctx.check_iterate_diagonal(n)
    assert len(images) == len(powers) == 7
    assert all(f is ctx.iterate_polynomial(n) for n, (_, f) in enumerate(images))
    assert all(f is ctx.iterate_polynomial(n) and k == 2 for n, (f, k) in enumerate(powers))


def test_axiom_check_operator_call_counts(monkeypatch):
    images = _count_calls(monkeypatch, ThetaContext, "psi")
    quotients = _count_calls(monkeypatch, ThetaContext, "theta_from")
    rng = random.Random(4)
    f, g = random_polynomial(rng, 3), random_polynomial(rng, 3)
    assert ThetaContext(3).check_theta_axioms(f, g)
    # theta of 1, f, g, f + g, f*g and psi(f); psi of 1 and psi(f) inside
    # theta, and once each of f, g, f + g, f*g and theta(f)
    assert len(quotients) == 6
    assert len(images) == 7
    arguments = [h for _, h in images]
    assert all(a != b for i, a in enumerate(arguments) for b in arguments[:i])
    one = Polynomial.one(RATIONALS)
    psi_f = ThetaContext(3).psi(f)
    assert [h for _, h, _, _ in quotients] == [one, f, g, f + g, f * g, psi_f]


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


# ---- theta on numerators over one denominator against a termwise Fraction computation ----


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


def test_axiom_report_records_a_failure_past_the_digit_limit():
    # sides of 5001 digits, past the default 4300-digit limit on str: the
    # failure is stored with both sides rendered, not raised
    report = AxiomReport()
    big = Polynomial.constant(RATIONALS, 10**5000)
    report.record("holds", big, big)
    report.record("fails", big, big + Polynomial.one(RATIONALS))
    assert report.identities == {"holds": True, "fails": False}
    assert not report
    assert report.failures == [("fails", "1" + "0" * 5000, "1" + "0" * 4999 + "1")]
