"""The membership engine: rewriting, closure, certificates, witnesses.

Ground truths in here were worked out by hand on desk-sized instances
before the engine existed; the brute-force oracle re-derives them by
exhaustive enumeration along a second, independent code path.
"""

import functools
import hashlib
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.certificates import (
    certificate_to_text,
    standard_generators,
    verify_certificate,
)
from nilcert import quotient
from nilcert.howell import HowellBasis, howell_form
from nilcert.polynomials import RATIONALS, Polynomial
from nilcert.quotient import (
    IdealSpec,
    RewriteSystem,
    brute_force_membership_oracle,
    build_membership_module,
)
from nilcert.theta import random_polynomial

X, Y = Polynomial.generators(RATIONALS)
ACCEPTANCE_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]


@functools.lru_cache(maxsize=None)
def module_for(p, e, m):
    return build_membership_module(p, e, m)


def class_terms(module, weight, local):
    """A class-local vector of the given weight as span terms {(i, j): c}."""
    low, _ = module.rewrite.weight_class(weight)
    return {
        (weight - module.p * (low + k), low + k): int(value)
        for k, value in enumerate(local)
        if value
    }


def terms_vector(module, terms):
    """Span terms as one vector over the whole span, x^i y^j at j * p^e + i."""
    block = module.rewrite.block
    vector = np.zeros(block**2, dtype=np.int64)
    for (i, j), value in terms.items():
        vector[j * block + i] = value
    return vector


def span_vector(module, atom):
    """An atom's class-local vector scattered back onto the whole span."""
    return terms_vector(module, class_terms(module, atom.weight, atom.vector))


def span_basis(module):
    """The class bases scattered into one Howell basis over the span, rows
    sorted by pivot column."""
    block, p = module.rewrite.block, module.p
    rows = []
    for weight, weight_class in module.basis.items():
        for row, column, pivot in zip(
            weight_class.basis.matrix,
            weight_class.basis.pivot_columns,
            weight_class.basis.pivot_values,
        ):
            j = weight_class.low + column
            rows.append((j * block + weight - p * j, pivot, row, weight))
    rows.sort(key=lambda entry: entry[0])
    matrix = np.zeros((len(rows), block**2), dtype=np.int64)
    for index, (_, _, row, weight) in enumerate(rows):
        matrix[index] = terms_vector(module, class_terms(module, weight, row))
    return HowellBasis(
        modulus=module.modulus,
        matrix=matrix,
        pivot_columns=tuple(entry[0] for entry in rows),
        pivot_values=tuple(entry[1] for entry in rows),
    )


@functools.lru_cache(maxsize=None)
def global_basis(p, e, m):
    """One Howell form of all atom span vectors together: the single-basis
    route the graded build replaces, kept here as a reference."""
    module = module_for(p, e, m)
    return howell_form(
        np.vstack([span_vector(module, atom) for atom in module.atoms]), module.modulus
    )


def expand(module, fragments):
    total = Polynomial.zero(RATIONALS)
    for g, terms in fragments.items():
        total = total + Polynomial(RATIONALS, terms) * module.ideal.generators[g]
    return total


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-20, 20),
    max_size=6,
).map(lambda terms: Polynomial(RATIONALS, terms))


# ---- the rewrite map ----


def test_ideal_spec_frozen():
    ideal = IdealSpec.build(2, 1)
    assert ideal.generators == (X.scale(2), X**2 - Y.scale(2), Y**2)


def test_reduce_drops_high_powers():
    rewrite = RewriteSystem(2, 1, 2)
    terms, fragments = rewrite.reduce(X**2)
    assert terms == {(0, 1): 2}  # x^2 -> 2y
    assert fragments == {1: {(0, 0): 1}}
    terms, fragments = rewrite.reduce(X**3)
    assert terms == {(1, 1): 2}  # x^3 -> 2xy
    assert fragments == {1: {(1, 0): 1}}


def test_reduce_kills_high_y_degree():
    rewrite = RewriteSystem(2, 1, 2)
    terms, fragments = rewrite.reduce(Y**2 + (X * Y**3).scale(3))
    assert terms == {}
    assert fragments == {2: {(0, 0): 1, (1, 1): 3}}


def test_reduce_rejects_foreign_modulus():
    rewrite = RewriteSystem(2, 1, 2)
    with pytest.raises(ValueError):
        rewrite.reduce(X.reduce_mod(3, 2))


def test_monomial_index_round_trip():
    rewrite = RewriteSystem(3, 1, 2)
    terms, _ = rewrite.reduce((X**2 * Y).scale(5))
    assert Polynomial(rewrite.modulus, terms) == (X**2 * Y).scale(5).reduce_mod(3, 2)
    # x^2 y is the whole of its weight class 5, at local position 0
    assert rewrite.weight_class(5) == (1, 1)
    # every span monomial x^i y^j sits at position j - low of its class,
    # and the classes of weights 0..8 cover the 9 span monomials once
    for i in range(3):
        for j in range(3):
            low, width = rewrite.weight_class(i + 3 * j)
            assert 0 <= j - low < width
    assert sum(rewrite.weight_class(weight)[1] for weight in range(9)) == 9


@given(f=small_polys, g=small_polys, c=st.integers(-10, 10))
@settings(max_examples=40, deadline=None)
def test_reduce_is_linear(f, g, c):
    rewrite = RewriteSystem(2, 1, 3)
    tf, _ = rewrite.reduce(f)
    tg, _ = rewrite.reduce(g)
    tsum, _ = rewrite.reduce(f + g.scale(c))
    for key in set(tf) | set(tg) | set(tsum):
        assert (tf.get(key, 0) + c * tg.get(key, 0) - tsum.get(key, 0)) % 8 == 0


@given(f=small_polys)
@settings(max_examples=40, deadline=None)
def test_fragments_account_for_reduction(f):
    # f = sum of fragment * generator + span part, mod p^m
    module = module_for(2, 1, 3)
    terms, fragments = module.rewrite.reduce(f)
    rebuilt = expand(module, fragments) + Polynomial(module.modulus, terms).lift()
    assert (f - rebuilt).reduce_mod(2, 3).is_zero()


@given(f=small_polys)
@settings(max_examples=25, deadline=None)
def test_fragments_account_for_reduction_odd(f):
    module = module_for(3, 1, 2)
    terms, fragments = module.rewrite.reduce(f)
    rebuilt = expand(module, fragments) + Polynomial(module.modulus, terms).lift()
    assert (f - rebuilt).reduce_mod(3, 2).is_zero()


@pytest.mark.parametrize("a", range(0, 4))
@pytest.mark.parametrize("b", range(0, 4))
def test_confluence_monomial_multiples_vanish(a, b):
    # multiples of the two rewrite generators must reduce to zero exactly;
    # the build skips the grid multiples of g_e on the strength of this.
    # Case (a, b) takes the shifts congruent to it mod 4, so the 16 cases
    # cover every x^i y^j with i, j < max(p^e, 4) on each cell
    for p, e, m in [(2, 1, 2), (2, 2, 3), (3, 1, 2), (5, 2, 3), (3, 3, 4), (2, 4, 5)]:
        rewrite = RewriteSystem(p, e, m)
        generators = rewrite.ideal.generators
        top = max(p**e, 4)
        for i in range(a, top, 4):
            for j in range(b, top, 4):
                mono = Polynomial.monomial(RATIONALS, i, j)
                for g in (generators[e], generators[e + 1]):
                    terms, _ = rewrite.reduce(mono * g)
                    assert terms == {}


# ---- the closure and its basis ----


def test_basis_frozen_depth_one():
    assert span_basis(module_for(2, 1, 2)).matrix.tolist() == [
        [0, 2, 0, 0],  # 2x
        [0, 0, 0, 2],  # 2xy
    ]
    assert span_basis(module_for(2, 1, 3)).matrix.tolist() == [
        [0, 2, 0, 0],  # 2x
        [0, 0, 4, 0],  # 4y
        [0, 0, 0, 2],  # 2xy
    ]


def test_extra_precision_separates_cosets():
    module = module_for(2, 1, 3)
    assert not module.is_member(Y.scale(2)).member
    assert module.is_member(Y.scale(4)).member


def test_atom_vectors_are_rewrites_of_their_keys():
    # an atom stores its key and its class vector only; certificates are
    # derived from the key, so the vector must be the key's rewrite
    for p, e, m in [(2, 1, 3), (2, 2, 3), (3, 2, 3)]:
        module = module_for(p, e, m)
        for atom in module.atoms:
            n, a, b = atom.key
            multiple = Polynomial.monomial(RATIONALS, a, b) * module.ideal.generators[n]
            terms, _ = module.rewrite.reduce(multiple)
            assert class_terms(module, atom.weight, atom.vector) == terms


def test_corrupted_transform_breaks_the_certificate():
    # a basis row reduces against its class with coefficient 1 on itself,
    # so its atom weights are its transform row; one weight off by 1 adds
    # a nonzero atom vector the derived cofactors cannot account for
    module = build_membership_module(2, 2, 3)
    weight, weight_class = max(module.basis.items(), key=lambda item: item[1].basis.rank)
    row = weight_class.basis.matrix[0]
    target = Polynomial(module.modulus, class_terms(module, weight, row)).lift()
    _, coefficients = weight_class.basis.reduce(row)
    assert coefficients.tolist() == [1] + [0] * (weight_class.basis.rank - 1)
    result = module.is_member(target)
    assert result.member
    assert verify_certificate(result.certificate)
    transform = weight_class.transform
    transform[0, -1] = (transform[0, -1] + 1) % module.modulus.value
    with pytest.raises(AssertionError, match="do not account"):
        module.is_member(target)


def test_basis_stable_under_atom_shuffling():
    module = module_for(2, 2, 3)
    vectors = [span_vector(module, atom) for atom in module.atoms]
    random.Random(7).shuffle(vectors)
    shuffled = howell_form(np.vstack(vectors), module.modulus)
    assert np.array_equal(shuffled.matrix, span_basis(module).matrix)


def weights_of(module, vector):
    block, p = module.rewrite.block, module.p
    return {int(index) % block + p * (int(index) // block) for index in np.flatnonzero(vector)}


# the acceptance grid at both of its precisions, plus the (5, 2) cell of
# the default verify grid
GRADED_CELLS = [(p, e, m) for p, e in ACCEPTANCE_GRID for m in (e + 1, e + 2)] + [(5, 2, 3)]


@pytest.mark.parametrize("p,e,m", GRADED_CELLS)
def test_weight_graded_basis_matches_global_elimination(p, e, m):
    module = module_for(p, e, m)
    for atom in module.atoms:
        n, a, b = atom.key
        assert atom.weight == a + p * b + p**n
        assert weights_of(module, span_vector(module, atom)) == {atom.weight}
    graded = span_basis(module)
    for row in graded.matrix:
        assert len(weights_of(module, row)) == 1
    whole = global_basis(p, e, m)
    assert np.array_equal(whole.matrix, graded.matrix)
    assert whole.pivot_columns == graded.pivot_columns
    assert whole.pivot_values == graded.pivot_values
    assert module.basis.rank == whole.rank


@st.composite
def graded_targets(draw, p, e):
    """A sum of generator multiples (a member), of x- and y-degree below
    2 * p^e, plus half the time a few free monomials inside the span."""
    top = 2 * p**e - 1
    generators = standard_generators(p, e)
    target = Polynomial.zero(RATIONALS)
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, e + 1))
        a, b = draw(st.integers(0, top)), draw(st.integers(0, top))
        c = draw(st.integers(-p**2, p**2))
        target = target + Polynomial.monomial(RATIONALS, a, b, c) * generators[n]
    if draw(st.booleans()):
        free = draw(
            st.dictionaries(
                st.tuples(st.integers(0, p**e - 1), st.integers(0, p**e - 1)),
                st.integers(-p**2, p**2),
                max_size=3,
            )
        )
        target = target + Polynomial(RATIONALS, free)
    return target


@pytest.mark.parametrize("p,e,m", GRADED_CELLS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_graded_queries_match_single_basis_route(p, e, m, data):
    # reduce the target's span vector against the Howell form of every
    # atom at once, the way queries ran before the classes were the basis
    module = module_for(p, e, m)
    target = data.draw(graded_targets(p, e))
    terms, _ = module.rewrite.reduce(target)
    residue, _ = global_basis(p, e, m).reduce(terms_vector(module, terms))
    result = module.is_member(target)
    assert result.member == (not residue.any())
    if result.member:
        assert verify_certificate(result.certificate)
    else:
        remainder = {
            (index % module.rewrite.block, index // module.rewrite.block): int(value)
            for index, value in enumerate(residue)
            if value
        }
        assert result.witness.polynomial == Polynomial(module.modulus, remainder)


@pytest.mark.parametrize("p,e", [(3, 3), (2, 5)])
def test_deep_cells_build_and_certify(p, e):
    module = build_membership_module(p, e, e + 1)
    result = module.verify_nilpotence()
    assert result.member
    assert verify_certificate(result.certificate)
    assert not module.verify_sharpness().member



def class_digest(module):
    """sha256 over every weight class: low, Howell matrix, pivot columns
    and values, transform and atom keys, in weight order."""
    digest = hashlib.sha256()
    for weight, weight_class in sorted(module.basis.items()):
        basis = weight_class.basis
        fields = (
            weight,
            weight_class.low,
            basis.matrix.tolist(),
            basis.pivot_columns,
            basis.pivot_values,
            weight_class.transform.tolist(),
            [atom.key for atom in weight_class.atoms],
        )
        digest.update(repr(fields).encode("ascii"))
    return digest.hexdigest()


# class_digest of the built modules; any change to the elimination's
# pivots, row order, transforms or atom order shows here
CLASS_DIGESTS = {
    (5, 2, 3): "326d247cea5c7e8c347f624f7d33a08ed3e525464f1052aba3ae2405fb3c533e",
    (3, 3, 4): "e123462356ee34021dad85c4c193e14dae3e157fc5139ff6d491ef3826fb44b3",
    (2, 5, 6): "20cd4edda129611d0260918700c07f17278175b21e49d850689fa059d53c1a7c",
    # classes of more than 128 rows and 32 pivots, where many rows fall
    # to zero during the elimination
    (2, 6, 7): "a28df561ee54e0303ca9fe5f5d93b2933035324f6808f1f9964df707116c0fb8",
}


@pytest.mark.parametrize("p,e,m", sorted(CLASS_DIGESTS))
def test_elimination_pinned(p, e, m):
    assert class_digest(module_for(p, e, m)) == CLASS_DIGESTS[(p, e, m)]


def test_certificate_bytes_pinned():
    # sha256 over the certificate texts of the nilpotence query on every
    # CLASS_DIGESTS cell, then of theta(g) and psi(g) for each generator
    # at (3, 2, 3) and (5, 2, 3): certificates the default verify run
    # neither writes nor pins
    digest = hashlib.sha256()
    results = [module_for(p, e, m).verify_nilpotence() for p, e, m in sorted(CLASS_DIGESTS)]
    for cell in [(3, 2, 3), (5, 2, 3)]:
        module = module_for(*cell)
        context = module.theta_context
        for g in module.ideal.generators:
            results += [module.is_member(context.theta(g)), module.is_member(context.psi(g))]
    for result in results:
        assert result.member
        digest.update(certificate_to_text(result.certificate).encode("ascii"))
    assert digest.hexdigest() == (
        "c47092bd8b933121a50fbdeee69fbd3fad170891b6bfabf85c21d6af2d9dba97"
    )


def test_largest_admitted_cell_pinned():
    # (2, 7, 8), the largest cell --span-limit admits; its nilpotence and
    # sharpness queries read two weight classes, not all 381
    module = build_membership_module(2, 7, 8)
    result = module.verify_nilpotence()
    assert result.member
    text = certificate_to_text(result.certificate)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "024bb4d34549f82b57e569011d44aa4396aa3913b9e32a08e168b525e150a3b3"
    )
    assert module.verify_sharpness().witness.to_text() == "2*x^63*y^64"


# ---- classes built on first touch ----


def test_classes_built_on_first_touch(monkeypatch):
    # calls holds the row count of each elimination
    calls = []
    inner = quotient.howell_complete

    def counted(rows, modulus):
        calls.append(rows.shape[0])
        return inner(rows, modulus)

    monkeypatch.setattr(quotient, "howell_complete", counted)
    module = build_membership_module(2, 6, 7)
    assert calls == []
    assert module.verify_nilpotence().member
    assert len(calls) == 1
    # reading the basis builds each remaining class once, and only once
    assert len(module.basis) == len(calls) == 189
    assert len(module.atoms) == sum(calls)
    assert len(calls) == 189


def default_queries(module):
    """The membership queries of a default verify cell, nilpotence and
    sharpness first."""
    p, e = module.p, module.e
    context = module.theta_context
    bound = p**e + p ** (e - 1)
    queries = [X**bound, X ** (bound - 1)]
    for g in module.ideal.generators:
        queries += [context.theta(g), context.psi(g)]
    for k in range(e + 1):
        queries.append(context.psi_iterate(X, k).scale(p ** (e - k)))
    for k in range(e):
        small = p ** (e - k) + p ** (e - k - 1)
        queries.append(X**bound - context.psi_iterate(X, k) ** small)
    return queries


def answer(result):
    if result.member:
        return True, certificate_to_text(result.certificate)
    return False, result.witness.to_text()


@pytest.mark.parametrize("p,e,m", [(2, 4, 5), (3, 2, 3), (5, 2, 3)])
def test_class_build_order_does_not_matter(p, e, m):
    forward, backward = build_membership_module(p, e, m), build_membership_module(p, e, m)
    queries = default_queries(forward)
    answers = [answer(forward.is_member(f)) for f in queries]
    reversed_answers = [answer(backward.is_member(f)) for f in reversed(queries)]
    assert answers == reversed_answers[::-1]
    assert class_digest(forward) == class_digest(backward)


def test_generators_are_members():
    for p, e, m in [(2, 1, 2), (3, 1, 2), (2, 2, 3)]:
        module = module_for(p, e, m)
        for g in module.ideal.generators:
            result = module.is_member(g)
            assert result.member
            assert verify_certificate(result.certificate)


def test_zero_is_member_with_empty_certificate():
    result = module_for(2, 1, 2).is_member(Polynomial.zero(RATIONALS))
    assert result.member
    assert result.certificate.cofactors == ()
    assert verify_certificate(result.certificate)


# ---- membership verdicts against hand calculations ----


def test_cube_membership_certificate_is_exact():
    result = module_for(2, 1, 2).is_member(X**3)
    assert result.member
    cert = result.certificate
    assert verify_certificate(cert)
    # this instance admits an identity on the nose, not just mod 4
    g = standard_generators(2, 1)
    total = Polynomial.zero(RATIONALS)
    for index, cofactor in cert.cofactors:
        total = total + cofactor * g[index]
    assert total == X**3


def test_square_witness():
    result = module_for(2, 1, 2).is_member(X**2)
    assert not result.member
    assert result.witness.to_text() == "2*y"


def test_witness_is_canonical():
    module = module_for(2, 1, 2)
    witness = module.is_member(X**2).witness
    again = module.is_member(witness.polynomial.lift())
    assert not again.member
    assert again.witness.polynomial == witness.polynomial


def test_odd_prime_hand_values():
    module = module_for(3, 1, 2)
    assert not module.is_member(X**3).member
    result = module.is_member(X**4)
    assert result.member
    assert verify_certificate(result.certificate)


def test_depth_two_hand_values():
    module = module_for(2, 2, 3)
    sixth = module.power_membership(X, 6)
    assert sixth.member
    assert verify_certificate(sixth.certificate)
    fifth = module.power_membership(X, 5)
    assert not fifth.member
    assert fifth.witness.to_text() == "2*x*y^2"


def test_membership_monotone_in_precision():
    coarse, fine = module_for(2, 1, 2), module_for(2, 1, 3)
    rng = random.Random(3)
    for _ in range(30):
        f = random_polynomial(rng, 2, max_degree=4, max_terms=4)
        if fine.is_member(f).member:
            assert coarse.is_member(f).member


def test_power_membership_matches_direct_expansion():
    module = module_for(2, 1, 2)
    for exponent in range(1, 9):
        via_power = module.power_membership(X, exponent)
        direct = module.is_member(X**exponent)
        assert via_power.member == direct.member
        if via_power.member:
            assert verify_certificate(via_power.certificate)
            assert via_power.certificate.target == X**exponent


def stepwise_power_reduction(module, exponent):
    """x^exponent reduced one multiplication by x at a time, with the
    cofactor fragments carried along: (span terms, fragments)."""
    modulus = module.modulus
    x = X.reduce_mod(module.p, module.m)
    terms, fragments = module.rewrite.reduce(x)
    for _ in range(exponent - 1):
        carried = {g: x * Polynomial(modulus, cofactor) for g, cofactor in fragments.items()}
        terms, fresh = module.rewrite.reduce(x * Polynomial(modulus, terms))
        for g, cofactor in fresh.items():
            carried[g] = carried.get(g, Polynomial.zero(modulus)) + Polynomial(modulus, cofactor)
        fragments = {g: dict(c.terms) for g, c in carried.items() if c}
    return terms, fragments


@pytest.mark.parametrize("p,e,m", GRADED_CELLS)
def test_power_reduction_matches_stepwise_reduction(p, e, m):
    # normal forms mod g_e and y^(p^e) are unique, and so is the g_e
    # quotient of y-degree below p^e: reducing x^N at once gives the same
    # span part and fragments, so the same certificate, as step by step
    module = module_for(p, e, m)
    bound = p**e + p ** (e - 1)
    for exponent in (bound - 1, bound, bound + p):
        assert module.rewrite.reduce(X**exponent) == stepwise_power_reduction(module, exponent)


# ---- agreement with the enumeration oracle ----


def test_oracle_guard():
    with pytest.raises(ValueError):
        brute_force_membership_oracle(2, 1, 5, X)
    with pytest.raises(ValueError):
        brute_force_membership_oracle(3, 2, 1, X)


def test_oracle_agrees_on_hand_cases():
    assert brute_force_membership_oracle(2, 1, 2, X**3)
    assert not brute_force_membership_oracle(2, 1, 2, X**2)
    assert not brute_force_membership_oracle(2, 1, 3, Y.scale(2))
    assert brute_force_membership_oracle(2, 1, 3, Y.scale(4))
    assert not brute_force_membership_oracle(3, 1, 2, X**3)
    assert brute_force_membership_oracle(3, 1, 2, X**4)


@pytest.mark.parametrize("p,e,m,samples", [(2, 1, 2, 20), (2, 1, 3, 15), (3, 1, 2, 10)])
def test_oracle_agrees_on_random_samples(p, e, m, samples):
    module = module_for(p, e, m)
    rng = random.Random(p * 100 + e * 10 + m)
    for _ in range(samples):
        f = random_polynomial(rng, p, max_degree=3, max_terms=4)
        assert module.is_member(f).member == brute_force_membership_oracle(p, e, m, f)


# ---- the verification operations ----


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 2, 3)])
def test_theta_stability(p, e, m):
    assert module_for(p, e, m).check_theta_stability()


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 3)])
def test_iterate_torsion_all_depths(p, e, m):
    module = module_for(p, e, m)
    assert all(module.verify_iterate_torsion(k) for k in range(e + 1))
    with pytest.raises(ValueError):
        module.verify_iterate_torsion(e + 1)


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 3)])
def test_iterate_power_identity_all_depths(p, e, m):
    module = module_for(p, e, m)
    assert all(module.verify_iterate_power_identity(k) for k in range(e))
    with pytest.raises(ValueError):
        module.verify_iterate_power_identity(e)


@pytest.mark.parametrize(
    "p,e,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3), (2, 2, 4), (3, 2, 3)]
)
def test_nilpotence_bound_attained(p, e, m):
    result = module_for(p, e, m).verify_nilpotence()
    assert result.member
    assert verify_certificate(result.certificate)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_bound_is_sharp_at_critical_precision(p, e):
    module = module_for(p, e, e + 1)
    result = module.verify_sharpness()
    assert not result.member
    assert result.witness is not None


def test_sharpness_requires_critical_precision():
    with pytest.raises(ValueError):
        module_for(2, 1, 3).verify_sharpness()


@pytest.mark.parametrize("p,e,m", [(2, 2, 3), (2, 2, 4), (3, 2, 3)])
def test_torsion_powers(p, e, m):
    assert module_for(p, e, m).verify_torsion_powers()


def test_verification_operations_check_their_certificates(monkeypatch):
    module = build_membership_module(2, 2, 3)
    assert module.check_theta_stability()
    monkeypatch.setattr(quotient, "verify_certificate", lambda certificate: False)
    assert not module.check_theta_stability()
    assert not any(module.verify_iterate_torsion(k) for k in range(3))
    assert not any(module.verify_iterate_power_identity(k) for k in range(2))
    assert not module.verify_torsion_powers()


# ---- resource guards ----


def test_span_limit_enforced():
    with pytest.raises(ValueError):
        build_membership_module(2, 2, 3, span_limit=8)


def test_span_limit_permits_small_instances():
    module = build_membership_module(2, 1, 2, span_limit=8)
    assert module.basis.rank == 2


def test_transform_guard_is_per_weight_class():
    # span 64 times (2^30)^2 passes 2^63, but no class is wider than 4
    module = build_membership_module(2, 3, 30)
    result = module.verify_nilpotence()
    assert result.member
    assert verify_certificate(result.certificate)
    # classes of width 8 at full rank do pass it
    with pytest.raises(ValueError, match="precision too large"):
        build_membership_module(2, 4, 30)


@pytest.mark.parametrize(
    "p,e,m,message",
    [
        # p^m = 2^31 reaches the Howell modulus limit
        (2, 6, 31, "modulus too large"),
        # 3^19 is below it, but 3^3 * (3^19)^2 passes 2^63
        (3, 4, 19, "precision too large"),
    ],
)
def test_int64_overflow_refused_before_any_work(p, e, m, message):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        build_membership_module(p, e, m)
    assert time.perf_counter() - started < 0.05
