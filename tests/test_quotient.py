"""The membership engine: rewriting, closure, certificates, witnesses.

Ground truths in here were worked out by hand on desk-sized instances
before the engine existed; the brute-force oracle re-derives them by
exhaustive enumeration along a second, independent code path.
"""

import dataclasses
import functools
import hashlib
import operator
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.certificates import (
    MAX_DEGREE,
    MAX_PRECISION,
    _checker_generators,
    certificate_from_text,
    certificate_to_text,
    standard_generators,
    verify_certificate,
)
from nilcert import quotient
from nilcert.coefficients import rational
from nilcert.howell import HowellBasis, howell_complete, pivot_walk
from nilcert.polynomials import RATIONALS, Polynomial
from nilcert.quotient import (
    RewriteSystem,
    brute_force_membership_oracle,
    build_membership_module,
)
from nilcert.theta import ThetaContext, nilpotence_bound, random_polynomial

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
    vector = [0] * block**2
    for (i, j), value in terms.items():
        vector[j * block + i] = value
    return vector


def key_terms(module, key):
    """The span terms of the atom (n, a, b): the rewrite of x^a y^b * g_n."""
    n, a, b = key
    multiple = Polynomial.monomial(RATIONALS, a, b) * module.generators[n]
    terms, _ = module.rewrite.reduce(multiple)
    return terms


def span_vector(module, key):
    """The rewrite of an atom key as one vector over the whole span."""
    return terms_vector(module, key_terms(module, key))


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
    return HowellBasis(
        modulus=module.modulus,
        matrix=tuple(
            tuple(terms_vector(module, class_terms(module, weight, row)))
            for _, _, row, weight in rows
        ),
        pivot_columns=tuple(entry[0] for entry in rows),
        pivot_values=tuple(entry[1] for entry in rows),
        ncols=block**2,
    )


@functools.lru_cache(maxsize=None)
def global_basis(p, e, m):
    """One Howell form of all atom span vectors together: the single-basis
    route the graded build replaces, kept here as a reference."""
    module = module_for(p, e, m)
    vectors = [span_vector(module, key) for key in module.atoms]
    return howell_complete(vectors, module.modulus)[0]


def expand(module, fragments):
    total = Polynomial.zero(RATIONALS)
    for g, terms in fragments.items():
        total = total + Polynomial(RATIONALS, terms) * module.generators[g]
    return total


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-20, 20),
    max_size=6,
).map(lambda terms: Polynomial(RATIONALS, terms))


# ---- the rewrite map ----


def test_ideal_spec_frozen():
    generators = RewriteSystem(2, 1, 2).generators
    assert generators == (X.scale(2), X**2 - Y.scale(2), Y**2)


@pytest.mark.parametrize(
    "break_family,message",
    [
        # g_e no longer monic in x
        (lambda g: g[:2] + (g[2].scale(3),) + g[3:], "top generator must be monic"),
        # g_e monic at x^(p^e) = x^4, but of x-degree 5
        pytest.param(
            lambda g: g[:2] + (g[2] + X**5,) + g[3:],
            "top generator must be monic",
            id="x-degree-past-p^e",
        ),
        # a last generator other than y^(p^e)
        (lambda g: g[:3] + (Y**5,), "last generator must be y"),
        # g_e monic of degree p^e, but its tail reaches y^(p^e)
        (lambda g: g[:2] + (g[2] + Y**4,) + g[3:], "rewrite tail escapes the span block"),
    ],
)
def test_rewrite_system_refuses_a_broken_family(monkeypatch, break_family, message):
    family = standard_generators(2, 2)
    monkeypatch.setattr(quotient, "standard_generators", lambda p, e: break_family(family))
    with pytest.raises(AssertionError, match=message):
        RewriteSystem(2, 2, 3)


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


@pytest.mark.parametrize(
    "f, span, fragments",
    [
        (Polynomial.zero(RATIONALS), {}, {}),
        # no heavy key: the span part alone, 16x vanishing mod 8
        ((X**3 * Y).scale(9) - Y.scale(3) + X.scale(16), {(3, 1): 1, (0, 1): 5}, {}),
        # killed keys only, one of them of x-degree p^e or more
        ((Y**4).scale(3) - X**6 * Y**5, {}, {3: {(0, 0): 3, (6, 1): 7}}),
        # a fraction over a unit: 1/3 is 3 mod 8
        (Y.scale(rational(1, 3)) + Y**4, {(0, 1): 3}, {3: {(0, 0): 1}}),
        # the system's own modulus
        ((X**5 + X * Y**4).reduce_mod(2, 3), None, None),
    ],
    ids=["empty", "no-heavy-key", "only-killed-keys", "fraction-over-a-unit", "own-modulus"],
)
def test_reduce_entry_cases(f, span, fragments):
    # f = sum of fragment_g * g + span part, mod p^m, in every case
    rewrite = RewriteSystem(2, 2, 3)
    terms, found = rewrite.reduce(f)
    if span is not None:
        assert (terms, found) == (span, fragments)
    assert all(i < 4 and j < 4 for i, j in terms)
    lifted = f if f.ring is RATIONALS else f.lift()
    rebuilt = expand(rewrite, found) + Polynomial(rewrite.modulus, terms).lift()
    assert not (lifted - rebuilt).reduce_mod(2, 3)


@pytest.mark.parametrize(
    "f, message",
    [(X.reduce_mod(2, 4), "modulus does not match"), (X.scale(rational(1, 2)), "not invertible")],
)
def test_reduce_entry_refusals(f, message):
    with pytest.raises(ValueError, match=message):
        RewriteSystem(2, 2, 3).reduce(f)


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
    assert not (f - rebuilt).reduce_mod(2, 3)


@given(f=small_polys)
@settings(max_examples=25, deadline=None)
def test_fragments_account_for_reduction_odd(f):
    module = module_for(3, 1, 2)
    terms, fragments = module.rewrite.reduce(f)
    rebuilt = expand(module, fragments) + Polynomial(module.modulus, terms).lift()
    assert not (f - rebuilt).reduce_mod(3, 2)


@pytest.mark.parametrize("a", range(0, 4))
@pytest.mark.parametrize("b", range(0, 4))
def test_confluence_monomial_multiples_vanish(a, b):
    # multiples of the two rewrite generators must reduce to zero exactly;
    # the build skips the grid multiples of g_e on the strength of this.
    # Case (a, b) takes the shifts congruent to it mod 4, so the 16 cases
    # cover every x^i y^j with i, j < max(p^e, 4) on each cell
    for p, e, m in [(2, 1, 2), (2, 2, 3), (3, 1, 2), (5, 2, 3), (3, 3, 4), (2, 4, 5)]:
        rewrite = RewriteSystem(p, e, m)
        generators = rewrite.generators
        top = max(p**e, 4)
        for i in range(a, top, 4):
            for j in range(b, top, 4):
                mono = Polynomial.monomial(RATIONALS, i, j)
                for g in (generators[e], generators[e + 1]):
                    terms, _ = rewrite.reduce(mono * g)
                    assert terms == {}



def rescanning_reduce(rewrite, work):
    """A plain reference for RewriteSystem._reduce_terms: after every
    x-step it rescans the whole dict for y-killed keys and for the largest
    heavy key."""
    n, block = rewrite.modulus.value, rewrite.block

    def add_into(bucket, terms, scale, di, dj):
        for (i, j), value in terms.items():
            key = (i + di, j + dj)
            total = (bucket.get(key, 0) + scale * value) % n
            if total:
                bucket[key] = total
            else:
                bucket.pop(key, None)

    fragments = {}
    while True:
        killed = [key for key in work if key[1] >= block]
        if killed:
            terms = {key: work.pop(key) for key in killed}
            add_into(fragments.setdefault(rewrite.e + 1, {}), terms, 1, 0, -block)
        heavy = [key for key in work if key[0] >= block]
        if not heavy:
            break
        i, j = max(heavy)
        value = work.pop((i, j))
        fragments.setdefault(rewrite.e, {})[(i - block, j)] = value
        add_into(work, rewrite.tail, value, i - block, j)
    return work, {g: d for g, d in fragments.items() if d}


@st.composite
def residue_dicts(draw, rewrite):
    """Zero-free residue dicts for one rewrite system: random terms, keys
    of y-degree p^e or more among them, heavy keys up to y-degree p^e - 1,
    whose tails cross y-degree p^e, and for a few heavy keys the negated
    tail laid in, so that rewriting them cancels terms to zero (heavy
    ones too, which the sweep must then skip)."""
    block, n = rewrite.block, rewrite.modulus.value
    keys = st.tuples(st.integers(0, 3 * block), st.integers(0, block + 2))
    work = draw(st.dictionaries(keys, st.integers(1, n - 1), max_size=12))
    heavy = st.tuples(st.integers(block, 3 * block), st.integers(0, block - 1))
    for i, j in draw(st.lists(heavy, max_size=3)):
        value = work.setdefault((i, j), draw(st.integers(1, n - 1)))
        for (ti, tj), t in rewrite.tail.items():
            key = (ti + i - block, tj + j)
            total = (work.get(key, 0) - value * t) % n
            if total:
                work[key] = total
            else:
                work.pop(key, None)
    return work


@pytest.mark.parametrize("p,e,m", [(2, 3, 4), (3, 2, 3), (5, 1, 2), (2, 2, 5)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sweep_matches_rescanning_reduce(p, e, m, data):
    rewrite = module_for(p, e, m).rewrite
    work = data.draw(residue_dicts(rewrite))
    assert rewrite._reduce_terms(dict(work)) == rescanning_reduce(rewrite, dict(work))


# ---- the closure and its basis ----


def test_basis_frozen_depth_one():
    assert span_basis(module_for(2, 1, 2)).matrix == (
        (0, 2, 0, 0),  # 2x
        (0, 0, 0, 2),  # 2xy
    )
    assert span_basis(module_for(2, 1, 3)).matrix == (
        (0, 2, 0, 0),  # 2x
        (0, 0, 4, 0),  # 4y
        (0, 0, 0, 2),  # 2xy
    )


def test_extra_precision_separates_cosets():
    module = module_for(2, 1, 3)
    assert not module.is_member(Y.scale(2)).member
    assert module.is_member(Y.scale(4)).member


def test_atom_vectors_are_rewrites_of_their_keys():
    # a class keeps only its atom keys; certificates are derived from the
    # keys, so the transform must carry the origin keys' rewrites onto the
    # basis
    for p, e, m in [(2, 1, 3), (2, 2, 3), (3, 2, 3)]:
        module = module_for(p, e, m)
        n = module.modulus.value
        for weight, weight_class in module.basis.items():
            low, width = module.rewrite.weight_class(weight)
            assert low == weight_class.low
            vectors = [[0] * width for _ in weight_class.keys]
            for row, key in enumerate(weight_class.keys):
                for (i, j), value in key_terms(module, key).items():
                    assert i + p * j == weight
                    vectors[row][j - low] = value
            origins = weight_class.origins
            assert list(origins) == sorted(set(origins))
            assert all(0 <= k < len(weight_class.keys) for k in origins)
            combined = []
            for coefficients in weight_class.transform:
                assert len(coefficients) == len(origins)
                total = [0] * width
                for c, k in zip(coefficients, origins):
                    total = [(t + c * x) % n for t, x in zip(total, vectors[k])]
                combined.append(tuple(total))
            assert tuple(combined) == weight_class.basis.matrix


def test_corrupted_transform_breaks_the_certificate():
    # a basis row reduces against its class with coefficient 1 on itself,
    # so its atom weights are its transform row; one weight off by 1 adds
    # a nonzero atom vector the derived cofactors cannot account for
    module = build_membership_module(2, 2, 3)
    weight, weight_class = max(module.basis.items(), key=lambda item: item[1].basis.rank)
    row = weight_class.basis.matrix[0]
    target = Polynomial(module.modulus, class_terms(module, weight, row)).lift()
    _, coefficients = weight_class.basis.reduce(row)
    assert coefficients == [1] + [0] * (weight_class.basis.rank - 1)
    result = module.is_member(target)
    assert result.member
    assert verify_certificate(result.certificate)
    first, *rest = weight_class.transform
    first = first[:-1] + ((first[-1] + 1) % module.modulus.value,)
    module._classes[weight] = dataclasses.replace(weight_class, transform=(first, *rest))
    with pytest.raises(AssertionError, match="do not account"):
        module.is_member(target)


def test_basis_stable_under_atom_shuffling():
    module = module_for(2, 2, 3)
    vectors = [span_vector(module, key) for key in module.atoms]
    random.Random(7).shuffle(vectors)
    shuffled = howell_complete(vectors, module.modulus)[0]
    assert shuffled.matrix == span_basis(module).matrix


def weights_of(module, vector):
    block, p = module.rewrite.block, module.p
    return {index % block + p * (index // block) for index, value in enumerate(vector) if value}


# the acceptance grid at both of its precisions, plus the (5, 2) cell of
# the default verify grid
GRADED_CELLS = [(p, e, m) for p, e in ACCEPTANCE_GRID for m in (e + 1, e + 2)] + [(5, 2, 3)]


@pytest.mark.parametrize("p,e,m", GRADED_CELLS)
def test_weight_graded_basis_matches_global_elimination(p, e, m):
    module = module_for(p, e, m)
    for n, a, b in module.atoms:
        assert weights_of(module, span_vector(module, (n, a, b))) == {a + p * b + p**n}
    graded = span_basis(module)
    for row in graded.matrix:
        assert len(weights_of(module, row)) == 1
    whole = global_basis(p, e, m)
    assert whole.matrix == graded.matrix
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
    assert result.member == (not any(residue))
    if result.member:
        assert verify_certificate(result.certificate)
    else:
        remainder = {
            (index % module.rewrite.block, index // module.rewrite.block): value
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



def dense_transform(weight_class):
    """The class transform over every atom key, zero off the origins."""
    rows = []
    for coefficients in weight_class.transform:
        row = [0] * len(weight_class.keys)
        for origin, value in zip(weight_class.origins, coefficients):
            row[origin] = value
        rows.append(row)
    return rows


def class_digest(module):
    """sha256 over every weight class: low, Howell matrix, pivot columns
    and values, transform over every atom key and atom keys, in weight
    order."""
    digest = hashlib.sha256()
    for weight, weight_class in sorted(module.basis.items()):
        basis = weight_class.basis
        fields = (
            weight,
            weight_class.low,
            [list(row) for row in basis.matrix],
            basis.pivot_columns,
            basis.pivot_values,
            dense_transform(weight_class),
            list(weight_class.keys),
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
        for g in module.generators:
            results += [module.is_member(context.theta(g)), module.is_member(context.psi(g))]
    for result in results:
        assert result.member
        digest.update(certificate_to_text(result.certificate).encode("ascii"))
    assert digest.hexdigest() == (
        "c47092bd8b933121a50fbdeee69fbd3fad170891b6bfabf85c21d6af2d9dba97"
    )


QUERY_BATCH_CELLS = [(2, 3, 4), (2, 4, 6), (3, 2, 4), (5, 1, 2), (7, 1, 2)]


def query_batch(p, e, m):
    """Seeded queries on one cell as (expected verdict, polynomial) pairs.

    Eight ideal elements, each three random monomial multiples of random
    generators, and eight non-members, each a unit times a monomial of
    weight below p^e (wt(x) = 1, wt(y) = p) plus an ideal element; in
    every four, one query is scaled by 1/q for a prime q other than p and
    one is handed over already reduced into Z/p^m.
    """
    rng = random.Random(f"query batch {p} {e} {m}")
    generators = standard_generators(p, e)
    block, n = p**e, p**m
    unit = rational(1, 5 if p == 3 else 3)

    def ideal_element():
        total = Polynomial.zero(RATIONALS)
        for _ in range(3):
            c = rng.randint(1, n - 1) * rng.choice((1, -1))
            shift = Polynomial.monomial(RATIONALS, rng.randrange(4), rng.randrange(4), c)
            total = total + shift * generators[rng.randrange(len(generators))]
        return total

    queries = []
    for k in range(8):
        j = rng.randrange((block - 1) // p + 1)
        c = rng.choice([c for c in range(1, n) if c % p])
        low = Polynomial.monomial(RATIONALS, rng.randrange(block - p * j), j, c)
        for expected, f in ((True, ideal_element()), (False, low + ideal_element())):
            if k % 4 == 1:
                f = f.scale(unit)
            elif k % 4 == 2:
                f = f.reduce_mod(p, m)
            queries.append((expected, f))
    return queries


def query_batch_results(p, e, m):
    """(expected verdict, result) for the batch's queries, then for
    x^N and x^(N-1) through power_membership, N = p^e + p^(e-1)."""
    module = module_for(p, e, m)
    results = [(expected, module.is_member(f)) for expected, f in query_batch(p, e, m)]
    bound = p**e + p ** (e - 1)
    results.append((True, module.power_membership(X, bound)))
    results.append((False, module.power_membership(X, bound - 1)))
    return results


# sha256 over each cell's certificate and witness texts, in query order
QUERY_BATCH_DIGESTS = {
    (2, 3, 4): "a6a27225dd392a1ad0a72c6f70ec9c86c1a0c019be48cc5ae51d637ac109661c",
    (2, 4, 6): "68ec77304ca0319b4fd446466150011676b0527ff9042a5c979ebd8da0a6961d",
    (3, 2, 4): "65674932f0add7d2c8d1ffd1168c522b5299b3770bd3cc43c5cd53cfe658be47",
    (5, 1, 2): "048ad70570442791b4bbd1048fc08b2aca9c2801e36a69e770da42deef902474",
    (7, 1, 2): "8f3ddf56ec774c47b974903351dce3c5975973a0673807fa10c6f0417ed8ebd4",
}


@pytest.mark.parametrize("p,e,m", QUERY_BATCH_CELLS)
def test_query_batch_pinned(p, e, m):
    digest = hashlib.sha256()
    for expected, result in query_batch_results(p, e, m):
        assert result.member == expected
        text = certificate_to_text(result.certificate) if expected else result.witness.to_text()
        digest.update(text.encode("ascii") + b"\n")
    assert digest.hexdigest() == QUERY_BATCH_DIGESTS[(p, e, m)]



def test_checkers_agree_on_the_query_batch(monkeypatch):
    # verify_certificate against perfbench/refcheck.py, which shares no
    # code with nilcert, on the batch's certificates and on two mutations
    # of each cofactor's leading term: + 1 changes the expansion mod p^m
    # (every generator is nonzero mod p^m at m > e), + p^m does not
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from refcheck import certificate_problem

    def verdicts(certificate):
        text = certificate_to_text(certificate)
        return verify_certificate(certificate), certificate_problem(text) is None

    for p, e, m in QUERY_BATCH_CELLS:
        for expected, result in query_batch_results(p, e, m):
            if not expected:
                continue
            certificate = result.certificate
            assert verdicts(certificate) == (True, True)
            for k, (index, cofactor) in enumerate(certificate.cofactors):
                # the leading term in graded-lex order
                a, b = max(cofactor.numerators, key=lambda k: (k[0] + k[1], k[0]))
                for step, accepted in ((1, False), (p**m, True)):
                    cofactors = list(certificate.cofactors)
                    shifted = cofactor + Polynomial.monomial(RATIONALS, a, b, step)
                    cofactors[k] = (index, shifted)
                    mutant = dataclasses.replace(certificate, cofactors=tuple(cofactors))
                    assert verdicts(mutant) == (accepted, accepted)

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


def test_weight_without_atoms_has_an_empty_class():
    # at (2, 1, 2) every atom x^a y^b g_n has weight at least p^n >= 1, so
    # weight 0 has none: its class is empty, a query on it is its own
    # remainder, and the basis lists only the classes with atoms
    module = build_membership_module(2, 1, 2)
    empty = module._weight_class(0)
    assert empty.keys == () and empty.basis.rank == 0
    result = module.is_member(Polynomial.one(RATIONALS))
    assert not result.member
    assert result.witness.to_text() == "1"
    assert 0 not in module.basis
    assert all(weight_class.keys for weight_class in module.basis.values())


@pytest.mark.parametrize("p,e,m", [(2, 3, 4), (3, 2, 3), (5, 2, 3), (2, 4, 6)])
def test_class_rows_are_the_pivot_rows_in_y_degrees(p, e, m):
    # a class keeps its basis's pivot rows with both column fields shifted
    # by low, so a query walks its {y-degree: value} part in place; on
    # seeded parts, the walk on those rows leaves what reduce_residues
    # leaves on the part shifted to class columns, and a combination of
    # basis rows walks to a zero remainder
    module = module_for(p, e, m)
    n = p**m
    rng = random.Random(f"class rows {p} {e} {m}")
    module.basis  # builds every class, those without atoms too
    empty = 0
    for weight_class in module._classes.values():
        low, basis = weight_class.low, weight_class.basis
        assert weight_class.rows == tuple(
            (col + low, pk, tuple((j + low, x) for j, x in row))
            for col, pk, row in basis._pivot_rows
        )
        if not weight_class.keys:
            assert weight_class.rows == ()
            empty += 1
        for k in range(6):
            if k % 2 and basis.rank:
                factors = [rng.randrange(n) for _ in range(basis.rank)]
                dense = [sum(map(operator.mul, factors, column)) % n for column in zip(*basis.matrix)]
            else:
                dense = [rng.choice([0, rng.randrange(n)]) for _ in range(basis.ncols)]
            part = {low + j: x for j, x in enumerate(dense) if x}
            shifted = {j - low: x for j, x in part.items()}
            coefficients = pivot_walk(weight_class.rows, part, n)
            assert coefficients == basis.reduce_residues(shifted)
            assert part == {j + low: x for j, x in shifted.items()}
            assert coefficients is None or len(coefficients) == basis.rank
            if k % 2 and basis.rank:
                assert not any(part.values())
    assert empty


@pytest.mark.parametrize("p,e,m", [(2, 3, 4), (3, 2, 3), (5, 2, 3)])
def test_every_atom_vector_is_a_multiple_of_p(p, e, m):
    # g_n = p^(e-n) * f_n for n < e, and the rewrite keeps divisibility by
    # p mod p^m, so no class row has a unit entry and no elimination of a
    # class meets a unit pivot
    module = module_for(p, e, m)
    assert module.atoms
    for key in module.atoms:
        assert all(value % p == 0 for value in span_vector(module, key))


def default_queries(module):
    """The membership queries of a default verify cell, nilpotence and
    sharpness first."""
    p, e = module.p, module.e
    context = module.theta_context
    bound = p**e + p ** (e - 1)
    queries = [X**bound, X ** (bound - 1)]
    for g in module.generators:
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
        for g in module.generators:
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
    # the cell is admitted by check_cell before the guard forms p^(2e) or p^m
    for cell in [(3, 10**7, 2), (3, 1, 10**7)]:
        started = time.perf_counter()
        with pytest.raises(ValueError):
            brute_force_membership_oracle(*cell, X)
        assert time.perf_counter() - started < 0.1
    with pytest.raises(ValueError, match="degree p\\^e exceeds 1024"):
        brute_force_membership_oracle(2, 11, 12, X)
    with pytest.raises(ValueError, match="modulus does not match"):
        brute_force_membership_oracle(2, 1, 2, X.reduce_mod(2, 3))


@pytest.mark.parametrize("m", [3, 4])
def test_oracle_refuses_a_closure_past_its_limit(m):
    # span 16 and modulus at most 16 pass the first guard, but |T| is 2^22
    # at m = 3 and 2^37 at m = 4
    started = time.perf_counter()
    with pytest.raises(ValueError, match="closure passed 4096"):
        brute_force_membership_oracle(2, 2, m, X**6)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2)])
def test_oracle_answers_below_its_closure_limit(p, e, m):
    # every cell the tests hand the oracle, and the largest admitted ones
    # whose closure fits: |T| is 729 at (3, 1, 2) and 256 at the last two
    module = module_for(p, e, m)
    bound = p**e + p ** (e - 1)
    for f in (X ** (bound - 1), X**bound, Y.scale(p), X * Y):
        assert brute_force_membership_oracle(p, e, m, f) == module.is_member(f).member


def test_oracle_agrees_on_hand_cases():
    assert brute_force_membership_oracle(2, 1, 2, X**3)
    assert not brute_force_membership_oracle(2, 1, 2, X**2)
    assert not brute_force_membership_oracle(2, 1, 3, Y.scale(2))
    assert brute_force_membership_oracle(2, 1, 3, Y.scale(4))
    assert not brute_force_membership_oracle(3, 1, 2, X**3)
    assert brute_force_membership_oracle(3, 1, 2, X**4)


def test_oracle_runs_on_plain_ints_alone(monkeypatch):
    # the oracle reads the checker's integer family and maps by residues,
    # so it reaches none of the engine's generators, operators or arithmetic
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the engine")

    monkeypatch.setattr(quotient, "standard_generators", refuse)
    monkeypatch.setattr(Polynomial, "reduce_mod", refuse)
    monkeypatch.setattr(Polynomial, "__sub__", refuse)
    monkeypatch.setattr(ThetaContext, "iterate_polynomial", refuse)
    _checker_generators.cache_clear()
    test_oracle_agrees_on_hand_cases()


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


@pytest.mark.parametrize("p,e,m", [(2, 2, 3), (3, 2, 3)])
def test_theta_stability_forms_each_psi_image_once(p, e, m, monkeypatch):
    module = build_membership_module(p, e, m)
    images = []
    original = ThetaContext.psi

    def counted(self, f):
        images.append(f)
        return original(self, f)

    monkeypatch.setattr(ThetaContext, "psi", counted)
    assert module.check_theta_stability()
    # one image per generator g_0, ..., g_e, y^(p^e), read by theta and psi
    assert images == list(module.generators)
    assert len(images) == e + 2


@pytest.mark.parametrize("p,e,m", [(2, 2, 3), (3, 2, 3)])
def test_theta_stability_raises_only_the_generators_to_the_p(p, e, m, monkeypatch):
    module = build_membership_module(p, e, m)
    bases = []
    original = Polynomial.__pow__

    def recorded(self, exponent):
        if exponent == p:
            bases.append(self)
        return original(self, exponent)

    monkeypatch.setattr(Polynomial, "__pow__", recorded)
    assert module.check_theta_stability()
    # each identity is stated in the module's own generators, so no
    # second iterate family is built and each g^p is formed once
    assert bases == list(module.generators)


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


def test_verify_operations_take_their_exponents_from_the_bound(monkeypatch):
    # verify proves exactly the exponent `nilcert bound` prints
    module = build_membership_module(3, 2, 3)
    asked = []

    def recorded(n):
        asked.append(n)
        return nilpotence_bound(n)

    monkeypatch.setattr(quotient, "nilpotence_bound", recorded)
    assert module.verify_nilpotence().member
    assert not module.verify_sharpness().member
    assert all(module.verify_iterate_power_identity(k) for k in range(2))
    assert module.verify_torsion_powers()
    assert set(asked) == {9, 3}


DEFAULT_VERIFY_CELLS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]


@pytest.mark.parametrize("p,e", DEFAULT_VERIFY_CELLS)
def test_bound_is_sharp_at_critical_precision(p, e):
    module = module_for(p, e, e + 1)
    result = module.verify_sharpness()
    assert not result.member
    # one term, on the second monomial of the functional below
    q = p ** (e - 1)
    assert set(result.witness.polynomial.numerators) == {(q - 1, q)}


def _sharpness_functional(p, e):
    """lambda = p^e*[x^(N-1)] + p^(e-1)*[x^(q-1)*y^q] as {(i, j): weight},
    for N = p^e + p^(e-1) and q = p^(e-1)."""
    q = p ** (e - 1)
    return {(p**e + q - 1, 0): p**e, (q - 1, q): q}


def _functional_failures(p, e, functional):
    """The multiples x^a*y^b*g_n of weight N-1 that functional does not
    send to 0 mod p^(e+1).  The generators come from the checker's family
    alone, and the functional is read off a multiple as coefficients of
    g_n, with no product formed."""
    top = p**e + p ** (e - 1) - 1
    failures, multiples = [], 0
    for n, g in enumerate(_checker_generators(p, e)):
        weights = {i + p * j for i, j in g}
        assert len(weights) == 1 and all(type(c) is int for c in g.values())
        (weight,) = weights
        for b in range((top - weight) // p + 1):
            a = top - weight - p * b
            multiples += 1
            value = sum(c * g.get((i - a, j - b), 0) for (i, j), c in functional.items())
            if value % p ** (e + 1):
                failures.append((n, a, b))
    assert multiples > 0
    return failures


@pytest.mark.parametrize(
    "p,e", DEFAULT_VERIFY_CELLS + [(2, 6), (2, 8), (3, 4), (7, 3), (2, 10)]
)
def test_sharpness_by_an_independent_functional(p, e):
    # The ideal is homogeneous for wt(x) = 1, wt(y) = p.  lambda vanishes
    # mod p^(e+1) on every multiple of a generator of weight N-1, but
    # lambda(x^(N-1)) = p^e does not, so x^(N-1) is not in I + p^(e+1):
    # sharpness at m = e+1, checked without the engine.
    functional = _sharpness_functional(p, e)
    top = p**e + p ** (e - 1) - 1
    assert functional[(top, 0)] == p**e
    assert _functional_failures(p, e, functional) == []
    # the second entry is needed: the first alone fails, so the check bites
    assert _functional_failures(p, e, {(top, 0): p**e})


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
    # the old int64 transform bound admitted (2, 3, 30), whose classes are
    # at most 4 wide, and refused (2, 4, 30), with classes of width 8 at
    # full rank; on Python ints both answer, and so does the last
    # precision a certificate admits
    for e, m in [(3, 30), (4, 30), (4, MAX_PRECISION)]:
        result = build_membership_module(2, e, m).verify_nilpotence()
        assert result.member
        assert verify_certificate(result.certificate)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"precision {MAX_PRECISION + 1} exceeds"):
        build_membership_module(2, 4, MAX_PRECISION + 1)
    assert time.perf_counter() - started < 0.05


@pytest.mark.parametrize("p,e,m", [(2, 11, 12), (1031, 1, 2)])
def test_degree_above_max_degree_refused(p, e, m):
    # cells whose certificates the grammar refuses are not built
    with pytest.raises(ValueError, match=rf"degree p\^e exceeds {MAX_DEGREE}"):
        build_membership_module(p, e, m)


def test_absurd_depth_refused_without_forming_its_degree():
    started = time.perf_counter()
    with pytest.raises(ValueError, match=rf"degree p\^e exceeds {MAX_DEGREE}"):
        build_membership_module(2, 10**9, 3)
    assert time.perf_counter() - started < 0.05


def test_largest_degree_builds_and_its_certificates_parse():
    # p^e = 1024 = MAX_DEGREE: the torsion certificate of p^e * x survives
    # a round trip through the text format
    module = build_membership_module(2, 10, 11)
    x, _ = Polynomial.generators(RATIONALS)
    result = module.is_member(x.scale(2**10))
    assert result.member
    assert verify_certificate(certificate_from_text(certificate_to_text(result.certificate)))


@pytest.mark.parametrize(
    "p,e,m",
    [
        # p^m = 2^31, the old Howell modulus limit
        (2, 6, 31),
        # 3^19 is below it, but 3^3 * (3^19)^2 passes 2^63
        (3, 4, 19),
    ],
)
def test_precision_bounded_only_by_max_precision(p, e, m):
    # cells the old int64 bounds refused answer, and their certificates
    # check, also after a round trip through the text format
    result = build_membership_module(p, e, m).verify_nilpotence()
    assert result.member
    assert verify_certificate(result.certificate)
    text = certificate_to_text(result.certificate)
    assert verify_certificate(certificate_from_text(text))
    # one past MAX_PRECISION is refused before any work
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"precision {MAX_PRECISION + 1} exceeds"):
        build_membership_module(p, e, MAX_PRECISION + 1)
    assert time.perf_counter() - started < 0.05
