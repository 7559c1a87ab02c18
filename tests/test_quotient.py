"""The membership engine: rewriting, closure, certificates, witnesses.

Ground truths in here were worked out by hand on desk-sized instances
before the engine existed; the brute-force oracle re-derives them by
exhaustive enumeration along a second, independent code path.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.certificates import standard_generators, verify_certificate
from nilcert.howell import howell_form
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


def span_vector(module, atom):
    """An atom's class-local vector scattered back onto the whole span."""
    vector = np.zeros(module.rewrite.span_size, dtype=np.int64)
    vector[module.rewrite.weight_columns(atom.weight)] = atom.vector
    return vector


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
    vector, fragments = rewrite.reduce(X**2)
    assert list(vector) == [0, 0, 2, 0]  # x^2 -> 2y
    assert fragments == {1: {(0, 0): 1}}
    vector, fragments = rewrite.reduce(X**3)
    assert list(vector) == [0, 0, 0, 2]  # x^3 -> 2xy
    assert fragments == {1: {(1, 0): 1}}


def test_reduce_kills_high_y_degree():
    rewrite = RewriteSystem(2, 1, 2)
    vector, fragments = rewrite.reduce(Y**2 + (X * Y**3).scale(3))
    assert not vector.any()
    assert fragments == {2: {(0, 0): 1, (1, 1): 3}}


def test_reduce_rejects_foreign_modulus():
    rewrite = RewriteSystem(2, 1, 2)
    with pytest.raises(ValueError):
        rewrite.reduce(X.reduce_mod(3, 2))


def test_monomial_index_round_trip():
    rewrite = RewriteSystem(3, 1, 2)
    vector = np.zeros(9, dtype=np.int64)
    vector[rewrite.monomial_index(2, 1)] = 5
    assert rewrite.vector_to_polynomial(vector) == (X**2 * Y).scale(5).reduce_mod(3, 2)


@given(f=small_polys, g=small_polys, c=st.integers(-10, 10))
@settings(max_examples=40, deadline=None)
def test_reduce_is_linear(f, g, c):
    rewrite = RewriteSystem(2, 1, 3)
    vf, _ = rewrite.reduce(f)
    vg, _ = rewrite.reduce(g)
    vsum, _ = rewrite.reduce(f + g.scale(c))
    assert ((vf + c * vg - vsum) % 8 == 0).all()


@given(f=small_polys)
@settings(max_examples=40, deadline=None)
def test_fragments_account_for_reduction(f):
    # f = sum of fragment * generator + span part, mod p^m
    module = module_for(2, 1, 3)
    vector, fragments = module.reduce_to_span(f)
    rebuilt = expand(module, fragments) + module.rewrite.vector_to_polynomial(vector).lift()
    assert (f - rebuilt).reduce_mod(2, 3).is_zero()


@given(f=small_polys)
@settings(max_examples=25, deadline=None)
def test_fragments_account_for_reduction_odd(f):
    module = module_for(3, 1, 2)
    vector, fragments = module.reduce_to_span(f)
    rebuilt = expand(module, fragments) + module.rewrite.vector_to_polynomial(vector).lift()
    assert (f - rebuilt).reduce_mod(3, 2).is_zero()


@pytest.mark.parametrize("a", range(0, 4))
@pytest.mark.parametrize("b", range(0, 4))
def test_confluence_monomial_multiples_vanish(a, b):
    # multiples of the two rewrite generators must reduce to zero exactly
    for p, e, m in [(2, 1, 2), (2, 2, 3), (3, 1, 2)]:
        rewrite = RewriteSystem(p, e, m)
        ideal = IdealSpec.build(p, e)
        mono = Polynomial.monomial(RATIONALS, a, b)
        for g in (ideal.generators[e], ideal.generators[e + 1]):
            vector, _ = rewrite.reduce(mono * g)
            assert not vector.any()


# ---- the closure and its basis ----


def test_basis_frozen_depth_one():
    assert module_for(2, 1, 2).basis.matrix.tolist() == [
        [0, 2, 0, 0],  # 2x
        [0, 0, 0, 2],  # 2xy
    ]
    assert module_for(2, 1, 3).basis.matrix.tolist() == [
        [0, 2, 0, 0],  # 2x
        [0, 0, 4, 0],  # 4y
        [0, 0, 0, 2],  # 2xy
    ]


def test_extra_precision_separates_cosets():
    module = module_for(2, 1, 3)
    assert not module.is_member(Y.scale(2)).member
    assert module.is_member(Y.scale(4)).member


def test_atom_bundles_expand_to_their_vectors():
    for p, e, m in [(2, 1, 3), (2, 2, 3)]:
        module = module_for(p, e, m)
        for atom in module.atoms:
            span_part = module.rewrite.vector_to_polynomial(span_vector(module, atom)).lift()
            difference = expand(module, atom.bundle) - span_part
            assert difference.reduce_mod(p, m).is_zero()


def test_basis_stable_under_atom_shuffling():
    module = module_for(2, 2, 3)
    vectors = [span_vector(module, atom) for atom in module.atoms]
    random.Random(7).shuffle(vectors)
    shuffled = howell_form(np.vstack(vectors), module.modulus)
    assert shuffled.same_span_as(module.basis)


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
    for row in module.basis.matrix:
        assert len(weights_of(module, row)) == 1
    whole = howell_form(
        np.vstack([span_vector(module, atom) for atom in module.atoms]), module.modulus
    )
    assert whole.same_span_as(module.basis)
    assert whole.pivot_columns == module.basis.pivot_columns
    assert whole.pivot_values == module.basis.pivot_values


@pytest.mark.parametrize("p,e", [(3, 3), (2, 5)])
def test_deep_cells_build_and_certify(p, e):
    module = build_membership_module(p, e, e + 1)
    result = module.verify_nilpotence()
    assert result.member
    assert verify_certificate(result.certificate)
    assert not module.verify_sharpness().member


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
    again, _ = module.basis.reduce(witness.vector)
    assert (again == witness.vector).all()


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
