"""Certificate objects, their text form, and independent verification."""

import pytest

from nilcert.certificates import (
    Certificate,
    _checker_generators,
    certificate_from_text,
    certificate_to_text,
    read_certificate,
    standard_generators,
    verify_certificate,
    write_certificate,
)
from nilcert.polynomials import RATIONALS, Polynomial

X, Y = Polynomial.generators(RATIONALS)
ACCEPTANCE_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]


def hand_certificate():
    # x^3 = x * (x^2 - 2y) + y * (2x), an exact identity over the integers
    return Certificate(p=2, e=1, m=2, target=X**3, cofactors=((0, Y), (1, X)))


def test_standard_generators_small():
    g = standard_generators(2, 1)
    assert g == (X.scale(2), X**2 - Y.scale(2), Y**2)


def test_standard_generators_depth_two():
    g = standard_generators(2, 2)
    assert g[0] == X.scale(4)
    assert g[1] == (X**2 - Y.scale(2)).scale(2)
    assert g[2] == X**4 - (X**2 * Y).scale(4) + (Y**2).scale(2)
    assert g[3] == Y**4


@pytest.mark.parametrize("p,e", ACCEPTANCE_GRID)
def test_checker_generators_match_standard_family(p, e):
    assert _checker_generators(p, e) == standard_generators(p, e)


def test_checker_generators_reject_bad_parameters():
    with pytest.raises(ValueError):
        verify_certificate(Certificate(p=4, e=1, m=2, target=X, cofactors=()))
    with pytest.raises(ValueError):
        verify_certificate(Certificate(p=2, e=0, m=2, target=X, cofactors=()))


def test_perturbed_grid_certificate_fails():
    from nilcert.quotient import build_membership_module

    certificate = build_membership_module(3, 2, 3).verify_nilpotence().certificate
    assert verify_certificate(certificate)
    (index, cofactor), *rest = certificate.cofactors
    bad = Certificate(
        p=3, e=2, m=3, target=certificate.target,
        cofactors=((index, cofactor + Polynomial.monomial(RATIONALS, 0, 1)), *rest),
    )
    assert not verify_certificate(bad)
    # the cached family is not altered by checking
    assert verify_certificate(certificate)


def test_hand_certificate_verifies():
    assert verify_certificate(hand_certificate())


def test_exact_identity_behind_hand_certificate():
    g = standard_generators(2, 1)
    assert X * g[1] + Y * g[0] == X**3


def test_perturbed_cofactor_fails():
    bad = Certificate(p=2, e=1, m=2, target=X**3, cofactors=((0, Y), (1, X + Y)))
    assert not verify_certificate(bad)


def test_congruence_not_equality():
    # cofactors only need to match the target mod p^m
    shifted = Certificate(
        p=2, e=1, m=2, target=X**3 + X.scale(4), cofactors=((0, Y), (1, X))
    )
    assert verify_certificate(shifted)


def test_empty_cofactors_assert_vanishing_target():
    assert verify_certificate(Certificate(p=2, e=1, m=2, target=X.scale(4), cofactors=()))
    assert not verify_certificate(Certificate(p=2, e=1, m=2, target=X, cofactors=()))


def test_bad_generator_index_rejected():
    with pytest.raises(ValueError):
        verify_certificate(
            Certificate(p=2, e=1, m=2, target=X**3, cofactors=((5, X),))
        )


def test_text_round_trip():
    cert = hand_certificate()
    text = certificate_to_text(cert)
    back = certificate_from_text(text)
    assert back == cert
    assert verify_certificate(back)


def test_text_layout_frozen():
    assert certificate_to_text(hand_certificate()) == (
        "p = 2\ne = 1\nm = 2\ntarget = x^3\ncofactor 0 = y\ncofactor 1 = x\n"
    )


def test_comments_and_blank_lines_tolerated():
    text = (
        "# produced by hand\n\np = 2\ne = 1\nm = 2\n"
        "target = x^3\n# the interesting part\ncofactor 0 = y\ncofactor 1 = x\n"
    )
    assert certificate_from_text(text) == hand_certificate()


def test_duplicate_cofactor_rejected():
    text = "p = 2\ne = 1\nm = 2\ntarget = x\ncofactor 0 = y\ncofactor 0 = x\n"
    with pytest.raises(ValueError):
        certificate_from_text(text)


def test_missing_header_rejected():
    with pytest.raises(ValueError):
        certificate_from_text("p = 2\ne = 1\ntarget = x\n")


def test_composite_p_rejected():
    with pytest.raises(ValueError):
        certificate_from_text("p = 4\ne = 1\nm = 2\ntarget = x\n")


def test_file_round_trip(tmp_path):
    path = tmp_path / "nilpotence.cert"
    write_certificate(hand_certificate(), path)
    assert read_certificate(path) == hand_certificate()
    assert verify_certificate(read_certificate(path))
