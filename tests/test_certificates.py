"""Certificate objects, their text form, and independent verification."""

import time

import pytest

from nilcert.certificates import (
    MAX_CERTIFICATE_BYTES,
    MAX_DEGREE,
    MAX_PRECISION,
    MAX_TERM_PRODUCTS,
    Certificate,
    _checker_generators,
    certificate_from_text,
    certificate_to_text,
    read_certificate,
    standard_generators,
    verify_certificate,
    write_certificate,
)
from nilcert.cli import RunConfig
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


def test_oversized_expansion_refused_promptly():
    # a 10^5-term cofactor on the 513-term g_10 at p = 2 would need about
    # 5 * 10^7 term products; the checker refuses it before expanding
    cofactor = Polynomial(RATIONALS, {(i, j): 1 for i in range(400) for j in range(250)})
    certificate = Certificate(p=2, e=10, m=11, target=X, cofactors=((10, cofactor),))
    started = time.perf_counter()
    with pytest.raises(ValueError, match="51300000 term products"):
        verify_certificate(certificate)
    assert time.perf_counter() - started < 1.0


def test_engine_certificates_far_below_expansion_bound():
    from nilcert.quotient import build_membership_module

    certificate = build_membership_module(2, 5, 6).verify_nilpotence().certificate
    generators = _checker_generators(2, 5)
    products = sum(len(c.terms) * len(generators[i].terms) for i, c in certificate.cofactors)
    assert products == 189
    assert products * 1000 < MAX_TERM_PRODUCTS
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


@pytest.mark.parametrize("line", ["target = 1/0*x", "target = x\ncofactor 0 = y+"])
def test_malformed_polynomial_text_rejected(line):
    with pytest.raises(ValueError):
        certificate_from_text(f"p = 2\ne = 1\nm = 2\n{line}\n")


@pytest.mark.parametrize(
    "text",
    [
        "p = 2\ne = 1\nm = 2\np = 3\ntarget = x\n",
        "p = 2\ne = 1\ne = 1\nm = 2\ntarget = x\n",
        "p = 2\ne = 1\nm = 2\nm = 3\ntarget = x\n",
        "p = 2\ne = 1\nm = 2\ntarget = x^3\ntarget = 0\ncofactor 0 = y\n",
    ],
    ids=["p", "e", "m", "target"],
)
def test_repeated_header_rejected(text):
    # a second line used to replace the first without a word
    with pytest.raises(ValueError, match="repeated"):
        certificate_from_text(text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("m", "2_0"),
        ("m", "+2"),
        ("e", "-1"),
        ("p", "\uff12"),  # fullwidth 2
        ("p", "\u0662"),  # Arabic-Indic 2
        ("m", "2.0"),
        ("m", ""),
        ("e", "1 1"),
    ],
)
def test_header_values_must_be_plain_digits(key, value):
    fields = {"p": "2", "e": "1", "m": "2", key: value}
    text = "".join(f"{name} = {fields[name]}\n" for name in "pem") + "target = x\n"
    with pytest.raises(ValueError, match="plain digits"):
        certificate_from_text(text)


def test_cofactor_index_must_be_plain_digits():
    with pytest.raises(ValueError, match="malformed cofactor index"):
        certificate_from_text("p = 2\ne = 1\nm = 2\ntarget = x\ncofactor \u0660 = x\n")


def test_missing_header_rejected():
    with pytest.raises(ValueError):
        certificate_from_text("p = 2\ne = 1\ntarget = x\n")


def test_composite_p_rejected():
    with pytest.raises(ValueError):
        certificate_from_text("p = 4\ne = 1\nm = 2\ntarget = x\n")



@pytest.mark.parametrize(
    "header, message",
    [
        ("p = 2\ne = 30\nm = 31", "degree"),
        ("p = 2\ne = 11\nm = 12", "degree"),
        ("p = 1031\ne = 1\nm = 2", "degree"),
        (f"p = {10**40 + 1}\ne = 1\nm = 2", "degree"),
        ("p = 2\ne = 1\nm = 1000000000", "precision"),
        (f"p = 2\ne = 1\nm = {MAX_PRECISION + 1}", "precision"),
    ],
)
def test_oversized_header_rejected_promptly(header, message):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        certificate_from_text(header + "\ntarget = x\ncofactor 0 = y\n")
    assert time.perf_counter() - started < 1.0


def test_largest_admitted_header_parses():
    # the cap is the default degree cap of the iterate checks, 2^10
    assert MAX_DEGREE == RunConfig.degree_cap == 2**10
    text = f"p = 2\ne = 10\nm = {MAX_PRECISION}\ntarget = x\n"
    certificate = certificate_from_text(text)
    assert (certificate.e, certificate.m) == (10, MAX_PRECISION)


def padded_certificate_text(size):
    """Certificate text of exactly size bytes: a cofactor of size // 16
    terms on g_0, then a comment line filling up the rest."""
    cofactor = " + ".join(f"x^{i}" for i in range(size // 16))
    text = f"p = 2\ne = 1\nm = 2\ntarget = x\ncofactor 0 = {cofactor}\n#"
    return text + "#" * (size - len(text))


def test_certificate_text_bounded_before_parsing(tmp_path):
    at_bound = padded_certificate_text(MAX_CERTIFICATE_BYTES)
    assert len(at_bound) == MAX_CERTIFICATE_BYTES
    ((index, cofactor),) = certificate_from_text(at_bound).cofactors
    assert (index, len(cofactor.terms)) == (0, MAX_CERTIFICATE_BYTES // 16)
    over = padded_certificate_text(MAX_CERTIFICATE_BYTES + 1)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds {MAX_CERTIFICATE_BYTES} bytes"):
        certificate_from_text(over)
    assert time.perf_counter() - started < 0.05
    # the reader stops one byte past the bound, however long the file is
    path = tmp_path / "oversized.cert"
    path.write_text(over * 8, encoding="ascii")
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds {MAX_CERTIFICATE_BYTES} bytes"):
        read_certificate(path)
    assert time.perf_counter() - started < 0.05
    path.write_text(at_bound, encoding="ascii")
    assert read_certificate(path) == certificate_from_text(at_bound)


def test_file_round_trip(tmp_path):
    path = tmp_path / "nilpotence.cert"
    write_certificate(hand_certificate(), path)
    assert read_certificate(path) == hand_certificate()
    assert verify_certificate(read_certificate(path))
