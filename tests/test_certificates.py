"""Certificate objects, their text form, and independent verification."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from nilcert import certificates, polynomials
from nilcert.cli import RunConfig
from nilcert.coefficients import rational
from nilcert.polynomials import RATIONALS, Polynomial
from nilcert.quotient import RewriteSystem, build_membership_module

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
    expected = tuple(g.numerators for g in standard_generators(p, e))
    assert _checker_generators(p, e) == expected


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
    products = sum(len(c.terms) * len(generators[i]) for i, c in certificate.cofactors)
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


@pytest.mark.parametrize("p", [2, 3])
def test_cofactor_over_p_refused(p):
    # cofactor 1/p on g_0 = p*x expands to x over the rationals, but 1/p
    # has no value mod p^m, and x is not a member
    text = f"p = {p}\ne = 1\nm = 2\ntarget = x\ncofactor 0 = 1/{p}\n"
    certificate = certificate_from_text(text)
    with pytest.raises(ValueError, match="cofactor 0 is not p-integral"):
        verify_certificate(certificate)


def test_cofactor_over_a_unit_judged_on_its_residue():
    # x^3 = y * g_0 + x * g_1 at (2, 1); 7/3 is 1 mod 4 and 5/3 is 3 mod 4
    def certificate(c):
        return Certificate(p=2, e=1, m=2, target=X**3, cofactors=((0, Y), (1, X.scale(c))))

    assert verify_certificate(certificate(rational(7, 3)))
    assert not verify_certificate(certificate(rational(5, 3)))


@pytest.mark.parametrize("m", [0, -1])
def test_precision_below_one_refused(m):
    # everything vanishes mod p^0 = 1, so an unguarded m = 0 would prove x
    with pytest.raises(ValueError, match="precision must be at least 1"):
        verify_certificate(Certificate(p=2, e=1, m=m, target=X, cofactors=()))


@pytest.mark.parametrize(
    "target",
    [(X**3).reduce_mod(3, 2), (X**3 + X.scale(4)).reduce_mod(2, 3)],
    ids=["over-Z/9", "over-Z/8"],
)
def test_target_over_a_residue_ring_refused(target):
    certificate = Certificate(p=2, e=1, m=2, target=target, cofactors=((0, Y), (1, X)))
    with pytest.raises(ValueError, match="target must have integer coefficients"):
        verify_certificate(certificate)


def test_target_over_p_refused():
    certificate = Certificate(p=2, e=1, m=2, target=X.scale(rational(1, 2)), cofactors=())
    with pytest.raises(ValueError, match="not invertible"):
        verify_certificate(certificate)


def test_target_over_a_unit_judged_on_its_residue():
    # 1/3 is 3 mod 4, so x/3 is 3x, not 0; 4x/3 is 0 mod 4
    assert not verify_certificate(
        Certificate(p=2, e=1, m=2, target=X.scale(rational(1, 3)), cofactors=())
    )
    assert verify_certificate(
        Certificate(p=2, e=1, m=2, target=X.scale(rational(4, 3)), cofactors=())
    )


@pytest.mark.parametrize("kernel", ["_int_product", "_schoolbook"])
def test_checker_family_shares_no_product_kernel(monkeypatch, kernel):
    # a fault in either engine product kernel corrupts the engine's family
    # or trips its spot check, while the checker's, built by its own
    # product loop, stays as it was
    cells = [(2, 10), (3, 6)]
    clean = {cell: _checker_generators(*cell) for cell in cells}
    product = getattr(polynomials, kernel)

    def perturbed(*args):
        out = product(*args)
        if out:
            key = min(out)
            out[key] += 2 if out[key] == -1 else 1
        return out

    monkeypatch.setattr(polynomials, kernel, perturbed)
    # and under the same name in the checker's module, should it import one
    monkeypatch.setattr(certificates, kernel, perturbed, raising=False)
    try:
        for cache in (_checker_generators, certificates._checker_residues):
            cache.cache_clear()
        for cell in cells:
            assert _checker_generators(*cell) == clean[cell]
        try:
            engine = tuple(g.numerators for g in standard_generators(2, 10))
        except AssertionError:  # the engine's own spot check saw the fault
            engine = None
        assert engine != clean[(2, 10)]
    finally:
        for cache in (_checker_generators, certificates._checker_residues):
            cache.cache_clear()


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


CELL_ENTRY_POINTS = {
    "checker": lambda p, e, m: verify_certificate(
        Certificate(p=p, e=e, m=m, target=X, cofactors=())
    ),
    "parser": lambda p, e, m: certificate_from_text(f"p = {p}\ne = {e}\nm = {m}\ntarget = x\n"),
    "rewrite": RewriteSystem,
    "module": build_membership_module,
}


@pytest.mark.parametrize("entry", list(CELL_ENTRY_POINTS))
@pytest.mark.parametrize(
    "p, e, m, message",
    [
        (2, 11, 12, f"degree p^e exceeds {MAX_DEGREE}"),
        (1031, 1, 2, f"degree p^e exceeds {MAX_DEGREE}"),
        (2, 1, MAX_PRECISION + 1, f"precision {MAX_PRECISION + 1} exceeds {MAX_PRECISION}"),
        (2, 0, 2, "depth e must be at least 1"),
        (2, 1, 0, "precision must be at least 1"),
        (4, 1, 2, "4 is not prime"),
        # trial division of p, or forming p^m, would not end here
        (10**40 + 1, 1, 2, f"degree p^e exceeds {MAX_DEGREE}"),
        (2, 1, 10**9, f"precision {10**9} exceeds {MAX_PRECISION}"),
    ],
    ids=["2-11-12", "1031-1-2", "2-1-65", "2-0-2", "2-1-0", "4-1-2", "1e40+1-1-2", "2-1-1e9"],
)
def test_every_entry_point_refuses_a_bad_cell_alike(entry, p, e, m, message):
    # the checker, the parser, the rewrite system and the module builder
    # admit cells by one check, so each refuses with its text, promptly
    started = time.perf_counter()
    with pytest.raises(ValueError) as refusal:
        CELL_ENTRY_POINTS[entry](p, e, m)
    assert time.perf_counter() - started < 1.0
    assert str(refusal.value) == message


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


# ---- fuzzing the certificate grammar ----


@st.composite
def _polynomial_texts(draw):
    """Mostly well-formed polynomial text in x, y, with fractions whose
    denominators may or may not be prime to p, and now and then a stray
    character."""
    chunks = []
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
    for i, j in draw(st.lists(exponents, max_size=4, unique=True)):
        factors = []
        if draw(st.booleans()):
            numerator = draw(st.integers(0, 40))
            denominator = draw(st.sampled_from([1, 1, 2, 3, 4, 5, 7]))
            factors.append(f"{numerator}/{denominator}" if denominator != 1 else str(numerator))
        factors += [name if k == 1 else f"{name}^{k}" for name, k in (("x", i), ("y", j)) if k]
        sign = draw(st.sampled_from(["+ ", "- "])) if chunks else draw(st.sampled_from(["", "-"]))
        chunks.append(sign + ("*".join(factors) or "1"))
    text = " ".join(chunks) or "0"
    if draw(st.integers(0, 29)) == 0:
        position = draw(st.integers(0, len(text)))
        text = text[:position] + draw(st.sampled_from("+-*/^xyz0")) + text[position:]
    return text


@st.composite
def _certificate_texts(draw):
    """Certificate text close to the grammar: headers that are usually
    valid, fraction cofactors, and now and then a line dropped, repeated
    or replaced by noise."""
    p = draw(st.sampled_from([2, 2, 3, 3, 5, 4]))
    e = draw(st.sampled_from([1, 1, 1, 2, 2, 0]))
    m = draw(st.sampled_from([1, 2, 2, 3, 3, 65]))
    lines = [f"p = {p}", f"e = {e}", f"m = {m}", f"target = {draw(_polynomial_texts())}"]
    for index in draw(st.lists(st.integers(0, 4), max_size=4, unique=True)):
        lines.append(f"cofactor {index} = {draw(_polynomial_texts())}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        position = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "repeat", "noise"]))
        if action == "drop" and position < len(lines):
            del lines[position]
        elif action == "repeat" and position < len(lines):
            lines.insert(position, lines[position])
        elif action == "noise":
            lines.insert(position, draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(_certificate_texts(), st.text(max_size=200)))
def test_certificate_grammar_fuzz(text):
    # outside input may be refused with ValueError, and with nothing else;
    # the fraction cofactors reach Polynomial.parse and reduce_mod
    try:
        certificate = certificate_from_text(text)
    except ValueError:
        return
    assert isinstance(certificate, Certificate)
    assert certificate_from_text(certificate_to_text(certificate)) == certificate
    try:
        verdict = verify_certificate(certificate)
    except ValueError:
        return
    assert isinstance(verdict, bool)


@pytest.mark.parametrize(
    "text, message",
    [
        # Arabic-Indic 3 and 2, and a fullwidth 3, once read as digits
        ("p = 2\ne = 1\nm = 2\ntarget = x^\u0663\ncofactor 0 = x^\u0662\n", "cannot parse"),
        ("p = 2\ne = 1\nm = 2\ntarget = \uff13*x\n", "cannot parse"),
        ("p = 2\ne = 1\nm = 2\ntarget = x  # caf\u00e9\n", "not ASCII"),
        ("p = 2\ne = 1\nm\u00a0= 2\ntarget = x\n", "not ASCII"),
    ],
)
def test_non_ascii_certificate_text_refused(text, message):
    with pytest.raises(ValueError, match=message):
        certificate_from_text(text)
