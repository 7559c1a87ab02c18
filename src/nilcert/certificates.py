"""Membership certificates: data type, text format, independent checker.

A certificate asserts that a target polynomial lies in the ideal generated
by the standard family for (p, e) when working mod p^m, by exhibiting one
cofactor per generator.  verify_certificate re-expands the combination
with plain polynomial arithmetic, against generators it rebuilds from
their defining recursion (not from the operator layer the engine uses);
it deliberately shares nothing with the membership engine beyond the
polynomial layer, so a certificate check is evidence independent of the
machinery that produced it.

Certificate file grammar (one item per line, '#' starts a comment; each
header key once, numbers in plain ASCII digits):

    p = <prime>
    e = <depth, at least 1, with p^e at most MAX_DEGREE>
    m = <precision, from 1 to MAX_PRECISION>
    target = <polynomial text>
    cofactor <generator index> = <polynomial text>

The whole text is ASCII of at most MAX_CERTIFICATE_BYTES (256 KiB); longer
input is refused before any line is parsed.  Polynomial text is the
package's standard format in variables x, y, in which each monomial
appears at most once (Polynomial.parse refuses a repeat).  The generator
indices refer to the fixed family for (p, e): index n for 0 <= n <= e is
p^(e-n) times the n-th iterate polynomial read in (x, y), and index e+1
is y^(p^e).
Cofactor lines may appear in any order and absent indices mean zero
cofactors; an empty cofactor list asserts the target is 0 mod p^m.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .coefficients import is_prime
from .polynomials import RATIONALS, Polynomial
from .theta import ThetaContext

# A certificate file is outside input, so its text is bounded before it is
# parsed, and its header before any generator is built: p^e at most the
# default --degree-cap of the iterate checks, and m at most MAX_PRECISION,
# the precision build_membership_module refuses to exceed.  Its expansion
# is bounded too, by the term products it needs (about a second of work).
# For scale, the largest nilpotence certificate `verify` writes, at
# (2, 7, 64), is 3046 bytes and needs 4001 term products; (2, 9, 64),
# built from the library, 12921 and 62081.
MAX_DEGREE = 1024
MAX_PRECISION = 64
MAX_TERM_PRODUCTS = 10**6
MAX_CERTIFICATE_BYTES = 2**18


def standard_generators(p: int, e: int) -> tuple:
    """The e+2 ideal generators for (p, e), in x, y with integer coefficients."""
    if e < 1:
        raise ValueError("depth e must be at least 1")
    ctx = ThetaContext(p)
    # variables are positional, so the iterates in (s, t) are already in (x, y)
    members = [ctx.iterate_polynomial(n).scale(p ** (e - n)) for n in range(e + 1)]
    members.append(Polynomial.monomial(RATIONALS, 0, p**e))
    return tuple(members)


@functools.lru_cache(maxsize=32)
def _checker_generators(p: int, e: int) -> tuple:
    """The same family as standard_generators, for the checker alone:
    f_0 = x, f_n = f_(n-1)(x, y)^p - p * f_(n-1)(y, 0), then
    p^(e-n) * f_n for n <= e and y^(p^e).  Cached per (p, e)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("depth e must be at least 1")
    family = [Polynomial.monomial(RATIONALS, 1, 0)]
    for _ in range(e):
        previous = family[-1]
        collapsed = Polynomial(
            RATIONALS, {(0, i): c for (i, j), c in previous.terms.items() if j == 0}
        )
        family.append(previous**p - collapsed.scale(p))
    members = [f.scale(p ** (e - n)) for n, f in enumerate(family)]
    members.append(Polynomial.monomial(RATIONALS, 0, p**e))
    return tuple(members)


@dataclass(frozen=True)
class Certificate:
    """A membership witness: target = sum of cofactor * generator mod p^m.

    Cofactors are stored over the integers, lifted to representatives with
    coefficients in [0, p^m), keyed by generator index.
    """

    p: int
    e: int
    m: int
    target: Polynomial
    cofactors: tuple  # of (generator_index, Polynomial) pairs


def verify_certificate(certificate: Certificate) -> bool:
    """Expand the certificate and compare against the target mod p^m.

    Returns False on an honest mismatch; raises ValueError when the
    certificate is structurally malformed (bad index, wrong ring) or its
    expansion needs more than MAX_TERM_PRODUCTS term products.
    """
    p, e, m = certificate.p, certificate.e, certificate.m
    generators = _checker_generators(p, e)
    products = 0
    for index, cofactor in certificate.cofactors:
        if not 0 <= index < len(generators):
            raise ValueError(f"cofactor index {index} out of range")
        if cofactor.ring is not RATIONALS:
            raise ValueError("cofactors must have integer coefficients")
        products += len(cofactor.numerators) * len(generators[index].numerators)
    if products > MAX_TERM_PRODUCTS:
        raise ValueError(
            f"certificate expansion needs {products} term products, above {MAX_TERM_PRODUCTS}"
        )
    total = Polynomial.zero(RATIONALS)
    for index, cofactor in certificate.cofactors:
        total = total + cofactor * generators[index]
    return total.reduce_mod(p, m) == certificate.target.reduce_mod(p, m)


def certificate_to_text(certificate: Certificate) -> str:
    lines = [
        f"p = {certificate.p}",
        f"e = {certificate.e}",
        f"m = {certificate.m}",
        f"target = {certificate.target.to_text()}",
    ]
    for index, cofactor in sorted(certificate.cofactors):
        lines.append(f"cofactor {index} = {cofactor.to_text()}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> Certificate:
    """Parse the grammar above; raises ValueError on malformed input, on
    text that is not ASCII and, before parsing, on text longer than
    MAX_CERTIFICATE_BYTES."""
    if len(text) > MAX_CERTIFICATE_BYTES:
        raise ValueError(f"certificate text exceeds {MAX_CERTIFICATE_BYTES} bytes")
    header: dict = {}
    cofactors: list = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed certificate line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("cofactor"):
            index_text = key[len("cofactor") :].strip()
            if not re.fullmatch("[0-9]+", index_text):
                raise ValueError(f"malformed cofactor index in {raw!r}")
            cofactors.append((int(index_text), Polynomial.parse(value, RATIONALS)))
        elif key in ("p", "e", "m") and key not in header:
            if not re.fullmatch("[0-9]+", value):
                raise ValueError(f"certificate {key} must be plain digits in {raw!r}")
            header[key] = int(value)
        elif key == "target" and key not in header:
            header[key] = Polynomial.parse(value, RATIONALS)
        else:
            raise ValueError(f"unknown or repeated certificate key {key!r}")
    # the header, index and polynomial patterns read ASCII only; this
    # refuses the rest: comments, and the Unicode spaces strip() drops
    if not text.isascii():
        raise ValueError("certificate text is not ASCII")
    missing = {"p", "e", "m", "target"} - set(header)
    if missing:
        raise ValueError(f"certificate is missing {sorted(missing)}")
    p, e, m = header["p"], header["e"], header["m"]
    if e < 1 or m < 1:
        raise ValueError("certificate depth and precision must be at least 1")
    if m > MAX_PRECISION:
        raise ValueError(f"certificate precision {m} exceeds {MAX_PRECISION}")
    # p^e >= 2^e, so e is bounded before p**e is formed
    if p > MAX_DEGREE or e >= MAX_DEGREE.bit_length() or p**e > MAX_DEGREE:
        raise ValueError(f"certificate degree p^e exceeds {MAX_DEGREE}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    seen = [index for index, _ in cofactors]
    if len(seen) != len(set(seen)):
        raise ValueError("duplicate cofactor index")
    return Certificate(
        p=p,
        e=e,
        m=m,
        target=header["target"],
        cofactors=tuple(sorted(cofactors)),
    )


def write_certificate(certificate: Certificate, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(certificate_to_text(certificate))


def read_certificate(path) -> Certificate:
    # one byte past the bound is enough for the parser to refuse the file
    with open(path, "r", encoding="ascii") as handle:
        return certificate_from_text(handle.read(MAX_CERTIFICATE_BYTES + 1))
