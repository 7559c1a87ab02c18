"""Membership certificates: data type, text format, independent checker.

A certificate asserts that a target polynomial lies in the ideal generated
by the standard family for (p, e) when working mod p^m, by exhibiting one
cofactor per generator.  verify_certificate re-expands the combination
term by term in Z/p^m, against generators it rebuilds from their defining
recursion as {(i, j): int} dicts, with its own product loop, not the
engine's operator layer or product kernels; it shares nothing with the
membership engine beyond the polynomial layer, so a certificate check is
evidence independent of the machinery that produced it.  Both map values
into Z/p^m by polynomials.residues alone, and admit a cell (p, e, m) by
check_cell alone.  A cofactor must be p-integral mod p^m.

Certificate file grammar (one item per line, '#' starts a comment; each
header key once, numbers in plain ASCII digits):

    p = <prime>
    e = <depth, at least 1, with p^e at most MAX_DEGREE>
    m = <precision, from 1 to MAX_PRECISION>
    target = <polynomial text>
    cofactor <generator index> = <polynomial text>

The whole text is ASCII of at most MAX_CERTIFICATE_BYTES (256 KiB); longer
input is refused before any line is parsed.  A number longer than the
interpreter's integer string limit (4300 digits by default) raises
ValueError too; the engine writes none past p^m <= 1024^64, 193 digits.
Polynomial text is the package's standard format in variables x, y, in
which each monomial appears at most once (Polynomial.parse refuses a
repeat).  The generator indices refer to the fixed family for (p, e):
index n for 0 <= n <= e is p^(e-n) times the n-th iterate polynomial
read in (x, y), and index e+1 is y^(p^e).
Cofactor lines may appear in any order and absent indices mean zero
cofactors; an empty cofactor list asserts the target is 0 mod p^m.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .coefficients import is_prime
from .polynomials import RATIONALS, Polynomial, residues
from .theta import ThetaContext

# A certificate file is outside input, so its text is bounded before it is
# parsed, and its header before any generator is built: p^e at most the
# default --degree-cap of the iterate checks, and m at most MAX_PRECISION,
# by check_cell, which admits the engine's cells too.  Its expansion
# is bounded too, by the term products it needs (about a second of work).
# For scale, the largest nilpotence certificate `verify` writes, at
# (2, 7, 64), is 3046 bytes and needs 4001 term products; (2, 9, 64),
# built from the library, 12921 and 62081.
MAX_DEGREE = 1024
MAX_PRECISION = 64
MAX_TERM_PRODUCTS = 10**6
MAX_CERTIFICATE_BYTES = 2**18


def check_cell(p: int, e: int, m: int) -> None:
    """Raise ValueError unless the cell (p, e, m) is admitted: p^e at most
    MAX_DEGREE, m at most MAX_PRECISION, e and m at least 1, p prime.
    The bounds come first, so neither p**e nor the trial division in
    is_prime runs on an absurd cell."""
    # p^e >= 2^e, so e is bounded before p**e is formed, for e >= 1 only
    if p > MAX_DEGREE or e >= MAX_DEGREE.bit_length() or (e > 0 and p**e > MAX_DEGREE):
        raise ValueError(f"degree p^e exceeds {MAX_DEGREE}")
    if m > MAX_PRECISION:
        raise ValueError(f"precision {m} exceeds {MAX_PRECISION}")
    if e < 1:
        raise ValueError("depth e must be at least 1")
    if m < 1:
        raise ValueError("precision must be at least 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def standard_generators(p: int, e: int) -> tuple:
    """The e+2 ideal generators for (p, e), in x, y with integer coefficients."""
    if e < 1:
        raise ValueError("depth e must be at least 1")
    ctx = ThetaContext(p)
    # variables are positional, so the iterates in (s, t) are already in (x, y)
    members = [ctx.iterate_polynomial(n).scale(p ** (e - n)) for n in range(e + 1)]
    members.append(Polynomial.monomial(RATIONALS, 0, p**e))
    return tuple(members)


def _product_into(total: dict, a: dict, b: dict) -> dict:
    """Add a * b into the {(i, j): c} dict total, term by term; return it."""
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            total[key] = total.get(key, 0) + c1 * c2
    return total


@functools.lru_cache(maxsize=32)
def _checker_generators(p: int, e: int) -> tuple:
    """The same family as standard_generators, for the checker alone, as
    zero-free {(i, j): int} dicts, the numerators of those polynomials:
    f_0 = x, f_n = f_(n-1)(x, y)^p - p * f_(n-1)(y, 0), then
    p^(e-n) * f_n for n <= e and y^(p^e); each p-th power is p - 1
    _product_into products, never a polynomials kernel.  Cached per (p, e),
    which the caller has admitted by check_cell; callers only read it."""
    family = [{(1, 0): 1}]
    for _ in range(e):
        previous = power = family[-1]
        for _ in range(p - 1):
            power = _product_into({}, power, previous)
        for (i, j), c in previous.items():
            if j == 0:
                power[(0, i)] = power.get((0, i), 0) - p * c
        family.append({k: c for k, c in power.items() if c})
    members = [{k: c * p ** (e - n) for k, c in f.items()} for n, f in enumerate(family)]
    return (*members, {(0, p**e): 1})


@functools.lru_cache(maxsize=32)
def _checker_residues(p: int, e: int, m: int) -> tuple:
    """_checker_generators(p, e) mod p^m as residue dicts, per (p, e, m)."""
    return tuple(residues(g, 1, p**m) for g in _checker_generators(p, e))


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
    """Expand the certificate on the residue dicts of its cofactors mod
    p^m and compare it with the target's: False on an honest mismatch.
    Raises ValueError when it is malformed (a cell check_cell refuses, bad
    index, a target or cofactor not over RATIONALS, a denominator divisible
    by p) or its expansion needs over MAX_TERM_PRODUCTS term products,
    counted on the integer generators."""
    p, e, m, target = certificate.p, certificate.e, certificate.m, certificate.target
    check_cell(p, e, m)
    generators = _checker_generators(p, e)
    if target.ring is not RATIONALS:
        raise ValueError("target must have integer coefficients")
    products = 0
    for index, cofactor in certificate.cofactors:
        if not 0 <= index < len(generators):
            raise ValueError(f"cofactor index {index} out of range")
        if cofactor.ring is not RATIONALS:
            raise ValueError("cofactors must have integer coefficients")
        if cofactor.denominator % p == 0:
            raise ValueError(f"cofactor {index} is not p-integral")
        products += len(cofactor.numerators) * len(generators[index])
    if products > MAX_TERM_PRODUCTS:
        raise ValueError(
            f"certificate expansion needs {products} term products, above {MAX_TERM_PRODUCTS}"
        )
    n, family, total = p**m, _checker_residues(p, e, m), {}
    for index, cofactor in certificate.cofactors:
        reduced = residues(cofactor.numerators, cofactor.denominator, n)
        _product_into(total, reduced, family[index])
    return residues(total, 1, n) == residues(target.numerators, target.denominator, n)


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
    text that is not ASCII, on a header check_cell refuses and, before
    parsing, on text longer than MAX_CERTIFICATE_BYTES."""
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
    check_cell(p, e, m)
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
