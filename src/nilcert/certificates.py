"""Membership certificates: data type, text format, independent checker.

A certificate asserts that a target polynomial lies in the ideal generated
by the standard family for (p, e) when working mod p^m, by exhibiting one
cofactor per generator.  verify_certificate re-expands the combination
with plain polynomial arithmetic, against generators it rebuilds from
their defining recursion (not from the operator layer the engine uses);
it deliberately shares nothing with the membership engine beyond the
polynomial layer, so a certificate check is evidence independent of the
machinery that produced it.

Certificate file grammar (one item per line, '#' starts a comment):

    p = <prime>
    e = <depth, at least 1>
    m = <precision, at least 1>
    target = <polynomial text>
    cofactor <generator index> = <polynomial text>

Polynomial text is the package's standard format in variables x, y.  The
generator indices refer to the fixed family for (p, e): index n for
0 <= n <= e is p^(e-n) times the n-th iterate polynomial read in (x, y),
and index e+1 is y^(p^e).  Cofactor lines may appear in any order and
absent indices mean zero cofactors; an empty cofactor list asserts the
target is 0 mod p^m.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .coefficients import is_prime
from .polynomials import RATIONALS, Polynomial
from .theta import ThetaContext


def standard_generators(p: int, e: int) -> tuple:
    """The e+2 ideal generators for (p, e), in x, y with integer coefficients."""
    if e < 1:
        raise ValueError("depth e must be at least 1")
    ctx = ThetaContext(p)
    x, y = Polynomial.generators(RATIONALS)
    members = [
        ctx.iterate_polynomial(n).substitute(x, y).scale(p ** (e - n))
        for n in range(e + 1)
    ]
    members.append(y ** p**e)
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

    def cofactor_map(self) -> dict:
        return dict(self.cofactors)


def verify_certificate(certificate: Certificate) -> bool:
    """Expand the certificate and compare against the target mod p^m.

    Returns False on an honest mismatch; raises ValueError when the
    certificate is structurally malformed (bad index, wrong ring).
    """
    p, e, m = certificate.p, certificate.e, certificate.m
    generators = _checker_generators(p, e)
    total = Polynomial.zero(RATIONALS)
    for index, cofactor in certificate.cofactors:
        if not 0 <= index < len(generators):
            raise ValueError(f"cofactor index {index} out of range")
        if cofactor.ring is not RATIONALS:
            raise ValueError("cofactors must have integer coefficients")
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
    """Parse the grammar above; raises ValueError on malformed input."""
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
            if not index_text.isdigit():
                raise ValueError(f"malformed cofactor index in {raw!r}")
            cofactors.append((int(index_text), Polynomial.parse(value, RATIONALS)))
        elif key in ("p", "e", "m"):
            header[key] = int(value)
        elif key == "target":
            header["target"] = Polynomial.parse(value, RATIONALS)
        else:
            raise ValueError(f"unknown certificate key {key!r}")
    missing = {"p", "e", "m", "target"} - set(header)
    if missing:
        raise ValueError(f"certificate is missing {sorted(missing)}")
    if not is_prime(header["p"]):
        raise ValueError(f"{header['p']} is not prime")
    if header["e"] < 1 or header["m"] < 1:
        raise ValueError("certificate depth and precision must be at least 1")
    seen = [index for index, _ in cofactors]
    if len(seen) != len(set(seen)):
        raise ValueError("duplicate cofactor index")
    return Certificate(
        p=header["p"],
        e=header["e"],
        m=header["m"],
        target=header["target"],
        cofactors=tuple(sorted(cofactors)),
    )


def write_certificate(certificate: Certificate, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(certificate_to_text(certificate))


def read_certificate(path) -> Certificate:
    with open(path, "r", encoding="ascii") as handle:
        return certificate_from_text(handle.read())
