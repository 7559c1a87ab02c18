"""Reference checker for nilcert outputs, in plain Python integers.

It imports nothing from nilcert, so a pass here is evidence that does not
rest on the engine or on the package's own certificate checker.

Polynomials are dicts {(i, j): coefficient} in two variables.  Three checks:

- certificate_problem: rebuild the ideal generators from the recursion
  f_0 = s, f_n = f_{n-1}(s, t)^p - p * f_{n-1}(t, 0), read in (x, y), and
  re-expand sum(cofactor_n * g_n) against the target mod p^m, where
  g_n = p^(e-n) * f_n for n <= e and g_(e+1) = y^(p^e);
- iterate_at: f_n(a, b) by the point recursion a <- a^p - p*b, b <- b^p;
- theta_at: theta(f)(a, b) = (f(a, b)^p - f(a^p - p*b, b^p)) / p, exactly.

Run as a script, it performs its self-test: the checks must accept a
known-good certificate and iterate value and reject corrupted ones.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction


def poly_mul(a: dict, b: dict, modulus: int | None = None) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return _clean(out, modulus)


def _clean(terms: dict, modulus: int | None = None) -> dict:
    if modulus is not None:
        terms = {key: c % modulus for key, c in terms.items()}
    return {key: c for key, c in terms.items() if c}


def poly_pow(a: dict, exponent: int) -> dict:
    result = {(0, 0): 1}
    for _ in range(exponent):
        result = poly_mul(result, a)
    return result


def iterate_polynomials(p: int, top: int) -> list:
    """[f_0, ..., f_top] from the defining recursion, variables (s, t)."""
    family = [{(1, 0): 1}]
    for _ in range(top):
        previous = family[-1]
        collapsed = {(0, i): c for (i, j), c in previous.items() if j == 0}
        current = poly_pow(previous, p)
        for key, c in collapsed.items():
            current[key] = current.get(key, 0) - p * c
        family.append(_clean(current))
    return family


def generators(p: int, e: int) -> list:
    family = iterate_polynomials(p, e)
    members = [
        {key: c * p ** (e - n) for key, c in family[n].items()} for n in range(e + 1)
    ]
    members.append({(0, p**e): 1})
    return members


_TERM = re.compile(r"[+-]?[^+-]+")
_COEFF = re.compile(r"(\d+)(?:/(\d+))?")
_POWER = re.compile(r"([xy])(?:\^(\d+))?")


def parse_polynomial(text: str) -> dict:
    """The package's text format ("x^4 - 4*x^2*y + 1/3*y"), to Fraction terms."""
    compact = text.replace(" ", "")
    if compact == "0":
        return {}
    terms: dict = {}
    for chunk in _TERM.findall(compact):
        sign = -1 if chunk[0] == "-" else 1
        chunk = chunk.lstrip("+-")
        coefficient = Fraction(sign)
        exponents = [0, 0]
        for factor in chunk.split("*"):
            number = _COEFF.fullmatch(factor)
            power = _POWER.fullmatch(factor)
            if number:
                coefficient *= Fraction(int(number.group(1)), int(number.group(2) or 1))
            elif power:
                exponents["xy".index(power.group(1))] += int(power.group(2) or 1)
            else:
                raise ValueError(f"cannot parse {factor!r} in {text!r}")
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + coefficient
    return {key: c for key, c in terms.items() if c}


def _mod(terms: dict, p: int, modulus: int) -> dict:
    out = {}
    for key, c in terms.items():
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError("coefficient is not p-integral")
        value = c.numerator * pow(c.denominator, -1, modulus) % modulus
        if value:
            out[key] = value
    return out


def parse_certificate(text: str):
    """(p, e, m, target, {index: cofactor}) from certificate file text."""
    header: dict = {}
    cofactors: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("cofactor"):
            index = int(key[len("cofactor") :])
            if index in cofactors:
                raise ValueError("duplicate cofactor index")
            cofactors[index] = parse_polynomial(value)
        elif key in ("p", "e", "m"):
            header[key] = int(value)
        elif key == "target":
            header["target"] = parse_polynomial(value)
        else:
            raise ValueError(f"unknown certificate key {key!r}")
    return header["p"], header["e"], header["m"], header["target"], cofactors


def certificate_problem(text: str, expected_target: dict | None = None) -> str | None:
    """None when the certificate re-expands to its target mod p^m (and the
    target equals expected_target, when given); else what is wrong."""
    try:
        p, e, m, target, cofactors = parse_certificate(text)
    except (ValueError, KeyError, IndexError) as error:
        return f"unparsable certificate: {error!r}"
    if expected_target is not None and target != expected_target:
        return "target differs from the expected one"
    modulus = p**m
    family = generators(p, e)
    total: dict = {}
    for index, cofactor in cofactors.items():
        if not 0 <= index < len(family):
            return f"cofactor index {index} out of range"
        for key, c in poly_mul(_mod(cofactor, p, modulus), family[index], modulus).items():
            total[key] = total.get(key, 0) + c
    for key, c in _mod(target, p, modulus).items():
        total[key] = total.get(key, 0) - c
    if _clean(total, modulus):
        return "cofactor expansion differs from the target"
    return None


def evaluate(terms: dict, a, b):
    return sum(c * a**i * b**j for (i, j), c in terms.items())


def iterate_at(p: int, n: int, a: int, b: int) -> int:
    for _ in range(n):
        a, b = a**p - p * b, b**p
    return a


def theta_at(terms: dict, p: int, a: int, b: int) -> Fraction:
    value = Fraction(evaluate(terms, a, b))
    return (value**p - Fraction(evaluate(terms, a**p - p * b, b**p))) / p


def self_test() -> list:
    """Problems found; empty when the checker accepts good inputs and
    rejects each corrupted one."""
    problems = []
    good = "p = 2\ne = 1\nm = 2\ntarget = x^3\ncofactor 0 = y\ncofactor 1 = x\n"
    if certificate_problem(good, {(3, 0): 1}) is not None:
        problems.append("rejected a valid certificate")
    for corrupted in (
        good.replace("cofactor 1 = x", "cofactor 1 = x + 1"),
        good.replace("target = x^3", "target = x^2"),
        good.replace("m = 2", "m = 3").replace("cofactor 0 = y", "cofactor 0 = 3*y"),
    ):
        if certificate_problem(corrupted) is None:
            problems.append(f"accepted a corrupted certificate: {corrupted!r}")
    f2 = iterate_polynomials(3, 2)[2]
    if evaluate(f2, 5, -7) != iterate_at(3, 2, 5, -7):
        problems.append("point recursion disagrees with the iterate polynomial")
    wrong = dict(f2)
    wrong[(0, 3)] = wrong.get((0, 3), 0) + 1
    if evaluate(wrong, 5, -7) == iterate_at(3, 2, 5, -7):
        problems.append("accepted a wrong iterate value")
    # at p = 2: theta(x^2) = 2*x^2*y - 2*y^2
    square = {(2, 0): 1}
    if theta_at(square, 2, 3, -5) != evaluate({(2, 1): 2, (0, 2): -2}, 3, -5):
        problems.append("theta disagrees with a hand-derived value")
    if theta_at(square, 2, 3, -5) == evaluate({(2, 1): 2, (0, 2): 2}, 3, -5):
        problems.append("accepted a wrong theta value")
    return problems


if __name__ == "__main__":
    found = self_test()
    for problem in found:
        print(problem, file=sys.stderr)
    print("refcheck self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
