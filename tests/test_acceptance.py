"""Acceptance gate: the end-to-end claims the package stands behind.

Each test prints one PASS/FAIL line (visible under pytest -s); together
they cover the nilpotence bound with certificates, its sharpness, oracle
agreement, the operator axioms, the iterate recursion laws, stability,
torsion identities, coset well-definedness, report determinism, and both
halves at the critical precision on every admitted cell up to p^e = 1024.
"""

import contextlib
import functools
import io
import json
import random
import tempfile
import time
from pathlib import Path

from nilcert.certificates import MAX_DEGREE, certificate_from_text, certificate_to_text
from nilcert.certificates import verify_certificate
from nilcert.cli import main
from nilcert.coefficients import is_prime
from nilcert.polynomials import RATIONALS, Polynomial
from nilcert.quotient import brute_force_membership_oracle, build_membership_module
from nilcert.theta import ThetaContext, random_polynomial

GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]
ORACLE_CELLS = [(2, 1, 2), (2, 1, 3), (3, 1, 2)]
X, Y = Polynomial.generators(RATIONALS)
# every admitted (p, e) but the three deepest, whose certificates and
# witnesses CI's "Deep nilpotence cells" step pins byte for byte
ADMITTED_CELLS = [
    (p, e)
    for p in range(2, MAX_DEGREE + 1)
    if is_prime(p)
    for e in range(1, MAX_DEGREE.bit_length())
    if p**e <= MAX_DEGREE and (p, e) not in {(2, 9), (2, 10), (3, 6)}
]


@functools.lru_cache(maxsize=None)
def module_for(p, e, m):
    return build_membership_module(p, e, m)


def conclude(number, ok, label):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_nilpotence_with_certificates():
    started = time.perf_counter()
    ok = True
    for p, e in GRID:
        exponent = p**e + p ** (e - 1)
        for m in (e + 1, e + 2):
            result = module_for(p, e, m).power_membership(X, exponent)
            ok = ok and result.member and verify_certificate(result.certificate)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60
    conclude(1, ok, f"nilpotence certificates across the grid ({elapsed:.1f}s)")


def test_criterion_2_sharpness():
    ok = True
    for p, e in GRID:
        module = module_for(p, e, e + 1)
        below = p**e + p ** (e - 1) - 1
        ok = ok and not module.power_membership(X, below).member
    # depth one collapses to the inspection case: x^p stays out, x^(p+1) falls in
    for p in (2, 3, 5):
        module = module_for(p, 1, 2)
        ok = ok and not module.is_member(X**p).member
        ok = ok and module.is_member(X ** (p + 1)).member
    conclude(2, ok, "no smaller exponent is nilpotent at critical precision")


def test_criterion_3_oracle_equivalence():
    disagreements = 0
    for p, e, m in ORACLE_CELLS:
        module = module_for(p, e, m)
        block = p**e
        for i in range(block):
            for j in range(block):
                mono = Polynomial.monomial(RATIONALS, i, j)
                if module.is_member(mono).member != brute_force_membership_oracle(
                    p, e, m, mono
                ):
                    disagreements += 1
    conclude(3, disagreements == 0, "Howell verdicts equal enumeration on every span monomial")


def test_criterion_4_operator_axioms():
    ok = True
    division_errors = 0
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        rng = random.Random(40 + p)
        for _ in range(200):
            try:
                f = random_polynomial(rng, p)
                g = random_polynomial(rng, p)
                ok = ok and bool(ctx.check_theta_axioms(f, g))
                ok = ok and ctx.check_theta_of_p_multiple(random_polynomial(rng, p))
            except ValueError:
                division_errors += 1
    ok = ok and division_errors == 0
    conclude(4, ok, "600 random operator axiom checks, no division failures")


def test_criterion_5_iterate_recursion_laws():
    ok = True
    for p in (2, 3, 5):
        ctx = ThetaContext(p)
        n = 1
        while p**n <= 1024:
            ok = ok and ctx.check_iterate_substitution(n)
            ok = ok and ctx.check_iterate_power_congruence(n)
            n += 1
    for p, top in ((2, 4), (3, 3), (5, 2)):
        ctx = ThetaContext(p)
        for e in range(top + 1):
            ok = ok and ctx.check_iterate_diagonal(e)
    conclude(5, ok, "substitution and congruence laws up to degree 1024")


def test_criterion_6_theta_stability():
    ok = True
    for p, e in GRID:
        module = module_for(p, e, e + 1)
        ok = ok and module.check_theta_stability()
        exact = module.theta_context.theta(module.theta_context.iterate_polynomial(e))
        ok = ok and exact == Polynomial.monomial(RATIONALS, 0, p**e)
    conclude(6, ok, "ideal carried into itself by theta and psi")


def test_criterion_7_torsion_and_power_identities():
    ok = True
    for p, e in GRID:
        module = module_for(p, e, e + 1)
        ok = ok and all(module.verify_iterate_torsion(k) for k in range(e + 1))
        ok = ok and all(module.verify_iterate_power_identity(k) for k in range(e))
    conclude(7, ok, "iterate torsion and power identities at every depth")


def test_criterion_8_coset_well_definedness():
    mismatches = 0
    for p, e in GRID:
        module = module_for(p, e, e + 1)
        generators = module.generators
        rng = random.Random(80 + 10 * p + e)
        for _ in range(200):
            f = random_polynomial(rng, p, max_degree=3, max_terms=4)
            j = Polynomial.zero(RATIONALS)
            for _ in range(rng.randint(1, 3)):
                shift = Polynomial.monomial(RATIONALS, rng.randint(0, 3), rng.randint(0, 3))
                j = j + shift * generators[rng.randrange(len(generators))].scale(
                    rng.randint(-4, 4)
                )
            if module.is_member(f).member != module.is_member(f + j).member:
                mismatches += 1
    conclude(8, mismatches == 0, "1400 random ideal shifts never change a verdict")


def test_criterion_9_report_determinism():
    argv = ["verify", "--p", "2", "--p", "3", "--e", "1", "--e", "2", "--seed", "7"]
    payloads = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in ("first.json", "second.json"):
            path = Path(scratch) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out-report", str(path)])
            assert code == 0
            payloads.append(path.read_bytes())
        identical = payloads[0] == payloads[1]
        json.loads(payloads[0])  # and the format is valid machine output
    conclude(9, identical, "byte-identical machine reports for identical config")


def test_criterion_10_both_halves_on_every_admitted_cell():
    failures = []
    for p, e in ADMITTED_CELLS:
        module = build_membership_module(p, e, e + 1)
        nilpotence = module.verify_nilpotence()
        proved = nilpotence.member and verify_certificate(
            certificate_from_text(certificate_to_text(nilpotence.certificate))
        )
        if not proved:
            failures.append(("nilpotence", p, e))
        if module.verify_sharpness().member:
            failures.append(("sharpness", p, e))
    conclude(
        10,
        not failures and len(ADMITTED_CELLS) == 195,
        f"x^N a certified member and x^(N-1) not at m = e + 1 on "
        f"{len(ADMITTED_CELLS)} cells; failures: {failures}",
    )
