"""The three workloads: inputs made from a seed, one timed round, checks.

Each workload drives nilcert through its public API or nilcert.cli.main,
with one caller in a closed loop.  A round returns a Round; problems are
strings naming what a check found wrong.  round(0) is checked in full
after the timed loop (full_check); later rounds must reproduce round 0.

reference() runs a fixed kernel, written without nilcert code, of the kind
of work that dominates the workload.  run.py divides each round's time by
the kernel's time, which cancels most of the host's speed drift: timed
around the round, or, when sample_every is set, sampled inside it on a
timer, for rounds that outlast the host's speed phases.

Program functions are always looked up on their module at call time
(quotient.build_membership_module, not a local alias), so the tracer's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy

import refcheck


@dataclass
class Round:
    """One round: wrong outputs go to problems; operations that raised are
    counted in failed and described in errors."""

    seconds: float
    ops: int
    failed: int
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    reference_s: float = 0.0


def _run_cli(cli, argv):
    """(exit code, stdout text) of one in-process nilcert command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _exact_terms(polynomial):
    return {k: Fraction(c.numerator, c.denominator) for k, c in polynomial.terms.items()}


def _verdict_problems(label, code, report, expected):
    """Checks shared by the two command-line workloads."""
    problems = []
    verdicts = [v for record in report["records"] for v in record["verdicts"].values()]
    if code != 0:
        problems.append(f"{label}: exit code {code}")
    if report["summary"]["fail"] or report["summary"]["skipped"]:
        problems.append(f"{label}: summary {report['summary']}")
    if len(verdicts) != expected:
        problems.append(f"{label}: {len(verdicts)} verdicts, config gives {expected}")
    return verdicts, problems


class HowellKernel:
    """Elementwise int64 row updates mod 625 on a 2 MB array, like Howell
    elimination's: the reference kernel of verify_grid and of the module
    builds in a set-up."""

    def __init__(self):
        self.block = numpy.arange(256 * 1024, dtype=numpy.int64) % 625

    def __call__(self):
        block = self.block
        for _ in range(12):
            numpy.multiply(block, 7, out=block)
            numpy.add(block, 3, out=block)
            numpy.remainder(block, 625, out=block)


class VerifyGrid:
    """The default `nilcert verify` grid with --format machine --out-certs."""

    name = "verify_grid"
    # the determinism check compares the reports of two rounds
    min_rounds = 2
    sample_every = None
    DEFAULT_CELLS = [[2, 1], [2, 2], [2, 3], [3, 1], [3, 2], [5, 1], [5, 2]]

    def __init__(self, nilcert, seed, workdir):
        self.nilcert, self.seed, self.workdir = nilcert, seed, workdir
        self.reference = HowellKernel()

    def setup(self):
        self.argv = ["verify", "--format", "machine", "--seed", str(self.seed)]
        self.first_report = None
        self.first_certs = None
        self.cert_bytes = 0

    @staticmethod
    def expected_verdicts(config):
        """nilpotence per precision, sharpness, stability, e+1 torsion,
        e power identities and torsion powers, for every cell."""
        total = 0
        for p, e in config["cells"]:
            precisions = len({e + 1, e + 1 + config["extra_precision"]})
            total += precisions + 1 + 1 + (e + 1) + e + 1
        return total

    def round(self, index):
        certs = os.path.join(self.workdir, f"certs-{index}")
        started = time.perf_counter()
        try:
            code, text = _run_cli(self.nilcert.cli, self.argv + ["--out-certs", certs])
        except Exception as error:  # a crash fails the whole round's verdicts
            expected = self.expected_verdicts(
                {"cells": self.DEFAULT_CELLS, "extra_precision": 1}
            )
            return Round(time.perf_counter() - started, expected, expected, errors=[repr(error)])
        elapsed = time.perf_counter() - started
        report = json.loads(text)
        config = report["config"]
        if config["cells"] != self.DEFAULT_CELLS:
            return Round(elapsed, 0, 0, [f"unexpected default grid {config['cells']}"])
        verdicts, problems = _verdict_problems(
            "verify", code, report, self.expected_verdicts(config)
        )
        failed = sum(v != "pass" for v in verdicts)
        files = {}
        for record in report["records"]:
            for name in record.get("certificates", []):
                with open(os.path.join(certs, name), "rb") as handle:
                    files[name] = (record["p"], record["e"], handle.read())
        if sorted(files) != sorted(os.listdir(certs) if os.path.isdir(certs) else []):
            problems.append("certificate files differ from the report's list")
        if index == 0:
            self.first_report, self.first_certs = text, files
            self.cert_bytes = sum(len(data) for _, _, data in files.values())
        else:
            if text != self.first_report:
                problems.append(f"round {index} report differs from round 0")
            if files != self.first_certs:
                problems.append(f"round {index} certificates differ from round 0")
            shutil.rmtree(certs, ignore_errors=True)
        return Round(elapsed, len(verdicts), failed, problems)

    def full_check(self):
        """Re-expand every certificate of round 0 with the reference checker."""
        problems = []
        if len(self.first_certs) != 14:
            problems.append(f"{len(self.first_certs)} certificates, expected 14")
        for name, (p, e, data) in sorted(self.first_certs.items()):
            target = {(p**e + p ** (e - 1), 0): 1}
            problem = refcheck.certificate_problem(data.decode("ascii"), target)
            if problem:
                problems.append(f"{name}: {problem}")
        return problems

    def extra(self):
        return {"cert_bytes": self.cert_bytes}


class OperatorLaws:
    """The default `nilcert iterates` followed by the default `nilcert axioms`."""

    name = "operator_laws"
    # one round takes about 20 s; two average out more of the host's noise
    min_rounds = 2
    PRIMES = (2, 3, 5)
    DEGREE_CAP = 1024

    def __init__(self, nilcert, seed, workdir):
        self.nilcert, self.seed, self.workdir = nilcert, seed, workdir

    def setup(self):
        common = ["--format", "machine", "--seed", str(self.seed)]
        self.commands = [["iterates"] + common, ["axioms"] + common]
        rng = random.Random(f"operator_laws:{self.seed}")
        self.points = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
        self.samples = {p: [self._sample(rng, p) for _ in range(4)] for p in self.PRIMES}
        self.command_seconds = {"iterates": [], "axioms": []}

    @staticmethod
    def _sample(rng, p):
        """A small p-integral polynomial as {(i, j): (numerator, denominator)}."""
        q = next(c for c in (3, 5, 7) if c != p)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, 3)
            terms[(i, rng.randint(0, 3 - i))] = (rng.randint(-9, 9) or 1, rng.choice((1, q)))
        return terms

    def depths(self, p):
        return [n for n in range(1, 11) if p**n <= self.DEGREE_CAP]

    # a round takes 15-25 s while the host's speed changes every few
    # seconds, so the kernel is sampled inside the round: over 18 rounds
    # the spread of the round time fell from 22% raw to 3.5% against it
    sample_every = 0.25
    _FRACTION = Fraction(3**40, 7)

    def reference(self):
        """About 2 ms of Fraction products summed into a small dict, like
        the LocalizedRational arithmetic of the operator layer."""
        total = {}
        for i in range(480):
            key = (i % 13, i % 7)
            total[key] = total.get(key, 0) + self._FRACTION * Fraction(i + 1, 5)

    def round(self, index):
        problems, errors, ops, failed, total = [], [], 0, 0, 0.0
        for argv in self.commands:
            started = time.perf_counter()
            try:
                code, text = _run_cli(self.nilcert.cli, argv)
            except Exception as error:
                expected = self.expected_verdicts(argv[0])
                total += time.perf_counter() - started
                ops, failed = ops + expected, failed + expected
                errors.append(f"{argv[0]}: {error!r}")
                continue
            elapsed = time.perf_counter() - started
            total += elapsed
            self.command_seconds[argv[0]].append(elapsed)
            verdicts, found = _verdict_problems(
                argv[0], code, json.loads(text), self.expected_verdicts(argv[0])
            )
            problems += found
            ops += len(verdicts)
            failed += sum(v != "pass" for v in verdicts)
        return Round(total, ops, failed, problems, errors)

    def expected_verdicts(self, command):
        """iterates: substitution, power congruence and diagonal per depth;
        axioms: three identities per prime."""
        if command == "iterates":
            return sum(3 * len(self.depths(p)) for p in self.PRIMES)
        return 3 * len(self.PRIMES)

    def full_check(self):
        """The program's iterates and theta against the point recursions."""
        polynomials = self.nilcert.polynomials
        Polynomial, RATIONALS = polynomials.Polynomial, polynomials.RATIONALS
        LocalizedRational = self.nilcert.coefficients.LocalizedRational
        problems = []
        for p in self.PRIMES:
            ctx = self.nilcert.theta.ThetaContext(p)
            for n in [0] + self.depths(p):
                terms = _exact_terms(ctx.iterate_polynomial(n))
                for a, b in self.points:
                    if refcheck.evaluate(terms, a, b) != refcheck.iterate_at(p, n, a, b):
                        problems.append(f"iterate p={p} n={n} wrong at ({a}, {b})")
            for sample in self.samples[p]:
                f = Polynomial(RATIONALS, {k: LocalizedRational(*v) for k, v in sample.items()})
                image_terms = _exact_terms(ctx.theta(f))
                exact = {k: Fraction(*v) for k, v in sample.items()}
                for a, b in self.points:
                    if refcheck.evaluate(image_terms, a, b) != refcheck.theta_at(exact, p, a, b):
                        problems.append(f"theta p={p} wrong at ({a}, {b}) for {f.to_text()}")
        return problems

    def extra(self):
        return {
            f"{command}_s": statistics.median(values)
            for command, values in self.command_seconds.items()
            if values
        }


class MembershipQueries:
    """Seeded is_member and power_membership queries on prebuilt modules.

    Half the is_member queries are ideal elements, so members; the other
    half carry a unit multiple of a monomial of weight below p^e (weights
    wt(x) = 1, wt(y) = p), so non-members: mod p the ideal is generated by
    x^(p^e) and y^(p^e), and it is homogeneous for this weight.  Each
    query also comes shifted by a random ideal element.  Fixing the mix and
    the sizes keeps one seed's round as costly as another's.
    """

    name = "membership_queries"
    min_rounds = 1
    sample_every = None
    # span p^(2e) <= 256; the last three are small enough for the oracle
    CELLS = (
        (2, 3, 4), (2, 4, 5), (2, 4, 6), (3, 2, 3), (3, 2, 4),
        (5, 1, 2), (7, 1, 2), (2, 1, 2), (2, 1, 3), (3, 1, 2),
    )
    ORACLE_CELLS = ((2, 1, 2), (2, 1, 3), (3, 1, 2))
    PAIRS_PER_CELL = 24

    def __init__(self, nilcert, seed, workdir):
        self.nilcert, self.seed, self.workdir = nilcert, seed, workdir

    def setup(self):
        polynomials = self.nilcert.polynomials
        Polynomial, RATIONALS = polynomials.Polynomial, polynomials.RATIONALS
        self.queries = {}
        for cell in self.CELLS:
            p, e, m = cell
            rng = random.Random(f"membership_queries:{self.seed}:{cell}")
            family = refcheck.generators(p, e)
            queries = []
            for k in range(self.PAIRS_PER_CELL):
                member = k % 2 == 0
                if member:
                    base = self._ideal_element(rng, family, k)
                else:
                    base = self._non_member(rng, p, e, m)
                shifted = dict(base)
                for key, c in self._ideal_element(rng, family, k + 1).items():
                    shifted[key] = shifted.get(key, 0) + c
                shifted = {key: c for key, c in shifted.items() if c}
                kind = "in" if member else "out"
                for terms in (base, shifted):
                    queries.append((kind, terms, Polynomial(RATIONALS, terms)))
            bound = p**e + p ** (e - 1)
            exponents = [bound, bound - 1] if m == e + 1 else [bound]
            for exponent in exponents:
                queries.append(("power", {(exponent, 0): 1}, exponent))
            self.queries[cell] = queries
        self.x = Polynomial.monomial(RATIONALS, 1, 0)
        quotient = self.nilcert.quotient
        self.modules = {cell: quotient.build_membership_module(*cell) for cell in self.CELLS}
        self.first = None
        self.query_ms, self.check_ms = [], []

    @staticmethod
    def _non_member(rng, p, e, m):
        """A unit times a monomial of weight below p^e, plus three terms of
        weight at least p^e, coefficients in (-p^m, p^m)."""
        block, n = p**e, p**m
        j = rng.randrange((block - 1) // p + 1)
        low = (rng.randrange(block - p * j), j)
        terms = {low: rng.choice([c for c in range(1, n) if c % p]) * rng.choice((1, -1))}
        while len(terms) < 4:
            key = (rng.randrange(2 * block), rng.randrange(block + 1))
            if key[0] + p * key[1] >= block:
                terms[key] = rng.randint(1, n - 1) * rng.choice((1, -1))
        return terms

    @staticmethod
    def _ideal_element(rng, family, k):
        """c1 * x^a1 * y^b1 * g_k + c2 * x^a2 * y^b2 * g_(k+1), indices mod e+2."""
        total = {}
        for index in (k, k + 1):
            a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 4)
            for (i, j), value in family[index % len(family)].items():
                key = (i + a, j + b)
                total[key] = total.get(key, 0) + c * value
        return {key: value for key, value in total.items() if value}

    def reference(self):
        """Small-integer dict updates mod p^m, like the rewrite and the
        certificate expansion."""
        table = {}
        for i in range(20000):
            key = (i % 97, i % 89)
            table[key] = (table.get(key, 0) + i * 12345) % 3125

    def round(self, index):
        certificates = self.nilcert.certificates
        answers, failed, problems, errors = {}, 0, [], []
        started = time.perf_counter()
        for cell, queries in self.queries.items():
            module = self.modules[cell]
            for kind, _, query in queries:
                begin = time.perf_counter()
                try:
                    if kind == "power":
                        result = module.power_membership(self.x, query)
                    else:
                        result = module.is_member(query)
                except Exception as error:
                    failed += 1
                    errors.append(f"{cell} {kind}: {error!r}")
                    answers.setdefault(cell, []).append(None)
                    continue
                answered = time.perf_counter()
                checked = None
                if result.member:
                    checked = certificates.verify_certificate(result.certificate)
                    if index == 0:
                        self.check_ms.append((time.perf_counter() - answered) * 1e3)
                if index == 0:
                    self.query_ms.append((answered - begin) * 1e3)
                answers.setdefault(cell, []).append((result, checked))
        elapsed = time.perf_counter() - started
        ops = sum(len(queries) for queries in self.queries.values())
        for cell, results in answers.items():
            for result in results:
                if result is not None and result[1] is False:
                    problems.append(f"{cell}: verify_certificate rejected a certificate")
        if index == 0:
            self.first = answers
        elif not self._same_answers(answers):
            problems.append(f"round {index} answers differ from round 0")
        return Round(elapsed, ops, failed, problems, errors)

    def _same_answers(self, answers):
        for cell, results in answers.items():
            for now, then in zip(results, self.first[cell]):
                if (now is None) != (then is None):
                    return False
                if now is None:
                    continue
                if now[0].member != then[0].member:
                    return False
                if now[0].member and now[0].certificate != then[0].certificate:
                    return False
                if not now[0].member and now[0].witness.polynomial != then[0].witness.polynomial:
                    return False
        return True

    def full_check(self):
        """Round 0 against the reference checker, the oracle and the laws."""
        nc = self.nilcert
        to_text = nc.certificates.certificate_to_text
        problems = []
        for cell, results in self.first.items():
            p, e, m = cell
            module = self.modules[cell]
            queries = self.queries[cell]
            verdicts = []
            for (kind, terms, query), answer in zip(queries, results):
                if answer is None:
                    verdicts.append(None)
                    continue
                result = answer[0]
                verdicts.append(result.member)
                if result.member:
                    problem = refcheck.certificate_problem(to_text(result.certificate), terms)
                    if problem:
                        problems.append(f"{cell} {kind} {terms}: {problem}")
                else:
                    value = self.x**query if kind == "power" else query
                    rest = value - result.witness.polynomial.lift()
                    proof = module.is_member(rest)
                    rest_terms = {k: c.numerator for k, c in rest.terms.items()}
                    if not proof.member:
                        problems.append(f"{cell}: query minus witness is not a member")
                    else:
                        problem = refcheck.certificate_problem(
                            to_text(proof.certificate), rest_terms
                        )
                        if problem:
                            problems.append(f"{cell}: witness proof {problem}")
                if kind == "power":
                    expected = query == p**e + p ** (e - 1)
                else:
                    expected = kind == "in"
                if result.member != expected:
                    problems.append(f"{cell} {kind} {terms}: member={result.member}")
                if kind != "power" and cell in self.ORACLE_CELLS:
                    if result.member != nc.quotient.brute_force_membership_oracle(
                        p, e, m, query
                    ):
                        problems.append(f"{cell}: verdict differs from the oracle")
            pairs = [verdicts[k : k + 2] for k in range(0, 2 * self.PAIRS_PER_CELL, 2)]
            if any(first != second for first, second in pairs):
                problems.append(f"{cell}: a shifted pair changed its verdict")
        return problems

    def extra(self):
        members = sum(
            1 for results in self.first.values() for a in results if a and a[0].member
        )
        total = sum(len(results) for results in self.first.values())
        return {
            "query_p50_ms": statistics.median(self.query_ms),
            "cert_check_p50_ms": statistics.median(self.check_ms),
            "member_share": members / total,
        }


WORKLOADS = {w.name: w for w in (VerifyGrid, OperatorLaws, MembershipQueries)}
