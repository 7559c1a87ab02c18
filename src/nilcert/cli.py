"""Command line driver for the verification suites.

Four subcommands:

    nilcert bound N                 print the nilpotence exponent bound for N-torsion
    nilcert axioms [options]        operator axioms over seeded random samples
    nilcert iterates [options]      recursion identities of the iterate family
    nilcert verify [options]        nilpotence/sharpness membership runs over a grid

Each subcommand takes only the flags it reads (see --help); a setting it
has no flag for keeps its RunConfig default in the report's config.

Reports are deterministic for a fixed configuration and seed: records are
sorted by (p, e), the machine format is JSON with sorted keys, and wall
clock timings go to stderr only, never into a report.  Exit status is 0
when every non-skipped verdict passed, 1 on any failure, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from .certificates import (
    MAX_PRECISION,
    read_certificate,
    verify_certificate,
    write_certificate,
)
from .coefficients import is_prime
from .quotient import build_membership_module
from .theta import SAMPLE_DEGREE, ThetaContext, nilpotence_bound, random_polynomial

PASS, FAIL = "pass", "fail"

# Largest accepted --degree-cap: `iterates --degree-cap 4096` takes about
# 4 s at p = 2 and 3.4 s at p = 5 as a subprocess on a 2-core x86 host with
# CPython 3.11 (0.6 s and 0.12 s at 2048; medians of three runs, which
# spread by up to 40%).  MAX_DIAGONAL_SIZE keeps other primes near that:
# 3.1 s at p = 47 and 5 s at p = 1741.
MAX_DEGREE_CAP = 4096

# Largest accepted --p: a larger prime admits no iterate depth under the
# degree cap and no verify cell under the span limit, and is_prime on it
# would be the only work done.
MAX_PRIME = MAX_DEGREE_CAP

# Largest accepted --span-limit: `verify` on the largest cells it admits,
# (2, 7) and (5, 3), takes about 0.16 s and 0.08 s on the same host.
MAX_SPAN_LIMIT = 2**14

# Largest accepted --trials: one trial of axioms at p = 7 takes about
# 0.01 s on the same host, so 1000 trials there take about 10 s.
MAX_TRIALS = 1000

# Largest accepted |N| for `bound N`, whose trial division runs to sqrt(N).
MAX_TORSION = 10**12

# axioms skips a prime whose theta(psi(f)) may exceed this many terms: it
# raises psi(f) to the p-th power, and the cost grows with the terms of
# that power, not only with its degree.  p <= 7 runs, p >= 11 is skipped.
MAX_AXIOM_TERMS = 4096

# iterates skips diagonal_n{n} when p^(2n) * (bits of p) exceeds this.
# theta(f_n) forms f_n^p, of degree p^(n+1), one power of p past the
# degree cap: p^n + 1 terms of about p^n * log2(p) bits each.  The default
# cells measure at most 2^21 and (2, 12) exactly 2^25; (61, 2) and
# (2039, 1), whose checks alone take 18 s and 8 s, are skipped.
MAX_DIAGONAL_SIZE = 2**25


def skipped(reason: str) -> str:
    return f"skipped: {reason}"


@dataclass
class RunConfig:
    primes: list
    depths: list
    extra_precision: int = 1
    trials: int = 25
    seed: int = 0
    span_limit: int = 4096
    degree_cap: int = 1024
    out_report: str | None = None
    out_certs: str | None = None
    format: str = "table"

    def cells(self):
        if self.depths:
            grid = [(p, e) for p in self.primes for e in self.depths]
        else:
            grid = [(p, e) for p in self.primes for e in (1, 2)]
            if 2 in self.primes:
                grid.append((2, 3))
        return sorted(set(grid))

    def rng_for(self, p: int) -> random.Random:
        # one seed drives everything; offset per prime so cells are independent
        return random.Random(self.seed * 1_000_003 + p)

    def as_record(self) -> dict:
        # output paths are deliberately not echoed: the report bytes must
        # not depend on where the report is written
        return {
            "primes": list(self.primes),
            "cells": [list(cell) for cell in self.cells()],
            "extra_precision": self.extra_precision,
            "trials": self.trials,
            "seed": self.seed,
            "span_limit": self.span_limit,
            "degree_cap": self.degree_cap,
        }


def _heading(record: dict) -> str:
    """The "p=.. e=.." of a record: its table heading and timing label."""
    return " ".join(f"{key}={record[key]}" for key in ("p", "e") if key in record)


@dataclass
class Report:
    command: str
    config: RunConfig
    records: list = field(default_factory=list)

    def verdicts(self):
        for record in self.records:
            yield from record["verdicts"].values()

    def summary(self) -> dict:
        tally = {"pass": 0, "fail": 0, "skipped": 0}
        for verdict in self.verdicts():
            tally[verdict.split(":")[0]] += 1
        return tally

    def exit_code(self) -> int:
        return 1 if any(v == FAIL for v in self.verdicts()) else 0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config.as_record(),
            "records": self.records,
            "summary": self.summary(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = []
        for record in self.records:
            lines.append(_heading(record))
            width = max(len(k) for k in record["verdicts"]) if record["verdicts"] else 0
            for key, verdict in record["verdicts"].items():
                lines.append(f"  {key.ljust(width)}  {verdict}")
            for key, value in record.items():
                if key not in ("p", "e", "verdicts"):
                    lines.append(f"  {key}: {value}")
        tally = self.summary()
        lines.append(
            f"summary: {tally['pass']} pass, {tally['fail']} fail, "
            f"{tally['skipped']} skipped"
        )
        return "\n".join(lines) + "\n"

    def emit(self) -> None:
        text = self.to_json() if self.config.format == "machine" else self.to_table()
        sys.stdout.write(text)
        if self.config.out_report:
            with open(self.config.out_report, "w", encoding="ascii") as handle:
                handle.write(self.to_json())


# ---- subcommand bodies ----


def _axioms_skip_reason(p: int, degree_cap: int) -> str | None:
    """Why axioms skips p, checking degree before terms; None to run it."""
    top_degree = SAMPLE_DEGREE * p * p
    if top_degree > degree_cap:
        return (
            f"theta of psi of a sample reaches degree {top_degree}, "
            f"above the degree cap {degree_cap}"
        )
    # psi(f) has degree at most SAMPLE_DEGREE * p and x-degrees divisible
    # by p, so psi(f)^p has at most one term x^(p*k) y^l per
    # p*k + l <= top_degree
    top_terms = sum(top_degree - p * k + 1 for k in range(SAMPLE_DEGREE * p + 1))
    if top_terms > MAX_AXIOM_TERMS:
        return (
            f"theta of psi of a sample may have {top_terms} terms, "
            f"above the term bound {MAX_AXIOM_TERMS}"
        )
    return None


def _axioms_record(config: RunConfig, p: int) -> dict:
    reason = _axioms_skip_reason(p, config.degree_cap)
    if reason is not None:
        return {"p": p, "trials": config.trials, "verdicts": {"axioms": skipped(reason)}}
    ctx = ThetaContext(p)
    rng = config.rng_for(p)
    axiom_failures = multiple_failures = congruence_failures = 0
    for _ in range(config.trials):
        f = random_polynomial(rng, p)
        g = random_polynomial(rng, p)
        if not ctx.check_theta_axioms(f, g):
            axiom_failures += 1
        if not ctx.check_theta_of_p_multiple(random_polynomial(rng, p)):
            multiple_failures += 1
        if not ctx.check_frobenius_congruence(random_polynomial(rng, p)):
            congruence_failures += 1
    return {
        "p": p,
        "trials": config.trials,
        "verdicts": {
            "theta_axioms": PASS if not axiom_failures else FAIL,
            "theta_of_p_multiple": PASS if not multiple_failures else FAIL,
            "frobenius_congruence": PASS if not congruence_failures else FAIL,
        },
    }


def _diagonal_skip_reason(p: int, n: int) -> str | None:
    """Why iterates skips the diagonal check of depth n; None to run it."""
    size = p ** (2 * n) * p.bit_length()
    if size > MAX_DIAGONAL_SIZE:
        return (
            f"theta of iterate {n} raises it to the power p, of size "
            f"p^{2 * n} * {p.bit_length()} = {size}, above the size bound {MAX_DIAGONAL_SIZE}"
        )
    return None


def _iterates_record(config: RunConfig, p: int) -> dict:
    ctx = ThetaContext(p)
    depths = []
    n = 1
    while p**n <= config.degree_cap:
        depths.append(n)
        n += 1
    verdicts = {}
    if not depths:
        verdicts["iterates"] = skipped(
            f"degree cap {config.degree_cap} admits no depth above 0"
        )
    for n in depths:
        verdicts[f"substitution_n{n}"] = (
            PASS if ctx.check_iterate_substitution(n) else FAIL
        )
        verdicts[f"power_congruence_n{n}"] = (
            PASS if ctx.check_iterate_power_congruence(n) else FAIL
        )
        reason = _diagonal_skip_reason(p, n)
        if reason is not None:
            verdicts[f"diagonal_n{n}"] = skipped(reason)
        else:
            verdicts[f"diagonal_n{n}"] = PASS if ctx.check_iterate_diagonal(n) else FAIL
    return {"p": p, "verdicts": verdicts}


def _check_certificate(config, record, certificate) -> bool:
    """Check a nilpotence certificate with verify_certificate.  With
    --out-certs it is written first and the file read back is checked; a
    file that fails the check stays listed."""
    if not config.out_certs:
        return verify_certificate(certificate)
    os.makedirs(config.out_certs, exist_ok=True)
    name = f"nilpotence_p{certificate.p}_e{certificate.e}_m{certificate.m}.cert"
    path = os.path.join(config.out_certs, name)
    write_certificate(certificate, path)
    record.setdefault("certificates", []).append(name)
    return verify_certificate(read_certificate(path))


def _verify_record(config: RunConfig, p: int, e: int) -> dict:
    record = {"p": p, "e": e, "verdicts": {}}
    verdicts = record["verdicts"]
    moduli = sorted({e + 1, e + 1 + config.extra_precision})
    try:
        modules = {m: build_membership_module(p, e, m, config.span_limit) for m in moduli}
    except ValueError as error:
        verdicts["cell"] = skipped(str(error))
        return record
    for m in moduli:
        result = modules[m].verify_nilpotence()
        proved = result.member and _check_certificate(config, record, result.certificate)
        verdicts[f"nilpotence_m{m}"] = PASS if proved else FAIL
    base = modules[e + 1]
    sharp = base.verify_sharpness()
    verdicts[f"sharpness_m{e + 1}"] = PASS if not sharp.member else FAIL
    if sharp.witness is not None:
        record["sharpness_witness"] = sharp.witness.to_text()
    verdicts["theta_stability"] = PASS if base.check_theta_stability() else FAIL
    for k in range(e + 1):
        verdicts[f"iterate_torsion_k{k}"] = (
            PASS if base.verify_iterate_torsion(k) else FAIL
        )
    for k in range(e):
        verdicts[f"iterate_power_k{k}"] = (
            PASS if base.verify_iterate_power_identity(k) else FAIL
        )
    verdicts["torsion_powers"] = PASS if base.verify_torsion_powers() else FAIL
    return record


def _prime_keys(config: RunConfig) -> list:
    return [(p,) for p in config.primes]


# each suite's record keys under a config, and its record of one key
_SUITES = {
    "axioms": (_prime_keys, _axioms_record),
    "iterates": (_prime_keys, _iterates_record),
    "verify": (RunConfig.cells, _verify_record),
}


def run_suite(command: str, config: RunConfig) -> Report:
    """The report of a suite, one record per key in key order; each
    record's wall time goes to stderr under its table heading."""
    keys, make_record = _SUITES[command]
    report = Report(command, config)
    for key in keys(config):
        started = time.perf_counter()
        record = make_record(config, *key)
        report.records.append(record)
        elapsed = time.perf_counter() - started
        sys.stderr.write(f"[timing] {command} {_heading(record)}: {elapsed:.3f}s\n")
    return report


# ---- argument plumbing ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcert",
        description="exact verification of torsion nilpotence bounds",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bound = commands.add_parser("bound", help="print the nilpotence exponent bound")
    bound.add_argument("torsion", type=int, help="torsion order of the element")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--p", action="append", type=int, default=None, metavar="PRIME",
        help="prime to include (repeatable; default 2 3 5)",
    )
    common.add_argument("--seed", type=int, default=RunConfig.seed)
    common.add_argument("--out-report", default=None, metavar="PATH")
    common.add_argument("--format", choices=("table", "machine"), default=RunConfig.format)

    def add_command(name, text):
        return commands.add_parser(name, parents=[common], help=text)

    axioms = add_command("axioms", "check operator axioms on random samples")
    axioms.add_argument("--trials", type=int, default=RunConfig.trials)
    axioms.add_argument("--degree-cap", type=int, default=RunConfig.degree_cap)
    iterates = add_command("iterates", "check the iterate family recursion identities")
    iterates.add_argument("--degree-cap", type=int, default=RunConfig.degree_cap)
    verify = add_command("verify", "run nilpotence and sharpness membership over a grid")
    verify.add_argument(
        "--e", action="append", type=int, default=None, metavar="DEPTH",
        help="torsion depth to include (repeatable; default grid)",
    )
    verify.add_argument(
        "--extra-precision", type=int, default=RunConfig.extra_precision, metavar="OFFSET"
    )
    verify.add_argument("--span-limit", type=int, default=RunConfig.span_limit)
    verify.add_argument("--out-certs", default=None, metavar="DIR")
    return parser


def _output_path_error(path: str, directory: bool) -> str | None:
    """Why an output path cannot be written, or None: --out-certs names a
    directory, made with any missing parents, and --out-report a file in
    an existing directory."""
    if os.path.exists(path):
        if os.path.isdir(path) == directory:
            return None
        return "not a directory" if directory else "a directory"
    parent = os.path.dirname(os.path.abspath(path))
    while directory and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    return None if os.path.isdir(parent) else f"under {parent}, which is not a directory"


def config_from_args(parser, args) -> RunConfig:
    """The RunConfig of a subcommand; a setting the subcommand has no
    flag for keeps its RunConfig default."""
    primes = args.p if args.p else [2, 3, 5]
    for p in primes:
        if p > MAX_PRIME:
            parser.error(f"prime must be at most {MAX_PRIME}")
        if not is_prime(p):
            parser.error(f"{p} is not prime")
    depths = getattr(args, "e", None) or []
    for e in depths:
        if e < 1:
            parser.error("depth must be at least 1")
    config = RunConfig(
        primes=sorted(set(primes)),
        depths=sorted(set(depths)),
        **{k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__},
    )
    if config.trials < 1:
        parser.error("trials must be at least 1")
    if config.trials > MAX_TRIALS:
        parser.error(f"trials must be at most {MAX_TRIALS}")
    if config.span_limit > MAX_SPAN_LIMIT:
        parser.error(f"span limit must be at most {MAX_SPAN_LIMIT}")
    if config.extra_precision < 0:
        parser.error("extra precision must be nonnegative")
    if config.extra_precision > MAX_PRECISION:
        parser.error(f"extra precision must be at most {MAX_PRECISION}")
    if config.degree_cap > MAX_DEGREE_CAP:
        parser.error(f"degree cap must be at most {MAX_DEGREE_CAP}")
    for flag, path, directory in (
        ("--out-report", config.out_report, False),
        ("--out-certs", config.out_certs, True),
    ):
        problem = path and _output_path_error(path, directory)
        if problem:
            parser.error(f"{flag} {path} is {problem}")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bound":
        if abs(args.torsion) > MAX_TORSION:
            parser.error(f"torsion order must be at most {MAX_TORSION} in absolute value")
        try:
            value = nilpotence_bound(args.torsion)
        except ValueError as error:
            parser.error(str(error))
        sys.stdout.write(f"{value}\n")
        return 0
    config = config_from_args(parser, args)
    try:
        report = run_suite(args.command, config)
        report.emit()
    except OSError as error:
        parser.error(f"cannot write output: {error}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
