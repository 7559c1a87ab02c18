"""Command line driver for the verification suites.

Four subcommands:

    nilcert bound N                 print the nilpotence exponent bound for N-torsion
    nilcert axioms [options]        operator axioms over seeded random samples
    nilcert iterates [options]      recursion identities of the iterate family
    nilcert verify [options]        nilpotence/sharpness membership runs over a grid

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

from .certificates import read_certificate, verify_certificate, write_certificate
from .coefficients import is_prime
from .quotient import build_membership_module
from .theta import ThetaContext, nilpotence_bound, random_polynomial

PASS, FAIL = "pass", "fail"


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
            heading = " ".join(
                f"{key}={record[key]}" for key in ("p", "e") if key in record
            )
            lines.append(heading or self.command)
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


def _timing(label: str, started: float) -> None:
    sys.stderr.write(f"[timing] {label}: {time.perf_counter() - started:.3f}s\n")


# ---- subcommand bodies ----


def run_axioms(config: RunConfig) -> Report:
    report = Report("axioms", config)
    for p in sorted(set(config.primes)):
        started = time.perf_counter()
        ctx = ThetaContext(p)
        rng = config.rng_for(p)
        axiom_failures = multiple_failures = congruence_failures = 0
        for _ in range(config.trials):
            f = random_polynomial(rng, p)
            g = random_polynomial(rng, p)
            if not ctx.check_theta_axioms(f, g).all_hold:
                axiom_failures += 1
            if not ctx.check_theta_of_p_multiple(random_polynomial(rng, p)):
                multiple_failures += 1
            if not ctx.check_frobenius_congruence(random_polynomial(rng, p)):
                congruence_failures += 1
        report.records.append(
            {
                "p": p,
                "trials": config.trials,
                "verdicts": {
                    "theta_axioms": PASS if not axiom_failures else FAIL,
                    "theta_of_p_multiple": PASS if not multiple_failures else FAIL,
                    "frobenius_congruence": PASS if not congruence_failures else FAIL,
                },
            }
        )
        _timing(f"axioms p={p}", started)
    return report


def run_iterates(config: RunConfig) -> Report:
    report = Report("iterates", config)
    for p in sorted(set(config.primes)):
        started = time.perf_counter()
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
            verdicts[f"diagonal_n{n}"] = PASS if ctx.check_iterate_diagonal(n) else FAIL
        report.records.append({"p": p, "verdicts": verdicts})
        _timing(f"iterates p={p}", started)
    return report


def _certificate_name(kind: str, p: int, e: int, m: int) -> str:
    return f"{kind}_p{p}_e{e}_m{m}.cert"


def _store_certificate(config, record, kind, p, e, m, certificate) -> bool:
    """Write the certificate when --out-certs is set and re-verify the file;
    False when the written file fails re-verification (it stays listed)."""
    if not config.out_certs or certificate is None:
        return True
    os.makedirs(config.out_certs, exist_ok=True)
    name = _certificate_name(kind, p, e, m)
    path = os.path.join(config.out_certs, name)
    write_certificate(certificate, path)
    record.setdefault("certificates", []).append(name)
    return verify_certificate(read_certificate(path))


def run_verify(config: RunConfig) -> Report:
    report = Report("verify", config)
    for p, e in config.cells():
        started = time.perf_counter()
        record = {"p": p, "e": e, "verdicts": {}}
        verdicts = record["verdicts"]
        moduli = sorted({e + 1, e + 1 + config.extra_precision})
        modules = {}
        guard = None
        for m in moduli:
            try:
                modules[m] = build_membership_module(p, e, m, config.span_limit)
            except ValueError as error:
                guard = str(error)
                break
        if guard is not None:
            verdicts["cell"] = skipped(guard)
            report.records.append(record)
            _timing(f"verify p={p} e={e}", started)
            continue
        for m in moduli:
            result = modules[m].verify_nilpotence()
            proved = result.member and _store_certificate(
                config, record, "nilpotence", p, e, m, result.certificate
            )
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
        report.records.append(record)
        _timing(f"verify p={p} e={e}", started)
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

    def add_common(sub):
        sub.add_argument(
            "--p", action="append", type=int, default=None, metavar="PRIME",
            help="prime to include (repeatable; default 2 3 5)",
        )
        sub.add_argument(
            "--e", action="append", type=int, default=None, metavar="DEPTH",
            help="torsion depth to include (repeatable; default grid)",
        )
        sub.add_argument("--extra-precision", type=int, default=1, metavar="OFFSET")
        sub.add_argument("--trials", type=int, default=25)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--span-limit", type=int, default=4096)
        sub.add_argument("--degree-cap", type=int, default=1024)
        sub.add_argument("--out-report", default=None, metavar="PATH")
        sub.add_argument("--out-certs", default=None, metavar="DIR")
        sub.add_argument("--format", choices=("table", "machine"), default="table")

    for name, text in (
        ("axioms", "check operator axioms on random samples"),
        ("iterates", "check the iterate family recursion identities"),
        ("verify", "run nilpotence and sharpness membership over a grid"),
    ):
        add_common(commands.add_parser(name, help=text))
    return parser


def config_from_args(parser, args) -> RunConfig:
    primes = args.p if args.p else [2, 3, 5]
    for p in primes:
        if not is_prime(p):
            parser.error(f"{p} is not prime")
    depths = args.e if args.e else []
    for e in depths:
        if e < 1:
            parser.error("depth must be at least 1")
    if args.trials < 1:
        parser.error("trials must be at least 1")
    if args.extra_precision < 0:
        parser.error("extra precision must be nonnegative")
    return RunConfig(
        primes=sorted(set(primes)),
        depths=sorted(set(depths)),
        extra_precision=args.extra_precision,
        trials=args.trials,
        seed=args.seed,
        span_limit=args.span_limit,
        degree_cap=args.degree_cap,
        out_report=args.out_report,
        out_certs=args.out_certs,
        format=args.format,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bound":
        try:
            value = nilpotence_bound(args.torsion)
        except ValueError as error:
            parser.error(str(error))
        sys.stdout.write(f"{value}\n")
        return 0
    config = config_from_args(parser, args)
    runner = {"axioms": run_axioms, "iterates": run_iterates, "verify": run_verify}
    report = runner[args.command](config)
    report.emit()
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
