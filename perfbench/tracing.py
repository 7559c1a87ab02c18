"""Per-layer tracing of nilcert, from outside the package.

Tracer.install replaces the program's functions and methods with timing
wrappers at the names the program looks them up by (for example
nilcert.quotient.howell_complete, which build_membership_module calls, and
nilcert.cli.build_membership_module, which the verify command calls), and
uninstall puts the originals back.  Nothing in nilcert changes.

Layer boundaries record spans [name, start, end, parent, phase] in memory.
Hot arithmetic (Polynomial.__mul__, Polynomial.reduce_mod and
LocalizedRational) records counts and total time only, no span per call.
A span's self time is its duration minus the durations of its child spans
(children run one after another, so they never overlap).

Each figure is reported per set-up plus one round: the set-up phase total
plus the round phase total divided by the number of traced rounds.  Times
include the cost of the counters nested inside them.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

THETA_CHECKS = (
    "check_theta_axioms",
    "check_theta_of_p_multiple",
    "check_frobenius_congruence",
    "check_iterate_substitution",
    "check_iterate_power_congruence",
    "check_iterate_diagonal",
)


class Tracer:
    def __init__(self, nilcert):
        self.nilcert = nilcert
        self.spans = []
        self.stack = []
        self.counts = {"setup": Counter(), "round": Counter()}
        self.phase = "setup"
        self.rounds = 0
        self.origin = time.perf_counter()
        self._undo = []

    # ---- installing wrappers ----

    def install(self, phase):
        self.phase = phase
        nc = self.nilcert
        quotient, certificates = nc.quotient, nc.certificates
        ThetaContext, Polynomial = nc.theta.ThetaContext, nc.polynomials.Polynomial

        def howell_size(augmented):
            def hook(args, result, counts):
                rows = args[0]
                nrows, ncols = rows.shape if rows.ndim == 2 else (1, rows.shape[0])
                width = ncols + nrows if augmented else ncols
                counts["howell.rows_in"] += nrows
                work = (nrows + ncols + 1) * width * 8
                counts["howell.work_bytes"] = max(counts["howell.work_bytes"], work)
                if not augmented:
                    counts["quotient.atoms"] += nrows

            return hook

        def module_size(args, module, counts):
            counts["quotient.atoms_kept"] += len(module.atoms)
            counts["quotient.rank"] += module.basis.rank

        def certificate_terms(args, result, counts):
            counts["certificates.terms"] += sum(
                len(cofactor.terms) for _, cofactor in args[0].cofactors
            )

        spans = [
            (quotient, "howell_complete", "howell.complete", howell_size(True)),
            (quotient, "howell_spanning_subset", "howell.spanning_subset", howell_size(False)),
            (nc.howell.HowellBasis, "reduce", "howell.reduce", None),
            (nc.cli, "build_membership_module", "quotient.build", module_size),
            (quotient, "build_membership_module", "quotient.build", module_size),
            (quotient.RewriteSystem, "reduce", "quotient.rewrite", None),
            (quotient.MembershipModule, "is_member", "quotient.query", None),
            (quotient.MembershipModule, "power_membership", "quotient.query", None),
            (nc.cli, "verify_certificate", "certificates.verify", certificate_terms),
            (certificates, "verify_certificate", "certificates.verify", certificate_terms),
            (certificates, "standard_generators", "certificates.generators", None),
            (quotient, "standard_generators", "certificates.generators", None),
            (certificates, "certificate_to_text", "certificates.text", None),
            (certificates, "certificate_from_text", "certificates.text", None),
            (ThetaContext, "iterate_polynomial", "theta.iterate", None),
            (ThetaContext, "psi", "theta.psi", None),
            (ThetaContext, "theta", "theta.theta", None),
            (Polynomial, "substitute", "polynomials.substitute", None),
            (nc.cli.Report, "emit", "cli.emit", None),
        ] + [(ThetaContext, name, "theta.checks", None) for name in THETA_CHECKS]
        for owner, attribute, name, hook in spans:
            self._replace(owner, attribute, self._span_wrapper(getattr(owner, attribute), name, hook))
        self._install_counters(Polynomial, nc.coefficients.LocalizedRational)

    def _replace(self, owner, attribute, wrapper):
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _span_wrapper(self, original, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(record)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                record[1] = started
                stack.pop()
            if hook is not None:
                hook(args, result, self.counts[self.phase])
            return result

        return wrapper

    def _install_counters(self, Polynomial, LocalizedRational):
        clock = time.perf_counter
        multiply, reduce_mod = Polynomial.__mul__, Polynomial.reduce_mod
        rational_init = LocalizedRational.__init__
        rational_mul, rational_rmul = LocalizedRational.__mul__, LocalizedRational.__rmul__

        def polynomial_mul(a, b):
            started = clock()
            result = multiply(a, b)
            counts = self.counts[self.phase]
            counts["polynomials.mul_s"] += clock() - started
            counts["polynomials.mul_calls"] += 1
            if isinstance(b, Polynomial):
                counts["polynomials.term_products"] += len(a.terms) * len(b.terms)
            return result

        def polynomial_reduce_mod(f, p, m):
            started = clock()
            result = reduce_mod(f, p, m)
            self.counts[self.phase]["polynomials.reduce_mod_s"] += clock() - started
            return result

        def new_rational(value, numerator, denominator=1):
            self.counts[self.phase]["coefficients.rational_new"] += 1
            rational_init(value, numerator, denominator)

        def counted(original):
            def rational_product(a, b):
                self.counts[self.phase]["coefficients.rational_mul_calls"] += 1
                return original(a, b)

            return rational_product

        self._replace(Polynomial, "__mul__", polynomial_mul)
        self._replace(Polynomial, "reduce_mod", polynomial_reduce_mod)
        self._replace(LocalizedRational, "__init__", new_rational)
        self._replace(LocalizedRational, "__mul__", counted(rational_mul))
        self._replace(LocalizedRational, "__rmul__", counted(rational_rmul))

    # ---- reading the trace ----

    def _span_figures(self):
        """{phase: {"total": {name: s}, "self": {name: s}, "calls": {name: n}}}."""
        child_time = defaultdict(float)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        figures = {phase: defaultdict(Counter) for phase in self.counts}
        for index, (name, start, end, parent, phase) in enumerate(self.spans):
            table = figures[phase]
            table["total"][name] += end - start
            table["self"][name] += end - start - child_time[index]
            table["calls"][name] += 1
        return figures

    def layer_metrics(self, names):
        """Every named per-layer figure, per set-up plus one round."""
        figures = self._span_figures()

        def combine(read, peak=False):
            setup = read(figures["setup"], self.counts["setup"])
            rounds = read(figures["round"], self.counts["round"])
            if peak:
                return max(setup, rounds)
            return setup + rounds / max(self.rounds, 1)

        def total(name):
            return lambda f, c: f["total"][name]

        def own(name):
            return lambda f, c: f["self"][name]

        def calls(name):
            return lambda f, c: f["calls"][name]

        def count(name):
            return lambda f, c: c[name]

        readers = {
            "howell.complete_s": total("howell.complete"),
            "howell.spanning_subset_s": total("howell.spanning_subset"),
            "howell.rows_in": count("howell.rows_in"),
            "howell.reduce_calls": calls("howell.reduce"),
            "howell.reduce_s": total("howell.reduce"),
            "quotient.build_s": total("quotient.build"),
            "quotient.build_self_s": own("quotient.build"),
            "quotient.atoms": count("quotient.atoms"),
            "quotient.atoms_kept": count("quotient.atoms_kept"),
            "quotient.rank": count("quotient.rank"),
            "quotient.rewrite_calls": calls("quotient.rewrite"),
            "quotient.rewrite_s": total("quotient.rewrite"),
            "quotient.query_self_s": own("quotient.query"),
            "certificates.verify_s": total("certificates.verify"),
            "certificates.generators_s": total("certificates.generators"),
            "certificates.terms": count("certificates.terms"),
            "certificates.text_s": total("certificates.text"),
            "theta.iterate_s": total("theta.iterate"),
            "theta.psi_s": total("theta.psi"),
            "theta.theta_s": total("theta.theta"),
            "theta.checks_s": total("theta.checks"),
            "polynomials.mul_calls": count("polynomials.mul_calls"),
            "polynomials.term_products": count("polynomials.term_products"),
            "polynomials.mul_s": count("polynomials.mul_s"),
            "polynomials.substitute_s": total("polynomials.substitute"),
            "polynomials.reduce_mod_s": count("polynomials.reduce_mod_s"),
            "coefficients.rational_mul_calls": count("coefficients.rational_mul_calls"),
            "coefficients.rational_new": count("coefficients.rational_new"),
            "cli.emit_s": total("cli.emit"),
        }
        values = {name: combine(reader) for name, reader in readers.items()}
        values["howell.work_bytes"] = combine(count("howell.work_bytes"), peak=True)
        return {name: values[name] for name in names if name in values}

    def write_spans(self, path, meta):
        with open(path, "w", encoding="ascii") as handle:
            json.dump(dict(meta, origin=self.origin, spans=self.spans,
                           counts=self.counts), handle)
