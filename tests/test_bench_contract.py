"""The names perfbench/tracing.py wraps must exist in the package.

The tracer resolves every wrapped function, method and attribute by name
when it installs, so a rename anywhere in that list breaks every traced
benchmark run.  Installing it here turns such a rename into a test
failure.
"""

from pathlib import Path

import nilcert
import nilcert.cli
from nilcert import certificates, quotient
from nilcert.coefficients import LocalizedRational
from nilcert.polynomials import RATIONALS, Polynomial
from nilcert.theta import ThetaContext

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_sees_the_elimination(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer(nilcert)
    tracer.install("setup")
    try:
        module = quotient.build_membership_module(2, 2, 3)
        x = Polynomial.monomial(RATIONALS, 1, 0)
        result = module.is_member(x**6)
        assert result.member
        assert certificates.verify_certificate(result.certificate)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"howell.complete", "quotient.build", "quotient.query", "certificates.verify"} <= names
    assert tracer.counts["setup"]["quotient.rank"] == module.basis.rank
    # module_size forces every class inside the traced region, so each
    # class's rows reach the howell_size hook once, shaped as rows x columns
    assert tracer.counts["setup"]["howell.rows_in"] == len(module.atoms)
    assert tracer.counts["setup"]["howell.work_bytes"] > 0


def test_tracer_sees_psi_inside_the_theta_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer(nilcert)
    tracer.install("setup")
    try:
        assert ThetaContext(2).check_iterate_substitution(3)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"theta.psi", "theta.checks"} <= names
    checks = [index for index, span in enumerate(tracer.spans) if span[0] == "theta.checks"]
    assert any(span[0] == "theta.psi" and span[3] in checks for span in tracer.spans)


def test_tracer_counts_coefficient_construction_and_products(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer(nilcert)
    tracer.install("setup")
    try:
        # the tracer wraps LocalizedRational.__init__ and calls the
        # original with the constructor's arguments
        half = LocalizedRational(1, 2)
        Polynomial.parse("1/2*x + 2/3*y", RATIONALS)
        assert half * 3 == LocalizedRational(3, 2)
    finally:
        tracer.uninstall()
    assert tracer.counts["setup"]["coefficients.rational_new"] > 0
    assert tracer.counts["setup"]["coefficients.rational_mul_calls"] > 0
