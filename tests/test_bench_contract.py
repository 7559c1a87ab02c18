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
