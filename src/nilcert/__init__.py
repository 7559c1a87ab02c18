"""Exact verification of nilpotence bounds for torsion elements.

The library implements the theta operator calculus on the rational
polynomial ring in two variables, the iterate family it generates, and
an ideal membership engine over Z/p^m that proves x^(p^e + p^(e-1)) = 0
in the torsion quotient (with an independently checkable certificate)
while exhibiting that no smaller exponent works.

The top level exports what the demos and the quick start use; every
other name is imported from its own module, such as
nilcert.coefficients.Modulus or nilcert.howell.howell_complete.
"""

from .certificates import (
    certificate_from_text,
    certificate_to_text,
    standard_generators,
    verify_certificate,
)
from .polynomials import RATIONALS, Polynomial
from .quotient import brute_force_membership_oracle, build_membership_module
from .theta import ThetaContext, nilpotence_bound

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "RATIONALS",
    "ThetaContext",
    "brute_force_membership_oracle",
    "build_membership_module",
    "certificate_from_text",
    "certificate_to_text",
    "nilpotence_bound",
    "standard_generators",
    "verify_certificate",
]
