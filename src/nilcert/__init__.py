"""Exact verification of nilpotence bounds for torsion elements.

The library implements the theta operator calculus on the rational
polynomial ring in two variables, the iterate family it generates, and
an ideal membership engine over Z/p^m that proves x^(p^e + p^(e-1)) = 0
in the torsion quotient (with an independently checkable certificate)
while exhibiting that no smaller exponent works.
"""

from .certificates import (
    Certificate,
    certificate_from_text,
    certificate_to_text,
    read_certificate,
    standard_generators,
    verify_certificate,
    write_certificate,
)
from .coefficients import (
    LocalizedRational,
    Modulus,
    is_prime,
    rational,
    vp,
)
from .howell import HowellBasis, howell_complete, howell_form, howell_spanning_subset
from .polynomials import RATIONALS, Polynomial
from .quotient import (
    IdealSpec,
    MembershipModule,
    MembershipResult,
    ResidueWitness,
    RewriteSystem,
    brute_force_membership_oracle,
    build_membership_module,
)
from .theta import AxiomReport, ThetaContext, nilpotence_bound, random_polynomial

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Certificate",
    "HowellBasis",
    "IdealSpec",
    "LocalizedRational",
    "MembershipModule",
    "MembershipResult",
    "Modulus",
    "Polynomial",
    "RATIONALS",
    "ResidueWitness",
    "RewriteSystem",
    "ThetaContext",
    "brute_force_membership_oracle",
    "build_membership_module",
    "certificate_from_text",
    "certificate_to_text",
    "howell_complete",
    "howell_form",
    "howell_spanning_subset",
    "is_prime",
    "nilpotence_bound",
    "random_polynomial",
    "rational",
    "read_certificate",
    "standard_generators",
    "verify_certificate",
    "vp",
    "write_certificate",
]
