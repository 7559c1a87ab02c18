"""Proving nilpotence by ideal membership, with a checkable receipt.

In the quotient ring where x is p^e-torsion, the power x^(p^e + p^(e-1))
vanishes.  The engine proves each instance by reducing the power onto a
finite monomial span and testing membership of the ideal's reduction
module; a positive answer comes with explicit cofactors h_n such that

    x^N = sum over n of h_n * g_n  (mod p^m)

which anyone can re-expand without trusting the engine.
"""

from nilcert import (
    Polynomial,
    RATIONALS,
    build_membership_module,
    certificate_to_text,
    standard_generators,
    verify_certificate,
)

x, y = Polynomial.generators(RATIONALS)

print("== the smallest interesting instance: p = 2, e = 1, mod 4 ==")
module = build_membership_module(2, 1, 2)
print("ideal generators:")
for index, g in enumerate(module.generators):
    print(f"  g_{index} = {g.to_text()}")

result = module.verify_nilpotence()
print(f"x^3 is a member: {result.member}")
print()
print("the certificate, in its file format:")
print(certificate_to_text(result.certificate))

print("independent re-verification:", verify_certificate(result.certificate))

# the re-expansion by hand, to show there is no magic
total = Polynomial.zero(RATIONALS)
generators = standard_generators(2, 1)
for index, cofactor in result.certificate.cofactors:
    term = cofactor * generators[index]
    print(f"  {cofactor.to_text()} * g_{index} = {term.to_text()}")
    total = total + term
print(f"  sum = {total.to_text()}")

print()
print("== a deeper instance: p = 3, e = 2, mod 27 ==")
deeper = build_membership_module(3, 2, 3)
outcome = deeper.verify_nilpotence()
print(f"x^12 is a member: {outcome.member}")
print(f"certificate verifies: {verify_certificate(outcome.certificate)}")
cofactor_sizes = {
    index: len(cofactor.terms) for index, cofactor in outcome.certificate.cofactors
}
print(f"cofactor term counts by generator: {cofactor_sizes}")
