"""Symbolic differential polynomials: parsing, the deformation expansion,
and recovering the conserved-quantity constants.

The expression grammar covers u, xi, derivatives (primes or ^(k)), powers,
the bracket [xi^(a), xi^(b)], the parameter L, rationals, and the total
derivative D(...).  Every expression has a unique normal form, so printing
then reparsing is the identity.  Equality modulo total derivatives is
decided exactly, by one rational elimination per grade of the terms, in
the free model where u-derivatives and brackets are independent symbols.

Run: python3 demos/06_symbolic_densities.py
"""

from superkdv import (conserved_density_poly, equal_mod_total_derivative,
                      evolutionary_derivative, gardner_coefficients, parse,
                      reproduce_conserved_quantities, to_text)

print("parsing and normal forms")
for text in ("u'' - u^2 - L*[xi', xi]",
             "3*u*u' + 1/2*D(u^2)",
             "[xi^(2), xi] - [xi, xi^(2)]"):
    poly = parse(text)
    print(f"  {text:32} -> {to_text(poly)}")
print()

print("deformation expansion of the inverse map, orders 0..4")
for n, (z, s) in enumerate(gardner_coefficients(4)):
    print(f"  z_{n}     = {to_text(z)}")
    print(f"  sigma_{n} = {to_text(s)}")
print()

print("densities whose integrals the flow preserves")
for n in (0, 2, 4, 6):
    h = conserved_density_poly(n)
    dh = evolutionary_derivative(h)
    verdict = equal_mod_total_derivative(dh, parse("0"))
    print(f"  H{n} = {to_text(h)}")
    print(f"       d/dt integrates to zero: {verdict}")
print()

print("a non-conserved density is caught, with the first group of terms")
print("that is no total derivative as its witness:")
bad = parse("u^3")
verdict = equal_mod_total_derivative(evolutionary_derivative(bad), parse("0"))
print(f"  d/dt of u^3 conserved? {verdict.equal}")
print(f"  witness: {verdict.witness}")
print()

print("recovering the constants that tie the expansion to the densities")
table = reproduce_conserved_quantities(max_order=6)
print(table)
