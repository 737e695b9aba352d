"""Point relations on the elliptic double curve.

Restricting the polarization h and the double-curve class xi to the double
curve gives two degree-0 relations among the blown-up points (in the group
law of the curve).  Every model's catalogued extra relation is an exact
integer combination of those; this script derives a few certificates.
"""

from degen_atlas import Divisor, catalogue_model, derive, imposed_relations, psi, relation_rows

d17 = catalogue_model("D17")
system = imposed_relations(d17)
print("D17 imposed relations (each = 0 in the group law):")
print("  R_h  =", system.r_h)
print("  R_xi =", system.r_xi)

row = next(r for r in relation_rows() if r.key == "D17")
res = derive(system, row.target())
print(f"target {row.display}")
print(f"  certificate: {res.coefficients[0]} * R_h + {res.coefficients[1]} * R_xi")

print()
print("D16 needs its declared 4-torsion auxiliary as well:")
d16 = catalogue_model("D16")
system = imposed_relations(d16)
row = next(r for r in relation_rows() if r.key == "D16")
res = derive(system, row.target())
print("  generators:", [str(g) for g in system.generators()])
print("  coefficients:", res.coefficients)

print()
print("Double covers of Hirzebruch surfaces impose a one-parameter family")
print("of relations; n = 1, 2, 6 give:")
for n in (1, 2, 6):
    # the cover from F_n: (3n+9) q = (n+1) p1 + p2 + ... + p(2n+9)
    terms = {"q": 3 * n + 9, "p1": -(n + 1), **{f"p{i}": -1 for i in range(2, 2 * n + 10)}}
    print(f"  n={n}:", Divisor.of(terms))

print()
print("psi is additive and lands in degree 0:")
print("  psi(h) on D17 =", psi(d17, d17.h))
