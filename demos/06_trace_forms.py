"""Trace forms of etale algebras over Q and their invariants.

The trace form of E = Q[x]/(f) sends x to Tr(x^2); its Gram matrix in the
power basis consists of Newton power sums of the roots of f.  Every
n-dimensional trace form contains s copies of <1> as a subform, where s is
the binary digit count of n.
"""

import random

from schur_ed import (
    EtaleAlgebraQ,
    brauer_index,
    contains_ones,
    discriminant,
    etale_discriminant,
    hasse_invariant,
    random_etale_algebra,
    splitting_tower,
    trace_form,
    witt_index,
)
from schur_ed.polyq import parse_poly

E = EtaleAlgebraQ.from_polynomial(parse_poly("x^3 - 2"))
q = trace_form(E)
print("E =", E)
print("trace form:", q)
print("disc:", discriminant(q).representative,
      "| etale disc:", etale_discriminant(E).representative)
print("Hasse class ramified at:", hasse_invariant(q).to_json(),
      "-> index", brauer_index(hasse_invariant(q)))
print("witt index:", witt_index(q))

# The subform theorem at n = 12 (s = 2): every trace form contains <1, 1>.
rng = random.Random(2024)
hits = 0
for _ in range(25):
    E = random_etale_algebra(12, rng)
    if contains_ones(trace_form(E), 2):
        hits += 1
print(f"\nrandom 12-dimensional trace forms containing <1,1>: {hits}/25")

# Splitting tower of a generic form: one square-class adjunction per pair
# of diagonal entries (assuming sqrt(-1) in the base).
rep = splitting_tower(q)
print("\nsplitting tower of", q)
print("adjoined square classes:", rep.adjoined)
print("tower degree:", rep.degree, "| residual entry:", rep.residual)
