"""The 2^floor((n-1)/2)-dimensional matrix representation of the covers.

Step 1: the standard tensor construction gives n-1 pairwise anticommuting
matrices with entries 0, +-1, +-i, squaring to +-identity.  Step 2: unit
vectors in their span meeting at 120 degrees represent the cover generators;
the central element lands on -identity.  The mixing coefficients involve
sqrt(k(k+1)/2); both steps work over Q(i, sqrt 2, sqrt 3, ...), the field of
schur_ed.radicals.
"""

from schur_ed import basic_spin_matrices, spin_representation, verify_spin_representation
from schur_ed.radicals import SqrtNum, smat_mul

n = 6
gammas = basic_spin_matrices(n, sign=1)
dim = len(gammas[0])
print(f"n = {n}: {len(gammas)} gamma matrices of size {dim} x {dim}")

# SqrtNum values are stored in a normal form, so == on the nested lists
# compares the matrices entry by entry
ident = [[SqrtNum.rational(int(i == j)) for j in range(dim)]
         for i in range(dim)]
print("gamma_1^2 == I:", smat_mul(gammas[0], gammas[0]) == ident)
anti = smat_mul(gammas[0], gammas[1]) == [
    [-v for v in row] for row in smat_mul(gammas[1], gammas[0])]
print("gamma_1 gamma_2 == -gamma_2 gamma_1:", anti)

# The group generators and the full relation check:
gens = spin_representation(n, "minus")
print(f"\ncover generators: {len(gens)} matrices of size {len(gens[0])}")
for relation, ok in verify_spin_representation(n, "minus"):
    print(f"  {relation:28s} {'ok' if ok else 'FAILED'}")
