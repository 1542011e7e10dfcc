"""Character degrees by the finite-field (Dixon) method, and the minimal
faithful irreducible dimension that controls the 2-local essential
dimension.

An irreducible of a group with center {1, z} is faithful exactly when it
sends z to -identity, so the quantity of interest is the smallest degree
among irreducibles with central sign -1.
"""

from schur_ed import (
    CoverSpec,
    count_min_faithful,
    dixon_character_table,
    get_cover,
    min_faithful_irrep_dim,
    preimage_subgroup,
    sylow2_alt_generators,
    sylow2_sym_generators,
)

# Warm-up: the quaternion group, as the preimage of a Sylow 2-subgroup of A_4.
spec4 = CoverSpec(4, "plus")
q8 = preimage_subgroup(sylow2_alt_generators(4), spec4)
ct = dixon_character_table(q8)
print("Q8 degrees:", ct.degrees, "(mod-p prime:", ct.prime, ")")
print("Q8 minimal faithful dimension:",
      min_faithful_irrep_dim(q8, get_cover(spec4).z))

# The Sylow-2 preimage in the cover of S_8 has order 2^8 = 256 and its
# smallest faithful irreducible has dimension 2^floor((8-1)/2) = 8.
spec = CoverSpec(8, "plus")
P8 = preimage_subgroup(sylow2_sym_generators(8), spec)
z = get_cover(spec).z
ct8 = dixon_character_table(P8)
print("\n|P~8| =", P8.order)
print("degrees:", sorted(set(ct8.degrees)),
      "with multiplicities summing to", len(ct8.degrees), "classes")
print("sum of squares == order:",
      sum(d * d for d in ct8.degrees) == P8.order)
print("min faithful dim:", min_faithful_irrep_dim(P8, z, ct8))
print("number of minimal faithful irreducibles:",
      count_min_faithful(P8, z, ct8))
