"""Sylow 2-subgroups of the alternating-group covers at small n.

For n = 4, 5 the Sylow 2-subgroup of the cover of A_n is the quaternion
group Q8; for n = 6, 7 it is the generalized quaternion group Q16.  The
generating witnesses are explicit words in the cover generators.  A 2-group
of order at least 8 with a single involution and no element of full order
is generalized quaternion, which is what `is_generalized_quaternion` checks.
"""

from schur_ed import (
    CoverSpec,
    center,
    conjugacy_classes,
    cover_subgroup,
    get_cover,
    is_generalized_quaternion,
    preimage_subgroup,
    sylow2_alt_generators,
)

cov = get_cover(CoverSpec(4, "plus"))
sigma = cov.word(1, 2, 3, 1, 2, 3)   # projects to (1 3)(2 4)
tau = cov.word(1, 3)                 # projects to (1 2)(3 4)
print("sigma =", sigma)
print("tau   =", tau)
print("sigma^2 == tau^2 == z:",
      cov.mul(sigma, sigma) == cov.z == cov.mul(tau, tau))
print("sigma tau == z tau sigma:",
      cov.mul(sigma, tau) == cov.mul(cov.z, cov.mul(tau, sigma)))

witness = cover_subgroup([sigma, tau], cov.spec, 64)
print("witness group order:", witness.order)
print("isomorphic to Q8:",
      witness.order == 8 and is_generalized_quaternion(witness))
print("class sizes:", sorted(len(c) for c in conjugacy_classes(witness)))

# The same group arrives as the preimage of a Sylow 2-subgroup of A_4:
H4 = preimage_subgroup(sylow2_alt_generators(4), CoverSpec(4, "plus"))
print("preimage of Sylow_2(A_4) iso Q8:",
      H4.order == 8 and is_generalized_quaternion(H4))
print("its center:", len(center(H4)), "elements")

# And at n = 6 the Q16 witnesses:
cov6 = get_cover(CoverSpec(6, "plus"))
x = cov6.word(1, 2, 3, 5)            # projects to (1 2 3 4)(5 6)
y = cov6.word(1, 3)
print("\nn=6: x^8 = 1:", cov6.power(x, 8) == cov6.identity,
      "| y^2 = x^4:", cov6.power(y, 2) == cov6.power(x, 4),
      "| y x y^-1 = x^-1:",
      cov6.mul(cov6.mul(y, x), cov6.inv(y)) == cov6.inv(x))
H6 = preimage_subgroup(sylow2_alt_generators(6), CoverSpec(6, "plus"))
print("preimage of Sylow_2(A_6) iso Q16:",
      H6.order == 16 and is_generalized_quaternion(H6))
