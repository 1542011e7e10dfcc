"""Walk through the two double covers of S_n.

Elements are pairs (central bit, permutation); multiplying them consults a
2-cocycle defined in the Clifford algebra, where the transposition (i, i+1)
lifts to the unit vector (e_i - e_{i+1})/sqrt(2).  Its values come from a
closed form in the inversions of the permutation, with no multivector.
"""

from schur_ed import CoverSpec, get_cover, verify_presentation

# In the 'plus' cover the generators square to 1; in the 'minus' cover they
# square to the central element z.
plus = get_cover(CoverSpec(5, "plus"))
minus = get_cover(CoverSpec(5, "minus"))

print("s1^2      =", plus.mul(plus.gen(1), plus.gen(1)))
print("t1^2      =", minus.mul(minus.gen(1), minus.gen(1)))
print("z         =", plus.z)

# Far-apart generators anticommute up to z in both covers:
print("(s1 s3)^2 =", plus.word(1, 3, 1, 3))
print("(t1 t3)^2 =", minus.word(1, 3, 1, 3))

# The braid relation distinguishes them again:
print("(s1 s2)^3 =", plus.word(1, 2, 1, 2, 1, 2))
print("(t1 t2)^3 =", minus.word(1, 2, 1, 2, 1, 2))

# Every defining relation, plus the group order 2 * n!:
for variant in ("plus", "minus"):
    report = verify_presentation(CoverSpec(5, variant))
    status = "ok" if report.all_ok else "FAILED: " + ", ".join(report.failures())
    print(f"n=5 {variant}: {len(report.relations)} relations {status}; "
          f"order {report.order} by {report.order_method}")
