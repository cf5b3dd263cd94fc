"""Structure constants in, verified Hopf algebras out.

Builds group algebras, their duals, and the four-dimensional Taft algebra,
runs every axiom checker, and solves for antipodes instead of trusting
hand-written ones.
"""

import numpy as np

from hopffact import (
    check_hopf,
    cyclic_group,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    solve_antipode,
    sweedler_h4,
    symmetric_group,
)

# Group algebras kG: the antipode is inversion, and the checker agrees.
for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
    h, _ = group_algebra(group)
    print(f"kG, |G| = {group.order:>2}: check_hopf -> {check_hopf(h).describe()}")

# The dual Hopf algebra (kG)*: multiplication is the transpose of the
# coproduct, and the double dual has identical structure constants.
g = symmetric_group(3)
h, _ = group_algebra(g)
hd = dual_hopf(h)
print("dual of kS3:   check_hopf ->", check_hopf(hd).describe())
hdd = dual_hopf(hd)
same = all(map(np.array_equal, hdd.algebra.mult_op(), h.algebra.mult_op()))
print("double dual equals original:", same)

# The function algebra on G built directly (same thing, nicer labels).
fd = dual_group_algebra(g)
print("functions on S3:", check_hopf(fd).describe())

# Antipodes are solutions of a linear system in End(H).  For the Taft
# algebra the solved antipode has S² ≠ id on the skew primitive.
h4 = sweedler_h4()
s = solve_antipode(h4.algebra, h4.coalgebra)
print("Taft algebra antipode solved, equals stored:", s == h4.antipode)
s2 = s @ s
print("S² on the skew generator x has coefficient", s2.rows[2][2], "(≠ 1)")
