"""Comodule algebras, K-matrices, and the braidings they induce.

A K-matrix in H⊗B plays the same role for the module category of B that an
R-matrix plays for the module category of H: it braids the action of H-mod
on B-mod.  Membership in the symmetric center is decided against the
regular B-module.
"""

from fractions import Fraction

from hopffact import (
    HModule,
    check_braided_module,
    check_k_matrix,
    module_braiding,
    named_example,
    regular_bmodule,
    regular_module,
    trivial_module,
    z2_membership,
)

# A subgroup kG' ⊆ kG is a comodule algebra with the trivial K-matrix
# (possible because the flip-braided kG is triangular).
b = named_example("subgroup:S3:C2")
print("kC2 ⊆ kS3 with K = 1⊗1:", check_k_matrix(b.kmatrix).describe())
x = regular_module(b.hopf)
print("trivial K braids trivially: e = id:",
      module_braiding(b.kmatrix, x, regular_bmodule(b.comodule)).is_identity())

# B = H with K = R₂₁R: the module braiding is the monodromy action.
d = named_example("double:C2")
print("B = D(C2), K = R21R:", check_k_matrix(d.kmatrix).describe())
m = regular_bmodule(d.comodule)
e = module_braiding(d.kmatrix, regular_module(d.hopf), m)
print("e on reg⊗reg is", f"{e.domain.dim}×{e.codomain.dim},",
      "identity?" , e.is_identity())

# Both braided-module identities hold on concrete instances, and the unit
# object always braids trivially.
x = regular_module(d.hopf)
t = trivial_module(d.hopf)
for left, right, label in ((x, x, "reg,reg"), (t, x, "1,reg")):
    v = check_braided_module(d.kmatrix, left, right, m)
    print(f"braided-module axioms on ({label}):", v.describe())

# Symmetric-center membership: the unit object is always central; the
# regular module of a factorizable double is not.
print("1 in Z2:", z2_membership(d.kmatrix, t))
print("regular in Z2:", z2_membership(d.kmatrix, x))
print("with K = 1⊗1 everything is central:",
      z2_membership(b.kmatrix, regular_module(b.hopf)))

# Sweedler's H4 over Q, whose R-matrix has coefficients ±1/2: the check runs
# on integer numerators over one denominator, so these verdicts are exact.
s = named_example("sweedler:1")
x, t = regular_module(s.hopf), trivial_module(s.hopf)
m = regular_bmodule(s.comodule)
for left, llabel in ((t, "1"), (x, "reg")):
    for right, rlabel in ((t, "1"), (x, "reg")):
        v = check_braided_module(s.kmatrix, left, right, m)
        print(f"H4 braided-module axioms on ({llabel},{rlabel}):", v.describe())
# a module family with a denominator: ρ(e_3) of X with 1/2 added at (0, 2)
stack = x.stack.copy()
stack[3, 0, 2] += Fraction(1, 2)
v = check_braided_module(s.kmatrix, HModule(x.space, stack, x.field), x, m)
print("H4 with ρ_X(e_3)[0, 2] + 1/2:", v.axiom, "at", v.witness)
