"""Reflective algebras: crossed products that are factorizable comodule
algebras.

For the double of a finite group acting on the trivial algebra, the crossed
product has a closed description: basis x·δ_y, a purely group-theoretic
product, and the canonical-element K-matrix Σ δ_g h ⊗ g δ_h.  All of it is
rebuilt here from the general construction and checked entrywise.

H-simplicity is decided by Norton's irreducibility test: the certificate
``norton`` means absolutely simple.  Over Q the proof comes from the
operators reduced mod a prime near 2**20, which suffices because a rational
costable ideal would reduce to one mod p.  A costable ideal found mod p is
rationally reconstructed and verified exactly over Q before it is shown.
"""

from hopffact import (
    GF,
    compute_end_space,
    group_algebra,
    h_simplicity,
    is_factorizable_comodule,
    named_example,
    reflective_algebra,
    regular_comodule,
    cyclic_group,
)

for gname in ("C2", "C3"):
    b = named_example(f"reflective-trivial:{gname}")
    verdict = h_simplicity(b.comodule)
    es = compute_end_space(b.comodule)
    print(f"R_(D({gname}))(k): dim {b.comodule.dim};",
          f"simplicity {verdict.status} ({verdict.certificate});",
          f"dim E = {es.dim};",
          "factorizable:", is_factorizable_comodule(b.kmatrix, es))

# The same computation at |G| = 6 runs over GF(101): dim B = 36 and the
# end-space kernel has 1296 unknowns.
b = named_example("reflective-trivial:S3", GF(101))
verdict = h_simplicity(b.comodule)
print(f"R_(D(S3))(k) over GF(101): dim {b.comodule.dim};",
      f"simplicity {verdict.status} ({verdict.certificate})")
es = compute_end_space(b.comodule)
print(f"dim E = {es.dim}; factorizable:",
      is_factorizable_comodule(b.kmatrix, es))

# The construction also accepts nontrivial base algebras: A = kC2 over the
# (triangular) kC2 gives a 4-dimensional crossed product, fully verified.
h, r = group_algebra(cyclic_group(2))
data = reflective_algebra(h, r, regular_comodule(h))
print("crossed product of kC2 with its twisted dual: dim",
      data.comodule.dim, "- construction is verification")
# It is not H-simple: the MeatAxe finds a costable ideal mod p, and its
# rational lift is re-checked over Q as a proper costable ideal.
verdict = h_simplicity(data.comodule)
print(f"its simplicity over Q: {verdict.status} ({verdict.certificate});",
      f"a {len(verdict.witness)}-dimensional costable ideal lifted from GF(p):",
      [[str(x) for x in vec] for vec in verdict.witness])
