"""Canonical example factories: group algebras and their duals, the
four-dimensional Taft/Sweedler algebra with its one-parameter family of
R-matrices, Drinfeld doubles of finite groups, coideal subalgebra comodules,
and reflective algebras (crossed products with the twisted dual).

Every factory verifies its output with the axiom checkers before returning;
construction failures are hard errors, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import StructAlgebra, StructCoalgebra, check_coalgebra
from .comodule import (
    ComoduleAlgebra,
    KMatrix,
    check_comodule_algebra,
    check_k_matrix,
)
from .errors import HopffactError, UnknownExample
from .fields import QQ, Field
from .groups import FiniteGroup, group_by_name, subgroup_elements
from .hopf import HopfAlgebra, check_hopf, make_hopf
from .linalg import BasedSpace, MapMatrix
from .rmatrix import RMatrix, check_r_matrix, r_matrix, trivial_r_matrix
from .tensors import TensorElement, tensor_mult
from .verdicts import Verdict


def _verified(verdict: Verdict, what: str):
    if not verdict:
        raise HopffactError(f"{what} failed verification: {verdict.describe()}")


# ---------------------------------------------------------------------------
# Group algebras and duals
# ---------------------------------------------------------------------------

def group_algebra(g: FiniteGroup, field: Field = QQ) -> tuple[HopfAlgebra, RMatrix]:
    """kG with S(g) = g^{-1} and the trivial R-matrix."""
    f = field
    sp = BasedSpace(g.names)
    mult = {(i, j): {g.mul(i, j): f.one} for i in range(g.order) for j in range(g.order)}
    unit = tuple(f.one if i == g.identity else f.zero for i in range(g.order))
    alg = StructAlgebra(f, sp, mult, unit)
    comult = {i: {(i, i): f.one} for i in range(g.order)}
    counit = tuple(f.one for _ in range(g.order))
    coalg = StructCoalgebra(f, sp, comult, counit)
    s_rows = [
        [f.one if g.inv(j) == i else f.zero for j in range(g.order)]
        for i in range(g.order)
    ]
    h = make_hopf(alg, coalg, MapMatrix(f, sp, sp, s_rows))
    _verified(check_hopf(h), "group algebra")
    return h, trivial_r_matrix(h)


def dual_group_algebra(g: FiniteGroup, field: Field = QQ) -> HopfAlgebra:
    """(kG)*: the function Hopf algebra on G, on the basis of point masses."""
    f = field
    sp = BasedSpace(tuple(f"δ_{name}" for name in g.names))
    mult = {(i, i): {i: f.one} for i in range(g.order)}
    unit = tuple(f.one for _ in range(g.order))
    alg = StructAlgebra(f, sp, mult, unit)
    comult = {}
    for i in range(g.order):
        entry = {}
        for a in range(g.order):
            for b in range(g.order):
                if g.mul(a, b) == i:
                    entry[(a, b)] = f.one
        comult[i] = entry
    counit = tuple(f.one if i == g.identity else f.zero for i in range(g.order))
    coalg = StructCoalgebra(f, sp, comult, counit)
    s_rows = [
        [f.one if g.inv(j) == i else f.zero for j in range(g.order)]
        for i in range(g.order)
    ]
    h = make_hopf(alg, coalg, MapMatrix(f, sp, sp, s_rows))
    _verified(check_hopf(h), "dual group algebra")
    return h


# ---------------------------------------------------------------------------
# The four-dimensional Taft/Sweedler algebra
# ---------------------------------------------------------------------------

def sweedler_h4(field: Field = QQ) -> HopfAlgebra:
    """Basis 1, g, x, gx with g² = 1, x² = 0, xg = -gx; needs char ≠ 2."""
    f = field
    if getattr(f, "characteristic", 0) == 2:
        raise HopffactError("the four-dimensional algebra needs characteristic ≠ 2")
    one, neg = f.one, f.neg(f.one)
    sp = BasedSpace(("1", "g", "x", "g·x"))
    I, G, X, GX = 0, 1, 2, 3
    mult = {
        (I, I): {I: one}, (I, G): {G: one}, (I, X): {X: one}, (I, GX): {GX: one},
        (G, I): {G: one}, (G, G): {I: one}, (G, X): {GX: one}, (G, GX): {X: one},
        (X, I): {X: one}, (X, G): {GX: neg}, (X, X): {}, (X, GX): {},
        (GX, I): {GX: one}, (GX, G): {X: neg}, (GX, X): {}, (GX, GX): {},
    }
    unit = (one, f.zero, f.zero, f.zero)
    alg = StructAlgebra(f, sp, mult, unit)
    comult = {
        I: {(I, I): one},
        G: {(G, G): one},
        X: {(X, I): one, (G, X): one},
        GX: {(GX, G): one, (I, GX): one},
    }
    counit = (one, one, f.zero, f.zero)
    coalg = StructCoalgebra(f, sp, comult, counit)
    s_rows = [
        [one, f.zero, f.zero, f.zero],
        [f.zero, one, f.zero, f.zero],
        [f.zero, f.zero, f.zero, one],
        [f.zero, f.zero, neg, f.zero],
    ]
    h = make_hopf(alg, coalg, MapMatrix(f, sp, sp, s_rows))
    _verified(check_hopf(h), "four-dimensional Hopf algebra")
    return h


def sweedler_r_matrix(h: HopfAlgebra, lam) -> RMatrix:
    """The one-parameter R-matrix family; lam is a base-field element.

    lam = 0 is the triangular point of the family.
    """
    f = h.field
    lam = f.scalar(lam)
    half = f.inv(f.scalar(2))
    I, G, X, GX = 0, 1, 2, 3
    neg = f.neg
    coeffs = {
        (I, I): half, (I, G): half, (G, I): half, (G, G): neg(half),
    }
    lh = f.mul(lam, half)
    if not f.is_zero(lh):
        coeffs[(X, X)] = lh
        coeffs[(X, GX)] = neg(lh)
        coeffs[(GX, X)] = lh
        coeffs[(GX, GX)] = lh
    return r_matrix(h, TensorElement(f, (h.space, h.space), coeffs))


# ---------------------------------------------------------------------------
# Drinfeld double of a finite group
# ---------------------------------------------------------------------------

def drinfeld_double_group(g: FiniteGroup, field: Field = QQ) -> tuple[HopfAlgebra, RMatrix]:
    """D(G) on the basis δ_x·y with its canonical R-matrix.

    Product (δ_x y)(δ_x' y') = [x' = y^{-1}xy] δ_x(yy'); coproduct
    Δ(δ_x y) = Σ_{ab=x} δ_a y ⊗ δ_b y; R = Σ_g (δ_g e) ⊗ (Σ_x δ_x g).
    """
    f = field
    n = g.order
    names = g.names

    def idx(x, y):
        return x * n + y

    sp = BasedSpace(tuple(f"δ_{names[x]}·{names[y]}" for x in range(n) for y in range(n)))
    mult = {}
    for x in range(n):
        for y in range(n):
            i = idx(x, y)
            xp = g.mul(g.mul(g.inv(y), x), y)
            for yp in range(n):
                mult[(i, idx(xp, yp))] = {idx(x, g.mul(y, yp)): f.one}
    unit = [f.zero] * (n * n)
    for x in range(n):
        unit[idx(x, g.identity)] = f.one
    alg = StructAlgebra(f, sp, mult, tuple(unit))
    comult = {}
    for x in range(n):
        for y in range(n):
            entry = {}
            for a in range(n):
                b = g.mul(g.inv(a), x)
                entry[(idx(a, y), idx(b, y))] = f.one
            comult[idx(x, y)] = entry
    counit = tuple(
        f.one if x == g.identity else f.zero for x in range(n) for _ in range(n)
    )
    coalg = StructCoalgebra(f, sp, comult, counit)
    s_rows = [[f.zero] * (n * n) for _ in range(n * n)]
    for x in range(n):
        for y in range(n):
            tx = g.mul(g.mul(g.inv(y), g.inv(x)), y)
            s_rows[idx(tx, g.inv(y))][idx(x, y)] = f.one
    h = make_hopf(alg, coalg, MapMatrix(f, sp, sp, s_rows))
    _verified(check_hopf(h), "Drinfeld double")
    r_coeffs = {}
    for gg in range(n):
        for x in range(n):
            r_coeffs[(idx(gg, g.identity), idx(x, gg))] = f.one
    return h, r_matrix(h, TensorElement(f, (sp, sp), r_coeffs))


# ---------------------------------------------------------------------------
# Comodule algebras
# ---------------------------------------------------------------------------

def regular_comodule(h: HopfAlgebra) -> ComoduleAlgebra:
    """B = H with δ = Δ."""
    coaction = {i: dict(h.comult_basis(i)) for i in range(h.dim)}
    c = ComoduleAlgebra(h, h.algebra, coaction)
    _verified(check_comodule_algebra(c), "regular comodule algebra")
    return c


def trivial_comodule(h: HopfAlgebra) -> ComoduleAlgebra:
    """B = k with the trivial coaction 1 ↦ 1⊗1."""
    f = h.field
    sp = BasedSpace(("1_B",))
    alg = StructAlgebra(f, sp, {(0, 0): {0: f.one}}, (f.one,))
    coaction = {0: {(i, 0): c for i, c in h.unit_dict().items()}}
    c = ComoduleAlgebra(h, alg, coaction)
    _verified(check_comodule_algebra(c), "trivial comodule algebra")
    return c


def subgroup_comodule(g: FiniteGroup, sub_name: str, field: Field = QQ,
                      host: HopfAlgebra | None = None) -> ComoduleAlgebra:
    """kG' ⊆ kG as a comodule algebra via the restricted comultiplication."""
    f = field
    h = host if host is not None else group_algebra(g, f)[0]
    elems = subgroup_elements(g, sub_name)
    k = len(elems)
    pos = {e: i for i, e in enumerate(elems)}
    sp = BasedSpace(tuple(g.names[e] for e in elems))
    mult = {}
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            ab = g.mul(a, b)
            if ab not in pos:
                raise HopffactError("subgroup elements are not closed")
            mult[(i, j)] = {pos[ab]: f.one}
    unit = tuple(f.one if e == g.identity else f.zero for e in elems)
    alg = StructAlgebra(f, sp, mult, unit)
    coaction = {i: {(elems[i], i): f.one} for i in range(k)}
    c = ComoduleAlgebra(h, alg, coaction)
    _verified(check_comodule_algebra(c), "coideal subalgebra comodule")
    return c


def trivial_k_matrix(c: ComoduleAlgebra, r: RMatrix) -> KMatrix:
    """K = 1_H ⊗ 1_B (a K-matrix exactly when the host is triangular)."""
    f = c.field
    coeffs = {}
    for i, ci in c.host.unit_dict().items():
        for b, cb in c.algebra.unit_dict().items():
            coeffs[(i, b)] = f.mul(ci, cb)
    element = TensorElement(f, (c.host.space, c.algebra.space), coeffs)
    k = KMatrix(c, r, element, element)
    _verified(check_k_matrix(k), "trivial K-matrix")
    return k


def monodromy_k_matrix(c: ComoduleAlgebra, r: RMatrix) -> KMatrix:
    """B = H with K = R_21 R."""
    if c.algebra.space.labels != c.host.space.labels:
        raise HopffactError("the double-braiding K-matrix needs B = H")
    element = r.monodromy()
    k = KMatrix(c, r, element)
    _verified(check_k_matrix(k), "double-braiding K-matrix")
    return k


# ---------------------------------------------------------------------------
# Reflective algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectiveAlgebraData:
    base: ComoduleAlgebra
    hat_coalgebra: StructCoalgebra
    comodule: ComoduleAlgebra
    kmatrix: KMatrix


def _columns(m: MapMatrix) -> list:
    """The columns of ``m`` as sparse elements {index: coeff}."""
    return [{j: x for j, x in enumerate(col) if x} for col in zip(*m.rows)]


def _hat_coalgebra(h: HopfAlgebra, r: RMatrix) -> StructCoalgebra:
    """The twisted coproduct on H built from the R-matrix and S^{-1}."""
    f, mult = h.field, h.algebra.multiply
    s_inv = _columns(h.antipode_inv)
    comult = {}
    for t in range(h.dim):
        inner = {}
        for (d1, d2), dc in h.comult_basis(t).items():
            for (u, v), rc in r.element.coeffs.items():
                c = f.mul(dc, rc)
                left = mult({d1: f.one}, {v: f.one})
                right = mult({d2: f.one}, {u: f.one})
                for a, ca in left.items():
                    for b, cb in right.items():
                        key = (a, b)
                        val = f.mul(c, f.mul(ca, cb))
                        inner[key] = f.add(inner.get(key, f.zero), val)
        outer = {}
        for (a, b), c in inner.items():
            if f.is_zero(c):
                continue
            for (u2, v2), rc in r.element.coeffs.items():
                c2 = f.mul(c, rc)
                left = mult({v2: f.one}, {a: f.one})
                right = mult({b: f.one}, s_inv[u2])
                for a2, ca in left.items():
                    for b2, cb in right.items():
                        key = (a2, b2)
                        val = f.mul(c2, f.mul(ca, cb))
                        outer[key] = f.add(outer.get(key, f.zero), val)
        comult[t] = {k: v for k, v in outer.items() if not f.is_zero(v)}
    hat = StructCoalgebra(f, h.space, comult, h.coalgebra.counit)
    _verified(check_coalgebra(hat), "twisted coalgebra")
    return hat


def reflective_algebra(h: HopfAlgebra, r: RMatrix, a: ComoduleAlgebra) -> ReflectiveAlgebraData:
    """The crossed product of A with the opposite dual of the twisted
    coalgebra, as a quasitriangular comodule algebra.

    Everything is verified: the twisted coalgebra axioms, associativity of
    the crossed product, the comodule-algebra axioms of the installed
    coaction, and the K-matrix axioms of the canonical element.
    """
    f = h.field
    _verified(check_comodule_algebra(a), "base comodule algebra")
    nh = h.dim
    na = a.dim
    hat = _hat_coalgebra(h, r)
    # B0 = opposite dual of the twisted coalgebra
    b0_mult: dict = {}
    for t in range(nh):
        for (x, y), c in hat.comult_basis(t).items():
            b0_mult.setdefault((y, x), {})[t] = c
    b0_unit = tuple(hat.counit)
    # right translation: coords of f ↼ h_l on the dual basis
    s_inv = _columns(h.antipode_inv)
    act = []  # act[l][s] = dict over a: coeff of ⟨f_a⟩ in (f ↼ h_l) at h_s
    for l in range(nh):
        sl1 = []
        for s in range(nh):
            out = {}
            for (l1, l2), dc in h.comult_basis(l).items():
                mid = h.algebra.multiply(h.algebra.multiply({l2: f.one}, {s: f.one}),
                                         {j: f.mul(dc, x) for j, x in s_inv[l1].items()})
                for aidx, ca in mid.items():
                    out[aidx] = f.add(out.get(aidx, f.zero), ca)
            sl1.append({k: v for k, v in out.items() if not f.is_zero(v)})
        act.append(sl1)

    def hit(fvec: dict, l: int) -> dict:
        """f ↼ h_l for a sparse functional {a: coeff}."""
        out = {}
        for s in range(nh):
            val = f.zero
            for aidx, ca in act[l][s].items():
                if aidx in fvec:
                    val = f.add(val, f.mul(fvec[aidx], ca))
            if not f.is_zero(val):
                out[s] = val
        return out

    def b0_multiply(u: dict, v: dict) -> dict:
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for t, c in b0_mult.get((i, j), {}).items():
                    val = f.add(out.get(t, f.zero), f.mul(f.mul(ci, cj), c))
                    if f.is_zero(val):
                        out.pop(t, None)
                    else:
                        out[t] = val
        return out

    # crossed product on basis a_i ⊗ f_k
    n = na * nh
    sp = BasedSpace(tuple(
        f"{a.algebra.space.labels[i]}⊗{h.space.labels[k]}*"
        for i in range(na) for k in range(nh)
    ))

    def bidx(i, k):
        return i * nh + k

    mult: dict = {}
    for i in range(na):
        for k in range(nh):
            for i2 in range(na):
                for k2 in range(nh):
                    out: dict = {}
                    for (hh, aa), cv in a.coaction_basis(i2).items():
                        moved = hit({k: f.one}, hh)
                        if not moved:
                            continue
                        bpart = b0_multiply(moved, {k2: f.one})
                        if not bpart:
                            continue
                        apart = a.algebra.mult_basis(i, aa)
                        for ai, ca in apart.items():
                            for bk, cb in bpart.items():
                                key = bidx(ai, bk)
                                val = f.mul(cv, f.mul(ca, cb))
                                out[key] = f.add(out.get(key, f.zero), val)
                    out = {k3: v for k3, v in out.items() if not f.is_zero(v)}
                    if out:
                        mult[(bidx(i, k), bidx(i2, k2))] = out
    unit_vec = [f.zero] * n
    for i, ca in a.algebra.unit_dict().items():
        for k, cb in enumerate(b0_unit):
            if not f.is_zero(cb):
                unit_vec[bidx(i, k)] = f.mul(ca, cb)
    alg = StructAlgebra(f, sp, mult, tuple(unit_vec))

    # coaction: δ(a⊗ε) from the base coaction, δ(1⊗f) from the R-matrix
    # twist, extended multiplicatively
    algs2 = [h.algebra, h.algebra]
    tmats = [  # per k: {(w1, w2): coeff} for R_21 (h_k ⊗ 1) R
        tensor_mult(r.element.swap(), tensor_mult(
            TensorElement(f, r.element.factors, {(k, u): c for u, c in h.unit_dict().items()}),
            r.element, algs2), algs2).coeffs
        for k in range(nh)
    ]
    # δ_ref(f_k) = Σ_m ⟨f_k, first leg of T_m⟩ (second leg) ⊗ f_m
    dual_coaction = []
    for k in range(nh):
        entry: dict = {}
        for m in range(nh):
            for (w1, w2), c in tmats[m].items():
                if w1 == k:
                    key = (w2, m)
                    entry[key] = f.add(entry.get(key, f.zero), c)
        dual_coaction.append(entry)

    coaction: dict = {}
    eps_b0 = {k: c for k, c in enumerate(b0_unit) if not f.is_zero(c)}
    for i in range(na):
        base_part: dict = {}
        for (hh, aa), cv in a.coaction_basis(i).items():
            for k, cb in eps_b0.items():
                base_part[(hh, bidx(aa, k))] = f.mul(cv, cb)
        for k in range(nh):
            dual_part = {
                (hh, bidx(au, m)): f.mul(c, cu)
                for (hh, m), c in dual_coaction[k].items()
                for au, cu in a.algebra.unit_dict().items()
            }
            hb = (h.space, sp)  # the product in H ⊗ R_H(A)
            coaction[bidx(i, k)] = tensor_mult(TensorElement(f, hb, base_part),
                                               TensorElement(f, hb, dual_part),
                                               [h.algebra, alg]).coeffs
    comodule = ComoduleAlgebra(h, alg, coaction)
    _verified(check_comodule_algebra(comodule), "reflective algebra comodule")
    # crossed-product relation (1⊗f)(a'⊗1) = a'_[0] ⊗ (f ↼ a'_[-1])
    unit_a = a.algebra.unit_dict()
    for k in range(nh):
        left_el = {bidx(i, k): ca for i, ca in unit_a.items()}
        for i2 in range(na):
            right_el = {bidx(i2, k2): cb for k2, cb in eps_b0.items()}
            lhs = alg.multiply(left_el, right_el)
            rhs: dict = {}
            for (hh, aa), cv in a.coaction_basis(i2).items():
                for s, cs in hit({k: f.one}, hh).items():
                    key = bidx(aa, s)
                    rhs[key] = f.add(rhs.get(key, f.zero), f.mul(cv, cs))
            rhs = {k2: v for k2, v in rhs.items() if not f.is_zero(v)}
            if lhs != rhs:
                raise HopffactError(
                    f"crossed-product relation fails at (f_{k}, a_{i2})"
                )
    kcoeffs = {}
    for m in range(nh):
        for au, cu in a.algebra.unit_dict().items():
            kcoeffs[(m, bidx(au, m))] = cu
    element = TensorElement(f, (h.space, sp), kcoeffs)
    km = KMatrix(comodule, r, element)
    _verified(check_k_matrix(km), "reflective K-matrix")
    if comodule.dim != a.dim * h.dim:
        raise HopffactError("crossed product dimension mismatch")
    return ReflectiveAlgebraData(a, hat, comodule, km)


# ---------------------------------------------------------------------------
# Named-example registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExampleBundle:
    name: str
    field: Field
    hopf: HopfAlgebra
    rmatrix: RMatrix | None
    comodule: ComoduleAlgebra | None
    kmatrix: KMatrix | None


_REGISTRY_HELP = (
    "regular:<group>, double:<group>, reflective-trivial:<group>, "
    "subgroup:<G>:<G'>, sweedler:<λ>, group:<group>, dual:<group>"
)

_bundle_cache: dict = {}


def named_example(name: str, field: Field = QQ) -> ExampleBundle:
    """Fully checked bundle for a registry name; the known schemes are
    regular:<G>, double:<G>, reflective-trivial:<G>, subgroup:<G>:<G'>,
    sweedler:<λ>, group:<G>, and dual:<G>.

    Raises UnknownExample for anything else.
    """
    key = (name, field.tag)
    if key in _bundle_cache:
        return _bundle_cache[key]
    bundle = _build_example(name, field)
    _bundle_cache[key] = bundle
    return bundle


def _build_example(name: str, field: Field) -> ExampleBundle:
    parts = name.split(":")
    kind = parts[0]
    if kind == "regular" and len(parts) == 2:
        h, r = group_algebra(group_by_name(parts[1]), field)
        c = regular_comodule(h)
        k = monodromy_k_matrix(c, r)
        return ExampleBundle(name, field, h, r, c, k)
    if kind == "group" and len(parts) == 2:
        h, r = group_algebra(group_by_name(parts[1]), field)
        return ExampleBundle(name, field, h, r, None, None)
    if kind == "dual" and len(parts) == 2:
        g = group_by_name(parts[1])
        h = dual_group_algebra(g, field)
        r = None
        if _is_abelian(g):
            r = trivial_r_matrix(h)
            _verified(check_r_matrix(h, r.element), "dual group R-matrix")
        return ExampleBundle(name, field, h, r, None, None)
    if kind == "double" and len(parts) == 2:
        h, r = drinfeld_double_group(group_by_name(parts[1]), field)
        c = regular_comodule(h)
        k = monodromy_k_matrix(c, r)
        return ExampleBundle(name, field, h, r, c, k)
    if kind == "reflective-trivial" and len(parts) == 2:
        h, r = drinfeld_double_group(group_by_name(parts[1]), field)
        data = reflective_algebra(h, r, trivial_comodule(h))
        return ExampleBundle(name, field, h, r, data.comodule, data.kmatrix)
    if kind == "subgroup" and len(parts) == 3:
        g = group_by_name(parts[1])
        h, r = group_algebra(g, field)
        c = subgroup_comodule(g, parts[2], field, host=h)
        k = trivial_k_matrix(c, r)
        return ExampleBundle(name, field, h, r, c, k)
    if kind == "sweedler" and len(parts) == 2:
        h = sweedler_h4(field)
        r = sweedler_r_matrix(h, field.parse(parts[1]))
        c = regular_comodule(h)
        k = monodromy_k_matrix(c, r)
        return ExampleBundle(name, field, h, r, c, k)
    raise UnknownExample(f"unknown example {name!r}; known schemes: {_REGISTRY_HELP}")


def registry_names():
    """The concrete instances exercised by the test corpus."""
    return (
        "regular:C2", "regular:C3", "regular:S3",
        "dual:C2", "dual:C3",
        "sweedler:0", "sweedler:1",
        "double:C2", "double:C3",
        "reflective-trivial:C2", "reflective-trivial:C3",
        "subgroup:C2:C1", "subgroup:S3:C2", "subgroup:S3:C3", "subgroup:C1:C1",
        "group:C2", "group:S3",
    )


def _is_abelian(g: FiniteGroup) -> bool:
    return all(
        g.mul(i, j) == g.mul(j, i) for i in range(g.order) for j in range(g.order)
    )
