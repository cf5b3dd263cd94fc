"""Canonical example factories: group algebras and their duals, the
four-dimensional Taft/Sweedler algebra with its one-parameter family of
R-matrices, Drinfeld doubles of finite groups, coideal subalgebra comodules,
and reflective algebras (crossed products with the twisted dual).

The group factories write their structure constants out from the group
table as nested dicts, which the constructors convert once into tables;
the reflective algebras derive theirs from the host's tables as families
of the product kernel of ``tensors`` and pass them in as they are, since
the tables are the storage.

Every factory verifies its output with the axiom checkers before returning;
construction failures are hard errors, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .hopf import HopfAlgebra, _sandwich_maps, check_hopf, make_hopf
from .linalg import BasedSpace, MapMatrix, _dtype, _gather, _mul, _scalar_rows, _sparse_op
from .rmatrix import RMatrix, check_r_matrix, r_matrix, trivial_r_matrix
from .tensors import (TensorElement, _coapply, _differing, _element, _embed, _flip,
                      _linear_op, _members, _products, _units, tensor_unit)
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
    c = ComoduleAlgebra(h, h.algebra, h.coalgebra.comult_op())
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
    element = tensor_unit(c.field, (c.host.space, c.algebra.space), [c.host.algebra, c.algebra])
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


def _hat_coalgebra(h: HopfAlgebra, r: RMatrix) -> StructCoalgebra:
    """The twisted coproduct Δ̂(t) = R̃·(Δ(t)·R21) on H, verified.

    For R = Σ u⊗v, R̃ = (id⊗S⁻¹)(R21) = Σ v ⊗ S⁻¹(u), and the outer product
    is taken in H⊗H^op, whose second slot multiplies by ``mult_op`` with its
    input pairs swapped: Δ̂(t) = Σ v·t_(1)·v' ⊗ t_(2)·u'·S⁻¹(u).
    """
    f, n = h.field, h.dim
    m = h.algebra.mult_op()
    i, j = np.divmod(_members(m), n)
    m_op = _sparse_op(f, j * n + i, m[2], m[3], n * n, n)
    r21 = _flip(f, r.element._fam, (n, n))
    r_tilde = _coapply(f, r21, (n, n), 1, _linear_op(f, h.antipode_inv.array), n)
    inner = _products(f, h.coalgebra.comult_op(), r21, [m, m], [n, n])
    hat_fam = _products(f, r_tilde, inner, [m, m_op], [n, n])
    hat = StructCoalgebra(f, h.space, hat_fam, h.coalgebra.counit)
    _verified(check_coalgebra(hat), "twisted coalgebra")
    return hat


def _right_translation(h: HopfAlgebra):
    """The matrix M_l of x ↦ h_(2)·x·S⁻¹(h_(1)), the adjoint action of
    H^cop, for every basis element h_l, as a family keyed row·n + column:
    ``hopf._sandwich_maps`` of (id⊗S⁻¹)Δ^op.  The right translation
    f ↼ h_l of a functional f has coordinates M_lᵀf."""
    f, n = h.field, h.dim
    d_op = _flip(f, h.coalgebra.comult_op(), (n, n))
    s_inv = _linear_op(f, h.antipode_inv.array)
    return _sandwich_maps(h.algebra, _coapply(f, d_op, (n, n), 1, s_inv, n))


def reflective_algebra(h: HopfAlgebra, r: RMatrix, a: ComoduleAlgebra) -> ReflectiveAlgebraData:
    """The crossed product A ⋊ B0 of A with B0 = (Ĥ*)^op, the opposite dual
    of the twisted coalgebra, as a quasitriangular comodule algebra on the
    basis a_i ⊗ f_k (index i·nh + k), built from the structure tables.

    - B0: f_x·f_y = Σ_t ⟨Δ̂(t), f_y⊗f_x⟩ f_t, the Δ̂ family re-keyed from
      (t; x, y) to y·nh + x → t, with unit ε.
    - The right translation f ↼ h has coordinates M_hᵀf, where M_h is the
      matrix of x ↦ h_(2)·x·S⁻¹(h_(1)) (``_right_translation``).
    - M1[k·na + j] = (1⊗f_k)(a_j⊗1) = Σ a_[0] ⊗ (f_k ↼ a_[-1]) over δ(a_j),
      one gather through the M_h.  The product (a_i⊗f_k)(a_j⊗f_l) is
      (a_i⊗1)·M1[k·na + j]·(1⊗f_l) in A⊗B0, and the two products of the
      families give it the element index (i·nh + k)·n + j·nh + l.
    - δ(a⊗f) = δ(a⊗1)·δ(1⊗f), with δ(a⊗1) A's coaction and
      δ(1⊗f_k) = Σ_m ⟨f_k, T_m'⟩ T_m'' ⊗ (1⊗f_m) for T_m = R21(e_m⊗1)R.
    - K = Σ_m e_m ⊗ (1⊗f_m).

    Everything is verified: the twisted coalgebra axioms, the
    comodule-algebra axioms of the crossed product, the crossed-product
    relation (1⊗f_k)(a_j⊗1) = M1[k·na + j], and the K-matrix axioms.
    """
    f = h.field
    _verified(check_comodule_algebra(a), "base comodule algebra")
    nh, na = h.dim, a.dim
    n = na * nh
    mh, rf = h.algebra.mult_op(), r.element._fam
    basis_a, basis_h = (_linear_op(f, np.eye(m, dtype=np.int64)) for m in (na, nh))
    hat = _hat_coalgebra(h, r)
    d = hat.comult_op()
    x, y = np.divmod(d[2], nh)
    b0_fam = _sparse_op(f, y * nh + x, _members(d), d[3], nh * nh, nh)
    b0 = StructAlgebra(f, h.space.dual(), b0_fam, h.coalgebra.counit)
    # element l·nh + k of ``moved`` is f_k ↼ h_l, read off row k of M_l
    mats = _right_translation(h)
    row, col = np.divmod(mats[2], nh)
    moved = _sparse_op(f, _members(mats) * nh + row, col, mats[3], nh * nh, nh)
    delta = a.coaction_op()
    e, k = np.divmod(np.arange(delta[2].size * nh), nh)  # each coaction term with each f_k
    hh, aa = np.divmod(delta[2][e], na)
    rep, s, c = _gather(moved, hh * nh + k)
    m1 = _sparse_op(f, k[rep] * na + _members(delta)[e[rep]], aa[rep] * nh + s,
                    _mul(f, delta[3][e[rep]], c), n, n)
    a1 = _embed(f, basis_a, [na], (0,), [None, b0])  # element i: a_i ⊗ 1
    f1 = _embed(f, basis_h, [nh], (1,), [a.algebra, None])  # element k: 1 ⊗ f_k
    ops = [a.algebra.mult_op(), b0.mult_op()]
    prod = _products(f, _products(f, a1, m1, ops, [na, nh]), f1, ops, [na, nh])
    _, _, key, val = _units(f, [a.algebra, b0])
    unit = np.zeros(n, dtype=_dtype(f))
    unit[key] = val
    sp = a.algebra.space.tensor(b0.space)
    alg = StructAlgebra(f, sp, prod, _scalar_rows(f, unit[None])[0])
    # T_m = R21 (e_m⊗1) R, and δ(1⊗f_k) = Σ_m ⟨f_k, T_m'⟩ T_m'' ⊗ (1⊗f_m)
    e_1 = _embed(f, basis_h, [nh], (0,), [None, h.algebra])
    t = _products(f, _flip(f, rf, (nh, nh)), e_1, [mh, mh], [nh, nh])
    t = _products(f, t, rf, [mh, mh], [nh, nh])
    w1, w2 = np.divmod(t[2], nh)
    dual = _sparse_op(f, w1, w2 * nh + _members(t), t[3], nh, nh * nh)
    dual = _embed(f, dual, [nh, nh], (0, 2), [None, a.algebra, None])
    base = _embed(f, delta, [nh, na], (0, 1), [None, None, b0])  # δ(a_i ⊗ 1)
    coaction = _products(f, base, dual, [mh, alg.mult_op()], [nh, n])
    comodule = ComoduleAlgebra(h, alg, coaction)
    _verified(check_comodule_algebra(comodule), "reflective algebra comodule")
    bad = _differing(f, _products(f, f1, a1, [alg.mult_op()], [n]), m1, n)
    if bad.size:
        k, j = divmod(int(bad[0]), na)
        raise HopffactError(f"crossed-product relation fails at (f_{k}, a_{j})")
    canonical = _sparse_op(f, np.zeros_like(f1[2]), _members(f1) * n + f1[2], f1[3], 1, nh * n)
    km = KMatrix(comodule, r, _element(f, (h.space, sp), canonical))
    _verified(check_k_matrix(km), "reflective K-matrix")
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
