"""Comodule algebras over a quasitriangular Hopf algebra: K-matrices and the
braidings they induce, the end space E(H,B), the factorizability map and
copairing, weak factorizability, costable ideals and H-simplicity, and
symmetric-center membership."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebras import StructAlgebra, algebra_generators, check_algebra
from .errors import HopffactError, ImageEscapesEndSpace, SpaceMismatch
from .fields import GF, Field, PrimeField
from .hopf import (
    HModule,
    HopfAlgebra,
    _check_representation,
    _kron_sum,
    _regular,
    element_terms,
    kron_sums,
)
from .linalg import (
    BasedSpace,
    MapMatrix,
    Span,
    _SLAB_COLUMNS,
    _SLICE_CELLS,
    _OverBudget,
    _combine,
    _dtype,
    _field_array,
    _gather,
    _gf_echelon,
    _kernel,
    _lift_prime,
    _mod_image,
    _mod_matmul,
    _mul,
    _neg,
    _over,
    _reduce,
    _scalar_rows,
    _sparse_kernel,
    _sparse_op,
    _sparse_values,
    rank_of,
    rational_lift,
    spin,
)
from .meataxe import norton
from .rmatrix import RMatrix
from .tensors import (
    TensorElement,
    _coapply,
    _columns,
    _linear_op,
    _differing,
    _embed,
    _first_failure,
    _flat,
    _members,
    _products,
    _table_of,
    _units,
    tensor_invert,
    verify_inverse,
)
from .verdicts import Verdict

BModule = HModule  # same data: one endomorphism per algebra basis element


class ComoduleAlgebra:
    """An algebra B with a coaction δ: B → H⊗B, given as its table (a
    family, see ``tensors``) or as nested dicts {b: {(h, b'): c}},
    converted once."""

    __slots__ = ("host", "algebra", "_ops", "_op")

    def __init__(self, host: HopfAlgebra, algebra: StructAlgebra, coaction):
        if algebra.field != host.field:
            raise SpaceMismatch("comodule algebra must share the host's field")
        if isinstance(coaction, dict):
            dims = (host.dim, algebra.dim)
            coaction = _table_of(host.field, coaction, dims[1:], dims)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_ops", None)
        object.__setattr__(self, "_op", coaction)

    def __setattr__(self, *a):
        raise AttributeError("ComoduleAlgebra is immutable")

    def coaction_op(self):
        """The coaction as a family (see ``tensors``): element b is δ(b) on
        the flattened H⊗B."""
        return self._op

    @property
    def field(self) -> Field:
        return self.host.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __repr__(self):
        return f"ComoduleAlgebra(dim B={self.dim}, dim H={self.host.dim})"


def check_comodule_algebra(c: ComoduleAlgebra) -> Verdict:
    """δ is an algebra map, coassociative, and counital.

    Multiplicativity is checked on all pairs (i, j) at once, then
    coassociativity and the counit law on every b at once; at the first
    failing b coassociativity is named before the counit.
    """
    f, h = c.field, c.host
    nb, nh = c.dim, h.dim
    v = check_algebra(c.algebra)
    if not v:
        return v
    mh, mb, delta = h.algebra.mult_op(), c.algebra.mult_op(), c.coaction_op()
    if _differing(f, _coapply(f, _units(f, [c.algebra]), (nb,), 0, delta, nh * nb),
                  _units(f, [h.algebra, c.algebra]), nh * nb).size:
        return Verdict.failed("coaction-algebra-map", None, "δ(1) ≠ 1⊗1")
    bad = _differing(f, _coapply(f, mb, (nb,), 0, delta, nh * nb),  # element i·nb + j
                     _products(f, delta, delta, [mh, mb], [nh, nb]), nh * nb)
    if bad.size:
        return Verdict.failed("coaction-algebra-map", divmod(int(bad[0]), nb))
    counit = _linear_op(f, [h.coalgebra.counit])
    bad = _first_failure(
        _differing(f, _coapply(f, delta, (nh, nb), 0, h.coalgebra.comult_op(), nh * nh),
                   _coapply(f, delta, (nh, nb), 1, delta, nh * nb), nh * nh * nb),
        _differing(f, _coapply(f, delta, (nh, nb), 0, counit, 1),
                   _linear_op(f, np.eye(nb, dtype=np.int64)), nb),
    )
    if bad:
        return Verdict.failed(("coaction-coassociativity", "coaction-counit")[bad[1]], bad[:1])
    return Verdict.passed()


class KMatrix:
    """An invertible element of H⊗B with its verified inverse and host data.

    The inverse is computed when not supplied; a supplied one is verified
    two-sided, and NotInvertible is raised when it fails.
    """

    __slots__ = ("comodule", "rmatrix", "element", "inverse", "_theta", "_braided")

    def __init__(self, comodule: ComoduleAlgebra, rmatrix: RMatrix,
                 element: TensorElement, inverse: TensorElement | None = None):
        if rmatrix.host is not comodule.host and \
                rmatrix.host.space.labels != comodule.host.space.labels:
            raise SpaceMismatch("R-matrix and comodule algebra host differ")
        expected = (comodule.host.space.labels, comodule.algebra.space.labels)
        if tuple(sp.labels for sp in element.factors) != expected:
            raise SpaceMismatch("element must live in H⊗B")
        algs = [comodule.host.algebra, comodule.algebra]
        if inverse is None:
            inverse = tensor_invert(element, algs)
        else:
            verify_inverse(element, inverse, algs)
        object.__setattr__(self, "comodule", comodule)
        object.__setattr__(self, "rmatrix", rmatrix)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "_theta", None)
        object.__setattr__(self, "_braided", None)

    def __setattr__(self, *a):
        raise AttributeError("KMatrix is immutable")

    @property
    def host(self) -> HopfAlgebra:
        return self.comodule.host

    def __repr__(self):
        return f"KMatrix(dim H={self.host.dim}, dim B={self.comodule.dim})"


def check_k_matrix(k: KMatrix) -> Verdict:
    """The three K-matrix axioms, entrywise in H⊗H⊗B and H⊗B; axiom (iii)
    on every basis element b at once."""
    c, h = k.comodule, k.host
    f, nh, nb = h.field, h.dim, c.dim
    halg, balg = h.algebra, c.algebra
    algs3 = [halg, halg, balg]
    ops3, dims3 = [halg.mult_op(), halg.mult_op(), balg.mult_op()], [nh, nh, nb]

    def leg(t, slots):
        return _embed(f, _flat(t), [sp.dim for sp in t.factors], slots, algs3)

    def product(*factors):
        return functools.reduce(lambda a, b: _products(f, a, b, ops3, dims3), factors)

    r = k.rmatrix
    r21, r21_inv = leg(r.element, (1, 0)), leg(r.inverse, (1, 0))
    r12, k13, k23 = leg(r.element, (0, 1)), leg(k.element, (0, 2)), leg(k.element, (1, 2))
    kf, delta = _flat(k.element), c.coaction_op()
    if _differing(f, _coapply(f, kf, (nh, nb), 0, h.coalgebra.comult_op(), nh * nh),
                  product(k23, r21, k13, r21_inv), nh * nh * nb).size:
        return Verdict.failed("kmatrix-i", None, "(Δ⊗id)K ≠ K23 R21 K13 R21⁻¹")
    if _differing(f, _coapply(f, kf, (nh, nb), 1, delta, nh * nb),
                  product(r21, k13, r12), nh * nh * nb).size:
        return Verdict.failed("kmatrix-ii", None, "(id⊗δ)K ≠ R21 K13 R12")
    bad = _differing(f, _products(f, kf, delta, ops3[1:], dims3[1:]),  # element b of each side
                     _products(f, delta, kf, ops3[1:], dims3[1:]), nh * nb)
    if bad.size:
        return Verdict.failed("kmatrix-iii", (int(bad[0]),), "Kδ(b) ≠ δ(b)K")
    return Verdict.passed()


def regular_bmodule(c: ComoduleAlgebra) -> BModule:
    return _regular(c.algebra)


def module_braiding(k: KMatrix, x: HModule, m: BModule) -> MapMatrix:
    """e_{X,M}: X⊗M → X⊗M, x⊗m ↦ (first leg · x) ⊗ (second leg ∗ m)."""
    sp = x.space.tensor(m.space)
    return MapMatrix(k.host.field, sp, sp, kron_sums(element_terms(k.element), x, m)[0])


# ---------------------------------------------------------------------------
# Batched sparse verification of the braided-module axioms, with the sparse
# operators of ``linalg``
# ---------------------------------------------------------------------------

def _act(f, batch, dims, step, legs, order, limit):
    """Apply a two-leg operator, ``_kron_sum``'s (operator, d), to ``legs``
    (la, lb) of a batch of columns, then reorder the legs by ``order``; the
    batch is (column, [three leg indices], integer numerators, their one
    denominator), and the result's denominator is the batch's times d.

    Equal entries are summed only when the step grew the batch: a step with
    at most one entry per input passes its entries on unsorted, and the sum
    at the end of the chain adds what is left."""
    col, idx, val, den = batch
    (op, d), (la, lb) = step, legs
    rep, out, tv = _gather(op, idx[la] * dims[lb] + idx[lb], limit)
    idx = [i[rep] for i in idx]
    idx[la], idx[lb] = np.divmod(out, dims[lb])
    idx, dims = [idx[p] for p in order], [dims[p] for p in order]
    col, val = col[rep], _mul(f, val[rep], tv)
    if rep.size > batch[0].size:
        key, val = _combine(f, _batch_keys(col, idx, dims), val)
        col, flat = np.divmod(key, dims[0] * dims[1] * dims[2])
        idx = list(np.unravel_index(flat, dims))
    return (col, idx, val, den * d), dims


def _batch_keys(col, idx, dims):
    """The keys column·dim + flat index of a batch's entries."""
    return col * (dims[0] * dims[1] * dims[2]) + (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]


def _failing_columns(f, lhs, rhs, first, last, dims, limit):
    """The columns first..last-1 of X⊗Y⊗M on which an identity fails:
    ``lhs`` is the left side on X⊗Y⊗M, as ``_kron_sum``'s operator and
    denominator and the column its input 0 stands for, ``rhs`` the two-leg
    steps.  Both sides are integer numerators over one denominator each,
    d_lhs and d_rhs, so lhs − rhs is formed exactly as
    d_rhs·lhs − d_lhs·rhs."""
    n = dims[0] * dims[1] * dims[2]
    op, d_lhs, base = lhs
    cols = np.arange(first, last, dtype=np.int64)
    rep, out, val = _gather(op, cols - base, limit)
    ones = _sparse_values(f, [f.one]).repeat(cols.size)
    right, d = (cols, list(np.unravel_index(cols, dims)), ones, 1), dims
    for step, legs, order in rhs:
        right, d = _act(f, right, d, step, legs, order, limit)
    col, idx, rval, d_rhs = right
    key, _ = _combine(f, np.concatenate(((rep + first) * n + out, _batch_keys(col, idx, d))),
                      np.concatenate((val * d_rhs, _neg(f, rval * d_lhs))))
    return np.unique(key // n)


def _in_columns(f, fam, d: int, lo: int, hi: int):
    """The entries of a matrix family (``HModule.family``) in columns lo..hi-1,
    moved to columns 0..hi-lo-1."""
    col = fam[2] % d
    keep = (col >= lo) & (col < hi)
    return _sparse_op(f, _members(fam)[keep], fam[2][keep] - lo, fam[3][keep], fam[0].size, d * d)


def _braided_share(k: KMatrix):
    """The part of ``check_braided_module`` that depends on K alone, built
    on first use and kept on k for its lifetime: the columns of (Δ⊗id)K
    and of (id⊗δ)K on H⊗H⊗B, the coefficient row of (ε⊗id)K on B, the
    terms of K and of R (``element_terms``), and those of R and R⁻¹ as
    groups 0 and 1 of one set."""
    if k._braided is None:
        h, r = k.host, k.rmatrix
        f, nh, nb = h.field, h.dim, k.comodule.dim
        kf = _flat(k.element)
        delta_k = _coapply(f, kf, (nh, nb), 0, h.coalgebra.comult_op(), nh * nh)
        coact_k = _coapply(f, kf, (nh, nb), 1, k.comodule.coaction_op(), nh * nb)
        eps_k = _coapply(f, kf, (nh, nb), 0, _linear_op(f, [h.coalgebra.counit]), 1)
        eps_row = np.zeros((1, nb), dtype=_dtype(f))
        eps_row[0, eps_k[2]] = eps_k[3]
        r_terms, r_inv = element_terms(r.element), element_terms(r.inverse)
        r_pair = tuple(map(np.concatenate, zip(r_terms, (r_inv[0] + 1, *r_inv[1:]))))
        object.__setattr__(k, "_braided", (
            *(_columns(t, (nh, nh, nb)) for t in (delta_k, coact_k)), eps_row,
            element_terms(k.element), r_terms, r_pair))
    return k._braided


def check_braided_module(k: KMatrix, x: HModule, y: HModule, m: BModule) -> Verdict:
    """Both braided-module identities on a concrete (X, Y, M), and the unit law.

    Identity 1 is e_{X⊗Y,M} = (id_X ▷ e_{Y,M}) c_{Y,X} (id_Y ▷ e_{X,M}) c_{Y,X}⁻¹
    and identity 2 is e_{X,Y▷M} = c_{Y,X} (id_Y ▷ e_{X,M}) c_{X,Y} (Kolb 2020).
    Each side is applied to a batch of basis columns of X⊗Y⊗M at once: the
    braidings and e are two-leg sparse operators, and the left sides,
    (Δ⊗id)K and (id⊗δ)K, three-leg ones, each a sum of outer products of
    the nonzeros of the action matrices.  Each module's nonzeros are
    gathered once for its lifetime (``HModule.family``), the K-matrix's
    share (the terms of K, R, R⁻¹ and of the left sides, and the
    coefficients of (ε⊗id)K) once for the KMatrix's (``_braided_share``),
    and each two-leg operator is built once per call and shared by both
    identities (when X is Y, c_{X,Y} is c_{Y,X} and e_{Y,M} is e_{X,M});
    R and R⁻¹ on (Y, X) are one operator with two groups of inputs.
    Every operator and batch holds integer numerators over one
    denominator (``_kron_sum``), which a step multiplies by its operator's,
    so no Fraction is formed along the chain; over GF(p) every
    denominator is 1.  Along a chain of steps, equal keys are summed only
    after a step that grew the batch; the one sum of d_rhs·lhs − d_lhs·rhs
    at the end is exact either way.  Every column is checked exactly;
    dense matrices on X⊗Y⊗M are never formed.

    The columns, row-major (jx, jy, jm), go in slabs of ascending jx: a
    slab is a run of X columns [lo, hi), that is the columns
    [lo·dim Y·dim M, hi·dim Y·dim M), with as many X columns as keep it
    within ``linalg._SLAB_COLUMNS`` columns (at least one).  The left sides
    of a slab are operators on its columns alone, built from X's action
    entries in its X columns; when one slab covers every column, X's
    entries are used as they are.  Within a slab, batches are halved until
    no expansion exceeds ``linalg._SLICE_CELLS`` entries.
    The witness is the first failing column (jx, jy, jm) in lexicographic
    order, named by identity 1 when it fails there.

    The unit law e_{1,M} = id is ρ_M((ε⊗id)K) = id: one product of the
    coefficients of (ε⊗id)K with M's action matrices.
    """
    f = k.host.field
    terms1, terms2, eps_row, k_terms, r_terms, r_pair = _braided_share(k)
    dims = [x.dim, y.dim, m.dim]
    swap = (1, 0, 2)
    keep = (0, 1, 2)

    def two_leg(terms, a, b, groups=1):
        return _kron_sum(f, terms, (a.family(), b.family()), (a.dim, b.dim), groups)

    # R and R⁻¹ on (Y, X) as one operator whose second group of inputs,
    # from dim Y·dim X on, is R⁻¹'s: its counts and offsets start there
    rr, d_r = two_leg(r_pair, y, x, 2)
    half = y.dim * x.dim
    r_yx, r_inv_yx = (rr, d_r), ((rr[0][half:], rr[1][half:], *rr[2:]), d_r)
    e_xm = two_leg(k_terms, x, m)
    same = x is y
    # input legs (x, y, m): c_{Y,X}⁻¹ puts the first leg of R⁻¹ on Y and the
    # second on X, giving (y, x, m); c_{Y,X} puts the first R-leg on Y and
    # returns to (x, y, m); c_{X,Y} puts it on X and gives (y, x, m)
    rhs1 = [
        (r_inv_yx, (1, 0), swap),
        (e_xm, (1, 2), keep),
        (r_yx, (0, 1), swap),
        (e_xm if same else two_leg(k_terms, y, m), (1, 2), keep),
    ]
    rhs2 = [
        (r_yx if same else two_leg(r_terms, x, y), (0, 1), swap),
        (e_xm, (1, 2), keep),
        (r_yx, (0, 1), swap),
    ]
    # e_{X⊗Y,M}: (Δ⊗id)K, Δ on the first K-leg; e_{X,Y▷M}: (id⊗δ)K
    legs = (x.family(), y.family(), m.family())
    plane = dims[1] * dims[2]  # the columns of X⊗Y⊗M in one X column
    step = max(1, _SLAB_COLUMNS // plane)
    size = step * plane
    for lo in range(0, dims[0], step):
        hi = min(dims[0], lo + step)
        slab = legs if step >= dims[0] else (_in_columns(f, legs[0], dims[0], lo, hi), *legs[1:])
        base, last = lo * plane, hi * plane
        lhs1, lhs2 = ((*_kron_sum(f, terms, slab, dims, n_in=last - base), base)
                      for terms in (terms1, terms2))
        first = base
        while first < last:
            stop = min(last, first + size)
            limit = _SLICE_CELLS if stop - first > 1 else None
            try:
                bad1 = _failing_columns(f, lhs1, rhs1, first, stop, dims, limit)
                bad2 = _failing_columns(f, lhs2, rhs2, first, stop, dims, limit)
            except _OverBudget:
                size = (stop - first + 1) // 2
                continue
            if bad1.size or bad2.size:
                col = int(min(bad1[:1].tolist() + bad2[:1].tolist()))
                axiom = "braided-module-1" if col in bad1 else "braided-module-2"
                return Verdict.failed(axiom, tuple(int(i) for i in np.unravel_index(col, dims)))
            first = stop
    # unit law e_{1,M} = id
    d = m.dim
    acts = m.stack.reshape(eps_row.shape[1], d * d)
    if not np.array_equal(_mod_matmul(f, eps_row, acts)[0], np.eye(d, dtype=acts.dtype).ravel()):
        return Verdict.failed("braided-module-unit", None, "e_{1,M} ≠ id")
    return Verdict.passed()


def z2_membership(k: KMatrix, x: HModule) -> bool:
    """Symmetric-center membership: e_{X,M} = id for every B-module M.

    Naturality reduces the quantifier over all modules to the regular one:
    every finite-dimensional module is a quotient of a free one and the
    braiding commutes with surjections.  Write K = Σ_b k_b ⊗ e_b and
    1_B = Σ_b u_b e_b; e_{X,B}(v⊗1) = Σ_b ρ_X(k_b)v ⊗ e_b, so X lies in Z₂
    exactly when ρ_X(k_b) = u_b·id for every b.  That is one product of
    K's coefficient matrix with X's stacked action matrices.
    """
    f, nh, nb, d = k.host.field, k.host.dim, k.comodule.dim, x.dim
    kf = _flat(k.element)
    a, b = np.divmod(kf[2], nb)
    coeffs = np.zeros((nb, nh), dtype=_dtype(f))
    coeffs[b, a] = kf[3]
    acts = x.stack.reshape(nh, d * d)
    want = np.zeros((nb, d * d), dtype=_dtype(f))
    want[:, ::d + 1] = _field_array(f, k.comodule.algebra.unit)[:, None]
    return np.array_equal(_mod_matmul(f, coeffs, acts), want)


# ---------------------------------------------------------------------------
# End space E(H,B)
# ---------------------------------------------------------------------------

class EndSpace:
    """Span of the intertwiners ξ: H → B, with the induced H-action ``module``.

    The basis, flattened, is the columns of ``_kernel``, which are the
    identity on the rows ``_free`` (ascending); ``_columns`` holds their
    nonzeros as a sparse operator from column to row.
    """

    __slots__ = ("comodule", "module", "basis_maps", "_kernel", "_free", "_columns")

    def __init__(self, comodule, module, basis_maps, kernel, free, columns):
        object.__setattr__(self, "comodule", comodule)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "basis_maps", tuple(basis_maps))
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_free", free)
        object.__setattr__(self, "_columns", columns)

    def __setattr__(self, *a):
        raise AttributeError("EndSpace is immutable")

    @property
    def space(self) -> BasedSpace:
        return self.module.space

    @property
    def h_action(self) -> tuple:
        return self.module.action

    @property
    def dim(self) -> int:
        return self.space.dim

    def coords_many(self, vectors):
        """Coordinates of flattened Hom(H,B) vectors, the rows of a field
        array or of field scalars, in the ξ-basis.

        Raises ImageEscapesEndSpace when a vector is outside the span.
        """
        f = self.comodule.field
        n = self._kernel.shape[0]
        vecs = _field_array(f, vectors)
        if vecs.ndim != 2 or vecs.shape[1] != n:
            raise SpaceMismatch("vector length does not match Hom(H,B)")
        vecs = _sparse_values(f, _reduce(f, vecs)).T
        row, vec = np.nonzero(vecs)
        m = vecs.shape[1]
        coords = _coords(f, self._columns, self._free, row * m + vec, vecs[row, vec], m)
        return [tuple(co) for co in _scalar_rows(f, coords.T)]

    def evaluation_at_unit(self) -> MapMatrix:
        """The map ξ ↦ ξ(1_H) from the span to B: the unit's coordinates
        against the H index of every basis map at once."""
        c = self.comodule
        f = c.field
        unit = _field_array(f, [c.host.algebra.unit])
        maps = self._kernel.reshape(c.dim, c.host.dim, self.dim)
        vals = _mod_matmul(f, unit, maps).reshape(c.dim, self.dim)
        return MapMatrix(f, self.space, c.algebra.space, vals)

    def __repr__(self):
        return f"EndSpace(dim={self.dim})"


def _coords(f: Field, columns, free: np.ndarray, key: np.ndarray, val: np.ndarray,
            m: int) -> np.ndarray:
    """Coordinates (k × m) of m vectors, given by their nonzeros (key, val),
    key = row·m + vector, as ``_combine`` leaves them, in the span of k
    columns given by their nonzeros ``columns`` (a sparse operator from
    column to row), which are the identity on the ascending rows ``free``:
    a vector's coordinates are its entries there, and it lies in the span
    iff the columns rebuild exactly its keys and values from them."""
    row, vec = np.divmod(key, m)
    at = np.isin(row, free)
    j, vec, c = np.searchsorted(free, row[at]), vec[at], val[at]
    coords = np.zeros((free.size, m), dtype=_dtype(f))
    coords[j, vec] = c
    rep, out, kv = _gather(columns, j)
    rkey, rval = _combine(f, out * m + vec[rep], _mul(f, kv, c[rep]))
    if not (np.array_equal(rkey, key) and np.array_equal(rval, val)):
        raise ImageEscapesEndSpace("vector outside the span")
    return coords


def _constraint_ops(c: ComoduleAlgebra):
    """The intertwiner constraints of every basis element of B as one COO
    operator (rows, cols, vals) sorted by row: row b·n + r is row r of the
    constraint of b, n = dim B · dim H.

    With ξ flattened as ξ[r·dim H + s] = coefficient of b_r in ξ(h_s), the
    constraint of b is Σ_{c·h_i⊗b_j in δ(b)} c·ρ(b_j) ⊗ λ(h_i)ᵀ − λ(b) ⊗ id,
    so row (r', s') and column (r, s) carry
    Σ c·[b_r b_j]_{r'}·[h_i h_s']_s − [b b_r]_{r'}·[s = s'].
    All of them are one ``_kron_sum``, one group per b, of two legs of matrix
    families read off the structure constants: ρ(b_j), then λ(b_i), on B,
    and λ(h_i)ᵀ, then id, on H.  Entries are summed exactly, over GF(p) as
    residues, so none is ever larger than a field element; over Q as
    integer numerators, divided once by their one denominator.  The values
    are a sparse operator's (int64 residues over GF(p)).
    """
    f, h = c.field, c.host
    nb, nh = c.dim, h.dim
    n = nb * nh
    counts, _, out, cv = c.coaction_op()
    hi, bj = np.divmod(out, nb)
    every = np.arange(nb)
    terms = (np.concatenate((np.repeat(every, counts), every)),
             np.concatenate((bj, nb + every)),  # ρ(b_j), then λ(b)
             np.concatenate((hi, np.full(nb, nh))),  # λ(h_i)ᵀ, then id
             np.concatenate((cv, _sparse_values(f, [f.neg(f.one)] * nb))))
    # element i·d + j of a table holds [e_i e_j]_k at k: that is entry
    # k·d + i of ρ(e_j), k·d + j of λ(e_i) and j·d + k of λ(e_i)ᵀ
    mb, mh = c.algebra.mult_op(), h.algebra.mult_op()
    i, j = np.divmod(_members(mb), nb)
    b_leg = _sparse_op(f, np.concatenate((j, nb + i)),
                       np.concatenate((mb[2] * nb + i, mb[2] * nb + j)),
                       np.concatenate((mb[3], mb[3])), 2 * nb, nb * nb)
    i, j = np.divmod(_members(mh), nh)
    h_leg = _sparse_op(f, np.concatenate((i, np.full(nh, nh))),
                       np.concatenate((j * nh + mh[2], np.arange(nh) * (nh + 1))),
                       np.concatenate((mh[3], _sparse_values(f, [f.one] * nh))), nh + 1, nh * nh)
    (counts, _, out, val), d = _kron_sum(f, terms, (b_leg, h_leg), (nb, nh), nb)
    b, cols = np.divmod(np.repeat(np.arange(nb * n), counts), n)
    rows = b * n + out
    order = np.argsort(rows * n + cols)
    return rows[order], cols[order], _over(val[order], d)


def _constraint_op(c: ComoduleAlgebra, b: int):
    """The intertwiner constraint of basis element b as COO arrays
    (rows, cols, vals), sorted by row (see ``_constraint_ops``)."""
    n = c.dim * c.host.dim
    rows, cols, vals = _constraint_ops(c)
    sel = slice(*np.searchsorted(rows, [b * n, (b + 1) * n]))
    return rows[sel] - b * n, cols[sel], vals[sel]


def compute_end_space(c: ComoduleAlgebra) -> EndSpace:
    """E(H,B), the intertwiners ξ: H → B, with the H-action (h·ξ)(h') = ξ(h'h).

    A map ξ, as a dim B × dim H coefficient matrix flattened row-major, is an
    intertwiner iff ξ(b_[-1] h) b_[0] = b ξ(h) for every b in B.  The b that
    satisfy this form a subalgebra, because δ is an algebra map, so only the
    constraints of the algebra generators that ``algebra_generators`` picks
    are imposed.  Each basis element's constraint is a sparse operator on
    Hom(H,B); ``_constraint_ops`` assembles all of them at once straight
    from the structure tables.  The generators' operators form one sparse
    system, whose columns fall into many small connected components (two
    columns are joined when a constraint row holds both); ``_sparse_kernel``
    eliminates each component on its own.  That gives the reduced basis (the identity
    on its free coordinates) of one elimination of the whole system,
    because a block-diagonal system has the pivots and the reduced kernel
    of its blocks.  The basis is then checked against the constraint of
    every basis element of B, so exactness does not rest on the generator
    argument alone.  That check and the H-action are sparse joins with the
    basis's nonzeros (of the constraints keyed by column, and of the
    structure constants of H keyed by output), summed in the field; no
    dense array on Hom(H,B) is formed past the kernel.

    The H-action on E is re-checked from the algebra generators g of H:
    ρ(1) = id and ρ(g)ρ(b) = ρ(gb) for every basis element b.  That covers
    every pair by induction on word length: the a with ρ(a)ρ(b) = ρ(ab) for
    all b form a subspace holding 1 and the generators, and if a and a'
    are in it then ρ(aa')ρ(b) = ρ(a)ρ(a')ρ(b) = ρ(a)ρ(a'b) = ρ(aa'b).
    """
    f = c.field
    h = c.host
    nb, nh = c.dim, h.dim
    n = nb * nh
    ops = _constraint_ops(c)
    imposed = np.isin(ops[0] // n, algebra_generators(c.algebra))
    kernel = _sparse_kernel(f, *(a[imposed] for a in ops), n)
    k = kernel.shape[1]
    j, r = np.nonzero(kernel.T)  # the kernel entries, column by column
    kval = _sparse_values(f, kernel[r, j])
    columns = _sparse_op(f, j, r, kval, k, n)
    # every basis element's constraint entries against every kernel entry
    rows, cols, vals = ops
    rep, out, w = _gather(_sparse_op(f, cols, rows, vals, n, nb * n), r)
    bad, _ = _combine(f, out * k + j[rep], _mul(f, w, kval[rep]))
    if bad.size:
        raise HopffactError(
            f"the generators' kernel fails the constraint of basis element {bad[0] // (n * k)}: "
            "the coaction is not an algebra map"
        )
    # each basis vector ends at its free coordinate, where the others vanish
    free = n - 1 - np.argmax((kernel != 0)[::-1], axis=0)
    if not np.array_equal(kernel[free], np.eye(k, dtype=_dtype(f))):
        raise HopffactError("end-space basis is not reduced (bug)")
    basis_maps = [MapMatrix(f, h.space, c.algebra.space, kernel[:, i].reshape(nb, nh))
                  for i in range(k)]
    # (ξ_j·h_i)(h_s) = Σ_t [h_s h_i]_t ξ_j(h_t): the structure constants,
    # keyed by their output t, against every kernel entry (r·nh + t, j);
    # vector i·k + j is ξ_j·h_i
    counts, _, prod, const = h.algebra.mult_op()
    by_out = _sparse_op(f, prod, np.repeat(np.arange(nh * nh), counts), const, nh, nh * nh)
    rb, t = np.divmod(r, nh)
    rep, si, cv = _gather(by_out, t)
    s, i = np.divmod(si, nh)
    m = nh * k
    key, val = _combine(f, (rb[rep] * nh + s) * m + i * k + j[rep], _mul(f, cv, kval[rep]))
    try:
        coords = _coords(f, columns, free, key, val, m)
    except ImageEscapesEndSpace as exc:
        raise HopffactError("end space is not action-stable (bug)") from exc
    # coords[:, i·k:(i + 1)·k] is the action of h_i
    module = HModule(BasedSpace(tuple(f"ξ{i}" for i in range(k))),
                     np.ascontiguousarray(coords.reshape(k, nh, k).transpose(1, 0, 2)), f)
    if k:
        v = _check_representation(h.algebra, module, algebra_generators(h.algebra))
        if not v:
            raise HopffactError(f"end-space action is not a module: {v.describe()}")
    return EndSpace(c, module, basis_maps, kernel, free, columns)


# ---------------------------------------------------------------------------
# The factorizability map, copairing, and weak factorizability
# ---------------------------------------------------------------------------

def _theta_elements(k: KMatrix, double_antipode: bool):
    """For each basis h_t, Σ S(h_(1)) K_i h_(2) ⊗ K^i in H⊗B (optionally
    with an outer antipode on the first leg), as a family.

    Φ(a⊗c) = (e_a ⊗ 1)·K·(e_c ⊗ 1) is the family of dim H² products, and
    the elements are Φ applied to (S⊗id)Δ(h_t), built once per K-matrix;
    the outer antipode is one more ``_coapply`` on the H-leg.
    """
    h, c = k.host, k.comodule
    f, nh, nb = h.field, h.dim, c.dim
    s_op = _linear_op(f, h.antipode.array)
    if k._theta is None:
        ops, dims = [h.algebra.mult_op(), c.algebra.mult_op()], [nh, nb]
        _, _, key, val = _units(f, [c.algebra])
        a = np.repeat(np.arange(nh), key.size)
        e_1 = _sparse_op(f, a, a * nb + np.tile(key, nh), np.tile(val, nh), nh, nh * nb)
        left = _products(f, e_1, _flat(k.element), ops, dims)  # element a: (e_a ⊗ 1)·K
        phi = _products(f, left, e_1, ops, dims)  # element a·nh + c: Φ(a⊗c)
        twisted = _coapply(f, h.coalgebra.comult_op(), (nh, nh), 0, s_op, nh)
        object.__setattr__(k, "_theta", _coapply(f, twisted, (nh * nh,), 0, phi, nh * nb))
    return _coapply(f, k._theta, (nh, nb), 0, s_op, nh) if double_antipode else k._theta


def _theta_matrix_from_elements(k: KMatrix, es: EndSpace, elements) -> MapMatrix:
    """The map h^a ↦ [h_t ↦ the h_a-leg of element t], in the end-space
    basis; a map outside the span raises ImageEscapesEndSpace."""
    h = k.host
    f = h.field
    nb, nh = k.comodule.dim, h.dim
    hh, bb = np.divmod(elements[2], nb)
    key, val = _combine(f, (bb * nh + _members(elements)) * nh + hh, elements[3])
    return MapMatrix(f, h.space.dual(), es.space, _coords(f, es._columns, es._free, key, val, nh))


def theta_comodule(k: KMatrix, es: EndSpace | None = None) -> MapMatrix:
    """The factorizability map H* → E(H,B): f ↦ [h ↦ ⟨f, S(h_(1))K_i h_(2)⟩K^i].

    Columns are expressed in the end-space basis; a component outside the
    span raises ImageEscapesEndSpace.
    """
    es = es if es is not None else compute_end_space(k.comodule)
    return _theta_matrix_from_elements(k, es, _theta_elements(k, False))


def theta_module_category(k: KMatrix, es: EndSpace | None = None) -> MapMatrix:
    """The module-category variant f ↦ [h ↦ ⟨f, S(S(h_(1))K_i h_(2))⟩K^i]."""
    es = es if es is not None else compute_end_space(k.comodule)
    return _theta_matrix_from_elements(k, es, _theta_elements(k, True))


def is_factorizable_comodule(k: KMatrix, es: EndSpace | None = None) -> bool:
    """True iff the factorizability map has rank dim H."""
    theta = theta_comodule(k, es)
    return theta.rank() == k.host.dim


def omega_copairing(k: KMatrix, es: EndSpace | None = None) -> TensorElement:
    """The copairing in H ⊗ E(H,B), with invariance verified.

    Built as Σ_i h_i ⊗ [h ↦ ⟨h^i, S(S(h_(1))K_j h_(2))⟩ K^j]; the second leg
    must land in the end space and the whole element must be H-invariant
    (adjoint action on the first leg, right-translation action on the span).
    """
    h = k.host
    f = h.field
    es = es if es is not None else compute_end_space(k.comodule)
    w = theta_module_category(k, es).array.T
    i, j = np.nonzero(w)
    coeffs = dict(zip(zip(i.tolist(), j.tolist()), _scalar_rows(f, w[i, j][None])[0]))
    omega = TensorElement(f, (h.space, es.space), coeffs)
    _verify_omega_invariance(k, es, omega)
    return omega


def _verify_omega_invariance(k: KMatrix, es: EndSpace, omega: TensorElement):
    """h·ω = ε(h)ω for every basis h, with the adjoint action on the H-leg.

    On H⊗E, h_t·ω is Σ_{(a, mid) ∈ Δ(h_t)} (ad(h_a) ⊗ A_mid)·ω, A the
    end-space action: one ``_kron_sum`` with a group per t, applied to the
    terms of ω for every t at once.
    """
    h = k.host
    f = h.field
    nh, ne = h.dim, es.dim
    if not ne:  # H ⊗ 0 holds only 0
        return
    n = nh * ne
    terms = _columns(h.coalgebra.comult_op(), (nh, nh))  # (t, a, mid, c) of Δ(h_t)
    legs = (h.adjoint_module().family(), es.module.family())
    (counts, offsets, out, v), d = _kron_sum(f, terms, legs, (nh, ne), nh)
    op = counts, offsets, out, _over(v, d)
    _, _, key, val = _flat(omega)
    t, term = np.repeat(np.arange(nh), key.size), np.tile(np.arange(key.size), nh)
    rep, out, v = _gather(op, t * n + key[term])
    moved = _sparse_op(f, t[rep], out, _mul(f, v, val[term[rep]]), nh, n)
    eps = _sparse_values(f, h.coalgebra.counit)
    fixed = _sparse_op(f, t, key[term], _mul(f, eps[t], val[term]), nh, n)
    bad = _differing(f, moved, fixed, n)
    if bad.size:
        raise HopffactError(f"copairing is not invariant at basis {bad[0]}")


@dataclass(frozen=True)
class WeakFactorizability:
    source_dim: int
    target_dim: int
    rank: int
    bijective: bool


def weak_factorizability(k: KMatrix, es: EndSpace | None = None) -> WeakFactorizability:
    """Bijectivity data of Ω: Hom(E_C, 1) → Hom(1, E_M), f ↦ (f⊗id)ω.

    The source is the space of adjoint-invariant functionals on H, the
    target the space of invariants of the end-space action.
    """
    h = k.host
    f = h.field
    es = es if es is not None else compute_end_space(k.comodule)
    omega = omega_copairing(k, es)
    counit, gens = h.coalgebra.counit, algebra_generators(h.algebra)
    # source: f with f(h_(1) h' S(h_(2))) = ε(h) f(h'), i.e. ad(h)ᵀ f = ε(h) f
    source = _invariants(f, h.adjoint_module().stack.transpose(0, 2, 1), counit, gens)
    ne = es.dim
    target = _invariants(f, es.module.stack, counit, gens) if ne else np.zeros((0, 0))
    # Ω on the source basis
    w = np.zeros((h.dim, ne), dtype=_dtype(f))
    for (i, j), c in omega.coeffs.items():
        w[i, j] = c
    images = _mod_matmul(f, source, w)
    if images.size:
        span = Span(f, ne)
        span.add_batch(target)
        if not span.contains(images):
            raise HopffactError("Ω image leaves the invariant subspace")
    rank = rank_of(images, ne, f) if images.size else 0
    bij = rank == len(source) == len(target)
    return WeakFactorizability(len(source), len(target), rank, bij)


def _invariants(f: Field, stack: np.ndarray, counit, gens) -> np.ndarray:
    """The vectors v with A_t v = ε(h_t) v for every matrix A_t of the
    (dim H, d, d) ``stack``, as the rows of a basis read off the RREF.  The
    h with A_h v = ε(h) v form a subalgebra (h ↦ A_h is multiplicative or
    antimultiplicative), so only H's generators ``gens`` are imposed, and
    the basis is then checked against every A_t."""
    d = stack.shape[1]
    rows = stack.copy()
    diag = np.arange(d)
    rows[:, diag, diag] = _reduce(f, rows[:, diag, diag] - _field_array(f, counit)[:, None])
    basis = _kernel(f, rows[gens].reshape(-1, d), d)
    if (_mod_matmul(f, rows.reshape(-1, d), basis) != 0).any():
        raise HopffactError("the generators' invariants are not invariant (bug)")
    return basis.T


# ---------------------------------------------------------------------------
# Costable ideals and H-simplicity
# ---------------------------------------------------------------------------

def _operator_family(c: ComoduleAlgebra) -> np.ndarray:
    """Left and right multiplications by the basis of B (its
    ``mult_stack``), then the coaction coefficient operators
    b ↦ (h^i ⊗ id)δ(b), read off the coaction table, as one read-only stack
    of field arrays (cached on the comodule algebra)."""
    if c._ops is None:
        f, nb = c.field, c.dim
        counts, _, out, cv = c.coaction_op()
        hh, bb = np.divmod(out, nb)
        coeffs = np.zeros((c.host.dim, nb, nb), dtype=_dtype(f))
        coeffs[hh, bb, np.repeat(np.arange(nb), counts)] = cv
        stack = np.concatenate((c.algebra.mult_stack(), coeffs))
        stack.flags.writeable = False
        object.__setattr__(c, "_ops", stack)
    return c._ops


def costable_closure(c: ComoduleAlgebra, generators):
    """Smallest subspace containing ``generators`` that is closed under left
    and right multiplication and every coaction coefficient map.

    In finite dimension this is exactly the costable ideal generated by the
    given vectors.  It is one spin over the operator family, and one more
    sweep must add nothing; the result is the RREF basis (possibly empty),
    rows in the order found.
    """
    f = c.field
    n = c.dim
    gens = [tuple(g) for g in generators]
    if any(len(g) != n for g in gens):
        raise SpaceMismatch("generator length does not match B")
    # imgs[o, v] = ops[o] · v for every row v: v @ ops[o]ᵀ
    stack_t = _operator_family(c).transpose(0, 2, 1)
    span = spin(f, stack_t, _field_array(f, gens).reshape(len(gens), n))
    if span.dim and span.add_batch(_mod_matmul(f, span.rows, stack_t).reshape(-1, n)):
        raise HopffactError("closure not idempotent (bug)")
    return [tuple(row) for row in _scalar_rows(f, span.rows)]


@dataclass(frozen=True)
class SimplicityVerdict:
    status: str                 # "simple" | "not-simple" | "inconclusive"
    certificate: str | None
    witness: tuple | None       # basis of a proper nonzero costable ideal
    field_tag: str

    @property
    def is_simple(self):
        return self.status == "simple"


# Primes for the mod-p image over Q: the first three of the sequence the Q
# eliminator lifts through, the largest primes below 2**20
_NORTON_PRIMES = tuple(map(_lift_prime, range(3)))


def h_simplicity(c: ComoduleAlgebra) -> SimplicityVerdict:
    """Decide H-simplicity of B by Norton's irreducibility test.

    The costable ideals of B are exactly the subspaces invariant under the
    operator family (left and right multiplications and the coaction
    coefficients), so H-simplicity is the irreducibility of one module;
    ``meataxe.norton`` decides it over GF(p).  Certificates name the deciding
    branch: ``norton`` (simple, and absolutely so: it stays simple over
    every extension field), ``norton:deg<d>`` (simple, proved with an
    irreducible factor of degree d; absoluteness is not decided), ``spin``
    and ``dual-spin`` (NotSimple).  Every GF(p) witness is re-checked with
    ``costable_closure``; after ``meataxe.CAP`` random elements the verdict
    is Inconclusive, never an unverified one.

    Over Q the operators are reduced modulo each of ``_NORTON_PRIMES``
    that divides no denominator, and Simple mod p proves Simple over Q: a
    Q-invariant subspace W of dimension k gives the saturated lattice
    W ∩ ℤ_(p)ⁿ, also invariant, whose reduction is a k-dimensional
    invariant subspace mod p.  The same argument over a number field shows
    that absolute simplicity mod p gives absolute simplicity over Q.  A
    NotSimple witness mod p is lifted: its RREF, alone, CRT-combined with
    the RREF of each earlier prime with the same pivot columns, and
    CRT-combined with all of those at once, is rationally reconstructed
    (``linalg.rational_lift``), and a candidate is accepted only when its
    exact costable closure over Q is proper and of the candidate's
    dimension; that closure is the witness.  A mod-p
    ideal that is not the reduction of a rational one (an eigenspace of i
    in Q(i) mod p ≡ 1 mod 4) never lifts.  When no prime decides, the
    costable ideals spun from the basis vectors are tried (certificate
    ``spin(basis i)``); otherwise the verdict is Inconclusive.
    """
    f = c.field
    n = c.dim
    tag = f.tag
    ops = _operator_family(c)
    if isinstance(f, PrimeField):
        found = norton(f, ops)
        if found is None:
            return SimplicityVerdict("inconclusive", None, None, tag)
        status, cert, rows = found
        if status == "simple":
            return SimplicityVerdict(status, cert, None, tag)
        witness = costable_closure(c, rows)
        if not 0 < len(witness) == len(rows) < n:
            raise HopffactError("Norton witness is not a proper costable ideal (bug)")
        return SimplicityVerdict(status, cert, tuple(witness), tag)
    earlier = {}  # pivot columns → [(prime, RREF of its witness)]
    for p in _NORTON_PRIMES:
        stack = _mod_image(ops, p)
        found = None if stack is None else norton(GF(p), stack)
        if found is None:
            continue
        status, cert, rows = found
        if status == "simple":
            return SimplicityVerdict(status, cert, None, tag)
        ech, piv = _gf_echelon(np.array(rows, dtype=np.float64, order="C"), p)
        same = earlier.setdefault(tuple(piv), [])
        tries = [((ech,), (p,))] + [((e, ech), (q, p)) for q, e in same]
        if len(same) > 1:  # every agreeing prime at once
            tries.append((tuple(e for _, e in same) + (ech,), tuple(q for q, _ in same) + (p,)))
        for residues, primes in tries:
            cand = rational_lift(residues, primes)
            if cand is None:
                continue
            closure = costable_closure(c, cand)
            if 0 < len(closure) == len(cand) < n:
                return SimplicityVerdict(status, cert, tuple(closure), tag)
        same.append((p, ech))
    for i in range(n):
        gen = tuple(f.one if j == i else f.zero for j in range(n))
        closure = costable_closure(c, [gen])
        if 0 < len(closure) < n:
            return SimplicityVerdict("not-simple", f"spin(basis {i})", tuple(closure), tag)
    return SimplicityVerdict("inconclusive", None, None, tag)

