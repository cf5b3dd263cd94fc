"""Sparse elements of tensor products of based spaces.

A ``TensorElement`` stores a map from multi-indices to nonzero scalars.
Slotwise products, leg embeddings (placing an element into chosen slots of a
larger product with algebra units elsewhere), leg permutations, functional
contractions, and inversion in a product algebra all live here, and so does
the product kernel that the axiom checks share.  The kernel works on
families of elements (see "The product kernel" below).  The structure
constants are stored as families and in no other form: an algebra,
coalgebra or coaction holds its table (``StructAlgebra.mult_op``,
``StructCoalgebra.comult_op``, ``ComoduleAlgebra.coaction_op``), a table
given as nested dicts is converted once (``_table_of``), and the bundle
reader parses term rows straight into ``_table``.  The action matrices of a
module are a family too, built once per module (``HModule.family``), so
every product, coproduct, axiom check and braiding operator is a few
gathers through them.  One call of ``_products`` multiplies every element
of one family by every element of another, and expands only the term pairs
whose first slots multiply to something, read off the rows of the first
slot's table (``_ProductOp``); a leg embedding is one step of key
arithmetic on a family (``_embed``).

Inversion reads t⁻¹ off an annihilating polynomial of t instead of solving
a dense N×N system (N the dimension of the product); ``tensor_invert`` says
why its "not invertible" verdict is exact and how its cost grows with the
degree of t's minimal polynomial.  An R-matrix is inverted in closed form
instead, as (S⊗id)R (``rmatrix._r_inverse``, one ``_coapply`` of the
antipode), and reaches ``tensor_invert`` only when that candidate fails.
Every inverse, computed or supplied to ``RMatrix`` or ``KMatrix``, is
verified two-sided by ``verify_inverse``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HopffactError, NotInvertible, SpaceMismatch
from .fields import Field, require_same_field
from .linalg import (_SLICE_CELLS, _OverBudget, _apply, _combine, _dtype, _field_array, _gather,
                     _integers, _krylov, _mod_matmul, _mul, _neg, _over, _scalar_rows,
                     _sparse_op, _sparse_values)


class TensorElement:
    """Element of factors[0] ⊗ ... ⊗ factors[k-1], sparsely stored."""

    __slots__ = ("field", "factors", "coeffs", "_fam")

    def __init__(self, field: Field, factors, coeffs):
        factors = tuple(factors)
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != len(factors):
                raise HopffactError("multi-index arity does not match factors")
            for i, sp in zip(idx, factors):
                if not 0 <= i < sp.dim:
                    raise HopffactError(f"index {idx} outside factor dimensions")
            if not field.is_zero(c):
                clean[idx] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_fam", None)

    def __setattr__(self, *a):
        raise AttributeError("TensorElement is immutable")

    @property
    def arity(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.field == other.field
            and tuple(f.labels for f in self.factors)
            == tuple(f.labels for f in other.factors)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(
            (self.field, tuple(f.labels for f in self.factors), frozenset(self.coeffs.items()))
        )

    def __repr__(self):
        dims = "⊗".join(str(f.dim) for f in self.factors)
        return f"TensorElement({dims}, {len(self.coeffs)} terms)"

    def items(self):
        return sorted(self.coeffs.items())

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        f = self.field
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = f.add(out.get(idx, f.zero), c)
        return TensorElement(f, self.factors, out)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, scalar):
        f = self.field
        return TensorElement(
            f, self.factors, {i: f.mul(scalar, c) for i, c in self.coeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other):
        require_same_field(self.field, other.field)
        if tuple(f.labels for f in self.factors) != tuple(
            f.labels for f in other.factors
        ):
            raise SpaceMismatch("tensor factors differ")

    # -- structural operations ------------------------------------------------
    def permute_legs(self, perm) -> "TensorElement":
        """Reorder legs; ``perm[i]`` is the old position of the new leg i."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.arity)):
            raise HopffactError("not a permutation of the legs")
        factors = tuple(self.factors[p] for p in perm)
        coeffs = {tuple(idx[p] for p in perm): c for idx, c in self.coeffs.items()}
        return TensorElement(self.field, factors, coeffs)

    def swap(self) -> "TensorElement":
        """The two-leg flip (e.g. R -> R_21)."""
        if self.arity != 2:
            raise HopffactError("swap is for two-leg elements")
        return self.permute_legs((1, 0))

    def contract_leg(self, leg: int, covector) -> "TensorElement":
        """Pair a functional (coordinates in the dual basis) against one leg."""
        if not 0 <= leg < self.arity:
            raise HopffactError("no such leg")
        if len(covector) != self.factors[leg].dim:
            raise SpaceMismatch("covector length does not match the leg")
        f = self.field
        factors = self.factors[:leg] + self.factors[leg + 1 :]
        out = {}
        for idx, c in self.coeffs.items():
            w = covector[idx[leg]]
            if f.is_zero(w):
                continue
            rest = idx[:leg] + idx[leg + 1 :]
            out[rest] = f.add(out.get(rest, f.zero), f.mul(w, c))
        return TensorElement(f, factors, out)


def leg_embed(t: TensorElement, slots, ambient_factors, ambient_algebras) -> TensorElement:
    """Place ``t``'s legs at ``slots`` inside a larger product, units elsewhere.

    ``slots`` are strictly increasing 0-based positions; every non-slot
    position must carry an algebra in ``ambient_algebras`` so a unit element
    can be inserted there.  The embedding is ``_embed`` of ``t``'s family.
    """
    slots = tuple(slots)
    if len(slots) != t.arity:
        raise SpaceMismatch("slot count does not match tensor arity")
    if list(slots) != sorted(set(slots)):
        raise HopffactError("slots must be strictly increasing")
    m = len(ambient_factors)
    if any(not 0 <= s < m for s in slots):
        raise HopffactError("slot outside the ambient product")
    for pos, s in enumerate(slots):
        if ambient_factors[s].labels != t.factors[pos].labels:
            raise SpaceMismatch(f"ambient factor at slot {s} does not match")
    algebras = [None if i in slots else ambient_algebras[i] for i in range(m)]
    for i, alg in enumerate(algebras):
        if i not in slots and alg is None:
            raise HopffactError(f"slot {i} needs an algebra to supply a unit")
    fam = _embed(t.field, _flat(t), [sp.dim for sp in t.factors], slots, algebras)
    return _element(t.field, tuple(ambient_factors), fam)


def tensor_mult(a: TensorElement, b: TensorElement, algebras) -> TensorElement:
    """Slotwise product: (x1⊗...⊗xk)(y1⊗...⊗yk) = x1y1 ⊗ ... ⊗ xkyk."""
    a._check_compatible(b)
    dims = [sp.dim for sp in a.factors]
    return _element(a.field, a.factors, _products(a.field, _flat(a), _flat(b),
                                                  _mult_ops(a, algebras), dims))


def tensor_unit(field: Field, factors, algebras) -> TensorElement:
    """The unit element 1 ⊗ ... ⊗ 1 of a product of algebras."""
    return _element(field, tuple(factors), _units(field, algebras))


def tensor_invert(t: TensorElement, algebras) -> TensorElement:
    """Two-sided inverse of ``t`` in the product algebra, read off an
    annihilating polynomial of ``t``.

    Left multiplication by ``t`` is built once as a sparse operator and
    applied to 1 to get the powers 1, t, t², … until they become dependent
    (``linalg._krylov``, at most N + 1 of them, N the dimension of the
    product); the kernel of the stacked powers holds the multiples of the
    minimal polynomial μ of ``t``.  A kernel vector c with c₀ ≠ 0 gives
    t⁻¹ = −c₀⁻¹·Σ_{k≥1} c_k t^{k−1}.  If every kernel vector has c₀ = 0
    then μ(0) = 0, so μ = x·q with q(t) ≠ 0 and t·q(t) = 0: ``t`` is a
    zero divisor and NotInvertible is raised.
    The verdict is therefore exact, and the returned inverse is still
    verified two-sided by ``verify_inverse``.

    The work grows with deg μ (at most N).  Over Q the powers' entries grow
    with the degree too, but the kernel is eliminated mod word-size primes
    and lifted (``linalg.echelonize``), so their size costs more primes,
    not wider integers inside the elimination.
    """
    f = t.field
    n = math.prod(sp.dim for sp in t.factors)
    op = _left_mult_op(t, algebras)
    hit = np.unique(op[0])  # the rows where left multiplication can land

    def step(col):
        nxt = np.zeros((n, 1), dtype=col.dtype)
        nxt[hit] = _apply(f, op, col)
        return nxt

    _, _, key, val = _units(f, algebras)
    unit = np.zeros(n, dtype=_dtype(f))
    unit[key] = val
    powers, ann = _krylov(f, step, unit, n + 1)
    m = powers.shape[1]
    with_c0 = np.nonzero(ann[0] != 0)[0]
    if not with_c0.size:
        raise NotInvertible("zero divisor: the minimal polynomial vanishes at 0")
    c = [f.scalar(x) for x in ann[:, with_c0[0]]]
    scale = f.neg(f.inv(c[0]))
    coeffs = _field_array(f, [f.mul(scale, ck) for ck in c[1:]]).reshape(m - 1, 1)
    vec = _mod_matmul(f, powers[:, :m - 1], coeffs)[:, 0]
    key = np.flatnonzero(vec)
    inv = _element(f, t.factors, (None, None, key, vec[key]))
    verify_inverse(t, inv, algebras)
    return inv


def verify_inverse(t: TensorElement, inv: TensorElement, algebras) -> None:
    """Raise NotInvertible unless ``inv`` is a two-sided inverse of ``t``;
    both products are formed sparsely."""
    t._check_compatible(inv)
    f = t.field
    dims, ops, unit = [sp.dim for sp in t.factors], _mult_ops(t, algebras), _units(f, algebras)
    fi, ft = _flat(inv), _flat(t)
    if any(_differing(f, _products(f, a, b, ops, dims), unit, math.prod(dims)).size
           for a, b in ((fi, ft), (ft, fi))):  # inv·t, then t·inv
        raise NotInvertible("candidate inverse is not two-sided")


def _left_mult_op(t: TensorElement, algebras):
    """Left multiplication by ``t`` on the flattened product (row-major
    multi-indices), as COO arrays (rows, cols, vals) sorted by row.

    A term c·e_{i_1}⊗…⊗e_{i_k} contributes c times the Kronecker product
    of the slots' left multiplications by e_{i_s}, read off the product
    tables at the pairs i_s·d + j for every j; entries are summed in the
    field.
    """
    f = t.field
    n = stride = math.prod(sp.dim for sp in t.factors)
    _, _, key, val = _flat(t)
    rows = cols = np.zeros(key.size, dtype=np.int64)
    for op, d in zip(_mult_ops(t, algebras), [sp.dim for sp in t.factors]):
        stride //= d
        rep, k, c = _gather(op, ((key // stride % d * d)[:, None] + np.arange(d)).ravel())
        term, j = np.divmod(rep, d)
        key, rows, cols = key[term], rows[term] * d + k, cols[term] * d + j
        val = _mul(f, val[term], c)
    key, val = _combine(f, rows * n + cols, val)
    return key // n, key % n, _field_array(f, val)


# ---------------------------------------------------------------------------
# The product kernel
#
# A family of elements of a tensor product is a sparse operator of
# ``linalg`` whose input g is the element's index and whose outputs are the
# element's terms, keyed by the row-major flat multi-index and sorted by it,
# so the terms of an element that share a first index are contiguous.
# ``_products`` multiplies every element of one family by every element of
# another and joins through them: a left term meets only the right terms, of
# any element, whose first index it multiplies to something with, as the
# rows of slot 0's structure table (``_ProductOp.rows``) say.
# ---------------------------------------------------------------------------


def _table(f: Field, cols, dims_in, dims_out):
    """Columns (index columns…, coefficients) of rows (indices…, c) as a
    family: the first len(dims_in) indices, row-major, give the input and
    the others the output; duplicates are summed and zeros dropped.  No
    columns at all is the empty table."""
    cols = cols or [()] * (len(dims_in) + len(dims_out) + 1)
    idx = np.array(cols[:-1], dtype=np.int64).reshape(len(cols) - 1, -1)
    a = len(dims_in)
    try:
        inp = np.ravel_multi_index(idx[:a], dims_in)
        out = np.ravel_multi_index(idx[a:], dims_out)
    except ValueError as exc:
        raise HopffactError("structure-constant index outside the basis") from exc
    return _sparse_op(f, inp, out, _sparse_values(f, cols[-1]), math.prod(dims_in),
                      math.prod(dims_out))


def _table_of(f: Field, terms: dict, dims_in, dims_out):
    """Nested dicts {input: {output: c}} as a family (``_table``), an index
    over several dims given as its tuple of digits: the one conversion of
    structure constants given as dicts."""
    def digits(i):
        return i if isinstance(i, tuple) else (i,)

    rows = [(*digits(g), *digits(k), c) for g, out in terms.items() for k, c in out.items()]
    return _table(f, list(zip(*rows)), dims_in, dims_out)


class _ProductOp(tuple):
    """A slot's product operator: the family (``_table``) whose element
    a·d + b is e_a·e_b, built once per algebra (``StructAlgebra.mult_op``).

    It keeps the rows of its table beside it for the join of
    ``_products``: ``rows`` is the family whose element a lists the b with
    e_a·e_b ≠ 0, ascending, with the operator input a·d + b as value.
    """

    def __new__(cls, op):
        self = super().__new__(cls, op)
        d = math.isqrt(op[0].size)
        nz = np.flatnonzero(op[0])
        row_len = np.bincount(nz // d, minlength=d)
        self.rows = (row_len, np.cumsum(row_len) - row_len, nz % d, nz)
        return self


def _flat(t: TensorElement):
    """``t`` as a family of one element (built once)."""
    if t._fam is None:
        object.__setattr__(t, "_fam", _table_of(t.field, {0: t.coeffs}, (1,),
                                                [sp.dim for sp in t.factors]))
    return t._fam


def _embed(f: Field, fam, dims, slots, algebras):
    """Every element of ``fam``, a family on the product of ``dims``, with
    its leg i at slot ``slots[i]`` of the product of ``algebras`` and the
    algebra's unit at every other slot, as a family; only those other
    slots need an algebra, and ``slots`` may list the legs in any order.

    A key of the result is one mixed-radix number: an entry's digits at its
    slots and a unit term's index at each other slot, so one entry and one
    choice of unit terms give one key, with the product of their values.
    """
    leg = {s: i for i, s in enumerate(slots)}
    digits = np.unravel_index(fam[2], dims)
    src = np.arange(fam[2].size)  # the entry each key comes from
    key, val, n = np.zeros(src.size, dtype=np.int64), fam[3], 1
    for s, alg in enumerate(algebras):
        if s in leg:
            d = dims[leg[s]]
            key = key * d + digits[leg[s]][src]
        else:
            d = alg.dim
            _, _, uk, uv = _units(f, [alg])
            t, u = np.divmod(np.arange(key.size * uk.size), uk.size)
            src, key, val = src[t], key[t] * d + uk[u], _mul(f, val[t], uv[u])
        n *= d
    return _sparse_op(f, _members(fam)[src], key, val, fam[0].size, n)


def _element(f: Field, factors, fam, keep: bool = False) -> TensorElement:
    """A family of one element on the product of ``factors`` as a TensorElement.
    With ``keep``, ``fam`` is a table (``_table``), the family ``_flat``
    would build, and the element keeps it."""
    indices = zip(*(i.tolist() for i in np.unravel_index(fam[2], [sp.dim for sp in factors])))
    t = TensorElement(f, factors, dict(zip(indices, _scalar_rows(f, fam[3][None])[0])))
    if keep:
        object.__setattr__(t, "_fam", fam)
    return t


def _units(f: Field, algebras):
    """The unit 1⊗…⊗1 of a product of algebras as a family of one element."""
    key, val = [0], [f.one]
    for alg in algebras:
        terms = [(j, c) for j, c in enumerate(alg.unit) if c]
        key = [k * alg.dim + j for k in key for j, _ in terms]
        val = [f.mul(v, c) for v in val for _, c in terms]
    key = np.array(key, dtype=np.int64)
    return np.array([key.size]), np.zeros(1, dtype=np.int64), key, _sparse_values(f, val)


def _mult_ops(t: TensorElement, algebras) -> list:
    if len(algebras) != t.arity or any(alg is None for alg in algebras):
        raise HopffactError("every slot needs an algebra")
    return [alg.mult_op() for alg in algebras]


def _members(fam):
    """The element index of every entry of a family."""
    return np.repeat(np.arange(fam[0].size), fam[0])


def _columns(fam, dims):
    """The entries of a family on the product of ``dims`` as columns: the
    element, the index in every factor, the value."""
    return (_members(fam), *np.unravel_index(fam[2], dims), fam[3])


def _elements(fam, lo: int, hi: int):
    """The elements lo..hi-1 (lo < hi) of a family, as a family numbered
    from 0; their entries are one contiguous run."""
    counts, offsets = fam[0][lo:hi], fam[1][lo:hi]
    start, stop = offsets[0], offsets[-1] + counts[-1]
    return counts, offsets - start, fam[2][start:stop], fam[3][start:stop]


def _products(f: Field, left, right, ops, dims):
    """The slotwise products left[g]·right[h] for every g and h, as one
    family whose element g·H + h is that product (H the number of right
    elements).

    ``left`` and ``right`` are families on the product with factor
    dimensions ``dims``, and ``ops`` are the product operators of its
    slots (``_ProductOp``).  The term pairs are expanded by a join
    (Gustavson's row-by-row sparse product, across elements): the right
    terms are regrouped once by first index, over all right elements, and a
    left term with first index a meets, for each b in a's row of slot 0's
    table (``_ProductOp.rows``: the b with e_a·e_b ≠ 0), exactly the right
    terms with first index b.  So the expansion leaves out only pairs whose
    first slots multiply to zero, and values are multiplied only for the
    pairs that remain; the slot loop forms the products and ``_combine``
    sums them exactly.  The expansion goes in batches of left terms, halved
    until no expansion exceeds ``linalg._SLICE_CELLS`` entries.
    """
    n, n_right = math.prod(dims), right[0].size
    stride0 = n // dims[0]
    first0 = left[2] // stride0
    va, da = _integers(f, left[3])
    vb, db = _integers(f, right[3])
    # the right terms by first index b, each keyed h·n + its key (n is a
    # multiple of every slot's radix, so the slot loop reads the same
    # digits), sorted by (b, h, key), as one element's sorted keys already are
    first = right[2] // stride0
    order = np.argsort(first, kind="stable") if n_right > 1 else slice(None)
    cnt = np.bincount(first, minlength=dims[0])
    by_first = (cnt, np.cumsum(cnt) - cnt, (_members(right) * n + right[2])[order], vb[order])
    g = _members(left)
    keys, vals = [np.zeros(0, dtype=np.int64)], [va[:0]]
    start, size = 0, g.size
    while start < g.size:
        stop = min(g.size, start + size)
        limit = _SLICE_CELLS if stop - start > 1 else None
        try:
            q, b, _ = _gather(ops[0].rows, first0[start:stop], limit)
            rep, kb, vr = _gather(by_first, b, limit)
            rep = q[rep] + start
            key, a, val = g[rep] * n_right + kb // n, left[2][rep], _mul(f, va[rep], vr)
            stride = n
            for op, d in zip(ops, dims):
                stride //= d
                rep, k, c = _gather(op, a // stride % d * d + kb // stride % d, limit)
                key, a, kb, val = key[rep] * d + k, a[rep], kb[rep], _mul(f, val[rep], c)
        except _OverBudget:
            size = (stop - start + 1) // 2
            continue
        key, val = _combine(f, key, val)
        keys.append(key)
        vals.append(val)
        start = stop
    key, val = np.concatenate(keys), np.concatenate(vals)
    if len(keys) > 2:  # batches can share keys
        key, val = _combine(f, key, val)
    val = _over(val, da * db)
    counts = np.bincount(key // n, minlength=left[0].size * n_right)
    return counts, np.cumsum(counts) - counts, key % n, val


def _coapply(f: Field, fam, dims, leg: int, op, width: int):
    """Apply a linear map ``op`` with ``width`` outputs to one leg of every
    element: a coproduct or coaction (its output flattened over the two new
    legs, row-major) or an endomorphism of the leg."""
    post = math.prod(dims[leg + 1:])
    pre, rest = np.divmod(fam[2], dims[leg] * post)
    i, rest = np.divmod(rest, post)
    rep, out, c = _gather(op, i)
    key = (pre[rep] * width + out) * post + rest[rep]
    n = math.prod(dims) // dims[leg] * width
    return _sparse_op(f, _members(fam)[rep], key, _mul(f, fam[3][rep], c), fam[0].size, n)


def _flip(f: Field, fam, dims):
    """Swap the two legs of every element of a two-leg family."""
    first, second = np.divmod(fam[2], dims[1])
    return _sparse_op(f, _members(fam), second * dims[0] + first, fam[3], fam[0].size,
                      dims[0] * dims[1])


def _linear_op(f: Field, rows):
    """A matrix, as rows, as a family: element j is its column j."""
    arr = _sparse_values(f, rows)
    out, inp = np.nonzero(arr)
    return _sparse_op(f, inp, out, arr[out, inp], arr.shape[1], arr.shape[0])


def _differing(f: Field, a, b, n: int) -> np.ndarray:
    """The element indices, ascending, at which two families with outputs
    below n differ."""
    key = np.concatenate((_members(a) * n + a[2], _members(b) * n + b[2]))
    key, _ = _combine(f, key, np.concatenate((a[3], _neg(f, b[3]))))
    return np.unique(key // n)


def _first_failure(*bad):
    """The smallest index in any of the ascending arrays ``bad`` and the
    position of the first array holding it, or None when all are empty."""
    g = min((int(b[0]) for b in bad if b.size), default=None)
    return None if g is None else (g, next(i for i, b in enumerate(bad) if g in b))
