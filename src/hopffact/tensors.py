"""Sparse elements of tensor products of based spaces.

Slotwise products, leg embeddings (placing an element into chosen slots of a
larger product with algebra units elsewhere), leg permutations, functional
contractions, and inversion in a product algebra all live here, and so does
the product kernel that the axiom checks share.  The kernel works on
families of elements (see "The product kernel" below), and every structure
is stored as a family and in no other form: a ``TensorElement`` (R, K, the
copairing ω) holds its terms as a family of one element, and an algebra,
coalgebra or coaction its table (``StructAlgebra.mult_op``,
``StructCoalgebra.comult_op``, ``ComoduleAlgebra.coaction_op``).  Dicts
given to a constructor are converted once (``_table_of``), and the bundle
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
verified by ``verify_inverse``, from the one product inv·t: in a
finite-dimensional algebra a left inverse is two-sided.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HopffactError, NotInvertible, SpaceMismatch
from .fields import Field, require_same_field
from .linalg import (_apply, _batches, _combine, _dtype, _field_array, _gather, _integers,
                     _krylov, _mod_matmul, _mul, _neg, _operator, _over, _scalar_rows,
                     _sparse_op, _sparse_values)


class TensorElement:
    """Element of factors[0] ⊗ ... ⊗ factors[k-1], stored as a family of one
    element (``_fam``): its nonzero terms keyed by the row-major flat
    multi-index, ascending.  A dict {multi-index: scalar} given to the
    constructor is converted once (``_table_of``); every operation is a step
    on the family."""

    __slots__ = ("field", "factors", "_fam")

    def __init__(self, field: Field, factors, coeffs):
        factors = tuple(factors)
        for idx in coeffs:
            if len(idx) != len(factors):
                raise HopffactError("multi-index arity does not match factors")
            if not all(0 <= i < sp.dim for i, sp in zip(idx, factors)):
                raise HopffactError(f"index {idx} outside factor dimensions")
        _fill(self, field, factors, _table_of(field, {0: coeffs}, (1,), _dims(factors)))

    def __setattr__(self, *a):
        raise AttributeError("TensorElement is immutable")

    @property
    def arity(self) -> int:
        return len(self.factors)

    def _labels(self):
        return tuple(f.labels for f in self.factors)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.field == other.field
            and self._labels() == other._labels()
            and all(map(np.array_equal, self._fam[2:], other._fam[2:]))
        )

    def __hash__(self):
        _, _, key, val = self._fam
        return hash((self.field, self._labels(), tuple(key.tolist()), tuple(val.tolist())))

    def __repr__(self):
        dims = "⊗".join(str(f.dim) for f in self.factors)
        return f"TensorElement({dims}, {self._fam[2].size} terms)"

    def items(self):
        """(multi-index, scalar) for every term, ascending."""
        _, _, key, val = self._fam
        idx = np.empty((key.size, self.arity), dtype=np.int64)
        for leg in reversed(range(self.arity)):  # no legs: the index ()
            key, idx[:, leg] = np.divmod(key, self.factors[leg].dim)
        return list(zip(map(tuple, idx.tolist()), _scalar_rows(self.field, val[None])[0]))

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        a, b = self._fam, other._fam
        return _terms(self.field, self.factors, np.concatenate((a[2], b[2])),
                      np.concatenate((a[3], b[3])))

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, scalar):
        f = self.field
        _, _, key, val = self._fam
        return _terms(f, self.factors, key, _mul(f, val, _sparse_values(f, [scalar])))

    def is_zero(self) -> bool:
        return not self._fam[2].size

    def _check_compatible(self, other):
        require_same_field(self.field, other.field)
        if self._labels() != other._labels():
            raise SpaceMismatch("tensor factors differ")

    # -- structural operations ------------------------------------------------
    def permute_legs(self, perm) -> "TensorElement":
        """Reorder legs; ``perm[i]`` is the old position of the new leg i."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.arity)):
            raise HopffactError("not a permutation of the legs")
        if not perm:  # no legs to reorder, and no digits to read
            return self
        dims = _dims(self.factors)
        _, _, key, val = self._fam
        digits = np.unravel_index(key, dims)
        key = np.ravel_multi_index([digits[p] for p in perm], [dims[p] for p in perm])
        return _terms(self.field, [self.factors[p] for p in perm], key, val)

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
        fam = _coapply(f, self._fam, _dims(self.factors), leg, _linear_op(f, [covector]), 1)
        return _element(f, self.factors[:leg] + self.factors[leg + 1:], fam)


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
    fam = _embed(t.field, t._fam, _dims(t.factors), slots, algebras)
    return _element(t.field, tuple(ambient_factors), fam)


def tensor_mult(a: TensorElement, b: TensorElement, algebras) -> TensorElement:
    """Slotwise product: (x1⊗...⊗xk)(y1⊗...⊗yk) = x1y1 ⊗ ... ⊗ xkyk."""
    a._check_compatible(b)
    return _element(a.field, a.factors, _products(a.field, a._fam, b._fam,
                                                  _mult_ops(a, algebras), _dims(a.factors)))


def tensor_unit(field: Field, factors, algebras) -> TensorElement:
    """The unit element 1 ⊗ ... ⊗ 1 of a product of algebras."""
    return _element(field, tuple(factors), _units(field, algebras))


def tensor_invert(t: TensorElement, algebras) -> TensorElement:
    """Two-sided inverse of ``t`` in the product algebra, read off an
    annihilating polynomial of ``t``.

    Left multiplication by ``t`` = Σ c·e_a⊗e_b⊗… is built once, as the
    Kronecker sum Σ c·λ(e_a)⊗λ(e_b)⊗… of the slots' left multiplications
    (``_kron_sum`` of ``StructAlgebra.left_op``), and applied to 1 to get
    the powers 1, t, t², … until they become dependent
    (``linalg._krylov``, at most N + 1 of them, N the dimension of the
    product); the kernel of the stacked powers holds the multiples of the
    minimal polynomial μ of ``t``.  A kernel vector c with c₀ ≠ 0 gives
    t⁻¹ = −c₀⁻¹·Σ_{k≥1} c_k t^{k−1}.  If every kernel vector has c₀ = 0
    then μ(0) = 0, so μ = x·q with q(t) ≠ 0 and t·q(t) = 0: ``t`` is a
    zero divisor and NotInvertible is raised.
    The verdict is therefore exact, and the returned inverse is still
    verified by ``verify_inverse``.

    The work grows with deg μ (at most N).  Over Q the powers' entries grow
    with the degree too, but the kernel is eliminated mod word-size primes
    and lifted (``linalg.echelonize``), so their size costs more primes,
    not wider integers inside the elimination.
    """
    f = t.field
    dims = _dims(t.factors)
    n = math.prod(dims)
    _mult_ops(t, algebras)  # every slot needs an algebra
    legs = [alg.left_op() for alg in algebras]
    (cols, rows, val), d = _kron_sum(f, _columns(t._fam, dims), legs, dims)
    op = rows, cols, _field_array(f, _over(val, d))
    unit = _dense(tensor_unit(f, t.factors, algebras)).ravel()
    powers, ann = _krylov(f, _apply(f, op, n), unit, n + 1)
    m = powers.shape[1]
    with_c0 = np.nonzero(ann[0] != 0)[0]
    if not with_c0.size:
        raise NotInvertible("zero divisor: the minimal polynomial vanishes at 0")
    c = [f.scalar(x) for x in ann[:, with_c0[0]]]
    scale = f.neg(f.inv(c[0]))
    coeffs = _field_array(f, [f.mul(scale, ck) for ck in c[1:]]).reshape(m - 1, 1)
    vec = _mod_matmul(f, powers[:, :m - 1], coeffs)[:, 0]
    key = np.flatnonzero(vec)
    inv = _terms(f, t.factors, key, _sparse_values(f, vec[key]))
    verify_inverse(t, inv, algebras)
    return inv


def verify_inverse(t: TensorElement, inv: TensorElement, algebras) -> None:
    """Raise NotInvertible unless ``inv`` is the inverse of ``t``, from the
    one product inv·t, formed sparsely.

    In a finite-dimensional associative algebra a left inverse is two-sided:
    inv·t = 1 makes left multiplication by t injective, hence bijective, so
    t·s = 1 for some s, and s = (inv·t)·s = inv·(t·s) = inv.
    """
    t._check_compatible(inv)
    f = t.field
    dims = _dims(t.factors)
    prod = _products(f, inv._fam, t._fam, _mult_ops(t, algebras), dims)
    if _differing(f, prod, _units(f, algebras), math.prod(dims)).size:
        raise NotInvertible("candidate is not an inverse: inv·t ≠ 1")


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
    structure constants and tensor elements given as dicts."""
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
        self.rows = _operator(nz // d, nz % d, nz, d)
        return self


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


def _element(f: Field, factors, fam) -> TensorElement:
    """A family of one element on the product of ``factors`` as a
    TensorElement, which stores it as it is."""
    return _fill(object.__new__(TensorElement), f, tuple(factors), fam)


def _fill(t: TensorElement, field: Field, factors: tuple, fam) -> TensorElement:
    for name, value in zip(TensorElement.__slots__, (field, factors, fam)):
        object.__setattr__(t, name, value)
    return t


def _terms(f: Field, factors, key, val) -> TensorElement:
    """The element with the terms (key, val) on the product of ``factors``,
    keys row-major: duplicates summed, zeros dropped, keys sorted."""
    n = math.prod(_dims(factors))
    return _element(f, factors, _sparse_op(f, np.zeros_like(key), key, val, 1, n))


def _dense(t: TensorElement) -> np.ndarray:
    """The coefficients of ``t`` as a field array of shape its factors' dims."""
    out = np.zeros(_dims(t.factors), dtype=_dtype(t.field))
    out.flat[t._fam[2]] = t._fam[3]
    return out


def _dims(factors) -> list:
    return [sp.dim for sp in factors]


def _units(f: Field, algebras):
    """The unit 1⊗…⊗1 of a product of algebras as a family of one element:
    every choice of one unit term per slot, keyed row-major, the keys and
    values of all choices formed at once per slot."""
    key = val = None
    for alg in algebras:
        j = np.array([i for i, c in enumerate(alg.unit) if c], dtype=np.int64)
        c = _sparse_values(f, [alg.unit[i] for i in j])
        if val is None:
            key, val = j, c
        else:
            key = (key[:, None] * alg.dim + j).ravel()
            val = _sparse_values(f, _mul(f, val[:, None], c).ravel())
    if val is None:
        key, val = np.zeros(1, dtype=np.int64), _sparse_values(f, [f.one])
    return np.array([key.size]), np.zeros(1, dtype=np.int64), key, val


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
    sums them exactly.  The expansion goes in runs of left terms
    (``linalg._batches``), so no expansion exceeds the cell budget.
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
    by_first = _operator(first[order], (_members(right) * n + right[2])[order], vb[order], dims[0])
    g = _members(left)

    def run(lo, hi, limit):
        q, b, _ = _gather(ops[0].rows, first0[lo:hi], limit)
        rep, kb, vr = _gather(by_first, b, limit)
        rep = q[rep] + lo
        key, a, val = g[rep] * n_right + kb // n, left[2][rep], _mul(f, va[rep], vr)
        stride = n
        for op, d in zip(ops, dims):
            stride //= d
            rep, k, c = _gather(op, a // stride % d * d + kb // stride % d, limit)
            key, a, kb, val = key[rep] * d + k, a[rep], kb[rep], _mul(f, val[rep], c)
        return _combine(f, key, val)

    parts = list(_batches(run, g.size)) or [(np.zeros(0, dtype=np.int64), va[:0])]
    # runs can share keys
    key, val = parts[0] if len(parts) == 1 else _combine(f, *map(np.concatenate, zip(*parts)))
    val = _over(val, da * db)
    return _operator(key // n, key % n, val, left[0].size * n_right)


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


def _kron_sum(f: Field, terms, legs, dims, inputs: range | None = None, limit=None):
    """Σ c·A_a ⊗ B_b ⊗ … over ``terms``, the columns (g, a, b, …, c) of a
    family (``_columns``), with A, B, … the matrix families
    (``HModule.family``) in ``legs`` on spaces of dimensions ``dims``: the
    entries (input, output, value), input g·dim + u and both row-major over
    the legs, summed once and sorted by (input, output).  With ``inputs``,
    only the inputs in that range are formed, the others dropped after each
    leg; an expansion past ``limit`` entries raises _OverBudget.

    The values of the terms and of each leg are cleared of denominators
    once (``linalg._integers``), so every product is one of integers: the
    result is ((input, output, value), d), the values the numerators over
    the one denominator d (1 over GF(p), where they are residues).
    """
    inp, *which, val = terms
    val, den = _integers(f, val)
    src = np.arange(inp.size)
    out = np.zeros_like(inp)
    n = rest = math.prod(dims)
    for fam, d, idx in zip(legs, dims, which):
        ints, d_fam = _integers(f, fam[3])
        rep, pos, v = _gather((*fam[:3], ints), idx[src], limit)
        row, col = np.divmod(pos, d)
        src, inp, out = src[rep], inp[rep] * d + col, out[rep] * d + row
        val = _mul(f, val[rep], v)
        den *= d_fam
        rest //= d
        if inputs is not None:  # an input here is the first digits of one there
            keep = (inp >= inputs.start // rest) & (inp <= (inputs.stop - 1) // rest)
            src, inp, out, val = src[keep], inp[keep], out[keep], val[keep]
    key, val = _combine(f, inp * n + out, val)
    return (key // n, key % n, val), den


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
