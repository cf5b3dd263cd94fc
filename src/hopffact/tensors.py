"""Sparse elements of tensor products of based spaces.

A ``TensorElement`` stores a map from multi-indices to nonzero scalars.
Slotwise products, leg embeddings (placing an element into chosen slots of a
larger product with algebra units elsewhere), leg permutations, functional
contractions, and inversion in a product algebra all live here.

Inversion reads t⁻¹ off an annihilating polynomial of t instead of solving
a dense N×N system (N the dimension of the product); ``tensor_invert`` says
why its "not invertible" verdict is exact and how its cost grows with the
degree of t's minimal polynomial.  Every inverse, computed or supplied to
``RMatrix`` or ``KMatrix``, is verified two-sided by ``verify_inverse``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import HopffactError, NotInvertible, SpaceMismatch
from .fields import Field, PrimeField, require_same_field
from .linalg import _apply, _field_array, _krylov, _mod_matmul, _scalar_rows


class TensorElement:
    """Element of factors[0] ⊗ ... ⊗ factors[k-1], sparsely stored."""

    __slots__ = ("field", "factors", "coeffs")

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

    def as_matrix_rows(self):
        """Dense coordinate vector in the full tensor basis (row-major)."""
        dims = [sp.dim for sp in self.factors]
        total = 1
        for d in dims:
            total *= d
        vec = [self.field.zero] * total
        for idx, c in self.coeffs.items():
            flat = 0
            for i, d in zip(idx, dims):
                flat = flat * d + i
            vec[flat] = c
        return tuple(vec)


def leg_embed(t: TensorElement, slots, ambient_factors, ambient_algebras) -> TensorElement:
    """Place ``t``'s legs at ``slots`` inside a larger product, units elsewhere.

    ``slots`` are strictly increasing 0-based positions; every non-slot
    position must carry an algebra in ``ambient_algebras`` so a unit element
    can be inserted there.
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
    f = t.field
    others = [i for i in range(m) if i not in slots]
    units = []
    for i in others:
        alg = ambient_algebras[i]
        if alg is None:
            raise HopffactError(f"slot {i} needs an algebra to supply a unit")
        unit = [(j, c) for j, c in enumerate(alg.unit) if not f.is_zero(c)]
        units.append((i, unit))
    coeffs = {}
    for idx, c in t.coeffs.items():
        partial = [(list(zip(slots, idx)), c)]
        for i, unit in units:
            partial = [
                (assign + [(i, j)], f.mul(cc, uc))
                for assign, cc in partial
                for j, uc in unit
            ]
        for assign, cc in partial:
            full = [0] * m
            for pos, j in assign:
                full[pos] = j
            key = tuple(full)
            coeffs[key] = f.add(coeffs.get(key, f.zero), cc)
    return TensorElement(f, tuple(ambient_factors), coeffs)


def tensor_mult(a: TensorElement, b: TensorElement, algebras) -> TensorElement:
    """Slotwise product: (x1⊗...⊗xk)(y1⊗...⊗yk) = x1y1 ⊗ ... ⊗ xkyk."""
    a._check_compatible(b)
    if len(algebras) != a.arity or any(alg is None for alg in algebras):
        raise HopffactError("every slot needs an algebra")
    f = a.field
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            partial = [((), f.mul(ca, cb))]
            for slot in range(a.arity):
                prod = algebras[slot].mult_basis(ia[slot], ib[slot])
                if not prod:
                    partial = []
                    break
                partial = [
                    (idx + (k,), f.mul(c, ck))
                    for idx, c in partial
                    for k, ck in prod.items()
                ]
            for idx, c in partial:
                out[idx] = f.add(out.get(idx, f.zero), c)
    return TensorElement(f, a.factors, out)


def tensor_unit(field: Field, factors, algebras) -> TensorElement:
    """The unit element 1 ⊗ ... ⊗ 1 of a product of algebras."""
    f = field
    out = {(): f.one}
    for alg in algebras:
        nxt = {}
        for idx, c in out.items():
            for j, uc in enumerate(alg.unit):
                if not f.is_zero(uc):
                    nxt[idx + (j,)] = f.mul(c, uc)
        out = nxt
    return TensorElement(f, tuple(factors), out)


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

    The work grows with deg μ (at most N), and over Q also with the size of
    the powers' coefficients; every R- and K-matrix in the registry has a
    minimal polynomial of small degree.
    """
    f = t.field
    if len(algebras) != t.arity or any(alg is None for alg in algebras):
        raise HopffactError("every slot needs an algebra")
    dims = [sp.dim for sp in t.factors]
    n = math.prod(dims)
    unit = tensor_unit(f, t.factors, algebras)
    op = _left_mult_op(t, algebras)
    hit = np.unique(op[0])  # the rows where left multiplication can land

    def step(col):
        nxt = np.zeros((n, 1), dtype=col.dtype)
        nxt[hit] = _apply(f, op, col)
        return nxt

    powers, ann = _krylov(f, step, _field_array(f, unit.as_matrix_rows()), n + 1)
    m = powers.shape[1]
    with_c0 = np.nonzero(ann[0] != 0)[0]
    if not with_c0.size:
        raise NotInvertible("zero divisor: the minimal polynomial vanishes at 0")
    c = [f.scalar(x) for x in ann[:, with_c0[0]]]
    scale = f.neg(f.inv(c[0]))
    coeffs = _field_array(f, [f.mul(scale, ck) for ck in c[1:]]).reshape(m - 1, 1)
    vec = _scalar_rows(f, _mod_matmul(f, powers[:, :m - 1], coeffs).T)[0]
    indices = itertools.product(*(range(d) for d in dims))  # row-major
    inv = TensorElement(f, t.factors, {idx: x for idx, x in zip(indices, vec) if x})
    verify_inverse(t, inv, algebras)
    return inv


def verify_inverse(t: TensorElement, inv: TensorElement, algebras) -> None:
    """Raise NotInvertible unless ``inv`` is a two-sided inverse of ``t``;
    both products are formed sparsely."""
    unit = tensor_unit(t.field, t.factors, algebras)
    if tensor_mult(inv, t, algebras) != unit or tensor_mult(t, inv, algebras) != unit:
        raise NotInvertible("candidate inverse is not two-sided")


def _left_mult_op(t: TensorElement, algebras):
    """Left multiplication by ``t`` on the flattened product (row-major
    multi-indices), as COO arrays (rows, cols, vals) sorted by row.

    A term c·e_{i_1}⊗…⊗e_{i_k} contributes c times the Kronecker product
    of the slots' left multiplications by e_{i_s}, read straight from the
    structure constants; entries are summed in the field.
    """
    f = t.field
    gf = isinstance(f, PrimeField)
    vtype = np.int64 if gf else object
    dims = [sp.dim for sp in t.factors]
    n = math.prod(dims)
    tables = []  # per slot: arrays i, j, k, c over the products e_i·e_j ∋ c·e_k
    for alg in algebras:
        terms = [(i, j, k, ck) for (i, j), prod in alg.mult.items() for k, ck in prod.items()]
        parts = list(zip(*terms)) or [(), (), (), ()]
        tables.append([np.array(x, dtype=np.int64) for x in parts[:3]]
                      + [np.array(parts[3], dtype=vtype)])
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=vtype)]
    for idx, c in t.coeffs.items():
        rows = cols = np.zeros(1, dtype=np.int64)
        v = np.array([c], dtype=vtype)
        for (ti, tj, tk, tc), d, i in zip(tables, dims, idx):
            sel = ti == i
            rows = (rows[:, None] * d + tk[sel]).ravel()
            cols = (cols[:, None] * d + tj[sel]).ravel()
            v = (v[:, None] * tc[sel]).ravel()
            if gf:
                v %= f.p
        keys.append(rows * n + cols)
        vals.append(v)
    uniq, where = np.unique(np.concatenate(keys), return_inverse=True)
    acc = np.zeros(uniq.size, dtype=vtype)
    np.add.at(acc, where, np.concatenate(vals))
    if gf:
        acc %= f.p
    keep = acc != 0
    return uniq[keep] // n, uniq[keep] % n, _field_array(f, acc[keep])


def coapply_leg(t: TensorElement, leg: int, comult) -> TensorElement:
    """Apply a comultiplication to one leg, splitting it into two legs.

    ``comult`` maps a basis index to a dict {(j, k): coeff}; the leg at
    position ``leg`` is replaced by two adjacent legs of the same space.
    """
    if not 0 <= leg < t.arity:
        raise HopffactError("no such leg")
    f = t.field
    sp = t.factors[leg]
    factors = t.factors[:leg] + (sp, sp) + t.factors[leg + 1 :]
    out = {}
    for idx, c in t.coeffs.items():
        for (j, k), dc in comult.get(idx[leg], {}).items():
            key = idx[:leg] + (j, k) + idx[leg + 1 :]
            out[key] = f.add(out.get(key, f.zero), f.mul(c, dc))
    return TensorElement(f, factors, out)
