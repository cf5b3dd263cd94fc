"""Sparse elements of tensor products of based spaces.

A ``TensorElement`` stores a map from multi-indices to nonzero scalars.
Slotwise products, leg embeddings (placing an element into chosen slots of a
larger product with algebra units elsewhere), leg permutations, functional
contractions, and inversion in a product algebra all live here.
"""

from __future__ import annotations

from .errors import HopffactError, NotInvertible, SpaceMismatch
from .fields import Field, require_same_field
from .linalg import MapMatrix, tensor_space


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
    """Two-sided inverse of ``t`` in the product algebra.

    Solves the linear system given by the left-multiplication matrix of ``t``
    and then verifies the right-sided identity; raises NotInvertible if the
    system is inconsistent or one-sided.
    """
    f = t.field
    factors = t.factors
    if len(algebras) != t.arity or any(alg is None for alg in algebras):
        raise HopffactError("every slot needs an algebra")
    dims = [sp.dim for sp in factors]
    total = 1
    for d in dims:
        total *= d

    def flat(idx):
        out = 0
        for i, d in zip(idx, dims):
            out = out * d + i
        return out

    # left-multiplication matrix: column J holds t · e_J
    cols = [dict() for _ in range(total)]
    basis_indices = _all_indices(dims)
    for jidx in basis_indices:
        col = cols[flat(jidx)]
        for ti, tc in t.coeffs.items():
            partial = [((), tc)]
            for slot in range(t.arity):
                prod = algebras[slot].mult_basis(ti[slot], jidx[slot])
                if not prod:
                    partial = []
                    break
                partial = [
                    (idx + (k,), f.mul(c, ck))
                    for idx, c in partial
                    for k, ck in prod.items()
                ]
            for idx, c in partial:
                k = flat(idx)
                col[k] = f.add(col.get(k, f.zero), c)
    rows = [
        tuple(cols[j].get(i, f.zero) for j in range(total)) for i in range(total)
    ]
    unit = tensor_unit(f, factors, algebras)
    target = unit.as_matrix_rows()
    ambient = tensor_space(factors)
    lmul = MapMatrix(f, ambient, ambient, rows)
    try:
        sol = lmul.solve(target)
    except HopffactError as exc:
        raise NotInvertible("no right-sided solution of t·x = 1") from exc
    inv = TensorElement(
        f,
        factors,
        {idx: sol[flat(idx)] for idx in basis_indices if not f.is_zero(sol[flat(idx)])},
    )
    if tensor_mult(inv, t, algebras) != unit or tensor_mult(t, inv, algebras) != unit:
        raise NotInvertible("candidate inverse is not two-sided")
    return inv


def _all_indices(dims):
    out = [()]
    for d in dims:
        out = [idx + (i,) for idx in out for i in range(d)]
    return out


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
