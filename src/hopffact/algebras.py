"""Structure-constant algebras and coalgebras with axiom checkers.

Multiplication is stored sparsely: ``mult[(i, j)]`` is the dict of basis
coefficients of e_i · e_j (absent pairs multiply to zero).  Comultiplication
is ``comult[i]`` = {(j, k): coeff of e_j ⊗ e_k in Δ(e_i)}.
"""

from __future__ import annotations

from .errors import HopffactError
from .fields import Field
from .linalg import BasedSpace, IncrementalSpan, MapMatrix
from .verdicts import Verdict


class StructAlgebra:
    """A finite-dimensional unital algebra given by structure constants."""

    __slots__ = ("field", "space", "mult", "unit")

    def __init__(self, field: Field, space: BasedSpace, mult, unit):
        if space.dim == 0:
            raise HopffactError("zero-dimensional algebra has no unit vector")
        unit = tuple(unit)
        if len(unit) != space.dim:
            raise HopffactError("unit vector length does not match the space")
        clean = {}
        for (i, j), terms in mult.items():
            entry = {k: c for k, c in terms.items() if not field.is_zero(c)}
            if entry:
                clean[(i, j)] = entry
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mult", clean)
        object.__setattr__(self, "unit", unit)

    def __setattr__(self, *a):
        raise AttributeError("StructAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.space.dim

    def mult_basis(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

    def unit_dict(self) -> dict:
        f = self.field
        return {i: c for i, c in enumerate(self.unit) if not f.is_zero(c)}

    def multiply(self, x: dict, y: dict) -> dict:
        """Product of two sparse elements {index: coeff}."""
        f = self.field
        out = {}
        for i, ci in x.items():
            if f.is_zero(ci):
                continue
            for j, cj in y.items():
                if f.is_zero(cj):
                    continue
                cij = f.mul(ci, cj)
                for k, ck in self.mult_basis(i, j).items():
                    val = f.add(out.get(k, f.zero), f.mul(cij, ck))
                    if f.is_zero(val):
                        out.pop(k, None)
                    else:
                        out[k] = val
        return out

    def left_mult_matrix(self, x: dict) -> MapMatrix:
        f = self.field
        n = self.dim
        rows = [[f.zero] * n for _ in range(n)]
        for i, ci in x.items():
            for j in range(n):
                for k, ck in self.mult_basis(i, j).items():
                    rows[k][j] = f.add(rows[k][j], f.mul(ci, ck))
        return MapMatrix(f, self.space, self.space, rows)

    def right_mult_matrix(self, x: dict) -> MapMatrix:
        f = self.field
        n = self.dim
        rows = [[f.zero] * n for _ in range(n)]
        for j, cj in x.items():
            for i in range(n):
                for k, ck in self.mult_basis(i, j).items():
                    rows[k][i] = f.add(rows[k][i], f.mul(cj, ck))
        return MapMatrix(f, self.space, self.space, rows)

    def __repr__(self):
        return f"StructAlgebra(dim={self.dim} over {self.field})"


def algebra_generators(a: StructAlgebra) -> list[int]:
    """Basis indices that generate ``a`` as an algebra, chosen in basis order.

    A basis element is chosen when it lies outside the subalgebra generated
    by the elements chosen so far, which is the span of 1 closed under right
    multiplication by them.  Raises unless that span ends as all of ``a``.
    """
    f, n = a.field, a.dim
    span = IncrementalSpan(f, n)
    span.add(a.unit)
    found = [a.unit_dict()]  # elements spanning the subalgebra generated so far
    gens: list[int] = []
    for i in range(n):
        if span.contains(tuple(f.one if j == i else f.zero for j in range(n))):
            continue
        gens.append(i)
        # the old elements still need multiplying by the new generator only
        pending = [(x, (i,)) for x in found]
        while pending:
            x, by = pending.pop()
            for g in by:
                y = a.multiply(x, {g: f.one})
                if span.add(tuple(y.get(j, f.zero) for j in range(n))):
                    found.append(y)
                    pending.append((y, tuple(gens)))
    if span.dim != n:
        raise HopffactError("the chosen generators do not span the algebra")
    return gens


class StructCoalgebra:
    """A finite-dimensional coalgebra given by structure constants."""

    __slots__ = ("field", "space", "comult", "counit")

    def __init__(self, field: Field, space: BasedSpace, comult, counit):
        counit = tuple(counit)
        if len(counit) != space.dim:
            raise HopffactError("counit length does not match the space")
        clean = {}
        for i, terms in comult.items():
            entry = {jk: c for jk, c in terms.items() if not field.is_zero(c)}
            clean[i] = entry
        for i in range(space.dim):
            clean.setdefault(i, {})
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "comult", clean)
        object.__setattr__(self, "counit", counit)

    def __setattr__(self, *a):
        raise AttributeError("StructCoalgebra is immutable")

    @property
    def dim(self) -> int:
        return self.space.dim

    def comult_basis(self, i: int) -> dict:
        return self.comult.get(i, {})

    def comult_of(self, x: dict) -> dict:
        """Comultiplication of a sparse element, as {(j, k): coeff}."""
        f = self.field
        out = {}
        for i, ci in x.items():
            for jk, c in self.comult_basis(i).items():
                val = f.add(out.get(jk, f.zero), f.mul(ci, c))
                if f.is_zero(val):
                    out.pop(jk, None)
                else:
                    out[jk] = val
        return out

    def counit_of(self, x: dict):
        f = self.field
        s = f.zero
        for i, ci in x.items():
            s = f.add(s, f.mul(ci, self.counit[i]))
        return s

    def __repr__(self):
        return f"StructCoalgebra(dim={self.dim} over {self.field})"


def _dicts_equal(field, a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    z = field.zero
    return all(a.get(k, z) == b.get(k, z) for k in keys)


def check_algebra(a: StructAlgebra) -> Verdict:
    """Associativity and unitality, entrywise, first failure wins."""
    f = a.field
    n = a.dim
    u = a.unit_dict()
    for i in range(n):
        ei = {i: f.one}
        left = a.multiply(u, ei)
        right = a.multiply(ei, u)
        if not _dicts_equal(f, left, ei):
            return Verdict.failed("unitality", (i,), "1·e_i ≠ e_i")
        if not _dicts_equal(f, right, ei):
            return Verdict.failed("unitality", (i,), "e_i·1 ≠ e_i")
    for i in range(n):
        for j in range(n):
            ij = a.mult_basis(i, j)
            for k in range(n):
                lhs = a.multiply(ij, {k: f.one})
                rhs = a.multiply({i: f.one}, a.mult_basis(j, k))
                if not _dicts_equal(f, lhs, rhs):
                    return Verdict.failed("associativity", (i, j, k))
    return Verdict.passed()


def check_coalgebra(c: StructCoalgebra) -> Verdict:
    """Coassociativity and counitality, entrywise duals of the above."""
    f = c.field
    n = c.dim
    for i in range(n):
        delta = c.comult_basis(i)
        left = {}
        right = {}
        for (j, k), coeff in delta.items():
            if not f.is_zero(c.counit[j]):
                left[k] = f.add(left.get(k, f.zero), f.mul(c.counit[j], coeff))
            if not f.is_zero(c.counit[k]):
                right[j] = f.add(right.get(j, f.zero), f.mul(c.counit[k], coeff))
        ei = {i: f.one}
        left = {k: v for k, v in left.items() if not f.is_zero(v)}
        right = {k: v for k, v in right.items() if not f.is_zero(v)}
        if not _dicts_equal(f, left, ei):
            return Verdict.failed("counitality", (i,), "(ε⊗id)Δ ≠ id")
        if not _dicts_equal(f, right, ei):
            return Verdict.failed("counitality", (i,), "(id⊗ε)Δ ≠ id")
    for i in range(n):
        lhs = {}
        rhs = {}
        for (j, k), coeff in c.comult_basis(i).items():
            for (u, v), c2 in c.comult_basis(j).items():
                key = (u, v, k)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(coeff, c2))
            for (u, v), c2 in c.comult_basis(k).items():
                key = (j, u, v)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(coeff, c2))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
        if not _dicts_equal(f, lhs, rhs):
            return Verdict.failed("coassociativity", (i,))
    return Verdict.passed()


def dual_algebra_of_coalgebra(c: StructCoalgebra, dual_space: BasedSpace) -> StructAlgebra:
    """The convolution algebra on the dual basis: mult = Δ-transpose."""
    mult: dict = {}
    for i, terms in c.comult.items():
        for (j, k), coeff in terms.items():
            mult.setdefault((j, k), {})[i] = coeff
    return StructAlgebra(c.field, dual_space, mult, c.counit)


def dual_coalgebra_of_algebra(a: StructAlgebra, dual_space: BasedSpace) -> StructCoalgebra:
    """The dual coalgebra on the dual basis: comult = m-transpose."""
    comult: dict = {}
    for (i, j), terms in a.mult.items():
        for k, coeff in terms.items():
            comult.setdefault(k, {})[(i, j)] = coeff
    return StructCoalgebra(a.field, dual_space, comult, a.unit)
