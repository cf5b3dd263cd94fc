"""Structure-constant algebras and coalgebras with axiom checkers.

The structure constants are stored as sparse tables, the families of
``tensors``, and in no other form: ``mult_op`` is the family whose element
i·n + j is e_i · e_j, and ``comult_op`` the family whose element i is
Δ(e_i) on the flattened H⊗H.  The constructors also accept nested dicts,
``mult[(i, j)]`` = {k: coeff of e_k in e_i · e_j} (absent pairs multiply
to zero) and ``comult[i]`` = {(j, k): coeff of e_j ⊗ e_k in Δ(e_i)}, and
convert them once (``tensors._table_of``); a construction that derives new
constants (the duals here, the reflective algebras of ``constructions``)
passes its families straight in.  The tables feed the product kernel of
``tensors`` and the operator families read off them by key arithmetic;
``mult_stack``, the dense left and right multiplications, is built from them.
"""

from __future__ import annotations

import numpy as np

from .errors import HopffactError
from .fields import Field
from .linalg import (BasedSpace, MapMatrix, Span, _batches, _dtype, _field_array, _mod_matmul,
                     _OverBudget, _reduce, _sparse_op)
from .tensors import (_coapply, _differing, _elements, _first_failure, _linear_op, _members,
                      _ProductOp, _products, _table_of, _units)
from .verdicts import Verdict


class StructAlgebra:
    """A finite-dimensional unital algebra given by structure constants:
    ``mult`` is its table (a family, see ``tensors``) or nested dicts
    {(i, j): {k: c}}, converted once."""

    __slots__ = ("field", "space", "unit", "_op", "_left", "_stack", "_gens")

    def __init__(self, field: Field, space: BasedSpace, mult, unit):
        n = space.dim
        if n == 0:
            raise HopffactError("zero-dimensional algebra has no unit vector")
        unit = tuple(unit)
        if len(unit) != n:
            raise HopffactError("unit vector length does not match the space")
        if isinstance(mult, dict):
            mult = _table_of(field, mult, (n, n), (n,))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_op", _ProductOp(mult))
        object.__setattr__(self, "_left", None)
        object.__setattr__(self, "_stack", None)
        object.__setattr__(self, "_gens", None)

    def __setattr__(self, *a):
        raise AttributeError("StructAlgebra is immutable")

    def mult_op(self):
        """The structure constants as a family (see ``tensors``): element
        i·n + j is e_i·e_j, with the rows of the table beside it
        (``tensors._ProductOp``)."""
        return self._op

    def left_op(self):
        """Element i is λ(e_i), [e_i e_j]_k at row k, column j: a matrix
        family (``hopf.HModule.family``) read off the table, built once."""
        if self._left is None:
            n, m = self.dim, self.mult_op()
            i, j = np.divmod(_members(m), n)
            object.__setattr__(self, "_left", _sparse_op(self.field, i, m[2] * n + j, m[3], n, n * n))
        return self._left

    def mult_stack(self) -> np.ndarray:
        """Left, then right, multiplication by every basis element, as one
        read-only stack of field arrays: entry i is λ(e_i) and entry n + j
        is ρ(e_j), both with [e_i e_j]_k at row k.  Built once."""
        if self._stack is None:
            n = self.dim
            counts, _, k, val = self.mult_op()
            i, j = np.divmod(np.repeat(np.arange(n * n), counts), n)
            stack = np.zeros((2 * n, n, n), dtype=_dtype(self.field))
            stack[i, k, j] = val
            stack[n + j, k, i] = val
            stack.flags.writeable = False
            object.__setattr__(self, "_stack", stack)
        return self._stack

    @property
    def dim(self) -> int:
        return self.space.dim

    def unit_dict(self) -> dict:
        f = self.field
        return {i: c for i, c in enumerate(self.unit) if not f.is_zero(c)}

    def left_mult_matrix(self, x: dict) -> MapMatrix:
        return self._mult_matrix(x, 0)

    def right_mult_matrix(self, x: dict) -> MapMatrix:
        return self._mult_matrix(x, self.dim)

    def _mult_matrix(self, x: dict, offset: int) -> MapMatrix:
        """Σ x_i · (entry offset + i of ``mult_stack``)."""
        f, n = self.field, self.dim
        which = offset + np.fromiter(x, dtype=np.int64, count=len(x))
        coeffs = _reduce(f, _field_array(f, [list(x.values())]).reshape(1, len(x)))
        arr = _mod_matmul(f, coeffs, self.mult_stack()[which].reshape(len(x), n * n))
        return MapMatrix(f, self.space, self.space, arr.reshape(n, n))

    def __repr__(self):
        return f"StructAlgebra(dim={self.dim} over {self.field})"


def algebra_generators(a: StructAlgebra) -> list[int]:
    """Basis indices that generate ``a`` as an algebra, chosen in basis order.

    A basis element is chosen when it lies outside the subalgebra generated
    by the elements chosen so far, which is the span of 1 closed under right
    multiplication by them.  That span is spun with the right multiplications
    of ``mult_stack``, on the frontier only: when a generator is chosen, the
    rows found so far are multiplied by it, then every new row by every
    generator.  Membership is read off the span's RREF: e_j lies in it iff
    j is a pivot whose row is e_j itself (the coefficient of row k in e_j
    is its entry at pivot k), so the next generator is found by one test of
    every row.  Raises unless the span ends as all of ``a``.  Chosen once
    per algebra and kept.
    """
    if a._gens is not None:
        return list(a._gens)
    f, n = a.field, a.dim
    by = a.mult_stack()[n:].transpose(0, 2, 1)  # v @ by[g] is v·e_g
    span = Span(f, n)
    span.add(a.unit)
    gens: list[int] = []
    i = 0
    while True:
        inside = np.zeros(n + 1, dtype=bool)  # e_n stands for "none": never inside
        inside[np.array(span.piv, dtype=np.int64)[(span.rows != 0).sum(axis=1) == 1]] = True
        i += int(np.argmin(inside[i:]))
        if i == n:
            break
        gens.append(i)
        start = span.dim
        span.add_batch(_mod_matmul(f, span.rows, by[i]))
        while start < span.dim < n:
            frontier = span.rows[start:]
            start = span.dim
            span.add_batch(_mod_matmul(f, frontier, by[gens]).reshape(-1, n))
        i += 1
    if span.dim != n:
        raise HopffactError("the chosen generators do not span the algebra")
    object.__setattr__(a, "_gens", tuple(gens))
    return gens


class StructCoalgebra:
    """A finite-dimensional coalgebra given by structure constants:
    ``comult`` is its table (a family, see ``tensors``) or nested dicts
    {i: {(j, k): c}}, converted once."""

    __slots__ = ("field", "space", "counit", "_op")

    def __init__(self, field: Field, space: BasedSpace, comult, counit):
        n = space.dim
        counit = tuple(counit)
        if len(counit) != n:
            raise HopffactError("counit length does not match the space")
        if isinstance(comult, dict):
            comult = _table_of(field, comult, (n,), (n, n))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "counit", counit)
        object.__setattr__(self, "_op", comult)

    def __setattr__(self, *a):
        raise AttributeError("StructCoalgebra is immutable")

    def comult_op(self):
        """The structure constants as a family (see ``tensors``): element i
        is Δ(e_i) on the flattened H⊗H."""
        return self._op

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"StructCoalgebra(dim={self.dim} over {self.field})"


def check_algebra(a: StructAlgebra) -> Verdict:
    """Unitality, then associativity, entrywise; first failure wins.

    Each identity is checked on every basis index at once: 1·e_i and e_i·1
    for all i, then (e_i e_j) e_k and e_i (e_j e_k) for all n³ triples.
    The triples go in runs of ascending i (``linalg._batches``), as many i
    per run as keep its n² triples each within the cell budget: a run
    compares m's elements i·n + j (e_i e_j) times every e_k with every e_i
    times m's elements j·n + k, so nothing of size n³ is formed, and the
    first run that fails holds the lexicographically first failing triple.
    Up to n = 101 all triples are one run.
    """
    f, n = a.field, a.dim
    m, e, unit = a.mult_op(), _linear_op(f, np.eye(n, dtype=np.int64)), _units(f, [a])
    bad = _first_failure(
        _differing(f, _products(f, unit, e, [m], [n]), e, n),
        _differing(f, _products(f, e, unit, [m], [n]), e, n),
    )
    if bad:
        return Verdict.failed("unitality", bad[:1], ("1·e_i ≠ e_i", "e_i·1 ≠ e_i")[bad[1]])
    def run(lo, hi, limit):
        if limit is not None and (hi - lo) * n * n > limit:
            raise _OverBudget
        # element (i − lo)·n² + j·n + k of both sides is the triple (i, j, k)
        return lo * n * n + _differing(f, _products(f, _elements(m, lo * n, hi * n), e, [m], [n]),
                                       _products(f, _elements(e, lo, hi), m, [m], [n]), n)

    for bad in _batches(run, n):
        if bad.size:
            i, jk = divmod(int(bad[0]), n * n)
            return Verdict.failed("associativity", (i, *divmod(jk, n)))
    return Verdict.passed()


def check_coalgebra(c: StructCoalgebra) -> Verdict:
    """Counitality, then coassociativity, entrywise duals of the above."""
    f, n = c.field, c.dim
    d, e, eps = c.comult_op(), _linear_op(f, np.eye(n, dtype=np.int64)), _linear_op(f, [c.counit])
    bad = _first_failure(*(_differing(f, _coapply(f, d, (n, n), leg, eps, 1), e, n)
                           for leg in (0, 1)))
    if bad:
        sides = ("(ε⊗id)Δ ≠ id", "(id⊗ε)Δ ≠ id")
        return Verdict.failed("counitality", bad[:1], sides[bad[1]])
    bad = _differing(f, _coapply(f, d, (n, n), 0, d, n * n),
                     _coapply(f, d, (n, n), 1, d, n * n), n ** 3)
    if bad.size:
        return Verdict.failed("coassociativity", (int(bad[0]),))
    return Verdict.passed()


def dual_algebra_of_coalgebra(c: StructCoalgebra, dual_space: BasedSpace) -> StructAlgebra:
    """The convolution algebra on the dual basis: mult = Δ-transpose, the Δ
    family re-keyed from (i; j·n + k) to (j·n + k; i)."""
    d, n = c.comult_op(), c.dim
    mult = _sparse_op(c.field, d[2], _members(d), d[3], n * n, n)
    return StructAlgebra(c.field, dual_space, mult, c.counit)


def dual_coalgebra_of_algebra(a: StructAlgebra, dual_space: BasedSpace) -> StructCoalgebra:
    """The dual coalgebra on the dual basis: comult = m-transpose, the m
    family re-keyed from (i·n + j; k) to (k; i·n + j)."""
    m, n = a.mult_op(), a.dim
    comult = _sparse_op(a.field, m[2], _members(m), m[3], n, n * n)
    return StructCoalgebra(a.field, dual_space, comult, a.unit)
