"""Hopf algebras from structure constants: checkers, antipode solving, duals,
and their finite-dimensional modules."""

from __future__ import annotations

from .algebras import (
    StructAlgebra,
    StructCoalgebra,
    check_algebra,
    check_coalgebra,
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
    _dicts_equal,
)
from .errors import InconsistentSystem, NoAntipode, NotInvertible, SpaceMismatch
from .fields import Field, PrimeField
from .linalg import (
    BasedSpace,
    MapMatrix,
    _field_array,
    _gather,
    _mod_matmul,
    _mul,
    _scalar_rows,
    _sparse_op,
    _sparse_values,
    solve_columns,
)
from .verdicts import Verdict

import numpy as np


class HopfAlgebra:
    """Algebra + coalgebra on one space, with a verified-invertible antipode."""

    __slots__ = ("field", "algebra", "coalgebra", "antipode", "antipode_inv", "_adjoints")

    def __init__(self, algebra: StructAlgebra, coalgebra: StructCoalgebra,
                 antipode: MapMatrix, antipode_inv: MapMatrix):
        if algebra.space.labels != coalgebra.space.labels:
            raise SpaceMismatch("algebra and coalgebra live on different spaces")
        object.__setattr__(self, "field", algebra.field)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coalgebra", coalgebra)
        object.__setattr__(self, "antipode", antipode)
        object.__setattr__(self, "antipode_inv", antipode_inv)
        object.__setattr__(self, "_adjoints", None)

    def __setattr__(self, *a):
        raise AttributeError("HopfAlgebra is immutable")

    @property
    def space(self) -> BasedSpace:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.algebra.dim

    # sparse-element helpers -------------------------------------------------
    def multiply(self, x: dict, y: dict) -> dict:
        return self.algebra.multiply(x, y)

    def unit_dict(self) -> dict:
        return self.algebra.unit_dict()

    def comult_basis(self, i: int) -> dict:
        return self.coalgebra.comult_basis(i)

    def counit(self, x: dict):
        return self.coalgebra.counit_of(x)

    def s_dict(self, x: dict) -> dict:
        return _matrix_apply_dict(self.antipode, x)

    def s_inv_dict(self, x: dict) -> dict:
        return _matrix_apply_dict(self.antipode_inv, x)

    def s_basis(self, i: int) -> dict:
        f = self.field
        col = [row[i] for row in self.antipode.rows]
        return {k: c for k, c in enumerate(col) if not f.is_zero(c)}

    def adjoint_matrices(self) -> tuple:
        """The adjoint action ℓ ↦ h_(1) · ℓ · S(h_(2)) on H of every basis
        element h, as matrices (computed once)."""
        if self._adjoints is None:
            f = self.field
            alg = self.algebra
            left = [alg.left_mult_matrix({i: f.one}) for i in range(self.dim)]
            right_s = [alg.right_mult_matrix(self.s_basis(i)) for i in range(self.dim)]
            mats = []
            for t in range(self.dim):
                acc = MapMatrix.zero(f, self.space, self.space)
                for (a1, a2), dc in self.comult_basis(t).items():
                    acc = acc + (left[a1] @ right_s[a2]).scale(dc)
                mats.append(acc)
            object.__setattr__(self, "_adjoints", tuple(mats))
        return self._adjoints

    def __repr__(self):
        return f"HopfAlgebra(dim={self.dim} over {self.field})"


def _matrix_apply_dict(m: MapMatrix, x: dict) -> dict:
    f = m.field
    out = {}
    for j, cj in x.items():
        if f.is_zero(cj):
            continue
        for k, row in enumerate(m.rows):
            c = row[j]
            if not f.is_zero(c):
                val = f.add(out.get(k, f.zero), f.mul(cj, c))
                if f.is_zero(val):
                    out.pop(k, None)
                else:
                    out[k] = val
    return out


def solve_antipode(algebra: StructAlgebra, coalgebra: StructCoalgebra) -> MapMatrix:
    """The antipode as the solution of m(S⊗id)Δ = uε, solved in End(H).

    Raises NoAntipode when the system is inconsistent or the solution fails
    the right-hand identity m(id⊗S)Δ = uε.
    """
    f = algebra.field
    n = algebra.dim
    sp = algebra.space
    # unknowns S[a][b] (column-major: x[a*n+b] = S[a][b], S(e_b) = Σ_a S[a][b] e_a)
    row_map: dict = {}
    for i in range(n):
        for (j, k), dc in coalgebra.comult_basis(i).items():
            for a in range(n):
                for c, mc in algebra.mult_basis(a, k).items():
                    key = (i, c)
                    col = a * n + j
                    cur = row_map.setdefault(key, {})
                    cur[col] = f.add(cur.get(col, f.zero), f.mul(dc, mc))
    rows = []
    rhs = []
    for i in range(n):
        eps = coalgebra.counit[i]
        for c in range(n):
            entries = row_map.get((i, c), {})
            row = [f.zero] * (n * n)
            for col, v in entries.items():
                row[col] = v
            rows.append(tuple(row))
            rhs.append(f.mul(eps, algebra.unit[c]))
    try:
        sol = solve_columns(rows, [tuple(rhs)], n * n, f)[0]
    except InconsistentSystem as exc:
        raise NoAntipode("antipode system is inconsistent") from exc
    s_rows = [tuple(sol[a * n + b] for b in range(n)) for a in range(n)]
    s = MapMatrix(f, sp, sp, s_rows)
    verdict = _check_antipode_identities(algebra, coalgebra, s)
    if not verdict:
        raise NoAntipode(f"solved map fails {verdict.axiom} at {verdict.witness}")
    return s


def _check_antipode_identities(algebra, coalgebra, s: MapMatrix) -> Verdict:
    f = algebra.field
    n = algebra.dim
    u = algebra.unit_dict()
    for i in range(n):
        target = {
            k: f.mul(coalgebra.counit[i], c)
            for k, c in u.items()
            if not f.is_zero(f.mul(coalgebra.counit[i], c))
        }
        left = {}
        right = {}
        for (j, k), dc in coalgebra.comult_basis(i).items():
            sj = _matrix_apply_dict(s, {j: dc})
            for out, c in algebra.multiply(sj, {k: f.one}).items():
                val = f.add(left.get(out, f.zero), c)
                left[out] = val
            sk = _matrix_apply_dict(s, {k: dc})
            for out, c in algebra.multiply({j: f.one}, sk).items():
                val = f.add(right.get(out, f.zero), c)
                right[out] = val
        left = {k: v for k, v in left.items() if not f.is_zero(v)}
        right = {k: v for k, v in right.items() if not f.is_zero(v)}
        if not _dicts_equal(f, left, target):
            return Verdict.failed("antipode-left", (i,), "m(S⊗id)Δ ≠ uε")
        if not _dicts_equal(f, right, target):
            return Verdict.failed("antipode-right", (i,), "m(id⊗S)Δ ≠ uε")
    return Verdict.passed()


def make_hopf(algebra: StructAlgebra, coalgebra: StructCoalgebra,
              antipode: MapMatrix | None = None) -> HopfAlgebra:
    """Assemble a Hopf algebra; the antipode is solved when not supplied and
    verified either way.  Its inverse is the matrix inverse, double-checked
    as the antipode of the co-opposite."""
    if antipode is None:
        antipode = solve_antipode(algebra, coalgebra)
    else:
        verdict = _check_antipode_identities(algebra, coalgebra, antipode)
        if not verdict:
            raise NoAntipode(f"supplied antipode fails {verdict.axiom} at {verdict.witness}")
    try:
        antipode_inv = antipode.inverse()
    except NotInvertible as exc:
        raise NoAntipode("antipode is not invertible") from exc
    h = HopfAlgebra(algebra, coalgebra, antipode, antipode_inv)
    v = _check_coop_antipode(h)
    if not v:
        raise NoAntipode(f"S^-1 fails the co-opposite identity at {v.witness}")
    return h


def _check_coop_antipode(h: HopfAlgebra) -> Verdict:
    """Σ S⁻¹(h_(2)) h_(1) = ε(h)1 = Σ h_(2) S⁻¹(h_(1))."""
    f = h.field
    u = h.unit_dict()
    for i in range(h.dim):
        eps = h.coalgebra.counit[i]
        target = {k: f.mul(eps, c) for k, c in u.items() if not f.is_zero(f.mul(eps, c))}
        left: dict = {}
        right: dict = {}
        for (j, k), dc in h.comult_basis(i).items():
            sk = h.s_inv_dict({k: dc})
            for out, c in h.multiply(sk, {j: f.one}).items():
                left[out] = f.add(left.get(out, f.zero), c)
            sj = h.s_inv_dict({j: dc})
            for out, c in h.multiply({k: f.one}, sj).items():
                right[out] = f.add(right.get(out, f.zero), c)
        left = {k: v for k, v in left.items() if not f.is_zero(v)}
        right = {k: v for k, v in right.items() if not f.is_zero(v)}
        if not _dicts_equal(f, left, target) or not _dicts_equal(f, right, target):
            return Verdict.failed("coop-antipode", (i,))
    return Verdict.passed()


def check_bialgebra(algebra: StructAlgebra, coalgebra: StructCoalgebra) -> Verdict:
    """Δ and ε are algebra maps; Δ(1) = 1⊗1 and ε(1) = 1."""
    f = algebra.field
    n = algebra.dim
    u = algebra.unit_dict()
    du = coalgebra.comult_of(u)
    u2 = {}
    for a, ca in u.items():
        for b, cb in u.items():
            u2[(a, b)] = f.mul(ca, cb)
    if not _dicts_equal(f, du, u2):
        return Verdict.failed("bialgebra", None, "Δ(1) ≠ 1⊗1")
    if coalgebra.counit_of(u) != f.one:
        return Verdict.failed("bialgebra", None, "ε(1) ≠ 1")
    for i in range(n):
        for j in range(n):
            prod = algebra.mult_basis(i, j)
            lhs = coalgebra.comult_of(prod)
            rhs = {}
            for (a, b), c1 in coalgebra.comult_basis(i).items():
                for (a2, b2), c2 in coalgebra.comult_basis(j).items():
                    c12 = f.mul(c1, c2)
                    for x, cx in algebra.mult_basis(a, a2).items():
                        for y, cy in algebra.mult_basis(b, b2).items():
                            key = (x, y)
                            rhs[key] = f.add(
                                rhs.get(key, f.zero), f.mul(c12, f.mul(cx, cy))
                            )
            rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
            if not _dicts_equal(f, lhs, rhs):
                return Verdict.failed("bialgebra", (i, j), "Δ not multiplicative")
            e_lhs = coalgebra.counit_of(prod)
            e_rhs = f.mul(coalgebra.counit[i], coalgebra.counit[j])
            if e_lhs != e_rhs:
                return Verdict.failed("bialgebra", (i, j), "ε not multiplicative")
    return Verdict.passed()


def check_hopf(h: HopfAlgebra) -> Verdict:
    """Full axiom sweep: algebra, coalgebra, bialgebra, antipode identities."""
    v = check_algebra(h.algebra)
    if not v:
        return v
    v = check_coalgebra(h.coalgebra)
    if not v:
        return v
    v = check_bialgebra(h.algebra, h.coalgebra)
    if not v:
        return v
    v = _check_antipode_identities(h.algebra, h.coalgebra, h.antipode)
    if not v:
        return v
    if not (h.antipode @ h.antipode_inv).is_identity():
        return Verdict.failed("antipode-inverse", None, "S∘S⁻¹ ≠ id")
    if not (h.antipode_inv @ h.antipode).is_identity():
        return Verdict.failed("antipode-inverse", None, "S⁻¹∘S ≠ id")
    return _check_coop_antipode(h)


def dual_hopf(h: HopfAlgebra) -> HopfAlgebra:
    """H* on the dual basis: mult = Δᵀ, comult = mᵀ, antipode = Sᵀ."""
    dual_space = h.space.dual()
    alg = dual_algebra_of_coalgebra(h.coalgebra, dual_space)
    coalg = dual_coalgebra_of_algebra(h.algebra, dual_space)
    s_t = MapMatrix(h.field, dual_space, dual_space,
                    tuple(zip(*h.antipode.rows)))
    s_inv_t = MapMatrix(h.field, dual_space, dual_space,
                        tuple(zip(*h.antipode_inv.rows)))
    return HopfAlgebra(alg, coalg, s_t, s_inv_t)


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------

class HModule:
    """A finite-dimensional module: one action matrix per Hopf basis element."""

    __slots__ = ("space", "action")

    def __init__(self, space: BasedSpace, action):
        action = tuple(action)
        for m in action:
            if m.domain.labels != space.labels or m.codomain.labels != space.labels:
                raise SpaceMismatch("action matrices must be endomorphisms of the carrier")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "action", action)

    def __setattr__(self, *a):
        raise AttributeError("HModule is immutable")

    @property
    def dim(self) -> int:
        return self.space.dim

    def act(self, x: dict, vec):
        """Apply a sparse Hopf element to a dense carrier vector."""
        f = self.action[0].field
        out = [f.zero] * self.dim
        for i, ci in x.items():
            piece = self.action[i].apply(vec)
            out = [f.add(a, f.mul(ci, b)) for a, b in zip(out, piece)]
        return tuple(out)

    def __repr__(self):
        return f"HModule(dim={self.dim})"


def regular_module(h: HopfAlgebra) -> HModule:
    f = h.field
    return HModule(
        h.space, [h.algebra.left_mult_matrix({i: f.one}) for i in range(h.dim)]
    )


def trivial_module(h: HopfAlgebra) -> HModule:
    f = h.field
    sp = BasedSpace(("1",))
    return HModule(
        sp, [MapMatrix(f, sp, sp, [[h.coalgebra.counit[i]]]) for i in range(h.dim)]
    )


def check_module(h: HopfAlgebra, x: HModule) -> Verdict:
    """ρ(1) = id and ρ(a)ρ(b) = ρ(ab), extended linearly."""
    return check_representation(h.algebra, x)


def check_representation(algebra, x: HModule) -> Verdict:
    """Representation laws of a structure-constant algebra on a module."""
    f = algebra.field
    if len(x.action) != algebra.dim:
        return Verdict.failed("module-shape", None, "one matrix per basis element required")
    ident = MapMatrix.identity(f, x.space)
    rho_unit = _combine_action(f, x, algebra.unit_dict())
    if rho_unit != ident:
        return Verdict.failed("module-unit", None, "ρ(1) ≠ id")
    use_np = isinstance(f, PrimeField) and x.dim > 8
    if use_np:
        stacks = [m.numpy().astype(np.float64) for m in x.action]
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            prod = algebra.mult_basis(i, j)
            if use_np:
                lhs = _mod_matmul(f, stacks[i], stacks[j])
                rhs = np.zeros_like(lhs)
                for k, c in prod.items():
                    # c·x + r ≤ (p-1)² + p - 1 < 2**53 for a supported prime
                    rhs = (rhs + c * stacks[k]) % f.p
                if not np.array_equal(lhs, rhs):
                    return Verdict.failed("module-mult", (i, j))
            else:
                lhs = x.action[i] @ x.action[j]
                if lhs != _combine_action(f, x, prod):
                    return Verdict.failed("module-mult", (i, j))
    return Verdict.passed()


def _combine_action(f, x: HModule, elem: dict) -> MapMatrix:
    out = MapMatrix.zero(f, x.space, x.space)
    for i, c in elem.items():
        out = out + x.action[i].scale(c)
    return out


def kron_matrix(a: MapMatrix, b: MapMatrix) -> MapMatrix:
    """Kronecker product with tensor-labelled spaces."""
    f = a.field
    dom = a.domain.tensor(b.domain)
    cod = a.codomain.tensor(b.codomain)
    if isinstance(f, PrimeField):
        arr = np.kron(a.numpy(), b.numpy()) % f.p
        rows = [tuple(int(v) for v in row) for row in arr]
        return MapMatrix(f, dom, cod, rows)
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append(tuple(f.mul(x, y) for x in ra for y in rb))
    return MapMatrix(f, dom, cod, rows)


def _family(f: Field, mats):
    """The nonzeros of a family of square matrices as a sparse operator:
    input a (the member), output row·d + column."""
    if isinstance(f, PrimeField):
        stack = np.stack([m.numpy() for m in mats])
    else:
        stack = _field_array(f, [m.rows for m in mats])
    which, row, col = np.nonzero(stack)
    n, d = len(mats), stack.shape[1]
    return _sparse_op(f, which, row * d + col, stack[which, row, col], n, d * d)


def element_terms(t) -> list:
    """The terms (0, a, b, c) of c·e_a⊗e_b in a two-leg tensor element."""
    return [(0, a, b, c) for (a, b), c in t.coeffs.items()]


def _kron_sum(f: Field, terms, legs, groups: int = 1):
    """Σ c·A_a ⊗ B_b ⊗ … over ``terms`` [(g, a, b, …, c)], with A, B, …
    the matrix families in ``legs``, as a sparse operator with input
    g·dim + u, so each of the ``groups`` g is an operator on A⊗B⊗….

    Entries are products of the nonzeros of the matrices, summed in the
    field; input and output indices are row-major over the legs.
    """
    parts = list(zip(*terms)) or [()] * (len(legs) + 2)
    src = np.arange(len(terms))
    inp = np.array(parts[0], dtype=np.int64)
    out = np.zeros_like(inp)
    val = _sparse_values(f, parts[-1])
    n = 1
    for mats, which in zip(legs, parts[1:-1]):
        d = mats[0].domain.dim
        rep, pos, v = _gather(_family(f, mats), np.array(which, dtype=np.int64)[src])
        row, col = np.divmod(pos, d)
        src, inp, out = src[rep], inp[rep] * d + col, out[rep] * d + row
        val = _mul(f, val[rep], v)
        n *= d
    return _sparse_op(f, inp, out, val, groups * n, n)


def kron_sums(terms, mats_a, mats_b, groups: int = 1, swap: bool = False) -> list:
    """Σ c·A_a ⊗ B_b for each group g < ``groups`` of ``terms``
    [(g, a, b, c)], as dense maps on A⊗B; with ``swap`` they land in B⊗A."""
    f = mats_a[0].field
    sa, sb = mats_a[0].domain, mats_b[0].domain
    dom = sa.tensor(sb)
    cod = sb.tensor(sa) if swap else dom
    n = dom.dim
    counts, _, out, val = _kron_sum(f, terms, (mats_a, mats_b), groups)
    if swap:
        out = out % sb.dim * sa.dim + out // sb.dim
    inp = np.repeat(np.arange(groups * n), counts)
    bounds = np.searchsorted(inp, np.arange(groups + 1) * n)
    mats = []
    for g in range(groups):
        sel = slice(bounds[g], bounds[g + 1])
        dense = np.zeros((n, n), dtype=val.dtype)
        dense[out[sel], inp[sel] - g * n] = val[sel]
        mats.append(MapMatrix(f, dom, cod, _scalar_rows(f, dense)))
    return mats


def module_tensor(h: HopfAlgebra, x: HModule, y: HModule) -> HModule:
    """X ⊗ Y with action through the comultiplication."""
    terms = [(i, a, b, c) for i in range(h.dim) for (a, b), c in h.comult_basis(i).items()]
    return HModule(x.space.tensor(y.space), kron_sums(terms, x.action, y.action, h.dim))


def module_dual(h: HopfAlgebra, x: HModule) -> HModule:
    """Left dual X*: the action is the transpose of the S-twisted action."""
    f = h.field
    sp = x.space.dual()
    mats = []
    for i in range(h.dim):
        acc = MapMatrix.zero(f, x.space, x.space)
        for j, c in h.s_basis(i).items():
            acc = acc + x.action[j].scale(c)
        rows = tuple(zip(*acc.rows))
        mats.append(MapMatrix(f, sp, sp, rows))
    return HModule(sp, mats)


def module_evaluation(h: HopfAlgebra, x: HModule) -> MapMatrix:
    """ev: X* ⊗ X → k, the pairing row vector."""
    f = h.field
    dom = x.space.dual().tensor(x.space)
    cod = BasedSpace(("1",))
    n = x.dim
    row = tuple(
        f.one if (a == b) else f.zero for a in range(n) for b in range(n)
    )
    return MapMatrix(f, dom, cod, [row])


def module_coevaluation(h: HopfAlgebra, x: HModule) -> MapMatrix:
    """coev: k → X ⊗ X*, 1 ↦ Σ x_i ⊗ x^i."""
    f = h.field
    dom = BasedSpace(("1",))
    cod = x.space.tensor(x.space.dual())
    n = x.dim
    col = [(f.one if (a == b) else f.zero,) for a in range(n) for b in range(n)]
    return MapMatrix(f, dom, cod, col)
