"""Hopf algebras from structure constants: checkers, antipode solving, duals,
and their finite-dimensional modules."""

from __future__ import annotations

import functools

from .algebras import (
    StructAlgebra,
    StructCoalgebra,
    check_algebra,
    check_coalgebra,
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
)
from .errors import InconsistentSystem, NoAntipode, NotInvertible, SpaceMismatch
from .fields import Field
from .linalg import (
    BasedSpace,
    MapMatrix,
    _batches,
    _combine,
    _dtype,
    _field_array,
    _gather,
    _mod_matmul,
    _mul,
    _operator,
    _over,
    _reduce,
    _sparse_op,
    _sparse_values,
    solve_columns,
)
from .tensors import (
    _coapply,
    _columns,
    _differing,
    _first_failure,
    _flip,
    _kron_sum,
    _linear_op,
    _members,
    _products,
    _units,
)
from .verdicts import Verdict

import numpy as np


class HopfAlgebra:
    """Algebra + coalgebra on one space, with an antipode.

    The inverse of the antipode is computed on first use when it is not
    supplied, and kept; NotInvertible propagates when S is singular.
    """

    __slots__ = ("field", "algebra", "coalgebra", "antipode", "_antipode_inv", "_adjoints")

    def __init__(self, algebra: StructAlgebra, coalgebra: StructCoalgebra,
                 antipode: MapMatrix, antipode_inv: MapMatrix | None = None):
        if algebra.space.labels != coalgebra.space.labels:
            raise SpaceMismatch("algebra and coalgebra live on different spaces")
        object.__setattr__(self, "field", algebra.field)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coalgebra", coalgebra)
        object.__setattr__(self, "antipode", antipode)
        object.__setattr__(self, "_antipode_inv", antipode_inv)
        object.__setattr__(self, "_adjoints", None)

    def __setattr__(self, *a):
        raise AttributeError("HopfAlgebra is immutable")

    @property
    def antipode_inv(self) -> MapMatrix:
        if self._antipode_inv is None:
            object.__setattr__(self, "_antipode_inv", self.antipode.inverse())
        return self._antipode_inv

    @property
    def space(self) -> BasedSpace:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def unit_dict(self) -> dict:
        return self.algebra.unit_dict()

    def adjoint_module(self) -> HModule:
        """H under the adjoint action ℓ ↦ h_(1) · ℓ · S(h_(2)), built once
        from the family of (id⊗S)Δ(h) (``_sandwich_maps``)."""
        if self._adjoints is None:
            f, n = self.field, self.dim
            s_op = _linear_op(f, self.antipode.array)
            twisted = _coapply(f, self.coalgebra.comult_op(), (n, n), 1, s_op, n)
            ad = _sandwich_maps(self.algebra, twisted)
            stack = np.zeros((n, n * n), dtype=_dtype(f))
            stack[_members(ad), ad[2]] = ad[3]
            object.__setattr__(self, "_adjoints", HModule(self.space, stack.reshape(n, n, n), f))
        return self._adjoints

    def __repr__(self):
        return f"HopfAlgebra(dim={self.dim} over {self.field})"


def _sandwich_maps(algebra: StructAlgebra, fam):
    """For every element Σ c·e_a⊗e_c of a two-leg family on the algebra,
    the matrix of x ↦ Σ c·e_a·x·e_c, as a family keyed row·n + column.

    Ψ(a⊗c), the map x ↦ e_a e_x e_c, is the family of the products
    (e_a e_x)·e_c; each element's matrix is Ψ applied to it.
    """
    f, n = algebra.field, algebra.dim
    m = algebra.mult_op()
    prods = _products(f, m, _linear_op(f, np.eye(n, dtype=np.int64)), [m], [n])
    ax, c = np.divmod(_members(prods), n)  # element (a·n + x)·n + c
    a, x = np.divmod(ax, n)
    psi = _sparse_op(f, a * n + c, prods[2] * n + x, prods[3], n * n, n * n)
    return _coapply(f, fam, (n * n,), 0, psi, n * n)


def solve_antipode(algebra: StructAlgebra, coalgebra: StructCoalgebra) -> MapMatrix:
    """The antipode as the solution of m(S⊗id)Δ = uε, solved in End(H).

    Raises NoAntipode when the system is inconsistent or the solution fails
    the right-hand identity m(id⊗S)Δ = uε.
    """
    f, n, sp = algebra.field, algebra.dim, algebra.space
    # unknowns S[a][b] (column-major: x[a*n+b] = S[a][b], S(e_b) = Σ_a S[a][b] e_a);
    # equation i·n + c: the e_c-coefficient of Σ dc·S(e_j)e_k over Δ(e_i) ∋ dc·e_j⊗e_k
    d = coalgebra.comult_op()
    j, k = np.divmod(d[2], n)
    rep, c, mc = _gather(algebra.mult_op(), (np.arange(n) * n + k[:, None]).ravel())
    term, a = np.divmod(rep, n)
    counts, _, cols, vals = _sparse_op(f, _members(d)[term] * n + c, a * n + j[term],
                                       _mul(f, d[3][term], mc), n * n, n * n)
    system = np.zeros((n * n, n * n), dtype=vals.dtype)
    system[np.repeat(np.arange(n * n), counts), cols] = vals
    rhs = [f.mul(eps, u) for eps in coalgebra.counit for u in algebra.unit]
    try:
        sol = solve_columns(system, [tuple(rhs)], n * n, f)[0]
    except InconsistentSystem as exc:
        raise NoAntipode("antipode system is inconsistent") from exc
    s = MapMatrix(f, sp, sp, _field_array(f, sol).reshape(n, n))
    verdict = _check_antipode_identities(algebra, coalgebra, s)
    if not verdict:
        raise NoAntipode(f"solved map fails {verdict.axiom} at {verdict.witness}")
    return s


def _check_antipode_identities(algebra, coalgebra, s: MapMatrix) -> Verdict:
    """m(S⊗id)Δ = uε, then m(id⊗S)Δ = uε, on every basis element at once."""
    bad = _antipode_failure(algebra, coalgebra, coalgebra.comult_op(), s)
    if bad:
        return Verdict.failed(("antipode-left", "antipode-right")[bad[1]], bad[:1],
                              ("m(S⊗id)Δ ≠ uε", "m(id⊗S)Δ ≠ uε")[bad[1]])
    return Verdict.passed()


def _antipode_failure(algebra, coalgebra, d, s: MapMatrix):
    """The first basis index i, and the side, at which m(S⊗id)d(e_i) or
    m(id⊗S)d(e_i) differs from ε(e_i)1, for the comultiplication family d;
    None when neither does."""
    f, n = algebra.field, algebra.dim
    target = _linear_op(f, [[f.mul(u, e) for e in coalgebra.counit] for u in algebra.unit])
    s_op, m = _linear_op(f, s.array), algebra.mult_op()
    sides = (_coapply(f, _coapply(f, d, (n, n), leg, s_op, n), (n * n,), 0, m, n) for leg in (0, 1))
    return _first_failure(*(_differing(f, side, target, n) for side in sides))


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
    """Σ S⁻¹(h_(2)) h_(1) = ε(h)1 = Σ h_(2) S⁻¹(h_(1)): the antipode
    identities of the co-opposite, whose antipode is S⁻¹."""
    n = h.dim
    d_op = _flip(h.field, h.coalgebra.comult_op(), (n, n))
    bad = _antipode_failure(h.algebra, h.coalgebra, d_op, h.antipode_inv)
    if bad:
        return Verdict.failed("coop-antipode", bad[:1])
    return Verdict.passed()


def check_bialgebra(algebra: StructAlgebra, coalgebra: StructCoalgebra) -> Verdict:
    """Δ and ε are algebra maps; Δ(1) = 1⊗1 and ε(1) = 1.

    Δ(e_i e_j) = Δ(e_i)Δ(e_j) and ε(e_i e_j) = ε(e_i)ε(e_j) are checked on
    all pairs (i, j) at once; at the first failing pair Δ is named before ε.
    """
    f, n = algebra.field, algebra.dim
    m, d = algebra.mult_op(), coalgebra.comult_op()
    if _differing(f, _coapply(f, _units(f, [algebra]), (n,), 0, d, n * n),
                  _units(f, [algebra, algebra]), n * n).size:
        return Verdict.failed("bialgebra", None, "Δ(1) ≠ 1⊗1")
    if functools.reduce(f.add, map(f.mul, algebra.unit, coalgebra.counit)) != f.one:
        return Verdict.failed("bialgebra", None, "ε(1) ≠ 1")
    eps = _sparse_values(f, coalgebra.counit)
    i, j = np.divmod(np.arange(n * n), n)
    eps_ij = _sparse_op(f, i * n + j, np.zeros_like(i), _mul(f, eps[i], eps[j]), n * n, 1)
    bad = _first_failure(  # element i·n + j: Δ(e_i e_j) against Δ(e_i)Δ(e_j)
        _differing(f, _coapply(f, m, (n,), 0, d, n * n),
                   _products(f, d, d, [m, m], [n, n]), n * n),
        _differing(f, _coapply(f, m, (n,), 0, _linear_op(f, [coalgebra.counit]), 1), eps_ij, 1),
    )
    if bad:
        return Verdict.failed("bialgebra", divmod(int(bad[0]), n),
                              ("Δ not multiplicative", "ε not multiplicative")[bad[1]])
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
    try:
        h.antipode_inv
    except NotInvertible:
        return Verdict.failed("antipode-inverse", None, "S∘S⁻¹ ≠ id")
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
    s_t = MapMatrix(h.field, dual_space, dual_space, h.antipode.array.T)
    s_inv_t = MapMatrix(h.field, dual_space, dual_space, h.antipode_inv.array.T)
    return HopfAlgebra(alg, coalg, s_t, s_inv_t)


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------

class HModule:
    """A finite-dimensional module: the matrices of the Hopf basis elements,
    stored once as one read-only (n, d, d) field array ``stack``.  The
    constructor takes such a stack over ``field`` as is, or a sequence of n
    MapMatrix endomorphisms of ``space``, and stacks it once.

    ``action`` is the matrices as MapMatrix views and ``family()`` their
    nonzeros as one sparse family, each built on first use and kept; the
    verdict of ``check_representation`` is kept with its algebra.
    """

    __slots__ = ("space", "field", "stack", "_action", "_fam", "_laws")

    def __init__(self, space: BasedSpace, action, field: Field | None = None):
        if not isinstance(action, np.ndarray):
            action = tuple(action)
            for m in action:
                if m.domain.labels != space.labels or m.codomain.labels != space.labels:
                    raise SpaceMismatch("action matrices must be endomorphisms of the carrier")
            field = action[0].field
            action = np.stack([m.array for m in action])
        if action.ndim != 3 or action.shape[1:] != (space.dim, space.dim):
            raise SpaceMismatch("action matrices must be endomorphisms of the carrier")
        action.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "stack", action)
        object.__setattr__(self, "_action", None)
        object.__setattr__(self, "_fam", None)
        object.__setattr__(self, "_laws", None)

    def __setattr__(self, *a):
        raise AttributeError("HModule is immutable")

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def action(self) -> tuple:
        if self._action is None:
            mats = tuple(MapMatrix(self.field, self.space, self.space, m) for m in self.stack)
            object.__setattr__(self, "_action", mats)
        return self._action

    def family(self):
        """The action matrices as one sparse family (see ``_family``)."""
        if self._fam is None:
            object.__setattr__(self, "_fam", _family(self.field, self.stack))
        return self._fam

    def __repr__(self):
        return f"HModule(dim={self.dim})"


def _family(f: Field, stack: np.ndarray):
    """The nonzeros of a (n, d, d) stack of matrices as a sparse family:
    input a (the member), output row·d + column."""
    which, row, col = np.nonzero(stack)
    n, d = stack.shape[:2]
    return _sparse_op(f, which, row * d + col, _sparse_values(f, stack[which, row, col]), n, d * d)


def _regular(algebra: StructAlgebra) -> HModule:
    """An algebra acting on itself by left multiplication."""
    return HModule(algebra.space, algebra.mult_stack()[:algebra.dim], algebra.field)


def regular_module(h: HopfAlgebra) -> HModule:
    return _regular(h.algebra)


def trivial_module(h: HopfAlgebra) -> HModule:
    counit = _field_array(h.field, h.coalgebra.counit).reshape(h.dim, 1, 1)
    return HModule(BasedSpace(("1",)), counit, h.field)


def check_module(h: HopfAlgebra, x: HModule) -> Verdict:
    """ρ(1) = id and ρ(a)ρ(b) = ρ(ab), extended linearly."""
    return check_representation(h.algebra, x)


def check_representation(algebra, x: HModule) -> Verdict:
    """Representation laws of a structure-constant algebra on a module:
    ρ(1) = id, then ρ(e_i)ρ(e_j) = ρ(e_i e_j) for every pair; the witness
    is the first failing pair.  The module keeps the verdict for the last
    algebra it was checked against, so a second call is a lookup."""
    if x._laws is None or x._laws[0] is not algebra:
        v = _check_representation(algebra, x, range(algebra.dim))
        object.__setattr__(x, "_laws", (algebra, v))
    return x._laws[1]


def _check_representation(algebra, x: HModule, lefts) -> Verdict:
    """ρ(1) = id, then ρ(e_i)ρ(e_j) = ρ(e_i e_j) for every i in ``lefts``
    and every j, as sparse joins over the action's nonzeros
    (``HModule.family``).  ρ(1) is Σ u_k·ρ(e_k) over the unit's terms,
    summed from the family's entries.  Every product ρ(e_i)ρ(e_j) is one join: a left entry
    ρ(e_i)[r, t] meets the entries of row t of every ρ(e_j), the right
    entries regrouped once by row.  It is compared with ρ(e_i e_j), the
    structure constants of the pairs applied through the family.  The
    pairs go in runs of ``lefts`` (``linalg._batches``), so no join
    exceeds the cell budget and the cost follows the nonzeros; no dense
    product is formed.  The witness is the first failing (i, j),
    i in the order of ``lefts``."""
    f, n, d = algebra.field, algebra.dim, x.dim
    if len(x.stack) != n:
        return Verdict.failed("module-shape", None, "one matrix per basis element required")
    fam = x.family()
    _, _, k, c = _units(f, [algebra])
    rep, out, v = _gather(fam, k)
    out, v = _combine(f, out, _mul(f, v, c[rep]))
    if not (np.array_equal(out, np.arange(d) * (d + 1)) and np.all(v == 1)):
        return Verdict.failed("module-unit", None, "ρ(1) ≠ id")
    t, s = np.divmod(fam[2], d)
    by_row = _sparse_op(f, t, _members(fam) * d + s, fam[3], d, n * d)  # input t: j·d + s
    lefts = np.asarray(lefts, dtype=np.int64)

    def run(lo, hi, limit):
        return _failing_pairs(algebra, fam, by_row, lefts[lo:hi], limit) + lo * n

    for bad in _batches(run, lefts.size):
        if bad.size:
            g, j = divmod(int(bad[0]), n)
            return Verdict.failed("module-mult", (int(lefts[g]), j))
    return Verdict.passed()


def _failing_pairs(algebra, fam, by_row, lefts, limit):
    """The pairs g·n + j, ascending, with ρ(e_i)ρ(e_j) ≠ ρ(e_i e_j) for
    i = lefts[g]; ``by_row`` is the family's entries keyed by row."""
    f, n = algebra.field, algebra.dim
    d = by_row[0].size
    g, rt, v = _gather(fam, lefts)
    r, t = np.divmod(rt, d)
    rep, js, w = _gather(by_row, t, limit)
    j, s = np.divmod(js, d)
    lhs = _sparse_op(f, g[rep] * n + j, r[rep] * d + s, _mul(f, v[rep], w), lefts.size * n, d * d)
    m = algebra.mult_op()
    pairs = (lefts[:, None] * n + np.arange(n)).ravel()
    rep, k, c = _gather(m, pairs)  # the products e_i·e_j, as a family of the pairs
    rhs = _coapply(f, _operator(rep, k, c, pairs.size), (n,), 0, fam, d * d)
    return _differing(f, lhs, rhs, d * d)


def kron_matrix(a: MapMatrix, b: MapMatrix) -> MapMatrix:
    """Kronecker product with tensor-labelled spaces."""
    f = a.field
    return MapMatrix(f, a.domain.tensor(b.domain), a.codomain.tensor(b.codomain),
                     _reduce(f, np.kron(a.array, b.array)))


def element_terms(t):
    """The terms c·e_a⊗e_b of a two-leg tensor element as the columns
    (0, a, b, c) that ``_kron_sum`` takes."""
    return _columns(t._fam, [sp.dim for sp in t.factors])


def kron_sums(terms, x: HModule, y: HModule, groups: int = 1, swap: bool = False) -> np.ndarray:
    """Σ c·ρ_X(a) ⊗ ρ_Y(b) for each group g < ``groups`` of ``terms``, the
    columns (g, a, b, c), as one (groups, n, n) field array of dense maps
    on X⊗Y; with ``swap`` they land in Y⊗X."""
    f, n = x.field, x.dim * y.dim
    (inp, out, val), d = _kron_sum(f, terms, (x.family(), y.family()), (x.dim, y.dim))
    if swap:
        out = out % y.dim * x.dim + out // y.dim
    g, col = np.divmod(inp, n)
    dense = np.zeros((groups, n, n), dtype=_dtype(f))
    dense[g, out, col] = _over(val, d)
    return dense


def module_tensor(h: HopfAlgebra, x: HModule, y: HModule) -> HModule:
    """X ⊗ Y with action through the comultiplication."""
    terms = _columns(h.coalgebra.comult_op(), (h.dim, h.dim))
    return HModule(x.space.tensor(y.space), kron_sums(terms, x, y, h.dim), h.field)


def module_dual(h: HopfAlgebra, x: HModule) -> HModule:
    """Left dual X*: the action of h is the transpose of the action of S(h)."""
    f, d = h.field, x.dim
    acts = x.stack.reshape(h.dim, d * d)
    twisted = _mod_matmul(f, h.antipode.array.T, acts).reshape(h.dim, d, d)
    return HModule(x.space.dual(), np.ascontiguousarray(twisted.transpose(0, 2, 1)), f)


def module_evaluation(h: HopfAlgebra, x: HModule) -> MapMatrix:
    """ev: X* ⊗ X → k, the pairing row vector."""
    eye = np.eye(x.dim, dtype=_dtype(h.field)).reshape(1, -1)
    return MapMatrix(h.field, x.space.dual().tensor(x.space), BasedSpace(("1",)), eye)


def module_coevaluation(h: HopfAlgebra, x: HModule) -> MapMatrix:
    """coev: k → X ⊗ X*, 1 ↦ Σ x_i ⊗ x^i."""
    eye = np.eye(x.dim, dtype=_dtype(h.field)).reshape(-1, 1)
    return MapMatrix(h.field, BasedSpace(("1",)), x.space.tensor(x.space.dual()), eye)
