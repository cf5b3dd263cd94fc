"""Exact dense linear algebra over Q and GF(p), with based-space bookkeeping.

Every matrix is a field array: float64 residues in [0, p) over GF(p), and
Python objects over Q (ints where a value is integral, Fractions
otherwise), so one algorithm serves both fields.  ``MapMatrix`` holds one,
``Span`` keeps the RREF of a growing subspace in one, and the array helpers
below (``_field_array``, ``_mod_matmul``, ``_apply``, ``_kernel``) work on
them.

One elimination kernel sits behind ``echelonize``: a mod-p elimination to
the RREF of a stack of matrices at once (``_gf_echelon``; a matrix is a
stack of one), so many small blocks cost one pass.  Over GF(p) it runs on
the matrices themselves; over Q on images of the denominator-cleared
integer matrices modulo primes below 2**20, whose RREFs are combined by the
CRT, rationally reconstructed and accepted only after an exact check over
Q.  The float path is exact for every prime ``GF`` accepts: every
intermediate integer is kept within the bound of ``_mod_p``, which reduces
every full array (pivot rows and factor columns are reduced mod p before
each update, so entries grow by at most (p-1)**2 per pivot step, and the
stack is reduced again before they could leave that bound).  Every other
GF(p) float product goes through ``_mod_matmul``.  Callers never see a
float: ``MapMatrix.rows`` and the vector-returning functions give field
scalars.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

import numpy as np

from .errors import HopffactError, InconsistentSystem, NotInvertible, SpaceMismatch
from .fields import _FLOAT_EXACT_LIMIT, QQ, Field, PrimeField, require_same_field

# Running totals used by the acceptance suite: every kernel computation
# re-checks rank + nullity = domain dimension.
LINALG_STATS = {"eliminations": 0, "rank_nullity_checks": 0}


class BasedSpace:
    """A finite-dimensional vector space with an ordered, labelled basis.

    Compatibility of spaces (for composition, tensor slots, ...) is decided
    by label-list identity, never by dimension alone.
    """

    __slots__ = ("dim", "labels")

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise HopffactError("basis labels must be unique within a space")
        self.labels = labels
        self.dim = len(labels)

    def __eq__(self, other):
        return isinstance(other, BasedSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"BasedSpace(dim={self.dim})"

    def tensor(self, other: "BasedSpace") -> "BasedSpace":
        return BasedSpace(
            tuple(f"{a}⊗{b}" for a in self.labels for b in other.labels)
        )

    def dual(self) -> "BasedSpace":
        return BasedSpace(tuple(f"{a}*" for a in self.labels))


def space(prefix: str, dim: int) -> BasedSpace:
    return BasedSpace(tuple(f"{prefix}{i}" for i in range(dim)))


# ---------------------------------------------------------------------------
# Raw eliminations (row tuples in, no space bookkeeping)
# ---------------------------------------------------------------------------

def _gf_echelon(a: np.ndarray, p: int):
    """Mod-p elimination to RREF of every matrix of a (B, r, c) stack of
    float64 residues at once; a 2-D matrix is a stack of one.

    Returns (stack, pivots), fully reduced mod p: block b holds its RREF in
    its first rows, in pivot order, and zeros below, and pivots[b] is the
    list of its pivot columns.  A 2-D ``a`` gives (RREF rows, pivot list).

    Column by column, every block with a nonzero entry in a row that is not
    yet a pivot row takes the first such row as its pivot row, scales it to
    a leading 1 and clears the column from its other rows, so a step is a
    few array operations on all the blocks that pivot there, and only the
    rows with a nonzero in the column are updated.  The pivot rows are put
    in pivot order at the end; the result is the RREF, which the row space
    determines, whatever rows the pivots were taken from.  A column that is
    zero in every block is skipped: row operations keep it zero.

    Reduction is lazy: an update moves an entry by at most (p-1)**2, so the
    whole stack is reduced whenever the next update could leave the exact
    range of ``_mod_p``: for small p that never happens, for p near the top
    of the supported range it happens every pivot step.  ``a`` must be
    C-contiguous; it is overwritten.
    """
    stack = a if a.ndim == 3 else a[None]
    nb, nrows, ncols = stack.shape
    growth = (p - 1) ** 2
    bound = p - 1  # no entry exceeds this in absolute value
    blocks = np.arange(nb)
    taken = np.zeros((nb, nrows), dtype=bool)  # the pivot rows so far
    steps = []  # (blocks, their pivot rows, column) of each step
    left = nb * nrows  # rows not taken, over all blocks
    nonzero = np.logical_or.reduce(stack.reshape(nb * nrows, ncols), axis=0)
    for c in nonzero.nonzero()[0].tolist():
        col = stack[:, :, c]
        np.remainder(col, p, out=col)
        cand = col != 0
        np.greater(cand, taken, out=cand)
        # the pivoting blocks b, their pivot rows i and the inverses of the
        # pivots; in a stack of one, a slice, a row index and a scalar
        if nb == 1:
            b, i = slice(None), int(cand.argmax())
            if not cand[0, i]:
                continue
            inv = pow(int(col[0, i]), p - 2, p)
        else:
            i = cand.argmax(axis=1)
            hit = cand[blocks, i]
            if not hit.any():
                continue
            b = blocks
            if not hit.all():
                b = np.flatnonzero(hit)
                i = i[b]
            inv = np.array([pow(int(x), p - 2, p) for x in col[b, i].tolist()])[:, None]
        row = stack[b, i]
        if bound * (p - 1) > _FLOAT_EXACT_LIMIT:  # else row·inv is exact as it is
            row = row % p
        row = row * inv
        np.remainder(row, p, out=row)
        if bound + growth > _FLOAT_EXACT_LIMIT - 2 * p:
            _mod_p(stack, p)
            bound = p - 1
        bound += growth
        # only the rows with a nonzero in column c in some pivoting block
        # change; when every row of every block does, in place
        factors = col[b]
        touched = (factors[0] if nb == 1 else np.logical_or.reduce(factors, axis=0)).nonzero()[0]
        if touched.size < nrows:
            at = b if nb == 1 else b[:, None]
            stack[at, touched] -= factors[:, touched, None] * row[:, None, :]
        elif nb == 1 or b is blocks:
            stack -= col[:, :, None] * row[:, None, :]
        else:
            stack[b] -= factors[:, :, None] * row[:, None, :]
        stack[b, i] = row  # column c is now 0 off the pivot rows
        taken[b, i] = True
        steps.append((b, i, c))
        left -= 1 if nb == 1 else len(b)
        if not left:
            break
    _mod_p(stack, p)
    if nb == 1:
        rows, piv = [i for _, i, _ in steps], [c for _, _, c in steps]
        if rows != list(range(len(rows))):
            stack[0, :len(rows)] = stack[0, rows]
            stack[0, len(rows):] = 0
        return (stack[0, :len(rows)], piv) if a.ndim == 2 else (stack, [piv])
    lead = np.zeros((nb, nrows), dtype=np.int64)  # c − ncols on the pivot row of c
    pivots = [[] for _ in range(nb)]
    for b, i, c in steps:
        lead[b, i] = c - ncols
        for j in b.tolist():
            pivots[j].append(c)
    return stack[blocks[:, None], np.argsort(lead, axis=1, kind="stable")], pivots


def _rational_entries(residues, primes) -> list:
    """The rational numbers whose images mod each of ``primes`` are the
    entries of ``residues`` (per prime, a list of arrays), in row-major
    order, with None for an entry that has no small enough preimage.

    The residues are combined by the Chinese remainder theorem into one
    array mod M = ∏ primes, and each entry u is reconstructed as the r/s
    with r ≡ s·u mod M and |r|, |s| ≤ ⌊√(M/2)⌋ (Wang 1981), which is
    unique when it exists.  Integral entries are ints, as in a Q field
    array.
    """
    flat = [np.concatenate([a.ravel() for a in res]) for res in residues]
    m, acc = primes[0], flat[0].astype(np.int64).astype(object)
    for res, p in zip(flat[1:], primes[1:]):
        acc += m * ((res.astype(np.int64).astype(object) - acc) * pow(m, -1, p) % p)
        m *= p
    bound = isqrt(m // 2)
    out = []
    for u in acc.tolist():
        r0, s0, r1, s1 = m, 0, u, 1
        while r1 > bound:
            q = r0 // r1
            r0, s0, r1, s1 = r1, s1, r0 - q * r1, s0 - q * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            out.append(None)
        else:
            out.append(r1 // s1 if abs(s1) == 1 else Fraction(r1, s1))
    return out


def rational_lift(residues, primes):
    """The rational matrix whose images mod each of ``primes`` are the
    arrays ``residues``, if it has small enough entries
    (``_rational_entries``); else None.  The result is only a candidate:
    the caller verifies it over Q."""
    vals = _rational_entries([[res] for res in residues], primes)
    if any(v is None for v in vals):
        return None
    ncols = residues[0].shape[1]
    return [tuple(vals[s:s + ncols]) for s in range(0, len(vals), ncols)]


_LIFT_PRIMES = []  # the primes below 2**20, largest first, found on demand


def _lift_prime(i: int) -> int:
    """The i-th prime below 2**20, counting from the largest.

    Below 2**20 an update of ``_gf_echelon`` moves an entry by less than
    2**40, so it reduces the matrix only every 8,192 pivot steps, and
    ``_mod_matmul`` takes 8,192 products per block.
    """
    while len(_LIFT_PRIMES) <= i:
        q = (_LIFT_PRIMES[-1] if _LIFT_PRIMES else 1 << 20) - 1
        while any(q % k == 0 for k in range(2, isqrt(q) + 1)):
            q -= 1
        _LIFT_PRIMES.append(q)
    return _LIFT_PRIMES[i]


def _mod_image(val: np.ndarray, p: int):
    """A rational array mod p, as a C-contiguous float64 array of
    residues; None when p divides a denominator."""
    x, d = _integers(QQ, val)
    if d % p == 0:
        return None
    if d != 1:
        x = x * pow(d, -1, p)
    return np.array(x % p, dtype=np.float64, order="C")


def _as_gf_array(rows, ncols: int) -> np.ndarray:
    """A C-contiguous float64 copy of ``rows`` (a matrix or a stack)."""
    if not (isinstance(rows, np.ndarray) or len(rows)):
        return np.zeros((0, ncols), dtype=np.float64)
    return np.array(rows, dtype=np.float64, order="C")


def echelonize(rows, ncols: int, field: Field):
    """Reduced row-echelon form (RREF); returns (rows, pivot_cols).

    Each pivot is 1 and the only nonzero entry of its column, and the row
    space is preserved exactly.  Over GF(p) the rows are a float64 array
    of ints in [0, p); over Q they are tuples of ints and Fractions
    (``_q_echelon``).  ``rows`` may also be a (B, r, ncols) field array, a
    stack of matrices eliminated together by one ``_gf_echelon`` per
    prime; the result is then (stack, pivots) as ``_gf_echelon`` gives it
    for a stack, over either field.
    """
    LINALG_STATS["eliminations"] += 1
    stacked = isinstance(rows, np.ndarray) and rows.ndim == 3
    if isinstance(field, PrimeField):
        return _gf_echelon(_as_gf_array(rows, ncols), field.p)
    if stacked:
        return _q_echelon(_integers(field, rows)[0])
    if not len(rows):
        return [], []
    x, _ = _integers(field, np.asarray(rows, dtype=object).reshape(1, len(rows), ncols))
    ech, (piv,) = _q_echelon(x)
    return list(map(tuple, ech[0, :len(piv)].tolist())), list(piv)


def _q_echelon(x: np.ndarray):
    """The RREFs over Q of a (B, r, c) stack of integer matrices, as
    (stack, pivots) in the format of ``_gf_echelon``: entries are ints and
    Fractions.

    Each block is lifted from RREFs mod primes (``_lift_prime``): the
    primes that give the block's best pivot list so far (more pivots, then
    the lexicographically earliest) are CRT-combined and rationally
    reconstructed, one prime more until the candidate E passes
    x == x[:, piv]·E exactly (``_lift_blocks``).  That certificate is
    complete: reduction mod p never raises rank, so rank x ≥ |piv|; the
    identity puts the row space of x inside that of E, of dimension |piv|,
    so the two are equal, and the RREF of a row space is unique.  Each
    prime costs one mod-p image and one stacked elimination of the blocks
    not yet certified.  An unlucky prime costs only its own blocks one more
    prime, never a wrong answer.
    """
    nb, nrows, ncols = x.shape
    ech = np.zeros(x.shape, dtype=object)
    pivots = [None] * nb
    best = [(1, ())] * nb  # each block's best (−rank, pivots), (1, ()) before any
    primes = [()] * nb  # and the primes that gave it
    kept = [[] for _ in range(nb)]  # with their RREFs mod p
    todo = list(range(nb))
    for i in count():
        if not todo:
            return ech, pivots
        p = _lift_prime(i)
        images, found = _gf_echelon(_mod_image(x if len(todo) == nb else x[todo], p), p)
        groups = {}  # the blocks that keep p, by the primes they keep
        for j, e, piv in zip(todo, images, found):
            key = (-len(piv), piv)
            if key > best[j]:
                continue  # p lost rank or moved a pivot
            if key < best[j]:
                best[j], primes[j], kept[j] = key, (), []
            primes[j] += (p,)
            kept[j].append(e)
            groups.setdefault(primes[j], []).append(j)
        for group in groups.values():
            for j in _lift_blocks(x, group, [best[j][1] for j in group],
                                  [kept[j] for j in group], primes[group[0]], ech):
                pivots[j] = best[j][1]
                todo.remove(j)


def _lift_blocks(x: np.ndarray, blocks, pivot_lists, residues, primes, ech: np.ndarray):
    """The blocks of the integer stack x whose RREF over Q is lifted from
    their RREFs mod ``primes`` (``residues``, per block a list with one per
    prime); each such RREF is written into ``ech``.

    One ``_rational_entries`` reconstructs the free entries of every
    block (those off the pivot columns, in the rows down to the rank).  A
    block whose entries all reconstruct is accepted when its candidate E
    passes x == x[:, piv]·E exactly; E is the identity on the pivot
    columns, so only the others are compared, as x[:, piv]·(d·E) == d·x
    in integers, d the common denominator of E.
    """
    ncols = x.shape[2]
    frees = [sorted(set(range(ncols)) - set(piv)) for piv in pivot_lists]
    vals = _rational_entries(
        [[res[t][:len(piv), free] for res, piv, free in zip(residues, pivot_lists, frees)]
         for t in range(len(primes))], primes)
    done, s = [], 0
    for j, piv, free in zip(blocks, pivot_lists, frees):
        k = len(piv)
        lifted, s = vals[s:s + k * len(free)], s + k * len(free)
        if None in lifted:
            continue
        lifted = np.array(lifted, dtype=object).reshape(k, len(free))
        ints, d = _integers(QQ, lifted)
        if (x[j][:, piv] @ ints == x[j][:, free] * d).all():
            e = ech[j]
            e[np.arange(k), piv] = 1
            e[:k, free] = lifted
            done.append(j)
    return done


def rank_of(rows, ncols: int, field: Field) -> int:
    return len(echelonize(rows, ncols, field)[1])


def kernel_basis(rows, ncols: int, field: Field):
    """Basis of the right kernel of the matrix given by ``rows``, as tuples
    of field scalars (the columns of ``_kernel``)."""
    return [tuple(v) for v in _scalar_rows(field, _kernel(field, rows, ncols).T)]


def solve_columns(a_rows, rhs_cols, ncols: int, field: Field):
    """Solve A x = b for each column b in ``rhs_cols``.

    Returns a list of solution vectors (free variables set to zero), read
    off the RREF of [A | b], or raises InconsistentSystem when some system
    is inconsistent, i.e. when that RREF has a pivot in a b column.  Over Q
    the RREF is certified (``echelonize``), so an unlucky prime cannot
    make a consistent system look inconsistent.
    """
    nrows, nrhs = len(a_rows), len(rhs_cols)
    a = _field_array(field, a_rows).reshape(nrows, ncols)
    rhs = _field_array(field, rhs_cols).reshape(nrhs, nrows).T
    ech, piv = echelonize(np.hstack([a, rhs]), ncols + nrhs, field)
    if any(c >= ncols for c in piv):
        raise InconsistentSystem("inconsistent linear system")
    x = np.zeros((ncols, nrhs), dtype=_dtype(field))
    if piv:
        x[piv, :] = _field_array(field, ech).reshape(len(piv), -1)[:, ncols:]
    return [tuple(v) for v in _scalar_rows(field, x.T)]


# ---------------------------------------------------------------------------
# MapMatrix
# ---------------------------------------------------------------------------

class MapMatrix:
    """A linear map between based spaces, stored densely (codomain × domain)
    as one read-only field array, ``array``.

    Immutable.  Composition requires the inner space labels to agree.
    ``rows`` is the same matrix as tuples of field scalars (Fractions over
    Q, ints in [0, p) over GF(p)), built on first use.
    """

    __slots__ = ("field", "domain", "codomain", "array", "_rows")

    def __init__(self, field: Field, domain: BasedSpace, codomain: BasedSpace, rows):
        """``rows`` is a field array, taken as is, or rows of field scalars."""
        if not (isinstance(rows, np.ndarray) and rows.dtype == _dtype(field)):
            rows = _field_array(field, rows)  # refuses the lists of ragged rows
            if rows.ndim == 1 and not rows.size:  # no rows at all
                rows = rows.reshape(0, domain.dim)
        if rows.shape != (codomain.dim, domain.dim):
            raise HopffactError("matrix shape does not match its spaces")
        rows.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "array", rows)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, *a):
        raise AttributeError("MapMatrix is immutable")

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            rows = tuple(map(tuple, _scalar_rows(self.field, self.array)))
            object.__setattr__(self, "_rows", rows)
        return self._rows

    # -- constructors ------------------------------------------------------
    @staticmethod
    def identity(field: Field, sp: BasedSpace) -> "MapMatrix":
        return MapMatrix(field, sp, sp, np.eye(sp.dim, dtype=_dtype(field)))

    @staticmethod
    def zero(field: Field, domain: BasedSpace, codomain: BasedSpace) -> "MapMatrix":
        return MapMatrix(field, domain, codomain,
                         np.zeros((codomain.dim, domain.dim), dtype=_dtype(field)))

    @staticmethod
    def from_columns(field, domain, codomain, cols) -> "MapMatrix":
        return MapMatrix(field, codomain, domain, cols).transpose()

    # -- algebra -----------------------------------------------------------
    def compose(self, other: "MapMatrix") -> "MapMatrix":
        """self ∘ other (apply ``other`` first)."""
        require_same_field(self.field, other.field)
        if other.codomain.labels != self.domain.labels:
            raise SpaceMismatch("composition: inner spaces differ")
        prod = _mod_matmul(self.field, self.array, other.array)
        return MapMatrix(self.field, other.domain, self.codomain, prod)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        self._require_same_shape(other)
        return MapMatrix(self.field, self.domain, self.codomain,
                         _reduce(self.field, self.array + other.array))

    def scale(self, scalar) -> "MapMatrix":
        return MapMatrix(self.field, self.domain, self.codomain,
                         _reduce(self.field, self.array * _field_array(self.field, [scalar])))

    def _require_same_shape(self, other):
        require_same_field(self.field, other.field)
        if (
            self.domain.labels != other.domain.labels
            or self.codomain.labels != other.codomain.labels
        ):
            raise SpaceMismatch("matrix shapes (spaces) differ")

    def transpose(self) -> "MapMatrix":
        return MapMatrix(self.field, self.codomain, self.domain, self.array.T)

    def apply(self, vec):
        if len(vec) != self.domain.dim:
            raise SpaceMismatch("vector length does not match domain")
        f = self.field
        col = _reduce(f, _field_array(f, vec)).reshape(-1, 1)
        return tuple(_scalar_rows(f, _mod_matmul(f, self.array, col).T)[0])

    # -- rank / kernel / solve ----------------------------------------------
    def rank(self) -> int:
        return rank_of(self.array, self.domain.dim, self.field)

    def kernel(self):
        """Basis of ker(self) as domain vectors."""
        return kernel_basis(self.array, self.domain.dim, self.field)

    def solve(self, target):
        """One preimage of ``target`` (a codomain vector)."""
        return solve_columns(self.array, [tuple(target)], self.domain.dim, self.field)[0]

    def inverse(self) -> "MapMatrix":
        if self.domain.dim != self.codomain.dim:
            raise NotInvertible("non-square matrix")
        f = self.field
        eye = np.eye(self.codomain.dim, dtype=_dtype(f))
        try:
            cols = solve_columns(self.array, eye, self.domain.dim, f)
        except InconsistentSystem as exc:
            raise NotInvertible(str(exc)) from exc
        # an inconsistent-free solve of a square system can still be singular
        inv = MapMatrix.from_columns(f, self.codomain, self.domain, cols)
        if (inv @ self) != MapMatrix.identity(f, self.domain):
            raise NotInvertible("matrix is singular")
        return inv

    def is_identity(self) -> bool:
        return self.domain.labels == self.codomain.labels and np.array_equal(
            self.array, np.eye(self.domain.dim, dtype=self.array.dtype))

    def __eq__(self, other):
        return (
            isinstance(other, MapMatrix)
            and self.field == other.field
            and self.domain.labels == other.domain.labels
            and self.codomain.labels == other.codomain.labels
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.field, self.domain.labels, self.codomain.labels, self.rows))

    def __repr__(self):
        return f"MapMatrix({self.codomain.dim}×{self.domain.dim} over {self.field})"


# ---------------------------------------------------------------------------
# Field arrays: float64 residues over GF(p), Python objects over Q
# ---------------------------------------------------------------------------

# x / d for an integer array x and an integer d, in the same format
_ratio = np.frompyfunc(lambda x, d: x // d if x % d == 0 else Fraction(x, d), 2, 1)


def _over(x: np.ndarray, d: int) -> np.ndarray:
    """The field values x / d of integer numerators x over one denominator
    d (``_integers``): x itself when d is 1, as it always is over GF(p)."""
    return x if d == 1 else _ratio(x, d)


def _dtype(f: Field):
    """Array dtype of field scalars: float64 over GF(p), objects over Q."""
    return np.float64 if isinstance(f, PrimeField) else object


def _field_array(f: Field, rows) -> np.ndarray:
    """``rows`` as a field array; a float64 array over GF(p) is taken as
    holding residues and is not copied.  An array of an integer dtype
    becomes Python ints over Q and is reduced into [0, p) over GF(p), in one
    step.  Anything else, an object array too, is read entry by entry
    (``_entry``), Python ints at once."""
    if isinstance(rows, np.ndarray):
        if isinstance(f, PrimeField) and rows.dtype == np.float64:
            return rows
        if rows.dtype.kind in "iu":
            return (rows % f.p if isinstance(f, PrimeField) else rows).astype(_dtype(f))
    rows = np.asarray(rows, dtype=object)
    if not set(map(type, rows.flat)) <= {int}:
        rows = _entries(f, rows)
    elif isinstance(f, PrimeField):
        rows = rows % f.p
    return rows.astype(_dtype(f))


def _entry(f: Field, x):
    """``x`` as a field scalar: an int, numpy integer or Fraction, reduced
    into [0, p) over GF(p), and over Q an int where integral (the same
    value, with far cheaper arithmetic).  Anything else, and a Fraction
    whose denominator p divides, is refused by name."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer, Fraction)):
        raise HopffactError(f"not a field scalar: {x!r}")
    if isinstance(f, PrimeField):
        if not x.denominator % f.p:
            raise HopffactError(f"{x} has no residue mod {f.p}")
        return f.scalar(x)
    return int(x) if x.denominator == 1 else x


_entries = np.frompyfunc(_entry, 2, 1)


def _reduce(f: Field, a: np.ndarray) -> np.ndarray:
    """An integer-valued array reduced into [0, p) over GF(p), as a new array
    (float64 within the bound of ``_mod_p``, or int64); as is over Q."""
    if not isinstance(f, PrimeField):
        return a
    if a.dtype != np.float64:
        return a % f.p
    return _mod_p(np.array(a, order="C"), f.p)


_MOD_CHUNK = 1 << 15  # cells per step of ``_mod_p``
_MOD_SMALL = 1 << 10  # up to this many cells ``_mod_p`` calls np.remainder


def _mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce the integers of a C-contiguous float64 array into [0, p) in
    place, and return it.

    Each x becomes r = x − p·⌊x·(1/p)⌋, plus or minus p once.  This is exact
    for |x| ≤ 2**53 − p, the contract every caller keeps: the computed
    quotient is then within one of ⌊x/p⌋, so p times it is an integer of
    absolute value at most 2**53, held exactly, and r lies in [−p, 2p).
    Just above the bound the product p·⌊x·(1/p)⌋ can round, and r is wrong.
    On large arrays this is several times faster than ``np.remainder``
    (exact on every float integer), which costs less on small ones because
    it is one pass instead of six.  The work goes in chunks of
    ``_MOD_CHUNK`` cells, so no temporary is larger.
    """
    if not a.flags.c_contiguous:  # reshape would copy, and reduce the copy
        raise ValueError("_mod_p needs a C-contiguous array")
    if a.size <= _MOD_SMALL:
        return np.remainder(a, p, out=a)
    flat = a.reshape(-1)
    inv = 1.0 / p
    q = np.empty(min(flat.size, _MOD_CHUNK))
    for s in range(0, flat.size, _MOD_CHUNK):
        x = flat[s:s + _MOD_CHUNK]
        t = q[:x.size]
        np.multiply(x, inv, out=t)
        np.floor(t, out=t)
        t *= p
        x -= t
        np.add(x, p, out=x, where=x < 0)
        np.subtract(x, p, out=x, where=x >= p)
    return a


def _integers(f: Field, val: np.ndarray):
    """Over Q, an integer array x and a denominator d with val = x / d, so
    that products are formed in integer arithmetic; over GF(p), (val, 1)."""
    if isinstance(f, PrimeField) or set(map(type, val.flat)) <= {int}:
        return val, 1
    d = lcm(*(x.denominator for x in val.flat))
    ints = [x.numerator * (d // x.denominator) for x in val.flat]
    return np.array(ints, dtype=object).reshape(val.shape), d


def _scalar_rows(f: Field, arr: np.ndarray) -> list:
    """The rows of a 2-D array as lists of field scalars."""
    if isinstance(f, PrimeField):
        return arr.astype(np.int64).tolist()
    return [[f.scalar(x) for x in row] for row in arr]


def _mod_matmul(f: Field, a: np.ndarray, b: np.ndarray, c=None) -> np.ndarray:
    """Exact c + a @ b over f (c = 0 when omitted); stacked operands
    broadcast as in numpy.

    Over GF(p) every operand holds ints of absolute value below p as
    float64.  The inner dimension is cut into blocks of
    ⌊(2**53 − 2p)/(p − 1)²⌋ products (at least one for a supported prime),
    so a partial sum plus c or the reduced accumulator stays within the
    bound 2**53 − p of ``_mod_p``, which reduces the result into [0, p) in
    place after each block; every intermediate is an exact integer.  Passing c
    saves a reduction: (c - a @ b) is one pass as ``_mod_matmul(f, -a, b, c)``.
    Over Q the product is numpy's object product of the operands' integer
    numerators over their common denominators, divided once at the end.
    """
    if not isinstance(f, PrimeField):
        (ia, da), (ib, db) = _integers(f, a), _integers(f, b)
        out = _over(ia @ ib, da * db)
        return out if c is None else c + out
    p = f.p
    block = (_FLOAT_EXACT_LIMIT - 2 * p) // (p - 1) ** 2
    out = a[..., :block] @ b[..., :block, :]
    if c is not None:
        out += c
    _mod_p(out, p)
    for s in range(block, a.shape[-1], block):
        out += a[..., s:s + block] @ b[..., s:s + block, :]
        _mod_p(out, p)
    return out


def _apply(f: Field, op, n: int):
    """The map mat ↦ op @ mat for a COO operator (rows, cols, vals) with n
    rows, as a function of mat (a step of ``_krylov``).

    The entries are sorted by row once, and each nonzero operator row is
    padded to the widest row's entry count, so a run of rows is one stacked
    product of their values against the gathered rows of mat
    (``_batches``).
    """
    order = np.argsort(op[0], kind="stable")
    rows, cols, vals = (a[order] for a in op)
    ids, starts, counts = np.unique(rows, return_index=True, return_counts=True)
    width = int(counts.max(initial=0))
    line = np.repeat(np.arange(ids.size), counts)
    slot = np.arange(rows.size) - np.repeat(starts, counts)
    pad_cols = np.zeros((ids.size, width), dtype=np.int64)
    pad_vals = np.zeros((ids.size, 1, width), dtype=_dtype(f))
    pad_cols[line, slot] = cols
    pad_vals[line, 0, slot] = vals

    def apply(mat):
        k = mat.shape[1]

        def run(lo, hi, limit):
            if limit is not None and (hi - lo) * width * k > limit:
                raise _OverBudget
            return _mod_matmul(f, pad_vals[lo:hi], mat[pad_cols[lo:hi]])[:, 0, :]

        out = np.zeros((n, k), dtype=_dtype(f))
        out[ids] = np.concatenate([out[:0], *_batches(run, ids.size)])
        return out

    return apply


# ---------------------------------------------------------------------------
# Sparse operators
#
# A sparse operator is a tuple (counts, offsets, out, val): the entries
# (out, val) sorted by input and, within an input, by out, with counts[i] of
# them for input i starting at offsets[i].  Values are int64 residues over
# GF(p), reduced after every product (each product of two residues is below
# 2**63), and objects over Q.  Where a caller only reads the entries, they
# stay COO (inputs, outputs, values), and no per-input index is built.
# ---------------------------------------------------------------------------

class _OverBudget(Exception):
    """An expansion would exceed the cell budget of one batch."""


_SLICE_CELLS = 1 << 20  # array cells per expansion of one batch


def _batches(run, count: int):
    """Yield run(lo, hi, limit) for consecutive runs [lo, hi) that cover
    range(count), in order.

    The first run is the whole range.  A run raises _OverBudget when one of
    its expansions would exceed ``limit`` cells (``_gather``), or, where its
    cost is known, before doing any work; it is then halved, and every
    later run keeps the smaller size.  A run of one gets limit None, so
    every run ends.  This is the one reader of ``_SLICE_CELLS`` and the one
    place a run is retried.
    """
    lo, size = 0, count
    while lo < count:
        hi = min(count, lo + size)
        try:
            result = run(lo, hi, _SLICE_CELLS if hi - lo > 1 else None)
        except _OverBudget:
            size = (hi - lo + 1) // 2
            continue
        yield result
        lo = hi


def _sparse_values(f: Field, scalars) -> np.ndarray:
    arr = _field_array(f, scalars)
    return arr.astype(np.int64) if isinstance(f, PrimeField) else arr


def _mul(f: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _reduce(f, a * b)


def _neg(f: Field, a: np.ndarray) -> np.ndarray:
    return _reduce(f, -a)


def _combine(f: Field, key: np.ndarray, val: np.ndarray):
    """Sum the values of equal keys in the field and drop the zeros; the
    keys come back sorted and distinct."""
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    if key.size:
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        key, val = key[first], _reduce(f, np.add.reduceat(val, first))
    keep = val != 0
    return key[keep], val[keep]


def _sparse_op(f: Field, inp, out, val, n_in: int, n_out: int):
    """The sparse operator with entries (inp, out, val), duplicates summed."""
    key, val = _combine(f, inp * n_out + out, val)
    return _operator(key // n_out, key % n_out, val, n_in)


def _operator(inp, out, val, n_in: int):
    """The sparse operator with ``n_in`` inputs of entries already sorted
    by (input, output) and summed, as ``_combine`` leaves them."""
    counts = np.bincount(inp, minlength=n_in)
    return counts, np.cumsum(counts) - counts, out, val


def _gather(op, inp: np.ndarray, limit=None):
    """Every entry of ``op`` in the inputs ``inp``: (which input, out, val).

    Raises _OverBudget when there would be more than ``limit`` of them.
    """
    counts, offsets, out, val = op
    # np.add.reduce and array methods: numpy's function wrappers cost more
    # than the work on small inputs
    cnt = counts[inp]
    total = int(np.add.reduce(cnt))
    if limit is not None and total > limit:
        raise _OverBudget
    rep = np.arange(inp.size).repeat(cnt)
    pos = np.arange(total) + (offsets[inp] + cnt - cnt.cumsum()).repeat(cnt)
    return rep, out[pos], val[pos]


def _kernel(f: Field, rows, ncols: int) -> np.ndarray:
    """Right kernel as an (ncols × nullity) field array: the kernel
    vectors of ``_kernels`` on a stack of one, in the order of their free
    columns."""
    a = _field_array(f, rows)
    return _kernels(f, a.reshape(1, a.shape[0] if a.ndim == 2 else 0, ncols))[2].T


def _kernels(f: Field, stack: np.ndarray):
    """Right kernels of every matrix of a (B, r, w) stack, read off their
    RREFs (one stacked ``echelonize``): (b, j, vecs), one kernel vector
    vecs[k] for each free column j[k] of each block b[k], ordered by block,
    then column.  The vector of a free column is 1 there, 0 on the other
    free columns, and minus that column of the RREF on the pivots.

    Asserts rank + nullity = w for every block before returning.
    """
    nb, _, w = stack.shape
    ech, pivots = echelonize(stack, w, f)
    top = max(map(len, pivots), default=0)
    # each RREF row's pivot coordinate, and w, a column dropped below, past the rank
    coord = np.array([piv + [w] * (top - len(piv)) for piv in pivots],
                     dtype=np.int64).reshape(nb, top)
    free = np.ones((nb, w + 1), dtype=bool)
    free[np.arange(nb)[:, None], coord] = False
    b, j = np.nonzero(free[:, :w])
    k = np.arange(b.size)
    vecs = np.zeros((b.size, w + 1), dtype=_dtype(f))
    vecs[k, j] = 1
    vecs[k[:, None], coord[b]] = _reduce(f, -ech[b, :top, j])
    LINALG_STATS["rank_nullity_checks"] += 1
    assert b.size + sum(map(len, pivots)) == nb * w, "rank-nullity violated"
    return b, j, vecs[:, :w]


def _components(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """The connected components of the columns of a COO matrix whose
    entries are sorted by row, two columns joined when they share a row:
    each column's label is the smallest column of its component.

    Label propagation with pointer jumping: every row takes the smallest
    label of its columns, every column the smallest label of its rows, then
    each label is replaced by its own label, until nothing changes.  At
    that point the columns of a row share one label, and it is the
    component's smallest column, whose label never moves.
    """
    label = np.arange(ncols)
    if not rows.size:
        return label
    row_start = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    row_len = np.diff(np.append(row_start, rows.size))
    by_col = np.argsort(cols, kind="stable")
    sorted_cols = cols[by_col]
    col_start = np.flatnonzero(np.concatenate(([True], sorted_cols[1:] != sorted_cols[:-1])))
    touched = sorted_cols[col_start]
    while True:
        row_min = np.repeat(np.minimum.reduceat(label[cols], row_start), row_len)
        new = label.copy()
        new[touched] = np.minimum.reduceat(row_min[by_col], col_start)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _sparse_kernel(f: Field, rows, cols, vals, ncols: int) -> np.ndarray:
    """``_kernel`` of the COO matrix (rows, cols, vals), sorted by row with
    at most one entry per position, computed on the connected components
    of its columns (``_components``).

    A column with no entry is a free unit vector, a component of one column
    is forced to 0, and every other component is one small dense block.
    The blocks of one width are padded with zero rows to the tallest and
    eliminated as one stack (``_kernels``), so the elimination costs one
    call per width, not per component.  The kernel columns are ordered by
    free coordinate, and the result is the one ``_kernel`` gives on the
    whole matrix: the system is block diagonal, so a column depends on the
    earlier columns exactly when it depends on the earlier columns of its
    own block, and the pivots, the free columns and the reduced kernel
    vectors are those of one elimination of everything.
    """
    keep = vals != 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    label = _components(rows, cols, ncols)
    used = np.zeros(ncols, dtype=bool)
    used[cols] = True
    width = np.bincount(label[used], minlength=ncols)[label[cols]]  # of each entry's component
    multi = width > 1
    rows, cols, vals, width = rows[multi], cols[multi], vals[multi], width[multi]
    height = int(rows.max(initial=0)) + 1
    unit = np.flatnonzero(~used)
    coords, parts = [unit], []  # free coordinates; (support, values) of each width's vectors
    for w in np.unique(width).tolist():
        at = width == w
        r, c = rows[at], cols[at]
        _, blk = np.unique(label[c], return_inverse=True)
        # a block's columns and rows in order: ranks among its distinct keys
        col_keys, lcol = np.unique(blk * ncols + c, return_inverse=True)
        row_keys, lrow = np.unique(blk * height + r, return_inverse=True)
        per_block = np.bincount(row_keys // height)
        lrow -= (np.cumsum(per_block) - per_block)[blk]
        stack = np.zeros((per_block.size, int(per_block.max()), w), dtype=_dtype(f))
        stack[blk, lrow, lcol - blk * w] = vals[at]
        b, j, vecs = _kernels(f, stack)
        support = (col_keys % ncols).reshape(-1, w)
        coords.append(support[b, j])  # a vector's free coordinate is its last nonzero
        parts.append((support[b], vecs))
    coords = np.concatenate(coords)
    at = np.empty(coords.size, dtype=np.int64)
    at[np.argsort(coords)] = np.arange(coords.size)  # each vector's place in the result
    out = np.zeros((ncols, coords.size), dtype=_dtype(f))
    out[unit, at[:unit.size]] = 1
    s = unit.size
    for support, v in parts:
        out[support, at[s:s + len(v), None]] = v
        s += len(v)
    return out


def _krylov(f: Field, step, v: np.ndarray, cap: int):
    """The Krylov vectors v, Av, A²v, … of a column v, stacked until they
    become dependent; returns (powers, ann).

    ``step`` maps a column to A times it.  After m = 2, 4, 8, … vectors (at
    most ``cap``), the kernel of the stacked vectors is taken: the
    polynomials c of degree < m with c(A)v = 0, i.e. the multiples of the
    minimal polynomial μ of A on v.  Doubling m keeps all the eliminations
    together at about twice the last one.  The vectors below deg μ are
    independent and every later one depends on them, so the first column
    of ``ann`` is μ itself: monic, coefficients lowest degree first, zero
    above deg μ.
    """
    powers = v.reshape(-1, 1)
    m = 2
    while True:
        while powers.shape[1] < m:
            powers = np.hstack([powers, step(powers[:, -1:])])
        ann = _kernel(f, powers, m)
        if ann.shape[1]:
            return powers, ann
        if m == cap:
            raise HopffactError("no annihilating polynomial of degree below the cap (bug)")
        m = min(2 * m, cap)


# ---------------------------------------------------------------------------
# Spans (closures, spins and weak factorizability)
# ---------------------------------------------------------------------------

class Span:
    """Grow-only subspace of fieldⁿ, kept as the rows of its RREF in a field
    array: every pivot column is a unit column, and the rows stay in the
    order they were found.

    A batch is reduced against the rows in one ``_mod_matmul``; the rows
    left nonzero are eliminated with ``echelonize``, and their pivot columns
    are cleared from the old rows.
    """

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.rows = np.zeros((0, n), dtype=_dtype(field))
        self.piv = []

    @property
    def dim(self) -> int:
        return len(self.piv)

    def _residue(self, batch) -> np.ndarray:
        """The rows of ``batch`` (or the one vector) minus their components
        along the span; a field array is taken as reduced already."""
        f = self.field
        b = _field_array(f, batch).reshape(-1, self.n)
        if self.piv:
            b = _mod_matmul(f, -b[:, self.piv], self.rows, b)
        return b

    def add_batch(self, batch) -> int:
        """Add the rows of ``batch``; returns the number of new pivots."""
        f = self.field
        b = self._residue(batch)
        b = b[(b != 0).any(axis=1)]
        if not b.shape[0]:
            return 0
        ech, piv = echelonize(b, self.n, f)
        ech = _field_array(f, ech).reshape(len(piv), self.n)
        if self.piv:
            # clear the new pivot columns from the old rows (keep the RREF)
            self.rows = _mod_matmul(f, -self.rows[:, piv], ech, self.rows)
        self.rows = np.vstack([self.rows, ech])
        self.piv.extend(piv)
        return len(piv)

    def add(self, vec) -> bool:
        """Add one vector; returns whether the span grew."""
        return self.add_batch(vec) > 0

    def contains(self, vecs) -> bool:
        """Whether the span holds every row of ``vecs`` (or the one vector)."""
        return not (self._residue(vecs) != 0).any()


def spin(f: Field, stack_t: np.ndarray, gens) -> Span:
    """The smallest subspace of fieldⁿ that contains the rows of ``gens``
    and is closed under v ↦ v @ stack_t[o] for every o.

    Each round applies every operator to the rows found in the last one.
    """
    n = stack_t.shape[-1]
    span = Span(f, n)
    span.add_batch(gens)
    start = 0
    while start < span.dim < n:
        frontier = span.rows[start:]
        start = span.dim
        span.add_batch(_mod_matmul(f, frontier, stack_t).reshape(-1, n))
    return span
