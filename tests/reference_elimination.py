"""Per-matrix eliminations, the tests' reference for the stacked ones.

``gf_echelon`` is the mod-p elimination of one matrix that the library ran
before it eliminated stacks: first nonzero row at or below the pivot row,
swap, scale, clear every other row, with the same lazy reduction.
``sparse_kernel_by_component`` eliminates each connected component of a
sparse system on its own with these, not with the library's eliminator.
``greedy_generators`` is the selection rule that reading membership off
the span's RREF replaced: it tests every basis element against the span
with a product (``Span.contains``).
"""

from fractions import Fraction

import numpy as np

from hopffact.fields import _FLOAT_EXACT_LIMIT, PrimeField
from hopffact.linalg import Span, _components, _mod_matmul, _mod_p


def gf_echelon(a: np.ndarray, p: int):
    """In-place mod-p elimination of one C-contiguous float64 matrix of
    residues to RREF; returns (RREF rows, pivot columns)."""
    nrows, ncols = a.shape
    growth = (p - 1) ** 2
    bound = p - 1  # no entry exceeds this in absolute value
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        a[r:, c] %= p
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] %= p
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        if bound + growth > _FLOAT_EXACT_LIMIT - 2 * p:
            _mod_p(a, p)
            bound = p - 1
        bound += growth
        factors = a[:, c] % p
        factors[r] = 0
        nzf = np.nonzero(factors)[0]
        if nzf.size:
            a[nzf] -= np.outer(factors[nzf], a[r])
            a[nzf, c] = 0
        piv_cols.append(c)
        r += 1
    _mod_p(a, p)
    return a[:r], piv_cols


def fraction_echelon(rows, ncols: int):
    """RREF rows (lists of Fractions) and pivot columns by Gauss–Jordan
    elimination over Q."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ech, piv = [], []
    for c in range(ncols):
        pick = next((r for r in rows if r[c] != 0), None)
        if pick is None:
            continue
        rows.remove(pick)
        lead = [x / pick[c] for x in pick]
        ech = [[x - r[c] * y for x, y in zip(r, lead)] for r in ech] + [lead]
        rows = [[x - r[c] * y for x, y in zip(r, lead)] for r in rows]
        piv.append(c)
    return ech, piv


def kernel(f, block: np.ndarray) -> np.ndarray:
    """(ncols × nullity) right kernel of one dense field array, from its
    RREF (``gf_echelon`` or ``fraction_echelon``): the vector of a free
    column is 1 there, 0 on the other free columns and minus that column
    of the RREF on the pivots."""
    ncols = block.shape[1]
    if isinstance(f, PrimeField):
        ech, piv = gf_echelon(np.array(block, dtype=np.float64, order="C"), f.p)
        ech = [[(-int(x)) % f.p for x in row] for row in ech]
    else:
        ech, piv = fraction_echelon(block.tolist(), ncols)
        ech = [[-x for x in row] for row in ech]
    free = [c for c in range(ncols) if c not in piv]
    out = np.zeros((ncols, len(free)), dtype=block.dtype)
    for j, c in enumerate(free):
        out[c, j] = 1
        for k, pc in enumerate(piv):
            out[pc, j] = ech[k][c]
    return out


def sparse_kernel_by_component(f, rows, cols, vals, ncols: int) -> np.ndarray:
    """The kernel of a COO system sorted by row, one connected component of
    its columns at a time (``kernel`` on each), columns ordered by free
    coordinate."""
    keep = vals != 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    label = _components(rows, cols, ncols)
    used = np.zeros(ncols, dtype=bool)
    used[cols] = True
    vectors = [(c, {c: 1}) for c in np.flatnonzero(~used).tolist()]
    for comp in np.unique(label[cols]).tolist():
        at = label[cols] == comp
        block_rows, r = np.unique(rows[at], return_inverse=True)
        block_cols, c = np.unique(cols[at], return_inverse=True)
        if block_cols.size == 1:
            continue
        block = np.zeros((block_rows.size, block_cols.size),
                         dtype=np.float64 if isinstance(f, PrimeField) else object)
        block[r, c] = vals[at]
        ker = kernel(f, block)
        for j in range(ker.shape[1]):
            nz = np.flatnonzero(ker[:, j])
            vectors.append((int(block_cols[nz[-1]]),
                            {int(block_cols[i]): ker[i, j] for i in nz}))
    vectors.sort(key=lambda v: v[0])
    out = np.zeros((ncols, len(vectors)),
                   dtype=np.float64 if isinstance(f, PrimeField) else object)
    for j, (_, vec) in enumerate(vectors):
        for i, x in vec.items():
            out[i, j] = x
    return out


def greedy_generators(a) -> list:
    """Basis indices generating ``a``, chosen in basis order: e_i is taken
    when ``Span.contains`` says it lies outside the subalgebra spun so far
    from the chosen ones."""
    f, n = a.field, a.dim
    by = a.mult_stack()[n:].transpose(0, 2, 1)
    eye = np.eye(n, dtype=by.dtype)
    span = Span(f, n)
    span.add(a.unit)
    gens = []
    for i in range(n):
        if span.contains(eye[i]):
            continue
        gens.append(i)
        start = span.dim
        span.add_batch(_mod_matmul(f, span.rows, by[i]))
        while start < span.dim < n:
            frontier = span.rows[start:]
            start = span.dim
            span.add_batch(_mod_matmul(f, frontier, by[gens]).reshape(-1, n))
    return gens
