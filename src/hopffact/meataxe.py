"""Norton's irreducibility test (the MeatAxe of Parker and of Holt & Rees)
for a module GF(p)ⁿ given by a stack of operator matrices, with the GF(p)
polynomial arithmetic it needs; the spin (smallest invariant subspace) is
``linalg.spin``.
"""

from __future__ import annotations

import random

import numpy as np

from .fields import PrimeField
from .linalg import _kernel, _krylov, _mod_matmul, spin

CAP = 64   # random elements of the operator algebra tried
SEED = 0   # fixed, so verdicts and witnesses are reproducible


def norton(f: PrimeField, ops: np.ndarray):
    """Norton's irreducibility test (Holt & Rees 1994) for the module
    GF(p)ⁿ of the stacked operators ``ops``.

    Each try takes a random element a of the operator algebra (built from
    short words in the generators), the minimal polynomial μ of a on a
    random vector, and an irreducible factor g of μ of least degree, and
    computes N = ker g(a).  If dim N = deg g, N is a simple module for a,
    so a vector of N lies in every invariant subspace that meets N: if it
    spins to everything, and a vector of ker g(a)ᵀ spins to everything
    under the transposed operators, the module is irreducible; otherwise
    the proper spin (or the annihilator of the proper dual spin) is an
    invariant subspace.  With deg g = 1 the commuting division algebra
    acts on the one-dimensional N, so it is the base field and
    irreducibility is absolute; once irreducibility is proved with
    deg g > 1, the remaining tries look only for such a linear g with
    dim N = 1.  If dim N > deg g, one vector of N is spun and only a
    proper spin decides.

    Returns ("simple", certificate, None), ("not-simple", certificate,
    rows spanning an invariant subspace), or None after ``CAP``
    tries.
    """
    p = f.p
    k, n, _ = ops.shape
    ops_t = np.ascontiguousarray(ops.transpose(0, 2, 1))
    rng = random.Random(SEED)
    # words in two random combinations of the operators; as in Holt & Rees,
    # the product of two earlier words becomes a new word, and a is a
    # running random combination of the new words.  Any element of the
    # operator algebra serves the test; these are generic in practice
    words = [
        _mod_matmul(f, np.array([[rng.randrange(p) for _ in range(k)]], dtype=np.float64),
                    ops.reshape(k, -1))
        .reshape(n, n) for _ in range(2)
    ]
    a = np.zeros((n, n))
    proof = None  # the certificate once irreducibility, not absoluteness, is proved
    for _ in range(CAP):
        words.append(_mod_matmul(f, words[rng.randrange(len(words))],
                                 words[rng.randrange(len(words))]))
        a = (a + words[-1] * rng.randrange(1, p) % p) % p
        v = np.array([rng.randrange(p) for _ in range(n)], dtype=np.float64)
        if not v.any():
            continue
        _, ann = _krylov(f, lambda col: _mod_matmul(f, a, col), v, n + 1)
        mu = [int(x) for x in ann[:, 0]]
        g = _lowest_factor(mu[:_degree(mu) + 1], p, 1 if proof else n, rng)
        if g is None:
            continue
        ga = _poly_at(f, g, a)
        null = _kernel(f, ga, n)
        d = len(g) - 1
        if proof:
            # irreducible already: a one-dimensional ker(a − λ) shows that
            # the commuting division algebra is the base field
            if null.shape[1] == 1:
                return "simple", "norton", None
            continue
        span = spin(f, ops_t, null[:, :1].T)
        if span.dim < n:
            return "not-simple", "spin", span.rows
        if null.shape[1] > d:
            continue
        dual = spin(f, ops, _kernel(f, np.ascontiguousarray(ga.T), n)[:, :1].T)
        if dual.dim < n:
            return "not-simple", "dual-spin", _kernel(f, dual.rows, n).T
        if d == 1:
            return "simple", "norton", None
        proof = f"norton:deg{d}"
    return ("simple", proof, None) if proof else None


# Polynomials over GF(p) are lists of ints, lowest degree first.

def _degree(a) -> int:
    return max((i for i, x in enumerate(a) if x), default=-1)


def _poly_divmod(a, b, p: int):
    """Quotient and remainder of a by b (b with a nonzero leading
    coefficient), both trimmed."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        coef = r[i + db] * inv % p
        q[i] = coef
        if coef:
            for j, bj in enumerate(b):
                r[i + j] = (r[i + j] - coef * bj) % p
    return q[:_degree(q) + 1], r[:_degree(r[:db]) + 1]


def _poly_mulmod(a, b, m, p: int):
    prod = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_divmod([x % p for x in prod], m, p)[1]


def _poly_gcd(a, b, p: int):
    """Monic gcd of a and b (a nonzero)."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _poly_powmod(a, e: int, m, p: int):
    out = [1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, m, p)
        a = _poly_mulmod(a, a, m, p)
        e >>= 1
    return out


def _poly_sub(a, b, p: int):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return out[:_degree(out) + 1]


def _lowest_factor(mu, p: int, max_deg: int, rng):
    """An irreducible factor of least degree d of the monic ``mu``, or None
    when d > ``max_deg``.

    Distinct-degree factorization finds d as the least degree whose part
    gcd(x^(p^d) − x, μ), the product of the distinct irreducible factors of
    degree d, is nontrivial; once 2d exceeds deg μ with no factor found, μ
    itself is irreducible.  Cantor–Zassenhaus splitting then cuts the part
    down to one factor: for a random r, gcd(r^((p^d − 1)/2) − 1, part)
    (for p = 2, gcd(Σ_{i<d} r^(2^i), part)) is a proper factor about half
    the time.
    """
    deg = len(mu) - 1
    h = [0, 1]  # x^(p^d) mod μ
    for d in range(1, max_deg + 1):
        if 2 * d > deg:
            return mu if deg <= max_deg else None
        h = _poly_powmod(h, p, mu, p)
        part = _poly_gcd(mu, _poly_sub(h, [0, 1], p), p)
        if len(part) > 1:
            break
    else:
        return None
    while len(part) - 1 > d:
        r = [rng.randrange(p) for _ in range(len(part) - 1)]
        r = r[:_degree(r) + 1]
        if p == 2:
            t = s = r
            for _ in range(d - 1):
                s = _poly_mulmod(s, s, part, p)
                t = _poly_sub(t, s, p)  # minus is plus mod 2
        else:
            t = _poly_sub(_poly_powmod(r, (p ** d - 1) // 2, part, p), [1], p)
        g = _poly_gcd(part, t, p)
        if 1 < len(g) < len(part):
            part = min(g, _poly_divmod(part, g, p)[0], key=len)
    return part


def _poly_at(f: PrimeField, g, a: np.ndarray) -> np.ndarray:
    """g(a) for a square matrix a, by Horner's rule."""
    eye = np.eye(a.shape[0])
    out = eye * g[-1]
    for coef in reversed(g[:-1]):
        out = _mod_matmul(f, out, a, eye * coef)
    return out
