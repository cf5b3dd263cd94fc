"""Norton's irreducibility test (the MeatAxe of Parker and of Holt & Rees)
for a module GF(p)ⁿ given by a stack of operator matrices, with the GF(p)
polynomial arithmetic it needs; the spin (smallest invariant subspace) is
``linalg.spin``.

Polynomials are int64 arrays of residues.  A product is one ``np.convolve``
and its reduction modulo a monic μ one product with a table of x^(D+k) mod μ
built once per modulus (``_Quotient``); both cut their sums into blocks of
``_block(p)`` products of two residues, so every exact int64 partial sum
stays below 2⁶³.  Division and gcd go one row step per quotient coefficient.
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
        g = _lowest_factor(_trim(ann[:, 0].astype(np.int64)), p, 1 if proof else n, rng)
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


# Polynomials over GF(p) are int64 arrays of residues, lowest degree first.

def _block(p: int) -> int:
    """The most products of two residues whose sum, plus one residue, stays
    below 2**63 (1,024 at the largest supported prime): every sum of
    products below reduces mod p after at most that many."""
    return ((1 << 63) - p) // (p - 1) ** 2


def _trim(a: np.ndarray) -> np.ndarray:
    """a without its zero leading coefficients (the zero polynomial is empty)."""
    nz = np.flatnonzero(a)
    return a[:nz[-1] + 1] if nz.size else a[:0]


class _Quotient:
    """GF(p)[x]/(m) for a monic m of degree D ≥ 1: its elements are arrays
    of D residues.  A product of two has degree below 2D − 1, and is reduced
    by one precomputed table, the rows x^(D+k) mod m for k < D − 1, as one
    blocked product (``_dot``)."""

    def __init__(self, m: np.ndarray, p: int):
        d = m.size - 1
        self.d, self.p, self.block = d, p, _block(p)
        # x^(D+k) is x times x^(D+k−1), whose term at degree D is row 0 again
        table = np.zeros((max(d - 1, 0), d), dtype=np.int64)
        table[:1] = -m[:d] % p
        for k in range(1, d - 1):
            table[k, 1:] = table[k - 1, :-1]
            table[k] = (table[k] + table[k - 1, -1] * table[0]) % p
        self.table = table

    def _dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x @ y mod p, the inner dimension cut into blocks of ``_block(p)``."""
        p, k = self.p, self.block
        out = x[..., :k] @ y[:k] % p
        for s in range(k, x.shape[-1], k):
            out = (out + x[..., s:s + k] @ y[s:s + k]) % p
        return out

    def _convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product a·b mod p, b cut into blocks of ``_block(p)``
        coefficients."""
        p, k = self.p, self.block
        if b.size <= k:
            return np.convolve(a, b) % p
        out = np.zeros(a.size + b.size - 1, dtype=np.int64)
        for s in range(0, b.size, k):
            part = b[s:s + k]
            out[s:s + a.size + part.size - 1] += np.convolve(a, part) % p
        return out % p

    def element(self, a) -> np.ndarray:
        """A polynomial of degree below D as an element."""
        out = np.zeros(self.d, dtype=np.int64)
        out[:len(a)] = a
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c, d = self._convolve(a, b), self.d
        return (c[:d] + self._dot(c[d:], self.table)) % self.p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e for e ≥ 1, by squaring from the top bit of e down."""
        out = a
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out


def _divmod(a: np.ndarray, b: np.ndarray, p: int):
    """Quotient and remainder of a by b (b with a nonzero leading
    coefficient), both trimmed; each quotient coefficient is one row step."""
    db = b.size - 1
    r = a.copy()
    inv = pow(int(b[-1]), p - 2, p)
    q = np.zeros(max(0, a.size - db), dtype=np.int64)
    for i in range(a.size - 1 - db, -1, -1):
        c = int(r[i + db]) * inv % p
        if c:
            q[i] = c
            r[i:i + db + 1] = (r[i:i + db + 1] - c * b) % p
    return _trim(q), _trim(r[:db])


def _gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd of a and b (a nonzero)."""
    while b.size:
        a, b = b, _divmod(a, b, p)[1]
    return a * pow(int(a[-1]), p - 2, p) % p


def _lowest_factor(mu: np.ndarray, p: int, max_deg: int, rng):
    """An irreducible factor of least degree d of the monic ``mu``, or None
    when d > ``max_deg``.

    Distinct-degree factorization finds d as the least degree whose part
    gcd(x^(p^d) − x, μ), the product of the distinct irreducible factors of
    degree d, is nontrivial; once 2d exceeds deg μ with no factor found, μ
    itself is irreducible.  Cantor–Zassenhaus splitting then cuts the part
    down to one factor: for a random r, gcd(r^((p^d − 1)/2) − 1, part)
    (for p = 2, gcd(Σ_{i<d} r^(2^i), part)) is a proper factor about half
    the time (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).
    The powers are taken in GF(p)[x]/(μ), then in GF(p)[x]/(part)
    (``_Quotient``).
    """
    deg = mu.size - 1
    if deg < 2:
        return mu if deg <= max_deg else None
    ring = _Quotient(mu, p)
    x = ring.element([0, 1])
    h = x  # x^(p^d) mod μ
    for d in range(1, max_deg + 1):
        if 2 * d > deg:
            return mu if deg <= max_deg else None
        h = ring.pow(h, p)
        part = _gcd(mu, _trim((h - x) % p), p)
        if part.size > 1:
            break
    else:
        return None
    ring = _Quotient(part, p)
    while part.size - 1 > d:
        r = ring.element([rng.randrange(p) for _ in range(part.size - 1)])
        if p == 2:
            t = s = r
            for _ in range(d - 1):
                s = ring.mul(s, s)
                t = (t + s) % 2
        else:
            t = (ring.pow(r, (p ** d - 1) // 2) - ring.element([1])) % p
        g = _gcd(part, _trim(t), p)
        if 1 < g.size < part.size:
            part = min(g, _divmod(part, g, p)[0], key=len)
            ring = _Quotient(part, p)
    return part


def _poly_at(f: PrimeField, g, a: np.ndarray) -> np.ndarray:
    """g(a) for a square matrix a, by Horner's rule."""
    eye = np.eye(a.shape[0])
    out = eye * g[-1]
    for coef in reversed(g[:-1]):
        out = _mod_matmul(f, out, a, eye * coef)
    return out
