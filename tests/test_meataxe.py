"""The GF(p) polynomial arithmetic of the MeatAxe (``meataxe._lowest_factor``
on residue arrays) against a reference on Python lists."""

import itertools
import random

import numpy as np
import pytest

from hopffact import meataxe

P_TOP = 94906249  # the largest prime GF accepts


# The reference: the same algorithm with polynomials as lists of ints,
# lowest degree first, and the same random draws.

def _degree(a) -> int:
    return max((i for i, x in enumerate(a) if x), default=-1)


def _poly_divmod(a, b, p):
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


def _poly_mulmod(a, b, m, p):
    prod = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_divmod([x % p for x in prod], m, p)[1]


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _poly_powmod(a, e, m, p):
    out = [1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, m, p)
        a = _poly_mulmod(a, a, m, p)
        e >>= 1
    return out


def _poly_sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return out[:_degree(out) + 1]


def _reference_factor(mu, p, max_deg, rng):
    deg = len(mu) - 1
    h = [0, 1]
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
                t = _poly_sub(t, s, p)
        else:
            t = _poly_sub(_poly_powmod(r, (p ** d - 1) // 2, part, p), [1], p)
        g = _poly_gcd(part, t, p)
        if 1 < len(g) < len(part):
            part = min(g, _poly_divmod(part, g, p)[0], key=len)
    return part


def _product(p, *factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] = (prod[i + j] + x * y) % p
        out = prod
    return out


def _factor(mu, p, max_deg, seed):
    """The array factor as a list, and the state of its generator after."""
    rng = random.Random(seed)
    g = meataxe._lowest_factor(np.array(mu, dtype=np.int64), p, max_deg, rng)
    return (None if g is None else [int(x) for x in g]), rng.getstate()


def _reference(mu, p, max_deg, seed):
    rng = random.Random(seed)
    return _reference_factor(list(mu), p, max_deg, rng), rng.getstate()


def _monic(p, degree):
    return list(itertools.product(range(p), repeat=degree))


def _divides(g, mu, p):
    return not _poly_divmod(mu, g, p)[1]


def _assert_lowest_factor(g, mu, p):
    """g is monic, irreducible, divides mu, and no factor of lower degree
    does, all by trying every monic polynomial."""
    d = len(g) - 1
    assert g[-1] == 1 and _divides(g, mu, p)
    for k in range(1, d):
        for low in _monic(p, k):
            f = [*low, 1]
            assert not _divides(f, mu, p), (f, mu)
            if 2 * k <= d:
                assert not _divides(f, g, p), (f, g)


# (x²+x+1)(x³+x+1) and (x⁴+x+1)(x⁴+x³+1) over GF(2), x(x+1)(x²+x+1) with
# two linear factors; (x²+1)(x²+x+2) and x(x+1)(x+2)(x²+1) over GF(3)
SMALL = [
    (2, ([1, 1, 1], [1, 1, 0, 1])),
    (2, ([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])),
    (2, ([0, 1], [1, 1], [1, 1, 1])),
    (3, ([1, 0, 1], [2, 1, 1])),
    (3, ([0, 1], [1, 1], [2, 1], [1, 0, 1])),
]


@pytest.mark.parametrize("p, factors", SMALL, ids=[
    "gf2-deg2", "gf2-trace-split-deg4", "gf2-trace-split-deg1", "gf3-deg2", "gf3-deg1"])
@pytest.mark.parametrize("seed", range(6))
def test_lowest_factor_at_two_and_three(p, factors, seed):
    mu = _product(p, *factors)
    g, state = _factor(mu, p, len(mu) - 1, seed)
    _assert_lowest_factor(g, mu, p)
    assert (g, state) == _reference(mu, p, len(mu) - 1, seed)
    # too low a degree bound gives None, with the same draws
    if len(g) > 2:
        assert _factor(mu, p, len(g) - 2, seed) == (None, random.Random(seed).getstate())


def _random_monic(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [1]


@pytest.mark.parametrize("p", [2, 3, 101, 1048573, P_TOP])
def test_lowest_factor_matches_the_list_reference(p):
    # random moduli, and products of random moduli so that a degree often
    # holds several factors and Cantor–Zassenhaus runs
    rng = random.Random(p)
    for trial in range(40):
        k = rng.randint(1, 3)
        mu = _product(p, *(_random_monic(rng, p, rng.randint(1, 5)) for _ in range(k)))
        max_deg = rng.choice([1, 2, len(mu) - 1])
        want = _reference(mu, p, max_deg, trial)
        assert _factor(mu, p, max_deg, trial) == want, (mu, max_deg)
        if want[0] is not None and p < 5:
            _assert_lowest_factor(want[0], mu, p)


def _big_int(a, bits):
    return sum(int(x) << (bits * i) for i, x in enumerate(a))


def test_products_block_at_the_largest_prime():
    # at the largest prime a sum of 1,024 products of two residues is the
    # most that int64 holds, so a modulus of degree 1,100 is reduced and
    # multiplied in blocks; residues near p make the sums as large as they
    # get, and the exact values come from Python integers
    p = P_TOP
    assert meataxe._block(p) < 1100
    rng = random.Random(1)
    mu = _random_monic(rng, p, 1100)
    ring = meataxe._Quotient(np.array(mu, dtype=np.int64), p)
    a, b = (np.array([p - 1 - rng.randrange(1000) for _ in range(1100)], dtype=np.int64)
            for _ in "ab")
    bits = 128
    prod = _big_int(a, bits) * _big_int(b, bits)
    prod = [(prod >> (bits * i)) & ((1 << bits) - 1) for i in range(2199)]
    want = _poly_divmod([x % p for x in prod], mu, p)[1]
    assert ring.mul(a, b).tolist() == want + [0] * (1100 - len(want))
    top = np.full(1100, p - 1, dtype=np.int64)
    assert ring._dot(top, np.stack([top, top]).T).tolist() == [1100 * (p - 1) ** 2 % p] * 2


# A modulus of degree 1,100 at the largest prime with two linear factors:
# (x − 5)(x − 7)·q for q below.  The list reference takes several seconds
# on it, so its answer is pinned: the factor, and how many random
# coefficients Cantor–Zassenhaus drew.
BIG_FACTOR, BIG_DRAWS = [P_TOP - 5, 1], 6


def _big_modulus():
    p = P_TOP
    rng = random.Random(1100)
    return _product(p, [p - 5, 1], [p - 7, 1], _random_monic(rng, p, 1098))


def test_lowest_factor_of_a_large_modulus():
    p = P_TOP
    mu = _big_modulus()
    g, state = _factor(mu, p, 1, 3)
    rng = random.Random(3)
    for _ in range(BIG_DRAWS):
        rng.randrange(p)
    assert (g, state) == (BIG_FACTOR, rng.getstate())
