"""Exact linear algebra: eliminations, kernels, solves, spans."""

import random
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_elimination as reference
from hopffact import linalg
from hopffact.algebras import StructAlgebra
from hopffact.errors import HopffactError, NotInvertible, SpaceMismatch
from hopffact.fields import GF, QQ
from hopffact.linalg import (
    LINALG_STATS,
    BasedSpace,
    MapMatrix,
    Span,
    echelonize,
    kernel_basis,
    rank_of,
    rational_lift,
    solve_columns,
    space,
)
from hopffact.tensors import TensorElement


def mat(field, rows, dom=None, cod=None):
    rows = [tuple(field.parse(x) for x in r) for r in rows]
    m = len(rows[0]) if rows else 0
    dom = dom or space("d", m)
    cod = cod or space("c", len(rows))
    return MapMatrix(field, dom, cod, rows)


def test_kernel_identity_is_empty():
    assert mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel() == []


def test_kernel_zero_map_is_standard_basis():
    ker = mat(QQ, [[0, 0, 0], [0, 0, 0]]).kernel()
    assert ker == [
        (Fr(1), Fr(0), Fr(0)),
        (Fr(0), Fr(1), Fr(0)),
        (Fr(0), Fr(0), Fr(1)),
    ]


def test_kernel_rank_one_matrix():
    # hand Gaussian elimination: [[1,1],[1,1]] -> row echelon [[1,1]],
    # free column 1, kernel spanned by (-1, 1) ∝ (1, -1)
    ker = mat(QQ, [[1, 1], [1, 1]]).kernel()
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == -v[1] and v[1] != 0


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for field in (QQ, GF(101)):
        for _ in range(12):
            rows = [
                [field.parse(rng.randint(-4, 4)) for _ in range(5)]
                for _ in range(3)
            ]
            m = mat(field, rows)
            assert m.rank() == m.transpose().rank()


def test_qq_and_gf_ranks_agree_on_small_integer_matrices():
    # random integer matrices with entries in [-3, 3]: over GF(101) there is
    # no accidental rank drop for determinants this small
    rng = random.Random(123)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        mq = mat(QQ, rows)
        mp = mat(GF(101), rows)
        assert mq.rank() == mp.rank()
        assert len(mq.kernel()) == len(mp.kernel())


def test_kernel_vectors_are_in_kernel():
    rng = random.Random(99)
    for field in (QQ, GF(101)):
        for _ in range(10):
            rows = [
                [field.parse(rng.randint(-5, 5)) for _ in range(6)]
                for _ in range(4)
            ]
            m = mat(field, rows)
            for v in m.kernel():
                assert all(field.is_zero(x) for x in m.apply(v))


def test_q_echelon_is_reduced_and_matches_gf():
    # the Q echelon is the RREF: unit pivot columns, the same row space,
    # and (integral input, no pivot lost mod p) the lift of the GF(p) RREF
    rng = random.Random(17)
    p = 1048573
    for trial in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(ncols)]
                for _ in range(nrows)]
        ech, piv = echelonize([[Fr(x) for x in r] for r in rows], ncols, QQ)
        assert piv == sorted(piv)
        for i, c in enumerate(piv):
            assert [row[c] for row in ech] == [Fr(i == k) for k in range(len(piv))]
        assert rank_of(rows + [list(r) for r in ech], ncols, QQ) == len(piv)
        gf_ech, gf_piv = echelonize(rows, ncols, GF(p))
        assert gf_piv == piv
        assert [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in ech] \
            == gf_ech.astype(int).tolist()


def test_rational_lift():
    p, q = 1048573, 1048571

    def mod(rows, m):
        return np.array([[x.numerator * pow(x.denominator, -1, m) % m for x in r]
                         for r in rows], dtype=np.float64)

    small = [(Fr(0), Fr(-3, 7), Fr(700)), (Fr(1), Fr(-724), Fr(5, 723))]
    assert rational_lift([mod(small, p)], [p]) == small
    # 1000 > ⌊√(p/2)⌋ = 724: one prime is not enough, two are
    big = [(Fr(1000, 3), Fr(-17, 1001))]
    assert rational_lift([mod(big, p)], [p]) is None
    assert rational_lift([mod(big, p), mod(big, q)], [p, q]) == big
    # a square root of −1 mod p ≡ 1 mod 4 is no small rational
    i = next(pow(a, (p - 1) // 4, p) for a in range(2, 50) if pow(a, (p - 1) // 2, p) == p - 1)
    assert rational_lift([np.array([[1.0, float(i)]])], [p]) is None


def _fraction_rref(rows, ncols):
    """RREF and pivot columns by Gauss–Jordan elimination on Fractions,
    written here rather than taken from ``linalg``."""
    rows = [[Fr(x) for x in r] for r in rows]
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
    return [tuple(r) for r in ech], piv


P1 = linalg._lift_prime(0)

UNLUCKY = {
    # rank 2 over Q, rank 1 mod p₁
    "rank-drop": [[1, 1], [1, 1 + P1]],
    # nonzero, but 0 mod p₁
    "zero-mod-p": [[P1, 0], [0, P1]],
    # pivots (0, 1) over Q, (0, 2) mod p₁
    "pivot-shift": [[1, 2, 3], [2, 4 + P1, 5]],
    # entries 1001/1000 and 1003/1000 above ⌊√(p₁/2)⌋ = 724: two primes
    "two-primes": [[1000, 0, 1001], [0, 1000, 1003], [2000, 1000, 3005]],
    "two-primes-fractions": [[Fr(3, 1009), Fr(-2017, 5), 1], [7, Fr(1, 997), Fr(-13, 4)]],
}


@pytest.mark.parametrize("rows", UNLUCKY.values(), ids=UNLUCKY.keys())
def test_q_echelon_survives_unlucky_primes(rows):
    ncols = len(rows[0])
    assert echelonize(rows, ncols, QQ) == _fraction_rref(rows, ncols)


def test_q_echelon_matches_fraction_reference_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        basis = [[Fr(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(ncols)]
                 for _ in range(rng.randint(1, 4))]
        rows = [[sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(ncols)]
                for _ in range(nrows)]
        assert echelonize(rows, ncols, QQ) == _fraction_rref(rows, ncols)


def test_q_solve_and_inverse_with_a_pivot_divisible_by_the_first_prime():
    # mod p₁ the system p₁·x = 1 reads 0 = 1; over Q it is consistent
    assert solve_columns([[P1]], [[1]], 1, QQ) == [(Fr(1, P1),)]
    inv = mat(QQ, [[P1, 0], [0, 1]]).inverse()
    assert inv.rows == ((Fr(1, P1), 0), (0, 1))


def test_solve_exact():
    m = mat(QQ, [[2, 1, 0], [0, 1, 4], [1, 0, 1]])
    sol = m.solve((QQ.parse(1), QQ.parse(2), QQ.parse(3)))
    assert sol == (Fr(11, 6), Fr(-8, 3), Fr(7, 6))
    with pytest.raises(HopffactError):
        mat(QQ, [[1, 1], [1, 1]]).solve((QQ.parse(0), QQ.parse(1)))


def test_solve_gf_matches_q():
    rng = random.Random(5)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        mq = mat(QQ, rows)
        try:
            inv = mq.inverse()
        except NotInvertible:
            continue
        rhs = tuple(QQ.parse(rng.randint(-3, 3)) for _ in range(3))
        solq = mq.solve(rhs)
        mp = mat(GF(101), rows)
        solp = mp.solve(tuple(GF(101).parse(int(x * 1)) for x in rhs) if all(
            Fr(x).denominator == 1 for x in rhs) else rhs)
        for a, b in zip(solq, solp):
            assert GF(101).scalar(a) == b
        del inv


def test_inverse_round_trip_and_singular():
    m = mat(QQ, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert (inv @ m).is_identity()
    assert (m @ inv).is_identity()
    with pytest.raises(NotInvertible):
        mat(QQ, [[1, 1], [1, 1]]).inverse()
    with pytest.raises(NotInvertible):
        mat(GF(5), [[1, 1], [1, 1]]).inverse()


def test_composition_requires_matching_labels():
    a = mat(QQ, [[1, 0], [0, 1]])
    b = MapMatrix(QQ, space("x", 2), space("other", 2), a.rows)
    with pytest.raises(SpaceMismatch):
        a.compose(b)


def test_mixed_field_composition_rejected():
    from hopffact.errors import FieldMismatch

    dom = space("d", 2)
    a = MapMatrix(QQ, dom, dom, [(Fr(1), Fr(0)), (Fr(0), Fr(1))])
    b = MapMatrix(GF(5), dom, dom, [(1, 0), (0, 1)])
    with pytest.raises(FieldMismatch):
        a.compose(b)
    with pytest.raises(FieldMismatch):
        a + b


def test_rank_nullity_counter_increases():
    before = LINALG_STATS["rank_nullity_checks"]
    kernel_basis([(Fr(1), Fr(1))], 2, QQ)
    kernel_basis([(1, 1)], 2, GF(7))
    assert LINALG_STATS["rank_nullity_checks"] == before + 2


def test_based_space_label_identity():
    s1 = BasedSpace(("a", "b"))
    s2 = BasedSpace(("a", "b"))
    s3 = BasedSpace(("a", "c"))
    assert s1 == s2 and s1 != s3
    with pytest.raises(HopffactError):
        BasedSpace(("a", "a"))
    assert s1.tensor(s3).labels == ("a⊗a", "a⊗c", "b⊗a", "b⊗c")


def test_incremental_span_q_and_gf():
    for field in (QQ, GF(7)):
        sp = Span(field, 3)
        one = field.one
        zero = field.zero
        assert sp.add((one, zero, one))
        assert not sp.add((field.add(one, one), zero, field.add(one, one)))
        assert sp.add((zero, one, zero))
        assert sp.dim == 2
        assert sp.contains((one, one, one))
        assert not sp.contains((one, zero, zero))


def test_gf_batch_span():
    _check_add_batch(GF(101))


def test_span_add_batch_over_q():
    _check_add_batch(QQ)


def _check_add_batch(field):
    def arr(rows):
        return np.array(rows, dtype=linalg._dtype(field))

    span = Span(field, 4)
    batch = arr([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]])
    assert span.add_batch(batch) == 2
    assert span.dim == 2
    assert span.add_batch(arr([[1, 0, 0, 0]])) == 1
    assert span.add_batch(batch) == 0


P_TOP = 94906249  # the largest prime GF accepts


def test_gf_batch_span_exact_near_the_prime_limit():
    # the reduction against two stored rows used to sum two unreduced
    # products of residues, past 2**53, and grew the span in 16 of these 200 trials
    rng = random.Random(3)
    p = P_TOP
    for _ in range(200):
        span = Span(GF(p), 4)
        rows = [[rng.randrange(p) for _ in range(4)] for _ in range(2)]
        for row in rows:
            span.add_batch(np.array([row], dtype=np.float64))
        a, b = rng.randrange(p), rng.randrange(p)
        vec = [(a * x + b * y) % p for x, y in zip(*rows)]
        assert span.add_batch(np.array([vec], dtype=np.float64)) == 0
        assert span.dim == 2


def test_gf_batch_span_keeps_rref_near_the_prime_limit():
    # two new pivots cleared from a stored row: a sum of two products
    rng = random.Random(4)
    p = P_TOP
    for _ in range(50):
        span = Span(GF(p), 5)
        rows = [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
        span.add_batch(np.array(rows[:1], dtype=np.float64))
        assert span.add_batch(np.array(rows[1:], dtype=np.float64)) == 2
        coeffs = [rng.randrange(p) for _ in rows]
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(5)]
        assert span.add_batch(np.array([vec], dtype=np.float64)) == 0


def test_elimination_exact_at_the_largest_prime():
    f = GF(P_TOP)
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        a = [[rng.randrange(P_TOP) for _ in range(n)] for _ in range(n - 1)]
        a.append([sum(rng.randrange(3) * row[j] for row in a) % P_TOP for j in range(n)])
        m = mat(f, a)
        assert m.rank() == _span_rank(f, a)
        for v in m.kernel():
            assert all(x == 0 for x in m.apply(v))
        sq = mat(f, [r[:n - 1] for r in a[:n - 1]])
        if sq.rank() == n - 1:
            assert (sq.inverse() @ sq).is_identity()


def _span_rank(f, rows):
    """Rank by scalar Gaussian elimination mod p, independent of linalg."""
    p = f.p
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] * inv % p
            rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_inverse_renames_only_singular_systems(monkeypatch):
    # an error other than an inconsistent system is not a verdict on the map
    def fail(*args):
        raise HopffactError("eliminator failure")

    monkeypatch.setattr(linalg, "solve_columns", fail)
    with pytest.raises(HopffactError, match="eliminator failure") as info:
        mat(QQ, [[1, 0], [0, 1]]).inverse()
    assert not isinstance(info.value, NotInvertible)


def test_solve_columns_multiple_rhs():
    rows = [(Fr(1), Fr(2)), (Fr(3), Fr(5))]
    sols = solve_columns(rows, [(Fr(1), Fr(0)), (Fr(0), Fr(1))], 2, QQ)
    assert sols[0] == (Fr(-5), Fr(3))
    assert sols[1] == (Fr(2), Fr(-1))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_map_matrix_from_rows_equals_from_array(field):
    rows = [[field.parse(x) for x in r] for r in [[1, -2, 0], [3, 0, 5]]]
    a = mat(field, rows)
    b = MapMatrix(field, a.domain, a.codomain, linalg._field_array(field, rows))
    assert a == b and hash(a) == hash(b)
    assert a.array.dtype == linalg._dtype(field)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_map_matrix_array_is_read_only(field):
    m = mat(field, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 7
    with pytest.raises(AttributeError):
        m.array = m.array.copy()


def test_map_matrix_rows_hold_field_scalars():
    q = mat(QQ, [["1/2", 3], [0, -4]])
    assert all(type(x) is Fr for row in q.rows for x in row)
    assert q.rows == ((Fr(1, 2), Fr(3)), (Fr(0), Fr(-4)))
    g = mat(GF(7), [[3, -1], [0, 8]])
    assert all(type(x) is int and 0 <= x < 7 for row in g.rows for x in row)
    assert g.rows == ((3, 6), (0, 1))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_map_matrix_wrong_shape_raises(field):
    dom, cod = space("d", 3), space("c", 2)
    with pytest.raises(HopffactError):
        MapMatrix(field, dom, cod, np.zeros((3, 2), dtype=linalg._dtype(field)))
    with pytest.raises(HopffactError):
        MapMatrix(field, dom, cod, [[field.one] * 3, [field.one] * 2])
    with pytest.raises(HopffactError):
        MapMatrix(field, dom, cod, [])


def test_map_matrix_arithmetic_at_the_largest_prime():
    # every product of two residues is near 2**53 here; the scalar
    # reference works in Python ints
    from hopffact.hopf import kron_matrix

    f, p = GF(P_TOP), P_TOP
    rng = random.Random(12)

    def rand(nr, nc):
        return [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]

    def matmul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

    a, b, c = rand(3, 5), rand(5, 4), rand(3, 5)
    ma, mb, mc = mat(f, a), mat(f, b, cod=space("d", 5)), mat(f, c)
    s = rng.randrange(p)
    assert [list(r) for r in (ma @ mb).rows] == matmul(a, b)
    assert [list(r) for r in (ma + mc).rows] == [[(x + y) % p for x, y in zip(r, t)]
                                                  for r, t in zip(a, c)]
    assert [list(r) for r in ma.scale(s).rows] == [[x * s % p for x in r] for r in a]
    kron = [[x * y % p for x in ra for y in rb] for ra in a for rb in c]
    assert [list(r) for r in kron_matrix(ma, mc).rows] == kron


REDUCTION_PRIMES = [2, 3, 101, 2**26 - 5, P_TOP]


@pytest.mark.parametrize("p", REDUCTION_PRIMES)
def test_mod_p_exact_at_the_contract_bound(p):
    # _mod_p is exact for |x| <= 2**53 - p: the bound itself, the 5,000
    # values below it, random values, and values at and next to multiples
    # of p (where the rounded quotient is one off, either way), both signs
    top = 2**53 - p
    rng = random.Random(p)
    values = [top - i for i in range(5001)]
    values += [rng.randrange(top + 1) for _ in range(1999)]
    values += [k * p + d for k in [rng.randrange(top // p) for _ in range(700)]
               for d in (-1, 0, 1, p - 1)]
    values += [-v for v in values]
    want = [v % p for v in values]
    whole = np.array(values, dtype=np.float64)
    assert whole.size > linalg._MOD_SMALL
    assert linalg._mod_p(whole, p) is whole
    assert whole.astype(np.int64).tolist() == want
    # the same values a few at a time, and as a 2-D array
    for s in range(0, len(values), 700):
        part = np.array(values[s:s + 700], dtype=np.float64).reshape(7, -1)
        linalg._mod_p(part, p)
        assert part.astype(np.int64).ravel().tolist() == want[s:s + 700]


def test_mod_p_refuses_a_non_contiguous_array():
    # reducing a copy would leave the array itself unreduced
    a = np.full((40, 40), 1000.0)
    with pytest.raises(ValueError):
        linalg._mod_p(a.T, 7)
    with pytest.raises(ValueError):
        linalg._mod_p(a[:, ::2], 7)


@pytest.mark.parametrize("p", [2**26 - 5, P_TOP])
def test_mod_matmul_exact_with_largest_entries_at_the_block_size(p):
    # every entry ±(p - 1), so each block's partial sum plus c or the
    # reduced accumulator reaches the largest value the block size allows
    f = GF(p)
    block = (2**53 - 2 * p) // (p - 1) ** 2
    for inner in (block - 1, block, block + 1, 3 * block + 1):
        for sa, sb in ((1, 1), (-1, 1)):
            a = np.full((3, inner), sa * (p - 1), dtype=np.float64)
            b = np.full((inner, 2), sb * (p - 1), dtype=np.float64)
            c = np.full((3, 2), p - 1, dtype=np.float64)
            dot = inner * sa * sb * (p - 1) ** 2
            got = linalg._mod_matmul(f, a, b)
            assert got.astype(np.int64).tolist() == [[dot % p] * 2] * 3
            got = linalg._mod_matmul(f, a, b, c)
            assert got.astype(np.int64).tolist() == [[(dot + p - 1) % p] * 2] * 3


def test_python_scalars_are_normalized_at_the_boundary():
    # ints and Fractions given as Python scalars become residues in [0, p)
    # over GF(p); floats and bools are refused by name over either field
    f, sp = GF(101), space("x", 2)
    alg = StructAlgebra(f, sp, {(0, 0): {0: Fr(1, 2)}}, (1, 0))
    assert alg.mult_op()[3].tolist() == [51]
    m = MapMatrix(f, sp, sp, [[Fr(1, 2), 0], [0, 102]])
    assert m.array.tolist() == [[51, 0], [0, 1]] and m.rows == ((51, 0), (0, 1))
    assert m.scale(Fr(1, 2)).rows == ((76, 0), (0, 51)) and m.scale(-1).rows == ((50, 0), (0, 100))
    t = TensorElement(f, (sp, sp), {(0, 1): 102})
    assert t == TensorElement(f, (sp, sp), {(0, 1): 1}) and t.items() == [((0, 1), 1)]
    with pytest.raises(HopffactError, match="0.5"):
        MapMatrix(QQ, sp, sp, [[0.5, 0], [0, 1]])
    with pytest.raises(HopffactError, match="0.5"):
        MapMatrix(QQ, sp, sp, [[1, 0], [0, 1]]).scale(0.5)
    with pytest.raises(HopffactError, match="True"):
        MapMatrix(f, sp, sp, [[True, 0], [0, 1]])
    with pytest.raises(HopffactError, match="1/101"):
        MapMatrix(f, sp, sp, [[Fr(1, 101), 0], [0, 1]])


def test_integer_and_object_arrays_are_normalized_at_the_boundary():
    # over GF(p) an integer array is reduced into [0, p) and an object array
    # is read entry by entry; a float64 array is taken as residues, uncopied
    f, sp = GF(101), space("x", 2)
    m = MapMatrix(f, sp, sp, np.array([[1, 0], [0, 102]]))
    assert m.array.tolist() == [[1, 0], [0, 1]] and m.rows == ((1, 0), (0, 1))
    m = MapMatrix(f, sp, sp, np.array([[Fr(1, 2), 0], [0, -1]], dtype=object))
    assert m.array.tolist() == [[51, 0], [0, 100]] and m.rows == ((51, 0), (0, 100))
    with pytest.raises(HopffactError, match="0.5"):
        MapMatrix(f, sp, sp, np.array([[0.5, 0], [0, 1]], dtype=object))
    residues = np.array([[3.0, 0.0], [0.0, 1.0]])
    assert linalg._field_array(f, residues) is residues
    m = MapMatrix(QQ, sp, sp, np.array([[1, 0], [0, 102]]))
    assert m.rows == ((1, 0), (0, 102)) and {type(x) for x in m.array.flat} == {int}


ECHELON_PRIMES = [2, 101, linalg._lift_prime(0), linalg._lift_prime(5), P_TOP]


def _low_rank(rng, p, nrows, ncols, rank):
    """An nrows × ncols matrix of residues mod p of rank at most ``rank``."""
    if not rank:
        return np.zeros((nrows, ncols))
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return np.array([[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                     for row in left], dtype=np.float64).reshape(nrows, ncols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ECHELON_PRIMES), st.integers(0, 7), st.integers(1, 5),
       st.randoms(use_true_random=False))
def test_stacked_echelon_matches_the_per_matrix_reference(p, ncols, nb, rng):
    # blocks of unequal heights, padded with zero rows; zero blocks, columns
    # zero in every block and columns zero in some
    heights = [rng.randint(0, 6) for _ in range(nb)]
    dead = [c for c in range(ncols) if rng.random() < 0.25]
    blocks = []
    for h in heights:
        rank = 0 if rng.random() < 0.15 else rng.randint(0, min(h, ncols))
        block = _low_rank(rng, p, h, ncols, rank)
        block[:, dead + [c for c in range(ncols) if rng.random() < 0.15]] = 0
        blocks.append(block)
    stack = np.zeros((nb, max(heights), ncols))
    for b, block in enumerate(blocks):
        stack[b, :len(block)] = block
    ech, pivots = linalg._gf_echelon(stack.copy(), p)
    for b, block in enumerate(blocks):
        ref, ref_piv = reference.gf_echelon(block.copy(), p)
        assert pivots[b] == ref_piv
        assert np.array_equal(ech[b, :len(ref_piv)], ref)
        assert not ech[b, len(ref_piv):].any()
        one, one_piv = linalg._gf_echelon(block.copy(), p)  # a stack of one
        assert one_piv == ref_piv and np.array_equal(one, ref)


def test_q_stack_lifts_each_block_on_its_own_primes(monkeypatch):
    # block 0 loses rank mod the first lift prime; the others certify on it,
    # so the second prime eliminates block 0 alone
    p1, p2 = linalg._lift_prime(0), linalg._lift_prime(1)
    blocks = [[[1, 1], [1, 1 + p1]], [[1, 2], [3, 4]], [[2, 4], [1, 2]], [[0, 0], [0, 0]],
              [[Fr(1, 3), 2], [Fr(5, 7), Fr(-1, 2)]]]
    calls = []
    eliminate = linalg._gf_echelon

    def counted(a, p):
        calls.append((a.shape[0], p))
        return eliminate(a, p)

    monkeypatch.setattr(linalg, "_gf_echelon", counted)
    ech, pivots = echelonize(np.array(blocks, dtype=object), 2, QQ)
    assert calls == [(5, p1), (1, p2)]
    for b, rows in enumerate(blocks):
        ref, ref_piv = reference.fraction_echelon(rows, 2)
        assert pivots[b] == ref_piv
        assert ech[b, :len(ref_piv)].tolist() == ref
        assert not ech[b, len(ref_piv):].any()


def test_batch_driver_halves_keeps_the_size_and_lifts_the_limit_on_a_run_of_one(monkeypatch):
    monkeypatch.setattr(linalg, "_SLICE_CELLS", 7)
    calls = []

    def run(lo, hi, limit):
        calls.append((lo, hi, limit))
        if limit is not None and hi - lo > 3:
            raise linalg._OverBudget
        return list(range(lo, hi))

    # 10 is over, then 5; runs of 3 are kept, and the last run of one has no limit
    assert list(linalg._batches(run, 10)) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    assert calls == [(0, 10, 7), (0, 5, 7), (0, 3, 7), (3, 6, 7), (6, 9, 7), (9, 10, None)]

    def never(lo, hi, limit):
        if limit is not None:
            raise linalg._OverBudget
        return lo

    # a run that is always over budget ends as runs of one, in order
    assert list(linalg._batches(never, 5)) == [0, 1, 2, 3, 4]
    assert list(linalg._batches(never, 0)) == []


def test_mod_image_refuses_a_prime_that_divides_a_denominator():
    val = np.array([[Fr(1, 3), 2], [Fr(-5, 6), 0]], dtype=object)
    assert linalg._mod_image(val, 3) is None
    assert linalg._mod_image(val, 2) is None
    image = linalg._mod_image(val, 7)
    assert image.dtype == np.float64 and image.flags.c_contiguous
    assert image.tolist() == [[5, 2], [5, 0]]  # 1/3 ≡ 5 and −5/6 ≡ 5 mod 7
