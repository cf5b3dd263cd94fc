"""Exact field arithmetic."""

import random
from fractions import Fraction

import pytest

from hopffact.constructions import named_example
from hopffact.errors import HopffactError
from hopffact.fields import GF, QQ, PrimeField, field_from_spec, field_to_spec
from hopffact.hopf import check_hopf


def test_rationals_are_exact_fractions():
    a = QQ.parse("2/3")
    b = QQ.parse("-1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, b) == Fraction(-1, 9)
    assert QQ.inv(a) == Fraction(3, 2)
    assert QQ.format(Fraction(-4, 8)) == "-1/2"
    assert QQ.format(Fraction(6, 3)) == "2"


def test_gf_reduces_to_canonical_range():
    f = GF(7)
    assert f.scalar(-1) == 6
    assert f.parse("10/3") == f.mul(3, f.inv(3 % 7))  # 10 ≡ 3, 3/3 = 1... check directly
    assert f.parse("10/3") == f.div(10 % 7, 3)
    assert f.add(5, 4) == 2
    assert f.neg(0) == 0
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1


def test_gf_rejects_composites():
    with pytest.raises(HopffactError):
        GF(6)


def test_gf_refuses_primes_outside_the_float_range():
    # GF(2**31-1) used to surface as "NoAntipode: antipode is not invertible"
    for p in (2**31 - 1, 94906297):  # the smallest prime with (p-1)**2 >= 2**53
        for make in (GF, PrimeField):
            with pytest.raises(HopffactError, match=r"supported range.*\(p-1\)\*\*2 < 2\*\*53"):
                make(p)
    assert GF(94906249).p == 94906249  # the largest supported prime


def test_largest_supported_prime_runs_end_to_end():
    # this prime used to surface as "NoAntipode: antipode is not invertible"
    b = named_example("sweedler:1", GF(94906249))
    assert check_hopf(b.hopf)
    assert (b.hopf.antipode @ b.hopf.antipode_inv).is_identity()


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    for f in (QQ, GF(101)):
        elems = [f.parse(rng.randint(-30, 30)) for _ in range(24)]
        for a, b, c in zip(elems, elems[8:], elems[16:]):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            if not f.is_zero(a):
                assert f.mul(a, f.inv(a)) == f.one


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_field_spec_round_trip():
    assert field_from_spec("Q") is QQ
    assert field_from_spec({"GFp": 13}).p == 13
    assert field_to_spec(QQ) == "Q"
    assert field_to_spec(GF(13)) == {"GFp": 13}
