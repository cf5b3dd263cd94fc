"""Structure-constant algebra and coalgebra checkers."""

import pytest

from hopffact.algebras import (
    StructAlgebra,
    StructCoalgebra,
    check_algebra,
    check_coalgebra,
)
from hopffact.constructions import dual_group_algebra, group_algebra
from hopffact.errors import HopffactError
from hopffact.fields import QQ
from hopffact.groups import cyclic_group, symmetric_group
from hopffact.linalg import BasedSpace
from reference_tables import comult_dict, mult_dict, multiply


def test_group_algebra_passes():
    h, _ = group_algebra(cyclic_group(2))
    assert check_algebra(h.algebra)
    h6, _ = group_algebra(symmetric_group(3))
    assert check_algebra(h6.algebra)


def test_perturbed_c3_fails_associativity():
    # redirect g·g to g (instead of g²): then (g·g)·g² = e while
    # g·(g·g²) = g, so associativity fails; any two-dimensional unital
    # perturbation would stay associative, hence the dim-3 example
    h, _ = group_algebra(cyclic_group(3))
    mult = mult_dict(h.algebra)
    mult[(1, 1)] = {1: QQ.one}
    bad = StructAlgebra(QQ, h.algebra.space, mult, h.algebra.unit)
    v = check_algebra(bad)
    assert not v
    assert v.axiom == "associativity"
    assert v.witness is not None


def test_zero_dimensional_rejected_at_construction():
    with pytest.raises(HopffactError):
        StructAlgebra(QQ, BasedSpace(()), {}, ())


def test_broken_unit_fails_unitality():
    h, _ = group_algebra(cyclic_group(2))
    unit = (QQ.zero, QQ.one)  # g is not the unit
    bad = StructAlgebra(QQ, h.algebra.space, h.algebra.mult_op(), unit)
    v = check_algebra(bad)
    assert not v and v.axiom == "unitality"


def test_coalgebra_checks_pass_for_duals():
    hd = dual_group_algebra(cyclic_group(2))
    assert check_coalgebra(hd.coalgebra)


def test_perturbed_counit_fails_counitality():
    # replacing the counit of (kC2)* by evaluation at g breaks the counit
    # axiom: (ε⊗id)Δ(δ_e) = δ_g ≠ δ_e (it stays an algebra map, so the
    # failure is counitality, not multiplicativity)
    hd = dual_group_algebra(cyclic_group(2))
    bad_counit = (QQ.zero, QQ.one)
    bad = StructCoalgebra(QQ, hd.space, hd.coalgebra.comult_op(), bad_counit)
    v = check_coalgebra(bad)
    assert not v and v.axiom == "counitality"


def test_perturbed_comult_fails_coassociativity():
    hd = dual_group_algebra(cyclic_group(3))
    comult = comult_dict(hd.coalgebra)
    # Δ(δ_e) normally sums δ_a⊗δ_{a^{-1}}; drop one term
    entry = dict(comult[0])
    entry.pop((1, 2))
    comult[0] = entry
    bad = StructCoalgebra(QQ, hd.space, comult, hd.coalgebra.counit)
    v = check_coalgebra(bad)
    assert (v.axiom, v.witness, v.detail) == ("coassociativity", (0,), None)


def test_multiply_sparse_elements():
    h, _ = group_algebra(cyclic_group(3))
    a = {1: QQ.one}           # g
    b = {1: QQ.one, 2: QQ.parse(2)}  # g + 2g²
    prod = multiply(QQ, mult_dict(h.algebra), a, b)
    assert prod == {2: QQ.one, 0: QQ.parse(2)}  # g² + 2e


def test_left_right_mult_matrices():
    h, _ = group_algebra(cyclic_group(3))
    lm = h.algebra.left_mult_matrix({1: QQ.one})
    rm = h.algebra.right_mult_matrix({1: QQ.one})
    vec = (QQ.one, QQ.zero, QQ.zero)
    assert lm.apply(vec) == (QQ.zero, QQ.one, QQ.zero)
    assert rm.apply(vec) == (QQ.zero, QQ.one, QQ.zero)


def test_structure_constant_index_outside_the_basis():
    sp = BasedSpace(("a", "b"))
    # the dict is converted into the table at construction, which refuses it
    with pytest.raises(HopffactError, match="outside the basis"):
        StructAlgebra(QQ, sp, {(0, 0): {0: QQ.one}, (0, 1): {2: QQ.one}}, (QQ.one, QQ.zero))
