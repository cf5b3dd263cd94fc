"""Hopf algebra checks, antipode solving, duals, and modules."""

import random

import numpy as np
import pytest

from hopffact.constructions import (
    drinfeld_double_group,
    dual_group_algebra,
    group_algebra,
    sweedler_h4,
)
from hopffact.errors import NoAntipode, SpaceMismatch
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group, symmetric_group
from hopffact.hopf import (
    HModule,
    HopfAlgebra,
    check_hopf,
    check_module,
    dual_hopf,
    make_hopf,
    module_coevaluation,
    module_dual,
    module_evaluation,
    module_tensor,
    regular_module,
    solve_antipode,
    trivial_module,
)
from hopffact.linalg import MapMatrix
from reference_tables import comult_dict, mult_dict


def test_group_algebras_are_hopf():
    for g in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        h, _ = group_algebra(g)
        assert check_hopf(h)


def test_antipode_of_group_algebra_is_inversion():
    g = symmetric_group(3)
    h, _ = group_algebra(g)
    s = solve_antipode(h.algebra, h.coalgebra)
    for j in range(g.order):
        col = [row[j] for row in s.rows]
        assert col[g.inv(j)] == QQ.one
        assert sum(1 for x in col if x != QQ.zero) == 1


def test_antipode_of_dual_is_dual_inversion():
    g = cyclic_group(3)
    hd = dual_group_algebra(g)
    s = solve_antipode(hd.algebra, hd.coalgebra)
    assert s == hd.antipode
    for j in range(g.order):
        col = [row[j] for row in s.rows]
        assert col[g.inv(j)] == QQ.one


def test_sweedler_antipode_solves_and_squares_nontrivially():
    h4 = sweedler_h4()
    s = solve_antipode(h4.algebra, h4.coalgebra)
    assert s == h4.antipode
    s2 = s @ s
    # S² is conjugation by g: nontrivial on the skew generator x
    x_col = [row[2] for row in s2.rows]
    assert x_col[2] == QQ.parse(-1)


def test_supplied_wrong_antipode_rejected():
    h, _ = group_algebra(cyclic_group(2))
    bad = MapMatrix.identity(QQ, h.space)  # identity is not the antipode? it is for C2!
    # for kC2 the inversion IS the identity — use C3 where it is not
    h3, _ = group_algebra(cyclic_group(3))
    bad3 = MapMatrix.identity(QQ, h3.space)
    with pytest.raises(NoAntipode):
        make_hopf(h3.algebra, h3.coalgebra, bad3)
    del bad


def test_dual_of_group_algebra_is_function_algebra():
    # dual_hopf(kC2) and the directly-built function algebra agree on every
    # structure constant (labels differ, constants do not)
    g = cyclic_group(2)
    h, _ = group_algebra(g)
    hd = dual_hopf(h)
    fd = dual_group_algebra(g)
    assert mult_dict(hd.algebra) == mult_dict(fd.algebra)
    assert hd.algebra.unit == fd.algebra.unit
    assert comult_dict(hd.coalgebra) == comult_dict(fd.coalgebra)
    assert hd.coalgebra.counit == fd.coalgebra.counit
    assert hd.antipode.rows == fd.antipode.rows


def test_dual_hopf_checks_and_double_dual_round_trip():
    for g in (cyclic_group(2), symmetric_group(3)):
        h, _ = group_algebra(g)
        hd = dual_hopf(h)
        assert check_hopf(hd)
        hdd = dual_hopf(hd)
        assert mult_dict(hdd.algebra) == mult_dict(h.algebra)
        assert hdd.algebra.unit == h.algebra.unit
        assert comult_dict(hdd.coalgebra) == comult_dict(h.coalgebra)
        assert hdd.coalgebra.counit == h.coalgebra.counit
        assert hdd.antipode.rows == h.antipode.rows


def test_dual_of_double_passes():
    h, _ = drinfeld_double_group(cyclic_group(2))
    assert check_hopf(dual_hopf(h))


def test_check_hopf_reports_perturbed_counit():
    # replacing the counit of (kC2)* with evaluation at g stays an algebra
    # map, so the first failure check_hopf finds is counitality
    from hopffact.algebras import StructCoalgebra
    from hopffact.hopf import HopfAlgebra

    hd = dual_group_algebra(cyclic_group(2))
    bad_coalg = StructCoalgebra(
        QQ, hd.space, hd.coalgebra.comult_op(), (QQ.zero, QQ.one)
    )
    bad = HopfAlgebra(hd.algebra, bad_coalg, hd.antipode, hd.antipode_inv)
    v = check_hopf(bad)
    assert not v and v.axiom == "counitality"


@pytest.mark.parametrize("case", ["sweedler:S", "C3-GF101:identity", "S3:2S"])
def test_check_hopf_refuses_a_wrong_antipode_inverse(case):
    # a supplied S⁻¹ that is not S's inverse: S itself on H4, where S² ≠ id;
    # the identity on kC3, where S is inversion; 2·S on kS3
    if case == "sweedler:S":
        h = sweedler_h4()
        wrong = h.antipode
    elif case == "C3-GF101:identity":
        h, _ = group_algebra(cyclic_group(3), GF(101))
        wrong = MapMatrix.identity(h.field, h.space)
    else:
        h, _ = group_algebra(symmetric_group(3))
        wrong = MapMatrix(QQ, h.space, h.space, 2 * h.antipode.array)
    v = check_hopf(HopfAlgebra(h.algebra, h.coalgebra, h.antipode, wrong))
    assert (v.ok, v.axiom, v.witness, v.detail) == (False, "antipode-inverse", None, "S∘S⁻¹ ≠ id")
    assert check_hopf(HopfAlgebra(h.algebra, h.coalgebra, h.antipode))


def test_antipode_consequences():
    # ε∘S = ε and S(1) = 1
    for builder in (lambda: group_algebra(symmetric_group(3))[0], sweedler_h4):
        h = builder()
        eps = h.coalgebra.counit
        s = h.antipode.rows
        for j in range(h.dim):
            assert sum(s[k][j] * eps[k] for k in range(h.dim)) == eps[j]
        assert h.antipode.apply(h.algebra.unit) == h.algebra.unit


def test_regular_and_trivial_modules_pass():
    h, _ = group_algebra(symmetric_group(3))
    assert check_module(h, regular_module(h))
    assert check_module(h, trivial_module(h))


def test_sign_module_with_wrong_sign_fails():
    g = symmetric_group(3)
    h, _ = group_algebra(g)
    sp = trivial_module(h).space
    # correct sign character: -1 on transpositions, +1 on 3-cycles
    signs = []
    for name in g.names:
        order2 = sum(1 for c in name if c == "(")
        signs.append(-1 if (len(name) == 4 and name != "e") else 1)
        del order2
    mats = [MapMatrix(QQ, sp, sp, [[QQ.parse(s)]]) for s in signs]
    good = HModule(sp, mats)
    assert check_module(h, good)
    # flip the sign of one transposition: ρ((12))ρ((13)) ≠ ρ((12)(13))
    bad_signs = list(signs)
    idx = g.names.index("(12)")
    bad_signs[idx] = -bad_signs[idx]
    bad = HModule(sp, [MapMatrix(QQ, sp, sp, [[QQ.parse(s)]]) for s in bad_signs])
    v = check_module(h, bad)
    assert not v and v.axiom == "module-mult"


def test_module_check_exact_near_the_prime_limit():
    # the regular module of kC9 in a random basis has entries of the size of
    # p; the float products of the module check used to pass 2**53 here
    f = GF(94906249)
    h, _ = group_algebra(cyclic_group(9), f)
    reg = regular_module(h)
    rng = random.Random(5)
    rows = [[rng.randrange(f.p) for _ in range(9)] for _ in range(9)]
    change = MapMatrix(f, reg.space, reg.space, rows)
    back = change.inverse()
    assert (back @ change).is_identity()
    moved = HModule(reg.space, [change @ a @ back for a in reg.action])
    assert check_module(h, moved)
    wrong = list(moved.action)
    wrong[1], wrong[2] = wrong[2], wrong[1]
    assert not check_module(h, HModule(reg.space, wrong))
    # the same modules from one stacked array: the same matrices, family and verdicts
    for mats in (moved.action, wrong):
        listed = HModule(reg.space, mats)
        stacked = HModule(reg.space, np.stack([m.array for m in mats]), f)
        assert [m.rows for m in stacked.action] == [m.rows for m in listed.action]
        assert all(map(np.array_equal, stacked.family(), listed.family()))
        assert check_module(h, stacked) == check_module(h, listed)
    for shape in ((9, 9, 8), (9, 81)):
        with pytest.raises(SpaceMismatch):
            HModule(reg.space, np.zeros(shape), f)


def test_trivial_tensor_module_is_identity_twist():
    h, _ = group_algebra(cyclic_group(2))
    x = regular_module(h)
    t = module_tensor(h, trivial_module(h), x)
    for i in range(h.dim):
        assert t.action[i].rows == x.action[i].rows


def test_regular_tensor_regular_of_kc2_explicit():
    # Δ(g) = g⊗g: the action of g on the 4-dim space is swap⊗swap
    h, _ = group_algebra(cyclic_group(2))
    x = regular_module(h)
    t = module_tensor(h, x, x)
    one, zero = QQ.one, QQ.zero
    ident = [
        (one, zero, zero, zero),
        (zero, one, zero, zero),
        (zero, zero, one, zero),
        (zero, zero, zero, one),
    ]
    g_mat = [
        (zero, zero, zero, one),
        (zero, zero, one, zero),
        (zero, one, zero, zero),
        (one, zero, zero, zero),
    ]
    assert [list(r) for r in t.action[0].rows] == [list(r) for r in ident]
    assert [list(r) for r in t.action[1].rows] == [list(r) for r in g_mat]
    assert check_module(h, t)


def test_module_tensor_strictly_associative():
    h = sweedler_h4()
    x = regular_module(h)
    triv = trivial_module(h)
    left = module_tensor(h, module_tensor(h, x, triv), x)
    right = module_tensor(h, x, module_tensor(h, triv, x))
    for a, b in zip(left.action, right.action):
        assert a.rows == b.rows


def test_module_dual_and_evaluation():
    h, _ = group_algebra(symmetric_group(3))
    triv = trivial_module(h)
    dual_triv = module_dual(h, triv)
    for i in range(h.dim):
        assert dual_triv.action[i].rows == triv.action[i].rows
    x = regular_module(h)
    xd = module_dual(h, x)
    assert check_module(h, xd)
    ev = module_evaluation(h, x)
    coev = module_coevaluation(h, x)
    # snake identity on vector spaces: (ev⊗id)(id⊗coev) = id via dims
    assert ev.codomain.dim == 1 and coev.domain.dim == 1
    # ev is an H-module map: ev(h·(x*⊗x)) = ε(h)ev(x*⊗x)
    xdx = module_tensor(h, xd, x)
    for i in range(h.dim):
        lhs = ev @ xdx.action[i]
        rhs = ev.scale(h.coalgebra.counit[i])
        assert lhs.rows == rhs.rows
