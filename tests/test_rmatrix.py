"""R-matrix axioms, braidings, and Hopf-level factorizability."""

import pytest

import hopffact.rmatrix as rmatrix_module

from hopffact.constructions import (
    drinfeld_double_group,
    group_algebra,
    named_example,
    registry_names,
    sweedler_h4,
    sweedler_r_matrix,
)
from hopffact.errors import NotInvertible
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group, symmetric_group
from hopffact.hopf import HModule, module_tensor, regular_module, trivial_module
from hopffact.rmatrix import (
    RMatrix,
    braiding_inverse_matrix,
    braiding_matrix,
    check_hexagon,
    check_r_matrix,
    drinfeld_map,
    is_factorizable_hopf,
    is_triangular,
    r_matrix,
    trivial_r_matrix,
)
from hopffact.tensors import TensorElement, tensor_invert, tensor_mult, tensor_unit


def test_trivial_r_on_group_algebra_passes():
    for g in (cyclic_group(2), symmetric_group(3)):
        h, r = group_algebra(g)
        assert check_r_matrix(h, r.element)


def test_e_tensor_g_fails_first_axiom():
    # (Δ⊗id)(e⊗g) = e⊗e⊗g but R13 R23 = e⊗e⊗e
    h, _ = group_algebra(cyclic_group(2))
    cand = TensorElement(QQ, (h.space, h.space), {(0, 1): QQ.one})
    v = check_r_matrix(h, cand)
    assert not v and v.axiom == "quasitriangular-i"


def test_double_r_matrices_pass():
    for g in (cyclic_group(2), cyclic_group(3)):
        h, r = drinfeld_double_group(g)
        assert check_r_matrix(h, r.element)


def test_r_matrix_counit_consequence():
    # (ε⊗id)R = 1 and (id⊗ε)R = 1
    cases = [
        drinfeld_double_group(cyclic_group(2)),
        drinfeld_double_group(cyclic_group(3)),
        group_algebra(symmetric_group(3)),
    ]
    h4 = sweedler_h4()
    cases.append((h4, sweedler_r_matrix(h4, 1)))
    for h, r in cases:
        eps = h.coalgebra.counit
        unit = h.unit_dict()
        for leg in (0, 1):
            contracted = r.element.contract_leg(leg, eps)
            got = {i: c for (i,), c in contracted.items()}
            assert got == unit


def test_braiding_of_unit_module_is_identity():
    h, r = drinfeld_double_group(cyclic_group(2))
    x = regular_module(h)
    triv = trivial_module(h)
    c1 = braiding_matrix(r, triv, x)
    c2 = braiding_matrix(r, x, triv)
    ident = [
        tuple(QQ.one if i == j else QQ.zero for j in range(x.dim))
        for i in range(x.dim)
    ]
    assert [tuple(row) for row in c1.rows] == ident
    assert [tuple(row) for row in c2.rows] == ident


def test_trivial_r_braiding_is_flip():
    h, r = group_algebra(cyclic_group(2))
    x = regular_module(h)
    c = braiding_matrix(r, x, x)
    n = x.dim
    for a in range(n):
        for b in range(n):
            col = a * n + b
            out = [row[col] for row in c.rows]
            expect = [QQ.zero] * (n * n)
            expect[b * n + a] = QQ.one
            assert out == expect


def test_braiding_inverse_is_inverse():
    h, r = drinfeld_double_group(cyclic_group(2))
    x = regular_module(h)
    c = braiding_matrix(r, x, x)
    cinv = braiding_inverse_matrix(r, x, x)
    assert (cinv @ c).is_identity()
    assert (c @ cinv).is_identity()


def test_hexagons_on_double_c2():
    h, r = drinfeld_double_group(cyclic_group(2))
    x = regular_module(h)
    c = braiding_matrix(r, x, x)
    assert c.domain.dim == 16
    assert check_hexagon(r, x, x, x)
    triv = trivial_module(h)
    assert check_hexagon(r, x, triv, x)


def test_double_braiding_is_monodromy_action():
    from hopffact.hopf import kron_matrix
    from hopffact.linalg import MapMatrix

    h4 = sweedler_h4()
    r = sweedler_r_matrix(h4, 1)
    x = regular_module(h4)
    y = module_tensor(h4, x, trivial_module(h4))
    c_xy = braiding_matrix(r, x, y)
    c_yx = braiding_matrix(r, y, x)
    comp = c_yx @ c_xy
    mono = r.monodromy()
    acc = MapMatrix.zero(QQ, comp.domain, comp.codomain)
    for (a, b), cv in mono.items():
        acc = acc + kron_matrix(x.action[a], y.action[b]).scale(cv)
    assert comp == acc


def test_drinfeld_map_trivial_r_has_rank_one():
    h, r = group_algebra(symmetric_group(3))
    dm = drinfeld_map(r)
    assert dm.matrix.rank() == 1
    assert not is_factorizable_hopf(r)


def test_dim_one_hopf_is_factorizable():
    h, r = group_algebra(cyclic_group(1))
    assert is_factorizable_hopf(r)


def test_doubles_are_factorizable():
    for g in (cyclic_group(2), cyclic_group(3)):
        h, r = drinfeld_double_group(g)
        assert is_factorizable_hopf(r)
        assert drinfeld_map(r).matrix.rank() == h.dim


def test_triangularity():
    h, r = group_algebra(cyclic_group(2))
    assert is_triangular(r)
    hd, rd = drinfeld_double_group(cyclic_group(2))
    assert not is_triangular(rd)
    # any R with R21 R = 1⊗1 is triangular by definition
    h4 = sweedler_h4()
    r0 = sweedler_r_matrix(h4, 0)
    algs = [h4.algebra, h4.algebra]
    mono = tensor_mult(r0.element.swap(), r0.element, algs)
    assert mono == tensor_unit(QQ, (h4.space, h4.space), algs)
    assert is_triangular(r0)


def test_triangular_hosts_have_rank_one_drinfeld_map():
    h4 = sweedler_h4()
    for lam in ("0", "1"):
        r = sweedler_r_matrix(h4, QQ.parse(lam))
        assert drinfeld_map(r).matrix.rank() == 1


def test_mirror_r_matrix_has_same_rank():
    cases = [
        drinfeld_double_group(cyclic_group(2)),
        drinfeld_double_group(cyclic_group(3)),
        group_algebra(cyclic_group(2)),
    ]
    h4 = sweedler_h4()
    cases.append((h4, sweedler_r_matrix(h4, 1)))
    for h, r in cases:
        mirror_element = r.inverse.swap()
        assert check_r_matrix(h, mirror_element)
        mirror = RMatrix(h, mirror_element)
        assert drinfeld_map(mirror).matrix.rank() == drinfeld_map(r).matrix.rank()


def test_checked_constructor_rejects_non_r_matrix():
    h, _ = group_algebra(cyclic_group(2))
    cand = TensorElement(QQ, (h.space, h.space), {(0, 1): QQ.one})
    with pytest.raises(Exception):
        r_matrix(h, cand)
    good = r_matrix(h, trivial_r_matrix(h).element)
    assert is_triangular(good)


def _counting_general_inversion(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return tensor_invert(*args)

    monkeypatch.setattr(rmatrix_module, "tensor_invert", counting)
    return calls


def test_r_matrix_inverts_once(monkeypatch):
    # one inversion, in closed form: the general inversion never runs on a
    # genuine R-matrix
    b = named_example("double:C2")
    calls = []
    r_inverse = rmatrix_module._r_inverse

    def counting(*args):
        calls.append(args)
        return r_inverse(*args)

    monkeypatch.setattr(rmatrix_module, "_r_inverse", counting)
    general = _counting_general_inversion(monkeypatch)
    r = r_matrix(b.hopf, b.rmatrix.element)
    assert len(calls) == 1
    assert not general
    assert r.inverse == b.rmatrix.inverse


def _antipode_on_first_leg(h, t):
    """(S⊗id)t, term by term from the antipode matrix."""
    f, coeffs = h.field, {}
    for (a, b), c in t.items():
        for i in range(h.dim):
            s_ia = h.antipode.rows[i][a]
            if not f.is_zero(s_ia):
                coeffs[(i, b)] = f.add(coeffs.get((i, b), f.zero), f.mul(s_ia, c))
    return TensorElement(f, t.factors, coeffs)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(94906249)], ids=str)
def test_r_inverse_is_the_closed_form(field, monkeypatch):
    # R⁻¹ = (S⊗id)R on every R of the registry (and on D(S3) over GF(101)),
    # equal to the general inversion's answer, and found without it
    names = list(registry_names()) + (["double:S3"] if field == GF(101) else [])
    general = _counting_general_inversion(monkeypatch)
    for name in names:
        b = named_example(name, field)
        if b.rmatrix is None:
            continue
        h, r = b.hopf, b.rmatrix.element
        inv = rmatrix_module._r_inverse(h, r)
        assert not general, name
        assert inv == _antipode_on_first_leg(h, r), name
        assert inv == tensor_invert(r, [h.algebra, h.algebra]), name


def test_r_inverse_falls_back_on_an_element_that_is_not_an_r_matrix(monkeypatch):
    # t = 2 + g⊗g in kC2⊗kC2 is invertible, with t⁻¹ = (2 − g⊗g)/3, and
    # (S⊗id)t = t is not its inverse
    h, _ = group_algebra(cyclic_group(2))
    e, g = h.algebra.unit.index(QQ.one), 1 - h.algebra.unit.index(QQ.one)
    t = TensorElement(QQ, (h.space, h.space), {(e, e): QQ.scalar(2), (g, g): QQ.one})
    general = _counting_general_inversion(monkeypatch)
    inv = rmatrix_module._r_inverse(h, t)
    assert len(general) == 1
    third = QQ.scalar(1) / 3
    assert inv == TensorElement(QQ, t.factors, {(e, e): 2 * third, (g, g): -third})
    assert RMatrix(h, t).inverse == inv
    assert not check_r_matrix(h, t)


def test_r_inverse_refuses_a_zero_divisor():
    # (1 + g)⊗1 is a zero divisor: (1 + g)(1 − g) = 0 in kC2
    h, _ = group_algebra(cyclic_group(2))
    t = TensorElement(QQ, (h.space, h.space), {(0, 0): QQ.one, (1, 0): QQ.one})
    with pytest.raises(NotInvertible):
        RMatrix(h, t)
    with pytest.raises(NotInvertible):
        check_r_matrix(h, t)


def test_a_supplied_inverse_is_verified_by_one_product(monkeypatch):
    # inv·t = 1 is the whole check: in a finite-dimensional algebra a left
    # inverse is two-sided.  A wrong candidate is still refused.
    import hopffact.tensors as tensors

    b = named_example("double:C3")
    h, r = b.hopf, b.rmatrix
    products = []
    form = tensors._products

    def counted(*args):
        products.append(args)
        return form(*args)

    monkeypatch.setattr(tensors, "_products", counted)
    assert RMatrix(h, r.element, r.inverse).inverse == r.inverse
    assert len(products) == 1
    for wrong in (r.inverse.scale(QQ.parse(2)), r.element):
        with pytest.raises(NotInvertible, match="not an inverse"):
            RMatrix(h, r.element, wrong)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_g_tensor_1_on_kc2_fails_only_the_second_axiom(field):
    # (Δ⊗id)(g⊗1) = g⊗g⊗1 = R13 R23, but (id⊗Δ)(g⊗1) = g⊗1⊗1 ≠ g²⊗1⊗1
    h = named_example("regular:C2", field).hopf
    assert h.space.labels == ("e", "g")
    v = check_r_matrix(h, TensorElement(field, (h.space, h.space), {(1, 0): field.one}))
    assert (v.axiom, v.detail) == ("quasitriangular-ii", "(id⊗Δ)R ≠ R13 R12")


def _bumped(x, a, i, j):
    """``x`` with 1 added to entry (i, j) of the matrix of basis element a."""
    stack = x.stack.copy()
    stack[a, i, j] = x.field.add(x.field.scalar(stack[a, i, j]), x.field.one)
    return HModule(x.space, stack, x.field)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_each_hexagon_names_the_module_it_reads_twice(field):
    # D(C2) with R = Σ terms on first legs e_0, e_2: a bumped Z breaks
    # hexagon 1, where R's second legs act on Z twice; a bumped X breaks
    # hexagon 2, where the first legs act on X twice, exactly when the
    # bumped matrix is one of theirs
    b = named_example("double:C2", field)
    x = regular_module(b.hopf)
    firsts = {idx[0] for idx, _ in b.rmatrix.element.items()}
    assert firsts == {0, 2}
    for a in range(4):
        for i in range(4):
            for j in range(4):
                bumped = _bumped(x, a, i, j)
                assert check_hexagon(b.rmatrix, x, x, bumped).axiom == "hexagon-1"
                v = check_hexagon(b.rmatrix, bumped, x, x)
                assert v.axiom == ("hexagon-2" if a in firsts else None), (a, i, j)
