"""Example factories: verification-at-construction and closed-formula
regressions for the reflective algebras of doubles."""

import hashlib
import random

import pytest

from hopffact.algebras import check_coalgebra
from hopffact.bundle import dumps
from hopffact.comodule import check_comodule_algebra, check_k_matrix
from hopffact.constructions import (
    ExampleBundle,
    drinfeld_double_group,
    group_algebra,
    named_example,
    reflective_algebra,
    registry_names,
    regular_comodule,
    sweedler_h4,
    sweedler_r_matrix,
    trivial_comodule,
)
from hopffact.errors import HopffactError, UnknownExample
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group, group_by_name, symmetric_group
from hopffact.hopf import check_hopf
from hopffact.linalg import MapMatrix
from hopffact.rmatrix import check_r_matrix, is_triangular
from hopffact.tensors import TensorElement
from reference_tables import coaction_dict, mult_dict


def test_registry_bundles_fully_checked():
    for name in registry_names():
        b = named_example(name)
        assert check_hopf(b.hopf)
        if b.rmatrix is not None:
            assert check_r_matrix(b.hopf, b.rmatrix.element)
        if b.comodule is not None:
            assert check_comodule_algebra(b.comodule)
        if b.kmatrix is not None:
            assert check_k_matrix(b.kmatrix)


def test_unknown_example_raises():
    with pytest.raises(UnknownExample):
        named_example("nonsense:C2")


def test_sweedler_char_two_rejected():
    with pytest.raises(HopffactError):
        sweedler_h4(GF(2))


def test_sweedler_triangular_at_zero():
    h4 = sweedler_h4()
    assert is_triangular(sweedler_r_matrix(h4, 0))


def test_double_dimensions():
    for g, expected in ((cyclic_group(2), 4), (cyclic_group(3), 9)):
        h, r = drinfeld_double_group(g)
        assert h.dim == expected
    # exact rationals at dim 36 would mean a 1296² fraction-free inverse;
    # the S3 double is exercised over GF(101), as in the acceptance suite
    h, r = drinfeld_double_group(symmetric_group(3), GF(101))
    assert h.dim == 36


def _reflective_regression(gname, field):
    g = group_by_name(gname)
    b = named_example(f"reflective-trivial:{gname}", field)
    n = g.order
    f = field
    B = b.comodule
    mult, coaction = mult_dict(B.algebra), coaction_dict(B)

    def widx(x, y):
        return x * n + y

    for x in range(n):
        for y in range(n):
            iy, ix = g.inv(y), g.inv(x)
            for xp in range(n):
                for yp in range(n):
                    got = mult.get((widx(x, y), widx(xp, yp)), {})
                    cond = g.mul(g.mul(g.mul(g.mul(iy, ix), y), x), y)
                    if yp != cond:
                        expected = {}
                    else:
                        coeff = g.mul(g.mul(g.mul(g.mul(g.mul(g.mul(g.mul(
                            iy, x), y), xp), iy), ix), y), x)
                        expected = {widx(coeff, y): f.one}
                    assert got == expected
            got = coaction.get(widx(x, y), {})
            expected = {}
            for gg in range(n):
                h_leg = widx(gg, g.mul(g.mul(iy, x), y))
                b_leg = widx(g.mul(g.mul(g.inv(gg), x), gg), g.mul(g.inv(gg), y))
                expected[(h_leg, b_leg)] = f.one
            assert got == expected
    expect_k = {(widx(a, c), widx(a, c)): f.one for a in range(n) for c in range(n)}
    assert dict(b.kmatrix.element.items()) == expect_k


def test_reflective_regression_c2():
    _reflective_regression("C2", QQ)


def test_reflective_regression_c3():
    _reflective_regression("C3", QQ)


def test_reflective_dimension_formula():
    for gname in ("C2", "C3"):
        b = named_example(f"reflective-trivial:{gname}")
        assert b.comodule.dim == 1 * b.hopf.dim


def test_reflective_general_base():
    # A = kC2 over H = kC2 (triangular): the crossed product must verify
    h, r = group_algebra(cyclic_group(2))
    a = regular_comodule(h)
    data = reflective_algebra(h, r, a)
    assert data.comodule.dim == a.dim * h.dim
    assert check_comodule_algebra(data.comodule)
    assert check_k_matrix(data.kmatrix)


def _reflective_hosts():
    """(name, field, host, R, base comodule) for the reflective algebras
    pinned below beside the registry's: the doubles D(C2) and D(C3) over
    the regular comodule, and Sweedler's algebra, the one host with
    S⁻¹ ≠ S, at λ = 0 and 1 over the trivial and the regular comodule."""
    for gname in ("C2", "C3"):
        h, r = drinfeld_double_group(group_by_name(gname), QQ)
        yield f"double:{gname}/regular", QQ, h, r, regular_comodule(h)
    for field in (QQ, GF(101)):
        for lam in (0, 1):
            h = sweedler_h4(field)
            r = sweedler_r_matrix(h, lam)
            for base in (trivial_comodule, regular_comodule):
                yield f"sweedler:{lam}/{base.__name__}", field, h, r, base(h)


def _reflective_bundles():
    for name, field in (("reflective-trivial:C2", QQ), ("reflective-trivial:C3", QQ),
                        ("reflective-trivial:C2", GF(2)), ("reflective-trivial:C3", GF(2)),
                        ("reflective-trivial:S3", GF(101))):
        yield named_example(name, field)
    for name, field, h, r, base in _reflective_hosts():
        data = reflective_algebra(h, r, base)
        yield ExampleBundle(name, field, h, r, data.comodule, data.kmatrix)


# sha256 of the bundle documents of the reflective algebras above: their
# product, coaction and K-matrix, byte for byte
REFLECTIVE_DIGEST = "bf9d882319d1eb159aa812eedb6289d46a6fc8169bf6e3696953105297f4f688"


def test_reflective_bundles_digest():
    digest = hashlib.sha256()
    for b in _reflective_bundles():
        digest.update(f"{b.name} {b.field}\n{dumps(b)}".encode())
    assert digest.hexdigest() == REFLECTIVE_DIGEST


def test_reflective_algebras_of_sweedler_verify():
    # S⁻¹ ≠ S only here: the twisted coproduct and the right translation
    # both use S⁻¹, and every check below sees a slip to S
    for name, field, h, r, base in _reflective_hosts():
        if not name.startswith("sweedler"):
            continue
        data = reflective_algebra(h, r, base)
        assert data.comodule.dim == 4 * base.dim, name
        assert check_coalgebra(data.hat_coalgebra), name
        assert check_comodule_algebra(data.comodule), name
        assert check_k_matrix(data.kmatrix), name


def test_k_ref_independent_of_dual_basis_choice():
    # K_ref = Σ h_k ⊗ h^k is the canonical element: under any change of
    # basis P with dual change (P^{-1})^T it is literally unchanged
    b = named_example("reflective-trivial:C2")
    h = b.hopf
    n = h.dim
    rng = random.Random(13)
    while True:
        rows = [[QQ.parse(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        pm = MapMatrix(QQ, h.space, h.space, rows)
        try:
            pinv = pm.inverse()
            break
        except HopffactError:
            continue
    coeffs = {}
    for k in range(n):
        for i in range(n):
            ci = pm.rows[i][k]
            if ci == QQ.zero:
                continue
            for j in range(n):
                cj = pinv.rows[k][j]  # ((P^{-1})^T)[j][k]
                if cj == QQ.zero:
                    continue
                key = (i, j)
                coeffs[key] = coeffs.get(key, QQ.zero) + ci * cj
    rebuilt = TensorElement(
        QQ, (h.space, b.comodule.algebra.space),
        {k: v for k, v in coeffs.items() if v != QQ.zero},
    )
    assert rebuilt == b.kmatrix.element


def test_reflective_theta_at_unit_recovers_functionals():
    # the injectivity mechanism behind factorizability of the reflective
    # algebra: evaluating the factorizability map at 1_H sends the a-th
    # dual-basis functional to the a-th basis vector of the crossed product
    from hopffact.comodule import compute_end_space, theta_comodule

    for gname in ("C2", "C3"):
        b = named_example(f"reflective-trivial:{gname}")
        es = compute_end_space(b.comodule)
        th = theta_comodule(b.kmatrix, es)
        h = b.hopf
        nb = b.comodule.dim
        u = h.unit_dict()
        for a in range(h.dim):
            vec = [QQ.zero] * nb
            for j in range(es.dim):
                cj = th.rows[j][a]
                if cj == QQ.zero:
                    continue
                for s, cs in u.items():
                    for r in range(nb):
                        vec[r] += cj * cs * es.basis_maps[j].rows[r][s]
            expect = [QQ.one if r == a else QQ.zero for r in range(nb)]
            assert vec == expect


def test_theta_rank_stable_across_fields():
    from hopffact.comodule import is_factorizable_comodule

    for name in ("double:C2", "subgroup:S3:C2"):
        bq = named_example(name)
        bp = named_example(name, GF(7))
        assert is_factorizable_comodule(bq.kmatrix) == is_factorizable_comodule(bp.kmatrix)


def test_subgroup_examples():
    b = named_example("subgroup:S3:C2")
    assert b.comodule.dim == 2
    b = named_example("subgroup:S3:C3")
    assert b.comodule.dim == 3
    b = named_example("subgroup:C2:C1")
    assert b.comodule.dim == 1


def test_trivial_comodule_coaction():
    h, _ = group_algebra(symmetric_group(3))
    c = trivial_comodule(h)
    assert c.dim == 1
    assert check_comodule_algebra(c)


def test_named_example_cached():
    a = named_example("double:C2")
    b = named_example("double:C2")
    assert a is b
    c = named_example("double:C2", GF(7))
    assert c is not a and c.field.p == 7
