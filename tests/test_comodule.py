"""Comodule algebras, K-matrices, end spaces, factorizability maps,
weak factorizability, costable ideals, and symmetric-center membership."""

import hashlib
import random
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hopffact.comodule as comodule
import hopffact.linalg as linalg
import hopffact.meataxe as meataxe

from hopffact.algebras import StructAlgebra, algebra_generators
from hopffact.comodule import (
    ComoduleAlgebra,
    KMatrix,
    SimplicityVerdict,
    check_braided_module,
    check_comodule_algebra,
    check_k_matrix,
    compute_end_space,
    costable_closure,
    h_simplicity,
    is_factorizable_comodule,
    module_braiding,
    omega_copairing,
    regular_bmodule,
    theta_comodule,
    theta_module_category,
    weak_factorizability,
    z2_membership,
)
from hopffact.constructions import (
    group_algebra,
    named_example,
    reflective_algebra,
    registry_names,
    regular_comodule,
    subgroup_comodule,
    sweedler_h4,
    trivial_comodule,
    trivial_k_matrix,
)
from hopffact.errors import HopffactError, ImageEscapesEndSpace, NotInvertible
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group, symmetric_group
from hopffact.hopf import HModule, regular_module, trivial_module
from hopffact.linalg import BasedSpace, MapMatrix, Span, echelonize, kernel_basis
from hopffact.rmatrix import RMatrix
from hopffact.rmatrix import drinfeld_map
from hopffact.tensors import TensorElement
import reference_elimination as reference
from reference_tables import coaction_dict, comult_dict, mult_dict, multiply


@pytest.fixture(scope="module")
def dc2():
    return named_example("double:C2")


def kc2_trivial_coaction():
    h, _ = group_algebra(cyclic_group(2))
    coaction = {i: {(0, i): QQ.one} for i in range(2)}
    return ComoduleAlgebra(h, h.algebra, coaction)


def test_regular_comodule_passes():
    h, _ = group_algebra(cyclic_group(2))
    c = regular_comodule(h)
    assert check_comodule_algebra(c)
    # the coaction table read as dicts: here b ↦ Δ(b), so δ(g) = g⊗g alone
    assert coaction_dict(c) == {0: {(0, 0): QQ.one}, 1: {(1, 1): QQ.one}}


def test_subgroup_comodule_passes():
    g = symmetric_group(3)
    c = subgroup_comodule(g, "C2")
    assert check_comodule_algebra(c)
    assert c.dim == 2


def test_perturbed_coaction_fails():
    h, _ = group_algebra(cyclic_group(2))
    c = regular_comodule(h)
    coaction = coaction_dict(c)
    coaction[1] = {(1, 0): QQ.one}  # δ(g) := g⊗e is not coassociative/counital
    bad = ComoduleAlgebra(h, h.algebra, coaction)
    v = check_comodule_algebra(bad)
    assert not v


def test_k_matrix_trivial_on_triangular_host():
    b = named_example("subgroup:S3:C2")
    assert check_k_matrix(b.kmatrix)


def test_k_matrix_monodromy_on_double(dc2):
    assert check_k_matrix(dc2.kmatrix)


def test_monodromy_passes_and_its_double_fails_kmatrix_i(dc2):
    # accepts the monodromy R21·R; 2·(R21·R) is invertible but fails axiom (i)
    mono = dc2.rmatrix.monodromy()
    assert check_k_matrix(KMatrix(dc2.comodule, dc2.rmatrix, mono))
    v = check_k_matrix(KMatrix(dc2.comodule, dc2.rmatrix, mono.scale(QQ.parse(2))))
    assert (v.ok, v.axiom) == (False, "kmatrix-i")


def test_supplied_inverses_are_verified():
    # sweedler:1's R is not its own inverse: passing it as one used to be
    # stored unchecked, and the valid K then failed kmatrix-i
    b = named_example("sweedler:1", QQ)
    h, r, k = b.hopf, b.rmatrix, b.kmatrix
    with pytest.raises(NotInvertible):
        RMatrix(h, r.element, r.element)
    with pytest.raises(NotInvertible):
        KMatrix(b.comodule, r, k.element, k.inverse.scale(QQ.parse(2)))
    r2 = RMatrix(h, r.element, r.inverse)
    assert check_k_matrix(KMatrix(b.comodule, r2, k.element, k.inverse))


def test_k_equal_r_fails_for_double(dc2):
    # K = R itself (not the double braiding) is not a K-matrix for D(C2)
    c = dc2.comodule
    cand = KMatrix(c, dc2.rmatrix, dc2.rmatrix.element)
    v = check_k_matrix(cand)
    assert not v
    assert v.axiom in ("kmatrix-i", "kmatrix-ii")


def test_module_braiding_unit_and_trivial_k(dc2):
    m = regular_bmodule(dc2.comodule)
    triv = trivial_module(dc2.hopf)
    e = module_braiding(dc2.kmatrix, triv, m)
    assert e.is_identity()
    bs = named_example("subgroup:S3:C2")
    x = regular_module(bs.hopf)
    e2 = module_braiding(bs.kmatrix, x, regular_bmodule(bs.comodule))
    assert e2.is_identity()


def test_module_braiding_is_monodromy_action(dc2):
    from hopffact.hopf import kron_matrix

    x = regular_module(dc2.hopf)
    m = regular_bmodule(dc2.comodule)
    e = module_braiding(dc2.kmatrix, x, m)
    assert e.domain.dim == 16
    mono = dc2.rmatrix.monodromy()
    acc = MapMatrix.zero(QQ, e.domain, e.codomain)
    for (a, b), cv in mono.items():
        acc = acc + kron_matrix(x.action[a], m.action[b]).scale(cv)
    assert e == acc
    assert check_braided_module(dc2.kmatrix, x, x, m)


def test_end_space_regular_is_host(dc2):
    es = compute_end_space(dc2.comodule)
    assert es.dim == dc2.hopf.dim
    assert es.evaluation_at_unit().rank() == dc2.hopf.dim


def test_end_space_trivial_comodule_is_dual():
    h, _ = group_algebra(symmetric_group(3))
    c = trivial_comodule(h)
    es = compute_end_space(c)
    assert es.dim == h.dim  # E(H, k) = H*


def test_end_space_basis_maps_satisfy_intertwiner_identity(dc2):
    # independent re-check of ξ(b_[-1] h) b_[0] = b ξ(h), computed directly
    # from the coaction and products rather than through the kernel builder
    for bundle in (dc2, named_example("sweedler:1", GF(101))):
        c = bundle.comodule
        h = bundle.hopf
        f = c.field
        es = compute_end_space(c)
        assert es.dim == h.dim
        mult_h, mult_b, coaction = mult_dict(h.algebra), mult_dict(c.algebra), coaction_dict(c)
        for xi in es.basis_maps:
            for b in range(c.dim):
                for s in range(h.dim):
                    lhs = {}
                    for (hh, bb), cv in coaction.get(b, {}).items():
                        prod_h = mult_h.get((hh, s), {})
                        for t, ct in prod_h.items():
                            xi_t = {r: xi.rows[r][t] for r in range(c.dim)
                                    if xi.rows[r][t] != f.zero}
                            piece = multiply(f, mult_b, xi_t, {bb: f.one})
                            for r, cr in piece.items():
                                term = f.mul(f.mul(cv, ct), cr)
                                lhs[r] = f.add(lhs.get(r, f.zero), term)
                    xi_s = {r: xi.rows[r][s] for r in range(c.dim)
                            if xi.rows[r][s] != f.zero}
                    rhs = multiply(f, mult_b, {b: f.one}, xi_s)
                    lhs = {k: v for k, v in lhs.items() if v != f.zero}
                    assert lhs == rhs


def _all_basis_end_space(c):
    """Reference E(H,B): one elimination of the intertwiner constraints of
    every basis element of B, written out densely from the structure
    constants."""
    f = c.field
    nb, nh = c.dim, c.host.dim
    n = nb * nh
    mult_h, mult_b, coaction = mult_dict(c.host.algebra), mult_dict(c.algebra), coaction_dict(c)
    rows = []
    for b in range(nb):
        block = [[f.zero] * n for _ in range(n)]
        # ξ(b_[-1] h_s') b_[0], with δ(b) = Σ cv·h_i⊗b_j ...
        for (i, j), cv in coaction.get(b, {}).items():
            for s2 in range(nh):
                for t, ct in mult_h.get((i, s2), {}).items():
                    for r in range(nb):
                        for r2, cr in mult_b.get((r, j), {}).items():
                            e = block[r2 * nh + s2]
                            e[r * nh + t] = f.add(e[r * nh + t], f.mul(cv, f.mul(ct, cr)))
        # ... minus b ξ(h_s')
        for s2 in range(nh):
            for r in range(nb):
                for r2, cr in mult_b.get((b, r), {}).items():
                    e = block[r2 * nh + s2]
                    e[r * nh + s2] = f.sub(e[r * nh + s2], cr)
        rows.extend(tuple(row) for row in block if any(x != f.zero for x in row))
    return kernel_basis(rows, n, f)


def _rref(vectors, n, f):
    ech, piv = echelonize(list(vectors), n, f)
    if isinstance(ech, np.ndarray):
        ech = ech.astype(np.int64).tolist()
    return [tuple(row) for row in ech], piv


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_generator_kernel_equals_all_basis_kernel(field):
    for name in registry_names():
        b = named_example(name, field)
        if b.comodule is None:
            continue
        c = b.comodule
        n = c.dim * c.host.dim
        es = compute_end_space(c)
        flat = [tuple(x for row in xi.rows for x in row) for xi in es.basis_maps]
        assert _rref(flat, n, field) == _rref(_all_basis_end_space(c), n, field), name


def _words_span_dim(alg, gens):
    """Dimension of the span of all words in ``gens``, grown by left
    multiplication from 1."""
    f, mult = alg.field, mult_dict(alg)
    span = Span(f, alg.dim)
    frontier = [alg.unit_dict()]
    span.add(alg.unit)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = multiply(f, mult, {g: f.one}, x)
                if span.add(tuple(y.get(i, f.zero) for i in range(alg.dim))):
                    nxt.append(y)
        frontier = nxt
    return span.dim


def test_algebra_generators_generate():
    h, _ = group_algebra(symmetric_group(3))
    trivial_s3 = ComoduleAlgebra(h, h.algebra, {i: {(0, i): QQ.one} for i in range(h.dim)})
    cases = (
        (named_example("double:S3", GF(101)).comodule, 18),
        (named_example("sweedler:1").comodule, 2),
        (trivial_s3, 2),
    )
    for c, count in cases:
        gens = algebra_generators(c.algebra)
        assert len(gens) == count
        assert _words_span_dim(c.algebra, gens) == c.dim


def test_end_space_rescaled_sweedler_over_large_prime():
    # regular H4 with the basis {1, g, c·x, c·gx} is isomorphic to the
    # regular comodule, so dim E(H,B) = 4; its coaction has coefficients c,
    # and sums of unreduced products of such entries pass 2**53 mod 1000003
    f = GF(1000003)
    h = sweedler_h4(f)
    d = (f.one, f.one, f.scalar(123457), f.scalar(123457))  # b'_i = d_i b_i
    mult = {
        (i, j): {k: f.div(f.mul(f.mul(d[i], d[j]), ck), d[k]) for k, ck in terms.items()}
        for (i, j), terms in mult_dict(h.algebra).items()
    }
    alg = StructAlgebra(f, BasedSpace(("1", "g", "c·x", "c·gx")), mult, h.algebra.unit)
    coaction = {
        i: {(a, k): f.div(f.mul(d[i], cv), d[k]) for (a, k), cv in terms.items()}
        for i, terms in comult_dict(h.coalgebra).items()
    }
    c = ComoduleAlgebra(h, alg, coaction)
    assert check_comodule_algebra(c)
    assert compute_end_space(c).dim == 4


# sha256 of every end-space basis, ω and weak-factorizability tuple of the
# registry over Q.  The Q kernel basis read off the RREF is unique (the
# identity on the free columns), so any change of elimination that keeps
# the answers exact keeps this digest
Q_REGISTRY_DIGEST = "36a529be6527a3de33e2d34be30923e02c02ff5604136d5773487e148fd9015f"


def test_q_registry_end_spaces_are_pinned():
    digest = hashlib.sha256()
    for name in registry_names():
        b = named_example(name)
        if b.comodule is None:
            continue
        es = compute_end_space(b.comodule)
        digest.update(name.encode())
        for m in es.basis_maps:
            digest.update(repr([[str(x) for x in row] for row in m.rows]).encode())
        if b.kmatrix is not None:
            omega = omega_copairing(b.kmatrix, es)
            digest.update(repr([(i, str(x)) for i, x in omega.items()]).encode())
            digest.update(repr(astuple(weak_factorizability(b.kmatrix, es))).encode())
    assert digest.hexdigest() == Q_REGISTRY_DIGEST


def test_theta_trivial_k_collapses():
    # θ(f)(h) = ε(h) ε_{H*}(f) 1_B, so the matrix has rank one and every
    # column is carried by the functional's value at 1
    b = named_example("subgroup:S3:C2")
    es = compute_end_space(b.comodule)
    th = theta_comodule(b.kmatrix, es)
    assert th.rank() == 1
    h = b.hopf
    eps = h.coalgebra.counit
    unit_b = b.comodule.algebra.unit_dict()
    for a in range(h.dim):
        coords = tuple(th.rows[r][a] for r in range(es.dim))
        # reconstruct the map H→B and compare with the closed formula
        recon = [
            [QQ.zero] * h.dim for _ in range(b.comodule.dim)
        ]
        for j, cj in enumerate(coords):
            if cj == QQ.zero:
                continue
            for rr in range(b.comodule.dim):
                for ss in range(h.dim):
                    recon[rr][ss] += cj * es.basis_maps[j].rows[rr][ss]
        fval = h.unit_dict().get(a, QQ.zero)  # ⟨h^a, 1_H⟩
        for ss in range(h.dim):
            for rr in range(b.comodule.dim):
                expect = eps[ss] * fval * unit_b.get(rr, QQ.zero)
                assert recon[rr][ss] == expect


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_k_g_tensor_1_on_regular_c2_pins_where_the_two_readings_disagree(field):
    """K = g⊗1 on the ``regular:C2`` host and algebra, a K that the
    library accepts, on which its two readings of nondegeneracy disagree.

    ``z2_membership`` puts the trivial character in Z₂ and the sign
    character outside it, so Z₂ holds only the trivial module and
    dim J = 1 = dim H − 1: nondegenerate.  But dim E = 2 while θ has rank
    1: not factorizable.  This pins today's output and does not say which
    reading is right; that is the first open item of ROADMAP.md to settle.
    """
    b = named_example("regular:C2", field)
    h, c = b.hopf, b.comodule
    assert h.space.labels == c.algebra.space.labels == ("e", "g")
    k = KMatrix(c, b.rmatrix, TensorElement(field, (h.space, c.algebra.space), {(1, 0): field.one}))
    assert check_k_matrix(k)
    line = BasedSpace(("1",))
    sign = HModule(line, [MapMatrix(field, line, line, [[field.one]]),
                          MapMatrix(field, line, line, [[field.neg(field.one)]])])
    assert z2_membership(k, trivial_module(h))
    assert not z2_membership(k, sign)
    es = compute_end_space(c)
    assert es.dim == 2
    assert theta_comodule(k, es).rank() == 1


def test_theta_equals_drinfeld_for_regular(dc2):
    es = compute_end_space(dc2.comodule)
    th = theta_comodule(dc2.kmatrix, es)
    ev = es.evaluation_at_unit()
    dm = drinfeld_map(dc2.rmatrix)
    assert (ev @ th).rows == dm.matrix.rows


def test_theta_module_identity(dc2):
    es = compute_end_space(dc2.comodule)
    th = theta_comodule(dc2.kmatrix, es)
    thmod = theta_module_category(dc2.kmatrix, es)
    sdual = MapMatrix(
        QQ, dc2.hopf.space.dual(), dc2.hopf.space.dual(),
        tuple(zip(*dc2.hopf.antipode.rows)),
    )
    assert thmod.rows == (th @ sdual).rows
    assert thmod.rank() == th.rank()


def test_factorizability_verdicts():
    assert is_factorizable_comodule(named_example("reflective-trivial:C2").kmatrix)
    assert not is_factorizable_comodule(named_example("subgroup:S3:C2").kmatrix)
    assert not is_factorizable_comodule(named_example("subgroup:C2:C1").kmatrix)
    assert is_factorizable_comodule(named_example("subgroup:C1:C1").kmatrix)
    assert is_factorizable_comodule(named_example("double:C3").kmatrix)


def test_omega_trivial_k_is_unit_tensor_counit():
    # for K = 1⊗1 and B = k the copairing collapses to 1_H ⊗ ε
    h, r = group_algebra(cyclic_group(2))
    c = trivial_comodule(h)
    k = trivial_k_matrix(c, r)
    es = compute_end_space(c)
    om = omega_copairing(k, es)
    # reconstruct Σ W[i,j] h_i ⊗ ξ_j as a map H → H (b-leg is 1-dim)
    eps = h.coalgebra.counit
    unit = h.unit_dict()
    for s in range(h.dim):
        out = [QQ.zero] * h.dim
        for (i, j), cv in om.items():
            val = es.basis_maps[j].rows[0][s]
            out[i] += cv * val
        expect = [eps[s] * unit.get(i, QQ.zero) for i in range(h.dim)]
        assert out == expect


def test_omega_invariance_runs_on_examples(dc2):
    es = compute_end_space(dc2.comodule)
    omega_copairing(dc2.kmatrix, es)  # raises if invariance fails
    b = named_example("subgroup:S3:C3")
    omega_copairing(b.kmatrix, compute_end_space(b.comodule))


def test_weak_factorizability_examples():
    # trivial comodule over kC2: source = all functionals (dim 2, adjoint
    # action is trivial on a commutative cocommutative host), target =
    # multiples of the counit (dim 1): not bijective
    h, r = group_algebra(cyclic_group(2))
    c = trivial_comodule(h)
    k = trivial_k_matrix(c, r)
    wf = weak_factorizability(k)
    assert (wf.source_dim, wf.target_dim, wf.bijective) == (2, 1, False)
    # dim-1 host: bijective
    b1 = named_example("subgroup:C1:C1")
    wf1 = weak_factorizability(b1.kmatrix)
    assert wf1.bijective
    # nondegenerate example: bijective
    br = named_example("reflective-trivial:C2")
    assert weak_factorizability(br.kmatrix).bijective


def test_costable_closure_of_unit_is_everything():
    b = named_example("reflective-trivial:C2")
    unit = [QQ.zero] * b.comodule.dim
    for i, c in b.comodule.algebra.unit_dict().items():
        unit[i] = c
    closure = costable_closure(b.comodule, [tuple(unit)])
    assert len(closure) == b.comodule.dim


def test_costable_closure_trivial_coaction_augmentation_ideal():
    c = kc2_trivial_coaction()
    gen = (QQ.one, QQ.parse(-1))  # e - g
    closure = costable_closure(c, [gen])
    assert len(closure) == 1
    v = closure[0]
    assert v[0] == -v[1]


def test_costable_closure_exact_near_the_prime_limit():
    # kC6 with the trivial coaction, in a random basis b'_i = Σ_j P_ji g^j:
    # its costable ideals are its ideals, so the integral Σ g^j spans one and
    # 1 - g generates the augmentation ideal.  The structure constants and
    # coordinates in that basis are residues of the size of p, whose
    # products used to be summed unreduced past 2**53
    f = GF(94906249)
    h, _ = group_algebra(cyclic_group(6), f)
    n = h.dim
    rng = random.Random(8)
    change = MapMatrix(f, h.space, h.space,
                       [[rng.randrange(f.p) for _ in range(n)] for _ in range(n)])
    back = change.inverse()
    cols = [{j: row[i] for j, row in enumerate(change.rows)} for i in range(n)]

    def new_coords(old):
        return back.apply(tuple(old.get(j, f.zero) for j in range(n)))

    mult, old = {}, mult_dict(h.algebra)
    for i in range(n):
        for j in range(n):
            prod = new_coords(multiply(f, old, cols[i], cols[j]))
            mult[(i, j)] = dict(enumerate(prod))
    labels = tuple(f"b{i}'" for i in range(n))
    alg = StructAlgebra(f, BasedSpace(labels), mult, new_coords(h.algebra.unit_dict()))
    c = ComoduleAlgebra(h, alg, {i: {(0, i): f.one} for i in range(n)})
    assert check_comodule_algebra(c)
    integral = new_coords({j: f.one for j in range(n)})
    assert len(costable_closure(c, [integral])) == 1
    closure = costable_closure(c, [new_coords({0: f.one, 1: f.neg(f.one)})])
    assert len(closure) == n - 1
    # the augmentation ideal is the kernel of ε(b'_i) = Σ_j P_ji
    eps = [sum(col.values()) % f.p for col in cols]
    assert all(sum(e * v for e, v in zip(eps, vec)) % f.p == 0 for vec in closure)


def test_costable_closure_reflective_basis_vectors_spin_up():
    b = named_example("reflective-trivial:C2")
    n = b.comodule.dim
    for i in range(n):
        gen = tuple(QQ.one if j == i else QQ.zero for j in range(n))
        assert len(costable_closure(b.comodule, [gen])) == n


@pytest.mark.parametrize("order", [2, 3])
def test_costable_closures_agree_over_q_and_gf(order):
    # the crossed product of kC_n with its twisted dual: one spin serves
    # both fields, and every basis vector spins to an ideal of dimension n
    dims = []
    for f in (QQ, GF(101)):
        h, r = group_algebra(cyclic_group(order), f)
        c = reflective_algebra(h, r, regular_comodule(h)).comodule
        basis = [tuple(f.one if j == i else f.zero for j in range(c.dim)) for i in range(c.dim)]
        dims.append([len(costable_closure(c, [v])) for v in basis])
    assert dims[0] == dims[1] == [order] * order ** 2


def test_h_simplicity_q_witness_is_reduced():
    # the rows of a Q witness are its RREF, in the order the spin found them
    h, r = group_algebra(cyclic_group(2))
    crossed = reflective_algebra(h, r, regular_comodule(h)).comodule
    rebased = _rebasings([_group_trivial_coaction(symmetric_group(3))], 4, 6)
    for c in [crossed] + rebased:
        sv = h_simplicity(c)
        _assert_verified_witness(c, sv)
        lead = [next(j for j, x in enumerate(row) if x) for row in sv.witness]
        ech, piv = echelonize(list(sv.witness), c.dim, QQ)
        assert piv == sorted(lead)
        assert [tuple(row) for row in ech] == [row for _, row in sorted(zip(lead, sv.witness))]


def test_h_simplicity_verdicts():
    assert h_simplicity(named_example("subgroup:S3:C2").comodule).is_simple
    assert h_simplicity(named_example("subgroup:S3:C3").comodule).is_simple
    assert h_simplicity(named_example("reflective-trivial:C2").comodule).is_simple
    assert h_simplicity(named_example("reflective-trivial:C3").comodule).is_simple
    sv = h_simplicity(kc2_trivial_coaction())
    assert sv.status == "not-simple"
    assert sv.witness is not None and len(sv.witness) == 1
    v = sv.witness[0]
    assert v[0] == -v[1] and v[0] != 0  # span(e-g)
    assert sv.field_tag == "Q"


def test_h_simplicity_witness_is_costable_ideal():
    sv = h_simplicity(kc2_trivial_coaction())
    c = kc2_trivial_coaction()
    closure = costable_closure(c, sv.witness)
    assert len(closure) == len(sv.witness)


def _trivial_coaction(alg, host=None):
    """B = ``alg`` with the trivial coaction b ↦ 1 ⊗ b over ``host`` (kC1 by
    default), so its costable ideals are its two-sided ideals."""
    f = alg.field
    if host is None:
        host, _ = group_algebra(cyclic_group(1), f)
    return ComoduleAlgebra(host, alg, {i: {(0, i): f.one} for i in range(alg.dim)})


def gaussian_rationals(f):
    """Q(i) on the basis 1, i with i² = −1, over kC1: a field over Q and over
    GF(p) for p ≡ 3 mod 4, two copies of GF(p) for p ≡ 1 mod 4."""
    one, neg = f.one, f.neg(f.one)
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: neg}}
    return _trivial_coaction(StructAlgebra(f, BasedSpace(("1", "i")), mult, (one, f.zero)))


def graded_dual_numbers(f):
    """k[x]/(x²) graded by C2 (x odd) as a kC2-comodule algebra: span(x) is
    its only proper costable ideal, so B is uniserial with top k·1."""
    h, _ = group_algebra(cyclic_group(2), f)
    mult = {(0, 0): {0: f.one}, (0, 1): {1: f.one}, (1, 0): {1: f.one}}
    alg = StructAlgebra(f, BasedSpace(("1", "x")), mult, (f.one, f.zero))
    return ComoduleAlgebra(h, alg, {0: {(0, 0): f.one}, 1: {(1, 1): f.one}})


def _assert_verified_witness(c, sv):
    assert sv.status == "not-simple"
    assert 0 < len(sv.witness) < c.dim
    assert len(costable_closure(c, sv.witness)) == len(sv.witness)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_h_simplicity_norton_on_registry(field):
    # every registry comodule algebra is absolutely simple; over Q the proof
    # comes from a mod-p image
    for name in registry_names():
        c = named_example(name, field).comodule
        if c is not None:
            sv = h_simplicity(c)
            assert (sv.status, sv.certificate, sv.field_tag) == ("simple", "norton", field.tag), name


@pytest.mark.parametrize("field", [QQ, GF(103)], ids=["Q", "GF103"])
def test_h_simplicity_simple_but_not_absolutely(field):
    # Q(i) is a field over Q and over GF(103): simple, proved with the
    # irreducible factor x² + 1, and not absolutely simple
    sv = h_simplicity(gaussian_rationals(field))
    assert (sv.status, sv.certificate) == ("simple", "norton:deg2")


def test_h_simplicity_splits_over_a_field_containing_i():
    f = GF(101)  # 10² = −1, so Q(i) ⊗ GF(101) = GF(101) × GF(101)
    c = gaussian_rationals(f)
    sv = h_simplicity(c)
    _assert_verified_witness(c, sv)
    (a, b), = sv.witness  # an eigenvector of multiplication by i
    assert (a * a + b * b) % f.p == 0


def test_h_simplicity_spin_witness():
    h, _ = group_algebra(cyclic_group(2), GF(101))
    c = _trivial_coaction(h.algebra, h)
    sv = h_simplicity(c)
    assert sv.certificate == "spin"
    _assert_verified_witness(c, sv)


def test_h_simplicity_dual_spin_witness():
    # the vector of ker g(a) picked here lies outside span(x) and spins to
    # all of B, so only the transposed spin sees the ideal
    c = graded_dual_numbers(GF(101))
    sv = h_simplicity(c)
    assert sv.certificate == "dual-spin"
    _assert_verified_witness(c, sv)
    assert sv.witness == ((0, 1),)


def test_h_simplicity_inconclusive_at_the_cap(monkeypatch):
    monkeypatch.setattr(meataxe, "CAP", 0)
    c = named_example("double:C2", GF(101)).comodule
    assert h_simplicity(c) == SimplicityVerdict("inconclusive", None, None, "GF(101)")
    # over Q no prime decides and no basis vector spins to a proper ideal
    sv = h_simplicity(named_example("double:C2").comodule)
    assert sv == SimplicityVerdict("inconclusive", None, None, "Q")


def _group_trivial_coaction(g):
    h, _ = group_algebra(g)
    return _trivial_coaction(h.algebra, h)


def _rebasings(bases, count, seed):
    """``count`` rebasings of the comodule algebras ``bases`` in turn, by
    matrices with entries in [−9, 9] drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = bases[len(out) % len(bases)]
        rebased = _rebase(c, [rng.randint(-9, 9) for _ in range(c.dim ** 2)])
        if rebased is not None:
            out.append(rebased)
    return out


def test_h_simplicity_lifts_the_mod_p_witness_over_q():
    # kC3, kS3 and kC4 with the trivial coaction are not simple in any
    # basis; on these bases the witness comes from a mod-p spin lifted to Q
    bases = [_group_trivial_coaction(g) for g in
             (cyclic_group(3), symmetric_group(3), cyclic_group(4))]
    for c in _rebasings(bases, 40, 5):
        sv = h_simplicity(c)
        assert sv.certificate in ("spin", "dual-spin")
        _assert_verified_witness(c, sv)


def test_h_simplicity_never_lifts_an_irrational_witness(monkeypatch):
    # mod 1048573 ≡ 1 mod 4, i is a residue, so Q(i) and Q[C4] = Q² × Q(i)
    # split into eigenspaces of i that are not reductions of rational ideals
    monkeypatch.setattr(comodule, "_NORTON_PRIMES", (1048573,))
    for c in (gaussian_rationals(QQ), _group_trivial_coaction(cyclic_group(4))):
        assert h_simplicity(c) == SimplicityVerdict("inconclusive", None, None, "Q")


def test_h_simplicity_lift_through_two_primes(monkeypatch):
    # the witness of this rebasing of kC4 has entries too large to be
    # reconstructed from one prime; the CRT of two recovers it
    c = _group_trivial_coaction(cyclic_group(4))
    rng = random.Random(11)
    rebased = [_rebase(c, [rng.randint(-9, 9) for _ in range(16)]) for _ in range(2)][1]
    sv = h_simplicity(rebased)
    assert sv.certificate == "spin"
    _assert_verified_witness(rebased, sv)
    for p in comodule._NORTON_PRIMES:
        with monkeypatch.context() as m:
            m.setattr(comodule, "_NORTON_PRIMES", (p,))
            assert h_simplicity(rebased).status == "inconclusive"


def test_h_simplicity_lift_through_every_agreeing_prime(monkeypatch):
    # all three primes give this rebasing of kS3 a witness with the same
    # pivots, with entries too large to be reconstructed from one prime or
    # from two; the CRT of all three recovers it
    c = _group_trivial_coaction(symmetric_group(3))
    rng = random.Random(3)
    rebased = _rebase(c, [rng.randint(-30, 30) for _ in range(c.dim ** 2)])
    sv = h_simplicity(rebased)
    assert (sv.certificate, len(sv.witness)) == ("spin", 1)
    _assert_verified_witness(rebased, sv)
    monkeypatch.setattr(comodule, "_NORTON_PRIMES", comodule._NORTON_PRIMES[:2])
    assert h_simplicity(rebased).status == "inconclusive"


def _rebase(c, entries):
    """``c`` with B on the basis b'_i = Σ_j P_ji b_j, P the n×n matrix of
    ``entries`` (row-major), structure constants and coaction transported;
    None when P is singular."""
    f = c.field
    n = c.dim
    sp = c.algebra.space
    change = MapMatrix(f, sp, sp, [[f.scalar(x) for x in entries[i * n:(i + 1) * n]]
                                   for i in range(n)])
    try:
        back = change.inverse()
    except NotInvertible:
        return None
    cols = [{j: row[i] for j, row in enumerate(change.rows)} for i in range(n)]

    def new_coords(old):
        return back.apply(tuple(old.get(j, f.zero) for j in range(n)))

    old, old_coaction = mult_dict(c.algebra), coaction_dict(c)
    mult = {(i, j): dict(enumerate(new_coords(multiply(f, old, cols[i], cols[j]))))
            for i in range(n) for j in range(n)}
    alg = StructAlgebra(f, BasedSpace(tuple(f"b{i}'" for i in range(n))), mult,
                        new_coords(c.algebra.unit_dict()))
    coaction = {}
    for i in range(n):
        terms = {}  # h-index → the B-leg in the old basis
        for j, pj in cols[i].items():
            for (hh, k), ck in old_coaction.get(j, {}).items():
                leg = terms.setdefault(hh, {})
                leg[k] = f.add(leg.get(k, f.zero), f.mul(pj, ck))
        coaction[i] = {(hh, l): x for hh, leg in terms.items()
                       for l, x in enumerate(new_coords(leg)) if not f.is_zero(x)}
    return ComoduleAlgebra(c.host, alg, coaction)


METAMORPHIC_FIELDS = [QQ, GF(101), GF(94906249)]
METAMORPHIC_CASES = [(name, field) for name in
                     ("sweedler:1", "double:C2", "subgroup:S3:C2", "trivial:C2")
                     for field in METAMORPHIC_FIELDS]


def _metamorphic_input(name, field):
    if name == "trivial:C2":
        h, _ = group_algebra(cyclic_group(2), field)
        return _trivial_coaction(h.algebra, h)
    return named_example(name, field).comodule


@pytest.mark.parametrize("name, field", METAMORPHIC_CASES,
                         ids=[f"{n}-{f}" for n, f in METAMORPHIC_CASES])
@settings(max_examples=4, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_simplicity_and_end_space_invariant_under_change_of_basis(name, field, data):
    c = _metamorphic_input(name, field)
    n = c.dim
    hi = 3 if field == QQ else field.p - 1
    lo = -3 if field == QQ else 0
    entries = data.draw(st.lists(st.integers(lo, hi), min_size=n * n, max_size=n * n))
    rebased = _rebase(c, entries)
    assume(rebased is not None)
    assert check_comodule_algebra(rebased)
    assert h_simplicity(rebased).status == h_simplicity(c).status
    assert compute_end_space(rebased).dim == compute_end_space(c).dim


# Adding 1 to one coefficient (i, j) of ω: the basis index t at which the
# invariance check refuses it (None: the perturbed element is invariant)
OMEGA_REFUSALS = {
    (0, 0): None, (0, 1): 1, (0, 2): 1, (0, 3): 2,
    (1, 0): 2, (1, 1): 1, (1, 2): 1, (1, 3): 2,
    (2, 0): 1, (2, 1): None, (2, 2): None, (2, 3): 1,
    (3, 0): 1, (3, 1): None, (3, 2): None, (3, 3): 1,
}


def test_omega_invariance_refusal():
    from hopffact.comodule import _verify_omega_invariance

    b = named_example("sweedler:1")
    es = compute_end_space(b.comodule)
    omega = omega_copairing(b.kmatrix, es)
    for key, t in OMEGA_REFUSALS.items():
        coeffs = dict(omega.items())
        coeffs[key] = coeffs.get(key, QQ.zero) + 1
        bumped = TensorElement(QQ, omega.factors, coeffs)
        if t is None:
            _verify_omega_invariance(b.kmatrix, es, bumped)
        else:
            with pytest.raises(HopffactError, match=f"not invariant at basis {t}$"):
                _verify_omega_invariance(b.kmatrix, es, bumped)


def test_omega_invariance_holds_for_every_copairing_on_double_c2(dc2):
    # D(C2) is commutative and cocommutative and acts trivially on its end
    # space, so every element of H ⊗ E is invariant and the refusal arm is
    # unreachable there
    from hopffact.comodule import _verify_omega_invariance
    from hopffact.tensors import TensorElement

    es = compute_end_space(dc2.comodule)
    omega = omega_copairing(dc2.kmatrix, es)
    for key in [(i, j) for i in range(dc2.hopf.dim) for j in range(es.dim)]:
        coeffs = dict(omega.items())
        coeffs[key] = coeffs.get(key, QQ.zero) + 1
        _verify_omega_invariance(dc2.kmatrix, es, TensorElement(QQ, omega.factors, coeffs))


def test_end_space_escape_detection(dc2):
    # the escape guard lives in the coordinatizer: any Hom(H,B) vector
    # outside the span must raise, exactly
    from hopffact.errors import ImageEscapesEndSpace

    es = compute_end_space(dc2.comodule)
    n = dc2.comodule.dim * dc2.hopf.dim
    probe = [QQ.zero] * n
    probe[0] = QQ.one  # e_0 of Hom(H,B): not an intertwiner for D(C2)
    in_span = True
    try:
        es.coords_many([tuple(probe)])
    except ImageEscapesEndSpace:
        in_span = False
    assert not in_span
    # while every basis map is expressible in itself
    flat = tuple(x for row in es.basis_maps[0].rows for x in row)
    coords = es.coords_many([flat])[0]
    assert coords[0] == QQ.one


def _reference_end_space(c):
    """The reduced kernel basis of the dense stack of every basis element's
    constraint, by scalar Gauss–Jordan elimination written here rather than
    taken from ``linalg``; one list of field scalars per basis vector,
    ordered by free coordinate."""
    f = c.field
    n = c.dim * c.host.dim
    dense = []
    for b in range(c.dim):
        rows, cols, vals = comodule._constraint_op(c, b)
        by_row = {}
        for r, col, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            by_row.setdefault(r, [f.zero] * n)[col] = f.scalar(v)
        dense.extend(by_row.values())
    piv = {}  # pivot column → its RREF row
    for row in dense:
        for col, prow in piv.items():
            if not f.is_zero(row[col]):
                row = [f.sub(x, f.mul(row[col], y)) for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if not f.is_zero(x)), None)
        if lead is None:
            continue
        inv = f.inv(row[lead])
        row = [f.mul(inv, x) for x in row]
        for col, prow in piv.items():
            piv[col] = [f.sub(x, f.mul(prow[lead], y)) for x, y in zip(prow, row)]
        piv[lead] = row
    return [[f.one if i == j else f.neg(piv[i][j]) if i in piv else f.zero
             for i in range(n)] for j in range(n) if j not in piv]


def _reference_constraints(c):
    """{(row, column): value} of every basis element's constraint, built in
    plain Python from the dict views of the tables: row b·n + r'·dim H + s'
    and column r·dim H + s of the constraint of b carry
    Σ_{c·h_i⊗b_j in δ(b)} c·[b_r b_j]_{r'}·[h_i h_{s'}]_s − [b b_r]_{r'}·[s = s']."""
    f = c.field
    nb, nh = c.dim, c.host.dim
    n = nb * nh
    by_left, by_right, h_by_left = {}, {}, {}
    for (i, j), prod in mult_dict(c.algebra).items():
        for k, v in prod.items():
            by_left.setdefault(i, []).append((j, k, v))
            by_right.setdefault(j, []).append((i, k, v))
    for (i, j), prod in mult_dict(c.host.algebra).items():
        for k, v in prod.items():
            h_by_left.setdefault(i, []).append((j, k, v))
    out = {}

    def add(key, v):
        total = f.add(out.get(key, f.zero), v)
        if f.is_zero(total):
            out.pop(key, None)
        else:
            out[key] = total

    coaction = coaction_dict(c)
    for b in range(nb):
        for (hi, bj), cv in coaction.get(b, {}).items():
            for r, r2, cb in by_right.get(bj, []):
                for s2, s, ch in h_by_left.get(hi, []):
                    add((b * n + r2 * nh + s2, r * nh + s), f.mul(cv, f.mul(cb, ch)))
        for r, r2, cb in by_left.get(b, []):
            for s in range(nh):
                add((b * n + r2 * nh + s, r * nh + s), f.neg(cb))
    return out


def _constraint_cases():
    for field in (QQ, GF(101)):
        for name in registry_names():
            try:
                b = named_example(name, field)
            except HopffactError:  # Sweedler's algebra needs characteristic ≠ 2
                continue
            if b.comodule is not None:
                yield f"{name}-{field}", b.comodule
    yield "double:S3-GF(101)", named_example("double:S3", GF(101)).comodule


def test_constraint_ops_equal_the_plain_python_reference():
    for label, c in _constraint_cases():
        rows, cols, vals = comodule._constraint_ops(c)
        got = {(r, col): c.field.scalar(v)
               for r, col, v in zip(rows.tolist(), cols.tolist(), vals.tolist())}
        assert got == _reference_constraints(c), label


def _end_space_basis(es):
    return [[x for row in xi.rows for x in row] for xi in es.basis_maps]


REFERENCE_FIELDS = [QQ, GF(101), GF(2)]


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_end_space_equals_the_reference_kernel_on_the_registry(field):
    for name in registry_names():
        try:
            b = named_example(name, field)
        except HopffactError:  # Sweedler's algebra needs characteristic ≠ 2
            continue
        if b.comodule is None:
            continue
        assert _end_space_basis(compute_end_space(b.comodule)) == \
            _reference_end_space(b.comodule), name


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_end_space_equals_the_reference_kernel_in_one_component(field):
    # a dense change of basis of B joins every coordinate of Hom(H,B)
    # into one connected component of the generators' constraint system
    from hopffact.linalg import _components

    c = named_example("regular:S3", field).comodule
    rng = random.Random(5)
    rebased = None
    while rebased is None:
        rebased = _rebase(c, [rng.choice([-1, 1, 2]) for _ in range(c.dim ** 2)])
    n = rebased.dim * rebased.host.dim
    ops = [comodule._constraint_op(rebased, g) for g in algebra_generators(rebased.algebra)]
    rows = np.concatenate([op[0] + i * n for i, op in enumerate(ops)])
    cols = np.concatenate([op[1] for op in ops])
    assert set(_components(rows, cols, n)) == {0}
    es = compute_end_space(rebased)
    assert es.dim == compute_end_space(c).dim
    assert _end_space_basis(es) == _reference_end_space(rebased)


def test_end_space_refuses_a_coaction_that_is_not_an_algebra_map():
    # kC3 is generated by g, so δ(g²) is never imposed while the kernel is
    # built; changing it to g² ⊗ g must fail the check against every basis
    # element
    c = named_example("regular:C3").comodule
    assert algebra_generators(c.algebra) == [1]
    coaction = coaction_dict(c)
    assert coaction[2] == {(2, 2): QQ.one}
    coaction[2] = {(2, 1): QQ.one}
    bad = ComoduleAlgebra(c.host, c.algebra, coaction)
    with pytest.raises(HopffactError, match="basis element 2: the coaction is not an algebra map"):
        compute_end_space(bad)


def test_z2_membership(dc2):
    triv = trivial_module(dc2.hopf)
    reg = regular_module(dc2.hopf)
    assert z2_membership(dc2.kmatrix, triv)
    assert not z2_membership(dc2.kmatrix, reg)
    bs = named_example("subgroup:S3:C2")
    assert z2_membership(bs.kmatrix, regular_module(bs.hopf))


def test_braided_module_axioms_all_pairs(dc2):
    x = regular_module(dc2.hopf)
    t = trivial_module(dc2.hopf)
    m = regular_bmodule(dc2.comodule)
    for a in (x, t):
        for b in (x, t):
            assert check_braided_module(dc2.kmatrix, a, b, m)


def test_simple_implies_end_space_dimension():
    for name in ("reflective-trivial:C2", "subgroup:S3:C2", "subgroup:S3:C3"):
        b = named_example(name)
        if h_simplicity(b.comodule).is_simple:
            es = compute_end_space(b.comodule)
            assert es.dim == b.hopf.dim


def test_factorizable_implies_weakly_factorizable():
    for name in ("reflective-trivial:C2", "reflective-trivial:C3", "double:C2"):
        b = named_example(name)
        es = compute_end_space(b.comodule)
        if is_factorizable_comodule(b.kmatrix, es):
            assert weak_factorizability(b.kmatrix, es).bijective


def test_dim_zero_comodule_rejected():
    h, _ = group_algebra(cyclic_group(2))
    from hopffact.algebras import StructAlgebra
    from hopffact.linalg import BasedSpace

    with pytest.raises(HopffactError):
        StructAlgebra(QQ, BasedSpace(()), {}, ())


# ---------------------------------------------------------------------------
# The sparse end space against dense references written here: the
# coordinates of a vector are its entries at the free rows, certified by
# kernel @ coords == vectors, and ξ·h_i is ξ times the right multiplication
# by h_i on the H index
# ---------------------------------------------------------------------------

def _exact(f, a):
    """``a`` as exact integers over GF(p) (int64) or field scalars over Q."""
    return np.asarray(a).astype(np.int64) if f != QQ else np.asarray(a, dtype=object)


def _exact_product(f, a, b):
    # over GF(p) the inner dimension stays far below 2**63 / p**2
    out = _exact(f, a) @ _exact(f, b)
    return out if f == QQ else out % f.p


def _dense_coords(f, kernel, free, vecs):
    """Coordinates (k × m) of the columns of ``vecs`` (n × m) in the reduced
    basis ``kernel`` (n × k): the entries at the free rows, when the kernel
    rebuilds the vectors from them."""
    coords = _exact(f, vecs)[free]
    if not np.array_equal(_exact_product(f, kernel, coords), _exact(f, vecs)):
        raise ImageEscapesEndSpace("vector outside the span")
    return coords


def _kernel_and_free(es):
    """The basis maps as the columns of an n × k array, and the free row
    (last nonzero entry) of each."""
    kernel = np.array(_end_space_basis(es), dtype=object).T.reshape(-1, es.dim)
    return kernel, [int(np.flatnonzero(col != 0).max()) for col in kernel.T]


def _random_scalars(f, rng, shape):
    if f == QQ:
        draw = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(np.prod(shape))]
    else:
        draw = [rng.randrange(f.p) for _ in range(np.prod(shape))]
    return np.array(draw, dtype=object).reshape(shape)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(94906249)], ids=str)
def test_sparse_coords_equal_the_dense_reference(field):
    es = compute_end_space(named_example("sweedler:1", field).comodule)
    kernel, free = _kernel_and_free(es)
    n, k = kernel.shape
    rng = random.Random(11)
    coeffs = _random_scalars(field, rng, (k, 7))
    inside = _exact_product(field, kernel, coeffs)
    got = es.coords_many([tuple(v) for v in inside.T])
    assert got == [tuple(c) for c in _dense_coords(field, kernel, free, inside).T]
    assert got == [tuple(c) for c in coeffs.T]
    # random vectors: the two agree on membership
    for vec in _random_scalars(field, rng, (5, n)):
        try:
            _dense_coords(field, kernel, free, vec[:, None])
        except ImageEscapesEndSpace:
            with pytest.raises(ImageEscapesEndSpace):
                es.coords_many([tuple(vec)])
        else:
            es.coords_many([tuple(vec)])
    # off the span at a non-free row the basis reaches, and at a row it never reaches
    reached = np.flatnonzero((kernel != 0).any(axis=1))
    non_free = [r for r in reached if r not in free]
    unreached = np.flatnonzero(~(kernel != 0).any(axis=1))
    assert non_free and unreached.size
    for r in (non_free[0], unreached[0]):
        vec = inside[:, 0].copy()
        vec[r] = field.add(field.scalar(vec[r]), field.one)
        with pytest.raises(ImageEscapesEndSpace):
            _dense_coords(field, kernel, free, vec[:, None])
        with pytest.raises(ImageEscapesEndSpace):
            es.coords_many([tuple(vec)])


def _dense_h_action(c, es):
    """ξ_j·h_i, ξ ↦ ξ·R(h_i) on the H index, as one dense product of the
    basis maps by the right multiplications side by side, read off in the
    end-space basis: one k × k matrix per h_i, as rows."""
    f, nb, nh = c.field, c.dim, c.host.dim
    kernel, free = _kernel_and_free(es)
    k = es.dim
    rights = np.zeros((nh, nh * nh), dtype=object)  # [h_s h_i]_t at (t, i·nh + s)
    for (s, i), prod in mult_dict(c.host.algebra).items():
        for t, ct in prod.items():
            rights[t, i * nh + s] = ct
    by_row = kernel.reshape(nb, nh, k).transpose(0, 2, 1).reshape(nb * k, nh)
    moved = _exact_product(f, by_row, rights)
    moved = moved.reshape(nb, k, nh, nh).transpose(0, 3, 2, 1).reshape(nb * nh, nh * k)
    coords = _dense_coords(f, kernel, free, moved)
    return [coords[:, i * k:(i + 1) * k].tolist() for i in range(nh)]


def _h_action_cases():
    for field in REFERENCE_FIELDS:
        for name in registry_names():
            try:
                b = named_example(name, field)
            except HopffactError:  # Sweedler's algebra needs characteristic ≠ 2
                continue
            if b.comodule is not None:
                yield f"{name}-{field}", b.comodule
    yield "double:S3-GF(101)", named_example("double:S3", GF(101)).comodule
    for field in (QQ, GF(101)):  # the dense rebasing of the one-component test
        c = named_example("regular:S3", field).comodule
        rng = random.Random(5)
        rebased = None
        while rebased is None:
            rebased = _rebase(c, [rng.choice([-1, 1, 2]) for _ in range(c.dim ** 2)])
        yield f"rebased regular:S3-{field}", rebased


def test_h_action_equals_the_dense_formula():
    for label, c in _h_action_cases():
        es = compute_end_space(c)
        assert [list(map(list, a.rows)) for a in es.h_action] == _dense_h_action(c, es), label


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_invariants_of_the_generators_are_those_of_every_basis_element(field):
    bundles = []
    for name in registry_names():
        try:
            bundles.append(named_example(name, field))
        except HopffactError:
            continue
    if field == GF(101):
        bundles.append(named_example("double:S3", field))
    seen_no_generators = False
    for b in bundles:
        if b.comodule is None:
            continue
        h = b.hopf
        gens = algebra_generators(h.algebra)
        seen_no_generators |= not gens
        es = compute_end_space(b.comodule)
        stacks = [h.adjoint_module().stack.transpose(0, 2, 1), es.module.stack]
        for stack in stacks if es.dim else stacks[:1]:
            from_gens = comodule._invariants(field, stack, h.coalgebra.counit, gens)
            from_all = comodule._invariants(field, stack, h.coalgebra.counit, list(range(h.dim)))
            assert np.array_equal(from_gens, from_all)
    assert seen_no_generators  # subgroup:C1:C1, where H is the field


def test_invariants_recheck_every_basis_element():
    # imposing too few elements leaves vectors that some basis element moves:
    # the check against every basis element refuses them
    h = named_example("sweedler:1").hopf
    adj = h.adjoint_module().stack.transpose(0, 2, 1)
    with pytest.raises(HopffactError, match="not invariant"):
        comodule._invariants(QQ, adj, h.coalgebra.counit, [])


def test_algebra_generators_spin_once_per_algebra(monkeypatch):
    # H and B differ in dimension, so the spans tell the two algebras apart
    import collections

    import hopffact.algebras as algebras
    from hopffact import bundle

    spins = collections.Counter()  # each spin starts one Span of its algebra

    def counted(f, n):
        spins[n] += 1
        return Span(f, n)

    monkeypatch.setattr(algebras, "Span", counted)
    b = bundle.loads(bundle.dumps(named_example("subgroup:S3:C2")))
    k = KMatrix(b.comodule, RMatrix(b.hopf, b.rmatrix_element), b.kmatrix_element)
    es = compute_end_space(b.comodule)
    weak_factorizability(k, es)
    algebra_generators(b.hopf.algebra)
    algebra_generators(b.comodule.algebra)
    assert spins == {b.hopf.dim: 1, b.comodule.dim: 1}


@pytest.mark.parametrize("name, field, basis", [("regular:S3", QQ, 4), ("double:S3", GF(101), 3)],
                         ids=["regular:S3", "double:S3-GF101"])
def test_end_space_refuses_a_coaction_bumped_off_the_generators(name, field, basis):
    # δ(b) gains one term at a basis element that is not a generator, so
    # the generators' kernel is built without it; the check against every
    # basis element names it
    c = named_example(name, field).comodule
    assert basis not in algebra_generators(c.algebra)
    coaction = coaction_dict(c)
    coaction[basis][(basis + 1, basis)] = field.one
    with pytest.raises(HopffactError, match=f"^the generators' kernel fails the constraint of "
                       f"basis element {basis}: the coaction is not an algebra map$"):
        compute_end_space(ComoduleAlgebra(c.host, c.algebra, coaction))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_sparse_kernel_matches_the_per_component_path(field):
    # the generators' constraint systems of the registry and of the
    # dimension-36 double: components of widths 2, 3, 4 and 6, eliminated
    # one stack per width, against one elimination per component
    for name in list(registry_names()) + ["double:S3"]:
        c = named_example(name, field).comodule
        if c is None:
            continue
        n = c.dim * c.host.dim
        ops = comodule._constraint_ops(c)
        system = [a[np.isin(ops[0] // n, algebra_generators(c.algebra))] for a in ops]
        assert np.array_equal(linalg._sparse_kernel(field, *system, n),
                              reference.sparse_kernel_by_component(field, *system, n)), name


def _permuted_algebra(a, perm):
    """``a`` with basis element i renamed perm[i]."""
    mult = {(perm[i], perm[j]): {perm[k]: x for k, x in out.items()}
            for (i, j), out in mult_dict(a).items()}
    unit = [None] * a.dim
    for i, x in enumerate(a.unit):
        unit[perm[i]] = x
    return StructAlgebra(a.field, a.space, mult, unit)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_algebra_generators_match_the_former_greedy(seed):
    # membership read off the span's RREF picks the generators that the
    # per-element Span.contains test picked, on every registry algebra and
    # on the dimension-36 double, in seeded basis orders
    rng = random.Random(seed)
    bundles = [named_example(name) for name in registry_names()]
    bundles.append(named_example("double:S3", GF(101)))
    for b in bundles:
        for alg in (b.hopf.algebra,) + ((b.comodule.algebra,) if b.comodule else ()):
            perm = list(range(alg.dim))
            rng.shuffle(perm)
            permuted = _permuted_algebra(alg, perm)
            assert algebra_generators(permuted) == reference.greedy_generators(permuted)
