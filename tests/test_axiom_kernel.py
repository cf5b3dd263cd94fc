"""The batched axiom checks against entrywise references.

The ``_reference_*`` functions are the earlier implementations, which loop
over basis indices and multiply sparse dicts one product at a time; the
batched checks must return the same verdict, axiom name, witness and
message on every input.  Perturbing one structure constant, one coaction
coefficient or one coefficient of R or K reaches the failure branches.
"""

import functools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopffact.algebras import (
    StructAlgebra,
    StructCoalgebra,
    algebra_generators,
    check_algebra,
    check_coalgebra,
)
from hopffact.bundle import dumps, loads
from hopffact.cli import main
from hopffact.comodule import (
    ComoduleAlgebra,
    KMatrix,
    check_comodule_algebra,
    check_k_matrix,
    compute_end_space,
    regular_bmodule,
)
from hopffact.constructions import dual_group_algebra, group_algebra, named_example, registry_names
from hopffact.errors import HopffactError, NotInvertible
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group, symmetric_group
from hopffact.hopf import (
    HModule,
    HopfAlgebra,
    _check_representation,
    check_bialgebra,
    check_hopf,
    check_representation,
    regular_module,
    trivial_module,
)
from hopffact import hopf, linalg
from hopffact.linalg import BasedSpace, MapMatrix
from hopffact.rmatrix import RMatrix, _check_axioms
from hopffact.tensors import (TensorElement, _element, _embed, _linear_op, _products,
                              leg_embed, tensor_mult, tensor_unit)
from hopffact.verdicts import Verdict
from reference_tables import coaction_dict, comult_dict, counit_of, mult_dict, multiply


# ---------------------------------------------------------------------------
# Entrywise references
# ---------------------------------------------------------------------------

def _dicts_equal(field, a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    z = field.zero
    return all(a.get(k, z) == b.get(k, z) for k in keys)


def _comult_of(f, comult: dict, x: dict) -> dict:
    out = {}
    for i, ci in x.items():
        for jk, cv in comult.get(i, {}).items():
            val = f.add(out.get(jk, f.zero), f.mul(ci, cv))
            if f.is_zero(val):
                out.pop(jk, None)
            else:
                out[jk] = val
    return out


def _coaction_of(f, coaction: dict, x: dict) -> dict:
    out = {}
    for b, cb in x.items():
        for hb, cv in coaction.get(b, {}).items():
            val = f.add(out.get(hb, f.zero), f.mul(cb, cv))
            if f.is_zero(val):
                out.pop(hb, None)
            else:
                out[hb] = val
    return out


def _reference_tensor_mult(a, b, algebras):
    f = a.field
    mults = [mult_dict(alg) for alg in algebras]
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            partial = [((), f.mul(ca, cb))]
            for slot in range(a.arity):
                prod = mults[slot].get((ia[slot], ib[slot]), {})
                if not prod:
                    partial = []
                    break
                partial = [
                    (idx + (k,), f.mul(c, ck))
                    for idx, c in partial
                    for k, ck in prod.items()
                ]
            for idx, c in partial:
                out[idx] = f.add(out.get(idx, f.zero), c)
    return TensorElement(f, a.factors, out)


def _coapply_leg(t, leg, comult):
    f = t.field
    sp = t.factors[leg]
    factors = t.factors[:leg] + (sp, sp) + t.factors[leg + 1:]
    out = {}
    for idx, c in t.items():
        for (j, k), dc in comult.get(idx[leg], {}).items():
            key = idx[:leg] + (j, k) + idx[leg + 1:]
            out[key] = f.add(out.get(key, f.zero), f.mul(c, dc))
    return TensorElement(f, factors, out)


def _coapply_coaction(t, c):
    f = t.field
    factors = (t.factors[0], c.host.space, c.algebra.space)
    coaction = coaction_dict(c)
    out = {}
    for (i, b), cv in t.items():
        for (hh, bb), dc in coaction.get(b, {}).items():
            key = (i, hh, bb)
            out[key] = f.add(out.get(key, f.zero), f.mul(cv, dc))
    return TensorElement(f, factors, out)


def _reference_check_algebra(a):
    f = a.field
    n = a.dim
    u = a.unit_dict()
    mult = mult_dict(a)
    for i in range(n):
        ei = {i: f.one}
        left = multiply(f, mult, u, ei)
        right = multiply(f, mult, ei, u)
        if not _dicts_equal(f, left, ei):
            return Verdict.failed("unitality", (i,), "1·e_i ≠ e_i")
        if not _dicts_equal(f, right, ei):
            return Verdict.failed("unitality", (i,), "e_i·1 ≠ e_i")
    for i in range(n):
        for j in range(n):
            ij = mult.get((i, j), {})
            for k in range(n):
                lhs = multiply(f, mult, ij, {k: f.one})
                rhs = multiply(f, mult, {i: f.one}, mult.get((j, k), {}))
                if not _dicts_equal(f, lhs, rhs):
                    return Verdict.failed("associativity", (i, j, k))
    return Verdict.passed()


def _reference_check_coalgebra(c):
    f = c.field
    n = c.dim
    comult = comult_dict(c)
    for i in range(n):
        delta = comult.get(i, {})
        left = {}
        right = {}
        for (j, k), coeff in delta.items():
            if not f.is_zero(c.counit[j]):
                left[k] = f.add(left.get(k, f.zero), f.mul(c.counit[j], coeff))
            if not f.is_zero(c.counit[k]):
                right[j] = f.add(right.get(j, f.zero), f.mul(c.counit[k], coeff))
        ei = {i: f.one}
        left = {k: v for k, v in left.items() if not f.is_zero(v)}
        right = {k: v for k, v in right.items() if not f.is_zero(v)}
        if not _dicts_equal(f, left, ei):
            return Verdict.failed("counitality", (i,), "(ε⊗id)Δ ≠ id")
        if not _dicts_equal(f, right, ei):
            return Verdict.failed("counitality", (i,), "(id⊗ε)Δ ≠ id")
    for i in range(n):
        lhs = {}
        rhs = {}
        for (j, k), coeff in comult.get(i, {}).items():
            for (u, v), c2 in comult.get(j, {}).items():
                key = (u, v, k)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(coeff, c2))
            for (u, v), c2 in comult.get(k, {}).items():
                key = (j, u, v)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(coeff, c2))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
        if not _dicts_equal(f, lhs, rhs):
            return Verdict.failed("coassociativity", (i,))
    return Verdict.passed()


def _reference_check_bialgebra(algebra, coalgebra):
    f = algebra.field
    n = algebra.dim
    u = algebra.unit_dict()
    mult, comult = mult_dict(algebra), comult_dict(coalgebra)
    du = _comult_of(f, comult, u)
    u2 = {}
    for a, ca in u.items():
        for b, cb in u.items():
            u2[(a, b)] = f.mul(ca, cb)
    if not _dicts_equal(f, du, u2):
        return Verdict.failed("bialgebra", None, "Δ(1) ≠ 1⊗1")
    if counit_of(coalgebra, u) != f.one:
        return Verdict.failed("bialgebra", None, "ε(1) ≠ 1")
    for i in range(n):
        for j in range(n):
            prod = mult.get((i, j), {})
            lhs = _comult_of(f, comult, prod)
            rhs = {}
            for (a, b), c1 in comult.get(i, {}).items():
                for (a2, b2), c2 in comult.get(j, {}).items():
                    c12 = f.mul(c1, c2)
                    for x, cx in mult.get((a, a2), {}).items():
                        for y, cy in mult.get((b, b2), {}).items():
                            key = (x, y)
                            rhs[key] = f.add(
                                rhs.get(key, f.zero), f.mul(c12, f.mul(cx, cy))
                            )
            rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
            if not _dicts_equal(f, lhs, rhs):
                return Verdict.failed("bialgebra", (i, j), "Δ not multiplicative")
            e_lhs = counit_of(coalgebra, prod)
            e_rhs = f.mul(coalgebra.counit[i], coalgebra.counit[j])
            if e_lhs != e_rhs:
                return Verdict.failed("bialgebra", (i, j), "ε not multiplicative")
    return Verdict.passed()


def _reference_check_comodule_algebra(c):
    f = c.field
    h = c.host
    nb = c.dim
    v = _reference_check_algebra(c.algebra)
    if not v:
        return v
    unit_b = c.algebra.unit_dict()
    mult_h, mult_b = mult_dict(h.algebra), mult_dict(c.algebra)
    comult, coaction = comult_dict(h.coalgebra), coaction_dict(c)
    target = {}
    for i, ci in h.unit_dict().items():
        for b, cb in unit_b.items():
            target[(i, b)] = f.mul(ci, cb)
    if not _dicts_equal(f, _coaction_of(f, coaction, unit_b), target):
        return Verdict.failed("coaction-algebra-map", None, "δ(1) ≠ 1⊗1")
    for i in range(nb):
        di = coaction.get(i, {})
        for j in range(nb):
            lhs = _coaction_of(f, coaction, mult_b.get((i, j), {}))
            rhs = {}
            for (a1, b1), c1 in di.items():
                for (a2, b2), c2 in coaction.get(j, {}).items():
                    c12 = f.mul(c1, c2)
                    for x, cx in mult_h.get((a1, a2), {}).items():
                        for y, cy in mult_b.get((b1, b2), {}).items():
                            key = (x, y)
                            rhs[key] = f.add(
                                rhs.get(key, f.zero), f.mul(c12, f.mul(cx, cy))
                            )
            rhs = {k: v2 for k, v2 in rhs.items() if not f.is_zero(v2)}
            if not _dicts_equal(f, lhs, rhs):
                return Verdict.failed("coaction-algebra-map", (i, j))
    for b in range(nb):
        lhs = {}
        rhs = {}
        eps = {}
        for (hh, bb), cv in coaction.get(b, {}).items():
            for (a1, a2), dc in comult.get(hh, {}).items():
                key = (a1, a2, bb)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(cv, dc))
            for (h2, b2), dc in coaction.get(bb, {}).items():
                key = (hh, h2, b2)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(cv, dc))
            e = h.coalgebra.counit[hh]
            if not f.is_zero(e):
                eps[bb] = f.add(eps.get(bb, f.zero), f.mul(e, cv))
        lhs = {k: v2 for k, v2 in lhs.items() if not f.is_zero(v2)}
        rhs = {k: v2 for k, v2 in rhs.items() if not f.is_zero(v2)}
        if not _dicts_equal(f, lhs, rhs):
            return Verdict.failed("coaction-coassociativity", (b,))
        eps = {k: v2 for k, v2 in eps.items() if not f.is_zero(v2)}
        if not _dicts_equal(f, eps, {b: f.one}):
            return Verdict.failed("coaction-counit", (b,))
    return Verdict.passed()


def _reference_check_r_axioms(host, element):
    alg = host.algebra
    algs2 = [alg, alg]
    algs3 = [alg, alg, alg]
    spaces3 = (host.space,) * 3
    comult = comult_dict(host.coalgebra)
    mult = _reference_tensor_mult
    r13 = leg_embed(element, (0, 2), spaces3, algs3)
    r23 = leg_embed(element, (1, 2), spaces3, algs3)
    r12 = leg_embed(element, (0, 1), spaces3, algs3)
    lhs_i = _coapply_leg(element, 0, comult)
    if lhs_i != mult(r13, r23, algs3):
        return Verdict.failed("quasitriangular-i", None, "(Δ⊗id)R ≠ R13 R23")
    lhs_ii = _coapply_leg(element, 1, comult)
    if lhs_ii != mult(r13, r12, algs3):
        return Verdict.failed("quasitriangular-ii", None, "(id⊗Δ)R ≠ R13 R12")
    f = host.field
    for i in range(host.dim):
        delta = TensorElement(f, (host.space, host.space), comult.get(i, {}))
        delta_op = delta.swap()
        if mult(element, delta, algs2) != mult(delta_op, element, algs2):
            return Verdict.failed("quasitriangular-iii", (i,), "RΔ(h) ≠ Δop(h)R")
    return Verdict.passed()


def _reference_check_k_matrix(k):
    c = k.comodule
    h = k.host
    f = h.field
    halg = h.algebra
    balg = c.algebra
    algs2 = [halg, balg]
    algs3 = [halg, halg, balg]
    spaces3 = (h.space, h.space, balg.space)
    mult = _reference_tensor_mult
    r = k.rmatrix
    r21 = leg_embed(r.element.swap(), (0, 1), spaces3, algs3)
    r21_inv = leg_embed(r.inverse.swap(), (0, 1), spaces3, algs3)
    r12 = leg_embed(r.element, (0, 1), spaces3, algs3)
    k13 = leg_embed(k.element, (0, 2), spaces3, algs3)
    k23 = leg_embed(k.element, (1, 2), spaces3, algs3)
    lhs_i = _coapply_leg(k.element, 0, comult_dict(h.coalgebra))
    rhs_i = mult(mult(mult(k23, r21, algs3), k13, algs3), r21_inv, algs3)
    if lhs_i != rhs_i:
        return Verdict.failed("kmatrix-i", None, "(Δ⊗id)K ≠ K23 R21 K13 R21⁻¹")
    lhs_ii = _coapply_coaction(k.element, c)
    rhs_ii = mult(mult(r21, k13, algs3), r12, algs3)
    if lhs_ii != rhs_ii:
        return Verdict.failed("kmatrix-ii", None, "(id⊗δ)K ≠ R21 K13 R12")
    coaction = coaction_dict(c)
    for b in range(c.dim):
        db = TensorElement(f, (h.space, balg.space), coaction.get(b, {}))
        if mult(k.element, db, algs2) != mult(db, k.element, algs2):
            return Verdict.failed("kmatrix-iii", (b,), "Kδ(b) ≠ δ(b)K")
    return Verdict.passed()


# ---------------------------------------------------------------------------
# Single-coefficient perturbations
# ---------------------------------------------------------------------------

INSTANCES = ("sweedler:1", "double:C2", "subgroup:S3:C2")
P_TOP = 94906249  # the largest prime GF accepts
FIELDS = (QQ, GF(101), GF(P_TOP))
KINDS = ("hmult", "hcomult", "hunit", "hcounit", "r", "bmult", "coaction", "k",
         "hmult-fill", "hmult-clear", "bmult-fill", "bmult-clear")


def _bumped(table, outer, inner, value, f):
    out = {k: dict(v) for k, v in table.items()}
    entry = out.setdefault(outer, {})
    entry[inner] = f.add(entry.get(inner, f.zero), value)
    return out


def _toggled(alg, idx, fill, value):
    """The first (i, j, k) from ``idx`` on, row-major and cyclic, at which
    the constant of e_k in e_i·e_j is zero (``fill``) or not, and the move
    that makes it ``value`` or zero."""
    f, n, mult = alg.field, alg.dim, mult_dict(alg)
    start = np.ravel_multi_index(tuple(x % n for x in idx), (n, n, n))
    for pos in range(start, start + n ** 3):
        ijk = tuple(int(x) for x in np.unravel_index(pos % n ** 3, (n, n, n)))
        c = mult.get(ijk[:2], {}).get(ijk[2], f.zero)
        if f.is_zero(c) == fill:
            return ijk, value if fill else f.neg(c)


def _perturbed(ex, kind, idx, value):
    """(host, R element, comodule algebra, K element) with one coefficient
    of the chosen structure moved by ``value``; ``idx`` picks the entry.
    The kinds ``*mult-fill`` and ``*mult-clear`` make a zero structure
    constant ``value`` and a nonzero one zero, the first such from ``idx``."""
    f, h, c = ex.field, ex.hopf, ex.comodule
    if kind.endswith(("-fill", "-clear")):
        kind, toggle = kind.split("-")
        idx, value = _toggled((h.algebra if kind == "hmult" else c.algebra), idx,
                              toggle == "fill", value)
    r_elt, k_elt = ex.rmatrix.element, ex.kmatrix.element
    n, nb = h.dim, c.dim
    i, j, k = (x % n for x in idx)
    bi, bj, bk = (x % nb for x in idx)
    if kind in ("hmult", "hunit", "hcomult", "hcounit"):
        alg, coalg = h.algebra, h.coalgebra
        if kind == "hmult":
            alg = StructAlgebra(f, h.space, _bumped(mult_dict(alg), (i, j), k, value, f),
                                alg.unit)
        elif kind == "hunit":
            unit = list(alg.unit)
            unit[i] = f.add(unit[i], value)
            alg = StructAlgebra(f, h.space, alg.mult_op(), unit)
        elif kind == "hcomult":
            coalg = StructCoalgebra(f, h.space, _bumped(comult_dict(coalg), i, (j, k), value, f),
                                    coalg.counit)
        else:
            counit = list(coalg.counit)
            counit[i] = f.add(counit[i], value)
            coalg = StructCoalgebra(f, h.space, coalg.comult_op(), counit)
        h = HopfAlgebra(alg, coalg, h.antipode, h.antipode_inv)
        c = ComoduleAlgebra(h, c.algebra, c.coaction_op())
    elif kind == "r":
        terms = _bumped({0: dict(r_elt.items())}, 0, (i, j), value, f)[0]
        r_elt = TensorElement(f, r_elt.factors, terms)
    elif kind == "k":
        terms = _bumped({0: dict(k_elt.items())}, 0, (i, bj), value, f)[0]
        k_elt = TensorElement(f, k_elt.factors, terms)
    elif kind == "bmult":
        balg = StructAlgebra(f, c.algebra.space,
                             _bumped(mult_dict(c.algebra), (bi, bj), bk, value, f), c.algebra.unit)
        c = ComoduleAlgebra(h, balg, c.coaction_op())
    else:
        c = ComoduleAlgebra(h, c.algebra, _bumped(coaction_dict(c), bi, (j, bk), value, f))
    return h, r_elt, c, k_elt


def _outcome(check, *args):
    try:
        v = check(*args)
    except HopffactError as exc:
        return type(exc).__name__, str(exc)
    return v.ok, v.axiom, v.witness, v.detail


def _pairs(h, r_elt, c, k_elt):
    """(name, batched outcome, reference outcome) for every rewritten check."""
    yield ("algebra", _outcome(check_algebra, h.algebra),
           _outcome(_reference_check_algebra, h.algebra))
    yield ("coalgebra", _outcome(check_coalgebra, h.coalgebra),
           _outcome(_reference_check_coalgebra, h.coalgebra))
    yield ("bialgebra", _outcome(check_bialgebra, h.algebra, h.coalgebra),
           _outcome(_reference_check_bialgebra, h.algebra, h.coalgebra))
    yield ("r", _outcome(_check_axioms, h, r_elt), _outcome(_reference_check_r_axioms, h, r_elt))
    yield ("comodule", _outcome(check_comodule_algebra, c),
           _outcome(_reference_check_comodule_algebra, c))
    try:
        km = KMatrix(c, RMatrix(h, r_elt), k_elt)
    except NotInvertible:
        return
    yield "k", _outcome(check_k_matrix, km), _outcome(_reference_check_k_matrix, km)


@st.composite
def perturbations(draw):
    ex = named_example(draw(st.sampled_from(INSTANCES)), draw(st.sampled_from(FIELDS)))
    kind = draw(st.sampled_from(KINDS))
    idx = tuple(draw(st.integers(0, 35)) for _ in range(3))
    num = draw(st.integers(-3, 3).filter(bool))
    value = ex.field.scalar(Fraction(num, draw(st.sampled_from((1, 2, 3)))))
    return (ex.name, ex.field, kind, idx), _perturbed(ex, kind, idx, value)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbations())
def test_batched_checks_match_references(case):
    _, structures = case
    for name, batched, reference in _pairs(*structures):
        assert batched == reference, name


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", INSTANCES)
def test_registry_instances_pass_both(name, field):
    ex = named_example(name, field)
    structures = (ex.hopf, ex.rmatrix.element, ex.comodule, ex.kmatrix.element)
    for check, batched, reference in _pairs(*structures):
        assert batched == reference == (True, None, None, None), check


def test_tensor_mult_matches_reference():
    ex = named_example("double:C2", QQ)
    r, algs = ex.rmatrix, [ex.hopf.algebra] * 2
    for a, b in ((r.element.swap(), r.element), (r.element, r.inverse), (r.inverse, r.element)):
        assert tensor_mult(a, b, algs) == _reference_tensor_mult(a, b, algs)


# ---------------------------------------------------------------------------
# Pinned witnesses
# ---------------------------------------------------------------------------

PINS = [
    ("hmult", (1, 1, 0), "algebra", (False, "associativity", (1, 1, 2), None)),
    ("hmult", (0, 1, 0), "bialgebra", (False, "bialgebra", (0, 1), "Δ not multiplicative")),
    ("hcounit", (1, 0, 0), "bialgebra", (False, "bialgebra", (1, 1), "ε not multiplicative")),
    ("hmult", (0, 1, 0), "comodule", (False, "coaction-algebra-map", (0, 1), None)),
    ("hcomult", (2, 0, 0), "comodule", (False, "coaction-coassociativity", (2,), None)),
    ("hcounit", (2, 0, 0), "comodule", (False, "coaction-counit", (2,), None)),
    ("bmult", (0, 2, 0), "k", (False, "kmatrix-iii", (2,), "Kδ(b) ≠ δ(b)K")),
]


@pytest.mark.parametrize("kind, idx, check, expected", PINS)
def test_pinned_witness_on_sweedler(kind, idx, check, expected):
    structures = _perturbed(named_example("sweedler:1", QQ), kind, idx, QQ.one)
    outcomes = {name: (batched, reference) for name, batched, reference in _pairs(*structures)}
    assert outcomes[check] == (expected, expected)


def test_delta_named_before_epsilon_at_the_same_pair():
    # e_0·e_1 gains e_0: both Δ(e_0 e_1) and ε(e_0 e_1) move at (0, 1)
    h = _perturbed(named_example("sweedler:1", QQ), "hmult", (0, 1, 0), QQ.one)[0]
    co, prod = h.coalgebra, mult_dict(h.algebra)[(0, 1)]
    assert counit_of(co, prod) != QQ.mul(co.counit[0], co.counit[1])
    assert check_bialgebra(h.algebra, h.coalgebra).detail == "Δ not multiplicative"


def test_coassociativity_named_before_counit_at_the_same_b():
    # kC2 coacting on itself by δ(g) = g⊗1 is an algebra map, but at b = g
    # both (Δ⊗id)δ = (id⊗δ)δ and (ε⊗id)δ = id fail
    h, _ = group_algebra(cyclic_group(2))
    c = ComoduleAlgebra(h, h.algebra, {0: {(0, 0): QQ.one}, 1: {(1, 0): QQ.one}})
    expected = (False, "coaction-coassociativity", (1,), None)
    assert _outcome(check_comodule_algebra, c) == expected
    assert _outcome(_reference_check_comodule_algebra, c) == expected


def test_pinned_quasitriangular_iii():
    structures = _perturbed(named_example("subgroup:S3:C2", QQ), "hmult", (0, 2, 0), QQ.one)
    expected = (False, "quasitriangular-iii", (2,), "RΔ(h) ≠ Δop(h)R")
    assert _outcome(_check_axioms, *structures[:2]) == expected
    assert _outcome(_reference_check_r_axioms, *structures[:2]) == expected
    # 1⊗1 on the non-cocommutative dual of kS3 passes (i) and (ii) only
    hd = dual_group_algebra(symmetric_group(3))
    unit = tensor_unit(QQ, (hd.space, hd.space), [hd.algebra] * 2)
    assert _outcome(_check_axioms, hd, unit) == _outcome(_reference_check_r_axioms, hd, unit)
    assert _check_axioms(hd, unit).axiom == "quasitriangular-iii"


# A zero structure constant made nonzero, or a nonzero one zeroed: the
# products the all-pairs join leaves out are exactly the zero ones, so a
# toggled constant moves which pairs it expands.  The failing checks of each
# row, with their axiom and first witness, are pinned; every other check
# passes, and every outcome equals the reference's.
TOGGLES = [
    ("double:S3", GF(101), "hmult-fill", (28, 17, 14),
     {"algebra": ("associativity", (9, 28, 17)), "bialgebra": ("bialgebra", (4, 11)),
      "r": ("quasitriangular-i", None), "comodule": ("coaction-algebra-map", (4, 11)),
      "k": ("kmatrix-i", None)}),
    ("double:S3", GF(101), "hmult-clear", (1, 1, 0),
     {"algebra": ("associativity", (1, 1, 2)), "bialgebra": ("bialgebra", (1, 1)),
      "r": ("quasitriangular-i", None), "comodule": ("coaction-algebra-map", (1, 1))}),
    ("double:S3", GF(101), "bmult-fill", (1, 1, 0),
     {"comodule": ("associativity", (1, 1, 2)), "k": ("kmatrix-i", None)}),
    ("double:S3", GF(P_TOP), "hmult-fill", (8, 33, 35),
     {"algebra": ("associativity", (6, 8, 33)), "bialgebra": ("bialgebra", (2, 3)),
      "r": ("quasitriangular-i", None), "comodule": ("coaction-algebra-map", (2, 3)),
      "k": ("kmatrix-i", None)}),
    ("double:S3", GF(P_TOP), "hmult-clear", (8, 33, 35),
     {"algebra": ("associativity", (7, 8, 34)), "bialgebra": ("bialgebra", (2, 4)),
      "r": ("quasitriangular-i", None), "comodule": ("coaction-algebra-map", (2, 4))}),
    ("double:S3", GF(P_TOP), "bmult-clear", (1, 1, 0),
     {"comodule": ("associativity", (1, 1, 2))}),
    ("double:C2", QQ, "hmult-fill", (7, 1, 19),
     {"algebra": ("associativity", (3, 0, 1)), "bialgebra": ("bialgebra", (1, 1)),
      "r": ("quasitriangular-i", None), "comodule": ("coaction-algebra-map", (1, 3)),
      "k": ("kmatrix-i", None)}),
    ("double:C2", QQ, "hmult-clear", (7, 1, 19),
     {"algebra": ("unitality", (3,)), "bialgebra": ("bialgebra", (1, 0)),
      "r": ("quasitriangular-i", None), "comodule": ("coaction-algebra-map", (1, 0))}),
    ("double:C2", QQ, "bmult-fill", (1, 3, 0), {"comodule": ("associativity", (1, 0, 3))}),
    # R = 1⊗1 and K = 1⊗1 here, so a toggle reaches the (iii) axioms
    ("subgroup:S3:C2", QQ, "hmult-fill", (0, 1, 0),
     {"algebra": ("unitality", (1,)), "bialgebra": ("bialgebra", (0, 1)),
      "r": ("quasitriangular-iii", (1,)), "comodule": ("coaction-algebra-map", (0, 1)),
      "k": ("kmatrix-iii", (1,))}),
    ("subgroup:S3:C2", QQ, "bmult-clear", (1, 2, 0),
     {"comodule": ("unitality", (1,)), "k": ("kmatrix-iii", (1,))}),
    ("sweedler:1", GF(101), "bmult-clear", (2, 2, 0),
     {"comodule": ("unitality", (3,)), "k": ("kmatrix-iii", (3,))}),
]


@pytest.mark.parametrize("name, field, kind, idx, failures",
                         [pytest.param(*row, id="-".join(map(str, row[:3]))) for row in TOGGLES])
def test_toggled_constant_witnesses_match_references(name, field, kind, idx, failures):
    structures = _perturbed(named_example(name, field), kind, idx, field.one)
    pairs = list(_pairs(*structures))
    for check, batched, reference in pairs:
        assert batched == reference, check
    assert {check: b[1:3] for check, b, _ in pairs if b[0] is not True} == failures


def test_associativity_witnesses_do_not_depend_on_the_slab(monkeypatch):
    # one i per slab of associativity's triples, so D(S3) sweeps 36 slabs
    monkeypatch.setattr(linalg, "_SLICE_CELLS", 1)
    pinned = set()
    for name, field, kind, idx, failures in TOGGLES:
        h, _, c, _ = _perturbed(named_example(name, field), kind, idx, field.one)
        for check, got in (("algebra", _outcome(check_algebra, h.algebra)),
                           ("comodule", _outcome(check_comodule_algebra, c))):
            if failures.get(check, ("",))[0] == "associativity":
                assert got[1:3] == failures[check], (name, kind, check)
                pinned.add(got[2])
    assert pinned == {(9, 28, 17), (6, 8, 33), (7, 8, 34), (3, 0, 1), (1, 1, 2), (1, 0, 3)}
    # e_3·e_1 gains e_2 in D(C2): the first failing triple has i = n - 1,
    # so only the last slab finds it
    h = _perturbed(named_example("double:C2", QQ), "hmult", (3, 1, 2), QQ.one)[0]
    v = check_algebra(h.algebra)
    assert (v.axiom, v.witness) == ("associativity", (3, 0, 1))
    assert _outcome(check_algebra, h.algebra) == _outcome(_reference_check_algebra, h.algebra)


@pytest.mark.parametrize("kind", ("hmult-fill", "hmult-clear"))
@pytest.mark.parametrize("name, field", [("double:S3", GF(101)), ("double:S3", GF(P_TOP)),
                                         ("double:C2", QQ)], ids=str)
def test_iii_sweeps_on_toggled_tables_match_reference(name, field, kind):
    # on these instances R and K have every basis index in their legs, so a
    # toggled constant fails axiom (i) first; the (iii) sweeps' products,
    # every RΔ(h), Δop(h)R, Kδ(b) and δ(b)K, are compared here directly
    h, r_elt, c, k_elt = _perturbed(named_example(name, field), kind, (5, 7, 11), field.one)
    n, nb = h.dim, c.dim
    hh, hb = (h.space, h.space), (h.space, c.algebra.space)
    comult, coaction = comult_dict(h.coalgebra), coaction_dict(c)
    deltas = [TensorElement(field, hh, comult.get(i, {})) for i in range(n)]
    _assert_all_pairs(field, [r_elt], deltas, [h.algebra] * 2)
    _assert_all_pairs(field, [t.swap() for t in deltas], [r_elt], [h.algebra] * 2)
    coactions = [TensorElement(field, hb, coaction.get(b, {})) for b in range(nb)]
    _assert_all_pairs(field, [k_elt], coactions, [h.algebra, c.algebra])
    _assert_all_pairs(field, coactions, [k_elt], [h.algebra, c.algebra])


# ---------------------------------------------------------------------------
# The inverse of the antipode, and the H-action re-check from generators
# ---------------------------------------------------------------------------

def _singular_antipode_doc():
    doc = json.loads(dumps(named_example("double:C2", QQ)))
    doc["hopf"]["antipode"] = doc["hopf"]["antipode"][:1]
    return json.dumps(doc)


def test_loading_leaves_the_antipode_inverse_for_first_use():
    b = loads(dumps(named_example("double:C2", QQ)))
    assert b.hopf._antipode_inv is None
    assert check_hopf(b.hopf)
    assert (b.hopf.antipode @ b.hopf._antipode_inv).is_identity()
    singular = loads(_singular_antipode_doc())
    with pytest.raises(NotInvertible):
        singular.hopf.antipode_inv


def test_cli_check_singular_antipode(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(_singular_antipode_doc())
    assert main(["check", str(path), "--all"]) == 1
    assert capsys.readouterr().out == (
        "check.hopf                   fail(antipode-left, witness=(0,)) m(S⊗id)Δ ≠ uε\n"
        "check.rmatrix                pass\n"
        "check.comodule               pass\n"
        "check.kmatrix                pass\n"
        "result                       FAIL\n"
    )


def _bumped_module(h, which, row, col, value):
    reg = regular_module(h)
    action = list(reg.action)
    rows = [list(r) for r in action[which].rows]
    rows[row][col] = h.field.add(rows[row][col], value)
    action[which] = MapMatrix(h.field, reg.space, reg.space, rows)
    return HModule(reg.space, action)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("double:C2", "sweedler:1", "subgroup:S3:C2", "regular:S3")),
       st.integers(0, 35), st.integers(0, 35), st.integers(0, 35), st.integers(-2, 2))
def test_generators_decide_the_representation_laws(name, which, row, col, value):
    h = named_example(name, QQ).hopf
    n = h.dim
    x = _bumped_module(h, which % n, row % n, col % n, QQ.scalar(value))
    by_generators = _check_representation(h.algebra, x, algebra_generators(h.algebra))
    assert bool(by_generators) == bool(check_representation(h.algebra, x))


def _reference_check_representation(algebra, x, lefts=None):
    f, n, d = algebra.field, algebra.dim, x.dim
    mats = [m.rows for m in x.action]
    mult = mult_dict(algebra)

    def matmul(a, b):
        return [[functools.reduce(f.add, (f.mul(a[r][s], b[s][t]) for s in range(d)), f.zero)
                 for t in range(d)] for r in range(d)]

    def combo(terms):
        out = [[f.zero] * d for _ in range(d)]
        for k, c in terms:
            for r in range(d):
                for t in range(d):
                    out[r][t] = f.add(out[r][t], f.mul(c, mats[k][r][t]))
        return out

    ident = [[f.one if r == t else f.zero for t in range(d)] for r in range(d)]
    if combo(enumerate(algebra.unit)) != ident:
        return Verdict.failed("module-unit", None, "ρ(1) ≠ id")
    for i in range(n) if lefts is None else lefts:
        for j in range(n):
            if matmul(mats[i], mats[j]) != combo(mult.get((i, j), {}).items()):
                return Verdict.failed("module-mult", (i, j))
    return Verdict.passed()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("double:C2", "sweedler:1", "subgroup:S3:C2", "regular:S3")),
       st.sampled_from(FIELDS), st.integers(0, 35), st.integers(0, 35), st.integers(0, 35),
       st.integers(-2, 2))
def test_sparse_representation_check_matches_reference(name, field, which, row, col, value):
    h = named_example(name, field).hopf
    n = h.dim
    x = _bumped_module(h, which % n, row % n, col % n, field.scalar(value))
    assert (_outcome(check_representation, h.algebra, x)
            == _outcome(_reference_check_representation, h.algebra, x))


def _bumps(x, count, seed):
    """``count`` copies of the module ``x``, each with one entry of one
    action matrix moved by a nonzero value drawn from random.Random(seed)."""
    f, rng = x.field, random.Random(seed)
    out = []
    for _ in range(count):
        stack = x.stack.copy()
        a, i, j = rng.randrange(len(stack)), rng.randrange(x.dim), rng.randrange(x.dim)
        stack[a, i, j] = stack[a, i, j] + f.scalar(rng.choice((-2, -1, 1, 2)))
        if f != QQ:
            stack[a, i, j] %= f.p
        out.append(HModule(x.space, stack, f))
    return out


def _join_matches_reference(algebra, x, lefts=None):
    """The join's verdict, axiom, witness and message are the reference's,
    on every pair or on the pairs (i, j) with i in ``lefts``."""
    if lefts is None:
        got = _outcome(check_representation, algebra, x)
    else:
        got = _outcome(_check_representation, algebra, x, lefts)
    assert got == _outcome(_reference_check_representation, algebra, x, lefts)
    return got


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_representation_join_on_the_registry(field):
    failed = 0
    for name in registry_names():
        b = named_example(name, field)
        h = b.hopf
        mods = [regular_module(h), trivial_module(h), h.adjoint_module()]
        for x in mods + _bumps(mods[0], 3, len(name)):
            failed += not _join_matches_reference(h.algebra, x)[0]
        if b.comodule is not None:
            m = regular_bmodule(b.comodule)
            _join_matches_reference(b.comodule.algebra, m)
            for x in _bumps(m, 2, len(name)):
                failed += not _join_matches_reference(b.comodule.algebra, x)[0]
    assert failed > 10


def _rebased(algebra, entries):
    """``algebra`` on the basis b'_i = Σ_j P_ji e_j, P the n×n matrix of
    ``entries`` (row-major); None when P is singular."""
    f, n, sp = algebra.field, algebra.dim, algebra.space
    change = MapMatrix(f, sp, sp, [[f.scalar(x) for x in entries[i * n:(i + 1) * n]]
                                   for i in range(n)])
    try:
        back = change.inverse()
    except NotInvertible:
        return None
    cols = [{j: row[i] for j, row in enumerate(change.rows)} for i in range(n)]

    def new_coords(old):
        return back.apply(tuple(old.get(j, f.zero) for j in range(n)))

    old = mult_dict(algebra)
    mult = {(i, j): dict(enumerate(new_coords(multiply(f, old, cols[i], cols[j]))))
            for i in range(n) for j in range(n)}
    return StructAlgebra(f, BasedSpace(tuple(f"e{i}'" for i in range(n))), mult,
                         new_coords(algebra.unit_dict()))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_representation_join_on_a_dense_rebasing(field):
    # regular:S3 on a random integer basis: every structure constant and
    # every entry of the regular action can be nonzero
    rng = random.Random(7)
    alg = None
    while alg is None:
        alg = _rebased(named_example("regular:S3", field).hopf.algebra,
                       [rng.randint(-9, 9) for _ in range(36)])
    x = hopf._regular(alg)
    assert np.count_nonzero(x.stack) > x.stack.size // 2
    assert _join_matches_reference(alg, x)[0]
    gens = algebra_generators(alg)
    for y in _bumps(x, 6, 3):
        assert not _join_matches_reference(alg, y)[0]
        _join_matches_reference(alg, y, gens)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_representation_join_restricted_to_generators(field):
    # the call compute_end_space makes: the end space's H-action, checked
    # from the generators of H, intact and with one entry moved
    for name in ("double:C2", "double:C3", "sweedler:1", "subgroup:S3:C2", "regular:S3"):
        b = named_example(name, field)
        alg, es = b.hopf.algebra, compute_end_space(b.comodule)
        gens = algebra_generators(alg)
        assert _join_matches_reference(alg, es.module, gens)[0]
        for y in _bumps(es.module, 4, len(name)):
            _join_matches_reference(alg, y, gens)


def test_representation_join_in_small_batches(monkeypatch):
    # a budget below one pair's join makes every batch one left element
    batches = []
    failing_pairs = hopf._failing_pairs

    def counting(algebra, fam, by_row, lefts, limit):
        bad = failing_pairs(algebra, fam, by_row, lefts, limit)
        batches.append(lefts.size)  # a batch over budget raises first
        return bad

    monkeypatch.setattr(linalg, "_SLICE_CELLS", 5)
    monkeypatch.setattr(hopf, "_failing_pairs", counting)
    for name in ("double:C2", "regular:S3", "double:C3"):
        h = named_example(name, GF(101)).hopf
        x = regular_module(h)
        for y in [x] + _bumps(x, 4, 1):
            batches.clear()
            ok = _join_matches_reference(h.algebra, y)[0]
            assert set(batches) <= {1} and (len(batches) == h.dim or not ok)


# ---------------------------------------------------------------------------
# The all-pairs product kernel and the family leg embedding
# ---------------------------------------------------------------------------

def _reference_leg_embed(t, slots, ambient_factors, ambient_algebras):
    """The dict leg embedding: every term times every choice of unit terms."""
    f, m = t.field, len(ambient_factors)
    units = [(i, [(j, c) for j, c in enumerate(ambient_algebras[i].unit) if not f.is_zero(c)])
             for i in range(m) if i not in slots]
    coeffs = {}
    for idx, c in t.items():
        partial = [(list(zip(slots, idx)), c)]
        for i, unit in units:
            partial = [(assign + [(i, j)], f.mul(cc, uc)) for assign, cc in partial for j, uc in unit]
        for assign, cc in partial:
            full = [0] * m
            for pos, j in assign:
                full[pos] = j
            coeffs[tuple(full)] = f.add(coeffs.get(tuple(full), f.zero), cc)
    return TensorElement(f, tuple(ambient_factors), coeffs)


def _k_check_legs(ex):
    """Every leg embedding the K-axiom check makes, as (name, (element,
    slots) as ``_embed`` takes them, (element, slots) as ``leg_embed``
    takes them), with the ambient H⊗H⊗B and its algebras."""
    h, c = ex.hopf, ex.comodule
    r, k = ex.rmatrix, ex.kmatrix
    spaces3 = (h.space, h.space, c.algebra.space)
    algs3 = [h.algebra, h.algebra, c.algebra]
    legs = [("r21", (r.element, (1, 0)), (r.element.swap(), (0, 1))),
            ("r21_inv", (r.inverse, (1, 0)), (r.inverse.swap(), (0, 1))),
            ("r12", (r.element, (0, 1)), (r.element, (0, 1))),
            ("k13", (k.element, (0, 2)), (k.element, (0, 2))),
            ("k23", (k.element, (1, 2)), (k.element, (1, 2)))]
    return legs, spaces3, algs3


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ("double:C2", "double:C3", "sweedler:1", "subgroup:S3:C2",
                                  "reflective-trivial:C3", "regular:S3"))
def test_family_embedding_matches_dict_embedding(name, field):
    ex = named_example(name, field)
    f, h, r = ex.field, ex.hopf, ex.rmatrix
    legs, spaces3, algs3 = _k_check_legs(ex)
    for what, (t, slots), (ref_t, ref_slots) in legs:
        ref = _reference_leg_embed(ref_t, ref_slots, spaces3, algs3)
        assert leg_embed(ref_t, ref_slots, spaces3, algs3) == ref, what
        fam = _embed(f, t._fam, [sp.dim for sp in t.factors], slots, algs3)
        assert _element(f, spaces3, fam) == ref, what
    hspaces3, halgs3 = (h.space,) * 3, [h.algebra] * 3
    for slots in ((0, 2), (1, 2), (0, 1)):  # the R-axiom check's embeddings
        got = _element(f, hspaces3, _embed(f, r.element._fam, [h.dim] * 2, slots, halgs3))
        assert got == _reference_leg_embed(r.element, slots, hspaces3, halgs3), slots


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_family_embedding_scales_by_a_unit_other_than_a_basis_element(field):
    # kC2 on the basis (2·1, g): the unit is (1/2, 0)
    half, two = field.scalar(Fraction(1, 2)), field.scalar(2)
    sp = BasedSpace(("u", "g"))
    mult = {(0, 0): {0: two}, (0, 1): {1: two}, (1, 0): {1: two}, (1, 1): {0: half}}
    scaled = StructAlgebra(field, sp, mult, (half, field.zero))
    host = named_example("sweedler:1", field).hopf
    t = _random_element(random.Random(3), field, (host.space, host.space), 9)
    spaces3, algs3 = (host.space, sp, host.space), [host.algebra, scaled, host.algebra]
    ref = _reference_leg_embed(t, (0, 2), spaces3, algs3)
    assert leg_embed(t, (0, 2), spaces3, algs3) == ref
    got = _element(field, spaces3, _embed(field, t.swap()._fam, [4, 4], (2, 0), algs3))
    assert got == ref


def _family(elements):
    """Elements of one product as one family, element g the g-th."""
    fams = [t._fam for t in elements]
    counts = np.concatenate([fam[0] for fam in fams])
    return (counts, np.cumsum(counts) - counts, np.concatenate([fam[2] for fam in fams]),
            np.concatenate([fam[3] for fam in fams]))


def _members_of(f, factors, fam):
    """Every element of a family as a TensorElement."""
    return [_element(f, factors, (np.array([c]), np.zeros(1, dtype=np.int64),
                                  fam[2][lo:lo + c], fam[3][lo:lo + c]))
            for lo, c in zip(fam[1].tolist(), fam[0].tolist())]


def _assert_all_pairs(f, lefts, rights, algs, expected=None):
    """``_products`` of the two families is every left·right, element g·H + h;
    ``expected(g, h)`` gives the product, by default the entrywise one."""
    expected = expected or (lambda g, h: _reference_tensor_mult(lefts[g], rights[h], algs))
    factors = lefts[0].factors
    ops, dims = [alg.mult_op() for alg in algs], [sp.dim for sp in factors]
    got = _members_of(f, factors, _products(f, _family(lefts), _family(rights), ops, dims))
    assert len(got) == len(lefts) * len(rights)
    for g in range(len(lefts)):
        for h in range(len(rights)):
            assert got[g * len(rights) + h] == expected(g, h), (g, h)


_D_S3_LEGS = {}


def _d_s3_legs(field):
    """Leg-embedded R, R⁻¹ and K of ``double:S3`` over ``field`` in H⊗H⊗B,
    by name, their algebras, and the entrywise product of two of them by
    name, each formed once."""
    if field not in _D_S3_LEGS:
        ex = named_example("double:S3", field)
        legs, spaces3, algs3 = _k_check_legs(ex)
        el = {what: leg_embed(t, slots, spaces3, algs3) for what, _, (t, slots) in legs}

        @functools.lru_cache(maxsize=None)
        def product(a, b):
            return _reference_tensor_mult(el[a], el[b], algs3)

        _D_S3_LEGS[field] = el, algs3, product
    return _D_S3_LEGS[field]


@pytest.mark.parametrize("slice_cells", (None, 5), ids=("one-batch", "split"))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_join_order_matches_reference(field, slice_cells, monkeypatch):
    # the K-axiom products of double:S3, one at a time as the check forms
    # them, then every left·right of two families of their factors at once
    if slice_cells is not None:
        monkeypatch.setattr(linalg, "_SLICE_CELLS", slice_cells)
    el, algs3, product = _d_s3_legs(field)
    for a, b in (("k23", "r21"), ("r21", "k13"), ("k13", "r12"), ("k13", "r21_inv")):
        _assert_all_pairs(field, [el[a]], [el[b]], algs3, lambda g, h: product(a, b))
    lefts, rights = ("k23", "k13"), ("r21", "r12", "r21_inv")
    _assert_all_pairs(field, [el[a] for a in lefts], [el[b] for b in rights], algs3,
                      lambda g, h: product(lefts[g], rights[h]))


@pytest.mark.parametrize("slice_cells", (None, 5), ids=("one-batch", "split"))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cartesian_order_matches_reference(field, slice_cells, monkeypatch):
    # every (e_a e_x)·e_c and e_a·(e_x e_c) of double:C2, element
    # (a·n + x)·n + c, against the entrywise products
    if slice_cells is not None:
        monkeypatch.setattr(linalg, "_SLICE_CELLS", slice_cells)
    alg = named_example("double:C2", field).hopf.algebra
    f, n = alg.field, alg.dim
    m, e = alg.mult_op(), _linear_op(f, np.eye(n, dtype=np.int64))
    mult = mult_dict(alg)

    def times(x: dict, y: dict) -> dict:
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for t, ct in mult.get((i, j), {}).items():
                    out[t] = f.add(out.get(t, f.zero), f.mul(f.mul(ci, cj), ct))
        return {t: v for t, v in out.items() if not f.is_zero(v)}

    for got, side in ((_products(f, m, e, [m], [n]), 0), (_products(f, e, m, [m], [n]), 1)):
        assert got[0].size == n ** 3
        for g in range(n ** 3):
            ax, c = divmod(g, n)
            a, x = divmod(ax, n)
            e_a, e_x, e_c = {a: f.one}, {x: f.one}, {c: f.one}
            ref = times(times(e_a, e_x), e_c) if side == 0 else times(e_a, times(e_x, e_c))
            lo, hi = got[1][g], got[1][g] + got[0][g]
            assert dict(zip(got[2][lo:hi].tolist(), (f.scalar(v) for v in got[3][lo:hi]))) == ref


def _random_element(rng, f, factors, terms):
    coeffs = {}
    for _ in range(terms):
        idx = tuple(rng.randrange(sp.dim) for sp in factors)
        coeffs[idx] = f.scalar(Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3))))
    return TensorElement(f, factors, coeffs)


@pytest.mark.parametrize("slice_cells", (None, 5), ids=("one-batch", "split"))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_both_orders_on_mixed_slots_match_reference(field, slice_cells, monkeypatch):
    # three different algebras and coefficients other than ±1, so a slot or
    # a value read from the wrong place shows; families of several elements
    # with different term counts, zero among them and last, multiplied both ways
    if slice_cells is not None:
        monkeypatch.setattr(linalg, "_SLICE_CELLS", slice_cells)
    hosts = [named_example(name, field).hopf for name in ("double:C2", "sweedler:1", "regular:S3")]
    factors, algs = [h.space for h in hosts], [h.algebra for h in hosts]
    rng = random.Random(7)
    lefts = [_random_element(rng, field, factors, terms) for terms in (40, 2, 0, 60, 1)]
    rights = [_random_element(rng, field, factors, terms) for terms in (1, 30, 40, 0)]
    _assert_all_pairs(field, lefts, rights, algs)
    _assert_all_pairs(field, rights, lefts, algs)
    _assert_all_pairs(field, lefts[-1:], rights[-1:], algs)


def test_perturbed_k_at_the_largest_prime_is_refused_as_the_reference_refuses():
    ex = named_example("double:S3", GF(P_TOP))
    h, r_elt, c, k_elt = _perturbed(ex, "k", (0, 0, 0), ex.field.scalar(3))
    km = KMatrix(c, RMatrix(h, r_elt), k_elt)
    batched = _outcome(check_k_matrix, km)
    assert batched == _outcome(_reference_check_k_matrix, km)
    assert batched[0] is False
