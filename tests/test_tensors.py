"""Sparse tensor elements: embeddings, slotwise products, inversion."""

import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopffact import bundle
from hopffact.constructions import (
    drinfeld_double_group,
    group_algebra,
    named_example,
    registry_names,
    sweedler_h4,
)
from hopffact.errors import HopffactError, NotInvertible, SpaceMismatch
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group
from hopffact.linalg import _sparse_values, rank_of, solve_columns
from hopffact.tensors import (
    TensorElement,
    _units,
    leg_embed,
    tensor_invert,
    tensor_mult,
    tensor_unit,
)
from reference_tables import (add_terms, contract_terms, element_dict, permute_terms,
                              scale_terms, terms_of)


@pytest.fixture(scope="module")
def kc2():
    h, _ = group_algebra(cyclic_group(2))
    return h


def elt(h, coeffs, legs=2):
    return TensorElement(h.field, (h.space,) * legs, coeffs)


def test_leg_embed_r13(kc2):
    # R ∈ H⊗H into slots (0, 2) of H⊗H⊗H places units in the middle slot
    h = kc2
    one = h.field.one
    r = elt(h, {(0, 1): one})  # e ⊗ g
    algs = [h.algebra] * 3
    r13 = leg_embed(r, (0, 2), (h.space,) * 3, algs)
    assert dict(r13.items()) == {(0, 0, 1): one}


def test_leg_embed_unit_is_unit(kc2):
    h = kc2
    algs = [h.algebra] * 2
    u = tensor_unit(h.field, (h.space, h.space), algs)
    embedded = leg_embed(u, (0, 1), (h.space, h.space), algs)
    assert embedded == u


def test_leg_embed_multi_term_unit():
    # the unit of (kC2)* has two nonzero coordinates; embedding must expand
    from hopffact.constructions import dual_group_algebra

    hd = dual_group_algebra(cyclic_group(2))
    one = hd.field.one
    t = TensorElement(hd.field, (hd.space,), {(0,): one})
    out = leg_embed(t, (0,), (hd.space, hd.space), [hd.algebra, hd.algebra])
    assert dict(out.items()) == {(0, 0): one, (0, 1): one}


def _reference_units(f, algebras):
    """The unit family of a product of algebras by per-term loops over
    every choice of one unit term per slot."""
    key, val = [0], [f.one]
    for alg in algebras:
        terms = [(j, c) for j, c in enumerate(alg.unit) if c]
        key = [k * alg.dim + j for k in key for j, _ in terms]
        val = [f.mul(v, c) for v in val for _, c in terms]
    key = np.array(key, dtype=np.int64)
    return np.array([key.size]), np.zeros(1, dtype=np.int64), key, _sparse_values(f, val)


class _UnitOnly:
    """An algebra as far as ``_units`` reads it: a unit vector."""

    def __init__(self, unit):
        self.unit, self.dim = tuple(unit), len(unit)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2)], ids=str)
def test_unit_family_matches_the_term_loops(field):
    # the same arrays, dtypes and scalar types, for up to three slots
    algebras = []
    for name in registry_names():
        try:
            b = named_example(name, field)
        except HopffactError:
            continue  # Sweedler's algebras need characteristic ≠ 2
        algebras += [b.hopf.algebra] + ([b.comodule.algebra] if b.comodule else [])
    rng = random.Random(1)
    choices = [[]] + [[a] for a in algebras] + [rng.choices(algebras, k=rng.randint(2, 3))
                                                for _ in range(60)]
    # a zero unit vector, as a perturbed table gives, and over Q units
    # whose term products can be integral Fractions
    odd = [_UnitOnly([0, 0])]
    if field == QQ:
        odd += [_UnitOnly([Fraction(1, 2), 0, 2]), _UnitOnly([Fraction(-1, 3), 3])]
    choices += [list(p) for k in (1, 2, 3) for p in itertools.product(odd + algebras[:1], repeat=k)]
    for algs in choices:
        got, want = _units(field, algs), _reference_units(field, algs)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)
            assert list(map(type, x.tolist())) == list(map(type, y.tolist()))


def test_leg_embed_errors(kc2):
    h = kc2
    r = elt(h, {(0, 1): h.field.one})
    with pytest.raises(HopffactError):
        leg_embed(r, (2, 0), (h.space,) * 3, [h.algebra] * 3)
    with pytest.raises(SpaceMismatch):
        leg_embed(r, (0,), (h.space,) * 3, [h.algebra] * 3)


def test_tensor_mult_unit_law(kc2):
    h = kc2
    algs = [h.algebra, h.algebra]
    u = tensor_unit(h.field, (h.space, h.space), algs)
    t = elt(h, {(0, 1): h.field.one, (1, 1): h.field.parse(3)})
    assert tensor_mult(u, t, algs) == t
    assert tensor_mult(t, u, algs) == t


def test_tensor_mult_group_relation(kc2):
    # (e⊗g)(e⊗g) = e⊗e since g² = e
    h = kc2
    algs = [h.algebra, h.algebra]
    t = elt(h, {(0, 1): h.field.one})
    sq = tensor_mult(t, t, algs)
    assert dict(sq.items()) == {(0, 0): h.field.one}


def test_tensor_invert_self_inverse(kc2):
    h = kc2
    algs = [h.algebra, h.algebra]
    t = elt(h, {(0, 1): h.field.one})  # e ⊗ g
    assert tensor_invert(t, algs) == t
    u = tensor_unit(h.field, (h.space, h.space), algs)
    assert tensor_invert(u, algs) == u


def test_tensor_invert_zero_divisor_fails_everywhere():
    # e+g is a zero divisor in kC2 over every field: (e+g)(e-g) = 0
    for field in (QQ, GF(2)):
        h, _ = group_algebra(cyclic_group(2), field)
        algs = [h.algebra, h.algebra]
        t = TensorElement(field, (h.space, h.space),
                          {(0, 0): field.one, (0, 1): field.one})
        with pytest.raises(NotInvertible):
            tensor_invert(t, algs)


def test_tensor_invert_field_sensitivity():
    # e ⊗ (e + 2g): eigenvalues 1 ± 2, invertible over Q, singular over GF(3)
    hq, _ = group_algebra(cyclic_group(2), QQ)
    t = TensorElement(QQ, (hq.space, hq.space),
                      {(0, 0): QQ.one, (0, 1): QQ.parse(2)})
    inv = tensor_invert(t, [hq.algebra, hq.algebra])
    assert tensor_mult(inv, t, [hq.algebra, hq.algebra]) == tensor_unit(
        QQ, (hq.space, hq.space), [hq.algebra, hq.algebra]
    )
    f3 = GF(3)
    h3, _ = group_algebra(cyclic_group(2), f3)
    t3 = TensorElement(f3, (h3.space, h3.space),
                       {(0, 0): f3.one, (0, 1): f3.parse(2)})
    with pytest.raises(NotInvertible):
        tensor_invert(t3, [h3.algebra, h3.algebra])


def test_leg_embed_commutes_with_tensor_mult(kc2):
    h = kc2
    algs2 = [h.algebra] * 2
    algs3 = [h.algebra] * 3
    a = elt(h, {(0, 1): h.field.one, (1, 0): h.field.parse(2)})
    b = elt(h, {(1, 1): h.field.one})
    for slots in ((0, 1), (0, 2), (1, 2)):
        lhs = leg_embed(tensor_mult(a, b, algs2), slots, (h.space,) * 3, algs3)
        rhs = tensor_mult(
            leg_embed(a, slots, (h.space,) * 3, algs3),
            leg_embed(b, slots, (h.space,) * 3, algs3),
            algs3,
        )
        assert lhs == rhs


def test_permute_and_contract(kc2):
    h = kc2
    one = h.field.one
    t = elt(h, {(0, 1): one})
    assert dict(t.swap().items()) == {(1, 0): one}
    f_e = (one, h.field.zero)  # the functional dual to basis 0
    c = t.contract_leg(0, f_e)
    assert dict(c.items()) == {(1,): one}
    assert t.contract_leg(1, f_e).is_zero()
    scalar = c.contract_leg(0, (h.field.zero, one))
    assert scalar.items() == [((), one)] and scalar.permute_legs(()) == scalar


def test_no_zero_coefficients_stored(kc2):
    h = kc2
    t = elt(h, {(0, 0): h.field.zero, (0, 1): h.field.one})
    assert (0, 0) not in dict(t.items())
    s = t - t
    assert s.is_zero()


# -- inversion against a dense reference ------------------------------------

def dense_inverse(t, algebras):
    """t⁻¹ from the dense left-multiplication matrix of t, or None when that
    matrix is singular: column J holds t·e_J, and t⁻¹ solves t·x = 1."""
    f = t.field
    indices = list(itertools.product(*(range(sp.dim) for sp in t.factors)))
    pos = {idx: j for j, idx in enumerate(indices)}
    n = len(indices)
    rows = [[f.zero] * n for _ in range(n)]
    for idx in indices:
        col = tensor_mult(t, TensorElement(f, t.factors, {idx: f.one}), algebras)
        for out, c in col.items():
            rows[pos[out]][pos[idx]] = c
    if rank_of(rows, n, f) < n:
        return None
    unit = dict(tensor_unit(f, t.factors, algebras).items())
    target = tuple(unit.get(idx, f.zero) for idx in indices)
    x = solve_columns(rows, [target], n, f)[0]
    return TensorElement(f, t.factors, {idx: x[pos[idx]] for idx in indices})


def _registry_invertibles(field):
    for name in registry_names():
        b = named_example(name, field)
        h = b.hopf.algebra
        if b.rmatrix is not None:
            yield f"{name}:R", b.rmatrix.element, [h, h]
        if b.kmatrix is not None:
            yield f"{name}:K", b.kmatrix.element, [h, b.comodule.algebra]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_tensor_invert_matches_dense_solve_on_registry(field):
    for what, t, algs in _registry_invertibles(field):
        ref = dense_inverse(t, algs)
        assert ref is not None, what
        assert tensor_invert(t, algs) == ref, what


def test_tensor_invert_matches_dense_solve_on_double_s3():
    b = named_example("double:S3", GF(101))
    h = b.hopf.algebra
    for t, algs in ((b.rmatrix.element, [h, h]), (b.kmatrix.element, [h, b.comodule.algebra])):
        assert tensor_invert(t, algs) == dense_inverse(t, algs)


def _kc2_kc3(field):
    return [group_algebra(cyclic_group(k), field)[0] for k in (2, 3)]


def _sweedler_sweedler(field):
    h = sweedler_h4(field)
    return [h, h]


# Sweedler's algebra needs characteristic ≠ 2, so it is not tried over GF(2).
PRODUCTS = [
    (make, field)
    for make, fields in (
        (_kc2_kc3, (QQ, GF(2), GF(3), GF(101), GF(1000003))),
        (_sweedler_sweedler, (QQ, GF(3), GF(101), GF(1000003))),
    )
    for field in fields
]


@pytest.mark.parametrize(
    "make, field", PRODUCTS, ids=[f"{m.__name__[1:]}-{f}" for m, f in PRODUCTS]
)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tensor_invert_agrees_with_dense_reference(make, field, data):
    hs = make(field)
    algs = [h.algebra for h in hs]
    dims = [h.dim for h in hs]
    idx = st.tuples(*(st.integers(0, d - 1) for d in dims))
    coeffs = data.draw(st.dictionaries(idx, st.integers(-3, 3), max_size=6))
    t = TensorElement(field, tuple(h.space for h in hs),
                      {i: field.scalar(c) for i, c in coeffs.items()})
    ref = dense_inverse(t, algs)
    if ref is None:
        with pytest.raises(NotInvertible):
            tensor_invert(t, algs)
    else:
        inv = tensor_invert(t, algs)
        assert inv == ref
        unit = tensor_unit(field, t.factors, algs)
        assert tensor_mult(t, inv, algs) == unit == tensor_mult(inv, t, algs)


def _dense_double_c3_square(field):
    """1 plus a dense element of D(C3)⊗D(C3) with entries in [−9, 9]
    (seed 0), and the two factor algebras."""
    h, _ = drinfeld_double_group(cyclic_group(3), field)
    algs = [h.algebra, h.algebra]
    rng = random.Random(0)
    coeffs = {(i, j): rng.randint(-9, 9) for i in range(h.dim) for j in range(h.dim)}
    for idx, c in tensor_unit(field, (h.space, h.space), algs).items():
        coeffs[idx] += int(c)
    return TensorElement(field, (h.space, h.space),
                         {idx: field.scalar(c) for idx, c in coeffs.items()}), algs


def test_tensor_invert_dense_element_over_q_agrees_mod_p():
    # the minimal polynomial has high degree, so the powers' entries and
    # the inverse's denominators (above 10**10) need several lift primes
    t, algs = _dense_double_c3_square(QQ)
    inv = tensor_invert(t, algs)
    unit = tensor_unit(QQ, t.factors, algs)
    assert tensor_mult(t, inv, algs) == unit == tensor_mult(inv, t, algs)
    assert max(c.denominator for _, c in inv.items()) > 10**10
    f = GF(101)
    t_p, algs_p = _dense_double_c3_square(f)
    reduced = {idx: f.scalar(c.numerator * pow(c.denominator, -1, f.p))
               for idx, c in inv.items()}
    assert tensor_invert(t_p, algs_p) == TensorElement(f, t_p.factors, reduced)


def test_constructor_refuses_bad_multi_indices(kc2):
    with pytest.raises(HopffactError, match="multi-index arity does not match factors"):
        elt(kc2, {(0, 1): 1, (1,): 1})
    with pytest.raises(HopffactError, match=r"index \(0, 2\) outside factor dimensions"):
        elt(kc2, {(0, 1): 1, (0, 2): 1})
    with pytest.raises(HopffactError, match=r"index \(-1, 0\) outside factor dimensions"):
        elt(kc2, {(-1, 0): 1})


_ORACLE_FIELDS = (QQ, GF(101), GF(94906249))


@functools.lru_cache(maxsize=None)
def _oracle_hosts(field):
    """Hopf algebras of dimensions 2, 3 and 4: kC2, kC3 and Sweedler's H4."""
    return (group_algebra(cyclic_group(2), field)[0], group_algebra(cyclic_group(3), field)[0],
            sweedler_h4(field))


_SCALARS = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12),
                     st.fractions(max_denominator=6))


@st.composite
def _oracle_cases(draw):
    """Two elements given as dicts of Python scalars (zeros, negatives,
    ints beyond p and Fractions among them) on two or three legs, and the
    arguments of one call of every method."""
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    hosts = [_oracle_hosts(field)[i] for i in draw(st.lists(st.integers(0, 2), min_size=2,
                                                              max_size=3))]
    index = st.tuples(*(st.integers(0, h.dim - 1) for h in hosts))
    a = draw(st.dictionaries(index, _SCALARS, max_size=12))
    b = draw(st.dictionaries(index, _SCALARS, max_size=12))
    if draw(st.booleans()):  # b cancels some of a's terms in a + b
        b.update({i: -c for i, c in a.items() if draw(st.booleans())})
    perm = draw(st.permutations(range(len(hosts))))
    leg = draw(st.integers(0, len(hosts) - 1))
    covector = draw(st.lists(st.integers(-1, 1) | _SCALARS, min_size=hosts[leg].dim,
                             max_size=hosts[leg].dim))
    return field, hosts, a, b, draw(st.just(0) | _SCALARS), perm, leg, covector


def _agrees(t, ref):
    """Every read of ``t`` against the reference dict ``ref``; an element
    built from ``ref`` by the dict constructor is equal and hashes equal."""
    f = t.field
    assert t.items() == sorted(ref.items())
    assert element_dict(t) == ref
    assert all(type(c) is Fraction if f == QQ else type(c) is int and 0 <= c < f.p
               for _, c in t.items())
    assert t.is_zero() == (not ref)
    assert repr(t).endswith(f", {len(ref)} terms)")
    same = TensorElement(f, t.factors, ref)
    assert t == same and hash(t) == hash(same)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_cases())
def test_tensor_element_methods_match_the_dict_reference(case):
    field, hosts, a, b, s, perm, leg, covector = case
    factors, algs = [h.space for h in hosts], [h.algebra for h in hosts]
    x, y = TensorElement(field, factors, a), TensorElement(field, factors, b)
    rx, ry = terms_of(field, a), terms_of(field, b)
    _agrees(x, rx)
    _agrees(y, ry)
    _agrees(x + y, add_terms(field, rx, ry))
    _agrees(x - y, add_terms(field, rx, scale_terms(field, ry, -1)))
    _agrees(x - x, {})
    _agrees(x.scale(s), scale_terms(field, rx, s))
    _agrees(x.scale(0), {})
    _agrees(x.permute_legs(perm), permute_terms(rx, perm))
    if len(hosts) == 2:
        _agrees(x.swap(), permute_terms(rx, (1, 0)))
    _agrees(x.contract_leg(leg, covector), contract_terms(field, rx, leg, covector))
    _agrees(tensor_mult(x, tensor_unit(field, factors, algs), algs), rx)
    assert (x == y) == (rx == ry)


@pytest.mark.parametrize("field", _ORACLE_FIELDS, ids=str)
def test_equal_elements_built_by_different_routes_hash_equal(field):
    # the construction's R and K, their loaded copies, the dict constructor
    # on their terms, and their products with the unit
    for name in ("double:C2", "sweedler:1", "regular:S3", "subgroup:S3:C2"):
        b = named_example(name, field)
        loaded = bundle.loads(bundle.dumps(b))
        h = b.hopf.algebra
        for built, read, algs in ((b.rmatrix.element, loaded.rmatrix_element, [h, h]),
                                  (b.kmatrix.element, loaded.kmatrix_element,
                                   [h, b.comodule.algebra])):
            routes = [built, read, TensorElement(field, built.factors, dict(built.items())),
                      tensor_mult(read, tensor_unit(field, built.factors, algs), algs)]
            assert all(t == built for t in routes), name
            assert len({hash(t) for t in routes}) == 1, name
    if field == QQ:
        sp = _oracle_hosts(QQ)[0].space
        routes = [TensorElement(QQ, (sp, sp), {(0, 1): Fraction(4, 2)}),
                  TensorElement(QQ, (sp, sp), {(0, 1): 2}),
                  TensorElement(QQ, (sp, sp), {(0, 1): Fraction(1, 2)}).scale(4)]
        assert all(t == routes[0] for t in routes)
        assert len({hash(t) for t in routes}) == 1
