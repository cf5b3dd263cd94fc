"""The batched braided-module check against a columnwise reference.

``_reference_check`` is the earlier implementation, which pushes one basis
column of X⊗Y⊗M at a time through every step as a dict; the batched check
must return the same verdict name and witness on every input.  Where K
passes axioms (i) and (ii) and the modules are representations, the check
answers from that certificate; ``_braided_scan`` is the column scan it
otherwise runs, and the two must agree wherever both apply.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopffact.comodule import (
    KMatrix,
    _braided_scan,
    check_braided_module,
    check_k_matrix,
    module_braiding,
    regular_bmodule,
    z2_membership,
)
from hopffact.constructions import named_example, registry_names
from hopffact.errors import HopffactError
from hopffact.fields import GF, QQ
from hopffact.hopf import HModule, regular_module, trivial_module
from hopffact.linalg import BasedSpace, MapMatrix
from hopffact.tensors import tensor_unit
from hopffact.verdicts import Verdict
from reference_tables import coaction_dict, comult_dict


# ---------------------------------------------------------------------------
# Columnwise reference
# ---------------------------------------------------------------------------

def _dicts_equal(field, a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    z = field.zero
    return all(a.get(k, z) == b.get(k, z) for k in keys)


def _sparse_cols(mats):
    out = []
    for mat in mats:
        f = mat.field
        cols = []
        for j in range(mat.domain.dim):
            col = {}
            for i, row in enumerate(mat.rows):
                if not f.is_zero(row[j]):
                    col[i] = row[j]
            cols.append(col)
        out.append(cols)
    return out


def _add_term(f, acc, key, val):
    cur = f.add(acc.get(key, f.zero), val)
    if f.is_zero(cur):
        acc.pop(key, None)
    else:
        acc[key] = cur


def _apply_two_leg(f, vec, terms, cols_a, cols_b, legs, out_order=None):
    la, lb = legs
    out = {}
    for idx, cv in vec.items():
        for (a, b), tc in terms.items():
            ca = cols_a[a][idx[la]]
            if not ca:
                continue
            cb = cols_b[b][idx[lb]]
            if not cb:
                continue
            base = f.mul(cv, tc)
            for ia, va in ca.items():
                fa = f.mul(base, va)
                for ib, vb in cb.items():
                    new = list(idx)
                    new[la] = ia
                    new[lb] = ib
                    if out_order is not None:
                        new = [new[p] for p in out_order]
                    _add_term(f, out, tuple(new), f.mul(fa, vb))
    return out


def _nonzero_index(cols):
    dim = len(cols[0]) if cols else 0
    out = [[] for _ in range(dim)]
    for i, percol in enumerate(cols):
        for j in range(dim):
            if percol[j]:
                out[j].append(i)
    return out


def _reference_check(k, x, y, m):
    f = k.host.field
    c = k.comodule
    h = k.host
    r = k.rmatrix
    xa = _sparse_cols(x.action)
    ya = _sparse_cols(y.action)
    ma = _sparse_cols(m.action)
    kt = dict(k.element.items())
    rt = dict(r.element.items())
    rinv = dict(r.inverse.items())
    # Δ applied to the first K-leg (for e_{X⊗Y,M}), grouped by the leg that
    # acts on X so columns only visit terms that can survive
    comult, coaction = comult_dict(h.coalgebra), coaction_dict(c)
    k_split_by_a1: dict = {}
    for (a, b), cv in kt.items():
        for (a1, a2), dc in comult.get(a, {}).items():
            k_split_by_a1.setdefault(a1, []).append((a2, b, f.mul(cv, dc)))
    # δ applied to the second K-leg (for e_{X, Y▷M}), grouped likewise
    k_coact_by_a: dict = {}
    for (a, b), cv in kt.items():
        for (hh, bb), dc in coaction.get(b, {}).items():
            k_coact_by_a.setdefault(a, []).append((hh, bb, f.mul(cv, dc)))
    x_nz = _nonzero_index(xa)

    for jx in range(x.dim):
        a_live = x_nz[jx]
        for jy in range(y.dim):
            for jm in range(m.dim):
                start = {(jx, jy, jm): f.one}
                # identity (1) left side: e_{X⊗Y,M} via Δ on the first K-leg
                lhs = {}
                for a1 in a_live:
                    cx = xa[a1][jx]
                    for a2, b, cv in k_split_by_a1.get(a1, ()):
                        cy = ya[a2][jy]
                        if not cy:
                            continue
                        cm = ma[b][jm]
                        if not cm:
                            continue
                        for ix, vx in cx.items():
                            for iy, vy in cy.items():
                                vxy = f.mul(f.mul(vx, vy), cv)
                                for im, vm in cm.items():
                                    _add_term(f, lhs, (ix, iy, im), f.mul(vxy, vm))
                # right side, step by step (input legs (x, y, m)):
                # c_{Y,X}^{-1} ▷ id: output legs (y, x, m); the inverse braiding
                # puts the first leg of R^{-1} on Y and the second on X
                vec = _apply_two_leg(f, start, rinv, ya, xa, (1, 0), (1, 0, 2))
                # id_Y ▷ e_{X,M}: first K-leg on X, second on M
                vec = _apply_two_leg(f, vec, kt, xa, ma, (1, 2))
                # c_{Y,X} ▷ id: (y, x, m) → (x, y, m); lower R-leg on Y, upper on X
                vec = _apply_two_leg(f, vec, rt, ya, xa, (0, 1), (1, 0, 2))
                # id_X ▷ e_{Y,M}
                vec = _apply_two_leg(f, vec, kt, ya, ma, (1, 2))
                if not _dicts_equal(f, lhs, vec):
                    return Verdict.failed("braided-module-1", (jx, jy, jm))
                # identity (2) left side: e_{X,Y▷M} via δ on the second K-leg
                lhs2 = {}
                for a in a_live:
                    cx = xa[a][jx]
                    for hh, bb, cv in k_coact_by_a.get(a, ()):
                        cy = ya[hh][jy]
                        if not cy:
                            continue
                        cm = ma[bb][jm]
                        if not cm:
                            continue
                        for ix, vx in cx.items():
                            for iy, vy in cy.items():
                                vxy = f.mul(f.mul(vx, vy), cv)
                                for im, vm in cm.items():
                                    _add_term(f, lhs2, (ix, iy, im), f.mul(vxy, vm))
                # right side: c_{X,Y} ▷ id: (x, y, m) → (y, x, m);
                # lower R-leg on X, upper on Y
                vec = _apply_two_leg(f, start, rt, xa, ya, (0, 1), (1, 0, 2))
                # id_Y ▷ e_{X,M}
                vec = _apply_two_leg(f, vec, kt, xa, ma, (1, 2))
                # c_{Y,X} ▷ id: (y, x, m) → (x, y, m)
                vec = _apply_two_leg(f, vec, rt, ya, xa, (0, 1), (1, 0, 2))
                if not _dicts_equal(f, lhs2, vec):
                    return Verdict.failed("braided-module-2", (jx, jy, jm))
    # unit law e_{1,M} = id
    if not module_braiding(k, trivial_module(h), m).is_identity():
        return Verdict.failed("braided-module-unit", None, "e_{1,M} ≠ id")
    return Verdict.passed()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _bumped(mod, a, i, j, by=1):
    """``mod`` with ``by`` added to entry (i, j) of action matrix a."""
    mat = mod.action[a]
    f = mat.field
    rows = [list(row) for row in mat.rows]
    rows[i][j] = f.add(rows[i][j], f.scalar(by))
    action = list(mod.action)
    action[a] = MapMatrix(f, mat.domain, mat.codomain, rows)
    return HModule(mod.space, action)


def _direct_sum(x, y):
    """The module X ⊕ Y, Y's basis after X's."""
    f = x.action[0].field
    sp = BasedSpace(x.space.labels + tuple(("⊕", label) for label in y.space.labels))
    pad_x, pad_y = [f.zero] * y.dim, [f.zero] * x.dim
    return HModule(sp, [MapMatrix(f, sp, sp, [list(r) + pad_x for r in a.rows]
                                  + [pad_y + list(r) for r in b.rows])
                        for a, b in zip(x.action, y.action)])


def _modules(b):
    x = regular_module(b.hopf)
    return x, x, regular_bmodule(b.comodule)


def _check_bumped_against_reference(b, data, by):
    """One entry of one of b's modules moved by a value drawn from ``by``:
    the check's axiom and witness are the reference's."""
    mods = list(_modules(b))
    which = data.draw(st.integers(0, 2))
    mod = mods[which]
    a = data.draw(st.integers(0, len(mod.action) - 1))
    i = data.draw(st.integers(0, mod.dim - 1))
    j = data.draw(st.integers(0, mod.dim - 1))
    mods[which] = _bumped(mod, a, i, j, data.draw(by))
    got = check_braided_module(b.kmatrix, *mods)
    want = _reference_check(b.kmatrix, *mods)
    assert (got.axiom, got.witness) == (want.axiom, want.witness)


ORACLE_FIELDS = [QQ, GF(101), GF(94906249)]
ORACLE_CASES = [(name, field) for name in ("double:C2", "sweedler:1", "subgroup:S3:C2")
                for field in ORACLE_FIELDS]


@pytest.mark.parametrize("name, field", ORACLE_CASES,
                         ids=[f"{n}-{f}" for n, f in ORACLE_CASES])
@settings(max_examples=6, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_braided_check_matches_columnwise_reference(name, field, data):
    _check_bumped_against_reference(named_example(name, field), data, st.just(1))


@pytest.mark.parametrize("name", ["sweedler:1", "double:C2"])
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_braided_check_matches_columnwise_reference_on_fractions(name, data):
    # a bump by a non-integral rational gives a module family with a
    # denominator, which the integer route clears like those of R and K
    _check_bumped_against_reference(
        named_example(name, QQ), data,
        st.fractions(-3, 3, max_denominator=7).filter(lambda q: q.denominator > 1))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_braided_check_passes_on_the_registry(field):
    for name in registry_names():
        b = named_example(name, field)
        if b.kmatrix is None:
            continue
        x, _, m = _modules(b)
        t = trivial_module(b.hopf)
        for left in (t, x):
            for right in (t, x):
                assert check_braided_module(b.kmatrix, left, right, m), name


@pytest.mark.parametrize("which, a, entry, axiom, witness", [
    (2, 3, (3, 2), "braided-module-1", (2, 2, 2)),
    (1, 3, (0, 2), "braided-module-2", (2, 2, 0)),
])
def test_braided_check_pinned_failures(which, a, entry, axiom, witness):
    b = named_example("double:C2")
    mods = list(_modules(b))
    mods[which] = _bumped(mods[which], a, *entry)
    v = check_braided_module(b.kmatrix, *mods)
    assert (v.axiom, v.witness) == (axiom, witness)
    assert v == _reference_check(b.kmatrix, *mods)


PINNED_36 = [
    (2, 3, (3, 2), "braided-module-1", (6, 18, 0)),  # X is Y
    (0, 5, (2, 9), "braided-module-2", (9, 0, 30)),  # X is not Y
]


@pytest.mark.parametrize("which, a, entry, axiom, witness", PINNED_36)
def test_braided_check_pinned_failures_at_dimension_36(which, a, entry, axiom, witness):
    # D(S3) over GF(101), X = Y regular: 46,656 columns of X⊗Y⊗M; the
    # bumped entry breaks the monomial shape of every step that reads it
    b = named_example("double:S3", GF(101))
    mods = list(_modules(b))
    mods[which] = _bumped(mods[which], a, *entry)
    v = check_braided_module(b.kmatrix, *mods)
    assert (v.axiom, v.witness) == (axiom, witness)


def test_braided_checks_build_each_module_family_once(monkeypatch):
    # the four (X, Y) of {trivial, regular}² share three modules
    import hopffact.hopf as hopf

    b = named_example("double:S3", GF(101))
    calls = []
    family = hopf._family

    def counting(f, mats):
        calls.append(len(mats))
        return family(f, mats)

    monkeypatch.setattr(hopf, "_family", counting)
    m = regular_bmodule(b.comodule)
    mods = (trivial_module(b.hopf), regular_module(b.hopf))
    for x in mods:
        for y in mods:
            assert check_braided_module(b.kmatrix, x, y, m)
    assert len(calls) == 3


def test_braided_checks_over_q_multiply_integers_and_build_the_k_share_once(monkeypatch):
    # Sweedler's R and R⁻¹ have coefficients ±1/2; every operand of the
    # column scan's products is an int all the same, and (Δ⊗id)K, (id⊗δ)K
    # and (ε⊗id)K are formed once per KMatrix
    import hopffact.comodule as comodule
    import hopffact.hopf as hopf

    b = named_example("sweedler:1", QQ)
    assert {x.denominator for _, x in b.rmatrix.element.items()} == {2}
    k = comodule.KMatrix(b.comodule, b.rmatrix, b.kmatrix.element, b.kmatrix.inverse)
    operands, coapplied = [], []

    def ints_only(mul):
        def wrapped(f, x, y):
            operands.append(all(type(v) is int for v in (*x.flat, *y.flat)))
            return mul(f, x, y)
        return wrapped

    coapply = comodule._coapply

    def counting(*args):
        coapplied.append(args[3])
        return coapply(*args)

    monkeypatch.setattr(comodule, "_mul", ints_only(comodule._mul))
    monkeypatch.setattr(hopf, "_mul", ints_only(hopf._mul))
    monkeypatch.setattr(comodule, "_coapply", counting)
    m = regular_bmodule(b.comodule)
    mods = (trivial_module(b.hopf), regular_module(b.hopf))
    calls = []
    for x in mods:
        for y in mods:
            assert comodule._braided_scan(k, x, y, m)
            calls.append(len(coapplied))
    assert operands and all(operands)
    assert calls == [3, 3, 3, 3]


def test_braided_check_unit_law_failure():
    # with M's action zero both identities read 0 = 0, while e_{1,M} = 0
    b = named_example("double:C2")
    x, _, m = _modules(b)
    zero = MapMatrix.zero(QQ, m.space, m.space)
    m0 = HModule(m.space, [zero] * len(m.action))
    v = check_braided_module(b.kmatrix, x, x, m0)
    assert v.axiom == "braided-module-unit"
    assert v == _reference_check(b.kmatrix, x, x, m0)


def test_braided_check_in_small_batches(monkeypatch):
    # a budget below one column's expansion forces one column per batch;
    # the witness must not depend on the batching
    import hopffact.comodule as comodule
    import hopffact.linalg as linalg

    b = named_example("double:C2")
    mods = list(_modules(b))
    mods[2] = _bumped(mods[2], 3, 3, 2)
    whole = check_braided_module(b.kmatrix, *mods)
    monkeypatch.setattr(linalg, "_SLICE_CELLS", 3)
    assert check_braided_module(b.kmatrix, *mods) == whole
    assert comodule._braided_scan(b.kmatrix, *_modules(b))


@pytest.mark.parametrize("which, a, entry, axiom, witness", PINNED_36)
def test_braided_witness_at_dimension_36_does_not_depend_on_the_slab(
        monkeypatch, which, a, entry, axiom, witness):
    # runs of 729 columns, at most one X column's 1,296 and not aligned
    # with them
    import hopffact.linalg as linalg

    monkeypatch.setattr(linalg, "_SLICE_CELLS", 1000)
    b = named_example("double:S3", GF(101))
    mods = list(_modules(b))
    mods[which] = _bumped(mods[which], a, *entry)
    v = check_braided_module(b.kmatrix, *mods)
    assert (v.axiom, v.witness) == (axiom, witness)


def test_braided_verdicts_do_not_depend_on_the_slab(monkeypatch):
    import hopffact.linalg as linalg

    b = named_example("double:C2")
    k = b.kmatrix
    cases = []
    for which in range(3):
        for i in range(4):
            for j in range(4):
                mods = list(_modules(b))
                mods[which] = _bumped(mods[which], 3, i, j)
                cases.append(mods)
    # X ⊕ L with ρ_L(e_1) = ε(e_1) + 1, L last: every action preserves the
    # summands, so only columns at L's X index, the last, can fail
    x, y, m = _modules(b)
    line = _direct_sum(x, _bumped(trivial_module(b.hopf), 1, 0, 0))
    whole = [check_braided_module(k, *mods) for mods in cases + [[line, y, m]]]
    # runs of 1, 4 and 8 of the 16 columns in one X column
    monkeypatch.setattr(linalg, "_SLICE_CELLS", 10)
    for mods, want in zip(cases, whole):
        assert check_braided_module(k, *mods) == want == _reference_check(k, *mods)
    v = check_braided_module(k, line, y, m)
    assert not v and v.witness[0] == line.dim - 1
    assert v == whole[-1] == _reference_check(k, line, y, m)


def _registry_ks(field):
    """(name, bundle) for every registry instance with a K-matrix that
    builds over ``field`` (Sweedler's algebras need characteristic ≠ 2)."""
    for name in registry_names():
        try:
            b = named_example(name, field)
        except HopffactError:
            continue
        if b.kmatrix is not None:
            yield name, b


def _pairs(b):
    """The four (X, Y) of {trivial, regular}²."""
    mods = (trivial_module(b.hopf), regular_module(b.hopf))
    return [(x, y) for x in mods for y in mods]


CERTIFICATE_CASES = [(field, None) for field in (QQ, GF(101), GF(2))] + [(GF(101), "double:S3")]


@pytest.mark.parametrize("field, name", CERTIFICATE_CASES,
                         ids=[f"{f}-{n or 'registry'}" for f, n in CERTIFICATE_CASES])
def test_certificate_agrees_with_the_scan(field, name):
    cases = list(_registry_ks(field)) if name is None else [(name, named_example(name, field))]
    assert cases
    for name, b in cases:
        m = regular_bmodule(b.comodule)
        for x, y in _pairs(b):
            assert check_braided_module(b.kmatrix, x, y, m) == _braided_scan(b.kmatrix, x, y, m), name


def test_certificate_decides_the_registry_without_the_scan(monkeypatch):
    # K passes axioms (i) and (ii) and every module is a representation
    import hopffact.comodule as comodule

    def no_scan(*args):
        raise AssertionError("the column scan ran")

    monkeypatch.setattr(comodule, "_braided_scan", no_scan)
    for _, b in _registry_ks(QQ):
        m = regular_bmodule(b.comodule)
        for x, y in _pairs(b):
            assert check_braided_module(b.kmatrix, x, y, m)


def test_unit_k_fails_axiom_ii_and_is_scanned():
    # K = 1⊗1 passes axiom (i) but not (ii), as R21 R12 ≠ 1 in D(C2), so
    # the certificate does not apply and the scan finds the failing column
    b = named_example("double:C2")
    h, c = b.hopf, b.comodule
    k = KMatrix(c, b.rmatrix, tensor_unit(h.field, (h.space, c.algebra.space),
                                          [h.algebra, c.algebra]))
    assert check_k_matrix(k).axiom == "kmatrix-ii"
    m = regular_bmodule(c)
    got = [check_braided_module(k, x, y, m) for x, y in _pairs(b)]
    assert got == [_reference_check(k, x, y, m) for x, y in _pairs(b)]
    assert [v.ok for v in got] == [True, True, True, False]
    assert (got[3].axiom, got[3].witness) == ("braided-module-2", (0, 2, 0))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_module_braiding_and_z2_on_the_registry(field):
    # e_{X,M} equals Σ c·X_a ⊗ M_b formed densely, term by term
    from hopffact.hopf import kron_matrix

    for name in registry_names():
        b = named_example(name, field)
        if b.kmatrix is None:
            continue
        x, _, m = _modules(b)
        e = module_braiding(b.kmatrix, x, m)
        acc = MapMatrix.zero(field, e.domain, e.codomain)
        for (a, c), cv in b.kmatrix.element.items():
            acc = acc + kron_matrix(x.action[a], m.action[c]).scale(cv)
        assert e == acc, name
        assert z2_membership(b.kmatrix, x) == acc.is_identity(), name


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_kron_sum_on_a_range_of_inputs_is_that_range_of_the_whole(field):
    # both left sides on D(C3)'s regular modules, whose 729 columns
    # have 81 in each X column: ranges inside one X column, across several
    # and at both ends, with X's family whole or cut to the X columns touched
    from hopffact.comodule import _braided_share, _in_columns
    from hopffact.tensors import _kron_sum

    b = named_example("double:C3", field)
    x, _, m = _modules(b)
    dims = [x.dim, x.dim, m.dim]
    plane = dims[1] * dims[2]
    _, terms1, terms2, *_ = _braided_share(b.kmatrix)
    for terms in (terms1, terms2):
        fams = (x.family(), x.family(), m.family())
        (inp, out, val), d = _kron_sum(field, terms, fams, dims)
        assert np.all(np.diff(inp * plane * dims[0] + out) > 0)  # sorted, summed once
        for lo, hi in ((0, 729), (0, 1), (5, 70), (80, 82), (100, 400), (728, 729)):
            at = (inp >= lo) & (inp < hi)
            cut = (_in_columns(fams[0], dims[0], lo // plane, (hi - 1) // plane + 1), *fams[1:])
            for legs in (fams, cut):
                (i, o, v), e = _kron_sum(field, terms, legs, dims, range(lo, hi))
                assert e == d
                assert i.tolist() == inp[at].tolist() and o.tolist() == out[at].tolist()
                assert v.tolist() == val[at].tolist()
