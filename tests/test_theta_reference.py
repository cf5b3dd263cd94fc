"""θ, θ_mod, the adjoint matrices and the right translation of the
reflective algebras against their definitions, written here as loops over
the sparse elements {index: coeff} rather than taken from the
structure-constant tables that the library computes them with."""

import functools

import numpy as np
import pytest

from hopffact.comodule import compute_end_space, theta_comodule, theta_module_category
from hopffact.constructions import _right_translation, named_example, registry_names
from hopffact.errors import HopffactError
from hopffact.fields import GF, QQ
from hopffact.linalg import _dtype, _scalar_rows
from hopffact.tensors import _members
from reference_tables import comult_dict, mult_dict, multiply


def _image(m, x):
    """m(x) for a sparse element x, read off the columns of the matrix m."""
    f = m.field
    rows = m.rows
    out = {}
    for j, cj in x.items():
        for i in range(len(rows)):
            out[i] = f.add(out.get(i, f.zero), f.mul(rows[i][j], cj))
    return {i: c for i, c in out.items() if not f.is_zero(c)}


def _antipode_of(h, x):
    """S(x) for a sparse element x."""
    return _image(h.antipode, x)


def _reference_theta_elements(k, outer_antipode):
    """Σ S(h_(1)) K_i h_(2) ⊗ K^i for every basis h_t, with S applied once
    more to the first leg when ``outer_antipode``, as {(h, b): coeff}."""
    h = k.host
    f, comult = h.field, comult_dict(h.coalgebra)
    mult = functools.partial(multiply, f, mult_dict(h.algebra))
    out = []
    for t in range(h.dim):
        acc = {}
        for (a1, a2), dc in comult.get(t, {}).items():
            s1 = _antipode_of(h, {a1: dc})
            for (u, v), cv in k.element.items():
                left = mult(mult(s1, {u: f.one}), {a2: f.one})
                if outer_antipode:
                    left = _antipode_of(h, left)
                for hh, ch in left.items():
                    acc[(hh, v)] = f.add(acc.get((hh, v), f.zero), f.mul(ch, cv))
        out.append(acc)
    return out


def _reference_maps(k, outer_antipode):
    """The map H → B of the functional h^a, for every a, as
    {(a, r, t): coefficient of b_r in its value at h_t}."""
    f = k.host.field
    out = {}
    for t, element in enumerate(_reference_theta_elements(k, outer_antipode)):
        for (a, r), c in element.items():
            if not f.is_zero(c):
                out[(a, r, t)] = c
    return out


def _maps_of(theta, es):
    """The same dict for a map H* → E(H,B) given in the end-space basis:
    column a of ``theta`` times the basis maps."""
    f = theta.field
    terms = [[(r, t, x) for r, row in enumerate(xi.rows) for t, x in enumerate(row)
              if not f.is_zero(x)] for xi in es.basis_maps]
    out = {}
    for j, row in enumerate(theta.rows):
        for a, cj in enumerate(row):
            if f.is_zero(cj):
                continue
            for r, t, x in terms[j]:
                key = (a, r, t)
                out[key] = f.add(out.get(key, f.zero), f.mul(cj, x))
    return {key: c for key, c in out.items() if not f.is_zero(c)}


def _reference_adjoint(h, t, cop=False):
    """ad(h_t): x ↦ Σ h_(1) x S(h_(2)), as rows; with ``cop`` the adjoint
    action of H^cop, x ↦ Σ h_(2) x S⁻¹(h_(1)), the right translation of the
    reflective algebras."""
    f, n = h.field, h.dim
    mult = functools.partial(multiply, f, mult_dict(h.algebra))
    rows = [[f.zero] * n for _ in range(n)]
    for (a, c), dc in comult_dict(h.coalgebra).get(t, {}).items():
        if cop:
            a, c = c, a
        sc = _image(h.antipode_inv if cop else h.antipode, {c: dc})
        for x in range(n):
            for k, v in mult(mult({a: f.one}, {x: f.one}), sc).items():
                rows[k][x] = f.add(rows[k][x], v)
    return tuple(map(tuple, rows))


def _matrix_rows(h, fam):
    """The matrices of a family keyed row·n + column, as rows."""
    f, n = h.field, h.dim
    stack = np.zeros((fam[0].size, n * n), dtype=_dtype(f))
    stack[_members(fam), fam[2]] = fam[3]
    return [tuple(map(tuple, _scalar_rows(f, s.reshape(n, n)))) for s in stack]


def _bundles(field):
    for name in registry_names():
        try:
            yield named_example(name, field)
        except HopffactError:  # Sweedler's algebra needs characteristic ≠ 2
            continue


def _assert_matches_the_reference(b):
    h = b.hopf
    assert [m.rows for m in h.adjoint_module().action] == [_reference_adjoint(h, t)
                                                           for t in range(h.dim)], b.name
    assert _matrix_rows(h, _right_translation(h)) == [_reference_adjoint(h, t, cop=True)
                                                      for t in range(h.dim)], b.name
    if b.kmatrix is None:
        return
    es = compute_end_space(b.comodule)
    assert _maps_of(theta_comodule(b.kmatrix, es), es) == _reference_maps(b.kmatrix, False), b.name
    assert _maps_of(theta_module_category(b.kmatrix, es), es) == \
        _reference_maps(b.kmatrix, True), b.name


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2)], ids=str)
def test_theta_and_adjoint_equal_their_definitions_on_the_registry(field):
    for b in _bundles(field):
        _assert_matches_the_reference(b)


def test_theta_and_adjoint_equal_their_definitions_at_dimension_36():
    _assert_matches_the_reference(named_example("double:S3", GF(101)))
