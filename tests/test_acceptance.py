"""Acceptance suite: one test per criterion, exact equality throughout.

Every criterion prints one ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest -s``).  Budgeted criteria measure wall-clock time and
assert the stated limits.  The corpus spans the registry examples over Q
plus the S3-sized instances over GF(101).
"""

import functools
import time

import pytest

from hopffact import bundle as bundle_io
from hopffact.cli import main as cli_main
from hopffact.comodule import (
    check_braided_module,
    check_comodule_algebra,
    check_k_matrix,
    compute_end_space,
    h_simplicity,
    is_factorizable_comodule,
    omega_copairing,
    regular_bmodule,
    theta_comodule,
    theta_module_category,
    weak_factorizability,
)
from hopffact.constructions import (
    ExampleBundle,
    drinfeld_double_group,
    dual_group_algebra,
    group_algebra,
    monodromy_k_matrix,
    named_example,
    reflective_algebra,
    registry_names,
    regular_comodule,
    sweedler_h4,
    sweedler_r_matrix,
    trivial_comodule,
    trivial_k_matrix,
)
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group, group_by_name, symmetric_group
from hopffact.hopf import check_hopf, regular_module, trivial_module
from hopffact.linalg import LINALG_STATS, MapMatrix
from hopffact.rmatrix import check_r_matrix, drinfeld_map, trivial_r_matrix
from reference_tables import coaction_dict, mult_dict

GF101 = GF(101)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[acceptance] criterion {number} ({description}): FAIL ({exc})")
                raise
            print(f"[acceptance] criterion {number} ({description}): PASS")
        return run
    return wrap


def _dual_regular_bundle(gname):
    h = dual_group_algebra(group_by_name(gname))
    r = trivial_r_matrix(h)
    c = regular_comodule(h)
    k = monodromy_k_matrix(c, r)
    return ExampleBundle(f"dual-regular:{gname}", QQ, h, r, c, k)


def _trivial_b_bundle(label, h, r):
    c = trivial_comodule(h)
    k = trivial_k_matrix(c, r)
    return ExampleBundle(label, h.field, h, r, c, k)


@pytest.fixture(scope="module")
def corpus():
    """All (B, K) pairs the criteria quantify over."""
    entries = []
    for name in ("regular:C2", "regular:C3", "regular:S3",
                 "sweedler:0", "sweedler:1",
                 "double:C2", "double:C3",
                 "subgroup:C2:C1", "subgroup:S3:C2", "subgroup:S3:C3",
                 "subgroup:C1:C1",
                 "reflective-trivial:C2", "reflective-trivial:C3"):
        entries.append(named_example(name))
    entries.append(_dual_regular_bundle("C2"))
    entries.append(_dual_regular_bundle("C3"))
    hc2, rc2 = group_algebra(cyclic_group(2))
    entries.append(_trivial_b_bundle("trivial-B:kC2", hc2, rc2))
    hs3, rs3 = group_algebra(symmetric_group(3))
    entries.append(_trivial_b_bundle("trivial-B:kS3", hs3, rs3))
    h4 = sweedler_h4()
    entries.append(_trivial_b_bundle("trivial-B:sweedler0", h4, sweedler_r_matrix(h4, 0)))
    entries.append(named_example("double:S3", GF101))
    entries.append(named_example("reflective-trivial:S3", GF101))
    return entries


_end_cache = {}


def end_space_of(bundle):
    key = (bundle.name, bundle.field.tag)
    if key not in _end_cache:
        _end_cache[key] = compute_end_space(bundle.comodule)
    return _end_cache[key]


@criterion(1, "axiom suite")
def test_criterion_1_axiom_suite(corpus):
    t0 = time.monotonic()
    # Hopf + R-matrix over Q: kG, (kG)*, Sweedler λ∈{0,1}, D(C2), D(C3)
    hopf_cases = []
    for gname in ("C2", "C3", "S3"):
        hopf_cases.append(named_example(f"group:{gname}"))
    for gname in ("C2", "C3"):
        hopf_cases.append(named_example(f"dual:{gname}"))
    for lam in ("0", "1"):
        hopf_cases.append(named_example(f"sweedler:{lam}"))
    for gname in ("C2", "C3"):
        hopf_cases.append(named_example(f"double:{gname}"))
    for b in hopf_cases:
        assert check_hopf(b.hopf), b.name
        if b.rmatrix is not None:
            assert check_r_matrix(b.hopf, b.rmatrix.element), b.name
    # (kS3)* is still a Hopf algebra (no R-matrix can exist: it is
    # commutative but not cocommutative)
    assert check_hopf(dual_group_algebra(symmetric_group(3)))
    # comodule + K-matrix over Q, including the dual-group-algebra hosts
    q_bundles = [named_example(name) for name in (
        "regular:C2", "regular:C3", "regular:S3", "sweedler:0",
        "sweedler:1", "double:C2", "double:C3",
        "subgroup:C2:C1", "subgroup:S3:C2", "subgroup:S3:C3",
        "reflective-trivial:C2", "reflective-trivial:C3")]
    q_bundles += [_dual_regular_bundle("C2"), _dual_regular_bundle("C3")]
    for b in q_bundles:
        assert check_comodule_algebra(b.comodule), b.name
        assert check_k_matrix(b.kmatrix), b.name
    q_elapsed = time.monotonic() - t0
    assert q_elapsed < 10.0, f"Q axiom suite took {q_elapsed:.1f}s (budget 10s)"
    # GF(101): D(S3) and its reflective algebra, built fresh and checked
    t1 = time.monotonic()
    h36, r36 = drinfeld_double_group(symmetric_group(3), GF101)
    assert check_hopf(h36)
    assert check_r_matrix(h36, r36.element)
    c36 = regular_comodule(h36)
    k36 = monodromy_k_matrix(c36, r36)
    assert check_comodule_algebra(c36)
    assert check_k_matrix(k36)
    data = reflective_algebra(h36, r36, trivial_comodule(h36))
    assert check_comodule_algebra(data.comodule)
    assert check_k_matrix(data.kmatrix)
    gf_elapsed = time.monotonic() - t1
    assert gf_elapsed < 60.0, f"GF(101) S3 suite took {gf_elapsed:.1f}s (budget 60s)"


@criterion(2, "Drinfeld-map equality")
def test_criterion_2_drinfeld_equality(corpus):
    # the five quasitriangular families with B = H and the double braiding
    names = ["regular:C2", "regular:C3", "regular:S3",
             "sweedler:0", "sweedler:1", "double:C2", "double:C3"]
    cases = [named_example(n) for n in names]
    cases += [b for b in corpus if b.name.startswith("dual-regular:")]
    cases += [b for b in corpus if b.name == "double:S3"]
    for b in cases:
        es = end_space_of(b)
        theta = theta_comodule(b.kmatrix, es)
        ev = es.evaluation_at_unit()
        dm = drinfeld_map(b.rmatrix)
        assert (ev @ theta).rows == dm.matrix.rows, b.name


@criterion(3, "theta identity")
def test_criterion_3_theta_identity(corpus):
    for b in corpus:
        es = end_space_of(b)
        theta = theta_comodule(b.kmatrix, es)
        theta_mod = theta_module_category(b.kmatrix, es)
        f = b.field
        sdual = MapMatrix(
            f, b.hopf.space.dual(), b.hopf.space.dual(),
            tuple(zip(*b.hopf.antipode.rows)),
        )
        assert theta_mod.rows == (theta @ sdual).rows, b.name
        assert theta_mod.rank() == theta.rank(), b.name


@criterion(4, "triangular collapse")
def test_criterion_4_triangular_collapse(corpus):
    from hopffact.tensors import tensor_unit

    seen = 0
    for b in corpus:
        unit = tensor_unit(
            b.field,
            (b.hopf.space, b.comodule.algebra.space),
            [b.hopf.algebra, b.comodule.algebra],
        )
        if b.kmatrix.element != unit:
            continue
        seen += 1
        es = end_space_of(b)
        theta = theta_comodule(b.kmatrix, es)
        assert theta.rank() == 1, b.name
        fact = is_factorizable_comodule(b.kmatrix, es)
        assert fact == (b.hopf.dim == 1), b.name
    assert seen >= 8  # regular kG, duals, sweedler, subgroup, trivial-B


@criterion(5, "subgroup non-factorizability")
def test_criterion_5_subgroup_nonfactorizability():
    expected = {
        "subgroup:C2:C1": False,
        "subgroup:S3:C2": False,
        "subgroup:S3:C3": False,
        "subgroup:C1:C1": True,
    }
    for name, want in expected.items():
        b = named_example(name)
        assert is_factorizable_comodule(b.kmatrix) == want, name


@criterion(6, "end-space dimension")
def test_criterion_6_end_space_dimension(corpus):
    certified = 0
    for b in corpus:
        verdict = h_simplicity(b.comodule)
        if not verdict.is_simple:
            continue
        certified += 1
        es = end_space_of(b)
        assert es.dim == b.hopf.dim, b.name
        if b.comodule.algebra.space.labels == b.hopf.space.labels:
            # E(H,H) ≅ H via evaluation at the unit
            assert es.evaluation_at_unit().rank() == b.hopf.dim, b.name
    assert certified >= 10


@criterion(7, "reflective algebra regression")
def test_criterion_7_reflective_regression():
    for gname, field in (("C2", QQ), ("C3", QQ)):
        _reflective_checks(gname, field)
    t0 = time.monotonic()
    _reflective_checks("S3", GF101)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"S3 reflective run took {elapsed:.1f}s (budget 120s)"


def _reflective_checks(gname, field):
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
                cond = g.mul(g.mul(g.mul(g.mul(iy, ix), y), x), y)
                for yp in range(n):
                    got = mult.get((widx(x, y), widx(xp, yp)), {})
                    if yp != cond:
                        assert got == {}, (gname, x, y, xp, yp)
                    else:
                        coeff = g.mul(g.mul(g.mul(g.mul(g.mul(g.mul(g.mul(
                            iy, x), y), xp), iy), ix), y), x)
                        assert got == {widx(coeff, y): f.one}, (gname, x, y, xp, yp)
            got = coaction.get(widx(x, y), {})
            expected = {}
            for gg in range(n):
                h_leg = widx(gg, g.mul(g.mul(iy, x), y))
                b_leg = widx(g.mul(g.mul(g.inv(gg), x), gg), g.mul(g.inv(gg), y))
                expected[(h_leg, b_leg)] = f.one
            assert got == expected, (gname, x, y)
    expect_k = {(widx(a, c), widx(a, c)): f.one for a in range(n) for c in range(n)}
    assert dict(b.kmatrix.element.items()) == expect_k, gname
    assert h_simplicity(B).is_simple, gname
    es = end_space_of(b)
    assert is_factorizable_comodule(b.kmatrix, es), gname


@criterion(8, "copairing invariance")
def test_criterion_8_copairing_invariance(corpus):
    for b in corpus:
        es = end_space_of(b)
        omega_copairing(b.kmatrix, es)  # raises unless h·ω = ε(h)ω holds


@criterion(9, "weak-factorizability implication")
def test_criterion_9_weak_factorizability_implication(corpus):
    factorizable_seen = 0
    for b in corpus:
        es = end_space_of(b)
        wf = weak_factorizability(b.kmatrix, es)
        if is_factorizable_comodule(b.kmatrix, es):
            factorizable_seen += 1
            assert wf.bijective, b.name
    assert factorizable_seen >= 5


@criterion(10, "braided-module instance checks")
def test_criterion_10_braided_module_instances(corpus):
    for b in corpus:
        x = regular_module(b.hopf)
        t = trivial_module(b.hopf)
        m = regular_bmodule(b.comodule)
        for left in (t, x):
            for right in (t, x):
                v = check_braided_module(b.kmatrix, left, right, m)
                assert v, (b.name, v.describe())


@criterion(11, "round-trip and rank-nullity")
def test_criterion_11_round_trip_and_rank_nullity(tmp_path):
    import contextlib
    import io

    for name in registry_names():
        b = named_example(name)
        path = tmp_path / (name.replace(":", "_") + ".json")
        bundle_io.dump_path(b, str(path))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["check", str(path), "--all"])
        assert code == 0, name
        # serialize → parse → serialize is byte-stable
        loaded = bundle_io.load_path(str(path))
        assert bundle_io.dumps(loaded) == path.read_text()
    assert LINALG_STATS["rank_nullity_checks"] > 0
    assert LINALG_STATS["eliminations"] > 0
