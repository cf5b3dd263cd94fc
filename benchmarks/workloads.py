"""Benchmark workloads: the instances each one runs, built only through
hopffact's public constructors, and the reference outputs every op is
checked against.

``named_example`` is deliberately not used: it memoizes in a module-level
dict, so a second set-up in the same process would time a dict lookup.
"""

from __future__ import annotations

import hopffact as hf

# The registry instances, pinned here so that a change to
# ``registry_names()`` cannot silently change the workload.
REGISTRY = (
    "regular:C2", "regular:C3", "regular:S3",
    "dual:C2", "dual:C3",
    "sweedler:0", "sweedler:1",
    "double:C2", "double:C3",
    "reflective-trivial:C2", "reflective-trivial:C3",
    "subgroup:C2:C1", "subgroup:S3:C2", "subgroup:S3:C3", "subgroup:C1:C1",
    "group:C2", "group:S3",
)

# name -> (field spec, instance names).  BENCHMARK.json lists gf36 and
# q-registry only (README.md says why); ``baseline.py`` runs all four.
WORKLOADS = {
    "gf36": ("gf:101", ("double:S3",)),
    "gf36-reflective": ("gf:101", ("reflective-trivial:S3",)),
    "q-registry": ("q", REGISTRY + (
        "trivial-coaction:C2", "trivial-coaction:S3", "trivial-coaction:C4",
    )),
    "q16": ("q", ("double:C4",)),
}

# Outputs of the unpermuted instances at the benchmark's defining commit.
# Comodule bundles: dim E(H,B), rank θ, weak factorizability
# (source, target, rank, bijective) and the H-simplicity status.
# Hopf-only bundles: the rank of the Drinfeld map.  NotSimple witnesses are
# not pinned (their dimension depends on the field); they are re-verified.
REFERENCE = {
    ("double:S3", "GF(101)"): (36, 36, (8, 8, 8, True), "simple"),
    ("reflective-trivial:S3", "GF(101)"): (36, 36, (8, 8, 8, True), "simple"),
    ("double:C4", "Q"): (16, 16, (16, 16, 16, True), "simple"),
    ("regular:C2", "Q"): (2, 1, (2, 2, 1, False), "simple"),
    ("regular:C3", "Q"): (3, 1, (3, 3, 1, False), "simple"),
    ("regular:S3", "Q"): (6, 1, (3, 3, 1, False), "simple"),
    ("dual:C2", "Q"): 1,
    ("dual:C3", "Q"): 1,
    ("sweedler:0", "Q"): (4, 1, (2, 1, 1, False), "simple"),
    ("sweedler:1", "Q"): (4, 1, (2, 1, 1, False), "simple"),
    ("double:C2", "Q"): (4, 4, (4, 4, 4, True), "simple"),
    ("double:C3", "Q"): (9, 9, (9, 9, 9, True), "simple"),
    ("reflective-trivial:C2", "Q"): (4, 4, (4, 4, 4, True), "simple"),
    ("reflective-trivial:C3", "Q"): (9, 9, (9, 9, 9, True), "simple"),
    ("subgroup:C2:C1", "Q"): (2, 1, (2, 1, 1, False), "simple"),
    ("subgroup:S3:C2", "Q"): (6, 1, (3, 2, 1, False), "simple"),
    ("subgroup:S3:C3", "Q"): (6, 1, (3, 3, 1, False), "simple"),
    ("subgroup:C1:C1", "Q"): (1, 1, (1, 1, 1, True), "simple"),
    ("group:C2", "Q"): 1,
    ("group:S3", "Q"): 1,
    ("trivial-coaction:C2", "Q"): (4, 1, (2, 2, 1, False), "not-simple"),
    ("trivial-coaction:S3", "Q"): (18, 1, (3, 3, 1, False), "not-simple"),
    ("trivial-coaction:C4", "Q"): (16, 1, (4, 4, 1, False), "not-simple"),
}


def field_of(spec: str):
    if spec == "q":
        return hf.QQ
    if spec.startswith("gf:"):
        return hf.GF(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r}")


def _verified(verdict, what):
    if not verdict:
        raise hf.HopffactError(f"{what} failed verification: {verdict.describe()}")


def _trivial_coaction(h):
    """B = H as an algebra with the trivial coaction b ↦ 1 ⊗ b."""
    unit = h.unit_dict()
    coaction = {i: {(u, i): cu for u, cu in unit.items()} for i in range(h.dim)}
    c = hf.ComoduleAlgebra(h, h.algebra, coaction)
    _verified(hf.check_comodule_algebra(c), "trivial-coaction comodule algebra")
    return c


def build(name: str, field) -> hf.ExampleBundle:
    """A fully verified bundle for ``name``, from public constructors only."""
    parts = name.split(":")
    kind = parts[0]
    group = hf.group_by_name(parts[1]) if kind != "sweedler" else None
    r = c = k = None
    if kind in ("regular", "group", "subgroup", "trivial-coaction"):
        h, r = hf.group_algebra(group, field)
        if kind == "regular":
            c = hf.regular_comodule(h)
            k = hf.monodromy_k_matrix(c, r)
        elif kind == "subgroup":
            c = hf.subgroup_comodule(group, parts[2], field, host=h)
            k = hf.trivial_k_matrix(c, r)
        elif kind == "trivial-coaction":
            c = _trivial_coaction(h)
            k = hf.trivial_k_matrix(c, r)
    elif kind == "dual":
        h = hf.dual_group_algebra(group, field)
        r = hf.trivial_r_matrix(h)  # the pinned duals are of abelian groups
        _verified(hf.check_r_matrix(h, r.element), "dual group R-matrix")
    elif kind == "double":
        h, r = hf.drinfeld_double_group(group, field)
        c = hf.regular_comodule(h)
        k = hf.monodromy_k_matrix(c, r)
    elif kind == "reflective-trivial":
        h, r = hf.drinfeld_double_group(group, field)
        data = hf.reflective_algebra(h, r, hf.trivial_comodule(h))
        c, k = data.comodule, data.kmatrix
    elif kind == "sweedler":
        h = hf.sweedler_h4(field)
        r = hf.sweedler_r_matrix(h, field.parse(parts[1]))
        c = hf.regular_comodule(h)
        k = hf.monodromy_k_matrix(c, r)
    else:
        raise ValueError(f"unknown instance {name!r}")
    return hf.ExampleBundle(name, field, h, r, c, k)
