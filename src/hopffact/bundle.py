"""Reading and writing algebra bundles as JSON documents.

A bundle holds the structure constants of a Hopf algebra and, optionally, an
R-matrix, a comodule algebra, and a K-matrix, over Q or GF(p).  The format
is specified by the JSON Schema shipped as ``bundle_schema.json``.  Loading
checks a valid document per term (the validator sees only its skeleton) and
validates a refused one whole, to report the validator's message and
position; it also range-checks all indices and parses coefficients exactly.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .algebras import StructAlgebra, StructCoalgebra
from .comodule import ComoduleAlgebra
from .constructions import ExampleBundle
from .errors import BundleFormatError, HopffactError, NoAntipode
from .fields import Field, field_from_spec, field_to_spec
from .hopf import HopfAlgebra, solve_antipode
from .linalg import BasedSpace, MapMatrix
from .tensors import TensorElement


@dataclass(frozen=True)
class LoadedBundle:
    """Deserialized (but not axiom-checked) bundle components."""

    field: Field
    hopf: HopfAlgebra
    rmatrix_element: TensorElement | None
    comodule: ComoduleAlgebra | None
    kmatrix_element: TensorElement | None


@functools.cache
def _validator():
    """The bundle schema's validator, built once after one check_schema."""
    text = resources.files("hopffact").joinpath("bundle_schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# Row length of each term array, by section (None: the top level; 0: a coefficient vector)
_TERMS = {
    "hopf": {"mult": 4, "unit": 0, "comult": 4, "counit": 0, "antipode": 3},
    "comodule": {"mult": 4, "unit": 0, "coaction": 4},
    None: {"rmatrix": 3, "kmatrix": 3},
}


def _term_arrays(doc):
    for name, keys in _TERMS.items():
        section = doc if name is None else doc.get(name)
        if isinstance(section, dict):
            yield from ((section, k, n) for k, n in keys.items() if isinstance(section.get(k), list))


def _fast_valid(doc) -> bool:
    """True only if the schema accepts doc.  The validator checks a copy with
    the term arrays emptied; a loop checks each row and coefficient by the
    schema's rules, matching the coefficient pattern by re.search as jsonschema does."""
    skeleton = {k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()}
    terms = []
    for section, key, n in _term_arrays(skeleton):
        terms.append((section[key], n))
        section[key] = []
    search = re.compile(_validator().schema["$defs"]["coeff"]["oneOf"][1]["pattern"]).search
    def is_coeff(c):
        return type(c) is int or type(c) is str and search(c) is not None
    return _validator().is_valid(skeleton) and all(
        all(map(is_coeff, rows)) if n == 0 else all(
            type(row) is list and len(row) == n and is_coeff(row[-1])
            and all(type(i) is int and i >= 0 for i in row[:-1]) for row in rows)
        for rows, n in terms)


def _parse_coeff(field, raw, where):
    try:
        return field.parse(raw)
    except (HopffactError, ValueError, ZeroDivisionError) as exc:
        raise BundleFormatError(f"bad coefficient {raw!r} at {where}: {exc}") from exc


def _parse_vec(field, raw, dim, where):
    if len(raw) != dim:
        raise BundleFormatError(f"{where}: expected {dim} coefficients, got {len(raw)}")
    return tuple(_parse_coeff(field, x, where) for x in raw)


def _parse_algebra(field, doc, where) -> StructAlgebra:
    dim = int(doc["dim"])
    basis = doc["basis"]
    if len(basis) != dim:
        raise BundleFormatError(f"{where}: basis has {len(basis)} labels, dim is {dim}")
    try:
        sp = BasedSpace(tuple(basis))
    except HopffactError as exc:
        raise BundleFormatError(f"{where}: {exc}") from exc
    mult: dict = {}
    for row in doc["mult"]:
        i, j, k, c = row
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise BundleFormatError(f"{where}.mult: index out of range in {row}")
        coeff = _parse_coeff(field, c, f"{where}.mult{row[:3]}")
        entry = mult.setdefault((i, j), {})
        entry[k] = field.add(entry.get(k, field.zero), coeff)
    unit = _parse_vec(field, doc["unit"], dim, f"{where}.unit")
    try:
        return StructAlgebra(field, sp, mult, unit)
    except HopffactError as exc:
        raise BundleFormatError(f"{where}: {exc}") from exc


def _parse_triples(field, raw, dims, spaces, where) -> TensorElement:
    coeffs: dict = {}
    for row in raw:
        i, j, c = row
        if not (0 <= i < dims[0] and 0 <= j < dims[1]):
            raise BundleFormatError(f"{where}: index out of range in {row}")
        coeff = _parse_coeff(field, c, f"{where}{row[:2]}")
        key = (i, j)
        coeffs[key] = field.add(coeffs.get(key, field.zero), coeff)
    return TensorElement(field, spaces, coeffs)


def loads(text: str) -> LoadedBundle:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleFormatError(f"not valid JSON: line {exc.lineno} column {exc.colno}") from exc
    if not (isinstance(doc, dict) and _fast_valid(doc)):
        error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
        if error is not None:
            path = "/".join(str(p) for p in error.absolute_path)
            raise BundleFormatError(f"schema violation at /{path}: {error.message}") from error
        for section, key, n in _term_arrays(doc):
            if n:  # JSON Schema's integers include 1.0
                section[key] = [[int(i) for i in row[:-1]] + row[-1:] for row in section[key]]
    try:
        field = field_from_spec(doc["field"])
    except HopffactError as exc:
        raise BundleFormatError(f"field: {exc}") from exc
    hdoc = doc["hopf"]
    dim = int(hdoc["dim"])
    alg = _parse_algebra(field, hdoc, "hopf")
    comult: dict = {}
    for row in hdoc["comult"]:
        i, j, k, c = row
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise BundleFormatError(f"hopf.comult: index out of range in {row}")
        coeff = _parse_coeff(field, c, f"hopf.comult{row[:3]}")
        entry = comult.setdefault(i, {})
        key = (j, k)
        entry[key] = field.add(entry.get(key, field.zero), coeff)
    counit = _parse_vec(field, hdoc["counit"], dim, "hopf.counit")
    coalg = StructCoalgebra(field, alg.space, comult, counit)
    if "antipode" in hdoc:
        rows = [[field.zero] * dim for _ in range(dim)]
        for row in hdoc["antipode"]:
            i, j, c = row
            if not (0 <= i < dim and 0 <= j < dim):
                raise BundleFormatError(f"hopf.antipode: index out of range in {row}")
            rows[i][j] = field.add(rows[i][j], _parse_coeff(field, c, "hopf.antipode"))
        antipode = MapMatrix(field, alg.space, alg.space, rows)
    else:
        try:
            antipode = solve_antipode(alg, coalg)
        except NoAntipode as exc:
            raise BundleFormatError(f"hopf: no antipode can be solved: {exc}") from exc
    hopf = HopfAlgebra(alg, coalg, antipode)  # S⁻¹ is computed on first use
    r_elt = None
    if "rmatrix" in doc:
        r_elt = _parse_triples(
            field, doc["rmatrix"], (dim, dim), (alg.space, alg.space), "rmatrix"
        )
    comodule = None
    if "comodule" in doc:
        cdoc = doc["comodule"]
        balg = _parse_algebra(field, cdoc, "comodule")
        bdim = balg.dim
        coaction: dict = {}
        for row in cdoc["coaction"]:
            b, hh, b2, c = row
            if not (0 <= b < bdim and 0 <= hh < dim and 0 <= b2 < bdim):
                raise BundleFormatError(f"comodule.coaction: index out of range in {row}")
            coeff = _parse_coeff(field, c, "comodule.coaction")
            entry = coaction.setdefault(b, {})
            key = (hh, b2)
            entry[key] = field.add(entry.get(key, field.zero), coeff)
        comodule = ComoduleAlgebra(hopf, balg, coaction)
    k_elt = None
    if "kmatrix" in doc:
        if comodule is None:
            raise BundleFormatError("kmatrix requires a comodule section")
        k_elt = _parse_triples(
            field,
            doc["kmatrix"],
            (dim, comodule.dim),
            (alg.space, comodule.algebra.space),
            "kmatrix",
        )
    if r_elt is None and k_elt is not None:
        raise BundleFormatError("kmatrix requires an rmatrix section")
    return LoadedBundle(field, hopf, r_elt, comodule, k_elt)


def load_path(path: str) -> LoadedBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BundleFormatError(f"cannot read {path}: {exc}", path) from exc
    return loads(text)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(field, x):
    s = field.format(x)
    return int(s) if "/" not in s else s


def _algebra_doc(field, alg: StructAlgebra):
    mult = []
    for (i, j) in sorted(alg.mult):
        for k in sorted(alg.mult[(i, j)]):
            mult.append([i, j, k, _fmt(field, alg.mult[(i, j)][k])])
    return {
        "dim": alg.dim,
        "basis": list(alg.space.labels),
        "mult": mult,
        "unit": [_fmt(field, x) for x in alg.unit],
    }


def _triples_doc(field, t: TensorElement):
    return [[i, j, _fmt(field, c)] for (i, j), c in t.items()]


def dumps(bundle) -> str:
    """Serialize an ExampleBundle or LoadedBundle deterministically."""
    field = bundle.field
    hopf = bundle.hopf
    doc: dict = {"field": field_to_spec(field)}
    hdoc = _algebra_doc(field, hopf.algebra)
    comult = []
    for i in range(hopf.dim):
        for (j, k) in sorted(hopf.comult_basis(i)):
            comult.append([i, j, k, _fmt(field, hopf.comult_basis(i)[(j, k)])])
    hdoc["comult"] = comult
    hdoc["counit"] = [_fmt(field, x) for x in hopf.coalgebra.counit]
    antipode = []
    for i, row in enumerate(hopf.antipode.rows):
        for j, c in enumerate(row):
            if not field.is_zero(c):
                antipode.append([i, j, _fmt(field, c)])
    hdoc["antipode"] = antipode
    doc["hopf"] = hdoc
    r_elt = getattr(bundle, "rmatrix_element", None)
    if r_elt is None and getattr(bundle, "rmatrix", None) is not None:
        r_elt = bundle.rmatrix.element
    if r_elt is not None:
        doc["rmatrix"] = _triples_doc(field, r_elt)
    comodule = bundle.comodule
    if comodule is not None:
        cdoc = _algebra_doc(field, comodule.algebra)
        coaction = []
        for b in range(comodule.dim):
            for (hh, b2) in sorted(comodule.coaction_basis(b)):
                coaction.append(
                    [b, hh, b2, _fmt(field, comodule.coaction_basis(b)[(hh, b2)])]
                )
        cdoc["coaction"] = coaction
        doc["comodule"] = cdoc
    k_elt = getattr(bundle, "kmatrix_element", None)
    if k_elt is None and getattr(bundle, "kmatrix", None) is not None:
        k_elt = bundle.kmatrix.element
    if k_elt is not None:
        doc["kmatrix"] = _triples_doc(field, k_elt)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def dump_path(bundle, path: str):
    text = dumps(bundle)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def example_to_loaded(b: ExampleBundle) -> LoadedBundle:
    return LoadedBundle(
        b.field,
        b.hopf,
        b.rmatrix.element if b.rmatrix is not None else None,
        b.comodule,
        b.kmatrix.element if b.kmatrix is not None else None,
    )
