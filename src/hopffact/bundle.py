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
import operator
import re
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .algebras import StructAlgebra, StructCoalgebra
from .comodule import ComoduleAlgebra
from .constructions import ExampleBundle
from .errors import BundleFormatError, HopffactError, NoAntipode
from .fields import Field, field_from_spec, field_to_spec
from .hopf import HopfAlgebra, solve_antipode
from .linalg import BasedSpace, MapMatrix, _dtype, _scalar_rows
from .tensors import TensorElement, _columns, _element, _linear_op, _members, _table


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


def _parse_rows(field, rows, dims, where, at=None):
    """The columns of term rows (indices…, c) with the coefficients parsed,
    as ``tensors._table`` takes them.  The first row with an index out of
    range or a bad coefficient raises, naming ``at`` or the row's indices
    as its place."""
    *idx, raw = zip(*rows) if rows else [()] * (len(dims) + 1)
    stop = len(rows)
    if not all(min(col) >= 0 and max(col) < d for col, d in zip(idx, dims) if col):
        stop = next(p for p, row in enumerate(rows)
                    if min(row[:-1]) < 0 or any(map(operator.ge, row[:-1], dims)))
    try:
        coeffs = list(map(field.parse, raw[:stop]))
    except (HopffactError, ValueError, ZeroDivisionError):
        for row in rows:  # raises at the first bad coefficient, naming its place
            _parse_coeff(field, row[-1], at or f"{where}{row[:-1]}")
    if stop < len(rows):
        raise BundleFormatError(f"{where}: index out of range in {rows[stop]}")
    return [*idx, coeffs]


def _parse_table(field, rows, dims_in, dims_out, where, at=None):
    """Term rows as a family (``tensors._table``): duplicates summed, zeros
    dropped."""
    return _table(field, _parse_rows(field, rows, (*dims_in, *dims_out), where, at),
                  dims_in, dims_out)


def _parse_algebra(field, doc, where) -> StructAlgebra:
    dim = int(doc["dim"])
    basis = doc["basis"]
    if len(basis) != dim:
        raise BundleFormatError(f"{where}: basis has {len(basis)} labels, dim is {dim}")
    try:
        sp = BasedSpace(tuple(basis))
    except HopffactError as exc:
        raise BundleFormatError(f"{where}: {exc}") from exc
    mult = _parse_table(field, doc["mult"], (dim, dim), (dim,), f"{where}.mult")
    unit = _parse_vec(field, doc["unit"], dim, f"{where}.unit")
    try:
        return StructAlgebra(field, sp, mult, unit)
    except HopffactError as exc:
        raise BundleFormatError(f"{where}: {exc}") from exc


def _parse_triples(field, raw, dims, spaces, where) -> TensorElement:
    cols = [(0,) * len(raw), *_parse_rows(field, raw, dims, where)]
    return _element(field, spaces, _table(field, cols, (1,), dims))


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
    comult = _parse_table(field, hdoc["comult"], (dim,), (dim, dim), "hopf.comult")
    counit = _parse_vec(field, hdoc["counit"], dim, "hopf.counit")
    coalg = StructCoalgebra(field, alg.space, comult, counit)
    if "antipode" in hdoc:
        s = _parse_table(field, hdoc["antipode"], (dim,), (dim,), "hopf.antipode",
                         at="hopf.antipode")
        rows = np.zeros((dim, dim), dtype=_dtype(field))
        rows[_members(s), s[2]] = s[3]
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
        coaction = _parse_table(field, cdoc["coaction"], (balg.dim,), (dim, balg.dim),
                                "comodule.coaction", at="comodule.coaction")
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


def _table_doc(field, fam, dims_in, dims_out):
    """The rows (indices…, c) of a family, element by element and keys
    ascending within an element, as the family stores them."""
    g, *out, val = _columns(fam, dims_out)
    rows = np.stack((*np.unravel_index(g, dims_in), *out), axis=1).tolist()
    return [row + [_fmt(field, c)] for row, c in zip(rows, _scalar_rows(field, val[None])[0])]


def _algebra_doc(field, alg: StructAlgebra):
    n = alg.dim
    return {
        "dim": n,
        "basis": list(alg.space.labels),
        "mult": _table_doc(field, alg.mult_op(), (n, n), (n,)),
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
    n = hopf.dim
    hdoc["comult"] = _table_doc(field, hopf.coalgebra.comult_op(), (n,), (n, n))
    hdoc["counit"] = [_fmt(field, x) for x in hopf.coalgebra.counit]
    hdoc["antipode"] = _table_doc(field, _linear_op(field, hopf.antipode.array.T), (n,), (n,))
    doc["hopf"] = hdoc
    r_elt = getattr(bundle, "rmatrix_element", None)
    if r_elt is None and getattr(bundle, "rmatrix", None) is not None:
        r_elt = bundle.rmatrix.element
    if r_elt is not None:
        doc["rmatrix"] = _triples_doc(field, r_elt)
    comodule = bundle.comodule
    if comodule is not None:
        cdoc = _algebra_doc(field, comodule.algebra)
        cdoc["coaction"] = _table_doc(field, comodule.coaction_op(), (comodule.dim,),
                                      (n, comodule.dim))
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
