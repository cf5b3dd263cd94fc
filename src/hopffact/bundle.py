"""Reading and writing algebra bundles as JSON documents.

A bundle holds the structure constants of a Hopf algebra and, optionally, an
R-matrix, a comodule algebra, and a K-matrix, over Q or GF(p).  The format
is specified by the JSON Schema shipped as ``bundle_schema.json``.  Loading
checks a valid document in one walk by hand (``_fast_valid``: the keys of
each object, the field, and every term array by column), and jsonschema is
imported only to explain a refusal: a document the walk refuses is validated
whole, to report the validator's message and position.  Loading also
range-checks all indices and parses coefficients exactly, from the columns
the walk made.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .algebras import StructAlgebra, StructCoalgebra
from .comodule import ComoduleAlgebra
from .constructions import ExampleBundle
from .errors import BundleFormatError, HopffactError, NoAntipode
from .fields import Field, PrimeField, field_from_spec, field_to_spec
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
def _schema() -> dict:
    return json.loads(resources.files("hopffact").joinpath("bundle_schema.json").read_text())


@functools.cache
def _validator():
    """The bundle schema's validator, built once after one check_schema."""
    import jsonschema

    cls = jsonschema.validators.validator_for(_schema())
    cls.check_schema(_schema())
    return cls(_schema())


@functools.cache
def _coeff_search():
    """re.search with the schema's coefficient pattern, as jsonschema matches it."""
    return re.compile(_schema()["$defs"]["coeff"]["oneOf"][1]["pattern"]).search


# Row length of each term array, by section (None: the top level; 0: a coefficient vector)
_TERMS = {
    "hopf": {"mult": 4, "unit": 0, "comult": 4, "counit": 0, "antipode": 3},
    "comodule": {"mult": 4, "unit": 0, "coaction": 4},
    None: {"rmatrix": 3, "kmatrix": 3},
}


def _term_arrays(doc):
    """(place, section, key, row length) of every term array in doc; the
    place names the array in messages, as "hopf.mult" or "rmatrix"."""
    for name, keys in _TERMS.items():
        section = doc if name is None else doc.get(name)
        if isinstance(section, dict):
            yield from ((f"{name}.{k}" if name else k, section, k, n)
                        for k, n in keys.items() if k in section)


def _term_columns(rows, n: int):
    """The columns of term rows of n entries each."""
    return list(zip(*rows)) or [()] * n


def _keys_valid(obj, schema) -> bool:
    return (type(obj) is dict
            and set(schema["required"]) <= obj.keys() <= schema["properties"].keys())


def _field_valid(spec) -> bool:
    if type(spec) is str:
        return spec == "Q"
    return (type(spec) is dict and spec.keys() == {"GFp"}
            and type(spec["GFp"]) is int and spec["GFp"] >= 2)


def _algebra_valid(section, schema) -> bool:
    """The keys of a hopf or comodule section, its dim and its basis."""
    return (_keys_valid(section, schema) and type(section["dim"]) is int and section["dim"] >= 1
            and type(section["basis"]) is list and set(map(type, section["basis"])) <= {str})


def _coeffs_valid(col) -> bool:
    types = set(map(type, col))
    return types <= {int} or types <= {int, str} and all(
        map(_coeff_search(), (c for c in col if type(c) is str)))


def _fast_valid(doc):
    """(rows, columns) of every term array of rows (not the coefficient
    vectors), by place (``_term_arrays``), if a walk by hand finds that the
    schema accepts doc; else None, and the schema may still accept doc (it
    counts 1.0 as an integer).

    The walk checks the schema's rules, and is stricter where JSON Schema is
    lenient: the keys of each object against its required and allowed ones,
    the field, each dim (an int ≥ 1) and basis (strings), and each term
    array by column with ``set(map(type, …))`` and ``min``: rows are lists
    of their length, indices ints ≥ 0, and coefficients ints or strings
    that the schema's pattern matches.
    """
    schema = _schema()
    if not (_keys_valid(doc, schema) and _field_valid(doc["field"])):
        return None
    if not all(_algebra_valid(doc[name], schema["properties"][name])
               for name in ("hopf", "comodule") if name in doc):
        return None
    terms = {}
    for place, section, key, n in _term_arrays(doc):
        rows = section[key]
        if type(rows) is not list:
            return None
        if not n:
            if not _coeffs_valid(rows):
                return None
            continue
        if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {n}):
            return None
        *idx, coeffs = cols = _term_columns(rows, n)
        if not (all(set(map(type, c)) <= {int} and min(c, default=0) >= 0 for c in idx)
                and _coeffs_valid(coeffs)):
            return None
        terms[place] = rows, cols
    return terms


def _refused(doc) -> dict:
    """``_fast_valid``'s (rows, columns) for a document it refused; raises
    BundleFormatError with the validator's message if the schema refuses
    the document too."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path)
        raise BundleFormatError(f"schema violation at /{path}: {error.message}") from error
    terms = {}
    for place, section, key, n in _term_arrays(doc):
        if n:  # JSON Schema's integers include 1.0
            rows = [[int(i) for i in row[:-1]] + row[-1:] for row in section[key]]
            terms[place] = rows, _term_columns(rows, n)
    return terms


def _parse_coeff(field, raw, where):
    try:
        return field.parse(raw)
    except (HopffactError, ValueError, ZeroDivisionError) as exc:
        raise BundleFormatError(f"bad coefficient {raw!r} at {where}: {exc}") from exc


def _parse_vec(field, raw, dim, where):
    if len(raw) != dim:
        raise BundleFormatError(f"{where}: expected {dim} coefficients, got {len(raw)}")
    return tuple(_parse_coeff(field, x, where) for x in raw)


def _coefficients(field, raw):
    """A column of coefficients as field values.  An all-int column becomes
    one int64 array, taken as it is over Q (``linalg._field_array`` turns
    an integer array into Python ints in one step) and reduced to residues
    over GF(p); any other column, or one with an int beyond int64, is
    parsed entry by entry."""
    if set(map(type, raw)) <= {int}:
        try:
            ints = np.array(raw, dtype=np.int64)
        except OverflowError:  # an int beyond int64
            pass
        else:
            return ints % field.p if isinstance(field, PrimeField) else ints
    return list(map(field.parse, raw))


def _parse_rows(field, rows, cols, dims, where, at=None):
    """The columns ``cols`` of term rows (indices ≥ 0…, c) with the
    coefficients parsed (``_coefficients``), as ``tensors._table`` takes
    them.  The first row with an index out of range or a bad coefficient
    raises, naming ``at`` or the row's indices as its place."""
    *idx, raw = cols
    stop = len(rows)
    if not all(max(col) < d for col, d in zip(idx, dims) if col):
        stop = next(p for p, row in enumerate(rows) if any(map(operator.ge, row[:-1], dims)))
    try:
        coeffs = _coefficients(field, raw[:stop])
    except (HopffactError, ValueError, ZeroDivisionError):
        for row in rows:  # raises at the first bad coefficient, naming its place
            _parse_coeff(field, row[-1], at or f"{where}{row[:-1]}")
    if stop < len(rows):
        raise BundleFormatError(f"{where}: index out of range in {rows[stop]}")
    return [*idx, coeffs]


def _parse_table(field, terms, dims_in, dims_out, where, at=None):
    """Term rows as a family (``tensors._table``): duplicates summed, zeros
    dropped."""
    return _table(field, _parse_rows(field, *terms[where], (*dims_in, *dims_out), where, at),
                  dims_in, dims_out)


def _parse_algebra(field, doc, terms, where) -> StructAlgebra:
    dim = int(doc["dim"])
    basis = doc["basis"]
    if len(basis) != dim:
        raise BundleFormatError(f"{where}: basis has {len(basis)} labels, dim is {dim}")
    try:
        sp = BasedSpace(tuple(basis))
    except HopffactError as exc:
        raise BundleFormatError(f"{where}: {exc}") from exc
    mult = _parse_table(field, terms, (dim, dim), (dim,), f"{where}.mult")
    unit = _parse_vec(field, doc["unit"], dim, f"{where}.unit")
    try:
        return StructAlgebra(field, sp, mult, unit)
    except HopffactError as exc:
        raise BundleFormatError(f"{where}: {exc}") from exc


def _parse_triples(field, terms, dims, spaces, where) -> TensorElement:
    """An R- or K-matrix, keeping its table as the element's family."""
    rows, cols = terms[where]
    cols = [(0,) * len(rows), *_parse_rows(field, rows, cols, dims, where)]
    return _element(field, spaces, _table(field, cols, (1,), dims))


def loads(text: str) -> LoadedBundle:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleFormatError(f"not valid JSON: line {exc.lineno} column {exc.colno}") from exc
    terms = _fast_valid(doc) or _refused(doc)
    try:
        field = field_from_spec(doc["field"])
    except HopffactError as exc:
        raise BundleFormatError(f"field: {exc}") from exc
    hdoc = doc["hopf"]
    dim = int(hdoc["dim"])
    alg = _parse_algebra(field, hdoc, terms, "hopf")
    comult = _parse_table(field, terms, (dim,), (dim, dim), "hopf.comult")
    counit = _parse_vec(field, hdoc["counit"], dim, "hopf.counit")
    coalg = StructCoalgebra(field, alg.space, comult, counit)
    if "antipode" in hdoc:
        s = _parse_table(field, terms, (dim,), (dim,), "hopf.antipode", at="hopf.antipode")
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
        r_elt = _parse_triples(field, terms, (dim, dim), (alg.space, alg.space), "rmatrix")
    comodule = None
    if "comodule" in doc:
        balg = _parse_algebra(field, doc["comodule"], terms, "comodule")
        coaction = _parse_table(field, terms, (balg.dim,), (dim, balg.dim),
                                "comodule.coaction", at="comodule.coaction")
        comodule = ComoduleAlgebra(hopf, balg, coaction)
    k_elt = None
    if "kmatrix" in doc:
        if comodule is None:
            raise BundleFormatError("kmatrix requires a comodule section")
        k_elt = _parse_triples(field, terms, (dim, comodule.dim),
                               (alg.space, comodule.algebra.space), "kmatrix")
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
