"""Bundle serialization, schema validation, and the command-line interface."""

import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopffact import bundle as bundle_io
from hopffact.cli import main
from hopffact.constructions import (
    group_algebra,
    named_example,
    reflective_algebra,
    registry_names,
    regular_comodule,
)
from hopffact.errors import BundleFormatError
from hopffact.fields import GF, QQ
from hopffact.groups import cyclic_group
from hopffact.tensors import TensorElement, _table_of
from reference_tables import coaction_dict, comult_dict, mult_dict


def test_dumps_loads_round_trip():
    b = named_example("double:C2")
    text = bundle_io.dumps(b)
    loaded = bundle_io.loads(text)
    assert mult_dict(loaded.hopf.algebra) == mult_dict(b.hopf.algebra)
    assert comult_dict(loaded.hopf.coalgebra) == comult_dict(b.hopf.coalgebra)
    assert loaded.hopf.antipode.rows == b.hopf.antipode.rows
    assert loaded.rmatrix_element == b.rmatrix.element
    assert coaction_dict(loaded.comodule) == coaction_dict(b.comodule)
    assert loaded.kmatrix_element == b.kmatrix.element


def test_dumps_deterministic():
    b = named_example("reflective-trivial:C2")
    assert bundle_io.dumps(b) == bundle_io.dumps(b)


def test_gf_bundle_round_trip():
    b = named_example("double:C2", GF(7))
    text = bundle_io.dumps(b)
    loaded = bundle_io.loads(text)
    assert loaded.field.p == 7
    assert loaded.kmatrix_element == b.kmatrix.element


def test_unknown_keys_rejected():
    b = named_example("regular:C2")
    doc = json.loads(bundle_io.dumps(b))
    doc["surprise"] = 1
    with pytest.raises(BundleFormatError):
        bundle_io.loads(json.dumps(doc))
    doc = json.loads(bundle_io.dumps(b))
    doc["hopf"]["extra"] = []
    with pytest.raises(BundleFormatError):
        bundle_io.loads(json.dumps(doc))


def test_out_of_range_index_rejected():
    b = named_example("regular:C2")
    doc = json.loads(bundle_io.dumps(b))
    doc["hopf"]["mult"].append([0, 0, 99, 1])
    with pytest.raises(BundleFormatError):
        bundle_io.loads(json.dumps(doc))


def test_bad_coefficient_rejected():
    b = named_example("regular:C2")
    doc = json.loads(bundle_io.dumps(b))
    doc["hopf"]["unit"] = ["1/0", 0]
    with pytest.raises(BundleFormatError):
        bundle_io.loads(json.dumps(doc))
    doc["hopf"]["unit"] = ["not-a-number", 0]
    with pytest.raises(BundleFormatError):
        bundle_io.loads(json.dumps(doc))


def test_not_json_reports_position():
    with pytest.raises(BundleFormatError) as err:
        bundle_io.loads("{broken")
    assert "line" in str(err.value)


def test_kmatrix_requires_comodule_and_rmatrix():
    b = named_example("double:C2")
    doc = json.loads(bundle_io.dumps(b))
    del doc["comodule"]
    with pytest.raises(BundleFormatError):
        bundle_io.loads(json.dumps(doc))
    doc = json.loads(bundle_io.dumps(b))
    del doc["rmatrix"]
    with pytest.raises(BundleFormatError):
        bundle_io.loads(json.dumps(doc))


def test_cli_check_example_all(capsys):
    assert main(["check", "--example", "double:C2", "--all"]) == 0
    out = capsys.readouterr().out
    assert "check.hopf" in out and "PASS" in out


def test_cli_check_broken_antipode(tmp_path, capsys):
    b = named_example("double:C2")
    doc = json.loads(bundle_io.dumps(b))
    # perturb one antipode entry
    i, j, c = doc["hopf"]["antipode"][0]
    doc["hopf"]["antipode"][0] = [i, j, c + 1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--hopf"]) == 1
    out = capsys.readouterr().out
    assert "antipode" in out and "FAIL" in out


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/missing.json"]) == 2


def test_cli_unknown_example(capsys):
    assert main(["check", "--example", "bogus:XX"]) == 2


def test_cli_factorizable_levels(capsys):
    assert main(["factorizable", "--example", "reflective-trivial:C2",
                 "--level", "comodule"]) == 0
    out = capsys.readouterr().out
    assert "rank 4 / dim 4: FACTORIZABLE" in out
    assert main(["factorizable", "--example", "subgroup:S3:C2",
                 "--level", "comodule"]) == 0
    out = capsys.readouterr().out
    assert "rank 1 / dim 6: NOT factorizable" in out
    assert main(["factorizable", "--example", "regular:C2",
                 "--level", "weak"]) == 0
    out = capsys.readouterr().out
    assert "NOT weakly factorizable" in out
    assert main(["factorizable", "--example", "double:C2",
                 "--level", "hopf"]) == 0
    out = capsys.readouterr().out
    assert "FACTORIZABLE" in out


# Every check, factorizability level and H-simplicity verdict, text and
# --json, on six registry inputs over Q and GF(101); the stdout and exit
# codes are pinned by one sha256, so a refactor cannot change a byte of them.
_DIGEST_EXAMPLES = ("double:C2", "sweedler:1", "regular:S3", "subgroup:S3:C2",
                    "reflective-trivial:C3", "group:S3")
_DIGEST_COMMANDS = (["check", "--all"], ["factorizable", "--level", "comodule"],
                    ["factorizable", "--level", "weak"], ["factorizable", "--level", "hopf"],
                    ["simple"])
CLI_DIGEST = "db97cf8576f4221227d7c37d9f1b23c17fadfe794725f4b661bb93d7a95c6a0c"


def _cli_digest(capsys):
    digest = hashlib.sha256()
    for name in _DIGEST_EXAMPLES:
        for field in ("q", "gf:101"):
            for command in _DIGEST_COMMANDS:
                for extra in ([], ["--json"]):
                    argv = command + ["--example", name, "--field", field] + extra
                    code = main(argv)
                    out = capsys.readouterr().out
                    digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return digest.hexdigest()


def test_cli_stdout_digest(capsys):
    assert _cli_digest(capsys) == CLI_DIGEST


def test_cli_simple(capsys):
    assert main(["simple", "--example", "reflective-trivial:C2"]) == 0
    out = capsys.readouterr().out
    assert "simple" in out and "norton" in out
    assert main(["simple", "--example", "subgroup:S3:C3"]) == 0
    out = capsys.readouterr().out
    assert "simple" in out


def test_cli_simple_reports_a_q_witness(tmp_path, capsys):
    # the crossed product of kC2 with its twisted dual is not simple over Q:
    # the ideal comes from a mod-p spin, lifted and verified over Q
    h, r = group_algebra(cyclic_group(2))
    data = reflective_algebra(h, r, regular_comodule(h))
    path = tmp_path / "crossed_c2.json"
    path.write_text(bundle_io.dumps(bundle_io.LoadedBundle(
        QQ, h, r.element, data.comodule, data.kmatrix.element)))
    assert main(["simple", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["status", "not-simple"]
    assert lines[2].split() == ["certificate", "spin"]
    assert sum(line.startswith("witness  [") for line in lines) == 2
    assert main(["simple", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["field"], doc["status"], doc["witness.dim"]) == ("Q", "not-simple", 2)


def test_cli_construct_round_trip(tmp_path, capsys):
    out_path = tmp_path / "d_c2.json"
    assert main(["construct", "--kind", "double", "--group", "C2",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_path), "--all"]) == 0
    capsys.readouterr()
    # byte determinism across two constructions
    out2 = tmp_path / "d_c2_again.json"
    assert main(["construct", "--kind", "double", "--group", "C2",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == out2.read_bytes()


def test_cli_construct_sweedler_and_field(tmp_path, capsys):
    out_path = tmp_path / "sw.json"
    assert main(["construct", "--kind", "sweedler", "--lam", "1",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_path), "--all"]) == 0
    capsys.readouterr()
    gf_path = tmp_path / "d_c3_gf.json"
    assert main(["construct", "--kind", "double", "--group", "C3",
                 "--field", "gf:11", "--out", str(gf_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(gf_path), "--all"]) == 0
    capsys.readouterr()
    doc = json.loads(gf_path.read_text())
    assert doc["field"] == {"GFp": 11}


def test_cli_json_output_deterministic(capsys):
    assert main(["check", "--example", "regular:C2", "--all", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--example", "regular:C2", "--all", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["result"] == "PASS"


def test_full_registry_round_trips_via_files(tmp_path):
    for name in registry_names():
        b = named_example(name)
        text = bundle_io.dumps(b)
        loaded = bundle_io.loads(text)
        assert bundle_io.dumps(loaded) == text


REGISTRY_BUNDLE_DIGEST = "19ee42c9580fd0c6557a4f6a6671f0f6083c320ef1cc5c0ad76fb742e02944fc"


def test_registry_bundle_digest():
    # every byte that dumps writes for the registry, over Q then GF(101)
    digest = hashlib.sha256()
    for field in (QQ, GF(101)):
        for name in registry_names():
            b = named_example(name, field)
            digest.update(f"{b.name} {b.field}\n{bundle_io.dumps(b)}".encode())
    assert digest.hexdigest() == REGISTRY_BUNDLE_DIGEST


def test_cli_check_all_inverts_r_once(monkeypatch, capsys):
    # the R check and the K check share one RMatrix (two inversions before)
    import hopffact.rmatrix as rmatrix_module

    # R⁻¹ is (S⊗id)R: the general inversion never runs on it
    named_example("double:C2")  # memoized: its construction is not counted
    calls, general = [], []
    r_inverse, invert = rmatrix_module._r_inverse, rmatrix_module.tensor_invert

    def counting(*args):
        calls.append(args)
        return r_inverse(*args)

    def never(*args):
        general.append(args)
        return invert(*args)

    monkeypatch.setattr(rmatrix_module, "_r_inverse", counting)
    monkeypatch.setattr(rmatrix_module, "tensor_invert", never)
    assert main(["check", "--example", "double:C2", "--all"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == 1
    assert not general


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_loaded_bundles_convert_no_dicts(field, tmp_path, monkeypatch, capsys):
    # R and K are read into families, and nothing from the load through
    # check --all and factorizable --level weak converts a dict to one
    import hopffact.algebras as algebras
    import hopffact.comodule as comodule
    import hopffact.tensors as tensors

    paths = []
    for name in registry_names():
        b = named_example(name, field)
        if b.kmatrix is not None:
            paths.append(tmp_path / f"{name.replace(':', '_')}.json")
            paths[-1].write_text(bundle_io.dumps(b))
    calls, table_of = [], tensors._table_of

    def counting(*args):
        calls.append(args)
        return table_of(*args)

    for module in (tensors, algebras, comodule):
        monkeypatch.setattr(module, "_table_of", counting)
    for path in paths:
        assert main(["check", str(path), "--all"]) == 0
        assert main(["factorizable", str(path), "--level", "weak"]) in (0, 1)
    capsys.readouterr()
    assert len(paths) > 5 and not calls


@pytest.mark.parametrize("flags, lines", [
    (["--all"], ["check.hopf                   pass",
                 "check.rmatrix                fail(r-invertibility) {msg}",
                 "check.comodule               pass",
                 "check.kmatrix                fail(k-invertibility) {msg}"]),
    (["--rmatrix"], ["check.rmatrix                fail(r-invertibility) {msg}"]),
    (["--kmatrix"], ["check.kmatrix                fail(k-invertibility) {msg}"]),
])
def test_cli_check_singular_r(tmp_path, capsys, flags, lines):
    doc = json.loads(bundle_io.dumps(named_example("double:C2")))
    doc["rmatrix"] = [[0, 0, 1], [0, 2, 1]]  # (e_0 ⊗ 1)-like: a zero divisor
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), *flags]) == 1
    msg = "zero divisor: the minimal polynomial vanishes at 0"
    want = [line.format(msg=msg) for line in lines] + ["result                       FAIL"]
    assert capsys.readouterr().out.splitlines() == want


def _edited(edit):
    doc = json.loads(bundle_io.dumps(named_example("double:C2")))
    edit(doc)
    return json.dumps(doc)


def _set_row(key, index, row, section="hopf"):
    return lambda doc: (doc[section] if section else doc)[key].__setitem__(index, row)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(surprise=1),
     "schema violation at /: Additional properties are not allowed "
     "('surprise' was unexpected)"),
    (lambda doc: doc["hopf"].update(extra=[]),
     "schema violation at /hopf: Additional properties are not allowed "
     "('extra' was unexpected)"),
    (lambda doc: doc["hopf"].pop("counit"),
     "schema violation at /hopf: 'counit' is a required property"),
    (lambda doc: doc.update(field="R"),
     "schema violation at /field: 'R' is not valid under any of the given schemas"),
    (_set_row("mult", 0, [0, 0, 0, "+1"]),
     "schema violation at /hopf/mult/0/3: '+1' does not match '^-?[0-9]+(/-?[0-9]+)?$'"),
    (_set_row("rmatrix", 0, [0, 0, True], section=None),
     "schema violation at /rmatrix/0/2: True is not valid under any of the given schemas"),
    (_set_row("comult", 0, [0, 0, 0, 1.0]),
     "bad coefficient 1.0 at hopf.comult[0, 0, 0]: cannot parse scalar from 1.0"),
    (_set_row("unit", 0, "1/0"),
     "bad coefficient '1/0' at hopf.unit: inverse of 0 in Q"),
    (_set_row("coaction", 0, [-1, 0, 0, 1], section="comodule"),
     "schema violation at /comodule/coaction/0/0: -1 is less than the minimum of 0"),
    (_set_row("mult", 1, [0, 0, 1]),
     "schema violation at /hopf/mult/1: [0, 0, 1] is too short"),
    (_set_row("kmatrix", 0, 5, section=None),
     "schema violation at /kmatrix/0: 5 is not of type 'array'"),
    (lambda doc: doc["hopf"]["mult"].append([0, 0, 99, 1]),
     "hopf.mult: index out of range in [0, 0, 99, 1]"),
    (lambda doc: doc["hopf"]["comult"].append([0, 4, 0, 1]),
     "hopf.comult: index out of range in [0, 4, 0, 1]"),
    (lambda doc: doc["comodule"]["coaction"].append([0, 0, 4, 1]),
     "comodule.coaction: index out of range in [0, 0, 4, 1]"),
    (lambda doc: doc["rmatrix"].append([0, 4, 1]),
     "rmatrix: index out of range in [0, 4, 1]"),
    (_set_row("coaction", 0, [0, 0, 0, "1/0"], section="comodule"),
     "bad coefficient '1/0' at comodule.coaction: inverse of 0 in Q"),
    (lambda doc: doc["hopf"]["antipode"].append([0, 99, 1]),
     "hopf.antipode: index out of range in [0, 99, 1]"),
    (_set_row("antipode", 0, [0, 0, "1/0"]),
     "bad coefficient '1/0' at hopf.antipode: inverse of 0 in Q"),
    # the first bad row wins: a bad coefficient before a row out of range
    (lambda doc: (doc["hopf"]["mult"].__setitem__(1, [0, 1, 1, "1/0"]),
                  doc["hopf"]["mult"].append([0, 0, 99, 1])),
     "bad coefficient '1/0' at hopf.mult[0, 1, 1]: inverse of 0 in Q"),
    # the schema error in kmatrix wins over the earlier range error in hopf.mult
    (lambda doc: (doc["hopf"]["mult"].append([0, 0, 99, 1]),
                  doc["kmatrix"].__setitem__(0, [0, 0])),
     "schema violation at /kmatrix/0: [0, 0] is too short"),
], ids=["top-key", "hopf-key", "missing-key", "field", "coeff-plus", "coeff-true",
        "coeff-float", "coeff-zero-division", "negative-index", "short-row", "non-list-row",
        "index-range", "comult-index-range", "coaction-index-range", "rmatrix-index-range",
        "coaction-coeff", "antipode-index-range", "antipode-coeff", "first-bad-row",
        "precedence"])
def test_malformed_document_messages(edit, message):
    with pytest.raises(BundleFormatError) as err:
        bundle_io.loads(_edited(edit))
    assert str(err.value) == message


def _same_bundle(a, b):
    # dumps covers every serialized part and writes each index as it is stored
    return (bundle_io.dumps(a) == bundle_io.dumps(b)
            and a.hopf.antipode_inv.rows == b.hopf.antipode_inv.rows)


def _absent(rows):
    """The first index tuple, row-major, that no row of a term array holds."""
    held = {tuple(row[:-1]) for row in rows}
    return next(list(idx) for idx in itertools.product(range(4), repeat=3) if idx not in held)


@pytest.mark.parametrize("edit", ["split", "cancel", "zero", "shuffle", "beyond-int64"])
@pytest.mark.parametrize("section, key", [("hopf", "mult"), ("hopf", "comult"),
                                          ("comodule", "coaction")])
def test_term_rows_load_normalised(section, key, edit):
    # a GF(7) document with one term array edited: a coefficient split over
    # two rows, a pair of rows cancelling, an explicit zero, the rows
    # shuffled, a coefficient moved by 7³⁰; duplicates are summed and zeros
    # dropped on load
    text = bundle_io.dumps(named_example("double:C2", GF(7)))
    doc = json.loads(text)
    rows = doc[section][key]
    if edit == "split":
        *idx, c = rows[0]
        rows[0] = idx + [3]
        rows.append(idx + [c - 3])
    elif edit == "cancel":
        free = _absent(rows)
        rows.extend([free + [2], free + [-2]])
    elif edit == "zero":
        rows.append(_absent(rows) + [0])
    elif edit == "beyond-int64":
        rows[0][-1] += 7 ** 30
    else:
        order = rows[:]
        random.Random(7).shuffle(rows)
        assert rows != order
    loaded = bundle_io.loads(json.dumps(doc))
    assert _same_bundle(loaded, bundle_io.loads(text))
    assert bundle_io.dumps(loaded) == text


def _floats(row):
    return [float(i) for i in row[:-1]] + row[-1:]


@pytest.mark.parametrize("edit", [
    lambda doc: doc["hopf"].update(dim=4.0),
    lambda doc: doc["comodule"].update(dim=float(doc["comodule"]["dim"])),
    lambda doc: doc.update(field={"GFp": 7.0}),
    lambda doc: doc["hopf"]["antipode"].__setitem__(0, _floats(doc["hopf"]["antipode"][0])),
    lambda doc: doc["hopf"]["mult"].__setitem__(1, _floats(doc["hopf"]["mult"][1])),
    lambda doc: doc["hopf"]["comult"].__setitem__(1, _floats(doc["hopf"]["comult"][1])),
    lambda doc: doc["comodule"]["coaction"].__setitem__(
        1, _floats(doc["comodule"]["coaction"][1])),
    lambda doc: doc["rmatrix"].__setitem__(1, _floats(doc["rmatrix"][1])),
    lambda doc: doc["kmatrix"].__setitem__(1, _floats(doc["kmatrix"][1])),
], ids=["hopf-dim", "comodule-dim", "prime", "antipode", "mult", "comult", "coaction",
        "rmatrix", "kmatrix"])
def test_integral_floats_load_like_ints(edit):
    # JSON Schema counts 4.0 as an integer, so the schema admits these documents
    twin = json.loads(bundle_io.dumps(named_example("double:C2", GF(7))))
    doc = json.loads(json.dumps(twin))
    edit(doc)
    assert _same_bundle(bundle_io.loads(json.dumps(doc)), bundle_io.loads(json.dumps(twin)))


def test_cli_check_integral_float_antipode(tmp_path, capsys):
    doc = json.loads(bundle_io.dumps(named_example("double:C2")))
    doc["hopf"]["dim"] = 4.0
    doc["hopf"]["antipode"][0] = _floats(doc["hopf"]["antipode"][0])
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--all"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result                       PASS"


@pytest.mark.parametrize("spec, message", [
    ({"GFp": 4}, "field: 4 is not prime"),
    ({"GFp": 94906267}, "field: GF(94906267) is outside the supported range: primes p need "
                        "(p-1)**2 < 2**53, i.e. p <= 94906249"),
], ids=["not-prime", "too-large"])
def test_field_errors_are_input_errors(tmp_path, capsys, spec, message):
    text = _edited(lambda doc: doc.update(field=spec))
    with pytest.raises(BundleFormatError) as err:
        bundle_io.loads(text)
    assert str(err.value) == message
    path = tmp_path / "field.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def _valid_documents():
    # the registry over Q and GF(101), and both dimension-36 instances with
    # their bases permuted by the benchmark's permute.py
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "permute.py"
    spec = importlib.util.spec_from_file_location("permute", path)
    permute = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(permute)
    texts = [bundle_io.dumps(named_example(name, field))
             for field in (QQ, GF(101)) for name in registry_names()]
    rng = random.Random(36)
    for name in ("double:S3", "reflective-trivial:S3"):
        text = bundle_io.dumps(named_example(name, GF(101)))
        texts.append(permute.permute_text(text, *permute.draw(rng, text)))
    return texts


def test_valid_documents_skip_full_validation(monkeypatch):
    texts = _valid_documents()
    monkeypatch.setattr(bundle_io, "_fast_valid", lambda doc: False)
    reference = [bundle_io.loads(text) for text in texts]  # the full-validation path
    monkeypatch.undo()
    calls = []
    best_match = jsonschema.exceptions.best_match

    def counting(errors):
        calls.append(1)
        return best_match(errors)

    monkeypatch.setattr(jsonschema.exceptions, "best_match", counting)
    for text, want in zip(texts, reference):
        assert _same_bundle(bundle_io.loads(text), want)
    assert calls == []
    with pytest.raises(BundleFormatError):
        bundle_io.loads(_edited(lambda doc: doc.update(surprise=1)))
    assert len(calls) == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.text(max_size=2), inner, max_size=3), max_leaves=6)
_INDEX = st.one_of(st.integers(0, 3), st.integers(-2, 3), st.sampled_from([1.0, True, None, "1", []]))
_COEFF = st.one_of(
    st.integers(), st.from_regex(r"^-?[0-9]+(/-?[0-9]+)?$"),
    st.text(alphabet="0123456789-/+ \n", max_size=6), st.sampled_from([1.0, True, None, []]))


@st.composite
def _slot_values(draw):
    # a value for the first row (or entry) of a term array, often shaped like one
    section, key = draw(st.sampled_from(
        [(section, key) for section, keys in bundle_io._TERMS.items() for key in keys]))
    n = bundle_io._TERMS[section][key]
    shaped = st.builds(
        lambda idx, c, extra: idx + [c] + extra, st.lists(_INDEX, min_size=n - 2, max_size=n),
        _COEFF, st.lists(_COEFF, max_size=1)) if n else _COEFF
    return "row", section, key, draw(shaped | _JSON)


_DROP = "<the key removed>"
_FIELDS = ["Q", "q", {"GFp": 1}, {"GFp": 2}, {"GFp": 2, "x": 1}, {"GFp": 101}, {"GFp": 2.0},
           {"GFp": True}, {"GFp": "2"}, {}, None]
_DIMS = [0, 1, 2, -1, True, 1.0, "1", None]
_LABELS = st.sampled_from([1, None, True, ["a"], "e0"]) | st.text(max_size=2)


@st.composite
def _skeleton_edits(draw):
    # an edit outside the term arrays: a key of a section removed, added or
    # replaced, a dim, the basis labels, or the field
    section = draw(st.sampled_from([None, "hopf", "comodule"]))
    keys = sorted(_C2_DOC if section is None else _C2_DOC[section])
    algebra = st.sampled_from(["hopf", "comodule"])
    return draw(st.one_of(
        st.tuples(st.just("key"), st.just(section), st.sampled_from(keys), st.just(_DROP)),
        st.tuples(st.just("key"), st.just(section), st.text(max_size=3) | st.sampled_from(keys),
                  _JSON),
        st.tuples(st.just("key"), algebra, st.just("dim"), st.sampled_from(_DIMS)),
        st.tuples(st.just("key"), algebra, st.just("basis"), st.lists(_LABELS, max_size=4)),
        st.tuples(st.just("key"), st.none(), st.just("field"), st.sampled_from(_FIELDS))))


_C2_DOC = json.loads(bundle_io.dumps(named_example("double:C2")))


def _apply(edit):
    doc = json.loads(json.dumps(_C2_DOC))
    kind, section, key, value = edit
    target = doc if section is None else doc[section]
    if kind == "row":
        target[key][0] = value
    elif value == _DROP:
        del target[key]
    else:
        target[key] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(edit=_slot_values() | _skeleton_edits())
def test_fast_check_accepts_only_what_the_schema_accepts(edit):
    doc = _apply(edit)
    if bundle_io._fast_valid(doc):
        assert bundle_io._validator().is_valid(doc)


@pytest.mark.parametrize("edit, fast, schema", [
    (("key", None, "hopf", _DROP), False, False),
    (("key", "comodule", "coaction", _DROP), False, False),
    (("key", "hopf", "antipode", _DROP), True, True),
    (("key", None, "rmatrix", _DROP), True, True),
    (("key", None, "extra", 1), False, False),
    (("key", "hopf", "extra", []), False, False),
    (("key", "hopf", "dim", 0), False, False),
    (("key", "hopf", "dim", True), False, False),
    (("key", "comodule", "dim", 1.0), False, True),
    (("key", "hopf", "dim", "1"), False, False),
    (("key", "hopf", "basis", ["e0", 1, "e2", "e3"]), False, False),
    (("key", "comodule", "basis", [None, "b1"]), False, False),
    (("key", None, "field", "q"), False, False),
    (("key", None, "field", {"GFp": 1}), False, False),
    (("key", None, "field", {"GFp": 2, "x": 1}), False, False),
    (("key", None, "field", {"GFp": 2}), True, True),
    (("key", None, "field", {"GFp": 2.0}), False, True),
    (("key", None, "comodule", None), False, False),
])
def test_fast_check_on_skeleton_edits(edit, fast, schema):
    # the walk refuses a document whenever the schema does, and also some
    # it accepts, with an integral float where the walk wants an int
    doc = _apply(edit)
    assert (bool(bundle_io._fast_valid(doc)), bundle_io._validator().is_valid(doc)) == (fast, schema)


def test_valid_bundles_load_without_jsonschema():
    # a fresh interpreter loads every registry bundle without importing
    # jsonschema, and imports it to explain a refusal
    code = """if True:
        import sys
        from hopffact import bundle
        from hopffact.constructions import named_example, registry_names
        from hopffact.errors import BundleFormatError
        from hopffact.fields import GF, QQ
        texts = [bundle.dumps(named_example(name, field))
                 for field in (QQ, GF(101)) for name in registry_names()]
        for text in texts:
            bundle.loads(text)
        print("jsonschema" in sys.modules)
        try:
            bundle.loads(texts[0].replace('"field"', '"surprise": 1, "field"', 1))
        except BundleFormatError as exc:
            print(exc)
        print("jsonschema" in sys.modules)
    """
    src = str(Path(bundle_io.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    assert out.splitlines() == [
        "False",
        "schema violation at /: Additional properties are not allowed ('surprise' was unexpected)",
        "True"]


@pytest.mark.parametrize("field", [QQ, GF(101), GF(94906249)], ids=str)
def test_loaded_r_and_k_keep_their_table(field):
    # the family parsed from the rows, the element's only storage, is the
    # one the constructor would build from the element's terms, array for
    # array
    for name in registry_names():
        loaded = bundle_io.loads(bundle_io.dumps(named_example(name, field)))
        for elt in (loaded.rmatrix_element, loaded.kmatrix_element):
            if elt is None:
                continue
            want = _table_of(field, {0: dict(elt.items())}, (1,), [sp.dim for sp in elt.factors])
            assert TensorElement.__slots__ == ("field", "factors", "_fam")
            for got, ref in zip(elt._fam, want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref), name
                assert list(map(type, got.tolist())) == list(map(type, ref.tolist())), name
