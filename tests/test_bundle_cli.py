"""Bundle serialization, schema validation, and the command-line interface."""

import json

import pytest

from hopffact import bundle as bundle_io
from hopffact.cli import main
from hopffact.constructions import named_example, registry_names
from hopffact.errors import BundleFormatError
from hopffact.fields import GF


def test_dumps_loads_round_trip():
    b = named_example("double:C2")
    text = bundle_io.dumps(b)
    loaded = bundle_io.loads(text)
    assert loaded.hopf.algebra.mult == b.hopf.algebra.mult
    assert loaded.hopf.coalgebra.comult == b.hopf.coalgebra.comult
    assert loaded.hopf.antipode.rows == b.hopf.antipode.rows
    assert loaded.rmatrix_element == b.rmatrix.element
    assert loaded.comodule.coaction == b.comodule.coaction
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


def test_cli_simple(capsys):
    assert main(["simple", "--example", "reflective-trivial:C2"]) == 0
    out = capsys.readouterr().out
    assert "simple" in out and "norton" in out
    assert main(["simple", "--example", "subgroup:S3:C3"]) == 0
    out = capsys.readouterr().out
    assert "simple" in out


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


def test_cli_check_all_inverts_r_once(monkeypatch, capsys):
    # the R check and the K check share one RMatrix (two inversions before)
    import hopffact.rmatrix as rmatrix_module

    named_example("double:C2")  # memoized: its construction is not counted
    calls = []
    invert = rmatrix_module.tensor_invert

    def counting(*args):
        calls.append(args)
        return invert(*args)

    monkeypatch.setattr(rmatrix_module, "tensor_invert", counting)
    assert main(["check", "--example", "double:C2", "--all"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == 1


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
