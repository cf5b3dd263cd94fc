"""Command-line front end.

Subcommands: ``check`` (axiom suites), ``factorizable`` (rank computations
at the Hopf, comodule, or weak level), ``construct`` (write a bundle file
from the named-example registry), and ``simple`` (H-simplicity verdicts).

Exit codes: 0 success (for ``check``: all selected checks passed), 1 a check
failed, 2 input error.  Verdicts of ``factorizable``/``simple`` never drive
a nonzero exit; "not factorizable" is a successful computation.  Output is
byte-for-byte deterministic for identical inputs.  The environment variable
HOPF_FACTOR_SEED is reserved; all algorithms are deterministic and ignore it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bundle as bundle_io
from .comodule import (
    KMatrix,
    check_comodule_algebra,
    check_k_matrix,
    compute_end_space,
    h_simplicity,
    theta_comodule,
    weak_factorizability,
)
from .constructions import named_example
from .errors import BundleFormatError, HopffactError, NotInvertible, UnknownExample
from .fields import GF, QQ
from .hopf import check_hopf
from .rmatrix import RMatrix, drinfeld_map
from .rmatrix import _check_axioms as check_r_matrix_axioms
from .verdicts import Verdict

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class Report:
    """Aligned text plus a JSON document, both deterministic."""

    def __init__(self, command: str, source: str):
        self.data = {"command": command, "input": source}
        self.lines = []

    def add(self, key: str, value):
        self.data[key] = value
        shown = value
        if isinstance(value, bool):
            shown = "yes" if value else "no"
        self.lines.append(f"{key:<28} {shown}")

    def line(self, text: str):
        self.lines.append(text)

    def emit(self, as_json: bool):
        if as_json:
            sys.stdout.write(json.dumps(self.data, sort_keys=True, indent=1) + "\n")
        else:
            sys.stdout.write("\n".join(self.lines) + "\n")


def _parse_field(text: str):
    t = text.strip().lower()
    if t in ("q", "qq"):
        return QQ
    if t.startswith("gf:"):
        return GF(int(t[3:]))
    raise BundleFormatError(f"unknown field {text!r} (use q or gf:<prime>)")


def _load_input(args) -> tuple[bundle_io.LoadedBundle, str]:
    if args.example:
        field = _parse_field(args.field) if args.field else QQ
        b = named_example(args.example, field)
        return bundle_io.example_to_loaded(b), f"example:{args.example}"
    if not args.path:
        raise BundleFormatError("expected a bundle path or --example NAME")
    if args.field:
        raise BundleFormatError("--field applies to --example input only")
    return bundle_io.load_path(args.path), args.path


def _verdict_value(v: Verdict) -> str:
    return v.describe()


def cmd_check(args) -> int:
    loaded, source = _load_input(args)
    report = Report("check", source)
    want = {
        "hopf": args.hopf,
        "rmatrix": args.rmatrix,
        "comodule": args.comodule,
        "kmatrix": args.kmatrix,
    }
    if args.all or not any(want.values()):
        want = {
            "hopf": True,
            "rmatrix": loaded.rmatrix_element is not None,
            "comodule": loaded.comodule is not None,
            "kmatrix": loaded.kmatrix_element is not None,
        }
    failed = False
    if want["hopf"]:
        v = check_hopf(loaded.hopf)
        report.add("check.hopf", _verdict_value(v))
        failed |= not v
    rmx = r_error = None
    if want["rmatrix"] or want["kmatrix"]:
        if loaded.rmatrix_element is None:
            raise BundleFormatError("no rmatrix section in the input")
        # R is inverted once, here, for both its own check and the K check
        try:
            rmx = RMatrix(loaded.hopf, loaded.rmatrix_element)
        except NotInvertible as exc:
            r_error = str(exc)
    if want["rmatrix"]:
        if rmx is None:
            v = Verdict.failed("r-invertibility", None, r_error)
        else:
            v = check_r_matrix_axioms(loaded.hopf, loaded.rmatrix_element)
        report.add("check.rmatrix", _verdict_value(v))
        failed |= not v
    if want["comodule"] or want["kmatrix"]:
        if loaded.comodule is None:
            raise BundleFormatError("no comodule section in the input")
    if want["comodule"]:
        v = check_comodule_algebra(loaded.comodule)
        report.add("check.comodule", _verdict_value(v))
        failed |= not v
    if want["kmatrix"]:
        if loaded.kmatrix_element is None:
            raise BundleFormatError("no kmatrix section in the input")
        if rmx is None:
            v = Verdict.failed("k-invertibility", None, r_error)
        else:
            try:
                v = check_k_matrix(KMatrix(loaded.comodule, rmx, loaded.kmatrix_element))
            except NotInvertible as exc:
                v = Verdict.failed("k-invertibility", None, str(exc))
        report.add("check.kmatrix", _verdict_value(v))
        failed |= not v
    report.add("result", "FAIL" if failed else "PASS")
    report.emit(args.json)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _require_kmatrix(loaded) -> KMatrix:
    if loaded.comodule is None or loaded.kmatrix_element is None:
        raise BundleFormatError("this level needs comodule and kmatrix sections")
    if loaded.rmatrix_element is None:
        raise BundleFormatError("this level needs an rmatrix section")
    r = RMatrix(loaded.hopf, loaded.rmatrix_element)
    return KMatrix(loaded.comodule, r, loaded.kmatrix_element)


def cmd_factorizable(args) -> int:
    loaded, source = _load_input(args)
    report = Report("factorizable", source)
    report.add("level", args.level)
    dim_h = loaded.hopf.dim
    if args.level == "hopf":
        if loaded.rmatrix_element is None:
            raise BundleFormatError("--level hopf needs an rmatrix section")
        r = RMatrix(loaded.hopf, loaded.rmatrix_element)
        rank = drinfeld_map(r).matrix.rank()
        report.add("dim.H", dim_h)
        report.add("rank.drinfeld_map", rank)
        fact = rank == dim_h
        report.add("factorizable", fact)
        report.line(_rank_line(rank, dim_h, fact))
    elif args.level == "comodule":
        k = _require_kmatrix(loaded)
        es = compute_end_space(k.comodule)
        theta = theta_comodule(k, es)
        rank = theta.rank()
        fact = rank == dim_h
        wf = weak_factorizability(k, es)
        report.add("dim.H", dim_h)
        report.add("dim.E(H,B)", es.dim)
        report.add("rank.theta", rank)
        report.add("factorizable", fact)
        report.add("weakly_factorizable", wf.bijective)
        report.line(_rank_line(rank, dim_h, fact))
    else:  # weak
        k = _require_kmatrix(loaded)
        es = compute_end_space(k.comodule)
        wf = weak_factorizability(k, es)
        report.add("dim.H", dim_h)
        report.add("dim.E(H,B)", es.dim)
        report.add("omega.source_dim", wf.source_dim)
        report.add("omega.target_dim", wf.target_dim)
        report.add("omega.rank", wf.rank)
        report.add("weakly_factorizable", wf.bijective)
        verdict = "weakly factorizable" if wf.bijective else "NOT weakly factorizable"
        report.line(
            f"omega {wf.rank} of {wf.source_dim}→{wf.target_dim}: {verdict}"
        )
    report.emit(args.json)
    return EXIT_OK


def _rank_line(rank: int, dim: int, fact: bool) -> str:
    verdict = "FACTORIZABLE" if fact else "NOT factorizable"
    return f"rank {rank} / dim {dim}: {verdict}"


def cmd_simple(args) -> int:
    loaded, source = _load_input(args)
    if loaded.comodule is None:
        raise BundleFormatError("simple needs a comodule section")
    report = Report("simple", source)
    verdict = h_simplicity(loaded.comodule)
    report.add("field", verdict.field_tag)
    report.add("status", verdict.status)
    if verdict.certificate:
        report.add("certificate", verdict.certificate)
    if verdict.witness is not None:
        witness = [
            [loaded.field.format(x) for x in vec] for vec in verdict.witness
        ]
        report.add("witness.dim", len(witness))
        report.data["witness"] = witness
        for vec in witness:
            report.line("witness  [" + ", ".join(vec) + "]")
    if verdict.status == "inconclusive":
        report.line("inconclusive over this field; re-run over GF(p) for several p")
    report.emit(args.json)
    return EXIT_OK


def cmd_construct(args) -> int:
    field = _parse_field(args.field) if args.field else QQ
    kind = args.kind
    if kind in ("double", "reflective", "group", "dual"):
        if not args.group:
            raise BundleFormatError(f"--kind {kind} needs --group")
        name = {
            "double": "double",
            "reflective": "reflective-trivial",
            "group": "group",
            "dual": "dual",
        }[kind] + f":{args.group}"
    elif kind == "sweedler":
        lam = args.lam if args.lam is not None else "0"
        name = f"sweedler:{lam}"
    else:  # pragma: no cover - argparse restricts choices
        raise BundleFormatError(f"unknown kind {kind}")
    b = named_example(name, field)
    bundle_io.dump_path(b, args.out)
    report = Report("construct", name)
    report.add("out", args.out)
    report.add("dim.H", b.hopf.dim)
    if b.comodule is not None:
        report.add("dim.B", b.comodule.dim)
    report.emit(args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopffact",
        description=(
            "Exact checks and factorizability computations for "
            "quasitriangular Hopf algebras and comodule algebras."
        ),
        epilog=(
            "HOPF_FACTOR_SEED is reserved and currently ignored; "
            "all computations are deterministic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("path", nargs="?", help="bundle JSON file")
        p.add_argument("--example", help="named example instead of a file")
        p.add_argument("--field", help="field for --example input: q or gf:<prime>")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="run axiom checkers")
    add_input(p)
    p.add_argument("--hopf", action="store_true")
    p.add_argument("--rmatrix", action="store_true")
    p.add_argument("--comodule", action="store_true")
    p.add_argument("--kmatrix", action="store_true")
    p.add_argument("--all", action="store_true", help="every applicable check")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factorizable", help="rank computations and verdicts")
    add_input(p)
    p.add_argument(
        "--level", choices=("hopf", "comodule", "weak"), default="comodule"
    )
    p.set_defaults(func=cmd_factorizable)

    p = sub.add_parser("simple", help="H-simplicity verdict")
    add_input(p)
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("construct", help="write a bundle file")
    p.add_argument(
        "--kind", required=True,
        choices=("double", "reflective", "group", "dual", "sweedler"),
    )
    p.add_argument("--group", help="group name, e.g. C2, C3, S3")
    p.add_argument("--lam", help="parameter for --kind sweedler (e.g. 1 or 1/2)")
    p.add_argument("--field", help="q or gf:<prime>")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BundleFormatError, UnknownExample) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR
    except HopffactError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
