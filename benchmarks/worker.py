"""One benchmark run, in a fresh process started by ``run.py``.

Set-up builds the workload's instances with hopffact's public constructors,
serializes each with ``bundle.dumps`` and applies a seeded basis permutation
to the document.  One op is one pass over the instances; per instance it
runs four phases, each from ``bundle.loads`` of the permuted text as the
CLI does:

* check: check_hopf, check_r_matrix; check_comodule_algebra, RMatrix,
  KMatrix, check_k_matrix (``hopffact check --all``);
* factorizable: compute_end_space, rank of theta_comodule,
  weak_factorizability (``factorizable --level comodule``), or the rank of
  the Drinfeld map for Hopf-only bundles (``--level hopf``);
* simple: h_simplicity;
* braided: check_braided_module over {trivial, regular}² with
  regular_bmodule.

Every op's outputs are checked against ``workloads.REFERENCE``.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

import hopffact as hf
from hopffact import bundle
from hopffact.linalg import LINALG_STATS

import permute
import workloads
from spans import Tracer

# setup_s is the median of this many set-ups.  A traced run, which does
# not report setup_s, sets up once.
SETUP_REPEATS = 3
PHASES = ("check", "factorizable", "simple", "braided")
OUT_DIR = os.path.join("benchmarks", "out")


def phase_check(text):
    b = bundle.loads(text)
    verdicts = [hf.check_hopf(b.hopf), hf.check_r_matrix(b.hopf, b.rmatrix_element)]
    if b.comodule is not None:
        verdicts.append(hf.check_comodule_algebra(b.comodule))
        r = hf.RMatrix(b.hopf, b.rmatrix_element)
        k = hf.KMatrix(b.comodule, r, b.kmatrix_element)
        verdicts.append(hf.check_k_matrix(k))
    return verdicts


def _r_and_k(b):
    """The RMatrix of a loaded bundle and, for comodule bundles, its KMatrix."""
    r = hf.RMatrix(b.hopf, b.rmatrix_element)
    return r, (hf.KMatrix(b.comodule, r, b.kmatrix_element) if b.comodule is not None else None)


def phase_factorizable(text):
    b = bundle.loads(text)
    r, k = _r_and_k(b)
    if k is None:
        return hf.drinfeld_map(r).matrix.rank()
    es = hf.compute_end_space(k.comodule)
    rank = hf.theta_comodule(k, es).rank()
    wf = hf.weak_factorizability(k, es)
    return es.dim, rank, (wf.source_dim, wf.target_dim, wf.rank, wf.bijective)


def phase_simple(text):
    b = bundle.loads(text)
    if b.comodule is None:
        return None
    return b.comodule, hf.h_simplicity(b.comodule)


def phase_braided(text):
    b = bundle.loads(text)
    if b.comodule is None:
        return []
    _, k = _r_and_k(b)
    m = hf.regular_bmodule(b.comodule)
    mods = (hf.trivial_module(b.hopf), hf.regular_module(b.hopf))
    return [hf.check_braided_module(k, x, y, m) for x in mods for y in mods]


PHASE_FNS = dict(zip(PHASES, (phase_check, phase_factorizable, phase_simple, phase_braided)))


def set_up(workload, seed, tracer=None):
    """[(name, field tag, permuted document)] for the workload and seed."""
    spec, names = workloads.WORKLOADS[workload]
    field = workloads.field_of(spec)
    rng = random.Random(seed)
    docs = []
    for name in names:
        if tracer is None:
            built = workloads.build(name, field)
        else:
            with tracer.span("constructions.build"):
                built = workloads.build(name, field)
        text = bundle.dumps(built)
        docs.append((name, field.tag, permute.permute_text(text, *permute.draw(rng, text))))
    return docs


def run_op(docs):
    """One pass: per-phase wall time summed over the instances, and outputs."""
    times = dict.fromkeys(PHASES, 0.0)
    outputs = []
    for _, _, text in docs:
        out = {}
        for phase in PHASES:
            t = time.perf_counter()
            out[phase] = PHASE_FNS[phase](text)
            times[phase] += time.perf_counter() - t
        outputs.append(out)
    return times, outputs


def problems(docs, outputs):
    """Differences of one op's outputs from the reference, as messages."""
    found = []
    for (name, tag, _), out in zip(docs, outputs):
        ref = workloads.REFERENCE[(name, tag)]
        bad = [v.describe() for v in out["check"] + out["braided"] if not v]
        if bad:
            found.append(f"{name}: failed verdicts {bad}")
        if isinstance(ref, int):
            if out["factorizable"] != ref:
                found.append(f"{name}: Drinfeld rank {out['factorizable']} != {ref}")
            continue
        if out["factorizable"] != ref[:3]:
            found.append(f"{name}: factorizability {out['factorizable']} != {ref[:3]}")
        comodule, sv = out["simple"]
        if sv.status != ref[3]:
            found.append(f"{name}: simplicity {sv.status} != {ref[3]}")
        elif sv.status == "not-simple":
            closure = hf.costable_closure(comodule, sv.witness)
            if not 0 < len(closure) == len(sv.witness) < comodule.dim:
                found.append(f"{name}: witness is not a closed proper nonzero costable ideal")
    return found


def tail(values):
    """Highest percentile with at least 10 samples above it, or the max."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


PER_LAYER_SPANS = (
    "bundle.loads", "hopf.check_hopf", "rmatrix.check_r_matrix",
    "tensors.tensor_invert", "comodule.check_comodule_algebra",
    "comodule.check_k_matrix", "comodule.compute_end_space",
    "comodule.theta_comodule", "comodule.omega_copairing",
    "comodule.weak_factorizability", "comodule.h_simplicity",
    "comodule.costable_closure", "comodule.check_braided_module",
    "linalg.kernel_basis", "linalg.echelonize",
)
WORKLOAD_ONLY_SPANS = ("rmatrix.drinfeld_map", "linalg.echelonize.gf", "linalg.echelonize.q")
_NONE = (0, 0.0, 0.0, 0)


def end_to_end(samples, setup_s):
    walls = [wall for _, wall, _, _ in samples]
    m = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (tail(walls)[0], "s"),
    }
    for ph in PHASES:
        m[f"{ph}_s.p50"] = (statistics.median(t[ph] for _, _, t, _ in samples), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def per_layer(groups, samples):
    for rows in groups.values():
        # both fields together; each workload runs over one field only
        gf, q = rows.get("linalg.echelonize.gf", _NONE), rows.get("linalg.echelonize.q", _NONE)
        rows["linalg.echelonize"] = [a + b for a, b in zip(gf, q)]
    ops = [rows for key, rows in groups.items() if key.startswith("op")]
    setups = [rows for key, rows in groups.items() if key.startswith("setup")]

    def med(rows, name, i):
        return statistics.median(r.get(name, _NONE)[i] for r in rows)

    m = {}
    for name in PER_LAYER_SPANS + ("constructions.build",):
        rows = setups if name == "constructions.build" else ops
        m[f"{name}.calls"] = (med(rows, name, 0), "count")
        m[f"{name}.total_s"] = (med(rows, name, 1), "s")
        m[f"{name}.self_s"] = (med(rows, name, 2), "s")
    m["linalg.echelonize.cells"] = (med(ops, "linalg.echelonize", 3), "count")
    m["op.total_s"] = (med(ops, "op", 1), "s")
    m["op.self_s"] = (med(ops, "op", 2), "s")
    for key in LINALG_STATS:
        m[f"linalg.{key}"] = (statistics.median(d[key] for _, _, _, d in samples), "count")
    traced = [wall for tr, wall, _, _ in samples if tr]
    untraced = [wall for tr, wall, _, _ in samples if not tr]
    m["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return m


def workload_only_layers(groups):
    """Per-op medians of the spans only some workloads reach (the Drinfeld
    map, echelonize per field), for the detail line: as metrics they would
    be a constant 0 on the other workloads."""
    ops = [rows for key, rows in groups.items() if key.startswith("op")]
    out = {}
    for name in WORKLOAD_ONLY_SPANS:
        if any(name in rows for rows in ops):
            out[name] = {field: statistics.median(r.get(name, _NONE)[i] for r in ops)
                         for i, field in enumerate(("calls", "total_s", "self_s", "cells"))}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when run.py spawned this process")
    args = p.parse_args(argv)

    src = os.path.realpath(os.path.join("src", "hopffact"))
    if os.path.dirname(os.path.realpath(hf.__file__)) != src:
        sys.exit(f"hopffact was imported from {hf.__file__}, not from {src}")
    import_s = time.monotonic() - args.t0

    tracer = Tracer() if args.trace else None
    setup_s = []
    if tracer:
        tracer.install()
    for i in range(1 if tracer else SETUP_REPEATS):
        t = time.monotonic()
        if tracer:
            tracer.op = f"setup{i}"
            with tracer.span("setup"):
                docs = set_up(args.workload, args.seed, tracer)
        else:
            docs = set_up(args.workload, args.seed)
        setup_s.append(import_s + time.monotonic() - t)
    if tracer:
        tracer.uninstall()

    samples = []  # (traced, op wall time, per-phase times, LINALG_STATS deltas)
    attempted = failed = 0
    start = time.monotonic()
    while True:
        # a traced run alternates untraced and traced ops, so that it
        # measures its own overhead
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        stats0 = dict(LINALG_STATS)
        try:
            if traced:
                tracer.op = f"op{attempted}"
                tracer.install()
                try:
                    with tracer.span("op"):
                        times, outputs = run_op(docs)
                finally:
                    tracer.uninstall()
            else:
                times, outputs = run_op(docs)
            deltas = {k: LINALG_STATS[k] - stats0[k] for k in LINALG_STATS}
            samples.append((traced, sum(times.values()), times, deltas))
            found = problems(docs, outputs)
        except Exception:
            traceback.print_exc()
            found = ["op raised"]
        if found:
            failed += 1
            print(f"op {attempted} failed: " + "; ".join(found), file=sys.stderr)
        if time.monotonic() - start >= args.seconds and (tracer is None or attempted >= 2):
            break

    kinds = {traced for traced, _, _, _ in samples}
    if kinds != ({False, True} if tracer else {False}):
        sys.exit("no op completed; nothing was measured")
    groups = tracer.per_group() if tracer else None
    metrics = per_layer(groups, samples) if tracer else end_to_end(samples, setup_s)
    walls = [wall for traced, wall, _, _ in samples if not traced]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "instances": [name for name, _, _ in docs],
        "setup_s.samples": setup_s,
        "op_s.samples": len(walls),
        "op_s.values": walls,
        "op_s.tail_percentile": tail(walls)[1],
        "fail_frac": failed / attempted,
    }
    if tracer:
        detail["workload_only_layers"] = workload_only_layers(groups)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "spans": tracer.spans}, fh)
        detail["spans_file"] = path
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
