"""Regenerate the baseline tables in one command, from the root of a hopffact
checkout:

    python3 benchmarks/baseline.py

For each workload it makes RUNS untraced and RUNS traced runs of
``run.py`` (seeds 1, 2, ...), one after another, and writes the medians to
``benchmarks/BASELINE.md`` and ``benchmarks/baseline.json``.  Each run
measures for BENCHMARK.json's ``run_seconds``.  Besides the two workloads
of BENCHMARK.json it runs ``q16`` and ``gf36-reflective``, the second
dimension-36 instance of the re-anchor baseline.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gf36", "gf36-reflective", "q-registry", "q16")
RUNS = 3

def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return result["metrics"], detail


def slowest_braided_call(spans_file):
    """Per traced op, the longest check_braided_module call: the (regular,
    regular) pair, whose carrier is the largest."""
    with open(spans_file, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    per_op: dict = {}
    for name, start, end, _, op, _ in spans:
        if name == "comodule.check_braided_module" and op.startswith("op"):
            per_op[op] = max(per_op.get(op, 0.0), end - start)
    return statistics.median(per_op.values())


def median_metrics(results):
    return {k: statistics.median(r[k]["value"] for r in results) for k in results[0]}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = range(1, RUNS + 1)
    table = {}
    for wl in WORKLOADS:
        plain = [run(wl, s, seconds, 0)[0] for s in seeds]
        traced = [run(wl, s, seconds, 1) for s in seeds]
        only = [d["workload_only_layers"] for _, d in traced]
        table[wl] = {
            "end_to_end": median_metrics(plain),
            "per_layer": median_metrics([m for m, _ in traced]),
            "workload_only_layers": {
                name: {f: statistics.median(o[name][f] for o in only) for f in only[0][name]}
                for name in only[0]},
            "braided_slowest_call_s": statistics.median(
                slowest_braided_call(d["spans_file"]) for _, d in traced),
        }
        print(f"{wl}: done", file=sys.stderr)
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "runs": RUNS,
        "seconds": seconds,
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(HERE, "BASELINE.md"), "w", encoding="utf-8") as fh:
        fh.write(render(table, env, bench))


def render(table, env, bench):
    """Markdown tables; metric rows in the order BENCHMARK.json lists them."""
    def s(x):
        return f"{x:.3f}"

    g, r = table["gf36"], table["gf36-reflective"]
    gl, rl = g["per_layer"], r["per_layer"]
    lines = [
        "# Benchmark baseline",
        "",
        f"Medians of {env['runs']} runs per workload and mode (seeds 1..{env['runs']}, "
        f"{env['seconds']:g} s per run), Python {env['python']}, numpy {env['numpy']}, "
        f"{env['machine']}, one BLAS thread.  Regenerate with "
        "`python3 benchmarks/baseline.py`.  Times are seconds.",
        "",
        "## The re-anchor baseline rows",
        "",
        "| what | median |",
        "|---|---|",
        f"| `double:S3` GF(101): build (axioms verified) | {s(gl['constructions.build.total_s'])} |",
        f"| `double:S3` GF(101): `compute_end_space` | {s(gl['comodule.compute_end_space.total_s'])} |",
        f"| `double:S3` GF(101): ω / weak (includes ω) / `h_simplicity` / braided-module (reg,reg) "
        f"| {s(gl['comodule.omega_copairing.total_s'])} / {s(gl['comodule.weak_factorizability.total_s'])}"
        f" / {s(gl['comodule.h_simplicity.total_s'])} / {s(g['braided_slowest_call_s'])} |",
        f"| `reflective-trivial:S3` GF(101): build / end space / `h_simplicity` "
        f"| {s(rl['constructions.build.total_s'])} / {s(rl['comodule.compute_end_space.total_s'])}"
        f" / {s(rl['comodule.h_simplicity.total_s'])} |",
        f"| `double:S3` GF(101): factorizable phase (what `hopffact factorizable` does after the build) "
        f"| {s(g['end_to_end']['factorizable_s.p50'])} |",
        f"| `double:C4` over Q: one full pipeline (`q16` op) | {s(table['q16']['end_to_end']['op_s.p50'])} |",
        f"| 17 registry + 3 trivial-coaction instances over Q: one pass (`q-registry` op) "
        f"| {s(table['q-registry']['end_to_end']['op_s.p50'])} |",
        "",
        "## End to end (untraced runs)",
        "",
        "| metric | " + " | ".join(WORKLOADS) + " |",
        "|---|" + "---|" * len(WORKLOADS),
    ]
    for k in (m["name"] for m in bench["end_to_end"]):
        lines.append(f"| {k} | " + " | ".join(s(table[w]["end_to_end"][k]) for w in WORKLOADS) + " |")
    lines += [
        "",
        "## Per layer (traced runs): total / self seconds per op, calls per op",
        "",
        "`constructions.build` is per set-up.  Self time is a span minus its child spans.",
        "",
        "| layer | " + " | ".join(WORKLOADS) + " |",
        "|---|" + "---|" * len(WORKLOADS),
    ]
    layers = [m["name"][:-len(".self_s")] for m in bench["per_layer"]
              if m["name"].endswith(".self_s") and m["name"] != "op.self_s"]

    def row(total, self_s, calls):
        return f"{s(total)} / {s(self_s)} ({calls:g})"

    for name in layers:
        cells = [row(*(table[w]["per_layer"][name + x] for x in (".total_s", ".self_s", ".calls")))
                 for w in WORKLOADS]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    # spans only some workloads reach; "-" where a workload never calls them
    for name in ("rmatrix.drinfeld_map", "linalg.echelonize.gf", "linalg.echelonize.q"):
        cells = []
        for w in WORKLOADS:
            o = table[w]["workload_only_layers"].get(name)
            cells.append("-" if o is None else row(o["total_s"], o["self_s"], o["calls"]))
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    for k in ("op.total_s", "op.self_s", "linalg.eliminations", "linalg.rank_nullity_checks",
              "linalg.echelonize.cells", "trace.overhead"):
        lines.append(f"| {k} | " + " | ".join(
            f"{table[w]['per_layer'][k]:.6g}" for w in WORKLOADS) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
