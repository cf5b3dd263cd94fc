"""Self-test of the benchmark's seeded basis permutation; run it from the
root of a hopffact checkout:

    python3 benchmarks/selftest.py

For each instance of every workload in ``workloads.WORKLOADS`` and for
seeds 1, 2 and 3 it checks that the permuted document keeps every list's
length, that the inverse permutation gives the original document back,
that the permuted bundle passes all four ``check_*`` and the braided-module
checks, and that its verdicts equal those of the unpermuted bundle and the
reference table.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from hopffact import bundle  # noqa: E402

import permute  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _shape(text):
    """Length of every list in the document: permuting keeps all of them."""
    def walk(x, path):
        if isinstance(x, dict):
            for k, v in x.items():
                yield from walk(v, f"{path}/{k}")
        elif isinstance(x, list):
            yield path, len(x)
    return dict(walk(json.loads(text), ""))


def verdicts(text):
    """The comparable outputs of one pass over the four phases."""
    out = {phase: worker.PHASE_FNS[phase](text) for phase in worker.PHASES}
    simple = out["simple"]
    return out, {
        "check": [bool(v) for v in out["check"]],
        "factorizable": out["factorizable"],
        "simple": None if simple is None else simple[1].status,
        "braided": [bool(v) for v in out["braided"]],
    }


def main() -> int:
    errors = 0
    for wl in workloads.WORKLOADS:
        spec, instances = workloads.WORKLOADS[wl]
        field = workloads.field_of(spec)
        texts = [bundle.dumps(workloads.build(name, field)) for name in instances]
        docs = [(name, field.tag, text) for name, text in zip(instances, texts)]
        plain = []
        for doc in docs:
            out, summary = verdicts(doc[2])
            errors += _report(wl, doc[0], "identity", worker.problems([doc], [out]))
            plain.append(summary)
        for seed in SEEDS:
            rng = random.Random(seed)
            for (name, tag, text), want in zip(docs, plain):
                ph, pb = permute.draw(rng, text)
                moved = permute.permute_text(text, ph, pb)
                found = []
                if _shape(moved) != _shape(text):
                    found.append("list lengths changed")
                back = permute.permute_text(moved, permute.inverse(ph), permute.inverse(pb))
                if json.loads(back) != json.loads(permute.permute_text(
                        text, range(len(ph)), pb and range(len(pb)))):
                    found.append("inverse permutation does not restore the document")
                try:
                    out, got = verdicts(moved)
                except Exception as exc:  # a broken permutation may make loads or a check raise
                    found.append(f"raised {exc!r}")
                else:
                    found += worker.problems([(name, tag, moved)], [out])
                    if got != want:
                        found.append(f"verdicts {got} != unpermuted {want}")
                errors += _report(wl, name, f"seed {seed}", found)
    print(f"selftest: {'FAIL' if errors else 'PASS'} ({errors} failures)")
    return 1 if errors else 0


def _report(wl, name, what, found):
    print(f"{wl:12s} {name:24s} {what:9s} {'; '.join(found) or 'ok'}", flush=True)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
