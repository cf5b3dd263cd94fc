"""Timing spans around hopffact's public functions, from the benchmark's own
files.

``Tracer.install`` wraps each function in ``TARGETS`` and puts the wrapper on
every ``hopffact.*`` module attribute bound to the original function: some
modules import functions by name (``comodule`` and ``rmatrix`` import
``tensor_invert``, ``comodule`` imports ``echelonize`` and ``kernel_basis``),
so patching the defining module alone would miss those calls.
``Tracer.uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent, op, cells]`` lists,
one thread only.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import hopffact.bundle  # noqa: F401  (TARGETS names it; the package does not import it)
from hopffact.fields import PrimeField

# (defining module, function) -> span name
TARGETS = {
    ("hopffact.bundle", "loads"): "bundle.loads",
    ("hopffact.hopf", "check_hopf"): "hopf.check_hopf",
    ("hopffact.rmatrix", "check_r_matrix"): "rmatrix.check_r_matrix",
    ("hopffact.rmatrix", "drinfeld_map"): "rmatrix.drinfeld_map",
    ("hopffact.tensors", "tensor_invert"): "tensors.tensor_invert",
    ("hopffact.comodule", "check_comodule_algebra"): "comodule.check_comodule_algebra",
    ("hopffact.comodule", "check_k_matrix"): "comodule.check_k_matrix",
    ("hopffact.comodule", "compute_end_space"): "comodule.compute_end_space",
    ("hopffact.comodule", "theta_comodule"): "comodule.theta_comodule",
    ("hopffact.comodule", "omega_copairing"): "comodule.omega_copairing",
    ("hopffact.comodule", "weak_factorizability"): "comodule.weak_factorizability",
    ("hopffact.comodule", "h_simplicity"): "comodule.h_simplicity",
    ("hopffact.comodule", "costable_closure"): "comodule.costable_closure",
    ("hopffact.comodule", "check_braided_module"): "comodule.check_braided_module",
    ("hopffact.linalg", "kernel_basis"): "linalg.kernel_basis",
    ("hopffact.linalg", "echelonize"): "linalg.echelonize",
}


def _echelonize_tag(rows, ncols, field):
    """Field suffix and cells (rows × cols) of one ``echelonize`` call; the
    parameters mirror ``hopffact.linalg.echelonize``."""
    return (".gf" if isinstance(field, PrimeField) else ".q"), len(rows) * ncols


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagged = name == "linalg.echelonize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full, cells = name, None
            if tagged:
                suffix, cells = _echelonize_tag(*args, **kwargs)
                full += suffix
            idx = len(spans)
            spans.append([full, clock(), None, stack[-1] if stack else None, self.op, cells])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own (op, set-up, build)."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, self.op, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hopffact" or n.startswith("hopffact."))]
        for (modname, fname), name in TARGETS.items():
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def per_group(self):
        """{op: {name: [calls, total_s, self_s, cells]}} over recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, cells in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, op, cells) in enumerate(self.spans):
            row = out.setdefault(op, {}).setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
            row[3] += cells or 0
        return out
