"""Seeded basis permutations of bundle documents.

Relabelling the basis of H and of B by permutations gives an isomorphic
bundle: every verdict and every rank is unchanged, and the structure
constants keep exactly as many nonzero entries.  Only the order in which
the library meets rows, columns and pivots changes.
"""

from __future__ import annotations

import json
import random


def _perm_vec(vec, p):
    out = [None] * len(vec)
    for i, x in enumerate(vec):
        out[p[i]] = x
    return out


def _perm_rows(rows, perms):
    """Apply one permutation per index column; the last entry is the coefficient."""
    out = [[p[i] for p, i in zip(perms, row[:-1])] + [row[-1]] for row in rows]
    out.sort(key=lambda row: row[:-1])
    return out


def _perm_algebra(doc, p):
    doc["basis"] = _perm_vec(doc["basis"], p)
    doc["mult"] = _perm_rows(doc["mult"], (p, p, p))
    doc["unit"] = _perm_vec(doc["unit"], p)


def permute_text(text: str, ph, pb=None) -> str:
    """The bundle document with basis index i of H sent to ph[i] and basis
    index i of B sent to pb[i].  Covers mult, unit, basis labels, comult,
    counit, antipode, rmatrix, coaction and kmatrix."""
    doc = json.loads(text)
    h = doc["hopf"]
    _perm_algebra(h, ph)
    h["comult"] = _perm_rows(h["comult"], (ph, ph, ph))
    h["counit"] = _perm_vec(h["counit"], ph)
    h["antipode"] = _perm_rows(h["antipode"], (ph, ph))
    if "rmatrix" in doc:
        doc["rmatrix"] = _perm_rows(doc["rmatrix"], (ph, ph))
    if "comodule" in doc:
        c = doc["comodule"]
        _perm_algebra(c, pb)
        c["coaction"] = _perm_rows(c["coaction"], (pb, ph, pb))
        if "kmatrix" in doc:
            doc["kmatrix"] = _perm_rows(doc["kmatrix"], (ph, pb))
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def draw(rng: random.Random, text: str):
    """Draw the permutations (ph, pb) for one bundle document."""
    doc = json.loads(text)
    ph = list(range(doc["hopf"]["dim"]))
    rng.shuffle(ph)
    pb = None
    if "comodule" in doc:
        pb = list(range(doc["comodule"]["dim"]))
        rng.shuffle(pb)
    return ph, pb


def inverse(p):
    if p is None:
        return None
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return out
