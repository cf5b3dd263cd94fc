"""Dict views of the structure tables and tensor elements, the tests'
reference for them.

The library stores structure constants and tensor elements only as
families (see ``hopffact.tensors``).  ``table_dict`` and ``element_dict``
read the raw COO arrays of a family in plain Python, through no library
kernel, so the references that loop over these dicts stay independent of
the code they are compared with.
"""


def table_dict(field, fam, dims_in, dims_out) -> dict:
    """{element: {output: c}} of a family, an index over several dims as
    its tuple of digits, row-major; elements without entries are left out.
    Element g holds the entries offsets[g] .. offsets[g] + counts[g] - 1."""
    counts, offsets, keys, vals = (a.tolist() for a in fam)
    return {_digits(g, dims_in): {_digits(keys[p], dims_out): field.scalar(vals[p])
                                  for p in range(off, off + cnt)}
            for g, (cnt, off) in enumerate(zip(counts, offsets)) if cnt}


def _digits(i, dims):
    return i if len(dims) == 1 else _multi_index(i, dims)


def _multi_index(i, dims) -> tuple:
    out = []
    for d in reversed(dims):
        i, r = divmod(i, d)
        out.append(r)
    return tuple(reversed(out))


def mult_dict(a) -> dict:
    """{(i, j): {k: c}}, c the coefficient of e_k in e_i·e_j."""
    return table_dict(a.field, a.mult_op(), (a.dim, a.dim), (a.dim,))


def comult_dict(c) -> dict:
    """{i: {(j, k): c}}, c the coefficient of e_j⊗e_k in Δ(e_i)."""
    return table_dict(c.field, c.comult_op(), (c.dim,), (c.dim, c.dim))


def coaction_dict(c) -> dict:
    """{b: {(h, b'): c}}, c the coefficient of e_h⊗e_b' in δ(e_b)."""
    return table_dict(c.field, c.coaction_op(), (c.dim,), (c.host.dim, c.dim))


def multiply(field, mult: dict, x: dict, y: dict) -> dict:
    """The product of two sparse elements {index: coeff} through the view
    ``mult`` of ``mult_dict``."""
    f = field
    out = {}
    for i, ci in x.items():
        if f.is_zero(ci):
            continue
        for j, cj in y.items():
            if f.is_zero(cj):
                continue
            cij = f.mul(ci, cj)
            for k, ck in mult.get((i, j), {}).items():
                val = f.add(out.get(k, f.zero), f.mul(cij, ck))
                if f.is_zero(val):
                    out.pop(k, None)
                else:
                    out[k] = val
    return out


def counit_of(coalgebra, x: dict):
    """ε of a sparse element {index: coeff}."""
    f = coalgebra.field
    s = f.zero
    for i, ci in x.items():
        s = f.add(s, f.mul(ci, coalgebra.counit[i]))
    return s


# -- tensor elements as plain dicts {multi-index: c}, nonzero c only -----------

def element_dict(t) -> dict:
    """{multi-index: c} of a TensorElement, read off its raw family arrays."""
    dims = [sp.dim for sp in t.factors]
    _, _, keys, vals = (a.tolist() for a in t._fam)
    return {_multi_index(k, dims): t.field.scalar(v) for k, v in zip(keys, vals)}


def terms_of(field, coeffs: dict) -> dict:
    """Given coefficients as field scalars, the zeros left out."""
    out = {tuple(i): field.scalar(c) for i, c in coeffs.items()}
    return {i: c for i, c in out.items() if not field.is_zero(c)}


def add_terms(field, x: dict, y: dict) -> dict:
    out = dict(x)
    for i, c in y.items():
        out[i] = field.add(out.get(i, field.zero), c)
    return {i: c for i, c in out.items() if not field.is_zero(c)}


def scale_terms(field, x: dict, s) -> dict:
    return terms_of(field, {i: field.mul(field.scalar(s), c) for i, c in x.items()})


def permute_terms(x: dict, perm) -> dict:
    """``perm[i]`` is the old position of the new leg i."""
    return {tuple(i[p] for p in perm): c for i, c in x.items()}


def contract_terms(field, x: dict, leg: int, covector) -> dict:
    """Σ covector[i_leg]·c over the terms, the leg dropped from the index."""
    out = {}
    for i, c in x.items():
        rest = i[:leg] + i[leg + 1:]
        w = field.mul(field.scalar(covector[i[leg]]), c)
        out[rest] = field.add(out.get(rest, field.zero), w)
    return {i: c for i, c in out.items() if not field.is_zero(c)}
