"""Finite groups as Cayley tables, with the handful of groups the example
registry needs (cyclic groups, symmetric groups, chosen subgroups)."""

from __future__ import annotations

from itertools import permutations

from .errors import HopffactError


class FiniteGroup:
    """A finite group: Cayley table, inverses, identity, printable names."""

    __slots__ = ("order", "cayley", "inverse", "identity", "names")

    def __init__(self, cayley, names, identity: int = 0):
        cayley = tuple(tuple(row) for row in cayley)
        n = len(cayley)
        names = tuple(names)
        if len(names) != n or any(len(row) != n for row in cayley):
            raise HopffactError("Cayley table shape mismatch")
        for i in range(n):
            if cayley[identity][i] != i or cayley[i][identity] != i:
                raise HopffactError("identity row/column is not the identity")
        inverse = [None] * n
        for i in range(n):
            for j in range(n):
                if cayley[i][j] == identity and cayley[j][i] == identity:
                    inverse[i] = j
                    break
            if inverse[i] is None:
                raise HopffactError(f"element {names[i]} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if cayley[cayley[i][j]][k] != cayley[i][cayley[j][k]]:
                        raise HopffactError("Cayley table is not associative")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "cayley", cayley)
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "names", names)

    def __setattr__(self, *a):
        raise AttributeError("FiniteGroup is immutable")

    def mul(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise HopffactError("cyclic group order must be positive")
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    if n == 1:
        names = ("e",)
    elif n == 2:
        names = ("e", "g")
    else:
        names = ("e", "g") + tuple(f"g{k}" for k in range(2, n))
    return FiniteGroup(cayley, names)


def _perm_name(p) -> str:
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        cycles.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group(n: int) -> FiniteGroup:
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    cayley = []
    for p in elems:
        row = []
        for q in elems:
            comp = tuple(p[q[k]] for k in range(n))
            row.append(index[comp])
        cayley.append(row)
    names = tuple(_perm_name(p) for p in elems)
    return FiniteGroup(cayley, names, identity=index[tuple(range(n))])


def group_by_name(name: str) -> FiniteGroup:
    name = name.strip()
    if name.upper().startswith("C") and name[1:].isdigit():
        return cyclic_group(int(name[1:]))
    if name.upper().startswith("S") and name[1:].isdigit():
        return symmetric_group(int(name[1:]))
    raise HopffactError(f"unknown group name {name!r}")


def subgroup_elements(g: FiniteGroup, sub_name: str):
    """Deterministic embedded subgroup: element indices of ``sub_name`` in g.

    The subgroup is generated by the first element (in basis order) of the
    right order that generates a subgroup isomorphic to the request; for the
    groups in the registry (cyclic subgroups of C_n and S_3) this is exact.
    """
    sub = group_by_name(sub_name)
    k = sub.order
    if g.order % k != 0:
        raise HopffactError(f"{sub_name} cannot embed in a group of order {g.order}")
    if k == 1:
        return (g.identity,)
    # cyclic subgroups only (C2, C3, ... generated by one element)
    if not sub_name.upper().startswith("C"):
        raise HopffactError("only cyclic subgroups are supported")
    for cand in range(g.order):
        elems = [g.identity]
        cur = cand
        while cur != g.identity:
            elems.append(cur)
            cur = g.mul(cur, cand)
        if len(elems) == k:
            return tuple(sorted(elems))
    raise HopffactError(f"no cyclic subgroup of order {k} found")
