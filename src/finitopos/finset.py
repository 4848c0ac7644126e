"""Exact finite sets, functions, and limits/colimits of set-valued diagrams.

Elements are hashable immutables (strings, ints, or nested tuples thereof);
`canon_key` gives them one global total order so every construction is
deterministic and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .budget import Budget, ensure_budget
from .errors import InvalidStructure, ShapeMismatch

Elem = object  # str | int | tuple of Elem


def _canon_key(e):
    if isinstance(e, tuple):
        return (2, tuple(canon_key(x) for x in e))
    if isinstance(e, str):
        return (1, e)
    if isinstance(e, bool):
        return (0, int(e))
    if isinstance(e, int):
        return (0, e)
    raise TypeError(f"unsupported element type: {type(e)!r}")


_canon_cache: dict = {}


def canon_key(e):
    """Total order on heterogeneous elements (type-tagged, recursive).

    Memoized: element encodings (e.g. of exponential transposes) repeat
    heavily across sorts, and they can be deeply nested.
    """
    # keys must distinguish 1 from True; pair the value with its type
    k = (e.__class__, e)
    try:
        return _canon_cache[k]
    except TypeError:
        return _canon_key(e)
    except KeyError:
        v = _canon_cache[k] = _canon_key(e)
        return v


def canon_sort(elems: Iterable[Elem]) -> tuple:
    return tuple(sorted(elems, key=canon_key))


@dataclass(frozen=True)
class FinSet:
    """A finite set.  `FinSet(...)` trusts that its elements come in
    canonical (`canon_key`) order; `FinSet.of` sorts them into it."""

    elements: tuple

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise InvalidStructure(["duplicate elements in FinSet"])

    @staticmethod
    def of(elems: Iterable[Elem]) -> "FinSet":
        return FinSet(canon_sort(elems))

    def __contains__(self, e) -> bool:
        try:
            members = self._members
        except AttributeError:
            members = frozenset(self.elements)
            object.__setattr__(self, "_members", members)
        return e in members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class FinFn:
    dom: FinSet
    cod: FinSet
    mapping: tuple  # (x, f(x)) pairs sorted by canon_key of x

    @staticmethod
    def of(dom: FinSet, cod: FinSet, table) -> "FinFn":
        if callable(table):
            table = {x: table(x) for x in dom}
        try:
            # dom.elements are in canonical order, so no sort is needed; a
            # list gives the tuple its exact size (tuple(genexpr) over-allocates)
            pairs = tuple([(x, table[x]) for x in dom.elements])
        except KeyError:
            pairs = None
        if pairs is not None and len(table) == len(pairs) and all(v in cod for _, v in pairs):
            return FinFn(dom, cod, pairs)
        pairs = tuple(sorted(table.items(), key=lambda kv: canon_key(kv[0])))
        raise InvalidStructure(FinFn(dom, cod, pairs).violations())

    @staticmethod
    def identity(s: FinSet) -> "FinFn":
        return FinFn(s, s, tuple([(x, x) for x in s.elements]))

    def violations(self) -> list:
        table = self.table
        dom = set(self.dom.elements)
        cod = set(self.cod.elements)
        if table.keys() == dom and set(table.values()) <= cod:
            return []
        out = []
        for x in sorted(dom - table.keys(), key=canon_key):
            out.append(f"FinFn not total: missing {x!r}")
        for x in sorted(table.keys() - dom, key=canon_key):
            out.append(f"FinFn keyed by non-domain element {x!r}")
        for x in sorted(table.keys() & dom, key=canon_key):
            if table[x] not in cod:
                out.append(f"FinFn value {table[x]!r} outside codomain")
        return out

    def __call__(self, x):
        return self.table[x]

    @property
    def table(self) -> dict:
        try:
            return self._table
        except AttributeError:
            t = dict(self.mapping)
            object.__setattr__(self, "_table", t)
            return t

    def then(self, g: "FinFn") -> "FinFn":
        """self followed by g (i.e. g . self).

        The composite of two total functions whose shapes match is total, and
        it keeps `self.mapping`'s canonical key order, so it is neither
        validated nor sorted again."""
        if g.dom != self.cod:
            raise ShapeMismatch("FinFn composition shape mismatch")
        gt = g.table
        # a list, not a generator, for the reason given in FinFn.of
        return FinFn(self.dom, g.cod, tuple([(x, gt[v]) for x, v in self.mapping]))

    def is_injective(self) -> bool:
        vals = [v for _, v in self.mapping]
        return len(set(vals)) == len(vals)

    def is_surjective(self) -> bool:
        return set(v for _, v in self.mapping) == set(self.cod.elements)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


class SetDiagram:
    """Covariant finite-set-valued functor on a finite index category."""

    def __init__(self, index, on_objects: dict, on_morphisms: dict):
        self.index = index  # FinCategory; kept untyped to avoid an import cycle
        self.on_objects = dict(on_objects)
        self.on_morphisms = dict(on_morphisms)

    @staticmethod
    def of(index, on_objects: dict, on_morphisms: dict) -> "SetDiagram":
        d = SetDiagram(index, on_objects, on_morphisms)
        bad = d.violations()
        if bad:
            raise InvalidStructure(bad)
        return d

    def obj(self, o) -> FinSet:
        return self.on_objects[o]

    def mor(self, m) -> FinFn:
        return self.on_morphisms[m]

    def violations(self) -> list:
        out = []
        C = self.index
        objs = self.on_objects
        mors = self.on_morphisms
        for o in C.objects:
            if o not in objs:
                out.append(f"diagram missing object {o}")
        for m in C.morphisms:
            if m not in mors:
                out.append(f"diagram missing morphism {m}")
        if out:
            return out
        for m in C.morphisms:
            fn = mors[m]
            if fn.dom != objs[C.dom[m]] or fn.cod != objs[C.cod[m]]:
                out.append(f"diagram morphism {m} has wrong endpoints")
        for o in C.objects:
            if mors[C.identity[o]] != FinFn.identity(objs[o]):
                out.append(f"diagram sends identity of {o} to a non-identity")
        for (g, f), gf in C.comp.items():
            if mors[f].then(mors[g]) != mors[gf]:
                out.append(f"diagram breaks composite {g}.{f}")
        return out


class UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # smaller canonical key wins, so representatives are deterministic
        if canon_key(ra) <= canon_key(rb):
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb

    def classes(self) -> dict:
        return {x: self.find(x) for x in self.parent}


def _search_order(successors: list) -> list:
    """Positions in the order the `families` search assigns them: next the
    least position that a constraint from an assigned one reaches (its value
    is then forced), else the least unassigned one.  This depends only on
    which positions are assigned, never on their values, so it is the same on
    every branch and is fixed before the search starts."""
    order, unassigned, reached = [], set(range(len(successors))), set()
    while unassigned:
        p = min(reached or unassigned)
        order.append(p)
        unassigned.discard(p)
        reached.discard(p)
        reached.update(k for k in successors[p] if k in unassigned)
    return order


def families(carriers: list, arrows: Iterable, budget: Budget | int | None = None) -> list:
    """Compatible families, in search order: tuples t with t[i] in
    carriers[i] and table[t[j]] == t[k] for every (j, k, table) in `arrows`.

    Backtracking with forward propagation, not a filter over the product: a
    constraint out of an assigned position forces the value at its target.
    The assignment order is fixed before the search (`_search_order`), so
    each step's forcing tables and checks against earlier steps are
    tabulated once, and the search runs on an explicit stack.  Every
    candidate tried charges the budget once.
    """
    b = ensure_budget(budget, "families")
    n = len(carriers)
    if not n:
        return [()]
    incoming: list = [[] for _ in range(n)]  # [(j, table)] for j -> p
    outgoing: list = [[] for _ in range(n)]  # [(k, table)] for p -> k
    loops: list = [[] for _ in range(n)]
    for j, k, t in arrows:
        if j == k:
            loops[j].append(t)
        else:
            incoming[k].append((j, t))
            outgoing[j].append((k, t))
    order = _search_order([[k for k, _ in out] for out in outgoing])
    step_of = [0] * n
    for s, p in enumerate(order):
        step_of[p] = s

    # per step: the values to try when nothing forces one, the forcing
    # tables (from earlier steps), the tables checked against earlier steps,
    # and the values every loop fixes (None when that is all of them)
    values, forcing, checks, fixed = [], [], [], []
    for s, p in enumerate(order):
        carrier = carriers[p]
        values.append(carrier)
        forcing.append([(step_of[j], t) for j, t in incoming[p] if step_of[j] < s])
        checks.append([(step_of[k], t) for k, t in outgoing[p] if step_of[k] < s])
        keep = [v for v in carrier if all(t[v] == v for t in loops[p])]
        fixed.append(None if len(keep) == len(carrier) else set(keep))

    def candidates(s: int, vals: list):
        if not forcing[s]:
            return values[s]
        (q, t), *rest = forcing[s]
        v = t[vals[q]]
        for q, t in rest:
            if t[vals[q]] != v:
                return ()
        return (v,)

    charge = b.charge
    last = n - 1
    results: list[tuple] = []
    vals: list = [None] * n
    cands: list = [()] * n
    tried = [0] * n
    s = 0
    cands[0] = candidates(0, vals)
    while s >= 0:
        i = tried[s]
        if i == len(cands[s]):
            s -= 1
            continue
        tried[s] = i + 1
        v = cands[s][i]
        charge()
        keep = fixed[s]
        if keep is not None and v not in keep:
            continue
        for q, t in checks[s]:
            if t[v] != vals[q]:
                break
        else:
            vals[s] = v
            if s == last:
                results.append(tuple([vals[q] for q in step_of]))
            else:
                s += 1
                cands[s] = candidates(s, vals)
                tried[s] = 0
    return results


def limit(D: SetDiagram, budget: Budget | int | None = None) -> tuple[FinSet, dict]:
    """Set of compatible families, tuples in index-object order, with
    projections: `families` with one constraint per index morphism."""
    C, objs = D.index, list(D.index.objects)
    pos = {o: i for i, o in enumerate(objs)}
    lim = FinSet.of(families(
        [D.obj(o).elements for o in objs],
        [(pos[C.dom[m]], pos[C.cod[m]], D.mor(m).table) for m in C.morphisms],
        ensure_budget(budget, "limit")))
    return lim, {o: FinFn(lim, D.obj(o), tuple([(t, t[i]) for t in lim.elements]))
                 for i, o in enumerate(objs)}


def colimit(D: SetDiagram) -> tuple[FinSet, dict]:
    """Quotient of the disjoint union by the generated equivalence.

    Class representatives are least tagged elements in canonical order, so
    output is deterministic.  Injections are returned per index object.
    """
    C = D.index
    items = [(o, x) for o in C.objects for x in D.obj(o)]
    uf = UnionFind(items)
    for m in C.morphisms:
        fn = D.mor(m)
        j, k = C.dom[m], C.cod[m]
        for x in D.obj(j):
            uf.union((j, x), (k, fn(x)))
    cls = uf.classes()
    colim = FinSet.of(set(cls.values()))
    injs = {
        o: FinFn.of(D.obj(o), colim, {x: cls[(o, x)] for x in D.obj(o)})
        for o in C.objects
    }
    return colim, injs
