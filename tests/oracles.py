"""Reference computations the tests compare the program against.

Each is written apart from the program's own path to the same result:
`limit_by_product` filters the whole cartesian product instead of
searching, `nat_by_limit` takes the limit of the target over the opposite
of the built category of elements, `presheaf_iso` scans every natural
transformation for a pointwise bijection, `ran_transpose` builds the
adjunct across L* -| L_* family by family, `graphs_by_canonical_filter`
keeps each edge multiset that is the least of its relabelings,
`spreads` moves a bitset's bits apart one by one, and
`exponential_relation` tests every pair of maps against every arrow.
"""

import itertools

from finitopos.fincat import opposite
from finitopos.finset import FinFn, FinSet, SetDiagram, canon_key, limit
from finitopos.graphpre import RefGraph
from finitopos.kan import KanResult, restrict
from finitopos.presheaf import (
    Presheaf,
    PresheafMap,
    category_of_elements,
    nat_transformations,
    yoneda,
)


def limit_by_product(D: SetDiagram) -> FinSet:
    """Equalizer-of-products limit: the tuples of the product, in
    index-object order, that every morphism of the index respects."""
    C = D.index
    objs = list(C.objects)
    pos = {o: i for i, o in enumerate(objs)}
    good = []
    for t in itertools.product(*[D.obj(o).elements for o in objs]):
        if all(D.mor(m)(t[pos[C.dom[m]]]) == t[pos[C.cod[m]]] for m in C.morphisms):
            good.append(t)
    return FinSet.of(good)


def nat_by_limit(X: Presheaf, Y: Presheaf, budget=None) -> list:
    """Nat(X, Y) as the limit of Y over el(X)^op, with el(X) built as a
    category: an el-arrow over phi: c -> d runs (d, y) -> (c, x) in the
    opposite and acts by Y(phi).  Families are read off the projections and
    sorted by the canonical key of their whole encodings."""
    el = category_of_elements(X)
    idx = opposite(el.category)
    on_objects = {o: Y.at[el.decode[o][0]] for o in idx.objects}
    on_morphisms = {m: Y.act[el.projection.mor_map[m]] for m in el.category.morphisms}
    lim, projs = limit(SetDiagram(idx, on_objects, on_morphisms), budget)
    fams = [
        PresheafMap(X, Y, {c: FinFn.of(X.at[c], Y.at[c],
                                       {x: projs[el.obj_id[(c, x)]](fam) for x in X.at[c]})
                           for c in X.base.objects})
        for fam in lim
    ]
    return sorted(fams, key=lambda m: canon_key(m.encoding()))


def presheaf_iso(X: Presheaf, Y: Presheaf) -> PresheafMap | None:
    """First canonical natural isomorphism X -> Y, or None."""
    if X.base != Y.base:
        return None
    if any(len(X.at[o]) != len(Y.at[o]) for o in X.base.objects):
        return None
    for m in nat_transformations(X, Y):
        if m.is_pointwise_bijection():
            return m
    return None


def ran_transpose(rx: KanResult, V: Presheaf, m: PresheafMap) -> PresheafMap:
    """Adjunct of m: L*V -> X across L* -| L_*: v -> (phi -> m(V(phi) v))."""
    L = rx.functor
    A, B = L.target, L.source
    comps = {}
    for a in A.objects:
        P = restrict(L, yoneda(A, a))
        table = {}
        for v in V.at[a]:
            fam_comps = {}
            for b in B.objects:
                tbl = {phi: m.components[b](V.act[phi](v)) for phi in P.at[b]}
                fam_comps[b] = FinFn.of(P.at[b], rx.input.at[b], tbl)
            table[v] = PresheafMap(P, rx.input, fam_comps).encoding()
        comps[a] = FinFn.of(V.at[a], rx.output.at[a], table)
    return PresheafMap(V, rx.output, comps)


def graphs_by_canonical_filter(n: int, e: int) -> list:
    """The graphs with n vertices and e extra edges, one per isomorphism
    class: every edge multiset in increasing order, kept iff it equals its
    canonical form, the least of its n! relabelings."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return [G for combo in itertools.combinations_with_replacement(pairs, e)
            for G in [RefGraph.of(n, combo)] if G == G.canonical()]


def spreads(rows, m: int) -> list:
    """Each row with its bit t moved to bit t * m, bit by bit (at m = 0 all
    set bits land on bit 0)."""
    out = []
    for r in rows:
        spread = 0
        for t in range(r.bit_length()):
            if r >> t & 1:
                spread |= 1 << t * m
        out.append(spread)
    return out


def exponential_relation(verts, pairs, P) -> tuple:
    """(vertex maps, edge index pairs) of (F P)^G, from G's `verts` and edge
    `pairs`, its distinguished loops among them.  The vertex maps are the
    maps verts -> P (dicts, in the order of itertools.product) that send
    each arrow to a related pair; (i, j) is an edge iff maps[i](a) <=
    maps[j](b) for every arrow (a, b), each pair of maps scanned in full."""
    rel = P.rel
    maps = [w for values in itertools.product(P.carrier, repeat=len(verts))
            for w in [dict(zip(verts, values))]
            if all((w[a], w[b]) in rel for a, b in pairs)]
    return maps, [(i, j) for i, g0 in enumerate(maps) for j, g1 in enumerate(maps)
                  if all((g0[a], g1[b]) in rel for a, b in pairs)]
