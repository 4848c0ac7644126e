"""Reference computations the tests compare the program against.

Each is written apart from the program's own path to the same result:
`limit_by_product` filters the whole cartesian product instead of
searching, `presheaf_iso` scans every natural transformation for a
pointwise bijection, and `ran_transpose` builds the adjunct across
L* -| L_* family by family.
"""

import itertools

from finitopos.finset import FinFn, FinSet, SetDiagram
from finitopos.kan import KanResult, restrict
from finitopos.presheaf import Presheaf, PresheafMap, nat_transformations, yoneda


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
