"""Internal constructions build their values without checking them; these
tests check the values instead.

Each case builds the outputs of one construction over the built-in fixtures
and over seeded small graphs and preorders, and asserts that `violations()`
finds nothing wrong with any of them.  A construction that broke
functoriality, naturality or a composition table would pass every search
unnoticed, so this is the check that stands in for validating at run time.

It also asserts that every presheaf carrier is in canonical order, which
`violations()` does not check: `FinSet(...)` trusts it, and products and
pullbacks rely on it to build their pairs in canonical order unsorted.
"""

import random

import pytest

from finitopos import fixtures, kan
from finitopos.fincat import comma_from_object, opposite, poset_category, terminal_category
from finitopos.finset import canon_sort
from finitopos.graphpre import (
    RefGraph,
    embed,
    embed_map,
    embedded_map,
    enumerate_preorders,
    monotone_maps,
    preorder_reflection,
    preorders_of_size,
    reflect,
    vertex_maps_to_embedded,
)
from finitopos.presheaf import (
    Presheaf,
    PresheafMap,
    _over_to_elements,
    category_of_elements,
    dependent_product,
    elements_functor,
    empty_presheaf,
    exponential,
    exponential_presheaf,
    nat_transformations,
    product_presheaf,
    pullback_presheaf,
    terminal_presheaf,
    yoneda,
)
from oracles import ran_transpose

SEED = 20210521


def _categories():
    return [fixtures.get_category(n) for n in sorted(fixtures.FIXTURE_CATEGORIES)]


def _reflections():
    return [fixtures.get_reflection(n) for n in sorted(fixtures.FIXTURE_REFLECTIONS)]


def _pieces(C):
    """Representables, the terminal and the empty presheaf on C."""
    return [yoneda(C, c) for c in C.objects] + [terminal_presheaf(C), empty_presheaf(C)]


def _graphs(count=8):
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
        out.append(RefGraph.of(n, edges))
    return out


def _preorders():
    return list(enumerate_preorders(2))


def _preorder_maps():
    """(P, Q, u) for every monotone u between preorders of size <= 2."""
    pre = _preorders()
    return [(P, Q, u) for P in pre for Q in pre for u in monotone_maps(P, Q)]


def _pi_instances(count=6):
    """Seeded (f: X -> Y, g: Z -> X) between embedded preorders."""
    rng = random.Random(SEED)
    pre = _preorders()
    out = []
    while len(out) < count:
        Y, X, Z = rng.choice(pre), rng.choice(pre), rng.choice(pre)
        fs, gs = monotone_maps(X, Y), monotone_maps(Z, X)
        if fs and gs:
            out.append((embed_map(rng.choice(fs), X, Y), embed_map(rng.choice(gs), Z, X)))
    return out


# ---------------------------------------------------------------------------
# one builder per construction; each returns the values it made


def _opposite():
    return [opposite(C) for C in _categories()]


def _poset_category():
    return [poset_category(P.carrier, P.leq) for n in range(4) for P in preorders_of_size(n)]


def _terminal_category():
    return [terminal_category()]


def _comma_from_object():
    return [comma_from_object(a, R.L)[0] for R in _reflections() for a in R.A.objects]


def _yoneda():
    return [yoneda(C, c) for C in _categories() for c in C.objects]


def _terminal_and_empty():
    return [f(C) for C in _categories() for f in (terminal_presheaf, empty_presheaf)]


def _product_presheaf():
    out = []
    for C in _categories():
        pieces = _pieces(C)
        for X in pieces:
            for Y in pieces:
                out.extend(product_presheaf(X, Y))
    for G in _graphs(4):
        for H in _graphs(4):
            out.extend(product_presheaf(G.presheaf(), H.presheaf()))
    return out


def _pullback_presheaf():
    out = []
    for C in _categories():
        T = terminal_presheaf(C)
        pieces = _pieces(C)
        for X in pieces:
            for Y in pieces:
                f, g = nat_transformations(X, T)[0], nat_transformations(Y, T)[0]
                out.extend(pullback_presheaf(f, g))
    for P, Q, u in _preorder_maps():
        fu = embed_map(u, P, Q)
        for G in _graphs(4):
            for f in vertex_maps_to_embedded(G.presheaf(), embed(Q)):
                out.extend(pullback_presheaf(f, fu))
    return out


def _category_of_elements():
    out = []
    for C in _categories():
        for X in _pieces(C):
            el = category_of_elements(X)
            out += [el.category, el.projection]
    for G in _graphs(4):
        el = category_of_elements(G.presheaf())
        out += [el.category, el.projection]
    return out


def _nat_transformations():
    out = []
    for C in _categories():
        pieces = _pieces(C)
        for X in pieces:
            for Y in pieces:
                out.extend(nat_transformations(X, Y))
    for G in _graphs(3):
        for H in _graphs(3):
            out.extend(nat_transformations(G.presheaf(), H.presheaf()))
    return out


def _exponential_inputs():
    for name in ("chain-2", "delta1"):
        C = fixtures.get_category(name)
        for X in _pieces(C)[:2]:
            for Y in _pieces(C)[:2]:
                yield X, Y
    for G in _graphs(3):
        for P in _preorders():
            yield G.presheaf(), embed(P)


def _exponential():
    return [v for X, Y in _exponential_inputs() for v in exponential(X, Y)]


def _exponential_presheaf():
    return [exponential_presheaf(X, Y) for X, Y in _exponential_inputs()]


def _dependent_product():
    out = []
    for f, g in _pi_instances():
        el_x, el_y = category_of_elements(f.source), category_of_elements(f.target)
        el_f = elements_functor(f, el_x, el_y)
        out += [el_f, _over_to_elements(g, el_x), dependent_product(f, g)]
    C = fixtures.get_category("chain-2")
    X, Z = yoneda(C, "c1"), yoneda(C, "c0")
    g = nat_transformations(Z, X)[0]
    out.append(dependent_product(nat_transformations(X, terminal_presheaf(C))[0], g))
    return out


def _restrict():
    out = []
    for R in _reflections():
        for Y in _pieces(R.A):
            out.append(kan.restrict(R.L, Y))
            for Y2 in _pieces(R.A):
                out.extend(kan.restrict_map(R.L, a) for a in nat_transformations(Y, Y2))
    return out


def _lan():
    out = []
    for R in _reflections():
        pieces = _pieces(R.B)
        results = [kan.lan(R.L, X) for X in pieces]
        for rx, X in zip(results, pieces):
            out += [rx.output, kan.lan_unit(rx)]
            for V in _pieces(R.A):
                out.extend(kan.lan_transpose(rx, V, m)
                           for m in nat_transformations(X, kan.restrict(R.L, V)))
            for ry, Y in zip(results, pieces):
                out.extend(kan.lan_map(R.L, rx, ry, a) for a in nat_transformations(X, Y))
    return out


def _ran():
    out = []
    for R in _reflections():
        for X in _pieces(R.B):
            rx = kan.ran(R.L, X)
            out += [rx.output, kan.ran_counit(rx)]
            for V in _pieces(R.A):
                out.extend(ran_transpose(rx, V, m)
                           for m in nat_transformations(kan.restrict(R.L, V), X))
    return out


def _theta():
    R = fixtures.get_reflection("lattice-3-2")
    return [kan.theta(R, X)[0] for X in _pieces(R.B)]


def _refgraph_presheaf():
    return [G.presheaf() for G in _graphs()]


def _embed():
    return [embed(P) for n in range(4) for P in preorders_of_size(n)]


def _embed_map():
    return [embed_map(u, P, Q) for P, Q, u in _preorder_maps()]


def _embedded_map():
    return [embedded_map(u, embed(P), embed(Q)) for P, Q, u in _preorder_maps()]


def _reflect():
    return [reflect(G.presheaf()) for G in _graphs()]


def _preorder_reflection():
    out = []
    for G in _graphs():
        out.extend(preorder_reflection(G.presheaf()))
    for P in _preorders():
        out.extend(preorder_reflection(embed(P)))
    return out


def _vertex_maps_to_embedded():
    return [f for G in _graphs() for Q in _preorders()
            for f in vertex_maps_to_embedded(G.presheaf(), embed(Q))]


def _preorders_of_size():
    return [P for n in range(4) for P in preorders_of_size(n)]


def _composites():
    """FinFn.then and PresheafMap.then on values built above."""
    out = []
    for C in _categories():
        for X in _pieces(C):
            out += [X.act[g].then(X.act[f]) for (g, f) in C.comp]
    for G in _graphs(4):
        PG = G.presheaf()
        LG, unit = preorder_reflection(PG)
        for Q in _preorders():
            for u in monotone_maps(LG, Q):
                h = unit.then(embed_map(u, LG, Q))
                out.append(h)
                out.extend(h.components.values())
    return out


CASES = {
    "opposite": _opposite,
    "poset_category": _poset_category,
    "terminal_category": _terminal_category,
    "comma_from_object": _comma_from_object,
    "yoneda": _yoneda,
    "terminal_and_empty_presheaf": _terminal_and_empty,
    "product_presheaf": _product_presheaf,
    "pullback_presheaf": _pullback_presheaf,
    "category_of_elements": _category_of_elements,
    "nat_transformations": _nat_transformations,
    "exponential": _exponential,
    "exponential_presheaf": _exponential_presheaf,
    "dependent_product": _dependent_product,
    "restrict": _restrict,
    "lan": _lan,
    "ran": _ran,
    "theta": _theta,
    "RefGraph.presheaf": _refgraph_presheaf,
    "embed": _embed,
    "embed_map": _embed_map,
    "embedded_map": _embedded_map,
    "reflect": _reflect,
    "preorder_reflection": _preorder_reflection,
    "vertex_maps_to_embedded": _vertex_maps_to_embedded,
    "preorders_of_size": _preorders_of_size,
    "composites": _composites,
}


def _presheaves(v):
    if isinstance(v, Presheaf):
        return [v]
    if isinstance(v, PresheafMap):
        return [v.source, v.target]
    return []


@pytest.mark.parametrize("name", list(CASES))
def test_internal_construction_is_valid(name):
    values = CASES[name]()
    assert values, f"{name} built nothing to check"
    for v in values:
        bad = v.violations()
        assert not bad, f"{name}: {v!r}: {bad[:3]}"
        for P in _presheaves(v):
            for o, s in P.at.items():
                assert s.elements == canon_sort(s.elements), f"{name}: {P!r}: carrier at {o} out of order"
