"""Presheaf calculus: Yoneda, Nat-enumeration, exponentials, corpus.

Brute-force oracles are used wherever the search-based enumeration could in
principle be wrong: Nat counts are compared against a direct all-families
filter, and exponentials against the currying bijection.
"""

import itertools
import random

import pytest

from finitopos import fixtures, kan
from finitopos.budget import Budget
from finitopos.errors import BudgetExceeded, InvalidStructure, ShapeMismatch
from finitopos.fincat import terminal_category
from finitopos.finset import FinFn, FinSet
from finitopos.graphpre import (
    RefGraph,
    embed,
    embed_map,
    enumerate_graphs,
    enumerate_preorders,
    monotone_maps,
    preorders_of_size,
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
    presheaf_corpus,
    product_presheaf,
    pullback_presheaf,
    terminal_presheaf,
    yoneda,
)
from oracles import nat_by_limit, presheaf_iso


def _nat_count_oracle(X, Y):
    """All component families, filtered by naturality; exponential blowup,
    only for tiny inputs."""
    C = X.base
    per_obj = []
    for c in C.objects:
        fams = [dict(zip(X.at[c], vals))
                for vals in itertools.product(list(Y.at[c]), repeat=len(X.at[c]))]
        per_obj.append([(c, f) for f in fams])
    count = 0
    for combo in itertools.product(*per_obj):
        comp = {c: f for c, f in combo}
        ok = True
        for m in C.morphisms:
            c, d = C.dom[m], C.cod[m]
            for x in X.at[d]:
                if comp[c][X.act[m](x)] != Y.act[m](comp[d][x]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_yoneda_lemma_counts():
    C = fixtures.delta1_base()
    for X in (yoneda(C, "V"), yoneda(C, "E"), terminal_presheaf(C)):
        for c in C.objects:
            nats = nat_transformations(yoneda(C, c), X)
            assert len(nats) == len(X.at[c])  # [DERIVED] Yoneda bijection


@pytest.mark.parametrize("cname", ["delta1", "chain-2", "bool-2"])
def test_nat_enumeration_matches_bruteforce(cname):
    C = fixtures.get_category(cname)
    pieces = [yoneda(C, c) for c in C.objects] + [terminal_presheaf(C)]
    for X in pieces:
        for Y in pieces:
            assert len(nat_transformations(X, Y)) == _nat_count_oracle(X, Y)


def test_nat_out_of_empty_is_singleton():
    C = fixtures.delta1_base()
    E = empty_presheaf(C)
    assert len(nat_transformations(E, yoneda(C, "V"))) == 1
    assert len(nat_transformations(yoneda(C, "V"), E)) == 0


def test_presheaf_functoriality_enforced():
    C = fixtures.delta1_base()
    at = {"V": FinSet.of(["a"]), "E": FinSet.of(["e"])}
    act = {
        "d0": FinFn.of(at["E"], at["V"], {"e": "a"}),
        "d1": FinFn.of(at["E"], at["V"], {"e": "a"}),
        "s": FinFn.of(at["V"], at["E"], {"a": "e"}),
        # wrong: d0.s should be forced to the identity-compatible composite
        "d0.s": FinFn.of(at["E"], at["E"], {"e": "e"}),
        "d1.s": FinFn.of(at["E"], at["E"], {"e": "e"}),
    }
    Presheaf.of(C, at, act)  # fine: the composites agree here
    at2 = {"V": FinSet.of(["a", "b"]), "E": FinSet.of(["e"])}
    act2 = {
        "d0": FinFn.of(at2["E"], at2["V"], {"e": "a"}),
        "d1": FinFn.of(at2["E"], at2["V"], {"e": "b"}),
        "s": FinFn.of(at2["V"], at2["E"], {"a": "e", "b": "e"}),
        "d0.s": FinFn.of(at2["E"], at2["E"], {"e": "e"}),
        "d1.s": FinFn.of(at2["E"], at2["E"], {"e": "e"}),
    }
    # s.d0 = id(V) forces act(d0) then act(s)... which sends b to a: broken
    with pytest.raises(InvalidStructure):
        Presheaf.of(C, at2, act2)


def test_product_and_pullback_pointwise():
    C = fixtures.delta1_base()
    X, Y = yoneda(C, "E"), yoneda(C, "V")
    P, p1, p2 = product_presheaf(X, Y)
    for c in C.objects:
        assert len(P.at[c]) == len(X.at[c]) * len(Y.at[c])
    T = terminal_presheaf(C)
    f = nat_transformations(X, T)[0]
    g = nat_transformations(Y, T)[0]
    W, q1, q2 = pullback_presheaf(f, g)
    for c in C.objects:
        assert len(W.at[c]) == len(P.at[c])  # pullback over terminal = product


def _pairs_reference(X, Y, keep):
    """The subpresheaf of X x Y on the pairs that `keep(o, x, y)` accepts,
    with its projections, sorted by FinSet.of and checked by FinFn.of."""
    C = X.base
    at = {o: FinSet.of((x, y) for x in X.at[o] for y in Y.at[o] if keep(o, x, y))
          for o in C.objects}
    act = {m: FinFn.of(at[C.cod[m]], at[C.dom[m]],
                       {(x, y): (X.act[m](x), Y.act[m](y)) for x, y in at[C.cod[m]]})
           for m in C.morphisms}
    P = Presheaf(C, at, act)
    return (P,) + tuple(
        PresheafMap(P, Z, {o: FinFn.of(at[o], Z.at[o], {p: p[i] for p in at[o]})
                           for o in C.objects})
        for i, Z in enumerate((X, Y)))


def _mixed_presheaves():
    """Presheaves on chain-2 whose carriers mix ints, strings and nested
    tuples (exponential encodings among them), some of them empty."""
    C = fixtures.get_category("chain-2")

    def make(c0, c1, act):  # act at m_c0_c1: P(c1) -> P(c0)
        at = {"c0": FinSet.of(c0), "c1": FinSet.of(c1)}
        return Presheaf.of(C, at, {"m_c0_c1": FinFn.of(at["c1"], at["c0"], act)})

    return [
        make([0, "a", ("b", (1, "c"))], [2, "z", (("y",), 3)],
             {2: 0, "z": ("b", (1, "c")), (("y",), 3): 0}),
        make([10, "a"], [], {}),
        make([("n", ((0,),)), 7], [("n", ((0,),)), "q", -1],
             {("n", ((0,),)): ("n", ((0,),)), "q": 7, -1: 7}),
        exponential_presheaf(yoneda(C, "c1"), yoneda(C, "c0")),
        exponential_presheaf(terminal_presheaf(C), yoneda(C, "c0")),
        terminal_presheaf(C),
        empty_presheaf(C),
    ]


def test_product_and_pullback_equal_a_sorted_and_checked_reference():
    """Pairs built in nested carrier order come out in canonical order, so
    the direct builders give what FinSet.of and FinFn.of would."""
    pieces = _mixed_presheaves()
    for X in pieces:
        for Y in pieces:
            assert product_presheaf(X, Y) == _pairs_reference(X, Y, lambda o, x, y: True)
    pullbacks = 0
    for Z in pieces[:3] + pieces[-2:]:
        maps = {id(X): nat_transformations(X, Z)[:3] for X in pieces}
        for X in pieces:
            for Y in pieces:
                for f in maps[id(X)]:
                    for g in maps[id(Y)]:
                        def keep(o, x, y, f=f, g=g):
                            return f.components[o](x) == g.components[o](y)
                        assert pullback_presheaf(f, g) == _pairs_reference(X, Y, keep)
                        pullbacks += 1
    assert pullbacks > 100


def test_pullback_of_maps_into_different_targets_raises():
    C = fixtures.get_category("chain-2")
    X, T = yoneda(C, "c0"), terminal_presheaf(C)
    f = nat_transformations(X, T)[0]
    g = nat_transformations(X, yoneda(C, "c1"))[0]
    with pytest.raises(ShapeMismatch):
        pullback_presheaf(f, g)
    # an equal target that is a different object is still a cospan
    h = nat_transformations(X, terminal_presheaf(C))[0]
    assert h.target is not f.target
    assert pullback_presheaf(f, h) == pullback_presheaf(f, f)


def test_exponential_currying_bijection():
    C = fixtures.get_category("chain-2")
    X = yoneda(C, "c1")
    Y = yoneda(C, "c0")
    Z = terminal_presheaf(C)
    E, ev = exponential(X, Y)
    ZX, _, _ = product_presheaf(Z, X)
    # [DERIVED] |Hom(Z x X, Y)| = |Hom(Z, Y^X)|
    assert len(nat_transformations(ZX, Y)) == len(nat_transformations(Z, E))
    # ev is natural by construction; spot-check its endpoint shape
    assert ev.target is Y or ev.target == Y


def test_exponential_on_delta1_matches_currying():
    C = fixtures.delta1_base()
    X = yoneda(C, "V")
    Y = yoneda(C, "E")
    E, _ = exponential(X, Y)
    for Z in (yoneda(C, "V"), yoneda(C, "E")):
        ZX, _, _ = product_presheaf(Z, X)
        assert len(nat_transformations(ZX, Y)) == len(nat_transformations(Z, E))


def _exponential_cases():
    """Representables and the terminal presheaf on two fixtures, and seeded
    (graph, embedded preorder) pairs."""
    cases = []
    for name in ("chain-2", "delta1"):
        C = fixtures.get_category(name)
        pieces = [yoneda(C, c) for c in C.objects] + [terminal_presheaf(C)]
        cases += [(X, Y) for X in pieces for Y in pieces]
    rng = random.Random(20210521)
    pre = list(enumerate_preorders(2))
    graphs = list(enumerate_graphs(2, 2))
    for _ in range(6):
        cases.append((rng.choice(graphs).presheaf(), embed(rng.choice(pre))))
    return cases


def test_exponential_presheaf_and_evaluation():
    """exponential_presheaf builds exponential's E, and ev evaluates each
    family at the identity, element by element."""
    for X, Y in _exponential_cases():
        E, ev = exponential(X, Y)
        assert exponential_presheaf(X, Y) == E
        C = X.base
        for c in C.objects:
            P, _, _ = product_presheaf(yoneda(C, c), X)
            fams = {m.encoding(): m for m in nat_transformations(P, Y)}
            assert list(fams) == list(E.at[c].elements)
            comp = ev.components[c]
            assert [k for k, _ in comp.mapping] == list(ev.source.at[c].elements)
            assert comp.table == {
                (enc, x): alpha.components[c]((C.identity[c], x))
                for enc, alpha in fams.items() for x in X.at[c]
            }


def test_nat_transformations_out_of_a_large_presheaf():
    """1 100 elements on the point category: the limit search takes one
    step per element, deeper than Python's recursion limit."""
    C = terminal_category()
    X = Presheaf(C, {"pt": FinSet.of(range(1100))}, {})
    fams = nat_transformations(X, terminal_presheaf(C))
    assert len(fams) == 1
    assert fams[0].components["pt"].mapping == tuple((i, "*") for i in range(1100))


def test_nat_enumeration_budget_charges_are_pinned():
    """One charge per candidate value tried, summed over calls that share a
    budget.  The counts pin which candidates the search tries, so a change
    to its order or to forcing shows here."""
    C = fixtures.delta1_base()
    G = RefGraph.of(3, [(0, 1), (1, 2), (2, 2)]).presheaf()
    discrete, chain, indiscrete = (embed(P) for P in preorders_of_size(2))
    b = Budget(10**6)
    pairs = [(G, discrete), (G, indiscrete),
             (product_presheaf(yoneda(C, "E"), G)[0], chain),
             (yoneda(C, "E"), G), (G, G)]
    got = []
    for X, Y in pairs:
        got.append((len(nat_transformations(X, Y, b)), b.spent))
    assert got == [(2, 22), (8, 106), (10, 554), (6, 644), (20, 806)]


def _nat_oracle_pairs():
    """Pairs over each fixture's presheaf corpus (each holds the empty
    presheaf), over presheaves whose elements' names sort apart from their
    canonical order (10 before 2), and over reflexive graphs and embedded
    preorders, whose endomorphisms d0.s and d1.s of E make non-identity
    loops in el(X)."""
    pairs = []
    for name, bound in (("delta1", 2), ("chain-2", 2), ("chain-3", 2), ("point", 2),
                        ("bool-2", 1), ("m3", 1)):
        corpus = presheaf_corpus(fixtures.get_category(name), bound)
        pairs += [(X, Y) for X in corpus for Y in corpus]
    mixed = _mixed_presheaves()
    pairs += [(X, Y) for X in mixed for Y in mixed]
    graphs = ([G.presheaf() for G in enumerate_graphs(2, 2)]
              + [embed(P) for P in enumerate_preorders(2)])
    pairs += [(X, Y) for X in graphs for Y in graphs]
    return pairs


def test_nat_transformations_equal_the_limit_over_the_category_of_elements():
    """The same families, in the same order, for the same budget charges as
    the route through category_of_elements, opposite and finset.limit."""
    for X, Y in _nat_oracle_pairs():
        b_new, b_old = Budget(10**6), Budget(10**6)
        got = nat_transformations(X, Y, b_new)
        want = nat_by_limit(X, Y, b_old)
        assert [m.encoding() for m in got] == [m.encoding() for m in want]
        assert b_new.spent == b_old.spent


def test_nat_transformations_run_out_of_budget_where_the_limit_does():
    """A budget one charge short of a search raises on both routes after the
    same charges; a budget of exactly the charges is enough for both."""
    checked = 0
    for X, Y in _nat_oracle_pairs()[::7]:
        full = Budget(10**6)
        nat_by_limit(X, Y, full)
        spent = full.spent
        if not spent:
            continue
        for enumerate_nat in (nat_transformations, nat_by_limit):
            short = Budget(spent - 1)
            with pytest.raises(BudgetExceeded):
                enumerate_nat(X, Y, short)
            assert short.spent == spent
            exact = Budget(spent)
            enumerate_nat(X, Y, exact)
            assert exact.spent == spent
        checked += 1
    assert checked > 50


def test_category_of_elements_matches_brute_force():
    """Arrows from a scan of all pairs of elements, and the composite of
    every composable pair of arrows."""
    presheaves = [G.presheaf() for G in enumerate_graphs(2, 2)]
    for name in ("chain-2", "m3"):
        C = fixtures.get_category(name)
        presheaves += [yoneda(C, c) for c in C.objects] + [terminal_presheaf(C)]
    for P in presheaves:
        C = P.base
        el = category_of_elements(P)
        cat, over = el.category, el.projection.mor_map
        arrows = {
            (phi, o1, o2)
            for o1 in cat.objects for o2 in cat.objects
            for phi in C.hom(el.decode[o1][0], el.decode[o2][0])
            if P.act[phi](el.decode[o2][1]) == el.decode[o1][1]
        }
        assert {(over[n], cat.dom[n], cat.cod[n]) for n in cat.morphisms} == arrows
        composites = {
            (n2, n1): el.mor_id[(C.compose(over[n2], over[n1]), cat.dom[n1], cat.cod[n2])]
            for n1 in cat.morphisms for n2 in cat.morphisms if cat.cod[n1] == cat.dom[n2]
        }
        assert cat.comp == composites


def test_category_of_elements_delta1():
    C = fixtures.delta1_base()
    X = yoneda(C, "E")
    el = category_of_elements(X)
    # objects = disjoint union of the carriers
    assert len(el.category.objects) == sum(len(X.at[c]) for c in C.objects)
    # projection is a functor onto the base
    el.projection.validate()


def test_dependent_product_along_identity_is_input():
    C = fixtures.get_category("chain-2")
    X = yoneda(C, "c1")
    Z = yoneda(C, "c0")
    g = nat_transformations(Z, X)[0]
    f = PresheafMap.identity(X)
    pi = dependent_product(f, g)
    assert presheaf_iso(pi.source, Z) is not None  # [DERIVED] Pi_id g = g


def test_dependent_product_over_terminal_is_exponential_count():
    C = fixtures.get_category("chain-2")
    T = terminal_presheaf(C)
    X = yoneda(C, "c1")
    Z = yoneda(C, "c0")
    bang_x = nat_transformations(X, T)[0]
    g = nat_transformations(Z, X)[0]
    pi = dependent_product(bang_x, g)
    E, _ = exponential(X, Z)
    # [DERIVED] Pi over the terminal computes sections; compare against the
    # subobject of the exponential fixed by ev-compatibility via Nat counts
    for c in C.objects:
        assert len(pi.source.at[c]) <= len(E.at[c]) or len(E.at[c]) == 0


def _dependent_product_reference(f, g):
    """(Z over el(X), Pi_f g) built as `dependent_product` does, but with
    every carrier sorted by FinSet.of and every function checked by
    FinFn.of."""
    X, Y, Z = f.source, f.target, g.source
    el_x, el_y = category_of_elements(X), category_of_elements(Y)
    elC = el_x.category
    at = {oid: FinSet.of(z for z in Z.at[c] if g.components[c](z) == x)
          for oid in elC.objects for c, x in [el_x.decode[oid]]}
    act = {m: FinFn.of(at[elC.cod[m]], at[elC.dom[m]],
                       {z: Z.act[el_x.projection.mor_map[m]](z) for z in at[elC.cod[m]]})
           for m in elC.morphisms}
    z_tilde = Presheaf(elC, at, act)
    w = kan.ran(elements_functor(f, el_x, el_y), z_tilde).output
    C = Y.base
    W_at = {c: FinSet.of((y, v) for y in Y.at[c] for v in w.at[el_y.obj_id[(c, y)]])
            for c in C.objects}
    W_act = {}
    for m in C.morphisms:
        c, d = C.dom[m], C.cod[m]
        table = {}
        for y, v in W_at[d]:
            y1 = Y.act[m](y)
            em = el_y.mor_id[(m, el_y.obj_id[(c, y1)], el_y.obj_id[(d, y)])]
            table[(y, v)] = (y1, w.act[em](v))
        W_act[m] = FinFn.of(W_at[d], W_at[c], table)
    W = Presheaf(C, W_at, W_act)
    proj = {c: FinFn.of(W_at[c], Y.at[c], {p: p[0] for p in W_at[c]}) for c in C.objects}
    return z_tilde, PresheafMap(W, Y, proj)


def test_dependent_product_equals_a_sorted_and_checked_reference():
    """Over every (f: X -> Y, g: Z -> X) between preorders of size at most
    2, the fibers of g and Pi_f g with its projection are what FinSet.of
    and FinFn.of would build, empty fibers among them."""
    pre = [(P, embed(P)) for P in enumerate_preorders(2)]
    instances = empty = 0
    for Y, FY in pre:
        for X, FX in pre:
            for f in monotone_maps(X, Y):
                ff = embed_map(f, X, Y)
                for Z, _ in pre:
                    for g in monotone_maps(Z, X):
                        gg = embed_map(g, Z, X)
                        z_ref, pi_ref = _dependent_product_reference(ff, gg)
                        z_tilde = _over_to_elements(gg, category_of_elements(FX))
                        assert z_tilde.encoding() == z_ref.encoding()
                        assert dependent_product(ff, gg) == pi_ref
                        instances += 1
                        empty += any(len(s) == 0 for s in z_tilde.at.values())
    assert instances == 438 and empty > 0


def test_corpus_is_deterministic_and_deduped():
    C = fixtures.get_category("chain-2")
    c1 = presheaf_corpus(C, carrier_bound=2)
    c2 = presheaf_corpus(C, carrier_bound=2)
    assert [p.encoding() for p in c1] == [p.encoding() for p in c2]
    from finitopos.presheaf import canonical_encoding
    encs = {canonical_encoding(p) for p in c1}
    assert len(encs) == len(c1)  # relabeling-iso classes are distinct
