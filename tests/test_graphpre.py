"""Reflexive graphs vs preorders: enumeration, reflection, and the witness
searches.  Oracles: Burnside counts of edge multisets, preorder enumeration
with canonical-form dedup and OEIS A001930, and direct count comparisons
against the generic presheaf machinery."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitopos import checks, graphpre
from finitopos.errors import FinitoposError, InvalidStructure
from finitopos.finset import canon_key
from finitopos.presheaf import (
    dependent_product,
    exponential_presheaf,
    nat_transformations,
    product_presheaf,
    pullback_presheaf,
)
from finitopos.graphpre import (
    Preorder,
    RefGraph,
    _edge_pairs,
    _edge_respecting_values,
    _exponential_rows,
    _fibers,
    _graph_and_reflection,
    _is_transitive,
    _labelled_product_difference,
    _pi_instances,
    _pi_relation,
    _product_relation,
    _product_rows_agree,
    _pullback_edges,
    _pullback_vertices,
    _sle_instance_fails,
    _sle_relation_fails,
    _successor_rows,
    _transitive_rows,
    check_exponential_ideal_graphs,
    check_product_preservation,
    embed,
    embed_map,
    embedded_map,
    enumerate_graphs,
    enumerate_preorders,
    find_sle_failure,
    graphs_of_size,
    is_embedded_preorder,
    monotone_maps,
    preorder_reflection,
    preorders_of_size,
    product_reflection_agrees,
    reflect,
    reflect_map,
    transitive_closure,
    vertex_maps_to_embedded,
)
from finitopos.verdicts import FAIL, INCONCLUSIVE, NOT_FOUND, PASS
from oracles import exponential_relation, graphs_by_canonical_filter, spreads


# ---------------------------------------------------------------------------
# enumeration against brute-force oracles


def _graph_count_burnside(n, e):
    """Iso classes of e-edge multisets on n vertices, by Burnside's lemma:
    the average over relabelings s of the multisets s fixes.  s permutes
    the n * n vertex pairs in cycles, and a multiset it fixes takes one
    multiplicity per cycle, so s fixes as many multisets as there are ways
    to write e as a sum of its cycles' lengths, each any number of times."""
    fixed = 0
    for perm in itertools.permutations(range(n)):
        ways, seen = [1] + [0] * e, set()
        for pair in itertools.product(range(n), repeat=2):
            if pair in seen:
                continue
            length = 0
            while pair not in seen:
                seen.add(pair)
                length += 1
                pair = (perm[pair[0]], perm[pair[1]])
            for k in range(length, e + 1):
                ways[k] += ways[k - length]
        fixed += ways[e]
    classes, rest = divmod(fixed, math.factorial(n))
    assert rest == 0
    return classes


@pytest.mark.parametrize("n,e", [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2),
                                 (3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (4, 4),
                                 (4, 6), (5, 4)])
def test_graph_enumeration_matches_bruteforce(n, e):
    assert len(list(graphs_of_size(n, e))) == _graph_count_burnside(n, e)


def test_burnside_count_of_four_vertex_graphs():
    assert _graph_count_burnside(4, 4) == 198
    assert _graph_count_burnside(4, 6) == 2423
    assert _graph_count_burnside(5, 4) == 269


@pytest.mark.parametrize("n,e", [(n, e) for n in (3, 4) for e in range(5)]
                         + [(5, e) for e in range(4)])
def test_orbit_marking_lists_the_canonical_filter_in_order(n, e):
    """Orbit-marking yields the graphs that keeping each edge multiset equal
    to its canonical form yields, in the same order."""
    assert list(graphs_of_size(n, e)) == graphs_by_canonical_filter(n, e)


def test_graph_counts_three_vertices():
    # [DERIVED] iso classes of edge multisets on 3 vertices, 0..4 extra edges
    assert [len(list(graphs_of_size(3, e))) for e in range(5)] == [1, 2, 10, 31, 90]


def test_enumerated_graphs_are_canonical_and_distinct():
    seen = set()
    for G in enumerate_graphs(3, 3):
        assert G == G.canonical()
        key = (G.n, G.edges)
        assert key not in seen
        seen.add(key)


def _preorder_count_oracle(n):
    elems = tuple(range(n))
    diag = {(x, x) for x in elems}
    off = [(a, b) for a in elems for b in elems if a != b]
    seen = set()
    for r in range(len(off) + 1):
        for extra in itertools.combinations(off, r):
            rel = frozenset(diag | set(extra))
            if all((a, c) in rel
                   for (a, b) in rel for (b2, c) in rel if b2 == b):
                seen.add(RefGraph.of(n, rel).canonical())
    return len(seen)


def test_preorder_counts():
    # iso classes of preorders on 0..4 elements (OEIS A001930)
    assert [len(list(preorders_of_size(n))) for n in range(5)] == [1, 1, 3, 9, 33]
    for n in range(5):
        assert len(list(preorders_of_size(n))) == _preorder_count_oracle(n)


# ---------------------------------------------------------------------------
# the reflection and its universal property


def test_presheaf_of_graph_validates():
    G = RefGraph.of(3, [(0, 1), (1, 2), (0, 1)])
    P = G.presheaf()
    P.validate()
    # two distinguished loops live over each vertex plus the extra edges
    assert len(P.at["E"]) == 3 + 3
    assert len(P.at["V"]) == 3


def test_reflection_of_embedded_preorder_is_identity():
    for n in range(1, 4):
        for P in preorders_of_size(n):
            LP, unit = preorder_reflection(embed(P))
            assert frozenset(LP.rel) == P.rel
            # the unit is an isomorphism on vertices
            assert all(unit.components["V"](v) == v for v in P.carrier)


def test_reflect_is_the_object_part_of_preorder_reflection():
    for G in enumerate_graphs(3, 2):
        PG = G.presheaf()
        LG, _ = preorder_reflection(PG)
        assert reflect(PG) == LG


def test_unit_universal_property():
    """Every graph map into an embedded preorder factors uniquely through the
    unit via a monotone map out of the reflection."""
    for G in enumerate_graphs(2, 2):
        PG = G.presheaf()
        LG, unit = preorder_reflection(PG)
        for Q in enumerate_preorders(2):
            maps_down = vertex_maps_to_embedded(PG, embed(Q))
            mono = monotone_maps(LG, Q)
            factored = 0
            for m in mono:
                h = embed_map(m, LG, Q)
                comp = unit.then(h)
                matches = [g for g in maps_down
                           if g.encoding() == comp.encoding()]
                factored += len(matches)
                assert len(matches) == 1  # uniqueness of the factorization
            assert factored == len(maps_down)  # existence for every map


def test_vertex_maps_agree_with_generic_nat_enumeration():
    # the fast path must agree with the generic presheaf machinery
    G = RefGraph.of(3, [(0, 1), (1, 2)])
    for Q in enumerate_preorders(2):
        fast = vertex_maps_to_embedded(G.presheaf(), embed(Q))
        slow = nat_transformations(G.presheaf(), embed(Q))
        assert len(fast) == len(slow)
        assert {f.encoding() for f in fast} == {f.encoding() for f in slow}


def test_reflect_map_is_monotone():
    G = RefGraph.of(3, [(0, 1), (1, 2)])
    H = RefGraph.of(2, [(0, 1)])
    LG, _ = preorder_reflection(G.presheaf())
    LH, _ = preorder_reflection(H.presheaf())
    for f in nat_transformations(G.presheaf(), H.presheaf()):
        m = reflect_map(f)
        for (a, b) in LG.rel:
            assert LH.leq(m[a], m[b])


# ---------------------------------------------------------------------------
# product preservation and the exponential ideal


def test_product_reflection_agrees_spot_checks():
    G = RefGraph.of(2, [(0, 1)])
    H = RefGraph.of(3, [(0, 1), (1, 2)])
    ok, info = product_reflection_agrees(G, H)
    assert ok, info


def _assert_product_relation_is_presheaf_product(G, H):
    PG, PH = G.presheaf(), H.presheaf()
    prod, _, _ = product_presheaf(PG, PH)
    verts, pairs = _product_relation(PG, PH)
    # the same vertices and edge pairs, in the same order
    assert (verts, pairs) == (list(prod.at["V"]), _edge_pairs(prod)), (G, H)
    assert Preorder(verts, transitive_closure(verts, pairs)) == reflect(prod), (G, H)


def test_product_relation_matches_presheaf_product_on_enumerated_pairs():
    graphs = list(enumerate_graphs(2, 3))
    for G in graphs:
        for H in graphs:
            _assert_product_relation_is_presheaf_product(G, H)


@st.composite
def _ref_graphs(draw, max_n=4):
    """Graphs on up to max_n vertices whose extra edges may repeat and loop."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return RefGraph.of(0, [])
    v = st.integers(0, n - 1)
    return RefGraph.of(n, draw(st.lists(st.tuples(v, v), max_size=6)))


@settings(max_examples=150, deadline=None)
@given(_ref_graphs(), _ref_graphs())
@example(RefGraph.of(2, [(0, 1), (0, 1), (1, 1)]),
         RefGraph.of(3, [(0, 2), (1, 1), (1, 1), (2, 0)]))
def test_product_relation_matches_presheaf_product(G, H):
    _assert_product_relation_is_presheaf_product(G, H)


def test_product_preservation_sweep_small():
    v = check_product_preservation(max_v=2, max_e=3, random_pairs=20)
    assert v.outcome == PASS, v.summary()


@pytest.mark.parametrize("fail_at,bounds", [
    (4, {"max_v": 1, "max_e": 1}),  # the 4th of the 6 exhaustive pairs
    (8, {"max_v": 1, "max_e": 1, "random_max_v": 2}),  # the 2nd random pair
])
def test_product_sweep_fail_names_the_pair_and_its_bounds(monkeypatch, fail_at, bounds):
    seen = []

    def agrees(G, H):
        seen.append((G, H))
        return len(seen) != fail_at, {"only_left": ["x"], "only_right": []}

    monkeypatch.setattr(graphpre, "product_reflection_agrees", agrees)
    v = check_product_preservation(max_v=1, max_e=1, random_pairs=3, random_max_v=2)
    G, H = seen[-1]
    assert len(seen) == fail_at
    assert (v.outcome, v.bounds, v.stats) == (FAIL, bounds, {"pairs": fail_at})
    assert v.witness == {"kind": "graph-product", "G": G.to_json(), "H": H.to_json(),
                         "only_left": ["x"], "only_right": []}


def _rows_relation(rows) -> set:
    """Successor bitsets over vertex indices, read back as pairs of v{i}."""
    return {(f"v{i}", f"v{j}") for i, r in enumerate(rows) for j in range(len(rows))
            if r >> j & 1}


def test_product_sweep_same_with_cold_and_warm_cache():
    _graph_and_reflection.cache_clear()
    cold = check_product_preservation(max_v=2, max_e=3, random_pairs=20)
    misses = _graph_and_reflection.cache_info().misses
    warm = check_product_preservation(max_v=2, max_e=3, random_pairs=20)
    assert (warm.outcome, warm.stats, warm.bounds, warm.witness) == \
        (cold.outcome, cold.stats, cold.bounds, cold.witness)
    # the warm sweep rebuilds no graph's edge rows or LG rows
    assert _graph_and_reflection.cache_info().misses == misses
    # the shared cached values still equal freshly computed ones
    for G in enumerate_graphs(2, 3):
        for width in range(4):
            assert _graph_and_reflection(G, width) == \
                _graph_and_reflection.__wrapped__(G, width)
        _, rows = _graph_and_reflection(G, 1)
        assert _rows_relation(rows) == preorder_reflection(G.presheaf())[0].rel


def test_cached_reflection_rows_match_reflect():
    """Each graph's LG rows at width 1, read back as pairs of v{i}, are the
    relation of reflect on its presheaf; its edge rows are its
    distinguished loops and its extra edges."""
    for G in enumerate_graphs(3, 4):
        edges, rows = _graph_and_reflection(G, 1)
        assert len(edges) == len(rows) == G.n, G
        assert _rows_relation(edges) == \
            {(f"v{a}", f"v{b}") for a, b in [(i, i) for i in range(G.n)] + list(G.edges)}, G
        assert _rows_relation(rows) == reflect(G.presheaf()).rel, G


def test_product_sweep_builds_each_graph_once_per_width(monkeypatch):
    """A cold sweep misses the cache once per distinct (graph, width) key:
    each pair (G, H) reads G at width H.n and H at width 1.  Each value at
    width w is the width-1 rows with each bit t moved to bit t * w."""
    seen = []

    def recorded(G, H):
        seen.append((G, H))
        return _product_rows_agree(G, H)

    monkeypatch.setattr(graphpre, "_product_rows_agree", recorded)
    _graph_and_reflection.cache_clear()
    v = check_product_preservation(max_v=3, max_e=3, random_pairs=100, seed=101)
    keys = {(G, H.n) for G, H in seen} | {(H, 1) for _, H in seen}
    assert (v.outcome, len(seen)) == (PASS, 2446)
    assert _graph_and_reflection.cache_info().misses == len(keys)
    for G, width in keys:
        edges, rows = _graph_and_reflection(G, 1)
        assert _graph_and_reflection(G, width) == \
            (tuple(spreads(edges, width)), tuple(spreads(rows, width))), (G, width)


def test_product_rows_cache_keeps_every_key_of_a_wide_sweep():
    """The first 3 graphs of (4, 5), each against every graph from it on,
    read 1 411 distinct (graph, width) keys; each misses the cache once,
    however many graphs the sweep walks between two reads of it."""
    graphs = list(enumerate_graphs(4, 5))
    _graph_and_reflection.cache_clear()
    keys = set()
    for i, G in enumerate(graphs[:3]):
        for H in graphs[i:]:
            _product_rows_agree(G, H)
            keys |= {(G, H.n), (H, 1)}
    assert _graph_and_reflection.cache_info().misses == len(keys) == 1411


def _assert_bitset_verdict_is_labelled_verdict(G, H, PG, PH):
    labelled = _labelled_product_difference(PG, PH)
    assert _product_rows_agree(G, H) == (not labelled), (G, H)


def test_product_bitset_verdict_matches_labelled_on_enumerated_pairs():
    graphs = [(G, G.presheaf()) for G in enumerate_graphs(3, 3)]
    pairs = 0
    for i, (G, PG) in enumerate(graphs):
        for H, PH in graphs[i:]:
            pairs += 1
            _assert_bitset_verdict_is_labelled_verdict(G, H, PG, PH)
    assert pairs == 2346


@settings(max_examples=200, deadline=None)
@given(_ref_graphs(5), _ref_graphs(5))
@example(RefGraph.of(3, [(0, 1), (1, 2)]), RefGraph.of(2, [(0, 1)]))
@example(RefGraph.of(2, [(0, 1), (0, 1), (1, 1)]),
         RefGraph.of(3, [(0, 2), (1, 1), (1, 1), (2, 0)]))
def test_product_bitset_verdict_matches_labelled(G, H):
    _assert_bitset_verdict_is_labelled_verdict(G, H, G.presheaf(), H.presheaf())


def test_product_sweep_raises_when_the_labelled_path_rejects_a_bitset_fail(monkeypatch):
    """LG rows that lose every relation make the bitsets disagree on a pair
    that in truth agrees; the labelled path finds no difference, so the
    sweep raises rather than return FAIL."""
    def empty_rows(G, width=1):
        edges, _ = _graph_and_reflection(G, width)
        return edges, (0,) * G.n
    monkeypatch.setattr(graphpre, "_graph_and_reflection", empty_rows)
    with pytest.raises(FinitoposError, match="disagree"):
        check_product_preservation(max_v=1, max_e=0)


def test_exponential_ideal_sweep_small():
    v = check_exponential_ideal_graphs(max_p=2, max_v=2, max_e=2)
    assert v.outcome == PASS, v.summary()


def _vertex_map(family) -> tuple:
    """The vertex map G -> P of an element of (F P)^G at V: its family's
    component at V, read at id(V) on each vertex."""
    return tuple(sorted((x, p) for (_, x), p in dict(family)["V"]))


def test_exponential_relation_matches_presheaf_exponential():
    """On every instance of the (3, 3, 2) sweep, the bitset (F P)^G has the
    vertex maps of exponential_presheaf's and, its rows read back as pairs
    of vertex maps, its edge pairs; and _is_transitive on its rows gives
    is_embedded_preorder's verdict."""
    tested = failures = 0
    graphs = [(G, G.presheaf()) for G in enumerate_graphs(3, 2)]
    for P in enumerate_preorders(3):
        FP = embed(P)
        for G, PG in graphs:
            tested += 1
            pairs = G.index_pairs()
            maps = _edge_respecting_values(range(G.n), pairs, P.carrier, P.rel)
            rows = _exponential_rows(G.n, pairs, P)
            edges = [(i, j) for i, r in enumerate(rows) for j in range(len(maps)) if r >> j & 1]
            E = exponential_presheaf(PG, FP)
            assert (len(rows), len(edges)) == (len(E.at["V"]), len(E.at["E"])), (P, G)
            keys = [tuple((f"v{b}", p) for b, p in enumerate(g)) for g in maps]
            assert keys == sorted(_vertex_map(e) for e in E.at["V"]), (P, G)
            assert sorted((keys[i], keys[j]) for i, j in edges) == \
                sorted((_vertex_map(a), _vertex_map(b)) for a, b in _edge_pairs(E)), (P, G)
            ok = _is_transitive(rows)
            assert ok == is_embedded_preorder(E)[0], (P, G)
            failures += not ok
    assert (tested, failures) == (364, 0)


def test_exponential_rows_match_the_pair_scan():
    """On every instance of the (3, 3, 3) sweep, the bitset rows are the
    successor rows of the relation that scans every pair of maps."""
    tested = 0
    for P in enumerate_preorders(3):
        for G in enumerate_graphs(3, 3):
            tested += 1
            pairs = G.index_pairs()
            maps, edges = exponential_relation(range(G.n), pairs, P)
            assert _exponential_rows(G.n, pairs, P) == _successor_rows(len(maps), edges), (P, G)
    assert tested == 952


def test_is_transitive_matches_a_scan_of_all_pairs():
    for n in range(4):
        full = [(i, j) for i in range(n) for j in range(n)]
        for bits in range(1 << len(full)):
            pairs = [p for k, p in enumerate(full) if bits >> k & 1]
            rel = set(pairs)
            scan = all((a, c) in rel for a, b in rel for b2, c in rel if b2 == b)
            assert _is_transitive(_successor_rows(n, pairs)) == scan, pairs


def test_exponential_sweep_raises_when_the_oracle_rejects_a_relational_fail(monkeypatch):
    """A relational test that fails every instance is not confirmed by the
    presheaf exponential, so the sweep raises rather than return FAIL."""
    monkeypatch.setattr(graphpre, "_is_transitive", lambda rows: False)
    with pytest.raises(FinitoposError, match="disagree"):
        check_exponential_ideal_graphs(max_p=1, max_v=1, max_e=0)


def test_exponential_sweep_fail_replays(monkeypatch):
    """With both paths forced to fail, the sweep's FAIL names the first
    instance and the presheaf path's violation, and its witness replays."""
    monkeypatch.setattr(graphpre, "_is_transitive", lambda rows: False)
    monkeypatch.setattr(graphpre, "is_embedded_preorder", lambda X: (False, "forced"))
    v = check_exponential_ideal_graphs(max_p=1, max_v=1, max_e=0)
    assert (v.outcome, v.stats) == (FAIL, {"tested": 1})
    assert v.witness == {"kind": "graph-exponential", "P": Preorder.of([], ()).to_json(),
                         "G": RefGraph.of(0, []).to_json(), "violation": "forced"}
    r = checks.reverify(v.witness)
    assert (r.outcome, r.stats) == (PASS, {"violation": "forced"})


@pytest.mark.parametrize("budget, outcome", [(130, PASS), (129, INCONCLUSIVE)])
def test_exponential_sweep_charges_the_budget_once_per_instance(budget, outcome):
    v = check_exponential_ideal_graphs(max_p=2, max_v=3, max_e=2, budget=budget)
    assert (v.outcome, v.stats) == (outcome, {"tested": budget})


def test_forged_exponential_witness_is_refuted():
    P = Preorder.of(["v0", "v1"], {("v0", "v1")})
    w = {"kind": "graph-exponential", "P": P.to_json(),
         "G": RefGraph.of(3, [(0, 1), (1, 2)]).to_json(), "violation": "forged"}
    r = checks.reverify(w)
    assert r.outcome == FAIL
    assert r.witness["reason"] == "exponential is an embedded preorder after all"


def test_forged_product_witness_is_refuted():
    w = {"kind": "graph-product", "G": RefGraph.of(2, [(0, 1)]).to_json(),
         "H": RefGraph.of(2, [(1, 0)]).to_json(), "only_left": ["x"], "only_right": []}
    r = checks.reverify(w)
    assert r.outcome == FAIL
    assert r.witness["reason"] == "L(G x H) equals LG x LH after all"


def test_product_witness_replays_and_its_claim_is_compared(monkeypatch):
    """Under a reflection that forgets every edge, on both the bitset and
    the labelled path, the sweep fails on the first pair with an edge; its
    witness replays, and one whose claimed relations were altered is
    refuted."""
    import json

    def discrete_rows(G, width=1):
        edges, _ = _graph_and_reflection(G, width)
        return edges, tuple(1 << i * width for i in range(G.n))

    monkeypatch.setattr(graphpre, "_graph_and_reflection", discrete_rows)
    monkeypatch.setattr(graphpre, "reflect", lambda PG: Preorder(list(PG.at["V"]), ()))
    v = check_product_preservation(max_v=2, max_e=1)
    assert v.outcome == FAIL and v.witness["only_left"] and not v.witness["only_right"]
    # the first pair whose product has an edge that is not a loop
    graphs = list(enumerate_graphs(2, 1))
    moves = [any(a != b for a, b in G.edges) for G in graphs]
    first = next((G, H) for i, G in enumerate(graphs) for j, H in enumerate(graphs[i:], i)
                 if moves[i] and H.n or moves[j] and G.n)
    assert (v.witness["G"], v.witness["H"]) == (first[0].to_json(), first[1].to_json())
    w = json.loads(json.dumps(v.witness))
    r = checks.reverify(w)
    assert (r.outcome, r.stats) == (PASS, {"only_left": w["only_left"], "only_right": []})
    w["only_left"] = w["only_left"][1:]
    r = checks.reverify(w)
    assert r.outcome == FAIL
    assert r.witness["reason"] == "only_left or only_right differs from the claim"


def test_is_embedded_preorder_detects_defects():
    ok, _ = is_embedded_preorder(embed(next(iter(preorders_of_size(2)))))
    assert ok
    parallel = RefGraph.of(2, [(0, 1), (0, 1)]).presheaf()
    ok, why = is_embedded_preorder(parallel)
    assert not ok and "parallel" in why
    path = RefGraph.of(3, [(0, 1), (1, 2)]).presheaf()
    ok, why = is_embedded_preorder(path)
    assert not ok and "transitive" in why


def test_is_embedded_preorder_names_the_edge_a_scan_of_all_pairs_finds():
    """The missing edge named is the least, in canonical order, of those a
    scan of all pairs of the relation finds."""
    failures = 0
    for G in enumerate_graphs(4, 3):
        X = G.presheaf()
        pairs = [(X.act["d0"](e), X.act["d1"](e)) for e in X.at["E"]]
        if len(set(pairs)) != len(pairs):
            continue
        rel = set(pairs) | {(v, v) for v in X.at["V"]}
        missing = sorted(((a, c) for (a, b) in rel for (b2, c) in rel
                          if b2 == b and (a, c) not in rel), key=canon_key)
        expected = "missing transitive edge %r -> %r" % missing[0] if missing else ""
        assert is_embedded_preorder(X) == (not expected, expected)
        failures += bool(expected)
    assert failures > 10


def _closure_by_fixpoint(carrier, pairs) -> frozenset:
    """Reference closure: rescan all pairs of the relation, adding (a, c)
    for each (a, b), (b, c), until a pass adds nothing."""
    rel = set(pairs) | {(x, x) for x in carrier}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (b2, c) in list(rel):
                if b2 == b and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return frozenset(rel)


def test_transitive_closure_matches_fixpoint_on_enumerated_graphs():
    for G in enumerate_graphs(3, 3):
        X = G.presheaf()
        carrier = list(X.at["V"])
        pairs = [(X.act["d0"](e), X.act["d1"](e)) for e in X.at["E"]]
        assert transitive_closure(carrier, pairs) == _closure_by_fixpoint(carrier, pairs), G


@st.composite
def _edge_lists(draw):
    """(vertices, edges) on up to 6 vertices; edges may repeat, loop and
    close cycles."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return [], []
    v = st.integers(0, n - 1)
    return list(range(n)), draw(st.lists(st.tuples(v, v), max_size=14))


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
@example(([0, 1, 2, 3, 4, 5], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))
@example(([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 0), (3, 3), (2, 3)]))
def test_transitive_closure_matches_fixpoint(graph):
    carrier, pairs = graph
    assert transitive_closure(carrier, pairs) == _closure_by_fixpoint(carrier, pairs)


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
@example(([0, 1, 2, 3, 4, 5], [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
@example(([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 0), (3, 3), (2, 3)]))
def test_transitive_rows_match_fixpoint(graph):
    """Warshall on successor bitsets gives the transitive closure of the
    pairs alone, with no diagonal added."""
    carrier, pairs = graph
    rows = _transitive_rows(_successor_rows(len(carrier), pairs))
    closed = {(i, j) for i, r in enumerate(rows) for j in carrier if r >> j & 1}
    assert closed == _closure_by_fixpoint((), pairs)


# ---------------------------------------------------------------------------
# the semi-left-exactness failure witness


@pytest.fixture(scope="module")
def sle_verdict():
    # bounds chosen to include the minimal witness; see the acceptance suite
    # for the full-bounds run
    return find_sle_failure(max_v=3, max_e=2)


def test_sle_failure_found(sle_verdict):
    assert sle_verdict.outcome == FAIL
    w = sle_verdict.witness
    assert w["square"]["kind"] == "graph-sle-square"
    # no mediator exists from the true preorder pullback
    assert w["analysis"]["count"] == 0
    # the squares tested up to the first hit, and the hit itself, in the
    # order find_sle_failure promises
    assert sle_verdict.stats == {"squares": 13251}
    sq = w["square"]
    assert sq["X"] == {"n": 3, "edges": [[0, 1], [1, 2]]}
    assert sq["P"]["carrier"] == [["s", "v0"]]
    assert sq["Q"]["carrier"] == [["s", "v0"], ["s", "v1"]]
    assert len(sq["Q"]["rel"]) == 4  # indiscrete
    assert sq["u"] == {"v0": ["s", "v0"]}
    assert sq["f"] == {"v0": ["s", "v0"], "v1": ["s", "v1"], "v2": ["s", "v0"]}
    assert w["l_image"]["missing_relations"] == [
        [["t", [["s", "v0"], ["s", "v0"]]], ["t", [["s", "v2"], ["s", "v0"]]]]]


def _sle_squares(max_v, max_e):
    """Every square of find_sle_failure's space in the order it promises,
    as (P, FP, u, X, LX, f, fu), with f and fu as presheaf maps."""
    graphs, maps = {}, {}
    embedded = {n: [(P, embed(P)) for P in preorders_of_size(n)] for n in range(max_v + 1)}
    for total in range(3 * max_v + max_e + 1):
        for nq, np_, nx in itertools.product(range(max_v + 1), repeat=3):
            ex = total - nq - np_ - nx
            if not 0 <= ex <= max_e:
                continue
            if (nx, ex) not in graphs:
                graphs[nx, ex] = [(X, X.presheaf()) for X in graphs_of_size(nx, ex)]
            for Q, FQ in embedded[nq]:
                for P, FP in embedded[np_]:
                    for u in monotone_maps(P, Q):
                        fu = embedded_map(u, FP, FQ)
                        for X, PX in graphs[nx, ex]:
                            if (X, Q) not in maps:
                                maps[X, Q] = vertex_maps_to_embedded(PX, FQ)
                            for f in maps[X, Q]:
                                yield P, FP, u, X, reflect(PX), f, fu


# distinct (X, P, pullback vertex list) keys among the squares that the
# search tests, at (max_v, max_e): all of (2, 4), and (3, 2) up to its hit
DISTINCT_PULLBACKS = {(2, 4): 1182, (3, 2): 802}


@pytest.mark.parametrize("max_v, max_e, squares, first_hit", [(2, 4, 5321, False),
                                                              (3, 2, 13251, True)])
def test_relational_square_test_matches_presheaf_pullback(max_v, max_e, squares, first_hit):
    """On every square of the (2, 4) space, and of the (3, 2) space up to
    its first hit, the relational pullback lists the presheaf pullback's
    vertices and edge pairs in its order, and the relational test gives the
    outcome, missing relations, L W and preorder pullback of
    _sle_instance_fails.  The search's memo key, u's fibers over w x for
    each vertex x of X, names the same squares as (X, P, vertex list), and
    _sle_instance_fails gives one result on all the squares of a key."""
    tested, verdicts, keys = 0, {}, set()
    for P, FP, u, X, LX, f, fu in _sle_squares(max_v, max_e):
        tested += 1
        w = reflect_map(f)
        xv = list(f.source.at["V"])
        fiber = _fibers(P.carrier, [u[p] for p in P.carrier])
        verts = _pullback_vertices(xv, w, fiber)
        pairs = _pullback_edges(_edge_pairs(f.source), w, fiber, P.rel)
        W, _, _ = pullback_presheaf(f, fu)
        assert (verts, pairs) == (list(W.at["V"]), _edge_pairs(W))
        engine = _sle_instance_fails(P, LX, fu, f)
        assert _sle_relation_fails(P, LX, verts, pairs) == engine, (X, P, u, w)
        key = (X, P, tuple(verts))
        assert verdicts.setdefault(key, engine) == engine, key
        keys.add((key, tuple(fiber.get(w[x], ()) for x in xv)))
        if engine is not None:
            break
    assert (tested, engine is not None) == (squares, first_hit)
    assert (len(verdicts) == len(keys) == len({(k[0], k[1], m) for k, m in keys})
            == DISTINCT_PULLBACKS[max_v, max_e])


@pytest.mark.parametrize("max_v, max_e", list(DISTINCT_PULLBACKS))
def test_sle_search_tests_each_distinct_pullback_once(monkeypatch, max_v, max_e):
    """The search builds a square's edges, and tests it, only for a key it
    has not seen pass: once per distinct (X, P, vertex list) counted above."""
    built = []

    def counted(*args):
        built.append(args)
        return _pullback_edges(*args)
    monkeypatch.setattr(graphpre, "_pullback_edges", counted)
    find_sle_failure(max_v=max_v, max_e=max_e)
    assert len(built) == DISTINCT_PULLBACKS[max_v, max_e]


def test_sle_search_raises_when_the_oracle_rejects_a_relational_hit(monkeypatch):
    """A relational pullback that loses its edges reports failures on squares
    of the (2, 2) space, all of which reflect to pullbacks; the presheaf
    pullback does not confirm the first, so the search raises rather than
    return FAIL."""
    monkeypatch.setattr(graphpre, "_pullback_edges", lambda *args: [])
    with pytest.raises(FinitoposError, match="disagree"):
        find_sle_failure(max_v=2, max_e=2)


def test_sle_search_at_default_bounds_finds_the_minimal_square(sle_verdict):
    v = find_sle_failure()
    assert (v.outcome, v.stats, v.bounds) == (FAIL, {"squares": 47016}, {"max_v": 4, "max_e": 8})
    assert v.witness["square"] == sle_verdict.witness["square"]


@pytest.mark.parametrize("max_v, max_e, squares", [(2, 2, 1518), (2, 4, 5321), (3, 1, 140664)])
def test_sle_search_covers_space_without_failure(max_v, max_e, squares):
    v = find_sle_failure(max_v=max_v, max_e=max_e)
    assert v.outcome == NOT_FOUND
    assert v.stats == {"squares": squares}


def test_sle_search_budget_exhaustion_is_inconclusive():
    v = find_sle_failure(max_v=3, max_e=2, budget=5000)
    assert v.outcome == INCONCLUSIVE
    assert v.bounds["budget"] == 5000


@pytest.mark.parametrize("budget, outcome", [(13250, INCONCLUSIVE), (13251, FAIL)])
def test_sle_search_charges_the_budget_once_per_square(budget, outcome):
    """Squares whose key the memo holds are charged too: the (3, 2) search
    reaches its witness at square 13 251 and needs exactly that budget."""
    assert find_sle_failure(max_v=3, max_e=2, budget=budget).outcome == outcome


@pytest.mark.parametrize("search, kwargs, needed, count", [
    (find_sle_failure, {"max_v": 3, "max_e": 2}, 13251, "squares"),
    (graphpre.find_sieve_witness, {}, 1743, "tested"),
    (graphpre.find_pi_witness, {"max_n": 2}, 279, "tested"),
    (check_exponential_ideal_graphs, {"max_p": 2, "max_v": 3, "max_e": 2}, 130, "tested"),
], ids=["sle", "sieve", "pi", "exponential"])
def test_search_driver_verdicts_on_a_short_and_an_exact_budget(search, kwargs, needed, count):
    """Each search needs one charge per candidate up to its first FAIL, or
    over its whole space.  A budget one short is INCONCLUSIVE in the same
    shape for all four; exactly the needed budget gives the unbudgeted
    verdict."""
    full = search(**kwargs)
    assert full.stats == {count: needed}
    short = search(**kwargs, budget=needed - 1)
    assert (short.outcome, short.bounds, short.stats, short.witness, short.detail) == (
        INCONCLUSIVE, dict(full.bounds, budget=needed - 1), {count: needed - 1}, None,
        "budget exhausted before the space was covered")
    assert search(**kwargs, budget=needed) == full


def test_sle_search_builds_each_input_once(monkeypatch):
    """One (3, 2) search enumerates each of its 12 graph sizes once, and the
    monotone maps of each (P, Q) pair it reaches once."""
    import collections
    sizes, pairs = collections.Counter(), collections.Counter()
    of_size, monotone = graphs_of_size, monotone_maps

    def counted_graphs(n, e):
        sizes[n, e] += 1
        return of_size(n, e)

    def counted_maps(P, Q):
        pairs[P, Q] += 1
        return monotone(P, Q)
    monkeypatch.setattr(graphpre, "graphs_of_size", counted_graphs)
    monkeypatch.setattr(graphpre, "monotone_maps", counted_maps)
    assert find_sle_failure(max_v=3, max_e=2).stats == {"squares": 13251}
    assert sorted(sizes.items()) == [((nx, ex), 1) for nx in range(4) for ex in range(3)]
    assert (len(pairs), set(pairs.values())) == (196, {1})


def test_pi_witness_does_not_depend_on_the_hash_seed():
    """is_embedded_preorder names the least missing edge, so the witness's
    violation text is the same whatever order the relation's set iterates in."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(graphpre.__file__).resolve().parent.parent)
    code = ("import json; from finitopos import graphpre; "
            "print(json.dumps(graphpre.find_pi_witness(max_n=2).witness, sort_keys=True))")
    outs = []
    for seed in ("0", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["violation"].startswith("missing transitive edge")


def test_pi_relation_matches_presheaf_dependent_product():
    """On all instances at max_n=2 and the first 2 000 at max_n=3, in search
    order, the relational Pi_f g has dependent_product's vertex and edge
    counts and is_embedded_preorder's verdict."""
    for max_n, limit, count, failures in [(2, None, 438, 4), (3, 2000, 2000, 0)]:
        tested = failed = 0
        for Y, X, f, Z, g in itertools.islice(_pi_instances(max_n), limit):
            tested += 1
            verts, edges = _pi_relation(Y, X, Z, f, g)
            W = dependent_product(embed_map(f, X, Y), embed_map(g, Z, X)).source
            assert (len(verts), len(edges)) == (len(W.at["V"]), len(W.at["E"])), (Y, X, Z, f, g)
            ok = _is_transitive(_successor_rows(len(verts), edges))
            assert ok == is_embedded_preorder(W)[0], (Y, X, Z, f, g)
            failed += not ok
        assert (tested, failed) == (count, failures)


def test_pi_along_an_identity_is_the_graph_of_z():
    """Pi along id_X of g: Z -> X is Z itself: one vertex per z, over g z,
    and an edge z1 -> z2 iff z1 <= z2."""
    X = Preorder.of(["v0", "v1"], {("v0", "v1")})
    Z = Preorder.of(["v0", "v1", "v2"], {("v0", "v2")})
    g = {"v0": "v0", "v1": "v0", "v2": "v1"}
    verts, edges = _pi_relation(X, X, Z, {"v0": "v0", "v1": "v1"}, g)
    zs = [s[0] for _, s in verts]
    assert sorted(zs) == list(Z.carrier)
    assert sorted((zs[i], zs[j]) for i, j in edges) == sorted(Z.rel)


def test_pi_search_raises_when_the_oracle_rejects_a_relational_fail(monkeypatch):
    monkeypatch.setattr(graphpre, "_is_transitive", lambda rows: False)
    with pytest.raises(FinitoposError, match="disagree"):
        graphpre.find_pi_witness(max_n=1)


def test_pi_search_at_max_n_3_fails_at_instance_10961():
    v = graphpre.find_pi_witness(max_n=3)
    assert (v.outcome, v.stats, v.bounds) == (FAIL, {"tested": 10961}, {"max_n": 3})
    r = checks.reverify(v.witness)
    assert r.outcome == PASS, r.summary()
    assert r.stats == {"violation": v.witness["violation"]}


def test_pi_search_budget_exhaustion_is_inconclusive():
    # the 41st instance's own charge is the one that runs out
    v = graphpre.find_pi_witness(max_n=2, budget=40)
    assert v.outcome == INCONCLUSIVE
    assert v.bounds == {"max_n": 2, "budget": 40}
    assert v.stats == {"tested": 40}


def test_sle_witness_replays_from_serialization_alone(sle_verdict):
    import json
    w = json.loads(json.dumps(sle_verdict.witness))
    r = checks.reverify(w)
    assert r.outcome == PASS, r.summary()


def test_sle_witness_corruption_detected(sle_verdict):
    import copy
    w = copy.deepcopy(sle_verdict.witness)
    # claim a wrong missing-relation set
    w["l_image"]["missing_relations"] = w["l_image"]["missing_relations"][:0]
    sq = w["square"]
    # also break the underlying square: make X edgeless so it reflects fine
    sq["X"]["edges"] = []
    sq["f"] = {k: v for k, v in sq["f"].items()}
    r = checks.reverify(w)
    assert r.outcome == FAIL


def test_sle_replay_rejects_an_emptied_missing_relation_claim(sle_verdict):
    import copy
    w = copy.deepcopy(sle_verdict.witness)
    w["l_image"]["missing_relations"] = []
    r = checks.reverify(w)
    assert r.outcome == FAIL
    assert r.witness["reason"] == "missing-relation set differs from the claim"


def test_sle_replay_rejects_a_witness_without_its_missing_relations(sle_verdict):
    import copy
    w = copy.deepcopy(sle_verdict.witness)
    del w["l_image"]["missing_relations"]
    with pytest.raises(KeyError, match="missing_relations"):
        checks.reverify(w)


def test_sle_replay_rejects_a_wrong_mediator_count(sle_verdict):
    import copy
    w = copy.deepcopy(sle_verdict.witness)
    w["analysis"]["count"] = 1
    r = checks.reverify(w)
    assert r.outcome == FAIL
    assert r.witness["reason"] == "mediator count differs from the claim"


def test_no_sle_failure_among_trivial_squares():
    v = find_sle_failure(max_v=1, max_e=1)
    assert v.outcome == NOT_FOUND


# ---------------------------------------------------------------------------
# serialization round-trips


def test_graph_with_edge_outside_vertices_rejected():
    with pytest.raises(InvalidStructure):
        RefGraph(2, ((0, 5),))


def test_graph_with_negative_vertex_count_rejected():
    """A negative count from replay input names no graph: it is rejected
    where the edges are checked, so a graph-product witness built on it is
    not replayed at all."""
    with pytest.raises(InvalidStructure, match="negative"):
        RefGraph.from_json({"n": -2, "edges": []})
    w = {"kind": "graph-product", "G": {"n": -2, "edges": []},
         "H": RefGraph.of(1, []).to_json(), "only_left": [], "only_right": []}
    with pytest.raises(InvalidStructure, match="negative"):
        checks.reverify(w)


def test_graph_json_roundtrip():
    for G in enumerate_graphs(3, 2):
        assert RefGraph.from_json(G.to_json()) == G


def test_preorder_json_roundtrip():
    for P in enumerate_preorders(3):
        Q = Preorder.from_json(P.to_json())
        assert Q.carrier == P.carrier and Q.rel == P.rel


def test_sieve_search_at_default_bounds_finds_its_witness():
    import json
    v = graphpre.find_sieve_witness()
    assert v.outcome == FAIL and v.stats == {"tested": 1743}
    w = json.loads(json.dumps(v.to_json()["witness"]))
    # the path v0 -> v1 -> v2 into the indiscrete 2-element preorder, v2 back to v0
    assert w["B0"] == {"n": 3, "edges": [[0, 1], [1, 2]]}
    assert w["A0"] == Preorder.of(["v0", "v1"], {("v0", "v1"), ("v1", "v0")}).to_json()
    assert w["u"] == {"v0": ["s", "v0"], "v1": ["s", "v1"], "v2": ["s", "v0"]}
    assert checks.reverify(w).outcome == PASS
    # a constant u: F(L u) factors through it, so the replay rejects the claim
    w["u"] = {k: ["s", "v0"] for k in w["u"]}
    r = checks.reverify(w)
    assert r.outcome == FAIL and r.stats == {"factors": True}
    # an A0 that does not relate v1 to v0 makes u no graph map at all
    w["A0"] = Preorder.of(["v0", "v1"], {("v0", "v1")}).to_json()
    w["u"] = {"v0": ["s", "v1"], "v1": ["s", "v0"], "v2": ["s", "v0"]}
    with pytest.raises(InvalidStructure):
        checks.reverify(w)
