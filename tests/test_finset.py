"""Finite sets, functions, and limits/colimits.

The backtracking `limit` is checked against the equalizer-of-products oracle
`oracles.limit_by_product` on randomly generated diagrams; colimits against a direct
orbit computation.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from finitopos.budget import Budget
from finitopos.errors import InvalidStructure, ShapeMismatch
from finitopos.finset import (
    FinFn,
    FinSet,
    SetDiagram,
    UnionFind,
    canon_key,
    canon_sort,
    colimit,
    families,
    limit,
)
from finitopos.fincat import build_category, poset_category, terminal_category
from oracles import limit_by_product

elements = st.recursive(
    st.one_of(st.integers(-5, 5), st.text("abc", min_size=0, max_size=3)),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)


@given(st.lists(elements, max_size=8))
def test_canon_sort_is_total_and_stable(xs):
    s1 = canon_sort(xs)
    s2 = canon_sort(reversed(list(xs)))
    assert s1 == s2
    for a, b in zip(s1, s1[1:]):
        assert canon_key(a) <= canon_key(b)


def test_finset_rejects_duplicates():
    with pytest.raises(InvalidStructure):
        FinSet(("a", "a"))


def test_finfn_totality_checked():
    A = FinSet.of(["a", "b"])
    B = FinSet.of([0, 1])
    with pytest.raises(InvalidStructure):
        FinFn.of(A, B, {"a": 0})
    with pytest.raises(InvalidStructure):
        FinFn.of(A, B, {"a": 0, "b": 7})


@st.composite
def _table(draw):
    """(dom, cod, table) with a total table, its keys in a drawn order."""
    dom = FinSet.of(draw(st.lists(elements, unique=True, max_size=6)))
    cod = FinSet.of(draw(st.lists(elements, unique=True, min_size=1, max_size=4)))
    values = draw(st.lists(st.sampled_from(cod.elements),
                           min_size=len(dom), max_size=len(dom)))
    keys = draw(st.permutations(dom.elements))
    table = {x: values[dom.elements.index(x)] for x in keys}
    return dom, cod, table


def _sorted_fn(dom, cod, table):
    return FinFn(dom, cod, tuple(sorted(table.items(), key=lambda kv: canon_key(kv[0]))))


@given(_table())
def test_of_builds_canonical_mapping_whatever_the_key_order(dtc):
    dom, cod, table = dtc
    fn = FinFn.of(dom, cod, table)
    assert fn.mapping == _sorted_fn(dom, cod, table).mapping
    assert fn.mapping == FinFn.of(dom, cod, dict(reversed(table.items()))).mapping


@given(_table(), elements, st.sampled_from(["missing", "extra", "outside"]))
def test_of_reports_every_violation_of_a_bad_table(dtc, new, defect):
    """Each defect gives the violation list `violations()` gives for the same
    table, in its order and wording."""
    dom, cod, table = dtc
    if defect == "missing":
        assume(table)
        del table[next(iter(table))]
    elif defect == "extra":
        assume(new not in dom)
        table[new] = cod.elements[0]
    else:
        assume(table and new not in cod)
        table[next(iter(table))] = new
    with pytest.raises(InvalidStructure) as e:
        FinFn.of(dom, cod, table)
    assert e.value.violations == _sorted_fn(dom, cod, table).violations() != []


def test_of_violation_wording():
    A = FinSet.of(["a", "b"])
    B = FinSet.of([0, 1])
    cases = [
        ({"a": 0}, ["FinFn not total: missing 'b'"]),
        ({"a": 0, "b": 1, "z": 0}, ["FinFn keyed by non-domain element 'z'"]),
        ({"a": 0, "b": 7}, ["FinFn value 7 outside codomain"]),
    ]
    for table, expected in cases:
        with pytest.raises(InvalidStructure) as e:
            FinFn.of(A, B, table)
        assert e.value.violations == expected


def test_finfn_composition_and_predicates():
    A = FinSet.of(["a", "b"])
    B = FinSet.of([0, 1, 2])
    f = FinFn.of(A, B, {"a": 0, "b": 2})
    g = FinFn.of(B, A, {0: "a", 1: "a", 2: "b"})
    assert f.then(g)(x="a") == "a"
    assert f.is_injective() and not f.is_surjective()
    assert g.is_surjective() and not g.is_injective()
    assert f.then(g).is_bijective()
    with pytest.raises(ShapeMismatch):
        g.then(g)


@st.composite
def _composable_chain(draw):
    """Three composable functions between Hypothesis-drawn finite sets."""
    sets = [FinSet.of(draw(st.lists(elements, unique=True, max_size=5)))]
    sets += [FinSet.of(draw(st.lists(elements, unique=True, min_size=1, max_size=5)))
             for _ in range(3)]
    return [FinFn.of(a, b, {x: draw(st.sampled_from(b.elements)) for x in a})
            for a, b in zip(sets, sets[1:])]


@given(_composable_chain())
def test_then_equals_composite_built_by_of(chain):
    f, g, h = chain
    for left, right in [(f, g), (g, h), (f.then(g), h), (f, g.then(h))]:
        composite = left.then(right)
        expected = FinFn.of(left.dom, right.cod, {x: right(left(x)) for x in left.dom})
        assert composite.mapping == expected.mapping
        assert composite == expected and hash(composite) == hash(expected)


def test_unionfind_least_representatives():
    uf = UnionFind(["c", "a", "b"])
    uf.union("c", "b")
    cls = uf.classes()
    assert cls["c"] == cls["b"] == "b"
    assert cls["a"] == "a"


def _random_diagram(draw_sizes, rng):
    """Random functional diagram over a small poset index."""
    import random
    idx = poset_category([0, 1, 2], lambda x, y: x <= y)
    sets = {o: FinSet.of(range(rng.randint(1, draw_sizes))) for o in idx.objects}
    on_m = {}
    ids = set(idx.identity.values())
    for m in idx.morphisms:
        a, b = idx.dom[m], idx.cod[m]
        if m in ids:
            on_m[m] = FinFn.identity(sets[a])
        else:
            on_m[m] = FinFn.of(sets[a], sets[b],
                               {x: rng.choice(list(sets[b])) for x in sets[a]})
    # poset index: composites must agree, so rebuild the long edge
    long = [m for m in idx.morphisms if idx.dom[m] == 0 and idx.cod[m] == 2
            and m not in set(idx.identity.values())]
    mid1 = [m for m in idx.morphisms if idx.dom[m] == 0 and idx.cod[m] == 1][0]
    mid2 = [m for m in idx.morphisms if idx.dom[m] == 1 and idx.cod[m] == 2][0]
    on_m[long[0]] = on_m[mid1].then(on_m[mid2])
    return SetDiagram.of(idx, sets, on_m)


@pytest.mark.parametrize("seed", range(12))
def test_limit_matches_product_oracle(seed):
    import random
    rng = random.Random(seed)
    D = _random_diagram(4, rng)
    lim, _ = limit(D)
    oracle = limit_by_product(D)
    assert set(lim.elements) == set(oracle.elements)


@pytest.mark.parametrize("seed", range(12))
def test_colimit_matches_orbit_count(seed):
    import random
    rng = random.Random(seed)
    D = _random_diagram(4, rng)
    colim, injs = colimit(D)
    # oracle: count orbits of the generated equivalence by brute saturation
    items = {(o, x) for o in D.index.objects for x in D.obj(o)}
    pairs = set()
    for m in D.index.morphisms:
        for x in D.obj(D.index.dom[m]):
            pairs.add(((D.index.dom[m], x), (D.index.cod[m], D.mor(m)(x))))
    classes = {i: {i} for i in items}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            merged = classes[a] | classes[b]
            if merged != classes[a] or merged != classes[b]:
                for i in merged:
                    classes[i] = merged
                changed = True
    orbit_count = len({frozenset(c) for c in classes.values()})
    assert len(colim) == orbit_count
    # injections jointly surjective
    hit = set()
    for o in D.index.objects:
        hit |= {injs[o](x) for x in D.obj(o)}
    assert hit == set(colim.elements)


def test_limit_of_empty_index_is_singleton():
    idx = terminal_category()
    # a genuinely empty index: build a category with no objects internally
    empty_idx = build_category([], [], {}, {}, {}, {})
    D = SetDiagram.of(empty_idx, {}, {})
    lim, projs = limit(D)
    assert list(lim) == [()]


def test_limit_with_empty_fiber_is_empty():
    idx = terminal_category()
    D = SetDiagram.of(idx, {"pt": FinSet.of([])},
                      {idx.identity["pt"]: FinFn.identity(FinSet.of([]))})
    lim, _ = limit(D)
    assert len(lim) == 0


def test_families_of_no_carriers_and_of_an_empty_carrier():
    assert families([], []) == [()]
    assert families([(0, 1), ()], []) == []
    assert families([()], [(0, 0, {})]) == []


def test_families_follow_constraints_and_charge_each_candidate():
    # position 1 is forced by position 0; the loop at 2 keeps its fixed points
    b = Budget(100)
    got = families([(0, 1), ("a", "b", "c"), (0, 1, 2)],
                   [(0, 1, {0: "c", 1: "a"}), (2, 2, {0: 0, 1: 2, 2: 2})], b)
    assert got == [(0, "c", 0), (0, "c", 2), (1, "a", 0), (1, "a", 2)]
    assert b.spent == 2 + 2 + 2 * 3
