"""Finite categories, saturation, universal constructions, reflections."""

import pytest

from finitopos.errors import InvalidStructure, SaturationOverflow, ShapeMismatch
from finitopos.fincat import (
    FinCategory,
    FinFunctor,
    FinNatTrans,
    Reflection,
    binary_product,
    build_category,
    check_adjunction,
    comma_from_object,
    exponential_object,
    find_inverse,
    first_bad_cone,
    opposite,
    pullback,
    saturate_category,
    terminal_category,
    terminal_object,
)
from finitopos import dsl, fixtures


# ---------------------------------------------------------------------------
# saturation


def test_delta1_saturates_to_seven_morphisms():
    C = fixtures.delta1_base()
    # [DERIVED] the simplicial interval truncation: id_V, id_E, d0, d1, s,
    # d0.s, d1.s — seven arrows
    assert len(C.morphisms) == 7
    assert set(C.morphisms) == {"id(V)", "id(E)", "d0", "d1", "s", "d0.s", "d1.s"}
    assert C.comp[("s", "d0")] == "id(V)"
    assert C.comp[("d0.s", "d0.s")] == "d0.s"  # [DERIVED] idempotent


def test_saturation_respects_bound():
    # free category on a loop never closes
    with pytest.raises(SaturationOverflow):
        saturate_category(["x"], [("f", "x", "x")], [], bound=16)


def test_saturation_with_nilpotence():
    C = saturate_category(["x"], [("f", "x", "x")], [(("f", "f"), ())])
    assert len(C.morphisms) == 2  # [DERIVED] id and f with f.f = id


# ---------------------------------------------------------------------------
# validators and mutations


def test_fixtures_validate():
    for name in fixtures.FIXTURE_CATEGORIES:
        C = fixtures.get_category(name)
        bad = FinCategory(list(C.objects), list(C.morphisms), dict(C.dom), dict(C.cod),
                          dict(C.identity), dict(C.comp)).violations()
        assert not bad, f"{name}: {bad}"


def _mutate(C, **overrides):
    return build_category(
        overrides.get("objects", list(C.objects)),
        overrides.get("morphisms", list(C.morphisms)),
        overrides.get("dom", dict(C.dom)),
        overrides.get("cod", dict(C.cod)),
        overrides.get("identity", dict(C.identity)),
        overrides.get("comp", dict(C.comp)),
    )


def test_mutations_rejected():
    C = fixtures.get_category("bool-2")
    ids = set(C.identity.values())
    m = next(m for m in C.morphisms if m not in ids)
    # identity law broken
    comp = dict(C.comp)
    comp[(m, C.identity[C.dom[m]])] = C.identity[C.dom[m]]
    with pytest.raises(InvalidStructure):
        _mutate(C, comp=comp)
    # missing composite
    comp = dict(C.comp)
    del comp[(m, C.identity[C.dom[m]])]
    with pytest.raises(InvalidStructure):
        _mutate(C, comp=comp)
    # dangling domain
    dom = dict(C.dom)
    dom[m] = "nowhere"
    with pytest.raises(InvalidStructure):
        _mutate(C, dom=dom)


def test_empty_category_rejected_at_validation():
    # a declared category needs an object; the DSL resolver is where a
    # category enters from outside
    _, diags = dsl.resolve(dsl.parse("category E { close: 1; }"))
    assert [str(d) for d in diags] == ["1:1: SyntaxError: category needs at least one object"]
    # the internal constructor allows emptiness (element categories)
    assert build_category([], [], {}, {}, {}, {}).objects == ()


# ---------------------------------------------------------------------------
# duality and derived categories


def test_opposite_is_involutive():
    for name in ("delta1", "bool-2", "m3"):
        C = fixtures.get_category(name)
        assert opposite(opposite(C)) == C


def test_opposite_swaps_endpoints():
    C = fixtures.delta1_base()
    O = opposite(C)
    assert O.dom["d0"] == "E" and O.cod["d0"] == "V"
    assert O.comp[("d0", "s")] == C.comp[("s", "d0")]


def test_comma_from_object_shape():
    R = fixtures.lattice_3_2()
    cat, decode = comma_from_object("c2", R.L)
    # (c2 down L): B-objects b with a map c2 -> L b; L sends c0 to c0, else c2
    assert all(decode[o][0] in R.B.objects for o in cat.objects)


# ---------------------------------------------------------------------------
# universal constructions in thin fixtures


def test_terminal_and_products_bool2():
    C = fixtures.get_category("bool-2")
    assert terminal_object(C) == "top"
    p = binary_product(C, "xa", "xb")
    assert p is not None and p[0] == "bot"  # [DERIVED] meet in bool-2


def test_pullback_in_bool2():
    C = fixtures.get_category("bool-2")
    m1 = next(m for m in C.morphisms if C.dom[m] == "xa" and C.cod[m] == "top")
    m2 = next(m for m in C.morphisms if C.dom[m] == "xb" and C.cod[m] == "top")
    pb = pullback(C, m1, m2)
    assert pb is not None and pb[0] == "bot"


def test_pullback_square_has_no_bad_cone():
    C = fixtures.get_category("bool-2")
    # the square over top with apex bot is a pullback: a unique mediator
    # from every commuting test cone
    m1 = next(m for m in C.morphisms if C.dom[m] == "xa" and C.cod[m] == "top")
    m2 = next(m for m in C.morphisms if C.dom[m] == "xb" and C.cod[m] == "top")
    pb = pullback(C, m1, m2)
    apex, p1, p2 = pb
    assert first_bad_cone(C, apex, (p1, p2), (m1, m2)) is None
    # over id(top) twice the pullback is top; the apex bot has no mediator
    # from the test cone (top, id, id), the first after (bot, bot->top, bot->top)
    top, up = C.identity["top"], C.hom("bot", "top")[0]
    assert first_bad_cone(C, "bot", (up, up), (top, top)) == ("top", top, top, 0)


def test_exponential_object_in_bool2():
    C = fixtures.get_category("bool-2")
    e = exponential_object(C, "xa", "xb")
    # [DERIVED] Heyting implication xa -> xb in bool-2 is xb
    assert e is not None and e[0] == "xb"


def test_m3_lacks_exponentials():
    C = fixtures.get_category("m3")
    # [DERIVED] M3 is not distributive, so some implication is missing
    missing = [
        (x, y)
        for x in C.objects for y in C.objects
        if exponential_object(C, x, y) is None
    ]
    assert missing


# ---------------------------------------------------------------------------
# functors, isos, reflections


def test_functor_validation_catches_broken_composition():
    C = fixtures.get_category("chain-2")
    D = fixtures.get_category("chain-3")
    obj = {"c0": "c0", "c1": "c2"}
    mor = {m: None for m in C.morphisms}
    mor["id(c0)"] = "id(c0)"
    mor["id(c1)"] = "id(c2)"
    arrow = next(m for m in C.morphisms if C.dom[m] == "c0" and C.cod[m] == "c1")
    good = next(m for m in D.morphisms if D.dom[m] == "c0" and D.cod[m] == "c2")
    mor[arrow] = good
    FinFunctor(C, D, obj, mor).validate()
    bad_obj = {"c0": "c0", "c1": "c1"}  # endpoint mismatch with mor map
    with pytest.raises(InvalidStructure):
        FinFunctor(C, D, bad_obj, mor).validate()


def test_find_inverse_on_identity():
    C = fixtures.get_category("bool-2")
    for o in C.objects:
        assert find_inverse(C, C.identity[o]) == C.identity[o]


def test_reflection_fixtures_validate_and_adjunction_holds():
    for name in fixtures.FIXTURE_REFLECTIONS:
        R = fixtures.get_reflection(name)
        v = check_adjunction(R)
        assert v.passed, f"{name}: {v.summary()}"


def test_reflection_transpose_roundtrip():
    R = fixtures.lattice_3_2()
    B, A = R.B, R.A
    for b in B.objects:
        for a in A.objects:
            target = R.F.obj_map[a]
            for u in B.hom(b, target):
                t = R.transpose(b, a, u)
                # transpose then compose back along the unit reproduces u
                back = B.comp[(R.F.mor_map[t], R.unit.components[b])]
                assert back == u


def test_broken_unit_rejected():
    R = fixtures.lattice_3_2()
    unit = dict(R.unit.components)
    # point the unit at c1 to the identity instead of the reflection arrow
    unit["c1"] = R.B.identity["c1"]
    with pytest.raises((InvalidStructure, ShapeMismatch)):
        FinNatTrans(FinFunctor.identity(R.B), R.L.then(R.F), unit).validate()
