"""Adjunction-property checkers and witness replay soundness."""

import ast
import copy
import json
from pathlib import Path

import pytest

from finitopos import checks, fixtures
from finitopos.errors import NonUnique
from finitopos.fincat import FinFunctor, FinNatTrans, Reflection, poset_category
from finitopos.verdicts import FAIL, INCONCLUSIVE, PASS


def test_identity_reflection_passes_everything():
    R = fixtures.get_reflection("identity-chain-2")
    assert checks.check_frobenius_all(R).passed
    assert checks.check_semi_left_exact(R).passed
    assert checks.check_stable_units(R).passed
    assert checks.check_exponential_ideal(R).passed
    assert checks.check_locally_connected(R.L).passed


def test_lattice_fixture_verdicts():
    R = fixtures.get_reflection("lattice-3-2")
    # [DERIVED] the {c0,c2}-reflection of the 3-chain is a reflective
    # sublattice closed under implication: every checker passes by exhaustion
    assert checks.check_frobenius_all(R).passed
    assert checks.check_semi_left_exact(R).passed
    assert checks.check_stable_units(R).passed
    assert checks.check_exponential_ideal(R).passed


def test_product_mediator_must_be_unique():
    C = fixtures.get_category("delta1")
    # s.h = s for each of the three endomorphisms h of E, so the cone
    # (E, s, s) has three mediators from (E, s, s): it is no product
    with pytest.raises(NonUnique):
        checks._product_mediator(C, "E", ("E", "s", "s"), "s", "s")


def test_delta1_exponential_ideal_inconclusive():
    R = fixtures.get_reflection("delta1")
    v = checks.check_exponential_ideal(R)
    # [DERIVED] the 7-arrow base has no product E x E, so sub-check (a)
    # cannot be completed on every pair
    assert v.outcome == INCONCLUSIVE


def test_stable_units_implies_sle_on_fixtures():
    for name in fixtures.FIXTURE_REFLECTIONS:
        R = fixtures.get_reflection(name)
        su = checks.check_stable_units(R)
        sle = checks.check_semi_left_exact(R)
        if su.passed:
            assert sle.passed, f"{name}: stable units without semi-left-exactness"


def test_locally_connected_implies_sle_on_fixtures():
    for name in fixtures.FIXTURE_REFLECTIONS:
        R = fixtures.get_reflection(name)
        lc = checks.check_locally_connected(R.L)
        sle = checks.check_semi_left_exact(R)
        if lc.passed:
            assert sle.passed, f"{name}: locally connected without semi-left-exactness"


def test_lcc_verdicts():
    assert checks.check_lcc(fixtures.get_category("chain-2")).passed
    assert checks.check_lcc(fixtures.get_category("bool-2")).passed
    v = checks.check_lcc(fixtures.get_category("m3"))
    assert v.outcome == FAIL
    assert v.witness is not None


def test_lcc_non_complete_is_inconclusive():
    # delta1 has no terminal object, so the hypothesis fails
    v = checks.check_lcc(fixtures.get_category("delta1"))
    assert v.outcome == INCONCLUSIVE


def test_lcc_witness_replays():
    v = checks.check_lcc(fixtures.get_category("m3"))
    r = checks.reverify(v.witness)
    assert r.passed


def test_lcc_witness_corruption_detected():
    v = checks.check_lcc(fixtures.get_category("m3"))
    w = copy.deepcopy(v.witness)
    w["x"], w["y"] = w["y"], w["x"]
    # the witness names x = xa <= y = top; swapped, top is not below xa
    r = checks.reverify(w)
    assert r.outcome == FAIL and r.witness["kind"] == "replay"


def test_frobenius_per_object():
    R = fixtures.get_reflection("lattice-3-2")
    for I in R.A.objects:
        for A_obj in R.B.objects:
            v = checks.check_frobenius(R, I, A_obj)
            assert v.outcome in (PASS, INCONCLUSIVE), v.summary()


def test_reverify_rejects_unknown_kind():
    from finitopos.errors import ShapeMismatch
    with pytest.raises(ShapeMismatch):
        checks.reverify({"kind": "nonsense"})


# ---------------------------------------------------------------------------
# the category-square replayer


def _bool2_onto_ends() -> Reflection:
    """bool-2 reflected onto {bot, top}, with L(xa) = L(xb) = top: L keeps
    the pullbacks along F-images but not the square bot -> xa, xb -> top."""
    B = fixtures.bool2()
    A = poset_category(["bot", "top"], lambda x, y: x == y or x == "bot").validate()
    L = fixtures._thin_functor(B, A, {"bot": "bot", "xa": "top", "xb": "top", "top": "top"})
    F = fixtures._thin_functor(A, B, {"bot": "bot", "top": "top"})
    unit = FinNatTrans(FinFunctor.identity(B), L.then(F),
                       {o: B.hom(o, F.obj_map[L.obj_map[o]])[0] for o in B.objects})
    return Reflection(L, F, unit.validate()).validate()


def test_category_square_witness_replays():
    R = _bool2_onto_ends()
    assert checks.check_semi_left_exact(R).passed
    v = checks.check_stable_units(R)
    assert v.outcome == FAIL
    w = json.loads(json.dumps(v.witness))
    sq = w["square"]
    assert sq["kind"] == "category-square"
    assert (sq["apex"], sq["corners"]) == ("bot", {"X": "xa", "Y": "xb", "Z": "top"})
    # L sends the square to bot over top twice: (top, id, id) has no mediator
    top = R.A.identity["top"]
    assert w["analysis"] == {"cone": {"z": "top", "m1": top, "m2": top},
                             "count": 0, "mode": "no-mediator"}
    r = checks.reverify(w)
    assert r.outcome == PASS and r.stats == {"analysis": w["analysis"]}


def test_category_square_replay_rejects_arrows_that_form_no_square():
    w = copy.deepcopy(checks.check_stable_units(_bool2_onto_ends()).witness)
    w["square"]["apex"] = "xa"  # the legs still leave bot
    r = checks.reverify(w)
    assert r.outcome == FAIL and r.witness["reason"] == "stored square is not a square"


# ---------------------------------------------------------------------------
# every witness kind a checker builds has a replayer, or a reason it has none

NOT_REPLAYED = {
    "presheaf-square": "the witness does not carry L",
    "pi-comparison": "the witness does not carry L",
    "validate": "not a claim: the count of inputs that failed validation",
    "replay": "not a claim: a replay's refutation of its witness",
}


def _built_kinds() -> set:
    """Every string literal stored under "kind" in a dict literal in the package."""
    kinds = set()
    for path in (Path(checks.__file__).parent).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                kinds.update(v.value for k, v in zip(node.keys, node.values)
                             if isinstance(k, ast.Constant) and k.value == "kind"
                             and isinstance(v, ast.Constant))
    return kinds


def test_every_witness_kind_has_a_replayer_or_a_reason():
    kinds = _built_kinds()
    assert sorted(kinds - set(checks.REPLAYERS)) == sorted(NOT_REPLAYED)
    assert sorted(set(checks.REPLAYERS) - kinds) == []
