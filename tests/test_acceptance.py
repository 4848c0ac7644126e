"""Acceptance gate: one test per release criterion, one line per verdict.

Each test prints ``criterion N: PASS`` on the real stdout when its assertions
hold, so the gate's outcome is readable straight off the pytest log.  Runtime
limits are asserted where the criterion fixes one.
"""

import json
import random
import time

import pytest

from finitopos import checks, dsl, fixtures, graphpre, kan, report
from finitopos.errors import InvalidStructure, ShapeMismatch
from finitopos.fincat import FinCategory, FinFunctor, FinNatTrans
from finitopos.finset import FinFn, FinSet
from finitopos.presheaf import (
    Presheaf,
    nat_transformations,
    presheaf_corpus,
    product_presheaf,
    yoneda,
)
from finitopos.verdicts import FAIL, PASS
from oracles import presheaf_iso


@pytest.fixture
def say(capsys):
    """Print on the real stdout, past pytest's capture."""
    def _say(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)
    return _say


# ---------------------------------------------------------------------------


def test_criterion_01_axiom_validators(say):
    t0 = time.monotonic()
    for name in fixtures.FIXTURE_CATEGORIES:
        C = fixtures.get_category(name)
        bad = FinCategory(list(C.objects), list(C.morphisms), dict(C.dom), dict(C.cod),
                          dict(C.identity), dict(C.comp)).violations()
        assert not bad, f"{name} rejected: {bad}"

    C = fixtures.get_category("bool-2")
    ids = set(C.identity.values())
    m = next(x for x in C.morphisms if x not in ids)
    n2 = next(x for x in C.morphisms if x not in ids and x != m)

    def broken(**kw):
        parts = dict(objects=list(C.objects), morphisms=list(C.morphisms),
                     dom=dict(C.dom), cod=dict(C.cod),
                     identity=dict(C.identity), comp=dict(C.comp))
        parts.update(kw)
        return bool(FinCategory(**parts).violations())

    rejected = 0
    # 1 identity law (left)
    comp = dict(C.comp)
    comp[(C.identity[C.cod[m]], m)] = C.identity[C.cod[m]]
    rejected += broken(comp=comp)
    # 2 identity law (right)
    comp = dict(C.comp)
    comp[(m, C.identity[C.dom[m]])] = C.identity[C.dom[m]]
    rejected += broken(comp=comp)
    # 3 missing composite (totality)
    comp = dict(C.comp)
    del comp[(m, C.identity[C.dom[m]])]
    rejected += broken(comp=comp)
    # 4 composite with wrong endpoints
    comp = dict(C.comp)
    key = next(k for k, v in C.comp.items() if v == m and k != (m, C.identity[C.dom[m]]))
    comp[key] = C.identity[C.objects[0]] if C.dom[m] != C.objects[0] else C.identity[C.objects[1]]
    rejected += broken(comp=comp)
    # 5 dangling domain
    dom = dict(C.dom)
    dom[m] = "nowhere"
    rejected += broken(dom=dom)
    # 6 dangling codomain
    cod = dict(C.cod)
    cod[m] = "nowhere"
    rejected += broken(cod=cod)
    # 7 missing identity assignment
    ident = dict(C.identity)
    del ident[C.objects[0]]
    rejected += broken(identity=ident)
    # 8 identity pointing at a non-endo morphism
    ident = dict(C.identity)
    ident[C.dom[m]] = m if C.dom[m] != C.cod[m] else n2
    rejected += broken(identity=ident)

    # 9 functor that breaks composition
    D = fixtures.get_category("chain-3")
    C2 = fixtures.get_category("chain-2")
    arrow = next(x for x in C2.morphisms if C2.dom[x] == "c0" and C2.cod[x] == "c1")
    obj = {"c0": "c0", "c1": "c2"}
    mor = {"id(c0)": "id(c0)", "id(c1)": "id(c2)", arrow: "id(c0)"}
    with pytest.raises(InvalidStructure):
        FinFunctor(C2, D, obj, mor).validate()
    rejected += 1
    # 10 functor that breaks identities
    good_arrow = next(x for x in D.morphisms if D.dom[x] == "c0" and D.cod[x] == "c2")
    mor2 = {"id(c0)": good_arrow, "id(c1)": "id(c2)", arrow: good_arrow}
    with pytest.raises(InvalidStructure):
        FinFunctor(C2, D, obj, mor2).validate()
    rejected += 1
    # 11 broken naturality square (reflection unit with a wrong component)
    R = fixtures.lattice_3_2()
    unit = dict(R.unit.components)
    unit["c1"] = R.B.identity["c1"]
    with pytest.raises((InvalidStructure, ShapeMismatch)):
        FinNatTrans(FinFunctor.identity(R.B), R.L.then(R.F), unit).validate()
    rejected += 1
    # 12 presheaf functoriality violation
    base = fixtures.delta1_base()
    at = {"V": FinSet.of(["a", "b"]), "E": FinSet.of(["e"])}
    act = {
        "d0": FinFn.of(at["E"], at["V"], {"e": "a"}),
        "d1": FinFn.of(at["E"], at["V"], {"e": "b"}),
        "s": FinFn.of(at["V"], at["E"], {"a": "e", "b": "e"}),
        "d0.s": FinFn.of(at["E"], at["E"], {"e": "e"}),
        "d1.s": FinFn.of(at["E"], at["E"], {"e": "e"}),
    }
    with pytest.raises(InvalidStructure):
        Presheaf.of(base, at, act)
    rejected += 1

    elapsed = time.monotonic() - t0
    assert rejected >= 10, f"only {rejected} mutations rejected"
    assert elapsed < 1.0, f"axiom suite took {elapsed:.2f}s"
    say(f"criterion 1: PASS ({rejected} mutations rejected in {elapsed:.2f}s)")


def test_criterion_02_kan_chain(say):
    t0 = time.monotonic()
    for name in ("lattice-3-2", "delta1"):
        R = fixtures.get_reflection(name)
        for b in R.B.objects:
            rx = kan.lan(R.L, yoneda(R.B, b))
            assert presheaf_iso(rx.output, yoneda(R.A, R.L.obj_map[b])) is not None
        corpus_b = presheaf_corpus(R.B, carrier_bound=2)
        corpus_a = presheaf_corpus(R.A, carrier_bound=2)
        for X in corpus_b:
            lan_x = kan.lan(R.L, X)
            ran_x = kan.ran(R.L, X)
            for V in corpus_a:
                rv = kan.restrict(R.L, V)
                assert (len(nat_transformations(X, rv))
                        == len(nat_transformations(lan_x.output, V)))
                assert (len(nat_transformations(rv, X))
                        == len(nat_transformations(V, ran_x.output)))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"Kan chain took {elapsed:.1f}s"
    say(f"criterion 2: PASS (co-Yoneda and hom-bijections at carrier bound 2 in {elapsed:.1f}s)")


def test_criterion_03_restriction_fully_faithful(say):
    R = fixtures.get_reflection("lattice-3-2")
    corpus = presheaf_corpus(R.A, carrier_bound=2)
    pairs = 0
    for X in corpus:
        rx = kan.restrict(R.L, X)
        for Y in corpus:
            pairs += 1
            assert (len(nat_transformations(rx, kan.restrict(R.L, Y)))
                    == len(nat_transformations(X, Y)))
    say(f"criterion 3: PASS (|Nat(L*X, L*Y)| = |Nat(X, Y)| over {pairs} corpus pairs)")


def test_criterion_04_lan_preserves_products_when_hypothesis_holds(say):
    checked, excluded = [], []
    for name in sorted(fixtures.FIXTURE_REFLECTIONS):
        R = fixtures.get_reflection(name)
        gate = checks.check_exponential_ideal(R)
        if gate.outcome != PASS:
            # hypothesis (L preserves finite products) not certified
            excluded.append((name, gate.outcome, gate.detail or gate.summary()))
            continue
        corpus = presheaf_corpus(R.B, carrier_bound=2)
        for i, X in enumerate(corpus):
            lx = kan.lan(R.L, X).output
            for Y in corpus[i:]:
                ly = kan.lan(R.L, Y).output
                P, _, _ = product_presheaf(X, Y)
                lp = kan.lan(R.L, P).output
                Q, _, _ = product_presheaf(lx, ly)
                assert presheaf_iso(lp, Q) is not None, f"{name}: product not preserved"
        checked.append(name)
    assert checked, "no fixture passed the product-preservation hypothesis"
    for name, outcome, why in excluded:
        say(f"criterion 4: excluded {name} ({outcome}: {why})")
    say(f"criterion 4: PASS (verified on {checked}; excluded {[n for n, _, _ in excluded]})")


def test_criterion_05_graph_product_preservation(say):
    t0 = time.monotonic()
    v = graphpre.check_product_preservation(max_v=3, max_e=4,
                                            random_pairs=100, random_max_v=5)
    elapsed = time.monotonic() - t0
    assert v.outcome == PASS, v.summary()
    assert elapsed < 120.0, f"product sweep took {elapsed:.0f}s"
    say(f"criterion 5: PASS ({v.stats['pairs']} pairs in {elapsed:.0f}s)")


def test_criterion_06_graph_exponential_ideal(say):
    # exhaustive over preorders with <= 3 elements and graphs with <= 3
    # vertices and <= 4 extra edges (the instance count is infinite without
    # an edge bound)
    v = graphpre.check_exponential_ideal_graphs(max_p=3, max_v=3, max_e=4)
    assert v.outcome == PASS, v.summary()
    assert v.stats == {"tested": 2492}
    say(f"criterion 6: PASS ({v.stats['tested']} exponentials, all embedded preorders)")


def test_criterion_07_sle_failure_certificate(say):
    t0 = time.monotonic()
    v = graphpre.find_sle_failure(max_v=4, max_e=8)
    if v.outcome != FAIL:  # escalate bounds once before reporting
        v = graphpre.find_sle_failure(max_v=5, max_e=8)
    elapsed = time.monotonic() - t0
    assert v.outcome == FAIL, f"no witness found: {v.summary()}"
    w = json.loads(json.dumps(v.witness))
    replay = checks.reverify(w)
    assert replay.outcome == PASS, f"witness did not replay: {replay.summary()}"
    assert elapsed < 600.0, f"search took {elapsed:.0f}s"
    say(f"criterion 7: PASS (witness found and replayed in {elapsed:.0f}s, "
        f"{v.stats['squares']} squares)")


def test_criterion_08_implication_lattice(say):
    rows = []
    for name in sorted(fixtures.FIXTURE_REFLECTIONS):
        R = fixtures.get_reflection(name)
        su = checks.check_stable_units(R).outcome
        lc = checks.check_locally_connected(R.L).outcome
        sle = checks.check_semi_left_exact(R).outcome
        rows.append((name, su, lc, sle))
        if su == PASS:
            assert sle == PASS, f"{name}: stable units without semi-left-exactness"
        if lc == PASS:
            assert sle == PASS, f"{name}: locally connected without semi-left-exactness"
    say(f"criterion 8: PASS (no implication violated over {len(rows)} fixtures)")


def test_criterion_09_lcc_sanity(say):
    assert checks.check_lcc(fixtures.get_category("bool-2")).outcome == PASS
    assert checks.check_lcc(fixtures.get_category("chain-2")).outcome == PASS
    v = checks.check_lcc(fixtures.get_category("m3"))
    assert v.outcome == FAIL and v.witness is not None
    assert checks.reverify(v.witness).outcome == PASS
    say(f"criterion 9: PASS (PASS on bool-2/chain-2, replayable FAIL on m3)")


def test_criterion_10_parser_and_reports(say, tmp_path):
    # round-trip fixed point on every fixture
    for name in fixtures.FIXTURE_CATEGORIES:
        C = fixtures.get_category(name)
        text = dsl.serialize_category("X", C)
        r = dsl.load(text)
        assert r.categories["X"] == C
        assert dsl.serialize_category("X", r.categories["X"]) == text
    for name in fixtures.FIXTURE_REFLECTIONS:
        R = fixtures.get_reflection(name)
        text = (dsl.serialize_category("B", R.B)
                + dsl.serialize_category("A", R.A)
                + dsl.serialize_functor("L", R.L, "B", "A")
                + dsl.serialize_functor("F", R.F, "A", "B")
                + dsl.serialize_reflection("R", R, "L", "F"))
        R2 = dsl.load(text).reflections["R"]
        assert R2.L.mor_map == R.L.mor_map
        assert R2.unit.components == R.unit.components

    # fuzz: 10^4 random byte strings, zero crashes
    rng = random.Random(20210521)
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        ast = dsl.parse(blob.decode("latin-1"))
        assert isinstance(ast.diagnostics, list)

    # every emitted witness file replays to the identical verdict and digest
    from finitopos.cli import EXIT_OK, main
    for argv, name in (
        (["check", "lcc", "--fixture", "m3", "--expect", "fail"], "lcc.json"),
        (["search", "sle-failure", "--max-vertices", "3", "--max-edges", "2",
          "--expect", "found"], "sle.json"),
    ):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        report.check_report(rep)
        first = checks.reverify(rep["witness"]).to_json()
        second = checks.reverify(rep["witness"]).to_json()
        assert first == second
        assert first["outcome"] == PASS
        # the digest is a pure function of the report body
        body = {k: v for k, v in rep.items() if k != "digest"}
        assert report.digest_of(body) == rep["digest"]
    say(f"criterion 10: PASS (round-trips, 10^4-string fuzz, deterministic replays)")
