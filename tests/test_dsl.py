"""Specification language: tokenizer, parser, resolver, serializer.

The central property is that serialize followed by parse+resolve is the
identity on every in-memory value, and that serialize on the re-parsed value
is a fixed point of the text form.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitopos import dsl, fixtures
from finitopos.presheaf import terminal_presheaf, yoneda


TERMINAL = """
# one object, one identity
category One {
  objects: star;
  close: 1;
}
"""

DELTA1 = """
category Delta1 {
  objects: V, E;
  generators:
    d0 : V -> E,
    d1 : V -> E,
    s  : E -> V;
  relations:
    s.d0 = id(V);
    s.d1 = id(V);
  close: 16;
}
"""


def test_terminal_category():
    r = dsl.load(TERMINAL)
    C = r.categories["One"]
    assert C.objects == ("star",)
    assert len(C.morphisms) == 1


def test_delta1_saturates_to_fixture():
    r = dsl.load(DELTA1)
    C = r.categories["Delta1"]
    assert len(C.morphisms) == 7
    assert C == fixtures.delta1_base()


def test_comments_and_whitespace_ignored():
    r = dsl.load("category A {\n# comment\n  objects: x;# more\n  close: 1;\n}")
    assert r.categories["A"].objects == ("x",)


def test_unresolved_identifier_has_span():
    text = "functor F : C1 -> C2 {\n  objects: a -> b;\n}\n"
    ast = dsl.parse(text)
    assert ast.ok  # syntactically fine
    _, diags = dsl.resolve(ast)
    kinds = {d.kind for d in diags}
    assert "UnresolvedIdentifier" in kinds
    d = next(d for d in diags if d.kind == "UnresolvedIdentifier")
    assert d.line == 1 and d.col > 0


def test_duplicate_definition_diagnosed():
    text = TERMINAL + TERMINAL
    with pytest.raises(dsl.SpecError) as e:
        dsl.load(text)
    assert any(d.kind == "DuplicateDefinition" for d in e.value.diagnostics)


def test_syntax_error_recovery_reports_all_blocks():
    text = "category A { objects x; }\ncategory B { objects: y; close: 1; }"
    ast = dsl.parse(text)
    assert not ast.ok
    assert any(d.kind == "SyntaxError" for d in ast.diagnostics)
    # recovery: the second block still parses
    assert any(getattr(d, "name", None) == "B" for d in ast.decls)


def test_tokenizer_flags_bad_characters_without_raising():
    toks, diags = dsl.tokenize("category @ A %")
    assert diags and all(d.kind == "SyntaxError" for d in diags)
    assert toks[-1].kind == "eof"


def test_parse_matches_recorded_corpus():
    """Exact diagnostics and parsed declarations on about 2 000 malformed
    documents, recorded by tests/data/make_dsl_corpus.py."""
    corpus = json.loads((Path(__file__).parent / "data" / "dsl_corpus.json").read_text())
    assert len(corpus) == 2000
    for entry in corpus:
        ast = dsl.parse(entry["text"])
        decls = [[type(d).__name__, *dataclasses.astuple(d)] for d in ast.decls]
        assert [str(d) for d in ast.diagnostics] == entry["diagnostics"], entry["text"]
        assert json.loads(json.dumps(decls)) == entry["decls"], entry["text"]


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURE_CATEGORIES))
def test_category_roundtrip_fixed_point(name):
    C = fixtures.get_category(name)
    text = dsl.serialize_category("X", C)
    r = dsl.load(text)
    assert r.categories["X"] == C
    assert dsl.serialize_category("X", r.categories["X"]) == text


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURE_REFLECTIONS))
def test_reflection_roundtrip(name):
    R = fixtures.get_reflection(name)
    text = (dsl.serialize_category("B", R.B)
            + dsl.serialize_category("A", R.A)
            + dsl.serialize_functor("L", R.L, "B", "A")
            + dsl.serialize_functor("F", R.F, "A", "B")
            + dsl.serialize_reflection("R", R, "L", "F"))
    r = dsl.load(text)
    R2 = r.reflections["R"]
    assert R2.L.obj_map == R.L.obj_map and R2.L.mor_map == R.L.mor_map
    assert R2.unit.components == R.unit.components


def test_presheaf_roundtrip():
    C = fixtures.delta1_base()
    for X in (yoneda(C, "V"), yoneda(C, "E"), terminal_presheaf(C)):
        text = dsl.serialize_category("C", C) + dsl.serialize_presheaf("X", X, "C")
        r = dsl.load(text)
        Y = r.presheaves["X"]
        names = dsl.element_names(X)
        for c in C.objects:
            assert len(Y.at[c]) == len(X.at[c])
        for m in C.morphisms:
            c, d = C.cod[m], C.dom[m]
            for x in X.at[c]:
                assert Y.act[m](names[c][x]) == names[d][X.act[m](x)]
        # fixed point of the text form
        text2 = dsl.serialize_category("C", C) + dsl.serialize_presheaf("X", Y, "C")
        assert text2 == text


def test_empty_carrier_presheaf_roundtrip():
    from finitopos.presheaf import empty_presheaf
    C = fixtures.get_category("chain-2")
    X = empty_presheaf(C)
    text = dsl.serialize_category("C", C) + dsl.serialize_presheaf("X", X, "C")
    r = dsl.load(text)
    for c in C.objects:
        assert len(r.presheaves["X"].at[c]) == 0


# ---------------------------------------------------------------------------
# fuzzing: arbitrary input must never crash the frontend


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parse_never_raises(text):
    ast = dsl.parse(text)
    assert isinstance(ast.diagnostics, list)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="category functor{}:;,.()->=ABC ", max_size=80))
def test_load_raises_only_spec_error(text):
    try:
        dsl.load(text)
    except dsl.SpecError:
        pass
