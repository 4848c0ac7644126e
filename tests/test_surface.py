"""Every top-level function, class and method in src/finitopos/ is reached
from the program: from src/, scripts/ or certbench/, outside its own
definition.  A name that only tests reach belongs in tests/; a name that
nothing reaches is deleted.

A reference is a name, an attribute, an imported name, or a string constant
naming it (certbench's tracer lists what it wraps as "module.name" strings).
Names are matched without their module or class, so a method counts as
reached when any attribute of that name is read.  Dunder methods are reached
by the language and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finitopos"
PROGRAM = [ROOT / "src", ROOT / "scripts", ROOT / "certbench"]

# module.name -> why it stays without a caller in the program
ALLOWED = {
    "dsl.load": "the library's one-call entry point: parse, resolve, raise on diagnostics",
    "dsl.serialize_category": "the DSL's text form; the round-trip tests check the parser by it",
    "dsl.serialize_functor": "the DSL's text form; the round-trip tests check the parser by it",
    "dsl.serialize_presheaf": "the DSL's text form; the round-trip tests check the parser by it",
    "dsl.serialize_reflection": "the DSL's text form; the round-trip tests check the parser by it",
    "presheaf.terminal_presheaf": "the terminal object of the presheaf topos, kept with the initial one",
    "presheaf.empty_presheaf": "the initial object of the presheaf topos, kept with the terminal one",
    "kan.theta": "the comparison map of ROADMAP item 4 ('pieces have points')",
}


def _definitions():
    """(module.qualname, bare name, file, first line, last line) of every
    top-level function and class and every method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        out.append((f"{module}.{node.name}.{item.name}", item.name, path,
                                    item.lineno, item.end_lineno))
    return out


def _references():
    """bare name -> [(file, line)] of every reference in the program."""
    refs: dict = {}
    for top in PROGRAM:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = [node.name.rsplit(".", 1)[-1]]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value.rsplit(".", 1)[-1]]
                else:
                    continue
                for name in names:
                    refs.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    return refs


def test_every_definition_is_reached_from_the_program():
    refs = _references()
    unreached = []
    for qualname, name, path, first, last in _definitions():
        if qualname in ALLOWED:
            continue
        if not any(p != path or not first <= line <= last for p, line in refs.get(name, [])):
            unreached.append(qualname)
    assert unreached == [], f"defined in src/finitopos/ but reached from no program code: {unreached}"


def test_allowlist_names_existing_definitions():
    defined = {qualname for qualname, *_ in _definitions()}
    assert sorted(set(ALLOWED) - defined) == []
