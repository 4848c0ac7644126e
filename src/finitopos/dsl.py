"""Text front-end: a small declaration language for categories, functors,
presheaves and reflections, with source-span diagnostics and a canonical
serializer whose output re-parses to itself.

Composition is written ``g.f`` and means g after f (applies-right-first);
identities are written ``id(X)``.  Categories are declared by generators and
relations and closed by bounded saturation::

    category delta1 {
      objects: V, E;
      generators: d0 : V -> E, d1 : V -> E, s : E -> V;
      relations: s.d0 = id(V); s.d1 = id(V);
      close: 16;
    }
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import FinitoposError, InvalidStructure, SaturationOverflow, ShapeMismatch
from .fincat import FinCategory, FinFunctor, FinNatTrans, Reflection, saturate_category
from .finset import FinFn, FinSet
from .presheaf import Presheaf

KEYWORDS = {"category", "functor", "presheaf", "reflection", "on",
            "objects", "generators", "relations", "close", "at", "act",
            "L", "F", "unit", "morphisms"}

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
PUNCT = {"{", "}", ":", ";", ",", ".", "(", ")", "=", "->"}
# where parsing resumes after a malformed declaration header
DECLARATIONS = {"category", "functor", "presheaf", "reflection"}


class SpecError(FinitoposError):
    """Raised by load() when a document has diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "invalid spec")


@dataclass(frozen=True)
class Diagnostic:
    kind: str  # SyntaxError | UnresolvedIdentifier | DuplicateDefinition
    message: str
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}: {self.kind}: {self.message}"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


def tokenize(text: str):
    """Token stream plus diagnostics; never raises on arbitrary input."""
    toks, diags = [], []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}:;,.()=":
            toks.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        m = IDENT_RE.match(text, i)
        if m:
            toks.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = re.match(r"[0-9]+", text[i:])
        if m:
            toks.append(Token("int", m.group(), line, col))
            col += len(m.group())
            i += len(m.group())
            continue
        diags.append(Diagnostic("SyntaxError", f"unexpected character {ch!r}", line, col))
        i += 1
        col += 1
    toks.append(Token("eof", "", line, col))
    return toks, diags


# ---------------------------------------------------------------------------
# AST


@dataclass
class CategoryDecl:
    name: str
    line: int
    col: int
    objects: list = field(default_factory=list)        # [(name, line, col)]
    generators: list = field(default_factory=list)     # [(name, dom, cod, line, col)]
    relations: list = field(default_factory=list)      # [(lhs word, rhs word, line, col)]
    close: int | None = None


@dataclass
class FunctorDecl:
    name: str
    source: str
    target: str
    line: int
    col: int
    src_span: tuple = (0, 0)
    tgt_span: tuple = (0, 0)
    objects: list = field(default_factory=list)        # [(x, y, line, col)]
    morphisms: list = field(default_factory=list)      # [(word, word, line, col)]


@dataclass
class PresheafDecl:
    name: str
    base: str
    line: int
    col: int
    base_span: tuple = (0, 0)
    at: list = field(default_factory=list)             # [(obj, [elem names], line, col)]
    act: list = field(default_factory=list)            # [(word, [(x, y)], line, col)]


@dataclass
class ReflectionDecl:
    name: str
    line: int
    col: int
    L: str | None = None
    F: str | None = None
    L_span: tuple = (0, 0)
    F_span: tuple = (0, 0)
    unit: list = field(default_factory=list)           # [(obj, word, line, col)]


@dataclass
class SpecAST:
    decls: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _Parser:
    def __init__(self, toks, diags):
        self.toks = toks
        self.pos = 0
        self.diags = list(diags)

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, message, tok=None):
        tok = tok or self.peek()
        self.diags.append(Diagnostic("SyntaxError", message, tok.line, tok.col))

    def expect(self, text) -> Token | None:
        t = self.peek()
        if (t.kind == "punct" and t.text == text) or (t.kind == "ident" and t.text == text):
            return self.next()
        found = t.text or "end of input"
        self.error(f"expected {text!r}, found {found!r}")
        return None

    def ident(self, what="identifier") -> Token | None:
        t = self.peek()
        if t.kind == "ident":
            return self.next()
        found = t.text or "end of input"
        self.error(f"expected {what}, found {found!r}")
        return None

    def skip_to(self, stops):
        while self.peek().kind != "eof" and self.peek().text not in stops:
            self.next()

    # words: ident (. ident)* or id(X); represented as tuples of generator
    # names with ("id", X) for identities
    def word(self):
        t = self.ident("morphism word")
        if t is None:
            return None
        if t.text == "id" and self.peek().text == "(":
            self.next()
            o = self.ident("object")
            if o is None:
                return None
            if self.expect(")") is None:
                return None
            return ("id", o.text)
        parts = [t.text]
        while self.peek().text == ".":
            self.next()
            t2 = self.ident("morphism word")
            if t2 is None:
                return None
            parts.append(t2.text)
        return tuple(parts)

    def document(self) -> SpecAST:
        ast = SpecAST()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "category":
                d = self.category_decl()
            elif t.text == "functor":
                d = self.functor_decl()
            elif t.text == "presheaf":
                d = self.presheaf_decl()
            elif t.text == "reflection":
                d = self.reflection_decl()
            else:
                self.error(f"expected a declaration, found {t.text!r}")
                self.next()
                self.skip_to(DECLARATIONS)
                continue
            if d is not None:
                ast.decls.append(d)
        ast.diagnostics = self.diags
        return ast

    def block_open(self) -> bool:
        if self.expect("{") is None:
            self.skip_to(DECLARATIONS)
            return False
        return True

    def block(self, what: str, clauses: dict) -> None:
        """Clauses up to the closing '}'.  A clause keyword is consumed and its
        parser called; anything else is reported and skipped up to its ';'."""
        while self.peek().kind != "eof" and self.peek().text != "}":
            t = self.next()
            clause = clauses.get(t.text)
            if clause is not None:
                clause()
            else:
                self.error(f"unexpected {t.text!r} in {what} block", t)
                self.skip_to({";", "}"})
                if self.peek().text == ";":
                    self.next()
        self.expect("}")

    def listing(self, item, into: list) -> None:
        """`: item, item, ... ;` after a clause keyword.  Each entry `item()`
        returns is appended to `into`; at the first None the rest of the
        clause is skipped."""
        self.expect(":")
        while True:
            entry = item()
            if entry is None:
                self.skip_to({";", "}"})
                break
            into.append(entry)
            if self.peek().text != ",":
                break
            self.next()
        if self.peek().text == ";":
            self.next()

    def arrow(self, left, right):
        """`left -> right` as the pair the two parsers return, or None once
        one of them, or the '->', is missing."""
        a = left()
        if a is None or self.expect("->") is None:
            return None
        b = right()
        return None if b is None else (a, b)

    def object_ref(self) -> Token | None:
        return self.ident("object")

    def category_decl(self):
        kw = self.next()
        name = self.ident("category name")
        if name is None or not self.block_open():
            return None
        d = CategoryDecl(name.text, kw.line, kw.col)
        self.block("category", {
            "objects": lambda: self.listing(self.object_entry, d.objects),
            "generators": lambda: self.listing(self.generator_entry, d.generators),
            "relations": lambda: self.relations(d),
            "close": lambda: self.close(d),
        })
        return d

    def object_entry(self):
        o = self.ident("object name")
        return None if o is None else (o.text, o.line, o.col)

    def generator_entry(self):
        g = self.ident("generator name")
        if g is None or self.expect(":") is None:
            return None
        ends = self.arrow(self.object_ref, self.object_ref)
        return None if ends is None else (g.text, ends[0].text, ends[1].text, g.line, g.col)

    def relations(self, d: CategoryDecl) -> None:
        self.expect(":")
        # one or more `word = word ;` until the next keyword or '}'
        while self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
            start = self.peek()
            lhs = self.word()
            if lhs is None or self.expect("=") is None:
                self.skip_to({";", "}"})
            else:
                rhs = self.word()
                if rhs is not None:
                    d.relations.append((lhs, rhs, start.line, start.col))
                else:
                    self.skip_to({";", "}"})
            if self.peek().text == ";":
                self.next()
            else:
                break

    def close(self, d: CategoryDecl) -> None:
        self.expect(":")
        v = self.peek()
        if v.kind == "int":
            self.next()
            d.close = int(v.text)
        else:
            self.error("expected an integer bound")
            self.skip_to({";", "}"})
        if self.peek().text == ";":
            self.next()

    def functor_decl(self):
        kw = self.next()
        name = self.ident("functor name")
        if name is None or self.expect(":") is None:
            self.skip_to(DECLARATIONS)
            return None
        src = self.ident("source category")
        if src is None or self.expect("->") is None:
            self.skip_to(DECLARATIONS)
            return None
        tgt = self.ident("target category")
        if tgt is None or not self.block_open():
            return None
        d = FunctorDecl(name.text, src.text, tgt.text, kw.line, kw.col,
                        (src.line, src.col), (tgt.line, tgt.col))
        self.block("functor", {
            "objects": lambda: self.listing(self.object_map_entry, d.objects),
            "morphisms": lambda: self.listing(self.morphism_map_entry, d.morphisms),
        })
        return d

    def object_map_entry(self):
        ends = self.arrow(self.object_ref, self.object_ref)
        return None if ends is None else (ends[0].text, ends[1].text, ends[0].line, ends[0].col)

    def morphism_map_entry(self):
        start = self.peek()
        ends = self.arrow(self.word, self.word)
        return None if ends is None else (*ends, start.line, start.col)

    def presheaf_decl(self):
        kw = self.next()
        name = self.ident("presheaf name")
        if name is None or self.expect("on") is None:
            self.skip_to(DECLARATIONS)
            return None
        base = self.ident("base category")
        if base is None or not self.block_open():
            return None
        d = PresheafDecl(name.text, base.text, kw.line, kw.col, (base.line, base.col))
        self.block("presheaf", {"at": lambda: self.at_clause(d),
                                "act": lambda: self.act_clause(d)})
        return d

    def at_clause(self, d: PresheafDecl) -> None:
        o = self.ident("object")
        if o is None or self.expect(":") is None:
            self.skip_to({";", "}"})
        else:
            elems = []
            while self.peek().kind == "ident":
                elems.append(self.next().text)
                if self.peek().text == ",":
                    self.next()
                else:
                    break
            d.at.append((o.text, elems, o.line, o.col))
        if self.peek().text == ";":
            self.next()

    def act_clause(self, d: PresheafDecl) -> None:
        start = self.peek()
        w = self.word()
        if w is None or self.expect(":") is None:
            self.skip_to({";", "}"})
        else:
            pairs = []
            while self.peek().kind == "ident":
                xy = self.arrow(self.next, lambda: self.ident("element"))
                if xy is None:
                    break
                pairs.append((xy[0].text, xy[1].text))
                if self.peek().text == ",":
                    self.next()
                else:
                    break
            d.act.append((w, pairs, start.line, start.col))
        if self.peek().text == ";":
            self.next()

    def reflection_decl(self):
        kw = self.next()
        name = self.ident("reflection name")
        if name is None or not self.block_open():
            return None
        d = ReflectionDecl(name.text, kw.line, kw.col)
        self.block("reflection", {
            "L": lambda: self.functor_ref(d, "L"),
            "F": lambda: self.functor_ref(d, "F"),
            "unit": lambda: self.listing(self.unit_entry, d.unit),
        })
        return d

    def functor_ref(self, d: ReflectionDecl, which: str) -> None:
        self.expect(":")
        v = self.ident("functor name")
        if v is not None:
            setattr(d, which, v.text)
            setattr(d, f"{which}_span", (v.line, v.col))
        if self.peek().text == ";":
            self.next()

    def unit_entry(self):
        ends = self.arrow(self.object_ref, self.word)
        return None if ends is None else (ends[0].text, ends[1], ends[0].line, ends[0].col)


def parse(text: str) -> SpecAST:
    """Parse a document; diagnostics are collected, never raised."""
    try:
        toks, diags = tokenize(text)
        return _Parser(toks, diags).document()
    except RecursionError:
        ast = SpecAST()
        ast.diagnostics = [Diagnostic("SyntaxError", "input too deeply nested", 1, 1)]
        return ast


# ---------------------------------------------------------------------------
# resolution


@dataclass
class Resolved:
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)
    reflections: dict = field(default_factory=dict)


def _resolve_word(C: FinCategory, word, diags, line, col) -> str | None:
    """A word resolves to the composite morphism name, right-first."""
    if word[0] == "id":
        obj = word[1]
        if obj not in C.identity:
            diags.append(Diagnostic("UnresolvedIdentifier", f"unknown object {obj!r}", line, col))
            return None
        return C.identity[obj]
    m = None
    for part in reversed(word):
        if part not in C.dom:
            diags.append(Diagnostic("UnresolvedIdentifier", f"unknown morphism {part!r}", line, col))
            return None
        if m is None:
            m = part
        else:
            if C.dom[part] != C.cod[m]:
                diags.append(Diagnostic("UnresolvedIdentifier",
                                        f"word {'.'.join(word)} is not composable", line, col))
                return None
            m = C.comp[(part, m)]
    return m


def _derived_action(C: FinCategory, m: str, act: dict) -> FinFn | None:
    """Action of a dotted composite from its generators' actions."""
    parts = m.split(".")
    if len(parts) < 2 or any(p not in act for p in parts):
        return None
    fn = act[parts[0]]
    for p in parts[1:]:
        fn = fn.then(act[p])
    return fn


def resolve(ast: SpecAST) -> tuple[Resolved, list]:
    out = Resolved()
    diags = list(ast.diagnostics)
    names: dict = {}
    for d in ast.decls:
        if d.name in names:
            diags.append(Diagnostic("DuplicateDefinition",
                                    f"{d.name!r} already defined", d.line, d.col))
            continue
        names[d.name] = d
        if isinstance(d, CategoryDecl):
            _resolve_category(d, out, diags)
        elif isinstance(d, FunctorDecl):
            _resolve_functor(d, out, diags)
        elif isinstance(d, PresheafDecl):
            _resolve_presheaf(d, out, diags)
        elif isinstance(d, ReflectionDecl):
            _resolve_reflection(d, out, diags)
    return out, diags


def _resolve_category(d: CategoryDecl, out: Resolved, diags):
    objs = [o for o, _, _ in d.objects]
    seen = set()
    for o, ln, co in d.objects:
        if o in seen:
            diags.append(Diagnostic("DuplicateDefinition", f"object {o!r} repeated", ln, co))
            return
        seen.add(o)
    if not objs:
        diags.append(Diagnostic("SyntaxError", "category needs at least one object", d.line, d.col))
        return
    gens = []
    for g, a, b, ln, co in d.generators:
        for end in (a, b):
            if end not in seen:
                diags.append(Diagnostic("UnresolvedIdentifier", f"unknown object {end!r}", ln, co))
                return
        gens.append((g, a, b))
    rels = []
    for lhs, rhs, ln, co in d.relations:
        sides = []
        for side in (lhs, rhs):
            if side[0] == "id" and len(side) == 2 and side[1] in seen:
                sides.append(())
            elif side[0] == "id" and len(side) == 2:
                diags.append(Diagnostic("UnresolvedIdentifier", f"unknown object {side[1]!r}", ln, co))
                return
            else:
                for part in side:
                    if part not in {g for g, _, _ in gens}:
                        diags.append(Diagnostic("UnresolvedIdentifier",
                                                f"unknown generator {part!r}", ln, co))
                        return
                sides.append(tuple(side))
        rels.append((sides[0], sides[1]))
    try:
        if d.close is not None:
            C = saturate_category(objs, gens, rels, bound=d.close)
        else:
            C = saturate_category(objs, gens, rels)
    except (InvalidStructure, SaturationOverflow) as e:
        diags.append(Diagnostic("SyntaxError", f"category {d.name!r}: {e}", d.line, d.col))
        return
    out.categories[d.name] = C


def _resolve_functor(d: FunctorDecl, out: Resolved, diags):
    src = out.categories.get(d.source)
    if src is None:
        diags.append(Diagnostic("UnresolvedIdentifier",
                                f"unknown category {d.source!r}", *d.src_span))
        return
    tgt = out.categories.get(d.target)
    if tgt is None:
        diags.append(Diagnostic("UnresolvedIdentifier",
                                f"unknown category {d.target!r}", *d.tgt_span))
        return
    obj_map = {}
    for x, y, ln, co in d.objects:
        if x not in src.identity:
            diags.append(Diagnostic("UnresolvedIdentifier", f"unknown object {x!r}", ln, co))
            return
        if y not in tgt.identity:
            diags.append(Diagnostic("UnresolvedIdentifier", f"unknown object {y!r}", ln, co))
            return
        obj_map[x] = y
    missing = [o for o in src.objects if o not in obj_map]
    if missing:
        diags.append(Diagnostic("SyntaxError",
                                f"functor {d.name!r} misses objects {missing}", d.line, d.col))
        return
    mor_map = {src.identity[o]: tgt.identity[obj_map[o]] for o in src.objects}
    for w1, w2, ln, co in d.morphisms:
        m1 = _resolve_word(src, w1, diags, ln, co)
        m2 = _resolve_word(tgt, w2, diags, ln, co)
        if m1 is None or m2 is None:
            return
        mor_map[m1] = m2
    # complete dotted composites from their generator images
    changed = True
    while changed:
        changed = False
        for m in src.morphisms:
            if m in mor_map:
                continue
            parts = m.split(".")
            if len(parts) >= 2 and all(p in mor_map for p in parts):
                img = mor_map[parts[-1]]
                for p in reversed(parts[:-1]):
                    img = tgt.comp[(mor_map[p], img)]
                mor_map[m] = img
                changed = True
    missing = [m for m in src.morphisms if m not in mor_map]
    if missing:
        diags.append(Diagnostic("SyntaxError",
                                f"functor {d.name!r} misses morphisms {missing}", d.line, d.col))
        return
    F = FinFunctor(src, tgt, obj_map, mor_map)
    bad = F.violations()
    if bad:
        diags.append(Diagnostic("SyntaxError",
                                f"functor {d.name!r}: {'; '.join(v.detail for v in bad)}",
                                d.line, d.col))
        return
    out.functors[d.name] = F


def _resolve_presheaf(d: PresheafDecl, out: Resolved, diags):
    base = out.categories.get(d.base)
    if base is None:
        diags.append(Diagnostic("UnresolvedIdentifier",
                                f"unknown category {d.base!r}", *d.base_span))
        return
    at = {}
    for o, elems, ln, co in d.at:
        if o not in base.identity:
            diags.append(Diagnostic("UnresolvedIdentifier", f"unknown object {o!r}", ln, co))
            return
        if o in at:
            diags.append(Diagnostic("DuplicateDefinition", f"at {o!r} repeated", ln, co))
            return
        if len(set(elems)) != len(elems):
            diags.append(Diagnostic("DuplicateDefinition", f"repeated element at {o!r}", ln, co))
            return
        at[o] = FinSet.of(elems)
    for o in base.objects:
        at.setdefault(o, FinSet.of([]))
    act = {}
    for w, pairs, ln, co in d.act:
        m = _resolve_word(base, w, diags, ln, co)
        if m is None:
            return
        table = dict(pairs)
        try:
            act[m] = FinFn.of(at[base.cod[m]], at[base.dom[m]], table)
        except InvalidStructure as e:
            diags.append(Diagnostic("UnresolvedIdentifier", f"act {m}: {e}", ln, co))
            return
    # identities and derivable dotted composites are filled in
    for o in base.objects:
        act.setdefault(base.identity[o], FinFn.identity(at[o]))
    changed = True
    while changed:
        changed = False
        for m in base.morphisms:
            if m not in act:
                fn = _derived_action(base, m, act)
                if fn is not None:
                    act[m] = fn
                    changed = True
    for m in base.morphisms:
        # actions out of an empty value set need no table
        if m not in act and len(at[base.cod[m]]) == 0:
            act[m] = FinFn.of(at[base.cod[m]], at[base.dom[m]], {})
    missing = [m for m in base.morphisms if m not in act]
    if missing:
        diags.append(Diagnostic("SyntaxError",
                                f"presheaf {d.name!r} misses actions {missing}", d.line, d.col))
        return
    try:
        out.presheaves[d.name] = Presheaf.of(base, at, act)
    except InvalidStructure as e:
        diags.append(Diagnostic("SyntaxError", f"presheaf {d.name!r}: {e}", d.line, d.col))


def _resolve_reflection(d: ReflectionDecl, out: Resolved, diags):
    if d.L is None or d.F is None:
        diags.append(Diagnostic("SyntaxError",
                                f"reflection {d.name!r} needs both L and F", d.line, d.col))
        return
    L = out.functors.get(d.L)
    if L is None:
        diags.append(Diagnostic("UnresolvedIdentifier", f"unknown functor {d.L!r}", *d.L_span))
        return
    F = out.functors.get(d.F)
    if F is None:
        diags.append(Diagnostic("UnresolvedIdentifier", f"unknown functor {d.F!r}", *d.F_span))
        return
    comps = {}
    for o, w, ln, co in d.unit:
        if o not in L.source.identity:
            diags.append(Diagnostic("UnresolvedIdentifier", f"unknown object {o!r}", ln, co))
            return
        m = _resolve_word(L.source, w, diags, ln, co)
        if m is None:
            return
        comps[o] = m
    try:
        unit = FinNatTrans(FinFunctor.identity(L.source), L.then(F), comps).validate()
        out.reflections[d.name] = Reflection(L, F, unit).validate()
    except (InvalidStructure, ShapeMismatch) as e:
        diags.append(Diagnostic("SyntaxError", f"reflection {d.name!r}: {e}", d.line, d.col))


def load(text: str) -> Resolved:
    """Parse + resolve; raises SpecError on any diagnostic."""
    ast = parse(text)
    resolved, diags = resolve(ast)
    if diags:
        raise SpecError(diags)
    return resolved


# ---------------------------------------------------------------------------
# serialization (canonical; parse o serialize is a fixed point)


def serialize_category(name: str, C: FinCategory) -> str:
    gens = [m for m in C.morphisms
            if "." not in m and m not in set(C.identity.values())]
    gen_set = set(gens)
    for m in C.morphisms:
        if m in set(C.identity.values()):
            continue
        if any(p not in gen_set for p in m.split(".")):
            raise ShapeMismatch(
                f"category {name!r} has morphism {m!r} not expressible over dot-free generators")
    lines = [f"category {name} {{"]
    lines.append("  objects: " + ", ".join(C.objects) + ";")
    if gens:
        lines.append("  generators: " +
                     ", ".join(f"{g} : {C.dom[g]} -> {C.cod[g]}" for g in gens) + ";")
    rels = []
    ids = set(C.identity.values())
    for (g, f), h in sorted(C.comp.items()):
        if g in ids or f in ids:
            continue
        rhs = f"id({C.dom[h]})" if h in ids else h
        rels.append(f"{g}.{f} = {rhs};")
    if rels:
        lines.append("  relations: " + " ".join(rels))
    lines.append(f"  close: {max(len(C.morphisms), 2)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_functor(name: str, F: FinFunctor, src_name: str, tgt_name: str) -> str:
    gens = [m for m in F.source.morphisms
            if "." not in m and m not in set(F.source.identity.values())]
    lines = [f"functor {name} : {src_name} -> {tgt_name} {{"]
    lines.append("  objects: " +
                 ", ".join(f"{o} -> {F.obj_map[o]}" for o in F.source.objects) + ";")
    if gens:
        lines.append("  morphisms: " +
                     ", ".join(f"{g} -> {_functor_image(F, g)}" for g in gens) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _functor_image(F: FinFunctor, m: str) -> str:
    img = F.mor_map[m]
    ids = set(F.target.identity.values())
    if img in ids:
        return f"id({F.target.dom[img]})"
    return img


def element_names(X: Presheaf) -> dict:
    """Canonical printable names per element: identifier strings are kept,
    everything else becomes e00, e01, ... in canonical order (zero-padded so
    lexicographic equals numeric order)."""
    names = {}
    for o in X.base.objects:
        elems = list(X.at[o])
        keep = all(isinstance(x, str) and IDENT_RE.fullmatch(x)
                   and x not in KEYWORDS and x != "id" for x in elems)
        if keep and len(set(elems)) == len(elems):
            names[o] = {x: x for x in elems}
        else:
            width = max(2, len(str(max(len(elems) - 1, 0))))
            names[o] = {x: f"e{i:0{width}d}" for i, x in enumerate(elems)}
    return names


def serialize_presheaf(name: str, X: Presheaf, base_name: str) -> str:
    names = element_names(X)
    C = X.base
    lines = [f"presheaf {name} on {base_name} {{"]
    for o in C.objects:
        if len(X.at[o]):
            lines.append(f"  at {o}: " + ", ".join(names[o][x] for x in X.at[o]) + ";")
    ids = set(C.identity.values())
    for m in C.morphisms:
        if m in ids or "." in m:
            continue
        c, dm = C.cod[m], C.dom[m]
        if len(X.at[c]):
            pairs = ", ".join(f"{names[c][x]} -> {names[dm][X.act[m](x)]}" for x in X.at[c])
            lines.append(f"  act {m}: {pairs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_reflection(name: str, R: Reflection, L_name: str, F_name: str) -> str:
    lines = [f"reflection {name} {{"]
    lines.append(f"  L: {L_name};")
    lines.append(f"  F: {F_name};")
    B = R.B
    ids = set(B.identity.values())
    comps = []
    for o in B.objects:
        u = R.unit.components[o]
        comps.append(f"{o} -> " + (f"id({B.dom[u]})" if u in ids else u))
    lines.append("  unit: " + ", ".join(comps) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
