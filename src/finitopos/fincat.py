"""Finite categories, functors, natural transformations, reflections.

Categories carry total composition tables.  `compose(g, f)` is g after f,
written `g.f` throughout; identifiers are strings and every canonical order
is lexicographic, so minimal witnesses are machine-independent.

Constructors build without checking.  `build_category`, `saturate_category`
and the `validate()` methods check, and only code that takes outside input
calls them: the DSL resolver, the JSON readers, the fixtures and witness
replay.  Derived categories (`opposite`, `poset_category`,
`comma_from_object`, categories of elements) are built directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidStructure, NonUnique, SaturationOverflow, ShapeMismatch
from .verdicts import FAIL, PASS, Verdict

# ---------------------------------------------------------------------------
# violations


@dataclass(frozen=True)
class Violation:
    kind: str  # MissingComposite | BrokenIdentity | BrokenAssociativity | DanglingReference
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


# ---------------------------------------------------------------------------
# categories


class FinCategory:
    """Immutable after construction.  The constructor does not check the
    axioms; `validate()` (or `build_category`) does."""

    def __init__(self, objects, morphisms, dom, cod, identity, comp):
        self.objects = tuple(sorted(objects))
        self.morphisms = tuple(sorted(morphisms))
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.identity = dict(identity)
        self.comp = dict(comp)
        self._hom: dict | None = None

    def compose(self, g: str, f: str) -> str:
        """g.f, defined exactly when cod(f) = dom(g)."""
        return self.comp[(g, f)]

    def hom(self, a: str, b: str) -> tuple:
        if self._hom is None:
            table: dict = {(x, y): [] for x in self.objects for y in self.objects}
            for m in self.morphisms:
                table[(self.dom[m], self.cod[m])].append(m)
            self._hom = {k: tuple(sorted(v)) for k, v in table.items()}
        return self._hom[(a, b)]

    def is_identity(self, m: str) -> bool:
        return m in set(self.identity.values())

    def violations(self) -> list[Violation]:
        out: list[Violation] = []
        objs, mors = set(self.objects), set(self.morphisms)
        for m in self.morphisms:
            if self.dom.get(m) not in objs or self.cod.get(m) not in objs:
                out.append(Violation("DanglingReference", f"morphism {m} has undeclared endpoint"))
        for o in self.objects:
            i = self.identity.get(o)
            if i not in mors:
                out.append(Violation("DanglingReference", f"identity of {o} undeclared"))
            elif self.dom[i] != o or self.cod[i] != o:
                out.append(Violation("BrokenIdentity", f"identity of {o} is not an endomorphism"))
        if out:
            return out
        for g in self.morphisms:
            for f in self.morphisms:
                if self.cod[f] == self.dom[g]:
                    gf = self.comp.get((g, f))
                    if gf is None:
                        out.append(Violation("MissingComposite", f"({g}, {f})"))
                    elif gf not in mors:
                        out.append(Violation("DanglingReference", f"composite {g}.{f} = {gf} undeclared"))
                    elif self.dom[gf] != self.dom[f] or self.cod[gf] != self.cod[g]:
                        out.append(Violation("MissingComposite", f"composite {g}.{f} has wrong endpoints"))
                elif (g, f) in self.comp:
                    out.append(Violation("MissingComposite", f"({g}, {f}) declared but not composable"))
        if out:
            return out
        for f in self.morphisms:
            if self.comp[(self.identity[self.cod[f]], f)] != f:
                out.append(Violation("BrokenIdentity", f"id.{f} != {f}"))
            if self.comp[(f, self.identity[self.dom[f]])] != f:
                out.append(Violation("BrokenIdentity", f"{f}.id != {f}"))
        for h in self.morphisms:
            for g in self.morphisms:
                if self.cod[g] != self.dom[h]:
                    continue
                for f in self.morphisms:
                    if self.cod[f] != self.dom[g]:
                        continue
                    if self.comp[(h, self.comp[(g, f)])] != self.comp[(self.comp[(h, g)], f)]:
                        out.append(Violation("BrokenAssociativity", f"({h}, {g}, {f})"))
        return out

    def validate(self) -> "FinCategory":
        bad = self.violations()
        if bad:
            raise InvalidStructure(bad)
        return self

    def encoding(self) -> tuple:
        """Structural fingerprint; equal encodings mean equal presentations."""
        return (
            self.objects,
            tuple((m, self.dom[m], self.cod[m]) for m in self.morphisms),
            tuple(sorted(self.identity.items())),
            tuple(sorted(self.comp.items())),
        )

    def __eq__(self, other):
        return self is other or (isinstance(other, FinCategory)
                                 and self.encoding() == other.encoding())

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


def build_category(objects, morphisms, dom, cod, identity, comp) -> FinCategory:
    return FinCategory(objects, morphisms, dom, cod, identity, comp).validate()


# ---------------------------------------------------------------------------
# saturation from generators + relations (bounded; avoids the word problem)

DEFAULT_MORPHISM_BOUND = 512


def saturate_category(objects, generators, relations, bound: int = DEFAULT_MORPHISM_BOUND) -> FinCategory:
    """Close generators under composition modulo relations.

    generators: list of (name, dom, cod).  relations: list of (lhs, rhs) where
    each side is a tuple of generator names, applied right-first (g, f) = g.f;
    the empty tuple denotes an identity.  Fails loudly if the closure exceeds
    `bound` morphisms.  A presentation is outside input (the DSL, the
    fixtures), so the closure is validated.
    """
    gdom = {n: d for n, d, _ in generators}
    gcod = {n: c for n, _, c in generators}
    for n in gdom:
        if gdom[n] not in objects or gcod[n] not in objects:
            raise InvalidStructure([Violation("DanglingReference", f"generator {n}")])

    def word_dom(w, fallback=None):
        return gdom[w[-1]] if w else fallback

    def word_cod(w, fallback=None):
        return gcod[w[0]] if w else fallback

    # normalize relations: attach the object to identity sides
    rels = []
    for lhs, rhs in relations:
        anchor = word_dom(lhs) or word_dom(rhs)
        if lhs and rhs:
            if word_dom(lhs) != word_dom(rhs) or word_cod(lhs) != word_cod(rhs):
                raise InvalidStructure([Violation("DanglingReference", f"relation {lhs} = {rhs} not parallel")])
        rels.append((lhs, rhs, anchor))

    max_rel = max([2] + [len(l) for l, r, _ in rels] + [len(r) for l, r, _ in rels])
    lmax = 2 * max_rel

    while True:
        words = _saturate_words(objects, gdom, gcod, rels, lmax, bound)
        if words is not None:
            return words
        lmax *= 2
        if lmax > 64:
            raise SaturationOverflow(f"no stable closure within word length {lmax}")


def _saturate_words(objects, gdom, gcod, rels, lmax, bound):
    from .finset import UnionFind

    def wdom(w, anchor=None):
        return gdom[w[-1]] if w else anchor

    def wcod(w, anchor=None):
        return gcod[w[0]] if w else anchor

    # all composable words up to lmax; identities are ("", obj) sentinels
    words = {("", o) for o in objects}
    frontier = [(g,) for g in gdom]
    words |= {(w, wdom(w)) for w in frontier}
    level = [(g,) for g in gdom]
    for _ in range(lmax - 1):
        nxt = []
        for w in level:
            for g in gdom:
                if gdom[g] == wcod(w):
                    w2 = (g,) + w
                    key = (w2, wdom(w2))
                    if key not in words:
                        words.add(key)
                        nxt.append(w2)
        level = nxt
        if len(words) > 200000:
            raise SaturationOverflow("word explosion during saturation")

    uf = UnionFind(words)

    def substitute(w, obj):
        """All one-step rewrites of word w (a tuple; () handled separately)."""
        out = []
        for lhs, rhs, anchor in rels:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if not a:
                    continue  # identity on the left side handled via b occurrences
                n = len(a)
                for i in range(len(w) - n + 1):
                    if w[i:i + n] == a:
                        w2 = w[:i] + b + w[i + n:]
                        out.append(w2)
        return out

    changed = True
    while changed:
        changed = False
        items = list(uf.parent.keys())
        for (w, obj) in items:
            if w == "":
                continue
            for w2 in substitute(w, obj):
                if not w2:
                    key2 = ("", obj)
                else:
                    key2 = (w2, obj)
                    if len(w2) > lmax or key2 not in uf.parent:
                        continue
                if uf.find((w, obj)) != uf.find(key2):
                    uf.union((w, obj), key2)
                    changed = True

    # classes and representatives: shortest word, ties lexicographic
    classes: dict = {}
    for key in uf.parent:
        root = uf.find(key)
        classes.setdefault(root, []).append(key)

    def rep(keys):
        def rk(key):
            w, obj = key
            if w == "":
                return (0, (), obj)
            return (len(w), w, obj)
        return min(keys, key=rk)

    reps = {root: rep(keys) for root, keys in classes.items()}
    if len(reps) > bound:
        raise SaturationOverflow(f"closure has {len(reps)} morphisms, bound {bound}")

    cls_of = {key: root for root, keys in classes.items() for key in keys}

    def name_of(root):
        w, obj = reps[root]
        if w == "":
            return f"id({obj})"
        return ".".join(w)

    morphisms, dom, cod, identity = [], {}, {}, {}
    for root in reps:
        w, obj = reps[root]
        n = name_of(root)
        morphisms.append(n)
        if w == "":
            dom[n] = cod[n] = obj
            identity[obj] = n
        else:
            dom[n] = gdom[w[-1]]
            cod[n] = gcod[w[0]]
    name_by_root = {root: name_of(root) for root in reps}

    comp = {}
    for r2 in reps:  # g
        for r1 in reps:  # f
            w2, o2 = reps[r2]
            w1, o1 = reps[r1]
            gname, fname = name_by_root[r2], name_by_root[r1]
            if cod[fname] != dom[gname]:
                continue
            ww2 = () if w2 == "" else w2
            ww1 = () if w1 == "" else w1
            cat_word = ww2 + ww1
            if not cat_word:
                key = ("", o1)
            else:
                key = (cat_word, dom[fname])
                if len(cat_word) > lmax or key not in cls_of:
                    return None  # need longer words
            comp[(gname, fname)] = name_by_root[cls_of[key]]

    return build_category(objects, morphisms, dom, cod, identity, comp)


# ---------------------------------------------------------------------------
# derived categories


def opposite(C: FinCategory) -> FinCategory:
    comp = {(f, g): h for (g, f), h in C.comp.items()}
    return FinCategory(C.objects, C.morphisms, C.cod, C.dom, C.identity, comp)


def terminal_category() -> FinCategory:
    return FinCategory(["pt"], ["id(pt)"], {"id(pt)": "pt"}, {"id(pt)": "pt"},
                       {"pt": "id(pt)"}, {("id(pt)", "id(pt)"): "id(pt)"})


def poset_category(elements, leq) -> FinCategory:
    """Thin category of a preorder; morphism x->y named m_x_y when x != y."""
    objects = sorted(elements)
    morphisms, dom, cod, identity, comp = [], {}, {}, {}, {}

    def name(x, y):
        return f"id({x})" if x == y else f"m_{x}_{y}"

    pairs = [(x, y) for x in objects for y in objects if leq(x, y)]
    for x, y in pairs:
        n = name(x, y)
        morphisms.append(n)
        dom[n], cod[n] = x, y
        if x == y:
            identity[x] = n
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y:
                comp[(name(y, z), name(x, y))] = name(x, z)
    return FinCategory(objects, morphisms, dom, cod, identity, comp)


def comma_from_object(a: str, L: "FinFunctor") -> tuple[FinCategory, dict]:
    """(a / L): objects (b, phi: a -> L b); returns (category, obj-id -> (b, phi))."""
    B, A = L.source, L.target
    objs = []
    decode = {}
    for b in B.objects:
        for phi in A.hom(a, L.obj_map[b]):
            oid = f"{b}|{phi}"
            objs.append(oid)
            decode[oid] = (b, phi)
    morphisms, dom, cod, identity, comp = [], {}, {}, {}, {}
    tri = []

    def mname(beta, o1, o2):
        return f"{beta}[{o1}>{o2}]"

    for o1 in objs:
        b1, p1 = decode[o1]
        for o2 in objs:
            b2, p2 = decode[o2]
            for beta in B.hom(b1, b2):
                if A.compose(L.mor_map[beta], p1) == p2:
                    n = mname(beta, o1, o2)
                    morphisms.append(n)
                    dom[n], cod[n] = o1, o2
                    tri.append((beta, o1, o2, n))
                    if o1 == o2 and B.is_identity(beta):
                        identity[o1] = n
    bykey = {(beta, o1, o2): n for beta, o1, o2, n in tri}
    for b1_, o1, o2, n1 in tri:
        for b2_, o2b, o3, n2 in tri:
            if o2b == o2:
                comp[(n2, n1)] = bykey[(L.source.compose(b2_, b1_), o1, o3)]
    return FinCategory(objs, morphisms, dom, cod, identity, comp), decode


# ---------------------------------------------------------------------------
# functors, natural transformations


class FinFunctor:
    def __init__(self, source: FinCategory, target: FinCategory, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)

    def violations(self) -> list[Violation]:
        out = []
        S, T = self.source, self.target
        for o in S.objects:
            if self.obj_map.get(o) not in set(T.objects):
                out.append(Violation("DanglingReference", f"object {o} unmapped or mapped outside target"))
        for m in S.morphisms:
            if self.mor_map.get(m) not in set(T.morphisms):
                out.append(Violation("DanglingReference", f"morphism {m} unmapped or mapped outside target"))
        if out:
            return out
        for m in S.morphisms:
            fm = self.mor_map[m]
            if T.dom[fm] != self.obj_map[S.dom[m]] or T.cod[fm] != self.obj_map[S.cod[m]]:
                out.append(Violation("DanglingReference", f"morphism {m} image has wrong endpoints"))
        if out:
            # endpoint mismatches make image composites undefined; stop here
            return out
        for o in S.objects:
            if self.mor_map[S.identity[o]] != T.identity[self.obj_map[o]]:
                out.append(Violation("BrokenIdentity", f"functor breaks identity at {o}"))
        for (g, f), gf in S.comp.items():
            if T.compose(self.mor_map[g], self.mor_map[f]) != self.mor_map[gf]:
                out.append(Violation("BrokenAssociativity", f"functor breaks composite {g}.{f}"))
        return out

    def validate(self) -> "FinFunctor":
        bad = self.violations()
        if bad:
            raise InvalidStructure(bad)
        return self

    def then(self, other: "FinFunctor") -> "FinFunctor":
        """self followed by other."""
        if other.source is not self.target and other.source != self.target:
            raise ShapeMismatch("functor composition shape mismatch")
        return FinFunctor(
            self.source, other.target,
            {o: other.obj_map[self.obj_map[o]] for o in self.source.objects},
            {m: other.mor_map[self.mor_map[m]] for m in self.source.morphisms},
        )

    @staticmethod
    def identity(C: FinCategory) -> "FinFunctor":
        return FinFunctor(C, C, {o: o for o in C.objects}, {m: m for m in C.morphisms})

    def encoding(self):
        return (tuple(sorted(self.obj_map.items())), tuple(sorted(self.mor_map.items())))

    def __eq__(self, other):
        return (isinstance(other, FinFunctor) and self.source == other.source
                and self.target == other.target and self.encoding() == other.encoding())

    def __hash__(self):
        return hash(self.encoding())

    def is_fully_faithful(self) -> bool:
        S, T = self.source, self.target
        for a in S.objects:
            for b in S.objects:
                imgs = [self.mor_map[m] for m in S.hom(a, b)]
                if len(set(imgs)) != len(imgs):
                    return False
                if set(imgs) != set(T.hom(self.obj_map[a], self.obj_map[b])):
                    return False
        return True


class FinNatTrans:
    def __init__(self, source: FinFunctor, target: FinFunctor, components):
        self.source = source
        self.target = target
        self.components = dict(components)

    def violations(self) -> list[Violation]:
        out = []
        F, G = self.source, self.target
        if F.source != G.source or F.target != G.target:
            return [Violation("DanglingReference", "functors not parallel")]
        S, T = F.source, F.target
        for o in S.objects:
            c = self.components.get(o)
            if c not in set(T.morphisms):
                out.append(Violation("DanglingReference", f"component at {o} missing"))
            elif T.dom[c] != F.obj_map[o] or T.cod[c] != G.obj_map[o]:
                out.append(Violation("DanglingReference", f"component at {o} has wrong endpoints"))
        if out:
            return out
        for m in S.morphisms:
            x, y = S.dom[m], S.cod[m]
            lhs = T.compose(G.mor_map[m], self.components[x])
            rhs = T.compose(self.components[y], F.mor_map[m])
            if lhs != rhs:
                out.append(Violation("BrokenAssociativity", f"naturality fails at {m}"))
        return out

    def validate(self) -> "FinNatTrans":
        bad = self.violations()
        if bad:
            raise InvalidStructure(bad)
        return self


# ---------------------------------------------------------------------------
# universal constructions inside a finite category (exhaustive search)


def find_inverse(C: FinCategory, m: str) -> str | None:
    for w in C.hom(C.cod[m], C.dom[m]):
        if C.compose(w, m) == C.identity[C.dom[m]] and C.compose(m, w) == C.identity[C.cod[m]]:
            return w
    return None


def terminal_object(C: FinCategory) -> str | None:
    for t in C.objects:
        if all(len(C.hom(x, t)) == 1 for x in C.objects):
            return t
    return None


def mediators(C: FinCategory, z: str, apex: str, legs: tuple, cone: tuple) -> list:
    """The h: z -> apex with legs[i].h = cone[i] for each i, in hom order."""
    return [h for h in C.hom(z, apex)
            if all(C.compose(leg, h) == m for leg, m in zip(legs, cone))]


def first_bad_cone(C: FinCategory, apex: str, legs: tuple, cospan: tuple | None = None):
    """None if apex --legs--> (X, Y) is a product cone, or with a cospan
    (f, g) a pullback cone; else (z, m1, m2, count) for the first test cone
    z --(m1, m2)--> (X, Y), commuting over the cospan if one is given, that
    has count != 1 mediators.  Test cones come z, then m1, then m2."""
    x, y = C.cod[legs[0]], C.cod[legs[1]]
    for z in C.objects:
        for m1 in C.hom(z, x):
            for m2 in C.hom(z, y):
                if cospan is not None and C.compose(cospan[0], m1) != C.compose(cospan[1], m2):
                    continue
                n = len(mediators(C, z, apex, legs, (m1, m2)))
                if n != 1:
                    return z, m1, m2, n
    return None


def binary_product(C: FinCategory, x: str, y: str):
    """Least-named product cone (p, pi1, pi2) or None."""
    for p in C.objects:
        for pi1 in C.hom(p, x):
            for pi2 in C.hom(p, y):
                if first_bad_cone(C, p, (pi1, pi2)) is None:
                    return p, pi1, pi2
    return None


def pullback(C: FinCategory, f: str, g: str):
    """Canonical pullback of the cospan f: X -> Z <- Y :g, or None.

    Returns (p, p1: p -> X, p2: p -> Y) with f.p1 = g.p2, least in
    lexicographic (p, p1, p2) order among limiting cones.
    """
    if C.cod[f] != C.cod[g]:
        raise ShapeMismatch("pullback requires a cospan")
    x, y = C.dom[f], C.dom[g]
    for p in C.objects:
        for p1 in C.hom(p, x):
            for p2 in C.hom(p, y):
                if (C.compose(f, p1) == C.compose(g, p2)
                        and first_bad_cone(C, p, (p1, p2), (f, g)) is None):
                    return p, p1, p2
    return None


def exponential_object(C: FinCategory, base: str, exp: str):
    """Exponential exp^base: (E, ev: E x base -> exp) with currying universal
    property, or None.  Requires the needed binary products to exist."""
    for e in C.objects:
        pe = binary_product(C, e, base)
        if pe is None:
            continue
        p, pi1, pi2 = pe
        for ev in C.hom(p, exp):
            if _exponential_ok(C, base, exp, e, p, pi1, pi2, ev):
                return e, ev
    return None


def _exponential_ok(C, base, exp, e, p, pi1, pi2, ev) -> bool:
    for z in C.objects:
        pz = binary_product(C, z, base)
        if pz is None:
            return False
        q, q1, q2 = pz
        # lam x id : q -> p for each lam: z -> e, the one mediator of
        # (lam.q1, q2), since p is a product
        meds = [mediators(C, q, p, (pi1, pi2), (C.compose(lam, q1), q2))[0]
                for lam in C.hom(z, e)]
        for m in C.hom(q, exp):
            if sum(C.compose(ev, h) == m for h in meds) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# reflections


class Reflection:
    """L -| F with F full and faithful; unit: Id_B => F.L."""

    def __init__(self, L: FinFunctor, F: FinFunctor, unit: FinNatTrans):
        self.L = L
        self.F = F
        self.unit = unit

    @property
    def B(self) -> FinCategory:
        return self.L.source

    @property
    def A(self) -> FinCategory:
        return self.L.target

    def violations(self) -> list[Violation]:
        out = []
        if self.L.source != self.F.target or self.L.target != self.F.source:
            return [Violation("DanglingReference", "L and F are not composable as a reflection")]
        out += self.L.violations()
        out += self.F.violations()
        if out:
            return out
        fl = self.L.then(self.F)
        if (self.unit.source.encoding() != FinFunctor.identity(self.B).encoding()
                or self.unit.target.encoding() != fl.encoding()):
            out.append(Violation("DanglingReference", "unit is not Id_B => F.L"))
            return out
        out += self.unit.violations()
        if not out and not self.F.is_fully_faithful():
            out.append(Violation("BrokenIdentity", "F is not full and faithful"))
        return out

    def validate(self) -> "Reflection":
        bad = self.violations()
        if bad:
            raise InvalidStructure(bad)
        v = check_adjunction(self)
        if not v.passed:
            raise InvalidStructure([Violation("BrokenAssociativity", f"adjunction fails: {v.witness}")])
        return self

    def transpose(self, b: str, a: str, u: str) -> str:
        """The unique v: L b -> a with F(v).unit_b = u, for u: b -> F a."""
        A, B = self.A, self.B
        cands = [
            v for v in A.hom(self.L.obj_map[b], a)
            if B.compose(self.F.mor_map[v], self.unit.components[b]) == u
        ]
        if len(cands) != 1:
            raise NonUnique(f"{len(cands)} transposes for {u}: {b} -> F {a}")
        return cands[0]

    @staticmethod
    def identity(C: FinCategory) -> "Reflection":
        idf = FinFunctor.identity(C)
        unit = FinNatTrans(idf, idf, {o: C.identity[o] for o in C.objects})
        return Reflection(idf, idf, unit)


def check_adjunction(R: Reflection) -> Verdict:
    """Exhaustive universal-property check of the unit."""
    if R.L.source != R.F.target or R.L.target != R.F.source:
        raise ShapeMismatch("L and F are not composable as a reflection")
    A, B = R.A, R.B
    total = 0
    for b in B.objects:
        for a in A.objects:
            fa = R.F.obj_map[a]
            for u in B.hom(b, fa):
                total += 1
                cands = [
                    v for v in A.hom(R.L.obj_map[b], a)
                    if B.compose(R.F.mor_map[v], R.unit.components[b]) == u
                ]
                if len(cands) != 1:
                    return Verdict(
                        "adjunction", FAIL,
                        witness={"b": b, "a": a, "u": u, "factorizations": cands},
                        stats={"hom_instances": total},
                        detail=f"{len(cands)} factorizations",
                    )
    return Verdict("adjunction", PASS, stats={"hom_instances": total})
