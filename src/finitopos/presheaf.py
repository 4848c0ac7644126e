"""Presheaves on a finite base: Yoneda, natural-transformation enumeration,
limits, exponentials, and dependent products.

A presheaf acts contravariantly: for f: c -> d the action is a function
at(d) -> at(c).  Natural transformations are the compatible families of the
target over the elements of the source: each arrow of el(X) becomes one
constraint of `finset.families`, one audited backtracking loop whose
position order is fixed before the search starts.  No category of elements
is built for this; `category_of_elements` serves dependent products.

`exponential_presheaf(X, Y)` builds Y^X alone: its carriers are encodings of
natural families, and its action transposes an encoding by position.
`exponential(X, Y)` returns (Y^X, ev) and so also builds Y^X x X and the
evaluation; callers that only need the object call the former.

Products and pullbacks list their pairs x by x and, for each x, y by y,
through carriers in canonical order, so the pairs come out in canonical
order; they are built without a sort or a re-check.

`Presheaf(...)` and `PresheafMap(...)` normalise their input but do not
check it; `Presheaf.of`, `PresheafMap.of` and `validate()` check
functoriality and naturality.  Only code that takes outside input (the DSL,
the JSON readers, witness replay) calls them: every construction in this
module builds its values directly, and the tests check that they are valid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget, ensure_budget
from .errors import InvalidStructure, ShapeMismatch
from .fincat import FinCategory, FinFunctor, Violation
from .finset import FinFn, FinSet, canon_key, families


def ename(e) -> str:
    """Injective string encoding of an element (str/int/tuple nesting)."""
    return repr(e)


class Presheaf:
    def __init__(self, base: FinCategory, at, act):
        """Carriers are coerced to FinSet; missing identity actions are filled in."""
        self.base = base
        self.at = {o: s if isinstance(s, FinSet) else FinSet.of(s) for o, s in at.items()}
        self.act = dict(act)
        for o in base.objects:
            i = base.identity[o]
            if i not in self.act and o in self.at:
                self.act[i] = FinFn.identity(self.at[o])

    @staticmethod
    def of(base: FinCategory, at: dict, act: dict) -> "Presheaf":
        return Presheaf(base, at, act).validate()

    def violations(self) -> list[Violation]:
        out = []
        C = self.base
        for o in C.objects:
            if o not in self.at:
                out.append(Violation("DanglingReference", f"presheaf missing value at {o}"))
        for m in C.morphisms:
            if m not in self.act:
                out.append(Violation("DanglingReference", f"presheaf missing action at {m}"))
        if out:
            return out
        for m in C.morphisms:
            fn = self.act[m]
            if fn.dom != self.at[C.cod[m]] or fn.cod != self.at[C.dom[m]]:
                out.append(Violation("DanglingReference", f"action at {m} has wrong endpoints"))
        if out:
            return out
        for o in C.objects:
            if self.act[C.identity[o]] != FinFn.identity(self.at[o]):
                out.append(Violation("BrokenIdentity", f"action at id({o}) is not the identity"))
        for (g, f), gf in C.comp.items():
            # contravariance: act(g.f) = act(f) . act(g)
            if self.act[g].then(self.act[f]) != self.act[gf]:
                out.append(Violation("BrokenAssociativity", f"contravariant functoriality fails at {g}.{f}"))
        return out

    def validate(self) -> "Presheaf":
        bad = self.violations()
        if bad:
            raise InvalidStructure(bad)
        return self

    def encoding(self) -> tuple:
        return (
            tuple((o, self.at[o].elements) for o in self.base.objects),
            tuple((m, self.act[m].mapping) for m in self.base.morphisms),
        )

    def __eq__(self, other):
        return (isinstance(other, Presheaf) and self.base == other.base
                and self.encoding() == other.encoding())

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        sizes = ", ".join(f"{o}:{len(self.at[o])}" for o in self.base.objects)
        return f"Presheaf({sizes})"


class PresheafMap:
    def __init__(self, source: Presheaf, target: Presheaf, components):
        """Components given as dicts are coerced to FinFn."""
        self.source = source
        self.target = target
        self.components = {
            o: c if isinstance(c, FinFn) else FinFn.of(source.at[o], target.at[o], c)
            for o, c in components.items()
        }

    @staticmethod
    def of(source: Presheaf, target: Presheaf, components) -> "PresheafMap":
        return PresheafMap(source, target, components).validate()

    def violations(self) -> list[Violation]:
        out = []
        if self.source.base != self.target.base:
            return [Violation("DanglingReference", "presheaf map across different bases")]
        C = self.source.base
        for o in C.objects:
            c = self.components.get(o)
            if c is None or c.dom != self.source.at[o] or c.cod != self.target.at[o]:
                out.append(Violation("DanglingReference", f"component at {o} missing or mistyped"))
        if out:
            return out
        for m in C.morphisms:
            c, d = C.dom[m], C.cod[m]
            lhs = self.source.act[m].then(self.components[c])
            rhs = self.components[d].then(self.target.act[m])
            if lhs != rhs:
                out.append(Violation("BrokenAssociativity", f"naturality fails at {m}"))
        return out

    def validate(self) -> "PresheafMap":
        bad = self.violations()
        if bad:
            raise InvalidStructure(bad)
        return self

    def then(self, other: "PresheafMap") -> "PresheafMap":
        if other.source.encoding() != self.target.encoding():
            raise ShapeMismatch("presheaf map composition mismatch")
        return PresheafMap(
            self.source, other.target,
            {o: self.components[o].then(other.components[o]) for o in self.components},
        )

    @staticmethod
    def identity(P: Presheaf) -> "PresheafMap":
        return PresheafMap(P, P, {o: FinFn.identity(P.at[o]) for o in P.base.objects})

    def encoding(self) -> tuple:
        return tuple((o, self.components[o].mapping) for o in self.source.base.objects)

    def __eq__(self, other):
        return (isinstance(other, PresheafMap) and self.source == other.source
                and self.target == other.target and self.encoding() == other.encoding())

    def __hash__(self):
        return hash(self.encoding())

    def is_pointwise_bijection(self) -> bool:
        return all(c.is_bijective() for c in self.components.values())


# ---------------------------------------------------------------------------
# basic objects


def terminal_presheaf(C: FinCategory) -> Presheaf:
    at = {o: FinSet.of(["*"]) for o in C.objects}
    act = {m: FinFn.of(at[C.cod[m]], at[C.dom[m]], {"*": "*"}) for m in C.morphisms}
    return Presheaf(C, at, act)


def empty_presheaf(C: FinCategory) -> Presheaf:
    at = {o: FinSet.of([]) for o in C.objects}
    act = {m: FinFn.of(at[C.cod[m]], at[C.dom[m]], {}) for m in C.morphisms}
    return Presheaf(C, at, act)


def yoneda(C: FinCategory, c: str) -> Presheaf:
    if c not in set(C.objects):
        raise ShapeMismatch(f"{c} is not an object")
    # hom-sets hold morphism names sorted as strings, which is canonical order
    at = {d: FinSet(C.hom(d, c)) for d in C.objects}
    act = {}
    for f in C.morphisms:
        d, e = C.dom[f], C.cod[f]
        act[f] = FinFn(at[e], at[d], tuple([(h, C.compose(h, f)) for h in at[e].elements]))
    return Presheaf(C, at, act)


def _pairs_presheaf(X: Presheaf, Y: Presheaf, pairs: dict):
    """(P, p1, p2) for the subpresheaf P of X x Y on `pairs[o]` at each o,
    listed x by x and, for each x, y by y, so already in canonical order."""
    C = X.base
    at = {o: FinSet(tuple(pairs[o])) for o in C.objects}
    act = {}
    for m in C.morphisms:
        xt, yt = X.act[m].table, Y.act[m].table
        src = at[C.cod[m]]
        act[m] = FinFn(src, at[C.dom[m]],
                       tuple([(p, (xt[p[0]], yt[p[1]])) for p in src.elements]))
    P = Presheaf(C, at, act)
    return (P,) + tuple(
        PresheafMap(P, Z, {o: FinFn(at[o], Z.at[o], tuple([(p, p[i]) for p in at[o].elements]))
                           for o in C.objects})
        for i, Z in enumerate((X, Y)))


def product_presheaf(X: Presheaf, Y: Presheaf):
    """Pointwise product; elements are (x, y) pairs.  Returns (P, p1, p2)."""
    if X.base != Y.base:
        raise ShapeMismatch("product across different bases")
    return _pairs_presheaf(X, Y, {
        o: [(x, y) for x in X.at[o].elements for y in Y.at[o].elements]
        for o in X.base.objects
    })


def pullback_presheaf(f: PresheafMap, g: PresheafMap):
    """Pointwise pullback of the cospan f: X -> Z <- Y :g.  Returns (P, p1, p2)."""
    if f.target is not g.target and f.target.encoding() != g.target.encoding():
        raise ShapeMismatch("pullback requires a cospan")
    pairs = {}
    for o in f.source.base.objects:
        # Y(o) split into the fibers of g, each in Y(o)'s order
        fiber: dict = {}
        for y, z in g.components[o].mapping:
            fiber.setdefault(z, []).append(y)
        pairs[o] = [(x, y) for x, z in f.components[o].mapping for y in fiber.get(z, ())]
    return _pairs_presheaf(f.source, g.source, pairs)


# ---------------------------------------------------------------------------
# category of elements


@dataclass(frozen=True)
class Elements:
    category: FinCategory
    projection: FinFunctor
    obj_id: dict  # (c, elem) -> object id
    decode: dict  # object id -> (c, elem)
    mor_id: dict  # (phi, oid1, oid2) -> morphism id


def category_of_elements(P: Presheaf) -> Elements:
    """el(P): objects (c, x in P(c)); (c,x) -> (d,y) is phi: c -> d with
    P(phi)(y) = x.  Returns the category plus the projection functor."""
    C = P.base
    obj_id = {}
    decode = {}
    for c in C.objects:
        for x in P.at[c]:
            oid = f"{c}@{ename(x)}"
            obj_id[(c, x)] = oid
            decode[oid] = (c, x)
    objs = sorted(decode)
    morphisms, dom, cod, identity, comp = [], {}, {}, {}, {}
    mor_id = {}
    # the arrow over phi: c -> d into (d, y) starts at (c, P(phi)(y)); sorted
    # by (source, target, phi), they come in the order of a scan of all pairs
    into = {d: [phi for phi in C.morphisms if C.cod[phi] == d] for d in C.objects}
    arrows = []
    for o2 in objs:
        d, y = decode[o2]
        for phi in into[d]:
            arrows.append((obj_id[(C.dom[phi], P.act[phi].table[y])], o2, phi))
    arrows.sort()
    identities = set(C.identity.values())
    tri = []
    for o1, o2, phi in arrows:
        n = f"{phi}[{o1}>{o2}]"
        morphisms.append(n)
        dom[n], cod[n] = o1, o2
        mor_id[(phi, o1, o2)] = n
        tri.append((phi, o1, o2, n))
        if o1 == o2 and phi in identities:
            identity[o1] = n
    # composable pairs through each object's outgoing arrows, kept in `tri`
    # order so that `comp` is filled in the same order as by a scan of all pairs
    out_of: dict = {o: [] for o in objs}
    for phi, o1, o2, n in tri:
        out_of[o1].append((phi, o2, n))
    for p1, o1, o2, n1 in tri:
        for p2, o3, n2 in out_of[o2]:
            comp[(n2, n1)] = mor_id[(C.compose(p2, p1), o1, o3)]
    cat = FinCategory(objs, morphisms, dom, cod, identity, comp)
    proj = FinFunctor(cat, C,
                      {o: decode[o][0] for o in objs},
                      {n: phi for phi, _, _, n in tri})
    return Elements(cat, proj, obj_id, decode, mor_id)


# ---------------------------------------------------------------------------
# natural transformations


def nat_transformations(X: Presheaf, Y: Presheaf, budget: Budget | int | None = None) -> list[PresheafMap]:
    """Complete duplicate-free enumeration of X => Y, canonically sorted.

    A family picks alpha_c(x) in Y(c) per element (c, x) of el(X); each
    arrow of el(X), phi: c -> d at y in X(d), is the naturality constraint
    Y(phi)(alpha_d(y)) = alpha_c(X(phi)(y)) of `finset.families`.  No
    category is built; elements take the positions `category_of_elements`
    names them in, which fixes the search order and every budget charge.
    """
    if X.base != Y.base:
        raise ShapeMismatch("natural transformations require a common base")
    b = ensure_budget(budget, "nat_transformations")
    C = X.base
    elems = sorted(((f"{c}@{ename(x)}", c, x) for c in C.objects for x in X.at[c].elements),
                   key=lambda e: e[0])
    pos = {(c, x): i for i, (_, c, x) in enumerate(elems)}
    arrows = []
    for phi in C.morphisms:
        c, d, t = C.dom[phi], C.cod[phi], Y.act[phi].table
        arrows += [(pos[(d, y)], pos[(c, x)], t) for y, x in X.act[phi].mapping]
    fams = families([Y.at[c].elements for _, c, _ in elems], arrows, b)
    # each component is read off a family by the positions of its elements
    plan = [(c, X.at[c], Y.at[c], [pos[(c, x)] for x in X.at[c].elements])
            for c in C.objects]
    # encodings of two families over the same X first differ at the first
    # element, in encoding order, where the families differ, so sorting by the
    # values in that order sorts by canon_key of the encoding
    flat = [i for _, _, _, at_c in plan for i in at_c]
    out = []
    for fam in sorted(fams, key=lambda fam: [canon_key(fam[i]) for i in flat]):
        out.append(PresheafMap(X, Y, {
            c: FinFn(Xc, Yc, tuple([(x, fam[i]) for x, i in zip(Xc.elements, at_c)]))
            for c, Xc, Yc, at_c in plan
        }))
    return out


# ---------------------------------------------------------------------------
# exponentials


def precompose_families(fams: FinSet, out: FinSet, src: Presheaf, tgt: Presheaf,
                        along) -> FinFn:
    """fams -> out: the encoding of each natural alpha: tgt -> Y goes to the
    encoding of alpha . g, where g: src -> tgt sends s in src(e) to
    along(e, s).  Encodings list components in base-object order and each
    component in its carrier's order, so alpha . g is read off alpha's
    encoding by position, without rebuilding alpha."""
    plan = []
    for e in src.base.objects:
        index = {t: i for i, t in enumerate(tgt.at[e].elements)}
        plan.append((e, [(s, index[along(e, s)]) for s in src.at[e].elements]))
    return FinFn(fams, out, tuple([
        (enc, tuple([(e, tuple([(s, comp[i][1]) for s, i in sel]))
                     for (e, sel), (_, comp) in zip(plan, enc)]))
        for enc in fams.elements
    ]))


def exponential_presheaf(X: Presheaf, Y: Presheaf, budget: Budget | int | None = None) -> Presheaf:
    """Y^X alone: (Y^X)(c) = Nat(y_c x X, Y), action by precomposition.

    Elements of E(c) are the canonical encodings of the natural families, in
    canonical order.  Callers that only need the object call this;
    `exponential` adds the evaluation map on top of it."""
    if X.base != Y.base:
        raise ShapeMismatch("exponential requires a common base")
    b = ensure_budget(budget, "exponential")
    C = X.base
    prod_at: dict = {}
    at: dict = {}
    for c in C.objects:
        P = prod_at[c] = product_presheaf(yoneda(C, c), X)[0]
        # nat_transformations returns the families sorted by their encodings
        at[c] = FinSet(tuple([m.encoding() for m in nat_transformations(P, Y, b)]))
    act = {}
    for f in C.morphisms:
        c, d = C.dom[f], C.cod[f]  # f: c -> d; E(f): E(d) -> E(c)
        act[f] = precompose_families(at[d], at[c], prod_at[c], prod_at[d],
                                     lambda e, hx, f=f: (C.compose(f, hx[0]), hx[1]))
    return Presheaf(C, at, act)


def exponential(X: Presheaf, Y: Presheaf, budget: Budget | int | None = None):
    """(E, ev) for E = exponential_presheaf(X, Y), where ev: E x X -> Y
    evaluates a family at the identity: ev(alpha, x) = alpha_c(id_c, x)."""
    E = exponential_presheaf(X, Y, budget)
    C = X.base
    EX, _, _ = product_presheaf(E, X)
    ev_comps = {}
    for k, c in enumerate(C.objects):
        i = C.identity[c]
        pairs, last, alpha_c = [], None, None
        # EX(c) runs family by family, so each family is decoded once here
        for enc, x in EX.at[c].elements:
            if enc is not last:
                last, alpha_c = enc, dict(enc[k][1])
            pairs.append(((enc, x), alpha_c[(i, x)]))
        ev_comps[c] = FinFn(EX.at[c], Y.at[c], tuple(pairs))
    return E, PresheafMap(EX, Y, ev_comps)


# ---------------------------------------------------------------------------
# dependent products


def _over_to_elements(f: PresheafMap, el_y: Elements) -> Presheaf:
    """Presheaf on el(target) with fiber f^-1(y) at (c, y).  Each fiber is
    filtered from X(c) in its order, so it is canonical without a sort."""
    X = f.source
    elC = el_y.category
    fiber: dict = {}
    for c in X.base.objects:
        for x, y in f.components[c].mapping:
            fiber.setdefault((c, y), []).append(x)
    at = {oid: FinSet(tuple(fiber.get(el_y.decode[oid], ()))) for oid in elC.objects}
    act = {}
    for m in elC.morphisms:
        xt = X.act[el_y.projection.mor_map[m]].table
        src = at[elC.cod[m]]
        act[m] = FinFn(src, at[elC.dom[m]], tuple([(x, xt[x]) for x in src.elements]))
    return Presheaf(elC, at, act)


def elements_functor(f: PresheafMap, el_x: Elements, el_y: Elements) -> FinFunctor:
    """el(f): el(X) -> el(Y) over the same base, (c, x) -> (c, f x)."""
    X = f.source
    obj_map = {}
    for oid in el_x.category.objects:
        c, x = el_x.decode[oid]
        obj_map[oid] = el_y.obj_id[(c, f.components[c](x))]
    mor_map = {}
    for m in el_x.category.morphisms:
        phi = el_x.projection.mor_map[m]
        o1, o2 = el_x.category.dom[m], el_x.category.cod[m]
        mor_map[m] = el_y.mor_id[(phi, obj_map[o1], obj_map[o2])]
    return FinFunctor(el_x.category, el_y.category, obj_map, mor_map)


def dependent_product(f: PresheafMap, g: PresheafMap, budget: Budget | int | None = None) -> PresheafMap:
    """Pi_f g -> Y for f: X -> Y and g: Z -> X, via the elements reduction:
    slices over Y are presheaves on el(Y), pullback along f is restriction
    along el(f), and Pi_f is right Kan extension along el(f)."""
    from . import kan  # local import; kan builds on this module

    if g.target.encoding() != f.source.encoding():
        raise ShapeMismatch("dependent product requires cod(g) = dom(f)")
    b = ensure_budget(budget, "dependent_product")
    X, Y, Z = f.source, f.target, g.source
    C = Y.base
    el_x = category_of_elements(X)
    el_y = category_of_elements(Y)
    el_f = elements_functor(f, el_x, el_y)
    z_tilde = _over_to_elements(g, el_x)
    w_tilde = kan.ran(el_f, z_tilde, b).output

    # (y, w) listed y by y, each y's w in its carrier's order: canonical order
    at = {c: FinSet(tuple([(y, w) for y in Y.at[c].elements
                           for w in w_tilde.at[el_y.obj_id[(c, y)]].elements]))
          for c in C.objects}
    act = {}
    for m in C.morphisms:
        c, d = C.dom[m], C.cod[m]  # m: c -> d; W(m): W(d) -> W(c)
        yt, pairs = Y.act[m].table, []
        for y2, w2 in at[d].elements:
            y1 = yt[y2]
            em = el_y.mor_id[(m, el_y.obj_id[(c, y1)], el_y.obj_id[(d, y2)])]
            pairs.append(((y2, w2), (y1, w_tilde.act[em].table[w2])))
        act[m] = FinFn(at[d], at[c], tuple(pairs))
    W = Presheaf(C, at, act)
    return PresheafMap(W, Y, {c: FinFn(at[c], Y.at[c], tuple([(p, p[0]) for p in at[c].elements]))
                              for c in C.objects})


# ---------------------------------------------------------------------------
# deterministic presheaf corpus


def canonical_encoding(P: Presheaf) -> tuple:
    """Least encoding over per-object element relabelings; iso-invariant for
    relabeling isos (which is what corpus dedup needs)."""
    C = P.base
    best = None
    per_obj = [list(itertools.permutations(range(len(P.at[o])))) for o in C.objects]
    idx_of = {o: {x: i for i, x in enumerate(P.at[o].elements)} for o in C.objects}
    for perms in itertools.product(*per_obj):
        relabel = {
            o: {x: perm[idx_of[o][x]] for x in P.at[o]}
            for o, perm in zip(C.objects, perms)
        }
        enc = (
            tuple(len(P.at[o]) for o in C.objects),
            tuple(
                (m, tuple(sorted(
                    (relabel[C.cod[m]][x], relabel[C.dom[m]][P.act[m](x)])
                    for x in P.at[C.cod[m]]
                )))
                for m in C.morphisms if not C.is_identity(m)
            ),
        )
        if best is None or enc < best:
            best = enc
    return best


def presheaf_corpus(C: FinCategory, carrier_bound: int = 2) -> list[Presheaf]:
    """All presheaves with every carrier <= bound, one per relabeling class,
    plus representables; deterministic order."""
    objs = list(C.objects)
    nonid = [m for m in C.morphisms if not C.is_identity(m)]
    seen = {}
    for sizes in itertools.product(range(carrier_bound + 1), repeat=len(objs)):
        at = {o: FinSet.of([f"x{i}" for i in range(n)]) for o, n in zip(objs, sizes)}
        per_mor = []
        for m in nonid:
            src, dst = at[C.cod[m]], at[C.dom[m]]
            fns = [FinFn.of(src, dst, dict(zip(src.elements, choice)))
                   for choice in itertools.product(dst.elements, repeat=len(src))]
            if len(src) > 0 and len(dst) == 0:
                fns = []  # no function into the empty set
            per_mor.append(fns)
        for combo in itertools.product(*per_mor):
            p = Presheaf(C, at, dict(zip(nonid, combo)))
            if p.violations():
                continue
            key = canonical_encoding(p)
            if key not in seen:
                seen[key] = p
    for c in objs:
        p = yoneda(C, c)
        key = canonical_encoding(p)
        if key not in seen:
            seen[key] = p
    return [seen[k] for k in sorted(seen)]
