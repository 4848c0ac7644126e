"""Restriction and both Kan extensions along a functor L: B -> A, with the
verifier for the essential/local adjoint chain and the comparison map theta.

Conventions: `restrict` is the inverse image (precomposition with L), `lan`
is its left adjoint (pointwise colimit over comma categories), `ran` its
right adjoint (natural families out of restricted representables).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .budget import Budget, ensure_budget
from .errors import NonUnique, ShapeMismatch
from .fincat import FinFunctor, Reflection, comma_from_object, opposite
from .finset import FinFn, FinSet, SetDiagram, colimit
from .presheaf import Presheaf, PresheafMap, nat_transformations, precompose_families, yoneda
from .verdicts import FAIL, PASS, Verdict


def restrict(L: FinFunctor, Y: Presheaf) -> Presheaf:
    """L*Y: b -> Y(L b), action by Y(L f)."""
    if Y.base != L.target:
        raise ShapeMismatch("restrict: presheaf not on the functor's target")
    B = L.source
    at = {b: Y.at[L.obj_map[b]] for b in B.objects}
    act = {m: Y.act[L.mor_map[m]] for m in B.morphisms}
    return Presheaf(B, at, act)


def restrict_map(L: FinFunctor, alpha: PresheafMap) -> PresheafMap:
    """L* on morphisms of presheaves."""
    src = restrict(L, alpha.source)
    tgt = restrict(L, alpha.target)
    comps = {b: alpha.components[L.obj_map[b]] for b in L.source.objects}
    return PresheafMap(src, tgt, comps)


@dataclass
class KanResult:
    functor: FinFunctor
    input: Presheaf
    output: Presheaf
    cls: dict = field(default_factory=dict)     # lan: (a) -> {(oid, x): rep}
    decode: dict = field(default_factory=dict)  # lan: (a) -> {oid: (b, phi)}
    families: dict = field(default_factory=dict)  # ran: (a) -> {enc: PresheafMap}


# ---------------------------------------------------------------------------
# left Kan extension


def lan(L: FinFunctor, X: Presheaf, budget: Budget | int | None = None) -> KanResult:
    """(L!X)(a) = colimit over (a / L) of X(b); the quotient of pairs
    (x in X(b), phi: a -> L b) by (x.beta, phi) ~ (x, L beta . phi)."""
    if X.base != L.source:
        raise ShapeMismatch("lan: presheaf not on the functor's source")
    A, B = L.target, L.source
    at, cls_by_a, decode_by_a = {}, {}, {}
    for a in A.objects:
        comma, decode = comma_from_object(a, L)
        idx = opposite(comma)
        on_objects = {o: X.at[decode[o][0]] for o in idx.objects}
        on_morphisms = {}
        for m in comma.morphisms:
            # m over beta: (b1,p1) -> (b2,p2); op-arrow glues X(b2) -> X(b1)
            beta = m.split("[", 1)[0]
            on_morphisms[m] = X.act[beta]
        col, injs = colimit(SetDiagram(idx, on_objects, on_morphisms))
        at[a] = col
        cls_by_a[a] = {(o, x): injs[o](x) for o in idx.objects for x in on_objects[o]}
        decode_by_a[a] = dict(decode)
    act = {}
    for psi in A.morphisms:
        a1, a2 = A.dom[psi], A.cod[psi]
        table = {}
        for rep in at[a2]:
            oid, x = rep
            b, phi = decode_by_a[a2][oid]
            oid1 = f"{b}|{A.compose(phi, psi)}"
            table[rep] = cls_by_a[a1][(oid1, x)]
        act[psi] = FinFn.of(at[a2], at[a1], table)
    out = Presheaf(A, at, act)
    return KanResult(L, X, out, cls=cls_by_a, decode=decode_by_a)


def lan_unit(rx: KanResult) -> PresheafMap:
    """eta_X: X -> L* L! X, x in X(b) -> [x, id_{Lb}]."""
    L, X = rx.functor, rx.input
    B = L.source
    tgt = restrict(L, rx.output)
    comps = {}
    for b in B.objects:
        lb = L.obj_map[b]
        oid = f"{b}|{L.target.identity[lb]}"
        comps[b] = FinFn.of(X.at[b], tgt.at[b], {x: rx.cls[lb][(oid, x)] for x in X.at[b]})
    return PresheafMap(X, tgt, comps)


def lan_transpose(rx: KanResult, V: Presheaf, m: PresheafMap) -> PresheafMap:
    """Adjunct of m: X -> L*V across L! -| L*: sends [x, phi] to V(phi)(m x)."""
    L = rx.functor
    A = L.target
    comps = {}
    for a in A.objects:
        table = {}
        for rep in rx.output.at[a]:
            oid, x = rep
            b, phi = rx.decode[a][oid]
            table[rep] = V.act[phi](m.components[b](x))
        comps[a] = FinFn.of(rx.output.at[a], V.at[a], table)
    return PresheafMap(rx.output, V, comps)


def lan_map(L: FinFunctor, rx: KanResult, ry: KanResult, alpha: PresheafMap) -> PresheafMap:
    """L! on morphisms: [x, phi] -> [alpha(x), phi]."""
    A = L.target
    comps = {}
    for a in A.objects:
        table = {}
        for rep in rx.output.at[a]:
            oid, x = rep
            b, _ = rx.decode[a][oid]
            table[rep] = ry.cls[a][(oid, alpha.components[b](x))]
        comps[a] = FinFn.of(rx.output.at[a], ry.output.at[a], table)
    return PresheafMap(rx.output, ry.output, comps)


# ---------------------------------------------------------------------------
# right Kan extension


def ran(L: FinFunctor, X: Presheaf, budget: Budget | int | None = None) -> KanResult:
    """(L_*X)(a) = Nat(L*(y_a), X), action by precomposition."""
    if X.base != L.source:
        raise ShapeMismatch("ran: presheaf not on the functor's source")
    b_ = ensure_budget(budget, "ran")
    A = L.target
    restricted, fams_by_a, at = {}, {}, {}
    for a in A.objects:
        P = restricted[a] = restrict(L, yoneda(A, a))
        fams = nat_transformations(P, X, b_)
        fams_by_a[a] = {f.encoding(): f for f in fams}
        # nat_transformations returns the families sorted by their encodings
        at[a] = FinSet(tuple(fams_by_a[a]))
    act = {}
    for psi in A.morphisms:
        a1, a2 = A.dom[psi], A.cod[psi]
        act[psi] = precompose_families(at[a2], at[a1], restricted[a1], restricted[a2],
                                       lambda b, phi, psi=psi: A.compose(psi, phi))
    out = Presheaf(A, at, act)
    return KanResult(L, X, out, families=fams_by_a)


def ran_counit(rx: KanResult) -> PresheafMap:
    """eps_X: L* L_* X -> X, evaluating a family at the identity."""
    L, X = rx.functor, rx.input
    B = L.source
    src = restrict(L, rx.output)
    comps = {}
    for b in B.objects:
        lb = L.obj_map[b]
        idm = L.target.identity[lb]
        table = {}
        for enc in src.at[b]:
            table[enc] = rx.families[lb][enc].components[b](idm)
        comps[b] = FinFn.of(src.at[b], X.at[b], table)
    return PresheafMap(src, X, comps)


# ---------------------------------------------------------------------------
# essential + local verification


def verify_essential_local(R: Reflection, carrier_bound: int = 2,
                           budget: Budget | int | None = None) -> Verdict:
    """Over a deterministic corpus: (a) the hom-bijection for L! -| L*,
    (b) the hom-bijection for L* -| L_*, (c) fullness/faithfulness of L*."""
    from .presheaf import presheaf_corpus

    b_ = ensure_budget(budget, "verify_essential_local")
    L = R.L
    A, B = L.target, L.source
    corpus_b = presheaf_corpus(B, carrier_bound)
    corpus_a = presheaf_corpus(A, carrier_bound)
    stats = {"corpus_b": len(corpus_b), "corpus_a": len(corpus_a), "pairs": 0}

    for X in corpus_b:
        rx = lan(L, X, b_)
        eta = lan_unit(rx)
        for Y in corpus_a:
            stats["pairs"] += 1
            left = nat_transformations(rx.output, Y, b_)
            right = nat_transformations(X, restrict(L, Y), b_)
            transposed = {eta.then(restrict_map(L, al)).encoding() for al in left}
            if len(transposed) != len(left) or len(left) != len(right):
                return Verdict("essential-local", FAIL, bounds={"carrier": carrier_bound},
                               witness={"check": "lan-adjunction",
                                        "X": X.encoding(), "Y": Y.encoding(),
                                        "lhs": len(left), "rhs": len(right)},
                               stats=stats)

    for X in corpus_b:
        rx = ran(L, X, b_)
        eps = ran_counit(rx)
        for Y in corpus_a:
            stats["pairs"] += 1
            left = nat_transformations(restrict(L, Y), X, b_)
            right = nat_transformations(Y, rx.output, b_)
            transposed = {restrict_map(L, be).then(eps).encoding() for be in right}
            if len(transposed) != len(right) or len(left) != len(right):
                return Verdict("essential-local", FAIL, bounds={"carrier": carrier_bound},
                               witness={"check": "ran-adjunction",
                                        "X": X.encoding(), "Y": Y.encoding(),
                                        "lhs": len(left), "rhs": len(right)},
                               stats=stats)

    for X in corpus_a:
        for Y in corpus_a:
            stats["pairs"] += 1
            upstairs = nat_transformations(X, Y, b_)
            downstairs = nat_transformations(restrict(L, X), restrict(L, Y), b_)
            restricted = {restrict_map(L, al).encoding() for al in upstairs}
            if len(restricted) != len(upstairs) or len(upstairs) != len(downstairs):
                return Verdict("essential-local", FAIL, bounds={"carrier": carrier_bound},
                               witness={"check": "fully-faithful",
                                        "X": X.encoding(), "Y": Y.encoding(),
                                        "lhs": len(upstairs), "rhs": len(downstairs)},
                               stats=stats)

    return Verdict("essential-local", PASS, bounds={"carrier": carrier_bound}, stats=stats)


# ---------------------------------------------------------------------------
# the comparison map theta


def theta(R: Reflection, X: Presheaf, budget: Budget | int | None = None):
    """theta_X: L_*X -> L!X, the unique map restricting to eta . eps; returns
    (map, epi verdict with per-object surjectivity tally)."""
    b_ = ensure_budget(budget, "theta")
    L = R.L
    rr = ran(L, X, b_)
    rl = lan(L, X, b_)
    eps = ran_counit(rr)
    eta = lan_unit(rl)
    h = eps.then(eta)  # L*(L_*X) -> L*(L!X)
    cands = [
        t for t in nat_transformations(rr.output, rl.output, b_)
        if restrict_map(L, t).encoding() == h.encoding()
    ]
    if len(cands) != 1:
        raise NonUnique(f"{len(cands)} candidates for theta")
    t = cands[0]
    missed = {}
    for a, comp in t.components.items():
        if not comp.is_surjective():
            hit = {v for _, v in comp.mapping}
            missed[a] = sorted((repr(v) for v in rl.output.at[a] if v not in hit))
    if missed:
        v = Verdict("theta-epi", FAIL, witness={"missed": missed},
                    stats={"objects": len(t.components)}, detail="NOT-EPI")
    else:
        v = Verdict("theta-epi", PASS, stats={"objects": len(t.components)})
    return t, v
