"""Executable adjunction-property checkers: Frobenius reciprocity,
semi-left-exactness, stable units, exponential ideals, local connectedness,
and local cartesian closure of finite lattice fixtures.

Every PASS is bound-relative: the exhausted search space is recorded.
Every FAIL carries a witness, a JSON-ready dict whose `kind` sits at top
level or, in a square witness (`verdicts.square_witness`), under `square`.
`reverify` replays a witness from its own data alone, through `REPLAYERS`,
the one table from kind to replayer.  A replayer reruns the test the search
ran (`_square_failure`, `_lcc_candidates`, graphpre's `_sle_instance_fails`,
`product_reflection_agrees`, `_exponential_violation`, `_pi_violation` and
`_sieve_factors`) and trusts no stored verdict; the kinds that have no
replayer are listed, with the reason, at `REPLAYERS`.
"""

from __future__ import annotations

import itertools

from . import graphpre
from .budget import Budget, ensure_budget
from .errors import BudgetExceeded, NonUnique, ShapeMismatch
from .fincat import (
    FinCategory,
    FinFunctor,
    Reflection,
    binary_product,
    check_adjunction,
    exponential_object,
    find_inverse,
    first_bad_cone,
    mediators,
    pullback,
    terminal_object,
)
from .report import (
    category_from_json,
    category_to_json,
    presheaf_map_to_json,
    reflection_from_json,
    reflection_to_json,
)
from .verdicts import (FAIL, INCONCLUSIVE, PASS, Verdict, budget_exhausted, mediator_analysis,
                       replay_refuted, square_witness)

# ---------------------------------------------------------------------------
# helpers


def _require_reflection(R: Reflection) -> None:
    if not check_adjunction(R).passed:
        raise ShapeMismatch("input reflection fails its adjunction check")


def _square_failure(C: FinCategory, apex: str, legs: tuple, cospan: tuple):
    """None if apex --legs--> (X, Y) over the cospan (f, g) is a pullback
    square; else (cone, count): the first test cone with count != 1
    mediators, or the reason the square does not commute."""
    (f, g), (p1, p2) = cospan, legs
    if C.compose(f, p1) != C.compose(g, p2):
        return {"reason": "square does not commute"}, 0
    bad = first_bad_cone(C, apex, legs, cospan)
    if bad is None:
        return None
    z, m1, m2, n = bad
    return {"z": z, "m1": m1, "m2": m2}, n


def _product_mediator(C: FinCategory, src: str, product: tuple, m1: str, m2: str) -> str:
    """The unique h: src -> Q with rho1.h = m1 and rho2.h = m2, for the product
    cone product = (Q, rho1, rho2); raises NonUnique unless exactly one exists."""
    Q, rho1, rho2 = product
    cands = mediators(C, src, Q, (rho1, rho2), (m1, m2))
    if len(cands) != 1:
        raise NonUnique(f"{len(cands)} mediators {src} -> {Q} into the product")
    return cands[0]


# ---------------------------------------------------------------------------
# Frobenius reciprocity


def check_frobenius(R: Reflection, I: str, A_obj: str) -> Verdict:
    """Is the canonical map L(FI x A) -> I x LA an isomorphism?"""
    _require_reflection(R)
    A, B = R.A, R.B
    fi = R.F.obj_map[I]
    pb = binary_product(B, fi, A_obj)
    if pb is None:
        return Verdict("frobenius", INCONCLUSIVE, detail=f"MissingProduct({fi}, {A_obj}) in B",
                       stats={"I": I, "A_obj": A_obj})
    la = R.L.obj_map[A_obj]
    qa = binary_product(A, I, la)
    if qa is None:
        return Verdict("frobenius", INCONCLUSIVE, detail=f"MissingProduct({I}, {la}) in A",
                       stats={"I": I, "A_obj": A_obj})
    P, pi1, pi2 = pb
    lp = R.L.obj_map[P]
    m = _product_mediator(A, lp, qa, R.transpose(P, I, pi1), R.L.mor_map[pi2])
    if find_inverse(A, m) is None:
        return Verdict("frobenius", FAIL,
                       witness={"I": I, "A_obj": A_obj, "canonical_map": m,
                                "dom": lp, "cod": qa[0]},
                       stats={"I": I, "A_obj": A_obj})
    return Verdict("frobenius", PASS, stats={"I": I, "A_obj": A_obj, "canonical_map": m})


def check_frobenius_all(R: Reflection) -> Verdict:
    """Frobenius over every (I, A_obj) pair; MissingProduct pairs reported."""
    _require_reflection(R)
    missing, total = [], 0
    for I in R.A.objects:
        for A_obj in R.B.objects:
            total += 1
            v = check_frobenius(R, I, A_obj)
            if v.outcome == FAIL:
                return Verdict("frobenius", FAIL, witness=v.witness,
                               stats={"pairs": total})
            if v.outcome == INCONCLUSIVE:
                missing.append((I, A_obj))
    if missing:
        return Verdict("frobenius", INCONCLUSIVE,
                       detail=f"{len(missing)} pairs lack products",
                       stats={"pairs": total, "missing": missing})
    return Verdict("frobenius", PASS, stats={"pairs": total})


# ---------------------------------------------------------------------------
# semi-left-exactness / stable units


def _check_l_preserves_pullbacks(R: Reflection, cospans, property_name: str,
                                 bound: int | None) -> Verdict:
    """Shared engine: pull back each cospan in B, apply L, test pullback-ness."""
    A, B = R.A, R.B
    tested = 0
    skipped = []
    for (f, g, f_image_leg) in cospans:
        if bound is not None and tested >= bound:
            break
        pb = pullback(B, f, g)
        if pb is None:
            skipped.append((f, g))
            continue
        tested += 1
        p, p1, p2 = pb
        Lm = R.L.mor_map
        apex = R.L.obj_map[p]
        bad = _square_failure(A, apex, (Lm[p1], Lm[p2]), (Lm[f], Lm[g]))
        if bad is not None:
            square = {
                "kind": "category-square", "reflection": reflection_to_json(R),
                "apex": p, "p1": p1, "p2": p2, "f": f, "g": g,
                "corners": {"X": B.dom[f], "Y": B.dom[g], "Z": B.cod[f]},
            }
            l_image = {
                "apex": apex, "p1": Lm[p1], "p2": Lm[p2], "f": Lm[f], "g": Lm[g],
            }
            w = square_witness(square, f_image_leg, l_image, *bad)
            return Verdict(property_name, FAIL, witness=w,
                           bounds={"cospans": tested},
                           stats={"tested": tested, "missing_pullback": len(skipped)})
    outcome = PASS if not skipped else INCONCLUSIVE
    detail = "" if not skipped else f"{len(skipped)} cospans lack pullbacks"
    return Verdict(property_name, outcome, bounds={"cospans": tested},
                   stats={"tested": tested, "missing_pullback": len(skipped)},
                   detail=detail)


def check_semi_left_exact(R: Reflection, bound: int | None = None) -> Verdict:
    """L preserves pullbacks along morphisms in the image of F."""
    _require_reflection(R)
    B = R.B
    cospans = []
    for u in sorted(R.A.morphisms):
        fu = R.F.mor_map[u]
        z = B.cod[fu]
        for f in sorted(B.morphisms):
            if B.cod[f] == z:
                cospans.append((f, fu, "g"))
    return _check_l_preserves_pullbacks(R, cospans, "semi-left-exact", bound)


def check_stable_units(R: Reflection, bound: int | None = None) -> Verdict:
    """L preserves all pullbacks over objects in the image of F."""
    _require_reflection(R)
    B = R.B
    f_objs = sorted({R.F.obj_map[a] for a in R.A.objects})
    cospans = []
    for z in f_objs:
        ins = sorted(m for m in B.morphisms if B.cod[m] == z)
        for f in ins:
            for g in ins:
                cospans.append((f, g, "base-object"))
    return _check_l_preserves_pullbacks(R, cospans, "stable-units", bound)


# ---------------------------------------------------------------------------
# exponential ideal


def check_exponential_ideal(R: Reflection, bound: int | None = None) -> Verdict:
    """(a) L preserves binary products; (b) exponentials (Fa)^b land in the
    image of F.  Sub-verdicts reported separately in stats."""
    _require_reflection(R)
    A, B = R.A, R.B

    prod_missing, prod_tested = [], 0
    prod_fail = None
    pairs = list(itertools.combinations_with_replacement(sorted(B.objects), 2))
    if bound is not None:
        pairs = pairs[:bound]
    for (X, Y) in pairs:
        pb = binary_product(B, X, Y)
        qa = binary_product(A, R.L.obj_map[X], R.L.obj_map[Y])
        if pb is None or qa is None:
            prod_missing.append((X, Y))
            continue
        prod_tested += 1
        P, pi1, pi2 = pb
        m = _product_mediator(A, R.L.obj_map[P], qa, R.L.mor_map[pi1], R.L.mor_map[pi2])
        if find_inverse(A, m) is None:
            prod_fail = {"pair": (X, Y), "canonical_map": m}
            break
    if prod_fail is not None:
        sub_a = Verdict("product-preservation", FAIL, witness=prod_fail,
                        stats={"tested": prod_tested})
    elif prod_missing:
        sub_a = Verdict("product-preservation", INCONCLUSIVE,
                        detail=f"MissingProduct for {len(prod_missing)} pairs",
                        stats={"tested": prod_tested, "missing": prod_missing})
    else:
        sub_a = Verdict("product-preservation", PASS, stats={"tested": prod_tested})

    exp_missing, exp_tested = [], 0
    exp_fail = None
    for a in sorted(A.objects):
        for b in sorted(B.objects):
            E = exponential_object(B, b, R.F.obj_map[a])
            if E is None:
                exp_missing.append((a, b))
                continue
            exp_tested += 1
            e_obj, _ = E
            in_image = any(
                any(find_inverse(B, m) is not None for m in B.hom(e_obj, R.F.obj_map[a2]))
                for a2 in A.objects
            )
            if not in_image:
                exp_fail = {"a": a, "b": b, "exponential": e_obj}
                break
        if exp_fail:
            break
    if exp_fail is not None:
        sub_b = Verdict("exponential-closure", FAIL, witness=exp_fail,
                        stats={"tested": exp_tested})
    elif exp_missing:
        sub_b = Verdict("exponential-closure", INCONCLUSIVE,
                        detail=f"MissingExponential for {len(exp_missing)} pairs",
                        stats={"tested": exp_tested, "missing": exp_missing})
    else:
        sub_b = Verdict("exponential-closure", PASS, stats={"tested": exp_tested})

    stats = {"product_preservation": sub_a.to_json(), "exponential_closure": sub_b.to_json()}
    if FAIL in (sub_a.outcome, sub_b.outcome):
        bad = sub_a if sub_a.outcome == FAIL else sub_b
        return Verdict("exponential-ideal", FAIL, witness=bad.witness, stats=stats)
    if INCONCLUSIVE in (sub_a.outcome, sub_b.outcome):
        return Verdict("exponential-ideal", INCONCLUSIVE, stats=stats,
                       detail="missing products or exponentials")
    return Verdict("exponential-ideal", PASS, stats=stats)


# ---------------------------------------------------------------------------
# local connectedness (presheaf level)

# dependent products check_locally_connected compares across L* once its
# squares pass; each builds two Pi's and enumerates a Nat set
PI_SPOT_CHECKS = 3


def check_locally_connected(L: FinFunctor, bound: int = 200, carrier_bound: int = 1,
                            budget: Budget | int | None = None) -> Verdict:
    """Diagram-(1) preservation for L! -| L* over the first `bound` squares
    of a deterministic presheaf corpus, plus PI_SPOT_CHECKS dependent-product
    spot checks for L* itself, each enumerated lazily.  A budget that runs
    out gives the INCONCLUSIVE verdict of the graph searches."""
    from . import kan
    from .presheaf import dependent_product, nat_transformations, presheaf_corpus, pullback_presheaf

    b_ = ensure_budget(budget, "check_locally_connected")
    start = b_.spent
    A, B = L.target, L.source
    corp_a = presheaf_corpus(A, carrier_bound)
    corp_b = presheaf_corpus(B, carrier_bound)

    def squares():
        for I in corp_a:
            for J in corp_a:
                for u in nat_transformations(J, I, b_):
                    lu = kan.restrict_map(L, u)
                    ri = kan.restrict(L, I)
                    for Apre in corp_b:
                        for amap in nat_transformations(Apre, ri, b_):
                            yield I, J, u, lu, Apre, amap

    def pi_cases():
        for Y in corp_a:
            for X in corp_a:
                for f in nat_transformations(X, Y, b_):
                    for Z in corp_a:
                        for g in nat_transformations(Z, X, b_)[:1]:
                            yield f, g

    try:
        tested = 0
        for I, J, u, lu, Apre, amap in itertools.islice(squares(), bound):
            tested += 1
            Bpre, b1, b2 = pullback_presheaf(amap, lu)
            rB = kan.lan(L, Bpre, b_)
            rA = kan.lan(L, Apre, b_)
            lf = kan.lan_map(L, rB, rA, b1)
            b_hat = kan.lan_transpose(rB, J, b2)
            a_hat = kan.lan_transpose(rA, I, amap)
            # commutes by construction; test pointwise pullback-ness
            for obj in A.objects:
                pb_elems = {(j, la) for j in J.at[obj] for la in rA.output.at[obj]
                            if u.components[obj](j) == a_hat.components[obj](la)}
                image = [(b_hat.components[obj](x), lf.components[obj](x))
                         for x in rB.output.at[obj]]
                if len(set(image)) != len(image) or set(image) != pb_elems:
                    w = square_witness(
                        {"kind": "presheaf-square", "u": presheaf_map_to_json(u),
                         "a": presheaf_map_to_json(amap)},
                        "g", {"object": obj, "comparison_image": sorted(map(repr, image)),
                              "pullback": sorted(map(repr, pb_elems))},
                        {"object": obj}, 0 if set(image) != pb_elems else 2)
                    return Verdict("locally-connected", FAIL, witness=w,
                                   bounds={"squares": tested, "carrier": carrier_bound},
                                   stats={"squares": tested})
        pi_tested = 0
        for f, g in itertools.islice(pi_cases(), PI_SPOT_CHECKS):
            pi_tested += 1
            up = dependent_product(f, g, b_)
            down = dependent_product(kan.restrict_map(L, f), kan.restrict_map(L, g), b_)
            r_up_dom = kan.restrict(L, up.source)
            r_up = kan.restrict_map(L, up)
            isos = [h for h in nat_transformations(r_up_dom, down.source, b_)
                    if h.is_pointwise_bijection() and h.then(down).encoding() == r_up.encoding()]
            if not isos:
                w = square_witness({"kind": "pi-comparison", "f": presheaf_map_to_json(f),
                                    "g": presheaf_map_to_json(g)}, "n/a", {}, {}, 0)
                return Verdict("locally-connected", FAIL, witness=w,
                               bounds={"squares": tested, "pi_checks": pi_tested,
                                       "carrier": carrier_bound},
                               stats={"squares": tested, "pi_checks": pi_tested})
    except BudgetExceeded:
        return budget_exhausted("locally-connected", {"squares": bound, "carrier": carrier_bound},
                                b_.limit, b_.limit - start, "steps")
    return Verdict("locally-connected", PASS,
                   bounds={"squares": tested, "pi_checks": pi_tested, "carrier": carrier_bound},
                   stats={"squares": tested, "pi_checks": pi_tested})


# ---------------------------------------------------------------------------
# local cartesian closure of finite lattices


def _leq(C: FinCategory, x: str, y: str) -> bool:
    return len(C.hom(x, y)) > 0


def _lcc_candidates(C: FinCategory, x: str, y: str, c: str):
    """(the b <= y with b /\\ x <= c, whether one of them is greatest), or
    None if some meet b /\\ x is missing.  Pullback along x -> y has a right
    adjoint at c <= x iff a greatest candidate exists."""
    cands = []
    for b in C.objects:
        meet = binary_product(C, b, x)
        if meet is None:
            return None
        if _leq(C, b, y) and _leq(C, meet[0], c):
            cands.append(b)
    return cands, any(all(_leq(C, b2, b) for b2 in cands) for b in cands)


def check_lcc(C: FinCategory, bound: int | None = None) -> Verdict:
    """For every f: x -> y, search for a right adjoint to pullback between
    slices.  For thin finitely complete categories this is the existence of
    max{b <= y : b /\\ x <= c} for every c <= x; the search is exhaustive."""
    if any(len(C.hom(x, y)) > 1 for x in C.objects for y in C.objects):
        return Verdict("lcc", INCONCLUSIVE, detail="category is not thin")
    if terminal_object(C) is None:
        return Verdict("lcc", INCONCLUSIVE, detail="no terminal object")
    for x in C.objects:
        for y in C.objects:
            if binary_product(C, x, y) is None:
                return Verdict("lcc", INCONCLUSIVE, detail=f"MissingProduct({x}, {y})")
    tested = 0
    for x in sorted(C.objects):
        for y in sorted(C.objects):
            if not _leq(C, x, y) or x == y:
                continue
            for c in sorted(C.objects):
                if not _leq(C, c, x):
                    continue
                tested += 1
                if bound is not None and tested > bound:
                    return Verdict("lcc", INCONCLUSIVE, detail="bound exhausted",
                                   bounds={"slices": bound})
                cands, has_top = _lcc_candidates(C, x, y, c)
                if not has_top:
                    maximal = sorted(
                        b for b in cands
                        if not any(b2 != b and _leq(C, b, b2) for b2 in cands))
                    w = {"kind": "lcc", "category": category_to_json(C),
                         "x": x, "y": y, "c": c, "maximal_candidates": maximal}
                    return Verdict("lcc", FAIL, witness=w,
                                   bounds={"slices": tested}, stats={"slices": tested})
    return Verdict("lcc", PASS, bounds={"slices": tested}, stats={"slices": tested})


# ---------------------------------------------------------------------------
# independent re-verification of serialized witnesses


def _replay_category_square(w: dict) -> Verdict:
    sq = w["square"]
    R = reflection_from_json(sq["reflection"])
    A, B = R.A, R.B
    f, g, p1, p2, p = sq["f"], sq["g"], sq["p1"], sq["p2"], sq["apex"]
    if not (all(m in B.dom for m in (f, g, p1, p2))
            and B.dom[p1] == B.dom[p2] == p and B.cod[p1] == B.dom[f]
            and B.cod[p2] == B.dom[g] and B.cod[f] == B.cod[g]):
        return replay_refuted("stored square is not a square")
    # the stored square must be the pullback it claims to be
    if _square_failure(B, p, (p1, p2), (f, g)) is not None:
        return replay_refuted("stored square is not a pullback")
    Lm = R.L.mor_map
    bad = _square_failure(A, R.L.obj_map[p], (Lm[p1], Lm[p2]), (Lm[f], Lm[g]))
    if bad is None:
        return replay_refuted("L-image square is a pullback after all")
    return Verdict("witness-replay", PASS, stats={"analysis": mediator_analysis(*bad)})


def _replay_lcc(w: dict) -> Verdict:
    C = category_from_json(w["category"])
    x, y, c = w["x"], w["y"], w["c"]
    if not (_leq(C, x, y) and _leq(C, c, x)):
        return replay_refuted("stored slice does not have c <= x <= y")
    found = _lcc_candidates(C, x, y, c)
    if found is None:
        return replay_refuted("missing meet")
    cands, has_top = found
    if has_top:
        return replay_refuted("right adjoint exists after all")
    return Verdict("witness-replay", PASS, stats={"candidates": sorted(cands)})


# kind -> replayer.  Kinds without one: presheaf-square and pi-comparison
# (the witness does not carry L), validate and replay (no claim).
REPLAYERS = {
    "category-square": _replay_category_square,
    "lcc": _replay_lcc,
    "graph-sle-square": graphpre.replay_sle_square,
    "graph-product": graphpre.replay_product,
    "graph-exponential": graphpre.replay_exponential,
    "graph-pi": graphpre.replay_pi,
    "graph-sieve": graphpre.replay_sieve,
}


def reverify(witness: dict) -> Verdict:
    """Re-check a serialized FAIL witness from its own data alone, by the
    replayer of its kind, read at top level or under `square`."""
    kind = witness.get("kind") or witness.get("square", {}).get("kind")
    if kind not in REPLAYERS:
        raise ShapeMismatch(f"unknown witness kind {kind!r}")
    return REPLAYERS[kind](witness)
