"""Independent checkers for the certificate benchmark.

Nothing here imports finitopos.  Each `check_*` function takes the outputs a
workload process recorded and recomputes them from first principles, with
its own enumerations and its own closure algorithm, returning a list of
problems; an empty list means every output agrees.

Representations: a graph is `(n, edges)` with vertices 0..n-1 and a list of
extra directed edges (the distinguished loops are implicit); a preorder is
`(carrier, rel)` with `rel` a set of pairs that contains the diagonal.  The
program names graph vertices "v0", "v1", ... and serializes elements of its
reports as tagged JSON (["s", str], ["i", int], ["t", [...]]).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import defaultdict
from functools import lru_cache


# ---------------------------------------------------------------------------
# relations, preorders and graphs


def closure(carrier, pairs) -> frozenset:
    """Reflexive-transitive closure of `pairs` on `carrier` (Warshall on
    bitsets)."""
    carrier = list(carrier)
    idx = {x: i for i, x in enumerate(carrier)}
    reach = [1 << i for i in range(len(carrier))]
    for a, b in pairs:
        reach[idx[a]] |= 1 << idx[b]
    for k in range(len(reach)):
        bit, rk = 1 << k, reach[k]
        for i in range(len(reach)):
            if reach[i] & bit:
                reach[i] |= rk
    return frozenset((carrier[i], carrier[j])
                     for i in range(len(carrier)) for j in range(len(carrier))
                     if reach[i] >> j & 1)


def is_transitive(rel) -> bool:
    succ = defaultdict(set)
    for a, b in rel:
        succ[a].add(b)
    return all(c in succ[a] for a, b in rel for c in succ[b])


@lru_cache(maxsize=None)
def labelled_preorders(n: int) -> tuple:
    """Every preorder on 0..n-1, as frozensets of pairs."""
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    diag = {(a, a) for a in range(n)}
    out = []
    for bits in range(1 << len(off)):
        rel = diag | {p for i, p in enumerate(off) if bits >> i & 1}
        if is_transitive(rel):
            out.append(frozenset(rel))
    return tuple(out)


def _relabel(rel, perm):
    return tuple(sorted((perm[a], perm[b]) for a, b in rel))


def preorder_classes(n: int) -> int:
    """Number of preorders on n points up to isomorphism (OEIS A001930)."""
    perms = list(itertools.permutations(range(n)))
    return len({min(_relabel(rel, p) for p in perms) for rel in labelled_preorders(n)})


def graph_classes(n: int, e: int) -> int:
    """Reflexive graphs with n vertices and a multiset of e extra edges, up to
    isomorphism, by Burnside's lemma: a vertex permutation permutes the n^2
    possible edges in cycles, and a multiset it fixes takes each cycle a whole
    number of times, so the fixed multisets of size e are the coefficient of
    x^e in the product over cycles c of 1 / (1 - x^|c|)."""
    edges = [(a, b) for a in range(n) for b in range(n)]
    fixed = 0
    for perm in itertools.permutations(range(n)):
        coeff = [1] + [0] * e
        seen = set()
        for start in edges:
            length, p = 0, start
            while p not in seen:
                seen.add(p)
                p = (perm[p[0]], perm[p[1]])
                length += 1
            if length:
                for k in range(length, e + 1):
                    coeff[k] += coeff[k - length]
        fixed += coeff[e]
    return fixed // math.factorial(n)


def graphs_within(max_v: int, max_e: int) -> int:
    return sum(graph_classes(n, e) for n in range(max_v + 1) for e in range(max_e + 1))


def vertex(name: str) -> int:
    """Index of a program vertex name "v<i>"."""
    if not (isinstance(name, str) and name[:1] == "v" and name[1:].isdigit()):
        raise ValueError(f"not a vertex name: {name!r}")
    return int(name[1:])


def untag(j):
    """Element of a program report: ["s", str], ["i", int] or ["t", [...]]."""
    tag, val = j
    if tag in ("s", "i"):
        return val
    if tag == "t":
        return tuple(untag(x) for x in val)
    raise ValueError(f"bad element tag {tag!r}")


def preorder_of(j: dict):
    """(carrier, rel) of a serialized program preorder."""
    return ([untag(x) for x in j["carrier"]],
            frozenset((untag(a), untag(b)) for a, b in j["rel"]))


def graph_of(j: dict):
    return j["n"], [tuple(e) for e in j["edges"]]


def report_digest(report: dict) -> str:
    """SHA-256 of the report's canonical JSON without its digest field."""
    body = {k: v for k, v in report.items() if k != "digest"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# ---------------------------------------------------------------------------
# sle-search: the square whose reflection is not a pullback


def sle_missing(n, edges, P, u, f) -> set:
    """Relations of the preorder pullback LX x_Q P that L W lacks, for the
    square of X = (n, edges) over Q along f and u: P -> Q, where W is the graph
    pullback X x_FQ FP.  W's vertices are the pairs (x, p) with f x = u p; an
    edge of X (its loops included) and a related pair p1 <= p2 of P meet in an
    edge of W whenever their images in Q agree.  Elements are (x, p)."""
    Pc, Prel = P
    W = [(x, p) for x in range(n) for p in Pc if f[x] == u[p]]
    arrows = list(edges) + [(x, x) for x in range(n)]
    w_edges = [((a, p1), (b, p2)) for a, b in arrows for p1, p2 in Prel
               if f[a] == u[p1] and f[b] == u[p2]]
    LW = closure(W, w_edges)
    LX = closure(range(n), edges)
    pb = {(w1, w2) for w1 in W for w2 in W
          if (w1[0], w2[0]) in LX and (w1[1], w2[1]) in Prel}
    return pb - LW


def _monotone(np_: int, P, nq: int, Q):
    """Monotone maps from a preorder P on 0..np_-1 to Q on 0..nq-1."""
    return [u for u in itertools.product(range(nq), repeat=np_)
            if all((u[a], u[b]) in Q for a, b in P)]


def sle_fails_at(total: int) -> bool:
    """Is there a labelled square of total size |Q| + |P| + |X| + extra edges
    of X equal to `total` whose reflection is not a pullback?

    Three reductions keep the search small; none can hide a failure:
    - P empty gives W empty, so nothing is missing; Q empty forces P empty.
    - Repeated edges and extra loops of X add only parallel edges to W and
      leave LX, LW and the pullback relation unchanged, so a failing square
      with them fails at a smaller total without them.
    - If X has no edge but loops, LX is the diagonal, and a pullback pair
      (x, p1) <= (x, p2) is itself an edge of W (x's loop over p1 <= p2).
    """
    for nq in range(1, total):
        for np_ in range(1, total - nq):
            for nx in range(2, total - nq - np_):
                ex = total - nq - np_ - nx
                pairs = [(a, b) for a in range(nx) for b in range(nx) if a != b]
                if ex > len(pairs):
                    continue
                maps_x = list(itertools.product(range(nq), repeat=nx))
                for Q in labelled_preorders(nq):
                    for Prel in labelled_preorders(np_):
                        P = (range(np_), Prel)
                        for u in _monotone(np_, Prel, nq, Q):
                            for edges in itertools.combinations(pairs, ex):
                                for f in maps_x:
                                    if all((f[a], f[b]) in Q for a, b in edges) \
                                            and sle_missing(nx, edges, P, u, f):
                                        return True
    return False


def minimal_failing_total(limit: int):
    """Least total size at which some square fails, or None up to `limit`."""
    for total in range(limit + 1):
        if sle_fails_at(total):
            return total
    return None


def check_sle(out: dict) -> list:
    bad = []
    if out["search_rc"] != 0:
        bad.append(f"search exited {out['search_rc']}, expected 0 (witness found)")
    if out["replay_rc"] != 0 or not out["replay_stdout"].startswith("witness-replay: PASS"):
        bad.append(f"replay did not pass: rc {out['replay_rc']}, {out['replay_stdout']!r}")
    rep = out["report"]
    if report_digest(rep) != rep.get("digest"):
        bad.append("report digest does not match its body")
    verdict = rep["verdict"]
    if verdict["outcome"] != "FAIL":
        return bad + [f"search outcome {verdict['outcome']}, expected FAIL"]
    w = rep.get("witness")
    if w != verdict["witness"]:
        bad.append("report witness differs from the verdict's")
    sq = w["square"]
    n, edges = graph_of(sq["X"])
    P, Q = preorder_of(sq["P"]), preorder_of(sq["Q"])
    u = {k: untag(v) for k, v in sq["u"].items()}
    f = [untag(sq["f"][f"v{i}"]) for i in range(n)]
    for name, (c, rel) in (("P", P), ("Q", Q)):
        if not (is_transitive(rel) and all((x, x) in rel for x in c)):
            bad.append(f"{name} is not a preorder")
    if not all((u[a], u[b]) in Q[1] for a, b in P[1]):
        bad.append("u is not monotone")
    if not all((f[a], f[b]) in Q[1] for a, b in edges):
        bad.append("f does not respect the edges of X")
    missing = {((f"v{x1}", p1), (f"v{x2}", p2))
               for (x1, p1), (x2, p2) in sle_missing(n, edges, P, u, f)}
    claimed = {(untag(a), untag(b)) for a, b in w["l_image"]["missing_relations"]}
    if missing != claimed:
        bad.append(f"missing relations {sorted(claimed)} differ from the recomputed "
                   f"{sorted(missing)}")
    if w["analysis"]["count"] != (0 if missing else 1):
        bad.append(f"mediator count {w['analysis']['count']} contradicts the missing relations")
    total = len(Q[0]) + len(P[0]) + n + len(edges)
    least = minimal_failing_total(total)
    if least != total:
        bad.append(f"witness has total size {total}, but the least failing total is {least}")
    return bad


# ---------------------------------------------------------------------------
# product-sweep: L(G x H) = LG x LH


def product_closure(G, H) -> frozenset:
    """Reflexive-transitive closure of the edge relation of G x H: an edge of
    the product is a pair of edges, distinguished loops included."""
    (ng, eg), (nh, eh) = G, H
    rg = set(eg) | {(x, x) for x in range(ng)}
    rh = set(eh) | {(y, y) for y in range(nh)}
    verts = [(x, y) for x in range(ng) for y in range(nh)]
    return closure(verts, [((g1, h1), (g2, h2)) for g1, g2 in rg for h1, h2 in rh])


def product_of_reflections(G, H) -> frozenset:
    (ng, eg), (nh, eh) = G, H
    return frozenset(((g1, h1), (g2, h2))
                     for g1, g2 in closure(range(ng), eg)
                     for h1, h2 in closure(range(nh), eh))


def check_product(out: dict) -> list:
    bad = []
    v = out["verdict"]
    if v["outcome"] != "PASS":
        return [f"product sweep outcome {v['outcome']}, expected PASS"]
    g = graphs_within(out["max_v"], out["max_e"])
    if v["stats"].get("graphs") != g:
        bad.append(f"graphs {v['stats'].get('graphs')}, expected {g} isomorphism classes")
    pairs = g * (g + 1) // 2 + out["random_pairs"]
    if v["stats"].get("pairs") != pairs:
        bad.append(f"pairs {v['stats'].get('pairs')}, expected {pairs}")
    for s in out["sample"]:
        G, H = graph_of(s["G"]), graph_of(s["H"])
        got = frozenset(((vertex(a), vertex(b)), (vertex(c), vertex(d)))
                        for (a, b), (c, d) in s["rel"])
        want = product_closure(G, H)
        if got != want:
            bad.append(f"L(G x H) wrong for G={s['G']}, H={s['H']}")
        elif want != product_of_reflections(G, H):
            bad.append(f"L(G x H) != LG x LH for G={s['G']}, H={s['H']}")
    return bad


# ---------------------------------------------------------------------------
# exp-ideal: (F P)^G


def exponential_counts(G, P) -> tuple:
    """(|E(V)|, |E(E)|) for E = (F P)^G.  A vertex of E is a graph map G -> FP,
    i.e. an edge-respecting vertex map; an edge is a graph map from the walking
    edge times G, i.e. a pair (g0, g1) of them with g0(a) <= g1(b) for every
    edge a -> b of G, loops included."""
    n, edges = G
    Pc, Prel = P
    arrows = list(edges) + [(x, x) for x in range(n)]
    maps = [w for w in itertools.product(Pc, repeat=n)
            if all((w[a], w[b]) in Prel for a, b in edges)]
    pairs = sum(1 for g0 in maps for g1 in maps
                if all((g0[a], g1[b]) in Prel for a, b in arrows))
    return len(maps), pairs


def check_exp(out: dict) -> list:
    bad = []
    v = out["verdict"]
    if v["outcome"] != "PASS":
        return [f"exponential-ideal outcome {v['outcome']}, expected PASS"]
    want = (sum(preorder_classes(n) for n in range(out["max_p"] + 1))
            * graphs_within(out["max_v"], out["max_e"]))
    if v["stats"].get("tested") != want:
        bad.append(f"tested {v['stats'].get('tested')}, expected {want}")
    for s in out["sample"]:
        want = exponential_counts(graph_of(s["G"]), preorder_of(s["P"]))
        if (s["EV"], s["EE"]) != want:
            bad.append(f"|E(V)|, |E(E)| = {s['EV']}, {s['EE']} for P={s['P']}, "
                       f"G={s['G']}; expected {want[0]}, {want[1]}")
    return bad


# ---------------------------------------------------------------------------
# pi-witness: a dependent product of preorders that is not a preorder


def preorders_in_search_order(max_n: int) -> list:
    """Preorders on "v0".."v{n-1}", n <= max_n, one per isomorphism class, in
    the order the program's searches visit them: by size, then the first
    labelled relation met when the off-diagonal pairs are switched on as the
    bits of a counter, most significant pair first."""
    out = []
    for n in range(max_n + 1):
        elems = [f"v{i}" for i in range(n)]
        off = [(a, b) for a in elems for b in elems if a != b]
        perms = [dict(zip(elems, p)) for p in itertools.permutations(elems)]
        seen = set()
        for bits in itertools.product([0, 1], repeat=len(off)):
            rel = frozenset({p for p, b in zip(off, bits) if b} | {(x, x) for x in elems})
            if not is_transitive(rel):
                continue
            key = min(_relabel(rel, p) for p in perms)
            if key not in seen:
                seen.add(key)
                out.append((tuple(elems), rel))
    return out


def monotone_maps(P, Q) -> list:
    """Monotone maps P -> Q as dicts, in lexicographic order of their values."""
    return [dict(zip(P[0], vals)) for vals in itertools.product(Q[0], repeat=len(P[0]))
            if all((vals[P[0].index(a)], vals[P[0].index(b)]) in Q[1] for a, b in P[1])]


def dependent_product_graph(Y, X, Z, f: dict, g: dict):
    """Pi_f g for f: X -> Y, g: Z -> X, as a graph (vertices, edge list).
    Its vertices over y are the monotone sections of g over the fiber
    f^-1(y); an edge (y1, s1) -> (y2, s2) exists iff y1 <= y2 and
    s1(x1) <= s2(x2) whenever x1 <= x2 in the fibers."""
    Xrel, Zrel = X[1], Z[1]
    fiber = {y: [x for x in X[0] if f[x] == y] for y in Y[0]}
    verts = []
    for y in Y[0]:
        fb = fiber[y]
        for vals in itertools.product(Z[0], repeat=len(fb)):
            s = dict(zip(fb, vals))
            if all(g[s[x]] == x for x in fb) and \
                    all((s[a], s[b]) in Zrel for a in fb for b in fb if (a, b) in Xrel):
                verts.append((y, vals))
    edges = []
    for y1, v1 in verts:
        s1 = dict(zip(fiber[y1], v1))
        for y2, v2 in verts:
            s2 = dict(zip(fiber[y2], v2))
            if (y1, y2) in Y[1] and all((s1[a], s2[b]) in Zrel for a in s1 for b in s2
                                        if (a, b) in Xrel):
                edges.append(((y1, v1), (y2, v2)))
    return verts, edges


def first_pi_failure(max_n: int):
    """(index, instance) of the first (Y, X, f, Z, g) in search order whose
    dependent product is not transitive, or (count, None) if there is none."""
    pre = preorders_in_search_order(max_n)
    k = 0
    for Y in pre:
        for X in pre:
            for f in monotone_maps(X, Y):
                for Z in pre:
                    for g in monotone_maps(Z, X):
                        k += 1
                        _, edges = dependent_product_graph(Y, X, Z, f, g)
                        if not is_transitive(edges):
                            return k, (Y, X, f, Z, g)
    return k, None


def check_pi(out: dict) -> list:
    bad = []
    v = out["verdict"]
    if v["outcome"] != "FAIL":
        return [f"pi-witness outcome {v['outcome']}, expected FAIL"]
    w = v["witness"]
    Y, X, Z = preorder_of(w["Y"]), preorder_of(w["X"]), preorder_of(w["Z"])
    f = {untag(a): untag(b) for a, b in w["f"]}
    g = {untag(a): untag(b) for a, b in w["g"]}
    verts, edges = dependent_product_graph(Y, X, Z, f, g)
    if (out["pi"]["V"], out["pi"]["E"]) != (len(verts), len(edges)):
        bad.append(f"Pi_f g has {out['pi']['V']} vertices and {out['pi']['E']} edges; "
                   f"expected {len(verts)} and {len(edges)}")
    if is_transitive(edges):
        bad.append("the witness's dependent product is a preorder")
    k, first = first_pi_failure(out["max_n"])
    if first is None:
        bad.append("no instance fails, yet a witness was reported")
    else:
        if v["stats"].get("tested") != k:
            bad.append(f"tested {v['stats'].get('tested')}, expected {k}")
        fY, fX, ff, fZ, fg = first
        if (fY, fX, fZ, ff, fg) != ((tuple(Y[0]), Y[1]), (tuple(X[0]), X[1]),
                                    (tuple(Z[0]), Z[1]), f, g):
            bad.append("the witness is not the first failing instance in search order")
    return bad


CHECKS = {
    "sle-search": check_sle,
    "product-sweep": check_product,
    "exp-ideal": check_exp,
    "pi-witness": check_pi,
}
