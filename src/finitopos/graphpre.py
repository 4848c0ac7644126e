"""Finite reflexive graphs as presheaves on the two-object base, the preorder
reflection, and the witness searches certifying that the reflection preserves
finite products and is an exponential ideal but is not semi-left-exact.

A reflexive graph here is (n, edges): n vertices v0..v{n-1}, one distinguished
loop per vertex, plus a multiset of extra directed edges (parallel edges and
extra loops allowed).  A preorder embeds as the graph with exactly one edge
per related pair, the distinguished loops being the reflexivity edges.  The
graphs of a size are listed by orbit-marking (`graphs_of_size`).

L reads only a graph's vertices and its edge relation, so the two sweeps and
the SLE and Pi searches test each candidate on relations, with no presheaf.
The SLE search tests a square on its pullback's vertices and edge pairs
(`_pullback_vertices`, `_pullback_edges`), each distinct pullback once; the
product sweep tests a pair on successor bitsets (`_product_rows_agree`),
from each graph's rows built once per width (`_graph_and_reflection`); the
exponential sweep and the Pi search test whether an edge relation is
transitive (`_is_transitive`), since (F P)^G and Pi_f g have at most one
edge per pair of vertices.  The exponential sweep builds its relation's
successor bitsets from G's index pairs and P alone (`_exponential_rows`),
so a sweep that passes builds no presheaf and no base category; the Pi
search builds its relation's pairs from the preorders (`_pi_relation`).
The generic presheaf constructions stay the oracle: they re-test each
instance a search reports as a FAIL, the witness is built from their data,
and replay uses them.  The exponential sweep and the SLE, Pi and sieve
searches each hand one loop to one driver (`_search`): the loop charges the
budget once per candidate and returns its first FAIL, and the driver counts
the candidates and gives the verdict, INCONCLUSIVE when the budget runs out.
`_confirmed` raises where the presheaf path does not confirm a relational FAIL.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .budget import Budget, ensure_budget
from .errors import BudgetExceeded, FinitoposError, InvalidStructure, ShapeMismatch
from .finset import FinFn, FinSet, canon_key
from .presheaf import (
    Presheaf,
    PresheafMap,
    dependent_product,
    exponential_presheaf,
    nat_transformations,
    pullback_presheaf,
)
from .verdicts import FAIL, NOT_FOUND, PASS, Verdict, budget_exhausted, replay_refuted, square_witness


@lru_cache(maxsize=1)
def base():
    from .fixtures import delta1_base
    return delta1_base()


# ---------------------------------------------------------------------------
# reflexive graphs


@dataclass(frozen=True)
class RefGraph:
    n: int
    edges: tuple  # sorted multiset of (src, tgt) vertex indices

    def __post_init__(self):
        """Replay input is checked here: the count and each index must be an
        int (a bool is not), the count non-negative, the indices in range."""
        if type(self.n) is not int:
            raise InvalidStructure([f"vertex count {self.n!r} is not an int"])
        bad = [f"vertex count {self.n} is negative"] if self.n < 0 else []
        bad += [f"edge ({a!r}, {b!r}) is not a pair of vertices 0..{self.n - 1}"
                for (a, b) in self.edges
                if not (type(a) is type(b) is int and 0 <= a < self.n and 0 <= b < self.n)]
        if bad:
            raise InvalidStructure(bad)
        if self.edges != tuple(sorted(self.edges)):
            raise InvalidStructure(["graph edges are not sorted"])

    @staticmethod
    def of(n: int, edges) -> "RefGraph":
        return RefGraph(n, tuple(sorted(tuple(e) for e in edges)))

    def canonical(self) -> "RefGraph":
        best = None
        for perm in itertools.permutations(range(self.n)):
            relab = tuple(sorted((perm[a], perm[b]) for a, b in self.edges))
            if best is None or relab < best:
                best = relab
        return RefGraph(self.n, best if best is not None else ())

    def presheaf(self) -> Presheaf:
        C = base()
        verts = [f"v{i}" for i in range(self.n)]
        loops = [("r", i) for i in range(self.n)]
        extra = [("e", k, a, b) for k, (a, b) in enumerate(self.edges)]
        at = {"V": FinSet.of(verts), "E": FinSet.of(loops + extra)}

        def src(e):
            return f"v{e[1]}" if e[0] == "r" else f"v{e[2]}"

        def tgt(e):
            return f"v{e[1]}" if e[0] == "r" else f"v{e[3]}"

        act = {
            "d0": FinFn.of(at["E"], at["V"], src),
            "d1": FinFn.of(at["E"], at["V"], tgt),
            "s": FinFn.of(at["V"], at["E"], {f"v{i}": ("r", i) for i in range(self.n)}),
        }
        act["d0.s"] = act["d0"].then(act["s"])
        act["d1.s"] = act["d1"].then(act["s"])
        return Presheaf(C, at, act)

    def index_pairs(self) -> list:
        """The distinguished loops (i, i), then the extra edges, as pairs of
        vertex indices: what the relational tests read of a graph."""
        return [(i, i) for i in range(self.n)] + list(self.edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json(j: dict) -> "RefGraph":
        """Replay input: each edge is checked to be a pair of ints before `of` sorts them."""
        edges = j["edges"]
        bad = [f"edge {e!r} is not a pair of int vertices"
               for e in (edges if isinstance(edges, list) else [edges])
               if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is type(e[1]) is int)]
        if bad:
            raise InvalidStructure(bad)
        return RefGraph.of(j["n"], edges)


def graphs_of_size(n: int, e: int):
    """Canonical representatives with exactly n vertices and e extra edges,
    by orbit-marking: the edge multisets are walked in increasing order, so
    the first of a relabeling orbit met is its least; it is yielded and the
    rest of its orbit marked, each mark dropped when the walk reaches it.  A
    multiset's key is one integer, the count of pair i in bits i * width up."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    width = e.bit_length()
    # per relabeling (the identity first), each pair index's bit in the key
    bits = [[1 << width * (p[a] * n + p[b]) for a, b in pairs]
            for p in itertools.permutations(range(n))]
    marked: set = set()
    for combo in itertools.combinations_with_replacement(range(len(pairs)), e):
        key = sum(bits[0][i] for i in combo)
        if key in marked:
            marked.remove(key)
            continue
        marked.update(sum(b[i] for i in combo) for b in bits[1:])
        marked.discard(key)
        yield RefGraph(n, tuple(pairs[i] for i in combo))


def enumerate_graphs(max_v: int, max_e: int):
    """All reflexive graphs within bounds, one per isomorphism class, in
    canonically increasing (n, e, encoding) order."""
    for n in range(max_v + 1):
        for e in range(max_e + 1):
            yield from graphs_of_size(n, e)


# ---------------------------------------------------------------------------
# preorders


@dataclass(frozen=True)
class Preorder:
    carrier: tuple
    rel: frozenset  # ordered pairs, includes the diagonal

    def __post_init__(self):
        """The carrier is put in canonical order and `rel` gains the diagonal."""
        carrier = tuple(sorted(self.carrier, key=canon_key))
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "rel", frozenset(self.rel) | {(x, x) for x in carrier})

    @staticmethod
    def of(carrier, rel) -> "Preorder":
        return Preorder(carrier, rel).validate()

    def validate(self) -> "Preorder":
        bad = self.violations()
        if bad:
            raise ShapeMismatch("; ".join(bad))
        return self

    def violations(self) -> list[str]:
        out = []
        cs = set(self.carrier)
        for (a, b) in self.rel:
            if a not in cs or b not in cs:
                out.append(f"relation pair ({a!r}, {b!r}) outside carrier")
        for x in self.carrier:
            if (x, x) not in self.rel:
                out.append(f"not reflexive at {x!r}")
        for (a, b) in self.rel:
            for (b2, c) in self.rel:
                if b2 == b and (a, c) not in self.rel:
                    out.append(f"not transitive: {a!r} <= {b!r} <= {c!r}")
        return out

    def leq(self, a, b) -> bool:
        return (a, b) in self.rel

    def to_json(self) -> dict:
        from .report import elem_to_json
        return {
            "carrier": [elem_to_json(x) for x in self.carrier],
            "rel": sorted(([elem_to_json(a), elem_to_json(b)] for a, b in self.rel)),
        }

    @staticmethod
    def from_json(j: dict) -> "Preorder":
        from .report import elem_from_json
        return Preorder.of(
            [elem_from_json(x) for x in j["carrier"]],
            {(elem_from_json(a), elem_from_json(b)) for a, b in j["rel"]},
        )


def preorders_of_size(n: int):
    """Preorders on v0..v{n-1}, one canonical representative per iso class."""
    elems = [f"v{i}" for i in range(n)]
    idx = {x: i for i, x in enumerate(elems)}
    off_diag = [(a, b) for a in elems for b in elems if a != b]
    seen = set()
    for bits in itertools.product([0, 1], repeat=len(off_diag)):
        rel = {p for p, b in zip(off_diag, bits) if b} | {(x, x) for x in elems}
        if any((a, c) not in rel for (a, b) in rel for (b2, c) in rel if b2 == b):
            continue
        # the isomorphism class of the relation, as a graph on the indices
        key = RefGraph.of(n, [(idx[a], idx[b]) for a, b in rel]).canonical()
        if key in seen:
            continue
        seen.add(key)
        yield Preorder(elems, rel)


def enumerate_preorders(max_n: int):
    for n in range(max_n + 1):
        yield from preorders_of_size(n)


def monotone_maps(P: Preorder, Q: Preorder):
    """All monotone maps P -> Q as dicts, canonically ordered."""
    return _edge_respecting_maps(P.carrier, P.rel, Q.carrier, Q.rel)


# ---------------------------------------------------------------------------
# the reflection


def embed(P: Preorder) -> Presheaf:
    """One edge per related pair; reflexivity pairs are the distinguished loops."""
    C = base()
    at = {"V": FinSet.of(P.carrier), "E": FinSet.of(tuple(p) for p in P.rel)}
    act = {
        "d0": FinFn.of(at["E"], at["V"], {p: p[0] for p in at["E"]}),
        "d1": FinFn.of(at["E"], at["V"], {p: p[1] for p in at["E"]}),
        "s": FinFn.of(at["V"], at["E"], {x: (x, x) for x in at["V"]}),
    }
    act["d0.s"] = act["d0"].then(act["s"])
    act["d1.s"] = act["d1"].then(act["s"])
    return Presheaf(C, at, act)


def embed_map(u: dict, P: Preorder, Q: Preorder) -> PresheafMap:
    """The graph map F(u): embed(P) -> embed(Q) of a monotone map u."""
    return embedded_map(u, embed(P), embed(Q))


def embedded_map(u: dict, FP: Presheaf, FQ: Presheaf) -> PresheafMap:
    """F(u): FP -> FQ for FP = embed(P) and FQ = embed(Q) already built."""
    return PresheafMap(FP, FQ, {
        "V": {x: u[x] for x in FP.at["V"]},
        "E": {(a, b): (u[a], u[b]) for (a, b) in FP.at["E"]},
    })


def _edge_pairs(G: Presheaf):
    """(source, target) of each edge, in G.at["E"] order; both action tables
    list the edges in that order, so no edge is looked up."""
    return [(s, t) for (_, s), (_, t) in zip(G.act["d0"].mapping, G.act["d1"].mapping)]


def transitive_closure(carrier, pairs) -> frozenset:
    """(x, x) for x in carrier, and (a, c) for each c that a search along
    the successor lists of `pairs` reaches from a in one or more steps."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    rel = {(x, x) for x in carrier}
    for a, out in succ.items():
        reached, todo = set(), list(out)
        while todo:
            c = todo.pop()
            if c not in reached:
                reached.add(c)
                todo.extend(succ.get(c, ()))
        rel.update((a, c) for c in reached)
    return frozenset(rel)


def reflect(G: Presheaf) -> Preorder:
    """L on objects: the reflexive-transitive closure of the edge relation,
    parallel edges collapsing to one."""
    carrier = list(G.at["V"])
    return Preorder(carrier, transitive_closure(carrier, _edge_pairs(G)))


def preorder_reflection(G: Presheaf):
    """(L G, unit: G -> embed(L G)); callers that need only L G call reflect."""
    LG = reflect(G)
    unit = PresheafMap(G, embed(LG), {
        "V": {v: v for v in G.at["V"]},
        "E": {e: (G.act["d0"](e), G.act["d1"](e)) for e in G.at["E"]},
    })
    return LG, unit


def reflect_map(f: PresheafMap) -> dict:
    """L on morphisms: the vertex component, which is monotone on reflections."""
    return {v: f.components["V"](v) for v in f.source.at["V"]}


def _fibers(verts, images) -> dict:
    """The fibers of the map sending each of `verts` to the image at its
    position in `images`: each image to the tuple of its preimages, in the
    order given."""
    fiber: dict = {}
    for p, q in zip(verts, images):
        fiber.setdefault(q, []).append(p)
    return {q: tuple(ps) for q, ps in fiber.items()}


def _pullback_vertices(verts, w: dict, fiber: dict) -> list:
    """The vertices (x, p) with w x = u p of the pullback of graphs
    X -> F Q <- F P, from X's `verts`, its vertex map w and u's `_fibers`
    over P's carrier: x by x and each fiber in P's order, as
    pullback_presheaf lists them."""
    return [(x, p) for x in verts for p in fiber.get(w[x], ())]


def _pullback_edges(pairs, w: dict, fiber: dict, rel) -> list:
    """The edge pairs of the same pullback, from X's edge `pairs` and P's
    relation `rel`.  F Q has one edge per related pair, so an edge (s, t)
    of X and an edge a <= b of F P meet over the same edge iff
    (w s, w t) = (u a, u b): the pairs are ((s, a), (t, b)) for a in the
    fiber over w s and b in the fiber over w t with a <= b.  That is
    pullback_presheaf's order too, since F P lists P's pairs
    lexicographically in P's carrier order."""
    return [((s, a), (t, b)) for s, t in pairs
            for a in fiber.get(w[s], ()) for b in fiber.get(w[t], ()) if (a, b) in rel]


def _product_relation(G: Presheaf, H: Presheaf):
    """(vertices, edge pairs) of G x H, in product_presheaf's order: the
    pairs of vertices and the pairs of edges, each x by x."""
    hv, hp = list(H.at["V"]), _edge_pairs(H)
    return ([(x, y) for x in G.at["V"] for y in hv],
            [((s, a), (t, b)) for s, t in _edge_pairs(G) for a, b in hp])


def _edge_respecting_maps(verts, pairs, targets, related) -> list:
    """Each map w: verts -> targets, as a dict, with (w a, w b) in `related`
    for every (a, b) in `pairs`; in the order of itertools.product."""
    return [dict(zip(verts, values))
            for values in _edge_respecting_values(verts, pairs, targets, related)]


def _edge_respecting_values(verts, pairs, targets, related) -> list:
    """The same maps as tuples of their values in `verts` order, each pair
    checked once on the tuple's indices.  `related` is reflexive on
    `targets` (a preorder, or the edges of an embedded one), so loops hold
    for every map and are not checked."""
    index = {v: i for i, v in enumerate(verts)}
    checks = list(dict.fromkeys((index[a], index[b]) for a, b in pairs if a != b))
    return [values for values in itertools.product(targets, repeat=len(verts))
            if all((values[i], values[j]) in related for i, j in checks)]


def _successor_rows(n: int, pairs, width: int = 1) -> list:
    """`pairs` on 0..n-1 as one successor bitset per index, index j at bit
    j * width."""
    succ = [0] * n
    for i, j in pairs:
        succ[i] |= 1 << j * width
    return succ


def _transitive_rows(rows: list, width: int = 1) -> list:
    """Transitive closure of successor bitsets with index k at bit k * width,
    in place (Warshall)."""
    for k in range(len(rows)):
        bit, rk = 1 << k * width, rows[k]
        for i, r in enumerate(rows):
            if r & bit:
                rows[i] = r | rk
    return rows


def _is_transitive(rows: list) -> bool:
    """Is the relation with successor bitsets `rows` (index j at bit j)
    transitive?  It is iff no index k has a successor that a predecessor
    of k lacks."""
    for k, rk in enumerate(rows):
        bit = 1 << k
        for r in rows:
            if r & bit and rk & ~r:
                return False
    return True


def _graph_map(G: Presheaf, FQ: Presheaf, w: dict) -> PresheafMap:
    """The graph map G -> FQ = embed(Q) of an edge-respecting vertex map w."""
    d0, d1 = G.act["d0"].table, G.act["d1"].table
    return PresheafMap(G, FQ, {"V": w, "E": {e: (w[d0[e]], w[d1[e]]) for e in G.at["E"]}})


def vertex_maps_to_embedded(G: Presheaf, FQ: Presheaf):
    """Graph maps G -> FQ for FQ = embed(Q) already built.  They biject with
    edge-respecting vertex maps, since FQ has one edge per related pair."""
    return [_graph_map(G, FQ, w)
            for w in _edge_respecting_maps(list(G.at["V"]), _edge_pairs(G),
                                           FQ.at["V"].elements, FQ.at["E"])]


def is_embedded_preorder(X: Presheaf):
    """(True, "") iff X is isomorphic to embed of a preorder: no parallel
    edges and a transitive edge relation (reflexivity is supplied by the
    distinguished loops)."""
    pairs = _edge_pairs(X)
    if len(set(pairs)) != len(pairs):
        dup = sorted(p for p in set(pairs) if pairs.count(p) > 1)[0]
        return False, f"parallel edges over {dup!r}"
    rel = set(pairs) | {(v, v) for v in X.at["V"]}
    succ: dict = {}
    for (b, c) in rel:
        succ.setdefault(b, []).append(c)
    for (a, b) in rel:
        for c in succ[b]:
            if (a, c) not in rel:
                # named by canonical order, not by the set's hash-seeded
                # iteration order
                a, c = min(((a, c) for (a, b) in rel for c in succ[b]
                            if (a, c) not in rel), key=canon_key)
                return False, f"missing transitive edge {a!r} -> {c!r}"
    return True, ""


# ---------------------------------------------------------------------------
# the search driver


def _search(name: str, budget: Budget | int | None, bounds: dict, search,
            count: str = "tested", exhausted: str = NOT_FOUND) -> Verdict:
    """The verdict `name` of `search(b)`, which charges the budget b once per
    candidate and returns None or the first FAIL's (witness, detail).
    stats[count] counts the candidates by b's charges.  A budget that runs
    out gives INCONCLUSIVE, with the budget among the bounds; a search that
    returns None has covered its space, and the verdict is `exhausted`."""
    b = ensure_budget(budget, name)
    start = b.spent
    try:
        found = search(b)
    except BudgetExceeded:
        return budget_exhausted(name, bounds, b.limit, b.limit - start, count)
    stats = {count: b.spent - start}
    if found is None:
        return Verdict(name, exhausted, bounds=bounds, stats=stats)
    witness, detail = found
    return Verdict(name, FAIL, witness=witness, bounds=bounds, stats=stats, detail=detail)


def _confirmed(found, what: str):
    """`found`, the presheaf path's re-test of an instance whose relational
    test failed.  If it is empty the two paths disagree on `what`, and this
    raises rather than let a search report the FAIL."""
    if not found:
        raise FinitoposError(f"relational and presheaf paths disagree on {what}")
    return found


# ---------------------------------------------------------------------------
# product preservation / exponential ideal (object level)


@lru_cache(maxsize=None)
def _graph_and_reflection(G: RefGraph, width: int = 1) -> tuple[tuple, tuple]:
    """(edge rows, LG rows) of G: its loops and extra edges as successor
    bitsets and their closure, with vertex t at bit t * width.  The product
    sweep reads G at width 1 and at the vertex count of each graph paired
    with it; it passes width 1 too, as (G,) is another key."""
    edges = _successor_rows(G.n, G.index_pairs(), width)
    return tuple(edges), tuple(_transitive_rows(edges[:], width))


def _product_rows_agree(G: RefGraph, H: RefGraph) -> bool:
    """L(G x H) = LG x LH on bitsets.  Vertex (i, j) is i * m + j for m = H.n.
    A row of G at width m times a bitset b < 2**m is their Kronecker product,
    with no carries, so the product's edge rows are G's rows at width m times
    H's rows.  Closed, row (i, j) must be the Kronecker product of LG i and LH j."""
    gedges, lg = _graph_and_reflection(G, H.n)
    hedges, lh = _graph_and_reflection(H, 1)
    return _transitive_rows([s * h for s in gedges for h in hedges]) == [s * h for s in lg for h in lh]


def _labelled_product_difference(PG: Presheaf, PH: Presheaf) -> dict:
    """{} if L(G x H) = LG x LH on vertex labels, else the relations only
    in L(G x H) (`only_left`) and only in LG x LH (`only_right`)."""
    LG, LH = reflect(PG), reflect(PH)
    left = transitive_closure(*_product_relation(PG, PH))
    right = frozenset(
        ((g1, h1), (g2, h2))
        for (g1, g2) in LG.rel for (h1, h2) in LH.rel
    )
    if left == right:
        return {}
    return {
        "only_left": sorted(map(repr, left - right)),
        "only_right": sorted(map(repr, right - left)),
    }


def product_reflection_agrees(G: RefGraph, H: RefGraph) -> tuple[bool, dict]:
    """L(G x H) vs LG x LH via the canonical vertex-identity comparison,
    decided on bitsets with no presheaf.  A disagreement is rerun through
    the presheaves, which name the relations; if they find none, raise."""
    if _product_rows_agree(G, H):
        return True, {}
    return False, _confirmed(_labelled_product_difference(G.presheaf(), H.presheaf()),
                             f"the product of G={G}, H={H}")


def check_product_preservation(max_v: int = 3, max_e: int = 4,
                               random_pairs: int = 0, random_max_v: int = 5,
                               seed: int = 20210521) -> Verdict:
    """Exhaustive over canonical graph pairs within bounds, plus optional
    deterministic pseudo-random pairs at a larger vertex bound.  Each pair
    is decided on bitsets, from each graph's rows built once per width (see
    `_graph_and_reflection`); a FAIL witness names G, H and the relations
    found only in L(G x H) (`only_left`) or only in LG x LH (`only_right`)."""
    import random as _random

    graphs = list(enumerate_graphs(max_v, max_e))
    exhaustive = {"max_v": max_v, "max_e": max_e}

    def pairs():
        """(G, H, the bounds a FAIL on them reports), exhaustive ones first."""
        for i, G in enumerate(graphs):
            for H in graphs[i:]:
                yield G, H, exhaustive
        sampled = dict(exhaustive, random_max_v=random_max_v)
        rng = _random.Random(seed)
        for _ in range(random_pairs):
            pair = []
            for _ in range(2):
                n = rng.randint(1, random_max_v)
                e = rng.randint(0, 2 * n)
                edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(e)]
                pair.append(RefGraph.of(n, edges))
            yield (*pair, sampled)

    tested = 0
    for G, H, bounds in pairs():
        tested += 1
        ok, info = product_reflection_agrees(G, H)
        if not ok:
            return Verdict("graph-product-preservation", FAIL,
                           witness={"kind": "graph-product",
                                    "G": G.to_json(), "H": H.to_json(), **info},
                           bounds=bounds, stats={"pairs": tested})
    return Verdict("graph-product-preservation", PASS,
                   bounds={"max_v": max_v, "max_e": max_e,
                           "random_pairs": random_pairs, "random_max_v": random_max_v},
                   stats={"pairs": tested, "graphs": len(graphs)})


def _exponential_rows(n: int, pairs, P: Preorder) -> list:
    """The edge relation of (F P)^G as successor bitsets, from G's vertex
    count n and its index `pairs`, its distinguished loops among them.  A
    vertex is a graph map G -> F P, i.e. an edge-respecting vertex map
    (a tuple of values, index j among `_edge_respecting_values`); an edge
    is a map from the walking edge times G, i.e. a pair (g0, g1) of them
    with g0(a) <= g1(b) for every arrow (a, b) of G.  F P has one edge per
    related pair, so each edge is determined by its ends.  above[b][p] is
    the bitset of the maps j with p <= g_j(b); row g0 is the AND, over G's
    distinct arrows (a, b), of above[b][g0(a)]."""
    rel = P.rel
    maps = _edge_respecting_values(range(n), pairs, P.carrier, rel)
    down = {q: [p for p in P.carrier if (p, q) in rel] for q in P.carrier}
    above = [dict.fromkeys(P.carrier, 0) for _ in range(n)]
    for j, g in enumerate(maps):
        bit = 1 << j
        for col, q in zip(above, g):
            for p in down[q]:
                col[p] |= bit
    arrows, full = list(dict.fromkeys(pairs)), (1 << len(maps)) - 1
    rows = []
    for g in maps:
        row = full
        for a, b in arrows:
            row &= above[b][g[a]]
        rows.append(row)
    return rows


def _exponential_violation(PG: Presheaf, FP: Presheaf, budget: Budget | None) -> str | None:
    """Why FP^PG, built by Nat enumeration, is not an embedded preorder, or
    None if it is one."""
    ok, why = is_embedded_preorder(exponential_presheaf(PG, FP, budget))
    return None if ok else why


def check_exponential_ideal_graphs(max_p: int = 3, max_v: int = 3, max_e: int = 4,
                                   budget: Budget | int | None = None) -> Verdict:
    """(embed P)^G is an embedded preorder for all preorders P and graphs G
    within bounds.  Each instance is tested on bitsets: it passes iff the
    rows of `_exponential_rows` are transitive.  Each graph is read as its
    vertex count and index pairs, built once for the sweep, so a sweep
    that passes builds no presheaf.  A FAIL is re-tested through
    `exponential_presheaf` and `is_embedded_preorder`
    (`_exponential_violation`, which replay runs too), whose violation the
    witness names; if the two disagree the sweep raises.  Each instance
    charges the budget once, so a budget bounds the whole sweep; the
    confirmation gets a budget of the same size."""
    def search(b):
        graphs = [(G, G.index_pairs()) for G in enumerate_graphs(max_v, max_e)]
        for P in enumerate_preorders(max_p):
            for G, pairs in graphs:
                b.charge()
                if not _is_transitive(_exponential_rows(G.n, pairs, P)):
                    why = _confirmed(
                        _exponential_violation(G.presheaf(), embed(P), b.sub("exponential")),
                        f"the exponential of P={P.carrier}, G={G}")
                    return {"kind": "graph-exponential", "P": P.to_json(), "G": G.to_json(),
                            "violation": why}, ""

    return _search("graph-exponential-ideal", budget,
                   {"max_p": max_p, "max_v": max_v, "max_e": max_e}, search, exhausted=PASS)


# ---------------------------------------------------------------------------
# semi-left-exactness failure search (the decisive certificate)


def _sle_relation_fails(P: Preorder, LX: Preorder, verts, pairs):
    """Test one candidate square from its pullback W's vertices and edge
    pairs alone: is L W, their reflexive-transitive closure, the preorder
    pullback of LX and P?  Returns None or failure data.  The test runs on
    successor bitsets over the vertices' indices; the relations are built
    only for a failure."""
    lx_rel, p_rel = LX.rel, P.rel
    n, index = len(verts), {v: i for i, v in enumerate(verts)}
    closure = _transitive_rows(_successor_rows(n, [(i, i) for i in range(n)]
                                               + [(index[a], index[b]) for a, b in pairs]))
    # pullback of preorders: pairs with matching images, componentwise order
    pullback = [sum([1 << j for j, (x2, p2) in enumerate(verts)
                     if (x1, x2) in lx_rel and (p1, p2) in p_rel]) for x1, p1 in verts]
    if closure == pullback:
        return None
    rel = transitive_closure(verts, pairs)
    pb_rel = frozenset((w1, w2) for w1 in verts for w2 in verts
                       if (w1[0], w2[0]) in lx_rel and (w1[1], w2[1]) in p_rel)
    missing = sorted(pb_rel - rel, key=canon_key)
    return {"missing": missing, "LW": Preorder(verts, rel), "pb_rel": pb_rel}


def _sle_instance_fails(P: Preorder, LX: Preorder, fu: PresheafMap, f: PresheafMap):
    """Test one candidate square, the pullback of f: X -> F Q along
    fu = F u: F P -> F Q, where LX = reflect(X), through the generic
    presheaf pullback; returns None or failure data."""
    W, _, _ = pullback_presheaf(f, fu)
    return _sle_relation_fails(P, LX, list(W.at["V"]), _edge_pairs(W))


def find_sle_failure(max_v: int = 4, max_e: int = 8,
                     budget: Budget | int | None = None) -> Verdict:
    """Search canonical pullback squares X -> F Q <- F P of graphs over
    embedded-preorder legs whose preorder reflection fails to be a pullback,
    ordered by total size nq + np + nx + ex, then by (nq, np, nx), then
    lexicographically, so the first hit is minimal.

    L reads only a graph's vertices and edges, so each square is tested on
    its pullback's vertices and edge pairs alone, and a hit is confirmed
    through the presheaf pullback (`_confirm_sle_hit`), from whose data the
    witness is built.  Given X and P, the pullback's vertex set decides the
    square, and u's fibers over w x, x by x, name that set: a square whose
    key already passed is charged and counted but not tested again.  Each
    input is built on first use and kept for the search, except the vertex
    maps X -> Q, which are built for all X of a size within one Q."""
    def search(b):
        # per size: (P, per (nx, ex) the keys of P's squares over each X that passed)
        preorders = [[(P, {}) for P in preorders_of_size(n)] for n in range(max_v + 1)]
        graphs: dict = {}  # (nx, ex) -> [(X, LX, vertices, edge pairs)]
        monotone: dict = {}  # (P, Q) -> the monotone maps P -> Q as value tuples
        fibers: dict = {}  # (P's carrier, Q's carrier, u's value tuple) -> u's fibers over Q
        for total in range(3 * max_v + max_e + 1):
            for nq, np_, nx in itertools.product(range(max_v + 1), repeat=3):
                ex = total - nq - np_ - nx
                if not 0 <= ex <= max_e:
                    continue
                if (nx, ex) not in graphs:
                    graphs[nx, ex] = [(X, reflect(PX), list(PX.at["V"]), _edge_pairs(PX))
                                      for X in graphs_of_size(nx, ex) for PX in [X.presheaf()]]
                xs = graphs[nx, ex]
                for Q, _ in preorders[nq]:
                    # per X, the edge-respecting maps X -> Q as value tuples, each
                    # with the function reading its key off u's fibers
                    maps = [[(wv, itemgetter(*wv) if wv else lambda fiber: ())
                             for wv in _edge_respecting_values(xv, xp, Q.carrier, Q.rel)]
                            for _, _, xv, xp in xs]
                    for P, passed in preorders[np_]:
                        if (P, Q) not in monotone:
                            monotone[P, Q] = [tuple(u.values()) for u in monotone_maps(P, Q)]
                        if (nx, ex) not in passed:
                            passed[nx, ex] = [set() for _ in xs]
                        for uv in monotone[P, Q]:
                            if (P.carrier, Q.carrier, uv) not in fibers:
                                fibers[P.carrier, Q.carrier, uv] = (
                                    dict.fromkeys(Q.carrier, ()) | _fibers(P.carrier, uv))
                            fiber = fibers[P.carrier, Q.carrier, uv]
                            for (X, LX, xv, xp), ws, seen in zip(xs, maps, passed[nx, ex]):
                                for wv, key_of in ws:
                                    b.charge()
                                    key = key_of(fiber)
                                    if key in seen:
                                        continue
                                    w = dict(zip(xv, wv))
                                    bad = _sle_relation_fails(
                                        P, LX, _pullback_vertices(xv, w, fiber),
                                        _pullback_edges(xp, w, fiber, P.rel))
                                    if bad is not None:
                                        u = dict(zip(P.carrier, uv))
                                        f, bad = _confirm_sle_hit(X, LX, P, Q, u, w, bad)
                                        return _sle_witness(X, P, Q, u, f, bad), ""
                                    seen.add(key)

    return _search("sle-failure-search", budget, {"max_v": max_v, "max_e": max_e}, search,
                   count="squares")


def _confirm_sle_hit(X, LX, P, Q, u, w, bad):
    """(f, failure data) for a square the relational test failed, re-tested
    through the generic presheaf pullback; raises FinitoposError if that
    finds no failure or different failure data."""
    FQ = embed(Q)
    f = _graph_map(X.presheaf(), FQ, w)
    confirmed = _sle_instance_fails(P, LX, embedded_map(u, embed(P), FQ), f)
    _confirmed(confirmed == bad, f"the square X={X}, P={P.carrier}, u={u}, f={w}")
    return f, confirmed


def _sle_witness(X, P, Q, u, f, bad) -> dict:
    from .report import elem_to_json

    # the projections are jointly injective on carriers, so the identity is
    # the only candidate mediator from the true preorder pullback; it works
    # iff it is monotone, i.e. iff no relation is missing
    return square_witness(
        {
            "kind": "graph-sle-square",
            "X": X.to_json(),
            "P": P.to_json(),
            "Q": Q.to_json(),
            "u": {k: elem_to_json(v) for k, v in sorted(u.items())},
            "f": {k: elem_to_json(f.components["V"](k))
                  for k in sorted(f.source.at["V"].elements)},
        },
        "g",
        {"missing_relations": [[elem_to_json(a), elem_to_json(b)] for a, b in bad["missing"]]},
        {"description": "the preorder pullback with its projections"},
        0 if bad["missing"] else 1,
    )


def replay_sle_square(w: dict) -> Verdict:
    """Replay a graph-sle-square witness: rebuild the square through the
    presheaf pullback and compare the missing relations and the mediator
    count with the claim."""
    from .report import elem_from_json

    sq = w["square"]
    X = RefGraph.from_json(sq["X"])
    P = Preorder.from_json(sq["P"])
    Q = Preorder.from_json(sq["Q"])
    u = {k: elem_from_json(v) for k, v in sq["u"].items()}
    PX = X.presheaf()
    fv = {k: elem_from_json(v) for k, v in sq["f"].items()}
    f = _graph_map(PX, embed(Q), fv).validate()
    bad = _sle_instance_fails(P, reflect(PX), embed_map(u, P, Q).validate(), f)
    if bad is None:
        return replay_refuted("square reflects to a pullback after all")
    claimed = {(elem_from_json(a), elem_from_json(b))
               for a, b in w["l_image"]["missing_relations"]}
    if claimed != set(bad["missing"]):
        return replay_refuted("missing-relation set differs from the claim")
    if w["analysis"]["count"] != (0 if bad["missing"] else 1):
        return replay_refuted("mediator count differs from the claim")
    return Verdict("witness-replay", PASS,
                   stats={"missing": [[repr(a), repr(b)] for a, b in bad["missing"]]})


def replay_product(w: dict) -> Verdict:
    """Replay a graph-product witness: L(G x H) must differ from LG x LH by
    exactly the claimed relations."""
    G, H = RefGraph.from_json(w["G"]), RefGraph.from_json(w["H"])
    ok, info = product_reflection_agrees(G, H)
    if ok:
        return replay_refuted("L(G x H) equals LG x LH after all")
    if [w["only_left"], w["only_right"]] != [info["only_left"], info["only_right"]]:
        return replay_refuted("only_left or only_right differs from the claim")
    return Verdict("witness-replay", PASS, stats=info)


def replay_exponential(w: dict) -> Verdict:
    """Replay a graph-exponential witness: (F P)^G, built by Nat enumeration,
    must not be an embedded preorder."""
    P = Preorder.from_json(w["P"])
    G = RefGraph.from_json(w["G"])
    why = _exponential_violation(G.presheaf(), embed(P), None)
    if why is None:
        return replay_refuted("exponential is an embedded preorder after all")
    return Verdict("witness-replay", PASS, stats={"violation": why})


def replay_pi(w: dict) -> Verdict:
    """Replay a graph-pi witness: its dependent product must not be an
    embedded preorder."""
    from .report import elem_from_json

    Y, X, Z = (Preorder.from_json(w[k]) for k in ("Y", "X", "Z"))
    f = {elem_from_json(a): elem_from_json(b) for a, b in w["f"]}
    g = {elem_from_json(a): elem_from_json(b) for a, b in w["g"]}
    why = _pi_violation(embed_map(f, X, Y).validate(), embed_map(g, Z, X).validate(), None)
    if why is None:
        return replay_refuted("dependent product is a preorder after all")
    return Verdict("witness-replay", PASS, stats={"violation": why})


def replay_sieve(w: dict) -> Verdict:
    """Replay a graph-sieve witness: F(L u) must not factor through u."""
    from .report import elem_from_json

    A0 = Preorder.from_json(w["A0"])
    B0 = RefGraph.from_json(w["B0"])
    uv = {k: elem_from_json(v) for k, v in w["u"].items()}
    PB, FA = B0.presheaf(), embed(A0)
    u = _graph_map(PB, FA, uv).validate()
    FLB = embed(reflect(PB))
    if _sieve_factors(u, FLB, nat_transformations(FLB, PB)):
        return replay_refuted("F(Lu) factors through u", factors=True)
    return Verdict("witness-replay", PASS, stats={"factors": False})


# ---------------------------------------------------------------------------
# dependent-product evidence search


def _pi_violation(ff: PresheafMap, fg: PresheafMap, budget: Budget | None) -> str | None:
    """Why the dependent product along ff of fg is not an embedded preorder,
    or None if it is one."""
    ok, why = is_embedded_preorder(dependent_product(ff, fg, budget).source)
    return None if ok else why


def _pi_instances(max_n: int):
    """Every (Y, X, f, Z, g) with monotone f: X -> Y and g: Z -> X among the
    preorders of size up to max_n, in the order find_pi_witness tests them."""
    pre = list(enumerate_preorders(max_n))
    for Y in pre:
        for X in pre:
            for f in monotone_maps(X, Y):
                for Z in pre:
                    for g in monotone_maps(Z, X):
                        yield Y, X, f, Z, g


def _pi_relation(Y: Preorder, X: Preorder, Z: Preorder, f: dict, g: dict):
    """(vertices, edge pairs) of Pi_f g for monotone f: X -> Y, g: Z -> X.
    A vertex over y is (y, s): s lists a section of g over the fiber
    f^-1(y), in the fiber's order, and is monotone on the fiber.  An edge
    pair (i, j) joins (y1, s1) to (y2, s2) iff y1 <= y2 and
    s1(a) <= s2(b) for every a <= b with a over y1 and b over y2.  F Z has
    one edge per related pair, so each edge is determined by its ends."""
    above: dict = {}
    for z in Z.carrier:
        above.setdefault(g[z], []).append(z)
    fibers = {y: [x for x in X.carrier if f[x] == y] for y in Y.carrier}
    # index pairs (p, q) with fibers[y1][p] <= fibers[y2][q] in X
    across = {(y1, y2): [(p, q) for p, a in enumerate(fibers[y1])
                         for q, b in enumerate(fibers[y2]) if (a, b) in X.rel]
              for (y1, y2) in Y.rel}
    zrel = Z.rel
    verts = [(y, s) for y, fb in fibers.items()
             for s in itertools.product(*[above.get(x, ()) for x in fb])
             if all((s[p], s[q]) in zrel for p, q in across[y, y])]
    return verts, [(i, j) for i, (y1, s1) in enumerate(verts)
                   for j, (y2, s2) in enumerate(verts)
                   if (y1, y2) in across
                   and all((s1[p], s2[q]) in zrel for p, q in across[y1, y2])]


def find_pi_witness(max_n: int = 3, budget: Budget | int | None = None) -> Verdict:
    """Look for monotone f: X -> Y, g: Z -> X whose dependent product taken in
    reflexive graphs is not an embedded preorder.  Evidence only; the decisive
    certificate is find_sle_failure.  Each instance is tested on relations:
    it passes iff the edge relation of `_pi_relation` is transitive.  A FAIL
    is re-tested through `dependent_product` and `is_embedded_preorder`
    (`_pi_violation`, which replay runs too), whose violation the witness
    names; if the two disagree the search raises.  Each instance charges
    the budget once; the confirmation gets a budget of the same size."""
    def search(b):
        for Y, X, f, Z, g in _pi_instances(max_n):
            b.charge()
            verts, edges = _pi_relation(Y, X, Z, f, g)
            if _is_transitive(_successor_rows(len(verts), edges)):
                continue
            why = _confirmed(_pi_violation(embed_map(f, X, Y), embed_map(g, Z, X),
                                           b.sub("dependent_product")),
                             f"the dependent product on Y={Y.carrier}, X={X.carrier}, "
                             f"Z={Z.carrier}, f={f}, g={g}")
            from .report import elem_to_json
            return {
                "kind": "graph-pi",
                "Y": Y.to_json(), "X": X.to_json(), "Z": Z.to_json(),
                "f": [[elem_to_json(a), elem_to_json(bv)] for a, bv in sorted(f.items())],
                "g": [[elem_to_json(a), elem_to_json(bv)] for a, bv in sorted(g.items())],
                "violation": why,
            }, "EVIDENCE: dependent products not inherited"

    return _search("pi-witness-search", budget, {"max_n": max_n}, search)


# ---------------------------------------------------------------------------
# sieve witness (hyperconnectedness remark)


def _sieve_factors(u: PresheafMap, FLB: Presheaf, nats: list) -> bool:
    """For the sieve generated by u: B0 -> F(A0), of which u is a member by
    definition: is F(L u) a member, i.e. does it factor through u?  FLB is
    embed(reflect(B0)) and nats is Nat(FLB, B0)."""
    flu = embedded_map(reflect_map(u), FLB, u.target).encoding()
    return any(w.then(u).encoding() == flu for w in nats)


def find_sieve_witness(max_n: int = 3, max_v: int = 3, max_e: int = 4,
                       budget: Budget | int | None = None) -> Verdict:
    """Search for a preorder A0, graph B0 and u: B0 -> F(A0) such that u lies
    in the sieve it generates but F(L u) does not.  Each graph's presheaf,
    vertices and edge pairs are built once per search, and F L B0 with
    Nat(F L B0, B0) once, at the first u out of B0."""
    def search(b):
        graphs = [(B0, PB, list(PB.at["V"]), _edge_pairs(PB))
                  for B0 in enumerate_graphs(max_v, max_e) for PB in [B0.presheaf()]]
        reflected: dict = {}  # B0 -> (F L B0, Nat(F L B0, B0))
        for A0 in enumerate_preorders(max_n):
            FA = embed(A0)
            for B0, PB, verts, pairs in graphs:
                for uv in _edge_respecting_maps(verts, pairs, FA.at["V"].elements, FA.at["E"]):
                    b.charge()
                    if B0 not in reflected:
                        FLB = embed(reflect(PB))
                        reflected[B0] = FLB, nat_transformations(FLB, PB)
                    if not _sieve_factors(_graph_map(PB, FA, uv), *reflected[B0]):
                        from .report import elem_to_json
                        u = {k: elem_to_json(val) for k, val in sorted(uv.items())}
                        return ({"kind": "graph-sieve", "A0": A0.to_json(), "B0": B0.to_json(),
                                 "u": u}, "u in its sieve, F(Lu) not")

    return _search("sieve-witness-search", budget,
                   {"max_n": max_n, "max_v": max_v, "max_e": max_e}, search)
