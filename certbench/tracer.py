"""Outside-in tracing of finitopos for the certificate benchmark.

`Tracer.install` replaces the public functions of finset, fincat, presheaf,
kan, graphpre, checks and report with wrappers, under every name a caller
looks them up by (a function imported into another module is replaced there
too).  A wrapper opens a span around the call; spans nest, each records its
parent, and a span's self time is its duration minus the time its child
spans cover.  Spans are aggregated per (parent, name) in memory.  Counters
the program keeps are read from outside: the budget's `spent` around each
`finset.limit`, the graph cache's `cache_info()`, the size of
`finset._canon_cache` and the items in each verdict's stats.

The program itself is not changed; the wrappers only observe.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (name, wrapped as): "function" patches a module attribute, "method" and
# "static" a class attribute, "generator" a generator function whose every
# step becomes a span.
TRACED = [
    ("finset.FinFn.of", "static"),
    ("finset.FinFn.then", "method"),
    ("finset.limit", "function"),
    ("fincat.build_category", "function"),
    ("fincat.FinCategory.__eq__", "method"),
    ("presheaf.Presheaf.of", "static"),
    ("presheaf.PresheafMap.of", "static"),
    ("presheaf.product_presheaf", "function"),
    ("presheaf.pullback_presheaf", "function"),
    ("presheaf.yoneda", "function"),
    ("presheaf.category_of_elements", "function"),
    ("presheaf.nat_transformations", "function"),
    ("presheaf.exponential", "function"),
    ("presheaf.dependent_product", "function"),
    ("kan.ran", "function"),
    ("kan.restrict", "function"),
    ("graphpre.embed", "function"),
    ("graphpre.embed_map", "function"),
    ("graphpre.graphs_of_size", "generator"),
    ("graphpre.vertex_maps_to_embedded", "function"),
    ("graphpre.monotone_maps", "function"),
    ("graphpre.preorder_reflection", "function"),
    ("graphpre.RefGraph.presheaf", "method"),
    ("graphpre.is_embedded_preorder", "function"),
    ("checks.reverify", "function"),
    ("report.make_report", "function"),
    ("report.check_report", "function"),
]

# functions whose only per-layer metric is self time
SELF_ONLY = {"checks.reverify", "report.make_report", "report.check_report"}

# sizes summed over a function's results: name -> (metric, size of one result)
SIZES = {
    "fincat.build_category": ("fincat.build_category.morphisms", lambda cat: len(cat.morphisms)),
    "presheaf.category_of_elements":
        ("presheaf.category_of_elements.objects", lambda el: len(el.category.objects)),
    "presheaf.nat_transformations": ("presheaf.nat_transformations.results", len),
}

# derived per-layer metrics beyond `.calls` and `.self_s`: (name, unit, better)
DERIVED = [
    ("finset.limit.nodes", "count", "lower"),
    ("finset.limit.families", "count", "lower"),
    ("finset.limit.families_per_node", "ratio", "higher"),
    ("finset.canon_cache.entries", "count", "lower"),
    ("fincat.build_category.morphisms", "count", "lower"),
    ("presheaf.category_of_elements.objects", "count", "lower"),
    ("presheaf.nat_transformations.results", "count", "lower"),
    ("kan.ran.yoneda_per_call", "count/call", "lower"),
    ("graphpre.embed.per_item", "count/item", "lower"),
    ("graphpre.preorder_reflection.per_item", "count/item", "lower"),
    ("graphpre.graph_cache.hits", "count", "higher"),
    ("graphpre.graph_cache.misses", "count", "lower"),
    ("graphpre.graph_cache.hit_ratio", "ratio", "higher"),
    ("graphpre.items", "count", "lower"),
]


def layer_metrics() -> list:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    out = []
    for name, _ in TRACED:
        if name not in SELF_ONLY:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + DERIVED


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [name, child seconds, start]
        self.calls: dict = defaultdict(int)
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> [n, total, self]
        self.counts: dict = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        frame = [name, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        dt = time.perf_counter() - frame[2]
        stack = self.stack
        stack.pop()
        parent = None
        if stack:
            stack[-1][1] += dt
            parent = stack[-1][0]
        rec = self.spans[(parent, frame[0])]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    def wrap(self, name, fn, after=None):
        calls, enter, exit_ = self.calls, self._enter, self._exit

        def traced(*args, **kwargs):
            calls[name] += 1
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        calls, enter, exit_ = self.calls, self._enter, self._exit

        def traced(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self, fp) -> None:
        """Wrap the functions in TRACED, given the imported finitopos package."""
        modules = [m for k, m in sys.modules.items() if k.startswith("finitopos.")]
        for name, kind in TRACED:
            mod_name, *path = name.split(".")
            owner = getattr(fp, mod_name)
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            attr = path[-1]
            if kind in ("method", "static"):
                raw = owner.__dict__[attr]
                fn = raw.__func__ if kind == "static" else raw
                new = self.wrap(name, fn)
                setattr(owner, attr, staticmethod(new) if kind == "static" else new)
                continue
            orig = getattr(owner, attr)
            if kind == "generator":
                new = self.wrap_generator(name, orig)
            else:
                new = self.wrap(name, orig, self._after(name))
            if name == "finset.limit":
                new = self._count_limit(new, fp.budget.ensure_budget)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)

    def _after(self, name):
        """Counter hook run on a traced function's result, if it has one."""
        counts = self.counts
        if name == "presheaf.yoneda":
            return self._count_yoneda_in_ran
        if name not in SIZES:
            return None
        key, size = SIZES[name]

        def add(result):
            counts[key] += size(result)
        return add

    def _count_yoneda_in_ran(self, _result):
        if any(frame[0] == "kan.ran" for frame in self.stack):
            self.counts["kan.ran.yoneda"] += 1

    def _count_limit(self, traced_limit, ensure_budget):
        """Charge `limit` through a budget object the wrapper can read, which
        is what `limit` itself does with an int or None budget."""
        counts = self.counts

        def limit(D, budget=None):
            b = ensure_budget(budget, "limit")
            before = b.spent
            try:
                lim, projs = traced_limit(D, b)
            finally:
                counts["finset.limit.nodes"] += b.spent - before
            counts["finset.limit.families"] += len(lim)
            return lim, projs

        limit.__wrapped__ = traced_limit
        return limit

    # -- per round -------------------------------------------------------------

    def end_round(self, fp, items: int) -> None:
        """Read the counters the program keeps; call before its caches are
        cleared for the next round."""
        info = fp.graphpre._graph_and_reflection.cache_info()
        self.counts["graphpre.graph_cache.hits"] += info.hits
        self.counts["graphpre.graph_cache.misses"] += info.misses
        self.counts["finset.canon_cache.entries"] += len(fp.finset._canon_cache)
        self.counts["graphpre.items"] += items

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round (every count is the same in each round
        of a run; times are the mean over its rounds)."""
        self_s: dict = defaultdict(float)
        for (_, name), (_, _, s) in self.spans.items():
            self_s[name] += s
        c, calls = self.counts, self.calls
        out = {}
        for name, _ in TRACED:
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        for key in ("finset.limit.nodes", "finset.limit.families", "finset.canon_cache.entries",
                    "graphpre.graph_cache.hits", "graphpre.graph_cache.misses",
                    "graphpre.items", *(k for k, _ in SIZES.values())):
            out[key] = c[key] / rounds
        nodes = c["finset.limit.nodes"]
        out["finset.limit.families_per_node"] = c["finset.limit.families"] / nodes if nodes else 0.0
        ran = calls["kan.ran"]
        out["kan.ran.yoneda_per_call"] = c["kan.ran.yoneda"] / ran if ran else 0.0
        items = c["graphpre.items"]
        for name in ("graphpre.embed", "graphpre.preorder_reflection"):
            out[f"{name}.per_item"] = calls[name] / items if items else 0.0
        lookups = c["graphpre.graph_cache.hits"] + c["graphpre.graph_cache.misses"]
        out["graphpre.graph_cache.hit_ratio"] = (
            c["graphpre.graph_cache.hits"] / lookups if lookups else 0.0)
        return out

    def span_table(self, rounds: int) -> list:
        """Aggregated spans, per round: parent, name, count, total_s, self_s."""
        return [{"parent": p, "name": n, "count": k / rounds, "total_s": t / rounds,
                 "self_s": s / rounds}
                for (p, n), (k, t, s) in sorted(self.spans.items(),
                                               key=lambda kv: -kv[1][2])]
