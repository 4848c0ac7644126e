"""One workload of the certificate benchmark, in a fresh process.

    python3 certbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE

Imports finitopos from ROOT/src, builds the workload's inputs, then runs
whole rounds of its operations (calls to a certificate, a report or a
replay), each round with the program's caches cleared, starting another
round only while it is expected to end within SECONDS.  Each round's wall
time is also scaled to a reference machine speed (see SpeedProbe).
Afterwards it reads
the peak resident memory and makes the untimed calls the independent
checks need.  The last line of its standard output is one JSON object; with
TRACE=1 the program's public functions are wrapped (see tracer.py) and the
aggregated spans are also written to ROOT/certbench/out/.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

# Workload sizes; README.md says why each was chosen.
SLE_MAX_V, SLE_MAX_E = 3, 2
PRODUCT_MAX_V, PRODUCT_MAX_E, PRODUCT_RANDOM, PRODUCT_RANDOM_MAX_V = 3, 3, 100, 5
EXP_MAX_P, EXP_MAX_V, EXP_MAX_E = 2, 3, 2
PI_MAX_N = 2
# untimed samples the independent checks recompute
PRODUCT_SAMPLE, EXP_SAMPLE = 8, 8
# speed probe: one sample every PROBE_EVERY_S of wall time; a round's time is
# scaled to the speed at which one probe takes REFERENCE_PROBE_S
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 4e-4


def import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import finitopos
    import finitopos.cli  # noqa: F401  (imports every layer the workloads use)

    if Path(finitopos.__file__).resolve().parent != (src / "finitopos").resolve():
        raise SystemExit(f"finitopos imported from {finitopos.__file__}, not from {src}")
    return finitopos


def clear_caches(fp) -> None:
    """Every round starts cold, as a user's command does."""
    fp.finset._canon_cache.clear()
    fp.graphpre._graph_and_reflection.cache_clear()
    fp.graphpre.base.cache_clear()


def _probe() -> int:
    """Fixed interpreter work that owes nothing to finitopos: dict and tuple
    traffic, then integer arithmetic."""
    d: dict = {}
    for i in range(400):
        k = (i & 31, "v%d" % (i & 7))
        d[k] = d.get(k, 0) + 1
    s = len(sorted(d))
    for i in range(2000):
        s += i * i
    return s


class SpeedProbe:
    """Measures how fast the machine runs Python while a round runs.

    The speed of a shared machine swings by a third or more within seconds
    and between minutes, so raw round times of the same work differ as much.
    While a round runs, a SIGALRM handler times `_probe` every PROBE_EVERY_S
    seconds; `scale` is REFERENCE_PROBE_S over the mean probe time, which
    turns the round's wall time into the wall time at the reference speed.
    The probe never calls the program, so a faster program still shows."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame):
        # a collection of the program's heap must not land in a sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _probe()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.samples) if self.samples else 1.0


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs are made in __init__ from the seed; `run` makes one round of
    OPS operations and returns (outputs, failed operations, items);
    `check_data` makes the untimed calls the independent checks need."""

    OPS = 1

    def __init__(self, fp, seed: int, out_dir: Path):
        self.fp, self.seed = fp, seed

    def check_data(self, out: dict) -> dict:
        return out


class SleSearch(Workload):
    """`finitopos search sle-failure` to a report file, then `replay` of it."""

    OPS = 2

    def __init__(self, fp, seed, out_dir):
        super().__init__(fp, seed, out_dir)
        self.report = out_dir / f"sle-{os.getpid()}.json"
        self.search = ["search", "sle-failure", "--max-vertices", str(SLE_MAX_V),
                       "--max-edges", str(SLE_MAX_E), "--expect", "found",
                       "--out", str(self.report)]
        self.replay = ["replay", str(self.report)]

    def run(self):
        main = self.fp.cli.main
        with redirect_stdout(io.StringIO()) as s1:
            search_rc = main(self.search)
        with redirect_stdout(io.StringIO()) as s2:
            replay_rc = main(self.replay)
        report = json.loads(self.report.read_text())
        out = {"search_rc": search_rc, "search_stdout": s1.getvalue(),
               "replay_rc": replay_rc, "replay_stdout": s2.getvalue(), "report": report}
        failed = (search_rc != 0) + (replay_rc != 0)
        return out, failed, report["verdict"]["stats"].get("squares", 0)

    def check_data(self, out):
        self.report.unlink()
        return out


class ProductSweep(Workload):
    """`graphpre.check_product_preservation`: exhaustive pairs plus random
    pairs drawn by the program from the benchmark's seed."""

    def run(self):
        v = self.fp.graphpre.check_product_preservation(
            max_v=PRODUCT_MAX_V, max_e=PRODUCT_MAX_E, random_pairs=PRODUCT_RANDOM,
            random_max_v=PRODUCT_RANDOM_MAX_V, seed=self.seed)
        return {"verdict": v.to_json()}, 0, v.stats.get("pairs", 0)

    def check_data(self, out):
        gp, ps = self.fp.graphpre, self.fp.presheaf
        rng = random.Random(self.seed)
        graphs = list(gp.enumerate_graphs(PRODUCT_MAX_V, PRODUCT_MAX_E))
        pairs = [tuple(graphs[i] for i in sorted(rng.sample(range(len(graphs)), 2)))
                 for _ in range(PRODUCT_SAMPLE - 2)]
        for _ in range(2):
            pair = []
            for _ in range(2):
                n = rng.randint(1, PRODUCT_RANDOM_MAX_V)
                pair.append(gp.RefGraph.of(n, [(rng.randrange(n), rng.randrange(n))
                                               for _ in range(rng.randint(0, 2 * n))]))
            pairs.append(tuple(pair))
        sample = []
        for G, H in pairs:
            prod, _, _ = ps.product_presheaf(G.presheaf(), H.presheaf())
            L, _ = gp.preorder_reflection(prod)
            sample.append({"G": G.to_json(), "H": H.to_json(), "rel": sorted(L.rel)})
        return dict(out, max_v=PRODUCT_MAX_V, max_e=PRODUCT_MAX_E,
                    random_pairs=PRODUCT_RANDOM, sample=sample)


class ExpIdeal(Workload):
    """`graphpre.check_exponential_ideal_graphs`."""

    def run(self):
        v = self.fp.graphpre.check_exponential_ideal_graphs(
            max_p=EXP_MAX_P, max_v=EXP_MAX_V, max_e=EXP_MAX_E)
        return {"verdict": v.to_json()}, 0, v.stats.get("tested", 0)

    def check_data(self, out):
        gp = self.fp.graphpre
        rng = random.Random(self.seed)
        pre = list(gp.enumerate_preorders(EXP_MAX_P))
        graphs = list(gp.enumerate_graphs(EXP_MAX_V, EXP_MAX_E))
        sample = []
        for _ in range(EXP_SAMPLE):
            P, G = rng.choice(pre), rng.choice(graphs)
            E, _ = self.fp.presheaf.exponential(G.presheaf(), gp.embed(P))
            sample.append({"P": P.to_json(), "G": G.to_json(),
                           "EV": len(E.at["V"]), "EE": len(E.at["E"])})
        return dict(out, max_p=EXP_MAX_P, max_v=EXP_MAX_V, max_e=EXP_MAX_E, sample=sample)


class PiWitness(Workload):
    """`graphpre.find_pi_witness`: dependent products through `kan.ran`."""

    def run(self):
        v = self.fp.graphpre.find_pi_witness(max_n=PI_MAX_N)
        return {"verdict": v.to_json()}, 0, v.stats.get("tested", 0)

    def check_data(self, out):
        fp = self.fp
        w = out["verdict"]["witness"]
        pi = {"V": None, "E": None}
        if w is not None:
            pre = fp.graphpre.Preorder.from_json
            el = fp.report.elem_from_json
            Y, X, Z = pre(w["Y"]), pre(w["X"]), pre(w["Z"])
            f = {el(a): el(b) for a, b in w["f"]}
            g = {el(a): el(b) for a, b in w["g"]}
            W = fp.presheaf.dependent_product(fp.graphpre.embed_map(f, X, Y),
                                              fp.graphpre.embed_map(g, Z, X)).source
            pi = {"V": len(W.at["V"]), "E": len(W.at["E"])}
        return dict(out, max_n=PI_MAX_N, pi=pi)


WORKLOADS = {
    "sle-search": SleSearch,
    "product-sweep": ProductSweep,
    "exp-ideal": ExpIdeal,
    "pi-witness": PiWitness,
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def main(argv) -> int:
    root, name, seed, seconds, trace = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    fp = import_program(root)
    out_dir = root / "certbench" / "out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[name](fp, seed, out_dir)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(fp)

    # the probe would add its samples to the traced spans' self time
    probe = SpeedProbe() if tracer is None else None
    t_first = time.monotonic()
    round_s, scaled_s, digests, ops, failed = [], [], [], 0, 0
    first = None
    while not round_s or sum(round_s) + statistics.median(round_s) <= seconds:
        clear_caches(fp)
        with probe or nullcontext():
            t0 = time.perf_counter()
            out, n_failed, items = workload.run()
            round_s.append(time.perf_counter() - t0)
        if probe is not None:
            scaled_s.append(round_s[-1] * probe.scale())
        ops += workload.OPS
        failed += n_failed
        digests.append(digest(out))
        if first is None:
            first = out
        if tracer is not None:
            tracer.end_round(fp, items)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"t_first": t_first, "round_s": round_s, "scaled_s": scaled_s,
              "attempted": ops, "failed": failed,
              "peak_rss_kib": peak_kib, "digests": digests}
    if tracer is not None:
        rounds = len(round_s)
        result["layers"] = tracer.metrics(rounds)
        (out_dir / f"trace-{name}-{seed}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "rounds": rounds, "round_s": round_s,
             "layers": result["layers"], "spans": tracer.span_table(rounds)}, indent=1))
    clear_caches(fp)
    result["check"] = workload.check_data(first)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
