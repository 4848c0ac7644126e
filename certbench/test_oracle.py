"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest certbench

testdata/<workload>.json holds what a worker recorded for its checks at
seed 1.  Each checker accepts it as recorded and rejects it once one output
is corrupted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import oracle
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent


def recorded(workload: str) -> dict:
    return json.loads((HERE / "testdata" / f"{workload}.json").read_text())


@pytest.mark.parametrize("workload", sorted(oracle.CHECKS))
def test_recorded_outputs_pass(workload):
    assert oracle.CHECKS[workload](recorded(workload)) == []


def test_sle_rejects_a_dropped_missing_relation():
    out = recorded("sle-search")
    rep = out["report"]
    for w in (rep["witness"], rep["verdict"]["witness"]):
        w["l_image"]["missing_relations"].pop()
    rep["digest"] = oracle.report_digest(rep)
    problems = oracle.check_sle(out)
    assert len(problems) == 1 and problems[0].startswith("missing relations")


def test_sle_rejects_a_report_whose_digest_is_stale():
    out = recorded("sle-search")
    out["report"]["corpus_stats"]["squares"] += 1
    assert oracle.check_sle(out) == ["report digest does not match its body"]


def test_product_rejects_a_pair_count_off_by_one():
    out = recorded("product-sweep")
    out["verdict"]["stats"]["pairs"] += 1
    problems = oracle.check_product(out)
    assert len(problems) == 1 and problems[0].startswith("pairs")


def test_product_rejects_a_wrong_reflection():
    out = recorded("product-sweep")
    s = next(s for s in out["sample"] if len(s["rel"]) > 1)
    s["rel"].pop()
    assert len(oracle.check_product(out)) == 1


def test_exp_rejects_a_carrier_off_by_one():
    for key in ("EV", "EE"):
        out = recorded("exp-ideal")
        out["sample"][0][key] += 1
        problems = oracle.check_exp(out)
        assert len(problems) == 1 and problems[0].startswith("|E(V)|")


def test_pi_rejects_the_missing_transitive_edge_added():
    out = recorded("pi-witness")
    w = out["verdict"]["witness"]
    Y, X, Z = (oracle.preorder_of(w[k]) for k in ("Y", "X", "Z"))
    f = {oracle.untag(a): oracle.untag(b) for a, b in w["f"]}
    g = {oracle.untag(a): oracle.untag(b) for a, b in w["g"]}
    verts, edges = oracle.dependent_product_graph(Y, X, Z, f, g)
    missing = sorted(oracle.closure(verts, edges) - set(edges))
    assert missing and (out["pi"]["V"], out["pi"]["E"]) == (len(verts), len(edges))
    out["pi"]["E"] = len(edges + missing[:1])
    problems = oracle.check_pi(out)
    assert len(problems) == 1 and problems[0].startswith("Pi_f g has")


def test_pi_rejects_a_tested_count_off_by_one():
    out = recorded("pi-witness")
    out["verdict"]["stats"]["tested"] -= 1
    assert oracle.check_pi(out) == ["tested 278, expected 279"]


def test_independent_counts():
    assert [oracle.graphs_within(3, e) for e in (2, 3, 4)] == [26, 68, 178]
    assert [oracle.preorder_classes(n) for n in range(5)] == [1, 1, 3, 9, 33]  # A001930


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer_metrics()


def test_tracer_self_time_excludes_traced_children():
    t = Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = t.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        inner_t()
        inner_t()

    t.wrap("outer", outer)()
    (n_in, total_in, self_in) = t.spans[("outer", "inner")]
    (n_out, total_out, self_out) = t.spans[(None, "outer")]
    assert (t.calls["outer"], t.calls["inner"], n_in, n_out) == (1, 2, 2, 1)
    assert self_in == pytest.approx(total_in)
    assert self_out == pytest.approx(total_out - total_in)
    assert 0.005 < self_out < total_in
