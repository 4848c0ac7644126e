"""Command-line contract: exit codes, reports, replay."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from finitopos import report
from finitopos.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


GOOD_DSL = """
category C {
  objects: a, b;
  generators: f : a -> b;
  close: 4;
}
"""

BAD_DSL = """
functor F : C1 -> C2 {
  objects: a -> b;
}
"""


@pytest.fixture
def dsl_file(tmp_path):
    p = tmp_path / "good.fcs"
    p.write_text(GOOD_DSL)
    return p


def test_validate_ok(dsl_file, capsys):
    assert main(["validate", str(dsl_file)]) == EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_validate_diagnostics_exit(tmp_path, capsys):
    p = tmp_path / "bad.fcs"
    p.write_text(BAD_DSL)
    code = main(["validate", str(p), "--expect", "pass"])
    assert code == EXIT_MISMATCH
    assert "UnresolvedIdentifier" in capsys.readouterr().err


def test_validate_fixture(capsys):
    assert main(["validate", "--fixture", "lattice-3-2"]) == EXIT_OK


def test_unknown_fixture_is_usage_error(capsys):
    assert main(["check", "sle", "--fixture", "no-such"]) == EXIT_USAGE


def test_missing_args_is_usage_error(capsys):
    assert main(["validate"]) == EXIT_USAGE
    assert main(["kan", "restrict"]) == EXIT_USAGE


def test_check_pass_and_expect(capsys):
    assert main(["check", "sle", "--fixture", "lattice-3-2"]) == EXIT_OK
    assert main(["check", "sle", "--fixture", "lattice-3-2",
                 "--expect", "pass"]) == EXIT_OK
    assert main(["check", "sle", "--fixture", "lattice-3-2",
                 "--expect", "fail"]) == EXIT_MISMATCH


def test_check_locally_connected_bound_zero_is_kept(tmp_path, capsys):
    # --bound 0 names the empty square space; it must not fall back to 200
    out = tmp_path / "r.json"
    assert main(["check", "locally-connected", "--fixture", "lattice-3-2",
                 "--bound", "0", "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["verdict"]["stats"]["squares"] == 0
    assert rep["bounds"] == {"fixture": "lattice-3-2", "bound": 0}


def test_check_inconclusive_exit(capsys):
    # delta1 lacks the products needed for the exponential-ideal sub-check
    assert main(["check", "exp-ideal", "--fixture", "delta1"]) == EXIT_INCONCLUSIVE


def test_check_lcc_fail_expected(capsys):
    assert main(["check", "lcc", "--fixture", "m3", "--expect", "fail"]) == EXIT_OK
    assert main(["check", "lcc", "--fixture", "bool-2", "--expect", "pass"]) == EXIT_OK


def test_kan_restrict_representable(capsys):
    code = main(["kan", "restrict", "--fixture", "lattice-3-2",
                 "--representable", "c0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert '"at"' in out  # the presheaf itself is printed as JSON


def test_exp_command(tmp_path, capsys):
    p = tmp_path / "exp.fcs"
    p.write_text(GOOD_DSL + """
presheaf X on C {
  at a: x;
  at b: y;
  act f: y -> x;
}
presheaf Y on C {
  at a: u;
  at b: v;
  act f: v -> u;
}
""")
    assert main(["exp", str(p), "--x", "X", "--y", "Y"]) == EXIT_OK


def test_report_roundtrip_through_replay(tmp_path, capsys):
    out = tmp_path / "lcc.json"
    assert main(["check", "lcc", "--fixture", "m3", "--expect", "fail",
                 "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["schema_version"] == 1
    report.check_report(rep)  # digest and schema validate
    assert main(["replay", str(out)]) == EXIT_OK
    assert main(["replay", str(out), "--expect", "pass"]) == EXIT_OK


def test_replay_detects_tampering(tmp_path, capsys):
    out = tmp_path / "lcc.json"
    main(["check", "lcc", "--fixture", "m3", "--out", str(out),
          "--expect", "fail"])
    rep = json.loads(out.read_text())
    rep["bounds"]["fixture"] = "something-else"
    out.write_text(json.dumps(rep))
    assert main(["replay", str(out)]) == EXIT_USAGE  # digest mismatch
    err = capsys.readouterr().err
    assert "digest" in err.lower()


def test_replay_garbage_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["replay", str(p)]) == EXIT_USAGE


def test_search_found_report_and_replay(tmp_path, capsys):
    out = tmp_path / "sle.json"
    code = main(["search", "sle-failure", "--max-vertices", "3",
                 "--max-edges", "2", "--expect", "found", "--out", str(out)])
    assert code == EXIT_OK
    assert main(["replay", str(out)]) == EXIT_OK
    # replay twice: deterministic
    assert main(["replay", str(out)]) == EXIT_OK


def test_search_not_found(capsys):
    code = main(["search", "sle-failure", "--max-vertices", "1",
                 "--max-edges", "1", "--expect", "not-found"])
    assert code == EXIT_OK
    code = main(["search", "sle-failure", "--max-vertices", "1",
                 "--max-edges", "1", "--expect", "found"])
    assert code == EXIT_MISMATCH


def test_search_budget_exhaustion_is_inconclusive(capsys):
    code = main(["search", "sle-failure", "--budget", "10"])
    assert code == EXIT_INCONCLUSIVE


def test_pi_search_budget_exhaustion_writes_an_inconclusive_report(tmp_path, capsys):
    out = tmp_path / "pi.json"
    code = main(["search", "pi-witness", "--bound", "2", "--budget", "40", "--out", str(out)])
    assert code == EXIT_INCONCLUSIVE
    rep = json.loads(out.read_text())
    assert rep["verdict"]["outcome"] == "INCONCLUSIVE"
    assert rep["bounds"] == {"budget": 40, "max_n": 2}
    assert rep["corpus_stats"] == {"tested": 40}


def test_check_locally_connected_spends_its_budget(capsys):
    assert main(["check", "locally-connected", "--fixture", "lattice-3-2"]) == EXIT_OK
    assert main(["check", "locally-connected", "--fixture", "lattice-3-2",
                 "--budget", "1"]) == EXIT_INCONCLUSIVE


def test_check_locally_connected_out_of_budget_writes_its_report(tmp_path, capsys):
    """A budget that runs out gives the graph searches' INCONCLUSIVE verdict,
    and the report is written before the command exits 3."""
    out = tmp_path / "r.json"
    assert main(["check", "locally-connected", "--fixture", "lattice-3-2",
                 "--budget", "1", "--out", str(out)]) == EXIT_INCONCLUSIVE
    verdict = json.loads(out.read_text())["verdict"]
    assert verdict["outcome"] == "INCONCLUSIVE"
    assert verdict["bounds"] == {"squares": 200, "carrier": 1, "budget": 1}
    assert verdict["stats"] == {"steps": 1}
    assert verdict["detail"] == "budget exhausted before the space was covered"


@pytest.mark.parametrize("argv", [
    ["validate", "--fixture", "chain-2", "--budget", "1"],
    ["replay", "report.json", "--budget", "1"],
    ["check", "sle", "--fixture", "lattice-3-2", "--budget", "1"],
])
def test_budget_on_a_command_that_spends_none_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "--budget" in capsys.readouterr().err


def test_main_calls_share_one_parser_but_not_arguments(tmp_path, capsys):
    from finitopos.cli import build_parser
    assert build_parser() is build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["validate", "--fixture", "lattice-3-2", "--out", str(first)]) == EXIT_OK
    assert main(["validate", "--fixture", "chain-2", "--out", str(second)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("fixture lattice-3-2: OK") == 1 and out.count("fixture chain-2: OK") == 1
    assert json.loads(second.read_text())["corpus_stats"] == {"checked": 1, "problems": 0}


@pytest.mark.parametrize("argv", [
    ["search", "sle-failure", "--max-vertices", "-1"],
    ["search", "sle-failure", "--max-edges", "-1"],
    ["search", "pi-witness", "--bound", "-1"],
    ["search", "sieve-witness", "--max-vertices", "-1"],
    ["check", "sle", "--fixture", "lattice-3-2", "--bound", "-1"],
])
def test_negative_bound_is_usage_error(argv, capsys):
    # a negative bound names an empty space, which a search would then
    # claim to have exhausted
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "NOT-FOUND" not in out and "PASS" not in out
    assert "error:" in err and "non-negative integer" in err


@pytest.mark.parametrize("option", ["--carrier-bound", "--max-vertices", "--max-edges",
                                    "--graph-bound"])
def test_certificate_script_rejects_a_negative_bound(option):
    """scripts/run_certificates.py parses its bounds as the CLI does: a
    negative one is a usage error before any certificate runs."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_certificates.py"
    done = subprocess.run([sys.executable, str(script), option, "-1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert "non-negative integer" in done.stderr


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_budget_is_usage_error(value, capsys):
    assert main(["search", "sle-failure", "--budget", value]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "INCONCLUSIVE" not in out
    assert "error:" in err and "positive integer" in err


def test_pi_command_roundtrip(tmp_path, capsys):
    from finitopos import fixtures
    from finitopos.presheaf import PresheafMap, nat_transformations, terminal_presheaf, yoneda
    C = fixtures.get_category("chain-2")
    X = yoneda(C, "c1")
    Z = yoneda(C, "c0")
    g = nat_transformations(Z, X)[0]
    f = PresheafMap.identity(X)
    p = tmp_path / "maps.json"
    p.write_text(json.dumps({"f": report.presheaf_map_to_json(f),
                             "g": report.presheaf_map_to_json(g)}))
    assert main(["pi", str(p)]) == EXIT_OK


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK


def _report_file(tmp_path, name, witness):
    """A report with a valid digest around the given witness."""
    from finitopos.verdicts import FAIL, Verdict
    rep = report.make_report(command="search", bounds={},
                             verdict=Verdict("witness-search", FAIL, witness=witness),
                             witness=witness)
    p = tmp_path / name
    p.write_text(json.dumps(rep))
    return p


def _pre(carrier, rel=()):
    from finitopos.graphpre import Preorder
    return Preorder.of(carrier, rel).to_json()


def _e(s):
    return ["s", s]


# a graph-pi witness whose f: X -> Y is not monotone (v0 <= v1 in X, not in Y),
# and a graph-sle-square witness whose f sends the edge v0 -> v1 of X to a
# pair the discrete Q does not relate
BAD_DATA_WITNESSES = {
    "graph-pi": {
        "kind": "graph-pi",
        "Y": _pre(["v0", "v1"]), "X": _pre(["v0", "v1"], [("v0", "v1")]),
        "Z": _pre(["v0"]),
        "f": [[_e("v0"), _e("v0")], [_e("v1"), _e("v1")]],
        "g": [[_e("v0"), _e("v0")]],
    },
    "graph-sle-square": {
        "square": {
            "kind": "graph-sle-square",
            "X": {"n": 2, "edges": [[0, 1]]},
            "P": _pre(["v0"]), "Q": _pre(["v0", "v1"]),
            "u": {"v0": _e("v0")},
            "f": {"v0": _e("v0"), "v1": _e("v1")},
        },
        "f_image_leg": "g", "l_image": {"missing_relations": []}, "analysis": None,
    },
}


@pytest.mark.parametrize("kind", sorted(BAD_DATA_WITNESSES))
def test_replay_rejects_witness_built_from_bad_data(tmp_path, capsys, kind):
    p = _report_file(tmp_path, "bad.json", BAD_DATA_WITNESSES[kind])
    assert main(["replay", str(p)]) == EXIT_USAGE
    assert "PASS" not in capsys.readouterr().out


@pytest.mark.parametrize("graph", [
    {"n": True, "edges": [[0, 0]]},
    {"n": 2, "edges": [[True, 1]]},
    {"n": 2.5, "edges": []},
    {"n": "2", "edges": []},
    {"n": 2, "edges": [[0.0, 1]]},
    {"n": 2, "edges": [[0, 1], ["a", 0]]},
    {"n": 2, "edges": [[0, 1, 1]]},
    {"n": 2, "edges": 5},
])
def test_replay_rejects_a_graph_count_or_index_that_is_not_an_int(tmp_path, capsys, graph):
    from finitopos import checks
    from finitopos.errors import InvalidStructure
    w = {"kind": "graph-product", "G": graph, "H": {"n": 1, "edges": []},
         "only_left": [], "only_right": []}
    with pytest.raises(InvalidStructure, match="not an int|not a pair"):
        checks.reverify(w)
    assert main(["replay", str(_report_file(tmp_path, "g.json", w))]) == EXIT_USAGE
    assert "PASS" not in capsys.readouterr().out


@pytest.mark.parametrize("elem", [["i", 2.7], ["i", True], ["i", "3"], ["s", 5], ["t", 5]])
def test_replay_rejects_an_element_whose_value_does_not_fit_its_tag(tmp_path, capsys, elem):
    """A graph-exponential witness whose P names such an element is refused,
    not replayed on a coerced one."""
    from finitopos import checks
    from finitopos.errors import InvalidStructure
    w = {"kind": "graph-exponential", "P": {"carrier": [elem], "rel": []},
         "G": {"n": 0, "edges": []}, "violation": "x"}
    with pytest.raises(InvalidStructure, match="does not fit"):
        checks.reverify(w)
    assert main(["replay", str(_report_file(tmp_path, "e.json", w))]) == EXIT_USAGE
    assert "PASS" not in capsys.readouterr().out


def test_importing_the_cli_leaves_the_dsl_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, finitopos.cli; print('finitopos.dsl' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("witness,field", [
    ({"kind": "graph-pi"}, "'Y'"),
    ({"kind": "graph-sle-square"}, "'square'"),
    ({"square": 3}, "malformed witness"),
    ({"kind": "graph-exponential"}, "'P'"),
    ({"kind": "graph-product", "G": {"n": 1, "edges": []}}, "'H'"),
])
def test_replay_malformed_witness_names_report_and_field(tmp_path, capsys, witness, field):
    p = _report_file(tmp_path, "malformed.json", witness)
    assert main(["replay", str(p)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(p) in err and field in err
    assert "fixture" not in err
