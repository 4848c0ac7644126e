"""Command-line surface: run validators, Kan extensions, checkers and witness
searches; emit versioned JSON reports; replay witnesses.

Exit codes: 0 = conclusive result as requested, 1 = ``--expect`` mismatch,
2 = usage or parse error, 3 = INCONCLUSIVE / budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import checks, fixtures, graphpre, kan, report
from .budget import Budget
from .errors import BudgetExceeded, FinitoposError, InvalidStructure, NonUnique
from .fincat import check_adjunction
from .presheaf import dependent_product, exponential_presheaf, yoneda
from .verdicts import FAIL, INCONCLUSIVE, NOT_FOUND, PASS, Verdict

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _int_from(least: int, what: str):
    """argparse type for an integer >= least: a negative bound names an empty
    space that a search would claim to have exhausted, and a budget below 1
    is spent before any work is done."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as a usage error
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value
    return integer


_SIZE = _int_from(0, "non-negative")
_POSITIVE = _int_from(1, "positive")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser.  Parsing leaves it unchanged (`--fixture`'s
    append action copies its default), so no call sees another's arguments."""
    p = argparse.ArgumentParser(
        prog="finitopos",
        description="exact finite-category workbench: validators, Kan extensions, "
                    "reflection checkers and counterexample searches",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, budget=True):
        """--expect and --out, and --budget on the subcommands that spend one."""
        if budget:
            sp.add_argument("--budget", type=_POSITIVE, default=None,
                            help="enumeration step budget (default from FINITOPOS_BUDGET "
                                 "or 10^6)")
        sp.add_argument("--expect", choices=["pass", "fail", "found", "not-found"],
                        default=None, help="assert the outcome; mismatches exit 1")
        sp.add_argument("--out", type=Path, default=None, help="write a JSON report here")

    sp = sub.add_parser("validate", help="parse and validate DSL files or fixtures")
    sp.add_argument("files", nargs="*", type=Path)
    sp.add_argument("--fixture", action="append", default=[],
                    help="validate a built-in fixture by name (repeatable)")
    common(sp, budget=False)

    sp = sub.add_parser("kan", help="restriction and Kan extensions")
    sp.add_argument("which", choices=["restrict", "lan", "ran"])
    sp.add_argument("--functor", type=Path, help="DSL file declaring the functor")
    sp.add_argument("--name", default=None, help="functor name inside the file")
    sp.add_argument("--fixture", default=None,
                    help="use the L of a built-in reflection fixture instead of a file")
    sp.add_argument("--presheaf", type=Path, default=None,
                    help="DSL file declaring the input presheaf")
    sp.add_argument("--psh-name", default=None, help="presheaf name inside the file")
    sp.add_argument("--representable", default=None,
                    help="use the representable presheaf of this object instead of a file")
    common(sp)

    sp = sub.add_parser("exp", help="presheaf exponential Y^X from a DSL file")
    sp.add_argument("file", type=Path, help="DSL file declaring base and presheaves")
    sp.add_argument("--x", required=True, help="exponent presheaf name")
    sp.add_argument("--y", required=True, help="base presheaf name")
    common(sp)

    sp = sub.add_parser("pi", help="dependent product along serialized presheaf maps")
    sp.add_argument("file", type=Path,
                    help='JSON file {"f": <presheaf map>, "g": <presheaf map>}')
    common(sp)

    sp = sub.add_parser("check", help="adjunction-property checkers")
    sp.add_argument("which", choices=["adjunction", "frobenius", "sle", "stable-units",
                                      "exp-ideal", "locally-connected", "lcc"])
    sp.add_argument("--fixture", required=True,
                    help="reflection fixture (category fixture for lcc)")
    sp.add_argument("--bound", type=_SIZE, default=None, help="pair/square enumeration bound")
    sp.add_argument("--carrier-bound", type=_SIZE, default=1,
                    help="presheaf corpus carrier bound (locally-connected)")
    common(sp)

    sp = sub.add_parser("search", help="counterexample searches on reflexive graphs")
    sp.add_argument("which", choices=["sle-failure", "pi-witness", "sieve-witness"])
    sp.add_argument("--max-vertices", type=_SIZE, default=None)
    sp.add_argument("--max-edges", type=_SIZE, default=None)
    sp.add_argument("--bound", type=_SIZE, default=None,
                    help="preorder size bound (pi/sieve searches)")
    common(sp)

    sp = sub.add_parser("replay", help="re-verify a witness report from its own data")
    sp.add_argument("file", type=Path)
    common(sp, budget=False)

    return p


# ---------------------------------------------------------------------------
# helpers


def _load_dsl(path: Path) -> dsl.Resolved:
    from . import dsl  # imported here: only DSL-reading commands need it

    try:
        text = path.read_text()
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e}")
    ast = dsl.parse(text)
    resolved, diags = dsl.resolve(ast)
    if diags:
        for d in diags:
            print(f"{path}:{d}", file=sys.stderr)
        raise _Usage(f"{len(diags)} diagnostic(s) in {path}")
    return resolved


class _Usage(Exception):
    pass


def _expect_exit(verdict: Verdict, expect: str | None) -> int:
    if verdict.outcome == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    if expect is None:
        return EXIT_OK
    want = {
        "pass": PASS,
        "fail": FAIL,
        "found": FAIL,        # searches report a found witness as FAIL
        "not-found": NOT_FOUND,
    }[expect]
    return EXIT_OK if verdict.outcome == want else EXIT_MISMATCH


def _emit(args, verdict: Verdict, bounds: dict) -> int:
    print(verdict.summary())
    rep = report.make_report(
        command=_command_line(args),
        bounds=bounds,
        verdict=verdict,
        witness=verdict.witness,
        corpus_stats=verdict.stats,
    )
    if args.out is not None:
        args.out.write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    return _expect_exit(verdict, args.expect)


def _command_line(args) -> str:
    parts = [args.command]
    if getattr(args, "which", None):
        parts.append(args.which)
    return " ".join(parts)


def _single(d: dict, kind: str, name: str | None):
    if name is not None:
        if name not in d:
            raise _Usage(f"no {kind} named {name!r} in file")
        return name, d[name]
    if len(d) != 1:
        raise _Usage(f"file declares {len(d)} {kind}s; pick one with --name")
    return next(iter(d.items()))


def _presheaf_summary(X) -> dict:
    return {o: len(X.at[o]) for o in X.base.objects}


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    from . import dsl

    problems = 0
    checked = 0
    for path in args.files:
        checked += 1
        try:
            text = path.read_text()
        except OSError as e:
            print(f"{path}: unreadable: {e}", file=sys.stderr)
            problems += 1
            continue
        ast = dsl.parse(text)
        _, diags = dsl.resolve(ast)
        for d in diags:
            print(f"{path}:{d}", file=sys.stderr)
        problems += bool(diags)
        if not diags:
            print(f"{path}: OK ({len(ast.decls)} declaration(s))")
    for name in args.fixture:
        checked += 1
        try:
            if name in fixtures.FIXTURE_REFLECTIONS:
                fixtures.get_reflection(name)
            else:
                fixtures.get_category(name)
            print(f"fixture {name}: OK")
        except FinitoposError as e:
            print(f"fixture {name}: {e}", file=sys.stderr)
            problems += 1
    if checked == 0:
        raise _Usage("nothing to validate: give files or --fixture")
    outcome = PASS if problems == 0 else FAIL
    verdict = Verdict("validate", outcome,
                      witness={"kind": "validate", "problems": problems} if problems else None,
                      stats={"checked": checked, "problems": problems})
    return _emit(args, verdict, bounds={})


def _kan_inputs(args):
    if args.fixture:
        R = fixtures.get_reflection(args.fixture)
        L = R.L
    elif args.functor:
        resolved = _load_dsl(args.functor)
        _, L = _single(resolved.functors, "functor", args.name)
    else:
        raise _Usage("kan needs --fixture or --functor")
    if args.representable is not None:
        base = L.target if args.which == "restrict" else L.source
        if args.representable not in base.identity:
            raise _Usage(f"no object {args.representable!r} in the relevant base")
        X = yoneda(base, args.representable)
    elif args.presheaf:
        resolved = _load_dsl(args.presheaf)
        _, X = _single(resolved.presheaves, "presheaf", args.psh_name)
    else:
        raise _Usage("kan needs --presheaf or --representable")
    return L, X


def cmd_kan(args) -> int:
    L, X = _kan_inputs(args)
    budget = Budget(args.budget, args.which)
    if args.which == "restrict":
        Y = kan.restrict(L, X)
    elif args.which == "lan":
        Y = kan.lan(L, X, budget).output
    else:
        Y = kan.ran(L, X, budget).output
    verdict = Verdict(f"kan-{args.which}", PASS,
                      stats={"carriers": _presheaf_summary(Y)})
    print(json.dumps(report.presheaf_to_json(Y), indent=2, sort_keys=True))
    return _emit(args, verdict, bounds={"budget": budget.limit})


def cmd_exp(args) -> int:
    resolved = _load_dsl(args.file)
    if args.x not in resolved.presheaves or args.y not in resolved.presheaves:
        raise _Usage("both --x and --y must name presheaves in the file")
    budget = Budget(args.budget, "exp")
    E = exponential_presheaf(resolved.presheaves[args.x], resolved.presheaves[args.y], budget)
    verdict = Verdict("exponential", PASS, stats={"carriers": _presheaf_summary(E)})
    print(json.dumps(report.presheaf_to_json(E), indent=2, sort_keys=True))
    return _emit(args, verdict, bounds={"budget": budget.limit})


def cmd_pi(args) -> int:
    try:
        data = json.loads(args.file.read_text())
        f = report.presheaf_map_from_json(data["f"])
        g = report.presheaf_map_from_json(data["g"])
    except (OSError, KeyError, ValueError, TypeError, InvalidStructure) as e:
        raise _Usage(f"cannot load presheaf maps from {args.file}: {e}")
    budget = Budget(args.budget, "pi")
    pi = dependent_product(f, g, budget)
    verdict = Verdict("dependent-product", PASS,
                      stats={"carriers": _presheaf_summary(pi.source)})
    print(json.dumps(report.presheaf_map_to_json(pi), indent=2, sort_keys=True))
    return _emit(args, verdict, bounds={"budget": budget.limit})


def cmd_check(args) -> int:
    which = args.which
    if args.budget is not None and which != "locally-connected":
        raise _Usage(f"check {which} spends no budget; --budget is for locally-connected")
    if which == "lcc":
        C = fixtures.get_category(args.fixture)
        verdict = checks.check_lcc(C, args.bound)
        return _emit(args, verdict, bounds={"fixture": args.fixture})
    R = fixtures.get_reflection(args.fixture)
    if which == "adjunction":
        verdict = check_adjunction(R)
    elif which == "frobenius":
        verdict = checks.check_frobenius_all(R)
    elif which == "sle":
        verdict = checks.check_semi_left_exact(R, args.bound)
    elif which == "stable-units":
        verdict = checks.check_stable_units(R, args.bound)
    elif which == "exp-ideal":
        verdict = checks.check_exponential_ideal(R, args.bound)
    else:  # locally-connected
        verdict = checks.check_locally_connected(
            R.L, bound=args.bound if args.bound is not None else 200,
            carrier_bound=args.carrier_bound, budget=Budget(args.budget, which))
    bounds = {"fixture": args.fixture}
    if args.bound is not None:
        bounds["bound"] = args.bound
    return _emit(args, verdict, bounds=bounds)


def cmd_search(args) -> int:
    budget = Budget(args.budget, args.which)
    if args.which == "sle-failure":
        max_v = args.max_vertices if args.max_vertices is not None else 4
        max_e = args.max_edges if args.max_edges is not None else 8
        verdict = graphpre.find_sle_failure(max_v=max_v, max_e=max_e, budget=budget)
        bounds = {"max_vertices": max_v, "max_edges": max_e}
    elif args.which == "pi-witness":
        max_n = args.bound if args.bound is not None else 3
        verdict = graphpre.find_pi_witness(max_n=max_n, budget=budget)
        bounds = {"max_n": max_n}
    else:  # sieve-witness
        max_n = args.bound if args.bound is not None else 3
        max_v = args.max_vertices if args.max_vertices is not None else 3
        max_e = args.max_edges if args.max_edges is not None else 4
        verdict = graphpre.find_sieve_witness(max_n=max_n, max_v=max_v,
                                              max_e=max_e, budget=budget)
        bounds = {"max_n": max_n, "max_vertices": max_v, "max_edges": max_e}
    return _emit(args, verdict, bounds=dict(bounds, budget=budget.limit))


def cmd_replay(args) -> int:
    try:
        rep = json.loads(args.file.read_text())
    except (OSError, ValueError) as e:
        raise _Usage(f"cannot read report {args.file}: {e}")
    try:
        report.check_report(rep)
    except InvalidStructure as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return EXIT_USAGE
    witness = rep.get("witness")
    if witness is None:
        verdict = Verdict("witness-replay", PASS, detail="report valid; no witness to replay")
        return _emit(args, verdict, bounds=rep.get("bounds", {}))
    try:
        verdict = checks.reverify(witness)
    except KeyError as e:
        raise _Usage(f"malformed witness in {args.file}: missing field {e}")
    except (TypeError, ValueError, AttributeError) as e:
        raise _Usage(f"malformed witness in {args.file}: {e}")
    return _emit(args, verdict, bounds=rep.get("bounds", {}))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    handler = {
        "validate": cmd_validate,
        "kan": cmd_kan,
        "exp": cmd_exp,
        "pi": cmd_pi,
        "check": cmd_check,
        "search": cmd_search,
        "replay": cmd_replay,
    }[args.command]
    try:
        return handler(args)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NonUnique as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except FinitoposError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
