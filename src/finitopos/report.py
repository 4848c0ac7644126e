"""JSON serialization for domain values, the versioned report schema, and
content digests so every witness file is replayable and CI-diffable."""

from __future__ import annotations

import functools
import hashlib
import json
from importlib import resources

from .errors import InvalidStructure
from .fincat import FinCategory, FinFunctor, FinNatTrans, Reflection, build_category
from .finset import FinFn, FinSet
from .presheaf import Presheaf, PresheafMap

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# element encoding (str/int/tuple nesting <-> tagged JSON)


def elem_to_json(e):
    if isinstance(e, str):
        return ["s", e]
    if isinstance(e, bool):
        return ["i", int(e)]
    if isinstance(e, int):
        return ["i", e]
    if isinstance(e, tuple):
        return ["t", [elem_to_json(x) for x in e]]
    raise TypeError(f"unsupported element {e!r}")


# the type each tag's value must have in replay input (a bool is not an int)
_TAG_TYPES = {"s": str, "i": int, "t": list}


def elem_from_json(j):
    """The element `elem_to_json` wrote.  A value whose type does not fit its
    tag is refused, so replay never rebuilds a coerced element."""
    tag, val = j
    if tag not in _TAG_TYPES:
        raise ValueError(f"bad element tag {tag!r}")
    if type(val) is not _TAG_TYPES[tag]:
        raise InvalidStructure([f"element {j!r}: tag {tag!r} does not fit a {type(val).__name__}"])
    return tuple(elem_from_json(x) for x in val) if tag == "t" else val


# ---------------------------------------------------------------------------
# structures


def category_to_json(C: FinCategory) -> dict:
    return {
        "objects": list(C.objects),
        "morphisms": [[m, C.dom[m], C.cod[m]] for m in C.morphisms],
        "identity": {o: C.identity[o] for o in C.objects},
        "compose": sorted([g, f, h] for (g, f), h in C.comp.items()),
    }


def category_from_json(j: dict) -> FinCategory:
    dom = {m: d for m, d, _ in j["morphisms"]}
    cod = {m: c for m, _, c in j["morphisms"]}
    comp = {(g, f): h for g, f, h in j["compose"]}
    return build_category(j["objects"], list(dom), dom, cod, j["identity"], comp)


def functor_to_json(F: FinFunctor) -> dict:
    return {
        "source": category_to_json(F.source),
        "target": category_to_json(F.target),
        "objects": dict(sorted(F.obj_map.items())),
        "morphisms": dict(sorted(F.mor_map.items())),
    }


def functor_from_json(j: dict) -> FinFunctor:
    return FinFunctor(category_from_json(j["source"]), category_from_json(j["target"]),
                      j["objects"], j["morphisms"]).validate()


def reflection_to_json(R: Reflection) -> dict:
    return {
        "L": functor_to_json(R.L),
        "F": functor_to_json(R.F),
        "unit": {o: R.unit.components[o] for o in R.B.objects},
    }


def reflection_from_json(j: dict) -> Reflection:
    L = functor_from_json(j["L"])
    F = functor_from_json(j["F"])
    unit = FinNatTrans(FinFunctor.identity(L.source), L.then(F), j["unit"]).validate()
    return Reflection(L, F, unit).validate()


def presheaf_to_json(P: Presheaf) -> dict:
    return {
        "base": category_to_json(P.base),
        "at": {o: [elem_to_json(x) for x in P.at[o]] for o in P.base.objects},
        "act": {
            m: [[elem_to_json(x), elem_to_json(y)] for x, y in P.act[m].mapping]
            for m in P.base.morphisms
        },
    }


def presheaf_from_json(j: dict) -> Presheaf:
    base = category_from_json(j["base"])
    at = {o: FinSet.of(elem_from_json(x) for x in xs) for o, xs in j["at"].items()}
    act = {}
    for m, pairs in j["act"].items():
        table = {elem_from_json(x): elem_from_json(y) for x, y in pairs}
        act[m] = FinFn.of(at[base.cod[m]], at[base.dom[m]], table)
    return Presheaf.of(base, at, act)


def presheaf_map_to_json(f: PresheafMap) -> dict:
    return {
        "source": presheaf_to_json(f.source),
        "target": presheaf_to_json(f.target),
        "components": {
            o: [[elem_to_json(x), elem_to_json(y)] for x, y in f.components[o].mapping]
            for o in f.source.base.objects
        },
    }


def presheaf_map_from_json(j: dict) -> PresheafMap:
    src = presheaf_from_json(j["source"])
    tgt = presheaf_from_json(j["target"])
    comps = {
        o: {elem_from_json(x): elem_from_json(y) for x, y in pairs}
        for o, pairs in j["components"].items()
    }
    return PresheafMap.of(src, tgt, comps)


# ---------------------------------------------------------------------------
# reports


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def make_report(command: str, bounds: dict, verdict, witness=None,
                corpus_stats: dict | None = None) -> dict:
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "bounds": dict(bounds),
        "verdict": verdict.to_json() if hasattr(verdict, "to_json") else verdict,
        "corpus_stats": dict(corpus_stats or {}),
    }
    if witness is not None:
        body["witness"] = witness
    body["digest"] = digest_of(body)
    return body


@functools.cache
def _report_validator():
    """The bundled schema's validator, checked against its metaschema once
    per process rather than on every report."""
    import jsonschema

    schema = json.loads(resources.files("finitopos").joinpath("report_schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def check_report(report: dict) -> None:
    """Schema + digest validation; raises InvalidStructure."""
    import jsonschema

    # the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(_report_validator().iter_errors(report))
    if error is not None:
        raise InvalidStructure([f"report schema violation: {error.message}"])
    body = {k: v for k, v in report.items() if k != "digest"}
    if digest_of(body) != report.get("digest"):
        raise InvalidStructure(["report digest mismatch"])
