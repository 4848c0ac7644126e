"""Built-in fixture categories and reflections, addressable by name.

`delta1` is the base for reflexive graphs (two objects V, E; cofaces d0, d1,
codegeneracy s with s.d0 = s.d1 = id(V); seven morphisms after closure).
`lattice-3-2` is the chain 0 < 1 < 2 reflecting onto the sublattice {0, 2}.
Every fixture is validated as it is built.
"""

from __future__ import annotations

from .errors import FinitoposError, InvalidStructure
from .fincat import (
    FinCategory,
    FinFunctor,
    FinNatTrans,
    Reflection,
    poset_category,
    saturate_category,
    terminal_category,
)


def delta1_base() -> FinCategory:
    return saturate_category(
        ["V", "E"],
        [("d0", "V", "E"), ("d1", "V", "E"), ("s", "E", "V")],
        [(("s", "d0"), ()), (("s", "d1"), ())],
    )


def chain(n: int) -> FinCategory:
    """The linear order 0 < 1 < ... < n-1 as a thin category."""
    return poset_category([f"c{i}" for i in range(n)],
                          lambda x, y: int(x[1:]) <= int(y[1:])).validate()


def bool2() -> FinCategory:
    """Boolean lattice on two atoms: bot < a, b < top."""
    order = {
        "bot": {"bot", "xa", "xb", "top"},
        "xa": {"xa", "top"},
        "xb": {"xb", "top"},
        "top": {"top"},
    }
    return poset_category(order.keys(), lambda x, y: y in order[x]).validate()


def m3() -> FinCategory:
    """The diamond M3: bot < xa, xb, xc < top; not distributive."""
    order = {
        "bot": {"bot", "xa", "xb", "xc", "top"},
        "xa": {"xa", "top"},
        "xb": {"xb", "top"},
        "xc": {"xc", "top"},
        "top": {"top"},
    }
    return poset_category(order.keys(), lambda x, y: y in order[x]).validate()


def _thin_functor(B: FinCategory, A: FinCategory, obj_map: dict) -> FinFunctor:
    mor_map = {}
    for m in B.morphisms:
        x, y = obj_map[B.dom[m]], obj_map[B.cod[m]]
        homs = A.hom(x, y)
        if len(homs) != 1:
            raise InvalidStructure([f"target not thin over {x} -> {y}"])
        mor_map[m] = homs[0]
    return FinFunctor(B, A, obj_map, mor_map).validate()


def lattice_3_2() -> Reflection:
    """Chain 0 < 1 < 2 reflecting onto {0, 2}, with L(1) = 2."""
    B = chain(3)
    A = poset_category(["c0", "c2"], lambda x, y: int(x[1:]) <= int(y[1:])).validate()
    L = _thin_functor(B, A, {"c0": "c0", "c1": "c2", "c2": "c2"})
    F = _thin_functor(A, B, {"c0": "c0", "c2": "c2"})
    unit = FinNatTrans(
        FinFunctor.identity(B), L.then(F),
        {"c0": B.identity["c0"], "c1": B.hom("c1", "c2")[0], "c2": B.identity["c2"]},
    ).validate()
    return Reflection(L, F, unit).validate()


def delta1_to_point() -> Reflection:
    """delta1 reflecting onto its terminal object V (via the point category)."""
    B = delta1_base()
    A = terminal_category().validate()
    L = FinFunctor(B, A, {o: "pt" for o in B.objects},
                   {m: "id(pt)" for m in B.morphisms}).validate()
    F = FinFunctor(A, B, {"pt": "V"}, {"id(pt)": "id(V)"}).validate()
    unit = FinNatTrans(FinFunctor.identity(B), L.then(F),
                       {"V": "id(V)", "E": "s"}).validate()
    return Reflection(L, F, unit).validate()


FIXTURE_CATEGORIES = {
    "delta1": delta1_base,
    "chain-2": lambda: chain(2),
    "chain-3": lambda: chain(3),
    "bool-2": bool2,
    "m3": m3,
    "point": lambda: terminal_category().validate(),
}

FIXTURE_REFLECTIONS = {
    "lattice-3-2": lattice_3_2,
    "delta1": delta1_to_point,
    "identity-chain-2": lambda: Reflection.identity(chain(2)).validate(),
}


def get_category(name: str) -> FinCategory:
    if name not in FIXTURE_CATEGORIES:
        raise FinitoposError(f"unknown fixture category {name!r}")
    return FIXTURE_CATEGORIES[name]()


def get_reflection(name: str) -> Reflection:
    if name not in FIXTURE_REFLECTIONS:
        raise FinitoposError(f"unknown fixture reflection {name!r}")
    return FIXTURE_REFLECTIONS[name]()
