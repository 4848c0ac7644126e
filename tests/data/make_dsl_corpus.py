"""Record the DSL diagnostics corpus that tests/test_dsl.py compares against.

    PYTHONPATH=src python3 tests/data/make_dsl_corpus.py > tests/data/dsl_corpus.json

Documents are seeded: random token strings, and 1-4 character mutations of
one or two valid declarations of each kind.  Only documents that
`dsl.parse` reports diagnostics for are kept.  Each entry records the
document, `str` of each parse diagnostic and a summary of each parsed
declaration (`summaries`), so a re-run of the same parser gives the same
file.
"""

import dataclasses
import json
import random

from finitopos import dsl

SEED = 20240909
SIZE = 2000
TOKENS = sorted(dsl.KEYWORDS) + sorted(dsl.PUNCT) + ["id", "A", "B", "x", "y", "d0", "s", "0", "3", "16"]
CHARS = "{}:;,.()=->#\n aLFxy09_"


VALID = [
    "category C { objects: V, E; generators: d0 : V -> E, s : E -> V;"
    " relations: s.d0 = id(V); close: 8; }",
    "functor L : C -> A { objects: V -> a, E -> a; morphisms: d0 -> id(a), s -> f.g; }",
    "presheaf Y on C { at V: x, y; at E: e; act d0: e -> x; act s.d0: x -> y, y -> x; }",
    "reflection R { L: L; F: F; unit: V -> id(V), E -> s; }",
]


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(CHARS) + text[i:]
        else:
            text = text[:i] + rng.choice(CHARS) + text[i + 1:]
    return text


def summaries(ast) -> list:
    """Each parsed declaration as JSON: its class name, then its fields."""
    return json.loads(json.dumps([[type(d).__name__, *dataclasses.astuple(d)] for d in ast.decls]))


def main():
    rng = random.Random(SEED)
    out = []
    while len(out) < SIZE:
        if rng.random() < 0.25:
            text = " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 20)))
        else:
            text = mutate(rng, "\n".join(rng.sample(VALID, rng.randint(1, 2))))
        ast = dsl.parse(text)
        if ast.diagnostics:
            out.append({"text": text, "diagnostics": [str(d) for d in ast.diagnostics],
                        "decls": summaries(ast)})
    print("[\n" + ",\n".join(json.dumps(e) for e in out) + "\n]")


if __name__ == "__main__":
    main()
