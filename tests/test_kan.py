"""Kan extensions and the adjoint chain L! -| L* -| L_*.

Oracles: co-Yoneda (lan of a representable is representable), hom-count
bijections computed by independent Nat enumeration on both sides, and the
comparison map theta characterized by its restriction.
"""

import pytest

from finitopos import fixtures, kan
from finitopos.presheaf import (
    nat_transformations,
    presheaf_corpus,
    terminal_presheaf,
    yoneda,
)
from oracles import presheaf_iso, ran_transpose


@pytest.fixture(scope="module", params=["lattice-3-2", "delta1"])
def refl(request):
    return fixtures.get_reflection(request.param)


def test_restriction_composes_actions(refl):
    R = refl
    X = yoneda(R.A, R.L.obj_map[R.B.objects[0]])
    Y = kan.restrict(R.L, X)
    Y.validate()
    for c in R.B.objects:
        assert set(Y.at[c].elements) == set(X.at[R.L.obj_map[c]].elements)


def test_co_yoneda(refl):
    # [DERIVED] L! y_b is isomorphic to y_{Lb} for every object b
    R = refl
    for b in R.B.objects:
        rx = kan.lan(R.L, yoneda(R.B, b))
        assert presheaf_iso(rx.output, yoneda(R.A, R.L.obj_map[b])) is not None


def test_lan_adjunction_bijection(refl):
    R = refl
    corpus_b = presheaf_corpus(R.B, carrier_bound=1)
    corpus_a = presheaf_corpus(R.A, carrier_bound=1)
    for X in corpus_b[:6]:
        rx = kan.lan(R.L, X)
        for V in corpus_a[:4]:
            down = nat_transformations(X, kan.restrict(R.L, V))
            up = nat_transformations(rx.output, V)
            assert len(down) == len(up)
            # transposes are mutually inverse on the nose
            for m in down:
                t = kan.lan_transpose(rx, V, m)
                back = kan.lan_unit(rx).then(kan.restrict_map(R.L, t))
                assert back.encoding() == m.encoding()


def test_ran_adjunction_bijection(refl):
    R = refl
    corpus_b = presheaf_corpus(R.B, carrier_bound=1)
    corpus_a = presheaf_corpus(R.A, carrier_bound=1)
    for X in corpus_b[:6]:
        rx = kan.ran(R.L, X)
        for V in corpus_a[:4]:
            down = nat_transformations(kan.restrict(R.L, V), X)
            up = nat_transformations(V, rx.output)
            assert len(down) == len(up)
            for m in down:
                t = ran_transpose(rx, V, m)
                back = kan.restrict_map(R.L, t).then(kan.ran_counit(rx))
                assert back.encoding() == m.encoding()


def test_restriction_fully_faithful_lattice():
    # Lemma-style certificate: |Nat(L*X, L*Y)| = |Nat(X, Y)| on a corpus
    R = fixtures.get_reflection("lattice-3-2")
    corpus = presheaf_corpus(R.A, carrier_bound=1)
    for X in corpus:
        for Y in corpus:
            lhs = nat_transformations(kan.restrict(R.L, X), kan.restrict(R.L, Y))
            rhs = nat_transformations(X, Y)
            assert len(lhs) == len(rhs)


def test_verify_essential_local_passes(refl):
    v = kan.verify_essential_local(refl, carrier_bound=1)
    assert v.passed, v.summary()


def test_theta_exists_and_is_natural():
    R = fixtures.get_reflection("lattice-3-2")
    X = terminal_presheaf(R.B)
    th, epi = kan.theta(R, X)
    th.validate()
    assert epi.outcome in ("PASS", "FAIL")
    # theta's defining property: restriction equals counit then unit
    rx_ran = kan.ran(R.L, X)
    rx_lan = kan.lan(R.L, X)
    expected = kan.ran_counit(rx_ran).then(kan.lan_unit(rx_lan))
    assert kan.restrict_map(R.L, th).encoding() == expected.encoding()


def test_theta_not_epi_witness_case():
    # [DERIVED] on the lattice fixture, L_* y_{c1} is empty at the far end
    # while L! y_{c1} is not, so theta cannot be pointwise surjective
    R = fixtures.get_reflection("lattice-3-2")
    X = yoneda(R.B, "c1")
    th, epi = kan.theta(R, X)
    assert epi.outcome == "FAIL"


def test_lan_map_functoriality(refl):
    R = refl
    X = yoneda(R.B, R.B.objects[0])
    rx = kan.lan(R.L, X)
    from finitopos.presheaf import PresheafMap
    ident = kan.lan_map(R.L, rx, rx, PresheafMap.identity(X))
    assert ident.is_pointwise_bijection()
