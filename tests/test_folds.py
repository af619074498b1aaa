"""Tests for cut-involutions, fold completion, folding maps, enumeration."""

import itertools

import pytest

from sidlab.bigraph import Bigraph, cycle4, rho, star
from sidlab.folds import (
    Fold,
    check_fold,
    complete_to_fold,
    enumerate_folds,
    fold_from_json,
    fold_to_json,
    folding_maps,
    is_cut_involution,
)


def unfoldable_cut_involution():
    """7-vertex graph whose cut-involution admits no fold."""
    g = Bigraph(["0", "2", "4"], ["1", "3", "5", "6"],
                [("0", "1"), ("0", "3"), ("0", "5"), ("0", "6"),
                 ("2", "1"), ("2", "3"), ("4", "1"), ("4", "3")])
    phi = {"0": "0", "1": "3", "3": "1", "2": "4", "4": "2", "5": "6", "6": "5"}
    return g, phi


def leaf_swap(d=2):
    phi = {"0": "0"} | {str(i): str(i) for i in range(3, d + 1)}
    phi |= {"1": "2", "2": "1"}
    return phi


def c4_left_swap():
    return {"a": "b", "b": "a", "c": "c", "d": "d"}


def matching():
    """Two disjoint edges and the involution swapping them."""
    g = Bigraph(["1", "2"], ["m1", "m2"], [("1", "m1"), ("2", "m2")])
    return g, {"1": "2", "2": "1", "m1": "m2", "m2": "m1"}


# ---------------------------------------------------------------------------
# is_cut_involution


def test_cut_involution_examples():
    assert is_cut_involution(star(2), leaf_swap())
    ident = {v: v for v in cycle4().vertices()}
    assert not is_cut_involution(cycle4(), ident)
    g, phi = unfoldable_cut_involution()
    assert is_cut_involution(g, phi)


def test_cut_involution_rejects_non_involution_and_non_automorphism():
    g = cycle4()
    # swap-both-sides composition is an involutive automorphism but Fix is empty
    # and the graph stays connected
    both = {"a": "b", "b": "a", "c": "d", "d": "c"}
    assert not is_cut_involution(g, both)
    with pytest.raises(ValueError):
        is_cut_involution(g, {"a": "b"})


def test_cut_involution_disconnected_graph_empty_fix():
    assert is_cut_involution(*matching())  # empty set cuts a disconnected graph


# ---------------------------------------------------------------------------
# complete_to_fold


def test_complete_to_fold_counterexample_rejected():
    g, phi = unfoldable_cut_involution()
    assert complete_to_fold(g, phi) is None


def test_complete_to_fold_star():
    fold = complete_to_fold(star(2), leaf_swap())
    assert fold is not None
    assert fold.left == frozenset({"1"})  # lexicographically smaller leaf
    check_fold(star(2), fold)


def test_complete_to_fold_c4():
    fold = complete_to_fold(cycle4(), c4_left_swap())
    assert fold is not None
    assert fold.left == frozenset({"a"})
    check_fold(cycle4(), fold)
    # oracle: brute-force over all candidate L subsets
    valid_lefts = []
    verts = cycle4().vertex_set()
    for r in range(len(verts) + 1):
        for cand in itertools.combinations(sorted(verts), r):
            f = Fold(c4_left_swap(), cand)
            try:
                check_fold(cycle4(), f)
                valid_lefts.append(frozenset(cand))
            except ValueError:
                pass
    assert fold.left in valid_lefts
    assert valid_lefts == [frozenset({"a"}), frozenset({"b"})]


def test_complete_to_fold_requires_cut_involution():
    with pytest.raises(ValueError):
        complete_to_fold(cycle4(), {v: v for v in cycle4().vertices()})


def test_complete_to_fold_matches_bruteforce_criterion():
    # completion succeeds iff no component of G - Fix is phi-fixed as a set
    cases = [
        (star(2), leaf_swap()),
        (cycle4(), c4_left_swap()),
        unfoldable_cut_involution(),
    ]
    for g, phi in cases:
        fixed = {v for v in phi if phi[v] == v}
        comps = g.without_vertices(fixed).components()
        fixed_component = any(frozenset(phi[v] for v in c) == c for c in comps)
        assert (complete_to_fold(g, phi) is None) == fixed_component


# ---------------------------------------------------------------------------
# check_fold: one case per axiom, in the order they are checked

AXIOM_CASES = {
    "phi must be defined on exactly V(G)": (star(2), {"0": "0", "1": "2"}, {"1"}),
    "phi must be a bijection of V(G)": (star(2), {"0": "0", "1": "1", "2": "1"}, {"1"}),
    "phi is not an automorphism": (cycle4(), {"a": "c", "c": "a", "b": "b", "d": "d"},
                                   {"a"}),
    "phi is not an involution": (star(3), {"0": "0", "1": "2", "2": "3", "3": "1"},
                                 {"1"}),
    "Fix(phi) is not a vertex cut": (cycle4(), {"a": "b", "b": "a", "c": "d", "d": "c"},
                                     {"a", "c"}),
    "L must be a set of vertices of G": (cycle4(), c4_left_swap(), {"zz"}),
    "(L, Fix, phi(L)) must be disjoint": (cycle4(), c4_left_swap(), {"a", "b"}),
    "(L, Fix, phi(L)) must cover V(G)": (star(2), leaf_swap(), set()),
    "L must be a union of components of G - Fix(phi)": (*matching(), {"1", "m2"}),
}


@pytest.mark.parametrize("reason", list(AXIOM_CASES))
def test_check_fold_names_the_failed_axiom(reason):
    g, phi, left = AXIOM_CASES[reason]
    with pytest.raises(ValueError) as exc:
        check_fold(g, Fold(phi, left))
    assert str(exc.value) == reason


# ---------------------------------------------------------------------------
# folding maps


def test_folding_maps_star():
    fold = complete_to_fold(star(2), leaf_swap())
    phi_l, phi_r = folding_maps(star(2), fold)
    assert phi_l == {"0": "0", "1": "1", "2": "1"}
    assert phi_r == {"0": "0", "1": "2", "2": "2"}


def test_folding_maps_idempotent_and_endomorphisms():
    for g in (star(2), cycle4(), star(4)):
        for fold in enumerate_folds(g):
            phi_l, phi_r = folding_maps(g, fold)
            for m in (phi_l, phi_r):
                assert g.is_endomorphism(m)
                assert all(m[m[v]] == m[v] for v in m)
            # applying phi_L* and then phi_L lands in L union Fix
            target = fold.left | fold.fixed
            assert all(phi_l[phi_r[v]] in target for v in phi_r)
            # (phi_L alone already lands there)
            assert all(phi_l[v] in target for v in phi_l)


def test_folding_map_preimage_c4():
    fold = complete_to_fold(cycle4(), c4_left_swap())
    phi_l, _ = folding_maps(cycle4(), fold)
    assert {v for v in phi_l if phi_l[v] == "a"} == {"a", "b"}


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_folds_edge():
    assert enumerate_folds(rho()) == []


def test_enumerate_folds_c4():
    folds = enumerate_folds(cycle4())
    assert len(folds) == 2
    lefts = {f.left for f in folds}
    assert lefts == {frozenset({"a"}), frozenset({"c"})}
    for f in folds:
        check_fold(cycle4(), f)


def test_enumerate_folds_deterministic():
    assert enumerate_folds(cycle4()) == enumerate_folds(cycle4())


# ---------------------------------------------------------------------------
# JSON


def test_fold_json_round_trip():
    fold = complete_to_fold(cycle4(), c4_left_swap())
    assert fold_from_json(fold_to_json(fold)) == fold
