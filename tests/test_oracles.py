"""The map search and the level-synchronous BFS against the reference
implementations in `reference_search`: equal automorphism groups, first
isomorphisms and fold lists in equal order, and equal certificates or equal
NotFound verdicts and state counts."""

import functools

import numpy as np
import pytest

import reference_search as ref
from sidlab import percolation
from sidlab.bigraph import (
    Bigraph,
    Flag,
    _maps,
    automorphisms,
    book,
    cycle4,
    dual_star,
    find_isomorphism,
    flags_isomorphic,
    star,
)
from sidlab.folds import Fold, _fold, _fold_maps, check_fold, enumerate_folds
from sidlab.percolation import DEFAULT_BUDGET, find_cut_percolating, find_left_cut_percolating
from sidlab.reflection import IncidenceBigraph, _reflection_pairs, reflection_fold_pool


def relabeled(g, seed):
    """g with fresh random vertex names, so name order differs from index order."""
    rng = np.random.default_rng([77, seed])
    verts = g.vertices()
    names = {v: f"x{k}" for v, k in zip(verts, rng.permutation(1000)[:len(verts)])}
    return Bigraph([names[v] for v in g.left], [names[v] for v in g.right],
                   [(names[l], names[r]) for l, r in g.edges])


def random_bigraph(seed):
    """At most 12 vertices. Odd seeds glue a random bigraph to a mirror copy
    of itself along a random vertex subset, so that cut-involutions and
    folds occur; even seeds draw edges independently."""
    rng = np.random.default_rng([1010, seed])
    if seed % 2 == 0:
        left = [f"l{i}" for i in range(int(rng.integers(1, 7)))]
        right = [f"r{i}" for i in range(int(rng.integers(0, 7)))]
        p = rng.uniform(0.2, 0.8)
        return Bigraph(left, right, [(l, r) for l in left for r in right if rng.random() < p])
    left = [f"l{i}" for i in range(int(rng.integers(1, 4)))]
    right = [f"r{i}" for i in range(int(rng.integers(1, 4)))]
    edges = [(l, r) for l in left for r in right if rng.random() < 0.6]
    glued = {v for v in left + right if rng.random() < 0.4}
    mirror = {v: v if v in glued else v + "m" for v in left + right}
    return Bigraph(left + [mirror[v] for v in left if v not in glued],
                   right + [mirror[v] for v in right if v not in glued],
                   edges + [(mirror[l], mirror[r]) for l, r in edges])


# star(9)'s group of 9! maps takes the engine's search between 950,001 and
# 1,000,000 nodes, just inside its budget
NAMED = {f"star({d})": star(d) for d in range(1, 10)}
NAMED |= {"cycle4": cycle4(), "book(2)": book(2), "book(3)": book(3),
          "incidence(4,{2})": IncidenceBigraph(4, [2]).graph,
          "incidence(4,{2,3})": IncidenceBigraph(4, [2, 3]).graph}
RELABELED = {f"relabeled {name}": relabeled(g, i) for i, (name, g) in enumerate(NAMED.items())}
RANDOM = {f"random {seed}": random_bigraph(seed) for seed in range(48)}
GRAPHS = NAMED | RELABELED | RANDOM


@functools.cache
def reference(name):
    """The reference involutive automorphisms and folds of GRAPHS[name]."""
    g = GRAPHS[name]
    involutive = ref.involutions(g)
    return involutive, ref.enumerate_folds(g, involutive)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_folds_match_reference(name):
    g = GRAPHS[name]
    involutive, folds = reference(name)
    names = g.vertices()
    assert sorted(tuple(names[j] for j in image) for image in _maps(g, g, involutive=True)) \
        == [tuple(a[v] for v in names) for a in involutive]
    assert enumerate_folds(g) == folds
    assert g.components() == ref.components(g)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_automorphisms_match_reference(name):
    g = GRAPHS[name]
    assert automorphisms(g) == ref.automorphisms(g)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_first_isomorphism_matches_reference(name):
    g = GRAPHS[name]
    h = relabeled(g, 1000 + len(name))
    first = ref._search_maps(g, h, {}, find_all=False)
    assert first and find_isomorphism(g, h) == first[0]


NON_ISOMORPHIC = [
    (star(2), dual_star(2)),
    # the same path plus an isolated vertex, its center on opposite sides
    (Bigraph(["a", "d"], ["b", "c"], [("a", "b"), ("a", "c")]),
     Bigraph(["x", "y"], ["z", "w"], [("x", "z"), ("y", "z")])),
]


@pytest.mark.parametrize("pair", range(len(NON_ISOMORPHIC)))
def test_non_isomorphic_pairs(pair):
    g, h = NON_ISOMORPHIC[pair]
    assert find_isomorphism(g, h) is None
    assert ref._search_maps(g, h, {}, find_all=False) == []


def test_flags_isomorphic_matches_reference():
    """Labels of g against the same, shuffled or reversed labels of a
    relabeled copy: both verdicts occur, and the engine agrees each time."""
    rng = np.random.default_rng(31)
    verdicts = []
    for name, g in GRAPHS.items():
        if g.v > 12:
            continue
        h = relabeled(g, 2000 + len(name))
        to_h = find_isomorphism(g, h)
        for size in range(1, min(g.v, 3) + 1):
            labels = [g.vertices()[k] for k in rng.choice(g.v, size, replace=False)]
            images = [to_h[v] for v in labels]
            shuffled = [images[k] for k in rng.permutation(size)]
            for image_labels in (images, shuffled, images[::-1]):
                got = flags_isomorphic(Flag(g, labels), Flag(h, image_labels))
                want = bool(ref._search_maps(g, h, dict(zip(labels, image_labels)),
                                             find_all=False))
                assert got == want, (name, labels, image_labels)
                verdicts.append(got)
    assert 100 < verdicts.count(True) and 100 < verdicts.count(False)


def test_random_graphs_have_folds():
    assert sum(bool(enumerate_folds(g)) for g in RANDOM.values()) >= 20


# the pairs `_fold` builds a Fold from: every graph's default pool, and the
# reflection pools of incidence graphs up to incidence(8,{2,3}) (100 vertices)
FOLD_GRAPHS = GRAPHS | {"star(10)": star(10)}
REFLECTION_GRAPHS = {f"incidence({n},{{2, 3}}) reflection": IncidenceBigraph(n, [2, 3])
                     for n in range(4, 9)}


@pytest.mark.parametrize("name", [*FOLD_GRAPHS, *REFLECTION_GRAPHS])
def test_fold_lists_the_items_the_checking_constructor_sorts(name):
    """`_fold` skips the sort of `Fold(phi, left)` by zipping the names in
    name order with their images' names. Books and relabeled graphs, whose
    name order is not their vertex order, catch items listed in vertex order."""
    if name in FOLD_GRAPHS:
        g = FOLD_GRAPHS[name]
        pairs = _fold_maps(g)
    else:
        g, pairs = REFLECTION_GRAPHS[name].graph, _reflection_pairs(REFLECTION_GRAPHS[name])
    names = g.vertices()
    for image, left in pairs:
        fold = _fold(g, image, left)
        sorted_fold = Fold({v: names[j] for v, j in zip(names, image)},
                           [names[i] for i in range(g.v) if left >> i & 1])
        assert fold == sorted_fold and fold.phi_items == sorted_fold.phi_items
        assert check_fold(g, fold) == (image, left)


SEARCHES = {"left": find_left_cut_percolating, "edge": find_cut_percolating}


def search_cases():
    """(name, graph, pool, reference pool) for the default pool (None) on
    the graphs of at most 9 vertices and the reflection pool on incidence
    graphs; the reference default pool is the reference enumeration."""
    out = [(name, g, None, reference(name)[1])
           for name, g in GRAPHS.items() if g.v <= 9]
    for n, ks in [(3, [1]), (3, [2]), (4, [2]), (4, [1, 3]), (4, [2, 3]), (5, [2]),
                  (5, [2, 3]), (6, [2, 3])]:
        ib = IncidenceBigraph(n, ks)
        pool = reflection_fold_pool(ib)
        out.append((f"incidence({n},{set(ks)}) reflection", ib.graph, pool, pool))
    return out


def compare_searches(mode):
    """The number of (case, budget) searches that equal the reference."""
    compared = 0
    for name, g, pool, ref_pool in search_cases():
        starts = g.v1 if mode == "left" else g.e
        if starts == 0:
            continue
        budgets = [starts, starts + 1, 5000]
        if g.v <= 30:  # incidence(6,{2,3}) is exhausted only at 426,257 states
            budgets.append(DEFAULT_BUDGET)
        for budget in budgets:
            got = SEARCHES[mode](g, pool, budget=budget)
            assert got == ref.search(g, mode, ref_pool, budget), (name, budget)
            compared += 1
    return compared


@pytest.mark.parametrize("mode", list(SEARCHES))
def test_searches_match_reference(mode):
    assert compare_searches(mode) > 250


@pytest.mark.parametrize("n", [6, 7])
def test_multiword_edge_searches_match_reference(n):
    """Edge searches whose states take two words (incidence(6,{2,3}), 90
    edges) and three (incidence(7,{2,3}), 147 edges) with the reflection
    pool, at budgets from 1 to 3,000: below, at and just past the start
    states, and every 100 states after."""
    ib = IncidenceBigraph(n, [2, 3])
    g, pool = ib.graph, reflection_fold_pool(ib)
    for budget in [1, g.e - 1, g.e, g.e + 1, *range(100, 3001, 100)]:
        got = find_cut_percolating(g, pool, budget=budget)
        assert got == ref.search(g, "edge", pool, budget), budget


def popcount_keys(states):
    """A coarse key for `percolation._keys`: the number of elements in the
    state, which unequal states share."""
    bits = np.unpackbits(states.view(np.uint8).reshape(len(states), states.itemsize), axis=1)
    return bits.sum(1, dtype=np.uint64), False


@pytest.mark.parametrize("mode", list(SEARCHES))
def test_searches_match_reference_under_key_collisions(monkeypatch, mode):
    """The same searches when a state's key is only its popcount, so that
    unequal states share keys in most chunks: the collision rule alone must
    keep them apart."""
    chunks = []

    def popcount(states):
        keys, exact = popcount_keys(states)
        chunks.append(len(np.unique(keys)) < len(np.unique(states)))
        return keys, exact
    monkeypatch.setattr(percolation, "_keys", popcount)
    assert compare_searches(mode) > 250
    assert sum(chunks) > len(chunks) / 2


@pytest.mark.parametrize("mode", list(SEARCHES))
def test_searches_match_reference_under_one_shared_key(monkeypatch, mode):
    """The same searches when every state has key 0. Under popcount keys
    only the goal has all n elements; here every chunk is one run of
    colliding states, every tier merge inserts among equal keys, and the
    goal is told from the other fresh states only by comparing them whole."""
    monkeypatch.setattr(percolation, "_keys",
                        lambda states: (np.zeros(len(states), dtype=np.uint64), False))
    assert compare_searches(mode) > 250
