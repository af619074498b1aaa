"""The involution search and the level-synchronous BFS against the reference
implementations in `reference_search`: equal fold lists in equal order, and
equal certificates or equal NotFound verdicts and state counts."""

import functools

import numpy as np
import pytest

import reference_search as ref
from sidlab.bigraph import Bigraph, book, cycle4, star
from sidlab.folds import _involutions, enumerate_folds
from sidlab.percolation import DEFAULT_BUDGET, find_cut_percolating, find_left_cut_percolating
from sidlab.reflection import IncidenceBigraph, reflection_fold_pool


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
    assert sorted(tuple(names[j] for j in image) for image in _involutions(g)) == \
        [tuple(a[v] for v in names) for a in involutive]
    assert enumerate_folds(g) == folds


def test_random_graphs_have_folds():
    assert sum(bool(enumerate_folds(g)) for g in RANDOM.values()) >= 20


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


@pytest.mark.parametrize("mode", list(SEARCHES))
def test_searches_match_reference(mode):
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
    assert compared > 250
