"""Tests for incidence bigraph construction and transposition folds."""

import itertools
from math import comb

import pytest

from sidlab.bigraph import (
    Bigraph,
    amalgamate_left,
    graphs_isomorphic,
    is_color_edge_transitive,
)
from sidlab.folds import Fold, check_fold, complete_to_fold, enumerate_folds
from sidlab.reflection import (
    IncidenceBigraph,
    TypeAReflectionSystem,
    build_incidence,
    parse_right_id,
    reflection_fold,
    reflection_fold_pool,
)


def test_build_incidence_small_counts():
    for ks, v2, e in [([1], 4, 4), ([2], 6, 12), ([3], 4, 12), ([2, 3], 10, 24)]:
        h = build_incidence(4, ks)
        assert (h.graph.v1, h.graph.v2, h.graph.e) == (4, v2, e)


def test_build_incidence_k1_is_matching():
    g = build_incidence(4, [1]).graph
    assert all(g.degree(v) == 1 for v in g.vertices())


def test_build_incidence_general_counts():
    for n in range(1, 6):
        for ks in itertools.chain(itertools.combinations(range(1, n + 1), 1),
                                  itertools.combinations(range(1, n + 1), 2)):
            h = build_incidence(n, list(ks))
            assert h.graph.v1 == n
            assert h.graph.v2 == sum(comb(n, k) for k in ks)
            assert h.graph.e == sum(k * comb(n, k) for k in ks)
            assert h.is_right_uniform()


def test_build_incidence_out_of_range():
    with pytest.raises(ValueError):
        build_incidence(4, [5])
    with pytest.raises(ValueError):
        build_incidence(4, [0])
    with pytest.raises(ValueError, match="^n must be positive$"):
        IncidenceBigraph(0, [1])
    with pytest.raises(ValueError, match="^need at least one uniformity$"):
        IncidenceBigraph(4, [])


def test_colored_graph_is_built_once():
    ib = IncidenceBigraph(4, [2, 3])
    assert ib.colored is ib.colored and ib.graph is ib.colored.graph
    fresh = IncidenceBigraph(4, [2, 3])
    assert ib == fresh and hash(ib) == hash(fresh)
    assert reflection_fold_pool(ib) == reflection_fold_pool(fresh)


def test_incidence_is_left_amalgamation_of_slices():
    joint = build_incidence(4, [2, 3]).graph
    pairs = build_incidence(4, [2]).graph
    triples = build_incidence(4, [3]).graph
    relabeled = [(l, r.replace("@1", "@2")) for l, r in triples.edges]
    triples2 = type(triples)(triples.left,
                             [r.replace("@1", "@2") for r in triples.right],
                             relabeled)
    assert amalgamate_left([pairs, triples2]) == joint
    assert graphs_isomorphic(amalgamate_left([pairs, triples2]), joint)


def test_natural_coloring_properties():
    h = build_incidence(4, [2, 3])
    assert h.is_right_uniform()
    assert h.color_set() == (1, 2)
    assert h.edge_count(1) == 12 and h.edge_count(2) == 12
    assert h.is_left_color_regular()
    assert is_color_edge_transitive(h)


def test_reflection_fold_fix_and_left():
    ib = IncidenceBigraph(4, [2])
    fold = reflection_fold(ib, 1, 2)
    assert fold.fixed == frozenset({"3", "4", "{1,2}@1", "{3,4}@1"})
    assert fold.left == frozenset({"1", "{1,3}@1", "{1,4}@1"})
    check_fold(ib.graph, fold)


def test_reflection_fold_bad_indices():
    ib = IncidenceBigraph(4, [2])
    with pytest.raises(ValueError):
        reflection_fold(ib, 2, 2)
    with pytest.raises(ValueError):
        reflection_fold(ib, 3, 1)
    with pytest.raises(ValueError):
        reflection_fold(ib, 1, 5)


def test_reflection_fold_matching_n2():
    ib = IncidenceBigraph(2, [1])
    fold = reflection_fold(ib, 1, 2)
    # empty fixed set: the graph itself is disconnected, the empty cut qualifies
    assert fold.fixed == frozenset()
    check_fold(ib.graph, fold)
    phi = fold.phi
    assert phi["{1}@1"] == "{2}@1" and phi["{2}@1"] == "{1}@1"


def test_reflection_fold_pool_sizes_and_validity():
    for n in (2, 3, 4, 5):
        ib = IncidenceBigraph(n, [2] if n >= 2 else [1])
        pool = reflection_fold_pool(ib)
        assert len(pool) == comb(n, 2)
        for fold in pool:
            check_fold(ib.graph, fold)


def test_reflection_pool_matches_enumeration_k42():
    ib = IncidenceBigraph(4, [2])
    pool = reflection_fold_pool(ib)
    enumerated = enumerate_folds(ib.graph)
    assert sorted(pool, key=lambda f: sorted(f.left)) == \
        sorted(enumerated, key=lambda f: sorted(f.left))
    assert len(enumerated) == 6


def test_reflection_folds_are_canonical_completions():
    # for single-digit point ids the chamber side rule and the generic
    # smallest-id canonicalization pick the same left side
    from sidlab.folds import complete_to_fold

    for n, ks in [(3, [1]), (3, [2]), (3, [3]), (3, [1, 2]), (4, [2]),
                  (4, [3]), (4, [2, 3]), (4, [4])]:
        ib = IncidenceBigraph(n, ks)
        for fold in reflection_fold_pool(ib):
            assert complete_to_fold(ib.graph, fold.phi) == fold


def chamber_pool(n, ks):
    """The transposition folds built from id strings: t_ab swaps a and b in
    every id, and L holds a and each subset that has a but not b."""
    pool = []
    for a, b in itertools.combinations(range(1, n + 1), 2):
        swap = {str(a): str(b), str(b): str(a)}
        phi = {str(v): swap.get(str(v), str(v)) for v in range(1, n + 1)}
        left = {str(a)}
        for slot, k in enumerate(ks, start=1):
            for subset in itertools.combinations(range(1, n + 1), k):
                rid = "{%s}@%d" % (",".join(map(str, subset)), slot)
                image = sorted(int(phi[str(v)]) for v in subset)
                phi[rid] = "{%s}@%d" % (",".join(map(str, image)), slot)
                if a in subset and b not in subset:
                    left.add(rid)
        pool.append(Fold(phi, left))
    return pool


# 63 points are the most whose masks fit an int64; 64 keeps them Python ints
@pytest.mark.parametrize("n, ks", sorted({
    (n, ks) for n in range(1, 12)
    for ks in ((2,), (2, 3), (1, 2), (2, 2), (1,), (n,)) if max(ks) <= n}
    | {(63, (1,)), (64, (1,))}))
def test_reflection_pool_is_the_chamber_pool(n, ks):
    assert reflection_fold_pool(IncidenceBigraph(n, ks)) == chamber_pool(n, ks)


@pytest.mark.parametrize("n, ks", [(10, [2, 3]), (11, [2])])
def test_reflection_folds_keep_the_chamber_rule_past_nine(n, ks):
    # "10" < "2": the smallest-id completion takes the side of b = 10, while
    # the chamber rule keeps the side of a = 2
    ib = IncidenceBigraph(n, ks)
    pool = reflection_fold_pool(ib)
    assert pool == chamber_pool(n, ks)
    for fold in pool:
        check_fold(ib.graph, fold)
    fold = reflection_fold(ib, 2, 10)
    assert "2" in fold.left and "10" not in fold.left
    completed = complete_to_fold(ib.graph, fold.phi)
    assert completed.phi == fold.phi and "10" in completed.left


def test_natural_coloring_invariant_under_transpositions():
    ib = IncidenceBigraph(4, [2, 3])
    h = ib.colored
    colors = h.colors
    for fold in reflection_fold_pool(ib):
        phi = fold.phi
        assert all(colors[(phi[l], phi[r])] == c for (l, r), c in h.edge_colors)


def test_from_bigraph_round_trip():
    ib = IncidenceBigraph(4, [2, 3])
    back = IncidenceBigraph.from_bigraph(ib.graph)
    assert back == ib
    with pytest.raises(ValueError):
        IncidenceBigraph.from_bigraph(build_incidence(3, [2]).graph.without_vertices(["1"]))
    # a slot 2 without a slot 1
    gap = Bigraph(["1", "2"], ["{1,2}@2"], [("1", "{1,2}@2"), ("2", "{1,2}@2")])
    with pytest.raises(ValueError, match="^slots must be 1..t with one uniformity each$"):
        IncidenceBigraph.from_bigraph(gap)


def renamed(g, old, new):
    """g with vertex old renamed to new."""
    name = {v: new if v == old else v for v in g.vertices()}
    return Bigraph([name[v] for v in g.left], [name[v] for v in g.right],
                   [(name[l], name[r]) for l, r in g.edges])


def test_from_bigraph_refuses_near_misses():
    """Graphs that agree with incidence(4,{2,3}) in their ids and degrees,
    but not in their names or edges, are refused; the input graph itself
    becomes the result's graph."""
    g = IncidenceBigraph(4, [2, 3]).graph
    assert IncidenceBigraph.from_bigraph(g).graph is g
    # two subsets of slot 1 trade one point each: every degree is kept
    a, b = "{1,2}@1", "{3,4}@1"
    edges = (g.edges - {("2", a), ("4", b)}) | {("4", a), ("2", b)}
    near = [Bigraph(g.left, g.right, edges),
            renamed(g, "{1,2}@1", "{2,1}@1"),  # a subset out of order
            renamed(g, "3", "03"),  # a point with a leading zero
            g.without_vertices(["{1,2,3}@2"])]  # a missing subset
    for h in near:
        with pytest.raises(ValueError, match="not a complete-hypergraph incidence bigraph"):
            IncidenceBigraph.from_bigraph(h)


def test_parse_right_id():
    assert parse_right_id("{1,3}@2") == (frozenset({1, 3}), 2)
    with pytest.raises(ValueError):
        parse_right_id("nope")


def coset_subset_bijection_holds(n: int, k: int) -> bool:
    """sigma R_k -> sigma([k]) is a bijection from the cosets of the k-th
    parabolic subgroup R_k (the permutations fixing [k] setwise) onto the
    k-subsets of [n], checked over all of S_n."""
    perms = list(itertools.permutations(range(1, n + 1)))
    parabolic = [p for p in perms if set(p[:k]) == set(range(1, k + 1))]
    fibers: dict[frozenset[int], set[tuple[int, ...]]] = {}
    for sigma in perms:
        fibers.setdefault(frozenset(sigma[:k]), set()).add(sigma)
    if len(fibers) != comb(n, k):
        return False
    for fiber in fibers.values():
        sigma0 = next(iter(fiber))
        coset = {tuple(sigma0[r[i] - 1] for i in range(n)) for r in parabolic}
        if fiber != coset:
            return False
    return True


def test_type_a_system():
    with pytest.raises(ValueError, match="^n must be positive$"):
        TypeAReflectionSystem(0)
    sys4 = TypeAReflectionSystem(4)
    assert len(sys4.reflections()) == 6
    assert sys4.simple_reflections() == [(1, 2), (2, 3), (3, 4)]
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert coset_subset_bijection_holds(n, k)
