"""Tests for the bigraph core: subgraphs, cores, automorphisms, JSON."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sidlab.bigraph import (
    Bigraph,
    ColoredBigraph,
    Flag,
    GraphTooLargeError,
    amalgamate_left,
    automorphisms,
    book,
    colored_automorphisms,
    cycle4,
    dual_star,
    find_isomorphism,
    flags_isomorphic,
    from_json_dict,
    graphs_isomorphic,
    induced_subgraph,
    left_labeled,
    rho,
    star,
    to_json_dict,
    two_core,
    two_core_flag,
)
from sidlab.bigraph import _refine_classes


def incidence_oracle(n, ks):
    """Independent brute-force construction of the complete-hypergraph incidence bigraph."""
    left = [str(i) for i in range(1, n + 1)]
    right, edges = [], []
    for slot, k in enumerate(ks, start=1):
        for subset in itertools.combinations(range(1, n + 1), k):
            rid = "{" + ",".join(map(str, subset)) + "}@" + str(slot)
            right.append(rid)
            edges += [(str(v), rid) for v in subset]
    return Bigraph(left, right, edges)


@st.composite
def bigraphs(draw):
    n1 = draw(st.integers(0, 4))
    n2 = draw(st.integers(0, 4))
    left = [f"l{i}" for i in range(n1)]
    right = [f"r{i}" for i in range(n2)]
    pool = [(l, r) for l in left for r in right]
    edges = [e for e in pool if draw(st.booleans())]
    return Bigraph(left, right, edges)


# ---------------------------------------------------------------------------
# construction and invariants


def test_construction_validation():
    with pytest.raises(ValueError):
        Bigraph(["a"], ["a"], [])
    with pytest.raises(ValueError):
        Bigraph(["a"], ["b"], [("a", "z")])
    with pytest.raises(ValueError):
        Bigraph(["a", "a"], ["b"], [])
    with pytest.raises(ValueError, match="^d must be nonnegative$"):
        star(-1)
    with pytest.raises(ValueError, match="^d must be nonnegative$"):
        dual_star(-1)
    with pytest.raises(ValueError, match="^k must be positive$"):
        book(0)


def test_counts_and_neighborhoods():
    g = cycle4()
    assert (g.v1, g.v2, g.v, g.e) == (2, 2, 4, 4)
    assert g.neighbors("a") == frozenset({"c", "d"})
    assert g.degree("c") == 2
    assert g.is_biregular()
    assert rho().is_biregular()
    assert star(2).left_regular_degree() == 2
    assert star(2).right_regular_degree() == 1
    assert book(2).left_regular_degree() is None  # p has degree 3, u_i degree 2


# ---------------------------------------------------------------------------
# induced subgraphs


def test_induced_subgraph_c4_star():
    g = cycle4()
    sub = induced_subgraph(g, {"a", "c", "d"})
    assert sub.left == ("a",)
    assert sub.right == ("c", "d")
    assert sub.edges == frozenset({("a", "c"), ("a", "d")})


def test_induced_subgraph_identity():
    g = book(3)
    assert induced_subgraph(g, g.vertex_set()) == g


def test_induced_subgraph_incidence_pair():
    g = incidence_oracle(4, [2])
    u = {"1", "2", "{1,2}@1"}
    sub = induced_subgraph(g, u)
    # oracle: filter edges with both endpoints inside u
    expect = {e for e in g.edges if set(e) <= u}
    assert sub.edges == expect == {("1", "{1,2}@1"), ("2", "{1,2}@1")}


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(cycle4(), {"a", "zzz"})
    with pytest.raises(ValueError, match="^unknown vertex 'zzz'$"):
        cycle4().degree("zzz")


def test_spanning_subgraph_and_endomorphism_refusals():
    with pytest.raises(ValueError, match="edges of the host graph"):
        cycle4().spanning_subgraph([("a", "c"), ("b", "a")])
    identity = {v: v for v in cycle4().vertices()}
    assert cycle4().is_endomorphism(identity)
    # a map missing a vertex, a left vertex sent right, a right vertex sent left
    assert not cycle4().is_endomorphism({"a": "a"})
    assert not cycle4().is_endomorphism({**identity, "a": "c"})
    assert not cycle4().is_endomorphism({**identity, "c": "a"})


@given(bigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_induced_subgraph_nesting(g, data):
    u2 = {v for v in g.vertices() if data.draw(st.booleans())}
    u1 = {v for v in u2 if data.draw(st.booleans())}
    assert induced_subgraph(induced_subgraph(g, u2), u1) == induced_subgraph(g, u1)


# ---------------------------------------------------------------------------
# amalgamation


def test_amalgamate_two_stars():
    g1 = Bigraph(["0"], ["1", "2"], [("0", "1"), ("0", "2")])
    g2 = Bigraph(["0"], ["3", "4"], [("0", "3"), ("0", "4")])
    assert amalgamate_left([g1, g2]) == star(4)


def test_amalgamate_single_identity():
    g = book(2)
    assert amalgamate_left([g]) == g


def test_amalgamate_incidence_counts():
    g = amalgamate_left([incidence_oracle(4, [2]),
                         Bigraph([str(i) for i in range(1, 5)],
                                 incidence_oracle(4, [3]).right,
                                 incidence_oracle(4, [3]).edges)])
    assert g.v2 == 10
    assert g.e == 24


def test_amalgamate_errors():
    with pytest.raises(ValueError, match="^need at least one graph$"):
        amalgamate_left([])
    with pytest.raises(ValueError):
        amalgamate_left([star(2), cycle4()])
    g1 = Bigraph(["0"], ["1"], [("0", "1")])
    with pytest.raises(ValueError):
        amalgamate_left([g1, g1])


def test_amalgamate_associative_and_additive():
    gs = [Bigraph(["0"], [f"x{i}"], [("0", f"x{i}")]) for i in range(3)]
    assert amalgamate_left(gs) == amalgamate_left([amalgamate_left(gs[:2]), gs[2]])
    total = amalgamate_left(gs)
    assert total.v2 == sum(g.v2 for g in gs)
    assert total.e == sum(g.e for g in gs)


# ---------------------------------------------------------------------------
# 2-cores


def strip_oracle(g, protected=frozenset(), seed=0):
    """Remove degree-<2 unprotected vertices one at a time in random order."""
    rng = random.Random(seed)
    cur = g
    while True:
        doomed = [v for v in cur.vertices()
                  if v not in protected and cur.degree(v) < 2]
        if not doomed:
            return cur
        cur = cur.without_vertices([rng.choice(doomed)])


def test_two_core_examples():
    assert two_core(star(2)).v == 0
    assert two_core(cycle4()) == cycle4()
    assert two_core(book(2)) == book(2)
    assert two_core(book(2)) == strip_oracle(book(2))


@given(bigraphs(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_two_core_idempotent_and_order_free(g, seed):
    core = two_core(g)
    assert two_core(core) == core
    assert core == strip_oracle(g, seed=seed)


def test_two_core_flag_examples():
    f = two_core_flag(Flag(star(2), ("1",)))
    assert f.graph.v == 1 and f.graph.e == 0 and f.labels == ("1",)
    assert f == Flag(Bigraph([], ["1"], []), ("1",))

    f2 = Flag(cycle4(), ("a",))
    assert two_core_flag(f2) == f2

    f3 = Flag(rho(), ("1", "2"))
    assert two_core_flag(f3) == f3


def test_flag_validation():
    with pytest.raises(ValueError, match="^labels must be distinct$"):
        Flag(cycle4(), ("a", "a"))
    with pytest.raises(ValueError, match="^labels must be vertices of the underlying graph$"):
        Flag(cycle4(), ("z",))


# ---------------------------------------------------------------------------
# automorphisms


def is_automorphism(g, phi):
    if sorted(phi) != sorted(g.vertices()) or sorted(phi.values()) != sorted(g.vertices()):
        return False
    if any(g.side(v) != g.side(phi[v]) for v in g.vertices()):
        return False
    return all(((phi[l], phi[r]) in g.edges) == ((l, r) in g.edges)
               for l in g.left for r in g.right)


def test_automorphisms_star2():
    auts = automorphisms(star(2))
    assert len(auts) == 2
    assert {tuple(sorted(a.items())) for a in auts} == {
        (("0", "0"), ("1", "1"), ("2", "2")),
        (("0", "0"), ("1", "2"), ("2", "1")),
    }


def test_map_search_edge_cases():
    assert automorphisms(Bigraph([], [])) == [{}]
    # a prescription naming a vertex of neither graph extends to no map
    assert find_isomorphism(cycle4(), cycle4(), {"z": "a"}) is None
    assert find_isomorphism(cycle4(), cycle4(), {"a": "z"}) is None
    assert find_isomorphism(cycle4(), cycle4(), {"a": "b"}) is not None


def test_automorphisms_c4():
    auts = automorphisms(cycle4())
    # brute force oracle over 2! * 2! side-preserving candidates
    brute = []
    for pl in itertools.permutations(["a", "b"]):
        for pr in itertools.permutations(["c", "d"]):
            cand = dict(zip(["a", "b"], pl)) | dict(zip(["c", "d"], pr))
            if is_automorphism(cycle4(), cand):
                brute.append(cand)
    assert len(auts) == len(brute) == 4


def test_automorphisms_incidence_point_action():
    g = incidence_oracle(4, [2])
    auts = automorphisms(g)
    assert len(auts) == 24
    # each automorphism is forced by its point permutation
    point_perms = {tuple(a[str(i)] for i in range(1, 5)) for a in auts}
    assert len(point_perms) == 24


def test_automorphism_group_closure():
    auts = automorphisms(book(2))
    keys = {tuple(sorted(a.items())) for a in auts}
    ident = {v: v for v in book(2).vertices()}
    assert tuple(sorted(ident.items())) in keys
    for a in auts:
        inv = {v: k for k, v in a.items()}
        assert tuple(sorted(inv.items())) in keys
        for b in auts:
            comp = {v: a[b[v]] for v in b}
            assert tuple(sorted(comp.items())) in keys


def test_refinement_labels_stay_ints_on_a_long_path():
    # nested class keys grew to about 590k characters on this path
    verts = [f"v{i:02d}" for i in range(24)]
    edges = [(verts[i], verts[i + 1]) if i % 2 == 0 else (verts[i + 1], verts[i])
             for i in range(23)]
    g = Bigraph(verts[0::2], verts[1::2], edges)
    labels = _refine_classes(g)  # one class per vertex index
    assert len(labels) == g.v and all(type(c) is int for c in labels)
    assert set(labels) == set(range(len(set(labels))))
    # reversing the path swaps the sides, so only the identity remains
    assert automorphisms(g) == [{v: v for v in g.vertices()}]


def test_automorphism_cap():
    # groups of 13!^2 and 10! maps exceed the search node budget
    for big in [Bigraph([f"l{i}" for i in range(13)], [f"r{i}" for i in range(13)], []),
                star(10)]:
        with pytest.raises(GraphTooLargeError, match="search nodes"):
            automorphisms(big)


@pytest.mark.parametrize("n, order", [(5, 120), (6, 720)])
def test_automorphisms_past_24_vertices(n, order):
    # 25 and 41 vertices: the budget bounds nodes visited, not vertex count
    assert len(automorphisms(incidence_oracle(n, [2, 3]))) == order


def test_colored_automorphisms():
    g = cycle4()
    mono = ColoredBigraph(g, {e: 1 for e in g.edges})
    assert len(colored_automorphisms(mono)) == 4

    marked = ColoredBigraph(g, {e: (2 if e == ("a", "c") else 1) for e in g.edges})
    got = colored_automorphisms(marked)
    # filter oracle: automorphisms fixing the endpoints of the marked edge pairwise
    expect = [a for a in automorphisms(g) if a["a"] == "a" and a["c"] == "c"]
    assert got == expect
    assert len(got) == 1


def test_colored_automorphisms_natural_coloring():
    g23 = amalgamate_left([incidence_oracle(4, [2]),
                           Bigraph([str(i) for i in range(1, 5)],
                                   incidence_oracle(4, [3]).right,
                                   incidence_oracle(4, [3]).edges)])
    # natural coloring: color by uniformity of the right endpoint
    colors = {}
    for l, r in g23.edges:
        size = r.split("}@")[0].count(",") + 1
        colors[(l, r)] = 1 if size == 2 else 2
    h = ColoredBigraph(g23, colors)
    assert h.is_right_uniform()
    assert len(colored_automorphisms(h)) == 24


# ---------------------------------------------------------------------------
# colored bigraph predicates


def test_colored_predicates():
    g = cycle4()
    h = ColoredBigraph(g, {("a", "c"): 1, ("b", "c"): 1, ("a", "d"): 2, ("b", "d"): 2})
    assert h.is_right_uniform()
    assert h.color_set() == (1, 2)
    assert h.edge_count(1) == 2
    assert h.color_degree("a", 1) == 1
    assert h.is_left_color_regular()

    mixed = ColoredBigraph(g, {("a", "c"): 1, ("b", "c"): 2, ("a", "d"): 1, ("b", "d"): 2})
    assert not mixed.is_right_uniform()
    assert not mixed.is_left_color_regular()

    kept = h.restrict_colors([1])
    assert kept.graph.edges == frozenset({("a", "c"), ("b", "c")})
    assert kept.graph.left == g.left  # vertices survive color restriction


def test_colored_validation():
    g = cycle4()
    with pytest.raises(ValueError):
        ColoredBigraph(g, {("a", "c"): 1})


# ---------------------------------------------------------------------------
# isomorphism helpers


def test_graph_isomorphism():
    g1 = Bigraph(["x", "y"], ["s", "t"],
                 [("x", "s"), ("x", "t"), ("y", "s"), ("y", "t")])
    assert graphs_isomorphic(g1, cycle4())
    assert not graphs_isomorphic(star(2), dual_star(2))
    # the same path plus an isolated vertex, its center on opposite sides
    center_left = Bigraph(["a", "d"], ["b", "c"], [("a", "b"), ("a", "c")])
    center_right = Bigraph(["x", "y"], ["z", "w"], [("x", "z"), ("y", "z")])
    assert not graphs_isomorphic(center_left, center_right)


def test_flag_isomorphism_respects_labels():
    page1 = induced_subgraph(book(2), {"p", "q", "u1", "w1"})
    page2 = induced_subgraph(book(2), {"p", "q", "u2", "w2"})
    assert flags_isomorphic(Flag(page1, ("p", "q")), Flag(page2, ("p", "q")))
    # a leaf cannot be matched to the center (sides differ)
    assert not flags_isomorphic(Flag(star(2), ("1",)), Flag(star(2), ("0",)))
    # label counts must agree
    assert not flags_isomorphic(Flag(page1, ("p",)), Flag(page2, ("p", "q")))


# ---------------------------------------------------------------------------
# JSON round trip


@given(bigraphs())
@settings(max_examples=60, deadline=None)
def test_json_round_trip(g):
    assert from_json_dict(to_json_dict(g)) == g


def test_json_round_trip_colored():
    g = cycle4()
    h = ColoredBigraph(g, {e: i for i, e in enumerate(sorted(g.edges))})
    d = to_json_dict(h)
    assert d["edge_colors"] == [0, 1, 2, 3]
    assert from_json_dict(d) == h


def test_left_labeled():
    f = left_labeled(cycle4())
    assert f.labels == ("a", "b")
