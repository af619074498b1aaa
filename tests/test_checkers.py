"""Tests for degree-profile checkers, orbit sums, and RTD verification."""

import itertools

import pytest

from sidlab.bigraph import (
    ColoredBigraph,
    Bigraph,
    _orbit,
    book,
    colored_automorphisms,
    cycle4,
    graphs_isomorphic,
    two_core,
)
from sidlab.checkers import (
    DegreeProfile,
    PreconditionError,
    ReflectiveTreeDecomposition,
    check_conlonlee_divisibility,
    check_conlonlee_profile,
    check_largeright,
    check_largeright_profile,
    check_orbit_hypotheses,
    verify_rtd,
)
from sidlab.reflection import build_incidence


# ---------------------------------------------------------------------------
# degree profiles


def test_profile_from_graph_and_realization():
    g = build_incidence(4, [2]).graph
    prof = DegreeProfile.from_graph(g)
    assert prof.as_dict() == {2: 6}
    assert prof.v2 == 6

    rebuilt = DegreeProfile(4, {2: 6}).to_bigraph()
    assert DegreeProfile.from_graph(rebuilt).as_dict() == {2: 6}
    assert graphs_isomorphic(rebuilt, g)


def test_profile_validation():
    with pytest.raises(ValueError):
        DegreeProfile(2, {5: 1})
    with pytest.raises(ValueError):
        DegreeProfile(-1, {})
    with pytest.raises(ValueError, match="^degrees and counts must be nonnegative$"):
        DegreeProfile(4, {2: -1})


def test_largeright_examples():
    assert check_largeright_profile(DegreeProfile(4, {2: 6}))
    assert not check_largeright_profile(DegreeProfile(4, {2: 5}))
    assert check_largeright_profile(DegreeProfile(4, {3: 4}))
    assert check_largeright_profile(DegreeProfile(4, {2: 6, 3: 4}))
    # degree-1 vertices are unconstrained
    assert check_largeright_profile(DegreeProfile(4, {1: 3, 2: 6}))


def test_largeright_graph_and_isolated_precondition():
    assert check_largeright(build_incidence(4, [2]).graph)
    lonely = Bigraph(["1", "2"], ["r"], [("1", "r"), ("2", "r")])
    assert check_largeright(lonely).passed  # d_2 = 1 >= C(2,2) = 1
    padded = Bigraph(["1", "2", "3"], ["r"], [("1", "r"), ("2", "r")])
    with pytest.raises(PreconditionError):
        check_largeright(padded)


def test_conlonlee_examples():
    assert check_conlonlee_profile(DegreeProfile(4, {2: 6}))
    seven = check_conlonlee_profile(DegreeProfile(4, {2: 7}))
    assert not seven
    assert check_largeright_profile(DegreeProfile(4, {2: 7}))
    three = DegreeProfile(4, {2: 3})
    assert not check_conlonlee_profile(three)
    assert not check_largeright_profile(three)


def test_conlonlee_graph_form():
    assert check_conlonlee_divisibility(build_incidence(4, [2]).graph)


def test_divisibility_implies_threshold_exhaustive():
    found_separator = False
    for v1 in range(1, 7):
        for d2, d3, d4 in itertools.product(range(0, 65, 4), repeat=3):
            prof = DegreeProfile(v1, {k: d for k, d in
                                      [(2, d2), (3, d3), (4, d4)] if k <= v1})
            div = check_conlonlee_profile(prof).passed
            thr = check_largeright_profile(prof).passed
            assert not div or thr
            if thr and not div:
                found_separator = True
    assert found_separator
    sep = DegreeProfile(4, {2: 7})
    assert check_largeright_profile(sep) and not check_conlonlee_profile(sep)


# ---------------------------------------------------------------------------
# orbit-sum hypotheses


def natural_k42():
    return build_incidence(4, [2])


def test_orbit_check_equality_on_template():
    h = natural_k42()
    report = check_orbit_hypotheses(h.graph, h, lwh_trials=15, seed=1)
    assert report.passed and bool(report)
    assert all(row["g_sum"] == row["h_sum"] for row in report.orbits)
    assert "evidence" in report.evidence_note


def test_orbit_check_aggregated_profile_passes():
    h = natural_k42()
    g = DegreeProfile(4, {2: 7}).to_bigraph()
    report = check_orbit_hypotheses(g, h, lwh_trials=15, seed=2)
    assert report.passed
    (row,) = report.orbits
    assert row["g_sum"] == 7 and row["h_sum"] == 6


def test_orbit_check_zero_mass_fails():
    h = natural_k42()
    # one right vertex with a 3-element neighborhood: h has no such orbit
    g = Bigraph([str(i) for i in range(1, 5)], ["x"],
                [("1", "x"), ("2", "x"), ("3", "x")])
    # pad so no isolated left vertices
    g = Bigraph(g.left, list(g.right) + ["y"],
                list(g.edges) + [("4", "y"), ("1", "y")])
    report = check_orbit_hypotheses(g, h, lwh_trials=10, seed=3)
    assert not report.passed and not bool(report)
    bad = [row for row in report.orbits if not row["ok_zero"]]
    assert bad and bad[0]["h_sum"] == 0


def test_orbit_check_preconditions_itemized():
    h = natural_k42()
    mismatched = Bigraph(["9"], ["r"], [("9", "r")])
    with pytest.raises(PreconditionError) as err:
        check_orbit_hypotheses(mismatched, h, lwh_trials=5, seed=4)
    assert any("V_1" in item for item in err.value.items)

    isolated = Bigraph(h.graph.left, ["r", "s"], [(v, "r") for v in h.graph.left])
    with pytest.raises(PreconditionError) as err:
        check_orbit_hypotheses(isolated, h, lwh_trials=5, seed=5)
    assert any("isolated" in item for item in err.value.items)


@pytest.mark.parametrize("colors, problem", [
    ({}, "h is trivial (no edges)"),
    ({("x", "r"): 1, ("y", "r"): 2}, "h is not right-uniform"),
    ({("x", "r"): 1}, "h has isolated vertices"),
])
def test_orbit_check_refuses_a_degenerate_template(colors, problem):
    h = ColoredBigraph(Bigraph(["x", "y"], ["r"], colors), colors)
    g = Bigraph(["x", "y"], ["s"], [("x", "s"), ("y", "s")])
    with pytest.raises(PreconditionError) as err:
        check_orbit_hypotheses(g, h, lwh_trials=5, seed=0)
    assert problem in err.value.items


def test_orbit_check_rejects_non_color_edge_transitive_template():
    # two stars of different degree, one color: the color class splits into
    # two automorphism orbits
    g = Bigraph(["x", "y"], ["r1", "r2", "r3"],
                [("x", "r1"), ("y", "r2"), ("y", "r3")])
    h = ColoredBigraph(g, {e: 1 for e in g.edges})
    assert h.is_right_uniform()
    with pytest.raises(PreconditionError) as err:
        check_orbit_hypotheses(g, h, lwh_trials=5, seed=7)
    assert any("color-edge-transitive" in item for item in err.value.items)


def test_orbit_check_n5_template():
    h = build_incidence(5, [2])
    g = DegreeProfile(5, {2: 12}).to_bigraph()
    report = check_orbit_hypotheses(g, h, lwh_trials=10, seed=8)
    assert report.passed
    (row,) = report.orbits
    assert row["g_sum"] == 12 and row["h_sum"] == 10


def test_orbit_check_invariant_under_right_relabeling():
    h = natural_k42()
    g = DegreeProfile(4, {2: 7}).to_bigraph()
    renamed = Bigraph(g.left, [f"zz{w}" for w in g.right],
                      [(l, f"zz{r}") for l, r in g.edges])
    a = check_orbit_hypotheses(g, h, lwh_trials=10, seed=6)
    b = check_orbit_hypotheses(renamed, h, lwh_trials=10, seed=6)
    assert a.passed == b.passed
    assert [(r["g_sum"], r["h_sum"]) for r in a.orbits] == \
        [(r["g_sum"], r["h_sum"]) for r in b.orbits]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbits_under_a_listed_group_are_image_sets(n):
    """The listed colored automorphisms are a whole group, so the images of
    an edge or a right neighborhood under them are its orbit: the closure
    `_orbit` takes under them as generators."""
    h = build_incidence(n, [2, 3])
    auts = colored_automorphisms(h)
    g = h.graph
    points = [(e, lambda a, e: (a[e[0]], a[e[1]])) for e in g.sorted_edges()]
    points += [(frozenset(g.neighbors(w)), lambda a, s: frozenset(a[v] for v in s))
               for w in g.right]
    for x, move in points:
        assert {move(a, x) for a in auts} == _orbit(x, auts, move)


# ---------------------------------------------------------------------------
# reflective tree decompositions


def test_rtd_single_bag():
    g = book(2)
    t = ReflectiveTreeDecomposition([g.vertex_set()])
    report = verify_rtd(g, t)
    assert report.passed
    assert report.core == two_core(g)


def test_rtd_book_two_pages():
    g = book(2)
    t = ReflectiveTreeDecomposition(
        [{"p", "q", "u1", "w1"}, {"p", "q", "u2", "w2"}], [(0, 1)])
    report = verify_rtd(g, t)
    assert report.passed
    assert graphs_isomorphic(report.core, cycle4())


def test_rtd_rejects_missing_cover():
    g = book(2)
    t = ReflectiveTreeDecomposition(
        [{"p", "q", "u1", "w1"}, {"p", "q", "u2"}], [(0, 1)])
    report = verify_rtd(g, t)
    assert not report.passed
    assert "cover" in report.reason or "inside no bag" in report.reason
    # every vertex is in a bag, but no bag holds both ends of (p, w2)
    split = ReflectiveTreeDecomposition(
        [{"p", "q", "u1", "w1"}, {"q", "u2", "w2"}], [(0, 1)])
    assert verify_rtd(g, split).reason == "edge (p, w2) is inside no bag"


def test_rtd_rejects_running_intersection_violation():
    g = book(2)
    t = ReflectiveTreeDecomposition(
        [{"p", "q", "u1", "w1"}, {"q", "u1"}, {"p", "q", "u2", "w2"}],
        [(0, 1), (1, 2)])
    report = verify_rtd(g, t)
    assert not report.passed
    assert "running intersection" in report.reason


def test_rtd_bags_that_share_nothing():
    # the path a - x - b - y: its end bags are disjoint, so they set no
    # running-intersection condition
    g = Bigraph(["a", "b"], ["x", "y"], [("a", "x"), ("b", "x"), ("b", "y")])
    t = ReflectiveTreeDecomposition([{"a", "x"}, {"x", "b"}, {"b", "y"}], [(0, 1), (1, 2)])
    report = verify_rtd(g, t)
    assert report.passed and report.reason == ""


def test_rtd_rejects_core_mismatch():
    g = book(2)
    t = ReflectiveTreeDecomposition(
        [{"p", "q", "u1", "w1"}, {"p", "q", "u2", "w2", "w1"}], [(0, 1)])
    report = verify_rtd(g, t)
    assert not report.passed
    assert "2-core" in report.reason


def test_rtd_tree_validation():
    with pytest.raises(ValueError):
        ReflectiveTreeDecomposition([{"p"}, {"q"}], [])  # disconnected
    with pytest.raises(ValueError):
        ReflectiveTreeDecomposition([{"p"}, {"q"}], [(0, 1), (1, 0)])
    # n - 1 edges, but a cycle and a lone bag
    with pytest.raises(ValueError, match="^tree is not connected$"):
        ReflectiveTreeDecomposition([{"p"}, {"q"}, {"r"}, {"s"}], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(PreconditionError):
        verify_rtd(Bigraph(["a"], ["b"], []),
                   ReflectiveTreeDecomposition([{"a", "b"}]))


def test_rtd_amalgamation_bags_pass():
    # decompositions from left amalgamations with matching shared cores
    g1 = Bigraph(["0"], ["1", "2"], [("0", "1"), ("0", "2")])
    g2 = Bigraph(["0"], ["3", "4"], [("0", "3"), ("0", "4")])
    from sidlab.bigraph import amalgamate_left
    g = amalgamate_left([g1, g2])
    t = ReflectiveTreeDecomposition(
        [g1.vertex_set(), g2.vertex_set()], [(0, 1)])
    report = verify_rtd(g, t)
    assert report.passed
