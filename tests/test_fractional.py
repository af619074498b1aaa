"""Tests for colored fractional bigraphs and their densities."""

import itertools
import math
import sys

import numpy as np
import pytest

from sidlab.bigraph import Bigraph, ColoredBigraph
from sidlab.bigraphon import BigraphonTuple, StepBigraphon, random_step_bigraphon
from sidlab.density import colored_density, density, left_regularize_tuple
from sidlab.fractional import (
    ColoredFractionalBigraph,
    color_power,
    compile_profiles,
    dual_star_table,
    fractional_density,
    from_right_uniform,
    rainbow_star,
)
from sidlab.reflection import build_incidence
from sidlab.testers import fractional_from_json, fractional_to_json


def tuple_of(seeds, rows=3, cols=3):
    return BigraphonTuple({c: random_step_bigraphon(rows, cols, seed=s)
                           for c, s in seeds.items()})


# ---------------------------------------------------------------------------
# the type


def test_construction_and_derived_quantities():
    h = ColoredFractionalBigraph(
        ["u", "v"], [1, 2],
        {(("u", "v"), 1): 2.0, (("u",), 2): 1.5, (("v",), 2): 1.5})
    assert h.edge_mass(1) == pytest.approx(4.0)  # |{u,v}| * 2
    assert h.weight(("v", "u"), 1) == 2.0 and h.weight(("u", "v"), 2) == 0.0
    assert h.edge_mass(2) == pytest.approx(3.0)
    assert h.total_edge_mass() == pytest.approx(7.0)
    assert h.degree("u", 1) == pytest.approx(2.0)
    assert h.degree("u", 2) == pytest.approx(1.5)
    assert h.is_color_regular()


def test_construction_validation():
    with pytest.raises(ValueError):
        ColoredFractionalBigraph(["u"], [1], {(("u",), 1): -1.0})
    with pytest.raises(ValueError):
        ColoredFractionalBigraph(["u"], [1], {(("z",), 1): 1.0})
    with pytest.raises(ValueError):
        ColoredFractionalBigraph(["u"], [1], {(("u",), 9): 1.0})
    with pytest.raises(ValueError, match="repeats a vertex"):
        ColoredFractionalBigraph(["a", "b"], [1], {(("a", "a"), 1): 1.0})
    with pytest.raises(ValueError, match="named twice"):
        ColoredFractionalBigraph(
            ["a", "b"], [1], {(("a", "b"), 1): 1.0, (("b", "a"), 1): 2.0})
    with pytest.raises(ValueError, match="named twice"):
        fractional_from_json({"vertices": ["a", "b"], "colors": [1],
                              "weights": [[["a", "b"], 1, 1.0], [["a", "b"], 1, 2.0]]})


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=repr)
def test_a_non_finite_weight_is_refused(x):
    with pytest.raises(ValueError, match="finite"):
        ColoredFractionalBigraph(["u"], [1], {(("u",), 1): x})
    with pytest.raises(ValueError, match=r"fractional bigraph 'weights'\[0\]\[2\] must be a finite"):
        fractional_from_json({"vertices": ["u"], "colors": [1], "weights": [[["u"], 1, x]]})


def test_a_weight_past_the_float_range_is_refused_as_non_finite():
    for x in (10**400, -10**400):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            ColoredFractionalBigraph(["u"], [1], {(("u",), 1): x})


def test_json_round_trip():
    made = [from_right_uniform(build_incidence(n, us))
            for n, us in ((3, [2]), (3, [1, 2]), (4, [2, 3]))]
    made += [color_power(made[1], {1: 0.5, 2: 1.25}), rainbow_star(made[2])]
    for h in made:
        assert fractional_from_json(fractional_to_json(h)) == h


def test_zero_weights_dropped():
    h = ColoredFractionalBigraph(["u"], [1], {(("u",), 1): 0.0})
    assert h.weights == ()
    assert h.total_edge_mass() == 0.0


# ---------------------------------------------------------------------------
# h_H and friends


def test_from_right_uniform_counts():
    h = build_incidence(3, [2])
    frac = from_right_uniform(h)
    assert frac.vertices == ("1", "2", "3")
    assert frac.weight(("1", "2"), 1) == 1.0
    assert frac.edge_mass(1) == pytest.approx(6.0)
    assert frac.is_color_regular()


def test_from_right_uniform_requires_uniformity():
    g = Bigraph(["a", "b"], ["c"], [("a", "c"), ("b", "c")])
    mixed = ColoredBigraph(g, {("a", "c"): 1, ("b", "c"): 2})
    with pytest.raises(ValueError):
        from_right_uniform(mixed)
    isolated = ColoredBigraph(Bigraph(["a", "b"], ["c"], [("a", "c")]),
                              {("a", "c"): 1})
    with pytest.raises(ValueError):
        from_right_uniform(isolated)


def test_color_power():
    h = from_right_uniform(build_incidence(3, [1, 2]))
    assert h.edge_mass(1) == pytest.approx(3.0)
    assert h.edge_mass(2) == pytest.approx(6.0)
    doubled = color_power(h, {1: 2.0, 2: 3.0})
    assert doubled.edge_mass(1) == pytest.approx(6.0)
    assert doubled.edge_mass(2) == pytest.approx(18.0)
    zeroed = color_power(h, {1: 0.0, 2: 0.0})
    assert zeroed.total_edge_mass() == 0.0
    unchanged = color_power(h, {1: 1.0, 2: 1.0})
    assert unchanged == h
    with pytest.raises(ValueError):
        color_power(h, {1: 1.0})


def test_rainbow_star():
    h = ColoredFractionalBigraph(
        ["u"], [1, 2], {(("u",), 1): 2.0, (("u",), 2): 3.0})
    star = rainbow_star(h)
    assert star.weight(("1",), 1) == pytest.approx(0.4)
    assert star.weight(("1",), 2) == pytest.approx(0.6)
    assert star.total_edge_mass() == pytest.approx(1.0)
    assert rainbow_star(star).weights == star.weights  # fixed point
    with pytest.raises(ValueError):
        rainbow_star(ColoredFractionalBigraph(["u"], [1], {}))


def test_rainbow_star_single_color():
    h = from_right_uniform(build_incidence(3, [2]))
    star = rainbow_star(h)
    assert star.weight(("1",), 1) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# fractional densities


def test_fractional_density_sqrt_example():
    h = ColoredFractionalBigraph(["v"], [1], {(("v",), 1): 0.5})
    ws = BigraphonTuple({1: StepBigraphon.constant(4.0)})
    assert fractional_density(h, ws) == pytest.approx(2.0, rel=1e-14)


def test_fractional_density_matches_colored_rainbow():
    star_graph = Bigraph(["1"], ["c1", "c2"], [("1", "c1"), ("1", "c2")])
    colored = ColoredBigraph(star_graph, {("1", "c1"): 1, ("1", "c2"): 2})
    frac = from_right_uniform(colored)
    ws = tuple_of({1: 21, 2: 22})
    assert fractional_density(frac, ws) == pytest.approx(
        colored_density(colored, ws), rel=1e-13)


def test_fractional_density_matches_colored_incidence():
    h = build_incidence(3, [2])
    frac = from_right_uniform(h)
    ws = tuple_of({1: 31})
    assert fractional_density(frac, ws) == pytest.approx(
        colored_density(h, ws), rel=1e-12)

    h2 = build_incidence(3, [1, 2])
    frac2 = from_right_uniform(h2)
    ws2 = tuple_of({1: 33, 2: 34})
    assert fractional_density(frac2, ws2) == pytest.approx(
        colored_density(h2, ws2), rel=1e-12)


def fractional_density_brute_force(h, ws):
    """Sum over every row assignment; each dual star is an explicit column sum."""
    mu = ws.row_weights
    total = 0.0
    for xs in itertools.product(range(mu.size), repeat=len(h.vertices)):
        x = dict(zip(h.vertices, xs))
        term = math.prod(mu[i] for i in xs)
        for sub, c, wgt in h.weights:
            w = ws[c]
            star = sum(w.col_weights[y] * math.prod(w.values[x[v], y] for v in sub)
                       for y in range(w.cols))
            term *= star ** wgt
        total += term
    return total


def test_fractional_density_matches_brute_force():
    mu, nu = [0.2, 0.5, 0.3], [0.1, 0.6, 0.3]
    rng = np.random.default_rng(12)
    zero = rng.uniform(0.1, 1.0, size=(3, 3))
    zero[1, :] = 0.0  # row 1 kills every dual star that touches it
    ws = BigraphonTuple({1: StepBigraphon(mu, nu, rng.uniform(0.1, 2.0, size=(3, 3))),
                         2: StepBigraphon(mu, nu, zero)})
    cases = [
        {(("u", "v"), 1): 0.5, (("v", "w"), 2): 1.7, (("u",), 2): 2.25},
        {(("u", "v", "w"), 2): 0.3},
        {(("u",), 1): 1.5, (("v",), 2): 0.75},  # w lies in no subset
        {(("u", "w"), 1): 1.0, (("u", "w"), 2): 1.0, (("v",), 1): 2.0},
    ]
    for weights in cases:
        h = ColoredFractionalBigraph(["u", "v", "w"], [1, 2], weights)
        expected = fractional_density_brute_force(h, ws)
        assert fractional_density(h, ws) == pytest.approx(expected, rel=1e-12)


def test_fractional_density_missing_color():
    h = ColoredFractionalBigraph(["v"], [5], {(("v",), 5): 1.0})
    with pytest.raises(ValueError):
        fractional_density(h, tuple_of({1: 1}))


def test_fractional_density_empty_subset_and_zero_mass():
    # an empty subset is refused whatever its weight
    for wgt in (7.0, 0.0):
        with pytest.raises(ValueError, match="subsets must be nonempty"):
            ColoredFractionalBigraph(["v"], [1], {((), 1): wgt})
    h = ColoredFractionalBigraph(["v"], [1], {(("v",), 1): 0.0})
    assert fractional_density(h, tuple_of({1: 4})) == pytest.approx(1.0)  # no edges


def test_dual_star_table_matches_flag_density():
    from sidlab.bigraph import dual_star, left_labeled
    from sidlab.density import flag_density

    w = random_step_bigraphon(3, 4, seed=17)
    for k in (1, 2, 3):
        table = dual_star_table(w, k)
        f = left_labeled(dual_star(k))
        for xs in itertools.product(range(3), repeat=k):
            assignment = dict(zip(f.labels, xs))
            assert table[xs] == pytest.approx(flag_density(f, w, assignment),
                                              rel=1e-12)


# ---------------------------------------------------------------------------
# batched profile densities


def profile_graph(v1_ids, profile):
    """Graph with the given multiset of right-vertex neighborhoods."""
    right, edges = [], []
    idx = 0
    for subset, count in sorted(profile.items(), key=lambda kv: sorted(kv[0])):
        for _ in range(int(count)):
            rid = f"R{idx}"
            idx += 1
            right.append(rid)
            edges += [(v, rid) for v in subset]
    return Bigraph(v1_ids, right, edges)


def test_batch_profile_log_densities_against_engine():
    verts = ["x", "y", "z"]
    profiles = [
        {frozenset({"x"}): 1.0},
        {frozenset({"x", "y"}): 2.0},
        {frozenset({"x", "y", "z"}): 1.0, frozenset({"y"}): 3.0},
        {frozenset({"x", "y"}): 1.0, frozenset({"y", "z"}): 1.0,
         frozenset({"x", "z"}): 1.0},
    ]
    for seed in (1, 2, 3):
        w = random_step_bigraphon(3, 4, seed=seed)
        logs = compile_profiles(verts, profiles)(w)
        for prof, logt in zip(profiles, logs):
            g = profile_graph(verts, prof)
            assert logt == pytest.approx(math.log(density(g, w)), abs=1e-11)


def test_batch_matches_engine_on_real_induced_profiles():
    from sidlab.reflection import build_incidence
    from sidlab.testers import induced_subgraph_profiles

    g = build_incidence(4, [2]).graph
    profiles = induced_subgraph_profiles(g)
    nonempty = [p for p in profiles if p][:12]
    w = random_step_bigraphon(4, 4, seed=77)
    logs = compile_profiles(g.left, nonempty)(w)
    for prof, logt in zip(nonempty, logs):
        built = profile_graph(g.left, prof)
        assert logt == pytest.approx(math.log(density(built, w)), abs=1e-11)


@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 7])
def test_batch_blocks_match_one_product(monkeypatch, rows_per_block):
    """Blocks of the profile batch agree with one whole product. The BLAS
    may pick another kernel for a few rows, so bits are not asserted."""
    from sidlab.testers import induced_subgraph_profiles

    g = build_incidence(4, [2, 3]).graph
    profiles = [p for p in induced_subgraph_profiles(g) if p]
    w = random_step_bigraphon(4, 4, seed=78)
    whole = compile_profiles(g.left, profiles)(w)
    assert len(profiles) == 227
    fractional = sys.modules["sidlab.fractional"]
    monkeypatch.setattr(fractional, "_BLOCK_CELLS", rows_per_block * 4 ** g.v1)
    blocked = compile_profiles(g.left, profiles)(w)
    np.testing.assert_allclose(blocked, whole, rtol=1e-15, atol=0)


def test_batch_refuses_a_zero_value():
    batch = compile_profiles(["x"], [{frozenset({"x"}): 1.0}])
    with pytest.raises(ValueError, match="strictly positive"):
        batch(StepBigraphon.uniform([[0.0, 1.0]]))


def test_batch_profile_handles_integer_exponents_only_graphs():
    # fractional exponents agree with fractional_density
    verts = ["x", "y"]
    prof = {frozenset({"x", "y"}): 0.5, frozenset({"x"}): 1.5}
    w = random_step_bigraphon(2, 3, seed=9)
    logs = compile_profiles(verts, [prof])(w)
    h = ColoredFractionalBigraph(
        verts, [1], {(("x", "y"), 1): 0.5, (("x",), 1): 1.5})
    assert logs[0] == pytest.approx(
        math.log(fractional_density(h, BigraphonTuple({1: w}))), abs=1e-11)


# ---------------------------------------------------------------------------
# left regularization


def test_left_regularize_single_color_identity():
    h = from_right_uniform(build_incidence(3, [2]))
    ws = tuple_of({1: 41})
    out = left_regularize_tuple(h, ws, pivot_color=1)
    assert out == ws


def test_left_regularize_unit_marginal_non_pivot_unchanged():
    h = from_right_uniform(build_incidence(3, [1, 2]))
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.2, 1.0, size=(3, 3))
    vals = vals / (vals @ np.full(3, 1 / 3))[:, None]  # row marginals exactly 1
    w1 = StepBigraphon.uniform(vals)
    w2 = random_step_bigraphon(3, 3, seed=51)
    ws = BigraphonTuple({1: w1, 2: w2})
    out = left_regularize_tuple(h, ws, pivot_color=2)
    assert np.allclose(out[1].values, w1.values)
    assert np.allclose(out[2].values, w2.values)  # compensation is 1^{e1/e2}


def test_left_regularize_invariances_and_regularity():
    h = from_right_uniform(build_incidence(3, [1, 2]))
    assert h.is_color_regular()
    for seed in range(5):
        ws = tuple_of({1: 100 + seed, 2: 200 + seed})
        out = left_regularize_tuple(h, ws, pivot_color=2)
        assert out[1].is_left_regular(tol=1e-10)
        assert fractional_density(h, out) == pytest.approx(
            fractional_density(h, ws), rel=1e-9)
        star = rainbow_star(h)
        assert fractional_density(star, out) == pytest.approx(
            fractional_density(star, ws), rel=1e-9)


def test_left_regularize_errors():
    irregular = ColoredFractionalBigraph(
        ["u", "v"], [1, 2], {(("u",), 1): 1.0, (("u", "v"), 2): 1.0})
    ws = tuple_of({1: 61, 2: 62})
    with pytest.raises(ValueError):
        left_regularize_tuple(irregular, ws, pivot_color=2)

    h = from_right_uniform(build_incidence(3, [1, 2]))
    with pytest.raises(ValueError):
        left_regularize_tuple(h, ws, pivot_color=9)

    zero_mass = ColoredFractionalBigraph(["u"], [1, 2], {(("u",), 2): 1.0})
    with pytest.raises(ValueError):
        left_regularize_tuple(zero_mass, ws, pivot_color=1)

    with_zero = BigraphonTuple({
        1: StepBigraphon.uniform([[1.0, 0.0], [1.0, 1.0]]),
        2: StepBigraphon.constant(1.0, 2, 2)})
    with pytest.raises(ValueError):
        left_regularize_tuple(h, with_zero, pivot_color=2)
