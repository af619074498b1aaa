"""Tests for the density engine: plain, flag, colored, weighted densities."""

import itertools
import json
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import test_fractional

from sidlab.bigraph import Bigraph, ColoredBigraph, Flag, book, cycle4, left_labeled, rho
from sidlab.bigraphon import BigraphonTuple, StepBigraphon, random_step_bigraphon
from sidlab.reflection import build_incidence
from sidlab.testers import replay_witness, report_to_json, test_sidorenko as sidorenko_tester
from sidlab.testers import test_strong_sidorenko as strong_sidorenko_tester
from sidlab.testers import test_weak_domination as weak_domination_tester
from sidlab.fractional import ColoredFractionalBigraph, fractional_density, rainbow_star
from sidlab.density import (
    colored_densities,
    colored_density,
    densities,
    density,
    density_brute_force,
    exponent_balance,
    flag_density,
    weighted_density,
)

DIAG = StepBigraphon.uniform([[1.0, 0.0], [0.0, 1.0]])
DENSITY = sys.modules["sidlab.density"]


def engine_only(monkeypatch):
    """Keep every plain density on the elimination engine."""
    monkeypatch.setattr(DENSITY, "_orbit_gate", lambda *sizes: False)


def random_bigraph(rng, max_side=5, max_total=10):
    v1 = int(rng.integers(1, max_side + 1))
    v2 = int(rng.integers(1, min(max_side, max_total - v1) + 1))
    left = [f"l{i}" for i in range(v1)]
    right = [f"r{i}" for i in range(v2)]
    edges = [(l, r) for l in left for r in right if rng.random() < 0.5]
    return Bigraph(left, right, edges)


def loop_density_oracle(g, w):
    """Tiny independent oracle: explicit nested loops over assignments."""
    total = 0.0
    left, right = list(g.left), list(g.right)
    for xs in itertools.product(range(w.rows), repeat=len(left)):
        for ys in itertools.product(range(w.cols), repeat=len(right)):
            x = dict(zip(left, xs))
            y = dict(zip(right, ys))
            term = 1.0
            for v in left:
                term *= w.row_weights[x[v]]
            for u in right:
                term *= w.col_weights[y[u]]
            for l, r in g.edges:
                term *= w.values[x[l], y[r]]
            total += term
    return total


# ---------------------------------------------------------------------------
# plain density


def test_density_edge_diag():
    assert density(rho(), DIAG) == pytest.approx(0.5, abs=1e-15)


def test_density_c4_diag():
    assert density(cycle4(), DIAG) == pytest.approx(0.125, abs=1e-15)
    assert density_brute_force(cycle4(), DIAG) == pytest.approx(0.125, abs=1e-15)


def test_brute_force_cap_is_typed():
    """Past BRUTE_FORCE_CAP assignments: GraphTooLargeError, message unchanged."""
    from sidlab.bigraph import GraphTooLargeError

    star = Bigraph(["a"], list("bcdefghijkl"), [("a", r) for r in "bcdefghijkl"])
    with pytest.raises(GraphTooLargeError,
                       match="brute force over 16777216 assignments exceeds cap"):
        density_brute_force(star, random_step_bigraphon(4, 4, seed=1))


def test_density_empty_graph():
    g = Bigraph(["a"], ["b"], [])
    assert density(g, DIAG) == 1.0
    assert density(Bigraph([], [], []), DIAG) == 1.0


def test_density_constant_power_rule():
    w = StepBigraphon.constant(0.7, 3, 2)
    for g in (rho(), cycle4(), Bigraph(["a", "b"], ["c"], [("a", "c")])):
        assert density(g, w) == pytest.approx(0.7 ** g.e, rel=1e-14)


def test_density_matches_brute_force_and_oracle():
    rng = np.random.default_rng(7)
    for trial in range(40):
        g = random_bigraph(rng, max_side=3, max_total=6)
        w = random_step_bigraphon(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                  seed=1000 + trial)
        ve = density(g, w)
        bf = density_brute_force(g, w)
        oracle = loop_density_oracle(g, w)
        assert ve == pytest.approx(bf, rel=1e-12)
        assert ve == pytest.approx(oracle, rel=1e-11)


def test_density_scaling_law():
    rng = np.random.default_rng(11)
    for trial in range(20):
        g = random_bigraph(rng, max_side=3, max_total=6)
        w = random_step_bigraphon(3, 3, seed=2000 + trial)
        lam = float(rng.uniform(0.2, 2.5))
        assert density(g, w.with_values(lam * w.values)) == pytest.approx(
            lam ** g.e * density(g, w), rel=1e-12)


def test_density_disjoint_union_multiplicative():
    rng = np.random.default_rng(13)
    for trial in range(20):
        g1 = random_bigraph(rng, max_side=2, max_total=4)
        g2 = random_bigraph(rng, max_side=2, max_total=4)
        union = Bigraph(
            [f"A{v}" for v in g1.left] + [f"B{v}" for v in g2.left],
            [f"A{v}" for v in g1.right] + [f"B{v}" for v in g2.right],
            [(f"A{l}", f"A{r}") for l, r in g1.edges]
            + [(f"B{l}", f"B{r}") for l, r in g2.edges])
        w = random_step_bigraphon(3, 2, seed=3000 + trial)
        assert density(union, w) == pytest.approx(
            density(g1, w) * density(g2, w), rel=1e-12)


def test_density_non_uniform_weights():
    w = StepBigraphon([0.25, 0.75], [0.1, 0.9], [[1.0, 2.0], [3.0, 4.0]])
    expect = sum(mu * nu * v
                 for mu, row in zip([0.25, 0.75], [[1.0, 2.0], [3.0, 4.0]])
                 for nu, v in zip([0.1, 0.9], row))
    assert density(rho(), w) == pytest.approx(expect, rel=1e-14)
    assert density(cycle4(), w) == pytest.approx(loop_density_oracle(cycle4(), w),
                                                 rel=1e-12)


# ---------------------------------------------------------------------------
# flag density


def test_flag_density_left_labeled_edge():
    e1 = Flag(rho(), ("1",))
    assert flag_density(e1, DIAG, {"1": 0}) == pytest.approx(0.5, abs=1e-15)


def test_flag_density_fully_labeled_edge():
    full = Flag(rho(), ("1", "2"))
    assert flag_density(full, DIAG, {"1": 0, "2": 0}) == 1.0
    assert flag_density(full, DIAG, {"1": 0, "2": 1}) == 0.0


def test_flag_density_no_labels_is_density():
    f = Flag(cycle4(), ())
    assert flag_density(f, DIAG, {}) == pytest.approx(density(cycle4(), DIAG))


def test_flag_density_validation():
    e1 = Flag(rho(), ("1",))
    with pytest.raises(ValueError):
        flag_density(e1, DIAG, {"2": 0})
    with pytest.raises(ValueError):
        flag_density(e1, DIAG, {"1": 5})


def test_flag_density_oracle_on_dual_star():
    w = random_step_bigraphon(3, 4, seed=99)
    g = Bigraph(["x1", "x2"], ["y"], [("x1", "y"), ("x2", "y")])
    f = left_labeled(g)
    for i, j in itertools.product(range(3), repeat=2):
        expect = sum(w.col_weights[y] * w.values[i, y] * w.values[j, y]
                     for y in range(4))
        assert flag_density(f, w, {"x1": i, "x2": j}) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# colored density


def test_colored_density_constant_tuple_collapses():
    g = cycle4()
    mono = ColoredBigraph(g, {e: 1 for e in g.edges})
    ws = BigraphonTuple({1: DIAG})
    assert colored_density(mono, ws) == pytest.approx(density(g, DIAG))


def test_colored_density_rainbow_star_constant():
    star_graph = Bigraph(["1"], ["c1", "c2"], [("1", "c1"), ("1", "c2")])
    h = ColoredBigraph(star_graph, {("1", "c1"): 1, ("1", "c2"): 2})
    c = 0.6
    ws = BigraphonTuple({1: StepBigraphon.constant(c), 2: StepBigraphon.constant(c)})
    assert colored_density(h, ws) == pytest.approx(c * c, rel=1e-14)


def test_colored_density_two_colored_c4_oracle():
    g = cycle4()
    coloring = {("a", "c"): 1, ("b", "d"): 1, ("a", "d"): 2, ("b", "c"): 2}
    h = ColoredBigraph(g, coloring)
    anti = StepBigraphon.uniform([[0.0, 1.0], [1.0, 0.0]])
    ws = BigraphonTuple({1: DIAG, 2: anti})
    # brute force over the 2^4 assignments
    total = 0.0
    for xa, xb, yc, yd in itertools.product(range(2), repeat=4):
        term = (DIAG.values[xa, yc] * anti.values[xa, yd]
                * anti.values[xb, yc] * DIAG.values[xb, yd]) / 16.0
        total += term
    assert colored_density(h, ws) == pytest.approx(total, rel=1e-14)
    assert total == pytest.approx(0.125)


def test_colored_density_missing_color():
    g = cycle4()
    h = ColoredBigraph(g, {e: 3 for e in g.edges})
    with pytest.raises(ValueError):
        colored_density(h, BigraphonTuple({1: DIAG}))


# ---------------------------------------------------------------------------
# weighted density


def test_weighted_density_edge_identity():
    w = random_step_bigraphon(3, 2, seed=5)
    f = {"1": np.array([0.5, 1.0, 2.0])}
    g = {"2": np.array([1.5, 0.25])}
    expect = sum(w.row_weights[x] * w.col_weights[y]
                 * f["1"][x] * g["2"][y] * w.values[x, y]
                 for x in range(3) for y in range(2))
    assert weighted_density(rho(), w, f, g) == pytest.approx(expect, rel=1e-13)


def test_weighted_density_all_ones_is_density():
    w = random_step_bigraphon(3, 3, seed=6)
    g = cycle4()
    fv = {v: np.ones(3) for v in g.left}
    gw = {u: np.ones(3) for u in g.right}
    assert weighted_density(g, w, fv, gw) == pytest.approx(density(g, w), rel=1e-13)


def test_weighted_density_validation():
    w = random_step_bigraphon(2, 2, seed=7)
    with pytest.raises(ValueError):
        weighted_density(rho(), w, {}, {"2": np.ones(2)})
    with pytest.raises(ValueError):
        weighted_density(rho(), w, {"1": np.ones(3)}, {"2": np.ones(2)})


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=repr)
def test_weighted_density_refuses_a_non_finite_potential(x):
    w = random_step_bigraphon(2, 2, seed=7)
    for f, g in (({"1": [x, 1.0]}, {"2": np.ones(2)}), ({"1": np.ones(2)}, {"2": [1.0, x]})):
        with pytest.raises(ValueError, match="non-finite"):
            weighted_density(rho(), w, f, g)


# ---------------------------------------------------------------------------
# randomized loop-oracle cross-checks for the non-plain variants


def loop_weighted_oracle(g, w, fs, gs):
    total = 0.0
    left, right = list(g.left), list(g.right)
    for xs in itertools.product(range(w.rows), repeat=len(left)):
        for ys in itertools.product(range(w.cols), repeat=len(right)):
            x = dict(zip(left, xs))
            y = dict(zip(right, ys))
            term = 1.0
            for v in left:
                term *= w.row_weights[x[v]] * fs[v][x[v]]
            for u in right:
                term *= w.col_weights[y[u]] * gs[u][y[u]]
            for l, r in g.edges:
                term *= w.values[x[l], y[r]]
            total += term
    return total


def loop_flag_oracle(f, w, assignment):
    g = f.graph
    free_left = [v for v in g.left if v not in assignment]
    free_right = [u for u in g.right if u not in assignment]
    total = 0.0
    for xs in itertools.product(range(w.rows), repeat=len(free_left)):
        for ys in itertools.product(range(w.cols), repeat=len(free_right)):
            pos = dict(assignment)
            pos |= dict(zip(free_left, xs))
            pos |= dict(zip(free_right, ys))
            term = 1.0
            for v in free_left:
                term *= w.row_weights[pos[v]]
            for u in free_right:
                term *= w.col_weights[pos[u]]
            for l, r in g.edges:
                term *= w.values[pos[l], pos[r]]
            total += term
    return total


def loop_colored_oracle(h, ws):
    g = h.graph
    colors = h.colors
    mu, nu = ws.row_weights, ws.col_weights
    total = 0.0
    left, right = list(g.left), list(g.right)
    for xs in itertools.product(range(mu.size), repeat=len(left)):
        for ys in itertools.product(range(nu.size), repeat=len(right)):
            x = dict(zip(left, xs))
            y = dict(zip(right, ys))
            term = 1.0
            for v in left:
                term *= mu[x[v]]
            for u in right:
                term *= nu[y[u]]
            for e in g.edges:
                term *= ws[colors[e]].values[x[e[0]], y[e[1]]]
            total += term
    return total


def test_weighted_density_random_against_oracle():
    rng = np.random.default_rng(21)
    for trial in range(15):
        g = random_bigraph(rng, max_side=3, max_total=5)
        w = random_step_bigraphon(2, 3, seed=4000 + trial)
        fs = {v: rng.uniform(0.1, 2.0, size=2) for v in g.left}
        gs = {u: rng.uniform(0.1, 2.0, size=3) for u in g.right}
        assert weighted_density(g, w, fs, gs) == pytest.approx(
            loop_weighted_oracle(g, w, fs, gs), rel=1e-12)


def test_flag_density_random_against_oracle():
    rng = np.random.default_rng(22)
    for trial in range(15):
        g = random_bigraph(rng, max_side=3, max_total=5)
        w = random_step_bigraphon(3, 2, seed=5000 + trial)
        verts = list(g.vertices())
        labeled = [v for v in verts if rng.random() < 0.5]
        assignment = {v: int(rng.integers(0, w.rows if v in set(g.left) else w.cols))
                      for v in labeled}
        f = Flag(g, tuple(labeled))
        assert flag_density(f, w, assignment) == pytest.approx(
            loop_flag_oracle(f, w, assignment), rel=1e-12)


def test_colored_density_random_against_oracle():
    rng = np.random.default_rng(23)
    for trial in range(15):
        g = random_bigraph(rng, max_side=3, max_total=5)
        if g.e == 0:
            continue
        coloring = {e: int(rng.integers(1, 3)) for e in g.sorted_edges()}
        h = ColoredBigraph(g, coloring)
        ws = BigraphonTuple({c: random_step_bigraphon(2, 2, seed=6000 + trial * 3 + c)
                             for c in (1, 2)})
        assert colored_density(h, ws) == pytest.approx(
            loop_colored_oracle(h, ws), rel=1e-12)


# ---------------------------------------------------------------------------
# the cached elimination plan against per-call planning


def _reference_align(factors):
    sizes = {}
    for vs, arr in factors:
        sizes.update(zip(vs, arr.shape))
    allvars = sorted(sizes)
    out = np.ones([sizes[v] for v in allvars])
    for vs, arr in factors:
        order = sorted(range(len(vs)), key=lambda i: vs[i])
        arr = np.transpose(arr, order)
        shape = [sizes[v] if v in vs else 1 for v in allvars]
        out = out * arr.reshape(shape)
    return tuple(allvars), out


def reference_eliminate_all(factors, weights):
    """Greedy min-degree elimination replanned on every call."""
    scalar = 1.0
    live = [f for f in factors if f[0]]
    for vs, arr in factors:
        if not vs:
            scalar *= float(arr)
    remaining = set(weights)
    while remaining:
        neighbor_count = {}
        for v in remaining:
            others = set()
            for vs, _ in live:
                if v in vs:
                    others |= set(vs)
            others.discard(v)
            neighbor_count[v] = len(others)
        v = min(sorted(remaining), key=lambda u: (neighbor_count[u], u))
        remaining.discard(v)
        touching = [f for f in live if v in f[0]]
        live = [f for f in live if v not in f[0]]
        if not touching:
            continue
        vs, arr = _reference_align(touching)
        axis = vs.index(v)
        wvec = weights[v].reshape([-1 if i == axis else 1 for i in range(len(vs))])
        arr = (arr * wvec).sum(axis=axis)
        new_vs = tuple(u for u in vs if u != v)
        if new_vs:
            live.append((new_vs, arr))
        else:
            scalar *= float(arr)
    return scalar


def non_uniform_bigraphon(rng):
    rows, cols = (int(k) for k in rng.integers(1, 5, size=2))
    return StepBigraphon(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)),
                         rng.uniform(1e-3, 1.0, size=(rows, cols)))


def check_every_density_kind(monkeypatch, agree):
    """Run every single-density entry point on random graphs and
    non-uniform bigraphons; each elimination must `agree` with per-call
    planning."""
    planned = DENSITY._eliminate_all
    seen = Counter()

    def both(factors, weights, trials, repeats):
        values = planned(factors, weights, trials, repeats)
        for t, value in enumerate(values):
            assert agree(value, reference_eliminate_all(
                [(vs, arr[t]) for vs, arr in factors],
                {v: vec[t] for v, vec in weights.items()}))
            seen["calls"] += 1
        return values
    monkeypatch.setattr(DENSITY, "_eliminate_all", both)

    rng = np.random.default_rng(31)
    for trial in range(40):
        g = random_bigraph(rng, max_side=4, max_total=8)
        w = non_uniform_bigraphon(rng)
        density(g, w)
        weighted_density(g, w, {v: rng.uniform(0.1, 2.0, size=w.rows) for v in g.left},
                         {u: rng.uniform(0.1, 2.0, size=w.cols) for u in g.right})
        labeled = tuple(v for v in g.vertices() if rng.random() < 0.5)
        seen["pinned"] += bool(labeled)
        flag_density(Flag(g, labeled), w, {
            v: int(rng.integers(0, w.rows if v in set(g.left) else w.cols))
            for v in labeled})
        coloring = {e: int(rng.integers(1, 3)) for e in g.sorted_edges()}
        ws = BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, size=w.values.shape))
                             for c in (1, 2)})
        colored_density(ColoredBigraph(g, coloring), ws)
        weights = {(sub, c): float(rng.choice([0.0, 0.5, 1.0, 1.7]))
                   for sub in itertools.chain.from_iterable(
                       itertools.combinations("uvw", k) for k in range(4))
                   for c in (1, 2) if rng.random() < 0.3}
        # an empty subset is refused; it is still drawn, so later draws stay as they were
        h = ColoredFractionalBigraph(["u", "v", "w"], [1, 2],
                                     {key: wgt for key, wgt in weights.items() if key[0]})
        if h.total_edge_mass() > 0:
            fractional_density(h, ws)
            fractional_density(rainbow_star(h), ws)
    assert seen["pinned"] >= 30 and seen["calls"] >= 200, seen


def test_plan_is_bit_identical_to_per_call_planning(monkeypatch):
    check_every_density_kind(monkeypatch, lambda value, reference: value == reference)


def test_every_laid_out_array_is_c_contiguous(monkeypatch):
    """Every factor and weight array `_layout` hands the elimination is
    C-contiguous: in batches of one, in a pinned flag density whose right
    vertex slices a column out of W, and in factors gathered for per-trial
    colorings."""
    planned = DENSITY._eliminate_all
    seen = Counter()

    def checked(factors, weights, trials, repeats):
        for arr in [arr for _, arr in factors] + list(weights.values()):
            assert arr.flags.c_contiguous, (arr.shape, arr.strides)
        seen[trials] += 1
        return planned(factors, weights, trials, repeats)
    monkeypatch.setattr(DENSITY, "_eliminate_all", checked)

    rng = np.random.default_rng(8)
    w = StepBigraphon.uniform(rng.uniform(1e-3, 1.0, size=(3, 4)))
    g = cycle4()
    density(g, w)
    weighted_density(g, w, {v: rng.uniform(0.1, 2.0, size=3) for v in g.left},
                     {u: rng.uniform(0.1, 2.0, size=4) for u in g.right})
    for labels, assignment in ((["c"], {"c": 2}), (["a"], {"a": 1}),
                               (["a", "c"], {"a": 0, "c": 3})):
        flag_density(Flag(g, labels), w, assignment)
    ws = BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, size=(3, 4)))
                         for c in (1, 2)})
    edges = g.sorted_edges()
    colored_density(ColoredBigraph(g, dict.fromkeys(edges, 1)), ws)
    colorings = [{e: 1 + (i + j) % 2 for j, e in enumerate(edges)} for i in range(3)]
    DENSITY.colored_densities(g, colorings, [ws] * 3)
    assert seen[1] == 6 and seen[3] == 1, seen


def test_plan_is_cached_per_factor_structure():
    plan = DENSITY._plan
    g = cycle4()
    w = random_step_bigraphon(3, 2, seed=8)
    value = density(g, w)
    misses = plan.cache_info().misses
    assert density(g, w) == value
    assert density(g, random_step_bigraphon(4, 4, seed=9)) > 0  # sizes are not keyed
    assert plan.cache_info().misses == misses
    relabeled = Bigraph([v + "'" for v in g.left], [u + "'" for u in g.right],
                        [(l + "'", r + "'") for l, r in g.edges])
    assert density(relabeled, w) == value
    assert plan.cache_info().misses == misses + 1
    assert plan.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# the einsum branch for buckets past the product threshold


@pytest.mark.parametrize("oracle_test", [
    test_density_matches_brute_force_and_oracle,
    test_flag_density_random_against_oracle,
    test_colored_density_random_against_oracle,
    test_weighted_density_random_against_oracle,
    test_fractional.test_fractional_density_matches_brute_force,
], ids=lambda f: f.__name__)
def test_einsum_branch_against_oracles(monkeypatch, oracle_test):
    """With the threshold at 0 every step contracts along an einsum path;
    the oracle cross-checks hold at the same tolerances."""
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", 0)
    calls = DENSITY._einsum_path.cache_info()
    oracle_test()
    after = DENSITY._einsum_path.cache_info()
    assert after.hits + after.misses > calls.hits + calls.misses


def test_einsum_branch_matches_per_call_planning(monkeypatch):
    """Unlike the symmetric factors of the small oracle graphs, colored and
    weighted buckets here catch a subscript that permutes an output."""
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", 0)
    check_every_density_kind(
        monkeypatch, lambda value, reference: value == pytest.approx(reference, rel=1e-12))


def test_branches_agree_on_a_grid_16_incidence_graph(monkeypatch):
    g = build_incidence(5, (2, 3)).graph
    w = random_step_bigraphon(16, 16, seed=3)
    calls = orbit_calls(monkeypatch)
    orbit = density(g, w)
    assert len(calls) == 1  # the gate sends this size to the orbit sum
    engine_only(monkeypatch)
    mixed = density(g, w)
    assert mixed == pytest.approx(orbit, rel=1e-12)
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", 0)
    assert density(g, w) == pytest.approx(mixed, rel=1e-12)
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", math.inf)
    assert density(g, w) == pytest.approx(mixed, rel=1e-12)


def test_grid_4_incidence_plans_stay_on_the_product_branch():
    for n in range(3, 9):
        g = build_incidence(n, (2, 3)).graph
        _, steps = DENSITY._plan(tuple(g.sorted_edges()), tuple(sorted(g.vertices())))
        assert max(4 ** len(sizes) for _, _, sizes, *_ in steps) <= DENSITY._SMALL_BUCKET


def test_einsum_path_is_cached_per_subscripts_and_shapes(monkeypatch):
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", 0)
    path = DENSITY._einsum_path
    path.cache_clear()
    g = cycle4()

    def weighted(w):
        # a potential of its own at every vertex, so that no step reuses another's output
        return weighted_density(
            g, w, {v: np.arange(1.0, w.rows + 1) * k for k, v in enumerate(g.left, 1)},
            {u: np.arange(1.0, w.cols + 1) * k for k, u in enumerate(g.right, 1)})
    w = random_step_bigraphon(3, 2, seed=8)
    value = weighted(w)
    first = path.cache_info()
    steps = first.hits + first.misses
    # both left vertices of C4 eliminate along "ab,ac,a,a->bc" on equal shapes
    assert 0 < first.misses == first.currsize < steps
    assert weighted(w) == value
    again = path.cache_info()
    assert again.misses == first.misses and again.hits == first.hits + steps
    weighted(random_step_bigraphon(4, 2, seed=9))  # sizes are keyed
    assert path.cache_info().misses > first.misses
    assert path.cache_info().maxsize is not None


def check_contractions(monkeypatch) -> list:
    """Check every large-bucket contraction against the call it replaces:
    the executor's array must be `==`, in shape and strides too, to
    np.einsum(expr, *operands, optimize=path) along the greedy path, on the
    engine's own operand objects (copies would change the layout numpy
    sees). The operands are read-only, so a write into a factor, a pool
    view or a shared output raises. Returns the checked subscripts."""
    contract = DENSITY._contract
    DENSITY._einsum_path.cache_clear()  # programs compiled under this threshold
    checked = []

    def both(expr, operands):
        for op in operands:
            op.setflags(write=False)
        got = contract(expr, operands)
        path = np.einsum_path(expr, *operands, optimize="greedy")[0]
        want = np.einsum(expr, *operands, optimize=path)
        assert (got.shape, got.strides) == (want.shape, want.strides), expr
        assert (got == want).all(), expr
        checked.append(expr)
        return got
    monkeypatch.setattr(DENSITY, "_contract", both)
    return checked


def test_contraction_program_is_numpys_einsum_on_every_density_kind(monkeypatch):
    """Plain, flag, colored, weighted and fractional densities, with every
    bucket on the einsum branch."""
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", 0)
    checked = check_contractions(monkeypatch)
    check_every_density_kind(
        monkeypatch, lambda value, reference: value == pytest.approx(reference, rel=1e-12))
    assert len(checked) >= 200


@pytest.mark.parametrize("threshold", ["default", 0])
@pytest.mark.parametrize("n", [5, 6])
def test_contraction_program_is_numpys_einsum_on_incidence_graphs(monkeypatch, n, threshold):
    """Sidorenko, strong-Sidorenko and colored densities of
    incidence(n,{2,3}) at grids 9, 14 and 16: at the default threshold only
    the left-vertex buckets that products would make too large reach the
    program, and with every bucket on it, their inputs come from einsum
    steps too."""
    engine_only(monkeypatch)
    if threshold != "default":
        monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", threshold)
    checked = check_contractions(monkeypatch)
    g = build_incidence(n, (2, 3)).graph
    rng = np.random.default_rng(n)
    edges = g.sorted_edges()
    for grid in (9, 14, 16):
        for tester in (sidorenko_tester, strong_sidorenko_tester):
            report = tester(g, trials=2, grid=grid, seed=0)
            assert report.trials == 2
        w = random_step_bigraphon(grid, grid, seed=grid)
        ws = BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, size=(grid, grid)))
                             for c in (1, 2)})
        coloring = {e: int(rng.integers(1, 3)) for e in edges}
        assert colored_densities(g, [coloring], [ws])[0] > 0
    # at the default threshold, grid 9 stays on products for n = 5 (9^5 cells)
    assert len(checked) >= (5 if n == 5 and threshold == "default" else 9)


def test_only_products_past_the_threshold_run_in_place():
    """incidence(6,{2,3})'s first left bucket at grid 8 has no product past
    _SMALL_BUCKET cells, so its program is the one call along numpy's whole
    path; at grid 16 one of its products runs in place. Its second left
    bucket at grid 16 is one call, nine products into its largest
    intermediate and one summing call."""
    DENSITY._einsum_path.cache_clear()  # compiled under the default threshold

    def program(expr, grid):
        shapes = tuple((grid,) * len(term) for term in expr.split("->")[0].split(","))
        path = np.einsum_path(expr, *(np.empty(shape) for shape in shapes), optimize="greedy")[0]
        return DENSITY._einsum_path(expr, shapes), path

    def in_place(steps):
        return [view is not None for *_, view in steps]
    first = "ab,ac,ad,ae,af,abc,abd,abe,abf,acd,ace,acf,ade,adf,aef,a->bcdef"
    steps, path = program(first, 8)
    assert steps == ((tuple(range(15, -1, -1)), first, tuple(path), None),)
    assert sum(in_place(program(first, 16)[0])) == 1
    second = "ab,ac,ad,ae,abc,abd,abe,acd,ace,ade,abcde,a->bcde"
    assert in_place(program(second, 16)[0]) == [False] + [True] * 9 + [False]


def test_replay_is_exact_on_a_grid_16_sidorenko_witness(monkeypatch):
    engine_only(monkeypatch)
    g = build_incidence(5, (2, 3)).graph
    calls = DENSITY._einsum_path.cache_info()
    # an infinite negative tolerance ships the worst trial as a witness
    report = sidorenko_tester(g, trials=3, grid=16, seed=0, tol=-math.inf)
    after = DENSITY._einsum_path.cache_info()
    assert after.hits + after.misses > calls.hits + calls.misses
    assert report.witness is not None
    assert replay_witness(report.witness) == report.worst_margin
    shipped = json.loads(json.dumps(report_to_json(report)))["witness"]
    assert replay_witness(shipped) == report.worst_margin


def incidence_6_at_grid_16_peak():
    """One density of incidence(6,{2,3}) at grid 16 and its traced peak."""
    DENSITY._multisets.cache_clear()  # the orbit path's table is part of its peak
    g = build_incidence(6, (2, 3)).graph
    w = random_step_bigraphon(16, 16, seed=0)
    tracemalloc.start()
    try:
        value = density(g, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0
    return peak


def test_incidence_6_at_grid_16_stays_under_64_mb(monkeypatch):
    engine_only(monkeypatch)
    peak = incidence_6_at_grid_16_peak()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_incidence_6_at_grid_16_stays_under_20_mb(monkeypatch):
    # in-place products of the largest intermediate keep one density at 17.2
    engine_only(monkeypatch)
    peak = incidence_6_at_grid_16_peak()
    assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ---------------------------------------------------------------------------
# orbit sums over the row multisets of a symmetric left side

K33 = Bigraph(list("abc"), list("xyz"), [(u, v) for u in "abc" for v in "xyz"])


def orbits_of(g):
    return DENSITY._left_orbits(tuple(g.sorted_edges()), tuple(sorted(g.left)),
                                tuple(sorted(g.vertices())))


def orbit_calls(monkeypatch) -> list:
    """The bigraphons that reach the orbit sum from here on."""
    calls = []
    real = DENSITY._orbit_density
    monkeypatch.setattr(DENSITY, "_orbit_density",
                        lambda orbits, w: calls.append(w) or real(orbits, w))
    return calls


def random_weights_bigraphon(rng, rows, cols):
    """Random values under random, not uniform, step weights."""
    mu, nu = rng.uniform(0.1, 1.0, rows), rng.uniform(0.1, 1.0, cols)
    return StepBigraphon(mu / mu.sum(), nu / nu.sum(), rng.uniform(1e-3, 1.0, (rows, cols)))


def test_left_symmetry_is_detected_from_the_neighbourhood_multiset():
    for g in (cycle4(), K33, rho(), build_incidence(4, (2,)).graph,
              build_incidence(5, (2, 3)).graph, build_incidence(3, (1, 2)).graph):
        assert orbits_of(g) is not None
    # p has degree 3 and the u's 2; swapping a and b moves C8's edge {c, d} to {c, a}
    c8 = Bigraph(list("abcd"), list("wxyz"), [("a", "w"), ("b", "w"), ("b", "x"), ("c", "x"),
                                              ("c", "y"), ("d", "y"), ("d", "z"), ("a", "z")])
    for g in (book(2), c8, Bigraph(["a", "b"], ["c"], [("a", "c")]), Bigraph(["a"], ["b"], [])):
        assert orbits_of(g) is None


# each graph with its (rows, cols) sizes, both sides of the gate among them
ORBIT_CASES = {
    "incidence(4,{2,3})": (build_incidence(4, (2, 3)).graph, [(9, 16), (16, 16)]),
    "incidence(5,{2,3})": (build_incidence(5, (2, 3)).graph, [(9, 9), (12, 10), (16, 16)]),
    "incidence(6,{2,3})": (build_incidence(6, (2, 3)).graph, [(9, 11), (14, 11), (16, 16)]),
    "incidence(7,{2,3})": (build_incidence(7, (2, 3)).graph, [(9, 12)]),
    "cycle4": (cycle4(), [(9, 9), (16, 13)]),
    "K33": (K33, [(10, 16), (16, 16)]),
}


@pytest.mark.parametrize("label", ORBIT_CASES)
def test_orbit_sums_agree_with_the_engine(monkeypatch, label):
    """To 1e-12 relative at grids 9 to 16, under random step weights;
    where the gate takes the path, density() is the orbit sum itself."""
    g, sizes = ORBIT_CASES[label]
    rng = np.random.default_rng(len(label))
    orbits = orbits_of(g)
    for rows, cols in sizes:
        w = random_weights_bigraphon(rng, rows, cols)
        value = DENSITY._orbit_density(orbits, w)
        with monkeypatch.context() as patched:
            engine_only(patched)
            assert value == pytest.approx(density(g, w), rel=1e-12), (rows, cols)
        if DENSITY._orbit_gate(orbits, rows, cols):
            assert density(g, w) == value


@pytest.mark.parametrize("g", [cycle4(), K33, rho(), build_incidence(3, (2, 3)).graph,
                               build_incidence(4, (2,)).graph, build_incidence(3, (1, 2)).graph,
                               Bigraph(["a", "b"], ["c", "d", "e"], [("a", "c"), ("b", "c")])],
                         ids=["cycle4", "K33", "rho", "i323", "i42", "i312", "isolated"])
def test_orbit_sums_match_brute_force_with_the_gate_forced_on(monkeypatch, g):
    monkeypatch.setattr(DENSITY, "_orbit_gate", lambda *sizes: True)
    calls = orbit_calls(monkeypatch)
    rng = np.random.default_rng(g.e)
    ws = [random_weights_bigraphon(rng, rows, cols)
          for rows in (1, 2, 3) for cols in (1, 2, 3)]
    values = densities(g, ws)
    assert len(calls) == len(ws)
    for value, w in zip(values, ws):
        assert value == pytest.approx(density_brute_force(g, w), rel=1e-12)


def test_orbit_multisets_are_the_sorted_tuples_with_their_multinomials():
    for k, n in ((1, 3), (3, 1), (4, 3), (5, 4)):
        tuples, multinomials = DENSITY._multisets(k, n)
        expected = list(itertools.combinations_with_replacement(range(k), n))
        assert tuples.T.tolist() == [list(x) for x in expected]
        assert multinomials.tolist() == [
            math.factorial(n) / math.prod(math.factorial(m) for m in Counter(x).values())
            for x in expected]
        assert sum(multinomials) == k ** n


def test_a_multiset_table_past_the_cache_bound_gives_the_cached_floats(monkeypatch):
    calls = orbit_calls(monkeypatch)
    g = build_incidence(5, (2, 3)).graph
    w = random_step_bigraphon(16, 16, seed=3)
    cached = density(g, w)
    monkeypatch.setattr(DENSITY, "_MULTISET_BYTES", 0)
    DENSITY._multisets.cache_clear()
    assert density(g, w) == cached
    assert len(calls) == 2 and DENSITY._multisets.cache_info().currsize == 0


def test_a_mixed_size_batch_gives_every_trial_its_batch_of_one(monkeypatch):
    """incidence(5,{2,3}) at sizes 1 to 16, on both sides of the gate."""
    calls = orbit_calls(monkeypatch)
    rng = np.random.default_rng(52)
    g = build_incidence(5, (2, 3)).graph
    ws = [random_weights_bigraphon(rng, int(rows), int(cols))
          for rows, cols in rng.integers(1, 17, size=(40, 2))]
    single = [density(g, w) for w in ws]
    assert 0 < len(calls) < len(ws)
    for order in (range(len(ws)), rng.permutation(len(ws)), range(len(ws))[::-1]):
        assert densities(g, [ws[t] for t in order]).tolist() == [single[t] for t in order]


def test_the_engine_keeps_what_the_orbit_path_does_not_cover(monkeypatch):
    """book(2), whose left side is not symmetric; a 12-edge perfect
    matching, whose is, but whose buckets all stay small at grid 16; and
    every colored and weighted density of a graph the path takes."""
    calls = orbit_calls(monkeypatch)
    rng = np.random.default_rng(53)
    w = random_step_bigraphon(16, 16, seed=53)
    matching = Bigraph([f"l{i}" for i in range(12)], [f"r{i}" for i in range(12)],
                       [(f"l{i}", f"r{i}") for i in range(12)])
    assert orbits_of(matching) is not None
    assert density(book(2), w) > 0 and density(matching, w) > 0
    g = build_incidence(5, (2, 3)).graph
    ws = BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, (16, 16))) for c in (1, 2)})
    edges = g.sorted_edges()
    assert colored_densities(g, [dict.fromkeys(edges, 1)], [ws])[0] > 0
    assert colored_densities(g, [{e: int(rng.integers(1, 3)) for e in edges}], [ws])[0] > 0
    ones = {v: np.ones(16) for v in g.vertices()}
    left = {v: ones[v] for v in g.left}
    right = {v: ones[v] for v in g.right}
    assert weighted_density(g, w, left, right) > 0
    assert calls == []
    assert density(g, w) > 0 and len(calls) == 1


def test_replay_is_exact_on_grid_16_witnesses_that_took_the_orbit_path(monkeypatch):
    calls = orbit_calls(monkeypatch)
    g = build_incidence(5, (2, 3)).graph
    # an infinite negative tolerance ships the worst trial as a witness; at
    # seed 3 every trial of both runs takes the path
    for tester, graphs in ((sidorenko_tester, (g,)), (weak_domination_tester, (g, rho()))):
        report = tester(*graphs, trials=3, grid=16, seed=3, tol=-math.inf)
        assert len(calls) == 3
        calls.clear()
        assert report.witness is not None
        assert replay_witness(report.witness) == report.worst_margin
        shipped = json.loads(json.dumps(report_to_json(report)))["witness"]
        assert replay_witness(shipped) == report.worst_margin
        assert len(calls) == 2
        calls.clear()


def test_incidence_6_at_grid_16_on_the_orbit_path_stays_under_20_mb(monkeypatch):
    calls = orbit_calls(monkeypatch)
    peak = incidence_6_at_grid_16_peak()
    assert len(calls) == 1
    assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ---------------------------------------------------------------------------
# exponent balance


def test_exponent_balance():
    assert exponent_balance([(cycle4(), 1.0), (rho(), -4.0)]) == 0.0
    assert exponent_balance([(rho(), 1.0)]) == 1.0
    assert exponent_balance([]) == 0.0
