"""Tests for the property testers and the Cauchy-Schwarz/threshold machinery."""

import copy
import functools
import itertools
import json
import math

import numpy as np
import pytest

from sidlab.bigraph import (
    Bigraph, ColoredBigraph, book, cycle4, from_json_dict, rho, star, to_json_dict)
from sidlab.bigraphon import (
    BigraphonTuple, SinkhornError, StepBigraphon, random_step_bigraphon)
from sidlab.density import colored_densities, exponent_balance
from sidlab.folds import Fold, check_fold, complete_to_fold, fold_to_json
from sidlab.fractional import compile_profiles, from_right_uniform, rainbow_star
from sidlab.checkers import decomposition_from_json, verify_rtd
from sidlab.percolation import (
    certificate_from_json, certificate_to_json, find_cut_percolating,
    find_left_cut_percolating, verify_certificate)
from sidlab.reflection import IncidenceBigraph, build_incidence, reflection_fold_pool
from sidlab.schema import FORMATS, Object
from sidlab import testers as props
from sidlab.testers import (
    VIOLATED,
    color_power,
    cs_tree_leaves,
    endo_preimage,
    induced_subgraph_profiles,
    replay_witness,
    report_to_json,
    two_threshold,
    verify_cs_inequality,
)

EDGE_PLUS_ISOLATED = Bigraph(["a", "b"], ["c"], [("a", "c")])


def c4_left_fold():
    return complete_to_fold(cycle4(), {"a": "b", "b": "a", "c": "c", "d": "d"})


# ---------------------------------------------------------------------------
# plain Sidorenko


def test_sidorenko_edge_equality():
    report = props.test_sidorenko(rho(), trials=30, seed=1)
    assert report.holds
    assert abs(report.worst_margin) < 1e-12


def test_sidorenko_c4_and_incidence_hold():
    assert props.test_sidorenko(cycle4(), trials=60, seed=2).holds
    assert props.test_sidorenko(build_incidence(4, [2]).graph, trials=30, seed=3).holds


def test_sidorenko_adversarial_preset_holds():
    assert props.test_sidorenko(cycle4(), trials=60, seed=4, preset="adversarial").holds


# ---------------------------------------------------------------------------
# strong Sidorenko


def test_strong_sidorenko_edge_equality():
    report = props.test_strong_sidorenko(rho(), trials=30, seed=5)
    assert report.holds
    assert abs(report.worst_margin) < 1e-11


def test_strong_sidorenko_falsified_by_isolated_vertex():
    report = props.test_strong_sidorenko(EDGE_PLUS_ISOLATED, trials=200, seed=6)
    assert report.verdict == VIOLATED
    assert report.witness is not None
    assert replay_witness(report.witness) == report.worst_margin


def test_witness_replay_survives_json_round_trip():
    report = props.test_strong_sidorenko(EDGE_PLUS_ISOLATED, trials=100, seed=60)
    assert report.verdict == VIOLATED
    payload = json.loads(json.dumps(report_to_json(report), sort_keys=True))
    assert replay_witness(payload["witness"]) == report.worst_margin


def test_strong_sidorenko_incidence_holds():
    assert props.test_strong_sidorenko(build_incidence(4, [2]).graph,
                                 trials=30, seed=7).holds


def test_strong_sidorenko_draws_each_side_in_one_call(monkeypatch):
    """A trial draws each side's weight functions in one call; they equal,
    bit for bit, one draw per vertex in vertex order, and the stream ends
    where the per-vertex draws leave it."""
    samplers = []
    monkeypatch.setattr(props, "_run", lambda name, sample, *rest: samplers.append(sample))
    for g in (rho(), cycle4(), EDGE_PLUS_ISOLATED, build_incidence(5, [2, 3]).graph):
        for grid, preset in itertools.product((1, 4, 16), ("uniform", "adversarial")):
            props.test_strong_sidorenko(g, grid=grid, preset=preset)
            sample = samplers.pop()
            for seed in range(4):
                rng, ref = props._trial_rng(seed, 3), props._trial_rng(seed, 3)
                _, w, fs, gs = sample(rng)
                expected = props._sample_bigraphon(ref, grid, preset)
                assert w.values.tolist() == expected.values.tolist()
                for drawn, side, size in ((fs, g.left, w.rows), (gs, g.right, w.cols)):
                    assert list(drawn) == list(side)
                    for v in side:
                        assert drawn[v].tolist() == ref.uniform(1e-3, 1.0, size=size).tolist()
                assert rng.random() == ref.random()


def test_strong_sidorenko_needs_edges():
    with pytest.raises(ValueError):
        props.test_strong_sidorenko(Bigraph(["a"], ["b"], []), trials=1, seed=0)


# ---------------------------------------------------------------------------
# weak domination / induced-Sidorenko


def test_weak_domination_reflexive_equality():
    report = props.test_weak_domination(cycle4(), cycle4(), trials=20, seed=8)
    assert report.holds
    assert abs(report.worst_margin) < 1e-9


def test_weak_domination_c4_over_edge():
    assert props.test_weak_domination(cycle4(), rho(), trials=60, seed=9).holds


def test_weak_domination_violated_edge_vs_c4():
    assert exponent_balance([(rho(), 1.0), (cycle4(), -1.0)]) != 0.0
    report = props.test_weak_domination(rho(), cycle4(), trials=100, seed=10)
    assert report.verdict == VIOLATED
    assert replay_witness(report.witness) == report.worst_margin


def test_induced_profiles_c4():
    profiles = induced_subgraph_profiles(cycle4())
    assert len(profiles) == 5  # empty, pendant, two pendants, dual edge, C4


def test_induced_profiles_counts_match_bruteforce_classes():
    g = star(2)
    profiles = induced_subgraph_profiles(g)
    # star K_{1,2}: empty, one leaf, two leaves
    assert len(profiles) == 3


def test_induced_sidorenko_small_graphs_hold():
    for g, seed in [(cycle4(), 11), (book(2), 12), (rho(), 13)]:
        report = props.test_induced_sidorenko(g, trials=40, seed=seed, tol=1e-8)
        assert report.holds, (g, report.worst_margin)


def test_induced_sidorenko_left_side_cap():
    from sidlab.bigraph import GraphTooLargeError

    wide = Bigraph([f"l{i}" for i in range(9)], ["r"],
                   [(f"l{i}", "r") for i in range(9)])
    with pytest.raises(GraphTooLargeError):
        induced_subgraph_profiles(wide)


def test_cs_tree_depth_cap():
    """Both depth caps, on a sequence and on the tester's depth, raise
    GraphTooLargeError with the cap's message."""
    from sidlab.bigraph import GraphTooLargeError

    g = cycle4()
    c = {e: 1 for e in g.edges}
    fold = c4_left_fold()
    with pytest.raises(GraphTooLargeError, match="fold sequences capped at depth 20"):
        cs_tree_leaves(g, c, [fold] * 21)
    with pytest.raises(GraphTooLargeError, match="fold sequences capped at depth 20"):
        props.test_cs_tree(g, trials=1, max_depth=21)


@pytest.mark.parametrize("tester, graph", [
    ("test_cs_tree", Bigraph(["a"], ["b"])),
    ("test_left_weak_holder", ColoredBigraph(Bigraph(["a", "b"], ["c"]), {})),
])
def test_edgeless_graph_runs_no_trials(tester, graph):
    report = getattr(props, tester)(graph, trials=10, seed=19)
    assert report.holds and report.witness is None
    assert (report.trials, report.skipped, report.worst_margin) == (0, 0, 0.0)


def test_induced_sidorenko_witness_replays():
    # force a "violation" by inflating tol so a near-zero margin trips it;
    # this exercises witness plumbing on the batched path
    report = props.test_induced_sidorenko(cycle4(), trials=5, seed=14, tol=-0.5)
    assert report.verdict == VIOLATED
    assert replay_witness(report.witness) == report.worst_margin
    # and at grids 1, 4 and 8 under both presets, on a graph with 79 core classes
    g = build_incidence(4, [2, 3]).graph
    for grid, preset in itertools.product((1, 4, 8), ("uniform", "adversarial")):
        report = props.test_induced_sidorenko(g, trials=12, grid=grid, seed=grid,
                                              tol=-0.5, preset=preset)
        assert report.verdict == VIOLATED
        assert replay_witness(report.witness) == report.worst_margin, (grid, preset)
        # the shipped class is a 2-core: minimum degree 2, or empty
        assert props._is_core({frozenset(s): c for s, c in report.witness["profile"]})


# cycle4 with a pendant right vertex: under an exactly biregular bigraphon the
# pendant multiplies a density by rho, so classes with and without it tie
C4_PENDANT = Bigraph(["a", "b"], ["c", "d", "e"],
                     [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("a", "e")])
SELECTION_GRAPHS = {"incidence(4,{2,3})": build_incidence(4, [2, 3]).graph,
                    "incidence(4,{2})": build_incidence(4, [2]).graph,
                    "cycle4": cycle4(), "cycle4+pendant": C4_PENDANT}


@functools.cache
def selection_bigraphons() -> tuple:
    """The induced-Sidorenko sampler's draws at grids 5-16, random
    biregularized ones at 4 and 5 rows, then dyadic circulant ones,
    biregular in exact arithmetic (the last four)."""
    out = []
    for grid, seed, preset in itertools.product(range(5, 17), (0, 1),
                                                ("uniform", "adversarial")):
        try:
            out.append(props.sinkhorn_biregularize(props._sample_bigraphon(
                props._trial_rng(seed, 0), grid, preset)))
        except SinkhornError:
            pass
    rng = np.random.default_rng(7)
    out += [props.sinkhorn_biregularize(StepBigraphon.uniform(rng.uniform(0.001, 1.0, (n, n))))
            for n in (4, 5)]
    for n in (2, 4, 8, 16):
        v = rng.choice([0.125, 0.25, 0.5, 1.0], size=n)
        out.append(StepBigraphon.uniform([np.roll(v, i) for i in range(n)]))
    return tuple(out)


def core_classes(g) -> list:
    return [p for p in induced_subgraph_profiles(g) if props._is_core(p)]


def profile_graph(left, profile) -> Bigraph:
    """A bigraph on `left` with one right vertex per unit of each count."""
    right, edges = [], []
    for i, (subset, count) in enumerate(profile.items()):
        for k in range(count):
            right.append(f"r{i}_{k}")
            edges += [(v, f"r{i}_{k}") for v in sorted(subset)]
    return Bigraph(left, right, edges)


@pytest.mark.parametrize("name, cores", [("cycle4", 2), ("incidence(4,{2})", 5),
                                         ("incidence(4,{2,3})", 79)])
def test_induced_sidorenko_scores_one_class_per_2_core(name, cores):
    classes = core_classes(SELECTION_GRAPHS[name])
    assert len(classes) == cores and {} in classes


@pytest.mark.parametrize("name", SELECTION_GRAPHS)
def test_every_class_has_its_2_cores_key_on_biregular_bigraphons(name):
    """On exactly biregular bigraphons each class's key log t - e log rho is
    its 2-core's, and the worst gap over all classes is the worst over the
    cores."""
    g = SELECTION_GRAPHS[name]
    profiles, core = induced_subgraph_profiles(g), props.two_core(g)
    cores = [props._own_profile(props.two_core(profile_graph(g.left, p))) for p in profiles]
    keys = props._induced_scorer(g.left, core, [*profiles, *cores])
    every = props._induced_scorer(g.left, core, profiles)
    scored = props._induced_scorer(g.left, core, core_classes(g))
    for w in selection_bigraphons()[-4:]:
        assert np.allclose(*np.split(keys(w), 2), rtol=0, atol=1e-12)
        assert abs(every(w).min() - scored(w).min()) <= 1e-12


def test_a_pendant_class_leaves_no_tie_to_sinkhorn():
    """Every non-constant draw on cycle4 with a pendant picks the C4 core,
    whose row is the own row, so its gap is exactly 0."""
    g = C4_PENDANT
    classes = core_classes(g)
    gaps = props._induced_scorer(g.left, props.two_core(g), classes)
    drawn = [w for w in selection_bigraphons() if np.ptp(w.values) > 0]
    assert len(drawn) > 40
    for w in drawn:
        scores = gaps(w)
        assert classes[int(np.argmin(scores))] == {frozenset({"a", "b"}): 2}
        assert scores.min() == 0.0
    report = props.test_induced_sidorenko(g, trials=6, grid=8, seed=0, tol=-math.inf)
    assert report.witness["profile"] == [[["a", "b"], 2]] and report.worst_margin == 0.0


def spied_batches(monkeypatch):
    """Every profile batch the testers compile: its profile list and, in a
    one-item list, how many times it ran."""
    made = []

    def compile_(vertices, profiles):
        batch, calls = compile_profiles(vertices, profiles), [0]
        made.append((list(profiles), calls))

        def run(w):
            calls[0] += 1
            return batch(w)
        return run
    monkeypatch.setattr(props, "compile_profiles", compile_)
    return made


def batch_runs(made, g) -> tuple[list, list, list]:
    """The spied batches' run counts: the whole [own, *cores] batch's, the
    [own, class] pairs' and every other batch's."""
    own, cores = props._own_profile(props.two_core(g)), len(core_classes(g))
    whole, pairs, others = [], [], []
    for profiles, (calls,) in made:
        if len(profiles) == 1 + cores:
            whole.append(calls)
        elif len(profiles) == 2 and profiles[0] == own:
            pairs.append(calls)
        else:
            others.append(calls)
    return whole, pairs, others


def check_whole_core_batch_once_per_trial(monkeypatch, grid, trials, seeds):
    """One whole [own, *cores] batch run per trial, pair runs summing to the
    trials and no other batch, for both presets."""
    g = SELECTION_GRAPHS["incidence(4,{2,3})"]
    for seed, preset in itertools.product(seeds, ("uniform", "adversarial")):
        made = spied_batches(monkeypatch)
        report = props.test_induced_sidorenko(g, trials=trials, grid=grid, seed=seed,
                                              preset=preset)
        assert report.trials == trials
        whole, pairs, others = batch_runs(made, g)
        assert whole == [trials] and sum(pairs) == trials and not others


@pytest.mark.parametrize("grid, trials", [(4, 20)])
def test_each_trial_runs_the_whole_core_batch_once(monkeypatch, grid, trials):
    check_whole_core_batch_once_per_trial(monkeypatch, grid, trials, (0, 1))


@pytest.mark.parametrize("seed", [0, 1])
def test_grid_16_trials_run_the_whole_core_batch_once(monkeypatch, seed):
    check_whole_core_batch_once_per_trial(monkeypatch, 16, 2, (seed,))


# ---------------------------------------------------------------------------
# weakly norming


def test_weakly_norming_precondition():
    report = props.test_weakly_norming(book(2), trials=10, seed=15)
    assert report.verdict == VIOLATED
    assert "biregular" in report.witness["precondition"]
    assert "precondition" in report.note


def test_weakly_norming_c4_and_edge_hold():
    assert props.test_weakly_norming(cycle4(), trials=60, seed=16).holds
    assert props.test_weakly_norming(rho(), trials=20, seed=17).holds
    assert props.test_weakly_norming(star(2), trials=30, seed=18).holds


def test_weakly_norming_edgeless_graph_holds_vacuously():
    report = props.test_weakly_norming(Bigraph(["a", "b"], ["c"]), trials=10, seed=19)
    assert report.holds and report.witness is None
    assert (report.trials, report.skipped, report.worst_margin) == (0, 0, 0.0)


@pytest.mark.parametrize("fail_every", [3, 1])
def test_trials_sinkhorn_cannot_balance_are_skipped(monkeypatch, fail_every):
    """Every fail_every-th Sinkhorn call raises; those trials are skipped and
    trials + skipped is the requested count. When every call fails, no trial
    runs and the report holds vacuously."""
    real, calls = props.sinkhorn_biregularize, itertools.count()

    def flaky(w):
        if next(calls) % fail_every == 0:
            raise SinkhornError("no convergence")
        return real(w)
    monkeypatch.setattr(props, "sinkhorn_biregularize", flaky)
    report = props.test_weak_domination(cycle4(), rho(), trials=12, seed=20)
    assert report.skipped == 12 // fail_every
    assert report.trials + report.skipped == 12
    if fail_every == 1:
        assert report.holds and report.witness is None and report.worst_margin == 0.0


# ---------------------------------------------------------------------------
# left-weakly Hoelder


def test_left_weak_holder_precheck():
    g = cycle4()
    irregular = ColoredBigraph(
        g, {("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 2})
    report = props.test_left_weak_holder(irregular, trials=5, seed=19)
    assert report.verdict == VIOLATED
    assert "left-color-regular" in report.witness["precondition"]


def test_left_weak_holder_incidence_holds():
    h = build_incidence(3, [2])
    assert props.test_left_weak_holder(h, trials=40, seed=20).holds
    h23 = build_incidence(3, [1, 2])
    assert props.test_left_weak_holder(h23, trials=25, seed=21).holds


def test_left_weak_holder_constant_coloring_equality():
    from sidlab.bigraphon import bigraphon_to_json
    from sidlab.bigraph import to_json_dict

    h = build_incidence(3, [2])
    offset = max(h.color_set()) + 1
    ws = {str(1 * offset + 1): bigraphon_to_json(random_step_bigraphon(3, 3, seed=55))}
    witness = {"property": "left-weak-holder", "colored": to_json_dict(h),
               "ell": {v: 1 for v in h.graph.left}, "tuple": ws}
    assert abs(replay_witness(witness)) < 1e-12  # both sides identical


def two_trial_gap(h, ell, ws):
    """The left-weak-Hoelder gap with the product coloring and each label's
    left-constant coloring as separate trials of one batch."""
    g = h.graph
    offset = max(h.color_set()) + 1
    labels = list(dict.fromkeys(ell[v] for v in g.left))
    colorings = [{e: props._pair_color(ell[e[0]], c, offset) for e, c in h.colors.items()}]
    colorings += [{e: props._pair_color(t, c, offset) for e, c in h.colors.items()}
                  for t in labels]
    log_lhs, *logs = map(math.log, colored_densities(g, colorings, [ws] * len(colorings)))
    per_label = dict(zip(labels, logs))
    total = 0.0
    for v in g.left:
        total += per_label[ell[v]] / g.v1
    return total - log_lhs


def test_a_constant_labeling_runs_once_and_keeps_its_gap(monkeypatch):
    """One engine trial per label of a constant labeling, none more for its
    product coloring; every gap of a mixed batch equals the two-trial
    computation, and a constant labeling's witness replays exactly."""
    h = build_incidence(4, [2, 3])
    offset = max(h.color_set()) + 1
    instances = []
    for trial in range(60):
        n_colors, ell = props._random_labels(props._trial_rng(8, trial), h.graph.left, 3)
        if trial % 3 == 0:
            ell = dict.fromkeys(h.graph.left, n_colors)
        colors = [props._pair_color(t, c, offset)
                  for t in range(1, n_colors + 1) for c in h.color_set()]
        ws = props._sample_tuple(props._trial_rng(9, trial), 4, colors,
                                 ("uniform", "adversarial")[trial % 2])
        instances.append((h, ell, ws))
    counts = []
    real = props.colored_densities
    monkeypatch.setattr(props, "colored_densities", lambda g, colorings, tuples:
                        counts.append(len(colorings)) or real(g, colorings, tuples))
    assert props._left_weak_holder_gaps(instances) == [two_trial_gap(*i) for i in instances]
    labels = [len(set(ell.values())) for _, ell, _ in instances]
    assert counts == [sum(n + (n > 1) for n in labels)]
    assert labels.count(1) >= 20
    name = "left-weak-holder"
    for instance in instances[:6:3]:  # two constant labelings
        gap, = props._left_weak_holder_gaps([instance])
        witness = json.loads(json.dumps(
            {"property": name, **props.PROPERTIES[name].encode(instance)}))
        assert replay_witness(witness) == math.expm1(gap) == math.expm1(two_trial_gap(*instance))


def draw_one_color(rng, rows, cols, preset):
    """One color's values drawn on their own: a coin flip first under the
    adversarial preset, then a floor/1 mask or uniform values in [1e-3, 1]."""
    if preset == "adversarial" and rng.random() < 0.5:
        return np.where(rng.random((rows, cols)) < 0.5, 1e-3, 1.0)
    return rng.uniform(1e-3, 1.0, size=(rows, cols))


@pytest.mark.parametrize("preset", ["uniform", "adversarial"])
@pytest.mark.parametrize("grid", [1, 4, 16])
def test_a_tuple_reads_the_stream_as_one_draw_per_color(grid, preset):
    """A tuple has the values, and leaves the generator in the state, of
    one draw per color in color order, though the uniform preset draws
    every color in one call."""
    for seed, k in itertools.product(range(20), (1, 2, 6)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        ws = props._sample_tuple(rng, grid, range(k, 0, -1), preset)
        rows, cols = int(ref.integers(1, grid + 1)), int(ref.integers(1, grid + 1))
        for c in range(1, k + 1):
            want = draw_one_color(ref, rows, cols, preset)
            assert ws[c].values.tobytes() == want.tobytes() and ws[c].values.shape == want.shape
        assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# color-Sidorenko


def test_color_sidorenko_rainbow_fixed_point_equality():
    h = from_right_uniform(build_incidence(3, [1, 2]))
    star_h = rainbow_star(h)
    report = props.test_color_sidorenko(star_h, trials=30, seed=22)
    assert report.holds
    assert abs(report.worst_margin) < 1e-11


def test_color_sidorenko_incidence_and_power_hold():
    h = from_right_uniform(build_incidence(3, [2]))
    assert props.test_color_sidorenko(h, trials=40, seed=23).holds
    powered = color_power(h, {1: 2.0})
    assert props.test_color_sidorenko(powered, trials=40, seed=24).holds


def test_color_sidorenko_needs_mass():
    from sidlab.fractional import ColoredFractionalBigraph
    empty = ColoredFractionalBigraph(["v"], [1], {})
    with pytest.raises(ValueError):
        props.test_color_sidorenko(empty, trials=1, seed=0)


# ---------------------------------------------------------------------------
# Cauchy-Schwarz trees


def test_cs_tree_no_folds():
    g = cycle4()
    c = {e: i for i, e in enumerate(sorted(g.edges))}
    assert cs_tree_leaves(g, c, []) == [c]


def test_cs_tree_single_fold_c4():
    g = cycle4()
    c = {("a", "c"): 0, ("a", "d"): 1, ("b", "c"): 2, ("b", "d"): 3}
    leaves = cs_tree_leaves(g, c, [c4_left_fold()])
    assert len(leaves) == 2
    # left leaf uses only colors of a's edges, right leaf only b's
    assert set(leaves[0].values()) == {0, 1}
    assert set(leaves[1].values()) == {2, 3}


def test_cs_tree_leftmost_leaf_left_constant():
    ib = IncidenceBigraph(4, [2])
    g = ib.graph
    cert = find_left_cut_percolating(g, reflection_fold_pool(ib))
    natural = ib.colored.colors
    ell = {v: int(v) for v in g.left}  # injective left coloring
    offset = 10
    product = {e: ell[e[0]] * offset + natural[e] for e in g.edges}
    leaves = cs_tree_leaves(g, product, list(cert.folds))
    leftmost = leaves[0]
    v0 = next(iter(cert.trajectory[0]))
    # exactly the coloring (ell(v0) x natural)
    assert leftmost == {e: ell[v0] * offset + natural[e] for e in g.edges}


def test_verify_cs_inequality_equality_at_depth_zero():
    g = cycle4()
    c = {e: 1 for e in g.edges}
    ws = BigraphonTuple({1: random_step_bigraphon(3, 3, seed=25)})
    report = verify_cs_inequality(g, c, [], ws)
    assert report.holds and abs(report.worst_margin) < 1e-12


def test_verify_cs_inequality_c4_and_incidence():
    g = cycle4()
    rng = np.random.default_rng(26)
    for trial in range(25):
        c = {e: int(col) for e, col in
             zip(sorted(g.edges), rng.integers(1, 4, size=4))}
        ws = BigraphonTuple({i: random_step_bigraphon(3, 3, seed=100 + 10 * trial + i)
                             for i in range(1, 4)})
        report = verify_cs_inequality(g, c, [c4_left_fold()], ws)
        assert report.holds

    ib = IncidenceBigraph(4, [2])
    cert = find_left_cut_percolating(ib.graph, reflection_fold_pool(ib))
    c = {e: 1 for e in ib.graph.edges}
    ws = BigraphonTuple({1: random_step_bigraphon(4, 4, seed=27)})
    assert verify_cs_inequality(ib.graph, c, list(cert.folds), ws).holds


# ---------------------------------------------------------------------------
# 2-threshold subgraphs and endomorphism preimages


def test_two_threshold_constants():
    g = cycle4()
    all2 = {v: 2 for v in g.vertices()}
    assert two_threshold(g, all2) == g
    all0 = {v: 0 for v in g.vertices()}
    empty = two_threshold(g, all0)
    assert empty.edges == frozenset() and empty.left == g.left


def test_two_threshold_indicator_recovers_induced():
    g = book(2)
    u = {"p", "q", "u1", "w1"}
    f = {v: (1 if v in u else 0) for v in g.vertices()}
    gf = two_threshold(g, f)
    from sidlab.bigraph import induced_subgraph
    assert gf.edges == induced_subgraph(g, u).edges
    assert gf.left == g.left  # spanning: isolated vertices kept


def test_two_threshold_validation():
    g = cycle4()
    with pytest.raises(ValueError):
        two_threshold(g, {v: 3 for v in g.vertices()})
    with pytest.raises(ValueError):
        two_threshold(g, {"a": 1})


def all_endomorphisms(g):
    verts = g.vertices()
    lefts, rights = list(g.left), list(g.right)
    for limg in itertools.product(lefts, repeat=len(lefts)):
        for rimg in itertools.product(rights, repeat=len(rights)):
            phi = dict(zip(lefts, limg)) | dict(zip(rights, rimg))
            if g.is_endomorphism(phi):
                yield phi


def test_endo_preimage_identity_and_full():
    g = cycle4()
    f = {v: (2 if v == "a" else 0) for v in g.vertices()}
    sub = two_threshold(g, f)
    ident = {v: v for v in g.vertices()}
    assert endo_preimage(g, sub, ident) == sub
    assert endo_preimage(g, g, ident) == g


def test_endo_preimage_threshold_compatibility_exhaustive():
    for g in (cycle4(), star(2), book(2)):
        endos = list(all_endomorphisms(g))
        assert endos
        for phi in endos:
            for values in itertools.product((0, 1, 2), repeat=g.v):
                f = dict(zip(g.vertices(), values))
                gf = two_threshold(g, f)
                composed = two_threshold(g, {v: f[phi[v]] for v in g.vertices()})
                assert endo_preimage(g, gf, phi) == composed


def test_endo_preimage_validation():
    g = cycle4()
    with pytest.raises(ValueError):
        endo_preimage(g, rho(), {v: v for v in g.vertices()})
    with pytest.raises(ValueError):
        endo_preimage(g, g, {"a": "c", "c": "a", "b": "b", "d": "d"})


# ---------------------------------------------------------------------------
# inductive Jensen bound


def test_jensen_n0_equality():
    report = props.test_inductive_jensen(0, trials=20, seed=28)
    assert report.holds and abs(report.worst_margin) < 1e-12


def test_jensen_hand_case():
    witness = {"property": "jensen", "weights": [0.5, 0.5], "g": [1.0, 1.0],
               "fs": [[1.0, 3.0]], "ps": [2.0]}
    assert replay_witness(witness) == pytest.approx(5.0 / 4.0 - 1.0, rel=1e-12)


def test_jensen_random_holds():
    for n in (1, 2, 3):
        assert props.test_inductive_jensen(n, trials=60, seed=29 + n).holds
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        props.test_inductive_jensen(-1)


# ---------------------------------------------------------------------------
# color restriction


def left_regularized(w):
    vals = w.values / w.row_marginals()[:, None]
    return w.with_values(vals)


def test_color_restriction_full_set_equality():
    h = build_incidence(3, [1, 2])
    ws = BigraphonTuple({1: random_step_bigraphon(3, 3, seed=30),
                         2: random_step_bigraphon(3, 3, seed=31)})
    report = props.test_color_restriction(h, [1, 2], ws)
    assert report.holds and abs(report.worst_margin) < 1e-12


def test_color_restriction_drop_one_color_holds():
    h = build_incidence(3, [1, 2])
    for seed in range(5):
        w1 = left_regularized(random_step_bigraphon(3, 3, seed=40 + seed))
        w2 = random_step_bigraphon(3, 3, seed=50 + seed)
        report = props.test_color_restriction(h, [2], BigraphonTuple({1: w1, 2: w2}))
        assert report.holds, report.worst_margin


def test_color_restriction_precondition():
    h = build_incidence(3, [1, 2])
    ws = BigraphonTuple({1: random_step_bigraphon(3, 3, seed=60),
                         2: random_step_bigraphon(3, 3, seed=61)})
    with pytest.raises(ValueError):
        props.test_color_restriction(h, [2], ws)  # dropped color not left-regular
    with pytest.raises(ValueError):
        props.test_color_restriction(h, [9], ws)


# ---------------------------------------------------------------------------
# report plumbing


def test_reports_deterministic():
    a = props.test_sidorenko(cycle4(), trials=20, seed=77)
    b = props.test_sidorenko(cycle4(), trials=20, seed=77)
    assert report_to_json(a) == report_to_json(b)
    c = props.test_sidorenko(cycle4(), trials=20, seed=78)
    assert report_to_json(a) != report_to_json(c)


def test_report_carries_disclaimer():
    report = props.test_sidorenko(rho(), trials=5, seed=1)
    assert "do not certify" in report.note


# ---------------------------------------------------------------------------
# the property table: every witness codec round-trips exactly


GRID_PRESET = {"grid": 4, "preset": "adversarial"}
# each property's tester arguments besides trials, seed and tol
ROUND_TRIP_CASES = {
    "sidorenko": ((cycle4(),), GRID_PRESET),
    "strong-sidorenko": ((build_incidence(4, [2]).graph,), GRID_PRESET),
    "weak-domination": ((cycle4(), rho()), GRID_PRESET),
    "induced-sidorenko": ((build_incidence(4, [2]).graph,), GRID_PRESET),
    "weakly-norming": ((cycle4(),), GRID_PRESET),
    "left-weak-holder": ((build_incidence(3, [2]),), GRID_PRESET),
    "color-sidorenko": ((from_right_uniform(build_incidence(3, [1, 2])),), GRID_PRESET),
    "cs-tree": ((cycle4(),), GRID_PRESET),
    "jensen": ((), {"n": 3}),
    "color-restriction": ((build_incidence(3, [1, 2]),), {"grid": 4, "colors": [2]}),
}


def shipped_report(name):
    args, params = ROUND_TRIP_CASES[name]
    tester = getattr(props, props.PROPERTIES[name].tester)
    # an infinite negative tolerance makes the worst trial ship its witness
    report = tester(*args, trials=6, seed=3, tol=-math.inf, **params)
    assert report.verdict == VIOLATED and report.trials == 6 - report.skipped
    return report


@pytest.mark.parametrize("name", list(props.PROPERTIES))
def test_witness_round_trip_replays_exactly(name):
    report = shipped_report(name)
    payload = json.loads(json.dumps(report_to_json(report), sort_keys=True))
    assert payload["witness"]["property"] == name
    assert replay_witness(payload["witness"]) == report.worst_margin


@pytest.mark.parametrize("name", list(props.PROPERTIES))
def test_truncated_witness_names_the_missing_key(name):
    report = shipped_report(name)
    payload_keys = {key for key, _ in props.PROPERTIES[name].witness}
    for key in report.witness:
        truncated = {k: v for k, v in report.witness.items() if k != key}
        if key == "property":
            with pytest.raises(ValueError, match="witness lacks 'property'"):
                replay_witness(truncated)
        elif key in payload_keys:
            with pytest.raises(ValueError, match=f"{name} witness lacks '{key}'"):
                replay_witness(truncated)
        else:  # trial and margin are reported, not replayed
            assert replay_witness(truncated) == report.worst_margin


# the name and required keys of each JSON object format of the table
OBJECT_FORMATS = [(shape.name, [key for key, (_, required) in shape.fields.items() if required])
                  for shape in FORMATS.values() if isinstance(shape, Object)]


def nested_paths(node, path=()):
    """The key path of every value below the top of a JSON payload."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for step, child in children:
        yield path + (step,)
        yield from nested_paths(child, path + (step,))


def nested_objects(node):
    """(path, format name, first required key) of every object, the top one
    too, that holds the required keys of a table format, the most of them."""
    for path in [(), *nested_paths(node)]:
        value = node
        for step in path:
            value = value[step]
        matches = [(len(keys), name, keys[0]) for name, keys in OBJECT_FORMATS
                   if isinstance(value, dict) and all(k in value for k in keys)]
        if matches:
            yield (path, *max(matches)[1:])


def replaced(payload, path, value):
    if not path:
        return value
    broken = copy.deepcopy(payload)
    node = broken
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = copy.deepcopy(value)
    return broken


def replays(witness):
    return replay_witness(witness) is not None


G4 = build_incidence(4, [2]).graph
BOOK_RTD = {"bags": [["p", "q", "u1", "w1"], ["p", "q", "u2", "w2"]], "edges": [[0, 1]]}
# each other format a decoder reads: a valid payload, and a use of its decoder
# that refuses a malformed one with a ValueError or says whether it holds
PAYLOADS = {
    "left certificate": (lambda: certificate_to_json(find_left_cut_percolating(G4)),
                         lambda d: bool(verify_certificate(G4, certificate_from_json(d)))),
    "edge certificate": (lambda: certificate_to_json(find_cut_percolating(G4)),
                         lambda d: bool(verify_certificate(G4, certificate_from_json(d)))),
    "decomposition": (lambda: BOOK_RTD,
                      lambda d: bool(verify_rtd(book(2), decomposition_from_json(d)))),
    "bigraph": (lambda: to_json_dict(G4), lambda d: from_json_dict(d) is not None),
    "colored bigraph": (lambda: to_json_dict(build_incidence(3, [1, 2])),
                        lambda d: from_json_dict(d) is not None),
}
# free-form fields an empty list leaves a valid instance: no profile entry, no fold
EMPTY_IS_VALID = {"profile", "folds"}
# maps keyed by the vertices of a side of the witness graph
VERTEX_MAPS = {("strong-sidorenko", "f"): ("graph", "v1"),
               ("strong-sidorenko", "g"): ("graph", "v2"),
               ("left-weak-holder", "ell"): ("colored", "v1")}


@pytest.mark.parametrize("name", list(props.PROPERTIES) + list(PAYLOADS))
def test_emptied_nested_object_names_the_key(name):
    if name in PAYLOADS:
        make, use = PAYLOADS[name]
        payload, replayed = make(), None
    else:
        payload = json.loads(json.dumps(report_to_json(shipped_report(name))))["witness"]
        use = replays
        # trial and margin are reported, not replayed
        replayed = ["property"] + [key for key, _ in props.PROPERTIES[name].witness]

    # every nested value retyped: refused with a ValueError, unless an empty
    # list or a 1 leaves a valid payload
    for path in nested_paths(payload):
        if replayed is not None and path[0] not in replayed:
            continue
        for value in ({}, [], "x", 1):
            try:
                accepted = use(replaced(payload, path, value))
            except ValueError:
                continue
            assert not accepted or value in ([], 1), (path, value)

    # every object of a table format names itself and its first required key
    found = list(nested_objects(payload))
    assert found and found[0][0] == ()
    for path, fmt, key in found:
        for empty, message in (({}, f"{fmt} lacks '{key}'"),
                               ([], f"{fmt} must be a JSON object")):
            with pytest.raises(ValueError) as info:
                use(replaced(payload, path, empty))
            assert str(info.value) == message, path
    if replayed is None:
        return
    witness = payload

    # free-form fields: every retyped or emptied one is refused with a
    # ValueError, and a vertex map that misses a vertex names both
    for key in replayed:
        for value in ({}, [], "x"):
            broken = {**witness, key: value}
            if value == [] and key in EMPTY_IS_VALID:
                assert math.isfinite(replay_witness(broken))
            else:
                with pytest.raises(ValueError):
                    replay_witness(broken)
        if (name, key) in VERTEX_MAPS:
            graph, side = VERTEX_MAPS[name, key]
            vertex = witness[graph][side][-1]
            broken = {**witness,
                      key: {v: x for v, x in witness[key].items() if v != vertex}}
            with pytest.raises(ValueError) as info:
                replay_witness(broken)
            assert str(info.value) == f"{name} witness '{key}' lacks vertex {vertex!r}"
    if name == "jensen":
        for key, value in (("g", witness["g"][1:]), ("ps", witness["ps"][1:])):
            with pytest.raises(ValueError, match=f"'{key}'"):
                replay_witness({**witness, key: value})

    # a map given as [key, value] pairs refuses a key named twice, where it
    # once kept the last entry
    for key, fmt in props.PROPERTIES[name].witness:
        if fmt in ("coloring", "profile"):
            with pytest.raises(ValueError, match="named twice"):
                replay_witness({**witness, key: witness[key] + witness[key][:1]})
    if name == "induced-sidorenko":  # one subset, its vertices in two orders
        with pytest.raises(ValueError, match="profile names a subset twice"):
            replay_witness({**witness, "profile": [[["a", "b"], 1], [["b", "a"], 1]]})
    # a plain graph field ignores edge colors, as `sidlab test` does
    for key, fmt in props.PROPERTIES[name].witness:
        if fmt == "bigraph":
            colored = {**witness[key], "edge_colors": [1] * len(witness[key]["edges"])}
            assert replay_witness({**witness, key: colored}) == witness["margin"]


@pytest.mark.parametrize("name", list(props.PROPERTIES))
def test_replay_refuses_a_nan_in_every_numeric_field(name):
    """json.load reads NaN, so each number a witness field holds, set to
    NaN, is refused where it enters and never replays to a nan margin."""
    witness = json.loads(json.dumps(report_to_json(shipped_report(name))))["witness"]
    numeric = set()
    for key, _ in props.PROPERTIES[name].witness:
        for path in nested_paths(witness[key], (key,)):
            leaf = witness
            for step in path:
                leaf = leaf[step]
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
                numeric.add(key)
                with pytest.raises(ValueError, match="must be"):
                    replay_witness(replaced(witness, path, math.nan))
    assert numeric


@pytest.mark.parametrize("name, key", [("weakly-norming", "graph"),
                                       ("left-weak-holder", "colored")])
def test_replay_refuses_an_edgeless_graph(name, key):
    """No tester runs a trial on an edgeless graph, so replay ships no margin
    for one: it names the graph field instead of failing in the arithmetic."""
    witness = shipped_report(name).witness
    graph = {**witness[key], "edges": []}
    if "edge_colors" in graph:
        graph["edge_colors"] = []
    broken = {**witness, key: graph}
    if "coloring" in broken:
        broken["coloring"] = []
    with pytest.raises(ValueError) as info:
        replay_witness(broken)
    assert str(info.value) == f"{name} witness '{key}' has no edges"


def test_cs_tree_replay_refuses_an_edgeless_graph():
    """The cs-tree check raises for an edgeless graph, in replay and in the
    public functions that run it, as the checks above name it."""
    witness = shipped_report("cs-tree").witness
    broken = {**witness, "graph": {**witness["graph"], "edges": []}, "coloring": [],
              "folds": []}
    with pytest.raises(ValueError, match="^'graph' has no edges$"):
        replay_witness(broken)
    ws = props._sample_tuple(np.random.default_rng(0), 2, [1])
    for call in (lambda: cs_tree_leaves(Bigraph(["a"], ["b"]), {}, []),
                 lambda: verify_cs_inequality(Bigraph(["a"], ["b"]), {}, [], ws)):
        with pytest.raises(ValueError, match="^'graph' has no edges$"):
            call()


def test_replay_refuses_what_the_tester_refuses():
    witness = shipped_report("strong-sidorenko").witness
    with pytest.raises(ValueError) as tester:
        props.test_strong_sidorenko(Bigraph(["1"], ["2"]))
    with pytest.raises(ValueError) as replay:
        replay_witness({**witness, "graph": {**witness["graph"], "edges": []}})
    assert str(replay.value) == str(tester.value)

    witness = shipped_report("induced-sidorenko").witness
    with pytest.raises(ValueError) as replay:
        replay_witness({**witness, "profile": [[["zz"], 1]]})
    assert str(replay.value) == ("induced-sidorenko witness 'profile' names 'zz', "
                                 "not a left vertex")

    report = shipped_report("color-restriction")
    h, ws = from_json_dict(report.witness["colored"]), props._CODECS["bigraphon tuple"][1](
        report.witness["tuple"])
    for keep in ([77], [], [1]):
        with pytest.raises(ValueError) as tester:
            props.test_color_restriction(h, keep, ws)
        with pytest.raises(ValueError) as replay:
            replay_witness({**report.witness, "keep_colors": keep})
        assert str(replay.value) == str(tester.value)


def test_replay_refuses_an_empty_subset():
    # both replayed to a margin (0.0 and -4.4e-16) before subsets had to be nonempty
    witness = json.loads(json.dumps(shipped_report("induced-sidorenko").witness))
    witness["profile"][0][0] = []
    with pytest.raises(ValueError) as info:
        replay_witness(witness)
    assert str(info.value) == "profile entry 0 names an empty subset"
    witness = json.loads(json.dumps(shipped_report("color-sidorenko").witness))
    witness["fractional"]["weights"][0][0] = []
    with pytest.raises(ValueError, match="subsets must be nonempty"):
        replay_witness(witness)


def test_single_instance_witnesses_replay_exactly():
    g = cycle4()
    c = {e: i % 2 + 1 for i, e in enumerate(sorted(g.edges))}
    ws = BigraphonTuple({1: random_step_bigraphon(3, 3, seed=70),
                         2: random_step_bigraphon(3, 3, seed=71)})
    h = build_incidence(3, [1, 2])
    reports = [verify_cs_inequality(g, c, [c4_left_fold()], ws, tol=-math.inf),
               props.test_color_restriction(h, [1, 2], ws, tol=-math.inf)]
    for report in reports:
        assert report.verdict == VIOLATED and "trial" not in report.witness
        payload = json.loads(json.dumps(report.witness))
        assert replay_witness(payload) == report.worst_margin


def test_cs_tree_broken_fold_is_refused_with_check_folds_message():
    g = cycle4()
    c = {e: i % 2 + 1 for i, e in enumerate(sorted(g.edges))}
    ws = BigraphonTuple({1: random_step_bigraphon(3, 3, seed=70),
                         2: random_step_bigraphon(3, 3, seed=71)})
    good = c4_left_fold()
    broken = Fold(good.phi, good.left | {"c"})  # L meets Fix(phi)
    with pytest.raises(ValueError) as expected:
        check_fold(g, broken)
    witness = verify_cs_inequality(g, c, [good], ws, tol=-math.inf).witness
    payload = json.loads(json.dumps({**witness, "folds": [fold_to_json(broken)]}))
    for refuse in (lambda: replay_witness(payload),
                   lambda: verify_cs_inequality(g, c, [good, broken], ws),
                   lambda: cs_tree_leaves(g, c, [broken])):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == str(expected.value)


def test_replay_rejects_precondition_witness():
    report = props.test_weakly_norming(book(2), trials=3, seed=15)
    with pytest.raises(ValueError, match="precondition witnesses carry no margin"):
        replay_witness(report.witness)
    with pytest.raises(ValueError, match="unknown witness property"):
        replay_witness({"property": "frobnicate"})
