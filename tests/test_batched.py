"""The batched trial pass against its per-trial forms: reports equal to
the per-trial loop in `reference_run`, every batched margin equal to its
batch of one, batched densities equal to single ones and to brute force,
the compiled profile batch equal to the per-subset one, and a run's
memory bounded by its chunks."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import reference_run
import test_density
from sidlab import testers
from sidlab.bigraph import Bigraph, ColoredBigraph, cycle4, rho, star
from sidlab.bigraphon import BigraphonTuple, SinkhornError, StepBigraphon
from sidlab.density import (
    colored_densities,
    colored_density,
    densities,
    density,
    density_brute_force,
    weighted_density,
)
from sidlab.fractional import (
    ColoredFractionalBigraph,
    compile_profiles,
    dual_star_table,
    fractional_densities,
    fractional_density,
    from_right_uniform,
)
from sidlab.reflection import build_incidence

DENSITY = sys.modules["sidlab.density"]
EDGE_PLUS_ISOLATED = Bigraph(["a", "b"], ["c"], [("a", "c")])

# (tester, its inputs, whether it takes a preset), one or two per batched
# property, with falsified ones among them
CASES = [
    ("test_sidorenko", (cycle4(),), True),
    ("test_sidorenko", (build_incidence(4, [2, 3]).graph,), True),
    ("test_strong_sidorenko", (build_incidence(4, [2]).graph,), True),
    ("test_strong_sidorenko", (EDGE_PLUS_ISOLATED,), True),
    ("test_weak_domination", (cycle4(), rho()), True),
    ("test_weak_domination", (rho(), cycle4()), True),
    ("test_weakly_norming", (cycle4(),), True),
    ("test_weakly_norming", (build_incidence(4, [2]).graph,), True),
    ("test_left_weak_holder", (build_incidence(4, [2]),), True),
    ("test_left_weak_holder", (build_incidence(3, [1, 2]),), True),
    ("test_color_sidorenko", (from_right_uniform(build_incidence(4, [2, 3])),), True),
    ("test_cs_tree", (cycle4(),), True),
    ("test_cs_tree", (build_incidence(4, [2]).graph,), True),
    ("test_color_restriction_trials", (build_incidence(4, [2, 3]), [1]), False),
    ("test_induced_sidorenko", (cycle4(),), True),
    ("test_inductive_jensen", (3,), False),
]
CASE_IDS = [f"{name}-{i}" for i, (name, _, _) in enumerate(CASES)]
# strong Sidorenko's powered products also at grids 1 and 16
GRID_CASES = [pytest.param(case, grid, id=f"{grid}-{case_id}") for grid in (4, 8, 1, 16)
              for case, case_id in zip(CASES, CASE_IDS)
              if grid in (4, 8) or case[0] == "test_strong_sidorenko"]


def both_reports(monkeypatch, tester, args, **params):
    """The report of the batched pass, then that of the per-trial loop."""
    batched = getattr(testers, tester)(*args, **params)
    with monkeypatch.context() as m:
        m.setattr(testers, "_run", reference_run.run)
        per_trial = getattr(testers, tester)(*args, **params)
    return batched, per_trial


@pytest.mark.parametrize("case, grid", GRID_CASES)
def test_batched_run_reports_equal_the_per_trial_loop(monkeypatch, case, grid):
    tester, args, has_preset = case
    presets = ("uniform", "adversarial") if has_preset else (None,)
    for preset, seed in itertools.product(presets, (0, 5, 11)):
        params = {"trials": 25, "seed": seed}
        if tester != "test_inductive_jensen":
            params["grid"] = grid
        if preset is not None:
            params["preset"] = preset
        for tol in (1e-9, -math.inf):  # -inf ships the worst trial's witness
            batched, per_trial = both_reports(monkeypatch, tester, args, tol=tol, **params)
            assert batched == per_trial, (preset, seed, tol)
            if batched.witness is not None and "margin" in batched.witness:
                assert testers.replay_witness(batched.witness) == batched.worst_margin


def test_ties_keep_the_first_trial(monkeypatch):
    # a graph against itself: every margin is exactly 0
    batched, per_trial = both_reports(monkeypatch, "test_weak_domination",
                                      (cycle4(), cycle4()), trials=12, seed=4,
                                      tol=-math.inf)
    assert batched == per_trial
    assert batched.worst_margin == 0.0 and batched.witness["trial"] == 0


@pytest.mark.parametrize("fail_every", [2, 3, 1])
def test_sinkhorn_skips_match_the_per_trial_loop(monkeypatch, fail_every):
    real = testers.sinkhorn_biregularize
    calls = itertools.count()

    def flaky(w):
        if next(calls) % fail_every == 0:
            raise SinkhornError("no convergence")
        return real(w)
    monkeypatch.setattr(testers, "sinkhorn_biregularize", flaky)
    reports = []
    for run in (testers._run, reference_run.run):
        calls = itertools.count()
        with monkeypatch.context() as m:
            m.setattr(testers, "_run", run)
            reports.append(testers.test_weak_domination(cycle4(), rho(), trials=12,
                                                        seed=20, tol=-math.inf))
    assert reports[0] == reports[1]
    assert reports[0].skipped == 12 // fail_every + (12 % fail_every > 0)


def drawn_instances(monkeypatch, tester, args, **params):
    """The property name and every instance a tester run draws."""
    seen = []

    def keep(name, sample, trials, seed, tol):
        for trial in range(trials):
            try:
                seen.append(sample(testers._trial_rng(seed, trial)))
            except SinkhornError:
                pass
        return testers.TestReport(name, testers.HOLDS, 0, 0.0, None, seed, tol)
    with monkeypatch.context() as m:
        m.setattr(testers, "_run", keep)
        name = getattr(testers, tester)(*args, **params).property_name
    return name, seen


@pytest.mark.parametrize("case", [c for c in CASES if c[0] != "test_inductive_jensen"],
                         ids=lambda c: c[0])
def test_every_batched_margin_equals_its_batch_of_one(monkeypatch, case):
    """Bit for bit, at grids where padding is exact (4), where a size of 8
    or more splits the batch (8, 11) and where large grids mix (16)."""
    tester, args, has_preset = case
    for grid, seed in itertools.product((4, 8, 11, 16), (1, 2)):
        params = {"grid": grid, "seed": seed, "trials": 30 if grid < 16 else 12}
        if has_preset:
            params["preset"] = "adversarial" if seed == 2 else "uniform"
        name, instances = drawn_instances(monkeypatch, tester, args, **params)
        prop = testers.PROPERTIES[name]
        assert prop.margins(instances) == [prop.margin(*i) for i in instances], grid


def test_induced_margins_compile_each_shared_profile_once(monkeypatch):
    """Trials that share a worst profile share its compiled [own, profile]
    batch, and each margin equals its own two-row batch bit for bit."""
    g = build_incidence(4, [2, 3]).graph
    name, instances = drawn_instances(monkeypatch, "test_induced_sidorenko", (g,),
                                      grid=4, seed=3, trials=16, preset="adversarial")
    distinct = {frozenset(p.items()) for _, _, p in instances}
    assert 1 < len(distinct) < len(instances)
    own = testers._own_profile(g)
    want = []
    for _, w, profile in instances:
        logs = compile_profiles(g.left, [own, profile])(w)
        log_rho = math.log(w.edge_density())
        edges = sum(len(s) * c for s, c in profile.items())
        want.append(math.expm1((logs[0] - g.e * log_rho) - (logs[1] - edges * log_rho)))
    compiled = []
    with monkeypatch.context() as m:
        m.setattr(testers, "compile_profiles",
                  lambda *args: compiled.append(args) or compile_profiles(*args))
        got = testers.PROPERTIES[name].margins(instances)
    assert got == want
    assert len(compiled) == len(distinct)


def test_a_margin_batch_shares_its_graph():
    w = StepBigraphon.uniform([[0.5]])
    with pytest.raises(ValueError, match="share its graph"):
        testers.PROPERTIES["sidorenko"].margins([(cycle4(), w), (cycle4(), w)])


# ---------------------------------------------------------------------------
# batched densities


def mixed_bigraphons(rng, count, most=9):
    """Non-uniform bigraphons of sizes 1..most, so batches pad and split
    at 8."""
    out = []
    for _ in range(count):
        rows, cols = (int(k) for k in rng.integers(1, most + 1, size=2))
        out.append(StepBigraphon(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)),
                                 rng.uniform(1e-3, 1.0, size=(rows, cols))))
    return out


def test_batched_densities_equal_single_ones_and_brute_force():
    rng = np.random.default_rng(41)
    graphs = [cycle4(), star(3), rho(), EDGE_PLUS_ISOLATED, Bigraph(["a"], ["b"]),
              build_incidence(3, [2]).graph]
    for g in graphs:
        ws = mixed_bigraphons(rng, 40)
        batch = densities(g, ws)
        for t, w in zip(batch, ws):
            assert t == density(g, w)
            assert t == pytest.approx(density_brute_force(g, w), rel=1e-12)


def test_batched_colored_and_fractional_densities_equal_single_ones():
    rng = np.random.default_rng(42)
    h = build_incidence(4, [2, 3])
    frac = from_right_uniform(h)
    colorings, tuples = [], []
    for w in mixed_bigraphons(rng, 30):
        tuples.append(BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, w.values.shape))
                                      for c in (1, 2)}))
        colorings.append({e: int(rng.integers(1, 3)) for e in h.graph.sorted_edges()})
    for t, coloring, ws in zip(colored_densities(h.graph, colorings, tuples), colorings, tuples):
        assert t == colored_density(ColoredBigraph(h.graph, coloring), ws)
    for t, ws in zip(fractional_densities(frac, tuples), tuples):
        assert t == fractional_density(frac, ws)


def test_sorted_chunks_give_every_trial_its_batch_of_one(monkeypatch):
    """Colored trials of sizes 1..7 beside sizes of 8 to 11, which share a
    chunk only with trials of exactly their sizes, and fractional trials,
    whose groups each hold one array, of several shapes between groups: in
    any order every value equals its batch of one, a chunk of several
    trials is padded to its own largest sizes, within _BATCH_CELLS and
    _SMALL_BUCKET cells of its largest bucket, and every padded cell of
    every factor and weight array reads exactly 0.0."""
    rng = np.random.default_rng(47)
    g = build_incidence(3, [2]).graph
    edges = tuple(g.sorted_edges())
    weights = dict.fromkeys(g.left, 1) | dict.fromkeys(g.right, 2)
    trials = []
    for w in mixed_bigraphons(rng, 90, most=7) + mixed_bigraphons(rng, 60, most=11):
        values = [w.values] + [rng.uniform(1e-3, 1.0, w.values.shape) for _ in range(2)]
        index = [int(i) for i in rng.integers(0, 3, size=len(edges))]
        trials.append(((values, (w.row_weights,), (w.col_weights,)), index))
    _, steps = DENSITY._plan(edges, tuple(sorted(weights)))
    chunks = []
    real = DENSITY._layout

    def spy(scopes, groups, weights, part, size):
        chunks.append((part, size))
        factors, vectors = real(scopes, groups, weights, part, size)
        for t, (arrays, _) in enumerate(part):
            own = {v: len(arrays[k][0]) for v, k in weights.items()}
            for vs, arr in factors + [((v,), vec) for v, vec in vectors.items()]:
                padded = arr[t].copy()
                padded[tuple(slice(own[v]) for v in vs)] = 0.0
                assert not padded.any()
        return factors, vectors
    monkeypatch.setattr(DENSITY, "_layout", spy)

    def engine(part):
        return DENSITY._eliminate_trials(edges, (0,) * len(edges), weights, part).tolist()
    single = [engine([t])[0] for t in trials]
    for order in (range(len(trials)), rng.permutation(len(trials)), range(len(trials))[::-1]):
        chunks.clear()
        assert engine([trials[t] for t in order]) == [single[t] for t in order]
        assert 1 < len(chunks) < len(trials)
        for part, size in chunks:
            own = [{v: len(arrays[k][0]) for v, k in weights.items()} for arrays, _ in part]
            assert size == {v: max(s[v] for s in own) for v in weights}
            assert max(size.values()) < DENSITY._EXACT_PAD or all(s == size for s in own)
            cells = max(math.prod(size[u] for u in step[2]) for step in steps)
            assert len(part) == 1 or len(part) * cells <= min(DENSITY._BATCH_CELLS,
                                                              DENSITY._SMALL_BUCKET)
    frac = from_right_uniform(build_incidence(4, [2, 3]))
    tuples = [BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, w.values.shape))
                              for c in (1, 2)}) for w in mixed_bigraphons(rng, 40, most=11)]
    singles = [fractional_density(frac, ws) for ws in tuples]
    order = rng.permutation(len(tuples))
    assert (fractional_densities(frac, [tuples[t] for t in order]).tolist()
            == [singles[t] for t in order])


def test_coloring_layouts_are_per_object_and_per_call():
    """One colored batch repeats a coloring object across trials beside
    fresh colorings, an equal-content copy of it among them, and later
    calls hand over fresh objects, each freed before the next call, which
    may reuse an earlier one's id: every trial keeps its batch-of-one
    value."""
    rng = np.random.default_rng(48)
    g = build_incidence(4, [2]).graph
    edges = g.sorted_edges()

    def fresh():
        return {e: int(rng.integers(1, 4)) for e in edges}
    shared = fresh()
    tuples = [BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, w.values.shape))
                              for c in (1, 2, 3)}) for w in mixed_bigraphons(rng, 40)]
    colorings = [(shared, dict(shared), fresh(), shared)[k % 4] for k in range(len(tuples))]
    for t, coloring, ws in zip(colored_densities(g, colorings, tuples), colorings, tuples):
        assert t == colored_density(ColoredBigraph(g, coloring), ws)
    for ws in tuples:
        colorings = [fresh()] * 2
        expected = colored_density(ColoredBigraph(g, colorings[0]), ws)
        assert colored_densities(g, colorings, [ws] * 2).tolist() == [expected] * 2


def count_batches(monkeypatch):
    """Count the engine's calls and the trials each one takes."""
    seen = []
    real = DENSITY._eliminate_all

    def spy(factors, weights, trials, repeats):
        seen.append(trials)
        return real(factors, weights, trials, repeats)
    monkeypatch.setattr(DENSITY, "_eliminate_all", spy)
    return seen


def test_colored_batch_shares_gathers_and_splits_sources(monkeypatch):
    """One batch of three kinds of trial: both colors reading one values
    array object, a constant coloring, and a random coloring, each kind at
    sizes 1..9, so positions in the values group differ between trials, a
    group with a size of 8 or more splits and size-1 axes stay."""
    rng = np.random.default_rng(45)
    g = cycle4()
    edges = g.sorted_edges()
    colorings, tuples = [], []
    for k, w in enumerate(mixed_bigraphons(rng, 60)):
        if k % 3 == 0:
            ws = BigraphonTuple({1: w, 2: w})
            coloring = {e: int(rng.integers(1, 3)) for e in edges}
        else:
            ws = BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, w.values.shape))
                                 for c in (1, 2, 3)})
            coloring = (dict.fromkeys(edges, int(rng.integers(1, 4))) if k % 3 == 1
                        else {e: int(rng.integers(1, 4)) for e in edges})
        colorings.append(coloring)
        tuples.append(ws)
    batches = count_batches(monkeypatch)
    batch = colored_densities(g, colorings, tuples)
    assert len(batches) > 1 and max(batches) > 1, batches
    checked = 0
    for t, coloring, ws in zip(batch, colorings, tuples):
        assert t == colored_density(ColoredBigraph(g, coloring), ws)
        read = {ws[c].values.tobytes() for c in coloring.values()}
        if len(read) == 1:  # every edge reads one values array
            assert t == pytest.approx(density_brute_force(g, ws[coloring[edges[0]]]),
                                      rel=1e-12)
            checked += 1
    assert checked >= 40


def test_weighted_batch_with_potentials_equals_single_ones():
    """A potential at every vertex, sizes 1..9, maps in two vertex orders:
    each value equals its batch of one and the literal weighted sum."""
    rng = np.random.default_rng(46)
    g = Bigraph(["a", "b"], ["c", "d"], [("a", "c"), ("a", "d"), ("b", "c")])
    singles = []
    for k, w in enumerate(mixed_bigraphons(rng, 40)):
        fs = {v: rng.uniform(0.1, 2.0, size=w.rows) for v in g.left}
        gs = {u: rng.uniform(0.1, 2.0, size=w.cols) for u in g.right}
        if k % 2:  # maps in another vertex order than the first
            fs, gs = dict(reversed(fs.items())), dict(reversed(gs.items()))
        singles.append((w, fs, gs))
    batch = DENSITY._weighted_densities(g, [w for w, _, _ in singles],
                                        [fs | gs for _, fs, gs in singles])
    for t, (w, fs, gs) in zip(batch, singles):
        assert t == weighted_density(g, w, fs, gs)
        assert t == pytest.approx(test_density.loop_weighted_oracle(g, w, fs, gs), rel=1e-12)


def test_chunks_bound_the_memory_of_a_run():
    g = build_incidence(5, [2, 4]).graph
    testers.test_sidorenko(g, trials=2, grid=4)  # plans and caches outside the trace
    tracemalloc.start()
    try:
        report = testers.test_sidorenko(g, trials=200, grid=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.trials == 200
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ---------------------------------------------------------------------------
# the compiled profile batch


def per_subset_log_densities(vertices, profiles, w):
    """The profile batch with one dual-star table per subset, in one block."""
    verts = tuple(sorted(vertices))
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    rows = w.rows
    subsets = sorted({tuple(sorted(s)) for prof in profiles for s in prof})
    tables = np.empty((len(subsets), rows ** n))
    for si, sub in enumerate(subsets):
        shape = [1] * n
        for v in sub:
            shape[pos[v]] = rows
        tables[si] = np.broadcast_to(np.log(dual_star_table(w, len(sub))).reshape(shape),
                                     (rows,) * n).reshape(-1)
    m = np.zeros((len(profiles), len(subsets)))
    for pi, prof in enumerate(profiles):
        for s, wgt in prof.items():
            m[pi, subsets.index(tuple(sorted(s)))] = wgt
    full = np.zeros((rows,) * n)
    for j in range(n):
        shape = [1] * n
        shape[j] = rows
        full = full + np.log(w.row_weights).reshape(shape)
    combined = m @ tables + full.reshape(-1)[None, :]
    peak = combined.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(combined - peak).sum(axis=1))


def test_compiled_profiles_equal_the_per_subset_batch():
    g = build_incidence(4, [2, 3]).graph
    profiles = [testers._own_profile(g)] + testers.induced_subgraph_profiles(g)
    compiled = compile_profiles(g.left, profiles)
    rng = np.random.default_rng(43)
    for w in mixed_bigraphons(rng, 6, most=4):
        logs = compiled(w)
        assert np.array_equal(logs, compile_profiles(g.left, profiles)(w))
        assert np.array_equal(logs, per_subset_log_densities(g.left, profiles, w))


# ---------------------------------------------------------------------------
# the repeat table: each distinct bucket and product prefix computed once


def unshared(monkeypatch):
    """Make every batch follow the table of no sharing."""
    monkeypatch.setattr(DENSITY, "_repeats", lambda *args: None)


def run_tester(monkeypatch, name, g, trials, grid, seed):
    """A tester's report, every trial's margin and the plain densities of
    its bigraphons."""
    drawn = []
    real = testers._run

    def spy(prop, sample, count, seed, tol):
        drawn.extend(sample(testers._trial_rng(seed, t)) for t in range(count))
        return real(prop, sample, count, seed, tol)
    prop = testers.PROPERTIES[name]
    with monkeypatch.context() as patched:
        patched.setattr(testers, "_run", spy)
        report = getattr(testers, prop.tester)(g, trials=trials, grid=grid, seed=seed)
    return (testers.report_to_json(report), prop.margins(drawn),
            densities(g, [instance[1] for instance in drawn]).tolist())


SHARING_CASES = [(name, label, trials, grid, seed)
                 for name in ("sidorenko", "strong-sidorenko")
                 for label in ("cycle4", "star(7)", "incidence(4,{2,3})", "incidence(5,{2,3})")
                 for grid in (4, 8) for seed in (0, 1) for trials in (24,)]
SHARING_CASES += [(name, "incidence(6,{2,3})", 2, 16, seed)
                  for name in ("sidorenko", "strong-sidorenko") for seed in (0, 1)]
SHARING_GRAPHS = {"cycle4": cycle4, "star(7)": lambda: star(7),
                  "incidence(4,{2,3})": lambda: build_incidence(4, (2, 3)).graph,
                  "incidence(5,{2,3})": lambda: build_incidence(5, (2, 3)).graph,
                  "incidence(6,{2,3})": lambda: build_incidence(6, (2, 3)).graph}


@pytest.mark.parametrize("name,label,trials,grid,seed", SHARING_CASES)
def test_shared_steps_give_the_unshared_floats(monkeypatch, name, label, trials, grid, seed):
    """Densities, margins and reports with the repeat table are bit for bit
    those of the table of no sharing, and the table was followed."""
    g = SHARING_GRAPHS[label]()
    tables = []
    real = DENSITY._repeats
    monkeypatch.setattr(DENSITY, "_repeats", lambda *args: tables.append(real(*args)) or tables[-1])
    shared = run_tester(monkeypatch, name, g, trials, grid, seed)
    assert any(same is not None or start is not None
               for table in tables for same, start, _ in table)
    unshared(monkeypatch)
    assert run_tester(monkeypatch, name, g, trials, grid, seed) == shared


def right_vertex_buckets(g):
    """The steps that a plain density of g computes, not reuses, among the
    right vertices it eliminates ahead of every left vertex."""
    variables = tuple(sorted(g.vertices()))
    edges = tuple(g.sorted_edges())
    table = DENSITY._repeats(edges, variables, (0,) * len(edges), (0,) * len(edges),
                             tuple(1 if v in g.left else 2 for v in variables))
    _, steps = DENSITY._plan(edges, variables)
    ahead = itertools.takewhile(lambda pair: pair[0][0] in g.right, zip(steps, table))
    return [step[0] for step, (same, _, _) in ahead if same is None]


def test_a_plain_density_computes_one_bucket_per_kind_of_right_vertex(monkeypatch):
    """incidence(n,{2,3}) computes one pair and one triple bucket; star(d)
    one leaf bucket, however many repeat it. Only the right vertices
    eliminated ahead of the left ones count: the min-degree order leaves
    the one triple of incidence(3,{2,3}) and one of incidence(4,{2,3})
    until later."""
    for n in range(4, 9):
        g = build_incidence(n, (2, 3)).graph
        assert len(right_vertex_buckets(g)) == 2, n
    for d in range(2, 9):  # star(1)'s one edge goes with its left vertex, first by name
        assert len(right_vertex_buckets(star(d))) == 1, d
    # and a density follows that table: with every step on the einsum
    # branch, each computed step looks its path up once
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", 0)
    g = build_incidence(5, (2, 3)).graph
    _, steps = DENSITY._plan(tuple(g.sorted_edges()), tuple(sorted(g.vertices())))
    before = DENSITY._einsum_path.cache_info()
    density(g, StepBigraphon.uniform(np.full((3, 3), 0.5)))
    after = DENSITY._einsum_path.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == len(steps) - (g.v2 - 2)


def test_strong_sidorenko_right_vertices_share_their_edge_products():
    """With a potential at every vertex, right vertices differ only in their
    own potential: every pair or triple after the first starts from the
    kept product of its edges."""
    g = build_incidence(5, (2, 3)).graph
    names = tuple(g.vertices())
    variables = tuple(sorted(names))
    scopes = tuple(g.sorted_edges()) + tuple((v,) for v in names)
    groups = (0,) * g.e + tuple(range(3, 3 + len(names)))
    table = DENSITY._repeats(scopes, variables, groups, (0,) * len(scopes),
                             tuple(1 if v in g.left else 2 for v in variables))
    _, steps = DENSITY._plan(scopes, variables)
    right = [(step, entry) for step, entry in zip(steps, table) if step[0] in g.right]
    assert all(same is None for _, (same, _, _) in right)
    starts = [start for _, (_, start, _) in right]
    assert starts.count(None) == 2
    assert sorted({start[1] for start in starts if start}) == [2, 3]


def test_per_trial_colorings_never_consult_the_table(monkeypatch):
    """A batch whose trials read different positions, per-trial colorings,
    never asks for the table, even in chunks of one; a batch that repeats one
    coloring object asks once."""
    asked = []
    real = DENSITY._repeats
    monkeypatch.setattr(DENSITY, "_repeats", lambda *args: asked.append(args) or real(*args))
    rng = np.random.default_rng(49)
    g = build_incidence(4, [2]).graph
    edges = g.sorted_edges()
    tuples = [BigraphonTuple({c: w.with_values(rng.uniform(1e-3, 1.0, w.values.shape))
                              for c in (1, 2, 3)})
              for w in mixed_bigraphons(rng, 30, most=11)]
    colorings = [{e: int(rng.integers(1, 4)) for e in edges} for _ in tuples]
    values = colored_densities(g, colorings, tuples).tolist()
    assert asked == []
    assert values == [colored_density(ColoredBigraph(g, c), ws)
                      for c, ws in zip(colorings, tuples)]
    assert len(asked) == len(tuples)  # each batch of one asks
    asked.clear()
    colored_densities(g, [colorings[0]] * len(tuples), tuples)
    assert len(asked) == 1
    asked.clear()
    testers.test_left_weak_holder(ColoredBigraph(g, colorings[0]), trials=30, seed=3)
    assert asked == []


def handmade(monkeypatch, scopes, groups, index, weights, arrays):
    """One trial of hand-made factors: the engine's value with its table,
    with the table of no sharing, and as one direct einsum sum."""
    letter = dict(zip(sorted(weights), "abcdefghijklmnopqrstuvwxyz"))
    operands = [arrays[g][i] for g, i in zip(groups, index)]
    operands += [arrays[weights[v]][0] for v in sorted(weights)]
    expr = ",".join("".join(letter[v] for v in vs) for vs in scopes)
    expr += "," + ",".join(letter[v] for v in sorted(weights)) + "->"
    direct = float(np.einsum(expr, *operands))
    trial = [(arrays, index)]
    shared = DENSITY._eliminate_trials(scopes, groups, weights, trial).tolist()
    with monkeypatch.context() as patched:
        unshared(patched)
        assert DENSITY._eliminate_trials(scopes, groups, weights, trial).tolist() == shared
    assert shared[0] == pytest.approx(direct, rel=1e-12)


def test_steps_with_other_weights_or_axis_patterns_are_not_shared(monkeypatch):
    """Two steps that read the same arrays are not shared when the summed
    variables are weighted by different groups, or when one reads them in
    another axis pattern (its output is the other's transpose)."""
    rng = np.random.default_rng(50)
    draw = lambda *shape: rng.uniform(0.1, 1.0, size=shape)
    # a and b sum out of F alone, under the weights of groups 1 and 2
    handmade(monkeypatch, (("a", "x"), ("b", "y"), ("x", "y")), (0, 0, 3), (0, 0, 0),
             {"a": 1, "b": 2, "x": 4, "y": 4},
             [(draw(3, 4),), (draw(3),), (draw(3),), (draw(4, 4),), (draw(4),)])
    # x and y sum out of F and G, read as (a, c) and as the transposed (d, b);
    # a factor on the other four makes x and y the first to go
    handmade(monkeypatch, (("a", "x"), ("x", "c"), ("d", "y"), ("y", "b"), ("a", "b", "c", "d")),
             (0, 1, 0, 1, 2), (0, 0, 0, 0, 0), dict.fromkeys("abcdxy", 3),
             [(draw(3, 3),), (draw(3, 3),), (draw(3, 3, 3, 3),), (draw(3),)])


def test_a_shared_prefix_never_crosses_branches(monkeypatch):
    """x and y multiply the same F * G prefix, but x's bucket holds p and
    y's q: with p large, x contracts on the einsum branch and keeps no
    prefix, so y must not wait for one."""
    rng = np.random.default_rng(51)
    draw = lambda *shape: rng.uniform(0.1, 1.0, size=shape)
    clique = [("a", "b"), ("a", "p"), ("a", "q"), ("b", "p"), ("b", "q"), ("p", "q")]
    scopes = (("a", "x"), ("a", "x"), ("x", "p"), ("b", "y"), ("b", "y"), ("y", "q"), *clique)
    weights = {"a": 1, "b": 1, "x": 2, "y": 2, "p": 3, "q": 4}
    sizes = dict.fromkeys("abxy", 3) | {"p": 9, "q": 2}
    arrays = [(draw(3, 3), draw(3, 3)), (draw(3),), (draw(3),), (draw(9),), (draw(2),),
              (draw(3, 9),), (draw(3, 2),)] + [(draw(sizes[u], sizes[v]),) for u, v in clique]
    monkeypatch.setattr(DENSITY, "_SMALL_BUCKET", 3 * 3 * 8)  # x's 81 cells go to einsum
    _, steps = DENSITY._plan(scopes, tuple(sorted(weights)))
    assert [step[0] for step in steps[:2]] == ["x", "y"]
    handmade(monkeypatch, scopes, (0, 0, 5, 0, 0, 6, *range(7, 13)),
             (0, 1, 0, 0, 1, 0) + (0,) * 6, weights, arrays)
