"""Randomized validators and falsifiers for the density inequalities.

Every tester samples step bigraphons (and weight functions or colorings as
needed) from per-trial PCG64 streams split off a master seed, checks its
inequality at a relative tolerance, and reports the worst margin seen. A
violated verdict embeds a witness payload that replays to the same margin.
Numeric verdicts validate or falsify; they never certify an inequality
universally, and reports say so.

Each inequality is one entry of PROPERTIES: its tester (the precondition
and per-trial sampler it hands to the one trial runner), its margin and its
witness fields, each with its format in the `schema` table. A margin is
written once, over a batch of a run's instances, which share their graph:
the runner draws every trial first and scores them all in one pass, and a
single margin, as witness replay computes it, is a batch of one. The
density engine gives each trial of a batch the floats of its batch of one
(see `density`), so the worst batched score is the replayed margin bit for
bit, and the report takes it as it stands. `replay_witness` checks a witness
against its entry's field formats, builds the instance and recomputes the
margin; `sidlab test` dispatches on the table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .bigraph import (
    Bigraph,
    ColoredBigraph,
    from_json_dict,
    to_json_dict,
)
from .bigraphon import (
    BigraphonTuple,
    SinkhornError,
    StepBigraphon,
    bigraphon_from_json,
    bigraphon_to_json,
    sinkhorn_biregularize,
)
from .density import _check_potentials, _graph_densities, colored_densities, densities
from .folds import Fold, check_fold, enumerate_folds, fold_from_json, fold_to_json
from .fractional import (
    ColoredFractionalBigraph,
    _own_profile,
    _profile_edge_count,
    batch_profile_log_densities,
    color_power,
    compile_profiles,
    fractional_densities,
    induced_subgraph_profiles,
    rainbow_star,
)
from .schema import FORMATS, Object, check

__all__ = [
    "TestReport",
    "NUMERIC_DISCLAIMER",
    "Property",
    "PROPERTIES",
    "test_sidorenko",
    "test_strong_sidorenko",
    "test_weak_domination",
    "test_induced_sidorenko",
    "test_weakly_norming",
    "test_left_weak_holder",
    "test_color_sidorenko",
    "test_inductive_jensen",
    "test_color_restriction",
    "test_color_restriction_trials",
    "test_cs_tree",
    "cs_tree_leaves",
    "verify_cs_inequality",
    "two_threshold",
    "endo_preimage",
    "induced_subgraph_profiles",
    "color_power",
    "rainbow_star",
    "replay_witness",
    "report_to_json",
    "fractional_to_json",
    "fractional_from_json",
]

NUMERIC_DISCLAIMER = ("numeric evidence only: trials can validate or falsify "
                      "an inequality, they do not certify it universally")

HOLDS = "holds-on-all-trials"
VIOLATED = "violated"

CS_TREE_DEPTH_CAP = 20


@dataclass(frozen=True)
class TestReport:
    property_name: str
    verdict: str
    trials: int
    worst_margin: float
    witness: Optional[dict]
    seed: int
    tol: float
    skipped: int = 0
    note: str = NUMERIC_DISCLAIMER

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def report_to_json(report: TestReport) -> dict:
    return asdict(report)


# ---------------------------------------------------------------------------
# the property table's shape and the trial runner


@dataclass(frozen=True)
class Property:
    """One inequality under test.

    tester names its public test function, which checks the input, defines
    the per-trial sampler and hands both to the runner. An instance is a
    tuple of margin arguments; margins scores a list of instances that share
    their graph, one float each. witness gives each argument's JSON key and
    its format in the `schema` table, and check names what a decoded
    instance lacks across its fields or raises ValueError with the reason,
    or returns None.
    cli_input is what `sidlab test` loads (plain, colored, fractional or
    none); cli_options are the options it passes to tester.
    """

    name: str
    cli: Optional[str]
    cli_input: Optional[str]
    cli_options: tuple[str, ...]
    tester: str
    margins: Callable[[Sequence[tuple]], list[float]]
    witness: tuple[tuple[str, str], ...]
    check: Callable[..., Optional[str]] = lambda *instance: None

    def margin(self, *instance) -> float:
        """The margin of one instance: margins on a batch of one."""
        return self.margins([instance])[0]

    def encode(self, instance: tuple) -> dict:
        return {key: _CODECS[fmt][0](value)
                for (key, fmt), value in zip(self.witness, instance)}

    def decode(self, payload: Mapping) -> tuple:
        Object(f"{self.name} witness",
               {key: FORMATS[fmt] for key, fmt in self.witness}).walk(payload)
        instance = tuple(_CODECS[fmt][1](payload[key])
                         for key, fmt in self.witness)
        problem = self.check(*instance)
        if problem is not None:
            raise ValueError(f"{self.name} witness {problem}")
        return instance


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(trial)])


def _report(name: str, margin: float, instance: tuple, trials: int, seed: int,
            tol: float, skipped: int = 0, **trial) -> TestReport:
    if margin < -tol:
        witness = {"property": name, **trial, "margin": margin,
                   **PROPERTIES[name].encode(instance)}
        return TestReport(name, VIOLATED, trials, margin, witness, seed, tol, skipped)
    return TestReport(name, HOLDS, trials, margin, None, seed, tol, skipped)


def _run(name: str, sample: Callable[[np.random.Generator], tuple], trials: int,
         seed: int, tol: float) -> TestReport:
    """The trial loop. sample draws a trial's instance from the trial's own
    stream; a sample that Sinkhorn cannot biregularize skips the trial.
    Every instance is drawn first and all are scored in one batched pass;
    the worst trial (the first on ties) is reported, and its witness is
    encoded only when it violates."""
    drawn = []
    skipped = 0
    for trial in range(trials):
        try:
            drawn.append((trial, sample(_trial_rng(seed, trial))))
        except SinkhornError:
            skipped += 1
    if not drawn:
        return TestReport(name, HOLDS, 0, 0.0, None, seed, tol, skipped)
    scores = PROPERTIES[name].margins([instance for _, instance in drawn])
    worst = min(range(len(scores)), key=scores.__getitem__)  # the first on ties
    trial, instance = drawn[worst]
    return _report(name, scores[worst], instance, len(drawn), seed, tol, skipped,
                   trial=trial)


def _single_report(name: str, instance: tuple, tol: float) -> TestReport:
    """Check one given instance; the report counts it as one trial."""
    return _report(name, PROPERTIES[name].margin(*instance), instance, 1, 0, tol)


def _precondition_report(name: str, reason: str, seed: int, tol: float) -> TestReport:
    witness = {"property": name, "precondition": reason}
    return TestReport(name, VIOLATED, 0, -1.0, witness, seed, tol,
                      note="precondition failed; " + NUMERIC_DISCLAIMER)


def _shared(instances: Sequence[tuple], count: int = 1) -> tuple:
    """The first `count` fields of a batch's instances, which every instance
    must hold as the same objects."""
    first = instances[0][:count]
    for instance in instances:
        if any(a is not b for a, b in zip(instance, first)):
            raise ValueError("a margin batch must share its graph")
    return first


def _each(margin: Callable[..., float]) -> Callable[[Sequence[tuple]], list[float]]:
    """A per-instance margin as a batch margin."""
    return lambda instances: [margin(*instance) for instance in instances]


def _log_ratio_margins(log_lhs: Iterable[float], log_rhs: Iterable[float]) -> list[float]:
    """expm1(log lhs - log rhs), pairwise."""
    return [math.expm1(a - b) for a, b in zip(log_lhs, log_rhs)]


def _colored_logs(g: Bigraph, trials: Sequence[Sequence[tuple]]) -> list[list[float]]:
    """log t(g, coloring; tuple) for each trial's (coloring, tuple) pairs;
    every pair of every trial goes through the engine in one batch."""
    pairs = [pair for trial in trials for pair in trial]
    logs = map(math.log, colored_densities(g, [c for c, _ in pairs],
                                           [ws for _, ws in pairs]))
    return [[next(logs) for _ in trial] for trial in trials]


# ---------------------------------------------------------------------------
# shared samplers and codecs


def _draw_values(rng: np.random.Generator, rows: int, cols: int, preset: str,
                 floor: float = 1e-3) -> np.ndarray:
    if preset == "adversarial" and rng.random() < 0.5:
        return np.where(rng.random((rows, cols)) < 0.5, floor, 1.0)
    return rng.uniform(floor, 1.0, size=(rows, cols))


def _sample_tuple(rng: np.random.Generator, grid: int, colors: Sequence[int],
                  preset: str = "uniform") -> BigraphonTuple:
    rows = int(rng.integers(1, grid + 1))
    cols = int(rng.integers(1, grid + 1))
    return BigraphonTuple({c: StepBigraphon.uniform(_draw_values(rng, rows, cols, preset))
                           for c in sorted(colors)})


def _sample_bigraphon(rng: np.random.Generator, grid: int, preset: str) -> StepBigraphon:
    # a one-color tuple, so both samplers draw in one order
    return _sample_tuple(rng, grid, (0,), preset)[0]


def _random_labels(rng: np.random.Generator, keys: Sequence,
                   most: int) -> tuple[int, dict]:
    """Draw n from 1..most, then a label in 1..n for every key."""
    n = int(rng.integers(1, most + 1))
    return n, {k: int(c) for k, c in zip(keys, rng.integers(1, n + 1, size=len(keys)))}


def _missing_vertex(key: str, mapping: Mapping, vertices: Iterable[str]) -> Optional[str]:
    return next((f"{key!r} lacks vertex {v!r}" for v in vertices if v not in mapping),
                None)


def _plain_graph(d: Mapping) -> Bigraph:
    """A witness's plain graph; edge colors are ignored, as `sidlab test` does."""
    g = from_json_dict(d)
    return g.graph if isinstance(g, ColoredBigraph) else g


def _profile(pairs: Sequence) -> dict[frozenset, float]:
    # the walker refuses a subset listed twice; this, one in two vertex orders
    profile = {frozenset(s): c for s, c in pairs}
    if len(profile) != len(pairs):
        raise ValueError("profile names a subset twice")
    return profile


# Each witness field format's (to JSON, from JSON) pair. The second half runs
# once `schema.check` has held the field to its format, so it only builds.
# Functions are looked up at call time, as testers are by name, so wrappers
# installed on the module functions (the benchmark's tracer) see every call.
_CODECS = {
    "bigraph": (lambda g: to_json_dict(g), _plain_graph),
    "colored bigraph": (lambda h: to_json_dict(h), lambda d: from_json_dict(d)),
    "step bigraphon": (lambda w: bigraphon_to_json(w), lambda d: bigraphon_from_json(d)),
    "bigraphon tuple": (lambda ws: {str(c): bigraphon_to_json(w) for c, w in ws.parts},
                        lambda d: BigraphonTuple({int(c): bigraphon_from_json(w)
                                                  for c, w in d.items()})),
    "fractional bigraph": (lambda h: fractional_to_json(h), lambda d: fractional_from_json(d)),
    "fold list": (lambda folds: [fold_to_json(f) for f in folds],
                  lambda d: [fold_from_json(f) for f in d]),
    "coloring": (lambda coloring: [[list(e), c] for e, c in sorted(coloring.items())],
                 lambda d: {tuple(e): c for e, c in d}),
    "profile": (lambda profile: [[sorted(s), c] for s, c in sorted(
                    profile.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))], _profile),
    "label map": (lambda labels: dict(sorted(labels.items())), dict),
    "vector map": (lambda vecs: {v: list(vec) for v, vec in sorted(vecs.items())},
                   lambda d: {v: np.asarray(vec, dtype=float) for v, vec in d.items()}),
    "vector list": (lambda vecs: [list(vec) for vec in vecs],
                    lambda d: [np.asarray(vec) for vec in d]),
    "vector": (list, np.asarray),
    "number list": (list, list),
    "color list": (list, list),
}


# ---------------------------------------------------------------------------
# plain and strong Sidorenko


def _sidorenko_margins(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    ws = [w for _, w in instances]
    return [math.expm1(math.log(t) - g.e * math.log(w.edge_density()))
            for t, w in zip(densities(g, ws), ws)]


def test_sidorenko(g: Bigraph, trials: int = 200, grid: int = 4, seed: int = 0,
                   tol: float = 1e-9, preset: str = "uniform") -> TestReport:
    """Check t(G, W) >= t(rho, W)^{e(G)} on random step bigraphons."""
    return _run("sidorenko", lambda rng: (g, _sample_bigraphon(rng, grid, preset)),
                trials, seed, tol)


def _strong_sidorenko_margins(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    e = g.e
    lhs = _graph_densities(g, [([w.values] * e, w.row_weights, w.col_weights, fs | gs)
                               for _, w, fs, gs in instances])
    out = []
    for t, (_, w, fs, gs) in zip(lhs, instances):
        f_prod = np.ones(w.rows)
        for v in sorted(fs):
            f_prod = f_prod * fs[v] ** (1.0 / e)
        g_prod = np.ones(w.cols)
        for u in sorted(gs):
            g_prod = g_prod * gs[u] ** (1.0 / e)
        base = float((w.row_weights * f_prod) @ w.values @ (w.col_weights * g_prod))
        out.append(math.expm1(math.log(t) - e * math.log(base)))
    return out


def _require_an_edge(g: Bigraph) -> None:
    if g.e == 0:
        raise ValueError("strong Sidorenko needs at least one edge")


def _strong_sidorenko_check(g: Bigraph, w: StepBigraphon, fs: Mapping, gs: Mapping):
    """Name a vertex the weight maps lack, or raise ValueError for an
    edgeless graph or a weight function of the wrong shape or sign."""
    _require_an_edge(g)
    problem = _missing_vertex("f", fs, g.left) or _missing_vertex("g", gs, g.right)
    if problem is None:
        _check_potentials(g, w, fs, gs)
    return problem


def test_strong_sidorenko(g: Bigraph, trials: int = 200, grid: int = 4,
                          seed: int = 0, tol: float = 1e-9,
                          preset: str = "uniform") -> TestReport:
    """Check the per-vertex weighted form: t(G;f,g;W) against the single-edge
    density of the (1/e)-power products."""
    _require_an_edge(g)

    def sample(rng):
        w = _sample_bigraphon(rng, grid, preset)
        fs = {v: rng.uniform(1e-3, 1.0, size=w.rows) for v in g.left}
        gs = {u: rng.uniform(1e-3, 1.0, size=w.cols) for u in g.right}
        return g, w, fs, gs
    return _run("strong-sidorenko", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# weak domination and induced-Sidorenko


def _normalized_log_densities(g: Bigraph, ws: Sequence[StepBigraphon]) -> list[float]:
    return [math.log(t) - g.e * math.log(w.edge_density())
            for t, w in zip(densities(g, ws), ws)]


def _weak_domination_margins(instances: Sequence[tuple]) -> list[float]:
    g, h = _shared(instances, 2)
    ws = [w for _, _, w in instances]
    return _log_ratio_margins(_normalized_log_densities(g, ws),
                              _normalized_log_densities(h, ws))


def test_weak_domination(g: Bigraph, h: Bigraph, trials: int = 200, grid: int = 4,
                         seed: int = 0, tol: float = 1e-9,
                         preset: str = "uniform") -> TestReport:
    """Check t(g,W)/t(rho,W)^{e(g)} >= t(h,W)/t(rho,W)^{e(h)} on
    Sinkhorn-biregularized positive samples; Sinkhorn failures skip the trial."""
    def sample(rng):
        return g, h, sinkhorn_biregularize(_sample_bigraphon(rng, grid, preset))
    return _run("weak-domination", sample, trials, seed, tol)


def _induced_margin(g: Bigraph, w: StepBigraphon,
                    profile: Mapping[frozenset, int]) -> float:
    # the two-row batch shape is the same in the tester and in replay, so a
    # shipped witness reproduces the margin bit for bit
    logs = batch_profile_log_densities(g.left, [_own_profile(g), profile], w)
    log_rho = math.log(w.edge_density())
    return math.expm1((logs[0] - g.e * log_rho)
                      - (logs[1] - _profile_edge_count(profile) * log_rho))


def test_induced_sidorenko(g: Bigraph, trials: int = 200, grid: int = 4,
                           seed: int = 0, tol: float = 1e-9,
                           preset: str = "uniform") -> TestReport:
    """Weak domination of every induced subgraph class, batched per trial."""
    profiles = induced_subgraph_profiles(g)
    own = _own_profile(g)
    assert _profile_edge_count(own) == g.e
    batch = compile_profiles(g.left, [own] + profiles)
    e_counts = np.array([_profile_edge_count(p) for p in profiles])

    def sample(rng):
        # every class is scored in one batch; the trial's instance is the worst
        w = sinkhorn_biregularize(_sample_bigraphon(rng, grid, preset))
        logs = batch(w)
        log_rho = math.log(w.edge_density())
        base = logs[0] - g.e * log_rho
        worst = int(np.argmin(base - (logs[1:] - e_counts * log_rho)))
        return g, w, profiles[worst]
    return _run("induced-sidorenko", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# weakly norming and left-weakly Hoelder


def _weakly_norming_margins(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    edges = g.sorted_edges()
    counts = [sorted(Counter(coloring.values()).items()) for _, coloring, _ in instances]
    # the coloring itself, then the constant coloring of each color it uses
    logs = _colored_logs(g, [[(coloring, ws)] + [(dict.fromkeys(edges, c), ws) for c, _ in cs]
                             for (_, coloring, ws), cs in zip(instances, counts)])
    return _log_ratio_margins(
        (sum(cnt * log for (_, cnt), log in zip(cs, rest)) / g.e
         for cs, (_, *rest) in zip(counts, logs)),
        (log_lhs for log_lhs, *_ in logs))


def _coloring_check(g: Bigraph, coloring: Mapping[tuple, int], *_) -> None:
    ColoredBigraph(g, coloring)  # raises ValueError unless it colors exactly g's edges


def test_weakly_norming(g: Bigraph, trials: int = 200, grid: int = 4,
                        seed: int = 0, tol: float = 1e-9,
                        preset: str = "uniform") -> TestReport:
    """Hoelder-type bound over random edge colorings and tuples.

    The structural necessary condition (biregular once isolated vertices
    are removed) is applied first and fails fast.
    """
    core = g.without_vertices(g.isolated_vertices())
    if not core.is_biregular():
        return _precondition_report(
            "weakly-norming", "not biregular after removing isolated vertices", seed, tol)
    edges = g.sorted_edges()

    def sample(rng):
        _, coloring = _random_labels(rng, edges, min(3, g.e))
        return g, coloring, _sample_tuple(rng, grid, sorted(set(coloring.values())),
                                          preset)
    # an edgeless graph satisfies the bound vacuously; it runs no trials
    return _run("weakly-norming", sample, trials if g.e else 0, seed, tol)


def _pair_color(t: int, base_color: int, offset: int) -> int:
    return t * offset + base_color


def _left_weak_holder_margins(instances: Sequence[tuple]) -> list[float]:
    h, = _shared(instances)
    g = h.graph
    offset = max(h.color_set()) + 1
    colors = h.colors

    def paired(label):
        return {e: _pair_color(label(e[0]), c, offset) for e, c in colors.items()}
    # the product coloring, then the left-constant one of each label used
    labels = [list(dict.fromkeys(ell[v] for v in g.left)) for _, ell, _ in instances]
    logs = _colored_logs(g, [[(paired(ell.get), ws)]
                             + [(paired(lambda _: t), ws) for t in ts]
                             for (_, ell, ws), ts in zip(instances, labels)])
    log_rhs = []
    for (_, ell, _), ts, (_, *rest) in zip(instances, labels, logs):
        per_label = dict(zip(ts, rest))
        total = 0.0
        for v in g.left:
            total += per_label[ell[v]] / g.v1
        log_rhs.append(total)
    return _log_ratio_margins(log_rhs, (log_lhs for log_lhs, *_ in logs))


def test_left_weak_holder(h: ColoredBigraph, trials: int = 200, grid: int = 4,
                          seed: int = 0, tol: float = 1e-9,
                          preset: str = "uniform") -> TestReport:
    """Left-coloring Hoelder bound: the product coloring against the
    geometric mean of its left-constant versions.

    Left-color-regularity is a necessary condition and is prechecked.
    """
    if not h.is_left_color_regular():
        return _precondition_report("left-weak-holder", "not left-color-regular",
                                    seed, tol)
    g = h.graph

    def sample(rng):
        n_colors, ell = _random_labels(rng, g.left, 3)
        offset = max(h.color_set()) + 1
        pair_colors = sorted({_pair_color(t, c, offset)
                              for t in range(1, n_colors + 1)
                              for c in h.color_set()})
        return h, ell, _sample_tuple(rng, grid, pair_colors, preset)
    # without left vertices or edges the bound holds vacuously; no trials run
    return _run("left-weak-holder", sample, trials if g.v1 and g.e else 0, seed, tol)


# ---------------------------------------------------------------------------
# color-Sidorenko


def _color_sidorenko_margins(instances: Sequence[tuple]) -> list[float]:
    h, = _shared(instances)
    tuples = [ws for _, ws in instances]
    e = h.total_edge_mass()
    return [math.expm1(math.log(lhs) - e * math.log(star))
            for lhs, star in zip(fractional_densities(h, tuples),
                                 fractional_densities(rainbow_star(h), tuples))]


def test_color_sidorenko(h: ColoredFractionalBigraph, trials: int = 200,
                         grid: int = 4, seed: int = 0, tol: float = 1e-9,
                         preset: str = "uniform") -> TestReport:
    """Check t(h, W) >= t(rho_h, W)^{e(h)} over random tuples."""
    if h.total_edge_mass() <= 0:
        raise ValueError("color-Sidorenko needs e(h) > 0")
    return _run("color-sidorenko",
                lambda rng: (h, _sample_tuple(rng, grid, h.colors, preset)),
                trials, seed, tol)


# ---------------------------------------------------------------------------
# Cauchy-Schwarz trees


def _cs_check(g: Bigraph, coloring: Mapping[tuple, int], folds: Sequence[Fold],
              *_) -> None:
    """Raise ValueError unless the sequence is at most CS_TREE_DEPTH_CAP folds
    of g and coloring colors exactly its edges; test_cs_tree's trials skip it."""
    if len(folds) > CS_TREE_DEPTH_CAP:
        raise ValueError(f"fold sequences capped at depth {CS_TREE_DEPTH_CAP}")
    for fold in folds:
        check_fold(g, fold)
    if set(coloring) != g.edges:
        raise ValueError("coloring must cover exactly the edge set")


def cs_tree_leaves(g: Bigraph, coloring: Mapping[tuple, int],
                   folds: Sequence[Fold]) -> list[dict[tuple, int]]:
    """Leaf colorings (with multiplicity, leftmost first) of the binary
    tree generated by composing left/right folding maps."""
    _cs_check(g, coloring, folds)
    return _leaves(g, coloring, folds)


def _leaves(g: Bigraph, coloring: Mapping[tuple, int],
            folds: Sequence[Fold]) -> list[dict[tuple, int]]:
    m = len(folds)
    maps = [(f.left_map(), f.right_map()) for f in folds]
    leaves = []
    for bits in itertools.product((0, 1), repeat=m):
        comp = {v: v for v in g.vertex_set()}
        for i in reversed(range(m)):
            step = maps[i][bits[i]]
            comp = {v: step[comp[v]] for v in comp}
        leaves.append({e: coloring[(comp[e[0]], comp[e[1]])] for e in g.edges})
    return leaves


def _cs_margins(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    # the coloring, then each distinct leaf coloring with its count
    counts = []
    for _, coloring, folds, _ in instances:
        leaves = _leaves(g, coloring, folds)
        counts.append((len(leaves), sorted(
            Counter(tuple(sorted(leaf.items())) for leaf in leaves).items())))
    logs = _colored_logs(g, [[(coloring, ws)] + [(dict(leaf), ws) for leaf, _ in cs]
                             for (_, coloring, _, ws), (_, cs) in zip(instances, counts)])
    log_rhs = []
    for (n, cs), (_, *rest) in zip(counts, logs):
        total = 0.0
        for (_, cnt), log in zip(cs, rest):
            total += cnt * log
        log_rhs.append(total / n)
    return _log_ratio_margins(log_rhs, (log_lhs for log_lhs, *_ in logs))


def verify_cs_inequality(g: Bigraph, coloring: Mapping[tuple, int],
                         folds: Sequence[Fold], ws: BigraphonTuple,
                         tol: float = 1e-9) -> TestReport:
    """Single-instance check of the geometric-mean bound over the leaf colorings."""
    _cs_check(g, coloring, folds)
    return _single_report("cs-tree", (g, coloring, folds, ws), tol)


def test_cs_tree(g: Bigraph, trials: int = 200, grid: int = 4, seed: int = 0,
                 tol: float = 1e-9, fold_pool: Optional[Sequence[Fold]] = None,
                 max_depth: int = 3, preset: str = "uniform") -> TestReport:
    """Random (coloring, fold sequence, tuple) instances of the leaf bound.
    A supplied fold pool is checked once, here; the trials check no fold."""
    if max_depth > CS_TREE_DEPTH_CAP:
        raise ValueError(f"fold sequences capped at depth {CS_TREE_DEPTH_CAP}")
    if fold_pool is None:
        pool = enumerate_folds(g)
    else:
        pool = list(fold_pool)
        for fold in pool:
            check_fold(g, fold)
    edges = g.sorted_edges()

    def sample(rng):
        _, coloring = _random_labels(rng, edges, 3)
        depth = int(rng.integers(0, max_depth + 1)) if pool else 0
        folds = [pool[int(i)] for i in rng.integers(0, len(pool), size=depth)] \
            if pool else []
        ws = _sample_tuple(rng, grid, sorted(set(coloring.values())), preset)
        return g, coloring, folds, ws
    return _run("cs-tree", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# 2-threshold subgraphs


def two_threshold(g: Bigraph, f: Mapping[str, int]) -> Bigraph:
    """Spanning subgraph keeping edges with f(v) + f(w) >= 2, f in {0,1,2}."""
    if set(f) != g.vertex_set():
        raise ValueError("f must be defined on exactly V(G)")
    if any(val not in (0, 1, 2) for val in f.values()):
        raise ValueError("f values must lie in {0, 1, 2}")
    return g.spanning_subgraph(e for e in g.edges if f[e[0]] + f[e[1]] >= 2)


def endo_preimage(g: Bigraph, sub: Bigraph, phi: Mapping[str, str]) -> Bigraph:
    """Spanning subgraph with the edges whose phi-image lies in sub."""
    if not sub.is_spanning_subgraph_of(g):
        raise ValueError("sub must be a spanning subgraph of g")
    if not g.is_endomorphism(phi):
        raise ValueError("phi must be an endomorphism of g")
    return g.spanning_subgraph(
        e for e in g.edges if (phi[e[0]], phi[e[1]]) in sub.edges)


# ---------------------------------------------------------------------------
# inductive Jensen bound


def _jensen_margin(weights: np.ndarray, gvec: np.ndarray,
                   fvecs: Sequence[np.ndarray], ps: Sequence[float]) -> float:
    n = len(fvecs)
    lhs = weights * gvec
    for f, p in zip(fvecs, ps):
        lhs = lhs * np.asarray(f) ** p
    lhs_val = float(lhs.sum())
    p1 = ps[0] if n else 1.0
    prod_all = weights * gvec
    for f in fvecs:
        prod_all = prod_all * np.asarray(f)
    log_rhs = p1 * math.log(float(prod_all.sum()))
    ps_ext = list(ps) + [1.0]
    for i in range(n):
        tail = weights * gvec
        for f in fvecs[i + 1:]:
            tail = tail * np.asarray(f)
        log_rhs -= (ps_ext[i] - ps_ext[i + 1]) * math.log(float(tail.sum()))
    return math.expm1(math.log(lhs_val) - log_rhs)


def _jensen_shape(weights: np.ndarray, gvec: np.ndarray,
                  fvecs: Sequence[np.ndarray], ps: Sequence[float]) -> Optional[str]:
    if any(len(vec) != len(weights) for vec in [gvec, *fvecs]):
        return "'g' and 'fs' must match the length of 'weights'"
    if len(ps) != len(fvecs):
        return "'ps' must hold one exponent per vector of 'fs'"
    return None


def test_inductive_jensen(n: int, trials: int = 200, seed: int = 0,
                          tol: float = 1e-9) -> TestReport:
    """Moment form of Jensen's bound with exponents p_1 >= ... >= p_n >= 1,
    random positive step functions over a random finite probability space."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def sample(rng):
        size = int(rng.integers(2, 7))
        weights = rng.dirichlet(np.ones(size))
        gvec = rng.uniform(1e-3, 1.0, size=size)
        fvecs = [rng.uniform(1e-3, 1.0, size=size) for _ in range(n)]
        ps = sorted((1.0 + float(x) for x in rng.uniform(0.0, 3.0, size=n)),
                    reverse=True)
        return weights, gvec, fvecs, ps
    return _run("jensen", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# color restriction


def _color_restriction_margins(instances: Sequence[tuple]) -> list[float]:
    h, keep = _shared(instances, 2)
    tuples = [ws for *_, ws in instances]
    kept = h.restrict_colors(keep)
    lhs = colored_densities(kept.graph, [kept.colors] * len(tuples), tuples)
    dropped = [(c, h.edge_count(c)) for c in sorted(set(h.color_set()) - set(keep))]
    log_rhs = []
    for t, ws in zip(colored_densities(h.graph, [h.colors] * len(tuples), tuples), tuples):
        total = math.log(t)
        for c, count in dropped:
            total -= count * math.log(ws[c].edge_density())
        log_rhs.append(total)
    return _log_ratio_margins(log_rhs, map(math.log, lhs))


def _kept_colors(h: ColoredBigraph, colors: Iterable[int]) -> list[int]:
    keep = sorted(set(int(c) for c in colors))
    if not set(keep) <= set(h.color_set()):
        raise ValueError("colors must be a subset of the coloring's colors")
    if not h.is_right_uniform():
        raise ValueError("colored bigraph must be right-uniform")
    return keep


def _color_restriction_check(h: ColoredBigraph, keep: Iterable[int],
                             ws: BigraphonTuple) -> None:
    """Raise ValueError unless keep is a subset of h's colors and every
    dropped color's bigraphon is in ws, positive and left-regular."""
    for c in sorted(set(h.color_set()) - set(_kept_colors(h, keep))):
        if c not in ws:
            raise ValueError(f"tuple missing bigraphon for color {c}")
        if np.any(ws[c].values <= 0):
            raise ValueError(f"bigraphon for dropped color {c} must be positive")
        if not ws[c].is_left_regular(tol=1e-8):
            raise ValueError(f"bigraphon for dropped color {c} must be left-regular")


def test_color_restriction(h: ColoredBigraph, colors: Iterable[int],
                           ws: BigraphonTuple, tol: float = 1e-9) -> TestReport:
    """Single-instance check of the color-restriction quotient bound.

    Every dropped color's bigraphon must be left-regular and positive;
    violations of that precondition raise.
    """
    _color_restriction_check(h, colors, ws)
    return _single_report("color-restriction", (h, _kept_colors(h, colors), ws), tol)


def test_color_restriction_trials(h: ColoredBigraph, colors: Iterable[int],
                                  trials: int = 200, grid: int = 4, seed: int = 0,
                                  tol: float = 1e-9) -> TestReport:
    """Sampled color-restriction checks; dropped colors are left-regularized
    by dividing each row by its marginal before the single-instance check."""
    keep = _kept_colors(h, colors)
    dropped = sorted(set(h.color_set()) - set(keep))

    def sample(rng):
        parts = _sample_tuple(rng, grid, h.color_set()).as_dict()
        for c in dropped:
            w = parts[c]
            parts[c] = w.with_values(w.values / w.row_marginals()[:, None])
        return h, keep, BigraphonTuple(parts)
    return _run("color-restriction", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# fractional JSON, the property table and witness replay


def fractional_to_json(h: ColoredFractionalBigraph) -> dict:
    return {"vertices": list(h.vertices), "colors": list(h.colors),
            "weights": [[list(sub), c, wgt] for sub, c, wgt in h.weights]}


def fractional_from_json(d: Mapping) -> ColoredFractionalBigraph:
    """Decode the "fractional bigraph" format of `schema`."""
    check("fractional bigraph", d)
    return ColoredFractionalBigraph(d["vertices"], d["colors"], {
        (tuple(sub), c): wgt for sub, c, wgt in d["weights"]})


_GRID_PRESET = ("grid", "preset")

PROPERTIES: dict[str, Property] = {p.name: p for p in (
    Property("sidorenko", "sidorenko", "plain", _GRID_PRESET, "test_sidorenko",
             _sidorenko_margins, (("graph", "bigraph"), ("bigraphon", "step bigraphon"))),
    Property("strong-sidorenko", "strong-sidorenko", "plain", _GRID_PRESET,
             "test_strong_sidorenko", _strong_sidorenko_margins,
             (("graph", "bigraph"), ("bigraphon", "step bigraphon"), ("f", "vector map"),
              ("g", "vector map")), _strong_sidorenko_check),
    # two graphs, and the CLI has no way to name the second one
    Property("weak-domination", None, None, (), "test_weak_domination",
             _weak_domination_margins,
             (("graph", "bigraph"), ("other", "bigraph"), ("bigraphon", "step bigraphon"))),
    Property("induced-sidorenko", "induced-sidorenko", "plain", _GRID_PRESET,
             "test_induced_sidorenko", _each(_induced_margin),
             (("graph", "bigraph"), ("bigraphon", "step bigraphon"), ("profile", "profile")),
             lambda g, w, profile: next((f"'profile' names {v!r}, not a left vertex"
                                         for s in profile for v in sorted(s)
                                         if v not in g.left), None)),
    Property("weakly-norming", "weak-norming", "plain", _GRID_PRESET,
             "test_weakly_norming", _weakly_norming_margins,
             (("graph", "bigraph"), ("coloring", "coloring"), ("tuple", "bigraphon tuple")),
             _coloring_check),
    Property("left-weak-holder", "left-weak-holder", "colored", _GRID_PRESET,
             "test_left_weak_holder", _left_weak_holder_margins,
             (("colored", "colored bigraph"), ("ell", "label map"),
              ("tuple", "bigraphon tuple")),
             lambda h, ell, ws: _missing_vertex("ell", ell, h.graph.left)),
    Property("color-sidorenko", "color-sidorenko", "fractional", _GRID_PRESET,
             "test_color_sidorenko", _color_sidorenko_margins,
             (("fractional", "fractional bigraph"), ("tuple", "bigraphon tuple"))),
    Property("cs-tree", "cs-tree", "plain", _GRID_PRESET, "test_cs_tree", _cs_margins,
             (("graph", "bigraph"), ("coloring", "coloring"), ("folds", "fold list"),
              ("tuple", "bigraphon tuple")), _cs_check),
    Property("jensen", "jensen", "none", ("n",), "test_inductive_jensen",
             _each(_jensen_margin),
             (("weights", "vector"), ("g", "vector"), ("fs", "vector list"),
              ("ps", "number list")), _jensen_shape),
    Property("color-restriction", "color-restriction", "colored", ("grid", "colors"),
             "test_color_restriction_trials", _color_restriction_margins,
             (("colored", "colored bigraph"), ("keep_colors", "color list"),
              ("tuple", "bigraphon tuple")),
             _color_restriction_check),
)}


def replay_witness(witness: Mapping) -> float:
    """Recompute the margin of a violation witness from its payload."""
    check("witness", witness)
    prop = PROPERTIES.get(witness["property"])
    if prop is None:
        raise ValueError(f"unknown witness property {witness['property']!r}")
    if "precondition" in witness:
        raise ValueError("precondition witnesses carry no margin")
    return prop.margin(*prop.decode(witness))
