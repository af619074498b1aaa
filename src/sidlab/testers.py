"""Randomized validators and falsifiers for the density inequalities.

Every tester samples step bigraphons (and weight functions or colorings as
needed) from per-trial PCG64 streams split off a master seed, checks its
inequality at a relative tolerance, and reports the worst margin seen. A
violated verdict embeds a witness payload that replays to the same margin.
Numeric verdicts validate or falsify; they never certify an inequality
universally, and reports say so.

Each inequality is one entry of PROPERTIES: its tester (the precondition
and per-trial sampler it hands to the one trial runner), its gap (log lhs
minus log rhs; the margin is its expm1) and its witness fields, each with
its format in the `schema` table. A gap is written once, over a batch of a
run's instances, which share their graph: the runner draws every trial
first and scores them all in one pass, and witness replay scores a batch
of one. The density engine gives each trial of a batch the floats of its
batch of one (see `density`), so the worst batched score is the replayed
margin bit for bit, and the report takes it as it stands. `replay_witness`
checks a witness against its entry's field formats, builds the instance
and recomputes the margin; `sidlab test` dispatches on the table.
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
    GraphTooLargeError,
    _plain,
    from_json_dict,
    to_json_dict,
)
from .bigraphon import (
    BigraphonTuple,
    SinkhornError,
    StepBigraphon,
    _trusted,
    bigraphon_from_json,
    bigraphon_to_json,
    sinkhorn_biregularize,
)
from .density import _check_potentials, _weighted_densities, colored_densities, densities
from .folds import Fold, _fold, _fold_pool, check_fold, fold_from_json, fold_to_json
from .fractional import (
    ColoredFractionalBigraph,
    _own_profile,
    _profile_edge_count,
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
_FLOOR = 1e-3  # the least value any sampler draws: step values, weights, vectors
_SCREEN_CELLS = 4 ** 4  # see _induced_worst


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
    tuple of margin arguments; gaps scores a list of instances that share
    their graph, one float each: log lhs - log rhs, whose expm1 is the
    margin. witness gives each argument's JSON key and its format in the
    `schema` table, and check names what a decoded instance lacks across
    its fields or raises ValueError with the reason, or returns None.
    cli_input is what `sidlab test` loads (plain, colored, fractional or
    none); cli_options are the options it passes to tester.
    """

    name: str
    cli: Optional[str]
    cli_input: Optional[str]
    cli_options: tuple[str, ...]
    tester: str
    gaps: Callable[[Sequence[tuple]], list[float]]
    witness: tuple[tuple[str, str], ...]
    check: Callable[..., Optional[str]] = lambda *instance: None

    def margins(self, instances: Sequence[tuple]) -> list[float]:
        return [math.expm1(gap) for gap in self.gaps(instances)]

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


def _each(gap: Callable[..., float]) -> Callable[[Sequence[tuple]], list[float]]:
    """A per-instance gap as a batch of gaps."""
    return lambda instances: [gap(*instance) for instance in instances]


def _mean_bound_gaps(g: Bigraph, instances: Sequence[tuple]) -> list[float]:
    """The count-weighted mean of log t(g, c; ws) over the (c, count) pairs,
    less log t(g, coloring; ws), for each (coloring, pairs, ws); the mean
    adds count * log left to right from 0.0 and divides by the count total.
    Every coloring of every instance goes through the engine in one batch."""
    colorings = [c for coloring, pairs, _ in instances
                 for c in [coloring, *(other for other, _ in pairs)]]
    tuples = [ws for _, pairs, ws in instances for _ in range(1 + len(pairs))]
    logs = map(math.log, colored_densities(g, colorings, tuples))
    gaps = []
    for _, pairs, _ in instances:
        log_lhs = next(logs)
        total = 0.0
        for _, count in pairs:
            total += count * next(logs)
        gaps.append(total / sum(count for _, count in pairs) - log_lhs)
    return gaps


# ---------------------------------------------------------------------------
# shared samplers and codecs


def _draw_values(rng: np.random.Generator, count: int, rows: int, cols: int,
                 preset: str) -> Sequence[np.ndarray]:
    """count value matrices in [_FLOOR, 1]: uniform ones in one draw, which
    reads the stream as one draw per matrix; adversarial ones each after a
    coin flip, as a _FLOOR/1 mask or uniform values."""
    if preset != "adversarial":
        return rng.uniform(_FLOOR, 1.0, size=(count, rows, cols))
    return [np.where(rng.random((rows, cols)) < 0.5, _FLOOR, 1.0) if rng.random() < 0.5
            else rng.uniform(_FLOOR, 1.0, size=(rows, cols)) for _ in range(count)]


def _sample_tuple(rng: np.random.Generator, grid: int, colors: Sequence[int],
                  preset: str = "uniform") -> BigraphonTuple:
    rows = int(rng.integers(1, grid + 1))
    cols = int(rng.integers(1, grid + 1))
    # fresh draws in [_FLOOR, 1] over the shared uniform weights
    parts = _draw_values(rng, len(colors), rows, cols, preset)
    return BigraphonTuple({c: _trusted(values) for c, values in zip(sorted(colors), parts)})


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


def _profile(pairs: Sequence) -> dict[frozenset, float]:
    # the walker refuses a subset listed twice; this, one in two vertex orders
    profile = {frozenset(s): c for s, c in pairs}
    if len(profile) != len(pairs):
        raise ValueError("profile names a subset twice")
    empty = next((i for i, (s, _) in enumerate(pairs) if not s), None)
    if empty is not None:
        raise ValueError(f"profile entry {empty} names an empty subset")
    return profile


# Each witness field format's (to JSON, from JSON) pair. The second half runs
# once `schema.check` has held the field to its format. The bigraph, colored
# bigraph, step bigraphon, bigraphon tuple, fractional bigraph and fold list
# halves call public decoders, which check it again; only replay pays for that.
# Functions are looked up at call time, as testers are by name, so wrappers
# installed on the module functions (the benchmark's tracer) see every call.
_CODECS = {
    # a witness's plain graph; edge colors are ignored, as `sidlab test` does
    "bigraph": (lambda g: to_json_dict(g), lambda d: _plain(from_json_dict(d))),
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


def _normalized_log_densities(g: Bigraph, ws: Sequence[StepBigraphon]) -> list[float]:
    return [math.log(t) - g.e * math.log(w.edge_density())
            for t, w in zip(densities(g, ws), ws)]


def _sidorenko_gaps(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    return _normalized_log_densities(g, [w for _, w in instances])


def test_sidorenko(g: Bigraph, trials: int = 200, grid: int = 4, seed: int = 0,
                   tol: float = 1e-9, preset: str = "uniform") -> TestReport:
    """Check t(G, W) >= t(rho, W)^{e(G)} on random step bigraphons."""
    return _run("sidorenko", lambda rng: (g, _sample_bigraphon(rng, grid, preset)),
                trials, seed, tol)


def _strong_sidorenko_gaps(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    e = g.e
    out = []
    for t, (_, w, fs, gs) in zip(_weighted_densities(
            g, [w for _, w, _, _ in instances], [fs | gs for _, _, fs, gs in instances]),
            instances):
        # each instance's (1/e)-powers, multiplied in sorted vertex order
        f_prod, g_prod = (np.multiply.reduce(np.array([m[v] for v in sorted(m)]) ** (1.0 / e))
                          for m in (fs, gs))
        base = float((w.row_weights * f_prod) @ w.values @ (w.col_weights * g_prod))
        out.append(math.log(t) - e * math.log(base))
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
        # one draw per side: uniform doubles read one draw each, in order, so
        # the rows are the per-vertex draws
        fs = dict(zip(g.left, rng.uniform(_FLOOR, 1.0, size=(g.v1, w.rows))))
        gs = dict(zip(g.right, rng.uniform(_FLOOR, 1.0, size=(g.v2, w.cols))))
        return g, w, fs, gs
    return _run("strong-sidorenko", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# weak domination and induced-Sidorenko


def _weak_domination_gaps(instances: Sequence[tuple]) -> list[float]:
    g, h = _shared(instances, 2)
    ws = [w for _, _, w in instances]
    return [a - b for a, b in zip(_normalized_log_densities(g, ws),
                                  _normalized_log_densities(h, ws))]


def test_weak_domination(g: Bigraph, h: Bigraph, trials: int = 200, grid: int = 4,
                         seed: int = 0, tol: float = 1e-9,
                         preset: str = "uniform") -> TestReport:
    """Check t(g,W)/t(rho,W)^{e(g)} >= t(h,W)/t(rho,W)^{e(h)} on
    Sinkhorn-biregularized positive samples; Sinkhorn failures skip the trial."""
    def sample(rng):
        return g, h, sinkhorn_biregularize(_sample_bigraphon(rng, grid, preset))
    return _run("weak-domination", sample, trials, seed, tol)


def _induced_scorer(g: Bigraph, profiles: Sequence[Mapping]
                    ) -> Callable[[StepBigraphon], np.ndarray]:
    """[own, *profiles] compiled once, as a function giving each profile's
    gap (log t(g) - e(g) log rho) - (log t(p) - e(p) log rho) on a bigraphon."""
    batch = compile_profiles(g.left, [_own_profile(g), *profiles])
    edges = np.array([_profile_edge_count(p) for p in profiles])

    def gaps(w: StepBigraphon) -> np.ndarray:
        logs = batch(w)
        log_rho = math.log(w.edge_density())
        return (logs[0] - g.e * log_rho) - (logs[1:] - edges * log_rho)
    return gaps


def _induced_worst(g: Bigraph, profiles: Sequence[Mapping]
                   ) -> Callable[[StepBigraphon], int]:
    """The index of a bigraphon's worst profile: the whole [own, *profiles]
    batch's argmin, the first on ties.

    A trial past _SCREEN_CELLS cells (rows ** |V_1|) screens first; below
    it the whole batch is cheaper (at 4 rows, not at 5, on
    incidence(4,{2,3})). Each key log t(p) - e(p) log rho comes from one
    batch per left support U, over rows ** |U| cells, compiled on the first
    such trial: the whole batch's sum in another order, at most 3.6e-15
    apart over 80 grid-16 trials of incidence(4,{2,3}). So a key above
    every other by more than 2 delta = 2e-9 (1 + max |key|) marks the whole
    batch's unique argmin. Any other window runs the whole batch itself: a
    subset of it could round otherwise and move a tie."""
    whole = _induced_scorer(g, profiles)
    edges = np.array([_profile_edge_count(p) for p in profiles])
    screens = []

    def worst(w: StepBigraphon) -> int:
        if w.rows ** g.v1 > _SCREEN_CELLS:
            if not screens:  # one batch per left support
                supports = {}
                for i, p in enumerate(profiles):
                    supports.setdefault(frozenset().union(*p), []).append(i)
                screens.extend((index, compile_profiles(sorted(u), [profiles[i] for i in index]))
                               for u, index in supports.items())
            keys = np.empty(len(profiles))
            for index, batch in screens:
                keys[index] = batch(w)
            keys -= edges * math.log(w.edge_density())
            window = np.flatnonzero(keys >= keys.max() - 2e-9 * (1 + np.abs(keys).max()))
            if len(window) == 1:
                return int(window[0])
        return int(np.argmin(whole(w)))
    return worst


def _induced_gaps(instances: Sequence[tuple]) -> list[float]:
    # every trial goes through its own two-row [own, profile] batch, the same
    # shape as in replay, so a shipped witness reproduces its margin bit for
    # bit; the batch is compiled once per distinct profile
    g, = _shared(instances)
    scorers = {}
    out = []
    for _, w, profile in instances:
        key = frozenset(profile.items())
        if key not in scorers:
            scorers[key] = _induced_scorer(g, [profile])
        out.append(scorers[key](w)[0])
    return out


def test_induced_sidorenko(g: Bigraph, trials: int = 200, grid: int = 4,
                           seed: int = 0, tol: float = 1e-9,
                           preset: str = "uniform") -> TestReport:
    """Weak domination of every induced subgraph class, at each trial's worst."""
    profiles = induced_subgraph_profiles(g)
    worst = _induced_worst(g, profiles)

    def sample(rng):
        w = sinkhorn_biregularize(_sample_bigraphon(rng, grid, preset))
        return g, w, profiles[worst(w)]
    return _run("induced-sidorenko", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# weakly norming and left-weakly Hoelder


def _weakly_norming_gaps(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    edges = g.sorted_edges()
    # against the constant coloring of each color used, weighted by its edges
    return _mean_bound_gaps(g, [
        (coloring, [(dict.fromkeys(edges, c), count)
                    for c, count in sorted(Counter(coloring.values()).items())], ws)
        for _, coloring, ws in instances])


def _coloring_check(g: Bigraph, coloring: Mapping[tuple, int], *_) -> Optional[str]:
    if not g.e:  # no tester runs a trial on an edgeless graph
        return "'graph' has no edges"
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


def _left_weak_holder_gaps(instances: Sequence[tuple]) -> list[float]:
    """Per (h, ell, ws), the mean log t of the left-constant colorings of
    ell's labels less log t of the product coloring. Under one label t the
    product coloring is t's left-constant one, so it runs once."""
    h, = _shared(instances)
    g = h.graph
    offset = max(h.color_set()) + 1
    labels = [list(dict.fromkeys(ell[v] for v in g.left)) for _, ell, _ in instances]
    # each label's left-constant coloring is one object, laid out once
    constant = {t: {e: _pair_color(t, c, offset) for e, c in h.colors.items()}
                for t in set().union(*labels)}
    colorings, tuples = [], []
    for (_, ell, ws), ts in zip(instances, labels):
        colorings += [constant[t] for t in ts]
        if len(ts) > 1:
            colorings.append({e: _pair_color(ell[e[0]], c, offset) for e, c in h.colors.items()})
        tuples += [ws] * (len(ts) + (len(ts) > 1))
    logs = map(math.log, colored_densities(g, colorings, tuples))
    gaps = []
    for (_, ell, _), ts in zip(instances, labels):
        per_label = {t: next(logs) for t in ts}
        log_lhs = next(logs) if len(ts) > 1 else per_label[ts[0]]
        total = 0.0
        for v in g.left:
            total += per_label[ell[v]] / g.v1
        gaps.append(total - log_lhs)
    return gaps


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
    base = h.color_set()
    offset = max(base, default=0) + 1  # no trial runs without colors
    # the colors a trial with n labels draws, by n
    pair_colors = {n: sorted({_pair_color(t, c, offset) for t in range(1, n + 1) for c in base})
                   for n in (1, 2, 3)}

    def sample(rng):
        n_colors, ell = _random_labels(rng, g.left, 3)
        return h, ell, _sample_tuple(rng, grid, pair_colors[n_colors], preset)
    # without left vertices or edges the bound holds vacuously; no trials run
    return _run("left-weak-holder", sample, trials if g.v1 and g.e else 0, seed, tol)


# ---------------------------------------------------------------------------
# color-Sidorenko


def _color_sidorenko_gaps(instances: Sequence[tuple]) -> list[float]:
    h, = _shared(instances)
    tuples = [ws for _, ws in instances]
    e = h.total_edge_mass()
    return [math.log(lhs) - e * math.log(star)
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
    """Raise ValueError unless g has an edge, the sequence is at most
    CS_TREE_DEPTH_CAP folds of g and coloring colors exactly its edges;
    test_cs_tree's trials skip it."""
    if len(folds) > CS_TREE_DEPTH_CAP:
        raise GraphTooLargeError(f"fold sequences capped at depth {CS_TREE_DEPTH_CAP}")
    if not g.e:  # test_cs_tree runs no trials on an edgeless graph
        raise ValueError("'graph' has no edges")
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


def _cs_gaps(instances: Sequence[tuple]) -> list[float]:
    g, = _shared(instances)
    # against each distinct leaf coloring, weighted by its count
    bounds = []
    for _, coloring, folds, ws in instances:
        leaves = Counter(tuple(sorted(leaf.items())) for leaf in _leaves(g, coloring, folds))
        bounds.append((coloring, [(dict(leaf), n) for leaf, n in sorted(leaves.items())], ws))
    return _mean_bound_gaps(g, bounds)


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
        raise GraphTooLargeError(f"fold sequences capped at depth {CS_TREE_DEPTH_CAP}")
    pool = [_fold(g, image, left) for image, left in _fold_pool(g, fold_pool)]
    edges = g.sorted_edges()

    def sample(rng):
        _, coloring = _random_labels(rng, edges, 3)
        depth = int(rng.integers(0, max_depth + 1)) if pool else 0
        folds = [pool[int(i)] for i in rng.integers(0, len(pool), size=depth)] \
            if pool else []
        ws = _sample_tuple(rng, grid, sorted(set(coloring.values())), preset)
        return g, coloring, folds, ws
    return _run("cs-tree", sample, trials if g.e else 0, seed, tol)  # vacuous without edges


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


def _jensen_gap(weights: np.ndarray, gvec: np.ndarray,
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
    return math.log(lhs_val) - log_rhs


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
        gvec = rng.uniform(_FLOOR, 1.0, size=size)
        fvecs = [rng.uniform(_FLOOR, 1.0, size=size) for _ in range(n)]
        ps = sorted((1.0 + float(x) for x in rng.uniform(0.0, 3.0, size=n)),
                    reverse=True)
        return weights, gvec, fvecs, ps
    return _run("jensen", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# color restriction


def _color_restriction_gaps(instances: Sequence[tuple]) -> list[float]:
    h, keep = _shared(instances, 2)
    tuples = [ws for *_, ws in instances]
    kept = h.restrict_colors(keep)
    lhs = colored_densities(kept.graph, [kept.colors] * len(tuples), tuples)
    dropped = [(c, h.edge_count(c)) for c in sorted(set(h.color_set()) - set(keep))]
    gaps = []
    for t, ws, kept_t in zip(colored_densities(h.graph, [h.colors] * len(tuples), tuples),
                             tuples, lhs):
        total = math.log(t)
        for c, count in dropped:
            total -= count * math.log(ws[c].edge_density())
        gaps.append(total - math.log(kept_t))
    return gaps


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
        values, = ws._values([c])
        if np.any(values <= 0):
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
            # a positive draw over its positive row marginals
            w = parts[c]
            parts[c] = _trusted(w.values / w.row_marginals()[:, None],
                                w.row_weights, w.col_weights)
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
             _sidorenko_gaps, (("graph", "bigraph"), ("bigraphon", "step bigraphon"))),
    Property("strong-sidorenko", "strong-sidorenko", "plain", _GRID_PRESET,
             "test_strong_sidorenko", _strong_sidorenko_gaps,
             (("graph", "bigraph"), ("bigraphon", "step bigraphon"), ("f", "vector map"),
              ("g", "vector map")), _strong_sidorenko_check),
    # two graphs, and the CLI has no way to name the second one
    Property("weak-domination", None, None, (), "test_weak_domination",
             _weak_domination_gaps,
             (("graph", "bigraph"), ("other", "bigraph"), ("bigraphon", "step bigraphon"))),
    Property("induced-sidorenko", "induced-sidorenko", "plain", _GRID_PRESET,
             "test_induced_sidorenko", _induced_gaps,
             (("graph", "bigraph"), ("bigraphon", "step bigraphon"), ("profile", "profile")),
             lambda g, w, profile: next((f"'profile' names {v!r}, not a left vertex"
                                         for s in profile for v in sorted(s)
                                         if v not in g.left), None)),
    Property("weakly-norming", "weak-norming", "plain", _GRID_PRESET,
             "test_weakly_norming", _weakly_norming_gaps,
             (("graph", "bigraph"), ("coloring", "coloring"), ("tuple", "bigraphon tuple")),
             _coloring_check),
    Property("left-weak-holder", "left-weak-holder", "colored", _GRID_PRESET,
             "test_left_weak_holder", _left_weak_holder_gaps,
             (("colored", "colored bigraph"), ("ell", "label map"),
              ("tuple", "bigraphon tuple")),
             lambda h, ell, ws: "'colored' has no edges" if not h.graph.e
             else _missing_vertex("ell", ell, h.graph.left)),
    Property("color-sidorenko", "color-sidorenko", "fractional", _GRID_PRESET,
             "test_color_sidorenko", _color_sidorenko_gaps,
             (("fractional", "fractional bigraph"), ("tuple", "bigraphon tuple"))),
    Property("cs-tree", "cs-tree", "plain", _GRID_PRESET, "test_cs_tree", _cs_gaps,
             (("graph", "bigraph"), ("coloring", "coloring"), ("folds", "fold list"),
              ("tuple", "bigraphon tuple")), _cs_check),
    Property("jensen", "jensen", "none", ("n",), "test_inductive_jensen",
             _each(_jensen_gap),
             (("weights", "vector"), ("g", "vector"), ("fs", "vector list"),
              ("ps", "number list")), _jensen_shape),
    Property("color-restriction", "color-restriction", "colored", ("grid", "colors"),
             "test_color_restriction_trials", _color_restriction_gaps,
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
