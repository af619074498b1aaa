"""Randomized validators and falsifiers for the density inequalities.

Every tester samples step bigraphons (and weight functions or colorings as
needed) from per-trial PCG64 streams split off a master seed, checks its
inequality at a relative tolerance, and reports the worst margin seen. A
violated verdict embeds a witness payload that replays to the same margin.
Numeric verdicts validate or falsify; they never certify an inequality
universally, and reports say so.

Each inequality is one entry of PROPERTIES: its tester (the precondition
and per-trial sampler it hands to the one trial runner), its margin and its
witness codec. `replay_witness` decodes a witness with its entry's codec and
`sidlab test` dispatches on the table.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .bigraph import (
    Bigraph,
    ColoredBigraph,
    GraphTooLargeError,
    _json_object,
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
from .density import colored_density, density, weighted_density
from .folds import Fold, check_fold, enumerate_folds, fold_from_json, fold_to_json
from .fractional import (
    ColoredFractionalBigraph,
    batch_profile_log_densities,
    color_power,
    fractional_density,
    rainbow_star,
)

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

PROFILE_CLASS_CAP = 200_000
_PROFILE_CHUNK = 1 << 16  # profile x permutation x subset codes per batch
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
    the per-trial sampler and hands both to the runner. An instance is the
    arguments of margin; witness gives each argument's JSON key and (encode,
    decode) codec, and check names what a decoded instance lacks across its
    fields or raises ValueError with the reason, or returns None. cli_input
    is what `sidlab test` loads (plain, colored, fractional or none);
    cli_options are the options it passes to tester.
    """

    name: str
    cli: Optional[str]
    cli_input: Optional[str]
    cli_options: tuple[str, ...]
    tester: str
    margin: Callable[..., float]
    witness: tuple[tuple[str, tuple[Callable, Callable]], ...]
    check: Callable[..., Optional[str]] = lambda *instance: None

    def encode(self, instance: tuple) -> dict:
        return {key: codec[0](value)
                for (key, codec), value in zip(self.witness, instance)}

    def decode(self, payload: Mapping) -> tuple:
        for key, _ in self.witness:
            if key not in payload:
                raise ValueError(f"{self.name} witness lacks {key!r}")
        instance = tuple(codec[1](payload[key]) for key, codec in self.witness)
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
    stream; a sample that Sinkhorn cannot biregularize skips the trial. Only
    the worst trial (the first on ties) is kept, and its witness is encoded
    only when it violates."""
    margin = PROPERTIES[name].margin
    worst = None
    tried = skipped = 0
    for trial in range(trials):
        try:
            instance = sample(_trial_rng(seed, trial))
        except SinkhornError:
            skipped += 1
            continue
        m = margin(*instance)
        tried += 1
        if worst is None or m < worst[0]:
            worst = (m, trial, instance)
    if worst is None:
        return TestReport(name, HOLDS, 0, 0.0, None, seed, tol, skipped)
    m, trial, instance = worst
    return _report(name, m, instance, tried, seed, tol, skipped, trial=trial)


def _single_report(name: str, instance: tuple, tol: float) -> TestReport:
    """Check one given instance; the report counts it as one trial."""
    return _report(name, PROPERTIES[name].margin(*instance), instance, 1, 0, tol)


def _precondition_report(name: str, reason: str, seed: int, tol: float) -> TestReport:
    witness = {"property": name, "precondition": reason}
    return TestReport(name, VIOLATED, 0, -1.0, witness, seed, tol,
                      note="precondition failed; " + NUMERIC_DISCLAIMER)


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


def _json_list(d, what: str) -> list:
    """Raise a ValueError naming `what` unless `d` is a JSON list."""
    if not isinstance(d, list):
        raise ValueError(f"{what} must be a JSON list")
    return d


def _number_list(d, what: str, kind: type = numbers.Real) -> list:
    """Raise a ValueError naming `what` unless `d` is a JSON list of numbers."""
    if not isinstance(d, list) or not all(isinstance(x, kind) for x in d):
        raise ValueError(f"{what} must be a list of {kind.__name__.lower()} numbers")
    return d


def _labels_from_json(d) -> dict:
    _json_object(d, "label map")
    for v, t in d.items():
        if not isinstance(t, numbers.Integral):
            raise ValueError(f"label map entry {v!r} must be an integer")
    return {v: int(t) for v, t in d.items()}


def _vector_map_from_json(d) -> dict:
    _json_object(d, "vector map")
    return {v: np.asarray(_number_list(vec, f"vector map entry {v!r}"))
            for v, vec in d.items()}


def _tuple_from_json(d) -> BigraphonTuple:
    _json_object(d, "bigraphon tuple")
    return BigraphonTuple({int(c): bigraphon_from_json(w) for c, w in d.items()})


def _vectors_from_json(d) -> list:
    return [np.asarray(_number_list(vec, "vector list entry"))
            for vec in _json_list(d, "vector list")]


def _missing_vertex(key: str, mapping: Mapping, vertices: Iterable[str]) -> Optional[str]:
    return next((f"{key!r} lacks vertex {v!r}" for v in vertices if v not in mapping),
                None)


# Witness field codecs, (to JSON, from JSON). Functions are looked up at call
# time, as testers are by name, so wrappers installed on the module functions
# (the benchmark's tracer) see every call.
_GRAPH = (lambda g: to_json_dict(g), lambda d: from_json_dict(d))
_GRAPHON = (lambda w: bigraphon_to_json(w), lambda d: bigraphon_from_json(d))
_TUPLE = (lambda ws: {str(c): bigraphon_to_json(w) for c, w in ws.parts},
          _tuple_from_json)
_FRACTIONAL = (lambda h: fractional_to_json(h), lambda d: fractional_from_json(d))
_FOLDS = (lambda folds: [fold_to_json(f) for f in folds],
          lambda d: [fold_from_json(f) for f in _json_list(d, "fold list")])
_COLORING = (lambda coloring: [[list(e), c] for e, c in sorted(coloring.items())],
             lambda d: {tuple(e): int(c) for e, c in _json_list(d, "coloring")})
_PROFILE = (lambda profile: [[sorted(s), c] for s, c in sorted(
                profile.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))],
            lambda d: {frozenset(s): c for s, c in _json_list(d, "profile")})
_LABELS = (lambda labels: dict(sorted(labels.items())), _labels_from_json)
_VECTOR_MAP = (lambda vecs: {v: list(vec) for v, vec in sorted(vecs.items())},
               _vector_map_from_json)
_VECTORS = (lambda vecs: [list(vec) for vec in vecs], _vectors_from_json)
_VECTOR = (list, lambda d: np.asarray(_number_list(d, "vector")))
_NUMBERS = (list, lambda d: list(_number_list(d, "number list")))
_COLORS = (list, lambda d: list(_number_list(d, "color list", numbers.Integral)))


# ---------------------------------------------------------------------------
# plain and strong Sidorenko


def _sidorenko_margin(g: Bigraph, w: StepBigraphon) -> float:
    return math.expm1(math.log(density(g, w)) - g.e * math.log(w.edge_density()))


def test_sidorenko(g: Bigraph, trials: int = 200, grid: int = 4, seed: int = 0,
                   tol: float = 1e-9, preset: str = "uniform") -> TestReport:
    """Check t(G, W) >= t(rho, W)^{e(G)} on random step bigraphons."""
    return _run("sidorenko", lambda rng: (g, _sample_bigraphon(rng, grid, preset)),
                trials, seed, tol)


def _strong_sidorenko_margin(g: Bigraph, w: StepBigraphon,
                             fs: Mapping[str, np.ndarray],
                             gs: Mapping[str, np.ndarray]) -> float:
    lhs = weighted_density(g, w, fs, gs)
    e = g.e
    f_prod = np.ones(w.rows)
    for v in sorted(fs):
        f_prod = f_prod * np.asarray(fs[v]) ** (1.0 / e)
    g_prod = np.ones(w.cols)
    for u in sorted(gs):
        g_prod = g_prod * np.asarray(gs[u]) ** (1.0 / e)
    base = float((w.row_weights * f_prod) @ w.values @ (w.col_weights * g_prod))
    return math.expm1(math.log(lhs) - e * math.log(base))


def test_strong_sidorenko(g: Bigraph, trials: int = 200, grid: int = 4,
                          seed: int = 0, tol: float = 1e-9,
                          preset: str = "uniform") -> TestReport:
    """Check the per-vertex weighted form: t(G;f,g;W) against the single-edge
    density of the (1/e)-power products."""
    if g.e == 0:
        raise ValueError("strong Sidorenko needs at least one edge")

    def sample(rng):
        w = _sample_bigraphon(rng, grid, preset)
        fs = {v: rng.uniform(1e-3, 1.0, size=w.rows) for v in g.left}
        gs = {u: rng.uniform(1e-3, 1.0, size=w.cols) for u in g.right}
        return g, w, fs, gs
    return _run("strong-sidorenko", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# weak domination and induced-Sidorenko


def _normalized_log_density(g: Bigraph, w: StepBigraphon) -> float:
    return math.log(density(g, w)) - g.e * math.log(w.edge_density())


def _weak_domination_margin(g: Bigraph, h: Bigraph, w: StepBigraphon) -> float:
    return math.expm1(_normalized_log_density(g, w) - _normalized_log_density(h, w))


def test_weak_domination(g: Bigraph, h: Bigraph, trials: int = 200, grid: int = 4,
                         seed: int = 0, tol: float = 1e-9,
                         preset: str = "uniform") -> TestReport:
    """Check t(g,W)/t(rho,W)^{e(g)} >= t(h,W)/t(rho,W)^{e(h)} on
    Sinkhorn-biregularized positive samples; Sinkhorn failures skip the trial."""
    def sample(rng):
        return g, h, sinkhorn_biregularize(_sample_bigraphon(rng, grid, preset))
    return _run("weak-domination", sample, trials, seed, tol)


def induced_subgraph_profiles(g: Bigraph) -> list[dict[frozenset, int]]:
    """Right-neighborhood profiles of all induced subgraphs, deduplicated.

    A profile maps each nonempty left subset S to the number of right
    vertices of the induced subgraph whose neighborhood is exactly S.
    Profiles are deduplicated up to relabeling of the left side, which
    identifies exactly the induced subgraphs with isomorphic edge
    structure (isolated vertices do not affect any density).

    Profiles are enumerated per left subset, counts in product order. Each
    is coded as the sorted list of its (subset rank, count) pairs, where
    subsets are ranked by their sorted tuples of vertex names; its class key
    is the least such list over all left permutations, so the first profile
    seen of each class represents it. Classes are ordered by their keys,
    which is the order of the least relabeled, sorted (subset, count) list
    of their representatives.
    """
    left = g.left
    if len(left) > 8:
        raise GraphTooLargeError("profile enumeration capped at 8 left vertices")
    traces_full = [frozenset(g.neighbors(w)) for w in g.right]
    work = []
    total = 0
    for r in range(len(left) + 1):
        for a in itertools.combinations(left, r):
            aset = frozenset(a)
            types = Counter(t & aset for t in traces_full)
            types.pop(frozenset(), None)
            items = sorted(types.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            total += math.prod(c + 1 for _, c in items)
            if total > PROFILE_CLASS_CAP:
                raise GraphTooLargeError("too many induced subgraph classes")
            work.append(items)

    # subset-image table, uint8 under the 8-vertex cap: images[m, p] is the
    # mask of left subset m under permutation p
    n = len(left)
    bit = {v: 1 << i for i, v in enumerate(left)}
    perm_index = np.array(list(itertools.permutations(range(n))),
                          dtype=np.uint8).reshape(math.factorial(n), n)
    masks = np.arange(1 << n, dtype=np.uint8)
    images = (((masks[:, None] >> np.arange(n, dtype=np.uint8)) & 1)
              @ (np.uint8(1) << perm_index.T))
    # rank[m] orders subsets by their sorted name tuples; g.left is sorted
    order = sorted(range(1 << n), key=lambda m: [left[i] for i in range(n) if m >> i & 1])
    rank = np.empty(1 << n, dtype=np.int64)
    rank[order] = np.arange(1 << n)
    # subset m held by c > 0 right vertices has code rank[m] * (most + 1) + c,
    # which orders (subset, count) pairs as their name tuples do; an absent
    # subset has code 0, so zeros lead a sorted list of codes
    most = max((c for items in work for _, c in items), default=0)
    width = max(map(len, work))
    dtype = np.min_scalar_type((most + 1) << n)
    top = np.iinfo(dtype).max
    chunk = max(1, _PROFILE_CHUNK // (len(perm_index) * max(width, 1)))

    seen: dict[bytes, tuple[list[int], dict[frozenset, int]]] = {}
    for items in work:
        codes = rank[images[[sum(bit[v] for v in s) for s, _ in items]].T].astype(dtype)
        codes *= most + 1
        radices = [c + 1 for _, c in items]
        count = math.prod(radices)
        for start in range(0, count, chunk):
            index = np.arange(start, min(start + chunk, count))
            counts = np.empty((len(index), len(items)), dtype=dtype)
            for k in reversed(range(len(items))):
                index, counts[:, k] = np.divmod(index, radices[k])
            permuted = np.where(counts[:, None, :] > 0, codes + counts[:, None, :], 0)
            permuted.sort(axis=2)
            # the key is the least sorted code list over all permutations
            keys = np.zeros((len(counts), width), dtype=dtype)
            alive = np.ones(permuted.shape[:2], dtype=bool)
            for k in range(len(items)):
                vals = np.where(alive, permuted[:, :, k], top)
                keys[:, width - len(items) + k] = low = vals.min(axis=1)
                alive &= vals == low[:, None]
            for row, key in zip(counts, keys):
                code = key.tobytes()
                if code not in seen:
                    seen[code] = ([c for c in key.tolist() if c],
                                  {s: int(c) for (s, _), c in zip(items, row) if c})

    return [profile for _, profile in sorted(seen.values(), key=lambda kp: kp[0])]


def _profile_edge_count(profile: Mapping[frozenset, float]) -> float:
    return sum(len(s) * c for s, c in profile.items())


def _own_profile(g: Bigraph) -> dict[frozenset, int]:
    """g's own right-neighborhood profile (isolated right vertices dropped)."""
    return dict(Counter(frozenset(g.neighbors(w)) for w in g.right
                        if g.degree(w) > 0))


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
    batch = [_own_profile(g)] + profiles
    assert _profile_edge_count(batch[0]) == g.e
    e_counts = np.array([_profile_edge_count(p) for p in profiles])

    def sample(rng):
        # every class is scored in one batch; the trial's instance is the worst
        w = sinkhorn_biregularize(_sample_bigraphon(rng, grid, preset))
        logs = batch_profile_log_densities(g.left, batch, w)
        log_rho = math.log(w.edge_density())
        base = logs[0] - g.e * log_rho
        worst = int(np.argmin(base - (logs[1:] - e_counts * log_rho)))
        return g, w, profiles[worst]
    return _run("induced-sidorenko", sample, trials, seed, tol)


# ---------------------------------------------------------------------------
# weakly norming and left-weakly Hoelder


def _weakly_norming_margin(g: Bigraph, coloring: Mapping[tuple, int],
                           ws: BigraphonTuple) -> float:
    lhs = colored_density(ColoredBigraph(g, coloring), ws)
    counts = Counter(coloring.values())
    log_rhs = sum(cnt * math.log(density(g, ws[c])) for c, cnt in sorted(counts.items()))
    log_rhs /= g.e
    return math.expm1(log_rhs - math.log(lhs))


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


def _left_weak_holder_margin(h: ColoredBigraph, ell: Mapping[str, int],
                             ws: BigraphonTuple) -> float:
    g = h.graph
    offset = max(h.color_set()) + 1
    colors = h.colors
    product_coloring = {e: _pair_color(ell[e[0]], colors[e], offset)
                        for e in g.edges}
    lhs = colored_density(ColoredBigraph(g, product_coloring), ws)
    log_rhs = 0.0
    per_value: dict[int, float] = {}
    for v in g.left:
        t = ell[v]
        if t not in per_value:
            const_coloring = {e: _pair_color(t, colors[e], offset) for e in g.edges}
            per_value[t] = math.log(
                colored_density(ColoredBigraph(g, const_coloring), ws))
        log_rhs += per_value[t] / g.v1
    return math.expm1(log_rhs - math.log(lhs))


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


def _color_sidorenko_margin(h: ColoredFractionalBigraph, ws: BigraphonTuple) -> float:
    lhs = fractional_density(h, ws)
    star = fractional_density(rainbow_star(h), ws)
    return math.expm1(math.log(lhs) - h.total_edge_mass() * math.log(star))


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


def _cs_margin(g: Bigraph, coloring: Mapping[tuple, int], folds: Sequence[Fold],
               ws: BigraphonTuple) -> float:
    lhs = colored_density(ColoredBigraph(g, dict(coloring)), ws)
    leaves = _leaves(g, coloring, folds)
    counts = Counter(tuple(sorted(leaf.items())) for leaf in leaves)
    log_rhs = 0.0
    for leaf_key, cnt in sorted(counts.items()):
        leaf = dict(leaf_key)
        log_rhs += cnt * math.log(colored_density(ColoredBigraph(g, leaf), ws))
    log_rhs /= len(leaves)
    return math.expm1(log_rhs - math.log(lhs))


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


def _color_restriction_margin(h: ColoredBigraph, keep: Sequence[int],
                              ws: BigraphonTuple) -> float:
    lhs = colored_density(h.restrict_colors(keep), ws)
    log_rhs = math.log(colored_density(h, ws))
    for c in sorted(set(h.color_set()) - set(keep)):
        log_rhs -= h.edge_count(c) * math.log(ws[c].edge_density())
    return math.expm1(log_rhs - math.log(lhs))


def _kept_colors(h: ColoredBigraph, colors: Iterable[int]) -> list[int]:
    keep = sorted(set(int(c) for c in colors))
    if not set(keep) <= set(h.color_set()):
        raise ValueError("colors must be a subset of the coloring's colors")
    if not h.is_right_uniform():
        raise ValueError("colored bigraph must be right-uniform")
    return keep


def test_color_restriction(h: ColoredBigraph, colors: Iterable[int],
                           ws: BigraphonTuple, tol: float = 1e-9) -> TestReport:
    """Single-instance check of the color-restriction quotient bound.

    Every dropped color's bigraphon must be left-regular and positive;
    violations of that precondition raise.
    """
    keep = _kept_colors(h, colors)
    for c in sorted(set(h.color_set()) - set(keep)):
        w = ws[c]
        if np.any(w.values <= 0):
            raise ValueError(f"bigraphon for dropped color {c} must be positive")
        if not w.is_left_regular(tol=1e-8):
            raise ValueError(f"bigraphon for dropped color {c} must be left-regular")
    return _single_report("color-restriction", (h, keep, ws), tol)


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
    _json_object(d, "fractional bigraph", "vertices", "colors", "weights")
    weights = {(tuple(sub), int(c)): float(wgt) for sub, c, wgt in d["weights"]}
    if len(weights) != len(d["weights"]):
        raise ValueError("fractional bigraph: a (subset, color) pair is named twice")
    return ColoredFractionalBigraph(d["vertices"], d["colors"], weights)


_GRID_PRESET = ("grid", "preset")

PROPERTIES: dict[str, Property] = {p.name: p for p in (
    Property("sidorenko", "sidorenko", "plain", _GRID_PRESET, "test_sidorenko",
             _sidorenko_margin, (("graph", _GRAPH), ("bigraphon", _GRAPHON))),
    Property("strong-sidorenko", "strong-sidorenko", "plain", _GRID_PRESET,
             "test_strong_sidorenko", _strong_sidorenko_margin,
             (("graph", _GRAPH), ("bigraphon", _GRAPHON), ("f", _VECTOR_MAP),
              ("g", _VECTOR_MAP)),
             lambda g, w, fs, gs: (_missing_vertex("f", fs, g.left)
                                   or _missing_vertex("g", gs, g.right))),
    # two graphs, and the CLI has no way to name the second one
    Property("weak-domination", None, None, (), "test_weak_domination",
             _weak_domination_margin,
             (("graph", _GRAPH), ("other", _GRAPH), ("bigraphon", _GRAPHON))),
    Property("induced-sidorenko", "induced-sidorenko", "plain", _GRID_PRESET,
             "test_induced_sidorenko", _induced_margin,
             (("graph", _GRAPH), ("bigraphon", _GRAPHON), ("profile", _PROFILE))),
    Property("weakly-norming", "weak-norming", "plain", _GRID_PRESET,
             "test_weakly_norming", _weakly_norming_margin,
             (("graph", _GRAPH), ("coloring", _COLORING), ("tuple", _TUPLE))),
    Property("left-weak-holder", "left-weak-holder", "colored", _GRID_PRESET,
             "test_left_weak_holder", _left_weak_holder_margin,
             (("colored", _GRAPH), ("ell", _LABELS), ("tuple", _TUPLE)),
             lambda h, ell, ws: _missing_vertex("ell", ell, h.graph.left)),
    Property("color-sidorenko", "color-sidorenko", "fractional", _GRID_PRESET,
             "test_color_sidorenko", _color_sidorenko_margin,
             (("fractional", _FRACTIONAL), ("tuple", _TUPLE))),
    Property("cs-tree", "cs-tree", "plain", _GRID_PRESET, "test_cs_tree", _cs_margin,
             (("graph", _GRAPH), ("coloring", _COLORING), ("folds", _FOLDS),
              ("tuple", _TUPLE)), _cs_check),
    Property("jensen", "jensen", "none", ("n",), "test_inductive_jensen", _jensen_margin,
             (("weights", _VECTOR), ("g", _VECTOR), ("fs", _VECTORS), ("ps", _NUMBERS)),
             _jensen_shape),
    Property("color-restriction", "color-restriction", "colored", ("grid", "colors"),
             "test_color_restriction_trials", _color_restriction_margin,
             (("colored", _GRAPH), ("keep_colors", _COLORS), ("tuple", _TUPLE))),
)}


def replay_witness(witness: Mapping) -> float:
    """Recompute the margin of a violation witness from its payload."""
    _json_object(witness, "witness", "property")
    if not isinstance(witness["property"], str):
        raise ValueError("witness 'property' must be a string")
    prop = PROPERTIES.get(witness["property"])
    if prop is None:
        raise ValueError(f"unknown witness property {witness['property']!r}")
    if "precondition" in witness:
        raise ValueError("precondition witnesses carry no margin")
    return prop.margin(*prop.decode(witness))
