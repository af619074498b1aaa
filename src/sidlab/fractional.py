"""Colored fractional bigraphs.

A colored fractional bigraph assigns a nonnegative real weight to each
(left-vertex subset, color) pair; it encodes the left side of a
right-uniform colored bigraph with fractional neighborhood multiplicities.
Its density against a bigraphon tuple integrates powered dual-star
densities over the left space, one elimination factor per weighted pair,
with many tuples in one batched pass. Single-color profiles go through a
log-space batch compiled once per profile list; the right-neighborhood
profiles of a bigraph's induced subgraphs, one per class, are such a list.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bigraph import Bigraph, ColoredBigraph, GraphTooLargeError
from .bigraphon import BigraphonTuple, StepBigraphon
from .density import _eliminate_trials

__all__ = [
    "ColoredFractionalBigraph",
    "from_right_uniform",
    "color_power",
    "rainbow_star",
    "fractional_density",
    "fractional_densities",
    "dual_star_table",
    "compile_profiles",
    "batch_profile_log_densities",
    "induced_subgraph_profiles",
]

_BLOCK_CELLS = 1 << 20  # log terms per block of the profile batch
PROFILE_CLASS_CAP = 200_000
_PROFILE_CHUNK = 1 << 16  # profile x permutation x subset codes per batch


@dataclass(frozen=True)
class ColoredFractionalBigraph:
    """Weight function on (subset of V, color) pairs, nonnegative, finitely supported."""

    vertices: tuple[str, ...]
    colors: tuple[int, ...]
    weights: tuple[tuple[tuple[str, ...], int, float], ...]

    def __init__(self, vertices: Iterable[str], colors: Iterable[int],
                 weights: Mapping[tuple, float]):
        verts = tuple(sorted(str(v) for v in vertices))
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertices")
        cols = tuple(sorted(int(c) for c in colors))
        vset = set(verts)
        items, named = [], set()
        for (subset, color), wgt in weights.items():
            sub, color = tuple(sorted(str(v) for v in subset)), int(color)
            if not sub:
                raise ValueError(f"subsets must be nonempty (color {color} names the empty one)")
            if len(set(sub)) != len(sub):
                raise ValueError(f"subset {sub} repeats a vertex")
            if (sub, color) in named:
                raise ValueError(f"subset {sub} is named twice for color {color}")
            named.add((sub, color))
            wgt = float(wgt)
            if wgt < 0:
                raise ValueError("weights must be nonnegative")
            if wgt == 0.0:
                continue
            if not set(sub) <= vset:
                raise ValueError(f"subset {sub} not inside the vertex set")
            if color not in cols:
                raise ValueError(f"color {color} not in the color set")
            items.append((sub, color, wgt))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "colors", cols)
        object.__setattr__(self, "weights", tuple(sorted(items)))

    def weight(self, subset: Iterable[str], color: int) -> float:
        key = tuple(sorted(subset))
        for sub, c, wgt in self.weights:
            if sub == key and c == color:
                return wgt
        return 0.0

    def edge_mass(self, color: int) -> float:
        """e_i(h) = sum over subsets of |U| * h(U, i)."""
        return sum(len(sub) * wgt for sub, c, wgt in self.weights if c == color)

    def total_edge_mass(self) -> float:
        return sum(len(sub) * wgt for sub, _, wgt in self.weights)

    def degree(self, v: str, color: int) -> float:
        """d_{h,i}(v) = sum of h(U, i) over subsets containing v."""
        return sum(wgt for sub, c, wgt in self.weights if c == color and v in sub)

    def is_color_regular(self, tol: float = 1e-9) -> bool:
        for c in self.colors:
            degs = [self.degree(v, c) for v in self.vertices]
            if degs and max(degs) - min(degs) > tol:
                return False
        return True


def from_right_uniform(h: ColoredBigraph) -> ColoredFractionalBigraph:
    """h_H: count right vertices by (neighborhood, color); needs right-uniform H
    without isolated vertices."""
    if not h.is_right_uniform():
        raise ValueError("colored bigraph must be right-uniform")
    g = h.graph
    if g.isolated_vertices():
        raise ValueError("colored bigraph must not have isolated vertices")
    colors = h.colors
    counts: dict[tuple[tuple[str, ...], int], float] = {}
    for w in g.right:
        nbhd = tuple(sorted(g.neighbors(w)))
        # right-uniform: any incident edge carries the vertex's color
        color = next(c for (l, r), c in h.edge_colors if r == w)
        key = (nbhd, color)
        counts[key] = counts.get(key, 0.0) + 1.0
    return ColoredFractionalBigraph(g.left, h.color_set(), counts)


def color_power(h: ColoredFractionalBigraph,
                p: Mapping[int, float]) -> ColoredFractionalBigraph:
    """Scale the weight of each color i by p_i; e_i scales accordingly."""
    missing = set(h.colors) - set(int(c) for c in p)
    if missing:
        raise ValueError(f"power vector missing colors {sorted(missing)}")
    weights = {(sub, c): wgt * float(p[c]) for sub, c, wgt in h.weights}
    return ColoredFractionalBigraph(h.vertices, h.colors, weights)


def rainbow_star(h: ColoredFractionalBigraph) -> ColoredFractionalBigraph:
    """The weighted rainbow star rho_h: one vertex, weight e_i(h)/e(h) per color."""
    e = h.total_edge_mass()
    if e <= 0:
        raise ValueError("rainbow star needs e(h) > 0")
    weights = {(("1",), c): h.edge_mass(c) / e for c in h.colors}
    return ColoredFractionalBigraph(["1"], h.colors, weights)


def dual_star_table(w: StepBigraphon, k: int) -> np.ndarray:
    """Dual-star density table: T[x_1..x_k] = integral over y of prod W(x_j, y).

    Equals the all-left-labeled flag density of K_{k,1} at the row assignment.
    """
    vals, nu = w.values, w.col_weights
    rows, cols = w.rows, w.cols
    m = np.ones((1,) * k + (cols,))
    for j in range(k):
        shape = (1,) * j + (rows,) + (1,) * (k - 1 - j) + (cols,)
        m = m * vals.reshape(shape)
    return m @ nu


def fractional_density(h: ColoredFractionalBigraph, ws: BigraphonTuple) -> float:
    """t(h, W): weighted sum over row assignments of powered dual-star densities.

    One elimination factor T(sub) ** h(sub, c) per pair; 0^0 is taken as 1
    (zero-weight pairs are dropped at construction).
    """
    return float(fractional_densities(h, [ws])[0])


def fractional_densities(h: ColoredFractionalBigraph,
                         tuples: Sequence[BigraphonTuple]) -> np.ndarray:
    """t(h, W) for every tuple W, in one batched pass; each tuple's
    dual-star table is built once per (color, subset size), and its power
    once per (color, subset size, weight), which every pair of that key
    reads."""
    # group 0 holds mu; group 1 + i the power of the i-th distinct key
    keys = {key: 1 + i for i, key in enumerate(dict.fromkeys(
        (c, len(sub), wgt) for sub, c, wgt in h.weights))}
    groups = tuple(keys[c, len(sub), wgt] for sub, c, wgt in h.weights)
    index = (0,) * len(groups)
    trials = []
    for ws in tuples:
        for _, c, _ in h.weights:
            if c not in ws:
                raise ValueError(f"tuple missing bigraphon for color {c}")
        tables: dict[tuple[int, int], np.ndarray] = {}
        arrays = [(ws.row_weights,)]
        for c, k, wgt in keys:
            if (c, k) not in tables:
                tables[c, k] = dual_star_table(ws[c], k)
            arrays.append((tables[c, k] ** wgt,))
        trials.append((arrays, index))
    return _eliminate_trials(tuple(sub for sub, _, _ in h.weights), groups,
                             dict.fromkeys(h.vertices, 0), trials)


def compile_profiles(vertices: Sequence[str],
                     profiles: Sequence[Mapping[frozenset, float]]):
    """log t for many single-color fractional bigraphs sharing one bigraphon.

    Returns a function of the bigraphon. Each profile maps nonempty
    left-vertex subsets to exponents. The subset layout and the profile
    matrix are built here, once; a call builds one dual-star table per
    subset size and computes in log space. Profile rows go through in
    near-equal blocks of fewer than twice _BLOCK_CELLS log terms, or of
    two or three rows where one row holds more than half that many, so
    memory stays bounded on large grids. No block is a single row of a
    larger batch: numpy would take that row through a vector product, which
    sums in another order. Blocks of two or more rows agree with one whole
    matrix product to rounding, and bit for bit where the BLAS keeps one
    kernel for every row count.
    """
    verts = tuple(sorted(vertices))
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    subsets = sorted({tuple(sorted(s)) for prof in profiles for s in prof})
    # each subset's table axes: its vertices' positions, the rest broadcast
    axes = [[pos[v] for v in sub] for sub in subsets]
    m = np.zeros((len(profiles), len(subsets)))
    index = {sub: i for i, sub in enumerate(subsets)}
    for pi, prof in enumerate(profiles):
        for s, wgt in prof.items():
            m[pi, index[tuple(sorted(s))]] = wgt

    def log_densities(w: StepBigraphon) -> np.ndarray:
        mu = w.row_weights
        rows = mu.size
        if np.any(w.values <= 0):
            raise ValueError("log-space batch needs strictly positive values")
        logs = {k: np.log(dual_star_table(w, k)) for k in sorted(set(map(len, subsets)))}
        tables = np.empty((len(subsets), rows ** n))
        for si, sub_axes in enumerate(axes):
            shape = [1] * n
            for a in sub_axes:
                shape[a] = rows
            tables[si] = np.broadcast_to(logs[len(sub_axes)].reshape(shape),
                                         (rows,) * n).reshape(-1)

        logw = np.zeros(rows ** n)
        if n:
            grid = np.log(np.asarray(mu))
            full = np.zeros((rows,) * n)
            for j in range(n):
                shape = [1] * n
                shape[j] = rows
                full = full + grid.reshape(shape)
            logw = full.reshape(-1)

        out = np.empty(len(profiles))
        blocks = max(1, len(profiles) // max(2, _BLOCK_CELLS // tables.shape[1]))
        bounds = [len(profiles) * b // blocks for b in range(blocks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            combined = m[lo:hi] @ tables + logw[None, :]
            peak = combined.max(axis=1, keepdims=True)
            out[lo:hi] = peak[:, 0] + np.log(np.exp(combined - peak).sum(axis=1))
        return out
    return log_densities


def batch_profile_log_densities(vertices: Sequence[str],
                                profiles: Sequence[Mapping[frozenset, float]],
                                w: StepBigraphon) -> np.ndarray:
    """log t for many single-color fractional bigraphs sharing one bigraphon:
    compile_profiles(vertices, profiles) applied to w."""
    return compile_profiles(vertices, profiles)(w)


# ---------------------------------------------------------------------------
# induced-subgraph profiles


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
