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
from .density import _eliminate_trials, dual_star_table

__all__ = [
    "ColoredFractionalBigraph",
    "from_right_uniform",
    "color_power",
    "rainbow_star",
    "fractional_density",
    "fractional_densities",
    "dual_star_table",
    "compile_profiles",
    "induced_subgraph_profiles",
]

_BLOCK_CELLS = 1 << 20  # log terms per block of the profile batch
PROFILE_CLASS_CAP = 200_000
_PROFILE_CHUNK = 1 << 16  # count vectors x permutations per batch


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
            try:
                wgt = float(wgt)
            except OverflowError:  # an int past the float range
                wgt = math.inf
            if not 0 <= wgt < math.inf:  # NaN fails the comparison too
                raise ValueError("weights must be finite and nonnegative")
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
        key = (nbhd, colors[(nbhd[0], w)])
        counts[key] = counts.get(key, 0.0) + 1.0
    return ColoredFractionalBigraph(g.left, h.color_set(), counts)


def color_power(h: ColoredFractionalBigraph,
                p: Mapping[int, float]) -> ColoredFractionalBigraph:
    """Scale the weight of each color i by p_i; e_i scales accordingly."""
    missing = set(h.colors) - set(int(c) for c in p)
    if missing:
        raise ValueError(f"power vector missing colors {sorted(missing)}")
    try:
        weights = {(sub, c): wgt * float(p[c]) for sub, c, wgt in h.weights}
    except OverflowError:  # an int past the float range
        raise ValueError("powers must be finite") from None
    return ColoredFractionalBigraph(h.vertices, h.colors, weights)


def rainbow_star(h: ColoredFractionalBigraph) -> ColoredFractionalBigraph:
    """The weighted rainbow star rho_h: one vertex, weight e_i(h)/e(h) per color."""
    e = h.total_edge_mass()
    if e <= 0:
        raise ValueError("rainbow star needs e(h) > 0")
    weights = {(("1",), c): h.edge_mass(c) / e for c in h.colors}
    return ColoredFractionalBigraph(["1"], h.colors, weights)


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
        ws._values(c for _, c, _ in h.weights)  # refuses a tuple that lacks a color
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
    kernel for every row count. Not every BLAS does: on one host, row
    subsets of a batch of incidence(4,{2,3}) differed from it in the last
    bits in 3 of 480 grid-4 batches (0 of 72 at grid 16).
    """
    verts = tuple(sorted(vertices))
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    subsets = sorted(tuple(sorted(s)) for s in {frozenset(s) for prof in profiles for s in prof})
    # each subset's table axes: its vertices' positions, the rest broadcast
    axes = [[pos[v] for v in sub] for sub in subsets]
    sizes = sorted(set(map(len, subsets)))
    m = np.zeros((len(profiles), len(subsets)))
    index = {frozenset(sub): i for i, sub in enumerate(subsets)}
    for pi, prof in enumerate(profiles):
        for s, wgt in prof.items():
            m[pi, index[frozenset(s)]] = wgt

    def log_densities(w: StepBigraphon) -> np.ndarray:
        mu = w.row_weights
        rows = mu.size
        if np.any(w.values <= 0):
            raise ValueError("log-space batch needs strictly positive values")
        logs = {k: np.log(dual_star_table(w, k)) for k in sizes}
        tables = np.empty((len(subsets),) + (rows,) * n)
        for si, sub_axes in enumerate(axes):
            shape = [1] * n
            for a in sub_axes:
                shape[a] = rows
            tables[si] = logs[len(sub_axes)].reshape(shape)
        tables = tables.reshape(len(subsets), rows ** n)

        # every step from here on writes into the array it reads: a fresh
        # array of this size per step costs more in page faults than its
        # arithmetic, and the in-place ops give the same floats
        logw = np.zeros((rows,) * n)
        if n:
            grid = np.log(np.asarray(mu))
            for j in range(n):
                shape = [1] * n
                shape[j] = rows
                logw += grid.reshape(shape)
        logw = logw.reshape(-1)

        out = np.empty(len(profiles))
        blocks = max(1, len(profiles) // max(2, _BLOCK_CELLS // tables.shape[1]))
        bounds = [len(profiles) * b // blocks for b in range(blocks + 1)]
        scratch = np.empty((-(-len(profiles) // blocks), tables.shape[1]))
        for lo, hi in zip(bounds, bounds[1:]):
            combined = np.matmul(m[lo:hi], tables, out=scratch[:hi - lo])
            combined += logw
            peak = combined.max(axis=1, keepdims=True)
            combined -= peak
            out[lo:hi] = peak[:, 0] + np.log(np.exp(combined, out=combined).sum(axis=1))
        return out
    return log_densities


# ---------------------------------------------------------------------------
# induced-subgraph profiles


def induced_subgraph_profiles(g: Bigraph) -> list[dict[frozenset, int]]:
    """Right-neighborhood profiles of all induced subgraphs, deduplicated.

    A profile maps each nonempty left subset S to the number of right
    vertices of the induced subgraph whose neighborhood is exactly S.
    Profiles are deduplicated up to relabeling of the left side, which
    identifies exactly the induced subgraphs with isomorphic edge
    structure (isolated vertices do not affect any density).

    Profiles are enumerated per left subset A, counts in product order, and
    the first profile seen of each class represents it. One sort orders the
    classes by their representatives' least relabeled, sorted (subset,
    count) lists, a list before its extensions, with subsets ranked by their
    sorted tuples of vertex names; only representatives get a list.

    A subset A is skipped when its full profile (every type at its full
    count) is of a class already seen. This is exact: a relabeling that
    carries an earlier profile onto A's full profile carries each profile
    below the earlier one (in every count) onto the matching profile below
    A's, and the earlier profile's subset enumerated all of those, so A
    would yield no new class. The cap counts the count vectors of the
    subsets actually enumerated, each subset's before its first vector.

    Classes are told apart without sorting. Under one relabeling, the
    (subset, count) pairs of a profile sort by subset rank alone, so two
    relabelings of one profile compare as their vectors over all subset
    ranks, holding each subset's count, or most + 1 where it is absent.
    Written as digits most + 1 - count (0 where absent) in base most + 1,
    such a vector is a few integers below 2**53, one per word of ranks,
    which one float product gives exactly for a batch of count vectors. A
    class's key is their lexicographic maximum over all left permutations,
    and the first permutation attaining it gives the representative's list.
    """
    left = g.left
    if len(left) > 8:
        raise GraphTooLargeError("profile enumeration capped at 8 left vertices")
    traces_full = [frozenset(g.neighbors(w)) for w in g.right]

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
    # the largest count of any type: a type's count is at most each member's
    # degree, and the type {v} of the subset {v} counts deg v
    most = max(map(g.degree, left), default=0)
    base = max(most, 1) + 1
    digits = 1  # ranks per word: base ** digits stays exact in a float
    while base ** (digits + 1) <= 1 << 53:
        digits += 1
    words = -(-(1 << n) // digits)
    # each subset's word and its place value in that word, by mask
    word_of, place_of = np.divmod(rank, digits)
    place_of = (base ** (digits - 1 - place_of)).astype(float)
    perms = len(perm_index)
    chunk = max(1, _PROFILE_CHUNK // perms)
    # a representative's (subset, count) pair under its best permutation has
    # code rank * (most + 1) + count, which orders pairs as their name tuples do
    seen: set[bytes] = set()
    found: list[tuple[list[int], dict[frozenset, int]]] = []
    total = 0
    for a in itertools.chain.from_iterable(
            itertools.combinations(left, r) for r in range(n + 1)):
        aset = frozenset(a)
        types = Counter(t & aset for t in traces_full)
        types.pop(frozenset(), None)
        items = sorted(types.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        image = images[np.array([sum(bit[v] for v in s) for s, _ in items], dtype=np.intp)]
        word, place = word_of[image], place_of[image]

        def keyed(counts):
            """Each row's key words and the first permutation giving them.
            A word is packed only for the permutations that some row still
            holds at its best over the words before it."""
            digit = np.where(counts > 0, base - counts, 0).astype(float)
            keys = np.empty((len(counts), words), dtype=np.int64)
            live, at, value = np.arange(perms), word, place
            best = np.ones((len(counts), perms), dtype=bool)
            for k in range(words):
                vals = np.where(best, digit @ np.where(at == k, value, 0.0), -1.0)
                keys[:, k] = top = vals.max(axis=1)
                best = vals == top[:, None]
                if k + 1 < words:
                    keep = best.any(axis=0)
                    live, best = live[keep], best[:, keep]
                    at, value = at[:, keep], value[:, keep]
            return keys, live[best.argmax(axis=1)]

        if keyed(np.array([[c for _, c in items]]))[0].tobytes() in seen:
            continue
        radices = [c + 1 for _, c in items]
        count = math.prod(radices)
        total += count
        if total > PROFILE_CLASS_CAP:
            raise GraphTooLargeError(
                f"induced-subgraph profiles: more than {PROFILE_CLASS_CAP:,} "
                "count vectors to enumerate (PROFILE_CLASS_CAP)")
        for start in range(0, count, chunk):
            index = np.arange(start, min(start + chunk, count))
            counts = np.empty((len(index), len(items)), dtype=np.int64)
            for k in reversed(range(len(items))):
                index, counts[:, k] = np.divmod(index, radices[k])
            keys, perm = keyed(counts)
            new = []
            for i, code in enumerate(keys.view(np.dtype((np.void, 8 * words))).ravel().tolist()):
                if code not in seen:
                    seen.add(code)
                    new.append(i)
            if new:
                rows = counts[new]
                codes = rank[image[:, perm[new]]].T * (most + 1) + rows
                found += [(sorted(code for code, c in zip(code_row, row) if c),
                           {s: c for (s, _), c in zip(items, row) if c})
                          for code_row, row in zip(codes.tolist(), rows.tolist())]

    # classes in the order of their lists, a list before its extensions
    return [profile for _, profile in sorted(found, key=lambda pair: pair[0])]


def _profile_edge_count(profile: Mapping[frozenset, float]) -> float:
    return sum(len(s) * c for s, c in profile.items())


def _own_profile(g: Bigraph) -> dict[frozenset, int]:
    """g's own right-neighborhood profile (isolated right vertices dropped)."""
    return dict(Counter(frozenset(g.neighbors(w)) for w in g.right
                        if g.degree(w) > 0))
