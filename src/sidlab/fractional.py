"""Colored fractional bigraphs.

A colored fractional bigraph assigns a nonnegative real weight to each
(left-vertex subset, color) pair; it encodes the left side of a
right-uniform colored bigraph with fractional neighborhood multiplicities.
Its density against a bigraphon tuple integrates powered dual-star
densities over the left space, one elimination factor per weighted pair;
the log-space profile batch is the one batched evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bigraph import ColoredBigraph
from .bigraphon import BigraphonTuple, StepBigraphon
from .density import _eliminate_all

__all__ = [
    "ColoredFractionalBigraph",
    "from_right_uniform",
    "color_power",
    "rainbow_star",
    "fractional_density",
    "dual_star_table",
    "batch_profile_log_densities",
]

_BLOCK_CELLS = 1 << 20  # log terms per block of the profile batch


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
    for _, c, _ in h.weights:
        if c not in ws:
            raise ValueError(f"tuple missing bigraphon for color {c}")
    factors = [(sub, dual_star_table(ws[c], len(sub)) ** wgt) for sub, c, wgt in h.weights]
    return _eliminate_all(factors, {v: ws.row_weights for v in h.vertices})


def batch_profile_log_densities(vertices: Sequence[str],
                                profiles: Sequence[Mapping[frozenset, float]],
                                w: StepBigraphon) -> np.ndarray:
    """log t for many single-color fractional bigraphs sharing one bigraphon.

    The one batched evaluator. Each profile maps nonempty left-vertex subsets
    to exponents. Computed in log space with a shared table of dual-star
    densities. Profile rows go through in near-equal blocks of fewer than
    twice _BLOCK_CELLS log terms, or of two or three rows where one row
    holds more than half that many, so memory stays bounded on large grids.
    No block is a single row of a larger batch: numpy would take that row
    through a vector product, which sums in another order. Blocks of two
    or more rows agree with one whole matrix product to rounding, and bit
    for bit where the BLAS keeps one kernel for every row count.
    """
    verts = tuple(sorted(vertices))
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    mu = w.row_weights
    rows = mu.size
    subsets = sorted({tuple(sorted(s)) for prof in profiles for s in prof})
    if np.any(w.values <= 0):
        raise ValueError("log-space batch needs strictly positive values")

    tables = np.empty((len(subsets), rows ** n))
    for si, sub in enumerate(subsets):
        table = np.log(dual_star_table(w, len(sub)))
        shape = [1] * n
        for v in sub:
            shape[pos[v]] = rows
        tables[si] = np.broadcast_to(table.reshape(shape), (rows,) * n).reshape(-1)

    m = np.zeros((len(profiles), len(subsets)))
    index = {sub: i for i, sub in enumerate(subsets)}
    for pi, prof in enumerate(profiles):
        for s, wgt in prof.items():
            m[pi, index[tuple(sorted(s))]] = wgt

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
