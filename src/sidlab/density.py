"""Exact homomorphism densities over step bigraphons.

Every single density, colored fractional ones included, is a list of
(variables, array) factors contracted by one greedy min-degree variable
elimination, pinned vertices sliced out first; a direct sum over all
assignments is kept as an independent oracle, and the two agree to 1e-12.

Each elimination step sums one variable out of its bucket, the factors
that mention it. A bucket whose full product has at most 2^16 cells is
multiplied into that product and summed, in a fixed order of operations.
2^16 is the largest grid-4 bucket of incidence(n,{2,3}) for n <= 8, so
grid-4 results keep the floats of the product-only engine; it is not a
measured crossover. At grid 4 the product is also the faster branch: with
every step on einsum, 200 densities of incidence(5,{2,3}) take about four
times as long. A larger bucket is contracted pairwise by `np.einsum` along
a greedy path, so the full product is never built (bucket elimination;
Dechter, AIJ 1999). The step's einsum subscripts are compiled with the
elimination order in the plan cache; its path is searched once per
(subscripts, shapes) and kept in a second bounded cache: on
incidence(5|6,{2,3}) at grid 16 a search takes 1-3 ms beside a 3-35 ms
contraction, and shapes repeat across trials, since only the larger grid
sizes cross the threshold.
"""

from __future__ import annotations

import functools
import math
import string
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from .bigraph import Bigraph, ColoredBigraph, Flag
from .bigraphon import BigraphonTuple, StepBigraphon

if TYPE_CHECKING:
    from .fractional import ColoredFractionalBigraph

__all__ = [
    "density",
    "density_brute_force",
    "flag_density",
    "colored_density",
    "weighted_density",
    "left_regularize_tuple",
    "exponent_balance",
]

BRUTE_FORCE_CAP = 8_000_000


# ---------------------------------------------------------------------------
# variable elimination engine

Factor = tuple[tuple[str, ...], np.ndarray]


_PLAN_CACHE_SIZE = 32
_PATH_CACHE_SIZE = 256
_SMALL_BUCKET = 1 << 16  # cells of a bucket product still built whole
_ALL = slice(None)  # one object shared by every cached broadcast index


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(scopes: tuple[tuple[str, ...], ...], variables: tuple[str, ...]):
    """The greedy min-degree elimination of `variables` over factors with
    these scopes, ties broken by name. Returns the slots of the constant
    factors and one step per eliminated variable that touches a factor:
    (variable, inputs, sizes, weight shape, summed axis, keep, subscripts).
    Each input is (slot, transpose order, broadcast index) into the sorted
    variables of the step; sizes names, per variable, the (slot, axis) whose
    length it takes. The einsum subscripts take the inputs in their own axis
    order, then the weight, to the kept variables in sorted order, so a step
    spans at most 52 variables. A kept output takes the next free slot;
    otherwise it is a scalar. The plan depends on scopes and names only,
    never on sizes."""
    constants = tuple(i for i, vs in enumerate(scopes) if not vs)
    live = [(i, vs) for i, vs in enumerate(scopes) if vs]
    free = len(scopes)
    steps = []
    remaining = set(variables)
    while remaining:
        neighbor_count = {}
        for v in remaining:
            others = set()
            for _, vs in live:
                if v in vs:
                    others |= set(vs)
            others.discard(v)
            neighbor_count[v] = len(others)
        v = min(sorted(remaining), key=lambda u: (neighbor_count[u], u))
        remaining.discard(v)

        touching = [f for f in live if v in f[1]]
        live = [f for f in live if v not in f[1]]
        if not touching:
            continue  # isolated variable: its weight sums to 1
        size_of = {u: (i, a) for i, vs in touching for a, u in enumerate(vs)}
        allvars = sorted(size_of)
        inputs = tuple((i, tuple(sorted(range(len(vs)), key=lambda a: vs[a])),
                        tuple(_ALL if u in vs else None for u in allvars))
                       for i, vs in touching)
        axis = allvars.index(v)
        out = tuple(u for u in allvars if u != v)
        letter = dict(zip(allvars, string.ascii_letters))
        expr = (",".join("".join(letter[u] for u in vs) for _, vs in touching)
                + f",{letter[v]}->" + "".join(letter[u] for u in out))
        steps.append((v, inputs, tuple(size_of[u] for u in allvars),
                      tuple(-1 if a == axis else 1 for a in range(len(allvars))),
                      axis, bool(out), expr))
        if out:
            live.append((free, out))
            free += 1
    return constants, tuple(steps)


@functools.lru_cache(maxsize=_PATH_CACHE_SIZE)
def _einsum_path(expr: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The greedy pairwise contraction path of one large bucket, searched
    on zero-stride stand-ins of the given shapes; a tuple, since every
    caller shares it."""
    stand_ins = [np.broadcast_to(np.empty(()), shape) for shape in shapes]
    return tuple(np.einsum_path(expr, *stand_ins, optimize="greedy")[0])


def _eliminate_all(factors: list[Factor], weights: Mapping[str, np.ndarray]) -> float:
    """Integrate out every variable in `weights` along the cached plan for
    the factors' scopes; sizes are read from the arrays on every call. A
    bucket whose product exceeds _SMALL_BUCKET cells is contracted along
    its cached einsum path instead of being built whole."""
    constants, steps = _plan(tuple(vs for vs, _ in factors), tuple(sorted(weights)))
    arrs = [arr for _, arr in factors]
    scalar = 1.0
    for i in constants:
        scalar *= float(arrs[i])
    for v, inputs, sizes, wshape, axis, keep, expr in steps:
        shape = [arrs[i].shape[a] for i, a in sizes]
        if math.prod(shape) > _SMALL_BUCKET:
            operands = [arrs[i] for i, _, _ in inputs] + [weights[v]]
            path = _einsum_path(expr, tuple(op.shape for op in operands))
            acc = np.einsum(expr, *operands, optimize=path)
        else:
            (i, order, index), *rest = inputs
            acc = arrs[i].transpose(order)[index]
            for i, order, index in rest:
                acc = acc * arrs[i].transpose(order)[index]
            acc = (acc * weights[v].reshape(wshape)).sum(axis=axis)
        if keep:
            arrs.append(acc)
        else:
            scalar *= float(acc)
    return scalar


def _evaluate(g: Bigraph, matrix_for_edge, mu: np.ndarray, nu: np.ndarray,
              fixed: Optional[Mapping[str, int]] = None,
              potentials: Optional[Mapping[str, np.ndarray]] = None) -> float:
    factors = [((l, r), matrix_for_edge((l, r))) for l, r in g.sorted_edges()]
    factors += [((v,), vec) for v, vec in (potentials or {}).items()]
    weights = {v: mu for v in g.left} | {w: nu for w in g.right}
    if fixed:
        factors = [(tuple(v for v in vs if v not in fixed),
                    arr[tuple(fixed.get(v, slice(None)) for v in vs)])
                   for vs, arr in factors]
        weights = {v: vec for v, vec in weights.items() if v not in fixed}
    return _eliminate_all(factors, weights)


# ---------------------------------------------------------------------------
# public densities


def density(g: Bigraph, w: StepBigraphon) -> float:
    """t(G, W) by variable elimination; empty graphs give 1."""
    return _evaluate(g, lambda e: w.values, w.row_weights, w.col_weights)


def density_brute_force(g: Bigraph, w: StepBigraphon) -> float:
    """t(G, W) as the literal weighted sum over all side-respecting assignments."""
    order = list(g.left) + list(g.right)
    sizes = [w.rows] * g.v1 + [w.cols] * g.v2
    total = math.prod(sizes) if sizes else 1
    if total > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force over {total} assignments exceeds cap")
    flat = np.arange(total)
    idx: dict[str, np.ndarray] = {}
    stride = total
    for vertex, size in zip(order, sizes):
        stride //= size
        idx[vertex] = (flat // stride) % size
    prod = np.ones(total)
    for v in g.left:
        prod *= w.row_weights[idx[v]]
    for u in g.right:
        prod *= w.col_weights[idx[u]]
    for l, r in g.edges:
        prod *= w.values[idx[l], idx[r]]
    return float(prod.sum())


def flag_density(f: Flag, w: StepBigraphon, assignment: Mapping[str, int]) -> float:
    """t(F, W) at a point: labeled vertices pinned, unlabeled integrated out."""
    g = f.graph
    if set(assignment) != set(f.labels):
        raise ValueError("assignment must cover exactly the labeled vertices")
    for v, i in assignment.items():
        size = w.rows if g.side(v) == 1 else w.cols
        if not 0 <= int(i) < size:
            raise ValueError(f"index {i} out of range for vertex {v!r}")
    fixed = {v: int(i) for v, i in assignment.items()}
    return _evaluate(g, lambda e: w.values, w.row_weights, w.col_weights, fixed=fixed)


def colored_density(h: ColoredBigraph, ws: BigraphonTuple) -> float:
    """t(H, W): each edge reads the bigraphon of its color."""
    colors = h.colors
    for c in h.color_set():
        if c not in ws:
            raise ValueError(f"tuple missing bigraphon for color {c}")
    return _evaluate(h.graph, lambda e: ws[colors[e]].values,
                     ws.row_weights, ws.col_weights)


def weighted_density(g: Bigraph, w: StepBigraphon,
                     left_weights: Mapping[str, Sequence[float]],
                     right_weights: Mapping[str, Sequence[float]]) -> float:
    """t(G; f, g; W): density with a nonnegative step function at every vertex."""
    if set(left_weights) != set(g.left) or set(right_weights) != set(g.right):
        raise ValueError("need one weight function per vertex")
    pots = {v: np.asarray(vec, dtype=float) for v, vec in left_weights.items()}
    pots |= {u: np.asarray(vec, dtype=float) for u, vec in right_weights.items()}
    for v, vec in pots.items():
        size = w.rows if g.side(v) == 1 else w.cols
        if vec.shape != (size,) or np.any(vec < 0):
            raise ValueError(f"weight function at {v!r} has wrong shape or sign")
    return _evaluate(g, lambda e: w.values, w.row_weights, w.col_weights,
                     potentials=pots)


# ---------------------------------------------------------------------------
# tuple transforms and diagnostics


def left_regularize_tuple(h: ColoredFractionalBigraph, ws: BigraphonTuple,
                          pivot_color: int) -> BigraphonTuple:
    """Divide each non-pivot color by its row marginal and load the
    compensation onto the pivot with exponents e_j(h)/e_pivot(h).

    Requires h color-regular and strictly positive bigraphons. Preserves
    t(h, .) and t(rho_h, .); all non-pivot colors come out left-regular.
    """
    if pivot_color not in h.colors:
        raise ValueError("pivot color must be a color of h")
    if not h.is_color_regular():
        raise ValueError("h must be color-regular")
    e_pivot = h.edge_mass(pivot_color)
    if e_pivot == 0:
        raise ValueError("pivot color has zero edge mass")
    for c in h.colors:
        if c not in ws:
            raise ValueError(f"tuple missing bigraphon for color {c}")
        if np.any(ws[c].values <= 0):
            raise ValueError("bigraphons must be strictly positive")

    out = dict(ws.as_dict())
    compensation = np.ones(ws.row_weights.size)
    for c in h.colors:
        if c == pivot_color:
            continue
        marg = out[c].row_marginals()
        compensation = compensation * marg ** (h.edge_mass(c) / e_pivot)
        out[c] = out[c].with_values(out[c].values / marg[:, None])
    pivot = out[pivot_color]
    out[pivot_color] = pivot.with_values(pivot.values * compensation[:, None])
    return BigraphonTuple(out)


def exponent_balance(terms: Sequence[tuple[Bigraph, float]]) -> float:
    """Sum of r_i * e(G_i): zero is necessary for any scale-invariant
    product inequality prod t(G_i, W)^{r_i} >= 1 to hold for all scalings."""
    return float(sum(r * g.e for g, r in terms))
