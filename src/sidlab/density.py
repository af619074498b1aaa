"""Exact homomorphism densities over step bigraphons.

Every density, colored, weighted and fractional ones included, is a list
of (variables, array) factors contracted by one greedy min-degree variable
elimination, pinned vertices sliced out first; a direct sum over all
assignments is kept as an independent oracle, and the two agree to 1e-12.

The engine walks its plan once for many trials of one factor structure:
every factor and weight carries a leading trial axis, and a single density
is a batch of one. A batch's trials are sorted by their sizes and cut, in
that order, into chunks, and each chunk is zero-padded to its own largest
size of each variable. A padded cell is a zero factor entry under a zero
weight, so each sum gains exact zeros after its last real term. numpy adds
fewer than 8 terms one by one in index order, whether or not the summed
axis is the innermost one, so zero padding is exact along axes shorter
than 8. From 8 terms on numpy sums the innermost axis pairwise, and
padding would regroup the real terms. So padding only ever widens axes
shorter than 8: a trial with a variable of 8 or more cells shares a chunk
only with trials of exactly its sizes. Every trial of a batch then gets,
bit for bit, the value of its batch of one, whatever chunk it lands in,
and the tests check this for every batched margin at grids 4 to 16. A
chunk of several trials holds at most 2^13 cells of its largest padded
bucket over all its trials, eight of the largest grid-4 buckets of
incidence(5,{2,3}), so its memory stays near that of one trial; a trial
past that bound, or with a bucket past 2^16 cells, runs in a chunk of one.

A trial carries its distinct arrays in groups and each factor's position
in its group; the batch names the group of every factor and of every
variable's weight. A plain density's trial is the groups (W), (mu), (nu),
every edge at position 0 of W's. A colored trial's first group holds the
values of the colors its coloring uses, and each edge is at its color's
position; each coloring object is laid out once per call, however many
trials repeat it. A fractional trial holds mu and one power of a
dual-star table per (color, subset size, weight); a pinned one, each
edge's sliced values.
Every chunk, a batch of one included, becomes one pool per group, of
shape (position, trial, padded axes), filled by one assignment per (array,
trial). A pool is zero-filled first only when its chunk has padding, so
never for a batch of one or a chunk of equal sizes: there every cell a
factor reads is written, and a position that a trial lacks is never read.
A factor at the same position in every trial reads its pool's view
there, shared with every factor at that position; the factors of a group
whose positions differ between trials (per-trial colorings) are gathered
from the pool by one fancy index. Either way a factor's array is
C-contiguous and holds the same zero-padded cells as a stack of its own,
so padding stays exact as above.

When every trial of a batch has one index, as in plain densities,
densities with potentials, fractional densities and any batch that
repeats one coloring object, each chunk follows the plan's repeat table,
cached per (plan, positions, weight groups). A step that reads the same
arrays in the same axis pattern as an earlier step, and sums the same axis
under the same weight, reuses that step's output, which later steps then
read as the same array, so the reuse cascades: a plain density of
incidence(n,{2,3}) computes one pair and one triple bucket in place of one
per right vertex. Steps whose buckets have the same weight groups, and so
the same sizes and branch, multiply a shared leading run of inputs once:
strong-Sidorenko's right vertices differ only in their own potential, and
share the product of their edges. No float can move, since a reused array
is exactly the array the skipped step would have built, from the same
inputs by the same operations in the same order. A batch whose indexes
differ (per-trial colorings) consults no table.

Each elimination step sums one variable out of its bucket, the factors
that mention it. A bucket whose full product has at most 2^16 cells is
multiplied into that product and summed, in a fixed order of operations.
2^16 is the largest grid-4 bucket of incidence(n,{2,3}) for n <= 8, so
grid-4 results keep the floats of the product-only engine; it is not a
measured crossover. At grid 4 the product is also the faster branch: with
every step on einsum, 200 densities of incidence(5,{2,3}) take about four
times as long. A larger bucket comes only in a chunk of one, so it is
never padded, and is contracted pairwise along numpy's greedy path, so
the full product is never built (bucket elimination; Dechter, AIJ 1999).
The step's einsum subscripts are compiled with the elimination order in
the plan cache. Per (subscripts, shapes), a second bounded cache keeps the
path compiled into a program from numpy's own contraction list for it,
with operands popped last-first, each intermediate's indices ordered by
size, then by letter, and the last step writing the output. Shapes repeat
across trials, since only the larger grid sizes cross the threshold, so a
search and its compilation are paid once per shape. A pure product (no
summed index) of more than 2^16 cells whose first operand is an
intermediate that already holds the result's indices multiplies into that
intermediate when it is C-contiguous: nine of the eleven steps of the
second left bucket of incidence(6,{2,3}) at grid 16, each a product of
its 2^20-cell intermediate. Every other step is its own public
`np.einsum` call, and a program with no such product is the one call
along the whole path, since a smaller fresh array costs less than the
calls it would split the path into. No float can move: an IEEE product
is exact and commutative, and numpy's fresh array would be C-contiguous
too, since its first operand's C order wins; every other step is the
call numpy's own loop makes, on the same operands in the same order.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .bigraph import Bigraph, ColoredBigraph, Flag, GraphTooLargeError
from .bigraphon import BigraphonTuple, StepBigraphon

if TYPE_CHECKING:
    from .fractional import ColoredFractionalBigraph

__all__ = [
    "density",
    "densities",
    "colored_densities",
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
# one trial: its distinct arrays in groups, and the position of each factor's
# array in its group; the batch names the group of every factor and the group
# of every variable's weight, which holds that one vector
Trial = tuple[Sequence[Sequence[np.ndarray]], Sequence[int]]


_PLAN_CACHE_SIZE = 32
_PATH_CACHE_SIZE = 256
_SMALL_BUCKET = 1 << 16  # cells of a bucket product still built whole
_BATCH_CELLS = 1 << 13  # bucket cells of all the trials of one chunk
_EXACT_PAD = 8  # padding an axis to this length would regroup numpy's sums
_ALL = slice(None)  # one object shared by every cached broadcast index


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(scopes: tuple[tuple[str, ...], ...], variables: tuple[str, ...]):
    """The greedy min-degree elimination of `variables` over factors with
    these scopes, ties broken by name. Returns the slots of the constant
    factors and one step per eliminated variable that touches a factor:
    (variable, inputs, bucket, weight index, summed axis, keep, subscripts).
    bucket is the step's variables in sorted order. Each input is (slot,
    transpose order, broadcast index) of a batched array into the trial axis
    and the bucket; the weight index broadcasts the variable's batched
    weight the same way. The einsum subscripts take one trial's inputs in
    their own axis order, then the weight, to the kept variables in sorted
    order, so a step spans at most 52 variables. A kept output takes the
    next free slot; otherwise it is one scalar per trial. The plan depends
    on scopes and names only, never on sizes."""
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
        bucket = tuple(sorted({u for _, vs in touching for u in vs}))
        inputs = tuple((i, (0,) + tuple(1 + a for a in sorted(range(len(vs)),
                                                              key=lambda a: vs[a])),
                        (_ALL,) + tuple(_ALL if u in vs else None for u in bucket))
                       for i, vs in touching)
        out = tuple(u for u in bucket if u != v)
        letter = dict(zip(bucket, string.ascii_letters))
        expr = (",".join("".join(letter[u] for u in vs) for _, vs in touching)
                + f",{letter[v]}->" + "".join(letter[u] for u in out))
        steps.append((v, inputs, bucket,
                      (_ALL,) + tuple(_ALL if u == v else None for u in bucket),
                      1 + bucket.index(v), bool(out), expr))
        if out:
            live.append((free, out))
            free += 1
    return constants, tuple(steps)


@functools.lru_cache(maxsize=_PATH_CACHE_SIZE)
def _einsum_path(expr: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The contraction program of one large bucket, compiled from numpy's
    own contraction list for the greedy pairwise path, which is searched on
    zero-stride stand-ins of the given shapes: each step pops its operands
    from the operand list, the last listed first, and appends its result,
    whose indices are ordered by size, then by letter; the last step writes
    expr's output.

    Each entry is (positions, subscripts, path, view): its operands are
    popped at positions, the largest first, and its result is appended.
    subscripts and path are its np.einsum call on those operands in list
    order, so numpy pops them as its own loop does. view is None unless the
    step is a pure product of more than _SMALL_BUCKET cells whose first
    operand is an intermediate that already holds the result's indices; it
    is then the transpose order and broadcast index that lay the second
    operand out along the result. A smaller fresh array costs less than the
    call it would split off: a program with no such product is one entry,
    the call along the whole path. A tuple, since every caller shares it."""
    stand_ins = [np.broadcast_to(np.empty(()), shape) for shape in shapes]
    path = np.einsum_path(expr, *stand_ins, optimize="greedy")[0]
    steps = path[1:]
    inputs, output = expr.split("->")
    terms = inputs.split(",")
    size = {u: n for term, shape in zip(terms, shapes) for u, n in zip(term, shape)}
    owned = [False] * len(terms)  # whether each operand is an intermediate
    program = []
    for n, positions in enumerate(steps, 1):
        positions = tuple(sorted(positions, reverse=True))
        ins = [terms.pop(x) for x in positions]
        mine = [owned.pop(x) for x in positions]
        kept = set(output).union(*terms) & set("".join(ins))
        result = output if n == len(steps) else "".join(sorted(kept, key=lambda u: (size[u], u)))
        terms.append(result)
        owned.append(True)
        first, second = ins[0], ins[-1]  # of a pair
        view = None
        if (len(ins) == 2 and mine[0] and first == result and set(second) <= set(result)
                and math.prod(size[u] for u in result) > _SMALL_BUCKET):
            view = (tuple(sorted(range(len(second)), key=lambda a: result.index(second[a]))),
                    tuple(_ALL if u in second else None for u in result))
        program.append((positions, ",".join(ins[::-1]) + "->" + result,
                        ("einsum_path", tuple(range(len(ins)))), view))
    if all(view is None for *_, view in program):
        return ((tuple(range(len(shapes) - 1, -1, -1)), expr, tuple(path), None),)
    return tuple(program)


def _contract(expr: str, operands: list[np.ndarray]) -> np.ndarray:
    """np.einsum(expr, *operands, optimize=path) along the greedy path, run
    from its cached program (`_einsum_path`). A pure product marked in
    place multiplies into its first operand when that intermediate is
    C-contiguous, as numpy's fresh array would be, and otherwise runs as
    its call; every call is public np.einsum on its operands in list order,
    so each step is the call numpy's own loop makes."""
    program = _einsum_path(expr, tuple(op.shape for op in operands))
    ops = list(operands)
    for positions, subscripts, path, view in program:
        args = [ops.pop(x) for x in positions]
        if view is not None and args[0].flags.c_contiguous:
            order, index = view
            acc = np.multiply(args[0], args[1].transpose(order)[index], out=args[0])
        else:
            acc = np.einsum(subscripts, *reversed(args), optimize=path)
        ops.append(acc)
    return ops[0]


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _repeats(scopes: tuple[tuple[str, ...], ...], variables: tuple[str, ...],
             groups: tuple[int, ...], positions: tuple[int, ...],
             weighted: tuple[int, ...]) -> tuple:
    """The repeat table of the plan for these scopes and variables when
    factor j reads position positions[j] of group groups[j] in every trial
    and variables[k] is weighted by group weighted[k]: per step, (same,
    start, saves). same is the first earlier step that reads the same arrays
    in the same axis pattern and sums the same axis under the same weight;
    the step reuses its output, which later steps then read as the same
    array, so reuse cascades. Otherwise start is (id, k) when the step's
    first k >= 2 inputs are the longest prefix that an earlier step of a
    bucket with the same weight groups also multiplies, and saves maps each
    longer prefix length that a later step shares to the id it is kept
    under. Both steps of a shared prefix have the same sizes in any chunk,
    so both take the product branch or neither does."""
    _, steps = _plan(scopes, variables)
    weight = dict(zip(variables, weighted))
    source: list = list(zip(groups, positions))  # the array of each slot
    first: dict = {}
    seen: set = set()  # the prefixes of the steps computed so far
    read: dict = {}  # each prefix a later step starts from, and its id
    rows = []
    for n, (v, inputs, bucket, _, axis, keep, _) in enumerate(steps):
        ins = tuple((source[i], order, tuple(x is None for x in index))
                    for i, order, index in inputs)
        m = first.setdefault((ins, weight[v], axis), n)
        if keep:
            source.append(m)
        sizes = tuple(weight[u] for u in bucket)
        chain = [(sizes, ins[:k]) for k in range(2, len(ins) + 1)] if m == n else []
        start = max((k for k, prefix in enumerate(chain, 2) if prefix in seen), default=1)
        if start > 1:
            read.setdefault(chain[start - 2], len(read))
        seen.update(chain)
        rows.append((None if m == n else m, chain, start))
    table = [(m, (read[chain[start - 2]], start) if start > 1 else None,
              {k: read[prefix] for k, prefix in enumerate(chain, 2)
               if k > start and prefix in read})
             for m, chain, start in rows]
    return tuple(table)


_UNSHARED = itertools.repeat((None, None, {}))  # the table of no sharing


def _eliminate_all(factors: list[Factor], weights: Mapping[str, np.ndarray],
                   trials: int, repeats: tuple | None) -> np.ndarray:
    """Integrate out every variable in `weights` along the cached plan for
    the factors' scopes, for each of `trials` trials at once: every array
    has a leading trial axis, and sizes are read from the weights on every
    call. Returns one value per trial. A bucket whose product exceeds
    _SMALL_BUCKET cells, which only a batch of one holds, is not built
    whole: `_contract` runs its cached contraction program, which gives
    the array np.einsum(expr, *operands, optimize=path) would, bit for bit.
    `repeats` is the plan's repeat table (`_repeats`), or None, which
    shares nothing."""
    constants, steps = _plan(tuple(vs for vs, _ in factors), tuple(sorted(weights)))
    arrs = [arr for _, arr in factors]
    scalar = np.ones(trials)
    for i in constants:
        scalar *= arrs[i]
    outs: list[np.ndarray] = []
    prefixes: dict[int, np.ndarray] = {}
    for (v, inputs, bucket, windex, axis, keep, expr), (same, start, saves) in zip(
            steps, _UNSHARED if repeats is None else repeats):
        if same is not None:
            acc = outs[same]
        elif math.prod(weights[u].shape[1] for u in bucket) > _SMALL_BUCKET:
            acc = _contract(expr, [arrs[i][0] for i, _, _ in inputs] + [weights[v][0]])[None]
        else:
            if start is None:
                i, order, index = inputs[0]
                acc, k = arrs[i].transpose(order)[index], 1
            else:
                acc, k = prefixes[start[0]], start[1]
            for i, order, index in inputs[k:]:
                acc = acc * arrs[i].transpose(order)[index]
                k += 1
                if k in saves:
                    prefixes[saves[k]] = acc
            acc = (acc * weights[v][windex]).sum(axis=axis)
        outs.append(acc)
        if keep:
            arrs.append(acc)
        else:
            scalar *= acc
    return scalar


def _layout(scopes: tuple[tuple[str, ...], ...], groups: tuple[int, ...],
            weights: Mapping[str, int], trials: Sequence[Trial],
            size: Mapping[str, int]) -> tuple[list[Factor], dict[str, np.ndarray]]:
    """The factors and weights of a chunk of trials on a leading trial axis,
    each variable v zero-padded to size[v]; the trials come sorted by their
    sizes, so when the first trial's sizes are size no cell is padding. Every
    group, a batch of one's too, is one pool of shape (position, trial,
    axes), filled by one assignment per (array, trial) and zero-filled first
    only when some cell is padding; a position that a trial lacks is never
    read. A factor at the same position in every trial reads its pool's
    view, and the factors of a group whose positions differ between trials
    are gathered from the pool by one fancy index. Every factor and weight
    array is C-contiguous, as a stack of its own would be, a pinned vertex's
    sliced edge values included."""
    shapes = {g: (size[v],) for v, g in weights.items()}
    first = trials[0][0]
    fill = np.empty if all(len(first[g][0]) == n for g, (n,) in shapes.items()) else np.zeros
    shapes.update((g, tuple(size[v] for v in vs)) for g, vs in dict(zip(groups, scopes)).items())
    pools = {}
    for g, shape in shapes.items():
        members = [arrays[g] for arrays, _ in trials]
        pools[g] = pool = fill((max(map(len, members)), len(trials)) + shape)
        for t, arrays in enumerate(members):
            for i, a in enumerate(arrays):
                pool[(i, t) + tuple(map(slice, a.shape))] = a
    index = [ix for _, ix in trials]
    factors = [(vs, pools[g][i]) for vs, g, i in zip(scopes, groups, index[0])]
    if any(ix != index[0] for ix in index):
        table = np.array(index)
        varying = np.flatnonzero((table != table[0]).any(axis=0)).tolist()
        for g in dict.fromkeys(groups[j] for j in varying):
            slots = [j for j in varying if groups[j] == g]
            gathered = pools[g][table[:, slots].T, np.arange(len(trials))]
            for j, arr in zip(slots, gathered):
                factors[j] = (scopes[j], arr)
    return factors, {v: pools[g][0] for v, g in weights.items()}


def _eliminate_trials(scopes: tuple[tuple[str, ...], ...], groups: tuple[int, ...],
                      weights: Mapping[str, int], trials: Sequence[Trial]) -> np.ndarray:
    """One value per trial (arrays, index): factor j is
    arrays[groups[j]][index[j]] over scopes[j], and each variable v is
    weighted by the one vector of group weights[v].

    Trials are grouped so that zero padding stays exact: a trial with a
    variable of _EXACT_PAD or more cells joins only trials of exactly its
    sizes. A group's trials are sorted by their sizes and cut, in that
    order, into chunks padded to their own largest sizes, each a single
    trial or at most min(_BATCH_CELLS, _SMALL_BUCKET) cells of its largest
    padded bucket over all its trials; so a trial with a larger bucket, and
    every bucket past _SMALL_BUCKET, runs in a batch of one. When every
    trial has one index, every chunk reads each factor from one pool view
    and follows the plan's repeat table; a batch whose indexes differ
    consults no table."""
    variables = tuple(sorted(weights))
    sized = sorted(set(weights.values()))
    lengths = [tuple(len(arrays[g][0]) for g in sized) for arrays, _ in trials]
    keys = [() if max(sizes, default=0) < _EXACT_PAD else sizes for sizes in lengths]
    limit = min(_BATCH_CELLS, _SMALL_BUCKET)
    _, steps = _plan(scopes, variables)
    # each bucket as the positions of its variables' sizes in a size tuple
    buckets = {tuple(sized.index(weights[u]) for u in step[2]) for step in steps}
    index = trials[0][1] if trials else ()
    repeats = (_repeats(scopes, variables, groups, tuple(index),
                        tuple(weights[v] for v in variables))
               if all(ix is index or ix == index for _, ix in trials) else None)

    @functools.cache  # sorted trials grow a chunk's sizes a few times only
    def cells(most: tuple[int, ...]) -> int:
        return max((math.prod(most[i] for i in b) for b in buckets), default=1)
    out = np.empty(len(trials))

    def run(part: list[int], most: tuple[int, ...]) -> None:
        size = {v: most[sized.index(g)] for v, g in weights.items()}
        factors, vectors = _layout(scopes, groups, weights, [trials[t] for t in part], size)
        out[part] = _eliminate_all(factors, vectors, len(part), repeats)
    batches: dict[tuple, list[int]] = {}
    for t in sorted(range(len(trials)), key=lengths.__getitem__):
        batches.setdefault(keys[t], []).append(t)
    for members in batches.values():
        most = tuple(map(max, zip(*(lengths[t] for t in members))))
        if len(members) * cells(most) <= limit:
            run(members, most)  # as the cuts below would, with no per-trial work
            continue
        part = []
        for t in members:
            grown = tuple(map(max, most, lengths[t])) if part else lengths[t]
            if part and (len(part) + 1) * cells(grown) > limit:
                run(part, most)
                part, grown = [], lengths[t]
            part.append(t)
            most = grown
        run(part, most)
    return out


def _graph_densities(g: Bigraph, trials: Sequence[tuple],
                     potentials: Sequence[str] = ()) -> np.ndarray:
    """t(G; potentials; W) per trial (values, index, mu, nu, pots): factor j
    is edge j of g.sorted_edges(), reading values[index[j]], then one factor
    per vertex of `potentials`, reading pots in that order; index holds a 0
    for each potential."""
    e = g.e
    scopes = tuple(g.sorted_edges()) + tuple((v,) for v in potentials)
    groups = (0,) * e + tuple(range(3, 3 + len(potentials)))
    weights = dict.fromkeys(g.left, 1) | dict.fromkeys(g.right, 2)
    return _eliminate_trials(scopes, groups, weights, [
        ((values, (mu,), (nu,), *((pot,) for pot in pots)), index)
        for values, index, mu, nu, pots in trials])


def _weighted_densities(g: Bigraph, ws: Sequence[StepBigraphon],
                        potentials: Sequence[Mapping[str, np.ndarray]]) -> np.ndarray:
    """t(G; pots; W) per (W, pots) pair, in one batched pass: pots maps
    vertices to weight functions, every map naming the vertices of the
    first, whose order the factors follow."""
    names = tuple(potentials[0]) if potentials else ()
    index = (0,) * (g.e + len(names))
    return _graph_densities(g, [((w.values,), index, w.row_weights, w.col_weights,
                                 [pots[v] for v in names])
                                for w, pots in zip(ws, potentials)], names)


def _check_potentials(g: Bigraph, w: StepBigraphon,
                      left_weights: Mapping[str, Sequence[float]],
                      right_weights: Mapping[str, Sequence[float]]) -> dict:
    """The weight functions as float arrays, left ones first, each side in
    its mapping's order; raises ValueError unless there is one finite,
    nonnegative step function of the right length at every vertex."""
    if set(left_weights) != set(g.left) or set(right_weights) != set(g.right):
        raise ValueError("need one weight function per vertex")
    pots = {v: np.asarray(vec, dtype=float) for v, vec in left_weights.items()}
    pots |= {u: np.asarray(vec, dtype=float) for u, vec in right_weights.items()}
    for v, vec in pots.items():
        size = w.rows if g.side(v) == 1 else w.cols
        if vec.shape != (size,) or not np.all((vec >= 0) & (vec < np.inf)):
            raise ValueError(f"weight function at {v!r} has wrong shape, "
                             "or a negative or non-finite value")
    return pots


# ---------------------------------------------------------------------------
# public densities


def density(g: Bigraph, w: StepBigraphon) -> float:
    """t(G, W) by variable elimination; empty graphs give 1."""
    return float(densities(g, [w])[0])


def densities(g: Bigraph, ws: Sequence[StepBigraphon]) -> np.ndarray:
    """t(G, W) for every W in ws, in one batched pass."""
    return _weighted_densities(g, ws, [{}] * len(ws))


def colored_densities(g: Bigraph, colorings: Sequence[Mapping[tuple, int]],
                      tuples: Sequence[BigraphonTuple]) -> np.ndarray:
    """t(H, W) per (coloring, tuple) pair over the edges of g, in one batched
    pass; each edge reads the bigraphon of its color. Each coloring object
    is laid out once per call, as its colors in order and each edge's
    position among them."""
    edges = g.sorted_edges()
    layouts = {}  # by id: `colorings` holds every object while the call runs
    trials = []
    for coloring, ws in zip(colorings, tuples):
        if id(coloring) not in layouts:
            used = sorted(set(coloring.values()))
            position = {c: i for i, c in enumerate(used)}
            layouts[id(coloring)] = used, [position[coloring[e]] for e in edges]
        used, index = layouts[id(coloring)]
        trials.append((ws._values(used), index, ws.row_weights, ws.col_weights, ()))
    return _graph_densities(g, trials)


def density_brute_force(g: Bigraph, w: StepBigraphon) -> float:
    """t(G, W) as the literal weighted sum over all side-respecting assignments."""
    order = list(g.left) + list(g.right)
    sizes = [w.rows] * g.v1 + [w.cols] * g.v2
    total = math.prod(sizes) if sizes else 1
    if total > BRUTE_FORCE_CAP:
        raise GraphTooLargeError(f"brute force over {total} assignments exceeds cap")
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
    edges = g.sorted_edges()
    # a batch of one, each edge its own group with the pinned vertices sliced out
    arrays = [(w.row_weights,), (w.col_weights,)] + [
        (w.values[tuple(fixed.get(v, _ALL) for v in vs)],) for vs in edges]
    scopes = tuple(tuple(v for v in vs if v not in fixed) for vs in edges)
    weights = ({v: 0 for v in g.left if v not in fixed}
               | {u: 1 for u in g.right if u not in fixed})
    return float(_eliminate_trials(scopes, tuple(range(2, 2 + len(edges))), weights,
                                   [(arrays, (0,) * len(edges))])[0])


def colored_density(h: ColoredBigraph, ws: BigraphonTuple) -> float:
    """t(H, W): each edge reads the bigraphon of its color."""
    return float(colored_densities(h.graph, [h.colors], [ws])[0])


def weighted_density(g: Bigraph, w: StepBigraphon,
                     left_weights: Mapping[str, Sequence[float]],
                     right_weights: Mapping[str, Sequence[float]]) -> float:
    """t(G; f, g; W): density with a nonnegative step function at every vertex."""
    pots = _check_potentials(g, w, left_weights, right_weights)
    return float(_weighted_densities(g, [w], [pots])[0])


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
        values, = ws._values([c])
        if np.any(values <= 0):
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
