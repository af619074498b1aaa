"""Symmetric-group (type A) reflection machinery.

The incidence bigraph of the complete hypergraph on [n] in uniformities
k_1..k_t has left side [n] and one right vertex per (k_i-subset, slot);
its natural coloring colors each edge by the slot of its right endpoint.
Each transposition t_{ab} induces a fold: the involution swaps bits a and
b of each subset's point mask, and the left side is read off the chamber
side rule sign(1_U(a) - 1_U(b)). The fold is built as an (image, left
mask) pair (see `sidlab.folds`), a fold by construction, so `sidlab
certify` hands the pairs to the search unchecked.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from .bigraph import Bigraph, ColoredBigraph
from .folds import Fold, _fold

__all__ = [
    "TypeAReflectionSystem",
    "IncidenceBigraph",
    "build_incidence",
    "reflection_fold",
    "reflection_fold_pool",
]

_RIGHT_ID = re.compile(r"^\{(\d+(?:,\d+)*)\}@(\d+)$")


def right_id(subset: Iterable[int], slot: int) -> str:
    return "{" + ",".join(str(v) for v in sorted(subset)) + "}@" + str(slot)


def parse_right_id(rid: str) -> tuple[frozenset[int], int]:
    m = _RIGHT_ID.match(rid)
    if not m:
        raise ValueError(f"not an incidence right-vertex id: {rid!r}")
    return frozenset(map(int, m.group(1).split(","))), int(m.group(2))


@dataclass(frozen=True)
class TypeAReflectionSystem:
    """Transposition combinatorics of the symmetric group on [n].

    Reflections are the transpositions t_{ab} (a < b), simple reflections
    are the adjacent ones, and dropping t_{k,k+1} from the simple set
    leaves the generator set whose parabolic subgroup has cosets in
    bijection with k-subsets of [n].
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")

    def reflections(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(1, self.n + 1)
                for b in range(a + 1, self.n + 1)]

    def simple_reflections(self) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in range(1, self.n)]


@dataclass(frozen=True)
class IncidenceBigraph:
    """Incidence bigraph of the complete hypergraph on [n] in given uniformities."""

    n: int
    uniformities: tuple[int, ...]

    def __init__(self, n: int, uniformities: Sequence[int]):
        ks = tuple(int(k) for k in uniformities)
        if n < 1:
            raise ValueError("n must be positive")
        if not ks:
            raise ValueError("need at least one uniformity")
        for k in ks:
            if not 1 <= k <= n:
                raise ValueError(f"uniformity {k} out of range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "uniformities", ks)

    @functools.cached_property
    def graph(self) -> Bigraph:
        return self.colored.graph

    @functools.cached_property
    def colored(self) -> ColoredBigraph:
        left = [str(v) for v in range(1, self.n + 1)]
        right, colors = [], {}
        for slot, k in enumerate(self.uniformities, start=1):
            for subset in itertools.combinations(range(1, self.n + 1), k):
                rid = right_id(subset, slot)
                right.append(rid)
                for v in subset:
                    colors[(str(v), rid)] = slot
        return ColoredBigraph(Bigraph(left, right, colors), colors)

    @functools.cached_property
    def _slots(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The points (the left side), then each slot's subsets (slots in first-id order),
        as masks over the left vertex indices of `graph` in increasing order (Python ints
        past 63 points) and the vertex index of each."""
        n, adj = self.n, self.graph._index.adj
        slots = {"": [(1 << i, i) for i in range(n)]}  # keyed by the id's slot
        for j, rid in enumerate(self.graph.right, n):
            slots.setdefault(rid.rpartition("@")[2], []).append((adj[j], j))
        return [(np.array(masks, dtype=np.int64 if n < 64 else object), np.array(verts))
                for masks, verts in (zip(*sorted(slot)) for slot in slots.values())]

    @classmethod
    def from_bigraph(cls, g: Bigraph) -> "IncidenceBigraph":
        """Recover (n, uniformities) from a graph produced by build_incidence.

        The right ids are parsed and each right vertex's adjacency mask is
        compared with the points of its subset, so no candidate graph is
        built; g itself becomes the result's graph."""
        if not all(v.isdigit() for v in g.left):
            raise ValueError("left vertices are not points 1..n")
        points = sorted(int(v) for v in g.left)
        n = len(points)
        if points != list(range(1, n + 1)):
            raise ValueError("left side must be exactly 1..n")
        parsed = [parse_right_id(rid) for rid in g.right]
        slots: dict[int, set[int]] = {}
        for subset, slot in parsed:
            slots.setdefault(slot, set()).add(len(subset))
        ks = []
        for slot in range(1, len(slots) + 1):
            if slot not in slots or len(slots[slot]) != 1:
                raise ValueError("slots must be 1..t with one uniformity each")
            ks.append(slots[slot].pop())
        found = cls(n, ks)
        index = g._index
        bit = {p: 1 << index.pos[str(p)] for p in range(1, n + 1) if str(p) in index.pos}
        # canonical names, every subset of each slot once (the ids are
        # distinct), and each right vertex adjacent to exactly its points
        if len(bit) != n or g.v2 != sum(comb(n, k) for k in ks) or any(
                rid != right_id(subset, slot) or not subset <= bit.keys()
                or adj != sum(bit[p] for p in subset)
                for rid, (subset, slot), adj in zip(g.right, parsed, index.adj[n:])):
            raise ValueError("graph is not a complete-hypergraph incidence bigraph")
        object.__setattr__(found, "graph", g)
        return found


def build_incidence(n: int, ks: Sequence[int]) -> ColoredBigraph:
    """Naturally colored incidence bigraph; v2 = sum C(n,k_i), e = sum k_i*C(n,k_i)."""
    return IncidenceBigraph(n, ks).colored


def _reflection_pairs(ib: IncidenceBigraph, ab: Optional[Sequence] = None
                      ) -> list[tuple[list[int], int]]:
    """The folds of the transpositions t_{ab} in `ab` (all C(n,2) by default,
    ordered by (a, b)) as (image, left mask) pairs over ib.graph.vertices().
    L holds each point or subset that has a but not b (the chamber rule)."""
    pos = ib.graph._index.pos  # a point's bit in the masks is its left vertex index
    pairs = TypeAReflectionSystem(ib.n).reflections() if ab is None else ab
    ab = np.array([[pos[str(p)] for p in pair] for pair in pairs], dtype=np.intp).reshape(-1, 2)
    v, rows = ib.graph.v, np.arange(len(ab))[:, None]
    images, lefts = np.tile(np.arange(v), (len(ab), 1)), np.zeros((len(ab), v), dtype=bool)
    for masks, verts in ib._slots:
        # bits a and b of every mask, for all transpositions at once
        bit_a, bit_b = np.left_shift(1, ab.T[:, :, None].astype(masks.dtype))
        has_a, has_b = masks & bit_a != 0, masks & bit_b != 0
        swapped = np.where(has_a != has_b, masks ^ (bit_a | bit_b), masks)
        images[rows, verts] = verts[np.searchsorted(masks, swapped)]
        lefts[rows, verts] = has_a & ~has_b
    return [(image, int.from_bytes(row.tobytes(), "little"))
            for image, row in zip(images.tolist(), np.packbits(lefts, 1, bitorder="little"))]


def reflection_fold(ib: IncidenceBigraph, a: int, b: int) -> Fold:
    """The fold induced by the transposition t_{ab} (1 <= a < b <= n)."""
    if not (1 <= a < b <= ib.n):
        raise ValueError(f"need 1 <= a < b <= n, got a={a}, b={b}")
    return _fold(ib.graph, *_reflection_pairs(ib, [(a, b)])[0])


def reflection_fold_pool(ib: IncidenceBigraph) -> list[Fold]:
    """All C(n,2) transposition folds, ordered by (a, b)."""
    return [_fold(ib.graph, *pair) for pair in _reflection_pairs(ib)]
