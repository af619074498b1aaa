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
from typing import Iterable, Sequence

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
    return frozenset(int(x) for x in m.group(1).split(",")), int(m.group(2))


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

    def subset_choice(self, k: int) -> list[tuple[int, int]]:
        """Simple reflections minus t_{k,k+1}: generators of the k-th parabolic."""
        if not 1 <= k <= self.n:
            raise ValueError("k out of range")
        return [t for t in self.simple_reflections() if t != (k, k + 1)]

    def coset_subset_bijection_holds(self, k: int) -> bool:
        """Check sigma*R_k -> sigma([k]) is a coset/subset bijection (small n)."""
        if self.n > 6:
            raise ValueError("exhaustive check limited to n <= 6")
        perms = list(itertools.permutations(range(1, self.n + 1)))
        parabolic = [p for p in perms
                     if set(p[:k]) == set(range(1, k + 1))]
        fibers: dict[frozenset[int], set[tuple[int, ...]]] = {}
        for sigma in perms:
            fibers.setdefault(frozenset(sigma[:k]), set()).add(sigma)
        if len(fibers) != comb(self.n, k):
            return False
        for fiber in fibers.values():
            sigma0 = next(iter(fiber))
            coset = {tuple(sigma0[r[i] - 1] for i in range(self.n))
                     for r in parabolic}
            if fiber != coset:
                return False
        return True


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

    @property
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
    def _right_index(self) -> dict[tuple[int, int], int]:
        """The vertex index in `graph` of each right vertex, by (point mask,
        slot), enumerated as in `colored`; bit v - 1 of a point mask is set
        iff point v is in the subset."""
        pos = self.graph._index.pos
        return {(sum(1 << v - 1 for v in subset), slot): pos[right_id(subset, slot)]
                for slot, k in enumerate(self.uniformities, start=1)
                for subset in itertools.combinations(range(1, self.n + 1), k)}

    @classmethod
    def from_bigraph(cls, g: Bigraph) -> "IncidenceBigraph":
        """Recover (n, uniformities) from a graph produced by build_incidence."""
        if not all(v.isdigit() for v in g.left):
            raise ValueError("left vertices are not points 1..n")
        points = sorted(int(v) for v in g.left)
        n = len(points)
        if points != list(range(1, n + 1)):
            raise ValueError("left side must be exactly 1..n")
        slots: dict[int, set[int]] = {}
        for rid in g.right:
            subset, slot = parse_right_id(rid)
            slots.setdefault(slot, set()).add(len(subset))
        ks = []
        for slot in range(1, len(slots) + 1):
            if slot not in slots or len(slots[slot]) != 1:
                raise ValueError("slots must be 1..t with one uniformity each")
            ks.append(slots[slot].pop())
        candidate = cls(n, ks)
        if candidate.graph != g:
            raise ValueError("graph is not a complete-hypergraph incidence bigraph")
        return candidate


def build_incidence(n: int, ks: Sequence[int]) -> ColoredBigraph:
    """Naturally colored incidence bigraph; v2 = sum C(n,k_i), e = sum k_i*C(n,k_i)."""
    return IncidenceBigraph(n, ks).colored


def _reflection_pair(ib: IncidenceBigraph, a: int, b: int) -> tuple[list[int], int]:
    """The fold of t_{ab} as an (image, left mask) pair over ib.graph.vertices().
    L holds a and each subset that has a but not b (the chamber rule)."""
    pos, right = ib.graph._index.pos, ib._right_index
    image = list(range(len(pos)))
    i, j = pos[str(a)], pos[str(b)]
    image[i], image[j] = j, i
    left = 1 << i
    bit_a, bit_b = 1 << a - 1, 1 << b - 1
    for (mask, slot), u in right.items():
        if mask & bit_a and not mask & bit_b:
            w = right[mask ^ bit_a ^ bit_b, slot]
            image[u], image[w] = w, u
            left |= 1 << u
    return image, left


def _reflection_pairs(ib: IncidenceBigraph) -> list[tuple[list[int], int]]:
    """The pairs of all C(n,2) transposition folds, ordered by (a, b)."""
    return [_reflection_pair(ib, a, b) for a, b in TypeAReflectionSystem(ib.n).reflections()]


def reflection_fold(ib: IncidenceBigraph, a: int, b: int) -> Fold:
    """The fold induced by the transposition t_{ab} (1 <= a < b <= n)."""
    if not (1 <= a < b <= ib.n):
        raise ValueError(f"need 1 <= a < b <= n, got a={a}, b={b}")
    return _fold(ib.graph, *_reflection_pair(ib, a, b))


def reflection_fold_pool(ib: IncidenceBigraph) -> list[Fold]:
    """All C(n,2) transposition folds, ordered by (a, b)."""
    return [_fold(ib.graph, *pair) for pair in _reflection_pairs(ib)]
