"""Symmetric-group (type A) reflection machinery.

The incidence bigraph of the complete hypergraph on [n] in uniformities
k_1..k_t has left side [n] and one right vertex per (k_i-subset, slot);
its natural coloring colors each edge by the slot of its right endpoint.
Each transposition t_{ab} induces a fold: the involution permutes points
and subsets, and the left side is read off the chamber side rule
sign(1_U(a) - 1_U(b)).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .bigraph import Bigraph, ColoredBigraph
from .folds import Fold

__all__ = [
    "TypeAReflectionSystem",
    "IncidenceBigraph",
    "build_incidence",
    "reflection_fold",
    "reflection_fold_pool",
]

_RIGHT_ID = re.compile(r"^\{(\d+(?:,\d+)*)\}@(\d+)$")


def point_id(v: int) -> str:
    return str(v)


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
        left = [point_id(v) for v in range(1, self.n + 1)]
        right, edges, colors = [], [], {}
        for slot, k in enumerate(self.uniformities, start=1):
            for subset in itertools.combinations(range(1, self.n + 1), k):
                rid = right_id(subset, slot)
                right.append(rid)
                for v in subset:
                    edges.append((point_id(v), rid))
                    colors[(point_id(v), rid)] = slot
        return ColoredBigraph(Bigraph(left, right, edges), colors)

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


def reflection_fold(ib: IncidenceBigraph, a: int, b: int) -> Fold:
    """The fold induced by the transposition t_{ab} (1 <= a < b <= n)."""
    if not (1 <= a < b <= ib.n):
        raise ValueError(f"need 1 <= a < b <= n, got a={a}, b={b}")

    def swap(v: int) -> int:
        return b if v == a else a if v == b else v

    phi: dict[str, str] = {}
    left: set[str] = {point_id(a)}
    for v in range(1, ib.n + 1):
        phi[point_id(v)] = point_id(swap(v))
    for slot, k in enumerate(ib.uniformities, start=1):
        for subset in itertools.combinations(range(1, ib.n + 1), k):
            rid = right_id(subset, slot)
            phi[rid] = right_id(map(swap, subset), slot)
            if a in subset and b not in subset:
                left.add(rid)
    return Fold(phi, left)


def reflection_fold_pool(ib: IncidenceBigraph) -> list[Fold]:
    """All C(n,2) transposition folds, ordered by (a, b)."""
    return [reflection_fold(ib, a, b) for a, b in TypeAReflectionSystem(ib.n).reflections()]
