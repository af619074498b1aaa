"""Exact combinatorial checkers for degree-profile and symmetry hypotheses,
plus the reflective-tree-decomposition verifier.

These certify hypotheses only; the density conclusions they feed are
spot-checked numerically by the property testers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

from .bigraph import (
    Bigraph,
    ColoredBigraph,
    Flag,
    _edge_transitive,
    colored_automorphisms,
    flags_isomorphic,
    induced_subgraph,
    two_core,
    two_core_flag,
)
from . import testers
from .schema import check

__all__ = [
    "PreconditionError",
    "DegreeProfile",
    "CheckReport",
    "check_largeright",
    "check_largeright_profile",
    "check_conlonlee_divisibility",
    "check_conlonlee_profile",
    "OrbitReport",
    "check_orbit_hypotheses",
    "ReflectiveTreeDecomposition",
    "decomposition_from_json",
    "RtdReport",
    "verify_rtd",
]


class PreconditionError(ValueError):
    """Checker preconditions failed; carries the itemized reasons."""

    def __init__(self, items: Sequence[str]):
        super().__init__("; ".join(items))
        self.items = list(items)


@dataclass(frozen=True)
class DegreeProfile:
    """Right-degree profile: v1 plus the number d_k of right vertices of degree k."""

    v1: int
    counts: tuple[tuple[int, int], ...]

    def __init__(self, v1: int, counts: Mapping[int, int]):
        if v1 < 0:
            raise ValueError("v1 must be nonnegative")
        items = tuple(sorted((int(k), int(d)) for k, d in counts.items() if d))
        for k, d in items:
            if k < 0 or d < 0:
                raise ValueError("degrees and counts must be nonnegative")
            if k > v1:
                raise ValueError(f"degree {k} exceeds v1={v1}")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "counts", items)

    @classmethod
    def from_graph(cls, g: Bigraph) -> "DegreeProfile":
        return cls(g.v1, Counter(g.degree(w) for w in g.right))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def v2(self) -> int:
        return sum(d for _, d in self.counts)

    def max_degree(self) -> int:
        return max((k for k, _ in self.counts), default=0)

    def to_bigraph(self) -> Bigraph:
        """A deterministic realization: neighborhoods cycle through the
        k-subsets of the left side in lexicographic order."""
        left = [str(i) for i in range(1, self.v1 + 1)]
        right, edges = [], []
        for k, d in self.counts:
            subsets = list(itertools.combinations(left, k))
            for i in range(d):
                rid = f"d{k}_{i}"
                right.append(rid)
                edges += [(v, rid) for v in subsets[i % len(subsets)]]
        return Bigraph(left, right, edges)


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    per_degree: tuple[dict, ...]

    def __bool__(self) -> bool:
        return self.passed


def _require_no_isolated(g: Bigraph) -> None:
    isolated = g.isolated_vertices()
    if isolated:
        raise PreconditionError(
            [f"isolated vertices present: {sorted(isolated)}"])


def check_largeright_profile(profile: DegreeProfile) -> CheckReport:
    """Pass iff every realized degree k >= 2 has d_k >= C(v1, k)."""
    rows = []
    ok = True
    for k, d in profile.counts:
        if k < 2:
            continue
        threshold = comb(profile.v1, k)
        row_ok = d == 0 or d >= threshold
        rows.append({"degree": k, "count": d, "threshold": threshold, "ok": row_ok})
        ok = ok and row_ok
    return CheckReport(ok, tuple(rows))


def check_largeright(g: Bigraph) -> CheckReport:
    _require_no_isolated(g)
    return check_largeright_profile(DegreeProfile.from_graph(g))


def check_conlonlee_profile(profile: DegreeProfile) -> CheckReport:
    """Pass iff C(v1, r) * C(r, k) divides d_k for every k in 2..r, with r
    the maximum realized right degree."""
    r = profile.max_degree()
    counts = profile.as_dict()
    rows = []
    ok = True
    for k in range(2, r + 1):
        modulus = comb(profile.v1, r) * comb(r, k)
        d = counts.get(k, 0)
        row_ok = modulus > 0 and d % modulus == 0
        rows.append({"degree": k, "count": d, "modulus": modulus, "ok": row_ok})
        ok = ok and row_ok
    return CheckReport(ok, tuple(rows))


def check_conlonlee_divisibility(g: Bigraph) -> CheckReport:
    _require_no_isolated(g)
    return check_conlonlee_profile(DegreeProfile.from_graph(g))


# ---------------------------------------------------------------------------
# orbit-sum hypotheses


@dataclass(frozen=True)
class OrbitReport:
    passed: bool
    orbits: tuple[dict, ...]
    evidence_note: str
    lwh_margin: float

    def __bool__(self) -> bool:
        return self.passed


def check_orbit_hypotheses(g: Bigraph, h: ColoredBigraph,
                           lwh_trials: int = 50, seed: int = 0,
                           tol: float = 1e-9) -> OrbitReport:
    """Per-orbit neighborhood-count comparison between g and the symmetric
    template h.

    Structural preconditions (shared left side, right-uniformity, no
    isolated vertices, color-edge-transitivity) are exact; the left-weak
    Hoelder precheck is a numeric trial run and is recorded as evidence
    only. Raises PreconditionError with itemized reasons.
    """
    problems = []
    hg = h.graph
    if g.left != hg.left:
        problems.append("V_1(g) != V_1(h)")
    if hg.e == 0:
        problems.append("h is trivial (no edges)")
    if not h.is_right_uniform():
        problems.append("h is not right-uniform")
    if hg.isolated_vertices():
        problems.append("h has isolated vertices")
    if g.isolated_vertices():
        problems.append("g has isolated vertices")
    if problems:
        raise PreconditionError(problems)
    auts = colored_automorphisms(h)
    if not _edge_transitive(h, auts):
        problems.append("h is not color-edge-transitive")
    lwh = testers.test_left_weak_holder(h, trials=lwh_trials, seed=seed, tol=tol)
    if not lwh.holds:
        problems.append("left-weak-Hoelder trial run violated (numeric evidence)")
    if problems:
        raise PreconditionError(problems)

    # no isolated vertices, so every right vertex is counted
    d_g = testers._own_profile(g)
    d_h = testers._own_profile(hg)
    relevant = {u for u in set(d_g) | set(d_h) if len(u) >= 2}

    orbit_of: dict[frozenset, frozenset] = {}
    for u in relevant:
        if u in orbit_of:
            continue
        orbit = frozenset(frozenset(a[v] for v in u) for a in auts)
        for member in orbit:
            orbit_of[member] = orbit

    rows = []
    passed = True
    seen: set[frozenset] = set()
    for u in sorted(relevant, key=lambda s: (len(s), sorted(s))):
        orbit = orbit_of[u]
        if orbit in seen:
            continue
        seen.add(orbit)
        g_sum = sum(d_g.get(member, 0) for member in orbit)
        h_sum = sum(d_h.get(member, 0) for member in orbit)
        ok_zero = (g_sum == 0) == (h_sum == 0)
        ok_geq = g_sum >= h_sum
        rows.append({"representative": sorted(min(orbit, key=sorted)),
                     "orbit_size": len(orbit), "g_sum": g_sum, "h_sum": h_sum,
                     "ok_zero": ok_zero, "ok_geq": ok_geq})
        passed = passed and ok_zero and ok_geq

    note = ("left-weak-Hoelder precheck is numeric evidence only "
            f"({lwh.trials} trials, worst margin {lwh.worst_margin:.3e})")
    return OrbitReport(passed, tuple(rows), note, lwh.worst_margin)


# ---------------------------------------------------------------------------
# reflective tree decompositions


@dataclass(frozen=True)
class ReflectiveTreeDecomposition:
    """A tree of vertex bags; edges are index pairs into the bag list."""

    bags: tuple[frozenset[str], ...]
    tree_edges: tuple[tuple[int, int], ...]

    def __init__(self, bags: Sequence[Iterable[str]],
                 tree_edges: Sequence[tuple[int, int]] = ()):
        bags_t = tuple(frozenset(b) for b in bags)
        edges_t = tuple(tuple(sorted((int(a), int(b)))) for a, b in tree_edges)
        if not bags_t:
            raise ValueError("need at least one bag")
        n = len(bags_t)
        for a, b in edges_t:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError("tree edges must join distinct bag indices")
        if len(set(edges_t)) != len(edges_t):
            raise ValueError("duplicate tree edges")
        # connected and acyclic
        if len(edges_t) != n - 1:
            raise ValueError("a tree on n bags has exactly n-1 edges")
        if len(_parents(n, edges_t, 0)) != n:
            raise ValueError("tree is not connected")
        object.__setattr__(self, "bags", bags_t)
        object.__setattr__(self, "tree_edges", edges_t)

    def path(self, a: int, b: int) -> list[int]:
        parent = _parents(len(self.bags), self.tree_edges, a)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        return path[::-1]


def _parents(n: int, edges: Sequence[tuple[int, int]], root: int) -> dict[int, Optional[int]]:
    """Parent pointers of a walk from root over the edges among n bags; it
    holds every bag iff the edges connect them."""
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    parent = {root: None}
    stack = [root]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                stack.append(nxt)
    return parent


def decomposition_from_json(d) -> ReflectiveTreeDecomposition:
    """Decode the "decomposition" format of `schema`, `{"bags": [[vertex,
    ...], ...], "edges": [[i, j], ...]}`. `edges` may be omitted, for a
    single bag; a value of the wrong type raises ValueError naming its key."""
    check("decomposition", d)
    return ReflectiveTreeDecomposition(d["bags"], d.get("edges", ()))


@dataclass(frozen=True)
class RtdReport:
    passed: bool
    reason: str = ""
    core: Optional[Bigraph] = None

    def __bool__(self) -> bool:
        return self.passed


def verify_rtd(g: Bigraph, t: ReflectiveTreeDecomposition) -> RtdReport:
    """Check bag cover, edge cover, running intersection, and pointwise
    label-fixing flag-2-core isomorphism across every tree edge.

    On success the report carries the 2-core of the first bag as the
    decomposition's core.
    """
    if not g.is_connected() or g.e == 0:
        raise PreconditionError(["graph must be connected and non-trivial"])
    verts = g.vertex_set()
    for i, bag in enumerate(t.bags):
        if not bag <= verts:
            return RtdReport(False, f"bag {i} contains unknown vertices")

    if frozenset().union(*t.bags) != verts:
        return RtdReport(False, "bags do not cover V(G)")
    for l, r in g.sorted_edges():
        if not any({l, r} <= bag for bag in t.bags):
            return RtdReport(False, f"edge ({l}, {r}) is inside no bag")

    n = len(t.bags)
    for i in range(n):
        for j in range(i + 1, n):
            shared = t.bags[i] & t.bags[j]
            if not shared:
                continue
            for k in t.path(i, j):
                if not shared <= t.bags[k]:
                    return RtdReport(
                        False,
                        f"running intersection fails: bags {i},{j} meet outside bag {k}")

    for a, b in t.tree_edges:
        shared = sorted(t.bags[a] & t.bags[b])
        core_a = two_core_flag(Flag(induced_subgraph(g, t.bags[a]), shared))
        core_b = two_core_flag(Flag(induced_subgraph(g, t.bags[b]), shared))
        if not flags_isomorphic(core_a, core_b):
            return RtdReport(
                False,
                f"2-cores across tree edge ({a}, {b}) are not isomorphic "
                "with the shared labels fixed")

    core = two_core(induced_subgraph(g, t.bags[0]))
    return RtdReport(True, "", core)
