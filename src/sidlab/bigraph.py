"""Bipartite graphs with a fixed (left, right) bipartition.

Vertices are opaque string ids, edges are ordered (left, right) pairs. All
types are immutable value objects; operations are pure functions. Vertex
lists are kept sorted so every emitted artifact is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .schema import check

__all__ = [
    "Bigraph",
    "Flag",
    "ColoredBigraph",
    "GraphTooLargeError",
    "rho",
    "star",
    "dual_star",
    "cycle4",
    "book",
    "left_labeled",
    "induced_subgraph",
    "amalgamate_left",
    "two_core",
    "two_core_flag",
    "automorphisms",
    "colored_automorphisms",
    "is_color_edge_transitive",
    "find_isomorphism",
    "graphs_isomorphic",
    "flags_isomorphic",
    "to_json_dict",
    "from_json_dict",
]

class GraphTooLargeError(ValueError):
    """Raised when an exhaustive operation exceeds its documented size cap
    or work budget."""


@dataclass(frozen=True)
class _VertexIndex:
    """Integer view of a bigraph: vertex i is `names[i]`, in `vertices()`
    order, so indices below v1 are left vertices; bit j of `adj[i]` is set
    iff vertices i and j are adjacent."""

    names: tuple[str, ...]
    pos: dict[str, int]
    adj: tuple[int, ...]

    def components(self, mask: int) -> list[int]:
        """The vertex masks of the connected components of the subgraph
        induced by the vertices in mask, in order of their lowest index."""
        comps = []
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                reach = 0
                for i in _bits(frontier):
                    reach |= self.adj[i]
                frontier = reach & mask & ~comp
                comp |= frontier
            comps.append(comp)
            mask &= ~comp
        return comps

    @functools.cached_property
    def by_name(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The vertex indices in name order, and their names: the order of
        a fold's items (`folds._fold`)."""
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        return tuple(order), tuple(self.names[i] for i in order)


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Bigraph:
    """A bigraph (V1, V2, E) with E a set of (left id, right id) pairs."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, left: Iterable[str], right: Iterable[str],
                 edges: Iterable[tuple[str, str]] = ()):
        left_t = tuple(sorted(left))
        right_t = tuple(sorted(right))
        if len(set(left_t)) != len(left_t) or len(set(right_t)) != len(right_t):
            raise ValueError("duplicate vertex ids within a side")
        if set(left_t) & set(right_t):
            raise ValueError("left and right vertex ids must be disjoint")
        edge_set = frozenset((str(l), str(r)) for l, r in edges)
        lset, rset = set(left_t), set(right_t)
        for l, r in edge_set:
            if l not in lset or r not in rset:
                raise ValueError(f"edge ({l!r}, {r!r}) has an undeclared endpoint")
        object.__setattr__(self, "left", left_t)
        object.__setattr__(self, "right", right_t)
        object.__setattr__(self, "edges", edge_set)

    # -- counts of the standard shorthand -------------------------------
    @property
    def v1(self) -> int:
        return len(self.left)

    @property
    def v2(self) -> int:
        return len(self.right)

    @property
    def v(self) -> int:
        return self.v1 + self.v2

    @property
    def e(self) -> int:
        return len(self.edges)

    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.left) | frozenset(self.right)

    @functools.cached_property
    def _index(self) -> _VertexIndex:
        names = self.vertices()
        pos = {v: i for i, v in enumerate(names)}
        adj = [0] * len(names)
        for l, r in self.edges:
            i, j = pos[l], pos[r]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return _VertexIndex(names, pos, tuple(adj))

    def _position(self, v: str) -> int:
        i = self._index.pos.get(v)
        if i is None:
            raise ValueError(f"unknown vertex {v!r}")
        return i

    def side(self, v: str) -> int:
        """1 for left vertices, 2 for right vertices."""
        return 1 if self._position(v) < self.v1 else 2

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    def neighbors(self, v: str) -> frozenset[str]:
        index = self._index
        return frozenset(index.names[j] for j in _bits(index.adj[self._position(v)]))

    def degree(self, v: str) -> int:
        return self._index.adj[self._position(v)].bit_count()

    def isolated_vertices(self) -> frozenset[str]:
        index = self._index
        return frozenset(v for v, a in zip(index.names, index.adj) if not a)

    def components(self) -> list[frozenset[str]]:
        """Connected components, sorted by smallest member id."""
        names = self._index.names
        return sorted((frozenset(names[i] for i in _bits(comp))
                       for comp in self._index.components((1 << self.v) - 1)), key=min)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def without_vertices(self, u: Iterable[str]) -> "Bigraph":
        drop = set(u)
        return induced_subgraph(self, self.vertex_set() - drop)

    def spanning_subgraph(self, keep_edges: Iterable[tuple[str, str]]) -> "Bigraph":
        keep = frozenset(keep_edges)
        if not keep <= self.edges:
            raise ValueError("spanning subgraph edges must be edges of the host graph")
        return Bigraph(self.left, self.right, keep)

    def is_spanning_subgraph_of(self, host: "Bigraph") -> bool:
        return (self.left == host.left and self.right == host.right
                and self.edges <= host.edges)

    def left_regular_degree(self) -> Optional[int]:
        degs = {self.degree(v) for v in self.left}
        return degs.pop() if len(degs) == 1 else None

    def right_regular_degree(self) -> Optional[int]:
        degs = {self.degree(w) for w in self.right}
        return degs.pop() if len(degs) == 1 else None

    def is_biregular(self) -> bool:
        """Left- and right-regular; vacuously regular sides count."""
        return (self.v1 == 0 or self.left_regular_degree() is not None) and \
               (self.v2 == 0 or self.right_regular_degree() is not None)

    def is_endomorphism(self, phi: Mapping[str, str]) -> bool:
        verts = self.vertex_set()
        if set(phi) != verts:
            return False
        lset, rset = set(self.left), set(self.right)
        for u in self.left:
            if phi[u] not in lset:
                return False
        for w in self.right:
            if phi[w] not in rset:
                return False
        return all((phi[l], phi[r]) in self.edges for l, r in self.edges)


@dataclass(frozen=True)
class Flag:
    """A partially labeled bigraph: labels are an injective id sequence."""

    graph: Bigraph
    labels: tuple[str, ...]

    def __init__(self, graph: Bigraph, labels: Sequence[str]):
        labels_t = tuple(labels)
        if len(set(labels_t)) != len(labels_t):
            raise ValueError("labels must be distinct")
        if not set(labels_t) <= graph.vertex_set():
            raise ValueError("labels must be vertices of the underlying graph")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", labels_t)

    @property
    def labeled(self) -> frozenset[str]:
        return frozenset(self.labels)


@dataclass(frozen=True)
class ColoredBigraph:
    """A bigraph together with a total edge coloring (color ids are ints)."""

    graph: Bigraph
    edge_colors: tuple[tuple[tuple[str, str], int], ...]

    def __init__(self, graph: Bigraph, edge_colors: Mapping[tuple[str, str], int]):
        items = {(str(l), str(r)): int(c) for (l, r), c in edge_colors.items()}
        if set(items) != graph.edges:
            raise ValueError("edge_colors must be defined on exactly the edge set")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "edge_colors", tuple(sorted(items.items())))

    @property
    def colors(self) -> dict[tuple[str, str], int]:
        return dict(self.edge_colors)

    def color_set(self) -> tuple[int, ...]:
        return tuple(sorted({c for _, c in self.edge_colors}))

    def edge_count(self, color: int) -> int:
        return sum(1 for _, c in self.edge_colors if c == color)

    def color_degree(self, v: str, color: int) -> int:
        return sum(1 for (l, r), c in self.edge_colors if c == color and v in (l, r))

    def is_right_uniform(self) -> bool:
        """All edges at a right vertex share one color."""
        seen: dict[str, int] = {}
        for (_, r), c in self.edge_colors:
            if seen.setdefault(r, c) != c:
                return False
        return True

    def is_left_color_regular(self) -> bool:
        """Each color degree is constant across the left side."""
        for c in self.color_set():
            degs = {self.color_degree(v, c) for v in self.graph.left}
            if len(degs) > 1:
                return False
        return True

    def restrict_colors(self, keep: Iterable[int]) -> "ColoredBigraph":
        keepset = set(keep)
        kept = {e: c for e, c in self.edge_colors if c in keepset}
        g = Bigraph(self.graph.left, self.graph.right, kept.keys())
        return ColoredBigraph(g, kept)


# ---------------------------------------------------------------------------
# named small graphs


def rho() -> Bigraph:
    """The single-edge bigraph ({1},{2},{(1,2)})."""
    return Bigraph(["1"], ["2"], [("1", "2")])


def star(d: int) -> Bigraph:
    """K_{1,d}: one left center '0' with d right leaves."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    leaves = [str(i) for i in range(1, d + 1)]
    return Bigraph(["0"], leaves, [("0", leaf) for leaf in leaves])


def dual_star(d: int) -> Bigraph:
    """K_{d,1}: d left vertices joined to one right center '0'."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    tips = [str(i) for i in range(1, d + 1)]
    return Bigraph(tips, ["0"], [(t, "0") for t in tips])


def cycle4() -> Bigraph:
    """The 4-cycle as a bigraph: left {a,b}, right {c,d}, all four edges."""
    return Bigraph(["a", "b"], ["c", "d"],
                   [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def book(k: int) -> Bigraph:
    """The k-book: k four-cycle pages amalgamated along the edge (p, q)."""
    if k < 1:
        raise ValueError("k must be positive")
    left = ["p"] + [f"u{i}" for i in range(1, k + 1)]
    right = ["q"] + [f"w{i}" for i in range(1, k + 1)]
    edges = [("p", "q")]
    for i in range(1, k + 1):
        edges += [("p", f"w{i}"), (f"u{i}", "q"), (f"u{i}", f"w{i}")]
    return Bigraph(left, right, edges)


def left_labeled(g: Bigraph) -> Flag:
    """The flag with all left vertices labeled, in sorted order."""
    return Flag(g, g.left)


# ---------------------------------------------------------------------------
# subgraph and amalgamation operations


def induced_subgraph(g: Bigraph, u: Iterable[str]) -> Bigraph:
    """Subgraph induced by the vertex set u."""
    uset = set(u)
    unknown = uset - g.vertex_set()
    if unknown:
        raise ValueError(f"unknown vertex ids: {sorted(unknown)}")
    left = [v for v in g.left if v in uset]
    right = [w for w in g.right if w in uset]
    edges = [(l, r) for l, r in g.edges if l in uset and r in uset]
    return Bigraph(left, right, edges)


def amalgamate_left(gs: Sequence[Bigraph]) -> Bigraph:
    """Amalgamation over the left side: shared V1, disjoint unions of V2 and E."""
    if not gs:
        raise ValueError("need at least one graph")
    base_left = gs[0].left
    for g in gs[1:]:
        if g.left != base_left:
            raise ValueError("all graphs must share the same left vertex set")
    right: list[str] = []
    seen: set[str] = set()
    for g in gs:
        for w in g.right:
            if w in seen:
                raise ValueError(f"right-side id collision: {w!r}")
            seen.add(w)
            right.append(w)
    edges = [e for g in gs for e in g.edges]
    return Bigraph(base_left, right, edges)


def two_core(g: Bigraph) -> Bigraph:
    """Fixed point of deleting degree-<2 vertices (componentwise on disconnected input)."""
    return _strip(g, protected=frozenset())


def two_core_flag(f: Flag) -> Flag:
    """Flag 2-core: unlabeled degree-<2 vertices are deleted, labels survive."""
    core = _strip(f.graph, protected=f.labeled)
    return Flag(core, f.labels)


def _strip(g: Bigraph, protected: frozenset[str]) -> Bigraph:
    cur = g
    while True:
        doomed = [v for v in cur.vertices()
                  if v not in protected and cur.degree(v) < 2]
        if not doomed:
            return cur
        cur = cur.without_vertices(doomed)


# ---------------------------------------------------------------------------
# automorphisms and isomorphism search


def _renumber(signature: list[tuple]) -> list[int]:
    """Classes as ints in the sorted order of their signatures, so isomorphic
    graphs get identical labels."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signature)))}
    return [rank[sig] for sig in signature]


def _refine_classes(g: Bigraph) -> list[int]:
    """Iterated neighbor-class refinement starting from (side, degree), as
    the class of each vertex index.

    Left classes number before right ones in every round, so a label-preserving
    bijection between graphs with equal side sizes maps left to left.
    """
    adj = g._index.adj
    color = _renumber([(1 if i < g.v1 else 2, a.bit_count()) for i, a in enumerate(adj)])
    for _ in range(g.v):
        nxt = _renumber([(color[i], tuple(sorted(color[j] for j in _bits(a))))
                         for i, a in enumerate(adj)])
        if len(set(nxt)) == len(set(color)):
            break
        color = nxt
    return color


# candidate images a map search may try before it refuses a graph
_SEARCH_NODES = 10**6


def _maps(g1: Bigraph, g2: Bigraph, prescribed: Mapping[str, str] = {},
          involutive: bool = False):
    """Yield every side- and edge-preserving bijection g1 -> g2 extending
    `prescribed`, as an image list over g1.vertices() into indices of
    g2.vertices(); with `involutive` (g2 is g1), only the involutions.

    Backtracks over g1's vertices by refinement-class size, class and name
    (a class lies on one side, where index order is name order), trying
    images in name order. Candidates u for v are the unused members
    of v's class adjacent to the images of v's assigned neighbours (one
    bitmask AND each); u is kept iff those are all its used neighbours. An
    involution sets phi(v) = u and phi(u) = v together, so the same check
    covers u. Raises GraphTooLargeError once more than _SEARCH_NODES
    candidates have been tried.
    """
    if g1.v1 != g2.v1 or g1.v2 != g2.v2 or g1.e != g2.e:
        return
    i1, i2 = g1._index, g2._index
    c1 = _refine_classes(g1)
    c2 = c1 if g2 is g1 else _refine_classes(g2)
    members: dict[int, int] = {}
    for j, c in enumerate(c2):
        members[c] = members.get(c, 0) | 1 << j
    allowed = [members.get(c, 0) for c in c1]
    n = len(allowed)
    order = sorted(range(n), key=lambda i: (allowed[i].bit_count(), c1[i], i))
    for v, u in prescribed.items():
        if v not in i1.pos or u not in i2.pos:
            return
        allowed[i1.pos[v]] &= 1 << i2.pos[u]
    if not all(allowed):
        return
    adj1, adj2 = i1.adj, i2.adj
    phi = [-1] * n  # entries outside `assigned` are stale
    assigned = used = 0  # bitmasks of phi's domain in g1 and image in g2

    def candidates(v: int) -> tuple[int, int]:
        """phi of v's assigned neighbours, and the mask of candidate images."""
        image, cands = 0, allowed[v] & ~used
        for w in _bits(adj1[v] & assigned):
            image |= 1 << phi[w]
            cands &= adj2[phi[w]]
        return image, cands

    if n == 0:
        yield phi
        return
    trail = []  # (order position, image, candidates left, assigned, used) per open choice
    nodes = k = 0
    image, cands = candidates(order[0])
    while True:
        v, u = order[k], -1
        while cands:
            low = cands & -cands
            cands ^= low
            nodes += 1
            if adj2[low.bit_length() - 1] & used == image:
                u = low.bit_length() - 1
                break
        if nodes > _SEARCH_NODES:
            raise GraphTooLargeError(
                f"{'fold enumeration' if involutive else 'map search'} stopped after "
                f"{nodes} search nodes (budget {_SEARCH_NODES})")
        if u >= 0:
            trail.append((k, image, cands, assigned, used))
            phi[v] = u
            assigned, used = assigned | 1 << v, used | 1 << u
            if involutive:
                phi[u] = v
                assigned, used = assigned | 1 << u, used | 1 << v
            while k < n and assigned >> order[k] & 1:
                k += 1
            if k < n:
                image, cands = candidates(order[k])
                continue
            yield phi.copy()
        if not trail:
            return
        k, image, cands, assigned, used = trail.pop()


def _named(g1: Bigraph, g2: Bigraph, image: list[int]) -> dict[str, str]:
    """A map g1 -> g2 as a dict of names, from its image list."""
    names = g2.vertices()
    return dict(zip(g1.vertices(), (names[j] for j in image)))


def automorphisms(g: Bigraph) -> list[dict[str, str]]:
    """All side-preserving edge-preserving vertex bijections, sorted by
    their images of g.vertices().

    Exhaustive enumeration, bounded by the search nodes visited, not by
    vertex count: incidence(6,{2,3}) (41 vertices, 720 maps) is listed,
    while a graph with a huge group, such as star(10) with 10! maps,
    raises GraphTooLargeError naming the nodes visited.
    """
    # images are compared on the same side, where index order is name order
    return [_named(g, g, image) for image in sorted(_maps(g, g))]


def colored_automorphisms(h: ColoredBigraph) -> list[dict[str, str]]:
    """Automorphisms of the underlying graph that also preserve edge colors."""
    colors = h.colors
    out = []
    for a in automorphisms(h.graph):
        if all(colors[(a[l], a[r])] == c for (l, r), c in h.edge_colors):
            out.append(a)
    return out


def is_color_edge_transitive(h: ColoredBigraph) -> bool:
    """Each color class of edges is a single orbit of Aut(h) acting pointwise."""
    return _edge_transitive(h, colored_automorphisms(h))


def _orbit(x, maps: Sequence, move) -> set:
    """The orbit of x under the group generated by `maps`, where move(m, y)
    is y's image under the map m: the closure of {x} under every map."""
    orbit, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for m in maps:
            z = move(m, y)
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return orbit


def _edge_transitive(h: ColoredBigraph, auts: list[dict[str, str]]) -> bool:
    """is_color_edge_transitive, given the colored automorphisms of h: they
    keep each color class and are a whole group, so a class is one orbit
    iff its first edge has as many images under them."""
    by_color: dict[int, list[tuple[str, str]]] = {}
    for edge, c in h.edge_colors:
        by_color.setdefault(c, []).append(edge)
    return all(len({(a[edges[0][0]], a[edges[0][1]]) for a in auts}) == len(edges)
               for edges in by_color.values())


def find_isomorphism(g1: Bigraph, g2: Bigraph,
                     prescribed: Optional[Mapping[str, str]] = None
                     ) -> Optional[dict[str, str]]:
    """The first isomorphism g1 -> g2 extending `prescribed` that the map
    search meets, or None. The search is the one `automorphisms` runs, under
    the same node budget: past it, GraphTooLargeError."""
    image = next(_maps(g1, g2, prescribed or {}), None)
    return None if image is None else _named(g1, g2, image)


def graphs_isomorphic(g1: Bigraph, g2: Bigraph) -> bool:
    return find_isomorphism(g1, g2) is not None


def flags_isomorphic(f1: Flag, f2: Flag) -> bool:
    """Isomorphism of underlying graphs sending the i-th label to the i-th label."""
    if len(f1.labels) != len(f2.labels):
        return False
    # a Flag's labels are distinct, so this prescribes an injection
    return find_isomorphism(f1.graph, f2.graph, dict(zip(f1.labels, f2.labels))) is not None


# ---------------------------------------------------------------------------
# JSON round trip: the "bigraph" and "colored bigraph" formats of `schema`;
# edge_colors runs parallel to the sorted edge list


def _plain(g: Bigraph | ColoredBigraph) -> Bigraph:
    """The plain graph under `g`: its uncolored graph, or `g` itself."""
    return g.graph if isinstance(g, ColoredBigraph) else g


def to_json_dict(g: Bigraph | ColoredBigraph) -> dict:
    base = _plain(g)
    edges = base.sorted_edges()
    d = {"v1": list(base.left), "v2": list(base.right), "edges": [list(e) for e in edges]}
    if base is not g:
        colors = g.colors
        d["edge_colors"] = [colors[e] for e in edges]
    return d


def from_json_dict(d: Mapping) -> Bigraph | ColoredBigraph:
    """Decode a bigraph, colored when `edge_colors` is given and not null.
    `edges` may be omitted, for an edgeless graph; a value of the wrong type,
    or an edge listed twice, raises ValueError naming its key."""
    colored = isinstance(d, Mapping) and d.get("edge_colors") is not None
    check("colored bigraph" if colored else "bigraph", d)
    edges = [tuple(e) for e in d.get("edges", ())]
    seen: set[tuple] = set()
    for i, (l, r) in enumerate(edges):
        if (l, r) in seen:
            raise ValueError(f"bigraph 'edges'[{i}]: edge ({l!r}, {r!r}) is listed twice")
        seen.add((l, r))
    g = Bigraph(d["v1"], d["v2"], edges)
    if colored:
        if len(d["edge_colors"]) != len(edges):
            raise ValueError("edge_colors must parallel edges")
        return ColoredBigraph(g, dict(zip(edges, d["edge_colors"])))
    return g
