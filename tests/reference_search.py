"""Reference map search, fold enumeration and percolation search, kept as
test oracles.

`_search_maps` is a backtracking search over string dicts with no node
budget. Its vertex classes come from its own refinement by names
(`_refine_classes`) over adjacency sets read from `g.edges`
(`_adjacency`), so it shares no code with the map search it checks.
`automorphisms` lists the whole group with it, `involutions` keeps the
group's involutions, and `enumerate_folds` completes those to
folds on string sets (`_complete`), taking components by a BFS over
string adjacency sets; `search` is a FIFO BFS over frozenset states with
one preimage per (state, fold) pair, taken from string maps. They are
the straightforward forms of what `sidlab.bigraph`, `sidlab.folds` and
`sidlab.percolation` compute on integer indices. The reference search
reports a budget stop the same way as the engine: before any expansion
when the start states alone exceed the budget.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Optional

from sidlab.bigraph import Bigraph
from sidlab.folds import Fold
from sidlab.percolation import _MODES, NotFound, PercolationCertificate


def _adjacency(g: Bigraph) -> dict[str, set[str]]:
    """Each vertex's neighbours, from the edge set."""
    adj: dict[str, set[str]] = {u: set() for u in g.vertices()}
    for l, r in g.edges:
        adj[l].add(r)
        adj[r].add(l)
    return adj


def _renumber(signature: dict[str, tuple]) -> dict[str, int]:
    """Classes as ints in the sorted order of their signatures."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
    return {v: rank[sig] for v, sig in signature.items()}


def _refine_classes(g: Bigraph) -> dict[str, int]:
    """Iterated neighbour-class refinement from (side, degree), by name."""
    adj = _adjacency(g)
    color = _renumber({v: (1 if v in g.left else 2, len(adj[v])) for v in g.vertices()})
    for _ in range(g.v):
        nxt = _renumber({v: (color[v], tuple(sorted(color[w] for w in adj[v])))
                         for v in g.vertices()})
        if len(set(nxt.values())) == len(set(color.values())):
            break
        color = nxt
    return color


def _search_maps(g1: Bigraph, g2: Bigraph, prescribed: Mapping[str, str],
                 find_all: bool) -> list[dict[str, str]]:
    """Backtracking search for side/edge-preserving bijections g1 -> g2."""
    if g1.v1 != g2.v1 or g1.v2 != g2.v2 or g1.e != g2.e:
        return []
    c1, c2 = _refine_classes(g1), _refine_classes(g2)
    by_color: dict[int, list[str]] = {}
    for u in g2.vertices():
        by_color.setdefault(c2[u], []).append(u)
    for us in by_color.values():
        us.sort()
    adj1, adj2 = _adjacency(g1), _adjacency(g2)

    order = sorted(g1.vertices(),
                   key=lambda v: (len(by_color.get(c1[v], ())), c1[v], v))
    img: dict[str, str] = {}
    used: set[str] = set()
    out: list[dict[str, str]] = []

    for v, u in prescribed.items():
        if c1.get(v) != c2.get(u):
            return []

    def consistent(v: str, u: str) -> bool:
        if v in prescribed and prescribed[v] != u:
            return False
        for w, wu in img.items():
            if (w in adj1[v]) != (wu in adj2[u]):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            out.append(dict(img))
            return not find_all
        v = order[i]
        for u in by_color.get(c1[v], ()):
            if u in used or not consistent(v, u):
                continue
            img[v] = u
            used.add(u)
            if extend(i + 1):
                return True
            del img[v]
            used.discard(u)
        return False

    extend(0)
    return out


def automorphisms(g):
    """The whole automorphism group of g, sorted by images of g.vertices()."""
    maps = _search_maps(g, g, {}, find_all=True)
    verts = g.vertices()
    maps.sort(key=lambda m: tuple(m[v] for v in verts))
    return maps


def involutions(g):
    """The involutive automorphisms of g, filtered from the whole group."""
    return [a for a in automorphisms(g) if all(a[a[v]] == v for v in a)]


def components(g: Bigraph) -> list[frozenset[str]]:
    """Connected components by a BFS over string adjacency sets."""
    adj = _adjacency(g)
    seen: set[str] = set()
    comps = []
    for start in g.vertices():
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=lambda c: min(c))


def _complete(phi: Mapping[str, str], comps: list[frozenset[str]]) -> Optional[Fold]:
    """The fold completing phi, L taking of each swapped pair of components
    the one with the smallest vertex name; None when phi fixes a component."""
    images = [frozenset(phi[v] for v in comp) for comp in comps]
    if any(img == comp for comp, img in zip(comps, images)):
        return None
    left: set[str] = set()
    taken: set[frozenset[str]] = set()
    for comp, img in zip(comps, images):
        if comp in taken or img in taken:
            continue
        chosen = comp if min(comp) <= min(img) else img
        left |= chosen
        taken |= {comp, img}
    return Fold(phi, left)


def enumerate_folds(g, involutive):
    """The folds of g, given its involutive automorphisms in canonical order."""
    folds = []
    for a in involutive:
        comps = components(g.without_vertices(v for v in a if a[v] == v))
        if len(comps) < 2:
            continue
        fold = _complete(a, comps)
        if fold is not None:
            folds.append(fold)
    return folds


def _moves(spec, elements, fold):
    """Each element paired with its image under the fold's left-folding map."""
    phi_l = fold.left_map()
    return [(x, spec.move(phi_l, x)) for x in elements]


def _preimage(moves, target):
    """The elements whose image lies in target."""
    return frozenset(x for x, y in moves if y in target)


def search(g, mode, pool, budget):
    """FIFO BFS over frozenset states with the fold list `pool`."""
    spec = _MODES[mode]
    elements = spec.elements(g)
    moves = [_moves(spec, elements, fold) for fold in pool]
    goal = frozenset(elements)
    parents = {frozenset({x}): None for x in elements}
    queue = deque(parents)

    def build(state):
        chain, fold_idx = [state], []
        while parents[state] is not None:
            state, idx = parents[state]
            chain.append(state)
            fold_idx.append(idx)
        return PercolationCertificate(mode, [pool[i] for i in reversed(fold_idx)],
                                      chain[::-1])

    if goal in parents:
        return build(goal)
    explored = len(parents)
    if explored > budget:
        return NotFound("budget", explored)
    while queue:
        state = queue.popleft()
        for idx, fold_moves in enumerate(moves):
            nxt = _preimage(fold_moves, state)
            if not nxt or nxt in parents:
                continue
            parents[nxt] = (state, idx)
            explored += 1
            if nxt == goal:
                return build(nxt)
            if explored > budget:
                return NotFound("budget", explored)
            queue.append(nxt)
    return NotFound("exhausted", explored)
