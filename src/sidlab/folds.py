"""Cut-involutions and folds.

A fold is a pair (phi, L): phi is an involutive automorphism whose fixed
set is a vertex cut, and L is a union of connected components of
G - Fix(phi) such that (L, Fix(phi), phi(L)) partitions V(G). The derived
left/right folding maps phi_L and phi_L* are endomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .bigraph import Bigraph, GraphTooLargeError, _bits, _json_object, _refine_classes

__all__ = [
    "Fold",
    "is_cut_involution",
    "complete_to_fold",
    "folding_maps",
    "enumerate_folds",
    "check_fold",
    "fold_to_json",
    "fold_from_json",
]


@dataclass(frozen=True)
class Fold:
    """A cut-involution together with its chosen left side L."""

    phi_items: tuple[tuple[str, str], ...]
    left: frozenset[str]

    def __init__(self, phi: Mapping[str, str], left: Iterable[str]):
        object.__setattr__(self, "phi_items", tuple(sorted(phi.items())))
        object.__setattr__(self, "left", frozenset(left))

    @property
    def phi(self) -> dict[str, str]:
        return dict(self.phi_items)

    @property
    def fixed(self) -> frozenset[str]:
        return frozenset(v for v, w in self.phi_items if v == w)

    def left_map(self) -> dict[str, str]:
        """phi_L: identity on L, phi elsewhere."""
        return {v: (v if v in self.left else w) for v, w in self.phi_items}

    def right_map(self) -> dict[str, str]:
        """phi_L*: phi on L, identity elsewhere."""
        return {v: (w if v in self.left else v) for v, w in self.phi_items}


def _cut_components(g: Bigraph, phi: Mapping[str, str]) -> str | list[frozenset[str]]:
    """The components of G - Fix(phi) if phi is a cut-involution of g, else
    the reason for the first axiom it fails. Raises ValueError when phi is
    not a bijection of V(G)."""
    verts = g.vertex_set()
    if set(phi) != verts:
        raise ValueError("phi must be defined on exactly V(G)")
    if set(phi.values()) != verts:
        raise ValueError("phi must be a bijection of V(G)")
    # a bijective endomorphism of a finite graph is an automorphism
    if not g.is_endomorphism(phi):
        return "phi is not an automorphism"
    if any(phi[phi[v]] != v for v in phi):
        return "phi is not an involution"
    comps = g.without_vertices(v for v in phi if phi[v] == v).components()
    if len(comps) < 2:
        return "Fix(phi) is not a vertex cut"
    return comps


def _complete(phi: Mapping[str, str], comps: list[frozenset[str]]) -> Optional[Fold]:
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


def is_cut_involution(g: Bigraph, phi: Mapping[str, str]) -> bool:
    """True iff phi is an involutive automorphism whose fixed set is a vertex cut."""
    return not isinstance(_cut_components(g, phi), str)


def complete_to_fold(g: Bigraph, phi: Mapping[str, str]) -> Optional[Fold]:
    """Complete a cut-involution to a fold, or return None when impossible.

    A completion exists iff no connected component of G - Fix(phi) is fixed
    by phi as a set; L is canonicalized by choosing, out of each pair of
    phi-swapped components, the one containing the smallest vertex id.
    """
    comps = _cut_components(g, phi)
    if isinstance(comps, str):
        raise ValueError("phi is not a cut-involution of g")
    return _complete(phi, comps)


def check_fold(g: Bigraph, fold: Fold) -> None:
    """Validate every fold axiom against g; raises ValueError on failure."""
    phi = fold.phi
    comps = _cut_components(g, phi)
    if isinstance(comps, str):
        raise ValueError(comps)
    fixed = fold.fixed
    left = fold.left
    phi_left = frozenset(phi[v] for v in left)
    if left & fixed or left & phi_left:
        raise ValueError("(L, Fix, phi(L)) must be disjoint")
    if left | fixed | phi_left != g.vertex_set():
        raise ValueError("(L, Fix, phi(L)) must cover V(G)")
    for comp in comps:
        if comp & left and not comp <= left:
            raise ValueError("L must be a union of components of G - Fix(phi)")


def folding_maps(g: Bigraph, fold: Fold) -> tuple[dict[str, str], dict[str, str]]:
    """The left- and right-folding maps (phi_L, phi_L*), both endomorphisms of g."""
    check_fold(g, fold)
    return fold.left_map(), fold.right_map()


# candidate images the involution search may try before it refuses a graph
_INVOLUTION_SEARCH_NODES = 10**6


def _involutions(g: Bigraph) -> list[list[int]]:
    """Every involutive automorphism of g, as image lists over g.vertices().

    Backtracks over vertices in order of refinement-class size, assigning
    phi(v) = u and phi(u) = v together. Candidates u are the unassigned
    members of v's class adjacent to the images of all of v's assigned
    neighbours; u is kept iff those are all of its assigned neighbours.
    phi is an involution on the assigned set, so that one check covers u
    as well. (The refinement classes are equitable and each lies on one
    side, so taking them in turn already gives v and u equally many
    assigned neighbours; the check keeps the search exact without relying
    on that.) Raises GraphTooLargeError once more than
    _INVOLUTION_SEARCH_NODES candidates have been tried.
    """
    index = g._index
    names, adj = index.names, index.adj
    n = len(names)
    color = _refine_classes(g)
    members: dict[int, int] = {}
    for i, v in enumerate(names):
        members[color[v]] = members.get(color[v], 0) | 1 << i
    same_class = [members[color[v]] for v in names]
    order = sorted(range(n), key=lambda i: (same_class[i].bit_count(),
                                            color[names[i]], names[i]))
    phi = [-1] * n
    assigned = 0  # bitmask of the vertices phi is defined on

    def free_from(k: int) -> int:
        while k < n and phi[order[k]] >= 0:
            k += 1
        return k

    def candidates(v: int) -> tuple[int, int]:
        """phi of v's assigned neighbours, and the mask of candidate images."""
        image, cands = 0, same_class[v] & ~assigned
        for w in _bits(adj[v] & assigned):
            image |= 1 << phi[w]
            cands &= adj[phi[w]]
        return image, cands

    out: list[list[int]] = []
    trail: list[tuple[int, int, int]] = []  # (order position, image, candidates left)
    nodes = 0
    k = free_from(0)
    if k == n:
        return [phi]
    image, cands = candidates(order[k])
    while True:
        v = order[k]
        u = -1
        while cands:
            low = cands & -cands
            cands ^= low
            nodes += 1
            if adj[low.bit_length() - 1] & assigned == image:
                u = low.bit_length() - 1
                break
        if nodes > _INVOLUTION_SEARCH_NODES:
            raise GraphTooLargeError(
                f"fold enumeration stopped after {nodes} search nodes "
                f"(budget {_INVOLUTION_SEARCH_NODES})")
        if u < 0:  # no image left for v: reopen the last pair
            if not trail:
                return out
            k, image, cands = trail.pop()
            v = order[k]
            u = phi[v]
        else:
            phi[v], phi[u] = u, v
            assigned |= (1 << v) | (1 << u)
            nxt = free_from(k + 1)
            if nxt < n:
                trail.append((k, image, cands))
                k = nxt
                image, cands = candidates(order[k])
                continue
            out.append(phi.copy())
        phi[v] = phi[u] = -1
        assigned &= ~((1 << v) | (1 << u))


def enumerate_folds(g: Bigraph) -> list[Fold]:
    """All folds of g up to the canonical choice of L, in deterministic order.

    Searches the involutive automorphisms directly, never the whole group,
    keeps those whose fixed set is a cut and whose components complete to a
    fold, and sorts them by their images of g.vertices(). The search is
    bounded by a budget of nodes visited, not by vertex count; past it,
    GraphTooLargeError names the nodes visited.
    """
    names = g.vertices()
    found: list[tuple[tuple[str, ...], Fold]] = []
    for image in _involutions(g):
        phi = dict(zip(names, (names[j] for j in image)))
        comps = _cut_components(g, phi)
        if isinstance(comps, str):
            continue
        fold = _complete(phi, comps)
        if fold is not None:
            found.append((tuple(phi.values()), fold))
    found.sort(key=lambda kf: kf[0])
    return [fold for _, fold in found]


# ---------------------------------------------------------------------------
# JSON: {"phi": {vertex: vertex, ...}, "left": [ids]}


def fold_to_json(f: Fold) -> dict:
    return {"phi": dict(f.phi_items), "left": sorted(f.left)}


def fold_from_json(d: Mapping) -> Fold:
    _json_object(d, "fold", "phi", "left")
    return Fold(dict(d["phi"]), d["left"])
