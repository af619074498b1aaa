"""Cut-involutions and folds.

A fold is a pair (phi, L): phi is an involutive automorphism whose fixed
set is a vertex cut, and L is a union of connected components of
G - Fix(phi) such that (L, Fix(phi), phi(L)) partitions V(G). The derived
left/right folding maps phi_L and phi_L* are endomorphisms.

Inside sidlab a fold travels as an (image, left mask) pair over the indices
of `Bigraph._index`; `Fold` is built only at the boundary: returns, JSON.
This module is the only one that converts between the two: `_fold` builds
a `Fold` from a pair, unchecked and in the graph's name order, and
`check_fold` returns the pair of the `Fold` it checked. Every search and
tester takes its fold pool from `_fold_pool`.

Completion runs per fixed-set layout: the components of G - Fix, with a
representative and the smallest name of each, are found once per moved set
(`_completer`). An involutive automorphism fixes Fix pointwise, so it permutes
those components, each onto the component of its representative's image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .bigraph import Bigraph, _bits, _maps
from .schema import check

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


def _cut_components(g: Bigraph, phi: Mapping[str, str]) -> str | list[int]:
    """The component masks of G - Fix(phi) if phi is a cut-involution of g,
    else the reason for the first axiom it fails. Raises ValueError when phi
    is not a bijection of V(G)."""
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
    comps = g._index.components(sum(1 << i for i, v in enumerate(g.vertices())
                                    if phi[v] != v))
    if len(comps) < 2:
        return "Fix(phi) is not a vertex cut"
    return comps


def _completer(g: Bigraph, comps: list[int]) -> Callable[[list[int]], Optional[int]]:
    """Completion for comps, the components of G - Fix: an involution moving
    their vertices goes to its canonical left mask (of each swapped pair, the
    component with the smallest name); None if one maps onto itself, or no comps."""
    owner = {i: c for c, comp in enumerate(comps) for i in _bits(comp)}
    reps = [(comp & -comp).bit_length() - 1 for comp in comps]
    first = [min(map(g._index.names.__getitem__, _bits(comp))) for comp in comps]

    def complete(image: list[int]) -> Optional[int]:
        left = 0
        for c, rep in enumerate(reps):
            d = owner[image[rep]]
            if d == c:
                return None
            if first[c] < first[d]:
                left |= comps[c]
        return left or None
    return complete


def _fold(g: Bigraph, image: list[int], left: int) -> Fold:
    """The Fold of an (image, left mask) pair over g.vertices(), unchecked:
    the graph's names in name order zipped with their images' names, the
    items `Fold(phi, left)` would sort into, without the sort."""
    (order, sorted_names), name = g._index.by_name, g._index.names.__getitem__
    fold = object.__new__(Fold)
    values = map(name, map(image.__getitem__, order))
    object.__setattr__(fold, "phi_items", tuple(zip(sorted_names, values)))
    object.__setattr__(fold, "left", frozenset(map(name, _bits(left))))
    return fold


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
    pos = g._index.pos
    image = [pos[phi[v]] for v in g.vertices()]
    left = _completer(g, comps)(image)
    return None if left is None else _fold(g, image, left)


def check_fold(g: Bigraph, fold: Fold) -> tuple[list[int], int]:
    """Validate every fold axiom against g on the string form; raises
    ValueError on failure. Returns the checked fold as its (image over
    g.vertices(), left mask) pair."""
    phi = fold.phi
    comps = _cut_components(g, phi)
    if isinstance(comps, str):
        raise ValueError(comps)
    fixed = fold.fixed
    left = fold.left
    if not left <= phi.keys():
        raise ValueError("L must be a set of vertices of G")
    phi_left = frozenset(phi[v] for v in left)
    if left & fixed or left & phi_left:
        raise ValueError("(L, Fix, phi(L)) must be disjoint")
    if left | fixed | phi_left != g.vertex_set():
        raise ValueError("(L, Fix, phi(L)) must cover V(G)")
    pos = g._index.pos
    left_mask = sum(1 << pos[v] for v in left)
    if any(comp & left_mask and comp & ~left_mask for comp in comps):
        raise ValueError("L must be a union of components of G - Fix(phi)")
    return [pos[phi[v]] for v in g.vertices()], left_mask


def folding_maps(g: Bigraph, fold: Fold) -> tuple[dict[str, str], dict[str, str]]:
    """The left- and right-folding maps (phi_L, phi_L*), both endomorphisms of g."""
    check_fold(g, fold)
    return fold.left_map(), fold.right_map()


def _fold_maps(g: Bigraph) -> list[tuple[list[int], int]]:
    """`enumerate_folds` as (image over g.vertices(), left mask) pairs."""
    found, layouts = [], {}
    # the whole search runs before any filtering, so a refusal comes at once
    for image in list(_maps(g, g, involutive=True)):
        moved = sum(1 << i for i, j in enumerate(image) if i != j)
        if moved not in layouts:
            layouts[moved] = _completer(g, g._index.components(moved))
        left = layouts[moved](image)
        if left is not None:
            found.append((image, left))
    # images are distinct, compared on the same side, where index order is name order
    found.sort()
    return found


def _fold_pool(g: Bigraph, fold_pool: Optional[Iterable[Fold]]) -> list[tuple[list[int], int]]:
    """A supplied pool as (image, left mask) pairs, each fold checked once,
    here, where it enters; else every fold of g, as `_fold_maps` finds them."""
    return _fold_maps(g) if fold_pool is None else [check_fold(g, f) for f in fold_pool]


def enumerate_folds(g: Bigraph) -> list[Fold]:
    """All folds of g up to the canonical choice of L, in deterministic order.

    Searches the involutive automorphisms directly, never the whole group,
    keeps those whose fixed set is a cut and whose components complete to a
    fold, and sorts them by their images of g.vertices(). The search shares
    the node budget of every map search, not a vertex count; past it,
    GraphTooLargeError names the nodes visited. The search guarantees
    bijection, automorphism and involution, so only the cut is checked.
    """
    return [_fold(g, image, left) for image, left in _fold_maps(g)]


# ---------------------------------------------------------------------------
# JSON: {"phi": {vertex: vertex, ...}, "left": [ids]}


def fold_to_json(f: Fold) -> dict:
    return {"phi": dict(f.phi_items), "left": sorted(f.left)}


def fold_from_json(d: Mapping) -> Fold:
    """Decode the "fold" format of `schema`."""
    check("fold", d)
    return Fold(d["phi"], d["left"])
