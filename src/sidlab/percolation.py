"""Cut-percolation certificates: search, independent verification, lifting.

A certificate is a sequence of folds together with the trajectory of edge
sets E_0..E_m (edge mode) or left-vertex sets U_0..U_m (left mode), where
each step is the exact preimage of the previous set under the fold's
left-folding map. What the two modes differ in lives in one table: the
elements a state ranges over, how a vertex map moves one element, the
goal's name and an element's JSON codec. Searches are BFS over reachable
subsets, so returned certificates are shortest within the supplied fold
pool.

The search runs on integers. Its pool is (image, left mask) pairs (see
`sidlab.folds`). A fold is checked once, where it enters: `_fold_pool` checks
and converts a supplied pool of `Fold`s; the default and reflection pools are
built as pairs and go to the search unchecked. `_moves` compiles the stacked
pool at once (one np.where gives every phi_L, one gather through an element
lookup its moves): moves[f, i] is the position of the image of element i
under fold f, so a state's preimage under f is state[moves[f]]. Only the
first fold of each distinct row of moves is searched.

Each BFS level is a packed bit array, expanded in bounded chunks of rows,
and a preimage is read from tables, one lookup per byte in place of a
gather of its bits (Warren, *Hacker's Delight*, ch. 7). `_tables` splits a
packed state into digits of 8, 4 or 2 bits, in the order `np.packbits`
gives its bytes, and tables[d, v, f] holds the packed elements whose image
under fold f is an element of value v of digit d. The OR over a state's
digits of tables[d, (its digit d), f] holds element i exactly when its
image moves[f, i] is in the state: it is state[moves[f]] bit for bit,
padding bits zero. For states of nbytes bytes packed into width-byte items
the tables take 2**bits * 8 / bits * nbytes * folds * width bytes, and one
rule bounds them: a lookup reads the widest of 8, 4 and 2 bits whose
tables fit in `_TABLE_BYTES`, and 2 bits when none does. They are built
once per search and freed when it returns.

A chunk's candidates are deduplicated in `_fresh`, which with `_tier` is
the only code that handles keys, by sorting their keys and searching
sorted tiers of the states seen (see `_search`), keeping the first
occurrence of each in the order a queue-based BFS meets them; parents,
certificates, state counts, and where the goal check and the budget stop
fall, are therefore the same as for a queue. Parents are kept per level as
one array of parent row * distinct folds + fold index, and a certificate's
states are recomputed from its start element and folds; only its folds
become `Fold`s. `verify_certificate` recomputes every preimage over
frozensets, apart from the search, once per returned certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .bigraph import Bigraph, _orbit, amalgamate_left
from .folds import Fold, _fold, _fold_pool, check_fold, fold_from_json, fold_to_json
from .schema import check

__all__ = [
    "PercolationCertificate",
    "NotFound",
    "VerificationResult",
    "verify_certificate",
    "find_left_cut_percolating",
    "find_cut_percolating",
    "lift_certificate",
    "certificate_fold_group_transitive",
    "project_to_left",
    "certificate_to_json",
    "certificate_from_json",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6

# frontier rows expanded together are capped so that one chunk has at most
# about this many (candidate, element) cells
_CHUNK_CELLS = 1 << 20

# preimage tables (see `_tables`) take at most this many bytes, unless even
# two bits per lookup exceed it
_TABLE_BYTES = 1 << 23

# each tier of seen states is kept at least this many times as long as the
# next, so a search visits few tiers and a state is merged a few times in all
_TIER_RATIO = 8

LeftState = frozenset[str]
EdgeState = frozenset[tuple[str, str]]
State = Union[LeftState, EdgeState]


@dataclass(frozen=True)
class _Mode:
    elements: Callable[[Bigraph], Sequence]  # in the order of the start states
    move: Callable[[Mapping[str, str], Any], Any]  # a vertex map's image of one element
    goal: str
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    empty: str  # the search's refusal of a graph without elements


_MODES = {
    "left": _Mode(lambda g: g.left, lambda m, v: m[v], "V_1(G)",
                  lambda v: v, lambda v: v, "graph has an empty left side"),
    "edge": _Mode(lambda g: g.sorted_edges(), lambda m, e: (m[e[0]], m[e[1]]),
                  "E(G)", list, tuple, "graph has no edges"),
}


def _mode(name: str) -> _Mode:
    spec = _MODES.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ValueError("mode must be 'left' or 'edge'")
    return spec


@dataclass(frozen=True)
class PercolationCertificate:
    """Folds plus the trajectory they induce; independently checkable."""

    mode: str  # "left" | "edge"
    folds: tuple[Fold, ...]
    trajectory: tuple[State, ...]

    def __init__(self, mode: str, folds: Sequence[Fold], trajectory: Sequence[Iterable]):
        _mode(mode)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "folds", tuple(folds))
        object.__setattr__(self, "trajectory",
                           tuple(frozenset(s) for s in trajectory))

    @property
    def length(self) -> int:
        return len(self.folds)


@dataclass(frozen=True)
class NotFound:
    """Search failure; `reason` tells a budget cutoff from exhaustion."""

    reason: str  # "exhausted" | "budget"
    states_explored: int

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: Bigraph, cert: PercolationCertificate) -> VerificationResult:
    """Re-check every fold axiom and every trajectory step from first principles.

    Independent of the search path: folds are validated against g and each
    trajectory entry is recomputed as the exact preimage of its predecessor.
    """
    traj = cert.trajectory
    if not traj:
        return VerificationResult(False, "empty trajectory")
    if len(cert.folds) != len(traj) - 1:
        return VerificationResult(
            False, f"{len(cert.folds)} folds vs {len(traj)} trajectory entries")

    spec = _MODES[cert.mode]
    elements = spec.elements(g)
    universe = frozenset(elements)
    for i, entry in enumerate(traj):
        if not entry <= universe:
            return VerificationResult(False, f"trajectory[{i}] not inside the graph")
    if len(traj[0]) != 1:
        return VerificationResult(False, "trajectory[0] must be a singleton")
    if traj[-1] != universe:
        return VerificationResult(False, f"trajectory does not end at {spec.goal}")

    for i, fold in enumerate(cert.folds, start=1):
        try:
            check_fold(g, fold)
        except ValueError as exc:
            return VerificationResult(False, f"fold {i}: {exc}")
        phi_l = fold.left_map()
        if traj[i] != frozenset(x for x in elements if spec.move(phi_l, x) in traj[i - 1]):
            return VerificationResult(
                False, f"trajectory[{i}] is not the preimage of trajectory[{i - 1}]")
    return VerificationResult(True)


def _moves(g: Bigraph, mode: str, pool: Sequence[tuple[list[int], int]]) -> np.ndarray:
    """The moves of `pool`, (image, left mask) pairs taken to be folds of g:
    entry [f, i] is the position of element i's image under fold f's
    left-folding map, so a state's preimage under f is state[moves[f]]."""
    spec, v, nbytes = _MODES[mode], g.v, (g.v + 7) // 8
    # each element's vertex indices, a left one first, as one code in base v
    ends = np.array([spec.move(g._index.pos, x) for x in spec.elements(g)], dtype=np.intp)
    ends = ends.reshape(len(ends), -1)
    radix = v ** np.arange(ends.shape[1])[::-1]
    lookup = np.zeros(g.v1 * radix[0], dtype=np.intp)
    lookup[ends @ radix] = np.arange(len(ends))
    # phi_L is the identity on the left mask and the image elsewhere
    lefts = np.frombuffer(b"".join(left.to_bytes(nbytes, "little") for _, left in pool),
                          dtype=np.uint8).reshape(len(pool), nbytes)
    lefts = np.unpackbits(lefts, axis=1, count=v, bitorder="little")
    images = np.array([image for image, _ in pool], dtype=np.intp).reshape(len(pool), v)
    return lookup[np.where(lefts, np.arange(v), images)[:, ends] @ radix]


# an odd constant (2^64 over the golden ratio) that mixes words into a key
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _words(states: np.ndarray) -> np.ndarray:
    """Packed states, one void item each, as rows of uint64 words."""
    return states.view(np.uint64).reshape(len(states), states.itemsize // 8)


def _keys(states: np.ndarray) -> tuple[np.ndarray, bool]:
    """One uint64 key per packed state, and whether a key identifies its
    state: a one-word state is its own key; wider ones are keyed by a mix
    of their words, which unequal states may share."""
    if states.itemsize == 8:
        return states.view(np.uint64), True
    words = _words(states)
    keys = words[:, 0]
    for j in range(1, words.shape[1]):
        keys = ((keys ^ (keys >> np.uint64(29))) * _MIX) ^ words[:, j]
    return keys, False


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether packed states a[i] and b[i] differ, compared word by word."""
    a, b = _words(a), _words(b)
    out = a[:, 0] != b[:, 0]
    for j in range(1, a.shape[1]):
        out |= a[:, j] != b[:, j]
    return out


def _tier(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed states as a tier of seen states (see `_fresh`):
    their keys in sorted order, and the states in that order."""
    keys = _keys(states)[0]
    order = keys.argsort(kind="stable")
    return keys[order], states[order]


def _fresh(cands: np.ndarray, seen: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The first occurrence of each candidate state not in `seen`, as
    ascending candidate indices; those states are added to `seen`, a list
    of tiers (sorted keys, their states), the only place keys are kept.

    One argsort groups the candidates by key, and the smallest index in a
    run of equal keys is the run's first occurrence; a search of each tier
    drops the runs already seen. Where keys do not identify states, a run
    whose states differ, or whose key a tier holds first for another
    state, holds a key collision: its states are compared whole, in index
    order, with every seen state of that key.

    Tiers are merged at the start of a call, where they are searched, so a
    search merges none after its last chunk. Two tiers merge by scattering
    them into one, each newer state after the older ones of its key."""
    while len(seen) > 1 and _TIER_RATIO * len(seen[-1][0]) > len(seen[-2][0]):
        (keys_a, states_a), (keys_b, states_b) = seen.pop(-2), seen.pop()
        at = keys_a.searchsorted(keys_b, side="right") + np.arange(len(keys_b))
        older = np.ones(len(keys_a) + len(keys_b), dtype=bool)
        older[at] = False
        states = np.empty(len(older), states_a.dtype)
        states[older], states[at] = states_a, states_b
        del states_a, states_b  # the larger arrays: freed before the keys merge, for peak memory
        keys = np.empty(len(older), keys_a.dtype)
        keys[older], keys[at] = keys_a, keys_b
        seen.append((keys, states))
    keys, exact = _keys(cands)
    order = keys.argsort()
    sorted_keys = keys[order]
    new_run = np.empty(len(keys), dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    starts = new_run.nonzero()[0]
    first = np.minimum.reduceat(order, starts)
    run_keys = sorted_keys[starts]
    unseen = np.ones(len(starts), dtype=bool)
    if not exact:  # runs of unequal states hold collisions
        sorted_states = cands[order]
        differ = _differ(sorted_states[1:], sorted_states[:-1]) & ~new_run[1:]
        clash = np.logical_or.reduceat(np.concatenate(([False], differ)), starts)
    for tier_keys, tier_states in seen:
        at = tier_keys.searchsorted(run_keys)
        hit = tier_keys.take(at, mode="clip") == run_keys
        unseen[hit] = False
        if not exact:  # so do runs whose key the tier holds first for another state
            found = hit.nonzero()[0]
            clash[found] |= _differ(tier_states[at[found]], cands[first[found]])
    if exact or not clash.any():
        fresh = first[unseen]
    else:
        fresh = first[unseen & ~clash]
        ends = np.append(starts[1:], len(keys))
        extra = []
        for r in clash.nonzero()[0]:
            key = run_keys[r]
            known = {state.tobytes() for tier_keys, tier_states in seen
                     for state in tier_states[tier_keys.searchsorted(key):
                                              tier_keys.searchsorted(key, side="right")]}
            for i in np.sort(order[starts[r]:ends[r]]):
                state = cands[i].tobytes()
                if state not in known:
                    known.add(state)
                    extra.append(i)
        fresh = np.concatenate([fresh, np.array(extra, dtype=fresh.dtype)])
        fresh = fresh[np.argsort(keys[fresh], kind="stable")]
    # fresh is in key order, so it is a tier
    if len(fresh):
        seen.append((keys[fresh], cands[fresh]))
    fresh.sort()
    return fresh


def _tables(imgs: np.ndarray, nbytes: int, width: int) -> np.ndarray:
    """Preimage tables of the moves `imgs` for states of `nbytes` bytes
    packed into `width`-byte items.

    A lookup reads one digit of `bits` state bits: digit d holds elements
    d * bits to (d + 1) * bits - 1, the first at its highest bit, as
    `np.packbits` orders a byte. tables[d, v, f] holds, packed into whole
    words, the elements whose image under fold f is an element of value v
    of digit d; so a state's preimage under fold f is the OR over its
    digits d of tables[d, (its digit d), f] (see `_preimages`). Each
    element's fiber (the elements whose image it is) is set at the one-bit
    value of its one-bit digit, and pairs of digits are then joined by
    doubling: the value hi * 2**b + lo of a pair of b-bit digits is the OR
    of value hi of the first and value lo of the second.

    The tables take 2**bits * 8 / bits * nbytes * folds * width bytes: 256,
    32 and 16 times nbytes * folds * width for 8, 4 and 2 bits. A lookup
    reads the widest of 8, 4 and 2 bits whose tables fit in `_TABLE_BYTES`,
    and 2 bits when none does (one bit per lookup would take as many bytes
    as two)."""
    n_folds, n = imgs.shape
    size = nbytes * n_folds * width
    bits = 8 if 256 * size <= _TABLE_BYTES else 4 if 32 * size <= _TABLE_BYTES else 2
    tables = np.zeros((8 * nbytes, 2, n_folds, width), dtype=np.uint8)
    # element i is bit 7 - i % 8 of byte i // 8, as `np.packbits` packs it
    byte, bit = np.divmod(np.arange(n), 8)
    np.bitwise_or.at(tables, (imgs, 1, np.arange(n_folds)[:, None], byte),
                     (0x80 >> bit).astype(np.uint8))
    tables = tables.view(np.uint64)
    while tables.shape[1] < 2**bits:
        hi, lo = tables[0::2, :, None], tables[1::2, None]
        tables = (hi | lo).reshape(len(hi), -1, n_folds, width // 8)
    return tables


def _preimages(states: np.ndarray, tables: np.ndarray, nbytes: int) -> np.ndarray:
    """The preimage of each packed state under each fold of `tables` (see
    `_tables`), as packed states in (state, fold) order: one table lookup
    per digit of the states, ORed together."""
    bits = 8 * nbytes // len(tables)
    digits = states.view(np.uint8).reshape(len(states), -1)[:, :nbytes].T
    if bits < 8:
        shifts = np.arange(8 - bits, -1, -bits, dtype=np.uint8)[:, None]
        digits = (digits[:, None] >> shifts & (2**bits - 1)).reshape(-1, len(states))
    out = tables[0, digits[0]]
    for d in range(1, len(digits)):
        out |= tables[d, digits[d]]
    return out.view(states.dtype).ravel()


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """Arrays joined end to end; a single one as it is, without a copy."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _search(g: Bigraph, mode: str, pool: Sequence[tuple[list[int], int]],
            budget: int) -> PercolationCertificate | NotFound:
    """BFS over `pool`, (image, left mask) pairs taken to be folds of g, from
    every singleton state to the set of all elements. The start states
    count as explored; the search stops with `budget` once more than budget
    states are explored, before any expansion when the start states alone
    are more than budget (unless one of them is the goal, which is answered
    without reading the pool).

    A state is packed into whole uint64 words, one void item per state. Its
    key is its word when it has one (up to 64 elements), so that the key is
    the state; a wider state is keyed by a mix of its words, and states that
    share a key are told apart by comparing them word by word (see `_fresh`),
    so a collision costs time but never merges two states. The goal is found
    among the fresh states by comparing states whole. A chunk's candidates
    are in (state row, fold) order. A FIFO queue pops a level's states in the
    order they were found and tries the folds in pool order, so this is the
    order in which it meets them, and the first occurrence of each state that
    no earlier chunk found is the state it enqueues: fresh states, their
    order, parents and fold indices, the state count, and where the goal
    check and the budget stop fall, are the same as for the queue.

    Only the first fold of each distinct move row is searched; parents and
    certificates keep the pool's fold indices. A later fold with the same
    row gives each state the candidate the earlier fold gives it, which
    comes first in (state row, fold) order within the same chunk; so the
    later fold's candidate is never a first occurrence, never fresh, and
    dropping it changes no fresh state, order, parent, count or stop.

    A chunk's candidates come from `_preimages`, one lookup per digit of
    each state in the tables of `_tables`, which are built once here and
    freed on return. tables[d, v, f] holds exactly the elements whose image
    under fold f is in value v of digit d, so the OR over a state's digits
    holds element i exactly when element moves[f, i] is in the state: bit
    for bit the gathered preimage state[moves[f]], in the same (state row,
    fold) order, with padding bits (the image of no element) zero. The
    tables take at most `_TABLE_BYTES` unless even 2 bits per lookup pass
    it (see `_tables`)."""
    elements = _MODES[mode].elements(g)
    n = len(elements)

    def build(start: int, fold_idx: list[int]) -> PercolationCertificate:
        state = np.zeros(n, dtype=bool)
        state[start] = True
        chain = [state]
        for f in fold_idx:
            state = state[imgs[f]]
            chain.append(state)
        cert = PercolationCertificate(
            mode, [_fold(g, *pool[kept[f]]) for f in fold_idx],
            [[elements[i] for i in np.flatnonzero(s)] for s in chain])
        res = verify_certificate(g, cert)
        if not res:
            raise AssertionError(f"search produced an invalid certificate: {res.reason}")
        return cert

    if n == 1:
        return build(0, [])
    explored = n
    if explored > budget:
        return NotFound("budget", explored)
    if not pool:
        return NotFound("exhausted", explored)
    imgs = _moves(g, mode, pool)
    # the first fold of each distinct move row, by a stable sort of the rows
    rows = imgs.view(np.dtype((np.void, imgs.itemsize * n))).ravel()
    order = rows.argsort(kind="stable")
    rows = rows[order]
    kept = np.sort(order[np.concatenate(([True], rows[1:] != rows[:-1]))])
    imgs = imgs[kept]
    n_folds = len(kept)
    # states are packed to whole bytes, then to whole words; padding bits
    # are zero
    nbytes, width = (n + 7) // 8, 8 * ((n + 63) // 64)
    state_type = np.dtype((np.void, width))
    tables = _tables(imgs, nbytes, width)

    # the singletons, the empty state and the goal
    initial = np.eye(n + 2, 8 * width, dtype=bool)
    initial[n:] = False
    initial[n + 1, :n] = True
    initial = np.packbits(initial, axis=1).view(state_type).ravel()
    frontier, goal = initial[:n], initial[n + 1]
    # the empty state is never explored; seeding it skips empty preimages
    seen = [_tier(initial[:n + 1])]
    # per level after the first: each state's candidate index in its level,
    # parent row * n_folds + fold index, in the smallest unsigned type that
    # holds every candidate index of the level
    parents: list[np.ndarray] = []
    rows_per_chunk = max(1, _CHUNK_CELLS // (n_folds * n))
    while len(frontier):
        level_rows, level_parents = [], []
        index_type = np.min_scalar_type(len(frontier) * n_folds)
        for lo in range(0, len(frontier), rows_per_chunk):
            # candidates in (state row, fold) order, which is the order a
            # FIFO queue would generate them in
            cands = _preimages(frontier[lo:lo + rows_per_chunk], tables, nbytes)
            fresh = _fresh(cands, seen)
            if not len(fresh):
                continue
            over = budget - explored  # fresh[over] would pass the budget
            found = cands[fresh]
            at_goal = np.flatnonzero(found == goal)
            if len(at_goal) and at_goal[0] <= over:
                row, f = divmod(int(fresh[at_goal[0]]) + lo * n_folds, n_folds)
                fold_idx = [f]
                for level in reversed(parents):
                    row, f = divmod(int(level[row]), n_folds)
                    fold_idx.append(f)
                return build(row, fold_idx[::-1])
            if len(fresh) > over:
                return NotFound("budget", budget + 1)
            explored += len(fresh)
            level_rows.append(found)
            level_parents.append((fresh + lo * n_folds).astype(index_type))
        if not level_rows:
            break
        del frontier  # each level is freed before the next one is joined, for peak memory
        frontier = _join(level_rows)
        del level_rows
        parents.append(_join(level_parents))
    return NotFound("exhausted", explored)


def _pool(g: Bigraph, mode: str, fold_pool: Optional[Sequence[Fold]]
          ) -> list[tuple[list[int], int]]:
    """Refuse a graph without elements, else `_fold_pool`; a single element,
    whose start state `_search` answers, enumerates no default pool."""
    spec = _MODES[mode]
    elements = len(spec.elements(g))
    if not elements:
        raise ValueError(spec.empty)
    return [] if elements == 1 and fold_pool is None else _fold_pool(g, fold_pool)


def find_left_cut_percolating(g: Bigraph, fold_pool: Optional[Sequence[Fold]] = None,
                              budget: int = DEFAULT_BUDGET
                              ) -> PercolationCertificate | NotFound:
    """Shortest left-vertex-mode certificate within the pool, or NotFound.

    The default pool is every fold of g; passing a pool restricts the
    search to sequences of folds from that set.
    """
    return _search(g, "left", _pool(g, "left", fold_pool), budget)


def find_cut_percolating(g: Bigraph, fold_pool: Optional[Sequence[Fold]] = None,
                         budget: int = DEFAULT_BUDGET
                         ) -> PercolationCertificate | NotFound:
    """Shortest edge-mode certificate within the pool, or NotFound."""
    return _search(g, "edge", _pool(g, "edge", fold_pool), budget)


def lift_certificate(parts: Sequence[Bigraph], base_cert: PercolationCertificate,
                     matched_folds: Sequence[Sequence[Fold]]) -> PercolationCertificate:
    """Lift a left-mode certificate of parts[0] to the left amalgamation.

    matched_folds[i] supplies, for step i, one fold of each of parts[1:]
    that agrees with the base fold on the shared left side, both in the
    folding map and in the intersection of L with V_1. The lifted folds
    are the amalgamated maps with L the union of the part left sides.
    """
    if not parts:
        raise ValueError("need at least one part")
    if base_cert.mode != "left":
        raise ValueError("lifting is defined for left-vertex-mode certificates")
    res = verify_certificate(parts[0], base_cert)
    if not res:
        raise ValueError(f"base certificate invalid: {res.reason}")
    if len(matched_folds) != len(base_cert.folds):
        raise ValueError("need matched folds for every step")
    v1 = frozenset(parts[0].left)

    lifted: list[Fold] = []
    for i, base_fold in enumerate(base_cert.folds):
        step = list(matched_folds[i])
        if len(step) != len(parts) - 1:
            raise ValueError(f"step {i}: need one fold per extra part")
        phi_hat = dict(base_fold.phi)
        left_hat = set(base_fold.left)
        base_restriction = {v: base_fold.phi[v] for v in v1}
        base_left_v1 = base_fold.left & v1
        for part, fold in zip(parts[1:], step):
            check_fold(part, fold)
            phi = fold.phi
            if {v: phi[v] for v in v1} != base_restriction:
                raise ValueError(f"step {i}: folding maps disagree on V_1")
            if fold.left & v1 != base_left_v1:
                raise ValueError(f"step {i}: left sides have different V_1 intersections")
            phi_hat.update(phi)  # phi agrees with the base on V_1
            left_hat |= (fold.left - v1)
        lifted.append(Fold(phi_hat, left_hat))

    g = amalgamate_left(parts)
    cert = PercolationCertificate("left", lifted, base_cert.trajectory)
    res = verify_certificate(g, cert)
    if not res:
        raise AssertionError(f"lifted certificate failed verification: {res.reason}")
    return cert


def certificate_fold_group_transitive(g: Bigraph, cert: PercolationCertificate) -> bool:
    """Orbit check: the group generated by the certificate folds acts
    transitively on V_1 (left mode) or E (edge mode)."""
    spec = _MODES[cert.mode]
    start = next(iter(cert.trajectory[0]))
    return _orbit(start, [f.phi for f in cert.folds], spec.move) == set(spec.elements(g))


def project_to_left(g: Bigraph, cert: PercolationCertificate) -> PercolationCertificate:
    """Project an edge-mode certificate to left endpoints (left-vertex mode)."""
    if cert.mode != "edge":
        raise ValueError("expected an edge-mode certificate")
    if any(g.degree(v) == 0 for v in g.left):
        raise ValueError("projection requires no isolated left vertices")
    traj = [frozenset(l for l, _ in entry) for entry in cert.trajectory]
    return PercolationCertificate("left", cert.folds, traj)


# ---------------------------------------------------------------------------
# JSON: {"mode": "left"|"edge", "folds": [...], "trajectory": [[...], ...]}


def certificate_to_json(cert: PercolationCertificate) -> dict:
    encode = _MODES[cert.mode].encode
    return {"mode": cert.mode,
            "folds": [fold_to_json(f) for f in cert.folds],
            "trajectory": [[encode(x) for x in sorted(entry)]
                           for entry in cert.trajectory]}


def certificate_from_json(d: Mapping) -> PercolationCertificate:
    """Decode the "edge certificate" format of `schema` when `mode` is
    "edge", else the "left certificate" one."""
    edge = isinstance(d, Mapping) and d.get("mode") == "edge"
    check("edge certificate" if edge else "left certificate", d)
    decode = _mode(d["mode"]).decode
    return PercolationCertificate(d["mode"], [fold_from_json(f) for f in d["folds"]],
                                  [frozenset(map(decode, entry)) for entry in d["trajectory"]])
