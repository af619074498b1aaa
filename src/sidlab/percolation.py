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
lookup its moves), so a preimage is a gather; each BFS level is a packed bit
array, expanded in bounded chunks of rows. A chunk's candidates are
deduplicated in `_fresh`, the only code that handles keys, by sorting their
keys and searching sorted tiers of the states seen (see `_search`), keeping
the first occurrence of each in the order a queue-based BFS meets them;
parents, certificates, state counts, and where the goal check and the budget
stop fall, are therefore the same as for a queue. Parents are kept per level
as one array of parent row * pool size + fold index, and a certificate's
states are recomputed from its start element and folds; only its folds become
`Fold`s. `verify_certificate` recomputes every preimage over frozensets, apart
from the search, once per returned certificate.
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

# frontier rows expanded together are capped so that one chunk gathers at
# most about this many candidate cells (one byte each before packing)
_CHUNK_CELLS = 1 << 20

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


def _fresh(cands: np.ndarray, seen: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The first occurrence of each candidate state not in `seen`, as
    ascending candidate indices; those states are added to `seen`, a list
    of tiers (sorted keys, their states), the only place keys are kept.

    One argsort groups the candidates by key, and the smallest index in a
    run of equal keys is the run's first occurrence; a search of each tier
    drops the runs already seen. Where keys do not identify states, a run
    whose states differ, or whose key a tier holds first for another
    state, holds a key collision: its states are compared whole, in index
    order, with every seen state of that key. `np.insert` merges tiers, each
    newer state after the older ones of its key, so no tier is re-sorted."""
    keys, exact = _keys(cands)
    order = keys.argsort()
    sorted_keys = keys[order]
    new_run = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
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
    while len(seen) > 1 and _TIER_RATIO * len(seen[-1][0]) > len(seen[-2][0]):
        (keys_a, states_a), (keys_b, states_b) = seen.pop(-2), seen.pop()
        at = keys_a.searchsorted(keys_b, side="right")
        states = np.insert(states_a, at, states_b)
        del states_a, states_b  # the larger arrays: freed before the keys merge, for peak memory
        seen.append((np.insert(keys_a, at, keys_b), states))
    fresh.sort()
    return fresh


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
    check and the budget stop fall, are the same as for the queue."""
    elements = _MODES[mode].elements(g)
    n, n_folds = len(elements), len(pool)

    def build(start: int, fold_idx: list[int]) -> PercolationCertificate:
        state = np.zeros(n, dtype=bool)
        state[start] = True
        chain = [state]
        for f in fold_idx:
            state = state[imgs[f]]
            chain.append(state)
        cert = PercolationCertificate(
            mode, [_fold(g, *pool[f]) for f in fold_idx],
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
    imgs = _moves(g, mode, pool)
    # states are packed to whole bytes, then to whole words; padding bits
    # are zero, so index n (a padding bit whenever padding exists) pads
    # each row of imgs too
    nbytes, width = (n + 7) // 8, 8 * ((n + 63) // 64)
    gather = np.full((n_folds, 8 * nbytes), n)
    gather[:, :n] = imgs
    state_type = np.dtype((np.void, width))

    def pack(bits: np.ndarray) -> np.ndarray:
        """Rows of 8 * nbytes bits (the last axis) as packed states:
        zero-padded whole words, one void item each, so that gathers and
        merges move single items."""
        packed = np.packbits(bits).reshape(-1, nbytes)
        out = np.zeros((len(packed), width), dtype=np.uint8)
        out[:, :nbytes] = packed
        return out.view(state_type).ravel()

    # the singletons, the empty state and the goal
    bits = np.eye(n + 2, 8 * nbytes, dtype=bool)
    bits[n] = False
    bits[n + 1] = np.arange(8 * nbytes) < n
    initial = pack(bits)
    frontier, goal = initial[:n], initial[n + 1]
    # the empty state is never explored; seeding it skips empty preimages
    seen = []
    _fresh(initial[:n + 1], seen)
    # per level after the first: each state's candidate index in its level,
    # parent row * n_folds + fold index
    parents: list[np.ndarray] = []
    rows_per_chunk = max(1, _CHUNK_CELLS // max(1, n_folds * n))
    while len(frontier) and n_folds:
        level_rows, level_parents = [], []
        for lo in range(0, len(frontier), rows_per_chunk):
            # one row of bits per element, so the gather copies whole rows
            states = frontier[lo:lo + rows_per_chunk]
            bits = np.unpackbits(states.view(np.uint8).reshape(len(states), width)[:, :nbytes].T,
                                 axis=0)
            # candidates in (state row, fold) order, which is the order a
            # FIFO queue would generate them in
            cands = pack(bits[gather].transpose(2, 0, 1))
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
            level_parents.append(fresh + lo * n_folds)
        if not level_rows:
            break
        frontier = np.concatenate(level_rows)
        parents.append(np.concatenate(level_parents))
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
