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
`sidlab.folds`). A fold is checked once, where it enters: a supplied pool
of `Fold`s is checked and converted, while the default and reflection
pools are built as pairs and go to the search unchecked. `_moves` compiles
the stacked pool at once (one np.where gives every phi_L, one gather through
an element lookup its moves), so a preimage is a gather; each BFS level is a
packed bit array, expanded in bounded chunks of rows. Candidates are
deduplicated against one set of packed states in (state row, fold) order. A
FIFO queue pops the states of one level in the order they were found and
tries the folds in pool order, so that is the order a queue-based BFS meets
them in; parents, certificates, state counts, and where the goal check and
the budget stop fall, are therefore the same as for a queue. Parents are
kept per level as (parent row, fold index) arrays, and a certificate's
states are recomputed from its start element and folds; only its folds
become `Fold`s. `verify_certificate` recomputes every preimage over
frozensets, apart from the search, once per returned certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .bigraph import Bigraph, _orbit, amalgamate_left
from .folds import Fold, _fold, _fold_maps, check_fold, fold_from_json, fold_to_json
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


_MODES = {
    "left": _Mode(lambda g: g.left, lambda m, v: m[v], "V_1(G)",
                  lambda v: v, lambda v: v),
    "edge": _Mode(lambda g: g.sorted_edges(), lambda m, e: (m[e[0]], m[e[1]]),
                  "E(G)", list, tuple),
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
    """Search failure; `budget_exhausted` distinguishes cutoff from exhaustion."""

    reason: str  # "exhausted" | "budget"
    states_explored: int

    @property
    def budget_exhausted(self) -> bool:
        return self.reason == "budget"

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


def _search(g: Bigraph, mode: str, pool: Sequence[tuple[list[int], int]],
            budget: int) -> PercolationCertificate | NotFound:
    """BFS over `pool`, (image, left mask) pairs taken to be folds of g, from
    every singleton state to the set of all elements. The start states
    count as explored; the search stops with `budget` once more than budget
    states are explored, before any expansion when the start states alone
    are more than budget (unless one of them is the goal)."""
    elements = _MODES[mode].elements(g)
    n, n_folds = len(elements), len(pool)
    imgs = _moves(g, mode, pool)
    # states are packed to whole bytes; padding bits are zero, so index n
    # (a padding bit whenever padding exists) pads each row of imgs too
    nbytes = (n + 7) // 8
    gather = np.pad(imgs, ((0, 0), (0, 8 * nbytes - n)), constant_values=n)

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

    frontier = np.packbits(np.eye(n, dtype=bool), axis=1)
    key_type = np.dtype((np.void, nbytes))
    goal = np.packbits(np.ones(n, dtype=bool)).tobytes()
    # the empty state is never explored; seeding it skips empty preimages
    seen = set(frontier.view(key_type).ravel().tolist()) | {bytes(nbytes)}
    if goal in seen:
        return build(0, [])
    explored = n
    if explored > budget:
        return NotFound("budget", explored)
    # per level after the first: each state's parent row and fold index
    parents: list[tuple[np.ndarray, np.ndarray]] = []
    rows_per_chunk = max(1, _CHUNK_CELLS // max(1, n_folds * n))
    while len(frontier) and n_folds:
        level_rows, level_parents, level_folds = [], [], []
        for lo in range(0, len(frontier), rows_per_chunk):
            # one row of bits per element, so the gather copies whole rows
            bits = np.unpackbits(frontier[lo:lo + rows_per_chunk], axis=1).T.copy()
            # candidates in (state row, fold) order, which is the order a
            # FIFO queue would generate them in
            cands = np.packbits(bits[gather].transpose(2, 0, 1).ravel())
            cands = cands.reshape(-1, nbytes)
            keys = cands.view(key_type).ravel().tolist()
            fresh = []
            for k, key in enumerate(keys):
                if key not in seen:
                    seen.add(key)
                    fresh.append(k)
            if not fresh:
                continue
            over = budget - explored  # fresh[over] would pass the budget
            if goal in seen:
                j = next(j for j, k in enumerate(fresh) if keys[k] == goal)
                if j <= over:
                    row, f = divmod(fresh[j], n_folds)
                    row += lo
                    fold_idx = [f]
                    for rows, folds in reversed(parents):
                        fold_idx.append(int(folds[row]))
                        row = int(rows[row])
                    return build(row, fold_idx[::-1])
            if len(fresh) > over:
                return NotFound("budget", budget + 1)
            explored += len(fresh)
            fresh_idx = np.array(fresh)
            level_rows.append(cands[fresh_idx])
            level_parents.append(lo + fresh_idx // n_folds)
            level_folds.append(fresh_idx % n_folds)
        if not level_rows:
            break
        frontier = np.concatenate(level_rows)
        parents.append((np.concatenate(level_parents), np.concatenate(level_folds)))
    return NotFound("exhausted", explored)


def _resolve_pool(g: Bigraph, fold_pool: Optional[Sequence[Fold]]) -> list[tuple[list[int], int]]:
    if fold_pool is None:
        return _fold_maps(g)
    return [check_fold(g, f) for f in fold_pool]


def find_left_cut_percolating(g: Bigraph, fold_pool: Optional[Sequence[Fold]] = None,
                              budget: int = DEFAULT_BUDGET
                              ) -> PercolationCertificate | NotFound:
    """Shortest left-vertex-mode certificate within the pool, or NotFound.

    The default pool is every fold of g; passing a pool restricts the
    search to sequences of folds from that set.
    """
    if g.v1 == 0:
        raise ValueError("graph has an empty left side")
    return _search(g, "left", _resolve_pool(g, fold_pool), budget)


def find_cut_percolating(g: Bigraph, fold_pool: Optional[Sequence[Fold]] = None,
                         budget: int = DEFAULT_BUDGET
                         ) -> PercolationCertificate | NotFound:
    """Shortest edge-mode certificate within the pool, or NotFound."""
    if g.e == 0:
        raise ValueError("graph has no edges")
    return _search(g, "edge", _resolve_pool(g, fold_pool), budget)


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
            for v, w in phi.items():
                if v not in v1:
                    phi_hat[v] = w
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
