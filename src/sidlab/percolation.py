"""Cut-percolation certificates: search, independent verification, lifting.

A certificate is a sequence of folds together with the trajectory of edge
sets E_0..E_m (edge mode) or left-vertex sets U_0..U_m (left mode), where
each step is the exact preimage of the previous set under the fold's
left-folding map. What the two modes differ in lives in one table: the
elements a state ranges over, how a vertex map moves one element, the
goal's name and an element's JSON codec. One preimage serves the search
and the verifier. Searches are BFS over reachable subsets, so returned
certificates are shortest within the supplied fold pool.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .bigraph import Bigraph, _json_object, amalgamate_left
from .folds import Fold, check_fold, enumerate_folds, fold_from_json, fold_to_json

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


def _moves(spec: _Mode, elements: Sequence, fold: Fold) -> list[tuple]:
    """Each element paired with its image under the fold's left-folding map."""
    phi_l = fold.left_map()
    return [(x, spec.move(phi_l, x)) for x in elements]


def _preimage(moves: Sequence[tuple], target: State) -> State:
    """The elements whose image lies in target."""
    return frozenset(x for x, y in moves if y in target)


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
        if traj[i] != _preimage(_moves(spec, elements, fold), traj[i - 1]):
            return VerificationResult(
                False, f"trajectory[{i}] is not the preimage of trajectory[{i - 1}]")
    return VerificationResult(True)


def _search(g: Bigraph, mode: str, fold_pool: Optional[Sequence[Fold]],
            budget: int) -> PercolationCertificate | NotFound:
    """BFS from every singleton state to the set of all elements. The start
    states count as explored; the search stops with `budget` once more than
    budget states are explored."""
    spec = _MODES[mode]
    pool = _resolve_pool(g, fold_pool)
    elements = spec.elements(g)
    moves = [_moves(spec, elements, fold) for fold in pool]
    goal = frozenset(elements)
    parents: dict[State, Optional[tuple[State, int]]] = {
        frozenset({x}): None for x in elements}
    queue: deque[State] = deque(parents)

    def build(state: State) -> PercolationCertificate:
        chain: list[State] = [state]
        fold_idx: list[int] = []
        while parents[state] is not None:
            state, idx = parents[state]  # type: ignore[misc]
            chain.append(state)
            fold_idx.append(idx)
        chain.reverse()
        fold_idx.reverse()
        return _recheck(g, PercolationCertificate(mode, [pool[i] for i in fold_idx],
                                                  chain))

    if goal in parents:
        return build(goal)
    explored = len(parents)
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


def _recheck(g: Bigraph, cert: PercolationCertificate) -> PercolationCertificate:
    res = verify_certificate(g, cert)
    if not res:
        raise AssertionError(f"search produced an invalid certificate: {res.reason}")
    return cert


def _resolve_pool(g: Bigraph, fold_pool: Optional[Sequence[Fold]]) -> list[Fold]:
    if fold_pool is None:
        return enumerate_folds(g)
    pool = list(fold_pool)
    for fold in pool:
        check_fold(g, fold)
    return pool


def find_left_cut_percolating(g: Bigraph, fold_pool: Optional[Sequence[Fold]] = None,
                              budget: int = DEFAULT_BUDGET
                              ) -> PercolationCertificate | NotFound:
    """Shortest left-vertex-mode certificate within the pool, or NotFound.

    The default pool is every fold of g; passing a pool restricts the
    search to sequences of folds from that set.
    """
    if g.v1 == 0:
        raise ValueError("graph has an empty left side")
    return _search(g, "left", fold_pool, budget)


def find_cut_percolating(g: Bigraph, fold_pool: Optional[Sequence[Fold]] = None,
                         budget: int = DEFAULT_BUDGET
                         ) -> PercolationCertificate | NotFound:
    """Shortest edge-mode certificate within the pool, or NotFound."""
    if g.e == 0:
        raise ValueError("graph has no edges")
    return _search(g, "edge", fold_pool, budget)


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
    gens = [f.phi for f in cert.folds]
    start = next(iter(cert.trajectory[0]))
    orbit = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for phi in gens:
            y = spec.move(phi, x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit == set(spec.elements(g))


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
    _json_object(d, "certificate", "mode", "folds", "trajectory")
    mode = d["mode"]
    folds = [fold_from_json(f) for f in d["folds"]]
    decode = _mode(mode).decode
    traj = [frozenset(decode(x) for x in entry) for entry in d["trajectory"]]
    return PercolationCertificate(mode, folds, traj)
