"""Reference fold enumeration and percolation search, kept as test oracles.

`involutions` builds the whole automorphism group and keeps its
involutions, and `enumerate_folds` completes those to folds; `search` is a FIFO BFS over frozenset states with one
preimage per (state, fold) pair. Both are the straightforward forms of
what `sidlab.folds` and `sidlab.percolation` compute on integer indices.
The reference search reports a budget stop the same way as the engine:
before any expansion when the start states alone exceed the budget.
"""

from collections import deque

from sidlab.bigraph import automorphisms
from sidlab.folds import _complete, _cut_components
from sidlab.percolation import (
    _MODES,
    NotFound,
    PercolationCertificate,
    _moves,
    _preimage,
)


def involutions(g):
    """The involutive automorphisms of g, filtered from the whole group."""
    return [a for a in automorphisms(g) if all(a[a[v]] == v for v in a)]


def enumerate_folds(g, involutive):
    """The folds of g, given its involutive automorphisms in canonical order."""
    folds = []
    for a in involutive:
        comps = _cut_components(g, a)
        if isinstance(comps, str):
            continue
        fold = _complete(a, comps)
        if fold is not None:
            folds.append(fold)
    return folds


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
