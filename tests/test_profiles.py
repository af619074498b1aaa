"""Induced-subgraph profile classes against a reference that canonicalises
every enumerated profile under every relabeling of the left side, and
against the unpruned enumerator on graphs whose subsets get skipped."""

import itertools
from collections import Counter

import numpy as np
import pytest

from reference_enumeration import unpruned_profiles
from sidlab.bigraph import Bigraph, book, cycle4, dual_star, star
from sidlab.reflection import build_incidence
from sidlab.testers import induced_subgraph_profiles


def reference_profiles(g):
    """One canonical key per enumerated profile, the least over all left
    permutations of its sorted (relabeled subset, count) list; the first
    profile seen of each key represents it, and keys order the classes."""
    left = g.left
    perms = [dict(zip(left, p)) for p in itertools.permutations(left)]

    def canonical(profile):
        best = None
        for perm in perms:
            key = tuple(sorted((tuple(sorted(perm[v] for v in s)), c)
                               for s, c in profile.items()))
            if best is None or key < best:
                best = key
        return best

    traces_full = [frozenset(g.neighbors(w)) for w in g.right]
    seen = {}
    for r in range(len(left) + 1):
        for a in itertools.combinations(left, r):
            aset = frozenset(a)
            types = Counter(t & aset for t in traces_full)
            types.pop(frozenset(), None)
            items = sorted(types.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            for counts in itertools.product(*[range(c + 1) for _, c in items]):
                profile = {s: c for (s, _), c in zip(items, counts) if c > 0}
                seen.setdefault(canonical(profile), profile)
    return [seen[k] for k in sorted(seen)]


def random_bigraph(seed):
    """At most 4 left and 6 right vertices; right neighborhoods are drawn
    from a pool of at most three traces, so traces repeat and some are empty."""
    rng = np.random.default_rng([41, seed])
    left = [f"l{i}" for i in range(int(rng.integers(0, 5)))]
    right = [f"r{i}" for i in range(int(rng.integers(0, 7)))]
    pool = [[v for v in left if rng.random() < 0.5]
            for _ in range(int(rng.integers(1, 4)))]
    edges = [(v, r) for r in right for v in pool[int(rng.integers(len(pool)))]]
    return Bigraph(left, right, edges)


def assert_same_classes(g, reference=reference_profiles):
    got, want = induced_subgraph_profiles(g), reference(g)
    assert got == want
    # dict equality ignores order; the witness encoder and the batch do not
    assert [list(p) for p in got] == [list(p) for p in want]
    assert all(type(c) is int for p in got for c in p.values())


NAMED = {
    "cycle4": cycle4(),
    "incidence(4,{2})": build_incidence(4, [2]).graph,
    "incidence(4,{2,3})": build_incidence(4, [2, 3]).graph,
    "incidence(4,{3})": build_incidence(4, [3]).graph,
    "book(2)": book(2),
    "star(4)": star(4),
}


@pytest.mark.parametrize("name", list(NAMED))
def test_profile_classes_match_reference(name):
    assert_same_classes(NAMED[name])


def test_profile_classes_match_reference_on_random_bigraphs():
    graphs = [random_bigraph(seed) for seed in range(60)]
    graphs += [Bigraph(["a", "b", "c"], [], []),  # no right vertices
               Bigraph(["a", "b"], ["x", "y", "z"], []),  # edgeless
               Bigraph([], ["x"], []),
               # a is isolated, and y and z share a trace
               Bigraph(["a", "b", "c"], ["x", "y", "z", "w"],
                       [("b", "x"), ("b", "y"), ("c", "y"), ("b", "z"), ("c", "z")])]
    kinds = Counter()
    for g in graphs:
        traces = [g.neighbors(w) for w in g.right]
        kinds["edgeless"] += g.e == 0
        kinds["no right"] += not g.right
        kinds["isolated"] += bool(g.isolated_vertices())
        kinds["repeated"] += len(set(traces)) < len(traces)
        assert_same_classes(g)
    assert min(kinds.values()) > 0, kinds


def test_profile_count_needs_a_wider_dtype():
    # 300 right vertices with one trace: counts above 255 are keyed exactly
    g = Bigraph(["a", "b"], [f"r{i}" for i in range(300)],
                [(v, f"r{i}") for i in range(300) for v in "ab"])
    profiles = induced_subgraph_profiles(g)
    assert profiles == reference_profiles(g)
    assert len(profiles) == 1 + 2 * 300  # empty, then {a}: c and {a,b}: c


def test_profile_cap_counts_the_vectors_enumerated():
    # 219,774 count vectors over all left subsets, past PROFILE_CLASS_CAP,
    # and 67,858 in the subsets enumerated
    g = build_incidence(5, [2, 4]).graph
    assert len(induced_subgraph_profiles(g)) == 3030


def twinned_bigraph(seed):
    """3 or 4 base left vertices, then twins (same right neighborhood) of
    random base vertices up to 5 or 6 left vertices, and 2 to 5 right
    vertices; swapping a twin pair maps a left subset holding one of them
    onto another with the same full profile, so subsets are skipped."""
    rng = np.random.default_rng([43, seed])
    base = [f"b{i}" for i in range(int(rng.integers(3, 5)))]
    right = [f"r{i}" for i in range(int(rng.integers(2, 6)))]
    nbhd = {r: [v for v in base if rng.random() < 0.5] for r in right}
    twins = {f"t{i}": base[int(rng.integers(len(base)))]
             for i in range(int(rng.integers(5, 7)) - len(base))}
    edges = [(v, r) for r in right for v in nbhd[r]]
    edges += [(t, r) for t, v in twins.items() for r in right if v in nbhd[r]]
    return Bigraph(base + list(twins), right, edges)


PRUNED = {
    "incidence(5,{2})": build_incidence(5, [2]).graph,
    "incidence(5,{3})": build_incidence(5, [3]).graph,
    "incidence(5,{4})": build_incidence(5, [4]).graph,
    "incidence(6,{5})": build_incidence(6, [5]).graph,
    "star(5)": star(5),
    "dual_star(4)": dual_star(4),
}


@pytest.mark.parametrize("name", list(PRUNED))
def test_skipping_subsets_keeps_the_unpruned_classes(name):
    assert_same_classes(PRUNED[name], unpruned_profiles)


def test_skipping_subsets_keeps_the_unpruned_classes_on_twinned_bigraphs():
    for seed in range(20):
        g = twinned_bigraph(seed)
        assert len(g.left) in (5, 6)
        assert_same_classes(g, unpruned_profiles)
