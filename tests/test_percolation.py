"""Tests for percolation certificate search, verification, and lifting."""

import json
import math
import sys

import numpy as np
import pytest
from test_oracles import GRAPHS, popcount_keys

from sidlab import percolation
from sidlab.bigraph import Bigraph, amalgamate_left, book, cycle4, rho, star
from sidlab.cli import main
from sidlab.folds import Fold, _fold_maps, check_fold, complete_to_fold, enumerate_folds
from sidlab.percolation import (
    _MODES,
    DEFAULT_BUDGET,
    NotFound,
    PercolationCertificate,
    certificate_fold_group_transitive,
    certificate_from_json,
    certificate_to_json,
    find_cut_percolating,
    _moves,
    find_left_cut_percolating,
    lift_certificate,
    project_to_left,
    verify_certificate,
)
from sidlab.reflection import (
    IncidenceBigraph,
    _reflection_pairs,
    reflection_fold,
    reflection_fold_pool,
)
from sidlab.testers import test_cs_tree as run_cs_tree


def c4_left_fold():
    return complete_to_fold(cycle4(), {"a": "b", "b": "a", "c": "c", "d": "d"})


def transposition_of(fold):
    """Recover (a, b) from a reflection fold by its action on the points."""
    moved = sorted(int(v) for v, w in fold.phi_items if v != w and v.isdigit())
    return moved[0], moved[1]


# ---------------------------------------------------------------------------
# verify_certificate


def test_verify_trivial_left_certificate():
    cert = PercolationCertificate("left", [], [{"0"}])
    assert verify_certificate(star(2), cert)


def test_verify_c4_left_certificate():
    cert = PercolationCertificate("left", [c4_left_fold()], [{"a"}, {"a", "b"}])
    assert verify_certificate(cycle4(), cert)


def test_verify_rejects_bad_certificates():
    g = cycle4()
    fold = c4_left_fold()
    bad_traj = PercolationCertificate("left", [fold, fold],
                                      [{"a"}, {"b"}, {"a", "b"}])
    res = verify_certificate(g, bad_traj)
    assert not res and "preimage" in res.reason

    short_end = PercolationCertificate("left", [fold], [{"a"}, {"a"}])
    res = verify_certificate(g, short_end)
    assert not res and "end" in res.reason

    not_single = PercolationCertificate("left", [fold], [{"a", "b"}, {"a", "b"}])
    res = verify_certificate(g, not_single)
    assert not res and "singleton" in res.reason

    wrong_end = PercolationCertificate("left", [], [{"a"}])
    assert not verify_certificate(g, wrong_end)

    non_fold = Fold({"a": "b", "b": "a", "c": "c", "d": "d"}, {"a", "b"})
    res = verify_certificate(
        g, PercolationCertificate("left", [non_fold], [{"a"}, {"a", "b"}]))
    assert not res and res.reason.startswith("fold 1")


# ---------------------------------------------------------------------------
# left-mode search


def test_left_search_c4():
    cert = find_left_cut_percolating(cycle4())
    assert isinstance(cert, PercolationCertificate)
    assert cert.length == 1
    assert verify_certificate(cycle4(), cert)


def test_left_search_trivial_left_side():
    cert = find_left_cut_percolating(rho())
    assert cert.length == 0
    cert = find_left_cut_percolating(star(5))
    assert cert.length == 0


def test_left_search_incidence_with_reflection_pool():
    ib = IncidenceBigraph(4, [2, 3])
    cert = find_left_cut_percolating(ib.graph, reflection_fold_pool(ib))
    assert isinstance(cert, PercolationCertificate)
    assert verify_certificate(ib.graph, cert)
    assert certificate_fold_group_transitive(ib.graph, cert)


def test_left_search_reflection_pool_all_uniformity_sets_up_to_n6():
    import itertools

    for n in range(1, 7):
        for size in range(1, n + 1):
            for ks in itertools.combinations(range(1, n + 1), size):
                ib = IncidenceBigraph(n, list(ks))
                cert = find_left_cut_percolating(ib.graph,
                                                 reflection_fold_pool(ib))
                assert isinstance(cert, PercolationCertificate), (n, ks)
                assert verify_certificate(ib.graph, cert), (n, ks)


def test_left_search_not_found_when_no_folds():
    path = Bigraph(["a", "b"], ["c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])
    assert enumerate_folds(path) == []
    res = find_left_cut_percolating(path)
    assert isinstance(res, NotFound)
    assert res.reason == "exhausted"
    assert not res


def test_left_search_exhausts_restricted_pool():
    ib = IncidenceBigraph(4, [2])
    single = [reflection_fold(ib, 1, 2)]
    res = find_left_cut_percolating(ib.graph, single)
    assert isinstance(res, NotFound)
    assert res.reason == "exhausted"  # definitive only for this pool


def test_left_search_budget_flag():
    ib = IncidenceBigraph(5, [2])
    res = find_left_cut_percolating(ib.graph, reflection_fold_pool(ib), budget=1)
    assert isinstance(res, NotFound)
    assert res.reason == "budget"


def test_budget_below_start_count_unless_a_start_is_the_goal():
    path = Bigraph(["a", "b"], ["c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])
    # the pool is empty, so only the budget rule tells these apart
    assert find_left_cut_percolating(path, budget=1) == NotFound("budget", 2)
    assert find_left_cut_percolating(path, budget=2) == NotFound("exhausted", 2)
    assert find_cut_percolating(rho(), budget=0).length == 0


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("words", [1, 2])
def test_fresh_matches_a_set(monkeypatch, words, coarse):
    """Batches of candidates from a few small states, against a set of the
    states seen so far split into random tiers: the first occurrence of
    each unseen state is fresh, and the tiers stay sorted and hold each
    seen state once. Popcount keys make unequal states share keys within
    a batch and with the tiers."""
    if coarse:
        monkeypatch.setattr(percolation, "_keys", popcount_keys)
    rng = np.random.default_rng([7, words])
    state_type = np.dtype((np.void, 8 * words))
    for _ in range(300):
        pool = rng.integers(0, 4, size=(40, words)).astype(np.uint64)
        known = np.unique(pool[rng.random(40) < 0.3], axis=0)
        seen = []
        for part in np.array_split(known[rng.permutation(len(known))], rng.integers(1, 4)):
            if not len(part):  # a search keeps no empty tier
                continue
            part = part.view(state_type).ravel()
            keys = percolation._keys(part)[0]
            order = keys.argsort()
            seen.append((keys[order], part[order]))
        known = {row.tobytes() for row in known}
        for _ in range(3):
            cands = pool[rng.integers(0, 40, size=rng.integers(1, 30))].view(state_type).ravel()
            want = []
            for i, state in enumerate(cands):
                if state.tobytes() not in known:
                    known.add(state.tobytes())
                    want.append(i)
            fresh = percolation._fresh(cands, seen)
            assert fresh.tolist() == want
            for tier_keys, tier_states in seen:
                assert (tier_keys[1:] >= tier_keys[:-1]).all()
                assert (percolation._keys(tier_states)[0] == tier_keys).all()
            assert sorted(state.tobytes() for _, states in seen for state in states) \
                == sorted(known)


def test_single_element_needs_no_pool(monkeypatch):
    """A one-element mode's start state is the goal, so the default pool is
    never enumerated; a supplied pool is still checked."""
    def refuse(g):
        raise AssertionError("the default pool was enumerated")
    monkeypatch.setattr("sidlab.folds._fold_maps", refuse)
    cert = find_left_cut_percolating(star(13))
    assert cert.folds == () and cert.trajectory == (frozenset({"0"}),)
    assert find_cut_percolating(rho()).length == 0
    identity = Fold({"0": "0", "1": "1", "2": "2"}, ())
    with pytest.raises(ValueError, match="not a vertex cut"):
        find_left_cut_percolating(star(2), [identity])


def test_left_search_empty_left_errors():
    with pytest.raises(ValueError):
        find_left_cut_percolating(Bigraph([], ["r"], []))


@pytest.mark.parametrize("n, mode, budget, expected", [
    (5, "edge", DEFAULT_BUDGET, NotFound("exhausted", 6712)),
    (6, "edge", 5000, NotFound("budget", 5001)),
    # a budget below the 90 start states stops before any expansion
    (6, "edge", 50, NotFound("budget", 90)),
    (7, "left", DEFAULT_BUDGET, 6),
    (8, "left", DEFAULT_BUDGET, 7),
])
def test_reflection_pool_search_outcomes(n, mode, budget, expected):
    """Exhaustion and budget state counts, and shortest lengths, on incidence(n, {2,3})."""
    ib = IncidenceBigraph(n, [2, 3])
    search = find_left_cut_percolating if mode == "left" else find_cut_percolating
    res = search(ib.graph, reflection_fold_pool(ib), budget=budget)
    if isinstance(expected, NotFound):
        assert res == expected
    else:
        assert isinstance(res, PercolationCertificate) and res.length == expected


# ---------------------------------------------------------------------------
# edge-mode search


def test_edge_search_examples():
    assert find_cut_percolating(rho()).length == 0

    c4_cert = find_cut_percolating(cycle4())
    assert isinstance(c4_cert, PercolationCertificate)
    assert verify_certificate(cycle4(), c4_cert)

    star_cert = find_cut_percolating(star(2))
    assert isinstance(star_cert, PercolationCertificate)
    assert verify_certificate(star(2), star_cert)


def test_edge_search_requires_edges():
    with pytest.raises(ValueError):
        find_cut_percolating(Bigraph(["a"], ["b"], []))


# ---------------------------------------------------------------------------
# invariants on found certificates


def searched_certificates():
    graphs = [cycle4(), star(2), IncidenceBigraph(4, [2]).graph]
    for g in graphs:
        yield g, find_cut_percolating(g)
        yield g, find_left_cut_percolating(g)


def test_doubling_bound_and_length():
    for g, cert in searched_certificates():
        assert isinstance(cert, PercolationCertificate)
        for prev, cur in zip(cert.trajectory, cert.trajectory[1:]):
            assert len(cur) <= 2 * len(prev)
        if cert.mode == "left":
            assert cert.length >= math.ceil(math.log2(max(g.v1, 1)))


def test_transitivity_of_found_certificates():
    for g, cert in searched_certificates():
        assert certificate_fold_group_transitive(g, cert)


def test_projection_to_left_mode():
    for g in (cycle4(), star(2), IncidenceBigraph(4, [2]).graph):
        cert = find_cut_percolating(g)
        left_cert = project_to_left(g, cert)
        assert verify_certificate(g, left_cert)


def test_projection_requires_no_isolated_left():
    g = Bigraph(["a", "b"], ["c"], [("a", "c")])
    cert = PercolationCertificate("edge", [], [{("a", "c")}])
    assert verify_certificate(g, cert)
    with pytest.raises(ValueError):
        project_to_left(g, cert)


def test_verifier_rejects_random_tampering():
    import numpy as np

    cases = [(cycle4(), find_cut_percolating(cycle4())),
             (cycle4(), find_left_cut_percolating(cycle4())),
             (IncidenceBigraph(4, [2]).graph,
              find_left_cut_percolating(IncidenceBigraph(4, [2]).graph))]
    rng = np.random.default_rng(424242)
    for g, cert in cases:
        assert verify_certificate(g, cert)
        universe = sorted(g.left) if cert.mode == "left" else g.sorted_edges()
        for _ in range(40):
            traj = [set(entry) for entry in cert.trajectory]
            kind = int(rng.integers(0, 3))
            if kind == 0 and cert.folds:  # drop a fold
                k = int(rng.integers(0, len(cert.folds)))
                mutated = PercolationCertificate(
                    cert.mode, cert.folds[:k] + cert.folds[k + 1:],
                    cert.trajectory)
            elif kind == 1:  # toggle one element in a trajectory entry
                i = int(rng.integers(0, len(traj)))
                x = universe[int(rng.integers(0, len(universe)))]
                traj[i] ^= {x}
                mutated = PercolationCertificate(cert.mode, cert.folds, traj)
            else:  # flip a fold's left side to its mirror
                if not cert.folds:
                    continue
                k = int(rng.integers(0, len(cert.folds)))
                fold = cert.folds[k]
                mirrored = Fold(fold.phi,
                                {fold.phi[v] for v in fold.left})
                folds = list(cert.folds)
                folds[k] = mirrored
                mutated = PercolationCertificate(cert.mode, folds, traj)
            if mutated == cert:
                continue
            res = verify_certificate(g, mutated)
            if res:
                # a mutation may land on another valid certificate; then the
                # trajectory must still be an exact preimage chain ending at
                # the goal, which the verifier has just rechecked
                assert mutated.trajectory[-1] == (frozenset(g.left)
                                                  if cert.mode == "left"
                                                  else g.edges)


# ---------------------------------------------------------------------------
# lifting (amalgamated folds)


def test_lift_single_part_identity():
    g = cycle4()
    cert = find_left_cut_percolating(g)
    lifted = lift_certificate([g], cert, [[] for _ in cert.folds])
    assert lifted == cert


def test_lift_incidence_pair():
    ib2, ib3 = IncidenceBigraph(4, [2]), IncidenceBigraph(4, [3])
    g3 = ib3.graph
    relabel = {r: r.replace("@1", "@2") for r in g3.right}
    g3b = Bigraph(g3.left, [relabel[r] for r in g3.right],
                  [(l, relabel[r]) for l, r in g3.edges])

    base = find_left_cut_percolating(ib2.graph, reflection_fold_pool(ib2))
    matched = []
    for fold in base.folds:
        a, b = transposition_of(fold)
        f3 = reflection_fold(ib3, a, b)
        phi = {v if v.isdigit() else relabel[v]: w if w.isdigit() else relabel[w]
               for v, w in f3.phi_items}
        matched.append([Fold(phi, {v if v.isdigit() else relabel[v] for v in f3.left})])

    lifted = lift_certificate([ib2.graph, g3b], base, matched)
    joint = amalgamate_left([ib2.graph, g3b])
    assert verify_certificate(joint, lifted)
    assert joint.v2 == 10 and joint.e == 24


def test_lift_three_parts():
    parts = []
    relabels = []
    for slot, k in enumerate([1, 2, 3], start=1):
        ib = IncidenceBigraph(3, [k])
        g = ib.graph
        relabel = {r: r.replace("@1", f"@{slot}") for r in g.right}
        parts.append(Bigraph(g.left, [relabel[r] for r in g.right],
                             [(l, relabel[r]) for l, r in g.edges]))
        relabels.append(relabel)

    ib1 = IncidenceBigraph(3, [1])
    base = find_left_cut_percolating(parts[0], [
        Fold({v if v.isdigit() else relabels[0][v]:
              w if w.isdigit() else relabels[0][w] for v, w in f.phi_items},
             {v if v.isdigit() else relabels[0][v] for v in f.left})
        for f in reflection_fold_pool(ib1)])
    assert isinstance(base, PercolationCertificate)

    matched = []
    for fold in base.folds:
        a, b = transposition_of(fold)
        row = []
        for slot, k in ((2, 2), (3, 3)):
            f = reflection_fold(IncidenceBigraph(3, [k]), a, b)
            relabel = relabels[slot - 1]
            row.append(Fold(
                {v if v.isdigit() else relabel[v]:
                 w if w.isdigit() else relabel[w] for v, w in f.phi_items},
                {v if v.isdigit() else relabel[v] for v in f.left}))
        matched.append(row)

    lifted = lift_certificate(parts, base, matched)
    joint = amalgamate_left(parts)
    assert verify_certificate(joint, lifted)
    assert joint.v2 == 3 + 3 + 1 and joint.e == 3 + 6 + 3


def test_lift_and_projection_refusals():
    g, other = cycle4(), star(2)
    left, edge = find_left_cut_percolating(g), find_cut_percolating(g)
    assert left.folds
    stray = PercolationCertificate("left", [], [{"a"}])  # never reaches V_1
    refusals = [
        (lambda: lift_certificate([], left, []), "need at least one part"),
        (lambda: lift_certificate([g], edge, []),
         "lifting is defined for left-vertex-mode certificates"),
        (lambda: lift_certificate([g], stray, []), "base certificate invalid: "),
        (lambda: lift_certificate([g], left, []), "need matched folds for every step"),
        (lambda: lift_certificate([g, other], left, [[] for _ in left.folds]),
         "step 0: need one fold per extra part"),
        (lambda: project_to_left(g, left), "expected an edge-mode certificate"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).startswith(message)


def test_lift_rejects_mismatched_left_intersections():
    g1 = cycle4()
    # second part: another K_{2,2} on the same left side
    g2 = Bigraph(["a", "b"], ["e", "f"],
                 [("a", "e"), ("a", "f"), ("b", "e"), ("b", "f")])
    base = find_left_cut_percolating(g1)
    # fold of g2 whose left side meets V1 in {b}, not {a}
    bad = complete_to_fold(g2, {"a": "b", "b": "a", "e": "e", "f": "f"})
    bad = Fold(bad.phi, {"b"})
    with pytest.raises(ValueError):
        lift_certificate([g1, g2], base, [[bad]])


def test_lift_rejects_disagreeing_maps():
    g1 = cycle4()
    g2 = Bigraph(["a", "b"], ["e", "f"],
                 [("a", "e"), ("a", "f"), ("b", "e"), ("b", "f")])
    base = find_left_cut_percolating(g1)
    ident_like = complete_to_fold(g2, {"a": "a", "b": "b", "e": "f", "f": "e"})
    with pytest.raises(ValueError):
        lift_certificate([g1, g2], base, [[ident_like]])


# ---------------------------------------------------------------------------
# each fold is checked once, each certificate verified once


def spy(monkeypatch, func):
    """The argument tuples of every later call to func, made through any
    sidlab module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return func(*args)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sidlab" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


@pytest.mark.parametrize("search", [find_left_cut_percolating, find_cut_percolating])
def test_supplied_pool_folds_are_checked_once(monkeypatch, search):
    """n checks for an n-fold pool, plus one per certificate fold when
    verify_certificate checks the certificate; none to build the pool."""
    checks = spy(monkeypatch, check_fold)
    ib = IncidenceBigraph(4, [2])
    pool = reflection_fold_pool(ib)
    assert checks == []
    cert = search(ib.graph, pool)
    assert cert.length > 0 and len(checks) == len(pool) + cert.length
    checks.clear()
    folds = enumerate_folds(book(2))
    assert isinstance(search(book(2), folds), NotFound)
    assert len(checks) == len(folds) > 0
    # the default pool needs no check; only the certificate's folds get one
    checks.clear()
    cert = search(ib.graph)
    assert cert.length > 0 and len(checks) == cert.length


def test_certify_verifies_each_certificate_once(monkeypatch, tmp_path):
    """The reflection pool goes to the search unchecked, so the only fold
    checks are verify_certificate's, one per certificate fold."""
    gpath, cpath = tmp_path / "graph.json", tmp_path / "cert.json"
    assert main(["construct", "incidence", "--n", "4", "--uniformities", "2",
                 "-o", str(gpath)]) == 0
    verifications = spy(monkeypatch, verify_certificate)
    checks = spy(monkeypatch, check_fold)
    for mode in ("left", "edge"):
        verifications.clear()
        checks.clear()
        assert main(["certify", str(gpath), "--mode", mode, "--pool", "reflection",
                     "-o", str(cpath)]) == 0
        assert len(verifications) == 1
        length = len(json.loads(cpath.read_text())["folds"])
        assert length > 0 and len(checks) == length


def test_cs_tree_checks_a_supplied_pool_once(monkeypatch):
    """No check for the default pool, one per fold for a supplied pool, and
    none in the trials."""
    checks = spy(monkeypatch, check_fold)
    g = IncidenceBigraph(4, [2]).graph
    assert run_cs_tree(g, trials=200).trials == 200
    assert checks == []
    pool = enumerate_folds(g)[:4]
    assert run_cs_tree(g, trials=200, fold_pool=pool).trials == 200
    assert len(checks) == len(pool)


# ---------------------------------------------------------------------------
# the move table against each fold's left-folding map


def assert_moves_are_left_map_preimages(g, pairs, folds):
    """Row f of the compiled table holds, element by element, the position
    of the element's image under folds[f].left_map(), so state[row] is the
    state's preimage."""
    for mode, spec in _MODES.items():
        elements = spec.elements(g)
        if not elements:  # both searches refuse an empty element set
            continue
        where = {x: i for i, x in enumerate(elements)}
        table = _moves(g, mode, pairs)
        assert table.shape == (len(folds), len(elements))
        for row, fold in zip(table.tolist(), folds):
            phi_l = fold.left_map()
            assert row == [where[spec.move(phi_l, x)] for x in elements]


@pytest.mark.parametrize("name", [name for name, g in GRAPHS.items() if _fold_maps(g)])
def test_default_pool_moves_match_left_maps(name):
    g = GRAPHS[name]
    assert_moves_are_left_map_preimages(g, _fold_maps(g), enumerate_folds(g))


@pytest.mark.parametrize("n", [4, 5])
def test_reflection_pool_moves_match_left_maps(n):
    ib = IncidenceBigraph(n, [2, 3])
    assert_moves_are_left_map_preimages(ib.graph, _reflection_pairs(ib),
                                        reflection_fold_pool(ib))


# ---------------------------------------------------------------------------
# preimage tables against a per-element gather


def table_bytes_for(bits, nbytes, n_folds, width):
    """The least `_TABLE_BYTES` under which `_tables` reads `bits` bits per
    lookup; 0 makes it read 2."""
    return 0 if bits == 2 else (2**bits * 8 // bits) * nbytes * n_folds * width


@pytest.mark.parametrize("bits", [8, 4, 2])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129])
def test_table_preimages_match_a_gather(monkeypatch, n, bits):
    """Random many-to-one move tables and random states: each state's
    preimage under fold f, read from the tables, is state[moves[f]] packed
    as the search packs states, padding bits zero, at each lookup width."""
    rng = np.random.default_rng([11, n, bits])
    nbytes, width = (n + 7) // 8, 8 * ((n + 63) // 64)
    state_type = np.dtype((np.void, width))
    moves = rng.integers(0, max(1, n // 3), size=(5, n))
    moves[1] = rng.permutation(n)
    monkeypatch.setattr(percolation, "_TABLE_BYTES", table_bytes_for(bits, nbytes, 5, width))
    tables = percolation._tables(moves, nbytes, width)
    assert tables.shape == (8 * nbytes // bits, 2**bits, 5, width // 8)
    bools = rng.random((40, n)) < rng.random((40, 1))
    bools[0], bools[1] = False, True  # the empty state and the goal

    def pack(rows):
        return np.packbits(rows, axis=1).view(state_type).ravel()
    padded = np.zeros((40, 8 * width), dtype=bool)
    padded[:, :n] = bools
    got = percolation._preimages(pack(padded), tables, nbytes)
    want = np.zeros((40, 5, 8 * width), dtype=bool)
    want[:, :, :n] = bools[:, moves]
    assert got.tolist() == pack(want.reshape(200, -1)).tolist()


def test_tables_stay_within_their_bound(monkeypatch):
    """incidence(5,{2,2}) in edge mode: its default pool has 1,663 folds of
    40 edges, whose full byte tables would take 17 MB; the tables the
    search builds read 4 bits per lookup, the widest that fits, and their
    size is within `_TABLE_BYTES`."""
    built, build = [], percolation._tables

    def record(*args):
        built.append(build(*args))
        return built[-1]
    monkeypatch.setattr(percolation, "_tables", record)
    g = IncidenceBigraph(5, [2, 2]).graph
    assert len(_fold_maps(g)) == 1663 and g.e == 40
    assert find_cut_percolating(g, budget=200) == NotFound("budget", 201)
    (tables,) = built
    nbytes, n_folds, words = 5, 1663, 1
    assert 256 * nbytes * n_folds * 8 * words > percolation._TABLE_BYTES
    assert tables.shape == (2 * nbytes, 16, n_folds, words)
    assert tables.nbytes <= percolation._TABLE_BYTES


def test_twin_folds_are_searched_once(monkeypatch):
    """A pool whose folds each come twice (in edge mode on cycle4 and
    incidence(4,{2}), and in left mode on incidence(5,{2,2}), whose 1,663
    folds have 11 distinct left moves) is searched over its distinct move
    rows only, and gives the certificate or verdict of the pool without
    twins: the same folds, trajectory and state count."""
    rows, build = [], percolation._tables

    def record(imgs, *args):
        rows.append(len(imgs))
        return build(imgs, *args)
    monkeypatch.setattr(percolation, "_tables", record)
    for g, mode in [(cycle4(), "edge"), (IncidenceBigraph(4, [2]).graph, "edge"),
                    (IncidenceBigraph(5, [2, 2]).graph, "left")]:
        pool = _fold_maps(g)
        twice = [pair for pair in pool for _ in range(2)]
        rows.clear()
        once, doubled = (percolation._search(g, mode, p, DEFAULT_BUDGET) for p in (pool, twice))
        assert doubled == once and rows[0] == rows[1] <= len(pool)
    assert rows == [11, 11]


# ---------------------------------------------------------------------------
# JSON


def test_certificate_json_round_trip():
    left_cert = find_left_cut_percolating(cycle4())
    assert certificate_from_json(certificate_to_json(left_cert)) == left_cert
    edge_cert = find_cut_percolating(cycle4())
    assert certificate_from_json(certificate_to_json(edge_cert)) == edge_cert


def test_unknown_mode_is_a_value_error():
    with pytest.raises(ValueError, match="mode must be 'left' or 'edge'"):
        PercolationCertificate("vertex", [], [{"a"}])
    with pytest.raises(ValueError, match="mode must be 'left' or 'edge'"):
        certificate_from_json({"mode": "vertex", "folds": [], "trajectory": [["a"]]})
