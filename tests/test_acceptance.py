"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import itertools
import time
from contextlib import contextmanager
from math import comb

import numpy as np
import pytest

from sidlab import testers as props
from sidlab.bigraph import (
    Bigraph,
    GraphTooLargeError,
    book,
    cycle4,
    graphs_isomorphic,
    star,
    two_core,
)
from sidlab.bigraphon import BigraphonTuple, random_step_bigraphon
from sidlab.checkers import (
    DegreeProfile,
    ReflectiveTreeDecomposition,
    check_conlonlee_profile,
    check_largeright_profile,
    verify_rtd,
)
from sidlab.density import colored_density, density, density_brute_force, left_regularize_tuple
from sidlab.folds import complete_to_fold, enumerate_folds, is_cut_involution
from sidlab.fractional import (
    ColoredFractionalBigraph,
    fractional_density,
    from_right_uniform,
    rainbow_star,
)
from sidlab.percolation import (
    PercolationCertificate,
    certificate_fold_group_transitive,
    find_left_cut_percolating,
    verify_certificate,
)
from sidlab.reflection import IncidenceBigraph, build_incidence, reflection_fold_pool
from sidlab.testers import verify_cs_inequality


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num} ({name}): FAIL [{elapsed:.2f}s]", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s / budget {budget_s}s]",
          flush=True)
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_constructor_fidelity():
    with criterion(1, "constructor fidelity", 1):
        expected = {(1,): (4, 4), (2,): (6, 12), (3,): (4, 12), (2, 3): (10, 24)}
        for ks, (v2, e) in expected.items():
            g = build_incidence(4, list(ks)).graph
            assert (g.v2, g.e) == (v2, e)


def test_criterion_2_cut_involution_without_fold():
    with criterion(2, "cut-involution admitting no fold", 1):
        g = Bigraph(["0", "2", "4"], ["1", "3", "5", "6"],
                    [("0", "1"), ("0", "3"), ("0", "5"), ("0", "6"),
                     ("2", "1"), ("2", "3"), ("4", "1"), ("4", "3")])
        phi = {"0": "0", "1": "3", "3": "1", "2": "4", "4": "2",
               "5": "6", "6": "5"}
        assert is_cut_involution(g, phi)
        assert complete_to_fold(g, phi) is None


def test_criterion_3_reflection_percolation():
    with criterion(3, "left-cut-percolation under reflection folds", 60):
        for n in range(1, 6):
            kss = [[k] for k in range(1, n + 1)]
            kss += [list(p) for p in itertools.combinations(range(1, n + 1), 2)]
            for ks in kss:
                ib = IncidenceBigraph(n, ks)
                cert = find_left_cut_percolating(ib.graph, reflection_fold_pool(ib))
                assert isinstance(cert, PercolationCertificate), (n, ks)
                assert verify_certificate(ib.graph, cert), (n, ks)
                assert certificate_fold_group_transitive(ib.graph, cert), (n, ks)


def test_criterion_4_cs_tree_suite():
    with criterion(4, "Cauchy-Schwarz leaf bound, 500 instances", 60):
        graphs = [cycle4(), build_incidence(4, [2]).graph]
        violations = 0
        for gi, g in enumerate(graphs):
            pool = enumerate_folds(g)
            edges = g.sorted_edges()
            for i in range(250):
                rng = np.random.default_rng([4000 + gi, i])
                n_colors = int(rng.integers(1, 4))
                coloring = {e: int(c) for e, c in
                            zip(edges, rng.integers(1, n_colors + 1,
                                                    size=len(edges)))}
                depth = int(rng.integers(0, 4))
                folds = [pool[int(j)]
                         for j in rng.integers(0, len(pool), size=depth)]
                rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
                ws = BigraphonTuple({
                    c: random_step_bigraphon(rows, cols,
                                             seed=int(rng.integers(0, 2**31)))
                    for c in sorted(set(coloring.values()))})
                report = verify_cs_inequality(g, coloring, folds, ws, tol=1e-9)
                violations += 0 if report.holds else 1
        assert violations == 0


def test_criterion_5_induced_sidorenko_evidence():
    with criterion(5, "induced-Sidorenko evidence, 500 trials each", 300):
        cases = [cycle4(), book(2), build_incidence(4, [2]).graph,
                 build_incidence(4, [2, 3]).graph]
        for i, g in enumerate(cases):
            report = props.test_induced_sidorenko(g, trials=500, grid=4,
                                                  seed=500 + i, tol=1e-8)
            assert report.holds, (i, report.worst_margin)
            assert report.trials == 500 and report.skipped == 0


def test_criterion_6_strong_sidorenko_profiles():
    with criterion(6, "degree-profile Sidorenko evidence", 300):
        for i, counts in enumerate(({2: 6}, {3: 4}, {2: 6, 3: 4})):
            g = DegreeProfile(4, counts).to_bigraph()
            plain = props.test_sidorenko(g, trials=1000, grid=4,
                                         seed=600 + i, tol=1e-9)
            assert plain.holds, (counts, plain.worst_margin)
            strong = props.test_strong_sidorenko(g, trials=1000, grid=4,
                                                 seed=650 + i, tol=1e-9)
            assert strong.holds, (counts, strong.worst_margin)


def test_criterion_7_divisibility_versus_threshold():
    with criterion(7, "divisibility pass implies threshold pass", 10):
        separator_seen = False
        # exhaustive base grid over the library checkers
        for v1 in range(1, 7):
            degrees = [k for k in (2, 3, 4) if k <= v1]
            for ds in itertools.product(range(25), repeat=len(degrees)):
                prof = DegreeProfile(v1, dict(zip(degrees, ds)))
                div_ok = check_conlonlee_profile(prof).passed
                thr_ok = check_largeright_profile(prof).passed
                assert not div_ok or thr_ok, prof
                if thr_ok and not div_ok:
                    separator_seen = True
        assert separator_seen
        # targeted sweep: nontrivial multiples of every modulus C(v1,r)C(r,k)
        for v1 in range(2, 7):
            for r in range(2, min(4, v1) + 1):
                ks = list(range(2, r + 1))
                moduli = [comb(v1, r) * comb(r, k) for k in ks]
                for mults in itertools.product((0, 1, 2), repeat=len(ks)):
                    if mults[-1] == 0:
                        continue  # need degree-r vertices to realize r
                    prof = DegreeProfile(v1, {k: m * mod for k, m, mod
                                              in zip(ks, mults, moduli)})
                    assert prof.max_degree() == r
                    assert check_conlonlee_profile(prof).passed, prof
                    assert check_largeright_profile(prof).passed, prof
        sep = DegreeProfile(4, {2: 7})
        assert check_largeright_profile(sep).passed
        assert not check_conlonlee_profile(sep).passed


def test_criterion_8_density_engine_correctness():
    with criterion(8, "elimination vs brute force, scaling, unions", 120):
        rng = np.random.default_rng(8888)
        for trial in range(1000):
            v1 = int(rng.integers(1, 6))
            v2 = int(rng.integers(1, min(5, 10 - v1) + 1))
            left = [f"l{i}" for i in range(v1)]
            right = [f"r{i}" for i in range(v2)]
            edges = [(l, r) for l in left for r in right if rng.random() < 0.5]
            g = Bigraph(left, right, edges)
            w = random_step_bigraphon(int(rng.integers(1, 5)),
                                      int(rng.integers(1, 5)),
                                      seed=int(rng.integers(0, 2**31)))
            ve = density(g, w)
            bf = density_brute_force(g, w)
            assert ve == pytest.approx(bf, rel=1e-12, abs=1e-300)
            lam = float(rng.uniform(0.25, 2.0))
            assert density(g, w.with_values(lam * w.values)) == pytest.approx(
                lam ** g.e * ve, rel=1e-12)
            if trial % 5 == 0:
                g2 = Bigraph([f"L{i}" for i in range(2)],
                             [f"R{i}" for i in range(2)],
                             [(f"L{i}", f"R{j}") for i in range(2)
                              for j in range(2) if rng.random() < 0.5])
                union = Bigraph(g.left + g2.left, g.right + g2.right,
                                list(g.edges) + list(g2.edges))
                assert density(union, w) == pytest.approx(
                    ve * density(g2, w), rel=1e-12)


def random_right_uniform(rng):
    """Random right-uniform colored bigraph without isolated vertices."""
    from sidlab.bigraph import ColoredBigraph

    v1 = int(rng.integers(1, 5))
    left = [str(i) for i in range(1, v1 + 1)]
    n_right = int(rng.integers(1, 5))
    n_colors = int(rng.integers(1, 4))
    right, edges, colors = [], [], {}
    covered = set()
    for j in range(n_right):
        size = int(rng.integers(1, v1 + 1))
        nbhd = sorted(rng.choice(left, size=size, replace=False))
        rid = f"w{j}"
        right.append(rid)
        color = int(rng.integers(1, n_colors + 1))
        for v in nbhd:
            edges.append((v, rid))
            colors[(v, rid)] = color
            covered.add(v)
    for v in left:  # no isolated left vertices
        if v not in covered:
            rid = f"fix{v}"
            right.append(rid)
            edges.append((v, rid))
            colors[(v, rid)] = 1
    return ColoredBigraph(Bigraph(left, right, edges), colors)


def test_criterion_9_fractional_consistency():
    with criterion(9, "fractional/colored agreement and regularization", 120):
        rng = np.random.default_rng(9999)
        for _ in range(200):
            h = random_right_uniform(rng)
            frac = from_right_uniform(h)
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            ws = BigraphonTuple({
                c: random_step_bigraphon(rows, cols,
                                         seed=int(rng.integers(0, 2**31)))
                for c in h.color_set()})
            assert fractional_density(frac, ws) == pytest.approx(
                colored_density(h, ws), rel=1e-12)

        for i in range(200):
            trial_rng = np.random.default_rng([9090, i])
            v1 = int(trial_rng.integers(2, 5))
            verts = [str(v) for v in range(1, v1 + 1)]
            n_colors = int(trial_rng.integers(2, 4))
            weights = {}
            for k in range(1, v1 + 1):  # uniform weight per (subset size, color)
                for c in range(1, n_colors + 1):
                    wkc = float(trial_rng.uniform(0, 1.5))
                    if wkc < 0.3:
                        continue
                    for sub in itertools.combinations(verts, k):
                        weights[(sub, c)] = wkc
            colors = list(range(1, n_colors + 1))
            h = ColoredFractionalBigraph(verts, colors, weights)
            if h.total_edge_mass() == 0 or not h.is_color_regular():
                continue
            pivot = next((c for c in colors if h.edge_mass(c) > 0), None)
            rows, cols = int(trial_rng.integers(2, 5)), int(trial_rng.integers(2, 5))
            ws = BigraphonTuple({
                c: random_step_bigraphon(rows, cols,
                                         seed=int(trial_rng.integers(0, 2**31)))
                for c in colors})
            out = left_regularize_tuple(h, ws, pivot)
            assert fractional_density(h, out) == pytest.approx(
                fractional_density(h, ws), rel=1e-9)
            star = rainbow_star(h)
            assert fractional_density(star, out) == pytest.approx(
                fractional_density(star, ws), rel=1e-9)


def test_criterion_10_falsifiers():
    with criterion(10, "falsifier finds witnesses, precondition rejects", 30):
        offender = Bigraph(["a", "b"], ["c"], [("a", "c")])
        report = props.test_strong_sidorenko(offender, trials=1000, seed=1010)
        assert report.verdict == "violated"
        assert report.witness is not None
        assert props.replay_witness(report.witness) == report.worst_margin

        norm_report = props.test_weakly_norming(book(2), trials=10, seed=1011)
        assert norm_report.verdict == "violated"
        assert norm_report.trials == 0
        assert "biregular" in norm_report.witness["precondition"]


def test_criterion_11_rtd_verifier():
    with criterion(11, "reflective tree decompositions", 10):
        for g in (cycle4(), book(2), book(3), build_incidence(4, [2]).graph):
            report = verify_rtd(g, ReflectiveTreeDecomposition([g.vertex_set()]))
            assert report.passed
            assert report.core == two_core(g)

        b2 = book(2)
        two_bags = ReflectiveTreeDecomposition(
            [{"p", "q", "u1", "w1"}, {"p", "q", "u2", "w2"}], [(0, 1)])
        report = verify_rtd(b2, two_bags)
        assert report.passed
        assert graphs_isomorphic(report.core, cycle4())

        # random perturbations: insert a middle bag missing one of the two
        # shared vertices, so bags 0 and 2 meet outside the path
        pages = [{"p", "q", "u1", "w1"}, {"p", "q", "u2", "w2"}]
        rng = np.random.default_rng(1101)
        for _ in range(20):
            middle = {("p", "q")[int(rng.integers(0, 2))]}
            extra = ("u1", "w1", "u2", "w2")[int(rng.integers(0, 4))]
            bags = [pages[0], frozenset(middle | {extra}), pages[1]]
            report = verify_rtd(b2, ReflectiveTreeDecomposition(
                bags, [(0, 1), (1, 2)]))
            assert not report.passed
            assert "running intersection" in report.reason


def test_criterion_12_fold_enumeration_follows_involutions():
    with criterion(12, "fold enumeration follows involutions", 10):
        # star(10) has 10! automorphisms but only 9,496 involutions
        assert len(enumerate_folds(star(10))) == 9495
        empty = Bigraph([f"l{i}" for i in range(13)], [f"r{i}" for i in range(13)], [])
        with pytest.raises(GraphTooLargeError, match="search nodes"):
            enumerate_folds(empty)
