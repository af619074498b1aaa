"""Cross-module integration: certificates feeding inequality evidence."""

from collections import Counter

from sidlab import testers as props
from sidlab.bigraph import Bigraph, ColoredBigraph, cycle4
from sidlab.checkers import DegreeProfile, check_orbit_hypotheses
from sidlab.percolation import (
    PercolationCertificate,
    find_cut_percolating,
    find_left_cut_percolating,
    project_to_left,
    verify_certificate,
)
from sidlab.reflection import IncidenceBigraph, build_incidence, reflection_fold_pool
from sidlab.testers import induced_subgraph_profiles
from test_oracles import GRAPHS


def test_percolating_graph_with_invariant_coloring_is_lwh_on_trials():
    # a left-cut-percolating graph with a fold-invariant coloring should
    # pass the left-weak-Hoelder trial run
    g = cycle4()
    cert = find_left_cut_percolating(g)
    assert isinstance(cert, PercolationCertificate)
    mono = ColoredBigraph(g, {e: 1 for e in g.edges})
    assert props.test_left_weak_holder(mono, trials=60, seed=31).holds

    ib = IncidenceBigraph(4, [2, 3])
    cert = find_left_cut_percolating(ib.graph, reflection_fold_pool(ib))
    assert isinstance(cert, PercolationCertificate)
    assert props.test_left_weak_holder(ib.colored, trials=60, seed=32).holds


def test_edge_mode_reflection_percolation_and_projection():
    ib = IncidenceBigraph(4, [2])
    cert = find_cut_percolating(ib.graph, reflection_fold_pool(ib))
    assert isinstance(cert, PercolationCertificate)
    left = project_to_left(ib.graph, cert)
    assert verify_certificate(ib.graph, left)


def test_orbit_hypotheses_feed_strong_sidorenko_evidence():
    h = build_incidence(4, [2])
    g = DegreeProfile(4, {2: 7}).to_bigraph()
    report = check_orbit_hypotheses(g, h, lwh_trials=20, seed=33)
    assert report.passed
    assert props.test_strong_sidorenko(g, trials=200, seed=34).holds

    g23 = build_incidence(4, [2, 3]).graph
    assert props.test_strong_sidorenko(g23, trials=150, seed=35).holds


def test_batched_induced_tester_agrees_with_pairwise_domination():
    g = cycle4()
    batched = props.test_induced_sidorenko(g, trials=50, seed=36, tol=1e-8)
    assert batched.holds
    for profile in induced_subgraph_profiles(g):
        right, edges = [], []
        for idx, (subset, count) in enumerate(sorted(
                profile.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))):
            for copy in range(count):
                rid = f"R{idx}_{copy}"
                right.append(rid)
                edges += [(v, rid) for v in sorted(subset)]
        sub = Bigraph(g.left, right, edges)
        pairwise = props.test_weak_domination(g, sub, trials=50, seed=36)
        assert pairwise.holds, profile


def test_own_profile_matches_neighborhood_census():
    g = build_incidence(4, [2, 3]).graph
    census = Counter(frozenset(g.neighbors(w)) for w in g.right)
    profiles = induced_subgraph_profiles(g)
    assert dict(census) in [dict(p) for p in profiles]


def test_the_papers_chain_holds_on_trials_across_the_oracle_corpus():
    """A left-cut-percolating graph is induced-Sidorenko, and a
    cut-percolating one weakly norming: each graph of the oracle corpus
    with a certificate found within 20,000 states holds the property on
    100 grid-6 trials of each preset. The verdicts are numeric evidence;
    the certificate counts pin both searches' verdicts on the corpus."""
    left = edge = 0
    for name, g in GRAPHS.items():
        chain = []
        if find_left_cut_percolating(g, budget=20_000):
            left += 1
            chain.append(props.test_induced_sidorenko)
        if g.e and find_cut_percolating(g, budget=20_000):
            edge += 1
            chain.append(props.test_weakly_norming)
        for tester in chain:
            for preset in ("uniform", "adversarial"):
                report = tester(g, trials=100, grid=6, seed=3, preset=preset)
                assert report.holds, (name, tester.__name__, preset, report.worst_margin)
    assert (left, edge) == (50, 47)
