"""CLI tests: construction, certification, testing, checking, exit codes."""

import json
from pathlib import Path

import pytest
from cli_grid import run_grid

from sidlab.bigraph import Bigraph, from_json_dict
from sidlab.cli import TEST_PROPERTIES, main
from sidlab.percolation import certificate_from_json, verify_certificate


def run(tmp_path, *argv):
    return main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# construct


def test_construct_incidence(tmp_path):
    out = tmp_path / "g.json"
    code = main(["construct", "incidence", "--n", "4", "--uniformities", "2",
                 "-o", str(out)])
    assert code == 0
    d = read_json(out)
    assert len(d["v2"]) == 6 and len(d["edges"]) == 12
    assert d["edge_colors"] == [1] * 12


def test_construct_book_and_cycle(tmp_path):
    out = tmp_path / "b.json"
    assert main(["construct", "book", "--k", "2", "-o", str(out)]) == 0
    g = from_json_dict(read_json(out))
    assert (g.v1, g.v2, g.e) == (3, 3, 7)
    out2 = tmp_path / "c4.json"
    assert main(["construct", "cycle4", "-o", str(out2)]) == 0
    assert len(read_json(out2)["edges"]) == 4
    out3 = tmp_path / "star.json"
    assert main(["construct", "star", "--d", "3", "-o", str(out3)]) == 0
    assert len(read_json(out3)["edges"]) == 3


def test_construct_bad_params():
    assert main(["construct", "incidence", "--n", "4"]) == 1
    assert main(["construct", "incidence", "--n", "4",
                 "--uniformities", "7"]) == 1
    assert main(["construct", "book"]) == 1
    assert main(["construct", "star", "--d", "-1"]) == 1


# ---------------------------------------------------------------------------
# certify


def make_graph(tmp_path, *argv):
    path = tmp_path / "graph.json"
    assert main(list(argv) + ["-o", str(path)]) == 0
    return path


def test_certify_incidence_reflection(tmp_path):
    gpath = make_graph(tmp_path, "construct", "incidence", "--n", "4",
                       "--uniformities", "2,3")
    cpath = tmp_path / "cert.json"
    code = main(["certify", str(gpath), "--mode", "left", "--pool", "reflection",
                 "-o", str(cpath)])
    assert code == 0
    cert = certificate_from_json(read_json(cpath))
    g = from_json_dict(read_json(gpath)).graph
    assert verify_certificate(g, cert)


def test_certify_edge_mode_trivial(tmp_path):
    gpath = tmp_path / "edge.json"
    gpath.write_text(json.dumps({"v1": ["1"], "v2": ["2"], "edges": [["1", "2"]]}))
    cpath = tmp_path / "cert.json"
    assert main(["certify", str(gpath), "--mode", "edge", "-o", str(cpath)]) == 0
    assert read_json(cpath)["folds"] == []


def test_certify_not_found(tmp_path):
    gpath = tmp_path / "path.json"
    gpath.write_text(json.dumps({
        "v1": ["a", "b"], "v2": ["c", "d"],
        "edges": [["a", "c"], ["b", "c"], ["b", "d"]]}))
    assert main(["certify", str(gpath), "--mode", "left"]) == 2


def test_certify_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", str(bad), "--mode", "left"]) == 1
    missing = tmp_path / "missing.json"
    assert main(["certify", str(missing), "--mode", "left"]) == 1


def test_certify_non_graph_json_names_the_problem(tmp_path, capsys):
    for text, message in (("[]", "error: bigraph must be a JSON object\n"),
                          ("{}", "error: bigraph lacks 'v1'\n")):
        gpath = tmp_path / "g.json"
        gpath.write_text(text)
        capsys.readouterr()
        assert main(["certify", str(gpath), "--mode", "left"]) == 1
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""


V1 = "bigraph 'v1' must be a list of strings"
EDGES = "bigraph 'edges' must be a list of [left, right] string pairs"
COLORS = "bigraph 'edge_colors' must be a list of ints"
TWICE = "bigraph 'edges'[2]: edge ('a', 'b') is listed twice"
MISTYPED_GRAPHS = {
    "v1 entry an object": ({"v1": [{}], "v2": ["b"]}, V1),
    "v1 a string": ({"v1": "ab", "v2": ["c"], "edges": [["a", "c"]]}, V1),
    "v1 entry an int": ({"v1": [1], "v2": ["b"], "edges": [[1, "b"]]}, V1),
    "v2 null": ({"v1": ["a"], "v2": None},
                "bigraph 'v2' must be a list of strings"),
    "edge of one vertex": ({"v1": ["a"], "v2": ["b"], "edges": [["a"]]}, EDGES),
    "edges an object": ({"v1": ["a"], "v2": ["b"], "edges": {}}, EDGES),
    "edge_colors entry an object": ({"v1": ["a"], "v2": ["b"], "edges": [["a", "b"]],
                                     "edge_colors": [{}]}, COLORS),
    "edge_colors a string": ({"v1": ["a"], "v2": ["b"], "edges": [["a", "b"]],
                              "edge_colors": "1"}, COLORS),
    "edge listed twice": ({"v1": ["a"], "v2": ["b", "c"],
                           "edges": [["a", "b"], ["a", "c"], ["a", "b"]]}, TWICE),
    "colored edge listed twice": ({"v1": ["a"], "v2": ["b"], "edges": [["a", "b"], ["a", "b"]],
                                   "edge_colors": [1, 2]},
                                  "bigraph 'edges'[1]: edge ('a', 'b') is listed twice"),
}


@pytest.mark.parametrize("case", list(MISTYPED_GRAPHS))
def test_bigraph_decoder_names_the_mistyped_key(tmp_path, capsys, case):
    payload, message = MISTYPED_GRAPHS[case]
    with pytest.raises(ValueError) as exc:
        from_json_dict(payload)
    assert str(exc.value) == message
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", str(gpath), "--mode", "left"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_bigraph_edges_may_be_omitted():
    assert from_json_dict({"v1": ["a"], "v2": ["b"]}) == Bigraph(["a"], ["b"])


def test_certify_reflection_pool_requires_incidence(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    assert main(["certify", str(gpath), "--mode", "left",
                 "--pool", "reflection"]) == 1


def test_certify_deterministic_bytes(tmp_path):
    gpath = make_graph(tmp_path, "construct", "incidence", "--n", "4",
                       "--uniformities", "2")
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["certify", str(gpath), "--mode", "left", "-o", str(c1)]) == 0
    assert main(["certify", str(gpath), "--mode", "left", "-o", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


# ---------------------------------------------------------------------------
# test


def test_test_sidorenko_cycle4(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    rpath = tmp_path / "report.json"
    code = main(["test", "sidorenko", str(gpath), "--trials", "1000",
                 "--seed", "42", "-o", str(rpath)])
    assert code == 0
    report = read_json(rpath)
    assert report["verdict"] == "holds-on-all-trials"
    assert report["trials"] == 1000


def test_test_strong_sidorenko_violation(tmp_path):
    gpath = tmp_path / "iso.json"
    gpath.write_text(json.dumps({"v1": ["a", "b"], "v2": ["c"],
                                 "edges": [["a", "c"]]}))
    rpath = tmp_path / "report.json"
    code = main(["test", "strong-sidorenko", str(gpath), "--trials", "200",
                 "--seed", "1", "-o", str(rpath)])
    assert code == 3
    report = read_json(rpath)
    assert report["verdict"] == "violated"
    assert report["witness"] is not None


def test_test_determinism(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["test", "sidorenko", str(gpath), "--trials", "20", "--seed", "7",
          "-o", str(r1)])
    main(["test", "sidorenko", str(gpath), "--trials", "20", "--seed", "7",
          "-o", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_test_weak_norming_precondition(tmp_path):
    gpath = make_graph(tmp_path, "construct", "book", "--k", "2")
    assert main(["test", "weak-norming", str(gpath), "--trials", "5"]) == 3


def test_test_left_weak_holder_needs_colors(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    assert main(["test", "left-weak-holder", str(gpath)]) == 1
    colored = make_graph(tmp_path, "construct", "incidence", "--n", "3",
                         "--uniformities", "2")
    assert main(["test", "left-weak-holder", str(colored),
                 "--trials", "20"]) == 0


def test_test_color_properties(tmp_path):
    colored = make_graph(tmp_path, "construct", "incidence", "--n", "3",
                         "--uniformities", "1,2")
    assert main(["test", "color-sidorenko", str(colored), "--trials", "20"]) == 0
    assert main(["test", "color-restriction", str(colored), "--colors", "2",
                 "--trials", "20"]) == 0
    assert main(["test", "color-restriction", str(colored)]) == 1  # no --colors
    # kept colors outside the coloring's colors {1, 2}
    for colors in ("3", "9", "1,3"):
        assert main(["test", "color-restriction", str(colored), "--colors", colors,
                     "--trials", "4"]) == 1


def test_test_bad_colors_is_a_usage_error(tmp_path, capsys):
    colored = make_graph(tmp_path, "construct", "incidence", "--n", "3",
                         "--uniformities", "1,2")
    capsys.readouterr()
    assert main(["test", "color-restriction", str(colored), "--colors", "1,a"]) == 1
    assert "usage error: bad --colors '1,a'" in capsys.readouterr().err


def test_test_cs_tree_and_jensen(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    assert main(["test", "cs-tree", str(gpath), "--trials", "30"]) == 0
    assert main(["test", "jensen", "--n", "2", "--trials", "30"]) == 0


def test_test_cs_tree_on_an_edgeless_graph_runs_no_trials(tmp_path):
    gpath, out = tmp_path / "edgeless.json", tmp_path / "report.json"
    gpath.write_text(json.dumps({"v1": ["a"], "v2": ["b"]}), encoding="utf-8")
    assert main(["test", "cs-tree", str(gpath), "-o", str(out)]) == 0
    report = read_json(out)
    assert (report["verdict"], report["trials"]) == ("holds-on-all-trials", 0)


def test_test_induced_sidorenko(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    rpath = tmp_path / "ind.json"
    assert main(["test", "induced-sidorenko", str(gpath), "--trials", "30",
                 "--tol", "1e-8", "-o", str(rpath)]) == 0
    assert read_json(rpath)["verdict"] == "holds-on-all-trials"


def test_test_induced_sidorenko_refuses_past_the_profile_cap(tmp_path, capsys):
    # incidence(5,{2,3}) has 1,243,649 count vectors in the subsets enumerated
    gpath = make_graph(tmp_path, "construct", "incidence", "--n", "5",
                       "--uniformities", "2,3")
    assert main(["test", "induced-sidorenko", str(gpath), "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert "more than 200,000 count vectors to enumerate (PROFILE_CLASS_CAP)" in err
    assert "Traceback" not in err


def test_test_induced_sidorenko_runs_where_pruning_keeps_under_the_cap(tmp_path):
    gpath = make_graph(tmp_path, "construct", "incidence", "--n", "5",
                       "--uniformities", "2,4")
    assert main(["test", "induced-sidorenko", str(gpath), "--trials", "2"]) in (0, 3)


README_OPTIONS = ("grid", "preset", "n", "colors")
README_INPUTS = {"plain": "bigraph (edge colors ignored)",
                 "colored": "edge-colored bigraph",
                 "fractional": "right-uniform edge-colored bigraph, no isolated vertices",
                 "none": "none"}


def test_readme_test_options_table():
    """The README's `sidlab test` table is generated from the property table."""
    lines = ["| property | input file | "
             + " | ".join(f"`--{o}`" for o in README_OPTIONS) + " |",
             "|---" * (2 + len(README_OPTIONS)) + "|"]
    for name, prop in TEST_PROPERTIES.items():
        reads = ["read" if o in prop.cli_options else "ignored" for o in README_OPTIONS]
        lines.append(f"| `{name}` | {README_INPUTS[prop.cli_input]} | "
                     + " | ".join(reads) + " |")
    table = "\n".join(lines)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme.read_text(encoding="utf-8")
    assert table in readme, "README table out of date; expected:\n" + table


def test_test_unknown_property(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    assert main(["test", "frobnicate", str(gpath)]) == 1


def test_test_without_a_graph_file(capsys):
    assert main(["test", "sidorenko"]) == 1
    assert capsys.readouterr().err == "usage error: sidorenko requires a graph file\n"


# ---------------------------------------------------------------------------
# check


def test_check_largeright_profile(tmp_path):
    rpath = tmp_path / "r.json"
    assert main(["check", "largeright", "--v1", "4", "--profile", "2:6",
                 "-o", str(rpath)]) == 0
    assert read_json(rpath)["passed"] is True
    assert main(["check", "largeright", "--v1", "4", "--profile", "2:5"]) == 3


def test_check_conlonlee_profile():
    assert main(["check", "conlonlee", "--v1", "4", "--profile", "2:6"]) == 0
    assert main(["check", "conlonlee", "--v1", "4", "--profile", "2:7"]) == 3


def test_check_orbits(tmp_path):
    template = make_graph(tmp_path, "construct", "incidence", "--n", "4",
                          "--uniformities", "2")
    ok = main(["check", "orbits", str(template), "--template", str(template),
               "--trials", "10"])
    assert ok == 0
    # mismatched left sides -> precondition exit
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"v1": ["9"], "v2": ["r"], "edges": [["9", "r"]]}))
    assert main(["check", "orbits", str(other), "--template", str(template),
                 "--trials", "5"]) == 4


def test_check_orbits_on_25_vertices(tmp_path):
    # incidence(5,{2,3}) has 25 vertices and a group of order 120
    template = make_graph(tmp_path, "construct", "incidence", "--n", "5",
                          "--uniformities", "2,3")
    out = tmp_path / "orbits.json"
    assert main(["check", "orbits", str(template), "--template", str(template),
                 "--trials", "2", "-o", str(out)]) == 0
    report = read_json(out)
    assert report["passed"] is True
    assert [row["orbit_size"] for row in report["orbits"]] == [10, 10]


def test_check_rtd(tmp_path):
    gpath = make_graph(tmp_path, "construct", "book", "--k", "2")
    dpath = tmp_path / "decomp.json"
    dpath.write_text(json.dumps({
        "bags": [["p", "q", "u1", "w1"], ["p", "q", "u2", "w2"]],
        "edges": [[0, 1]]}))
    rpath = tmp_path / "r.json"
    assert main(["check", "rtd", str(gpath), "--decomposition", str(dpath),
                 "-o", str(rpath)]) == 0
    report = read_json(rpath)
    assert report["passed"] and len(report["core"]["edges"]) == 4

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "bags": [["p", "q", "u1", "w1"], ["q", "u1"], ["p", "q", "u2", "w2"]],
        "edges": [[0, 1], [1, 2]]}))
    assert main(["check", "rtd", str(gpath), "--decomposition", str(bad)]) == 3


BAGS = "decomposition 'bags' must be a list of string lists"
TREE_EDGES = "decomposition 'edges' must be a list of integer pairs"
MALFORMED_DECOMPOSITIONS = {
    "top-level list": ([["p", "q"]], "decomposition must be a JSON object"),
    "no bags": ({"edges": []}, "decomposition lacks 'bags'"),
    "bags an object": ({"bags": {}}, BAGS),
    "bag an int": ({"bags": [["a"], 3]}, BAGS),
    "bag entry an int": ({"bags": [["p", 1]]}, BAGS),
    "edges a string": ({"bags": [["p"], ["q"]], "edges": "01"}, TREE_EDGES),
    "edge of one index": ({"bags": [["p"], ["q"]], "edges": [[0]]}, TREE_EDGES),
    "edge of strings": ({"bags": [["p"], ["q"]], "edges": [["0", "1"]]}, TREE_EDGES),
}


@pytest.mark.parametrize("case", list(MALFORMED_DECOMPOSITIONS))
def test_check_rtd_names_the_malformed_key(tmp_path, capsys, case):
    payload, message = MALFORMED_DECOMPOSITIONS[case]
    gpath = make_graph(tmp_path, "construct", "book", "--k", "2")
    dpath = tmp_path / "decomp.json"
    dpath.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check", "rtd", str(gpath), "--decomposition", str(dpath)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_check_rtd_edges_may_be_omitted(tmp_path):
    gpath = make_graph(tmp_path, "construct", "book", "--k", "2")
    dpath = tmp_path / "decomp.json"
    dpath.write_text(json.dumps({"bags": [sorted(from_json_dict(
        read_json(gpath)).vertices())]}))
    assert main(["check", "rtd", str(gpath), "--decomposition", str(dpath)]) == 0


@pytest.mark.parametrize("checker", ["largeright", "conlonlee"])
def test_check_profile_from_a_graph_file(tmp_path, checker):
    """A graph file gives the bytes of its own --v1/--profile form; on
    incidence(n,{2,3}) for n = 4, 5 largeright passes and conlonlee fails. A
    graph with an isolated vertex fails the precondition."""
    for n, profile in (("4", "2:6,3:4"), ("5", "2:10,3:10")):
        gpath = make_graph(tmp_path, "construct", "incidence", "--n", n,
                           "--uniformities", "2,3")
        on_graph, on_profile = tmp_path / "graph-rows.json", tmp_path / "profile-rows.json"
        code = main(["check", checker, str(gpath), "-o", str(on_graph)])
        assert code == (0 if checker == "largeright" else 3)
        assert main(["check", checker, "--v1", n, "--profile", profile,
                     "-o", str(on_profile)]) == code
        assert on_graph.read_bytes() == on_profile.read_bytes()
    isolated = tmp_path / "isolated.json"
    isolated.write_text(json.dumps({"v1": ["a", "b", "c"], "v2": ["x"],
                                    "edges": [["a", "x"], ["b", "x"]]}))
    assert main(["check", checker, str(isolated)]) == 4


def test_check_usage_errors(capsys):
    assert main(["check", "largeright"]) == 1
    assert main(["check", "orbits"]) == 1
    assert main(["check", "rtd"]) == 1
    capsys.readouterr()
    assert main(["check", "largeright", "--v1", "4", "--profile", "2-6"]) == 1
    assert capsys.readouterr().err == \
        "usage error: bad profile '2-6' (expected 'k:d_k,...')\n"
    assert main(["check", "largeright", "--v1", "4", "--profile", "2:-1"]) == 1
    assert capsys.readouterr().err == "error: degrees and counts must be nonnegative\n"
    # empty items are skipped: 2:1 is checked, and fails
    assert main(["check", "largeright", "--v1", "4", "--profile", "2:1,,"]) == 3


def test_config_validation(tmp_path):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    assert main(["test", "sidorenko", str(gpath), "--trials", "0"]) == 1
    assert main(["test", "sidorenko", str(gpath), "--tol", "2.0"]) == 1
    assert main(["test", "sidorenko", str(gpath), "--grid", "0"]) == 1
    assert main(["certify", str(gpath), "--mode", "left", "--budget", "0"]) == 1


def test_negative_seed_is_refused(tmp_path, capsys):
    gpath = make_graph(tmp_path, "construct", "incidence", "--n", "4",
                       "--uniformities", "2")
    capsys.readouterr()
    for argv in (["test", "sidorenko", str(gpath)],
                 ["check", "orbits", str(gpath), "--template", str(gpath)]):
        assert main([*argv, "--seed", "-5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: --seed must be nonnegative\n"
        assert captured.out == ""


def test_grid_checked_only_where_read(tmp_path, capsys):
    gpath = make_graph(tmp_path, "construct", "cycle4")
    capsys.readouterr()
    assert main(["test", "jensen", "--n", "2", "--trials", "5", "--grid", "0"]) == 0
    capsys.readouterr()
    assert main(["test", "sidorenko", str(gpath), "--grid", "0"]) == 1
    assert "--grid must be positive" in capsys.readouterr().err


def test_an_allocation_that_fails_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A grid too large to allocate ends as an input error: one `error:`
    line and exit 1, no traceback. The sampler raises in place of
    allocating, so nothing large is ever asked for."""
    import sidlab.testers as testers
    gpath = make_graph(tmp_path, "construct", "cycle4")
    capsys.readouterr()
    message = ("Unable to allocate 40.4 GiB for an array with shape (1, 85063, 63697) "
               "and data type float64")
    for raised, err in ((MemoryError(message), f"error: {message}\n"),
                        (MemoryError(), "error: out of memory\n")):
        def huge(*args, exc=raised):
            raise exc
        monkeypatch.setattr(testers, "_sample_bigraphon", huge)
        assert main(["test", "sidorenko", str(gpath), "--grid", "100000", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""


def test_budget_env_override(tmp_path, monkeypatch):
    gpath = make_graph(tmp_path, "construct", "incidence", "--n", "5",
                       "--uniformities", "2")
    monkeypatch.setenv("SIDLAB_BUDGET", "1")
    assert main(["certify", str(gpath), "--mode", "left",
                 "--pool", "reflection"]) == 2
    monkeypatch.delenv("SIDLAB_BUDGET")
    assert main(["certify", str(gpath), "--mode", "left",
                 "--pool", "reflection", "-o", str(tmp_path / "c.json")]) == 0
    # a non-integer budget is a usage error, and only for certify
    monkeypatch.setenv("SIDLAB_BUDGET", "abc")
    assert main(["construct", "cycle4", "-o", str(tmp_path / "c4.json")]) == 0
    assert main(["certify", str(gpath), "--mode", "left"]) == 1


def test_bad_budget_env_message_and_explicit_override(tmp_path, monkeypatch, capsys):
    gpath = make_graph(tmp_path, "construct", "incidence", "--n", "4",
                       "--uniformities", "2")
    capsys.readouterr()
    monkeypatch.setenv("SIDLAB_BUDGET", "1.5")
    assert main(["certify", str(gpath), "--mode", "left"]) == 1
    assert capsys.readouterr().err == \
        "usage error: argument --budget: invalid int value: '1.5'\n"
    # an explicit --budget is used, and the variable is not read
    assert main(["certify", str(gpath), "--mode", "left", "--budget", "1"]) == 2


def test_cli_grid_repeats_its_bytes_in_one_process():
    """The quick grid of tests/cli_grid.py gives the same bytes twice in one
    process, the second time in reverse order, so no command leaves state
    that changes a later one's output."""
    forward, _ = run_grid(quick=True)
    backward, _ = run_grid(quick=True, reverse=True)
    assert len(forward) > 50
    assert sorted(forward) == sorted(backward)


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    import sidlab.cli as cli
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["construct", "cycle4", "-o", str(tmp_path / "c4.json")]) == 0
        assert main(["construct", "nope"]) == 1
    finally:
        cli._parser.cache_clear()
    assert built == [1]
