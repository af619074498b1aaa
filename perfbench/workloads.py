"""Seeded op schedules for the three benchmark workloads.

A workload is a list of untimed warm-up ops plus a list of rounds; every
round is a list of ops. An op is one `sidlab.cli.main(argv)` call together
with the outcome it must produce. The benchmark seed decides tester seeds,
presets, relabelings, fresh-graph draws and op order; the program only ever
sees the generated graph files and argv lists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from sidlab import cli

TOL = 1e-9
PRESETS = ("uniform", "adversarial")

# Rounds are pre-generated; a timed phase stops early if it uses them all.
MAX_ROUNDS = 60

NOT_BIREGULAR = "not biregular after removing isolated vertices"


@dataclass(frozen=True)
class Op:
    """One CLI call and its declared outcome.

    kind is "test", "certify" or "orbits". expect holds the exit code and
    the facts the output checks compare against. slot is the op's place in
    the round before shuffling: the same slot in every round is the same
    command on like inputs.
    """

    label: str
    kind: str
    argv: tuple[str, ...]
    expect: dict = field(hash=False)
    slot: int = -1


@dataclass
class Workload:
    name: str
    warmup: list[Op]
    rounds: list[list[Op]]
    # fixed per workload so the tail figure compares like with like
    tail_pct: int
    # graph files whose densities the oracle cross-check samples, with the
    # largest step count a sampled bigraphon may have on each side
    oracle_graphs: list[Path]
    oracle_grid: int


def _construct(workdir: Path, name: str, *args: str) -> Path:
    path = workdir / f"{name}.json"
    rc = cli.main(["construct", *args, "-o", str(path)])
    if rc != 0:
        raise RuntimeError(f"construct {name} exited {rc}")
    return path


def _incidence(workdir: Path, n: int, ks: tuple[int, ...]) -> Path:
    return _construct(workdir, f"incidence{n}_{''.join(map(str, ks))}",
                      "incidence", "--n", str(n),
                      "--uniformities", ",".join(map(str, ks)))


def _relabel(src: Path, dst: Path, rng: random.Random) -> Path:
    """Write src with fresh random vertex names and a shuffled edge order."""
    d = json.loads(src.read_text(encoding="utf-8"))
    verts = d["v1"] + d["v2"]
    names = {v: f"x{k}" for v, k in zip(verts, rng.sample(range(1_000_000), len(verts)))}
    order = list(range(len(d["edges"])))
    rng.shuffle(order)
    out = {"v1": [names[v] for v in d["v1"]], "v2": [names[v] for v in d["v2"]],
           "edges": [[names[d["edges"][i][0]], names[d["edges"][i][1]]] for i in order]}
    if d.get("edge_colors") is not None:
        out["edge_colors"] = [d["edge_colors"][i] for i in order]
    dst.write_text(json.dumps(out), encoding="utf-8")
    return dst


def _test_op(prop: str, graph: Path | None, tag: str, trials: int, grid: int,
             seed: int, preset: str = "uniform", extra: tuple[str, ...] = (),
             **expect) -> Op:
    argv = ["test", prop] + ([str(graph)] if graph is not None else [])
    argv += ["--trials", str(trials), "--grid", str(grid), "--seed", str(seed),
             "--preset", preset, *extra]
    expect.setdefault("exit", 0)
    expect.setdefault("trials", trials)
    return Op(f"test {prop} {tag} {preset}", "test", tuple(argv),
              dict(expect, tol=TOL))


def _round(ops: list[Op], rng: random.Random) -> list[Op]:
    """Number the ops' slots, then shuffle their order."""
    ops = [replace(op, slot=i) for i, op in enumerate(ops)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# testers-narrow: grid 4, per-trial Python work


NARROW_TRIALS = 16
NARROW_GRID = 4
# stratified fresh draws: one relabeled incidence graph per n in every round,
# uniformities drawn from the nonempty subsets of {2, ..., n-1} of size <= 2
FRESH_KS = {3: [(2,)],
            4: [(2,), (3,), (2, 3)],
            5: [(2,), (3,), (4,), (2, 3), (2, 4), (3, 4)]}


def testers_narrow(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    c4 = _construct(workdir, "cycle4", "cycle4")
    i42 = _incidence(workdir, 4, (2,))
    i423 = _incidence(workdir, 4, (2, 3))
    i523 = _incidence(workdir, 5, (2, 3))
    pair = workdir / "falsifier.json"
    pair.write_text(json.dumps({"v1": ["a", "b"], "v2": ["c"], "edges": [["a", "c"]]}),
                    encoding="utf-8")
    bases = {(n, ks): _incidence(workdir, n, ks)
             for n, options in FRESH_KS.items() for ks in options}
    graphs = {"cycle4": c4, "incidence(4,{2})": i42, "incidence(4,{2,3})": i423,
              "incidence(5,{2,3})": i523}
    colored = {k: v for k, v in graphs.items() if k != "cycle4"}
    small = {k: v for k, v in graphs.items() if k != "incidence(5,{2,3})"}
    biregular = {"cycle4": c4, "incidence(4,{2})": i42}

    def seed_() -> int:
        return rng.randrange(2**31)

    def op(prop, graph, tag, preset="uniform", **kw):
        return _test_op(prop, graph, tag, NARROW_TRIALS, NARROW_GRID, seed_(),
                        preset, **kw)

    rounds = []
    for r in range(MAX_ROUNDS):
        ops = []
        for preset in PRESETS:
            for tag, g in graphs.items():
                ops.append(op("sidorenko", g, tag, preset))
                ops.append(op("strong-sidorenko", g, tag, preset))
            for tag, g in biregular.items():
                ops.append(op("weak-norming", g, tag, preset))
            for tag, g in small.items():
                # induced-sidorenko enumerates profiles of <= 4 left vertices;
                # cs-tree's default pool is capped at 24 vertices
                ops.append(op("induced-sidorenko", g, tag, preset))
                ops.append(op("cs-tree", g, tag, preset))
            for tag, g in colored.items():
                ops.append(op("left-weak-holder", g, tag, preset))
                ops.append(op("color-sidorenko", g, tag, preset))
        for tag, g in colored.items():
            # color-restriction has no preset; one op per graph
            ops.append(op("color-restriction", g, tag, extra=("--colors", "1")))
        for n, options in FRESH_KS.items():
            ks = rng.choice(options)
            fresh = _relabel(bases[(n, ks)], workdir / f"fresh{r}_{n}.json", rng)
            tag = f"fresh incidence({n},{{{','.join(map(str, ks))}}})"
            ops.append(op("sidorenko", fresh, tag, rng.choice(PRESETS)))
        ops.append(op("strong-sidorenko", pair, "falsifier", exit=3, witness=True))
        ops.append(op("weak-norming", i423, "incidence(4,{2,3})", exit=3,
                      refusal=NOT_BIREGULAR))
        ops.append(_test_op("jensen", None, "n=4", NARROW_TRIALS, NARROW_GRID,
                            seed_(), extra=("--n", "4")))
        rounds.append(_round(ops, rng))

    warmup = [_test_op(prop, g, "warm-up", 1, NARROW_GRID, 0, **kw)
              for prop, g, kw in [
                  ("sidorenko", i42, {}), ("strong-sidorenko", i42, {}),
                  ("weak-norming", i42, {}), ("induced-sidorenko", c4, {}),
                  ("cs-tree", c4, {}), ("left-weak-holder", i42, {}),
                  ("color-sidorenko", i42, {}),
                  ("color-restriction", i42, {"extra": ("--colors", "1")}),
                  ("jensen", None, {"extra": ("--n", "2")})]]
    oracle = [c4, i42, i423] + [bases[(3, (2,))], bases[(4, (2,))]]
    return Workload("testers-narrow", warmup, rounds, tail_pct=95,
                    oracle_graphs=oracle, oracle_grid=NARROW_GRID)


# ---------------------------------------------------------------------------
# testers-wide: grid 16, contraction arithmetic


WIDE_TRIALS = 2
WIDE_GRID = 16
# The cost of a grid-16 trial grows like rows**6 on incidence(6,{2,3}), so
# freely drawn tester seeds would make every run a different amount of work.
# The tester seeds are therefore fixed; the benchmark seed draws the presets
# (which change the sampled values, not the array sizes) and the op order.
WIDE_TESTER_SEEDS = (0, 1)


def testers_wide(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    i423 = _incidence(workdir, 4, (2, 3))
    i523 = _incidence(workdir, 5, (2, 3))
    i623 = _incidence(workdir, 6, (2, 3))
    plan = [("sidorenko", i523, "incidence(5,{2,3})"),
            ("sidorenko", i623, "incidence(6,{2,3})"),
            ("strong-sidorenko", i523, "incidence(5,{2,3})"),
            ("strong-sidorenko", i623, "incidence(6,{2,3})"),
            ("induced-sidorenko", i423, "incidence(4,{2,3})"),
            ("color-sidorenko", i523, "incidence(5,{2,3})")]
    rounds = []
    for _ in range(MAX_ROUNDS):
        ops = [_test_op(prop, g, tag, WIDE_TRIALS, WIDE_GRID, s, rng.choice(PRESETS))
               for prop, g, tag in plan for s in WIDE_TESTER_SEEDS]
        rounds.append(_round(ops, rng))
    # warm-up at grid 4 touches every code path without grid-16 arrays
    warmup = [_test_op(prop, g, "warm-up", 1, 4, 0) for prop, g, _ in plan]
    return Workload("testers-wide", warmup, rounds, tail_pct=85,
                    oracle_graphs=[i423, i523, i623], oracle_grid=WIDE_GRID)


# ---------------------------------------------------------------------------
# certify: graph core, folds, reflection pools, BFS and verification


EDGE_BUDGET = 5000
ORBIT_TRIALS = 50


def _certify_op(graph: Path, tag: str, mode: str, pool: str = "all",
                budget: int | None = None, **expect) -> Op:
    argv = ["certify", str(graph), "--mode", mode, "--pool", pool]
    if budget is not None:
        argv += ["--budget", str(budget)]
    expect.setdefault("exit", 0 if "length" in expect else 2)
    return Op(f"certify {tag} {mode} {pool}", "certify", tuple(argv),
              dict(expect, mode=mode, graph=str(graph)))


def _orbits_op(graph: Path, tag: str, seed: int, trials: int = ORBIT_TRIALS) -> Op:
    argv = ["check", "orbits", str(graph), "--template", str(graph),
            "--trials", str(trials), "--seed", str(seed)]
    return Op(f"check orbits {tag}", "orbits", tuple(argv),
              {"exit": 0, "trials": trials})


def certify(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    i42 = _incidence(workdir, 4, (2,))
    i423 = _incidence(workdir, 4, (2, 3))
    i523 = _incidence(workdir, 5, (2, 3))
    i623 = _incidence(workdir, 6, (2, 3))
    i723 = _incidence(workdir, 7, (2, 3))
    i823 = _incidence(workdir, 8, (2, 3))
    # default-pool graphs get seeded vertex names; the reflection pool needs
    # the incidence naming, so those files stay as constructed
    plain = {"star(7)": _construct(workdir, "star7", "star", "--d", "7"),
             "star(8)": _construct(workdir, "star8", "star", "--d", "8"),
             "incidence(4,{2})": i42,
             "cycle4": _construct(workdir, "cycle4", "cycle4"),
             "book(2)": _construct(workdir, "book2", "book", "--k", "2")}
    relabeled = {tag: _relabel(path, workdir / f"relabeled_{path.name}", rng)
                 for tag, path in plain.items()}
    # Shortest lengths within the default pool, as found by the BFS; both
    # searches on the 2-book exhaust without a certificate.
    default_expect = {
        ("star(7)", "left"): {"length": 0}, ("star(7)", "edge"): {"length": 3},
        ("star(8)", "left"): {"length": 0}, ("star(8)", "edge"): {"length": 3},
        ("incidence(4,{2})", "left"): {"length": 3},
        ("incidence(4,{2})", "edge"): {"length": 5},
        ("cycle4", "left"): {"length": 1}, ("cycle4", "edge"): {"length": 2},
        ("book(2)", "left"): {"reason": "exhausted", "states": 4},
        ("book(2)", "edge"): {"reason": "exhausted", "states": 10},
    }
    rounds = []
    for _ in range(MAX_ROUNDS):
        ops = [_certify_op(i723, "incidence(7,{2,3})", "left", "reflection", length=6),
               _certify_op(i823, "incidence(8,{2,3})", "left", "reflection", length=7),
               _certify_op(i523, "incidence(5,{2,3})", "edge", "reflection",
                           reason="exhausted", states=6712),
               _certify_op(i623, "incidence(6,{2,3})", "edge", "reflection",
                           budget=EDGE_BUDGET, reason="budget", states=EDGE_BUDGET + 1)]
        ops += [_certify_op(relabeled[tag], tag, mode, **want)
                for (tag, mode), want in default_expect.items()]
        # two orbit checks per graph, so trials_per_s rests on four slots
        ops += [_orbits_op(g, tag, rng.randrange(2**31))
                for g, tag in [(i42, "incidence(4,{2})"), (i423, "incidence(4,{2,3})")] * 2]
        rounds.append(_round(ops, rng))
    warmup = [_certify_op(i42, "incidence(4,{2})", "left", "reflection", length=3),
              _certify_op(i42, "incidence(4,{2})", "edge", "reflection", length=5),
              _certify_op(plain["cycle4"], "cycle4", "left", length=1),
              _certify_op(plain["cycle4"], "cycle4", "edge", length=2),
              _orbits_op(i42, "incidence(4,{2})", 0, trials=1)]
    return Workload("certify", warmup, rounds, tail_pct=90,
                    oracle_graphs=[], oracle_grid=0)


WORKLOADS = {"testers-narrow": testers_narrow, "testers-wide": testers_wide,
             "certify": certify}
