"""A fixed grid of sidlab CLI commands, hashed, for byte-identity checks.

Every command runs in this one process through `sidlab.cli.main`. For each
one the script prints its exit code and the sha256 of its stdout, its
stderr and its `-o` file (the temporary directory's path replaced by
`$TMP`), then the command itself; the last line is one digest over all of
them. Two trees give the same total exactly when every command gives the
same bytes, so a refactor is checked by running the script against each:

    PYTHONPATH=src python tests/cli_grid.py            # the whole grid
    PYTHONPATH=src python tests/cli_grid.py --quick    # every 8th command

The grid runs every `sidlab construct` kind; `certify` in both modes, at
small budgets and with the reflection pool, including a BFS whose states
take two words (incidence(6,{2,3}), 90 edges); every `sidlab test`
property, at grids 1, 4, 8 and 16; every `sidlab check` checker, on graph
files and on `--v1`/`--profile`; and refusals: malformed profiles and
decompositions, a one-ended edge, a missing graph file, a degenerate
template.

Because one process runs every command, state that leaks from one command
into a later one (a reused buffer, a cache keyed by `id()`) shows as lines
that differ between two runs in one process, the second in reverse order;
the tier-1 suite runs the quick grid so for that reason. Run under
`PYTHONHASHSEED` values 0 and 1, the outputs show that no output depends
on the hash seed. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from sidlab.cli import main

# (file name, `sidlab construct` arguments)
CONSTRUCTED = [
    ("cycle4", ["cycle4"]),
    ("book2", ["book", "--k", "2"]),
    ("star5", ["star", "--d", "5"]),
    ("star8", ["star", "--d", "8"]),
    ("i42", ["incidence", "--n", "4", "--uniformities", "2"]),
    ("i423", ["incidence", "--n", "4", "--uniformities", "2,3"]),
    ("i312", ["incidence", "--n", "3", "--uniformities", "1,2"]),
    ("i523", ["incidence", "--n", "5", "--uniformities", "2,3"]),
    ("i723", ["incidence", "--n", "7", "--uniformities", "2,3"]),
    ("i524", ["incidence", "--n", "5", "--uniformities", "2,4"]),
    ("i623", ["incidence", "--n", "6", "--uniformities", "2,3"]),
]
# files no constructor builds: graphs with no left vertex, no edge, an
# isolated vertex or a one-ended edge; decompositions of book(2) into its two
# pages, into bags that meet off their tree path, and one malformed
WRITTEN = {
    "noleft": {"v1": [], "v2": ["r"], "edges": []},
    "edgeless": {"v1": ["a"], "v2": ["b"]},
    "isolated": {"v1": ["a", "b", "c"], "v2": ["x", "y"],
                 "edges": [["a", "x"], ["b", "y"]]},
    "oneended": {"v1": ["a"], "v2": ["b"], "edges": [["a"]]},
    "pages": {"bags": [["p", "q", "u1", "w1"], ["p", "q", "u2", "w2"]],
              "edges": [[0, 1]]},
    "offpath": {"bags": [["p", "q", "u1", "w1"], ["q", "u1"], ["p", "q", "u2", "w2"]],
                "edges": [[0, 1], [1, 2]]},
    "badbags": {"bags": [["p", {}]]},
}
CERTIFIED = ["cycle4", "book2", "star5", "star8", "i42", "i423", "i312", "noleft",
             "edgeless"]
TESTED = ["cycle4", "i42", "i423", "i312", "star5", "book2", "edgeless"]
PROPERTIES = ["cs-tree", "induced-sidorenko", "sidorenko", "strong-sidorenko",
              "weak-norming"]
# the properties that read edge colors, on colored graphs
COLORED = {"left-weak-holder": [], "color-sidorenko": [],
           "color-restriction": ["--colors", "1"]}


def commands() -> list[list[str]]:
    """The grid, in run order; "{name}" stands for graph file name.json."""
    grid = [["construct", *args, "-o", f"{{{name}}}"] for name, args in CONSTRUCTED]
    for name in CERTIFIED:
        for mode in ("left", "edge"):
            for budget in (["--budget", "5"], ["--budget", "50"], []):
                grid.append(["certify", f"{{{name}}}", "--mode", mode, *budget])
    for name in ("i42", "i423", "i523", "i723"):
        for mode in ("left", "edge"):
            grid.append(["certify", f"{{{name}}}", "--mode", mode, "--pool", "reflection"])
    for name in ("i42", "i423", "i312"):
        for seed in ("0", "1"):
            grid.append(["check", "orbits", f"{{{name}}}", "--template", f"{{{name}}}",
                         "--trials", "10", "--seed", seed])
    for prop in PROPERTIES:
        for name in TESTED:
            for grid_size in ("1", "4", "8"):
                for preset in ("uniform", "adversarial"):
                    for seed in ("0", "7"):
                        grid.append(["test", prop, f"{{{name}}}", "--trials", "20",
                                     "--grid", grid_size, "--preset", preset,
                                     "--seed", seed])
    grid.append(["test", "induced-sidorenko", "{i524}", "--trials", "2"])
    for checker in ("largeright", "conlonlee"):
        grid += [["check", checker, f"{{{name}}}"] for name in ("i42", "i423", "isolated")]
        grid.append(["check", checker, "--v1", "4", "--profile", "2:6"])
        grid.append(["check", checker, "--v1", "4", "--profile", "2-6"])
    grid += [["test", "sidorenko"], ["check", "orbits", "{i42}", "--template", "{edgeless}"]]
    # 90 edges: BFS states of two words
    grid.append(["certify", "{i623}", "--mode", "edge", "--pool", "reflection",
                 "--budget", "5000"])
    for prop, options in COLORED.items():
        for name in ("i42", "i423", "i312"):
            for grid_size in ("1", "4", "8"):
                for seed in ("0", "7"):
                    grid.append(["test", prop, f"{{{name}}}", *options, "--trials", "20",
                                 "--grid", grid_size, "--seed", seed])
    for n in ("0", "2", "4"):
        for seed in ("0", "7"):
            grid.append(["test", "jensen", "--n", n, "--seed", seed])
    # grid 16: buckets past 2^16 cells, contracted through einsum
    grid.append(["test", "induced-sidorenko", "{i423}", "--grid", "16", "--trials", "2"])
    grid.append(["test", "strong-sidorenko", "{i523}", "--grid", "16", "--trials", "4"])
    grid.append(["test", "left-weak-holder", "{i523}", "--trials", "20"])
    for name in ("i423", "i523"):
        grid.append(["check", "orbits", f"{{{name}}}", "--template", f"{{{name}}}",
                     "--trials", "50"])
    for decomposition in ("pages", "offpath", "badbags"):
        grid.append(["check", "rtd", "{book2}", "--decomposition", f"{{{decomposition}}}"])
    grid.append(["test", "sidorenko", "{oneended}"])
    return grid


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def run_grid(quick: bool = False, reverse: bool = False) -> tuple[list[str], str]:
    """Run the grid (every 8th command if quick; the commands after the
    constructions in reverse order if reverse) in a fresh temporary
    directory; returns one line per command and the total digest."""
    grid = commands()
    # the constructions first, so every graph file a command names exists
    built, ops = grid[:len(CONSTRUCTED)], grid[len(CONSTRUCTED):]
    ops = ops[::8] if quick else ops
    grid = built + (ops[::-1] if reverse else ops)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp, f"{name}.json"))
                 for name in [n for n, _ in CONSTRUCTED] + list(WRITTEN)}
        for name, payload in WRITTEN.items():
            Path(files[name]).write_text(json.dumps(payload), encoding="utf-8")
        for argv in grid:
            argv = [arg.format(**files) for arg in argv]
            if "-o" not in argv:
                argv += ["-o", str(Path(tmp, "out.json"))]
            out_path = Path(argv[argv.index("-o") + 1])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            written = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
            if argv[0] != "construct":
                out_path.unlink(missing_ok=True)
            shown = " ".join(argv).replace(tmp, "$TMP")
            hashes = [_digest(text.replace(tmp, "$TMP"))
                      for text in (stdout.getvalue(), stderr.getvalue(), written)]
            lines.append(f"{code} {' '.join(hashes)} {shown}")
    return lines, _digest("\n".join(lines))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="every 8th command")
    args = parser.parse_args()
    lines, total = run_grid(args.quick)
    for line in lines:
        print(line)
    print(f"total {total}")
