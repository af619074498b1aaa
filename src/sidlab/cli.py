"""Command-line interface: construct graphs, search/verify certificates,
run inequality testers and combinatorial checkers.

Exit codes: 0 ok, 1 usage or input error, 2 certificate not found,
3 inequality or check violated, 4 checker precondition failed. All
randomness flows from --seed; identical inputs and seed give
byte-identical output files. SIDLAB_BUDGET overrides the default search
budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .bigraph import ColoredBigraph, _plain, book, cycle4, from_json_dict, star, to_json_dict
from .checkers import (
    DegreeProfile,
    PreconditionError,
    check_conlonlee_divisibility,
    check_conlonlee_profile,
    check_largeright,
    check_largeright_profile,
    check_orbit_hypotheses,
    decomposition_from_json,
    verify_rtd,
)
from .percolation import (
    DEFAULT_BUDGET,
    NotFound,
    _search,
    certificate_to_json,
    find_cut_percolating,
    find_left_cut_percolating,
)
from .reflection import IncidenceBigraph, _reflection_pairs, build_incidence
from . import testers
from .fractional import from_right_uniform

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_FOUND = 2
EXIT_VIOLATED = 3
EXIT_PRECONDITION = 4

TEST_PROPERTIES = {p.cli: p for p in testers.PROPERTIES.values() if p.cli}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _write_json(payload: dict, path: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def _colored_graph(obj, what: str) -> ColoredBigraph:
    if not isinstance(obj, ColoredBigraph):
        raise UsageError(f"{what} requires a graph file with edge_colors")
    return obj


def _positive(args, option: str) -> int:
    value = getattr(args, option)
    if value < 1:
        raise UsageError(f"--{option} must be positive")
    return value


def _seed(args) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    return args.seed


def _tolerance(args) -> float:
    if not 0.0 < args.tol < 1.0:
        raise UsageError("--tol must lie in (0, 1)")
    return args.tol


def _parse_ints(text: str, what: str) -> list[int]:
    """The comma-separated integers of `text`, empty items skipped."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}") from exc


def _parse_profile(text: str) -> dict[int, int]:
    """The comma-separated k:d_k pairs of `text`, empty items skipped."""
    try:
        pairs = [part.split(":") for part in text.split(",") if part]
        return {int(k): int(d) for k, d in pairs}
    except ValueError as exc:
        raise UsageError(f"bad profile {text!r} (expected 'k:d_k,...')") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="sidlab")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="emit a bigraph JSON file")
    con.add_argument("kind", choices=CONSTRUCTORS)
    con.add_argument("--n", type=int, help="ground-set size for incidence")
    con.add_argument("--uniformities", help="comma-separated, e.g. 2,3")
    con.add_argument("--k", type=int, help="page count for book")
    con.add_argument("--d", type=int, help="leaf count for star")
    con.add_argument("-o", "--output", default=None)

    cert = sub.add_parser("certify", help="search for a percolation certificate")
    cert.add_argument("graph")
    cert.add_argument("--mode", choices=("left", "edge"), required=True)
    cert.add_argument("--pool", choices=("all", "reflection"), default="all")
    # unset, it is read from SIDLAB_BUDGET when certify runs (_budget)
    cert.add_argument("--budget", type=int, default=None)
    cert.add_argument("-o", "--output", default=None)

    tst = sub.add_parser("test", help="run a randomized inequality tester")
    tst.add_argument("property", choices=TEST_PROPERTIES)
    tst.add_argument("graph", nargs="?")
    tst.add_argument("--trials", type=int, default=200)
    tst.add_argument("--grid", type=int, default=4)
    tst.add_argument("--seed", type=int, default=0)
    tst.add_argument("--tol", type=float, default=1e-9)
    tst.add_argument("--preset", choices=("uniform", "adversarial"),
                     default="uniform")
    tst.add_argument("--n", type=int, default=3, help="term count for jensen")
    tst.add_argument("--colors", help="kept colors for color-restriction")
    tst.add_argument("-o", "--output", default=None)

    chk = sub.add_parser("check", help="run an exact combinatorial checker")
    chk.add_argument("checker", choices=CHECKERS)
    chk.add_argument("graph", nargs="?")
    chk.add_argument("--v1", type=int)
    chk.add_argument("--profile", help="degree profile 'k:d_k,...'")
    chk.add_argument("--template", help="colored template graph for orbits")
    chk.add_argument("--decomposition", help="bags/edges JSON file for rtd")
    chk.add_argument("--trials", type=int, default=50)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--tol", type=float, default=1e-9)
    chk.add_argument("-o", "--output", default=None)
    return parser


# each kind `sidlab construct` builds: (the options it needs, its builder)
CONSTRUCTORS = {
    "incidence": (("n", "uniformities"),
                  lambda n, ks: build_incidence(n, _parse_ints(ks, "uniformities"))),
    "book": (("k",), book),
    "star": (("d",), star),
    "cycle4": ((), cycle4),
}


def _cmd_construct(args) -> int:
    options, build = CONSTRUCTORS[args.kind]
    values = [getattr(args, opt) for opt in options]
    if None in values:
        raise UsageError(f"{args.kind} needs " + " and ".join(f"--{opt}" for opt in options))
    _write_json(to_json_dict(build(*values)), args.output)
    return EXIT_OK


def _budget(args) -> int:
    """--budget, else SIDLAB_BUDGET, else DEFAULT_BUDGET; a bad value is
    refused as argparse refuses a bad --budget."""
    if args.budget is None:
        text = os.environ.get("SIDLAB_BUDGET")
        try:
            args.budget = DEFAULT_BUDGET if text is None else int(text)
        except ValueError:
            raise UsageError(f"argument --budget: invalid int value: {text!r}") from None
    return _positive(args, "budget")


def _cmd_certify(args) -> int:
    budget = _budget(args)
    g = _plain(_load_graph(args.graph))
    if args.pool == "reflection":
        # folds by construction, so unchecked; an incidence bigraph has a
        # left side and edges, so no refusal of the find_* functions applies
        result = _search(g, args.mode, _reflection_pairs(IncidenceBigraph.from_bigraph(g)),
                         budget)
    else:
        search = find_left_cut_percolating if args.mode == "left" else find_cut_percolating
        result = search(g, budget=budget)
    if isinstance(result, NotFound):
        print(f"no certificate: {result.reason} "
              f"({result.states_explored} states explored)", file=sys.stderr)
        return EXIT_NOT_FOUND
    _write_json(certificate_to_json(result), args.output)
    return EXIT_OK


def _kept_colors(args) -> list[int]:
    if args.colors is None:
        raise UsageError(f"{args.property} needs --colors")
    return _parse_ints(args.colors, "--colors")


# how `sidlab test` reads and checks each tester option, and builds each kind
# of input; an option a property does not read is not checked
_TEST_OPTIONS = {"grid": lambda args: _positive(args, "grid"),
                 "preset": lambda args: args.preset,
                 "n": lambda args: args.n, "colors": _kept_colors}
_TEST_INPUTS = {
    "plain": lambda obj, prop: _plain(obj),
    "colored": _colored_graph,
    "fractional": lambda obj, prop: from_right_uniform(_colored_graph(obj, prop)),
}


def _cmd_test(args) -> int:
    prop = TEST_PROPERTIES[args.property]
    trials, tol = _positive(args, "trials"), _tolerance(args)
    params = {opt: _TEST_OPTIONS[opt](args) for opt in prop.cli_options}
    obj = None
    if prop.cli_input != "none":
        if args.graph is None:
            raise UsageError(f"{args.property} requires a graph file")
        obj = _load_graph(args.graph)
    inputs = [] if obj is None else [_TEST_INPUTS[prop.cli_input](obj, args.property)]
    report = getattr(testers, prop.tester)(*inputs, trials=trials, seed=_seed(args),
                                           tol=tol, **params)
    _write_json(testers.report_to_json(report), args.output)
    return EXIT_OK if report.holds else EXIT_VIOLATED


def _profile_from_args(args) -> DegreeProfile:
    if args.profile is None or args.v1 is None:
        raise UsageError("profile checks need --v1 and --profile (or a graph file)")
    return DegreeProfile(args.v1, _parse_profile(args.profile))


# the degree-profile checkers: (on a graph file, on --v1 and --profile)
_PROFILE_CHECKS = {
    "largeright": (check_largeright, check_largeright_profile),
    "conlonlee": (check_conlonlee_divisibility, check_conlonlee_profile),
}
CHECKERS = (*_PROFILE_CHECKS, "orbits", "rtd")


def _cmd_check(args) -> int:
    if args.checker in _PROFILE_CHECKS:
        on_graph, on_profile = _PROFILE_CHECKS[args.checker]
        if args.graph is not None:
            report = on_graph(_plain(_load_graph(args.graph)))
        else:
            report = on_profile(_profile_from_args(args))
        payload = {"checker": args.checker, "passed": report.passed,
                   "per_degree": list(report.per_degree)}
    elif args.checker == "orbits":
        if args.graph is None or args.template is None:
            raise UsageError("orbits needs a graph file and --template")
        trials, tol = _positive(args, "trials"), _tolerance(args)
        g = _plain(_load_graph(args.graph))
        h = _colored_graph(_load_graph(args.template), "orbits --template")
        report = check_orbit_hypotheses(g, h, lwh_trials=trials, seed=_seed(args),
                                        tol=tol)
        payload = {"checker": "orbits", "passed": report.passed,
                   "orbits": list(report.orbits),
                   "evidence_note": report.evidence_note,
                   "lwh_worst_margin": report.lwh_margin}
    else:  # rtd
        if args.graph is None or args.decomposition is None:
            raise UsageError("rtd needs a graph file and --decomposition")
        g = _plain(_load_graph(args.graph))
        with open(args.decomposition, encoding="utf-8") as fh:
            d = json.load(fh)
        report = verify_rtd(g, decomposition_from_json(d))
        payload = {"checker": "rtd", "passed": report.passed, "reason": report.reason,
                   "core": to_json_dict(report.core) if report.core is not None else None}
    _write_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_VIOLATED


_COMMANDS = {"construct": _cmd_construct, "certify": _cmd_certify, "test": _cmd_test,
             "check": _cmd_check}


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print("precondition failed:", file=sys.stderr)
        for item in exc.items:
            print(f"  - {item}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an allocation nothing priced, such as a huge --grid
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
