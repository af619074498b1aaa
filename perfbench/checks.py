"""Output checks: each op's result against its declared outcome, and the
density oracle cross-check. A check returns None when the op passed, or
a one-line reason when it failed."""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path
from typing import Optional

import numpy as np

from sidlab import testers
from sidlab.bigraph import ColoredBigraph, from_json_dict
from sidlab.bigraphon import StepBigraphon
from sidlab.density import density, density_brute_force
from sidlab.percolation import (
    certificate_fold_group_transitive,
    certificate_from_json,
    verify_certificate,
)

ORACLE_RTOL = 1e-12
ORACLE_PAIRS = 24
# largest assignment count the brute-force oracle is asked to sum over
ORACLE_ASSIGNMENTS = 200_000

_NOT_FOUND = re.compile(r"no certificate: (\w+) \((\d+) states explored\)")


def _load_plain(path: str):
    g = from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    return g.graph if isinstance(g, ColoredBigraph) else g


def check_test(expect: dict, rc: int, out: str) -> Optional[str]:
    rep = json.loads(out)
    holds = rep["verdict"] == testers.HOLDS
    if holds != (rc == 0):
        return f"exit {rc} disagrees with verdict {rep['verdict']}"
    witness = rep["witness"]
    if "refusal" in expect:
        if witness is None or witness.get("precondition") != expect["refusal"]:
            return f"expected refusal {expect['refusal']!r}, got witness {witness!r}"
        if rep["trials"] + rep["skipped"] != 0:
            return "a refusal ran trials"
        return None
    if rep["trials"] + rep["skipped"] != expect["trials"]:
        return (f"trials {rep['trials']} + skipped {rep['skipped']} "
                f"!= {expect['trials']} requested")
    if holds:
        if rep["worst_margin"] < -expect["tol"]:
            return f"holds with worst margin {rep['worst_margin']!r} below -tol"
        if witness is not None:
            return "holds but shipped a witness"
    elif witness is None:
        return "violated without a witness"
    if expect.get("witness") and witness is None:
        return "expected a witness"
    if witness is not None:
        replayed = testers.replay_witness(witness)
        if replayed != rep["worst_margin"]:
            return f"witness replays to {replayed!r}, report says {rep['worst_margin']!r}"
    return None


def check_certify(expect: dict, out: str, err: str) -> Optional[str]:
    if "length" in expect:
        cert = certificate_from_json(json.loads(out))
        g = _load_plain(expect["graph"])
        res = verify_certificate(g, cert)
        if not res:
            return f"certificate fails verification: {res.reason}"
        if not certificate_fold_group_transitive(g, cert):
            return "certificate folds do not act transitively"
        if cert.mode != expect["mode"]:
            return f"certificate mode {cert.mode}, asked for {expect['mode']}"
        if cert.length != expect["length"]:
            return f"certificate length {cert.length}, shortest is {expect['length']}"
        return None
    m = _NOT_FOUND.search(err)
    if m is None:
        return f"no NotFound report on stderr: {err.strip()[:120]!r}"
    reason, states = m.group(1), int(m.group(2))
    if (reason, states) != (expect["reason"], expect["states"]):
        return (f"NotFound {reason} after {states} states, expected "
                f"{expect['reason']} after {expect['states']}")
    return None


def check_orbits(expect: dict, out: str) -> Optional[str]:
    rep = json.loads(out)
    if not rep["passed"]:
        return "orbit check failed on a graph against itself"
    for row in rep["orbits"]:
        # a graph checked against itself has equal sums on every orbit
        if row["g_sum"] != row["h_sum"] or not (row["ok_zero"] and row["ok_geq"]):
            return f"orbit row {row} is not balanced"
    if f"({expect['trials']} trials" not in rep["evidence_note"]:
        return f"precheck did not run {expect['trials']} trials"
    return None


def check_op(op, rc: int, out: str, err: str) -> Optional[str]:
    """Compare one op's exit code and output with what it declared."""
    if rc != op.expect["exit"]:
        return f"exit {rc}, expected {op.expect['exit']}: {err.strip()[:120]!r}"
    try:
        if op.kind == "test":
            return check_test(op.expect, rc, out)
        if op.kind == "certify":
            return check_certify(op.expect, out, err)
        return check_orbits(op.expect, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def tester_trials(op, out: str) -> Optional[int]:
    """trials + skipped of a tester report, the precheck count for orbit
    checks, None when the report is unreadable (check_op reports that)."""
    if op.kind == "orbits":
        return op.expect["trials"]
    try:
        rep = json.loads(out)
        return rep["trials"] + rep["skipped"]
    except (ValueError, KeyError, TypeError):
        return None


def ships_witness(op, rc: int, out: str) -> bool:
    """Whether a tester op's report carries a violation witness."""
    if op.kind != "test" or rc not in (0, 3):
        return False
    try:
        return (json.loads(out).get("witness") or {}).get("margin") is not None
    except (ValueError, AttributeError):
        return False


def oracle_pairs(graph_paths: list[Path], grid: int, seed: int):
    """Seeded small (graph, bigraphon) pairs whose brute-force sum stays
    under ORACLE_ASSIGNMENTS."""
    rng = random.Random(seed)
    graphs = [_load_plain(str(p)) for p in graph_paths]
    pairs = []
    while len(pairs) < ORACLE_PAIRS:
        g = rng.choice(graphs)
        rows, cols = rng.randint(1, grid), rng.randint(1, grid)
        while rows ** g.v1 * cols ** g.v2 > ORACLE_ASSIGNMENTS:
            # shrink whichever side contributes more assignments
            if g.v1 * math.log(rows) >= g.v2 * math.log(cols):
                rows -= 1
            else:
                cols -= 1
        vals = np.random.default_rng(rng.randrange(2**32)).uniform(1e-3, 1.0, (rows, cols))
        pairs.append((g, StepBigraphon.uniform(vals)))
    return pairs


def check_oracle(g, w) -> Optional[str]:
    fast, slow = density(g, w), density_brute_force(g, w)
    if not math.isclose(fast, slow, rel_tol=ORACLE_RTOL, abs_tol=0.0):
        return (f"density {fast!r} vs brute force {slow!r} on a "
                f"{w.rows}x{w.cols} bigraphon, |V|={g.v}")
    return None
