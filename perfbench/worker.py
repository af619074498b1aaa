"""One workload in one fresh process.

Run by run.py, never by hand: it imports sidlab from the checkout, writes
the workload's inputs, runs the untimed warm-up ops, prints READY, then
drives the timed rounds through sidlab.cli.main in a closed loop with a
single client. The last stdout line is a JSON record of raw results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# calibration units a set-up-only process runs after READY
SETUP_CALIBRATION_UNITS = 20
# the traced run runs this many rounds untraced, then as many traced
TRACE_ROUNDS = 2


def calibrate() -> float:
    """Seconds for one fixed unit of reference work (a few ms): dict and
    frozenset churn, 4x4 matrix products and a cache-sized array product,
    the kinds of work sidlab does. Its time follows how fast a shared host
    is running at the moment."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    s = frozenset(range(200))
    for _ in range(200):
        s = frozenset(x ^ 1 for x in s)
    a = np.ones((4, 4))
    for _ in range(100):
        a = a @ a * 0.25
    b = np.full(1 << 16, 1.0001)
    for _ in range(20):
        b = b * b
    return time.perf_counter() - t0


def call(cli, argv) -> tuple[int, str, str, float]:
    """One op: exit code, stdout, stderr and wall seconds. An uncaught
    exception is returned as exit code -1 with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # the loop must go on; the op is counted as failed
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_rounds(cli, rounds, tracer=None, calibration=None):
    """Run rounds in order and return one record per op and the wall time.

    Between ops (outside their timing) the cyclic garbage of the previous op
    is collected, as the exit of a one-command CLI process would free it;
    otherwise peak RSS depends on where collections happen to fall. When a
    calibration list is given, one calibration unit is timed after each op.
    """
    records = []
    t0 = time.perf_counter()
    for ops in rounds:
        for op in ops:
            if tracer is not None:
                tracer.begin_op(len(records), op.kind)
            rc, out, err, dt = call(cli, op.argv)
            records.append((op, rc, out, err, dt))
            gc.collect()
            if calibration is not None:
                calibration.append(calibrate())
    return records, time.perf_counter() - t0


def run_timed(cli, rounds, seconds: float, calibration: list):
    """Whole rounds until `seconds` have passed or the rounds run out."""
    records, wall, used = [], 0.0, 0
    while used < len(rounds) and wall < seconds:
        recs, dt = run_rounds(cli, [rounds[used]], calibration=calibration)
        records += recs
        wall += dt
        used += 1
    return records, wall, used


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import sidlab
    from sidlab import cli

    if not Path(sidlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sidlab imported from {sidlab.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import checks
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    warm = []
    for op in wl.warmup:
        rc, out, err, _ = call(cli, op.argv)
        warm.append((op, rc, out, err, 0.0))
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        cal = [calibrate() for _ in range(SETUP_CALIBRATION_UNITS)]
        print(json.dumps({"calibration_s": statistics.median(cal)}), flush=True)
        return 0

    result = {"workload": wl.name, "tail_pct": wl.tail_pct}
    if args.trace:
        import tracer as tracing

        n = TRACE_ROUNDS
        plain_cal: list[float] = []
        traced_cal: list[float] = []
        plain, _ = run_rounds(cli, wl.rounds[:n], calibration=plain_cal)
        tr = tracing.Tracer(sidlab)
        tr.install()
        traced, _ = run_rounds(cli, wl.rounds[n:2 * n], tr, traced_cal)
        tr.uninstall()
        records = plain + traced
        plain_s, traced_s = sum(r[4] for r in plain), sum(r[4] for r in traced)
        # mean op latency in calibration units, so host drift between the
        # two phases does not count as overhead
        overhead = 100.0 * ((traced_s / len(traced) / statistics.median(traced_cal))
                            / (plain_s / len(plain) / statistics.median(plain_cal))) - 100.0
        shipped = sum(checks.ships_witness(op, rc, out) for op, rc, out, _, _ in traced)
        values, absent = tracing.per_layer_metrics(tr, shipped, overhead)
        spans_file = workdir / "spans.jsonl"
        tr.write(spans_file)
        result.update(per_layer=values, absent=absent, rounds=n,
                      untraced_op_s=plain_s, traced_op_s=traced_s,
                      spans_file=str(spans_file))
    else:
        cal: list[float] = []
        records, wall, used = run_timed(cli, wl.rounds, args.seconds, cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # [slot, seconds, trials + skipped or None for ops that run no trials]
        samples = [[op.slot, dt,
                    checks.tester_trials(op, out)
                    if op.kind in ("test", "orbits") and rc in (0, 3) else None]
                   for op, rc, out, _, dt in records]
        result.update(rounds=used, wall_s=wall, samples=samples,
                      peak_rss_mb=peak_rss_mb, calibration_s=statistics.median(cal),
                      calibration_units=len(cal))

    failures = []
    for op, rc, out, err, _ in warm + records:
        reason = checks.check_op(op, rc, out, err)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    oracle = checks.oracle_pairs(wl.oracle_graphs, wl.oracle_grid, args.seed) \
        if wl.oracle_graphs else []
    for g, w in oracle:
        reason = checks.check_oracle(g, w)
        if reason is not None:
            failures.append(f"density oracle: {reason}")
    result.update(attempted=len(warm) + len(records) + len(oracle), failures=failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
