"""sidlab benchmark: drive `sidlab.cli.main` through a seeded workload and
report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload testers-narrow --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sidlab is imported from its src/. Each
workload runs in its own fresh interpreter (so peak RSS is the workload's
own), after which further fresh interpreters repeat only the set-up so
that setup_s is a median. With --trace 1 a separate run reports the
per-layer metrics from spans recorded around every public sidlab function.
The last stdout line is the JSON result; the lines before it are a
readable summary. Any failed op makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("testers-narrow", "testers-wide", "certify")
SETUP_REPEATS = 5
# Seconds one calibration unit (worker.calibrate) takes on the reference host,
# a 2-vCPU Intel Xeon VM. Timings are scaled by CALIBRATION_REF_S over the
# run's median calibration time, so they read as on that host at its usual
# speed, whatever speed a shared host happens to run at during the run.
CALIBRATION_REF_S = 0.005
# every child must end within this many seconds
CHILD_TIMEOUT = 150.0


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one client and no extra threads: numpy's BLAS pools stay at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # string hashing, and so set iteration order, follows the seed
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, workdir: Path, setup_only: bool, deadline: float):
    """Run a worker to its end; return (seconds from start to READY, last
    stdout line). The worker prints READY with its CLOCK_MONOTONIC reading,
    which every process on the host shares."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(args.seed),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time") from None
    lines = [line for line in out.splitlines() if line.strip()]
    ready = [float(line.split()[1]) - t0 for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"worker exited {proc.returncode} "
                           f"({'after' if ready else 'before'} set-up)")
    return ready[0], lines[-1]


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "blas_threads": 1, "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy"] = numpy.__version__
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def slot_latencies(samples: list) -> tuple[dict[int, float], dict[int, int]]:
    """Each slot's median latency over the run's rounds, and its trial count."""
    by_slot: dict[int, list] = defaultdict(list)
    trials: dict[int, int] = {}
    for slot, seconds, n in samples:
        by_slot[slot].append(seconds)
        if n is not None:
            trials[slot] = n
    return {s: statistics.median(v) for s, v in by_slot.items()}, trials


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Metrics of one typical round, at the reference host speed.

    Every round runs the same slots on like inputs. A slot's latency is its
    median over the run's rounds, which rejects the bursts in which a shared
    host runs slow; throughput is the round's ops (or trials) over the sum
    of those latencies, and the latency percentiles are taken over them.
    Times are then scaled by the host speed the calibration units measured,
    which removes the drift of a shared host between runs. setups holds
    (seconds to READY, median calibration seconds) for each interpreter.
    """
    scale = CALIBRATION_REF_S / res["calibration_s"]
    lat, trials = slot_latencies(res["samples"])
    raw_ops_per_s = len(lat) / sum(lat.values())
    lat_ms = [1000.0 * x * scale for x in lat.values()]
    pct, rounds, n = res["tail_pct"], res["rounds"], len(res["samples"])
    beyond = rounds * sum(1 for x in lat_ms if x > percentile(lat_ms, pct))
    tester_s = scale * sum(lat[s] for s in trials)
    setup = [ready * CALIBRATION_REF_S / cal for ready, cal in setups]
    metrics = {
        "ops_per_s": metric(raw_ops_per_s / scale, "1/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_tail_ms": metric(percentile(lat_ms, pct), "ms"),
        "trials_per_s": metric(sum(trials.values()) / tester_s, "1/s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    notes = {
        "ops_per_s": f"{len(lat)} slots x {rounds} rounds = {n} ops; unscaled "
                     f"{raw_ops_per_s:.4f}, {n / res['wall_s']:.4f} per wall second",
        "op_p50_ms": f"over {len(lat)} slot medians of {n} samples",
        "op_tail_ms": f"p{pct} over {len(lat)} slot medians, {beyond} samples beyond"
                      + ("" if beyond >= 10 else " (fewer than 10)"),
        "trials_per_s": f"{sum(trials.values())} trials per round in {len(trials)} slots",
        "peak_rss_mb": "the workload's own process",
        "setup_s": f"median of {len(setup)} fresh interpreters; unscaled "
                   f"{statistics.median(r for r, _ in setups):.4f}",
    }
    lines = [f"  host speed {scale:.3f} of the reference: calibration unit median "
             f"{1000 * res['calibration_s']:.3f} ms over {res['calibration_units']} units, "
             f"reference {1000 * CALIBRATION_REF_S:.3f} ms"]
    lines += [f"  {k:<14} {v['value']:>12.4f} {v['unit']:<5} ({notes[k]})"
              for k, v in metrics.items()]
    fails = len(res["failures"])
    lines.append(f"  {'fail_ratio':<14} {fails / res['attempted']:>12.4f} ratio "
                 f"({fails} of {res['attempted']} ops)")
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    """The traced run's metrics, unscaled: they compare layers within a run."""
    from tracer import per_layer_catalog

    metrics = {name: metric(res["per_layer"][name], unit)
               for name, unit, _ in per_layer_catalog()}
    lines = [f"  traced {res['rounds']} rounds after {res['rounds']} untraced: "
             f"ops took {res['untraced_op_s']:.2f} s untraced, {res['traced_op_s']:.2f} s traced, "
             f"tracing overhead {res['per_layer']['trace.overhead_pct']:.1f}%"]
    lines += [f"  {k:<46} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    if res["absent"]:
        lines.append("  absent (function or module not found, reported as 0): "
                     + ", ".join(res["absent"]))
    lines.append(f"  spans written to {res['spans_file']}")
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sidlab" / "__init__.py").is_file():
        print(f"sidlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ready, last = run_child(args, work / "run", False, deadline)
        res = json.loads(last)
        setups = []
        if not args.trace:
            setups.append((ready, res["calibration_s"]))
            for _ in range(SETUP_REPEATS - 1):
                ready, last = run_child(args, work / "setup", True, deadline)
                setups.append((ready, json.loads(last)["calibration_s"]))
                shutil.rmtree(work / "setup", ignore_errors=True)
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    env = environment()
    print(f"sidlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; python {env['python']}, numpy {env.get('numpy')}, "
          f"{env['blas']}, BLAS threads {env['blas_threads']} of {env['nproc']} CPUs, "
          f"{env['cpu']}")
    if args.trace:
        metrics, lines = per_layer(res)
    else:
        metrics, lines = end_to_end(res, setups)
    print("\n".join(lines))
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    failed = len(res["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
