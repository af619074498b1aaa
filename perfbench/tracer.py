"""Span tracing of sidlab from outside the package.

Every public module-level function of every sidlab module (plus
StepBigraphon.uniform) is found at start-up and wrapped. The wrapper is
bound in every sidlab module namespace that holds the original, so calls
through `from .x import f` bindings are traced too. Spans live in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "testers", "density", "fractional", "bigraphon", "bigraph",
          "folds", "reflection", "percolation", "checkers")

EXTRA_METHODS = (("bigraphon", "StepBigraphon", "uniform"),)


def _count_folds(result):
    return len(result) if isinstance(result, list) else None


def _not_found_states(result):
    # a NotFound has a state count; a certificate does not
    return getattr(result, "states_explored", None)


# return-value notes kept on a span, by span name
ANNOTATE = {
    "folds.enumerate_folds": _count_folds,
    "reflection.reflection_fold_pool": _count_folds,
    "percolation.find_cut_percolating": _not_found_states,
    "percolation.find_left_cut_percolating": _not_found_states,
}


class Tracer:
    """Spans as (name, start, end, parent index, op id, note) tuples."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.op_kinds: dict[int, str] = {}
        self.found: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        mods = {self.package.__name__: self.package}
        for info in pkgutil.iter_modules(self.package.__path__):
            name = f"{self.package.__name__}.{info.name}"
            mods[name] = importlib.import_module(name)
        return mods

    def _wrap(self, name: str, fn):
        spans, stack, annotate = self.spans, self._stack, ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # reserve the slot first so children can name their parent; the
            # finished span is an atom-only tuple, which the GC stops tracking
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            note = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                note = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id, note)
            if annotate is not None:
                spans[idx] = (name, t0, t1, parent, self.op_id, annotate(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every discovered public function in every namespace binding it."""
        mods = self._modules()
        wrappers = {}
        prefix = self.package.__name__ + "."
        for modname, mod in mods.items():
            if modname == self.package.__name__:
                continue
            short = modname[len(prefix):]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self._wrap(name, obj)
                    self.found.add(name)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, meth in EXTRA_METHODS:
            cls = getattr(mods.get(prefix + short), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if isinstance(raw, classmethod):
                name = f"{short}.{cls_name}.{meth}"
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                self.found.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.op_kinds[op_id] = kind

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"op_kinds": self.op_kinds,
                                 "fields": ["name", "start", "end", "parent", "op", "note"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (_, t0, t1, _, _, _), c in zip(spans, child)]


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric the benchmark reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [
        ("density.us_per_call", "us", "lower"),
        ("fractional.batch_profile_log_densities.calls", "count", "lower"),
        ("fractional.fractional_density.calls", "count", "lower"),
        ("bigraphon.sinkhorn_biregularize.calls", "count", "lower"),
        ("bigraphon.sinkhorn_biregularize.self_s", "s", "lower"),
        ("bigraphon.sinkhorn_failures", "count", "lower"),
        ("bigraphon.StepBigraphon.uniform.calls", "count", "lower"),
        ("bigraphon.bigraphon_to_json.calls", "count", "lower"),
        ("bigraphon.bigraphon_to_json.self_s", "s", "lower"),
        ("bigraph.to_json_dict.calls", "count", "lower"),
        ("bigraph.to_json_dict.self_s", "s", "lower"),
        ("testers.witness_useful_ratio", "ratio", "higher"),
        ("bigraph.automorphisms.self_s", "s", "lower"),
        ("bigraph.colored_automorphisms.self_s", "s", "lower"),
        ("bigraph.is_color_edge_transitive.self_s", "s", "lower"),
        ("bigraph.from_json_dict.self_s", "s", "lower"),
        ("folds.enumerate_folds.self_s", "s", "lower"),
        ("folds.pool_size", "count", "lower"),
        ("folds.check_fold.calls", "count", "lower"),
        ("folds.check_fold.self_s", "s", "lower"),
        ("reflection.reflection_fold_pool.self_s", "s", "lower"),
        ("percolation.find_left_cut_percolating.self_s", "s", "lower"),
        ("percolation.find_cut_percolating.self_s", "s", "lower"),
        ("percolation.verify_certificate.self_s", "s", "lower"),
        ("percolation.states_explored", "count", "lower"),
        ("percolation.states_per_s", "1/s", "higher"),
        ("checkers.check_orbit_hypotheses.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


def _source(metric: str) -> str | None:
    """The span name or module a metric is read from; None for derived ones."""
    for suffix in (".calls", ".self_s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return {"density.us_per_call": "density",
            "bigraphon.sinkhorn_failures": "bigraphon.sinkhorn_biregularize",
            "testers.witness_useful_ratio": "bigraphon.bigraphon_to_json",
            "folds.pool_size": "folds.enumerate_folds",
            "percolation.states_explored": "percolation.find_cut_percolating",
            "percolation.states_per_s": "percolation.find_cut_percolating",
            }.get(metric)


def per_layer_metrics(tracer: Tracer, witnesses_shipped: int,
                      overhead_pct: float) -> tuple[dict[str, float], list[str]]:
    """Every catalog metric from the recorded spans, and the names of those
    whose function or module no longer exists."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, st in zip(spans, selfs):
        name = span[0]
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] += 1
            self_s[key] += st

    modules = {n.split(".", 1)[0] for n in tracer.found}
    present = tracer.found | modules

    def where(pred):
        return [(s, st) for s, st in zip(spans, selfs) if pred(s)]

    searches = where(lambda s: s[0] in ("percolation.find_cut_percolating",
                                        "percolation.find_left_cut_percolating")
                     and s[5] is not None)
    states = sum(s[5] for s, _ in searches)
    search_s = sum(st for _, st in searches)
    pools = [s[5] for s, _ in where(lambda s: s[0] in ("folds.enumerate_folds",
                                                        "reflection.reflection_fold_pool"))
             if s[5] is not None]
    to_json_in_tests = len(where(lambda s: s[0] == "bigraphon.bigraphon_to_json"
                                 and tracer.op_kinds.get(s[4]) == "test"))
    derived = {
        "density.us_per_call": 1e6 * self_s["density"] / calls["density"]
        if calls["density"] else 0.0,
        "bigraphon.sinkhorn_failures": len(where(
            lambda s: s[0] == "bigraphon.sinkhorn_biregularize" and s[5] == "SinkhornError")),
        "testers.witness_useful_ratio": witnesses_shipped / to_json_in_tests
        if to_json_in_tests else 0.0,
        "folds.pool_size": sum(pools) / len(pools) if pools else 0.0,
        "percolation.states_explored": states,
        "percolation.states_per_s": states / search_s if search_s > 0 else 0.0,
        "trace.spans": len(spans),
        "trace.overhead_pct": overhead_pct,
    }

    values, absent = {}, []
    for metric, _, _ in per_layer_catalog():
        source = _source(metric)
        if source is not None and source not in present:
            absent.append(metric)
            values[metric] = 0
        elif metric in derived:
            values[metric] = derived[metric]
        elif metric.endswith(".calls"):
            values[metric] = calls[source]
        else:
            values[metric] = self_s[source]
    return values, absent
