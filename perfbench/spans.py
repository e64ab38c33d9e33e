"""In-memory spans around the public functions of the infogeo modules.

A `Tracer` records one span per call of a wrapped function: its name, start,
end, parent span and the id of the battery call it belongs to.  `traced()`
installs the wrappers in every infogeo module namespace that binds a public
function (and in module-level dicts such as the CLI's runner table), counts
constructor validations by wrapping `__post_init__`, and restores every
binding on exit, so code outside the `with` block runs untouched.

`layer_metrics` turns the spans of one pass into the per-layer metrics listed
in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# The package modules, one layer each; `errors` holds only exception types.
LAYERS = (
    "cli", "simplex", "bayes", "statespace", "transforms", "measurement",
    "distmax", "reporting",
)
BATTERIES = ("coin_distinguish", "metric_check", "correspondence", "born_check", "wootters")


def _probe_state_shifts(a) -> int:
    states = a["n_states"] if a["states"] is None else len(a["states"])
    shifts = a["n_shifts"] if a["chi0s"] is None else len(a["chi0s"])
    return states * shifts


# Work done by one call, read from its arguments: span name -> (counter, fn).
WORK_ARGS = {
    "bayes.monte_carlo_gain": ("bayes.mc_trials", lambda a: a["trials"]),
    "transforms.gauge_invariance_probe": ("transforms.probe_state_shifts", _probe_state_shifts),
    "distmax.maximize_statistical_distance": ("distmax.restarts", lambda a: a["budget"]),
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("i")
        self.stack = [-1]
        self.call_id = -1
        # (call id, "layer.Class") -> __post_init__ runs
        self.builds: Counter = Counter()
        # (call id, counter name from WORK_ARGS) -> units of work
        self.work: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, calls, stack = self.parent, self.call, self.stack
        clock = time.perf_counter
        tracer = self
        work = WORK_ARGS.get(name)
        sig = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.work[(tracer.call_id, work[0])] += work[1](bound.arguments)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            calls.append(tracer.call_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def build_counter(self, post_init, name: str):
        builds = self.builds
        tracer = self

        def __post_init__(obj):
            builds[(tracer.call_id, name)] += 1
            post_init(obj)

        return functools.update_wrapper(__post_init__, post_init)

    def call_counts(self, call_id: int) -> dict[str, int]:
        """Every count of one battery call: spans per function, builds per
        class and work units; equal runs of the program give equal counts."""
        counts = Counter(
            self.names[nid] for nid, c in zip(self.name, self.call) if c == call_id
        )
        for store in (self.builds, self.work):
            for (c, key), value in store.items():
                if c == call_id:
                    counts[key] += value
        return dict(sorted(counts.items()))


@contextmanager
def traced(tracer: Tracer):
    """Install `tracer`'s wrappers in the infogeo modules for the block."""
    modules = {layer: importlib.import_module(f"infogeo.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple[object, object]] = {}
    undo: list[tuple[object, str, object]] = []
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = (obj, tracer.span_wrapper(obj, f"{layer}.{name}"))
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                original = vars(obj)["__post_init__"]
                undo.append((obj, "__post_init__", original))
                obj.__post_init__ = tracer.build_counter(original, f"{layer}.{name}")

    def replacement(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    namespaces = [
        vars(mod) for mod_name, mod in list(sys.modules.items())
        if mod_name == "infogeo" or mod_name.startswith("infogeo.")
    ]
    # module-level dicts, such as the CLI's runner table, bind functions too
    tables = namespaces + [v for ns in namespaces for v in ns.values() if isinstance(v, dict)]
    for table in tables:
        for key, value in list(table.items()):
            new = replacement(value)
            if new is not None:
                undo.append((table, key, value))
                table[key] = new
    try:
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover.  Children are clipped to the parent's interval
    and overlapping children are counted once."""
    children: list[list[int]] = [[] for _ in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        s, e = start[i], end[i]
        covered = 0.0
        run_s = run_e = None
        for a, b in sorted((max(start[k], s), min(end[k], e)) for k in kids):
            if b <= a:
                continue
            if run_e is None or a > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = a, b
            else:
                run_e = max(run_e, b)
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


# Relative tolerance on (sum of layer self times of a call) vs (its span).
SELF_SUM_RTOL = 1e-6


def self_sum_errors(tracer: Tracer, own: list[float]) -> dict[int, float]:
    """Per battery call: |sum of its self times - its span| / its span, where
    the call's span is its one root span; inf when it has no single root."""
    total: Counter = Counter()
    roots: dict[int, list[float]] = {}
    for i, c in enumerate(tracer.call):
        total[c] += own[i]
        if tracer.parent[i] < 0:
            roots.setdefault(c, []).append(tracer.end[i] - tracer.start[i])
    return {
        c: abs(total[c] - roots[c][0]) / roots[c][0]
        if len(roots.get(c, ())) == 1 and roots[c][0] > 0 else float("inf")
        for c in total
    }


def layer_metrics(tracer: Tracer, own: list[float], max_gap: float, report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, as (value, unit) pairs."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    incl: Counter = Counter()
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        layer = name.partition(".")[0]
        self_s[layer] += own[i]
        calls[layer] += 1
        calls[name] += 1
        incl[name] += tracer.end[i] - tracer.start[i]
    builds: Counter = Counter()
    for (_, cls), n in tracer.builds.items():
        builds[cls.partition(".")[0]] += n
    work: Counter = Counter()
    for (_, key), n in tracer.work.items():
        work[key] += n

    def per(total_s: float, count: int) -> float:
        return total_s / count * 1e6 if count else 0.0

    trials = work["bayes.mc_trials"]
    probes = calls["transforms.gauge_invariance_probe"]
    evals = calls["distmax.unitary_from_params"]
    restarts = work["distmax.restarts"]
    m = {"cli.self_s": (self_s["cli"], "s")}
    for battery in BATTERIES:
        m[f"cli.{battery}_s"] = (incl[f"cli.run_{battery}"], "s")
    m.update({
        "simplex.calls": (calls["simplex"], "count"),
        "simplex.validations": (builds["simplex"], "count"),
        "simplex.self_s": (self_s["simplex"], "s"),
        "bayes.mc_trials": (trials, "count"),
        "bayes.us_per_trial": (per(incl["bayes.monte_carlo_gain"], trials), "us"),
        "bayes.self_s": (self_s["bayes"], "s"),
        "statespace.calls": (calls["statespace"], "count"),
        "statespace.validations": (builds["statespace"], "count"),
        "statespace.self_s": (self_s["statespace"], "s"),
        "transforms.probe_calls": (probes, "count"),
        "transforms.us_per_probe": (per(incl["transforms.gauge_invariance_probe"], probes), "us"),
        "transforms.probe_state_shifts": (work["transforms.probe_state_shifts"], "count"),
        "transforms.classify_calls": (calls["transforms.classify"], "count"),
        "transforms.self_s": (self_s["transforms"], "s"),
        "measurement.calls": (calls["measurement"], "count"),
        "measurement.validations": (builds["measurement"], "count"),
        "measurement.self_s": (self_s["measurement"], "s"),
        "distmax.objective_evals": (evals, "count"),
        "distmax.us_per_eval": (per(incl["distmax.maximize_statistical_distance"], evals), "us"),
        "distmax.evals_per_restart": (evals / restarts if restarts else 0.0, "count"),
        "distmax.certify_s": (incl["distmax.certify_upper_bound"], "s"),
        "distmax.max_gap": (max_gap, "rad"),
        "distmax.self_s": (self_s["distmax"], "s"),
        "reporting.render_s": (incl["reporting.render_report"], "s"),
        "reporting.report_bytes": (report_bytes, "B"),
    })
    return m
