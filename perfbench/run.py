#!/usr/bin/env python3
"""Benchmark of the infogeo verification batteries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is a list of battery calls made in-process through the public
`infogeo.cli.main(argv)` entry point, as a closed loop: the next call starts
when the previous one returns.  Every call of a workload uses the workload's
fixed battery seed, because the optimizer's work depends on the state pair
(one `wootters --n 8 --budget 1` pair took 5.3 to 26 s across seeds 1-6 on a
2-core x86 host), so a call's time repeats only at a fixed battery seed.
`--seed` shuffles the order of the calls in each pass.

`--trace 0` times the workload untraced for `--seconds` and prints the
end-to-end metrics.  `--trace 1` makes one untraced pass and two traced
passes and prints the per-layer metrics and the tracing overhead.

Every call passes a correctness gate (exit 0, a report that parses as JSON,
`overall_passed` true) and gets a SHA-256 digest of its report without
`duration_seconds`.  Repeats of a call, traced or not, must give equal
digests.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only when
`correct` is true.  Results, and the spans of traced passes, are written
under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BATTERY_SEED = 7
# Workload -> battery calls (argv without --seed).  Why each was chosen, the
# layer it loads and its measured share are in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper-default": [
        ["coin-distinguish"], ["metric-check"], ["correspondence"], ["born-check"],
        ["wootters"],
    ],
    "coin-metric": [
        ["coin-distinguish", "--trials", "30000"],
        ["metric-check", "--tangents", "2000"],
    ],
    "wootters-n8": [
        ["wootters", "--n", "8", "--budget", "1", "--pairs", "1"],
    ],
}
SETUP_SAMPLES = 5
TRACED_PASSES = 2


@dataclass
class CallResult:
    argv: list[str]
    seconds: float
    report_bytes: int
    digest: str | None
    failing: list[str]
    report: dict | None = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return not self.failing


def report_digest(tree: dict) -> str:
    """SHA-256 of a report with its duration removed."""
    tree = {k: v for k, v in tree.items() if k != "duration_seconds"}
    return hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()


def call_battery(main, argv: list[str]) -> CallResult:
    """One battery call through the CLI, timed and put through the gate.

    A failed call is recorded with the names of its failing checks; it is
    never retried, skipped or re-seeded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash fails the gate, it does not end the run
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
    text = out.getvalue()
    try:
        tree = json.loads(text)
    except ValueError:
        return CallResult(argv, seconds, len(text), None, [f"report is not JSON (exit {rc})"])
    failing = [c["name"] for c in tree.get("checks", []) if not c.get("passed")]
    if tree.get("overall_passed") is not True and not failing:
        failing = ["overall_passed is not true"]
    if rc != 0 and not failing:
        failing = [f"exit {rc}"]
    return CallResult(argv, seconds, len(text), report_digest(tree), failing, tree)


def import_cli():
    """Import infogeo.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "infogeo" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no infogeo sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import infogeo.cli

    if Path(infogeo.cli.__file__).resolve().parent != SRC / "infogeo":
        raise SystemExit(f"perfbench: imported infogeo from {infogeo.cli.__file__}")
    return infogeo.cli


def setup_seconds() -> float:
    """Median time of `import infogeo.cli` in fresh interpreters."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "t = time.perf_counter(); import infogeo.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def env_block(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "git_rev": rev,
        "seed": seed,
        "battery_seed": BATTERY_SEED,
    }


class Run:
    """The battery calls of one workload and what they returned."""

    def __init__(self, cli, workload: str, seed: int) -> None:
        self.cli = cli
        self.calls = [argv + ["--seed", str(BATTERY_SEED)] for argv in WORKLOADS[workload]]
        self.order = random.Random(seed)
        self.results: list[CallResult] = []
        self.digests: list[set[str]] = [set() for _ in self.calls]

    def call(self, i: int) -> CallResult:
        # looked up per call, so that a traced pass calls the wrapped main
        r = call_battery(self.cli.main, self.calls[i])
        self.results.append(r)
        if r.digest is not None:
            self.digests[i].add(r.digest)
        return r

    def shuffled(self) -> list[int]:
        order = list(range(len(self.calls)))
        self.order.shuffle(order)
        return order

    def one_pass(self, tracer: spans.Tracer | None = None) -> list[CallResult]:
        """Each call once, in a seeded order; results indexed by call."""
        results: list[CallResult | None] = [None] * len(self.calls)
        for i in self.shuffled():
            if tracer is not None:
                tracer.call_id = i
            results[i] = self.call(i)
        return results

    def timed(self, seconds: float) -> list[list[float]]:
        """Closed loop for `seconds`: a full pass first, then further calls
        while each is expected, from its last time, to end in time."""
        deadline = time.perf_counter() + seconds
        samples = [[r.seconds] for r in self.one_pass()]
        while True:
            ran = False
            for i in self.shuffled():
                if time.perf_counter() + samples[i][-1] <= deadline:
                    samples[i].append(self.call(i).seconds)
                    ran = True
            if not ran:
                return samples

    def problems(self) -> list[str]:
        out = [
            f"call {' '.join(r.argv)} failed: {', '.join(r.failing)}"
            for r in self.results if not r.ok
        ]
        out += [
            f"call {' '.join(argv)} gave {len(d)} different report digests"
            for argv, d in zip(self.calls, self.digests) if len(d) > 1
        ]
        return out


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    samples = run.timed(seconds)
    wall = sum(statistics.median(s) for s in samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_seconds(), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"call_seconds": samples}


def per_layer(run: Run, workload: str) -> tuple[dict, dict]:
    untraced = run.one_pass()
    passes = []
    for _ in range(TRACED_PASSES):
        tracer = spans.Tracer()
        with spans.traced(tracer):
            passes.append((tracer, run.one_pass(tracer)))

    self_time_problems = []
    metric_runs = []
    for p, (tracer, results) in enumerate(passes):
        own = spans.self_times(tracer.start, tracer.end, tracer.parent)
        for i, err in spans.self_sum_errors(tracer, own).items():
            if err > spans.SELF_SUM_RTOL:
                self_time_problems.append(
                    f"pass {p} call {i}: layer self times miss the call span "
                    f"by {err:.3g} of it (tolerance {spans.SELF_SUM_RTOL:g})")
        gaps = [c["value"] for r in results if r.report
                for c in r.report["checks"] if c["name"] == "max_gap"]
        m = spans.layer_metrics(tracer, own, max(gaps, default=0.0),
                                sum(r.report_bytes for r in results))
        m["trace.overhead"] = (
            sum(r.seconds for r in results) / sum(r.seconds for r in untraced), "ratio")
        metric_runs.append(m)
    # times are the median over traced passes; counts repeat, so pass 0 holds
    metrics = {
        name: (statistics.median(m[name][0] for m in metric_runs)
               if unit in ("s", "us", "ratio") else value, unit)
        for name, (value, unit) in metric_runs[0].items()
    }

    # Counts must repeat exactly between traced passes at one seed.
    counts = [[t.call_counts(i) for i in range(len(run.calls))] for t, _ in passes]
    unrepeated = sorted({
        f"{' '.join(run.calls[i])}: {key}"
        for other in counts[1:]
        for i, (a, b) in enumerate(zip(counts[0], other))
        for key in a.keys() | b.keys() if a.get(key) != b.get(key)
    })
    tracer = passes[-1][0]
    np.savez(
        OUT / f"{workload}.spans.npz",
        names=np.array(tracer.names), name=np.frombuffer(tracer.name, dtype=np.int32),
        start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end),
        parent=np.frombuffer(tracer.parent, dtype=np.int64),
        call=np.frombuffer(tracer.call, dtype=np.int32),
    )
    extra = {
        "untraced_seconds": [r.seconds for r in untraced],
        "traced_seconds": [[r.seconds for r in res] for _, res in passes],
        "counts": counts[0],
        "unrepeated_counts": unrepeated,
        "self_time_problems": self_time_problems,
    }
    return metrics, extra


def run_workload(cli, workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    run = Run(cli, workload, seed)
    if trace:
        metrics, extra = per_layer(run, workload)
    else:
        metrics, extra = end_to_end(run, seconds)
    problems = run.problems() + extra.get("self_time_problems", [])
    failed = sum(not r.ok for r in run.results)
    result = {
        "workload": workload,
        "trace": trace,
        "env": env_block(seed),
        "calls": [
            {"argv": argv, "digests": sorted(d)} for argv, d in zip(run.calls, run.digests)
        ],
        "attempted": len(run.results),
        "failed": failed,
        "fail_frac": failed / len(run.results),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    (OUT / f"{workload}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except (SystemExit, ImportError) as exc:
        print(exc, file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(cli, w, args.seed, args.seconds, args.trace) for w in names]

    print("env " + json.dumps(results[0]["env"]))
    for res in results:
        w = res["workload"]
        print(f"{w}: {res['attempted']} calls, {res['failed']} failed "
              f"(fail_frac {res['fail_frac']:g})")
        for call in res["calls"]:
            print(f"{w}:   {' '.join(call['argv'])}  sha256 {','.join(call['digests'])}")
        for name, m in res["metrics"].items():
            print(f"{w}: {name} = {m['value']:.6g} {m['unit']}")
        for flag in res.get("unrepeated_counts", []):
            print(f"{w}: FLAG count differs between traced passes: {flag}")
        for problem in res["problems"]:
            print(f"{w}: FAIL {problem}")

    correct = not any(res["problems"] for res in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
