"""Verifier benchmark: time-to-verdict, CPU, memory and set-up per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warehouse-audit --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25   # summary table
    python3 perfbench/run.py --write-manifest              # BENCHMARK.json

Closed loop, one client: each measured run is a fresh child process
(``child.py``) that builds the spec, calls ``repro.pipeline.verify`` once
and checks the answer; children run one after another for about
``--seconds`` (see :func:`measure`). The child environment carries no
``REPRO_*`` variable, and ``PYTHONHASHSEED`` and the order of the initial
facts come from ``--seed``. A failed run (wrong answer, exception,
timeout) counts in ``failed`` and its timings are dropped. Metrics are
medians over the successful runs. With ``--trace 1`` runs alternate
untraced and traced and the result holds the per-layer metrics; the spans
are written to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from tracing import covered_seconds, self_times
from workloads import (END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
                       Workload, by_name, manifest)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
#: Every run, with its last child, must end well within 180 s.
RUN_LIMIT_S = 170.0
#: Set-up-only children per untraced verification: ``setup_s`` is the
#: median of all their set-ups and those of the verifications.
SETUP_CHILDREN = 2
#: Single-threaded numeric libraries: at most one busy process on the box.
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS")


def child_env(seed: int) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SOURCES)
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    env.update((name, "1") for name in SINGLE_THREAD)
    return env


def run_child(workload: Workload, seed: int, mode: str,
              timeout: float) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "child.py"),
               json.dumps(workload.to_json()), str(seed), mode]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(seed),
                              capture_output=True, text=True,
                              timeout=timeout)
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        result = {"ok": False,
                  "problems": [f"timed out after {timeout:.0f} s"]}
    except (IndexError, ValueError):
        result = {"ok": False, "problems": [
            f"exit code {done.returncode}: {done.stderr[-2000:]}"]}
    result["mode"] = mode
    return result


def warm_up(seed: int) -> None:
    """Import ``repro`` once, unmeasured, so that bytecode is compiled."""
    subprocess.run([sys.executable, "-c", "import repro.pipeline"],
                   cwd=ROOT, env=child_env(seed), capture_output=True,
                   timeout=RUN_LIMIT_S)


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> List[Dict[str, Any]]:
    """Run cycles of children back to back for about ``seconds``.

    A cycle is ``SETUP_CHILDREN`` set-up-only children and one untraced
    verification or, with ``trace``, one untraced and one traced
    verification. Cycles start while half the longest one so far still
    fits in the window, so a run ends within half a cycle of it."""
    modes = ("plain", "traced") if trace \
        else ("setup",) * SETUP_CHILDREN + ("plain",)
    warm_up(seed)
    started = time.perf_counter()
    runs: List[Dict[str, Any]] = []
    longest = 0.0
    while not runs or time.perf_counter() - started + longest / 2 <= seconds:
        cycle_started = time.perf_counter()
        for mode in modes:
            elapsed = time.perf_counter() - started
            runs.append(run_child(workload, seed, mode,
                                  timeout=max(5.0, RUN_LIMIT_S - elapsed)))
        longest = max(longest, time.perf_counter() - cycle_started)
    return runs


def end_to_end(good: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over the verifications; ``setup_s`` over every child."""
    plain = [run for run in good if run["mode"] == "plain"]
    return {name: {"value": median([run[name] for run in
                                     (good if name == "setup_s" else plain)]),
                   "unit": unit}
            for name, unit, _better, _bound in END_TO_END}


def per_layer(plain: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    samples: Dict[str, List[float]] = {}
    for run in traced:
        values = dict(run["counters"])
        selfs = self_times(run["spans"])
        for name, seconds in selfs.items():
            values[f"{name}_s"] = seconds
        build = selfs.get("semantics.build", 0.0)
        values["mucalc.check_build_ratio"] = \
            selfs.get("mucalc.check", 0.0) / build if build else 0.0
        # Against the same child's verdict: the untraced children's wall
        # time differs from it by the host's steal as well as the overhead.
        values["trace.coverage"] = \
            covered_seconds(run["spans"]) / run["verdict_s"]
        values["traced_verdict_s"] = run["verdict_s"]
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    medians = {name: median(values) for name, values in samples.items()}
    untraced = median([run["verdict_s"] for run in plain])
    medians["verdict_s"] = untraced
    medians["trace.overhead_s"] = medians["traced_verdict_s"] - untraced
    return {name: {"value": medians.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER}


def write_trace(workload: Workload, seed: int,
                runs: List[Dict[str, Any]]) -> Path:
    out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    spans = [span for run in runs for span in run.get("spans", ())]
    out.write_text(json.dumps({"workload": workload.name, "seed": seed,
                               "spans": spans}, indent=1))
    return out


def benchmark(workload: Workload, seed: int, seconds: float,
              trace: bool) -> Optional[Dict[str, Any]]:
    """Measure one workload and print its report.

    Returns the result object, or None if no verification passed."""
    runs = measure(workload, seed, seconds, trace)
    good = [run for run in runs if run["ok"]]
    for number, run in enumerate(runs):
        for problem in run.get("problems", ()):
            print(f"{workload.name} run {number} failed: {problem}",
                  file=sys.stderr)
    plain = [run for run in good if run["mode"] == "plain"]
    traced = [run for run in good if run["mode"] == "traced"]
    if not plain or (trace and not traced):
        return None
    if trace:
        metrics = per_layer(plain, traced)
        shown = metrics
        print(f"spans written to {write_trace(workload, seed, runs)}")
    else:
        metrics = end_to_end(good)
        # Wall time carries the host's CPU steal, so it is shown here but
        # bounded only through verdict_cpu_s (see README.md).
        shown = {"verdict_s": {"value": median(
            [run["verdict_s"] for run in plain]), "unit": "s"}, **metrics}
    result = {"correct": len(good) == len(runs), "attempted": len(runs),
              "failed": len(runs) - len(good), "metrics": metrics}
    print(f"{workload.name} (seed {seed}): {result['attempted']} runs, "
          f"failed_share = {result['failed'] / result['attempted']:.3f}")
    for metric, entry in shown.items():
        print(f"  {metric:44s} {entry['value']:14.6g} {entry['unit']}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' for a summary")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SOURCES}", file=sys.stderr)
        return 2
    names = [w.name for w in WORKLOADS] if args.workload == "all" \
        else [args.workload]
    try:
        workloads = [by_name(name) for name in names]
    except KeyError as missing:
        parser.error(f"unknown workload {missing}")
    results = {}
    for workload in workloads:
        result = benchmark(workload, args.seed, args.seconds,
                           bool(args.trace))
        if result is None:
            print(f"{workload.name}: no run passed", file=sys.stderr)
            return 1
        results[workload.name] = result
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
