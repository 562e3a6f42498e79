#!/usr/bin/env python
"""Run the benchmark suite and emit a ``BENCH_<date>.json`` perf record.

The record contains:

* per-benchmark wall times (mean/min, via pytest-benchmark) for every
  ``bench_*.py`` file selected;
* engine throughput probes (states/sec, frontier peak) for representative
  workloads, taken straight from ``TransitionSystem.exploration_stats``;
* checker probes: the compiled model checker vs the seed-style reference
  evaluator over the ``bench_model_checking`` sweep, including the
  speedup ratio on the largest fixpoint-alternation configuration.

An existing ``BENCH_<date>.json`` for the same day is merged into, not
clobbered (section-level, so a partial ``--pattern`` run keeps earlier
sections).

Usage::

    python benchmarks/run_all.py                  # full suite
    python benchmarks/run_all.py --pattern bench_complexity_scaling.py
    python benchmarks/run_all.py --out results/   # output directory
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = str(REPO_ROOT / "src")


def run_pytest_benchmarks(pattern: str) -> dict:
    """Run the selected bench files under pytest-benchmark, return stats."""
    targets = sorted(BENCH_DIR.glob(pattern))
    if not targets:
        raise SystemExit(f"no benchmark files match {pattern!r}")
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [
            sys.executable, "-m", "pytest", *map(str, targets),
            "--benchmark-only", "-q", f"--benchmark-json={json_path}",
        ]
        completed = subprocess.run(command, env=env, cwd=str(REPO_ROOT))
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed ({completed.returncode})")
        raw = json.loads(json_path.read_text())
    results = {}
    for bench in raw.get("benchmarks", []):
        results[bench["fullname"]] = {
            "mean_sec": bench["stats"]["mean"],
            "min_sec": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
        }
    return results


def engine_throughput_probes() -> dict:
    """Build representative state spaces and report engine stats."""
    sys.path.insert(0, SRC)
    from repro.gallery import example_43, request_system
    from repro.core import ServiceSemantics
    from repro.semantics import build_det_abstraction, rcycl
    from repro.workloads import (
        chain_dcds, commitment_blowup_dcds, conveyor_dcds)

    probes = {
        "det-abstraction/blowup[3]":
            lambda: build_det_abstraction(commitment_blowup_dcds(3), 100000),
        "det-abstraction/chain[3]":
            lambda: build_det_abstraction(chain_dcds(3), 100000),
        "det-abstraction/conveyor[2]":
            lambda: build_det_abstraction(conveyor_dcds(2), 100000),
        "rcycl/example43":
            lambda: rcycl(example_43(ServiceSemantics.NONDETERMINISTIC)),
        "rcycl/request-system[slim]":
            lambda: rcycl(request_system(slim=True)),
    }
    stats = {}
    for name, build in probes.items():
        ts = build()
        stats[name] = {
            "states": len(ts),
            "edges": ts.edge_count(),
            "states_per_sec": ts.exploration_stats.get("states_per_sec"),
            "frontier_peak": ts.exploration_stats.get("frontier_peak"),
            "duration_sec": ts.exploration_stats.get("duration_sec"),
        }
    return stats


def _env_overrides(**overrides):
    """Context manager: set/restore environment switches around a probe.

    The join kill switches are (re-)read inside the calls being timed —
    ``vector_enabled`` per kernel call — except ``REPRO_NO_KERNEL``, which
    binds when a kernel first attaches to a DCDS; backend probes therefore
    build a *fresh* specification inside the context. The µ-calculus
    engine reads no switch."""
    import contextlib

    @contextlib.contextmanager
    def apply():
        saved = {name: os.environ.get(name) for name in overrides}
        try:
            for name, value in overrides.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    return apply()


def checker_probes() -> dict:
    """Compiled (bitset engine) vs reference checking over the sweep grid
    plus the long-diameter chain pair.

    The acceptance bars tracked here: >= 2x compiled-vs-reference on the
    largest alternation configuration (``largest_alternation.speedup``),
    and no regression of the chain probes' ``compiled_sec`` against the
    previous record. The reference iterates ~n frozenset scans over ~n
    states on the chain (1.2 s at 480 states, 27 s at 1920), so it runs on
    the smallest chain only."""
    import time

    sys.path.insert(0, SRC)
    sys.path.insert(0, str(BENCH_DIR))
    from bench_model_checking import (
        CHAIN_SIZES, DEPTHS, SIZES, chain_formulas, chain_ts,
        formula_for_depth, quantified_formula, synthetic_ts)
    from repro.mucalc import ModelChecker

    def timed(build_checker, formula):
        started = time.perf_counter()
        result = build_checker().evaluate(formula)
        return time.perf_counter() - started, result

    def compare(ts, formula, context, reference=True):
        compiled_sec, compiled_ext = timed(lambda: ModelChecker(ts), formula)
        entry = {"compiled_sec": compiled_sec}
        if reference:
            reference_sec, reference_ext = timed(
                lambda: ModelChecker(ts, compiled=False), formula)
            assert compiled_ext == reference_ext, context
            entry["reference_sec"] = reference_sec
            entry["speedup"] = (reference_sec / compiled_sec
                                if compiled_sec else None)
        return entry

    probes: dict = {"sweep": {}, "chain": {}}
    for n in SIZES:
        ts = synthetic_ts(n)
        for depth in DEPTHS:
            probes["sweep"][f"states={n}/alternation={depth}"] = compare(
                ts, formula_for_depth(depth), (n, depth))
        probes["sweep"][f"states={n}/quantified-alternation=2"] = compare(
            ts, quantified_formula(), (n, "quantified"))
    for n in [*CHAIN_SIZES, 2 * max(CHAIN_SIZES)]:
        ts = chain_ts(n)
        for name, formula in chain_formulas().items():
            probes["chain"][f"states={n}/{name}"] = compare(
                ts, formula, (n, name), reference=n == min(CHAIN_SIZES))
    largest = probes["sweep"][
        f"states={max(SIZES)}/alternation={max(DEPTHS)}"]
    probes["largest_alternation"] = {
        "config": f"states={max(SIZES)}/alternation={max(DEPTHS)}",
        **largest,
    }
    return probes


def backend_comparison_probes() -> dict:
    """Vector vs interpreted-kernel vs reference abstraction builds.

    Best-of-5 cold builds (subproblem caches cleared, fresh DCDS per
    round so ``REPRO_NO_KERNEL`` re-binds) on the two largest gate
    configurations: the join-heavy grid where the columnar backend is
    expected to win big, and the service-call chain where instances stay
    tiny and the vector path mostly stands aside (its ``MIN_TUPLES``
    heuristic keeps the interpreted kernel in charge) — recorded as-is."""
    import time

    sys.path.insert(0, SRC)
    from repro.core.execution import clear_subproblem_caches
    from repro.semantics import build_det_abstraction
    from repro.workloads import chain_dcds, lattice_dcds

    def best_build(factory, rounds=5):
        def run():
            clear_subproblem_caches()
            dcds = factory()
            started = time.perf_counter()
            build_det_abstraction(dcds, 100000)
            return time.perf_counter() - started
        run()  # warmup
        return min(run() for _ in range(rounds))

    configs = {
        "lattice[3]": lambda: lattice_dcds(3),
        "chain[3]": lambda: chain_dcds(3),
    }
    probes = {}
    for name, factory in configs.items():
        with _env_overrides(REPRO_NO_VECTOR=None, REPRO_NO_KERNEL=None):
            vector_sec = best_build(factory)
        with _env_overrides(REPRO_NO_VECTOR="1", REPRO_NO_KERNEL=None):
            kernel_sec = best_build(factory)
        with _env_overrides(REPRO_NO_VECTOR="1", REPRO_NO_KERNEL="1"):
            reference_sec = best_build(factory)
        probes[name] = {
            "vector_sec": vector_sec,
            "kernel_sec": kernel_sec,
            "reference_sec": reference_sec,
            "vector_vs_kernel": (kernel_sec / vector_sec
                                 if vector_sec else None),
            "vector_vs_reference": (reference_sec / vector_sec
                                    if vector_sec else None),
        }
    return probes


def batch_comparison_probes() -> dict:
    """Frontier-batched vs per-state grounding abstraction builds.

    Best-of-5 cold builds with the frontier-batch tier on (default) and
    off (``REPRO_NO_BATCH=1``), plus the tier's own accounting from
    ``abstraction_stats["batch"]``. The deep-frontier conveyor family is
    the overhead-bound configuration the tier targets — wide frontiers
    of small sibling instances sharing a static payload relation, so
    per-state kernel/numpy constants dominate and cross-state dedup
    collapses most evaluations. ``chain[3]`` and ``lattice[3]`` are the
    honest contrast rows: thin frontiers (blocks below the width gate)
    leave the tier standing aside, ratios ~1x — recorded as-is."""
    import time

    sys.path.insert(0, SRC)
    from repro.core.execution import clear_subproblem_caches
    from repro.semantics import build_det_abstraction
    from repro.workloads import chain_dcds, conveyor_dcds, lattice_dcds

    def best_build(factory, rounds=5):
        def run():
            clear_subproblem_caches()
            dcds = factory()
            started = time.perf_counter()
            build_det_abstraction(dcds, 100000)
            return time.perf_counter() - started
        run()  # warmup
        return min(run() for _ in range(rounds))

    configs = {
        "conveyor[2]": lambda: conveyor_dcds(2),
        "chain[3]": lambda: chain_dcds(3),
        "lattice[3]": lambda: lattice_dcds(3),
    }
    probes = {}
    for name, factory in configs.items():
        with _env_overrides(REPRO_NO_BATCH=None):
            batched_sec = best_build(factory)
        with _env_overrides(REPRO_NO_BATCH="1"):
            per_state_sec = best_build(factory)
        clear_subproblem_caches()
        with _env_overrides(REPRO_NO_BATCH=None):
            ts = build_det_abstraction(factory(), 100000)
        batch = ts.exploration_stats.get("batch", {})
        warmed = batch.get("warmed_entries", 0)
        probes[name] = {
            "batched_sec": batched_sec,
            "per_state_sec": per_state_sec,
            "batch_speedup": (per_state_sec / batched_sec
                              if batched_sec else None),
            "blocks": batch.get("blocks"),
            "thin_blocks": batch.get("thin_blocks"),
            "block_states_peak": batch.get("block_states_peak"),
            "warmed_entries": warmed,
            "dedup_hit_rate": (batch.get("dedup_hits", 0) / warmed
                               if warmed else None),
            "fallbacks": batch.get("fallbacks"),
        }
    return probes


def profile_hot_path() -> None:
    """cProfile the two hot paths — a cold join-heavy abstraction build
    and an iteration-heavy checker run — and print the top 20 entries
    by cumulative time for each."""
    import cProfile
    import pstats

    sys.path.insert(0, SRC)
    sys.path.insert(0, str(BENCH_DIR))
    from bench_model_checking import chain_formulas, chain_ts
    from repro.core.execution import clear_subproblem_caches
    from repro.mucalc import ModelChecker
    from repro.semantics import build_det_abstraction
    from repro.workloads import lattice_dcds

    build_det_abstraction(lattice_dcds(1), 100000)  # warm imports/interning
    clear_subproblem_caches()
    profiler = cProfile.Profile()
    profiler.enable()
    build_det_abstraction(lattice_dcds(3), 100000)
    profiler.disable()
    print("\n=== abstraction build lattice[3]: top 20 by cumulative ===")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)

    ts = chain_ts(960)
    formula = chain_formulas()["inf-often"]
    ModelChecker(ts).evaluate(formula)  # warm the TS successor index
    profiler = cProfile.Profile()
    profiler.enable()
    ModelChecker(ts).evaluate(formula)
    profiler.disable()
    print("\n=== checker chain[960]/inf-often: top 20 by cumulative ===")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pattern", default="bench_*.py",
                        help="glob (under benchmarks/) of files to run")
    parser.add_argument("--out", default=str(REPO_ROOT),
                        help="directory for the BENCH_<date>.json record")
    parser.add_argument("--skip-pytest", action="store_true",
                        help="only run the engine throughput probes")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the hot paths (join-heavy build + "
                             "iteration-heavy checker run), print the top "
                             "20 by cumulative time, and exit without "
                             "writing a record")
    args = parser.parse_args()

    if args.profile:
        profile_hot_path()
        return

    record = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "engine_probes": engine_throughput_probes(),
        "checker_probes": checker_probes(),
        "backend_probes": backend_comparison_probes(),
        "batch_probes": batch_comparison_probes(),
    }
    if not args.skip_pytest:
        record["pytest_benchmarks"] = run_pytest_benchmarks(args.pattern)

    from _record import write_bench_record

    write_bench_record(args.out, record)


if __name__ == "__main__":
    main()
