"""Self-test of the benchmark on tiny workloads (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* an untraced run prints every end-to-end metric, and a traced run every
  per-layer metric, by name and with its unit, on each tiny workload, and
  the layers each workload reaches read above 0;
* a deliberately wrong expected verdict counts every verification as
  failed, and the run then reports no timings;
* two seeds give identical verdicts, routes, states and edges;
* ``BENCHMARK.json`` matches the definitions in ``workloads.py``.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from typing import List

from run import HERE, ROOT, benchmark, measure
from workloads import END_TO_END, PER_LAYER, TINY_WORKLOADS, manifest

SECONDS = 0.1
#: Per-layer metrics that must read above 0 on every tiny workload, and
#: those that must on one workload only: a misspelled counter key or a
#: span that no longer wraps its entry point would read 0.
LIVE = {"verdict_s", "import_s", "core.spec_s", "mucalc.parse_s",
        "analysis.static_s", "semantics.build_s", "engine.states_per_s",
        "engine.states", "engine.edges", "relational.kernel.evaluate_calls",
        "relational.kernel.facts_interned", "mucalc.check_s",
        "mucalc.iterations", "mucalc.peak_extension",
        "mucalc.check_build_ratio", "mucalc.witness.extract_s",
        "trace.coverage"}
LIVE_ON = {
    "tiny-lattice-witness": {"relational.vector.rows_peak",
                             "mucalc.certify.replay_s"},
    "tiny-warehouse-budget": {
        "engine.store.rehydrations", "engine.store.page_reads",
        "engine.store.bytes_written", "engine.store.evictions.hot",
        "engine.store.evictions.memos", "engine.store.budget_high_water"},
}


def cli(workload: str, trace: int) -> List[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout.strip().splitlines()


def check_printed(workload: str, errors: List[str]) -> None:
    for trace, declared in ((0, [(n, u) for n, u, _b, _d in END_TO_END]),
                            (1, PER_LAYER)):
        lines = cli(workload, trace)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            errors.append(f"{workload} trace {trace}: {result}")
        metrics = result["metrics"]
        if sorted(metrics) != sorted(name for name, _unit in declared):
            errors.append(f"{workload} trace {trace}: metrics "
                          f"{sorted(metrics)} differ from the declared ones")
        for name, unit in declared:
            if metrics.get(name, {}).get("unit") != unit:
                errors.append(f"{workload}: {name} lacks its unit {unit}")
            if not any(line.split()[:1] == [name] and line.endswith(unit)
                       for line in lines[:-1]):
                errors.append(f"{workload}: {name} [{unit}] not printed")
        if trace:
            for name in LIVE | LIVE_ON.get(workload, set()):
                if not metrics.get(name, {}).get("value", 0) > 0:
                    errors.append(f"{workload}: {name} reads 0")


def check_wrong_verdict_fails(errors: List[str]) -> None:
    workload = TINY_WORKLOADS[0]
    wrong = replace(workload, expect=replace(
        workload.expect, holds=not workload.expect.holds))
    verifications = [run for run in measure(wrong, 7, SECONDS, False)
                     if run["mode"] == "plain"]
    if not verifications or any(run["ok"] for run in verifications):
        errors.append("a wrong expected verdict was not counted as failed")
    if benchmark(wrong, 7, SECONDS, False) is not None:
        errors.append("a run without a passing verification gave timings")


def check_seeds_agree(errors: List[str]) -> None:
    for workload in TINY_WORKLOADS:
        outcomes = []
        for seed in (1, 2):
            runs = measure(workload, seed, SECONDS, False)
            outcomes.append([run.get("outcome") for run in runs
                             if run["mode"] == "plain"])
        if not outcomes[0] or outcomes[0][0] is None or \
                any(o != outcomes[0][0] for o in outcomes[0] + outcomes[1]):
            errors.append(f"{workload.name}: seeds disagree: {outcomes}")


def check_manifest(errors: List[str]) -> None:
    written = json.loads((ROOT / "BENCHMARK.json").read_text())
    if written != manifest():
        errors.append("BENCHMARK.json is stale: run "
                      "'python3 perfbench/run.py --write-manifest'")


def main() -> int:
    errors: List[str] = []
    check_manifest(errors)
    for workload in TINY_WORKLOADS:
        check_printed(workload.name, errors)
    check_wrong_verdict_fails(errors)
    check_seeds_agree(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
