"""Section 6 complexity — abstraction size and model-checking cost.

Paper: "our construction generates a finite transition system whose number
of states is exponential in the size of the DCDS" and model checking a
formula of size l with k alternating fixpoints costs O((2^n · n^l)^k).

We regenerate both shapes:

* the commitment-blowup family: one action with ``n`` independent fresh
  service calls — the first abstraction level is the full equality-
  commitment lattice, super-exponential in ``n``;
* the chain family: abstraction size grows with pipeline depth;
* model-checking time as a function of fixpoint nesting depth ``k``.
"""

import sys
from pathlib import Path

# Standalone-CLI support (the regression gate below): pytest runs get the
# path from PYTHONPATH/conftest anyway.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.mucalc import ModelChecker, parse_mu
from repro.mucalc.ast import Box, Diamond, MAnd, MOr, Mu, Nu, PredVar, QF
from repro.semantics import build_det_abstraction
from repro.semantics.commitments import count_commitments
from repro.workloads import (
    chain_dcds, commitment_blowup_dcds, conveyor_dcds, lattice_dcds,
    warehouse_dcds)


class TestAbstractionBlowup:
    @pytest.mark.parametrize("n_calls", [1, 2, 3])
    def test_first_level_is_commitment_lattice(self, benchmark, n_calls):
        dcds = commitment_blowup_dcds(n_calls)
        ts = benchmark(build_det_abstraction, dcds, 100000)
        level1 = len(ts.depth_levels()[1])
        assert level1 == count_commitments(n_calls, 1)

    def test_growth_is_superexponential(self, benchmark):
        sizes = benchmark(
            lambda: [count_commitments(n, 1) for n in range(1, 7)])
        ratios = [later / earlier
                  for earlier, later in zip(sizes, sizes[1:])]
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


class TestChainScaling:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_chain_abstraction(self, benchmark, length):
        dcds = chain_dcds(length)
        ts = benchmark(build_det_abstraction, dcds, 100000)
        # Weakly acyclic: position ranks equal chain depth, so this always
        # terminates; deeper chains give strictly larger systems.
        assert len(ts) >= length

    def test_monotone_in_length(self, benchmark):
        sizes = benchmark(
            lambda: [len(build_det_abstraction(chain_dcds(n), 100000))
                     for n in (1, 2, 3)])
        assert sizes[0] < sizes[1] < sizes[2]


class TestLatticeJoins:
    """Join-heavy grounding on the grid workload: dense multiway
    self-joins with negation, trivial state space — build time is almost
    entirely relational evaluation, so this is where the columnar vector
    backend shows (and where ``REPRO_NO_VECTOR=1`` CI runs time the
    interpreted kernel on identical inputs)."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_lattice_abstraction(self, benchmark, k):
        dcds = lattice_dcds(k)
        ts = benchmark(build_det_abstraction, dcds, 100000)
        # No service calls, E copied verbatim: the abstraction closes
        # immediately after the one survey step.
        assert len(ts) == 2


class TestConveyorFrontiers:
    """Deep, wide-frontier exploration on the conveyor workload: many
    small sibling instances per frontier sharing their static payload
    relation — the configuration the frontier-batch tier targets (and
    where ``REPRO_NO_BATCH=1`` CI runs time the per-state grounding on
    identical inputs)."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_conveyor_abstraction(self, benchmark, k):
        dcds = conveyor_dcds(k)
        ts = benchmark(build_det_abstraction, dcds, 100000)
        # Token positions are independent monotone counters: the space is
        # exactly cells^tokens.
        assert len(ts) == (2 * k + 3) ** (k + 1)


class TestModelCheckingCost:
    @pytest.fixture(scope="class")
    def arena(self):
        return build_det_abstraction(commitment_blowup_dcds(3), 100000)

    def _nested_formula(self, k):
        """k alternating fixpoints: nu X1. mu X2. nu X3. ... body."""
        body = QF(parse_mu("Seed('c')").query)
        formula = body
        for index in range(k, 0, -1):
            var = f"X{index}"
            if index % 2 == 1:
                formula = Nu(var, MAnd.of(formula, Box(PredVar(var))))
            else:
                formula = Mu(var, MOr.of(formula, Diamond(PredVar(var))))
        return formula

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nesting_depth(self, benchmark, arena, k):
        formula = self._nested_formula(k)
        checker = ModelChecker(arena)
        result = benchmark(checker.evaluate, formula)
        assert arena.initial in result  # Seed('c') persists everywhere

    def test_quantifier_expansion_cost(self, benchmark, arena):
        # Each quantified variable multiplies work by |domain|.
        formula = parse_mu(
            "E x, y. live(x) & live(y) & mu Z. (Seed(x) | <-> Z)")
        checker = ModelChecker(arena)
        result = benchmark(checker.evaluate, formula)
        assert arena.initial in result


# ---------------------------------------------------------------------------
# CLI: hot-path regression gate (CI runs `bench_complexity_scaling --quick`)
# ---------------------------------------------------------------------------

GATE_PROBES = {
    "abstraction-blowup[3]": lambda: _timed_build(commitment_blowup_dcds(3)),
    "chain[3]": lambda: _timed_build(chain_dcds(3)),
    "conveyor[2]": lambda: _timed_build(conveyor_dcds(2)),
    "lattice[3]": lambda: _timed_build(lattice_dcds(3)),
    # Wide call-free states: guards the no-call path that skips
    # commitment enumeration and the state's history set.
    "warehouse[1]": lambda: _timed_build(warehouse_dcds(1)),
}


def _timed_build(dcds):
    import time

    from repro.core.execution import clear_subproblem_caches

    # Cold caches: the kernel's successor memo would otherwise replay the
    # previous round's exploration and the probe would time a dict lookup
    # instead of the grounding/join hot path it is meant to guard.
    clear_subproblem_caches()
    started = time.perf_counter()
    build_det_abstraction(dcds, 100000)
    return time.perf_counter() - started


def _probe_min(build, rounds=30, warmup=3):
    """Best-of-N: the min is far more stable than the mean for sub-ms
    probes (GC pauses and scheduler noise only ever add time)."""
    for _ in range(warmup):
        build()
    return min(build() for _ in range(rounds))


def _calibration() -> float:
    """A fixed pure-Python workload timing, independent of repro code.

    Gating compares wall times across machines; scaling the baseline by
    the calibration ratio turns the comparison into "slower *relative to
    this interpreter/host*", so a slower CI runner does not trip the gate
    and a faster one does not mask a regression.
    """
    import time

    def workload():
        total = 0
        for i in range(120000):
            total += hash((i, i % 7))
        return total

    workload()  # warmup
    best = None
    for _ in range(7):
        started = time.perf_counter()
        workload()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best


def _latest_baseline(repo_root):
    """Newest ``BENCH_*.json`` with a recorded ``hot_path_gate`` section.

    The section is written by ``--record`` with exactly the measurement
    methodology the gate replays, so the comparison is apples-to-apples.
    """
    import json
    from pathlib import Path

    candidates = sorted(Path(repo_root).glob("BENCH_*.json"), reverse=True)
    for path in candidates:
        record = json.loads(path.read_text())
        gate = record.get("hot_path_gate", {})
        if all(name in gate for name in GATE_PROBES):
            probes = {name: gate[name]["min_sec"]
                      for name in GATE_PROBES}
            return path, (probes, gate.get("calibration_sec"),
                          record.get("python"))
    return None, (None, None, None)


def main() -> int:
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(
        description="Hot-path regression gate: re-measure the "
                    "abstraction-build probes and fail if they regressed "
                    "more than --tolerance vs the baseline recorded in "
                    "the repo's newest BENCH_*.json.")
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds (CI smoke)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--record", action="store_true",
                        help="measure and write the hot_path_gate baseline "
                             "into the day's BENCH_<date>.json instead of "
                             "gating")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one cold round of each gate probe "
                             "and print the top 20 entries by cumulative "
                             "time instead of gating")
    args = parser.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    if args.profile:
        import cProfile
        import pstats

        for name, build in GATE_PROBES.items():
            build()  # warm imports and interning outside the profile
            profiler = cProfile.Profile()
            profiler.enable()
            build()  # _timed_build clears caches: this round is cold
            profiler.disable()
            print(f"\n=== {name}: top 20 by cumulative time ===")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        return 0
    if args.record:
        import datetime

        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from _record import write_bench_record

        section = {"calibration_sec": _calibration()}
        for name, build in GATE_PROBES.items():
            best = _probe_min(build, rounds=50)
            section[name] = {"min_sec": best}
            print(f"  {name}: {best * 1e3:.3f} ms")
        print(f"  calibration: {section['calibration_sec'] * 1e3:.3f} ms")
        write_bench_record(repo_root, {
            "date": datetime.date.today().isoformat(),
            "hot_path_gate": section,
        })
        return 0

    baseline_path, (baseline, recorded_calibration, recorded_python) = \
        _latest_baseline(repo_root)
    if not baseline:
        print("no BENCH_*.json with gate probes found; nothing to gate "
              "against (pass)")
        return 0
    import platform

    if recorded_python and recorded_python != platform.python_version():
        # The calibration loop and the hot path need not scale alike
        # across interpreter builds; a hard gate would then fail every
        # unrelated PR. Warn and re-record instead.
        print(f"baseline recorded on Python {recorded_python}, running "
              f"{platform.python_version()}: skipping the gate — "
              f"re-record with --record")
        return 0
    scale = 1.0
    if recorded_calibration:
        scale = _calibration() / recorded_calibration
    print(f"baseline: {baseline_path.name} (tolerance "
          f"{args.tolerance:.0%}, machine scale {scale:.2f}x)")

    rounds = 15 if args.quick else 30
    failures = []
    for name, build in GATE_PROBES.items():
        best = _probe_min(build, rounds=rounds)
        reference = baseline[name] * scale
        ratio = best / reference if reference else 0.0
        verdict = "ok" if ratio <= 1.0 + args.tolerance else "REGRESSED"
        print(f"  {name}: {best * 1e3:.3f} ms vs baseline "
              f"{reference * 1e3:.3f} ms ({ratio:.2f}x) {verdict}")
        if ratio > 1.0 + args.tolerance:
            failures.append(name)
    if failures:
        print(f"FAIL: {len(failures)} probe(s) regressed beyond "
              f"{args.tolerance:.0%}")
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
