#!/usr/bin/env python
"""Out-of-core store bench: peak-memory-vs-budget and ample-budget overhead.

Three probe families, recorded under ``store_probes`` in the day's
``BENCH_<date>.json`` (section-level merge, same convention as
``run_all.py``):

* **spill** — the over-RAM demonstration: ``warehouse_dcds(3)`` (6561
  states carrying a payload catalog) built in RAM and under an explicit
  ``memory_budget`` whose total stored state bytes *exceed* the budget.
  Records traced (tracemalloc) and RSS (VmHWM) peaks for both builds,
  the store's own counters, and a canonical-frame digest comparison
  proving the budgeted build is bit-identical to the in-RAM one. A
  small fixed-floor control (same spec, same budget, tiny state cap)
  separates the storage-attributable peak from the interpreter/kernel/
  catalog floor that exists at any budget.

* **scaling** — the point of the feature: the in-RAM peak grows with
  the state count while the budgeted peak stays near-flat
  (``warehouse[2]`` vs ``warehouse[3]``).

* **ample_overhead** — the existing hot-path gate configs
  (``bench_complexity_scaling.GATE_PROBES``) built with an ample
  (1 GiB) budget vs unbudgeted, best-of-N without tracing. The target
  is <10% overhead; fixed per-state encoding costs are reported
  honestly where they dominate.

Usage::

    python benchmarks/bench_store.py            # full -> BENCH json
    python benchmarks/bench_store.py --quick    # CI smoke, no JSON write
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

AMPLE_BUDGET = 1 << 30
OVERHEAD_TARGET_PCT = 10.0
FIXED_COST_FLOOR_SEC = 0.05


# ---------------------------------------------------------------------------
# Peak-memory instrumentation
# ---------------------------------------------------------------------------

def _reset_rss_hwm() -> bool:
    """Reset the kernel's per-process peak-RSS counter (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _rss_hwm():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Builds
# ---------------------------------------------------------------------------

def _fresh(factory):
    from repro.core.execution import clear_subproblem_caches

    clear_subproblem_caches()
    return factory()


def timed_build(factory, budget=None, max_states=100_000, trace=False):
    """One cold build; returns ``(ts, codec, metrics)``.

    The codec is snapshotted *before* exploring (the same anchor the
    paged store uses), so canonical frames encoded through it are
    comparable byte-for-byte across independent builds — including the
    budgeted build's own pages.
    """
    from repro.engine import DetAbstractionGenerator, Explorer
    from repro.engine.store import StateCodec
    from repro.relational.kernel import kernel_for

    dcds = _fresh(factory)
    kernel = kernel_for(dcds)
    codec = StateCodec(kernel, len(kernel.table)) if kernel else None
    rss_ok = _reset_rss_hwm()
    if trace:
        tracemalloc.start()
    started = time.perf_counter()
    ts = Explorer(dcds.schema, max_states=max_states,
                  on_budget="truncate", memory_budget=budget).run(
        DetAbstractionGenerator(dcds)).transition_system
    sec = time.perf_counter() - started
    metrics = {"sec": sec, "states": len(ts)}
    if trace:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        metrics["traced_peak_bytes"] = peak
    if rss_ok:
        metrics["rss_hwm_bytes"] = _rss_hwm()
    metrics["store"] = ts.exploration_stats.get("store")
    metrics["kernel"] = kernel.stats_dict() if kernel else None
    return ts, codec, metrics


def canonical_digests(ts, codec):
    """Order-insensitive digest multiset of the build's states.

    A budgeted build answers straight from its pages (no
    materialization); a plain build encodes its live states through the
    pre-exploration codec. Equality of the two multisets is equality of
    the state sets, frame by canonical frame.
    """
    from repro.engine import StoredTransitionSystem

    if isinstance(ts, StoredTransitionSystem) and not ts.materialized:
        store = ts.store
        frames = (store.raw_frame(sid) for sid in range(len(store)))
    else:
        frames = (codec.encode_state(state) for state in ts._db)
    return sorted(
        hashlib.blake2b(frame, digest_size=16).hexdigest()
        for frame in frames)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def spill_probe(factory, config_name, budget, floor_states=256):
    print(f"spill probe: {config_name} budget={budget >> 20}MiB")
    plain_ts, plain_codec, plain = timed_build(factory, trace=True)
    plain_digests = canonical_digests(plain_ts, plain_codec)
    plain_stats = plain_ts.stats()
    del plain_ts  # release the in-RAM build before the budgeted one,
    # so its RSS high-water mark is its own
    budgeted_ts, _, budgeted = timed_build(factory, budget=budget,
                                           trace=True)
    store = budgeted["store"]
    assert store, "budget did not engage the paged store"
    # The digest sweep reads every raw frame, flushing any state that
    # was still hot (frames write lazily) — after it, bytes_written is
    # the total stored size of the state space.
    identical = plain_digests == canonical_digests(budgeted_ts, None)
    stored_bytes = budgeted_ts.store.stats_dict()["bytes_written"]
    structure_identical = (
        plain_stats["states"] == budgeted_ts.stats()["states"]
        and plain_stats["edges"] == budgeted_ts.stats()["edges"])
    del budgeted_ts

    # The fixed floor: same spec, same budget, state growth capped — the
    # interpreter/kernel/catalog/transient-expansion footprint that
    # exists at any budget and is not storage-managed.
    _, _, floor = timed_build(factory, budget=budget,
                              max_states=floor_states, trace=True)
    storage_peak = budgeted["traced_peak_bytes"] \
        - floor["traced_peak_bytes"]
    entry = {
        "config": config_name,
        "states": budgeted["states"],
        "memory_budget_bytes": budget,
        "stored_bytes_written": stored_bytes,
        "stored_exceeds_budget": stored_bytes > budget,
        "bit_identical_to_unbudgeted": identical and structure_identical,
        "plain_traced_peak_bytes": plain["traced_peak_bytes"],
        "budgeted_traced_peak_bytes": budgeted["traced_peak_bytes"],
        "peak_reduction_factor": plain["traced_peak_bytes"]
        / budgeted["traced_peak_bytes"],
        "plain_rss_hwm_bytes": plain.get("rss_hwm_bytes"),
        "budgeted_rss_hwm_bytes": budgeted.get("rss_hwm_bytes"),
        "fixed_floor_traced_bytes": floor["traced_peak_bytes"],
        "storage_peak_bytes": storage_peak,
        "storage_peak_within_budget": storage_peak <= budget,
        "index_resident_bytes": store["charged"]["index"],
        "evictable_charged_within_target":
            store["budget_high_water"] - store["charged"]["index"]
            <= store["budget_enforce_target"],
        "plain_sec": plain["sec"],
        "budgeted_sec": budgeted["sec"],
        "slowdown_factor": budgeted["sec"] / plain["sec"],
        "store_stats": store,
        "note": (
            "Both sides timed with tracemalloc active (equal tracing "
            "overhead; the slowdown factor is the honest price of memo "
            "eviction + page round-trips under the budget). The fixed "
            "floor is a same-budget build capped at "
            f"{floor_states} states: interpreter, kernel tables, the "
            "live payload catalog, and per-expansion transients — "
            "memory that exists at any budget and is not what the "
            "store manages. storage_peak_bytes = budgeted peak minus "
            "that floor: the state-volume-dependent part the budget "
            "actually bounds. The budget enforces its *evictable* "
            "charge (hot states, memos, interner) against "
            "ENFORCE_FRACTION of the stated cap — "
            "evictable_charged_within_target pins that contract; the "
            "reserved headroom absorbs what the structural estimator "
            "cannot see (container overallocation, transient "
            "encode/decode buffers). The index account "
            "(index_resident_bytes: fingerprints, page refs, the hash "
            "map, edge arrays) is the addressable result itself — "
            "charged honestly, never evictable, and at a budget this "
            "deliberately small it exceeds the target on its own, "
            "squeezing the caches to their floors. What the budget "
            "bounds is what is boundable — the traced peak shows the "
            "outcome."),
    }
    print(f"  {entry['states']} states, stored "
          f"{stored_bytes / 1e6:.2f} MB vs budget "
          f"{budget / 1e6:.2f} MB, plain peak "
          f"{plain['traced_peak_bytes'] / 1e6:.1f} MB -> budgeted peak "
          f"{budgeted['traced_peak_bytes'] / 1e6:.1f} MB "
          f"({entry['peak_reduction_factor']:.0f}x), bit-identical: "
          f"{entry['bit_identical_to_unbudgeted']}")
    return entry


def scaling_probe(small_factory, small_name, small_budget, spill_entry):
    print(f"scaling probe: {small_name}")
    plain_ts, _, plain = timed_build(small_factory, trace=True)
    del plain_ts
    budgeted_ts, _, budgeted = timed_build(small_factory,
                                           budget=small_budget, trace=True)
    del budgeted_ts
    plain_growth = spill_entry["plain_traced_peak_bytes"] \
        / plain["traced_peak_bytes"]
    budgeted_growth = spill_entry["budgeted_traced_peak_bytes"] \
        / budgeted["traced_peak_bytes"]
    entry = {
        "small_config": small_name,
        "large_config": spill_entry["config"],
        "state_growth_factor": spill_entry["states"] / plain["states"],
        "plain_peak_small_bytes": plain["traced_peak_bytes"],
        "plain_peak_large_bytes": spill_entry["plain_traced_peak_bytes"],
        "plain_peak_growth_factor": plain_growth,
        "budgeted_peak_small_bytes": budgeted["traced_peak_bytes"],
        "budgeted_peak_large_bytes":
            spill_entry["budgeted_traced_peak_bytes"],
        "budgeted_peak_growth_factor": budgeted_growth,
        "note": (
            "The scaling lever: across a "
            f"{spill_entry['states'] / plain['states']:.0f}x state-count "
            "growth the in-RAM peak grows with the state space while "
            "the budgeted peak is bounded by budget + fixed floor."),
    }
    print(f"  plain peak grows {plain_growth:.1f}x, budgeted peak grows "
          f"{budgeted_growth:.1f}x over a "
          f"{entry['state_growth_factor']:.0f}x state-count growth")
    return entry


def ample_overhead_probe(repeats=5):
    """The hot-path gate configs with an ample budget vs unbudgeted."""
    from repro.workloads import (
        chain_dcds, commitment_blowup_dcds, conveyor_dcds, lattice_dcds)

    gate_configs = {
        "abstraction-blowup[3]": lambda: commitment_blowup_dcds(3),
        "chain[3]": lambda: chain_dcds(3),
        "conveyor[2]": lambda: conveyor_dcds(2),
        "lattice[3]": lambda: lattice_dcds(3),
    }
    results = {}
    worst = None
    for name, factory in gate_configs.items():
        timed_build(factory)  # warmup (imports, interned schema parts)
        plain_sec = min(
            timed_build(factory)[2]["sec"] for _ in range(repeats))
        ample_sec = min(
            timed_build(factory, budget=AMPLE_BUDGET)[2]["sec"]
            for _ in range(repeats))
        overhead_pct = (ample_sec / plain_sec - 1.0) * 100.0
        fixed_cost_dominated = plain_sec < FIXED_COST_FLOOR_SEC
        results[name] = {
            "plain_sec": plain_sec,
            "ample_budget_sec": ample_sec,
            "overhead_pct": overhead_pct,
            "fixed_cost_dominated": fixed_cost_dominated,
        }
        if not fixed_cost_dominated:
            worst = overhead_pct if worst is None \
                else max(worst, overhead_pct)
        print(f"  {name}: {plain_sec:.3f}s -> {ample_sec:.3f}s "
              f"({overhead_pct:+.1f}%)"
              + (" [fixed-cost dominated]" if fixed_cost_dominated
                 else ""))
    return {
        "ample_budget_bytes": AMPLE_BUDGET,
        "repeats_best_of": repeats,
        "configs": results,
        "max_overhead_pct": worst,
        "target_pct": OVERHEAD_TARGET_PCT,
        "meets_target": worst is not None
        and worst < OVERHEAD_TARGET_PCT,
        "note": (
            "Best-of-N cold-cache builds, no tracing. With an ample "
            "budget nothing evicts, nothing rehydrates, and frames "
            "write lazily, so nothing is encoded either — the residual "
            "cost is hash-map dedup bookkeeping plus sampled budget "
            "accounting on memo inserts. The target applies to configs "
            f"building in >= {FIXED_COST_FLOOR_SEC * 1000:.0f} ms; "
            "faster ones pay a fixed ~1-2 ms for store setup, memo "
            "wrap/unwrap, and the page directory, which dominates "
            "their ratio and is flagged fixed_cost_dominated (same "
            "convention as bench_faults' checkpoint overhead)."),
    }


# ---------------------------------------------------------------------------
# Quick smoke (CI)
# ---------------------------------------------------------------------------

def quick_smoke():
    from repro.relational.kernel import clear_kernel_caches
    from repro.workloads import conveyor_dcds

    factory = lambda: conveyor_dcds(2)  # noqa: E731
    budget = 512 << 10
    # Both builds start from an empty kernel, so their grounding counters
    # (cumulative per kernel) compare one build with the other.
    clear_kernel_caches()
    plain_ts, plain_codec, plain = timed_build(factory, trace=True)
    clear_kernel_caches()
    budgeted_ts, _, budgeted = timed_build(factory, budget=budget,
                                           trace=True)
    store = budgeted["store"]
    assert store and store["backend"] == "paged", \
        "budget did not engage the paged store"
    assert store["bytes_written"] > 0
    assert canonical_digests(plain_ts, plain_codec) \
        == canonical_digests(budgeted_ts, None), \
        "budgeted build is not bit-identical to the in-RAM build"
    # Counters, not timings: grounding warmed for a frontier block must
    # survive the budget until the block is expanded, so the budgeted
    # build evaluates rules and effects exactly as often as the plain one.
    grounding = {}
    for key in ("legal_evals", "effect_evals"):
        grounding[key] = budgeted["kernel"][key]
        assert grounding[key] == plain["kernel"][key], \
            f"budgeted build re-evaluated: {key} " \
            f"{grounding[key]} vs {plain['kernel'][key]}"
    # Heap: a plain build keeps only what checking needs (each state's
    # coded form is released once expanded), so it stays within 2x of the
    # budgeted build's traced peak instead of growing with every state's
    # join caches.
    plain_peak = plain["traced_peak_bytes"]
    budgeted_peak = budgeted["traced_peak_bytes"]
    assert plain_peak <= 2 * budgeted_peak, \
        f"plain build's traced peak {plain_peak} B exceeds 2x the " \
        f"budgeted build's {budgeted_peak} B"
    print(json.dumps({
        "config": "conveyor[2]",
        "states": budgeted["states"],
        "memory_budget_bytes": budget,
        "stored_bytes_written": store["bytes_written"],
        "rehydrations": store["rehydrations"],
        "evictions": store["evictions"],
        "plain_sec": plain["sec"],
        "budgeted_sec": budgeted["sec"],
        "slowdown_factor": budgeted["sec"] / plain["sec"],
        "plain_traced_peak_bytes": plain_peak,
        "budgeted_traced_peak_bytes": budgeted_peak,
        **grounding,
        "bit_identical": True,
    }, indent=2))
    print("quick mode: smoke only, BENCH json not written")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small config smoke, no BENCH json (CI)")
    parser.add_argument("--budget", type=int, default=3 << 20,
                        help="spill-probe budget in bytes "
                             "(default 3 MiB)")
    parser.add_argument("--out", default=str(REPO_ROOT),
                        help="directory for the BENCH_<date>.json record")
    args = parser.parse_args()

    if args.quick:
        quick_smoke()
        return

    from repro.workloads import warehouse_dcds

    spill = spill_probe(lambda: warehouse_dcds(3), "warehouse[3]",
                        args.budget)
    scaling = scaling_probe(lambda: warehouse_dcds(2), "warehouse[2]",
                            2 << 20, spill)
    print("ample-budget overhead on the hot-path gate configs:")
    ample = ample_overhead_probe()

    record_section = {
        "spill": {spill["config"]: spill},
        "scaling": scaling,
        "ample_overhead": ample,
    }
    from _record import write_bench_record

    date = datetime.date.today().isoformat()
    write_bench_record(
        args.out, {"date": date, "store_probes": record_section})


if __name__ == "__main__":
    main()
