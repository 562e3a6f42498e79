"""Unit tests for the parallel sharded exploration engine.

The systematic randomized parity sweep lives in ``test_differential.py``;
here we pin the machinery itself: picklability of the relational layer
(with per-process cached hashes dropped), the parallel-safety gate, the
budget semantics firing mid-batch and exactly on a batch boundary, the
observer early-stop path, and the ``spawn`` start method (whose workers
get a *different* ``PYTHONHASHSEED`` — the acid test for stable
cross-process hashing).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import ServiceSemantics
from repro.engine import (
    DetAbstractionGenerator, Explorer, ParallelExplorer, PoolNondetGenerator,
    RcyclGenerator)
from repro.errors import AbstractionDiverged, ReproError
from repro.gallery import example_41, student_registry
from repro.relational.instance import Instance, fact
from repro.relational.values import Fresh, ServiceCall
from repro.engine.generators import DetState, sorted_call_map
from repro.semantics import build_det_abstraction, explore_concrete
from repro.workloads import commitment_blowup_dcds


# The full Counter-based build comparison (edge *multiset*, not just the
# edge set + count, which could not detect swapped multiplicities).
from test_differential import assert_isomorphic_builds as assert_bit_identical


# ---------------------------------------------------------------------------
# Cross-process pickling
# ---------------------------------------------------------------------------

class TestPickling:
    def test_service_call_roundtrip_drops_cached_hash(self):
        call = ServiceCall("f", ("a", 1))
        hash(call), repr(call)  # populate caches
        blob = pickle.dumps(call, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_hash" not in blob
        back = pickle.loads(blob)
        assert back == call and hash(back) == hash(call)

    def test_fact_roundtrip_drops_cached_hash(self):
        current = fact("R", "a", ServiceCall("f", ("a",)))
        hash(current), current.sort_key()
        blob = pickle.dumps(current, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_hash" not in blob and b"_sort_key" not in blob
        back = pickle.loads(blob)
        assert back == current and hash(back) == hash(current)

    def test_instance_roundtrip_drops_lazy_views(self):
        instance = Instance.of(fact("R", "a", 1), fact("S", "b"))
        hash(instance), instance.active_domain(), instance.index("R", 0)
        blob = pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_adom" not in blob and b"_indexes" not in blob
        back = pickle.loads(blob)
        assert back == instance and hash(back) == hash(instance)
        assert back.active_domain() == instance.active_domain()

    def test_det_state_roundtrip(self):
        instance = Instance.of(fact("R", "a"))
        state = DetState(
            instance, sorted_call_map({ServiceCall("f", ("a",)): Fresh(0)}))
        hash(state)
        back = pickle.loads(pickle.dumps(state))
        assert back == state and hash(back) == hash(state)
        assert back.map_dict() == state.map_dict()

    def test_fingerprint_survives_roundtrip(self):
        from repro.engine import instance_fingerprint
        instance = Instance.of(fact("R", "a", 1))
        fingerprint = instance_fingerprint(instance, frozenset(["a"]))
        back = pickle.loads(pickle.dumps(instance))
        assert instance_fingerprint(back, frozenset(["a"])) == fingerprint

    def test_generator_configs_picklable(self):
        dcds = example_41()
        for generator in (DetAbstractionGenerator(dcds),
                          PoolNondetGenerator(dcds, ["a", Fresh(5)])):
            back = pickle.loads(pickle.dumps(generator))
            assert type(back) is type(generator)


# ---------------------------------------------------------------------------
# Parallel-safety gate and parameter validation
# ---------------------------------------------------------------------------

class TestGate:
    def test_rcycl_generator_rejected(self):
        dcds = example_41(ServiceSemantics.NONDETERMINISTIC)
        explorer = ParallelExplorer(dcds.schema, workers=2)
        with pytest.raises(ReproError, match="not parallel-safe"):
            explorer.run(RcyclGenerator(dcds))

    def test_invalid_workers(self):
        with pytest.raises(ReproError, match="workers"):
            ParallelExplorer(example_41().schema, workers=0)

    def test_invalid_batch_size(self):
        with pytest.raises(ReproError, match="batch_size"):
            ParallelExplorer(example_41().schema, batch_size=0)

    def test_parallel_stats_recorded(self):
        dcds = example_41()
        ts = build_det_abstraction(dcds, workers=2, batch_size=2)
        parallel = ts.exploration_stats["parallel"]
        assert parallel["workers"] == 2
        assert parallel["batch_size"] == 2
        assert parallel["batches"] >= 1


# ---------------------------------------------------------------------------
# Budget semantics mid-batch (truncate / raise / exact boundary)
# ---------------------------------------------------------------------------

def per_state(monkeypatch, explorer, generator):
    """``explorer.run(generator)`` on the per-state reference driver.

    A plain ``Explorer`` over a pure generator runs the same block loop as
    ``ParallelExplorer``; ``REPRO_NO_BATCH`` keeps the reference side of
    these comparisons independent of it.
    """
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_BATCH", "1")
        return explorer.run(generator)


class TestBudgets:
    def test_truncate_mid_batch_no_leaked_states(self, monkeypatch):
        """A worker's speculative results must not leak past the budget."""
        dcds = commitment_blowup_dcds(4)  # 53 states when unconstrained
        for budget in (5, 10, 25):
            sequential = per_state(monkeypatch, Explorer(
                dcds.schema, max_states=budget, on_budget="truncate"
            ), DetAbstractionGenerator(dcds)).transition_system
            parallel = ParallelExplorer(
                dcds.schema, max_states=budget, on_budget="truncate",
                workers=2, batch_size=4,
            ).run(DetAbstractionGenerator(dcds)).transition_system
            assert_bit_identical(sequential, parallel)
            assert len(parallel) == budget + 1  # seed convention: trip on >
            assert parallel.exploration_stats["diverged"] is True

    def test_truncate_budget_sweep_covers_batch_boundaries(self, monkeypatch):
        """Every (budget, batch_size) alignment, incl. exact boundaries."""
        dcds = student_registry()
        pool = ["idle", Fresh(70)]
        total = len(explore_concrete(dcds, pool, depth=3))
        for batch_size in (1, 2, 4):
            for budget in range(1, total + 1, 2):
                sequential = per_state(monkeypatch, Explorer(
                    dcds.schema, max_states=budget, max_depth=3,
                    on_budget="truncate",
                ), PoolNondetGenerator(dcds, pool)).transition_system
                parallel = ParallelExplorer(
                    dcds.schema, max_states=budget, max_depth=3,
                    on_budget="truncate", workers=2, batch_size=batch_size,
                ).run(PoolNondetGenerator(dcds, pool)).transition_system
                assert_bit_identical(sequential, parallel)

    def test_budget_exactly_on_batch_boundary(self, monkeypatch):
        """Trip on the last successor applied from a full batch."""
        dcds = commitment_blowup_dcds(4)
        # Level 1 holds 52 successors of the initial state; batch_size 13
        # makes budgets 13/26/39 land exactly on batch boundaries of the
        # follow-up level-1 expansions.
        for budget in (13, 26, 39):
            sequential = per_state(monkeypatch, Explorer(
                dcds.schema, max_states=budget, on_budget="truncate"
            ), DetAbstractionGenerator(dcds)).transition_system
            parallel = ParallelExplorer(
                dcds.schema, max_states=budget, on_budget="truncate",
                workers=4, batch_size=13,
            ).run(DetAbstractionGenerator(dcds)).transition_system
            assert_bit_identical(sequential, parallel)

    def test_speculative_discard_counted_without_leaking(self, monkeypatch):
        """In-flight batches discarded on a budget trip are counted, and
        none of their states leak into the transition system."""
        dcds = student_registry()
        pool = ["idle", Fresh(70), Fresh(71)]
        sequential = per_state(monkeypatch, Explorer(
            dcds.schema, max_states=5, max_depth=4, on_budget="truncate"
        ), PoolNondetGenerator(dcds, pool)).transition_system
        parallel = ParallelExplorer(
            dcds.schema, max_states=5, max_depth=4, on_budget="truncate",
            workers=2, batch_size=1,
        ).run(PoolNondetGenerator(dcds, pool)).transition_system
        assert_bit_identical(sequential, parallel)
        discarded = parallel.exploration_stats["parallel"][
            "speculative_states_discarded"]
        assert discarded > 0

    def test_raise_mid_batch_matches_sequential_partial(self, monkeypatch):
        dcds = commitment_blowup_dcds(4)
        with pytest.raises(AbstractionDiverged) as sequential_error:
            per_state(monkeypatch, Explorer(
                dcds.schema, max_states=10, on_budget="raise"
            ), DetAbstractionGenerator(dcds))
        with pytest.raises(AbstractionDiverged) as parallel_error:
            ParallelExplorer(
                dcds.schema, max_states=10, on_budget="raise",
                workers=2, batch_size=3,
            ).run(DetAbstractionGenerator(dcds))
        assert parallel_error.value.partial_states \
            == sequential_error.value.partial_states

    def test_builder_raise_path(self):
        dcds = commitment_blowup_dcds(4)
        with pytest.raises(AbstractionDiverged):
            build_det_abstraction(dcds, max_states=10, workers=2)


# ---------------------------------------------------------------------------
# Observer early stop
# ---------------------------------------------------------------------------

class TestObserver:
    def test_early_stop_parity(self, monkeypatch):
        dcds = example_41()

        def make_observer():
            seen = []

            def observer(state, instance):
                seen.append(state)
                return "enough" if len(seen) >= 4 else None
            return observer

        sequential = per_state(monkeypatch, Explorer(
            dcds.schema, observer=make_observer()
        ), DetAbstractionGenerator(dcds)).transition_system
        parallel = ParallelExplorer(
            dcds.schema, observer=make_observer(), workers=2, batch_size=2,
        ).run(DetAbstractionGenerator(dcds)).transition_system
        assert_bit_identical(sequential, parallel)
        assert parallel.exploration_stats["early_stop"] == "enough"

    def test_observer_stop_on_initial(self, monkeypatch):
        dcds = example_41()
        sequential = per_state(monkeypatch, Explorer(
            dcds.schema, observer=lambda s, i: "now"
        ), DetAbstractionGenerator(dcds)).transition_system
        parallel = ParallelExplorer(
            dcds.schema, observer=lambda s, i: "now", workers=2,
        ).run(DetAbstractionGenerator(dcds)).transition_system
        assert_bit_identical(sequential, parallel)
        assert len(parallel) == 1


# ---------------------------------------------------------------------------
# Start methods
# ---------------------------------------------------------------------------

class TestStartMethods:
    def test_spawn_workers_differ_in_hash_seed_yet_agree(self):
        """``spawn`` children get fresh PYTHONHASHSEEDs: if any cached hash
        crossed the boundary, dedup in the coordinator would corrupt."""
        import multiprocessing
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        dcds = example_41()
        sequential = build_det_abstraction(dcds)
        parallel = build_det_abstraction(dcds, workers=2, batch_size=2)
        assert_bit_identical(sequential, parallel)
        spawned = ParallelExplorer(
            dcds.schema, name=sequential.name, max_states=20000,
            workers=2, batch_size=2, start_method="spawn",
        ).run(DetAbstractionGenerator(dcds)).transition_system
        assert_bit_identical(sequential, spawned)
