"""The out-of-core storage layer (:mod:`repro.engine.store`).

Unit coverage for the pieces — framed records, the shared memory budget,
the budgeted LRU dict, the canonical state codec, the paged store, and
the store-backed transition system — plus end-to-end checks that
``verify(memory_budget=...)`` / ``explore_concrete(memory_budget=...)``
stay bit-identical to the in-RAM builds. The cross-tier sweep (workers,
checkpoints, kill switches on every differential case) lives in
``tests/test_differential.py``.
"""

from __future__ import annotations

import io

import pytest

from repro import verify
from repro.engine import (
    BudgetedDict, DetAbstractionGenerator, Explorer, MemoryBudget,
    PagedStore, StoredTransitionSystem, resolve_memory_budget)
from repro.engine import frames
from repro.engine.store import (
    DEFAULT_SHARES, ENFORCE_FRACTION, HOT_BYTES_FLOOR, StateCodec,
    approx_nbytes)
from repro.errors import ReproError, WireIntegrityError
from repro.mucalc import parse_mu
from repro.relational.kernel import clear_kernel_caches, kernel_for
from repro.relational.values import Fresh
from repro.semantics import build_det_abstraction, explore_concrete
from repro.workloads import conveyor_dcds, warehouse_dcds

TIGHT = 96 * 1024


def fingerprint(ts):
    """Order-insensitive bit-identity digest of a transition system."""
    return (ts.stats(),
            tuple(sorted(repr(state) for state in ts._db)),
            tuple(sorted((repr(a), label, repr(b))
                         for a in ts._edges for label, b in ts._edges[a])),
            tuple(sorted(repr(state) for state in ts.truncated_states)))


def kernel_or_skip(dcds):
    kernel = kernel_for(dcds)
    if kernel is None:
        pytest.skip("relational kernel disabled (REPRO_NO_KERNEL)")
    return kernel


# ---------------------------------------------------------------------------
# Framed records
# ---------------------------------------------------------------------------

class TestFrames:
    MESSAGE = ("d", ((1, (2, 3)), (4, ())), {"k": [5, 6]}, ["defs"])

    def test_round_trip(self):
        payload = frames.dumps(self.MESSAGE)
        assert frames.loads(payload) == self.MESSAGE

    def test_deterministic_for_equal_input(self):
        assert frames.dumps(self.MESSAGE) == frames.dumps(self.MESSAGE)

    def test_corrupted_body_is_structured(self):
        payload = bytearray(frames.dumps(self.MESSAGE))
        payload[-1] ^= 0xFF
        with pytest.raises(WireIntegrityError):
            frames.loads(bytes(payload))

    def test_truncated_frame(self):
        payload = frames.dumps(self.MESSAGE)
        with pytest.raises(WireIntegrityError):
            frames.loads(payload[:-3])
        with pytest.raises(WireIntegrityError):
            frames.loads(payload[:frames.FRAME_OVERHEAD - 1])

    def test_bad_magic(self):
        payload = frames.dumps(self.MESSAGE)
        with pytest.raises(WireIntegrityError):
            frames.loads(b"XX1" + payload[3:])

    def test_file_records_bounded_by_region(self):
        handle = io.BytesIO()
        written = frames.write_record(handle, self.MESSAGE)
        handle.seek(0)
        record, consumed = frames.read_record(handle, written)
        assert record == self.MESSAGE and consumed == written
        handle.seek(0)
        with pytest.raises(WireIntegrityError):
            frames.read_record(handle, written - 1)


# ---------------------------------------------------------------------------
# Budget accounting
# ---------------------------------------------------------------------------

class TestApproxNbytes:
    def test_scalar_floors(self):
        assert approx_nbytes(None) == 8
        assert approx_nbytes(7) == 32
        assert approx_nbytes(1.5) == 24

    def test_strings_and_bytes_scale_with_length(self):
        assert approx_nbytes("x" * 100) > approx_nbytes("x")
        assert approx_nbytes(b"x" * 100) > approx_nbytes(b"x")

    def test_containers_extrapolate(self):
        small = approx_nbytes(list(range(10)))
        large = approx_nbytes(list(range(1000)))
        assert large > 50 * small  # sampled, but proportional
        assert approx_nbytes({i: i for i in range(100)}) \
            > approx_nbytes({1: 1})


class TestMemoryBudget:
    def test_limits_follow_shares(self):
        # Shares divide the enforcement target (ENFORCE_FRACTION of the
        # stated cap) — the reserved headroom absorbs allocation slack
        # the structural estimator cannot see.
        budget = MemoryBudget(1000, shares={"a": 0.25, "b": 0.75})
        assert budget.enforce_total == int(1000 * ENFORCE_FRACTION)
        assert budget.limit("a") == int(budget.enforce_total * 0.25)
        assert budget.limit("b") == int(budget.enforce_total * 0.75)
        assert budget.limit("unknown") == 0

    def test_charge_release_over(self):
        budget = MemoryBudget(1000, shares={"a": 0.5})
        budget.charge("a", 400)
        assert not budget.over("a")
        budget.charge("a", 200)
        assert budget.over("a")
        budget.release("a", 300)
        assert not budget.over("a")

    def test_high_water_is_the_peak_of_the_sum(self):
        budget = MemoryBudget(1000, shares={"a": 0.5, "b": 0.5})
        budget.charge("a", 300)
        budget.charge("b", 500)
        budget.release("a", 300)
        budget.charge("a", 100)
        assert budget.high_water == 800

    def test_stats_dict(self):
        budget = MemoryBudget(1000, shares={"a": 1.0})
        budget.charge("a", 10)
        budget.note_eviction("a")
        stats = budget.stats_dict()
        assert stats["budget"] == 1000
        assert stats["charged"]["a"] == 10
        assert stats["evictions"]["a"] == 1
        assert stats["budget_high_water"] == 10


class TestBudgetedDict:
    def fresh(self, total=1000, cost=300):
        budget = MemoryBudget(total, shares={"m": 1.0})
        return budget, BudgetedDict(budget, "m",
                                    cost_fn=lambda key, value: cost)

    def test_mapping_contract(self):
        _, cache = self.fresh()
        cache["a"] = 1
        cache["b"] = 2
        assert cache["a"] == 1 and "b" in cache and len(cache) == 2
        assert sorted(cache) == ["a", "b"]
        del cache["a"]
        assert "a" not in cache and len(cache) == 1

    def test_sheds_least_recently_used(self):
        # limit = 800 (enforcement target of 1000); shedding happens
        # *before* the incoming entry is charged, so room for it is made
        # eagerly and the charged level never overshoots the target.
        budget, cache = self.fresh()
        for key in "abcd":
            cache[key] = key
        assert list(cache) == ["c", "d"]
        assert budget.evictions["m"] == 2
        assert budget.charged["m"] == 600
        assert budget.high_water <= budget.enforce_total

    def test_lookup_refreshes_recency(self):
        _, cache = self.fresh(cost=250)  # 3 x 250 fits the 800 target
        for key in "abc":
            cache[key] = key
        cache["a"]  # past half-pressure, so this refreshes recency
        cache["d"] = "d"  # ... and "b" is the eviction victim
        assert list(cache) == ["c", "a", "d"]

    def test_recency_gating_below_pressure(self):
        # Far under half the account's limit nothing is close to
        # evicting, so hits skip the LRU reorder (pure overhead there)
        # and insertion order stands.
        _, cache = self.fresh(total=100_000)
        for key in "abc":
            cache[key] = key
        cache["a"]
        assert list(cache) == ["a", "b", "c"]

    def test_never_sheds_below_one_entry(self):
        _, cache = self.fresh(total=10, cost=300)  # every entry is over
        cache["a"] = 1
        cache["b"] = 2
        cache["c"] = 3
        # Pre-shed keeps one survivor plus the incoming entry — the
        # cache never sheds itself empty.
        assert list(cache) == ["b", "c"]

    def test_overwrite_releases_the_old_charge(self):
        budget, cache = self.fresh()
        cache["a"] = 1
        cache["a"] = 2
        assert budget.charged["m"] == 300 and cache["a"] == 2

    def test_unwrap_returns_plain_dict_and_releases(self):
        budget, cache = self.fresh()
        cache["a"] = 1
        cache["b"] = 2
        found = cache.unwrap()
        assert found == {"a": 1, "b": 2} and type(found) is dict
        assert budget.charged["m"] == 0 and len(cache) == 0

    def test_seeded_from_existing_data(self):
        budget = MemoryBudget(10_000, shares={"m": 1.0})
        cache = BudgetedDict(budget, "m", data={"a": 1, "b": 2})
        assert dict(cache) == {"a": 1, "b": 2}
        assert budget.charged["m"] > 0


# ---------------------------------------------------------------------------
# The canonical state codec
# ---------------------------------------------------------------------------

def explored_states(dcds, max_states=200, max_depth=3):
    ts = Explorer(dcds.schema, max_states=max_states,
                  max_depth=max_depth).run(
        DetAbstractionGenerator(dcds)).transition_system
    return sorted(ts._db, key=repr)


class TestStateCodec:
    def test_round_trip_equality(self):
        dcds = conveyor_dcds(1)
        kernel = kernel_or_skip(dcds)
        codec = StateCodec(kernel, len(kernel.table))
        for state in explored_states(dcds):
            assert codec.decode_state(codec.encode_state(state)) == state

    def test_frames_are_canonical_across_independent_kernels(self):
        # Two builds of the same specification, each with its own kernel
        # whose term-table history differs from the other's — equal
        # states must still produce byte-identical frames, because the
        # paged store's digest dedup and the checkpoint adopt path *are*
        # state equality only under that guarantee.
        frames_by_build, kernels = [], []
        for unrelated in ((), ("unrelated-1", "unrelated-2")):
            dcds = conveyor_dcds(1)
            kernel = kernel_or_skip(dcds)
            kernels.append(kernel)
            for term in unrelated:
                kernel.table.code(term)
            codec = StateCodec(kernel, len(kernel.table))
            frames_by_build.append(
                [codec.encode_state(state)
                 for state in explored_states(dcds)])
        assert kernels[0] is not kernels[1]
        assert len(kernels[0].table) != len(kernels[1].table)
        assert frames_by_build[0] == frames_by_build[1]

    def test_post_snapshot_terms_ride_as_defs(self):
        dcds = conveyor_dcds(1)
        kernel = kernel_or_skip(dcds)
        codec = StateCodec(kernel, len(kernel.table))
        states = explored_states(dcds)
        decoded = [codec.decode_state(codec.encode_state(state))
                   for state in states]
        # A frozen-snapshot codec in a *fresh* process would resolve the
        # same defs; here we at least pin that every frame decodes
        # without consulting terms minted after the snapshot.
        assert decoded == states


# ---------------------------------------------------------------------------
# The paged store
# ---------------------------------------------------------------------------

class TestPagedStore:
    def build(self, page_bytes=None, shares=None):
        dcds = conveyor_dcds(1)
        kernel = kernel_or_skip(dcds)
        budget = MemoryBudget(TIGHT, shares=shares)
        kwargs = {} if page_bytes is None else {"page_bytes": page_bytes}
        return PagedStore(kernel, budget, **kwargs), \
            explored_states(dcds), budget

    def test_intern_dedup_and_fetch(self):
        store, states, _ = self.build()
        sids = {}
        for state in states:
            sid, is_new = store.intern(state)
            assert is_new and sid == len(sids)
            sids[sid] = state
        for state in states:
            sid, is_new = store.intern(state)
            assert not is_new and sids[sid] == state
        assert len(store) == len(states)
        assert store.dedup_checks == len(states)
        for sid, state in sids.items():
            assert store.fetch(sid) == state
            assert store.contains(state)

    def test_raw_frame_is_the_canonical_encoding(self):
        store, states, _ = self.build()
        for state in states[:5]:
            sid, _ = store.intern(state)
            assert store.raw_frame(sid) == store.codec.encode_state(state)

    def test_eviction_and_rehydration(self):
        # Shrink the hot share to a couple of entries so interning the
        # whole run must evict, and early fetches must rehydrate.
        # (Shares must be set at budget construction — the store caches
        # its hot limit.)
        shares = dict(DEFAULT_SHARES)
        shares["hot"] = HOT_BYTES_FLOOR * 2 / TIGHT
        store, states, budget = self.build(shares=shares)
        sids = [store.intern(state)[0] for state in states]
        assert budget.evictions["hot"] > 0
        assert store.hot_count() < len(states)
        before = store.rehydrations
        assert store.fetch(sids[0]) == states[0]
        assert store.rehydrations == before + 1

    def test_page_rotation(self):
        store, states, _ = self.build(page_bytes=256)
        for state in states:
            store.intern(state)
        # Frames are written lazily; pulling the raw bytes (what the
        # checkpoint layer does) forces every frame onto a page.
        for sid in range(len(store)):
            store.raw_frame(sid)
        stats = store.stats_dict()
        assert stats["pages_written"] > 1
        assert stats["bytes_written"] > 256
        assert stats["unflushed_states"] == 0
        # Reads from rotated (mmap) pages still return exact frames.
        for sid in range(len(store)):
            assert store.fetch(sid) == states[sid]

    def test_frames_write_lazily(self):
        """No eviction pressure, no checkpoint read => no page writes;
        budget pressure spills exactly the evicted states."""
        dcds = conveyor_dcds(1)
        kernel = kernel_or_skip(dcds)
        states = explored_states(dcds)
        ample = PagedStore(kernel, MemoryBudget(1 << 30))
        for state in states:
            ample.intern(state)
        stats = ample.stats_dict()
        assert stats["bytes_written"] == 0
        assert stats["unflushed_states"] == len(states)
        # raw_frame flushes on demand and returns the canonical frame.
        assert ample.raw_frame(0) == ample.codec.encode_state(states[0])
        assert ample.stats_dict()["unflushed_states"] == len(states) - 1

        shares = dict(DEFAULT_SHARES)
        shares["hot"] = HOT_BYTES_FLOOR * 2 / TIGHT
        tight = PagedStore(kernel, MemoryBudget(TIGHT, shares=shares))
        for state in states:
            tight.intern(state)
        stats = tight.stats_dict()
        assert stats["bytes_written"] > 0
        assert stats["unflushed_states"] == stats["hot_states"]

    def test_adopt_frame_round_trip(self):
        store, states, _ = self.build()
        frames_in = [store.codec.encode_state(state) for state in states]
        for position, frame in enumerate(frames_in):
            sid, is_new = store.adopt_frame(frame)
            assert is_new and sid == position
        assert store.adopt_frame(frames_in[0]) == (0, False)
        for position, state in enumerate(states):
            assert store.fetch(position) == state

    def test_rebase_snapshot_guard(self):
        store, states, _ = self.build()
        store.rebase_snapshot(store.codec.snapshot_size)  # empty: fine
        store.intern(states[0])
        with pytest.raises(ReproError):
            store.rebase_snapshot(1)

    def test_stats_dict_shape(self):
        store, states, _ = self.build()
        store.intern(states[0])
        stats = store.stats_dict()
        for key in ("backend", "states", "pages_written", "bytes_written",
                    "page_reads", "bytes_read", "rehydrations",
                    "dedup_checks", "hot_states", "frontier_cold_peak",
                    "budget", "budget_high_water", "charged", "evictions"):
            assert key in stats, key
        assert stats["backend"] == "paged" and stats["states"] == 1


# ---------------------------------------------------------------------------
# resolve_memory_budget
# ---------------------------------------------------------------------------

class TestResolveMemoryBudget:
    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1m")
        assert resolve_memory_budget(2048) == 2048

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "64k")
        assert resolve_memory_budget(None) == 64 << 10
        monkeypatch.delenv("REPRO_MEMORY_BUDGET")
        assert resolve_memory_budget(None) is None

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_raises(self, bad):
        with pytest.raises(ReproError):
            resolve_memory_budget(bad)


class TestKernelMemoBudget:
    def test_attach_detach_idempotent(self):
        dcds = conveyor_dcds(1)
        kernel = kernel_or_skip(dcds)
        budget = MemoryBudget(TIGHT)
        try:
            kernel.attach_memo_budget(budget)
            assert isinstance(kernel._eval_memo, BudgetedDict)
            kernel.attach_memo_budget(budget)  # re-attach: still wrapped
            assert isinstance(kernel._eval_memo, BudgetedDict)
        finally:
            kernel.detach_memo_budget()
        assert type(kernel._eval_memo) is dict
        kernel.detach_memo_budget()  # second detach is a no-op
        assert type(kernel._eval_memo) is dict

    def test_detached_kernel_still_explores_identically(self):
        dcds = conveyor_dcds(1)
        kernel = kernel_or_skip(dcds)
        baseline = explored_states(dcds)
        kernel.attach_memo_budget(MemoryBudget(TIGHT))
        try:
            budgeted = explored_states(dcds)
        finally:
            kernel.detach_memo_budget()
        after = explored_states(dcds)
        reprs = [repr(state) for state in baseline]
        assert [repr(state) for state in budgeted] == reprs
        assert [repr(state) for state in after] == reprs


    @pytest.mark.parametrize("factory, budget", [
        (lambda: warehouse_dcds(1, payload=40), 64 << 10),
        (lambda: conveyor_dcds(2), TIGHT),
    ], ids=["warehouse-1-payload-40", "conveyor-2"])
    def test_budget_keeps_warmed_grounding(self, factory, budget,
                                           monkeypatch):
        """Grounding results warmed for a frontier block ride the states'
        instances, so no budget evicts them before expansion reads them:
        the budgeted build evaluates exactly as often as the plain one."""
        kernel_or_skip(factory())
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        counts = []
        for memory_budget in (None, budget):
            clear_kernel_caches()
            ts = build_det_abstraction(factory(),
                                       memory_budget=memory_budget)
            assert bool(ts.exploration_stats.get("store")) \
                == (memory_budget is not None)
            kernel = ts.exploration_stats["kernel"]
            counts.append((kernel["legal_evals"], kernel["effect_evals"]))
        assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# The store-backed transition system
# ---------------------------------------------------------------------------

class TestStoredTransitionSystem:
    def builds(self):
        dcds = conveyor_dcds(1)
        kernel_or_skip(dcds)
        baseline = Explorer(dcds.schema, max_depth=3).run(
            DetAbstractionGenerator(dcds)).transition_system
        budgeted = Explorer(dcds.schema, max_depth=3,
                            memory_budget=TIGHT).run(
            DetAbstractionGenerator(dcds)).transition_system
        assert isinstance(budgeted, StoredTransitionSystem)
        return baseline, budgeted

    def test_id_level_accessors_answer_without_materializing(self):
        baseline, budgeted = self.builds()
        assert not budgeted.materialized
        assert len(budgeted) == len(baseline)
        assert budgeted.edge_count() == baseline.edge_count()
        assert budgeted.is_total() == baseline.is_total()
        assert budgeted.values() == baseline.values()
        assert budgeted.max_state_size() == baseline.max_state_size()
        assert budgeted.stats_truncated() == len(baseline.truncated_states)
        assert budgeted.stats() == baseline.stats()
        some_state = budgeted.fetch(0)
        assert some_state in budgeted
        assert budgeted.db(some_state) == baseline.db(some_state)
        assert not budgeted.materialized  # none of the above inflated it

    def test_materialization_is_bit_identical(self):
        baseline, budgeted = self.builds()
        assert not budgeted.materialized
        assert fingerprint(budgeted) == fingerprint(baseline)  # touches _db
        assert budgeted.materialized
        assert budgeted.stats() == baseline.stats()  # object-level path now


# ---------------------------------------------------------------------------
# End-to-end: the public APIs under a budget
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_verify_under_budget_matches_unbudgeted(self, ex41):
        kernel_or_skip(ex41)
        formula = parse_mu("mu Z. (R('a') | <-> Z)")
        baseline = verify(ex41, formula)
        budgeted = verify(ex41, formula, memory_budget=TIGHT)
        assert budgeted.holds == baseline.holds
        store_stats = budgeted.abstraction_stats.get("store")
        assert store_stats and store_stats["backend"] == "paged"
        assert budgeted.abstraction_stats["states"] \
            == baseline.abstraction_stats["states"]
        assert budgeted.abstraction_stats["edges"] \
            == baseline.abstraction_stats["edges"]

    def test_verify_keep_ts_false_reads_stats_without_materializing(
            self, ex41):
        kernel_or_skip(ex41)
        formula = parse_mu("mu Z. (R('a') | <-> Z)")
        report = verify(ex41, formula, memory_budget=TIGHT, keep_ts=False)
        assert report.transition_system is None
        assert report.holds is True
        assert report.abstraction_stats.get("store")

    def test_verify_on_the_fly_under_budget(self, ex41):
        kernel_or_skip(ex41)
        formula = parse_mu("mu Z. (R('a') | <-> Z)")
        offline = verify(ex41, formula)
        fused = verify(ex41, formula, on_the_fly=True, memory_budget=TIGHT)
        assert fused.holds == offline.holds

    def test_build_det_abstraction_under_budget(self, ex41):
        kernel_or_skip(ex41)
        baseline = build_det_abstraction(ex41)
        budgeted = build_det_abstraction(ex41, memory_budget=TIGHT)
        assert budgeted.exploration_stats.get("store")
        assert fingerprint(budgeted) == fingerprint(baseline)

    def test_explore_concrete_under_budget(self, ex41):
        kernel_or_skip(ex41)
        pool = ["a", Fresh(30), Fresh(31)]
        baseline = explore_concrete(ex41, pool, depth=2)
        budgeted = explore_concrete(ex41, pool, depth=2,
                                    memory_budget=TIGHT)
        assert fingerprint(budgeted) == fingerprint(baseline)
