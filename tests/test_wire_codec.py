"""Property-based tests of the compact wire codec (engine/wire.py).

``random_dcds`` instances round-trip through the codec between *distinct*
kernels (emulating the coordinator/worker process split in-process), the
token protocol replays identically on both ends, and parallel builds over
the codec stay bit-identical to sequential ones under both ``fork`` and
``spawn`` at workers 1/2/4 — with the IPC counters recorded in the
exploration stats. ``workers=1`` short-circuits to the in-process apply
loop (``codec="inline"``, zero IPC — PR 5), so codec traffic is exercised
at ``workers>=2`` and spawn coverage runs at ``workers=2``.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter

import multiprocessing
import pytest

# The codec rides the kernel; with the kernel switched off the explorer
# falls back to the pickle transport (covered by its own test below, which
# sets the switch itself).
pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_NO_KERNEL")),
    reason="wire codec requires the relational kernel")

from repro.core import ServiceSemantics
from repro.core.execution import clear_subproblem_caches
from repro.engine import (
    DetAbstractionGenerator, Explorer, ParallelExplorer,
    PoolNondetGenerator)
from repro.engine.faults import corrupt_payload
from repro.engine.wire import (
    FRAME_OVERHEAD, WireCodec, WireSession, _dumps, _loads, make_codec)
from repro.errors import WireIntegrityError
from repro.relational.kernel import RelationalKernel
from repro.relational.values import Fresh
from repro.workloads import commitment_blowup_dcds, random_dcds

POOL = ("c0", "c1", Fresh(90))
MAX_STATES = 2000
MAX_DEPTH = 3


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_subproblem_caches()
    yield
    clear_subproblem_caches()


def generator_for(dcds):
    if dcds.semantics is ServiceSemantics.DETERMINISTIC:
        return DetAbstractionGenerator(dcds)
    return PoolNondetGenerator(dcds, list(POOL))


def explored_states(dcds):
    generator = generator_for(dcds)
    ts = Explorer(dcds.schema, max_states=MAX_STATES, max_depth=MAX_DEPTH,
                  on_budget="truncate").run(generator).transition_system
    return generator, ts


def remote_kernel(dcds, snapshot):
    """A second kernel as a worker process would build it (spawn path):
    fresh construction from a pickled specification + snapshot replay."""
    detached = pickle.loads(pickle.dumps(dcds))
    assert getattr(detached, "_relational_kernel") is None
    kernel = RelationalKernel(detached)
    kernel.table.replay(snapshot)
    # Attach it as kernel_for would, so worker-side expansion really runs
    # on the second kernel (built here even under REPRO_NO_KERNEL).
    object.__setattr__(detached, "_relational_kernel", kernel)
    return kernel


class TestRoundTrip:
    """Coordinator -> worker -> coordinator through two distinct kernels."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", ["weakly-acyclic", "free"])
    @pytest.mark.parametrize(
        "semantics",
        [ServiceSemantics.DETERMINISTIC, ServiceSemantics.NONDETERMINISTIC],
        ids=["det", "nondet"])
    def test_random_dcds_round_trip(self, seed, shape, semantics):
        dcds = random_dcds(seed, shape=shape, semantics=semantics)
        generator, ts = explored_states(dcds)
        states = sorted(ts.states, key=repr)
        codec = make_codec(generator)
        assert codec is not None
        snapshot = codec.snapshot()

        worker = WireSession(WireCodec(
            remote_kernel(dcds, snapshot), len(snapshot)))
        coordinator = WireSession(codec)

        batch = states[:32]
        payload, parents = coordinator.encode_dispatch(batch)
        decoded, worker_parents = worker.decode_dispatch(payload)
        assert decoded == batch
        assert [hash(state) for state in decoded] \
            == [hash(state) for state in batch]

        # Expand worker-side, ship deltas back, compare successor lists.
        worker_generator = generator_for(worker.codec.kernel.dcds)
        results = [list(worker_generator.successors(state))
                   for state in decoded]
        reply = worker.encode_results(worker_parents, results)
        received = coordinator.decode_results(reply, parents)
        expected = [list(generator.successors(state)) for state in batch]
        assert received == expected

        # Token protocol: re-dispatching the same states is pure tokens —
        # a second dispatch payload must shrink.
        second_payload, _ = coordinator.encode_dispatch(batch)
        assert len(second_payload) < len(payload)
        redecoded, _ = worker.decode_dispatch(second_payload)
        assert redecoded == batch

    def test_delta_indexes_survive_divergent_code_orders(self):
        """Result deltas reference parent facts by index; the agreed list
        order must come from the messages, never from local code order —
        which this test forces to *disagree* between the two kernels by
        pre-interning the exploration's values into the remote table in
        reversed order. The workload accumulates several same-relation
        facts over fresh values, so local sort orders genuinely differ."""
        from repro.utils import sorted_values

        dcds = random_dcds(1, shape="free", n_relations=2,
                           effects_per_action=3)
        generator = generator_for(dcds)
        # Snapshot BEFORE exploring — exactly when the explorer creates its
        # worker links — so exploration-minted values are post-snapshot.
        codec = make_codec(generator)
        snapshot = codec.snapshot()
        ts = Explorer(dcds.schema, max_states=MAX_STATES,
                      max_depth=MAX_DEPTH,
                      on_budget="truncate").run(generator).transition_system
        kernel = remote_kernel(dcds, snapshot)
        # Divergence: every term the coordinator interned after the
        # snapshot gets a remote code in the opposite relative order.
        extra = list(codec.kernel.table._terms[len(snapshot):])
        assert extra, "workload must mint post-snapshot terms"
        for term in reversed(sorted_values(extra)):
            kernel.table.code(term)
        worker = WireSession(WireCodec(kernel, len(snapshot)))
        coordinator = WireSession(codec)

        states = sorted(ts.states, key=repr)
        batch = states[:24]
        payload, parents = coordinator.encode_dispatch(batch)
        decoded, worker_parents = worker.decode_dispatch(payload)
        assert decoded == batch
        worker_generator = generator_for(kernel.dcds)
        results = [list(worker_generator.successors(state))
                   for state in decoded]
        reply = worker.encode_results(worker_parents, results)
        received = coordinator.decode_results(reply, parents)
        expected = [list(generator.successors(state)) for state in batch]
        assert received == expected

        # Second round: now every successor is a token on the worker and
        # many parents are tokens on the coordinator — orders still agree.
        batch2 = [successor for entry in expected for successor, _, _ in
                  entry][:24]
        payload2, parents2 = coordinator.encode_dispatch(batch2)
        decoded2, worker_parents2 = worker.decode_dispatch(payload2)
        assert decoded2 == batch2
        results2 = [list(worker_generator.successors(state))
                    for state in decoded2]
        reply2 = worker.encode_results(worker_parents2, results2)
        received2 = coordinator.decode_results(reply2, parents2)
        assert received2 == [list(generator.successors(state))
                             for state in batch2]

    def test_detstate_hash_stability_after_round_trip(self):
        dcds = commitment_blowup_dcds(3)
        generator, ts = explored_states(dcds)
        codec = make_codec(generator)
        snapshot = codec.snapshot()
        worker = WireSession(WireCodec(
            remote_kernel(dcds, snapshot), len(snapshot)))
        coordinator = WireSession(codec)
        states = sorted(ts.states, key=repr)
        payload, _ = coordinator.encode_dispatch(states)
        decoded, _ = worker.decode_dispatch(payload)
        # Same process, so equal states must have equal (cached) hashes.
        assert {hash(s) for s in states} == {hash(s) for s in decoded}


class TestFraming:
    """The CRC32 frame around every wire/checkpoint payload."""

    def test_round_trip(self):
        message = {"batch": [1, 2, 3], "labels": ("a", None)}
        assert _loads(_dumps(message)) == message

    def test_frame_layout(self):
        payload = _dumps([1, 2, 3])
        assert payload[:3] == b"RW1"
        assert len(payload) >= FRAME_OVERHEAD

    def test_short_frame_rejected(self):
        with pytest.raises(WireIntegrityError, match="truncated"):
            _loads(b"RW")

    def test_bad_magic_rejected(self):
        payload = b"XX9" + _dumps([1])[3:]
        with pytest.raises(WireIntegrityError, match="bad magic"):
            _loads(payload)

    def test_truncated_body_rejected(self):
        payload = _dumps(list(range(100)))
        with pytest.raises(WireIntegrityError, match="truncated"):
            _loads(payload[:-5])

    def test_crc_mismatch_names_link(self):
        payload = bytearray(_dumps(list(range(100))))
        payload[-1] ^= 0xFF
        with pytest.raises(WireIntegrityError, match="CRC32") as excinfo:
            _loads(bytes(payload), link=3)
        assert excinfo.value.link == 3

    def test_corrupt_payload_is_caught(self):
        # The fault injector's corruption always lands past the header,
        # so the checksum (not a zlib traceback) reports it.
        payload = _dumps({"states": list(range(64))})
        for seed in range(8):
            mangled = corrupt_payload(payload, seed=seed)
            assert mangled != payload
            with pytest.raises(WireIntegrityError):
                _loads(mangled, link=1)

    def test_corruption_is_deterministic(self):
        payload = _dumps(list(range(32)))
        assert corrupt_payload(payload, seed=5) \
            == corrupt_payload(payload, seed=5)
        assert corrupt_payload(payload, seed=5) \
            != corrupt_payload(payload, seed=6)


def edge_multiset(ts):
    return Counter(ts.edges())


def assert_bit_identical(sequential, parallel):
    assert sequential.states == parallel.states
    assert edge_multiset(sequential) == edge_multiset(parallel)
    assert {s: sequential.db(s) for s in sequential.states} \
        == {s: parallel.db(s) for s in parallel.states}
    assert sequential.truncated_states == parallel.truncated_states


START_METHODS = [
    method for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()]


class TestParallelCodecDifferential:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_builds(self, seed, workers, start_method):
        if start_method == "spawn" and workers != 2:
            pytest.skip("spawn startup cost; covered at workers=2")
        dcds = random_dcds(seed)
        sequential = Explorer(
            dcds.schema, max_states=MAX_STATES, max_depth=MAX_DEPTH,
            on_budget="truncate").run(
            DetAbstractionGenerator(dcds)).transition_system
        clear_subproblem_caches()
        fresh = random_dcds(seed)
        result = ParallelExplorer(
            fresh.schema, max_states=MAX_STATES, max_depth=MAX_DEPTH,
            on_budget="truncate", workers=workers, batch_size=8,
            start_method=start_method).run(DetAbstractionGenerator(fresh))
        assert_bit_identical(sequential, result.transition_system)
        stats = result.stats.parallel
        if workers == 1:
            # One worker short-circuits to the in-process sequential apply
            # loop: no pipes, no codec, zero IPC (PR 5 regression gate).
            assert stats["codec"] == "inline"
            assert stats["ipc_bytes_sent"] == 0
            assert stats["ipc_bytes_received"] == 0
            assert stats["states_shipped"] == 0
            return
        assert stats["codec"] == "wire"
        if stats["states_shipped"]:
            assert stats["ipc_bytes_sent"] > 0
            assert stats["ipc_bytes_received"] > 0

    def test_ipc_stats_recorded(self):
        dcds = commitment_blowup_dcds(4)
        result = ParallelExplorer(
            dcds.schema, max_states=100000, workers=2,
            batch_size=16).run(DetAbstractionGenerator(dcds))
        stats = result.stats.parallel
        for key in ("codec", "states_shipped", "ipc_bytes_sent",
                    "ipc_bytes_received", "coordinator_decode_sec",
                    "coordinator_apply_sec"):
            assert key in stats
        assert stats["codec"] == "wire"
        assert stats["states_shipped"] > 0
        # Stats surface through the transition system's exploration stats
        # (and from there through abstraction_stats in verify()).
        assert result.transition_system.exploration_stats[
            "parallel"]["ipc_bytes_sent"] == stats["ipc_bytes_sent"]

    def test_wire_payloads_beat_pickled_states(self):
        """The coded traffic is several times smaller than pickling the
        same object graphs (the PR 3 transport)."""
        dcds = commitment_blowup_dcds(5)
        result = ParallelExplorer(
            dcds.schema, max_states=100000, workers=2,
            batch_size=32).run(DetAbstractionGenerator(dcds))
        ts = result.transition_system
        stats = result.stats.parallel
        wire_bytes = stats["ipc_bytes_sent"] + stats["ipc_bytes_received"]
        legacy_dispatch = len(pickle.dumps(sorted(ts.states, key=repr), 5))
        assert wire_bytes * 2 < legacy_dispatch

    def test_kernelless_generators_run_inline(self, monkeypatch):
        # Without a kernel there is no wire codec, so workers=2 takes the
        # in-process path of workers=1; the reference side is the
        # per-state driver.
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        dcds = commitment_blowup_dcds(3)
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NO_BATCH", "1")
            sequential = Explorer(dcds.schema, max_states=100000).run(
                DetAbstractionGenerator(dcds)).transition_system
        fresh = commitment_blowup_dcds(3)
        result = ParallelExplorer(
            fresh.schema, max_states=100000, workers=2,
            batch_size=8).run(DetAbstractionGenerator(fresh))
        stats = result.stats.parallel
        assert stats["codec"] == "inline"
        assert stats["batches"] == 0
        assert stats["states_shipped"] == 0
        assert stats["ipc_bytes_sent"] == stats["ipc_bytes_received"] == 0
        assert_bit_identical(sequential, result.transition_system)
