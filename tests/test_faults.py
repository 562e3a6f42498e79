"""Seeded chaos: fault injection, supervised recovery, checkpoint/resume.

The fault-tolerance contract of PR 9: a parallel build that loses
workers — killed, hung, out of memory, replying with corrupted or
dropped frames — still converges to the *bit-identical* transition
system of the undisturbed sequential build, and a build interrupted at a
checkpoint safe point resumes from disk to the same result. Faults are
injected deterministically through :mod:`repro.engine.faults`
(``REPRO_FAULTS`` grammar), so every scenario here is replayable.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro import verify
from repro.core.execution import clear_subproblem_caches
from repro.engine import (
    Checkpoint, CheckpointInterrupted, DetAbstractionGenerator, Explorer,
    FaultEvent, FaultPlan, ParallelExplorer)
from repro.errors import CheckpointError, ReproError, WorkerCrashError
from repro.gallery import student_registry
from repro.gallery.student import property_eventual_graduation_mu_lp
from repro.mucalc import parse_mu
from repro.workloads import commitment_blowup_dcds

from test_wire_codec import assert_bit_identical

START_METHODS = [
    method for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_subproblem_caches()
    yield
    clear_subproblem_caches()


@pytest.fixture(scope="module")
def reference():
    """The undisturbed sequential build every chaos run must reproduce."""
    clear_subproblem_caches()
    dcds = commitment_blowup_dcds(4)
    return Explorer(dcds.schema, max_states=100000).run(
        DetAbstractionGenerator(dcds))


def chaos_build(spec, workers=2, start_method=None, checkpoint=None,
                **kwargs):
    dcds = commitment_blowup_dcds(4)
    explorer = ParallelExplorer(
        dcds.schema, max_states=100000, workers=workers, batch_size=4,
        start_method=start_method, dispatch_timeout=1.5,
        faults=FaultPlan.parse(spec) if spec else None,
        checkpoint=checkpoint, **kwargs)
    return explorer.run(DetAbstractionGenerator(dcds))


class TestSpecParsing:
    def test_single_event(self):
        plan = FaultPlan.parse("kill:1@2")
        assert plan.events == [FaultEvent("kill", 1, 2)]
        assert plan.seed == 0
        assert bool(plan)

    def test_wildcard_and_arg(self):
        plan = FaultPlan.parse("delay:*@1:0.05")
        assert plan.events == [FaultEvent("delay", None, 1, 0.05)]

    def test_seed_and_multiple_events(self):
        plan = FaultPlan.parse("kill:0@2, corrupt:1@3, seed:7")
        assert [e.kind for e in plan.events] == ["kill", "corrupt"]
        assert plan.seed == 7

    def test_spec_round_trip(self):
        spec = "kill:0@2,delay:*@1:0.05,seed:9"
        assert FaultPlan.parse(spec).spec() == spec

    def test_empty_spec_is_falsy(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("").spec() == ""

    @pytest.mark.parametrize("bad", [
        "explode:0@1",       # unknown kind
        "kill:0",            # missing @nth
        "kill:x@1",          # non-integer worker
        "kill:0@x",          # non-integer nth
        "kill:0@0",          # nth is 1-based
        "kill:-1@1",         # negative worker slot
        "seed:x",            # malformed seed
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ReproError):
            FaultPlan.parse(bad)

    def test_for_worker_filters_by_slot(self):
        plan = FaultPlan.parse("kill:0@2,oom:1@1,corrupt:*@3,seed:5")
        worker0 = plan.for_worker(0)
        assert [e.kind for e in worker0.events] == ["kill", "corrupt"]
        assert worker0.seed == 5
        assert [e.kind for e in plan.for_worker(2).events] == ["corrupt"]
        assert FaultPlan.parse("kill:0@1").for_worker(3) is None

    def test_worker_faults_pickle_round_trip(self):
        # The schedule ships to spawn-started workers via Process args.
        faults = FaultPlan.parse("corrupt:*@2,seed:11").for_worker(0)
        clone = pickle.loads(pickle.dumps(faults))
        assert clone.events == faults.events
        assert clone.seed == 11
        assert clone.dispatches == 0

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "kill:0@2")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.events[0].kind == "kill"


CHAOS_CASES = [
    pytest.param("kill:0@2", 2, {"crashes": 1}, id="kill"),
    pytest.param("kill:0@1,kill:1@1", 2, {"crashes": 2}, id="double-kill"),
    pytest.param("oom:1@1", 2, {"crashes": 1}, id="oom"),
    pytest.param("corrupt:0@2,seed:5", 2, {"integrity_errors": 1},
                 id="corrupt"),
    pytest.param("hang:1@2", 2, {"crashes": 1}, id="hang"),
    pytest.param("drop:0@3", 2, {"crashes": 1}, id="drop"),
    pytest.param("delay:*@1:0.02", 2, {}, id="delay"),
    pytest.param("kill:0@2,corrupt:1@3,seed:9", 2,
                 {"crashes": 1, "integrity_errors": 1}, id="mixed"),
    pytest.param("kill:2@1", 4, {"crashes": 1}, id="kill-w4"),
]


class TestChaosRecovery:
    @pytest.mark.parametrize("spec,workers,minimums", CHAOS_CASES)
    def test_recovered_build_is_bit_identical(self, reference, spec,
                                              workers, minimums):
        result = chaos_build(spec, workers=workers)
        assert_bit_identical(reference.transition_system,
                             result.transition_system)
        assert result.stats.growth == reference.stats.growth
        stats = result.stats.parallel
        for counter, floor in minimums.items():
            assert stats[counter] >= floor, (counter, stats)
        assert stats["respawns"] == stats["crashes"]
        if minimums:
            assert stats["recovery_sec"] > 0.0
        else:  # delay under the timeout must not trip recovery at all
            assert stats["crashes"] == 0
            assert stats["redispatches"] == 0

    @pytest.mark.skipif("spawn" not in START_METHODS,
                        reason="spawn unavailable")
    def test_recovery_under_spawn(self, reference):
        result = chaos_build("kill:0@1,seed:3", start_method="spawn")
        assert_bit_identical(reference.transition_system,
                             result.transition_system)
        assert result.stats.parallel["crashes"] >= 1

    def test_env_spec_drives_injection(self, reference, monkeypatch):
        # REPRO_FAULTS is read at pool start when no plan is passed.
        monkeypatch.setenv("REPRO_FAULTS", "kill:0@2")
        result = chaos_build(None)
        assert_bit_identical(reference.transition_system,
                             result.transition_system)
        assert result.stats.parallel["crashes"] >= 1

    def test_retries_exhausted_raises_taxonomy_error(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            chaos_build("kill:0@1", retry_limit=0)
        assert excinfo.value.reason == "retries-exhausted"
        assert excinfo.value.worker == 0
        assert excinfo.value.batches_lost >= 1


class TestShutdownRobustness:
    def test_hung_worker_never_hangs_shutdown(self, reference):
        # A parked worker (hang fault) must be detected by the dispatch
        # timeout and terminated; the whole build stays time-bounded.
        started = time.monotonic()
        result = chaos_build("hang:0@1")
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        assert_bit_identical(reference.transition_system,
                             result.transition_system)

    def test_no_zombie_workers_after_recovery(self):
        chaos_build("kill:0@2,kill:1@1")
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, \
                multiprocessing.active_children()
            time.sleep(0.05)

    def test_no_zombie_workers_after_crash_propagation(self):
        with pytest.raises(WorkerCrashError):
            chaos_build("kill:0@1", retry_limit=0)
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, \
                multiprocessing.active_children()
            time.sleep(0.05)


def interrupted_checkpoint(tmp_path, chunks=2, workers=None):
    """Run until the injected interruption; return the checkpoint path."""
    path = str(tmp_path / "build.ck")
    config = Checkpoint(path, interval=0.0)
    config._interrupt_after_chunks = chunks
    dcds = commitment_blowup_dcds(4)
    clear_subproblem_caches()
    if workers is None:
        explorer = Explorer(dcds.schema, max_states=100000,
                            checkpoint=config)
    else:
        explorer = ParallelExplorer(
            dcds.schema, max_states=100000, workers=workers, batch_size=4,
            checkpoint=config)
    with pytest.raises(CheckpointInterrupted):
        explorer.run(DetAbstractionGenerator(dcds))
    return path


def resumed_build(path, workers=None, spec=None):
    dcds = commitment_blowup_dcds(4)
    clear_subproblem_caches()
    if workers is None:
        explorer = Explorer(dcds.schema, max_states=100000,
                            checkpoint=Checkpoint(path, interval=0.0))
    else:
        explorer = ParallelExplorer(
            dcds.schema, max_states=100000, workers=workers, batch_size=4,
            dispatch_timeout=1.5, checkpoint=Checkpoint(path, interval=0.0),
            faults=FaultPlan.parse(spec) if spec else None)
    return explorer.run(DetAbstractionGenerator(dcds))


class TestCheckpointResume:
    def test_sequential_interrupt_resume(self, reference, tmp_path):
        path = interrupted_checkpoint(tmp_path)
        result = resumed_build(path)
        assert_bit_identical(reference.transition_system,
                             result.transition_system)
        assert result.stats.growth == reference.stats.growth

    def test_parallel_interrupt_parallel_resume(self, reference, tmp_path):
        path = interrupted_checkpoint(tmp_path, chunks=3, workers=2)
        result = resumed_build(path, workers=2)
        assert_bit_identical(reference.transition_system,
                             result.transition_system)
        assert result.stats.growth == reference.stats.growth

    def test_cross_mode_resume(self, reference, tmp_path):
        # A checkpoint is mode-agnostic: parallel writer, sequential reader.
        path = interrupted_checkpoint(tmp_path, workers=2)
        result = resumed_build(path, workers=None)
        assert_bit_identical(reference.transition_system,
                             result.transition_system)

    def test_resume_under_chaos(self, reference, tmp_path):
        # Recovery and resume compose: the resumed run loses a worker too.
        path = interrupted_checkpoint(tmp_path, workers=2)
        result = resumed_build(path, workers=2, spec="kill:0@1,seed:3")
        assert_bit_identical(reference.transition_system,
                             result.transition_system)
        assert result.stats.parallel["crashes"] >= 1

    def test_complete_checkpoint_short_circuits(self, reference, tmp_path):
        path = str(tmp_path / "done.ck")
        dcds = commitment_blowup_dcds(4)
        resumed_build(path)  # runs to completion, manifest marked complete
        before = os.path.getmtime(path)
        clear_subproblem_caches()
        result = Explorer(dcds.schema, max_states=100000,
                          checkpoint=Checkpoint(path)).run(
            DetAbstractionGenerator(dcds))
        assert_bit_identical(reference.transition_system,
                             result.transition_system)
        assert result.stats.expansions == reference.stats.expansions
        assert os.path.getmtime(path) == before  # nothing re-explored

    def test_torn_tail_is_ignored(self, reference, tmp_path):
        # Bytes past the manifest's data_bytes are a torn write: the
        # loader never reads them and the resumed writer truncates them.
        path = interrupted_checkpoint(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00garbage from a torn write\xff" * 4)
        result = resumed_build(path)
        assert_bit_identical(reference.transition_system,
                             result.transition_system)

    def test_corrupted_chunk_raises(self, tmp_path):
        path = interrupted_checkpoint(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)[0]
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last ^ 0xFF]))
        with pytest.raises(CheckpointError):
            resumed_build(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = interrupted_checkpoint(tmp_path)
        with open(path + ".manifest") as handle:
            manifest = json.load(handle)
        manifest["version"] = 99
        with open(path + ".manifest", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CheckpointError, match="version"):
            resumed_build(path)

    @pytest.mark.parametrize("malformed", [
        lambda manifest: {key: value for key, value in manifest.items()
                          if key != "data_bytes"},
        lambda manifest: {**manifest, "chunks": "x"},
        lambda manifest: {**manifest, "chunks": -1},
        lambda manifest: {**manifest, "data_bytes": 1.5},
        lambda manifest: {**manifest, "data_bytes": 10 ** 9},
        lambda manifest: [manifest],
    ], ids=["no-data-bytes", "chunks-str", "chunks-negative",
            "data-bytes-float", "data-bytes-past-eof", "json-list"])
    def test_malformed_manifest_raises(self, tmp_path, malformed):
        # Each would otherwise end in a KeyError/TypeError/AttributeError
        # traceback, or a resumed writer growing the data file.
        path = interrupted_checkpoint(tmp_path)
        size = os.path.getsize(path)
        with open(path + ".manifest") as handle:
            manifest = json.load(handle)
        with open(path + ".manifest", "w") as handle:
            json.dump(malformed(manifest), handle)
        with pytest.raises(CheckpointError, match="manifest"):
            resumed_build(path)
        assert os.path.getsize(path) == size

    def test_spec_mismatch_raises(self, tmp_path):
        path = interrupted_checkpoint(tmp_path)
        other = commitment_blowup_dcds(3)
        clear_subproblem_caches()
        with pytest.raises(CheckpointError, match="different spec"):
            Explorer(other.schema, max_states=100000,
                     checkpoint=Checkpoint(path)).run(
                DetAbstractionGenerator(other))

    def test_resume_without_manifest_raises(self, tmp_path):
        dcds = commitment_blowup_dcds(3)
        explorer = Explorer(dcds.schema,
                            checkpoint=Checkpoint(str(tmp_path / "no.ck")))
        with pytest.raises(CheckpointError, match="nothing to resume"):
            explorer.resume(DetAbstractionGenerator(dcds))
        with pytest.raises(CheckpointError, match="needs a checkpoint"):
            Explorer(dcds.schema).resume(DetAbstractionGenerator(dcds))

    def test_non_parallel_safe_generator_skips_checkpoint(self, tmp_path):
        # Same gate as workers=: impure generators are never checkpointed.
        path = str(tmp_path / "gate.ck")
        dcds = commitment_blowup_dcds(3)
        generator = DetAbstractionGenerator(dcds)
        generator.parallel_safe = False
        Explorer(dcds.schema, max_states=100000,
                 checkpoint=Checkpoint(path)).run(generator)
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".manifest")

    def test_rcycl_route_ignores_checkpoint(self, tmp_path):
        path = str(tmp_path / "rcycl.ck")
        report = verify(student_registry(),
                        property_eventual_graduation_mu_lp(),
                        checkpoint=path)
        assert report.holds
        assert report.route == "rcycl"
        assert not os.path.exists(path + ".manifest")

    def test_verify_checkpoint_round_trip(self, tmp_path):
        path = str(tmp_path / "verify.ck")
        dcds = commitment_blowup_dcds(3)
        formula = parse_mu("mu Z. (Seed('c') | <-> Z)")
        first = verify(dcds, formula, checkpoint=path)
        assert os.path.exists(path + ".manifest")
        clear_subproblem_caches()
        again = verify(commitment_blowup_dcds(3), formula, checkpoint=path)
        assert again.holds == first.holds
