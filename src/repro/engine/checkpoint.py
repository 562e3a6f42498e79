"""Crash-safe checkpoint/resume for the exploration engine.

A long exploration that dies — machine reboot, OOM kill, operator ^C —
used to throw away every state it had interned. This module persists the
explorer's progress incrementally so an interrupted build restarts from
its last checkpoint and provably converges to the same transition system
(the resumed build is bit-identical to an undisturbed one; the chaos
suite pins it).

File format
-----------
A checkpoint is two files, both owned by :class:`CheckpointWriter`:

``<path>``
    Append-only data: a stream of CRC32-framed records (the wire frame of
    :mod:`repro.engine.wire`, so a torn or corrupted record surfaces as a
    structured error, never an unpickle traceback). Record 0 is the
    *header*: format version, the specification's ``spec_signature()``,
    the generator identity, the explorer configuration that affects the
    construction (strategy, ``max_depth``), the transport
    (``"wire"``/``"pickle"``/``"store"``), and — for the wire and store
    transports — the term table snapshot the chunk payloads are encoded
    against. Every further record is a *chunk*: the states discovered
    since the last chunk (in discovery order, encoded through one
    :class:`WireSession` exactly like a worker dispatch — or, for the
    store transport, as the paged store's canonical per-state frames,
    read back from its pages rather than re-encoded), the edges added
    since the last chunk (as global state indexes), and full snapshots of
    the truncated set, the effective frontier, and the progress counters.

``<path>.manifest``
    A small JSON file naming how much of the data file is valid:
    ``data_bytes``, ``chunks``, ``states``, ``complete``. It is replaced
    atomically (temp file + ``fsync`` + ``os.replace``) only *after* the
    data it covers is flushed and fsynced, so a crash at any instant
    leaves either the previous manifest (the new tail is ignored) or the
    new one (the tail is fully on disk) — never a manifest that promises
    torn data.

Safe points and restore
-----------------------
The explorer calls :meth:`CheckpointWriter.maybe_write` only between
batch applications, where the invariants hold that make a prefix
restorable: ``TransitionSystem._db`` insertion order *is* discovery
order; a state's outgoing edges are complete the moment its expansion is
applied; and the effective frontier (the real frontier plus any
popped-but-unapplied batch entries) is exactly what a sequential run
would still have queued. Restoring replays the header snapshot into the
kernel (``TermTable.replay`` asserts code-for-code alignment), decodes
the chunks through one symmetric session, rebuilds states/edges/
truncation/frontier, and re-runs the observer over the restored
discovery order — which reconstructs on-the-fly verification state,
because supported (``parallel_safe``) generators and observers are pure
functions of the state.

Resume compatibility is checked, not assumed: a checkpoint written for a
different ``spec_signature``, generator class, value pool, strategy, or
``max_depth`` raises :class:`~repro.errors.CheckpointError` instead of
silently building a chimera.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import frames
from repro.engine.generators import DetState
from repro.engine.wire import WireCodec, WireSession
from repro.errors import CheckpointError, WireIntegrityError
from repro.relational.kernel import kernel_for
from repro.semantics.transition_system import TransitionSystem

CHECKPOINT_VERSION = 1

#: Default seconds between periodic chunk writes. Coarse on purpose: each
#: chunk costs a data fsync plus an atomic manifest replace, and the
#: <10% overhead budget (``benchmarks/bench_faults.py``) is measured
#: against real builds.
DEFAULT_INTERVAL = 5.0


class CheckpointInterrupted(CheckpointError):
    """Raised by the test hook ``Checkpoint._interrupt_after_chunks`` to
    simulate a crash immediately after a chunk (and its manifest) hit
    disk — the interrupt-then-resume differential drives on it."""


class Checkpoint:
    """Configuration handle for ``checkpoint=`` parameters.

    Accepts a filesystem path (``interval``-gated periodic writes) and is
    what ``verify(..., checkpoint=...)``, ``build_det_abstraction`` and
    the :class:`~repro.engine.Explorer` constructor normalize their
    ``checkpoint`` argument into (a bare path string means default
    cadence). ``interval=0`` writes a chunk at every safe point — the
    chaos tests use it to make interruption points exact.
    """

    def __init__(self, path, interval: float = DEFAULT_INTERVAL):
        self.path = os.fspath(path)
        if interval < 0:
            raise CheckpointError(
                f"checkpoint interval must be >= 0, got {interval}")
        self.interval = interval
        #: Test hook: raise :class:`CheckpointInterrupted` once this many
        #: chunks (header excluded) have been durably written.
        self._interrupt_after_chunks: Optional[int] = None

    @property
    def manifest_path(self) -> str:
        return self.path + ".manifest"

    @classmethod
    def of(cls, value) -> Optional["Checkpoint"]:
        """Normalize ``None`` / path-like / :class:`Checkpoint`."""
        if value is None or isinstance(value, Checkpoint):
            return value
        return cls(value)


def _state_db(state):
    """The database instance a state contributes to ``ts._db``."""
    return state.instance if isinstance(state, DetState) else state


def _signature_of(generator) -> Optional[tuple]:
    dcds = getattr(generator, "dcds", None)
    return dcds.spec_signature() if dcds is not None else None


def _signature_sha(signature) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:16]


#: The framed-record helpers are shared with the wire codec and the paged
#: state store (see :mod:`repro.engine.frames`); only the error dressing
#: is checkpoint-specific.
_write_record = frames.write_record


#: The fields every header / chunk record carries (``name`` is optional).
_HEADER_KEYS = ("version", "signature", "generator", "symmetry_values",
                "strategy", "max_depth", "codec", "snapshot")
_CHUNK_KEYS = ("states", "raw_states", "edges", "truncated", "frontier",
               "stats", "final")


def _read_record(handle, remaining: int, keys: Tuple[str, ...]
                 ) -> Tuple[Dict[str, Any], int]:
    """The next framed record, bounded by the manifest-covered bytes: a
    mapping holding at least ``keys``. A record whose CRC holds but whose
    shape does not is as unresumable as a corrupted one."""
    try:
        record, consumed = frames.read_record(handle, remaining)
    except WireIntegrityError as error:
        raise CheckpointError(
            f"corrupted or truncated checkpoint record: {error}") from error
    if not isinstance(record, dict) or not all(key in record for key in keys):
        raise CheckpointError(
            f"malformed checkpoint record: expected a mapping with the "
            f"fields {list(keys)}")
    return record, consumed


@dataclass
class RestoredRun:
    """Everything a resuming explorer needs from a checkpoint.

    ``states`` is the restored discovery order as live objects — empty
    for a store-format restore that adopted its frames into a paged
    store, where ``state_count`` (set on every restore) lets the
    observer replay stream through the store instead.
    """

    ts: TransitionSystem
    frontier: List[Tuple[Any, int]]
    stats: Dict[str, Any]
    complete: bool
    final: Optional[Dict[str, Any]]
    header: Dict[str, Any]
    manifest: Dict[str, Any]
    states: List[Any] = field(default_factory=list)
    state_count: int = 0


class CheckpointWriter:
    """Incremental persistence of one exploration run.

    Created fresh by :meth:`Explorer._start` (header record, empty
    manifest region) or in *resume* mode on top of a restored run — the
    data file is truncated to the manifest-covered bytes (discarding any
    torn tail) and appended to, re-using the header's codec snapshot so
    old and new chunks decode against the same shared vocabulary.
    """

    def __init__(self, config: Checkpoint, generator, explorer,
                 restored: Optional[RestoredRun] = None):
        self.config = config
        self.generator = generator
        #: Store transport: the explorer's paged store (chunks read raw
        #: frames off its pages) or — resuming a store-format file from a
        #: plain run — just the canonical codec (chunks re-encode).
        self._store = None
        self._state_codec = None
        if restored is None:
            store = getattr(explorer, "_store", None)
            if store is not None:
                self._session = None
                self._store = store
                self._state_codec = store.codec
                codec_name, snapshot = "store", store.codec.snapshot()
            else:
                codec = self._fresh_codec(generator)
                self._session = WireSession(codec) if codec is not None \
                    else None
                codec_name = "wire" if codec is not None else "pickle"
                snapshot = codec.snapshot() if codec is not None else None
            header = {
                "version": CHECKPOINT_VERSION,
                "signature": _signature_of(generator),
                "generator": type(generator).__name__,
                "symmetry_values": getattr(
                    generator, "symmetry_values", None),
                "strategy": explorer.strategy,
                "max_depth": explorer.max_depth,
                "name": explorer.name,
                "codec": codec_name,
                "snapshot": snapshot,
            }
            self._handle = open(config.path, "wb")
            self.data_bytes = _write_record(self._handle, header)
            self.chunks = 0
            self.states_written = 0
            self._index: Dict[Any, int] = {}
        else:
            header = restored.header
            if header["codec"] == "wire":
                kernel = kernel_for(generator.dcds)
                # The loader already replayed the header snapshot; encode
                # against the *original* snapshot size so appended chunks
                # stay decodable in one pass with the old ones.
                codec = WireCodec(kernel, len(header["snapshot"]))
                self._session = WireSession(codec)
            elif header["codec"] == "store":
                self._session = None
                store = getattr(restored.ts, "store", None)
                if store is not None:
                    # The loader adopted the old frames into this store;
                    # new chunks read their frames straight off its pages.
                    self._store = store
                    self._state_codec = store.codec
                else:
                    # Plain (unbudgeted) run resuming a store-format
                    # file: keep appending store-codec chunks, encoded
                    # against the header snapshot the old ones use.
                    from repro.engine.store import StateCodec
                    self._state_codec = StateCodec(
                        kernel_for(generator.dcds),
                        len(header["snapshot"]))
            else:
                self._session = None
            self._handle = open(config.path, "r+b")
            self._handle.truncate(restored.manifest["data_bytes"])
            self._handle.seek(0, os.SEEK_END)
            self.data_bytes = restored.manifest["data_bytes"]
            self.chunks = restored.manifest["chunks"]
            self.states_written = restored.state_count
            self._index = {state: index for index, state
                           in enumerate(restored.states)}
        self.signature_sha = _signature_sha(header["signature"])
        self._last_write = time.monotonic()

    @staticmethod
    def _fresh_codec(generator) -> Optional[WireCodec]:
        dcds = getattr(generator, "dcds", None)
        if dcds is None:
            return None
        kernel = kernel_for(dcds)
        if kernel is None:
            return None
        return WireCodec(kernel, len(kernel.table))

    # -- writing -------------------------------------------------------------

    def maybe_write(self, ts: TransitionSystem, frontier, stats, edges,
                    extra_entries=()) -> None:
        """Write a chunk if the interval has elapsed (a safe point only).

        ``edges`` is the explorer's accumulator of ``(source, target,
        label)`` additions since the last chunk — drained only when a
        chunk is actually written. ``extra_entries`` are popped-but-
        unapplied batch entries; prepended to ``frontier`` they form the
        effective sequential frontier.
        """
        if time.monotonic() - self._last_write < self.config.interval:
            return
        self.write_chunk(ts, frontier, stats, edges,
                         extra_entries=extra_entries)

    def write_chunk(self, ts: TransitionSystem, frontier, stats, edges,
                    extra_entries=(), final: Optional[dict] = None
                    ) -> None:
        if self._state_codec is not None:
            chunk = self._store_chunk(ts, frontier, edges, extra_entries)
        else:
            index = self._index
            new_states = list(itertools.islice(
                ts._db.keys(), self.states_written, None))
            for state in new_states:
                index[state] = self.states_written
                self.states_written += 1
            if self._session is not None:
                states_payload, _ = self._session.encode_dispatch(
                    new_states)
                raw_states = None
            else:
                states_payload = None
                raw_states = new_states
            chunk = {
                "states": states_payload,
                "raw_states": raw_states,
                "edges": [(index[source], index[target], label)
                          for source, target, label in edges],
                "truncated": sorted(
                    index[state] for state in ts.truncated_states),
                "frontier": [(index[state], depth) for state, depth
                             in itertools.chain(extra_entries, frontier)],
            }
        chunk["stats"] = {
            "growth": list(stats.growth),
            "expansions": stats.expansions,
            "edges": stats.edges,
            "frontier_peak": stats.frontier_peak,
        }
        chunk["final"] = final
        del edges[:]
        self.data_bytes += _write_record(self._handle, chunk)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.chunks += 1
        self._write_manifest(complete=final is not None)
        self._last_write = time.monotonic()
        hook = self.config._interrupt_after_chunks
        if hook is not None and final is None and self.chunks >= hook:
            self.close()
            raise CheckpointInterrupted(
                f"injected interruption after chunk {self.chunks}")

    def _store_chunk(self, ts: TransitionSystem, frontier, edges,
                     extra_entries) -> dict:
        """The store-transport chunk body.

        In store mode everything is already id-keyed — the explorer's
        edge/frontier/truncation records carry dense state ids — and the
        new states' canonical frames are *read back* from the store's
        pages, never re-encoded. On a plain-mode resume of a store-format
        file, new states are encoded through the header's canonical codec
        and id-mapped here instead.
        """
        if self._store is not None:
            store = self._store
            states_payload = [store.raw_frame(sid) for sid
                              in range(self.states_written, len(store))]
            self.states_written = len(store)
            return {
                "states": states_payload,
                "raw_states": None,
                "edges": list(edges),
                "truncated": sorted(ts._truncated_ids),
                "frontier": list(
                    itertools.chain(extra_entries, frontier)),
            }
        index = self._index
        codec = self._state_codec
        states_payload = []
        for state in itertools.islice(
                ts._db.keys(), self.states_written, None):
            index[state] = self.states_written
            self.states_written += 1
            states_payload.append(codec.encode_state(state))
        return {
            "states": states_payload,
            "raw_states": None,
            "edges": [(index[source], index[target], label)
                      for source, target, label in edges],
            "truncated": sorted(
                index[state] for state in ts.truncated_states),
            "frontier": [(index[state], depth) for state, depth
                         in itertools.chain(extra_entries, frontier)],
        }

    def _write_manifest(self, complete: bool) -> None:
        manifest = {
            "version": CHECKPOINT_VERSION,
            "signature_sha": self.signature_sha,
            "data_bytes": self.data_bytes,
            "chunks": self.chunks,
            "states": self.states_written,
            "complete": complete,
        }
        temp_path = self.config.manifest_path + ".tmp"
        with open(temp_path, "w") as temp:
            json.dump(manifest, temp)
            temp.flush()
            os.fsync(temp.fileno())
        os.replace(temp_path, self.config.manifest_path)

    def finalize(self, ts: TransitionSystem, stats, edges) -> None:
        """The completion chunk: post-epilogue truncation/stats, manifest
        marked complete, so a later run with the same ``checkpoint=``
        short-circuits to the stored result instead of re-exploring."""
        self.write_chunk(
            ts, (), stats, edges,
            final={
                "diverged": stats.diverged,
                "early_stop": stats.early_stop,
                "duration": stats.duration,
                "exploration_stats": ts.exploration_stats,
            })
        self.close()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


# -- loading ----------------------------------------------------------------

def load_checkpoint(config: Checkpoint, generator, explorer
                    ) -> Optional[RestoredRun]:
    """Restore a run from ``config``'s files, or ``None`` when absent.

    Raises :class:`CheckpointError` for everything that *exists but
    cannot be resumed*: version/signature/generator/configuration
    mismatches, a missing kernel for a wire-coded file, and corrupted or
    manifest-breaking records.
    """
    if not os.path.exists(config.manifest_path) \
            or not os.path.exists(config.path):
        return None
    try:
        with open(config.manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"unreadable checkpoint manifest "
            f"{config.manifest_path}: {error}") from error
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"checkpoint manifest {config.manifest_path} is not a JSON "
            f"object")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {manifest.get('version')} is not "
            f"supported (expected {CHECKPOINT_VERSION})")
    for key in ("data_bytes", "chunks"):
        value = manifest.get(key)
        if type(value) is not int or value < 0:
            raise CheckpointError(
                f"checkpoint manifest field {key!r} must be an integer "
                f">= 0, got {value!r}")
    # A resumed writer truncates the data file to ``data_bytes``: a
    # manifest claiming more than the file holds would grow it instead.
    if manifest["data_bytes"] > os.path.getsize(config.path):
        raise CheckpointError(
            f"checkpoint manifest claims {manifest['data_bytes']} data "
            f"bytes but {config.path} holds "
            f"{os.path.getsize(config.path)}")

    with open(config.path, "rb") as handle:
        remaining = manifest["data_bytes"]
        header, consumed = _read_record(handle, remaining, _HEADER_KEYS)
        remaining -= consumed
        _check_header(header, generator, explorer)
        if header["codec"] == "store":
            return _load_store_checkpoint(
                handle, remaining, manifest, header, generator, explorer)
        session = _loader_session(header, generator)
        ts = None
        states: List[Any] = []
        last_chunk = None
        for _ in range(manifest["chunks"]):
            chunk, consumed = _read_record(handle, remaining, _CHUNK_KEYS)
            remaining -= consumed
            last_chunk = chunk
            if session is not None:
                try:
                    new_states, _ = session.decode_dispatch(
                        chunk["states"])
                except WireIntegrityError as error:
                    raise CheckpointError(
                        f"corrupted checkpoint chunk: {error}") from error
            else:
                new_states = chunk["raw_states"]
            if ts is None:
                if not new_states:
                    raise CheckpointError(
                        "checkpoint's first chunk holds no states")
                ts = TransitionSystem(
                    explorer.schema, new_states[0],
                    name=header.get("name", ""))
            for state in new_states:
                ts.add_state(state, _state_db(state))
                states.append(state)
            for source, target, label in chunk["edges"]:
                ts.add_edge(states[source], states[target], label)
    if last_chunk is None or ts is None:
        # A manifest with zero chunks: the run died before its first safe
        # point; nothing worth restoring.
        return None
    ts.truncated_states.clear()
    for position in last_chunk["truncated"]:
        ts.mark_truncated(states[position])
    frontier = [(states[position], depth)
                for position, depth in last_chunk["frontier"]]
    final = last_chunk.get("final")
    if final is not None:
        ts.exploration_stats = final["exploration_stats"]
    return RestoredRun(
        ts=ts, frontier=frontier, stats=last_chunk["stats"],
        complete=bool(manifest.get("complete")), final=final,
        header=header, manifest=manifest, states=states,
        state_count=len(states))


def _load_store_checkpoint(handle, remaining: int, manifest, header,
                           generator, explorer) -> Optional[RestoredRun]:
    """Restore a store-transport checkpoint.

    When the resuming explorer runs in store mode (its paged store is
    still empty — nothing interned before the resume point), the old
    frames are *adopted* byte-for-byte into that store (no re-encoding;
    the codec is re-anchored on the header snapshot so new frames stay
    canonical against the old vocabulary) and the run continues on a
    :class:`~repro.engine.store.StoredTransitionSystem` with id-level
    edges/truncation/frontier passed straight through.

    A plain (unbudgeted) run can resume the same file: every frame is
    decoded through a standalone canonical codec and the restore falls
    back to the ordinary in-RAM transition system.
    """
    from repro.engine.store import StateCodec, StoredTransitionSystem
    kernel = _snapshot_kernel(header, generator)
    store = getattr(explorer, "_store", None)
    adopt = store is not None and len(store) == 0
    if adopt:
        store.rebase_snapshot(len(header["snapshot"]))
        codec = store.codec
    else:
        codec = StateCodec(kernel, len(header["snapshot"]))
    states: List[Any] = []
    edges: List[Tuple[int, int, Optional[str]]] = []
    last_chunk = None
    count = 0
    for _ in range(manifest["chunks"]):
        chunk, consumed = _read_record(handle, remaining, _CHUNK_KEYS)
        remaining -= consumed
        last_chunk = chunk
        for frame in chunk["states"]:
            if adopt:
                sid, is_new = store.adopt_frame(frame)
                if sid != count or not is_new:
                    raise CheckpointError(
                        f"checkpoint frame {count} is out of order or "
                        f"duplicated (adopted as state {sid})")
            else:
                states.append(codec.decode_state(frame))
            count += 1
        edges.extend(chunk["edges"])
    if last_chunk is None or count == 0:
        return None
    if adopt:
        ts: TransitionSystem = StoredTransitionSystem(
            explorer.schema, store.fetch(0), store,
            name=header.get("name", ""))
        for source, target, label in edges:
            ts.add_edge_id(source, target, label)
        for sid in last_chunk["truncated"]:
            ts.mark_truncated_id(sid)
        frontier = [(sid, depth) for sid, depth in last_chunk["frontier"]]
    else:
        ts = TransitionSystem(
            explorer.schema, states[0], name=header.get("name", ""))
        for state in states:
            ts.add_state(state, _state_db(state))
        for source, target, label in edges:
            ts.add_edge(states[source], states[target], label)
        for position in last_chunk["truncated"]:
            ts.mark_truncated(states[position])
        frontier = [(states[position], depth)
                    for position, depth in last_chunk["frontier"]]
    final = last_chunk.get("final")
    if final is not None:
        ts.exploration_stats = final["exploration_stats"]
    return RestoredRun(
        ts=ts, frontier=frontier, stats=last_chunk["stats"],
        complete=bool(manifest.get("complete")), final=final,
        header=header, manifest=manifest, states=states,
        state_count=count)


def _check_header(header: Dict[str, Any], generator, explorer) -> None:
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint header version {header.get('version')} is not "
            f"supported (expected {CHECKPOINT_VERSION})")
    signature = _signature_of(generator)
    if header["signature"] != signature:
        raise CheckpointError(
            "checkpoint belongs to a different specification "
            f"(stored signature {_signature_sha(header['signature'])}, "
            f"resuming spec {_signature_sha(signature)})")
    if header["generator"] != type(generator).__name__:
        raise CheckpointError(
            f"checkpoint was written by {header['generator']}, cannot "
            f"resume with {type(generator).__name__}")
    if header["symmetry_values"] != getattr(
            generator, "symmetry_values", None):
        raise CheckpointError(
            "checkpoint was written with a different value pool")
    for attribute in ("strategy", "max_depth"):
        if header[attribute] != getattr(explorer, attribute):
            raise CheckpointError(
                f"checkpoint {attribute}={header[attribute]!r} does not "
                f"match the resuming explorer "
                f"({getattr(explorer, attribute)!r})")


def _snapshot_kernel(header: Dict[str, Any], generator):
    """The resuming process's kernel, its term table re-anchored on the
    header's snapshot so coded records decode against it."""
    dcds = getattr(generator, "dcds", None)
    kernel = kernel_for(dcds) if dcds is not None else None
    if kernel is None:
        raise CheckpointError(
            f"checkpoint was written with the {header['codec']!r} codec but "
            f"no kernel is available to decode it (REPRO_NO_KERNEL set?)")
    try:
        kernel.table.replay(header["snapshot"])
    except (ValueError, AssertionError) as error:
        raise CheckpointError(
            f"checkpoint term-table snapshot does not align with this "
            f"process's kernel: {error}") from error
    return kernel


def _loader_session(header: Dict[str, Any], generator
                    ) -> Optional[WireSession]:
    if header["codec"] != "wire":
        return None
    kernel = _snapshot_kernel(header, generator)
    return WireSession(WireCodec(kernel, len(header["snapshot"])))
