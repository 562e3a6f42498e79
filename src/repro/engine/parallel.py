"""Parallel sharded state-space exploration.

:class:`ParallelExplorer` distributes the *expansion* work of the frontier
loop — ``generator.successors(state)``, the expensive part: FOL evaluation,
``DO()``, commitment enumeration, constraint checks — across a
``multiprocessing`` worker pool, while the coordinator keeps sole ownership
of everything order-sensitive: state interning (``successor not in ts``),
edge insertion, growth accounting, budgets, truncation marking, and the
observer hook.

Determinism contract
--------------------
The constructed transition system is **bit-identical** to a sequential
:class:`repro.engine.Explorer` run with the same configuration, for any
worker count:

* work items are popped from the frontier in exactly the sequential BFS
  order and dispatched as batches; results are *applied* strictly in the
  order the items were popped, so interning, edge, growth-trace, and
  observer events replay the sequential interleaving verbatim;
* workers never intern — they only expand, and the supported generators
  (``parallel_safe = True``) yield successors in an order that depends
  only on the state (all orderings are repr/``value_sort_key`` based,
  never hash-order, so per-process ``PYTHONHASHSEED`` cannot leak in);
* a budget or early-stop event mid-batch discards the not-yet-applied
  results of that batch and of every in-flight batch — speculative worker
  results never leak un-interned states into the transition system.

RCYCL is deliberately excluded: its used-value candidate pool makes every
expansion depend on the global discovery order, which is inherently
sequential (``RcyclGenerator.parallel_safe`` is ``False``).

Transport
---------
Each worker is a dedicated process with its own duplex pipe, so traffic per
worker is FIFO — the property the wire codec's token protocol
(:class:`repro.engine.wire.WireSession`) is built on: both pipe ends
register states in the same event order and afterwards refer to them by
small integer tokens instead of re-encoding. Batches are routed to the
worker that already knows most of their states (affinity), which makes the
common dispatch a stream of tokens. The codec needs the generator's DCDS
kernel, so a run without one (``REPRO_NO_KERNEL``) is never sharded: it
takes the in-process path of ``workers=1``.

The frontier loop itself is :meth:`Explorer._run_blocks`, shared with the
in-process batched driver; this module only supplies its pool expander
(:class:`_PoolExpander`), which submits each popped batch to a worker and
collects the decoded successor lists when the loop reaches the batch.

The ``fork`` start method is preferred where available (workers inherit the
warmed kernel interners and ``lru_cache`` memo tables for free) with
``spawn`` supported elsewhere — which is why the relational layer's
``__reduce__`` implementations must drop per-process cached hashes and the
kernel construction order is deterministic (snapshot replay).

Supervision and recovery
------------------------
Links are supervised: every coordinator-side receive runs a liveness poll
loop (``dispatch_timeout`` deadline, ``is_alive``/exitcode checks, a
``send_failed`` flag raised by the sender thread instead of the old silent
swallow), so a dead, hung, or unreachable worker surfaces as a structured
:class:`~repro.errors.WorkerCrashError` instead of blocking forever. A
failed link is *recycled* — terminated (``kill()`` backstop, never a
zombie), replaced by a fresh process with a fresh symmetric
:class:`WireSession` — and every batch that was awaiting a reply on it is
re-encoded and redispatched to the surviving pool, with exponential
backoff and a per-batch ``retry_limit``.

Redispatch preserves the determinism contract for free: expansion is a
pure function of the dispatched states, and results are applied in pop
order regardless of which link computed them. The one subtlety is token
alignment — replies on a link must be decoded in that link's *send* order
(the worker processes its pipe FIFO), which after a redispatch is no
longer the global apply order. Each link therefore keeps a ``pending``
queue of its unanswered batches: replies are decoded against the queue
head (keeping the session's result space aligned) and parked on the batch
record until the apply loop reaches it.

Failure taxonomy at the receive site:

* ``WorkerCrashError`` (died / hung / send-failed) — recycle + redispatch;
* :class:`~repro.errors.WireIntegrityError` — a corrupted frame; the CRC
  check fires *before* any token registration, but the two ends of the
  link can no longer be trusted to agree, so the link is recycled too;
* relayed ``MemoryError`` — transient pressure; recycling the worker
  frees its memory and the batch retries after backoff;
* any other relayed exception is deterministic (a sequential run would
  hit it on the same state) and propagates unchanged.

Fault injection (``REPRO_FAULTS``, :mod:`repro.engine.faults`) drives all
of these paths deterministically in the chaos tests; respawned
replacement workers never carry a fault schedule, so recovery always can
converge.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional

from repro.errors import ReproError, WireIntegrityError, WorkerCrashError
from repro.engine.explorer import (
    BudgetError, ExplorationResult, Explorer, SuccessorGenerator, _Batch,
    _default_budget_error)
from repro.engine.faults import FaultPlan, WorkerFaults
from repro.engine.wire import WireCodec, WireSession, make_codec
from repro.relational.instance import Instance
from repro.relational.kernel import kernel_for
from repro.relational.schema import DatabaseSchema
from repro.semantics.transition_system import State

#: Liveness poll slice while waiting for a reply: how often the receive
#: loop re-checks worker aliveness, the send-failed flag, and the dispatch
#: deadline. Data arriving mid-slice wakes ``poll`` immediately, so the
#: fault-free hot path pays at most one slice of latency per reply.
_POLL_INTERVAL = 0.05


def _worker_main(conn, generator: SuccessorGenerator,
                 snapshot: list, index: int = 0,
                 faults: Optional[WorkerFaults] = None) -> None:
    """Worker loop: receive a batch payload, expand, reply; ``None`` exits.

    Exceptions are relayed to the coordinator (tagged ``"exc"``) instead of
    killing the link silently. ``faults`` is this worker's injection
    schedule (chaos tests only): counted per dispatch before expansion,
    and applied to the encoded reply bytes.
    """
    kernel = kernel_for(generator.dcds)
    # Fork: the inherited table *is* the snapshot (replay verifies) — or a
    # longer table when this worker is a mid-run respawn, in which case
    # replay checks the prefix. Spawn: the freshly built kernel interned
    # the deterministic constructor prefix; replay appends the
    # coordinator's exploration-time codes in order, asserting alignment.
    kernel.table.replay(snapshot)
    session = WireSession(WireCodec(kernel, len(snapshot)), index)
    while True:
        payload = conn.recv()
        if payload is None:
            return
        try:
            if faults is not None:
                faults.before_dispatch()
            states, parents = session.decode_dispatch(payload)
            # Batched grounding: the whole dispatch block is warmed in one
            # columnar pass, like the in-process block driver.
            results = generator.successors_batch(states)
            reply = session.encode_results(parents, results)
            if faults is not None:
                reply = faults.mangle_reply(reply)
                if reply is None:  # injected message drop
                    continue
            conn.send(("ok", reply))
        except BaseException as error:  # relayed, not swallowed
            try:
                conn.send(("exc", error))
            except Exception:
                # Unpicklable exception: relay a picklable stand-in so
                # the coordinator sees the message, not a dead pipe.
                conn.send(("exc", ReproError(
                    f"worker failed with unpicklable "
                    f"{type(error).__name__}: {error}")))


class _WorkerLink:
    """One dedicated worker process and its coordinator-side session.

    Dispatches go through a per-link sender thread, so the coordinator
    never blocks in ``conn.send`` — without it, a worker stuck sending a
    large reply (pipe buffer full, coordinator not reading yet) and a
    coordinator stuck sending the next large dispatch would deadlock.
    Every worker process is started before any sender thread exists (see
    ``_PoolExpander._start_links``): forking with live threads risks
    inheriting held locks. (A mid-run respawn *does* fork with sender
    threads alive; the child only ever touches its own pipe end and
    imports nothing lazily, so none of the parent's per-link locks can be
    needed.)

    ``pending`` is the supervision ledger: the link's unanswered batches
    in send order. Replies decode against its head (token alignment), and
    on failure it is exactly the set of batches to redispatch.
    """

    __slots__ = ("index", "process", "conn", "session", "pending",
                 "send_failed", "_outbox", "_sender")

    def __init__(self, context, generator: SuccessorGenerator,
                 snapshot: list, codec: WireCodec,
                 index: int = 0, faults: Optional[WorkerFaults] = None):
        self.index = index
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, generator, snapshot, index, faults),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.session = WireSession(codec, index)
        self.pending: "deque[_Batch]" = deque()
        self.send_failed = threading.Event()
        self._outbox: "queue.Queue" = queue.Queue()
        self._sender: Optional[threading.Thread] = None

    def start_sender(self) -> None:
        self._sender = threading.Thread(target=self._send_loop, daemon=True)
        self._sender.start()

    def _send_loop(self) -> None:
        while True:
            payload = self._outbox.get()
            try:
                # ``None`` is forwarded: it is the worker's exit sentinel.
                self.conn.send(payload)
            except (BrokenPipeError, OSError):
                # Worker gone. Flag it — the supervisor's receive loop
                # turns the flag into a structured WorkerCrashError; the
                # old behaviour (silent return) left the coordinator
                # blocked in recv until EOF happened to arrive.
                if payload is not None:
                    self.send_failed.set()
                return
            if payload is None:
                return

    def send(self, payload) -> None:
        self._outbox.put(payload)

    def receive(self, timeout: Optional[float] = None):
        """The next raw reply payload, supervised.

        Polls in :data:`_POLL_INTERVAL` slices so worker death (process
        exit, broken send pipe) and the ``timeout`` deadline are noticed
        while waiting; raises :class:`WorkerCrashError` for all three,
        and re-raises relayed worker exceptions (``"exc"`` frames)
        unchanged.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while not self.conn.poll(_POLL_INTERVAL):
            if self.send_failed.is_set():
                raise WorkerCrashError(
                    f"worker {self.index}: dispatch pipe broke mid-send "
                    f"with {len(self.pending)} batch(es) in flight",
                    worker=self.index, reason="send-failed",
                    exitcode=self.process.exitcode,
                    batches_lost=len(self.pending))
            if not self.process.is_alive() and not self.conn.poll(0):
                raise WorkerCrashError(
                    f"worker {self.index} died (exitcode "
                    f"{self.process.exitcode}) with {len(self.pending)} "
                    f"batch(es) in flight",
                    worker=self.index, reason="died",
                    exitcode=self.process.exitcode,
                    batches_lost=len(self.pending))
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"worker {self.index} hung: no reply within the "
                    f"{timeout:g}s dispatch timeout, {len(self.pending)} "
                    f"batch(es) in flight",
                    worker=self.index, reason="hung",
                    exitcode=self.process.exitcode,
                    batches_lost=len(self.pending))
        try:
            tag, payload = self.conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrashError(
                f"worker {self.index} died mid-reply "
                f"({type(error).__name__}) with {len(self.pending)} "
                f"batch(es) in flight",
                worker=self.index, reason="died",
                exitcode=self.process.exitcode,
                batches_lost=len(self.pending)) from error
        if tag == "exc":
            raise payload
        return payload

    def shutdown(self, graceful: bool = True) -> None:
        """Stop the worker; never hangs, never leaves a zombie.

        Graceful first (``graceful=True``): the exit sentinel travels
        through the sender thread (the pipe is never written from two
        threads) and the process gets a short join. A worker that will
        not read it — blocked mid-send, hung, already crashed — is
        terminated, with ``kill()`` as the backstop for a process that
        ignores SIGTERM; every path ends in a full ``join``, so no
        zombie survives (the old ``join(timeout=1.0)``-then-``terminate``
        sequence could leak one when terminate lost a race with a
        stuck-in-send child). Killing the process breaks the pipe, which
        also unblocks a sender thread stuck in ``send``.
        """
        if graceful:
            self._outbox.put(None)
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        if not graceful:
            # Release a sender thread parked in ``get`` (the broken pipe
            # already released one parked in ``send``).
            self._outbox.put(None)
        if self._sender is not None:
            self._sender.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:
            pass


def make_explorer(schema: DatabaseSchema, workers: Optional[int] = None,
                  batch_size: int = 16, **kwargs: Any) -> Explorer:
    """The one ``workers=``-dispatch point for the builder entry points.

    ``workers=None`` (the default everywhere) is the sequential
    :class:`Explorer`; an explicit count is a sharded
    :class:`ParallelExplorer`. ``kwargs`` are the shared :class:`Explorer`
    configuration (name, budgets, observer, ...).
    """
    if workers is None:
        return Explorer(schema, **kwargs)
    return ParallelExplorer(
        schema, workers=workers, batch_size=batch_size, **kwargs)


def default_workers() -> int:
    """Worker-count default: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


class ParallelExplorer(Explorer):
    """A drop-in :class:`Explorer` whose expansions run on a worker pool.

    Parameters beyond :class:`Explorer` (strategy is fixed to the paper's
    BFS order — sharding a DFS frontier would reorder discoveries):

    workers:
        Pool size (default: :func:`default_workers`). ``workers=1``
        short-circuits to the in-process driver of :class:`Explorer` —
        one worker cannot overlap with the coordinator, so a subprocess
        round trip is pure overhead (measured 0.61–0.91x in PR 4). The
        same path serves a generator without a DCDS kernel, which the
        wire codec needs. Both record ``codec="inline"`` with zero IPC
        bytes; the dispatch machinery itself is pinned by the
        differential harness at ``workers>=2``.
    batch_size:
        Work items per dispatched batch. Batches amortize IPC: each round
        trip ships ``batch_size`` states out and their successor lists back.
    max_inflight:
        Dispatch window (default ``2 * workers`` batches) — how far the
        coordinator runs ahead of the oldest unapplied batch. Bounds both
        memory and the speculative work discarded on budget/early-stop.
    start_method:
        ``multiprocessing`` start method (default: ``fork`` when available).
    dispatch_timeout:
        Seconds a link may stay silent (while owed a reply) before it is
        declared hung and recycled. Generous by default — a legitimate
        expansion of a huge instance must never trip it.
    retry_limit:
        How many times one batch may be redispatched after link failures
        before the run gives up with ``reason="retries-exhausted"``.
        ``0`` disables recovery: the first failure propagates.
    retry_backoff:
        Base backoff in seconds before redispatching; doubles with each
        retry of the failing batch (``backoff * 2**(retries-1)``).
    faults:
        A :class:`~repro.engine.faults.FaultPlan` injected into the
        worker pool (chaos tests / benchmarks). Default: parsed from
        ``REPRO_FAULTS`` at run time; ``None`` there too in production.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        name: str = "",
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        on_budget: str = "raise",
        budget_error: BudgetError = _default_budget_error,
        observer: Optional[
            Callable[[State, Instance], Optional[str]]] = None,
        workers: Optional[int] = None,
        batch_size: int = 16,
        max_inflight: Optional[int] = None,
        start_method: Optional[str] = None,
        dispatch_timeout: float = 120.0,
        retry_limit: int = 3,
        retry_backoff: float = 0.05,
        faults: Optional[FaultPlan] = None,
        checkpoint=None,
        memory_budget: Optional[int] = None,
    ):
        super().__init__(
            schema, name=name, max_states=max_states, max_depth=max_depth,
            on_budget=on_budget, budget_error=budget_error, strategy="bfs",
            observer=observer, checkpoint=checkpoint,
            memory_budget=memory_budget)
        if workers is not None and workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if batch_size < 1:
            raise ReproError(f"batch_size must be >= 1, got {batch_size}")
        if max_inflight is not None and max_inflight < 1:
            raise ReproError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if dispatch_timeout <= 0:
            raise ReproError(
                f"dispatch_timeout must be > 0, got {dispatch_timeout}")
        if retry_limit < 0:
            raise ReproError(
                f"retry_limit must be >= 0, got {retry_limit}")
        if retry_backoff < 0:
            raise ReproError(
                f"retry_backoff must be >= 0, got {retry_backoff}")
        self.workers = workers if workers is not None else default_workers()
        self.batch_size = batch_size
        self.max_inflight = max_inflight if max_inflight is not None \
            else 2 * self.workers
        if start_method is None:
            start_method = "fork" \
                if "fork" in multiprocessing.get_all_start_methods() \
                else None
        self.start_method = start_method
        self.dispatch_timeout = dispatch_timeout
        self.retry_limit = retry_limit
        self.retry_backoff = retry_backoff
        self.faults = faults

    def _initial_parallel_stats(self, codec: str) -> dict:
        """One schema for the pool counters, whatever the transport —
        consumers read abstraction_stats["parallel"] keys uniformly."""
        return {
            "workers": self.workers,
            "batch_size": self.batch_size,
            "batches": 0,
            "speculative_states_discarded": 0,
            "codec": codec,
            "states_shipped": 0,
            "ipc_bytes_sent": 0,
            "ipc_bytes_received": 0,
            "coordinator_decode_sec": 0.0,
            "coordinator_apply_sec": 0.0,
            # Supervision counters: link failures survived (by reason),
            # replacement workers started, batches re-sent after a
            # failure, corrupted frames rejected by the CRC check, and
            # the wall-clock the coordinator spent recovering.
            "crashes": 0,
            "respawns": 0,
            "redispatches": 0,
            "integrity_errors": 0,
            "recovery_sec": 0.0,
        }

    def run(self, generator: SuccessorGenerator) -> ExplorationResult:
        if not getattr(generator, "parallel_safe", False):
            raise ReproError(
                f"{type(generator).__name__} is not parallel-safe "
                f"(order-dependent expansion state); use the sequential "
                f"Explorer")
        dcds = getattr(generator, "dcds", None)
        if self.workers == 1 or dcds is None or kernel_for(dcds) is None:
            # A single worker cannot overlap with the coordinator, so the
            # pipe round trip is pure overhead; without a kernel there is
            # no wire codec to ship states with. Either way run the
            # in-process driver — same interning/edge/growth/observer
            # order by construction — and record an inline transport.
            self.stats.parallel = self._initial_parallel_stats("inline")
            return super().run(generator)
        self.stats.parallel = self._initial_parallel_stats("wire")
        return self._run_blocks(
            generator, _PoolExpander(self, generator), self.batch_size,
            self.max_inflight)


class _PoolExpander:
    """The block loop's expander for a supervised worker pool.

    ``submit`` routes a batch to a worker and queues its encoded dispatch;
    ``collect`` drains replies until that batch's successor lists are
    decoded, recovering failed links in place. The links (and the codec,
    whose table snapshot is taken at fork/spawn time, so snapshot codes
    are shared vocabulary) start lazily with the first batch that has
    anything to expand: an early-stopped or depth-zero run (e.g. an
    on-the-fly witness on the initial state) never pays worker startup.
    The pool counters of ``stats.parallel`` are this object's to keep.
    """

    def __init__(self, explorer: ParallelExplorer,
                 generator: SuccessorGenerator):
        self.explorer = explorer
        self.generator = generator
        self.stats = explorer.stats.parallel
        self.context = multiprocessing.get_context(explorer.start_method)
        self.links: List[_WorkerLink] = []
        self.codec: Optional[WireCodec] = None
        self.snapshot: list = []  # kept for the run: respawns replay it

    def submit(self, batch: _Batch) -> None:
        self.stats["batches"] += 1
        if not batch.expandable:
            batch.results = []
            return
        if not self.links:
            self._start_links()
        self._dispatch(batch, self._route(batch.expandable))

    def collect(self, batch: _Batch) -> list:
        """Drain the batch's link until this batch's results are decoded.

        Replies are decoded against the head of the link's ``pending``
        queue — the link's own send order, which keeps both sessions'
        token spaces aligned — and parked on each batch record; after a
        redispatch the wanted batch may sit behind globally-newer ones,
        so this can decode (and park) several replies before returning.
        Link failures recover in place: recycle, redispatch, continue
        waiting on whichever link now owns the batch.
        """
        stats = self.stats
        while batch.results is None:
            link = batch.link
            head = link.pending[0]
            try:
                payload = link.receive(self.explorer.dispatch_timeout)
                stats["ipc_bytes_received"] += len(payload)
                decode_started = time.perf_counter()
                decoded = link.session.decode_results(payload, head.parents)
                stats["coordinator_decode_sec"] += \
                    time.perf_counter() - decode_started
            except (WorkerCrashError, WireIntegrityError,
                    MemoryError) as error:
                # A relayed MemoryError is transient by contract: the
                # recycle frees the worker's memory and the batch retries
                # after backoff. (Any other relayed exception is
                # deterministic and propagates: a sequential run would
                # raise it on the same state.)
                if isinstance(error, WireIntegrityError):
                    stats["integrity_errors"] += 1
                self._recover(link, error)
                continue
            head.results = decoded
            link.pending.popleft()
        return batch.results

    def applied(self, seconds: float, discarded: int) -> None:
        self.stats["coordinator_apply_sec"] += seconds
        self.stats["speculative_states_discarded"] += discarded

    def close(self) -> None:
        for link in self.links:
            link.shutdown()

    # -- start / dispatch / recovery ----------------------------------------

    def _start_links(self) -> None:
        """Fork/spawn every worker first, then start the sender threads."""
        self.codec = make_codec(self.generator)
        self.snapshot = self.codec.snapshot()
        plan = self.explorer.faults if self.explorer.faults is not None \
            else FaultPlan.from_env()
        self.links = [
            _WorkerLink(self.context, self.generator, self.snapshot,
                        self.codec, index,
                        plan.for_worker(index) if plan is not None else None)
            for index in range(self.explorer.workers)]
        for link in self.links:
            link.start_sender()

    def _dispatch(self, batch: _Batch, link: _WorkerLink) -> None:
        """Encode the batch on the link's session and queue it for send."""
        payload, batch.parents = link.session.encode_dispatch(
            batch.expandable)
        batch.link = link
        self.stats["ipc_bytes_sent"] += len(payload)
        self.stats["states_shipped"] += len(batch.expandable)
        link.send(payload)
        link.pending.append(batch)

    def _recover(self, link: _WorkerLink, error: BaseException) -> None:
        """Recycle a failed link and redispatch everything it owed.

        The replacement process replays the run's original codec snapshot
        (shared vocabulary) behind a fresh symmetric session, and never
        inherits a fault schedule. Lost batches re-encode on whichever
        link the router picks — token-or-full encoding makes any session
        valid — with retry accounting and exponential backoff charged to
        the batch that was actually being expanded when the link failed
        (its collateral queue-mates redispatch for free).
        """
        stats = self.stats
        retry_limit = self.explorer.retry_limit
        recovery_started = time.perf_counter()
        lost = list(link.pending)
        link.pending.clear()
        link.shutdown(graceful=False)
        replacement = _WorkerLink(
            self.context, self.generator, self.snapshot, self.codec,
            link.index, None)
        replacement.start_sender()
        self.links[link.index] = replacement
        stats["crashes"] += 1
        stats["respawns"] += 1
        try:
            if lost:
                head = lost[0]
                head.retries += 1
                if head.retries > retry_limit:
                    raise WorkerCrashError(
                        f"batch exhausted its retry budget "
                        f"({retry_limit}) after worker {link.index} "
                        f"failed: {error}",
                        worker=link.index, reason="retries-exhausted",
                        exitcode=link.process.exitcode,
                        batches_lost=len(lost)) from error
                backoff = self.explorer.retry_backoff \
                    * (2 ** (head.retries - 1))
                if backoff:
                    time.sleep(backoff)
                for lost_batch in lost:
                    self._dispatch(
                        lost_batch, self._route(lost_batch.expandable))
                    stats["redispatches"] += 1
        finally:
            stats["recovery_sec"] += time.perf_counter() - recovery_started

    def _route(self, expandable: List[State]) -> _WorkerLink:
        """Pick the worker for a batch: load first, affinity second.

        Affinity (a state travels as a token to a worker that already
        knows it) must never override load balance: in a fresh run every
        state is first known only to the worker that produced it, so
        affinity-first routing would transitively pin the whole
        exploration to one process. Instead the batch goes to the
        highest-affinity link *among the least-loaded ones*.
        """
        links = self.links
        if len(links) == 1:
            return links[0]
        least = min(len(link.pending) for link in links)
        best = None
        best_score = -1
        for link in links:
            if len(link.pending) > least:
                continue
            knows = link.session.knows
            score = sum(1 for state in expandable if knows(state))
            if score > best_score:
                best = link
                best_score = score
        return best
