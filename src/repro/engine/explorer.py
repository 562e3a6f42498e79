"""The unified state-space exploration engine.

Every decidable route of the paper's Table 1 — the deterministic abstraction
of Theorems 4.3/4.4, Algorithm RCYCL of Theorem 5.4, and the concrete
pool/oracle validation runs — is a frontier-based construction of a
transition system. :class:`Explorer` owns that loop once: the frontier
(BFS by default, DFS on request), state interning, depth/state budgets,
truncation marking, and progress statistics. What varies between the routes
is only how successors of a state are produced, captured by the
:class:`SuccessorGenerator` protocol (implementations live in
:mod:`repro.engine.generators`).

Budget behaviour is pluggable: ``on_budget="raise"`` turns an exceeded
budget into an exception built by ``budget_error`` (the divergence fuse of
the deterministic abstraction), while ``on_budget="truncate"`` stops the
exploration, marks the unexpanded frontier as truncated, and reports
``diverged=True`` (RCYCL's graceful mode).
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple)

from repro import env
from repro.errors import AbstractionDiverged, CheckpointError, ReproError
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema
from repro.semantics.transition_system import State, TransitionSystem

#: Frontier entries popped per batched expansion round. Large enough that
#: a kernel-backed generator's block warm amortizes the per-plan columnar
#: setup across many sibling states; small enough that one block's
#: successor lists stay a modest working set.
BATCH_BLOCK = 64


class ExplorationBudgetExceeded(Exception):
    """Raised by a generator that exhausted its own budget (e.g. RCYCL's
    iteration fuse); the :class:`Explorer` converts it into its configured
    budget behaviour."""


class SuccessorGenerator:
    """Protocol for the pluggable successor semantics.

    Implementations yield ``(state, instance, label)`` triples from
    :meth:`successors`; the Explorer consumes them lazily and calls
    :meth:`on_new_state` the moment a previously unseen state is interned,
    so stateful generators (RCYCL's used-value pool) observe discoveries in
    exactly the order the seed algorithms did.

    ``parallel_safe`` declares that :meth:`successors` is a pure function of
    the state (no mutable cross-expansion state, picklable configuration,
    never raises :class:`ExplorationBudgetExceeded`), so expansions may be
    delegated to :class:`repro.engine.parallel.ParallelExplorer` workers.
    RCYCL is *not* parallel-safe — its used-value pool makes each expansion
    depend on the discovery order — and oracle runs are path-shaped, so
    there is nothing to shard.

    ``quotient_safe`` declares that the generator's states carry their full
    value history (the ``<I, M>`` call map), which is what makes merging
    isomorphic states persistence-preserving: the call map embeds every
    value ever seen, so a joint-state isomorphism is forced to thread
    consistently through all future moves. Plain-instance generators must
    stay ``False`` — without the history, a state quotient conflates
    "value persists" with "value is replaced by an isomorphic twin"
    transitions and breaks µLP (see :mod:`repro.engine.symmetry` for the
    two-line counterexample); value symmetry for nondeterministic services
    is what RCYCL's recycling already provides.

    ``symmetry_values`` declares the closed value universe the generator
    draws call results from (the finite-pool semantics), or ``None`` for
    open fresh-value minting. The symmetry layer
    (:class:`repro.engine.symmetry.SymmetryReducer`) must pick canonical
    names *inside* that universe: renaming a pool value to a fresh name
    would put the class representative outside the pool and change its
    successor set (e.g. lose the "call returns the value already present"
    self-loop).
    """

    parallel_safe = False
    quotient_safe = False
    symmetry_values: Optional[tuple] = None

    def initial_state(self) -> Tuple[State, Instance]:
        raise NotImplementedError

    def successors(self, state: State
                   ) -> Iterable[Tuple[State, Instance, Optional[str]]]:
        raise NotImplementedError

    def successors_batch(self, states: List[State]
                         ) -> List[List[Tuple[State, Instance,
                                              Optional[str]]]]:
        """Successor lists of a frontier block, in block order.

        The default is the per-state loop — identical to repeated
        :meth:`successors` calls by definition, so generators without a
        batched grounding path (RCYCL, oracle runs) are untouched.
        Kernel-backed generators override this to warm the kernel's
        rule/effect memos for the whole block in one columnar pass first
        (see :func:`repro.engine.generators.warm_frontier_block`); the
        per-state calls then replay from the warmed memos, keeping results
        bit-identical by construction.
        """
        return [list(self.successors(state)) for state in states]

    def on_new_state(self, state: State, instance: Instance) -> None:
        """Hook invoked once per newly discovered state (default: no-op)."""


@dataclass
class ExplorationStats:
    """Progress counters of one :meth:`Explorer.run`."""

    states: int = 0
    edges: int = 0
    expansions: int = 0
    frontier_peak: int = 0
    duration: float = 0.0
    growth: List[int] = field(default_factory=list)
    diverged: bool = False
    strategy: str = "bfs"
    intern: Dict[str, Any] = field(default_factory=dict)
    early_stop: Optional[str] = None
    #: Filled by :class:`repro.engine.parallel.ParallelExplorer` with worker
    #: pool counters (workers, batches, speculative waste).
    parallel: Dict[str, Any] = field(default_factory=dict)
    #: Filled by a memory-budgeted run with the paged store's counters
    #: (pages written/read, rehydrations, evictions, budget high water).
    store: Dict[str, Any] = field(default_factory=dict)

    @property
    def states_per_sec(self) -> float:
        return self.states / self.duration if self.duration > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        result = {
            "explored_states": self.states,
            "explored_edges": self.edges,
            "expansions": self.expansions,
            "frontier_peak": self.frontier_peak,
            "duration_sec": self.duration,
            "states_per_sec": self.states_per_sec,
            "growth_trace": tuple(self.growth),
            "diverged": self.diverged,
            "strategy": self.strategy,
        }
        if self.intern:
            result["intern"] = dict(self.intern)
        if self.early_stop is not None:
            result["early_stop"] = self.early_stop
        if self.parallel:
            result["parallel"] = dict(self.parallel)
        if self.store:
            result["store"] = dict(self.store)
        return result


@dataclass
class ExplorationResult:
    """A constructed transition system plus how its construction went."""

    transition_system: TransitionSystem
    stats: ExplorationStats

    @property
    def diverged(self) -> bool:
        return self.stats.diverged


class _Batch:
    """One frontier block of :meth:`Explorer._run_blocks`, pop to apply.

    ``entries`` are popped ``(key, depth, expand)`` triples, keyed like
    the frontier (live states, or state ids in store mode);
    ``expandable`` the live states to expand; ``results`` their successor
    lists. ``link``/``parents``/``retries`` are the pool expander's
    dispatch record (worker, session context, redispatch count).
    """

    __slots__ = ("entries", "expandable", "results", "link", "parents",
                 "retries")

    def __init__(self, entries: List[Tuple[Any, int, bool]],
                 expandable: List[State]):
        self.entries = entries
        self.expandable = expandable
        self.results: Optional[list] = None
        self.link = None
        self.parents = None
        self.retries = 0


class LocalExpander:
    """The block loop's in-process expander: ``successors_batch`` at
    submit time (one warmed columnar pass for kernel-backed generators).

    The expander protocol: ``submit(batch)``, ``collect(batch)`` (the
    successor lists), ``applied(seconds, discarded)`` (apply time and
    expandable entries dropped on a stop, per batch) and ``close()``.
    """

    def __init__(self, generator: SuccessorGenerator):
        self.generator = generator

    def submit(self, batch: _Batch) -> None:
        batch.results = self.generator.successors_batch(batch.expandable)

    def collect(self, batch: _Batch) -> list:
        return batch.results

    def applied(self, seconds: float, discarded: int) -> None:
        pass

    def close(self) -> None:
        pass


BudgetError = Callable[["Explorer"], Exception]


def _default_budget_error(explorer: "Explorer") -> Exception:
    return AbstractionDiverged(
        f"exploration exceeded {explorer.max_states} states",
        growth_trace=tuple(explorer.stats.growth),
        partial_states=len(explorer.ts))


class Explorer:
    """Owns the frontier loop shared by all Table 1 constructions.

    Parameters
    ----------
    schema:
        Database schema the produced transition system is checked against.
    name:
        Name of the produced transition system.
    max_states:
        Divergence fuse; ``None`` disables it. The budget trips when the
        number of states *exceeds* ``max_states`` (seed convention).
    max_depth:
        Optional truncation bound: states at this depth are marked truncated
        and not expanded.
    on_budget:
        ``"raise"`` (raise ``budget_error(self)``) or ``"truncate"`` (stop,
        mark the remaining frontier truncated, report ``diverged``).
    budget_error:
        Exception factory used by ``on_budget="raise"``.
    strategy:
        ``"bfs"`` (paper order, default) or ``"dfs"``.
    observer:
        Optional ``(state, instance) -> Optional[str]`` hook, invoked once
        per discovered state (including the initial one). Returning a
        non-``None`` reason stops the exploration cleanly: the remaining
        frontier is marked truncated and the reason is recorded in
        ``stats.early_stop``. The on-the-fly verification route uses this to
        terminate on a witness or refutation. Contract relied on by the
        witness layer: a state is interned and its incoming edge recorded
        *before* the observer sees it (see ``_apply_successors``), so even
        an early-stopped partial transition system contains a full run from
        the initial state to the stopping state — and BFS discovery order
        makes that run minimal. ``tests/test_witness.py`` pins this.
    checkpoint:
        Optional crash-safe persistence: a filesystem path (or a
        :class:`repro.engine.checkpoint.Checkpoint` handle) where the
        run's progress is periodically written. When the path already
        holds a valid checkpoint for the same specification and
        configuration, :meth:`run` *resumes* from it instead of starting
        over, and the finished build is bit-identical to an undisturbed
        one. Only pure (``parallel_safe``) generators are checkpointed —
        for others (RCYCL's order-dependent pool) the option is ignored,
        exactly like ``workers=``. See :mod:`repro.engine.checkpoint`.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        name: str = "",
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        on_budget: str = "raise",
        budget_error: BudgetError = _default_budget_error,
        strategy: str = "bfs",
        observer: Optional[
            Callable[[State, Instance], Optional[str]]] = None,
        checkpoint=None,
        memory_budget: Optional[int] = None,
    ):
        if on_budget not in ("raise", "truncate"):
            raise ReproError(f"unknown budget behaviour {on_budget!r}")
        if strategy not in ("bfs", "dfs"):
            raise ReproError(f"unknown frontier strategy {strategy!r}")
        self.schema = schema
        self.name = name
        self.max_states = max_states
        self.max_depth = max_depth
        self.on_budget = on_budget
        self.budget_error = budget_error
        self.strategy = strategy
        self.observer = observer
        if checkpoint is not None:
            from repro.engine.checkpoint import Checkpoint
            checkpoint = Checkpoint.of(checkpoint)
        self.checkpoint = checkpoint
        self.memory_budget = memory_budget
        self._store = None
        self._memory_budget_account = None
        self._budget_detachers: List[Callable[[], None]] = []
        self._ckpt_writer = None
        self._ckpt_edges: Optional[List[Tuple[State, State,
                                              Optional[str]]]] = None
        self._restored_result: Optional[ExplorationResult] = None
        self.stats = ExplorationStats(strategy=strategy)
        self.ts: Optional[TransitionSystem] = None

    # -- the storage layer (out-of-core state store) ---------------------------

    def _setup_store(self, generator: SuccessorGenerator) -> None:
        """Switch this run to the paged state store when it qualifies.

        Store mode needs an effective ``memory_budget`` (explicit or the
        ``REPRO_MEMORY_BUDGET`` default), the paper's BFS order (frontier
        ids reload in pop order and edge sources arrive contiguously only
        under BFS), a pure (``parallel_safe``) generator (rehydration
        re-expands states, so expansion must be a function of the state
        alone), and a relational kernel (the canonical frame codec is
        coded-term based). Anything
        else keeps today's in-RAM path, exactly as before. Must run before
        the checkpoint load: a store-format checkpoint adopts its frames
        into the (still empty) store.
        """
        if self._store is not None:
            return
        from repro.engine.store import (
            MemoryBudget, PagedStore, resolve_memory_budget)
        budget_bytes = resolve_memory_budget(self.memory_budget)
        if budget_bytes is None:
            return
        if self.strategy != "bfs" \
                or not getattr(generator, "parallel_safe", False):
            return
        from repro.relational.kernel import kernel_for
        dcds = getattr(generator, "dcds", None)
        kernel = kernel_for(dcds) if dcds is not None else None
        if kernel is None:
            return
        budget = MemoryBudget(budget_bytes)
        self._memory_budget_account = budget
        self._store = PagedStore(kernel, budget)
        kernel.attach_memo_budget(budget)
        self._budget_detachers.append(kernel.detach_memo_budget)
        attach = getattr(generator, "attach_memory_budget", None)
        if attach is not None:
            attach(budget)
            self._budget_detachers.append(lambda: attach(None))

    def _demote_store(self) -> None:
        """Abandon store mode (a checkpoint written by a plain run is
        being resumed): detach the budget hooks and drop the empty store —
        the run continues exactly as an unbudgeted one."""
        store = self._store
        self._detach_budget()
        self._store = None
        self._memory_budget_account = None
        if store is not None:
            store.close()

    def _detach_budget(self) -> None:
        """Undo the kernel/generator budget hooks (end of run; the store
        itself stays alive — the returned transition system rehydrates
        through it on demand)."""
        detachers, self._budget_detachers = self._budget_detachers, []
        for detach in detachers:
            detach()

    def _entry_state(self, entry) -> Tuple[State, int, Optional[int]]:
        """``(state, depth, state-id)`` of a frontier entry.

        Plain mode keys the frontier by live state objects (id ``None``);
        store mode by dense state ids, rehydrated here in pop order — the
        spilled cold tail reloads through the store's hot LRU.
        """
        key, depth = entry
        if self._store is not None:
            return self.ts.fetch(key), depth, key
        return key, depth, None

    def _mark_entry_truncated(self, ts: TransitionSystem, entry) -> None:
        if self._store is not None:
            ts.mark_truncated_id(entry[0])
        else:
            ts.mark_truncated(entry[0])

    def _note_store_frontier(self, frontier) -> None:
        """Record how much of the frontier is cold (on pages only)."""
        store = self._store
        if store is None:
            return
        hot = store._hot
        store.note_frontier_cold(
            sum(1 for key, _ in frontier if key not in hot))

    # -- the one frontier loop ------------------------------------------------

    def _start(self, generator: SuccessorGenerator
               ) -> Tuple[TransitionSystem, deque]:
        """Intern the initial state and seed the frontier/stats/observer.

        With ``checkpoint=`` configured (and a pure generator), this is
        also the resume point: a valid on-disk checkpoint restores the
        transition system, frontier, and counters instead of a fresh
        start, and a writer is (re)opened for the rest of the run.
        """
        self._setup_store(generator)
        checkpointing = self.checkpoint is not None \
            and getattr(generator, "parallel_safe", False)
        if checkpointing:
            prepared = self._start_from_checkpoint(generator)
            if prepared is not None:
                return prepared
        initial, initial_db = generator.initial_state()
        if self._store is not None:
            from repro.engine.store import StoredTransitionSystem
            ts = StoredTransitionSystem(
                self.schema, initial, self._store, name=self.name)
            self.ts = ts
            first_key, _ = ts.intern_state(initial, initial_db)
        else:
            ts = TransitionSystem(self.schema, initial, name=self.name)
            self.ts = ts
            ts.add_state(initial, initial_db)
            first_key = initial
        self.stats.growth = [1]
        self.stats.frontier_peak = 1
        if self.observer is not None:
            self.stats.early_stop = self.observer(initial, initial_db)
        if checkpointing:
            from repro.engine.checkpoint import CheckpointWriter
            self._ckpt_writer = CheckpointWriter(
                self.checkpoint, generator, self)
            self._ckpt_edges = []
        return ts, deque([(first_key, 0)])

    def _start_from_checkpoint(self, generator: SuccessorGenerator
                               ) -> Optional[Tuple[TransitionSystem,
                                                   deque]]:
        """Restore from ``self.checkpoint`` (``None`` when no file yet).

        The observer is replayed over the restored discovery order —
        supported observers are pure functions of the state, so this
        reconstructs on-the-fly verification state exactly. A *complete*
        checkpoint short-circuits: the stored result is handed back by
        ``run`` without re-entering the loop.
        """
        from repro.engine.checkpoint import CheckpointWriter, load_checkpoint
        restored = load_checkpoint(self.checkpoint, generator, self)
        if restored is None:
            return None
        ts = restored.ts
        if self._store is not None and getattr(ts, "store", None) \
                is not self._store:
            # The checkpoint was written by a plain (wire/pickle) run:
            # the loader rebuilt an in-RAM transition system, so this
            # resumed run continues unbudgeted rather than re-encoding
            # everything mid-flight.
            self._demote_store()
        self.ts = ts
        stats = self.stats
        stats.growth = list(restored.stats["growth"])
        stats.expansions = restored.stats["expansions"]
        stats.edges = restored.stats["edges"]
        stats.frontier_peak = restored.stats["frontier_peak"]
        if self.observer is not None:
            if restored.states:
                for state in restored.states:
                    self.observer(state, ts.db(state))
            else:
                # Store-format restore: stream the discovery order through
                # the bounded hot LRU instead of holding a full list.
                for position in range(restored.state_count):
                    state = ts.fetch(position)
                    self.observer(state, ts.db(state))
        if restored.complete:
            final = restored.final or {}
            stats.states = len(ts)
            stats.diverged = bool(final.get("diverged"))
            stats.early_stop = final.get("early_stop")
            stats.duration = final.get("duration", 0.0)
            self._restored_result = ExplorationResult(ts, stats)
            return ts, deque()
        self._ckpt_writer = CheckpointWriter(
            self.checkpoint, generator, self, restored=restored)
        self._ckpt_edges = []
        return ts, deque(restored.frontier)

    def _apply_successors(self, generator: SuccessorGenerator,
                          ts: TransitionSystem, frontier: deque,
                          state: State, depth: int, successors,
                          pending: int = 0,
                          sid: Optional[int] = None) -> bool:
        """Apply one state's successor list; return True on budget hit.

        The single place interning, edge insertion, growth accounting, the
        observer hook, and the state budget happen — shared by the
        per-state loop and the block loop (:meth:`_run_blocks`, also the
        :class:`~repro.engine.parallel.ParallelExplorer` coordinator) so
        the two cannot drift apart (the parallel determinism contract is
        enforced by construction here). ``pending`` is the number of
        popped-but-unapplied work items beyond this one (always 0 in the
        per-state loop); adding it makes ``frontier_peak`` reflect the
        sequential frontier length.

        ``sid`` is the source's dense state id in store mode (``None``
        otherwise): interning then goes through the paged store and edges/
        frontier entries/truncation marks are id-level, in exactly the
        order the object-level branch would produce them — the storage
        layer's bit-identity is enforced here by construction too.
        """
        stats = self.stats
        ckpt_edges = self._ckpt_edges
        store_mode = sid is not None
        for successor, db, label in successors:
            if store_mode:
                target, is_new = ts.intern_state(successor, db)
                ts.add_edge_id(sid, target, label)
                edge_record = (sid, target, label)
                entry = (target, depth + 1)
            else:
                is_new = successor not in ts
                ts.add_state(successor, db)
                ts.add_edge(state, successor, label)
                edge_record = (state, successor, label)
                entry = (successor, depth + 1)
            if ckpt_edges is not None:
                ckpt_edges.append(edge_record)
            stats.edges += 1
            if not is_new:
                continue
            while len(stats.growth) <= depth + 1:
                stats.growth.append(0)
            stats.growth[depth + 1] += 1
            generator.on_new_state(successor, db)
            if self.observer is not None:
                stats.early_stop = self.observer(successor, db)
                if stats.early_stop is not None:
                    if store_mode:
                        ts.mark_truncated_id(sid)
                        ts.mark_truncated_id(target)
                    else:
                        ts.mark_truncated(state)
                        ts.mark_truncated(successor)
                    return False
            frontier.append(entry)
            effective = len(frontier) + pending
            if effective > stats.frontier_peak:
                stats.frontier_peak = effective
            if self.max_states is not None and len(ts) > self.max_states:
                return True
        return False

    def _finish(self, ts: TransitionSystem, frontier: deque,
                budget_hit: bool, started: float) -> ExplorationResult:
        """Shared run epilogue: budget/early-stop truncation and stats."""
        stats = self.stats
        stats.states = len(ts)
        stats.duration = time.perf_counter() - started
        if budget_hit:
            stats.diverged = True
            if self.on_budget == "raise":
                if self._ckpt_writer is not None:
                    # The divergence fuse is deterministic — resuming
                    # would trip it again — but the data written so far
                    # stays valid for inspection.
                    self._ckpt_writer.close()
                    self._ckpt_writer = None
                raise self.budget_error(self)
            for entry in frontier:
                self._mark_entry_truncated(ts, entry)
        elif stats.early_stop is not None:
            for entry in frontier:
                self._mark_entry_truncated(ts, entry)
        if self._store is not None:
            self._note_store_frontier(frontier)
            stats.store = self._store.stats_dict()
        ts.exploration_stats = stats.as_dict()
        if self._ckpt_writer is not None:
            self._ckpt_writer.finalize(ts, stats, self._ckpt_edges)
            self._ckpt_writer = None
            self._ckpt_edges = None
        return ExplorationResult(ts, stats)

    def run(self, generator: SuccessorGenerator) -> ExplorationResult:
        if self.strategy == "bfs" \
                and getattr(generator, "parallel_safe", False) \
                and not env.batch_disabled():
            return self._run_blocks(
                generator, LocalExpander(generator), BATCH_BLOCK, 1)
        try:
            started = time.perf_counter()
            ts, frontier = self._start(generator)
            if self._restored_result is not None:
                return self._restored_result
            stats = self.stats
            budget_hit = False

            while frontier and stats.early_stop is None:
                if self.strategy == "bfs":
                    entry = frontier.popleft()
                else:
                    entry = frontier.pop()
                state, depth, sid = self._entry_state(entry)
                if self.max_depth is not None and depth >= self.max_depth:
                    self._mark_entry_truncated(ts, entry)
                    continue
                stats.expansions += 1
                try:
                    budget_hit = self._apply_successors(
                        generator, ts, frontier, state, depth,
                        generator.successors(state), sid=sid)
                except ExplorationBudgetExceeded:
                    budget_hit = True
                if budget_hit:
                    break
                if self._ckpt_writer is not None \
                        and stats.early_stop is None:
                    self._ckpt_writer.maybe_write(
                        ts, frontier, stats, self._ckpt_edges)

            return self._finish(ts, frontier, budget_hit, started)
        finally:
            self._detach_budget()

    def resume(self, generator: SuccessorGenerator) -> ExplorationResult:
        """Resume from the configured checkpoint, which must exist.

        :meth:`run` already auto-resumes when a valid checkpoint is on
        disk; this entry point is for callers that *require* prior
        progress — it raises :class:`~repro.errors.CheckpointError`
        instead of silently starting a fresh exploration when the
        checkpoint is missing.
        """
        if self.checkpoint is None:
            raise CheckpointError(
                "resume() needs a checkpoint= configured on the explorer")
        if not os.path.exists(self.checkpoint.manifest_path):
            raise CheckpointError(
                f"no checkpoint manifest at "
                f"{self.checkpoint.manifest_path}; nothing to resume")
        return self.run(generator)

    # -- the block loop -------------------------------------------------------

    def _run_blocks(self, generator: SuccessorGenerator, expander,
                    block: int, window: int) -> ExplorationResult:
        """BFS in frontier blocks, beside :meth:`run`'s per-state loop.

        Pops up to ``block`` entries per batch and keeps up to ``window``
        batches submitted to ``expander`` (:class:`LocalExpander`, or the
        worker pool of :class:`~repro.engine.parallel.ParallelExplorer`).
        Batches are applied strictly in pop order through
        :meth:`_apply_successors`, with ``pending`` counting every
        popped-but-unapplied entry, so interning, edges, growth, observer
        and budget behaviour replay the per-state loop verbatim. The
        ``max_depth`` cut is decided at pop time but marked (and
        ``expansions`` counted) at apply time. On a budget hit or early
        stop every unapplied entry returns to the frontier front in pop
        order, so the epilogue marks it truncated as the per-state loop
        would. Only pure (``parallel_safe``) generators qualify: expanding
        ahead must commute with applying.
        """
        try:
            started = time.perf_counter()
            ts, frontier = self._start(generator)
            if self._restored_result is not None:
                return self._restored_result
            stats = self.stats
            budget_hit = False
            in_flight: "deque[_Batch]" = deque()
            pending = 0
            try:
                while (frontier or in_flight) and not budget_hit \
                        and stats.early_stop is None:
                    self._note_store_frontier(frontier)
                    while frontier and len(in_flight) < window:
                        entries: List[Tuple[Any, int, bool]] = []
                        expandable: List[State] = []
                        while frontier and len(entries) < block:
                            entry = frontier.popleft()
                            state, depth, _ = self._entry_state(entry)
                            expand = self.max_depth is None \
                                or depth < self.max_depth
                            entries.append((entry[0], depth, expand))
                            if expand:
                                expandable.append(state)
                        batch = _Batch(entries, expandable)
                        expander.submit(batch)
                        in_flight.append(batch)
                        pending += len(entries)

                    batch = in_flight.popleft()
                    results = iter(expander.collect(batch))
                    apply_started = time.perf_counter()
                    states = iter(batch.expandable)
                    unapplied: List[Tuple[Any, int, bool]] = []
                    for position, (key, depth, expand) in enumerate(
                            batch.entries):
                        pending -= 1
                        if not expand:
                            self._mark_entry_truncated(ts, (key, depth))
                            continue
                        stats.expansions += 1
                        budget_hit = self._apply_successors(
                            generator, ts, frontier, next(states), depth,
                            next(results), pending=pending,
                            sid=key if self._store is not None else None)
                        if budget_hit or stats.early_stop is not None:
                            unapplied = batch.entries[position + 1:]
                            break
                    stopped = budget_hit or stats.early_stop is not None
                    if stopped:
                        for rest in in_flight:
                            unapplied.extend(rest.entries)
                        in_flight.clear()
                        frontier.extendleft(
                            (key, depth)
                            for key, depth, _ in reversed(unapplied))
                    expander.applied(
                        time.perf_counter() - apply_started,
                        sum(1 for _, _, expand in unapplied if expand))
                    if self._ckpt_writer is not None and not stopped:
                        # Safe point: all applied sources have complete
                        # edge sets, and the in-flight entries prepended
                        # to the frontier are exactly the sequential one.
                        self._ckpt_writer.maybe_write(
                            ts, frontier, stats, self._ckpt_edges,
                            extra_entries=(
                                (key, depth) for rest in in_flight
                                for key, depth, _ in rest.entries))
            finally:
                expander.close()
            return self._finish(ts, frontier, budget_hit, started)
        finally:
            self._detach_budget()
