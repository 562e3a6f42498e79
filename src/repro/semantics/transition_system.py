"""Transition systems whose states are labeled by database instances.

This is the tuple ``<Delta, R, Sigma, s0, db, =>`` of Section 2.3. States are
arbitrary hashable objects; ``db`` maps each state to its instance. Edges may
carry an informational label (the action/substitution that produced them) —
labels play no role in the semantics or the bisimulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema

State = Hashable


@dataclass
class TransitionSystem:
    """A mutable transition system under construction; freeze-by-convention.

    ``truncated`` marks states whose successors were *not* fully expanded
    (exploration fuses/depth bounds); analyses that need totality can check
    :attr:`truncated_states`.
    """

    schema: DatabaseSchema
    initial: State
    _db: Dict[State, Instance] = field(default_factory=dict)
    _edges: Dict[State, Set[Tuple[Optional[str], State]]] = \
        field(default_factory=dict)
    truncated_states: Set[State] = field(default_factory=set)
    name: str = ""
    #: Filled by :class:`repro.engine.Explorer` with construction-time
    #: counters (states/sec, frontier peak, cache hit rates, ...).
    exploration_stats: Dict[str, Any] = field(default_factory=dict)
    #: Per-state memo for :meth:`sorted_successors` (state reprs are
    #: expensive); invalidated by :meth:`add_edge`.
    _sorted_cache: Dict[State, Tuple[State, ...]] = \
        field(default_factory=dict, repr=False, compare=False)
    #: Per-state memo for :meth:`sorted_labeled_edges` (same repr-key
    #: cost; the witness extractor's descent re-reads the same states);
    #: invalidated by :meth:`add_edge`.
    _sorted_edge_cache: Dict[State, Tuple[Tuple[Optional[str], State],
                                          ...]] = \
        field(default_factory=dict, repr=False, compare=False)
    #: Lazy backward index for :meth:`predecessors` (built once on first use,
    #: invalidated by :meth:`add_edge`); the compiled model checker's
    #: ``Diamond``/``Box`` propagation is built on it.
    _pred_cache: Optional[Dict[State, FrozenSet[State]]] = \
        field(default=None, repr=False, compare=False)

    # -- construction -----------------------------------------------------------

    def add_state(self, state: State, instance: Instance) -> State:
        if state in self._db:
            if self._db[state] != instance:
                raise ReproError(
                    f"state {state!r} already present with different db")
            return state
        instance.validate(self.schema)
        self._db[state] = instance
        self._edges.setdefault(state, set())
        return state

    def add_edge(self, source: State, target: State,
                 label: Optional[str] = None) -> None:
        if source not in self._db or target not in self._db:
            raise ReproError("both endpoints must be added before the edge")
        self._edges[source].add((label, target))
        self._sorted_cache.pop(source, None)
        self._sorted_edge_cache.pop(source, None)
        self._pred_cache = None

    def mark_truncated(self, state: State) -> None:
        self.truncated_states.add(state)

    # -- accessors ------------------------------------------------------------

    def db(self, state: State) -> Instance:
        return self._db[state]

    @property
    def states(self) -> FrozenSet[State]:
        return frozenset(self._db)

    def discovery_order(self) -> Tuple[State, ...]:
        """States in the order they were added (the explorers add them in
        discovery order, so this is as deterministic as the build)."""
        return tuple(self._db)

    def __len__(self) -> int:
        return len(self._db)

    def __contains__(self, state: State) -> bool:
        return state in self._db

    def successors(self, state: State) -> FrozenSet[State]:
        return frozenset(target for _, target in self._edges.get(state, ()))

    def labeled_edges(self, state: State
                      ) -> FrozenSet[Tuple[Optional[str], State]]:
        return frozenset(self._edges.get(state, ()))

    def predecessors(self, state: State) -> FrozenSet[State]:
        """Distinct sources of edges into ``state``.

        The full backward index is built lazily on first use (checking
        happens after construction, so one build usually suffices) and
        invalidated by :meth:`add_edge`. ``Diamond``/``Box`` extensions are
        computed by propagating along this index instead of scanning all
        states."""
        if self._pred_cache is None:
            index: Dict[State, Set[State]] = {}
            for source, targets in self._edges.items():
                for _, target in targets:
                    index.setdefault(target, set()).add(source)
            self._pred_cache = {target: frozenset(sources)
                                for target, sources in index.items()}
        return self._pred_cache.get(state, frozenset())

    def out_degree(self, state: State) -> int:
        """Number of *distinct* successor states."""
        return len(self.successors(state))

    def edges(self) -> Iterator[Tuple[State, Optional[str], State]]:
        for source, targets in self._edges.items():
            for label, target in targets:
                yield source, label, target

    # Edge sets are hash-ordered; the sorted accessors below give a
    # run-independent traversal order (used by the explorers, the
    # bisimulation checkers, and the DOT export).

    def sorted_successors(self, state: State) -> Tuple[State, ...]:
        """Successors in deterministic (repr) order, deduplicated.

        Memoized per state (the bisimulation games request the same
        state's successors at every game node)."""
        found = self._sorted_cache.get(state)
        if found is None:
            found = tuple(sorted(
                {target for _, target in self._edges.get(state, ())},
                key=repr))
            self._sorted_cache[state] = found
        return found

    def sorted_labeled_edges(
            self, state: State) -> Tuple[Tuple[Optional[str], State], ...]:
        """Outgoing ``(label, target)`` pairs in deterministic order.

        Memoized per state like :meth:`sorted_successors`."""
        found = self._sorted_edge_cache.get(state)
        if found is None:
            found = tuple(sorted(
                self._edges.get(state, ()),
                key=lambda edge: (edge[0] or "", repr(edge[1]))))
            self._sorted_edge_cache[state] = found
        return found

    def sorted_edges(self) -> Iterator[Tuple[State, Optional[str], State]]:
        """All edges in deterministic (source, label, target) order."""
        for source in sorted(self._edges, key=repr):
            for label, target in self.sorted_labeled_edges(source):
                yield source, label, target

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._edges.values())

    def values(self) -> FrozenSet[Any]:
        """All values occurring in any state's database (finite Delta)."""
        found: Set[Any] = set()
        for instance in self._db.values():
            found |= instance.active_domain()
        return frozenset(found)

    adom = values

    # -- queries ----------------------------------------------------------------

    def reachable_from(self, state: Optional[State] = None) -> FrozenSet[State]:
        start = self.initial if state is None else state
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for successor in self.successors(current):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return frozenset(seen)

    def is_total(self) -> bool:
        """Every state has a successor (no deadlocks)."""
        return all(self._edges.get(state) for state in self._db)

    def depth_levels(self) -> List[FrozenSet[State]]:
        """BFS levels from the initial state (used for growth traces)."""
        levels = []
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            levels.append(frozenset(frontier))
            next_frontier = []
            for state in frontier:
                for successor in self.successors(state):
                    if successor not in seen:
                        seen.add(successor)
                        next_frontier.append(successor)
            frontier = next_frontier
        return levels

    def max_state_size(self) -> int:
        return max((len(db.active_domain()) for db in self._db.values()),
                   default=0)

    def stats(self) -> Dict[str, Any]:
        return {
            "states": len(self),
            "edges": self.edge_count(),
            "values": len(self.values()),
            "max_adom": self.max_state_size(),
            "truncated": len(self.truncated_states),
            "total": self.is_total(),
        }

    def relabel(self, renamer: Callable[[State], State]) -> "TransitionSystem":
        """A copy with states renamed (renamer must be injective)."""
        renamed = TransitionSystem(
            self.schema, renamer(self.initial), name=self.name)
        mapping = {state: renamer(state) for state in self._db}
        if len(set(mapping.values())) != len(mapping):
            raise ReproError("relabel requires an injective renamer")
        for state, instance in self._db.items():
            renamed.add_state(mapping[state], instance)
        for source, label, target in self.edges():
            renamed.add_edge(mapping[source], mapping[target], label)
        renamed.truncated_states = {
            mapping[state] for state in self.truncated_states}
        return renamed

    def pretty(self, max_states: int = 50) -> str:
        """ASCII rendering: one line per state with its successors."""
        lines = [f"TransitionSystem {self.name!r}: "
                 f"{len(self)} states, {self.edge_count()} edges"]
        ordering = sorted(self._db, key=repr)
        ordering.remove(self.initial)
        ordering.insert(0, self.initial)
        for state in ordering[:max_states]:
            marker = "*" if state == self.initial else " "
            trunc = " [truncated]" if state in self.truncated_states else ""
            successors = ", ".join(
                sorted(repr(target) for target in self.successors(state)))
            lines.append(
                f" {marker} {state!r}: db={self.db(state)!r}"
                f" -> [{successors}]{trunc}")
        if len(self._db) > max_states:
            lines.append(f"   ... {len(self._db) - max_states} more states")
        return "\n".join(lines)
