"""Set-level modal helpers shared with the propositional checker.

``Diamond``/``Box`` over explicit state sets propagate backward along the
transition system's lazy predecessor index
(:meth:`TransitionSystem.predecessors`) — ``<->Phi`` is the union of the
predecessors of the target, ``[-]Phi`` counts each predecessor's
successors inside the target against its out-degree — instead of scanning
every state and intersecting successor sets. :mod:`repro.mucalc.prop`
evaluates propositional µ-calculus with them; the first-order engine
(:mod:`repro.mucalc.engine.bitset`) runs the same propagation over
per-state predecessor masks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.semantics.transition_system import State, TransitionSystem


def diamond_states(ts: TransitionSystem,
                   target: Iterable[State]) -> FrozenSet[State]:
    """``<->target``: union of the predecessors of the target states."""
    result: set = set()
    for state in target:
        result |= ts.predecessors(state)
    return frozenset(result)


def box_states(ts: TransitionSystem, target: Iterable[State],
               deadlocks: FrozenSet[State]) -> FrozenSet[State]:
    """``[-]target`` by successor counting along the predecessor index.

    A state satisfies ``[-]Phi`` iff the number of its distinct successors
    inside the target equals its out-degree; deadlock states satisfy it
    vacuously (pass :func:`deadlock_states` as ``deadlocks``)."""
    counts: Dict[State, int] = {}
    for state in target:
        for pred in ts.predecessors(state):
            counts[pred] = counts.get(pred, 0) + 1
    satisfied = frozenset(
        state for state, count in counts.items()
        if count == ts.out_degree(state))
    return satisfied | deadlocks


def deadlock_states(ts: TransitionSystem) -> FrozenSet[State]:
    """States without successors (``[-]Phi`` holds vacuously there)."""
    return frozenset(
        state for state in ts.states if not ts.successors(state))
