"""Rank-annotated trace extraction over the predecessor index.

The certificate layer (:mod:`repro.mucalc.witness`) reduces both certificate
kinds to one reachability question over the transition system:

* an ``EF``-witness is a run from the initial state to a state satisfying
  the body, every *entered* state keeping the guard values live (the µLP
  ``mu Z. phi | <->(live(g) & Z)`` shape; plain ``EF`` has an empty guard);
* an ``AG``-violation is the dual µ-witness: ``~(nu Z. phi & [-](live(g) &
  Z))`` unfolds to ``mu Z. ~phi | <->(~live(g) | Z)``, i.e. a run to a
  ``~phi`` state — or to any state where the guard died, provided at least
  one step was taken (a dead guard discharges the box only for the state
  *entered*).

Minimality comes from the µ-approximant structure: the backward BFS of
:func:`reach_ranks` computes ``rank(s) = min k`` with ``s`` first appearing
in the ``k``-th approximant of the reduced µ-formula (= length of the
shortest valid run suffix from ``s``), walking
:meth:`TransitionSystem.predecessors` from the terminal states. The forward
walk then descends ranks by exactly one per step, so the extracted run has
length ``rank(initial)`` — no shorter certifying run exists, and every
strict prefix ends in a state of positive rank, which by construction
satisfies neither terminal condition. Tie-breaks follow
``sorted_labeled_edges`` order, making the trace a pure function of the
transition system — bit-identical across worker counts and build
paths whenever the build is.

When the offline engine is available, the converged extension of the
outermost fixpoint cell (:meth:`BitsetChecker.fixpoint_extension`) bounds
the BFS support: every non-terminal state of a valid run lies inside the
µ-extension (witness) or outside the ν-extension (violation), so states
beyond it need not be ranked.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Tuple)

from repro.mucalc.ast import MuFormula
from repro.mucalc.engine.onthefly import evaluate_local
from repro.semantics.transition_system import State, TransitionSystem

#: A raw extracted run: ``(label-in, state)`` pairs, first label ``None``.
RawTrace = List[Tuple[Optional[str], State]]


def guard_live(ts: TransitionSystem, state: State,
               guard: Tuple[Any, ...]) -> bool:
    """Are all (ground) guard values in the state's active domain?"""
    if not guard:
        return True
    adom = ts.db(state).active_domain()
    return all(value in adom for value in guard)


def body_holds(ts: TransitionSystem, state: State, body: MuFormula) -> bool:
    """State-local body truth at one state (adom-confined quantifiers)."""
    return evaluate_local(body, ts.db(state))


def reach_ranks(ts: TransitionSystem, targets: FrozenSet[State],
                enterable: Callable[[State], bool],
                support: Optional[FrozenSet[State]] = None,
                stop_at: Optional[State] = None) -> Dict[State, int]:
    """Backward BFS ranks: shortest valid run-suffix length per state.

    ``rank(s) = 0`` for the terminal states; rank ``k`` states have an edge
    to an *enterable* rank ``k-1`` state. Propagation out of ``u`` requires
    ``enterable(u)`` — any run reaching a terminal through ``u`` steps into
    ``u`` — but a non-enterable terminal keeps rank 0: a run may *start*
    there. Non-terminal ranking is restricted to ``support`` when given
    (terminals are ranked unconditionally; a violation's dead-guard
    terminal legitimately sits outside the dual µ-extension).

    ``stop_at`` short-circuits the BFS once that state is ranked: every
    level below it is already complete by then, which is all
    :func:`descend` ever reads, and the rank it got is final (BFS
    minimality) — so the returned partial map descends identically to the
    full one.
    """
    ranks: Dict[State, int] = {}
    frontier: List[State] = []
    for state in targets:
        ranks[state] = 0
        frontier.append(state)
    if stop_at is not None and stop_at in ranks:
        return ranks
    rank = 0
    while frontier:
        rank += 1
        next_frontier: List[State] = []
        for state in frontier:
            if not enterable(state):
                continue
            for pred in ts.predecessors(state):
                if pred in ranks:
                    continue
                if support is not None and pred not in support:
                    continue
                ranks[pred] = rank
                if pred == stop_at:
                    return ranks
                next_frontier.append(pred)
        frontier = next_frontier
    return ranks


def descend(ts: TransitionSystem, ranks: Dict[State, int], start: State,
            enterable: Callable[[State], bool]) -> Optional[RawTrace]:
    """Forward walk from ``start`` descending ranks by one per step.

    Deterministic: at each state the first qualifying edge in
    ``sorted_labeled_edges`` order is taken. Returns ``None`` if the
    descent dead-ends (a rank inconsistency — callers treat it as
    "no certifying run" rather than an invariant violation)."""
    rank = ranks.get(start)
    if rank is None:
        return None
    trace: RawTrace = [(None, start)]
    current = start
    while rank > 0:
        chosen: Optional[Tuple[Optional[str], State]] = None
        for label, target in ts.sorted_labeled_edges(current):
            if ranks.get(target) == rank - 1 and enterable(target):
                chosen = (label, target)
                break
        if chosen is None:
            return None
        trace.append(chosen)
        current = chosen[1]
        rank -= 1
    return trace


def witness_trace(ts: TransitionSystem, body: MuFormula,
                  guard: Tuple[Any, ...],
                  support: Optional[FrozenSet[State]] = None,
                  targets: Optional[FrozenSet[State]] = None
                  ) -> Optional[RawTrace]:
    """Shortest run from the initial state to a body-satisfying state,
    guard values live in every entered state. ``None`` when no such run
    exists (the reachability verdict should then be negative).

    ``targets`` may carry a precomputed body extension (the caller's
    compiled checker evaluates the body with indexed machinery); when
    absent, the body is evaluated state-locally over the scan set.
    """
    precomputed = targets is not None
    if targets is None:
        # Every body-state is rank 0 of the µ-approximant, hence inside
        # the µ-extension: a support set also bounds the (body-evaluating,
        # and therefore expensive) target scan.
        scan = support if support is not None else ts.states
        targets = frozenset(
            state for state in scan if body_holds(ts, state, body))
        if ts.initial not in targets and body_holds(ts, ts.initial, body):
            # Guards against a stale support that excludes the initial
            # state: the trivial 0-length witness must stay reachable.
            targets |= {ts.initial}

    def enterable(state: State) -> bool:
        return guard_live(ts, state, guard)

    ranks = reach_ranks(ts, targets, enterable, support,
                        stop_at=ts.initial)
    if ts.initial not in ranks and support is not None:
        # The support set came from an engine cell; if it disagrees with
        # the backward reachability (stale or partial evaluation), retry
        # unrestricted rather than fail.
        if not precomputed:
            targets = frozenset(
                state for state in ts.states
                if body_holds(ts, state, body))
        ranks = reach_ranks(ts, targets, enterable, None,
                            stop_at=ts.initial)
    return descend(ts, ranks, ts.initial, enterable)


def violation_trace(ts: TransitionSystem, body: MuFormula,
                    guard: Tuple[Any, ...],
                    support: Optional[FrozenSet[State]] = None,
                    bad: Optional[FrozenSet[State]] = None
                    ) -> Optional[RawTrace]:
    """Shortest run discharging ``~(nu Z. body & [-](live(guard) & Z))``.

    Terminals are the ``~body`` states, plus — when the encoding is
    guarded — the states whose active domain dropped a guard value;
    the latter only end a run of length >= 1 (see module docstring), which
    surfaces exactly in the initial-state corner handled here: an initial
    state that is a dead-guard terminal but satisfies the body needs a
    first step before ranks apply.

    ``bad`` may carry the precomputed ``~body`` set (complement of the
    caller's compiled body extension); when absent, the body is evaluated
    state-locally over the scan set.
    """
    initial = ts.initial
    precomputed = bad is not None
    if bad is None:
        # Every ~body state falsifies the ν-formula outright, so the bad
        # scan may be confined to the support (= complement of the
        # ν-extension); dead-guard terminals can sit *inside* the
        # extension (liveness is charged to the entering edge), but their
        # scan is a cheap adom membership test, so it stays global.
        scan = support if support is not None else ts.states
        # The initial state's membership is decided directly (not through
        # a possibly-stale support): a bad initial is a trivial violation.
        bad = frozenset(
            state for state in scan
            if state != initial and not body_holds(ts, state, body))
        if not body_holds(ts, initial, body):
            bad |= {initial}
    initial_bad = initial in bad
    dead = frozenset(
        state for state in ts.states
        if not guard_live(ts, state, guard)) if guard else frozenset()

    def enterable(state: State) -> bool:
        return True

    # The dead-but-healthy initial corner below reads the ranks of the
    # initial state's *successors*; only then must the BFS run to
    # completion instead of stopping once the initial state is ranked.
    stop = None if (initial in dead and not initial_bad) else initial
    ranks = reach_ranks(ts, bad | dead, enterable, support, stop_at=stop)
    if initial not in ranks and support is not None:
        if not precomputed:
            bad = frozenset(
                state for state in ts.states
                if not body_holds(ts, state, body))
        ranks = reach_ranks(ts, bad | dead, enterable, None, stop_at=stop)
    if not initial_bad and initial in dead:
        # Rank 0 by dead guard only: force a real first step to the best
        # ranked successor (possibly a self-loop back into the initial).
        best: Optional[Tuple[int, Optional[str], State]] = None
        for label, target in ts.sorted_labeled_edges(initial):
            rank = ranks.get(target)
            if rank is not None and (best is None or rank < best[0]):
                best = (rank, label, target)
        if best is None:
            return None
        tail = descend(ts, ranks, best[2], enterable)
        if tail is None:
            return None
        return [(None, initial), (best[1], best[2])] + tail[1:]
    return descend(ts, ranks, initial, enterable)


def call_bindings(source: State, target: State
                  ) -> Tuple[Tuple[Any, Any], ...]:
    """Service-call results minted by the step ``source -> target``.

    ``DetState``-style states carry the accumulated ``call_map``; the
    step's own bindings are the entries the target added. States without
    a call map (plain-instance nondeterministic states) yield ``()``.
    """
    source_map = getattr(source, "call_map", None)
    target_map = getattr(target, "call_map", None)
    if source_map is None or target_map is None:
        return ()
    seen = set(source_map)
    return tuple(entry for entry in target_map if entry not in seen)
