"""Successor generators: one per decidable construction of Table 1.

Each class packages the *local* successor semantics of one seed builder;
the frontier loop, dedup, budgets, and stats all live in
:class:`repro.engine.explorer.Explorer`.

* :class:`DetAbstractionGenerator` — equality-commitment branching over
  fresh deterministic service calls (Theorem 4.3, Section 4.1);
* :class:`RcyclGenerator` — Algorithm RCYCL's eventually-recycling candidate
  sets (Appendix C.3, Theorem 5.4), with ``recycle=False`` giving the
  fresh-only ablation of :mod:`repro.semantics.ablations`;
* :class:`PoolDetGenerator` / :class:`PoolNondetGenerator` — the exact
  concrete transition system restricted to a finite value pool (the
  validation target of the bounded-bisimulation tests);
* :class:`OracleRunGenerator` — a single oracle-driven concrete run
  (states are ``(step, instance)`` pairs so the linear trace embeds in a
  transition system without collapsing revisited instances).
"""

from __future__ import annotations

from itertools import product
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional,
    Sequence, Set, Tuple)

from repro import env
from repro.core.dcds import DCDS
from repro.core.execution import (
    _sigma_items, calls_of, do_action, enabled_moves, evaluate_calls)
from repro.engine.explorer import ExplorationBudgetExceeded, SuccessorGenerator
from repro.relational import vector
from repro.relational.instance import Instance
from repro.relational.kernel import kernel_for
from repro.relational.values import Fresh, ServiceCall
from repro.semantics.commitments import enumerate_commitments
from repro.semantics.transition_system import State
from repro.utils import sorted_values

CallMap = Tuple[Tuple[ServiceCall, Any], ...]


class DetState:
    """A state ``<I, M>`` of the (abstract or concrete) deterministic TS.

    Immutable by convention; hashed on every frontier dedup, so the hash is
    cached.
    """

    __slots__ = ("instance", "call_map", "_hash", "_known")

    def __init__(self, instance: Instance, call_map: CallMap):
        self.instance = instance
        self.call_map = call_map
        self._hash = None
        self._known = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetState):
            return NotImplemented
        return self.instance == other.instance \
            and self.call_map == other.call_map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.instance, self.call_map))
        return self._hash

    def __repr__(self) -> str:
        entries = ", ".join(f"{call!r}->{value!r}"
                            for call, value in self.call_map)
        return f"<{self.instance!r} | {entries}>"

    def map_dict(self) -> Dict[ServiceCall, Any]:
        return dict(self.call_map)

    def __reduce__(self):
        # Identity only, no cached hash — parallel workers ship DetStates
        # across process boundaries, where cached hashes would be stale
        # (per-process PYTHONHASHSEED; see ServiceCall.__reduce__).
        return DetState, (self.instance, self.call_map)

    def known_values(self) -> FrozenSet[Any]:
        """Every value this state has ever seen: current adom, call results,
        and call arguments (the history, Section 4.1). Cached — states are
        immutable. The abstraction reads it only for steps that issue fresh
        service calls, as the values a commitment may equate them with."""
        if self._known is None:
            values = set(self.instance.active_domain())
            for call, result in self.call_map:
                values.add(result)
                values.update(call.args)
            self._known = frozenset(values)
        return self._known


def sorted_call_map(mapping: Dict[ServiceCall, Any]) -> CallMap:
    return tuple(sorted(mapping.items(), key=lambda item: repr(item[0])))


def sigma_label(action_name: str, sigma: Dict) -> str:
    if not sigma:
        return action_name
    rendered = ", ".join(f"{param.name}={value!r}"
                         for param, value in sorted(
                             sigma.items(), key=lambda item: item[0].name))
    return f"{action_name}[{rendered}]"


def sigma_key(sigma: Dict) -> tuple:
    return tuple(sorted(((param.name, value) for param, value in sigma.items()),
                        key=lambda item: (item[0], repr(item[1]))))


Successor = Tuple[State, Instance, Optional[str]]


def _kernel_successors(generator, key, state: State) -> Iterator[Successor]:
    """Successor stream with the kernel's per-configuration replay memo.

    Expansion is a pure function of the state for the generators using
    this, so repeated constructions (validation runs, benchmark rounds)
    replay from the memo instead of re-grounding. The stream stays lazy
    and is memoized only when fully consumed: an observer early-stop or
    state budget that abandons it mid-way (the explorer returns without
    draining) neither pays for the unconsumed tail nor caches a truncated
    list. A drained stream releases the state's coded instance
    (:meth:`~repro.relational.kernel.RelationalKernel.release`): only
    grounding read it, and a replay reads the memo.
    """
    kernel = kernel_for(generator.dcds)
    if kernel is None:
        return generator._expand(state)
    memo = kernel.successor_memo(key)
    found = memo.get(state)
    if found is not None:
        return iter(found)
    return _memoized_expansion(kernel, generator._expand(state), memo, state)


def _memoized_expansion(kernel, expansion: Iterator[Successor], memo: dict,
                        state: State) -> Iterator[Successor]:
    collected = []
    for successor in expansion:
        collected.append(successor)
        yield successor
    memo[state] = tuple(collected)
    kernel.release(getattr(state, "instance", state))


def warm_frontier_block(generator, key, states: Sequence[State]) -> None:
    """Warm the kernel's grounding memos for a whole frontier block.

    The frontier-batch tier (``Explorer._run_blocks`` →
    ``successors_batch``): instead of every frontier state paying its own
    per-plan vector call, the block's distinct instances are stacked into
    one columnar join per compiled plan —
    :meth:`~repro.relational.kernel.RelationalKernel
    .warm_legal_substitutions` for every rule, then
    :meth:`~repro.relational.kernel.RelationalKernel.warm_ground_effects`
    for every ``(effect, sigma)`` group the warmed legal substitutions
    enable. Warming only fills the same per-instance memos the per-state
    entries read, so the ``_expand`` replay that follows is bit-identical
    by construction; with the kernel disabled (or ``REPRO_NO_BATCH=1``)
    this is a no-op and the per-state path runs exactly as before.

    Blocks with fewer distinct unexpanded instances than
    :data:`~repro.relational.vector.MIN_BATCH_GROUPS`, or stacking fewer
    total tuples than :data:`~repro.relational.vector.MIN_BATCH_TUPLES`,
    are skipped (stacking and splitting a handful of tiny groups costs
    about what it saves); the skip is recorded as a thin block in
    ``abstraction_stats["batch"]``.
    """
    kernel = kernel_for(generator.dcds)
    if kernel is None or env.batch_disabled():
        return
    memo = kernel.successor_memo(key)
    pending = [state for state in states if state not in memo]
    # Distinct objects, not values: grounding results ride the instance
    # object (see RelationalKernel._own), so every one must be warmed.
    instances = list({id(instance): instance for instance in (
        getattr(state, "instance", state) for state in pending)}.values())
    if len(instances) < vector.MIN_BATCH_GROUPS \
            or sum(len(instance) for instance in instances) \
            < vector.MIN_BATCH_TUPLES:
        kernel.note_batch_block(len(pending), thin=True)
        return
    kernel.note_batch_block(len(pending), thin=False)
    dcds = generator.dcds
    # Stage 1: legal substitutions of every rule, once per block.
    for rule in dcds.process.rules:
        action = dcds.process.action(rule.action)
        kernel.warm_legal_substitutions(rule, action.params, instances)
    # Stage 2: effect grounding. enabled_moves replays from the memos just
    # warmed; frontier siblings mostly enable the same (effect, sigma)
    # pairs, so grouping across states batches the effect bodies too.
    groups: Dict[Tuple[int, tuple], Tuple[Any, tuple, List[Instance]]] = {}
    for instance in instances:
        for action, sigma in enabled_moves(dcds, instance):
            items = _sigma_items(sigma)
            for effect in action.effects:
                entry = groups.get((id(effect), items))
                if entry is None:
                    groups[(id(effect), items)] = (effect, items, [instance])
                else:
                    entry[2].append(instance)
    for effect, items, sharing in groups.values():
        kernel.warm_ground_effects(effect, items, sharing)


# ---------------------------------------------------------------------------
# Deterministic abstraction (Theorem 4.3)
# ---------------------------------------------------------------------------

class DetAbstractionGenerator(SuccessorGenerator):
    """EXECS of Section 4.1 with equality-commitment branching.

    For every enabled ``(alpha, sigma)``: compute ``DO``, split its calls
    into already-answered (resolved via ``M`` — determinism) and fresh ones,
    enumerate equality commitments for the fresh ones, apply, and keep the
    successors satisfying the equality constraints.
    """

    parallel_safe = True
    quotient_safe = True  # states are <I, M>: history-carrying

    def __init__(self, dcds: DCDS):
        self.dcds = dcds
        self.known_constants = dcds.known_constants()

    def initial_state(self) -> Tuple[DetState, Instance]:
        return DetState(self.dcds.initial, ()), self.dcds.initial

    def _memo_key(self) -> tuple:
        return ("det-abstraction", self.known_constants)

    def successors(self, state: DetState) -> Iterator[Successor]:
        return _kernel_successors(self, self._memo_key(), state)

    def successors_batch(self, states: List[DetState]
                         ) -> List[List[Successor]]:
        warm_frontier_block(self, self._memo_key(), states)
        return [list(self.successors(state)) for state in states]

    def _expand(self, state: DetState) -> Iterator[Successor]:
        dcds = self.dcds
        instance = state.instance
        call_map = state.map_dict()
        # Built on the first step with fresh calls: a call-free step has
        # only the empty commitment and never reads the state's history.
        known: Optional[FrozenSet[Any]] = None

        for action, sigma in enabled_moves(dcds, instance):
            pending = do_action(dcds, instance, action, sigma)
            calls = pending.service_calls()
            resolved = {call: call_map[call]
                        for call in calls if call in call_map}
            new_calls = [call for call in calls if call not in call_map]
            if new_calls and known is None:
                known = state.known_values() | self.known_constants
            label = sigma_label(action.name, sigma)

            for commitment in enumerate_commitments(new_calls, known or ()):
                evaluation = {**resolved, **commitment}
                successor_instance = evaluate_calls(dcds, pending, evaluation)
                if successor_instance is None:
                    continue  # equality constraints filtered this commitment
                extended_map = dict(call_map)
                extended_map.update(commitment)
                successor = DetState(successor_instance,
                                     sorted_call_map(extended_map))
                yield successor, successor_instance, label


# ---------------------------------------------------------------------------
# Algorithm RCYCL (Theorem 5.4) and its fresh-only ablation
# ---------------------------------------------------------------------------

class RcyclGenerator(SuccessorGenerator):
    """Eventually-recycling candidate sets over nondeterministic services.

    ``recycle=False`` drops the recycling preference (candidates always
    fresh), reproducing the ablation that defeats Lemma C.3(i).
    """

    def __init__(self, dcds: DCDS, max_iterations: Optional[int] = None,
                 recycle: bool = True):
        self.dcds = dcds
        self.max_iterations = max_iterations
        self.recycle = recycle
        self.initial_adom = set(dcds.data.initial_adom)
        #: ADOM(I0) ∪ the known constants: in every evaluation range.
        self.base_values = self.initial_adom | set(dcds.known_constants())
        self.used_values: Set[Any] = set(self.base_values)
        self.visited: Set[tuple] = set()
        self.iterations = 0
        self.minted_total = 0

    def initial_state(self) -> Tuple[Instance, Instance]:
        return self.dcds.initial, self.dcds.initial

    def on_new_state(self, state: Instance, instance: Instance) -> None:
        self.used_values |= set(instance.active_domain())

    def _mint_fresh(self, count: int) -> List[Fresh]:
        taken = {value.index for value in self.used_values
                 if isinstance(value, Fresh)}
        minted: List[Fresh] = []
        index = 0
        while len(minted) < count:
            if index not in taken:
                minted.append(Fresh(index))
                taken.add(index)
            index += 1
        return minted

    def _candidates(self, excluded: Set[Any], n_calls: int) -> List[Any]:
        """``excluded`` is ``ADOM(I0) ∪ ADOM(I)`` of the expanded state."""
        if self.recycle:
            # RecyclableValues := UsedValues − (ADOM(I0) ∪ ADOM(I))
            recyclable = sorted_values(self.used_values - excluded)
            if len(recyclable) >= n_calls:
                return recyclable[:n_calls]  # recycled values
        minted = self._mint_fresh(n_calls)  # fresh values
        self.minted_total += len(minted)
        if not self.recycle:
            # Ablation: minted values count as used even if no successor
            # retains them, so fresh indexes are never reconsidered.
            self.used_values.update(minted)
        return minted

    def successors(self, instance: Instance) -> Iterator[Successor]:
        dcds = self.dcds
        # Per-state parts of the candidate sets and evaluation ranges,
        # built on the first call-bearing move; used_values is read per
        # move, since on_new_state grows it between moves.
        range_base = excluded = None
        for action, sigma in enabled_moves(dcds, instance):
            sigma_text = sigma_key(sigma)
            key = (instance, action.name, sigma_text)
            if key in self.visited:
                continue
            self.visited.add(key)
            self.iterations += 1
            if self.max_iterations is not None \
                    and self.iterations > self.max_iterations:
                raise ExplorationBudgetExceeded(
                    f"RCYCL exceeded {self.max_iterations} iterations")

            pending = do_action(dcds, instance, action, sigma)
            calls = calls_of(pending)
            evaluation_range: Sequence[Any] = ()
            if calls:  # a call-free step has the one empty evaluation
                if range_base is None:
                    range_base = self.base_values.union(
                        instance.active_domain())
                    excluded = self.initial_adom.union(
                        instance.active_domain())
                candidates = self._candidates(excluded, len(calls))
                evaluation_range = sorted_values(
                    range_base.union(candidates))

            label = action.name if not sigma else \
                f"{action.name}[{sigma_text}]"
            for combo in product(evaluation_range, repeat=len(calls)):
                evaluation = dict(zip(calls, combo))
                successor = evaluate_calls(dcds, pending, evaluation)
                if successor is None:
                    continue  # violates an equality constraint
                yield successor, successor, label
        kernel = kernel_for(dcds)
        if kernel is not None:  # expanded: drop the coded form
            kernel.release(instance)


# ---------------------------------------------------------------------------
# Finite-pool concrete exploration
# ---------------------------------------------------------------------------

class PoolDetGenerator(SuccessorGenerator):
    """Concrete deterministic semantics restricted to a value pool.

    States are ``<I, M>`` and evaluations must agree with ``M``
    (Section 4.1)."""

    parallel_safe = True
    quotient_safe = True  # states are <I, M>: history-carrying

    def __init__(self, dcds: DCDS, pool: Sequence[Any]):
        self.dcds = dcds
        self.pool = list(pool)
        self.symmetry_values = tuple(self.pool)

    def initial_state(self) -> Tuple[DetState, Instance]:
        return DetState(self.dcds.initial, ()), self.dcds.initial

    def _memo_key(self) -> tuple:
        return ("pool-det", tuple(self.pool))

    def successors(self, state: DetState) -> Iterator[Successor]:
        return _kernel_successors(self, self._memo_key(), state)

    def successors_batch(self, states: List[DetState]
                         ) -> List[List[Successor]]:
        warm_frontier_block(self, self._memo_key(), states)
        return [list(self.successors(state)) for state in states]

    def _expand(self, state: DetState) -> Iterator[Successor]:
        dcds = self.dcds
        call_map = state.map_dict()
        for action, sigma in enabled_moves(dcds, state.instance):
            pending = do_action(dcds, state.instance, action, sigma)
            calls = calls_of(pending)
            resolved = {call: call_map[call] for call in calls
                        if call in call_map}
            new_calls = [call for call in calls if call not in call_map]
            for combo in product(self.pool, repeat=len(new_calls)):
                evaluation = dict(resolved)
                evaluation.update(zip(new_calls, combo))
                successor_instance = evaluate_calls(dcds, pending, evaluation)
                if successor_instance is None:
                    continue
                extended = dict(call_map)
                extended.update(zip(new_calls, combo))
                successor = DetState(successor_instance,
                                     sorted_call_map(extended))
                yield successor, successor_instance, action.name


class PoolNondetGenerator(SuccessorGenerator):
    """Concrete nondeterministic semantics restricted to a value pool.

    States are instances and every call picks independently from the pool
    (Section 5.1)."""

    parallel_safe = True
    # No symmetry_values here: plain-instance states are not quotient_safe
    # (see repro.engine.symmetry), so the reducer never reads it.

    def __init__(self, dcds: DCDS, pool: Sequence[Any]):
        self.dcds = dcds
        self.pool = list(pool)

    def initial_state(self) -> Tuple[Instance, Instance]:
        return self.dcds.initial, self.dcds.initial

    def _memo_key(self) -> tuple:
        return ("pool-nondet", tuple(self.pool))

    def successors(self, instance: Instance) -> Iterator[Successor]:
        return _kernel_successors(self, self._memo_key(), instance)

    def successors_batch(self, states: List[Instance]
                         ) -> List[List[Successor]]:
        warm_frontier_block(self, self._memo_key(), states)
        return [list(self.successors(state)) for state in states]

    def _expand(self, instance: Instance) -> Iterator[Successor]:
        dcds = self.dcds
        for action, sigma in enabled_moves(dcds, instance):
            pending = do_action(dcds, instance, action, sigma)
            calls = calls_of(pending)
            for combo in product(self.pool, repeat=len(calls)):
                evaluation = dict(zip(calls, combo))
                successor = evaluate_calls(dcds, pending, evaluation)
                if successor is None:
                    continue
                yield successor, successor, action.name


# ---------------------------------------------------------------------------
# Oracle-driven concrete run (simulate)
# ---------------------------------------------------------------------------

Chooser = Callable[[List[Tuple[Any, Dict]]], int]


class OracleRunGenerator(SuccessorGenerator):
    """One concrete run: the oracle answers calls, the chooser picks moves.

    States are ``(step, instance)`` so the run embeds into a (path-shaped)
    transition system even when the same instance recurs along the trace.
    The run ends (no successor) when no move is enabled or the oracle's
    answers violate the equality constraints — in the concrete semantics the
    chosen successor then simply does not exist.
    """

    def __init__(self, dcds: DCDS, oracle: Callable[[ServiceCall], Any],
                 chooser: Optional[Chooser] = None):
        self.dcds = dcds
        self.oracle = oracle
        self.chooser = chooser

    def initial_state(self) -> Tuple[Tuple[int, Instance], Instance]:
        return (0, self.dcds.initial), self.dcds.initial

    def successors(self, state: Tuple[int, Instance]
                   ) -> Iterator[Successor]:
        step, instance = state
        moves = list(enabled_moves(self.dcds, instance))
        if not moves:
            return
        index = 0 if self.chooser is None else self.chooser(moves)
        action, sigma = moves[index]
        pending = do_action(self.dcds, instance, action, sigma)
        evaluation = {call: self.oracle(call) for call in calls_of(pending)}
        successor = evaluate_calls(self.dcds, pending, evaluation)
        if successor is None:
            return  # constraint-violating evaluation: no such transition
        yield (step + 1, successor), successor, action.name
