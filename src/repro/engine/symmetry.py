"""Symmetry reduction: quotient-by-construction state spaces (Lemma C.2).

The paper's Lemma C.2 makes runs invariant under isomorphisms that fix
``ADOM(I0)``: the abstract transition systems only matter up to renaming of
non-initial values. PRs 1–4 still explored the full concrete space and
quotiented *post hoc* (:mod:`repro.semantics.quotient`). This module folds
the quotient into exploration itself — the standard symmetry-reduction move
of explicit-state model checking:

:class:`SymmetryReducer` wraps a pure (``parallel_safe``) successor
generator and maps **every successor to the canonical representative of its
isomorphism class** before the explorer sees it. Canonical class
representatives thereby become the identity of states end to end:

* the :class:`~repro.engine.explorer.Explorer` frontier dedups by state
  equality, which now *is* canonical-key equality — isomorphic successors
  merge before they are expanded;
* isomorphic successor candidates of one expansion (e.g. equality
  commitments differing only in value names) are pruned at generation time,
  inside the reducer, before they reach the frontier — or, in a sharded
  build, before they reach the wire;
* :class:`~repro.engine.parallel.ParallelExplorer` workers run the reducer
  in-process, so the wire codec (:mod:`repro.engine.wire`) ships canonical
  representatives: worker and coordinator agree on class identity without
  the coordinator ever re-canonicalizing (canonical labeling compares sort
  keys and invariant colour ranks, never process-local code numbers).

Canonicalization runs on the integer-coded kernel
(:meth:`repro.relational.kernel.RelationalKernel.canonical_renaming`,
memoized per kernel) with the object-level
:func:`~repro.relational.isomorphism.state_canonical_renaming` as the
reference fallback (kernel disabled, or uncoded state structure — both
isomorphism-invariant conditions, so every member of a class takes the
same path and classes never split).

What may be renamed — the two counterexamples
---------------------------------------------
µLP observes the *persistence* of individual values across transitions,
which constrains a sound quotient twice over:

1. **Plain-instance states admit no sound quotient** (``quotient_safe``
   gates them out). With pool ``{v, w}``, the exact system has
   ``{R(v)} -> {R(v)}`` ("the value persists") and ``{R(v)} -> {R(w)}``
   ("the value is replaced by an isomorphic twin"). Merging the
   isomorphic states ``{R(v)}``/``{R(w)}`` conflates those two
   transitions into one self-loop, and the µLP formula ``E x. live(x) &
   R(x) & [-](live(x) & R(x))`` — "some live value survives every move" —
   becomes true in the quotient while false in the exact system. Value
   symmetry for nondeterministic services is instead what RCYCL's
   *recycling* already provides (a pruning that keeps one spare value to
   express "replaced", rather than a quotient). The post-hoc quotient of
   :mod:`repro.semantics.quotient` remains available for *comparing* two
   constructions' quotients, where both sides conflate identically.

2. **Live values are never renamed, even in ``<I, M>`` states.** A
   successor's canonicalization that may touch ``ADOM(I)`` can hand a live
   value's name to a *different* value (the canonical order shifts with
   the structure), manufacturing persistence between unrelated values
   across the quotient edge. Canonicalization therefore renames exactly
   the **dead history** — call-map values outside ``ADOM(I)`` and the
   known constants. The representative keeps its members' database
   verbatim, every quotient edge is a genuine transition of the exact
   semantics, and the relation "state ↔ its dead-canonicalized twin"
   (identity on all live values) is a persistence-preserving bisimulation
   by construction. Dead values may still resurrect (a deterministic call
   re-issued returns its recorded result): the renamed call map answers
   with the renamed value, consistently.

Merging therefore collapses states that differ only in how their dead
history is named — e.g. the histories left behind by different
interleavings of independent actions, or dead stamp receipts cycling
through a pool — which is exactly the state blow-up Lemma C.2 calls
irrelevant.

The quotient-mode transition system is persistence-preserving bisimilar to
the exact one (checked by ``tests/test_symmetry.py`` with
:mod:`repro.bisim.core` on the gallery and seeded ``random_dcds`` sweeps),
so it verifies exactly the µLP properties — :func:`repro.pipeline.verify`
enforces that adequacy gate. RCYCL stays excluded (its used-value pool is
discovery-order dependent), exactly as it is excluded from sharding.

Mode selection: ``symmetry="quotient"`` is opt-in per call (default
``"exact"``); ``REPRO_SYMMETRY`` sets the process default.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro import env
from repro.engine.explorer import SuccessorGenerator
from repro.engine.generators import DetState, Successor, sorted_call_map
from repro.errors import ReproError
from repro.relational.instance import Instance
from repro.relational.isomorphism import state_canonical_renaming
from repro.relational.kernel import kernel_for
from repro.semantics.transition_system import State
from repro.utils import sorted_values

#: The exploration symmetry modes.
SYMMETRY_MODES = ("exact", "quotient")


def resolve_symmetry(symmetry: Optional[str] = None) -> str:
    """Resolve a ``symmetry=`` argument against the environment.

    ``None`` falls back to ``REPRO_SYMMETRY`` (default ``"exact"``).
    """
    if symmetry is None:
        symmetry = env.symmetry_default()
    if symmetry not in SYMMETRY_MODES:
        raise ReproError(
            f"unknown symmetry mode {symmetry!r}; expected one of "
            f"{SYMMETRY_MODES}")
    return symmetry


class SymmetryReducer(SuccessorGenerator):
    """Wraps a history-carrying generator; successors become class reps.

    States are :class:`~repro.engine.generators.DetState` pairs ``<I, M>``,
    canonicalized *jointly* over the coded ``<I, M>`` structure but
    renaming only the **dead history** — call-map values outside
    ``ADOM(I)`` and ``dcds.known_constants()`` (see the module docstring
    for why live values must stay put). Dead values get
    ``Fresh(0), Fresh(1), ...`` — or, for finite-pool generators, the
    canonically smallest free pool names (``symmetry_values``), keeping
    representatives inside the value universe the semantics draws from.

    The reducer is itself ``parallel_safe``: canonicalization is a pure,
    process-independent function of the state, so worker-side and
    coordinator-side representatives coincide. Pickling ships only the
    inner generator; per-process memos rebuild empty.
    """

    def __init__(self, inner: SuccessorGenerator):
        if not getattr(inner, "parallel_safe", False):
            raise ReproError(
                f"{type(inner).__name__} is not a pure successor generator; "
                f"symmetry reduction needs expansions that are functions of "
                f"the state alone (RCYCL's used-value pool is discovery-"
                f"order dependent and stays excluded, like in sharding)")
        if not getattr(inner, "quotient_safe", False):
            raise ReproError(
                f"{type(inner).__name__} states do not carry their value "
                f"history, so merging isomorphic states would conflate "
                f"value-persists with value-replaced transitions and break "
                f"µLP (see repro.engine.symmetry); quotient mode supports "
                f"the history-carrying <I, M> generators only")
        self.inner = inner
        self.dcds = inner.dcds
        self.parallel_safe = True
        self.fixed: FrozenSet[Any] = frozenset(self.dcds.known_constants())
        # Closed-universe (finite-pool) generators must keep canonical
        # representatives inside their pool: names are the sorted movable
        # pool values, permuted canonically. Open generators mint
        # Fresh(0), Fresh(1), ... instead.
        universe = getattr(inner, "symmetry_values", None)
        self.names: Optional[tuple] = None if universe is None else tuple(
            sorted_values(set(universe) - self.fixed))
        self._rep_memo: Dict[State, State] = {}
        self.stats: Dict[str, int] = {
            "canonicalizations": 0,
            "identity_states": 0,
            "object_fallbacks": 0,
            "pruned_successors": 0,
        }

    def __reduce__(self):
        # Workers rebuild memos from scratch; canonicalization is
        # deterministic, so worker- and coordinator-side representatives
        # agree without shipping any cache.
        return SymmetryReducer, (self.inner,)

    def attach_memory_budget(self, budget) -> None:
        """Storage-layer hook: the per-state representative memo joins the
        budget's ``interner`` account. Safe to evict — canonicalization is
        a pure function of the state, so a miss recomputes the identical
        representative. ``budget=None`` detaches."""
        from repro.engine.store import BudgetedDict
        if budget is None:
            if isinstance(self._rep_memo, BudgetedDict):
                self._rep_memo = self._rep_memo.unwrap()
            return
        if not isinstance(self._rep_memo, BudgetedDict):
            self._rep_memo = BudgetedDict(
                budget, "interner", data=self._rep_memo)

    # -- the canonical representative ----------------------------------------

    def representative(self, state: State) -> State:
        """The canonical representative of ``state``'s isomorphism class."""
        found = self._rep_memo.get(state)
        if found is not None:
            return found
        if isinstance(state, DetState):
            instance, call_map = state.instance, state.call_map
        else:  # the initial state before any call was made
            instance, call_map = state, ()
        kernel = kernel_for(self.dcds)
        renaming = None
        if kernel is not None:
            renaming = kernel.canonical_renaming(
                instance, call_map, self.names)
        if renaming is None:
            self.stats["object_fallbacks"] += 1
            renaming = state_canonical_renaming(
                instance, call_map, self.fixed, self.names)
        self.stats["canonicalizations"] += 1
        if all(old == new for old, new in renaming.items()):
            rep = state
            self.stats["identity_states"] += 1
        else:
            # Dead-history renamings never touch ADOM(I), so the database
            # carries over verbatim — non-identity renamings only arise
            # from the call map, i.e. on DetStates.
            renamed_map = {
                call.substitute(renaming): renaming.get(value, value)
                for call, value in call_map}
            rep = DetState(instance, sorted_call_map(renamed_map))
        self._rep_memo[state] = rep
        # Canonicalization is idempotent: the representative is its own
        # class representative.
        self._rep_memo.setdefault(rep, rep)
        return rep

    @staticmethod
    def _db_of(state: State) -> Instance:
        return state.instance if isinstance(state, DetState) else state

    # -- SuccessorGenerator protocol -----------------------------------------

    def initial_state(self) -> Tuple[State, Instance]:
        state, _ = self.inner.initial_state()
        rep = self.representative(state)
        return rep, self._db_of(rep)

    def successors(self, state: State) -> Iterator[Successor]:
        return self._reduce(self.inner.successors(state))

    def successors_batch(self, states: List[State]
                         ) -> List[List[Successor]]:
        # The inner generator warms its kernel memos for the whole block;
        # reduction stays per successor (canonicalization is memoized).
        return [list(self._reduce(stream))
                for stream in self.inner.successors_batch(states)]

    def _reduce(self, stream: Iterator[Successor]) -> Iterator[Successor]:
        seen = set()
        for successor, _, label in stream:
            rep = self.representative(successor)
            key = (rep, label)
            if key in seen:
                # Isomorphic successor candidates (e.g. commitments
                # differing only in value names) merge at generation time.
                self.stats["pruned_successors"] += 1
                continue
            seen.add(key)
            yield rep, self._db_of(rep), label

    def on_new_state(self, state: State, instance: Instance) -> None:
        self.inner.on_new_state(state, instance)

    def stats_dict(self) -> Dict[str, int]:
        """Per-process reduction counters (coordinator-side in a sharded
        build — worker-side canonicalizations happen in their processes)."""
        return {**self.stats, "classes": len(set(self._rep_memo.values()))}


def reduced(generator: SuccessorGenerator, symmetry: str
            ) -> SuccessorGenerator:
    """Wrap ``generator`` for the resolved ``symmetry`` mode."""
    if symmetry == "quotient":
        return SymmetryReducer(generator)
    return generator


def attach_symmetry_stats(generator: SuccessorGenerator, ts) -> None:
    """Record the reducer's counters on a built transition system."""
    if isinstance(generator, SymmetryReducer):
        ts.exploration_stats["symmetry"] = generator.stats_dict()
