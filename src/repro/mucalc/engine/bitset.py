"""The compiled µ-calculus engine: state sets as machine words.

:class:`BitsetChecker` binds a :class:`~repro.mucalc.engine.compiler.
CompiledFormula` to one finite transition system. Every extension is a
Python int whose bit ``i`` stands for the ``i``-th state in discovery order
(:meth:`TransitionSystem.discovery_order`):

* leaves come from :class:`~repro.mucalc.engine.leaves.LeafTables`, built
  in one pass over the states: a ``LIVE`` or table-shaped query leaf is a
  dict lookup per valuation, never a per-state evaluation;
* ``&``/``|``/negation are single big-int operations over ``n/64`` words;
* ``Diamond`` gathers precomputed per-state *predecessor masks* over the
  target's set bits; ``[-]Phi`` is ``~<->~Phi``, which makes deadlocks
  satisfy it vacuously;
* quantifiers enumerate assignments lazily and, where a ``LIVE`` guard
  makes it sound (the µLA/µLP shapes), restrict guarded variables to values
  that are live in *some* state; the compiler's conjunct ordering runs the
  cheap ``LIVE`` guard first, and an empty intersection skips the rest;
* subformula extensions are memoized across fixpoint iterations, keyed by
  the plan node, the valuation restricted to its free individual variables,
  and the *versions* of the fixpoint approximations it depends on — so an
  outer iteration only recomputes the slice of the formula that actually
  reads the changed variable;
* fixpoints iterate Emerson–Lei style: every cell keeps its approximation
  between visits and warm-starts whenever the enclosing changes moved in
  its own iteration direction; it is reset only when an approximation it
  depends on moved against it (an enclosing opposite-sign change).
  Convergence compares words rather than hashing state sets.

Arbitrary-width Python ints keep the engine dependency-free. The
``compiled=False`` evaluator of :class:`repro.mucalc.ModelChecker` is the
oracle: ``tests/test_checker_parity.py`` and ``tests/test_vector.py`` pin
every extension to it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple)

from repro.errors import VerificationError
from repro.fol.ast import Formula
from repro.mucalc.engine.compiler import CompiledFormula, Plan
from repro.mucalc.engine.leaves import LeafTables
from repro.relational.values import Var
from repro.semantics.transition_system import State, TransitionSystem
from repro.utils import sorted_values

_MISSING = object()

#: Set-bit positions per byte value — scatter/gather loops walk a mask's
#: bytes instead of isolating one bit at a time with big-int arithmetic
#: (3x fewer interpreter rounds and no O(words) ``m & -m`` per bit).
_BITS_OF = [tuple(bit for bit in range(8) if value >> bit & 1)
            for value in range(256)]


@dataclass
class CheckStats:
    """Counters of one :meth:`BitsetChecker.evaluate` run."""

    iterations: int = 0
    resets: int = 0
    peak_extension: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    duration: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "iterations": self.iterations,
            "resets": self.resets,
            "peak_extension": self.peak_extension,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "duration_sec": self.duration,
        }


class _CellState:
    """Mutable approximation of one fixpoint cell.

    ``context`` records the valuation (restricted to the fixpoint's free
    individual variables) the approximation was computed under — a warm
    start under a *different* quantifier assignment would be unsound, so a
    context change forces a reset."""

    __slots__ = ("approx", "version", "needs_reset", "context")

    def __init__(self):
        self.approx: Optional[int] = None
        self.version = -1
        self.needs_reset = True
        self.context: Optional[Tuple] = None


def _query_leaves(plan: Plan) -> Iterator[Formula]:
    if plan.kind == "query":
        yield plan.query
    for child in plan.children:
        yield from _query_leaves(child)


class BitsetChecker:
    """Evaluates one compiled formula over one transition system.

    The instance is persistent: the memo table survives across
    :meth:`evaluate` calls (keys carry approximation versions, so stale
    entries simply stop matching), which makes repeated checks of the same
    formula — fixpoint unfoldings, diagnostics — nearly free.

    ``constants`` are the quantification domain's values beyond the states'
    own: the formula's constants and any caller extras.
    """

    #: Safety valve: the memo table is cleared when it outgrows this.
    MEMO_LIMIT = 1_000_000

    def __init__(self, ts: TransitionSystem, compiled: CompiledFormula,
                 constants: Iterable[Any] = ()):
        self.ts = ts
        self.compiled = compiled
        self._order = ts.discovery_order()
        self._position: Dict[State, int] = {
            state: index for index, state in enumerate(self._order)}
        self._full: int = (1 << len(self._order)) - 1
        self._nbytes: int = (len(self._order) + 7) // 8
        self._leaves = LeafTables(ts, self._order,
                                  _query_leaves(compiled.root))
        self._constants = frozenset(constants)
        self._domain_ordered: Optional[List[Any]] = None
        # LIVE-guarded quantified variables only need values that are live
        # in some state; dead extra-domain values and constants contribute
        # nothing under the guard.
        self._live_ordered: List[Any] = sorted_values(self._leaves.live)
        self._pred_masks: Optional[List[int]] = None
        self._env_masks: Dict[FrozenSet[State], int] = {}
        #: Last (argument, gather) per diamond occurrence. <-> distributes
        #: over union, so while a fixpoint grows its target monotonically
        #: (mu under a diamond, nu under a box's complemented diamond)
        #: each iteration gathers only the newly-set bits — O(edges) total
        #: per fixpoint run instead of O(iterations * edges).
        self._diamond_memo: Dict[int, Tuple[int, int]] = {}
        self._memo: Dict[Tuple, int] = {}
        self._cells: List[_CellState] = [
            _CellState() for _ in compiled.cells]
        self._versions = itertools.count()
        self.run_stats = CheckStats()
        self.last_stats: Dict[str, Any] = {}

    # -- public API -----------------------------------------------------------

    def evaluate(self, valuation: Optional[Mapping[Var, Any]] = None,
                 predicates: Optional[Mapping[str, Iterable[State]]] = None
                 ) -> FrozenSet[State]:
        started = time.perf_counter()
        env: Dict[str, Any] = {
            name: frozenset(states)
            for name, states in (predicates or {}).items()}
        # Approximations may not warm-start across top-level calls (the
        # valuation may differ); versions stay monotone so old memo entries
        # cannot be confused with the new run's.
        for cell in self._cells:
            cell.needs_reset = True
        self.run_stats = CheckStats()
        result = self._eval(self.compiled.root, dict(valuation or {}), env)
        self.run_stats.duration = time.perf_counter() - started
        self.last_stats = {
            "mode": "compiled",
            **self.compiled.info(),
            **self.run_stats.as_dict(),
            "memo_entries": len(self._memo),
            "leaf_tables": self._leaves.tabled,
            "leaf_reference": self._leaves.referenced,
        }
        return self._to_states(result)

    def fixpoint_extension(self, index: int) -> Optional[FrozenSet[State]]:
        """Final approximation of fixpoint cell ``index`` as a state set.

        Read-only view for the witness layer: after :meth:`evaluate`
        converged, the cell of the outermost ``mu``/``nu`` holds that
        fixpoint's extension, which bounds the support of any certifying
        run. ``None`` when the cell was never evaluated (e.g. short-circuit
        skipped its subtree)."""
        approx = self._cells[index].approx
        return None if approx is None else self._to_states(approx)

    def body_extension(self) -> Optional[FrozenSet[State]]:
        """Extension of the root fixpoint's predicate-variable-free operand.

        For the certificate shapes ``mu Z. body | <->(...)`` and ``nu Z.
        body & [-](...)`` the ``body`` compiles to exactly the pvar-free
        children of the connective under the root fixpoint, and the
        converged run already evaluated each of them — reading the set
        back here is a memo hit (their keys carry no cell versions) or a
        leaf-table lookup.
        ``None`` when the root shape does not decompose that way or the
        candidate parts are open. Callers should only rely on this for
        state-local bodies (a closed nested fixpoint part would re-iterate
        its cell rather than hit the memo)."""
        root = self.compiled.root
        if root.kind != "fix" or not root.children:
            return None
        inner = root.children[0]
        if inner.kind not in ("and", "or"):
            return None
        parts = [child for child in inner.children if not child.free_pvars]
        if not parts or any(part.free_ivars for part in parts):
            return None
        combined = self._eval(parts[0], {}, {})
        for part in parts[1:]:
            result = self._eval(part, {}, {})
            combined = combined | result if inner.kind == "or" \
                else combined & result
        return self._to_states(combined)

    # -- representation -------------------------------------------------------

    def _to_mask(self, states: Iterable[State]) -> int:
        position = self._position
        mask = 0
        for state in states:
            mask |= 1 << position[state]
        return mask

    def _to_states(self, mask: int) -> FrozenSet[State]:
        order = self._order
        found = []
        for byte_index, byte in enumerate(mask.to_bytes(self._nbytes,
                                                        "little")):
            if byte:
                base = byte_index * 8
                for bit in _BITS_OF[byte]:
                    found.append(order[base + bit])
        return frozenset(found)

    def _modal_index(self) -> List[int]:
        """Per-state predecessor masks, built once per engine."""
        preds = [0] * len(self._order)
        position = self._position
        for index, state in enumerate(self._order):
            bit = 1 << index
            for successor in self.ts.successors(state):
                preds[position[successor]] |= bit
        self._pred_masks = preds
        return preds

    def _diamond_mask(self, target: int) -> int:
        preds = self._pred_masks
        if preds is None:
            preds = self._modal_index()
        result = 0
        for byte_index, byte in enumerate(target.to_bytes(self._nbytes,
                                                          "little")):
            if byte:
                base = byte_index * 8
                for bit in _BITS_OF[byte]:
                    result |= preds[base + bit]
        return result

    def _diamond_step(self, uid: int, target: int) -> int:
        """One diamond evaluation at a plan occurrence, delta-gathered
        against the occurrence's previous target when it only grew."""
        memo = self._diamond_memo.get(uid)
        if memo is not None:
            last_target, last_result = memo
            if last_target & target == last_target:
                result = last_result | self._diamond_mask(
                    target ^ last_target)
                self._diamond_memo[uid] = (target, result)
                return result
        result = self._diamond_mask(target)
        self._diamond_memo[uid] = (target, result)
        return result

    # -- evaluation -----------------------------------------------------------

    def _memo_key(self, plan: Plan, valuation: Dict[Var, Any],
                  env: Dict[str, Any]) -> Tuple:
        pvals: List[Tuple] = []
        for name in plan.free_pvars:
            binding = env.get(name)
            if isinstance(binding, int):
                pvals.append((name, binding, self._cells[binding].version))
            elif binding is None:
                pvals.append((name, -1, -1))
            else:  # externally supplied constant extension
                pvals.append((name, binding))
        return (plan.uid,
                tuple(valuation.get(var, _MISSING)
                      for var in plan.free_ivars),
                tuple(pvals))

    def _eval(self, plan: Plan, valuation: Dict, env: Dict[str, Any]) -> int:
        # Leaves skip the memo: a table lookup is cheaper than its key, and
        # the leaf tables cache their own per-state answers.
        kind = plan.kind
        if kind == "query":
            return self._eval_query(plan, valuation)
        if kind == "live":
            return self._eval_live(plan, valuation)
        if kind == "var":
            return self._eval_var(plan, env)
        key = self._memo_key(plan, valuation, env)
        cached = self._memo.get(key)
        if cached is not None:
            self.run_stats.memo_hits += 1
            return cached
        self.run_stats.memo_misses += 1
        result = self._compute(plan, valuation, env)
        if len(self._memo) >= self.MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = result
        size = result.bit_count()
        if size > self.run_stats.peak_extension:
            self.run_stats.peak_extension = size
        return result

    def _compute(self, plan: Plan, valuation: Dict,
                 env: Dict[str, Any]) -> int:
        kind = plan.kind
        if kind == "and":
            result = self._full
            for child in plan.children:
                result &= self._eval(child, valuation, env)
                if not result:
                    break
            return result
        if kind == "or":
            result = 0
            for child in plan.children:
                result |= self._eval(child, valuation, env)
                if result == self._full:
                    break
            return result
        if kind == "exists":
            return self._eval_quantifier(plan, valuation, env, exists=True)
        if kind == "forall":
            return self._eval_quantifier(plan, valuation, env, exists=False)
        if kind == "diamond":
            return self._diamond_step(
                plan.uid, self._eval(plan.children[0], valuation, env))
        if kind == "box":
            return self._full ^ self._diamond_step(
                plan.uid,
                self._full ^ self._eval(plan.children[0], valuation, env))
        if kind == "fix":
            return self._eval_fix(plan, valuation, env)
        raise VerificationError(f"cannot evaluate plan kind {kind!r}")

    # -- leaves ---------------------------------------------------------------

    def _eval_query(self, plan: Plan, valuation: Dict[Var, Any]) -> int:
        missing = [var for var in plan.free_ivars if var not in valuation]
        if missing:
            raise VerificationError(
                f"query {plan.query!r} has unbound variables "
                f"{sorted(var.name for var in missing)}")
        mask = self._leaves.query_mask(plan.query, valuation)
        return self._full ^ mask if plan.negated else mask

    def _eval_live(self, plan: Plan, valuation: Dict[Var, Any]) -> int:
        values = []
        for term in plan.terms:
            if isinstance(term, Var):
                if term not in valuation:
                    raise VerificationError(
                        f"LIVE uses unbound variable {term.name}")
                values.append(valuation[term])
            else:
                values.append(term)
        mask = self._leaves.live_mask(values, self._full)
        return self._full ^ mask if plan.negated else mask

    def _eval_var(self, plan: Plan, env: Dict[str, Any]) -> int:
        binding = env.get(plan.name)
        if binding is None:
            raise VerificationError(
                f"unbound predicate variable {plan.name}")
        if isinstance(binding, int):
            result = self._cells[binding].approx
        else:
            # Externally supplied constant extension (a frozenset in the
            # env so the memo key stays hashable); converted once.
            result = self._env_masks.get(binding)
            if result is None:
                result = self._to_mask(binding)
                self._env_masks[binding] = result
        return result ^ self._full if plan.negated else result

    # -- quantifiers and fixpoints ---------------------------------------------

    def _eval_quantifier(self, plan: Plan, valuation: Dict,
                         env: Dict[str, Any], exists: bool) -> int:
        if self._domain_ordered is None and \
                len(plan.guarded_vars) < len(plan.variables):
            self._domain_ordered = sorted_values(
                self._leaves.live.keys() | self._constants)
        ranges = [
            self._live_ordered if var in plan.guarded_vars
            else self._domain_ordered
            for var in plan.variables]
        sub = plan.children[0]
        if exists:
            result = 0
            for combo in itertools.product(*ranges):
                extended = dict(valuation)
                extended.update(zip(plan.variables, combo))
                result |= self._eval(sub, extended, env)
                if result == self._full:
                    break
            return result
        result = self._full
        for combo in itertools.product(*ranges):
            extended = dict(valuation)
            extended.update(zip(plan.variables, combo))
            result &= self._eval(sub, extended, env)
            if not result:
                break
        return result

    def _eval_fix(self, plan: Plan, valuation: Dict,
                  env: Dict[str, Any]) -> int:
        meta = plan.cell
        cell = self._cells[meta.index]
        context = tuple(valuation.get(var, _MISSING)
                        for var in plan.free_ivars)
        if cell.needs_reset or cell.context != context:
            cell.approx = 0 if plan.least else self._full
            cell.version = next(self._versions)
            cell.needs_reset = False
            cell.context = context
            self.run_stats.resets += 1
            # A reset moves a mu down / a nu up; invalidate exactly the
            # descendants whose warm start that direction breaks.
            self._flag_descendants(meta, increase=not plan.least)
        extended = dict(env)
        extended[meta.name] = meta.index
        while True:
            self.run_stats.iterations += 1
            updated = self._eval(plan.children[0], valuation, extended)
            if updated == cell.approx:
                return cell.approx
            cell.approx = updated
            cell.version = next(self._versions)
            # mu iterations increase, nu iterations decrease (warm starts
            # preserve monotone iteration; see the module docstring).
            self._flag_descendants(meta, increase=plan.least)

    def _flag_descendants(self, meta, increase: bool) -> None:
        # An increasing change breaks the warm start of descendant nus
        # (they iterate downward toward a now-larger target); a decreasing
        # change breaks descendant mus.
        targets = meta.nu_descendants if increase else meta.mu_descendants
        for index in targets:
            self._cells[index].needs_reset = True
