"""Model checker for first-order µ-calculus over finite transition systems.

Implements the extension function of Figure 1 (plus ``LIVE``): ``evaluate``
maps a formula, an individual valuation ``v``, and a predicate valuation
``V`` to the set of states where the formula holds. Fixpoints are computed
by Knaster–Tarski iteration, sound because of syntactic monotonicity
(checked up front and cached per formula).

Two evaluation paths share this one public API:

* the **compiled path** (default) delegates to
  :mod:`repro.mucalc.engine` — the formula is compiled once per
  ``(checker, formula)`` pair into positive normal form with fixpoint
  cells, then evaluated over state bitmasks with leaf tables built in one
  pass over the states, predecessor-mask modalities, lazy LIVE-restricted
  quantifiers, cross-iteration memoization, and Emerson–Lei warm-started
  fixpoints; ``last_checking_stats`` reports the iteration/reset/memo and
  leaf-table counters of the most recent run;
* the **reference path** (``compiled=False``) is the seed-era recursive
  evaluator, kept verbatim (modulo lazy quantifier enumeration) as the
  semantic baseline the parity tests pin the compiled path against.

First-order quantification ranges over the *finite* value set of the
transition system (plus the formula's constants). Over the abstract
transition system of a run-bounded DCDS this agrees with the PROP()
translation of Theorem 4.4; over an arbitrary finite TS it is the natural
finite-domain semantics of µL.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set

from repro.errors import VerificationError
from repro.fol.evaluation import holds
from repro.mucalc.ast import (
    Box, Diamond, Live, MAnd, MExists, MForall, MNot, MOr, Mu, MuFormula,
    Nu, PredVar, QF)
from repro.mucalc.engine.bitset import BitsetChecker
from repro.mucalc.engine.compiler import compile_formula
from repro.mucalc.syntax import check_monotone
from repro.relational.values import Var, is_value
from repro.semantics.transition_system import State, TransitionSystem
from repro.utils import sorted_values

Valuation = Dict[Var, Any]
PredValuation = Dict[str, FrozenSet[State]]


class ModelChecker:
    """Evaluates µL formulas over one finite transition system."""

    def __init__(self, ts: TransitionSystem,
                 extra_domain: Iterable[Any] = (),
                 compiled: bool = True):
        self.ts = ts
        self.states: FrozenSet[State] = ts.states
        self.compiled = compiled
        self._extra = frozenset(extra_domain)
        self._values: Optional[FrozenSet[Any]] = None
        # Per-(checker, formula) caches: monotonicity verdicts, formula
        # constants, and compiled engines — all were recomputed on every
        # ``evaluate`` call by the seed checker, even inside fixpoint
        # iteration via the PROP()-style helpers.
        self._monotone_ok: Set[MuFormula] = set()
        self._constants_cache: Dict[MuFormula, FrozenSet[Any]] = {}
        self._engines: Dict[MuFormula, BitsetChecker] = {}
        #: Counters of the most recent compiled evaluation (iterations,
        #: resets, peak extension size, memo hits, leaf tables); surfaced
        #: by ``pipeline.verify`` as ``VerificationReport.checking_stats``.
        self.last_checking_stats: Dict[str, Any] = {}

    # -- public API -----------------------------------------------------------

    def domain(self, formula: Optional[MuFormula] = None) -> FrozenSet[Any]:
        """Quantification domain: TS values, ``extra_domain``, and the
        formula's constants. The compiled engine reads the TS values off
        its LIVE table instead of this union."""
        if self._values is None:
            self._values = frozenset(self.ts.values())
        extra = self._extra if formula is None else self._constants(formula)
        return self._values | extra

    def _constants(self, formula: MuFormula) -> FrozenSet[Any]:
        """The formula's constants plus ``extra_domain`` (memoized)."""
        cached = self._constants_cache.get(formula)
        if cached is None:
            found = set(self._extra)
            for node in formula.walk():
                if isinstance(node, QF):
                    found.update(node.query.constants())
                elif isinstance(node, Live):
                    found.update(t for t in node.terms if is_value(t))
            cached = frozenset(found)
            self._constants_cache[formula] = cached
        return cached

    def evaluate(self, formula: MuFormula,
                 valuation: Optional[Valuation] = None,
                 predicates: Optional[PredValuation] = None
                 ) -> FrozenSet[State]:
        """The extension ``(Phi)^Upsilon_{v,V}`` (Figure 1)."""
        self._ensure_monotone(formula)
        if self.compiled:
            engine = self._engines.get(formula)
            if engine is None:
                engine = BitsetChecker(self.ts, compile_formula(formula),
                                       self._constants(formula))
                self._engines[formula] = engine
            result = engine.evaluate(valuation, predicates)
            self.last_checking_stats = engine.last_stats
            return result
        self.last_checking_stats = {"mode": "reference"}
        return self._eval(formula, dict(valuation or {}),
                          dict(predicates or {}),
                          self.domain(formula))

    def models(self, formula: MuFormula,
               valuation: Optional[Valuation] = None) -> bool:
        """``Upsilon |= Phi``: does the initial state satisfy the formula?"""
        free_p = formula.free_pvars()
        if free_p:
            raise VerificationError(
                f"formula has free predicate variables {sorted(free_p)}")
        unbound = formula.free_ivars() - set(valuation or {})
        if unbound:
            raise VerificationError(
                f"formula has unbound individual variables "
                f"{sorted(v.name for v in unbound)}")
        return self.ts.initial in self.evaluate(formula, valuation)

    def holding_states(self, formula: MuFormula) -> FrozenSet[State]:
        return self.evaluate(formula)

    def engine_for(self, formula: MuFormula) -> Optional[BitsetChecker]:
        """The cached compiled engine of ``formula``'s last evaluation.

        Used by the witness layer to read the converged fixpoint cells
        (:meth:`BitsetChecker.fixpoint_extension`) without re-evaluating.
        ``None`` on the reference path or before the first ``evaluate`` of
        the formula."""
        return self._engines.get(formula) if self.compiled else None

    # -- shared plumbing -------------------------------------------------------

    def _ensure_monotone(self, formula: MuFormula) -> None:
        if formula not in self._monotone_ok:
            check_monotone(formula)
            self._monotone_ok.add(formula)

    # -- reference evaluation (the seed-era recursive path) --------------------

    def _eval(self, formula: MuFormula, v: Valuation, V: PredValuation,
              domain: FrozenSet[Any]) -> FrozenSet[State]:
        if isinstance(formula, QF):
            return self._eval_query(formula, v)
        if isinstance(formula, Live):
            return self._eval_live(formula, v)
        if isinstance(formula, MNot):
            return self.states - self._eval(formula.sub, v, V, domain)
        if isinstance(formula, MAnd):
            result = self.states
            for sub in formula.subs:
                result &= self._eval(sub, v, V, domain)
                if not result:
                    break
            return result
        if isinstance(formula, MOr):
            result: FrozenSet[State] = frozenset()
            for sub in formula.subs:
                result |= self._eval(sub, v, V, domain)
                if result == self.states:
                    break
            return result
        if isinstance(formula, MExists):
            return self._eval_exists(formula, v, V, domain)
        if isinstance(formula, MForall):
            negated = MExists(formula.variables, MNot(formula.sub))
            return self.states - self._eval(negated, v, V, domain)
        if isinstance(formula, Diamond):
            target = self._eval(formula.sub, v, V, domain)
            return frozenset(
                state for state in self.states
                if self.ts.successors(state) & target)
        if isinstance(formula, Box):
            target = self._eval(formula.sub, v, V, domain)
            return frozenset(
                state for state in self.states
                if self.ts.successors(state) <= target)
        if isinstance(formula, PredVar):
            if formula.name not in V:
                raise VerificationError(
                    f"unbound predicate variable {formula.name}")
            return V[formula.name]
        if isinstance(formula, Mu):
            return self._fixpoint(formula, v, V, domain, least=True)
        if isinstance(formula, Nu):
            return self._fixpoint(formula, v, V, domain, least=False)
        raise VerificationError(f"cannot evaluate node {formula!r}")

    def _eval_query(self, formula: QF, v: Valuation) -> FrozenSet[State]:
        query = formula.query
        relevant = {var: value for var, value in v.items()
                    if var in query.free_variables()}
        missing = query.free_variables() - set(relevant)
        if missing:
            raise VerificationError(
                f"query {query!r} has unbound variables "
                f"{sorted(var.name for var in missing)}")
        return frozenset(
            state for state in self.states
            if holds(query, self.ts.db(state), relevant))

    def _eval_live(self, formula: Live, v: Valuation) -> FrozenSet[State]:
        values = []
        for term in formula.terms:
            if isinstance(term, Var):
                if term not in v:
                    raise VerificationError(
                        f"LIVE uses unbound variable {term.name}")
                values.append(v[term])
            else:
                values.append(term)
        return frozenset(
            state for state in self.states
            if all(value in self.ts.db(state).active_domain()
                   for value in values))

    def _eval_exists(self, formula: MExists, v: Valuation,
                     V: PredValuation, domain: FrozenSet[Any]
                     ) -> FrozenSet[State]:
        variables = formula.variables
        result: FrozenSet[State] = frozenset()
        # Enumerate assignments lazily — materializing the domain^k list up
        # front blows memory on wide domains; the product preserves the
        # historical (last-variable-fastest) order.
        ordered = sorted_values(domain)
        for combo in itertools.product(ordered, repeat=len(variables)):
            extended = dict(v)
            extended.update(zip(variables, combo))
            result |= self._eval(formula.sub, extended, V, domain)
            if result == self.states:
                break
        return result

    def _fixpoint(self, formula, v: Valuation, V: PredValuation,
                  domain: FrozenSet[Any], least: bool) -> FrozenSet[State]:
        current: FrozenSet[State] = frozenset() if least else self.states
        while True:
            extended = dict(V)
            extended[formula.var] = current
            updated = self._eval(formula.sub, v, extended, domain)
            if updated == current:
                return current
            current = updated


def check(ts: TransitionSystem, formula: MuFormula,
          valuation: Optional[Valuation] = None,
          extra_domain: Iterable[Any] = (),
          compiled: bool = True) -> bool:
    """Convenience: ``ts |= formula``."""
    return ModelChecker(ts, extra_domain, compiled).models(formula,
                                                           valuation)


def extension(ts: TransitionSystem, formula: MuFormula,
              valuation: Optional[Valuation] = None,
              extra_domain: Iterable[Any] = (),
              compiled: bool = True) -> FrozenSet[State]:
    """Convenience: the set of states satisfying the formula."""
    return ModelChecker(ts, extra_domain, compiled).evaluate(formula,
                                                             valuation)
