"""Leaf tables: every query/LIVE leaf of a formula over all states at once.

Checking a µLA/µLP property over the finite abstraction (Thm 4.4, and
Thm 5.4 for RCYCL) bottoms out in the first-order leaves of Figure 1's
extension function: a query ``Q`` under an individual valuation, and
``LIVE(t1, ..., tn)``, which holds where every ``ti`` is in the state's
active domain. Quantifiers ask the same leaf again for every valuation,
so :class:`LeafTables` answers them from tables built in one pass over the
states (bit ``i`` of a mask is the ``i``-th state of the engine's order):

* **LIVE** — one value → state-mask table. A lookup ANDs one mask per
  term; its keys are exactly the values live in some state.
* **queries** — each query of the table shape (:func:`tabulable`) compiles
  to a :class:`~repro.fol.compile.CompiledQuery` over a term table local to
  the engine. Only the relations such queries read are encoded. One join
  per state, with the query's free slots unbound, fills a dict from the
  coded answer tuple to a state mask. A lookup is then one dict access; a
  value the term table never coded matches no state.

A table is exact only when the answers do not depend on the evaluation
domain: the reference (:func:`repro.fol.evaluation.holds`) adds the
valuation's own values to it. Every other query is answered state by
state through that reference.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.fol.ast import And, Atom, Eq, Exists, FalseF, Formula, TrueF
from repro.fol.compile import CompiledQuery
from repro.fol.evaluation import holds
from repro.relational.coding import CodedInstance, TermTable
from repro.relational.values import ServiceCall, Var
from repro.semantics.transition_system import State, TransitionSystem


def _atom_bound(formula: Formula) -> Optional[FrozenSet[Var]]:
    """Variables an atom binds in a table-shaped formula, or ``None`` when
    the formula is not table-shaped."""
    if isinstance(formula, (TrueF, FalseF)):
        return frozenset()
    if isinstance(formula, (Atom, Eq)):
        terms = formula.terms if isinstance(formula, Atom) \
            else (formula.left, formula.right)
        if any(isinstance(term, ServiceCall) for term in terms):
            return None
        if isinstance(formula, Eq):
            return frozenset()
        return frozenset(term for term in terms if isinstance(term, Var))
    if isinstance(formula, And):
        bound: set = set()
        for sub in formula.subs:
            found = _atom_bound(sub)
            if found is None:
                return None
            bound |= found
        return frozenset(bound)
    if isinstance(formula, Exists):
        inner = _atom_bound(formula.sub)
        if inner is None or not set(formula.variables) <= inner:
            return None
        return inner - set(formula.variables)
    return None


def tabulable(query: Formula) -> bool:
    """Whether a table answers ``query`` exactly for every valuation.

    True for queries built from atoms, ``&``, equalities and ``E`` over
    variables that occur in the body, where every variable occurs in some
    atom. Their answers use only values of the atoms' tuples, so they do
    not depend on the evaluation domain."""
    bound = _atom_bound(query)
    return (bound is not None and query.free_variables() <= bound
            and not query.parameters())


class LeafTables:
    """The leaf tables of one formula over one transition system."""

    def __init__(self, ts: TransitionSystem, order: Sequence[State],
                 queries: Iterable[Formula]):
        self.ts = ts
        self.order = order
        self.table = TermTable()
        #: value -> mask of the states whose active domain holds it.
        self.live: Dict[Any, int] = {}
        #: query -> (free variables in slot order, coded answer -> mask).
        self._answers: Dict[Formula, Tuple[Tuple[Var, ...],
                                           Dict[Tuple[int, ...], int]]] = {}
        #: (query, valuation items) -> mask, for the reference-answered.
        self._reference: Dict[Tuple, int] = {}
        distinct = set(queries)
        plans = {query: CompiledQuery(query, self.table)
                 for query in distinct if tabulable(query)}
        #: Distinct queries answered by a table / by the reference.
        self.tabled = len(plans)
        self.referenced = len(distinct) - len(plans)
        joins = []
        for query, plan in plans.items():
            variables = tuple(plan.free_slots)
            answers: Dict[Tuple[int, ...], int] = {}
            self._answers[query] = (variables, answers)
            joins.append((plan, tuple(plan.free_slots.values()), answers))
        relation_codes = {
            name: self.table.code(name)
            for name in sorted({name for query in plans
                                for name in query.relations()})}
        codes = self.table.codes
        live = self.live
        for index, state in enumerate(order):
            bit = 1 << index
            instance = ts.db(state)
            for value in instance.active_domain():
                live[value] = live.get(value, 0) | bit
            if not joins:
                continue
            read: Dict[int, list] = {}
            for item in instance:
                code = relation_codes.get(item.relation)
                if code is not None:
                    read.setdefault(code, []).append(codes(item.terms))
            coded = CodedInstance(read)
            for plan, slots, answers in joins:
                domain = plan.domain(coded, self.table, frozenset())
                for regs in plan.iter_bindings(
                        coded, plan.fresh_regs(), domain):
                    key = tuple(regs[slot] for slot in slots)
                    answers[key] = answers.get(key, 0) | bit

    def live_mask(self, values: Iterable[Any], full: int) -> int:
        """States where every one of ``values`` is live."""
        mask = full
        for value in values:
            mask &= self.live.get(value, 0)
        return mask

    def query_mask(self, query: Formula, valuation: Dict[Var, Any]) -> int:
        """States where ``query`` holds under ``valuation`` (which binds
        every free variable of the query)."""
        entry = self._answers.get(query)
        if entry is None:
            relevant = {var: valuation[var]
                        for var in query.free_variables()}
            key = (query, frozenset(relevant.items()))
            mask = self._reference.get(key)
            if mask is None:
                mask = 0
                for index, state in enumerate(self.order):
                    if holds(query, self.ts.db(state), relevant):
                        mask |= 1 << index
                self._reference[key] = mask
            return mask
        variables, answers = entry
        key = []
        for var in variables:
            code = self.table.get(valuation[var])
            if code is None:
                return 0
            key.append(code)
        return answers.get(tuple(key), 0)
