"""The per-DCDS integer-coded relational kernel.

One :class:`RelationalKernel` is built lazily per DCDS object and lives as
long as that object: structurally equal specifications do not share one.
It owns:

* a :class:`~repro.relational.coding.TermTable` interning every ground term
  the exploration touches to a dense int code;
* each condition-action rule query, effect body, and equality constraint
  compiled **once** into a :class:`~repro.fol.compile.CompiledQuery` join
  plan over the integer indexes (the reference evaluator in
  :mod:`repro.fol.evaluation` stays authoritative and is pinned against the
  kernel by parity tests);
* interners for facts and instances, so every distinct fact/instance is
  materialized — and hashed — exactly once per kernel, and revisited
  successors come back as the *same* objects with warm caches.

The kernel is a pure accelerator: :mod:`repro.core.execution` consults it on
the hot path and falls back to the reference implementation whenever a piece
could not be compiled (service calls inside queries, exotic formula nodes)
or the kernel is disabled via ``REPRO_NO_KERNEL=1``. Constructed state is
process-local; pickling a DCDS drops the attached kernel (rebuilt on first
use in the receiving process), and the deterministic construction order
below is what lets :mod:`repro.engine.wire` align code assignments across
processes by snapshot replay.
"""

from __future__ import annotations

import weakref
from typing import (
    Any, Dict, FrozenSet, Iterable, List, Optional, Tuple)

from repro import env
from repro.errors import ExecutionError, IllegalParameters
from repro.fol.compile import (
    CompiledQuery, CompileError, _And, _Atom, _Eq, _Exists, _Forall, _Not,
    _Or)
from repro.relational import vector
from repro.relational.coding import (
    UNBOUND, CodedFact, CodedInstance, TermTable, coded_canonical_order)
from repro.relational.instance import Fact, Instance
from repro.relational.values import Fresh, Param, ServiceCall, Var, is_value
from repro.utils import sorted_values

SigmaItems = Tuple[Tuple[Param, Any], ...]

#: Kernels alive in this process (for cache clearing).
_LIVE_KERNELS: "weakref.WeakSet[RelationalKernel]" = weakref.WeakSet()


def _unpickle_kernel_placeholder():
    """Kernels never cross process boundaries; receivers rebuild lazily."""
    return None


class _Disabled:
    """Sentinel attached to a DCDS when the kernel is switched off."""

    def __reduce__(self):
        # Survive pickling as the singleton, so identity checks keep
        # working on DCDSs that cross process boundaries while disabled.
        return _disabled_sentinel, ()


def _disabled_sentinel() -> "_Disabled":
    return _DISABLED


_DISABLED = _Disabled()


def kernel_for(dcds) -> Optional["RelationalKernel"]:
    """The kernel attached to ``dcds``, built on first use.

    One kernel per DCDS object: it lives exactly as long as the DCDS it
    is attached to, so a rebuilt (even structurally equal) specification
    gets a fresh kernel with zeroed counters.

    Returns ``None`` when disabled (``REPRO_NO_KERNEL=1``). The switch is
    read when the kernel would first be attached to a DCDS, not on every
    hot call — set the variable before touching the DCDS (the parity tests
    construct fresh specifications per parametrization, so each sees the
    switch).
    """
    kernel = getattr(dcds, "_relational_kernel", None)
    if kernel is None:
        kernel = _DISABLED if env.kernel_disabled() \
            else RelationalKernel(dcds)
        object.__setattr__(dcds, "_relational_kernel", kernel)
    return None if kernel is _DISABLED else kernel


def clear_kernel_caches() -> None:
    """Release the interned instances/facts of every live kernel."""
    for kernel in list(_LIVE_KERNELS):
        kernel.clear_caches()


def kernel_instance_canonicalizer(dcds):
    """A ``StateInterner`` canonicalizer riding ``dcds``'s kernel.

    Returns a callable ``instance -> (canonical_instance, key) | None``
    for ``StateInterner(mode="canonical-first", canonicalizer=...)`` and
    :func:`repro.semantics.quotient.isomorphism_quotient` — canonical
    labeling then runs on the integer-coded kernel (memoized per kernel)
    instead of the object-level search. Falls back (``None``) per
    instance when the kernel is disabled or the instance has uncoded
    structure.
    """
    def canonicalize(instance: Instance):
        kernel = kernel_for(dcds)
        if kernel is None:
            return None
        renaming = kernel.canonical_instance_renaming(instance)
        if renaming is None:
            return None
        canonical = kernel.intern_instance(instance.rename(renaming)) \
            if renaming else instance
        return canonical, tuple(
            f.sort_key() for f in canonical.sorted_facts())
    # The equivalence this labeler decides; StateInterner refuses a
    # canonicalizer whose fixed set differs from its own (keys from
    # different equivalences are not comparable).
    canonicalize.fixed = frozenset(dcds.known_constants())
    return canonicalize


def attach_kernel_stats(dcds, ts) -> None:
    """Record the kernel's counters on a built transition system.

    Surfaces as ``exploration_stats["kernel"]`` and from there through
    ``VerificationReport.abstraction_stats``. A no-op when the kernel is
    disabled.
    """
    kernel = getattr(dcds, "_relational_kernel", None)
    if isinstance(kernel, RelationalKernel):
        ts.exploration_stats["kernel"] = kernel.stats_dict()
        ts.exploration_stats["vector"] = kernel.vector_stats_dict()
        ts.exploration_stats["batch"] = kernel.batch_stats_dict()


class _CompiledConstraint:
    """An equality constraint with a compiled query and coded sides."""

    __slots__ = ("query", "sides")

    def __init__(self, constraint, table: TermTable):
        self.query = CompiledQuery(constraint.query, table)
        sides = []
        for left, right in constraint.equalities:
            sides.append((self._side(left, table), self._side(right, table)))
        self.sides = tuple(sides)

    def _side(self, term, table: TermTable) -> Tuple[bool, int]:
        if isinstance(term, Var):
            return (False, self.query.free_slots[term])
        return (True, table.code(term))

    def satisfied(self, coded: CodedInstance, table: TermTable,
                  extra: FrozenSet[int],
                  vector_stats: Optional[Dict[str, int]] = None) -> bool:
        if not self.sides:
            return True
        domain = self.query.domain(coded, table, extra)
        matrix = vector.binding_matrix(self.query, coded, domain,
                                       stats=vector_stats)
        if matrix is not None:
            if vector_stats is not None:
                vector_stats["constraint_evals"] += 1
            return vector.constraint_rows_hold(matrix, self.sides)
        regs = self.query.fresh_regs()
        for binding in self.query.iter_bindings(coded, regs, domain):
            for (l_const, l_value), (r_const, r_value) in self.sides:
                left = l_value if l_const else binding[l_value]
                right = r_value if r_const else binding[r_value]
                if left != right:
                    return False
        return True


def _collect_head_slots(spec, slots: set) -> None:
    kind = spec[0]
    if kind == "v":
        slots.add(spec[1])
    elif kind == "call":
        for arg in spec[2]:
            _collect_head_slots(arg, slots)


class _RuleContext:
    """Everything precomputed for one condition-action rule."""

    __slots__ = ("plan", "params", "param_slots", "answer_slots",
                 "param_positions")

    def __init__(self, plan: CompiledQuery, params: Tuple[Param, ...]):
        self.plan = plan
        self.params = params
        # Reference ordering: answers() sorts full bindings by value over
        # the sorted variable names, parameters rendering as "@name" (the
        # @-variable rewrite of ``_param_query``); the result is then
        # stably re-sorted by the parameter values alone.
        named = sorted(
            [(var.name, slot) for var, slot in plan.free_slots.items()]
            + [(f"@{param.name}", slot)
               for param, slot in plan.param_slots.items()])
        self.answer_slots = tuple(slot for _, slot in named)
        self.param_slots = tuple(plan.param_slots[param]
                                 for param in params)
        order = {slot: position
                 for position, slot in enumerate(self.answer_slots)}
        self.param_positions = tuple(order[slot]
                                     for slot in self.param_slots)


class _SigmaContext:
    """One effect under one parameter substitution: bound registers, the
    evaluation-domain extras, the resolved head, and whether that head can
    produce a service-call term by itself (``has_calls``)."""

    __slots__ = ("regs", "extra", "head", "has_calls", "needed_slots")

    def __init__(self, regs: List[int], extra: FrozenSet[int], head: tuple,
                 has_calls: bool):
        self.regs = regs
        self.extra = extra
        self.head = head
        self.has_calls = has_calls
        # Body slots the resolved head actually reads ("v" specs, service-
        # call arguments). Fact production is a function of these alone, so
        # the vector path grounds each *distinct* projection once instead
        # of once per binding.
        slots: set = set()
        for _, specs, ready in head:
            if ready is None:
                for spec in specs:
                    _collect_head_slots(spec, slots)
        self.needed_slots: Tuple[int, ...] = tuple(sorted(slots))


class _EffectContext:
    """A compiled effect: body plan + head template + per-sigma contexts."""

    __slots__ = ("body", "head_specs", "sigmas")

    def __init__(self, body: CompiledQuery, head_specs: tuple):
        self.body = body
        self.head_specs = head_specs
        self.sigmas: Dict[SigmaItems, _SigmaContext] = {}


class RelationalKernel:
    """Integer-coded acceleration structures for one DCDS."""

    def __init__(self, dcds):
        _LIVE_KERNELS.add(self)
        self.dcds = dcds
        self.table = TermTable()
        table = self.table
        # Deterministic construction order — the spawn-side snapshot replay
        # of the wire codec relies on two kernels for the same DCDS
        # interning this prefix identically:
        # 1. relation names in schema order;
        for relation in dcds.schema.relations:
            table.code(relation.name)
        # 2. known constants (ADOM(I0) + process constants), sorted;
        known = sorted_values(dcds.known_constants())
        for value in known:
            table.code(value)
        self.known_constant_codes: FrozenSet[int] = frozenset(
            table.code(value) for value in known)
        #: Fresh indexes occupied by known constants — canonical minting
        #: must never hand these out, even when the constant is absent
        #: from the state (see canonical_form's reserved discipline).
        self._fixed_fresh_indexes: FrozenSet[int] = frozenset(
            value.index for value in known if isinstance(value, Fresh))
        self.initial_adom_codes: FrozenSet[int] = frozenset(
            table.code(value) for value in dcds.data.initial_adom)
        # 3. compiled plans in specification order (rules, then actions'
        #    effects, then constraints) — compilation interns each
        #    formula's constants.
        #    Hot-path lookups are by object id — no dataclass re-hashing;
        #    the ids belong to ``self.dcds``, so they stay stable (no reuse)
        #    for the kernel's whole life.
        self._rules: Dict[int, Optional[_RuleContext]] = {
            id(rule): self._compile_rule(dcds, rule)
            for rule in dcds.process.rules}
        self._effects: Dict[int, Optional[_EffectContext]] = {
            id(effect): self._compile_effect(effect)
            for action in dcds.process.actions for effect in action.effects}
        #: Action id -> its effects (in specification order).
        self._actions: Dict[int, tuple] = {
            id(action): tuple(action.effects)
            for action in dcds.process.actions}
        self._constraints: Optional[List[_CompiledConstraint]] = []
        for constraint in dcds.data.constraints:
            try:
                self._constraints.append(
                    _CompiledConstraint(constraint, table))
            except (CompileError, KeyError):
                self._constraints = None  # any failure: reference checks
                break

        # Interners (process-local; released by clear_caches).
        self._facts: Dict[CodedFact, Fact] = {}
        self._fact_codes: Dict[Fact, Tuple[int, Tuple[int, ...], bool]] = {}
        self._calls: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self._instances: Dict[FrozenSet[Fact], Instance] = {}
        #: Owner token of the per-instance caches this kernel keeps on the
        #: Instance objects themselves (see _own); clear_caches replaces
        #: it, which invalidates every one of them at once.
        self._token = object()
        self._eval_memo: Dict[tuple, Tuple[bool, Optional[Instance]]] = {}
        #: Run-wide grounding memo: ``(rule or sigma context, read key)``
        #: -> result, shared by every instance that agrees on what the
        #: context's plan reads (see _read_key).
        self._shared: Dict[tuple, Any] = {}
        #: Relation tuple arrays -> block id, the read keys' currency.
        #: Ids come from a counter and are never reused: an evicted block
        #: interned again gets a new id, so no two blocks share one.
        self._blocks: Dict[tuple, int] = {}
        self._next_block = 0
        self._successor_memos: Dict[Any, dict] = {}
        self._canonical_memo: Dict[tuple, Dict[Any, Fresh]] = {}
        self.stats: Dict[str, int] = {
            "legal_evals": 0, "effect_evals": 0, "evaluate_calls": 0,
            "fallbacks": 0, "facts_interned": 0, "instances_interned": 0,
            "instance_reuses": 0, "canonical_evals": 0,
            "canonical_memo_hits": 0,
        }
        #: Counters of the columnar backend (see repro.relational.vector):
        #: how many rule/effect/constraint evaluations ran batched, how
        #: many fell back mid-evaluation (row-budget overflow), the
        #: largest working set seen, and the adaptive-backoff pins
        #: (``plans_pinned`` plans demoted to the interpreted join,
        #: ``pin_skips`` evaluations that short-circuited on a pin).
        self.vector_stats: Dict[str, int] = {
            "legal_evals": 0, "effect_evals": 0, "constraint_evals": 0,
            "fallbacks": 0, "rows_peak": 0, "plans_pinned": 0,
            "pin_skips": 0,
        }
        #: Counters of the frontier-batch tier (see warm_legal_
        #: substitutions / warm_ground_effects): frontier blocks warmed
        #: (and the widest one), blocks skipped as too thin, memo entries
        #: filled by warming, distinct dedup groups actually evaluated,
        #: entries served by dedup fan-out, and whole-plan fallbacks to
        #: per-representative evaluation.
        self.batch_stats: Dict[str, int] = {
            "blocks": 0, "block_states_peak": 0, "thin_blocks": 0,
            "warmed_entries": 0, "unique_groups": 0, "dedup_hits": 0,
            "fallbacks": 0,
        }
        #: Per-plan read signature memo of the read keys (plans are
        #: kernel-owned, ids stable for the kernel's life; survives
        #: clear_caches like the plans themselves).
        self._plan_reads_memo: Dict[int, Tuple[tuple, bool]] = {}
        #: Memory budget the evictable memo caches are charged to, or
        #: ``None`` (plain unbounded dicts — the default). Attached by the
        #: storage layer for budgeted explorations; see attach_memo_budget.
        self._memo_budget = None

    # -- construction helpers ------------------------------------------------

    def _compile_rule(self, dcds, rule) -> Optional[_RuleContext]:
        try:
            plan = CompiledQuery(rule.query, self.table, False)
        except CompileError:
            return None
        params = dcds.process.action(rule.action).params
        if any(param not in plan.param_slots for param in params):
            # A declared parameter the query never mentions: the reference
            # path has its own (error) behaviour; don't emulate it here.
            return None
        return _RuleContext(plan, params)

    def _compile_effect(self, effect) -> Optional[_EffectContext]:
        """Compiled body + head template, or ``None`` (reference fallback).

        Head term specs are ``("c", code)`` constant, ``("v", slot)`` body
        variable, ``("p", param)`` action parameter resolved per sigma,
        ``("call", function, arg_specs)`` service call, or ``("u", term)``
        a variable the body never binds (raises like the reference when a
        binding arrives).
        """
        try:
            body = CompiledQuery(effect.body, self.table, True)
            head = tuple(
                (self.table.code(atom.relation),
                 tuple(self._head_spec(term, body) for term in atom.terms))
                for atom in effect.head)
        except CompileError:
            return None
        return _EffectContext(body, head)

    def _head_spec(self, term, body: CompiledQuery):
        if isinstance(term, Var):
            slot = body.free_slots.get(term)
            if slot is None:
                return ("u", term)
            return ("v", slot)
        if isinstance(term, Param):
            return ("p", term)
        if isinstance(term, ServiceCall):
            args = []
            for arg in term.args:
                if isinstance(arg, ServiceCall):
                    raise CompileError("nested service call in effect head")
                args.append(self._head_spec(arg, body))
            return ("call", term.function, tuple(args))
        return ("c", self.table.code(term))

    def clear_caches(self) -> None:
        self._facts.clear()
        self._fact_codes.clear()
        self._calls.clear()
        self._instances.clear()
        self._token = object()
        self._eval_memo.clear()
        self._shared.clear()
        self._blocks.clear()
        self._successor_memos.clear()
        self._canonical_memo.clear()
        for effect_context in self._effects.values():
            if effect_context is not None:
                effect_context.sigmas.clear()

    # -- memo budgeting (the storage layer's ``memos`` account) -------------

    def _budget_memo(self, mapping):
        """``mapping`` as-is, or budget-wrapped when a budget is attached.

        Creation hook for the lazily built per-configuration successor
        memos: with a budget attached they must be born evictable, not
        just retrofitted by attach.
        """
        if self._memo_budget is None:
            return mapping
        from repro.engine.store import BudgetedDict
        if isinstance(mapping, BudgetedDict):
            return mapping
        return BudgetedDict(self._memo_budget, "memos", data=mapping)

    def attach_memo_budget(self, budget) -> None:
        """Charge the evictable memo caches to ``budget``'s ``memos``
        account, with LRU eviction while the account is over its share.

        Only pure caches are wrapped — every wrapped entry recomputes to
        an equal value through the same evaluators that filled it, so
        eviction can never change what the kernel computes (the
        bit-identity contract of the accelerator tiers). The fact/call
        interners (``_facts``/``_fact_codes``/``_calls``) stay resident:
        they are identity anchors, and their entries are tiny.

        Per-instance caches are not wrapped: they ride the
        :class:`Instance` (see :meth:`_own`). The coded form lives until
        the instance's state is expanded (:meth:`release`); grounding
        results live for the run, with whatever holds the instance — the
        ``hot`` LRU, a memo here, or the frontier block being warmed.
        """
        self._memo_budget = budget
        wrap = self._budget_memo
        self._instances = wrap(self._instances)
        self._eval_memo = wrap(self._eval_memo)
        self._shared = wrap(self._shared)
        self._blocks = wrap(self._blocks)
        self._canonical_memo = wrap(self._canonical_memo)
        self._successor_memos = {
            key: wrap(memo)
            for key, memo in self._successor_memos.items()}

    def detach_memo_budget(self) -> None:
        """Undo :meth:`attach_memo_budget`: back to plain dicts (current
        contents kept; entries evicted while attached stay evicted and
        recompute on demand)."""
        if self._memo_budget is None:
            return
        self._memo_budget = None
        from repro.engine.store import BudgetedDict

        def unwrap(mapping):
            if isinstance(mapping, BudgetedDict):
                return mapping.unwrap()
            return mapping

        self._instances = unwrap(self._instances)
        self._eval_memo = unwrap(self._eval_memo)
        self._shared = unwrap(self._shared)
        self._blocks = unwrap(self._blocks)
        self._canonical_memo = unwrap(self._canonical_memo)
        self._successor_memos = {
            key: unwrap(memo)
            for key, memo in self._successor_memos.items()}

    def __reduce__(self):
        return _unpickle_kernel_placeholder, ()

    # -- per-instance caches --------------------------------------------------

    def _own(self, instance: Instance) -> Instance:
        """``instance`` with its kernel-cache slots claimed for this kernel.

        Codes are only meaningful against one term table, and an instance
        can reach two kernels (specifications built over one initial
        instance each get their own), so entries left by another kernel —
        or by this one before :meth:`clear_caches` — are a miss: claiming
        resets them.
        """
        if instance._owner is not self._token:
            instance._owner = self._token
            instance._coded = instance._coded_facts = None
            instance._entries = instance._grounded = None
        return instance

    def _grounded(self, instance: Instance) -> dict:
        """``instance``'s grounding results, keyed by rule/sigma context
        (built on first use: pending instances never need one)."""
        found = self._own(instance)._grounded
        if found is None:
            found = instance._grounded = {}
        return found

    def release(self, instance: Instance) -> None:
        """Drop ``instance``'s coded form once its state is expanded.

        The :class:`CodedInstance` (tuples, adom, evaluation domains, join
        indexes, columnar mirrors) serves only grounding; grounding
        results stay, since abstract states often share an instance.
        """
        if instance._owner is self._token:
            instance._coded = None

    # -- encoding ------------------------------------------------------------

    def encode_fact(self, fact: Fact) -> Tuple[int, Tuple[int, ...], bool]:
        """``(relation_code, term_codes, has_call)`` of a fact, interned."""
        found = self._fact_codes.get(fact)
        if found is not None:
            return found
        table = self.table
        relation = table.code(fact.relation)
        codes = tuple(table.code(term) for term in fact.terms)
        has_call = any(table.is_call(code) for code in codes)
        entry = (relation, codes, has_call)
        self._fact_codes[fact] = entry
        self._facts.setdefault((relation, codes), fact)
        return entry

    def intern_fact(self, relation: int, codes: Tuple[int, ...]) -> Fact:
        """The shared :class:`Fact` for coded terms (hashed once, ever)."""
        key = (relation, codes)
        found = self._facts.get(key)
        if found is None:
            table = self.table
            found = Fact(table.term(relation),
                         tuple(table.term(code) for code in codes))
            self._facts[key] = found
            has_call = any(table.is_call(code) for code in codes)
            self._fact_codes[found] = (relation, codes, has_call)
            self.stats["facts_interned"] += 1
        return found

    def intern_call(self, function: str, arg_codes: Tuple[int, ...]) -> int:
        """Code of the ground service call ``function(args)``."""
        key = (function, arg_codes)
        found = self._calls.get(key)
        if found is None:
            table = self.table
            call = ServiceCall(
                function, tuple(table.term(code) for code in arg_codes))
            found = table.code(call)
            self._calls[key] = found
        return found

    def encode_instance(self, instance: Instance) -> CodedInstance:
        """The coded form of an instance, cached on it until
        :meth:`release` (a released instance is re-encoded on demand)."""
        found = self._own(instance)._coded
        if found is None:
            facts = instance._coded_facts
            if facts is not None:
                found = CodedInstance.from_coded_facts(facts)
            else:
                fact_codes = self._fact_codes
                grouped: Dict[int, list] = {}
                for fact in instance:
                    relation, codes, _ = fact_codes.get(fact) \
                        or self.encode_fact(fact)
                    grouped.setdefault(relation, []).append(codes)
                found = CodedInstance(
                    {relation: tuple(codes) for relation, codes in
                     grouped.items()})
            instance._coded = found
        return found

    def coded_fact_set(self, instance: Instance) -> FrozenSet[CodedFact]:
        """The instance as coded facts, without materializing the full
        :class:`CodedInstance` (per-relation grouping and join indexes are
        only needed by evaluation — the wire codec just needs identities).
        """
        found = self._own(instance)._coded_facts
        if found is None:
            coded = instance._coded
            if coded is not None:
                found = coded.fact_set()
            else:
                found = frozenset(
                    self.encode_fact(fact)[:2] for fact in instance)
            instance._coded_facts = found
        return found

    def intern_instance(self, facts: Iterable[Fact]) -> Instance:
        """The shared :class:`Instance` for a fact set.

        Revisited successors return the same object — its hash, active
        domain, and per-position indexes are computed once per distinct
        instance instead of once per arrival.
        """
        intern_fact = self.intern_fact
        return self._intern_facts(frozenset(
            intern_fact(*self.encode_fact(fact)[:2]) for fact in facts))

    def _intern_coded_instance(self, coded: FrozenSet[CodedFact]) -> Instance:
        """:meth:`intern_instance` for coded facts (store and wire
        decoding): the same interned object, with the coded facts kept."""
        intern_fact = self.intern_fact
        found = self._own(self._intern_facts(frozenset(
            intern_fact(relation, codes) for relation, codes in coded)))
        found._coded_facts = coded
        return found

    def _intern_facts(self, facts: FrozenSet[Fact],
                      shell: Optional[Instance] = None) -> Instance:
        """The interned instance of a fact set, keyed by the set itself
        (fact hashes are cached); ``shell``, an owned instance of exactly
        ``facts``, is interned on a miss."""
        found = self._instances.get(facts)
        if found is None:
            found = shell if shell is not None \
                else self._own(Instance._trusted(facts))
            self._instances[facts] = found
            self.stats["instances_interned"] += 1
        else:
            self.stats["instance_reuses"] += 1
        return found

    # -- the hot-path operations --------------------------------------------

    def legal_substitution_items(
        self, rule, params: Tuple[Param, ...], instance: Instance
    ) -> Optional[Tuple[SigmaItems, ...]]:
        """Compiled twin of ``execution._legal_subs_cached``.

        Returns the legal substitutions as ``(param, value)`` item tuples in
        declaration order, sorted like the reference; ``None`` requests the
        reference fallback.
        """
        context = self._rules.get(id(rule))
        if context is None or context.params != params:
            self.stats["fallbacks"] += 1
            return None
        results = self._grounded(instance)
        found = results.get(context)
        if found is not None:
            return found
        self.stats["legal_evals"] += 1
        key = (context, self._read_key(context.plan, instance,
                                       self.initial_adom_codes))
        found = self._shared.get(key)
        if found is None:
            found = self._shared[key] = self._legal_eval(
                context, params, instance)
        results[context] = found
        return found

    def _legal_eval(self, context: _RuleContext, params: Tuple[Param, ...],
                    instance: Instance) -> Tuple[SigmaItems, ...]:
        """One rule evaluation, memo and counters left to the caller (the
        per-state entry above, or a dedup-group representative in
        :meth:`warm_legal_substitutions`)."""
        plan = context.plan
        coded = self.encode_instance(instance)
        domain = plan.domain(coded, self.table, self.initial_adom_codes)
        if not params:
            regs = plan.fresh_regs()
            return ((),) if plan.has_binding(coded, regs, domain) else ()
        answer_slots = context.answer_slots
        matrix = vector.binding_matrix(plan, coded, domain,
                                       stats=self.vector_stats)
        if matrix is not None:
            self.vector_stats["legal_evals"] += 1
            bindings = vector.distinct_projection(matrix, answer_slots)
        else:
            regs = plan.fresh_regs()
            seen = set()
            bindings = []
            for extension in plan.iter_bindings(coded, regs, domain):
                key = tuple(extension[slot] for slot in answer_slots)
                if key not in seen:
                    seen.add(key)
                    bindings.append(key)
        return self._legal_result(context, params, bindings)

    def _legal_result(self, context: _RuleContext,
                      params: Tuple[Param, ...],
                      bindings: List[Tuple[int, ...]]
                      ) -> Tuple[SigmaItems, ...]:
        """Reference-ordered sigma items from answer-slot projections (any
        input order: the two stable sorts are total over distinct keys)."""
        table = self.table
        sort_key = table.sort_key
        bindings.sort(key=lambda key: tuple(
            sort_key(code) for code in key))
        bindings.sort(key=lambda key: tuple(
            sort_key(key[position])
            for position in context.param_positions))
        term = table.term
        return tuple(
            tuple((param, term(key[position]))
                  for param, position in zip(params,
                                             context.param_positions))
            for key in bindings)

    def ground_effect(
        self, effect, sigma_items: SigmaItems, instance: Instance
    ) -> Optional[FrozenSet[Fact]]:
        """Compiled twin of ``execution._ground_effect_cached``."""
        context = self._effects.get(id(effect))
        if context is None:
            self.stats["fallbacks"] += 1
            return None
        sigma_context = context.sigmas.get(sigma_items)
        if sigma_context is None:
            sigma_context = self._bind_sigma(context, sigma_items)
            context.sigmas[sigma_items] = sigma_context
        results = self._grounded(instance)
        found = results.get(sigma_context)
        if found is not None:
            return found
        self.stats["effect_evals"] += 1
        key = (sigma_context, self._read_key(context.body, instance,
                                             sigma_context.extra))
        found = self._shared.get(key)
        if found is None:
            found = self._shared[key] = self._effect_eval(
                context, sigma_context, instance)
        results[sigma_context] = found
        return found

    def _effect_eval(self, context: _EffectContext,
                     sigma_context: _SigmaContext, instance: Instance
                     ) -> FrozenSet[Fact]:
        """One effect grounding, memo and counters left to the caller."""
        body = context.body
        coded = self.encode_instance(instance)
        domain = body.domain(coded, self.table, sigma_context.extra)
        bindings = None
        matrix = vector.binding_matrix(body, coded, domain,
                                       regs=sigma_context.regs,
                                       stats=self.vector_stats)
        if matrix is not None:
            self.vector_stats["effect_evals"] += 1
            bindings = self._matrix_bindings(sigma_context, body, matrix)
        if bindings is None:
            bindings = body.iter_bindings(
                coded, sigma_context.regs.copy(), domain)
        return self._produce_facts(sigma_context, bindings)

    def _matrix_bindings(self, sigma_context: _SigmaContext,
                         body: CompiledQuery, matrix):
        """Binding rows for head resolution from a vector answer matrix."""
        if not len(matrix):
            return ()
        if sigma_context.needed_slots:
            # Re-inflate each distinct projection to a sparse register
            # list so head resolution reads slots as usual.
            n_slots = body.n_slots
            needed = sigma_context.needed_slots
            bindings = []
            for row in vector.distinct_projection(matrix, needed):
                binding = [UNBOUND] * n_slots
                for slot, code in zip(needed, row):
                    binding[slot] = code
                bindings.append(binding)
            return bindings
        # Head is fully ground; any binding produces it.
        return (sigma_context.regs,)

    def _produce_facts(self, sigma_context: _SigmaContext, bindings
                       ) -> FrozenSet[Fact]:
        """Resolve the sigma-bound head over every binding row."""
        produced: set = set()
        add = produced.add
        intern_fact = self.intern_fact
        for binding in bindings:
            for relation, specs, ready in sigma_context.head:
                if ready is not None:
                    add(ready)
                    continue
                codes = []
                for spec in specs:
                    kind = spec[0]
                    if kind == "c":
                        codes.append(spec[1])
                    elif kind == "v":
                        code = binding[spec[1]]
                        if code == UNBOUND:
                            raise ExecutionError(
                                f"head term {spec!r} not grounded by "
                                f"sigma/theta")
                        codes.append(code)
                    else:
                        codes.append(self._resolve_head(spec, binding))
                add(intern_fact(relation, tuple(codes)))
        return frozenset(produced)

    def _bind_sigma(self, context: _EffectContext,
                    sigma_items: SigmaItems) -> _SigmaContext:
        """Pre-resolve one parameter substitution against an effect."""
        body = context.body
        sigma = dict(sigma_items)
        missing = [param for param in body.params if param not in sigma]
        if missing:
            raise IllegalParameters(
                f"effect body still has parameters "
                f"{sorted(missing, key=repr)} after substitution")
        table = self.table
        sigma_codes = {param: table.code(sigma[param])
                       for param in body.params}
        regs = body.fresh_regs()
        for param, code in sigma_codes.items():
            regs[body.param_slots[param]] = code
        # The reference substitutes sigma into the body first, so parameter
        # values occurring in the formula count as constants of the
        # evaluation domain.
        extra = self.initial_adom_codes | frozenset(sigma_codes.values())
        head = []
        has_calls = False
        for relation, specs in context.head_specs:
            resolved = tuple(self._apply_sigma(spec, sigma)
                             for spec in specs)
            # A call spec, or a constant that is a ground call (sigma may
            # complete one); "v" slots read the source instance instead.
            has_calls = has_calls or any(
                spec[0] == "call"
                or (spec[0] == "c" and table.is_call(spec[1]))
                for spec in resolved)
            ready = None
            if all(spec[0] == "c" for spec in resolved):
                ready = self.intern_fact(
                    relation, tuple(spec[1] for spec in resolved))
            head.append((relation, resolved, ready))
        return _SigmaContext(regs, extra, tuple(head), has_calls)

    def _apply_sigma(self, spec, sigma: Dict[Param, Any]):
        kind = spec[0]
        if kind == "p":
            return ("c", self.table.code(sigma[spec[1]]))
        if kind == "call":
            _, function, args = spec
            resolved = tuple(self._apply_sigma(arg, sigma) for arg in args)
            if all(arg[0] == "c" for arg in resolved):
                return ("c", self.intern_call(
                    function, tuple(arg[1] for arg in resolved)))
            return ("call", function, resolved)
        return spec

    def _resolve_head(self, spec, binding: List[int]) -> int:
        kind = spec[0]
        if kind == "c":
            return spec[1]
        if kind == "v":
            code = binding[spec[1]]
            if code == UNBOUND:
                raise ExecutionError(
                    f"head term {spec!r} not grounded by sigma/theta")
            return code
        if kind == "call":
            _, function, args = spec
            return self.intern_call(function, tuple(
                self._resolve_head(arg, binding) for arg in args))
        # kind == "u": a variable the body never binds.
        raise ExecutionError(
            f"head term {spec[1]!r} not grounded by sigma/theta")

    def do_action_instance(self, action, sigma_items: SigmaItems,
                           instance: Instance, fallback
                           ) -> Optional[Instance]:
        """``DO(I, alpha sigma)`` as a fresh pending instance.

        Pendings are not shared per ``(sigma, instance)``: each state is
        expanded once, and value-equal pendings from different sources
        meet in :meth:`evaluate_calls`'s memo instead. ``fallback``
        computes one effect's facts the reference way when that effect
        could not be compiled; an action object the kernel has never
        indexed returns ``None`` (caller takes the reference path).

        ``CALLS(I)`` of the pending instance is decided once here. The
        step is *call-free* when every effect compiled, no sigma-resolved
        head can produce a call (``_SigmaContext.has_calls``) and the
        source instance holds no call term a head variable could copy:
        then ``CALLS(I) = ∅`` with no scan of the facts, and
        :meth:`evaluate_calls` looks the successor up by the pending's
        fact set. Otherwise the call-bearing facts keep their codes on the
        pending (:meth:`_call_entries`) and ``CALLS(I)`` is their call
        codes. Heads never nest calls (``_head_spec`` refuses them, the
        reference path through ``is_ground``), so every call is a whole
        term.
        """
        effects = self._actions.get(id(action))
        if effects is None:
            return None
        produced: set = set()
        call_free = True
        for effect in effects:
            facts = self.ground_effect(effect, sigma_items, instance)
            if facts is None:
                facts = fallback(effect)
                call_free = False
            elif call_free:
                call_free = not self._effects[id(effect)].sigmas[
                    sigma_items].has_calls
            produced.update(facts)
        table = self.table
        if call_free:
            call_free = not self.encode_instance(instance).holds_calls(table)
        pending = self._own(Instance._trusted(frozenset(produced)))
        if call_free:
            entries = ()
            pending._calls = frozenset()
        else:
            entries = self._call_entries(pending)
            pending._calls = frozenset(
                table.term(code) for _, _, codes in entries
                for code in codes if table.is_call(code))
        pending._entries = entries
        return pending

    def _call_entries(self, pending: Instance) -> tuple:
        """``(fact, relation_code, term_codes)`` of every call-bearing fact
        of ``pending``: the only facts :meth:`evaluate_calls` rewrites."""
        fact_codes = self._fact_codes
        entries = []
        for fact in pending:
            relation, codes, has_call = fact_codes.get(fact) \
                or self.encode_fact(fact)
            if has_call:
                entries.append((fact, relation, codes))
        return tuple(entries)

    # -- the frontier-batch tier ---------------------------------------------

    def _plan_reads(self, plan: CompiledQuery) -> Tuple[tuple, bool]:
        """``(relations read, uses evaluation domain)`` of a plan.

        The answer set of a compiled plan over an instance is a function
        of exactly these inputs: the contents of the relations its atoms
        read, plus — only when some node enumerates or tests the
        evaluation domain (equality enumeration, ``_pad`` under
        negation/universals/disjunction branches, vacuous ``Exists``) —
        the domain itself. ``uses_domain`` is conservative (node presence,
        not reachability), which can only shrink dedup groups, never
        corrupt them.
        """
        found = self._plan_reads_memo.get(id(plan))
        if found is None:
            relations: set = set()
            uses_domain = False
            stack = [plan.root]
            while stack:
                node = stack.pop()
                if isinstance(node, _Atom):
                    relations.add(node.relation)
                elif isinstance(node, _And):
                    stack.extend(node.ordered)
                elif isinstance(node, _Or):
                    uses_domain = True
                    stack.extend(sub for sub, _ in node.children)
                elif isinstance(node, _Not):
                    uses_domain = True
                    stack.append(node.sub)
                elif isinstance(node, _Forall):
                    uses_domain = True
                    stack.append(node.neg_exists)
                elif isinstance(node, _Exists):
                    if node.vacuous:
                        uses_domain = True
                    stack.append(node.sub)
                elif isinstance(node, _Eq):
                    uses_domain = True
            found = (tuple(sorted(relations)), uses_domain)
            self._plan_reads_memo[id(plan)] = found
        return found

    def _read_key(self, plan: CompiledQuery, instance: Instance,
                  extra: FrozenSet[int]) -> tuple:
        """What ``plan``'s answer over ``instance`` is a function of
        (:meth:`_plan_reads`): the block id of every relation it reads
        and, only when it reads it, the evaluation domain.

        Block ids intern ``CodedInstance.by_relation`` arrays, which are
        sorted, so equal contents get one id whatever the interning
        history; each coded instance caches its own ids.
        """
        relations, uses_domain = self._plan_reads(plan)
        coded = self.encode_instance(instance)
        ids = coded.block_ids
        key = []
        for relation in relations:
            found = ids.get(relation)
            if found is None:
                found = ids[relation] = self._block_id(
                    coded.by_relation.get(relation, ()))
            key.append(found)
        if uses_domain:
            key.append(plan.domain(coded, self.table, extra))
        return tuple(key)

    def _block_id(self, block: tuple) -> int:
        """The interned id of one relation's sorted tuple array."""
        found = self._blocks.get(block)
        if found is None:
            found = self._blocks[block] = self._next_block
            self._next_block += 1
        return found

    def _warm_plan(self, plan: CompiledQuery, regs: Optional[List[int]],
                   extra: FrozenSet[int], context,
                   instances: Iterable[Instance], convert, evaluate,
                   stat_key: str) -> None:
        """Fill ``context``'s grounding result of every instance that has
        none yet, in one pass.

        Instances are grouped by their read key (:meth:`_read_key`), so
        frontier siblings that agree on what the plan reads share one
        result. A group whose key is already in the run-wide memo is
        served from it. One representative per remaining group is
        evaluated — all of them in a single
        :func:`vector.binding_matrix_batch` call when the backend
        cooperates (``convert`` maps each per-group answer split to the
        result), else per representative via ``evaluate`` (the same
        pure evaluator the per-state entry uses). Results fan out to every
        group member, bumping the per-state counter ``stat_key`` once per
        member so batch-on and batch-off report identical kernel stats.
        """
        # Results ride the instance objects, so dedup is by identity: an
        # equal but distinct object (a worker's unpickled copy, a state
        # re-interned after a budget eviction) joins its twin's group
        # instead of missing later.
        unique = {id(instance): instance for instance in instances}
        todo = [instance for instance in unique.values()
                if context not in self._grounded(instance)]
        if not todo:
            return
        shared = self._shared
        groups: Dict[tuple, List[Instance]] = {}
        for instance in todo:
            groups.setdefault((context, self._read_key(plan, instance, extra)),
                              []).append(instance)
        results: Dict[tuple, Any] = {}
        keys = []
        for key in groups:
            found = shared.get(key)
            if found is None:
                keys.append(key)
            else:
                results[key] = found
        if keys:
            self.batch_stats["unique_groups"] += len(keys)
            representatives = [self.encode_instance(groups[key][0])
                               for key in keys]
            table = self.table
            matrix = vector.binding_matrix_batch(
                plan, representatives,
                [plan.domain(coded, table, extra)
                 for coded in representatives],
                regs=regs, stats=self.vector_stats)
            if matrix is not None:
                splits = vector.split_by_group(matrix, len(keys),
                                               plan.n_slots)
                computed = [convert(split) for split in splits]
            else:
                self.batch_stats["fallbacks"] += 1
                computed = [evaluate(groups[key][0]) for key in keys]
            for key, result in zip(keys, computed):
                results[key] = shared[key] = result
        for key, members in groups.items():
            result = results[key]
            for member in members:
                self._grounded(member)[context] = result
        self.stats[stat_key] += len(todo)
        self.batch_stats["warmed_entries"] += len(todo)
        self.batch_stats["dedup_hits"] += len(todo) - len(keys)

    def warm_legal_substitutions(self, rule, params: Tuple[Param, ...],
                                 instances: Iterable[Instance]) -> None:
        """Batch twin of :meth:`legal_substitution_items` over a frontier
        block: one columnar pass fills the same per-instance results the
        per-state entry reads, so the later per-state calls are hits and
        results stay bit-identical by construction. A no-op for rules the
        kernel could not compile (the per-state calls fall back to the
        reference path exactly as without batching)."""
        context = self._rules.get(id(rule))
        if context is None or context.params != params \
                or env.batch_disabled():
            return

        def convert(split):
            if not params:
                return ((),) if len(split) else ()
            return self._legal_result(
                context, params,
                vector.distinct_projection(split, context.answer_slots))

        self._warm_plan(
            context.plan, None, self.initial_adom_codes,
            context, instances, convert,
            lambda instance: self._legal_eval(context, params, instance),
            "legal_evals")

    def warm_ground_effects(self, effect, sigma_items: SigmaItems,
                            instances: Iterable[Instance]) -> None:
        """Batch twin of :meth:`ground_effect` over the frontier states
        sharing one ``(effect, sigma)``; same warming contract as
        :meth:`warm_legal_substitutions`."""
        context = self._effects.get(id(effect))
        if context is None or env.batch_disabled():
            return
        sigma_context = context.sigmas.get(sigma_items)
        if sigma_context is None:
            try:
                sigma_context = self._bind_sigma(context, sigma_items)
            except IllegalParameters:
                return  # the per-state call raises where batch-off would
            context.sigmas[sigma_items] = sigma_context

        def convert(split):
            return self._produce_facts(
                sigma_context,
                self._matrix_bindings(sigma_context, context.body, split))

        self._warm_plan(
            context.body, sigma_context.regs, sigma_context.extra,
            sigma_context, instances, convert,
            lambda instance: self._effect_eval(
                context, sigma_context, instance),
            "effect_evals")

    def note_batch_block(self, n_states: int, thin: bool) -> None:
        """Record one frontier block offered to the batch tier."""
        if thin:
            self.batch_stats["thin_blocks"] += 1
            return
        self.batch_stats["blocks"] += 1
        if n_states > self.batch_stats["block_states_peak"]:
            self.batch_stats["block_states_peak"] = n_states

    def evaluate_calls(
        self, pending: Instance, evaluation: Dict[ServiceCall, Any],
        check_constraints: bool = True,
    ) -> Tuple[bool, Optional[Instance]]:
        """Compiled twin of ``execution.evaluate_calls`` (after the
        missing-call check): returns ``(handled, instance-or-None)`` where
        an unhandled result requests the reference fallback. Only the
        call-bearing facts are rewritten; a new successor is checked as a
        candidate shell and interned only if it satisfies the constraints.
        """
        if check_constraints and self._constraints is None:
            self.stats["fallbacks"] += 1
            return (False, None)
        self.stats["evaluate_calls"] += 1
        table = self.table
        code = table.code
        mapping = {code(call): code(value)
                   for call, value in evaluation.items()}
        memo_key = (pending, tuple(sorted(mapping.items())),
                    check_constraints)
        found = self._eval_memo.get(memo_key)
        if found is not None:
            return found
        entries = self._own(pending)._entries
        if entries is None:
            entries = pending._entries = self._call_entries(pending)
        facts = pending.facts
        if entries:
            get = mapping.get
            intern_fact = self.intern_fact
            facts = facts.difference(
                fact for fact, _, _ in entries) | {
                intern_fact(relation, tuple(get(c, c) for c in codes))
                for _, relation, codes in entries}
        successor = self._instances.get(facts)
        if successor is None:
            successor = self._own(Instance._trusted(facts))  # the shell
        result: Tuple[bool, Optional[Instance]] = (True, None)
        violated = False
        if check_constraints and self._constraints:
            coded = self.encode_instance(successor)
            for constraint in self._constraints:
                if not constraint.satisfied(coded, table,
                                            self.initial_adom_codes,
                                            self.vector_stats):
                    violated = True
                    break
        if not violated:
            result = (True, self._intern_facts(facts, successor))
        self._eval_memo[memo_key] = result
        return result

    def canonical_renaming(
        self, instance: Instance, call_map: tuple = (),
        names: Optional[tuple] = None,
    ) -> Optional[Dict[Any, Any]]:
        """Canonical renaming of a state's *dead history* (Lemma C.2).

        Movable values are those of the call map outside both the
        specification's known constants and ``ADOM(I)`` — the dead
        history. They are renamed to ``Fresh(0), Fresh(1), ...``
        (skipping indexes live or fixed values occupy) so that two states
        whose isomorphism fixes the shared live part get *equal* images.
        Live values are never renamed: the representative's database
        equals its members' and value identity along quotient edges stays
        real — renaming live values would manufacture persistence between
        unrelated values across an edge, which µLP observes (see
        :mod:`repro.engine.symmetry`). The call map contributes
        pseudo-facts ``(function, args..., result)`` to the coded
        structure, so the refinement sees the full ``<I, M>`` shape.

        ``names`` replaces the default fresh-name minting with a closed
        canonical name universe: finite-pool semantics must keep
        representatives *inside* the pool, so their reducer passes the
        sorted movable pool values (see
        ``SuccessorGenerator.symmetry_values``); names already live in
        ``ADOM(I)`` are skipped per state.

        Runs :func:`~repro.relational.coding.coded_canonical_order` over
        int-tuple arrays and is memoized per kernel like facts/instances.
        Returns ``None`` when the state holds unevaluated service calls
        (callers fall back to the object-level path in
        :mod:`repro.relational.isomorphism`; whether a state holds calls
        is isomorphism-invariant, so every member of a class takes the
        same path).
        """
        key = (instance, call_map, names)
        found = self._canonical_memo.get(key)
        if found is not None:
            self.stats["canonical_memo_hits"] += 1
            return found
        table = self.table
        fixed = self.known_constant_codes
        facts: List[Tuple[tuple, Tuple[int, ...]]] = []
        adom_codes = set()
        history_codes = set()

        for fact in instance:
            relation, codes, has_call = self.encode_fact(fact)
            if has_call:
                return None
            facts.append((("r", table.term(relation)), codes))
            adom_codes.update(codes)
        for call, value in call_map:
            if not is_value(value) \
                    or any(not is_value(arg) for arg in call.args):
                return None
            codes = tuple(table.code(arg) for arg in call.args) \
                + (table.code(value),)
            facts.append((("c", call.function), codes))
            history_codes.update(codes)

        movable = history_codes - adom_codes - fixed
        if not movable:
            self._canonical_memo[key] = {}
            return {}
        self.stats["canonical_evals"] += 1
        ordered = coded_canonical_order(
            facts, sorted(movable, key=table.sort_key), table.sort_key)
        renaming: Dict[Any, Any] = {}
        if names is not None:
            # Pool universe: dead values become the canonically smallest
            # pool names not occupied by live values.
            available = [name for name in names
                         if table.code(name) not in adom_codes]
            if len(ordered) > len(available):
                raise ExecutionError(
                    f"state holds {len(ordered)} movable values but only "
                    f"{len(available)} canonical names are free")
            for position, code in enumerate(ordered):
                renaming[table.term(code)] = available[position]
        else:
            # Fresh minting skips every index a live or fixed Fresh value
            # occupies — fixed ones even when absent from the state (same
            # discipline as canonical_form's reserved set).
            reserved = set(self._fixed_fresh_indexes)
            reserved.update(
                table.term(code).index for code in adom_codes
                if isinstance(table.term(code), Fresh))
            index = 0
            for code in ordered:
                while index in reserved:
                    index += 1
                renaming[table.term(code)] = Fresh(index)
                index += 1
        self._canonical_memo[key] = renaming
        return renaming

    def canonical_instance_renaming(
        self, instance: Instance
    ) -> Optional[Dict[Any, Fresh]]:
        """Full canonical renaming of a bare instance.

        Every non-fixed active-domain value is movable and renamed to
        ``Fresh(0), Fresh(1), ...`` — the kernel-coded twin of
        :func:`repro.relational.isomorphism.canonical_form`: equal images
        for exactly the instances isomorphic via a bijection fixing the
        known constants (pinned against ``iter_isomorphisms`` ground truth
        by the property tests). This is the comparison/interning primitive;
        quotient-mode *states* use :meth:`canonical_renaming` instead,
        which must keep live values in place.

        Returns ``None`` when the instance holds unevaluated calls
        (object-level fallback).
        """
        key = ("full", instance)
        found = self._canonical_memo.get(key)
        if found is not None:
            self.stats["canonical_memo_hits"] += 1
            return found
        table = self.table
        fixed = self.known_constant_codes
        facts: List[Tuple[tuple, Tuple[int, ...]]] = []
        movable = set()
        reserved = set(self._fixed_fresh_indexes)
        for fact in instance:
            relation, codes, has_call = self.encode_fact(fact)
            if has_call:
                return None
            facts.append((("r", table.term(relation)), codes))
            for code in codes:
                if code not in fixed:
                    movable.add(code)
        self.stats["canonical_evals"] += 1
        ordered = coded_canonical_order(
            facts, sorted(movable, key=table.sort_key), table.sort_key)
        renaming: Dict[Any, Fresh] = {}
        index = 0
        for code in ordered:
            while index in reserved:
                index += 1
            renaming[table.term(code)] = Fresh(index)
            index += 1
        self._canonical_memo[key] = renaming
        return renaming

    def successor_memo(self, key) -> dict:
        """A per-configuration successor cache for pure generators.

        A ``parallel_safe`` generator's successor list is a pure function
        of the state, so repeated constructions (validation runs,
        benchmarks, bisimulation arenas) replay it from here instead of
        re-grounding. Keyed by the generator's configuration; entries hold
        the exact ``(state, instance, label)`` tuples previously yielded.
        """
        memo = self._successor_memos.get(key)
        if memo is None:
            memo = self._budget_memo({})
            self._successor_memos[key] = memo
        return memo

    def stats_dict(self) -> Dict[str, int]:
        return dict(self.stats)

    def vector_stats_dict(self) -> Dict[str, Any]:
        found: Dict[str, Any] = dict(self.vector_stats)
        found["enabled"] = vector.vector_enabled()
        return found

    def batch_stats_dict(self) -> Dict[str, Any]:
        found: Dict[str, Any] = dict(self.batch_stats)
        found["enabled"] = not env.batch_disabled()
        return found
