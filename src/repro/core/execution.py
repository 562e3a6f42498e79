"""Action execution: legal parameters, ``DO()``, and service-call handling.

This module implements the state-transformation primitives shared by both
service semantics (Sections 4.1 and 5.1):

* :func:`legal_substitutions` — the parameter substitutions ``sigma`` allowed
  by a condition-action rule in a state;
* :func:`do_action` — ``DO(I, alpha sigma)``: the instance (possibly
  containing ground service-call terms) produced by applying all effects;
* :func:`evaluate_calls` — apply an evaluation ``theta`` (service call ->
  value) and check the equality constraints, yielding the successor instance.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError, IllegalParameters, InstanceError
from repro.core.dcds import DCDS
from repro.core.process_layer import Action, CARule, EffectSpec
from repro.fol.ast import Formula
from repro.fol.evaluation import (
    answers, evaluation_domain, has_answer, iter_answers)
from repro.relational.instance import Fact, Instance
from repro.relational.kernel import clear_kernel_caches, kernel_for
from repro.relational.values import (
    Param, ServiceCall, Var, is_value, substitute_term)
from repro.utils import sorted_values, value_sort_key

ParamSubstitution = Dict[Param, Any]
CallEvaluation = Dict[ServiceCall, Any]


def _param_to_var(param: Param) -> Var:
    """Internal variable standing for an action parameter in rule queries."""
    return Var(f"@{param.name}")


@lru_cache(maxsize=4096)
def _param_query(rule: CARule, params: Tuple[Param, ...]) -> Formula:
    """The rule query with parameters replaced by internal variables."""
    return rule.query.substitute(
        {param: _param_to_var(param) for param in params})


@lru_cache(maxsize=16384)
def _substituted(formula: Formula, items: Tuple[Tuple[Any, Any], ...]
                 ) -> Formula:
    """Memoized ``formula.substitute(dict(items))``.

    Substituting a query is a full AST rebuild; explorations apply the same
    handful of substitutions to the same rule/effect bodies at every state.
    """
    return formula.substitute(dict(items))


def _sigma_items(sigma: ParamSubstitution) -> Tuple[Tuple[Param, Any], ...]:
    return tuple(sorted(sigma.items(), key=lambda item: item[0].name))


def legal_substitutions(
    dcds: DCDS, instance: Instance, rule: CARule
) -> List[ParamSubstitution]:
    """All legal parameter substitutions for ``rule`` in ``instance``.

    A substitution ``sigma`` is legal when ``<p1, ..., pm> sigma`` is an
    answer of the rule's query over the current instance (Section 4.1).

    The computation is memoized per ``(rule, instance)``: explorations
    evaluate every rule against every discovered state, and the same state
    (an immutable instance) recurs across builders (abstraction vs concrete
    validation runs) and across repeated constructions. Fresh dicts are
    returned on every call, so callers may mutate them.
    """
    action = dcds.process.action(rule.action)
    kernel = kernel_for(dcds)
    if kernel is not None:
        items = kernel.legal_substitution_items(
            rule, action.params, instance)
        if items is not None:
            return [dict(sigma_items) for sigma_items in items]
    items = _legal_subs_cached(rule, action.params, instance,
                               dcds.data.initial_adom)
    return [dict(sigma_items) for sigma_items in items]


@lru_cache(maxsize=65536)
def _legal_subs_cached(
    rule: CARule, params: Tuple[Param, ...], instance: Instance,
    initial_adom: FrozenSet[Any]
) -> Tuple[Tuple[Tuple[Param, Any], ...], ...]:
    if not params:
        domain = evaluation_domain(instance, rule.query, initial_adom)
        if has_answer(rule.query, instance, domain=domain):
            return ((),)
        return ()

    query = _param_query(rule, params)
    to_var = {param: _param_to_var(param) for param in params}
    domain = evaluation_domain(instance, query, initial_adom)
    substitutions = []
    for theta in answers(query, instance, domain=domain):
        substitutions.append(
            tuple((param, theta[to_var[param]]) for param in params))

    def order(sigma_items: Tuple[Tuple[Param, Any], ...]) -> tuple:
        return tuple(value_sort_key(value) for _, value in sigma_items)

    substitutions.sort(key=order)
    return tuple(substitutions)


def is_legal(dcds: DCDS, instance: Instance, rule: CARule,
             sigma: ParamSubstitution) -> bool:
    """Check one substitution for legality.

    Short-circuits on the first witness instead of materializing the full
    ``legal_substitutions`` list: ``sigma`` is substituted into the rule's
    query and the resulting closed formula is checked for satisfiability
    over the same evaluation domain the answer semantics would use (so a
    ``sigma`` binding values outside that domain is still illegal, matching
    the active-domain semantics of footnote 3).
    """
    action = dcds.process.action(rule.action)
    if frozenset(sigma) != frozenset(action.params):
        return False
    if not action.params:
        domain = evaluation_domain(instance, rule.query,
                                   dcds.data.initial_adom)
        return has_answer(rule.query, instance, domain=domain)

    query = _param_query(rule, action.params)
    domain = evaluation_domain(instance, query, dcds.data.initial_adom)
    if any(value not in domain for value in sigma.values()):
        return False
    bound = _substituted(rule.query, _sigma_items(sigma))
    return has_answer(bound, instance, domain=domain)


def enabled_moves(
    dcds: DCDS, instance: Instance
) -> Iterator[Tuple[Action, ParamSubstitution]]:
    """All (action, sigma) pairs enabled by some rule in the current state."""
    seen = set()
    for rule in dcds.process.rules:
        action = dcds.process.action(rule.action)
        for sigma in legal_substitutions(dcds, instance, rule):
            key = (action.name, tuple(sorted(
                ((param.name, sigma[param]) for param in action.params),
            )))
            if key not in seen:
                seen.add(key)
                yield action, sigma


@lru_cache(maxsize=1024)
def _effect_body(effect: EffectSpec) -> Formula:
    """Memoized ``effect.body`` (the property rebuilds ``q+ ∧ Q−``)."""
    return effect.body


@lru_cache(maxsize=16384)
def _formula_parameters(formula: Formula) -> FrozenSet[Param]:
    """Memoized ``formula.parameters()`` (an AST walk per grounding)."""
    return formula.parameters()


def _term_is_ground(term: Any) -> bool:
    if isinstance(term, (Var, Param)):
        return False
    if isinstance(term, ServiceCall):
        return term.is_ground()
    return True


@lru_cache(maxsize=16384)
def _grounded_head(effect: EffectSpec,
                   sigma_items: Tuple[Tuple[Param, Any], ...]) -> tuple:
    """Head atoms with ``sigma`` pre-applied, compiled for fast theta loops.

    Returns ``(relation, terms, open_positions, ready_fact)`` per head atom:
    ``open_positions`` are the term indexes still containing variables (to be
    filled per answer ``theta``); atoms with none get a prebuilt ``ready``
    :class:`Fact` that is shared across all successor states, so its hash is
    computed once for the whole exploration.
    """
    sigma = dict(sigma_items)
    compiled = []
    for atom_ in effect.head:
        terms = tuple(substitute_term(term, sigma) for term in atom_.terms)
        open_positions = tuple(
            position for position, term in enumerate(terms)
            if not _term_is_ground(term))
        ready = Fact(atom_.relation, terms) if not open_positions else None
        compiled.append((atom_.relation, terms, open_positions, ready))
    return tuple(compiled)


def ground_effect(
    dcds: DCDS, instance: Instance, effect: EffectSpec,
    sigma: ParamSubstitution
) -> FrozenSet[Fact]:
    """The facts contributed by one effect: ``E sigma theta`` for every
    answer ``theta`` of ``(q+ ∧ Q−) sigma`` over the instance.

    Memoized per ``(effect, sigma, instance)``: the same grounding
    subproblem recurs whenever a state is re-expanded by another builder
    (abstraction vs concrete validation) or a construction is repeated.

    When the DCDS has a :mod:`repro.relational.kernel`, the grounding runs
    on the compiled join plan over integer codes (observably identical
    facts; the reference path below stays authoritative for parity tests
    and as the fallback for uncompilable effects).
    """
    kernel = kernel_for(dcds)
    if kernel is not None:
        produced = kernel.ground_effect(effect, _sigma_items(sigma),
                                        instance)
        if produced is not None:
            return produced
    return _ground_effect_cached(effect, _sigma_items(sigma), instance,
                                 dcds.data.initial_adom)


@lru_cache(maxsize=65536)
def _ground_effect_cached(
    effect: EffectSpec, sigma_items: Tuple[Tuple[Param, Any], ...],
    instance: Instance, initial_adom: FrozenSet[Any]
) -> FrozenSet[Fact]:
    body = _substituted(_effect_body(effect), sigma_items)
    remaining_params = _formula_parameters(body)
    if remaining_params:
        raise IllegalParameters(
            f"effect body still has parameters {sorted(remaining_params, key=repr)} "
            f"after substitution")
    head = _grounded_head(effect, sigma_items)
    domain = evaluation_domain(instance, body, initial_adom)
    produced = set()
    # iter_answers may repeat bindings; the produced-facts set dedups, so
    # the sort/dedup work of answers() would be wasted here.
    for theta in iter_answers(body, instance, domain=domain):
        for relation, terms, open_positions, ready in head:
            if ready is not None:
                produced.add(ready)
                continue
            filled = list(terms)
            for position in open_positions:
                grounded = substitute_term(filled[position], theta)
                if isinstance(grounded, (Var, Param)):
                    raise ExecutionError(
                        f"head term {filled[position]!r} not grounded "
                        f"by sigma/theta")
                if isinstance(grounded, ServiceCall) \
                        and not grounded.is_ground():
                    raise ExecutionError(
                        f"service call {grounded!r} has non-ground arguments")
                filled[position] = grounded
            produced.add(Fact(relation, tuple(filled)))
    return frozenset(produced)


def do_action(
    dcds: DCDS, instance: Instance, action: Action,
    sigma: ParamSubstitution
) -> Instance:
    """``DO(I, alpha sigma)``: union of all grounded effects (Section 4.1).

    The result may contain ground service-call terms awaiting evaluation.
    On the kernel path the pending instance is shared per
    ``(action, sigma, instance)``, so its service-call set (decided once,
    without a fact scan on a call-free step) and the codes of its
    call-bearing facts stay warm when isomorphic regions of the state
    space replay the action.
    """
    declared = frozenset(action.params)
    if frozenset(sigma) != declared:
        raise IllegalParameters(
            f"substitution binds {sorted(sigma, key=repr)}, action "
            f"{action.name!r} declares {sorted(declared, key=repr)}")
    kernel = kernel_for(dcds)
    if kernel is not None:
        sigma_items = _sigma_items(sigma)
        pending = kernel.do_action_instance(
            action, sigma_items, instance,
            lambda effect: _ground_effect_cached(
                effect, sigma_items, instance, dcds.data.initial_adom))
        if pending is not None:
            return pending
    produced: set = set()
    for effect in action.effects:
        produced.update(ground_effect(dcds, instance, effect, sigma))
    return Instance._trusted(frozenset(produced))


def calls_of(pending: Instance) -> List[ServiceCall]:
    """``CALLS(I)``: the ground service calls in a pending instance, sorted."""
    return sorted(pending.service_calls(), key=repr)


def evaluate_calls(
    dcds: DCDS, pending: Instance, evaluation: CallEvaluation,
    check_constraints: bool = True
) -> Optional[Instance]:
    """Apply a service-call evaluation and check equality constraints.

    Returns the successor instance, or ``None`` when the evaluation violates
    some equality constraint (such successors do not exist — condition 4 of
    EXECS / N-EXECS).

    On the kernel path only the pending's call-bearing facts are rewritten
    (over integer codes; a call-free step rewrites nothing) and the
    successor comes back from the instance interner, keyed by its fact
    set: every distinct successor instance is interned (and hashed) once
    per process. A successor not interned yet is checked against the
    constraints as a candidate shell, and a violating one is never
    interned.
    """
    kernel = kernel_for(dcds)
    if kernel is not None:
        missing = pending.service_calls() - set(evaluation)
        if missing:
            raise InstanceError(
                f"unresolved service calls: {sorted_values(missing)}")
        handled, successor = kernel.evaluate_calls(
            pending, evaluation, check_constraints)
        if handled:
            return successor
    successor = pending.apply_call_map(evaluation)
    if check_constraints and not dcds.data.satisfies_constraints(successor):
        return None
    return successor


def clear_subproblem_caches() -> None:
    """Release the memoized evaluation subproblems.

    The ``lru_cache``s here and in :mod:`repro.fol.evaluation` /
    :mod:`repro.engine.fingerprint` key on (immutable) instances, which
    pins explored state databases in memory until eviction. They are
    bounded, so this is never required for correctness — call it between
    unrelated long-running explorations to return the memory early.
    """
    from repro.engine.fingerprint import instance_fingerprint
    from repro.fol.evaluation import clear_domain_caches

    _legal_subs_cached.cache_clear()
    _ground_effect_cached.cache_clear()
    _grounded_head.cache_clear()
    _substituted.cache_clear()
    instance_fingerprint.cache_clear()
    clear_domain_caches()
    clear_kernel_caches()


def successor_via(
    dcds: DCDS, instance: Instance, action: Action,
    sigma: ParamSubstitution, evaluation: CallEvaluation,
    check_constraints: bool = True
) -> Optional[Instance]:
    """One-shot: ``DO`` then evaluate calls then constraint check."""
    pending = do_action(dcds, instance, action, sigma)
    missing = pending.service_calls() - set(evaluation)
    if missing:
        raise ExecutionError(
            f"evaluation misses calls {sorted(missing, key=repr)}")
    return evaluate_calls(dcds, pending, evaluation, check_constraints)
