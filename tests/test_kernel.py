"""Parity tests pinning the integer-coded kernel to the reference semantics.

The reference FO evaluator (:mod:`repro.fol.evaluation`) and the reference
execution path (``REPRO_NO_KERNEL=1``) stay authoritative; every kernel
result — compiled query answers, legal substitutions, effect grounding,
call evaluation, and whole transition systems — must be observably
identical to them.
"""

from __future__ import annotations

import gc
import os
import weakref
from collections import Counter

import pytest

from repro.core import DCDSBuilder, ServiceSemantics
from repro.core.execution import (
    clear_subproblem_caches, do_action, enabled_moves, evaluate_calls,
    ground_effect, legal_substitutions)
from repro.engine import DetAbstractionGenerator, Explorer
from repro.fol.ast import (
    And, Atom, Eq, Exists, Forall, Not, Or, TRUE, exists, forall)
from repro.fol.compile import CompiledQuery, CompileError
from repro.fol.evaluation import answers, evaluation_domain
from repro.gallery import (
    example_41, example_42, example_43, library_system, request_system,
    student_registry)
from repro.relational.coding import CodedInstance, TermTable
from repro.relational.instance import Instance, fact
from repro.relational.kernel import (
    _LIVE_KERNELS, RelationalKernel, clear_kernel_caches, kernel_for)
from repro.relational.values import Fresh, ServiceCall, Var
from repro.semantics import build_det_abstraction, rcycl
from repro.semantics.concrete import explore_concrete
from repro.workloads import (
    chain_dcds, commitment_blowup_dcds, lattice_dcds, random_dcds,
    warehouse_dcds)

x, y, z = Var("x"), Var("y"), Var("z")


def encode_instance(table: TermTable, instance: Instance) -> CodedInstance:
    grouped = {}
    for current in instance:
        relation = table.code(current.relation)
        grouped.setdefault(relation, []).append(table.codes(current.terms))
    return CodedInstance(
        {relation: tuple(tuples) for relation, tuples in grouped.items()})


def compiled_answer_set(formula, instance, extra=frozenset()):
    table = TermTable()
    plan = CompiledQuery(formula, table)
    coded = encode_instance(table, instance)
    extra_codes = frozenset(table.code(value) for value in extra)
    domain = plan.domain(coded, table, extra_codes)
    found = set()
    for binding in plan.iter_bindings(coded, plan.fresh_regs(), domain):
        found.add(frozenset(
            (var.name, table.term(binding[slot]))
            for var, slot in plan.free_slots.items()))
    return found


def reference_answer_set(formula, instance, extra=frozenset()):
    domain = evaluation_domain(instance, formula, frozenset(extra))
    return {
        frozenset((var.name, theta[var])
                  for var in formula.free_variables())
        for theta in answers(formula, instance, domain=domain)}


FORMULAS = [
    Atom("R", (x, y)),
    And.of(Atom("R", (x, y)), Atom("S", (y,))),
    And.of(Atom("R", (x, y)), Not(Atom("S", (y,)))),
    Or.of(Atom("S", (x,)), Atom("R", (x, x))),
    Exists((y,), And.of(Atom("R", (x, y)), Atom("S", (y,)))),
    Forall((y,), Or.of(Not(Atom("R", (x, y))), Atom("S", (y,)))),
    And.of(Atom("R", (x, y)), Eq(x, "a")),
    Eq(x, y),
    Not(Eq(x, y)),
    exists("y", And.of(Atom("R", (x, y)), exists("x", Atom("R", (y, x))))),
    forall("x", Or.of(Not(Atom("S", (x,))),
                      exists("y", Atom("R", (x, y))))),
    And.of(Atom("T", (1, x, y)), Atom("R", (x, y))),
    Or.of(And.of(Atom("R", (x, y)), Atom("S", (x,))), Eq(x, y)),
    exists("w", Atom("S", (x,))),  # vacuous quantified variable
    Exists((x,), TRUE),
    Not(Atom("S", (x,))),
    Forall((x,), Atom("S", (x,))),
    And.of(Atom("R", (x, y)), Or.of(Atom("S", (x,)), Not(Atom("S", (y,))))),
]

INSTANCES = [
    Instance([fact("R", "a", "b"), fact("R", "b", "c"), fact("R", "c", "c"),
              fact("S", "a"), fact("S", "c"), fact("T", 1, "a", "b")]),
    Instance([fact("S", "a")]),
    Instance([]),
]


class TestCompiledQueryParity:
    @pytest.mark.parametrize("index", range(len(FORMULAS)))
    def test_answers_match_reference(self, index):
        formula = FORMULAS[index]
        for instance in INSTANCES:
            for extra in (frozenset(), frozenset({"zz", 7}),
                          frozenset({"a"})):
                assert compiled_answer_set(formula, instance, extra) \
                    == reference_answer_set(formula, instance, extra), \
                    (formula, instance, extra)

    def test_service_call_in_query_is_rejected(self):
        from repro.relational.values import ServiceCall

        table = TermTable()
        with pytest.raises(CompileError):
            CompiledQuery(Atom("R", (ServiceCall("f", ("a",)), y)), table)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_subproblem_caches()
    yield
    clear_subproblem_caches()


def force_reference(dcds, monkeypatch):
    """A structurally identical DCDS pinned to the reference path."""
    monkeypatch.setenv("REPRO_NO_KERNEL", "1")
    assert kernel_for(dcds) is None
    return dcds


class TestExecutionParity:
    """Kernel vs reference on the execution primitives, state by state."""

    @pytest.mark.parametrize("seed", range(4))
    def test_primitives_on_random_dcds(self, seed, monkeypatch):
        kernel_dcds = random_dcds(seed)
        reference_dcds = force_reference(random_dcds(seed), monkeypatch)
        monkeypatch.delenv("REPRO_NO_KERNEL")
        assert kernel_for(kernel_dcds) is not None

        instance = kernel_dcds.initial
        for rule_k, rule_r in zip(kernel_dcds.process.rules,
                                  reference_dcds.process.rules):
            assert legal_substitutions(kernel_dcds, instance, rule_k) \
                == legal_substitutions(reference_dcds, instance, rule_r)

        moves_k = list(enabled_moves(kernel_dcds, instance))
        moves_r = list(enabled_moves(reference_dcds, instance))
        assert [(action.name, sorted((p.name, repr(v))
                                     for p, v in sigma.items()))
                for action, sigma in moves_k] \
            == [(action.name, sorted((p.name, repr(v))
                                     for p, v in sigma.items()))
                for action, sigma in moves_r]

        for (action_k, sigma_k), (action_r, sigma_r) in zip(
                moves_k, moves_r):
            pending_k = do_action(kernel_dcds, instance, action_k, sigma_k)
            pending_r = do_action(reference_dcds, instance, action_r,
                                  sigma_r)
            assert pending_k == pending_r
            for effect_k, effect_r in zip(action_k.effects,
                                          action_r.effects):
                assert ground_effect(kernel_dcds, instance, effect_k,
                                     sigma_k) \
                    == ground_effect(reference_dcds, instance, effect_r,
                                     sigma_r)
            evaluation = {call: "c0"
                          for call in pending_k.service_calls()}
            assert evaluate_calls(kernel_dcds, pending_k, evaluation) \
                == evaluate_calls(reference_dcds, pending_r, evaluation)


def edge_multiset(ts):
    return Counter(ts.edges())


GALLERY = {
    "example_41": lambda: example_41(),
    "example_42": lambda: example_42(),
    "example_43-nondet": lambda: example_43(
        ServiceSemantics.NONDETERMINISTIC),
    "student_registry": lambda: student_registry(),
    "request_system-slim": lambda: request_system(slim=True),
    "library_system": lambda: library_system(),
}


class TestTransitionSystemParity:
    """Whole constructions, kernel vs reference, bit-identical."""

    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_gallery_builds(self, name, monkeypatch):
        kernel_ts = _build(GALLERY[name]())
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        reference_ts = _build(GALLERY[name]())
        assert kernel_ts.states == reference_ts.states
        assert edge_multiset(kernel_ts) == edge_multiset(reference_ts)
        assert {s: kernel_ts.db(s) for s in kernel_ts.states} \
            == {s: reference_ts.db(s) for s in reference_ts.states}
        assert kernel_ts.truncated_states == reference_ts.truncated_states

    @pytest.mark.parametrize("seed", range(3))
    def test_random_nondet_pool(self, seed, monkeypatch):
        def build():
            dcds = random_dcds(
                seed, semantics=ServiceSemantics.NONDETERMINISTIC)
            return explore_concrete(dcds, ["c0", "c1"], depth=3,
                                    max_states=3000)
        kernel_ts = build()
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        reference_ts = build()
        assert kernel_ts.states == reference_ts.states
        assert edge_multiset(kernel_ts) == edge_multiset(reference_ts)

    def test_repeat_build_identical(self):
        """Warm-memo rebuilds replay the exact same transition system."""
        dcds = commitment_blowup_dcds(3)
        first = build_det_abstraction(dcds, 100000)
        second = build_det_abstraction(dcds, 100000)
        assert first.states == second.states
        assert edge_multiset(first) == edge_multiset(second)


def _build(dcds):
    if dcds.semantics is ServiceSemantics.DETERMINISTIC:
        return build_det_abstraction(dcds, max_states=20000)
    return rcycl(dcds, max_states=20000)


def _recorded_pendings(monkeypatch) -> list:
    """Record every pending instance the kernel's ``DO`` hands out."""
    pendings = []
    original = RelationalKernel.do_action_instance

    def recording(self, *args):
        pending = original(self, *args)
        if pending is not None:
            pendings.append(pending)
        return pending

    monkeypatch.setattr(RelationalKernel, "do_action_instance", recording)
    return pendings


def _assert_coded_calls(pendings) -> int:
    """Coded ``CALLS(I)`` equals the fact scan; returns the steps with calls."""
    assert pendings
    for pending in pendings:
        assert pending.service_calls() \
            == Instance._trusted(pending.facts).service_calls()
    return sum(1 for pending in pendings if pending.service_calls())


@pytest.mark.skipif(bool(os.environ.get("REPRO_NO_KERNEL")),
                    reason="exercises the kernel itself")
class TestCodedCallSet:
    """The kernel fills ``CALLS(I)`` of a pending instance from its codes."""

    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_gallery_pendings(self, name, monkeypatch):
        pendings = _recorded_pendings(monkeypatch)
        _build(GALLERY[name]())
        _assert_coded_calls(pendings)

    def test_random_det_pendings(self, monkeypatch):
        pendings = _recorded_pendings(monkeypatch)
        for seed in range(3):
            for shape in ("weakly-acyclic", "gr-acyclic", "free"):
                dcds = random_dcds(seed, shape=shape)
                Explorer(dcds.schema, max_states=400, max_depth=4,
                         on_budget="truncate").run(
                    DetAbstractionGenerator(dcds))
        assert _assert_coded_calls(pendings) > 0

    def test_random_nondet_pendings(self, monkeypatch):
        pendings = _recorded_pendings(monkeypatch)
        for seed in range(3):
            for shape in ("weakly-acyclic", "gr-acyclic", "free"):
                dcds = random_dcds(
                    seed, shape=shape,
                    semantics=ServiceSemantics.NONDETERMINISTIC)
                explore_concrete(dcds, ["c0", "c1"], depth=3,
                                 max_states=3000)
        assert _assert_coded_calls(pendings) > 0

    def test_pending_codes_kept_for_evaluate_calls(self, monkeypatch):
        dcds = example_41()
        kernel = kernel_for(dcds)
        moves = list(enabled_moves(dcds, dcds.initial))
        assert moves
        pendings = [do_action(dcds, dcds.initial, action, sigma)
                    for action, sigma in moves]
        assert any(pending.service_calls() for pending in pendings)
        encoded = []
        original = RelationalKernel.encode_fact

        def counting(self, fact):
            encoded.append(fact)
            return original(self, fact)

        monkeypatch.setattr(RelationalKernel, "encode_fact", counting)
        before = kernel.stats["evaluate_calls"]
        for pending in pendings:
            calls = sorted(pending.service_calls(), key=repr)
            evaluate_calls(dcds, pending, {
                call: Fresh(90 + position)
                for position, call in enumerate(calls)})
        # The kernel path ran, and read the codes DO left on each pending
        # instance instead of re-encoding its facts.
        assert kernel.stats["evaluate_calls"] == before + len(pendings)
        assert encoded == []


def call_term_copy():
    """An initial instance holding a call term, ``R(f('a'))``, and an
    action copying ``R`` into ``S``: no head produces a call, yet the
    copied fact carries one into ``DO()``."""
    builder = DCDSBuilder(name="call-term-copy", constants={"a"})
    builder.schema("R/1", "S/1")
    builder.initial([fact("R", ServiceCall("f", ("a",)))])
    builder.service("f/1")
    builder.action("copy", "R(x) ~> S(x)")
    builder.rule("true", "copy")
    return builder.build(ServiceSemantics.DETERMINISTIC)


class _CountingLookups(dict):
    """A dict counting ``get`` calls (per-fact code lookups)."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


@pytest.mark.skipif(bool(os.environ.get("REPRO_NO_KERNEL")),
                    reason="exercises the kernel itself")
class TestCallFreeSteps:
    """``DO()`` decides call-freeness once; call-free successors are
    looked up by the pending's fact set, with no per-fact re-encode."""

    def test_call_term_in_source_instance(self, monkeypatch):
        kernel_ts = build_det_abstraction(call_term_copy(), max_states=100)
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        reference_ts = build_det_abstraction(call_term_copy(),
                                             max_states=100)
        assert len(kernel_ts.states) == len(reference_ts.states) > 2
        assert kernel_ts.states == reference_ts.states
        assert {s: kernel_ts.db(s) for s in kernel_ts.states} \
            == {s: reference_ts.db(s) for s in reference_ts.states}

    def test_call_free_step_reads_no_fact_codes(self, monkeypatch):
        clear_kernel_caches()
        dcds = warehouse_dcds(1, payload=8)
        kernel = kernel_for(dcds)
        source = dcds.initial
        action, sigma = next(enabled_moves(dcds, source))  # warms source
        encoded = []
        original = RelationalKernel.encode_fact

        def counting(self, fact):
            encoded.append(fact)
            return original(self, fact)

        monkeypatch.setattr(RelationalKernel, "encode_fact", counting)
        kernel._fact_codes = _CountingLookups(kernel._fact_codes)
        pending = do_action(dcds, source, action, sigma)
        assert pending.service_calls() == frozenset()
        successor = evaluate_calls(dcds, pending, {})
        assert encoded == []
        assert kernel._fact_codes.lookups == 0
        assert successor == pending
        # Store and wire decoding land on the very same interned object.
        assert kernel._intern_coded_instance(
            kernel.coded_fact_set(successor)) is successor
        clear_kernel_caches()  # drop the kernel holding the counting dict

    def test_call_bearing_step_matches_reference(self, monkeypatch):
        dcds = example_41()
        moves = list(enabled_moves(dcds, dcds.initial))
        pendings = [do_action(dcds, dcds.initial, action, sigma)
                    for action, sigma in moves]
        reference = force_reference(example_41(), monkeypatch)
        expected = [do_action(reference, reference.initial, action, sigma)
                    for action, sigma in enabled_moves(
                        reference, reference.initial)]
        assert pendings == expected
        assert any(pending.service_calls() for pending in pendings)
        for pending, twin in zip(pendings, expected):
            assert pending.service_calls() \
                == Instance._trusted(twin.facts).service_calls()
            evaluation = {call: Fresh(90 + position) for position, call
                          in enumerate(sorted(pending.service_calls(),
                                              key=repr))}
            assert evaluate_calls(dcds, pending, evaluation) \
                == evaluate_calls(reference, twin, evaluation)


def _decoded(kernel, coded_facts) -> set:
    term = kernel.table.term
    return {fact(term(relation), *(term(code) for code in codes))
            for relation, codes in coded_facts}


@pytest.mark.skipif(bool(os.environ.get("REPRO_NO_KERNEL")),
                    reason="exercises the kernel itself")
class TestInstanceCacheOwnership:
    """Kernel caches ride the Instance object, owned by one kernel."""

    def grounded(self, kernel, dcds, instance):
        rule = dcds.process.rules[0]
        action = dcds.process.action(rule.action)
        items = kernel.legal_substitution_items(rule, action.params,
                                                instance)
        assert items
        return items, kernel.ground_effect(action.effects[0], items[0],
                                           instance)

    def test_two_kernels_keep_their_own_codes(self):
        dcds = example_41()
        first = RelationalKernel(dcds)
        second = RelationalKernel(dcds)
        second.table.code("shift")  # later terms code differently here
        instance = Instance.of(fact("P", "u"), fact("Q", "u", "v"))
        for kernel in (first, second, first, second):
            assert _decoded(kernel, kernel.coded_fact_set(instance)) \
                == set(instance.facts)
            assert _decoded(kernel,
                            kernel.encode_instance(instance).fact_set()) \
                == set(instance.facts)
        assert first.coded_fact_set(instance) \
            != second.coded_fact_set(instance)
        assert self.grounded(first, dcds, instance) \
            == self.grounded(second, dcds, instance)

    def test_clear_caches_drops_every_cached_result(self):
        dcds = example_41()
        kernel = kernel_for(dcds)
        instance = Instance.of(*dcds.initial.facts)
        coded = kernel.encode_instance(instance)
        grounded = self.grounded(kernel, dcds, instance)
        stats = dict(kernel.stats)
        assert kernel.encode_instance(instance) is coded
        assert self.grounded(kernel, dcds, instance) == grounded
        assert kernel.stats == stats  # warm: every lookup hit
        clear_kernel_caches()
        assert kernel.encode_instance(instance) is not coded
        assert self.grounded(kernel, dcds, instance) == grounded
        assert kernel.stats["legal_evals"] == stats["legal_evals"] + 1
        assert kernel.stats["effect_evals"] == stats["effect_evals"] + 1

    def test_pickled_instance_carries_no_cache(self):
        import pickle

        dcds = example_41()
        kernel = kernel_for(dcds)
        instance = Instance.of(*dcds.initial.facts)
        coded = kernel.encode_instance(instance)
        self.grounded(kernel, dcds, instance)
        restored = pickle.loads(pickle.dumps(instance))
        assert restored == instance
        assert restored._owner is None
        legal_evals = kernel.stats["legal_evals"]
        assert kernel.encode_instance(restored) is not coded
        self.grounded(kernel, dcds, restored)
        assert kernel.stats["legal_evals"] == legal_evals + 1


DRIVERS = pytest.mark.parametrize("driver", ["batched", "per-state"])


def _select_driver(driver, monkeypatch):
    if driver == "per-state":
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
    else:
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)


@pytest.mark.skipif(bool(os.environ.get("REPRO_NO_KERNEL")),
                    reason="exercises the kernel itself")
class TestFrontierRelease:
    """An expanded state's coded form is released; its grounding stays."""

    def assert_released(self, ts):
        for state in ts.states:
            instance = ts.db(state)
            assert instance._coded is None
            assert instance._grounded

    @DRIVERS
    def test_det_build_releases_coded_instances(self, driver, monkeypatch):
        _select_driver(driver, monkeypatch)
        clear_kernel_caches()
        self.assert_released(build_det_abstraction(
            warehouse_dcds(1, payload=8), 100000))

    def test_rcycl_releases_coded_instances(self):
        clear_kernel_caches()
        self.assert_released(rcycl(library_system(2, 1)))

    @DRIVERS
    @pytest.mark.parametrize("seed,shape,expected", [
        (1, "free", 86), (5, "weakly-acyclic", 36)])
    def test_each_instance_grounded_once(self, driver, seed, shape,
                                         expected, monkeypatch):
        # Abstract states <I, M> share I: grounding results must outlive
        # the release, or every sharing state grounds its instance again.
        _select_driver(driver, monkeypatch)
        clear_kernel_caches()
        dcds = random_dcds(seed, shape=shape)
        ts = build_det_abstraction(dcds, 100000)
        instances = {ts.db(state) for state in ts.states}
        legal_evals = kernel_for(dcds).stats["legal_evals"]
        assert legal_evals == len(dcds.process.rules) * len(instances)
        assert legal_evals == expected


def _content_key(kernel, plan, instance, extra) -> tuple:
    """What a plan's answer depends on, spelled out by contents (not by
    block ids): the fact sets of the relations it reads, plus the
    evaluation domain when it reads that."""
    relations, uses_domain = kernel._plan_reads(plan)
    coded = kernel.encode_instance(instance)
    key = tuple(frozenset(coded.by_relation.get(relation, ()))
                for relation in relations)
    if uses_domain:
        key += (plan.domain(coded, kernel.table, extra),)
    return key


def _assert_same_build(reference, other):
    assert reference.states == other.states
    assert edge_multiset(reference) == edge_multiset(other)
    assert {s: reference.db(s) for s in reference.states} \
        == {s: other.db(s) for s in other.states}
    assert reference.truncated_states == other.truncated_states


SHARED_BUILDS = {
    "rcycl-library": (lambda: library_system(2, 1), rcycl),
    "det-lattice": (lambda: lattice_dcds(1),
                    lambda dcds: build_det_abstraction(dcds, 100000)),
}


@pytest.mark.skipif(bool(os.environ.get("REPRO_NO_KERNEL")),
                    reason="exercises the kernel itself")
class TestSharedGrounding:
    """Each rule and effect is evaluated once per distinct read set, for
    the whole run; eviction and resets never change what is built."""

    @staticmethod
    def record_evaluations(monkeypatch) -> dict:
        """Every real rule/effect evaluation, as (context, contents)."""
        runs = {"legal": [], "effect": []}
        legal_eval = RelationalKernel._legal_eval
        effect_eval = RelationalKernel._effect_eval

        def counted_legal(kernel, context, params, instance):
            runs["legal"].append((context, _content_key(
                kernel, context.plan, instance, kernel.initial_adom_codes)))
            return legal_eval(kernel, context, params, instance)

        def counted_effect(kernel, context, sigma_context, instance):
            runs["effect"].append((sigma_context, _content_key(
                kernel, context.body, instance, sigma_context.extra)))
            return effect_eval(kernel, context, sigma_context, instance)

        monkeypatch.setattr(RelationalKernel, "_legal_eval", counted_legal)
        monkeypatch.setattr(RelationalKernel, "_effect_eval",
                            counted_effect)
        return runs

    @staticmethod
    def record_evictions(monkeypatch) -> Counter:
        """Entries shed from the budget-wrapped memo and block interner."""
        from repro.engine.store import BudgetedDict

        wrapped = {}
        evicted = Counter()
        attach = RelationalKernel.attach_memo_budget
        shed = BudgetedDict._shed

        def attach_and_capture(kernel, budget):
            attach(kernel, budget)
            wrapped["memo"] = kernel._shared
            wrapped["blocks"] = kernel._blocks

        def counted_shed(memo, incoming=0):
            before = len(memo)
            shed(memo, incoming)
            for name, found in wrapped.items():
                if found is memo:
                    evicted[name] += before - len(memo)

        monkeypatch.setattr(RelationalKernel, "attach_memo_budget",
                            attach_and_capture)
        monkeypatch.setattr(BudgetedDict, "_shed", counted_shed)
        return evicted

    @pytest.mark.parametrize(
        "name,legal_evals,effect_evals,legal_reads,effect_reads", [
            ("rcycl-library", 42, 168, 8, 32),
            ("det-lattice", 2, 8, 1, 4)])
    def test_one_evaluation_per_read_set(self, name, legal_evals,
                                         effect_evals, legal_reads,
                                         effect_reads, monkeypatch):
        runs = self.record_evaluations(monkeypatch)
        factory, build = SHARED_BUILDS[name]
        dcds = factory()
        build(dcds)
        stats = kernel_for(dcds).stats
        # Per (instance, context) lookups are unchanged...
        assert stats["legal_evals"] == legal_evals
        assert stats["effect_evals"] == effect_evals
        # ...but each distinct read set is evaluated once.
        assert len(runs["legal"]) == len(set(runs["legal"])) == legal_reads
        assert len(runs["effect"]) == len(set(runs["effect"])) \
            == effect_reads

    def test_domain_reading_plans_key_on_the_domain(self, monkeypatch):
        # ~R($p) reads only R but enumerates the evaluation domain: two
        # instances that agree on R but not on their active domains must
        # not share an answer.
        def spec():
            builder = DCDSBuilder(name="negated-param", constants={"a"})
            builder.schema("R/1", "S/1")
            builder.initial([fact("R", "a"), fact("S", "b")])
            builder.action("pick(p)", "R(x) ~> R(x)", "S(x) ~> S(x)")
            builder.rule("~R($p)", "pick")
            return builder.build(ServiceSemantics.DETERMINISTIC)

        def answers_over(dcds):
            return [legal_substitutions(
                dcds, Instance([fact("R", "a"), fact("S", value)]),
                dcds.process.rules[0]) for value in ("b", "c")]

        found = answers_over(spec())
        assert found[0] != found[1]
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        assert found == answers_over(spec())

    def test_budget_evictions_keep_builds_identical(self, monkeypatch):
        plain = build_det_abstraction(random_dcds(1, shape="free"), 100000)
        evicted = self.record_evictions(monkeypatch)
        budgeted = build_det_abstraction(random_dcds(1, shape="free"),
                                         100000, memory_budget=64 * 1024)
        assert evicted["memo"] > 0 and evicted["blocks"] > 0
        _assert_same_build(plain, budgeted)

    def test_evicted_block_ids_are_never_reused(self):
        kernel = RelationalKernel(chain_dcds(2))
        first = kernel._block_id(((1, 2),))
        second = kernel._block_id(((3, 4),))
        assert kernel._block_id(((1, 2),)) == first
        del kernel._blocks[((1, 2),)]  # what a budget eviction does
        # A new block must not take an id still held by a live one.
        third = kernel._block_id(((5, 6),))
        assert third not in (first, second)
        # The evicted block comes back under a new id, too.
        assert kernel._block_id(((1, 2),)) not in (first, second, third)

    def test_clear_caches_empties_the_memo(self):
        dcds = commitment_blowup_dcds(2)
        first = build_det_abstraction(dcds, 100000)
        kernel = kernel_for(dcds)
        assert kernel._shared and kernel._blocks
        clear_kernel_caches()
        assert not kernel._shared and not kernel._blocks
        _assert_same_build(first, build_det_abstraction(dcds, 100000))

    def test_rcycl_matches_reference_on_larger_library(self, monkeypatch):
        kernel_ts = rcycl(library_system(3, 2))
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        _assert_same_build(kernel_ts, rcycl(library_system(3, 2)))


@pytest.mark.skipif(bool(os.environ.get("REPRO_NO_KERNEL")),
                    reason="exercises the kernel itself")
class TestKernelInfrastructure:
    def test_equal_specs_get_distinct_kernels(self):
        first = commitment_blowup_dcds(2)
        build_det_abstraction(first, 100000)
        second = commitment_blowup_dcds(2)
        assert second.spec_signature() == first.spec_signature()
        kernel = kernel_for(second)
        # One kernel per DCDS object: a rebuilt twin starts cold.
        assert kernel is not kernel_for(first)
        assert kernel.dcds is second
        assert not any(kernel.stats.values())

    def test_kernel_dies_with_its_dcds(self):
        dcds = commitment_blowup_dcds(2)
        build_det_abstraction(dcds, 100000)
        kernel = weakref.ref(kernel_for(dcds))
        assert kernel() in _LIVE_KERNELS
        dcds_ref = weakref.ref(dcds)
        del dcds
        gc.collect()
        # Nothing module-level keeps the kernel, nor through it its DCDS.
        assert dcds_ref() is None
        assert kernel() is None

    def test_distinct_specs_get_distinct_kernels(self):
        assert kernel_for(chain_dcds(2)) is not kernel_for(chain_dcds(3))

    def test_no_kernel_env_attaches_sentinel(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        dcds = chain_dcds(2)
        assert kernel_for(dcds) is None
        # The decision sticks for this object even after unsetting.
        monkeypatch.delenv("REPRO_NO_KERNEL")
        assert kernel_for(dcds) is None

    def test_duplicate_successor_instances_are_shared(self):
        dcds = commitment_blowup_dcds(2)
        ts = build_det_abstraction(dcds, 100000)
        kernel = kernel_for(dcds)
        assert kernel.stats["instances_interned"] > 0
        # Equal database instances across distinct states are the *same*
        # object: hashed once, caches warm for every later arrival.
        representative = {}
        for state in ts.states:
            db = ts.db(state)
            if db == dcds.initial:
                continue  # the initial instance predates the interner
            first = representative.setdefault(db, db)
            assert first is db
        assert len(representative) < len(ts.states)

    def test_clear_caches_releases_interners(self):
        dcds = commitment_blowup_dcds(2)
        build_det_abstraction(dcds, 100000)
        kernel = kernel_for(dcds)
        assert kernel._instances
        clear_kernel_caches()
        assert not kernel._instances

    def test_pickled_dcds_drops_kernel(self):
        import pickle

        dcds = chain_dcds(2)
        kernel = kernel_for(dcds)
        assert kernel is not None
        restored = pickle.loads(pickle.dumps(dcds))
        assert getattr(restored, "_relational_kernel") is None
        rebuilt = kernel_for(restored)
        assert rebuilt is not None

    def test_direct_kernel_constructor_is_deterministic(self):
        first = RelationalKernel(chain_dcds(2))
        second = RelationalKernel(chain_dcds(2))
        assert first.table.snapshot() == second.table.snapshot()
