"""The frontier-batch grounding tier.

Three layers under test, bottom-up:

* :func:`repro.relational.vector.binding_matrix_batch` /
  :func:`~repro.relational.vector.split_by_group` — one columnar join
  over a stacked block of coded instances must answer exactly like the
  per-instance evaluations, group by group (the state-id column is folded
  into the join keys, so groups never bleed into each other);
* the kernel's memo-warming entries
  (:meth:`~repro.relational.kernel.RelationalKernel
  .warm_legal_substitutions` /
  :meth:`~repro.relational.kernel.RelationalKernel.warm_ground_effects`
  via :func:`repro.engine.generators.warm_frontier_block`) — warming
  fills the same per-instance memos with the same values and the same
  counter totals as the per-state calls, and dedups cross-state by the
  plans' read sets;
* the explorer's batched driver — whole builds bit-identical with the
  tier on and off (the broad sweep lives in ``test_differential.py``;
  here the deep-frontier ``conveyor`` family plus the
  ``abstraction_stats["batch"]`` accounting).

Plus the per-plan adaptive backoff of ``binding_matrix`` (losing plans
pin to the interpreted backend; batch calls ignore pins — amortization
is their point).
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.core.execution import (
    clear_subproblem_caches, enabled_moves, _sigma_items)
from repro.engine import DetAbstractionGenerator
from repro.engine.generators import warm_frontier_block
from repro.fol.ast import And, Atom, Eq, Exists, Forall, Not, Or
from repro.fol.compile import CompiledQuery
from repro.relational import Instance, fact, vector
from repro.relational.coding import CodedInstance, TermTable
from repro.relational.kernel import kernel_for
from repro.relational.values import Var
from repro.semantics import build_det_abstraction
from repro.workloads import conveyor_dcds

x, y, z = Var("x"), Var("y"), Var("z")

vector_live = pytest.mark.skipif(
    not vector.vector_enabled(),
    reason="vector backend off (REPRO_NO_VECTOR / numpy unavailable)")

kernel_live = pytest.mark.skipif(
    bool(os.environ.get("REPRO_NO_KERNEL")),
    reason="reads the kernel's counters (kernel disabled)")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_subproblem_caches()
    yield
    clear_subproblem_caches()


def encode(table: TermTable, instance: Instance) -> CodedInstance:
    grouped = {}
    for current in instance:
        relation = table.code(current.relation)
        grouped.setdefault(relation, []).append(table.codes(current.terms))
    return CodedInstance(
        {relation: tuple(tuples) for relation, tuples in grouped.items()})


# ---------------------------------------------------------------------------
# binding_matrix_batch: per-group answers == per-instance answers
# ---------------------------------------------------------------------------

def block_instances():
    """A frontier-like block: siblings sharing relations, a duplicate,
    an instance where ``R`` is empty, and one with an empty domain
    difference — the shapes that stress group separation."""
    import random

    rng = random.Random(7)
    nodes = [f"n{i}" for i in range(9)]
    shared_s = [fact("S", node) for node in nodes[:4]]

    def digraph(seed, n_edges):
        local = random.Random(seed)
        return [fact("R", local.choice(nodes), local.choice(nodes))
                for _ in range(n_edges)]

    first = Instance(digraph(0, 18) + shared_s)
    second = Instance(digraph(1, 14) + shared_s)
    third = Instance(shared_s)                       # R empty
    fourth = Instance(digraph(0, 18) + shared_s)     # == first (dup group)
    fifth = Instance(digraph(2, 10) + [fact("S", "n8")])
    assert first == fourth
    return [first, second, third, fourth, fifth]


BATCH_FORMULAS = [
    Atom("R", (x, y)),
    And.of(Atom("R", (x, y)), Atom("S", (y,))),
    And.of(Atom("R", (x, y)), Not(Atom("S", (y,)))),
    And.of(Atom("R", (x, y)), Atom("R", (y, z))),
    Or.of(Atom("S", (x,)), Atom("R", (x, x))),
    Exists((y,), And.of(Atom("R", (x, y)), Atom("S", (y,)))),
    Forall((y,), Or.of(Not(Atom("R", (x, y))), Atom("S", (y,)))),
    And.of(Atom("R", (x, y)), Eq(x, "n0")),
    Not(Atom("S", (x,))),
    Eq(x, y),
]


@vector_live
@pytest.mark.parametrize("formula", BATCH_FORMULAS,
                         ids=[str(i) for i in range(len(BATCH_FORMULAS))])
def test_batched_answers_match_per_instance(formula):
    table = TermTable()
    plan = CompiledQuery(formula, table)
    instances = block_instances()
    codeds = [encode(table, instance) for instance in instances]
    domains = [plan.domain(coded, table, frozenset()) for coded in codeds]
    free = sorted(plan.free_slots.items(), key=lambda item: item[0].name)
    slots = [slot for _, slot in free]

    matrix = vector.binding_matrix_batch(plan, codeds, domains)
    assert matrix is not None
    groups = vector.split_by_group(matrix, len(codeds), plan.n_slots)
    assert len(groups) == len(codeds)

    for coded, domain, group in zip(codeds, domains, groups):
        batched = {
            tuple(table.term(code) for code in row)
            for row in vector.distinct_projection(group, slots)}
        interpreted = {
            tuple(table.term(binding[slot]) for slot in slots)
            for binding in plan.iter_bindings(
                coded, plan.fresh_regs(), domain)}
        assert batched == interpreted


@vector_live
def test_split_by_group_partitions_and_drops_gid():
    np = pytest.importorskip("numpy")
    # Rows deliberately interleaved across groups; group 1 empty.
    matrix = np.array([
        [10, 11, 2],
        [20, 21, 0],
        [30, 31, 2],
        [40, 41, 3],
        [50, 51, 0],
    ], dtype=np.int64)
    groups = vector.split_by_group(matrix, 4, gid_slot=2)
    assert [group.tolist() for group in groups] == [
        [[20, 21], [50, 51]],
        [],
        [[10, 11], [30, 31]],
        [[40, 41]],
    ]


@vector_live
def test_batch_ignores_min_tuples_gate():
    # Tiny instances are below MIN_TUPLES (the per-state gate) but the
    # batch entry must still evaluate them — amortization is its point.
    table = TermTable()
    plan = CompiledQuery(Atom("R", (x, y)), table)
    instances = [Instance([fact("R", f"a{i}", f"b{i}")]) for i in range(5)]
    codeds = [encode(table, instance) for instance in instances]
    domains = [plan.domain(coded, table, frozenset()) for coded in codeds]
    assert all(vector.binding_matrix(plan, coded, domain) is None
               for coded, domain in zip(codeds, domains))
    matrix = vector.binding_matrix_batch(plan, codeds, domains)
    assert matrix is not None
    groups = vector.split_by_group(matrix, len(codeds), plan.n_slots)
    assert all(len(group) == 1 for group in groups)


# ---------------------------------------------------------------------------
# Kernel memo warming: same values, same counters, cross-state dedup
# ---------------------------------------------------------------------------

def frontier_block(dcds, width=8):
    """Distinct reachable instances of ``dcds`` to use as one block."""
    ts = build_det_abstraction(dcds, max_states=500)
    instances = list(dict.fromkeys(
        ts.db(state) for state in sorted(ts.states, key=str)))
    return instances[:width]


def grounding_tables(dcds, instances, warm):
    """Every per-state grounding result plus the counters, optionally
    after warming the whole block first."""
    kernel = kernel_for(dcds)
    assert kernel is not None
    if warm:
        warm_frontier_block(
            DetAbstractionGenerator(dcds), ("test-block",), instances)
    legal = {}
    for rule in dcds.process.rules:
        action = dcds.process.action(rule.action)
        for index, instance in enumerate(instances):
            legal[(rule.action, index)] = kernel.legal_substitution_items(
                rule, action.params, instance)
    effects = {}
    for index, instance in enumerate(instances):
        for action, sigma in enabled_moves(dcds, instance):
            items = _sigma_items(sigma)
            for position, effect in enumerate(action.effects):
                effects[(action.name, items, position, index)] = \
                    kernel.ground_effect(effect, items, instance)
    return legal, effects, dict(kernel.stats), dict(kernel.batch_stats)


@kernel_live
class TestMemoWarming:
    def test_warmed_values_and_counters_match_per_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        instances = frontier_block(conveyor_dcds(1))
        assert len(instances) >= vector.MIN_BATCH_GROUPS

        clear_subproblem_caches()
        legal_cold, effects_cold, stats_cold, _ = grounding_tables(
            conveyor_dcds(1), instances, warm=False)
        clear_subproblem_caches()
        legal_warm, effects_warm, stats_warm, batch = grounding_tables(
            conveyor_dcds(1), instances, warm=True)

        assert legal_warm == legal_cold
        assert effects_warm == effects_cold
        # Warming bumps the same per-state counters the per-state entries
        # would have (once per memo entry filled, fan-out included), so
        # the totals agree batch-on vs batch-off.
        for key in ("legal_evals", "effect_evals", "fallbacks"):
            assert stats_warm[key] == stats_cold[key], key
        assert batch["blocks"] == 1
        assert batch["warmed_entries"] > 0

    def test_equal_instances_are_warmed_per_object(self, monkeypatch):
        # Results ride the instance object, so a value-equal twin (a
        # worker's unpickled copy, a state re-interned under a memory
        # budget) is warmed with its group instead of missing later.
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        instances = frontier_block(conveyor_dcds(1))
        twins = [Instance._trusted(instance.facts)
                 for instance in instances]
        clear_subproblem_caches()
        dcds = conveyor_dcds(1)
        kernel = kernel_for(dcds)
        warm_frontier_block(DetAbstractionGenerator(dcds), ("twins",),
                            instances + twins)
        stats = dict(kernel.stats)
        grounding_tables(dcds, twins, warm=False)
        assert kernel.stats["legal_evals"] == stats["legal_evals"]
        assert kernel.stats["effect_evals"] == stats["effect_evals"]

    def test_cross_state_dedup_accounting(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        instances = frontier_block(conveyor_dcds(1))
        clear_subproblem_caches()
        _, _, _, batch = grounding_tables(
            conveyor_dcds(1), instances, warm=True)
        # Frontier siblings share the static payload graph P, so plans
        # reading only P collapse to one group per block.
        assert batch["unique_groups"] < batch["warmed_entries"]
        assert batch["dedup_hits"] \
            == batch["warmed_entries"] - batch["unique_groups"]
        assert batch["dedup_hits"] > 0

    def test_thin_blocks_fall_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        instances = frontier_block(
            conveyor_dcds(1))[:vector.MIN_BATCH_GROUPS - 1]
        clear_subproblem_caches()
        dcds = conveyor_dcds(1)
        kernel = kernel_for(dcds)
        warm_frontier_block(
            DetAbstractionGenerator(dcds), ("thin",), instances)
        assert kernel.batch_stats["thin_blocks"] == 1
        assert kernel.batch_stats["blocks"] == 0
        assert kernel.batch_stats["warmed_entries"] == 0

    def test_no_batch_flag_makes_warming_a_no_op(self, monkeypatch):
        instances = frontier_block(conveyor_dcds(1))
        clear_subproblem_caches()
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        dcds = conveyor_dcds(1)
        kernel = kernel_for(dcds)
        stats_before = dict(kernel.stats)
        warm_frontier_block(
            DetAbstractionGenerator(dcds), ("off",), instances)
        assert dict(kernel.stats) == stats_before
        assert kernel.batch_stats["blocks"] == 0
        assert kernel.batch_stats["warmed_entries"] == 0
        assert kernel.batch_stats_dict()["enabled"] is False


# ---------------------------------------------------------------------------
# Explorer driver: batched builds bit-identical, stats recorded
# ---------------------------------------------------------------------------

class TestBatchedDriver:
    def build(self):
        return build_det_abstraction(conveyor_dcds(1), max_states=500)

    def test_batched_build_matches_per_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        batched = self.build()
        clear_subproblem_caches()
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        per_state = self.build()
        assert batched.states == per_state.states
        assert Counter(batched.edges()) == Counter(per_state.edges())
        for state in batched.states:
            assert batched.db(state) == per_state.db(state)
        for key in ("growth_trace", "expansions", "frontier_peak",
                    "explored_states", "explored_edges"):
            assert batched.exploration_stats[key] \
                == per_state.exploration_stats[key], key

    @kernel_live
    def test_batched_kernel_counters_match_per_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        batched = self.build()
        clear_subproblem_caches()
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        per_state = self.build()
        for key in ("legal_evals", "effect_evals", "fallbacks"):
            assert batched.exploration_stats["kernel"][key] \
                == per_state.exploration_stats["kernel"][key], key

    @kernel_live
    def test_batch_stats_recorded(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        stats = self.build().exploration_stats["batch"]
        assert stats["enabled"] is True
        assert stats["blocks"] > 0
        assert stats["block_states_peak"] >= vector.MIN_BATCH_GROUPS
        assert stats["warmed_entries"] > 0
        assert stats["dedup_hits"] > 0

    @kernel_live
    def test_no_batch_driver_records_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        stats = self.build().exploration_stats["batch"]
        assert stats["enabled"] is False
        assert stats["blocks"] == 0
        assert stats["thin_blocks"] == 0


# ---------------------------------------------------------------------------
# Per-plan adaptive backoff (binding_matrix); batch entry ignores pins
# ---------------------------------------------------------------------------

@vector_live
class TestAdaptiveBackoff:
    def dense(self):
        table = TermTable()
        plan = CompiledQuery(
            And.of(Atom("R", (x, y)), Atom("R", (y, z))), table)
        instance = Instance(
            [fact("R", f"n{i}", f"n{j}")
             for i in range(6) for j in range(6)]
            + [fact("R", f"m{i}", f"m{i + 1}") for i in range(10)])
        coded = encode(table, instance)
        domain = plan.domain(coded, table, frozenset())
        return plan, coded, domain

    def test_consecutive_losses_pin_the_plan(self, monkeypatch):
        # Zero budget: every evaluation counts as a loss.
        monkeypatch.setattr(vector, "BACKOFF_NS_PER_TUPLE", 0)
        monkeypatch.setattr(vector, "BACKOFF_AFTER", 3)
        plan, coded, domain = self.dense()
        stats = {}
        for _ in range(vector.BACKOFF_AFTER):
            assert vector.binding_matrix(
                plan, coded, domain, stats=stats) is not None
        assert plan.backoff == vector.BACKOFF_AFTER
        assert stats.get("plans_pinned") == 1
        # Pinned: subsequent calls skip numpy entirely.
        assert vector.binding_matrix(plan, coded, domain, stats=stats) \
            is None
        assert vector.binding_matrix(plan, coded, domain, stats=stats) \
            is None
        assert stats.get("pin_skips") == 2
        assert stats.get("plans_pinned") == 1

    def test_one_win_resets_the_streak(self, monkeypatch):
        monkeypatch.setattr(vector, "BACKOFF_NS_PER_TUPLE", 0)
        monkeypatch.setattr(vector, "BACKOFF_AFTER", 3)
        plan, coded, domain = self.dense()
        vector.binding_matrix(plan, coded, domain)
        vector.binding_matrix(plan, coded, domain)
        assert plan.backoff == 2
        # A generous budget turns the next evaluation into a win.
        monkeypatch.setattr(vector, "BACKOFF_NS_PER_TUPLE", 10 ** 9)
        vector.binding_matrix(plan, coded, domain)
        assert plan.backoff is None

    def test_batch_entry_ignores_pins(self, monkeypatch):
        monkeypatch.setattr(vector, "BACKOFF_NS_PER_TUPLE", 0)
        monkeypatch.setattr(vector, "BACKOFF_AFTER", 1)
        plan, coded, domain = self.dense()
        vector.binding_matrix(plan, coded, domain)
        assert plan.backoff == vector.BACKOFF_AFTER
        assert vector.binding_matrix(plan, coded, domain) is None
        matrix = vector.binding_matrix_batch(
            plan, [coded, coded, coded, coded],
            [domain, domain, domain, domain])
        assert matrix is not None
