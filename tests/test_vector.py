"""Differential battery pinning the accelerators to the authoritative
paths.

The columnar join executor (:mod:`repro.relational.vector`, numpy) rides
behind the ``REPRO_NO_VECTOR`` kill switch (and numpy being installed); the
bitset µ-calculus engine (:mod:`repro.mucalc.engine.bitset`, pure Python)
has no switch and is pinned to the ``compiled=False`` reference checker.
Every observable — query answer sets, whole transition systems, checker
extensions — must be bit-identical across default /
``REPRO_NO_VECTOR=1`` / ``REPRO_NO_KERNEL=1`` and
against the reference, seeded so failures reproduce from the
parametrization alone.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import ServiceSemantics
from repro.core.execution import clear_subproblem_caches
from repro.fol.ast import And, Atom, Eq, Exists, Forall, Not, Or, exists
from repro.fol.compile import CompiledQuery
from repro.fol.evaluation import answers, evaluation_domain
from repro.gallery import example_43, student_registry
from repro.mucalc import EF, ModelChecker, parse_mu
from repro.mucalc.ast import Diamond, MAnd, MOr, Mu, Nu, PredVar
from repro.relational import DatabaseSchema, Instance, fact
from repro.relational import vector
from repro.relational.coding import TermTable
from repro.relational.values import Var
from repro.semantics import TransitionSystem, build_det_abstraction, rcycl
from repro.workloads import lattice_dcds, random_dcds

x, y, z = Var("x"), Var("y"), Var("z")

#: Tests that exercise the numpy path itself (rather than parity across
#: modes) need the backend live in this process.
vector_live = pytest.mark.skipif(
    not vector.vector_enabled(),
    reason="vector backend off (REPRO_NO_VECTOR / numpy unavailable)")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_subproblem_caches()
    yield
    clear_subproblem_caches()


# ---------------------------------------------------------------------------
# Query-level parity: vector executor vs interpreted joins vs reference
# ---------------------------------------------------------------------------

def dense_instance(seed: int) -> Instance:
    """A seeded instance big enough to clear ``MIN_TUPLES`` so the vector
    path actually engages (a pseudo-random digraph plus unary labels)."""
    import random

    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(14)]
    facts = [fact("R", rng.choice(nodes), rng.choice(nodes))
             for _ in range(40)]
    facts += [fact("S", node) for node in nodes if rng.random() < 0.5]
    facts += [fact("T", 1, "n0", "n1"), fact("T", 2, "n2", "n2")]
    return Instance(facts)


FORMULAS = [
    Atom("R", (x, y)),
    And.of(Atom("R", (x, y)), Atom("S", (y,))),
    And.of(Atom("R", (x, y)), Not(Atom("S", (y,)))),
    And.of(Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))),
    Or.of(Atom("S", (x,)), Atom("R", (x, x))),
    Exists((y,), And.of(Atom("R", (x, y)), Atom("S", (y,)))),
    Forall((y,), Or.of(Not(Atom("R", (x, y))), Atom("S", (y,)))),
    And.of(Atom("R", (x, y)), Eq(x, "n0")),
    Eq(x, y),
    Not(Eq(x, y)),
    exists("y", And.of(Atom("R", (x, y)), exists("x", Atom("R", (y, x))))),
    And.of(Atom("T", (1, x, y)), Atom("R", (x, y))),
    Or.of(And.of(Atom("R", (x, y)), Atom("S", (x,))), Eq(x, y)),
    Not(Atom("S", (x,))),
    And.of(Atom("R", (x, y)), Or.of(Atom("S", (x,)), Not(Atom("S", (y,))))),
]


def encode(table: TermTable, instance: Instance):
    from repro.relational.coding import CodedInstance

    grouped = {}
    for current in instance:
        relation = table.code(current.relation)
        grouped.setdefault(relation, []).append(table.codes(current.terms))
    return CodedInstance(
        {relation: tuple(tuples) for relation, tuples in grouped.items()})


def answer_sets(formula, instance):
    """(vector, interpreted, reference) answer sets for one formula."""
    table = TermTable()
    plan = CompiledQuery(formula, table)
    coded = encode(table, instance)
    domain = plan.domain(coded, table, frozenset())
    free = sorted(plan.free_slots.items(), key=lambda item: item[0].name)
    slots = [slot for _, slot in free]

    matrix = vector.binding_matrix(plan, coded, domain)
    vectorized = None
    if matrix is not None:
        vectorized = {
            tuple(table.term(code) for code in row)
            for row in vector.distinct_projection(matrix, slots)}

    interpreted = set()
    for binding in plan.iter_bindings(coded, plan.fresh_regs(), domain):
        interpreted.add(tuple(table.term(binding[slot]) for slot in slots))

    ref_domain = evaluation_domain(instance, formula, frozenset())
    reference = {
        tuple(theta[var] for var, _ in free)
        for theta in answers(formula, instance, domain=ref_domain)}
    return vectorized, interpreted, reference


class TestQueryParity:
    @pytest.mark.parametrize("index", range(len(FORMULAS)))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_way_answers(self, index, seed):
        vectorized, interpreted, reference = answer_sets(
            FORMULAS[index], dense_instance(seed))
        assert interpreted == reference, FORMULAS[index]
        if vector.vector_enabled():
            # The dense instance clears MIN_TUPLES, so the vector path
            # must have engaged (None would mean a silent fallback).
            assert vectorized is not None, FORMULAS[index]
            assert vectorized == reference, FORMULAS[index]


# ---------------------------------------------------------------------------
# Transition-system parity across every kill-switch mode
# ---------------------------------------------------------------------------

SWITCHES = ("REPRO_NO_VECTOR", "REPRO_NO_KERNEL")

#: Mode name -> env overrides. "reference" disables the integer kernel
#: wholesale (and with it the vector backend, which only runs inside kernel
#: routines).
MODES = {
    "vector": {},
    "no-vector": {"REPRO_NO_VECTOR": "1"},
    "reference": {"REPRO_NO_KERNEL": "1"},
}

def conditioned_grid():
    """A spec whose rule condition is a real join over an instance above
    ``MIN_TUPLES`` — exercises the vectorized legal-substitution path
    (copy-only effects, so the abstraction closes at one state)."""
    from repro.core import DCDSBuilder

    builder = DCDSBuilder(name="conditioned-grid")
    builder.schema("E/2")
    facts = [f"E('a{i}', 'a{(i * 3 + 1) % 17}')" for i in range(17)]
    facts += [f"E('a{i}', 'a{(i + 5) % 17}')" for i in range(17)]
    builder.initial(", ".join(facts))
    builder.action("tag(p)", "E(x, y) ~> E(x, y)")
    builder.rule("exists y. E($p, y) & ~E(y, $p)", "tag")
    return builder.build(ServiceSemantics.DETERMINISTIC)


def _build(dcds):
    if dcds.semantics is ServiceSemantics.DETERMINISTIC:
        return build_det_abstraction(dcds, max_states=20000)
    return rcycl(dcds, max_states=20000)


BUILDERS = {
    # Join-heavy grid: instances far above MIN_TUPLES, vector engages.
    "lattice[0]": lambda: build_det_abstraction(lattice_dcds(0), 100000),
    "lattice[1]": lambda: build_det_abstraction(lattice_dcds(1), 100000),
    # Gallery builds (nondeterministic ones go through rcycl).
    "example_43": lambda: _build(
        example_43(ServiceSemantics.NONDETERMINISTIC)),
    "student_registry": lambda: _build(student_registry()),
    # Seeded random specs (tiny instances: below MIN_TUPLES the vector
    # path stands aside — the modes must agree regardless).
    "random[0]": lambda: build_det_abstraction(random_dcds(0), 20000),
    "random[2]": lambda: build_det_abstraction(random_dcds(2), 20000),
}


def build_in_mode(name: str, mode: str, monkeypatch):
    for switch in SWITCHES:
        monkeypatch.delenv(switch, raising=False)
    for switch, value in MODES[mode].items():
        monkeypatch.setenv(switch, value)
    clear_subproblem_caches()
    return BUILDERS[name]()


class TestTransitionSystemParity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_modes_build_identical_systems(self, name, monkeypatch):
        systems = {mode: build_in_mode(name, mode, monkeypatch)
                   for mode in MODES}
        baseline = systems["reference"]
        for mode, ts in systems.items():
            assert ts.states == baseline.states, (name, mode)
            assert Counter(ts.edges()) == Counter(baseline.edges()), \
                (name, mode)
            assert {s: ts.db(s) for s in ts.states} \
                == {s: baseline.db(s) for s in baseline.states}, (name, mode)
            assert ts.truncated_states == baseline.truncated_states, \
                (name, mode)

    @vector_live
    def test_vector_counters_tick_on_join_heavy_build(self, monkeypatch):
        for switch in SWITCHES:
            monkeypatch.delenv(switch, raising=False)
        clear_subproblem_caches()
        ts = build_det_abstraction(lattice_dcds(1), 100000)
        stats = ts.exploration_stats["vector"]
        assert stats["enabled"]
        assert stats["effect_evals"] > 0
        assert stats["rows_peak"] > 0
        # The lattice rule fires unconditionally ("true"), so the legal-
        # substitution path has no join to vectorize there; a conditioned
        # parameterized rule over a same-scale instance ticks it.
        ts = build_det_abstraction(conditioned_grid(), 1000)
        assert ts.exploration_stats["vector"]["legal_evals"] > 0


# ---------------------------------------------------------------------------
# Checker parity: bitset engine vs reference
# ---------------------------------------------------------------------------

def graph_ts(n: int, chords: bool) -> TransitionSystem:
    """Ring with optional chords (chords=False gives the long-diameter
    chain-with-back-edge the bitset engine is built for)."""
    schema = DatabaseSchema.of("P/1", "Q/1")
    ts = TransitionSystem(schema, 0, name=f"graph[{n},{chords}]")
    for i in range(n):
        facts = [fact("P", f"v{i % 5}")]
        if (chords and i % 3 == 0) or (not chords and i == n - 1):
            facts.append(fact("Q", f"v{(i + 1) % 5}"))
        ts.add_state(i, Instance(facts))
    for i in range(n):
        ts.add_edge(i, (i + 1) % n)
        if chords:
            ts.add_edge(i, (i * 7 + 3) % n)
    return ts


def checker_formulas():
    probe = parse_mu("Q('v1')")
    infinitely_often = Nu("X", Mu("Y", MOr.of(
        MAnd.of(probe, Diamond(PredVar("X"))), Diamond(PredVar("Y")))))
    return {
        "EF": EF(probe),
        "inf-often": infinitely_often,
        "quantified": Nu("X", Mu("Y", MOr.of(
            MAnd.of(parse_mu("E x. live(x) & Q(x)"), Diamond(PredVar("X"))),
            Diamond(PredVar("Y"))))),
        "AG-deadlock-free": parse_mu("nu X. (<-> true) & [-] X"),
    }


class TestCheckerParity:
    @pytest.mark.parametrize("name", sorted(checker_formulas()))
    @pytest.mark.parametrize("chords", [True, False])
    def test_bitset_matches_reference(self, name, chords):
        ts = graph_ts(90, chords)
        formula = checker_formulas()[name]
        bitset_ext = ModelChecker(ts).evaluate(formula)
        reference_ext = ModelChecker(ts, compiled=False).evaluate(formula)
        assert bitset_ext == reference_ext, (name, chords)

    def test_midrun_vector_flip_keeps_the_engine(self, monkeypatch):
        # REPRO_NO_VECTOR covers the kernel joins only: flipping it
        # between evaluations reuses the same bitset engine, and both
        # answers equal the reference.
        ts = graph_ts(30, chords=True)
        formula = checker_formulas()["EF"]
        checker = ModelChecker(ts)
        monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
        first = checker.evaluate(formula)
        engine = checker.engine_for(formula)
        assert checker.last_checking_stats["mode"] == "compiled"
        assert "backend" not in checker.last_checking_stats
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        second = checker.evaluate(formula)
        assert checker.engine_for(formula) is engine
        reference = ModelChecker(ts, compiled=False).evaluate(formula)
        assert first == second == reference

    def test_bitset_respects_predicate_valuation(self):
        ts = graph_ts(20, chords=True)
        formula = Diamond(PredVar("X"))
        target = frozenset([5, 6])
        compiled = ModelChecker(ts).evaluate(formula, predicates={"X": target})
        reference = ModelChecker(ts, compiled=False).evaluate(
            formula, predicates={"X": target})
        assert compiled == reference


# ---------------------------------------------------------------------------
# Backend-selection plumbing: switches, heuristics, fallbacks
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_kill_switch_disables_binding_matrix(self, monkeypatch):
        table = TermTable()
        plan = CompiledQuery(Atom("R", (x, y)), table)
        coded = encode(table, dense_instance(0))
        domain = plan.domain(coded, table, frozenset())
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        assert not vector.vector_enabled()
        assert vector.binding_matrix(plan, coded, domain) is None

    def test_no_numpy_hook(self, monkeypatch):
        # Simulate an install without numpy: the module-level import
        # leaves ``_np`` as None.
        monkeypatch.setattr(vector, "_np", None)
        assert not vector.numpy_available()
        assert not vector.vector_enabled()
        with pytest.raises(vector.VectorUnsupported):
            vector.require_numpy()

    @vector_live
    def test_small_instances_take_the_interpreted_path(self):
        table = TermTable()
        plan = CompiledQuery(Atom("R", (x, y)), table)
        coded = encode(table, Instance([fact("R", "a", "b")]))
        domain = plan.domain(coded, table, frozenset())
        assert not vector.worth_vectorizing(coded)
        assert vector.binding_matrix(plan, coded, domain) is None

    @vector_live
    def test_row_budget_overflow_falls_back(self, monkeypatch):
        table = TermTable()
        # Cross product of two independent atoms: working set grows to
        # |R|^2 rows, beyond the tiny budget patched in below.
        plan = CompiledQuery(
            And.of(Atom("R", (x, y)), Atom("R", (z, z))), table)
        coded = encode(table, dense_instance(0))
        domain = plan.domain(coded, table, frozenset())
        monkeypatch.setattr(vector, "MAX_ROWS", 4)
        stats = {"fallbacks": 0}
        assert vector.binding_matrix(plan, coded, domain,
                                     stats=stats) is None
        assert stats["fallbacks"] == 1

    @vector_live
    @pytest.mark.parametrize("high", [5, 1 << 40], ids=["packed", "wide"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_distinct_projection_is_sorted_and_deduplicated(self, high,
                                                            width):
        # Two columns of codes near 2**40 overflow the int64 row packing
        # and take the lexsort path; every path must return the distinct
        # rows in lexicographic order.
        np = vector.require_numpy()
        rng = np.random.default_rng(width)
        matrix = rng.integers(-1, 4, size=(60, 4)).astype(np.int64)
        matrix[::3, 0] = high
        matrix[1::3, 2] = high
        columns = [0, 2, 3][:width]
        expected = sorted({tuple(int(code) for code in row)
                           for row in matrix[:, columns]})
        assert vector.distinct_projection(matrix, columns) == expected
