"""The compiled checking layer: compiler, evaluator, on-the-fly route.

Unit-level coverage of `repro.mucalc.engine` plus the checker behaviours
the seed suite never exercised: alternating fixpoints (µ inside ν and
ν inside µ, depth > 1), `Forall`-over-`Box` duals, and `LIVE` applied to
constants.
"""

import pytest

from repro.engine import Explorer, SuccessorGenerator
from repro.errors import VerificationError
from repro.mucalc import (
    AF, AG, EF, EG, ModelChecker, check, extension, parse_mu,
    compile_formula, evaluate_local, invariant_body, reachability_body,
    recognize_shape, to_pnf)
from repro.mucalc.ast import (
    Box, Diamond, Live, MAnd, MExists, MForall, MNot, MOr, Mu, PredVar,
    Nu, QF)
from repro.mucalc.engine import (
    BitsetChecker, box_states, deadlock_states, diamond_states,
    is_state_local)
from repro.relational import DatabaseSchema, Instance, fact
from repro.relational.values import Var
from repro.semantics import TransitionSystem


@pytest.fixture
def line():
    """s0 -> s1 -> s2 (self-loop), values appear and disappear."""
    schema = DatabaseSchema.of("P/1", "Q/1")
    ts = TransitionSystem(schema, "s0", name="line")
    ts.add_state("s0", Instance([fact("P", "a")]))
    ts.add_state("s1", Instance([fact("P", "a"), fact("Q", "b")]))
    ts.add_state("s2", Instance([fact("Q", "b")]))
    ts.add_edge("s0", "s1")
    ts.add_edge("s1", "s2")
    ts.add_edge("s2", "s2")
    return ts


@pytest.fixture
def branch():
    """s0 branches; only the left branch reaches the goal; d deadlocks."""
    schema = DatabaseSchema.of("G/0", "N/0")
    ts = TransitionSystem(schema, "s0", name="branch")
    ts.add_state("s0", Instance([fact("N")]))
    ts.add_state("left", Instance([fact("N")]))
    ts.add_state("right", Instance([fact("N")]))
    ts.add_state("goal", Instance([fact("G")]))
    ts.add_state("dead", Instance([fact("N")]))
    ts.add_edge("s0", "left")
    ts.add_edge("s0", "right")
    ts.add_edge("left", "goal")
    ts.add_edge("right", "right")
    ts.add_edge("right", "dead")
    ts.add_edge("goal", "goal")
    return ts


def both(ts, formula, **kwargs):
    compiled = extension(ts, formula, **kwargs)
    reference = extension(ts, formula, compiled=False, **kwargs)
    assert compiled == reference, f"parity broken on {formula!r}"
    return compiled


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

class TestPNF:
    def test_negation_reaches_leaves(self):
        formula = MNot(EF(parse_mu("P('a')")))
        pnf = to_pnf(formula)
        # ~mu Z.(p | <->Z) == nu Z.(~p & [-]Z)
        assert isinstance(pnf, Nu)
        assert isinstance(pnf.sub, MAnd)
        kinds = {type(sub) for sub in pnf.sub.subs}
        assert kinds == {MNot, Box}

    def test_double_negation_cancels(self):
        p = parse_mu("P('a')")
        assert to_pnf(MNot(MNot(p))) == p

    def test_quantifier_dualization(self):
        formula = MNot(parse_mu("E x. P(x)"))
        pnf = to_pnf(formula)
        assert isinstance(pnf, MForall)
        assert isinstance(pnf.sub, MNot)

    def test_free_predicate_variable_stays_negated(self):
        pnf = to_pnf(MNot(PredVar("W")))
        assert pnf == MNot(PredVar("W"))

    def test_pnf_preserves_extension(self, line):
        formula = MNot(EF(MNot(parse_mu("P('a') | Q('b')"))))
        assert both(line, formula) == both(line, to_pnf(formula))


class TestCompileAnalysis:
    def test_alternation_depth(self):
        p = parse_mu("P('a')")
        assert compile_formula(EF(p)).alternation_depth == 1
        assert compile_formula(AG(EF(p))).alternation_depth == 2
        x, y = PredVar("X"), PredVar("Y")
        infinitely_often = Nu("X", Mu("Y", MOr.of(
            MAnd.of(p, Diamond(x)), Diamond(y))))
        assert compile_formula(infinitely_often).alternation_depth == 2
        wrapped = Mu("Z", MOr.of(infinitely_often, Diamond(PredVar("Z"))))
        assert compile_formula(wrapped).alternation_depth == 3

    def test_cells_and_descendants(self):
        p = parse_mu("P('a')")
        compiled = compile_formula(AG(EF(p)))
        assert len(compiled.cells) == 2
        outer = compiled.cells[0]
        assert not outer.least and outer.mu_descendants == (1,)

    def test_conjunct_cost_ordering(self):
        # The fixpoint conjunct is hoisted after the cheap query guard.
        formula = MAnd.of(EF(parse_mu("P('a')")), parse_mu("Q('b')"))
        compiled = compile_formula(formula)
        assert compiled.root.children[0].kind == "query"
        assert compiled.root.children[1].kind == "fix"

    def test_monotonicity_still_enforced(self):
        from repro.errors import MonotonicityError

        bad = Mu("Z", MNot(PredVar("Z")))
        with pytest.raises(MonotonicityError):
            compile_formula(bad)


# ---------------------------------------------------------------------------
# Indexed modalities and the predecessor index
# ---------------------------------------------------------------------------

class TestIndexedModalities:
    def test_predecessor_index(self, branch):
        assert branch.predecessors("goal") == {"left", "goal"}
        assert branch.predecessors("s0") == frozenset()
        assert branch.out_degree("s0") == 2
        assert branch.out_degree("dead") == 0

    def test_predecessor_index_invalidated_by_new_edge(self, branch):
        assert branch.predecessors("dead") == {"right"}
        branch.add_edge("dead", "dead")
        assert branch.predecessors("dead") == {"right", "dead"}

    def test_diamond_box_helpers_match_scan(self, branch):
        deadlocks = deadlock_states(branch)
        assert deadlocks == {"dead"}
        for target in ({"goal"}, {"right", "dead"}, set(),
                       set(branch.states)):
            target = frozenset(target)
            assert diamond_states(branch, target) == frozenset(
                s for s in branch.states
                if branch.successors(s) & target)
            assert box_states(branch, target, deadlocks) == frozenset(
                s for s in branch.states
                if branch.successors(s) <= target)

    def test_deadlock_semantics(self, branch):
        # [-]G holds vacuously on the deadlock state, <->G fails there.
        assert "dead" in both(branch, Box(parse_mu("G()")))
        assert "dead" not in both(branch, Diamond(parse_mu("G()")))


# ---------------------------------------------------------------------------
# Alternating fixpoints (depth > 1) — previously untested
# ---------------------------------------------------------------------------

class TestAlternatingFixpoints:
    def test_mu_inside_nu_infinitely_often(self, branch):
        # Infinitely often G: holds where some run visits goal forever.
        formula = parse_mu("nu X. mu Y. ((G() & <-> X) | <-> Y)")
        assert both(branch, formula) == {"s0", "left", "goal"}

    def test_nu_inside_mu_eventually_invariant(self, branch):
        # Eventually a state from which N holds globally (right's loop can
        # deadlock into dead, which satisfies AG N vacuously from there).
        formula = Mu("Y", MOr.of(
            Nu("X", MAnd.of(parse_mu("N()"), Box(PredVar("X")))),
            Diamond(PredVar("Y"))))
        reference = extension(branch, formula, compiled=False)
        assert both(branch, formula) == reference

    def test_entangled_alternation(self, branch):
        # The outer nu variable occurs inside the inner mu body (genuine
        # alternation, not nesting of closed blocks).
        formula = parse_mu("nu X. mu Y. ((N() & <-> X) | (G() & <-> Y))")
        both(branch, formula)

    def test_depth_three_tower(self, line):
        inner = parse_mu("nu X. mu Y. ((Q('b') & <-> X) | <-> Y)")
        formula = Mu("Z", MOr.of(inner, Diamond(PredVar("Z"))))
        assert compile_formula(formula).alternation_depth == 3
        assert both(line, formula) == {"s0", "s1", "s2"}

    def test_warm_start_counters(self, branch):
        # Emerson-Lei: the closed inner EF block stabilizes once; the
        # second outer iteration must hit the memo instead of re-iterating.
        checker = ModelChecker(branch)
        checker.evaluate(AG(EF(parse_mu("G()"))))
        stats = checker.last_checking_stats
        assert stats["mode"] == "compiled"
        assert stats["iterations"] < 20
        assert stats["memo_hits"] > 0


# ---------------------------------------------------------------------------
# Forall-over-Box duals — previously untested
# ---------------------------------------------------------------------------

class TestForallBoxDuals:
    def test_forall_box_equals_not_exists_diamond_not(self, line):
        x = Var("x")
        body = Box(MOr.of(MNot(Live((x,))), parse_mu("Q(x)")))
        universal = MForall((x,), MOr.of(MNot(Live((x,))), body))
        dual = MNot(MExists(
            (x,), MNot(MOr.of(MNot(Live((x,))), body))))
        assert both(line, universal) == both(line, dual)

    def test_forall_box_guarded(self, line):
        # A x. (live(x) -> [-] (live(x) -> Q(x))): persistence-guarded
        # universal over a box.
        formula = parse_mu(
            "A x. (live(x) -> [-] (live(x) -> Q(x)))")
        result = both(line, formula)
        # s1: 'a' and 'b' live; successor s2 keeps only 'b', and Q('b')
        # holds there; dropped 'a' satisfies the guard vacuously.
        assert "s1" in result

    def test_box_of_forall(self, line):
        formula = Box(parse_mu("A x. (live(x) -> (P(x) | Q(x)))"))
        assert both(line, formula) == {"s0", "s1", "s2"}


# ---------------------------------------------------------------------------
# LIVE with constants — previously untested
# ---------------------------------------------------------------------------

class TestLiveWithConstants:
    def test_live_constant_only(self, line):
        assert both(line, Live(("a",))) == {"s0", "s1"}
        assert both(line, Live(("b",))) == {"s1", "s2"}

    def test_live_mixing_constant_and_variable(self, line):
        formula = parse_mu("E x. live(x, 'a') & Q(x)")
        # needs a live x with Q(x) while 'a' is also live: only s1.
        assert both(line, formula) == {"s1"}

    def test_live_dead_constant(self, line):
        # 'zzz' is never live, but it enlarges the quantification domain
        # via the formula's constants.
        formula = MAnd.of(Live(("zzz",)), parse_mu("P('a')"))
        assert both(line, formula) == frozenset()
        formula = parse_mu("E x. (x = 'zzz' & ~live(x))")
        assert both(line, formula) == {"s0", "s1", "s2"}

    def test_live_constant_under_fixpoint(self, line):
        # EF (live('a') & live('b')) — constants threaded through a mu.
        formula = EF(MAnd.of(Live(("a",)), Live(("b",))))
        assert both(line, formula) == {"s0", "s1"}


# ---------------------------------------------------------------------------
# Errors (compiled path mirrors the reference's messages)
# ---------------------------------------------------------------------------

class TestCompiledErrors:
    def test_unbound_query_variable(self, line):
        from repro.fol import atom

        with pytest.raises(VerificationError):
            ModelChecker(line).evaluate(QF(atom("P", Var("x"))))

    def test_unbound_live_variable(self, line):
        with pytest.raises(VerificationError):
            ModelChecker(line).evaluate(Live((Var("x"),)))

    def test_unbound_predicate_variable(self, line):
        with pytest.raises(VerificationError):
            ModelChecker(line).evaluate(PredVar("Z"))


# ---------------------------------------------------------------------------
# On-the-fly recognition and local evaluation
# ---------------------------------------------------------------------------

class TestShapeRecognition:
    def test_ef_and_ag_recognized(self):
        p = parse_mu("P('a')")
        shape = recognize_shape(EF(p))
        assert shape.kind == "reachability" and shape.body == p
        shape = recognize_shape(AG(p))
        assert shape.kind == "invariant" and shape.body == p

    def test_guarded_quantifiers_accepted(self):
        body = parse_mu("E x. live(x) & P(x)")
        assert recognize_shape(AG(body)).body == body

    def test_unguarded_quantifier_rejected(self):
        assert recognize_shape(AG(parse_mu("E x. P(x)"))) is None
        assert not is_state_local(parse_mu("E x. P(x)"))

    def test_modal_body_rejected(self):
        assert recognize_shape(AG(Diamond(parse_mu("P('a')")))) is None

    def test_other_fixpoints_rejected(self):
        p = parse_mu("P('a')")
        assert recognize_shape(AF(p)) is None
        assert recognize_shape(EG(p)) is None

    def test_destructurers_invert_encodings(self):
        p = parse_mu("P('a') | Q('b')")
        assert reachability_body(EF(p)) == p
        assert invariant_body(AG(p)) == p
        assert reachability_body(AG(p)) is None
        assert invariant_body(EF(p)) is None


class TestEvaluateLocal:
    def test_matches_global_extension(self, line):
        bodies = [
            parse_mu("P('a')"),
            parse_mu("live('a') & live('b')"),
            parse_mu("E x. live(x) & Q(x)"),
            parse_mu("A x. (live(x) -> (P(x) | Q(x)))"),
            parse_mu("~(E x. live(x) & P(x) & Q(x))"),
        ]
        for body in bodies:
            ext = extension(line, body)
            for state in line.states:
                assert evaluate_local(body, line.db(state)) == \
                    (state in ext), f"{body!r} at {state}"

    def test_rejects_non_local(self, line):
        with pytest.raises(ValueError):
            evaluate_local(Diamond(parse_mu("P('a')")), line.db("s0"))


class _ListGenerator(SuccessorGenerator):
    """Path-shaped generator over canned instances (for observer tests)."""

    def __init__(self, instances):
        self.instances = instances

    def initial_state(self):
        return 0, self.instances[0]

    def successors(self, state):
        if state + 1 < len(self.instances):
            yield state + 1, self.instances[state + 1], None
        else:
            yield state, self.instances[state], None


class TestExplorerObserver:
    def setup_method(self):
        self.schema = DatabaseSchema.of("P/1", "G/0")
        self.instances = [
            Instance([fact("P", "a")]),
            Instance([fact("P", "b")]),
            Instance([fact("G")]),
            Instance([fact("P", "c")]),
        ]

    def test_early_stop_on_witness(self):
        from repro.mucalc.engine import OnTheFlyVerifier

        verifier = OnTheFlyVerifier(recognize_shape(EF(parse_mu("G()"))))
        explorer = Explorer(self.schema, observer=verifier.observe)
        result = explorer.run(_ListGenerator(self.instances))
        assert result.stats.early_stop == "witness-found"
        assert verifier.verdict()
        assert verifier.states_checked == 3
        assert len(result.transition_system) == 3  # state 3 never built
        assert result.transition_system.exploration_stats["early_stop"] \
            == "witness-found"

    def test_no_stop_when_absent(self):
        from repro.mucalc.engine import OnTheFlyVerifier

        verifier = OnTheFlyVerifier(
            recognize_shape(EF(parse_mu("P('zzz')"))))
        explorer = Explorer(self.schema, observer=verifier.observe)
        result = explorer.run(_ListGenerator(self.instances))
        assert result.stats.early_stop is None
        assert not verifier.verdict()
        assert len(result.transition_system) == 4

    def test_invariant_violation_stop(self):
        from repro.mucalc.engine import OnTheFlyVerifier

        verifier = OnTheFlyVerifier(
            recognize_shape(AG(parse_mu("~G()"))))
        explorer = Explorer(self.schema, observer=verifier.observe)
        result = explorer.run(_ListGenerator(self.instances))
        assert result.stats.early_stop == "violation-found"
        assert not verifier.verdict()

    def test_stop_on_initial_state(self):
        from repro.mucalc.engine import OnTheFlyVerifier

        verifier = OnTheFlyVerifier(
            recognize_shape(EF(parse_mu("P('a')"))))
        explorer = Explorer(self.schema, observer=verifier.observe)
        result = explorer.run(_ListGenerator(self.instances))
        assert len(result.transition_system) == 1
        assert verifier.verdict()
