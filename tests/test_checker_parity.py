"""Checker parity: the compiled engine reproduces the seed evaluator.

The `ModelChecker` was refactored onto the compiled checking layer
(`repro.mucalc.engine`): positive normal form, predecessor-index
modalities, memoized subformula extensions, Emerson–Lei warm-started
fixpoints. These tests pin `extension()` of the compiled path against the
seed-style recursive evaluator (`compiled=False`) on every gallery DCDS ×
formula pair, over the same Table 1 transition systems the pipeline
builds — including alternating fixpoints, quantified LIVE-guarded
properties, and formulas mixing constants into LIVE.
"""

import pytest

from repro.core import ServiceSemantics
from repro.gallery import (
    audit_system, example_41, example_42, example_43, library_system,
    request_system, student_registry)
from repro.gallery.library import (
    property_loaned_books_off_shelf, property_loans_returnable,
    property_some_book_always_trackable)
from repro.gallery.student import (
    property_eventual_graduation_mu_la, property_eventual_graduation_mu_lp,
    property_graduation_or_dropout_mu_lp, property_no_student_while_idle)
from repro.gallery.travel import (
    property_no_unpriced_acceptance_slim, property_request_eventually_decided)
from repro.mucalc import (
    AF, AG, EF, EG, EU, EX, AX, ModelChecker, MNot, parse_mu)
from repro.mucalc.ast import Box, Diamond, MAnd, MOr, Mu, Nu, PredVar
from repro.semantics import build_det_abstraction, rcycl


def alternating_suite(probe):
    """Fixpoint shapes around one state property, alternation depth 1-3."""
    x, y, z = PredVar("X"), PredVar("Y"), PredVar("Z")
    infinitely_often = Nu("X", Mu("Y", MOr.of(
        MAnd.of(probe, Diamond(x)), Diamond(y))))
    return [
        probe,
        EX(probe), AX(probe),
        EF(probe), AG(probe), AF(probe), EG(probe),
        EU(probe, MNot(probe)),
        # mu inside nu: infinitely often probe.
        infinitely_often,
        # nu inside mu: eventually an invariant region.
        Mu("Y", MOr.of(Nu("X", MAnd.of(probe, Box(x))), Diamond(y))),
        # depth 3: eventually infinitely-often.
        Mu("Z", MOr.of(infinitely_often, Diamond(z))),
        # boolean dual pair (exercises PNF): ~EF ~probe == AG probe.
        MNot(EF(MNot(probe))),
    ]


def assert_parity(ts, formulas, extra_domain=()):
    compiled = ModelChecker(ts, extra_domain=extra_domain)
    reference = ModelChecker(ts, extra_domain=extra_domain, compiled=False)
    for formula in formulas:
        assert compiled.evaluate(formula) == reference.evaluate(formula), \
            f"extension mismatch on {formula!r}"


# ---------------------------------------------------------------------------
# gallery/basic.py — deterministic abstractions (Thm 4.4 route)
# ---------------------------------------------------------------------------

class TestBasicGalleryParity:
    def test_ex41_det_abstraction(self, ex41_abstraction):
        formulas = alternating_suite(parse_mu("R('a')")) + [
            parse_mu("E x. live(x) & P(x)"),
            parse_mu("A x. (live(x) -> (P(x) | R(x) | (E y. Q(x, y))))"),
            parse_mu("mu Z. ((E x, y. live(x) & live(y) & Q(x, y)) "
                     "| <-> Z)"),
            # LIVE mixing a variable with a constant.
            parse_mu("E x. live(x) & live('a') & Q('a', x)"),
            parse_mu("nu X. ((A x. (live(x) & P(x) -> "
                     "mu Y. (R(x) | <-> Y))) & [-] X)"),
        ]
        assert_parity(ex41_abstraction, formulas)

    def test_ex42_det_abstraction(self, ex42_abstraction):
        formulas = alternating_suite(parse_mu("Q('a', 'a')")) + [
            parse_mu("E x. live(x) & Q(x, x)"),
            parse_mu("nu X. (Q('a', 'a') & (<-> X | [-] false))"),
        ]
        assert_parity(ex42_abstraction, formulas)

    def test_ex43_rcycl(self, ex43_rcycl):
        formulas = alternating_suite(parse_mu("Q('a')")) + [
            parse_mu("E x. live(x) & Q(x)"),
            parse_mu("A x. (live(x) -> (Q(x) | R(x)))"),
            parse_mu("live('a')"),
        ]
        assert_parity(ex43_rcycl, formulas)


# ---------------------------------------------------------------------------
# gallery/student.py — Examples 3.1-3.3 properties over RCYCL
# ---------------------------------------------------------------------------

class TestStudentGalleryParity:
    def test_paper_properties(self, students_rcycl):
        formulas = [
            property_eventual_graduation_mu_la(),
            property_eventual_graduation_mu_lp(),
            property_graduation_or_dropout_mu_lp(),
            property_no_student_while_idle(),
        ]
        assert_parity(students_rcycl, formulas)

    def test_alternating_and_quantified(self, students_rcycl):
        formulas = alternating_suite(
            parse_mu("E x. live(x) & Stud(x)")) + [
            parse_mu("A x, y. (live(x, y) -> (Grad(x, y) | ~Grad(x, y)))"),
            parse_mu("E x. live(x) & Stud(x) & "
                     "(mu Y. ((E y. live(y) & Grad(x, y)) "
                     "| <-> (live(x) & Y)))"),
        ]
        assert_parity(students_rcycl, formulas)


# ---------------------------------------------------------------------------
# gallery/library.py and gallery/travel.py
# ---------------------------------------------------------------------------

class TestLibraryTravelParity:
    def test_library_rcycl(self):
        ts = rcycl(library_system(books=1, members=1))
        formulas = [
            property_loaned_books_off_shelf(),
            property_loans_returnable(),
            property_some_book_always_trackable(),
        ] + alternating_suite(parse_mu("E b, m. live(b, m) & Loaned(b, m)"))
        assert_parity(ts, formulas)

    def test_request_system_rcycl(self):
        ts = rcycl(request_system(slim=True))
        formulas = [
            property_request_eventually_decided(),
            property_no_unpriced_acceptance_slim(),
        ] + alternating_suite(parse_mu("Status('decided')"))
        assert_parity(ts, formulas)

    def test_audit_system_det_abstraction(self):
        # property_audit_failure_propagates_slim() is parity-checked in
        # benchmarks/bench_model_checking.py (it is the slowest reference
        # evaluation in the repo); here cheaper quantified shapes cover the
        # same connectives.
        ts = build_det_abstraction(audit_system(slim=True))
        formulas = alternating_suite(parse_mu("Status('audited')")) + [
            parse_mu("E i. live(i) & (E n. live(n) & "
                     "Travel(i, n, 'passedFalse'))"),
            parse_mu("A i. (live(i) -> mu Y. (Status('audited') | <-> Y))"),
        ]
        assert_parity(ts, formulas)


# ---------------------------------------------------------------------------
# Divergent gallery members — parity over truncated constructions
# ---------------------------------------------------------------------------

class TestDivergentGalleryParity:
    def test_ex52_partial_pruning(self, ex52):
        from repro.semantics.rcycl import rcycl_partial

        ts = rcycl_partial(ex52, max_states=40).transition_system
        assert_parity(ts, alternating_suite(parse_mu("E x. live(x) & Q(x)")))

    def test_ex53_partial_pruning(self, ex53):
        from repro.semantics.rcycl import rcycl_partial

        ts = rcycl_partial(ex53, max_states=40).transition_system
        assert_parity(ts, alternating_suite(parse_mu("E x. live(x)")))

    def test_theorem_45_witness_truncated(self):
        from repro.gallery import theorem_45_witness

        ts = build_det_abstraction(theorem_45_witness(), max_depth=3)
        assert_parity(ts, alternating_suite(parse_mu("E x. live(x) & R(x)")))


# ---------------------------------------------------------------------------
# Valuations, predicate valuations, extra domains
# ---------------------------------------------------------------------------

class TestParameterParity:
    def test_open_formula_with_valuation(self, ex41_abstraction):
        from repro.fol import atom
        from repro.relational.values import Var

        compiled = ModelChecker(ex41_abstraction)
        reference = ModelChecker(ex41_abstraction, compiled=False)
        formula = parse_mu("mu Z. (P(x) | <-> Z)")
        for value in sorted(ex41_abstraction.values(), key=repr)[:4]:
            valuation = {Var("x"): value}
            assert compiled.evaluate(formula, valuation) == \
                reference.evaluate(formula, valuation)

    def test_free_predicate_valuation(self, ex41_abstraction):
        formula = MOr.of(parse_mu("R('a')"), Diamond(PredVar("W")))
        some_states = frozenset(list(ex41_abstraction.states)[:3])
        compiled = ModelChecker(ex41_abstraction)
        reference = ModelChecker(ex41_abstraction, compiled=False)
        assert compiled.evaluate(formula, predicates={"W": some_states}) \
            == reference.evaluate(formula, predicates={"W": some_states})

    def test_extra_domain_constants(self, ex43_rcycl):
        # Dead extra-domain values: the guarded-quantifier restriction in
        # the compiled path must not change extensions.
        extra = ("ghost-1", "ghost-2")
        formulas = [
            parse_mu("E x. live(x) & Q(x)"),
            parse_mu("A x. (live(x) -> (Q(x) | R(x)))"),
            parse_mu("E x. Q(x)"),
            parse_mu("A x. (Q(x) | ~Q(x))"),
        ]
        assert_parity(ex43_rcycl, formulas, extra_domain=extra)

    def test_repeated_evaluation_is_stable(self, ex41_abstraction):
        # The persistent memo/warm-start state must not leak between calls.
        checker = ModelChecker(ex41_abstraction)
        formula = alternating_suite(parse_mu("R('a')"))[8]
        first = checker.evaluate(formula)
        second = checker.evaluate(formula)
        assert first == second
        reference = ModelChecker(ex41_abstraction, compiled=False)
        assert first == reference.evaluate(formula)


# ---------------------------------------------------------------------------
# Leaf tables: every leaf shape, every valuation, every state
# ---------------------------------------------------------------------------

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.fol.ast import (
    And, Atom, Eq, Exists, Forall, Not, Or, TRUE)
from repro.mucalc import (
    Fragment, Live, QF, classify, box_live_implies, diamond_live,
    exists_live, forall_live)
from repro.mucalc.engine.leaves import tabulable
from repro.pipeline import verify
from repro.relational import DatabaseSchema, Instance, fact
from repro.relational.values import Var
from repro.semantics import TransitionSystem
from repro.workloads import random_dcds, warehouse_dcds

lx, ly, lz = Var("x"), Var("y"), Var("z")


def leaf_ts():
    """Four states over R/2 and S/1, one of them empty."""
    ts = TransitionSystem(DatabaseSchema.of("R/2", "S/1"), "s0",
                          name="leaves")
    ts.add_state("s0", Instance([fact("R", "a", "b"), fact("R", "b", "b"),
                                 fact("S", "a")]))
    ts.add_state("s1", Instance([fact("R", "b", "a"), fact("S", "b"),
                                 fact("S", "c")]))
    ts.add_state("s2", Instance([]))
    ts.add_state("s3", Instance([fact("R", "c", "c")]))
    for source, target in (("s0", "s1"), ("s1", "s2"), ("s2", "s3"),
                           ("s3", "s0")):
        ts.add_edge(source, target)
    return ts


#: Queries a table answers: atoms, conjunctions, equalities and
#: existentials whose variables all occur in some atom. 'zzz' occurs in
#: no state.
TABLE_LEAVES = [
    Atom("R", (lx, ly)),
    Atom("R", (lx, "zzz")),
    Exists((ly,), And.of(Atom("R", (lx, ly)), Atom("S", (ly,)))),
    And.of(Atom("R", (lx, ly)), Eq(lx, ly)),
    And.of(Atom("R", (lx, ly)), Eq(ly, "b")),
    And.of(Eq(lx, ly), Atom("S", (lx,)), Atom("S", (ly,))),
    Atom("R", ("a", "b")),
    Exists((ly,), Atom("R", (ly, ly))),
    TRUE,
]

#: Queries whose answers depend on the evaluation domain: the per-state
#: reference answers them.
REFERENCE_LEAVES = [
    Not(Atom("S", (lx,))),
    And.of(Atom("S", (lx,)), Not(Atom("R", (lx, lx)))),
    Forall((ly,), Or.of(Atom("R", (lx, ly)), Not(Atom("S", (ly,))))),
    Or.of(Atom("S", (lx,)), Atom("R", (ly, ly))),
    Eq(lx, ly),
    Eq(lx, "zzz"),
    Exists((lz,), Atom("S", (lx,))),
    Exists((lz,), TRUE),
]


class TestLeafTables:
    @pytest.mark.parametrize(
        "query, tabled",
        [(query, True) for query in TABLE_LEAVES]
        + [(query, False) for query in REFERENCE_LEAVES],
        ids=repr)
    def test_leaf_mask_matches_reference(self, query, tabled):
        ts = leaf_ts()
        assert tabulable(query) == tabled
        # 'ghost' is in no state's active domain; 'zzz' is a formula
        # constant that occurs in no state.
        values = ["a", "b", "c", "ghost", "zzz"]
        variables = sorted(query.free_variables(), key=lambda v: v.name)
        compiled = ModelChecker(ts)
        reference = ModelChecker(ts, compiled=False)
        for leaf in (QF(query), MNot(QF(query))):
            for combo in product(values, repeat=len(variables)):
                valuation = dict(zip(variables, combo))
                assert compiled.evaluate(leaf, valuation) \
                    == reference.evaluate(leaf, valuation), \
                    (leaf, valuation)
                stats = compiled.last_checking_stats
                assert (stats["leaf_tables"], stats["leaf_reference"]) \
                    == ((1, 0) if tabled else (0, 1))

    def test_live_leaves_with_absent_values(self):
        ts = leaf_ts()
        compiled = ModelChecker(ts)
        reference = ModelChecker(ts, compiled=False)
        for terms in [("a",), ("a", "b"), ("ghost",), (lx, "c")]:
            for value in ["a", "b", "c", "ghost"]:
                for leaf in (Live(terms), MNot(Live(terms))):
                    assert compiled.evaluate(leaf, {lx: value}) \
                        == reference.evaluate(leaf, {lx: value})

    def test_quantified_leaves_under_a_fixpoint(self):
        ts = leaf_ts()
        formulas = [
            EF(exists_live("x", QF(Exists((ly,), And.of(
                Atom("R", (lx, ly)), Atom("S", (ly,))))))),
            AG(forall_live("x", MOr.of(
                QF(Not(Atom("S", (lx,)))), QF(Atom("R", (lx, lx)))))),
            parse_mu("E x. E y. (x = y & ~R(x, y))"),
        ]
        assert_parity(ts, formulas, extra_domain=("ghost",))

    def test_warehouse_leaves_are_table_backed(self):
        report = verify(warehouse_dcds(1, payload=4), parse_mu(
            "nu X. ((A t. live(t) & At(t, 'c4') -> At(t, 'c3')) & [-] X)"))
        assert report.holds
        assert report.checking_stats["leaf_tables"] == 2
        assert report.checking_stats["leaf_reference"] == 0


# ---------------------------------------------------------------------------
# Random µLA/µLP formulas over random DCDS abstractions
# ---------------------------------------------------------------------------

def draw_formula(data, schema, depth, ivars, pvars):
    """A random closed-under-context µLA formula: quantifiers are
    LIVE-guarded, modalities guard their free variables (µLP), and
    negation only reaches leaves, so fixpoints stay monotone."""
    kinds = ["query", "live"] + (["pvar"] if pvars else [])
    if depth > 0:
        kinds += ["and", "or", "exists", "forall", "diamond", "box", "mu",
                  "nu", "exists", "forall"]
    kind = data.draw(st.sampled_from(kinds))
    # Bound variables twice: leaves should mostly read the quantifiers.
    terms = list(ivars) * 2 + ["c0", "c1"]
    if kind == "query":
        relation = data.draw(st.sampled_from(schema.relations))
        query = Atom(relation.name, tuple(
            data.draw(st.sampled_from(terms))
            for _ in range(relation.arity)))
        if data.draw(st.booleans()):
            query = Exists((lz,), And.of(query, Atom(
                relation.name, (lz,) * relation.arity)))
        leaf = QF(query)
        return MNot(leaf) if data.draw(st.booleans()) else leaf
    if kind == "live":
        leaf = Live((data.draw(st.sampled_from(terms)),))
        return MNot(leaf) if data.draw(st.booleans()) else leaf
    if kind == "pvar":
        return PredVar(data.draw(st.sampled_from(pvars)))

    def sub(extra_ivars=(), extra_pvars=()):
        return draw_formula(data, schema, depth - 1,
                            list(ivars) + list(extra_ivars),
                            list(pvars) + list(extra_pvars))

    if kind in ("and", "or"):
        combine = MAnd.of if kind == "and" else MOr.of
        return combine(sub(), sub())
    if kind in ("exists", "forall"):
        var = Var(f"v{len(ivars)}")
        wrap = exists_live if kind == "exists" else forall_live
        return wrap((var,), sub(extra_ivars=[var]))
    if kind == "diamond":
        return diamond_live(sub())
    if kind == "box":
        return box_live_implies(sub())
    name = f"Z{len(pvars)}"
    fix = Mu if kind == "mu" else Nu
    return fix(name, sub(extra_pvars=[name]))


@given(st.integers(0, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_random_formulas_match_reference(seed, data):
    dcds = random_dcds(seed, shape="weakly-acyclic")
    ts = build_det_abstraction(dcds, max_states=30000)
    formula = draw_formula(data, dcds.schema, 3, [], [])
    assert classify(formula) is not Fragment.MU_L
    assert ModelChecker(ts).evaluate(formula) \
        == ModelChecker(ts, compiled=False).evaluate(formula), formula
