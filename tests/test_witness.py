"""Witness/counterexample certificates and the independent replay oracle.

Three layers of guarantees, each pinned here:

* **Soundness** — every certificate ``verify()`` emits for the gallery
  systems and for a 20-case seeded random sweep replays green through
  :mod:`repro.mucalc.certify`, which re-evaluates every step without the
  producing engine.
* **Minimality** — certificates are shortest certifying runs: no strict
  prefix (even with ranks re-fitted) passes the oracle, and the oracle's
  own independent BFS agrees on the length.
* **Determinism** — extraction is a pure function of the transition
  system, so certificates are bit-identical across the kernel /
  vector / frontier-batch kill switches and across worker counts.

Pipeline-level tests force ``REPRO_NO_WITNESS`` off for their block so an
ambient setting cannot hide them. The switch itself is flipped per case
by ``TestKillSwitch`` over every ``verify()`` route and option the suite
uses: verdict, route, state space and checking counters must not move.
"""

from __future__ import annotations

import dataclasses

import pytest

from test_differential import (
    forced_env, invariant_formula, reachability_formula)

from repro.core import DCDSBuilder, ServiceSemantics
from repro.core.execution import clear_subproblem_caches
from repro.gallery.library import (
    library_system, property_loaned_books_off_shelf)
from repro.gallery.student import (
    property_eventual_graduation_mu_la, property_eventual_graduation_mu_lp,
    property_no_student_while_idle)
from repro.mucalc import parse_mu
from repro.mucalc.certify import (
    CertificateError, replay, state_holds, validate)
from repro.mucalc.checker import ModelChecker
from repro.mucalc.witness import (
    Violation, Witness, extract, render_certificate)
from repro.pipeline import verify
from repro.relational import DatabaseSchema, Instance, fact
from repro.semantics import TransitionSystem
from repro.viz import certificate_to_dot
from repro.workloads import random_dcds

MAX_STATES = 3000


def witnesses_on():
    """Force certificate extraction on for the block (see module doc)."""
    return forced_env("REPRO_NO_WITNESS", None)


def refit_prefix(certificate, length):
    """The strict prefix of ``length`` steps with ranks re-fitted so it
    survives the structural rank check and fails on *semantics* only."""
    steps = certificate.steps[:length]
    refitted = tuple(
        dataclasses.replace(step, rank=len(steps) - 1 - i)
        for i, step in enumerate(steps))
    return dataclasses.replace(certificate, steps=refitted)


# ---------------------------------------------------------------------------
# Gallery battery
# ---------------------------------------------------------------------------

GALLERY_CASES = [
    # (fixture, formula, expected certificate kind)
    ("ex41", "mu Z. (R('a') | <-> Z)", "witness"),
    ("ex41", "nu X. (R('a') & [-] X)", "violation"),
    ("ex41", "nu X. (~R('a') & [-] X)", "violation"),
    ("ex43_nondet", "mu Z. (Q('a') | <-> Z)", "witness"),
    ("students",
     "mu Z. ((E x, y. live(x) & live(y) & Grad(x, y)) | <-> Z)",
     "witness"),
    ("students", "nu X. (Status('idle') & [-] X)", "violation"),
]


class TestGalleryCertificates:
    @pytest.mark.parametrize("fixture,formula_text,kind", GALLERY_CASES,
                             ids=[f"{f}-{k}{i}" for i, (f, _, k)
                                  in enumerate(GALLERY_CASES)])
    def test_certificate_replays_green(self, request, fixture, formula_text,
                                       kind):
        dcds = request.getfixturevalue(fixture)
        formula = parse_mu(formula_text)
        with witnesses_on():
            report = verify(dcds, formula, max_states=MAX_STATES)
        certificate = report.witness or report.violation
        assert certificate is not None
        assert certificate.kind == kind
        assert (report.witness is not None) == report.holds
        # The independent oracle accepts it (validate raises on failure).
        validate(report.transition_system, certificate)
        # The run starts at the initial state and is rank-annotated.
        assert certificate.steps[0].state == report.transition_system.initial
        assert certificate.steps[-1].rank == 0
        # It renders (both textual and DOT forms reference the run).
        rendered = render_certificate(report.transition_system, certificate)
        assert certificate.kind in rendered

    @pytest.mark.parametrize("fixture,formula_text,kind", GALLERY_CASES,
                             ids=[f"{f}-{k}{i}" for i, (f, _, k)
                                  in enumerate(GALLERY_CASES)])
    def test_no_strict_prefix_certifies(self, request, fixture, formula_text,
                                        kind):
        dcds = request.getfixturevalue(fixture)
        formula = parse_mu(formula_text)
        with witnesses_on():
            report = verify(dcds, formula, max_states=MAX_STATES)
        certificate = report.witness or report.violation
        assert certificate is not None
        ts = report.transition_system
        for length in range(1, len(certificate.steps)):
            # Raw prefix: stale ranks fail the structural check.
            raw = dataclasses.replace(certificate,
                                      steps=certificate.steps[:length])
            if length < len(certificate.steps):
                assert not replay(ts, raw).ok
            # Re-fitted prefix: must fail on semantics/minimality alone.
            assert not replay(ts, refit_prefix(certificate, length)).ok

    def test_unrecognized_shape_yields_no_certificate(self, ex42):
        # AG-with-deadlock-escape is not the plain invariant shape.
        formula = parse_mu("nu X. (Q('a', 'a') & (<-> X | [-] false))")
        with witnesses_on():
            report = verify(ex42, formula, max_states=MAX_STATES)
        assert report.witness is None and report.violation is None
        assert report.checking_stats["witness"]["outcome"] \
            == "unrecognized-shape"

    def test_non_state_local_body_yields_no_certificate(self, ex41):
        # EF with a modal body: the shape matches, but the body is not
        # evaluable state-locally, so no certificate can be checked
        # independently.
        formula = parse_mu("mu Z. (<-> R('a') | <-> Z)")
        with witnesses_on():
            report = verify(ex41, formula, max_states=MAX_STATES)
        assert report.witness is None and report.violation is None
        assert report.checking_stats["witness"]["outcome"] \
            == "non-state-local-body"

    def test_holding_nested_invariant_reports_holds(self, students):
        # The graduation property (nested µ in the body) holds; the
        # verdict-first gate reports before body locality matters.
        with witnesses_on():
            report = verify(students, property_eventual_graduation_mu_lp(),
                            max_states=MAX_STATES)
        assert report.holds
        assert report.witness is None and report.violation is None
        assert report.checking_stats["witness"]["outcome"] \
            == "invariant-holds"

    def test_holding_invariant_reports_reason(self, students):
        with witnesses_on():
            report = verify(students, property_no_student_while_idle(),
                            max_states=MAX_STATES)
        assert report.holds
        assert report.witness is None and report.violation is None
        assert report.checking_stats["witness"]["outcome"] \
            == "invariant-holds"


# ---------------------------------------------------------------------------
# Oracle independence: tampered certificates are rejected
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ex41_witness_report(ex41):
    with witnesses_on():
        return verify(ex41, parse_mu("mu Z. (R('a') | <-> Z)"),
                      max_states=MAX_STATES)


class TestOracleRejectsTampering:
    def test_wrong_action_label(self, ex41_witness_report):
        report = ex41_witness_report
        cert = report.witness
        steps = list(cert.steps)
        steps[-1] = dataclasses.replace(steps[-1], action="not-an-action")
        tampered = dataclasses.replace(cert, steps=tuple(steps))
        result = replay(report.transition_system, tampered)
        assert not result.ok
        assert any("edge" in failure for failure in result.failures)

    def test_foreign_state_spliced_in(self, ex41_witness_report):
        report = ex41_witness_report
        cert = report.witness
        ts = report.transition_system
        foreign = sorted(ts.states - set(cert.states), key=repr)[0]
        steps = list(cert.steps)
        steps[-1] = dataclasses.replace(steps[-1], state=foreign)
        tampered = dataclasses.replace(cert, steps=tuple(steps))
        assert not replay(ts, tampered).ok

    def test_forged_call_bindings(self, ex41_witness_report):
        report = ex41_witness_report
        cert = report.witness
        minted = next((i for i, step in enumerate(cert.steps)
                       if step.call_bindings), None)
        assert minted is not None, "expected a step minting a service call"
        steps = list(cert.steps)
        steps[minted] = dataclasses.replace(steps[minted], call_bindings=())
        tampered = dataclasses.replace(cert, steps=tuple(steps))
        result = replay(report.transition_system, tampered)
        assert not result.ok
        assert any("call" in failure for failure in result.failures)

    def test_wrong_certificate_class(self, ex41_witness_report):
        report = ex41_witness_report
        cert = report.witness
        flipped = Violation(formula=cert.formula, body=cert.body,
                            guard=cert.guard, steps=cert.steps)
        assert not replay(report.transition_system, flipped).ok

    def test_validate_raises(self, ex41_witness_report):
        report = ex41_witness_report
        cert = report.witness
        truncated = dataclasses.replace(cert, steps=cert.steps[:1])
        with pytest.raises(CertificateError):
            validate(report.transition_system, truncated)


# ---------------------------------------------------------------------------
# Guarded (µLP) shapes over hand-built systems
# ---------------------------------------------------------------------------

def guarded_ts():
    """s0 --> s1 (has goal, but 'a' dead) and s0 --> s2 --> s3 (both keep
    'a' live, goal at s3): the guarded witness must take the long road."""
    schema = DatabaseSchema.of("P/1", "Q/1")
    ts = TransitionSystem(schema, "s0", name="guarded")
    ts.add_state("s0", Instance([fact("P", "a")]))
    ts.add_state("s1", Instance([fact("Q", "goal")]))
    ts.add_state("s2", Instance([fact("P", "a")]))
    ts.add_state("s3", Instance([fact("P", "a"), fact("Q", "goal")]))
    ts.add_edge("s0", "s1", "jump")
    ts.add_edge("s0", "s2", "step")
    ts.add_edge("s1", "s1")
    ts.add_edge("s2", "s3", "step")
    ts.add_edge("s3", "s3")
    return ts


class TestGuardedShapes:
    def test_guarded_witness_avoids_dead_guard_states(self):
        ts = guarded_ts()
        formula = parse_mu("mu Z. (Q('goal') | <-> (live('a') & Z))")
        holds = ModelChecker(ts).models(formula)
        assert holds
        outcome = extract(ts, formula, holds)
        certificate = outcome.certificate
        assert isinstance(certificate, Witness)
        # The 1-step run through s1 satisfies the body but kills the
        # guard; the certificate must be the 2-step guard-live run.
        assert certificate.states == ("s0", "s2", "s3")
        validate(ts, certificate)

    def test_guarded_violation_with_dead_guard_terminal(self):
        ts = guarded_ts()
        # AG_live: fails because s1 (reachable in one step) drops 'a'.
        formula = parse_mu("nu Z. (P('a') & [-] (live('a') & Z))")
        holds = ModelChecker(ts).models(formula)
        assert not holds
        outcome = extract(ts, formula, holds)
        certificate = outcome.certificate
        assert isinstance(certificate, Violation)
        validate(ts, certificate)
        # Shortest violation: one step into either body-violating or
        # guard-dead territory (s1 is both).
        assert certificate.length == 1

    def test_initial_dead_guard_forces_a_step(self):
        # Corner: the *initial* state already has a dead guard but a
        # healthy body. A violating run still needs >= 1 step (the
        # initial state is not "entered"), so extraction must force one.
        schema = DatabaseSchema.of("P/1")
        ts = TransitionSystem(schema, "s0", name="corner")
        ts.add_state("s0", Instance([fact("P", "a")]))
        ts.add_edge("s0", "s0", "loop")
        formula = parse_mu("nu Z. (P('a') & [-] (live('g') & Z))")
        holds = ModelChecker(ts).models(formula)
        assert not holds
        outcome = extract(ts, formula, holds)
        certificate = outcome.certificate
        assert isinstance(certificate, Violation)
        assert certificate.length == 1
        assert certificate.states == ("s0", "s0")  # forced self-loop
        validate(ts, certificate)

    def test_non_ground_guard_is_not_certified(self):
        ts = guarded_ts()
        formula = parse_mu("mu Z. (Q('goal') | <-> (live(x) & Z))")
        outcome = extract(ts, formula, True)
        assert outcome.certificate is None
        assert outcome.reason == "non-ground-guard"


# ---------------------------------------------------------------------------
# Determinism across builds
# ---------------------------------------------------------------------------

BUILD_VARIANTS = (
    ("REPRO_NO_KERNEL", "1"),
    ("REPRO_NO_VECTOR", "1"),
    ("REPRO_NO_BATCH", "1"),
)


def certificate_under(dcds, formula, env_name=None, env_value=None,
                      workers=None):
    with witnesses_on():
        if env_name is None:
            clear_subproblem_caches()
            report = verify(dcds, formula, max_states=MAX_STATES,
                            workers=workers)
        else:
            with forced_env(env_name, env_value):
                clear_subproblem_caches()
                report = verify(dcds, formula, max_states=MAX_STATES,
                                workers=workers)
    clear_subproblem_caches()
    certificate = report.witness or report.violation
    assert certificate is not None
    return certificate


class TestDeterminism:
    def test_bit_identical_across_kill_switches(self, ex41):
        formula = parse_mu("mu Z. (R('a') | <-> Z)")
        baseline = certificate_under(ex41, formula)
        for name, value in BUILD_VARIANTS:
            assert certificate_under(ex41, formula, name, value) \
                == baseline, name

    def test_bit_identical_across_worker_counts(self):
        dcds = random_dcds(1, shape="weakly-acyclic",
                           semantics=ServiceSemantics.DETERMINISTIC)
        formula = reachability_formula(dcds)
        baseline = certificate_under(dcds, formula)
        for workers in (1, 2, 4):
            assert certificate_under(dcds, formula, workers=workers) \
                == baseline, workers

    def test_violations_bit_identical_across_kill_switches(self, ex41):
        formula = parse_mu("nu X. (R('a') & [-] X)")
        baseline = certificate_under(ex41, formula)
        for name, value in BUILD_VARIANTS:
            assert certificate_under(ex41, formula, name, value) \
                == baseline, name


# ---------------------------------------------------------------------------
# 20-case seeded random sweep (acceptance criterion)
# ---------------------------------------------------------------------------

SWEEP_CASES = [
    pytest.param(seed, shape, semantics,
                 id=f"seed{seed}-{shape}-{semantics.value}")
    for seed in range(10)
    for shape, semantics in (
        ("weakly-acyclic", ServiceSemantics.DETERMINISTIC),
        ("gr-acyclic", ServiceSemantics.NONDETERMINISTIC))
]


class TestSeededSweep:
    @pytest.mark.parametrize("seed,shape,semantics", SWEEP_CASES)
    def test_every_certificate_replays(self, seed, shape, semantics):
        from repro.errors import UndecidableFragment, VerificationError
        dcds = random_dcds(seed, shape=shape, semantics=semantics)
        emitted = 0
        for factory in (reachability_formula, invariant_formula):
            formula = factory(dcds)
            with witnesses_on():
                try:
                    report = verify(dcds, formula, max_states=MAX_STATES)
                except (UndecidableFragment, VerificationError):
                    continue
            certificate = report.witness or report.violation
            if certificate is None:
                continue
            emitted += 1
            validate(report.transition_system, certificate)
            assert (report.witness is not None) == report.holds
        # The invariant pack is decidable and violated on every sweep
        # workload, so each case must certify at least once.
        assert emitted >= 1


# ---------------------------------------------------------------------------
# On-the-fly extraction and the explorer retention contract
# ---------------------------------------------------------------------------

class TestOnTheFly:
    def test_partial_ts_contains_minimal_witness(self, ex41):
        formula = parse_mu("mu Z. (R('a') | <-> Z)")
        with witnesses_on():
            offline = verify(ex41, formula, max_states=MAX_STATES)
            fused = verify(ex41, formula, max_states=MAX_STATES,
                           on_the_fly=True)
        assert fused.holds and offline.holds
        assert fused.witness is not None
        # The fused run stops early, yet its partial transition system
        # retains the full certifying run (the explorer interns a state
        # and its incoming edge before the observer fires).
        assert len(fused.transition_system) \
            <= len(offline.transition_system)
        validate(fused.transition_system, fused.witness)
        # Both certificates are minimal, hence equally long — the runs
        # themselves may differ (BFS discovery vs repr tie-break).
        assert fused.witness.length == offline.witness.length

    def test_fused_violation_replays(self, ex41):
        formula = parse_mu("nu X. (R('a') & [-] X)")
        with witnesses_on():
            fused = verify(ex41, formula, max_states=MAX_STATES,
                           on_the_fly=True)
        assert not fused.holds
        assert fused.violation is not None
        validate(fused.transition_system, fused.violation)


# ---------------------------------------------------------------------------
# Kill switch
# ---------------------------------------------------------------------------

def bounded_cyclic_dcds():
    """Not weakly acyclic yet run-bounded: verifiable only with force."""
    builder = DCDSBuilder(name="bounded-but-cyclic")
    builder.schema("R/1", "Q/1", "Done/0")
    builder.initial("R('a')")
    builder.service("f/1")
    builder.action("go", "R(x) ~> Q(f(x)), Done()", "Q(x) ~> R(x)")
    builder.rule("~(Done())", "go")
    return builder.build()


def mixed_dcds():
    """One deterministic and one nondeterministic service (Section 6)."""
    builder = DCDSBuilder(name="mixed")
    builder.schema("R/1", "S/2")
    builder.initial("R('a')")
    builder.service("det_f/1", deterministic=True)
    builder.service("free_g/1", deterministic=False)
    builder.action("go", "R(x) ~> R(x), S(det_f(x), free_g(x))")
    builder.rule("true", "go")
    return builder.build(ServiceSemantics.NONDETERMINISTIC)


REACH_A = "mu Z. (R('a') | <-> Z)"
INVARIANT_A = "nu X. (R('a') & [-] X)"

#: Every other route and option combination the suite's ``verify()``
#: calls use (plain offline ex41 reachability is the first kill-switch
#: test; the gallery battery supplies plain offline det and RCYCL cases):
#: (id, fixture name or dcds factory, formula text or function of the
#: dcds, options). ``checkpoint=True`` stands for a fresh checkpoint path
#: per side.
KILL_SWITCH_CASES = [
    ("det-on-the-fly", "ex41", REACH_A, {"on_the_fly": True}),
    ("det-on-the-fly-violation", "ex41", INVARIANT_A,
     {"on_the_fly": True}),
    ("det-forced", bounded_cyclic_dcds,
     "mu Z. ((E x. live(x) & Q(x)) | <-> Z)", {"force": True}),
    ("det-keep-ts-off", "ex41", REACH_A, {"keep_ts": False}),
    ("det-workers-2",
     lambda: random_dcds(1, shape="weakly-acyclic",
                         semantics=ServiceSemantics.DETERMINISTIC),
     reachability_formula, {"workers": 2}),
    ("det-quotient", lambda: random_dcds(0),
     "mu Z. ((E x. live(x) & R0(x)) | <-> Z)", {"symmetry": "quotient"}),
    ("det-memory-budget", "ex41", REACH_A,
     {"memory_budget": 96 * 1024}),
    ("det-memory-budget-on-the-fly", "ex41", REACH_A,
     {"memory_budget": 96 * 1024, "on_the_fly": True}),
    ("det-checkpoint", "ex41", REACH_A, {"checkpoint": True}),
    ("rcycl-on-the-fly", "students",
     "nu X. (Status('idle') & [-] X)", {"on_the_fly": True}),
    ("rcycl-forced", "students",
     lambda _: property_eventual_graduation_mu_la(), {"force": True}),
    ("rcycl-library", library_system,
     lambda _: property_loaned_books_off_shelf(), {}),
    ("mixed-forced", mixed_dcds,
     "mu Z. ((E x, y. live(x) & live(y) & S(x, y)) | <-> Z)",
     {"force": True, "max_states": 4000}),
] + [
    (f"gallery-{fixture}-{kind}{i}", fixture, formula_text, {})
    for i, (fixture, formula_text, kind) in enumerate(GALLERY_CASES)
]


def kill_switch_inputs(request, dcds_source, formula_source):
    """Resolve one case's (dcds, formula)."""
    dcds = request.getfixturevalue(dcds_source) \
        if isinstance(dcds_source, str) else dcds_source()
    formula = parse_mu(formula_source) \
        if isinstance(formula_source, str) else formula_source(dcds)
    return dcds, formula


def checking_drift_view(stats):
    """``checking_stats`` minus the witness entry, with wall-clock
    durations masked: the rest must not move with the switch."""
    return {key: None if key.endswith("_sec") else value
            for key, value in stats.items() if key != "witness"}


def assert_switch_invisible(request, tmp_path, dcds_source, formula_source,
                            options):
    """Verify with and without ``REPRO_NO_WITNESS=1``: only the
    certificate may differ. Returns the enabled-side report."""
    reports = {}
    for forced in (None, "1"):
        dcds, formula = kill_switch_inputs(
            request, dcds_source, formula_source)
        kwargs = dict(options)
        kwargs.setdefault("max_states", MAX_STATES)
        if kwargs.get("checkpoint"):
            kwargs["checkpoint"] = str(tmp_path / f"ck-{forced}")
        with forced_env("REPRO_NO_WITNESS", forced):
            clear_subproblem_caches()
            reports[forced] = verify(dcds, formula, **kwargs)
    clear_subproblem_caches()
    enabled, disabled = reports[None], reports["1"]
    assert enabled.checking_stats["witness"]["enabled"] is True
    assert disabled.witness is None and disabled.violation is None
    assert disabled.checking_stats["witness"] == {"enabled": False}
    # Zero behavioral drift: verdict, route, build and checking counters
    # unchanged.
    assert disabled.holds == enabled.holds
    assert disabled.route == enabled.route
    assert disabled.abstraction_stats["states"] \
        == enabled.abstraction_stats["states"]
    assert disabled.abstraction_stats["edges"] \
        == enabled.abstraction_stats["edges"]
    assert checking_drift_view(disabled.checking_stats) \
        == checking_drift_view(enabled.checking_stats)
    return enabled


class TestKillSwitch:
    """``REPRO_NO_WITNESS=1`` drops the certificate and nothing else, on
    every ``verify()`` route and option combination."""

    def test_no_witness_disables_extraction_without_drift(self, request,
                                                          tmp_path):
        enabled = assert_switch_invisible(request, tmp_path, "ex41",
                                          REACH_A, {})
        assert enabled.witness is not None

    @pytest.mark.parametrize(
        "dcds_source,formula_source,options",
        [case[1:] for case in KILL_SWITCH_CASES],
        ids=[case[0] for case in KILL_SWITCH_CASES])
    def test_every_route_and_option(self, request, tmp_path, dcds_source,
                                    formula_source, options):
        assert_switch_invisible(request, tmp_path, dcds_source,
                                formula_source, options)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class TestRendering:
    def test_dot_highlights_the_run(self, ex41_witness_report):
        report = ex41_witness_report
        dot = certificate_to_dot(report.transition_system, report.witness)
        assert "color=red, penwidth=2" in dot
        assert "peripheries=2" in dot

    def test_dot_forces_path_states_past_truncation(self,
                                                    ex41_witness_report):
        report = ex41_witness_report
        dot = certificate_to_dot(report.transition_system, report.witness,
                                 max_states=1)
        # Every state on the run is rendered even though max_states=1.
        assert dot.count("color=red, penwidth=2") \
            >= len(report.witness.states)

    def test_render_lists_minted_calls(self, ex41_witness_report):
        report = ex41_witness_report
        rendered = render_certificate(report.transition_system,
                                      report.witness)
        assert "minted" in rendered
        assert "discharges" in rendered


# ---------------------------------------------------------------------------
# The independent state-local evaluator
# ---------------------------------------------------------------------------

class TestStateHolds:
    def test_rejects_unguarded_quantifier(self):
        ts = guarded_ts()
        with pytest.raises(CertificateError):
            state_holds(parse_mu("E x. P(x)"), ts.db("s0"))

    def test_guarded_quantifier_enumerates_adom(self):
        ts = guarded_ts()
        assert state_holds(parse_mu("E x. (live(x) & P(x))"), ts.db("s0"))
        assert not state_holds(parse_mu("E x. (live(x) & Q(x))"),
                               ts.db("s0"))

    def test_rejects_modal_operators(self):
        ts = guarded_ts()
        with pytest.raises(CertificateError):
            state_holds(parse_mu("<-> P('a')"), ts.db("s0"))
