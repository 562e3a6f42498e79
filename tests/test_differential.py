"""Seeded property-based differential harness: parallel vs sequential.

For a sweep of ``random_dcds`` seeds across all three acyclicity shapes and
both service semantics, the :class:`ParallelExplorer` (workers 1, 2, and
``REPRO_WORKERS``, default 4) must produce a transition system bit-identical
to the sequential :class:`Explorer` — identical interned state sets,
identical dbs, identical edge multisets, identical truncation flags, and
identical growth traces — and ``verify()`` must answer identically
end-to-end with and without ``workers=``.

Certificates ride the same harness: both sides of every differential
pair must emit witness/violation certificates that the independent
replay-checker (:mod:`repro.mucalc.certify`) accepts, the certificates
must be bit-identical across sides, and verdict + certificate must agree
with the uncompiled reference evaluator (``compiled=False``).

Every case is reproducible from its id alone (seed, shape, semantics). A
fast subset always runs; the heavy tail is marked ``slow_differential``
(skippable locally via ``--skip-slow-differential``, always run in CI,
where a dedicated job step additionally re-runs the file with
``REPRO_WORKERS=4``).
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter

import pytest

from repro.core import ServiceSemantics
from repro.core.execution import clear_subproblem_caches
from repro.engine import (
    Checkpoint, CheckpointInterrupted, DetAbstractionGenerator, Explorer,
    ParallelExplorer, PoolNondetGenerator, SymmetryReducer,
    resolve_symmetry)
from repro.relational.kernel import kernel_for
from repro.errors import UndecidableFragment, VerificationError
from repro.mucalc.certify import replay
from repro.mucalc.checker import ModelChecker
from repro.mucalc.parser import parse_mu
from repro.mucalc.witness import extract
from repro.pipeline import verify
from repro.relational.values import Fresh
from repro.workloads import random_dcds

MAX_WORKERS = max(1, int(os.environ.get("REPRO_WORKERS", "4")))
WORKER_COUNTS = tuple(sorted({1, 2, MAX_WORKERS}))
#: CI re-runs this file with REPRO_SYMMETRY=quotient: the deterministic
#: cases then explore quotient-by-construction on both the sequential and
#: the parallel side, pinning the symmetry-reduced builds bit-identical at
#: every worker count too (pool-nondet states admit no sound quotient and
#: stay exact — see repro.engine.symmetry).
SYMMETRY = resolve_symmetry(None)
SHAPES = ("weakly-acyclic", "gr-acyclic", "free")
SEMANTICS = (ServiceSemantics.DETERMINISTIC,
             ServiceSemantics.NONDETERMINISTIC)

# 2 fast + 5 slow seeds x 3 shapes x 2 semantics = 42 differential cases.
FAST_SEEDS = (0, 1)
SLOW_SEEDS = (2, 3, 4, 5, 6)

# Bounds keeping every random case finite (free-shape DCDSs may be
# run-unbounded; truncate gracefully and compare the truncated prefixes).
MAX_STATES = 3000
MAX_DEPTH = 3
POOL = ("c0", "c1", Fresh(90))

#: Tight storage-layer budget for the out-of-core mirror: small enough
#: that every differential case actually spills/evicts, large enough to
#: terminate quickly. Store mode is bit-identical *by construction*; this
#: sweep is what pins it.
TIGHT_BUDGET = 128 * 1024


def case_params(seeds):
    return [
        pytest.param(seed, shape, semantics,
                     id=f"seed{seed}-{shape}-{semantics.value}")
        for seed in seeds
        for shape in SHAPES
        for semantics in SEMANTICS
    ]


def explorer_config(dcds):
    """The (generator factory, explorer kwargs) pair for one DCDS.

    Deterministic services exercise the Thm 4.3 abstraction (equality
    commitments); nondeterministic ones exercise the finite-pool concrete
    semantics — RCYCL is sequential by design (order-dependent used-value
    pool) and is therefore *not* a differential target.
    """
    if dcds.semantics is ServiceSemantics.DETERMINISTIC:
        def factory():
            generator = DetAbstractionGenerator(dcds)
            if SYMMETRY == "quotient":
                generator = SymmetryReducer(generator)
            return generator
        return (factory,
                dict(max_states=MAX_STATES, max_depth=MAX_DEPTH,
                     on_budget="truncate"))
    return (lambda: PoolNondetGenerator(dcds, list(POOL)),
            dict(max_states=MAX_STATES, max_depth=MAX_DEPTH,
                 on_budget="truncate"))


def assert_isomorphic_builds(sequential, parallel):
    """Bit-identical: states, dbs, edge multiset, truncation, stats."""
    assert sequential.initial == parallel.initial
    assert sequential.states == parallel.states
    # Edge multiset: labeled edges with multiplicity.
    sequential_edges = Counter(
        (source, label, target)
        for source, label, target in sequential.edges())
    parallel_edges = Counter(
        (source, label, target)
        for source, label, target in parallel.edges())
    assert sequential_edges == parallel_edges
    assert sequential.truncated_states == parallel.truncated_states
    for state in sequential.states:
        assert sequential.db(state) == parallel.db(state)
    for key in ("growth_trace", "expansions", "frontier_peak", "diverged",
                "explored_states", "explored_edges"):
        assert sequential.exploration_stats[key] \
            == parallel.exploration_stats[key], key


@contextlib.contextmanager
def forced_env(name, value):
    """Set (or, with ``value=None``, unset) a variable for the block."""
    saved = os.environ.get(name)
    try:
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
        yield
    finally:
        if saved is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = saved


def assert_certificates_agree(dcds, ts_a, ts_b):
    """Both sides of a differential pair certify identically.

    Extraction is a pure function of the transition system, so two
    bit-identical builds must yield the same verdict, the same outcome
    token, and (when one exists) the same certificate — and every emitted
    certificate must pass the independent replay-checker.
    """
    formula = reachability_formula(dcds)
    sides = []
    for ts in (ts_a, ts_b):
        checker = ModelChecker(ts, extra_domain=dcds.known_constants())
        holds = checker.models(formula)
        outcome = extract(ts, formula, holds, checker.engine_for(formula))
        if outcome.certificate is not None:
            report = replay(ts, outcome.certificate)
            assert report.ok, report.failures
        sides.append((holds, outcome.reason, outcome.certificate))
    assert sides[0] == sides[1]


def run_differential_case(seed, shape, semantics):
    dcds = random_dcds(seed, shape=shape, semantics=semantics)
    generator_factory, config = explorer_config(dcds)
    sequential = Explorer(dcds.schema, **config).run(
        generator_factory()).transition_system
    for workers in WORKER_COUNTS:
        parallel = ParallelExplorer(
            dcds.schema, workers=workers, batch_size=4, **config,
        ).run(generator_factory()).transition_system
        assert_isomorphic_builds(sequential, parallel)
    # Frontier-batch mirror: the batched driver (REPRO_NO_BATCH unset)
    # and the per-state driver (REPRO_NO_BATCH=1) must produce
    # bit-identical builds — states, dbs, edge multisets, truncation
    # flags, growth traces. Successor memos are keyed by spec signature
    # and survive rebuilds, so each side starts from cleared caches;
    # otherwise the second build would replay the first one's warmed
    # memos instead of exercising its own grounding tier.
    batch_builds = {}
    for forced in (None, "1"):
        with forced_env("REPRO_NO_BATCH", forced):
            clear_subproblem_caches()
            batch_builds[forced] = Explorer(dcds.schema, **config).run(
                generator_factory()).transition_system
    clear_subproblem_caches()
    assert_isomorphic_builds(batch_builds[None], batch_builds["1"])
    assert_isomorphic_builds(sequential, batch_builds["1"])
    assert_certificates_agree(dcds, sequential, batch_builds["1"])
    # Out-of-core mirror: the same case rebuilt under a tight memory
    # budget — sequential and at every worker count — must stay
    # bit-identical to the in-RAM build. Without a kernel the store is
    # not eligible and these are plain rebuilds, which must *still* be
    # bit-identical.
    store_config = dict(config, memory_budget=TIGHT_BUDGET)
    spill_expected = kernel_for(dcds) is not None
    budgeted = Explorer(dcds.schema, **store_config).run(
        generator_factory()).transition_system
    if spill_expected:
        assert budgeted.exploration_stats.get("store"), \
            "tight budget did not engage the paged store"
    assert_isomorphic_builds(sequential, budgeted)
    for workers in WORKER_COUNTS:
        budgeted_parallel = ParallelExplorer(
            dcds.schema, workers=workers, batch_size=4, **store_config,
        ).run(generator_factory()).transition_system
        assert_isomorphic_builds(sequential, budgeted_parallel)
    return sequential


class TestDifferentialFast:
    @pytest.mark.parametrize("seed,shape,semantics", case_params(FAST_SEEDS))
    def test_parallel_matches_sequential(self, seed, shape, semantics):
        run_differential_case(seed, shape, semantics)


@pytest.mark.slow_differential
class TestDifferentialSweep:
    @pytest.mark.parametrize("seed,shape,semantics", case_params(SLOW_SEEDS))
    def test_parallel_matches_sequential(self, seed, shape, semantics):
        run_differential_case(seed, shape, semantics)


# ---------------------------------------------------------------------------
# checkpoint interrupt/resume under spill
# ---------------------------------------------------------------------------

class TestCheckpointUnderSpill:
    """Crash-safe persistence composed with the out-of-core store: a
    budgeted run interrupted mid-build and resumed (in either mode) must
    converge to the bit-identical transition system."""

    def _case(self):
        dcds = random_dcds(0, shape="weakly-acyclic",
                           semantics=ServiceSemantics.DETERMINISTIC)
        generator_factory, config = explorer_config(dcds)
        baseline = Explorer(dcds.schema, **config).run(
            generator_factory()).transition_system
        return dcds, generator_factory, config, baseline

    def _interrupted(self, dcds, generator_factory, config, path,
                     **extra):
        checkpoint = Checkpoint(path, interval=0)
        checkpoint._interrupt_after_chunks = 2
        with pytest.raises(CheckpointInterrupted):
            Explorer(dcds.schema, checkpoint=checkpoint, **config,
                     **extra).run(generator_factory())

    def test_budgeted_interrupt_budgeted_resume(self, tmp_path):
        dcds, generator_factory, config, baseline = self._case()
        path = tmp_path / "ck-spill"
        self._interrupted(dcds, generator_factory, config, path,
                          memory_budget=TIGHT_BUDGET)
        resumed = Explorer(
            dcds.schema, checkpoint=Checkpoint(path, interval=0),
            memory_budget=TIGHT_BUDGET, **config,
        ).run(generator_factory()).transition_system
        assert_isomorphic_builds(baseline, resumed)

    def test_budgeted_interrupt_plain_resume(self, tmp_path):
        """A store-format checkpoint is readable by an unbudgeted run."""
        dcds, generator_factory, config, baseline = self._case()
        if kernel_for(dcds) is None:
            pytest.skip("store mode unavailable")
        path = tmp_path / "ck-cross"
        self._interrupted(dcds, generator_factory, config, path,
                          memory_budget=TIGHT_BUDGET)
        resumed = Explorer(
            dcds.schema, checkpoint=Checkpoint(path, interval=0),
            **config,
        ).run(generator_factory()).transition_system
        assert_isomorphic_builds(baseline, resumed)

    def test_plain_interrupt_budgeted_resume(self, tmp_path):
        """A wire/pickle checkpoint resumed by a budgeted run demotes to
        the plain path (no mid-flight re-encoding) but still converges."""
        dcds, generator_factory, config, baseline = self._case()
        path = tmp_path / "ck-demote"
        # The interrupted run must be genuinely plain even when the
        # ambient environment sets a budget default, or the checkpoint
        # would be store-format and no demotion happens on resume.
        with forced_env("REPRO_MEMORY_BUDGET", None):
            self._interrupted(dcds, generator_factory, config, path)
        resumed = Explorer(
            dcds.schema, checkpoint=Checkpoint(path, interval=0),
            memory_budget=TIGHT_BUDGET, **config,
        ).run(generator_factory()).transition_system
        assert resumed.exploration_stats.get("store") is None
        assert_isomorphic_builds(baseline, resumed)

    def test_budgeted_parallel_interrupt_resume(self, tmp_path):
        dcds, generator_factory, config, baseline = self._case()
        path = tmp_path / "ck-par"
        checkpoint = Checkpoint(path, interval=0)
        checkpoint._interrupt_after_chunks = 2
        with pytest.raises(CheckpointInterrupted):
            ParallelExplorer(
                dcds.schema, workers=2, batch_size=4,
                checkpoint=checkpoint, memory_budget=TIGHT_BUDGET,
                **config).run(generator_factory())
        resumed = ParallelExplorer(
            dcds.schema, workers=2, batch_size=4,
            checkpoint=Checkpoint(path, interval=0),
            memory_budget=TIGHT_BUDGET, **config,
        ).run(generator_factory()).transition_system
        assert_isomorphic_builds(baseline, resumed)


# ---------------------------------------------------------------------------
# verify() end-to-end agreement
# ---------------------------------------------------------------------------

def reachability_formula(dcds):
    """``EF (R0 nonempty)`` with LIVE-guarded quantifiers (µLP)."""
    arity = dcds.schema.arity("R0")
    variables = [f"x{i}" for i in range(arity)]
    guards = " & ".join(f"live({v})" for v in variables)
    quantifiers = " ".join(f"E {v}." for v in variables)
    return parse_mu(
        f"mu Z. (({quantifiers} {guards} & R0({', '.join(variables)}))"
        f" | <-> Z)")


def invariant_formula(dcds):
    """``AG (R0 empty)`` in guarded-universal form (µLP) — violated on
    any run that ever populates R0, exercising violation certificates."""
    arity = dcds.schema.arity("R0")
    variables = [f"x{i}" for i in range(arity)]
    if not variables:
        return parse_mu("nu Z. (~R0() & [-] Z)")
    vars_csv = ", ".join(variables)
    return parse_mu(
        f"nu Z. ((A {vars_csv}. (~live({vars_csv}) | ~R0({vars_csv})))"
        f" & [-] Z)")


def assert_report_certified(report, dcds, formula):
    """The report's certificate passes the independent replay oracle and
    its verdict agrees with the uncompiled reference evaluator."""
    certificate = report.witness or report.violation
    if certificate is not None:
        oracle = replay(report.transition_system, certificate)
        assert oracle.ok, oracle.failures
    reference = ModelChecker(report.transition_system,
                             extra_domain=dcds.known_constants(),
                             compiled=False)
    assert reference.models(formula) == report.holds
    if certificate is not None:
        # The certificate's terminal discharges the shape's body exactly
        # when the reference evaluator says so: a witness ends in a
        # formula-satisfying state, a violation ends outside the
        # invariant's extension.
        satisfying = reference.evaluate(formula)
        if report.witness is not None:
            assert certificate.final in satisfying
        else:
            assert certificate.final not in satisfying
    return certificate


def assert_verify_agrees(seed, shape, semantics,
                         formula_factory=reachability_formula):
    dcds = random_dcds(seed, shape=shape, semantics=semantics)
    formula = formula_factory(dcds)
    try:
        baseline = verify(dcds, formula, max_states=MAX_STATES)
    except (UndecidableFragment, VerificationError) as failed:
        # The static precondition (or, under REPRO_SYMMETRY=quotient, the
        # µLP adequacy gate) failed — it must fail identically sharded.
        with pytest.raises(type(failed)):
            verify(dcds, formula, max_states=MAX_STATES,
                   workers=MAX_WORKERS)
        return
    sharded = verify(dcds, formula, max_states=MAX_STATES,
                     workers=MAX_WORKERS)
    assert sharded.holds == baseline.holds
    assert sharded.route == baseline.route
    assert sharded.abstraction_stats["states"] \
        == baseline.abstraction_stats["states"]
    assert sharded.abstraction_stats["edges"] \
        == baseline.abstraction_stats["edges"]
    # Certificates: both sides of the pair replay green through the
    # independent oracle, agree with the reference evaluator, and are
    # bit-identical (same offline extraction route on identical builds).
    baseline_cert = assert_report_certified(baseline, dcds, formula)
    sharded_cert = assert_report_certified(sharded, dcds, formula)
    assert baseline_cert == sharded_cert


class TestVerifyAgreementFast:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_det_weakly_acyclic(self, seed):
        assert_verify_agrees(seed, "weakly-acyclic",
                             ServiceSemantics.DETERMINISTIC)

    def test_nondet_route_accepts_workers(self):
        """RCYCL stays sequential; workers= must be a no-op there."""
        assert_verify_agrees(0, "gr-acyclic",
                             ServiceSemantics.NONDETERMINISTIC)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_invariant_det_weakly_acyclic(self, seed):
        """The AG pack fails on these workloads, so the agreement check
        exercises violation certificates end to end."""
        assert_verify_agrees(seed, "weakly-acyclic",
                             ServiceSemantics.DETERMINISTIC,
                             formula_factory=invariant_formula)

    def test_invariant_nondet_gr_acyclic(self):
        assert_verify_agrees(0, "gr-acyclic",
                             ServiceSemantics.NONDETERMINISTIC,
                             formula_factory=invariant_formula)


@pytest.mark.slow_differential
class TestVerifyAgreementSweep:
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_det_weakly_acyclic(self, seed):
        assert_verify_agrees(seed, "weakly-acyclic",
                             ServiceSemantics.DETERMINISTIC)

    @pytest.mark.parametrize("seed", SLOW_SEEDS[:2])
    def test_nondet_gr_acyclic(self, seed):
        assert_verify_agrees(seed, "gr-acyclic",
                             ServiceSemantics.NONDETERMINISTIC)

    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_invariant_det_weakly_acyclic(self, seed):
        assert_verify_agrees(seed, "weakly-acyclic",
                             ServiceSemantics.DETERMINISTIC,
                             formula_factory=invariant_formula)

    @pytest.mark.parametrize("seed", SLOW_SEEDS[:2])
    def test_invariant_nondet_gr_acyclic(self, seed):
        assert_verify_agrees(seed, "gr-acyclic",
                             ServiceSemantics.NONDETERMINISTIC,
                             formula_factory=invariant_formula)
