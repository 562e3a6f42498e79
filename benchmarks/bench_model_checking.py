"""Model-checking cost — the compiled engine vs the seed-style evaluator.

Section 6: checking a formula of size ``l`` with ``k`` alternating
fixpoints over an ``n``-state system costs ``O((2^n * n^l)^k)`` in the
worst case. This sweep regenerates the shape along both axes — transition
system size × fixpoint alternation depth — and pins the compiled checker
(`repro.mucalc.engine`: leaf tables, predecessor-mask modalities, memoized
subformula extensions, Emerson–Lei warm starts) against the seed-style
recursive evaluator (`ModelChecker(..., compiled=False)`), asserting equal
extensions before timing.

`benchmarks/run_all.py` records compiled-vs-reference wall-time ratios in
``BENCH_<date>.json`` (`checker_probes`): over the whole sweep, and on the
smallest long-diameter chain; the repo's acceptance bar is >= 2x on the
largest alternation configuration.
"""

import pytest

from repro.mucalc import EF, ModelChecker, parse_mu
from repro.mucalc.ast import Diamond, MAnd, MOr, Mu, Nu, PredVar
from repro.relational import DatabaseSchema, Instance, fact
from repro.semantics import TransitionSystem

SIZES = [60, 120, 240]
DEPTHS = [1, 2, 3]
CHAIN_SIZES = [480, 960]


def synthetic_ts(n: int) -> TransitionSystem:
    """Ring with chords; facts rotate through 7 values so LIVE varies."""
    schema = DatabaseSchema.of("P/1", "Q/1")
    ts = TransitionSystem(schema, 0, name=f"ring[{n}]")
    for i in range(n):
        facts = [fact("P", f"v{i % 7}")]
        if i % 3 == 0:
            facts.append(fact("Q", f"v{(i + 1) % 7}"))
        ts.add_state(i, Instance(facts))
    for i in range(n):
        ts.add_edge(i, (i + 1) % n)
        ts.add_edge(i, (i * 7 + 3) % n)
    return ts


def chain_ts(n: int) -> TransitionSystem:
    """Path ``0 -> 1 -> ... -> n-1`` plus one back edge ``n-1 -> 0``;
    ``Q`` holds only at the far end. Reachability-style fixpoints need
    ~``n`` iterations to converge here (the system's diameter), so the
    modal/fixpoint superstructure dominates the leaf queries — the stress
    case for the engine's word-level convergence compares and
    delta-gathered diamonds. Contrast with ``synthetic_ts``: the ring's
    chords keep its diameter small, so its cost sits in the leaves."""
    schema = DatabaseSchema.of("P/1", "Q/1")
    ts = TransitionSystem(schema, 0, name=f"chain-ts[{n}]")
    for i in range(n):
        facts = [fact("P", f"v{i % 7}")]
        if i == n - 1:
            facts.append(fact("Q", "v1"))
        ts.add_state(i, Instance(facts))
    for i in range(n - 1):
        ts.add_edge(i, i + 1)
    ts.add_edge(n - 1, 0)
    return ts


def chain_formulas():
    """The long-diameter probe pair: plain reachability (``EF``, a mu
    needing ~n iterations) and infinitely-often (alternating nu/mu whose
    inner mu re-runs per outer iteration)."""
    probe = parse_mu("Q('v1')")
    infinitely_often = Nu("X", Mu("Y", MOr.of(
        MAnd.of(probe, Diamond(PredVar("X"))), Diamond(PredVar("Y")))))
    return {"EF": EF(probe), "inf-often": infinitely_often}


def formula_for_depth(depth: int):
    """Alternation towers: EF (1), infinitely-often (2), EF of a guarded
    infinitely-often region (3)."""
    probe = parse_mu("Q('v1')")
    if depth == 1:
        return EF(probe)
    infinitely_often = Nu("X", Mu("Y", MOr.of(
        MAnd.of(probe, Diamond(PredVar("X"))), Diamond(PredVar("Y")))))
    if depth == 2:
        return infinitely_often
    return Mu("Z", MOr.of(
        MAnd.of(parse_mu("P('v2')"), infinitely_often),
        Diamond(PredVar("Z"))))


def quantified_formula():
    """Infinitely often some live value in Q — quantifier inside the
    alternating tower (LIVE-guarded, so the active-domain restriction and
    conjunct ordering both engage)."""
    return Nu("X", Mu("Y", MOr.of(
        MAnd.of(parse_mu("E x. live(x) & Q(x)"), Diamond(PredVar("X"))),
        Diamond(PredVar("Y")))))


class TestCompiledSweep:
    """Compiled-checker wall times across the size × depth grid."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_compiled(self, benchmark, n, depth):
        ts = synthetic_ts(n)
        formula = formula_for_depth(depth)
        expected = ModelChecker(ts, compiled=False).evaluate(formula)
        result = benchmark(
            lambda: ModelChecker(ts).evaluate(formula))
        assert result == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_compiled_quantified(self, benchmark, n):
        ts = synthetic_ts(n)
        formula = quantified_formula()
        expected = ModelChecker(ts, compiled=False).evaluate(formula)
        result = benchmark(
            lambda: ModelChecker(ts).evaluate(formula))
        assert result == expected


class TestChainFixpoints:
    """Iteration-heavy checking on the long-diameter chain: the compiled
    checker's wall time, with the known extension (every state) as the
    correctness check. ``checker_probes`` in ``run_all.py`` times the
    reference on the smallest chain for the compiled-vs-reference pair."""

    @pytest.mark.parametrize("n", CHAIN_SIZES)
    @pytest.mark.parametrize("name", sorted(chain_formulas()))
    def test_chain_compiled(self, benchmark, n, name):
        ts = chain_ts(n)
        formula = chain_formulas()[name]
        result = benchmark(lambda: ModelChecker(ts).evaluate(formula))
        # Every state reaches the far-end Q (and the back edge closes the
        # lasso), so both formulas hold everywhere.
        assert len(result) == n


class TestReferenceSweep:
    """Seed-style evaluator on the smallest size (the comparison base;
    larger sizes are timed by run_all.py's checker probes)."""

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_reference(self, benchmark, depth):
        ts = synthetic_ts(SIZES[0])
        formula = formula_for_depth(depth)
        benchmark(
            lambda: ModelChecker(ts, compiled=False).evaluate(formula))


class TestGalleryProperty:
    """The slowest real checking job in the repo: the Appendix E audit
    property over the slim audit-system abstraction (quantified µLP with
    nested fixpoints). Compiled path only — the reference evaluator takes
    ~60s here, which is exactly why the compiled layer exists; parity for
    this pair is asserted once in `test_audit_parity`."""

    @pytest.fixture(scope="class")
    def audit_ts(self):
        from repro.gallery import audit_system
        from repro.semantics import build_det_abstraction

        return build_det_abstraction(audit_system(slim=True))

    def test_audit_property_compiled(self, benchmark, audit_ts):
        from repro.gallery.travel import property_audit_failure_propagates_slim

        formula = property_audit_failure_propagates_slim()
        result = benchmark(
            lambda: ModelChecker(audit_ts).evaluate(formula))
        assert result  # the property holds on (at least) the initial state

    @pytest.mark.skipif(
        "not config.getoption('--run-slow-parity', default=False)",
        reason="~60s reference evaluation; run via --run-slow-parity")
    def test_audit_parity(self, audit_ts):
        from repro.gallery.travel import property_audit_failure_propagates_slim

        formula = property_audit_failure_propagates_slim()
        assert ModelChecker(audit_ts).evaluate(formula) == \
            ModelChecker(audit_ts, compiled=False).evaluate(formula)
