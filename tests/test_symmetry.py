"""Symmetry-reduced exploration: quotient-by-construction (Lemma C.2).

Four pillars:

* **Canonical-labeling property tests** — both the object-level
  ``canonical_form`` and the kernel-coded
  ``RelationalKernel.canonical_renaming`` produce equal keys for exactly
  the instances isomorphic via bijections fixing ``ADOM(I0)`` (pinned
  against ``iter_isomorphisms``/``are_isomorphic`` ground truth on seeded
  ``random_dcds`` instances and renamed twins), and the joint ``<I, M>``
  canonicalization merges history-swapped deterministic states.

* **Quotient differential** — for every gallery DCDS and a >=20-case
  seeded ``random_dcds`` sweep, the quotient-mode transition system is
  persistence-preserving bisimilar to the exact-mode one
  (``bisim/core.py``), never larger, and the quotient build is
  bit-identical across workers 1/2/4 (the acceptance gate of PR 5).
  Reduction applies to the history-carrying ``<I, M>`` constructions
  (deterministic abstraction, pool-det); plain-instance systems admit no
  sound quotient (the keep-vs-swap conflation documented in
  ``repro.engine.symmetry``), so for them quotient mode must be an exact
  no-op — also asserted here.

* **Adequacy gate** — ``verify(..., symmetry="quotient")`` refuses
  non-µLP formulas and formulas naming constants the quotient does not
  fix.

* **Interner/parallel regressions** — the ``InternEntry`` single-``fixed``
  contract, canonical-first interning, and the ``workers=1`` inline
  short-circuit (zero ``ipc_bytes_sent``).
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.bisim import BisimMode, bisimilar, bounded_bisimilar
from repro.core import DCDSBuilder, ServiceSemantics
from repro.engine import (
    DetAbstractionGenerator, DetState, Explorer, ParallelExplorer,
    PoolDetGenerator, PoolNondetGenerator, StateInterner, SymmetryReducer,
    resolve_symmetry, sorted_call_map)
from repro.errors import ReproError, VerificationError
from repro.gallery import (
    audit_system, example_41, example_42, example_43, example_52,
    example_53, library_system, request_system, student_registry,
    theorem_45_witness)
from repro.gallery.library import property_loaned_books_off_shelf
from repro.gallery.student import property_eventual_graduation_mu_la
from repro.mucalc.parser import parse_mu
from repro.pipeline import verify
from repro.relational import Instance, fact
from repro.relational.isomorphism import (
    are_isomorphic, canonical_form, canonical_key)
from repro.relational.kernel import kernel_for
from repro.relational.values import Fresh, ServiceCall
from repro.semantics import explore_concrete, isomorphism_quotient
from repro.workloads import random_dcds

MAX_WORKERS = max(1, int(os.environ.get("REPRO_WORKERS", "4")))
WORKER_COUNTS = tuple(sorted({1, 2, MAX_WORKERS}))

POOL = (Fresh(80), Fresh(81))
MAX_STATES = 2000
MAX_DEPTH = 2


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def exact_and_quotient(dcds, generator_factory, config):
    exact = Explorer(dcds.schema, **config).run(
        generator_factory()).transition_system
    quotient = Explorer(dcds.schema, **config).run(
        SymmetryReducer(generator_factory())).transition_system
    return exact, quotient


def assert_bit_identical(reference, other):
    assert reference.initial == other.initial
    assert reference.states == other.states
    assert Counter(reference.edges()) == Counter(other.edges())
    assert reference.truncated_states == other.truncated_states
    for state in reference.states:
        assert reference.db(state) == other.db(state)


def assert_quotient_adequate(exact, quotient, depth):
    """The Lemma C.2 gate: never larger, persistence-bisimilar to exact.

    The game runs against the exact system directly — full fixpoint when
    the systems are complete and small, depth-bounded at the truncation
    horizon otherwise.
    """
    assert len(quotient) <= len(exact)
    truncated = bool(exact.truncated_states or quotient.truncated_states)
    if not truncated and len(exact) <= 80:
        assert bisimilar(quotient, exact, BisimMode.PERSISTENCE)
    else:
        assert bounded_bisimilar(
            quotient, exact, depth, BisimMode.PERSISTENCE)


def assert_workers_agree(dcds, generator_factory, config, reference):
    for workers in WORKER_COUNTS:
        parallel = ParallelExplorer(
            dcds.schema, workers=workers, batch_size=4, **config,
        ).run(SymmetryReducer(generator_factory())).transition_system
        assert_bit_identical(reference, parallel)


def run_quotient_case(dcds, generator_factory, config, depth, workers=True):
    exact, quotient = exact_and_quotient(dcds, generator_factory, config)
    assert_quotient_adequate(exact, quotient, depth)
    if workers:
        assert_workers_agree(dcds, generator_factory, config, quotient)
    return exact, quotient


# ---------------------------------------------------------------------------
# Canonical labeling: property tests against isomorphism ground truth
# ---------------------------------------------------------------------------

def kernel_canonical_key(kernel, instance):
    renaming = kernel.canonical_instance_renaming(instance)
    canonical = instance.rename(renaming)
    return tuple(f.sort_key() for f in canonical.sorted_facts())


def lemma_c2_isomorphic(first, second, fixed):
    """Isomorphic via a bijection that is the identity on ``fixed`` on
    *both* sides — the equivalence canonical forms decide.

    ``iter_isomorphisms`` pins only the fixed values occurring in its
    first argument, so ``{R(u)} -> {R('c')}`` mapping a movable value onto
    an absent fixed constant counts as an isomorphism there; running the
    search both ways excludes exactly those movable<->fixed matches.
    """
    return are_isomorphic(first, second, fixed) \
        and are_isomorphic(second, first, fixed)


class TestCanonicalFormProperty:
    """Satellite: both canonical paths pinned against iter_isomorphisms."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_key_iff_isomorphic(self, seed):
        dcds = random_dcds(seed, shape="gr-acyclic",
                           semantics=ServiceSemantics.NONDETERMINISTIC)
        fixed = frozenset(dcds.known_constants())
        ts = explore_concrete(dcds, pool=list(POOL) + ["c0"], depth=2,
                              max_states=2000)
        instances = sorted({ts.db(state) for state in ts.states},
                           key=repr)[:6]
        # Renamed twins: isomorphic by construction, different objects.
        swap = {POOL[0]: POOL[1], POOL[1]: POOL[0]}
        instances += [instance.rename(swap) for instance in instances[:3]]
        kernel = kernel_for(dcds)
        for first in instances:
            for second in instances:
                iso = lemma_c2_isomorphic(first, second, fixed)
                assert (canonical_key(first, fixed)
                        == canonical_key(second, fixed)) == iso, \
                    (first, second)
                if kernel is not None:
                    assert (kernel_canonical_key(kernel, first)
                            == kernel_canonical_key(kernel, second)) == iso, \
                        (first, second)

    @pytest.mark.parametrize("seed", range(4))
    def test_canonical_form_is_isomorphic_to_original(self, seed):
        dcds = random_dcds(seed, shape="gr-acyclic",
                           semantics=ServiceSemantics.NONDETERMINISTIC)
        fixed = frozenset(dcds.known_constants())
        ts = explore_concrete(dcds, pool=list(POOL), depth=2,
                              max_states=2000)
        kernel = kernel_for(dcds)
        for state in sorted(ts.states, key=repr)[:6]:
            instance = ts.db(state)
            canonical, _ = canonical_form(instance, fixed)
            assert are_isomorphic(canonical, instance, fixed)
            if kernel is not None:
                coded = kernel.canonical_instance_renaming(instance)
                assert are_isomorphic(
                    instance.rename(coded), instance, fixed)

    def test_joint_canonicalization_merges_swapped_histories(self):
        """<I, M> states differing by a value swap across dead history
        entries land on the same representative."""
        dcds = _independent_minters(2)
        generator = SymmetryReducer(DetAbstractionGenerator(dcds))
        instance = Instance([fact("Seed", "c")])
        call_f = ServiceCall("f0", ("c",))
        call_g = ServiceCall("f1", ("c",))
        first = DetState(instance, sorted_call_map(
            {call_f: Fresh(0), call_g: Fresh(1)}))
        second = DetState(instance, sorted_call_map(
            {call_f: Fresh(1), call_g: Fresh(0)}))
        assert first != second
        assert generator.representative(first) \
            == generator.representative(second)
        # A third state whose history has a different equality pattern
        # must stay separate.
        collapsed = DetState(instance, sorted_call_map(
            {call_f: Fresh(0), call_g: Fresh(0)}))
        assert generator.representative(collapsed) \
            != generator.representative(first)


def _independent_minters(n):
    """``n`` independent actions, each minting one short-lived value."""
    builder = DCDSBuilder(name=f"indep[{n}]")
    builder.schema("Seed/1", *(f"Tmp{i}/1" for i in range(n)))
    builder.initial("Seed('c')")
    for index in range(n):
        builder.service(f"f{index}/1")
        builder.action(f"mint{index}", "Seed(x) ~> Seed(x)",
                       f"Seed(x) ~> Tmp{index}(f{index}(x))")
        builder.rule("true", f"mint{index}")
    return builder.build(ServiceSemantics.DETERMINISTIC)


# ---------------------------------------------------------------------------
# Quotient differential: gallery
# ---------------------------------------------------------------------------

TRUNCATING = dict(max_states=MAX_STATES, max_depth=MAX_DEPTH,
                  on_budget="truncate")

DET = ServiceSemantics.DETERMINISTIC

GALLERY_DET = [
    pytest.param(example_41, id="example_41"),
    pytest.param(example_42, id="example_42"),
    pytest.param(lambda: example_43(), id="example_43_det"),
    pytest.param(theorem_45_witness, id="theorem_45_witness"),
    pytest.param(lambda: audit_system(), id="audit_system"),
]

GALLERY_POOL_DET = [
    pytest.param(example_41, id="example_41"),
    pytest.param(lambda: example_43(), id="example_43_det"),
    pytest.param(lambda: library_system(semantics=DET),
                 id="library_system_det"),
    pytest.param(lambda: request_system(semantics=DET),
                 id="request_system_det"),
]

GALLERY_NONDET = [
    pytest.param(
        lambda: example_43(ServiceSemantics.NONDETERMINISTIC),
        id="example_43_nondet"),
    pytest.param(example_52, id="example_52"),
    pytest.param(example_53, id="example_53"),
    pytest.param(student_registry, id="student_registry"),
    pytest.param(library_system, id="library_system"),
    pytest.param(request_system, id="request_system"),
]


class TestQuotientDifferentialGallery:
    @pytest.mark.parametrize("factory", GALLERY_DET)
    def test_det_abstraction(self, factory):
        dcds = factory()
        run_quotient_case(
            dcds, lambda: DetAbstractionGenerator(dcds), TRUNCATING,
            MAX_DEPTH)

    @pytest.mark.parametrize("factory", GALLERY_POOL_DET)
    def test_pool_det_exploration(self, factory):
        dcds = factory()
        run_quotient_case(
            dcds, lambda: PoolDetGenerator(dcds, list(POOL)), TRUNCATING,
            MAX_DEPTH)

    @pytest.mark.parametrize("factory", GALLERY_NONDET)
    def test_nondet_pool_quotient_is_exact_noop(self, factory):
        """Plain-instance systems: quotient mode must not touch the build
        (no sound quotient exists — see repro.engine.symmetry)."""
        dcds = factory()
        exact = explore_concrete(dcds, pool=list(POOL), depth=MAX_DEPTH,
                                 max_states=50000)
        via_quotient = explore_concrete(
            dcds, pool=list(POOL), depth=MAX_DEPTH, max_states=50000,
            symmetry="quotient")
        assert_bit_identical(exact, via_quotient)
        assert "symmetry" not in via_quotient.exploration_stats


# ---------------------------------------------------------------------------
# Quotient differential: seeded random_dcds sweep (>= 20 cases)
# ---------------------------------------------------------------------------

# 5 seeds x 4 det-state configurations = 20 quotient differential cases,
# each checked bisimilar to exact and bit-identical at workers 1/2/4.
RANDOM_MATRIX = [
    ("weakly-acyclic", "abstraction"),
    ("free", "abstraction"),
    ("weakly-acyclic", "pool-det"),
    ("free", "pool-det"),
]
FAST_SEEDS = (0, 1)
SLOW_SEEDS = (2, 3, 4)


def random_case_params(seeds):
    return [
        pytest.param(seed, shape, construction,
                     id=f"seed{seed}-{shape}-{construction}")
        for seed in seeds
        for shape, construction in RANDOM_MATRIX
    ]


def run_random_case(seed, shape, construction):
    dcds = random_dcds(seed, shape=shape,
                       semantics=ServiceSemantics.DETERMINISTIC)
    if construction == "abstraction":
        factory = lambda: DetAbstractionGenerator(dcds)
    else:
        factory = lambda: PoolDetGenerator(dcds, list(POOL) + ["c0"])
    run_quotient_case(dcds, factory, TRUNCATING, MAX_DEPTH)


class TestQuotientDifferentialRandomFast:
    @pytest.mark.parametrize("seed,shape,construction",
                             random_case_params(FAST_SEEDS))
    def test_quotient_bisimilar_across_workers(self, seed, shape,
                                               construction):
        run_random_case(seed, shape, construction)


@pytest.mark.slow_differential
class TestQuotientDifferentialRandomSweep:
    @pytest.mark.parametrize("seed,shape,construction",
                             random_case_params(SLOW_SEEDS))
    def test_quotient_bisimilar_across_workers(self, seed, shape,
                                               construction):
        run_random_case(seed, shape, construction)


# ---------------------------------------------------------------------------
# State-count reduction (the point of the exercise)
# ---------------------------------------------------------------------------

class TestReduction:
    def test_fresh_pool_reduction_at_least_2x(self):
        """Dead stamp receipts cycling through the fresh pool collapse the
        deterministic library system's pool exploration by >= 2x (2.16x
        measured at depth 3)."""
        pool = [Fresh(80), Fresh(81), Fresh(82)]
        exact = explore_concrete(library_system(semantics=DET), pool=pool,
                                 depth=3, max_states=100000,
                                 symmetry="exact")
        quotient = explore_concrete(library_system(semantics=DET), pool=pool,
                                    depth=3, max_states=100000,
                                    symmetry="quotient")
        assert len(exact) >= 2 * len(quotient)
        stats = quotient.exploration_stats["symmetry"]
        assert stats["canonicalizations"] > 0

    def test_history_interleavings_merge(self):
        """Independent minting actions: A-then-B and B-then-A histories
        differ only by value names and merge under the joint quotient."""
        from repro.semantics import build_det_abstraction
        exact = build_det_abstraction(_independent_minters(3),
                                      max_states=100000, max_depth=3,
                                      symmetry="exact")
        quotient = build_det_abstraction(_independent_minters(3),
                                         max_states=100000, max_depth=3,
                                         symmetry="quotient")
        assert len(quotient) < len(exact)


# ---------------------------------------------------------------------------
# verify(): adequacy gate and end-to-end agreement
# ---------------------------------------------------------------------------

class TestVerifyQuotient:
    def test_non_mulp_formula_rejected(self):
        with pytest.raises(VerificationError, match="µLP"):
            verify(random_dcds(0), property_eventual_graduation_mu_la(),
                   symmetry="quotient")

    def test_foreign_constant_rejected(self):
        formula = parse_mu(
            "mu Z. ((E x. live(x) & R0(x, 'zzz')) | <-> Z)")
        with pytest.raises(VerificationError, match="constant"):
            verify(random_dcds(0), formula, symmetry="quotient")

    def test_nondet_route_ignores_quotient(self):
        """RCYCL's recycling is the nondeterministic symmetry mechanism;
        the route ignores symmetry= exactly like workers=."""
        formula = property_loaned_books_off_shelf()
        baseline = verify(library_system(), formula)
        via_quotient = verify(library_system(), formula,
                              symmetry="quotient")
        assert via_quotient.holds == baseline.holds
        assert via_quotient.route == baseline.route == "rcycl"
        assert via_quotient.symmetry == "exact"
        assert via_quotient.abstraction_stats["states"] \
            == baseline.abstraction_stats["states"]

    def test_det_route_quotient_agrees(self):
        dcds = random_dcds(0)
        formula = parse_mu("mu Z. ((E x. live(x) & R0(x)) | <-> Z)")
        baseline = verify(dcds, formula, max_states=3000, symmetry="exact")
        reduced = verify(random_dcds(0), formula, max_states=3000,
                         symmetry="quotient")
        assert reduced.holds == baseline.holds
        assert reduced.symmetry == "quotient"
        assert "symmetry" in reduced.abstraction_stats

    def test_env_default_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYMMETRY", "quotient")
        assert resolve_symmetry(None) == "quotient"
        assert resolve_symmetry("exact") == "exact"
        monkeypatch.delenv("REPRO_SYMMETRY")
        assert resolve_symmetry(None) == "exact"
        with pytest.raises(ReproError):
            resolve_symmetry("bogus")


# ---------------------------------------------------------------------------
# Reducer/gates and interner contract regressions
# ---------------------------------------------------------------------------

class TestReducerGates:
    def test_rcycl_stays_excluded(self):
        from repro.engine import RcyclGenerator
        dcds = random_dcds(0, shape="gr-acyclic",
                           semantics=ServiceSemantics.NONDETERMINISTIC)
        with pytest.raises(ReproError, match="RCYCL"):
            SymmetryReducer(RcyclGenerator(dcds))

    def test_plain_instance_generators_excluded(self):
        """PoolNondet states carry no history: the keep-vs-swap conflation
        makes any quotient unsound, so the reducer refuses them."""
        dcds = random_dcds(0, shape="gr-acyclic",
                           semantics=ServiceSemantics.NONDETERMINISTIC)
        with pytest.raises(ReproError, match="history"):
            SymmetryReducer(PoolNondetGenerator(dcds, list(POOL)))

    def test_reduce_fixed_compares_quotient_level(self):
        """bisimilar(reduce_fixed=) pre-quotients both sides: two exact
        pool explorations of the same spec stay quotient-level bisimilar,
        and history mode refuses the reduction."""
        dcds = example_53()
        fixed = frozenset(dcds.known_constants())
        first = explore_concrete(dcds, pool=list(POOL), depth=2,
                                 max_states=2000)
        second = explore_concrete(
            dcds, pool=[Fresh(90), Fresh(91)], depth=2, max_states=2000)
        assert not first.truncated_states  # saturates within the bound
        assert bisimilar(first, second, BisimMode.PERSISTENCE,
                         reduce_fixed=fixed)
        with pytest.raises(ReproError, match="persistence"):
            bisimilar(first, second, BisimMode.HISTORY, reduce_fixed=fixed)

    def test_plain_instance_quotient_counterexample(self):
        """The documented counterexample: merging {R(v)}/{R(w)} changes a
        µLP verdict, which is why plain-instance quotients are refused."""
        from repro.core import DCDSBuilder
        builder = DCDSBuilder(name="swap")
        builder.schema("R/1")
        builder.initial("R('a')")
        builder.service("f/1")
        builder.action("step", "R(x) ~> R(f(x))")
        builder.rule("true", "step")
        dcds = builder.build(ServiceSemantics.NONDETERMINISTIC)
        exact = explore_concrete(dcds, pool=list(POOL), depth=2,
                                 max_states=1000)
        post = isomorphism_quotient(exact, dcds.known_constants())[0]
        # The quotient system is NOT persistence-bisimilar to the exact
        # one: the keep-vs-swap transitions conflated into one self-loop.
        assert not bisimilar(post, exact, BisimMode.PERSISTENCE)

    def test_reducer_pickles_without_memos(self):
        import pickle
        dcds = random_dcds(0)
        reducer = SymmetryReducer(DetAbstractionGenerator(dcds))
        state, _ = reducer.initial_state()
        reducer.representative(state)
        clone = pickle.loads(pickle.dumps(reducer))
        assert isinstance(clone, SymmetryReducer)
        assert clone._rep_memo == {}
        assert clone.fixed == reducer.fixed


class TestInternerContract:
    def test_single_fixed_contract_enforced(self):
        """Satellite: InternEntry refuses queries for a different fixed."""
        interner = StateInterner(fixed={"a"})
        entry = interner.intern(Instance([fact("R", "a"), fact("R", "u")]))
        entry.key(interner.fixed)
        with pytest.raises(ReproError, match="fixed"):
            entry.key(frozenset())
        with pytest.raises(ReproError, match="fixed"):
            entry.canonical(frozenset({"a", "u"}))
        # The pinned set keeps answering.
        assert entry.key(interner.fixed) is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="mode"):
            StateInterner(mode="eager")

    def test_canonical_first_matches_collision_classes(self):
        instances = [
            Instance([fact("R", "a"), fact("R", Fresh(i % 3))])
            for i in range(6)
        ] + [
            Instance([fact("R", Fresh(i)), fact("S", Fresh(i), "a")])
            for i in range(4)
        ]
        lazy = StateInterner(fixed={"a"})
        eager = StateInterner(fixed={"a"}, mode="canonical-first")
        lazy_classes = [id(lazy.intern(instance)) for instance in instances]
        eager_classes = [id(eager.intern(instance))
                         for instance in instances]

        def partition(markers):
            groups = {}
            for index, marker in enumerate(markers):
                groups.setdefault(marker, set()).add(index)
            return frozenset(frozenset(group) for group in groups.values())

        assert partition(lazy_classes) == partition(eager_classes)
        assert len(lazy) == len(eager)

    def test_representative_is_canonical(self):
        interner = StateInterner(fixed={"a"}, mode="canonical-first")
        first = interner.representative(Instance([fact("R", "u")]))
        second = interner.representative(Instance([fact("R", "v")]))
        assert first == second == Instance([fact("R", Fresh(0))])

    def test_absent_fixed_fresh_never_minted(self):
        """Canonical names must avoid fixed Fresh values even when absent:
        renaming a movable value onto Fresh(0) would merge instances no
        bijection fixing {Fresh(0)} relates."""
        fixed = frozenset({Fresh(0)})
        movable = canonical_key(Instance([fact("R", "u")]), fixed)
        pinned = canonical_key(Instance([fact("R", Fresh(0))]), fixed)
        assert movable != pinned

    def test_canonicalizer_requires_canonical_first(self):
        with pytest.raises(ReproError, match="canonical-first"):
            StateInterner(fixed={"a"}, canonicalizer=lambda instance: None)

    def test_kernel_canonicalizer_matches_object_level_quotient(self):
        """The kernel-coded instance labeler drives the post-hoc quotient
        to the same partition as the object-level canonical_form."""
        from repro.relational.kernel import kernel_instance_canonicalizer
        dcds = random_dcds(0, shape="gr-acyclic",
                           semantics=ServiceSemantics.NONDETERMINISTIC)
        ts = explore_concrete(dcds, pool=list(POOL) + ["c0"], depth=2,
                              max_states=2000)
        fixed = frozenset(dcds.known_constants())
        object_q, object_map = isomorphism_quotient(ts, fixed)
        kernel_q, kernel_map = isomorphism_quotient(
            ts, fixed, canonicalizer=kernel_instance_canonicalizer(dcds))
        assert len(object_q) == len(kernel_q)

        def partition(mapping):
            groups = {}
            for state, key in mapping.items():
                groups.setdefault(key, set()).add(state)
            return frozenset(frozenset(group) for group in groups.values())

        assert partition(object_map) == partition(kernel_map)


class TestWorkersOneInline:
    def test_zero_ipc_and_identical_build(self):
        """Satellite: workers=1 short-circuits the dispatch machinery."""
        dcds = random_dcds(0)
        sequential = Explorer(
            dcds.schema, max_states=MAX_STATES, max_depth=3,
            on_budget="truncate").run(
            DetAbstractionGenerator(dcds)).transition_system
        result = ParallelExplorer(
            dcds.schema, workers=1, max_states=MAX_STATES, max_depth=3,
            on_budget="truncate").run(DetAbstractionGenerator(random_dcds(0)))
        assert_bit_identical(sequential, result.transition_system)
        stats = result.stats.parallel
        assert stats["codec"] == "inline"
        assert stats["ipc_bytes_sent"] == 0
        assert stats["ipc_bytes_received"] == 0
        assert stats["states_shipped"] == 0
        assert stats["batches"] == 0
