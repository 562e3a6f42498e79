"""The end-to-end verification pipeline — Table 1 made executable.

:func:`verify` routes a (DCDS, µ-formula) pair through the decidable cells
of Table 1:

===================== ========== ============ ==========================
Services              Fragment   Precondition Route
===================== ========== ============ ==========================
deterministic         µLA (µLP)  weakly       deterministic abstraction
                                 acyclic      (Thm 4.3/4.4) + checker
nondeterministic      µLP        GR(+)-       RCYCL (Thm 5.4) + checker
                                 acyclic
mixed (§6)            µLP        GR(+) after  det->nondet rewrite
                                 rewrite      (Thm 6.1) + RCYCL
===================== ========== ============ ==========================

Everything else raises :class:`UndecidableFragment` citing the theorem that
dooms it — unless ``force=True``, in which case the construction runs under
its fuse anyway (it may succeed: the syntactic conditions are sufficient,
not necessary).

Checking itself runs on the compiled layer of :mod:`repro.mucalc.engine`;
``on_the_fly=True`` additionally fuses exploration and checking for
safety/reachability-shaped formulas (``AG phi`` / ``EF phi`` with a
state-local body): the state space is only built until a witness or
violation decides the verdict. Either way the report's ``checking_stats``
records how the verdict was reached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import env
from repro.analysis.dataflow_graph import dataflow_graph
from repro.analysis.dependency_graph import dependency_graph
from repro.core.dcds import DCDS, ServiceSemantics
from repro.engine.symmetry import resolve_symmetry
from repro.errors import UndecidableFragment, VerificationError
from repro.mucalc.ast import MuFormula
from repro.mucalc.checker import ModelChecker
from repro.mucalc.engine.onthefly import OnTheFlyVerifier, recognize_shape
from repro.mucalc.syntax import Fragment, classify, formula_constants
from repro.mucalc.witness import Certificate, Violation, Witness, extract
from repro.reductions.det_to_nondet import det_to_nondet
from repro.semantics.abstract_det import build_det_abstraction
from repro.semantics.rcycl import rcycl
from repro.semantics.transition_system import TransitionSystem
from repro.utils import sorted_values


@dataclass
class VerificationReport:
    """Everything :func:`verify` learned on the way to a verdict.

    ``abstraction_stats`` merges the structural stats of the constructed
    transition system (states, edges, totality, ...) with the engine's
    exploration counters (states/sec, frontier peak, expansion counts),
    the integer-coded kernel's counters under ``"kernel"`` (plan
    evaluations, interned facts/instances, reference fallbacks), and — for
    sharded builds — the worker-pool counters under ``"parallel"``,
    including the wire codec's IPC traffic (``ipc_bytes_sent`` /
    ``ipc_bytes_received`` / ``states_shipped``) and the coordinator's
    deserialize/apply times (``coordinator_decode_sec`` /
    ``coordinator_apply_sec``).
    ``checking_stats`` records the checking side: compiled-evaluator
    counters (fixpoint iterations, resets, peak extension size, memo hits)
    or, on the on-the-fly route, the early-stop reason and how many states
    were checked before the verdict was decided; its ``"witness"`` entry
    records whether and why (not) a certificate was extracted.
    """

    dcds_name: str
    formula: MuFormula
    fragment: Fragment
    route: str
    static_condition: str
    abstraction_stats: Dict[str, Any]
    holds: bool
    transition_system: Optional[TransitionSystem] = None
    checking_stats: Dict[str, Any] = field(default_factory=dict)
    #: Resolved exploration symmetry mode: ``"exact"`` or ``"quotient"``
    #: (quotient mode verifies against the symmetry-reduced state space,
    #: persistence-preserving bisimilar to the exact one by Lemma C.2).
    symmetry: str = "exact"
    #: Minimal certifying run for a *positive* EF-shaped verdict, replayable
    #: through :mod:`repro.mucalc.certify`; ``None`` when the formula shape
    #: or polarity admits no finite certificate (see
    #: ``checking_stats["witness"]["outcome"]``) or ``REPRO_NO_WITNESS=1``.
    witness: Optional[Certificate] = None
    #: Minimal violating run for a *negative* AG-shaped verdict (dual).
    violation: Optional[Certificate] = None

    def __repr__(self) -> str:
        verdict = "HOLDS" if self.holds else "FAILS"
        return (f"VerificationReport({self.dcds_name}: {verdict}, "
                f"fragment={self.fragment.value}, route={self.route}, "
                f"static={self.static_condition}, "
                f"|Theta|={self.abstraction_stats.get('states')})")


def _merged_stats(ts: TransitionSystem) -> Dict[str, Any]:
    """Structural stats plus the engine's construction-time counters."""
    return {**ts.stats(), **ts.exploration_stats}


def verify(dcds: DCDS, formula: MuFormula, max_states: int = 20000,
           force: bool = False, keep_ts: bool = True,
           on_the_fly: bool = False,
           workers: Optional[int] = None,
           symmetry: Optional[str] = None,
           checkpoint=None,
           memory_budget: Optional[int] = None) -> VerificationReport:
    """Verify ``dcds |= formula`` through the decidable routes of Table 1.

    With ``on_the_fly=True``, safety/reachability-shaped formulas fuse the
    state-space construction with the checker and stop on the first
    witness or refutation; other formulas fall back to the offline
    compiled checker.

    ``workers=N`` shards the deterministic-abstraction construction across
    an ``N``-process pool (:class:`repro.engine.ParallelExplorer`); the
    built state space — and therefore the verdict — is bit-identical to the
    sequential build. The RCYCL route stays sequential regardless (its
    used-value candidate pool is discovery-order dependent), so ``workers``
    is ignored there; the pool counters of a sharded build appear under
    ``abstraction_stats["parallel"]``.

    ``symmetry="quotient"`` verifies against the symmetry-reduced state
    space: the deterministic abstraction is explored quotient-by-
    construction (:class:`repro.engine.SymmetryReducer`), merging states
    isomorphic up to renaming of non-initial values (Lemma C.2) before
    they are expanded. The quotient is persistence-preserving bisimilar
    to the exact system, so quotient mode is gated to µLP formulas whose
    constants are all known to the specification — anything else raises
    :class:`~repro.errors.VerificationError`. The RCYCL route ignores the
    request (plain-instance states admit no sound quotient; recycling is
    the nondeterministic symmetry mechanism — see
    :mod:`repro.engine.symmetry`). Default ``"exact"``; environment
    default ``REPRO_SYMMETRY``.

    ``checkpoint=<path>`` makes the deterministic-abstraction
    construction crash-safe: progress is periodically persisted
    (:mod:`repro.engine.checkpoint`) and a rerun with the same
    ``checkpoint=`` resumes from the last durable chunk instead of
    starting over — the resumed state space, and therefore the verdict,
    is bit-identical to an undisturbed build. Like ``workers`` and
    ``symmetry``, the RCYCL route ignores the request (its exploration is
    discovery-order dependent).

    ``memory_budget=<bytes>`` runs the deterministic-abstraction
    construction out-of-core (:mod:`repro.engine.store`): coded states
    spill to disk pages, only a budgeted hot set stays live, and the
    verdict is bit-identical to the unbudgeted run. The store's counters
    appear under ``abstraction_stats["store"]``. ``None`` falls back to
    ``REPRO_MEMORY_BUDGET``, and no budget at all keeps it in RAM. The
    RCYCL route ignores it, like ``workers``."""
    fragment = classify(formula)
    symmetry = resolve_symmetry(symmetry)

    if dcds.has_mixed_semantics():
        return _verify_mixed(dcds, formula, fragment, max_states, force,
                             keep_ts, on_the_fly, symmetry)
    if dcds.semantics is ServiceSemantics.DETERMINISTIC:
        return _verify_det(dcds, formula, fragment, max_states, force,
                           keep_ts, on_the_fly, workers, symmetry,
                           checkpoint, memory_budget)
    return _verify_nondet(dcds, formula, fragment, max_states, force,
                          keep_ts, on_the_fly, symmetry)


def _check_quotient_adequacy(dcds: DCDS, formula: MuFormula,
                             fragment: Fragment) -> None:
    """The Lemma C.2 adequacy gate for quotient-mode verification.

    The isomorphism quotient is *persistence-preserving* bisimilar to the
    exact system — it preserves µLP (Theorem 3.2) and nothing more — and
    its canonical renamings fix only the specification's known constants,
    so a formula naming any other value would be evaluated against renamed
    states.
    """
    if fragment is not Fragment.MU_LP:
        raise VerificationError(
            f"symmetry='quotient' verifies only µLP properties: the "
            f"isomorphism quotient is persistence-preserving bisimilar to "
            f"the exact system (Lemma C.2 / Theorem 3.2), which does not "
            f"preserve {fragment.value}; use symmetry='exact' or restrict "
            f"the property to µLP")
    foreign = formula_constants(formula) - dcds.known_constants()
    if foreign:
        raise VerificationError(
            f"symmetry='quotient' requires every formula constant to be "
            f"fixed by the quotient (ADOM(I0) and process constants); "
            f"foreign constants: {sorted_values(foreign)!r}")


def _certify(ts: TransitionSystem, formula: MuFormula, holds: bool,
             checking: Dict[str, Any],
             checker: Optional[ModelChecker] = None
             ) -> Optional[Certificate]:
    """Witness-layer hook: certify the verdict when the shape admits it.

    Extraction is a pure function of the (possibly partial) transition
    system — the on-the-fly route's early-stopped state space always
    contains the certifying run, since the explorer records the edge into
    a state before the observer can stop on it. The offline checker's
    converged root fixpoint cell, when available, bounds the search.
    Records an entry under ``checking["witness"]`` either way.
    """
    if env.witness_disabled():
        checking["witness"] = {"enabled": False}
        return None
    started = time.perf_counter()
    engine = checker.engine_for(formula) if checker is not None else None
    outcome = extract(ts, formula, holds, engine)
    certificate = outcome.certificate
    checking["witness"] = {
        "enabled": True,
        "outcome": outcome.reason,
        "steps": len(certificate.steps) if certificate is not None else 0,
        "extraction_sec": time.perf_counter() - started,
    }
    return certificate


def _check(dcds: DCDS, formula: MuFormula, build, on_the_fly: bool):
    """Run one route's construction + checking, possibly fused.

    ``build`` maps an optional Explorer observer to the constructed
    transition system. Returns ``(ts, holds, checking_stats,
    certificate)``."""
    shape = recognize_shape(formula) if on_the_fly else None
    if shape is not None:
        verifier = OnTheFlyVerifier(shape)
        ts = build(verifier.observe)
        holds = verifier.verdict()
        checking = verifier.stats_dict()
        return ts, holds, checking, _certify(ts, formula, holds, checking)
    ts = build(None)
    checker = ModelChecker(ts, extra_domain=dcds.known_constants())
    holds = checker.models(formula)
    checking = dict(checker.last_checking_stats)
    return ts, holds, checking, _certify(ts, formula, holds, checking,
                                         checker)


def _verify_det(dcds: DCDS, formula: MuFormula, fragment: Fragment,
                max_states: int, force: bool, keep_ts: bool,
                on_the_fly: bool = False,
                workers: Optional[int] = None,
                symmetry: str = "exact",
                checkpoint=None,
                memory_budget: Optional[int] = None) -> VerificationReport:
    if symmetry == "quotient":
        _check_quotient_adequacy(dcds, formula, fragment)
    if fragment is Fragment.MU_L and not force:
        raise UndecidableFragment(
            "full µL admits no faithful finite abstraction even for "
            "run-bounded DCDSs with deterministic services",
            theorem="Theorem 4.5")
    graph = dependency_graph(dcds)
    weakly_acyclic = graph.is_weakly_acyclic()
    if not weakly_acyclic and not force:
        raise UndecidableFragment(
            f"DCDS is not weakly acyclic (witness special edge "
            f"{graph.violating_special_edge()}); run-boundedness cannot be "
            f"certified and is undecidable to check",
            theorem="Theorem 4.6 / 4.8")
    ts, holds, checking, certificate = _check(
        dcds, formula,
        lambda observer: build_det_abstraction(
            dcds, max_states=max_states, observer=observer,
            workers=workers, symmetry=symmetry, checkpoint=checkpoint,
            memory_budget=memory_budget),
        on_the_fly)
    return VerificationReport(
        dcds.name, formula, fragment, "det-abstraction",
        "weakly-acyclic" if weakly_acyclic else "forced",
        _merged_stats(ts), holds, ts if keep_ts else None, checking,
        symmetry=symmetry,
        witness=certificate if isinstance(certificate, Witness) else None,
        violation=certificate if isinstance(certificate, Violation)
        else None)


def _verify_nondet(dcds: DCDS, formula: MuFormula, fragment: Fragment,
                   max_states: int, force: bool, keep_ts: bool,
                   on_the_fly: bool = False,
                   symmetry: str = "exact") -> VerificationReport:
    if fragment is not Fragment.MU_LP and not force:
        theorem = "Theorem 5.2" if fragment is Fragment.MU_LA \
            else "Theorem 5.1"
        raise UndecidableFragment(
            f"verification of {fragment.value} over nondeterministic "
            f"services is undecidable even for state-bounded DCDSs; "
            f"restrict the property to µLP",
            theorem=theorem)
    graph = dataflow_graph(dcds)
    if graph.is_gr_acyclic():
        condition = "gr-acyclic"
    elif graph.is_gr_plus_acyclic():
        condition = "gr-plus-acyclic"
    elif force:
        condition = "forced"
    else:
        raise UndecidableFragment(
            f"DCDS is not GR(+)-acyclic (witness "
            f"{graph.gr_plus_violation()!r}); state-boundedness cannot be "
            f"certified and is undecidable to check",
            theorem="Theorem 5.5 / 5.7")
    # Quotient mode is a deterministic-route optimization: RCYCL's states
    # are plain instances, which admit no sound state quotient (merging
    # conflates value-persists with value-replaced transitions — see
    # repro.engine.symmetry), and RCYCL's value *recycling* already is the
    # paper's symmetry mechanism for nondeterministic services. The
    # request is therefore ignored here, like ``workers``.
    ts, holds, checking, certificate = _check(
        dcds, formula,
        lambda observer: rcycl(
            dcds, max_states=max_states, observer=observer),
        on_the_fly)
    return VerificationReport(
        dcds.name, formula, fragment, "rcycl", condition, _merged_stats(ts),
        holds, ts if keep_ts else None, checking, symmetry="exact",
        witness=certificate if isinstance(certificate, Witness) else None,
        violation=certificate if isinstance(certificate, Violation)
        else None)


def _verify_mixed(dcds: DCDS, formula: MuFormula, fragment: Fragment,
                  max_states: int, force: bool, keep_ts: bool,
                  on_the_fly: bool = False,
                  symmetry: str = "exact") -> VerificationReport:
    deterministic_functions = [
        function.name for function in dcds.process.functions
        if dcds.is_deterministic(function.name)]
    rewritten = det_to_nondet(dcds, only_functions=deterministic_functions)
    report = _verify_nondet(rewritten, formula, fragment, max_states, force,
                            keep_ts, on_the_fly, symmetry)
    report.route = f"mixed->({report.route})"
    report.dcds_name = dcds.name
    return report
