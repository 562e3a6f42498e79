"""Witness and counterexample certificates for verification verdicts.

``pipeline.verify`` answers yes/no; this module turns the two decidable
answer *shapes* into checkable evidence:

* a :class:`Witness` certifies a positive ``EF``/``EF_live`` verdict — a
  minimal run from the initial state to a state satisfying the body, guard
  values live in every entered state;
* a :class:`Violation` certifies a negative ``AG``/``AG_live`` verdict —
  the dual µ-witness: a minimal run to a state violating the body (or,
  for the guarded encoding, to a state whose active domain dropped a
  guard value).

Certificates are plain data: a tuple of :class:`TraceStep` entries carrying
the state, the action label of the edge taken into it, the service-call
results that edge minted, the remaining rank (distance to discharge), and
the subformula the step discharges. Extraction
(:func:`extract_certificate`) walks the transition system's predecessor
index backwards from the terminal states — rank-annotated µ-approximants,
see :mod:`repro.mucalc.engine.witness` — optionally bounded by the
compiled checker's converged fixpoint cell. Crucially, a certificate can
be validated *without* the engine that produced it:
:mod:`repro.mucalc.certify` replays the run against the raw transition
system with an independent evaluator, which is what the differential
suites pin.

``REPRO_NO_WITNESS=1`` disables extraction in the pipeline (see
:mod:`repro.env`); this module itself has no global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Tuple

from repro.mucalc.ast import Live, MuFormula
from repro.mucalc.ctl import (
    GuardedShape, invariant_shape, reachability_shape)
from repro.mucalc.engine.onthefly import is_state_local
from repro.errors import ReproError
from repro.mucalc.engine.witness import (
    RawTrace, body_holds, call_bindings, guard_live, violation_trace,
    witness_trace)
from repro.relational.values import Var
from repro.semantics.transition_system import State, TransitionSystem


@dataclass(frozen=True)
class TraceStep:
    """One state of a certificate run.

    ``action`` is the label of the edge taken *into* the state (``None``
    for the initial step), ``call_bindings`` the service-call results that
    edge minted, ``rank`` the number of steps remaining until the run
    discharges, and ``discharges`` the subformula this step's presence
    discharges (a fixpoint unfolding for intermediate steps, the terminal
    condition for the last).
    """

    state: State
    action: Optional[str]
    rank: int
    discharges: str
    call_bindings: Tuple[Tuple[Any, Any], ...] = ()


@dataclass(frozen=True)
class Certificate:
    """Shared shape of :class:`Witness` and :class:`Violation`."""

    formula: MuFormula
    body: MuFormula
    guard: Tuple[Any, ...]
    steps: Tuple[TraceStep, ...]

    kind: ClassVar[str] = "certificate"

    @property
    def states(self) -> Tuple[State, ...]:
        return tuple(step.state for step in self.steps)

    @property
    def final(self) -> State:
        return self.steps[-1].state

    @property
    def length(self) -> int:
        """Number of edges (0 for a single-state certificate)."""
        return len(self.steps) - 1

    def trace(self, ts: TransitionSystem):
        """Diagnostics-style ``(state, db, label)`` triples (see
        :func:`repro.mucalc.diagnostics.render_trace`)."""
        return [(step.state, ts.db(step.state), step.action)
                for step in self.steps]


class Witness(Certificate):
    """Certifies a *positive* reachability (``EF``-shape) verdict."""

    kind: ClassVar[str] = "witness"


class Violation(Certificate):
    """Certifies a *negative* invariant (``AG``-shape) verdict."""

    kind: ClassVar[str] = "violation"


@dataclass(frozen=True)
class ExtractionOutcome:
    """Certificate plus the reason token surfaced in checking stats."""

    certificate: Optional[Certificate]
    reason: str


def _guard_repr(guard: Tuple[Any, ...]) -> str:
    return repr(Live(guard))


def _support(ts: TransitionSystem, engine, kind: str):
    """Support set from the engine's converged outermost fixpoint cell.

    A witness run lies inside the µ-extension; a violation run's
    non-terminal states lie outside the ν-extension (its terminal may not —
    the extractor exempts terminals). ``None`` when no engine/cell is
    available; extraction is then unrestricted, same result, more states
    ranked."""
    if engine is None:
        return None
    compiled = getattr(engine, "compiled", None)
    root = getattr(compiled, "root", None)
    if root is None or root.kind != "fix":
        return None
    extension = engine.fixpoint_extension(root.cell.index)
    if extension is None:
        return None
    return extension if kind == "witness" else ts.states - extension


def _annotate(ts: TransitionSystem, raw: RawTrace, body: MuFormula,
              guard: Tuple[Any, ...], kind: str
              ) -> Tuple[TraceStep, ...]:
    if kind == "witness":
        unfold = f"<->({_guard_repr(guard)} & Z)" if guard else "<->Z"
    else:
        unfold = f"~[-]({_guard_repr(guard)} & Z)" if guard else "~[-]Z"
    steps = []
    last = len(raw) - 1
    previous: Optional[State] = None
    for index, (label, state) in enumerate(raw):
        if index < last:
            discharges = unfold
        elif kind == "witness":
            discharges = repr(body)
        elif not body_holds(ts, state, body):
            discharges = f"~({body!r})"
        else:
            discharges = f"~{_guard_repr(guard)}"
        bindings = call_bindings(previous, state) if previous is not None \
            else ()
        steps.append(TraceStep(
            state=state, action=label, rank=last - index,
            discharges=discharges, call_bindings=bindings))
        previous = state
    return tuple(steps)


def extract(ts: TransitionSystem, formula: MuFormula, holds: bool,
            engine=None) -> ExtractionOutcome:
    """Try to certify a verdict; always explains the outcome.

    ``engine`` is an optional :class:`~repro.mucalc.engine.bitset.
    BitsetChecker` that already evaluated ``formula`` over ``ts`` (see
    :meth:`ModelChecker.engine_for`). It contributes two already-computed
    sets: the converged root fixpoint cell bounds the extraction support,
    and the body's own extension (:meth:`BitsetChecker.body_extension`,
    a memo read) replaces the state-by-state local scan — the same set,
    since for a state-local body both confine quantifiers to the active
    domain. Correctness never depends on the engine being present.
    """
    shape: Optional[GuardedShape] = reachability_shape(formula)
    kind = "witness"
    if shape is None:
        shape = invariant_shape(formula)
        kind = "violation"
    if shape is None:
        return ExtractionOutcome(None, "unrecognized-shape")
    if kind == "witness" and not holds:
        # A refuted EF has no finite run as evidence (the certificate
        # would be the whole state space); same for a confirmed AG below.
        return ExtractionOutcome(None, "reachability-fails")
    if kind == "violation" and holds:
        return ExtractionOutcome(None, "invariant-holds")
    body, guard = shape.body, shape.guard
    if body.free_pvars() or body.free_ivars():
        return ExtractionOutcome(None, "open-body")
    if not is_state_local(body):
        return ExtractionOutcome(None, "non-state-local-body")
    if any(isinstance(term, Var) for term in guard):
        return ExtractionOutcome(None, "non-ground-guard")
    support = _support(ts, engine, kind)
    extension = None
    if engine is not None:
        try:
            extension = engine.body_extension()
        except ReproError:
            extension = None
    if kind == "witness":
        targets = None if extension is None else frozenset(extension)
        raw = witness_trace(ts, body, guard, support, targets=targets)
    else:
        bad = None if extension is None \
            else frozenset(ts.states) - extension
        raw = violation_trace(ts, body, guard, support, bad=bad)
    if raw is None:
        return ExtractionOutcome(None, "no-certifying-run")
    steps = _annotate(ts, raw, body, guard, kind)
    cls = Witness if kind == "witness" else Violation
    return ExtractionOutcome(cls(formula, body, guard, steps), kind)


def extract_certificate(ts: TransitionSystem, formula: MuFormula,
                        holds: bool, engine=None) -> Optional[Certificate]:
    """Certificate for the verdict, or ``None`` (shape/polarity permitting
    no finite evidence — use :func:`extract` for the reason)."""
    return extract(ts, formula, holds, engine).certificate


def render_certificate(ts: TransitionSystem,
                       certificate: Certificate) -> str:
    """Human-readable rendering (one block per step, databases shown)."""
    noun = "steps" if certificate.length != 1 else "step"
    lines = [f"{certificate.kind} ({certificate.length} {noun}) "
             f"for {certificate.formula!r}"]
    for index, step in enumerate(certificate.steps):
        arrow = f"--[{step.action}]--> " if step.action else ""
        lines.append(f"  {index}: {arrow}{ts.db(step.state)!r}")
        lines.append(f"     discharges {step.discharges}")
        if step.call_bindings:
            minted = ", ".join(f"{call!r}={value!r}"
                               for call, value in step.call_bindings)
            lines.append(f"     minted {minted}")
    return "\n".join(lines)
