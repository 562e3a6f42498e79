"""Algorithm RCYCL: eventually-recycling pruning (Appendix C.3).

For a DCDS with nondeterministic services, the concrete transition system is
infinitely branching (every fresh service call can return any of infinitely
many values). RCYCL constructs a finite pruning that is persistence-
preserving bisimilar to the concrete system whenever the DCDS is
state-bounded (Theorem 5.4):

* states are plain instances (no call map — services are nondeterministic);
* for each unvisited ``(I, alpha, sigma)``, pick a set ``V`` of candidate
  call results — *recycled* values (used before but outside
  ``ADOM(I0) ∪ ADOM(I)``) when enough exist, globally fresh values otherwise;
* add one successor per evaluation of the calls over
  ``F = ADOM(I0) ∪ ADOM(I) ∪ V`` that satisfies the equality constraints.

The preference for recycling is what bounds the total number of values: once
enough values circulate, no new ones are ever minted, and saturation follows
for state-bounded systems. On state-unbounded inputs (Example 5.2) the loop
diverges; a fuse raises :class:`AbstractionDiverged` with the growth trace.

The frontier loop lives in :class:`repro.engine.Explorer`; this module only
configures it with the :class:`repro.engine.RcyclGenerator` successor
semantics (``on_budget="truncate"``: a tripped fuse marks the unexpanded
frontier instead of raising, so partial prunings stay inspectable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import AbstractionDiverged, ReproError
from repro.core.dcds import DCDS, ServiceSemantics
from repro.engine.explorer import Explorer
from repro.engine.generators import RcyclGenerator
from repro.relational.kernel import attach_kernel_stats
from repro.semantics.transition_system import TransitionSystem


@dataclass
class RcyclResult:
    """Outcome of a (possibly fused) RCYCL run."""

    transition_system: TransitionSystem
    diverged: bool
    iterations: int
    minted_values: int


def _rcycl_core(dcds: DCDS, max_states: int,
                max_iterations: int, observer=None) -> RcyclResult:
    generator = RcyclGenerator(dcds, max_iterations=max_iterations)
    explorer = Explorer(
        dcds.schema, name=f"rcycl[{dcds.name}]",
        max_states=max_states, on_budget="truncate", observer=observer)
    result = explorer.run(generator)
    attach_kernel_stats(dcds, result.transition_system)
    return RcyclResult(result.transition_system, result.diverged,
                       generator.iterations, generator.minted_total)


def rcycl(dcds: DCDS, max_states: int = 20000,
          max_iterations: int = 2000000, observer=None) -> TransitionSystem:
    """Run Algorithm RCYCL and return the finite pruning it constructs.

    Raises :class:`AbstractionDiverged` when the fuse trips — the observable
    symptom of a state-unbounded DCDS (state-boundedness is undecidable,
    Theorem 5.5). Use :func:`rcycl_partial` to inspect the partial result.
    ``observer`` is the per-state early-stop hook of
    :class:`repro.engine.Explorer` (the on-the-fly verification route).
    """
    if dcds.semantics is not ServiceSemantics.NONDETERMINISTIC:
        raise ReproError(
            "rcycl requires nondeterministic semantics; use "
            "build_det_abstraction for deterministic services")
    result = _rcycl_core(dcds, max_states, max_iterations, observer)
    if result.diverged:
        sizes = _discovery_sizes(result.transition_system)
        raise AbstractionDiverged(
            f"RCYCL exceeded its fuse ({max_states} states / "
            f"{max_iterations} iterations) — the DCDS is likely not "
            f"state-bounded (cf. Theorem 5.5)",
            growth_trace=tuple(sizes),
            partial_states=len(result.transition_system))
    return result.transition_system


def rcycl_partial(dcds: DCDS, max_states: int = 2000,
                  max_iterations: int = 200000) -> RcyclResult:
    """RCYCL that never raises: returns the (possibly partial) pruning.

    Used by the boundedness probes and the divergence benchmarks (Figure 6).
    """
    if dcds.semantics is not ServiceSemantics.NONDETERMINISTIC:
        raise ReproError("rcycl_partial requires nondeterministic semantics")
    return _rcycl_core(dcds, max_states, max_iterations)


def _discovery_sizes(ts: TransitionSystem) -> List[int]:
    """Max active-domain size per BFS level (state-growth evidence)."""
    return [max(len(ts.db(state).active_domain()) for state in level)
            for level in ts.depth_levels()]


def state_size_trace(dcds: DCDS, max_states: int = 500,
                     max_iterations: int = 100000) -> List[int]:
    """Max state size per BFS level, tolerant of divergence (Figure 6)."""
    result = rcycl_partial(dcds, max_states, max_iterations)
    return _discovery_sizes(result.transition_system)
