"""Abstract finite-state transition system for deterministic services (§4).

States are pairs ``<I, M>`` of an instance and a service-call map, as in the
concrete transition system of Section 4.1 — but instead of branching over the
infinitely many possible results of fresh service calls, we branch over
*equality commitments* (is the result equal to some already-seen value, or to
another fresh call's result, or globally fresh?), with fresh results
represented by canonically minted :class:`Fresh` values.

For run-bounded DCDSs this construction terminates and yields exactly the
abstract transition system of Theorem 4.3, history-preserving bisimilar to
the concrete one (see Figures 2(b), 3(b) of the paper, reproduced in the
benchmarks). For run-unbounded DCDSs (Example 4.3) it diverges; a state fuse
turns divergence into :class:`AbstractionDiverged` carrying the growth trace.

The frontier loop lives in :class:`repro.engine.Explorer`; this module only
configures it with the :class:`repro.engine.DetAbstractionGenerator`
successor semantics.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional, Tuple

from repro.errors import AbstractionDiverged, ReproError
from repro.core.dcds import DCDS, ServiceSemantics
from repro.engine.explorer import Explorer
from repro.engine.generators import (
    CallMap, DetAbstractionGenerator, DetState, sorted_call_map)
from repro.engine.parallel import make_explorer
from repro.engine.symmetry import (
    attach_symmetry_stats, reduced, resolve_symmetry)
from repro.relational.kernel import attach_kernel_stats
from repro.semantics.transition_system import TransitionSystem

# Re-exported for backwards compatibility: DetState historically lived here.
__all__ = [
    "CallMap", "DetState", "build_det_abstraction", "det_growth_trace",
    "det_successors",
]

_sorted_call_map = sorted_call_map


def _diverged_error(explorer: Explorer) -> AbstractionDiverged:
    return AbstractionDiverged(
        f"abstraction exceeded {explorer.max_states} states — the "
        f"DCDS is likely not run-bounded (cf. Theorem 4.6: "
        f"run-boundedness is undecidable)",
        growth_trace=tuple(explorer.stats.growth),
        partial_states=len(explorer.ts))


def build_det_abstraction(
    dcds: DCDS,
    max_states: int = 20000,
    max_depth: Optional[int] = None,
    observer=None,
    workers: Optional[int] = None,
    batch_size: int = 16,
    symmetry: Optional[str] = None,
    checkpoint=None,
    memory_budget: Optional[int] = None,
) -> TransitionSystem:
    """Build the abstract transition system of Theorem 4.3 by BFS.

    ``max_states`` is the divergence fuse; ``max_depth`` optionally truncates
    the construction (useful for growth probes on run-unbounded inputs —
    truncated frontier states are marked on the result). ``observer`` is the
    per-state early-stop hook of :class:`repro.engine.Explorer` (the
    on-the-fly verification route).

    ``workers`` shards the frontier expansions across a
    :class:`repro.engine.ParallelExplorer` worker pool (``batch_size`` states
    per dispatch); the result is bit-identical to the sequential build for
    any worker count.

    ``checkpoint`` (a path or :class:`repro.engine.checkpoint.Checkpoint`)
    persists the build's progress crash-safely; an interrupted build
    rerun with the same ``checkpoint=`` resumes from the last durable
    chunk and still converges to the bit-identical transition system.

    ``symmetry="quotient"`` explores the isomorphism quotient instead of
    the exact system: every successor ``<I, M>`` is replaced by the
    canonical representative of its class (bijections fixing the known
    constants, Lemma C.2), so isomorphic states merge *before* expansion.
    The result is persistence-preserving bisimilar to the exact build —
    sound for µLP properties only. Default ``"exact"``; the environment
    default is ``REPRO_SYMMETRY`` (see :mod:`repro.engine.symmetry`).

    ``memory_budget`` (bytes) switches the build to the out-of-core
    storage layer (:mod:`repro.engine.store`): coded states spill to
    append-only pages, only a budgeted hot set stays live, and the
    result is bit-identical to the unbudgeted build. ``None`` falls back
    to ``REPRO_MEMORY_BUDGET``, and no budget at all keeps it in RAM.
    """
    if dcds.semantics is not ServiceSemantics.DETERMINISTIC:
        raise ReproError(
            "build_det_abstraction requires deterministic semantics; "
            "use rcycl() for nondeterministic services")
    explorer = make_explorer(
        dcds.schema, workers=workers, batch_size=batch_size,
        name=f"abstract[{dcds.name}]", max_states=max_states,
        max_depth=max_depth, on_budget="raise",
        budget_error=_diverged_error, observer=observer,
        checkpoint=checkpoint, memory_budget=memory_budget)
    generator = reduced(DetAbstractionGenerator(dcds),
                        resolve_symmetry(symmetry))
    result = explorer.run(generator)
    attach_kernel_stats(dcds, result.transition_system)
    attach_symmetry_stats(generator, result.transition_system)
    return result.transition_system


def det_successors(
    dcds: DCDS, state: DetState, known_constants: FrozenSet[Any]
) -> List[Tuple[DetState, str]]:
    """All abstract successors of ``<I, M>`` (EXECS, Section 4.1).

    Thin wrapper over :class:`repro.engine.DetAbstractionGenerator`, kept for
    callers that inspect one state's successors without running the engine.
    ``known_constants`` must equal ``dcds.known_constants()`` (the historical
    signature is preserved).
    """
    generator = DetAbstractionGenerator(dcds)
    generator.known_constants = frozenset(known_constants)
    return [(successor, label)
            for successor, _, label in generator.successors(state)]


def det_growth_trace(dcds: DCDS, max_depth: int,
                     max_states: int = 200000) -> List[int]:
    """New-states-per-BFS-level trace, for divergence probes (Figure 4).

    Unlike :func:`build_det_abstraction` this never raises on growth; it
    explores to ``max_depth`` and reports the level sizes.
    """
    ts = build_det_abstraction(dcds, max_states=max_states,
                               max_depth=max_depth)
    return [len(level) for level in ts.depth_levels()]
