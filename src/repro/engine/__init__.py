"""Unified state-space exploration engine (the shared core of Table 1).

All four state-space builders — the deterministic abstraction
(:func:`repro.semantics.build_det_abstraction`), Algorithm RCYCL
(:func:`repro.semantics.rcycl`), the finite-pool concrete exploration
(:func:`repro.semantics.explore_concrete`), and oracle-driven runs
(:func:`repro.semantics.simulate`) — delegate their frontier loop to
:class:`Explorer`, parameterized by a :class:`SuccessorGenerator`.
"""

from repro.engine.explorer import (
    ExplorationBudgetExceeded, ExplorationResult, ExplorationStats, Explorer,
    SuccessorGenerator)
from repro.engine.parallel import (
    ParallelExplorer, default_workers, make_explorer)
from repro.engine.checkpoint import (
    Checkpoint, CheckpointInterrupted, CheckpointWriter, load_checkpoint)
from repro.engine.faults import FaultEvent, FaultPlan
from repro.engine.wire import WireCodec, WireSession, make_codec
from repro.engine.fingerprint import (
    fingerprints_may_be_isomorphic, instance_fingerprint, value_profiles)
from repro.engine.generators import (
    DetAbstractionGenerator, DetState, OracleRunGenerator, PoolDetGenerator,
    PoolNondetGenerator, RcyclGenerator, sigma_label, sorted_call_map)
from repro.engine.interning import InternEntry, InternStats, StateInterner
from repro.engine.store import (
    BudgetedDict, MemoryBudget, PagedStore, StateCodec,
    StoredTransitionSystem, resolve_memory_budget)
from repro.engine.symmetry import (
    SYMMETRY_MODES, SymmetryReducer, resolve_symmetry)

__all__ = [
    "BudgetedDict", "Checkpoint", "CheckpointInterrupted",
    "CheckpointWriter", "DetAbstractionGenerator", "DetState",
    "ExplorationBudgetExceeded", "ExplorationResult", "ExplorationStats",
    "Explorer", "FaultEvent", "FaultPlan", "InternEntry", "InternStats",
    "MemoryBudget", "OracleRunGenerator", "PagedStore", "ParallelExplorer",
    "PoolDetGenerator", "PoolNondetGenerator", "RcyclGenerator",
    "SYMMETRY_MODES", "StateCodec", "StateInterner",
    "StoredTransitionSystem", "SymmetryReducer", "WireCodec",
    "WireSession", "default_workers", "fingerprints_may_be_isomorphic",
    "instance_fingerprint", "load_checkpoint", "make_codec",
    "make_explorer", "resolve_memory_budget", "resolve_symmetry",
    "sigma_label", "sorted_call_map", "value_profiles",
]
