"""Compiled model-checking layer (the checking twin of ``repro.engine``).

The seed checker interpreted formulas directly: every ``evaluate`` call
re-derived the quantification domain, re-checked monotonicity, restarted
every fixpoint from scratch, and scanned all states for each modality.
This package compiles a formula once (:mod:`compiler`: positive normal
form, per-occurrence fixpoint cells with dependency metadata, alternation
depth, cost-ordered plans) and evaluates it on one engine
(:mod:`bitset`: state sets as int bitmasks, predecessor-mask modalities,
lazy LIVE-restricted quantifiers, version-keyed memoization, Emerson–Lei
warm-started fixpoints). Its leaves come from :mod:`leaves`: one pass over
the states builds a LIVE table and a coded answer table per query leaf, so
a leaf under a valuation is a dict lookup, not a per-state evaluation.
:mod:`onthefly` fuses the checker with :class:`repro.engine.Explorer` so
safety/reachability formulas stop the state-space construction on the
first witness or violation.

:class:`repro.mucalc.ModelChecker` fronts this package; the seed-style
recursive evaluator remains available (``compiled=False``) as the parity
oracle. :mod:`evaluator` keeps the set-level modal helpers of the
propositional checker. :mod:`witness` walks converged fixpoints backwards
into minimal certifying runs (fronted by :mod:`repro.mucalc.witness`).
"""

from repro.mucalc.engine.bitset import BitsetChecker, CheckStats
from repro.mucalc.engine.compiler import (
    CompiledFormula, FixpointCell, Plan, compile_formula, to_pnf)
from repro.mucalc.engine.evaluator import (
    box_states, deadlock_states, diamond_states)
from repro.mucalc.engine.onthefly import (
    OnTheFlyVerifier, PropertyShape, evaluate_local, is_state_local,
    recognize_shape)
from repro.mucalc.engine.witness import (
    reach_ranks, violation_trace, witness_trace)

__all__ = [
    "BitsetChecker", "CheckStats", "CompiledFormula", "FixpointCell",
    "OnTheFlyVerifier", "Plan", "PropertyShape", "box_states",
    "compile_formula", "deadlock_states", "diamond_states",
    "evaluate_local", "is_state_local", "reach_ranks", "recognize_shape",
    "to_pnf", "violation_trace", "witness_trace",
]
