"""Process-environment kill switches, consolidated.

Every accelerator tier of the engine has an environment kill switch so CI
(and a user chasing a miscompare) can force the slower-but-authoritative
path without touching code. The parsing used to be scattered across the
consuming modules; it lives here now, one helper per switch, with the
semantics the switches always had:

============================ ==============================================
``REPRO_NO_KERNEL=1``        disable the integer-coded relational kernel
                             (read when a kernel first attaches to a DCDS);
                             kernel-less runs are never sharded — the
                             wire codec needs the kernel, so ``workers=``
                             runs in-process
``REPRO_NO_VECTOR=1``        disable the columnar numpy join backend
                             (the joins only; the µ-calculus engine has
                             no switch)
``REPRO_NO_NUMPY=1``         pretend numpy is not installed (test hook)
``REPRO_NO_BATCH=1``         disable the frontier-batch tier (per-frontier
                             grounding falls back to per-state calls)
``REPRO_SYMMETRY=<mode>``    process default for the exploration symmetry
                             mode (``exact``/``quotient``)
``REPRO_NO_SYMMETRY=1``      force ``symmetry="exact"`` everywhere
``REPRO_NO_WITNESS=1``       skip witness/counterexample certificate
                             extraction in ``pipeline.verify``
``REPRO_NO_SPILL=1``         disable the paged state store: any
                             ``memory_budget=`` is ignored and the
                             exploration keeps everything in RAM
``REPRO_MEMORY_BUDGET=<n>``  process default for ``memory_budget=``
                             (bytes; ``k``/``m``/``g`` suffixes allowed)
``REPRO_FAULTS=<spec>``      seeded fault-injection plan for the parallel
                             engine (``kind:worker@nth[:arg]`` events,
                             comma-separated; parsed by
                             ``repro.engine.faults.FaultPlan``)
============================ ==============================================

A switch is *on* when its variable is set to any non-empty string (``"0"``
included — the value is never interpreted); unset or empty means off.

Read-per-call semantics: these helpers go back to ``os.environ`` on every
invocation — nothing is cached at import time — so tests can flip a switch
between two builds without reloading modules. The one deliberate exception
is documented where it happens: ``REPRO_NO_KERNEL`` binds when a kernel
first attaches to a DCDS (see :func:`repro.relational.kernel.kernel_for`),
not on every hot call.
"""

from __future__ import annotations

import os


def _flag(name: str) -> bool:
    """True when the variable is set to a non-empty string."""
    return bool(os.environ.get(name))


def kernel_disabled() -> bool:
    """``REPRO_NO_KERNEL``: run the reference relational layer only."""
    return _flag("REPRO_NO_KERNEL")


def vector_disabled() -> bool:
    """``REPRO_NO_VECTOR``: keep the interpreted kernel joins in charge
    (joins only — it does not touch the µ-calculus engine)."""
    return _flag("REPRO_NO_VECTOR")


def numpy_hidden() -> bool:
    """``REPRO_NO_NUMPY``: simulate an environment without numpy."""
    return _flag("REPRO_NO_NUMPY")


def batch_disabled() -> bool:
    """``REPRO_NO_BATCH``: per-state grounding only (no frontier batching).

    Kill switch of the frontier-batch tier: the block-batched explorer
    driver reverts to the one-state-at-a-time loop and the kernel's
    batch-warm entry points become no-ops.
    """
    return _flag("REPRO_NO_BATCH")


def symmetry_default() -> str:
    """``REPRO_SYMMETRY``: the process-wide default symmetry mode.

    Returns ``"exact"`` when unset/empty; validation against the known
    modes stays with :func:`repro.engine.symmetry.resolve_symmetry`.
    """
    return os.environ.get("REPRO_SYMMETRY") or "exact"


def symmetry_disabled() -> bool:
    """``REPRO_NO_SYMMETRY``: force exact exploration everywhere."""
    return _flag("REPRO_NO_SYMMETRY")


def witness_disabled() -> bool:
    """``REPRO_NO_WITNESS``: verdicts only, no certificate extraction.

    Kill switch of the witness layer: :func:`repro.pipeline.verify` skips
    witness/violation extraction entirely (``report.witness`` /
    ``report.violation`` stay ``None``). Verdicts, routes, and every
    exploration/checking statistic are unaffected — the switch must be
    behaviorally invisible outside the certificate fields.
    """
    return _flag("REPRO_NO_WITNESS")


def spill_disabled() -> bool:
    """``REPRO_NO_SPILL``: keep every state and memo in RAM.

    Kill switch of the paged state store: with it set, a
    ``memory_budget=`` passed to ``verify``/``build_det_abstraction``/
    ``explore_concrete`` (or the ``REPRO_MEMORY_BUDGET`` default) is
    ignored and the exploration runs exactly as before the storage layer
    existed — same objects, same stats, no ``store`` entry in
    ``abstraction_stats``.
    """
    return _flag("REPRO_NO_SPILL")


#: Multipliers for ``REPRO_MEMORY_BUDGET`` suffixes.
_BUDGET_UNITS = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def memory_budget_default():
    """``REPRO_MEMORY_BUDGET``: process-wide default memory budget.

    Returns the budget in bytes (``int``) or ``None`` when unset/empty.
    The value is a decimal byte count with an optional case-insensitive
    ``k``/``m``/``g`` binary suffix (``"64m"`` = 64 MiB). Unlike the
    boolean switches, the value is interpreted — an unparsable one
    raises ``ValueError`` rather than silently running unbounded.
    """
    raw = os.environ.get("REPRO_MEMORY_BUDGET", "").strip()
    if not raw:
        return None
    unit = _BUDGET_UNITS.get(raw[-1].lower())
    if unit is not None:
        return int(raw[:-1]) * unit
    return int(raw)


def faults_spec() -> str:
    """``REPRO_FAULTS``: the raw fault-injection spec, ``""`` when unset.

    Unlike the boolean switches above, the *value* carries the plan —
    ``kind:worker@nth[:arg]`` events, comma-separated, e.g.
    ``"kill:1@2,corrupt:0@3,seed:7"``. Parsing and the event vocabulary
    live in :class:`repro.engine.faults.FaultPlan`; this helper only
    reads the variable (per call, never cached) so the chaos tests can
    flip plans between builds without reloading modules.
    """
    return os.environ.get("REPRO_FAULTS", "")
