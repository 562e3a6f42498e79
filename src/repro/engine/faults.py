"""Seeded fault injection for the parallel exploration engine.

The chaos tests (``tests/test_faults.py``) and ``benchmarks/
bench_faults.py`` need to make workers fail *deterministically*: the same
spec must kill the same worker at the same dispatch on every run, so a
recovered build can be compared bit-for-bit against the undisturbed
sequential one. This module is that mechanism — a :class:`FaultPlan`
parsed from the ``REPRO_FAULTS`` environment spec (or built directly in
tests) whose events fire inside the worker processes at exact per-worker
dispatch counts.

Spec grammar (``repro/env.py`` reads the variable, this module parses it)::

    REPRO_FAULTS = event ("," event)*
    event        = kind ":" worker "@" nth [":" arg]  |  "seed" ":" int
    kind         = "kill" | "hang" | "oom" | "delay" | "drop" | "corrupt"
    worker       = int | "*"          (worker slot; "*" = every worker)
    nth          = int                (1-based dispatch count on that worker)

Examples::

    REPRO_FAULTS="kill:1@2"            # worker 1 exits at its 2nd dispatch
    REPRO_FAULTS="corrupt:0@3,seed:7"  # worker 0's 3rd reply is corrupted
    REPRO_FAULTS="delay:*@1:0.05"      # every worker delays its 1st reply

Event kinds — all fire at most once per matching worker:

``kill``
    The worker process exits immediately (``os._exit``) before expanding
    the dispatch: the supervisor sees a dead link (EOF/exitcode).
``hang``
    The worker sleeps past any reasonable dispatch timeout: the
    supervisor's hung-link detection must fire.
``oom``
    The worker raises :class:`MemoryError` (relayed to the coordinator):
    the memory-budget-pressure path — the supervisor recycles the link
    (freeing the worker's memory) and retries the batch after backoff.
``delay``
    The worker sleeps ``arg`` seconds (default 0.01) before replying —
    a slow link that must *not* trip recovery when under the timeout.
``drop``
    The worker expands the dispatch but never sends the reply (then
    parks like ``hang``): a lost wire message, surfaced as a hung link.
``corrupt``
    The worker flips bytes of its encoded reply at seeded positions: the
    CRC32 frame checksum (:mod:`repro.engine.wire`) must reject it and
    the supervisor must recycle the link (its session is desynced).

Determinism: the coordinator's dispatch loop routes batches with
load-first/affinity-second routing whose inputs (in-flight counts) are
mutated only by the coordinator's own deterministic pop/apply order, so
"worker ``w``'s ``n``-th dispatch" names the same batch on every run;
``corrupt`` draws its byte positions from ``random.Random(seed ^ length)``
so the flipped bytes are a pure function of the plan seed and the payload.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import env
from repro.errors import ReproError

#: Event kinds that fire *before* the worker expands the dispatch.
PRE_KINDS = ("kill", "hang", "oom", "delay")
#: Event kinds that fire on the worker's encoded reply.
POST_KINDS = ("drop", "corrupt")
FAULT_KINDS = PRE_KINDS + POST_KINDS

#: How long ``hang``/``drop`` park the worker. Effectively forever next to
#: any dispatch timeout; the supervisor's ``terminate()`` is what ends it.
HANG_SECONDS = 3600.0

#: Default ``delay`` argument (seconds).
DEFAULT_DELAY = 0.01


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: ``kind`` at ``worker``'s ``nth`` dispatch."""

    kind: str
    worker: Optional[int]  # None = every worker (the "*" target)
    nth: int               # 1-based per-worker dispatch count
    arg: float = 0.0

    def spec(self) -> str:
        target = "*" if self.worker is None else str(self.worker)
        rendered = f"{self.kind}:{target}@{self.nth}"
        return f"{rendered}:{self.arg:g}" if self.arg else rendered


def _parse_event(token: str) -> Tuple[str, Optional[int], int, float]:
    head, _, tail = token.partition(":")
    kind = head.strip()
    if kind not in FAULT_KINDS:
        raise ReproError(
            f"unknown fault kind {kind!r} in REPRO_FAULTS event {token!r}; "
            f"expected one of {FAULT_KINDS} or 'seed'")
    target_part, _, arg_part = tail.partition(":")
    target, at, nth_part = target_part.partition("@")
    target = target.strip()
    if not at:
        raise ReproError(
            f"fault event {token!r} is missing '@nth' (the 1-based "
            f"per-worker dispatch count)")
    try:
        worker = None if target == "*" else int(target)
        nth = int(nth_part)
        arg = float(arg_part) if arg_part else 0.0
    except ValueError as error:
        raise ReproError(
            f"malformed fault event {token!r}: {error}") from error
    if worker is not None and worker < 0:
        raise ReproError(f"fault event {token!r}: worker must be >= 0")
    if nth < 1:
        raise ReproError(f"fault event {token!r}: nth is 1-based (>= 1)")
    return kind, worker, nth, arg


class FaultPlan:
    """A parsed set of fault events plus the corruption seed."""

    def __init__(self, events: List[FaultEvent] = (), seed: int = 0):
        self.events = list(events)
        self.seed = seed

    def __bool__(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec()!r})"

    def spec(self) -> str:
        """The plan back as a ``REPRO_FAULTS`` spec string."""
        parts = [event.spec() for event in self.events]
        if self.seed:
            parts.append(f"seed:{self.seed}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        events: List[FaultEvent] = []
        seed = 0
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed:"):
                try:
                    seed = int(token[len("seed:"):])
                except ValueError as error:
                    raise ReproError(
                        f"malformed fault seed {token!r}") from error
                continue
            kind, worker, nth, arg = _parse_event(token)
            events.append(FaultEvent(kind, worker, nth, arg))
        return cls(events, seed)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The process plan from ``REPRO_FAULTS``, or ``None`` when unset.

        Read per call (never cached at import), like every switch in
        :mod:`repro.env`.
        """
        spec = env.faults_spec()
        if not spec:
            return None
        plan = cls.parse(spec)
        return plan if plan else None

    def for_worker(self, worker: int) -> Optional["WorkerFaults"]:
        """The picklable per-worker view injected into ``_worker_main``.

        ``None`` when no event targets this slot, so the fault-free worker
        loop carries zero bookkeeping.
        """
        matching = [event for event in self.events
                    if event.worker is None or event.worker == worker]
        if not matching:
            return None
        return WorkerFaults(matching, self.seed)


class WorkerFaults:
    """One worker's fault schedule; lives inside the worker process.

    The worker loop calls :meth:`before_dispatch` as it receives each
    payload and :meth:`mangle_reply` on each encoded reply; each event
    fires at most once per worker process. Respawned replacement workers
    never receive a schedule at all (``_PoolExpander._recover`` passes
    ``faults=None``) — otherwise ``kill:*@1`` would kill every
    replacement at its first dispatch and recovery could never converge.
    """

    def __init__(self, events: List[FaultEvent], seed: int = 0):
        self.events = list(events)
        self.seed = seed
        self.dispatches = 0
        self._fired: set = set()

    def __reduce__(self):
        return WorkerFaults, (self.events, self.seed)

    def _due(self, kinds: Tuple[str, ...]) -> Optional[FaultEvent]:
        for index, event in enumerate(self.events):
            if index in self._fired:
                continue
            if event.kind in kinds and event.nth == self.dispatches:
                self._fired.add(index)
                return event
        return None

    def before_dispatch(self) -> None:
        """Count the dispatch; fire any pre-expansion event due at it."""
        self.dispatches += 1
        event = self._due(PRE_KINDS)
        if event is None:
            return
        if event.kind == "kill":
            os._exit(17)  # noqa: SLF001 — simulate an abrupt worker death
        elif event.kind == "hang":
            time.sleep(event.arg or HANG_SECONDS)
        elif event.kind == "oom":
            raise MemoryError(
                f"injected memory-budget pressure at dispatch "
                f"{self.dispatches}")
        elif event.kind == "delay":
            time.sleep(event.arg or DEFAULT_DELAY)

    def mangle_reply(self, payload: bytes) -> Optional[bytes]:
        """Apply any reply event due; ``None`` means drop the reply."""
        event = self._due(POST_KINDS)
        if event is None:
            return payload
        if event.kind == "drop":
            time.sleep(HANG_SECONDS)  # never replies; supervisor times out
            return None
        return corrupt_payload(payload, self.seed)


def corrupt_payload(payload: bytes, seed: int = 0,
                    flips: int = 3) -> bytes:
    """Deterministically flip ``flips`` bytes of ``payload``.

    Positions and XOR masks come from ``random.Random(seed ^ len)``, so
    corruption is a pure function of the plan seed and the payload —
    replayable, and guaranteed to change the body (never only the frame
    header) so the CRC32 check must fire.
    """
    if not payload:
        return payload
    from repro.engine.wire import FRAME_OVERHEAD

    mutable = bytearray(payload)
    rng = random.Random(seed ^ len(payload))
    start = FRAME_OVERHEAD if len(payload) > FRAME_OVERHEAD else 0
    for _ in range(max(1, flips)):
        position = rng.randrange(start, len(payload))
        mutable[position] ^= rng.randrange(1, 256)
    return bytes(mutable)
