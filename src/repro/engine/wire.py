"""Compact wire codec for parallel exploration.

The first parallel explorer shipped pickled ``DetState``/``Instance`` object
graphs both ways: every batch re-pickled whole instances (relation-name
strings, value objects, service-call trees) and the coordinator re-hashed
every term of every unpickled graph — measured at ~2.4x work inflation
(``BENCH_2026-07-29.json`` ``parallel_probes`` of PR 3).

This codec ships *integer codes* instead, riding the per-process
:class:`~repro.relational.kernel.RelationalKernel`:

* **Snapshot alignment.** At pool creation the coordinator snapshots its
  term table. Under ``fork`` the workers inherit that table; under
  ``spawn`` they rebuild the kernel (deterministic constructor prefix) and
  replay the snapshot, asserting code-for-code alignment. Codes below the
  snapshot size are shared vocabulary and travel bare.
* **Definitions by need.** Terms interned after the snapshot are
  process-local; each message carries a definition list for exactly the
  local terms it mentions (a value pickled once per message, service calls
  as references to argument codes), and references them by definition
  index.
* **Delta results.** A worker answers with each successor as a delta
  against the dispatched parent: indexes of removed parent facts, added
  facts as int tuples, and the call-map entries spliced in (positions in
  the final repr-sorted tuple — no coordinator-side re-sorting). The
  coordinator rebuilds successors through its fact/instance interners, so
  an arriving state re-uses already-hashed objects; nothing is ever
  re-hashed term by term.

The decoded transition system is bit-identical to the sequential build —
the codec moves *identities*, never semantics. Generators without a DCDS
kernel have nothing to encode against, so :mod:`repro.engine.parallel`
never shards them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.engine.frames import (
    FRAME_OVERHEAD, dumps as _dumps, loads as _loads)
from repro.engine.generators import DetState
from repro.errors import ReproError
from repro.relational.kernel import RelationalKernel, kernel_for

#: ``(kind, state, coded_fact_list, call_map)`` for each dispatched state;
#: kind is "d" (DetState) or "i" (bare Instance).
ParentInfo = Tuple[str, Any, Tuple[Tuple[int, Tuple[int, ...]], ...], tuple]

_NO_LABEL = -1


def make_codec(generator) -> "WireCodec":
    """A codec for the generator's DCDS kernel, which must exist."""
    kernel = kernel_for(generator.dcds)
    if kernel is None:
        raise ReproError(
            "the wire codec needs a relational kernel (REPRO_NO_KERNEL "
            "is set)")
    return WireCodec(kernel, len(kernel.table))


class WireCodec:
    """Encode/decode exploration traffic against a kernel's term table."""

    def __init__(self, kernel: RelationalKernel, snapshot_size: int):
        self.kernel = kernel
        self.snapshot_size = snapshot_size

    def snapshot(self) -> list:
        """Table payloads for spawn-side replay (see ``TermTable``)."""
        return self.kernel.table.snapshot()[:self.snapshot_size]

    # -- reference encoding --------------------------------------------------

    def _ref(self, code: int, defs: List[Any],
             def_index: Dict[int, int]) -> int:
        """Bare snapshot code, or ``snapshot_size + index`` into ``defs``."""
        if code < self.snapshot_size:
            return code
        found = def_index.get(code)
        if found is None:
            table = self.kernel.table
            term = table.term(code)
            if table.is_call(code):
                arg_refs = tuple(
                    self._ref(table.code(arg), defs, def_index)
                    for arg in term.args)
                payload = ("c", term.function, arg_refs)
            else:
                payload = ("v", term)
            # Reserve the slot before appending: argument definitions above
            # were appended first, so indexes stay consistent.
            found = len(defs)
            defs.append(payload)
            def_index[code] = found
        return self.snapshot_size + found

    def _resolve(self, ref: int, resolved: List[int]) -> int:
        """A message reference back to a local table code."""
        if ref < self.snapshot_size:
            return ref
        return resolved[ref - self.snapshot_size]

    def _resolve_defs(self, defs: List[Any]) -> List[int]:
        """Intern every definition, in order, returning their local codes."""
        kernel = self.kernel
        table = kernel.table
        resolved: List[int] = []
        for payload in defs:
            if payload[0] == "c":
                _, function, arg_refs = payload
                code = kernel.intern_call(function, tuple(
                    self._resolve(ref, resolved) for ref in arg_refs))
            else:
                code = table.code(payload[1])
            resolved.append(code)
        return resolved

    # -- splice helpers (used by WireSession) ------------------------------

    def _encode_map(self, call_map: tuple, defs, def_index) -> tuple:
        """A call map encoded entry by entry (no parent assumption)."""
        table = self.kernel.table
        return tuple(
            (self._ref(table.code(call), defs, def_index),
             self._ref(table.code(value), defs, def_index))
            for call, value in call_map)

    def _decode_map(self, coded_map: tuple, resolved: List[int]) -> tuple:
        table = self.kernel.table
        return tuple(
            (table.term(self._resolve(call_ref, resolved)),
             table.term(self._resolve(value_ref, resolved)))
            for call_ref, value_ref in coded_map)

    @staticmethod
    def _extends(parent_map: tuple, successor_map: tuple) -> bool:
        """Do the parent entries form a subsequence of the successor's?

        True for raw generator successors (commitments only *add* fresh
        calls, both maps repr-sorted); false when the symmetry reducer
        renamed dead history entries — those ship as full maps.
        """
        position = 0
        n_parent = len(parent_map)
        for entry in successor_map:
            if position < n_parent and entry == parent_map[position]:
                position += 1
        return position == n_parent

    def _encode_splice(self, parent_map: tuple, successor_map: tuple,
                       defs, def_index) -> tuple:
        """New call-map entries with their positions in the successor tuple.

        Only called when :meth:`_extends` holds — the parent entries form
        a subsequence and the coordinator can splice without sorting.
        """
        table = self.kernel.table
        splice = []
        parent_position = 0
        n_parent = len(parent_map)
        for position, entry in enumerate(successor_map):
            if parent_position < n_parent \
                    and entry == parent_map[parent_position]:
                parent_position += 1
                continue
            call, value = entry
            splice.append((position,
                           self._ref(table.code(call), defs, def_index),
                           self._ref(table.code(value), defs, def_index)))
        return tuple(splice)

    def _decode_splice(self, parent_map: tuple, splice: tuple,
                       resolved: List[int]) -> tuple:
        if not splice:
            return parent_map
        table = self.kernel.table
        merged: List[Any] = []
        inserts = {position: (call_ref, value_ref)
                   for position, call_ref, value_ref in splice}
        parent_iter = iter(parent_map)
        total = len(parent_map) + len(splice)
        for position in range(total):
            insert = inserts.get(position)
            if insert is None:
                merged.append(next(parent_iter))
            else:
                call_ref, value_ref = insert
                merged.append(
                    (table.term(self._resolve(call_ref, resolved)),
                     table.term(self._resolve(value_ref, resolved))))
        return tuple(merged)


# ---------------------------------------------------------------------------
# Stateful per-link session: token references for already-known states
# ---------------------------------------------------------------------------

class WireSession:
    """The codec plus a per-link state registry, symmetric on both ends.

    Dispatch and result streams between the coordinator and *one* worker are
    FIFO (dedicated pipe), so both ends observe the same event order and can
    assign identical token numbers without ever exchanging them: dispatched
    states register in the dispatch space ("d", index) at encode time on the
    coordinator and at decode time on the worker; new result states register
    in the result space ("r", index) at encode time on the worker and decode
    time on the coordinator. A state either side has registered travels as a
    single token afterwards — the common case under worker affinity, where a
    frontier state returns to the worker that produced it.
    """

    def __init__(self, codec: WireCodec, link_id: Optional[int] = None):
        self.codec = codec
        #: Worker slot this session serves, stamped onto every
        #: :class:`WireIntegrityError` its decode paths raise so the
        #: supervisor knows which link to recycle.
        self.link_id = link_id
        #: Registered states with their *agreed* coded-fact list. The list
        #: order is fixed by the message that introduced the state (never
        #: by local code order, which differs per process past the
        #: snapshot) — result deltas reference parent facts by index into
        #: exactly this list on both ends.
        self.d_states: List[Tuple[Any, tuple]] = []
        self.r_states: List[Tuple[Any, tuple]] = []
        self.token_of: Dict[Any, Tuple[str, int]] = {}

    def knows(self, state) -> bool:
        return state in self.token_of

    def _register(self, space: str, state, fact_list: tuple) -> None:
        states = self.d_states if space == "d" else self.r_states
        self.token_of.setdefault(state, (space, len(states)))
        states.append((state, fact_list))

    def _lookup(self, space: str, token: int) -> Tuple[Any, tuple]:
        return self.d_states[token] if space == "d" else \
            self.r_states[token]

    # -- coordinator side ----------------------------------------------------

    def encode_dispatch(self, states: List[Any]
                        ) -> Tuple[bytes, List[Optional[ParentInfo]]]:
        """Token-or-full encoding of a batch; parents align with entries."""
        codec = self.codec
        kernel = codec.kernel
        table = kernel.table
        table_code = table.code
        snap = codec.snapshot_size
        ref = codec._ref
        defs: List[Any] = []
        def_index: Dict[int, int] = {}
        entries = []
        parents: List[ParentInfo] = []
        # Fact code tuples repeat massively across a batch's states (a
        # frontier shares most of its facts), so translated tuples are
        # memoized per message — the defs/def_index they reference are
        # per-message, which bounds the memo's validity.
        translated: Dict[tuple, tuple] = {}
        for state in states:
            if isinstance(state, DetState):
                kind, instance, call_map = \
                    "d", state.instance, state.call_map
            else:
                kind, instance, call_map = "i", state, ()
            known = self.token_of.get(state)
            if known is not None:
                entries.append(known)
                _, fact_list = self._lookup(*known)
                parents.append((kind, state, fact_list, call_map))
                continue
            fact_list = tuple(sorted(kernel.coded_fact_set(instance)))
            facts_out = []
            for relation, codes in fact_list:
                moved = translated.get(codes)
                if moved is None:
                    if not codes or max(codes) < snap:
                        moved = codes  # all shared vocabulary: ship as-is
                    else:
                        moved = tuple(
                            code if code < snap
                            else ref(code, defs, def_index)
                            for code in codes)
                    translated[codes] = moved
                facts_out.append((relation, moved))
            facts = tuple(facts_out)
            coded_map = tuple(
                (ref(table_code(call), defs, def_index),
                 ref(table_code(value), defs, def_index))
                for call, value in call_map)
            entries.append(("n", kind, facts, coded_map))
            self._register("d", state, fact_list)
            parents.append((kind, state, fact_list, call_map))
        return _dumps((defs, entries)), parents

    def decode_results(self, payload: bytes,
                       parents: List[ParentInfo]) -> List[List[tuple]]:
        codec = self.codec
        kernel = codec.kernel
        table = kernel.table
        snap = codec.snapshot_size
        defs, encoded = _loads(payload, self.link_id)
        resolved = codec._resolve_defs(defs)
        results: List[List[tuple]] = []
        for (kind, _, parent_facts, parent_map), entries in zip(
                parents, encoded):
            successors = []
            for entry in entries:
                tag = entry[0]
                if tag not in ("n", "f"):
                    _, token, label_ref = entry
                    state, _ = self._lookup(tag, token)
                    instance = state.instance if kind == "d" else state
                else:
                    _, removed, added, map_part, label_ref = entry
                    removed_set = set(removed)
                    # The successor's agreed list: surviving parent facts
                    # in parent order, then added facts in message order —
                    # both ends derive it identically.
                    fact_list = [
                        fact for index, fact in enumerate(parent_facts)
                        if index not in removed_set]
                    fact_list.extend(
                        (relation, tuple(
                            ref if ref < snap else resolved[ref - snap]
                            for ref in refs))
                        for relation, refs in added)
                    fact_list = tuple(fact_list)
                    instance = kernel._intern_coded_instance(
                        frozenset(fact_list))
                    if tag == "f":
                        # Full call map: the symmetry reducer rewrote
                        # parent history entries, no splice possible.
                        state = DetState(
                            instance,
                            codec._decode_map(map_part, resolved))
                    elif kind == "d":
                        call_map = codec._decode_splice(
                            parent_map, map_part, resolved)
                        state = DetState(instance, call_map)
                    else:
                        state = instance
                    self._register("r", state, fact_list)
                label = None if label_ref == _NO_LABEL else \
                    table.term(codec._resolve(label_ref, resolved))
                successors.append((state, instance, label))
            results.append(successors)
        return results

    # -- worker side ---------------------------------------------------------

    def decode_dispatch(self, payload: bytes
                        ) -> Tuple[List[Any], List[ParentInfo]]:
        codec = self.codec
        kernel = codec.kernel
        table = kernel.table
        snap = codec.snapshot_size
        defs, entries = _loads(payload, self.link_id)
        resolved = codec._resolve_defs(defs)
        states: List[Any] = []
        parents: List[ParentInfo] = []
        for entry in entries:
            tag = entry[0]
            if tag != "n":
                state, fact_list = self._lookup(tag, entry[1])
            else:
                _, kind, facts, coded_map = entry
                fact_list = tuple(
                    (relation, tuple(
                        ref if ref < snap else resolved[ref - snap]
                        for ref in refs))
                    for relation, refs in facts)
                instance = kernel._intern_coded_instance(
                    frozenset(fact_list))
                if kind == "d":
                    call_map = tuple(
                        (table.term(codec._resolve(call_ref, resolved)),
                         table.term(codec._resolve(value_ref, resolved)))
                        for call_ref, value_ref in coded_map)
                    state = DetState(instance, call_map)
                else:
                    state = instance
                self._register("d", state, fact_list)
            if isinstance(state, DetState):
                kind, instance, call_map = \
                    "d", state.instance, state.call_map
            else:
                kind, instance, call_map = "i", state, ()
            states.append(state)
            parents.append((kind, state, fact_list, call_map))
        return states, parents

    def encode_results(self, parents: List[ParentInfo],
                       results: List[List[tuple]]) -> bytes:
        codec = self.codec
        kernel = codec.kernel
        table = kernel.table
        snap = codec.snapshot_size
        ref = codec._ref
        defs: List[Any] = []
        def_index: Dict[int, int] = {}
        encoded = []
        for (kind, _, parent_facts, parent_map), successors in zip(
                parents, results):
            parent_set = set(parent_facts)
            entries = []
            for successor, _, label in successors:
                label_ref = _NO_LABEL if label is None else \
                    ref(table.code(label), defs, def_index)
                known = self.token_of.get(successor)
                if known is not None:
                    entries.append((known[0], known[1], label_ref))
                    continue
                instance = successor.instance if kind == "d" \
                    else successor
                succ_facts = kernel.coded_fact_set(instance)
                removed = tuple(
                    index for index, fact in enumerate(parent_facts)
                    if fact not in succ_facts)
                added_facts = tuple(sorted(succ_facts - parent_set))
                added = tuple(
                    (relation, tuple(
                        code if code < snap else ref(code, defs, def_index)
                        for code in codes))
                    for relation, codes in added_facts)
                if kind == "d" and not codec._extends(
                        parent_map, successor.call_map):
                    # Dead-history renaming (symmetry reduction) rewrote
                    # parent entries: ship the successor's map verbatim.
                    map_part = codec._encode_map(
                        successor.call_map, defs, def_index)
                    entries.append(("f", removed, added, map_part,
                                    label_ref))
                else:
                    if kind == "d":
                        map_part = codec._encode_splice(
                            parent_map, successor.call_map, defs,
                            def_index)
                    else:
                        map_part = ()
                    entries.append(("n", removed, added, map_part,
                                    label_ref))
                removed_set = set(removed)
                fact_list = tuple(
                    fact for index, fact in enumerate(parent_facts)
                    if index not in removed_set) + added_facts
                self._register("r", successor, fact_list)
            encoded.append(entries)
        return _dumps((defs, encoded))
