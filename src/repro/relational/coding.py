"""Integer coding of ground terms and instances — the encoding layer.

The exploration hot path grounds condition-action rules over relational
instances millions of times; doing that over Python object graphs pays for
recursive ``hash``/``==`` on every comparison. This module gives each ground
term (value or ground service call) a dense integer *code* in an append-only
:class:`TermTable`, and represents an instance as a :class:`CodedInstance`:
per-relation sorted arrays of int tuples. Equality, joins, and substitution
become integer comparisons and dict lookups over small ints.

The coding is a per-process acceleration structure, never part of the
semantics: :mod:`repro.relational.kernel` decodes back to the very same
:class:`~repro.relational.instance.Fact`/``Instance`` values at every
boundary, and the wire codec (:mod:`repro.engine.wire`) ships codes between
processes only together with definitions for any code the receiver may not
know (codes themselves are process-local).

Code assignment follows Python equality: terms that compare equal (e.g.
``1`` and ``True``) share a code, exactly as they collapse inside a
``frozenset`` of facts.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.relational.values import ServiceCall, is_value
from repro.utils import value_sort_key

#: Register value for "unbound" in compiled plans (codes are always >= 0).
UNBOUND = -1


class TermTable:
    """Append-only interning of ground terms to dense int codes.

    A *term* is a constant value or a ground :class:`ServiceCall`. Codes are
    assigned in first-intern order and never change; the table also caches
    each code's :func:`~repro.utils.value_sort_key` so deterministic
    orderings never recompute sort keys for interned terms.

    ``snapshot()`` lists the payload of every code in order; replaying a
    snapshot into a table that was built by the same deterministic
    constructor sequence reproduces the exact same code assignment — the
    wire codec's cross-process contract (see :mod:`repro.engine.wire`).
    """

    __slots__ = ("_codes", "_terms", "_is_call", "_sort_keys")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        self._terms: List[Any] = []
        self._is_call: List[bool] = []
        self._sort_keys: List[Optional[tuple]] = []

    def __len__(self) -> int:
        return len(self._terms)

    def code(self, term: Any) -> int:
        """The code of ``term``, interning it on first sight."""
        found = self._codes.get(term)
        if found is not None:
            return found
        code = len(self._terms)
        self._codes[term] = code
        self._terms.append(term)
        self._is_call.append(isinstance(term, ServiceCall))
        self._sort_keys.append(None)
        return code

    def get(self, term: Any) -> Optional[int]:
        """The code of ``term`` if already interned, else ``None``."""
        return self._codes.get(term)

    def term(self, code: int) -> Any:
        return self._terms[code]

    def is_call(self, code: int) -> bool:
        return self._is_call[code]

    def sort_key(self, code: int) -> tuple:
        """``value_sort_key`` of the coded term (computed once per code)."""
        key = self._sort_keys[code]
        if key is None:
            key = value_sort_key(self._terms[code])
            self._sort_keys[code] = key
        return key

    def codes(self, terms: Iterable[Any]) -> Tuple[int, ...]:
        return tuple(self.code(term) for term in terms)

    def snapshot(self) -> List[Any]:
        """Payloads of every code, in code order (for cross-process replay).

        Values are shipped as themselves; ground service calls as
        ``("call", function, arg_codes)`` so the payload references earlier
        codes instead of re-pickling argument values.
        """
        payloads: List[Any] = []
        for code, term in enumerate(self._terms):
            if self._is_call[code]:
                payloads.append(
                    ("call", term.function,
                     tuple(self._codes[arg] for arg in term.args)))
            else:
                payloads.append(("value", term))
        return payloads

    def replay(self, payloads: List[Any]) -> None:
        """Intern snapshot ``payloads`` in order, asserting code alignment.

        Safe to call on a table that already holds a prefix of the snapshot
        (the deterministic-constructor prefix); raises if any payload lands
        on a different code than it had in the source table.
        """
        for expected, payload in enumerate(payloads):
            kind, *rest = payload
            if kind == "call":
                function, arg_codes = rest
                term = ServiceCall(
                    function, tuple(self._terms[arg] for arg in arg_codes))
            else:
                term = rest[0]
            code = self.code(term)
            if code != expected:
                raise ValueError(
                    f"snapshot replay misaligned: payload {payload!r} "
                    f"interned as {code}, expected {expected}")


_EMPTY: Tuple[Tuple[int, ...], ...] = ()

#: A coded fact: ``(relation_code, term_codes)``.
CodedFact = Tuple[int, Tuple[int, ...]]


class CodedInstance:
    """An instance as per-relation sorted arrays of int tuples.

    Built once per (immutable) :class:`~repro.relational.instance.Instance`
    and cached by the kernel; per-position indexes and the coded active
    domain are derived lazily, mirroring ``Instance.index``/``active_domain``
    but over small ints.
    """

    __slots__ = ("by_relation", "_indexes", "_adom", "_holds_calls",
                 "_domains", "_fact_set", "_sets", "_columns", "_vector",
                 "block_ids")

    def __init__(self, by_relation: Dict[int, Tuple[Tuple[int, ...], ...]]):
        # Tuples sorted per relation: deterministic iteration for any
        # consumer, independent of build order.
        self.by_relation = {relation: tuple(sorted(tuples))
                            for relation, tuples in by_relation.items()}
        self._indexes: Optional[dict] = None
        self._adom: Optional[FrozenSet[int]] = None
        self._holds_calls = False
        #: Per-(plan, extra-codes) evaluation-domain cache, mirroring
        #: ``fol.evaluation._domain_cached`` (see CompiledQuery.domain).
        self._domains: dict = {}
        self._fact_set: Optional[FrozenSet[CodedFact]] = None
        self._sets: Optional[dict] = None
        # Columnar mirrors of by_relation for the vector backend. Both
        # derive from the (immutable) sorted tuple arrays above, so like
        # the per-position indexes they never need invalidating once
        # materialized — a fresh CodedInstance is built per instance.
        self._columns: Optional[dict] = None
        self._vector: Optional[dict] = None
        #: Relation code -> the kernel's interned id of its tuple array
        #: (filled by ``RelationalKernel._read_key``).
        self.block_ids: Dict[int, int] = {}

    @classmethod
    def from_coded_facts(cls, facts: Iterable[CodedFact]) -> "CodedInstance":
        grouped: Dict[int, list] = {}
        for relation, terms in facts:
            grouped.setdefault(relation, []).append(terms)
        return cls({relation: tuple(tuples)
                    for relation, tuples in grouped.items()})

    def nbytes(self) -> int:
        """Approximate resident size of the coded tuple arrays.

        Used by the memory-budget accounting of the paged state store:
        per-tuple CPython overhead (tuple header + per-slot pointer +
        small-int object) dominates, so the estimate is structural — it
        deliberately ignores the lazily materialized indexes/columns,
        which the budget accounts for at their own caches.
        """
        total = 64
        for tuples in self.by_relation.values():
            total += 64
            for terms in tuples:
                total += 56 + 32 * len(terms)
        return total

    def tuples(self, relation: int) -> Tuple[Tuple[int, ...], ...]:
        return self.by_relation.get(relation, _EMPTY)

    def index(self, relation: int, position: int
              ) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
        """Tuples of ``relation`` grouped by the code at ``position``."""
        if self._indexes is None:
            self._indexes = {}
        key = (relation, position)
        found = self._indexes.get(key)
        if found is None:
            grouped: Dict[int, list] = {}
            for terms in self.by_relation.get(relation, _EMPTY):
                grouped.setdefault(terms[position], []).append(terms)
            found = {code: tuple(tuples) for code, tuples in grouped.items()}
            self._indexes[key] = found
        return found

    def has(self, relation: int, terms: Tuple[int, ...]) -> bool:
        """Membership test with a lazy per-relation set (closed-atom checks)."""
        if self._sets is None:
            self._sets = {}
        found = self._sets.get(relation)
        if found is None:
            found = set(self.by_relation.get(relation, _EMPTY))
            self._sets[relation] = found
        return terms in found

    def adom_codes(self, table: TermTable) -> FrozenSet[int]:
        """Coded ``ADOM``: value codes occurring in the instance.

        Ground-service-call terms contribute their (already coded) value
        arguments, not themselves — the coded mirror of
        ``Instance.active_domain``. One pass over the *distinct* codes
        also records whether any of them is a call (:meth:`holds_calls`).
        """
        if self._adom is None:
            codes: set = set()
            for tuples in self.by_relation.values():
                codes.update(*tuples)
            is_call = table._is_call
            calls = [code for code in codes if is_call[code]]
            self._holds_calls = bool(calls)
            if calls:
                codes.difference_update(calls)
                for code in calls:
                    codes.update(table.code(arg)
                                 for arg in table.term(code).args
                                 if is_value(arg))
            self._adom = frozenset(codes)
        return self._adom

    def holds_calls(self, table: TermTable) -> bool:
        """True when some term of the instance is a ground service call."""
        if self._adom is None:
            self.adom_codes(table)
        return self._holds_calls

    def fact_set(self) -> FrozenSet[CodedFact]:
        """The instance as a frozenset of coded facts (interning key)."""
        if self._fact_set is None:
            self._fact_set = frozenset(
                (relation, terms)
                for relation, tuples in self.by_relation.items()
                for terms in tuples)
        return self._fact_set

    def domain_cache(self) -> dict:
        return self._domains

    def columns(self, relation: int):
        """The relation's tuples as one contiguous ``(n, arity)`` int64
        numpy array (lazily materialized; rows follow the sorted
        ``by_relation`` order, so row ``i`` is ``tuples(relation)[i]``).

        Returns ``None`` when the relation is empty — the arity is not
        recorded for absent relations, and every consumer short-circuits
        on the empty case anyway. Requires numpy (the caller gates on
        :func:`repro.relational.vector.vector_enabled`).
        """
        if self._columns is None:
            self._columns = {}
        found = self._columns.get(relation)
        if found is None:
            tuples = self.by_relation.get(relation, _EMPTY)
            if not tuples:
                return None
            from repro.relational.vector import require_numpy

            np = require_numpy()
            found = np.array(tuples, dtype=np.int64)
            self._columns[relation] = found
        return found

    def vector_cache(self) -> dict:
        """Per-(plan-node, instance) scratch of the vector backend
        (filtered atom columns and the like), mirroring ``domain_cache``."""
        if self._vector is None:
            self._vector = {}
        return self._vector


# ---------------------------------------------------------------------------
# Canonical labeling over coded facts (the symmetry layer's kernel primitive)
# ---------------------------------------------------------------------------

def _rank_colors(keys: Dict[int, tuple]) -> Dict[int, int]:
    """Compress comparable colour keys to dense ranks (order-preserving)."""
    distinct = sorted(set(keys.values()))
    position = {key: index for index, key in enumerate(distinct)}
    return {code: position[key] for code, key in keys.items()}


def _partition_of(coloring: Dict[int, int]) -> frozenset:
    groups: Dict[int, List[int]] = {}
    for code, color in coloring.items():
        groups.setdefault(color, []).append(code)
    return frozenset(frozenset(members) for members in groups.values())


def coded_canonical_order(
    facts: Iterable[Tuple[tuple, Tuple[int, ...]]],
    movable: Iterable[int],
    sort_key,
) -> Tuple[int, ...]:
    """Canonical ordering of ``movable`` codes by individualization-refinement.

    ``facts`` is a sequence of ``(rel_key, term_codes)`` where every term
    code is either in ``movable`` or *fixed* and ``rel_key`` is an
    isomorphism-invariant, mutually comparable identity (tuples of strings).
    ``sort_key`` maps a code to an invariant total-order key (the
    :meth:`TermTable.sort_key` of its term).

    Returns the ordering of ``movable`` such that renaming ``movable[i]`` to
    canonical rank ``i`` lexicographically minimizes the rendered sorted
    fact list over all leaves of the search — the integer-coded twin of
    :func:`repro.relational.isomorphism.canonical_form`: two coded fact
    structures related by a bijection of their movable codes produce
    renamings with equal images. Everything the search compares (base
    colours, refinement contexts, leaf keys) derives from sort keys and
    invariant colour ranks, never raw code numbers — so two processes whose
    term tables assign different codes to the same values still agree on
    the canonical order of the same state (the wire-level class-identity
    contract of :mod:`repro.engine.wire`).
    """
    facts = tuple(facts)
    movable = tuple(movable)
    if not movable:
        return ()
    movable_set = set(movable)
    all_codes = set(movable)
    for _, codes in facts:
        all_codes.update(codes)

    base = _rank_colors({
        code: ((1,) if code in movable_set else (0, sort_key(code)))
        for code in all_codes})

    def refine(coloring: Dict[int, int]) -> Dict[int, int]:
        """Colour refinement (1-WL on the coded fact hypergraph)."""
        current = coloring
        while True:
            contexts: Dict[int, List[tuple]] = {code: [] for code in all_codes}
            for rel_key, codes in facts:
                term_colors = tuple(current[c] for c in codes)
                for position, c in enumerate(codes):
                    contexts[c].append((rel_key, position, term_colors))
            refined = _rank_colors({
                code: (current[code], tuple(sorted(contexts[code])))
                for code in all_codes})
            if _partition_of(refined) == _partition_of(current):
                return current
            current = refined

    best_key: List[Optional[tuple]] = [None]
    best_order: List[Tuple[int, ...]] = [movable]

    def leaf(order: List[int]) -> None:
        position_of = {code: index for index, code in enumerate(order)}

        def render(code: int) -> tuple:
            position = position_of.get(code)
            if position is not None:
                return (1, position)
            return (0, sort_key(code))

        key = tuple(sorted(
            (rel_key, tuple(render(c) for c in codes))
            for rel_key, codes in facts))
        if best_key[0] is None or key < best_key[0]:
            best_key[0] = key
            best_order[0] = tuple(order)

    def search(coloring: Dict[int, int], order: List[int],
               assigned: set) -> None:
        refined = refine(coloring)
        unassigned = [code for code in movable if code not in assigned]
        if not unassigned:
            leaf(order)
            return
        groups: Dict[int, List[int]] = {}
        for code in unassigned:
            groups.setdefault(refined[code], []).append(code)
        cell = groups[min(groups)]
        for chosen in sorted(cell, key=sort_key):
            next_coloring = dict(refined)
            # Individualize with a colour no rank can collide with
            # (ranks are >= 0); re-ranked invariantly on the next refine.
            next_coloring[chosen] = -(len(order) + 1)
            assigned.add(chosen)
            search(next_coloring, order + [chosen], assigned)
            assigned.discard(chosen)

    search(base, [], set())
    return best_order[0]
