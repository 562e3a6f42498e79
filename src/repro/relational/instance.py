"""Database instances: immutable sets of ground facts.

An :class:`Instance` is the paper's database instance ``I``: a finite set of
facts over a schema, with the active domain ``ADOM(I)`` (Section 2.1). Facts
may contain unevaluated ground service calls during intermediate stages of
action execution (the result of ``DO()`` before the call map is applied);
:meth:`Instance.is_concrete` distinguishes fully evaluated instances.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

from repro.errors import InstanceError
from repro.relational.schema import DatabaseSchema
from repro.relational.values import (
    Param, ServiceCall, Var, is_value, substitute_term, term_service_calls)
from repro.utils import sorted_values, value_sort_key


class Fact:
    """A ground fact ``R(t1, ..., tn)``; terms are values or ground calls.

    Immutable by convention; the hash and sort key are cached because facts
    are hashed millions of times during state-space exploration (frozenset
    membership, interning, canonical labeling).
    """

    __slots__ = ("relation", "terms", "_hash", "_sort_key", "_concrete")

    def __init__(self, relation: str, terms: Tuple[Any, ...]):
        self.relation = relation
        self.terms = terms
        self._hash = None
        self._sort_key = None
        self._concrete = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.relation == other.relation and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.relation, self.terms))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(term) for term in self.terms)
        return f"{self.relation}({inner})"

    @property
    def arity(self) -> int:
        return len(self.terms)

    def is_concrete(self) -> bool:
        """True when no term is an (unevaluated) service call."""
        if self._concrete is None:
            self._concrete = all(
                not isinstance(term, ServiceCall) for term in self.terms)
        return self._concrete

    def service_calls(self) -> Iterator[ServiceCall]:
        for term in self.terms:
            yield from term_service_calls(term)

    def apply(self, mapping: Mapping[Any, Any]) -> "Fact":
        """Replace terms (typically service calls) according to ``mapping``."""
        return Fact(self.relation,
                    tuple(mapping.get(term, term) for term in self.terms))

    def rename(self, renaming: Mapping[Any, Any]) -> "Fact":
        """Rename *values* according to ``renaming`` (identity elsewhere)."""
        return Fact(self.relation, tuple(
            renaming.get(term, term) if is_value(term) else
            term.substitute(renaming) if isinstance(term, ServiceCall) else term
            for term in self.terms))

    def sort_key(self) -> tuple:
        if self._sort_key is None:
            self._sort_key = (
                self.relation, tuple(value_sort_key(t) for t in self.terms))
        return self._sort_key

    def __reduce__(self):
        # Identity only — cached hashes are per-process (see
        # ServiceCall.__reduce__) and the other caches are cheap to rebuild.
        return Fact, (self.relation, self.terms)


def fact(relation: str, *terms: Any) -> Fact:
    """Convenience constructor: ``fact("R", "a", 1)`` = ``R(a, 1)``."""
    return Fact(relation, tuple(terms))


def _rebuild_instance(facts: Tuple[Fact, ...]) -> "Instance":
    """Unpickling target of :meth:`Instance.__reduce__`."""
    return Instance._trusted(frozenset(facts))


_EMPTY_TUPLES: FrozenSet[Tuple[Any, ...]] = frozenset()
#: Term types that are not values (``is_value`` inlined on the adom scan).
_SYMBOLIC = (Var, Param, ServiceCall)


class Instance:
    """An immutable database instance (a frozen set of facts).

    Supports set operations, schema validation, active-domain computation, and
    value renaming. Hashable, so instances can be transition-system states.
    """

    # The ``_owner`` .. ``_grounded`` slots are the relational kernel's
    # caches of this instance (codes, coded facts, a pending instance's
    # call-bearing fact entries, grounding results): they live exactly as
    # long as the instance. ``_owner`` is the token of the kernel that
    # filled them; the kernel resets the others whenever it claims the
    # instance.
    __slots__ = ("_facts", "_adom", "_hash", "_by_relation", "_indexes",
                 "_sorted", "_calls", "_schema_ok", "_owner", "_coded",
                 "_coded_facts", "_entries", "_grounded")

    def __init__(self, facts: Iterable[Fact] = ()):
        normalized = []
        for item in facts:
            if isinstance(item, Fact):
                normalized.append(item)
            elif isinstance(item, tuple) and len(item) == 2:
                normalized.append(Fact(item[0], tuple(item[1])))
            else:
                raise InstanceError(f"cannot interpret fact {item!r}")
        self._facts: FrozenSet[Fact] = frozenset(normalized)
        self._reset_caches()

    def _reset_caches(self) -> None:
        # Derived views are built lazily and cached forever: instances are
        # immutable, so construction is the only "invalidation" point.
        self._adom = None
        self._hash = None
        self._by_relation = None
        self._indexes = None
        self._sorted = None
        self._calls = None
        self._schema_ok = None
        self._owner = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, *facts_: Fact) -> "Instance":
        return cls(facts_)

    @classmethod
    def empty(cls) -> "Instance":
        return cls(())

    @classmethod
    def _trusted(cls, facts: Iterable[Fact]) -> "Instance":
        """Internal fast path: ``facts`` are known to be :class:`Fact`s."""
        instance = cls.__new__(cls)
        instance._facts = facts if isinstance(facts, frozenset) \
            else frozenset(facts)
        instance._reset_caches()
        return instance

    # -- set behaviour ---------------------------------------------------------

    @property
    def facts(self) -> FrozenSet[Fact]:
        return self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, item: Fact) -> bool:
        return item in self._facts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and self._facts == other._facts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._facts)
        return self._hash

    def __or__(self, other: "Instance") -> "Instance":
        return Instance._trusted(self._facts | other._facts)

    def __and__(self, other: "Instance") -> "Instance":
        return Instance._trusted(self._facts & other._facts)

    def __sub__(self, other: "Instance") -> "Instance":
        return Instance._trusted(self._facts - other._facts)

    def __repr__(self) -> str:
        if not self._facts:
            return "{}"
        rendered = ", ".join(
            repr(f) for f in sorted(self._facts, key=Fact.sort_key))
        return "{" + rendered + "}"

    def __reduce__(self):
        # Ship only the fact set; lazy views (adom, indexes, hash) and the
        # kernel caches rebuild in the receiving process, so hashes use its
        # own PYTHONHASHSEED and codes its own term table.
        return _rebuild_instance, (tuple(self._facts),)

    # -- semantics -------------------------------------------------------------

    def active_domain(self) -> FrozenSet[Any]:
        """``ADOM(I)``: the values occurring in the instance.

        Unevaluated service-call terms are *not* values; their constant
        arguments are included (they occur in the instance).
        """
        if self._adom is None:
            terms: set = set()
            terms.update(*[current.terms for current in self._facts])
            symbolic = [term for term in terms
                        if isinstance(term, _SYMBOLIC)]
            if symbolic:
                terms.difference_update(symbolic)
                for term in symbolic:
                    if isinstance(term, ServiceCall):
                        terms.update(
                            arg for arg in term.args if is_value(arg))
            self._adom = frozenset(terms)
        return self._adom

    adom = active_domain

    def relations(self) -> FrozenSet[str]:
        return frozenset(self._relation_map())

    def _relation_map(self) -> Dict[str, FrozenSet[Tuple[Any, ...]]]:
        if self._by_relation is None:
            grouped: Dict[str, list] = {}
            for current in self._facts:
                grouped.setdefault(current.relation, []).append(current.terms)
            self._by_relation = {relation: frozenset(tuples)
                                 for relation, tuples in grouped.items()}
        return self._by_relation

    def tuples(self, relation: str) -> FrozenSet[Tuple[Any, ...]]:
        """All tuples of the given relation (cached per instance)."""
        return self._relation_map().get(relation, _EMPTY_TUPLES)

    def index(self, relation: str,
              position: int) -> Dict[Any, Tuple[Tuple[Any, ...], ...]]:
        """Tuples of ``relation`` indexed by the term at ``position``.

        Built lazily per ``(relation, position)`` and cached for the lifetime
        of the (immutable) instance; the FOL evaluator uses these so matching
        a positive atom with one bound term is a dict lookup instead of a
        scan over the whole relation.
        """
        if self._indexes is None:
            self._indexes = {}
        key = (relation, position)
        found = self._indexes.get(key)
        if found is None:
            grouped: Dict[Any, list] = {}
            for terms in self._relation_map().get(relation, ()):
                grouped.setdefault(terms[position], []).append(terms)
            found = {value: tuple(tuples)
                     for value, tuples in grouped.items()}
            self._indexes[key] = found
        return found

    def is_concrete(self) -> bool:
        return all(current.is_concrete() for current in self._facts)

    def service_calls(self) -> FrozenSet[ServiceCall]:
        """``CALLS(I)``: ground service calls occurring in the instance."""
        if self._calls is None:
            calls = set()
            for current in self._facts:
                calls.update(current.service_calls())
            self._calls = frozenset(calls)
        return self._calls

    def conforms_to(self, schema: DatabaseSchema) -> bool:
        """True when every fact uses a declared relation with correct arity."""
        for current in self._facts:
            if current.relation not in schema:
                return False
            if current.arity != schema.arity(current.relation):
                return False
        return True

    def validate(self, schema: DatabaseSchema) -> None:
        """Raise :class:`InstanceError` if the instance violates the schema.

        Successful validation is remembered per schema *object*: interned
        instances are re-added to transition systems across repeated
        constructions, and re-walking the facts each time is pure waste.
        """
        if self._schema_ok is schema:
            return
        arities = {relation.name: relation.arity for relation in schema}
        for current in self._facts:
            expected = arities.get(current.relation)
            if expected is None:
                raise InstanceError(
                    f"fact {current!r} uses undeclared relation")
            if len(current.terms) != expected:
                raise InstanceError(
                    f"fact {current!r} has arity {current.arity}, "
                    f"schema says {expected}")
        self._schema_ok = schema

    # -- transformations ---------------------------------------------------------

    def apply_call_map(self, call_map: Mapping[ServiceCall, Any]) -> "Instance":
        """``M(E)`` of the paper: replace service calls by their results.

        Every service call in the instance must be in the domain of the map;
        otherwise :class:`InstanceError` is raised.
        """
        missing = self.service_calls() - set(call_map)
        if missing:
            raise InstanceError(
                f"unresolved service calls: {sorted_values(missing)}")
        # Concrete facts cannot contain a call: reuse them as-is so their
        # cached hashes survive into the successor instance.
        return Instance._trusted(
            current if current.is_concrete() else current.apply(call_map)
            for current in self._facts)

    def rename(self, renaming: Mapping[Any, Any]) -> "Instance":
        """Rename values (used by canonicalization and isomorphism search)."""
        return Instance._trusted(
            current.rename(renaming) for current in self._facts)

    def restrict(self, relations: Iterable[str]) -> "Instance":
        """Project onto a subset of relations (used by the reductions)."""
        wanted = set(relations)
        return Instance._trusted(current for current in self._facts
                                 if current.relation in wanted)

    def signature(self) -> Dict[str, int]:
        """Relation-name -> tuple-count histogram (isomorphism invariant)."""
        histogram: Dict[str, int] = {}
        for current in self._facts:
            histogram[current.relation] = histogram.get(current.relation, 0) + 1
        return histogram

    def sorted_facts(self) -> list:
        if self._sorted is None:
            self._sorted = sorted(self._facts, key=Fact.sort_key)
        return list(self._sorted)
