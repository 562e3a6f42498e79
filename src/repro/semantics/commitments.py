"""Equality commitments over fresh service calls (Appendix C.3).

An equality commitment ``H`` partitions the fresh service calls together with
the already-known values: calls in the same cell return the same value, calls
in a cell with a known value return that value, and calls in a cell of their
own return some globally fresh value. Enumerating commitments — rather than
the infinitely many concrete evaluations — is what makes both abstraction
constructions finitely branching.

The enumeration is deterministic: calls are sorted, partitions are generated
in first-occurrence order, and fresh representatives are minted as the
smallest unused :class:`Fresh` indices. The deterministic abstraction's
finiteness argument (values of any reachable state stay within a bounded
pool) relies on this "smallest unused" discipline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.relational.values import Fresh, ServiceCall
from repro.utils import FreshPool, set_partitions, sorted_values

Commitment = Dict[ServiceCall, Any]


def enumerate_commitments(
    calls: Sequence[ServiceCall],
    known_values: Iterable[Any],
    used_values: Iterable[Any] = (),
) -> Iterator[Commitment]:
    """All equality commitments for ``calls`` against ``known_values``.

    Yields one evaluation (call -> value) per commitment: for every partition
    of the calls, every injective assignment of the blocks to known values or
    distinct fresh representatives. Fresh representatives are minted from the
    smallest :class:`Fresh` indices not already used in ``known_values`` or
    ``used_values``.

    Without calls the only commitment is the empty one, and neither
    ``known_values`` nor ``used_values`` is read.
    """
    if not calls:
        yield {}
        return
    calls = sorted(set(calls), key=repr)
    known = sorted_values(set(known_values))

    occupied = set(known) | set(used_values)

    for partition in set_partitions(calls):
        yield from _assign_blocks(partition, known, occupied)


def _assign_blocks(partition: List[List[ServiceCall]], known: List[Any],
                   occupied: Iterable[Any]) -> Iterator[Commitment]:
    """Injective assignments of partition blocks to known values or fresh."""
    pool_template = set(occupied)

    def recurse(index: int, assignment: Commitment,
                taken_known: frozenset, minted: Tuple[Any, ...]
                ) -> Iterator[Commitment]:
        if index == len(partition):
            yield dict(assignment)
            return
        block = partition[index]
        # Option 1: the block equals one of the known values (injectively —
        # two blocks mapping to the same known value would be a single cell).
        for value in known:
            if value in taken_known:
                continue
            for call in block:
                assignment[call] = value
            yield from recurse(index + 1, assignment,
                               taken_known | {value}, minted)
        # Option 2: the block gets a globally fresh representative.
        fresh = _next_fresh(pool_template | set(minted))
        for call in block:
            assignment[call] = fresh
        yield from recurse(index + 1, assignment, taken_known,
                           minted + (fresh,))
        for call in block:
            assignment.pop(call, None)

    yield from recurse(0, {}, frozenset(), ())


def _next_fresh(occupied: set) -> Fresh:
    index = 0
    taken = {value.index for value in occupied if isinstance(value, Fresh)}
    while index in taken:
        index += 1
    return Fresh(index)


def count_commitments(n_calls: int, n_known: int) -> int:
    """Number of equality commitments (for fuse sizing and tests).

    Equals the number of partitions of ``n_calls`` elements into blocks, each
    block independently labeled with one of ``n_known`` known values
    (injectively) or a fresh representative.
    """
    from math import comb

    # Recurrence over partitions with injective known-value labels:
    # count(n) = sum over the block containing the first call.
    cache: Dict[Tuple[int, int], int] = {}

    def count(remaining: int, known_left: int) -> int:
        if remaining == 0:
            return 1
        key = (remaining, known_left)
        if key in cache:
            return cache[key]
        total = 0
        # Choose the rest of the first call's block among remaining-1 others.
        for extra in range(remaining):
            ways = comb(remaining - 1, extra)
            rest = remaining - 1 - extra
            # Block labeled fresh:
            total += ways * count(rest, known_left)
            # Block labeled with one of the known values:
            if known_left > 0:
                total += ways * known_left * count(rest, known_left - 1)
        cache[key] = total
        return total

    return count(n_calls, n_known)
