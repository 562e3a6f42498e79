"""Equality-commitment enumeration (the abstraction branching primitive)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.execution import clear_subproblem_caches
from repro.engine.generators import DetState
from repro.gallery import example_41
from repro.relational.values import Fresh, ServiceCall
from repro.semantics import build_det_abstraction
from repro.semantics.commitments import (
    count_commitments, enumerate_commitments)
from repro.workloads import warehouse_dcds


def calls(n):
    return [ServiceCall("f", (f"a{i}",)) for i in range(n)]


class TestEnumeration:
    def test_no_calls(self):
        assert list(enumerate_commitments([], ["a"])) == [{}]

    def test_no_calls_never_reads_known_values(self):
        class Untouchable:
            def __iter__(self):
                raise AssertionError("known values iterated")

        assert list(enumerate_commitments(
            [], Untouchable(), Untouchable())) == [{}]

    def test_single_call_against_one_known(self):
        result = list(enumerate_commitments(calls(1), ["a"]))
        values = [c[calls(1)[0]] for c in result]
        # Either the known value or one fresh representative.
        assert "a" in values
        assert any(isinstance(v, Fresh) for v in values)
        assert len(result) == 2

    def test_two_calls_zero_known(self):
        [c1, c2] = calls(2)
        result = list(enumerate_commitments([c1, c2], []))
        shapes = {(commitment[c1] == commitment[c2]) for commitment in result}
        assert shapes == {True, False}
        assert len(result) == 2  # together-fresh, separate-fresh

    def test_example_41_shape(self):
        # Two fresh calls against one known value: the five successors of
        # Figure 3(b).
        [c1, c2] = calls(2)
        result = list(enumerate_commitments([c1, c2], ["a"]))
        assert len(result) == 5
        rendered = {(repr(c[c1]), repr(c[c2])) for c in result}
        assert ("'a'", "'a'") in rendered      # both equal the known value
        assert ("#0", "#0") in rendered        # equal, fresh
        assert ("#0", "#1") in rendered        # distinct fresh

    def test_known_values_used_injectively(self):
        [c1, c2] = calls(2)
        for commitment in enumerate_commitments([c1, c2], ["a", "b"]):
            if commitment[c1] == "a" and commitment[c2] == "a":
                # Same known value means same cell, which is the partition
                # {c1, c2} -> a; it must appear exactly once overall.
                pass
        both_a = [c for c in enumerate_commitments([c1, c2], ["a", "b"])
                  if c[c1] == "a" and c[c2] == "a"]
        assert len(both_a) == 1

    def test_fresh_values_avoid_used(self):
        [c1] = calls(1)
        result = list(enumerate_commitments([c1], [Fresh(0)],
                                            used_values=[Fresh(1)]))
        fresh_values = [c[c1] for c in result
                        if isinstance(c[c1], Fresh) and c[c1] != Fresh(0)]
        assert fresh_values == [Fresh(2)]

    def test_duplicate_calls_collapse(self):
        [c1] = calls(1)
        result = list(enumerate_commitments([c1, c1], ["a"]))
        assert len(result) == 2

    def test_deterministic_order(self):
        first = list(enumerate_commitments(calls(3), ["a", "b"]))
        second = list(enumerate_commitments(calls(3), ["a", "b"]))
        assert first == second


class TestCounting:
    @pytest.mark.parametrize("n_calls,n_known", [
        (0, 0), (0, 3), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
        (3, 0), (3, 1), (3, 2), (4, 2),
    ])
    def test_count_matches_enumeration(self, n_calls, n_known):
        known = [f"k{i}" for i in range(n_known)]
        enumerated = list(enumerate_commitments(calls(n_calls), known))
        assert len(enumerated) == count_commitments(n_calls, n_known)

    def test_counts_grow_fast(self):
        # The §6 complexity discussion: branching is exponential in calls.
        values = [count_commitments(n, 2) for n in range(1, 6)]
        assert all(later > 2 * earlier
                   for earlier, later in zip(values, values[1:]))


@given(st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_commitments_are_distinct_and_complete(n_calls, n_known):
    known = [f"k{i}" for i in range(n_known)]
    call_list = calls(n_calls)
    seen = set()
    for commitment in enumerate_commitments(call_list, known):
        # Each commitment is a total evaluation of the calls.
        assert set(commitment) == set(call_list)
        key = tuple(repr(commitment[c]) for c in call_list)
        assert key not in seen, "duplicate commitment"
        seen.add(key)
        # Fresh representatives never collide with known values.
        for value in commitment.values():
            if isinstance(value, Fresh):
                assert value not in known


class TestCallFreeSteps:
    """A step without service calls reads no history (one commitment)."""

    @staticmethod
    def _count_known_values(monkeypatch) -> list:
        calls_made = []
        original = DetState.known_values

        def counting(self):
            calls_made.append(self)
            return original(self)

        monkeypatch.setattr(DetState, "known_values", counting)
        clear_subproblem_caches()  # no replay from a warm successor memo
        return calls_made

    def test_call_free_build_never_reads_known_values(self, monkeypatch):
        calls_made = self._count_known_values(monkeypatch)
        ts = build_det_abstraction(warehouse_dcds(1), 100000)
        assert len(ts.states) == 25
        assert calls_made == []

    def test_build_with_calls_reads_known_values(self, monkeypatch):
        calls_made = self._count_known_values(monkeypatch)
        build_det_abstraction(example_41(), 100000)
        assert calls_made
