"""The encoding layer's invariants: term interning, snapshot replay, and
the consistency of :class:`CodedInstance`'s lazily-derived views.

A ``CodedInstance`` is immutable, so its derived structures (per-position
indexes, membership sets, columnar arrays, the coded active domain) are
materialized lazily and never invalidated — the invariant tested here is
that every view, materialized in any order and interleaved with the
others, describes exactly the sorted ``by_relation`` tuples. ``TermTable``
is append-only; ``snapshot``/``replay`` must reproduce code assignment
exactly even when the replaying table already holds a prefix and keeps
growing afterwards (the wire codec's cross-process contract).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import vector
from repro.relational.coding import CodedInstance, TermTable, UNBOUND
from repro.relational.instance import Fact, Instance
from repro.relational.values import Fresh, ServiceCall, Var, is_value
from repro.utils import value_sort_key

numpy_live = pytest.mark.skipif(
    not vector.numpy_available(),
    reason="columns() requires numpy (not installed)")


# ---------------------------------------------------------------------------
# TermTable
# ---------------------------------------------------------------------------

def grow(table: TermTable, stage: int) -> None:
    """Deterministic interning sequence, in stages (values, then calls
    whose args reference earlier codes, then nested calls)."""
    if stage == 0:
        for term in ("a", "b", 3, True, ("t", 1), "a"):
            table.code(term)
    elif stage == 1:
        table.code(ServiceCall("f", ("a",)))
        table.code(ServiceCall("g", ("b", 3)))
        table.code("c")
    else:
        table.code(ServiceCall("f", ("c",)))
        table.code(ServiceCall("h", ("a", "c")))
        table.code(4.5)


class TestTermTable:
    def test_codes_are_dense_and_stable(self):
        table = TermTable()
        grow(table, 0)
        assert table.code("a") == 0
        assert table.code("b") == 1
        # 1 and True compare equal, so 3 is the third distinct term.
        assert len(table) == 5
        assert [table.term(code) for code in range(len(table))] \
            == ["a", "b", 3, True, ("t", 1)]

    def test_snapshot_replay_roundtrip(self):
        source = TermTable()
        for stage in range(3):
            grow(source, stage)
        replica = TermTable()
        replica.replay(source.snapshot())
        assert len(replica) == len(source)
        for code in range(len(source)):
            assert replica.term(code) == source.term(code)
            assert replica.is_call(code) == source.is_call(code)
            assert replica.sort_key(code) == source.sort_key(code)

    def test_replay_under_interleaved_growth(self):
        """Replay onto a table already holding a prefix, with the source
        growing between snapshots — each replay must align, including the
        call payloads whose args reference earlier codes."""
        source = TermTable()
        replica = TermTable()
        for stage in range(3):
            grow(source, stage)
            replica.replay(source.snapshot())
            assert len(replica) == len(source)
            # The replica may also run the same constructor sequence
            # locally before the next snapshot arrives — same codes.
            grow(replica, stage)
            assert len(replica) == len(source)
        assert replica.snapshot() == source.snapshot()

    def test_replay_misalignment_raises(self):
        source = TermTable()
        grow(source, 0)
        diverged = TermTable()
        diverged.code("zzz")  # takes code 0, colliding with "a"
        with pytest.raises(ValueError, match="misaligned"):
            diverged.replay(source.snapshot())

    def test_sort_keys_cached_and_correct(self):
        table = TermTable()
        grow(table, 0)
        grow(table, 1)
        for code in range(len(table)):
            assert table.sort_key(code) == value_sort_key(table.term(code))
            assert table.sort_key(code) is table.sort_key(code)


# ---------------------------------------------------------------------------
# CodedInstance lazy views
# ---------------------------------------------------------------------------

def sample_coded() -> CodedInstance:
    # Unsorted, with duplicates across relations; relation 7 is binary,
    # relation 8 unary, relation 9 ternary.
    return CodedInstance({
        7: ((3, 1), (0, 2), (3, 1), (1, 1), (2, 0)),
        8: ((5,), (0,)),
        9: ((1, 2, 3),),
    })


class TestCodedInstanceViews:
    def test_tuples_sorted_and_deduplicated_views_agree(self):
        coded = sample_coded()
        assert coded.tuples(7) == ((0, 2), (1, 1), (2, 0), (3, 1), (3, 1))
        assert coded.tuples(42) == ()
        # index groups exactly the stored tuples, per position.
        for position in (0, 1):
            grouped = coded.index(7, position)
            flattened = sorted(
                terms for tuples in grouped.values() for terms in tuples)
            assert flattened == sorted(coded.tuples(7))
            for code, tuples in grouped.items():
                assert all(terms[position] == code for terms in tuples)
        # has() agrees with membership in the stored tuples.
        assert coded.has(7, (2, 0))
        assert not coded.has(7, (0, 3))
        assert not coded.has(42, ())

    def test_build_order_invariance(self):
        shuffled = CodedInstance({
            7: ((1, 1), (3, 1), (2, 0), (3, 1), (0, 2)),
            9: ((1, 2, 3),),
            8: ((0,), (5,)),
        })
        baseline = sample_coded()
        assert shuffled.by_relation == baseline.by_relation
        assert shuffled.fact_set() == baseline.fact_set()

    def test_adom_collects_call_args_not_calls(self):
        table = TermTable()
        a, b = table.code("a"), table.code("b")
        call = table.code(ServiceCall("f", ("a",)))
        coded = CodedInstance({0: ((a, call), (b, b))})
        assert coded.adom_codes(table) == frozenset({a, b})

    @numpy_live
    def test_columns_mirror_tuples(self):
        np = vector.require_numpy()
        coded = sample_coded()
        for relation in (7, 8, 9):
            matrix = coded.columns(relation)
            assert matrix.dtype == np.int64
            assert list(map(tuple, matrix.tolist())) \
                == list(coded.tuples(relation))
        assert coded.columns(42) is None

    @numpy_live
    def test_columns_cached_per_relation(self):
        coded = sample_coded()
        assert coded.columns(7) is coded.columns(7)

    @numpy_live
    def test_interleaved_materialization_stays_consistent(self):
        """Materialize the views in mixed orders; all must keep describing
        the same tuples (none caches a partial view of another)."""
        for order in ("columns-first", "index-first"):
            coded = sample_coded()
            if order == "columns-first":
                columns = coded.columns(7)
                index = coded.index(7, 0)
                _ = coded.has(7, (1, 1))
            else:
                index = coded.index(7, 0)
                _ = coded.has(7, (1, 1))
                columns = coded.columns(7)
            assert list(map(tuple, columns.tolist())) \
                == list(coded.tuples(7))
            assert sorted(
                terms for tuples in index.values() for terms in tuples) \
                == sorted(coded.tuples(7))
            assert coded.vector_cache() is coded.vector_cache()

    def test_unbound_sentinel_below_all_codes(self):
        # The vector backend's +1 key shift and the compiled plans both
        # rely on UNBOUND sitting strictly below every real code.
        assert UNBOUND == -1
        table = TermTable()
        grow(table, 0)
        assert all(code > UNBOUND for code in range(len(table)))


# ---------------------------------------------------------------------------
# ADOM parity: distinct-term scans vs a plain per-term reference
# ---------------------------------------------------------------------------

_values = st.one_of(st.sampled_from(["a", "b", "c"]), st.integers(0, 3),
                    st.builds(Fresh, st.integers(0, 3)))
#: Call arguments: values, and non-values (a nested call, a variable).
_arguments = st.one_of(
    _values, st.builds(lambda value: ServiceCall("h", (value,)), _values),
    st.just(Var("x")))
_calls = st.builds(lambda function, args: ServiceCall(function, tuple(args)),
                   st.sampled_from(["f", "g"]),
                   st.lists(_arguments, max_size=2))
_terms = st.one_of(_values, _values, _calls)
_facts = st.lists(st.one_of(
    st.builds(lambda a, b: Fact("R", (a, b)), _terms, _terms),
    st.builds(lambda a: Fact("S", (a,)), _terms)), max_size=8)


def reference_adom(facts):
    """``(ADOM, holds a call)`` walking every term of every fact."""
    values, calls = set(), False
    for current in facts:
        for term in current.terms:
            if isinstance(term, ServiceCall):
                calls = True
                values.update(arg for arg in term.args if is_value(arg))
            else:
                values.add(term)
    return frozenset(values), calls


@given(_facts, st.booleans())
@settings(max_examples=150, deadline=None)
def test_adom_scans_match_per_term_reference(facts, flag_first):
    expected, calls = reference_adom(facts)
    assert Instance(facts).active_domain() == expected
    table = TermTable()
    grouped = {}
    for current in facts:
        grouped.setdefault(table.code(current.relation), []).append(
            table.codes(current.terms))
    coded = CodedInstance(
        {relation: tuple(tuples) for relation, tuples in grouped.items()})
    if flag_first:  # the flag and the adom come from one pass, any order
        assert coded.holds_calls(table) is calls
    assert frozenset(table.term(code) for code in coded.adom_codes(table)) \
        == expected
    assert coded.holds_calls(table) is calls
