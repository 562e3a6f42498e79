"""The generic transition-system container."""

import pytest

from repro.errors import ReproError
from repro.relational import DatabaseSchema, Instance, fact
from repro.semantics import TransitionSystem


@pytest.fixture
def ts():
    schema = DatabaseSchema.of("R/1")
    system = TransitionSystem(schema, "s0", name="toy")
    system.add_state("s0", Instance([fact("R", "a")]))
    system.add_state("s1", Instance([fact("R", "b")]))
    system.add_state("s2", Instance.empty())
    system.add_edge("s0", "s1", "go")
    system.add_edge("s1", "s2")
    system.add_edge("s2", "s2")
    return system


class TestConstruction:
    def test_add_state_idempotent(self, ts):
        ts.add_state("s0", Instance([fact("R", "a")]))
        assert len(ts) == 3

    def test_add_state_conflicting_db(self, ts):
        with pytest.raises(ReproError):
            ts.add_state("s0", Instance([fact("R", "zzz")]))

    def test_add_edge_requires_states(self, ts):
        with pytest.raises(ReproError):
            ts.add_edge("s0", "unknown")

    def test_schema_validated(self, ts):
        with pytest.raises(Exception):
            ts.add_state("bad", Instance([fact("S", "a")]))


class TestQueries:
    def test_successors(self, ts):
        assert ts.successors("s0") == {"s1"}
        assert ts.successors("s2") == {"s2"}

    def test_labeled_edges(self, ts):
        assert ("go", "s1") in ts.labeled_edges("s0")

    def test_edge_count(self, ts):
        assert ts.edge_count() == 3

    def test_values(self, ts):
        assert ts.values() == frozenset({"a", "b"})

    def test_reachable(self, ts):
        assert ts.reachable_from() == {"s0", "s1", "s2"}
        assert ts.reachable_from("s1") == {"s1", "s2"}

    def test_total(self, ts):
        assert ts.is_total()
        ts.add_state("dead", Instance.empty())
        assert not ts.is_total()

    def test_depth_levels(self, ts):
        levels = ts.depth_levels()
        assert levels[0] == frozenset({"s0"})
        assert levels[1] == frozenset({"s1"})
        assert levels[2] == frozenset({"s2"})

    def test_stats(self, ts):
        stats = ts.stats()
        assert stats["states"] == 3
        assert stats["edges"] == 3
        assert stats["max_adom"] == 1

    def test_pretty_contains_initial_marker(self, ts):
        rendered = ts.pretty()
        assert "toy" in rendered
        assert "*" in rendered

    def test_discovery_order_follows_insertion(self, ts):
        ts.add_state("late", Instance.empty())
        assert ts.discovery_order() == ("s0", "s1", "s2", "late")

    def test_degrees_count_distinct_successors(self, ts):
        from repro.mucalc.engine import box_states, deadlock_states

        # Three labelled edges into s1 and two into s2: out-degree counts
        # distinct successor states, not edges.
        ts.add_edge("s0", "s1", "again")
        ts.add_edge("s0", "s1", None)
        ts.add_edge("s0", "s2", "skip")
        ts.add_edge("s0", "s2", "jump")
        ts.add_state("dead", Instance.empty())
        assert ts.edge_count() == 7
        assert [ts.out_degree(s) for s in ("s0", "s1", "s2", "dead")] \
            == [2, 1, 1, 0]
        deadlocks = deadlock_states(ts)
        assert deadlocks == {"dead"}
        # s0 reaches s1 and s2 only, so [-]{s1, s2} holds there despite
        # the duplicate edges; dead satisfies every box vacuously.
        assert box_states(ts, {"s1", "s2"}, deadlocks) \
            == {"s0", "s1", "s2", "dead"}
        assert box_states(ts, {"s1"}, deadlocks) == {"dead"}


class TestRelabel:
    def test_relabel(self, ts):
        renamed = ts.relabel(lambda state: f"x-{state}")
        assert renamed.initial == "x-s0"
        assert renamed.successors("x-s0") == {"x-s1"}
        assert renamed.db("x-s1") == ts.db("s1")

    def test_relabel_requires_injective(self, ts):
        with pytest.raises(ReproError):
            ts.relabel(lambda state: "same")
