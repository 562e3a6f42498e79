"""Dependency graphs (Fig 5, 10) and dataflow graphs (Fig 8, 9)."""

import pytest

from repro.analysis import (
    TRUE_NODE, dataflow_graph, dependency_graph, is_gr_acyclic,
    is_gr_plus_acyclic, is_weakly_acyclic, positive_approximate)
from repro.core import ServiceSemantics
from repro.gallery import (
    audit_system, example_41, example_42, example_43, example_52,
    example_53, library_system, request_system, student_registry,
    theorem_45_witness)
from repro.workloads import (
    chain_dcds, commitment_blowup_dcds, conveyor_dcds, lattice_dcds,
    random_dcds, warehouse_dcds)


class TestFigure5:
    """Dependency graphs and weak acyclicity."""

    def test_ex41_weakly_acyclic(self, ex41):
        graph = dependency_graph(ex41)
        assert graph.is_weakly_acyclic()
        # Fig 5(a): special edges P,1 -> Q,1 and P,1 -> Q,2.
        assert set(graph.special_edges()) == {
            (("P", 0), ("Q", 0)), (("P", 0), ("Q", 1))}
        # Ordinary edges: P,1 -> R,1 and P,1 -> P,1.
        assert (("P", 0), ("R", 0)) in graph.ordinary_edges()
        assert (("P", 0), ("P", 0)) in graph.ordinary_edges()

    def test_ex42_same_graph(self, ex41, ex42):
        # Examples 4.1/4.2 share the dataflow structure (Fig 5(a)).
        first = dependency_graph(ex41)
        second = dependency_graph(ex42)
        assert set(first.edges()) == set(second.edges())

    def test_ex43_not_weakly_acyclic(self, ex43_det):
        graph = dependency_graph(ex43_det)
        assert not graph.is_weakly_acyclic()
        assert graph.violating_special_edge() == (("R", 0), ("Q", 0))

    def test_ranks_on_chain(self):
        graph = dependency_graph(chain_dcds(3))
        ranks = graph.ranks()
        assert ranks[("L0", 0)] == 0
        assert ranks[("L1", 0)] == 1
        assert ranks[("L3", 0)] == 3

    def test_ranks_rejected_when_cyclic(self, ex43_det):
        with pytest.raises(ValueError):
            dependency_graph(ex43_det).ranks()

    def test_describe(self, ex43_det):
        text = dependency_graph(ex43_det).describe()
        assert "NOT weakly acyclic" in text


class TestFigure8:
    """Dataflow graphs and GR-acyclicity."""

    def test_ex41_gr_acyclic(self, ex41):
        assert is_gr_acyclic(ex41)

    def test_ex43_gr_acyclic(self, ex43_nondet):
        # Example 5.1: the R->Q->R cycle contains the special edge itself,
        # so there is no generate cycle *feeding* a recall cycle.
        assert is_gr_acyclic(ex43_nondet)

    def test_ex52_not_gr_acyclic(self, ex52):
        graph = dataflow_graph(ex52)
        assert not graph.is_gr_acyclic()
        witness = graph.gr_violation()
        assert witness.special
        assert (witness.source, witness.target) == ("R", "Q")

    def test_ex52_not_gr_plus(self, ex52):
        # Single action: nothing is ever "not simultaneously active".
        assert not is_gr_plus_acyclic(ex52)

    def test_ex53_parallel_special_self_loops(self, ex53):
        graph = dataflow_graph(ex53)
        specials = graph.special_edges()
        assert len(specials) == 2  # two distinct edges R -> R (Fig 8(c))
        assert not graph.is_gr_acyclic()
        assert not graph.is_gr_plus_acyclic()

    def test_gr_witness_structure(self, ex52):
        graph = dataflow_graph(ex52)
        witness = graph.gr_plus_violation()
        assert witness is not None
        assert any(edge.special for edge in witness.connecting_path)


class TestFigure9:
    """The request system: not GR-acyclic, GR+-acyclic."""

    @pytest.fixture(scope="class")
    def graph(self):
        return dataflow_graph(request_system())

    def test_has_true_node(self, graph):
        assert TRUE_NODE in graph.nodes
        # Figure 9's nodes plus our Decision relation (which pins the
        # monitor's output to the two legal decisions).
        assert graph.nodes == {TRUE_NODE, "Status", "Travel", "Hotel",
                               "Flight", "Decision"}

    def test_true_self_loop_present(self, graph):
        loops = [edge for edge in graph.edges
                 if edge.source == TRUE_NODE and edge.target == TRUE_NODE]
        assert len(loops) == 1
        assert len(loops[0].actions) == 4  # built-in copy in every action

    def test_multiple_special_edges_to_hotel(self, graph):
        hotel_specials = [edge for edge in graph.edges
                          if edge.target == "Hotel" and edge.special]
        assert len(hotel_specials) == 10  # 5 from Initiate + 5 from Update

    def test_not_gr_acyclic(self, graph):
        assert not graph.is_gr_acyclic()

    def test_gr_plus_acyclic(self, graph):
        assert graph.is_gr_plus_acyclic()

    def test_slim_variant_same_verdicts(self):
        graph = dataflow_graph(request_system(slim=True))
        assert not graph.is_gr_acyclic()
        assert graph.is_gr_plus_acyclic()


class TestFigure10:
    """The audit system: weakly acyclic."""

    def test_weakly_acyclic(self):
        graph = dependency_graph(audit_system())
        assert graph.is_weakly_acyclic()

    def test_special_edges_into_passed_positions(self):
        graph = dependency_graph(audit_system())
        special_targets = {target for _, target in graph.special_edges()}
        assert ("Hotel", 6) in special_targets   # the `passed` position
        assert ("Flight", 6) in special_targets

    def test_position_count(self):
        graph = dependency_graph(audit_system())
        # Status/1 + Travel/3 + Hotel/7 + Flight/7 = 18 positions (Fig 10).
        assert len(graph.nodes) == 18

    def test_slim_variant(self):
        assert is_weakly_acyclic(audit_system(slim=True))


class TestStudentRegistry:
    def test_not_gr_but_gr_plus(self, students):
        graph = dataflow_graph(students)
        assert not graph.is_gr_acyclic()
        assert graph.is_gr_plus_acyclic()


SWEEP_SPECS = {
    "example_41": example_41,
    "example_42": example_42,
    "example_43": example_43,
    "example_52": example_52,
    "example_53": example_53,
    "theorem_45_witness": theorem_45_witness,
    "library_system": library_system,
    "request_system": request_system,
    "request_system_slim": lambda: request_system(slim=True),
    "audit_system": audit_system,
    "audit_system_slim": lambda: audit_system(slim=True),
    "student_registry": student_registry,
    "chain_dcds_3": lambda: chain_dcds(3),
    "warehouse_dcds_1": lambda: warehouse_dcds(1, payload=8),
    "lattice_dcds_2": lambda: lattice_dcds(2),
    "conveyor_dcds_2": lambda: conveyor_dcds(2),
    "commitment_blowup_3": lambda: commitment_blowup_dcds(3),
}
for _shape in ("free", "weakly-acyclic", "gr-acyclic"):
    for _seed in range(12):
        SWEEP_SPECS[f"random_{_shape}_{_seed}"] = (
            lambda seed=_seed, shape=_shape: random_dcds(
                seed, n_relations=4, n_actions=3, shape=shape))

#: Per spec: (is_weakly_acyclic, violating_special_edge, the nonzero ranks
#: sorted (None when not weakly acyclic), is_gr_acyclic, the edge id of
#: gr_violation, DataflowGraph.is_gr_plus_acyclic). Recorded with the
#: networkx-based checks; the stdlib digraph must reproduce every entry.
SWEEP_EXPECTED = {
    'example_41':
        (True, None, [(('Q', 0), 1), (('Q', 1), 1)], True, None, True),
    'example_42':
        (True, None, [(('Q', 0), 1), (('Q', 1), 1)], True, None, True),
    'example_43': (False, (('R', 0), ('Q', 0)), None, True, None, True),
    'example_52': (True, None, [(('Q', 0), 1)], False, 1, False),
    'example_53': (False, (('R', 0), ('R', 0)), None, False, 0, False),
    'theorem_45_witness': (True, None, [], True, None, True),
    'library_system': (True, None, [], True, None, True),
    'request_system': (True, None, [], False, 1, True),
    'request_system_slim': (True, None, [], False, 1, True),
    'audit_system':
        (True, None, [(('Flight', 6), 1), (('Hotel', 6), 1)], False, 10, True),
    'audit_system_slim':
        (True, None, [(('Flight', 2), 1), (('Hotel', 2), 1)], False, 6, True),
    'student_registry': (True, None, [(('Grad', 1), 1)], False, 1, True),
    'chain_dcds_3':
        (True, None, [
            (('L1', 0), 1), (('L2', 0), 2), (('L3', 0), 3)], True, None, True),
    'warehouse_dcds_1': (True, None, [], True, None, True),
    'lattice_dcds_2': (True, None, [], True, None, True),
    'conveyor_dcds_2': (True, None, [], True, None, True),
    'commitment_blowup_3':
        (True, None, [
            (('Out0', 0), 1), (('Out1', 0), 1), (('Out2', 0), 1)],
            True, None, True),
    'random_free_0': (False, (('R0', 1), ('R2', 0)), None, False, 0, False),
    'random_free_1': (False, (('R0', 0), ('R0', 0)), None, False, 1, False),
    'random_free_2': (False, (('R1', 0), ('R1', 0)), None, False, 4, False),
    'random_free_3': (False, (('R3', 1), ('R3', 0)), None, False, 6, False),
    'random_free_4': (False, (('R2', 0), ('R2', 0)), None, False, 6, False),
    'random_free_5':
        (True, None, [
            (('R0', 0), 2), (('R0', 1), 1), (('R1', 0), 1), (('R3', 0), 1)],
            True, None, True),
    'random_free_6': (False, (('R2', 0), ('R0', 0)), None, False, 8, False),
    'random_free_7': (False, (('R1', 0), ('R1', 0)), None, False, 4, False),
    'random_free_8':
        (True, None, [(('R0', 0), 1), (('R1', 0), 1)], False, 5, False),
    'random_free_9': (False, (('R0', 0), ('R0', 0)), None, False, 0, False),
    'random_free_10':
        (True, None, [
            (('R0', 0), 1), (('R1', 0), 1), (('R2', 0), 1)], False, 2, False),
    'random_free_11': (True, None, [(('R1', 0), 1)], True, None, True),
    'random_weakly-acyclic_0':
        (True, None, [
            (('R2', 0), 1), (('R3', 0), 2), (('R3', 1), 2)], False, 0, True),
    'random_weakly-acyclic_1':
        (True, None, [(('R3', 0), 1)], True, None, True),
    'random_weakly-acyclic_2':
        (True, None, [(('R2', 0), 1)], True, None, True),
    'random_weakly-acyclic_3':
        (True, None, [
            (('R1', 0), 1), (('R3', 0), 1), (('R3', 1), 1)], True, None, True),
    'random_weakly-acyclic_4':
        (True, None, [(('R3', 0), 1)], True, None, True),
    'random_weakly-acyclic_5':
        (True, None, [
            (('R1', 0), 1), (('R2', 0), 2), (('R3', 0), 3)], True, None, True),
    'random_weakly-acyclic_6': (True, None, [(('R3', 0), 1)], False, 5, False),
    'random_weakly-acyclic_7':
        (True, None, [(('R2', 0), 1)], True, None, True),
    'random_weakly-acyclic_8': (True, None, [], True, None, True),
    'random_weakly-acyclic_9':
        (True, None, [
            (('R1', 0), 1), (('R2', 0), 2), (('R3', 0), 2)], True, None, True),
    'random_weakly-acyclic_10': (True, None, [], True, None, True),
    'random_weakly-acyclic_11':
        (True, None, [(('R3', 0), 1)], True, None, True),
    'random_gr-acyclic_0': (True, None, [(('R3', 0), 1)], True, None, True),
    'random_gr-acyclic_1': (True, None, [(('R2', 0), 1)], True, None, True),
    'random_gr-acyclic_2': (True, None, [(('R2', 0), 1)], True, None, True),
    'random_gr-acyclic_3': (True, None, [(('R2', 0), 1)], True, None, True),
    'random_gr-acyclic_4':
        (True, None, [
            (('R2', 0), 1), (('R3', 0), 1), (('R3', 1), 1)], True, None, True),
    'random_gr-acyclic_5':
        (True, None, [(('R2', 0), 1), (('R3', 0), 2)], True, None, True),
    'random_gr-acyclic_6': (True, None, [(('R3', 0), 1)], True, None, True),
    'random_gr-acyclic_7': (True, None, [(('R2', 0), 1)], True, None, True),
    'random_gr-acyclic_8': (True, None, [], True, None, True),
    'random_gr-acyclic_9':
        (True, None, [(('R2', 0), 1), (('R3', 0), 2)], True, None, True),
    'random_gr-acyclic_10':
        (True, None, [(('R2', 0), 1), (('R3', 0), 1)], True, None, True),
    'random_gr-acyclic_11': (True, None, [], True, None, True),
}


def _static_summary(dcds):
    dependency = dependency_graph(dcds)
    weakly_acyclic = dependency.is_weakly_acyclic()
    ranks = None
    if weakly_acyclic:
        all_ranks = dependency.ranks()
        assert set(all_ranks) == dependency.nodes
        ranks = sorted((node, rank) for node, rank in all_ranks.items()
                       if rank)
    dataflow = dataflow_graph(dcds)
    violation = dataflow.gr_violation()
    return (weakly_acyclic, dependency.violating_special_edge(), ranks,
            violation is None,
            None if violation is None else violation.edge_id,
            dataflow.is_gr_plus_acyclic())


@pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
def test_static_checks_match_recorded_verdicts(name):
    assert _static_summary(SWEEP_SPECS[name]()) == SWEEP_EXPECTED[name]


def test_sweep_covers_every_verdict():
    verdicts = set()
    for weak, _, _, gr, _, gr_plus in SWEEP_EXPECTED.values():
        verdicts.add((weak, gr, gr_plus))
    assert {(True, True, True), (False, True, True), (True, False, True),
            (True, False, False), (False, False, False)} <= verdicts
    assert set(SWEEP_EXPECTED) == set(SWEEP_SPECS)


class TestPositiveApproximate:
    def test_rules_become_true(self, ex41):
        approx = positive_approximate(ex41)
        from repro.fol.ast import TrueF

        assert all(isinstance(rule.query, TrueF)
                   for rule in approx.process.rules)

    def test_constraints_dropped(self, ex42):
        approx = positive_approximate(ex42)
        assert approx.data.constraints == ()

    def test_negative_filters_dropped(self):
        from repro.core import DCDSBuilder
        from repro.fol.ast import TrueF

        builder = DCDSBuilder(name="nf")
        builder.schema("R/1", "S/1")
        builder.initial("R('a')")
        builder.action("go", "R(x) & ~S(x) ~> S(x)")
        builder.rule("true", "go")
        approx = positive_approximate(builder.build())
        effect = approx.process.actions[0].effects[0]
        assert isinstance(effect.q_minus, TrueF)

    def test_parameters_become_variables(self):
        from repro.core import DCDSBuilder

        builder = DCDSBuilder(name="pv")
        builder.schema("R/1", "S/1")
        builder.initial("R('a')")
        builder.action("go(p)", "R($p) ~> S($p)")
        builder.rule("R($p)", "go")
        approx = positive_approximate(builder.build())
        action = approx.process.action("go+")
        assert action.params == ()
        assert not action.effects[0].parameters()
