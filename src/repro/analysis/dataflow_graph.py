"""Dataflow graph, GR-acyclicity, GR+-acyclicity (Section 5.4, App. C.4).

For nondeterministic services the relevant sufficient condition for
state-boundedness is *GR-acyclicity* ("generate-recall acyclicity") over the
dataflow graph: nodes are relation names (plus the pseudo-node ``true`` for
effects whose body has no atoms, as in Figure 9); for every effect of the
positive approximate, every body atom ``R`` and head atom ``Q`` and head
position ``i``:

* ordinary edge ``R -> Q`` when the term at ``i`` is a constant or variable;
* special edge ``R -> Q`` when the term at ``i`` is a service call.

Edges carry unique ids and the set of actions they correspond to (needed by
the GR+ relaxation). GR-acyclicity forbids a path ``pi1 pi2 pi3`` where
``pi1, pi3`` are simple cycles and ``pi2`` contains a special edge not in
``pi1`` — a "generate cycle" feeding a "recall cycle". GR+-acyclicity allows
such a path when ``pi2`` contains an edge that is never simultaneously
active with any subsequent edge of ``pi2 pi3`` (checked via disjointness of
the edges' action sets), so the recall cycle is flushed between waves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.digraph import reachable, strongly_connected_components
from repro.core.dcds import DCDS
from repro.fol.ast import TrueF
from repro.relational.values import Param, ServiceCall, Var

TRUE_NODE = "true"


@dataclass(frozen=True)
class FlowEdge:
    """One dataflow edge ``(R1, id, R2, special)`` with its action set."""

    source: str
    target: str
    special: bool
    edge_id: int
    actions: FrozenSet[str]

    def __repr__(self) -> str:
        marker = "*" if self.special else ""
        return (f"{self.source} -{marker}-> {self.target} "
                f"[#{self.edge_id} {sorted(self.actions)}]")


@dataclass
class GRWitness:
    """Evidence that the GR condition fails: a generate->recall chain."""

    special_edge: FlowEdge
    generate_cycle: Tuple[FlowEdge, ...]
    recall_cycle: Tuple[FlowEdge, ...]
    connecting_path: Tuple[FlowEdge, ...]

    def __repr__(self) -> str:
        return (f"GRWitness(special={self.special_edge!r}, "
                f"pi1={[e.edge_id for e in self.generate_cycle]}, "
                f"pi2={[e.edge_id for e in self.connecting_path]}, "
                f"pi3={[e.edge_id for e in self.recall_cycle]})")


@dataclass
class DataflowGraph:
    """The dataflow multigraph plus the acyclicity verdicts."""

    edges: List[FlowEdge]
    nodes: Set[str]
    dcds_name: str = ""
    _path_budget: int = 200000

    def special_edges(self) -> List[FlowEdge]:
        return [edge for edge in self.edges if edge.special]

    def _adjacency(self, exclude: Optional[FlowEdge] = None
                   ) -> Dict[str, List[str]]:
        adjacency: Dict[str, List[str]] = {node: [] for node in self.nodes}
        for edge in self.edges:
            if exclude is not None and edge.edge_id == exclude.edge_id:
                continue
            adjacency.setdefault(edge.source, []).append(edge.target)
        return adjacency

    @staticmethod
    def _cycle_nodes(adjacency: Dict[str, List[str]]) -> Set[str]:
        """Nodes lying on some cycle (nontrivial SCC or self-loop)."""
        on_cycle: Set[str] = set()
        for component in strongly_connected_components(adjacency):
            if len(component) > 1:
                on_cycle.update(component)
        for source, targets in adjacency.items():
            if source in targets:
                on_cycle.add(source)
        return on_cycle

    # -- GR-acyclicity -----------------------------------------------------------

    def is_gr_acyclic(self) -> bool:
        return self.gr_violation() is None

    def gr_violation(self) -> Optional[FlowEdge]:
        """A special edge witnessing non-GR-acyclicity, if any.

        Edge ``e = (u, v)`` is a witness when (i) some cycle avoiding ``e``
        reaches ``u`` (the generate cycle pi1, with e in pi2 disjoint from
        pi1's edges) and (ii) ``v`` reaches some cycle (the recall cycle
        pi3).
        """
        full = self._adjacency()
        full_cycle_nodes = self._cycle_nodes(full)
        for edge in self.special_edges():
            generators = self._cycle_nodes(self._adjacency(exclude=edge))
            # (i) u reachable from a cycle that avoids e (path may use e).
            if edge.source not in reachable(full, generators):
                continue
            # (ii) v reaches a recall cycle.
            if not full_cycle_nodes.isdisjoint(
                    reachable(full, (edge.target,))):
                return edge
        return None

    # -- GR+-acyclicity -----------------------------------------------------------

    def is_gr_plus_acyclic(self) -> bool:
        return self.gr_plus_violation() is None

    def gr_plus_violation(self) -> Optional[GRWitness]:
        """Search for a pi1 pi2 pi3 chain with *no* escape edge in pi2.

        An escape edge (App. C.4) is an edge of pi2 whose action set is
        disjoint from the action sets of all subsequent edges of pi2 and all
        edges of pi3 — executing it disables everything that would keep the
        recall cycle's values alive, flushing the cycle between waves.

        Enumeration is over edge-simple cycles and connecting paths with a
        work budget; the graphs produced by DCDS process layers are small
        (one node per relation), so the search is exact in practice.
        """
        budget = [self._path_budget]
        cycles = list(self._simple_cycles(budget))
        by_start: Dict[str, List[Tuple[FlowEdge, ...]]] = {}
        for cycle in cycles:
            for edge in cycle:
                by_start.setdefault(edge.source, []).append(cycle)

        for special in self.special_edges():
            for pi1 in cycles:
                pi1_ids = {edge.edge_id for edge in pi1}
                if special.edge_id in pi1_ids:
                    continue
                for start in {edge.source for edge in pi1}:
                    witness = self._search_pi2(
                        start, special, pi1, by_start, budget)
                    if witness is not None:
                        return witness
        return None

    def _search_pi2(self, start: str, special: FlowEdge,
                    pi1: Tuple[FlowEdge, ...],
                    cycles_by_node: Dict[str, List[Tuple[FlowEdge, ...]]],
                    budget: List[int]) -> Optional[GRWitness]:
        """DFS over edge-simple paths from ``start`` that traverse
        ``special``; on reaching a node with a recall cycle, test the escape
        condition."""
        out_edges: Dict[str, List[FlowEdge]] = {}
        for edge in self.edges:
            out_edges.setdefault(edge.source, []).append(edge)

        def escape_exists(path: Sequence[FlowEdge],
                          pi3: Tuple[FlowEdge, ...]) -> bool:
            pi3_actions: FrozenSet[str] = frozenset()
            for edge in pi3:
                pi3_actions |= edge.actions
            suffix_actions = pi3_actions
            # Walk pi2 backwards accumulating the actions of later edges.
            for index in range(len(path) - 1, -1, -1):
                edge = path[index]
                if not (edge.actions & suffix_actions):
                    return True
                suffix_actions |= edge.actions
            return False

        def dfs(node: str, path: List[FlowEdge], used: Set[int],
                seen_special: bool) -> Optional[GRWitness]:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            if seen_special and path:
                for pi3 in cycles_by_node.get(node, ()):  # recall cycles here
                    if not escape_exists(path, pi3):
                        return GRWitness(special, pi1, pi3, tuple(path))
            for edge in out_edges.get(node, ()):  # extend pi2
                if edge.edge_id in used:
                    continue
                path.append(edge)
                used.add(edge.edge_id)
                result = dfs(edge.target, path,
                             used, seen_special or
                             edge.edge_id == special.edge_id)
                used.discard(edge.edge_id)
                path.pop()
                if result is not None:
                    return result
            return None

        return dfs(start, [], set(), False)

    def _simple_cycles(self, budget: List[int]
                       ) -> Iterator[Tuple[FlowEdge, ...]]:
        """Edge-simple cycles of the multigraph (as edge tuples)."""
        out_edges: Dict[str, List[FlowEdge]] = {}
        for edge in self.edges:
            out_edges.setdefault(edge.source, []).append(edge)
        emitted: Set[Tuple[int, ...]] = set()

        def canonical(cycle: Tuple[FlowEdge, ...]) -> Tuple[int, ...]:
            ids = [edge.edge_id for edge in cycle]
            smallest = min(range(len(ids)), key=lambda i: ids[i])
            rotated = tuple(ids[smallest:] + ids[:smallest])
            return rotated

        def dfs(origin: str, node: str, path: List[FlowEdge],
                used: Set[int]) -> Iterator[Tuple[FlowEdge, ...]]:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            for edge in out_edges.get(node, ()):
                if edge.edge_id in used:
                    continue
                if edge.target == origin:
                    cycle = tuple(path + [edge])
                    key = canonical(cycle)
                    if key not in emitted:
                        emitted.add(key)
                        yield cycle
                    continue
                # Keep cycles node-simple (except the closing node) to bound
                # the enumeration; recall/generate cycles are simple cycles
                # in the paper's definition.
                if any(previous.target == edge.target for previous in path):
                    continue
                path.append(edge)
                used.add(edge.edge_id)
                yield from dfs(origin, edge.target, path, used)
                used.discard(edge.edge_id)
                path.pop()

        for origin in sorted(self.nodes):
            yield from dfs(origin, origin, [], set())

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> str:
        lines = [f"Dataflow graph of {self.dcds_name!r}: "
                 f"{len(self.nodes)} nodes, {len(self.edges)} edges"]
        for edge in sorted(self.edges, key=lambda e: e.edge_id):
            lines.append(f"  {edge!r}")
        gr = "GR-acyclic" if self.is_gr_acyclic() \
            else f"NOT GR-acyclic (witness {self.gr_violation()!r})"
        lines.append(f"  verdict: {gr}")
        if not self.is_gr_acyclic():
            plus = "GR+-acyclic" if self.is_gr_plus_acyclic() \
                else "NOT GR+-acyclic"
            lines.append(f"  relaxed verdict: {plus}")
        return "\n".join(lines)


def dataflow_graph(dcds: DCDS) -> DataflowGraph:
    """Build the dataflow graph from the DCDS (positive-approximate view)."""
    nodes: Set[str] = set()
    edges: List[FlowEdge] = []
    edge_counter = 0

    # One edge per (effect, body atom, head atom, position), each with a
    # unique id, exactly as in the paper's definition — parallel edges are
    # meaningful (Example 5.3 has two special self-loops on R).
    for action in dcds.process.actions:
        for effect in action.effects:
            body_relations = sorted(
                {atom_.relation for atom_ in effect.q_plus.atoms()})
            if not body_relations:
                body_relations = [TRUE_NODE]  # effects guarded by ``true``
            for atom_ in effect.head:
                for term in atom_.terms:
                    special = isinstance(term, ServiceCall)
                    for source in body_relations:
                        nodes.add(source)
                        nodes.add(atom_.relation)
                        edges.append(FlowEdge(
                            source, atom_.relation, special, edge_counter,
                            frozenset({action.name})))
                        edge_counter += 1

    # The paper's built-in perpetual copy of the nullary ``true`` relation
    # (Appendix E): a self-loop active in every action.
    if TRUE_NODE in nodes:
        all_actions = frozenset(
            action.name for action in dcds.process.actions)
        edges.append(FlowEdge(TRUE_NODE, TRUE_NODE, False, edge_counter,
                              all_actions))
    return DataflowGraph(edges, nodes, dcds.name)


def is_gr_acyclic(dcds: DCDS) -> bool:
    """Convenience: the Theorem 5.6 precondition."""
    return dataflow_graph(dcds).is_gr_acyclic()


def is_gr_plus_acyclic(dcds: DCDS) -> bool:
    """Convenience: the Theorem 5.7 precondition (GR+ relaxation)."""
    graph = dataflow_graph(dcds)
    return graph.is_gr_acyclic() or graph.is_gr_plus_acyclic()
