"""Dependency graph and weak acyclicity (Section 4.3, deterministic services).

Nodes are positions ``(relation, i)``; for every effect ``q+ ~> E`` of the
positive approximate and every variable ``x``:

* ``x`` at position ``(R1, j)`` in ``q+`` and at position ``(R2, k)`` in the
  head yields an *ordinary* edge ``(R1,j) -> (R2,k)``;
* ``x`` at ``(R1, j)`` in ``q+`` and inside a service call stored at
  ``(R2, k)`` yields a *special* edge.

A DCDS is weakly acyclic when no cycle goes through a special edge — the
sufficient condition for run-boundedness (Theorem 4.7), imported from chase
termination in data exchange [Fagin et al.].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.digraph import reachable, strongly_connected_components
from repro.core.dcds import DCDS
from repro.relational.values import (
    Param, ServiceCall, Var, term_variables)

Position = Tuple[str, int]
# ``{source: [(target, special), ...]}``: every position is a key, and the
# out-edges of a source are grouped by target, in first-insertion order.
PositionGraph = Dict[Position, List[Tuple[Position, bool]]]


def _normalize(term, param_map: Dict[Param, Var]):
    """Rewrite parameters into the free variables of the positive approximate."""
    if isinstance(term, Param):
        return param_map.setdefault(term, Var(f"p~{term.name}"))
    if isinstance(term, ServiceCall):
        return ServiceCall(term.function, tuple(
            _normalize(arg, param_map) for arg in term.args))
    return term


@dataclass
class DependencyGraph:
    """The edge-labeled position graph plus the weak-acyclicity verdict."""

    graph: PositionGraph
    dcds_name: str = ""

    @property
    def nodes(self) -> FrozenSet[Position]:
        return frozenset(self.graph)

    def edges(self) -> List[Tuple[Position, Position, bool]]:
        return [(source, target, special)
                for source, out in self.graph.items()
                for target, special in out]

    def _successors(self) -> Dict[Position, List[Position]]:
        return {source: [target for target, _ in out]
                for source, out in self.graph.items()}

    def ordinary_edges(self) -> List[Tuple[Position, Position]]:
        return [(s, t) for s, t, special in self.edges() if not special]

    def special_edges(self) -> List[Tuple[Position, Position]]:
        return [(s, t) for s, t, special in self.edges() if special]

    def is_weakly_acyclic(self) -> bool:
        """No cycle through a special edge: for every special edge
        ``u -> v``, ``u`` must not be reachable from ``v``."""
        return self.violating_special_edge() is None

    def violating_special_edge(self) -> Optional[Tuple[Position, Position]]:
        successors = self._successors()
        for source, target in self.special_edges():
            if source in reachable(successors, (target,)):
                return (source, target)
        return None

    def ranks(self) -> Dict[Position, int]:
        """The rank of each position: max number of special edges on any
        incoming path (finite iff weakly acyclic; used in the proof of
        Theorem 4.7 to bound the polynomial)."""
        if not self.is_weakly_acyclic():
            raise ValueError("ranks are only defined for weakly acyclic graphs")
        # Longest path over the SCCs in topological order, weighted by
        # special edges (none lies inside an SCC of a weakly acyclic graph).
        rank: Dict[Position, int] = {node: 0 for node in self.graph}
        for members in reversed(
                strongly_connected_components(self._successors())):
            base = max(rank[node] for node in members)
            for node in members:
                rank[node] = base
            for node in members:
                for target, special in self.graph[node]:
                    candidate = rank[node] + (1 if special else 0)
                    if candidate > rank[target]:
                        rank[target] = candidate
        return rank

    def describe(self) -> str:
        lines = [f"Dependency graph of {self.dcds_name!r}: "
                 f"{len(self.nodes)} positions, "
                 f"{len(self.edges())} edges"]
        for source, target, special in sorted(
                self.edges(), key=lambda item: (repr(item[0]), repr(item[1]),
                                                item[2])):
            marker = "*" if special else " "
            lines.append(f"  {source} -{marker}-> {target}")
        verdict = "weakly acyclic" if self.is_weakly_acyclic() \
            else f"NOT weakly acyclic (witness {self.violating_special_edge()})"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def dependency_graph(dcds: DCDS) -> DependencyGraph:
    """Build the dependency graph of the DCDS's positive approximate.

    Works directly on the original specification (parameters are treated as
    the free variables they become in ``S+``; negative filters are ignored).
    """
    graph: PositionGraph = {}
    for relation in dcds.schema:
        for position in range(relation.arity):
            graph[(relation.name, position)] = []

    for action in dcds.process.actions:
        param_map: Dict[Param, Var] = {}
        for effect in action.effects:
            body_positions = _variable_positions(effect, param_map)
            for atom_ in effect.head:
                for position, term in enumerate(atom_.terms):
                    normalized = _normalize(term, param_map)
                    target = (atom_.relation, position)
                    if isinstance(normalized, Var):
                        for source in body_positions.get(normalized, ()):
                            _add_edge(graph, source, target, special=False)
                    elif isinstance(normalized, ServiceCall):
                        argument_vars: Set[Var] = set()
                        for argument in normalized.args:
                            argument_vars.update(term_variables(argument))
                        for variable in argument_vars:
                            for source in body_positions.get(variable, ()):
                                _add_edge(graph, source, target, special=True)
    return DependencyGraph(graph, dcds.name)


def _variable_positions(effect, param_map) -> Dict[Var, Set[Position]]:
    """Positions of each variable within the atoms of ``q+`` (parameters
    included, as their positive-approximate variables)."""
    positions: Dict[Var, Set[Position]] = {}
    for atom_ in effect.q_plus.atoms():
        for index, term in enumerate(atom_.terms):
            normalized = _normalize(term, param_map)
            if isinstance(normalized, Var):
                positions.setdefault(normalized, set()).add(
                    (atom_.relation, index))
    return positions


def _add_edge(graph: PositionGraph, source: Position, target: Position,
              special: bool) -> None:
    # Deduplicate structurally identical edges (same endpoints + kind), and
    # keep the out-edges to one target next to each other.
    out = graph.setdefault(source, [])
    graph.setdefault(target, [])
    slot = len(out)
    for index, (existing_target, existing_special) in enumerate(out):
        if existing_target == target:
            if existing_special == special:
                return
            slot = index + 1
    out.insert(slot, (target, special))


def is_weakly_acyclic(dcds: DCDS) -> bool:
    """Convenience: the Theorem 4.8 precondition."""
    return dependency_graph(dcds).is_weakly_acyclic()
