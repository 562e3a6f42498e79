"""Strongly connected components and reachability over adjacency dicts.

The static checks of Sections 4.3 and 5.4 run on tiny graphs (one node per
relation position or per relation), so they need only two primitives over a
plain ``{node: [successor, ...]}`` mapping. Parallel edges and self-loops are
allowed; a node that only occurs as a successor is still visited. Iteration
follows the mapping's insertion order, so every result is deterministic.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Set

Node = Hashable
Adjacency = Mapping[Node, Iterable[Node]]


def strongly_connected_components(adjacency: Adjacency) -> List[List[Node]]:
    """Tarjan's algorithm, iterative (no recursion limit on long chains).

    Components come out in reverse topological order: when an edge leads
    from component ``A`` to a different component ``B``, ``B`` is listed
    before ``A``.
    """
    index: Dict[Node, int] = {}
    low: Dict[Node, int] = {}
    stack: List[Node] = []
    on_stack: Set[Node] = set()
    components: List[List[Node]] = []
    work: List = []  # (node, iterator over its remaining successors)

    def visit(node: Node) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(adjacency.get(node, ()))))

    for root in adjacency:
        if root in index:
            continue
        visit(root)
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    visit(successor)
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def reachable(adjacency: Adjacency, sources: Iterable[Node]) -> Set[Node]:
    """Every node reachable from ``sources`` by a path of length >= 0."""
    seen: Set[Node] = set(sources)
    pending = list(seen)
    while pending:
        for successor in adjacency.get(pending.pop(), ()):
            if successor not in seen:
                seen.add(successor)
                pending.append(successor)
    return seen

