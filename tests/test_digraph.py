"""The stdlib digraph primitives against a brute-force transitive closure."""

from hypothesis import given, settings, strategies as st

from repro.analysis.digraph import reachable, strongly_connected_components


@st.composite
def multigraphs(draw):
    """Adjacency dicts over nodes ``0..n-1`` with parallel edges and
    self-loops; a few edges lead to nodes that are not keys."""
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, n + 1)),
                          max_size=4 * n + 2)) if n else []
    adjacency = {node: [] for node in range(n)}
    for source, target in edges:
        adjacency[source].append(target)
    return adjacency


def closure(adjacency):
    """``reach[u]`` = every node reachable from ``u`` in >= 0 steps."""
    nodes = set(adjacency)
    for successors in adjacency.values():
        nodes.update(successors)
    reach = {node: {node} | set(adjacency.get(node, ())) for node in nodes}
    for middle in nodes:
        for node in nodes:
            if middle in reach[node]:
                reach[node] |= reach[middle]
    return reach


@given(multigraphs())
@settings(max_examples=300, deadline=None)
def test_scc_partition_and_reverse_topological_order(adjacency):
    reach = closure(adjacency)
    components = strongly_connected_components(adjacency)
    members = [node for component in components for node in component]
    assert sorted(members) == sorted(reach)  # a partition of every node
    assert len(members) == len(set(members))
    position = {}
    for index, component in enumerate(components):
        for node in component:
            position[node] = index
    for u in reach:
        for v in reach:
            mutual = v in reach[u] and u in reach[v]
            assert mutual == (position[u] == position[v])
    # An edge between two components points to an earlier one.
    for source, successors in adjacency.items():
        for target in successors:
            assert position[target] <= position[source]


@given(multigraphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_reachability_matches_closure(adjacency, data):
    reach = closure(adjacency)
    nodes = sorted(reach)
    if not nodes:
        assert reachable(adjacency, ()) == set()
        return
    sources = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
    expected = set().union(*(reach[node] for node in sources))
    assert reachable(adjacency, sources) == expected
    for node in nodes:
        assert reachable(adjacency, (node,)) == reach[node]


def test_long_chain_needs_no_recursion():
    adjacency = {node: [node + 1] for node in range(20000)}
    adjacency[20000] = [0]
    components = strongly_connected_components(adjacency)
    assert len(components) == 1 and len(components[0]) == 20001
