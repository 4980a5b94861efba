import pytest


@pytest.fixture
def nx_outerplanar():
    """The networkx reference for outerplanarity: planar after adding a vertex
    adjacent to every vertex.  Tests that use it are skipped without networkx,
    which is a test-only extra."""
    nx = pytest.importorskip("networkx")

    def check(g):
        apex = g.n_vertices
        graph = nx.Graph()
        graph.add_nodes_from(range(apex + 1))
        graph.add_edges_from((u, v) for u, v, _ in g.edges)
        graph.add_edges_from((apex, v) for v in range(apex))
        return nx.check_planarity(graph)[0]

    return check
