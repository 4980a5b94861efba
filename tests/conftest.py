import pytest

from hamcirc.words import shortlex_words


def class_index(rank: int, level: int) -> dict:
    """The vertex of each class of the rank-n prefix quotient at ``level``,
    by its defining prefix (a letter tuple): the builders number classes in
    shortlex order.  A word's class is ``index[word.letters[:level]]``."""
    return {raw: i for i, (raw, _) in enumerate(shortlex_words(rank, level))}


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
