import gc
import random

import pytest

import oracles
from hamcirc.multigraph import (
    DOT_CHUNK,
    Multigraph,
    cycle_positions,
    enumerate_hamiltonian_cycles,
    is_outerplanar,
    spans_nest,
)
from oracles import (
    EdgeCut,
    circulant_graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    corpus_graphs,
    cubic_cycles_through_edge,
    cycle_graph,
    edges_between,
    find_cut_separating_pair,
    generalized_petersen,
    has_minor,
    induced_subgraph,
    neighbors,
    outerplanar_by_minor_search,
    parse_adjacency,
    simple_support,
    without_edges,
)


class TestConstruction:
    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(["x", "y"], [(0, 0)])

    def test_parallel_edges_and_degrees(self):
        g = Multigraph(["x", "y"], [(0, 1), (1, 0)])
        assert g.degrees() == [2, 2]
        assert len(edges_between(g, 0, 1)) == 2
        assert not g.is_simple()

    def test_handshake(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(2, 9)
            edges = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(12))
            ]
            edges = [(u, v) for u, v in edges if u != v]
            g = Multigraph([str(i) for i in range(n)], edges)
            assert sum(g.degrees()) == 2 * g.n_edges


class TestCycleRecognition:
    def test_triangle(self):
        assert cycle_graph(3).is_cycle()

    def test_two_disjoint_triangles(self):
        g = Multigraph(
            list("abcdef"), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert not g.is_cycle()

    def test_parallel_pairs_are_not_a_cycle(self):
        g = Multigraph(list("abcd"), [(0, 1), (0, 1), (2, 3), (2, 3)])
        assert set(g.degrees()) == {2} and not g.is_cycle()

    def test_path_is_not_cycle(self):
        g = Multigraph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
        assert not g.is_cycle()

    def test_double_edge_is_not_cycle(self):
        g = Multigraph(["x", "y"], [(0, 1), (0, 1)])
        assert not g.is_cycle()

    def test_cycle_edge_count(self):
        for k in (3, 5, 8):
            g = cycle_graph(k)
            assert g.is_cycle() and g.n_edges == g.n_vertices

    def test_cycle_test_keeps_no_positions(self, monkeypatch):
        # is_cycle walks the XOR links itself, with no position list
        def no_positions(g):
            raise AssertionError("is_cycle recorded positions")

        monkeypatch.setattr("hamcirc.multigraph.cycle_positions", no_positions)
        assert cycle_graph(7).is_cycle()
        assert not Multigraph(list("abcd"), [(0, 1), (0, 1), (2, 3), (2, 3)]).is_cycle()


class TestComponents:
    def test_empty(self):
        assert connected_components(Multigraph([], [])) == []

    def test_triangle_plus_isolated(self):
        g = Multigraph(list("abcd"), [(0, 1), (1, 2), (2, 0)])
        assert connected_components(g) == [[0, 1, 2], [3]]

    def test_k4_connected(self):
        assert connected_components(complete_graph(4)) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("seed", range(3))
    def test_is_connected_matches_components(self, seed):
        # the one-traversal test against the component list: 0 and 1 vertex,
        # isolated vertices, parallel edges, sparse and dense graphs
        rng = random.Random(seed)
        answers = set()
        for k in list(range(4)) * 10 + [rng.randint(4, 40) for _ in range(200)]:
            edges = []
            if k >= 2:
                for _ in range(rng.randint(0, 2 * k)):
                    edges.append(tuple(rng.sample(range(k), 2)))
                    if rng.random() < 0.1:
                        edges.append(edges[-1])
            g = Multigraph([str(i) for i in range(k)], edges)
            expected = len(connected_components(g)) <= 1
            assert g.is_connected() == expected, (k, edges)
            answers.add((k <= 1, expected))
        assert answers == {(True, True), (False, True), (False, False)}


class TestHamiltonianEnumeration:
    def test_c5_has_one(self):
        assert len(enumerate_hamiltonian_cycles(cycle_graph(5))) == 1

    def test_k4_has_three(self):
        assert len(enumerate_hamiltonian_cycles(complete_graph(4))) == 3

    def test_petersen_has_none(self):
        assert enumerate_hamiltonian_cycles(generalized_petersen(5, 2)) == []

    def test_canonical_and_valid(self):
        g = circulant_graph(7, [1, 2])
        cycles = enumerate_hamiltonian_cycles(g)
        assert len(cycles) == len(set(cycles))
        adj = {v: set(neighbors(g, v)) for v in range(7)}
        for cyc in cycles:
            assert cyc[0] == 0 and cyc[1] < cyc[-1]
            assert sorted(cyc) == list(range(7))
            for i in range(7):
                assert cyc[(i + 1) % 7] in adj[cyc[i]]

    def test_rejects_parallel_edges(self):
        g = Multigraph(["x", "y", "z"], [(0, 1), (0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            enumerate_hamiltonian_cycles(g)

    def test_size_cap(self):
        g = cycle_graph(21)
        with pytest.raises(ValueError):
            enumerate_hamiltonian_cycles(g)


class TestCubicCounts:
    def test_k4_every_edge_twice(self):
        g = complete_graph(4)
        assert [cubic_cycles_through_edge(g, i) for i in range(6)] == [2] * 6

    def test_k33_even(self):
        g = complete_bipartite(3, 3)
        for i in range(g.n_edges):
            assert cubic_cycles_through_edge(g, i) % 2 == 0

    def test_petersen_zero(self):
        g = generalized_petersen(5, 2)
        assert cubic_cycles_through_edge(g, 0) == 0

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            cubic_cycles_through_edge(cycle_graph(4), 0)


class TestEdgeCuts:
    def test_from_side_validates(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            EdgeCut.from_side(g, [])
        with pytest.raises(ValueError):
            EdgeCut.from_side(g, range(4))

    def test_c6_antipodal_pair(self):
        g = cycle_graph(6)
        factor = range(6)
        cut = find_cut_separating_pair(g, factor, 0, 3)
        assert cut is not None
        assert len(cut.cut_edges) == 2
        assert set(cut.cut_edges) == {0, 3}

    def test_size_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="^graph too large for cut search: 23 > 22$"):
            find_cut_separating_pair(cycle_graph(23), range(23), 0, 3)
        monkeypatch.setattr(oracles, "CUT_SEARCH_MAX_VERTICES", 5)
        with pytest.raises(ValueError, match="^graph too large for cut search: 6 > 5$"):
            find_cut_separating_pair(cycle_graph(6), range(6), 0, 3)

    def test_absent_when_impossible(self):
        g = Multigraph(
            list("abcdef"), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert find_cut_separating_pair(g, range(6), 0, 3) is None


class TestOuterplanarity:
    def test_cycles_are_outerplanar(self):
        for k in (3, 4, 7):
            assert is_outerplanar(cycle_graph(k))

    def test_k4_and_k23_are_not(self):
        assert not is_outerplanar(complete_graph(4))
        assert not is_outerplanar(complete_bipartite(2, 3))

    def test_fan_is_outerplanar(self):
        g = Multigraph(
            ["h", "0", "1", "2", "3"],
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)],
        )
        assert is_outerplanar(g)

    def test_circle_and_chords_go_together(self):
        # with its chords C4 is K4, so answering on C4 alone would say True
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="^circle and chords are given together"):
            is_outerplanar(g, chords=[(0, 2), (1, 3)])
        with pytest.raises(ValueError, match="^circle and chords are given together"):
            is_outerplanar(g, cycle_positions(g))
        assert not is_outerplanar(g, cycle_positions(g), [(0, 2), (1, 3)])

    def test_minor_oracle_direct(self):
        assert has_minor(complete_graph(4), "K4")
        assert has_minor(complete_graph(5), "K4")
        assert has_minor(complete_bipartite(2, 3), "K23")
        assert not has_minor(cycle_graph(6), "K4")
        assert not has_minor(cycle_graph(6), "K23")
        # subdivided K4 still has a K4 minor
        g = Multigraph(
            list("abcdx"),
            [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 4), (4, 3)],
        )
        assert has_minor(g, "K4")

    def test_oracle_cap(self, monkeypatch):
        assert not has_minor(cycle_graph(10), "K4")
        with pytest.raises(ValueError, match="^minor oracle capped at 10 vertices, got 11$"):
            has_minor(cycle_graph(11), "K4")
        monkeypatch.setattr(oracles, "MINOR_MAX_VERTICES", 3)
        with pytest.raises(ValueError, match="^minor oracle capped at 3 vertices, got 4$"):
            has_minor(cycle_graph(4), "K4")

    def test_fast_path_matches_oracle_on_small_corpus(self):
        checked = 0
        for name, g in corpus_graphs().items():
            if g.n_vertices > 8:
                continue
            assert is_outerplanar(g) == outerplanar_by_minor_search(g), name
            checked += 1
        assert checked >= 6

    def test_fast_path_matches_oracle_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randrange(3, 8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [p for p in pairs if rng.random() < 0.45]
            g = Multigraph([str(i) for i in range(n)], edges)
            assert is_outerplanar(g) == outerplanar_by_minor_search(g)

    def test_rejects_k23_behind_reducible_chains(self):
        # K2,3 with hubs u, v and spokes a, b, w, plus the paths u-c-x, u-d-x
        # and x-w: peeling degree-2 vertices alone gets it down to a triangle,
        # so the re-insertion has to reject it
        g = parse_adjacency(
            "u w\nu a\na v\nu b\nb v\nv w\nu c\nc x\nu d\nd x\nx w\n"
        )
        assert not outerplanar_by_minor_search(g)
        assert not is_outerplanar(g)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx_on_near_outerplanar_graphs(self, seed, nx_outerplanar):
        rng = random.Random(seed)
        verdicts = set()
        small = 0
        for _ in range(100):
            g = _near_outerplanar(rng, rng.choice([rng.randrange(3, 6), rng.randrange(6, 200)]))
            verdict = is_outerplanar(g)
            assert verdict == nx_outerplanar(g), g.edges
            if g.n_vertices <= 8:
                assert verdict == outerplanar_by_minor_search(g), g.edges
                small += 1
            verdicts.add(verdict)
        assert verdicts == {True, False}
        assert small >= 10


def _near_outerplanar(rng: random.Random, n: int) -> Multigraph:
    """An n-gon with random non-crossing chords and 0-2 random extra edges,
    paths and cycles glued on at cut vertices, some doubled edges, relabelled."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    spans = [(0, n - 1)]
    while spans:  # chords split a span of polygon positions, so none cross
        lo, hi = spans.pop()
        if hi - lo >= 2:
            mid = rng.randrange(lo + 1, hi)
            for a, b in ((lo, mid), (mid, hi)):
                if b - a >= 2 and rng.random() < 0.5:
                    edges.append((a, b))
                spans.append((a, b))
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3))]
    total = n
    for _ in range(rng.randrange(4)):
        k = rng.randrange(1, 5)
        ring = [rng.randrange(total)] + list(range(total, total + k))
        edges += list(zip(ring, ring[1:])) + ([(ring[-1], ring[0])] if k >= 2 else [])
        total += k
    edges += rng.sample(edges, rng.randrange(3))
    perm = rng.sample(range(total), total)
    return Multigraph([str(i) for i in range(total)], [(perm[u], perm[v]) for u, v in edges])


S = "s"  # the tag of the circle edges


def _tagged(g: Multigraph, tag):
    """The spanning subgraph of the edges tagged ``tag``."""
    return without_edges(g, (i for i, (_, _, t) in enumerate(g.edges) if t != tag))


def _circle_verdicts(g: Multigraph):
    """(circle is a hamiltonian cycle, outerplanar) by the circle check, with
    the positions it found checked against the tagged edges."""
    pos = cycle_positions(_tagged(g, S))
    if pos is None:
        return False, None
    k = g.n_vertices
    at = sorted(range(k), key=pos.__getitem__)
    assert sorted(pos) == list(range(k))
    for i in range(k):
        assert any(g.edges[e][2] == S for e in edges_between(g, at[i], at[(i + 1) % k]))
    chords = [(u, v) for u, v, t in g.edges if t != S]
    return True, is_outerplanar(_tagged(g, S), pos, chords)


def _reference_verdicts(g: Multigraph):
    """(the tagged edges form a hamiltonian cycle, Mitchell's verdict), the
    cycle test spelled out from degrees and connectivity."""
    circle = _tagged(g, S)
    cycle = circle.n_vertices >= 3 and set(circle.degrees()) == {2} and circle.is_connected()
    assert circle.is_cycle() == cycle
    return cycle, is_outerplanar(g)


def _tagged_circle(rng: random.Random, k: int, broken: str) -> Multigraph:
    """A k-cycle tagged S under a random relabelling, with untagged chords:
    non-crossing ones, random ones that may cross, duplicates and parallels
    of circle edges.  ``broken`` names a defect to give the tagged edges."""
    order = rng.sample(range(k), k)
    circle = [(order[i], order[(i + 1) % k]) for i in range(k)]
    if broken == "cut":  # two vertices of circle-degree 1
        circle.pop(rng.randrange(k))
    elif broken == "chord":  # two vertices of circle-degree 3
        i = rng.randrange(k)
        circle.append((order[i], order[(i + rng.randrange(1, k)) % k]))
    elif broken == "split":  # two disjoint tagged cycles
        i = rng.randrange(3, k - 2)
        circle = [(order[j], order[(j + 1) % i]) for j in range(i)]
        circle += [(order[i + j], order[i + (j + 1) % (k - i)]) for j in range(k - i)]
    chords = []
    spans = [(0, k - 1)]
    while spans:  # chords split a span of circle positions, so none cross
        lo, hi = spans.pop()
        if hi - lo >= 2:
            mid = rng.randrange(lo + 1, hi)
            for a, b in ((lo, mid), (mid, hi)):
                if b - a >= 2 and rng.random() < 0.5:
                    chords.append((order[a], order[b]))
                spans.append((a, b))
    chords += [tuple(rng.sample(range(k), 2)) for _ in range(rng.choice([0, 0, 1, 2]))]
    chords += rng.sample(circle, min(len(circle), rng.randrange(3)))
    chords += rng.sample(chords, min(len(chords), rng.randrange(3)))
    edges = [(u, v, S) for u, v in circle] + [(u, v, None) for u, v in chords]
    rng.shuffle(edges)
    return Multigraph([str(i) for i in range(k)], edges)


class TestCircleOuterplanarity:
    """``cycle_positions`` on the tagged edges and ``is_outerplanar`` given
    the circle and the other edges as chords against the degree and connectivity test on the tagged edges,
    Mitchell's reduction and, on small graphs, the minor search."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_random_circles(self, seed):
        rng = random.Random(seed)
        seen = set()
        for _ in range(150):
            k = rng.choice([rng.randrange(3, 9), rng.randrange(9, 41)])
            broken = rng.choice(["", "", "", "cut", "chord", "split" if k >= 6 else ""])
            g = _tagged_circle(rng, k, broken)
            circle, outerplanar = _circle_verdicts(g)
            want_circle, want_outerplanar = _reference_verdicts(g)
            assert circle == want_circle == (broken == ""), (broken, g.edges)
            if circle:
                assert outerplanar == want_outerplanar, g.edges
                if k <= 8:
                    assert outerplanar == outerplanar_by_minor_search(g), g.edges
            seen.add((circle, outerplanar))
        assert seen == {(True, True), (True, False), (False, None)}

    @pytest.mark.parametrize(
        "k, chords, outerplanar",
        [
            (4, [(0, 2), (1, 3)], False),  # K4 on a tagged 4-cycle
            (6, [(0, 3), (1, 4)], False),  # two crossing chords
            (6, [(0, 3), (1, 3), (3, 5), (0, 3)], True),  # a fan, one chord doubled
            (5, [(0, 1), (4, 0), (1, 3), (2, 4)], False),  # parallels and a crossing pair
            (3, [(0, 1), (1, 2)], True),
        ],
    )
    def test_hamiltonian_circles(self, k, chords, outerplanar):
        edges = [(i, (i + 1) % k, S) for i in range(k)] + [(u, v, "a") for u, v in chords]
        g = Multigraph([str(i) for i in range(k)], edges)
        assert _circle_verdicts(g) == (True, outerplanar)
        assert is_outerplanar(g) == outerplanar_by_minor_search(g) == outerplanar

    @pytest.mark.parametrize(
        "labels, circle",
        [
            ("abcd", [(0, 1), (1, 2), (2, 3)]),  # circle-degree 1 at a and d
            ("abcd", [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),  # circle-degree 3
            ("abcdef", [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two cycles
            ("abcd", [(0, 1), (0, 1), (2, 3), (2, 3)]),  # parallel pairs through 0
            ("abcde", [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]),  # a parallel pair off 0
            ("ab", [(0, 1), (0, 1)]),  # fewer than 3 vertices
            ("a", []),
            ("", []),
            # 0 on a triangle, the other vertices on a second cycle
            ("abcdefg", [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
        ],
    )
    def test_broken_circles(self, labels, circle):
        k = len(labels)
        chords = [(u, (u + 2) % k, None) for u in range(k)] if k >= 4 else []
        g = Multigraph(list(labels), [(u, v, S) for u, v in circle] + chords)
        assert _circle_verdicts(g) == (False, None)
        assert not _reference_verdicts(g)[0]
        tagged = _tagged(g, S)
        assert not tagged.is_cycle() and cycle_positions(tagged) is None

    def test_untagged_cycle_is_no_circle(self):
        assert _circle_verdicts(cycle_graph(5)) == (False, None)
        assert cycle_positions(_tagged(cycle_graph(5), None)) is not None

    def test_walk_starts_at_the_first_neighbour_of_0(self):
        g = Multigraph(list("abcde"), [(2, 3), (0, 4), (1, 2), (0, 1), (3, 4)])
        assert cycle_positions(g) == [0, 4, 3, 2, 1]
        assert cycle_positions(without_edges(g, [0])) is None


def _tuple_spans_nest(spans):
    """The tuple algorithm that ``spans_nest`` replaced: sort (lo, -hi),
    then keep the right ends of the open spans on a stack."""
    ends = []
    for lo, neg_hi in sorted((lo, -hi) for lo, hi in spans):
        while ends and ends[-1] <= lo:
            ends.pop()
        if ends and ends[-1] < -neg_hi:
            return False
        ends.append(-neg_hi)
    return True


def _positions(at):
    """Each vertex's position, given the vertex at each position."""
    pos = [0] * len(at)
    for i, v in enumerate(at):
        pos[v] = i
    return pos


class TestSpansNest:
    """``spans_nest``, which sorts each span as one integer key, against the
    tuple algorithm, on spans given either way round: positions are vertex
    ids, and then under a random relabelling of the cycle."""

    @pytest.mark.parametrize(
        "size, spans, nest",
        [
            (4, [(0, 2), (1, 3)], False),  # crossing
            (8, [(1, 6), (2, 5), (5, 7)], False),  # crossing after a nested pair
            (8, [(0, 7), (1, 6), (2, 5), (3, 4)], True),  # nested
            (6, [(0, 2), (2, 4), (0, 4), (4, 5), (1, 2)], True),  # shared ends
            (6, [(1, 4), (1, 4), (2, 3), (2, 3)], True),  # equal
            (6, [(0, 5), (1, 3), (3, 5), (0, 3)], True),  # the wrap span (0, N-1)
            (6, [(0, 5), (1, 3), (2, 4)], False),  # the wrap span beside a crossing
            (3, [(0, 2)], True),
            (3, [], True),
        ],
    )
    def test_hand_built(self, size, spans, nest):
        assert _tuple_spans_nest(spans) == nest
        assert spans_nest(spans, range(size)) == nest
        assert spans_nest([(b, a) for a, b in reversed(spans)], range(size)) == nest
        at = random.Random(size).sample(range(size), size)  # the vertex at each position
        assert spans_nest([(at[a], at[b]) for a, b in spans], _positions(at)) == nest

    def test_random_spans(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(500):
            size = rng.randrange(2, 12)
            spans = [tuple(sorted(rng.sample(range(size), 2))) for _ in range(rng.randrange(5))]
            want = _tuple_spans_nest(spans)
            assert spans_nest(spans, range(size)) == want, (size, spans)
            at = rng.sample(range(size), size)
            assert spans_nest([(at[a], at[b]) for a, b in spans], _positions(at)) == want
            seen.add(want)
        assert seen == {True, False}


class TestDotExport:
    def test_empty_graph(self):
        assert Multigraph([], []).to_dot() == "graph {\n}\n"

    def test_single_edge(self):
        dot = Multigraph(["u", "v"], [(0, 1)]).to_dot()
        assert '"u" -- "v";' in dot

    def test_highlight_penwidth(self):
        g = cycle_graph(3)
        dot = g.to_dot(highlight=[1])
        assert dot.count("penwidth") == 1

    def test_deterministic(self):
        g = generalized_petersen(4, 1)
        assert g.to_dot() == g.to_dot()

    def test_tags_become_labels(self):
        g = Multigraph(["u", "v"], [(0, 1, "s")])
        assert 'label="s"' in g.to_dot()

    @staticmethod
    def reference_dot(g, highlight=()):
        """The DOT export as it was written before each label was escaped
        once and the text was built in chunks: one esc call per edge end
        (backslashes, then quotes), an attribute list per edge, and one
        join of every line."""
        hi = set(highlight)
        esc = lambda s: s.replace("\\", "\\\\").replace('"', '\\"')
        lines = ["graph {"]
        for label in g.labels:
            lines.append(f'  "{esc(label)}";')
        for idx, (u, v, tag) in enumerate(g.edges):
            attrs = []
            if tag:
                attrs.append(f'label="{esc(tag)}"')
            if idx in hi:
                attrs.append("penwidth=2.5")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(
                f'  "{esc(g.labels[u])}" -- "{esc(g.labels[v])}"{suffix};'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("highlight", [(), [0, 3], range(50), [99]])
    @pytest.mark.parametrize("label", ["", "G", 'say "hi"'])
    def test_matches_reference_with_quotes(self, highlight, label):
        labels = ["1", 'a"', '"b"', "c", 'x"y"z', "", label]
        tags = [None, "s", 'q"', "", '"t"', "s"]
        rng = random.Random(5)
        edges = []
        for i in range(12):
            u, v = rng.sample(range(len(labels)), 2)
            edges.append((u, v, tags[i % len(tags)]))
        g = Multigraph(labels, edges)
        assert g.to_dot(highlight=highlight) == self.reference_dot(g, highlight)

    def test_escapes_backslashes_and_quotes(self):
        # a label ending in a backslash must not escape its closing quote
        labels = ["a\\", 'q"', 'b\\"c', "p"]
        g = Multigraph(labels, [(0, 1, "t\\"), (2, 3, '\\"'), (0, 3, 'x"')])
        assert g.to_dot(highlight=[1]).splitlines() == [
            "graph {",
            r'  "a\\";',
            r'  "q\"";',
            r'  "b\\\"c";',
            r'  "p";',
            r'  "a\\" -- "q\"" [label="t\\"];',
            r'  "b\\\"c" -- "p" [label="\\\"", penwidth=2.5];',
            r'  "a\\" -- "p" [label="x\""];',
            "}",
        ]
        assert parse_adjacency("a\\ b").to_dot().splitlines()[1] == r'  "a\\";'

    @staticmethod
    def escaped_graph(k: int, m: int) -> Multigraph:
        """k labels and m edges whose labels and tags hold quotes and
        backslashes, untagged and tagged edges, and parallel pairs."""
        marks = ["", '"', "\\", '\\"', '"\\', "\\\\"]
        labels = [f"v{i}{marks[i % len(marks)]}" for i in range(k)]
        tags = [None, "s", 'q"', "t\\", "", '\\"x"']
        rng = random.Random(k * 1000 + m)
        edges = []
        while len(edges) < m:
            u, v = rng.sample(range(k), 2)
            edges += [(u, v, tags[len(edges) % len(tags)])] * rng.choice([1, 1, 2])
        return Multigraph(labels, edges[:m])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_matches_reference_across_chunk_boundaries(self, monkeypatch, chunk):
        # labels and edges fill whole chunks, end one past a boundary or one
        # short of it, and bold edges sit on both sides of every boundary
        monkeypatch.setattr("hamcirc.multigraph.DOT_CHUNK", chunk)
        assert Multigraph([], []).to_dot() == self.reference_dot(Multigraph([], []))
        for k in (2, chunk, chunk + 1, 2 * chunk - 1, 3 * chunk + 2):
            for m in (0, 1, chunk, chunk + 1, 3 * chunk - 1, 3 * chunk + 1):
                g = self.escaped_graph(max(k, 2), m)
                edges = [i for i in range(m) if i % chunk in (0, chunk - 1)]
                for highlight in ((), edges, range(0, m, 2)):
                    assert g.to_dot(highlight=highlight) == self.reference_dot(g, highlight)

    def test_matches_reference_past_one_chunk(self):
        k, m = 2 * DOT_CHUNK + 3, 3 * DOT_CHUNK + 1
        g = self.escaped_graph(k, m)
        highlight = [0, DOT_CHUNK - 1, DOT_CHUNK, 2 * DOT_CHUNK - 1, 2 * DOT_CHUNK, m - 1]
        for hi in ((), highlight):
            assert g.to_dot(highlight=hi) == self.reference_dot(g, hi)
        lines = Multigraph([str(i) for i in range(k)], []).to_dot().splitlines()
        assert len(lines) == k + 2 and lines[DOT_CHUNK] == f'  "{DOT_CHUNK - 1}";'

    def test_matches_reference_on_quotient(self):
        from hamcirc.quotients import build_quotient_local
        from hamcirc.words import ReducedWord

        g = build_quotient_local(2, [ReducedWord.parse("aabb", 2)], 4).graph
        for highlight in ((), range(0, g.n_edges, 3)):
            assert g.to_dot(highlight=highlight) == self.reference_dot(g, highlight)


class TestAdjacencyFormat:
    def test_round_trip(self):
        text = "# comment\nu v\nv w\nw u\nx\n"
        g = parse_adjacency(text)
        assert g.labels == ("u", "v", "w", "x")
        assert g.n_edges == 3
        assert g.degrees()[3] == 0

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_adjacency("a b c\n")


class TestSubgraphs:
    def test_induced(self):
        g = complete_graph(4)
        h = induced_subgraph(g, [0, 1, 3])
        assert h.n_vertices == 3 and h.n_edges == 3
        assert h.labels == ("0", "1", "3")

    def test_without_edges(self):
        g = cycle_graph(4)
        h = without_edges(g, [0])
        assert h.n_edges == 3 and not h.is_cycle()

    def test_simple_support(self):
        g = Multigraph(["x", "y"], [(0, 1, "p"), (0, 1, "q")])
        s = simple_support(g)
        assert s.edges == ((0, 1, "p"),)


def _reference_incidence(g):
    """Each vertex's (neighbour, edge index) pairs in edge order, from the
    edge list alone."""
    inc = [[] for _ in g.labels]
    for i, (u, v, _) in enumerate(g.edges):
        inc[u].append((v, i))
        inc[v].append((u, i))
    return inc


def _reference_connected(g):
    seen, stack = {0}, [0]
    while stack:
        for w, _ in _reference_incidence(g)[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return g.n_vertices <= 1 or len(seen) == g.n_vertices


def _reference_cycle(g):
    """The cycle test spelled out: at least 3 vertices, every degree 2, connected."""
    degrees = [len(x) for x in _reference_incidence(g)]
    return g.n_vertices >= 3 and set(degrees) == {2} and _reference_connected(g)


class TestLazyAdjacency:
    """A graph caches no adjacency; every reader and check must agree with
    the edge list, however the graph was made."""

    @staticmethod
    def graphs(seed):
        rng = random.Random(seed)
        for _ in range(40):
            k = rng.randint(1, 9)
            edges = []
            if k >= 2:
                for _ in range(rng.randint(0, 2 * k)):
                    u, v = rng.sample(range(k), 2)
                    edges += [(u, v, rng.choice("pq"))] * rng.choice([1, 1, 1, 2])
            labels = [str(i) for i in range(k)]
            g = Multigraph(labels, edges)
            drop = [i for i in range(len(edges)) if rng.random() < 0.3]
            copied_fresh = without_edges(g, drop)  # before g's adjacency is built
            yield g
            yield Multigraph._trusted(tuple(labels), [(min(e[:2]), max(e[:2]), e[2]) for e in edges])
            yield copied_fresh
            yield without_edges(g, drop)  # after
        yield cycle_graph(5)
        yield without_edges(cycle_graph(5), [2])
        for _ in range(40):
            # every degree 2, where the cycle walk differs from a degree test:
            # disjoint cycles, a ring of 2 being a parallel pair, under a
            # random numbering, in shuffled edge order
            rings = [rng.choice([2, 2, 3, 4, 5]) for _ in range(rng.choice([1, 1, 2, 3]))]
            k = sum(rings)
            order = iter(rng.sample(range(k), k))
            edges = []
            for r in rings:
                ring = [next(order) for _ in range(r)]
                edges += [(ring[i], ring[(i + 1) % r], "p") for i in range(r)]
            rng.shuffle(edges)
            yield Multigraph([str(i) for i in range(k)], edges)
            # the same rings beside an isolated vertex 0
            yield Multigraph([str(i) for i in range(k + 1)], [(u + 1, v + 1, t) for u, v, t in edges])

    @pytest.mark.parametrize("seed", range(3))
    def test_readers_match_edge_list(self, seed):
        cycles = non_cycles = 0
        for g in self.graphs(seed):
            inc = _reference_incidence(g)
            k = g.n_vertices
            assert g.is_connected() == _reference_connected(g)
            assert g.degrees() == [len(x) for x in inc]
            assert [neighbors(g, v) for v in range(k)] == [[w for w, _ in x] for x in inc]
            for u in range(k):
                for v in range(k):
                    assert edges_between(g, u, v) == [i for w, i in inc[u] if w == v]
            is_cycle = _reference_cycle(g)
            assert g.is_cycle() == (cycle_positions(g) is not None) == is_cycle
            for tag in (None, "p", "q"):
                tagged = _tagged(g, tag)
                want = _reference_cycle(tagged)
                assert tagged.is_cycle() == (cycle_positions(tagged) is not None) == want
            cycles += is_cycle
            non_cycles += set(g.degrees()) == {2} and not is_cycle
        assert cycles >= 10 and non_cycles >= 10

    def test_built_once_with_the_collector_off(self):
        # each check that builds per-vertex lists walks the edge list once
        # to build them, with the collector off, and turns it back on
        states = []

        class Recorded(tuple):
            def __iter__(self):
                states.append(gc.isenabled())
                return super().__iter__()

        g = cycle_graph(5)
        g.edges = Recorded(g.edges)
        assert g.is_connected()
        assert g.is_cycle()  # the walk that records no positions
        assert cycle_positions(g) == [0, 1, 2, 3, 4]
        assert states == [False] * 3
        assert gc.isenabled()
        assert connected_components(g) == [[0, 1, 2, 3, 4]]
