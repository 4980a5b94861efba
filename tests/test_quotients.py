import gc
import random
import sys
from collections import Counter

import pytest
from conftest import class_index

import hamcirc.cli as cli
import hamcirc.quotients as quotients
from hamcirc.certifier import level_one_quotient
from hamcirc.multigraph import Multigraph
from hamcirc.outerplanar import tree_generators
from hamcirc.quotients import (
    ENUM_BUDGET,
    build_quotient_enum,
    build_quotient_local,
    generator_subgraph,
    quotients_equal,
    symmetric_closure,
    tree_parents,
)
from hamcirc.words import (
    COUNT_CAP,
    BudgetExceeded,
    RankError,
    ReducedWord,
    count_reduced_words,
    reduced_words,
    shortlex_labels,
)
from oracles import (
    connected_components,
    edges_between,
    induced_subgraph,
    simple_support,
    without_edges,
)


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


class TestClassOf:
    """Words map to the vertex of their level-L prefix."""

    @staticmethod
    def rep_of(q, word):
        index = class_index(word.rank, q.level)
        return q.graph.labels[index[word.letters[: q.level]]]

    def test_long_word_truncates(self):
        q = build_quotient_local(3, [w("aabbcc", 3)], 3)
        assert self.rep_of(q, w("aabba", 3)) == "aab"

    def test_short_word_is_singleton(self):
        q = build_quotient_local(2, [w("aabb")], 3)
        assert self.rep_of(q, w("ab")) == "ab"

    def test_identity(self):
        q = build_quotient_local(2, [w("aabb")], 1)
        assert self.rep_of(q, w("")) == "1"


class TestGeneratingSets:
    def test_closure_adds_inverses(self):
        sym = symmetric_closure([w("aabb")], 2)
        assert {str(x) for x in sym} == {"aabb", "BBAA"}

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            symmetric_closure([w("")], 2)

    def test_rank_mixing_rejected(self):
        with pytest.raises(ValueError):
            symmetric_closure([w("a", 2), w("a", 3)], 2)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            symmetric_closure([], 2)

    def test_local_builder_rejects_a_higher_rank_word(self):
        # the level-2 synthesis used to look up the class of "ac" and fail
        # with a bare KeyError
        with pytest.raises(RankError, match="rank 3, expected 2"):
            build_quotient_local(2, [ReducedWord.parse("abc", 3)], 2)

    def test_local_builder_rejects_a_lower_rank_word(self):
        with pytest.raises(RankError, match="rank 2, expected 3"):
            build_quotient_local(3, [w("aabb")], 2)

    def test_enum_builder_rejects_another_rank(self):
        with pytest.raises(RankError):
            build_quotient_enum(3, [w("aabb")], 2)


class TestLevelOneAgainstDefinition:
    """The letter-built level-1 graph equals the level-1 quotient."""

    @pytest.mark.parametrize("text,rank", [
        ("aabb", 2), ("abAB", 2), ("abab", 2), ("aabbcc", 3), ("abABcc", 3),
        ("aaab", 2), ("abb", 2),
    ])
    def test_isomorphic_with_shared_labels(self, text, rank):
        word = ReducedWord.parse(text, rank)
        built = level_one_quotient(word)
        q = build_quotient_enum(rank, [word], 1)
        assert sorted(built.labels) == sorted(q.graph.labels)
        direct = sorted(
            tuple(sorted((built.labels[u], built.labels[v])))
            for u, v, _ in built.edges
        )
        quotient = sorted(
            tuple(sorted((q.graph.labels[u], q.graph.labels[v])))
            for u, v, _ in q.graph.edges
        )
        assert direct == quotient

    @pytest.mark.parametrize("rank, max_len", [(2, 6), (3, 4)])
    def test_matches_kernel_on_every_short_word(self, rank, max_len):
        """The certifier's hand-built level-1 graph against the kernel, on
        every nonempty reduced word up to max_len: same labels and the same
        multiset of endpoint pairs."""
        checked = 0
        for letters in reduced_words(rank, max_len):
            if not letters:
                continue
            word = ReducedWord(letters, rank)
            built = level_one_quotient(word)
            kernel = build_quotient_local(rank, [word], 1).graph
            assert built.labels == kernel.labels, str(word)
            assert sorted(sorted(e[:2]) for e in built.edges) == sorted(
                sorted(e[:2]) for e in kernel.edges
            ), str(word)
            checked += 1
        assert checked == count_reduced_words(rank, max_len) - 1


class TestStarAndSmallExamples:
    def test_tree_generators_give_star(self):
        q = build_quotient_local(2, [w("a"), w("b")], 1)
        assert q.graph.n_vertices == 5 and q.graph.n_edges == 4
        center = q.graph.labels.index("1")
        assert q.graph.degrees()[center] == 4

    def test_aabb_level_one_is_five_cycle(self):
        q = build_quotient_local(2, [w("aabb")], 1)
        assert q.graph.is_cycle() and q.graph.n_vertices == 5

    def test_tree_generators_deeper_level_give_tree(self):
        q = build_quotient_local(2, [w("a"), w("b")], 3)
        g = q.graph
        assert g.n_vertices == count_reduced_words(2, 3)
        assert g.n_edges == g.n_vertices - 1
        assert g.is_connected()
        ql = build_quotient_enum(2, [w("a"), w("b")], 3)
        assert quotients_equal(q, ql)

    def test_abab_level_one_splits(self):
        q = build_quotient_local(2, [w("abab")], 1)
        comps = connected_components(q.graph)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [2, 3]
        # the small component carries a double edge
        small = min(comps, key=len)
        assert len(edges_between(q.graph, small[0], small[1])) == 2


class TestDualConstruction:
    @pytest.mark.parametrize("text,levels", [
        ("aabb", (1, 2, 3, 4)),
        ("abAB", (1, 2, 3, 4)),
        ("abab", (1, 2, 3)),
        ("aaab", (1, 2, 3)),
        ("babA", (1, 2)),
    ])
    def test_enum_equals_local_single_word(self, text, levels):
        word = w(text)
        for level in levels:
            qe = build_quotient_enum(2, [word], level)
            ql = build_quotient_local(2, [word], level)
            assert quotients_equal(qe, ql), (text, level)

    def test_enum_equals_local_with_tree(self):
        gens = [w("a"), w("b"), w("aabb")]
        for level in (1, 2, 3):
            qe = build_quotient_enum(2, gens, level)
            ql = build_quotient_local(2, gens, level)
            assert quotients_equal(qe, ql)

    def test_enum_equals_local_rank_three(self):
        word = ReducedWord.parse("aabbcc", 3)
        for level in (1, 2):
            qe = build_quotient_enum(3, [word], level)
            ql = build_quotient_local(3, [word], level)
            assert quotients_equal(qe, ql)

    def test_enum_equals_local_rank_three_mixed_sets(self):
        from hamcirc.outerplanar import tree_generators

        rng = random.Random(99)

        def rand_word(n, max_len):
            raw = []
            for _ in range(rng.randrange(1, max_len + 1)):
                choices = [
                    x for x in range(-n, n + 1) if x and (not raw or x != -raw[-1])
                ]
                raw.append(rng.choice(choices))
            return ReducedWord(tuple(raw), n)

        for _trial in range(10):
            gens = [rand_word(3, 4)]
            if rng.random() < 0.5:
                gens += tree_generators(3)
            if rng.random() < 0.3:
                gens.append(rand_word(3, 3))
            for level in (1, 2):
                qe = build_quotient_enum(3, gens, level)
                ql = build_quotient_local(3, gens, level)
                assert quotients_equal(qe, ql), (gens, level)

    def test_enum_equals_local_random_words(self):
        rng = random.Random(17)
        for _ in range(25):
            length = rng.randrange(1, 6)
            raw = []
            for _i in range(length):
                choices = [x for x in (1, -1, 2, -2) if not raw or x != -raw[-1]]
                raw.append(rng.choice(choices))
            word = ReducedWord(tuple(raw), 2)
            for level in (1, 2, 3):
                qe = build_quotient_enum(2, [word], level)
                ql = build_quotient_local(2, [word], level)
                assert quotients_equal(qe, ql), (word, level)


def random_word(rng, n, length):
    raw = []
    while len(raw) < length:
        x = rng.choice([x for x in range(-n, n + 1) if x and (not raw or x != -raw[-1])])
        raw.append(x)
    return ReducedWord(tuple(raw), n)


class TestKernelAgainstOracle:
    """The integer kernel against the enumeration on seeded generator sets.

    Generators run up to the enumeration horizon, so most are longer than
    the level and their walks cancel through several depths and the root.
    Half of the sets hold the tree generators, whose edges run parallel to
    the word's and must be ordered by group words."""

    # rank -> (deepest level, longest level + generator length)
    SIZES = {2: (5, 8), 3: (3, 6), 4: (2, 5)}

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_sets(self, rank, seed):
        rng = random.Random(rank * 100 + seed)
        deepest, horizon = self.SIZES[rank]
        parallel = 0
        for level in range(1, deepest + 1):
            longest = horizon - level
            gens = [random_word(rng, rank, longest)]
            gens += [random_word(rng, rank, rng.randint(1, longest)) for _ in range(rng.randint(0, 2))]
            if (seed + level) % 2:
                gens += tree_generators(rank)
            qe = build_quotient_enum(rank, gens, level)
            ql = build_quotient_local(rank, gens, level)
            assert "edge_pairs" not in vars(ql)  # derived on first access
            assert quotients_equal(qe, ql), (gens, level)
            index = class_index(rank, level)
            for _ in range(20):
                word = random_word(rng, rank, rng.randint(0, level + 2))
                vertex = index[word.letters[:level]]
                assert ql.graph.labels[vertex] == (str(word)[:level] or "1")
            parallel += not ql.graph.is_simple()
        if seed % 2 == 0:
            assert parallel  # the ordering of parallel edges was exercised

    def test_parallels_ordered_by_group_words(self):
        # level 1, {aaa, AAb}: three group edges join the classes a and A.
        # Their order is that of their group words, not that of the
        # generators they were found from.
        gens = [w("aaa"), w("AAb")]
        q = build_quotient_local(2, gens, 1)
        a_to_A = [(tag, pair) for (u, v, tag), pair in zip(q.graph.edges, q.edge_pairs) if (u, v) == (1, 2)]
        assert a_to_A == [
            ("aaa", ((1,), (-1, -1))),
            ("AAb", ((1,), (-1, 2))),
            ("aaa", ((-1,), (1, 1))),
        ]
        assert quotients_equal(q, build_quotient_enum(2, gens, 1))


def per_class_count(n, gens, level):
    """Build, and count the classes that went through the per-class code
    (the kernel's ``emit``) rather than being replayed."""
    ranges = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name == "emit" and code.co_filename == quotients.__file__:
            ranges.append(frame.f_locals["hi"] - frame.f_locals["lo"])

    sys.setprofile(profile)
    try:
        q = build_quotient_local(n, gens, level)
    finally:
        sys.setprofile(None)
    return q, sum(ranges)


class TestRecordAndReplay:
    """Each depth past K + 1 runs the per-class code on one block per last
    digit of the K-ancestor and replays the rest; K = max(1, floor(r/2))
    for the longest generator length r."""

    @pytest.mark.parametrize("rank,texts,tree,levels", [
        (1, ["aaa"], False, (3, 4)),
        (2, ["a"], False, (3, 4)),
        (2, ["ab"], False, (3, 4)),
        (2, ["aab"], False, (3, 4)),  # no circle
        (2, ["abab"], False, (4, 5)),  # no circle
        (2, ["aabb"], False, (4, 5)),
        (2, ["abaBB"], False, (4, 5)),
        (2, ["aaabbb"], False, (5,)),  # no circle
        (2, ["ab", "aabb"], False, (4, 5)),
        (2, ["abAB"], True, (4, 5)),
        (3, ["abc"], False, (3, 4)),
        (3, ["ab", "c"], False, (3, 4)),
        (3, ["abc"], True, (3,)),
        (4, ["ad"], False, (3, 4)),
        (4, ["abc"], False, (3,)),
        (4, ["ab"], True, (3,)),
    ])
    def test_matches_the_enumeration(self, rank, texts, tree, levels):
        gens = [w(t, rank) for t in texts] + (tree_generators(rank) if tree else [])
        longest = max(map(len, gens))
        cone = quotients._cone_depth(longest)
        assert max(levels) >= cone + 2  # a depth is replayed
        for level in levels:
            assert count_reduced_words(rank, level + longest) <= ENUM_BUDGET
            assert quotients_equal(
                build_quotient_local(rank, gens, level), build_quotient_enum(rank, gens, level)
            ), (texts, tree, level)

    @pytest.mark.parametrize("rank,texts,tree,level", [
        (2, ["aabbbAB"], False, 7),
        (2, ["aabbAbaB"], False, 8),
        (2, ["aabbAbaB"], True, 7),
        (2, ["abab", "aaabbb"], False, 7),
        (3, ["abcacb"], False, 6),
        (3, ["abAc", "aabbcc"], False, 5),
        (3, ["abABcc"], True, 5),
        (4, ["abcd"], False, 4),
        (4, ["abAB", "cd"], False, 4),
        (4, ["aabbccdd"], False, 5),
    ])
    def test_matches_the_per_class_code_on_deep_levels(self, monkeypatch, rank, texts, tree, level):
        # with a cone deeper than the level, every class is computed one by one
        gens = [w(t, rank) for t in texts] + (tree_generators(rank) if tree else [])
        replayed = build_quotient_local(rank, gens, level)
        monkeypatch.setattr(quotients, "_cone_depth", lambda longest: level)
        assert quotients_equal(replayed, build_quotient_local(rank, gens, level))

    def test_last_digits_match_the_labels(self):
        # the digit of each class's last letter, by arithmetic, against the
        # last characters of the label texts at the deepest level
        for rank in (1, 2, 3, 4):
            texts = shortlex_labels(rank, 7)
            chars = "".join(texts[1 : 2 * rank + 1]).encode()
            by_text = bytes([2 * rank]) + "".join([t[-1] for t in texts[1:]]).encode().translate(
                bytes.maketrans(chars, bytes(range(2 * rank)))
            )
            del texts
            for level in range(1, 8):
                digits = quotients._last_digits(rank, level)
                assert digits == by_text[: count_reduced_words(rank, level)], (rank, level)

    def test_cone_depth_is_half_the_longest_generator(self):
        assert [quotients._cone_depth(r) for r in range(1, 9)] == [1, 1, 1, 2, 2, 3, 3, 4]

    def test_few_classes_are_computed_one_by_one(self):
        q, computed = per_class_count(2, [w("aabb")], 9)
        # depths 0..3 whole (53 classes), then 4 blocks of 3**2 per depth
        assert computed == 53 + 6 * 4 * 9
        assert q.graph.n_vertices == 39365
        assert computed < 0.03 * 39365
        assert q.graph.is_cycle()

    def test_a_shallow_cone_fails_loudly(self, monkeypatch, capsys):
        # aabb keeps edges two parent steps up (x AA to x bb), so K = 1 is wrong
        cone_depth = quotients._cone_depth
        monkeypatch.setattr(quotients, "_cone_depth", lambda longest: cone_depth(longest) - 1)
        with pytest.raises(AssertionError, match="past its cone depth 1"):
            build_quotient_local(2, [w("aabb")], 4)
        assert cli.main(["quotient", "-n", "2", "-s", "aabb", "-l", "4", "--json"]) == 4
        assert "AssertionError" in capsys.readouterr().err


class TestGeneratorSubgraph:
    """The s-edges of the full quotient are the quotient built on s alone:
    the same labels, and the same edges in the same order with the same tags."""

    @pytest.mark.parametrize("text,rank,levels", [
        ("aabb", 2, (1, 2, 3, 4)),
        ("abAB", 2, (1, 2, 3, 4)),
        ("abab", 2, (1, 2, 3, 4)),  # a No word
        ("a", 2, (1, 2, 3, 4)),  # s is a tree generator
        ("aabbcc", 3, (1, 2, 3)),
    ])
    def test_equals_one_generator_build(self, text, rank, levels):
        s = w(text, rank)
        for level in levels:
            full = build_quotient_local(rank, tree_generators(rank) + [s], level)
            alone = build_quotient_local(rank, [s], level).graph
            derived = generator_subgraph(full.graph, s)
            assert derived.labels == alone.labels, (text, level)
            assert derived.edges == alone.edges, (text, level)


def _random_words(rng, n, count, circle, longest):
    """Seeded reduced words of length 2..longest; with ``circle`` only those
    whose level-1 circle quotient is a cycle (the Yes shape), without it
    only those whose quotient is not."""
    words = []
    while len(words) < count:
        word = random_word(rng, n, rng.randint(2, longest))
        if level_one_quotient(word).is_cycle() == circle:
            words.append(word)
    return words


class TestWithTree:
    """The kernel's build with the standard generators against its build
    without them: the same labels, and the edges of the standard generators
    A = a, b, ... are exactly one tree edge per class, read off the class
    numbering, with the tags included."""

    @staticmethod
    def words(n):
        rng = random.Random(n * 13)
        non_circles = []
        while len(non_circles) < 3:  # every level-1 degree 2, and no cycle
            word = random_word(rng, n, 2 * n)
            q = level_one_quotient(word)
            if set(q.degrees()) == {2} and not q.is_cycle():
                non_circles.append(word)
        circles = {2: ("aabb", "abAB"), 3: ("aabbcc", "abABcc"), 4: ("aabbccdd", "abABcdCD")}
        return [
            *(w(text, n) for text in circles[n]),
            *_random_words(rng, n, 2, True, 2 * n + 2),
            *non_circles,
            *(random_word(rng, n, rng.randint(2, 6)) for _ in range(3)),
            w("a", n),
            w("B", n),
        ]

    @pytest.mark.parametrize("n, top", [(2, 5), (3, 4), (4, 3)])
    def test_equals_the_build_with_the_tree(self, n, top):
        # the fact the outerplanar chord check rests on: each class c >= 1
        # adds one edge (parent(c), c), tagged by c's last letter
        for s in self.words(n):
            for level in range(1, top + 1):
                full = build_quotient_local(n, tree_generators(n) + [s], level).graph
                alone = build_quotient_local(n, [s], level).graph
                labels = full.labels
                tree = Counter(
                    (p, c, labels[c][-1].lower())
                    for c, p in enumerate(tree_parents(n, 1, len(labels)), 1)
                )
                want = Counter(full.edges)
                if len(s) == 1:  # the build keeps a tree generator once
                    want += Counter(alone.edges)
                assert alone.labels == labels, (str(s), level)
                assert Counter(alone.edges) + tree == want, (str(s), level)

    @pytest.mark.parametrize("n, level", [(1, 4), (2, 4), (3, 3), (4, 2)])
    def test_parents_are_the_prefixes(self, n, level):
        # parent(c) is the class of c's word less its last letter, on every
        # range of classes, whatever the range's start and stop
        index = class_index(n, level)
        want = [index[raw[:-1]] for raw in list(index)[1:]]
        size = len(index)
        assert list(tree_parents(n, 1, size)) == want
        for start, stop in [(1, 1), (2, 2 * n + 3), (2 * n, size), (size // 2, size), (size - 1, size)]:
            assert list(tree_parents(n, start, stop)) == want[start - 1 : stop - 1], (start, stop)


class TestEdgeTuples:
    """Every builder's edges are plain (u, v, tag) tuples with u < v, and a
    subgraph keeps its parent's edge objects rather than copying them."""

    @staticmethod
    def graphs():
        from hamcirc.freeproduct import build_truncation, gen_a, gen_ab

        s = w("aabb")
        full = build_quotient_local(2, tree_generators(2) + [s], 3).graph
        yield Multigraph(["x", "y", "z"], [(1, 0), (1, 2, "p"), (2, 0, None)])
        yield full
        yield build_quotient_enum(2, tree_generators(2) + [s], 2).graph
        yield build_truncation(3, 2, [gen_a(3, 2), gen_ab(3, 2)], 2).graph
        yield generator_subgraph(full, s)
        yield without_edges(full, range(0, full.n_edges, 3))
        yield simple_support(full)
        yield induced_subgraph(full, range(1, full.n_vertices, 2))

    def test_builders_give_plain_ordered_triples(self):
        for g in self.graphs():
            assert g.n_edges > 0
            for e in g.edges:
                assert type(e) is tuple and len(e) == 3
                assert e[0] < e[1]

    def test_generator_subgraph_shares_edge_objects(self):
        s = w("aabb")
        full = build_quotient_local(2, tree_generators(2) + [s], 3).graph
        circle = generator_subgraph(full, s)
        kept = [e for e in full.edges if e[2] == "aabb"]
        assert len(circle.edges) == len(kept) > 0
        assert all(a is b for a, b in zip(circle.edges, kept))


class TestDegreeLaw:
    @pytest.mark.parametrize("text,levels", [
        ("aabb", (1, 2, 3, 4)),
        ("abAB", (1, 2, 3, 4)),
        ("abab", (1, 2, 3)),
        ("aaabab", (1, 2)),
    ])
    def test_degrees_match_letter_counts(self, text, levels):
        word = w(text)
        for level in levels:
            q = build_quotient_local(2, [word], level)
            for rep, idx in class_index(2, level).items():
                if len(rep) < level:
                    assert q.graph.degrees()[idx] == 2
                else:
                    gen = abs(rep[-1])
                    assert q.graph.degrees()[idx] == word.letter_count(gen)


class TestVertexCount:
    def test_formula(self):
        assert count_reduced_words(2, 4) == 161
        assert count_reduced_words(3, 3) == 187

    @pytest.mark.parametrize("n,level", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 6)])
    def test_built_quotients_match(self, n, level):
        word = ReducedWord.parse("aabb" if n == 2 else "aabbcc", n)
        q = build_quotient_local(n, [word], level)
        assert q.graph.n_vertices == count_reduced_words(n, level)


class TestExpansionConnectivity:
    """Refining a class one level down yields a connected subgraph, for
    automorphically minimal words whose first and last letters differ."""

    def test_small_pool(self):
        from hamcirc.minimize import whitehead_minimize

        pool = []
        for text in ("aabb", "abAB", "aaBB", "abbA", "baaB"):
            word = w(text)
            minimal, _ = whitehead_minimize(word)
            if len(minimal) == len(word) and word.letters[0] != word.letters[-1]:
                pool.append(word)
        assert len(pool) >= 3
        for word in pool:
            for level in (2, 3, 4):
                q = build_quotient_local(2, [word], level)
                index = class_index(2, level)
                for rep, idx in index.items():
                    if len(rep) != level - 1:
                        continue
                    last = rep[-1]
                    block = [idx]
                    for x in (1, -1, 2, -2):
                        if x != -last:
                            block.append(index[rep + (x,)])
                    sub = induced_subgraph(q.graph, block)
                    assert sub.is_connected(), (word, level, rep)


class TestCircleCuts:
    def test_circle_edge_pairs_admit_separating_cuts(self):
        from itertools import combinations

        from hamcirc.outerplanar import tree_generators
        from oracles import find_cut_separating_pair

        word = w("aabb")
        q = build_quotient_local(2, tree_generators(2) + [word], 2)
        g = q.graph
        circle = [i for i, (_, _, tag) in enumerate(g.edges) if tag == "aabb"]
        assert len(circle) == 17
        pairs = list(combinations(circle, 2))
        for e1, e2 in pairs[::9]:  # deterministic sample
            cut = find_cut_separating_pair(g, circle, e1, e2)
            assert cut is not None, (e1, e2)
            hits = [i for i in cut.cut_edges if i in circle]
            assert sorted(hits) == sorted((e1, e2))


class TestBudget:
    def test_enum_budget_raises(self, monkeypatch):
        # level 3 plus |aabb| = 4: 4373 words up to length 7
        monkeypatch.setattr("hamcirc.quotients.ENUM_BUDGET", 4372)
        with pytest.raises(BudgetExceeded, match="^4373 words exceeds 4372$"):
            build_quotient_enum(2, [w("aabb")], 3)
        monkeypatch.setattr("hamcirc.quotients.ENUM_BUDGET", 4373)
        assert build_quotient_enum(2, [w("aabb")], 3).graph.n_vertices == 53

    def test_enum_budget_refuses_a_huge_level(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("words enumerated before the budget check")

        monkeypatch.setattr("hamcirc.quotients.reduced_words", no_enumeration)
        text = f"^more than {COUNT_CAP} words exceeds {ENUM_BUDGET}$"
        with pytest.raises(BudgetExceeded, match=text):
            build_quotient_enum(2, [w("aabb")], 10000)
        monkeypatch.setattr("hamcirc.quotients.ENUM_BUDGET", 10**15)
        with pytest.raises(BudgetExceeded, match=f"^more than {COUNT_CAP} words"):
            build_quotient_enum(2, [w("aabb")], 10000)

    def test_local_budget_counts_classes(self, monkeypatch):
        monkeypatch.setattr("hamcirc.quotients.QUOTIENT_BUDGET", 53)
        assert build_quotient_local(2, [w("aabb")], 3).graph.n_vertices == 53
        with pytest.raises(BudgetExceeded, match="^161 classes exceeds 53$"):
            build_quotient_local(2, [w("aabb")], 4)

    def test_local_budget_refuses_before_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("words enumerated before the budget check")

        monkeypatch.setattr("hamcirc.quotients.shortlex_words", no_enumeration)
        monkeypatch.setattr("hamcirc.quotients.shortlex_labels", no_enumeration)
        with pytest.raises(BudgetExceeded, match="^1062881 classes exceeds 500000$"):
            build_quotient_local(2, [w("aabb")], 12)
        with pytest.raises(BudgetExceeded, match="^585937 classes exceeds 500000$"):
            build_quotient_local(3, [w("aabbcc", 3)], 8)

    def test_default_budget_admits_the_documented_levels(self):
        from hamcirc.quotients import QUOTIENT_BUDGET

        assert count_reduced_words(2, 11) <= QUOTIENT_BUDGET < count_reduced_words(2, 12)
        assert count_reduced_words(3, 7) <= QUOTIENT_BUDGET < count_reduced_words(3, 8)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            build_quotient_local(2, [w("aabb")], 0)
        with pytest.raises(ValueError):
            build_quotient_enum(2, [w("aabb")], 0)


class TestCollectorPaused:
    def test_builders_hold_the_collector_off(self, monkeypatch):
        import hamcirc.freeproduct as fp
        from hamcirc.multigraph import Multigraph

        states = []
        real = Multigraph._trusted.__func__

        def recorded(cls, *args):
            # each builder makes its graph once, at the end of the build
            states.append(gc.isenabled())
            return real(cls, *args)

        monkeypatch.setattr(Multigraph, "_trusted", classmethod(recorded))
        build_quotient_local(2, [w("aabb")], 3)
        build_quotient_enum(2, [w("aabb")], 3)
        fp.build_truncation(3, 2, [fp.gen_ab(3, 2)], 2)
        assert states == [False, False, False]
        assert gc.isenabled()

    def test_collector_state_restored(self, monkeypatch):
        monkeypatch.setattr("hamcirc.quotients.ENUM_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            build_quotient_enum(2, [w("aabb")], 3)
        assert gc.isenabled()
        gc.disable()
        try:
            build_quotient_local(2, [w("aabb")], 2)
            assert not gc.isenabled()
        finally:
            gc.enable()
