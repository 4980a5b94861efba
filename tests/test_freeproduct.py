import dataclasses
import itertools
import random
import sys

import pytest

import hamcirc.cli as cli
import hamcirc.freeproduct as freeproduct
from hamcirc.freeproduct import (
    CLASS_BUDGET,
    FPWord,
    _multiply,
    build_truncation,
    count_truncation_classes,
    enumerate_fp_words,
    fp_symmetric_closure,
    gen_a,
    gen_ab,
    syllable_key,
    syllables_str,
    verify_circle_truncations,
)
from hamcirc.multigraph import Multigraph, cycle_positions
from hamcirc.quotients import (
    QuotientGraph,
    edge_tag,
    generator_subgraph,
    order_pair,
    project,
)
from hamcirc.words import COUNT_CAP, BudgetExceeded
from oracles import (
    connected_components,
    disconnecting_pair_disconnects,
    edges_between,
    truncate_after_b,
    verify_circle_truncations_by_depth,
    without_edges,
)


def fp(text, m=3, n=2):
    return FPWord.parse(text, m, n)


def build_truncation_enum(m, n, gens, depth):
    """The truncation by definition, the oracle for build_truncation: every
    normal form with at most depth+1 b-syllables times every generator,
    each product normalized whole.  A generator changes the number of
    b-syllables by at most one, so this meets every edge between classes."""
    sym = fp_symmetric_closure(gens)
    words = [w.syllables for w in enumerate_fp_words(m, n, depth + 1)]
    reps = sorted({truncate_after_b(w, depth) for w in words}, key=syllable_key)
    index = {rep: i for i, rep in enumerate(reps)}
    tagged = [(g.syllables, edge_tag(g)) for g in sym]
    pairs = {}
    for w in words:
        cw = truncate_after_b(w, depth)
        for t, tag in tagged:
            v = _multiply((), w + t, m, n)
            if truncate_after_b(v, depth) != cw:  # otherwise a loop
                pairs.setdefault(order_pair(w, v, syllable_key), tag)
    graph, edge_pairs = project(
        [syllables_str(rep) or "1" for rep in reps],
        lambda w: index[truncate_after_b(w, depth)],
        pairs,
        syllable_key,
    )
    return QuotientGraph(graph, depth, sym, edge_pairs.__getitem__)


# the generating sets of the differential tests: the cycle tree, its circle,
# the a-cycles alone, and generators with their b-syllable inside (a1b1a2,
# the only one whose edges can join two non-representatives; a1b1a1 when a
# is an involution) or in front
DIFFERENTIAL_SETS = {
    "a,ab": lambda m, n: [gen_a(m, n), gen_ab(m, n)],
    "ab": lambda m, n: [gen_ab(m, n)],
    "a": lambda m, n: [gen_a(m, n)],
    "a1b1a2": lambda m, n: [fp(f"a1b1a{min(2, m - 1)}", m, n)],
    "b1a1": lambda m, n: [fp("b1a1", m, n)],
}


def assert_same_truncation(fast, oracle, case):
    """Same labels, the same tagged edges in the same order, and the same
    group pair behind each edge."""
    assert fast.graph.labels == oracle.graph.labels, case
    assert fast.graph.edges == oracle.graph.edges, case
    assert fast.edge_pairs == oracle.edge_pairs, case


def random_generator(rng, m, n):
    """One of a^i, b^j, a^i b^j, b^j a^k, a^i b^j a^k, exponents at random."""
    a = lambda: f"a{rng.randrange(1, m)}"
    b = lambda: f"b{rng.randrange(1, n)}"
    form = rng.choice([(a,), (b,), (a, b), (b, a), (a, b, a)])
    return fp("".join(part() for part in form), m, n)


def cancels_past_last_syllable(pair):
    """Whether the longer end of a group edge loses its last syllable and
    changes the one before: the walk from it reaches a grandparent."""
    u, v = pair
    common = next((i for i, (x, y) in enumerate(zip(u, v)) if x != y), min(len(u), len(v)))
    return common <= max(len(u), len(v)) - 2


class TestNormalForm:
    def test_parse_and_display(self):
        assert fp("a2b1a1").display() == "a2b1a1"
        assert fp("1").display() == "1"
        assert fp("").syllables == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            FPWord((("a", 3),), 3, 2)  # exponent out of range
        with pytest.raises(ValueError):
            FPWord((("a", 1), ("a", 1)), 3, 2)  # no alternation
        with pytest.raises(ValueError):
            FPWord((), 1, 2)
        with pytest.raises(ValueError):
            fp("xy")

    def test_order_cancellation(self):
        assert (fp("a2") * fp("a1")).display() == "1"

    def test_b_order_two(self):
        assert (fp("a1b1") * fp("b1")).display() == "a1"

    def test_inverse(self):
        word = fp("a1b1a2")
        assert (word * word.inverse()).display() == "1"
        assert (word.inverse() * word).display() == "1"

    def test_cascading_cancellation(self):
        # a1 b1 a2 * a1 b1 a1: the junction a2 a1 vanishes, then b1 b1,
        # then the outer a1 a1 merge
        u = fp("a1b1a2")
        v = fp("a1b1a1")
        assert (u * v).display() == "a2"

    def test_multiplication_parameter_mismatch(self):
        with pytest.raises(ValueError):
            fp("a1", 3, 2) * fp("a1", 4, 2)

    def test_associativity_random(self):
        rng = random.Random(23)
        words = [word for _, word in zip(range(60), enumerate_fp_words(3, 3, 2))]
        for _ in range(300):
            u, v, x = (rng.choice(words) for _ in range(3))
            assert (u * v) * x == u * (v * x)

    def test_identity_laws(self):
        one = FPWord.identity(3, 2)
        for word in list(enumerate_fp_words(3, 2, 2))[:40]:
            assert word * one == word
            assert one * word == word


class TestTruncationClasses:
    def test_truncate_after_first_b(self):
        assert truncate_after_b(fp("a1b1a2b1a1").syllables, 1) == fp("a1b1").syllables

    def test_short_word_is_its_own_class(self):
        assert truncate_after_b(fp("a2").syllables, 1) == fp("a2").syllables

    def test_truncate_after_second_b(self):
        assert truncate_after_b(fp("a1b1a2b1a1").syllables, 2) == fp("a1b1a2b1").syllables


class TestTruncationGraphs:
    def test_base_case_six_cycle(self):
        q = build_truncation(3, 2, [gen_ab(3, 2)], 1)
        g = q.graph
        assert g.is_cycle() and g.n_vertices == 6
        expected_cycle = ["1", "a1b1", "a1", "a2b1", "a2", "b1"]
        for i, label in enumerate(expected_cycle):
            nxt = expected_cycle[(i + 1) % 6]
            u, v = g.labels.index(label), g.labels.index(nxt)
            assert edges_between(g, u, v), (label, nxt)

    def test_three_three_nine_cycle(self):
        q = build_truncation(3, 3, [gen_ab(3, 3)], 1)
        assert q.graph.is_cycle() and q.graph.n_vertices == 9

    @staticmethod
    def depth_one_cycle_order(m, n):
        # 1, then for each power of a: its b-column then the a-power itself,
        # ending with the plain b-column
        order = ["1"]
        for i in range(1, m):
            order += [f"a{i}b{j}" for j in range(1, n)] + [f"a{i}"]
        order += [f"b{j}" for j in range(1, n)]
        return order

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_depth_one_cycle_order(self, m, n):
        q = build_truncation(m, n, [gen_ab(m, n)], 1)
        g = q.graph
        order = self.depth_one_cycle_order(m, n)
        assert sorted(order) == sorted(g.labels)
        for i, label in enumerate(order):
            nxt = order[(i + 1) % len(order)]
            assert edges_between(g, g.labels.index(label), g.labels.index(nxt)), (
                label, nxt,
            )

    def test_depth_two_single_cycle(self):
        q = build_truncation(3, 2, [gen_ab(3, 2)], 2)
        assert q.graph.is_cycle()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            build_truncation(3, 2, [gen_ab(3, 2)], 0)

    def test_empty_generating_set_refused(self, monkeypatch):
        def no_classes(*args):
            raise AssertionError("classes built for an empty generating set")

        monkeypatch.setattr("hamcirc.freeproduct._class_tree", no_classes)
        with pytest.raises(ValueError, match="^generating set must not be empty$"):
            build_truncation(3, 2, [], 2)

    def test_budget(self, monkeypatch):
        size = count_truncation_classes(3, 2, 3)
        monkeypatch.setattr("hamcirc.freeproduct.CLASS_BUDGET", size - 1)
        with pytest.raises(BudgetExceeded, match=f"^{size} classes exceeds {size - 1}$"):
            build_truncation(3, 2, [gen_ab(3, 2)], 3)
        with pytest.raises(BudgetExceeded, match=f"^{size} classes exceeds {size - 1}$"):
            verify_circle_truncations(3, 2, 3)
        monkeypatch.setattr("hamcirc.freeproduct.CLASS_BUDGET", size)
        assert build_truncation(3, 2, [gen_ab(3, 2)], 3).graph.n_vertices == size
        assert verify_circle_truncations(3, 2, 3).passed

    def test_budget_refuses_before_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("classes enumerated before the budget check")

        monkeypatch.setattr("hamcirc.freeproduct._class_tree", no_enumeration)
        monkeypatch.setattr("hamcirc.freeproduct.CLASS_BUDGET", 10)
        with pytest.raises(BudgetExceeded, match="^18660 classes exceeds 10$"):
            build_truncation(4, 3, [gen_ab(4, 3)], 5)

    def test_class_count_closed_form(self):
        checked = 0
        for m, n, depth in itertools.product((2, 3, 4, 5), (2, 3, 4), (1, 2, 3, 4)):
            q = build_truncation(m, n, [gen_ab(m, n)], depth)
            assert count_truncation_classes(m, n, depth) == q.graph.n_vertices, (m, n, depth)
            checked += 1
        assert checked == 48

    def test_class_count_stops_past_its_cap(self, monkeypatch):
        assert count_truncation_classes(2, 2, 10**15) == 4 * 10**15  # closed form
        capped = count_truncation_classes(3, 2, 10**4)
        assert COUNT_CAP < capped < 10 * COUNT_CAP

        def no_enumeration(*args):
            raise AssertionError("classes enumerated before the budget check")

        monkeypatch.setattr("hamcirc.freeproduct._class_tree", no_enumeration)
        monkeypatch.setattr("hamcirc.freeproduct.CLASS_BUDGET", 10)
        with pytest.raises(BudgetExceeded, match=f"^more than {COUNT_CAP} classes exceeds 10$"):
            build_truncation(3, 2, [gen_ab(3, 2)], 10**9)

    def test_budget_past_the_count_cap_still_refuses(self, monkeypatch):
        # the count stops just past COUNT_CAP, so it cannot show that the
        # truncation fits a larger budget
        def no_enumeration(*args):
            raise AssertionError("classes enumerated before the budget check")

        monkeypatch.setattr("hamcirc.freeproduct._class_tree", no_enumeration)
        budget = 10 * COUNT_CAP
        monkeypatch.setattr("hamcirc.freeproduct.CLASS_BUDGET", budget)
        with pytest.raises(BudgetExceeded, match=f"^more than {COUNT_CAP} classes exceeds {budget}$"):
            build_truncation(3, 2, [gen_ab(3, 2)], 10**9)

    @pytest.mark.parametrize("gens", sorted(DIFFERENTIAL_SETS))
    def test_matches_enumeration_oracle(self, gens):
        """The enumeration builder's truncation, for a of every order from 2
        (an involution) and every depth up to 4 that stays under 3,000
        classes."""
        checked = 0
        for m, n, depth in itertools.product((2, 3, 4, 5), (2, 3, 4), (1, 2, 3, 4)):
            if count_truncation_classes(m, n, depth) > 3000:
                continue
            gen_set = DIFFERENTIAL_SETS[gens](m, n)
            fast = build_truncation(m, n, gen_set, depth)
            oracle = build_truncation_enum(m, n, gen_set, depth)
            assert_same_truncation(fast, oracle, (m, n, depth))
            checked += 1
        assert checked == 42

    def test_matches_enumeration_oracle_on_random_generators(self):
        """Seeded random generating sets of every allowed form, in groups
        small enough for the oracle; some of their edges cancel a class's
        last syllable and reach the one before."""
        rng = random.Random(10)
        checked = cancelling = 0
        while checked < 40:
            m, n, depth = rng.randrange(2, 6), rng.randrange(2, 5), rng.randrange(1, 4)
            if count_truncation_classes(m, n, depth) > 800:
                continue
            gen_set = [random_generator(rng, m, n) for _ in range(rng.randrange(1, 4))]
            case = (m, n, depth, [g.display() for g in gen_set])
            fast = build_truncation(m, n, gen_set, depth)
            oracle = build_truncation_enum(m, n, gen_set, depth)
            assert_same_truncation(fast, oracle, case)
            cancelling += sum(map(cancels_past_last_syllable, oracle.edge_pairs))
            checked += 1
        assert cancelling > 100

    def test_parallel_edges_match_enumeration_oracle(self):
        """Seeded sets of two or three generators, whose truncations have
        parallel edges: the kernel orders each run of them by the group
        pairs behind them, which it forms for those edges alone."""
        rng = random.Random(11)
        checked = parallel = 0
        while checked < 30:
            m, n, depth = rng.randrange(2, 6), rng.randrange(2, 5), rng.randrange(1, 4)
            if count_truncation_classes(m, n, depth) > 800:
                continue
            gen_set = [random_generator(rng, m, n) for _ in range(rng.randrange(2, 4))]
            case = (m, n, depth, [g.display() for g in gen_set])
            fast = build_truncation(m, n, gen_set, depth)
            assert_same_truncation(fast, build_truncation_enum(m, n, gen_set, depth), case)
            parallel += not fast.graph.is_simple()
            checked += 1
        assert parallel >= 10

    def test_pair_of_matches_edge_pairs(self):
        q = build_truncation(4, 3, [gen_a(4, 3), gen_ab(4, 3), fp("a1b2a3", 4, 3)], 2)
        assert not q.graph.is_simple()
        assert tuple(map(q.pair_of, range(q.graph.n_edges))) == q.edge_pairs

    def test_edge_pairs_derived_on_first_access(self):
        q = build_truncation(4, 3, [gen_a(4, 3), gen_ab(4, 3)], 2)
        assert "edge_pairs" not in vars(q)
        pairs = q.edge_pairs
        assert "edge_pairs" in vars(q)
        assert len(pairs) == q.graph.n_edges
        assert q.edge_pairs is pairs

    def test_generator_b_syllable_limit(self):
        bad = fp("a1b1a1b1")
        with pytest.raises(ValueError):
            build_truncation(3, 2, [bad], 2)

    def test_identity_generator_rejected(self):
        with pytest.raises(ValueError):
            build_truncation(3, 2, [FPWord.identity(3, 2)], 1)

    def test_generator_from_another_free_product_rejected(self):
        # this used to build an 84-vertex graph on the generator b2a4
        with pytest.raises(ValueError, match="Z_4 \\* Z_3"):
            build_truncation(4, 3, [gen_ab(5, 3)], 2)

    def test_circle_equals_one_generator_build(self):
        """The (ab)-edges of the full truncation are the truncation built on
        ab alone: the same labels, and the same edges in the same order with
        the same tags."""
        checked = 0
        for m, n, depth in itertools.product((3, 4, 5), (2, 3, 4), (1, 2, 3)):
            if count_truncation_classes(m, n, depth) > 1500:  # only (5, 4, 3)
                continue
            full = build_truncation(m, n, [gen_a(m, n), gen_ab(m, n)], depth).graph
            alone = build_truncation(m, n, [gen_ab(m, n)], depth).graph
            derived = generator_subgraph(full, gen_ab(m, n))
            assert derived.labels == alone.labels, (m, n, depth)
            assert derived.edges == alone.edges, (m, n, depth)
            checked += 1
        assert checked == 26


def computed_classes(m, n, gens, depth):
    """Build, and count the classes that went through the per-class code
    (the kernel's ``emit``) rather than being replayed."""
    ranges = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name == "emit" and code.co_filename == freeproduct.__file__:
            ranges.append(frame.f_locals["hi"] - frame.f_locals["lo"])

    sys.setprofile(profile)
    try:
        q = build_truncation(m, n, gens, depth)
    finally:
        sys.setprofile(None)
    return q, sum(ranges)


class TestRecordAndReplay:
    """Each layer past K + 1 runs the per-class code on the first block
    below a K-ancestor of each cone type and replays the rest; K =
    ceil(s/2) for the most syllables s in a generator."""

    @pytest.mark.parametrize("gens", sorted(DIFFERENTIAL_SETS))
    def test_matches_the_enumeration_where_blocks_replay(self, gens):
        """Every order of a from 2 (an involution) at the deepest depth
        under 600 classes, where some blocks are replayed (in Z_2 * Z_2
        every run is one class, so nothing is)."""
        for m, n in [(2, 3), *itertools.product((3, 4, 5, 6), (2, 3))]:
            depth = max(d for d in range(2, 9) if count_truncation_classes(m, n, d) <= 600)
            gen_set = DIFFERENTIAL_SETS[gens](m, n)
            fast, computed = computed_classes(m, n, gen_set, depth)
            assert computed < fast.graph.n_vertices, (m, n, depth)
            assert_same_truncation(fast, build_truncation_enum(m, n, gen_set, depth), (m, n, depth))

    def test_matches_the_enumeration_on_random_generators(self):
        """Seeded sets of one to three generators with a b-syllable, at
        depths where blocks are replayed: their edges cancel a class's last
        syllable and reach the one before, and some are parallel."""
        rng = random.Random(32)
        checked = cancelling = parallel = 0
        while checked < 30:
            m, n, depth = rng.randrange(2, 6), rng.randrange(2, 4), rng.randrange(3, 5)
            if count_truncation_classes(m, n, depth) > 600 or m * n == 4:
                continue
            gen_set = []
            while len(gen_set) < rng.randrange(1, 4):
                g = random_generator(rng, m, n)
                if g.b_count():
                    gen_set.append(g)
            case = (m, n, depth, [g.display() for g in gen_set])
            fast, computed = computed_classes(m, n, gen_set, depth)
            assert computed < fast.graph.n_vertices, case
            oracle = build_truncation_enum(m, n, gen_set, depth)
            assert_same_truncation(fast, oracle, case)
            cancelling += sum(map(cancels_past_last_syllable, oracle.edge_pairs))
            parallel += not fast.graph.is_simple()
            checked += 1
        assert cancelling > 100
        assert parallel >= 10

    @pytest.mark.parametrize("m,n,depth,texts", [
        (3, 2, 14, None),  # 98,298 classes, the deepest (3, 2) depth under the budget
        (6, 5, 3, None),
        (2, 2, 300, None),  # 600 layers of at most two classes
        (4, 3, 5, ["a1b1a2"]),  # three syllables: K = 2
        (5, 4, 3, ["a1b3a2", "b2a1", "a3"]),
        (2, 3, 9, ["a1b1a1", "b2"]),
    ])
    def test_matches_the_per_class_code_on_deep_depths(self, monkeypatch, m, n, depth, texts):
        # with a cone deeper than the last layer, every class is walked
        gens = [fp(t, m, n) for t in texts] if texts else [gen_a(m, n), gen_ab(m, n)]
        replayed = build_truncation(m, n, gens, depth)
        monkeypatch.setattr(freeproduct, "_cone_depth", lambda longest: 2 * depth)
        walked, computed = computed_classes(m, n, gens, depth)
        assert computed == walked.graph.n_vertices
        assert replayed.graph.labels == walked.graph.labels
        assert replayed.graph.edges == walked.graph.edges
        sample = range(0, walked.graph.n_edges, 1 + walked.graph.n_edges // 3000)
        assert [replayed.pair_of(i) for i in sample] == [walked.pair_of(i) for i in sample]

    def test_cone_depth_is_half_the_most_syllables_rounded_up(self):
        assert [freeproduct._cone_depth(r) for r in (1, 2, 3)] == [1, 1, 2]

    def test_few_classes_are_computed_one_by_one(self):
        q, computed = computed_classes(4, 3, [gen_a(4, 3), gen_ab(4, 3)], 4)
        # layers 0..2 whole (18 classes), then in each of layers 3..8 one
        # block of 2 or 3 classes per code of each ancestor run (6 per run):
        # two runs in layers 3..7, one in layer 8
        assert computed == 18 + 6 * (2 * 5 + 1)
        assert q.graph.n_vertices == 3108
        assert computed < 0.03 * 3108
        assert generator_subgraph(q.graph, gen_ab(4, 3)).is_cycle()

    @pytest.mark.parametrize("m,n,texts,cone", [(3, 2, ["a1", "a1b1"], 0), (4, 3, ["a1b1a2"], 1)])
    def test_a_shallow_cone_fails_loudly(self, monkeypatch, m, n, texts, cone):
        # a1b1 keeps edges read from the parent (x a1 to its sibling), and
        # a1b1a2 from the grandparent (x a2 to x' b a2 for a sibling x' b)
        depth_of = freeproduct._cone_depth
        monkeypatch.setattr(freeproduct, "_cone_depth", lambda longest: depth_of(longest) - 1)
        with pytest.raises(AssertionError, match=f"past its cone depth {cone}$"):
            build_truncation(m, n, [fp(t, m, n) for t in texts], 3)

    def test_a_shallow_cone_makes_cycletree_exit_4(self, monkeypatch, capsys):
        depth_of = freeproduct._cone_depth
        monkeypatch.setattr(freeproduct, "_cone_depth", lambda longest: depth_of(longest) - 1)
        assert cli.main(["cycletree", "-m", "4", "-n", "3", "-r", "4", "--json"]) == 4
        assert "AssertionError" in capsys.readouterr().err


class TestVerification:
    @pytest.mark.parametrize(
        "m,n,r,first_count",
        [(3, 2, 3, 6), (4, 2, 2, 8), (3, 3, 2, 9)],
    )
    def test_families_pass(self, m, n, r, first_count):
        report = verify_circle_truncations(m, n, r)
        assert report.passed
        assert report.class_counts[0] == first_count
        assert all(report.circle_is_cycle)
        assert all(report.full_connected)
        assert all(report.circle_spans_full)

    def test_report_json_round_trip(self):
        import json

        doc = verify_circle_truncations(3, 2, 2).to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["passed"] is True

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_circle_truncations(2, 2, 1)
        with pytest.raises(ValueError):
            verify_circle_truncations(3, 2, 0)

    def test_deepest_depth_sized_before_depth_one(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a truncation was built before the budget check")

        monkeypatch.setattr("hamcirc.freeproduct.build_truncation", no_build)
        assert count_truncation_classes(4, 3, 5) <= CLASS_BUDGET < count_truncation_classes(4, 3, 6)
        with pytest.raises(BudgetExceeded, match="^111972 classes exceeds 100000$"):
            verify_circle_truncations(4, 3, 6)

    def test_spanning_means_every_class_on_a_circle_edge(self, monkeypatch):
        real = build_truncation

        def strand_the_identity(m, n, gens, depth):
            # drop the circle edges at class "1", keeping its a-edges
            q = real(m, n, gens, depth)
            drop = [i for i, (u, _, tag) in enumerate(q.graph.edges) if u == 0 and tag == "a1b1"]
            assert len(drop) == 2
            return dataclasses.replace(q, graph=without_edges(q.graph, drop))

        monkeypatch.setattr("hamcirc.freeproduct.build_truncation", strand_the_identity)
        report = verify_circle_truncations(3, 2, 1)
        assert report.circle_spans_full == (False,)
        assert not report.passed

    @staticmethod
    def _reference(full, tag):
        """(circle is a cycle, full connected, circle spans) from degrees and
        connected components alone."""
        circle = without_edges(full, (i for i, (_, _, t) in enumerate(full.edges) if t != tag))
        degrees = circle.degrees()
        one_piece = len(connected_components(circle)) == 1
        return (
            len(degrees) >= 3 and set(degrees) == {2} and one_piece,
            len(connected_components(full)) == 1,
            all(degrees),
        )

    def _fields_with(self, monkeypatch, change, m=3, n=2, r_max=3):
        """The per-depth fields of a report whose truncations went through
        ``change``, checked against the reference on each changed graph.
        Depths are built deepest first; one below a connected depth builds
        ab alone and takes its connectivity from the deeper depth."""
        real, built = build_truncation, []
        tag = edge_tag(gen_ab(m, n))

        def changed(m, n, gens, depth):
            q = real(m, n, gens, depth)
            built.append((depth, len(gens), change(q.graph, tag)))
            return dataclasses.replace(q, graph=built[-1][-1])

        monkeypatch.setattr("hamcirc.freeproduct.build_truncation", changed)
        report = verify_circle_truncations(m, n, r_max)
        fields = list(zip(report.circle_is_cycle, report.full_connected, report.circle_spans_full))
        assert [depth for depth, _, _ in built] == list(range(r_max, 0, -1))
        want, connected = [], False
        for _, n_gens, g in built:
            assert n_gens == (1 if connected else 2)
            cyc, conn, span = self._reference(g, tag)
            connected = connected or conn
            want.append((cyc, connected, span))
        assert fields == want[::-1]
        assert not report.passed
        return fields

    @pytest.mark.parametrize("m, n", [(3, 2), (4, 3)])
    def test_isolated_class_fails_all_three(self, monkeypatch, m, n):
        def isolate_last(g, tag):
            last = g.n_vertices - 1
            return without_edges(g, (i for i, (u, v, _) in enumerate(g.edges) if last in (u, v)))

        fields = self._fields_with(monkeypatch, isolate_last, m, n)
        assert fields == [(False, False, False)] * 3

    @pytest.mark.parametrize("m, n", [(3, 2), (4, 3)])
    def test_circle_split_in_two_stays_connected_and_spanning(self, monkeypatch, m, n):
        def split_circle(g, tag):
            # swap the far ends of two opposite circle edges (x0, x1) and
            # (xh, xh+1): the ab-edges close into two cycles, x1..xh and
            # xh+1..x0, and every class keeps its two circle edges
            pos = cycle_positions(
                without_edges(g, (i for i, e in enumerate(g.edges) if e[2] != tag))
            )
            at = sorted(range(g.n_vertices), key=pos.__getitem__)
            h = len(at) // 2
            drop = [
                next(i for i in edges_between(g, x, y) if g.edges[i][2] == tag)
                for x, y in ((at[0], at[1]), (at[h], at[h + 1]))
            ]
            kept = without_edges(g, drop).edges
            return Multigraph(g.labels, [*kept, (at[0], at[h + 1], tag), (at[h], at[1], tag)])

        fields = self._fields_with(monkeypatch, split_circle, m, n)
        assert fields == [(False, True, True)] * 3

    def test_matches_depth_by_depth_oracle(self):
        """The deepest passing depth settles the shallower ones: the same
        report, JSON and deepest circle as building and checking each."""
        checked = 0
        for m, n, r in itertools.product(range(3, 7), range(2, 6), range(1, 5)):
            if count_truncation_classes(m, n, r) > CLASS_BUDGET:
                continue
            report = verify_circle_truncations(m, n, r)
            oracle = verify_circle_truncations_by_depth(m, n, r)
            assert report == oracle, (m, n, r)
            assert report.to_json_dict() == oracle.to_json_dict(), (m, n, r)
            assert report.deepest_circle.labels == oracle.deepest_circle.labels, (m, n, r)
            assert report.deepest_circle.edges == oracle.deepest_circle.edges, (m, n, r)
            checked += 1
        assert checked == 62

    def test_two_circle_edges_leave_each_cone(self):
        """A full class w of depth r-1 is, at depth r, the cone of classes
        whose representatives truncate to w; exactly the circle edges
        {w (ab)^-1, w} and {w a^(m-1), w b} leave it."""
        checked = 0
        for m, n, r in itertools.product((3, 4, 5), (2, 3, 4), (2, 3)):
            if count_truncation_classes(m, n, r) > 2000:
                continue
            ab = gen_ab(m, n)
            q = build_truncation(m, n, [ab], r)
            cones = {}
            for x, label in enumerate(q.graph.labels):
                w = FPWord(truncate_after_b(fp(label, m, n).syllables, r - 1), m, n)
                if w.b_count() == r - 1:
                    cones.setdefault(w, set()).add(x)
            in_cones = sum(map(len, cones.values()))
            # every other class is a short class of depth r - 1
            assert len(cones) + q.graph.n_vertices - in_cones == count_truncation_classes(m, n, r - 1)
            a_last = FPWord((("a", m - 1),), m, n)
            for w, cone in cones.items():
                leaving = [
                    q.pair_of(i)
                    for i, (u, v, _) in enumerate(q.graph.edges)
                    if (u in cone) != (v in cone)
                ]
                want = [
                    tuple(x.syllables for x in sorted((u, u * ab)))
                    for u in (w * ab.inverse(), w * a_last)
                ]
                assert sorted(leaving) == sorted(want), (m, n, r, w)
            checked += 1
        assert checked == 17

    @pytest.mark.parametrize(
        "check, field, n_gens",
        [("is_cycle", "circle_is_cycle", 1), ("is_connected", "full_connected", 2)],
    )
    def test_failing_deepest_depth_builds_the_next(self, monkeypatch, check, field, n_gens):
        """No real input fails: a deepest depth made to fail one check
        settles nothing, so depth r-1 is built (on ab alone when the deepest
        was connected) and checked, and it settles the rest."""
        real_check, real_build = getattr(Multigraph, check), build_truncation
        calls, built = [], []

        def fails_first(self):
            calls.append(None)
            return len(calls) > 1 and real_check(self)

        def recording(m, n, gens, depth):
            built.append((depth, len(gens)))
            return real_build(m, n, gens, depth)

        monkeypatch.setattr(Multigraph, check, fails_first)
        oracle = verify_circle_truncations_by_depth(3, 2, 4)
        calls.clear()
        monkeypatch.setattr("hamcirc.freeproduct.build_truncation", recording)
        report = verify_circle_truncations(3, 2, 4)
        assert built == [(4, 2), (3, n_gens)]
        assert report == oracle
        assert report.to_json_dict() == oracle.to_json_dict()
        assert getattr(report, field) == (True, True, True, False)
        assert not report.passed

    def test_report_keeps_deepest_circle(self):
        report = verify_circle_truncations(3, 2, 2)
        deepest = build_truncation(3, 2, [gen_ab(3, 2)], 2).graph
        assert report.deepest_circle.to_dot() == deepest.to_dot()
        assert "deepest_circle" not in report.to_json_dict()
        stripped = dataclasses.replace(report, deepest_circle=None)
        assert stripped == report


class TestDisconnectingPair:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_designated_pair_disconnects(self, depth):
        assert disconnecting_pair_disconnects(3, 2, depth)

    def test_other_families(self):
        assert disconnecting_pair_disconnects(3, 3, 2)
        assert disconnecting_pair_disconnects(4, 2, 2)

    def test_full_graph_connected_before_removal(self):
        q = build_truncation(3, 2, [gen_a(3, 2), gen_ab(3, 2)], 2)
        assert q.graph.is_connected()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            disconnecting_pair_disconnects(3, 2, 1)
