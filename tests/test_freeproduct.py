import dataclasses
import itertools
import random

import pytest

from hamcirc.freeproduct import (
    FPWord,
    TruncationBudgetExceeded,
    build_truncation,
    count_truncation_classes,
    disconnecting_pair_disconnects,
    enumerate_fp_words,
    gen_a,
    gen_ab,
    verify_circle_truncations,
)
from hamcirc.quotients import generator_subgraph


def fp(text, m=3, n=2):
    return FPWord.parse(text, m, n)


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
        assert fp("a1b1a2b1a1").truncate_after_b(1).display() == "a1b1"

    def test_short_word_is_its_own_class(self):
        assert fp("a2").truncate_after_b(1) == fp("a2")

    def test_truncate_after_second_b(self):
        assert fp("a1b1a2b1a1").truncate_after_b(2).display() == "a1b1a2b1"


class TestTruncationGraphs:
    def test_base_case_six_cycle(self):
        q = build_truncation(3, 2, [gen_ab(3, 2)], 1)
        g = q.graph
        assert g.is_cycle() and g.n_vertices == 6
        expected_cycle = ["1", "a1b1", "a1", "a2b1", "a2", "b1"]
        for i, label in enumerate(expected_cycle):
            nxt = expected_cycle[(i + 1) % 6]
            u, v = g.labels.index(label), g.labels.index(nxt)
            assert g.edges_between(u, v), (label, nxt)

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
            assert g.edges_between(g.labels.index(label), g.labels.index(nxt)), (
                label, nxt,
            )

    def test_depth_two_single_cycle(self):
        q = build_truncation(3, 2, [gen_ab(3, 2)], 2)
        assert q.graph.is_cycle()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            build_truncation(3, 2, [gen_ab(3, 2)], 0)

    def test_budget(self):
        with pytest.raises(TruncationBudgetExceeded):
            build_truncation(3, 2, [gen_ab(3, 2)], 3, budget=5)

    def test_budget_refuses_before_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("normal forms enumerated before the budget check")

        monkeypatch.setattr("hamcirc.freeproduct._normal_forms", no_enumeration)
        with pytest.raises(TruncationBudgetExceeded, match="^18660 classes exceeds 10$"):
            build_truncation(4, 3, [gen_ab(4, 3)], 5, budget=10)

    def test_class_count_closed_form(self):
        checked = 0
        for m, n, depth in itertools.product((2, 3, 4, 5), (2, 3, 4), (1, 2, 3, 4)):
            count = count_truncation_classes(m, n, depth)
            if count > 1500:  # 6 of the 48 points; (5, 4, 4) alone builds in ~30 s
                continue
            q = build_truncation(m, n, [gen_ab(m, n)], depth)
            assert count == q.graph.n_vertices, (m, n, depth)
            checked += 1
        assert checked == 42

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

    def test_spanning_means_every_class_on_a_circle_edge(self, monkeypatch):
        real = build_truncation

        def strand_the_identity(m, n, gens, depth):
            # drop the circle edges at class "1", keeping its a-edges
            q = real(m, n, gens, depth)
            drop = [i for i, e in enumerate(q.graph.edges) if e.u == 0 and e.tag == "a1b1"]
            assert len(drop) == 2
            return dataclasses.replace(q, graph=q.graph.without_edges(drop))

        monkeypatch.setattr("hamcirc.freeproduct.build_truncation", strand_the_identity)
        report = verify_circle_truncations(3, 2, 1)
        assert report.circle_spans_full == (False,)
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
