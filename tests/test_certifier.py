import json

import pytest

from hamcirc.automorphisms import apply_chain
from hamcirc.certifier import (
    REASON_CYCLE,
    REASON_MISSING_GENERATOR,
    REASON_NOT_CYCLE_DEGREE_TWO,
    REASON_TRIVIAL,
    REASON_UNDECIDED,
    VERDICT_NO,
    VERDICT_UNKNOWN,
    VERDICT_YES,
    certify,
    classify,
    commutators_word,
    level_one_quotient,
    split_check,
    squares_word,
)
from hamcirc.quotients import BudgetExceeded
from hamcirc.words import ReducedWord


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


def edge_labels(g):
    return sorted(
        tuple(sorted((g.labels[e.u], g.labels[e.v]))) for e in g.edges
    )


class TestLevelOneGraph:
    def test_squares_five_cycle(self):
        g = level_one_quotient(w("aabb"))
        assert g.is_cycle()
        assert edge_labels(g) == sorted(
            tuple(sorted(pair))
            for pair in [("1", "a"), ("a", "A"), ("A", "b"), ("b", "B"), ("B", "1")]
        )

    def test_commutator_five_cycle(self):
        g = level_one_quotient(w("abAB"))
        assert g.is_cycle()
        assert edge_labels(g) == sorted(
            tuple(sorted(pair))
            for pair in [("1", "a"), ("A", "b"), ("B", "A"), ("a", "B"), ("b", "1")]
        )

    def test_abab_components(self):
        g = level_one_quotient(w("abab"))
        comps = g.connected_components()
        named = sorted(sorted(g.labels[v] for v in comp) for comp in comps)
        assert named == [["1", "B", "a"], ["A", "b"]]
        small = [g.labels.index("A"), g.labels.index("b")]
        assert len(g.edges_between(*small)) == 2

    def test_trivial_word_rejected(self):
        with pytest.raises(ValueError):
            level_one_quotient(w(""))

    def test_vertex_count(self):
        g = level_one_quotient(w("aabbcc", 3))
        assert g.n_vertices == 7


class TestCertify:
    def test_squares_rank_two(self):
        cert = certify(2, w("aabb"))
        assert cert.verdict == VERDICT_YES
        assert cert.unique
        assert cert.reason == REASON_CYCLE
        assert cert.checked_levels == (1, 2, 3, 4)

    def test_commutator_rank_two(self):
        cert = certify(2, w("abAB"))
        assert cert.verdict == VERDICT_YES and cert.unique

    def test_single_generator_missing(self):
        cert = certify(2, w("a"))
        assert cert.verdict == VERDICT_NO
        assert cert.reason == REASON_MISSING_GENERATOR

    def test_abab_degree_two_failure(self):
        cert = certify(2, w("abab"))
        assert cert.verdict == VERDICT_NO
        assert cert.reason == REASON_NOT_CYCLE_DEGREE_TWO

    def test_trivial_word(self):
        cert = certify(2, w(""))
        assert (cert.verdict, cert.reason) == (VERDICT_NO, REASON_TRIVIAL)

    def test_transfer_through_orbit(self):
        # aaabab is aabb after b -> ab, so the circle exists, but the word
        # itself has four a-letters so uniqueness is not asserted
        word = w("aaabab")
        cert = certify(2, word)
        assert cert.verdict == VERDICT_YES
        assert not cert.unique
        assert cert.witness is not None
        image = apply_chain(cert.witness, word)
        assert level_one_quotient(image).is_cycle()

    def test_unknown_for_longer_orbit(self):
        cert = certify(2, w("aaabbb"))
        assert cert.verdict == VERDICT_UNKNOWN
        assert cert.reason == REASON_UNDECIDED

    def test_orbit_cap_gives_unknown_with_note(self):
        cert = certify(2, w("aaabbb"), orbit_cap=2)
        assert cert.verdict == VERDICT_UNKNOWN
        assert cert.note

    @pytest.mark.parametrize("text", ["aabb", "abab", "aabbab", ""])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_orbit_cap_below_one_refused_at_entry(self, monkeypatch, text, cap):
        """Every word is refused alike, whichever branch would decide it,
        before the level-1 quotient or an orbit is built."""

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the orbit cap check")

        monkeypatch.setattr("hamcirc.certifier.level_one_quotient", no_work)
        monkeypatch.setattr("hamcirc.certifier.minimal_orbit", no_work)
        with pytest.raises(ValueError, match=f"^orbit cap must be at least 1, got {cap}$"):
            certify(2, w(text), orbit_cap=cap)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            certify(1, w("a", 1))
        with pytest.raises(ValueError):
            certify(3, w("aabb", 2))

    def test_quotient_budget_applies_to_yes_verdicts_only(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("words enumerated before the budget check")

        monkeypatch.setattr("hamcirc.quotients.shortlex_words", no_enumeration)
        monkeypatch.setattr("hamcirc.quotients.shortlex_labels", no_enumeration)
        with pytest.raises(BudgetExceeded, match="^1062881 classes"):
            certify(2, w("aabb"), max_level=12)
        with pytest.raises(BudgetExceeded):
            certify(2, w("aaabab"), max_level=12)  # a Yes through a witness chain
        assert certify(2, w("abab"), max_level=12).verdict == VERDICT_NO

    def test_higher_ranks(self):
        assert certify(3, w("aabbcc", 3)).verdict == VERDICT_YES
        assert certify(4, w("abABcdCD", 4)).verdict == VERDICT_YES
        assert certify(5, w("aabbccddee", 5)).verdict == VERDICT_YES

    def test_certificate_invariants(self):
        for text in ("aabb", "abAB", "a", "abab", "", "aaabbb", "aaabab"):
            cert = certify(2, w(text))
            if cert.verdict == VERDICT_YES:
                assert cert.reason == REASON_CYCLE and cert.checked_levels
            if cert.verdict == VERDICT_NO:
                assert cert.reason in (
                    REASON_MISSING_GENERATOR,
                    REASON_NOT_CYCLE_DEGREE_TWO,
                    REASON_TRIVIAL,
                )
            if cert.unique:
                assert w(text).max_letter_count() <= 2

    def test_json_shape(self):
        doc = certify(2, w("aabb")).to_json_dict()
        assert set(doc) == {"verdict", "unique", "reason", "witness", "checked_levels"}
        assert json.loads(json.dumps(doc)) == doc


class TestClassify:
    def test_already_canonical(self):
        form = classify(2, w("aabb"))
        assert form.kind == "Squares"
        assert form.witness == ()  # identity witness

    def test_commutator_canonical(self):
        form = classify(2, w("abAB"))
        assert form.kind == "Commutators"

    def test_three_generator_squares(self):
        word = w("abABcc", 3)
        form = classify(3, word)
        assert form.kind == "Squares"
        assert apply_chain(form.witness, word) == w("aabbcc", 3)

    def test_abab_is_none(self):
        assert classify(2, w("abab")).kind is None

    @pytest.mark.parametrize("text", ["abab", "aabb", "aaabbb"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_orbit_cap_below_one_refused_at_entry(self, monkeypatch, text, cap):
        """Refused before minimization, also for words whose minimal length
        would answer None without an orbit."""

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the orbit cap check")

        monkeypatch.setattr("hamcirc.certifier.whitehead_minimize", no_work)
        monkeypatch.setattr("hamcirc.certifier.minimal_orbit", no_work)
        with pytest.raises(ValueError, match=f"^orbit cap must be at least 1, got {cap}$"):
            classify(2, w(text), orbit_cap=cap)

    def test_witness_reproduces_canonical(self):
        word = w("aaabab")
        form = classify(2, word)
        assert form.kind == "Squares"
        assert apply_chain(form.witness, word) == squares_word(2)

    def test_canonical_words(self):
        assert str(squares_word(3)) == "aabbcc"
        assert str(commutators_word(2)) == "abAB"
        assert str(commutators_word(4)) == "abABcdCD"
        with pytest.raises(ValueError):
            commutators_word(3)


def test_certify_matches_classify_on_all_short_words():
    """Yes verdicts and canonical forms coincide over every cyclically
    reduced rank-2 word up to length 6, with no internal inconsistency."""
    from hamcirc.words import reduced_words

    total = yes = 0
    for raw in reduced_words(2, 6):
        if len(raw) < 2:
            continue
        word = ReducedWord(raw, 2)
        if not word.is_cyclically_reduced():
            continue
        cert = certify(2, word)
        form = classify(2, word)
        assert (cert.verdict == VERDICT_YES) == (form.kind is not None), word
        if cert.verdict == VERDICT_YES:
            yes += 1
        total += 1
    assert total == 1100 and yes == 88


class TestParityObstruction:
    """Words with zero exponent sums and every letter count 2 can only pass
    the level-1 cycle test in even rank."""

    @staticmethod
    def balanced_words(n):
        import itertools

        letters = [x for i in range(1, n + 1) for x in (i, -i)]
        for perm in itertools.permutations(letters):
            if all(perm[i + 1] != -perm[i] for i in range(len(perm) - 1)):
                yield ReducedWord(tuple(perm), n)

    def test_rank_two_has_cycles(self):
        hits = [
            word
            for word in self.balanced_words(2)
            if level_one_quotient(word).is_cycle()
        ]
        assert hits
        assert w("abAB") in hits

    def test_rank_three_has_none(self):
        for word in self.balanced_words(3):
            assert not level_one_quotient(word).is_cycle(), word

    def test_rank_four_has_cycles(self):
        hits = 0
        for word in self.balanced_words(4):
            if level_one_quotient(word).is_cycle():
                hits += 1
        assert hits > 0


class TestSplitCheck:
    def test_squares_split(self):
        assert split_check(w("aabbcc", 3), 2) is True

    def test_abab_prefix_split(self):
        assert split_check(w("ababcc", 3), 2) is False

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError):
            split_check(w("aabb", 3), 2)  # empty high factor
        with pytest.raises(ValueError):
            split_check(w("cc", 3), 2)  # empty low factor

    def test_interleaved_rejected(self):
        with pytest.raises(ValueError):
            split_check(w("acab", 3), 1)

    def test_matches_full_cycle_test(self):
        for text, k in [("aabbcc", 2), ("ababcc", 2), ("aabbcc", 1), ("abABcc", 2)]:
            word = w(text, 3)
            assert split_check(word, k) == level_one_quotient(word).is_cycle()
