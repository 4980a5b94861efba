import json
import random

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
    Certificate,
    CertifierInternalError,
    certify,
    classify,
    commutators_word,
    default_max_level,
    level_one_quotient,
    squares_word,
    whitehead_graph_is_one_block,
)
from hamcirc.minimize import OrbitCapExceeded, minimal_orbit, whitehead_minimize
from hamcirc.multigraph import Multigraph
from hamcirc.quotients import build_quotient_local
from hamcirc.words import (
    BudgetExceeded,
    ReducedWord,
    cyclic_reduce_letters,
    letter_str,
    reduced_words,
)
from oracles import (
    connected_components,
    cyclic_reduction,
    edges_between,
    elementary_automorphisms,
    induced_subgraph,
    is_cyclically_reduced,
    split_check,
)


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


def edge_labels(g):
    return sorted(
        tuple(sorted((g.labels[u], g.labels[v]))) for u, v, _ in g.edges
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
        comps = connected_components(g)
        named = sorted(sorted(g.labels[v] for v in comp) for comp in comps)
        assert named == [["1", "B", "a"], ["A", "b"]]
        small = [g.labels.index("A"), g.labels.index("b")]
        assert len(edges_between(g, *small)) == 2

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

    def test_degree_two_word_minimized_to_every_generator_raises(self, monkeypatch):
        # |abab| = 2n with no level-1 cycle, so by the lemma its minimized
        # form is shorter and misses a generator; one that does not is a bug
        monkeypatch.setattr(
            "hamcirc.certifier.whitehead_minimize", lambda s: (cyclic_reduction(s), ())
        )
        with pytest.raises(
            CertifierInternalError,
            match="^abab, the minimized form of the degree-two word abab, uses every generator",
        ):
            certify(2, w("abab"))

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

    @pytest.mark.parametrize("level", [1, 3])
    def test_quotient_recheck_names_input_word_and_level(self, monkeypatch, level):
        """A Yes re-verifies every level of the word that decided it, level 1
        included, also when that is the minimized form of the input."""
        build = build_quotient_local

        def broken(n, gens, at):
            return build(n, [w("abab")] if at == level else gens, at)

        monkeypatch.setattr("hamcirc.certifier.build_quotient_local", broken)
        for text, checked in (("aabb", "aabb"), ("aaabab", "aabb")):
            with pytest.raises(
                CertifierInternalError,
                match=f"^certify {text}: the level-{level} quotient of {checked} is not a cycle$",
            ):
                certify(2, w(text))

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


def whitehead_oracle(word):
    """Whether the Whitehead graph of ``word`` is connected with no cut
    vertex, from the level-1 quotient with the identity vertex contracted
    and a brute-force search for a cut vertex."""
    g = level_one_quotient(word)
    t = word.letters
    edges = [(u, v) for u, v, _ in g.edges if 0 not in (u, v)]
    edges.append((g.labels.index(letter_str(-t[-1])), g.labels.index(letter_str(t[0]))))
    contracted = Multigraph(g.labels[1:], [(u - 1, v - 1) for u, v in edges])
    every = range(contracted.n_vertices)
    return contracted.is_connected() and all(
        induced_subgraph(contracted, [u for u in every if u != v]).is_connected()
        for v in every
    )


def cyclic_words(rank, max_len):
    for raw in reduced_words(rank, max_len):
        if raw and cyclic_reduce_letters(raw)[0] == raw:
            yield ReducedWord(raw, rank)


def random_cyclic_words(rng, rank, length):
    while True:
        letters = []
        while len(letters) < length:
            x = rng.choice([*range(1, rank + 1), *range(-rank, 0)])
            if not letters or x != -letters[-1]:
                letters.append(x)
        if letters[0] != -letters[-1]:
            yield ReducedWord(tuple(letters), rank)


def is_gated(cert):
    return cert.note.startswith("orbit closure skipped")


def certify_by_closure(n, s):
    """``certify`` as it stood before it decided from the minimized word
    alone, as an oracle for a nontrivial cyclically reduced ``s``.

    A level-1 cycle is a Yes and a word with every letter count 2 a No, as
    in ``certify``.  Otherwise the orbit closure from ``whitehead_minimize(s)``
    stops at the first word that misses a generator (No) or is a level-1
    cycle (Yes, its levels re-verified by ``certify``).  A complete closure
    with no hit holds no canonical word and answers No at minimal length 2n,
    Unknown otherwise; that Unknown carries the note of the skipped closure
    when the minimized word is longer than 2n with a one-block Whitehead
    graph by ``whitehead_oracle``.  Raises ``OrbitCapExceeded`` past
    ``minimize.ORBIT_CAP`` words.
    """
    levels = tuple(range(1, default_max_level(n) + 1))
    if level_one_quotient(s).is_cycle():
        return Certificate(VERDICT_YES, s.max_letter_count() <= 2, REASON_CYCLE, None, levels)
    if all(s.letter_count(i) == 2 for i in range(1, n + 1)):
        return Certificate(VERDICT_NO, False, REASON_NOT_CYCLE_DEGREE_TWO, None, ())

    def probe(raw):
        if len(frozenset(abs(x) for x in raw)) < n:
            return "missing"
        if len(raw) == 2 * n:
            v = ReducedWord(raw, n)
            if v.max_letter_count() <= 2 and level_one_quotient(v).is_cycle():
                return "cycle"
        return None

    orbit = minimal_orbit(s, stop=probe)
    if orbit.hit is not None:
        raw, tag = orbit.hit
        if tag == "missing":
            return Certificate(VERDICT_NO, False, REASON_MISSING_GENERATOR, orbit.chain_to(raw), ())
        return Certificate(VERDICT_YES, s.max_letter_count() <= 2, REASON_CYCLE,
                           orbit.chain_to(raw), levels)
    canonical = {squares_word(n).letters}
    if n % 2 == 0:
        canonical.add(commutators_word(n).letters)
    assert not canonical & set(orbit.parents), s
    base = orbit.base
    if len(base) == 2 * n:
        return Certificate(VERDICT_NO, False, REASON_NOT_CYCLE_DEGREE_TWO,
                           orbit.chain_to(base.letters), ())
    note = ""
    if whitehead_oracle(base):
        note = (f"orbit closure skipped: {base.display()} is longer than {2 * n} "
                "letters and its Whitehead graph is connected with no cut vertex, "
                "so no word of its orbit can decide")
    return Certificate(VERDICT_UNKNOWN, False, REASON_UNDECIDED, None, (), note=note)


def differential_words():
    """(word, orbit cap) for every cyclically reduced rank-2 word up to
    length 7 and rank-3 word up to length 5, and 20 seeded rank-4 words:
    half of them random, of length 6-12, and half images of the canonical
    words under one elementary automorphism."""
    rng = random.Random(13)
    cases = [(word, 10**5) for word in (*cyclic_words(2, 7), *cyclic_words(3, 5))]
    autos = elementary_automorphisms(4)
    for i in range(10):
        cases.append((next(random_cyclic_words(rng, 4, rng.randrange(6, 13))), 2000))
        canonical = (squares_word, commutators_word)[i % 2](4)
        cases.append((cyclic_reduction(rng.choice(autos).apply(canonical)), 2000))
    return cases


class TestGate:
    """certify decides from the minimized word alone: by Whitehead's
    cut-vertex lemma its Whitehead graph is one block when it uses every
    generator, so the orbit closure could only repeat the answer."""

    @pytest.mark.parametrize(
        "text,rank,one_block,unknown",
        [
            ("aaabbb", 2, True, True),  # the 4-cycle a - A - b - B
            ("aaabbbb", 3, False, False),  # misses c: c and C are isolated
            ("aaaaab", 2, False, False),  # the path b - A - a - B, cut at A and a
            ("abAB", 2, True, False),  # length 2n
            ("aabb", 2, True, False),
            ("aabbcc", 3, True, False),
        ],
    )
    def test_hand_picked_words(self, text, rank, one_block, unknown):
        word = w(text, rank)
        assert whitehead_oracle(word) == one_block
        assert whitehead_graph_is_one_block(word) == one_block
        assert (certify(rank, word).verdict == VERDICT_UNKNOWN) == unknown

    def test_predicate_matches_the_contracted_level_one_quotient(self):
        rng = random.Random(5)
        words = [*cyclic_words(2, 7)]
        for length in (7, 8, 9):
            words += [next(random_cyclic_words(rng, 3, length)) for _ in range(100)]
        outcomes = []
        for word in words:
            outcomes.append(whitehead_oracle(word))
            assert whitehead_graph_is_one_block(word) == outcomes[-1], word
        # both answers are common, also among the rank-3 words
        assert outcomes.count(True) > 1000 and outcomes.count(False) > 500
        assert 30 < outcomes[-300:].count(True) < 270

    def test_certify_matches_the_closure_oracle(self, monkeypatch):
        decided = {VERDICT_YES: 0, VERDICT_NO: 0, VERDICT_UNKNOWN: 0}
        ranks = set()
        for word, cap in differential_words():
            monkeypatch.setattr("hamcirc.minimize.ORBIT_CAP", cap)
            try:
                expect = certify_by_closure(word.rank, word)
            except OrbitCapExceeded:
                continue
            cert = certify(word.rank, word)
            assert cert.to_json_dict() == expect.to_json_dict(), word
            assert cert.note == expect.note, word
            decided[cert.verdict] += 1
            ranks.add(word.rank)
        assert min(decided.values()) > 40 and ranks == {2, 3, 4}, (decided, ranks)

    def test_minimized_word_is_one_block_or_misses_a_generator(self):
        cycles = 0
        for word, _cap in differential_words():
            base, chain = whitehead_minimize(word)
            assert apply_chain(chain, word) == base
            if len(base.support()) < word.rank:
                continue
            assert whitehead_oracle(base), word
            assert len(base) >= 2 * word.rank, word
            if len(base) == 2 * word.rank:
                assert level_one_quotient(base).is_cycle(), word
                cycles += 1
        assert cycles > 40

    def test_rank_four_orbit_cap_word_skips_the_closure(self, monkeypatch):
        def no_closure(*args, **kwargs):
            raise AssertionError("minimal_orbit called on a gated word")

        monkeypatch.setattr("hamcirc.certifier.minimal_orbit", no_closure)
        cert = certify(4, w("DDCBBAcDCDcA", 4))
        assert (cert.verdict, cert.reason) == (VERDICT_UNKNOWN, REASON_UNDECIDED)
        assert cert.witness is None and cert.checked_levels == ()
        assert is_gated(cert)

    def test_minimizes_once(self, monkeypatch):
        calls = []

        def counted(word):
            calls.append(word)
            return whitehead_minimize(word)

        monkeypatch.setattr("hamcirc.minimize.whitehead_minimize", counted)
        monkeypatch.setattr("hamcirc.certifier.whitehead_minimize", counted)
        # Unknown, No (also for a degree-two word) and Yes, each from the
        # minimized word
        for text, verdict in (("aaabbb", VERDICT_UNKNOWN), ("aaab", VERDICT_NO),
                              ("abab", VERDICT_NO), ("aaabab", VERDICT_YES)):
            calls.clear()
            assert certify(2, w(text)).verdict == verdict
            assert len(calls) == 1, text
        calls.clear()
        assert classify(2, w("aBAb")).kind == "Commutators"
        assert len(calls) == 1


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
        if not is_cyclically_reduced(word):
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
