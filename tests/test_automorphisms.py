import random

import pytest

from hamcirc.automorphisms import (
    MOVE_BUDGET,
    FGAutomorphism,
    Inv,
    Mul,
    Perm,
    _move_lists,
    apply_chain,
    chain_moves,
    conjugation_by_letter,
    elementary_moves,
    parse_move,
)
from hamcirc.words import COUNT_CAP, BudgetExceeded, ReducedWord, letters_str
from oracles import compose, elementary_automorphisms, identity, inverse, is_identity


def w(text, rank):
    return ReducedWord.parse(text, rank)


class TestMoves:
    def test_serialization(self):
        assert str(Perm((2, 1))) == "perm(2,1)"
        assert str(Inv(1)) == "inv(1)"
        assert str(Mul(2, "left", 1)) == "mul(2,left,1,+1)"
        assert str(Mul(2, "right", -1)) == "mul(2,right,1,-1)"

    def test_parse_round_trip(self):
        for text in ("perm(2,1)", "inv(3)", "mul(2,left,1,+1)", "mul(1,right,3,-1)"):
            assert str(parse_move(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "mul(2,left,1,1)",  # each of these four once parsed as mul(2,left,1,-1)
            "mul(2,left,1,+2)",
            "mul(2,left,1,banana)",
            "mul(2,left,-1,+1)",
            "mul(2, left, 1, +1)",
            "mul(+2,left,1,+1)",
            "mul(2,left,01,+1)",
            "perm(02,1)",
            "perm(2,+1)",
            "inv(+1)",
            "inv( 1)",
            "inv(1,)",
            "mul(2,up,1,+1)",
            "mul(2,left,1)",
            "id",
        ],
    )
    def test_parse_refuses_text_printed_otherwise(self, text):
        with pytest.raises(ValueError):
            parse_move(text)

    def test_parse_ignores_surrounding_whitespace(self):
        assert str(parse_move("  mul(2,left,1,-1)\n")) == "mul(2,left,1,-1)"

    def test_serialized_witness_chains_replay(self):
        # every emitted move string parses back to an equivalent move
        from hamcirc.certifier import classify
        from hamcirc.words import ReducedWord

        word = ReducedWord.parse("abABcc", 3)
        form = classify(3, word)
        moves = [parse_move(text) for text in chain_moves(form.witness)]
        replay = FGAutomorphism.from_moves(moves, 3)
        assert replay.apply(word) == ReducedWord.parse("aabbcc", 3)

    def test_mul_left_means_prefix(self):
        # mul(2,left,1,+1) is b -> ab
        phi = FGAutomorphism.from_moves((Mul(2, "left", 1),), 2)
        assert str(phi.images[1]) == "ab"

    def test_mul_rejects_self_multiplication(self):
        with pytest.raises(ValueError):
            Mul(1, "left", 1)

    def test_perm_validation(self):
        with pytest.raises(ValueError):
            Perm((1, 1))


def automorphisms_of(rank):
    """The elementary set as automorphisms, built from its move lists."""
    return [FGAutomorphism.from_moves(moves, rank) for moves in elementary_moves(rank).values()]


class TestElementarySet:
    def test_rank_one(self):
        assert list(elementary_moves(1)) == [((1,),), ((-1,),)]

    def test_rank_two_contents(self):
        autos = elementary_moves(2)
        image_map = {tuple(letters_str(im) for im in images) for images in autos}
        # single multiplications on either side, in either sign
        for expected in [
            ("ab", "b"), ("ba", "b"), ("a", "ba"), ("a", "ab"),
            ("aB", "b"), ("Ba", "b"), ("a", "bA"), ("a", "Ab"),
        ]:
            assert expected in image_map
        # permutations and sign patterns
        assert ("b", "a") in image_map
        assert ("A", "b") in image_map and ("a", "B") in image_map and ("A", "B") in image_map
        # conjugations
        assert ("a", "Aba") in image_map  # b -> a^-1 b a
        assert len(autos) == 17

    def test_identity_member(self):
        # the identity is in the set, first
        assert next(iter(elementary_moves(2))) == ((1,), (2,))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_closed_under_inversion(self, rank):
        keys = set(elementary_moves(rank))
        for phi in automorphisms_of(rank):
            assert tuple(im.letters for im in inverse(phi).images) in keys

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_inverse_composition_is_identity(self, rank):
        for phi in automorphisms_of(rank):
            assert is_identity(compose(phi, inverse(phi)))
            assert is_identity(compose(inverse(phi), phi))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_images_are_those_the_moves_give(self, rank):
        # the images read from each move's description are those that
        # from_moves computes, and the move lists, in order, are the
        # oracle's, which builds one automorphism per move list
        found = elementary_moves(rank)
        for images, moves in found.items():
            phi = FGAutomorphism.from_moves(moves, rank)
            assert images == tuple(im.letters for im in phi.images), moves
        assert list(found.values()) == [phi.moves for phi in elementary_automorphisms(rank)]


class TestMoveBudget:
    """The elementary set is sized in closed form before any move is built."""

    @staticmethod
    def no_moves(monkeypatch):
        def refuse(*args):
            raise AssertionError("a move was built")

        for kind in (Perm, Inv, Mul):
            monkeypatch.setattr(kind, "__init__", refuse)

    def test_rank_eight_refused_before_building(self, monkeypatch):
        self.no_moves(monkeypatch)
        with pytest.raises(BudgetExceeded, match="^302720 elementary moves exceeds 100000$"):
            elementary_moves(8)
        text = f"^more than {COUNT_CAP} elementary moves exceeds 100000$"
        with pytest.raises(BudgetExceeded, match=text):
            elementary_moves(26)

    def test_rank_seven_admitted(self, monkeypatch):
        self.no_moves(monkeypatch)
        with pytest.raises(AssertionError, match="a move was built"):
            elementary_moves(7)

    def test_count_is_what_gets_built(self, monkeypatch):
        counts = []
        monkeypatch.setattr(
            "hamcirc.automorphisms.check_budget", lambda count, *args: counts.append(count)
        )
        for rank in (1, 2, 3, 4):
            elementary_moves(rank)
            assert counts[-1] == sum(1 for _ in _move_lists(rank)), rank
        assert counts[-1] == 24 + 16 + 8 * 64

    def test_budget_read_at_call_time(self, monkeypatch):
        assert MOVE_BUDGET == 100_000
        # rank 2 builds 2 + 4 + 16 move lists, 17 after deduplication
        monkeypatch.setattr("hamcirc.automorphisms.MOVE_BUDGET", 21)
        with pytest.raises(BudgetExceeded, match="^22 elementary moves exceeds 21$"):
            elementary_moves(2)
        monkeypatch.setattr("hamcirc.automorphisms.MOVE_BUDGET", 22)
        assert len(elementary_moves(2)) == 17


class TestApply:
    def test_identity_fixes_words(self):
        phi = identity(3)
        for text in ("", "a", "abABcc"):
            assert phi.apply(w(text, 3)) == w(text, 3)

    def test_substitution_example(self):
        # a, b fixed; c -> bac, applied to abABcc: the substituted string
        # abABbacbac reduces to abcbac
        phi = FGAutomorphism.from_moves((Mul(3, "left", 2), Mul(3, "left", 1)), 3)
        assert str(phi.images[2]) == "bac"
        assert str(phi.apply(w("abABcc", 3))) == "abcbac"

    def test_composition_law(self):
        rng = random.Random(7)
        autos = elementary_automorphisms(2)
        for _ in range(200):
            f = rng.choice(autos)
            g = rng.choice(autos)
            word = ReducedWord.from_letters(
                [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(8))], 2
            )
            assert compose(f, g).apply(word) == f.apply(g.apply(word))

    def test_conjugation_by_letter(self):
        # gamma_a sends every word w to a^-1 w a
        gamma = conjugation_by_letter(1, 2)
        assert gamma.apply(w("bab", 2)) == w("Ababa", 2)
        assert gamma.apply(w("a", 2)) == w("a", 2)
        assert gamma.apply(w("abb", 2)) == w("bba", 2)

    def test_inverse_application_round_trip(self):
        rng = random.Random(11)
        autos = elementary_automorphisms(3)
        for _ in range(200):
            phi = rng.choice(autos)
            word = ReducedWord.from_letters(
                [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(9))], 3
            )
            assert inverse(phi).apply(phi.apply(word)) == word


class TestFiveStepChain:
    """The explicit five-step transformation of [a,b]c^2 into a^2 b^2 c^2."""

    def test_chain_maps_exactly(self):
        chain = (
            # c -> bac
            FGAutomorphism.from_moves((Mul(3, "left", 2), Mul(3, "left", 1)), 3),
            # conjugate by a^-1: w -> a^-1 w a
            conjugation_by_letter(1, 3),
            # b -> b c^-1
            FGAutomorphism.from_moves((Mul(2, "right", -3),), 3),
            # a -> c^-1 a
            FGAutomorphism.from_moves((Mul(1, "left", -3),), 3),
            # relabel (a,b,c) -> (c,a,b) and flip the new b
            FGAutomorphism.from_moves((Perm((3, 1, 2)), Inv(2)), 3),
        )
        start = w("abABcc", 3)
        stages = [start]
        for phi in chain:
            stages.append(phi.apply(stages[-1]))
        assert [str(s) for s in stages[1:]] == [
            "abcbac",
            "bcbaca",
            "bbCaca",
            "bbCCaa",
            "aabbcc",
        ]
        assert apply_chain(chain, start) == w("aabbcc", 3)

    def test_chain_serializes(self):
        chain = (conjugation_by_letter(1, 2),)
        moves = chain_moves(chain)
        assert moves == [
            "mul(2,right,1,+1)",
            "mul(2,left,1,-1)",
        ]

    def test_compose_chain_equals_stepwise_application(self):
        from hamcirc.certifier import classify
        from oracles import compose_chain

        word = w("aaabab", 2)
        form = classify(2, word)
        assert form.kind == "Squares"
        composed = compose_chain(form.witness, 2)
        assert composed.apply(word) == apply_chain(form.witness, word)
