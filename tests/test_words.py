import random

import pytest
from hypothesis import given, settings, strategies as st

from hamcirc.words import (
    COUNT_CAP,
    RankError,
    ReducedWord,
    WordSyntaxError,
    count_reduced_words,
    letters_str,
    reduce_letters,
    reduced_words,
    shortlex_words,
    word_key,
)
from oracles import cyclic_reduction, is_cyclically_reduced


def tuple_word_key(letters):
    """The word order spelled out: length, then (generator, inverse) pairs."""
    return (len(letters), tuple((abs(x), 0 if x > 0 else 1) for x in letters))


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


class TestReduce:
    def test_full_cancellation(self):
        assert str(w("aA")) == ""

    def test_nested_cancellation(self):
        assert str(w("abBA")) == ""

    def test_single_cancellation(self):
        assert str(w("aabBb")) == "aab"

    def test_rank_violation(self):
        with pytest.raises(RankError):
            reduce_letters([1, 3], rank=2)
        with pytest.raises(RankError):
            reduce_letters([0], rank=2)

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            ReducedWord((1, -1), 2)


class TestParse:
    def test_empty_is_identity(self):
        assert w("") == ReducedWord.identity(2)
        assert w("").display() == "1"

    def test_case_encodes_sign(self):
        assert w("aA").letters == ()
        assert w("aB").letters == (1, -2)

    def test_rejects_beyond_rank(self):
        with pytest.raises(WordSyntaxError):
            w("abc", rank=2)

    def test_rejects_garbage(self):
        with pytest.raises(WordSyntaxError):
            w("ab@b")

    def test_str_round_trip(self):
        for text in ("", "a", "aB", "aabb", "abAB", "zZ"[:0]):
            assert str(w(text)) == text


class TestConcat:
    def test_inverse_pair_cancels(self):
        assert str(w("ab") * w("BA")) == ""

    def test_no_cancellation(self):
        assert str(w("aab") * w("baa")) == "aabbaa"

    def test_partial_cancellation(self):
        assert str(w("abA") * w("ab")) == "abb"

    def test_rank_mismatch(self):
        with pytest.raises(RankError):
            w("a", 2) * w("a", 3)


class TestInvert:
    @pytest.mark.parametrize("text,expected", [("", ""), ("ab", "BA"), ("aabb", "BBAA")])
    def test_examples(self, text, expected):
        assert str(w(text).inverse()) == expected

    def test_product_with_inverse_is_identity(self):
        word = w("abAbb")
        assert len(word * word.inverse()) == 0


class TestLetterCount:
    @pytest.mark.parametrize(
        "text,gen,expected",
        [("aabb", 1, 2), ("abAB", 2, 2), ("aaab", 2, 1)],
    )
    def test_examples(self, text, gen, expected):
        assert w(text).letter_count(gen) == expected

    def test_support_and_max(self):
        assert w("aabb").support() == frozenset({1, 2})
        assert w("aaab").max_letter_count() == 3


letters_st = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0),
    max_size=24,
)


@settings(max_examples=300, derandomize=True)
@given(letters_st)
def test_reduce_idempotent(letters):
    once = reduce_letters(letters, 3)
    assert reduce_letters(once, 3) == once


@settings(max_examples=300, derandomize=True)
@given(letters_st)
def test_involution(letters):
    word = ReducedWord.from_letters(letters, 3)
    assert word.inverse().inverse() == word


@settings(max_examples=300, derandomize=True)
@given(letters_st, letters_st)
def test_concat_length_parity_and_bounds(left, right):
    u = ReducedWord.from_letters(left, 3)
    v = ReducedWord.from_letters(right, 3)
    prod = u * v
    assert (len(prod) - len(u) - len(v)) % 2 == 0
    assert abs(len(u) - len(v)) <= len(prod) <= len(u) + len(v)


def test_reduced_word_enumeration_matches_formula():
    for rank in (1, 2, 3):
        for max_len in range(5):
            words = list(reduced_words(rank, max_len))
            assert len(words) == count_reduced_words(rank, max_len)
            assert len(set(words)) == len(words)
            for raw in words:
                assert reduce_letters(raw, rank) == raw


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_shortlex_words_are_the_sorted_reduced_words(rank, max_len):
    pairs = list(shortlex_words(rank, max_len))
    expected = sorted(reduced_words(rank, max_len), key=tuple_word_key)
    assert [raw for raw, _ in pairs] == expected
    assert [text for _, text in pairs] == [letters_str(raw) for raw in expected]


def test_word_key_orders_like_the_tuple_key():
    rng = random.Random(26)
    letters = [x for i in range(1, 27) for x in (i, -i)]
    words = [
        reduce_letters([rng.choice(letters) for _ in range(rng.randrange(8))], 26)
        for _ in range(3000)
    ]
    words += [(26,), (-26,), (1, 26), (1, -26), (-1, 26)]
    assert sorted(words, key=word_key) == sorted(words, key=tuple_word_key)
    for u, v in zip(words, reversed(words)):
        assert (word_key(u) < word_key(v)) == (tuple_word_key(u) < tuple_word_key(v))


def test_count_reduced_words_stops_past_its_cap():
    assert count_reduced_words(2, 14) == 9565937
    assert COUNT_CAP < count_reduced_words(2, 10**4) < 3 * COUNT_CAP + 1
    assert count_reduced_words(1, 10**15) == 2 * 10**15 + 1  # closed form


def test_cyclic_reduction():
    assert cyclic_reduction(w("abA")) == w("b")
    assert is_cyclically_reduced(w("aabb"))
    assert not is_cyclically_reduced(w("abA"))


def test_rank_cap():
    assert ReducedWord.parse("z", 26).letters == (26,)
    with pytest.raises(RankError):
        ReducedWord.identity(27)
    with pytest.raises(RankError):
        ReducedWord.identity(0)
