"""Reduced-word arithmetic in the free group F_n.

A letter is a nonzero integer: ``+i`` is the i-th generator, ``-i`` its
inverse (1-based, rank at most 26).  Words are tuples of letters with no
adjacent cancelling pair.  The text form writes generator i as the i-th
lowercase ASCII letter and its inverse as the corresponding uppercase
letter, so ``"abA"`` is a1*a2*a1^-1.  The empty string is the identity.
Size counts stop at COUNT_CAP, and ``check_budget`` refuses a count over
its budget with ``BudgetExceeded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_RANK = 26
COUNT_CAP = 10**12  # a size count goes no further than this


class WordSyntaxError(ValueError):
    """Text that does not parse as a word over the allowed alphabet."""


class RankError(ValueError):
    """A letter outside the ambient rank, or an operation mixing ranks."""


class BudgetExceeded(RuntimeError):
    """A size over its budget, or an orbit closure past its cap."""


def check_budget(count: int, budget: int, what: str = "classes") -> None:
    """Refuse a count of more than ``budget``, or past COUNT_CAP, where
    the size counts stop (shown as "more than COUNT_CAP")."""
    if count > min(budget, COUNT_CAP):
        shown = f"more than {COUNT_CAP}" if count > COUNT_CAP else count
        raise BudgetExceeded(f"{shown} {what} exceeds {budget}")


def reduce_letters(letters: Iterable[int], rank: int) -> tuple[int, ...]:
    """Freely reduce a letter sequence; the result is the unique reduced form."""
    out: list[int] = []
    for x in letters:
        if x == 0 or abs(x) > rank:
            raise RankError(f"letter {x} outside rank {rank}")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _check_reduced(letters: tuple[int, ...], rank: int) -> None:
    for i, x in enumerate(letters):
        if x == 0 or abs(x) > rank:
            raise RankError(f"letter {x} outside rank {rank}")
        if i and letters[i - 1] == -x:
            raise ValueError(f"not freely reduced at position {i}")


def letter_str(x: int) -> str:
    c = chr(ord("a") + abs(x) - 1)
    return c if x > 0 else c.upper()


def letters_str(letters: tuple[int, ...]) -> str:
    return "".join(letter_str(x) for x in letters)


_LETTER = {letter_str(x): x for i in range(1, MAX_RANK + 1) for x in (i, -i)}


def letter_key(x: int) -> tuple[int, int]:
    """Sort key realizing the order a < A < b < B < ..."""
    return (abs(x), 0 if x > 0 else 1)


# _DIGIT[x] = 2(|x|-1) + (x<0), indexed by the letter itself (negative
# letters wrap around): a byte string of digits sorts like the letter keys
_DIGIT = [0] * (2 * MAX_RANK + 1)
for _i in range(1, MAX_RANK + 1):
    _DIGIT[_i], _DIGIT[-_i] = 2 * _i - 2, 2 * _i - 1


def word_key(letters: tuple[int, ...]) -> tuple[int, bytes]:
    """Shortlex key: length first, then the letters in a < A < b < B order."""
    return (len(letters), bytes(map(_DIGIT.__getitem__, letters)))


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word together with its ambient rank."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_RANK:
            raise RankError(f"rank must be in 1..{MAX_RANK}, got {self.rank}")
        _check_reduced(self.letters, self.rank)

    @classmethod
    def identity(cls, rank: int) -> "ReducedWord":
        return cls((), rank)

    @classmethod
    def from_letters(cls, letters: Iterable[int], rank: int) -> "ReducedWord":
        return cls(reduce_letters(letters, rank), rank)

    @classmethod
    def parse(cls, text: str, rank: int) -> "ReducedWord":
        letters = []
        for ch in text:
            if "a" <= ch <= "z":
                x = ord(ch) - ord("a") + 1
            elif "A" <= ch <= "Z":
                x = -(ord(ch) - ord("A") + 1)
            else:
                raise WordSyntaxError(f"invalid character {ch!r} in word {text!r}")
            if abs(x) > rank:
                raise WordSyntaxError(f"letter {ch!r} beyond rank {rank}")
            letters.append(x)
        return cls.from_letters(letters, rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return letters_str(self.letters)

    def display(self) -> str:
        """Text form with the identity rendered as "1"."""
        return str(self) or "1"

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        if self.rank != other.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {other.rank}")
        return ReducedWord(
            concat_letters(self.letters, other.letters), self.rank
        )

    def inverse(self) -> "ReducedWord":
        return ReducedWord(invert_letters(self.letters), self.rank)

    def letter_count(self, gen: int) -> int:
        """Occurrences of generator ``gen`` in either sign."""
        if not 1 <= gen <= self.rank:
            raise RankError(f"generator {gen} outside rank {self.rank}")
        return sum(1 for x in self.letters if abs(x) == gen)

    def support(self) -> frozenset[int]:
        """The set of generators that occur (in either sign)."""
        return frozenset(abs(x) for x in self.letters)

    def max_letter_count(self) -> int:
        return max((self.letter_count(i) for i in range(1, self.rank + 1)), default=0)

    def sort_key(self) -> tuple:
        return word_key(self.letters)


def concat_letters(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced product of two already-reduced letter tuples."""
    out = list(u)
    for x in v:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_letters(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(u))


def cyclic_reduce_letters(u: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cyclic reduction of a reduced tuple.

    Returns ``(core, stripped)`` where ``stripped`` lists the letters removed
    from the front, in removal order, so ``u = stripped * core * stripped^-1``.
    """
    left = 0
    right = len(u)
    while right - left >= 2 and u[left] == -u[right - 1]:
        left += 1
        right -= 1
    return u[left:right], u[:left]


def reduced_words(rank: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """All reduced letter tuples of length <= max_len, lazily, in
    depth-first prefix order over the a < A < b < B alphabet."""
    alphabet = sorted(
        [x for i in range(1, rank + 1) for x in (i, -i)], key=letter_key
    )

    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield prefix
        if len(prefix) == max_len:
            return
        last = prefix[-1] if prefix else 0
        for x in alphabet:
            if x != -last:
                yield from extend(prefix + (x,))

    return extend(())


def shortlex_labels(rank: int, max_len: int) -> list[str]:
    """The text forms of all reduced words of length <= max_len, in
    word_key order: one length at a time, each word of a length extended
    by the letters in a < A < b < B order, its inverse letter skipped."""
    chars = [letter_str(x) for i in range(1, rank + 1) for x in (i, -i)]
    follow = {c: [e for e in chars if e != c.swapcase()] for c in chars}
    follow[""] = chars
    out, layer = [""], [""]
    for _ in range(max_len):
        layer = [text + c for text in layer for c in follow[text[-1:]]]
        out += layer
    return out


def text_letters(text: str) -> tuple[int, ...]:
    """The letters of a text form already known to be a reduced word."""
    return tuple(map(_LETTER.__getitem__, text))


def shortlex_words(rank: int, max_len: int) -> Iterator[tuple[tuple[int, ...], str]]:
    """The words of ``shortlex_labels``, each as its letters and its text."""
    for text in shortlex_labels(rank, max_len):
        yield text_letters(text), text


def count_reduced_words(rank: int, max_len: int) -> int:
    """Number of reduced words of length <= max_len: 1 + sum 2n(2n-1)^(k-1).

    Counting stops at the first length where the total passes COUNT_CAP,
    and that partial total (still above the cap) is returned."""
    if rank == 1:
        return 1 + 2 * max_len
    total, term = 1, 2 * rank
    for _ in range(max_len):
        total += term
        if total > COUNT_CAP:
            break
        term *= 2 * rank - 1
    return total
