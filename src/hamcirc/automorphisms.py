"""Automorphisms of F_n built from elementary moves.

Every automorphism here is a composition of three kinds of elementary
moves, and carries that move list as a witness:

* ``perm(s1,...,sn)``   -- generator i maps to generator s_i;
* ``inv(i)``            -- generator i maps to its inverse;
* ``mul(t,side,j,sign)``-- generator t is multiplied on the given side by
  the letter ``j^sign``; e.g. ``mul(2,left,1,+1)`` is b -> ab.

The multiplier (Whitehead) automorphisms are generated as compositions of
``mul`` moves, so every chain serializes into this grammar.  The
elementary set is enumerated as move lists with the generator images read
off their description; an ``FGAutomorphism`` is built only for the moves a
witness chain uses.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .words import (
    RankError,
    ReducedWord,
    check_budget,
    invert_letters,
)


@dataclass(frozen=True)
class Perm:
    images: tuple[int, ...]  # images[i-1] = sigma(i)

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {self.images}")

    def __str__(self) -> str:
        return "perm(" + ",".join(str(i) for i in self.images) + ")"

    def letter_images(self, rank: int) -> dict[int, tuple[int, ...]]:
        if len(self.images) != rank:
            raise RankError("permutation size differs from rank")
        return {i: (self.images[i - 1],) for i in range(1, rank + 1)}


@dataclass(frozen=True)
class Inv:
    gen: int

    def __str__(self) -> str:
        return f"inv({self.gen})"

    def letter_images(self, rank: int) -> dict[int, tuple[int, ...]]:
        if not 1 <= self.gen <= rank:
            raise RankError(f"generator {self.gen} outside rank {rank}")
        return {
            i: ((-i,) if i == self.gen else (i,)) for i in range(1, rank + 1)
        }


@dataclass(frozen=True)
class Mul:
    target: int
    side: str  # "left" or "right"
    letter: int  # signed: the multiplying letter

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be left/right, got {self.side!r}")
        if abs(self.letter) == self.target:
            raise ValueError("cannot multiply a generator by itself")

    def __str__(self) -> str:
        sign = "+1" if self.letter > 0 else "-1"
        return f"mul({self.target},{self.side},{abs(self.letter)},{sign})"

    def letter_images(self, rank: int) -> dict[int, tuple[int, ...]]:
        if not (1 <= self.target <= rank and abs(self.letter) <= rank):
            raise RankError("mul move outside rank")
        images = {i: (i,) for i in range(1, rank + 1)}
        if self.side == "left":
            images[self.target] = (self.letter, self.target)
        else:
            images[self.target] = (self.target, self.letter)
        return images


Move = Perm | Inv | Mul

_MOVE_RE = re.compile(r"^(perm|inv|mul)\((.*)\)$")


def parse_move(text: str) -> Move:
    """The move whose ``str`` is ``text``, surrounding whitespace aside;
    any other text is refused with ``ValueError``."""
    m = _MOVE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse move {text!r}")
    kind, body = m.groups()
    parts = body.split(",") if body else []
    if kind == "perm":
        move = Perm(tuple(int(p) for p in parts))
    elif kind == "inv":
        (g,) = parts
        move = Inv(int(g))
    else:
        target, side, gen, sign = parts
        move = Mul(int(target), side, int(gen) * (1 if sign == "+1" else -1))
    if str(move) != text.strip():
        raise ValueError(f"cannot parse move {text!r}")
    return move


def _apply_table(table: dict[int, tuple[int, ...]], letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        img = table[x] if x > 0 else invert_letters(table[-x])
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def _full_table(table: dict[int, tuple[int, ...]], rank: int) -> dict[int, tuple[int, ...]]:
    full = dict(table)
    for i in range(1, rank + 1):
        full[-i] = invert_letters(table[i])
    return full


@dataclass(frozen=True)
class FGAutomorphism:
    """An automorphism of F_n given by generator images plus a move witness.

    Only built from elementary moves, so the images always generate F_n.
    Equality and hashing ignore the witness and compare images only.
    """

    rank: int
    images: tuple[ReducedWord, ...]
    moves: tuple[Move, ...] = field(compare=False)

    @classmethod
    def from_moves(cls, moves: Sequence[Move], rank: int) -> "FGAutomorphism":
        tables = [_full_table(m.letter_images(rank), rank) for m in moves]
        images = []
        for i in range(1, rank + 1):
            cur = (i,)
            for t in tables:
                cur = _apply_table(t, cur)
            images.append(ReducedWord(cur, rank))
        return cls(rank, tuple(images), tuple(moves))

    def letter_table(self) -> dict[int, tuple[int, ...]]:
        table = {i: self.images[i - 1].letters for i in range(1, self.rank + 1)}
        return _full_table(table, self.rank)

    def apply(self, w: ReducedWord) -> ReducedWord:
        if w.rank != self.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {w.rank}")
        return ReducedWord(_apply_table(self.letter_table(), w.letters), self.rank)

    def __str__(self) -> str:
        return ";".join(str(m) for m in self.moves) or "id"


def apply_chain(chain: Iterable[FGAutomorphism], w: ReducedWord) -> ReducedWord:
    """Apply a chain of automorphisms in order (first element first)."""
    for phi in chain:
        w = phi.apply(w)
    return w


def chain_moves(chain: Iterable[FGAutomorphism]) -> list[str]:
    """Flatten a chain into its serialized move list."""
    out: list[str] = []
    for phi in chain:
        out.extend(str(m) for m in phi.moves)
    return out


# A generator g's multiplier states for the letter x, in the order fixed,
# g -> g x, g -> x^-1 g and g -> x^-1 g x, each as (right, left): whether g
# is multiplied by x on the right and by x^-1 on the left.
_MULT_STATES = ((False, False), (True, False), (False, True), (True, True))


def _mult_state(g: int, x: int, right: bool, left: bool) -> tuple[tuple[int, ...], tuple[Mul, ...]]:
    """The image of g in one multiplier state, and the mul moves that give it."""
    image = (-x,) * left + (g,) + (x,) * right
    moves = (Mul(g, "right", x),) * right + (Mul(g, "left", -x),) * left
    return image, moves


def conjugation_by_letter(x: int, rank: int) -> FGAutomorphism:
    """The inner automorphism g -> x^-1 g x, as a composition of mul moves."""
    moves = [
        m for g in range(1, rank + 1) if g != abs(x) for m in _mult_state(g, x, True, True)[1]
    ]
    return FGAutomorphism.from_moves(moves, rank)


MOVE_BUDGET = 100_000  # elementary move lists: rank 7 builds 62,512, rank 8 302,720

Images = tuple[tuple[int, ...], ...]  # images[i-1] = letters of the image of generator i


def _move_lists(rank: int) -> Iterator[tuple[Images, tuple[Move, ...]]]:
    """Every elementary move list with its generator images, read from the
    moves' description: the permutations, the sign flips, then the
    multiplier (Whitehead type II) moves, one per multiplier letter x and,
    for every other generator, one multiplier state."""
    gens = range(1, rank + 1)
    for sigma in itertools.permutations(gens):
        yield tuple((i,) for i in sigma), (Perm(sigma),)
    for signs in itertools.product((1, -1), repeat=rank):
        images = tuple((s * i,) for i, s in zip(gens, signs))
        yield images, tuple(Inv(i) for i, s in zip(gens, signs) if s < 0)
    for x in (y for i in gens for y in (i, -i)):
        states = [[_mult_state(g, x, *st) for st in _MULT_STATES] for g in gens if g != abs(x)]
        for combo in itertools.product(*states):
            images = [image for image, _ in combo]
            images.insert(abs(x) - 1, (abs(x),))
            yield tuple(images), tuple(m for _, moves in combo for m in moves)


def elementary_moves(rank: int) -> dict[Images, tuple[Move, ...]]:
    """The finite elementary set: generator images to the move list that
    gives them, the first list found for each, in order.

    The identity comes first, and the set is closed under inversion.  The
    n! + 2^n + 2n 4^(n-1) move lists are counted against MOVE_BUDGET before
    any is built.
    """
    count = math.factorial(rank) + 2**rank + 2 * rank * 4 ** (rank - 1)
    check_budget(count, MOVE_BUDGET, "elementary moves")
    seen: dict[Images, tuple[Move, ...]] = {}
    for images, moves in _move_lists(rank):
        seen.setdefault(images, moves)
    return seen
