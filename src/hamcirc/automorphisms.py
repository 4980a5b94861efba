"""Automorphisms of F_n built from elementary moves.

Every automorphism here is a composition of three kinds of elementary
moves, and carries that move list as a witness:

* ``perm(s1,...,sn)``   -- generator i maps to generator s_i;
* ``inv(i)``            -- generator i maps to its inverse;
* ``mul(t,side,j,sign)``-- generator t is multiplied on the given side by
  the letter ``j^sign``; e.g. ``mul(2,left,1,+1)`` is b -> ab.

The multiplier (Whitehead) automorphisms are generated as compositions of
``mul`` moves, so every chain serializes into this grammar.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .words import (
    RankError,
    ReducedWord,
    check_budget,
    invert_letters,
    letter_key,
)


@dataclass(frozen=True)
class Perm:
    images: tuple[int, ...]  # images[i-1] = sigma(i)

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {self.images}")

    def __str__(self) -> str:
        return "perm(" + ",".join(str(i) for i in self.images) + ")"

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm(tuple(inv))

    def letter_images(self, rank: int) -> dict[int, tuple[int, ...]]:
        if len(self.images) != rank:
            raise RankError("permutation size differs from rank")
        return {i: (self.images[i - 1],) for i in range(1, rank + 1)}


@dataclass(frozen=True)
class Inv:
    gen: int

    def __str__(self) -> str:
        return f"inv({self.gen})"

    def inverse(self) -> "Inv":
        return self

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

    def inverse(self) -> "Mul":
        return Mul(self.target, self.side, -self.letter)

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
    def identity(cls, rank: int) -> "FGAutomorphism":
        images = tuple(ReducedWord((i,), rank) for i in range(1, rank + 1))
        return cls(rank, images, ())

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

    def inverse(self) -> "FGAutomorphism":
        moves = tuple(m.inverse() for m in reversed(self.moves))
        return FGAutomorphism.from_moves(moves, self.rank)

    def is_identity(self) -> bool:
        return all(
            im.letters == (i,) for i, im in enumerate(self.images, start=1)
        )

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


def permutation_automorphisms(rank: int) -> list[FGAutomorphism]:
    out = []
    for sigma in itertools.permutations(range(1, rank + 1)):
        out.append(FGAutomorphism.from_moves((Perm(sigma),), rank))
    return out


def sign_automorphisms(rank: int) -> list[FGAutomorphism]:
    out = []
    for signs in itertools.product((1, -1), repeat=rank):
        moves = tuple(Inv(i) for i, s in enumerate(signs, start=1) if s < 0)
        out.append(FGAutomorphism.from_moves(moves, rank))
    return out


# Per-generator action of a multiplier automorphism with multiplier letter x:
# 0 = fixed, 1 = g -> g*x, 2 = g -> x^-1*g, 3 = g -> x^-1*g*x.
_MULT_STATES = (0, 1, 2, 3)


def _mult_moves(x: int, states: Sequence[tuple[int, int]]) -> tuple[Mul, ...]:
    moves: list[Mul] = []
    for g, state in states:
        if state in (1, 3):
            moves.append(Mul(g, "right", x))
        if state in (2, 3):
            moves.append(Mul(g, "left", -x))
    return tuple(moves)


def multiplier_automorphisms(rank: int) -> list[FGAutomorphism]:
    """The standard multiplier (Whitehead type II) automorphisms.

    One per choice of a multiplier letter x and, for every other generator,
    one of: fixed, right-multiplied by x, left-multiplied by x^-1, or
    conjugated.  Includes the identity (all generators fixed).
    """
    letters = sorted(
        [x for i in range(1, rank + 1) for x in (i, -i)], key=letter_key
    )
    out = []
    for x in letters:
        others = [g for g in range(1, rank + 1) if g != abs(x)]
        for combo in itertools.product(_MULT_STATES, repeat=len(others)):
            moves = _mult_moves(x, list(zip(others, combo)))
            out.append(FGAutomorphism.from_moves(moves, rank))
    return out


def conjugation_by_letter(x: int, rank: int) -> FGAutomorphism:
    """The inner automorphism g -> x^-1 g x, as a composition of mul moves."""
    others = [g for g in range(1, rank + 1) if g != abs(x)]
    moves = _mult_moves(x, [(g, 3) for g in others])
    return FGAutomorphism.from_moves(moves, rank)


MOVE_BUDGET = 100_000  # elementary automorphisms: rank 7 builds 62,512, rank 8 302,720


def elementary_automorphisms(rank: int) -> tuple[FGAutomorphism, ...]:
    """The finite elementary set: permutations, sign flips, and multipliers.

    Deduplicated on images, deterministic order.  Closed under inversion and
    contains the identity.  The n! + 2^n + 2n 4^(n-1) automorphisms it builds
    are counted against MOVE_BUDGET before any is built.
    """
    count = math.factorial(rank) + 2**rank + 2 * rank * 4 ** (rank - 1)
    check_budget(count, MOVE_BUDGET, "elementary moves")
    seen: dict[tuple, FGAutomorphism] = {}
    for phi in (
        permutation_automorphisms(rank)
        + sign_automorphisms(rank)
        + multiplier_automorphisms(rank)
    ):
        key = tuple(im.letters for im in phi.images)
        seen.setdefault(key, phi)
    return tuple(seen.values())
