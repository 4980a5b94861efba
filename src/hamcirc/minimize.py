"""Length minimization over the automorphism orbit, with witness chains.

``whitehead_minimize`` runs greedy descent over the elementary automorphism
set, cyclically reducing after every move (conjugation is itself applied as
a chain of recorded moves, so witnesses stay replayable).  Whenever a word
is not of minimal length in its orbit, some multiplier automorphism
strictly shortens its cyclic reduction, so the descent cannot stall early.

``minimal_orbit`` then explores the minimal-length words reachable by
length-preserving moves, breadth-first, recording parent pointers so a
witness chain to any discovered word can be reconstructed.  The closure's
size is unknown until it is built, so it is bounded as it grows, by the
module constant ``ORBIT_CAP``, read when the closure runs.

Both apply moves with a string kernel on the text form of a word: one
``str.translate`` that writes every letter's image, then one
``str.replace`` that deletes the single pair of letters that can cancel
where two images meet.  One deletion pass leaves the image freely reduced:

* a permutation or sign move sends letters to letters, so a reduced word
  stays reduced and nothing cancels;
* a multiplier move with letter x fixes x and x^-1 and sends every
  other letter y to y, y x, x^-1 y or x^-1 y x, and the image of y ends
  in x exactly when the image of y^-1 starts with x^-1.  A reduced word
  has no x^-1 x and no y y^-1, so the only pair that can cancel where two
  images meet is a trailing x against a leading x^-1; no image contains
  it, and two such pairs never overlap.  Deleting one joins the letters
  either side of it.  If both are core letters of their images, they
  were adjacent in the word.  Otherwise one side of the pair was a whole
  image x (or x^-1), and the core letter z on the other side is joined
  to the end of the image beyond it: that end is x (x^-1), or a core
  letter y whose image lacks the trailing x (leading x^-1) that the
  image of z^-1 would have, so y is not z^-1.  Nothing cancels again.

``_move_tables`` finds the cancelling pair by counting the last letters
of the 2n letter images: y y^-1 can cancel where two images meet exactly
when two letters' images end in y, since the image of c^-1 starts with
the inverse of the last letter of c's image.  It asserts that there is at
most one such pair per move.  The image is then cyclically reduced
at its ends, and the stripped letters become conjugation steps of the
witness chain.  Parents, probes and results stay keyed by letter tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .automorphisms import (
    FGAutomorphism,
    Move,
    conjugation_by_letter,
    elementary_moves,
)
from .words import (
    BudgetExceeded,
    ReducedWord,
    cyclic_reduce_letters,
    invert_letters,
    letter_str,
    letters_str,
    text_letters,
    word_key,
)

ORBIT_CAP = 100_000  # words of one orbit closure, counted as it grows


class OrbitCapExceeded(BudgetExceeded):
    def __init__(self, cap: int):
        super().__init__(f"orbit closure exceeded cap of {cap} words")
        self.cap = cap


@lru_cache(maxsize=None)
def _move_tables(rank: int) -> tuple[tuple[tuple[Move, ...], dict[int, str], str], ...]:
    """Non-identity elementary move lists with their string kernels.

    Each entry is ``(moves, table, pair)``: ``table`` maps every letter's
    character to the text of its image, for ``str.translate``, and ``pair``
    is the one two-character string that can cancel where two images meet
    (``""`` when none can).  A boundary c|d of a reduced word cancels when
    the image of c ends in y and the image of d starts with y^-1, that is
    when the images of c and of d^-1, two different letters, both end in y;
    conversely two letters c != e whose images end in y meet as c e^-1.  So
    ``pair`` is y y^-1 for each y that ends two images.  See the module
    docstring for why deleting ``pair`` once reduces every image.
    """
    identity = tuple((i,) for i in range(1, rank + 1))
    out = []
    for images, moves in elementary_moves(rank).items():
        if images == identity:
            continue
        texts = {}
        for i, img in enumerate(images, start=1):
            texts[letter_str(i)] = letters_str(img)
            texts[letter_str(-i)] = letters_str(invert_letters(img))
        ends = Counter(text[-1] for text in texts.values())
        pairs = [y + y.swapcase() for y, k in ends.items() if k > 1]
        assert len(pairs) <= 1, f"{moves} cancels at image boundaries in {sorted(pairs)}"
        out.append((moves, str.maketrans(texts), "".join(pairs)))
    return tuple(out)


@lru_cache(maxsize=None)
def _move_auto(rank: int, idx: int) -> FGAutomorphism:
    return FGAutomorphism.from_moves(_move_tables(rank)[idx][0], rank)


@lru_cache(maxsize=None)
def _conj_auto(letter: int, rank: int) -> FGAutomorphism:
    return conjugation_by_letter(letter, rank)


def _images(text: str, moves) -> list[str]:
    """The reduced image of ``text`` under each move, in move order."""
    return [text.translate(t).replace(p, "") for _moves, t, p in moves]


def _cyclic_core(img: str) -> tuple[str, str]:
    """Text form of ``cyclic_reduce_letters``: the core and the stripped front."""
    k, size = 0, len(img)
    while size - 2 * k >= 2 and img[k] == img[size - 1 - k].swapcase():
        k += 1
    return img[k:size - k], img[:k]


def _step_chain(rank: int, idx: Optional[int], strip: tuple[int, ...]) -> list[FGAutomorphism]:
    """The witness of one step: move ``idx`` of the tables (none if ``None``),
    then one conjugation per stripped letter."""
    chain = [] if idx is None else [_move_auto(rank, idx)]
    chain.extend(_conj_auto(x, rank) for x in strip)
    return chain


def whitehead_minimize(w: ReducedWord) -> tuple[ReducedWord, tuple[FGAutomorphism, ...]]:
    """A word of minimal length in the orbit of ``w``, plus a witness chain.

    Applying the chain elements to ``w`` in order reproduces the result
    exactly.  The result is cyclically reduced.
    """
    rank = w.rank
    moves = _move_tables(rank)
    chain: list[FGAutomorphism] = []

    raw, strip = cyclic_reduce_letters(w.letters)
    chain.extend(_step_chain(rank, None, strip))
    cur = letters_str(raw)

    while True:
        best = None
        for idx, img in enumerate(_images(cur, moves)):
            core, strip_text = _cyclic_core(img)
            if len(core) < len(cur):
                key = (len(core), word_key(text_letters(core)), idx)
                if best is None or key < best[0]:
                    best = (key, idx, core, strip_text)
        if best is None:
            return ReducedWord(text_letters(cur), rank), tuple(chain)
        _key, idx, cur, strip_text = best
        chain.extend(_step_chain(rank, idx, text_letters(strip_text)))


@dataclass
class OrbitResult:
    """Closure of the minimal-length orbit words under length-preserving moves.

    ``hit`` is ``None`` exactly when the closure is complete.
    """

    base: ReducedWord
    base_chain: tuple[FGAutomorphism, ...]
    parents: dict  # raw -> None (base) or (prev_raw, move_index, strip)
    hit: Optional[tuple[tuple[int, ...], object]]

    def words(self) -> list[ReducedWord]:
        rank = self.base.rank
        return sorted(
            (ReducedWord(raw, rank) for raw in self.parents),
            key=lambda v: v.sort_key(),
        )

    def chain_to(self, raw: tuple[int, ...]) -> tuple[FGAutomorphism, ...]:
        """Witness chain from the original input word to ``raw``."""
        steps = []
        cur = raw
        while True:
            rec = self.parents[cur]
            if rec is None:
                break
            prev, idx, strip = rec
            steps.append(_step_chain(self.base.rank, idx, strip))
            cur = prev
        chain = list(self.base_chain)
        for step in reversed(steps):
            chain.extend(step)
        return tuple(chain)


def minimal_orbit(
    w: ReducedWord,
    stop: Optional[Callable[[tuple[int, ...]], object]] = None,
    *,
    minimized: Optional[tuple[ReducedWord, tuple[FGAutomorphism, ...]]] = None,
) -> OrbitResult:
    """Breadth-first closure from ``whitehead_minimize(w)``.

    ``stop(raw)`` may return a truthy tag to halt exploration at that word;
    the result then carries ``hit=(raw, tag)``.  A complete closure carries
    ``hit=None``.  A caller that has already minimized ``w`` passes the
    result of ``whitehead_minimize(w)`` as ``minimized``, so it is not
    computed again.  Raises :class:`OrbitCapExceeded` if the closure grows
    past ``ORBIT_CAP`` words.
    """
    rank = w.rank
    base, base_chain = whitehead_minimize(w) if minimized is None else minimized
    moves = _move_tables(rank)
    target_len = len(base)

    parents: dict = {base.letters: None}
    if stop is not None:
        tag = stop(base.letters)
        if tag:
            return OrbitResult(base, base_chain, parents, (base.letters, tag))

    # the words found, text -> letters, and their texts in the order found;
    # the loop walks ``order`` while appending to it, so it is the queue
    found = {letters_str(base.letters): base.letters}
    order = list(found)
    for cur in order:
        cur_letters = found[cur]
        for idx, img in enumerate(_images(cur, moves)):
            strip = ""
            if img and img[0] == img[-1].swapcase():
                img, strip = _cyclic_core(img)
            if len(img) != target_len or img in found:
                if len(img) < target_len:
                    raise AssertionError(
                        "length-preserving closure found a shorter word; "
                        "minimization was not minimal"
                    )
                continue
            letters = found[img] = text_letters(img)
            parents[letters] = (cur_letters, idx, text_letters(strip))
            if len(parents) > ORBIT_CAP:
                raise OrbitCapExceeded(ORBIT_CAP)
            if stop is not None:
                tag = stop(letters)
                if tag:
                    return OrbitResult(base, base_chain, parents, (letters, tag))
            order.append(img)
    return OrbitResult(base, base_chain, parents, None)


def orbit_minimal_set(w: ReducedWord) -> tuple[ReducedWord, ...]:
    """All minimal-length orbit words reachable by length-preserving moves.

    Deterministically ordered by (length, letter sequence) with a < A < b < B.
    Raises :class:`OrbitCapExceeded` past ``ORBIT_CAP`` words.
    """
    return tuple(minimal_orbit(w).words())
