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

``_move_tables`` derives the cancelling pair from the images and asserts
that there is at most one per move.  The image is then cyclically reduced
at its ends, and the stripped letters become conjugation steps of the
witness chain.  Parents, probes and results stay keyed by letter tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .automorphisms import (
    FGAutomorphism,
    conjugation_by_letter,
    elementary_automorphisms,
)
from .words import (
    BudgetExceeded,
    ReducedWord,
    cyclic_reduce_letters,
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
def _move_tables(rank: int) -> tuple[tuple[FGAutomorphism, dict[int, str], str], ...]:
    """Non-identity elementary automorphisms with their string kernels.

    Each entry is ``(phi, table, pair)``: ``table`` maps every letter's
    character to the text of its image, for ``str.translate``, and ``pair``
    is the one two-character string that can cancel where two images meet
    (``""`` when none can).  See the module docstring for why deleting
    ``pair`` once reduces every image.
    """
    out = []
    for phi in elementary_automorphisms(rank):
        if phi.is_identity():
            continue
        images = {letter_str(x): letters_str(img) for x, img in phi.letter_table().items()}
        pairs = {
            left[-1] + right[0]
            for c, left in images.items()
            for d, right in images.items()
            if d != c.swapcase() and left[-1] == right[0].swapcase()
        }
        assert len(pairs) <= 1, f"{phi} cancels at image boundaries in {sorted(pairs)}"
        out.append((phi, str.maketrans(images), "".join(pairs)))
    return tuple(out)


@lru_cache(maxsize=None)
def _conj_auto(letter: int, rank: int) -> FGAutomorphism:
    return conjugation_by_letter(letter, rank)


def _images(text: str, moves) -> list[str]:
    """The reduced image of ``text`` under each move, in move order."""
    return [text.translate(t).replace(p, "") for _phi, t, p in moves]


def _cyclic_core(img: str) -> tuple[str, str]:
    """Text form of ``cyclic_reduce_letters``: the core and the stripped front."""
    k, size = 0, len(img)
    while size - 2 * k >= 2 and img[k] == img[size - 1 - k].swapcase():
        k += 1
    return img[k:size - k], img[:k]


def _step_chain(rank: int, phi: Optional[FGAutomorphism], strip: tuple[int, ...]) -> list[FGAutomorphism]:
    chain = [] if phi is None else [phi]
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
        chain.extend(_step_chain(rank, moves[idx][0], text_letters(strip_text)))


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
        moves = _move_tables(self.base.rank)
        steps = []
        cur = raw
        while True:
            rec = self.parents[cur]
            if rec is None:
                break
            prev, idx, strip = rec
            steps.append(_step_chain(self.base.rank, moves[idx][0], strip))
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
