"""Seeded benchmark inputs and closed-form sizes, computed without hamcirc.

Everything here is independent of the package under test, so the inputs
and the expected sizes cannot drift when the package changes.  Letters are
signed integers as in ``hamcirc.words``: ``+i`` is the i-th generator and
``-i`` its inverse; the text form writes them ``a``..``z`` / ``A``..``Z``.
"""

from __future__ import annotations

import random
from collections import Counter

# One census block; a run measures at least two, so that p99 has at least
# twenty words beyond it.
BLOCK_WORDS = 1000
RANK2_LENGTHS = tuple(range(4, 11))
RANK3_SHORT = 12  # random rank-3 words of length 6 that are not circle words
RANK3_CIRCLE = 2  # rank-3 circle words (see circle_pool)
RANK3_LONG = 15  # random rank-3 words of length 7, letter counts not 3,2,2

# Whitehead-minimal rank-3 words of length 7.  Every minimal length-7 word
# that uses all three generators has letter counts 3,2,2, and certify
# explores its whole orbit closure before answering Unknown, which costs
# 0.05-3 s depending on the orbit.  Drawing such words at random makes the
# cost of a block swing by more than 10% from seed to seed, so each block
# holds exactly one of them, from these two orbits in turn, placed by seed.
# Closure sizes: 8064 and 6720 words, which cost about the same.  For the
# same reason each block holds exactly two rank-3 circle words, whose
# classify search takes 40-260 ms.
HEAVY_WORDS = ("ccacbbA", "abCCCAb")


def word_text(letters: tuple[int, ...]) -> str:
    return "".join(
        chr(ord("a") + abs(x) - 1) if x > 0 else chr(ord("A") + abs(x) - 1)
        for x in letters
    )


def parse_word(text: str) -> tuple[int, ...]:
    return tuple(
        ord(c) - ord("a") + 1 if c.islower() else -(ord(c) - ord("A") + 1)
        for c in text
    )


def inverse_text(text: str) -> str:
    return text[::-1].swapcase()


def is_cyclically_reduced(letters: tuple[int, ...]) -> bool:
    return (
        len(letters) > 0
        and all(letters[i] != -letters[i + 1] for i in range(len(letters) - 1))
        and (len(letters) == 1 or letters[0] != -letters[-1])
    )


def letter_counts(letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    c = Counter(abs(x) for x in letters)
    return tuple(c[i] for i in range(1, n + 1))


def random_cyclic_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """Uniform over the cyclically reduced words of the given length."""
    alphabet = [x for i in range(1, n + 1) for x in (i, -i)]
    while True:
        out = [rng.choice(alphabet)]
        while len(out) < length:
            x = rng.choice(alphabet)
            if x != -out[-1]:
                out.append(x)
        if out[0] != -out[-1]:
            return tuple(out)


def symmetric_image(rng: random.Random, letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    """A random signed permutation of the generators, cyclic rotation and
    optional inversion of ``letters``.  All three maps carry the orbit
    closure of a word onto one of the same size."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    out = tuple(
        (1 if x > 0 else -1) * signs[abs(x) - 1] * perm[abs(x) - 1] for x in letters
    )
    k = rng.randrange(len(out))
    out = out[k:] + out[:k]
    if rng.random() < 0.5:
        out = tuple(-x for x in reversed(out))
    return out


def census_block(rng: random.Random, index: int, circles: list[str]) -> list[tuple[int, str, bool]]:
    """Block ``index`` of (rank, word, heavy) in seeded order.

    97% rank 2 with lengths 4..10 in equal shares, 3% rank 3 of length 6
    or 7: random words, circle words from ``circles`` (the rank-3
    ``circle_pool``) and the heavy orbit word HEAVY_WORDS[index % 2].
    """
    words: list[tuple[int, str, bool]] = []
    n_rank2 = BLOCK_WORDS - RANK3_SHORT - RANK3_CIRCLE - RANK3_LONG - 1
    for i in range(n_rank2):
        length = RANK2_LENGTHS[i % len(RANK2_LENGTHS)]
        words.append((2, word_text(random_cyclic_word(rng, 2, length)), False))
    for _ in range(RANK3_SHORT):
        while True:
            w = random_cyclic_word(rng, 3, 6)
            if not is_circle_word(w, 3):
                break
        words.append((3, word_text(w), False))
    for _ in range(RANK3_CIRCLE):
        words.append((3, rng.choice(circles), False))
    for _ in range(RANK3_LONG):
        while True:
            w = random_cyclic_word(rng, 3, 7)
            if sorted(letter_counts(w, 3)) != [2, 2, 3]:
                break
        words.append((3, word_text(w), False))
    heavy = parse_word(HEAVY_WORDS[index % len(HEAVY_WORDS)])
    words.append((3, word_text(symmetric_image(rng, heavy, 3)), True))
    rng.shuffle(words)
    return words


def level_one_is_cycle(letters: tuple[int, ...], n: int) -> bool:
    """Is the level-1 quotient of Cay(F_n; s) a single cycle?

    Its vertices are the identity (0) and the 2n letters; the edges join 0
    to the first letter, the inverse of each letter to the next one, and the
    inverse of the last letter back to 0.
    """
    t = letters
    edges = [(0, t[0])] + [(-t[i], t[i + 1]) for i in range(len(t) - 1)]
    edges.append((-t[-1], 0))
    adj: dict[int, list[int]] = {v: [] for v in range(-n, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) != 2 for a in adj.values()):
        return False
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def is_circle_word(letters: tuple[int, ...], n: int) -> bool:
    """Does the word's own level-1 quotient form a cycle?  Such a word has
    length 2n and uses each generator exactly twice."""
    return all(c == 2 for c in letter_counts(letters, n)) and level_one_is_cycle(letters, n)


def circle_pool(n: int) -> list[str]:
    """Every circle word of rank n, sorted.

    These are the minimal orbits of aabb and abAB for n = 2 (40 words) and of
    aabbcc for n = 3 (1968 words).
    """
    alphabet = [x for i in range(1, n + 1) for x in (i, -i)]
    out = []

    def extend(prefix: tuple[int, ...], left: dict[int, int]) -> None:
        if len(prefix) == 2 * n:
            if is_cyclically_reduced(prefix) and level_one_is_cycle(prefix, n):
                out.append(word_text(prefix))
            return
        for x in alphabet:
            if left[abs(x)] and not (prefix and prefix[-1] == -x):
                left[abs(x)] -= 1
                extend(prefix + (x,), left)
                left[abs(x)] += 1

    extend((), {i: 2 for i in range(1, n + 1)})
    return sorted(out)


def count_reduced_words(n: int, length: int) -> int:
    """Reduced words of length <= length in F_n: 1 + sum 2n(2n-1)^(k-1)."""
    return 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, length + 1))


def fp_normal_forms(m: int, n: int, max_b: int) -> int:
    """Normal forms in Z_m * Z_n with at most ``max_b`` b-syllables.

    With A = m-1 a-exponents and B = n-1 b-exponents, the forms with exactly
    k >= 1 b-syllables are (1+A)^2 B^k A^(k-1): an optional leading and
    trailing a-syllable around b (a b)^(k-1); k = 0 gives 1 + A.
    """
    a, b = m - 1, n - 1
    return (1 + a) + sum((1 + a) ** 2 * b**k * a ** (k - 1) for k in range(1, max_b + 1))


def fp_class_count(m: int, n: int, depth: int) -> int:
    """Classes of the depth-r truncation: the forms with fewer than r
    b-syllables, plus those with exactly r that end in a b-syllable."""
    a, b = m - 1, n - 1
    return fp_normal_forms(m, n, depth - 1) + (1 + a) * b**depth * a ** (depth - 1)
