"""The free product Z_m * Z_n and its cycle-tree Cayley graphs.

Elements are alternating products of a-syllables (exponent 1..m-1) and
b-syllables (exponent 1..n-1).  The graph on the generating set
{a^{+-1}, (ab)^{+-1}} is a tree of m-cycles joined by parallel edge pairs;
its unique hamiltonian circle is the subgraph on (ab)^{+-1} alone.  The
circle cannot be built whole, so it is verified on finite truncations:
words are identified when they agree up to and including their r-th
b-syllable, and the circle's truncation must be a single cycle for every
checked depth.  Only the deepest depth is built, on {a, ab}, and its
circle is the (ab)-edge subgraph of it.  When it passes, every shallower
depth, a contraction of it whose circle is still a cycle, passes too
(the proof is in ``verify_circle_truncations``); only a depth below a
failing one is built and checked.

A truncation is built by an integer kernel.  Its classes are numbered in
syllable_key order of their representatives, one syllable length at a
time and a run of classes with the same last letter and b-count at once,
with per-class arrays of the parent, the code of the last syllable,
the first child and whether the class is full (ends in its r-th
b-syllable).  The far end of a group edge is found by walking the
generator's syllables on those integers: a merge with the last syllable
goes to the parent and then to its child by the merged syllable, a new
syllable goes to a child, and a full class keeps every element below its
representative.  The tail is shared with the F_n kernel:
``quotients.order_class`` puts each class's edges in order, forming the
group pairs of its parallel edges alone to order them, and
``quotients.assemble`` builds the ``QuotientGraph``, whose ``level`` is the
depth.  The class count is sized in closed form before any class is built.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Iterable, Iterator, Optional

from .multigraph import Multigraph, collector_paused
from .quotients import (
    QuotientGraph,
    assemble,
    edge_tag,
    generator_subgraph,
    order_class,
    order_pair,
)
from .words import COUNT_CAP, check_budget

CLASS_BUDGET = 100_000  # classes of one truncation

Syllables = tuple[tuple[str, int], ...]


@total_ordering
@dataclass(frozen=True)
class FPWord:
    """Normal form in Z_m * Z_n: alternating ('a', i) / ('b', j) syllables."""

    syllables: Syllables
    m: int
    n: int

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ValueError("both factor orders must be at least 2")
        prev = None
        for letter, exp in self.syllables:
            if letter not in ("a", "b"):
                raise ValueError(f"bad syllable letter {letter!r}")
            order = self.m if letter == "a" else self.n
            if not 1 <= exp <= order - 1:
                raise ValueError(f"exponent {exp} out of range for {letter}")
            if letter == prev:
                raise ValueError("syllables must alternate")
            prev = letter

    @classmethod
    def identity(cls, m: int, n: int) -> "FPWord":
        return cls((), m, n)

    @classmethod
    def from_syllables(cls, syllables: Iterable[tuple[str, int]], m: int, n: int) -> "FPWord":
        return cls(_multiply((), syllables, m, n), m, n)

    @classmethod
    def parse(cls, text: str, m: int, n: int) -> "FPWord":
        """Parse the compact syntax ``a2b1a1`` (a^2 b a); "1" is the identity."""
        if text in ("", "1"):
            return cls.identity(m, n)
        if not re.fullmatch(r"([ab]\d+)+", text):
            raise ValueError(f"cannot parse free-product word {text!r}")
        sylls = [
            (mch.group(1), int(mch.group(2)))
            for mch in re.finditer(r"([ab])(\d+)", text)
        ]
        return cls.from_syllables(sylls, m, n)

    def __str__(self) -> str:
        return syllables_str(self.syllables)

    def display(self) -> str:
        return str(self) or "1"

    def sort_key(self):
        return syllable_key(self.syllables)

    def __lt__(self, other: "FPWord") -> bool:
        return self.sort_key() < other.sort_key()

    def __mul__(self, other: "FPWord") -> "FPWord":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("free-product parameter mismatch")
        return FPWord(_multiply(self.syllables, other.syllables, self.m, self.n), self.m, self.n)

    def inverse(self) -> "FPWord":
        out = []
        for letter, exp in reversed(self.syllables):
            order = self.m if letter == "a" else self.n
            out.append((letter, order - exp))
        return FPWord(tuple(out), self.m, self.n)

    def b_count(self) -> int:
        return sum(1 for letter, _ in self.syllables if letter == "b")


def syllables_str(sylls: Syllables) -> str:
    return "".join(f"{s}{e}" for s, e in sylls)


def syllable_key(sylls: Syllables) -> tuple:
    return (len(sylls), sylls)


def _multiply(u: Syllables, v: Iterable[tuple[str, int]], m: int, n: int) -> Syllables:
    """The normal form of u*v for a normal u: only the junction is reduced,
    so v may be any syllable sequence (exponents taken mod the order)."""
    out = list(u)
    for letter, exp in v:
        order = m if letter == "a" else n
        exp %= order
        if exp == 0:
            continue
        if out and out[-1][0] == letter:
            merged = (out[-1][1] + exp) % order
            out.pop()
            if merged:
                out.append((letter, merged))
            # a cancellation exposes the previous syllable, which merges
            # with later input as it arrives
        else:
            out.append((letter, exp))
    return tuple(out)


def enumerate_fp_words(m: int, n: int, max_b: int) -> Iterator[FPWord]:
    """All normal forms with at most max_b b-syllables, in a stable order."""

    def extend(sylls: Syllables, last: Optional[str], b_used: int) -> Iterator[Syllables]:
        yield sylls
        if last != "a":
            for e in range(1, m):
                yield from extend(sylls + (("a", e),), "a", b_used)
        if last != "b" and b_used < max_b:
            for e in range(1, n):
                yield from extend(sylls + (("b", e),), "b", b_used + 1)

    for sylls in extend((), None, 0):
        yield FPWord(sylls, m, n)


def fp_symmetric_closure(gens: Iterable[FPWord]) -> tuple[FPWord, ...]:
    seen = {}
    for g in gens:
        if not g.syllables:
            raise ValueError("generating set must not contain the identity")
        for h in (g, g.inverse()):
            seen.setdefault(h.syllables, h)
    if not seen:
        raise ValueError("generating set must not be empty")
    return tuple(sorted(seen.values()))


def count_truncation_classes(m: int, n: int, depth: int) -> int:
    """Classes of the depth-r truncation, in closed form: the normal forms
    with fewer than r b-syllables, plus those ending in their r-th one.

    Counting stops once the total passes COUNT_CAP, and that partial total
    (still above the cap) is returned."""
    a, b = m - 1, n - 1
    if a * b == 1:  # Z_2 * Z_2: every depth adds 4 classes
        return 4 * depth
    total = 1 + a
    for k in range(1, depth):
        total += (1 + a) ** 2 * b**k * a ** (k - 1)
        if total > COUNT_CAP:
            return total
    return total + (1 + a) * b**depth * a ** (depth - 1)


def _syllables(m: int, n: int) -> list[tuple[str, int]]:
    """Every syllable, at the index that is its code: a^e is e-1 and b^f is
    m-2+f, so codes run in syllable_key order (a before b, then exponent)."""
    return [("a", e) for e in range(1, m)] + [("b", f) for f in range(1, n)]


def _class_tree(m: int, n: int, depth: int) -> tuple[list, list, list, bytearray, list]:
    """The classes of the depth-r truncation, numbered in syllable_key order
    of their representatives, as per-class arrays (parent, last, base,
    full, texts): the parent; the code of the last syllable (the root's is
    m+n-2, one past the last code); ``base``, such that the child by code
    c is ``base[x] + c`` (0 for a full class, which has no children); 1
    when the class is full, that is, ends in its r-th b-syllable; and the
    representative in text form ("" for the root).

    Numbered one syllable length at a time: each layer is the children of
    the previous layer's short classes, taken in class order, and each
    class's children get consecutive numbers in code order.  A layer is a
    few runs of consecutive classes with the same last letter and the same
    b-count, so the children of a whole run share their codes, their
    b-count and their fullness, and are numbered at once."""
    k = m + n - 2
    words = [syllables_str((s,)) for s in _syllables(m, n)]
    # the children after a class, by the letter of its last syllable: runs
    # of codes, each with its letter, the b-syllables it adds and the
    # codes' texts
    a = ("a", list(range(m - 1)), 0, words[: m - 1])
    b = ("b", list(range(m - 1, k)), 1, words[m - 1 :])
    after = {"a": (b,), "b": (a,), None: (a, b)}
    parent, last, base, full, texts = [0], [k], [0], bytearray(1), [""]
    layer = [(0, 1, None, 0)]  # runs (first class, size, letter, b-syllables) to extend
    while layer:
        deeper = []
        for first, size, letter, used in layer:
            stop, runs = first + size, after[letter]
            fan = sum(len(codes) for _, codes, _, _ in runs)
            start = len(last) - runs[0][1][0]  # base + the first child's code
            base[first:stop] = range(start, start + size * fan, fan)
            heads = texts[first:stop]
            for child, codes, added, tails in runs:
                count, used_after = size * len(codes), used + added
                if used_after < depth:
                    deeper.append((len(last), count, child, used_after))
                parent += [x for x in range(first, stop) for _ in codes]
                last += codes * size
                base += [0] * count
                full += bytes([used_after == depth]) * count
                texts += [head + tail for head in heads for tail in tails]
        layer = deeper
    return parent, last, base, full, texts


@collector_paused
def build_truncation(
    m: int,
    n: int,
    gens: Iterable[FPWord],
    depth: int,
) -> QuotientGraph:
    """The depth-r truncation of Cay(Z_m * Z_n; gens^{+-1}), class by class.

    A class with fewer than r b-syllables is one element, and its edges are
    {w, w t} for every generator t.  A full class is rep * (any word that
    starts with an a-syllable).  A generator has at most one b-syllable, so
    a group edge leaves a full class only from rep, or from rep * a^i by a
    generator t that starts with a^{m-i} (any other t keeps rep * a^i t in
    the class).  The latter edge is {rep * a^i, rep * t'} with t = a^{m-i} t'.
    Loops are dropped.  The class count is checked against CLASS_BUDGET in
    closed form, before any class is built.

    Classes are numbered by ``_class_tree``.  The far end of an edge is
    found by walking the syllables of t (or t') on those integers from the
    class: a syllable with the letter of the current class's last syllable
    merges with it, which goes to the parent and then to the parent's child
    by the merged syllable (or stays at the parent when they cancel); any
    other syllable goes to the child by that syllable, or ends the walk in
    a full class, whose elements all stay in it.

    Both ends of every group edge that leaves a class are elements walked
    from, so a class keeps only the edges to larger classes, put in order
    by ``quotients.order_class`` (parallel edges by the syllable keys of
    their group pairs), and ``quotients.assemble`` finishes the record.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    sym = fp_symmetric_closure(gens)
    if any((g.m, g.n) != (m, n) for g in sym):
        raise ValueError(f"generators must lie in Z_{m} * Z_{n}")
    if any(g.b_count() > 1 for g in sym):
        raise ValueError("generators may use at most one b-syllable")
    check_budget(count_truncation_classes(m, n, depth), CLASS_BUDGET)

    parent, last, base, full, texts = _class_tree(m, n, depth)
    syllables = _syllables(m, n)
    code = {s: c for c, s in enumerate(syllables)}

    # row[c] for a step by syllable s from a class whose last code is c
    # (the root's is m+n-2): -2 when s starts a new syllable, -1 when it
    # cancels c, else the code of the merged syllable
    rows = []
    for letter, exp in syllables:
        order = m if letter == "a" else n
        row = [-2] * (len(syllables) + 1)
        for e in range(1, order):
            merged = (e + exp) % order
            row[code[letter, e]] = code[letter, merged] if merged else -1
        rows.append(row)

    starts = []  # (i, t, tag): the group edge {rep a^i, rep a^i t}
    short_walks = []  # (steps, start id) from every short class
    full_walks = []  # (steps, start id) from every full class
    for g in sym:
        t, tag = g.syllables, edge_tag(g)
        steps = [(rows[code[s]], code[s]) for s in t]
        short_walks.append((steps, len(starts)))
        if t[0][0] == "b":
            full_walks.append((steps, len(starts)))
        starts.append((0, t, tag))
        if t[0][0] == "a" and len(t) > 1:  # from rep a^{m-e}, where t = a^e t'
            full_walks.append((steps[1:], len(starts)))
            starts.append((m - t[0][1], t, tag))

    def rep(x: int) -> Syllables:
        sylls = []
        while x:
            sylls.append(syllables[last[x]])
            x = parent[x]
        return tuple(reversed(sylls))

    def pair(x: int, sid: int) -> tuple[Syllables, Syllables]:
        """The group edge behind an edge found from class x at start sid."""
        i, t, _ = starts[sid]
        u = rep(x) + ((("a", i),) if i else ())
        return order_pair(u, _multiply(u, t, m, n), syllable_key)

    def pair_key(x: int, sid: int) -> tuple:
        """The order of parallel edges: the keys of the group pair."""
        return tuple(map(syllable_key, pair(x, sid)))

    out: list[tuple[int, int, int]] = []  # (class, far end, start id)
    for x in range(len(last)):
        found = []
        for steps, sid in full_walks if full[x] else short_walks:
            y = x
            for row, s in steps:
                c = row[last[y]]
                if c == -2:
                    if full[y]:
                        break
                    y = base[y] + s
                elif c == -1:
                    y = parent[y]
                else:
                    y = base[parent[y]] + c
            if y > x:
                found.append((x, y, sid))
        if len(found) > 1:
            order_class(found, pair_key)
        out += found

    # each triple becomes the graph's (class, far end, tag) tuple in place,
    # so no second list of edges is built
    tags = [tag for _, _, tag in starts]
    sids = array("I", [sid for _, _, sid in out])
    for i, (x, y, sid) in enumerate(out):
        out[i] = (x, y, tags[sid])
    return assemble(("1", *texts[1:]), depth, sym, out, sids, pair)


def gen_a(m: int, n: int) -> FPWord:
    return FPWord((("a", 1),), m, n)


def gen_ab(m: int, n: int) -> FPWord:
    return FPWord((("a", 1), ("b", 1)), m, n)


@dataclass(frozen=True)
class TruncationReport:
    m: int
    n: int
    depths: tuple[int, ...]
    class_counts: tuple[int, ...]
    circle_is_cycle: tuple[bool, ...]
    full_connected: tuple[bool, ...]
    circle_spans_full: tuple[bool, ...]
    deepest_circle: Multigraph = field(compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(self.circle_is_cycle) and all(self.full_connected) and all(
            self.circle_spans_full
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "depths": [
                {
                    "r": r,
                    "classes": c,
                    "circle_is_cycle": cyc,
                    "full_connected": conn,
                    "circle_spans_full": span,
                }
                for r, c, cyc, conn, span in zip(
                    self.depths,
                    self.class_counts,
                    self.circle_is_cycle,
                    self.full_connected,
                    self.circle_spans_full,
                )
            ],
            "passed": self.passed,
        }


def verify_circle_truncations(m: int, n: int, r_max: int) -> TruncationReport:
    """Check that the circle's truncation is a single cycle for r <= r_max,
    and that it spans the connected full-generating-set truncation.

    Only the deepest depth is built, on {a, ab}: its connectivity is
    checked and its circle is taken as ``generator_subgraph``.  Depths are
    checked from the deepest down.  A depth passes when its circle is a
    cycle, the full truncation is connected and the circle spans it (no
    class has circle degree 0).  Once a depth passes, every shallower
    depth d is reported passing with its count_truncation_classes(m, n, d)
    classes, unbuilt.  A depth below a failing one is built and checked:
    on ab alone when a deeper depth was connected, since a contraction of
    a connected graph is connected, else on {a, ab} again.  The deepest
    depth is sized against CLASS_BUDGET before any depth is built.

    A passing depth r settles depth r - 1:

    1. Classes nest.  A short class of depth r - 1 is one element, a class
       of depth r too.  A full class w of depth r - 1 becomes at depth r
       its cone: the classes w, w a^i and w a^i b^j.  As a set of group
       elements the cone is the same class, w followed by nothing or by a
       word that starts with an a-syllable.  So depth r - 1 is depth r
       with every cone contracted and the loops dropped.
    2. Exactly two ab-edges leave a cone: {w (ab)^-1, w} and
       {w a^(m-1), w b}.  For w x in the cone, w x ab and w x (ab)^-1
       reduce inside x, so they stay in the cone (w alone, or w and then
       an a-syllable) unless x is empty, where (ab)^-1 changes w's last
       syllable, or x is a^(m-1), where ab gives w b.
    3. The circle of depth r is a hamiltonian cycle, and a vertex set
       with exactly two boundary edges on a cycle is one arc of it.  So
       contracting the cones contracts arcs, which leaves a cycle through
       the count_truncation_classes(m, n, r - 1) >= 3 classes: the circle
       of depth r - 1, which spans it.
    4. Contracting a connected graph leaves it connected, so the full
       truncation of depth r - 1 is connected.
    """
    if m < 3 or n < 2:
        raise ValueError("family needs m >= 3 and n >= 2")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    check_budget(count_truncation_classes(m, n, r_max), CLASS_BUDGET)
    ab = gen_ab(m, n)
    rows, connected, deepest = [], False, None
    for r in range(r_max, 0, -1):
        if connected:  # a contraction of the connected depth r + 1
            circle = build_truncation(m, n, [ab], r).graph
        else:
            full = build_truncation(m, n, [gen_a(m, n), ab], r).graph
            circle, connected = generator_subgraph(full, ab), full.is_connected()
        deepest = deepest or circle
        cycle = circle.is_cycle()  # a cycle through every class spans them
        rows.append((circle.n_vertices, cycle, connected, cycle or all(circle.degrees())))
        if all(rows[-1][1:]):  # depth r passed, and settles every shallower one
            for d in range(r - 1, 0, -1):
                rows.append((count_truncation_classes(m, n, d), True, True, True))
            break
    counts, cyc, conn, span = zip(*reversed(rows))
    return TruncationReport(m, n, tuple(range(1, r_max + 1)), counts, cyc, conn, span, deepest)
