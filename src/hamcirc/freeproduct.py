"""The free product Z_m * Z_n and its cycle-tree Cayley graphs.

Elements are alternating products of a-syllables (exponent 1..m-1) and
b-syllables (exponent 1..n-1).  The graph on the generating set
{a^{+-1}, (ab)^{+-1}} is a tree of m-cycles joined by parallel edge pairs;
its unique hamiltonian circle is the subgraph on (ab)^{+-1} alone.  The
circle cannot be built whole, so it is verified on finite truncations:
words are identified when they agree up to and including their r-th
b-syllable, and the circle's truncation must be a single cycle for every
checked depth.  The circle is the (ab)-edge subgraph of the one full
truncation built at each depth.  A truncation is built class by class,
from the class representatives alone, and its class count is sized in
closed form before any class is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Iterable, Iterator, Optional

from .multigraph import Multigraph, tagged_cycle_positions
from .quotients import (
    COUNT_CAP,
    collector_paused,
    edge_tag,
    generator_subgraph,
    order_pair,
    over_budget,
    project,
)

CLASS_BUDGET = 100_000

Syllables = tuple[tuple[str, int], ...]


class TruncationBudgetExceeded(RuntimeError):
    pass


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

    def truncate_after_b(self, r: int) -> "FPWord":
        """The prefix through the r-th b-syllable (the whole word if fewer)."""
        return FPWord(_truncate_after_b(self.syllables, r), self.m, self.n)


def syllables_str(sylls: Syllables) -> str:
    return "".join(f"{s}{e}" for s, e in sylls)


def syllable_key(sylls: Syllables) -> tuple:
    return (len(sylls), sylls)


def _truncate_after_b(sylls: Syllables, r: int) -> Syllables:
    seen = 0
    for i, (letter, _) in enumerate(sylls):
        if letter == "b":
            seen += 1
            if seen == r:
                return sylls[: i + 1]
    return sylls


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


def _class_reps(m: int, n: int, depth: int) -> list[tuple[Syllables, bool]]:
    """The classes of the depth-r truncation in syllable_key order, as
    (representative, full) pairs: the normal forms with fewer than r
    b-syllables, and (full) those ending in their r-th one.  Built one
    length at a time, each short one extended in a < b, exponent order."""
    a_sylls = [("a", e) for e in range(1, m)]
    b_sylls = [("b", e) for e in range(1, n)]
    follow = {None: a_sylls + b_sylls, "a": b_sylls, "b": a_sylls}
    out: list = []
    layer = [((), 0)]
    while layer:
        out += [(w, b_used == depth) for w, b_used in layer]
        layer = [
            (w + (s,), b_used + (s[0] == "b"))
            for w, b_used in layer
            if b_used < depth
            for s in follow[w[-1][0] if w else None]
        ]
    return out


@dataclass(frozen=True)
class FPQuotient:
    graph: Multigraph
    depth: int
    gens: tuple[FPWord, ...]
    edge_pairs: tuple[tuple[Syllables, Syllables], ...]

    def edge_index_of_pair(self, u: FPWord, v: FPWord) -> int:
        try:
            return self.edge_pairs.index(tuple(w.syllables for w in sorted((u, v))))
        except ValueError:
            raise KeyError(f"no edge for group pair {u.display()},{v.display()}") from None


def fp_symmetric_closure(gens: Iterable[FPWord]) -> tuple[FPWord, ...]:
    seen = {}
    for g in gens:
        if not g.syllables:
            raise ValueError("generating set must not contain the identity")
        for h in (g, g.inverse()):
            seen.setdefault(h.syllables, h)
    return tuple(sorted(seen.values()))


def count_truncation_classes(m: int, n: int, depth: int, cap: Optional[int] = None) -> int:
    """Classes of the depth-r truncation, in closed form: the normal forms
    with fewer than r b-syllables, plus those ending in their r-th one.

    With a cap, counting stops once the total passes it, and that partial
    total (still above the cap) is returned."""
    a, b = m - 1, n - 1
    if a * b == 1:  # Z_2 * Z_2: every depth adds 4 classes
        return 4 * depth
    total = 1 + a
    for k in range(1, depth):
        total += (1 + a) ** 2 * b**k * a ** (k - 1)
        if cap is not None and total > cap:
            return total
    return total + (1 + a) * b**depth * a ** (depth - 1)


def _check_class_budget(m: int, n: int, depth: int, budget: int) -> None:
    classes = count_truncation_classes(m, n, depth, cap=COUNT_CAP)
    if classes > budget:
        raise TruncationBudgetExceeded(over_budget(classes, budget))


@collector_paused
def build_truncation(
    m: int,
    n: int,
    gens: Iterable[FPWord],
    depth: int,
    budget: int = CLASS_BUDGET,
) -> FPQuotient:
    """The depth-r truncation of Cay(Z_m * Z_n; gens^{+-1}), class by class.

    A class with fewer than r b-syllables is one element, and its edges are
    {w, w t} for every generator t.  A full class is rep * (any word that
    starts with an a-syllable).  A generator has at most one b-syllable, so
    a group edge leaves a full class only from rep or rep * a^i (i < m).
    Loops are dropped.  The class count is checked against ``budget`` in
    closed form, before any class is built.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    sym = fp_symmetric_closure(gens)
    if any((g.m, g.n) != (m, n) for g in sym):
        raise ValueError(f"generators must lie in Z_{m} * Z_{n}")
    if any(g.b_count() > 1 for g in sym):
        raise ValueError("generators may use at most one b-syllable")
    _check_class_budget(m, n, depth, budget)

    classes = _class_reps(m, n, depth)
    index = {rep: i for i, (rep, _) in enumerate(classes)}
    tagged = [(g.syllables, edge_tag(g)) for g in sym]
    powers = [(("a", i),) for i in range(1, m)]
    pairs: dict = {}
    for rep, full in classes:
        for w in [rep] + [rep + p for p in powers] if full else [rep]:
            for t, tag in tagged:
                v = _multiply(w, t, m, n)
                # v stays in a full class exactly when rep is its prefix
                if not (full and v[: len(rep)] == rep):
                    pairs.setdefault(order_pair(w, v, syllable_key), tag)

    graph, edge_pairs = project(
        [syllables_str(rep) or "1" for rep, _ in classes],
        lambda w: index[_truncate_after_b(w, depth)],
        pairs,
        syllable_key,
    )
    return FPQuotient(graph, depth, sym, edge_pairs)


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
    and that it spans the connected full-generating-set truncation.  The
    circle is the (ab)-edge subgraph of the one truncation on {a, ab} built
    per depth, and it spans when every class lies on a circle edge.  The
    deepest depth is sized against CLASS_BUDGET before depth 1 is built."""
    if m < 3 or n < 2:
        raise ValueError("family needs m >= 3 and n >= 2")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    _check_class_budget(m, n, r_max, CLASS_BUDGET)
    depths = tuple(range(1, r_max + 1))
    rows = []
    for r in depths:
        full = build_truncation(m, n, [gen_a(m, n), gen_ab(m, n)], r).graph
        circle = generator_subgraph(full, gen_ab(m, n))
        spans = all(d > 0 for d in circle.degrees())
        cycle = tagged_cycle_positions(full, edge_tag(gen_ab(m, n))) is not None
        rows.append((full.n_vertices, cycle, full.is_connected(), spans))
    counts, cyc, conn, span = zip(*rows)
    return TruncationReport(m, n, depths, counts, cyc, conn, span, circle)


def disconnecting_pair_disconnects(m: int, n: int, depth: int) -> bool:
    """Removing the two distinguished circle edges b <- a^-1 and
    b a^-1 -> b^2 from the full truncation must disconnect it."""
    if depth < 2:
        raise ValueError("the distinguished edges need depth at least 2")
    full = build_truncation(m, n, [gen_a(m, n), gen_ab(m, n)], depth)
    ab = gen_ab(m, n)
    a_inv = gen_a(m, n).inverse()
    b = FPWord((("b", 1),), m, n)
    e1 = full.edge_index_of_pair(a_inv, a_inv * ab)
    assert a_inv * ab == b
    u2 = b * a_inv
    e2 = full.edge_index_of_pair(u2, u2 * ab)
    return not full.graph.without_edges([e1, e2]).is_connected()
