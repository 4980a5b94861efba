"""Finite prefix quotients of Cayley graphs of F_n.

Two words are equivalent at level L when they share their initial segment
of length L (words shorter than L are alone in their class).  The quotient
graph collapses each class to a vertex, keeps multiple edges, and drops
loops.  Distinct group edges are the multiplicity currency: a quotient edge
exists once per unordered pair of group elements joined by a generator.

Two independent constructions are provided.  ``build_quotient_enum``
enumerates all words up to level + max generator length and projects every
group edge; it is the definitional oracle.  ``build_quotient_local``
synthesizes the edges class by class (short classes keep their two tree
neighbours per generator; a full-length class with last letter a gets one
edge per occurrence of a^-1 in each generator) and is the fast path.  Both
take the level's classes from ``shortlex_words``, which generates them in
vertex order with their labels, so nothing is sorted per word.  A level is
sized against QUOTIENT_BUDGET before any word is generated, by a count that
stops at COUNT_CAP.  Builders run with the cyclic garbage collector held
off (``collector_paused``).
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .multigraph import Multigraph
from .words import (
    RankError,
    ReducedWord,
    concat_letters,
    count_reduced_words,
    invert_letters,
    reduced_words,
    shortlex_words,
    word_key,
)

ENUM_BUDGET = 5_000_000
QUOTIENT_BUDGET = 500_000  # classes of one prefix quotient
COUNT_CAP = 10**12  # a budget check counts no further than this


class EnumerationBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class QuotientGraph:
    graph: Multigraph
    class_index: dict  # defining prefix (letter tuple) -> vertex
    level: int
    gens: tuple[ReducedWord, ...]
    edge_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def vertex_of_word(self, w: ReducedWord) -> int:
        return self.class_index[w.letters[: self.level]]


def symmetric_closure(gens: Iterable[ReducedWord], rank: int) -> tuple[ReducedWord, ...]:
    """Close under inversion, deduplicate, reject the identity and any
    generator of another rank."""
    seen = {}
    for g in gens:
        if g.rank != rank:
            raise RankError(f"generator {g.display()} has rank {g.rank}, expected {rank}")
        if len(g) == 0:
            raise ValueError("generating set must not contain the identity")
        for h in (g, g.inverse()):
            seen.setdefault(h.letters, h)
    if not seen:
        raise ValueError("generating set must not be empty")
    return tuple(sorted(seen.values(), key=lambda w: w.sort_key()))


def edge_tag(g) -> str:
    """The tag on the edges of a generator g (a ReducedWord or an FPWord):
    the smaller of g and g^-1 in text form."""
    return min(g, g.inverse(), key=lambda x: x.sort_key()).display()


def generator_subgraph(graph: Multigraph, g) -> Multigraph:
    """The spanning subgraph on generator g's edges: the build on g alone."""
    tag = edge_tag(g)
    return graph.without_edges(i for i, e in enumerate(graph.edges) if e.tag != tag)


def over_budget(classes: int, budget: int) -> str:
    """The budget error text for a class count taken with cap COUNT_CAP."""
    shown = f"more than {COUNT_CAP}" if classes > COUNT_CAP else classes
    return f"{shown} classes exceeds {budget}"


def check_quotient_budget(n: int, level: int) -> None:
    """Refuse a level of more than QUOTIENT_BUDGET classes before any work."""
    classes = count_reduced_words(n, level, cap=COUNT_CAP)
    if classes > QUOTIENT_BUDGET:
        raise EnumerationBudgetExceeded(over_budget(classes, QUOTIENT_BUDGET))


def order_pair(u: tuple, v: tuple, key: Callable) -> tuple[tuple, tuple]:
    """The endpoints of a group edge, smaller key first.  Both keys in use
    (word_key, syllable_key) order by length first, so only endpoints of
    one length need theirs."""
    if len(u) != len(v):
        return (u, v) if len(u) < len(v) else (v, u)
    return (u, v) if key(u) <= key(v) else (v, u)


def collector_paused(build: Callable) -> Callable:
    """Run ``build`` with the cyclic garbage collector held off.

    A build allocates hundreds of thousands of tuples, lists and dicts and
    makes no reference cycles, so reference counting frees all of it, and
    the collector's passes over it (hundreds per build, 11-16% of its time)
    find nothing.  Their cost is memory-bound and swings with the host's
    caches more than the rest of the build does.  The collector's state is
    restored on return.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def project(
    labels: Sequence[str],
    vertex_of: Callable[[Hashable], int],
    pairs: dict,
    key: Callable,
) -> tuple[Multigraph, tuple]:
    """Collapse group edges onto their classes; the F_n prefix quotients
    and the Z_m * Z_n truncations are both built this way.

    ``pairs`` maps each group edge (u, v) to its tag and ``vertex_of``
    maps a group element to its class.  Loops are dropped; parallel edges
    stay, ordered by class pair and then by key(u), key(v).  Returns the
    multigraph and the group pair behind each of its edges.
    """
    items = []
    for (u, v), tag in pairs.items():
        cu, cv = vertex_of(u), vertex_of(v)
        if cu == cv:
            continue
        if cu > cv:
            cu, cv = cv, cu
        items.append((cu, cv, key(u), key(v), u, v, tag))
    items.sort()
    graph = Multigraph(labels, [(cu, cv, tag) for cu, cv, _, _, _, _, tag in items])
    return graph, tuple((u, v) for _, _, _, _, u, v, _ in items)


def _prefix_quotient(
    level: int,
    gens: tuple[ReducedWord, ...],
    pairs: dict,
    classes: list[tuple[tuple[int, ...], str]],
) -> QuotientGraph:
    """Project ``pairs`` onto the level's classes, given as the
    shortlex_words list of (representative, text) pairs."""
    index = {raw: i for i, (raw, _) in enumerate(classes)}
    graph, edge_pairs = project(
        [text or "1" for _, text in classes],
        lambda raw: index[raw[:level]],
        pairs,
        word_key,
    )
    return QuotientGraph(graph, index, level, gens, edge_pairs)


@collector_paused
def build_quotient_enum(
    n: int,
    gens: Iterable[ReducedWord],
    level: int,
    budget: int = ENUM_BUDGET,
) -> QuotientGraph:
    """Quotient by definition: enumerate words, project every group edge.

    Any group edge joining two distinct classes has an endpoint of length
    at most level + max generator length, so enumerating up to that bound
    produces the complete edge multiset.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    sym = symmetric_closure(gens, n)
    horizon = level + max(len(g) for g in sym)
    if count_reduced_words(n, horizon) > budget:
        raise EnumerationBudgetExceeded(
            f"{count_reduced_words(n, horizon)} words exceeds budget {budget}"
        )
    tagged = [(g.letters, edge_tag(g)) for g in sym]
    pairs: dict = {}
    for w in reduced_words(n, horizon):
        for t, tag in tagged:
            v = concat_letters(w, t)
            if v[:level] != w[:level]:  # otherwise a loop
                pairs.setdefault(order_pair(w, v, word_key), tag)
    return _prefix_quotient(level, sym, pairs, list(shortlex_words(n, level)))


@collector_paused
def build_quotient_local(
    n: int,
    gens: Iterable[ReducedWord],
    level: int,
) -> QuotientGraph:
    """Quotient via per-class edge synthesis; same graph as the enumeration.

    For a class with representative shorter than the level, its edges are
    exactly the generator edges at the representative.  For a full-length
    representative v ending in the letter a, each occurrence of a^-1 at
    position j of a generator t contributes the single group edge
    {v (t_1..t_{j-1})^-1, v a^-1 t_{j+1}..t_r}.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    check_quotient_budget(n, level)
    sym = symmetric_closure(gens, n)
    tagged = [(g.letters, edge_tag(g)) for g in sym]
    starts: dict = {}  # a -> ((t_1..t_{j-1})^-1, t, tag) for each t_j = a^-1
    for t, tag in tagged:
        for j, tj in enumerate(t):
            starts.setdefault(-tj, []).append((invert_letters(t[:j]), t, tag))
    classes = list(shortlex_words(n, level))
    pairs: dict = {}
    for v, _ in classes:
        if len(v) < level:
            for t, tag in tagged:
                pairs.setdefault(order_pair(v, concat_letters(v, t), word_key), tag)
        else:
            for pre, t, tag in starts.get(v[-1], ()):
                w = v + pre
                pairs.setdefault(order_pair(w, concat_letters(w, t), word_key), tag)
    return _prefix_quotient(level, sym, pairs, classes)


def quotients_equal(a: QuotientGraph, b: QuotientGraph) -> bool:
    """Exact equality: same classes and same labeled group-edge multiset."""
    return (
        a.level == b.level
        and a.graph.labels == b.graph.labels
        and a.edge_pairs == b.edge_pairs
        and a.graph.edges == b.graph.edges
    )
