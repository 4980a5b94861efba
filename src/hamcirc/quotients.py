"""Finite prefix quotients of Cayley graphs of F_n, and the record and
tail shared with the Z_m * Z_n truncations.

Two words are equivalent at level L when they share their initial segment
of length L (words shorter than L are alone in their class).  The quotient
graph collapses each class to a vertex, keeps multiple edges, and drops
loops.  Distinct group edges are the multiplicity currency: a quotient edge
exists once per unordered pair of group elements joined by a generator.

Two independent constructions are provided.  ``build_quotient_enum``
enumerates all words up to level + max generator length and projects every
group edge; it is the definitional oracle.  ``build_quotient_local`` is the
fast path, an integer kernel.  It numbers the classes by shortlex position,
so that the parent and the children of a class are arithmetic on its index,
and it finds the far class of each group edge by walking the generator's
letters on those integers: short classes walk every generator, and a
full-length class with last letter a walks from each occurrence of a^-1.
Both builders take the level's classes in vertex order from
``shortlex_labels`` (the enumeration through ``shortlex_words``), so
nothing is sorted per word.  ``tree_parents`` gives each class's parent,
the class of its word less the last letter, by the same arithmetic.

The kernel computes few classes one by one and replays the rest, because
past a fixed depth the blocks of a level repeat up to an affine shift of
their ids: the Cayley graph of F_n has finitely many cone types up to left
translation (Muller and Schupp, "The theory of ends, pushdown automata, and
second-order logic", TCS 37, 1985).  Let r be the length of the longest
generator, K = max(1, floor(r/2)) (``_cone_depth``), D = d**K and d = 2n-1.
By the child formula (see ``build_quotient_local``), the classes of depth
delta > K below one class a >= 1 of depth delta - K, their K-ancestor, are
the block D*a + e, e in shift..shift+D-1, with shift the same for every a;
the node j <= K parent steps above D*a + e is d**(K-j)*a + e_j, with e_j
the same for every a; and the digits of the nodes from a down to its block
depend only on e and the last digit of a, since the formula numbers a child
by its letter relative to its parent's.  Two facts let one block stand for
every block whose K-ancestor has the same last digit.

1. A kept edge's walk leaves from at most K parent steps above its class.
   A class keeps only edges to larger classes, which are not shallower
   than it.  A short class v, at depth delta < L, walks a generator of r'
   <= r letters from v; if the first k letters cancel, the walk climbs k
   steps and ends at depth min(delta - 2k + r', L), so v keeps it only if
   2k <= r'.  A full class v, whose last letter is x, walks the m <= r - 1
   letters after an x^-1 from its parent; with k cancelled it ends at
   depth min(L - 1 - 2k + m, L), so it is kept only if 2k <= m - 1.  The
   walk leaves from the node j = k (short) or j = k + 1 (full) steps up,
   so j <= floor(r/2) <= K.  The kernel checks j <= K on every kept walk
   that climbs (the others leave from v or its parent), and fails
   otherwise.
2. Far ends at the same depth share their slope.  The per-class code reads
   the digits of v and of its parent, which pick v's plan, and of the
   nodes its walks climb through.  A walk that stays at or below a reads
   the same digits in every such block and ends at far class pw * node +
   off = P*a + C, with P = pw * d**(K-j) = d**(depth(far) - depth(a)).  A
   walk that climbs past a does so in every such block, so by 1 it is
   dropped in every one.  The ids of one depth are one consecutive range,
   deeper ranges after shallower ones, and that holds past the level too,
   where ``ids`` numbers the two ends of a parallel edge's group pair,
   which the same walk reaches.  So any two of those numbers, or a far
   class and v, compare alike in every block: at two depths the deeper is
   larger, and at one depth they share P and differ by a constant.  The
   kept edges, their order and the order of parallel edges are the same in
   every block.

So the kernel runs its per-class code on the first block of each last digit
of a, records each kept edge as (e, P, C, tag, start id), and emits every
later block with that digit as (D*b + e, P*b + C, tag) for its K-ancestor
b, with the same start ids (``record_and_replay``).  Depths up to K have no
K-ancestor, and at depth K + 1 each K-ancestor, a class of depth 1, has a
digit of its own, so those depths are computed class by class.

The integer kernels here and in ``freeproduct`` share their replay,
``record_and_replay``, and their tail: each puts a class's (class, far
class, start id) triples in order with ``order_class``, which orders a run
of parallel edges by a key of the group pairs behind it (here the shortlex
positions of their ends, with no group word formed; a truncation forms the
pairs of its parallel edges), and ``assemble`` builds the
``QuotientGraph``, whose group pairs are derived only when asked for.
Every size is checked by ``words.check_budget`` against a count that stops
at ``words.COUNT_CAP``, before any word or class is generated, and refused
with ``words.BudgetExceeded``.  Every budget is a module constant, read
when the check runs.  Builders run with the cyclic garbage collector held
off (``collector_paused``).
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from operator import floordiv, itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .multigraph import Multigraph, collector_paused
from .words import (
    _DIGIT,
    RankError,
    ReducedWord,
    check_budget,
    concat_letters,
    count_reduced_words,
    invert_letters,
    reduced_words,
    shortlex_labels,
    shortlex_words,
    text_letters,
    word_key,
)

ENUM_BUDGET = 5_000_000  # words the enumeration oracle may generate
QUOTIENT_BUDGET = 500_000  # classes of one prefix quotient


@dataclass(frozen=True)
class QuotientGraph:
    """A prefix quotient of F_n at ``level``, or a Z_m * Z_n truncation at
    depth ``level``: only what every builder produces.  ``pair_of(i)`` gives
    the group pair behind edge i, and ``edge_pairs`` all of them, derived
    on first access."""

    graph: Multigraph
    level: int
    gens: tuple
    pair_of: Callable[[int], tuple] = field(repr=False, compare=False)

    @functools.cached_property
    def edge_pairs(self) -> tuple[tuple[tuple, tuple], ...]:
        """The group pair (u, v), smaller key first (word_key, or
        syllable_key for a truncation), behind each edge."""
        return tuple(map(self.pair_of, range(self.graph.n_edges)))


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
    """The spanning subgraph on generator g's edges: the build on g alone.
    Its edges are the very tuples of ``graph``, filtered by tag."""
    tag = edge_tag(g)
    return Multigraph._trusted(graph.labels, [e for e in graph.edges if e[2] == tag])


def check_quotient_budget(n: int, level: int) -> None:
    """Refuse a level of more than QUOTIENT_BUDGET classes before any work."""
    check_budget(count_reduced_words(n, level), QUOTIENT_BUDGET)


def order_pair(u: tuple, v: tuple, key: Callable) -> tuple[tuple, tuple]:
    """The endpoints of a group edge, smaller key first.  Both keys in use
    (word_key, syllable_key) order by length first, so only endpoints of
    one length need theirs."""
    if len(u) != len(v):
        return (u, v) if len(u) < len(v) else (v, u)
    return (u, v) if key(u) <= key(v) else (v, u)


def project(
    labels: Sequence[str],
    vertex_of: Callable[[Hashable], int],
    pairs: dict,
    key: Callable,
) -> tuple[Multigraph, tuple]:
    """Collapse group edges onto their classes, by definition; the two
    enumeration oracles, ``build_quotient_enum`` and the truncation oracle
    in the tests, are built this way.  The kernels reach the same order
    through ``order_class``.

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
    graph = Multigraph._trusted(
        tuple(labels), [(cu, cv, tag) for cu, cv, _, _, _, _, tag in items]
    )
    return graph, tuple((u, v) for _, _, _, _, u, v, _ in items)


def order_class(found: list, key: Callable) -> None:
    """Sort one class's edges, (class, far class, start id) triples, by far
    class, and each run of parallel edges by the keys of the group pairs
    behind them, as ``project`` orders them.  ``key(class, start id)`` is
    taken only for the parallel edges: each run of them, found by one scan
    of the sorted triples, is sorted again by it."""
    found.sort()
    i, size = 0, len(found)
    while i < size - 1:
        j = i + 1
        while j < size and found[j][1] == found[i][1]:
            j += 1
        if j - i > 1:
            found[i:j] = sorted(found[i:j], key=lambda e: key(e[0], e[2]))
        i = j


def record_and_replay(
    edges: list,
    sids: array,
    emit: Callable[[int, int], None],
    types: Sequence[int],
    marks: list[int],
    ancestors: range,
    classes: range,
    starts: list[int],
) -> None:
    """Append the kept edges of ``classes`` and their start ids, in order,
    running the per-class code on few of them.  The classes are the blocks
    S*a + shift + e, 0 <= e < S, below the ancestors a of one run
    (``ancestors``), and ``marks`` are the first ancestor of each type
    ``types[a]``, in order.  ``emit(lo, hi)`` computes the block of each
    mark; each of its classes is recorded as its e and its edges' (P, C,
    tag), with far class P*a + C and P the slope of the far class's run, its
    size over the ancestors' (``starts`` holds the first class of every run
    and one past the last).  Every later block whose ancestor b has a
    recorded type is replayed as (S*b + e, P*b + C, tag), with the same
    start ids.  A replayed class's edges share one id object, as emitted
    ones do.  Each kernel proves that replay gives its per-class edges."""
    size, count = len(classes) // len(ancestors), len(ancestors)
    shift = classes.start - size * ancestors.start
    records: dict = {}
    for a, end in zip(marks, marks[1:] + [ancestors.stop]):
        mark, base = len(edges), size * a + shift
        emit(base, base + size)
        record = []
        for u, group in groupby(edges[mark:], itemgetter(0)):
            ends = []
            for _, far, tag in group:
                i = bisect_right(starts, far)
                slope = (starts[i] - starts[i - 1]) // count
                ends.append((slope, far - slope * a, tag))
            record.append((u - size * a, ends))
        records[types[a]] = record, sids[mark:]
        edges += [
            (u, slope * b + off, tag)
            for b, q in zip(range(a + 1, end), types[a + 1 : end])
            for e, ends in records[q][0]
            for u in (size * b + e,)
            for slope, off, tag in ends
        ]
        for q in types[a + 1 : end]:
            sids += records[q][1]


def assemble(
    labels: tuple, level: int, gens: tuple, edges: list, sids: array, pair: Callable
) -> QuotientGraph:
    """The record of a kernel build, from its edges, (class, far class, tag)
    tuples in the order of ``project``, and the start id of each;
    ``pair(class, start id)`` gives the group pair behind an edge.

    A kernel walks each generator from both ends of every group edge that
    leaves a class, so each edge between two classes is met once from each
    of them (from the other end, t^-1 reads it backwards), and none is a
    loop.  Keeping only the edges to larger classes keeps each edge once,
    and taking the classes in order, each one's edges put in order by
    ``order_class``, emits them in the order of ``project``.  The list is
    the graph's own, with no second list of edges beside it: each kernel
    makes each tuple once.  ``pair`` is called only when a group pair is
    asked for (``pair_of``, or ``edge_pairs`` on first access), from the
    edge's class and start id.
    """
    graph = Multigraph._trusted(labels, edges)
    edges = graph.edges
    return QuotientGraph(graph, level, gens, lambda i: pair(edges[i][0], sids[i]))


@collector_paused
def build_quotient_enum(
    n: int,
    gens: Iterable[ReducedWord],
    level: int,
) -> QuotientGraph:
    """Quotient by definition: enumerate words, project every group edge.

    Any group edge joining two distinct classes has an endpoint of length
    at most level + max generator length, so enumerating up to that bound
    produces the complete edge multiset.  The words up to that bound are
    counted against ENUM_BUDGET before any is generated.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    sym = symmetric_closure(gens, n)
    horizon = level + max(len(g) for g in sym)
    check_budget(count_reduced_words(n, horizon), ENUM_BUDGET, "words")
    tagged = [(g.letters, edge_tag(g)) for g in sym]
    pairs: dict = {}
    for w in reduced_words(n, horizon):
        for t, tag in tagged:
            v = concat_letters(w, t)
            if v[:level] != w[:level]:  # otherwise a loop
                pairs.setdefault(order_pair(w, v, word_key), tag)
    classes = list(shortlex_words(n, level))
    index = {raw: i for i, (raw, _) in enumerate(classes)}
    graph, edge_pairs = project(
        [text or "1" for _, text in classes],
        lambda raw: index[raw[:level]],
        pairs,
        word_key,
    )
    return QuotientGraph(graph, level, sym, edge_pairs.__getitem__)


def _far_rows(letters: list[int], room: int, d: int, step: list) -> list:
    """Where a walk along ``letters`` (digits) ends, by cancellation count.

    Row k is for a walk whose first k letters cancel.  From the ancestor
    i it reaches, whose last digit is q, the walk appends the next
    a = min(len - k, room + k) letters and ends at d**a * i + row[q].
    Returns (d**a, row) for each k.
    """
    rows = []
    for k in range(len(letters) + 1):
        a = min(len(letters) - k, room + k)
        tail = 0
        for i in range(k + 1, k + a):
            tail = tail * d + step[letters[i - 1]][letters[i]]
        top = d ** (a - 1) if a else 0
        first = letters[k] if a else 0
        rows.append((d**a, [top * child[first] + tail for child in step]))
    return rows


@collector_paused
def build_quotient_local(
    n: int,
    gens: Iterable[ReducedWord],
    level: int,
) -> QuotientGraph:
    """Quotient via per-class edge synthesis; same graph as the enumeration.

    Classes are numbered by shortlex position.  With d = 2n-1, the children
    of the root are 1..2n, the children of a class i > 0 are d*i + 2 + c
    (c counts the letters allowed after i that come before the appended
    one), and the parent of a class i > 2n is (i-2)//d.  One byte per class
    holds the digit of its last letter (``_last_digits``).

    A far end is found by walking a generator's letters from an integer
    node: first the letters that cancel (go to the parent), then the ones
    that extend (go to a child), stopping at the level.  A short class v
    walks all of each generator t from v.  A full class v ending in a walks
    t_{j+1}..t_r from parent(v) for each t_j = a^-1: that is the group edge
    {v (t_1..t_{j-1})^-1, v a^-1 t_{j+1}..t_r}, the only one to leave the
    class from an element of v's cone at that letter.  When the first
    letter of a walk extends its start, the end is pw * start + off, the
    same formula for every class with the same last digits, so only the
    walks that cancel are stepped through.

    A class keeps only the edges to larger classes (see ``assemble``).
    Those of a class whose plan may emit them out of order, the only
    classes that can hold parallel edges, are put in order by
    ``order_class``.  Parallel edges are ordered by the group pairs behind
    them, in word_key order.  The numbering, carried on past the level by
    the same child formula, is word_key order too (the children of
    consecutive classes are consecutive blocks), so ``ids`` compares the
    pairs by the positions of their ends without forming them.

    The per-class code (``emit``) runs on every class of depth at most
    K + 1 and, deeper, on the first block of classes below a K-ancestor with
    each last digit; every other block is replayed from that record as an
    affine map of its K-ancestor's id (the module docstring proves both).
    Replay is arithmetic on the record alone, and the edges, their order
    and their start ids are those the per-class code would give.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    check_quotient_budget(n, level)
    sym = symmetric_closure(gens, n)
    texts = shortlex_labels(n, level)
    d, root = 2 * n - 1, 2 * n
    last = _last_digits(n, level)
    # d*i + step[q][y] is the child by digit y of a class i whose last
    # digit is q; the root's row has q = root
    step = [[2 + y - (y > q ^ 1) for y in range(root)] for q in range(root)]
    step.append([1 + y for y in range(root)])

    starts = []  # (pre, t, tag): the group edge {rep pre, rep pre t}
    spans = []  # (digits of pre, digits of t past pre) by sid
    short_walks = []  # (digits of t, sid)
    full_walks: list[list] = [[] for _ in range(root)]  # by a: (t_{j+1}.., sid, rows)
    for g in sym:
        t, tag = g.letters, edge_tag(g)
        digits = [_DIGIT[x] for x in t]
        short_walks.append((digits, len(starts)))
        starts.append(((), t, tag))
        spans.append(((), digits))
        for j, y in enumerate(digits):
            if j + 1 < len(digits):  # else the far end is the parent, a smaller class
                rest = digits[j + 1 :]
                full_walks[y ^ 1].append((rest, len(starts), _far_rows(rest, 1, d, step)))
            starts.append((invert_letters(t[:j]), t, tag))
            spans.append(([x ^ 1 for x in reversed(digits[:j])], digits[j:]))

    tags = [tag for _, _, tag in starts]

    def plan(walks: list, qs: int, qv: int, full: bool) -> tuple:
        """The walks of a class with last digit qv from its start, the class
        itself or (for a full class) its parent, whose last digit is qs.
        Returns the (pw, off, sid, tag) of the walks that extend the start
        and keep their edge, the (cancelling digits, len, sid, rows) of those
        that cancel, and whether the class's edges need sorting."""
        direct, climbing = [], []
        for digits, sid, rows in walks:
            if digits[0] ^ 1 != qs:
                pw, row = rows[0]
                # a short class's far end is deeper; a full class's is a sibling
                if not full or row[qs] > step[qs][qv]:
                    direct.append((pw, row[qs], sid, tags[sid]))
            else:
                climbing.append(([x ^ 1 for x in digits], len(digits), sid, rows))
        direct.sort()
        parallel = len({(pw, off) for pw, off, _, _ in direct}) < len(direct)
        return direct, climbing, parallel or bool(climbing)

    width = root + 1  # last digits, the root's included
    segments = []  # (first class, end, plans by start and class digits, full)
    lo = 0
    for depth in range(level + 1):
        hi = lo + (root * d ** (depth - 1) if depth else 1)
        plans = [None] * width * width
        if depth < level:
            walks = [(t, sid, _far_rows(t, level - depth, d, step)) for t, sid in short_walks]
            for q in range(width):
                plans[q * width + q] = plan(walks, q, q, False)
        else:
            for qs in range(width):
                for qv in range(root):
                    if qv != qs ^ 1:
                        plans[qs * width + qv] = plan(full_walks[qv], qs, qv, True)
        segments.append((lo, hi, plans, depth == level))
        lo = hi

    labels = ("1", *texts[1:])
    edges: list[tuple[int, int, str]] = []  # (v, far end, tag) per kept edge
    sids = array("I")  # the start id of each

    def ids(c: int, sid: int) -> tuple[int, int]:
        """The positions, smaller first, of the two ends of the group edge
        found from class c at start sid, numbered past the level: rep(c)
        pre, which extends c, and rep(c) t past pre, which cancels before
        it extends."""
        pre, rest = spans[sid]
        u, q = c, last[c]
        for y in pre:
            u, q = d * u + step[q][y], y
        w, q, k = c, last[c], 0
        while k < len(rest) and q == rest[k] ^ 1:
            w = (w - 2) // d if w > root else 0
            q = last[w]
            k += 1
        for y in rest[k:]:
            w, q = d * w + step[q][y], y
        return (u, w) if u < w else (w, u)

    def pair(c: int, sid: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The group edge behind an edge found from class c at start sid."""
        pre, t, _ = starts[sid]
        u = (text_letters(labels[c]) if c else ()) + pre
        return order_pair(u, concat_letters(u, t), word_key)

    cone = _cone_depth(max(map(len, sym)))

    def emit(lo: int, hi: int, plans: list, full: bool) -> None:
        """The per-class code, the only place edges are computed: append
        the kept edges of the classes lo..hi-1 of one depth, in order, and
        the start id of each.  A kept edge's walk leaves from a node j <=
        ``cone`` parent steps above its class, or the build fails."""
        add_edge, add_sid = edges.append, sids.append
        for v in range(lo, hi):
            start = ((v - 2) // d if v > root else 0) if full else v
            direct, climbing, unordered = plans[last[start] * width + last[v]]
            if not unordered:  # no climbing walk, no parallel pair: in order
                for pw, off, sid, tag in direct:
                    add_edge((v, pw * start + off, tag))
                    add_sid(sid)
                continue
            found = []
            for pw, off, sid, _ in direct:
                found.append((v, pw * start + off, sid))
            for inv, m, sid, rows in climbing:
                node = (start - 2) // d if start > root else 0
                q, k = last[node], 1
                while k < m and q == inv[k]:
                    node = (node - 2) // d if node > root else 0
                    q = last[node]
                    k += 1
                pw, row = rows[k]
                far = pw * node + row[q]
                if far > v:
                    if k + full > cone:
                        raise AssertionError(
                            f"class {v} keeps an edge {k + full} parent steps up, "
                            f"past its cone depth {cone}"
                        )
                    found.append((v, far, sid))
            if len(found) > 1:
                order_class(found, ids)
            for _, far, sid in found:
                add_edge((v, far, tags[sid]))
                add_sid(sid)

    run_starts = [lo for lo, _, _, _ in segments] + [segments[-1][1]]
    for depth, (lo, hi, plans, full) in enumerate(segments):
        top = depth - cone  # the depth of each block's K-ancestor
        if top <= 1:  # no K-ancestor, or each has a digit of its own
            emit(lo, hi, plans, full)
            continue
        # the classes below the K-ancestor a are D*a + e for e in
        # shift..shift+D-1; record the first block of each last digit of a,
        # and replay it for every later a with that digit
        a_lo, a_hi = segments[top][:2]
        marks = sorted(last.find(q, a_lo, a_hi) for q in range(root))
        blocks = functools.partial(emit, plans=plans, full=full)
        ancestors, classes = range(a_lo, a_hi), range(lo, hi)
        record_and_replay(edges, sids, blocks, last, marks, ancestors, classes, run_starts)

    return assemble(labels, level, sym, edges, sids, pair)


def _last_digits(n: int, level: int) -> bytes:
    """The digit of each class's last letter, in the numbering of
    ``build_quotient_local`` (the root's is 2n): the children of a class
    with last digit q have the digits y != q^1 in order, and the children
    of consecutive classes are consecutive, so each depth is one join of
    the follow rows of the digits above it."""
    root = 2 * n
    follow = [bytes(y for y in range(root) if y != q ^ 1) for q in range(root)]
    layers = [bytes([root]), bytes(range(root))]
    for _ in range(level - 1):
        layers.append(b"".join(map(follow.__getitem__, layers[-1])))
    return b"".join(layers)


def _cone_depth(longest: int) -> int:
    """How many parent steps up from its class a kept edge's walk can
    leave, for generators of at most ``longest`` letters: floor(longest /
    2), and at least 1 (a full class walks from its parent).  The bound is
    proved in the module docstring."""
    return max(1, longest // 2)


def tree_parents(n: int, start: int, stop: int) -> Iterator[int]:
    """parent(c) for each class c in range(start, stop), 1 <= start, of a
    rank-n prefix quotient numbered as ``build_quotient_local`` numbers it:
    the class of c's word less its last letter, which is 0 for the root's
    2n children, c <= 2n, and (c - 2) // (2n - 1) beyond."""
    root = min(stop, 2 * n + 1)  # the first class past the root's children
    deeper = range(max(start, root) - 2, stop - 2)
    return chain(repeat(0, max(root - start, 0)), map(floordiv, deeper, repeat(2 * n - 1)))


def quotients_equal(a: QuotientGraph, b: QuotientGraph) -> bool:
    """Exact equality: same classes and same labeled group-edge multiset."""
    return (
        a.level == b.level
        and a.graph.labels == b.graph.labels
        and a.edge_pairs == b.edge_pairs
        and a.graph.edges == b.graph.edges
    )
