"""Finite undirected multigraphs: cycles, connectivity, hamiltonian
enumeration, outerplanarity, DOT export.

Parallel edges are allowed, loops are rejected at construction (the quotient
constructions delete them before building a graph).  Vertices are integers
0..n-1 carrying opaque string labels; an edge is identified by its index in
the edge list, which is what distinguishes parallels.

A graph is its labels and its edges, plain (u, v, tag) tuples with u < v
kept as its builder made them, and holds no cached state: the cycle test,
the readers and DOT export walk the edge list, and one helper,
``_neighbour_sets``, builds the only adjacency, on the call that needs it.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, Iterable, Optional, Sequence

DOT_CHUNK = 4096  # lines ``to_dot`` joins at a time


class Multigraph:
    __slots__ = ("labels", "edges")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple]):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        es = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                tag = None
            else:
                u, v, tag = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: {e}")
            if u == v:
                raise ValueError(f"loops are not allowed: {e}")
            if u > v:
                u, v = v, u
            es.append((u, v, tag))
        self.edges = tuple(es)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], edges: Iterable[tuple]) -> "Multigraph":
        """A graph on labels and edges that are already checked: string
        labels, and (u, v, tag) tuples with 0 <= u < v < len(labels), which
        are kept as they are, not copied."""
        graph = cls.__new__(cls)
        graph.labels = labels
        graph.edges = tuple(edges)
        return graph

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * len(self.labels)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self) -> bool:
        """One traversal from vertex 0 reaches every vertex."""
        n = self.n_vertices
        if n <= 1:
            return True
        adj, seen = _neighbour_sets(self), [False] * n
        seen[0], stack, reached = True, [0], 1
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    stack.append(w)
        return reached == n

    def is_cycle(self) -> bool:
        """Connected, at least 3 vertices, every degree exactly 2: the walk
        of ``cycle_positions``, which records no position."""
        links = _xor_links(self)
        if links is None:
            return False
        link, v = links
        prev = 0
        for _ in range(1, len(link)):
            if v == 0:
                return False
            prev, v = v, link[v] ^ prev
        return True

    def is_simple(self) -> bool:
        seen = set()
        for u, v, _ in self.edges:
            key = (u, v)
            if key in seen:
                return False
            seen.add(key)
        return True

    def to_dot(self, highlight: Iterable[int] = ()) -> str:
        """DOT text, no graph name, ``highlight`` edges bold: each label and
        tag is escaped once, backslashes and then quotes (a label with
        neither is used as it is, and so are all the labels when none has
        either), and an edge line takes its attribute text from a table by
        tag.  The text grows by DOT_CHUNK lines at a time, each chunk of
        label lines one join, so no list of every line and no second copy
        of the whole text is ever held."""
        def esc(s: str) -> str:
            if '"' in s or "\\" in s:
                return s.replace("\\", "\\\\").replace('"', '\\"')
            return s

        hi = set(highlight)
        names = self.labels
        joined = "".join(names)
        if '"' in joined or "\\" in joined:
            names = [esc(label) for label in names]
        edges = self.edges
        tags = {tag for _, _, tag in edges}
        plain = {tag: f' [label="{esc(tag)}"]' if tag else "" for tag in tags}
        bold = {
            tag: f' [label="{esc(tag)}", penwidth=2.5]' if tag else " [penwidth=2.5]"
            for tag in tags
        }
        text = "graph {\n"
        for lo in range(0, len(names), DOT_CHUNK):
            text += '  "' + '";\n  "'.join(names[lo : lo + DOT_CHUNK]) + '";\n'
        for lo in range(0, len(edges), DOT_CHUNK):
            text += "".join([
                f'  "{names[u]}" -- "{names[v]}"{(bold if i in hi else plain)[tag]};\n'
                for i, (u, v, tag) in enumerate(edges[lo : lo + DOT_CHUNK], lo)
            ])
        text += "}\n"
        return text


def collector_paused(build: Callable) -> Callable:
    """Run ``build`` with the cyclic garbage collector held off.

    A build (a quotient, a truncation, the neighbour sets of
    ``_neighbour_sets``, the per-vertex ends a cycle walk follows) allocates
    up to hundreds of thousands of tuples, lists, sets and dicts and makes
    no reference cycles, so reference counting frees all of it, and the
    collector's passes over it (hundreds per quotient build, 11-16% of its
    time) find nothing.  Their cost is memory-bound and swings with the
    host's caches more than the rest of the build does.  The collector's
    state is restored on return.
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


@collector_paused
def _neighbour_sets(g: Multigraph) -> list[set[int]]:
    """Each vertex's set of neighbours, from one pass over the edges: the
    one adjacency a graph builds, afresh on each call that needs it (the
    connectivity checks, Mitchell's reduction, hamiltonian enumeration)."""
    adj: list[set[int]] = [set() for _ in g.labels]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@collector_paused
def _xor_links(g: Multigraph) -> Optional[tuple[list[int], int]]:
    """Each vertex's XOR of its neighbours, and 0's first neighbour in edge
    order, from one pass over the edges; None unless g has at least 3
    vertices, each on exactly two edges.  A walk that leaves v, reached
    from prev, for ``link[v] ^ prev`` goes round v's cycle."""
    n = len(g.labels)
    link, deg = [0] * n, [0] * n
    first = 0
    for u, v, _ in g.edges:
        link[u] ^= v
        link[v] ^= u
        deg[u] += 1
        deg[v] += 1
        if u == 0 and not first:  # u < v, so 0 is never v
            first = v
    if n < 3 or deg.count(2) != n:
        return None
    return link, first


def cycle_positions(g: Multigraph) -> Optional[list[int]]:
    """Each vertex's position along the edges of g when they form a
    hamiltonian cycle, else None: at least 3 vertices, every vertex on
    exactly two edges, and one walk from vertex 0 covers all of them (the
    edges are disjoint cycles; it goes round 0's, starting at 0's first
    neighbour in edge order), by the XOR links of ``_xor_links``.  A
    parallel pair is a component of its own, so a walk from 0 that meets
    it closes too early.  ``Multigraph.is_cycle`` is the same walk without
    the positions."""
    links = _xor_links(g)
    if links is None:
        return None
    link, v = links
    pos = [0] * len(link)
    prev = 0
    for i in range(1, len(link)):
        if v == 0:
            return None
        pos[v] = i
        prev, v = v, link[v] ^ prev
    return pos


ENUM_MAX_VERTICES = 20  # the backtracking enumeration is exponential in the order


def check_enumeration_size(n: int) -> None:
    """Refuse hamiltonian enumeration on more than ``ENUM_MAX_VERTICES`` vertices."""
    if n > ENUM_MAX_VERTICES:
        raise ValueError(f"graph too large for enumeration: {n} > {ENUM_MAX_VERTICES}")


def enumerate_hamiltonian_cycles(g: Multigraph) -> list[tuple[int, ...]]:
    """Every hamiltonian cycle exactly once, canonicalized.

    Canonical form: starts at vertex 0, and of the two directions the one
    whose second vertex is smaller than its last.  Backtracking search;
    requires a simple graph with at most ``ENUM_MAX_VERTICES`` vertices.
    """
    n = g.n_vertices
    check_enumeration_size(n)
    if not g.is_simple():
        raise ValueError("hamiltonian enumeration requires a simple graph")
    if n < 3:
        return []
    adj = [sorted(x) for x in _neighbour_sets(g)]
    adj0 = set(adj[0])
    cycles = []
    path = [0]
    used = [False] * n
    used[0] = True

    def rec(v: int) -> None:
        if len(path) == n:
            if v in adj0 and path[1] < path[-1]:
                cycles.append(tuple(path))
            return
        for w in adj[v]:
            if not used[w]:
                used[w] = True
                path.append(w)
                rec(w)
                path.pop()
                used[w] = False

    rec(0)
    return sorted(cycles)


def is_outerplanar(
    g: Multigraph,
    circle: Optional[Sequence[int]] = None,
    chords: Optional[Iterable[tuple[int, int]]] = None,
) -> bool:
    """No K4 and no K2,3 minor.  Mitchell's reduction (IPL 9, 1979) on each block
    peels degree-2 vertices down to a triangle, joining their two neighbours, then
    puts each back between them on the rebuilt cycle.  A Yes is a certificate: that
    cycle is hamiltonian on block edges and no two block edges cross it.

    ``circle`` and ``chords`` are given together or not at all, else ValueError.
    ``circle`` is each vertex's position on the hamiltonian cycle that g's own edges
    form, as ``cycle_positions(g)`` finds it, ``chords`` are further edges, pairs of
    vertices, and the graph decided is g with the chords added; no reduction runs.
    A 2-connected outerplanar graph has exactly one hamiltonian cycle, its outer
    face (Sysło, Discrete Math. 26, 1979), so that graph is outerplanar iff no two
    of its edges cross as chords of the cycle.  g's own edges join neighbours on
    the cycle or close it, and never cross, so only the chords are checked."""
    if (circle is None) != (chords is None):
        raise ValueError("circle and chords are given together or not at all")
    if circle is not None:
        return spans_nest(chords, circle)
    adj = _neighbour_sets(g)
    for block in _blocks(adj):
        work = {v: adj[v] & block for v in block}
        todo, peeled = list(block), []
        while len(work) > 3 and todo:
            v = todo.pop()
            if len(work.get(v, ())) == 2:
                u, w = work.pop(v)
                work[u] = work[u] - {v} | {w}
                work[w] = work[w] - {v} | {u}
                peeled.append((v, u, w))
                todo += [u, w]
        if len(work) > 3:  # an outerplanar block always has a degree-2 vertex
            return False
        a, b, c = work
        nxt = {a: b, b: c, c: a}
        for v, u, w in reversed(peeled):
            if nxt[w] == u:
                u, w = w, u
            if nxt[u] != w:  # on an outerplanar block, u and w are consecutive
                return False
            nxt[u], nxt[v] = v, w
        pos, v = {}, a
        while v not in pos and nxt[v] in adj[v]:
            pos[v], v = len(pos), nxt[v]
        if len(pos) < len(block) or not spans_nest(
            ((x, y) for x in block for y in adj[x] & block if x < y), pos
        ):
            return False
    return True


def spans_nest(chords: Iterable[tuple[int, int]], pos: Sequence[int] | dict[int, int]) -> bool:
    """No two chords cross on a cycle that puts vertex v at position pos[v],
    a permutation of 0..size-1: with lo, hi the smaller and the larger of a
    chord's two positions, none has lo < lo' < hi < hi'.  Chords that share
    an end, or are equal, nest, and so does a chord between neighbours,
    hi = lo + 1, which is left out.  Each chord is sorted as one integer,
    lo * size + (size - hi): by left end, and outer chords first among those
    with the same one."""
    size = len(pos)
    keys = []
    for u, v in chords:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        if b - a > 1:
            keys.append(a * size + size - b)
    keys.sort()
    ends: list[int] = []  # right ends of the open chords, innermost last
    for key in keys:
        lo, hi = divmod(key, size)
        hi = size - hi
        while ends and ends[-1] <= lo:
            ends.pop()
        if ends and ends[-1] < hi:
            return False
        ends.append(hi)
    return True


def _blocks(adj: list[set[int]]) -> list[set[int]]:
    """Vertex sets of the biconnected blocks with at least 3 vertices."""
    disc, tree, stack = {}, [], [(r, r) for r in range(len(adj))]
    while stack:  # marking on pop visits depth-first; a root is its own parent
        v, p = stack.pop()
        if v not in disc:
            disc[v] = len(disc)
            tree.append((p, v))
            stack += [(w, v) for w in adj[v] if w not in disc]
    low = {v: min([d] + [disc[w] for w in adj[v]]) for v, d in disc.items()}
    for p, v in reversed(tree):  # tree edges in low leave the cut test below exact
        low[p] = min(low[p], low[v])
    head, blocks = {}, {}
    for p, v in tree:  # v opens a block unless its subtree reaches above p
        head[v] = v if low[v] >= disc[p] else head[p]
        blocks.setdefault(head[v], {p}).add(v)
    return [b for b in blocks.values() if len(b) > 2]

