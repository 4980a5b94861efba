"""Finite undirected multigraphs: cycles, hamiltonian enumeration, cuts,
outerplanarity, DOT export.

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
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence


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

    def degree(self, v: int) -> int:
        return self.degrees()[v]

    def degrees(self) -> list[int]:
        deg = [0] * len(self.labels)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self, v: int) -> list[int]:
        return [b if a == v else a for a, b, _ in self.edges if a == v or b == v]

    def edges_between(self, u: int, v: int) -> list[int]:
        lo, hi = (u, v) if u < v else (v, u)
        return [i for i, (a, b, _) in enumerate(self.edges) if a == lo and b == hi]

    def vertex(self, label: str) -> int:
        return self.labels.index(label)

    def connected_components(self) -> list[list[int]]:
        n = self.n_vertices
        adj = _neighbour_sets(self)
        seen = [False] * n
        return [sorted(_reach(adj, v, seen)) for v in range(n) if not seen[v]]

    def is_connected(self) -> bool:
        """One traversal from vertex 0 reaches every vertex."""
        n = self.n_vertices
        return n <= 1 or len(_reach(_neighbour_sets(self), 0, [False] * n)) == n

    def is_cycle(self) -> bool:
        """Connected, at least 3 vertices, every degree exactly 2."""
        return cycle_positions(self) is not None

    def is_simple(self) -> bool:
        seen = set()
        for u, v, _ in self.edges:
            key = (u, v)
            if key in seen:
                return False
            seen.add(key)
        return True

    def simple_support(self) -> "Multigraph":
        """Collapse parallel edges, keeping the first tag."""
        seen = {}
        for u, v, tag in self.edges:
            seen.setdefault((u, v), tag)
        return Multigraph(
            self.labels, [(u, v, tag) for (u, v), tag in seen.items()]
        )

    def without_edges(self, drop: Iterable[int]) -> "Multigraph":
        dropset = set(drop)
        return Multigraph._trusted(
            self.labels,
            [e for i, e in enumerate(self.edges) if i not in dropset],
        )

    def induced_subgraph(self, keep: Iterable[int]) -> "Multigraph":
        kept = sorted(set(keep))
        index = {v: i for i, v in enumerate(kept)}
        edges = [
            (index[u], index[v], tag)
            for u, v, tag in self.edges
            if u in index and v in index
        ]
        return Multigraph([self.labels[v] for v in kept], edges)

    def to_dot(self, highlight: Iterable[int] = ()) -> str:
        """DOT text, no graph name, ``highlight`` edges bold: each label and
        tag is escaped once, backslashes and then quotes (a label with
        neither is used as it is), and an edge line takes its attribute
        text from a table by tag."""
        def esc(s: str) -> str:
            if '"' in s or "\\" in s:
                return s.replace("\\", "\\\\").replace('"', '\\"')
            return s

        hi = set(highlight)
        names = [esc(label) for label in self.labels]
        tags = {tag for _, _, tag in self.edges}
        plain = {tag: f' [label="{esc(tag)}"]' if tag else "" for tag in tags}
        bold = {
            tag: f' [label="{esc(tag)}", penwidth=2.5]' if tag else " [penwidth=2.5]"
            for tag in tags
        }
        lines = ["graph {"]
        lines += [f'  "{label}";' for label in names]
        lines += [
            f'  "{names[u]}" -- "{names[v]}"{(bold if i in hi else plain)[tag]};'
            for i, (u, v, tag) in enumerate(self.edges)
        ]
        lines.append("}")
        return "\n".join(lines) + "\n"


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


def _reach(adj: list[set[int]], start: int, seen: list[bool]) -> list[int]:
    """The vertices reachable from ``start`` that ``seen`` has not marked,
    marked as they are reached, ``start`` first."""
    seen[start] = True
    reached, stack = [start], [start]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                reached.append(w)
                stack.append(w)
    return reached


@collector_paused
def cycle_positions(g: Multigraph) -> Optional[list[int]]:
    """Each vertex's position along the edges of g when they form a
    hamiltonian cycle, else None: at least 3 vertices, every vertex on
    exactly two edges, and one walk from vertex 0 covers all of them (the
    edges are disjoint cycles; it goes round 0's, starting at 0's first
    neighbour in edge order).  Each vertex keeps the XOR of its neighbours,
    so the walk leaves v for ``link[v] ^ prev``.  A parallel pair is a
    component of its own, so a walk from 0 that meets it closes too early."""
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
    pos = [0] * n
    prev, v = 0, first
    for i in range(1, n):
        if v == 0:
            return None
        pos[v] = i
        prev, v = v, link[v] ^ prev
    return pos


def parse_adjacency(text: str) -> Multigraph:
    """One edge per line (``u v``), ``#`` comments, single token = lone vertex."""
    order: list[str] = []
    index: dict[str, int] = {}

    def vid(token: str) -> int:
        if token not in index:
            index[token] = len(order)
            order.append(token)
        return index[token]

    edges = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vid(parts[0])
        elif len(parts) == 2:
            edges.append((vid(parts[0]), vid(parts[1])))
        else:
            raise ValueError(f"bad adjacency line: {line!r}")
    return Multigraph(order, edges)


@dataclass(frozen=True)
class EdgeCut:
    """A vertex side together with the edges leaving it."""

    side: frozenset[int]
    cut_edges: tuple[int, ...]

    @classmethod
    def from_side(cls, g: Multigraph, side: Iterable[int]) -> "EdgeCut":
        s = frozenset(side)
        if not s or len(s) >= g.n_vertices:
            raise ValueError("cut side must be nonempty and proper")
        cut = tuple(
            i for i, (u, v, _) in enumerate(g.edges) if (u in s) != (v in s)
        )
        return cls(s, cut)


ENUM_MAX_VERTICES = 20  # the backtracking enumeration is exponential in the order
CUT_SEARCH_MAX_VERTICES = 22  # so is the search over cut sides
MINOR_MAX_VERTICES = 10  # and the minor oracle's contraction search


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


def cycle_contains_edge(cycle: Sequence[int], u: int, v: int) -> bool:
    k = len(cycle)
    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        if (a, b) == (u, v) or (a, b) == (v, u):
            return True
    return False


def cubic_cycles_through_edge(g: Multigraph, edge_index: int) -> int:
    """Number of hamiltonian cycles through one edge of a cubic simple graph."""
    if any(d != 3 for d in g.degrees()):
        raise ValueError("graph is not cubic")
    u, v, _ = g.edges[edge_index]
    return sum(
        1
        for cyc in enumerate_hamiltonian_cycles(g)
        if cycle_contains_edge(cyc, u, v)
    )


def find_cut_separating_pair(
    g: Multigraph, factor_edges: Iterable[int], e1: int, e2: int
) -> Optional[EdgeCut]:
    """A smallest edge cut meeting a designated 2-factor in exactly {e1, e2}.

    Exhaustive search over vertex sides.  Both named edges must cross the
    cut, so their endpoints are pinned to opposite sides (which also kills
    the side/complement symmetry) and only the remaining vertices are
    enumerated.  Returns None if no such cut exists.  Refuses a graph of
    more than ``CUT_SEARCH_MAX_VERTICES`` vertices.
    """
    n = g.n_vertices
    if n > CUT_SEARCH_MAX_VERTICES:
        raise ValueError(f"graph too large for cut search: {n} > {CUT_SEARCH_MAX_VERTICES}")
    factor = sorted(set(factor_edges))
    if e1 not in factor or e2 not in factor or e1 == e2:
        raise ValueError("e1, e2 must be distinct edges of the 2-factor")
    other_factor = [i for i in factor if i not in (e1, e2)]
    ends = [(u, v) for u, v, _ in g.edges]
    (u1, v1), (u2, v2) = ends[e1], ends[e2]

    best: Optional[tuple[int, tuple[int, ...]]] = None
    for flip in (False, True):
        pin = {u1: True, v1: False}
        a2, b2 = (u2, v2) if not flip else (v2, u2)
        if pin.get(a2) is False or pin.get(b2) is True:
            continue
        pin[a2], pin[b2] = True, False
        free = [v for v in range(n) if v not in pin]
        for bits in range(2 ** len(free)):
            side = dict(pin)
            for i, v in enumerate(free):
                side[v] = bool(bits >> i & 1)
            ok = True
            for i in other_factor:
                u, v = ends[i]
                if side[u] != side[v]:
                    ok = False
                    break
            if not ok:
                continue
            cut_size = sum(1 for u, v in ends if side[u] != side[v])
            key = tuple(sorted(v for v in range(n) if side[v]))
            if best is None or (cut_size, key) < best:
                best = (cut_size, key)
    if best is None:
        return None
    return EdgeCut.from_side(g, best[1])


def is_outerplanar(
    g: Multigraph,
    circle: Optional[Sequence[int]] = None,
    chords: Optional[Iterable[tuple[int, int]]] = None,
) -> bool:
    """No K4 and no K2,3 minor.  Mitchell's reduction (IPL 9, 1979) on each block
    peels degree-2 vertices down to a triangle, joining their two neighbours, then
    puts each back between them on the rebuilt cycle.  A Yes is a certificate: that
    cycle is hamiltonian on block edges and no two block edges cross it.

    ``circle`` and ``chords`` are given together or not at all.  ``circle`` is each
    vertex's position on the hamiltonian cycle that g's own edges form, as
    ``cycle_positions(g)`` finds it, ``chords`` are further edges, pairs of
    vertices, and the graph decided is g with the chords added; no reduction runs.
    A 2-connected outerplanar graph has exactly one hamiltonian cycle, its outer
    face (Sysło, Discrete Math. 26, 1979), so that graph is outerplanar iff no two
    of its edges cross as chords of the cycle.  g's own edges join neighbours on
    the cycle or close it, and never cross, so only the chords are checked."""
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


# --- independent minor-search oracle (small graphs only) ------------------

def _contract(edges: frozenset, x, y) -> frozenset:
    z = x | y
    out = set()
    for e in edges:
        a, b = tuple(e)
        if a in (x, y):
            a = z
        if b in (x, y):
            b = z
        if a != b:
            out.add(frozenset((a, b)))
    return frozenset(out)


def _adjacency(edges: frozenset) -> dict:
    adj: dict = {}
    for e in edges:
        a, b = tuple(e)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _has_k4_subgraph(edges: frozenset) -> bool:
    adj = _adjacency(edges)
    verts = list(adj)
    for quad in itertools.combinations(verts, 4):
        if all(b in adj[a] for a, b in itertools.combinations(quad, 2)):
            return True
    return False


def _has_k23_subgraph(edges: frozenset) -> bool:
    adj = _adjacency(edges)
    verts = list(adj)
    for a, b in itertools.combinations(verts, 2):
        if len(adj[a] & adj[b] - {a, b}) >= 3:
            return True
    return False


def has_minor(g: Multigraph, target: str) -> bool:
    """Exact minor test for K4 or K2,3 by contraction enumeration.

    A graph has an H minor iff H is a subgraph of some contraction, so the
    search contracts edges in all ways (memoized on the resulting graph)
    and tests for an H subgraph at each step.  Refuses a graph of more
    than ``MINOR_MAX_VERTICES`` vertices.
    """
    if g.n_vertices > MINOR_MAX_VERTICES:
        raise ValueError(
            f"minor oracle capped at {MINOR_MAX_VERTICES} vertices, got {g.n_vertices}"
        )
    check = {"K4": _has_k4_subgraph, "K23": _has_k23_subgraph}[target]
    start = frozenset(
        frozenset((frozenset((u,)), frozenset((v,)))) for u, v, _ in g.edges
    )
    seen = set()
    stack = [start]
    while stack:
        edges = stack.pop()
        if edges in seen:
            continue
        seen.add(edges)
        if check(edges):
            return True
        for e in edges:
            x, y = tuple(e)
            nxt = _contract(edges, x, y)
            if nxt not in seen:
                stack.append(nxt)
    return False


def outerplanar_by_minor_search(g: Multigraph) -> bool:
    simple = g.simple_support()
    return not (has_minor(simple, "K4") or has_minor(simple, "K23"))


# --- small standard graphs -------------------------------------------------

def cycle_graph(k: int) -> Multigraph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Multigraph([str(i) for i in range(k)], [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Multigraph:
    return Multigraph(
        [str(i) for i in range(k)], list(itertools.combinations(range(k), 2))
    )


def complete_bipartite(a: int, b: int) -> Multigraph:
    labels = [f"u{i}" for i in range(a)] + [f"w{j}" for j in range(b)]
    return Multigraph(labels, [(i, a + j) for i in range(a) for j in range(b)])


def generalized_petersen(k: int, j: int) -> Multigraph:
    labels = [f"u{i}" for i in range(k)] + [f"v{i}" for i in range(k)]
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((i, k + i))
        edges.append((k + i, k + (i + j) % k))
    return Multigraph(labels, edges)


def circulant_graph(n: int, offsets: Iterable[int]) -> Multigraph:
    edges = set()
    for s in offsets:
        s %= n
        if s == 0:
            raise ValueError("offset 0 would create loops")
        for i in range(n):
            u, v = i, (i + s) % n
            edges.add((min(u, v), max(u, v)))
    return Multigraph([str(i) for i in range(n)], sorted(edges))
