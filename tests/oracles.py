"""Test oracles and fixtures, reached by no command and no benchmark.

The slow, independent sides of the differential tests (the minor search
for outerplanarity, the exhaustive cut search, hamiltonian-cycle counts
through an edge, the split and disconnecting-pair checks of the paper's
finite facts, the uniqueness count of a finite Cayley graph, the
composition of a witness chain, the free-product truncation of a word and
the depth-by-depth check of the cycle-tree circle), the small standard
graphs and the adjacency-list corpus under ``data/corpus`` that they run
on, and graph and word helpers (components, subgraphs, edge lookups,
cyclic reduction) that only tests call.  Each builds on hamcirc's public
names alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from hamcirc.automorphisms import FGAutomorphism
from hamcirc.certifier import level_one_quotient
from hamcirc.finite import FiniteCayleySpec, build_finite_cayley
from hamcirc.freeproduct import (
    CLASS_BUDGET,
    FPWord,
    Syllables,
    TruncationReport,
    build_truncation,
    count_truncation_classes,
    gen_a,
    gen_ab,
)
from hamcirc.multigraph import Multigraph, check_enumeration_size, enumerate_hamiltonian_cycles
from hamcirc.quotients import generator_subgraph
from hamcirc.words import ReducedWord, check_budget, cyclic_reduce_letters, letter_str

CORPUS = Path(__file__).resolve().parent / "data" / "corpus"

CUT_SEARCH_MAX_VERTICES = 22  # the search over cut sides is exponential in the order
MINOR_MAX_VERTICES = 10  # and so is the minor oracle's contraction search


# --- graph helpers ---------------------------------------------------------

def neighbors(g: Multigraph, v: int) -> list[int]:
    return [b if a == v else a for a, b, _ in g.edges if a == v or b == v]


def edges_between(g: Multigraph, u: int, v: int) -> list[int]:
    lo, hi = (u, v) if u < v else (v, u)
    return [i for i, (a, b, _) in enumerate(g.edges) if a == lo and b == hi]


def connected_components(g: Multigraph) -> list[list[int]]:
    """Each component's sorted vertices, by first vertex."""
    adj: list[set[int]] = [set() for _ in g.labels]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = [False] * len(adj)
    out = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def simple_support(g: Multigraph) -> Multigraph:
    """Collapse parallel edges, keeping the first tag."""
    seen: dict = {}
    for u, v, tag in g.edges:
        seen.setdefault((u, v), tag)
    return Multigraph(g.labels, [(u, v, tag) for (u, v), tag in seen.items()])


def without_edges(g: Multigraph, drop: Iterable[int]) -> Multigraph:
    dropset = set(drop)
    return Multigraph(g.labels, [e for i, e in enumerate(g.edges) if i not in dropset])


def induced_subgraph(g: Multigraph, keep: Iterable[int]) -> Multigraph:
    kept = sorted(set(keep))
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v], tag) for u, v, tag in g.edges if u in index and v in index]
    return Multigraph([g.labels[v] for v in kept], edges)


# --- small standard graphs and the adjacency corpus ------------------------

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


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.txt"))


def load_corpus_graph(name: str) -> Multigraph:
    return parse_adjacency((CORPUS / f"{name}.txt").read_text(encoding="utf-8"))


def corpus_graphs(names: Iterable[str] | None = None) -> dict[str, Multigraph]:
    return {name: load_corpus_graph(name) for name in (names or corpus_names())}


# --- hamiltonian cycles ----------------------------------------------------

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


def second_cycle_cyclic(n: int, s: int) -> tuple[int, ...]:
    """The alternate hamiltonian cycle of Cay(Z_n; +-1, +-s) traced by the
    generator run (s, -1^(s-1), s, 1^(n-s-1)), as a vertex sequence."""
    if not 2 <= s <= n - 2:
        raise ValueError(f"step must satisfy 2 <= s <= n-2, got {s}")
    steps = [s] + [-1] * (s - 1) + [s] + [1] * (n - s - 1)
    walk = [0]
    for step in steps:
        walk.append((walk[-1] + step) % n)
    if walk[-1] != 0:
        raise AssertionError("generator run does not close up")
    cycle = tuple(walk[:-1])
    if len(set(cycle)) != n:
        raise AssertionError("generator run revisits a vertex")
    return cycle


def verify_unique_finite(spec: FiniteCayleySpec) -> tuple[int, bool]:
    """(number of hamiltonian cycles, whether it is exactly one), as the
    ``finite`` command counts them.  A group order past the enumeration cap
    is refused before the graph is built."""
    check_enumeration_size(spec.size)
    count = len(enumerate_hamiltonian_cycles(build_finite_cayley(spec)))
    return count, count == 1


# --- exhaustive cut search -------------------------------------------------

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


# --- minor search (small graphs only) --------------------------------------

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
    simple = simple_support(g)
    return not (has_minor(simple, "K4") or has_minor(simple, "K23"))


# --- the paper's finite checks ---------------------------------------------

def split_check(s: ReducedWord, k: int) -> bool:
    """For s = u v with u over generators 1..k and v over the rest, test
    whether both restricted level-1 graphs (induced on each factor's own
    letters plus the identity) are cycles."""
    n = s.rank
    if not 1 <= k < n:
        raise ValueError(f"split index must be in 1..{n - 1}")
    letters = s.letters
    cut = 0
    while cut < len(letters) and abs(letters[cut]) <= k:
        cut += 1
    u, v = letters[:cut], letters[cut:]
    if not u or not v:
        raise ValueError("degenerate split: both factors must be nonempty")
    if any(abs(x) <= k for x in v):
        raise ValueError("word is not of split form u(1..k) v(k+1..n)")

    def restricted_is_cycle(part: tuple[int, ...]) -> bool:
        w = ReducedWord(part, n)
        g = level_one_quotient(w)
        keep = [0] + sorted(
            {g.labels.index(letter_str(x)) for i in w.support() for x in (i, -i)}
        )
        return induced_subgraph(g, keep).is_cycle()

    return restricted_is_cycle(u) and restricted_is_cycle(v)


def disconnecting_pair_disconnects(m: int, n: int, depth: int) -> bool:
    """Removing the two distinguished circle edges b <- a^-1 and
    b a^-1 -> b^2 from the full truncation must disconnect it.  Each is
    looked for among the edges between the classes of its two ends, and
    only those edges' group pairs are derived."""
    if depth < 2:
        raise ValueError("the distinguished edges need depth at least 2")
    full = build_truncation(m, n, [gen_a(m, n), gen_ab(m, n)], depth)
    graph = full.graph
    ab = gen_ab(m, n)
    a_inv = gen_a(m, n).inverse()
    b = FPWord((("b", 1),), m, n)
    assert a_inv * ab == b

    def edge_of(u: FPWord) -> int:
        """The edge of the group pair {u, u ab}."""
        ends = sorted((u, u * ab))
        want = tuple(w.syllables for w in ends)
        reps = (FPWord(truncate_after_b(w.syllables, depth), m, n) for w in ends)
        cu, cv = (graph.labels.index(rep.display()) for rep in reps)
        return next(i for i in edges_between(graph, cu, cv) if full.pair_of(i) == want)

    drop = [edge_of(u) for u in (a_inv, b * a_inv)]
    return not without_edges(graph, drop).is_connected()


def compose(outer: FGAutomorphism, inner: FGAutomorphism) -> FGAutomorphism:
    """outer after inner: compose(f, g).apply(w) == f.apply(g.apply(w))."""
    images = tuple(outer.apply(im) for im in inner.images)
    return FGAutomorphism(outer.rank, images, inner.moves + outer.moves)


def compose_chain(chain: Sequence[FGAutomorphism], rank: int) -> FGAutomorphism:
    """The one automorphism that applies ``chain`` in order, first step first."""
    phi = FGAutomorphism.identity(rank)
    for step in chain:
        phi = compose(step, phi)
    return phi


# --- words -----------------------------------------------------------------

def is_cyclically_reduced(word: ReducedWord) -> bool:
    """The first letter does not cancel the last: the word stays reduced
    when read round."""
    return len(word.letters) < 2 or word.letters[0] != -word.letters[-1]


def cyclic_reduction(word: ReducedWord) -> ReducedWord:
    """The cyclically reduced core of ``word``, a conjugate of it."""
    return ReducedWord(cyclic_reduce_letters(word.letters)[0], word.rank)


# --- free-product truncations ----------------------------------------------

def truncate_after_b(sylls: Syllables, r: int) -> Syllables:
    """The prefix through the r-th b-syllable (the whole word if fewer):
    the representative of a word's class in the depth-r truncation."""
    seen = 0
    for i, (letter, _) in enumerate(sylls):
        if letter == "b":
            seen += 1
            if seen == r:
                return sylls[: i + 1]
    return sylls


def verify_circle_truncations_by_depth(m: int, n: int, r_max: int) -> TruncationReport:
    """The oracle for ``verify_circle_truncations``: every depth built and
    checked, deepest first.  A depth below a connected one is a contraction
    of it, so it takes that connectivity and builds its circle on ab alone."""
    check_budget(count_truncation_classes(m, n, r_max), CLASS_BUDGET)
    ab = gen_ab(m, n)
    rows, connected, deepest = [], False, None
    for r in range(r_max, 0, -1):
        if connected:
            circle = build_truncation(m, n, [ab], r).graph
        else:
            full = build_truncation(m, n, [gen_a(m, n), ab], r).graph
            circle, connected = generator_subgraph(full, ab), full.is_connected()
        deepest = deepest or circle
        rows.append((circle.n_vertices, circle.is_cycle(), connected, all(circle.degrees())))
    counts, cyc, conn, span = zip(*reversed(rows))
    return TruncationReport(m, n, tuple(range(1, r_max + 1)), counts, cyc, conn, span, deepest)
