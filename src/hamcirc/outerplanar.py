"""Outerplanarity evidence for the full-generating-set quotients.

When the certifier answers Yes for a word s, every truncation
Cay(F_n; A u s^{+-1}) / level-L must be outerplanar (no K4 or K2,3 minor)
and must contain the circle's truncation as a hamiltonian cycle.  The
levels are checked from the top down, and the first level that passes
settles every shallower one, which is a minor of it (the proof is in
``verify_outerplanar_quotient``).  Each checked level is built by the one
kernel, ``build_quotient_local``: first its circle, the quotient of s
alone.  The standard generators' edges are not walked there.  At every
level they are the Cayley tree of A, one edge from each class to its
parent, which the shortlex numbering of the classes gives by arithmetic
(``tree_parents``).  Only the checked levels and those below them are
attested; nothing is claimed about the infinite graph beyond them.  The
checks run on any word; the ``outerplanar`` command certifies s first.

One walk decides both checks.  A 2-connected outerplanar graph has exactly
one hamiltonian cycle, its outer face (Sysło, "Characterizations of
outerplanar graphs", Discrete Math. 26, 1979).  So once the s-edges form a
hamiltonian cycle, the truncation is outerplanar iff no two of its edges
cross as chords of that cycle.  The s-edges are the cycle itself, and the
other edges are the tree edges, one per class, so the chords are read off
the walk's positions and the class numbering, and one sort of integer keys
decides whether they nest (``is_outerplanar`` given the circle and the
tree edges as its chords).  The full graph is not formed.  Only a level
whose circle is not a hamiltonian cycle (a negative control such as abab)
is built whole, on the standard generators and s, and runs Mitchell's
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import cycle_positions, is_outerplanar
from .quotients import build_quotient_local, tree_parents
from .words import ReducedWord, count_reduced_words


@dataclass(frozen=True)
class LevelReport:
    level: int
    vertices: int
    outerplanar: bool
    circle_is_ham_cycle: bool

    @property
    def passed(self) -> bool:
        return self.outerplanar and self.circle_is_ham_cycle


@dataclass(frozen=True)
class OuterplanarReport:
    word: str
    rank: int
    levels: tuple[LevelReport, ...]

    @property
    def passed(self) -> bool:
        return all(lv.passed for lv in self.levels)

    def to_json_dict(self) -> dict:
        return {
            "word": self.word,
            "levels": [
                {
                    "l": lv.level,
                    "vertices": lv.vertices,
                    "outerplanar": lv.outerplanar,
                    "circle_is_ham_cycle": lv.circle_is_ham_cycle,
                }
                for lv in self.levels
            ],
        }


def tree_generators(n: int) -> list[ReducedWord]:
    return [ReducedWord((i,), n) for i in range(1, n + 1)]


def verify_outerplanar_quotient(n: int, s: ReducedWord, max_level: int) -> OuterplanarReport:
    """Check outerplanarity and the circle-cycle property per level.

    The checks run whatever the certifier says of s, which is how
    negative controls are exercised; whether s is a Yes, the precondition
    of the property, is the caller's to ask ``certify``.  Levels are
    checked from the top down, each building its circle, the quotient of
    s alone, whose vertices are all the classes, so a cycle on it is
    hamiltonian.  Once a level passes, every shallower level l is reported
    passing with its count_reduced_words(n, l) classes, unbuilt.  The
    reports are returned in increasing level order.

    A level's edges other than its s-edges are exactly its tree edges, one
    {parent(c), c} per class c >= 1, tagged by c's last letter: at level L
    a group edge {w, wx}, x in A^+-1, joins the classes of w and wx.  If
    |w| >= L and |wx| >= L, one of the two words extends the other, so both
    share their first L letters and the edge is a loop.  Otherwise the
    shorter of the two, of length < L, is its own class and the parent of
    the other, whose class is the word itself (its length is at most L):
    the edge is the pair (parent(c), c) for the class c of the longer
    word.  Each class c >= 1 is the longer end of exactly one group edge,
    {parent(c), c}.

    When the walk succeeds, the level is outerplanar iff its tree edges
    nest as chords of the circle, so ``is_outerplanar(g, pos, tree)`` on the
    level's circle g, its positions pos and the pairs (parent(c), c) for
    c >= 1 (``tree_parents``) decides the whole level:

    * the walk succeeded, so g's edges, the s-edges, are the circle: each
      joins two consecutive positions or is the pair (0, N-1) that closes
      it, and such a chord crosses no chord;
    * the level's other edges are its tree edges, as above;
    * so the whole quotient's edges nest iff its tree edges do, and by
      Sysło's theorem it is then outerplanar iff they nest.

    When the walk fails, the circle is dropped, the whole level is built on
    the standard generators and s, and Mitchell's reduction decides
    (``is_outerplanar`` given no circle).

    A passing level L settles every level l < L:

    1. Level l with its tree edges is a minor of level L with its tree
       edges.  A level-l class of length l, the words that extend its
       word w, is at level L the cone of w: the subtree of tree edges
       below w, so it is connected.  A shorter class is one class at
       both levels.  Prefix classes nest, so contracting every cone and
       dropping loops gives level l, and outerplanarity is closed under
       minors (no K4 or K2,3 minor), so level l is outerplanar.
    2. Every cone is a contiguous arc of the level-L circle.  Otherwise
       the cone and the rest of the tree, which the tree edges also
       connect, hold interleaved positions x < u < y < v, and a tree
       path from x to y inside the cone and one from u to v outside it
       would meet in the disc bounded by the circle; as they share no
       vertex, two of their chords would cross.  So contracting the arcs
       leaves one s-edge between each two neighbouring arcs and turns
       the rest into loops: level l's circle is a cycle through its
       count_reduced_words(n, l) >= 3 classes, a hamiltonian cycle.
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    levels = []
    for level in range(max_level, 0, -1):
        circle_graph = build_quotient_local(n, [s], level).graph
        size = len(circle_graph.labels)
        pos = cycle_positions(circle_graph)  # its edges are all s-edges
        if pos is not None:
            tree = zip(tree_parents(n, 1, size), range(1, size))
            outer = is_outerplanar(circle_graph, pos, tree)
        else:
            del circle_graph  # free before the whole level is built
            outer = is_outerplanar(build_quotient_local(n, tree_generators(n) + [s], level).graph)
        levels.append(LevelReport(level, size, outer, pos is not None))
        if levels[-1].passed:
            shallower = range(level - 1, 0, -1)
            levels += (LevelReport(l, count_reduced_words(n, l), True, True) for l in shallower)
            break
    return OuterplanarReport(str(s), n, tuple(reversed(levels)))
