"""Outerplanarity evidence for the full-generating-set quotients.

When the certifier answers Yes for a word s, every truncation
Cay(F_n; A u s^{+-1}) / level-L must be outerplanar (no K4 or K2,3 minor)
and must contain the circle's truncation as a hamiltonian cycle.  Only the
circle is built, and only at the top level: the quotient of s alone.  Each
shallower level is contracted from the level above it (``contract_level``),
which gives the same classes and the same edge multiset as a rebuild,
because prefix classes nest: a group edge between two classes at one level
joins two classes at every deeper one.  The standard generators' edges are
never walked.  At every level they are the Cayley tree of A, one edge from
each class to its parent, which the shortlex numbering of the classes
gives by arithmetic, so ``with_tree`` reads them off it and adds them to
the circle.  Only the checked levels are attested; nothing is claimed about
the infinite graph beyond them.

The two checks share one walk.  A 2-connected outerplanar graph has exactly
one hamiltonian cycle, its outer face (Sysło, "Characterizations of
outerplanar graphs", Discrete Math. 26, 1979).  So once the s-edges form a
hamiltonian cycle, the truncation is outerplanar iff no two of its edges
cross as chords of that cycle, which one pass over the edges in circle order
decides: ``is_outerplanar`` runs that pass when it is given the circle.
Only a level whose circle is not a hamiltonian cycle (a negative control
such as abab) runs Mitchell's reduction there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certifier import VERDICT_YES, certify
from .multigraph import is_outerplanar, tagged_cycle_positions
from .quotients import (
    build_quotient_local,
    check_quotient_budget,
    contract_level,
    edge_tag,
    with_tree,
)
from .words import ReducedWord


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
    verdict: str
    levels: tuple[LevelReport, ...]

    @property
    def precondition_ok(self) -> bool:
        return self.verdict == VERDICT_YES

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

    The certifier verdict for s is recorded; when it is not Yes the checks
    still run (callers report the violated precondition rather than skip),
    which is how negative controls are exercised.  Only the circle
    quotient at ``max_level`` is built; the levels below are contracted
    from it, then all are checked in increasing order.  Each level first
    walks its circle, whose vertices are all the classes, so a cycle on it
    is hamiltonian.  Only then is the full quotient formed, with the tree
    edges read off the class numbering (``with_tree``), so the walk's
    memory is freed before the tree's is taken.  If the circle is a
    hamiltonian cycle, the level is outerplanar iff its edges nest as
    chords of that cycle (Sysło 1979), and otherwise Mitchell's reduction
    decides.  ``is_outerplanar`` runs either, as it is given the circle or
    None.
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    check_quotient_budget(n, max_level)
    cert = certify(n, s, max_level=1)
    tag = edge_tag(s)
    circles = [build_quotient_local(n, [s], max_level).graph]
    for level in range(max_level - 1, 0, -1):
        circles.append(contract_level(n, circles[-1], level))
    levels = []
    for level in range(1, max_level + 1):
        circle_graph = circles.pop()  # freed once checked
        circle = tagged_cycle_positions(circle_graph, tag)
        full = with_tree(n, circle_graph)
        outer = is_outerplanar(full, circle)
        levels.append(LevelReport(level, full.n_vertices, outer, circle is not None))
    return OuterplanarReport(str(s), n, cert.verdict, tuple(levels))
