"""Outerplanarity evidence for the full-generating-set quotients.

When the certifier answers Yes for a word s, every truncation
Cay(F_n; A u s^{+-1}) / level-L must be outerplanar (no K4 or K2,3 minor)
and must contain the circle's truncation as a hamiltonian cycle.  The
circle is the s-edge subgraph of that one full truncation.  Only the top
level is built; each shallower one is contracted from the level above it
(``contract_level``), which gives the same classes and the same edge
multiset as a rebuild, because prefix classes nest: a group edge between
two classes at one level joins two classes at every deeper one.  Only the
checked levels are attested; nothing is claimed about the infinite graph
beyond them.

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
from .quotients import build_quotient_local, check_quotient_budget, contract_level, edge_tag
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
    which is how negative controls are exercised.  Only ``max_level`` is
    built; the levels below are contracted from it, then all are checked in
    increasing order.  The circle spans the
    vertices of the full quotient, so a cycle on it is hamiltonian.  Each
    level walks the s-edges once; if they form a hamiltonian cycle, the
    level is outerplanar iff its edges nest as chords of that cycle (Sysło
    1979), and otherwise Mitchell's reduction decides.  ``is_outerplanar``
    runs either, as it is given the circle or None.
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    check_quotient_budget(n, max_level)
    cert = certify(n, s, max_level=1)
    tag = edge_tag(s)
    fulls = [build_quotient_local(n, tree_generators(n) + [s], max_level).graph]
    for level in range(max_level - 1, 0, -1):
        fulls.append(contract_level(n, fulls[-1], level))
    levels = []
    for level in range(1, max_level + 1):
        full = fulls.pop()  # freed once checked
        circle = tagged_cycle_positions(full, tag)
        outer = is_outerplanar(full, circle)
        levels.append(LevelReport(level, full.n_vertices, outer, circle is not None))
    return OuterplanarReport(str(s), n, cert.verdict, tuple(levels))
