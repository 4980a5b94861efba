"""Deciding whether Cay(F_n; s^{+-1}) is a hamiltonian circle in
Cay(F_n; A^{+-1} v s^{+-1}), with uniqueness flagging and the canonical-form
classifier.

The level-1 quotient of the one-generator Cayley graph is a finite graph on
the letters and the identity; if it is a cycle, the circle exists (and the
deeper quotients are cycles as well, which the certifier re-verifies up to a
requested level as defense in depth).  The hamiltonicity property is
invariant under automorphisms of F_n, so the decision may be transported
along a witness chain to any orbit element.

Only the 2-factor spanned by s itself is ever considered: a unique
hamiltonian circle in a Cayley graph is invariant under left translation,
which forces it to be the Cayley graph of a single symmetric pair from the
generating set.

``certify`` decides from one word, ``base`` = ``whitehead_minimize(s)``,
which no elementary automorphism shortens.  The Whitehead graph of a
cyclically reduced word w has the 2n letters as vertices and one edge
x^-1 -- y for each cyclically consecutive pair x y of w; it is the level-1
quotient of w with the identity vertex contracted.  It has no loops, and
letters x and x^-1 both have degree count_|x|(w).

Lemma (Whitehead's cut-vertex lemma: Whitehead 1936; Stallings, "Whitehead
graphs on handlebodies", 1999; Heusener-Weidmann, "A remark on Whitehead's
cut-vertex lemma", 2019).  If a cyclically reduced w uses every generator
and its Whitehead graph G is disconnected or has a cut vertex, a Whitehead
automorphism shortens w.

Proof.  For a set A of letters holding v but not v^-1, the Whitehead
automorphism (A, v) changes the cyclic length of w by cap(A) - deg(v),
where cap(A) counts the edges of G between A and the other letters
(Lyndon-Schupp, *Combinatorial Group Theory*, Prop. I.4.16).  If G is
connected, let v be a cut vertex: G - v has two or more components, each
joined to v, and v^-1 lies in at most one of them.  Otherwise some
component C of G misses the inverse of one of its letters v: if every
component held the inverses of its letters, then x^-1 and y, and so x and
y, would share a component for each pair x y of w; going round w, all its
letters would share one, which would be G as w uses every generator.  Then
v has degree at least 1, and every component of G - v inside C is joined
to v and misses v^-1.  Either way, let K be a component of G - v joined to
v that misses v^-1, and A = {v} u K.  Every edge that leaves A leaves from
v, and at least one edge joins v to K, so cap(A) < deg(v).  QED

The multiplier moves of ``whitehead_minimize`` include every Whitehead
automorphism, so if ``base`` uses every generator, its Whitehead graph is
one block on all 2n letters.  Each letter then has two neighbours or more,
so |base| >= 2n.  At |base| = 2n every degree is 2, the graph is one
2n-cycle, and so is the level-1 quotient with the identity put back on
one edge.  Hence, once the direct tests on s fail:

* every generator occurs twice in s: No (X1NotCycleDegreeTwo), without a
  witness.  Then |s| = 2n, and s is either not cyclically reduced or, with
  no level-1 cycle, has a Whitehead graph of degree 2 that is not one
  2n-cycle, so not one block.  Either way |base| < 2n, so ``base`` misses
  a generator; if it does not, ``CertifierInternalError`` is raised;
* ``base`` misses a generator: No (MissingGenerator), witnessed by the
  minimization chain;
* the Whitehead graph of ``base`` is not one block: the lemma is violated,
  and ``CertifierInternalError`` is raised;
* |base| = 2n: Yes, witnessed by the minimization chain, with every
  checked level of ``base`` re-verified, level 1 included;
* |base| > 2n: Unknown.  ``base`` is of minimal length in its orbit (see
  ``hamcirc.minimize``), so every automorphic image of s is longer than
  the length-2n words a level-1 cycle needs, and none misses a generator,
  since that would put ``base`` into a proper free factor up to
  conjugacy, whose cyclically reduced words all have a Whitehead graph
  with a cut vertex or more than one component.  The orbit closure would
  find nothing, so it is not run; the note says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .automorphisms import FGAutomorphism, chain_moves
from .minimize import minimal_orbit, whitehead_minimize
from .multigraph import Multigraph, _blocks
from .quotients import build_quotient_local, check_quotient_budget
from .words import ReducedWord, letter_str

VERDICT_YES = "Yes"
VERDICT_NO = "No"
VERDICT_UNKNOWN = "Unknown"

REASON_CYCLE = "X1Cycle"
REASON_MISSING_GENERATOR = "MissingGenerator"
REASON_NOT_CYCLE_DEGREE_TWO = "X1NotCycleDegreeTwo"
REASON_TRIVIAL = "TrivialWord"
REASON_UNDECIDED = "Undecided"


class CertifierInternalError(RuntimeError):
    """A guaranteed consistency check failed on concrete data: a code bug,
    never a property of the input."""


@dataclass(frozen=True)
class Certificate:
    verdict: str
    unique: bool
    reason: str
    witness: Optional[tuple[FGAutomorphism, ...]]
    checked_levels: tuple[int, ...]
    note: str = field(default="", compare=False)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "unique": self.unique,
            "reason": self.reason,
            "witness": None if self.witness is None else chain_moves(self.witness),
            "checked_levels": list(self.checked_levels),
        }


@dataclass(frozen=True)
class CanonicalForm:
    kind: Optional[str]  # "Squares" | "Commutators" | None
    witness: Optional[tuple[FGAutomorphism, ...]]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witness": None if self.witness is None else chain_moves(self.witness),
        }


def level_one_quotient(s: ReducedWord) -> Multigraph:
    """The level-1 quotient of Cay(F_n; s^{+-1}) built from the letters of s.

    Vertices are the identity and the 2n letters; the edges join 1 to the
    first letter, the inverse of each letter to the next letter, and the
    inverse of the last letter back to 1.  No loops can arise because s is
    reduced.
    """
    if len(s) == 0:
        raise ValueError("the trivial word has no level-1 quotient")
    n = s.rank
    labels = ["1"]
    index = {0: 0}
    for i in range(1, n + 1):
        for x in (i, -i):
            index[x] = len(labels)
            labels.append(letter_str(x))
    t = s.letters
    edges = [(index[0], index[t[0]])]
    for i in range(len(t) - 1):
        edges.append((index[-t[i]], index[t[i + 1]]))
    edges.append((index[-t[-1]], index[0]))
    return Multigraph(labels, edges)


def squares_word(n: int) -> ReducedWord:
    return ReducedWord(tuple(x for i in range(1, n + 1) for x in (i, i)), n)


def commutators_word(n: int) -> ReducedWord:
    if n % 2:
        raise ValueError("commutator canonical form needs even rank")
    letters = []
    for i in range(1, n + 1, 2):
        letters += [i, i + 1, -i, -(i + 1)]
    return ReducedWord(tuple(letters), n)


def default_max_level(n: int) -> int:
    return 4 if n == 2 else 3


def _verify_quotient_cycles(
    n: int, s: ReducedWord, checked: ReducedWord, max_level: int
) -> tuple[int, ...]:
    """Re-verify that the quotients of ``checked``, the word that decided
    Yes for the input ``s`` (``s`` itself or its minimized form), are
    cycles at levels 1..max_level."""
    check_quotient_budget(n, max_level)
    for level in range(1, max_level + 1):
        q = build_quotient_local(n, [checked], level)
        if not q.graph.is_cycle():
            raise CertifierInternalError(
                f"certify {s.display()}: the level-{level} quotient of "
                f"{checked.display()} is not a cycle"
            )
    return tuple(range(1, max_level + 1))


def _uniqueness_flag(s: ReducedWord) -> bool:
    return s.max_letter_count() <= 2


def whitehead_graph_is_one_block(word: ReducedWord) -> bool:
    """Whether the Whitehead graph of the cyclically reduced ``word`` (see
    the module docstring) is connected with no cut vertex, that is, one
    block on all 2n letters.

    Letter x is vertex 2(|x| - 1), and x^-1 the one after it.
    """
    n, t = word.rank, word.letters
    adj: list[set[int]] = [set() for _ in range(2 * n)]
    for x, y in zip(t[-1:] + t[:-1], t):  # the cyclic pairs x y
        u, v = 2 * abs(x) - 2 + (x > 0), 2 * abs(y) - 2 + (y < 0)  # x^-1, y
        adj[u].add(v)
        adj[v].add(u)
    return any(len(block) == 2 * n for block in _blocks(adj))


def certify(
    n: int,
    s: ReducedWord,
    max_level: Optional[int] = None,
) -> Certificate:
    """Decide the hamiltonian-circle property for Cay(F_n; A u s^{+-1}).

    Yes when the level-1 quotient of s, or of its minimized form with the
    minimization chain as witness, is a cycle; No when the word is trivial,
    when a degree-two word fails the cycle test, or when the minimized form
    misses a generator; Unknown otherwise.  The module docstring shows why
    the minimized form alone decides.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if s.rank != n:
        raise ValueError(f"word has rank {s.rank}, expected {n}")
    if max_level is None:
        max_level = default_max_level(n)
    if max_level < 1:
        raise ValueError("max_level must be at least 1")

    if len(s) == 0:
        return Certificate(VERDICT_NO, False, REASON_TRIVIAL, None, ())

    if level_one_quotient(s).is_cycle():
        levels = _verify_quotient_cycles(n, s, s, max_level)
        return Certificate(VERDICT_YES, _uniqueness_flag(s), REASON_CYCLE, None, levels)

    base, chain = whitehead_minimize(s)
    misses = len(base.support()) < n
    if all(s.letter_count(i) == 2 for i in range(1, n + 1)):
        if not misses:
            raise CertifierInternalError(
                f"{base.display()}, the minimized form of the degree-two word "
                f"{s.display()}, uses every generator, but the level-1 "
                "quotient of the word is not a cycle"
            )
        return Certificate(VERDICT_NO, False, REASON_NOT_CYCLE_DEGREE_TWO, None, ())
    if misses:
        return Certificate(VERDICT_NO, False, REASON_MISSING_GENERATOR, chain, ())
    if not whitehead_graph_is_one_block(base):
        raise CertifierInternalError(
            f"{base.display()}, the minimized form of {s.display()}, uses every "
            "generator, but its Whitehead graph is not one block"
        )
    if len(base) == 2 * n:
        levels = _verify_quotient_cycles(n, s, base, max_level)
        return Certificate(VERDICT_YES, _uniqueness_flag(s), REASON_CYCLE, chain, levels)
    return Certificate(
        VERDICT_UNKNOWN, False, REASON_UNDECIDED, None, (),
        note=f"orbit closure skipped: {base.display()} is longer than "
        f"{2 * n} letters and its Whitehead graph is connected with no "
        "cut vertex, so no word of its orbit can decide",
    )


def classify(n: int, s: ReducedWord) -> CanonicalForm:
    """Search the orbit for the squares word or the commutator-product word.

    Both canonical words have minimal length 2n in their orbits, so a word
    whose minimal orbit length differs is classified None without a search.
    Raises ``OrbitCapExceeded`` past ``minimize.ORBIT_CAP`` orbit words.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if s.rank != n:
        raise ValueError(f"word has rank {s.rank}, expected {n}")

    minimized = whitehead_minimize(s)
    if len(minimized[0]) != 2 * n:
        return CanonicalForm(None, None)

    targets = {squares_word(n).letters: "Squares"}
    if n % 2 == 0:
        targets[commutators_word(n).letters] = "Commutators"
    orbit = minimal_orbit(s, stop=targets.get, minimized=minimized)
    if orbit.hit is None:
        return CanonicalForm(None, None)
    raw, kind = orbit.hit
    return CanonicalForm(kind, orbit.chain_to(raw))
