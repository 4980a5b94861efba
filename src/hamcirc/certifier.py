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

The orbit search is gated by Whitehead's cut-vertex lemma (Whitehead 1936;
Stallings, "Whitehead graphs on handlebodies", 1999; Heusener-Weidmann, "A
remark on Whitehead's cut-vertex lemma", 2019): a cyclically reduced word
that is conjugate into a proper free factor of F_n has a Whitehead graph
that is disconnected or has a cut vertex.  The Whitehead graph of w has
the 2n letters as vertices and one edge x^-1 -- y for each cyclically
consecutive pair x y of w; it is the level-1 quotient of w with the
identity vertex contracted.  ``certify`` minimizes s once.  When the
minimized word, the base of the closure, is longer than 2n and its
Whitehead graph is connected with no cut vertex (``closure_cannot_decide``),
no stop test of the closure can fire on any word of it:

* being conjugate into a proper free factor is invariant under
  automorphisms, and every word of the closure is an automorphic image of
  the base, so none of them lies in a proper free factor.  A word that
  misses a generator lies in the factor of the others, so the ``missing``
  test cannot fire;
* every word of the closure has the base's length, more than 2n, and the
  ``cycle`` test fires only on words of length 2n;
* the canonical words have length 2n, so ``_assert_not_canonical`` has
  nothing to find, and the degree-two branch for a minimal length of 2n is
  not taken.

The closure could then only end complete with no hit, or at the orbit cap:
both answer Unknown/Undecided with no witness and no checked level.  So
``certify`` returns that answer without exploring the closure; only the
note says that the closure was skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .automorphisms import FGAutomorphism, chain_moves
from .minimize import (
    DEFAULT_ORBIT_CAP,
    OrbitCapExceeded,
    check_orbit_cap,
    minimal_orbit,
    whitehead_minimize,
)
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


def _verify_quotient_cycles(n: int, s: ReducedWord, max_level: int) -> tuple[int, ...]:
    check_quotient_budget(n, max_level)
    for level in range(1, max_level + 1):
        q = build_quotient_local(n, [s], level)
        if not q.graph.is_cycle():
            raise CertifierInternalError(
                f"level-{level} quotient of {s.display()} is not a cycle "
                "although the level-1 quotient is"
            )
    return tuple(range(1, max_level + 1))


def _uniqueness_flag(s: ReducedWord) -> bool:
    return s.max_letter_count() <= 2


def closure_cannot_decide(base: ReducedWord) -> bool:
    """The gate of ``certify`` (see the module docstring): whether the
    minimized word ``base`` is longer than 2n and its Whitehead graph is
    connected with no cut vertex.

    That holds exactly when the whole graph is one block.  Letter x is
    vertex 2(|x| - 1), and x^-1 the one after it.
    """
    n, t = base.rank, base.letters
    if len(t) <= 2 * n:
        return False
    adj: list[set[int]] = [set() for _ in range(2 * n)]
    for x, y in zip(t[-1:] + t[:-1], t):  # the cyclic pairs x y
        u, v = 2 * abs(x) - 2 + (x > 0), 2 * abs(y) - 2 + (y < 0)  # x^-1, y
        adj[u].add(v)
        adj[v].add(u)
    return any(len(block) == 2 * n for block in _blocks(adj))


def _orbit_probe(n: int) -> Callable[[tuple[int, ...]], Optional[str]]:
    """The stop test of ``certify``'s closure: "missing" on a word that
    misses a generator, "cycle" on a word of length 2n whose level-1
    quotient is a cycle."""

    def probe(raw: tuple[int, ...]) -> Optional[str]:
        if len(frozenset(abs(x) for x in raw)) < n:
            return "missing"
        if len(raw) == 2 * n:
            w = ReducedWord(raw, n)
            if w.max_letter_count() <= 2 and level_one_quotient(w).is_cycle():
                return "cycle"
        return None

    return probe


def certify(
    n: int,
    s: ReducedWord,
    max_level: Optional[int] = None,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
) -> Certificate:
    """Decide the hamiltonian-circle property for Cay(F_n; A u s^{+-1}).

    Yes when the level-1 quotient of s (or of some orbit element, with the
    witness chain recorded) is a cycle; No when the word is trivial, when
    some orbit element misses a generator, or when a degree-two word fails
    the cycle test; Unknown otherwise.  The orbit is not explored when
    ``closure_cannot_decide`` shows that it would answer Unknown.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if s.rank != n:
        raise ValueError(f"word has rank {s.rank}, expected {n}")
    if max_level is None:
        max_level = default_max_level(n)
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    check_orbit_cap(orbit_cap)

    if len(s) == 0:
        return Certificate(VERDICT_NO, False, REASON_TRIVIAL, None, ())

    if level_one_quotient(s).is_cycle():
        levels = _verify_quotient_cycles(n, s, max_level)
        return Certificate(VERDICT_YES, _uniqueness_flag(s), REASON_CYCLE, None, levels)

    if all(s.letter_count(i) == 2 for i in range(1, n + 1)):
        # A hamiltonian circle would force the level-1 quotient to be a
        # cycle, so this is a No.  Cross-check against the classifier to
        # turn any inconsistency into a hard failure instead of a wrong
        # verdict.
        note = ""
        try:
            if classify(n, s, orbit_cap=orbit_cap).kind is not None:
                raise CertifierInternalError(
                    f"{s.display()} classifies as canonical although its "
                    "level-1 quotient is not a cycle"
                )
        except OrbitCapExceeded as exc:
            note = f"classifier cross-check skipped: {exc}"
        return Certificate(
            VERDICT_NO, False, REASON_NOT_CYCLE_DEGREE_TWO, None, (), note=note
        )

    minimized = whitehead_minimize(s)
    base = minimized[0]
    if closure_cannot_decide(base):
        return Certificate(
            VERDICT_UNKNOWN, False, REASON_UNDECIDED, None, (),
            note=f"orbit closure skipped: {base.display()} is longer than "
            f"{2 * n} letters and its Whitehead graph is connected with no "
            "cut vertex, so no word of its orbit can decide",
        )

    try:
        orbit = minimal_orbit(s, cap=orbit_cap, stop=_orbit_probe(n), minimized=minimized)
    except OrbitCapExceeded as exc:
        return Certificate(
            VERDICT_UNKNOWN, False, REASON_UNDECIDED, None, (), note=str(exc)
        )

    if orbit.hit is not None:
        raw, tag = orbit.hit
        witness = orbit.chain_to(raw)
        if tag == "missing":
            return Certificate(
                VERDICT_NO, False, REASON_MISSING_GENERATOR, witness, ()
            )
        via = ReducedWord(raw, n)
        levels = _verify_quotient_cycles(n, via, max_level)
        return Certificate(
            VERDICT_YES, _uniqueness_flag(s), REASON_CYCLE, witness, levels
        )

    # Full closure, no missing generator, no cycle element.
    _assert_not_canonical(n, orbit)
    if orbit.min_length == 2 * n:
        # Every minimal word then has each letter count exactly 2, and none
        # passed the cycle test, so the circle cannot exist.
        witness = orbit.chain_to(orbit.base.letters)
        return Certificate(
            VERDICT_NO, False, REASON_NOT_CYCLE_DEGREE_TWO, witness, ()
        )
    return Certificate(VERDICT_UNKNOWN, False, REASON_UNDECIDED, None, ())


def _assert_not_canonical(n: int, orbit) -> None:
    """Cross-check for the No branch: the canonical words must not be in
    the explored closure, otherwise the decision rules are inconsistent."""
    targets = {squares_word(n).letters}
    if n % 2 == 0:
        targets.add(commutators_word(n).letters)
    found = targets & set(orbit.parents)
    if found:
        raise CertifierInternalError(
            "orbit contains a canonical word although no orbit element "
            "passed the cycle test"
        )


def classify(
    n: int,
    s: ReducedWord,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
) -> CanonicalForm:
    """Search the orbit for the squares word or the commutator-product word.

    Both canonical words have minimal length 2n in their orbits, so a word
    whose minimal orbit length differs is classified None without a search.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if s.rank != n:
        raise ValueError(f"word has rank {s.rank}, expected {n}")
    check_orbit_cap(orbit_cap)

    minimized = whitehead_minimize(s)
    if len(minimized[0]) != 2 * n:
        return CanonicalForm(None, None)

    targets = {squares_word(n).letters: "Squares"}
    if n % 2 == 0:
        targets[commutators_word(n).letters] = "Commutators"

    def probe(raw: tuple[int, ...]) -> Optional[str]:
        return targets.get(raw)

    orbit = minimal_orbit(s, cap=orbit_cap, stop=probe, minimized=minimized)
    if orbit.hit is None:
        return CanonicalForm(None, None)
    raw, kind = orbit.hit
    return CanonicalForm(kind, orbit.chain_to(raw))


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
            {g.vertex(letter_str(x)) for i in w.support() for x in (i, -i)}
        )
        return g.induced_subgraph(keep).is_cycle()

    return restricted_is_cycle(u) and restricted_is_cycle(v)
