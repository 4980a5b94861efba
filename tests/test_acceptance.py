"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import random
import time
from contextlib import contextmanager

from conftest import class_index
from oracles import (
    compose_chain,
    corpus_graphs,
    cycle_contains_edge,
    disconnecting_pair_disconnects,
    induced_subgraph,
    is_cyclically_reduced,
    second_cycle_cyclic,
    verify_unique_finite,
)

from hamcirc.automorphisms import apply_chain, elementary_automorphisms
from hamcirc.certifier import certify, classify, level_one_quotient
from hamcirc.finite import build_finite_cayley, parse_spec
from hamcirc.freeproduct import verify_circle_truncations
from hamcirc.minimize import whitehead_minimize
from hamcirc.multigraph import enumerate_hamiltonian_cycles
from hamcirc.outerplanar import verify_outerplanar_quotient
from hamcirc.quotients import (
    build_quotient_enum,
    build_quotient_local,
    quotients_equal,
)
from hamcirc.words import (
    ReducedWord,
    count_reduced_words,
    letter_str,
    reduce_letters,
    reduced_words,
)


@contextmanager
def criterion(num, desc, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"
    print(f"PASS criterion {num}: {desc} ({elapsed:.2f}s)")


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


def sorted_label_edges(g):
    return sorted(tuple(sorted((g.labels[u], g.labels[v]))) for u, v, _ in g.edges)


def cycle_edge_set(order):
    return sorted(
        tuple(sorted((order[i], order[(i + 1) % len(order)])))
        for i in range(len(order))
    )


def squares_cycle_order(n):
    order = ["1"]
    for i in range(1, n + 1):
        order += [letter_str(i), letter_str(-i)]
    return order


def commutators_cycle_order(n):
    order = ["1"]
    for i in range(1, n + 1, 2):
        order += [letter_str(i), letter_str(-(i + 1)), letter_str(-i), letter_str(i + 1)]
    return order


def test_criterion_01_squares_family():
    with criterion(1, "squares words certify Yes+unique with cycle quotients", 10.0):
        for n, text in [(2, "aabb"), (3, "aabbcc"), (4, "aabbccdd")]:
            word = ReducedWord.parse(text, n)
            cert = certify(n, word)
            assert cert.verdict == "Yes" and cert.unique
            expected_levels = (1, 2, 3, 4) if n == 2 else (1, 2, 3)
            assert cert.checked_levels == expected_levels
            g = level_one_quotient(word)
            assert g.is_cycle() and g.n_vertices == 2 * n + 1
            assert sorted_label_edges(g) == cycle_edge_set(squares_cycle_order(n))


def test_criterion_02_commutator_family():
    with criterion(2, "commutator words certify Yes+unique with the proof cycle", 10.0):
        for n, text in [(2, "abAB"), (4, "abABcdCD")]:
            word = ReducedWord.parse(text, n)
            cert = certify(n, word)
            assert cert.verdict == "Yes" and cert.unique
            g = level_one_quotient(word)
            assert g.is_cycle() and g.n_vertices == 2 * n + 1
            assert sorted_label_edges(g) == cycle_edge_set(commutators_cycle_order(n))


def test_criterion_03_rank_two_exhaustive_equivalence():
    with criterion(
        3, "rank-2 degree-two words: certify Yes iff classify canonical", 120.0
    ):
        words = []
        for raw in reduced_words(2, 8):
            if len(raw) < 2:
                continue
            word = ReducedWord(raw, 2)
            if not is_cyclically_reduced(word):
                continue
            if word.letter_count(1) == 2 and word.letter_count(2) == 2:
                words.append(word)
        assert len(words) == 48
        disagreements = []
        yes = 0
        for word in words:
            is_yes = certify(2, word).verdict == "Yes"
            has_form = classify(2, word).kind is not None
            if is_yes != has_form:
                disagreements.append(word)
            yes += is_yes
        assert disagreements == []
        assert 0 < yes < len(words)


def test_criterion_04_explicit_squares_witness():
    with criterion(4, "witness chain maps abABcc exactly to aabbcc"):
        word = ReducedWord.parse("abABcc", 3)
        form = classify(3, word)
        assert form.kind == "Squares"
        target = ReducedWord.parse("aabbcc", 3)
        assert apply_chain(form.witness, word) == target
        assert compose_chain(form.witness, 3).apply(word) == target


def test_criterion_05_degree_law_and_dual_construction():
    with criterion(5, "quotient degree law and enum/local equality, exact"):
        cases = [("aabb", (1, 2, 3, 4)), ("abAB", (1, 2, 3, 4)), ("abab", (1, 2, 3))]
        for text, levels in cases:
            word = w(text)
            for level in levels:
                local = build_quotient_local(2, [word], level)
                enum = build_quotient_enum(2, [word], level)
                assert quotients_equal(local, enum)
                for rep, idx in class_index(2, level).items():
                    expected = (
                        2
                        if len(rep) < level
                        else word.letter_count(abs(rep[-1]))
                    )
                    assert local.graph.degrees()[idx] == expected


def test_criterion_06_cycle_tree_truncations():
    with criterion(6, "free-product circle truncations are cycles", 30.0):
        expected_first = {(3, 2): 6, (4, 2): 8, (3, 3): 9}
        for (m, n), depth in [((3, 2), 3), ((4, 2), 2), ((3, 3), 2)]:
            report = verify_circle_truncations(m, n, depth)
            assert report.passed
            assert report.class_counts[0] == expected_first[(m, n)]


def test_criterion_07_disconnecting_pair():
    with criterion(7, "removing the distinguished edge pair disconnects"):
        assert disconnecting_pair_disconnects(3, 2, 2)
        assert disconnecting_pair_disconnects(3, 2, 3)


def test_criterion_08_cubic_parity():
    with criterion(8, "even hamiltonian count through every cubic edge", 60.0):
        names = [
            "k4", "k33", "prism_6", "prism_8", "prism_10", "prism_12",
            "petersen", "mobius_kantor",
        ]
        for name, g in corpus_graphs(names).items():
            assert all(d == 3 for d in g.degrees()), name
            cycles = enumerate_hamiltonian_cycles(g)
            for idx, (u, v, _) in enumerate(g.edges):
                through = sum(
                    1 for cyc in cycles if cycle_contains_edge(cyc, u, v)
                )
                assert through % 2 == 0, (name, idx)
                if name == "k4":
                    assert through == 2
                if name == "petersen":
                    assert through == 0


def test_criterion_09_finite_uniqueness():
    with criterion(9, "cycles are the only uniquely hamiltonian fixtures"):
        for n in range(3, 11):
            assert verify_unique_finite(parse_spec(f"cyclic:{n}:1")) == (1, True)
            assert verify_unique_finite(parse_spec(f"dihedral:{2 * n}:a,b")) == (1, True)
        for n in range(4, 13):
            for s in range(2, n - 1):
                spec = parse_spec(f"cyclic:{n}:1,{s}")
                count, unique = verify_unique_finite(spec)
                assert count >= 2 and not unique, (n, s)
                cycles = enumerate_hamiltonian_cycles(build_finite_cayley(spec))
                target = second_cycle_cyclic(n, s)
                idx = target.index(0)
                rotated = target[idx:] + target[:idx]
                if rotated[1] > rotated[-1]:
                    rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
                assert tuple(rotated) in cycles, (n, s)


def test_criterion_10_outerplanar_truncations():
    with criterion(10, "certified words give outerplanar truncations", 60.0):
        for text in ("aabb", "abAB"):
            report = verify_outerplanar_quotient(2, w(text), 4)
            assert certify(2, w(text), max_level=1).verdict == "Yes"
            assert report.passed, text
        control = verify_outerplanar_quotient(2, w("abab"), 2)
        assert not control.levels[1].circle_is_ham_cycle


# --- criterion 11: property suites with case counters ----------------------

def suite_word_algebra(target=1200):
    rng = random.Random(20240811)
    cases = 0
    while cases < target:
        letters = [
            rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(0, 20))
        ]
        once = reduce_letters(letters, 3)
        assert reduce_letters(once, 3) == once
        word = ReducedWord(once, 3)
        assert word.inverse().inverse() == word
        assert len(word * word.inverse()) == 0
        other = ReducedWord.from_letters(
            [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(0, 12))], 3
        )
        prod = word * other
        assert (len(prod) - len(word) - len(other)) % 2 == 0
        assert abs(len(word) - len(other)) <= len(prod) <= len(word) + len(other)
        cases += 1
    return cases


def suite_automorphism_soundness(target=1100):
    rng = random.Random(97)
    autos = {r: elementary_automorphisms(r) for r in (2, 3)}
    cases = 0
    while cases < target:
        rank = rng.choice((2, 3))
        phi = rng.choice(autos[rank])
        letters = []
        for _ in range(rng.randrange(0, 9)):
            choices = [
                x
                for x in range(-rank, rank + 1)
                if x and (not letters or x != -letters[-1])
            ]
            letters.append(rng.choice(choices))
        word = ReducedWord(tuple(letters), rank)
        assert phi.inverse().apply(phi.apply(word)) == word
        cases += 1
    return cases


def suite_quotient_vertex_count(target=1000):
    rng = random.Random(4242)
    cases = 0
    while cases < target:
        n = rng.choice((2, 3))
        length = rng.randrange(1, 6)
        letters = []
        for _ in range(length):
            choices = [
                x
                for x in range(-n, n + 1)
                if x and (not letters or x != -letters[-1])
            ]
            letters.append(rng.choice(choices))
        word = ReducedWord(tuple(letters), n)
        level = rng.randrange(1, 5 if n == 2 else 4)
        q = build_quotient_local(n, [word], level)
        assert q.graph.n_vertices == count_reduced_words(n, level)
        assert sum(q.graph.degrees()) == 2 * q.graph.n_edges
        cases += 1
    return cases


def suite_expansion_connectivity(max_words=30):
    pool = []
    for raw in reduced_words(2, 6):
        if len(raw) < 2 or len(pool) >= max_words:
            continue
        word = ReducedWord(raw, 2)
        if not is_cyclically_reduced(word) or raw[0] == raw[-1]:
            continue
        minimal, _ = whitehead_minimize(word)
        if len(minimal) == len(word):
            pool.append(word)
    cases = 0
    for word in pool:
        for level in (2, 3, 4, 5):
            q = build_quotient_local(2, [word], level)
            index = class_index(2, level)
            for rep, idx in index.items():
                if len(rep) != level - 1:
                    continue
                block = [idx]
                for x in (1, -1, 2, -2):
                    if x != -rep[-1]:
                        block.append(index[rep + (x,)])
                assert induced_subgraph(q.graph, block).is_connected(), (
                    word, level, rep,
                )
                cases += 1
    return cases


def test_criterion_11_property_suites():
    with criterion(11, "property suites each run 1000+ generated cases"):
        counts = {
            "word_algebra": suite_word_algebra(),
            "automorphism_soundness": suite_automorphism_soundness(),
            "quotient_vertex_count": suite_quotient_vertex_count(),
            "expansion_connectivity": suite_expansion_connectivity(),
        }
        for name, count in counts.items():
            assert count >= 1000, (name, count)
