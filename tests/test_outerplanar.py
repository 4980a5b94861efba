import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hamcirc
from hamcirc import multigraph, outerplanar, quotients
from hamcirc.certifier import certify, level_one_quotient
from hamcirc.cli import main
from hamcirc.multigraph import cycle_positions, is_outerplanar, spans_nest
from hamcirc.outerplanar import tree_generators, verify_outerplanar_quotient
from hamcirc.quotients import build_quotient_local, generator_subgraph, tree_parents
from hamcirc.words import ReducedWord, count_reduced_words
from oracles import cyclic_reduction, edges_between, outerplanar_by_minor_search


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


class TestCertifiedWords:
    def test_squares_levels(self):
        report = verify_outerplanar_quotient(2, w("aabb"), 3)
        assert certify(2, w("aabb"), max_level=1).verdict == "Yes"
        assert report.passed
        assert [lv.vertices for lv in report.levels] == [
            count_reduced_words(2, 1),
            count_reduced_words(2, 2),
            count_reduced_words(2, 3),
        ]
        assert all(lv.outerplanar for lv in report.levels)
        assert all(lv.circle_is_ham_cycle for lv in report.levels)

    def test_commutator_levels(self):
        report = verify_outerplanar_quotient(2, w("abAB"), 3)
        assert report.passed

    def test_base_level_is_fan(self):
        # at level 1 the full quotient is the (2n+1)-cycle plus an edge from
        # the identity class to every letter class
        from hamcirc.outerplanar import tree_generators
        from hamcirc.quotients import build_quotient_local

        report = verify_outerplanar_quotient(2, w("aabb"), 1)
        assert report.levels[0].vertices == 5
        assert report.levels[0].outerplanar
        q = build_quotient_local(2, tree_generators(2) + [w("aabb")], 1)
        g = q.graph
        assert g.n_edges == 9  # 5 circle edges + 4 tree edges
        one = g.labels.index("1")
        assert g.degrees()[one] == 6
        circle = [(u, v) for u, v, tag in g.edges if tag == "aabb"]
        assert len(circle) == 5
        for v in range(g.n_vertices):
            if v != one:
                assert edges_between(g, one, v)


class TestNegativeControl:
    def test_abab_fails_circle_subcheck(self):
        report = verify_outerplanar_quotient(2, w("abab"), 2)
        assert certify(2, w("abab"), max_level=1).verdict == "No"  # the precondition fails
        level2 = report.levels[1]
        assert not level2.circle_is_ham_cycle
        assert not report.passed


class TestReportShape:
    def test_json_schema(self):
        report = verify_outerplanar_quotient(2, w("aabb"), 2)
        doc = report.to_json_dict()
        assert set(doc) == {"word", "levels"}
        assert doc["word"] == "aabb"
        for entry in doc["levels"]:
            assert set(entry) == {"l", "vertices", "outerplanar", "circle_is_ham_cycle"}
        assert json.loads(json.dumps(doc)) == doc

    def test_level_validation(self):
        with pytest.raises(ValueError):
            verify_outerplanar_quotient(2, w("aabb"), 0)

    def test_budget_checked_before_certify(self, monkeypatch, capsys):
        # the outerplanar command sizes its top level before it certifies
        def no_certify(*args, **kwargs):
            raise AssertionError("certify ran before the budget check")

        monkeypatch.setattr("hamcirc.cli.certify", no_certify)
        code = main(["outerplanar", "-n", "2", "-s", "aabb", "-l", "12"])
        assert (code, capsys.readouterr().err) == (3, "error: 1062881 classes exceeds 500000\n")


@pytest.mark.parametrize("n, text, level", [(2, "abAB", 5), (3, "aabbcc", 3)])
def test_yes_word_never_builds_adjacency(monkeypatch, n, text, level):
    # on a Yes word every level takes the circle-order check, which reads
    # only the edge list, so no level's graph builds its adjacency
    built = []

    def recording(*args):
        q = build_quotient_local(*args)
        built.append(q.graph)
        return q

    def no_adjacency(*args):
        raise AssertionError("a per-vertex adjacency was built")

    assert certify(n, w(text, n), max_level=1).verdict == "Yes"
    monkeypatch.setattr("hamcirc.outerplanar.build_quotient_local", recording)
    monkeypatch.setattr("hamcirc.multigraph._neighbour_sets", no_adjacency)
    report = verify_outerplanar_quotient(n, w(text, n), level)
    assert report.passed
    assert [lv.level for lv in report.levels] == list(range(1, level + 1))
    # one build, at the top level; it settles every shallower level, unbuilt
    assert [g.n_vertices for g in built] == [count_reduced_words(n, level)]


def test_level_one_quotients_agree_with_minor_oracle():
    for text in ("aabb", "abAB", "abab", "aaab"):
        word = w(text)
        q = build_quotient_local(2, tree_generators(2) + [word], 1)
        assert is_outerplanar(q.graph) == outerplanar_by_minor_search(q.graph), text


@pytest.mark.parametrize("text", ["aabb", "abab"])  # a Yes word and a No word
def test_full_quotients_agree_with_networkx(text, nx_outerplanar):
    for level in range(1, 6):
        q = build_quotient_local(2, tree_generators(2) + [w(text)], level)
        assert is_outerplanar(q.graph) == nx_outerplanar(q.graph), level


def test_outerplanar_command_runs_without_networkx():
    script = textwrap.dedent(
        """
        import sys

        class RefuseNetworkx:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "networkx":
                    raise ModuleNotFoundError(f"No module named {name!r} (blocked)")
                return None

        sys.meta_path.insert(0, RefuseNetworkx())
        from hamcirc.cli import main
        sys.exit(main(["outerplanar", "-n", "2", "-s", "aabb", "-l", "3"]))
        """
    )
    src = str(Path(hamcirc.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "PASS"


def _random_cyclic_words(rng, n, count, circle):
    """Seeded cyclically reduced words of length 2-8; with ``circle``, only
    those whose level-1 circle quotient is a cycle."""
    letters = [x for k in range(1, n + 1) for x in (k, -k)]
    words = []
    while len(words) < count:
        length = rng.randrange(2, 9)
        word = cyclic_reduction(ReducedWord.from_letters(rng.choices(letters, k=length), n))
        if len(word) and (not circle or level_one_quotient(word).is_cycle()):
            words.append(word)
    return words


def _sampled_words(rng, n):
    return _random_cyclic_words(rng, n, 12, True) + _random_cyclic_words(rng, n, 12, False)


def _every_circle_word(n):
    """Every cyclically reduced word of length 2n whose level-1 circle
    quotient is a cycle: 40 at rank 2, 1968 at rank 3."""
    letters = [x for k in range(1, n + 1) for x in (k, -k)]
    words = (ReducedWord.from_letters(t, n) for t in itertools.product(letters, repeat=2 * n))
    return [
        w for w in words if len(cyclic_reduction(w)) == 2 * n and level_one_quotient(w).is_cycle()
    ]


# no quotient seen has a hamiltonian circle and a crossing; test_multigraph makes them
MIXED = {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize(
    "n, top, pick, kinds",
    [
        pytest.param(2, 5, _sampled_words, MIXED, id="2-5"),
        pytest.param(3, 3, _sampled_words, MIXED, id="3-3"),
        # every level below a passing top is inferred, not checked
        pytest.param(2, 6, lambda rng, n: _every_circle_word(n), {(True, True)}, id="2-6-circle"),
        pytest.param(
            3, 4, lambda rng, n: rng.sample(_every_circle_word(n), 24), {(True, True)},
            id="3-4-circle",
        ),
    ],
)
def test_levels_match_cycle_and_mitchell_checks(n, top, pick, kinds):
    # each level against the checks the circle walk replaced: the cycle test
    # on the s-edge subgraph and Mitchell's reduction on the whole quotient
    rng = random.Random(n)
    words = pick(rng, n)
    assert len(words) >= 20
    seen = set()
    for s in words:
        report = verify_outerplanar_quotient(n, s, top)
        for lv in report.levels:
            full = build_quotient_local(n, tree_generators(n) + [s], lv.level).graph
            circle = generator_subgraph(full, s)
            cycle = set(circle.degrees()) == {2} and circle.is_connected()
            assert lv == outerplanar.LevelReport(
                lv.level, full.n_vertices, is_outerplanar(full), cycle
            ), (str(s), lv.level)
            seen.add((lv.circle_is_ham_cycle, lv.outerplanar))
    assert seen == kinds


def _spy(monkeypatch, fn):
    """Record the arguments of every call to fn, wherever hamcirc bound it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] != "hamcirc":
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, spy)
    return calls


def _level_json(sizes, outer, circle):
    return [
        {"l": i, "vertices": v, "outerplanar": op, "circle_is_ham_cycle": c}
        for i, (v, op, c) in enumerate(zip(sizes, outer, circle), 1)
    ]


@pytest.mark.parametrize(
    "word, level, code, out, err, levels",
    [
        (
            "aabb", "4", 0,
            "level 1: 5 vertices, outerplanar: yes, circle is hamiltonian cycle: yes\n"
            "level 2: 17 vertices, outerplanar: yes, circle is hamiltonian cycle: yes\n"
            "level 3: 53 vertices, outerplanar: yes, circle is hamiltonian cycle: yes\n"
            "level 4: 161 vertices, outerplanar: yes, circle is hamiltonian cycle: yes\n"
            "PASS\n",
            "",
            _level_json([5, 17, 53, 161], [True] * 4, [True] * 4),
        ),
        (
            "abab", "3", 1,
            "level 1: 5 vertices, outerplanar: yes, circle is hamiltonian cycle: no\n"
            "level 2: 17 vertices, outerplanar: no, circle is hamiltonian cycle: no\n"
            "level 3: 53 vertices, outerplanar: no, circle is hamiltonian cycle: no\n"
            "FAIL\n",
            "warning: certifier verdict is No, not Yes; checks run anyway\n",
            _level_json([5, 17, 53], [True, False, False], [False] * 3),
        ),
    ],
)
def test_mitchell_runs_only_where_the_circle_fails(capsys, monkeypatch, word, level, code, out, err, levels):
    checks = _spy(monkeypatch, multigraph.is_outerplanar)
    mitchell = _spy(monkeypatch, multigraph._blocks)  # the reduction's first step
    subgraph = _spy(monkeypatch, quotients.generator_subgraph)
    argv = ["outerplanar", "-n", "2", "-s", word, "-l", level]
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
    assert main(argv + ["--json"]) == code
    text, warning = capsys.readouterr()
    assert json.loads(text) == {"word": word, "levels": levels} and warning == err
    # levels are checked from the top down until one passes, which settles
    # the shallower ones; a level whose circle walk succeeds is given the
    # walk and its tree chords, and only the others form the full quotient
    # (given no circle) and run Mitchell's reduction
    walked = {"aabb": [(161, True)], "abab": [(53, False), (17, False), (5, False)]}[word]
    assert [(g.n_vertices, bool(rest)) for g, *rest in checks] == walked * 2
    failed = [v for v, circle in walked if not circle]
    assert [len(adj) for adj, in mitchell] == failed * 2
    assert subgraph == []


@pytest.mark.parametrize(
    "n, text, top, digest",
    [
        (2, "abab", 6, "08db2e9d015bc648afd16a152471adc1aef3b19cfe9f1f0d9492e222fbb308c3"),
        (2, "aab", 6, "02daf536dea367a93fc7244877a171c36e748df4a4589091bb6685cc80a4c9ed"),
        (2, "aaabbb", 6, "304422fd93174e0539a9c18b6b10cb447ca990d43c4a472a3c47f8c695107de7"),
        (2, "a", 6, "5dc4b71f8d6fed46e60e7ff4e2314ff6e2bf45bd3702d1e9e82269d25dd71bc0"),
        (2, "B", 6, "c50bc1a0f7da4954dcb38d9949ed5615cec2203a857e65f7c6e0cbb738dda89e"),
        (2, "abAB", 6, "9dc08de990712be274b233955cf45b5ce9f447f9d9fccdb2808b84284e9178d7"),  # a Yes word
        (3, "abcabc", 4, "b36413973420e6e6219139f52ad44d4509e5cccfa4cbc6a3f4a32b4e0564c305"),
        (3, "ab", 4, "179ed2005ed5749ecd6306d82c9e14f94ae5370fe712374a8ee755812abc3d3d"),
        (3, "abab", 4, "5678aef0591d67642da80189bbbce037b26568210dc25b9161a3a49cb9f4f6d9"),
    ],
)
def test_golden_outerplanar_digest(capsys, n, text, top, digest):
    # the exit code, stdout and first stderr line of every level 1..top, in
    # text and --json, pinned byte for byte
    record = hashlib.sha256()
    for level, fmt in itertools.product(range(1, top + 1), ([], ["--json"])):
        code = main(["outerplanar", "-n", str(n), "-s", text, "-l", str(level), *fmt])
        out, err = capsys.readouterr()
        first = err.partition("\n")[0]
        record.update(f"{code}\n{out}{first}\n".encode())
    assert record.hexdigest() == digest


def test_a_walked_level_with_crossing_chords_settles_nothing_below(monkeypatch):
    # no real quotient has a hamiltonian circle and a crossing, so one is
    # faked at the top: only a level that passes both checks settles the
    # shallower ones, and the level below this one is built and checked
    checked = []

    def crossing_at_the_top(g, *rest):
        checked.append(g.n_vertices)
        return is_outerplanar(g, *rest) and g.n_vertices != 53

    monkeypatch.setattr(outerplanar, "is_outerplanar", crossing_at_the_top)
    report = verify_outerplanar_quotient(2, w("aabb"), 3)
    assert [(lv.outerplanar, lv.circle_is_ham_cycle) for lv in report.levels] == [
        (True, True), (True, True), (False, True)
    ]
    assert checked == [53, 17]


@pytest.mark.parametrize(
    "n, text, level, code, builds",
    [
        (2, "abAB", 6, 0, [1, 6]),  # a Yes word: certify rechecks its level-1 quotient
        (3, "abABcc", 4, 0, [1, 4]),
    ],
)
def test_standard_generators_are_never_walked(monkeypatch, n, text, level, code, builds):
    # on a Yes word the kernel walks s alone, once at the top level; every
    # level's tree edges are read off the class numbering (tree_parents)
    calls = _spy(monkeypatch, quotients.build_quotient_local)
    assert main(["outerplanar", "-n", str(n), "-s", text, "-l", str(level)]) == code
    assert calls == [(n, [w(text, n)], lv) for lv in builds]


def test_a_failing_circle_builds_the_whole_level(monkeypatch):
    # abab is a No word, so certify builds no quotient; no level's circle is
    # a hamiltonian cycle, so each level builds its circle and then the whole
    # level, on the standard generators and s, for Mitchell's reduction
    calls = _spy(monkeypatch, quotients.build_quotient_local)
    assert main(["outerplanar", "-n", "2", "-s", "abab", "-l", "5"]) == 1
    s = w("abab")
    assert calls == [
        call for lv in range(5, 0, -1) for call in ((2, [s], lv), (2, tree_generators(2) + [s], lv))
    ]


def _tree_edges(n, size):
    """The pairs (parent(c), c) for the classes c >= 1 of a prefix quotient."""
    return list(zip(tree_parents(n, 1, size), range(1, size)))


def _walked_levels(n, text, top):
    """(level, circle quotient, its walk's positions) for levels top..1."""
    for level in range(top, 0, -1):
        g = build_quotient_local(n, [w(text, n)], level).graph
        yield level, g, cycle_positions(g)


@pytest.mark.parametrize(
    "n, text, top",
    [
        (2, "aabb", 6),
        (2, "abAB", 6),
        (2, "abaB", 6),
        (3, "aabbcc", 4),
        (3, "abABcc", 4),
        (4, "aabbccdd", 3),
    ],
)
def test_tree_chords_match_the_full_quotient_checks(n, text, top):
    # on a real walk, the tree chords alone decide what the chord check of
    # every edge and Mitchell's reduction decide on the whole quotient
    for level, g, pos in _walked_levels(n, text, top):
        assert pos is not None, (text, level)
        full = build_quotient_local(n, tree_generators(n) + [w(text, n)], level).graph
        every_edge = spans_nest([(u, v) for u, v, _ in full.edges], pos)
        outer = is_outerplanar(g, pos, _tree_edges(n, len(pos)))
        assert outer == every_edge == is_outerplanar(full), (text, level)


def _tree_spans_cross(labels, pos):
    """Whether two tree spans cross, pair by pair: the tree edge of a class
    joins it to the class of its label less the last letter."""
    index = {label: i for i, label in enumerate(labels)}
    spans = [
        tuple(sorted((pos[index[label[:-1] or "1"]], pos[c])))
        for c, label in enumerate(labels[1:], 1)
    ]
    return any(a < c < b < d for a, b in spans for c, d in spans)


@pytest.mark.parametrize("n, text, top", [(2, "aabb", 4), (2, "abAB", 4), (3, "abABcc", 3)])
def test_tree_chords_after_a_swap(n, text, top):
    # a real walk with two non-adjacent positions swapped is no walk, and
    # the tree chords are checked against the pairwise reference
    rng = random.Random(top)
    seen = set()
    for level, g, pos in _walked_levels(n, text, top):
        size = len(pos)
        assert not _tree_spans_cross(g.labels, pos)
        for _ in range(8):
            u, v = rng.sample(range(size), 2)
            if abs(pos[u] - pos[v]) in (1, size - 1):
                continue
            swapped = list(pos)
            swapped[u], swapped[v] = pos[v], pos[u]
            want = not _tree_spans_cross(g.labels, swapped)
            assert spans_nest(_tree_edges(n, size), swapped) == want, (text, level, u, v)
            seen.add(want)
    assert seen == {True, False}  # some swaps make the chords cross, some do not
