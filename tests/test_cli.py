import hashlib
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from hamcirc.cli import main
from hamcirc.quotients import build_quotient_local
from hamcirc.words import COUNT_CAP
from hamcirc.words import ReducedWord


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertifyCommand:
    def test_yes_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "-n", "2", "aabb")
        assert code == 0
        assert out.startswith("YES (unique)")

    def test_no_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "-n", "2", "a")
        assert code == 1
        assert "MissingGenerator" in out

    def test_unknown_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "-n", "2", "aaabbb")
        assert code == 2
        assert out.startswith("UNKNOWN")

    def test_gate_notes_the_skipped_closure_on_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "certify", "-n", "2", "aaabbb")
        assert (code, out) == (2, "UNKNOWN (Undecided)\n")
        assert err == (
            "note: orbit closure skipped: aaabbb is longer than 4 letters and its "
            "Whitehead graph is connected with no cut vertex, so no word of its "
            "orbit can decide\n"
        )
        code, out, err = run_cli(capsys, "certify", "-n", "2", "aaabbb", "--json")
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "verdict": "Unknown",
            "unique": False,
            "reason": "Undecided",
            "witness": None,
            "checked_levels": [],
        }

    def test_parse_error_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "certify", "-n", "2", "ab@b")
        assert code == 3
        assert "invalid character" in err

    def test_usage_error_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "certify", "aabb")  # missing -n
        assert code == 3

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "-n", "2", "aabb", "--json")
        doc = json.loads(out)
        assert doc == {
            "verdict": "Yes",
            "unique": True,
            "reason": "X1Cycle",
            "witness": None,
            "checked_levels": [1, 2, 3, 4],
        }

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "certify", "-n", "2", "abAB", "--json")
        _, second, _ = run_cli(capsys, "certify", "-n", "2", "abAB", "--json")
        assert first == second


class TestQuotientCommand:
    def test_writes_dot(self, capsys, tmp_path):
        out_path = tmp_path / "q.dot"
        code, out, _ = run_cli(
            capsys, "quotient", "-n", "2", "-s", "aabb", "-l", "1",
            "--dot", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("graph {")
        assert text.count(" -- ") == 5
        assert "cycle: yes" in out

    def test_level_zero_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "quotient", "-n", "2", "-s", "aabb", "-l", "0")
        assert code == 3

    def test_golden_dot(self, capsys, tmp_path):
        out_path = tmp_path / "golden.dot"
        run_cli(capsys, "quotient", "-n", "2", "-s", "aabb", "-l", "1",
                "--dot", str(out_path))
        assert out_path.read_text() == (
            "graph {\n"
            '  "1";\n'
            '  "a";\n'
            '  "A";\n'
            '  "b";\n'
            '  "B";\n'
            '  "1" -- "a" [label="aabb"];\n'
            '  "1" -- "B" [label="aabb"];\n'
            '  "a" -- "A" [label="aabb"];\n'
            '  "A" -- "b" [label="aabb"];\n'
            '  "b" -- "B" [label="aabb"];\n'
            "}\n"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # parallel edges with different tags, and penwidth highlights
            (
                ["quotient", "-n", "2", "-s", "aabb", "--with-tree", "-l", "3"],
                "684207c8241c3eda6793c655ca2e9ce4f8eb3f54507fcdd7106082ece05d9475",
            ),
            (
                ["cycletree", "-m", "4", "-n", "3", "-r", "2"],
                "c842debc88a7cdc467de5f18b04ec350f57745222fd75c9b101066b3294f4ff9",
            ),
            # the deepest full-generating-set levels of the outerplanar_full
            # benchmark, far beyond the enumeration oracle's differential
            # tests; about a third of their edges are parallel
            (
                ["quotient", "-n", "2", "-s", "abAB", "--with-tree", "-l", "7"],
                "e4cd77ac1ad244eac5b66ae953eadf8263d80f684795e07738b48478fd315669",
            ),
            (
                ["quotient", "-n", "3", "-s", "cbcaBA", "--with-tree", "-l", "5"],
                "a0c3803d6c44d87edd13b74293b30bb7c3d0e0e6b1129da0b1938a4d80af0fe7",
            ),
        ],
    )
    def test_golden_dot_digest(self, capsys, tmp_path, argv, digest):
        out_path = tmp_path / "golden.dot"
        code, _, _ = run_cli(capsys, *argv, "--dot", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("dot", [False, True])
    def test_builds_without_tuple_arithmetic(self, capsys, monkeypatch, tmp_path, dot):
        # the integer kernel orders parallel edges by the shortlex positions
        # of their ends, so no group word is formed, with or without the
        # tree generators (with them, a third of the edges are parallel)
        argvs = [
            ["quotient", "-n", "2", "-s", "aabb", "-l", "6", "--json"],
            ["quotient", "-n", "2", "-s", "abAB", "--with-tree", "-l", "5", "--json"],
            ["outerplanar", "-n", "2", "-s", "abAB", "-l", "5", "--json"],
        ]

        def run(argv, name):
            if not (dot and argv[0] == "quotient"):
                return run_cli(capsys, *argv)[:2]
            path = tmp_path / name
            code, out, _ = run_cli(capsys, *argv, "--dot", str(path))
            return code, out, path.read_bytes() if path.exists() else None

        expected = [run(argv, f"unpatched{i}.dot") for i, argv in enumerate(argvs)]

        def forbidden(*args):
            raise AssertionError("tuple arithmetic while building the quotient")

        for name in ("concat_letters", "word_key", "text_letters"):
            monkeypatch.setattr(f"hamcirc.quotients.{name}", forbidden)
        assert [result[0] for result in expected] == [0, 0, 0]
        assert [run(argv, f"patched{i}.dot") for i, argv in enumerate(argvs)] == expected

    def test_hot_paths_build_no_adjacency(self, capsys, monkeypatch, tmp_path):
        # the cycle test, the circle-order outerplanarity check and DOT
        # export read the edge list alone, so a quotient's is_cycle, a Yes
        # re-verified at levels 1-3 and an outerplanarity PASS (with its
        # certify precondition) build no per-vertex adjacency
        dot = tmp_path / "q.dot"
        argvs = [
            ["quotient", "-n", "2", "-s", "aabb", "-l", "6", "--dot", str(dot), "--json"],
            ["certify", "-n", "3", "abABcc", "--json"],
            ["outerplanar", "-n", "2", "-s", "abAB", "-l", "5", "--json"],
        ]
        expected = [run_cli(capsys, *argv)[:2] for argv in argvs]
        dot_bytes = dot.read_bytes()
        quotient, certificate, report = (json.loads(out) for _, out in expected)
        assert [code for code, _ in expected] == [0, 0, 0]
        assert quotient["is_cycle"] and quotient["vertices"] == 1457
        assert certificate["verdict"] == "Yes" and certificate["checked_levels"] == [1, 2, 3]
        assert all(lv["outerplanar"] and lv["circle_is_ham_cycle"] for lv in report["levels"])

        def no_adjacency(*args):
            raise AssertionError("a per-vertex adjacency was built")

        monkeypatch.setattr("hamcirc.multigraph._neighbour_sets", no_adjacency)
        dot.unlink()
        assert [run_cli(capsys, *argv)[:2] for argv in argvs] == expected
        assert dot.read_bytes() == dot_bytes

    def test_with_tree_highlights_circle(self, capsys, tmp_path):
        out_path = tmp_path / "full.dot"
        code, _, _ = run_cli(
            capsys, "quotient", "-n", "2", "-s", "aabb", "-l", "2",
            "--with-tree", "--dot", str(out_path),
        )
        assert code == 0
        assert "penwidth" in out_path.read_text()

    def test_with_tree_marks_no_edge_without_dot(self, capsys, monkeypatch, tmp_path):
        # the bold s-edges are looked for only when a DOT file is written
        argv = ["quotient", "-n", "2", "-s", "abAB", "--with-tree", "-l", "4", "--json"]
        expected = run_cli(capsys, *argv)

        def no_marks(*args):
            raise AssertionError("s-edges marked with no DOT file to write")

        monkeypatch.setattr("hamcirc.cli.edge_tag", no_marks)
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0 and json.loads(expected[1])["edges"] == 321
        code, _, err = run_cli(capsys, *argv, "--dot", str(tmp_path / "q.dot"))
        assert code == 4 and "s-edges marked" in err

    def test_dot_holds_one_copy_of_the_graph(self, capsys, tmp_path):
        # a DOT file is built in bounded chunks and written in bounded
        # slices, the kernel's edges become the graph's without a second
        # list of tuples, and the cycle test keeps no positions: the command
        # peaks near one built graph plus its DOT text, not several copies
        path = tmp_path / "q8.dot"
        argv = ["quotient", "-n", "2", "-s", "aabb", "-l", "8", "--dot", str(path), "--json"]
        run_cli(capsys, *argv)  # imports and caches settle before measuring
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q = build_quotient_local(2, [ReducedWord.parse("aabb", 2)], 8)
            retained = tracemalloc.get_traced_memory()[0] - base
            del q
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, out, _ = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["is_cycle"]
        dot_size = path.stat().st_size
        assert dot_size > 500_000
        assert peak <= 1.25 * (retained + 2 * dot_size), (peak, retained, dot_size)

    def test_multiple_words(self, capsys):
        code, out, _ = run_cli(
            capsys, "quotient", "-n", "2", "-s", "aabb", "-s", "abAB",
            "-l", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["generators"] == sorted(["aabb", "BBAA", "abAB", "baBA"])

    def test_enum_flag_is_gone(self, capsys):
        code, _, err = run_cli(
            capsys, "quotient", "-n", "2", "-s", "aabb", "-l", "2", "--enum"
        )
        assert code == 3
        assert "--enum" in err


class TestOtherCommands:
    def test_cycletree_pass(self, capsys):
        code, out, _ = run_cli(capsys, "cycletree", "-m", "3", "-n", "2", "-r", "1")
        assert code == 0
        assert "cycle of length 6: PASS" in out

    def test_cycletree_dot_builds_each_truncation_once(self, capsys, tmp_path, monkeypatch):
        import hamcirc.freeproduct as freeproduct

        calls = []
        build = freeproduct.build_truncation

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(freeproduct, "build_truncation", counting)
        # an import by name in the CLI would bypass the module attribute
        monkeypatch.setattr("hamcirc.cli.build_truncation", counting, raising=False)
        out_path = tmp_path / "circle.dot"
        code, _, _ = run_cli(
            capsys, "cycletree", "-m", "3", "-n", "2", "-r", "3", "--dot", str(out_path)
        )
        assert code == 0
        assert len(calls) == 3  # the full truncation at depths 1..3
        assert out_path.read_text().count(" -- ") == 42  # the depth-3 circle

    def test_cycletree_sizes_its_deepest_depth_first(self, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a truncation was built before the budget check")

        monkeypatch.setattr("hamcirc.freeproduct.build_truncation", no_build)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "cycletree", "-m", "3", "-n", "2", "-r", "10000")
        assert time.perf_counter() - start < 1.0  # about 1 ms
        assert code == 3
        assert out == ""
        assert err == f"error: more than {COUNT_CAP} classes exceeds 100000\n"

    def test_cycletree_json(self, capsys):
        code, out, _ = run_cli(capsys, "cycletree", "-m", "4", "-n", "2", "-r", "2", "--json")
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["depths"][0]["classes"] == 8

    def test_classify_squares(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "-n", "3", "abABcc")
        assert code == 0
        assert out.splitlines()[0] == "Squares"
        assert "witness:" in out

    def test_classify_none(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "-n", "2", "abab")
        assert code == 0
        assert out.strip() == "None"

    def test_finite_counts(self, capsys):
        code, out, _ = run_cli(capsys, "finite", "cyclic:8:1,2")
        assert code == 0
        assert out.strip() == "hamiltonian cycles: 29, unique: no"

    def test_finite_unique(self, capsys):
        code, out, _ = run_cli(capsys, "finite", "dihedral:10:a,b")
        assert out.strip() == "hamiltonian cycles: 1, unique: yes"

    def test_finite_dot_builds_the_graph_once(self, capsys, tmp_path, monkeypatch):
        import hamcirc.finite as finite

        calls = []
        build = finite.build_finite_cayley

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(finite, "build_finite_cayley", counting)
        # an import by name in the CLI would bypass the module attribute
        monkeypatch.setattr("hamcirc.cli.build_finite_cayley", counting, raising=False)
        out_path = tmp_path / "finite.dot"
        code, out, _ = run_cli(capsys, "finite", "dihedral:10:a,b", "--dot", str(out_path))
        assert code == 0
        assert out.strip() == "hamiltonian cycles: 1, unique: yes"
        assert len(calls) == 1
        assert out_path.read_text() == build(finite.parse_spec("dihedral:10:a,b")).to_dot()

    def test_finite_refuses_a_large_order_before_building(self, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the graph was built before its size was checked")

        monkeypatch.setattr("hamcirc.finite.build_finite_cayley", no_build)
        monkeypatch.setattr("hamcirc.cli.build_finite_cayley", no_build)
        for spec in ("cyclic:300000:1", "dihedral:22:a,b"):
            code, out, err = run_cli(capsys, "finite", spec)
            order = spec.split(":")[1]
            assert (code, out) == (3, "")
            assert err == f"error: graph too large for enumeration: {order} > 20\n"

    def test_finite_bad_spec(self, capsys):
        code, _, err = run_cli(capsys, "finite", "ring:5:1")
        assert code == 3

    def test_outerplanar_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "outerplanar", "-n", "2", "-s", "aabb", "-l", "2"
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_outerplanar_negative_control(self, capsys):
        code, out, err = run_cli(
            capsys, "outerplanar", "-n", "2", "-s", "abab", "-l", "2"
        )
        assert code == 1
        assert "warning" in err
        assert out.strip().endswith("FAIL")

    def test_outerplanar_builds_each_level_once(self, capsys, monkeypatch):
        import hamcirc.outerplanar as outerplanar

        calls = []
        build = outerplanar.build_quotient_local

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(outerplanar, "build_quotient_local", counting)
        code, out, _ = run_cli(capsys, "outerplanar", "-n", "2", "-s", "aabb", "-l", "3")
        assert code == 0
        assert out.count("outerplanar: yes") == 3  # every level is reported
        # one full quotient, at the top level; the shallower ones are its contractions
        assert [args[2] for args in calls] == [3]

    def test_outerplanar_json_schema(self, capsys):
        _, out, _ = run_cli(
            capsys, "outerplanar", "-n", "2", "-s", "aabb", "-l", "2", "--json"
        )
        doc = json.loads(out)
        assert set(doc) == {"word", "levels"}


class TestEnvironmentOverrides:
    """The one orbit budget is the module constant minimize.ORBIT_CAP: no
    command takes a cap, and no environment variable sets one."""

    def test_flag_bounds_the_closure(self, capsys, monkeypatch):
        # aBAb has length 2n, so classify runs its closure, whose third word
        # is abAB: a cap of 3 words admits it
        monkeypatch.setattr("hamcirc.minimize.ORBIT_CAP", 3)
        code, out, _ = run_cli(capsys, "classify", "-n", "2", "aBAb")
        assert code == 0 and out.startswith("Commutators\n")

    def test_constant_is_read_when_classify_runs(self, capsys, monkeypatch):
        # the closure passes 2 words before it reaches abAB
        monkeypatch.setattr("hamcirc.minimize.ORBIT_CAP", 2)
        code, out, err = run_cli(capsys, "classify", "-n", "2", "aBAb")
        assert (code, out) == (3, "")
        assert err == "error: orbit closure exceeded cap of 2 words\n"
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "classify", "-n", "2", "aBAb")
        assert code == 0 and out.startswith("Commutators\n")

    def test_classify_cap_exceeded_is_clean_error(self, capsys, monkeypatch):
        # aaaa has orbit-minimal length 4 and a four-word closure, so a cap
        # of 2 is exceeded before the (absent) canonical word can be found
        monkeypatch.setattr("hamcirc.minimize.ORBIT_CAP", 2)
        code, _, err = run_cli(capsys, "classify", "-n", "2", "aaaa")
        assert code == 3
        assert "cap" in err

    def test_classify_has_no_cap_flag(self, capsys):
        code, out, err = run_cli(capsys, "classify", "-n", "2", "aBAb", "--orbit-cap", "2")
        assert (code, out) == (3, "")
        assert err == "error: unrecognized arguments: --orbit-cap 2\n"

    def test_certify_has_no_cap_and_the_environment_sets_none(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, "certify", "-n", "2", "aabb", "--orbit-cap", "5")
        assert (code, out) == (3, "")
        assert err == "error: unrecognized arguments: --orbit-cap 5\n"
        monkeypatch.setenv("HAMCIRC_ORBIT_CAP", "0")
        code, out, _ = run_cli(capsys, "classify", "-n", "2", "aabb")
        assert (code, out) == (0, "Squares\nwitness: \n")


class TestQuotientBudget:
    @pytest.mark.parametrize("argv", [
        ["quotient", "-n", "2", "-s", "aabb", "-l", "14"],
        ["outerplanar", "-n", "2", "-s", "aabb", "-l", "14"],
        ["certify", "-n", "2", "aabb", "--max-level", "14"],
    ])
    def test_over_budget_level_exits_three_before_enumerating(self, capsys, monkeypatch, argv):
        def no_enumeration(*args):
            raise AssertionError("words enumerated before the budget check")

        monkeypatch.setattr("hamcirc.quotients.shortlex_words", no_enumeration)
        monkeypatch.setattr("hamcirc.quotients.shortlex_labels", no_enumeration)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: 9565937 classes exceeds 500000\n"

    @pytest.mark.parametrize("argv", [
        ["quotient", "-n", "2", "-s", "aabb", "-l", "10000"],
        ["outerplanar", "-n", "2", "-s", "aabb", "-l", "10000"],
        ["certify", "-n", "2", "aabb", "--max-level", "10000"],
    ])
    def test_huge_level_is_refused_without_a_huge_count(self, capsys, monkeypatch, argv):
        def no_enumeration(*args):
            raise AssertionError("words enumerated before the budget check")

        monkeypatch.setattr("hamcirc.quotients.shortlex_words", no_enumeration)
        monkeypatch.setattr("hamcirc.quotients.shortlex_labels", no_enumeration)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0  # about 2 ms
        assert code == 3
        assert out == ""
        assert err == f"error: more than {COUNT_CAP} classes exceeds 500000\n"

    def test_no_verdict_builds_no_quotient(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "-n", "2", "abab", "--max-level", "14")
        assert code == 1
        assert out.startswith("NO")


class TestMoveBudget:
    """A word that needs minimization at a rank whose elementary set is over
    MOVE_BUDGET is refused before any move is built."""

    @pytest.mark.parametrize("argv,count", [
        (["certify", "-n", "8", "abcdefghabcdefgha"], "302720"),
        (["classify", "-n", "26", "abcdefghijklmnopqrstuvwxyzz"], f"more than {COUNT_CAP}"),
    ])
    def test_over_budget_rank_exits_three_in_time(self, capsys, monkeypatch, argv, count):
        def no_moves(*args):
            raise AssertionError("an automorphism was built before the budget check")

        monkeypatch.setattr("hamcirc.automorphisms.FGAutomorphism.from_moves", no_moves)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: {count} elementary moves exceeds 100000\n"

    def test_level_one_cycle_never_minimizes(self, capsys):
        word = "".join(chr(ord("a") + i) * 2 for i in range(26))
        code, out, _ = run_cli(capsys, "certify", "-n", "26", word, "--max-level", "1")
        assert code == 0
        assert out == "YES (unique)\nquotient cycles verified at levels [1]\n"


class TestInternalErrors:
    def test_orbit_inconsistency_exits_four(self, capsys, monkeypatch):
        # a "minimized" word that uses every generator, but whose Whitehead
        # graph (B - a, A - b) is disconnected, contradicts the lemma
        monkeypatch.setattr(
            "hamcirc.certifier.whitehead_minimize",
            lambda word: (ReducedWord.parse("abab", 2), ()),
        )
        code, out, err = run_cli(capsys, "certify", "-n", "2", "aaab")
        assert (code, out) == (4, "")
        assert err.startswith(
            "internal error: CertifierInternalError: abab, the minimized form of "
            "aaab, uses every generator, but its Whitehead graph is not one block\n"
        )

    @pytest.mark.parametrize("fault", [KeyError, IndexError])
    def test_unexpected_exception_exits_four(self, capsys, monkeypatch, fault):
        def broken(*args, **kwargs):
            raise fault("class lookup failed")

        monkeypatch.setattr("hamcirc.cli.build_quotient_local", broken)
        code, out, err = run_cli(capsys, "quotient", "-n", "2", "-s", "aabb", "-l", "2")
        assert code == 4
        assert out == ""
        assert err.startswith(f"internal error: {fault.__name__}: ")
        assert "Traceback" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hamcirc.cli", "certify", "-n", "2", "aabb"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("YES")
