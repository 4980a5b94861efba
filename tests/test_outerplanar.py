import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hamcirc
from hamcirc.multigraph import is_outerplanar
from hamcirc.outerplanar import tree_generators, verify_outerplanar_quotient
from hamcirc.quotients import EnumerationBudgetExceeded, build_quotient_local
from hamcirc.words import ReducedWord, count_reduced_words


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


class TestCertifiedWords:
    def test_squares_levels(self):
        report = verify_outerplanar_quotient(2, w("aabb"), 3)
        assert report.precondition_ok and report.passed
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
        assert g.degree(one) == 6
        circle = [e for e in g.edges if e.tag == "aabb"]
        assert len(circle) == 5
        for v in range(g.n_vertices):
            if v != one:
                assert g.edges_between(one, v)


class TestNegativeControl:
    def test_abab_fails_circle_subcheck(self):
        report = verify_outerplanar_quotient(2, w("abab"), 2)
        assert not report.precondition_ok
        assert report.verdict == "No"
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

    def test_budget_checked_before_certify(self, monkeypatch):
        def no_certify(*args, **kwargs):
            raise AssertionError("certify ran before the budget check")

        monkeypatch.setattr("hamcirc.outerplanar.certify", no_certify)
        with pytest.raises(EnumerationBudgetExceeded, match="^1062881 classes"):
            verify_outerplanar_quotient(2, w("aabb"), 12)


def test_level_one_quotients_agree_with_minor_oracle():
    from hamcirc.multigraph import is_outerplanar, outerplanar_by_minor_search
    from hamcirc.outerplanar import tree_generators
    from hamcirc.quotients import build_quotient_local

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
