import pytest

from hamcirc.finite import FiniteCayleySpec, build_finite_cayley, connection_elements, parse_spec
from hamcirc.multigraph import enumerate_hamiltonian_cycles
from oracles import (
    corpus_graphs,
    corpus_names,
    edges_between,
    load_corpus_graph,
    second_cycle_cyclic,
    verify_unique_finite,
)


class TestSpecParsing:
    def test_round_trip(self):
        spec = parse_spec("cyclic:8:1,2")
        assert spec == FiniteCayleySpec("cyclic", 8, ("1", "2"))
        assert str(spec) == "cyclic:8:1,2"

    def test_dihedral(self):
        spec = parse_spec("dihedral:10:a,b")
        assert spec.family == "dihedral" and spec.size == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_spec("ring:5:1")
        with pytest.raises(ValueError):
            parse_spec("dihedral:7:a,b")
        with pytest.raises(ValueError):
            parse_spec("cyclic:8:")
        with pytest.raises(ValueError):
            parse_spec("cyclic:8:8")  # identity element
        with pytest.raises(ValueError):
            parse_spec("dihedral:8:ab@")

    def test_symmetric_closure(self):
        assert connection_elements(parse_spec("cyclic:8:1,2")) == [1, 2, 6, 7]
        # rotation ab needs (ab)^-1 = ba added
        els = connection_elements(parse_spec("dihedral:10:(ab)^1"))
        assert len(els) == 2


class TestBuild:
    def test_cyclic_pm_one_is_cycle(self):
        g = build_finite_cayley(parse_spec("cyclic:6:1"))
        assert g.is_cycle() and g.n_vertices == 6

    def test_dihedral_two_reflections_is_cycle(self):
        g = build_finite_cayley(parse_spec("dihedral:10:a,b"))
        assert g.is_cycle() and g.n_vertices == 10

    def test_circulant_four_regular(self):
        g = build_finite_cayley(parse_spec("cyclic:8:1,2"))
        assert g.degrees() == [4] * 8

    def test_dihedral_with_extra_reflection_is_cubic(self):
        g = build_finite_cayley(parse_spec("dihedral:12:a,b,aba"))
        assert g.degrees() == [3] * 12


class TestSecondCycle:
    def test_example_n8_s2(self):
        assert second_cycle_cyclic(8, 2) == (0, 2, 1, 3, 4, 5, 6, 7)

    def test_n7_s3_is_hamiltonian(self):
        cyc = second_cycle_cyclic(7, 3)
        assert sorted(cyc) == list(range(7))
        g = build_finite_cayley(parse_spec("cyclic:7:1,3"))
        for i in range(7):
            u, v = cyc[i], cyc[(i + 1) % 7]
            assert edges_between(g, u, v)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            second_cycle_cyclic(6, 5)
        with pytest.raises(ValueError):
            second_cycle_cyclic(6, 1)

    def test_distinct_from_standard_cycle(self):
        for n in range(5, 11):
            for s in range(2, n - 1):
                cyc = second_cycle_cyclic(n, s)
                assert cyc != tuple(range(n))


class TestUniqueness:
    def test_plain_cycle_unique(self):
        assert verify_unique_finite(parse_spec("cyclic:9:1")) == (1, True)

    def test_circulant_not_unique(self):
        count, unique = verify_unique_finite(parse_spec("cyclic:8:1,2"))
        assert count >= 2 and not unique

    def test_cubic_dihedral_not_unique(self):
        count, unique = verify_unique_finite(parse_spec("dihedral:12:a,b,aba"))
        assert count >= 2 and count % 2 == 0 and not unique

    def test_large_order_refused_before_building(self, monkeypatch):
        assert verify_unique_finite(parse_spec("cyclic:20:1")) == (1, True)  # at the cap

        def no_build(*args, **kwargs):
            raise AssertionError("the graph was built before its size was checked")

        monkeypatch.setattr("hamcirc.finite.build_finite_cayley", no_build)
        with pytest.raises(ValueError, match=r"^graph too large for enumeration: 300000 > 20$"):
            verify_unique_finite(parse_spec("cyclic:300000:1"))
        with pytest.raises(ValueError, match=r"^graph too large for enumeration: 22 > 20$"):
            verify_unique_finite(parse_spec("dihedral:22:a,b"))


class TestCorpus:
    def test_names_present(self):
        names = corpus_names()
        for expected in (
            "k4", "k33", "petersen", "mobius_kantor",
            "prism_6", "prism_8", "prism_10", "prism_12",
        ):
            assert expected in names

    def test_graphs_load(self):
        graphs = corpus_graphs()
        assert graphs["petersen"].n_vertices == 10
        assert graphs["mobius_kantor"].n_vertices == 16
        assert graphs["k33"].degrees() == [3] * 6

    def test_small_non_cycles_not_uniquely_hamiltonian(self):
        for name, g in corpus_graphs().items():
            if g.n_vertices > 10 or g.is_cycle():
                continue
            count = len(enumerate_hamiltonian_cycles(g))
            assert count != 1, name

    def test_cycles_in_corpus_are_uniquely_hamiltonian(self):
        for name in ("cycle_5", "cycle_7", "cycle_10"):
            g = load_corpus_graph(name)
            assert len(enumerate_hamiltonian_cycles(g)) == 1


def test_second_cycle_appears_in_enumeration():
    g = build_finite_cayley(parse_spec("cyclic:8:1,2"))
    cycles = enumerate_hamiltonian_cycles(g)
    target = second_cycle_cyclic(8, 2)
    # canonicalize: start at 0, smaller second vertex
    idx = target.index(0)
    rotated = target[idx:] + target[:idx]
    if rotated[1] > rotated[-1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    assert tuple(rotated) in cycles
