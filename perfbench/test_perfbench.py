"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import contextlib
import io
import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from hamcirc import certifier, cli
from hamcirc.freeproduct import build_truncation, enumerate_fp_words, gen_a, gen_ab
from hamcirc.minimize import minimal_orbit, orbit_minimal_set, whitehead_minimize
from hamcirc.words import ReducedWord

from inputs import (
    BLOCK_WORDS,
    HEAVY_WORDS,
    census_block,
    circle_pool,
    count_reduced_words,
    fp_class_count,
    fp_normal_forms,
    is_circle_word,
    is_cyclically_reduced,
    letter_counts,
    parse_word,
    symmetric_image,
)
from speed import NOMINAL_S, SpeedMeter
from tracing import PER_LAYER, Span, Tracer, self_times
from worker import summary

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_census_sampler_is_deterministic_and_cyclically_reduced():
    circles = circle_pool(3)
    block = census_block(random.Random(5), 0, circles)
    assert block == census_block(random.Random(5), 0, circles)
    assert block != census_block(random.Random(6), 0, circles)
    assert len(block) == BLOCK_WORDS
    for n, text, _heavy in block:
        letters = parse_word(text)
        assert is_cyclically_reduced(letters)
        assert max(abs(x) for x in letters) <= n
    shape = Counter((n, len(text), heavy) for n, text, heavy in block)
    assert sum(c for (n, _, _), c in shape.items() if n == 2) == 970
    assert {length for (n, length, _) in shape if n == 2} == set(range(4, 11))
    assert shape[(3, 6, False)] == 14 and shape[(3, 7, False)] == 15
    assert shape[(3, 7, True)] == 1
    rank3 = [parse_word(text) for n, text, heavy in block if n == 3 and not heavy]
    assert sum(is_circle_word(w, 3) for w in rank3) == 2
    assert all(sorted(letter_counts(w, 3)) != [2, 2, 3] for w in rank3 if len(w) == 7)


def test_heavy_words_are_minimal_and_keep_their_closure_size():
    for text in HEAVY_WORDS:
        w = ReducedWord.parse(text, 3)
        assert len(whitehead_minimize(w)[0]) == 7
        assert sorted(letter_counts(w.letters, 3)) == [2, 2, 3]
    rng = random.Random(1)
    base = ReducedWord.parse("BCAbabc", 3)  # a cheaper orbit of the same kind
    image = ReducedWord(symmetric_image(rng, base.letters, 3), 3)
    assert len(minimal_orbit(image).parents) == len(minimal_orbit(base).parents) == 1008


@pytest.mark.parametrize("n,seeds", [(2, ["aabb", "abAB"]), (3, ["aabbcc"])])
def test_circle_pool_is_the_minimal_orbit(n, seeds):
    orbit = {str(w) for s in seeds for w in orbit_minimal_set(ReducedWord.parse(s, n))}
    pool = circle_pool(n)
    assert set(pool) == orbit
    assert all(certifier.level_one_quotient(ReducedWord.parse(w, n)).is_cycle() for w in pool)


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("z", 1.0, 4.0, 0, 1),  # child names sort against their time order
        Span("z.child", 2.0, 3.0, 1, 1),
        Span("a", 5.0, 9.0, 0, 1),
        Span("other", 20.0, 26.0, -1, 2),
        Span("y", 21.0, 22.0, 4, 2),
        Span("b", 23.0, 25.0, 4, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 3.0, 1.0, 2.0])


def _trace(argvs):
    tracer = Tracer()
    tracer.install()
    try:
        for argv in argvs:
            tracer.command += 1
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_wraps_import_sites_and_restores_them():
    original = certifier.certify
    tracer = _trace([["certify", "-n", "2", "aabb", "--json"]])
    assert cli.certify is original and certifier.certify is original
    names = {sp.name: sp for sp in tracer.spans}
    root = tracer.spans.index(names["cli.main"])
    assert names["certifier.certify"].parent == root
    assert names["quotients.build_quotient_local"].command == 1
    metrics = tracer.metrics(1.0)
    assert metrics["certifier.verdict.yes"] == 1
    assert metrics["quotients.build_quotient_local.calls"] == 4
    assert list(metrics) == list(PER_LAYER)


def test_every_traced_function_is_reached_and_self_times_add_up(tmp_path):
    dot = str(tmp_path / "g.dot")
    tracer = _trace([
        ["certify", "-n", "2", "abAB", "--json"],  # a Yes reached by a Whitehead chain
        ["classify", "-n", "2", "aabb", "--json"],
        ["quotient", "-n", "2", "-s", "aabb", "-l", "3", "--dot", dot, "--json"],
        ["outerplanar", "-n", "2", "-s", "aabb", "-l", "2", "--json"],
        ["cycletree", "-m", "3", "-n", "2", "-r", "2", "--json"],
    ])
    metrics = tracer.metrics(1.0)
    called = [name for name in PER_LAYER if name.endswith(".calls")]
    assert len(called) == 13
    assert [name for name in called if metrics[name] == 0] == []
    top = sum(sp.end - sp.start for sp in tracer.spans if sp.parent < 0)
    assert sum(self_times(tracer.spans)) == pytest.approx(top)
    assert 0 < metrics["cli.main.self_s"] < top


def test_speed_factor_uses_the_samples_around_a_command():
    meter = SpeedMeter()
    meter.times = [0.0, 0.2, 3.0, 3.1]
    meter.samples = [NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S]
    assert meter.factor(0.0, 0.2) == 1.0  # the later, slower samples are > 1 s away
    assert meter.factor(3.0, 3.1) == 0.5
    assert meter.factor(0.2, 3.0) == pytest.approx(2 / 3)  # median of 1, 1, 2, 2 times nominal
    assert meter.factor(10.0, 10.1) == 0.5  # no sample within 1 s: the nearest one


def test_speed_meter_samples_inside_a_long_computation():
    with SpeedMeter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
    assert len(meter.samples) >= 2
    assert 0 < meter.paused < 0.5


@pytest.mark.parametrize("m,n", [(3, 2), (4, 3), (5, 2), (3, 4)])
def test_fp_normal_form_count_closed_form(m, n):
    for max_b in range(0, 4):
        assert fp_normal_forms(m, n, max_b) == sum(1 for _ in enumerate_fp_words(m, n, max_b))
    for depth in (1, 2):
        for gens in ([gen_ab(m, n)], [gen_a(m, n), gen_ab(m, n)]):
            q = build_truncation(m, n, gens, depth)
            assert q.graph.n_vertices == fp_class_count(m, n, depth)


def test_fp_golden_table():
    assert [fp_class_count(4, 3, r) for r in range(1, 5)] == [12, 84, 516, 3108]
    assert fp_normal_forms(4, 3, 5) == 49764


def test_reduced_word_count():
    assert [count_reduced_words(2, L) for L in range(4)] == [1, 5, 17, 53]
    assert count_reduced_words(2, 9) == 39365 and count_reduced_words(3, 6) == 23437


def test_benchmark_json_lists_every_end_to_end_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", *summary(1, [1.0], 1.0)]
