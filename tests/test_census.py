"""A seeded sample of the census golden, replayed through the command line.

The whole file is replayed by ``python3 tests/census_golden.py`` (a CI
step of its own); this sample covers every (verdict, reason) pair and every
classify kind in it, and runs within a few seconds.
"""

import json
import random

import pytest

import hamcirc.certifier as certifier
from census_golden import census_words, load
from hamcirc.automorphisms import parse_move
from hamcirc.cli import main
from hamcirc.minimize import minimal_orbit
from hamcirc.words import ReducedWord

SAMPLE = 300
EXIT = {"Yes": 0, "No": 1, "Unknown": 2}


def outcome(line):
    return line["certify"]["verdict"], line["certify"]["reason"], line["classify"]["kind"]


@pytest.fixture(scope="module")
def golden():
    return load()


@pytest.fixture(scope="module")
def sample(golden):
    """SAMPLE seeded lines, plus the first line of each outcome they miss."""
    picked = set(random.Random(9).sample(range(len(golden)), SAMPLE))
    seen = {outcome(golden[i]) for i in picked}
    for i, line in enumerate(golden):
        if outcome(line) not in seen:
            seen.add(outcome(line))
            picked.add(i)
    return [golden[i] for i in sorted(picked)]


def test_golden_lists_every_census_word(golden):
    assert len(golden) == 9856 + 19548
    assert [(line["n"], line["word"]) for line in golden] == list(census_words())


def test_sample_covers_every_outcome(golden, sample):
    pairs = {(line["certify"]["verdict"], line["certify"]["reason"]) for line in golden}
    kinds = {line["classify"]["kind"] for line in golden}
    assert kinds == {None, "Squares", "Commutators"}
    assert pairs == {
        ("Yes", "X1Cycle"),
        ("No", "MissingGenerator"),
        ("No", "X1NotCycleDegreeTwo"),
        ("Unknown", "Undecided"),
    }
    assert {(line["certify"]["verdict"], line["certify"]["reason"]) for line in sample} == pairs
    assert {line["classify"]["kind"] for line in sample} == kinds


def test_certify_runs_no_orbit_closure(sample, monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("certify called minimal_orbit")

    closures = []

    def counted(*args, **kwargs):
        closures.append(args)
        return minimal_orbit(*args, **kwargs)

    monkeypatch.setattr(certifier, "minimal_orbit", no_closure)
    for line in sample:
        word = ReducedWord.parse(line["word"], line["n"])
        assert certifier.certify(line["n"], word).to_json_dict() == line["certify"], line
    monkeypatch.setattr(certifier, "minimal_orbit", counted)
    for line in sample:
        word = ReducedWord.parse(line["word"], line["n"])
        assert certifier.classify(line["n"], word).to_json_dict() == line["classify"], line
    assert len(closures) > 20  # classify still searches the orbit


def test_sample_replays_through_the_cli(sample, capsys):
    mismatches = []
    for line in sample:
        n, word = str(line["n"]), line["word"]
        for command, expected_code in (
            ("certify", EXIT[line["certify"]["verdict"]]),
            ("classify", 0),
        ):
            code = main([command, "-n", n, word, "--json"])
            got = json.loads(capsys.readouterr().out)
            if (code, got) != (expected_code, line[command]):
                mismatches.append((command, n, word, code, got, line[command]))
    assert not mismatches


def test_sample_witness_moves_round_trip(sample):
    # the golden's witnesses are chain_moves output, as the CLI replay above
    # checks; each move string must parse to the move that prints it
    texts = {
        text
        for line in sample
        for command in ("certify", "classify")
        for text in line[command]["witness"] or ()
    }
    assert len(texts) > 10
    assert all(str(parse_move(text)) == text for text in texts)
