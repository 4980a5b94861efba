"""The four benchmark workloads: their CLI commands and correctness checks.

A workload yields blocks of items.  An item is the set of commands whose
summed time is one latency sample (a census word: certify then classify;
elsewhere one round of the workload's commands).  Each item's check
raises ``CheckFailed`` on a wrong answer and otherwise returns the units
the item completed.  A run measures whole blocks and at least
``min_items`` items, so census always covers at least 1000 words.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from hamcirc.automorphisms import FGAutomorphism, apply_chain, parse_move
from hamcirc.quotients import build_quotient_enum, build_quotient_local, quotients_equal
from hamcirc.words import ReducedWord

from inputs import (
    BLOCK_WORDS,
    census_block,
    circle_pool,
    count_reduced_words,
    fp_class_count,
    inverse_text,
    letter_counts,
    level_one_is_cycle,
    parse_word,
)

DEFAULT_SEED = 0
GOLDENS_PATH = Path(__file__).parent / "goldens.json"
EXIT_OF_VERDICT = {"Yes": 0, "No": 1, "Unknown": 2}


class CheckFailed(Exception):
    pass


class Result(NamedTuple):
    code: int
    out: str
    err: str


class Item(NamedTuple):
    argvs: list[list[str]]
    check: Callable[[list[Result]], int]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(res: Result, argv: list[str], code: int = 0) -> dict:
    _require(res.code == code, f"{' '.join(argv)}: exit {res.code}, want {code}: {res.err.strip()}")
    try:
        return json.loads(res.out)
    except ValueError:
        raise CheckFailed(f"{' '.join(argv)}: stdout is not JSON")


def golden(workload: str, key: str) -> str:
    """The recorded digest of this commit's output (goldens.json)."""
    return json.loads(GOLDENS_PATH.read_text())[workload][key]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dot_counts(path: str) -> tuple[int, int]:
    vertices = edges = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if " -- " in line:
                edges += 1
            elif line.startswith('  "'):
                vertices += 1
    return vertices, edges


def _replay(moves: list[str], word: ReducedWord) -> ReducedWord:
    chain = [FGAutomorphism.from_moves((parse_move(m),), word.rank) for m in moves]
    return apply_chain(chain, word)


class Workload:
    name = ""
    min_items = 1  # a run measures at least this many items

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.dot_path = str(outdir / f"{self.name}-{os.getpid()}.dot")

    def warmup(self) -> list[list[str]]:
        """Tiny commands that trigger the lazy set-up the workload needs."""
        raise NotImplementedError

    def blocks(self) -> Iterator[list[Item]]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks made once, outside the timed phase; returns the failures."""
        return []

    def close(self) -> None:
        if os.path.exists(self.dot_path):
            os.remove(self.dot_path)

    def _golden(self, key: str, got: str) -> list[str]:
        want = golden(self.name, key)
        if got != want:
            return [f"{self.name} {key} digest {got} != golden {want}"]
        return []


class Census(Workload):
    """certify --json then classify --json on a seeded census of words."""

    name = "census"
    min_items = 2 * BLOCK_WORDS

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        self.circles = circle_pool(3)
        self.first_blocks = [census_block(self.rng, i, self.circles) for i in range(2)]
        self.digest_lines: list[str] = []

    def warmup(self):
        return [
            [cmd, "-n", str(n), w, "--json"]
            for n, w in ((2, "aabb"), (3, "aabbcc"))
            for cmd in ("certify", "classify")
        ]

    def blocks(self):
        for block in self.first_blocks:
            yield [self._item(n, w, heavy, True) for n, w, heavy in block]
        index = len(self.first_blocks)
        while True:
            block = census_block(self.rng, index, self.circles)
            yield [self._item(n, w, heavy, False) for n, w, heavy in block]
            index += 1

    def _item(self, n: int, text: str, heavy: bool, record: bool) -> Item:
        cert_argv = ["certify", "-n", str(n), text, "--json"]
        cls_argv = ["classify", "-n", str(n), text, "--json"]

        def check(results: list[Result]) -> int:
            cert_res, cls_res = results
            _require(cert_res.code in (0, 1, 2), f"{text}: certify exit {cert_res.code}: {cert_res.err.strip()}")
            cert = _json(cert_res, cert_argv, cert_res.code)
            verdict, reason = cert["verdict"], cert["reason"]
            _require(EXIT_OF_VERDICT.get(verdict) == cert_res.code, f"{text}: exit {cert_res.code} for {verdict}")
            word = ReducedWord.parse(text, n)
            image = word if cert["witness"] is None else _replay(cert["witness"], word)
            gens = set(range(1, n + 1))
            if verdict == "Yes":
                _require(reason == "X1Cycle", f"{text}: Yes with reason {reason}")
                _require(level_one_is_cycle(image.letters, n), f"{text}: Yes but level-1 quotient of {image} is not a cycle")
                levels = list(range(1, (4 if n == 2 else 3) + 1))
                _require(cert["checked_levels"] == levels, f"{text}: checked levels {cert['checked_levels']}")
            elif verdict == "No" and reason == "MissingGenerator":
                _require(cert["witness"] is not None, f"{text}: MissingGenerator without witness")
                _require({abs(x) for x in image.letters} != gens, f"{text}: image {image} uses every generator")
            elif verdict == "No" and reason == "X1NotCycleDegreeTwo":
                _require(all(c == 2 for c in letter_counts(image.letters, n)), f"{text}: degree-two No on {image}")
                _require(not level_one_is_cycle(image.letters, n), f"{text}: No but {image} has a cycle quotient")
            else:
                _require(verdict == "Unknown" and reason == "Undecided", f"{text}: verdict {verdict} reason {reason}")
                _require(cert["witness"] is None, f"{text}: Unknown with a witness")
            _require(not heavy or verdict == "Unknown", f"{text}: heavy orbit word answered {verdict}")
            unique = verdict == "Yes" and max(letter_counts(word.letters, n)) <= 2
            _require(cert["unique"] == unique, f"{text}: unique flag {cert['unique']}")

            form = _json(cls_res, cls_argv)
            kind = form["kind"]
            _require(kind in (None, "Squares", "Commutators"), f"{text}: kind {kind}")
            if kind is not None:
                _require(verdict == "Yes", f"{text}: classified {kind} but verdict {verdict}")
                target = "".join(c + c for c in "abcdefghijklmnopqrstuvwxyz"[:n])
                if kind == "Commutators":
                    target = "".join(
                        a + b + a.upper() + b.upper()
                        for a, b in zip("acegikmoqsuwy"[: n // 2], "bdfhjlnprtvxz")
                    )
                got = _replay(form["witness"], word)
                _require(str(got) == target, f"{text}: classify witness leads to {got}, not {target}")
            else:
                _require(form["witness"] is None, f"{text}: unclassified with a witness")
            if record:
                self.digest_lines.append(f"{text}\t{verdict}\t{reason}\t{cert['unique']}\n")
            return 1

        return Item([cert_argv, cls_argv], check)

    def final_checks(self):
        if self.seed != DEFAULT_SEED:
            return []
        digest = hashlib.sha256("".join(self.digest_lines).encode()).hexdigest()
        return self._golden("verdicts", digest)


class CircleRounds(Workload):
    """Rounds of one command per rank in LEVELS, each on a circle word of
    that rank drawn by seed (``circle_pool``)."""

    LEVELS: dict[int, int] = {}

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        self.pools = {n: circle_pool(n) for n in self.LEVELS}
        self.first_words: dict[int, str] = {}

    def blocks(self):
        while True:
            words = {n: self.rng.choice(self.pools[n]) for n in self.LEVELS}
            self.first_words = self.first_words or words
            yield [self._item(words)]

    def _item(self, words: dict[int, str]) -> Item:
        raise NotImplementedError


class QuotientDeep(CircleRounds):
    """Deep circle quotients, n=2 with DOT and n=3."""

    name = "quotient_deep"
    LEVELS = {2: 9, 3: 6}
    ORACLE_LEVELS = {2: 3, 3: 1}

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        self.first_dot = ""

    def warmup(self):
        return [
            ["quotient", "-n", "2", "-s", "aabb", "-l", "1", "--dot", self.dot_path, "--json"],
            ["quotient", "-n", "3", "-s", "aabbcc", "-l", "1", "--json"],
        ]

    def _item(self, words: dict[int, str]) -> Item:
        argvs = []
        for n, level in self.LEVELS.items():
            argv = ["quotient", "-n", str(n), "-s", words[n], "-l", str(level), "--json"]
            if n == 2:
                argv[-1:-1] = ["--dot", self.dot_path]
            argvs.append(argv)

        def check(results: list[Result]) -> int:
            units = 0
            for (n, level), argv, res in zip(self.LEVELS.items(), argvs, results):
                doc = _json(res, argv)
                want = count_reduced_words(n, level)
                _require(doc["rank"] == n and doc["level"] == level, f"{argv}: rank/level {doc}")
                _require(doc["generators"] == sorted([words[n], inverse_text(words[n])]), f"{argv}: generators {doc['generators']}")
                _require(doc["vertices"] == want, f"{argv}: {doc['vertices']} vertices, want {want}")
                _require(doc["edges"] == want, f"{argv}: {doc['edges']} edges, want {want}")
                _require(doc["is_cycle"] is True, f"{argv}: quotient is not a cycle")
                units += doc["vertices"]
            size = count_reduced_words(2, self.LEVELS[2])
            _require(_dot_counts(self.dot_path) == (size, size), "DOT vertex/edge lines disagree with JSON")
            if not self.first_dot:
                self.first_dot = _sha256(self.dot_path)
            return units

        return Item(argvs, check)

    def final_checks(self):
        failures = []
        for n, w in self.first_words.items():
            gens = [ReducedWord.parse(w, n)]
            level = self.ORACLE_LEVELS[n]
            if not quotients_equal(
                build_quotient_local(n, gens, level), build_quotient_enum(n, gens, level)
            ):
                failures.append(f"local and enumerated level-{level} quotients of {w} differ")
        if self.seed == DEFAULT_SEED:
            failures += self._golden("dot", self.first_dot)
        return failures


class OuterplanarFull(CircleRounds):
    """outerplanar on circle words (all Yes): every level, full generating set."""

    name = "outerplanar_full"
    LEVELS = {2: 7, 3: 5}

    def warmup(self):
        return [
            ["outerplanar", "-n", str(n), "-s", w, "-l", "1", "--json"]
            for n, w in ((2, "aabb"), (3, "aabbcc"))
        ]

    def _item(self, words: dict[int, str]) -> Item:
        argvs = [
            ["outerplanar", "-n", str(n), "-s", words[n], "-l", str(level), "--json"]
            for n, level in self.LEVELS.items()
        ]

        def check(results: list[Result]) -> int:
            units = 0
            for (n, top), argv, res in zip(self.LEVELS.items(), argvs, results):
                doc = _json(res, argv)
                _require(res.err == "", f"{argv}: stderr {res.err.strip()}")
                _require(doc["word"] == words[n], f"{argv}: word {doc['word']}")
                _require([lv["l"] for lv in doc["levels"]] == list(range(1, top + 1)), f"{argv}: levels")
                for lv in doc["levels"]:
                    want = count_reduced_words(n, lv["l"])
                    _require(lv["vertices"] == want, f"{argv}: level {lv['l']} has {lv['vertices']} vertices, want {want}")
                    _require(lv["outerplanar"] and lv["circle_is_ham_cycle"], f"{argv}: level {lv['l']} failed")
                    units += lv["vertices"]
            return units

        return Item(argvs, check)


class CycleTree(Workload):
    """cycletree over three (m, n, r) triples; the deepest one writes DOT."""

    name = "cycletree"
    TRIPLES = ((4, 3, 4), (5, 2, 4), (3, 2, 5))

    def warmup(self):
        return [["cycletree", "-m", "3", "-n", "2", "-r", "1", "--dot", self.dot_path, "--json"]]

    def blocks(self):
        while True:
            order = list(self.TRIPLES)
            self.rng.shuffle(order)
            yield [self._item(order)]

    def _item(self, order: list[tuple[int, int, int]]) -> Item:
        argvs = []
        for m, n, r in order:
            argv = ["cycletree", "-m", str(m), "-n", str(n), "-r", str(r), "--json"]
            if (m, n, r) == self.TRIPLES[0]:
                argv[-1:-1] = ["--dot", self.dot_path]
            argvs.append(argv)

        def check(results: list[Result]) -> int:
            units = 0
            for (m, n, r), argv, res in zip(order, argvs, results):
                doc = _json(res, argv)
                _require(doc["passed"] is True and (doc["m"], doc["n"]) == (m, n), f"{argv}: {doc}")
                counts = [d["classes"] for d in doc["depths"]]
                want = [fp_class_count(m, n, d) for d in range(1, r + 1)]
                _require(counts == want, f"{argv}: classes {counts}, want {want}")
                for d in doc["depths"]:
                    _require(d["circle_is_cycle"] and d["full_connected"] and d["circle_spans_full"], f"{argv}: depth {d['r']}")
                units += sum(counts)
            m, n, r = self.TRIPLES[0]
            size = fp_class_count(m, n, r)
            _require(_dot_counts(self.dot_path) == (size, size), "DOT vertex/edge lines disagree with the class count")
            _require(_sha256(self.dot_path) == golden(self.name, "dot"), "DOT differs from its golden digest")
            return units

        return Item(argvs, check)


WORKLOADS = {w.name: w for w in (Census, QuotientDeep, OuterplanarFull, CycleTree)}
