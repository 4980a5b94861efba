"""The census golden: what ``certify --json`` and ``classify --json`` answer
for every cyclically reduced word of length 1..8 at rank 2 (9,856 words)
and of length 1..6 at rank 3 (19,548 words).

Each line of ``tests/data/census.jsonl.gz`` is one JSON object with the
keys ``n``, ``word``, ``certify`` (verdict, unique, reason, witness,
checked_levels) and ``classify`` (kind, witness), in shortlex order of the
words, rank 2 first.  A verdict may only change on purpose, so a change
that alters any line regenerates the file and says why.

    python3 tests/census_golden.py          # replay every line, exit 1 on a mismatch
    python3 tests/census_golden.py write    # regenerate the file from the current code

The file name does not match ``test_*.py``, so pytest does not collect it;
``tests/test_census.py`` replays a seeded sample of it instead.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hamcirc.certifier import certify, classify
from hamcirc.words import ReducedWord, shortlex_labels

PATH = Path(__file__).resolve().parent / "data" / "census.jsonl.gz"
SIZES = ((2, 8), (3, 6))  # (rank, longest word)


def census_words():
    """(rank, text) for every cyclically reduced word of the census."""
    for n, max_len in SIZES:
        for text in shortlex_labels(n, max_len):
            if text and (len(text) == 1 or text[0] != text[-1].swapcase()):
                yield n, text


def record(n: int, text: str) -> dict:
    """The census line of one word, from the library calls behind the CLI's
    ``certify --json`` and ``classify --json`` (default level and cap)."""
    word = ReducedWord.parse(text, n)
    return {
        "n": n,
        "word": text,
        "certify": certify(n, word).to_json_dict(),
        "classify": classify(n, word).to_json_dict(),
    }


def load() -> list[dict]:
    with gzip.open(PATH, "rt", encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def write() -> None:
    lines = [json.dumps(record(n, text), separators=(",", ":")) for n, text in census_words()]
    PATH.parent.mkdir(exist_ok=True)
    # mtime=0 and no file name in the header keep the bytes reproducible
    with open(PATH, "wb") as raw, gzip.GzipFile("", "wb", 9, raw, mtime=0) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
    print(f"wrote {len(lines)} lines to {PATH}")


def replay() -> int:
    expected = load()
    words = list(census_words())
    if [(e["n"], e["word"]) for e in expected] != words:
        print("the golden does not list the census words in order")
        return 1
    bad = 0
    for line in expected:
        got = record(line["n"], line["word"])
        if got != line:
            bad += 1
            print(f"mismatch at n={line['n']} {line['word']}:")
            print(f"  golden: {json.dumps(line)}")
            print(f"  now:    {json.dumps(got)}")
    print(f"{len(expected) - bad} of {len(expected)} lines match")
    return 1 if bad else 0


if __name__ == "__main__":
    start = time.perf_counter()
    if sys.argv[1:] == ["write"]:
        write()
        status = 0
    elif not sys.argv[1:]:
        status = replay()
    else:
        print(__doc__)
        status = 3
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    sys.exit(status)
