"""Finite Cayley graphs of Z_n and dihedral groups, plus the bundled
vertex-transitive fixture corpus.

Dihedral elements are encoded as (flip, rot) = a^flip (ab)^rot acting on the
rotation index; that avoids any general group machinery.  Spec strings look
like ``cyclic:8:1,2`` (offsets, closed under negation) or
``dihedral:10:a,b,aba`` (words in the two reflection generators, closed
under inversion).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .multigraph import (
    Multigraph,
    check_enumeration_size,
    enumerate_hamiltonian_cycles,
    parse_adjacency,
)


@dataclass(frozen=True)
class FiniteCayleySpec:
    family: str  # "cyclic" | "dihedral"
    size: int  # group order
    connection: tuple[str, ...]  # raw tokens as given

    def __str__(self) -> str:
        return f"{self.family}:{self.size}:{','.join(self.connection)}"


def parse_spec(text: str) -> FiniteCayleySpec:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"spec must be family:size:connection, got {text!r}")
    family, size_s, conn = parts
    if family not in ("cyclic", "dihedral"):
        raise ValueError(f"unknown family {family!r}")
    size = int(size_s)
    if size < 3:
        raise ValueError("group order must be at least 3")
    if family == "dihedral" and size % 2:
        raise ValueError("dihedral order must be even")
    tokens = tuple(t.strip() for t in conn.split(",") if t.strip())
    if not tokens:
        raise ValueError("empty connection set")
    spec = FiniteCayleySpec(family, size, tokens)
    connection_elements(spec)  # validate eagerly
    return spec


# --- dihedral arithmetic: (flip, rot) = a^flip (ab)^rot --------------------

def _dihedral_mul(x: tuple[int, int], y: tuple[int, int], half: int) -> tuple[int, int]:
    s1, k1 = x
    s2, k2 = y
    return (s1 ^ s2, (k2 + (k1 if s2 == 0 else -k1)) % half)


def _dihedral_parse(token: str, half: int) -> tuple[int, int]:
    m = re.fullmatch(r"\(ab\)\^(\d+)", token)
    if m:
        return (0, int(m.group(1)) % half)
    if not re.fullmatch(r"[ab]+", token):
        raise ValueError(f"bad dihedral word {token!r}")
    el = (0, 0)
    for ch in token:
        gen = (1, 0) if ch == "a" else (1, 1)
        el = _dihedral_mul(el, gen, half)
    return el


def _dihedral_inverse(x: tuple[int, int], half: int) -> tuple[int, int]:
    s, k = x
    return x if s == 1 else (0, (-k) % half)


def connection_elements(spec: FiniteCayleySpec) -> list:
    """The symmetric, identity-free connection set as group elements."""
    if spec.family == "cyclic":
        n = spec.size
        out = []
        for tok in spec.connection:
            s = int(tok) % n
            if s == 0:
                raise ValueError("connection set must be identity-free")
            for el in (s, (-s) % n):
                if el not in out:
                    out.append(el)
        return sorted(out)
    half = spec.size // 2
    out = []
    for tok in spec.connection:
        el = _dihedral_parse(tok, half)
        if el == (0, 0):
            raise ValueError("connection set must be identity-free")
        for x in (el, _dihedral_inverse(el, half)):
            if x not in out:
                out.append(x)
    return sorted(out)


def build_finite_cayley(spec: FiniteCayleySpec) -> Multigraph:
    conn = connection_elements(spec)
    if spec.family == "cyclic":
        n = spec.size
        labels = [str(i) for i in range(n)]
        edges = set()
        for x in range(n):
            for s in conn:
                y = (x + s) % n
                edges.add((min(x, y), max(x, y), str(min(s, n - s))))
        return Multigraph(labels, sorted(edges))
    half = spec.size // 2
    elements = [(0, k) for k in range(half)] + [(1, k) for k in range(half)]
    index = {el: i for i, el in enumerate(elements)}
    labels = [f"r{k}" if s == 0 else f"ar{k}" for s, k in elements]
    edges = set()
    for el in elements:
        for g in conn:
            other = _dihedral_mul(el, g, half)
            u, v = index[el], index[other]
            edges.add((min(u, v), max(u, v)))
    return Multigraph(labels, sorted(edges))


def second_cycle_cyclic(n: int, s: int) -> tuple[int, ...]:
    """The alternate hamiltonian cycle of Cay(Z_n; +-1, +-s) traced by the
    generator run (s, -1^(s-1), s, 1^(n-s-1)), as a vertex sequence."""
    if not 2 <= s <= n - 2:
        raise ValueError(f"step must satisfy 2 <= s <= n-2, got {s}")
    steps = [s] + [-1] * (s - 1) + [s] + [1] * (n - s - 1)
    walk = [0]
    for step in steps:
        walk.append((walk[-1] + step) % n)
    if walk[-1] != 0:
        raise AssertionError("generator run does not close up")
    cycle = tuple(walk[:-1])
    if len(set(cycle)) != n:
        raise AssertionError("generator run revisits a vertex")
    return cycle


def verify_unique_finite(spec: FiniteCayleySpec) -> tuple[int, bool]:
    """(number of hamiltonian cycles, whether it is exactly one).  A group
    order past the enumeration cap is refused before the graph is built."""
    check_enumeration_size(spec.size)
    count = len(enumerate_hamiltonian_cycles(build_finite_cayley(spec)))
    return count, count == 1


# --- bundled corpus --------------------------------------------------------

def corpus_names() -> list[str]:
    root = resources.files("hamcirc").joinpath("data/corpus")
    return sorted(p.name[: -len(".txt")] for p in root.iterdir() if p.name.endswith(".txt"))


def load_corpus_graph(name: str) -> Multigraph:
    path = resources.files("hamcirc").joinpath(f"data/corpus/{name}.txt")
    return parse_adjacency(path.read_text())


def corpus_graphs(names: Iterable[str] | None = None) -> dict[str, Multigraph]:
    return {name: load_corpus_graph(name) for name in (names or corpus_names())}
