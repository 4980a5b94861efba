"""Finite Cayley graphs of Z_n and dihedral groups.

Dihedral elements are encoded as (flip, rot) = a^flip (ab)^rot acting on the
rotation index; that avoids any general group machinery.  Spec strings look
like ``cyclic:8:1,2`` (offsets, closed under negation) or
``dihedral:10:a,b,aba`` (words in the two reflection generators, closed
under inversion).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .multigraph import Multigraph


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
