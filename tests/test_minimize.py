import hashlib
import random
from collections import deque

import pytest

import hamcirc.certifier as certifier
from hamcirc.automorphisms import FGAutomorphism, Mul, apply_chain
from hamcirc.minimize import (
    OrbitCapExceeded,
    _cyclic_core,
    _images,
    _move_tables,
    minimal_orbit,
    orbit_minimal_set,
    whitehead_minimize,
)
from hamcirc.words import (
    BudgetExceeded,
    ReducedWord,
    cyclic_reduce_letters,
    letter_str,
    letters_str,
    reduced_words,
    word_key,
)
from oracles import elementary_automorphisms, is_cyclically_reduced, is_identity


def w(text, rank=2):
    return ReducedWord.parse(text, rank)


class TestMinimizeExamples:
    def test_aabb_already_minimal(self):
        out, chain = whitehead_minimize(w("aabb"))
        assert out == w("aabb")
        assert chain == ()

    def test_basis_product_shrinks_to_one_letter(self):
        out, chain = whitehead_minimize(w("ab"))
        assert len(out) == 1
        assert apply_chain(chain, w("ab")) == out

    def test_abab_shrinks_to_two_letters(self):
        out, chain = whitehead_minimize(w("abab"))
        assert len(out) == 2
        assert apply_chain(chain, w("abab")) == out

    def test_conjugate_is_cyclically_reduced(self):
        out, chain = whitehead_minimize(w("abbbA"))
        assert is_cyclically_reduced(out)
        assert len(out) == 3
        assert apply_chain(chain, w("abbbA")) == out

    def test_empty_word(self):
        out, chain = whitehead_minimize(w(""))
        assert out == w("")
        assert chain == ()

    def test_never_longer_and_chain_replays(self):
        for raw in reduced_words(2, 5):
            word = ReducedWord(raw, 2)
            out, chain = whitehead_minimize(word)
            assert len(out) <= len(word)
            assert apply_chain(chain, word) == out


def brute_force_orbit_min(rank, max_len):
    """Independent oracle: minimal orbit length for every cyclically reduced
    word up to max_len.

    Breadth-first over all elementary-automorphism images, cyclically
    reducing, never allowing the length to grow (safe by the descent
    guarantee): processing lengths upward, same-length images are merged
    into plateau components and shorter images donate their already-known
    minima.
    """
    autos = [phi for phi in elementary_automorphisms(rank) if not is_identity(phi)]
    by_len = {}
    for raw in reduced_words(rank, max_len):
        if cyclic_reduce_letters(raw)[0] == raw:
            by_len.setdefault(len(raw), []).append(raw)

    best = {}
    for length in sorted(by_len):
        batch = by_len[length]
        parent = {raw: raw for raw in batch}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        drop = {}
        for raw in batch:
            word = ReducedWord(raw, rank)
            for phi in autos:
                img = cyclic_reduce_letters(phi.apply(word).letters)[0]
                if len(img) < length:
                    drop[raw] = min(drop.get(raw, length), best[img])
                elif len(img) == length and img in parent:
                    ru, rv = find(raw), find(img)
                    if ru != rv:
                        parent[ru] = rv
        comp_min = {}
        for raw in batch:
            root = find(raw)
            comp_min[root] = min(comp_min.get(root, length), drop.get(raw, length))
        for raw in batch:
            best[raw] = comp_min[find(raw)]
    return best


def test_minimize_agrees_with_brute_force_up_to_length_six():
    oracle = brute_force_orbit_min(2, 6)
    checked = 0
    for raw in reduced_words(2, 6):
        word = ReducedWord(raw, 2)
        out, _chain = whitehead_minimize(word)
        core = cyclic_reduce_letters(raw)[0]
        assert len(out) == oracle[core], f"disagreement at {word}"
        checked += 1
    assert checked == 1457  # every reduced word of length <= 6


class TestOrbitMinimalSet:
    def test_single_generator_square(self):
        words = {str(x) for x in orbit_minimal_set(w("aa"))}
        assert {"aa", "AA"} <= words
        assert words == {"aa", "AA", "bb", "BB"}

    def test_squares_and_commutator_are_separate(self):
        squares = {str(x) for x in orbit_minimal_set(w("aabb"))}
        assert "aabb" in squares
        assert "abAB" not in squares
        commutators = {str(x) for x in orbit_minimal_set(w("abAB"))}
        assert "abAB" in commutators
        assert squares.isdisjoint(commutators)

    def test_deterministic_ordering(self):
        out = orbit_minimal_set(w("aabb"))
        assert list(out) == sorted(out, key=lambda v: v.sort_key())
        assert out == orbit_minimal_set(w("aabb"))

    def test_every_member_has_minimal_length(self):
        out = orbit_minimal_set(w("abab"))
        assert {len(x) for x in out} == {2}

    def test_chains_reach_every_reported_word(self):
        orbit = minimal_orbit(w("abab"))
        for raw in sorted(orbit.parents):
            chain = orbit.chain_to(raw)
            assert apply_chain(chain, w("abab")).letters == raw

    def test_rotations_are_reachable(self):
        # conjugation moves put every rotation of a cyclic word in the closure
        words = {str(x) for x in orbit_minimal_set(w("aabb"))}
        assert {"aabb", "abba", "bbaa", "baab"} <= words


def autos_of(rank):
    """The kernel's moves, which must be the non-identity elementary set in
    order, as the oracle's automorphisms."""
    autos = [phi for phi in elementary_automorphisms(rank) if not is_identity(phi)]
    assert [m[0] for m in _move_tables(rank)] == [phi.moves for phi in autos]
    return autos


def check_kernel(rank, raws):
    """The kernel's image and strip of every word under every move against
    FGAutomorphism.apply followed by cyclic_reduce_letters."""
    moves = _move_tables(rank)
    autos = autos_of(rank)
    checked = 0
    for raw in raws:
        word = ReducedWord(raw, rank)
        for phi, img in zip(autos, _images(letters_str(raw), moves), strict=True):
            core, strip = _cyclic_core(img)
            full = phi.apply(word).letters
            assert img == letters_str(full), (phi, raw)
            assert (core, strip) == tuple(map(letters_str, cyclic_reduce_letters(full)))
            checked += 1
    return checked


class TestStringKernel:
    def test_exhaustive_rank_two(self):
        assert check_kernel(2, reduced_words(2, 7)) == 4373 * len(_move_tables(2))

    def test_exhaustive_rank_three(self):
        assert check_kernel(3, reduced_words(3, 4)) == 937 * len(_move_tables(3))

    def test_seeded_rank_four(self):
        rng = random.Random(4)
        raws = [()]
        for _ in range(60):
            raws.append(tuple(ReducedWord.from_letters(
                [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(1, 9))], 4
            ).letters))
        assert check_kernel(4, raws) == 61 * len(_move_tables(4))

    def test_cancelling_pairs(self):
        # permutations and sign changes cancel nothing; a multiplier move by
        # x^+-1 can cancel only x against x^-1, and x^+-1 map to themselves
        for rank in (2, 3, 4):
            for moves, table, pair in _move_tables(rank):
                gens = {abs(m.letter) for m in moves if isinstance(m, Mul)}
                if not gens:
                    assert pair == ""
                    continue
                (x,) = (letters_str((g,)) for g in gens)
                assert pair in ("", x + x.upper(), x.upper() + x)
                assert x.translate(table) == x and x.upper().translate(table) == x.upper()

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_pair_by_counting_is_the_all_pairs_scan(self, rank):
        # the pair found by counting image last letters is the one an
        # all-pairs scan of the boundaries c|d, d != c^-1, finds
        for moves, table, pair in _move_tables(rank):
            phi = FGAutomorphism.from_moves(moves, rank)
            images = {letter_str(x): letters_str(img) for x, img in phi.letter_table().items()}
            assert {c: c.translate(table) for c in images} == images
            pairs = {
                left[-1] + right[0]
                for c, left in images.items()
                for d, right in images.items()
                if d != c.swapcase() and left[-1] == right[0].swapcase()
            }
            assert pair == "".join(pairs), moves


@pytest.mark.parametrize(
    "rank, rows, digest",
    [
        (1, 1, "cc180fd25284ceb686eaa7e26b9facc39f312c915e6fb98614570530e19cf109"),
        (2, 16, "351703e60bc15ccf4e8c9ea4c28b59879be6a875b5680f5430c5cce7fbeec60a"),
        (3, 102, "16a2ae8d142c72eb46121e04596ba84e1a798dc06c2beaec6203ef0ff860346e"),
        (4, 542, "040a00b9709502e6b8b9118f736f59b8e60d6bfde5cd61b3dc365f6e22b31c10"),
        (5, 2700, "ede0808169c84774e8dd1e13260b7a969dd937de0682617a4ebb3ab772776791"),
        (6, 13058, "8cf9c8223baaeade0ed805f378bcd321d7bdd2ff7b3b3a35a67a41bc10d7d048"),
    ],
)
def test_golden_move_tables_digest(rank, rows, digest):
    # every row of the kernel's tables as (serialized moves, sorted translate
    # table, pair), pinned byte for byte; a row may hold its move list or an
    # automorphism that carries it (``.moves``), and both read the same
    record = hashlib.sha256()
    tables = _move_tables(rank)
    for first, table, pair in tables:
        moves = ";".join(map(str, getattr(first, "moves", first)))
        record.update(repr((moves, sorted(table.items()), pair)).encode())
    assert (len(tables), record.hexdigest()) == (rows, digest)


def reference_minimize(word):
    """Greedy descent with the same tie-break, from FGAutomorphism.apply."""
    rank = word.rank
    autos = autos_of(rank)
    raw = cyclic_reduce_letters(word.letters)[0]
    while True:
        best = None
        for idx, phi in enumerate(autos):
            img = cyclic_reduce_letters(phi.apply(ReducedWord(raw, rank)).letters)[0]
            if len(img) < len(raw):
                # idx is unique, so img never decides the order
                key = (len(img), word_key(img), idx, img)
                best = key if best is None else min(best, key)
        if best is None:
            return raw
        raw = best[3]


def reference_orbit(word, cap, stop=None):
    """Breadth-first closure from FGAutomorphism.apply: (parents, hit, complete)."""
    rank = word.rank
    autos = autos_of(rank)
    base = reference_minimize(word)
    parents = {base: None}
    tag = stop and stop(base)
    if tag:
        return parents, (base, tag), False
    queue = deque([base])
    while queue:
        cur = queue.popleft()
        for idx, phi in enumerate(autos):
            img, strip = cyclic_reduce_letters(phi.apply(ReducedWord(cur, rank)).letters)
            assert len(img) >= len(base)
            if len(img) == len(base) and img not in parents:
                parents[img] = (cur, idx, strip)
                if len(parents) > cap:
                    raise OrbitCapExceeded(cap)
                tag = stop and stop(img)
                if tag:
                    return parents, (img, tag), False
                queue.append(img)
    return parents, None, True


def captured_probe(monkeypatch, n, word):
    """The stop probe that classify hands to minimal_orbit."""
    probes = []

    def spy(w, stop, **kwargs):
        probes.append(stop)
        return minimal_orbit(w, stop=stop, **kwargs)

    monkeypatch.setattr(certifier, "minimal_orbit", spy)
    certifier.classify(n, word)
    monkeypatch.undo()
    return probes[0] if probes else None


def orbit_words():
    rng = random.Random(9)
    out = [w("abAB"), w("aabb"), w("aabab"), w("abaBB"), ReducedWord.parse("abcABC", 3)]
    for rank, max_len, count in ((2, 8, 14), (3, 5, 6)):
        pool = [raw for raw in reduced_words(rank, max_len)
                if raw and cyclic_reduce_letters(raw)[0] == raw]
        out += [ReducedWord(raw, rank) for raw in rng.sample(pool, count)]
    return out


class TestOrbitAgainstReference:
    @pytest.mark.parametrize("word", orbit_words(), ids=str)
    def test_same_closure(self, word, monkeypatch):
        parents, hit, complete = reference_orbit(word, cap=10**6)
        orbit = minimal_orbit(word)
        assert list(orbit.parents.items()) == list(parents.items())
        assert (orbit.hit, orbit.hit is None) == (hit, complete) == (None, True)
        assert orbit.base.letters == next(iter(parents))
        probe = captured_probe(monkeypatch, word.rank, word)
        if probe is not None:
            parents, hit, complete = reference_orbit(word, cap=10**6, stop=probe)
            orbit = minimal_orbit(word, stop=probe)
            assert list(orbit.parents.items()) == list(parents.items())
            assert (orbit.hit, orbit.hit is None) == (hit, complete)

    def test_probes_reached(self, monkeypatch):
        # classify's probe runs at least once on the seeded words, and hits
        # at least once; certify runs no closure
        hits = 0
        for word in orbit_words():
            probe = captured_probe(monkeypatch, word.rank, word)
            if probe is not None:
                hits += minimal_orbit(word, stop=probe).hit is not None
        assert hits

    def test_cap_fires_at_the_same_count(self, monkeypatch):
        word = w("aabab")
        size = len(reference_orbit(word, cap=10**6)[0])
        assert size > 2
        monkeypatch.setattr("hamcirc.minimize.ORBIT_CAP", size)
        assert len(minimal_orbit(word).parents) == size
        monkeypatch.setattr("hamcirc.minimize.ORBIT_CAP", size - 1)
        for run in (lambda: minimal_orbit(word),
                    lambda: reference_orbit(word, cap=size - 1)):
            with pytest.raises(OrbitCapExceeded) as exc:
                run()
            # a budget refusal like every other, so the CLI exits 3 on it
            assert isinstance(exc.value, BudgetExceeded) and exc.value.cap == size - 1
        # a stop at the base word returns before the cap is checked
        monkeypatch.setattr("hamcirc.minimize.ORBIT_CAP", 1)
        assert minimal_orbit(w("aabb"), stop=lambda raw: "hit").hit is not None
