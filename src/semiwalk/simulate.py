"""Seeded Monte Carlo walks on the word level, for end-to-end verification.

A walker's state is a minimal ideal-entering word w.  A step draws a letter
a and moves to the shortest prefix of a·w whose product lies in the minimal
ideal K.  Lumped onto expansion states, this walk samples the exact engine's
law only when K is left zero (direct mode); otherwise both simulations
raise, since the limit-mode law has no sampler here.  Every walker of
``simulate_state_at`` starts from the shortlex-least ideal-entering word,
the word of the expansion's first vertex in its ideal.

No word is carried.  K is a two-sided ideal, so the word after step t is
the shortest prefix entering K of the walker's letters read newest first,
followed by its start word: a walker's letters are reversed once, the start
word appended, and the word of step t is read forward from position
``steps - t``.  The start word enters K (a drawn word by construction,
``simulate_state_at``'s checked once per run), so no read runs past it.  A
read follows the rows of the Karnofsky-Rhodes expansion, which lump words
onto states, from its root.  A word's vertex also fixes its product in S,
so the (element, vertex) pairs a walk reaches are just the expansion's
vertices outside its own minimal ideal (``KRExpansion.ideal``, the
vertices over K): the table is their rows, and a read stops at the first
vertex in that ideal.  ``simulate_semaphore`` reads two letters per
lookup, by their pair codes, when k <= 16 and the pair table is no larger
than a walker's steps (``_WalkTables``).  The walk multiplies nothing in
S.  Only the states the walk visits are named.

Random number generator contract: SplitMix64 (Steele, Lea and Flood,
OOPSLA 2014), 64-bit state, advancing by the golden-ratio increment and
finalizing with two xor-multiply rounds.  Walker w of a run seeded with s
uses the stream seeded by mix64(mix64(s) ^ (GOLDEN * (w+1) mod 2^64)).
Letters are drawn by comparing the top 53 bits of the next output against
cumulative integer thresholds floor(cum_i * 2^53).  Everything is integer
arithmetic, so runs are bit-identical across platforms for a fixed seed.
``_letters`` computes the same stream as ``SplitMix64`` up to 1,024
outputs at a time, one 128-bit lane of a single integer per output, so
each step of the finalizer is one whole-integer operation per block.  A
block's top bytes map to letters through one 256-entry table in one
``bytes.translate``; an output whose top byte's range holds a threshold
is drawn by its exact 53 bits.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

from .core import ASemigroup, SemigroupError, kernel_is_left_zero, minimal_ideal
from .expansions import karnofsky_rhodes
from .stationary import validate_probs

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def next53(self) -> int:
        return self.next64() >> 11


def walker_seed(seed: int, index: int) -> int:
    return mix64(mix64(seed) ^ ((_GOLDEN * (index + 1)) & _MASK))


_BLOCK = 1024  # outputs computed together by _blocks
_SENTINEL = 255  # a top byte whose range a threshold splits


@cache
def _lanes() -> tuple[int, int, int]:
    """Constants over _BLOCK 128-bit lanes: 1 in each lane, 2^64 - 1 in
    each lane, and (t+1)·GOLDEN mod 2^64 in lane t."""
    ones = ((1 << 128 * _BLOCK) - 1) // ((1 << 128) - 1)
    steps = b"".join((_GOLDEN * t & _MASK).to_bytes(16, "little")
                     for t in range(1, _BLOCK + 1))
    return ones, ones * _MASK, int.from_bytes(steps, "little")


def _blocks(state: int, count: int) -> Iterator[bytes]:
    """The first ``count`` outputs of ``SplitMix64(state).next64()``, up to
    _BLOCK at a time, as little-endian bytes: output t of a block is bytes
    16t to 16t+7.

    Lane t (bits 128t to 128t+127) of one integer holds the generator's
    state after t+1 advances, so each xor-shift, multiply and mask of
    ``mix64`` is one operation on the whole integer.  A 64-bit lane times a
    64-bit constant fits in its lane, and a right shift carries low bits of
    lane t+1 into bits 97-127 of lane t, which the masks clear or, after
    the last xor-shift, the output leaves out.
    """
    ones, mask, steps = _lanes()
    while count > 0:
        n = min(count, _BLOCK)
        if n < _BLOCK:  # the last block keeps its first n lanes
            cut = (1 << 128 * n) - 1
            ones, mask, steps = ones & cut, mask & cut, steps & cut
        z = (state * ones + steps) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        yield (z ^ (z >> 31)).to_bytes(16 * n, "little")
        state = (state + n * _GOLDEN) & _MASK
        count -= n


def _letter_table(thresholds: list[int]) -> bytes:
    """Per top byte b of an output, the letter of every 53-bit value in
    [b·2^45, (b+1)·2^45), or _SENTINEL where a threshold splits that range
    or the alphabet has _SENTINEL letters or more."""
    table = bytearray()
    for b in range(256):
        lo = bisect_right(thresholds, b << 45)
        hi = bisect_right(thresholds, (b + 1 << 45) - 1)
        table.append(lo if lo == hi and len(thresholds) <= _SENTINEL else _SENTINEL)
    return bytes(table)


def _letters(state: int, count: int, thresholds: list[int],
             table: bytes) -> bytearray | array:
    """``bisect_right(thresholds, SplitMix64(state).next53())`` for the
    first ``count`` outputs, given ``table = _letter_table(thresholds)``:
    a block's top bytes (byte 7 of each lane) go through ``table`` in one
    ``bytes.translate``, and only the outputs mapped to _SENTINEL, about
    (k-1)/256 of them for k < 256 letters, are drawn by their top 53 bits.
    """
    letters = bytearray() if len(thresholds) <= _SENTINEL else array("L")
    for raw in _blocks(state, count):
        tops, base = raw[7::16].translate(table), len(letters)
        letters.extend(tops)
        i = tops.find(_SENTINEL)
        while i >= 0:
            letters[base + i] = bisect_right(
                thresholds, int.from_bytes(raw[16 * i:16 * i + 8], "little") >> 11)
            i = tops.find(_SENTINEL, i + 1)
    return letters


def _thresholds(xs: Sequence[Fraction]) -> list[int]:
    acc = Fraction(0)
    out = []
    for v in xs:
        acc += v
        out.append(int(acc * (1 << 53)))
    out[-1] = 1 << 53
    return out


@dataclass
class EmpiricalDistribution:
    counts: dict[str, int]
    total: int

    # mapping-style access so tv_distance can consume it directly
    def __iter__(self):
        return iter(self.counts)

    def get(self, key, default=0):
        return self.counts.get(key, 0) / self.total if self.total else default

    def keys(self):
        return self.counts.keys()


class _WalkTables:
    """The word walk compiled to one table: the Karnofsky-Rhodes rows of
    the vertices outside the expansion's ideal, in vertex order, the root
    first, read m = 1 or 2 letters per lookup.

    The row of vertex v outside the ideal is ``nxt[p : p+k]``, where p is
    v's index among those vertices times k (the root's is 0); a target u in
    the ideal, where reads stop, is ``~u``, negative.  With m = 2 the table
    ``tab`` has k² entries per row, and entry a·k + b of a row is where
    letters a then b lead from it: ``~u`` for every b if a enters the
    ideal at u, else the entry of b in the row a leads to, with its row
    base scaled from k to k².  A read then looks up the pair codes
    ``hist[i]·k + hist[i+1]`` of the history.  The walk uses m = 2 when
    k <= 16, so a code fits a byte, and the table has at most as many
    entries as the ``steps`` words read per history: its memory stays of
    the order of one history's.  ``simulate_state_at`` reads one word per
    history and passes no ``steps``, so there m = 1 and ``tab`` is ``nxt``.
    """

    def __init__(self, S: ASemigroup, thresholds: list[int], steps: int = 0):
        self.thresholds, self.table = thresholds, _letter_table(thresholds)
        kr = karnofsky_rhodes(S)
        out, self.names, self.n = kr.out, kr.names, len(kr.out)
        inside, k = set(kr.ideal), len(kr.alphabet)
        rest = [v for v in range(self.n) if v not in inside]
        at = {v: i * k for i, v in enumerate(rest)}
        self.nxt: list[int] = [at.get(u, ~u) for v in rest for u in out[v]]
        self.k, self.m, self.tab = k, 1, self.nxt
        if k <= 16 and len(rest) * k * k <= steps:
            base = list(range(0, len(rest) * k * k, k * k))  # one int per row base
            wide = [p if p < 0 else base[p // k] for p in self.nxt]
            self.m, self.tab = 2, [q for p in self.nxt
                                   for q in (wide[p:p + k] if p >= 0 else (p,) * k)]

    def initial_word(self, rng: SplitMix64) -> list[int]:
        """Draw letters until the product enters the ideal."""
        word, p = [], 0
        while p >= 0:
            word.append(bisect_right(self.thresholds, rng.next53()))
            p = self.nxt[p + word[-1]]
        return word

    def check_start(self, word: Sequence[int]) -> None:
        """Raise AssertionError unless ``word`` enters the ideal, read one
        letter at a time up to its end."""
        p, nxt = 0, self.nxt
        for a in word:
            p = nxt[p + a]
            if p < 0:
                return
        raise AssertionError("word does not reach the ideal")

    def history(self, word: Sequence[int], state: int, steps: int) -> bytes | bytearray | array:
        """The letters of ``steps`` steps from ``word``, drawn from the
        SplitMix64 stream at ``state``, newest first, then ``word``, which
        must enter K (``check_start``), as the codes the table reads.  K is
        an ideal, so the word after step t is the shortest prefix entering
        K of the letters from position ``steps - t`` on, and no read runs
        past ``word``.

        With m = 2 the history as one little-endian integer H has
        ``hist[i]`` in byte lane i, and ``H·k + (H >> 8)`` has the code of
        positions i and i+1 there: a·k + b <= k² - 1 <= 255, so no lane
        carries.  The last lane pairs the last letter with a 0, as though
        a 0 followed ``word``; a read stops within ``word``, at the latest
        on the first letter of a pair, so that 0 never counts.
        """
        letters = _letters(state, steps, self.thresholds, self.table)
        letters.reverse()
        letters.extend(word)
        if self.m == 1:
            return letters
        h = int.from_bytes(letters, "little")
        return (h * self.k + (h >> 8)).to_bytes(len(letters), "little")

    def count(self, codes: bytes | bytearray | array, steps: int, visits: list[int]) -> None:
        """Count in ``visits`` the vertex of the words read from positions
        0 to ``steps - 1`` of a history's ``codes``, the walk's last
        ``steps`` words."""
        tab, m = self.tab, self.m
        for i in range(steps):
            p = tab[codes[i]]  # the root's row comes first
            while p >= 0:
                i += m
                p = tab[p + codes[i]]
            visits[~p] += 1

    def distribution(self, visits: list[int], total: int) -> EmpiricalDistribution:
        seen = [v for v, c in enumerate(visits) if c]
        return EmpiricalDistribution(
            {name: visits[v] for v, name in zip(seen, self.names(seen))}, total)


def _prepare(S, xs):
    xs = validate_probs(S, xs)
    if not kernel_is_left_zero(S, minimal_ideal(S)):
        raise SemigroupError(
            "minimal ideal is not left zero: the word walk samples only the "
            "direct-mode law"
        )
    return xs


def simulate_semaphore(
    S: ASemigroup,
    xs: Sequence[Fraction],
    walkers: int,
    steps: int,
    seed: int,
) -> EmpiricalDistribution:
    """Occupation measure of the lumped word walk.

    Each walker samples its initial minimal ideal-entering word letter by
    letter (which samples the word-level stationary law exactly), then
    takes ``steps`` left-action steps, recording the lumped state after
    each one.  Counts aggregate over walkers.
    """
    if walkers < 1 or steps < 1:
        raise SemigroupError(
            f"need walkers >= 1 and steps >= 1, got walkers={walkers}, steps={steps}")
    walk = _WalkTables(S, _thresholds(_prepare(S, xs)), steps)
    visits = [0] * walk.n
    for w in range(walkers):
        rng = SplitMix64(walker_seed(seed, w))
        word = walk.initial_word(rng)
        walk.count(walk.history(word, rng.state, steps), steps, visits)
    return walk.distribution(visits, walkers * steps)


def simulate_state_at(
    S: ASemigroup,
    xs: Sequence[Fraction],
    walkers: int,
    steps: int,
    seed: int,
) -> EmpiricalDistribution:
    """Empirical law of the lumped state after exactly ``steps`` steps.

    All walkers start from the lexicographically first shortest
    ideal-entering word, so this measures worst-case-style convergence from
    a point mass.  The expansion numbers its vertices in shortlex order of
    their words, so that word is the word of its first ideal vertex.
    """
    if walkers < 1 or steps < 0:
        raise SemigroupError(
            f"need walkers >= 1 and steps >= 0, got walkers={walkers}, steps={steps}")
    walk = _WalkTables(S, _thresholds(_prepare(S, xs)))
    kr = karnofsky_rhodes(S)
    word = kr.words[kr.ideal[0]]
    walk.check_start(word)
    ends = [0] * walk.n
    for w in range(walkers):  # the last word is read from position 0
        walk.count(walk.history(word, walker_seed(seed, w), steps), 1, ends)
    return walk.distribution(ends, walkers)
