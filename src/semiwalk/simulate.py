"""Seeded Monte Carlo walks on the word level, for end-to-end verification.

A walker's state is a minimal ideal-entering word w.  A step draws a letter
a and moves to the shortest prefix of a·w whose product lies in the minimal
ideal K.  Lumped onto expansion states, this walk samples the exact engine's
law only when K is left zero (direct mode); otherwise both simulations
raise, since the limit-mode law has no sampler here.  Every walker of
``simulate_state_at`` starts from the shortlex-least ideal-entering word,
the word of the expansion's first vertex in its ideal.

No word is carried.  In direct mode K is left zero, so x·s = x for x in K:
the rows of the expansion's ideal vertices (``KRExpansion.ideal``, the
vertices over K) are loops, and a word's vertex is the one at which it
enters that ideal.  So the state a step reaches depends on the word only
through its vertex u: it is the vertex at which a·word(u) enters the ideal
(the word-to-expansion lumping).  A walker's state is that vertex, and a
step is one lookup in a table filled on first need by reading a·word(u)
through the expansion's rows, ``kr.out``, from its root (``_Walk``); the
left-action table ``kr.left``, which the exact chain reads, is never
read, so the two stay independent.  ``simulate_state_at`` reads one word
per walker, its last: K is an ideal, so that word is the shortest prefix
entering K of the walker's letters newest first, then its start word, and
only the newest letters it needs are drawn.  The walk multiplies nothing
in S.  Only the states the walk visits are named.

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
from itertools import chain
from typing import Iterable, Iterator, Sequence

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


class _Walk:
    """The lumped word walk, one lookup per step.

    State i is the ideal vertex ``kr.ideal[i]``, held as its offset
    p = i·k.  ``step[p + a]`` is the offset of the state that letter a leads
    to: the vertex at which a·word(u), u the state's vertex, enters the
    ideal (``enter``).  An entry starts at -1 and is filled the first time
    a step needs it.
    """

    def __init__(self, S: ASemigroup, thresholds: list[int]):
        self.thresholds, self.table = thresholds, _letter_table(thresholds)
        self.kr = kr = karnofsky_rhodes(S)
        self.k = k = len(kr.alphabet)
        self.at = [-1] * len(kr.out)  # a vertex's offset, -1 outside the ideal
        for i, u in enumerate(kr.ideal):
            self.at[u] = i * k
        self.step = [-1] * (len(kr.ideal) * k)

    def enter(self, letters: Iterable[int]) -> int:
        """The first vertex in the ideal that ``letters`` reach, read
        through ``kr.out`` from the root; AssertionError if there is none."""
        out, at, v = self.kr.out, self.at, self.kr.root
        for a in letters:
            v = out[v][a]
            if at[v] >= 0:
                return v
        raise AssertionError("word does not reach the ideal")

    def fill(self, p: int, a: int) -> int:
        """Fill ``step[p + a]`` and return it."""
        kr = self.kr
        q = self.step[p + a] = self.at[self.enter((a, *kr.words[kr.ideal[p // self.k]]))]
        return q

    def distribution(self, visits: list[int], total: int) -> EmpiricalDistribution:
        """The visited states by name, given ``visits`` per offset."""
        counts, ideal = visits[::self.k], self.kr.ideal
        seen = [i for i, c in enumerate(counts) if c]
        names = self.kr.names([ideal[i] for i in seen])
        return EmpiricalDistribution({name: counts[i] for i, name in zip(seen, names)}, total)


def _newest_first(state: int, count: int, thresholds: list[int], table: bytes) -> Iterator[int]:
    """The first ``count`` letters of the stream at ``state``, newest
    first, drawn a block at a time from the end: output t of the stream is
    mix64(state + (t+1)·GOLDEN), so the block [end - n, end) is the first n
    outputs of the stream at state + (end - n)·GOLDEN."""
    end = count
    while end > 0:
        n = min(end, _BLOCK)
        end -= n
        block = _letters((state + end * _GOLDEN) & _MASK, n, thresholds, table)
        block.reverse()
        yield from block


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
    walk = _Walk(S, _thresholds(_prepare(S, xs)))
    thresholds, step = walk.thresholds, walk.step
    visits = [0] * len(step)
    for w in range(walkers):
        rng = SplitMix64(walker_seed(seed, w))
        # the initial word's letters, drawn one at a time until it enters
        p = walk.at[walk.enter(iter(lambda: bisect_right(thresholds, rng.next53()), None))]
        for a in _letters(rng.state, steps, thresholds, walk.table):
            q = step[p + a]
            if q < 0:
                q = walk.fill(p, a)
            p = q
            visits[p] += 1
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
    their words, so that word is the word of its first ideal vertex.  K is
    an ideal, so a walker's last word is the shortest prefix entering K of
    its letters newest first, then the start word: only the letters that
    prefix needs are drawn.
    """
    if walkers < 1 or steps < 0:
        raise SemigroupError(
            f"need walkers >= 1 and steps >= 0, got walkers={walkers}, steps={steps}")
    walk = _Walk(S, _thresholds(_prepare(S, xs)))
    start = walk.kr.words[walk.kr.ideal[0]]
    ends = [0] * len(walk.step)
    for w in range(walkers):
        letters = _newest_first(walker_seed(seed, w), steps, walk.thresholds, walk.table)
        ends[walk.at[walk.enter(chain(letters, start))]] += 1
    return walk.distribution(ends, walkers)
