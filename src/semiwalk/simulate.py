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
in S.  Only the states the walk reaches are numbered, and counted ones named.

Random number generator contract: SplitMix64 (Steele, Lea and Flood,
OOPSLA 2014), 64-bit state, advancing by the golden-ratio increment and
finalizing with two xor-multiply rounds.  Walker w of a run seeded with s
uses the stream seeded by mix64(mix64(s) ^ (GOLDEN * (w+1) mod 2^64)):
its initial word takes the first m letters, its steps the stream after
them, seeded by that seed + m·GOLDEN.  Letters are drawn by comparing
the top 53 bits of each output against cumulative integer thresholds
floor(cum_i * 2^53).  Everything is integer arithmetic, so runs are
bit-identical across platforms for a fixed seed.  ``_letters`` computes
the stream up to 1,024 outputs at a time, one 128-bit lane of a single
integer per output, so each step of the finalizer is one whole-integer
operation per block.  A block's top bytes map to letters through one
256-entry table in one ``bytes.translate``; an output whose top byte's
range holds a threshold is drawn by its exact 53 bits.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain
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
    """The first ``count`` outputs of the stream at ``state``, output t
    being mix64(state + (t+1)·GOLDEN mod 2^64), up to _BLOCK at a time, as
    little-endian bytes: output t of a block is bytes 16t to 16t+7.

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
    """``bisect_right(thresholds, output >> 11)`` for the first ``count``
    outputs of the stream at ``state``, given
    ``table = _letter_table(thresholds)``:
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
    out = [int(acc * (1 << 53)) for acc in accumulate(xs)]
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


class _Walk:
    """The lumped word walk, one lookup per step.

    The states are the ideal vertices the walk reaches, numbered on first
    visit: state i is the vertex ``vertex[i]``, held as its offset p = i·k.
    ``step[p + a]`` is the offset of the state that letter a leads to: the
    vertex at which a·word(u), u the state's vertex, enters the ideal
    (``enter``), or -1 until a step first needs it.  ``counts[p]`` counts
    the state's visits.  The lists grow in place, k entries per state.
    """

    def __init__(self, S: ASemigroup, thresholds: list[int]):
        self.thresholds, self.table = thresholds, _letter_table(thresholds)
        self.kr = kr = karnofsky_rhodes(S)
        self.k, self.ideal = len(kr.alphabet), set(kr.ideal)
        self.at, self.vertex, self.step, self.counts = {}, [], [], []

    def enter(self, letters: Iterable[int]) -> tuple[int, int]:
        """The first vertex in the ideal that ``letters`` reach, read
        through ``kr.out`` from the root, and the number of letters read;
        AssertionError if there is none."""
        out, ideal, v = self.kr.out, self.ideal, self.kr.root
        for m, a in enumerate(letters, 1):
            v = out[v][a]
            if v in ideal:
                return v, m
        raise AssertionError("word does not reach the ideal")

    def offset(self, v: int) -> int:
        """The offset of ideal vertex v's state, numbered on first visit."""
        p = self.at.get(v)
        if p is None:
            p = self.at[v] = len(self.step)
            self.vertex.append(v)
            self.step += [-1] * self.k
            self.counts += [0] * self.k
        return p

    def fill(self, p: int, a: int) -> int:
        """Fill ``step[p + a]`` and return it."""
        word = self.kr.words[self.vertex[p // self.k]]
        q = self.step[p + a] = self.offset(self.enter((a, *word))[0])
        return q

    def distribution(self, total: int) -> EmpiricalDistribution:
        """The counted states by name, in vertex order."""
        visited = sorted((v, c) for v, c in zip(self.vertex, self.counts[::self.k]) if c)
        names = self.kr.names([v for v, _ in visited])
        return EmpiricalDistribution({name: c for name, (_, c) in zip(names, visited)}, total)


def _stream(state: int, thresholds: list[int], table: bytes) -> Iterator[int]:
    """The letters of the stream at ``state``, a block at a time, endlessly."""
    while True:
        yield from _letters(state, _BLOCK, thresholds, table)
        state = (state + _BLOCK * _GOLDEN) & _MASK


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
    thresholds, step, visits = walk.thresholds, walk.step, walk.counts
    for w in range(walkers):
        # the initial word's m letters, then the steps' from the stream after them
        state = walker_seed(seed, w)
        v, m = walk.enter(_stream(state, thresholds, walk.table))
        p = walk.offset(v)
        for a in _letters((state + m * _GOLDEN) & _MASK, steps, thresholds, walk.table):
            q = step[p + a]
            if q < 0:
                q = walk.fill(p, a)
            p = q
            visits[p] += 1
    return walk.distribution(walkers * steps)


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
    for w in range(walkers):
        letters = _newest_first(walker_seed(seed, w), steps, walk.thresholds, walk.table)
        walk.counts[walk.offset(walk.enter(chain(letters, start))[0])] += 1
    return walk.distribution(walkers)
