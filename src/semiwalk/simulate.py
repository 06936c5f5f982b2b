"""Seeded Monte Carlo walks on the word level, for end-to-end verification.

A walker's state is a minimal ideal-entering word w.  A step draws a letter
a and moves to the shortest prefix of a·w whose product lies in the minimal
ideal.  Lumped onto expansion states, this walk samples the exact engine's
law only when the minimal ideal is left zero (direct mode); otherwise both
simulations raise, since the limit-mode law has no sampler here.  Before a
run the walk is compiled to lists: S's right-action table
``right[e][b] = e·gens[b]`` (``ASemigroup.right_action``), an ideal flag
per element of S, and the rows of the Karnofsky-Rhodes expansion, which
lumps words onto states.  One loop then reads a·w letter by letter,
advancing the element and the expansion vertex together, and stops at the
first letter whose element is in the ideal.  Only the states the walk
visits are named.  Nothing is memoized: a step costs time linear in the
length of the word it enters the ideal with.
Ideal entry is decided by S's own multiplication, so the walk depends on
the expansion code only through the final lumping.  Every walker of
``simulate_state_at`` starts from the representative word of the first
ideal element in the search's discovery order, the shortlex-least
ideal-entering word.

Random number generator contract: SplitMix64 (Steele, Lea and Flood,
OOPSLA 2014), 64-bit state, advancing by the golden-ratio increment and
finalizing with two xor-multiply rounds.  Walker w of a run seeded with s
uses the stream seeded by mix64(mix64(s) ^ (GOLDEN * (w+1) mod 2^64)).
Letters are drawn by comparing the top 53 bits of the next output against
cumulative integer thresholds floor(cum_i * 2^53).  Everything is integer
arithmetic, so runs are bit-identical across platforms for a fixed seed.
The walk loop inlines the generator and draws the same streams as
``SplitMix64``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import ASemigroup, SemigroupError, Word, kernel_is_left_zero, minimal_ideal
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
    """The word walk compiled to lists: the right action of the generators
    on S, ideal membership per element, and the Karnofsky-Rhodes expansion
    that lumps words onto states."""

    def __init__(self, S: ASemigroup, ideal):
        self.gens = S.gens
        self.right = S.right_action()[0]
        self.in_ideal = [e in ideal.members for e in range(S.size)]
        kr = karnofsky_rhodes(S)
        self.out, self.root, self.names = kr.out, kr.root, kr.names

    def lump(self, word: Word) -> int:
        v = self.root
        for b in word:
            v = self.out[v][b]
        return v

    def initial_word(self, rng: SplitMix64, thresholds: list[int]) -> Word:
        """Draw letters until the product enters the ideal."""
        word: list[int] = []
        e = None
        while True:
            a = bisect_right(thresholds, rng.next53())
            word.append(a)
            e = self.gens[a] if e is None else self.right[e][a]
            if self.in_ideal[e]:
                return tuple(word)

    def run(self, word: Word, state: int, thresholds: list[int], steps: int,
            visits: list[int]) -> int:
        """Take ``steps`` steps from ``word`` with the SplitMix64 stream at
        ``state``, counting each visited lumping vertex in ``visits``;
        return the vertex of the last word."""
        gens, right, in_ideal, out = self.gens, self.right, self.in_ideal, self.out
        first = out[self.root]
        v = self.lump(word)
        for _ in range(steps):
            state = (state + _GOLDEN) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            a = bisect_right(thresholds, (z ^ (z >> 31)) >> 11)
            e, v = gens[a], first[a]
            if in_ideal[e]:
                word = (a,)
            else:
                j = 0
                for b in word:
                    j += 1
                    e, v = right[e][b], out[v][b]
                    if in_ideal[e]:
                        break
                else:
                    raise AssertionError("word does not reach the ideal")
                word = (a,) + word[:j]
            visits[v] += 1
        return v

    def distribution(self, visits: list[int], total: int) -> EmpiricalDistribution:
        seen = [v for v, c in enumerate(visits) if c]
        return EmpiricalDistribution(
            {name: visits[v] for v, name in zip(seen, self.names(seen))}, total)


def _prepare(S, xs):
    xs = validate_probs(S, xs)
    I = minimal_ideal(S)
    if not kernel_is_left_zero(S, I):
        raise SemigroupError(
            "minimal ideal is not left zero: the word walk samples only the "
            "direct-mode law"
        )
    return xs, I


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
    xs, I = _prepare(S, xs)
    walk = _WalkTables(S, I)
    thresholds = _thresholds(xs)
    visits = [0] * len(walk.out)
    for w in range(walkers):
        rng = SplitMix64(walker_seed(seed, w))
        word = walk.initial_word(rng, thresholds)
        walk.run(word, rng.state, thresholds, steps, visits)
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
    a point mass.
    """
    if walkers < 1 or steps < 0:
        raise SemigroupError(
            f"need walkers >= 1 and steps >= 0, got walkers={walkers}, steps={steps}")
    xs, I = _prepare(S, xs)
    walk = _WalkTables(S, I)
    thresholds = _thresholds(xs)
    word = _lex_first_code_word(S, I)
    visits = [0] * len(walk.out)  # the occupation measure, not reported here
    ends = [0] * len(walk.out)
    for w in range(walkers):
        ends[walk.run(word, walker_seed(seed, w), thresholds, steps, visits)] += 1
    return walk.distribution(ends, walkers)


def _lex_first_code_word(S: ASemigroup, I) -> Word:
    """The shortlex-least word entering the ideal: the representative word
    of the ideal element the search discovers first."""
    _, order, words = S.right_action()
    return words[next(e for e in order if e in I.members)]
