"""Independent verification machinery for the exact engine.

The walk on the minimal ideal of the Karnofsky-Rhodes expansion as one
integer table read off its left-action table; on it the exact
certificate of a law and the lumping check, in integers, and a float
power-iteration oracle kept apart from the exact path.  Total-variation
distance, and the mixing bound from the exact tail P(T > k) of the first
step T at which the random word's product enters the minimal ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

# minimal_ideal and mccammond are not called here; perfbench/spans.py wraps them
from .core import ASemigroup, SemigroupError, SizeCapExceeded, minimal_ideal
from .expansions import karnofsky_rhodes, mccammond
from .graphs import closed_classes
from .stationary import validate_probs


class NotConverged(ArithmeticError):
    pass


class NotIrreducible(SemigroupError):
    pass


def integer_weights(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """W and E with x_a = W[a] / E, E the least common denominator."""
    denom = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (denom // x.denominator) for x in xs], denom


@dataclass
class ActionChain:
    """A walk given by an action table: letter a, of weight
    ``weights[a] / denom``, moves state i to ``rows[i][a]``, and the
    closed class ``classes[c]`` of ``rows`` to ``classes[action[c][a]]``.
    State i is named ``labels[i]`` and is the expansion vertex ``states[i]``."""

    labels: list[str]
    states: list[int]
    rows: list[list[int]]
    weights: list[int]
    denom: int
    classes: list[list[int]]
    action: list[list[int]]

    @property
    def n(self) -> int:
        return len(self.labels)


def build_chain(S: ASemigroup, xs: Sequence[Fraction]) -> ActionChain:
    """Left-multiplication walk on the minimal ideal of the expansion,
    K(KR(S)), read off ``kr.left``: state i is ``kr.ideal[i]``, named by
    its shortlex-first word, as ``stationary_kr`` names it.  Its rows,
    closed classes and their action are the ones the expansion stores,
    ``kr.ideal_left`` and the minimal left ideals."""
    W, E = integer_weights(validate_probs(S, xs))
    kr = karnofsky_rhodes(S)
    return ActionChain(kr.names(kr.ideal), kr.ideal, kr.ideal_left, W, E,
                       *kr.left_ideals)


def _fixed(mass: Sequence[int], rows: Sequence[Sequence[int]], chain: ActionChain) -> bool:
    """Whether ``mass`` moved one step through ``rows`` is ``mass`` times E."""
    image = [0] * len(mass)
    for m, row in zip(mass, rows):
        if m:
            for t, w in zip(row, chain.weights):
                image[t] += m * w
    return image == [m * chain.denom for m in mass]


def _summed(row: Sequence[int], W: Sequence[int], key: Sequence[Hashable]) -> dict:
    """A row's weights summed by ``key[target]``, keys in first-reached order."""
    out: dict = {}
    for t, w in zip(row, W):
        out[key[t]] = out.get(key[t], 0) + w
    return out


def certify(result, chain: ActionChain) -> bool:
    """Exact certificate for a stationary law, a function of its chain.

    True iff the masses of ``result`` (a ``StationaryResult`` over the
    chain's labels, for ``build_chain(S, xs)`` the law over "kr" at the
    same weights) are nonnegative, sum to 1, satisfy pi T = pi on
    ``chain`` and put the right mass on each of its closed classes: the
    letters' action on the classes, ``chain.action``, must have one closed
    class, and the class masses must be stationary for it.  With pi T = pi,
    which fixes the law within each class, this pins the law.  Nothing is
    solved: with the law as integers P over D, each check is one integer
    multiplication through a table, whose image must be P·E.
    """
    pi = result.entries
    if not pi.keys() <= set(chain.labels):
        return False
    D = math.lcm(*(v.denominator for v in pi.values()))
    P = [v.numerator * (D // v.denominator) for v in (pi.get(lab, 0) for lab in chain.labels)]
    if sum(P) != D or any(p < 0 for p in P) or not _fixed(P, chain.rows, chain):
        return False
    if len(closed_classes(chain.action)) != 1:
        return False
    return _fixed([sum([P[i] for i in cls]) for cls in chain.classes], chain.action, chain)


ORACLE_TOL = 1e-13  # total variation between sweeps that ends the iteration
ORACLE_MAX_ITER = 1_000_000


def stationary_oracle(T: ActionChain) -> dict[str, float]:
    """Float power iteration, independent of the exact engine.

    Iterates the lazy chain (T+I)/2, which has the same stationary vector
    and converges for periodic chains too, until one sweep moves less than
    ``ORACLE_TOL`` in total variation.  Transient states get mass 0; more
    than one closed class is an error, and so is no convergence within
    ``ORACLE_MAX_ITER`` sweeps.
    """
    n = T.n
    if len(T.classes) != 1:
        raise NotIrreducible(f"{len(T.classes)} closed classes, need exactly 1")
    recurrent = T.classes[0]

    # Per state, each target once, in first-reached order, with its summed
    # weight over E: a correctly rounded quotient, the exact probability's float.
    cols = [[(t, w / T.denom) for t, w in _summed(row, T.weights, range(n)).items()]
            for row in T.rows]
    v = [0.0] * n
    for s in recurrent:
        v[s] = 1.0 / len(recurrent)
    for _ in range(ORACLE_MAX_ITER):
        w = [0.0] * n
        for col, vs in zip(cols, v):
            if vs:
                for t, p in col:
                    w[t] += vs * p
        w = [0.5 * (a + b) for a, b in zip(w, v)]
        norm = sum(w)
        w = [a / norm for a in w]
        delta = 0.5 * sum(abs(a - b) for a, b in zip(w, v))
        v = w
        if delta < ORACLE_TOL:
            return {T.labels[s]: v[s] for s in range(n)}
    raise NotConverged(f"no convergence after {ORACLE_MAX_ITER} sweeps")


def check_lumping(T: ActionChain, classes: Sequence[Hashable]) -> bool:
    """Exact lumpability: states in one class must send the same weight to
    each class.  ``classes[i]`` is state i's class."""
    signatures: dict = {}
    for c, row in zip(classes, T.rows):
        sig = _summed(row, T.weights, classes)
        if signatures.setdefault(c, sig) != sig:
            return False
    return True


def tv_distance(d1: Mapping[str, object], d2: Mapping[str, object]) -> float:
    """Total variation distance, as half the L1 difference.

    Summed in sorted key order, so the float does not depend on the
    interpreter's string hash seed.
    """
    keys = sorted(set(d1) | set(d2))
    return 0.5 * sum(abs(float(d1.get(k, 0)) - float(d2.get(k, 0))) for k in keys)


# work of the mixing bound in element-bits, read at each call: per step, the
# elements outside K times the bits of the tail's common denominator, summed
# over the steps.  A step's integer products cost about that, so the cap
# bounds the time as well as the steps.
MIXING_CAP = 100_000_000
E_INV_LOWER = Fraction(3678794411714423, 10**16)  # e^-1 = 0.36787944117144232...


@dataclass
class MixingBound:
    """The least k with P(T > k) <= 1/e, T the first step at which the
    random word's product lies in the minimal ideal K, and that tail.  As K
    is left zero, walks with the same letters agree from step T on, so after
    k steps the total variation is at most P(T > k) from every start."""

    k: int
    tail: Fraction


def mixing_bound(S: ASemigroup, xs: Sequence[Fraction]) -> MixingBound:
    """The tail, pushed a letter at a time through the right action outside
    K as integers over D^k, D the weights' least common denominator.  K is
    left zero iff some x is fixed by every generator ({x} is then a minimal
    right ideal, and all have one size), and is then the set of those;
    otherwise SemigroupError.  Past ``MIXING_CAP`` element-bits of work
    (the elements outside K times the bits of D^k, summed over the steps),
    SizeCapExceeded."""
    xs = validate_probs(S, xs)
    rows = S.right_action()[0]
    live = [e for e, row in enumerate(rows) if any(f != e for f in row)]
    if len(live) == S.size:
        raise SemigroupError("minimal ideal is not left zero: the mixing bound's "
                             "coupling holds only in direct mode")
    ws, denom = integer_weights(xs)
    mass = [0] * S.size  # mass[e] / scale, scale = denom^k: the product of k letters is e
    for e, w in zip(S.gens, ws):
        mass[e] += w
    k, scale, work = 1, denom, 0
    while True:
        tail = sum([mass[e] for e in live])
        if tail * E_INV_LOWER.denominator <= E_INV_LOWER.numerator * scale:
            return MixingBound(k, Fraction(tail, scale))
        work += len(live) * scale.bit_length()
        if work > MIXING_CAP:
            raise SizeCapExceeded(
                f"mixing bound of |S| = {S.size}: first-entry tail still above 1/e "
                f"after {k} steps, exceeded cap {MIXING_CAP} element-bits of work")
        step = [0] * S.size
        for e in live:
            for f, w in zip(rows[e], ws):
                step[f] += mass[e] * w
        mass = step
        k, scale = k + 1, scale * denom
