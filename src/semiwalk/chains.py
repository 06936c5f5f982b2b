"""Independent verification machinery for the exact engine.

The column-stochastic transition matrix (exact rationals) on the minimal
ideal of the Karnofsky-Rhodes expansion, read off its left-action table;
the exact certificate of a law on such a chain, a float power-iteration
oracle kept apart from the exact path, the lumping check, total-variation
distance, and the mixing bound from the exact tail P(T > k) of the first
step T at which the random word's product enters the minimal ideal.
"""

from __future__ import annotations

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


class TransitionMatrix:
    """Sparse column-stochastic matrix with state labels.

    cols[s] maps target index -> exact probability of s -> target;
    ``states``, when given, holds the expansion vertex behind each label.
    Columns are not checked here: ``build_chain`` checks the weight sum
    that every column adds up to.
    """

    def __init__(self, labels: Sequence[str], cols: list[dict[int, Fraction]],
                 states: Sequence[int] | None = None):
        self.labels = list(labels)
        self.cols = cols
        self.states = states

    @property
    def n(self) -> int:
        return len(self.labels)


def build_chain(S: ASemigroup, xs: Sequence[Fraction]) -> TransitionMatrix:
    """Left-multiplication walk on the minimal ideal of the expansion,
    K(KR(S)).  States are named by the expansion vertex's label: its
    shortlex-first word, the name ``stationary_kr`` gives it too.

    Every column receives one weight per generator, so each sums to
    ``sum(xs)``; ``validate_probs`` checks that one sum instead of every
    column.
    """
    xs = validate_probs(S, xs)
    kr = karnofsky_rhodes(S)
    states = kr.ideal
    index = {s: i for i, s in enumerate(states)}
    cols: list[dict[int, Fraction]] = [dict() for _ in states]
    for col, s in zip(cols, states):
        for u, x in zip(kr.left[s], xs):
            t = index[u]
            col[t] = col.get(t, Fraction(0)) + x
    return TransitionMatrix(kr.names(states), cols, states=states)


def certify(S: ASemigroup, xs: Sequence[Fraction], result, chain) -> bool:
    """Exact certificate for an expansion-level stationary law.

    True iff the masses of ``result`` (a ``StationaryResult`` over "kr") are
    nonnegative, sum to 1, satisfy pi T = pi on ``chain``, which is
    ``build_chain(S, xs)``, and put the right mass on each of its closed
    classes.  Those are the minimal left ideals the expansion stores, over
    ``kr.ideal``, which is ``chain.states``, and the letters act on them
    through any representative; that action must have one closed
    class, and the class masses must be stationary for it.  With pi T = pi,
    which fixes the law within each class, this pins the law.  Nothing is
    solved: each check is one exact multiplication.
    """
    pi = result.entries
    if (sum(pi.values(), Fraction(0)) != 1 or any(v < 0 for v in pi.values())
            or not set(pi) <= set(chain.labels)):
        return False
    vec = [pi.get(lab, Fraction(0)) for lab in chain.labels]
    image = [Fraction(0)] * chain.n
    for s, col in enumerate(chain.cols):
        if vec[s]:
            for t, p in col.items():
                image[t] += vec[s] * p
    if image != vec:
        return False
    classes, action = karnofsky_rhodes(S).left_ideals
    if len(closed_classes(action)) != 1:
        return False
    mass = [sum([vec[i] for i in cls], Fraction(0)) for cls in classes]
    moved = [Fraction(0)] * len(classes)
    for m, row in zip(mass, action):
        for x, c in zip(xs, row):
            moved[c] += m * x
    return moved == mass


ORACLE_TOL = 1e-13  # total variation between sweeps that ends the iteration
ORACLE_MAX_ITER = 1_000_000


def stationary_oracle(T: TransitionMatrix) -> dict[str, float]:
    """Float power iteration, independent of the exact engine.

    Iterates the lazy chain (T+I)/2, which has the same stationary vector
    and converges for periodic chains too, until one sweep moves less than
    ``ORACLE_TOL`` in total variation.  Transient states get mass 0; more
    than one closed class is an error, and so is no convergence within
    ``ORACLE_MAX_ITER`` sweeps.
    """
    n = T.n
    classes = closed_classes([list(col) for col in T.cols])
    if len(classes) != 1:
        raise NotIrreducible(f"{len(classes)} closed classes, need exactly 1")
    recurrent = classes[0]

    # Each probability is converted once, and a sweep adds column by column
    # in the order of ``T.cols``.
    cols = [[(t, float(p)) for t, p in col.items()] for col in T.cols]
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
    raise NotConverged(f"no convergence after {ORACLE_MAX_ITER} iterations")


def check_lumping(T: TransitionMatrix, classes: Mapping[str, Hashable]) -> bool:
    """Exact lumpability: states in one class must have identical
    class-aggregated columns.  ``classes`` maps state label -> its class."""
    idx_class = [classes[lab] for lab in T.labels]
    signatures: dict[Hashable, dict[Hashable, Fraction]] = {}
    for s in range(T.n):
        sig: dict[Hashable, Fraction] = {}
        for t, p in T.cols[s].items():
            c = idx_class[t]
            sig[c] = sig.get(c, Fraction(0)) + p
        if signatures.setdefault(idx_class[s], sig) != sig:
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
    denom = 1
    for x in xs:  # times the part of x's denominator that denom lacks
        denom *= Fraction(denom, x.denominator).denominator
    ws = [int(x * denom) for x in xs]
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
