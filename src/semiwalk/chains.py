"""Independent verification machinery for the exact engine.

The column-stochastic transition matrix (exact rationals) on the minimal
ideal of the Karnofsky-Rhodes expansion, the exact certificate of a law on
it, a float power-iteration oracle kept apart from the exact path, the
lumping check, total-variation distance and the mixing-time bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

# minimal_ideal is not called here; perfbench/spans.py wraps chains.minimal_ideal
from .core import ASemigroup, SemigroupError, minimal_ideal  # noqa: F401
from .expansions import karnofsky_rhodes, mccammond
from .graphs import closed_classes, minimal_ideal_vertices, sccs
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
    # the expansion graph is its own right Cayley graph
    kr = karnofsky_rhodes(S)
    states = minimal_ideal_vertices(kr.out)
    index = {s: i for i, s in enumerate(states)}
    cols: list[dict[int, Fraction]] = [dict() for _ in states]
    for col, s in zip(cols, states):
        for a in range(S.n_gens):
            t = index[kr.left_multiply(a, s)]
            col[t] = col.get(t, Fraction(0)) + xs[a]
    return TransitionMatrix(kr.names(states), cols, states=states)


def certify(S: ASemigroup, xs: Sequence[Fraction], result) -> bool:
    """Exact certificate for an expansion-level stationary law.

    True iff the masses of ``result`` (a ``StationaryResult`` over "kr") are
    nonnegative, sum to 1, satisfy pi T = pi on the chain
    ``build_chain(S, xs)`` and put the right mass on each of its
    closed classes.  Those are the minimal left ideals, and the letters act
    on them through any representative; that action must have one closed
    class, and the class masses must be stationary for it.  With pi T = pi,
    which fixes the law within each class, this pins the law.  Nothing is
    solved: each check is one exact multiplication.
    """
    pi = result.entries
    if sum(pi.values(), Fraction(0)) != 1 or any(v < 0 for v in pi.values()):
        return False
    chain = build_chain(S, xs)
    if not set(pi) <= set(chain.labels):
        return False
    vec = [pi.get(lab, Fraction(0)) for lab in chain.labels]
    image = [Fraction(0)] * chain.n
    for s, col in enumerate(chain.cols):
        if vec[s]:
            for t, p in col.items():
                image[t] += vec[s] * p
    if image != vec:
        return False
    kr, states = karnofsky_rhodes(S), chain.states
    classes = closed_classes([list(col) for col in chain.cols])
    class_of = {states[i]: c for c, cls in enumerate(classes) for i in cls}
    action = [[class_of[kr.out[states[cls[0]]][a]] for a in range(S.n_gens)]
              for cls in classes]
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


def check_lumping(T: TransitionMatrix, classes: Mapping[str, str]) -> bool:
    """Exact lumpability: states in one class must have identical
    class-aggregated columns.  ``classes`` maps state label -> class label."""
    idx_class = [classes[lab] for lab in T.labels]
    signatures: dict[str, dict[str, Fraction]] = {}
    for s in range(T.n):
        sig: dict[str, Fraction] = {}
        for t, p in T.cols[s].items():
            c = idx_class[t]
            sig[c] = sig.get(c, Fraction(0)) + p
        cls = idx_class[s]
        if cls in signatures:
            if signatures[cls] != sig:
                return False
        else:
            signatures[cls] = sig
    return True


def tv_distance(d1: Mapping[str, object], d2: Mapping[str, object]) -> float:
    """Total variation distance, as half the L1 difference.

    Summed in sorted key order, so the float does not depend on the
    interpreter's string hash seed.
    """
    keys = sorted(set(d1) | set(d2))
    return 0.5 * sum(abs(float(d1.get(k, 0)) - float(d2.get(k, 0))) for k in keys)


@dataclass
class MixingBound:
    """k = ceil(2*(n + gap - 1) / p_min**gap) bounds the time to reach
    total variation 1/e, where n is the expansion tree depth and gap is
    one more than the longest run of non-transitional tree edges on any
    root-to-leaf path."""

    n: int
    gap: int
    p_min: Fraction
    k: int


def mixing_bound(S: ASemigroup, xs: Sequence[Fraction]) -> MixingBound:
    xs = validate_probs(S, xs)
    mc = mccammond(karnofsky_rhodes(S))
    comp = sccs(mc.out)
    parent = mc.parent

    # parents come before children; a tree edge is transitional when its
    # ends lie in different components
    depth = [0] * len(parent)
    run = [0] * len(parent)  # current run of consecutive non-transitional tree edges
    for w in range(1, len(parent)):
        v = parent[w]
        depth[w] = depth[v] + 1
        run[w] = 0 if comp[v] != comp[w] else run[v] + 1
    best_depth = max(depth)
    best_run = max(run)

    p = min(xs)
    gap = 1 + best_run
    k = math.ceil(Fraction(2) * (best_depth + gap - 1) / p**gap)
    return MixingBound(n=best_depth, gap=gap, p_min=p, k=k)
