"""Stationary distributions of semigroup random walks, computed exactly.

Pipeline: expand the right Cayley graph (transition-edge identification,
stored on the semigroup and shared with every other reader, then
simple-path expansion, built per engine; both integer trees with no
labelled graph), enumerate normal forms (shortest simple paths from the
root into the ideal), and for each normal form sum the weights of all
ideal-avoiding walks that loop-erase to it.  The simple-path expansion is a
spanning tree plus back edges to ancestors, read as integer rows, so that
sum is a product along the tree path to the normal form: the letter weights
times the Green's function G_v = 1/(1 - R_v) at each vertex v on the path,
where R_v is the weight of the excursions that leave v into its subtree and
first come back to v (Lawler's loop-erased-walk formula).  One bottom-up
pass gets every G_v and one top-down prefix product gets every value.  The
regular expression for a normal form's walk language is the same sum over
Kleene expressions: the bottom-up pass runs once with letters as weights,
and per normal form only its tree path is eliminated, from the root
outward, which fixes the printed factored form.

When the minimal ideal is left zero the per-normal-form sums added per
Karnofsky-Rhodes vertex are the stationary distribution of the expanded
chain; lumping by underlying element gives the chain on the semigroup
itself.  Otherwise limit mode runs the t-killed walk on KR(S): weights
scaled by (1-t), nothing absorbing, and t times the walk weight onto a
vertex u is the mass of the state u·0 of KR(S⁰), S with a zero generator
of weight t adjoined.  Over truncated power series in t, the limit t -> 0
is read exactly from their leading terms; only the minimal ideal of KR(S)
keeps mass.  A series that loses every known term to cancellation raises,
and the pass reruns at double the precision.  Both modes name a state by
the shortlex-first word reaching its vertex, as chains and simulations do;
only the states of the result are named.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    ASemigroup,
    IdealSet,
    SemigroupError,
    Word,
    kernel_is_left_zero,
    label_sep,
    minimal_ideal,
    zero_name,
)
from .expansions import ExpansionTree, KRExpansion, karnofsky_rhodes, mccammond
from .graphs import minimal_ideal_vertices
from .kleene import (
    EPSILON,
    KleeneExpr,
    Letter,
    _one_of,
    concat,
    pretty,
    star,
    star_value,
    zimin_rewrite,
)
from .ratfunc import PrecisionLost, Series


class NotACodeWord(SemigroupError):
    pass


class LimitPrecisionExceeded(SemigroupError):
    pass


# Known terms per series in the limit pipeline: the first try, and the cap
# on doubling it after a series loses all of them to cancellation.
LIMIT_START_PRECISION = 4
LIMIT_MAX_PRECISION = 64


# -- probabilities -------------------------------------------------------------


def uniform_probs(S: ASemigroup) -> list[Fraction]:
    k = S.n_gens
    return [Fraction(1, k)] * k


def parse_probs(text: str, S: ASemigroup) -> list[Fraction]:
    """Parse 'a=1/3,b=2/3' into per-generator exact weights."""
    by_name: dict[str, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise SemigroupError(f"bad probability entry {part!r}")
        name, val = part.split("=", 1)
        name = name.strip()
        if name in by_name:
            raise SemigroupError(f"duplicate probability for generator {name!r}")
        try:
            by_name[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise SemigroupError(f"bad probability {val.strip()!r}") from None
    missing = [n for n in S.gen_names if n not in by_name]
    if missing:
        raise SemigroupError(f"missing probabilities for generators {missing}")
    extra = [n for n in by_name if n not in S.gen_names]
    if extra:
        raise SemigroupError(f"unknown generators {extra}")
    return validate_probs(S, [by_name[n] for n in S.gen_names])


def validate_probs(S: ASemigroup, xs: Sequence[Fraction]) -> list[Fraction]:
    xs = [Fraction(v) for v in xs]
    if len(xs) != S.n_gens:
        raise SemigroupError("one probability per generator required")
    if any(not (0 < v <= 1) for v in xs):
        raise SemigroupError("probabilities must lie in (0, 1]")
    if sum(xs) != 1:
        raise SemigroupError(f"probabilities sum to {sum(xs)}, not 1")
    return xs


# -- semaphore machinery ---------------------------------------------------------


def ideal_preimage_predicate(S: ASemigroup, I: IdealSet) -> Callable[[Word], bool]:
    """Word predicate: does the word's image lie in the ideal?"""
    members = I.members

    def pred(word: Word) -> bool:
        return S.product(word) in members

    return pred


def is_code_word(S: ASemigroup, word: Word, I: IdealSet) -> bool:
    """True iff the word enters the ideal exactly at its last letter."""
    if not word:
        return False
    e = S.gens[word[0]]
    for i, g in enumerate(word[1:], start=1):
        if e in I.members:
            return False
        e = S.mult(e, S.gens[g])
    return e in I.members


def semaphore_left_action(
    S: ASemigroup, word: Word, a: int, I: IdealSet | None = None
) -> Word:
    """Prefix of a.word that first enters the ideal.

    The input must itself be a code word (minimal ideal-entering word).
    """
    if I is None:
        I = minimal_ideal(S)
    if not is_code_word(S, word, I):
        raise NotACodeWord(f"{word} is not minimal for the ideal")
    new = (a,) + tuple(word)
    e = S.gens[new[0]]
    if e in I.members:
        return (new[0],)
    for i in range(1, len(new)):
        e = S.mult(e, S.gens[new[i]])
        if e in I.members:
            return new[: i + 1]
    raise AssertionError("prepending a letter must still reach the ideal")


# -- normal forms and the engine ------------------------------------------------


@dataclass
class NormalForm:
    word: Word
    mc_vertex: int
    kr_vertex: int


class StationaryEngine:
    """Shared expansion state for one semigroup and one target ideal.  An
    empty ideal (limit mode's ``frozenset()``) leaves every vertex live."""

    def __init__(self, S: ASemigroup, ideal: IdealSet | frozenset[int] | None = None):
        self.S = S
        self.ideal = ideal if ideal is not None else minimal_ideal(S)
        self.kr: KRExpansion = karnofsky_rhodes(S)
        self.mc: ExpansionTree = mccammond(self.kr)

        mc, ideal = self.mc, self.ideal  # the root's image, None, is in no ideal
        in_ideal = self._in_ideal = [x in ideal for x in mc.s_image]
        self.live = [v for v, inside in enumerate(in_ideal) if not inside]

        # the expansion's vertex order is the order of the tree-path words
        self.normal_forms = [
            NormalForm(word=mc.word(v), mc_vertex=v, kr_vertex=mc.endpoint[v])
            for v in range(1, len(in_ideal))
            if in_ideal[v] and not in_ideal[mc.parent[v]]
        ]
        self._nf_vertices = {nf.mc_vertex for nf in self.normal_forms}
        self._kleene = None  # the reduction over Kleene weights, on demand

    # -- walk sums, all normal forms in one pass over the tree -----------------

    def _exits(self, v, xs, step, take, letter_sums, skip=None) -> dict:
        """Weight of leaving v into its subtree and first coming out at each
        ancestor-or-self (keyed by that vertex).

        Back-edge letters come first, grouped by head (a bit mask of letters
        per head, each mask's weight summed once), then each live child's
        exits, taken by ``take``, times the child's step, in letter order,
        leaving out ``skip``.  Over expressions this is the order in which
        eliminating the subtree deepest first would unite the pieces.
        """
        parent, parent_gen = self.mc.parent, self.mc.parent_gen
        in_ideal = self._in_ideal
        out: dict = {}
        back: dict[int, int] = {}  # back-edge head -> mask of its letters
        children = []
        for a, w in enumerate(self.mc.out[v]):
            if w is None:
                continue
            if in_ideal[w]:
                if w not in self._nf_vertices or parent[w] != v:
                    raise AssertionError(
                        "edge from outside the ideal must enter at a normal form"
                    )
            elif parent[w] == v and parent_gen[w] == a:
                if w != skip:
                    children.append(w)
            else:
                back[w] = back.get(w, 0) | 1 << a
        for u, mask in back.items():
            x = letter_sums.get(mask)
            if x is None:
                x = letter_sums[mask] = _letter_sum(xs, mask)
            out[u] = x
        for w in children:
            sw = step[w]
            for u, e in take(w).items():
                _acc(out, u, sw * e)
        return out

    def _reduce(self, xs: Sequence, keep: bool):
        """The bottom-up pass: step weight and exits of every live vertex.

        Children are created after their parents, so in reverse creation
        order each vertex v sums its exits (see ``_exits``).  The part that
        comes back to v is R_v, and G_v = 1/(1 - R_v) (over expressions,
        (R_v)⋆).  The step weight of v is its tree letter's weight times
        G_v; the parent takes v's exits times that step.  Unless ``keep``, a
        child's exits are dropped once merged.  Exit weight still pending
        at the root went to a vertex that is not an ancestor, which a
        simple-path expansion never has: AssertionError.
        """
        one = _one_of(xs)
        parent_gen = self.mc.parent_gen
        letter_sums: dict[int, object] = {}
        # step per (tree letter, loop weight); Series hash by identity, so
        # only Fraction and expression loops share entries
        steps: dict[tuple, object] = {}
        step: dict[int, object] = {}
        exits: dict[int, dict[int, object]] = {}
        take = exits.__getitem__ if keep else exits.pop
        for v in reversed(self.live):
            out = self._exits(v, xs, step, take, letter_sums)
            loop = out.pop(v, None)
            a = parent_gen[v]  # None at the root
            if loop is None:
                step[v] = one if a is None else xs[a]
            else:
                sv = steps.get((a, loop))
                if sv is None:
                    G = star_value(loop, one)
                    sv = steps[a, loop] = G if a is None else xs[a] * G
                step[v] = sv
            exits[v] = out
        if exits.pop(0):
            raise AssertionError(
                "an exit weight reached no ancestor: back edge off the tree path"
            )
        return step, exits

    def values(self, xs: Sequence) -> dict[int, object]:
        """Walk-weight sum onto every live vertex and normal form (keyed by
        expansion vertex): the bottom-up pass, then top-down the prefix
        product of steps from the root; a normal form's step is its letter.
        """
        step = self._reduce(xs, keep=False)[0]
        parent, parent_gen = self.mc.parent, self.mc.parent_gen
        prefix = {0: step[0]}
        for v in self.live[1:]:
            prefix[v] = prefix[parent[v]] * step[v]
        for nf in self.normal_forms:
            f = nf.mc_vertex
            prefix[f] = prefix[parent[f]] * xs[parent_gen[f]]
        return prefix

    # -- symbolic expression for one normal form ------------------------------

    def expression(self, nf: NormalForm, rewrite: bool = True) -> KleeneExpr:
        """Regular expression for the ideal-avoiding walks onto this form.

        The same bottom-up reduction as ``values``, over Kleene expressions
        (built once per engine): a vertex off the target's root path leaves
        its parent ``letter · (loop)⋆ · exit``, whatever the target.  Only
        the root path, each of its vertices merged with the path's next
        vertex left out, is then eliminated per form, from the root outward.
        This fixes the compact left-to-right factored forms: loops attach
        to the vertex where the walk leaves for the target.
        """
        if self._kleene is None:
            xs = [Letter(a) for a in range(self.S.n_gens)]
            step, exits = self._reduce(xs, keep=True)
            self._kleene = (xs, step, exits.__getitem__, {}, {})
        xs, step, take, letter_sums, merged = self._kleene
        parent = self.mc.parent
        target = nf.mc_vertex
        path = [target]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()

        # per path vertex, its exits and the tree letter to the next one
        out: dict[int, dict[int, KleeneExpr]] = {}
        for v, nxt in zip(path, path[1:]):
            skip = None if nxt == target else nxt  # the target is no live child
            m = merged.get((v, skip))
            if m is None:
                m = merged[v, skip] = self._exits(
                    v, xs, step, take, letter_sums, skip
                )
            out[v] = {**m, nxt: xs[self.mc.parent_gen[nxt]]}
        for v in path[1:-1]:
            outs = out.pop(v)
            mid = star(outs.pop(v, EPSILON))
            for d in out.values():
                ev = d.pop(v, None)
                if ev is not None:
                    for w, ew in outs.items():
                        _acc(d, w, concat(ev, mid, ew))
        expr = out[0][target]
        return zimin_rewrite(expr) if rewrite else expr


def _acc(d: dict, k, v) -> None:
    old = d.get(k)
    d[k] = v if old is None else old + v


def _letter_sum(xs: Sequence, mask: int):
    """Sum of the weights of the letters in a bit mask."""
    total = None
    for a, x in enumerate(xs):
        if mask >> a & 1:
            total = x if total is None else total + x
    return total


def normal_forms(S: ASemigroup, ideal: IdealSet | None = None) -> list[NormalForm]:
    """The normal forms in word order."""
    return StationaryEngine(S, ideal).normal_forms


def nf_preimage_expr(
    S: ASemigroup, word: Word, engine: StationaryEngine | None = None
) -> KleeneExpr:
    """Expression for the walks that loop-erase to the given normal form."""
    if engine is None:
        engine = StationaryEngine(S)
    for nf in engine.normal_forms:
        if nf.word == tuple(word):
            return engine.expression(nf)
    raise SemigroupError(f"{word} is not a normal form")


# -- results ---------------------------------------------------------------------


@dataclass
class KeyInfo:
    label: str
    word: Word | None = None  # shortlex-first word reaching the KR vertex
    alt_label: str | None = None  # limit mode: the state's name u·0 on KR(S⁰)
    element: int | None = None  # underlying semigroup element
    kr_vertex: int | None = None  # vertex in the expansion of the input
    nf_words: tuple[Word, ...] = ()


@dataclass
class StationaryResult:
    over: str  # "kr" | "s" | "lumped"
    entries: dict[str, Fraction]
    key_info: dict[str, KeyInfo] = field(default_factory=dict)

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def __getitem__(self, key: str) -> Fraction:
        return self.entries[key]


def normalization_check(d: StationaryResult) -> bool:
    """Exact check that the masses sum to one."""
    return d.total() == 1


def lump_by_classifier(
    d: StationaryResult, classify: Callable[[KeyInfo], str]
) -> StationaryResult:
    """Project a distribution onto classes of its states."""
    entries: dict[str, Fraction] = {}
    info: dict[str, KeyInfo] = {}
    for label, value in d.entries.items():
        cls = classify(d.key_info[label])
        entries[cls] = entries.get(cls, Fraction(0)) + value
        info.setdefault(cls, KeyInfo(label=cls))
    ordered = dict(sorted(entries.items()))
    return StationaryResult("lumped", ordered, info)


# -- the two stationary distributions --------------------------------------------


def stationary_kr(
    S: ASemigroup,
    xs: Sequence[Fraction],
    force_limit: bool = False,
    engine: StationaryEngine | None = None,
) -> StationaryResult:
    """Stationary distribution of the walk on the expanded semigroup.

    States are the elements of the minimal ideal of the expansion; exact
    rational masses.  Falls back to the adjoined-zero limit when the
    minimal ideal is not left zero (or when forced).
    """
    xs = validate_probs(S, xs)
    I = minimal_ideal(S)
    if kernel_is_left_zero(S, I) and not force_limit:
        return _stationary_kr_direct(S, xs, I, engine)
    return _stationary_kr_limit(S, xs)


def _stationary_kr_direct(
    S: ASemigroup,
    xs: Sequence,
    I: IdealSet,
    engine: StationaryEngine | None = None,
) -> StationaryResult:
    if engine is None:
        engine = StationaryEngine(S, I)
    vals = engine.values(xs)
    # several normal forms can reach one expansion vertex: their values add
    masses: dict[int, object] = {}
    nf_words: dict[int, list[Word]] = {}
    for nf in engine.normal_forms:
        _acc(masses, nf.kr_vertex, vals[nf.mc_vertex])
        nf_words.setdefault(nf.kr_vertex, []).append(nf.word)
    del vals  # the live vertices' values: free them before the result is built
    return _kr_result(engine.kr, masses, nf_words, {})


def _stationary_kr_limit(S: ASemigroup, xs: Sequence[Fraction]) -> StationaryResult:
    """Limit mode (see the module docstring): the mass of u is the limit of
    t times the walk weights onto the simple paths that end at u."""
    engine = StationaryEngine(S, frozenset())  # nothing absorbs: all live
    kr, mc = engine.kr, engine.mc
    ideal_vertices = set(minimal_ideal_vertices(kr.out))
    onto: dict[int, list[int]] = {}  # ideal vertex -> the MC vertices onto it
    for p, u in enumerate(mc.endpoint):
        if u in ideal_vertices:
            onto.setdefault(u, []).append(p)
    prec = LIMIT_START_PRECISION
    while True:
        t = Series.variable(prec)
        one_minus_t = t.one() - t
        try:
            vals = engine.values([Series.const(v, prec) * one_minus_t for v in xs])
            masses = {
                u: (t * sum([vals[p] for p in ps[1:]], vals[ps[0]])).limit_at_zero()
                for u, ps in onto.items()
            }
            break
        except PrecisionLost as exc:
            if prec >= LIMIT_MAX_PRECISION:
                raise LimitPrecisionExceeded(
                    f"limit stage (t -> 0): series precision exhausted at "
                    f"{prec} terms, the cap: {exc}"
                ) from exc
            prec = min(2 * prec, LIMIT_MAX_PRECISION)

    # names on KR(S⁰): the normal forms onto u·0 are the simple paths onto
    # u followed by the zero letter, in vertex order, which stays word order
    # (no simple path onto u extends another), and u's word then the zero
    # letter first reaches u·0
    names0 = S.gen_names + [zero_name(S)]
    sep, z = label_sep(names0), (S.n_gens,)
    words = mc.words  # nearly every MC vertex ends in the ideal: one pass
    nf_words = {u: [words[p] + z for p in ps] for u, ps in onto.items()}
    alt_labels = {u: sep.join([names0[g] for g in kr.words[u] + z]) for u in onto}
    return _kr_result(kr, masses, nf_words, alt_labels)


def _kr_result(kr: KRExpansion, masses: dict, nf_words: dict,
               alt_labels: dict) -> StationaryResult:
    """The result over expansion vertices: per vertex its mass, the normal
    forms reaching it and, in limit mode, its name on KR(S⁰).  A state is
    named by the shortlex-first word reaching its vertex, and states come
    in the order of those words.
    """
    words, images = kr.words, kr.s_image
    order = sorted(masses, key=words.__getitem__)
    entries: dict[str, object] = {}
    info: dict[str, KeyInfo] = {}
    for v, label in zip(order, kr.names(order)):
        entries[label] = masses[v]
        info[label] = KeyInfo(
            label=label,
            word=words[v],
            alt_label=alt_labels.get(v),
            element=images[v],
            kr_vertex=v,
            nf_words=tuple(nf_words[v]),
        )
    return StationaryResult("kr", entries, info)


def stationary_s(
    S: ASemigroup, xs: Sequence[Fraction], force_limit: bool = False
) -> StationaryResult:
    """Stationary distribution of the walk on the semigroup itself.

    Obtained from the expansion-level distribution by summing over states
    with the same underlying element.
    """
    kr_level = stationary_kr(S, xs, force_limit=force_limit)
    by_element: dict[int, Fraction] = {}
    for label, value in kr_level.entries.items():
        e = kr_level.key_info[label].element
        by_element[e] = by_element.get(e, Fraction(0)) + value
    entries: dict[str, Fraction] = {}
    info: dict[str, KeyInfo] = {}
    for e in sorted(by_element, key=lambda e: S.element_name(e)):
        label = S.element_name(e)
        entries[label] = by_element[e]
        info[label] = KeyInfo(label=label, element=e)
    return StationaryResult("s", entries, info)


def expressions_report(
    S: ASemigroup, engine: StationaryEngine | None = None
) -> dict[str, str]:
    """Pretty-printed expression per normal form (dict preserves sort order)."""
    if engine is None:
        engine = StationaryEngine(S)
    out = {}
    for nf in engine.normal_forms:
        out[S.word_label(nf.word)] = pretty(engine.expression(nf), S.gen_names)
    return out
