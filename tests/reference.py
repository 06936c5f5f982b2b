"""Constructions the tests use as references, not part of the library.

Each one checks library code or a claim of the paper from another side:
the minimal ideal as the union of the closed classes, the two-sided
ideals and quotients of a semigroup, S with a zero adjoined
(whose direct law at zero weight t tends to limit mode's law as t -> 0),
stability of the expansions, the words an expression describes, the
walk-expression rewrite and printer walked as trees, the semaphore code
(the minimal ideal-entering words) with its word-level
walk, which lumps onto the Karnofsky-Rhodes chain, that chain as
columns of Fractions with its certificate, lumping check and float
oracle, the first-entry tail of the random word by enumeration, the
simulator's random stream drawn one output at a time, the product
formula for expansions that are a tree plus loops, each state's record
(word, element, vertex and name on KR(S⁰)) read off the expansion, the
expansion vertex a word reaches and the engine's copy masses keyed by it,
the law over the expansion named and ordered by its word tuples, limit
mode's law over the expansion read off the expansion, S's minimal left
ideals as the closed classes of left multiplication, the law over
S lumped from it, every family at its range ends, a 300-letter
band, the Karnofsky-Rhodes expansion keyed by sets of transition edges, and the
walk sums on one McCammond tree over the whole expansion.  The CLI, the demos and the benchmark never call them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

import pytest

from semiwalk import expansions, families
from semiwalk.chains import ORACLE_TOL
from semiwalk.simulate import _GOLDEN, _MASK, mix64
from semiwalk.core import (
    ZERO_NAME,
    ASemigroup,
    SemigroupError,
    SizeCapExceeded,
    Word,
    _fresh_name,
    label_sep,
    minimal_ideal,
    semigroup_from_table,
    zero_name,
)
from semiwalk.expansions import ExpansionTree, KRExpansion, karnofsky_rhodes, mccammond
from semiwalk.graphs import RootedLabeledGraph, closed_classes, right_cayley, transition_edges
from semiwalk.kleene import (
    EPSILON,
    Concat,
    Epsilon,
    KleeneExpr,
    Letter,
    Star,
    Union,
    concat,
    star,
    union,
)
from semiwalk.stationary import (
    StationaryEngine,
    StationaryResult,
    _acc,
    _ShapeSums,
    _stationary_vector,
    stationary_kr,
    validate_probs,
    zero_limit_names,
)


# -- semigroups and ideals -------------------------------------------------------


# each family's parameters with their desk-scale ranges, as the family table holds them
DESK_CAPS = {
    name: {key: bounds for key, _, bounds in family.params}
    for name, family in families._FAMILIES.items()
}


def desk_corners() -> list[str]:
    """Every family with each parameter at the low or high end of its range
    (a tower's depth range is keyed by its n)."""
    corners = []
    for name, caps in DESK_CAPS.items():
        values = [()]
        for bounds in caps.values():
            values = [v + (end,) for v in values for end in sorted(set(
                bounds[v[0]] if isinstance(bounds, dict) else bounds))]
        corners += [name + (":" + ",".join(map(str, v)) if v else "")
                    for v in values]
    return corners


def principal_ideal(S: ASemigroup, e: int) -> frozenset[int]:
    """The two-sided ideal generated by a single element."""
    seen = {e}
    stack = [e]
    while stack:
        u = stack.pop()
        for ge in S.gens:
            for v in (S.mult(u, ge), S.mult(ge, u)):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return frozenset(seen)


def closed_class_ideal(S: ASemigroup) -> frozenset[int]:
    """K(S) as the union of the closed classes of the generators' right
    action, its minimal right ideals, each found by its own SCC search."""
    return frozenset(e for R in closed_classes(S.right_action()[0]) for e in R)


def is_left_zero(S: ASemigroup, I: frozenset[int]) -> bool:
    """True iff x*y = x for all x, y in the given set."""
    for x in I:
        for y in I:
            if S.mult(x, y) != x:
                return False
    return True


def rees_quotient(S: ASemigroup, I: frozenset[int]) -> ASemigroup:
    """Collapse a two-sided ideal to a single zero element."""
    survivors = [e for e in range(S.size) if e not in I]
    new_index = {e: i for i, e in enumerate(survivors)}
    zero = len(survivors)
    m = S.mult

    def mult(i: int, j: int) -> int:
        if i == zero or j == zero:
            return zero
        return new_index.get(m(survivors[i], survivors[j]), zero)

    names = [S.element_name(e) for e in survivors]
    names.append(_fresh_name(ZERO_NAME, names))
    gens = [new_index.get(g, zero) for g in S.gens]
    # A quotient of a semigroup by an ideal stays associative and is
    # generated by the images of its generators.
    return ASemigroup(zero + 1, gens, list(S.gen_names), mult, names)


def adjoin_zero(S: ASemigroup) -> ASemigroup:
    """Append a new zero element, also added as the last generator."""
    zero = S.size
    m = S.mult

    def mult(i: int, j: int) -> int:
        if i == zero or j == zero:
            return zero
        return m(i, j)

    zname = zero_name(S)
    names = S.element_names() + [zname]
    # Adjoining a zero keeps S associative and generated.
    return ASemigroup(zero + 1, S.gens + [zero], S.gen_names + [zname], mult, names)


def opposite(S: ASemigroup) -> ASemigroup:
    """Same elements, multiplication reversed."""
    m = S.mult

    def mult(i: int, j: int) -> int:
        return m(j, i)

    # Reversing an associative product keeps it associative, and the same
    # generators still generate.
    return ASemigroup(S.size, S.gens, S.gen_names, mult, S.element_names())

# -- graphs and expansions -------------------------------------------------------


def graphs_isomorphic(G: RootedLabeledGraph, H: RootedLabeledGraph) -> bool:
    """Rooted label-respecting isomorphism (ignores vertex labels)."""
    if G.n != H.n or len(G.alphabet) != len(H.alphabet):
        return False
    k = len(G.alphabet)
    pair = {G.root: H.root}
    back = {H.root: G.root}
    queue = [(G.root, H.root)]
    head = 0
    while head < len(queue):
        v, w = queue[head]
        head += 1
        for a in range(k):
            gv, hw = G.out[v][a], H.out[w][a]
            if (gv is None) != (hw is None):
                return False
            if gv is None:
                continue
            if gv in pair:
                if pair[gv] != hw:
                    return False
            elif hw in back:
                return False
            else:
                pair[gv] = hw
                back[hw] = gv
                queue.append((gv, hw))
    return len(pair) == G.n


def is_mc_stable(S: ASemigroup) -> bool:
    """True iff the Karnofsky-Rhodes expansion has unique simple paths.

    Equivalently, the McCammond expansion adds no vertices.
    """
    kr = karnofsky_rhodes(S)
    with pytest.MonkeyPatch.context() as mp:
        # the expansion stops as soon as it is larger than the graph
        mp.setattr(expansions, "MC_CAP", len(kr.out))
        try:
            mc = mccammond(kr)
        except SizeCapExceeded:
            return False
    return len(mc.out) == len(kr.out)


def is_stable1(S: ASemigroup) -> bool:
    """True iff expanding changes nothing at all: the expansion graph is
    label-isomorphic to the right Cayley graph and has unique simple paths."""
    # endpoint maps it onto the Cayley graph edge for edge: equal sizes suffice
    return len(karnofsky_rhodes(S).out) == S.size + 1 and is_mc_stable(S)


def back_edges(tree: ExpansionTree) -> set[tuple[int, int]]:
    """The (tail, letter) pairs of the expansion's edges that are not tree
    edges."""
    return {(v, a) for v, row in enumerate(tree.out) for a, w in enumerate(row)
            if w is not None and (tree.parent[w], tree.parent_gen[w]) != (v, a)}


# -- walk languages --------------------------------------------------------------


def enumerate_words(e: KleeneExpr, max_len: int) -> dict[tuple[int, ...], int]:
    """Multiset (word -> parse count) of words up to max_len."""
    if isinstance(e, Epsilon):
        return {(): 1}
    if isinstance(e, Letter):
        return {(e.gen,): 1} if max_len >= 1 else {}
    if isinstance(e, Concat):
        acc = {(): 1}
        for p in e.parts:
            part = enumerate_words(p, max_len)
            nxt: dict[tuple[int, ...], int] = {}
            for w1, c1 in acc.items():
                for w2, c2 in part.items():
                    if len(w1) + len(w2) <= max_len:
                        w = w1 + w2
                        nxt[w] = nxt.get(w, 0) + c1 * c2
            acc = nxt
            if not acc:
                break
        return acc
    if isinstance(e, Union):
        acc = {}
        for p in e.parts:
            for w, c in enumerate_words(p, max_len).items():
                acc[w] = acc.get(w, 0) + c
        return acc
    assert isinstance(e, Star)
    child = enumerate_words(e.child, max_len)
    child.pop((), None)
    acc = {(): 1}
    frontier = {(): 1}
    while frontier:
        nxt: dict[tuple[int, ...], int] = {}
        for w1, c1 in frontier.items():
            for w2, c2 in child.items():
                if len(w1) + len(w2) <= max_len:
                    w = w1 + w2
                    nxt[w] = nxt.get(w, 0) + c1 * c2
        for w, c in nxt.items():
            acc[w] = acc.get(w, 0) + c
        frontier = nxt
    return acc


def tree_zimin_rewrite(e: KleeneExpr) -> KleeneExpr:
    """``kleene.zimin_rewrite`` walking the expression as a tree: a shared
    subexpression is rewritten again at each place."""
    if isinstance(e, (Letter, Epsilon)):
        return e
    if isinstance(e, Concat):
        return concat(*[tree_zimin_rewrite(p) for p in e.parts])
    if isinstance(e, Union):
        return union(*[tree_zimin_rewrite(p) for p in e.parts])
    assert isinstance(e, Star)
    child = tree_zimin_rewrite(e.child)
    if not isinstance(child, Union):
        return star(child)
    expr = star(child.parts[0])
    for part in child.parts[1:]:
        expr = concat(expr, star(concat(part, expr)))
    return expr


def tree_pretty(e: KleeneExpr, names: Sequence[str]) -> str:
    """``kleene.pretty`` walking the expression as a tree: a shared
    subexpression is printed again at each place."""
    sep = label_sep(names)

    def render(node) -> str:
        if isinstance(node, Epsilon):
            return "ε"
        if isinstance(node, Letter):
            return names[node.gen]
        if isinstance(node, Concat):
            return sep.join(render(p) for p in node.parts)
        if isinstance(node, Union):
            return "{" + ",".join(render(p) for p in node.parts) + "}"
        assert isinstance(node, Star)
        child = node.child
        s = render(child)
        if not ((isinstance(child, Letter) and len(names[child.gen]) == 1)
                or isinstance(child, Union)):
            s = "(" + s + ")"
        return s + "⋆"

    return render(e)


# -- chains as columns of Fractions ---------------------------------------------


class TransitionMatrix:
    """Sparse column-stochastic matrix with state labels: ``cols[s]`` maps
    target index -> exact probability of s -> target."""

    def __init__(self, labels: Sequence[str], cols: list[dict[int, Fraction]]):
        self.labels = list(labels)
        self.cols = cols

    @property
    def n(self) -> int:
        return len(self.labels)


def fraction_chain(S: ASemigroup, xs: Sequence[Fraction]) -> TransitionMatrix:
    """``build_chain``'s walk on the expansion ideal as Fraction columns:
    each letter's weight added to the column entry of its target."""
    xs = validate_probs(S, xs)
    kr = karnofsky_rhodes(S)
    index = {s: i for i, s in enumerate(kr.ideal)}
    cols: list[dict[int, Fraction]] = [dict() for _ in kr.ideal]
    for col, s in zip(cols, kr.ideal):
        for u, x in zip(kr.left[s], xs):
            col[index[u]] = col.get(index[u], Fraction(0)) + x
    return TransitionMatrix(kr.names(kr.ideal), cols)


def fraction_certify(S: ASemigroup, xs: Sequence[Fraction], result,
                     T: TransitionMatrix) -> bool:
    """``certify`` in Fractions: masses nonnegative and summing to 1 on
    the chain's states, pi T = pi, and the class masses stationary for
    the letters' action on the minimal left ideals, which has one closed
    class."""
    pi = result.entries
    if (sum(pi.values(), Fraction(0)) != 1 or any(v < 0 for v in pi.values())
            or not set(pi) <= set(T.labels)):
        return False
    vec = [pi.get(lab, Fraction(0)) for lab in T.labels]
    image = [Fraction(0)] * T.n
    for s, col in enumerate(T.cols):
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


def fraction_lumping(T: TransitionMatrix, classes: Mapping[str, Hashable]) -> bool:
    """``check_lumping`` in Fractions, ``classes`` mapping label -> class."""
    return check_interior_lumping(T, classes, set(T.labels))


def fraction_oracle(T: TransitionMatrix) -> dict[str, float]:
    """``stationary_oracle`` over Fraction columns: the lazy power
    iteration from the uniform law on the one closed class, with each
    probability converted by ``float`` once."""
    classes = closed_classes([list(col) for col in T.cols])
    assert len(classes) == 1, classes
    cols = [[(t, float(p)) for t, p in col.items()] for col in T.cols]
    v = [0.0] * T.n
    for s in classes[0]:
        v[s] = 1.0 / len(classes[0])
    while True:
        w = [0.0] * T.n
        for col, vs in zip(cols, v):
            for t, p in col:
                w[t] += vs * p
        w = [0.5 * (a + b) for a, b in zip(w, v)]
        norm = sum(w)
        w = [a / norm for a in w]
        delta = 0.5 * sum(abs(a - b) for a, b in zip(w, v))
        v = w
        if delta < ORACLE_TOL:
            return dict(zip(T.labels, v))


# -- the semaphore code and its word-level chain ---------------------------------


class NotACodeWord(SemigroupError):
    pass


def is_code_word(S: ASemigroup, word: Word, I: frozenset[int]) -> bool:
    """True iff the word enters the ideal exactly at its last letter."""
    if not word:
        return False
    e = S.gens[word[0]]
    for i, g in enumerate(word[1:], start=1):
        if e in I:
            return False
        e = S.mult(e, S.gens[g])
    return e in I


def semaphore_left_action(
    S: ASemigroup, word: Word, a: int, I: frozenset[int] | None = None
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
    if e in I:
        return (new[0],)
    for i in range(1, len(new)):
        e = S.mult(e, S.gens[new[i]])
        if e in I:
            return new[: i + 1]
    raise AssertionError("prepending a letter must still reach the ideal")


def truncated_semaphore_chain(
    S: ASemigroup, xs: Sequence[Fraction], max_len: int
) -> tuple[TransitionMatrix, set[str], dict[str, tuple[int, ...]]]:
    """Word-level walk restricted to ideal-entering words of bounded length.

    Returns the (substochastic at the boundary) matrix over word labels,
    the set of interior labels whose full column lies inside the
    truncation, and the label -> word map.
    """
    xs = validate_probs(S, xs)
    I = minimal_ideal(S)
    words: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int | None]] = [((), None)]
    while stack:
        word, e = stack.pop()
        if len(word) >= max_len:
            continue
        for a, ge in enumerate(S.gens):
            f = ge if e is None else S.mult(e, ge)
            if f in I:
                words.append(word + (a,))
            else:
                stack.append((word + (a,), f))
    words.sort()
    index = {w: i for i, w in enumerate(words)}
    labels = [S.word_label(w) for w in words]
    cols: list[dict[int, Fraction]] = [dict() for _ in words]
    interior: set[str] = set()
    for i, w in enumerate(words):
        inside = True
        for a in range(S.n_gens):
            t = semaphore_left_action(S, w, a, I)
            j = index.get(t)
            if j is None:
                inside = False
                continue
            cols[i][j] = cols[i].get(j, Fraction(0)) + xs[a]
        if inside:
            interior.add(labels[i])
    T = TransitionMatrix(labels, cols)
    return T, interior, dict(zip(labels, words))


def first_entry_tail(S: ASemigroup, xs: Sequence[Fraction], k: int) -> Fraction:
    """P(T > k) by brute force: the weight of the words of length k whose
    product lies outside the minimal ideal (the empty word's has no image,
    so P(T > 0) = 1).  Enumerates all |A|^k words."""
    if k == 0:
        return Fraction(1)
    I = minimal_ideal(S)
    tail = Fraction(0)
    for word in itertools.product(range(S.n_gens), repeat=k):
        if S.product(word) not in I:
            weight = Fraction(1)
            for a in word:
                weight *= xs[a]
            tail += weight
    return tail


def check_interior_lumping(
    T: TransitionMatrix, classes: Mapping[str, Hashable], interior: set[str]
) -> bool:
    """``check_lumping`` on the columns of the interior states only, as
    for a truncated chain, whose boundary columns are incomplete."""
    idx_class = [classes[lab] for lab in T.labels]
    signatures: dict[Hashable, dict[Hashable, Fraction]] = {}
    for s, lab in enumerate(T.labels):
        if lab not in interior:
            continue
        sig: dict[Hashable, Fraction] = {}
        for t, p in T.cols[s].items():
            sig[idx_class[t]] = sig.get(idx_class[t], Fraction(0)) + p
        if signatures.setdefault(idx_class[s], sig) != sig:
            return False
    return True


def apply_float(T: TransitionMatrix, v: list[float]) -> list[float]:
    """One step of the chain on a float vector, column by column."""
    out = [0.0] * T.n
    for s, col in enumerate(T.cols):
        vs = v[s]
        if vs:
            for t, p in col.items():
                out[t] += vs * float(p)
    return out


# -- the simulator's stream ------------------------------------------------------


class SplitMix64:
    """The simulator's stream (Steele, Lea and Flood, OOPSLA 2014) one
    output at a time: the state advances by GOLDEN, and each output is
    ``mix64`` of the new state.  The simulator computes the same outputs a
    block at a time."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def next53(self) -> int:
        return self.next64() >> 11


# -- stationary laws -------------------------------------------------------------


def r_trivial_stationary(S: ASemigroup, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    """Product formula for semigroups whose expansion is a tree plus loops:
    each prefix of a normal form contributes its letter weight over one
    minus the weight of the generators stabilizing the prefix."""
    out = {}
    for nf in StationaryEngine(S).normal_forms:
        word = nf.word
        value = Fraction(1)
        prefix = None
        for pos, g in enumerate(word):
            if pos > 0:
                stab = sum(
                    (xs[a] for a in range(S.n_gens)
                     if S.mult(prefix, S.gens[a]) == prefix),
                    Fraction(0),
                )
                value *= xs[g] / (1 - stab)
            else:
                value *= xs[g]
            prefix = S.gens[g] if prefix is None else S.mult(prefix, S.gens[g])
        out[S.word_label(word)] = value
    return out


@dataclass
class KeyInfo:
    """A state's record, rebuilt from the expansion: its fields and their
    order are those the recorded ``repr`` digests were taken over."""

    word: Word | None = None  # shortlex-first word reaching the KR vertex
    alt_label: str | None = None  # limit mode: the state's name u·0 on KR(S⁰)
    element: int | None = None  # underlying semigroup element
    kr_vertex: int | None = None  # vertex in the expansion of the input


def kr_key_info(S: ASemigroup, d: StationaryResult,
                alt_labels: Mapping[str, str] | None = None) -> dict[str, KeyInfo]:
    """Per state of a law over the expansion of S, in the law's order, its
    record: the vertex named by the state's label, its word and element,
    and its name on KR(S⁰) from ``alt_labels`` (limit mode passes
    ``zero_limit_names(S)``)."""
    kr = karnofsky_rhodes(S)
    vertex = dict(zip(kr.names(kr.ideal), kr.ideal))
    alt = alt_labels or {}
    return {label: KeyInfo(kr.words[v], alt.get(label), kr.s_image[v], v)
            for label, v in zip(d.entries, map(vertex.__getitem__, d.entries))}


def s_key_info(S: ASemigroup, d: StationaryResult) -> dict[str, KeyInfo]:
    """Per state of a law over S, in the law's order, its element."""
    element = {S.element_name(e): e for e in range(S.size)}
    return {label: KeyInfo(element=element[label]) for label in d.entries}


def lump_by_classifier(
    S: ASemigroup, d: StationaryResult, classify: Callable[[KeyInfo], str]
) -> StationaryResult:
    """Project a law over the expansion of S onto classes of its states."""
    entries: dict[str, Fraction] = {}
    for label, info in kr_key_info(S, d).items():
        cls = classify(info)
        entries[cls] = entries.get(cls, Fraction(0)) + d.entries[label]
    return StationaryResult(dict(sorted(entries.items())))


def kr_vertex(kr: KRExpansion, word: Word) -> int:
    """The expansion vertex that ``word`` reaches from the root along
    ``kr.out``: for a normal form, the ideal vertex it enters."""
    v = 0
    for a in word:
        v = kr.out[v][a]
    return v


def values_by_vertex(S: ASemigroup, engine, xs: Sequence) -> dict[int, object]:
    """``engine.values`` keyed by expansion vertex: each ideal copy's word
    followed from the root along ``kr.out``.  The words must come in
    order, each the breadth-first tree word of its vertex (the
    shortlex-first word reaching it)."""
    vals = engine.values(xs)
    assert list(vals) == sorted(vals)
    kr = karnofsky_rhodes(S)
    by_vertex = {kr_vertex(kr, w): m for w, m in vals.items()}
    assert [kr.words[u] for u in by_vertex] == list(vals)
    return by_vertex


def word_sorted_kr_result(kr: KRExpansion, masses: Mapping[int, Fraction]) -> StationaryResult:
    """The law over expansion vertices named and ordered through the word
    tuples ``kr.words``: each state by its word's label, in word order."""
    order = sorted(masses, key=kr.words.__getitem__)
    return StationaryResult(dict(zip(kr.names(order), map(masses.__getitem__, order))))


def _left_ideals(S: ASemigroup, K: list[int]) -> tuple[list, list]:
    """S's minimal left ideals, the closed classes of left multiplication
    on K = K(S) as indices into K, and the letters' action on them: a maps
    the class of any u to ``action[c][a]``, the class of u·a."""
    index = {u: i for i, u in enumerate(K)}
    lefts = closed_classes([[index[S.mult(g, u)] for g in S.gens] for u in K])
    class_of = {K[i]: c for c, L in enumerate(lefts) for i in L}
    rows = S.right_action()[0]
    return lefts, [[class_of[f] for f in rows[K[L[0]]]] for L in lefts]


def kr_limit_law(S: ASemigroup, xs: Sequence[Fraction]) -> StationaryResult:
    """Limit mode's law over the expansion read off the expansion itself:
    h per ideal copy from ``values_by_vertex``, the expansion's own minimal
    left ideals and their stationary law, |H| = |K(KR)| / (#R·#L), and the
    states named and ordered by ``word_sorted_kr_result``."""
    kr = karnofsky_rhodes(S)
    h = {kr.copy_of[u]: m for u, m in values_by_vertex(S, StationaryEngine(S), xs).items()}
    lefts, action = kr.left_ideals
    nu = _stationary_vector(action, xs)
    l_of = {kr.ideal[i]: j for j, L in enumerate(lefts) for i in L}
    h_size = len(kr.ideal) // (len(h) * len(lefts))
    masses = {u: h[kr.copy_of[u]] / h_size * nu[l_of[u]] for u in kr.ideal}
    return word_sorted_kr_result(kr, masses)


def kr_lumped_s(S: ASemigroup, xs: Sequence[Fraction]) -> StationaryResult:
    """The law over S read off the law over the expansion: each ideal
    vertex's mass added to its element, the states named by element and in
    name order.  Lumping is exact, as the walk on the expansion's ideal
    lumps onto the walk on S."""
    kr = karnofsky_rhodes(S)
    vertex = dict(zip(kr.names(kr.ideal), kr.ideal))
    by_element: dict[int, Fraction] = {}
    for label, m in stationary_kr(S, xs).entries.items():
        _acc(by_element, kr.s_image[vertex[label]], m)
    names = {e: S.element_name(e) for e in by_element}
    return StationaryResult({names[e]: by_element[e]
                             for e in sorted(by_element, key=names.__getitem__)})


def wide_band(identity: bool) -> ASemigroup:
    """300 letters over a left-zero band of four elements; with ``identity``
    half of the letters are an adjoined identity, so words run longer than
    one letter and the expansion has 22,801 vertices."""
    n = 5
    table = [[j if i == 0 else i for j in range(n)] if identity else [i] * n
             for i in range(n)]
    gens = [0] * 150 + [1 + i % 4 for i in range(150)] if identity else [i % n for i in range(300)]
    return semigroup_from_table(table, gens)


# -- the McCammond-tree engine -----------------------------------------------------


def frozenset_kr(S: ASemigroup) -> tuple[list, list, list, list]:
    """The Karnofsky-Rhodes expansion as a breadth-first search in letter
    order keyed by (Cayley vertex, frozenset of transition edges crossed).
    Returns its ``out``, ``parent``, ``parent_gen`` and ``endpoint``."""
    rcay = right_cayley(S)
    trans = transition_edges(rcay)
    k = S.n_gens
    key0 = (rcay.root, frozenset())
    index = {key0: 0}
    keys = [key0]
    parent, parent_gen, out = [None], [None], [[None] * k]
    head = 0
    while head < len(keys):
        v = head
        head += 1
        rv, tset = keys[v]
        for a in range(k):
            key = (rcay.out[rv][a], tset | {(rv, a)} if (rv, a) in trans else tset)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                parent.append(v)
                parent_gen.append(a)
                out.append([None] * k)
            out[v][a] = index[key]
    return out, parent, parent_gen, [key[0] for key in keys]


@dataclass
class TreeNormalForm:
    mc_vertex: int  # its word is the tree-path word ``mc.words[mc_vertex]``
    kr_vertex: int


class TreeEngine:
    """The walk sums on one McCammond tree over the whole Karnofsky-Rhodes
    expansion: per normal form, the product of the steps along its tree
    path, each a letter's weight times the Green's function of a subtree
    shape.  ``StationaryEngine`` cuts this tree at component entries and
    must give the same sums, expressions and normal forms."""

    def __init__(self, S: ASemigroup):
        self.S = S
        self.kr: KRExpansion = karnofsky_rhodes(S)
        self.mc: ExpansionTree = mccammond(self.kr)

        mc, ideal = self.mc, minimal_ideal(S)  # the root's image, None, is in no ideal
        in_ideal = self._in_ideal = [x in ideal for x in mc.s_image]
        self.live = [v for v, inside in enumerate(in_ideal) if not inside]
        # the ideal vertices entered from a live parent, in vertex order,
        # which is the order of their tree-path words
        parent, endpoint = mc.parent, mc.endpoint
        self.normal_forms = [
            TreeNormalForm(v, endpoint[v]) for v in range(1, len(in_ideal))
            if in_ideal[v] and not in_ideal[parent[v]]
        ]
        self._shape_table = None  # the live vertices' shapes, on first use
        self._kleene = None  # the reduction over Kleene weights, on demand

    # -- walk sums, one reduction per subtree shape ----------------------------

    def _shapes(self) -> tuple[list[int], list[tuple]]:
        """The shape id of every live vertex, and the shapes by id.

        A shape has one entry per letter: None for no edge or an edge into
        the ideal (which must be a tree edge to a normal form), a live
        child's shape id, or a back edge d >= 0 levels up as ~d.  Walk sums
        in a subtree depend only on its shape, so equal subtrees share one
        reduction.  Shapes are numbered bottom-up, children's first.  Back
        edges must go to an ancestor (in the preorder numbering,
        ``w <= v < end[w]``): AssertionError otherwise.
        """
        if self._shape_table is not None:
            return self._shape_table
        mc, live, in_ideal = self.mc, self.live, self._in_ideal
        out, parent, parent_gen = mc.out, mc.parent, mc.parent_gen
        depth = [0] * len(out)
        for v in live[1:]:
            depth[v] = depth[parent[v]] + 1
        end = [0] * len(out)  # one past the last live vertex of v's subtree
        for v in reversed(live[1:]):
            e = end[v] = end[v] or v + 1
            if e > end[parent[v]]:
                end[parent[v]] = e
        end[0] = len(out)
        shape = [0] * len(out)
        index: dict[tuple, int] = {}
        for v in reversed(live):
            key = []
            dv = depth[v]
            for a, w in enumerate(out[v]):
                if w is None:
                    key.append(None)
                elif parent[w] == v and parent_gen[w] == a:
                    key.append(None if in_ideal[w] else shape[w])
                elif in_ideal[w]:
                    raise AssertionError(
                        "edge from outside the ideal must enter at a normal form"
                    )
                elif w <= v < end[w]:
                    key.append(~(dv - depth[w]))
                else:
                    raise AssertionError("back edge to a vertex off the tree path")
            key = tuple(key)
            s = index.get(key)
            if s is None:
                s = index[key] = len(index)
            shape[v] = s
        self._shape_table = shape, list(index)
        return self._shape_table

    def values(self, xs: Sequence) -> dict[int, object]:
        """Walk-weight sum onto every normal form, keyed by expansion vertex.

        Each shape is reduced once (``_ShapeSums``); then, top-down, a
        vertex's sum is its parent's times its step, and a normal form's
        its parent's times its letter.  Sums and steps are interned by
        value, so each distinct product is formed once.
        """
        shape, shapes = self._shapes()
        sums = _ShapeSums(shapes, xs)
        parent, parent_gen = self.mc.parent, self.mc.parent_gen
        ids: dict = {}  # value -> id, for prefix sums and steps alike
        vals: list = []

        def intern(x) -> int:
            i = ids.get(x)
            if i is None:
                i = ids[x] = len(vals)
                vals.append(x)
            return i

        step_id: dict[tuple[int, int], int] = {}  # (letter, shape) -> id
        product: dict[tuple[int, int], int] = {}  # (prefix id, step id) -> id
        prefix = [0] * len(parent)
        prefix[0] = intern(sums.step(None, shape[0]))
        for v in self.live[1:]:
            key = parent_gen[v], shape[v]
            st = step_id.get(key)
            if st is None:
                st = step_id[key] = intern(sums.step(*key))
            key = prefix[parent[v]], st
            p = product.get(key)
            if p is None:
                p = product[key] = intern(vals[key[0]] * vals[st])
            prefix[v] = p
        at_form: dict[tuple[int, int], object] = {}  # (prefix id, letter)
        result = {}
        for nf in self.normal_forms:
            f = nf.mc_vertex
            key = prefix[parent[f]], parent_gen[f]
            x = at_form.get(key)
            if x is None:
                x = at_form[key] = vals[key[0]] * xs[key[1]]
            result[f] = x
        return result

    # -- symbolic expression for one normal form ------------------------------

    def expression(self, nf: TreeNormalForm) -> KleeneExpr:
        """Regular expression for the ideal-avoiding walks onto this form.

        The same shape reduction as ``values``, over Kleene expressions
        (built once per engine): a vertex off the target's root path leaves
        its parent ``letter · (loop)⋆ · exit``, whatever the target.  Only
        the root path, each of its vertices merged with the path's next
        vertex left out, is then eliminated per form, from the root outward.
        This fixes the compact left-to-right factored forms: loops attach
        to the vertex where the walk leaves for the target.  Returned before
        the star-of-union rewrite, with no size cap.
        """
        shape, shapes = self._shapes()
        if self._kleene is None:
            self._kleene = _ShapeSums(shapes, [Letter(a) for a in range(self.S.n_gens)])
        sums = self._kleene
        parent, parent_gen = self.mc.parent, self.mc.parent_gen
        target = nf.mc_vertex
        path = [target]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()

        # per path vertex, its exits (the ancestor d levels above the vertex
        # at depth k is path[k - d]) and the tree letter to the next one
        out: dict[int, dict[int, KleeneExpr]] = {}
        for k, (v, nxt) in enumerate(zip(path, path[1:])):
            a = parent_gen[nxt]
            # the target is no live child: nothing is left out before it
            m = sums.merged(shape[v], None if nxt == target else a)
            out[v] = {path[k - d]: e for d, e in m.items()}
            out[v][nxt] = sums.xs[a]
        for v in path[1:-1]:
            outs = out.pop(v)
            mid = star(outs.pop(v, EPSILON))
            for d in out.values():
                ev = d.pop(v, None)
                if ev is not None:
                    for w, ew in outs.items():
                        _acc(d, w, concat(ev, mid, ew))
        return out[0][target]


def tree_masses(engine: TreeEngine, xs: Sequence) -> dict[int, object]:
    """The tree engine's walk sums added per expansion vertex: the
    first-entry mass of every ideal vertex that a normal form enters."""
    vals = engine.values(xs)
    masses: dict[int, object] = {}
    for nf in engine.normal_forms:
        masses[nf.kr_vertex] = masses.get(nf.kr_vertex, 0) + vals[nf.mc_vertex]
    return masses


def tree_law(S: ASemigroup, xs: Sequence[Fraction], limit: bool) -> dict[int, Fraction]:
    """The law per expansion vertex from the McCammond-tree engine: its
    first-entry masses, or in limit mode h(R(u)) nu(L(u)) / |H| with h the
    masses added per minimal right ideal, found as the closed classes of
    the right action on the ideal."""
    masses = tree_masses(TreeEngine(S), xs)
    if not limit:
        return masses
    kr = karnofsky_rhodes(S)
    ideal = kr.ideal
    index = {u: i for i, u in enumerate(ideal)}
    rights = closed_classes([[index[w] for w in kr.out[u]] for u in ideal])
    r_of = {ideal[i]: j for j, R in enumerate(rights) for i in R}
    h = [Fraction(0)] * len(rights)
    for u, m in masses.items():
        h[r_of[u]] += m
    lefts, action = kr.left_ideals
    l_of = {ideal[i]: j for j, L in enumerate(lefts) for i in L}
    nu = _stationary_vector(action, xs)
    h_size = len(ideal) // (len(rights) * len(lefts))
    return {u: h[r_of[u]] / h_size * nu[l_of[u]] for u in ideal}
