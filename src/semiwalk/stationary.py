"""Stationary distributions of semigroup random walks, computed exactly.

Pipeline: expand the right Cayley graph by transition-edge identification
(stored on the semigroup and shared with every other reader), a tree of
copies of the graph's components, each entered by one edge.  A walk from
the root that leaves a copy never comes back, so the weight of the walks
that first enter the ideal at a copy is a product over the copies on
their way: the mass entering a copy by the edge (v, a) is the mass
entering v's copy, times W(e0, v), the weight of the walks from that
copy's entry e0 to v inside the component, times the weight of a.  W
depends on the component and e0 only, so it is summed once per entry
element: on the McCammond tree of the component entered there (its simple
paths from e0 along edges inside the component), a spanning tree plus back
edges to ancestors, read as integer rows.  The walks onto a tree vertex
sum to a product along its tree path: the letter weights times the Green's
function G_v = 1/(1 - R_v) at each vertex v on the path, where R_v is the
weight of the excursions that leave v into its subtree and first come
back to v (Lawler's loop-erased-walk formula), and W(e0, e) adds these
over the tree's vertices that end at e.  R_v and G_v depend only on the
shape of v's subtree (per letter: a child's shape, a back edge and how
many levels up it goes, or a letter that leaves the component), so
subtrees of equal shape share one bottom-up reduction, across all trees.
One pass over the copies in order then forms the masses, interned by
value, so each distinct product is computed once.

The normal forms are the simple paths from the root whose last letter,
and only that, enters the ideal: the trees glued at their entries, walked
in letter order, so in the order of their words.  The regular expression
for a normal form's walk language, the walks that loop-erase to it, is the
same sum over Kleene expressions: the reduction runs once with letters as
weights, and per normal form only its path is eliminated, from the root
outward, which fixes the printed factored form.

When the minimal ideal is left zero each ideal copy is one vertex, and the
masses entering them are the stationary distribution of the expanded
chain; lumping by underlying element gives the chain on the semigroup
itself.  Otherwise limit mode gives u the limit t -> 0 of the mass of u·0
on KR(S⁰), S with a zero generator of weight t adjoined and the other
weights scaled by (1-t).  That limit has a closed form on the minimal ideal
of KR(S), read from the same sums: pi(u) = h(R(u)) nu(L(u)) / |H|.  Here
h(R) is the mass entering the minimal right ideal R, an ideal copy,
nu is the stationary law of the letters' action on the minimal left ideals
(exact elimination on those few classes), and |H| is the size of each
H-class R ∩ L, on which the law is uniform.  In direct mode every R is one
vertex, there is one L and |H| = 1.  Both modes name a state by the
shortlex-first word reaching its vertex, as chains and simulations do;
only the states of the result are named, and the law over S names none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import (
    ASemigroup,
    SemigroupError,
    SizeCapExceeded,
    Word,
    kernel_is_left_zero,
    label_sep,
    minimal_ideal,
    zero_name,
)
from . import expansions
# mccammond is not called here, but perfbench/spans.py wraps it here by name
from .expansions import KRExpansion, grow_simple_paths, karnofsky_rhodes, mccammond
from .kleene import (
    EPSILON,
    KleeneExpr,
    Letter,
    _one_of,
    concat,
    node_count,
    pretty,
    star,
    star_value,
    zimin_rewrite,
)


# nodes of a walk expression before the star-of-union rewrite, read at each call
EXPRESSION_CAP = 20_000


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


# -- normal forms and the engine ------------------------------------------------


@dataclass
class NormalForm:
    word: Word  # a simple path from the root whose last letter enters the ideal
    kr_vertex: int  # the ideal vertex it enters, an ideal copy's entry
    path: tuple[int, ...]  # per letter, the component-tree vertex it leaves


class StationaryEngine:
    """Walk sums for one semigroup: its expansion, and one McCammond tree
    per component entry that a copy outside the ideal is entered at.

    Tree vertex v is a simple path inside one component of the right Cayley
    graph, from the tree's entry to element ``elem[v]``; it extends
    ``parent[v]`` by ``letter[v]``.  ``out[v][a]`` is the tree child or the
    ancestor that letter a leads to, or None where a leaves the component.
    Each tree is one block of vertices in depth-first preorder, children in
    letter order.  Vertex 0 is the root's tree: the root alone, every letter
    leaving it.  ``tree_of`` maps an entry element to its tree's first
    vertex (the root's entry, None, to 0).
    """

    def __init__(self, S: ASemigroup):
        self.S = S
        self.kr: KRExpansion = karnofsky_rhodes(S)
        self._ideal = minimal_ideal(S)
        k = S.n_gens
        self.elem: list[int | None] = [None]
        self.parent: list[int | None] = [None]
        self.letter: list[int | None] = [None]
        self.out: list[list[int | None]] = [[None] * k]
        self.tree_of: dict[int | None, int] = {None: 0}
        # per element, its edges that stay in its component
        comp = S.right_components()
        inner = [[f if comp[f] == comp[e] else None for f in row]
                 for e, row in enumerate(S.right_action()[0])]
        image = self.kr.s_image
        for w in self.kr.entry[1:]:
            e = image[w]
            if e not in self.tree_of and e not in self._ideal:
                # the McCammond tree of e's component entered at e
                self.tree_of[e] = root = self._add(e, None, None)
                grow_simple_paths(inner.__getitem__, root, self.elem, self.out, self._add)
        self._shape_table = None  # the tree vertices' shapes, on first use
        self._kleene = None  # the reduction over Kleene weights, on demand

    def _add(self, e: int, p: int | None, a: int | None) -> int:
        """A new tree vertex ending at e, child of p by letter a; at most
        ``MC_CAP`` vertices over all trees."""
        w = len(self.elem)
        if w >= expansions.MC_CAP:
            raise SizeCapExceeded(
                f"McCammond trees of the components of a semigroup with "
                f"|S| = {self.S.size} exceeded cap {expansions.MC_CAP} simple paths")
        self.elem.append(e)
        self.parent.append(p)
        self.letter.append(a)
        self.out.append([None] * self.S.n_gens)
        return w

    # -- walk sums, one reduction per subtree shape ----------------------------

    def _shapes(self) -> tuple[list[int], list[tuple]]:
        """The shape id of every tree vertex, and the shapes by id.

        A shape has one entry per letter: None for a letter that leaves the
        component, a child's shape id, or a back edge d >= 0 levels up as ~d.
        Walk sums in a subtree depend only on its shape, so equal subtrees
        share one reduction, across trees too.  Shapes are numbered
        bottom-up, children's first.  Back edges must go to an ancestor (in
        the preorder numbering, ``w <= v < end[w]``): AssertionError
        otherwise.
        """
        if self._shape_table is not None:
            return self._shape_table
        out, parent, letter = self.out, self.parent, self.letter
        n = len(out)
        depth = [0] * n
        for v in range(n):
            if parent[v] is not None:
                depth[v] = depth[parent[v]] + 1
        end = [0] * n  # one past the last vertex of v's subtree
        for v in reversed(range(n)):
            e = end[v] = end[v] or v + 1
            p = parent[v]
            if p is not None and e > end[p]:
                end[p] = e
        shape = [0] * n
        index: dict[tuple, int] = {}
        for v in reversed(range(n)):
            key = []
            dv = depth[v]
            for a, w in enumerate(out[v]):
                if w is None:
                    key.append(None)
                elif parent[w] == v and letter[w] == a:
                    key.append(shape[w])
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
        """First-entry mass of every ideal copy, keyed by its entry vertex.

        Each shape is reduced once (``_ShapeSums``).  Top-down in each tree
        a vertex's prefix is its parent's times its step, so W(e0, e), the
        weight of the walks from entry e0 to e inside the component, is the
        sum of the prefixes of e0's tree at e.  A walk never comes back to a
        copy it has left, so then, over the copies in order, the mass
        entering a copy by the edge (v, a) is the mass entering v's copy
        times W(its entry, v) times the weight of a.  Masses and exits are
        interned by value, so each distinct product is formed once.
        """
        shape, shapes = self._shapes()
        sums = _ShapeSums(shapes, xs)
        ids: dict = {}  # value -> id, for every value below
        vals: list = []
        product: dict[tuple[int, int], int] = {}  # pair of ids -> id

        def intern(x) -> int:
            i = ids.get(x)
            if i is None:
                i = ids[x] = len(vals)
                vals.append(x)
            return i

        def times(i: int, j: int) -> int:
            p = product.get((i, j))
            if p is None:
                p = product[i, j] = intern(vals[i] * vals[j])
            return p

        step_id: dict[tuple, int] = {}  # (letter, shape) -> id
        # (tree, element) -> the prefix ids of the tree's vertices there
        walks: dict[tuple[int, int | None], list[int]] = {}
        parent, letter, elem = self.parent, self.letter, self.elem
        prefix, root = [0] * len(parent), [0] * len(parent)
        for v, p in enumerate(parent):
            key = letter[v], shape[v]
            st = step_id.get(key)
            if st is None:
                st = step_id[key] = intern(sums.step(*key))
            if p is None:
                root[v], prefix[v] = v, st
            else:
                root[v], prefix[v] = root[p], times(prefix[p], st)
            walks.setdefault((root[v], elem[v]), []).append(prefix[v])

        kr, tree_of = self.kr, self.tree_of
        entry, copy_of, image = kr.entry, kr.copy_of, kr.s_image
        kparent, kletter = kr.parent, kr.parent_gen
        tree = [tree_of.get(image[w]) for w in entry]  # None for an ideal copy
        mass = [intern(sums.one)] * len(entry)  # per copy, its entering mass's id
        letter_id = [intern(x) for x in xs]
        exit_id: dict[tuple, int] = {}  # (tree, element, letter) -> id
        for c in range(1, len(entry)):
            w = entry[c]
            v = kparent[w]
            cv = copy_of[v]
            key = tree[cv], image[v], kletter[w]
            x = exit_id.get(key)
            if x is None:
                ws = walks[key[:2]]
                if len(ws) > 1:  # W: the prefixes added, once per (tree, element)
                    ws[:] = [intern(sum(map(vals.__getitem__, ws[1:]), vals[ws[0]]))]
                x = exit_id[key] = times(ws[0], letter_id[key[2]])
            m = product.get((mass[cv], x))
            mass[c] = times(mass[cv], x) if m is None else m
        return {w: vals[m] for w, m, t in zip(entry, mass, tree) if t is None}

    # -- normal forms and their walk expressions -------------------------------

    @cached_property
    def normal_forms(self) -> list[NormalForm]:
        """The simple paths from the root whose last letter, and only that,
        enters the ideal, in the order of their words: the trees glued at
        their entries, walked depth first in letter order."""
        out, parent, letter, elem = self.out, self.parent, self.letter, self.elem
        gens, rows = self.S.gens, self.S.right_action()[0]
        kr_out, ideal, tree_of = self.kr.out, self._ideal, self.tree_of
        forms: list[NormalForm] = []
        word: list[int] = []  # the letters and tree vertices of the path so far
        path: list[int] = []
        stack = [(0, 0)]  # (tree vertex, expansion vertex) per glued vertex
        next_gen = [0]
        while stack:
            v, kv = stack[-1]
            for a in range(next_gen[-1], len(out[v])):
                w = out[v][a]
                if w is not None:
                    if parent[w] != v or letter[w] != a:
                        continue  # a back edge
                else:
                    f = gens[a] if elem[v] is None else rows[elem[v]][a]
                    if f in ideal:
                        forms.append(NormalForm((*word, a), kr_out[kv][a], (*path, v)))
                        continue
                    w = tree_of[f]
                next_gen[-1] = a + 1
                word.append(a)
                path.append(v)
                stack.append((w, kr_out[kv][a]))
                next_gen.append(0)
                break
            else:
                stack.pop()
                next_gen.pop()
                if word:
                    word.pop()
                    path.pop()
        return forms

    def expression(self, nf: NormalForm) -> KleeneExpr:
        """Regular expression for the ideal-avoiding walks onto this form.

        The same shape reduction as ``values``, over Kleene expressions
        (built once per engine): a vertex off the form's path leaves its
        parent ``letter · (loop)⋆ · exit``, whatever the form.  Only the
        path, each of its vertices merged with the path's next vertex left
        out, is then eliminated per form, from the root outward.  This
        fixes the compact left-to-right factored forms: loops attach to the
        vertex where the walk leaves for the target.  The result is then
        put through ``zimin_rewrite``; one over ``EXPRESSION_CAP`` nodes,
        whose rewrite and text grow faster still, raises
        ``SizeCapExceeded``.
        """
        shape, shapes = self._shapes()
        if self._kleene is None:
            self._kleene = _ShapeSums(shapes, [Letter(a) for a in range(self.S.n_gens)])
        sums = self._kleene
        # per path position, its exits (the vertex d levels above position
        # i is at i - d, in the same tree) and the letter to the next one
        # (position n is the target); a letter that leaves the component is
        # no child, so leaving it out changes nothing
        n = len(nf.path)
        out: dict[int, dict[int, KleeneExpr]] = {}
        for i, (v, a) in enumerate(zip(nf.path, nf.word)):
            out[i] = {i - d: e for d, e in sums.merged(shape[v], a).items()}
            out[i][i + 1] = sums.xs[a]
        for i in range(1, n):
            outs = out.pop(i)
            mid = star(outs.pop(i, EPSILON))
            for d in out.values():
                ev = d.pop(i, None)
                if ev is not None:
                    for w, ew in outs.items():
                        _acc(d, w, concat(ev, mid, ew))
        expr = out[0][n]
        size = node_count(expr)
        if size > EXPRESSION_CAP:
            raise SizeCapExceeded(
                f"walk expression of normal form {self.S.word_label(nf.word)} with "
                f"{size} nodes exceeded cap {EXPRESSION_CAP} before the "
                f"star-of-union rewrite")
        return zimin_rewrite(expr)


class _ShapeSums:
    """The bottom-up reduction of every shape over one weight ring.

    Per shape, children's first, ``merged`` sums the weight of leaving a
    vertex of that shape into its subtree and first coming out d levels
    up: back-edge letters first, grouped by head (a bit mask of letters
    per d, in first-letter order), then each child's exits times the
    child's step, in letter order.  Over expressions this is the order in
    which eliminating the subtree deepest first would unite the pieces.
    The part that comes back (d = 0) is the loop R, and the shape's
    Green's function is G = 1/(1 - R) (over expressions, R⋆; the unit
    without a loop); ``exits`` keeps the rest, keyed by d.
    """

    def __init__(self, shapes: list[tuple], xs: Sequence):
        self.shapes, self.xs, self.one = shapes, xs, _one_of(xs)
        self._merged: dict[tuple, dict] = {}
        self.green: list = []
        self.exits: list[dict[int, object]] = []
        for s in range(len(shapes)):
            out = self._merge(s, None)
            loop = out.pop(0, None)
            self.green.append(self.one if loop is None else star_value(loop, self.one))
            self.exits.append(out)

    def step(self, a: int | None, s: int):
        """Step weight of a vertex of shape s entered by letter a (the
        root by None): the letter's weight times G."""
        return self.green[s] if a is None else self.xs[a] * self.green[s]

    def merged(self, s: int, skip: int | None) -> dict:
        """``_merge`` of shape s, once per (shape, left-out letter)."""
        m = self._merged.get((s, skip))
        if m is None:
            m = self._merged[s, skip] = self._merge(s, skip)
        return m

    def _merge(self, s: int, skip: int | None) -> dict:
        """Exits of shape s, loop included, leaving out the child at letter
        ``skip``."""
        back: dict[int, int] = {}
        for a, e in enumerate(self.shapes[s]):
            if e is not None and e < 0:
                back[~e] = back.get(~e, 0) | 1 << a
        out = {d: _letter_sum(self.xs, mask) for d, mask in back.items()}
        for a, c in enumerate(self.shapes[s]):
            if c is not None and c >= 0 and a != skip:
                sw = self.step(a, c)
                for d, e in self.exits[c].items():
                    _acc(out, d - 1, sw * e)
        return out


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


# -- results ---------------------------------------------------------------------


@dataclass
class KeyInfo:
    word: Word | None = None  # shortlex-first word reaching the KR vertex
    alt_label: str | None = None  # limit mode: the state's name u·0 on KR(S⁰)
    element: int | None = None  # underlying semigroup element
    kr_vertex: int | None = None  # vertex in the expansion of the input


@dataclass
class StationaryResult:
    entries: dict[str, Fraction]
    key_info: dict[str, KeyInfo] = field(default_factory=dict)

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def __getitem__(self, key: str) -> Fraction:
        return self.entries[key]


def normalization_check(d: StationaryResult) -> bool:
    """Exact check that the masses sum to one."""
    return d.total() == 1


# -- the two stationary distributions --------------------------------------------


def stationary_kr(S: ASemigroup, xs: Sequence[Fraction], force_limit: bool = False,
                  engine: StationaryEngine | None = None) -> StationaryResult:
    """Stationary distribution of the walk on the expanded semigroup.

    States are the elements of the minimal ideal of the expansion; exact
    rational masses.  Falls back to the adjoined-zero limit when the
    minimal ideal is not left zero (or when forced).
    """
    return _stationary(S, xs, force_limit, engine, "kr")


def stationary_s(S: ASemigroup, xs: Sequence[Fraction], force_limit: bool = False,
                 engine: StationaryEngine | None = None) -> StationaryResult:
    """Stationary distribution of the walk on the semigroup itself: the
    expansion-level masses summed by underlying element, with no
    expansion state named."""
    return _stationary(S, xs, force_limit, engine, "s")


def _stationary(S, xs, force_limit, engine, over: str) -> StationaryResult:
    """The law over the expansion ("kr") or the semigroup ("s")."""
    xs = validate_probs(S, xs)
    if kernel_is_left_zero(S, minimal_ideal(S)) and not force_limit:
        return _stationary_kr_direct(S, xs, engine, over)
    return _stationary_kr_limit(S, xs, engine, over)


def _stationary_kr_direct(
    S: ASemigroup, xs: Sequence, engine: StationaryEngine | None = None,
    over: str = "kr",
) -> StationaryResult:
    if engine is None:
        engine = StationaryEngine(S)
    # each ideal copy is one vertex, its entry
    masses = engine.values(xs)
    if over == "s":
        return _s_result(S, engine.kr, masses)
    return _kr_result(engine.kr, masses, {})


def _stationary_kr_limit(
    S: ASemigroup, xs: Sequence[Fraction], engine: StationaryEngine | None = None,
    over: str = "kr",
) -> StationaryResult:
    """Limit mode (see the module docstring): pi(u) = h(R(u)) nu(L(u)) / |H|
    on the minimal ideal of KR(S), from the direct-mode walk sums."""
    if engine is None:
        engine = StationaryEngine(S)
    kr = engine.kr
    ideal = kr.ideal_over(minimal_ideal(S))
    # h: first-entry mass per minimal right ideal of the expansion, which
    # are its ideal copies: closed, as K(S)'s components are
    h = {kr.copy_of[u]: m for u, m in engine.values(xs).items()}
    # nu: the stationary law of the letters' action on the minimal left ideals
    lefts, action = kr.left_ideals(ideal)
    l_of = {ideal[i]: j for j, L in enumerate(lefts) for i in L}
    nu = _stationary_vector(action, xs)
    # |H| divides h once per right ideal, not once per state
    h_size = len(ideal) // (len(h) * len(lefts))
    h = {c: m / h_size for c, m in h.items()}
    masses = {u: h[kr.copy_of[u]] * nu[l_of[u]] for u in ideal}
    if over == "s":
        return _s_result(S, kr, masses)

    # names on KR(S⁰): u's word then the zero letter first reaches u·0
    names0 = S.gen_names + [zero_name(S)]
    sep, z = label_sep(names0), (S.n_gens,)
    alt_labels = {u: sep.join([names0[g] for g in kr.words[u] + z]) for u in ideal}
    return _kr_result(kr, masses, alt_labels)


def _stationary_vector(succ: list[list[int]], xs: Sequence[Fraction]) -> list[Fraction]:
    """The stationary law of the chain i -> succ[i][a] with weight xs[a],
    which has one closed class: Gauss-Jordan elimination, exact, on the
    balance equations with the last replaced by sum = 1."""
    n = len(succ)
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for i, row in enumerate(succ):
        rows[i][i] -= 1
        for a, j in enumerate(row):
            rows[j][i] += xs[a]
    rows[-1] = [Fraction(1)] * (n + 1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def _kr_result(kr: KRExpansion, masses: dict, alt_labels: dict) -> StationaryResult:
    """The result over expansion vertices: per vertex its mass and, in
    limit mode, its name on KR(S⁰).  A state is named by the shortlex-first
    word reaching its vertex, and states come in the order of those words.
    """
    words, images = kr.words, kr.s_image
    order = sorted(masses, key=words.__getitem__)
    entries: dict[str, object] = {}
    info: dict[str, KeyInfo] = {}
    for v, label in zip(order, kr.names(order)):
        entries[label] = masses[v]
        info[label] = KeyInfo(word=words[v], alt_label=alt_labels.get(v),
                              element=images[v], kr_vertex=v)
    return StationaryResult(entries, info)


def _s_result(S: ASemigroup, kr: KRExpansion, masses: dict) -> StationaryResult:
    """The result over semigroup elements: the masses of the vertices over
    each element added up, the states named by element and in name order."""
    by_element: dict[int, object] = {}
    for v, m in masses.items():
        _acc(by_element, kr.s_image[v], m)
    names = {e: S.element_name(e) for e in by_element}
    order = sorted(by_element, key=names.__getitem__)
    return StationaryResult({names[e]: by_element[e] for e in order},
                            {names[e]: KeyInfo(element=e) for e in order})


def expressions_report(
    S: ASemigroup, engine: StationaryEngine | None = None
) -> dict[str, str]:
    """Pretty-printed expression per normal form (dict preserves sort order)."""
    if engine is None:
        engine = StationaryEngine(S)
    return {S.word_label(nf.word): pretty(engine.expression(nf), S.gen_names)
            for nf in engine.normal_forms}
