"""Stationary distributions of semigroup random walks, computed exactly.

A walk from the root of the right Cayley graph never comes back to a
strongly connected component it has left, and what it does after it
enters a component depends on the entry element alone, not on the path
that led there.  So W(e0, v), the weight of the walks from entry e0 to v
inside the component, is summed once per entry element: on the McCammond
tree of the component entered there (its simple paths from e0 along edges
inside the component), a spanning tree plus back edges to ancestors, read
as integer rows.  The walks onto a tree vertex sum to a product along its
tree path: the letter weights times the Green's function G_v = 1/(1 - R_v)
at each vertex v on the path, where R_v is the weight of the excursions
that leave v into its subtree and first come back to v (Lawler's
loop-erased-walk formula), and W(e0, e) adds these over the tree's
vertices that end at e.  R_v and G_v depend only on the shape of v's
subtree (per letter: a child's shape, a back edge and how many levels up
it goes, or a letter that leaves the component), so subtrees of equal
shape share one bottom-up reduction, across all trees.  One pass of these
walk sums, interned by value so that each distinct product is formed
once, feeds both laws.

The law over S needs one mass per entry element: M(e), the weight of the
walks that first enter a component at e.  Over the component DAG in
topological order, from M(gens[a]) = x_a, every edge (v, a) from e's
component to f adds M(e)·W(e, v)·x_a to M(f).  No expansion is built.

The law over the expansion (Karnofsky-Rhodes, transition-edge
identification) is over its tree of copies of the graph's components,
each entered by one edge, and that tree is the component DAG unfolded: a
copy entered at e has one child copy per exit (v, a, f) of e's component,
entered at f.  The child's mass is its parent's times W(e, v) times the
weight of a, and its word, the shortlex-first word reaching its entry, is
its parent's, then the shortlex-first path from e to v inside the
component, then a.  So the copies are walked depth first in the order of
their words from S's rows alone, and no expansion is built; the
expansion's vertex count, the root and per copy its component's size
(``expansions.kr_size``), is checked against ``KR_CAP`` before the engine
is built.  M(e) is the masses of the copies entered at e, summed.

The normal forms are the simple paths from the root whose last letter,
and only that, enters the ideal: the trees glued at their entries by S's
right action, walked in letter order, so in the order of their words; no
expansion is built.  The regular expression for a normal form's walk
language, the walks that loop-erase to it, is the same sum over Kleene
expressions: the reduction runs once with letters as weights, and per
normal form only its path is eliminated, from the root outward, which
fixes the printed factored form.

When the minimal ideal is left zero each ideal copy is one vertex, and the
masses entering them, named by their words, are the stationary
distribution of the expanded chain; over S the law is M(k) for k in K(S),
the expansion's law lumped by underlying element.  Otherwise limit mode
gives u the limit t -> 0 of the mass of u·0 on KR(S⁰), S with a zero
generator of weight t adjoined and the other weights scaled by (1-t).
That limit has a closed form on a minimal ideal, read from the same sums:
pi(u) = h(R(u)) nu(L(u)) / |H|.  Here h(R) is the mass entering the
minimal right ideal R (on the expansion an ideal copy, its first-entry
mass; on S the sum of M over R's entry elements), nu is the stationary
law of the letters' action on the minimal left ideals (exact elimination
on those few classes), and |H| is the size of each H-class R ∩ L, on
which the law is uniform.

Only h is the expansion's own; nu and |H| are S's.  Take u in K(KR) in
the ideal copy c over t ∈ K(S).  For x in K(KR), the product x·u reads
u's word into x's ideal copy, which is closed, so K(KR)·u is the set of
(c', s) with c' an ideal copy and s ∈ R(c') ∩ L_S(t).  So the minimal
left ideals of the expansion are the preimages of S's, the letters act on
them as on S's, and |H| is the same.  The states of an ideal copy entered
at f are the elements t of f's component, and the shortlex-first word
reaching t's vertex is the copy's word, then the shortlex-first path from
f to t inside the component: no expansion is built in either mode.

On the expansion, a state is named by the shortlex-first word reaching
its vertex, as chains and simulations do; over S, by its element's name.
A law is an iterator of (name, mass) pairs in print order
(``stationary_law``): every cap is checked and the walk sums formed before
it starts, then over the expansion the copy walk makes each pair as it is
read, so the law is never held whole, and copies of equal mass share one
mass object.  ``StationaryResult`` is that law as a dict.
``zero_limit_names`` gives limit mode's states their names u·0 on
KR(S⁰).

S stores its engine, built on first use, and every law and expression of
S reads that one; the engine keeps no reference to S, so storing it makes
no reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

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
from .graphs import closed_classes
# mccammond is not called here, but perfbench/spans.py wraps it here by name
from .expansions import check_kr_cap, grow_simple_paths, karnofsky_rhodes, kr_size, mccammond
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


# nodes of a walk expression as a tree, before the star-of-union rewrite,
# read at each call
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
    path: tuple[int, ...]  # per letter, the component-tree vertex it leaves


class StationaryEngine:
    """Walk sums for one semigroup: one McCammond tree per element outside
    the minimal ideal K(S) at which the walk enters a component, the
    per-entry masses over S, the normal forms and their expressions, and
    the masses of the expansion's ideal copies, walked over the component
    DAG without building the expansion, with the paths inside a component
    that name each ideal copy's states in limit mode.  The engine reads S
    once, when it is built, and keeps no reference to it: its rows,
    components and component DAG ``dag``.  ``kr_vertices``, the
    expansion's vertex count, is counted over ``dag`` on the first copy
    walk, unless the law over the expansion, which counts it before the
    engine is built, has handed it over.

    The trees are those of the DAG's entry elements.  Tree vertex v is a
    simple path inside one component of the right Cayley graph, from the
    tree's entry to element ``elem[v]``; it extends ``parent[v]`` by
    ``letter[v]``.
    ``out[v][a]`` is the tree child or the ancestor that letter a leads
    to, or None where a leaves the component.  Each tree is one block of
    vertices in depth-first preorder, children in letter order.  Vertex 0
    is the root's tree: the root alone, every letter leaving it.
    ``tree_of`` maps an entry element to its tree's first vertex (the
    root's entry, None, to 0).
    """

    def __init__(self, S: ASemigroup):
        self.size, self.gens, self.gen_names = S.size, list(S.gens), list(S.gen_names)
        self.ideal = minimal_ideal(S)  # K(S)
        k = S.n_gens
        self.elem: list[int | None] = [None]
        self.parent: list[int | None] = [None]
        self.letter: list[int | None] = [None]
        self.out: list[list[int | None]] = [[None] * k]
        self.tree_of: dict[int | None, int] = {None: 0}
        self.dag = S.component_dag()
        self.kr_vertices: int | None = None
        # per element, its edges that stay in its component
        self._comp = comp = S.right_components()
        self._rows = rows = S.right_action()[0]
        inner = [[f if comp[f] == comp[e] else None for f in row] for e, row in enumerate(rows)]
        for entries, _ in self.dag:
            for e in entries:
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
                f"|S| = {self.size} exceeded cap {expansions.MC_CAP} simple paths")
        self.elem.append(e)
        self.parent.append(p)
        self.letter.append(a)
        self.out.append([None] * len(self.gens))
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

    def values(self, xs: Sequence) -> dict[Word, object]:
        """First-entry mass of every ideal copy of the expansion, keyed by
        the shortlex-first word reaching its entry, in word order: the copy
        walk of ``_copy_walk``; no expansion is built."""
        return {word: m for word, _, m in self._copy_walk(xs, lambda e, w: w)}

    def _copy_walk(self, xs: Sequence, spell) -> Iterator[tuple[object, int, object]]:
        """(key, entry element, first-entry mass) per ideal copy of the
        expansion, in the order of their words: the root's key is
        ``spell(None, ())``, and a copy's key is its parent's plus
        ``spell(e, path)``, for the parent's entry e (the root's: None) and
        the path out of it (``_copies``).

        A copy's mass is its parent's times W(e, v) times the weight of a
        for its exit (v, a) (``_WalkSums``), interned by value so that each
        distinct product is formed once, and copies of equal mass share one
        object.  Children are walked in the order of their paths, none a
        prefix of another (only a path's last letter leaves the component),
        so depth first the copies come in word order.  An expansion of more
        than ``KR_CAP`` vertices raises ``SizeCapExceeded``, and the walk
        sums are formed, before this returns; the copies are walked as the
        iterator is read.
        """
        if self.kr_vertices is None:
            self.kr_vertices = expansions.copy_tree_size(self._comp, self.dag, self.gens)
        check_kr_cap(self.size, self.kr_vertices)
        ws = _WalkSums(self, xs)
        vals, times, exit = ws.vals, ws.times, ws.exit
        tree_of, ideal = self.tree_of, self.ideal
        # per entry element, its children's keys, exit ids and entries, and
        # whether each is an ideal copy
        kids = {e: [(spell(e, w), exit((tree_of[e], v, a)), f, f in ideal)
                    for w, v, a, f in ks] for e, ks in self._copies.items()}
        made: dict[tuple[int, int | None], list[int]] = {}

        def children(m: int, e: int | None):
            """The children of a copy of mass id m entered at e, each with
            its mass id; the ids are formed once per (m, e)."""
            ms = made.get((m, e))
            if ms is None:
                ms = made[m, e] = [times(m, x) for _, x, _, _ in kids[e]]
            return zip(kids[e], ms)

        def walk():
            # depth first: per open copy its key and children still to walk
            stack = [(spell(None, ()), children(ws.one, None))]
            while stack:
                key, rest = stack[-1]
                for (k, _, f, leaf), p in rest:
                    if leaf:
                        yield key + k, f, vals[p]
                    else:
                        stack.append((key + k, children(p, f)))
                        break
                else:
                    stack.pop()
        return walk()

    def entry_masses(self, xs: Sequence) -> dict[int, object]:
        """M(e) for every element e of the minimal ideal at which the walk
        enters it: the first-entry mass of all the expansion's copies
        entered at e, summed, with no expansion built.

        What a walk does after it enters a component depends on the entry
        element alone, so M(f) sums M(e)·W(e, v)·x_a over the edges (v, a)
        that leave e's component for f, over the component DAG in
        topological order, from M(gens[a]) = x_a (a sum if two generators
        are one element).  The walk sums and the interning are ``values``'s.
        """
        ws = _WalkSums(self, xs)
        vals, times, intern, exit = ws.vals, ws.times, ws.intern, ws.exit
        mass: dict[int, object] = {}
        for g, x in zip(self.gens, xs):
            _acc(mass, g, x)
        tree_of = self.tree_of
        for entries, exits in self.dag:
            for e in entries:
                m, t = intern(mass[e]), tree_of[e]
                for v, a, f in exits:
                    _acc(mass, f, vals[times(m, exit((t, v, a)))])
        return {e: m for e, m in mass.items() if e in self.ideal}

    @cached_property
    def _copies(self) -> dict[int | None, list[tuple[Word, int | None, int, int]]]:
        """Per entry element e, the exits (v, a, f) of its component with
        their paths, in path order: ``_paths(e)[v]``, then a.  The root
        (None) leaves by each letter a for gens[a]."""
        copies: dict = {None: [((a,), None, a, g) for a, g in enumerate(self.gens)]}
        for entries, exits in self.dag:
            for e in entries:
                word = self._paths(e)
                copies[e] = sorted((word[v] + (a,), v, a, f) for v, a, f in exits)
        return copies

    def _paths(self, e: int) -> dict[int, Word]:
        """The shortlex-first word from e to each element of e's component
        inside it: breadth first in letter order, so in that order."""
        comp, rows = self._comp, self._rows
        c, word = comp[e], {e: ()}
        queue = [e]
        for u in queue:  # the queue: discoveries append to it
            w = word[u]
            for a, f in enumerate(rows[u]):
                if f not in word and comp[f] == c:
                    word[f] = w + (a,)
                    queue.append(f)
        return word

    # -- normal forms and their walk expressions -------------------------------

    @cached_property
    def normal_forms(self) -> list[NormalForm]:
        """The simple paths from the root whose last letter, and only that,
        enters the ideal, in word order: the trees glued at their entries
        by S's right action, walked depth first in letter order."""
        out, parent, letter, elem = self.out, self.parent, self.letter, self.elem
        rows, gens, ideal, tree_of = self._rows, self.gens, self.ideal, self.tree_of
        forms: list[NormalForm] = []
        word: list[int] = []  # the letters and tree vertices of the path so far
        path: list[int] = []
        stack = [0]  # the tree vertex per glued vertex
        next_gen = [0]
        while stack:
            v = stack[-1]
            for a in range(next_gen[-1], len(out[v])):
                w = out[v][a]
                if w is not None:
                    if parent[w] != v or letter[w] != a:
                        continue  # a back edge
                else:  # a leaves the component, for the element f
                    f = gens[a] if elem[v] is None else rows[elem[v]][a]
                    if f in ideal:
                        forms.append(NormalForm((*word, a), (*path, v)))
                        continue
                    w = tree_of[f]
                next_gen[-1] = a + 1
                word.append(a)
                path.append(v)
                stack.append(w)
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
        put through ``zimin_rewrite``.  The rewrite and the printer walk
        the expression's DAG, but its text grows with its size as a tree,
        and faster still after the rewrite: one over ``EXPRESSION_CAP``
        nodes as a tree raises ``SizeCapExceeded``.
        """
        shape, shapes = self._shapes()
        if self._kleene is None:
            letters = [Letter(a) for a in range(len(self.gens))]
            self._kleene = _ShapeSums(shapes, letters)
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
            names = self.gen_names
            label = label_sep(names).join([names[g] for g in nf.word])
            raise SizeCapExceeded(
                f"walk expression of normal form {label} with "
                f"{size} nodes exceeded cap {EXPRESSION_CAP} before the "
                f"star-of-union rewrite")
        return zimin_rewrite(expr)


class _WalkSums:
    """The walk sums of one engine at one weight vector, interned by value.

    Each shape is reduced once (``_ShapeSums``).  Top-down in each tree a
    vertex's prefix is its parent's times its step, so W(e0, e), the weight
    of the walks from entry e0 to e inside the component, is the sum of the
    prefixes of e0's tree at e, added on first use.  Every value is held
    once, by id, and each product of two ids is formed once: the copy
    walk reads these per copy of the expansion, ``entry_masses`` per entry
    element.
    """

    def __init__(self, engine: StationaryEngine, xs: Sequence):
        shape, shapes = engine._shapes()
        sums = _ShapeSums(shapes, xs)
        self.ids: dict = {}  # value -> id, for every value below
        self.vals: list = []
        self.product: dict[tuple[int, int], int] = {}  # pair of ids -> id
        self.exit_id: dict[tuple, int] = {}  # (tree, element, letter) -> id
        intern, times = self.intern, self.times
        step_id: dict[tuple, int] = {}  # (letter, shape) -> id
        # (tree, element) -> the prefix ids of the tree's vertices there
        self.walks: dict[tuple[int, int | None], list[int]] = {}
        setdefault = self.walks.setdefault
        parent, letter, elem = engine.parent, engine.letter, engine.elem
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
            setdefault((root[v], elem[v]), []).append(prefix[v])
        self.one = intern(sums.one)
        self.letter = [intern(x) for x in xs]

    def intern(self, x) -> int:
        i = self.ids.get(x)
        if i is None:
            i = self.ids[x] = len(self.vals)
            self.vals.append(x)
        return i

    def times(self, i: int, j: int) -> int:
        p = self.product.get((i, j))
        if p is None:
            p = self.product[i, j] = self.intern(self.vals[i] * self.vals[j])
        return p

    def exit(self, key: tuple) -> int:
        """The id of W(tree's entry, element) times the letter's weight, for
        ``key`` = (tree, element, letter)."""
        x = self.exit_id.get(key)
        if x is None:
            ws = self.walks[key[:2]]
            if len(ws) > 1:  # W: the prefixes added, once per (tree, element)
                ws[:] = [self.intern(sum(map(self.vals.__getitem__, ws[1:]), self.vals[ws[0]]))]
            x = self.exit_id[key] = self.times(ws[0], self.letter[key[2]])
        return x


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
class StationaryResult:
    """The law: state name to mass, in print order."""

    entries: dict[str, Fraction]

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def __getitem__(self, key: str) -> Fraction:
        return self.entries[key]


def normalization_check(d: StationaryResult) -> bool:
    """Exact check that the masses sum to one."""
    return d.total() == 1


# -- the two stationary distributions --------------------------------------------


def stationary_kr(S: ASemigroup, xs: Sequence[Fraction],
                  force_limit: bool = False) -> StationaryResult:
    """Stationary distribution of the walk on the expanded semigroup.

    States are the elements of the minimal ideal of the expansion; exact
    rational masses.  Falls back to the adjoined-zero limit when the
    minimal ideal is not left zero (or when forced).
    """
    return StationaryResult(dict(stationary_law(S, xs, force_limit, "kr")))


def stationary_s(S: ASemigroup, xs: Sequence[Fraction],
                 force_limit: bool = False) -> StationaryResult:
    """Stationary distribution of the walk on the semigroup itself, over
    the elements of its minimal ideal, from the masses entering it per
    entry element (``StationaryEngine.entry_masses``): no expansion is
    built."""
    return StationaryResult(dict(stationary_law(S, xs, force_limit, "s")))


def stationary_law(S: ASemigroup, xs: Sequence[Fraction], force_limit: bool,
                   over: str) -> Iterator[tuple[str, Fraction]]:
    """The law over the expansion ("kr") or the semigroup ("s"): (state
    name, mass) per state, in print order.  Every cap is checked, and the
    engine and the walk sums are built, before this returns; over the
    expansion the copies are then walked as the iterator is read, so the
    law is never held whole.  Equal masses of the walk are one object.
    Over the expansion, its vertex count is checked against ``KR_CAP``
    before the engine is built, and handed to the engine."""
    xs = validate_probs(S, xs)
    if over == "kr" and S._engine is None:
        vertices = kr_size(S)
        check_kr_cap(S.size, vertices)
        _engine(S).kr_vertices = vertices
    if kernel_is_left_zero(S, minimal_ideal(S)) and not force_limit:
        return _stationary_kr_direct(S, xs, over)
    return _stationary_kr_limit(S, xs, over)


def _engine(S: ASemigroup) -> StationaryEngine:
    """The engine of S, stored on S as ``karnofsky_rhodes`` stores the
    expansion: built on first use; a build that hits a cap stores nothing."""
    if S._engine is None:
        S._engine = StationaryEngine(S)
    return S._engine


def _spell(S: ASemigroup):
    """The copy walk's key maker that names the copies by their words, a
    separator before each letter but the first, as ``S.word_label``."""
    sep = label_sep(S.gen_names)
    tail = [sep + name for name in S.gen_names]

    def spell(e, path):
        text = "".join([tail[a] for a in path])
        return text if e is not None else text[len(sep):]
    return spell


def _stationary_kr_direct(S: ASemigroup, xs: Sequence,
                          over: str) -> Iterator[tuple[str, object]]:
    engine = _engine(S)
    if over == "s":
        return iter(_s_law(S, engine.entry_masses(xs)).items())
    # each ideal copy is one vertex, its entry, named by its word
    return ((name, m) for name, _, m in engine._copy_walk(xs, _spell(S)))


def _stationary_kr_limit(S: ASemigroup, xs: Sequence[Fraction],
                         over: str) -> Iterator[tuple[str, Fraction]]:
    """Limit mode (see the module docstring) on the minimal ideal of S or of
    KR(S), from the direct-mode walk sums and S's own left ideals.

    Over S, h(R) is the mass entering the component R at its entries.  Over
    the expansion, h of an ideal copy is its first-entry mass, and f its
    entry (``_copy_walk``); its states are the elements t of f's component,
    named by the copy's word then the path from f to t (``_paths``), and
    sorted by those paths, as breadth-first order is shortlex, not word
    order.  A state's mass is h times t's factor: each distinct pair of
    objects is multiplied once, so equal masses stay one object."""
    engine = _engine(S)
    if over == "s":
        comp, h = S.right_components(), {}
        for e, m in engine.entry_masses(xs).items():
            _acc(h, comp[e], m)
        factor = _limit_factors(S, xs)
        return iter(_s_law(S, {u: h[comp[u]] * x for u, x in factor.items()}).items())
    copies = engine._copy_walk(xs, _spell(S))  # raises past KR_CAP before other work
    factor = _limit_factors(S, xs)
    tail = [label_sep(S.gen_names) + name for name in S.gen_names]

    def law():
        states: dict[int, list[tuple[str, Fraction]]] = {}  # per entry f, on first use
        # keyed by identity: the walk holds every h, and ``states`` every factor
        products: dict[tuple[int, int], Fraction] = {}
        for name, f, m in copies:
            copy = states.get(f)
            if copy is None:
                paths = sorted((p, t) for t, p in engine._paths(f).items())
                copy = states[f] = [("".join([tail[a] for a in p]), factor[t]) for p, t in paths]
            for text, x in copy:
                mx = products.get((id(m), id(x)))
                if mx is None:
                    mx = products[id(m), id(x)] = m * x
                yield name + text, mx
    return law()


def _left_ideals(S: ASemigroup, K: list[int]) -> tuple[list, list]:
    """S's minimal left ideals, the closed classes of left multiplication
    on K = K(S) as indices into K, and the letters' action on them: a maps
    the class of any u to ``action[c][a]``, the class of u·a."""
    index = {u: i for i, u in enumerate(K)}
    lefts = closed_classes([[index[S.mult(g, u)] for g in S.gens] for u in K])
    class_of = {K[i]: c for c, L in enumerate(lefts) for i in L}
    rows = S.right_action()[0]
    return lefts, [[class_of[f] for f in rows[K[L[0]]]] for L in lefts]


def _limit_factors(S: ASemigroup, xs: Sequence[Fraction]) -> dict[int, Fraction]:
    """nu(L(t)) / |H| for every t in K(S), the factor of pi that does not
    depend on t's right ideal: nu is the stationary law of the letters'
    action on the minimal left ideals, and |H| = |K| / (#R·#L) the size of
    each H-class R ∩ L."""
    K = sorted(minimal_ideal(S))
    lefts, action = _left_ideals(S, K)
    nu = _stationary_vector(action, xs)
    comp = S.right_components()
    h_size = len(K) // (len({comp[u] for u in K}) * len(lefts))
    per_class = [m / h_size for m in nu]
    return {K[i]: per_class[c] for c, L in enumerate(lefts) for i in L}


def zero_limit_names(S: ASemigroup) -> dict[str, str]:
    """Each state of the limit-mode law over the expansion, by its name, to
    its name u·0 on KR(S⁰): u's word then the zero letter first reaches u·0."""
    kr = karnofsky_rhodes(S)
    names0 = S.gen_names + [zero_name(S)]
    sep, z = label_sep(names0), (S.n_gens,)
    return {name: sep.join([names0[g] for g in kr.words[u] + z])
            for name, u in zip(kr.names(kr.ideal), kr.ideal)}


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


def _s_law(S: ASemigroup, masses: dict[int, object]) -> dict[str, object]:
    """The law over semigroup elements, named by element and in name
    order."""
    names = {e: S.element_name(e) for e in masses}
    return {names[e]: masses[e] for e in sorted(masses, key=names.__getitem__)}


def walk_expressions(S: ASemigroup) -> Iterator[tuple[str, str]]:
    """(label, pretty-printed walk expression) per normal form, in word
    order.  Every expression is built, and ``EXPRESSION_CAP`` checked,
    before this returns; each is pretty-printed as the iterator reaches
    it, so the expressions are held, not their text."""
    engine = _engine(S)
    forms = [(S.word_label(nf.word), engine.expression(nf)) for nf in engine.normal_forms]
    return ((label, pretty(expr, S.gen_names)) for label, expr in forms)


def expressions_report(S: ASemigroup) -> dict[str, str]:
    """Pretty-printed expression per normal form (dict preserves sort order)."""
    return dict(walk_expressions(S))
