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
first come back to v (Lawler's loop-erased-walk formula).  R_v and G_v
depend only on the shape of v's subtree (per letter: a child's shape, or a
back edge and how many levels up it goes), and the tower expansions are
self-similar, so subtrees of equal shape share one bottom-up reduction.
One top-down pass then forms the prefix products, interned by value, so
each distinct product is computed once.  The regular expression for a
normal form's walk language is the same sum over Kleene expressions: the
reduction runs once with letters as weights, and per normal form only its
tree path is eliminated, from the root outward, which fixes the printed
factored form.

When the minimal ideal is left zero the per-normal-form sums added per
Karnofsky-Rhodes vertex are the stationary distribution of the expanded
chain; lumping by underlying element gives the chain on the semigroup
itself.  Otherwise limit mode gives u the limit t -> 0 of the mass of u·0
on KR(S⁰), S with a zero generator of weight t adjoined and the other
weights scaled by (1-t).  That limit has a closed form on the minimal ideal
of KR(S), read from the same sums: pi(u) = h(R(u)) nu(L(u)) / |H|.  Here
h(R) is the mass of the normal forms entering the minimal right ideal R,
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
from .expansions import ExpansionTree, KRExpansion, karnofsky_rhodes, mccammond
from .graphs import closed_classes
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
    mc_vertex: int  # its word is the tree-path word ``mc.words[mc_vertex]``
    kr_vertex: int


class StationaryEngine:
    """Shared expansion state for one semigroup and its minimal ideal."""

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
            NormalForm(v, endpoint[v]) for v in range(1, len(in_ideal))
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

    def expression(self, nf: NormalForm) -> KleeneExpr:
        """Regular expression for the ideal-avoiding walks onto this form.

        The same shape reduction as ``values``, over Kleene expressions
        (built once per engine): a vertex off the target's root path leaves
        its parent ``letter · (loop)⋆ · exit``, whatever the target.  Only
        the root path, each of its vertices merged with the path's next
        vertex left out, is then eliminated per form, from the root outward.
        This fixes the compact left-to-right factored forms: loops attach
        to the vertex where the walk leaves for the target.  The result is
        then put through ``zimin_rewrite``; one over ``EXPRESSION_CAP`` nodes,
        whose rewrite and text grow faster still, raises ``SizeCapExceeded``.
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
        expr = out[0][target]
        size = node_count(expr)
        if size > EXPRESSION_CAP:
            name = self.S.word_label(self.mc.words[target])
            raise SizeCapExceeded(
                f"walk expression of normal form {name} with {size} nodes exceeded "
                f"cap {EXPRESSION_CAP} before the star-of-union rewrite")
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
    vals = engine.values(xs)
    # several normal forms can reach one expansion vertex: their values add
    masses: dict[int, object] = {}
    for nf in engine.normal_forms:
        _acc(masses, nf.kr_vertex, vals[nf.mc_vertex])
    del vals  # the live vertices' values: free them before the result is built
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
    index = {u: i for i, u in enumerate(ideal)}
    vals = engine.values(xs)
    # h: first-entry mass per minimal right ideal, the closed classes of the
    # right action on the ideal, which every normal form enters
    rights = closed_classes([[index[w] for w in kr.out[u]] for u in ideal])
    r_of = {ideal[i]: j for j, R in enumerate(rights) for i in R}
    h = [Fraction(0)] * len(rights)
    for nf in engine.normal_forms:
        h[r_of[nf.kr_vertex]] += vals[nf.mc_vertex]
    del vals
    # nu: the stationary law of the letters' action on the minimal left ideals
    lefts, action = kr.left_ideals(ideal)
    l_of = {ideal[i]: j for j, L in enumerate(lefts) for i in L}
    nu = _stationary_vector(action, xs)
    # |H| divides h once per right ideal, not once per state
    h_size = len(ideal) // (len(rights) * len(lefts))
    h = [m / h_size for m in h]
    masses = {u: h[r_of[u]] * nu[l_of[u]] for u in ideal}
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
    words = engine.mc.words
    out = {}
    for nf in engine.normal_forms:
        out[S.word_label(words[nf.mc_vertex])] = pretty(engine.expression(nf), S.gen_names)
    return out
