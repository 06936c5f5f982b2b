"""Finite semigroups with a distinguished generating set.

Elements are dense integer indices 0..n-1.  A semigroup carries one
multiplication function on them, the list of generator element indices,
printable generator names, optional printable element names, and
(computed lazily, once) one breadth-first search of the right action of
its generators: the table ``rows[e][a] = e·gens[a]``, the elements in
discovery order from the generators in index order, and the first word
reaching each element.  That word is shortest possible, with ties broken
lexicographically, and discovery order is the shortlex order of those
words, so all derived labelling is deterministic across runs.
Representative words, the right Cayley graph, the minimal ideal and the
simulator's start word all read this one search.  A semigroup made from
a Karnofsky-Rhodes expansion (``KRExpansion.semigroup``) makes no search:
the expansion's build made the same one, and hands it over with its
components.
A semigroup also stores, each built on first use, its component DAG, its
minimal ideal K(S) (a frozen set), its Karnofsky-Rhodes expansion (no
reference to S) and its walk-sum engine on S's components (none either):
no reference cycle.  The minimal ideal, the engine and the expansion's
count ``expansions.kr_size`` all read the one DAG.

The minimal right ideals are the components no edge leaves, those outside
the DAG, and their union is the minimal ideal (Rhodes and Steinberg, *The
q-theory of Finite Semigroups*, 2009), which is how ``minimal_ideal``
finds it.

Only ``semigroup_from_table`` holds a table, the one it is given.  The
pipeline only ever multiplies by a generator on one side, so the built-in
families and the derived semigroups bar and flat fill none: the families
compute their products, and the derived semigroups read their relations
over the product of the semigroup they are built from.  Limit mode names
its states on S⁰, S with a zero adjoined, without building it: ``zero_name``
gives the zero's name.

The formal identity used as the root of Cayley graphs is *virtual*: it is
never an element of the semigroup, matching the convention that the vertex
set of a right Cayley graph is the semigroup with one adjoined identity.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

Word = tuple[int, ...]

CLOSURE_CAP = 100_000  # elements of a transformation closure, read at each call


class SemigroupError(ValueError):
    pass


class NotAssociative(SemigroupError):
    pass


class GeneratorsDoNotGenerate(SemigroupError):
    pass


class ClosureTooLarge(SemigroupError):
    pass


class SizeCapExceeded(SemigroupError):
    pass


def label_sep(names: Sequence[str]) -> str:
    """Separator of printed words: single-character generator names are
    juxtaposed, longer ones joined with a middle dot to stay unambiguous."""
    return "" if all(len(s) == 1 for s in names) else "·"


class ASemigroup:
    """A finite semigroup together with a chosen generating set.

    Multiplication is one function ``mult(i, j)`` on element indices,
    stored as ``S.mult``: tables index their rows, transformations compose
    on demand, and derived semigroups read their relations over the
    multiplication of the semigroup they are built from.  Use the
    ``semigroup_from_*`` constructors or the constructions below rather
    than instantiating directly.
    """

    def __init__(
        self,
        size: int,
        gens: Sequence[int],
        gen_names: Sequence[str],
        mult: Callable[[int, int], int],
        element_names: Sequence[str] | None = None,
    ):
        if not gens:
            raise SemigroupError("generator list must be nonempty")
        if len(gen_names) != len(gens):
            raise SemigroupError("one name per generator required")
        if len(set(gen_names)) != len(gen_names):
            raise SemigroupError("generator names must be unique")
        for name in gen_names:
            if "·" in name:
                raise SemigroupError(f"generator name {name!r} contains '·', which "
                                     "joins the names in printed words")
        self.size = size
        self.gens = list(gens)
        self.gen_names = list(gen_names)
        self._label_sep = label_sep(self.gen_names)
        self.mult = mult
        self._element_names = None if element_names is None else list(element_names)
        if self._element_names is not None:
            if len(self._element_names) != size:
                raise SemigroupError("one name per element required")
            if len(set(self._element_names)) != size:
                raise SemigroupError("element names must be unique")
        self._right_action: tuple[list[list[int]], list[int], list[Word]] | None = None
        self._components: list[int] | None = None  # stored by right_components
        self._dag: list | None = None  # stored by component_dag
        self._minimal_ideal: frozenset[int] | None = None  # stored by minimal_ideal
        self._kr = None  # its Karnofsky-Rhodes expansion, stored by karnofsky_rhodes
        self._engine = None  # its walk-sum engine, stored by stationary._engine

    # -- basic structure ---------------------------------------------------

    @property
    def n_gens(self) -> int:
        return len(self.gens)

    def product(self, word: Sequence[int]) -> int:
        """Image of a word of generator indices under the product map."""
        if not word:
            raise SemigroupError("empty word has no image (identity is virtual)")
        e = self.gens[word[0]]
        for g in word[1:]:
            e = self.mult(e, self.gens[g])
        return e

    # -- canonical words and names ------------------------------------------

    def right_action(self) -> tuple[list[list[int]], list[int], list[Word]]:
        """The one breadth-first search of the generators' right action.

        Returns ``(rows, order, words)``: ``rows[e][a] = e·gens[a]``, the
        elements in discovery order from the generators in index order,
        and per element the first word reaching it, its shortlex-least
        word.  Computed once, with |S|·k products, unless an expansion's
        build handed it over (``KRExpansion.semigroup``).
        """
        if self._right_action is None:
            gens, mult = self.gens, self.mult
            rows: list = [None] * self.size
            words: list = [None] * self.size
            order: list[int] = []
            for a, e in enumerate(gens):
                if words[e] is None:
                    words[e] = (a,)
                    order.append(e)
            for e in order:  # the queue: discoveries append to it
                w = words[e]
                rows[e] = row = [mult(e, g) for g in gens]
                for a, f in enumerate(row):
                    if words[f] is None:
                        words[f] = w + (a,)
                        order.append(f)
            if len(order) != self.size:
                raise GeneratorsDoNotGenerate(
                    "generators do not generate the whole semigroup"
                )
            self._right_action = rows, order, words
        return self._right_action

    def right_components(self) -> list[int]:
        """The strongly connected component of each element in the right
        action (its R-class), one Tarjan search stored on S, or the
        expansion's copies where ``KRExpansion.semigroup`` made S.  The
        component DAG and the Karnofsky-Rhodes expansion's build read it."""
        if self._components is None:
            from .graphs import sccs  # local import, graphs depends on core

            self._components = sccs(self.right_action()[0])
        return self._components

    def component_dag(self) -> list[tuple[list[int], list[tuple[int, int, int]]]]:
        """Per component that some edge leaves, in topological order (Kahn's
        algorithm), its entry elements, where a walk enters it (generators
        first, then by the edges in), and its exits (v, a, v·a), the edges
        that leave it, by v and a: one scan of the right action, stored."""
        if self._dag is None:
            rows, comp = self.right_action()[0], self.right_components()
            exits: dict[int, list[tuple[int, int, int]]] = {}
            into = [0] * (max(comp) + 1)  # per component, the edges entering it
            found = dict.fromkeys(self.gens)
            for v, row in enumerate(rows):
                c = comp[v]
                for a, f in enumerate(row):
                    if comp[f] != c:
                        exits.setdefault(c, []).append((v, a, f))
                        into[comp[f]] += 1
                        found[f] = None
            entries: dict[int, list[int]] = {}
            for e in found:
                if comp[e] in exits:
                    entries.setdefault(comp[e], []).append(e)
            order = [c for c, n in enumerate(into) if n == 0]
            for c in order:  # the queue: components whose edges in are all counted
                for _, _, f in exits.get(c, ()):
                    into[comp[f]] -= 1
                    if not into[comp[f]]:
                        order.append(comp[f])
            self._dag = [(entries[c], exits[c]) for c in order if c in exits]
        return self._dag

    def word_label(self, word: Sequence[int]) -> str:
        """Printable form of a generator word, parts joined by ``label_sep``."""
        names = self.gen_names
        return self._label_sep.join([names[g] for g in word])

    def element_name(self, e: int) -> str:
        if self._element_names is not None:
            return self._element_names[e]
        return self.word_label(self.right_action()[2][e])

    def element_names(self) -> list[str]:
        return [self.element_name(e) for e in range(self.size)]

    # -- checks --------------------------------------------------------------

    def check_associative(self) -> None:
        """Light's associativity test: only triples whose middle factor is
        a generator, which is complete once the generators generate the
        semigroup (checked first).  The table is made once, with n²
        products; then (a·g)·b = a·(g·b) for every b is one comparison of
        the row of a·g with a's row read through g's.
        """
        self.right_action()  # raises GeneratorsDoNotGenerate
        elements = range(self.size)
        table = [[self.mult(a, b) for b in elements] for a in elements]
        for ge in set(self.gens):
            gb = table[ge]
            for a, row in enumerate(table):
                ag = table[row[ge]]
                if ag != list(map(row.__getitem__, gb)):
                    b = next(b for b in elements if ag[b] != row[gb[b]])
                    raise NotAssociative(
                        f"({a}*g)*{b} != {a}*(g*{b}) for generator element {ge}"
                    )

    def __repr__(self) -> str:
        return f"ASemigroup(|S|={self.size}, A={self.gen_names})"


# -- constructors -------------------------------------------------------------


def semigroup_from_table(
    table: Sequence[Sequence[int]],
    gens: Sequence[int],
    gen_names: Sequence[str] | None = None,
    element_names: Sequence[str] | None = None,
) -> ASemigroup:
    """Checked semigroup from a multiplication table: rows[i][j] = i*j."""
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(r, (list, tuple)) for r in table
    ):
        raise SemigroupError("table must be a list of rows, each a list")
    n = len(table)
    rows = [list(r) for r in table]
    for r in rows:
        if len(r) != n or not all(_is_int(x) and 0 <= x < n for x in r):
            raise SemigroupError(
                f"table must be {n} x {n} with integer entries in 0..{n - 1}"
            )
    if not all(_is_int(g) and 0 <= g < n for g in gens):
        raise SemigroupError(f"generator elements must lie in 0..{n - 1}")
    if gen_names is None:
        gen_names = [_default_gen_name(i) for i in range(len(gens))]

    def mult(i: int, j: int) -> int:
        return rows[i][j]

    S = ASemigroup(n, gens, gen_names, mult, element_names)
    S.check_associative()
    return S


def _is_int(x) -> bool:
    """An integer that is not a boolean (JSON's true and false are not indices)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _default_gen_name(i: int) -> str:
    alpha = "abcdefghijklmnopqrstuvwxyz"
    return alpha[i] if i < len(alpha) else f"g{i}"


def semigroup_from_transformations(
    n_states: int, maps: dict[str, Sequence[int]]
) -> ASemigroup:
    """Semigroup generated by total maps on 0..n_states-1, at most
    ``CLOSURE_CAP`` elements.

    The product f*g acts as "f then g": (f*g)(q) = g(f(q)).  This matches
    the right-Cayley convention where following the edge labelled ``a``
    from the vertex of ``w`` lands on the vertex of ``wa``.
    """
    if not _is_int(n_states):
        raise SemigroupError(f"states must be an integer, got {n_states!r}")
    if n_states < 0:
        raise SemigroupError(f"states must be at least 0, got {n_states}")
    if not isinstance(maps, dict):
        raise SemigroupError("maps must be an object from generator names to maps")
    gen_names = list(maps.keys())
    gen_maps = []
    for name in gen_names:
        m = maps[name]
        if not isinstance(m, (list, tuple)) or len(m) != n_states or not all(
            _is_int(q) and 0 <= q < n_states for q in m
        ):
            raise SemigroupError(f"map {name!r} is not total on 0..{n_states - 1}")
        gen_maps.append(tuple(m))

    index: dict[tuple[int, ...], int] = {}
    elements: list[tuple[int, ...]] = []
    gens: list[int] = []
    for m in gen_maps:
        if m not in index:
            index[m] = len(elements)
            elements.append(m)
        gens.append(index[m])
    head = 0
    while head < len(elements):
        f = elements[head]
        head += 1
        for m in gen_maps:
            fg = tuple(map(m.__getitem__, f))
            if fg not in index:
                if len(elements) >= CLOSURE_CAP:
                    raise ClosureTooLarge(
                        f"transformation closure on {n_states} states "
                        f"exceeded cap {CLOSURE_CAP} elements"
                    )
                index[fg] = len(elements)
                elements.append(fg)

    def mult(i: int, j: int) -> int:
        return index[tuple(map(elements[j].__getitem__, elements[i]))]

    return ASemigroup(len(elements), gens, gen_names, mult)


# -- ideals -------------------------------------------------------------------


def minimal_ideal(S: ASemigroup) -> frozenset[int]:
    """The unique minimal two-sided ideal K(S), stored on S: later calls
    return the same set.

    The minimal right ideals are the components of the right action that
    no edge leaves, those outside the component DAG, and their union is
    the minimal ideal.
    """
    if S._minimal_ideal is None:
        comp = S.right_components()
        dag = {comp[entries[0]] for entries, _ in S.component_dag()}
        S._minimal_ideal = frozenset(e for e, c in enumerate(comp) if c not in dag)
    return S._minimal_ideal


def kernel_is_left_zero(S: ASemigroup, K: frozenset[int]) -> bool:
    """Left-zero test specialized to the minimal ideal.

    For x in the minimal ideal, x*s = x for every s once it holds for every
    generator (if x*a = x on generators then x*s = x for all s, hence in
    particular on the ideal; conversely left zero forces x*s = (x*s)*u = x
    for u in the ideal).  Reads |K|*|A| entries of the right-action table
    instead of making |K|^2 products.
    """
    rows = S.right_action()[0]
    return all(f == x for x in K for f in rows[x])


# -- element-adjoining constructions -----------------------------------------

ZERO_NAME = "□"  # printable box for an adjoined/collapsed zero


def zero_name(S: ASemigroup) -> str:
    """Name of a zero adjoined to S, as element and generator: the box,
    primed until no generator or element of S has that name."""
    return _fresh_name(ZERO_NAME, S.gen_names + S.element_names())


BAR_ONE = "‾\U0001d7d9"  # name of the adjoined reset generator
FLAT_ONE = "~\U0001d7d9"


def _fresh_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    name = base
    while name in taken:
        name += "'"
    return name


def _unique_names(names: list[str]) -> list[str]:
    """Deterministically de-duplicate by priming later occurrences."""
    seen: set[str] = set()
    out = []
    for name in names:
        while name in seen:
            name += "'"
        seen.add(name)
        out.append(name)
    return out


def bar(S: ASemigroup) -> ASemigroup:
    """Adjoin a constant-map copy of the semigroup.

    Elements are S, a marked copy of S, and one extra generator r with
    relations  x*copy(y) = copy(y),  copy(x)*y = copy(x*y),  z*r = r,
    r*y = copy(y), r*r = r.  Size is 2|S|+1.
    """
    return _adjoin_reset(S, BAR_ONE, dual=False)


def flat(S: ASemigroup) -> ASemigroup:
    """Order-reversed dual of :func:`bar`; its minimal ideal is left zero.

    Relations:  copy(y)*x = copy(y),  y*copy(x) = copy(y*x),  r*z = r,
    y*r = copy(y), r*r = r.
    """
    return _adjoin_reset(S, FLAT_ONE, dual=True)


def _adjoin_reset(S: ASemigroup, reset_name: str, dual: bool) -> ASemigroup:
    """:func:`bar` of S, or with ``dual`` its order dual :func:`flat`.

    Elements are S (0..n-1), the copy (n..2n-1) and r (2n).  The product
    is read off bar's relations; flat evaluates them with both the
    arguments and S's product reversed.
    """
    n = S.size
    r = 2 * n
    base = S.mult
    m = (lambda i, j: base(j, i)) if dual else base

    def bar_mult(i: int, j: int) -> int:
        if j >= n:  # x*copy(y) = copy(y) and z*r = r
            return j
        if i < n:
            return m(i, j)
        if i == r:  # r*y = copy(y)
            return n + j
        return n + m(i - n, j)  # copy(x)*y = copy(x*y)

    mult = (lambda i, j: bar_mult(j, i)) if dual else bar_mult
    names = S.element_names()
    mark = reset_name[0]
    names = _unique_names(
        names + [mark + s for s in names] + [_fresh_name(reset_name, S.gen_names)]
    )
    # Associative by the relations above; r and S's generators generate it.
    return ASemigroup(2 * n + 1, S.gens + [r], S.gen_names + names[-1:], mult, names)
