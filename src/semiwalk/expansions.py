"""Karnofsky-Rhodes and McCammond expansions of rooted labelled graphs,
both integer trees (``ExpansionTree``) with words, names and labelled
graphs built on demand.

The Karnofsky-Rhodes expansion identifies two generator words iff they reach
the same element of the underlying semigroup *and* their paths in the right
Cayley graph cross the same set of transition edges.  A path never
re-enters a strongly connected component it has left, nor crosses one edge
twice, so the expansion is a tree of copies of the graph's components,
each entered by exactly one edge: S's component DAG unfolded.  Its size,
the root plus per copy its component's size, is counted over that DAG
(``kr_size``) and checked against ``KR_CAP`` before anything is built;
then it is built copy by copy, and every vertex knows its copy.  The
result is again a right Cayley graph, so it carries a semigroup structure
of its own, and its build is that semigroup's right-action search:
``semigroup`` hands the search and the R-classes (the copies) to the
semigroup it makes.  The expansion is stored on the semigroup, and every
reader shares that one.  It keeps K(S), so it finds its own minimal
ideal (the vertices over K(S)) and minimal left ideals once, on first
use, for every reader.  The letters' left action is one table, built
top-down along the breadth-first tree on first use; the expansion-ideal
chain and the minimal left ideals both read that table.

The McCammond expansion of a deterministic rooted graph has one vertex per
simple path from the root; an edge either extends a simple path (tree edge)
or falls back to the unique initial segment ending at the target vertex
(back edge).  ``expand --mc`` and the demos build it; the walk sums build
such trees per component instead (``stationary.StationaryEngine``).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .core import ASemigroup, SizeCapExceeded, Word, label_sep, minimal_ideal
from .graphs import ROOT_LABEL, RootedLabeledGraph, closed_classes, right_cayley_rows
# not called here, since the build reads S's rows and components and needs no
# labels, but perfbench/spans.py times the expansion's graph work by these names
from .graphs import right_cayley, sccs, transition_edges

# size caps in vertices, read at each call
KR_CAP = 200_000
MC_CAP = 1_000_000


class ExpansionTree:
    """An expansion as an integer tree over the graph it expands.

    Vertex v > 0 extends the path ``parent[v]`` by the letter
    ``parent_gen[v]`` and ends at ``endpoint[v]`` of the graph it expands
    (a graph or an expansion, whose alphabet and images ``base_image`` in
    S are passed in); parents come before children.  ``out`` holds the
    tree edges and every other edge.
    """

    root = 0

    def __init__(self, alphabet, base_image, out, parent, parent_gen, endpoint):
        self.alphabet: list[str] = alphabet
        self.out: list[list[int | None]] = out
        self.parent: list[int | None] = parent
        self.parent_gen: list[int | None] = parent_gen
        self.endpoint: list[int] = endpoint  # vertex of the base graph
        # the underlying semigroup element per vertex, None at the root
        self.s_image: list[int | None] = [base_image[u] for u in endpoint]

    @cached_property
    def words(self) -> list[Word]:
        """The tree-path word of every vertex, in one top-down pass."""
        words: list[Word] = [()]
        for p, a in zip(self.parent[1:], self.parent_gen[1:]):
            words.append(words[p] + (a,))
        return words

    def names(self, vertices) -> list[str]:
        """The labels of ``graph`` at these vertices: each vertex's word as
        ``ASemigroup.word_label`` prints it; the root, the empty word, is 𝟙."""
        names, words, sep = self.alphabet, self.words, label_sep(self.alphabet)
        return [sep.join([names[g] for g in words[v]]) if v else ROOT_LABEL
                for v in vertices]

    @cached_property
    def graph(self) -> RootedLabeledGraph:
        """The expansion as a labelled graph, built on first use."""
        labels = self.names(range(len(self.out)))
        return RootedLabeledGraph(self.alphabet, labels, self.out, self.s_image)

    @property
    def tree_edges(self) -> set[tuple[int, int]]:
        return set(zip(self.parent[1:], self.parent_gen[1:]))


class KRExpansion(ExpansionTree):
    """Karnofsky-Rhodes expansion: its breadth-first tree over the right
    Cayley graph plus its semigroup view, in which vertex i > 0 is element
    i-1.  Every vertex has an edge for every letter, and ``left`` holds
    every vertex's left multiples by the letters.

    Vertex v lies in copy ``copy_of[v]`` of a component of the graph it
    expands, and each copy is entered at its first vertex, its entry, by
    its tree edge alone; copy 0 is the root's.  Copies are numbered in the
    order their entries were found, so a copy comes after the copy its
    entry edge leaves.  ``base_ideal`` is K(S), the minimal ideal of S.
    """

    def __init__(self, alphabet, base_image, out, parent, parent_gen, endpoint,
                 copy_of, base_ideal):
        super().__init__(alphabet, base_image, out, parent, parent_gen, endpoint)
        self.copy_of: list[int] = copy_of
        self.base_ideal: frozenset[int] = base_ideal

    @cached_property
    def left(self) -> list[list[int]]:
        """``left[v][a]`` is the vertex of generator a times vertex v.  As
        a·(w b) = (a·w)·b, a row is its parent's row moved by the vertex's
        letter: one top-down pass."""
        out = self.out
        left = [out[self.root]]
        for p, b in zip(self.parent[1:], self.parent_gen[1:]):
            left.append([out[u][b] for u in left[p]])
        return left

    @cached_property
    def ideal(self) -> list[int]:
        """The minimal ideal of the expansion, in vertex order: the
        vertices whose image lies in K = K(S).

        K(KR) is the union of the closed classes of ``out``.  Edges out of
        K(S) stay in a strongly connected minimal right ideal, so a walk from
        a vertex (r, T) over K(S) crosses no transition edge: it keeps T and
        can walk back.  So each vertex over K(S) lies in a closed class.
        Conversely a closed class holds u·w for a word w with product in
        K(S), and the whole class is reached from there: it lies over K(S).
        """
        K = self.base_ideal
        return [v for v, e in enumerate(self.s_image) if e in K]

    @cached_property
    def ideal_left(self) -> list[list[int]]:
        """``left`` on ``ideal``, as indices into it."""
        index = {u: i for i, u in enumerate(self.ideal)}
        return [[index[w] for w in self.left[u]] for u in self.ideal]

    @cached_property
    def left_ideals(self) -> tuple[list, list]:
        """The minimal left ideals, the closed classes of ``ideal_left``,
        and the letters' action on them: a maps the class c of any u to
        ``action[c][a]``, the class of u·a."""
        ideal = self.ideal
        classes = closed_classes(self.ideal_left)
        class_of = {ideal[i]: c for c, L in enumerate(classes) for i in L}
        return classes, [[class_of[w] for w in self.out[ideal[L[0]]]] for L in classes]

    def semigroup(self) -> ASemigroup:
        """The expansion as a semigroup (element i = vertex i+1).

        Multiplication follows the second factor's word through the graph,
        one edge per letter, so multiplying by a generator is one step.
        The build has already made the search ``ASemigroup.right_action``
        would make, so the semigroup is handed it: the rows are ``out``
        less the root, the elements come in vertex order with their tree
        words, and the R-classes are the copies.  A copy is strongly
        connected and a path never comes back to it, and copies are
        numbered by their first vertex, as ``sccs`` numbers components.
        Element names are those words, printed on first use.
        """
        out, words = self.out, self.words

        def mult(i: int, j: int) -> int:
            v = i + 1
            for a in words[j + 1]:
                v = out[v][a]
            return v - 1

        n = len(out) - 1
        T = ASemigroup(n, [w - 1 for w in out[self.root]], list(self.alphabet), mult)
        T._right_action = ([[u - 1 for u in row] for row in out[1:]], list(range(n)),
                           words[1:])
        T._components = [c - 1 for c in self.copy_of[1:]]
        return T


def kr_size(S: ASemigroup) -> int:
    """The expansion's vertex count, with nothing built: ``copy_tree_size``
    of S's components and component DAG."""
    return copy_tree_size(S.right_components(), S.component_dag(), S.gens)


def copy_tree_size(comp: list[int], dag: list, gens: list[int]) -> int:
    """The vertex count of the tree of copies that a component DAG unfolds
    into, given each element's component and the generators: the root,
    then per copy of a component its size.  Over the DAG in order, each
    copy of a component opens one copy per exit."""
    size = Counter(comp)
    copies = dict(Counter(gens))  # per entry element, the copies entered there
    for entries, exits in dag:
        n = sum([copies[e] for e in entries])
        for _, _, f in exits:
            copies[f] = copies.get(f, 0) + n
    return 1 + sum(n * size[comp[e]] for e, n in copies.items())


def check_kr_cap(size: int, vertices: int) -> None:
    """SizeCapExceeded if an expansion of ``vertices`` vertices, that of a
    semigroup with |S| = ``size``, passes ``KR_CAP``."""
    if vertices > KR_CAP:
        raise SizeCapExceeded(
            f"Karnofsky-Rhodes expansion of a semigroup with "
            f"|S| = {size} exceeded cap {KR_CAP} vertices")


def karnofsky_rhodes(S: ASemigroup) -> KRExpansion:
    """The expansion of S, stored on S: later calls return the same object.
    An expansion of more than ``KR_CAP`` vertices, counted by ``kr_size``,
    raises before anything is built and stores nothing.

    A path never re-enters a component it has left, so its set of crossed
    transition edges is a chain whose last edge names the copy it is in:
    the expansion is a tree of copies of the right Cayley graph's strongly
    connected components, each entered by one edge.  The breadth-first
    search builds it copy by copy.  An edge that crosses components opens
    a new copy of the target's component; an edge inside a component reads
    the copy's table, indexed by the target's position in its component.
    """
    if S._kr is not None:
        return S._kr
    check_kr_cap(S.size, kr_size(S))
    gout, image = right_cayley_rows(S)
    # S's components, relabelled to the graph's vertices; the root, which
    # no edge enters, is a component of its own, numbered last
    comp = S.right_components()
    root_comp = max(comp) + 1
    vcomp = [root_comp] + [comp[e] for e in image[1:]]
    size = [0] * (root_comp + 1)
    pos = []  # each graph vertex's position in its component
    for c in vcomp:
        pos.append(size[c])
        size[c] += 1
    # per graph vertex, its edges (letter, target, the target's position if
    # the edge stays in the component, None if it crosses)
    edges = [[(a, u, pos[u] if vcomp[u] == c else None) for a, u in enumerate(row)]
             for row, c in zip(gout, vcomp)]

    # per vertex in order of discovery: (parent, letter, graph vertex, copy)
    found: list[tuple] = [(None, None, 0, 0)]
    out: list[list[int]] = []  # filled in the same order
    tables = [[0]]  # per copy, its vertex at each position, None until found
    for v, (_, _, rv, c) in enumerate(found):  # the queue: discoveries append to it
        table, row = tables[c], []
        for a, u, p in edges[rv]:
            w = table[p] if p is not None else None
            if w is None:
                w = len(found)
                if p is None:  # a crossing opens a new copy of u's component
                    fresh = [None] * size[vcomp[u]]
                    fresh[pos[u]] = w
                    found.append((v, a, u, len(tables)))
                    tables.append(fresh)
                else:
                    table[p] = w
                    found.append((v, a, u, c))
            row.append(w)
        out.append(row)

    parent, parent_gen, endpoint, copy_of = map(list, zip(*found))
    S._kr = KRExpansion(list(S.gen_names), image, out, parent, parent_gen, endpoint,
                        copy_of, minimal_ideal(S))
    return S._kr


def mccammond(G) -> ExpansionTree:
    """Expand a deterministic rooted graph, or an expansion, over its
    simple paths, at most ``MC_CAP`` of them.

    The depth-first search creates children in letter order, so vertex
    order is the lexicographic order of the tree-path words.
    """
    k = len(G.alphabet)
    parent: list[int | None] = [None]
    parent_gen: list[int | None] = [None]
    endpoint = [G.root]
    out: list[list[int | None]] = [[None] * k]

    def add(u: int, v: int, a: int) -> int:
        w = len(endpoint)
        if w >= MC_CAP:
            raise SizeCapExceeded(
                f"McCammond expansion of a graph with {len(G.out)} "
                f"vertices exceeded cap {MC_CAP} simple paths"
            )
        parent.append(v)
        parent_gen.append(a)
        endpoint.append(u)
        out.append([None] * k)
        return w

    grow_simple_paths(G.out.__getitem__, 0, endpoint, out, add)
    return ExpansionTree(G.alphabet, G.s_image, out, parent, parent_gen, endpoint)


def grow_simple_paths(row, root: int, endpoint: list, out: list, add) -> None:
    """Grow the tree of simple paths from tree vertex ``root`` depth first,
    children in letter order.

    ``row(x)`` lists the heads of the edges out of graph vertex x by letter
    (None for no edge), ``endpoint`` maps tree vertices to graph vertices
    and ``out`` holds their edge rows; ``add(x, v, a)`` makes the tree
    vertex that extends v by letter a to x, and returns it.  An edge to a
    graph vertex on the current path is a back edge to the tree vertex of
    that initial segment.
    """
    # on_path maps a graph vertex to the tree vertex of the current DFS
    # path that ends there; next_gen holds, per path vertex, the next letter
    on_path = {endpoint[root]: root}
    path = [root]
    next_gen = [0]
    while path:
        v = path[-1]
        heads, out_v = row(endpoint[v]), out[v]
        for a in range(next_gen[-1], len(heads)):
            u = heads[a]
            if u is None:
                continue
            hit = on_path.get(u)
            if hit is not None:
                out_v[a] = hit  # back edge to an initial segment
                continue
            w = out_v[a] = on_path[u] = add(u, v, a)
            next_gen[-1] = a + 1
            path.append(w)
            next_gen.append(0)
            break
        else:
            path.pop()
            next_gen.pop()
            del on_path[endpoint[v]]
