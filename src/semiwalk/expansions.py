"""Karnofsky-Rhodes and McCammond expansions of rooted labelled graphs,
both integer trees (``ExpansionTree``) with words, names and labelled
graphs built on demand.

The Karnofsky-Rhodes expansion identifies two generator words iff they reach
the same element of the underlying semigroup *and* their paths in the right
Cayley graph cross the same set of transition edges.  The result is again a
right Cayley graph, so it carries a semigroup structure of its own.  It is
stored on the semigroup, and every reader shares that one.  Its minimal
ideal is read off by image: the vertices over the minimal ideal of S.  The
letters' left action on it is one table, built top-down along the
breadth-first tree on first use; the expansion-ideal chain and the minimal
left ideals both read that table.

The McCammond expansion of a deterministic rooted graph has one vertex per
simple path from the root; an edge either extends a simple path (tree edge)
or falls back to the unique initial segment ending at the target vertex
(back edge).
"""

from __future__ import annotations

from functools import cached_property

from .core import ASemigroup, SizeCapExceeded, Word, label_sep
from .graphs import ROOT_LABEL, RootedLabeledGraph, closed_classes, right_cayley
from .graphs import sccs, transition_edges

# size caps in vertices, read at each call
KR_CAP = 200_000
MC_CAP = 1_000_000


class ExpansionTree:
    """An expansion as an integer tree over the graph it expands.

    Vertex v > 0 extends the path ``parent[v]`` by the letter
    ``parent_gen[v]`` and ends at ``endpoint[v]`` of the graph it expands
    (a graph or an expansion, read here and not kept); parents come before
    children.  ``out`` holds the tree edges and every other edge.
    """

    root = 0

    def __init__(self, base_graph, out, parent, parent_gen, endpoint):
        self.alphabet: list[str] = base_graph.alphabet
        self.out: list[list[int | None]] = out
        self.parent: list[int | None] = parent
        self.parent_gen: list[int | None] = parent_gen
        self.endpoint: list[int] = endpoint  # vertex of the base graph
        # the underlying semigroup element per vertex, None at the root
        self.s_image: list[int | None] = [base_graph.s_image[u] for u in endpoint]

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
    every vertex's left multiples by the letters."""

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

    def ideal_over(self, K: frozenset[int]) -> list[int]:
        """The minimal ideal of the expansion, in vertex order, given the
        minimal ideal K of S: the vertices whose image lies in K.

        K(KR) is the union of the closed classes of ``out``.  Edges out of
        K(S) stay in a strongly connected minimal right ideal, so a walk from
        a vertex (r, T) over K(S) crosses no transition edge: it keeps T and
        can walk back.  So each vertex over K(S) lies in a closed class.
        Conversely a closed class holds u·w for a word w with product in
        K(S), and the whole class is reached from there: it lies over K(S).
        """
        return [v for v, e in enumerate(self.s_image) if e in K]

    def left_ideals(self, ideal: list[int]) -> tuple[list, list]:
        """The minimal left ideals, the closed classes of ``left`` on
        ``ideal`` (as indices into it), and the letters' action on them:
        a maps the class c of any u to ``action[c][a]``, the class of u·a."""
        index = {u: i for i, u in enumerate(ideal)}
        classes = closed_classes([[index[w] for w in self.left[u]] for u in ideal])
        class_of = {ideal[i]: c for c, L in enumerate(classes) for i in L}
        return classes, [[class_of[w] for w in self.out[ideal[L[0]]]] for L in classes]

    def semigroup(self) -> ASemigroup:
        """The expansion as a semigroup (element i = vertex i+1).

        Multiplication follows the second factor's word through the graph,
        one edge per letter, so multiplying by a generator is one step.
        """
        g, words = self.graph, self.words
        gens = [w - 1 for w in g.out[g.root]]
        return ASemigroup(g.n - 1, gens, list(g.alphabet),
                          lambda i, j: g.follow(i + 1, words[j + 1]) - 1, g.labels[1:])


def karnofsky_rhodes(S: ASemigroup) -> KRExpansion:
    """The expansion of S, stored on S: later calls return the same object.
    A build that passes ``KR_CAP`` vertices raises and stores nothing."""
    if S._kr is not None:
        return S._kr
    rcay = right_cayley(S)
    comp = sccs(rcay)
    trans = transition_edges(rcay, comp)
    k = S.n_gens

    crosses = [[(v, a) in trans for a in range(k)] for v in range(rcay.n)]
    key0 = (rcay.root, frozenset())
    index: dict[tuple[int, frozenset], int] = {key0: 0}
    keys = [key0]
    parent: list[int | None] = [None]
    parent_gen: list[int | None] = [None]
    out: list[list[int | None]] = [[None] * k]

    head = 0
    while head < len(keys):
        v = head
        head += 1
        rv, tset = keys[v]
        row, cross = rcay.out[rv], crosses[rv]
        for a in range(k):
            key = (row[a], tset | {(rv, a)} if cross[a] else tset)
            w = index.get(key)
            if w is None:
                if len(keys) >= KR_CAP:
                    raise SizeCapExceeded(
                        f"Karnofsky-Rhodes expansion of a semigroup with "
                        f"|S| = {S.size} exceeded cap {KR_CAP} vertices"
                    )
                w = len(keys)
                index[key] = w
                keys.append(key)
                parent.append(v)
                parent_gen.append(a)
                out.append([None] * k)
            out[v][a] = w

    S._kr = KRExpansion(rcay, out, parent, parent_gen, [key[0] for key in keys])
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

    # on_path maps an input-graph vertex to the expansion vertex of the
    # current DFS path that ends there; next_gen holds, per path vertex,
    # the next generator to try
    on_path: dict[int, int] = {G.root: 0}
    path = [0]
    next_gen = [0]
    while path:
        v = path[-1]
        row, out_v = G.out[endpoint[v]], out[v]
        for a in range(next_gen[-1], k):
            u = row[a]
            if u is None:
                continue
            hit = on_path.get(u)
            if hit is not None:
                out_v[a] = hit  # back edge to an initial segment
                continue
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
            out_v[a] = w
            on_path[u] = w
            next_gen[-1] = a + 1
            path.append(w)
            next_gen.append(0)
            break
        else:
            path.pop()
            next_gen.pop()
            del on_path[endpoint[v]]

    return ExpansionTree(G, out, parent, parent_gen, endpoint)

