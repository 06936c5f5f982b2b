"""Karnofsky-Rhodes and McCammond expansions of rooted labelled graphs.

The Karnofsky-Rhodes expansion identifies two generator words iff they reach
the same element of the underlying semigroup *and* their paths in the right
Cayley graph cross the same set of transition edges.  The result is again a
right Cayley graph, so it carries a semigroup structure of its own.

The McCammond expansion of a deterministic rooted graph has one vertex per
simple path from the root; an edge either extends a simple path (tree edge)
or falls back to the unique initial segment ending at the target vertex
(back edge).  It is kept as an integer tree; its words and labelled graph
are built on demand.
"""

from __future__ import annotations

from functools import cached_property

from .core import ASemigroup, SizeCapExceeded, Word, label_sep
from .graphs import RootedLabeledGraph, graphs_isomorphic, right_cayley, sccs, transition_edges

DEFAULT_KR_CAP = 200_000
DEFAULT_MC_CAP = 1_000_000


class KRExpansion:
    """Karnofsky-Rhodes expansion: a rooted graph plus its semigroup view.

    Vertex i > 0 corresponds to semigroup element i-1 of ``semigroup()``.
    """

    def __init__(self, base, graph, words):
        self.base: ASemigroup = base
        self.graph: RootedLabeledGraph = graph
        self.words: list[Word] = words  # shortlex-first (BFS) word per vertex
        self._semigroup: ASemigroup | None = None

    def left_multiply(self, a: int, v: int) -> int:
        """Vertex of generator a times the element of vertex v."""
        start = self.graph.out[self.graph.root][a]
        return self.graph.follow(start, self.words[v])

    def semigroup(self) -> ASemigroup:
        """The expansion as a semigroup (element i = vertex i+1).

        Multiplication follows the second factor's word through the graph,
        one edge per letter, so multiplying by a generator is one step.
        """
        if self._semigroup is None:
            g = self.graph
            words = self.words

            def mult(i: int, j: int) -> int:
                return g.follow(i + 1, words[j + 1]) - 1

            gens = [g.out[g.root][a] - 1 for a in range(len(g.alphabet))]
            self._semigroup = ASemigroup(
                g.n - 1, gens, list(g.alphabet), mult, g.labels[1:]
            )
        return self._semigroup


def karnofsky_rhodes(S: ASemigroup, cap: int = DEFAULT_KR_CAP) -> KRExpansion:
    rcay = right_cayley(S)
    comp = sccs(rcay)
    trans = transition_edges(rcay, comp)
    k = S.n_gens

    crosses = [[(v, a) in trans for a in range(k)] for v in range(rcay.n)]
    key0 = (rcay.root, frozenset())
    index: dict[tuple[int, frozenset], int] = {key0: 0}
    keys = [key0]
    words: list[Word] = [()]
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
                if len(keys) >= cap:
                    raise SizeCapExceeded(
                        f"Karnofsky-Rhodes expansion of a semigroup with "
                        f"|S| = {S.size} exceeded cap {cap} vertices"
                    )
                w = len(keys)
                index[key] = w
                keys.append(key)
                words.append(words[v] + (a,))
                out.append([None] * k)
            out[v][a] = w

    labels = _word_labels(S.gen_names, rcay.labels[rcay.root], words)
    images = [None] + [rcay.s_image[key[0]] for key in keys[1:]]
    graph = RootedLabeledGraph(S.gen_names, labels, out, images)
    return KRExpansion(S, graph, words)


def _word_labels(names, root_label: str, words: list[Word]) -> list[str]:
    """Root label, then each word's printable form, as ``ASemigroup.word_label``."""
    sep = label_sep(names)
    return [root_label] + [sep.join([names[g] for g in w]) for w in words[1:]]


class McExpansion:
    """McCammond expansion as an integer tree over the simple paths.

    Vertex v > 0 extends the path ``parent[v]`` by the letter
    ``parent_gen[v]`` and ends at ``endpoint[v]`` of the input graph;
    ``out`` holds the tree edges and the back edges to initial segments.
    """

    def __init__(self, base_graph, out, parent, parent_gen, endpoint):
        self.base_graph: RootedLabeledGraph = base_graph
        self.out: list[list[int | None]] = out
        self.parent: list[int | None] = parent
        self.parent_gen: list[int | None] = parent_gen
        self.endpoint: list[int] = endpoint  # vertex of the input graph

    def word(self, v: int) -> Word:
        """The tree-path word of vertex v."""
        letters = []
        while v:
            letters.append(self.parent_gen[v])
            v = self.parent[v]
        return tuple(reversed(letters))

    @cached_property
    def graph(self) -> RootedLabeledGraph:
        """The expansion as a labelled graph, built on first use."""
        G = self.base_graph
        words: list[Word] = [()]
        for p, a in zip(self.parent[1:], self.parent_gen[1:]):
            words.append(words[p] + (a,))  # parents come before children
        labels = _word_labels(G.alphabet, G.labels[G.root], words)
        images = [G.s_image[u] for u in self.endpoint]
        return RootedLabeledGraph(G.alphabet, labels, self.out, images)

    @property
    def tree_edges(self) -> set[tuple[int, int]]:
        return set(zip(self.parent[1:], self.parent_gen[1:]))

    @property
    def back_edges(self) -> set[tuple[int, int]]:
        return {(v, a) for v, row in enumerate(self.out) for a, w in enumerate(row)
                if w is not None and (self.parent[w], self.parent_gen[w]) != (v, a)}


def mccammond(G: RootedLabeledGraph, cap: int = DEFAULT_MC_CAP) -> McExpansion:
    """Expand a deterministic rooted graph over its simple paths.

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
            if w >= cap:
                raise SizeCapExceeded(
                    f"McCammond expansion of a graph with {G.n} vertices "
                    f"exceeded cap {cap} simple paths"
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

    return McExpansion(G, out, parent, parent_gen, endpoint)


def is_mc_stable(S: ASemigroup, kr: KRExpansion | None = None) -> bool:
    """True iff the Karnofsky-Rhodes expansion has unique simple paths.

    Equivalently, the McCammond expansion adds no vertices.
    """
    if kr is None:
        kr = karnofsky_rhodes(S)
    try:
        mc = mccammond(kr.graph, cap=kr.graph.n)
    except SizeCapExceeded:
        return False
    return len(mc.out) == kr.graph.n


def is_stable1(S: ASemigroup) -> bool:
    """True iff expanding changes nothing at all: the expansion graph is
    label-isomorphic to the right Cayley graph and has unique simple paths."""
    kr = karnofsky_rhodes(S)
    if not is_mc_stable(S, kr):
        return False
    return graphs_isomorphic(kr.graph, right_cayley(S))
