"""Rooted generator-labelled graphs: Cayley graphs, SCCs, closed classes,
transition edges.

The right Cayley graph is read off the one breadth-first search of a
semigroup's right action (``ASemigroup.right_action``): vertex 0 is the
adjoined identity and vertex i > 0 the i-th element discovered from the
generators in index order, so vertex numbering, SCC numbering and DOT
output are reproducible across runs.  On any right action (a semigroup's
table or an expansion graph) the closed classes are the minimal right
ideals, whose union is the minimal ideal; ``core.minimal_ideal`` reads
K(S) off S's stored component DAG instead, as the components it leaves out.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import ASemigroup

ROOT_LABEL = "\U0001d7d9"  # the adjoined identity


class RootedLabeledGraph:
    """Deterministic rooted graph: at most one out-edge per (vertex, label).

    ``out[v][a]`` is the head of the a-labelled edge out of v (None if
    absent).  ``s_image[v]`` is the underlying semigroup element of the
    vertex, None for the root, vertex 0.
    """

    root = 0

    def __init__(
        self,
        alphabet: Sequence[str],
        labels: list[str],
        out: list[list[int | None]],
        s_image: list[int | None],
    ):
        self.alphabet = list(alphabet)
        self.labels = labels
        self.out = out
        self.s_image = s_image

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (tail, generator index, head) in deterministic order."""
        for v, row in enumerate(self.out):
            for a, w in enumerate(row):
                if w is not None:
                    yield v, a, w

    def n_edges(self) -> int:
        return sum(1 for _ in self.edges())

    def follow(self, v: int, word: Sequence[int]) -> int:
        """Endpoint of the path labelled ``word`` starting at v."""
        for a in word:
            nxt = self.out[v][a]
            if nxt is None:
                raise KeyError(f"no edge labelled {self.alphabet[a]} at {self.labels[v]}")
            v = nxt
        return v


def right_cayley(S: ASemigroup) -> RootedLabeledGraph:
    """Right Cayley graph: vertices S with adjoined root, edges s -> s*a."""
    out, s_image = right_cayley_rows(S)
    labels = [ROOT_LABEL] + [S.element_name(e) for e in s_image[1:]]
    return RootedLabeledGraph(S.gen_names, labels, out, s_image)  # type: ignore[arg-type]


def right_cayley_rows(S: ASemigroup) -> tuple[list[list[int]], list[int | None]]:
    """The right Cayley graph's edge rows and vertex images, without its
    labels: vertices after the root are the elements in the search's
    discovery order, and their edges are its rows."""
    rows, order, _ = S.right_action()
    vertex = dict(zip(order, range(1, S.size + 1)))
    out = [[vertex[g] for g in S.gens]] + [[vertex[f] for f in rows[e]] for e in order]
    return out, [None, *order]


def sccs(G: RootedLabeledGraph | Sequence[Sequence[int | None]]) -> list[int]:
    """Strongly connected components, Tarjan-style, iterative.

    Takes a graph or its successor lists (None entries are skipped).
    Returns a component id per vertex; components are renumbered so that
    component ids increase with their smallest vertex index.
    """
    succ = G.out if isinstance(G, RootedLabeledGraph) else G
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    n_comp = 0

    for start in range(n):
        if index[start] != -1:
            continue
        work = [(start, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            row = succ[v]
            advanced = False
            while ei < len(row):
                w = row[ei]
                ei += 1
                if w is None:
                    continue
                if index[w] == -1:
                    work.append((v, ei))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    rank: dict[int, int] = {}  # by smallest contained vertex: first seen first
    for c in comp:
        rank.setdefault(c, len(rank))
    return [rank[c] for c in comp]


def closed_classes(succ: Sequence[Sequence[int | None]]) -> list[list[int]]:
    """The closed classes: strongly connected components with no edge out.

    Takes successor lists (None entries are skipped).  Each class lists its
    vertices in increasing order; classes come by smallest vertex.
    """
    comp = sccs(succ)
    closed = [True] * (max(comp, default=-1) + 1)
    for v, row in enumerate(succ):
        for w in row:
            if w is not None and comp[w] != comp[v]:
                closed[comp[v]] = False
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(comp):
        if closed[c]:
            classes.setdefault(c, []).append(v)
    return list(classes.values())


def transition_edges(G: RootedLabeledGraph) -> set[tuple[int, int]]:
    """Edges crossing between distinct SCCs, as (tail, generator) pairs.

    Loops are never transitional.
    """
    comp = sccs(G)
    result = set()
    for v, a, w in G.edges():
        if v != w and comp[v] != comp[w]:
            result.add((v, a))
    return result


def to_dot(G: RootedLabeledGraph, tree: set[tuple[int, int]] | None = None) -> str:
    """Render as the DOT digraph G, deterministically.

    Transitional edges are blue, loops dashed.  When a tree-edge set is
    given (expansion output), non-tree edges are dashed red.
    """
    transitional = transition_edges(G)
    lines = ["digraph G {"]
    for v in range(G.n):
        shape = ', shape=box' if v == G.root else ""
        lines.append(f'  v{v} [label={_dot_string(G.labels[v])}{shape}];')
    for v, a, w in G.edges():
        attrs = [f'label={_dot_string(G.alphabet[a])}']
        if (v, a) in transitional:
            attrs.append('color="blue"')
        if v == w:
            attrs.append('style="dashed"')
        elif tree is not None and (v, a) not in tree:
            attrs.append('style="dashed"')
            attrs.append('color="red"')
        lines.append(f"  v{v} -> v{w} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_string(text: str) -> str:
    """A DOT double-quoted string: backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
