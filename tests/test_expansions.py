import random
from collections import Counter

import pytest
from conftest import reference_kr, reference_words

from semiwalk import core, expansions, families
from semiwalk.core import (
    ClosureTooLarge,
    SizeCapExceeded,
    bar,
    flat,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk.expansions import karnofsky_rhodes, kr_size, mccammond
from semiwalk.graphs import (
    RootedLabeledGraph,
    closed_classes,
    right_cayley,
    sccs,
    to_dot,
)
from semiwalk.stationary import StationaryEngine

from reference import (
    back_edges,
    frozenset_kr,
    graphs_isomorphic,
    is_mc_stable,
    is_stable1,
)


def test_kr_vertex_counts(klein, flipflop, p3):
    assert karnofsky_rhodes(klein).graph.n == 9
    assert karnofsky_rhodes(flipflop).graph.n == 4
    assert karnofsky_rhodes(p3).graph.n == 16


def test_kr_flipflop_two_zero_vertices(flipflop):
    kr = karnofsky_rhodes(flipflop)
    v_direct = kr.graph.follow(0, (0,))
    v_via_one = kr.graph.follow(0, (1, 0))
    assert v_direct != v_via_one
    assert kr.graph.s_image[v_direct] == kr.graph.s_image[v_via_one] == 0


def test_mc_vertex_counts(klein, p3):
    kr = karnofsky_rhodes(klein)
    mc = mccammond(kr.graph)
    assert mc.graph.n == 15
    words = {mc.graph.labels[v] for v in range(mc.graph.n)}
    assert words == {
        "\U0001d7d9", "a", "b", "aa", "aab", "aaba", "ab", "aba", "abab",
        "ba", "bab", "baba", "bb", "bba", "bbab",
    }
    kr3 = karnofsky_rhodes(p3)
    assert mccammond(kr3.graph).graph.n == kr3.graph.n


def test_mc_of_tree_is_same_tree():
    # hand-built rooted binary tree of depth 2, edges labelled a/b
    out = [[1, 2], [3, 4], [None, None], [None, None], [None, None]]
    g = RootedLabeledGraph(["a", "b"], ["r", "x", "y", "u", "v"], out, [None] * 5)
    mc = mccammond(g)
    assert mc.graph.n == g.n
    assert not back_edges(mc)
    assert graphs_isomorphic(mc.graph, g)


def test_mc_tree_and_back_edge_invariants(klein, b2, z2x01):
    for S in (klein, b2, z2x01):
        mc = mccammond(karnofsky_rhodes(S).graph)
        g = mc.graph
        # tree edges form a spanning tree: each non-root vertex has one parent
        assert all(mc.parent[v] is not None for v in range(1, g.n))
        for v, a in mc.tree_edges:
            assert g.out[v][a] is not None
        # back edges land on ancestors (initial segments)
        for v, a in back_edges(mc):
            w = g.out[v][a]
            anc = v
            seen = set()
            while anc is not None:
                seen.add(anc)
                anc = mc.parent[anc]
            assert w in seen
        # determinism and completeness mirror the input
        for v in range(g.n):
            assert sum(w is not None for w in g.out[v]) == S.n_gens


def test_mc_projection_commutes(klein, b2):
    for S in (klein, b2):
        mc = mccammond(karnofsky_rhodes(S).graph)
        g = mc.graph
        for v, a, w in g.edges():
            ev = g.s_image[v]
            expected = S.gens[a] if ev is None else S.mult(ev, S.gens[a])
            assert g.s_image[w] == expected


def test_kr_projection_commutes(klein, b2, z2x01):
    for S in (klein, b2, z2x01):
        kr = karnofsky_rhodes(S)
        g = kr.graph
        for v, a, w in g.edges():
            ev = g.s_image[v]
            expected = S.gens[a] if ev is None else S.mult(ev, S.gens[a])
            assert g.s_image[w] == expected


def test_kr_idempotent(klein, b2, p3, flipflop, z2x01):
    for S in (klein, b2, p3, flipflop, z2x01):
        kr = karnofsky_rhodes(S)
        again = karnofsky_rhodes(kr.semigroup())
        assert graphs_isomorphic(kr.graph, again.graph)


def test_kr_multiply(klein, flipflop, b2):
    # right multiplication by a word follows it through the expansion graph
    krk = karnofsky_rhodes(klein)
    for word in ((0,), (0, 1), (1, 1, 0)):
        assert krk.graph.s_image[krk.graph.follow(0, word)] == klein.product(word)
    # the bottom component of the a-branch is closed: a2b * a lands on ab
    v_aab = krk.graph.follow(0, (0, 0, 1))
    v_ab = krk.graph.follow(0, (0, 1))
    assert krk.graph.follow(v_aab, (0,)) == v_ab
    comp = sccs(krk.graph)
    assert comp[v_aab] == comp[v_ab]

    krf = karnofsky_rhodes(flipflop)
    v1 = krf.graph.follow(0, (1,))
    lower0 = krf.graph.follow(v1, (0,))
    upper0 = krf.graph.follow(0, (0,))
    assert lower0 != upper0


def test_stability_flags(b2, z2x01, p3, flipflop, klein):
    assert is_mc_stable(b2)
    assert not is_mc_stable(z2x01)
    assert is_mc_stable(p3)
    assert is_mc_stable(flipflop) and not is_stable1(flipflop)
    assert not is_stable1(klein)
    assert is_stable1(karnofsky_rhodes(p3).semigroup())


def test_kr_is_right_cayley_graph(klein, b2, z2x01, flipflop):
    # the expansion's own semigroup regenerates exactly the same graph,
    # and that semigroup is genuinely associative
    for S in (klein, b2, z2x01, flipflop):
        kr = karnofsky_rhodes(S)
        T = kr.semigroup()
        T.check_associative()
        assert graphs_isomorphic(right_cayley(T), kr.graph)


def test_counterexample_regression(counterexample):
    S = counterexample
    assert not is_mc_stable(S)
    mc = mccammond(karnofsky_rhodes(S).graph)
    g = mc.graph
    w = (0, 1, 2)  # a1 a2 a3
    c = (3,)
    assert g.follow(0, w) == g.follow(0, w + w)
    assert g.follow(0, c + w) != g.follow(0, c + w + w)


def test_bar_of_expanded_subsets_shape(p2):
    # a copy of the graph hangs under every vertex through the reset edge
    base = karnofsky_rhodes(p2).semigroup()
    B = bar(base)
    kr = karnofsky_rhodes(B)
    assert kr.graph.n == 30  # 5 original vertices + 5 hanging copies of 5
    assert is_mc_stable(B)


def test_flat_subsets_has_unique_paths(p2):
    assert is_mc_stable(flat(p2))


def test_mc_size_cap(z2x01, monkeypatch):
    kr = karnofsky_rhodes(z2x01)
    monkeypatch.setattr(expansions, "MC_CAP", 3)
    with pytest.raises(SizeCapExceeded, match=f"McCammond expansion of a graph "
                       f"with {kr.graph.n} vertices exceeded cap 3 "):
        mccammond(kr.graph)


def test_kr_size_cap_names_stage_and_size(monkeypatch):
    monkeypatch.setattr(expansions, "KR_CAP", 3)
    with pytest.raises(SizeCapExceeded, match=r"Karnofsky-Rhodes expansion of "
                       r"a semigroup with \|S\| = 4 exceeded cap 3 "):
        karnofsky_rhodes(families.z2x01())


def test_kr_cap_failure_stores_nothing(monkeypatch):
    # a build that raises stores nothing; later calls return the stored
    # expansion, whatever the cap is then
    S = families.z2x01()
    message = r"Karnofsky-Rhodes expansion of a semigroup with \|S\| = 4 exceeded cap"
    monkeypatch.setattr(expansions, "KR_CAP", 3)
    with pytest.raises(SizeCapExceeded, match=message + " 3 "):
        karnofsky_rhodes(S)
    assert S._kr is None
    monkeypatch.undo()
    kr = karnofsky_rhodes(S)
    n = len(kr.out)
    assert n == reference_kr(S)[0].n
    assert karnofsky_rhodes(S) is kr
    monkeypatch.setattr(expansions, "KR_CAP", n - 1)
    assert karnofsky_rhodes(S) is kr


def test_dot_export_marks_back_edges(b2):
    mc = mccammond(karnofsky_rhodes(b2).graph)
    text = to_dot(mc.graph, tree=mc.tree_edges)
    assert 'color="red"' in text and 'style="dashed"' in text
    assert text == to_dot(mccammond(karnofsky_rhodes(b2).graph).graph,
                          tree=mc.tree_edges)


# -- vertex order and words of the integer tree ------------------------------------

# the twelve families, each at a small desk-scale parameter
FAMILY_CASES = [
    "tsetlin:4", "signed_tsetlin:3", "edge_flip_line:3", "rees_B:3",
    "rees_zp:3,2", "rees_general", "klein", "flipflop", "z2x01",
    "burnside_straightline:4", "bar_tower:2,1", "flat_tower:2,1",
]


def _random_draws(count, seed=2017):
    """Seeded 4-state, 3-map semigroups with |S| <= 120.  Draws whose
    Karnofsky-Rhodes or McCammond expansion passes 2,000 or 5,000 vertices
    are skipped, so the test stays fast."""
    rng = random.Random(seed)
    draws = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "CLOSURE_CAP", 120)
        mp.setattr(expansions, "KR_CAP", 2000)
        mp.setattr(expansions, "MC_CAP", 5000)
        while len(draws) < count:
            maps = {g: [rng.randrange(4) for _ in range(4)] for g in "abc"}
            try:
                S = semigroup_from_transformations(4, maps)
                mccammond(karnofsky_rhodes(S).graph)
            except (ClosureTooLarge, SizeCapExceeded):
                continue
            draws.append(S)
    return draws


def _order_cases(name, request):
    if name == "counterexample":
        return [request.getfixturevalue("counterexample")]
    if name == "random":
        draws = _random_draws(24)
        assert sum(not is_mc_stable(S) for S in draws) > len(draws) // 2
        return draws
    return [families.build(families.parse_family(name))]


@pytest.mark.parametrize("name", FAMILY_CASES + ["counterexample", "random"])
def test_mc_vertex_order_is_word_order(name, request):
    for S in _order_cases(name, request):
        mc = mccammond(karnofsky_rhodes(S).graph)
        words = reference_words(mc)
        assert words == sorted(words)
        assert mc.words == words
        nf_words = [nf.word for nf in StationaryEngine(S).normal_forms]
        assert nf_words == sorted(nf_words)


@pytest.mark.parametrize("name", FAMILY_CASES + ["counterexample", "random"])
def test_kr_tree_matches_eager_construction(name, request):
    for S in _order_cases(name, request):
        kr = karnofsky_rhodes(S)
        ref, words = reference_kr(S)
        n, k = ref.n, S.n_gens
        assert kr.out == ref.out
        assert kr.words == words
        assert kr.graph.labels == ref.labels
        assert kr.graph.s_image == ref.s_image
        for v in range(n):
            for a in range(k):
                assert kr.left[v][a] == ref.follow(ref.out[0][a], words[v])
        T = kr.semigroup()
        assert (T.size, T.gen_names) == (n - 1, S.gen_names)
        assert T.gens == [w - 1 for w in ref.out[0]]
        assert T.element_names() == ref.labels[1:]
        assert [[T.mult(i, j) for j in range(n - 1)] for i in range(n - 1)] == [
            [ref.follow(i + 1, words[j + 1]) - 1 for j in range(n - 1)]
            for i in range(n - 1)
        ]


# the benchmark's direct-mode ladder
LADDER = ["tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
          "flat_tower:3,2", "flat_tower:2,3"]


def assert_copies_equal_the_frozenset_build(S):
    """The build copy by copy gives the same arrays as the one keyed by sets
    of transition edges, its vertex count is ``kr_size``'s, and its copies
    are what it says: each vertex lies over its copy's component, and the
    one edge into a copy from outside is the tree edge to its entry, its
    first vertex, from an earlier copy."""
    kr = karnofsky_rhodes(S)
    assert (kr.out, kr.parent, kr.parent_gen, kr.endpoint) == frozenset_kr(S)
    assert kr_size(S) == len(kr.out)
    comp = S.right_components()
    copy_of = kr.copy_of
    first: dict[int, int] = {}
    for v, c in enumerate(copy_of):
        first.setdefault(c, v)
    entry = list(first.values())
    assert (copy_of[0], entry[0]) == (0, 0)
    assert list(first) == list(range(len(entry)))
    assert all(copy_of[kr.parent[w]] < c for c, w in enumerate(entry) if c)
    for v, image in enumerate(kr.s_image[1:], 1):
        assert comp[image] == comp[kr.s_image[entry[copy_of[v]]]]
    for v, row in enumerate(kr.out):
        for a, w in enumerate(row):
            if copy_of[w] != copy_of[v]:
                assert w == entry[copy_of[w]] and (kr.parent[w], kr.parent_gen[w]) == (v, a)


@pytest.mark.parametrize("name", LADDER + ["z2x01", "klein", "rees_general"])
def test_kr_copies_equal_the_frozenset_build(name):
    assert_copies_equal_the_frozenset_build(families.build(families.parse_family(name)))


def test_kr_copies_equal_the_frozenset_build_on_random_draws(monkeypatch):
    # 100 draws of 4 or 5 states and 2 or 3 maps with |S| <= 300
    monkeypatch.setattr(expansions, "KR_CAP", 20_000)
    rng = random.Random(25)
    checked = 0
    while checked < 100:
        n, k = rng.choice([4, 5]), rng.choice([2, 3])
        S = semigroup_from_transformations(
            n, {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]})
        if S.size > 300:
            continue
        try:
            assert_copies_equal_the_frozenset_build(S)
        except SizeCapExceeded:
            continue
        checked += 1


def _closed_class_vertices(kr):
    """The reference for the expansion's minimal ideal: the union of the
    closed classes of its whole right action."""
    return sorted(v for cls in closed_classes(kr.out) for v in cls)


@pytest.mark.parametrize("name", [
    "tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
    "flat_tower:3,2", "flat_tower:2,3", "rees_general", "z2x01", "klein",
    "tsetlin:5", "rees_B:6", "burnside_straightline:3",
])
def test_expansion_ideal_by_image_on_the_ladder(name):
    S = families.build(families.parse_family(name))
    kr = karnofsky_rhodes(S)
    assert kr.ideal == _closed_class_vertices(kr)


def test_expansion_ideal_by_image_on_random_draws(monkeypatch):
    # 3- to 5-state draws of 2 or 3 maps, 60 whose minimal ideal is left
    # zero (direct mode) and 60 whose is not (limit mode); a draw whose
    # expansion passes 20,000 vertices is passed over to keep the test quick
    monkeypatch.setattr(expansions, "KR_CAP", 20_000)
    rng = random.Random(20)
    modes = Counter()
    while min(modes[True], modes[False]) < 60:
        n, k = rng.choice([3, 4, 5]), rng.choice([2, 3])
        S = semigroup_from_transformations(
            n, {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]})
        direct = kernel_is_left_zero(S, minimal_ideal(S))
        if modes[direct] >= 60 or S.size > 300:
            continue
        try:
            kr = karnofsky_rhodes(S)
        except SizeCapExceeded:
            continue
        assert kr.ideal == _closed_class_vertices(kr)
        modes[direct] += 1


@pytest.mark.parametrize("name", ["bar_tower:2,2", "bar_tower:3,1", "flat_tower:2,3",
                                  "flat_tower:3,2"])
def test_expansion_hands_its_search_to_its_semigroup(name, monkeypatch):
    # every level a tower builds through semigroup() (these top corners
    # build the lower levels on their way) gets the expansion's own right
    # action, discovery order, words and R-classes, equal to a fresh search
    # over its multiplication, and names its elements as the graph does
    built = []
    semigroup = expansions.KRExpansion.semigroup

    def spy(kr):
        built.append((kr, semigroup(kr)))
        return built[-1][1]
    monkeypatch.setattr(expansions.KRExpansion, "semigroup", spy)
    families.build(families.parse_family(name))
    assert built
    for kr, T in built:
        handed = T.right_action(), T.right_components()
        assert T.element_names() == kr.graph.labels[1:]
        T._right_action = T._components = None
        assert (T.right_action(), T.right_components()) == handed
