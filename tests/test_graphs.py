import random

import pytest

from semiwalk import families
from semiwalk.core import (
    minimal_ideal,
    semigroup_from_table,
    semigroup_from_transformations,
)
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.graphs import (
    closed_classes,
    right_cayley,
    sccs,
    to_dot,
    transition_edges,
)

from reference import adjoin_zero, graphs_isomorphic, opposite


def test_right_cayley_klein(klein):
    g = right_cayley(klein)
    assert g.n == 5
    trans = transition_edges(g)
    assert trans == {(0, 0), (0, 1)}  # exactly the two edges out of the root


def test_right_cayley_p3(p3):
    g = right_cayley(p3)
    assert g.n == 8


def test_right_cayley_trivial():
    S = semigroup_from_table([[0]], gens=[0], gen_names=["e"])
    g = right_cayley(S)
    assert g.n == 2
    assert g.out[0][0] == 1 and g.out[1][0] == 1


def test_out_degree_equals_alphabet(p3, b2, klein, z2x01, counterexample):
    for S in (p3, b2, klein, z2x01, counterexample):
        g = right_cayley(S)
        for v in range(g.n):
            assert sum(w is not None for w in g.out[v]) == S.n_gens


def test_root_edges_always_transitional(p3, b2, klein, z2x01, counterexample):
    for S in (p3, b2, klein, z2x01, counterexample):
        g = right_cayley(S)
        trans = transition_edges(g)
        for a in range(S.n_gens):
            assert (g.root, a) in trans


# the left Cayley graph, edges s -> a*s, is the right Cayley graph of the
# opposite semigroup


def test_left_cayley_commutative_matches_right(p3):
    assert graphs_isomorphic(right_cayley(opposite(p3)), right_cayley(p3))


def test_left_cayley_zero_absorbs(b2):
    g = right_cayley(opposite(b2))
    zero_vertex = g.s_image.index(b2.element_names().index("□"))
    for a in range(b2.n_gens):
        assert g.out[zero_vertex][a] == zero_vertex


def test_left_cayley_z2x01_edge(z2x01):
    g = right_cayley(opposite(z2x01))
    names = z2x01.element_names()
    v11 = g.s_image.index(names.index("(1,1)"))
    vz1 = g.s_image.index(names.index("(z,1)"))
    assert g.out[v11][1] == vz1  # b * (1,1) = (z,1)


def test_sccs_klein(klein):
    g = right_cayley(klein)
    comp = sccs(g)
    assert comp[0] == 0  # root alone, first
    assert len({comp[v] for v in range(1, 5)}) == 1


def test_sccs_trivial_on_trees(p3):
    g = right_cayley(p3)
    comp = sccs(g)
    assert len(set(comp)) == g.n  # only loops, all components singletons


def test_sccs_cycle():
    # cyclic group of order 4 on one generator: one non-root component
    table = [[(i + j + 1) % 4 for j in range(4)] for i in range(4)]
    S = semigroup_from_table(table, gens=[0], gen_names=["a"])
    g = right_cayley(S)
    comp = sccs(g)
    assert len(set(comp)) == 2
    assert transition_edges(g) == {(0, 0)}


def test_transition_edges_p3_all_nonloop(p3):
    g = right_cayley(p3)
    trans = transition_edges(g)
    nonloop = {(v, a) for v, a, w in g.edges() if v != w}
    assert trans == nonloop
    assert len(trans) == 12  # the covering edges of the subset lattice


def test_scc_matches_mutual_reachability(b2, z2x01, klein, counterexample):
    for S in (b2, z2x01, klein, counterexample):
        g = right_cayley(S)
        comp = sccs(g)
        reach = []
        for v in range(g.n):
            seen = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in g.out[u]:
                    if w is not None and w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach.append(seen)
        for v in range(g.n):
            for w in range(g.n):
                same = comp[v] == comp[w]
                assert same == (w in reach[v] and v in reach[w])


def test_isomorphism_detects_difference(p2, flipflop):
    assert graphs_isomorphic(right_cayley(p2), right_cayley(p2))
    assert not graphs_isomorphic(right_cayley(p2), right_cayley(flipflop))


def test_dot_output_deterministic_and_styled(klein):
    g = right_cayley(klein)
    d1 = to_dot(g)
    d2 = to_dot(right_cayley(klein))
    assert d1 == d2
    assert 'color="blue"' in d1  # transition edges styled
    assert d1.startswith("digraph G {")
    # loops dashed: the flip-flop has loops
    from semiwalk.families import flipflop as ff

    d3 = to_dot(right_cayley(ff()))
    assert 'style="dashed"' in d3


def test_closed_classes_small_graphs():
    # 0 -> 1 <-> 2, 0 -> 3 (loop), 4 -> 3; None entries are skipped
    succ = [[1, 3], [2, None], [1], [3], [3]]
    assert closed_classes(succ) == [[1, 2], [3]]
    assert closed_classes([[0]]) == [[0]]
    assert closed_classes([[1], [0]]) == [[0, 1]]


KR_IDEAL_CASES = [
    "tsetlin:3", "rees_zp:3,3", "rees_B:3", "flat_tower:2,2", "bar_tower:2,1",
    "signed_tsetlin:3", "burnside_straightline:3", "edge_flip_line:3", "z2x01",
    "klein", "rees_general", "flipflop", "adjoin_zero:z2x01", "adjoin_zero:klein",
    "adjoin_zero:rees_general", "adjoin_zero:tsetlin:3",
] + [f"random:{i}" for i in range(12)]


def _kr_ideal_case(name):
    if name.startswith("random:"):
        # a seeded 3-state, 3-generator transformation semigroup
        rng = random.Random(int(name[7:]))
        maps = {g: [rng.randrange(3) for _ in range(3)] for g in "abc"}
        return semigroup_from_transformations(3, maps)
    if name.startswith("adjoin_zero:"):
        return adjoin_zero(_kr_ideal_case(name[12:]))
    return families.build(families.parse_family(name))


@pytest.mark.parametrize("name", KR_IDEAL_CASES)
def test_closed_classes_of_expansion_are_its_minimal_ideal(name):
    # the expansion graph is the right Cayley graph of the expansion, so its
    # closed classes (minimal right ideals) make up its minimal ideal
    kr = karnofsky_rhodes(_kr_ideal_case(name))
    vertices = {v for cls in closed_classes(kr.graph) for v in cls}
    assert vertices == {e + 1 for e in minimal_ideal(kr.semigroup()).members}
