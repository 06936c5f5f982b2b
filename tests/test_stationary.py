import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from conftest import COUNTEREXAMPLE_MAPS, reference_words

from semiwalk import chains, stationary
from semiwalk.chains import build_chain, certify
from semiwalk.core import (
    SizeCapExceeded,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk import expansions
from semiwalk.expansions import karnofsky_rhodes, mccammond
from semiwalk.graphs import RootedLabeledGraph
from semiwalk.specio import load_spec
from semiwalk.kleene import (
    DivergentStar,
    Letter,
    concat,
    evaluate_expr,
    node_count,
    pretty,
    series,
    star,
    union,
    zimin_rewrite,
)
from semiwalk.stationary import (
    StationaryEngine,
    expressions_report,
    normalization_check,
    parse_probs,
    stationary_kr,
    stationary_s,
    uniform_probs,
    zero_limit_names,
)
from semiwalk import families

from reference import (
    NotACodeWord,
    TreeEngine,
    adjoin_zero,
    enumerate_words,
    is_code_word,
    kr_key_info,
    kr_limit_law,
    kr_vertex,
    lump_by_classifier,
    r_trivial_stationary,
    s_key_info,
    semaphore_left_action,
    tree_law,
    tree_pretty,
    tree_zimin_rewrite,
    values_by_vertex,
    wide_band,
    word_sorted_kr_result,
)

F = Fraction
HALF = [F(1, 2), F(1, 2)]
X25 = [F(2, 5), F(3, 5)]


# -- probabilities ---------------------------------------------------------------


def test_parse_probs(b2):
    assert parse_probs("a=1/2, b=1/2", b2) == HALF
    with pytest.raises(Exception):
        parse_probs("a=1/2", b2)
    with pytest.raises(Exception):
        parse_probs("a=1/2,b=1/3", b2)
    with pytest.raises(Exception):
        parse_probs("a=0,b=1", b2)


# -- semaphore machinery -----------------------------------------------------------


def test_code_words(p3, b2):
    I3 = minimal_ideal(p3)
    assert is_code_word(p3, (0, 2, 1), I3)
    assert not is_code_word(p3, (0, 2), I3)
    assert not is_code_word(p3, (0, 1, 2, 0), I3)
    Ib = minimal_ideal(b2)
    assert is_code_word(b2, (0, 0), Ib)


def test_semaphore_left_action_examples(p3, b2, z2x01_quotient):
    I3 = minimal_ideal(p3)
    # prepending 2 to 132 enters the ideal at 213
    assert semaphore_left_action(p3, (0, 2, 1), 1, I3) == (1, 0, 2)
    Sq = z2x01_quotient
    Iq = minimal_ideal(Sq)
    # b.(b b^{2k} a) extends the run of b's
    assert semaphore_left_action(Sq, (1, 0), 1, Iq) == (1, 1, 0)
    assert semaphore_left_action(Sq, (1, 1, 0), 1, Iq) == (1, 1, 1, 0)
    # a.s truncates immediately
    assert semaphore_left_action(Sq, (1, 1, 0), 0, Iq) == (0,)
    with pytest.raises(NotACodeWord):
        semaphore_left_action(p3, (0, 1), 0, I3)


# -- normal forms ------------------------------------------------------------------


def nf_words(S):
    """The engine's normal forms as their words, in its order."""
    return [nf.word for nf in StationaryEngine(S).normal_forms]


def tree_values_by_word(S, xs):
    """The McCammond-tree reference's walk sum per normal form, by word."""
    ref = TreeEngine(S)
    vals = ref.values(xs)
    return {ref.mc.words[nf.mc_vertex]: vals[nf.mc_vertex] for nf in ref.normal_forms}


def test_normal_forms_equal_the_tree_reference(b2, p3, z2x01, counterexample):
    # the same words in the same order, each onto the same vertex
    for S in (b2, p3, z2x01, adjoin_zero(z2x01), counterexample):
        ref = TreeEngine(S)
        assert [(nf.word, kr_vertex(ref.kr, nf.word))
                for nf in StationaryEngine(S).normal_forms] == [
            (ref.mc.words[nf.mc_vertex], nf.kr_vertex) for nf in ref.normal_forms]


def test_normal_forms_tsetlin(p3):
    words = {p3.word_label(w) for w in nf_words(p3)}
    assert words == {"".join(str(a + 1) for a in pi) for pi in permutations(range(3))}


def test_normal_forms_b2(b2):
    assert [b2.word_label(w) for w in nf_words(b2)] == ["aa", "abb", "baa", "bb"]


def test_normal_forms_quotient(z2x01_quotient):
    assert [z2x01_quotient.word_label(w) for w in nf_words(z2x01_quotient)] == ["a", "ba", "bba"]


def test_normal_forms_adjoined_zero(z2x01):
    S2 = adjoin_zero(z2x01)
    labels = [S2.word_label(w) for w in nf_words(S2)]
    z = "□"
    assert labels == sorted(
        [z, "a" + z, "aa" + z, "ab" + z, "b" + z, "bb" + z, "ba" + z,
         "baa" + z, "bab" + z, "bba" + z, "bbaa" + z, "bbab" + z]
    )


# -- expressions -------------------------------------------------------------------


def test_b2_expressions(b2):
    report = expressions_report(b2)
    assert report == {
        "aa": "a(ba)⋆a",
        "abb": "ab(ab)⋆b",
        "baa": "ba(ba)⋆a",
        "bb": "b(ab)⋆b",
    }


def test_quotient_expressions(z2x01_quotient):
    report = expressions_report(z2x01_quotient)
    assert report == {"a": "a", "ba": "b(bb)⋆a", "bba": "bb(bb)⋆a"}


def test_tsetlin_expression_structure(p3):
    engine = StationaryEngine(p3)
    e = engine.expression(next(nf for nf in engine.normal_forms
                               if nf.word == (0, 1, 2)))
    # first letter occurs before any loop; value matches the direct formula
    x = [F(1, 2), F(1, 3), F(1, 6)]
    assert evaluate_expr(e, x) == families.hendricks(x, (0, 1, 2))
    assert pretty(e, p3.gen_names).startswith("11⋆2")


def assert_expressions_evaluate_to_the_sums(S, xs):
    """Each form's expression evaluates to the reference's walk sum onto
    it, and they add up to the engine's mass per vertex."""
    engine, kr = StationaryEngine(S), karnofsky_rhodes(S)
    want = tree_values_by_word(S, xs)
    masses = {}
    for nf in engine.normal_forms:
        value = evaluate_expr(engine.expression(nf), xs)
        assert value == want[nf.word]
        u = kr_vertex(kr, nf.word)
        masses[u] = masses.get(u, 0) + value
    assert masses == values_by_vertex(S, engine, xs)


def test_expression_values_match_engine(b2, p3, z2x01_quotient):
    for S, xs in ((b2, HALF), (p3, [F(1, 2), F(1, 3), F(1, 6)]),
                  (z2x01_quotient, X25)):
        assert_expressions_evaluate_to_the_sums(S, xs)


def _brute_force_walk_series(engine, nf, xs, max_len):
    """Weights of ideal-avoiding walks onto nf, graded by length, on the
    McCammond tree of the reference ``engine``."""
    g = engine.mc.graph
    out = [F(0)] * (max_len + 1)
    target = nf.mc_vertex
    stack = [(0, F(1), 0)]
    while stack:
        v, w, depth = stack.pop()
        if depth >= max_len:
            continue
        for a, u in enumerate(g.out[v]):
            if u is None:
                continue
            piece = w * xs[a]
            if u == target:
                out[depth + 1] += piece
            elif engine._in_ideal[u]:  # normal forms included
                continue
            else:
                stack.append((u, piece, depth + 1))
    return out


def test_expression_series_exact_to_length_12(b2, z2x01_quotient, p3):
    fixtures = [
        (b2, HALF, 12),
        (z2x01_quotient, X25, 12),
        (p3, [F(1, 2), F(1, 3), F(1, 6)], 12),
    ]
    for S, xs, depth in fixtures:
        engine, ref = StationaryEngine(S), TreeEngine(S)
        for nf, ref_nf in zip(engine.normal_forms, ref.normal_forms, strict=True):
            assert nf.word == ref.mc.words[ref_nf.mc_vertex]
            truncated = series(engine.expression(nf), xs, depth)
            brute = _brute_force_walk_series(ref, ref_nf, xs, depth)
            assert truncated == brute


def test_expression_words_are_code_words(b2):
    engine = StationaryEngine(b2)
    I = minimal_ideal(b2)
    for nf in engine.normal_forms:
        words = enumerate_words(engine.expression(nf), 9)
        assert all(c == 1 for c in words.values())  # unambiguous
        for w in words:
            assert is_code_word(b2, w, I)


# -- stationary distributions -------------------------------------------------------


def test_stationary_b2(b2):
    r = stationary_kr(b2, HALF)
    assert dict(r.entries) == {
        "aa": F(1, 3), "abb": F(1, 6), "baa": F(1, 6), "bb": F(1, 3)
    }
    assert normalization_check(r)
    xa, xb = X25
    r2 = stationary_kr(b2, X25)
    assert r2["aa"] == xa * xa / (1 - xa * xb)
    assert r2["abb"] == xa * xb * xb / (1 - xa * xb)


def test_stationary_quotient_closed_forms(z2x01_quotient):
    xa, xb = X25
    r = stationary_kr(z2x01_quotient, X25)
    assert r["a"] == xa
    assert r["ba"] == xa * xb / (1 - xb * xb)
    assert r["bba"] == xa * xb * xb / (1 - xb * xb)
    assert normalization_check(r)


def test_stationary_tsetlin(p3):
    uniform = uniform_probs(p3)
    r = stationary_kr(p3, uniform)
    assert all(v == F(1, 6) for v in r.entries.values())
    x = [F(1, 2), F(1, 3), F(1, 6)]
    r2 = stationary_kr(p3, x)
    assert r2["123"] == F(1, 3)
    for pi in permutations(range(3)):
        label = "".join(str(a + 1) for a in pi)
        assert r2[label] == families.hendricks(x, pi)


def test_stationary_s_tsetlin_is_degenerate(p3):
    # the walk on the subsets themselves is absorbed at the full set
    r = stationary_s(p3, uniform_probs(p3))
    assert dict(r.entries) == {"123": F(1)}


def test_stationary_s_on_expanded_semigroup(p3):
    # the walk on the expanded semigroup has the arrangement states
    S = karnofsky_rhodes(p3).semigroup()
    x = [F(1, 2), F(1, 3), F(1, 6)]
    r = stationary_s(S, x)
    assert len(r.entries) == 6
    for pi in permutations(range(3)):
        label = "".join(str(a + 1) for a in pi)
        assert r[label] == families.hendricks(x, pi)


def test_limit_mode_z2x01(z2x01):
    xa, xb = X25
    r = stationary_kr(z2x01, X25)
    c = xa * xb / (2 * (1 - xb * xb))
    assert dict(r.entries) == {
        "a": xa / 2, "aa": xa / 2, "ba": c, "baa": c,
        "bba": c * xb, "bbaa": c * xb,
    }
    assert normalization_check(r)
    rs = stationary_s(z2x01, X25)
    assert dict(rs.entries) == {"(1,0)": F(1, 2), "(z,0)": F(1, 2)}


def test_adjoined_zero_table_at_concrete_weight(z2x01):
    # direct run on the enlarged semigroup at zero weight 1/10; nine classes,
    # two normal forms merging into one class at depths 2 and deeper
    t = F(1, 10)
    a0, b0 = X25
    xa, xb, xz = a0 * (1 - t), b0 * (1 - t), t
    S2 = adjoin_zero(z2x01)
    r = stationary_kr(S2, [xa, xb, xz])
    z = "□"
    s = xa + xb
    big = 1 - s * s
    small = 1 - xb * xb
    want = {
        z: xz,
        "a" + z: xa * xz / big,
        "aa" + z: xa * s * xz / big,
        "b" + z: xb * xz / small,
        "bb" + z: xb * xb * xz / small,
        "ba" + z: xa * xb * xz / (small * big),
        "baa" + z: xa * s * xb * xz / (small * big),
        "bba" + z: xa * xb * xb * xz / (small * big),
        "bbaa" + z: xa * s * xb * xb * xz / (small * big),
    }
    assert dict(r.entries) == want
    onto = kr_key_info(S2, r)["aa" + z].kr_vertex
    engine = StationaryEngine(S2)
    assert [nf.word for nf in engine.normal_forms
            if kr_vertex(karnofsky_rhodes(S2), nf.word) == onto] == [(0, 0, 2), (0, 1, 2)]  # aa|ab
    assert normalization_check(r)


def test_limit_mode_alt_labels(z2x01):
    r = stationary_kr(z2x01, HALF)
    z = "□"
    alt = zero_limit_names(z2x01)
    assert list(alt) == list(r.entries)
    assert alt["a"] == "a" + z
    assert alt["aa"] == "aa" + z


def test_limit_reproduces_direct_when_left_zero(b2, p3, flipflop, counterexample):
    # on a left-zero minimal ideal the closed form is the walk that applies
    # no factor: each ideal copy's first-entry mass, named through the
    # expansion; the tower has 7,319 elements
    tower = families.build(families.parse_family("bar_tower:2,2"))
    for S, xs in ((b2, HALF), (p3, [F(1, 2), F(1, 3), F(1, 6)]),
                  (flipflop, X25), (tower, uniform_probs(tower)),
                  (counterexample, uniform_probs(counterexample))):
        assert kernel_is_left_zero(S, minimal_ideal(S))
        law = stationary_kr(S, xs)
        walk = word_sorted_kr_result(karnofsky_rhodes(S), values_by_vertex(S, StationaryEngine(S), xs))
        # the same states, named alike and in the same order
        assert list(law.entries.items()) == list(walk.entries.items())


def test_states_are_named_by_the_first_word_of_their_vertex(counterexample):
    # Not MC-stable: 64 vertices, some reached by several normal forms.
    S = counterexample
    r = stationary_kr(S, uniform_probs(S))
    kr = karnofsky_rhodes(S)
    assert len(r.entries) == 64
    onto = {}  # the normal forms reaching each vertex
    engine = StationaryEngine(S)
    for nf in engine.normal_forms:
        onto.setdefault(kr_vertex(kr, nf.word), []).append(nf.word)
    info = kr_key_info(S, r)
    assert any(len(onto[ki.kr_vertex]) > 1 for ki in info.values())
    for label, ki in info.items():
        assert ki.word == kr.words[ki.kr_vertex]
        assert label == S.word_label(ki.word)
        assert ki.word == min(onto[ki.kr_vertex], key=lambda w: (len(w), w))
    words = [ki.word for ki in info.values()]
    assert words == sorted(words)


def test_rees_limit(tmp_path):
    S = families.rees_general()
    xa, xb = X25
    r = stationary_kr(S, X25)
    assert r["a"] == xa * xa / 2
    assert r["ab"] == xa * xb / 2
    assert r["aba"] == xa * xa / 2
    assert r["abab"] == xa * xb / 2
    assert r["b"] == xb * xb / 2
    assert r["bab"] == xb * xb / 2
    assert normalization_check(r)
    z = "□"
    alt = zero_limit_names(S)
    assert alt["a"] == "a" + z
    assert alt["ab"] == "ab" + z


def test_lump_by_classifier_total(b2):
    r = stationary_kr(b2, HALF)
    lumped = lump_by_classifier(b2, r, lambda info: "all")
    assert dict(lumped.entries) == {"all": F(1)}


def test_normalization_check_negative():
    from semiwalk.stationary import StationaryResult

    bad = StationaryResult({"x": F(1, 2), "y": F(1, 3)})
    assert not normalization_check(bad)


def test_hendricks_product_up_to_n4():
    for n in (2, 3, 4):
        S = families.tsetlin(n)
        weights = [F(2 ** (n - i)) for i in range(n)]
        total = sum(weights)
        xs = [w / total for w in weights]
        r = stationary_kr(S, xs)
        for pi in permutations(range(n)):
            label = "".join(str(a + 1) for a in pi)
            assert r[label] == families.hendricks(xs, pi)


def test_r_trivial_product_formula(p3, flipflop):
    fixtures = [
        (p3, [F(1, 2), F(1, 3), F(1, 6)]),
        (flipflop, X25),
        (families.flat_tower(2, 1), [F(1, 6), F(1, 3), F(1, 2)]),
    ]
    for S, xs in fixtures:
        closed = r_trivial_stationary(S, xs)
        r = stationary_kr(S, xs)
        assert dict(r.entries) == closed


@pytest.mark.parametrize("name", ["flat_tower:2,2", "rees_zp:2,3", "rees_B:3"])
def test_tree_pass_matches_elimination(name):
    # the tree pass over Kleene weights, evaluated, must give the same walk
    # sums as over Fractions, also with back edges past the parent
    S = families.build(families.parse_family(name))
    assert_expressions_evaluate_to_the_sums(S, uniform_probs(S))


def _ancestors(engine, v):
    while v is not None:
        yield v
        v = engine.parent[v]


def test_tree_pass_rejects_back_edge_to_non_ancestor(p3):
    engine = StationaryEngine(p3)
    out, parent = engine.out, engine.parent
    v, a = next((v, a) for v, row in enumerate(out) for a, w in enumerate(row)
                if w is not None and parent[w] != v)
    stranger = next(u for u in range(len(out)) if u not in set(_ancestors(engine, v)))
    out[v][a] = stranger
    with pytest.raises(AssertionError, match="off the tree path"):
        engine.values(uniform_probs(p3))


def test_tree_pass_rejects_ideal_entry_off_the_tree(p3):
    # an edge into the ideal leaves its component, so no tree holds it:
    # point one at another tree's entry instead
    engine = StationaryEngine(p3)
    ideal, rows = minimal_ideal(p3), p3.right_action()[0]
    v, a = next((v, a) for v in range(1, len(engine.out)) for a in range(p3.n_gens)
                if rows[engine.elem[v]][a] in ideal)
    assert engine.out[v][a] is None
    engine.out[v][a] = next(t for t in engine.tree_of.values()
                            if t not in set(_ancestors(engine, v)))
    with pytest.raises(AssertionError, match="off the tree path"):
        engine.values(uniform_probs(p3))


# the second value once forced the closed form, which every law now takes
@pytest.mark.parametrize("name, force_limit", [
    ("counterexample", False), ("counterexample", True), ("z2x01", False),
])
def test_stationary_kr_builds_no_mc_labelled_graph(name, force_limit, monkeypatch):
    # the counterexample's expansion has 194 simple paths over 109 vertices;
    # z2x01 runs in limit mode.  On a fresh semigroup the chain builds the
    # expansion, the law in either mode and the certificate none (the
    # action on the chain's classes is the chain's), and no labelled graph
    # is built: the expansion reads S's right action, not the right Cayley
    # graph, and none for KR or MC.
    S = (semigroup_from_transformations(5, COUNTEREXAMPLE_MAPS)
         if name == "counterexample" else families.z2x01())
    xs = uniform_probs(S)
    built, krs = [], []
    init = RootedLabeledGraph.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spy(module):
        fn = module.karnofsky_rhodes

        def wrapped(*args, **kwargs):
            krs.append(fn(*args, **kwargs))
            return krs[-1]
        monkeypatch.setattr(module, "karnofsky_rhodes", wrapped)

    monkeypatch.setattr(RootedLabeledGraph, "__init__", counted_init)
    spy(stationary)
    spy(chains)
    result = stationary_kr(S, xs)
    # the law does not read the expansion: only the chain builds it
    assert krs == []
    assert certify(result, build_chain(S, xs))
    assert len(krs) == 1
    assert built == []


def test_tree_pass_raises_divergent_star(b2):
    # weights that do not sum to 1 give some vertex a loop weight >= 1
    engine = StationaryEngine(b2)
    with pytest.raises(DivergentStar):
        engine.values([F(1), F(1)])


# -- expressions against plain state elimination -----------------------------------


def reference_expression(engine, nf):
    """State elimination over every live vertex of the McCammond-tree
    reference ``engine``, for one of its normal forms.

    Vertices off the target's root path go first (deepest first, ties by
    path word), then the path from the root outward; the pieces on an edge
    are united in elimination order.  The engine shares the off-path part
    between forms and must give the same trees.
    """
    g, parent = engine.mc.graph, engine.mc.parent
    target = nf.mc_vertex
    geodesic = []
    v = parent[target]
    while v is not None and v != 0:
        geodesic.append(v)
        v = parent[v]
    geodesic.reverse()
    geo_set = set(geodesic)

    def acc(d, k, e):
        d[k] = e if k not in d else union(d[k], e)

    live = set(engine.live)
    out = {v: {} for v in engine.live}
    inc = {v: {} for v in engine.live}
    for v in engine.live:
        for a, w in enumerate(g.out[v]):
            if w in live or w == target:
                acc(out[v], w, Letter(a))
                if w in live:
                    acc(inc[w], v, Letter(a))

    words = reference_words(engine.mc)
    off = sorted(
        (v for v in engine.live if v != 0 and v not in geo_set),
        key=lambda u: (-len(words[u]), words[u]),
    )
    for v in off + geodesic:
        loop = out[v].pop(v, None)
        inc[v].pop(v, None)
        mid = [star(loop)] if loop is not None else []
        ins, outs = inc.pop(v), out.pop(v)
        for u in ins:
            out[u].pop(v, None)
        for w in outs:
            if w in inc:
                inc[w].pop(v, None)
        for u, eu in ins.items():
            for w, ew in outs.items():
                piece = concat(eu, *mid, ew)
                acc(out[u], w, piece)
                if w in inc:
                    acc(inc[w], u, piece)
    return out[0][target]


def reference_values(engine, xs):
    """Walk sums onto the normal forms of the McCammond-tree reference
    ``engine``, one reduction per live vertex, added per expansion vertex.

    In reverse creation order each live vertex v sums its exits, keyed by
    the ancestor-or-self they reach: its back-edge letters, then each live
    child's exits times the child's step.  The part that comes back to v is
    R_v, and v's step is its letter's weight times 1/(1 - R_v).  Top-down,
    a vertex's sum is its parent's times its step, and a normal form's is
    its parent's times its letter.  The engine shares one reduction between
    subtrees of equal shape, cuts the tree at component entries, and must
    give the same sums.
    """
    out, parent, parent_gen = engine.mc.out, engine.mc.parent, engine.mc.parent_gen
    in_ideal = engine._in_ideal
    step, exits = {}, {}
    for v in reversed(engine.live):
        ex = {}
        for a, w in enumerate(out[v]):
            if w is None or in_ideal[w]:
                continue
            if parent[w] == v and parent_gen[w] == a:
                for u, e in exits.pop(w).items():
                    ex[u] = ex.get(u, 0) + step[w] * e
            else:
                ex[w] = ex.get(w, 0) + xs[a]
        loop = ex.pop(v, 0)
        assert loop < 1
        step[v] = (1 if v == 0 else xs[parent_gen[v]]) / (1 - F(loop))
        exits[v] = ex
    assert exits.pop(0) == {}
    prefix = {0: step[0]}
    for v in engine.live[1:]:
        prefix[v] = prefix[parent[v]] * step[v]
    masses = {}
    for nf in engine.normal_forms:
        f = nf.mc_vertex
        masses[nf.kr_vertex] = masses.get(nf.kr_vertex, 0) + prefix[parent[f]] * xs[parent_gen[f]]
    return masses


@pytest.mark.parametrize("name", [
    "tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
    "flat_tower:3,2", "flat_tower:2,3",
])
def test_expansion_vertex_order_is_shortlex_and_states_are_lex(name):
    # the breadth-first search runs in letter order, so vertex order is the
    # shortlex order of the words; the law lists its states in the
    # lexicographic order of their words, which differs from it wherever
    # ideal words have several lengths (every rung but the Tsetlin ones)
    S = families.build(families.parse_family(name))
    words = karnofsky_rhodes(S).words
    assert all((len(u), u) < (len(w), w) for u, w in zip(words, words[1:]))
    result = stationary_kr(S, uniform_probs(S))
    listed = [info.word for info in kr_key_info(S, result).values()]
    assert listed == sorted(listed)


# the benchmark's direct-mode ladder, all but its largest rung
@pytest.mark.parametrize("name", [
    "tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
    "flat_tower:3,2", "counterexample",
])
def test_values_equal_per_vertex_reference(name):
    S = (semigroup_from_transformations(5, COUNTEREXAMPLE_MAPS)
         if name == "counterexample" else families.build(families.parse_family(name)))
    xs = uniform_probs(S)
    assert values_by_vertex(S, StationaryEngine(S), xs) == reference_values(TreeEngine(S), xs)


def test_values_equal_per_vertex_reference_on_random_draws(monkeypatch):
    # 4- and 5-state draws of 2 or 3 maps with |S| <= 150, at random
    # rational weights; a draw whose McCammond expansion passes 20,000
    # simple paths is passed over to keep the test quick
    monkeypatch.setattr(expansions, "MC_CAP", 20_000)
    rng = random.Random(17)
    checked = unstable = 0
    while checked < 52:
        n, k = rng.choice([4, 5]), rng.choice([2, 3])
        maps = {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]}
        S = semigroup_from_transformations(n, maps)
        if S.size > 150:
            continue
        try:
            mccammond(karnofsky_rhodes(S))
        except SizeCapExceeded:
            continue
        ints = [rng.randint(1, 9) for _ in range(k)]
        xs = [F(i, sum(ints)) for i in ints]
        ref = TreeEngine(S)
        assert values_by_vertex(S, StationaryEngine(S), xs) == reference_values(ref, xs)
        checked += 1
        unstable += len(ref.mc.out) > len(ref.kr.out)
    assert unstable > 0


# the tree vertices, against the expansion's 220, 7,320 and 97,240 vertices
@pytest.mark.parametrize("name, shapes, live", [
    ("flat_tower:2,2", 12, 20), ("bar_tower:2,2", 31, 3660),
    ("flat_tower:2,3", 56, 440),
])
def test_equal_subtrees_share_one_reduction(name, shapes, live):
    S = families.build(families.parse_family(name))
    engine = StationaryEngine(S)
    engine.values(uniform_probs(S))
    assert (len(engine._shapes()[1]), len(engine.out)) == (shapes, live)


def _random_draw(seed):
    rng = random.Random(seed)
    while True:
        maps = {g: [rng.randrange(3) for _ in range(3)] for g in "abc"}
        S = semigroup_from_transformations(3, maps)
        if 7 <= S.size <= 13:
            return S


# flat_tower:2,2 and bar_tower:2,1 tell a wrong union order apart: merging a
# vertex's children before its back-edge letters changes most of their trees
ELIMINATION_CASES = [
    "signed_tsetlin:4", "rees_zp:4,4", "flat_tower:2,2", "bar_tower:2,1",
    "rees_zp:2,3", "rees_B:3", "burnside_straightline:3", "edge_flip_line:3",
    "tsetlin:4", "z2x01", "klein", "rees_general", "adjoin_zero:z2x01",
    "random:2017",
]


def _elimination_case(name):
    if name.startswith("adjoin_zero:"):
        return adjoin_zero(families.build(families.parse_family(name[12:])))
    if name.startswith("random:"):
        return _random_draw(int(name[7:]))
    return families.build(families.parse_family(name))


@pytest.mark.parametrize("name", ELIMINATION_CASES)
def test_expression_equals_state_elimination(name, monkeypatch):
    # compared before the star-of-union rewrite
    monkeypatch.setattr(stationary, "zimin_rewrite", lambda e: e)
    S = _elimination_case(name)
    engine, ref = StationaryEngine(S), TreeEngine(S)
    assert len(engine.normal_forms) > 1
    for nf, ref_nf in zip(engine.normal_forms, ref.normal_forms, strict=True):
        assert nf.word == ref.mc.words[ref_nf.mc_vertex]
        got = engine.expression(nf)
        want = reference_expression(ref, ref_nf)
        assert got == want
        assert pretty(got, S.gen_names) == pretty(want, S.gen_names)


def test_kleene_reduction_built_once_per_engine(monkeypatch):
    S = families.build(families.parse_family("flat_tower:2,2"))
    calls = []
    init = stationary._ShapeSums.__init__

    def counted(self, shapes, xs):
        calls.append(isinstance(xs[0], Letter))
        init(self, shapes, xs)

    monkeypatch.setattr(stationary._ShapeSums, "__init__", counted)
    expressions_report(S)
    expressions_report(S)
    assert calls == [True]
    engine = stationary._engine(S)
    engine.values(uniform_probs(S))
    assert calls == [True, False]
    StationaryEngine(S).expression(engine.normal_forms[0])
    assert calls == [True, False, True]


# the second value once forced the closed form, which every law now takes
@pytest.mark.parametrize("name,force", [("flat_tower:2,2", False), ("z2x01", False),
                                        ("tsetlin:3", True)])
def test_one_engine_per_semigroup(name, force, monkeypatch):
    # S stores its engine: laws at two weights, over either space, and the
    # expressions all read the one engine built on the first call
    built = []
    init = StationaryEngine.__init__

    def counted(self, S):
        built.append(S)
        init(self, S)
    monkeypatch.setattr(StationaryEngine, "__init__", counted)
    S = families.build(families.parse_family(name))
    k = S.n_gens
    weights = [F(i + 1, k * (k + 1) // 2) for i in range(k)]
    first = stationary_kr(S, uniform_probs(S))
    second = stationary_kr(S, weights)
    stationary_s(S, weights)
    report = expressions_report(S)
    assert built == [S] and first.entries != second.entries and report


def test_expression_cap_is_checked_before_the_rewrite(monkeypatch):
    # flat_tower:2,2's first normal form has 434 nodes before the rewrite
    S = families.build(families.parse_family("flat_tower:2,2"))
    engine = StationaryEngine(S)
    nf = engine.normal_forms[0]
    monkeypatch.setattr(stationary, "EXPRESSION_CAP", 434)
    engine.expression(nf)
    monkeypatch.setattr(stationary, "EXPRESSION_CAP", 433)
    monkeypatch.setattr(stationary, "zimin_rewrite", None)  # never reached
    with pytest.raises(SizeCapExceeded, match="with 434 nodes exceeded cap 433"):
        engine.expression(nf)


def test_node_count_counts_shared_nodes_at_each_place():
    ab = concat(Letter(0), Letter(1))
    assert node_count(ab) == 3
    assert node_count(star(union(ab, ab))) == 8


@pytest.mark.parametrize("name", ELIMINATION_CASES)
def test_rewrite_and_printer_equal_the_tree_walks(name, monkeypatch):
    # every normal form, the check workload's three --expressions families
    # among them: the walks over the DAG give the expressions and the text
    # of the walks over the tree
    monkeypatch.setattr(stationary, "zimin_rewrite", lambda e: e)
    S = _elimination_case(name)
    engine = StationaryEngine(S)
    for nf in engine.normal_forms:
        e = engine.expression(nf)
        got, want = zimin_rewrite(e), tree_zimin_rewrite(e)
        assert got == want
        assert pretty(got, S.gen_names) == tree_pretty(want, S.gen_names)


# the exact ladder, the limit fixtures, and a multi-character alphabet
KR_RESULT_CASES = [
    "tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
    "flat_tower:3,2", "flat_tower:2,3", "rees_general", "z2x01", "klein",
    "tsetlin:5", "rees_B:6", "band", "band_with_identity",
]


@pytest.mark.parametrize("name", KR_RESULT_CASES)
def test_kr_result_names_and_orders_as_the_sorted_words(name):
    # the law over the expansion: every ideal vertex a state, named and
    # ordered by its word as the expansion's tree gives it; the 300 letters
    # of the bands pass chr(255) and join with a middle dot
    if name.startswith("band"):
        S = wide_band(name == "band_with_identity")
    else:
        S = families.build(families.parse_family(name))
    xs = uniform_probs(S)
    got = stationary_kr(S, xs).entries
    assert list(got.items()) == list(kr_limit_law(S, xs).entries.items())


def _law_by_vertex(S, result):
    return {info.kr_vertex: result[label] for label, info in kr_key_info(S, result).items()}


def test_law_equals_tree_reference_on_random_draws(monkeypatch):
    # 4- and 5-state draws of 2 or 3 maps with |S| <= 150 at random rational
    # weights, 100 whose minimal ideal is left zero (checked against both
    # references) and 100 whose is not; a draw whose McCammond expansion
    # passes 20,000 simple paths is passed over
    monkeypatch.setattr(expansions, "MC_CAP", 20_000)
    rng = random.Random(25)
    modes, unstable = Counter(), 0
    while min(modes[True], modes[False]) < 100:
        n, k = rng.choice([4, 5]), rng.choice([2, 3])
        maps = {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]}
        ints = [rng.randint(1, 9) for _ in range(k)]
        S = semigroup_from_transformations(n, maps)
        direct = kernel_is_left_zero(S, minimal_ideal(S))
        if S.size > 150 or modes[direct] >= 100:
            continue
        try:
            ref = TreeEngine(S)
        except SizeCapExceeded:
            continue
        xs = [F(i, sum(ints)) for i in ints]
        got = stationary_kr(S, xs)
        assert normalization_check(got)
        for limit in {not direct, True}:
            assert _law_by_vertex(S, got) == tree_law(S, xs, limit)
        modes[direct] += 1
        unstable += len(ref.mc.out) > len(ref.kr.out)
    assert unstable >= 10


def test_limit_draw_past_the_mccammond_cap():
    # a McCammond tree over the whole expansion of this draw passes MC_CAP
    # (1,000,000 simple paths); CI runs verify on the same spec
    S = load_spec(str(Path(__file__).parent / "specs" / "maps4_s172.json"))
    assert S.size == 172 and not kernel_is_left_zero(S, minimal_ideal(S))
    xs = [F(1, 2), F(1, 3), F(1, 6)]
    result = stationary_kr(S, xs)
    engine = stationary._engine(S)
    assert (len(engine.tree_of), len(engine.out)) == (57, 11_186)
    assert len(result.entries) == 2_496 and normalization_check(result)
    assert certify(result, build_chain(S, xs))


def test_mc_cap_counts_component_tree_vertices(monkeypatch):
    # flat_tower:2,2 has 20 tree vertices, the root's included
    S = families.build(families.parse_family("flat_tower:2,2"))
    monkeypatch.setattr(expansions, "MC_CAP", 20)
    assert len(StationaryEngine(S).out) == 20
    monkeypatch.setattr(expansions, "MC_CAP", 19)
    with pytest.raises(SizeCapExceeded, match=r"McCammond trees of the components "
                       r"of a semigroup with \|S\| = 39 exceeded cap 19 "):
        stationary_kr(S, uniform_probs(S))


# digests of the records of every state, over kr and over s, as the library
# built them when a law carried them; the reference rebuilds them from the
# expansion and, in limit mode, from zero_limit_names
KEY_INFO_DIGESTS = {
    ("flat_tower:3,2", False): (
        "14aea50e8326e13fc3a3da4b467f42a9a1404787d3a6e9ff7211a0e310bf0ef1",
        "c1494dd31e2782b7aba9c5d121f3477dc901081a846399b1a37bd6f54dfed1d7"),
    ("rees_zp:4,5", False): (
        "ef672d8f0c75a8625855402d31d01c31e30416aacd3f025fbc439c5014869fb7",
        "604a55caa83b71d1bd0915aee69e062a2cfba6a53951030392540c0576022aa0"),
    ("z2x01", False): (
        "8e602c62a3c3d7f0721b84deb4b5f1f27a22810c6dba241d427490d702eda7bc",
        "b7b680af88c98876c12f5ddbd1290f0d0b56a4a5e2c910076b227306d12ada44"),
    ("klein", False): (
        "febb033d89afcd2dbe3f4321ba1e4f40f8a6e003784f3b2ba2c9c14363c26576",
        "c0b038bd4b1cd8e70a4fb61b89aacb36335535b1e7a362c3c4107d50a1a407c5"),
    ("rees_general", False): (
        "6aa9c1fe64fac497ef9c411773004db1e1b3941d2a018ca326e465e761a89204",
        "54a98820eb92ab361c9686220b79d69a370d503091af3f4dbfff8613aa9d6654"),
    ("tsetlin:3", True): (
        "79ea6a0ec711703c758e397b30b11b03effb675e5d80d70a3a58a896915f8d1a",
        "b15efcc283fb01ef0931be47ecc3249c3cc3fc3965fc216f4188b67cc4d8d16e"),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("name,force", list(KEY_INFO_DIGESTS))
def test_reference_records_match_the_recorded_digests(name, force):
    # the records rebuilt from the expansion, the KR(S⁰) names of limit
    # mode among them, are the ones the library made
    S = families.build(families.parse_family(name))
    xs = uniform_probs(S)
    r_kr = stationary_kr(S, xs)
    r_s = stationary_s(S, xs)
    limit = force or not kernel_is_left_zero(S, minimal_ideal(S))
    alt = zero_limit_names(S) if limit else None
    want_kr, want_s = KEY_INFO_DIGESTS[name, force]
    assert _digest(list(kr_key_info(S, r_kr, alt).items())) == want_kr
    assert _digest(list(s_key_info(S, r_s).items())) == want_s


@pytest.mark.parametrize("name,want", [
    ("flat_tower:3,2", "06f9502e26ac673921ba1d5c97b93d39320b7d65bea82c3710ef59588889bad2"),
    ("rees_B:2", "fd7d95b41d8044e79b1456e3bec1a18a2108e3860d643ebcb7911f00132b83b2"),
    ("rees_zp:4,5", "c042cc935692be489415063b290ccffd5398b1432155d88b812492a90a1c55b5"),
])
def test_verify_lumping_classes_read_the_records(name, want):
    # the classes read off the records per chain state, as verify's lumping
    # check read them before, are the elements under the chain's own
    # vertices, which it reads now
    S = families.build(families.parse_family(name))
    xs = uniform_probs(S)
    r, chain = stationary_kr(S, xs), build_chain(S, xs)
    info = kr_key_info(S, r)
    classes = {lab: S.element_name(info[lab].element) for lab in chain.labels}
    assert _digest(list(classes.items())) == want
    image = karnofsky_rhodes(S).s_image
    assert classes == {lab: S.element_name(image[v])
                       for lab, v in zip(chain.labels, chain.states)}
