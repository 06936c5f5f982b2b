import random
from fractions import Fraction
from itertools import permutations

import pytest
from conftest import COUNTEREXAMPLE_MAPS, reference_words

from semiwalk import chains, stationary
from semiwalk.chains import build_chain, certify
from semiwalk.core import (
    IdealSet,
    SizeCapExceeded,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk import expansions
from semiwalk.expansions import karnofsky_rhodes, mccammond
from semiwalk.graphs import RootedLabeledGraph, right_cayley
from semiwalk.kleene import (
    DivergentStar,
    Letter,
    concat,
    evaluate_expr,
    pretty,
    series,
    star,
    union,
)
from semiwalk.stationary import (
    StationaryEngine,
    expressions_report,
    normalization_check,
    parse_probs,
    stationary_kr,
    stationary_s,
    uniform_probs,
)
from semiwalk import families

from reference import (
    NotACodeWord,
    adjoin_zero,
    enumerate_words,
    is_code_word,
    lump_by_classifier,
    r_trivial_stationary,
    semaphore_left_action,
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


def nf_words(S, ideal=None):
    """The engine's normal forms as their tree-path words, in its order."""
    engine = StationaryEngine(S, ideal)
    return [engine.mc.words[nf.mc_vertex] for nf in engine.normal_forms]


def test_normal_forms_tsetlin(p3):
    words = {p3.word_label(w) for w in nf_words(p3)}
    assert words == {"".join(str(a + 1) for a in pi) for pi in permutations(range(3))}


def test_normal_forms_b2(b2):
    assert [b2.word_label(w) for w in nf_words(b2)] == ["aa", "abb", "baa", "bb"]


def test_normal_forms_quotient(z2x01_quotient):
    assert [z2x01_quotient.word_label(w) for w in nf_words(z2x01_quotient)] == ["a", "ba", "bba"]


def test_normal_forms_custom_ideal(p3):
    # target the ideal of subsets of size >= 2: entry happens at the second
    # letter, so the forms are the ordered pairs
    names = p3.element_names()
    members = {e for e, nm in enumerate(names) if len(nm) >= 2}
    labels = [p3.word_label(w) for w in nf_words(p3, IdealSet(members))]
    assert labels == ["12", "13", "21", "23", "31", "32"]


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
    words = engine.mc.words
    e = engine.expression(next(nf for nf in engine.normal_forms
                               if words[nf.mc_vertex] == (0, 1, 2)))
    # first letter occurs before any loop; value matches the direct formula
    x = [F(1, 2), F(1, 3), F(1, 6)]
    assert evaluate_expr(e, x) == families.hendricks(x, (0, 1, 2))
    assert pretty(e, p3.gen_names).startswith("11⋆2")


def test_expression_values_match_engine(b2, p3, z2x01_quotient):
    for S, xs in ((b2, HALF), (p3, [F(1, 2), F(1, 3), F(1, 6)]),
                  (z2x01_quotient, X25)):
        engine = StationaryEngine(S)
        vals = engine.values(xs)
        for nf in engine.normal_forms:
            e = engine.expression(nf)
            assert evaluate_expr(e, xs) == vals[nf.mc_vertex]


def _brute_force_walk_series(engine, nf, xs, max_len):
    """Weights of ideal-avoiding walks onto nf, graded by length."""
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
        engine = StationaryEngine(S)
        for nf in engine.normal_forms:
            e = engine.expression(nf)
            truncated = series(e, xs, depth)
            brute = _brute_force_walk_series(engine, nf, xs, depth)
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
    onto = r.key_info["aa" + z].kr_vertex
    engine = StationaryEngine(S2)
    assert [engine.mc.words[nf.mc_vertex] for nf in engine.normal_forms
            if nf.kr_vertex == onto] == [(0, 0, 2), (0, 1, 2)]  # aa|ab
    assert normalization_check(r)


def test_limit_mode_alt_labels(z2x01):
    r = stationary_kr(z2x01, HALF)
    z = "□"
    assert r.key_info["a"].alt_label == "a" + z
    assert r.key_info["aa"].alt_label == "aa" + z


def test_limit_reproduces_direct_when_left_zero(b2, p3, flipflop, counterexample):
    # the limit adjoins a zero to the tower's 7,319 elements, multiplying
    # by the relations where a table would hold 7,320^2 entries
    tower = families.build(families.parse_family("bar_tower:2,2"))
    for S, xs in ((b2, HALF), (p3, [F(1, 2), F(1, 3), F(1, 6)]),
                  (flipflop, X25), (tower, uniform_probs(tower)),
                  (counterexample, uniform_probs(counterexample))):
        direct = stationary_kr(S, xs)
        limit = stationary_kr(S, xs, force_limit=True)
        # the same states, named alike and in the same order
        assert list(direct.entries.items()) == list(limit.entries.items())


def test_states_are_named_by_the_first_word_of_their_vertex(counterexample):
    # Not MC-stable: 64 vertices, some reached by several normal forms.
    S = counterexample
    r = stationary_kr(S, uniform_probs(S))
    kr = karnofsky_rhodes(S)
    assert len(r.entries) == 64
    onto = {}  # the normal forms reaching each vertex
    engine = StationaryEngine(S)
    for nf in engine.normal_forms:
        onto.setdefault(nf.kr_vertex, []).append(engine.mc.words[nf.mc_vertex])
    assert any(len(onto[ki.kr_vertex]) > 1 for ki in r.key_info.values())
    for label, ki in r.key_info.items():
        assert ki.word == kr.words[ki.kr_vertex]
        assert label == S.word_label(ki.word)
        assert ki.word == min(onto[ki.kr_vertex], key=lambda w: (len(w), w))
    words = [ki.word for ki in r.key_info.values()]
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
    assert r.key_info["a"].alt_label == "a" + z
    assert r.key_info["ab"].alt_label == "ab" + z


def test_lump_by_classifier_total(b2):
    r = stationary_kr(b2, HALF)
    lumped = lump_by_classifier(r, lambda info: "all")
    assert dict(lumped.entries) == {"all": F(1)}


def test_normalization_check_negative():
    from semiwalk.stationary import StationaryResult

    bad = StationaryResult("kr", {"x": F(1, 2), "y": F(1, 3)})
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
    engine = StationaryEngine(S)
    xs = uniform_probs(S)
    vals = engine.values(xs)
    for nf in engine.normal_forms:
        assert evaluate_expr(engine.expression(nf), xs) == vals[nf.mc_vertex]


def test_tree_pass_rejects_back_edge_to_non_ancestor(p3):
    engine = StationaryEngine(p3)
    g, parent = engine.mc.graph, engine.mc.parent
    live = set(engine.live)

    def ancestors(v):
        while v is not None:
            yield v
            v = parent[v]

    v, a = next(
        (v, a) for v in engine.live for a, w in enumerate(g.out[v])
        if w in live and parent[w] != v
    )
    stranger = next(u for u in engine.live if u not in set(ancestors(v)))
    g.out[v][a] = stranger
    with pytest.raises(AssertionError):
        engine.values(uniform_probs(p3))


def test_tree_pass_rejects_ideal_entry_off_the_tree(p3):
    # an edge into the ideal must be the tree edge to the normal form it
    # creates: point one at another vertex's normal form instead
    engine = StationaryEngine(p3)
    out, parent = engine.mc.out, engine.mc.parent
    in_ideal = engine._in_ideal
    v, a = next((v, a) for v in engine.live for a, w in enumerate(out[v])
                if in_ideal[w])
    out[v][a] = next(nf.mc_vertex for nf in engine.normal_forms
                     if parent[nf.mc_vertex] != v)
    with pytest.raises(AssertionError, match="normal form"):
        engine.values(uniform_probs(p3))


@pytest.mark.parametrize("name, force_limit", [
    ("counterexample", False), ("counterexample", True), ("z2x01", False),
])
def test_stationary_kr_builds_no_mc_labelled_graph(name, force_limit, monkeypatch):
    # the counterexample's expansion has 194 simple paths over 109 vertices;
    # z2x01 runs in limit mode.  On a fresh semigroup the law, the chain and
    # the certificate (its chain, then its action on the chain's classes)
    # read one expansion, and the only labelled graph built is the right
    # Cayley graph it expands: none for KR, none for MC.
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
    result = stationary_kr(S, xs, force_limit=force_limit)
    build_chain(S, xs)
    assert certify(S, xs, result)
    assert len(krs) == 4 and all(kr is krs[0] for kr in krs)
    assert len(built) == 1
    rcay = right_cayley(S)
    assert (built[0].labels, built[0].out, built[0].s_image) == (
        rcay.labels, rcay.out, rcay.s_image)


def test_tree_pass_raises_divergent_star(b2):
    # weights that do not sum to 1 give some vertex a loop weight >= 1
    engine = StationaryEngine(b2)
    with pytest.raises(DivergentStar):
        engine.values([F(1), F(1)])


# -- expressions against plain state elimination -----------------------------------


def reference_expression(engine, nf):
    """State elimination over every live vertex, for one normal form.

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
    """Walk sums onto the normal forms, one reduction per live vertex.

    In reverse creation order each live vertex v sums its exits, keyed by
    the ancestor-or-self they reach: its back-edge letters, then each live
    child's exits times the child's step.  The part that comes back to v is
    R_v, and v's step is its letter's weight times 1/(1 - R_v).  Top-down,
    a vertex's sum is its parent's times its step, and a normal form's is
    its parent's times its letter.  The engine shares one reduction between
    subtrees of equal shape and must give the same sums.
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
    return {nf.mc_vertex: prefix[parent[nf.mc_vertex]] * xs[parent_gen[nf.mc_vertex]]
            for nf in engine.normal_forms}


# the benchmark's direct-mode ladder, all but its largest rung
@pytest.mark.parametrize("name", [
    "tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
    "flat_tower:3,2", "counterexample",
])
def test_values_equal_per_vertex_reference(name):
    S = (semigroup_from_transformations(5, COUNTEREXAMPLE_MAPS)
         if name == "counterexample" else families.build(families.parse_family(name)))
    engine = StationaryEngine(S)
    xs = uniform_probs(S)
    assert engine.values(xs) == reference_values(engine, xs)


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
        engine = StationaryEngine(S)
        assert engine.values(xs) == reference_values(engine, xs)
        checked += 1
        unstable += len(engine.mc.out) > len(engine.kr.out)
    assert unstable > 0


@pytest.mark.parametrize("name, shapes, live", [
    ("flat_tower:2,2", 12, 110), ("bar_tower:2,2", 31, 3660),
])
def test_equal_subtrees_share_one_reduction(name, shapes, live):
    engine = StationaryEngine(families.build(families.parse_family(name)))
    engine.values(uniform_probs(engine.S))
    assert (len(engine._shapes()[1]), len(engine.live)) == (shapes, live)


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
    engine = StationaryEngine(S)
    assert len(engine.normal_forms) > 1
    for nf in engine.normal_forms:
        got = engine.expression(nf)
        want = reference_expression(engine, nf)
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
    engine = StationaryEngine(S)
    expressions_report(S, engine)
    expressions_report(S, engine)
    assert calls == [True]
    engine.values(uniform_probs(S))
    assert calls == [True, False]
    StationaryEngine(S).expression(engine.normal_forms[0])
    assert calls == [True, False, True]
