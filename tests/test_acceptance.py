"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the report lines.
All equalities are exact rational identities unless a float tolerance is
stated explicitly.
"""

import math
import time
from fractions import Fraction
from itertools import permutations

import pytest

from semiwalk.chains import (
    build_chain,
    check_lumping,
    mixing_bound,
    stationary_oracle,
    tv_distance,
)
from semiwalk.core import minimal_ideal
from semiwalk.expansions import karnofsky_rhodes, mccammond
from semiwalk.graphs import right_cayley
from semiwalk.simulate import simulate_semaphore, simulate_state_at
from semiwalk.stationary import (
    expressions_report,
    normalization_check,
    stationary_kr,
    stationary_s,
    uniform_probs,
    zero_limit_names,
)
from semiwalk.families import (
    FamilySpec,
    build,
    edge_flip_action,
    edge_flip_closed_form,
    edge_flip_letter_probs,
    hendricks,
)

from reference import (
    SplitMix64,
    check_interior_lumping,
    is_mc_stable,
    lump_by_classifier,
    rees_quotient,
    truncated_semaphore_chain,
)

F = Fraction
HALF = [F(1, 2), F(1, 2)]
E_INV = math.exp(-1)


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS  ({text})")


def _random_exact(k, seed):
    rng = SplitMix64(seed)
    raw = [F(rng.next64() % 89 + 1) for _ in range(k)]
    return [v / sum(raw) for v in raw]


def test_criterion_1_tsetlin_reproduction():
    start = time.time()
    fixed = {
        3: [F(1, 2), F(1, 3), F(1, 6)],
        4: [F(1, 2), F(1, 4), F(1, 6), F(1, 12)],
    }
    for n in (3, 4):
        S = build(FamilySpec("tsetlin", {"n": n}))
        vectors = [uniform_probs(S), fixed[n], _random_exact(n, 1000 + n)]
        for xs in vectors:
            r = stationary_kr(S, xs)
            for pi in permutations(range(n)):
                label = "".join(str(a + 1) for a in pi)
                assert r[label] == hendricks(xs, pi)
            oracle = stationary_oracle(build_chain(S, xs))
            for k, v in r.entries.items():
                assert abs(float(v) - oracle[k]) < 1e-10
        # the walk on the expanded semigroup reproduces the same law
        expanded = karnofsky_rhodes(S).semigroup()
        rs = stationary_s(expanded, vectors[1])
        assert dict(rs.entries) == dict(
            stationary_kr(S, vectors[1]).entries
        )
    elapsed = time.time() - start
    assert elapsed < 5, f"took {elapsed:.2f}s"
    report(1, f"move-to-front law exact for n=3,4; oracle within 1e-10; {elapsed:.2f}s")


def test_criterion_2_b2_fixture():
    start = time.time()
    S = build(FamilySpec("rees_B", {"n": 2}))
    r = stationary_kr(S, HALF)
    assert dict(r.entries) == {
        "aa": F(1, 3), "abb": F(1, 6), "baa": F(1, 6), "bb": F(1, 3)
    }
    assert expressions_report(S) == {
        "aa": "a(ba)⋆a",
        "abb": "ab(ab)⋆b",
        "baa": "ba(ba)⋆a",
        "bb": "b(ab)⋆b",
    }
    elapsed = time.time() - start
    assert elapsed < 1, f"took {elapsed:.2f}s"
    report(2, f"exact values and expression strings; {elapsed:.2f}s")


def test_criterion_3_rees_limit():
    start = time.time()
    S = build(FamilySpec("rees_general", {}))
    xa, xb = F(2, 5), F(3, 5)
    r = stationary_kr(S, [xa, xb])
    z = "□"
    alt = zero_limit_names(S)
    by_alt = {alt[lab]: value for lab, value in r.entries.items()}
    assert by_alt["a" + z] == xa * xa / 2
    assert by_alt["ab" + z] == xa * xb / 2
    assert by_alt["aba" + z] == xa * xa / 2
    assert by_alt["abab" + z] == xa * xb / 2
    assert by_alt["b" + z] == xb * xb / 2
    assert by_alt["ba" + z] == xa * xb / 2
    assert by_alt["bab" + z] == xb * xb / 2
    assert by_alt["baba" + z] == xa * xb / 2
    assert normalization_check(r)
    elapsed = time.time() - start
    assert elapsed < 2, f"took {elapsed:.2f}s"
    report(3, f"adjoined-zero limit exact at (2/5, 3/5); {elapsed:.2f}s")


def test_criterion_4_edge_flipping():
    start = time.time()

    def lumped_pipeline(n, x):
        S = build(FamilySpec("edge_flip_line", {"n": n}))
        ys = edge_flip_letter_probs(n, x)
        r = stationary_kr(S, ys)

        def classify(info):
            pi = [int(S.gen_names[g]) for g in info.word]  # signed letters
            return "".join(map(str, edge_flip_action(pi, (0,) * (n + 1))))

        return lump_by_classifier(S, r, classify)

    for x in ([F(2, 5), F(3, 5)], [F(1, 4), F(3, 4)]):
        psi = lumped_pipeline(2, x)
        assert psi["000"] == F(1, 4) and psi["111"] == F(1, 4)
        assert psi["001"] == x[0] / 4 and psi["110"] == x[0] / 4
        assert psi["011"] == x[1] / 4 and psi["100"] == x[1] / 4
        assert "010" not in psi.entries and "101" not in psi.entries
        closed = edge_flip_closed_form(2, x)
        assert closed["010"] == 0 and closed["101"] == 0
        assert dict(psi.entries) == {k: v for k, v in closed.items() if v != 0}

    x3 = [F(1, 2), F(1, 3), F(1, 6)]
    psi3 = lumped_pipeline(3, x3)
    assert psi3["0010"] == x3[0] * x3[1] / (8 * (x3[1] + x3[2]))
    assert dict(psi3.entries) == {
        k: v for k, v in edge_flip_closed_form(3, x3).items() if v != 0
    }
    elapsed = time.time() - start
    assert elapsed < 5, f"took {elapsed:.2f}s"
    report(4, f"two-sided write chain exact for n=2,3; {elapsed:.2f}s")


def test_criterion_5_figure_counts():
    klein = build(FamilySpec("klein", {}))
    p3 = build(FamilySpec("tsetlin", {"n": 3}))
    ff = build(FamilySpec("flipflop", {}))
    kr_klein = karnofsky_rhodes(klein)
    assert kr_klein.graph.n == 9
    assert mccammond(kr_klein.graph).graph.n == 15
    assert right_cayley(p3).n == 8
    assert karnofsky_rhodes(p3).graph.n == 16
    assert karnofsky_rhodes(ff).graph.n == 4
    report(5, "all five expansion sizes match")


def test_criterion_6_normalization_everywhere():
    specs = (
        [FamilySpec("tsetlin", {"n": n}) for n in (2, 3, 4)]
        + [FamilySpec("signed_tsetlin", {"n": n}) for n in (1, 2, 3)]
        + [FamilySpec("rees_B", {"n": n}) for n in (2, 3, 4)]
        + [FamilySpec("rees_zp", {"n": n, "p": p})
           for n in (2, 3) for p in (2, 3)]
        + [FamilySpec("bar_tower", {"n": 2, "depth": d}) for d in (0, 1, 2)]
        + [FamilySpec("flat_tower", {"n": 2, "depth": d}) for d in (1, 2)]
        + [FamilySpec("burnside_straightline", {"n": n}) for n in (1, 2, 3, 4)]
    )
    seed = 7
    checked = 0
    for spec in specs:
        S = build(spec)
        k = S.n_gens
        weights = [F(2 ** (k - i)) for i in range(k)]
        vectors = [
            uniform_probs(S),
            [w / sum(weights) for w in weights],
            _random_exact(k, seed),
        ]
        seed += 1
        for xs in vectors:
            r = stationary_kr(S, xs)
            assert normalization_check(r), (spec, xs)
            checked += 1
    report(6, f"{checked} family/probability combinations sum to one exactly")


def test_criterion_7_lumping():
    fixtures = [
        ("tsetlin:3", FamilySpec("tsetlin", {"n": 3})),
        ("rees_B:2", FamilySpec("rees_B", {"n": 2})),
        ("rees_B:3", FamilySpec("rees_B", {"n": 3})),
        ("rees_zp:2,2", FamilySpec("rees_zp", {"n": 2, "p": 2})),
        ("flipflop", FamilySpec("flipflop", {})),
        ("klein", FamilySpec("klein", {})),
        ("z2x01", FamilySpec("z2x01", {})),
        ("signed_tsetlin:2", FamilySpec("signed_tsetlin", {"n": 2})),
        ("burnside:2", FamilySpec("burnside_straightline", {"n": 2})),
        ("flat_tower:1", FamilySpec("flat_tower", {"n": 2, "depth": 1})),
    ]
    for name, spec in fixtures:
        S = build(spec)
        k = S.n_gens
        xs = _random_exact(k, hash(name) % 10_000)
        T = build_chain(S, xs)
        kr = karnofsky_rhodes(S)
        classes = []
        for lab in T.labels:
            v = next(
                v for v in range(1, kr.graph.n)
                if S.word_label(kr.words[v]) == lab
            )
            classes.append(S.element_name(kr.graph.s_image[v]))
        assert check_lumping(T, classes), name

    z = build(FamilySpec("z2x01", {}))
    quotient = rees_quotient(z, minimal_ideal(z))
    for S in (build(FamilySpec("rees_B", {"n": 2})), quotient,
              build(FamilySpec("tsetlin", {"n": 3}))):
        xs = _random_exact(S.n_gens, S.size)
        T, interior, words = truncated_semaphore_chain(S, xs, 12)
        assert interior
        kr = karnofsky_rhodes(S)
        classes = {
            lab: S.word_label(kr.words[kr.graph.follow(0, w)])
            for lab, w in words.items()
        }
        assert check_interior_lumping(T, classes, interior)
    report(7, "expansion-to-semigroup and word-to-expansion lumpings hold")


def test_criterion_8_counterexample_regression(counterexample):
    S = counterexample
    assert not is_mc_stable(S)
    mc = mccammond(karnofsky_rhodes(S).graph)
    g = mc.graph
    w = (0, 1, 2)
    c = (3,)
    assert g.follow(0, w) == g.follow(0, w + w)
    v1, v2 = g.follow(0, c + w), g.follow(0, c + w + w)
    assert v1 != v2
    report(8, f"left factor c separates the walks ({g.labels[v1]} vs {g.labels[v2]})")


def test_criterion_9_monte_carlo():
    S = build(FamilySpec("rees_B", {"n": 2}))
    exact = {k: float(v) for k, v in stationary_kr(S, HALF).entries.items()}
    runs = []
    for _ in range(2):
        emp = simulate_semaphore(S, HALF, walkers=20, steps=50_000, seed=42)
        runs.append(emp)
    assert runs[0].counts == runs[1].counts  # bit-identical rerun
    assert runs[0].total == 1_000_000
    tv = tv_distance(runs[0], exact)
    assert tv <= 0.005, tv
    report(9, f"one million steps, TV {tv:.5f} <= 0.005, reruns identical")


def test_criterion_10_mixing_bound():
    start = time.time()
    cases = [
        (build(FamilySpec("tsetlin", {"n": 3})), None),
        (build(FamilySpec("rees_B", {"n": 2})), None),
    ]
    for S, _ in cases:
        xs = uniform_probs(S)
        mb = mixing_bound(S, xs)
        exact = {k: float(v) for k, v in stationary_kr(S, xs).entries.items()}
        emp = simulate_state_at(S, xs, walkers=4000, steps=mb.k, seed=99)
        tv = tv_distance(emp, exact)
        assert tv <= E_INV, (mb, tv)
    elapsed = time.time() - start
    assert elapsed < 30, f"took {elapsed:.2f}s"
    report(10, f"simulated TV at the bound under exp(-1); {elapsed:.2f}s")
