import dataclasses
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import semiwalk
from semiwalk.chains import (
    E_INV_LOWER,
    ActionChain,
    NotIrreducible,
    build_chain,
    certify,
    check_lumping,
    mixing_bound,
    stationary_oracle,
    tv_distance,
)
from semiwalk.core import (
    SemigroupError,
    SizeCapExceeded,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_table,
    semigroup_from_transformations,
)
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.graphs import closed_classes
from semiwalk.stationary import StationaryResult, stationary_kr, uniform_probs
from semiwalk import families

from reference import (
    apply_float,
    check_interior_lumping,
    first_entry_tail,
    fraction_certify,
    fraction_chain,
    fraction_lumping,
    fraction_oracle,
    kr_key_info,
    truncated_semaphore_chain,
)

F = Fraction
HALF = [F(1, 2), F(1, 2)]
X236 = [F(1, 2), F(1, 3), F(1, 6)]


def test_column_sums_exact(p3, b2, z2x01):
    for S, xs in ((p3, [F(1, 2), F(1, 3), F(1, 6)]), (b2, HALF),
                  (z2x01, HALF)):
        T = build_chain(S, xs)
        assert [F(w, T.denom) for w in T.weights] == xs
        assert all(len(row) == len(xs) for row in T.rows)


def test_weights_not_summing_to_one_rejected(b2):
    with pytest.raises(SemigroupError, match="sum to 2/3"):
        build_chain(b2, [F(1, 3), F(1, 3)])


@pytest.mark.parametrize("xs", [
    [F(1, 2)], [F(3, 4), F(3, 4)], [F(0), F(1)], [F(1)],
], ids=["too-few", "sum-3/2", "zero-weight", "one-weight"])
def test_chains_and_mixing_bound_check_their_weights(xs):
    # the same weight check as the stationary laws, with its messages
    S = families.build(families.parse_family("rees_B:2"))
    calls = [
        lambda: build_chain(S, xs),
        lambda: truncated_semaphore_chain(S, xs, 4),
        lambda: mixing_bound(S, xs),
    ]
    for call in calls:
        with pytest.raises(SemigroupError, match="probabilit"):
            call()


def test_b2_kr_chain_structure(b2):
    T = build_chain(b2, HALF)
    assert sorted(T.labels) == ["aa", "abb", "baa", "bb"]
    lab = {name: i for i, name in enumerate(T.labels)}
    assert (T.weights, T.denom) == ([1, 1], 2)
    # from aa: a loops, b moves to baa
    assert T.rows[lab["aa"]] == [lab["aa"], lab["baa"]]
    # from baa: a back to aa, b to bb
    assert T.rows[lab["baa"]] == [lab["aa"], lab["bb"]]
    # from abb: a to aa, b to bb
    assert T.rows[lab["abb"]] == [lab["aa"], lab["bb"]]


def test_one_state_chain():
    S = semigroup_from_table([[0]], gens=[0], gen_names=["e"])
    T = build_chain(S, [F(1)])
    assert T.n == 1 and T.rows == [[0]] and (T.weights, T.denom) == ([1], 1)
    assert stationary_oracle(T) == {"e": 1.0}


def test_tsetlin_chain_is_move_to_front(p3):
    x = [F(1, 2), F(1, 3), F(1, 6)]
    T = build_chain(p3, x)
    assert T.n == 6
    lab = {name: i for i, name in enumerate(T.labels)}
    # letter 2, of weight 1/3, moves 132 to 213, and no other letter does
    assert [a for a, t in enumerate(T.rows[lab["132"]]) if t == lab["213"]] == [1]
    assert F(T.weights[1], T.denom) == F(1, 3)


def test_oracle_matches_engine(p3, b2, z2x01_quotient):
    fixtures = [
        (b2, HALF),
        (p3, [F(1, 2), F(1, 3), F(1, 6)]),
        (z2x01_quotient, [F(2, 5), F(3, 5)]),
        (families.rees_cycle(2, 2), [F(2, 5), F(3, 5)]),
    ]
    for S, xs in fixtures:
        r = stationary_kr(S, xs)
        T = build_chain(S, xs)
        oracle = stationary_oracle(T)
        for k, v in r.entries.items():
            assert abs(float(v) - oracle[k]) < 1e-10


def test_oracle_invariance(b2):
    T = build_chain(b2, HALF)
    psi = stationary_oracle(T)
    v = [psi[lab] for lab in T.labels]
    w = apply_float(fraction_chain(b2, HALF), v)
    assert sum(abs(a - b) for a, b in zip(v, w)) < 1e-10


def test_oracle_equals_per_sweep_conversion():
    # the oracle converts each summed integer weight over E once; its floats
    # must equal those of the power iteration over the Fraction columns that
    # calls apply_float (float(p) every sweep)
    S = families.flat_tower(2, 2)
    T = build_chain(S, uniform_probs(S))
    R = fraction_chain(S, uniform_probs(S))
    assert R.labels == T.labels
    psi = stationary_oracle(T)
    v = [1.0 / T.n] * T.n  # the chain is irreducible: the oracle's start
    while True:
        w = apply_float(R, v)
        w = [0.5 * (a + b) for a, b in zip(w, v)]
        norm = sum(w)
        w = [a / norm for a in w]
        delta = 0.5 * sum(abs(a - b) for a, b in zip(w, v))
        v = w
        if delta < 1e-13:
            break
    assert psi == dict(zip(T.labels, v))


def test_oracle_rejects_two_closed_classes():
    S = families.rees_general()
    T = build_chain(S, HALF)
    with pytest.raises(NotIrreducible):
        stationary_oracle(T)


def test_check_lumping_kr_to_s(z2x01_quotient, b2, p3):
    for S, xs in ((z2x01_quotient, [F(2, 5), F(3, 5)]), (b2, HALF),
                  (p3, uniform_probs(p3))):
        r = stationary_kr(S, xs)
        T = build_chain(S, xs)
        info = kr_key_info(S, r)
        classes = [S.element_name(info[lab].element) for lab in T.labels]
        assert check_lumping(T, classes)


def test_check_lumping_negative_control(b2):
    # non-uniform weights so no accidental symmetry lumping survives
    T = build_chain(b2, [F(2, 5), F(3, 5)])
    lab = {name: i for i, name in enumerate(T.labels)}
    bad = {"aa": "x", "bb": "x", "abb": "y", "baa": "y"}
    assert set(bad) == set(lab)
    assert not check_lumping(T, [bad[name] for name in T.labels])


def test_semaphore_truncation_lumps_to_kr(b2, z2x01_quotient):
    for S, xs in ((b2, HALF), (z2x01_quotient, [F(2, 5), F(3, 5)])):
        T, interior, words = truncated_semaphore_chain(S, xs, 12)
        assert interior  # the truncation has a real interior
        kr = karnofsky_rhodes(S)
        classes = {
            lab: S.word_label(kr.words[kr.graph.follow(0, w)])
            for lab, w in words.items()
        }
        assert check_interior_lumping(T, classes, interior)


def test_semaphore_truncation_lumps_to_semigroup():
    # word-level walk lumped straight onto a left-zero ideal with 4 states
    S = families.flat_tower(2, 1)
    xs = [F(1, 2), F(1, 3), F(1, 6)]
    T, interior, words = truncated_semaphore_chain(S, xs, 12)
    assert interior
    classes = {lab: S.element_name(S.product(w)) for lab, w in words.items()}
    assert len(set(classes.values())) == 4
    assert check_interior_lumping(T, classes, interior)


def test_semaphore_truncation_negative(b2):
    T, interior, words = truncated_semaphore_chain(b2, [F(2, 5), F(3, 5)], 12)
    # classify by word length parity: not a lumping
    classes = {lab: str(len(w) % 2) for lab, w in words.items()}
    assert not check_interior_lumping(T, classes, interior)


def test_code_words_form_a_prefix_code(b2, p3):
    # no ideal-entering word is a proper prefix of another
    for S in (b2, p3):
        xs = uniform_probs(S)
        _, _, words = truncated_semaphore_chain(S, xs, 9)
        ws = sorted(words.values())
        for w1, w2 in zip(ws, ws[1:]):
            assert w2[: len(w1)] != w1


def test_tv_distance():
    assert tv_distance({"x": 0.5, "y": 0.5}, {"x": 0.5, "y": 0.5}) == 0
    assert tv_distance({"x": 1.0}, {"y": 1.0}) == 1
    assert abs(tv_distance({"x": 0.5, "y": 0.5},
                           {"x": 1 / 3, "y": 2 / 3}) - 1 / 6) < 1e-15


def coupon_tail(n: int, k: int) -> Fraction:
    """P(T > k) for the coupon collector with n equally likely coupons."""
    return sum((-1) ** (j + 1) * math.comb(n, j) * F(n - j, n) ** k
               for j in range(1, n + 1))


def test_mixing_bound_tsetlin(p3):
    # the first k with 3 (2/3)^k - 3 (1/3)^k <= 1/e
    mb = mixing_bound(p3, uniform_probs(p3))
    assert (mb.k, mb.tail) == (6, F(7, 27))
    assert [f.name for f in dataclasses.fields(mb)] == ["k", "tail"]


def test_mixing_bound_single_generator_line():
    # a^k first lies in the ideal {a^n} at k = n
    n = 4
    table = [[min(i + j + 2, n) - 1 for j in range(n)] for i in range(n)]
    S = semigroup_from_table(table, gens=[0], gen_names=["a"])
    mb = mixing_bound(S, [F(1)])
    assert (mb.k, mb.tail) == (n, 0)


def test_mixing_bound_b2(b2):
    # only the words a^k and b^k stay outside the ideal: P(T > k) = 2^(1-k)
    mb = mixing_bound(b2, HALF)
    assert [first_entry_tail(b2, HALF, k) for k in range(1, 5)] == [1, F(1, 2), F(1, 4), F(1, 8)]
    assert (mb.k, mb.tail) == (3, F(1, 4))


@pytest.mark.parametrize("n", range(1, 6))
def test_mixing_tail_is_the_coupon_collector_tail(n):
    S = families.tsetlin(n)
    xs = uniform_probs(S)
    mb = mixing_bound(S, xs)
    assert mb.tail == coupon_tail(n, mb.k) <= math.exp(-1)
    assert coupon_tail(n, mb.k - 1) > math.exp(-1)
    for k in range(min(n + 2, 6)):
        assert first_entry_tail(S, xs, k) == coupon_tail(n, k)


def test_mixing_tail_tsetlin4_at_four_steps():
    S = families.tsetlin(4)
    assert first_entry_tail(S, uniform_probs(S), 4) == coupon_tail(4, 4) == F(29, 32)


def test_e_inv_lower_is_a_close_lower_bound():
    # partial sums of sum (-1)^j / j! alternate around 1/e
    below = sum(F((-1) ** j, math.factorial(j)) for j in range(24))
    above = below + F(1, math.factorial(24))
    assert below < above and E_INV_LOWER < below
    assert above - E_INV_LOWER < F(1, 10**16)


@pytest.mark.parametrize("name,k", [
    ("tsetlin:6", 15), ("signed_tsetlin:3", 6), ("burnside_straightline:3", 3),
    ("edge_flip_line:4", 9), ("rees_B:4", 2), ("flat_tower:2,2", 5),
    ("bar_tower:2,2", 6), ("flat_tower:2,3", 7), ("signed_tsetlin:5", 12),
    ("rees_zp:4,5", 2), ("flat_tower:3,2", 6),
])
def test_mixing_bound_ladder(name, k):
    S = families.build(families.parse_family(name))
    xs = uniform_probs(S)
    start = time.perf_counter()
    mb = mixing_bound(S, xs)
    assert time.perf_counter() - start < 1.0
    assert mb.k == k and 0 < mb.tail <= math.exp(-1)


def _power_tvs(chain, pi, steps):
    """Exact total variation from pi after 1..steps steps, per start."""
    target = [pi.get(lab, F(0)) for lab in chain.labels]
    xs = [F(w, chain.denom) for w in chain.weights]
    for s in range(chain.n):
        v = [F(0)] * chain.n
        v[s] = F(1)
        tvs = []
        for _ in range(steps):
            w = [F(0)] * chain.n
            for row, vs in zip(chain.rows, v):
                if vs:
                    for t, x in zip(row, xs):
                        w[t] += vs * x
            v = w
            tvs.append(sum(abs(a - b) for a, b in zip(v, target)) / 2)
        yield tvs


@pytest.mark.parametrize("name,xs", [
    ("tsetlin:3", X236), ("rees_B:2", None), ("rees_zp:2,2", [F(1, 3), F(2, 3)]),
    ("burnside_straightline:2", None), ("flat_tower:2,1", None),
    ("signed_tsetlin:2", None),
])
def test_total_variation_is_at_most_the_tail(name, xs):
    S = families.build(families.parse_family(name))
    xs = xs or uniform_probs(S)
    tails = [first_entry_tail(S, xs, k) for k in range(1, 9)]
    chain = build_chain(S, xs)
    pi = stationary_kr(S, xs).entries
    for tvs in _power_tvs(chain, pi, 8):
        assert all(tv <= tail for tv, tail in zip(tvs, tails)), (tvs, tails)
    mb = mixing_bound(S, xs)
    assert mb.tail == first_entry_tail(S, xs, mb.k)


def test_mixing_bound_reads_no_expansion(monkeypatch):
    want = [mixing_bound(families.build(families.parse_family(name)), X236)
            for name in ("tsetlin:3", "flat_tower:2,1")]

    def refuse(*args, **kwargs):
        raise AssertionError("mixing_bound built an expansion")

    for owner, attr in ((semiwalk.chains, "karnofsky_rhodes"),
                        (semiwalk.chains, "mccammond"),
                        (semiwalk.expansions, "karnofsky_rhodes"),
                        (semiwalk.expansions, "mccammond"),
                        (semiwalk.graphs, "sccs")):
        monkeypatch.setattr(owner, attr, refuse)
    got = [mixing_bound(families.build(families.parse_family(name)), X236)
           for name in ("tsetlin:3", "flat_tower:2,1")]
    assert got == want


@pytest.mark.parametrize("name", ["klein", "z2x01", "rees_general"])
def test_mixing_bound_refuses_limit_mode(name):
    S = families.build(families.parse_family(name))
    with pytest.raises(SemigroupError, match="not left zero"):
        mixing_bound(S, uniform_probs(S))


def test_mixing_bound_fixed_points_are_the_left_zero_ideal():
    # K is left zero iff a point is fixed by every generator, and then K
    # is the set of those points: the set mixing_bound sums over
    for name in families._FAMILIES:
        S = families.build(families.parse_family(name))
        rows = S.right_action()[0]
        fixed = {e for e, row in enumerate(rows) if all(f == e for f in row)}
        K = minimal_ideal(S)
        assert fixed == (K if kernel_is_left_zero(S, K) else set()), name


def test_mixing_cap_names_the_cap(monkeypatch):
    S = families.tsetlin(6)
    xs = uniform_probs(S)
    # k = 15 takes 14 steps, each over the 62 elements outside K with
    # integers over 6^j for the j-th
    work = sum(62 * (6**j).bit_length() for j in range(1, 15))
    monkeypatch.setattr(semiwalk.chains, "MIXING_CAP", work)
    assert mixing_bound(S, xs).k == 15
    monkeypatch.setattr(semiwalk.chains, "MIXING_CAP", work - 1)
    with pytest.raises(SizeCapExceeded, match=f"mixing bound of .* after 14 steps, "
                       f"exceeded cap {work - 1} element-bits of work"):
        mixing_bound(S, xs)


@pytest.mark.parametrize("name,gen,denominator", [
    ("bar_tower:2,2", "~𝟙'", 1000), ("bar_tower:2,2", "~𝟙'", 10**4),
    ("tsetlin:6", "1", 1000), ("tsetlin:2", "1", 10**9),
])
def test_mixing_cap_bounds_the_time(name, gen, denominator):
    # one rare letter: the tail stays above 1/e for hundreds of steps or
    # more while its integers grow, and the cap on their bits stops the run
    S = families.build(families.parse_family(name))
    rare = F(1, denominator)
    xs = [rare if g == gen else (1 - rare) / (S.n_gens - 1) for g in S.gen_names]
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded, match="mixing bound .* exceeded cap"):
        mixing_bound(S, xs)
    assert time.perf_counter() - start < 1.0


def test_certify_direct_and_limit_results(p3, b2, z2x01, klein):
    for S in (p3, b2, z2x01, klein):
        xs = uniform_probs(S)
        assert certify(stationary_kr(S, xs), build_chain(S, xs))


def test_certify_counterexample(counterexample):
    # several normal forms reach one expansion vertex; the law still
    # lives on the chain's states, under the chain's names
    xs = uniform_probs(counterexample)
    assert certify(stationary_kr(counterexample, xs), build_chain(counterexample, xs))


@pytest.mark.parametrize(
    "name",
    ["tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
     "flat_tower:3,2", "counterexample"],
)
def test_direct_states_are_the_chain_states(name, request):
    if name == "counterexample":
        S = request.getfixturevalue("counterexample")
    else:
        S = families.build(families.parse_family(name))
    xs = uniform_probs(S)
    chain = build_chain(S, xs)
    assert set(stationary_kr(S, xs).entries) == set(chain.labels)


def test_certify_rejects_wrong_laws(b2):
    result = stationary_kr(b2, HALF)
    a, b = list(result.entries)[:2]
    moved = dict(result.entries)
    moved[a] += F(1, 16)
    moved[b] -= F(1, 16)
    chain = build_chain(b2, HALF)
    assert not certify(StationaryResult(moved), chain)
    assert not certify(StationaryResult({a: F(1)}), chain)
    extra = dict(result.entries)
    extra["not-a-state"] = F(0)
    assert not certify(StationaryResult(extra), chain)


def test_certify_rejects_a_wrong_mixture_of_closed_classes():
    # rees_general's chain has the closed classes {a, ba, aba, baba} and
    # {b, ab, bab, abab}; its law is 1/8 on each state.  This mixture keeps
    # pi T = pi; only the class masses are wrong.
    S = families.build(families.parse_family("rees_general"))
    wrong = {**dict.fromkeys(["a", "ba", "aba", "baba"], F(1, 16)),
             **dict.fromkeys(["b", "ab", "bab", "abab"], F(3, 16))}
    xs = uniform_probs(S)
    assert not certify(StationaryResult(wrong), build_chain(S, xs))


def test_certify_rejects_a_law_without_a_class():
    S = families.build(families.parse_family("rees_general"))
    xs = uniform_probs(S)
    one_class = dict.fromkeys(["a", "ba", "aba", "baba"], F(1, 4))
    chain = build_chain(S, xs)
    assert not certify(StationaryResult(one_class), chain)
    assert certify(stationary_kr(S, xs), chain)


def test_certify_reads_the_chain_alone(monkeypatch):
    # a hand-built table with no semigroup behind it: letters of weights
    # 1/3 and 2/3; the first sends states 0 and 1 to 1, the second to 0,
    # and fixes, respectively swaps, states 2 and 3, so the table has the
    # closed classes {0, 1} and {2, 3}; the first letter sends either class
    # to class 1, the second to class 0, one closed class
    monkeypatch.setattr(semiwalk.chains, "karnofsky_rhodes", None)  # never called
    rows = [[1, 0], [1, 0], [2, 3], [3, 2]]
    classes, action = [[0, 1], [2, 3]], [[1, 0], [1, 0]]
    assert closed_classes(rows) == classes and len(closed_classes(action)) == 1
    chain = ActionChain(list("pqrs"), [0, 1, 2, 3], rows, [1, 2], 3, classes, action)

    def law(*masses):
        return StationaryResult(dict(zip(chain.labels, masses)))
    # class masses 2/3 and 1/3, within the classes 2 : 1 and 1 : 1
    true = law(F(4, 9), F(2, 9), F(1, 6), F(1, 6))
    inside = law(F(3, 9), F(3, 9), F(1, 6), F(1, 6))
    between = law(F(2, 9), F(1, 9), F(1, 3), F(1, 3))  # pi T = pi holds
    assert certify(true, chain)
    assert not certify(inside, chain)
    assert not certify(between, chain)
    # the class masses are the action's: swapped, it takes the other law
    swapped = dataclasses.replace(chain, action=[[0, 1], [0, 1]])
    assert certify(between, swapped) and not certify(true, swapped)


def _limit_draws_with_classes(n, seed):
    """Seeded 3- and 4-state limit draws (|S| <= 40, random weights) whose
    expansion-ideal chain has at least two closed classes, with that chain."""
    rng = random.Random(seed)
    while n:
        states = rng.choice((3, 4))
        maps = {g: [rng.randrange(states) for _ in range(states)] for g in "abc"}
        S = semigroup_from_transformations(states, maps)
        if S.size > 40 or kernel_is_left_zero(S, minimal_ideal(S)):
            continue
        ws = [rng.randint(1, 9) for _ in "abc"]
        xs = [F(w, sum(ws)) for w in ws]
        chain = build_chain(S, xs)
        classes = closed_classes(chain.rows)
        if len(classes) >= 2:
            n -= 1
            yield S, xs, chain, [[chain.labels[i] for i in cls] for cls in classes]


def test_certify_rejects_reweighted_mixtures_of_closed_classes():
    # each class keeps its shape and gets a new random mass
    rng = random.Random(16)
    for S, xs, chain, classes in _limit_draws_with_classes(50, seed=2024):
        law = stationary_kr(S, xs).entries
        assert certify(StationaryResult(law), chain)
        mass = [sum(law[lab] for lab in cls) for cls in classes]
        new = mass
        while new == mass:
            ws = [rng.randint(1, 9) for _ in classes]
            new = [F(w, sum(ws)) for w in ws]
        wrong = {lab: law[lab] / m * w
                 for cls, m, w in zip(classes, mass, new) for lab in cls}
        assert sum(wrong.values()) == 1
        assert not certify(StationaryResult(wrong), chain)


@pytest.mark.parametrize("name,forced", [
    ("rees_general", False), ("z2x01", False), ("klein", False),
    ("tsetlin:5", True), ("rees_B:6", True)])
def test_certify_passes_the_limit_fixtures(name, forced):
    S = families.build(families.parse_family(name))
    xs = uniform_probs(S)
    assert certify(stationary_kr(S, xs, force_limit=forced), build_chain(S, xs))


def test_limit_mode_reaches_size_27_draw():
    # Three maps on three states whose closure has 27 elements and a kernel
    # that is not left zero: the closed-form law passes the certificate,
    # class masses included.
    S = semigroup_from_transformations(
        3, {"a": [1, 2, 1], "b": [2, 0, 1], "c": [0, 2, 1]}
    )
    assert S.size == 27
    xs = uniform_probs(S)
    result = stationary_kr(S, xs)
    assert certify(result, build_chain(S, xs))


@pytest.mark.parametrize("name", ["flat_tower:3,2", "rees_zp:4,5", "signed_tsetlin:3"])
def test_certify_direct_results_of_the_tree_pass(name):
    S = families.build(families.parse_family(name))
    xs = uniform_probs(S)
    assert certify(stationary_kr(S, xs), build_chain(S, xs))


# the benchmark's direct-mode ladder up to flat_tower:3,2, and its limit fixtures
LADDER = ["tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2", "flat_tower:3,2"]
LIMIT_FIXTURES = [("rees_general", False), ("z2x01", False), ("klein", False),
                  ("tsetlin:5", True), ("rees_B:6", True)]


def _skewed(S):
    """The weights 1 : 2 : ... : k."""
    k = S.n_gens
    return [F(i + 1, k * (k + 1) // 2) for i in range(k)]


def _wrong_laws(law):
    """The law with half of one state's mass moved to another, with one
    mass negative, scaled by 2, and with a state the chain lacks."""
    a, b = list(law)[:2]
    moved, negative = dict(law), dict(law)
    moved[a], moved[b] = law[a] / 2, law[b] + law[a] / 2
    negative[a], negative[b] = -law[b], law[b] + law[a] + law[b]
    return [moved, negative, {k: 2 * v for k, v in law.items()}, {**law, "not-a-state": F(0)}]


def _same_verdicts(S, xs, laws, chain):
    ref = fraction_chain(S, xs)
    assert ref.labels == chain.labels
    verdicts = [certify(StationaryResult(law), chain) for law in laws]
    assert verdicts == [fraction_certify(S, xs, StationaryResult(law), ref) for law in laws]
    return verdicts


@pytest.mark.parametrize("name,forced", [(name, False) for name in LADDER] + LIMIT_FIXTURES)
def test_integer_checks_agree_with_the_fraction_reference(name, forced):
    # the certificate's and the lumping check's verdicts over the integer
    # table equal those over Fraction columns, at weights 1 : 2 : ... : k
    S = families.build(families.parse_family(name))
    xs = _skewed(S)
    chain = build_chain(S, xs)
    law = stationary_kr(S, xs, force_limit=forced).entries
    assert _same_verdicts(S, xs, [law, *_wrong_laws(law)], chain) == [True] + [False] * 4
    image = karnofsky_rhodes(S).s_image
    by_element = [image[v] for v in chain.states]
    partitions = [by_element, [e % 2 for e in by_element],
                  [len(lab) for lab in chain.labels], [i % 3 for i in range(chain.n)]]
    ref = fraction_chain(S, xs)
    verdicts = [check_lumping(chain, p) for p in partitions]
    assert verdicts == [fraction_lumping(ref, dict(zip(ref.labels, p))) for p in partitions]
    assert verdicts[0] and not all(verdicts)  # the lumping onto S holds in both modes


def test_integer_certificate_agrees_on_the_limit_draws():
    # the laws and the reweighted mixtures of
    # test_certify_rejects_reweighted_mixtures_of_closed_classes
    rng = random.Random(16)
    for S, xs, chain, classes in _limit_draws_with_classes(50, seed=2024):
        law = stationary_kr(S, xs).entries
        mass = [sum(law[lab] for lab in cls) for cls in classes]
        ws = [rng.randint(1, 9) for _ in classes]
        wrong = {lab: law[lab] / m * F(w, sum(ws))
                 for cls, m, w in zip(classes, mass, ws) for lab in cls}
        _same_verdicts(S, xs, [law, wrong, *_wrong_laws(law)], chain)


@pytest.mark.parametrize("name", ["tsetlin:5", "rees_zp:4,5", "flat_tower:3,2", "bar_tower:2,2",
                                  "signed_tsetlin:4", "rees_B:3", "burnside_straightline:3"])
def test_oracle_equals_the_fraction_reference(name):
    # summed integer weights over E give the floats of the Fraction sums,
    # so the oracle's dict is the reference's, float for float
    S = families.build(families.parse_family(name))
    for xs in (uniform_probs(S), _skewed(S)):
        assert stationary_oracle(build_chain(S, xs)) == fraction_oracle(fraction_chain(S, xs))


def test_tv_distance_does_not_depend_on_the_hash_seed():
    code = (
        "from semiwalk import families\n"
        "from semiwalk.chains import tv_distance\n"
        "from semiwalk.simulate import simulate_semaphore\n"
        "from semiwalk.stationary import stationary_kr, uniform_probs\n"
        "S = families.build(families.parse_family('rees_zp:3,3'))\n"
        "xs = uniform_probs(S)\n"
        "exact = {k: float(v) for k, v in stationary_kr(S, xs).entries.items()}\n"
        "emp = simulate_semaphore(S, xs, walkers=4, steps=5000, seed=42)\n"
        "print(repr(tv_distance(emp, exact)))\n"
    )
    src = os.path.dirname(os.path.dirname(semiwalk.__file__))
    outs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1, outs
