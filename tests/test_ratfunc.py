import hashlib
import random
from fractions import Fraction

import pytest

from semiwalk import core, stationary
from semiwalk.chains import build_chain
from semiwalk.core import (
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.families import build, parse_family
from semiwalk.graphs import closed_classes
from semiwalk.ratfunc import RatF
from semiwalk.stationary import (
    StationaryResult,
    _stationary_kr_direct,
    stationary_kr,
    stationary_s,
    uniform_probs,
    zero_limit_names,
)

from reference import adjoin_zero, kr_key_info, word_sorted_kr_result

T = RatF((0, 1))
ONE = RatF.const(1)


def test_basic_arithmetic():
    f = (ONE - T) * (ONE + T)
    g = ONE - T * T
    assert f == g
    assert (f / g) == ONE


def test_gcd_normalization():
    f = (T * T - RatF.const(1)) / (T - RatF.const(1))
    assert f == T + ONE


def test_limit_at_zero():
    x = RatF.const(Fraction(2, 5))
    scaled = x * (ONE - T)
    assert scaled.limit_at_zero() == Fraction(2, 5)
    # t/(2t - t^2) -> 1/2
    f = T / (RatF.const(2) * T - T * T)
    assert f.limit_at_zero() == Fraction(1, 2)
    assert (T * T / T).limit_at_zero() == 0


def test_pole_detected():
    with pytest.raises(ZeroDivisionError):
        (ONE / T).limit_at_zero()


def test_star_style_expression():
    # 1/(1 - (1-t)) = 1/t has a pole; 1/(1 - (1-t)/2) is finite
    with pytest.raises(ZeroDivisionError):
        (ONE / (ONE - (ONE - T))).limit_at_zero()
    g = ONE / (ONE - (ONE - T) * RatF.const(Fraction(1, 2)))
    assert g.limit_at_zero() == 2


def test_equality_and_coercion():
    assert T + 1 == ONE + T
    assert not (T * 0).num
    assert RatF.const(Fraction(3, 4)) == Fraction(3, 4)


# -- the limit path against RatF, the independent reference -----------------------


LIMIT_FIXTURES = [
    ("rees_general", False),
    ("z2x01", False),
    ("klein", False),
    ("tsetlin:5", True),
    ("rees_B:6", True),
]


def random_limit_draws(n, seed):
    """Seeded 3-state, 3-generator draws with 7 <= |S| <= 13 and a kernel
    that is not left zero."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        maps = {g: [rng.randrange(3) for _ in range(3)] for g in "abc"}
        S = semigroup_from_transformations(3, maps)
        if 7 <= S.size <= 13 and not kernel_is_left_zero(S, minimal_ideal(S)):
            out.append(S)
    return out


def ratf_s0(S, xs):
    """The direct pipeline on S⁰, S with a zero generator of weight t
    adjoined and the other weights scaled by (1-t), over full rational
    functions: S⁰, the result and its limit per state."""
    S2 = adjoin_zero(S)
    t = RatF((0, 1))
    one = RatF.const(1)
    weights = [RatF.const(v) * (one - t) for v in xs] + [t]
    sym = StationaryResult(dict(_stationary_kr_direct(S2, weights, "kr")))
    return S2, sym, {label: f.limit_at_zero() for label, f in sym.entries.items()}


def assert_matches_ratf(S):
    xs = uniform_probs(S)
    got = stationary_kr(S, xs, force_limit=True)
    alt = zero_limit_names(S)
    by_alt = {alt[k]: v for k, v in got.entries.items()}
    want = ratf_s0(S, xs)[2]
    assert set(by_alt) <= set(want)
    assert {k: by_alt.get(k, 0) for k in want} == want


@pytest.mark.parametrize("name,forced", LIMIT_FIXTURES)
def test_series_limits_match_ratf_on_fixtures(name, forced):
    S = build(parse_family(name))
    assert kernel_is_left_zero(S, minimal_ideal(S)) == forced
    assert_matches_ratf(S)


def test_closed_form_limits_match_ratf_on_random_draws():
    for S in random_limit_draws(50, seed=2017):
        assert_matches_ratf(S)


def test_four_state_limit_draw():
    # beyond the benchmark's 3-state draws: |S| = 67, values as first printed
    S = semigroup_from_transformations(
        4, {"a": [0, 1, 1, 0], "b": [1, 3, 2, 2], "c": [2, 3, 0, 2]})
    assert S.size == 67 and not kernel_is_left_zero(S, minimal_ideal(S))
    xs = uniform_probs(S)
    assert stationary_s(S, xs).entries == {
        "acb": Fraction(10, 33), "acbc": Fraction(8, 33),
        "cba": Fraction(3, 11), "cbab": Fraction(2, 11),
    }
    kr = stationary_kr(S, xs).entries
    assert len(kr) == 288 and sum(kr.values()) == 1
    assert kr["abbb"] == Fraction(22360, 617463)
    assert kr["acb"] == Fraction(25160, 617463)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_limit_draw_with_h_classes_of_two():
    # |S| = 28 with 640 states; values as the truncated-series route printed
    S = semigroup_from_transformations(
        4, {"a": [1, 0, 0, 2], "b": [3, 2, 1, 3], "c": [2, 0, 3, 1]})
    assert S.size == 28 and not kernel_is_left_zero(S, minimal_ideal(S))
    xs = uniform_probs(S)
    # 80 minimal right ideals and 4 minimal left ideals of KR(S), so |H| = 2
    rights = closed_classes(karnofsky_rhodes(S).out)
    chain = build_chain(S, xs)
    lefts = closed_classes(chain.rows)
    assert (len(rights), len(lefts), chain.n) == (80, 4, 640)
    assert stationary_s(S, xs).entries == dict.fromkeys(
        ["aa", "aaa", "aab", "aba", "acb", "ba", "bab", "bcb"], Fraction(1, 8))
    kr = stationary_kr(S, xs).entries
    assert len(kr) == 640 and sum(kr.values()) == 1
    assert kr["aa"] == Fraction(11, 640)
    assert kr["ccccbcccbcc"] == Fraction(1, 76800)
    assert max(kr.values()) == Fraction(17, 960)
    assert min(kr.values()) == Fraction(1, 153600)
    assert _digest(list(kr.items())) == (
        "b93802cd578bd0b5b148d6d2fcc64dfee3e90ff14e9a924e266eb81a50712849")


def test_limit_draw_of_size_72_at_unequal_weights():
    # 1,536 states; values as the truncated-series route printed them
    S = semigroup_from_transformations(
        4, {"a": [2, 1, 0, 2], "b": [1, 3, 2, 1], "c": [0, 0, 3, 2]})
    assert S.size == 72 and not kernel_is_left_zero(S, minimal_ideal(S))
    xs = [Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)]
    assert stationary_s(S, xs).entries == {
        "aca": Fraction(83, 244), "acaa": Fraction(63, 244),
        "acac": Fraction(29, 244), "acb": Fraction(69, 244),
    }
    kr = stationary_kr(S, xs).entries
    assert len(kr) == 1536 and sum(kr.values()) == 1
    assert kr["aabaaca"] == Fraction(12022680393, 1337531757320)
    assert kr["ccbcbc"] == Fraction(9141951, 84861423680)
    assert max(kr.values()) == Fraction(150555623193, 5350127029280)
    assert min(kr.values()) == Fraction(10895035491, 2942569866104000)
    assert _digest(list(kr.items())) == (
        "091fc12ddaf9baf9bf10b1dccae73cb3a5a2c3e96e3157c7c4ab8d8053d67cea")


# -- limit mode against the S⁰ route, its reference -------------------------------


def reference_limit(S, xs):
    """The S⁰ route: run the direct pipeline on S⁰ over ``RatF`` weights (see
    ``ratf_s0``) and map each state u·0 back to the vertex of u in KR(S),
    keeping the minimal ideal of KR(S).  The law, and its states' records
    with their names u·0 from this route."""
    S2, sym, limits = ratf_s0(S, xs)
    info0 = kr_key_info(S2, sym)
    kr = karnofsky_rhodes(S)
    ideal_vertices = {v for cls in closed_classes(kr.out) for v in cls}
    masses, alt_labels = {}, {}
    for alt_label, limit in limits.items():
        ki = info0[alt_label]
        assert ki.word[-1] == S.n_gens and S.n_gens not in ki.word[:-1]
        u = kr.graph.follow(kr.graph.root, ki.word[:-1])
        if u not in ideal_vertices:
            assert limit == 0  # the pure zero and states outside the ideal
            continue
        assert u not in masses
        masses[u], alt_labels[kr.names([u])[0]] = limit, alt_label
    law = word_sorted_kr_result(kr, masses)
    return law, kr_key_info(S, law, alt_labels)


S27 = {"a": [1, 2, 1], "b": [2, 0, 1], "c": [0, 2, 1]}


def _limit_cases():
    """LIMIT_FIXTURES, (2/5, 3/5) on two of them, 20 seeded draws and the
    |S| = 27 draw (also with a generator named □), each with its weights."""
    named = [(n, build(parse_family(n))) for n, _ in LIMIT_FIXTURES]
    named += [(f"draw{i}", S) for i, S in enumerate(random_limit_draws(20, seed=2017))]
    named.append(("size27", semigroup_from_transformations(3, S27)))
    # a generator named like the zero: the zero is primed, and S⁰'s
    # two-character name changes how labels join
    boxed = dict(zip(["□", "b", "c"], S27.values()))
    named.append(("size27-box", semigroup_from_transformations(3, boxed)))
    cases = [pytest.param(S, uniform_probs(S), S27_DIGESTS.get(n), id=n)
             for n, S in named]
    for n, S in named[:2]:  # rees_general and z2x01
        cases.append(pytest.param(S, [Fraction(2, 5), Fraction(3, 5)], None,
                                  id=n + "@2/5"))
    return cases


# The S⁰ route over RatF takes about 15 s on the |S| = 27 draw, so those two
# cases compare with digests of the law's entries and its states' records,
# as the S⁰ route over truncated power series printed them.
S27_DIGESTS = {
    "size27": "71d55e59704fd55e3adb548cf15a5326cc15359d354ed081af6f06a448e2294e",
    "size27-box": "a3990af2548a76789c7f575d2cd8066f4b331d16b157ae1756143529df004a4b",
}


@pytest.mark.parametrize("S,xs,digest", _limit_cases())
def test_limit_mode_matches_s0_route(S, xs, digest):
    got = stationary_kr(S, xs, force_limit=True)
    info = kr_key_info(S, got, zero_limit_names(S))
    if digest is not None:
        assert _digest((list(got.entries.items()), list(info.items()))) == digest
        return
    want, want_info = reference_limit(S, xs)
    assert list(got.entries.items()) == list(want.entries.items())
    assert list(info.items()) == list(want_info.items())


def test_limit_mode_expands_neither_s_nor_s0(monkeypatch):
    S = build(parse_family("rees_general"))
    seen = []

    def spy(name):
        fn = getattr(stationary, name)

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.append((name, args[0], result))
            return result
        monkeypatch.setattr(stationary, name, wrapped)

    def no_semigroup(*args, **kwargs):
        raise AssertionError("limit mode built a second semigroup")

    spy("karnofsky_rhodes")
    spy("mccammond")
    monkeypatch.setattr(core.ASemigroup, "__init__", no_semigroup)
    stationary_kr(S, uniform_probs(S))
    # no expansion of S, no McCammond expansion and no S⁰: limit mode reads
    # S's own left ideals, and the engine's trees cover the components of
    # S alone
    assert seen == []
