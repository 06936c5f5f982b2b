import math
import random
from fractions import Fraction

import pytest

from semiwalk import core, stationary
from semiwalk.core import (
    adjoin_zero,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.families import build, parse_family
from semiwalk.graphs import minimal_ideal_vertices
from semiwalk.ratfunc import PrecisionLost, RatF, Series
from semiwalk.stationary import (
    LimitPrecisionExceeded,
    StationaryEngine,
    _kr_result,
    _stationary_kr_direct,
    stationary_kr,
    stationary_s,
    uniform_probs,
)

T = RatF.variable()
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
    assert (T * 0).is_zero()
    assert RatF.const(Fraction(3, 4)) == Fraction(3, 4)


# -- truncated series, the limit path's weights ----------------------------------


def _t(prec):
    return Series.variable(prec)


def _c(q, prec):
    return Series.const(q, prec)


def test_series_product_coefficients():
    # (1 - t)(1 + 2t) = 1 + t - 2t^2
    f = (_c(1, 3) - _t(3)) * (_c(1, 3) + _c(2, 3) * _t(3))
    assert (f.val, f.cs) == (0, (1, 1, -2))
    # t^2 (1 + t) * t (3 - t) = 3t^3 + 2t^4 - t^5, known to relative precision 2
    g = (_t(3) * _t(3) * (_c(1, 3) + _t(3))) * (_t(2) * (_c(3, 2) - _t(2)))
    assert (g.val, g.cs) == (3, (3, 2))


def test_series_inverse_coefficients():
    f = (_c(1, 4) - _t(4)).inverse()
    assert (f.val, f.cs) == (0, (1, 1, 1, 1))
    g = (_c(2, 3) + _t(3)).inverse()  # 1/(2 + t) = 1/2 - t/4 + t^2/8
    assert (g.val, g.cs) == (0, (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)))
    h = _c(1, 3) / (_t(3) * _t(3) * (_c(1, 3) + _t(3)))  # t^-2 (1 - t + t^2)
    assert (h.val, h.cs) == (-2, (1, -1, 1))


def test_series_sum_precision():
    # absolute precision is the smaller one: 1 + O(t^2) plus t + O(t^5)
    f = _c(1, 2) + _t(4)
    assert (f.val, f.cs) == (0, (1, 1))
    # cancelling the constant term costs one known coefficient
    g = (_c(1, 3) - _t(3)) - _c(1, 3)
    assert (g.val, g.cs) == (1, (-1, 0))


def test_series_precision_lost():
    with pytest.raises(PrecisionLost):
        _c(1, 1) - (_c(1, 1) - _t(1))
    f = _c(1, 2) - (_c(1, 2) - _t(2))
    assert (f.val, f.cs) == (1, (1,))


def test_series_limit_and_pole():
    x = _c(Fraction(2, 5), 4) * (_c(1, 4) - _t(4))
    assert x.limit_at_zero() == Fraction(2, 5)
    assert (_t(4) * x).limit_at_zero() == 0
    # t/(2t - t^2) -> 1/2
    assert (_t(4) / (_c(2, 4) * _t(4) - _t(4) * _t(4))).limit_at_zero() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        (_c(1, 4) / _t(4)).limit_at_zero()
    with pytest.raises(ZeroDivisionError):
        (x.one() / (x.one() - (x.one() - _t(4)))).limit_at_zero()


# -- the integer series against the Fraction-coefficient one ----------------------


class FractionSeries:
    """The truncated series with one Fraction per known coefficient: the
    reference for ``Series`` (same precision rules, one gcd per term)."""

    __slots__ = ("val", "cs")

    def __init__(self, val, cs):
        self.val = val
        self.cs = cs

    def __add__(self, other):
        a, b = (self, other) if self.val <= other.val else (other, self)
        shift = b.val - a.val
        end = min(len(a.cs), shift + len(b.cs))
        out = list(a.cs[:end])
        for i in range(shift, end):
            out[i] += b.cs[i - shift]
        for k, c in enumerate(out):
            if c:
                return FractionSeries(a.val + k, tuple(out[k:]))
        raise PrecisionLost(f"sum cancels every known coefficient below t^{a.val + end}")

    def __neg__(self):
        return FractionSeries(self.val, tuple(-c for c in self.cs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.cs, other.cs
        out = []
        for k in range(min(len(a), len(b))):
            out.append(sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k]))
        return FractionSeries(self.val + other.val, tuple(out))

    def inverse(self):
        a = self.cs
        inv0 = 1 / a[0]
        out = [inv0]
        for k in range(1, len(a)):
            s = sum((a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0))
            out.append(-s * inv0)
        return FractionSeries(-self.val, tuple(out))

    def __truediv__(self, other):
        return self * other.inverse()

    def limit_at_zero(self):
        if self.val < 0:
            raise ZeroDivisionError("pole at t=0")
        return self.cs[0] if self.val == 0 else Fraction(0)


def _outcome(fn):
    try:
        return fn()
    except (PrecisionLost, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _assert_reduced(s):
    assert s.denom > 0
    assert math.gcd(s.denom, *s.nums) == 1
    assert s.nums[0] != 0


COEFFS = [Fraction(c) for c in (-2, -1, 0, 0, 1, 1, 2)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4), Fraction(-5, 6)]


def _operand(rng, depth=2):
    """A random (Series, FractionSeries) pair of precision 1 to 6, either
    drawn directly or, below ``depth``, the value of a random + - * / on
    two operands (so denominators and precisions vary)."""
    if depth and rng.random() < 0.6:
        op = rng.choice(ARITHMETIC)
        (x, rx), (y, ry) = _operand(rng, depth - 1), _operand(rng, depth - 1)
        try:
            return op(x, y), op(rx, ry)
        except PrecisionLost:
            pass
    prec = rng.randint(1, 6)
    cs = (rng.choice([c for c in COEFFS if c]),)
    cs += tuple(rng.choice(COEFFS) for _ in range(prec - 1))
    val = rng.randint(-2, 2)
    return Series(val, cs), FractionSeries(val, cs)


ARITHMETIC = [
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: x * y,
    lambda x, y: x / y,
]


def test_series_matches_fraction_reference():
    rng = random.Random(15)
    ops = [
        ("+", ARITHMETIC[0]),
        ("-", ARITHMETIC[1]),
        ("*", ARITHMETIC[2]),
        ("/", ARITHMETIC[3]),
        ("inverse", lambda x, y: x.inverse()),
        ("limit", lambda x, y: x.limit_at_zero()),
    ]
    outcomes = set()
    for _ in range(3000):
        name, op = rng.choice(ops)
        (x, rx), (y, ry) = _operand(rng), _operand(rng)
        for s, r in ((x, rx), (y, ry)):
            assert (s.val, s.cs) == (r.val, r.cs)
            _assert_reduced(s)
        if rng.random() < 0.2:  # y agrees with x below some power of t
            shift, c = rng.randint(1, 6), rng.choice(COEFFS[4:])
            y, ry = x + Series(x.val + shift, (c,)), rx + FractionSeries(x.val + shift, (c,))
        got, want = _outcome(lambda: op(x, y)), _outcome(lambda: op(rx, ry))
        if isinstance(want, FractionSeries):
            assert (got.val, got.cs) == (want.val, want.cs), name
            _assert_reduced(got)
            outcomes.add((name, "series"))
        else:
            assert got == want, name
            outcomes.add((name, want[0] if isinstance(want, tuple) else "limit"))
    assert outcomes >= {("-", PrecisionLost), ("+", PrecisionLost),
                        ("limit", ZeroDivisionError), ("limit", "limit"),
                        ("inverse", "series"), ("/", "series")}


def test_series_rejects_a_zero_leading_coefficient():
    with pytest.raises(ValueError):
        Series(0, (0, 1))
    with pytest.raises(ValueError):
        Series.const(0, 3)
    s = Series(-1, (Fraction(2, 3), Fraction(-4, 9), 0))
    assert (s.val, s.nums, s.denom) == (-1, (6, -4, 0), 9)
    assert s.cs == (Fraction(2, 3), Fraction(-4, 9), 0)


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


def ratf_limits(S, xs):
    """Limit per adjoined-zero state, over full rational functions."""
    S2 = adjoin_zero(S)
    t = RatF.variable()
    one = RatF.const(1)
    weights = [RatF.const(v) * (one - t) for v in xs] + [t]
    sym = _stationary_kr_direct(S2, weights, minimal_ideal(S2))
    return {label: f.limit_at_zero() for label, f in sym.entries.items()}


def assert_matches_ratf(S):
    xs = uniform_probs(S)
    got = stationary_kr(S, xs, force_limit=True)
    by_alt = {got.key_info[k].alt_label: v for k, v in got.entries.items()}
    want = ratf_limits(S, xs)
    assert set(by_alt) <= set(want)
    assert {k: by_alt.get(k, 0) for k in want} == want


@pytest.mark.parametrize("name,forced", LIMIT_FIXTURES)
def test_series_limits_match_ratf_on_fixtures(name, forced):
    S = build(parse_family(name))
    assert kernel_is_left_zero(S, minimal_ideal(S)) == forced
    assert_matches_ratf(S)


def test_series_limits_match_ratf_on_random_draws():
    for S in random_limit_draws(20, seed=2017):
        assert_matches_ratf(S)


def test_precision_retry_gives_same_limits(monkeypatch):
    cases = [build(parse_family(n)) for n, _ in LIMIT_FIXTURES[:3]]
    cases += random_limit_draws(3, seed=11)
    expected = [stationary_kr(S, uniform_probs(S)).entries for S in cases]

    passes = []
    values = StationaryEngine.values

    def counted(engine, xs, *args):
        passes.append(len(xs[0].cs))  # precision of the scaled weights
        return values(engine, xs, *args)

    monkeypatch.setattr(stationary, "LIMIT_START_PRECISION", 1)
    monkeypatch.setattr(StationaryEngine, "values", counted)
    retried = 0
    for S, want in zip(cases, expected):
        passes.clear()
        assert stationary_kr(S, uniform_probs(S)).entries == want
        assert passes == [1, 2, 4, 8][: len(passes)]
        retried += len(passes) > 1
    assert retried == len(cases), "precision 1 never ran out"


def test_precision_cap_error(monkeypatch, z2x01):
    monkeypatch.setattr(stationary, "LIMIT_START_PRECISION", 1)
    monkeypatch.setattr(stationary, "LIMIT_MAX_PRECISION", 1)
    with pytest.raises(LimitPrecisionExceeded, match=r"limit stage.*1 terms"):
        stationary_kr(z2x01, uniform_probs(z2x01))


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


# -- limit mode against the S⁰ route, its reference -------------------------------


def reference_limit(S, xs):
    """The S⁰ route: adjoin a zero generator of weight t, run the direct
    pipeline on S⁰ over series and map each state u·0 back to the vertex of
    u in KR(S), keeping the minimal ideal of KR(S)."""
    S2 = adjoin_zero(S)
    I2 = minimal_ideal(S2)
    engine = StationaryEngine(S2, I2)
    prec = stationary.LIMIT_START_PRECISION
    while True:
        t = Series.variable(prec)
        one_minus_t = t.one() - t
        xs2 = [Series.const(v, prec) * one_minus_t for v in xs] + [t]
        try:
            sym = _stationary_kr_direct(S2, xs2, I2, engine)
            limits = {k: v.limit_at_zero() for k, v in sym.entries.items()}
            break
        except PrecisionLost:
            prec *= 2
    kr = karnofsky_rhodes(S)
    ideal_vertices = set(minimal_ideal_vertices(kr.graph))
    masses, nf_words, alt_labels = {}, {}, {}
    for alt_label, limit in limits.items():
        ki = sym.key_info[alt_label]
        assert ki.word[-1] == S.n_gens and S.n_gens not in ki.word[:-1]
        u = kr.graph.follow(kr.graph.root, ki.word[:-1])
        if u not in ideal_vertices:
            assert limit == 0  # the pure zero and states outside the ideal
            continue
        assert u not in masses
        masses[u], nf_words[u], alt_labels[u] = limit, ki.nf_words, alt_label
    return _kr_result(kr, masses, nf_words, alt_labels)


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
    cases = [pytest.param(S, uniform_probs(S), id=n) for n, S in named]
    for n, S in named[:2]:  # rees_general and z2x01
        cases.append(pytest.param(S, [Fraction(2, 5), Fraction(3, 5)], id=n + "@2/5"))
    return cases


@pytest.mark.parametrize("S,xs", _limit_cases())
def test_limit_mode_matches_s0_route(S, xs):
    got = stationary_kr(S, xs, force_limit=True)
    want = reference_limit(S, xs)
    assert list(got.entries.items()) == list(want.entries.items())
    assert list(got.key_info.items()) == list(want.key_info.items())


def test_limit_mode_expands_s_once_and_no_s0(monkeypatch):
    S = build(parse_family("rees_general"))
    seen = []

    def spy(name):
        fn = getattr(stationary, name)

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.append((name, args[0], result))
            return result
        monkeypatch.setattr(stationary, name, wrapped)

    def no_zero(*args, **kwargs):
        raise AssertionError("limit mode adjoined a zero")

    spy("karnofsky_rhodes")
    spy("mccammond")
    monkeypatch.setattr(core, "adjoin_zero", no_zero)
    monkeypatch.setattr(stationary, "adjoin_zero", no_zero, raising=False)
    stationary_kr(S, uniform_probs(S))
    assert [name for name, _, _ in seen] == ["karnofsky_rhodes", "mccammond"]
    (_, kr_arg, kr), (_, mc_arg, _) = seen
    assert kr_arg is S and mc_arg is kr
