from fractions import Fraction
from itertools import accumulate, product

import pytest

from semiwalk.chains import tv_distance
from semiwalk.core import SemigroupError, minimal_ideal, semigroup_from_table
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.simulate import (
    _BLOCK,
    _GOLDEN,
    SplitMix64,
    _next53s,
    _thresholds,
    _WalkTables,
    mix64,
    simulate_semaphore,
    simulate_state_at,
    walker_seed,
)
from semiwalk.stationary import stationary_kr, uniform_probs
from semiwalk import families
from semiwalk.families import build, parse_family

F = Fraction
HALF = [F(1, 2), F(1, 2)]


def test_splitmix_reference_values():
    # the generator seeded with 0 must produce this fixed stream forever
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert mix64(0) == 0
    assert walker_seed(42, 0) == walker_seed(42, 0)
    assert walker_seed(42, 0) != walker_seed(42, 1)
    assert walker_seed(42, 0) != walker_seed(43, 0)


@pytest.mark.parametrize("state", [0, 2**64 - 1, 2**64 - _GOLDEN + 5],
                         ids=["zero", "top", "wraps"])
@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_block_stream_equals_the_generator(state, count):
    # "wraps": state + GOLDEN passes 2^64 by 5, so lane 0 holds a wrapped sum
    rng = SplitMix64(state)
    assert list(_next53s(state, count)) == [rng.next53() for _ in range(count)]


def test_simulation_bit_identical(b2):
    d1 = simulate_semaphore(b2, HALF, walkers=4, steps=500, seed=7)
    d2 = simulate_semaphore(b2, HALF, walkers=4, steps=500, seed=7)
    assert d1.counts == d2.counts
    d3 = simulate_semaphore(b2, HALF, walkers=4, steps=500, seed=8)
    assert d1.counts != d3.counts


def test_single_generator_walk_deterministic():
    S = semigroup_from_table([[0]], gens=[0], gen_names=["a"])
    d = simulate_semaphore(S, [F(1)], walkers=2, steps=50, seed=1)
    assert d.counts == {"a": 100}


def test_b2_empirical_close(b2):
    exact = {k: float(v) for k, v in stationary_kr(b2, HALF).entries.items()}
    emp = simulate_semaphore(b2, HALF, walkers=10, steps=5000, seed=42)
    assert tv_distance(emp, exact) < 0.02


def test_tsetlin_uniform_empirical(p3):
    xs = uniform_probs(p3)
    emp = simulate_semaphore(p3, xs, walkers=6, steps=4000, seed=3)
    assert set(emp.counts) == {
        "123", "132", "213", "231", "312", "321"
    }
    for c in emp.counts.values():
        assert abs(c / emp.total - 1 / 6) < 0.02


def test_law_of_large_numbers_decades(b2):
    exact = {k: float(v) for k, v in stationary_kr(b2, HALF).entries.items()}
    tvs = []
    for steps in (100, 1000, 10000):
        emp = simulate_semaphore(b2, HALF, walkers=10, steps=steps, seed=11)
        tvs.append(tv_distance(emp, exact))
    assert tvs[2] < tvs[0]
    assert tvs[1] <= 2 * tvs[0] and tvs[2] <= 2 * tvs[1]


def test_lump_to_semigroup_level(p3):
    xs = uniform_probs(p3)
    emp = simulate_semaphore(p3, xs, walkers=2, steps=100, seed=5)
    info = stationary_kr(p3, xs).key_info
    assert {p3.element_name(info[k].element) for k in emp.counts} == {"123"}


def test_non_left_zero_kernel_is_rejected():
    S = families.rees_general()
    for simulate in (simulate_semaphore, simulate_state_at):
        with pytest.raises(SemigroupError, match="not left zero") as err:
            simulate(S, HALF, walkers=1, steps=10, seed=0)
        assert "zero_weight" not in str(err.value)


def test_state_at_fixed_step(b2):
    exact = {k: float(v) for k, v in stationary_kr(b2, HALF).entries.items()}
    d0 = simulate_state_at(b2, HALF, walkers=800, steps=1, seed=13)
    dk = simulate_state_at(b2, HALF, walkers=800, steps=24, seed=13)
    assert tv_distance(dk, exact) < tv_distance(d0, exact)
    assert dk.total == 800


def reference_walk(S, xs, walkers, steps, seed, final_only=False):
    """The word walk written plainly: SplitMix64 objects, ideal entry by
    ``S.product`` of each prefix, lumping by following the expansion graph."""
    ideal = minimal_ideal(S)
    thresholds = [int(c * 2**53) for c in accumulate(xs)]
    thresholds[-1] = 2**53

    def draw(rng):
        r = rng.next53()
        return next(i for i, t in enumerate(thresholds) if r < t)

    def enter(word):
        for j in range(1, len(word) + 1):
            if S.product(word[:j]) in ideal:
                return word[:j]
        raise AssertionError("word does not reach the ideal")

    kr = karnofsky_rhodes(S)

    def lump(word):
        return S.word_label(kr.words[kr.graph.follow(kr.graph.root, word)])

    start = None
    if final_only:  # lexicographically first shortest ideal-entering word
        for n in range(1, S.size + 2):
            start = next((w for w in product(range(S.n_gens), repeat=n)
                          if S.product(w) in ideal), None)
            if start is not None:
                break
    counts = {}
    for w in range(walkers):
        rng = SplitMix64(walker_seed(seed, w))
        word = start
        if word is None:
            word = ()
            while not word or S.product(word) not in ideal:
                word += (draw(rng),)
        for _ in range(steps):
            word = enter((draw(rng),) + word)
            if not final_only:
                counts[lump(word)] = counts.get(lump(word), 0) + 1
        if final_only:
            counts[lump(word)] = counts.get(lump(word), 0) + 1
    return counts


@pytest.mark.parametrize("family", ["b2", "tsetlin:4", "rees_zp:3,3", "flat_tower:2,2"])
def test_walk_counts_equal_reference(family, b2):
    S = b2 if family == "b2" else build(parse_family(family))
    k = S.n_gens  # unequal weights 1 : 2 : ... : k
    xs = [F(2 * (i + 1), k * (k + 1)) for i in range(k)]
    d = simulate_semaphore(S, xs, walkers=3, steps=1500, seed=17)
    assert d.counts == reference_walk(S, xs, 3, 1500, 17)
    assert d.total == 4500
    d = simulate_state_at(S, xs, walkers=200, steps=6, seed=5)
    assert d.counts == reference_walk(S, xs, 200, 6, 5, final_only=True)


@pytest.mark.parametrize("family", ["b2", "rees_zp:3,3"])
def test_walk_counts_equal_reference_across_blocks(family, b2):
    # 2,500 steps take two whole blocks of the stream and part of a third;
    # 1,025 final steps end one letter into the second block
    S = b2 if family == "b2" else build(parse_family(family))
    xs = uniform_probs(S)
    d = simulate_semaphore(S, xs, walkers=2, steps=2500, seed=23)
    assert d.counts == reference_walk(S, xs, 2, 2500, 23)
    for steps in (0, 1025):
        d = simulate_state_at(S, xs, walkers=3, steps=steps, seed=23)
        assert d.counts == reference_walk(S, xs, 3, steps, 23, final_only=True)


def test_state_at_zero_steps_is_the_start_word(b2):
    d = simulate_state_at(b2, HALF, walkers=5, steps=0, seed=1)
    assert d.counts == reference_walk(b2, HALF, 5, 0, 1, final_only=True)
    assert d.total == 5 and len(d.counts) == 1


@pytest.mark.parametrize("walkers,steps", [(0, 10), (-1, 10), (2, 0), (2, -5)])
def test_simulate_semaphore_rejects_empty_runs(b2, walkers, steps):
    with pytest.raises(SemigroupError):
        simulate_semaphore(b2, HALF, walkers=walkers, steps=steps, seed=0)


@pytest.mark.parametrize("walkers,steps", [(0, 10), (-1, 0), (2, -1)])
def test_simulate_state_at_rejects_empty_runs(b2, walkers, steps):
    with pytest.raises(SemigroupError):
        simulate_state_at(b2, HALF, walkers=walkers, steps=steps, seed=0)


def test_word_outside_the_ideal_raises():
    # on four books a word needs three distinct letters to enter the ideal,
    # so no letter in front of the one-letter word (0,) gets it there
    S = families.tsetlin(4)
    walk = _WalkTables(S)
    with pytest.raises(AssertionError):
        walk.run((0,), 0, _thresholds(uniform_probs(S)), 1, [0] * len(walk.out))
